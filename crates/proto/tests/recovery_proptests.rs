//! Property tests for crash-recovery convergence: a node that
//! crash-stops, loses its entire hint table, restarts on the same port,
//! and runs one anti-entropy resync must end up with exactly the hint
//! table of a peer that never crashed — for any assignment of objects to
//! the surviving nodes.
//!
//! Topology per case: a 4-node full mesh where objects are cached only on
//! nodes 0 and 2, node 1 is the crash victim, and node 3 is the
//! never-crashed witness. Both 1 and 3 learn every object purely from
//! hint-update batches, so after 1's crash/restart/resync the two tables
//! must agree record for record.

use bh_proto::mesh::{Mesh, Topology};
use bh_proto::node::NodeConfig;
use bh_proto::origin::OriginServer;
use proptest::prelude::*;
use std::collections::HashSet;
use std::time::Duration;

/// Slow background timers: every flush/heartbeat in these tests is driven
/// explicitly so case outcomes don't race the clock.
fn tuned(c: NodeConfig) -> NodeConfig {
    let mut c = c
        .with_flush_max(Duration::from_secs(3600))
        .with_heartbeat_interval(Duration::from_secs(3600))
        .with_shutdown_deadline(Duration::from_secs(2));
    c.io_timeout = Duration::from_millis(500);
    c
}

/// An object population: each entry picks an owner (node 0 or node 2) and
/// an object id. Duplicate ids are dropped so every object lives on
/// exactly one node and hint tables have a unique fixed point.
fn arb_population() -> impl Strategy<Value = Vec<(usize, u32)>> {
    proptest::collection::vec((0usize..=1, 0u32..500), 1..10).prop_map(|raw| {
        let mut seen = HashSet::new();
        raw.into_iter()
            .filter(|(_, id)| seen.insert(*id))
            .map(|(owner, id)| (owner * 2, id))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Crash → restart → resync converges on the witness's hint table.
    #[test]
    fn crash_restart_resync_converges_to_witness(population in arb_population()) {
        let origin = OriginServer::spawn("127.0.0.1:0").expect("spawn origin");
        let mut mesh = Mesh::spawn(origin, Topology::Flat { nodes: 4 }, |_, c| tuned(c))
            .expect("spawn mesh");
        for &(owner, id) in &population {
            let addr = mesh.node(owner).expect("owner alive").addr();
            bh_proto::fetch(addr, &format!("http://recovery.test/{id}"))
                .expect("seed object at its owner");
        }
        // One synchronous flush per node: receivers apply the batch before
        // acking, so hints have landed everywhere when this returns.
        mesh.flush_all();

        let witness = mesh.node(3).expect("witness alive").hint_entries();
        prop_assert_eq!(witness.len(), population.len());
        // Pre-crash: victim and witness agree.
        prop_assert_eq!(&mesh.node(1).expect("victim alive").hint_entries(), &witness);

        mesh.crash(1);
        let rebuilt = mesh.restart(1).expect("restart victim on its old port");
        // Resync re-learns every object and converges on the witness.
        prop_assert_eq!(rebuilt, population.len());
        prop_assert_eq!(
            &mesh.node(1).expect("victim restarted").hint_entries(),
            &witness
        );
        mesh.shutdown();
    }
}
