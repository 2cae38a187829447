//! Chaos over the hint hierarchy: crash an interior parent mid-replay
//! and verify the tree heals — orphaned children re-home to a fallback
//! parent, hint propagation resumes across the mended edge, no client
//! ever sees an error, and the survivors' live Plaxton repair counts
//! match the analytic churn model (including revival), the same
//! live-vs-analytic parity the flat-mesh chaos tests pin.

use bh_plaxton::NodeSpec;
use bh_proto::chaos::{analytic_churn_for, FaultKind};
use bh_proto::client::Source;
use bh_proto::liveness::PeerHealth;
use bh_proto::mesh::{Mesh, Topology};
use bh_proto::node::{mesh_tree_for, NodeConfig};
use bh_proto::origin::OriginServer;
use bh_proto::replay::{replay_concurrent, ReplayConfig};
use bh_trace::scenario::FlashCrowdSpec;
use bh_trace::{TraceRecord, WorkloadSpec};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Fast failure detection, manual flush/heartbeat driving, bounded
/// teardown — the same tuning the flat-mesh chaos tests use.
fn tuned(c: NodeConfig) -> NodeConfig {
    let mut c = c
        .with_flush_max(Duration::from_secs(3600))
        .with_heartbeat_interval(Duration::from_secs(3600))
        .with_suspicion_threshold(2)
        .with_confirm_death_after(Duration::from_millis(100))
        .with_shutdown_deadline(Duration::from_secs(2));
    c.io_timeout = Duration::from_millis(500);
    c
}

/// Drives heartbeat rounds until every survivor has confirmed `dead`
/// dead, panicking if that takes more than 10 seconds.
fn drive_to_death(mesh: &Mesh, dead: usize) {
    let addr = mesh.addrs()[dead];
    // bh-lint: allow(no-wall-clock, reason = "deadline-bounded wait on a live mesh; failure detection is wall-clock here")
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        mesh.heartbeat_all();
        let confirmed = (0..mesh.addrs().len())
            .filter(|&i| i != dead)
            .filter_map(|i| mesh.node(i))
            .all(|n| n.peer_health(addr) == PeerHealth::Dead);
        if confirmed {
            return;
        }
        assert!(
            // bh-lint: allow(no-wall-clock, reason = "loop bound against the same live-mesh deadline")
            Instant::now() < deadline,
            "survivors never confirmed node {dead} dead"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Replays `records[start..end]` against the mesh from 8 closed-loop
/// clients, asserting zero client errors. While `crashed` names a down
/// node, its client groups are rerouted to `reroute_to` — the clients
/// reconnect, they don't stall or error.
fn replay_slice(
    mesh: &Mesh,
    spec: &WorkloadSpec,
    records: &[TraceRecord],
    range: std::ops::Range<usize>,
    crashed: Option<(usize, usize)>,
) {
    let mut addrs: Vec<SocketAddr> = mesh.addrs().to_vec();
    if let Some((dead, reroute_to)) = crashed {
        addrs[dead] = addrs[reroute_to];
    }
    let mut config = ReplayConfig::flat_out(addrs);
    config.clients_per_l1 = spec.clients_per_l1;
    config.dynamic_client_ids = spec.dynamic_client_ids;
    let out = replay_concurrent(&config, &records[range], 8).expect("replay slice");
    assert_eq!(out.report.errors, 0, "zero client errors");
}

/// The scenario the whole harness pins, live and in miniature: a
/// two-level hierarchy replaying a flash crowd loses an interior parent
/// mid-ramp. The orphaned child adopts a fallback parent, propagation
/// resumes through the mended edge, clients never see an error, and
/// both the removal and the revival churn match the analytic model
/// entry for entry.
#[test]
fn parent_crash_mid_replay_rehomes_children_and_matches_analytic_churn() {
    let topology = Topology::TwoLevel {
        parents: 2,
        children_per_parent: 1,
    };
    let origin = OriginServer::spawn("127.0.0.1:0").expect("origin");
    let mut mesh = Mesh::spawn(origin, topology, |_, c| tuned(c)).expect("mesh");
    let addrs = mesh.addrs().to_vec();

    // A miniature flash crowd whose ramp spans the crash window.
    let spec = FlashCrowdSpec {
        base: WorkloadSpec::small()
            .with_requests(900)
            .with_clients(topology.size() as u32 * 256)
            .with_p_new(0.35),
        ramp_start: 200,
        ramp_len: 400,
        peak_share: 0.4,
    };
    spec.validate().expect("valid spec");
    let records: Vec<TraceRecord> = spec.materialize(7).iter().collect();

    // Healthy first half of the replay, then drain pending hints.
    replay_slice(&mesh, &spec.base, &records, 0..450, None);
    mesh.flush_all();

    // Crash the interior parent by role, not index.
    let dead = match mesh.resolve(FaultKind::CrashParent { level: 0 }) {
        FaultKind::Crash { node } => node,
        other => panic!("CrashParent must resolve to a concrete crash, got {other:?}"),
    };
    assert_eq!(dead, 0, "level-0 parent of the two-level mesh is node 0");
    let orphan = topology.children_of(dead)[0];
    let other_parent = 1usize;
    let other_child = topology.children_of(other_parent)[0];
    let before: Vec<_> = (0..addrs.len())
        .map(|i| mesh.node(i).map(|n| n.stats()))
        .collect();

    mesh.inject(FaultKind::CrashParent { level: 0 })
        .expect("inject parent crash");
    drive_to_death(&mesh, dead);

    // The rest of the replay rides through the dead parent's window with
    // its clients rerouted — still zero errors.
    replay_slice(
        &mesh,
        &spec.base,
        &records,
        450..900,
        Some((dead, other_parent)),
    );

    // Live Plaxton repair on every survivor equals the analytic churn
    // count for this membership change.
    let removed = analytic_churn_for(&addrs, dead);
    for i in (0..addrs.len()).filter(|&i| i != dead) {
        let s = mesh.node(i).expect("survivor").stats();
        let base = before[i].as_ref().expect("baseline stats");
        assert_eq!(
            (s.plaxton_repair_entries - base.plaxton_repair_entries) as usize,
            removed,
            "node {i}: live removal churn must equal the analytic count"
        );
    }

    // The orphan re-homed to the surviving parent; the other child was
    // never orphaned and kept its parent.
    let orphan_node = mesh.node(orphan).expect("orphan");
    assert_eq!(
        orphan_node.parent(),
        Some(addrs[other_parent]),
        "orphan adopted the fallback parent"
    );
    assert_eq!(orphan_node.stats().parent_rehomes, 1, "one re-home counted");
    let untouched = mesh.node(other_child).expect("other child");
    assert_eq!(untouched.parent(), Some(addrs[other_parent]));
    assert_eq!(untouched.stats().parent_rehomes, 0);

    // Propagation resumed through the mended edge: a fresh object cached
    // at the re-homed orphan reaches the other subtree's child in two
    // flush rounds (orphan -> adopted parent -> its children).
    bh_proto::fetch(addrs[orphan], "http://hierarchy.test/mended")
        .expect("seed at the re-homed orphan");
    mesh.flush_all();
    mesh.flush_all();
    let (src, body) = bh_proto::fetch(addrs[other_child], "http://hierarchy.test/mended")
        .expect("fetch through the re-advertised hint");
    assert!(
        matches!(src, Source::Peer(_)),
        "hint propagated across the mended hierarchy, got {src:?}"
    );
    assert!(!body.is_empty());

    // Revival: restart the crashed parent; survivors splice it back and
    // the revival churn matches the analytic re-add too.
    mesh.restart(dead).expect("restart the crashed parent");
    mesh.heartbeat_all();
    let readded = {
        let mut tree = mesh_tree_for(&addrs);
        tree.remove_node(dead).expect("analytic removal");
        let (_, changed) = tree
            .add_node(NodeSpec::from_address(
                &addrs[dead].to_string(),
                (dead as f64, 0.0),
            ))
            .expect("analytic re-add");
        changed
    };
    for i in (0..addrs.len()).filter(|&i| i != dead) {
        let s = mesh.node(i).expect("survivor").stats();
        let base = before[i].as_ref().expect("baseline stats");
        assert_eq!(
            (s.plaxton_repair_entries - base.plaxton_repair_entries) as usize,
            removed + readded,
            "node {i}: revival churn must equal the analytic count"
        );
    }
    mesh.shutdown();
}

/// `CrashParent` is a role, not an index: it validates only against a
/// topology that has interior parents, and the flat-mesh validator
/// (which all pre-hierarchy plans go through) rejects it.
#[test]
fn crash_parent_requires_a_hierarchy() {
    use bh_proto::chaos::{FaultPlan, FaultWindow};
    let plan = FaultPlan {
        seed: 1,
        windows: vec![FaultWindow {
            fault: FaultKind::CrashParent { level: 0 },
            pre: 1,
            hold: 1,
            post: 1,
        }],
    };
    plan.validate_for(&Topology::TwoLevel {
        parents: 2,
        children_per_parent: 1,
    })
    .expect("a hierarchy has a level-0 parent to crash");
    assert!(
        plan.validate(4).is_err(),
        "the flat-mesh validator must reject role-targeted faults"
    );
    assert!(
        plan.validate_for(&Topology::Flat { nodes: 4 }).is_err(),
        "a flat topology has no parent at any level"
    );
}
