//! Chaos-layer integration: crash/restart with anti-entropy hint
//! recovery, partitions degrading to the origin and healing, and live
//! Plaxton-table repair matching the analytic reconfiguration count.

use bh_integration::tuned;
use bh_plaxton::NodeSpec;
use bh_proto::chaos::{analytic_churn_for, FaultKind};
use bh_proto::client::Source;
use bh_proto::mesh::{Mesh, Topology};
use bh_proto::node::mesh_tree_for;
use bh_proto::origin::OriginServer;

/// A flat mesh of `n` nodes with fast failure detection, manual
/// flush/heartbeat driving and bounded teardown — the tuning every test
/// here shares.
fn tuned_mesh(n: usize) -> Mesh {
    let origin = OriginServer::spawn("127.0.0.1:0").expect("origin");
    Mesh::spawn(origin, Topology::Flat { nodes: n }, |_, c| tuned(c)).expect("mesh")
}

/// A node that crash-stops (hint table lost, no goodbye) and warm-restarts
/// on the same port rebuilds its hint table via anti-entropy resync and
/// converges to a never-crashed witness, entry for entry.
#[test]
fn crash_restart_resync_rebuilds_the_hint_table() {
    let mut mesh = tuned_mesh(4);
    // Objects live on nodes 0 and 2; nodes 1 (victim) and 3 (witness)
    // learn of them only through hint batches.
    for i in 0..6 {
        bh_proto::fetch(
            mesh.node(0).expect("node 0").addr(),
            &format!("http://chaos.test/a/{i}"),
        )
        .expect("seed at node 0");
        bh_proto::fetch(
            mesh.node(2).expect("node 2").addr(),
            &format!("http://chaos.test/b/{i}"),
        )
        .expect("seed at node 2");
    }
    mesh.flush_all();

    let witness = mesh.node(3).expect("witness").hint_entries();
    assert_eq!(witness.len(), 12, "witness learned every advertised object");
    assert_eq!(mesh.node(1).expect("victim").hint_entries(), witness);

    mesh.crash(1);
    let rebuilt = mesh.restart(1).expect("restart on the old port");
    assert_eq!(rebuilt, 12, "resync re-learned every advertised object");
    assert_eq!(
        mesh.node(1).expect("restarted victim").hint_entries(),
        witness,
        "restarted node converged to the never-crashed witness"
    );

    // The recovered hints are live: the restarted node serves a hinted
    // object with a single successful peer probe.
    let (src, body) = bh_proto::fetch(
        mesh.node(1).expect("restarted victim").addr(),
        "http://chaos.test/a/0",
    )
    .expect("fetch through recovered hint");
    assert!(
        matches!(src, Source::Peer(_)),
        "recovered hint routed to the peer copy, got {src:?}"
    );
    assert!(!body.is_empty());
    mesh.shutdown();
}

/// While a link is partitioned, a hinted fetch across it degrades to a
/// clean origin fetch (one wasted probe, no error); after the partition
/// heals, fresh hints flow and peer hits resume.
#[test]
fn partition_degrades_to_origin_then_heals() {
    let mut mesh = tuned_mesh(3);
    let node0 = mesh.node(0).expect("node 0").addr();
    let node1 = mesh.node(1).expect("node 1").addr();

    // Healthy baseline: a hint at node 0 for node 1's object peer-hits.
    bh_proto::fetch(node1, "http://chaos.test/x").expect("seed x");
    // Seed the object fetched *during* the partition now, while hints
    // still propagate.
    bh_proto::fetch(node1, "http://chaos.test/y").expect("seed y");
    mesh.flush_all();
    let (src, _) = bh_proto::fetch(node0, "http://chaos.test/x").expect("fetch x");
    assert!(
        matches!(src, Source::Peer(_)),
        "baseline peer hit, got {src:?}"
    );

    mesh.inject(FaultKind::Partition { a: 0, b: 1 })
        .expect("inject partition");
    let before = mesh.node(0).expect("node 0").stats();
    let (src, body) = bh_proto::fetch(node0, "http://chaos.test/y").expect("no client error");
    assert_eq!(src, Source::Origin, "partitioned probe degraded to origin");
    assert!(!body.is_empty());
    let during = mesh.node(0).expect("node 0").stats();
    assert_eq!(
        during.degraded_to_origin,
        before.degraded_to_origin + 1,
        "degradation is accounted"
    );
    assert_eq!(
        during.false_positives,
        before.false_positives + 1,
        "the unreachable hint cost exactly one wasted probe"
    );

    mesh.lift(FaultKind::Partition { a: 0, b: 1 })
        .expect("lift partition");
    // A fresh object advertised after healing peer-hits again.
    bh_proto::fetch(node1, "http://chaos.test/z").expect("seed z");
    mesh.flush_all();
    let (src, _) = bh_proto::fetch(node0, "http://chaos.test/z").expect("fetch z");
    assert!(
        matches!(src, Source::Peer(_)),
        "healed link carries hints again, got {src:?}"
    );
    mesh.shutdown();
}

/// A one-way partition blocks exactly one direction: the blocked side
/// degrades its hinted fetches to the origin while the reverse path keeps
/// peer-hitting, and lifting the fault restores hint flow cleanly.
#[test]
fn one_way_partition_degrades_only_the_blocked_direction() {
    let mut mesh = tuned_mesh(3);
    let node0 = mesh.node(0).expect("node 0").addr();
    let node1 = mesh.node(1).expect("node 1").addr();

    // Seed objects on both sides while the mesh is healthy so both nodes
    // hold hints across the soon-to-be-severed direction.
    bh_proto::fetch(node0, "http://chaos.test/w").expect("seed w at node 0");
    bh_proto::fetch(node1, "http://chaos.test/y").expect("seed y at node 1");
    mesh.flush_all();

    mesh.inject(FaultKind::PartitionOneWay { from: 0, to: 1 })
        .expect("inject one-way partition");

    // Blocked direction (0 -> 1): the hinted probe fails and the fetch
    // degrades to a clean origin hit.
    let before = mesh.node(0).expect("node 0").stats();
    let (src, body) = bh_proto::fetch(node0, "http://chaos.test/y").expect("no client error");
    assert_eq!(src, Source::Origin, "blocked direction degraded to origin");
    assert!(!body.is_empty());
    let during = mesh.node(0).expect("node 0").stats();
    assert_eq!(
        during.degraded_to_origin,
        before.degraded_to_origin + 1,
        "degradation is accounted on the blocked side"
    );
    assert_eq!(
        during.false_positives,
        before.false_positives + 1,
        "the unreachable hint cost exactly one wasted probe"
    );

    // Reverse direction (1 -> 0) is untouched: node 1 still peer-hits
    // node 0's object through the same physical link.
    let reverse_before = mesh.node(1).expect("node 1").stats();
    let (src, _) = bh_proto::fetch(node1, "http://chaos.test/w").expect("fetch w");
    assert!(
        matches!(src, Source::Peer(_)),
        "unblocked direction still peer-hits, got {src:?}"
    );
    let reverse_during = mesh.node(1).expect("node 1").stats();
    assert_eq!(
        reverse_during.degraded_to_origin, reverse_before.degraded_to_origin,
        "no degradation on the unblocked side"
    );

    mesh.lift(FaultKind::PartitionOneWay { from: 0, to: 1 })
        .expect("lift one-way partition");
    // A fresh object advertised after healing peer-hits in the direction
    // that was blocked.
    bh_proto::fetch(node1, "http://chaos.test/z").expect("seed z");
    mesh.flush_all();
    let (src, _) = bh_proto::fetch(node0, "http://chaos.test/z").expect("fetch z");
    assert!(
        matches!(src, Source::Peer(_)),
        "healed direction carries hints again, got {src:?}"
    );
    mesh.shutdown();
}

/// When a peer's death is confirmed, every survivor repairs its Plaxton
/// routing table in place — and the number of rewritten entries matches
/// the analytic count from replaying the same membership change on a
/// fresh tree. Revival repairs are counted the same way.
#[test]
fn live_plaxton_repair_matches_analytic_churn() {
    let mut mesh = tuned_mesh(4);
    let addrs = mesh.addrs().to_vec();
    let removed = analytic_churn_for(&addrs, 2);

    mesh.crash(2);
    assert!(
        mesh.await_confirmed_death(2),
        "survivors never confirmed node {} dead",
        2
    );
    for i in [0usize, 1, 3] {
        let s = mesh.node(i).expect("survivor").stats();
        assert_eq!(s.peers_confirmed_dead, 1, "node {i} confirmed one death");
        assert_eq!(
            s.plaxton_repair_entries as usize, removed,
            "node {i}: live removal churn must equal the analytic count"
        );
    }

    // Restart the dead node; survivors notice on their next heartbeat
    // round and splice it back into their trees.
    mesh.restart(2).expect("restart node 2");
    mesh.heartbeat_all();
    let readded = {
        let mut tree = mesh_tree_for(&addrs);
        tree.remove_node(2).expect("analytic removal");
        let (_, changed) = tree
            .add_node(NodeSpec::from_address(&addrs[2].to_string(), (2.0, 0.0)))
            .expect("analytic re-add");
        changed
    };
    for i in [0usize, 1, 3] {
        let s = mesh.node(i).expect("survivor").stats();
        assert_eq!(
            s.plaxton_repair_entries as usize,
            removed + readded,
            "node {i}: revival churn must equal the analytic count"
        );
    }
    mesh.shutdown();
}
