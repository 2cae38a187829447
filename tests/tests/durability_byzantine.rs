//! Durable, authenticated hint store under chaos: a byzantine peer
//! whose batches carry corrupted authenticators must be detected,
//! quarantined, and purged with **zero client errors** (hints are
//! advisory — §3.2's invariant extends to forged hints), and a node
//! with a durable hint log must recover its hint table on warm restart
//! by replaying the log instead of pulling a network-wide resync.

use bh_proto::chaos::FaultKind;
use bh_proto::client::Source;
use bh_proto::mesh::{Mesh, Topology};
use bh_proto::node::{CacheNode, NodeConfig};
use bh_proto::origin::OriginServer;
use bh_proto::wire::{read_message, write_message, HintAction, HintUpdate, MachineId, Message};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A flat 3-node mesh; `tune` sees each node's spawn index.
fn mesh_of_three(tune: impl Fn(usize, NodeConfig) -> NodeConfig) -> Mesh {
    let origin = OriginServer::spawn("127.0.0.1:0").expect("origin");
    Mesh::spawn(origin, Topology::Flat { nodes: 3 }, tune).expect("mesh")
}

/// Fast control-plane knobs so the whole exercise runs in test time.
fn fast(c: NodeConfig) -> NodeConfig {
    let mut c = c
        .with_flush_max(Duration::from_secs(3600))
        .with_heartbeat_interval(Duration::from_secs(3600))
        .with_shutdown_deadline(Duration::from_secs(2));
    c.io_timeout = Duration::from_millis(800);
    c
}

/// A unique scratch directory per test run.
fn scratch(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("bh-durability-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn corrupt_hints_are_quarantined_and_purged_with_zero_client_errors() {
    let mut mesh = mesh_of_three(|_, c| fast(c));
    let byzantine = 2usize;
    let byz_machine = mesh.node(byzantine).expect("node 2").machine_id();

    // Honest phase: node 2 advertises real copies; everyone learns them.
    let seeded = "http://t.test/seeded";
    let seeded_key = bh_md5::url_key(seeded);
    bh_proto::fetch(mesh.addrs()[byzantine], seeded).expect("seed at node 2");
    mesh.flush_all();
    for i in 0..2 {
        assert_eq!(
            mesh.node(i).expect("live").find_nearest(seeded_key),
            Some(byz_machine),
            "node {i} learned the honest hint"
        );
    }

    // Node 2 turns byzantine: every outbound batch has a corrupt tag.
    mesh.inject(FaultKind::CorruptHints { peer: byzantine })
        .expect("inject");
    for round in 0..3 {
        let url = format!("http://t.test/forged-{round}");
        bh_proto::fetch(mesh.addrs()[byzantine], &url).expect("fetch at byzantine node");
        mesh.node(byzantine).expect("live").flush_updates_now();
        // None of the forged adds may land anywhere.
        let key = bh_md5::url_key(&url);
        for i in 0..2 {
            assert_eq!(
                mesh.node(i).expect("live").find_nearest(key),
                None,
                "node {i} rejected the corrupt batch in round {round}"
            );
        }
    }

    // Threshold crossed: both receivers counted three failures,
    // quarantined the sender, and purged the hints it had planted.
    for i in 0..2 {
        let node = mesh.node(i).expect("live");
        let stats = node.stats();
        assert_eq!(stats.hint_auth_failures, 3, "node {i} failure streak");
        assert!(
            stats.stale_hints_gc >= 1,
            "node {i} purged the byzantine peer's hints"
        );
        assert_eq!(
            node.find_nearest(seeded_key),
            None,
            "node {i} dropped even the previously honest hint"
        );
    }

    // Zero client errors throughout: a request that would have probed
    // the (now-purged) peer simply goes to the origin.
    let (src, body) = bh_proto::fetch(mesh.addrs()[0], seeded).expect("client never errors");
    assert_eq!(src, Source::Origin);
    assert!(!body.is_empty());

    // Heal: lift the fault, the peer's next valid batch is accepted and
    // the quarantine clears.
    mesh.lift(FaultKind::CorruptHints { peer: byzantine })
        .expect("lift");
    let healed = "http://t.test/healed";
    let healed_key = bh_md5::url_key(healed);
    bh_proto::fetch(mesh.addrs()[byzantine], healed).expect("fetch after heal");
    mesh.node(byzantine).expect("live").flush_updates_now();
    for i in 0..2 {
        let node = mesh.node(i).expect("live");
        assert_eq!(
            node.find_nearest(healed_key),
            Some(byz_machine),
            "node {i} accepts the healed peer's hints again"
        );
        assert_eq!(
            node.stats().hint_auth_failures,
            3,
            "node {i} counted no further failures after the lift"
        );
    }
    mesh.shutdown();
}

#[test]
fn corrupt_resync_replies_are_rejected_mid_replay() {
    let mut mesh = mesh_of_three(|_, c| fast(c));
    let honest = 0usize;
    let byzantine = 2usize;
    let honest_machine = mesh.node(honest).expect("live").machine_id();

    // Both peers hold distinct objects the restarting node will pull.
    bh_proto::fetch(mesh.addrs()[honest], "http://t.test/honest").expect("seed honest");
    bh_proto::fetch(mesh.addrs()[byzantine], "http://t.test/byz").expect("seed byzantine");

    mesh.crash(1);
    mesh.inject(FaultKind::CorruptHints { peer: byzantine })
        .expect("inject");

    // Restart mid-fault: the resync pull reaches both peers, but the
    // byzantine Resync reply fails verification and contributes nothing.
    let recovered = mesh.restart(1).expect("restart");
    let node = mesh.node(1).expect("restarted");
    assert_eq!(recovered, 1, "only the honest peer's reply was applied");
    assert_eq!(
        node.find_nearest(bh_md5::url_key("http://t.test/honest")),
        Some(honest_machine)
    );
    assert_eq!(
        node.find_nearest(bh_md5::url_key("http://t.test/byz")),
        None,
        "forged resync reply rejected"
    );
    assert_eq!(node.stats().hint_auth_failures, 1);
    mesh.shutdown();
}

#[test]
fn warm_restart_replays_the_log_instead_of_resyncing() {
    let root = scratch("warm");
    let mut mesh = mesh_of_three(|i, c| fast(c).with_durability_dir(root.join(format!("node{i}"))));
    let source_machine = mesh.node(0).expect("live").machine_id();

    // Node 0 caches five objects and advertises them; node 1 applies the
    // batch (staging durable-log records) and persists on its own flush.
    let urls: Vec<String> = (0..5).map(|i| format!("http://t.test/obj-{i}")).collect();
    for url in &urls {
        bh_proto::fetch(mesh.addrs()[0], url).expect("seed at node 0");
    }
    mesh.flush_all();
    mesh.flush_all();
    let before: Vec<(u64, u64)> = mesh.node(1).expect("live").hint_entries();
    assert_eq!(before.len(), urls.len(), "node 1 learned every hint");

    // Crash and warm-restart: the log replay rebuilds the table with no
    // network resync — the mesh-level restart sees the replayed records
    // and skips the pull entirely.
    mesh.crash(1);
    let recovered = mesh.restart(1).expect("restart");
    let node = mesh.node(1).expect("restarted");
    let stats = node.stats();
    assert_eq!(recovered, urls.len(), "restart reports the replayed count");
    assert_eq!(stats.hints_recovered_from_log, urls.len() as u64);
    assert!(stats.hint_log_replay_micros > 0, "replay time was measured");
    assert_eq!(
        stats.updates_received, 0,
        "no resync traffic reached the restarted node"
    );
    assert_eq!(node.hint_entries(), before, "recovered table is verbatim");

    // The recovered hints are live: a request through node 1 resolves to
    // a direct peer transfer from node 0.
    let (src, _) = bh_proto::fetch(mesh.addrs()[1], &urls[0]).expect("fetch via recovered hint");
    assert_eq!(src, Source::Peer(source_machine));

    mesh.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// A hand-written frame on retired tag 4 (the plain update batch, see the
/// tag table in `wire.rs`) carrying one `Add`:
/// `u32 len | u8 4 | u32 count | u32 action | u64 object | u64 machine`.
/// That frame carried no authenticator, so a node that still applied it
/// let any sender plant hints past the keyed-MD5 check.
fn tag4_add_frame(object: u64, machine: MachineId) -> Vec<u8> {
    let mut frame = Vec::new();
    frame.extend_from_slice(&24u32.to_le_bytes());
    frame.push(4);
    frame.extend_from_slice(&1u32.to_le_bytes()); // count
    frame.extend_from_slice(&1u32.to_le_bytes()); // action: Add
    frame.extend_from_slice(&object.to_le_bytes());
    frame.extend_from_slice(&machine.0.to_le_bytes());
    frame
}

/// Sends `frame` on a fresh connection and asserts the node hangs up
/// without answering a single byte (no `Ack`).
fn assert_closed_without_reply(node: &CacheNode, frame: &[u8]) {
    let mut stream = TcpStream::connect(node.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    stream.write_all(frame).expect("send frame");
    let mut reply = [0u8; 5];
    match stream.read(&mut reply) {
        Ok(0) => {}
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
        other => panic!("node answered a retired frame: {other:?} {reply:?}"),
    }
}

#[test]
fn retired_update_batch_frame_cannot_bypass_hint_authentication() {
    let origin = OriginServer::spawn("127.0.0.1:0").expect("origin");
    let node = CacheNode::spawn(fast(NodeConfig::new("127.0.0.1:0", origin.addr()))).expect("node");
    let add = |object: u64, machine: MachineId| HintUpdate {
        action: HintAction::Add,
        object,
        machine,
    };

    // One honest, authenticated hint so "unchanged" is not vacuous.
    let honest = MachineId::from_addr("10.0.0.1:3128".parse().expect("addr")).expect("v4");
    let forger = MachineId::from_addr("10.0.0.2:3128".parse().expect("addr")).expect("v4");
    let mut conn = TcpStream::connect(node.addr()).expect("connect");
    let mut send_acked = |msg: Message| {
        write_message(&mut conn, &msg).expect("send");
        assert_eq!(read_message(&mut conn).expect("reply"), Message::Ack);
    };
    // A bad-tag batch is still Acked: hints are advisory, the sender
    // learns nothing from the reply.
    let forged = |object: u64| Message::HintBatch {
        sender: forger,
        updates: vec![add(object, forger)],
        tag: [0u8; 16],
    };
    send_acked(Message::hint_batch(honest, vec![add(1, honest)]));
    let before = node.hint_entries();
    assert_eq!(before, vec![(1, honest.0)]);
    assert_eq!(node.stats().updates_received, 1);

    // A forged Add on the retired unauthenticated tag: the connection is
    // closed without an Ack and nothing reaches the hint store.
    assert_closed_without_reply(&node, &tag4_add_frame(2, forger));
    assert_eq!(node.hint_entries(), before);
    assert_eq!(node.stats().updates_received, 1);

    // Three bad-tag batches quarantine the forger...
    for object in 10..13 {
        send_acked(forged(object));
    }
    assert_eq!(node.stats().hint_auth_failures, 3);
    assert!(
        node.pool().is_blocked(forger.to_addr()),
        "forger quarantined"
    );

    // ...and once quarantined, no tag gets its hints in: not the retired
    // plain batch, not another unauthenticated HintBatch.
    assert_closed_without_reply(&node, &tag4_add_frame(3, forger));
    send_acked(forged(4));
    assert_eq!(node.hint_entries(), before);
    assert_eq!(node.stats().updates_received, 1);
}
