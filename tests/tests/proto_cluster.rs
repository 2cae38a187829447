//! Integration tests of the networked prototype: real TCP nodes on
//! localhost exercising the full hint protocol.

use bh_proto::client::{Connection, Source};
use bh_proto::mesh::{Mesh, Topology};
use bh_proto::node::{CacheNode, NodeConfig};
use bh_proto::origin::OriginServer;
use bh_proto::wire::{read_message, write_message, HintAction, HintUpdate, MachineId, Message};
use std::net::TcpStream;
use std::time::Duration;

/// Builds a full-mesh cluster of `n` nodes plus an origin: every node
/// floods its hint-update batches to every other node.
fn mesh(n: usize) -> (OriginServer, Vec<CacheNode>) {
    let origin = OriginServer::spawn("127.0.0.1:0").expect("origin");
    Mesh::spawn(origin, Topology::Flat { nodes: n }, |_, c| {
        c.with_flush_max(Duration::from_secs(3600))
    })
    .expect("mesh")
    .into_parts()
}

#[test]
fn remote_hit_is_direct_cache_to_cache() {
    let (origin, nodes) = mesh(3);
    // Node 2 knows nodes 0 and 1 as neighbors.
    let url = "http://t.test/direct";
    let (s, body) = bh_proto::fetch(nodes[2].addr(), url).expect("fetch via node2");
    assert_eq!(s, Source::Origin);
    nodes[2].flush_updates_now();
    // Node 0 and 1 now know node 2 has a copy.
    let (s, body2) = bh_proto::fetch(nodes[0].addr(), url).expect("fetch via node0");
    assert_eq!(
        s,
        Source::Peer(nodes[2].machine_id()),
        "must fetch cache-to-cache"
    );
    assert_eq!(body, body2, "peer transfer must deliver identical bytes");
    assert_eq!(
        origin.request_count(),
        1,
        "the origin must be contacted exactly once"
    );
    assert_eq!(
        nodes[2].stats().updates_sent,
        2,
        "one Add record to each of 2 neighbors"
    );
}

#[test]
fn false_positive_probe_then_origin() {
    let (origin, nodes) = mesh(2);
    let url = "http://t.test/fp";
    bh_proto::fetch(nodes[1].addr(), url).expect("seed node1");
    nodes[1].flush_updates_now();
    // Node 0 has a hint → node 1. Now node 1 drops the object silently.
    nodes[1].invalidate(url);
    // (The Remove advertisement has NOT been flushed: stale hint at node 0.)
    let (s, body) = bh_proto::fetch(nodes[0].addr(), url).expect("fetch via node0");
    assert_eq!(
        s,
        Source::Origin,
        "false positive must fall back to the origin"
    );
    assert!(!body.is_empty());
    assert_eq!(nodes[0].stats().false_positives, 1);
    assert_eq!(origin.request_count(), 2);
    // The bad hint was dropped: the next fetch goes straight to origin
    // without a probe.
    nodes[0].invalidate(url);
    bh_proto::fetch(nodes[0].addr(), url).expect("fetch again");
    assert_eq!(
        nodes[0].stats().false_positives,
        1,
        "no second wasted probe"
    );
}

#[test]
fn push_seeds_remote_cache_and_hints() {
    let (origin, nodes) = mesh(2);
    let url = "http://t.test/pushed";
    // Push a copy into node 0 without any demand fetch.
    let mut conn = Connection::open(nodes[0].addr()).expect("open");
    conn.push(url, 1, &b"pushed-body"[..]).expect("push");
    assert_eq!(nodes[0].stats().pushes_received, 1);
    // A client of node 0 now hits locally; the origin is never contacted.
    let (s, body) = bh_proto::fetch(nodes[0].addr(), url).expect("fetch");
    assert_eq!(s, Source::Local);
    assert_eq!(&body[..], b"pushed-body");
    assert_eq!(origin.request_count(), 0);
}

#[test]
fn update_batches_carry_twenty_byte_records() {
    let (_origin, nodes) = mesh(2);
    for i in 0..10 {
        bh_proto::fetch(nodes[1].addr(), &format!("http://t.test/batch/{i}")).expect("fetch");
    }
    nodes[1].flush_updates_now();
    let received = nodes[0].stats().updates_received;
    assert_eq!(received, 10, "all ten Add records must arrive in one batch");
}

#[test]
fn find_nearest_over_the_wire() {
    let (_origin, nodes) = mesh(2);
    let url = "http://t.test/findme";
    let key = bh_md5::url_key(url);
    bh_proto::fetch(nodes[1].addr(), url).expect("seed");
    nodes[1].flush_updates_now();
    let mut conn = Connection::open(nodes[0].addr()).expect("open");
    let loc = conn.find_nearest(key).expect("find").expect("hint present");
    assert_eq!(loc, nodes[1].machine_id());
    assert_eq!(loc.to_addr(), nodes[1].addr());
}

#[test]
fn version_update_at_origin_served_after_refetch() {
    let (origin, nodes) = mesh(1);
    let url = "http://t.test/versioned";
    origin.put(url, 1, &b"v1"[..]);
    let (_, body) = bh_proto::fetch(nodes[0].addr(), url).expect("fetch v1");
    assert_eq!(&body[..], b"v1");
    // Origin publishes v2; the cache still serves v1 until invalidated
    // (strong consistency is invalidation-driven, §2.2.1).
    origin.put(url, 2, &b"v2"[..]);
    let (s, body) = bh_proto::fetch(nodes[0].addr(), url).expect("fetch cached");
    assert_eq!(s, Source::Local);
    assert_eq!(&body[..], b"v1");
    nodes[0].invalidate(url);
    let (s, body) = bh_proto::fetch(nodes[0].addr(), url).expect("fetch v2");
    assert_eq!(s, Source::Origin);
    assert_eq!(&body[..], b"v2");
}

#[test]
fn capacity_pressure_evicts_and_advertises() {
    let origin = OriginServer::spawn("127.0.0.1:0").expect("origin");
    let small = CacheNode::spawn(
        NodeConfig::new("127.0.0.1:0", origin.addr())
            .with_data_capacity(bh_simcore::ByteSize::from_kb(80)),
    )
    .expect("node");
    // Synthetic bodies are 1–64 KiB; a few fetches must overflow 80 KiB.
    for i in 0..12 {
        bh_proto::fetch(small.addr(), &format!("http://t.test/evict/{i}")).expect("fetch");
    }
    assert!(
        small.cached_objects() < 12,
        "cache must have evicted under capacity pressure ({} objects)",
        small.cached_objects()
    );
}

/// §3.2.1: the hint store is one 4-way set-associative array of the
/// configured size, indexed by the MD5-derived key, so displacement is
/// negligible well below capacity. The default 4 MB store has 262,144
/// slots in 65,536 sets: 8,192 keys all fit, and at 100,000 keys the
/// sets that draw more than four displace about 1.7 % of them.
#[test]
fn default_hint_store_holds_what_it_is_configured_for() {
    let origin = OriginServer::spawn("127.0.0.1:0").expect("origin");
    let node = CacheNode::spawn(NodeConfig::new("127.0.0.1:0", origin.addr())).expect("node");
    let holder = MachineId::from_addr("10.0.0.1:3128".parse().expect("addr")).expect("v4");
    let mut conn = TcpStream::connect(node.addr()).expect("connect");
    let mut learn = |objects: std::ops::Range<u32>| {
        let updates = objects
            .map(|i| HintUpdate {
                action: HintAction::Add,
                object: bh_md5::url_key(&format!("http://cap.test/{i}")),
                machine: holder,
            })
            .collect();
        write_message(&mut conn, &Message::hint_batch(holder, updates)).expect("send");
        assert_eq!(read_message(&mut conn).expect("reply"), Message::Ack);
    };
    learn(0..8_192);
    assert_eq!(node.hint_entries().len(), 8_192);
    for start in (8_192..100_000).step_by(4_096) {
        learn(start..(start + 4_096).min(100_000));
    }
    let held = node.hint_entries().len();
    assert!(
        (97_000..=100_000).contains(&held),
        "{held} of 100,000 hints held"
    );
}

#[test]
fn concurrent_clients_hammer_one_node() {
    let (_origin, nodes) = mesh(1);
    let addr = nodes[0].addr();
    let handles: Vec<_> = (0..8)
        .map(|t| {
            std::thread::spawn(move || {
                for i in 0..25 {
                    let url = format!("http://t.test/conc/{}", (t * 25 + i) % 40);
                    let (_, body) = bh_proto::fetch(addr, &url).expect("fetch");
                    assert!(!body.is_empty());
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
    let stats = nodes[0].stats();
    assert_eq!(stats.local_hits + stats.origin_fetches, 200);
    assert!(
        stats.local_hits >= 120,
        "40 distinct URLs over 200 fetches: {stats:?}"
    );
}

#[test]
fn mesh_flood_converges_everywhere() {
    let (_origin, nodes) = mesh(3);
    let url = "http://t.test/mesh";
    bh_proto::fetch(nodes[0].addr(), url).expect("seed");
    nodes[0].flush_updates_now();
    let key = bh_md5::url_key(url);
    for other in [1, 2] {
        assert_eq!(
            nodes[other].find_nearest(key),
            Some(nodes[0].machine_id()),
            "node {other} should learn the hint"
        );
    }
}
