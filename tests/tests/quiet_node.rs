//! A node is its shards, an idle node is quiet and a stopped node is gone:
//! a node's threads are exactly its shards (plus `cache-persist` when it
//! keeps a durable hint log), each blocked on what it waits for (its
//! shard's poller, the persist queue), so an idle mesh makes next to no
//! context switches, and `Mesh::shutdown` returns with every `cache-*`
//! thread joined. The origin is one thread however many connections it
//! serves, and its shutdown leaves neither that thread nor any of them.
//!
//! One test in its own binary, so no other test's threads are counted.

#![cfg(target_os = "linux")]

use bh_proto::mesh::{Mesh, Topology};
use bh_proto::node::{CacheNode, NodeConfig};
use bh_proto::origin::OriginServer;
use bh_proto::wire::{read_message, write_message, Message};
use std::fs;
use std::io::{self, Read};
use std::net::TcpStream;
use std::time::Duration;

/// `(voluntary context switches summed over every thread, the names of
/// the threads that start with `prefix`)`, read from `/proc/self/task`.
fn threads_named(prefix: &str) -> (u64, Vec<String>) {
    let mut switches = 0;
    let mut node_threads = Vec::new();
    for task in fs::read_dir("/proc/self/task").expect("procfs").flatten() {
        // A thread may exit between the listing and the read.
        let Ok(status) = fs::read_to_string(task.path().join("status")) else {
            continue;
        };
        switches += status
            .lines()
            .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
            .and_then(|v| v.trim().parse::<u64>().ok())
            .unwrap_or(0);
        if let Ok(name) = fs::read_to_string(task.path().join("comm")) {
            if name.starts_with(prefix) {
                node_threads.push(name.trim().to_string());
            }
        }
    }
    (switches, node_threads)
}

/// [`threads_named`] for a node's threads.
fn threads() -> (u64, Vec<String>) {
    threads_named("cache-")
}

/// The `cache-` and `origin` threads left after a shutdown has joined
/// them. The kernel wakes a joiner before it reaps the joined thread, so a
/// thread that has just been joined may still be listed for a moment: look
/// again for up to 100 ms before calling a thread left behind (one that
/// shutdown detached stays listed).
fn left_behind() -> Vec<String> {
    let listed = || [threads().1, threads_named("origin").1].concat();
    let mut left = listed();
    for _ in 0..100 {
        if left.is_empty() {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
        left = listed();
    }
    left
}

/// The `cache-` threads once `n` of them have taken their names: a thread
/// names itself once it first runs, which may be after spawn returns (waits
/// at most ~10 s).
fn named_node_threads(n: usize) -> Vec<String> {
    let mut node_threads = threads().1;
    for _ in 0..10_000 {
        if node_threads.len() >= n {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
        node_threads = threads().1;
    }
    node_threads
}

#[test]
fn an_idle_mesh_is_quiet_and_a_stopped_one_leaves_no_thread() {
    let hour = Duration::from_secs(3600);
    let origin = OriginServer::spawn("127.0.0.1:0").expect("origin");
    let mesh = Mesh::spawn(origin, Topology::Flat { nodes: 4 }, |_, c| {
        c.with_flush_max(hour).with_heartbeat_interval(hour)
    })
    .expect("mesh");

    // Four nodes at the default two shards: the shards are every thread.
    let node_threads = named_node_threads(8);
    assert_eq!(node_threads.len(), 8, "{node_threads:?}");
    assert!(
        node_threads.iter().all(|t| t.starts_with("cache-shard")),
        "{node_threads:?}"
    );

    // Sixteen clients of the origin, each answered once and held open:
    // still one origin thread.
    let clients: Vec<TcpStream> = (0..16)
        .map(|i| {
            let mut client = TcpStream::connect(mesh.origin().addr()).expect("connect");
            let get = Message::Get {
                url: format!("http://quiet.test/{i}"),
            };
            write_message(&mut client, &get).expect("write");
            read_message(&mut client).expect("answered");
            client
        })
        .collect();
    let origin_threads = threads_named("origin").1;
    assert_eq!(origin_threads.len(), 1, "{origin_threads:?}");
    // A blocked thread does not switch, so the host's load cannot move
    // this count; the window only has to be long enough to tell 100 from
    // the few hundred a polling node makes.
    let (before, _) = threads();
    std::thread::sleep(Duration::from_millis(500));
    let idle = threads().0 - before;
    assert!(
        idle < 100,
        "an idle 4-node mesh made {idle} voluntary context switches in 500 ms"
    );

    mesh.shutdown();
    let left = left_behind();
    assert!(left.is_empty(), "threads outlived Mesh::shutdown: {left:?}");
    // Every connection the origin held is closed: a read ends, at once.
    for mut client in clients {
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        match client.read(&mut [0u8; 64]) {
            Ok(0) => {}
            Ok(n) => panic!("{n} bytes from a stopped origin"),
            Err(e) => assert!(
                !matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ),
                "a connection outlived the origin: {e}"
            ),
        }
    }

    // A durable hint log adds the one thread that fsyncs it.
    let origin = OriginServer::spawn("127.0.0.1:0").expect("origin");
    let dir = std::env::temp_dir().join(format!("bh-quiet-node-{}", std::process::id()));
    let config = NodeConfig::new("127.0.0.1:0", origin.addr())
        .with_flush_max(hour)
        .with_heartbeat_interval(hour)
        .with_durability_dir(&dir);
    let shards = config.shards;
    let node = CacheNode::spawn(config).expect("durable node");
    let node_threads = named_node_threads(shards + 1);
    assert_eq!(node_threads.len(), shards + 1, "{node_threads:?}");
    let persist = node_threads
        .iter()
        .filter(|t| t.starts_with("cache-persist"))
        .count();
    assert_eq!(persist, 1, "{node_threads:?}");
    node.shutdown();
    origin.shutdown();
    let left = left_behind();
    assert!(left.is_empty(), "threads outlived shutdown: {left:?}");
    let _ = fs::remove_dir_all(&dir);
}
