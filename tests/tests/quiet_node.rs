//! An idle node is quiet and a stopped node is gone: every node thread
//! blocks on the thing it waits for (a socket, its shard's poller, the
//! control mailbox), so an idle mesh makes next to no context switches,
//! and `Mesh::shutdown` returns with every `cache-*` thread joined.
//!
//! One test in its own binary, so no other test's threads are counted.

#![cfg(target_os = "linux")]

use bh_proto::mesh::{Mesh, Topology};
use bh_proto::origin::OriginServer;
use std::fs;
use std::time::Duration;

/// `(voluntary context switches summed over every thread, the names of
/// the threads that start with "cache-")`, read from `/proc/self/task`.
fn threads() -> (u64, Vec<String>) {
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
            if name.starts_with("cache-") {
                node_threads.push(name.trim().to_string());
            }
        }
    }
    (switches, node_threads)
}

#[test]
fn an_idle_mesh_is_quiet_and_a_stopped_one_leaves_no_thread() {
    let hour = Duration::from_secs(3600);
    let origin = OriginServer::spawn("127.0.0.1:0").expect("origin");
    let mesh = Mesh::spawn(origin, Topology::Flat { nodes: 4 }, |_, c| {
        c.with_flush_max(hour).with_heartbeat_interval(hour)
    })
    .expect("mesh");

    // A blocked thread does not switch, so the host's load cannot move
    // this count; the window only has to be long enough to tell 100 from
    // the few hundred a polling node makes.
    // A thread takes its name once it first runs, which may be after
    // `Mesh::spawn` returns: wait (at most ~10 s) for the node threads.
    let mut node_threads = threads().1;
    for _ in 0..10_000 {
        if !node_threads.is_empty() {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
        node_threads = threads().1;
    }
    assert!(
        !node_threads.is_empty(),
        "node threads carry the cache- prefix"
    );
    let (before, _) = threads();
    std::thread::sleep(Duration::from_millis(500));
    let idle = threads().0 - before;
    assert!(
        idle < 100,
        "an idle 4-node mesh made {idle} voluntary context switches in 500 ms"
    );

    mesh.shutdown();
    let (_, left) = threads();
    assert!(left.is_empty(), "threads outlived Mesh::shutdown: {left:?}");
}
