//! Chaos drill: watch the resilience layer recover a live mesh.
//!
//! Spawns a 4-node mesh on loopback, seeds objects, then walks through
//! the two canonical failures end to end:
//!
//! 1. **Crash** — node 1 is crash-stopped (hint table lost). Survivors'
//!    heartbeats confirm the death, garbage-collect every stale hint
//!    naming the corpse, and repair their Plaxton metadata tables by
//!    exactly the analytic changed-entry count. The node then
//!    warm-restarts on its old port and rebuilds its hint table with one
//!    anti-entropy resync round.
//! 2. **Partition** — the 0↔2 link is severed; a hinted fetch across it
//!    degrades to a clean origin fetch (one wasted probe, no client
//!    error), then peer hits resume once the link heals.
//!
//! ```bash
//! cargo run --release --example chaos_drill
//! ```

use bh_proto::chaos::{analytic_churn_for, FaultKind};
use bh_proto::liveness::PeerHealth;
use bh_proto::mesh::{Mesh, Topology};
use bh_proto::origin::OriginServer;
use std::time::{Duration, Instant};

fn main() {
    let origin = OriginServer::spawn("127.0.0.1:0").expect("spawn origin");
    let mut mesh = Mesh::spawn(origin, Topology::Flat { nodes: 4 }, |_, c| {
        let mut c = c
            .with_flush_max(Duration::from_secs(3600)) // flushes driven manually
            .with_heartbeat_interval(Duration::from_secs(3600)) // heartbeats too
            .with_suspicion_threshold(2)
            .with_confirm_death_after(Duration::from_millis(150))
            .with_shutdown_deadline(Duration::from_secs(2));
        c.io_timeout = Duration::from_millis(500);
        c
    })
    .expect("spawn mesh");
    let addrs = mesh.addrs().to_vec();
    println!("mesh up: 4 nodes + origin on loopback");

    // Seed 8 objects at node 1 and advertise them everywhere.
    for i in 0..8 {
        bh_proto::fetch(addrs[1], &format!("http://drill.test/obj/{i}")).expect("seed");
    }
    mesh.flush_all();
    let hints_before = mesh.node(0).expect("node 0").hint_entries().len();
    println!("seeded 8 objects at node 1; node 0 now holds {hints_before} hints");

    // --- Act 1: crash ---
    println!("\n[crash] killing node 1 (hint table lost, no goodbye)");
    mesh.crash(1);
    // bh-lint: allow(no-wall-clock, reason = "deadline-bounded wait on a live mesh; failure detection is wall-clock here")
    let deadline = Instant::now() + Duration::from_secs(10);
    while mesh.node(0).expect("node 0").peer_health(addrs[1]) != PeerHealth::Dead {
        // bh-lint: allow(no-wall-clock, reason = "loop bound against the same live-mesh deadline")
        assert!(Instant::now() < deadline, "death never confirmed");
        mesh.heartbeat_all();
        std::thread::sleep(Duration::from_millis(25));
    }
    let s = mesh.node(0).expect("node 0").stats();
    let analytic = analytic_churn_for(&addrs, 1);
    println!(
        "[crash] node 0 confirmed the death: {} stale hints GC'd, \
         {} Plaxton entries repaired (analytic count: {analytic})",
        s.stale_hints_gc, s.plaxton_repair_entries
    );

    // A fetch of the dead node's object now goes straight to origin —
    // the stale hint is gone, so no probe is wasted.
    let fp_before = mesh.node(0).expect("node 0").stats().false_positives;
    let (src, _) = bh_proto::fetch(addrs[0], "http://drill.test/obj/0").expect("fetch");
    let fp_after = mesh.node(0).expect("node 0").stats().false_positives;
    println!(
        "[crash] post-GC fetch served from {src:?} with {} wasted probes",
        fp_after - fp_before
    );

    let rebuilt = mesh.restart(1).expect("warm restart");
    println!("[crash] node 1 restarted on its old port; resync rebuilt {rebuilt} hint records");

    // --- Act 2: partition ---
    println!("\n[partition] severing the 0 <-> 2 link");
    bh_proto::fetch(addrs[2], "http://drill.test/island").expect("seed at node 2");
    mesh.flush_all();
    mesh.inject(FaultKind::Partition { a: 0, b: 2 })
        .expect("inject");
    let (src, _) = bh_proto::fetch(addrs[0], "http://drill.test/island").expect("no error");
    println!("[partition] hinted fetch across the cut degraded cleanly to {src:?}");
    mesh.lift(FaultKind::Partition { a: 0, b: 2 })
        .expect("lift");
    bh_proto::fetch(addrs[2], "http://drill.test/healed").expect("seed at node 2");
    mesh.flush_all();
    let (src, _) = bh_proto::fetch(addrs[0], "http://drill.test/healed").expect("fetch");
    println!("[partition] after healing, fresh hints flow again: served from {src:?}");

    mesh.shutdown();
    println!("\nmesh shut down cleanly — see RESILIENCE.md for the full fault model");
}
