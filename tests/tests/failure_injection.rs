//! Failure injection: the cache collective must degrade gracefully — a
//! dead peer costs one wasted probe, never a failed request (the hint
//! architecture's misses always have the origin as a fallback), and the
//! Plaxton metadata hierarchy reconfigures around departed nodes.

use bh_proto::mesh::{Mesh, Topology};
use bh_proto::node::{CacheNode, NodeConfig};
use bh_proto::origin::OriginServer;
use std::net::SocketAddr;
use std::time::Duration;

/// A flat mesh of `n` nodes plus an origin, flushing hints only on
/// demand; `tune` adjusts each node's config.
fn mesh_with(n: usize, tune: impl Fn(NodeConfig) -> NodeConfig) -> (OriginServer, Vec<CacheNode>) {
    let origin = OriginServer::spawn("127.0.0.1:0").expect("origin");
    Mesh::spawn(origin, Topology::Flat { nodes: n }, |_, c| {
        tune(c.with_flush_max(Duration::from_secs(3600)))
    })
    .expect("mesh")
    .into_parts()
}

fn mesh(n: usize) -> (OriginServer, Vec<CacheNode>) {
    mesh_with(n, |mut c| {
        c.io_timeout = Duration::from_millis(500);
        c
    })
}

#[test]
fn dead_peer_costs_a_probe_not_a_failure() {
    let (origin, mut nodes) = mesh(2);
    let url = "http://t.test/dies";
    bh_proto::fetch(nodes[1].addr(), url).expect("seed at node 1");
    nodes[1].flush_updates_now();

    // Node 1 dies; node 0 still holds a hint pointing at it.
    let dead = nodes.remove(1);
    dead.shutdown();

    let (src, body) = bh_proto::fetch(nodes[0].addr(), url).expect("fetch survives");
    assert_eq!(src, bh_proto::client::Source::Origin);
    assert!(!body.is_empty());
    assert_eq!(
        nodes[0].stats().false_positives,
        1,
        "dead peer counted as a wasted probe"
    );
    assert_eq!(origin.request_count(), 2);

    // The bad hint was dropped: no second probe.
    nodes[0].invalidate(url);
    bh_proto::fetch(nodes[0].addr(), url).expect("fetch again");
    assert_eq!(nodes[0].stats().false_positives, 1);
}

#[test]
fn origin_outage_yields_clean_errors_then_recovery() {
    let origin = OriginServer::spawn("127.0.0.1:0").expect("origin");
    let origin_addr = origin.addr();
    let mut cfg = NodeConfig::new("127.0.0.1:0", origin_addr);
    cfg.io_timeout = Duration::from_millis(300);
    let node = CacheNode::spawn(cfg).expect("node");

    // Cache something while the origin is alive.
    bh_proto::fetch(node.addr(), "http://t.test/cached").expect("seed");

    // Origin goes away.
    origin.shutdown();

    // Cached objects still served.
    let (src, _) = bh_proto::fetch(node.addr(), "http://t.test/cached").expect("cached");
    assert_eq!(src, bh_proto::client::Source::Local);
    // Uncached objects fail cleanly (an error reply, not a hang or panic).
    let err = bh_proto::fetch(node.addr(), "http://t.test/uncached");
    assert!(err.is_err(), "origin down: uncached fetch must error");
}

#[test]
fn flush_to_dead_neighbors_does_not_wedge_the_node() {
    let (_origin, mut nodes) = mesh(3);
    // Kill two neighbors; the survivor keeps serving and flushing.
    nodes.remove(2).shutdown();
    nodes.remove(1).shutdown();
    for i in 0..5 {
        bh_proto::fetch(nodes[0].addr(), &format!("http://t.test/after/{i}")).expect("fetch");
        nodes[0].flush_updates_now(); // best-effort sends to dead peers
    }
    assert_eq!(
        nodes[0].stats().local_hits + nodes[0].stats().origin_fetches,
        5
    );
}

/// Concurrency stress: a 4-node mesh serving 16 parallel client threads
/// while one node is killed mid-run. No client request may fail — a dead
/// peer is worth one wasted probe, never an error — and the accounting
/// must stay exact under full concurrency.
///
/// Topology: client traffic targets nodes 0..2 only; node 3 is seeded
/// with per-thread objects and flushes hints for them, then dies while
/// every client thread is parked on a barrier. Each thread's first
/// post-kill fetch follows a hint straight into the corpse.
#[test]
fn concurrent_clients_survive_node_kill_mid_run() {
    const THREADS: usize = 16;
    const WARM: usize = 20;
    const SHARED: usize = 10;
    const FRESH: usize = 9;
    const DEADLINE: Duration = Duration::from_secs(60);

    // bh-lint: allow(no-wall-clock, reason = "watchdog for the whole live-mesh scenario; results never read it")
    let start = std::time::Instant::now();
    let (origin, mut nodes) = mesh(4);

    // Seed one object per client thread at node 3 and advertise them, so
    // nodes 0..2 all hold hints pointing at the soon-to-be-dead node.
    for t in 0..THREADS {
        bh_proto::fetch(nodes[3].addr(), &format!("http://t.test/stress/seeded/{t}"))
            .expect("seed at node 3");
    }
    nodes[3].flush_updates_now();
    let victim_origin_fetches = nodes[3].stats().origin_fetches;

    let serving: Vec<SocketAddr> = nodes[..3].iter().map(|n| n.addr()).collect();
    // Threads run phase 1, then park on the barrier; the main thread kills
    // node 3 and joins the barrier last, releasing phase 2 strictly after
    // the node is gone.
    let barrier = std::sync::Arc::new(std::sync::Barrier::new(THREADS + 1));

    let requests_per_node = std::thread::scope(|scope| {
        let mut workers = Vec::new();
        for t in 0..THREADS {
            let addr = serving[t % 3];
            let barrier = std::sync::Arc::clone(&barrier);
            workers.push(scope.spawn(move || {
                let fetch = |url: String| {
                    let (_, body) = bh_proto::fetch(addr, &url)
                        .unwrap_or_else(|e| panic!("request failed for {url}: {e}"));
                    assert!(!body.is_empty(), "empty body for {url}");
                };
                // Phase 1: private warm-up objects plus a shared set that
                // several threads contend on.
                for i in 0..WARM {
                    fetch(format!("http://t.test/stress/warm/{t}/{i}"));
                }
                for i in 0..SHARED {
                    fetch(format!("http://t.test/stress/shared/{}", i % 5));
                }
                barrier.wait();
                // Phase 2 (node 3 is now dead): the seeded URL follows a
                // hint into the dead peer, the rest exercise cache + origin.
                fetch(format!("http://t.test/stress/seeded/{t}"));
                for i in 0..WARM {
                    fetch(format!("http://t.test/stress/warm/{t}/{i}"));
                }
                for i in 0..FRESH {
                    fetch(format!("http://t.test/stress/fresh/{t}/{i}"));
                }
                WARM + SHARED + 1 + WARM + FRESH
            }));
        }

        // Kill node 3 while all client threads are parked, then release.
        nodes.remove(3).shutdown();
        barrier.wait();

        let mut per_node = [0u64; 3];
        for (t, w) in workers.into_iter().enumerate() {
            per_node[t % 3] += w.join().expect("client thread panicked") as u64;
        }
        per_node
    });

    // Exact accounting: every request resolved exactly one way, none
    // failed (failures already panicked the owning thread above).
    let mut total_fp = 0;
    let mut total_origin = 0;
    for (i, node) in nodes.iter().enumerate() {
        let s = node.stats();
        assert_eq!(
            s.local_hits + s.peer_hits + s.origin_fetches,
            requests_per_node[i],
            "node {i}: every request must be served exactly once (stats {s:?})"
        );
        total_fp += s.false_positives;
        total_origin += s.origin_fetches;
    }

    // Each thread's seeded URL carried exactly one hint to the dead node;
    // the probe fails (or is refused by quarantine), is counted, and the
    // hint is dropped — so false positives are exactly one per thread.
    assert_eq!(
        total_fp, THREADS as u64,
        "one false positive per seeded URL, no more, no less"
    );

    // The origin saw exactly the fetches the nodes claim they made.
    assert_eq!(origin.request_count(), total_origin + victim_origin_fetches);

    assert!(
        start.elapsed() < DEADLINE,
        "stress run took {:?}, deadline {DEADLINE:?}",
        start.elapsed()
    );
}

/// Stale-hint GC bound: once the failure detector confirms a peer dead,
/// every hint naming it is purged in one sweep. Wasted probes per dead
/// peer are therefore O(1) per object *before* confirmation (each hint
/// burns its single probe at most once) and exactly zero after — fetches
/// of the dead node's objects go straight to the origin with no probe at
/// all.
#[test]
fn confirmed_death_garbage_collects_stale_hints() {
    use bh_proto::liveness::PeerHealth;
    const K: usize = 12;

    let (_origin, nodes) = mesh_with(2, |c| {
        let mut c = c
            .with_heartbeat_interval(Duration::from_secs(3600))
            .with_suspicion_threshold(2)
            .with_confirm_death_after(Duration::from_millis(100))
            .with_shutdown_deadline(Duration::from_secs(2));
        c.io_timeout = Duration::from_millis(300);
        c
    });
    let addrs: Vec<SocketAddr> = nodes.iter().map(|x| x.addr()).collect();

    // Seed K objects at node 1 and advertise them to node 0.
    let urls: Vec<String> = (0..K).map(|i| format!("http://t.test/gc/{i}")).collect();
    for url in &urls {
        bh_proto::fetch(addrs[1], url).expect("seed at node 1");
    }
    nodes[1].flush_updates_now();
    let dead_machine = nodes[1].machine_id().0;
    let dead_addr = addrs[1];
    let hints_at_dead = |node: &CacheNode| {
        node.hint_entries()
            .iter()
            .filter(|(_, loc)| *loc == dead_machine)
            .count()
    };
    assert_eq!(hints_at_dead(&nodes[0]), K, "all K hints name node 1");

    // Crash-stop node 1 and drive node 0's failure detector until death
    // is confirmed (threshold 2, confirmation window 100ms).
    let mut nodes = nodes;
    nodes.remove(1).kill();
    // bh-lint: allow(no-wall-clock, reason = "deadline-bounded wait on a live mesh; failure detection is wall-clock here")
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while nodes[0].peer_health(dead_addr) != PeerHealth::Dead {
        assert!(
            // bh-lint: allow(no-wall-clock, reason = "loop bound against the same live-mesh deadline")
            std::time::Instant::now() < deadline,
            "node 0 never confirmed node 1 dead"
        );
        nodes[0].heartbeat_now();
        std::thread::sleep(Duration::from_millis(25));
    }

    // Confirmation swept every stale hint in one pass.
    let s = nodes[0].stats();
    assert_eq!(s.peers_confirmed_dead, 1);
    assert_eq!(s.stale_hints_gc, K as u64, "GC purged exactly the K hints");
    assert_eq!(hints_at_dead(&nodes[0]), 0, "no hint names the dead node");

    // Post-GC fetches of the dead node's objects are origin-served with
    // ZERO wasted probes — the stale hints are gone, so nothing probes.
    for url in &urls {
        let (src, body) = bh_proto::fetch(addrs[0], url).expect("fetch survives");
        assert_eq!(src, bh_proto::client::Source::Origin);
        assert!(!body.is_empty());
    }
    assert_eq!(
        nodes[0].stats().false_positives,
        0,
        "zero probes wasted after the GC sweep"
    );
}

#[test]
fn plaxton_routes_survive_churn() {
    use bh_plaxton::{NodeSpec, PlaxtonTree};
    let nodes: Vec<NodeSpec> = (0..48)
        .map(|i| {
            NodeSpec::from_address(
                &format!("172.16.{}.{}:3128", i / 8, i % 8),
                ((i % 8) as f64, (i / 8) as f64),
            )
        })
        .collect();
    let mut tree = PlaxtonTree::build(nodes, 2).expect("build");
    let mut rng_state = 99u64;
    let mut removed = std::collections::HashSet::new();
    // Remove a third of the nodes one at a time; after each departure,
    // every object must still resolve to a single root from every survivor.
    for round in 0..16 {
        loop {
            rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let victim = (rng_state >> 33) as usize % 48;
            if removed.insert(victim) {
                tree.remove_node(victim).expect("remove live node");
                break;
            }
        }
        for obj in 0..10u64 {
            let key = bh_md5::md5((round * 100 + obj).to_le_bytes()).low64();
            let root = tree.root_of(key);
            assert!(!removed.contains(&root), "root must be alive");
            for from in 0..48 {
                if removed.contains(&from) {
                    continue;
                }
                let path = tree.route(from, key);
                assert_eq!(*path.last().unwrap(), root);
                assert!(
                    path.iter().all(|n| !removed.contains(n)),
                    "path through dead node"
                );
            }
        }
    }
    assert_eq!(tree.len(), 32);
}
