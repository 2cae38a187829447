//! Cross-validation: the simulator's hint strategy and the real TCP
//! prototype must take the *same data paths* for the same request sequence.
//!
//! The simulator's oracle mode corresponds to a prototype whose hint
//! batches are flushed after every request (instant propagation) with
//! unbounded stores. We drive an identical scripted sequence through both
//! and compare outcome classes step by step.

use bh_core::outcome::AccessPath;
use bh_core::strategies::{HintConfig, HintHierarchy, RequestCtx, Strategy};
use bh_core::topology::Topology;
use bh_proto::client::Source;
use bh_proto::mesh::Mesh;
use bh_proto::origin::OriginServer;
use bh_simcore::{ByteSize, SimTime};
use bh_trace::WorkloadSpec;
use std::time::Duration;

/// Outcome classes comparable across the two implementations.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
enum PathClass {
    Local,
    Peer,
    Origin,
}

fn classify_sim(path: AccessPath) -> PathClass {
    match path {
        AccessPath::L1Hit => PathClass::Local,
        AccessPath::RemoteHit { .. } => PathClass::Peer,
        AccessPath::ServerFetch { .. } => PathClass::Origin,
        other => panic!("hint strategy produced unexpected path {other:?}"),
    }
}

fn classify_proto(source: Source) -> PathClass {
    match source {
        Source::Local => PathClass::Local,
        Source::Peer(_) => PathClass::Peer,
        Source::Origin => PathClass::Origin,
        Source::Redirected => {
            panic!("admission control must not trigger at comparison load")
        }
    }
}

#[test]
fn simulator_and_prototype_agree_on_data_paths() {
    // Two L1 nodes sharing an L2 (spec small() has 2 L1s per L2).
    let mut spec = WorkloadSpec::small();
    spec.clients = 512; // exactly 2 L1 groups
    let topo = Topology::from_spec(&spec);
    assert_eq!(topo.l1_count(), 2);
    let mut sim = HintHierarchy::new(topo, HintConfig::default(), 1);

    let origin = OriginServer::spawn("127.0.0.1:0").expect("origin");
    let mesh = Mesh::spawn(
        origin,
        bh_proto::mesh::Topology::Flat { nodes: 2 },
        |_, c| c.with_flush_max(Duration::from_secs(3600)),
    )
    .expect("mesh");
    let addrs = mesh.addrs().to_vec();
    let (_origin, nodes) = mesh.into_parts();

    // A scripted sequence: (node, url). Covers compulsory miss, local hit,
    // remote hit, and hit-after-remote-copy.
    let script: &[(usize, &str)] = &[
        (0, "http://x.test/a"), // origin
        (0, "http://x.test/a"), // local
        (1, "http://x.test/a"), // peer (node 0)
        (1, "http://x.test/a"), // local
        (1, "http://x.test/b"), // origin
        (0, "http://x.test/b"), // peer (node 1)
        (0, "http://x.test/c"), // origin
        (1, "http://x.test/c"), // peer
        (0, "http://x.test/a"), // local (still)
    ];

    for (step, &(node, url)) in script.iter().enumerate() {
        // Simulator side.
        let ctx = RequestCtx {
            time: SimTime::from_secs(step as u64),
            client: bh_trace::ClientId(node as u32 * 256),
            l1: node as u32,
            key: bh_md5::url_key(url),
            size: ByteSize::from_kb(4),
            version: 0,
        };
        let sim_class = classify_sim(sim.on_request(&ctx));

        // Prototype side.
        let (source, _) = bh_proto::fetch(addrs[node], url).expect("fetch");
        let proto_class = classify_proto(source);
        // Instant propagation: flush both directions after each step.
        nodes[node].flush_updates_now();

        assert_eq!(
            sim_class, proto_class,
            "step {step}: node {node} url {url}: simulator {sim_class:?} vs prototype {proto_class:?}"
        );
    }

    // Invalidation path: drop the copy at node 0 and flush; node 1 keeps
    // its own copy so it still hits locally; node 0 refetches from node 1.
    nodes[0].invalidate("http://x.test/a");
    nodes[0].flush_updates_now();
    let (source, _) = bh_proto::fetch(addrs[0], "http://x.test/a").expect("fetch");
    assert_eq!(
        classify_proto(source),
        PathClass::Peer,
        "node 0 should refetch from node 1"
    );
}
