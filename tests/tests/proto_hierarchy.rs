//! Integration tests of the prototype's hierarchical metadata propagation
//! (§3.1.2): updates climb to a parent with first-copy filtering and
//! descend to sibling subtrees.
//!
//! These trees are wired by hand — one `rewire` per node, `set_neighbors`
//! for the flat edges — on purpose: this file is the test of wiring a node
//! outside a mesh. Everything else stands its mesh up through
//! `bh_proto::mesh::Mesh::spawn`.

use bh_proto::node::{CacheNode, NodeConfig, Wiring};
use bh_proto::origin::OriginServer;
use std::time::Duration;

/// An unwired node behind `origin` that flushes only when told to.
fn node(origin: &OriginServer) -> CacheNode {
    let long = Duration::from_secs(3600); // manual flushes only
    CacheNode::spawn(NodeConfig::new("127.0.0.1:0", origin.addr()).with_flush_max(long))
        .expect("node")
}

/// `leaves` leaf nodes that flush to a metadata parent listing them as
/// its children. The parent stores no client data; it only relays hints.
fn leaves_under_parent(leaves: usize) -> (OriginServer, CacheNode, Vec<CacheNode>) {
    let origin = OriginServer::spawn("127.0.0.1:0").expect("origin");
    let leaves: Vec<CacheNode> = (0..leaves).map(|_| node(&origin)).collect();
    let parent = node(&origin);
    parent.rewire(Wiring {
        children: leaves.iter().map(|l| l.addr()).collect(),
        ..Wiring::default()
    });
    for l in &leaves {
        l.set_neighbors(vec![parent.addr()]);
    }
    (origin, parent, leaves)
}

/// Builds a 2-level metadata tree the other way round: leaves A, B name P
/// as their metadata parent, P knows nobody.
fn tree() -> (OriginServer, CacheNode, CacheNode, CacheNode) {
    let origin = OriginServer::spawn("127.0.0.1:0").expect("origin");
    let parent = node(&origin);
    let leaf = || {
        let leaf = node(&origin);
        leaf.rewire(Wiring {
            parent: Some(parent.addr()),
            ..Wiring::default()
        });
        leaf
    };
    let (a, b) = (leaf(), leaf());
    (origin, parent, a, b)
}

#[test]
fn updates_climb_to_parent_and_descend_to_sibling() {
    let (_origin, parent, leaves) = leaves_under_parent(2);
    let (a, b) = (&leaves[0], &leaves[1]);

    let url = "http://t.test/hier";
    let key = bh_md5::url_key(url);

    // A fetches: compulsory miss, then advertises.
    bh_proto::fetch(a.addr(), url).expect("fetch via a");
    a.flush_updates_now();
    // The parent learned the first copy...
    assert_eq!(parent.find_nearest(key), Some(a.machine_id()));
    // ...and queued a downward advertisement; flush it.
    parent.flush_updates_now();
    assert_eq!(
        b.find_nearest(key),
        Some(a.machine_id()),
        "sibling must learn via the parent"
    );

    // B now fetches — directly from A (cache-to-cache through the hint).
    let (src, _) = bh_proto::fetch(b.addr(), url).expect("fetch via b");
    assert_eq!(src, bh_proto::client::Source::Peer(a.machine_id()));

    // B advertises its new copy; the parent already knows a copy → the
    // second-copy update is filtered, not forwarded.
    let filtered_before = parent.stats().updates_filtered;
    b.flush_updates_now();
    assert_eq!(
        parent.stats().updates_filtered,
        filtered_before + 1,
        "second copy must be filtered at the parent (§3.1.2)"
    );
}

#[test]
fn removal_propagates_when_it_changes_knowledge() {
    let (_origin, parent, leaves) = leaves_under_parent(2);
    let (a, b) = (&leaves[0], &leaves[1]);

    let url = "http://t.test/hier-rm";
    let key = bh_md5::url_key(url);
    bh_proto::fetch(a.addr(), url).expect("fetch");
    a.flush_updates_now();
    parent.flush_updates_now();
    assert!(b.find_nearest(key).is_some());

    // A drops the copy: the non-presence climbs and descends.
    a.invalidate(url);
    a.flush_updates_now();
    assert_eq!(parent.find_nearest(key), None);
    parent.flush_updates_now();
    assert_eq!(b.find_nearest(key), None, "sibling must unlearn the hint");
}

#[test]
fn filtering_reduces_parent_egress() {
    // Many copies of the same object: the parent forwards the first Add
    // and filters the rest — the Table 5 effect, on the wire.
    let (_origin, parent, leaves) = leaves_under_parent(4);

    let url = "http://t.test/popular";
    for l in &leaves {
        bh_proto::fetch(l.addr(), url).expect("fetch");
        l.flush_updates_now();
    }
    let stats = parent.stats();
    // 4 adds received; only the first changed knowledge.
    assert_eq!(stats.updates_received, 4);
    assert_eq!(stats.updates_filtered, 3, "three duplicate copies filtered");
}

#[test]
fn tree_helper_smoke() {
    // The simple helper (leaves know parent, parent knows nobody) still
    // lets updates climb, and a later `set_neighbors` leaves the parent
    // edge in place.
    let (_origin, parent, a, b) = tree();
    a.set_neighbors(vec![parent.addr()]);
    assert_eq!(a.parent(), Some(parent.addr()));
    assert_eq!(b.parent(), Some(parent.addr()));
    let url = "http://t.test/smoke";
    bh_proto::fetch(a.addr(), url).expect("fetch");
    a.flush_updates_now();
    assert_eq!(
        parent.find_nearest(bh_md5::url_key(url)),
        Some(a.machine_id())
    );
}
