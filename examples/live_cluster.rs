//! Spin up a **real** cooperative cache cluster on localhost — an origin
//! server plus three cache-node daemons exchanging 20-byte hint updates —
//! and watch the data paths the paper describes: local hit, direct
//! cache-to-cache transfer, origin fetch, false positive, and a push.
//!
//! ```text
//! cargo run --release --example live_cluster
//! ```

use beyond_hierarchies::proto::client::{Connection, Source};
use beyond_hierarchies::proto::mesh::{Mesh, Topology};
use beyond_hierarchies::proto::origin::OriginServer;
use std::time::Duration;

fn main() -> std::io::Result<()> {
    let origin = OriginServer::spawn("127.0.0.1:0")?;
    println!("origin server at {}", origin.addr());

    // Three caches wired as a full mesh: every node flushes its hint
    // updates to the other two.
    let mesh = Mesh::spawn(origin, Topology::Flat { nodes: 3 }, |_, c| {
        c.with_flush_max(Duration::from_millis(10))
    })?;
    let addrs = mesh.addrs().to_vec();
    let (origin, nodes) = mesh.into_parts();
    for (i, n) in nodes.iter().enumerate() {
        println!(
            "cache node {i} at {} (machine id {:#018x})",
            n.addr(),
            n.machine_id().0
        );
    }

    let url = "http://www.example.com/popular/page.html";
    let key = beyond_hierarchies::md5::url_key(url);

    // 1. First fetch through node 0: compulsory miss, served by the origin.
    let (src, body) = beyond_hierarchies::proto::fetch(addrs[0], url)?;
    println!("\nfetch #1 via node0 → {src:?} ({} bytes)", body.len());
    assert_eq!(src, Source::Origin);

    // 2. Same node again: local hit.
    let (src, _) = beyond_hierarchies::proto::fetch(addrs[0], url)?;
    println!("fetch #2 via node0 → {src:?}");
    assert_eq!(src, Source::Local);

    // 3. Let the hint batch flush, then fetch via node 1: the hint names
    //    node 0 and the transfer is direct cache-to-cache.
    nodes[0].flush_updates_now();
    let (src, _) = beyond_hierarchies::proto::fetch(addrs[1], url)?;
    println!("fetch #3 via node1 → {src:?} (direct cache-to-cache)");
    assert!(matches!(src, Source::Peer(_)));

    // 4. find-nearest from node 2's hint store.
    let loc = nodes[2].find_nearest(key);
    println!("node2 find_nearest → {loc:?}");

    // 5. Kill the copies and watch a false positive: node 0 invalidates,
    //    node 2 still holds a stale hint until the next batch lands.
    nodes[0].invalidate(url);
    nodes[1].invalidate(url);
    let (src, _) = beyond_hierarchies::proto::fetch(addrs[2], url)?;
    println!(
        "fetch #4 via node2 (stale hint) → {src:?}; false positives so far: {}",
        nodes[2].stats().false_positives
    );

    // 6. Push caching: hand node 1 a copy it never asked for.
    let mut conn = Connection::open(addrs[1])?;
    conn.push(
        "http://www.example.com/pushed.html",
        1,
        &b"pushed content"[..],
    )?;
    let (src, body) =
        beyond_hierarchies::proto::fetch(addrs[1], "http://www.example.com/pushed.html")?;
    println!(
        "fetch of pushed object via node1 → {src:?} ({} bytes)",
        body.len()
    );
    assert_eq!(src, Source::Local);

    println!("\nper-node stats:");
    for (i, n) in nodes.iter().enumerate() {
        println!("  node{i}: {:?}", n.stats());
    }
    println!("origin served {} requests total", origin.request_count());
    Ok(())
}
