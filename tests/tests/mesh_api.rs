//! End-to-end tests of the mesh API: a live mesh driven *entirely*
//! through the path-addressed namespace (`MetaRequest`/`MetaReply`
//! frames) — metrics scrapes, hint reads, capability discovery, and
//! control-plane writes: everything an operator or harness needs is one
//! namespace.

use bh_bench::meshapi::{metric_values_from_meta, pick, MeshClient};
use bh_proto::client::{Connection, Source};
use bh_proto::mesh::{Mesh, Topology};
use bh_proto::node::{CacheNode, NodeConfig};
use bh_proto::origin::OriginServer;
use bh_proto::wire::{MetaEntry, MetaOp, MetaStatus};
use std::net::SocketAddr;
use std::time::Duration;

/// A full-mesh cluster of `n` nodes plus an origin, flushing hints only
/// on demand.
fn mesh(n: usize) -> (OriginServer, Vec<CacheNode>) {
    let origin = OriginServer::spawn("127.0.0.1:0").expect("origin");
    Mesh::spawn(origin, Topology::Flat { nodes: n }, |_, c| {
        c.with_flush_max(Duration::from_secs(3600))
    })
    .expect("mesh")
    .into_parts()
}

/// Renders entries as the `obs` CLI would print them.
fn render(entries: &[MetaEntry]) -> String {
    entries
        .iter()
        .map(|e| format!("{} {}\n", e.path, e.value))
        .collect()
}

/// Renders entries with the node-specific `mesh/nodes/<id>` root
/// stripped, so listings from different nodes (different ephemeral
/// ports ⇒ different ids) can be compared byte for byte.
fn render_rootless(entries: &[MetaEntry]) -> String {
    entries
        .iter()
        .map(|e| {
            let suffix = e
                .path
                .strip_prefix("mesh/nodes/")
                .map(|rest| rest.split_once('/').map_or(rest, |(_, s)| s))
                .unwrap_or(&e.path);
            format!("{suffix} {}\n", e.value)
        })
        .collect()
}

/// The acceptance path: a 4-node mesh observed and controlled entirely
/// through the namespace — scrape every node, follow a hint by digest,
/// install a fault window via `Set`, and watch the mesh recover.
#[test]
fn four_node_mesh_driven_entirely_through_the_namespace() {
    let (origin, nodes) = mesh(4);
    let addrs: Vec<SocketAddr> = nodes.iter().map(CacheNode::addr).collect();
    let mesh_client = MeshClient::new(addrs.clone());

    // Discovery: every node lists itself under `mesh/nodes`, and the
    // union over the fan-out client is the whole mesh.
    let listed: Vec<String> = mesh_client
        .list_all("mesh/nodes")
        .expect("list mesh/nodes")
        .into_iter()
        .flat_map(|r| r.entries.into_iter().map(|e| e.value))
        .collect();
    assert_eq!(listed.len(), 4);
    for addr in &addrs {
        assert!(listed.contains(&addr.to_string()), "{addr} not listed");
    }

    // Capability discovery: `meta/P` answers *about* P.
    let caps = mesh_client
        .get(addrs[0], "meta/mesh/nodes/self/control/drain")
        .expect("meta lookup");
    assert_eq!(caps.len(), 1);
    assert!(
        caps[0].value.starts_with("get,set"),
        "drain must be readable and writable: {:?}",
        caps[0]
    );

    // Generate traffic through node 0, then scrape every node's metrics
    // through the namespace.
    let url = "http://t.test/mesh-api";
    let (source, body) = bh_proto::fetch(addrs[0], url).expect("fetch via node 0");
    assert_eq!(source, Source::Origin);
    assert_eq!(origin.request_count(), 1);

    let scraped = mesh_client
        .get_all("mesh/nodes/self/metrics")
        .expect("scrape all nodes");
    assert_eq!(scraped.len(), 4);
    let node0 = metric_values_from_meta(&scraped[0].entries);
    assert_eq!(pick(&node0, "origin_fetches"), 1);
    assert!(pick(&node0, "request_service_micros.count") >= 1);
    for reply in &scraped[1..] {
        let m = metric_values_from_meta(&reply.entries);
        assert_eq!(pick(&m, "origin_fetches"), 0, "only node 0 saw traffic");
    }

    // The same request is legible span by span in node 0's trace ring:
    // received, fetched from the origin, replied.
    let trace = mesh_client
        .list(addrs[0], "mesh/nodes/self/trace")
        .expect("list node 0 trace");
    for span in ["recv", "origin-fetch", "reply"] {
        assert!(
            trace
                .iter()
                .any(|e| e.value.contains(&format!("span={span} "))),
            "span {span} missing from trace: {trace:?}"
        );
    }

    // Propagate node 0's hint over the control plane (`Set
    // control/flush` schedules it), then read the hint back *by digest*
    // from a neighbor's hint branch.
    mesh_client
        .set(addrs[0], "mesh/nodes/self/control/flush", "1")
        .expect("schedule flush");
    let digest_path = format!("mesh/nodes/self/hints/{:016x}", bh_md5::url_key(url));
    let hint = (0..5000)
        .find_map(|_| match mesh_client.get(addrs[1], &digest_path) {
            Ok(entries) => Some(entries),
            Err(_) => {
                std::thread::sleep(Duration::from_millis(2));
                None
            }
        })
        .expect("hint never arrived at node 1");
    assert_eq!(
        hint[0].value,
        addrs[0].to_string(),
        "hint must point at the caching node"
    );

    // Fault window via the control plane: drain node 0. Every client
    // Get is turned away with a Redirect while the window holds.
    mesh_client
        .set(addrs[0], "mesh/nodes/self/control/drain", "true")
        .expect("drain node 0");
    let drained = mesh_client
        .get(addrs[0], "mesh/nodes/self/control/drain")
        .expect("read drain back");
    assert_eq!(drained[0].value, "true");
    let (source, _) = bh_proto::fetch(addrs[0], url).expect("fetch during drain");
    assert_eq!(source, Source::Redirected, "drained node must redirect");

    // ...and a pool fault knob on node 2, readable while armed.
    mesh_client
        .set(
            addrs[2],
            "mesh/nodes/self/pool/fault/rx_latency_micros",
            "700",
        )
        .expect("arm latency");
    let armed = mesh_client
        .get(addrs[2], "mesh/nodes/self/pool/fault/rx_latency_micros")
        .expect("read knob");
    assert_eq!(armed[0].value, "700");

    // Lift both; the mesh recovers: node 0 serves its cached copy
    // locally again, node 2's knob reads 0.
    mesh_client
        .set(addrs[0], "mesh/nodes/self/control/drain", "false")
        .expect("undrain");
    mesh_client
        .set(
            addrs[2],
            "mesh/nodes/self/pool/fault/rx_latency_micros",
            "0",
        )
        .expect("disarm latency");
    let (source, body2) = bh_proto::fetch(addrs[0], url).expect("fetch after undrain");
    assert_eq!(source, Source::Local, "recovered node serves locally");
    assert_eq!(body, body2);
    let disarmed = mesh_client
        .get(addrs[2], "mesh/nodes/self/pool/fault/rx_latency_micros")
        .expect("read knob after lift");
    assert_eq!(disarmed[0].value, "0");

    // The drain window is visible in the namespace metrics afterwards:
    // the turned-away Get was accounted as an admission rejection.
    let after = metric_values_from_meta(
        &mesh_client
            .get(addrs[0], "mesh/nodes/self/metrics")
            .expect("rescrape node 0"),
    );
    assert!(
        pick(&after, "admission_rejects") >= 1,
        "drained Get must be accounted: {after:?}"
    );
}

/// Control requests coalesce: `Set …/control/flush|resync` only post an
/// ask to shard 0, which — its flush timer parked here at an hour — takes
/// whatever has been asked since its last round as one round. Node 0's
/// outbound sends are slowed to 20 ms each, so its first round is still
/// in flight while the rest of the requests arrive over one connection: N
/// requests end in a handful of rounds, not in N.
#[test]
fn control_requests_coalesce_on_shard_zero() {
    const N: u64 = 100;
    let (_origin, nodes) = mesh(2);
    let addrs: Vec<SocketAddr> = nodes.iter().map(CacheNode::addr).collect();
    let mesh_client = MeshClient::new(addrs.clone());
    let await_hint_at_node_1 = |url: &str| {
        let path = format!("mesh/nodes/self/hints/{:016x}", bh_md5::url_key(url));
        let arrived = (0..5000).any(|_| {
            mesh_client.get(addrs[1], &path).is_ok() || {
                std::thread::sleep(Duration::from_millis(2));
                false
            }
        });
        assert!(arrived, "hint for {url} never arrived at node 1");
    };

    let mut conn = Connection::open(addrs[0]).expect("open node 0");
    bh_proto::fetch(addrs[0], "http://t.test/coalesce-a").expect("fetch a");
    conn.meta_set("mesh/nodes/self/pool/fault/tx_latency_micros", "20000")
        .expect("slow node 0's sends");
    for _ in 0..N {
        for what in ["resync", "flush"] {
            let reply = conn
                .meta_set(&format!("mesh/nodes/self/control/{what}"), "1")
                .expect("post request");
            assert_eq!(reply[0].value, "scheduled");
        }
    }
    await_hint_at_node_1("http://t.test/coalesce-a");

    // One more object and one more request: by the time its hint lands,
    // all N requests have long been posted and taken.
    bh_proto::fetch(addrs[0], "http://t.test/coalesce-b").expect("fetch b");
    conn.meta_set("mesh/nodes/self/control/flush", "1")
        .expect("post the last flush");
    await_hint_at_node_1("http://t.test/coalesce-b");

    let runs: u64 = conn
        .meta_get("mesh/nodes/self/control/resync/runs")
        .expect("read runs")[0]
        .value
        .parse()
        .expect("a count");
    assert!(
        (1..=N / 4).contains(&runs),
        "{N} resync requests ended in {runs} runs"
    );
}

/// Status-code semantics over the wire: unknown paths are `NotFound`,
/// other nodes' ids are `NotFound` (nodes do not proxy), unsupported
/// ops are `Denied`, malformed segments are `Invalid`.
#[test]
fn namespace_status_codes_over_the_wire() {
    let origin = OriginServer::spawn("127.0.0.1:0").expect("origin");
    let node = CacheNode::spawn(NodeConfig::new("127.0.0.1:0", origin.addr())).expect("node");
    let mut conn = Connection::open(node.addr()).expect("open");

    let cases = [
        (MetaOp::Get, "no/such/tree", "", MetaStatus::NotFound),
        (
            MetaOp::Get,
            "mesh/nodes/self/nothing",
            "",
            MetaStatus::NotFound,
        ),
        (
            MetaOp::Get,
            "mesh/nodes/999999/metrics",
            "",
            MetaStatus::NotFound,
        ),
        (
            MetaOp::Set,
            "mesh/nodes/self/metrics/local_hits",
            "1",
            MetaStatus::Denied,
        ),
        (MetaOp::Set, "meta/mesh/nodes", "x", MetaStatus::Denied),
        (
            MetaOp::Get,
            "mesh/nodes/not-a-number/metrics",
            "",
            MetaStatus::Invalid,
        ),
        (
            MetaOp::Get,
            "mesh/nodes/self/hints/not-hex",
            "",
            MetaStatus::Invalid,
        ),
        (
            MetaOp::Set,
            "mesh/nodes/self/control/drain",
            "maybe",
            MetaStatus::Invalid,
        ),
        (
            MetaOp::Set,
            "mesh/nodes/self/pool/fault/drop_per_million",
            "lots",
            MetaStatus::Invalid,
        ),
    ];
    for (op, path, value, want) in cases {
        let (status, entries) = conn.meta(op, path, value).expect("exchange");
        assert_eq!(status, want, "{op:?} {path}");
        assert!(entries.is_empty(), "error replies carry no entries");
    }

    // `self` and the node's numeric id alias the same tree.
    let via_self = conn.meta_list("mesh/nodes/self/metrics").expect("self");
    let id = node.machine_id().0;
    let via_id = conn
        .meta_list(&format!("mesh/nodes/{id}/metrics"))
        .expect("by id");
    assert_eq!(render(&via_self), render(&via_id));
}

/// Determinism (the `List` contract): metric and capability listings
/// are sorted, carry only static values, and are byte-identical across
/// independent runs and across shard counts — `--jobs 1` and
/// `--jobs 8` tooling sees the same catalog.
#[test]
fn listings_are_byte_identical_across_runs_and_shard_counts() {
    let origin = OriginServer::spawn("127.0.0.1:0").expect("origin");
    let narrow = CacheNode::spawn(NodeConfig::new("127.0.0.1:0", origin.addr()).with_shards(1))
        .expect("narrow node");
    let wide = CacheNode::spawn(NodeConfig::new("127.0.0.1:0", origin.addr()).with_shards(8))
        .expect("wide node");

    // Traffic on one node only: measured values must not leak into
    // listings.
    for i in 0..10 {
        bh_proto::fetch(wide.addr(), &format!("http://t.test/d{i}")).expect("fetch");
    }

    let mut narrow_conn = Connection::open(narrow.addr()).expect("open narrow");
    let mut wide_conn = Connection::open(wide.addr()).expect("open wide");

    // `meta` capability listings: fully static, byte-identical.
    let meta_a = narrow_conn.meta_list("meta").expect("meta narrow");
    let meta_b = wide_conn.meta_list("meta").expect("meta wide");
    assert_eq!(render(&meta_a), render(&meta_b));
    assert!(!meta_a.is_empty());

    // Metric listings: identical modulo the node id in the root.
    let m_a = narrow_conn
        .meta_list("mesh/nodes/self/metrics")
        .expect("m a");
    let m_b = wide_conn.meta_list("mesh/nodes/self/metrics").expect("m b");
    assert_eq!(render_rootless(&m_a), render_rootless(&m_b));

    // Sorted, and stable across repeated reads of the same node.
    let paths: Vec<&str> = m_a.iter().map(|e| e.path.as_str()).collect();
    let mut sorted = paths.clone();
    sorted.sort_unstable();
    assert_eq!(paths, sorted, "List must be sorted");
    let again = narrow_conn
        .meta_list("mesh/nodes/self/metrics")
        .expect("m a2");
    assert_eq!(render(&m_a), render(&again));

    // Pool-stats listings obey the same contract.
    let p_a = narrow_conn
        .meta_list("mesh/nodes/self/pool/stats")
        .expect("p a");
    let p_b = wide_conn
        .meta_list("mesh/nodes/self/pool/stats")
        .expect("p b");
    assert_eq!(render_rootless(&p_a), render_rootless(&p_b));
}
