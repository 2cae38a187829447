//! Replay a workload against a live cache cluster.
//!
//! The simulator evaluates strategies analytically; this module closes the
//! loop by driving the *same* synthetic workloads (or parsed logs) through
//! real [`crate::node::CacheNode`] daemons over TCP, the way the paper's
//! prototype was exercised by live traffic. Time is compressed: the trace's
//! inter-arrival gaps are divided by a speedup factor (or ignored for
//! maximum-throughput replay), and requests are issued from one connection
//! per L1 node, mirroring a proxy's request funnel.

use crate::client::{Connection, Source};
use crate::wire::MachineId;
use bh_simcore::stats::LatencyStats;
use bh_trace::TraceRecord;
use bytes::Bytes;
use std::collections::BTreeMap;
use std::io;
use std::net::SocketAddr;

/// Replay configuration.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// Map of L1 group → cache-node address. Clients of group *g* send to
    /// `nodes[g % nodes.len()]`.
    pub nodes: Vec<SocketAddr>,
    /// Virtual-to-wall-clock speedup; `None` replays as fast as possible.
    pub speedup: Option<f64>,
    /// Clients per L1 group (for the client→group mapping).
    pub clients_per_l1: u32,
    /// Whether client IDs encode their group modularly (Prodigy-style
    /// dynamic IDs) instead of in blocks.
    pub dynamic_client_ids: bool,
    /// The origin server clients fall back to when a node's admission
    /// control answers `Redirect`. `None` counts a redirect as an error
    /// (the workload was not expected to saturate anything).
    pub origin: Option<SocketAddr>,
}

impl ReplayConfig {
    /// Maximum-throughput replay against `nodes` with the default (block)
    /// client mapping.
    pub fn flat_out(nodes: Vec<SocketAddr>) -> Self {
        ReplayConfig {
            nodes,
            speedup: None,
            clients_per_l1: 256,
            dynamic_client_ids: false,
            origin: None,
        }
    }

    /// Sets the origin fallback for redirect replies.
    pub fn with_origin(mut self, origin: SocketAddr) -> Self {
        self.origin = Some(origin);
        self
    }

    fn node_for(&self, client: bh_trace::ClientId) -> SocketAddr {
        let group = if self.dynamic_client_ids {
            client.0 as usize
        } else {
            (client.0 / self.clients_per_l1) as usize
        };
        self.nodes[group % self.nodes.len()]
    }
}

/// Outcome counts from a replay.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// Requests issued.
    pub requests: u64,
    /// Served from the contacted node's cache.
    pub local_hits: u64,
    /// Served by a peer via direct transfer.
    pub peer_hits: u64,
    /// Served by the origin.
    pub origin_fetches: u64,
    /// Requests a saturated node turned away with a redirect reply; each
    /// then completed (or failed) against the origin directly, so this is
    /// *not* part of the requests = local + peer + origin + errors
    /// conservation sum.
    pub redirects: u64,
    /// Requests that failed outright (origin unreachable etc.).
    pub errors: u64,
    /// Bytes delivered to clients.
    pub bytes: u64,
    /// Per-peer transfer counts, keyed by supplying machine. Ordered so
    /// any report that reaches an artifact iterates deterministically.
    pub per_peer: BTreeMap<u64, u64>,
}

impl ReplayReport {
    /// Request hit ratio (local + peer).
    pub fn hit_ratio(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            (self.local_hits + self.peer_hits) as f64 / self.requests as f64
        }
    }

    /// Absorbs another report's counts (merging per-thread results).
    pub fn merge(&mut self, other: &ReplayReport) {
        self.requests += other.requests;
        self.local_hits += other.local_hits;
        self.peer_hits += other.peer_hits;
        self.origin_fetches += other.origin_fetches;
        self.redirects += other.redirects;
        self.errors += other.errors;
        self.bytes += other.bytes;
        for (peer, n) in &other.per_peer {
            *self.per_peer.entry(*peer).or_insert(0) += n;
        }
    }
}

/// Outcome of a [`replay_concurrent`] run: merged counts plus the
/// end-to-end latency distribution and the wall-clock the replay took.
#[derive(Debug, Clone, Default)]
pub struct ConcurrentReplayReport {
    /// Merged outcome counts across all client threads.
    pub report: ReplayReport,
    /// Per-request end-to-end latency samples (seconds).
    pub latency: LatencyStats,
    /// Wall-clock duration of the whole replay.
    pub wall_seconds: f64,
}

impl ConcurrentReplayReport {
    /// Aggregate throughput in requests per second.
    pub fn requests_per_second(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.report.requests as f64 / self.wall_seconds
        } else {
            0.0
        }
    }
}

/// Fetches `url` from `addr` through the per-thread connection pool,
/// reconnecting on the next request if this one broke the connection.
fn fetch_pooled(
    conns: &mut BTreeMap<SocketAddr, Connection>,
    addr: SocketAddr,
    url: &str,
) -> io::Result<(Source, Bytes)> {
    match conns.entry(addr) {
        std::collections::btree_map::Entry::Occupied(mut e) => {
            let res = e.get_mut().fetch(url);
            if res.is_err() {
                // Drop the broken connection; the next request to this
                // node reconnects.
                e.remove();
            }
            res
        }
        std::collections::btree_map::Entry::Vacant(e) => match Connection::open(addr) {
            Ok(conn) => e.insert(conn).fetch(url),
            Err(err) => Err(err),
        },
    }
}

/// Completes a redirected request against the origin directly, or fails
/// it when the replay has no origin configured.
fn follow_redirect(
    config: &ReplayConfig,
    conns: &mut BTreeMap<SocketAddr, Connection>,
    url: &str,
) -> io::Result<(Source, Bytes)> {
    match config.origin {
        Some(origin) => fetch_pooled(conns, origin, url),
        None => Err(io::Error::other(
            "node redirected to origin but the replay has no origin configured",
        )),
    }
}

/// Counts one successful fetch outcome into `report`.
fn count_outcome(report: &mut ReplayReport, source: Source, body: &Bytes) {
    report.bytes += body.len() as u64;
    match source {
        Source::Local => report.local_hits += 1,
        Source::Peer(MachineId(m)) => {
            report.peer_hits += 1;
            *report.per_peer.entry(m).or_insert(0) += 1;
        }
        // A direct origin fetch after a redirect lands here too (the
        // origin answers `served_by: Origin`); the Redirected arm only
        // fires if the redirect target itself redirected, which the
        // origin never does — counted as an origin fetch to keep the
        // conservation sum intact.
        Source::Origin | Source::Redirected => report.origin_fetches += 1,
    }
}

/// Replays `records` against the cluster in `config`, in trace order.
///
/// Uncachable/error records are skipped (they never reach caches in the
/// simulator either). One persistent connection per node is used; requests
/// are serialized in trace order, which is what a single-threaded
/// trace-replay harness of the era did.
///
/// # Errors
///
/// Fails on connection errors to the cache nodes themselves; per-request
/// upstream failures are counted in [`ReplayReport::errors`] instead.
pub fn replay(
    config: &ReplayConfig,
    records: impl IntoIterator<Item = TraceRecord>,
) -> io::Result<ReplayReport> {
    assert!(
        !config.nodes.is_empty(),
        "replay needs at least one cache node"
    );
    let mut conns: BTreeMap<SocketAddr, Connection> = BTreeMap::new();
    let mut report = ReplayReport::default();
    let mut last_time: Option<bh_simcore::SimTime> = None;

    for r in records {
        if !r.is_cacheable() {
            continue;
        }
        if let (Some(speedup), Some(prev)) = (config.speedup, last_time) {
            let gap = r.time.saturating_since(prev).as_secs_f64() / speedup;
            if gap > 0.0 {
                std::thread::sleep(std::time::Duration::from_secs_f64(gap.min(1.0)));
            }
        }
        last_time = Some(r.time);

        let addr = config.node_for(r.client);
        let url = r.object.synthetic_url();
        let conn = match conns.entry(addr) {
            std::collections::btree_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::btree_map::Entry::Vacant(e) => e.insert(Connection::open(addr)?),
        };
        report.requests += 1;
        let mut outcome = conn.fetch(&url);
        if matches!(outcome, Ok((Source::Redirected, _))) {
            report.redirects += 1;
            outcome = follow_redirect(config, &mut conns, &url);
        }
        match outcome {
            Ok((source, body)) => count_outcome(&mut report, source, &body),
            Err(_) => report.errors += 1,
        }
    }
    Ok(report)
}

/// Replays `records` from `concurrency` closed-loop client threads.
///
/// The trace is partitioned by client ID (`client % concurrency`), so each
/// trace client's requests stay in order on one thread while different
/// clients proceed in parallel — the multi-user load a proxy actually sees.
/// Each thread keeps one persistent connection per target node, issues its
/// next request as soon as the previous reply lands (closed loop), and
/// accumulates its own counters and latency samples; the harness merges
/// them when every thread has drained its share.
///
/// Inter-arrival gaps are ignored (`speedup` does not apply): concurrent
/// replay is a load generator, not a timing-faithful reenactment.
/// Per-request upstream failures — including a cache node dying mid-run —
/// are counted in [`ReplayReport::errors`], never panicking the harness; a
/// thread that loses its connection reconnects for the next request.
///
/// # Errors
///
/// Fails only if a worker thread panics (a harness bug, not a workload
/// outcome).
pub fn replay_concurrent(
    config: &ReplayConfig,
    records: &[TraceRecord],
    concurrency: usize,
) -> io::Result<ConcurrentReplayReport> {
    assert!(
        !config.nodes.is_empty(),
        "replay needs at least one cache node"
    );
    let concurrency = concurrency.max(1);
    let started = std::time::Instant::now();

    let merged = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = (0..concurrency)
            .map(|worker| {
                scope.spawn(move |_| {
                    let mut conns: BTreeMap<SocketAddr, Connection> = BTreeMap::new();
                    let mut report = ReplayReport::default();
                    let mut latency = LatencyStats::new();
                    for r in records
                        .iter()
                        .filter(|r| r.client.0 as usize % concurrency == worker)
                    {
                        if !r.is_cacheable() {
                            continue;
                        }
                        let addr = config.node_for(r.client);
                        let url = r.object.synthetic_url();
                        report.requests += 1;
                        let begin = std::time::Instant::now();
                        let mut outcome = fetch_pooled(&mut conns, addr, &url);
                        if matches!(outcome, Ok((Source::Redirected, _))) {
                            // Admission control turned us away; the
                            // latency sample covers the full client
                            // experience, redirect hop included.
                            report.redirects += 1;
                            outcome = follow_redirect(config, &mut conns, &url);
                        }
                        match outcome {
                            Ok((source, body)) => {
                                latency.record(begin.elapsed().as_secs_f64());
                                count_outcome(&mut report, source, &body);
                            }
                            Err(_) => report.errors += 1,
                        }
                    }
                    (report, latency)
                })
            })
            .collect();
        let mut merged = ConcurrentReplayReport::default();
        for handle in handles {
            let (report, latency) = handle.join().expect("replay worker panicked");
            merged.report.merge(&report);
            merged.latency.merge(&latency);
        }
        merged
    })
    .map_err(|_| io::Error::other("replay worker panicked"))?;

    let mut merged = merged;
    merged.wall_seconds = started.elapsed().as_secs_f64();
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::{Mesh, Topology};
    use crate::node::{CacheNode, NodeConfig};
    use crate::origin::OriginServer;
    use bh_trace::{TraceGenerator, WorkloadSpec};
    use std::time::Duration;

    fn cluster(n: usize) -> (OriginServer, Vec<CacheNode>) {
        let origin = OriginServer::spawn("127.0.0.1:0").expect("origin");
        Mesh::spawn(origin, Topology::Flat { nodes: n }, |_, c| {
            c.with_flush_max(Duration::from_millis(5))
                .with_data_capacity(bh_simcore::ByteSize::from_mb(256))
        })
        .expect("mesh")
        .into_parts()
    }

    #[test]
    fn replay_conserves_requests_and_finds_reuse() {
        let (origin, nodes) = cluster(2);
        let spec = WorkloadSpec::small().with_requests(400).with_clients(512);
        let records: Vec<TraceRecord> = TraceGenerator::new(&spec, 31).collect();
        let cacheable = records.iter().filter(|r| r.is_cacheable()).count() as u64;

        let config = ReplayConfig::flat_out(nodes.iter().map(|n| n.addr()).collect());
        let report = replay(&config, records).expect("replay");

        assert_eq!(report.requests, cacheable);
        assert_eq!(
            report.local_hits + report.peer_hits + report.origin_fetches + report.errors,
            report.requests
        );
        assert_eq!(report.errors, 0);
        assert!(
            report.local_hits > 0,
            "repeat references must hit locally: {report:?}"
        );
        assert!(report.bytes > 0);
        // The origin saw exactly the origin_fetches.
        assert_eq!(origin.request_count(), report.origin_fetches);
        assert!(report.hit_ratio() > 0.0);
    }

    #[test]
    fn concurrent_replay_conserves_requests_and_reports_latency() {
        let (origin, nodes) = cluster(2);
        let spec = WorkloadSpec::small().with_requests(500).with_clients(512);
        let records: Vec<TraceRecord> = TraceGenerator::new(&spec, 33).collect();
        let cacheable = records.iter().filter(|r| r.is_cacheable()).count() as u64;

        let config = ReplayConfig::flat_out(nodes.iter().map(|n| n.addr()).collect());
        let out = replay_concurrent(&config, &records, 8).expect("replay");

        assert_eq!(out.report.requests, cacheable);
        assert_eq!(
            out.report.local_hits
                + out.report.peer_hits
                + out.report.origin_fetches
                + out.report.errors,
            out.report.requests
        );
        assert_eq!(out.report.errors, 0);
        assert_eq!(out.latency.count() as u64, out.report.requests);
        assert!(out.latency.p99() >= out.latency.p50());
        assert!(out.requests_per_second() > 0.0);
        assert_eq!(origin.request_count(), out.report.origin_fetches);
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn saturated_node_redirects_to_origin() {
        // A drained node turns every Get away the way a saturated one
        // does: each comes back `Redirect` and the client completes it
        // against the origin directly — no errors, conservation intact.
        let origin = OriginServer::spawn("127.0.0.1:0").expect("origin");
        let node = CacheNode::spawn(NodeConfig::new("127.0.0.1:0", origin.addr())).expect("node");
        Connection::open(node.addr())
            .expect("control connection")
            .meta_set("mesh/nodes/self/control/drain", "true")
            .expect("drain");
        let spec = WorkloadSpec::small().with_requests(200).with_clients(64);
        let records: Vec<TraceRecord> = TraceGenerator::new(&spec, 35).collect();
        let cacheable = records.iter().filter(|r| r.is_cacheable()).count() as u64;

        let config = ReplayConfig::flat_out(vec![node.addr()]).with_origin(origin.addr());
        let report = replay(&config, records).expect("replay");

        assert_eq!(report.requests, cacheable);
        assert_eq!(report.errors, 0, "redirects must not surface as errors");
        assert!(
            report.redirects > 0,
            "a drained node must reject: {report:?}"
        );
        assert_eq!(
            report.local_hits + report.peer_hits + report.origin_fetches,
            report.requests,
            "every redirected request completes at the origin"
        );
        let stats = node.stats();
        assert_eq!(stats.admission_rejects, report.redirects);
    }

    #[test]
    fn replay_across_nodes_uses_peer_transfers() {
        let (_origin, nodes) = cluster(2);
        // A trace with heavy cross-group sharing: same objects from clients
        // of both groups.
        let spec = WorkloadSpec::small()
            .with_requests(600)
            .with_clients(512)
            .with_p_new(0.05)
            .with_p_local(0.0);
        let records: Vec<TraceRecord> = TraceGenerator::new(&spec, 32).collect();
        let config = ReplayConfig::flat_out(nodes.iter().map(|n| n.addr()).collect());
        // Give the randomized flusher time to move hints while we replay.
        let report = replay(&config, records).expect("replay");
        assert!(
            report.peer_hits > 0,
            "cross-group reuse should produce direct peer transfers: {report:?}"
        );
        assert!(!report.per_peer.is_empty());
    }
}
