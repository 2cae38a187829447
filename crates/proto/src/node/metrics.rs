//! The node's observability surface: every counter and gauge a
//! [`super::CacheNode`] exposes is declared here, exactly once, through
//! the `bh-obs` registry.
//!
//! [`NodeStats`] survives as a thin typed view derived from a registry
//! snapshot ([`NodeStats::from_snapshot`]) so existing tests and the
//! chaos analysis keep their field access, but there is no hand-rolled
//! snapshot plumbing left: dumps iterate the registry.

use crate::pool::ConnectionPool;
use bh_obs::{Counter, Determinism, Gauge, Histogram, MetricEntry, MetricInfo, Registry, Unit};

/// How many trace records each node retains (newest win once full).
pub const NODE_TRACE_CAPACITY: usize = 4096;

/// Inclusive upper bounds (µs) for the miss-service latency histogram.
const SERVICE_LATENCY_BOUNDS_US: [u64; 10] = [
    100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000,
];

/// Counters exposed by a node — a typed view over the metrics registry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Requests served from the local cache.
    pub local_hits: u64,
    /// Requests served by a direct peer transfer.
    pub peer_hits: u64,
    /// Requests served by the origin.
    pub origin_fetches: u64,
    /// Peer probes that came back `NotFound` (false-positive hints).
    pub false_positives: u64,
    /// Hint updates sent (records, not batches).
    pub updates_sent: u64,
    /// Hint updates received and applied.
    pub updates_received: u64,
    /// Objects pushed to this node by peers.
    pub pushes_received: u64,
    /// Received updates that were *not* forwarded up/down because they did
    /// not change this node's knowledge (the §3.1.2 filtering).
    pub updates_filtered: u64,
    /// Heartbeats a neighbor answered.
    pub heartbeats_ok: u64,
    /// Heartbeats a neighbor failed to answer.
    pub heartbeats_failed: u64,
    /// Neighbors confirmed dead by the failure detector.
    pub peers_confirmed_dead: u64,
    /// Stale hint records purged when a peer was confirmed dead.
    pub stale_hints_gc: u64,
    /// Plaxton routing-table entries rewritten by churn repair.
    pub plaxton_repair_entries: u64,
    /// Peer probes that failed at the transport layer (dead peer or
    /// partition) and fell back to the origin.
    pub degraded_to_origin: u64,
    /// Times this node adopted a fallback parent after its metadata
    /// parent was confirmed dead (hierarchy re-homing).
    pub parent_rehomes: u64,
    /// Anti-entropy resync requests answered for restarting peers.
    pub resyncs_served: u64,
    /// Requests whose service path failed without a panic: a reply that
    /// could not be delivered or a job the worker pool could not accept.
    pub service_errors: u64,
    /// `Get` requests turned away with a redirect-to-origin reply because
    /// the worker queue was past its high-water mark.
    pub admission_rejects: u64,
    /// Saturation episodes: times the worker queue *crossed* the
    /// high-water mark (one per episode, not per rejected request).
    pub queue_saturation_events: u64,
    /// Hint updates dropped (oldest first) because the coalescing buffer
    /// hit its cap while a neighbor was slow.
    pub hint_batch_overflow: u64,
    /// Cross-thread wake-ups absorbed by an already-pending wake (epoll
    /// round-trips saved by the waker's coalescing flag).
    pub wakeups_coalesced: u64,
    /// Times a connection stopped being polled for reads because its
    /// backlog or its unsent reply bytes reached their cap (a client
    /// pipelining faster than it reads).
    pub read_pauses: u64,
    /// `write_out` passes that handed the kernel more than one segment: a
    /// referenced body of a page or more was in the out-queue. Stays 0
    /// while every reply is small enough to be copied flat.
    pub writev_batches: u64,
    /// Microseconds spent replaying the durable hint log at spawn
    /// (0 when the node runs without durability).
    pub hint_log_replay_micros: u64,
    /// Hint records live in the store after the spawn-time log replay —
    /// the warm-restart recovery a network resync would otherwise pay
    /// for.
    pub hints_recovered_from_log: u64,
    /// Received hint batches whose authenticator failed verification
    /// (byzantine or corrupted sender).
    pub hint_auth_failures: u64,
}

impl NodeStats {
    /// Rebuilds the typed view from a registry snapshot (the flat
    /// `(name, value)` list a node dumps or answers over the wire).
    /// Entries that are not `NodeStats` counters — pool gauges, latency
    /// histogram buckets — are ignored.
    pub fn from_snapshot(entries: &[MetricEntry]) -> NodeStats {
        let mut out = NodeStats::default();
        for e in entries {
            let slot = match e.name.as_str() {
                "local_hits" => &mut out.local_hits,
                "peer_hits" => &mut out.peer_hits,
                "origin_fetches" => &mut out.origin_fetches,
                "false_positives" => &mut out.false_positives,
                "updates_sent" => &mut out.updates_sent,
                "updates_received" => &mut out.updates_received,
                "pushes_received" => &mut out.pushes_received,
                "updates_filtered" => &mut out.updates_filtered,
                "heartbeats_ok" => &mut out.heartbeats_ok,
                "heartbeats_failed" => &mut out.heartbeats_failed,
                "peers_confirmed_dead" => &mut out.peers_confirmed_dead,
                "stale_hints_gc" => &mut out.stale_hints_gc,
                "plaxton_repair_entries" => &mut out.plaxton_repair_entries,
                "degraded_to_origin" => &mut out.degraded_to_origin,
                "parent_rehomes" => &mut out.parent_rehomes,
                "resyncs_served" => &mut out.resyncs_served,
                "service_errors" => &mut out.service_errors,
                "admission_rejects" => &mut out.admission_rejects,
                "queue_saturation_events" => &mut out.queue_saturation_events,
                "hint_batch_overflow" => &mut out.hint_batch_overflow,
                "wakeups_coalesced" => &mut out.wakeups_coalesced,
                "read_pauses" => &mut out.read_pauses,
                "writev_batches" => &mut out.writev_batches,
                "hint_log_replay_micros" => &mut out.hint_log_replay_micros,
                "hints_recovered_from_log" => &mut out.hints_recovered_from_log,
                "hint_auth_failures" => &mut out.hint_auth_failures,
                _ => continue,
            };
            *slot = e.value;
        }
        out
    }
}

/// The node's registered metric handles. Hot-path updates are relaxed
/// atomic adds on cloned handles; the registry is only locked when a
/// snapshot or scrape asks for it.
#[derive(Debug)]
pub(crate) struct NodeMetrics {
    registry: Registry,
    pub local_hits: Counter,
    pub peer_hits: Counter,
    pub origin_fetches: Counter,
    pub false_positives: Counter,
    pub updates_sent: Counter,
    pub updates_received: Counter,
    pub pushes_received: Counter,
    pub updates_filtered: Counter,
    pub heartbeats_ok: Counter,
    pub heartbeats_failed: Counter,
    pub peers_confirmed_dead: Counter,
    pub stale_hints_gc: Counter,
    pub plaxton_repair_entries: Counter,
    pub degraded_to_origin: Counter,
    pub parent_rehomes: Counter,
    pub resyncs_served: Counter,
    pub service_errors: Counter,
    pub admission_rejects: Counter,
    pub queue_saturation_events: Counter,
    pub hint_batch_overflow: Counter,
    pub wakeups_coalesced: Counter,
    pub read_pauses: Counter,
    pub writev_batches: Counter,
    pub hint_log_replay_micros: Counter,
    pub hints_recovered_from_log: Counter,
    pub hint_auth_failures: Counter,
    /// Peers currently under quarantine (refreshed at snapshot time).
    pool_quarantined_peers: Gauge,
    /// Warm pooled connections currently idle (refreshed at snapshot time).
    pool_live_connections: Gauge,
    /// Outbound request retries the pool has performed.
    pool_reconnect_attempts: Gauge,
    /// Miss-service latency (the `service_gets` path: hint lookup, peer
    /// probe and/or origin fetch, store).
    pub request_service_micros: Histogram,
}

impl NodeMetrics {
    /// Declares every node metric on a fresh registry. Names of the
    /// `NodeStats` counters are exactly the struct field names, which is
    /// what keeps [`NodeStats::from_snapshot`] and the `stats-registry`
    /// lint honest.
    pub(crate) fn register() -> NodeMetrics {
        let r = Registry::new();
        let c = |name: &str, help: &str| r.counter(name, Unit::Count, help, Determinism::Measured);
        NodeMetrics {
            local_hits: c("local_hits", "requests served from the local cache"),
            peer_hits: c("peer_hits", "requests served by a direct peer transfer"),
            origin_fetches: c("origin_fetches", "requests served by the origin"),
            false_positives: c("false_positives", "peer probes answered NotFound"),
            updates_sent: c("updates_sent", "hint-update records sent"),
            updates_received: c("updates_received", "hint-update records received"),
            pushes_received: c("pushes_received", "objects pushed by peers"),
            updates_filtered: c(
                "updates_filtered",
                "updates not re-propagated (3.1.2 filter)",
            ),
            heartbeats_ok: c("heartbeats_ok", "heartbeats a neighbor answered"),
            heartbeats_failed: c("heartbeats_failed", "heartbeats a neighbor missed"),
            peers_confirmed_dead: c("peers_confirmed_dead", "neighbors confirmed dead"),
            stale_hints_gc: c("stale_hints_gc", "stale hints purged on confirmed death"),
            plaxton_repair_entries: c(
                "plaxton_repair_entries",
                "Plaxton table entries rewritten by churn repair",
            ),
            degraded_to_origin: c(
                "degraded_to_origin",
                "probes that failed at transport and fell back to origin",
            ),
            parent_rehomes: c(
                "parent_rehomes",
                "fallback parents adopted after a parent death",
            ),
            resyncs_served: c("resyncs_served", "anti-entropy resyncs answered"),
            service_errors: c("service_errors", "request service paths that failed"),
            admission_rejects: c(
                "admission_rejects",
                "Gets redirected to origin by worker-queue admission control",
            ),
            queue_saturation_events: c(
                "queue_saturation_events",
                "times the worker queue crossed its high-water mark",
            ),
            hint_batch_overflow: c(
                "hint_batch_overflow",
                "hint updates dropped by the bounded coalescing buffer",
            ),
            wakeups_coalesced: c(
                "wakeups_coalesced",
                "shard wake-ups absorbed by an already-pending wake",
            ),
            read_pauses: c(
                "read_pauses",
                "connections paused for reads at their backlog or unsent-bytes cap",
            ),
            writev_batches: c(
                "writev_batches",
                "write passes that sent more than one segment (a body by reference)",
            ),
            hint_log_replay_micros: r.counter(
                "hint_log_replay_micros",
                Unit::Micros,
                "time spent replaying the durable hint log at spawn",
                Determinism::Measured,
            ),
            hints_recovered_from_log: c(
                "hints_recovered_from_log",
                "hint records recovered by the spawn-time log replay",
            ),
            hint_auth_failures: c(
                "hint_auth_failures",
                "received hint batches whose authenticator failed",
            ),
            pool_quarantined_peers: r.gauge(
                "pool_quarantined_peers",
                Unit::Peers,
                "peers currently under quarantine backoff",
                Determinism::Measured,
            ),
            pool_live_connections: r.gauge(
                "pool_live_connections",
                Unit::Connections,
                "warm pooled connections currently idle",
                Determinism::Measured,
            ),
            pool_reconnect_attempts: r.gauge(
                "pool_reconnect_attempts",
                Unit::Count,
                "outbound request retries performed by the pool",
                Determinism::Measured,
            ),
            request_service_micros: r.histogram(
                "request_service_micros",
                Unit::Micros,
                "miss-service latency through service_gets",
                Determinism::Measured,
                &SERVICE_LATENCY_BOUNDS_US,
            ),
            registry: r,
        }
    }

    /// Refreshes the pool gauges from `pool` and snapshots the whole
    /// registry, sorted by name. This is the one scrape path: the wire
    /// `Stats` frame, `CacheNode::stats()`, and the chaos dump all read
    /// this list.
    pub(crate) fn snapshot_with_pool(&self, pool: &ConnectionPool) -> Vec<MetricEntry> {
        self.pool_quarantined_peers
            .set(pool.quarantined_peer_count() as u64);
        self.pool_live_connections
            .set(pool.total_idle_connections() as u64);
        self.pool_reconnect_attempts.set(pool.stats().retries);
        self.registry.snapshot()
    }

    /// The metric catalog (name, unit, help) for operator surfaces.
    pub(crate) fn catalog(&self) -> Vec<MetricInfo> {
        self.registry.catalog()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_node_stats_field_has_a_registered_metric() {
        let m = NodeMetrics::register();
        m.local_hits.add(1);
        m.peer_hits.add(2);
        m.origin_fetches.add(3);
        m.false_positives.add(4);
        m.updates_sent.add(5);
        m.updates_received.add(6);
        m.pushes_received.add(7);
        m.updates_filtered.add(8);
        m.heartbeats_ok.add(9);
        m.heartbeats_failed.add(10);
        m.peers_confirmed_dead.add(11);
        m.stale_hints_gc.add(12);
        m.plaxton_repair_entries.add(13);
        m.degraded_to_origin.add(14);
        m.parent_rehomes.add(17);
        m.resyncs_served.add(15);
        m.service_errors.add(16);
        m.admission_rejects.add(18);
        m.queue_saturation_events.add(19);
        m.hint_batch_overflow.add(20);
        m.wakeups_coalesced.add(21);
        m.read_pauses.add(22);
        m.writev_batches.add(26);
        m.hint_log_replay_micros.add(23);
        m.hints_recovered_from_log.add(24);
        m.hint_auth_failures.add(25);
        let snap = m.registry.snapshot();
        let stats = NodeStats::from_snapshot(&snap);
        assert_eq!(
            stats,
            NodeStats {
                local_hits: 1,
                peer_hits: 2,
                origin_fetches: 3,
                false_positives: 4,
                updates_sent: 5,
                updates_received: 6,
                pushes_received: 7,
                updates_filtered: 8,
                heartbeats_ok: 9,
                heartbeats_failed: 10,
                peers_confirmed_dead: 11,
                stale_hints_gc: 12,
                plaxton_repair_entries: 13,
                degraded_to_origin: 14,
                parent_rehomes: 17,
                resyncs_served: 15,
                service_errors: 16,
                admission_rejects: 18,
                queue_saturation_events: 19,
                hint_batch_overflow: 20,
                wakeups_coalesced: 21,
                read_pauses: 22,
                writev_batches: 26,
                hint_log_replay_micros: 23,
                hints_recovered_from_log: 24,
                hint_auth_failures: 25,
            }
        );
    }

    #[test]
    fn from_snapshot_ignores_non_stats_entries() {
        let entries = vec![
            MetricEntry {
                name: "local_hits".into(),
                value: 5,
            },
            MetricEntry {
                name: "pool_quarantined_peers".into(),
                value: 2,
            },
            MetricEntry {
                name: "request_service_micros.count".into(),
                value: 9,
            },
        ];
        let stats = NodeStats::from_snapshot(&entries);
        assert_eq!(stats.local_hits, 5);
        assert_eq!(
            stats,
            NodeStats {
                local_hits: 5,
                ..NodeStats::default()
            }
        );
    }

    #[test]
    fn catalog_covers_every_counter_and_gauge() {
        let m = NodeMetrics::register();
        let names: Vec<String> = m.catalog().into_iter().map(|i| i.name).collect();
        for required in [
            "local_hits",
            "service_errors",
            "admission_rejects",
            "queue_saturation_events",
            "hint_batch_overflow",
            "wakeups_coalesced",
            "read_pauses",
            "writev_batches",
            "hint_log_replay_micros",
            "hints_recovered_from_log",
            "hint_auth_failures",
            "pool_quarantined_peers",
            "pool_live_connections",
            "pool_reconnect_attempts",
            "request_service_micros",
        ] {
            assert!(names.iter().any(|n| n == required), "missing {required}");
        }
    }
}
