//! The node's observability surface: every counter and gauge a
//! [`super::CacheNode`] exposes is declared here, exactly once, through
//! the `bh-obs` registry.
//!
//! Each node counter is one entry of the `node_counters!` table below:
//! its `NodeStats` rustdoc, its name, its [`Unit`] and its help string.
//! The table expands into the [`NodeStats`] struct,
//! [`NodeStats::from_snapshot`], and the `NodeMetrics` handles and their
//! registration, so adding a counter is one entry and the names cannot
//! drift apart. [`NodeStats`] is a thin typed view derived from a
//! registry snapshot; dumps iterate the registry.

use crate::pool::ConnectionPool;
use bh_obs::{Counter, Determinism, Gauge, Histogram, MetricEntry, MetricInfo, Registry, Unit};

/// How many trace records each node retains (newest win once full).
pub const NODE_TRACE_CAPACITY: usize = 4096;

/// Inclusive upper bounds (µs) for the miss-service latency histogram.
const SERVICE_LATENCY_BOUNDS_US: [u64; 10] = [
    100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000,
];

/// Expands the counter table into `NodeStats`, its `from_snapshot`, and
/// `NodeMetrics` with `register()`. The pool gauges and the service
/// histogram have no `NodeStats` field and are written out here.
macro_rules! node_counters {
    ($($(#[doc = $doc:literal])* $name:ident: $unit:ident, $help:literal;)*) => {
        /// Counters exposed by a node — a typed view over the metrics registry.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct NodeStats {
            $($(#[doc = $doc])* pub $name: u64,)*
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
                        $(stringify!($name) => &mut out.$name,)*
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
            $(pub $name: Counter,)*
            /// Peers currently under quarantine (refreshed at snapshot time).
            pool_quarantined_peers: Gauge,
            /// Warm pooled connections currently idle (refreshed at snapshot time).
            pool_live_connections: Gauge,
            /// Outbound request retries the pool has performed.
            pool_reconnect_attempts: Gauge,
            /// Miss-service latency (the `Get` service's miss path: hint lookup,
            /// peer probe and/or origin fetch, store), from when the miss's group
            /// formed to its reply.
            pub request_service_micros: Histogram,
        }

        impl NodeMetrics {
            /// Declares every node metric on a fresh registry; each counter
            /// is registered under its `NodeStats` field name.
            pub(crate) fn register() -> NodeMetrics {
                let r = Registry::new();
                NodeMetrics {
                    $($name: r.counter(
                        stringify!($name),
                        Unit::$unit,
                        $help,
                        Determinism::Measured,
                    ),)*
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
                        "miss-service latency of the Get service, from group formation to reply",
                        Determinism::Measured,
                        &SERVICE_LATENCY_BOUNDS_US,
                    ),
                    registry: r,
                }
            }
        }
    };
}

node_counters! {
    /// Requests served from the local cache.
    local_hits: Count, "requests served from the local cache";
    /// Requests served by a direct peer transfer.
    peer_hits: Count, "requests served by a direct peer transfer";
    /// Requests served by the origin.
    origin_fetches: Count, "requests served by the origin";
    /// Peer probes that came back `NotFound` (false-positive hints).
    false_positives: Count, "peer probes answered NotFound";
    /// Hint updates sent (records, not batches).
    updates_sent: Count, "hint-update records sent";
    /// Hint updates received and applied.
    updates_received: Count, "hint-update records received";
    /// Objects pushed to this node by peers.
    pushes_received: Count, "objects pushed by peers";
    /// Received updates that were *not* forwarded up/down because they did
    /// not change this node's knowledge (the §3.1.2 filtering).
    updates_filtered: Count, "updates not re-propagated (3.1.2 filter)";
    /// Heartbeats a neighbor answered.
    heartbeats_ok: Count, "heartbeats a neighbor answered";
    /// Heartbeats a neighbor failed to answer.
    heartbeats_failed: Count, "heartbeats a neighbor missed";
    /// Neighbors confirmed dead by the failure detector.
    peers_confirmed_dead: Count, "neighbors confirmed dead";
    /// Stale hint records purged when a peer was confirmed dead.
    stale_hints_gc: Count, "stale hints purged on confirmed death";
    /// Plaxton routing-table entries rewritten by churn repair.
    plaxton_repair_entries: Count, "Plaxton table entries rewritten by churn repair";
    /// Peer probes that failed at the transport layer (dead peer or
    /// partition) and fell back to the origin.
    degraded_to_origin: Count, "probes that failed at transport and fell back to origin";
    /// Times this node adopted a fallback parent after its metadata
    /// parent was confirmed dead (hierarchy re-homing).
    parent_rehomes: Count, "fallback parents adopted after a parent death";
    /// Anti-entropy resync requests answered for restarting peers.
    resyncs_served: Count, "anti-entropy resyncs answered";
    /// Requests whose service path failed without a panic: a connection
    /// that died while a run of its `Get`s was in service.
    service_errors: Count, "request service paths that failed";
    /// `Get` requests turned away with a redirect-to-origin reply because
    /// the node's parked `Get`s were past the admission mark.
    admission_rejects: Count, "Gets redirected to origin by parked-Get admission control";
    /// Saturation episodes: times the parked `Get`s *crossed* the
    /// admission mark (one per episode, not per rejected request).
    queue_saturation_events: Count, "times the parked Gets crossed the admission mark";
    /// Hint updates dropped (oldest first) because the coalescing buffer
    /// hit its cap while a neighbor was slow.
    hint_batch_overflow: Count, "hint updates dropped by the bounded coalescing buffer";
    /// Cross-thread wake-ups absorbed by an already-pending wake (epoll
    /// round-trips saved by the waker's coalescing flag).
    wakeups_coalesced: Count, "shard wake-ups absorbed by an already-pending wake";
    /// Times a connection stopped being polled for reads because its
    /// backlog or its unsent reply bytes reached their cap (a client
    /// pipelining faster than it reads).
    read_pauses: Count, "connections paused for reads at their backlog or unsent-bytes cap";
    /// `write_out` passes that handed the kernel more than one segment: a
    /// referenced body of a page or more was in the out-queue. Stays 0
    /// while every reply is small enough to be copied flat.
    writev_batches: Count, "write passes that sent more than one segment (a body by reference)";
    /// Microseconds spent replaying the durable hint log at spawn
    /// (0 when the node runs without durability).
    hint_log_replay_micros: Micros, "time spent replaying the durable hint log at spawn";
    /// Hint records live in the store after the spawn-time log replay —
    /// the warm-restart recovery a network resync would otherwise pay
    /// for.
    hints_recovered_from_log: Count, "hint records recovered by the spawn-time log replay";
    /// Received hint batches whose authenticator failed verification
    /// (byzantine or corrupted sender).
    hint_auth_failures: Count, "received hint batches whose authenticator failed";
}

impl NodeMetrics {
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

    /// The node's whole catalog, sorted by name: `(name, unit, help)`.
    #[rustfmt::skip]
    const CATALOG: [(&str, &str, &str); 30] = [
        ("admission_rejects", "count", "Gets redirected to origin by parked-Get admission control"),
        ("degraded_to_origin", "count", "probes that failed at transport and fell back to origin"),
        ("false_positives", "count", "peer probes answered NotFound"),
        ("heartbeats_failed", "count", "heartbeats a neighbor missed"),
        ("heartbeats_ok", "count", "heartbeats a neighbor answered"),
        ("hint_auth_failures", "count", "received hint batches whose authenticator failed"),
        ("hint_batch_overflow", "count", "hint updates dropped by the bounded coalescing buffer"),
        ("hint_log_replay_micros", "micros", "time spent replaying the durable hint log at spawn"),
        ("hints_recovered_from_log", "count", "hint records recovered by the spawn-time log replay"),
        ("local_hits", "count", "requests served from the local cache"),
        ("origin_fetches", "count", "requests served by the origin"),
        ("parent_rehomes", "count", "fallback parents adopted after a parent death"),
        ("peer_hits", "count", "requests served by a direct peer transfer"),
        ("peers_confirmed_dead", "count", "neighbors confirmed dead"),
        ("plaxton_repair_entries", "count", "Plaxton table entries rewritten by churn repair"),
        ("pool_live_connections", "connections", "warm pooled connections currently idle"),
        ("pool_quarantined_peers", "peers", "peers currently under quarantine backoff"),
        ("pool_reconnect_attempts", "count", "outbound request retries performed by the pool"),
        ("pushes_received", "count", "objects pushed by peers"),
        ("queue_saturation_events", "count", "times the parked Gets crossed the admission mark"),
        ("read_pauses", "count", "connections paused for reads at their backlog or unsent-bytes cap"),
        ("request_service_micros", "micros", "miss-service latency of the Get service, from group formation to reply"),
        ("resyncs_served", "count", "anti-entropy resyncs answered"),
        ("service_errors", "count", "request service paths that failed"),
        ("stale_hints_gc", "count", "stale hints purged on confirmed death"),
        ("updates_filtered", "count", "updates not re-propagated (3.1.2 filter)"),
        ("updates_received", "count", "hint-update records received"),
        ("updates_sent", "count", "hint-update records sent"),
        ("wakeups_coalesced", "count", "shard wake-ups absorbed by an already-pending wake"),
        ("writev_batches", "count", "write passes that sent more than one segment (a body by reference)"),
    ];

    #[test]
    fn catalog_covers_every_counter_and_gauge() {
        let m = NodeMetrics::register();
        let catalog = m.catalog();
        let rows: Vec<(&str, &str, &str)> = catalog
            .iter()
            .map(|i| (i.name.as_str(), i.unit.label(), i.help.as_str()))
            .collect();
        assert_eq!(rows, CATALOG);
        assert!(catalog
            .iter()
            .all(|i| i.determinism == Determinism::Measured));
    }

    #[test]
    fn every_node_stats_field_has_a_registered_metric() {
        // Each handle gets a distinct value; the snapshot must carry it
        // to the field of the same name.
        let m = NodeMetrics::register();
        m.admission_rejects.add(1);
        m.degraded_to_origin.add(2);
        m.false_positives.add(3);
        m.heartbeats_failed.add(4);
        m.heartbeats_ok.add(5);
        m.hint_auth_failures.add(6);
        m.hint_batch_overflow.add(7);
        m.hint_log_replay_micros.add(8);
        m.hints_recovered_from_log.add(9);
        m.local_hits.add(10);
        m.origin_fetches.add(11);
        m.parent_rehomes.add(12);
        m.peer_hits.add(13);
        m.peers_confirmed_dead.add(14);
        m.plaxton_repair_entries.add(15);
        m.pushes_received.add(16);
        m.queue_saturation_events.add(17);
        m.read_pauses.add(18);
        m.resyncs_served.add(19);
        m.service_errors.add(20);
        m.stale_hints_gc.add(21);
        m.updates_filtered.add(22);
        m.updates_received.add(23);
        m.updates_sent.add(24);
        m.wakeups_coalesced.add(25);
        m.writev_batches.add(26);
        assert_eq!(
            NodeStats::from_snapshot(&m.registry.snapshot()),
            NodeStats {
                admission_rejects: 1,
                degraded_to_origin: 2,
                false_positives: 3,
                heartbeats_failed: 4,
                heartbeats_ok: 5,
                hint_auth_failures: 6,
                hint_batch_overflow: 7,
                hint_log_replay_micros: 8,
                hints_recovered_from_log: 9,
                local_hits: 10,
                origin_fetches: 11,
                parent_rehomes: 12,
                peer_hits: 13,
                peers_confirmed_dead: 14,
                plaxton_repair_entries: 15,
                pushes_received: 16,
                queue_saturation_events: 17,
                read_pauses: 18,
                resyncs_served: 19,
                service_errors: 20,
                stale_hints_gc: 21,
                updates_filtered: 22,
                updates_received: 23,
                updates_sent: 24,
                wakeups_coalesced: 25,
                writev_batches: 26,
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
}
