//! The outside-in cost ledger: Σ(isolated cost × calls per op) ÷ measured
//! CPU per op. It says how much of a workload the public-function view
//! explains; the remainder (kernel socket work beyond one loopback
//! exchange, thread handoff, locks, allocation) is what in-program
//! tracing must attribute later.
//!
//! Calls per op are read off the request path in `crates/proto/src/node`
//! (which functions a `Get` passes through) and scaled by what the run
//! counted: outcome shares, updates sent, bytes and client reads per op.

use std::collections::BTreeMap;

/// What the traced rounds of one mesh workload counted, per op.
#[derive(Debug, Clone, Copy, Default)]
pub struct Situ {
    pub local_share: f64,
    pub peer_share: f64,
    pub origin_share: f64,
    /// Peer probes answered NotFound, per op.
    pub false_positives_per_op: f64,
    /// Hint updates delivered to neighbours, per op.
    pub updates_sent_per_op: f64,
    /// Neighbours each flush goes to.
    pub flush_targets: f64,
    /// Reply body bytes per op.
    pub bytes_per_op: f64,
    /// Client `read` calls per op: the stand-in for how many loopback
    /// exchanges the windowed stream needs per request.
    pub client_reads_per_op: f64,
    /// Measured CPU of all threads per op, µs.
    pub cpu_us_per_op: f64,
}

/// One line of the ledger: a layer function and the ns per op it explains.
pub type Term = (&'static str, f64);

/// The ledger's terms for one workload, in ns per op.
pub fn terms(iso: &BTreeMap<&'static str, f64>, s: &Situ) -> Vec<Term> {
    let ns = |name: &str| iso.get(name).copied().unwrap_or(0.0);
    // Reply encode/decode cost at this workload's body size, on the line
    // through the 128-byte and 4-KiB rows (the copy dominates past that).
    let at_size = |small: f64, large: f64| {
        (small + (large - small) * (s.bytes_per_op - 128.0) / (4096.0 - 128.0)).max(0.0)
    };
    let encode_reply = at_size(
        ns("wire.encode_reply_128b_ns"),
        ns("wire.encode_reply_4k_ns"),
    );
    // Only the 4-KiB decode row exists; scale it by size.
    let decode_reply = ns("wire.decode_reply_4k_ns") * (s.bytes_per_op / 4096.0).max(0.05);

    let miss = s.peer_share + s.origin_share;
    let probes = s.peer_share + s.false_positives_per_op;
    // Requests that leave the entry node: peer probes and origin fetches.
    let upstream = probes + s.origin_share;
    let stored = s.peer_share + s.origin_share;
    let delivered = s.updates_sent_per_op;
    let flushed = if s.flush_targets > 0.0 {
        delivered / s.flush_targets
    } else {
        0.0
    };
    vec![
        // Every request: the shard decodes it and tries the local cache;
        // a miss repeats the try on the worker and a probed peer tries too.
        ("wire.decode_get", ns("wire.decode_get_ns") * (1.0 + probes)),
        (
            "md5.url_key",
            ns("md5.url_key_ns") * (1.0 + 2.0 * miss + probes),
        ),
        (
            "cache.lru.get",
            ns("cache.lru.get_ns") * (1.0 + miss + probes),
        ),
        // One reply to the client, one more from the peer or the origin.
        ("wire.encode_reply", encode_reply * (1.0 + upstream)),
        // The client decodes every reply; the entry node decodes upstream ones.
        ("wire.decode_reply", decode_reply * (1.0 + upstream)),
        ("wire.encode_get", ns("wire.encode_get_ns") * upstream),
        ("cache.hint.lookup", ns("cache.hint.lookup_ns") * miss),
        (
            "cache.lru.insert_evict",
            ns("cache.lru.insert_evict_ns") * stored,
        ),
        // Loopback exchanges: the client's share, plus one per upstream trip.
        (
            "netpoll.echo_rtt",
            ns("netpoll.echo_rtt_ns") * (s.client_reads_per_op + upstream),
        ),
        // Outcome counter per request; the miss path times itself.
        ("obs.counter_inc", ns("obs.counter_inc_ns")),
        (
            "obs.histogram_observe",
            ns("obs.histogram_observe_ns") * miss,
        ),
        // Trace ring: one span for a local hit, five along a miss.
        (
            "obs.trace_push",
            ns("obs.trace_push_ns") * (s.local_share + 5.0 * miss),
        ),
        // Hint flush: coalesced and tagged once, encoded per neighbour;
        // each neighbour decodes, re-tags and inserts.
        (
            "wire.coalesce+tag",
            (ns("wire.coalesce_ns_per_update") + ns("wire.hint_batch_tag_ns_per_update")) * flushed,
        ),
        (
            "wire.hint_batch",
            (ns("wire.hint_batch_encode_ns_per_update")
                + ns("wire.hint_batch_decode_ns_per_update")
                + ns("wire.hint_batch_tag_ns_per_update"))
                * delivered,
        ),
        ("cache.hint.insert", ns("cache.hint.insert_ns") * delivered),
    ]
}

/// Σ terms ÷ measured CPU per op.
pub fn attributed_share(terms: &[Term], s: &Situ) -> f64 {
    if s.cpu_us_per_op <= 0.0 {
        return 0.0;
    }
    terms.iter().map(|(_, ns)| ns).sum::<f64>() / (s.cpu_us_per_op * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_local_hit_pays_only_the_request_path() {
        let iso: BTreeMap<&'static str, f64> = [
            ("wire.decode_get_ns", 100.0),
            ("md5.url_key_ns", 200.0),
            ("cache.lru.get_ns", 50.0),
            ("wire.encode_reply_128b_ns", 30.0),
            ("wire.encode_reply_4k_ns", 130.0),
            ("wire.decode_reply_4k_ns", 400.0),
            ("netpoll.echo_rtt_ns", 10_000.0),
            ("obs.counter_inc_ns", 5.0),
            ("obs.trace_push_ns", 5.0),
            ("cache.hint.lookup_ns", 1e9),
            ("wire.hint_batch_encode_ns_per_update", 1e9),
        ]
        .into_iter()
        .collect();
        let situ = Situ {
            local_share: 1.0,
            bytes_per_op: 128.0,
            client_reads_per_op: 0.1,
            cpu_us_per_op: 2.84,
            ..Situ::default()
        };
        let terms = terms(&iso, &situ);
        let total: f64 = terms.iter().map(|(_, ns)| ns).sum();
        // 100 + 200 + 50 + 30 + 400·(128/4096 → floor 0.05) + 1000 + 5 + 5
        assert!((total - 1410.0).abs() < 1e-9, "{total}");
        assert!((attributed_share(&terms, &situ) - 1410.0 / 2840.0).abs() < 1e-12);
        assert_eq!(attributed_share(&terms, &Situ::default()), 0.0);
    }
}
