//! The benchmark's catalogue — workloads, end-to-end metrics with their
//! bounds, per-layer metrics — and the table and result line each run
//! prints. `BENCHMARK.json` at the repo root states the same catalogue to
//! the driver; a test holds the two together.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Seconds one run measures (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 15;

/// Workload names with the reason each exists. Names are final: later
/// issues cite them.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "local_hit",
        "one node, 8,192 resident 128-byte objects, window 64, one CPU: codec, MD5, netpoll and LRU get do all the work; pool, hints, workers and origin do none",
    ),
    (
        "peer_hit",
        "node A misses, finds a hint and fetches 4 KiB from node B, window 16, one CPU: hint lookup, shard-to-worker handoff, pool checkout and the peer round trip dominate",
    ),
    (
        "origin_fill",
        "15 of 16 requests are compulsory misses, one CPU: origin fetch, insert + evict, two hint updates flushed to three neighbours; the write side of the cache and hint layers",
    ),
    (
        "trace_mix",
        "seeded synthetic trace over a 2-node mesh with 1-64 KiB bodies, one CPU: local, peer and origin service, false positives and evictions; the only workload where hit_ratio can move",
    ),
    (
        "sim_sweep",
        "five simulator cells over two small materialized traces, single thread, no socket: a mesh-side change must not move it and a simulator change must not move the rest",
    ),
];

/// Name, unit and direction of one metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// End-to-end metrics with the share of the parent's median by which each
/// may worsen before a change counts as a regression.
pub const END_TO_END: [(MetricDef, f64); 6] = [
    (def("setup_s", "s", "lower"), 0.25),
    (def("ops_per_s", "1/s", "higher"), 0.25),
    (def("cpu_us_per_op", "us", "lower"), 0.25),
    (def("lat_p50_us", "us", "lower"), 0.25),
    (def("peak_rss_mb", "MB", "lower"), 0.05),
    (def("hit_ratio", "ratio", "higher"), 0.05),
];

/// Per-layer metrics; layers are crate and module names. A row the
/// workload does not exercise reads 0.
pub const PER_LAYER: [MetricDef; 65] = [
    def("wire.encode_get_ns", "ns", "lower"),
    def("wire.decode_get_ns", "ns", "lower"),
    def("wire.encode_reply_128b_ns", "ns", "lower"),
    def("wire.encode_reply_4k_ns", "ns", "lower"),
    def("wire.decode_reply_4k_ns", "ns", "lower"),
    def("wire.hint_batch_encode_ns_per_update", "ns", "lower"),
    def("wire.hint_batch_decode_ns_per_update", "ns", "lower"),
    def("wire.hint_batch_tag_ns_per_update", "ns", "lower"),
    def("wire.coalesce_ns_per_update", "ns", "lower"),
    def("md5.url_key_ns", "ns", "lower"),
    def("netpoll.echo_rtt_ns", "ns", "lower"),
    def("netpoll.wake_ns", "ns", "lower"),
    def("netpoll.writev_batches_per_op", "1/op", "higher"),
    def("netpoll.wakeups_coalesced_per_op", "1/op", "higher"),
    def("cache.lru.get_ns", "ns", "lower"),
    def("cache.lru.insert_evict_ns", "ns", "lower"),
    def("cache.hint.lookup_ns", "ns", "lower"),
    def("cache.hint.insert_ns", "ns", "lower"),
    def("cache.hint.displacement_ratio", "ratio", "lower"),
    def("pool.request_rtt_us", "us", "lower"),
    def("pool.connect_us", "us", "lower"),
    def("pool.live_connections", "count", "lower"),
    def("pool.reconnect_attempts", "count", "lower"),
    def("node.spawn_ms", "ms", "lower"),
    def("node.service_us_mean", "us", "lower"),
    def("node.ctx_switches_per_op", "1/op", "lower"),
    def("node.invol_ctx_switches_per_op", "1/op", "lower"),
    def("node.sys_cpu_share", "ratio", "lower"),
    def("node.flush_us_per_update", "us", "lower"),
    def("node.updates_sent_per_op", "1/op", "lower"),
    def("node.updates_filtered_ratio", "ratio", "lower"),
    def("node.local_share", "ratio", "higher"),
    def("node.peer_share", "ratio", "higher"),
    def("node.origin_share", "ratio", "lower"),
    def("node.false_positive_ratio", "ratio", "lower"),
    def("node.bytes_per_op", "B", "lower"),
    def("node.hint_batch_overflow", "count", "lower"),
    def("node.admission_rejects", "count", "lower"),
    def("node.service_errors", "count", "lower"),
    def("origin.fetch_rtt_us", "us", "lower"),
    def("node.two_cpu_ops_per_s", "1/s", "higher"),
    def("client.cpu_us_per_op", "us", "lower"),
    def("client.lat_p99_us", "us", "lower"),
    def("client.unloaded_rtt_p50_us", "us", "lower"),
    def("obs.counter_inc_ns", "ns", "lower"),
    def("obs.histogram_observe_ns", "ns", "lower"),
    def("obs.trace_push_ns", "ns", "lower"),
    def("hintlog.append_ns_per_record", "ns", "lower"),
    def("hintlog.replay_ns_per_record", "ns", "lower"),
    def("trace.generate_rec_per_s", "1/s", "higher"),
    def("trace.replay_rec_per_s", "1/s", "higher"),
    def("trace.arena_bytes_per_rec", "B", "lower"),
    def("core.cell_rec_per_s.data_hierarchy", "1/s", "higher"),
    def("core.cell_rec_per_s.central_directory", "1/s", "higher"),
    def("core.cell_rec_per_s.hint_oracle", "1/s", "higher"),
    def("core.cell_rec_per_s.hint_delayed", "1/s", "higher"),
    def("core.cell_rec_per_s.hint_update_push", "1/s", "higher"),
    def("simcore.event_queue_ns_per_event", "ns", "lower"),
    def("simcore.queue_peak_depth", "count", "lower"),
    def("netmodel.cost_ns_per_access", "ns", "lower"),
    def("ledger.local_hit.attributed_share", "ratio", "higher"),
    def("ledger.peer_hit.attributed_share", "ratio", "higher"),
    def("ledger.origin_fill.attributed_share", "ratio", "higher"),
    def("ledger.trace_mix.attributed_share", "ratio", "higher"),
    def("bench.trace_overhead_ratio", "ratio", "lower"),
];

/// What one run of one workload found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted in the measured rounds.
    pub attempted: u64,
    /// Operations that failed: error reply, redirect, wrong body, or a
    /// lost connection.
    pub failed: u64,
    /// Metric values by catalogue name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines: outcome counts, sample counts, failed checks.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a failed output check.
    pub fn fail(&mut self, why: String) {
        self.correct = false;
        self.notes.push(format!("CHECK FAILED: {why}"));
    }
}

/// The metric definitions a run with this `--trace` value reports.
pub fn defs_for(traced: bool) -> Vec<MetricDef> {
    if traced {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.iter().map(|(m, _)| *m).collect()
    }
}

/// The last line of a run's standard output: one JSON object with
/// exactly `correct`, `attempted`, `failed` and `metrics`. A metric the
/// run did not compute reads 0.
pub fn result_line(outcome: &Outcome, traced: bool) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.correct, outcome.attempted, outcome.failed
    );
    for (i, m) in defs_for(traced).iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = outcome.metrics.get(m.name).copied().unwrap_or(0.0);
        let value = if value.is_finite() { value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// The human-readable block printed above the result line.
pub fn render_table(outcome: &Outcome, traced: bool) -> String {
    let mut out = String::new();
    for m in defs_for(traced) {
        let value = outcome.metrics.get(m.name).copied().unwrap_or(0.0);
        let _ = writeln!(
            out,
            "  {:<44} {:>16.4} {:<6} ({} is better)",
            m.name, value, m.unit, m.better
        );
    }
    let _ = writeln!(
        out,
        "  {:<44} {:>16}\n  {:<44} {:>16}",
        "ops_attempted", outcome.attempted, "ops_failed", outcome.failed
    );
    for note in &outcome.notes {
        let _ = writeln!(out, "  {note}");
    }
    out
}

/// Reads the metric values back out of a [`render_table`] block: every
/// line that is a name, a number and a unit.
pub fn table_values(table: &str) -> BTreeMap<String, f64> {
    table
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (name, value) = (fields.next()?, fields.next()?.parse().ok()?);
            Some((name.to_string(), value))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_states_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(on_disk.contains(&format!("\"run_seconds\": {RUN_SECONDS},")));
        for (name, why) in WORKLOADS {
            let entry = format!("{{\"name\": \"{name}\", \"why\": \"{why}\"}}");
            assert!(on_disk.contains(&entry), "{entry}");
        }
        for (m, bound) in END_TO_END {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {bound}}}",
                m.name, m.unit, m.better
            );
            assert!(on_disk.contains(&entry), "{entry}");
        }
        for m in PER_LAYER {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            );
            assert!(on_disk.contains(&entry), "{entry}");
        }
        // And nothing else: every entry of the file has exactly one name.
        let listed = WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len();
        assert_eq!(on_disk.matches("{\"name\": ").count(), listed);
    }

    #[test]
    fn catalogue_meets_the_contract_limits() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        names.extend(END_TO_END.iter().map(|(m, _)| m.name));
        names.extend(WORKLOADS.iter().map(|(n, _)| *n));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for n in names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
        for (m, bound) in END_TO_END {
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|(m, _)| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn result_line_has_every_metric_and_the_true_counts() {
        let mut outcome = Outcome {
            correct: true,
            attempted: 0,
            failed: 2,
            ..Outcome::default()
        };
        outcome.metrics.insert("ops_per_s", 1234.5678);
        outcome.metrics.insert("setup_s", f64::NAN);
        let line = result_line(&outcome, false);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 0, \"failed\": 2, \"metrics\": {")
        );
        assert!(line.contains("\"ops_per_s\": {\"value\": 1234.5678, \"unit\": \"1/s\"}"));
        assert!(line.contains("\"setup_s\": {\"value\": 0, \"unit\": \"s\"}"));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
        assert_eq!(
            result_line(&outcome, true).matches("\"value\"").count(),
            PER_LAYER.len()
        );
    }

    #[test]
    fn table_values_reads_back_the_metric_lines() {
        let mut outcome = Outcome::default();
        outcome.metrics.insert("ops_per_s", 1234.5678);
        outcome.metrics.insert("hit_ratio", 0.25);
        outcome.notes.push("digest abc matches file".into());
        let values = table_values(&render_table(&outcome, false));
        assert_eq!(values["ops_per_s"], 1234.5678);
        assert_eq!(values["hit_ratio"], 0.25);
        assert_eq!(values["ops_attempted"], 0.0);
        assert!(!values.contains_key("digest"));
    }
}
