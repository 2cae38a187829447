//! Reproductions of every simulation experiment in the paper's evaluation.
//!
//! Each function regenerates one table or figure and returns a serializable
//! result; the `bh-bench` experiment suite (`all`) prints them in the
//! paper's format and archives them as JSON. See `DESIGN.md` §3 for the index.

use crate::metrics::Metrics;

use crate::sim::{SimConfig, SimReport, Simulator};
use crate::strategies::{HintConfig, HintHierarchy, StrategyKind};
use crate::topology::Topology;
use bh_cache::{ClassRates, ClassifyingCache};
use bh_netmodel::CostModel;
use bh_simcore::{ByteSize, SimDuration};
use bh_trace::{MaterializedTrace, TraceCache, WorkloadSpec};
use serde::{Deserialize, Serialize};

/// Serializes a sweep-axis value: finite numbers as floats, the
/// unlimited/infinite point as the string `"inf"` (JSON has no infinity).
fn axis_value(x: f64) -> serde::Value {
    if x.is_finite() {
        serde::Value::Float(x)
    } else {
        serde::Value::Str("inf".to_string())
    }
}

/// Inverse of [`axis_value`].
fn axis_from(v: &serde::Value) -> Result<f64, serde::DeError> {
    match v {
        serde::Value::Str(s) if s == "inf" => Ok(f64::INFINITY),
        other => f64::deserialize(other),
    }
}

/// Figure 2: per-read and per-byte miss-class breakdown for a single global
/// shared cache, as a function of cache size.
#[derive(Debug, Clone)]
pub struct MissBreakdownPoint {
    /// Cache size in GB (f64::INFINITY for the unlimited point).
    pub cache_gb: f64,
    /// Per-read rate of each class (fractions of all requests).
    pub read_rates: ClassRates,
    /// Per-byte rate of each class.
    pub byte_rates: ClassRates,
    /// Total per-read miss ratio.
    pub total_miss_ratio: f64,
}

impl Serialize for MissBreakdownPoint {
    fn serialize(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("cache_gb".to_string(), axis_value(self.cache_gb)),
            ("read_rates".to_string(), self.read_rates.serialize()),
            ("byte_rates".to_string(), self.byte_rates.serialize()),
            (
                "total_miss_ratio".to_string(),
                self.total_miss_ratio.serialize(),
            ),
        ])
    }
}

impl Deserialize for MissBreakdownPoint {
    fn deserialize(v: &serde::Value) -> Result<Self, serde::DeError> {
        let ty = "MissBreakdownPoint";
        Ok(MissBreakdownPoint {
            cache_gb: axis_from(serde::field(v, ty, "cache_gb")?)?,
            read_rates: ClassRates::deserialize(serde::field(v, ty, "read_rates")?)?,
            byte_rates: ClassRates::deserialize(serde::field(v, ty, "byte_rates")?)?,
            total_miss_ratio: f64::deserialize(serde::field(v, ty, "total_miss_ratio")?)?,
        })
    }
}

/// Runs the Figure 2 sweep for one workload.
///
/// `sizes_gb` lists the x-axis points; warm-up follows the paper (the
/// counters reset after `warmup_fraction` of requests so the breakdown
/// reflects steady state). The trace comes from the process-wide
/// [`TraceCache`].
pub fn miss_breakdown(
    spec: &WorkloadSpec,
    seed: u64,
    sizes_gb: &[f64],
    warmup_fraction: f64,
) -> Vec<MissBreakdownPoint> {
    let trace = TraceCache::get(spec, seed);
    sizes_gb
        .iter()
        .map(|&gb| miss_breakdown_point(&trace, gb, warmup_fraction))
        .collect()
}

/// One Figure 2 point: the breakdown at a single cache size, replayed from
/// a materialized trace.
pub fn miss_breakdown_point(
    trace: &MaterializedTrace,
    size_gb: f64,
    warmup_fraction: f64,
) -> MissBreakdownPoint {
    let capacity = if size_gb.is_finite() {
        ByteSize::from_mb((size_gb * 1024.0) as u64)
    } else {
        ByteSize::MAX
    };
    let mut cache = ClassifyingCache::new(capacity);
    let warmup_until = (trace.spec().requests as f64 * warmup_fraction) as u64;
    for (i, r) in trace.iter().enumerate() {
        if i as u64 == warmup_until {
            cache.reset_counters();
        }
        match r.class {
            bh_trace::RequestClass::Error => {
                cache.access_error(r.size);
            }
            bh_trace::RequestClass::Uncachable => {
                cache.access(r.object.key(), r.size, r.version, false);
            }
            bh_trace::RequestClass::Cacheable => {
                cache.access(r.object.key(), r.size, r.version, true);
            }
        }
    }
    MissBreakdownPoint {
        cache_gb: size_gb,
        read_rates: cache.rates(),
        byte_rates: cache.byte_rates(),
        total_miss_ratio: cache.miss_ratio(),
    }
}

/// Figure 3: cumulative hit and byte-hit ratios at each level of an
/// infinite three-level hierarchy.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SharingResult {
    /// Workload name.
    pub workload: String,
    /// Cumulative request hit ratio at L1 / L2 / L3.
    pub hit_ratio: [f64; 3],
    /// Cumulative byte hit ratio at L1 / L2 / L3.
    pub byte_hit_ratio: [f64; 3],
}

/// Runs the Figure 3 experiment for one workload (trace via the
/// process-wide [`TraceCache`]).
pub fn sharing(spec: &WorkloadSpec, seed: u64) -> SharingResult {
    sharing_trace(&TraceCache::get(spec, seed))
}

/// [`sharing`] over an already-materialized trace.
pub fn sharing_trace(trace: &MaterializedTrace) -> SharingResult {
    let spec = trace.spec();
    let sim = Simulator::new(SimConfig::infinite(spec));
    let tb = bh_netmodel::TestbedModel::new();
    let models: Vec<&dyn CostModel> = vec![&tb];
    let r = sim.run_trace(trace, StrategyKind::DataHierarchy, &models);
    let m = &r.metrics;
    let total = m.cacheable.max(1) as f64;
    let total_bytes = m.total_bytes.max(1) as f64;
    let l1 = m.l1_hits as f64;
    let l2 = l1 + m.l2_hits as f64;
    let l3 = l2 + m.l3_hits as f64;
    let b1 = m.l1_hit_bytes as f64;
    let b2 = b1 + m.l2_hit_bytes as f64;
    let b3 = b2 + m.l3_hit_bytes as f64;
    SharingResult {
        workload: spec.name.to_string(),
        hit_ratio: [l1 / total, l2 / total, l3 / total],
        byte_hit_ratio: [b1 / total_bytes, b2 / total_bytes, b3 / total_bytes],
    }
}

/// One point of the Figure 5 (hint-cache size) or Figure 6 (propagation
/// delay) sweeps.
#[derive(Debug, Clone)]
pub struct HintSweepPoint {
    /// The swept value (MB for Figure 5, minutes for Figure 6;
    /// f64::INFINITY for the unbounded / zero-delay reference).
    pub x: f64,
    /// Global hit ratio achieved.
    pub hit_ratio: f64,
    /// Remote (peer) hits as a fraction of cacheable requests.
    pub remote_hit_fraction: f64,
    /// False-positive probes per cacheable request.
    pub false_positive_rate: f64,
}

impl Serialize for HintSweepPoint {
    fn serialize(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("x".to_string(), axis_value(self.x)),
            ("hit_ratio".to_string(), self.hit_ratio.serialize()),
            (
                "remote_hit_fraction".to_string(),
                self.remote_hit_fraction.serialize(),
            ),
            (
                "false_positive_rate".to_string(),
                self.false_positive_rate.serialize(),
            ),
        ])
    }
}

impl Deserialize for HintSweepPoint {
    fn deserialize(v: &serde::Value) -> Result<Self, serde::DeError> {
        let ty = "HintSweepPoint";
        Ok(HintSweepPoint {
            x: axis_from(serde::field(v, ty, "x")?)?,
            hit_ratio: f64::deserialize(serde::field(v, ty, "hit_ratio")?)?,
            remote_hit_fraction: f64::deserialize(serde::field(v, ty, "remote_hit_fraction")?)?,
            false_positive_rate: f64::deserialize(serde::field(v, ty, "false_positive_rate")?)?,
        })
    }
}

fn run_hint_config(trace: &MaterializedTrace, config: HintConfig) -> Metrics {
    let sim = Simulator::new(SimConfig {
        space: crate::space::SpaceConfig::infinite(),
        hint_delay: config.delay,
        warmup_fraction: 0.10,
    });
    let topo = Topology::from_spec(trace.spec());
    let mut strategy = HintHierarchy::new(topo, config, trace.seed());
    let tb = bh_netmodel::TestbedModel::new();
    let models: Vec<&dyn CostModel> = vec![&tb];
    sim.run_with_trace(trace, &mut strategy, &models, false)
        .metrics
}

/// Figure 5: hit rate vs hint-cache size (16-byte records, 4-way sets).
/// The trace comes from the process-wide [`TraceCache`].
pub fn hint_size_sweep(spec: &WorkloadSpec, seed: u64, sizes_mb: &[f64]) -> Vec<HintSweepPoint> {
    let trace = TraceCache::get(spec, seed);
    sizes_mb
        .iter()
        .map(|&mb| hint_size_point(&trace, mb))
        .collect()
}

/// One Figure 5 point at the given hint-store size (MB).
pub fn hint_size_point(trace: &MaterializedTrace, size_mb: f64) -> HintSweepPoint {
    let store = if size_mb.is_finite() {
        ByteSize::from_mb_f64(size_mb)
    } else {
        ByteSize::MAX
    };
    let m = run_hint_config(
        trace,
        HintConfig {
            store_capacity: store,
            ..HintConfig::default()
        },
    );
    sweep_point(size_mb, &m)
}

/// Figure 6: hit rate vs hint propagation delay in minutes.
/// The trace comes from the process-wide [`TraceCache`].
pub fn hint_delay_sweep(spec: &WorkloadSpec, seed: u64, delays_min: &[f64]) -> Vec<HintSweepPoint> {
    let trace = TraceCache::get(spec, seed);
    delays_min
        .iter()
        .map(|&mins| hint_delay_point(&trace, mins))
        .collect()
}

/// One Figure 6 point at the given propagation delay (minutes).
pub fn hint_delay_point(trace: &MaterializedTrace, delay_min: f64) -> HintSweepPoint {
    // A real (non-oracle) store is required for delay to matter. Size it to
    // comfortably index every distinct object the workload will create
    // (4× slack over the expected distinct count at 16 B/record), so
    // capacity never confounds the delay effect. The hint bank allocates
    // a row only for a set some hint reached, so the slack costs 4 bytes
    // of set index per set and no record memory.
    let spec = trace.spec();
    let distinct = (spec.requests as f64 * spec.p_new).max(1024.0);
    let store = ByteSize::from_bytes((distinct * 16.0 * 4.0) as u64);
    let m = run_hint_config(
        trace,
        HintConfig {
            delay: SimDuration::from_secs_f64(delay_min * 60.0),
            store_capacity: if delay_min == 0.0 {
                ByteSize::MAX
            } else {
                store
            },
            ..HintConfig::default()
        },
    );
    sweep_point(delay_min, &m)
}

fn sweep_point(x: f64, m: &Metrics) -> HintSweepPoint {
    let cacheable = m.cacheable.max(1) as f64;
    HintSweepPoint {
        x,
        hit_ratio: m.hit_ratio(),
        remote_hit_fraction: (m.remote_hits_l2 + m.remote_hits_l3) as f64 / cacheable,
        false_positive_rate: m.false_positives as f64 / cacheable,
    }
}

/// Table 5: average location-hint update load at the root.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct UpdateLoadResult {
    /// Updates/second a centralized directory receives.
    pub centralized_rate: f64,
    /// Updates/second the filtering hierarchy's root receives.
    pub hierarchy_rate: f64,
}

/// Runs the Table 5 comparison (no warm-up: load is averaged over the whole
/// trace, as in the paper). The trace comes from the process-wide
/// [`TraceCache`].
pub fn update_load(spec: &WorkloadSpec, seed: u64) -> UpdateLoadResult {
    update_load_trace(&TraceCache::get(spec, seed))
}

/// [`update_load`] over an already-materialized trace.
pub fn update_load_trace(trace: &MaterializedTrace) -> UpdateLoadResult {
    let sim = Simulator::new(SimConfig::infinite(trace.spec()).with_warmup(0.0));
    let tb = bh_netmodel::TestbedModel::new();
    let models: Vec<&dyn CostModel> = vec![&tb];
    let r = sim.run_trace(trace, StrategyKind::HintHierarchy, &models);
    UpdateLoadResult {
        centralized_rate: r.metrics.directory_update_rate(),
        hierarchy_rate: r.metrics.root_update_rate(),
    }
}

/// Figure 8 / Table 6: the response-time comparison matrix.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResponseTimeResult {
    /// Workload name.
    pub workload: String,
    /// True for Figure 8(b)'s space-constrained arrangement.
    pub space_constrained: bool,
    /// `(strategy label, model name, mean response ms)` for every cell.
    pub cells: Vec<(String, String, f64)>,
}

impl ResponseTimeResult {
    /// The mean response time for `(strategy, model)`, if present.
    pub fn cell(&self, strategy: &str, model: &str) -> Option<f64> {
        self.cells
            .iter()
            .find(|(s, m, _)| s == strategy && m == model)
            .map(|(_, _, v)| *v)
    }

    /// Table 6's ratio: hierarchy response time / hint response time.
    pub fn speedup(&self, model: &str) -> Option<f64> {
        Some(self.cell("Hierarchy", model)? / self.cell("Hints", model)?)
    }
}

/// The three strategies compared in every Figure 8 panel.
pub const FIGURE8_KINDS: [StrategyKind; 3] = [
    StrategyKind::DataHierarchy,
    StrategyKind::CentralDirectory,
    StrategyKind::HintHierarchy,
];

/// Runs Figure 8 for one workload and space regime across the three
/// standard strategies. The trace comes from the process-wide
/// [`TraceCache`].
pub fn response_time_matrix(
    spec: &WorkloadSpec,
    seed: u64,
    constrained: bool,
    models: &[&dyn CostModel],
) -> ResponseTimeResult {
    response_time_matrix_trace(&TraceCache::get(spec, seed), constrained, models)
}

/// [`response_time_matrix`] over an already-materialized trace.
pub fn response_time_matrix_trace(
    trace: &MaterializedTrace,
    constrained: bool,
    models: &[&dyn CostModel],
) -> ResponseTimeResult {
    let cells = FIGURE8_KINDS
        .iter()
        .flat_map(|&kind| response_time_cells(trace, constrained, kind, models))
        .collect();
    ResponseTimeResult {
        workload: trace.spec().name.to_string(),
        space_constrained: constrained,
        cells,
    }
}

/// One strategy's row of the Figure 8 matrix:
/// `(strategy label, model name, mean response ms)` per model — the unit of
/// parallelism for the suite scheduler.
pub fn response_time_cells(
    trace: &MaterializedTrace,
    constrained: bool,
    kind: StrategyKind,
    models: &[&dyn CostModel],
) -> Vec<(String, String, f64)> {
    let spec = trace.spec();
    let config = if constrained {
        SimConfig::constrained(spec)
    } else {
        SimConfig::infinite(spec)
    };
    let r = Simulator::new(config).run_trace(trace, kind, models);
    r.metrics
        .response
        .iter()
        .map(|(name, stats)| (kind.label().to_string(), name.clone(), stats.mean()))
        .collect()
}

/// Figures 10 & 11: the push-algorithm comparison (response time,
/// efficiency, bandwidth) on a space-constrained configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PushComparisonRow {
    /// Strategy label (Figure 10's bar names).
    pub strategy: String,
    /// `(model name, mean response ms)`.
    pub response_ms: Vec<(String, f64)>,
    /// Fraction of pushed bytes later used (Figure 11a).
    pub efficiency: f64,
    /// Push bandwidth, KB/s (Figure 11b).
    pub push_bw_kbps: f64,
    /// Demand bandwidth, KB/s (Figure 11b).
    pub demand_bw_kbps: f64,
    /// Local-hit fraction of cacheable requests.
    pub l1_hit_fraction: f64,
}

/// Runs the Figure 10/11 experiment for one workload. The trace comes from
/// the process-wide [`TraceCache`].
pub fn push_comparison(
    spec: &WorkloadSpec,
    seed: u64,
    models: &[&dyn CostModel],
) -> Vec<PushComparisonRow> {
    let trace = TraceCache::get(spec, seed);
    StrategyKind::FIGURE10
        .iter()
        .map(|&kind| push_row(&trace, kind, models))
        .collect()
}

/// One Figure 10/11 row: a single push strategy on the space-constrained
/// configuration — the unit of parallelism for the suite scheduler.
pub fn push_row(
    trace: &MaterializedTrace,
    kind: StrategyKind,
    models: &[&dyn CostModel],
) -> PushComparisonRow {
    let sim = Simulator::new(SimConfig::constrained(trace.spec()));
    let r: SimReport = sim.run_trace(trace, kind, models);
    let m = &r.metrics;
    PushComparisonRow {
        strategy: kind.label().to_string(),
        response_ms: m
            .response
            .iter()
            .map(|(n, s)| (n.clone(), s.mean()))
            .collect(),
        efficiency: m.push_efficiency(),
        push_bw_kbps: m.push_bandwidth_kbps(),
        demand_bw_kbps: m.demand_bandwidth_kbps(),
        l1_hit_fraction: if m.cacheable == 0 {
            0.0
        } else {
            m.l1_hits as f64 / m.cacheable as f64
        },
    }
}

/// §3.3's configuration comparison: proxy-level hints (Figure 4-a) vs
/// client-level hints (Figure 4-b), priced by skipping the L1 leg.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HintPlacementResult {
    /// Mean response via the proxy configuration, per model.
    pub proxy_ms: Vec<(String, f64)>,
    /// Mean response via the client configuration, per model.
    pub client_ms: Vec<(String, f64)>,
}

/// Runs the proxy-vs-client hint placement comparison.
pub fn hint_placement(
    spec: &WorkloadSpec,
    seed: u64,
    models: &[&dyn CostModel],
) -> HintPlacementResult {
    let trace = TraceCache::get(spec, seed);
    let sim = Simulator::new(SimConfig::infinite(spec));
    let proxy = sim.run_trace(&trace, StrategyKind::HintHierarchy, models);
    // Same outcome stream, client-direct pricing.
    let client_models: Vec<ClientDirect<'_>> = models.iter().map(|m| ClientDirect(*m)).collect();
    let client_refs: Vec<&dyn CostModel> =
        client_models.iter().map(|m| m as &dyn CostModel).collect();
    let client = sim.run_trace(&trace, StrategyKind::HintHierarchy, &client_refs);
    HintPlacementResult {
        proxy_ms: proxy
            .metrics
            .response
            .iter()
            .map(|(n, s)| (n.clone(), s.mean()))
            .collect(),
        client_ms: client
            .metrics
            .response
            .iter()
            .map(|(n, s)| (n.clone(), s.mean()))
            .collect(),
    }
}

/// A cost-model adapter that prices remote and server fetches from the
/// client (Figure 4-b), skipping the L1 proxy leg.
#[derive(Clone, Copy)]
pub struct ClientDirect<'a>(pub &'a dyn CostModel);

impl std::fmt::Debug for ClientDirect<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ClientDirect({})", self.0.name())
    }
}

impl CostModel for ClientDirect<'_> {
    fn hierarchy_hit(&self, level: bh_netmodel::Level, size: ByteSize) -> SimDuration {
        self.0.hierarchy_hit(level, size)
    }
    fn hierarchy_miss(&self, size: ByteSize) -> SimDuration {
        self.0.hierarchy_miss(size)
    }
    fn remote_fetch(&self, d: bh_netmodel::RemoteDistance, size: ByteSize) -> SimDuration {
        self.0.remote_fetch_from_client(d, size)
    }
    fn server_fetch(&self, size: ByteSize) -> SimDuration {
        self.0.server_fetch_from_client(size)
    }
    fn false_positive_penalty(&self, d: bh_netmodel::RemoteDistance) -> SimDuration {
        self.0.false_positive_penalty(d)
    }
    fn directory_lookup(&self) -> SimDuration {
        self.0.directory_lookup()
    }
    fn name(&self) -> &str {
        self.0.name()
    }
}

/// Ablation: hierarchical filtering on/off — what the root would see if
/// every update were forwarded (Table 5 companion).
pub use self::update_load as table5;

/// §3.3's client-hint trade-off: response time of the client-level
/// configuration as a function of its false-negative rate, against the
/// proxy-level baseline. The paper's claim: the alternate configuration
/// wins while the false-negative rate stays below ~50%.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClientHintTradeoff {
    /// Proxy-configuration mean response per model.
    pub proxy_ms: Vec<(String, f64)>,
    /// `(false_negative_rate, per-model mean response)` for the client
    /// configuration.
    pub client_points: Vec<(f64, Vec<(String, f64)>)>,
}

impl ClientHintTradeoff {
    /// The largest swept false-negative rate at which the client
    /// configuration still beats the proxy configuration under `model`.
    pub fn crossover_fn_rate(&self, model: &str) -> Option<f64> {
        let proxy = self.proxy_ms.iter().find(|(n, _)| n == model)?.1;
        self.client_points
            .iter()
            .filter(|(_, ms)| {
                ms.iter()
                    .find(|(n, _)| n == model)
                    .is_some_and(|(_, v)| *v < proxy)
            })
            .map(|(fnr, _)| *fnr)
            .fold(None, |acc, x| Some(acc.map_or(x, |a: f64| a.max(x))))
    }
}

/// Runs the §3.3 client-hint sweep.
pub fn client_hint_tradeoff(
    spec: &WorkloadSpec,
    seed: u64,
    fn_rates: &[f64],
    models: &[&dyn CostModel],
) -> ClientHintTradeoff {
    use crate::strategies::{ClientHintConfig, ClientHints};
    let trace = TraceCache::get(spec, seed);
    let sim = Simulator::new(SimConfig::infinite(spec));
    let proxy = sim.run_trace(&trace, StrategyKind::HintHierarchy, models);
    let client_models: Vec<ClientDirect<'_>> = models.iter().map(|m| ClientDirect(*m)).collect();
    let client_refs: Vec<&dyn CostModel> =
        client_models.iter().map(|m| m as &dyn CostModel).collect();
    let client_points = fn_rates
        .iter()
        .map(|&fnr| {
            let topo = Topology::from_spec(spec);
            let mut strategy = ClientHints::new(
                topo,
                ClientHintConfig {
                    false_negative_rate: fnr,
                    ..ClientHintConfig::default()
                },
            );
            let r = sim.run_with_trace(&trace, &mut strategy, &client_refs, false);
            (
                fnr,
                r.metrics
                    .response
                    .iter()
                    .map(|(n, s)| (n.clone(), s.mean()))
                    .collect(),
            )
        })
        .collect();
    ClientHintTradeoff {
        proxy_ms: proxy
            .metrics
            .response
            .iter()
            .map(|(n, s)| (n.clone(), s.mean()))
            .collect(),
        client_points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bh_netmodel::TestbedModel;

    fn spec() -> WorkloadSpec {
        WorkloadSpec::small().with_requests(5_000)
    }

    #[test]
    fn miss_breakdown_rates_sum_to_one_and_capacity_shrinks_with_size() {
        let pts = miss_breakdown(&spec(), 3, &[0.01, f64::INFINITY], 0.1);
        assert_eq!(pts.len(), 2);
        for p in &pts {
            let sum = p.read_rates.sum();
            assert!((sum - 1.0).abs() < 1e-9, "read rates sum {sum}");
        }
        let cap = |p: &MissBreakdownPoint| p.read_rates.get(bh_cache::MissClass::Capacity);
        assert!(cap(&pts[0]) >= cap(&pts[1]));
        assert_eq!(cap(&pts[1]), 0.0, "infinite cache has no capacity misses");
    }

    #[test]
    fn sharing_monotone_up_the_hierarchy() {
        let s = sharing(&spec(), 3);
        assert!(s.hit_ratio[0] <= s.hit_ratio[1]);
        assert!(s.hit_ratio[1] <= s.hit_ratio[2]);
        assert!(s.byte_hit_ratio[0] <= s.byte_hit_ratio[2]);
        assert!(
            s.hit_ratio[2] > 0.2,
            "L3 should capture substantial sharing"
        );
    }

    #[test]
    fn hint_size_sweep_monotone() {
        let pts = hint_size_sweep(&spec(), 3, &[0.001, 0.1, f64::INFINITY]);
        assert!(pts[0].hit_ratio <= pts[1].hit_ratio + 0.02);
        assert!(pts[1].hit_ratio <= pts[2].hit_ratio + 0.02);
        assert!(pts[2].remote_hit_fraction > 0.0);
    }

    #[test]
    fn hint_delay_sweep_degrades() {
        let pts = hint_delay_sweep(&spec(), 3, &[0.0, 1000.0]);
        assert!(
            pts[1].hit_ratio <= pts[0].hit_ratio + 0.01,
            "huge delay should not improve hit rate: {} vs {}",
            pts[1].hit_ratio,
            pts[0].hit_ratio
        );
    }

    #[test]
    fn update_load_hierarchy_filters() {
        let r = update_load(&spec(), 3);
        assert!(r.centralized_rate > r.hierarchy_rate, "{r:?}");
    }

    #[test]
    fn response_matrix_has_speedup() {
        let tb = TestbedModel::new();
        let models: Vec<&dyn CostModel> = vec![&tb];
        let r = response_time_matrix(&spec(), 3, false, &models);
        let speedup = r.speedup("Testbed").expect("cells present");
        assert!(speedup > 1.0, "hints should win, speedup {speedup}");
    }

    #[test]
    fn push_comparison_rows_complete() {
        let tb = TestbedModel::new();
        let models: Vec<&dyn CostModel> = vec![&tb];
        let rows = push_comparison(&spec(), 3, &models);
        assert_eq!(rows.len(), 7);
        let ideal = rows.iter().find(|r| r.strategy == "Push-ideal").unwrap();
        let hints = rows.iter().find(|r| r.strategy == "Hints").unwrap();
        let r = |row: &PushComparisonRow| row.response_ms[0].1;
        assert!(r(ideal) <= r(hints) + 1e-9, "ideal must lower-bound hints");
        let push_all = rows.iter().find(|r| r.strategy == "Push-all").unwrap();
        assert!(push_all.push_bw_kbps > 0.0);
        assert!(push_all.l1_hit_fraction >= hints.l1_hit_fraction);
    }

    #[test]
    fn client_placement_cheaper() {
        let tb = TestbedModel::new();
        let models: Vec<&dyn CostModel> = vec![&tb];
        let r = hint_placement(&spec(), 3, &models);
        assert!(r.client_ms[0].1 <= r.proxy_ms[0].1);
    }

    #[test]
    fn client_hint_tradeoff_crosses_over() {
        let tb = TestbedModel::new();
        let models: Vec<&dyn CostModel> = vec![&tb];
        let r = client_hint_tradeoff(&spec(), 3, &[0.0, 0.25, 0.5, 0.75, 1.0], &models);
        // Perfect client hints must beat the proxy config; hopeless client
        // hints must lose to it.
        let ms = |i: usize| r.client_points[i].1[0].1;
        let proxy = r.proxy_ms[0].1;
        assert!(
            ms(0) < proxy,
            "fnr=0 client {:.0} vs proxy {:.0}",
            ms(0),
            proxy
        );
        assert!(
            ms(4) > proxy,
            "fnr=1 client {:.0} vs proxy {:.0}",
            ms(4),
            proxy
        );
        // Response time must rise with the false-negative rate.
        assert!(ms(0) < ms(2) && ms(2) < ms(4));
        // Some operating point must favor the client configuration (the
        // paper's crossover is ~50% on DEC; the exact point is workload-
        // dependent — the shape is what must hold).
        let crossover = r.crossover_fn_rate("Testbed").expect("fnr=0 must win");
        assert!(crossover >= 0.0);
    }
}
