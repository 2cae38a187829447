//! The trace-driven simulation driver.
//!
//! [`Simulator::run`] streams a workload through a strategy and prices each
//! request's [`AccessPath`] under every supplied cost model at once — the
//! outcome stream is model-independent, so one pass yields the Testbed /
//! Min / Max groups of Figure 8 together.
//!
//! Following §2.2.1/§2.2.2: the first part of the trace warms the caches
//! without being measured, and uncachable/error requests are excluded from
//! hit-rate and response-time statistics (they are counted, but they never
//! touch cache state).

use crate::metrics::Metrics;

use crate::space::SpaceConfig;
use crate::strategies::{RequestCtx, Strategy, StrategyKind};
use crate::topology::Topology;
use bh_netmodel::CostModel;
use bh_simcore::SimDuration;
use bh_trace::{MaterializedTrace, TraceCache, TraceRecord, WorkloadSpec};
use serde::{Deserialize, Serialize};

/// Simulation parameters independent of the strategy.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Disk-space regime.
    pub space: SpaceConfig,
    /// Hint-propagation delay (hint strategies only; Figure 6).
    pub hint_delay: SimDuration,
    /// Fraction of requests used to warm caches before measuring
    /// (the paper uses the first 2 of 21 days ≈ 10%).
    pub warmup_fraction: f64,
}

impl SimConfig {
    /// Infinite disk everywhere (Figure 8a).
    pub fn infinite(_spec: &WorkloadSpec) -> Self {
        SimConfig {
            space: SpaceConfig::infinite(),
            hint_delay: SimDuration::ZERO,
            warmup_fraction: 0.10,
        }
    }

    /// The space-constrained regime (Figure 8b), scaled to the workload so
    /// eviction pressure matches a full-size run.
    pub fn constrained(spec: &WorkloadSpec) -> Self {
        SimConfig {
            space: SpaceConfig::constrained_scaled(spec),
            hint_delay: SimDuration::ZERO,
            warmup_fraction: 0.10,
        }
    }

    /// Overrides the hint-propagation delay.
    pub fn with_hint_delay(mut self, delay: SimDuration) -> Self {
        self.hint_delay = delay;
        self
    }

    /// Overrides the warm-up fraction.
    ///
    /// # Panics
    ///
    /// Panics if `f` is not in `[0, 1)`.
    pub fn with_warmup(mut self, f: f64) -> Self {
        assert!((0.0..1.0).contains(&f), "warmup fraction {f} out of [0,1)");
        self.warmup_fraction = f;
        self
    }
}

/// The result of one simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimReport {
    /// Strategy label (Figure legend name).
    pub strategy: String,
    /// Workload name.
    pub workload: String,
    /// Collected metrics.
    pub metrics: Metrics,
}

impl SimReport {
    /// Mean response time under the model named `name`, in ms.
    pub fn mean_response_ms(&self, name: &str) -> Option<f64> {
        self.metrics.mean_response_ms(name)
    }
}

/// Drives strategies over workloads. Stateless apart from its config, so
/// one simulator can run many configurations.
#[derive(Debug, Clone, Copy)]
pub struct Simulator {
    config: SimConfig,
}

impl Simulator {
    /// Creates a simulator with the given config.
    pub fn new(config: SimConfig) -> Self {
        Simulator { config }
    }

    /// The configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Runs `kind` over the workload, pricing under all `models`.
    ///
    /// The trace is obtained through the process-wide [`TraceCache`], so
    /// repeated runs over the same `(spec, seed)` — every multi-strategy
    /// figure — generate it only once.
    pub fn run(
        &self,
        spec: &WorkloadSpec,
        seed: u64,
        kind: StrategyKind,
        models: &[&dyn CostModel],
    ) -> SimReport {
        self.run_trace(&TraceCache::get(spec, seed), kind, models)
    }

    /// Runs `kind` over an already-materialized trace arena.
    pub fn run_trace(
        &self,
        trace: &MaterializedTrace,
        kind: StrategyKind,
        models: &[&dyn CostModel],
    ) -> SimReport {
        let mut strategy = kind.build(
            Topology::from_spec(trace.spec()),
            &self.config.space,
            self.config.hint_delay,
            trace.seed(),
        );
        let report = self.run_with_trace(trace, strategy.as_mut(), models, kind.idealized());
        SimReport {
            strategy: kind.label().to_string(),
            ..report
        }
    }

    /// Runs a caller-constructed strategy (for custom configurations, e.g.
    /// hint-size sweeps). Uses the process-wide [`TraceCache`].
    pub fn run_with(
        &self,
        spec: &WorkloadSpec,
        seed: u64,
        strategy: &mut dyn Strategy,
        models: &[&dyn CostModel],
        idealize: bool,
    ) -> SimReport {
        self.run_with_trace(&TraceCache::get(spec, seed), strategy, models, idealize)
    }

    /// [`Simulator::run_with`] over an already-materialized trace arena —
    /// the replay loop every other entry point funnels into.
    pub fn run_with_trace(
        &self,
        trace: &MaterializedTrace,
        strategy: &mut dyn Strategy,
        models: &[&dyn CostModel],
        idealize: bool,
    ) -> SimReport {
        let spec = trace.spec();
        let topo = Topology::from_spec(spec);
        let names: Vec<&str> = models.iter().map(|m| m.name()).collect();
        let mut metrics = Metrics::new(&names);
        let warmup_until = (spec.requests as f64 * self.config.warmup_fraction) as u64;

        for (i, record) in trace.iter().enumerate() {
            let measured = i as u64 >= warmup_until;
            self.step(
                &topo,
                spec,
                strategy,
                &record,
                measured,
                models,
                idealize,
                &mut metrics,
            );
        }
        strategy.finalize(&mut metrics);
        SimReport {
            strategy: strategy.name().to_string(),
            workload: spec.name.to_string(),
            metrics,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn step(
        &self,
        topo: &Topology,
        spec: &WorkloadSpec,
        strategy: &mut dyn Strategy,
        record: &TraceRecord,
        measured: bool,
        models: &[&dyn CostModel],
        idealize: bool,
        metrics: &mut Metrics,
    ) {
        let _ = spec;
        if !measured {
            metrics.warmup_skipped += 1;
        }
        if !record.is_cacheable() {
            // Uncachable and error requests bypass the caches entirely and
            // are excluded from the measured statistics (§2.2.2).
            if measured {
                metrics.requests += 1;
                match record.class {
                    bh_trace::RequestClass::Uncachable => metrics.uncachable += 1,
                    bh_trace::RequestClass::Error => metrics.errors += 1,
                    bh_trace::RequestClass::Cacheable => unreachable!(),
                }
            }
            return;
        }
        let ctx = RequestCtx {
            time: record.time,
            client: record.client,
            l1: topo.l1_of(record.client),
            key: record.object.key(),
            size: record.size,
            version: record.version,
        };
        let mut path = strategy.on_request(&ctx);
        if idealize {
            path = path.idealized();
        }
        if measured {
            metrics.record(path, record.size, record.time);
            for (idx, model) in models.iter().enumerate() {
                metrics.record_response(idx, path.price(*model, record.size).as_millis_f64());
            }
        }
    }
}

/// Convenience: run every kind in `kinds` over the same workload/config.
/// The trace is materialized once (via the [`TraceCache`]) and replayed per
/// strategy.
pub fn run_matrix(
    config: SimConfig,
    spec: &WorkloadSpec,
    seed: u64,
    kinds: &[StrategyKind],
    models: &[&dyn CostModel],
) -> Vec<SimReport> {
    run_matrix_trace(config, &TraceCache::get(spec, seed), kinds, models)
}

/// [`run_matrix`] over an already-materialized trace arena.
pub fn run_matrix_trace(
    config: SimConfig,
    trace: &MaterializedTrace,
    kinds: &[StrategyKind],
    models: &[&dyn CostModel],
) -> Vec<SimReport> {
    let sim = Simulator::new(config);
    kinds
        .iter()
        .map(|&k| sim.run_trace(trace, k, models))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bh_netmodel::{RousskovModel, TestbedModel};

    fn spec() -> WorkloadSpec {
        WorkloadSpec::small().with_requests(6_000)
    }

    fn models() -> (TestbedModel, RousskovModel, RousskovModel) {
        (
            TestbedModel::new(),
            RousskovModel::min(),
            RousskovModel::max(),
        )
    }

    #[test]
    fn runs_every_strategy_and_prices_all_models() {
        let (tb, min, max) = models();
        let models: Vec<&dyn CostModel> = vec![&tb, &min, &max];
        let sim = Simulator::new(SimConfig::infinite(&spec()));
        for kind in [
            StrategyKind::DataHierarchy,
            StrategyKind::CentralDirectory,
            StrategyKind::HintHierarchy,
            StrategyKind::HintIdealPush,
        ] {
            let r = sim.run(&spec(), 11, kind, &models);
            assert!(r.metrics.cacheable > 0, "{kind}");
            for name in ["Testbed", "Min", "Max"] {
                let m = r.mean_response_ms(name).expect("model present");
                assert!(m > 0.0, "{kind} {name} mean {m}");
            }
        }
    }

    #[test]
    fn hints_beat_hierarchy_on_response_time() {
        // The paper's headline: 1.3–2.3× response-time improvement.
        let (tb, min, max) = models();
        let models: Vec<&dyn CostModel> = vec![&tb, &min, &max];
        let sim = Simulator::new(SimConfig::infinite(&spec()));
        let hier = sim.run(&spec(), 11, StrategyKind::DataHierarchy, &models);
        let hint = sim.run(&spec(), 11, StrategyKind::HintHierarchy, &models);
        for name in ["Testbed", "Min", "Max"] {
            let h = hier.mean_response_ms(name).unwrap();
            let s = hint.mean_response_ms(name).unwrap();
            assert!(
                s < h,
                "hints ({s} ms) should beat the hierarchy ({h} ms) under {name}"
            );
        }
    }

    #[test]
    fn ideal_push_is_a_lower_bound_for_hint_runs() {
        let (tb, ..) = models();
        let models: Vec<&dyn CostModel> = vec![&tb];
        let sim = Simulator::new(SimConfig::infinite(&spec()));
        let hint = sim.run(&spec(), 11, StrategyKind::HintHierarchy, &models);
        let ideal = sim.run(&spec(), 11, StrategyKind::HintIdealPush, &models);
        assert!(
            ideal.mean_response_ms("Testbed").unwrap() <= hint.mean_response_ms("Testbed").unwrap()
        );
        // Identical hit/miss structure, only placement differs.
        assert_eq!(ideal.metrics.hits(), hint.metrics.hits());
        assert_eq!(ideal.metrics.server_fetches, hint.metrics.server_fetches);
        assert!(ideal.metrics.l1_hits >= hint.metrics.l1_hits);
        assert_eq!(
            ideal.metrics.remote_hits_l2 + ideal.metrics.remote_hits_l3,
            0
        );
    }

    #[test]
    fn global_hit_rates_match_across_sharing_strategies() {
        // Hints improve *where* hits happen, not the global hit rate
        // (§3.3): with infinite caches the hierarchy and hint system see the
        // same hits.
        let (tb, ..) = models();
        let models: Vec<&dyn CostModel> = vec![&tb];
        let sim = Simulator::new(SimConfig::infinite(&spec()));
        let hier = sim.run(&spec(), 11, StrategyKind::DataHierarchy, &models);
        let hint = sim.run(&spec(), 11, StrategyKind::HintHierarchy, &models);
        let hr_hier = hier.metrics.hit_ratio();
        let hr_hint = hint.metrics.hit_ratio();
        assert!(
            (hr_hier - hr_hint).abs() < 0.01,
            "hit ratios should match: hierarchy {hr_hier} vs hints {hr_hint}"
        );
    }

    #[test]
    fn warmup_requests_not_measured() {
        let (tb, ..) = models();
        let models: Vec<&dyn CostModel> = vec![&tb];
        let sim = Simulator::new(SimConfig::infinite(&spec()).with_warmup(0.5));
        let r = sim.run(&spec(), 11, StrategyKind::HintHierarchy, &models);
        assert_eq!(r.metrics.warmup_skipped, 3_000);
        assert!(r.metrics.requests <= 3_000);
    }

    #[test]
    fn run_matrix_covers_kinds() {
        let (tb, ..) = models();
        let models: Vec<&dyn CostModel> = vec![&tb];
        let reports = run_matrix(
            SimConfig::infinite(&spec()),
            &spec(),
            3,
            &[StrategyKind::DataHierarchy, StrategyKind::HintHierarchy],
            &models,
        );
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].strategy, "Hierarchy");
        assert_eq!(reports[1].strategy, "Hints");
    }

    #[test]
    fn outcome_conservation_across_strategies() {
        // Every measured cacheable request is exactly one of: a hit
        // (local/remote/hierarchy) or a server fetch.
        let (tb, ..) = models();
        let models: Vec<&dyn CostModel> = vec![&tb];
        for kind in [
            StrategyKind::DataHierarchy,
            StrategyKind::CentralDirectory,
            StrategyKind::IcpMulticast,
            StrategyKind::HintHierarchy,
            StrategyKind::HintHierarchicalPush(bh_core_push_all()),
        ] {
            for (cfg_name, cfg) in [
                ("infinite", SimConfig::infinite(&spec())),
                ("constrained", SimConfig::constrained(&spec())),
            ] {
                let r = Simulator::new(cfg).run(&spec(), 21, kind, &models);
                let m = &r.metrics;
                assert_eq!(
                    m.hits() + m.server_fetches,
                    m.cacheable,
                    "conservation violated for {kind} ({cfg_name}): {m:?}"
                );
                assert_eq!(
                    m.requests,
                    m.cacheable + m.uncachable + m.errors,
                    "class partition violated for {kind} ({cfg_name})"
                );
            }
        }
    }

    fn bh_core_push_all() -> crate::push::PushFraction {
        crate::push::PushFraction::All
    }

    #[test]
    fn mean_response_is_mix_of_component_costs() {
        // The mean must lie between the cheapest and the dearest path price.
        let (tb, ..) = models();
        let models: Vec<&dyn CostModel> = vec![&tb];
        let sim = Simulator::new(SimConfig::infinite(&spec()));
        let r = sim.run(&spec(), 4, StrategyKind::HintHierarchy, &models);
        let mean = r.mean_response_ms("Testbed").unwrap();
        let cheapest = tb
            .hierarchy_hit(
                bh_netmodel::Level::L1,
                bh_simcore::ByteSize::from_bytes(128),
            )
            .as_millis_f64();
        let dearest = tb
            .server_fetch(bh_simcore::ByteSize::from_mb(8))
            .as_millis_f64()
            + tb.false_positive_penalty(bh_netmodel::RemoteDistance::SameL3)
                .as_millis_f64();
        assert!(
            mean > cheapest && mean < dearest,
            "mean {mean} outside [{cheapest}, {dearest}]"
        );
    }

    #[test]
    fn constrained_space_hurts_hit_rate() {
        let (tb, ..) = models();
        let models: Vec<&dyn CostModel> = vec![&tb];
        let spec = spec();
        let inf = Simulator::new(SimConfig::infinite(&spec)).run(
            &spec,
            5,
            StrategyKind::HintHierarchy,
            &models,
        );
        let mut tight_cfg = SimConfig::infinite(&spec);
        tight_cfg.space.hint_node_capacity = bh_simcore::ByteSize::from_mb(2);
        let tight = Simulator::new(tight_cfg).run(&spec, 5, StrategyKind::HintHierarchy, &models);
        assert!(tight.metrics.hit_ratio() <= inf.metrics.hit_ratio() + 1e-9);
    }
}
