//! Golden regression tests: pin the paper-facing numbers digit-for-digit
//! so a refactor that drifts the analytics is caught immediately.
//!
//! * Table 3 (Rousskov Squid measurements): all 24 derived totals —
//!   {Min, Max} × {Leaf, Intermediate, Root, Miss} ×
//!   {hierarchical, client-direct, via-L1} — exactly as printed in the
//!   paper.
//! * Figure 2 (miss-class breakdown): per-read rates for the DEC workload
//!   at a tiny `--scale 0.05`, pinned to three decimals, plus the
//!   orderings the paper's discussion rests on (capacity dominates at
//!   1 GB, hits dominate at 5 GB, compulsory is scale-invariant).

use bh_core::experiments::{miss_breakdown, MissBreakdownPoint};
use bh_netmodel::{Level, RousskovModel};
use bh_trace::WorkloadSpec;

/// The totals printed in the paper's Table 3, in milliseconds:
/// rows are Leaf (L1 hit), Intermediate (L2 hit), Root (L3 hit), Miss;
/// columns are (hierarchical, client-direct, via-L1).
const TABLE3_MIN: [(f64, f64, f64); 4] = [
    (163.0, 163.0, 163.0),
    (271.0, 180.0, 271.0),
    (531.0, 320.0, 411.0),
    (981.0, 550.0, 641.0),
];
const TABLE3_MAX: [(f64, f64, f64); 4] = [
    (352.0, 352.0, 352.0),
    (2767.0, 2550.0, 2767.0),
    (4667.0, 2850.0, 3067.0),
    (7217.0, 3200.0, 3417.0),
];

fn table3_totals(m: &RousskovModel) -> [(f64, f64, f64); 4] {
    let row = |level: Level| {
        (
            m.total_hierarchical_ms(level),
            m.total_direct_ms(level),
            m.total_via_l1_ms(level),
        )
    };
    [
        row(Level::L1),
        row(Level::L2),
        row(Level::L3),
        (
            m.total_hierarchical_miss_ms(),
            m.direct_miss_ms(),
            m.via_l1_miss_ms(),
        ),
    ]
}

fn assert_totals_exact(got: [(f64, f64, f64); 4], want: [(f64, f64, f64); 4], variant: &str) {
    for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
        assert_eq!(g, w, "{variant} row {i}: got {g:?}, paper says {w:?}");
    }
}

#[test]
fn table3_min_totals_match_paper_digit_for_digit() {
    assert_totals_exact(table3_totals(&RousskovModel::min()), TABLE3_MIN, "Min");
}

#[test]
fn table3_max_totals_match_paper_digit_for_digit() {
    assert_totals_exact(table3_totals(&RousskovModel::max()), TABLE3_MAX, "Max");
}

/// Per-read rate of a named miss class, rounded to three decimals (the
/// resolution Figure 2 is read at).
fn rate3(p: &MissBreakdownPoint, class: &str) -> f64 {
    let v = p
        .read_rates
        .by_name(class)
        .unwrap_or_else(|| panic!("missing class {class}"));
    (v * 1000.0).round() / 1000.0
}

/// Figure 2, DEC, `--scale 0.05`, seed 42: the same call `fig2` makes for
/// its 1 GB and 5 GB points (full-scale-equivalent sizes, so the simulated
/// caches are 0.05 and 0.25 GB).
fn fig2_dec_points() -> Vec<MissBreakdownPoint> {
    let spec = WorkloadSpec::dec().scaled(0.05);
    miss_breakdown(&spec, 42, &[1.0 * 0.05, 5.0 * 0.05], 0.1)
}

#[test]
fn fig2_dec_rates_pinned_at_tiny_scale() {
    let points = fig2_dec_points();
    let (gb1, gb5) = (&points[0], &points[1]);

    assert_eq!(rate3(gb1, "hit"), 0.267);
    assert_eq!(rate3(gb1, "compulsory"), 0.180);
    assert_eq!(rate3(gb1, "capacity"), 0.487);
    assert_eq!(rate3(gb1, "error"), 0.020);
    assert_eq!(rate3(gb1, "uncachable"), 0.047);

    assert_eq!(rate3(gb5, "hit"), 0.540);
    assert_eq!(rate3(gb5, "compulsory"), 0.180);
    assert_eq!(rate3(gb5, "capacity"), 0.213);
    assert_eq!(rate3(gb5, "error"), 0.020);
    assert_eq!(rate3(gb5, "uncachable"), 0.047);

    assert_eq!((gb1.total_miss_ratio * 1000.0).round() / 1000.0, 0.733);
    assert_eq!((gb5.total_miss_ratio * 1000.0).round() / 1000.0, 0.460);
}

#[test]
fn fig2_dec_miss_class_orderings_match_paper() {
    let points = fig2_dec_points();
    let (gb1, gb5) = (&points[0], &points[1]);

    // At 1 GB the cache is capacity-starved: capacity > hit > compulsory.
    assert!(rate3(gb1, "capacity") > rate3(gb1, "hit"));
    assert!(rate3(gb1, "hit") > rate3(gb1, "compulsory"));

    // At 5 GB hits dominate and capacity falls below compulsory-adjacent
    // levels: hit > capacity and capacity shrank vs the 1 GB point.
    assert!(rate3(gb5, "hit") > rate3(gb5, "capacity"));
    assert!(rate3(gb5, "capacity") < rate3(gb1, "capacity"));
    assert!(rate3(gb5, "hit") > rate3(gb1, "hit"));

    // Compulsory misses are a property of the trace, not the cache size.
    assert_eq!(rate3(gb1, "compulsory"), rate3(gb5, "compulsory"));
}

/// The same Figure 2 pins, but routed through the *parallel engine* the
/// suite uses: one shared [`bh_trace::TraceCache`] arena per workload and
/// per-point jobs on an 8-worker [`bh_simcore::par::sweep`]. A drift here
/// with `fig2_dec_rates_pinned_at_tiny_scale` green would mean the arena
/// replay or the sweep changed the numbers.
#[test]
fn fig2_dec_rates_survive_the_parallel_engine() {
    use bh_core::experiments::miss_breakdown_point;
    use bh_trace::TraceCache;

    let spec = WorkloadSpec::dec().scaled(0.05);
    let sizes = vec![1.0 * 0.05, 5.0 * 0.05];
    let points: Vec<MissBreakdownPoint> = bh_simcore::par::sweep(8, sizes, |_, gb| {
        miss_breakdown_point(&TraceCache::get(&spec, 42), gb, 0.1)
    });

    let serial = fig2_dec_points();
    for (parallel, serial) in points.iter().zip(&serial) {
        for class in ["hit", "compulsory", "capacity", "error", "uncachable"] {
            assert_eq!(
                rate3(parallel, class),
                rate3(serial, class),
                "class {class} differs between parallel and serial engines"
            );
        }
        assert_eq!(parallel.total_miss_ratio, serial.total_miss_ratio);
    }
    assert_eq!(rate3(&points[0], "hit"), 0.267);
    assert_eq!(rate3(&points[0], "capacity"), 0.487);
    assert_eq!(rate3(&points[1], "hit"), 0.540);
    assert_eq!(rate3(&points[1], "capacity"), 0.213);
}

/// The replacement-policy ablation rows at `--scale 0.05`, seed 42, as
/// computed by `replacement_sweep` — LRU and GreedyDual-Size next to the
/// seeded-Random arm, pinned digit for digit. GDS must beat LRU must
/// beat Random on request hit rate (Random evicts hot objects as readily
/// as cold ones), and none of the three may drift by a single bit.
#[test]
fn ablation_replacement_rows_pinned_through_the_parallel_engine() {
    use bh_bench::runners::ablations::replacement_sweep;

    let spec = WorkloadSpec::dec().scaled(0.05);
    let rows_at = |jobs: usize| -> Vec<Vec<(String, f64)>> {
        bh_simcore::par::sweep(jobs, vec![42u64, 43, 44, 45], |_, seed| {
            replacement_sweep(&spec, seed)
        })
    };
    let serial = rows_at(1);
    let parallel = rows_at(8);
    assert_eq!(
        serial, parallel,
        "replacement rows differ between --jobs 1 and --jobs 8"
    );

    let seed42 = &serial[0];
    assert_eq!(
        *seed42,
        vec![
            ("LRU".to_string(), 0.666707696244146),
            ("GreedyDual-Size".to_string(), 0.7558791830784977),
            ("Random".to_string(), 0.6188329637440685),
        ],
        "seed-42 replacement rows must match digit for digit"
    );
    for (seed, rows) in [42u64, 43, 44, 45].into_iter().zip(&serial) {
        let rate = |label: &str| {
            rows.iter()
                .find(|(l, _)| l == label)
                .unwrap_or_else(|| panic!("missing {label} row"))
                .1
        };
        assert!(
            rate("GreedyDual-Size") > rate("LRU") && rate("LRU") > rate("Random"),
            "seed {seed}: expected GDS > LRU > Random, got {rows:?}"
        );
    }
}

/// Partial mirror of the `table3` JSON artifact (extra fields are ignored
/// by the derived deserializer).
#[derive(serde::Deserialize)]
struct Table3ArtifactRow {
    total_hierarchical_ms: f64,
    total_direct_ms: f64,
    total_via_l1_ms: f64,
}

#[derive(serde::Deserialize)]
struct Table3Artifact {
    variant: String,
    rows: Vec<Table3ArtifactRow>,
}

/// The versioned Report envelope every artifact ships in (see
/// `bh_bench::report`); the payload is the pre-envelope artifact body.
#[derive(serde::Deserialize)]
struct Table3Envelope {
    schema_version: u64,
    artifact: String,
    payload: Vec<Table3Artifact>,
}

/// Table 3 through the suite runner end-to-end: plan → 8-worker sweep →
/// finish → JSON artifact, then assert the artifact carries the paper's
/// 24 totals digit for digit.
#[test]
fn table3_artifact_from_suite_engine_matches_paper() {
    let out = std::env::temp_dir().join(format!("bh-golden-table3-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out);
    let args = bh_bench::Args {
        scale: 1.0,
        seed: 42,
        trace: "all".to_string(),
        out: out.clone(),
        jobs: 8,
    };
    bh_bench::suite::run_suite(&[(&bh_bench::runners::table3::Table3, args)], 8);

    let json = std::fs::read_to_string(out.join("table3.json")).expect("table3 artifact");
    let envelope: Table3Envelope = serde_json::from_str(&json).expect("parse table3 artifact");
    assert_eq!(envelope.schema_version, bh_bench::report::SCHEMA_VERSION);
    assert_eq!(envelope.artifact, "table3");
    let tables = envelope.payload;
    assert_eq!(tables.len(), 2);
    for (table, want) in tables.iter().zip([TABLE3_MIN, TABLE3_MAX]) {
        assert_eq!(table.rows.len(), 4, "{}", table.variant);
        for (row, (h, d, v)) in table.rows.iter().zip(want) {
            assert_eq!(
                row.total_hierarchical_ms, h,
                "{} hierarchical",
                table.variant
            );
            assert_eq!(row.total_direct_ms, d, "{} direct", table.variant);
            assert_eq!(row.total_via_l1_ms, v, "{} via-L1", table.variant);
        }
    }
}

/// Every integer counter of a run, in declaration order.
fn integer_metrics(m: &bh_core::Metrics) -> [u64; 27] {
    [
        m.requests,
        m.cacheable,
        m.uncachable,
        m.errors,
        m.warmup_skipped,
        m.l1_hits,
        m.l2_hits,
        m.l3_hits,
        m.remote_hits_l2,
        m.remote_hits_l3,
        m.server_fetches,
        m.false_positives,
        m.false_negatives,
        m.suboptimal_positives,
        m.hit_bytes,
        m.l1_hit_bytes,
        m.l2_hit_bytes,
        m.l3_hit_bytes,
        m.remote_hit_bytes,
        m.total_bytes,
        m.root_updates,
        m.directory_updates,
        m.pushes,
        m.pushed_bytes,
        m.pushed_used,
        m.pushed_used_bytes,
        m.demand_bytes,
    ]
}

/// The three space-constrained hint cells (bounded real stores: zero
/// delay, 30 s delay, update push) over one `dec().scaled(0.002)` trace,
/// seed 42. Every integer counter is pinned to the values the per-node
/// `HintCache` stores produced before the shared hint bank replaced them,
/// so a change to the set kernel, the set-index mapping or the broadcast
/// resolution that moves a single hint shows here without the benchmark.
#[test]
fn constrained_hint_cells_pinned_to_the_integer() {
    use bh_core::sim::{SimConfig, Simulator};
    use bh_core::strategies::StrategyKind;
    use bh_netmodel::{CostModel, TestbedModel};
    use bh_simcore::SimDuration;
    use bh_trace::MaterializedTrace;

    let trace = MaterializedTrace::generate(&WorkloadSpec::dec().scaled(0.002), 42);
    let testbed = TestbedModel::new();
    let models: [&dyn CostModel; 1] = [&testbed];
    let cell = |kind: StrategyKind, delay_secs: u64| {
        let config = SimConfig::constrained(trace.spec())
            .with_hint_delay(SimDuration::from_secs(delay_secs));
        integer_metrics(
            &Simulator::new(config)
                .run_trace(&trace, kind, &models)
                .metrics,
        )
    };
    const ZERO_DELAY: [u64; 27] = [
        39780, 37285, 1663, 832, 4420, 18494, 0, 0, 4683, 6965, 7143, 0, 0, 0, 271870763,
        145736199, 0, 0, 126134564, 345187188, 7978, 20837, 0, 0, 0, 0, 218016534,
    ];
    const DELAY_30S: [u64; 27] = [
        39780, 37285, 1663, 832, 4420, 18494, 0, 0, 4643, 6941, 7207, 0, 230, 55, 271266754,
        145736199, 0, 0, 125530555, 345187188, 7978, 20837, 0, 0, 0, 0, 218016534,
    ];
    assert_eq!(cell(StrategyKind::HintHierarchy, 0), ZERO_DELAY);
    assert_eq!(cell(StrategyKind::HintHierarchy, 30), DELAY_30S);
    // This trace never bumps a version that still has holders, so update
    // push has nothing to push and the cell equals the zero-delay one.
    assert_eq!(cell(StrategyKind::HintUpdatePush, 0), ZERO_DELAY);

    // The same trace against 16 KB stores and a 5-minute delay: sets
    // overflow and hints go stale, so displacement order, false positives,
    // false negatives and suboptimal positives are all non-zero.
    let mut starved = bh_core::strategies::HintHierarchy::new(
        bh_core::Topology::from_spec(trace.spec()),
        bh_core::strategies::HintConfig {
            data_capacity: bh_simcore::ByteSize::from_mb(2),
            store_capacity: bh_simcore::ByteSize::from_kb(16),
            delay: SimDuration::from_secs(300),
            push: bh_core::push::PushPolicy::Update,
        },
        trace.seed(),
    );
    let sim = Simulator::new(SimConfig::constrained(trace.spec()));
    let report = sim.run_with_trace(&trace, &mut starved, &models, false);
    assert_eq!(
        integer_metrics(&report.metrics),
        [
            39780, 37285, 1663, 832, 4420, 18289, 0, 0, 2741, 3067, 13188, 66, 6780, 235,
            209161070, 143473605, 0, 0, 65687465, 345187188, 10460, 29237, 0, 0, 0, 0, 220279128,
        ]
    );
}
