//! Heap allocations per trace record of every strategy the experiment
//! suite builds — the seven `StrategyKind`s (the hint hierarchy both on
//! its oracle path and with delayed hints, hierarchical push at each
//! fraction), client-level hints, and the replacement ablation's three
//! cache policies — on DEC × 0.002, seed 2 (the repo benchmark's first
//! trace of seed 1). A global allocator tallies the calling thread's
//! `alloc`, `alloc_zeroed` and `realloc` calls. A cell is counted from
//! building its strategy or cache to dropping it.
//!
//! What a cell allocates is the growth of its strategy's own tables, under
//! 0.03 a record; one allocation per request anywhere on the path (a
//! holder list, an event snapshot, an eviction report, a priced link list,
//! a push's target list) reads about 1.
//!
//! ```text
//! cargo test --release -p bh-core --test alloc_per_record -- --nocapture
//! ```

use bh_cache::{GdsCache, LruCache, RandomCache};
use bh_core::push::PushFraction;
use bh_core::sim::{SimConfig, Simulator};
use bh_core::strategies::{ClientHintConfig, ClientHints, Strategy, StrategyKind};
use bh_core::Topology;
use bh_netmodel::{CostModel, TestbedModel};
use bh_simcore::{ByteSize, SimDuration};
use bh_trace::{MaterializedTrace, WorkloadSpec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Most allocations per record any cell may make.
const CEILING: f64 = 0.05;

/// Allocations per record of `trace` that `run` makes.
fn per_record(trace: &MaterializedTrace, run: impl FnOnce()) -> f64 {
    let before = allocs();
    run();
    (allocs() - before) as f64 / trace.len() as f64
}

/// One replacement-ablation arm over `trace`: `access` serves every
/// cacheable record from one shared cache, inserting on a miss, and says
/// whether it hit.
fn replacement_arm(trace: &MaterializedTrace, mut access: impl FnMut(u64, ByteSize, u32) -> bool) {
    let hits = trace
        .iter()
        .filter(|r| r.is_cacheable() && access(r.object.key(), r.size, r.version))
        .count();
    assert!(hits > 0);
}

#[test]
fn every_suite_strategy_allocates_under_one_per_twenty_records() {
    let trace = MaterializedTrace::generate(&WorkloadSpec::dec().scaled(0.002), 2);
    let spec = trace.spec();
    let testbed = TestbedModel::new();
    let models: [&dyn CostModel; 1] = [&testbed];
    let simulate = |config: SimConfig, mut strategy: Box<dyn Strategy>, idealize: bool| {
        let report =
            Simulator::new(config).run_with_trace(&trace, strategy.as_mut(), &models, idealize);
        assert!(report.metrics.cacheable > 0);
    };
    let kinds = [
        ("data_hierarchy", StrategyKind::DataHierarchy, 0),
        ("central_directory", StrategyKind::CentralDirectory, 0),
        ("icp_multicast", StrategyKind::IcpMulticast, 0),
        ("hint_oracle", StrategyKind::HintHierarchy, 0),
        ("hint_delayed", StrategyKind::HintHierarchy, 30),
        ("hint_update_push", StrategyKind::HintUpdatePush, 0),
        (
            "push_1",
            StrategyKind::HintHierarchicalPush(PushFraction::One),
            0,
        ),
        (
            "push_half",
            StrategyKind::HintHierarchicalPush(PushFraction::Half),
            0,
        ),
        (
            "push_all",
            StrategyKind::HintHierarchicalPush(PushFraction::All),
            0,
        ),
        ("push_ideal", StrategyKind::HintIdealPush, 0),
    ];
    let mut cells: Vec<(&str, f64)> = kinds
        .into_iter()
        .map(|(name, kind, delay)| {
            let config =
                SimConfig::constrained(spec).with_hint_delay(SimDuration::from_secs(delay));
            let cell = per_record(&trace, || {
                let topo = Topology::from_spec(spec);
                let strategy = kind.build(topo, &config.space, config.hint_delay, trace.seed());
                simulate(config, strategy, kind.idealized());
            });
            (name, cell)
        })
        .collect();
    cells.push((
        "client_hints",
        per_record(&trace, || {
            let client = ClientHintConfig {
                false_negative_rate: 0.1,
                ..ClientHintConfig::default()
            };
            let strategy = Box::new(ClientHints::new(Topology::from_spec(spec), client));
            simulate(SimConfig::infinite(spec), strategy, false);
        }),
    ));
    // The replacement ablation's capacity rule, well below the footprint.
    let capacity = ByteSize::from_mb(((spec.requests as f64) * 0.0003) as u64 + 8);
    cells.push((
        "lru",
        per_record(&trace, || {
            let mut cache = LruCache::new(capacity);
            replacement_arm(&trace, |key, size, version| {
                let hit = cache.get(key, version).is_some();
                if !hit {
                    cache.insert(key, size, version);
                }
                hit
            });
        }),
    ));
    cells.push((
        "gds",
        per_record(&trace, || {
            let mut cache = GdsCache::new(capacity);
            replacement_arm(&trace, |key, size, version| {
                let hit = cache.get(key, version).is_some();
                if !hit {
                    cache.insert(key, size, version);
                }
                hit
            });
        }),
    ));
    cells.push((
        "random",
        per_record(&trace, || {
            let mut cache = RandomCache::new(capacity, trace.seed());
            replacement_arm(&trace, |key, size, version| {
                let hit = cache.get(key, version).is_some();
                if !hit {
                    cache.insert(key, size, version);
                }
                hit
            });
        }),
    ));
    for (name, cell) in &cells {
        println!("{name}: {cell:.4} allocations per record");
    }
    let over: Vec<_> = cells.iter().filter(|(_, cell)| *cell > CEILING).collect();
    assert!(
        over.is_empty(),
        "over {CEILING} allocations per record: {over:?}"
    );
}
