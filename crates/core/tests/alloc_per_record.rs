//! Heap allocations per trace record of each `sim_sweep` cell (DEC ×
//! 0.002, seed 2: the repo benchmark's first trace of seed 1), counted by
//! a global allocator that tallies the calling thread's `alloc`,
//! `alloc_zeroed` and `realloc` calls. A cell is counted from building its
//! strategy to dropping it.
//!
//! What a cell allocates is the growth of its strategy's own tables, under
//! 0.03 a record; one allocation per request anywhere on the path (a
//! holder list, an event snapshot, an eviction report, a priced link list)
//! reads about 1.
//!
//! ```text
//! cargo test --release -p bh-core --test alloc_per_record -- --nocapture
//! ```

use bh_core::sim::{SimConfig, Simulator};
use bh_core::strategies::StrategyKind;
use bh_core::Topology;
use bh_netmodel::{CostModel, TestbedModel};
use bh_simcore::SimDuration;
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

#[test]
fn sim_sweep_cells_allocate_under_one_per_twenty_records() {
    let trace = MaterializedTrace::generate(&WorkloadSpec::dec().scaled(0.002), 2);
    let spec = trace.spec();
    let testbed = TestbedModel::new();
    let models: [&dyn CostModel; 1] = [&testbed];
    let cells = [
        ("data_hierarchy", StrategyKind::DataHierarchy, 0),
        ("central_directory", StrategyKind::CentralDirectory, 0),
        ("hint_oracle", StrategyKind::HintHierarchy, 0),
        ("hint_delayed", StrategyKind::HintHierarchy, 30),
        ("hint_update_push", StrategyKind::HintUpdatePush, 0),
    ];
    let mut over = Vec::new();
    for (name, kind, delay) in cells {
        let config = SimConfig::constrained(spec).with_hint_delay(SimDuration::from_secs(delay));
        let before = allocs();
        let mut strategy = kind.build(
            Topology::from_spec(spec),
            &config.space,
            config.hint_delay,
            trace.seed(),
        );
        let report =
            Simulator::new(config).run_with_trace(&trace, strategy.as_mut(), &models, false);
        drop(strategy);
        let per_record = (allocs() - before) as f64 / trace.len() as f64;
        assert!(report.metrics.cacheable > 0);
        println!("{name}: {per_record:.4} allocations per record");
        if per_record > CEILING {
            over.push((name, per_record));
        }
    }
    assert!(
        over.is_empty(),
        "over {CEILING} allocations per record: {over:?}"
    );
}
