//! `sim_sweep`: five simulator cells over two small materialized traces,
//! single thread, no socket. A mesh-side change must not move it, and a
//! simulator change must not move the mesh workloads.

use bh_core::sim::{SimConfig, Simulator};
use bh_core::strategies::StrategyKind;
use bh_core::{Metrics, Topology};
use bh_netmodel::{CostModel, TestbedModel};
use bh_simcore::{QueueStats, SimDuration};
use bh_trace::{MaterializedTrace, WorkloadSpec};

use crate::clock::now_ns;
use crate::procfs::ProcUsage;
use crate::spans::{Recorder, Span, NO_PARENT};

/// Share of the DEC workload each trace covers: 44,200 records. The hint
/// cells' tables grow with the trace (73 MB here, 370 MB at five times the
/// length), and the larger they are the more a round waits for memory —
/// which is what the host's other guests disturb most: alternated in one
/// restless spell, the best round at this scale ran 631–688k ops/s, at
/// 0.01 368–421k against 570k when the host was quiet.
const TRACE_SCALE: f64 = 0.002;

/// Traces per round, on seeds derived from the run's seed: two passes make
/// the warm round (and with it the set-up) longer than half a second and
/// halve what one trace's composition adds to the run-to-run spread.
const TRACES: u64 = 2;

/// Hint propagation delay of the delayed cell (forces the real event
/// queue instead of the zero-delay oracle path).
const HINT_DELAY_SECS: u64 = 30;

/// One simulator configuration run over the trace.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// Span name of one run of the cell.
    pub span: &'static str,
    /// The per-layer row holding its records per second.
    pub rate_row: &'static str,
    kind: StrategyKind,
    delayed: bool,
}

/// The five cells of a round, in run order.
pub const CELLS: [Cell; 5] = [
    Cell {
        span: "core.cell.data_hierarchy",
        rate_row: "core.cell_rec_per_s.data_hierarchy",
        kind: StrategyKind::DataHierarchy,
        delayed: false,
    },
    Cell {
        span: "core.cell.central_directory",
        rate_row: "core.cell_rec_per_s.central_directory",
        kind: StrategyKind::CentralDirectory,
        delayed: false,
    },
    Cell {
        span: "core.cell.hint_oracle",
        rate_row: "core.cell_rec_per_s.hint_oracle",
        kind: StrategyKind::HintHierarchy,
        delayed: false,
    },
    Cell {
        span: "core.cell.hint_delayed",
        rate_row: "core.cell_rec_per_s.hint_delayed",
        kind: StrategyKind::HintHierarchy,
        delayed: true,
    },
    Cell {
        span: "core.cell.hint_update_push",
        rate_row: "core.cell_rec_per_s.hint_update_push",
        kind: StrategyKind::HintUpdatePush,
        delayed: false,
    },
];

/// The traces of a run, generated from `seed`.
pub fn generate(seed: u64) -> Vec<MaterializedTrace> {
    let spec = WorkloadSpec::dec().scaled(TRACE_SCALE);
    (0..TRACES)
        .map(|i| MaterializedTrace::generate(&spec, seed.wrapping_mul(TRACES).wrapping_add(i)))
        .collect()
}

/// Totals of one round (five cells over every trace).
#[derive(Debug, Clone)]
pub struct SimRound {
    pub ops: u64,
    pub wall_ns: u64,
    pub usage: ProcUsage,
    /// Wall time of each cell, summed over the traces, in [`CELLS`] order.
    pub cell_ns: [u64; 5],
    /// Simulated hit ratio of the delayed hint cell.
    pub hit_ratio: f64,
    /// Digest of every cell's integer statistics.
    pub digest: u64,
    /// Event-queue profile of the delayed hint cell.
    pub queue: Option<QueueStats>,
    pub traced: bool,
}

/// FNV-1a over the integer statistics of a cell, so the digest pins the
/// simulated outcome without depending on float formatting.
fn fold_metrics(mut h: u64, m: &Metrics) -> u64 {
    let fields = [
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
        m.total_bytes,
        m.root_updates,
        m.directory_updates,
        m.pushes,
        m.pushed_bytes,
        m.pushed_used,
    ];
    for f in fields {
        for b in f.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// Runs the five cells once over each of `traces`.
pub fn round(traces: &[MaterializedTrace], index: u64, recorder: &mut Recorder) -> SimRound {
    let testbed = TestbedModel::new();
    let models: [&dyn CostModel; 1] = [&testbed];
    let traced = recorder.enabled();
    let usage0 = ProcUsage::read();
    let t0 = now_ns();
    let parent = recorder.open("bench.round", t0, NO_PARENT, index);
    let mut cell_ns = [0u64; 5];
    let mut digest = 0xCBF2_9CE4_8422_2325u64;
    let (mut hits, mut cacheable) = (0, 0);
    let mut queue = None;
    for trace in traces {
        let spec = trace.spec();
        for (i, cell) in CELLS.iter().enumerate() {
            let mut config = SimConfig::constrained(spec);
            if cell.delayed {
                config = config.with_hint_delay(SimDuration::from_secs(HINT_DELAY_SECS));
            }
            let sim = Simulator::new(config);
            let c0 = now_ns();
            let mut strategy = cell.kind.build(
                Topology::from_spec(spec),
                &config.space,
                config.hint_delay,
                trace.seed(),
            );
            let report =
                sim.run_with_trace(trace, strategy.as_mut(), &models, cell.kind.idealized());
            let c1 = now_ns();
            cell_ns[i] += c1 - c0;
            recorder.push(Span {
                name: cell.span,
                start_ns: c0,
                end_ns: c1,
                parent,
                op: index,
                calls: trace.len() as u32,
            });
            digest = fold_metrics(digest, &report.metrics);
            if cell.delayed {
                hits += report.metrics.hits();
                cacheable += report.metrics.cacheable;
                queue = strategy.queue_stats();
            }
        }
    }
    let t1 = now_ns();
    recorder.close(parent, t1);
    let records: usize = traces.iter().map(MaterializedTrace::len).sum();
    SimRound {
        ops: (CELLS.len() * records) as u64,
        wall_ns: t1 - t0,
        usage: ProcUsage::read().since(&usage0),
        cell_ns,
        hit_ratio: hits as f64 / cacheable.max(1) as f64,
        digest,
        queue,
        traced,
    }
}
