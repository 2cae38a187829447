//! Library driver for chaos runs: replays a seeded workload segment by
//! segment under a [`FaultPlan`] against a live [`Mesh`]. The window loop
//! (`run_windows`) is shared with the scenario harness.
//!
//! Shared by the `loadgen --chaos` binary and the determinism
//! integration tests, which run the same plan twice and byte-compare
//! the artifacts. To make that possible the output is split in two:
//!
//! * `loadgen_chaos.json` — the **deterministic** artifact: the plan,
//!   the mesh shape, each segment's issued-request count (a pure
//!   function of the seeded trace), and the recovery verdict. Two runs
//!   of the same plan must produce byte-identical files; CI diffs them.
//! * `loadgen_chaos_metrics.json` — the **measured** artifact: hit
//!   splits, false-probe rates, latency percentiles, resynced hint
//!   counts, and each node's full obs-registry snapshot (the
//!   `stats-registry` lint pins the registry iteration here).
//! * `loadgen_chaos_events.log` — the plan's event schedule, byte-
//!   identical across runs by construction.
//! * `obs_dump.json` — the deterministic obs-registry dump: plan-derived
//!   values only, byte-identical across runs of the same seed.

use crate::report::{metric_values, write_obs_dump, MetricValue};
use crate::Args;
use bh_obs::{Determinism, Registry, Unit};
use bh_proto::chaos::{FaultKind, FaultPlan};
use bh_proto::liveness::PeerHealth;
use bh_proto::mesh::{Mesh, Topology};
use bh_proto::node::{NodeConfig, NodeStats};
use bh_proto::origin::OriginServer;
use bh_proto::replay::{replay_concurrent, ConcurrentReplayReport, ReplayConfig};
use bh_trace::{TraceGenerator, TraceRecord, WorkloadSpec};
use serde::Serialize;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Mesh and client shape for a chaos run.
#[derive(Debug, Clone)]
pub struct ChaosOptions {
    /// Cache nodes in the full mesh.
    pub nodes: usize,
    /// Closed-loop client threads.
    pub clients: usize,
    /// Epoll shards per node.
    pub shards: usize,
    /// Worker threads per node.
    pub workers: usize,
    /// First-reference probability of the synthetic workload.
    pub p_new: f64,
}

impl Default for ChaosOptions {
    fn default() -> Self {
        ChaosOptions {
            nodes: 4,
            clients: 16,
            shards: 1,
            workers: 16,
            p_new: 0.35,
        }
    }
}

/// Hit-rate / false-probe / latency summary of one replay segment
/// (measured artifact).
#[derive(Debug, Serialize)]
pub struct ChaosSegment {
    /// Window index in the plan.
    pub window: usize,
    /// `pre` (healthy baseline), `hold` (fault active), or `post`
    /// (recovery) — the before/during/after triple per window.
    pub phase: String,
    /// Stable fault description ([`FaultKind::describe`]).
    pub fault: String,
    /// Requests issued in this segment.
    pub requests: u64,
    /// Client-visible errors.
    pub errors: u64,
    /// Served from the contacted node's cache.
    pub local_hits: u64,
    /// Served by a peer via direct transfer.
    pub peer_hits: u64,
    /// Served by the origin.
    pub origin_fetches: u64,
    /// Request hit ratio (local + peer).
    pub hit_ratio: f64,
    /// Mesh-wide false-positive probes during this segment.
    pub false_positives: u64,
    /// Mesh-wide transport-failed probes that degraded to the origin.
    pub degraded_to_origin: u64,
    /// (false positives + degradations) per issued request.
    pub false_probe_rate: f64,
    /// Median request latency, milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile latency, milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile latency, milliseconds.
    pub p99_ms: f64,
}

/// End-of-run resilience counters for one node: the node's **entire**
/// obs-registry snapshot, iterated rather than hand-copied, so a newly
/// registered metric reaches the dump with zero plumbing (the
/// `stats-registry` lint pins the iteration).
#[derive(Debug, Serialize)]
pub struct ChaosNodeReport {
    /// The node's bound address.
    pub addr: String,
    /// Every registry metric (counters, pool gauges, expanded service
    /// histogram), sorted by name.
    pub metrics: Vec<MetricValue>,
}

/// One segment of the deterministic artifact: everything here is a pure
/// function of the plan and the seeded trace.
#[derive(Debug, Serialize)]
pub struct PlannedSegment {
    /// Window index in the plan.
    pub window: usize,
    /// `pre`, `hold`, or `post`.
    pub phase: String,
    /// Stable fault description.
    pub fault: String,
    /// Requests the segment issues: the cacheable records in its trace
    /// slice, fixed by the seed.
    pub requests: u64,
}

/// The deterministic `loadgen_chaos.json` artifact; two runs of the
/// same plan must serialize byte-identically.
#[derive(Debug, Serialize)]
pub struct ChaosResult {
    /// The executed plan.
    pub plan: FaultPlan,
    /// Mesh size.
    pub nodes: usize,
    /// Closed-loop client threads.
    pub client_threads: usize,
    /// Per-segment issued-request counts.
    pub segments: Vec<PlannedSegment>,
    /// True when every window's post segment met the recovery criteria.
    pub recovered: bool,
}

/// The measured `loadgen_chaos_metrics.json` artifact.
#[derive(Debug, Serialize)]
pub struct ChaosMetrics {
    /// Per-segment measured summaries.
    pub segments: Vec<ChaosSegment>,
    /// Hint records rebuilt by resync after each crash window, in
    /// window order.
    pub recovered_hints: Vec<usize>,
    /// Full per-node counter dump.
    pub node_reports: Vec<ChaosNodeReport>,
}

/// Replays `count` records starting at `cursor` against the mesh,
/// returning the measured outcome and the slice's cacheable-record
/// count (the deterministic issued-request number). While `crashed`
/// names a down node, its client groups are rerouted to a live
/// survivor — the clients reconnect, they don't stall.
pub(crate) fn replay_segment(
    mesh: &Mesh,
    opts: &ChaosOptions,
    spec: &WorkloadSpec,
    records: &[TraceRecord],
    cursor: &mut usize,
    count: u64,
    crashed: Option<usize>,
) -> (ConcurrentReplayReport, u64) {
    let end = (*cursor + count as usize).min(records.len());
    let slice = &records[*cursor..end];
    *cursor = end;
    let planned = slice.iter().filter(|r| r.is_cacheable()).count() as u64;
    let mut addrs: Vec<SocketAddr> = mesh.addrs().to_vec();
    if let Some(dead) = crashed {
        let survivor = mesh
            .live_node(dead)
            .expect("mesh has at least one live node");
        addrs[dead] = mesh.addrs()[survivor];
    }
    let mut config = ReplayConfig::flat_out(addrs);
    config.clients_per_l1 = spec.clients_per_l1;
    config.dynamic_client_ids = spec.dynamic_client_ids;
    let out = replay_concurrent(&config, slice, opts.clients).expect("chaos replay segment");
    (out, planned)
}

/// Sums the `(false_positives, degraded_to_origin)` deltas across nodes
/// between two stats snapshots. A node that crashed mid-interval
/// contributes nothing; a node that restarted counts from zero.
fn probe_deltas(prev: &[Option<NodeStats>], cur: &[Option<NodeStats>]) -> (u64, u64) {
    let mut fp = 0u64;
    let mut degraded = 0u64;
    for (p, c) in prev.iter().zip(cur.iter()) {
        let Some(c) = c else { continue };
        let base = p
            .as_ref()
            .map(|p| (p.false_positives, p.degraded_to_origin));
        let (fp0, dg0) = base.unwrap_or((0, 0));
        fp += c.false_positives.saturating_sub(fp0);
        degraded += c.degraded_to_origin.saturating_sub(dg0);
    }
    (fp, degraded)
}

fn segment_from(
    window: usize,
    phase: &str,
    fault: &FaultKind,
    out: &ConcurrentReplayReport,
    probes: (u64, u64),
) -> ChaosSegment {
    let (false_positives, degraded_to_origin) = probes;
    let requests = out.report.requests;
    ChaosSegment {
        window,
        phase: phase.to_string(),
        fault: fault.describe(),
        requests,
        errors: out.report.errors,
        local_hits: out.report.local_hits,
        peer_hits: out.report.peer_hits,
        origin_fetches: out.report.origin_fetches,
        hit_ratio: out.report.hit_ratio(),
        false_positives,
        degraded_to_origin,
        false_probe_rate: if requests > 0 {
            (false_positives + degraded_to_origin) as f64 / requests as f64
        } else {
            0.0
        },
        p50_ms: out.latency.p50().unwrap_or(0.0) * 1e3,
        p95_ms: out.latency.p95().unwrap_or(0.0) * 1e3,
        p99_ms: out.latency.p99().unwrap_or(0.0) * 1e3,
    }
}

fn print_segment(seg: &ChaosSegment) {
    println!(
        "window {} {:>4}  [{}]  {:>5} req  hit {:>5.1}%  fp {:>3}  degraded {:>3}  \
         {:>3} err  p50 {:>6.2} ms  p99 {:>6.2} ms",
        seg.window,
        seg.phase,
        seg.fault,
        seg.requests,
        seg.hit_ratio * 100.0,
        seg.false_positives,
        seg.degraded_to_origin,
        seg.errors,
        seg.p50_ms,
        seg.p99_ms,
    );
}

/// Drives heartbeats until every survivor has confirmed `dead` dead (so
/// stale-hint GC and Plaxton repair have fired), bounded by a wall-clock
/// deadline. Returns whether confirmation was reached.
fn await_confirmed_death(mesh: &Mesh, dead: usize) -> bool {
    let addr = mesh.addrs()[dead];
    // bh-lint: allow(no-wall-clock, reason = "deadline-bounded wait on a live mesh; failure detection is inherently wall-clock here")
    let deadline = Instant::now() + Duration::from_secs(10);
    // bh-lint: allow(no-wall-clock, reason = "loop bound against the same live-mesh deadline")
    while Instant::now() < deadline {
        mesh.heartbeat_all();
        let confirmed = (0..mesh.addrs().len())
            .filter(|&i| i != dead)
            .filter_map(|i| mesh.node(i))
            .all(|n| n.peer_health(addr) == PeerHealth::Dead);
        if confirmed {
            return true;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    false
}

/// Fast failure-detector settings for the fault harnesses: crash windows
/// must reach confirmed death (suspicion + confirmation window) inside
/// the run.
pub(crate) fn fast_mesh_config(c: NodeConfig, opts: &ChaosOptions) -> NodeConfig {
    c.with_shards(opts.shards)
        .with_workers(opts.workers)
        .with_flush_max(Duration::from_millis(25))
        .with_heartbeat_interval(Duration::from_millis(40))
        .with_suspicion_threshold(2)
        .with_confirm_death_after(Duration::from_millis(150))
        .with_shutdown_deadline(Duration::from_secs(2))
}

/// Spawns an origin plus a `topology`-shaped mesh tuned by
/// [`fast_mesh_config`].
pub(crate) fn spawn_fast_mesh(topology: Topology, opts: &ChaosOptions) -> Mesh {
    let origin = OriginServer::spawn("127.0.0.1:0").expect("spawn origin");
    Mesh::spawn(origin, topology, |_, c| fast_mesh_config(c, opts)).expect("spawn mesh")
}

/// Writes the plan's event schedule to `<out>/<name>` and echoes it. The
/// schedule is a pure function of the plan: it is written before
/// anything runs, so two runs of the same seed can be byte-diffed.
/// Returns the path and the log's size in bytes.
pub(crate) fn write_event_log(args: &Args, name: &str, plan: &FaultPlan) -> (PathBuf, usize) {
    let event_log = plan.event_log();
    std::fs::create_dir_all(&args.out).expect("create output dir");
    let path = args.out.join(name);
    std::fs::write(&path, &event_log).expect("write event log");
    print!("{event_log}");
    (path, event_log.len())
}

/// What [`run_windows`] produced: the deterministic per-segment request
/// counts, the measured per-segment summaries, and the verdict.
pub(crate) struct WindowsOutcome {
    /// Issued-request count per segment (pure function of the seed).
    pub planned: Vec<PlannedSegment>,
    /// Measured summary per segment, in the same order.
    pub segments: Vec<ChaosSegment>,
    /// Hint records rebuilt after each crash window, in window order.
    pub recovered_hints: Vec<usize>,
    /// True when every window met the recovery criteria.
    pub recovered: bool,
}

/// The fault-window loop: for every window of `plan`, replays `pre`
/// requests, injects the fault, replays `hold` requests, lifts it, and
/// replays `post` requests, measuring each segment. A window recovers
/// when its crashed node (if any) is confirmed dead by every survivor,
/// `death_confirmed(mesh, window, dead, stats at window start)` holds,
/// and the post segment serves everything again without a hit-rate
/// collapse relative to the pre segment.
pub(crate) fn run_windows(
    mesh: &mut Mesh,
    plan: &FaultPlan,
    opts: &ChaosOptions,
    spec: &WorkloadSpec,
    records: &[TraceRecord],
    mut death_confirmed: impl FnMut(&Mesh, usize, usize, &[Option<NodeStats>]) -> bool,
) -> WindowsOutcome {
    let mut cursor = 0usize;
    let mut planned: Vec<PlannedSegment> = Vec::new();
    let mut segments: Vec<ChaosSegment> = Vec::new();
    let mut recovered_hints: Vec<usize> = Vec::new();
    let mut recovered = true;

    for (i, w) in plan.windows.iter().enumerate() {
        let baseline = mesh.stats();
        let mut snapshot = baseline.clone();
        let mut replay = |mesh: &Mesh, phase: &str, count: u64, crashed: Option<usize>| {
            let (out, issued) =
                replay_segment(mesh, opts, spec, records, &mut cursor, count, crashed);
            planned.push(PlannedSegment {
                window: i,
                phase: phase.into(),
                fault: w.fault.describe(),
                requests: issued,
            });
            out
        };
        // Probe counters are attributed to the phase that just ended.
        let mut measure = |mesh: &Mesh, phase: &str, out: &ConcurrentReplayReport| {
            let cur = mesh.stats();
            let seg = segment_from(i, phase, &w.fault, out, probe_deltas(&snapshot, &cur));
            snapshot = cur;
            print_segment(&seg);
            seg
        };

        let out = replay(mesh, "pre", w.pre, None);
        let pre = measure(mesh, "pre", &out);

        mesh.inject(w.fault).expect("inject fault");
        let crashed = match mesh.resolve(w.fault) {
            FaultKind::Crash { node } => Some(node),
            _ => None,
        };
        let out = replay(mesh, "hold", w.hold, crashed);
        if let Some(dead) = crashed {
            if !await_confirmed_death(mesh, dead) {
                eprintln!("window {i}: survivors never confirmed node {dead} dead");
                recovered = false;
            } else if !death_confirmed(mesh, i, dead, &baseline) {
                recovered = false;
            }
        }
        let hold = measure(mesh, "hold", &out);

        // Lift: crash windows restart the node on its old port and rebuild
        // its hint table by anti-entropy; the extra heartbeat/flush round
        // lets survivors mark the revival and re-advertise before the
        // recovery segment is measured.
        match crashed {
            Some(node) => {
                let rebuilt = mesh.restart(node).expect("restart crashed node");
                recovered_hints.push(rebuilt);
                println!("window {i}: node {node} restarted, {rebuilt} hint records resynced");
                mesh.heartbeat_all();
                mesh.flush_all();
            }
            None => mesh.lift(w.fault).expect("lift fault"),
        }
        let out = replay(mesh, "post", w.post, None);
        let post = measure(mesh, "post", &out);

        if post.errors > 0 {
            eprintln!(
                "window {i}: {} errors after the fault was lifted",
                post.errors
            );
            recovered = false;
        }
        if post.hit_ratio + 0.25 < pre.hit_ratio {
            eprintln!(
                "window {i}: hit ratio collapsed {:.3} -> {:.3} after recovery",
                pre.hit_ratio, post.hit_ratio
            );
            recovered = false;
        }
        segments.extend([pre, hold, post]);
    }
    WindowsOutcome {
        planned,
        segments,
        recovered_hints,
        recovered,
    }
}

/// Each node's full registry snapshot, iterated into the dump — no
/// field-by-field plumbing, so new metrics can't silently fall out.
pub(crate) fn node_reports(mesh: &Mesh) -> Vec<ChaosNodeReport> {
    mesh.addrs()
        .iter()
        .zip(mesh.metric_snapshots())
        .map(|(addr, snapshot)| ChaosNodeReport {
            addr: addr.to_string(),
            metrics: metric_values(&snapshot.unwrap_or_default()),
        })
        .collect()
}

/// Writes the deterministic `obs_dump.json` of a window run: plan-derived
/// values only, so two runs of the same seeded plan write byte-identical
/// files (CI diffs them alongside the deterministic artifact).
pub(crate) fn write_windows_obs_dump(
    args: &Args,
    prefix: &str,
    plan: &FaultPlan,
    planned: &[PlannedSegment],
) {
    let obs = Registry::new();
    let counter = |name: &str, help: &str, value: u64| {
        obs.counter(
            format!("{prefix}.{name}"),
            Unit::Count,
            help,
            Determinism::Deterministic,
        )
        .add(value);
    };
    counter(
        "windows",
        "fault windows executed",
        plan.windows.len() as u64,
    );
    counter("segments", "replay segments planned", planned.len() as u64);
    counter(
        "requests_planned",
        "requests issued across all planned segments",
        planned.iter().map(|s| s.requests).sum(),
    );
    write_obs_dump(args, &obs);
}

/// Runs the fault plan end to end, writing all three artifacts into
/// `args.out`; returns `false` if any window failed its recovery check.
///
/// # Panics
///
/// Panics on mesh spawn or artifact I/O failure (harness semantics:
/// loud failures).
pub fn run_chaos(args: &Args, opts: &ChaosOptions, plan: FaultPlan) -> bool {
    println!(
        "chaos: {} windows over {} nodes, {} requests total",
        plan.windows.len(),
        opts.nodes,
        plan.total_requests()
    );
    let (log_path, log_bytes) = write_event_log(args, "loadgen_chaos_events.log", &plan);

    let spec = WorkloadSpec::small()
        .with_requests(plan.total_requests())
        .with_clients(opts.nodes as u32 * 256)
        .with_p_new(opts.p_new);
    let records: Vec<TraceRecord> = TraceGenerator::new(&spec, plan.seed).collect();

    let mut mesh = spawn_fast_mesh(Topology::Flat { nodes: opts.nodes }, opts);
    let run = run_windows(&mut mesh, &plan, opts, &spec, &records, |_, _, _, _| true);
    let node_reports = node_reports(&mesh);
    write_windows_obs_dump(args, "chaos", &plan, &run.planned);

    args.write_json(
        "loadgen_chaos",
        &ChaosResult {
            plan,
            nodes: opts.nodes,
            client_threads: opts.clients,
            segments: run.planned,
            recovered: run.recovered,
        },
    );
    args.write_json(
        "loadgen_chaos_metrics",
        &ChaosMetrics {
            segments: run.segments,
            recovered_hints: run.recovered_hints,
            node_reports,
        },
    );
    println!(
        "chaos event log: {} ({log_bytes} bytes)",
        log_path.display()
    );
    println!("recovered: {}", run.recovered);
    mesh.shutdown();
    run.recovered
}
