//! Warm-restart recovery benchmark: durable-log replay vs anti-entropy
//! resync.
//!
//! Two identical meshes are warmed with the same seeded workload, then
//! the same node is crashed and restarted in each:
//!
//! * **log_replay** — nodes run with [`bh_proto::node::NodeConfig::durability_dir`]
//!   set, so the restarted node recovers its hint table by replaying
//!   the crash-safe log at spawn: zero network traffic.
//! * **resync** — the PR-4 baseline: no durable log, the restarted node
//!   rebuilds its hint table with a mesh-wide anti-entropy
//!   [`resync`](bh_proto::node::CacheNode::resync) pull.
//!
//! Output follows the chaos harness's deterministic/measured split:
//!
//! * `BENCH_recovery_plan.json` — pure function of the seed: mesh
//!   shape, planned request count, crash target, mode list. CI runs the
//!   benchmark twice and byte-compares this artifact.
//! * `BENCH_recovery.json` — the measured comparison: hints recovered,
//!   restart wall time, and replay time per mode, plus the restarted
//!   node's full metric dump (so `hints_recovered_from_log`,
//!   `hint_log_replay_micros`, and `hint_auth_failures` are grep-able).
//! * `obs_dump.json` — deterministic obs-registry dump of the
//!   plan-derived values.

use crate::chaos::{fast_mesh_config, replay_segment, ChaosOptions};
use crate::report::{metric_values, write_obs_dump, MetricValue};
use crate::Args;
use bh_obs::{Determinism, Registry, Unit};
use bh_proto::mesh::{Mesh, Topology};
use bh_proto::origin::OriginServer;
use bh_trace::{TraceGenerator, TraceRecord, WorkloadSpec};
use serde::Serialize;
use std::time::Instant;

/// Mesh shape and crash target for a recovery run.
#[derive(Debug, Clone)]
pub struct RecoveryOptions {
    /// Cache nodes in the full mesh.
    pub nodes: usize,
    /// Warm-up requests replayed before the crash.
    pub requests: u64,
    /// Spawn index of the node to crash and restart.
    pub crash_node: usize,
    /// Closed-loop client threads for the warm-up replay.
    pub clients: usize,
}

impl Default for RecoveryOptions {
    fn default() -> Self {
        RecoveryOptions {
            nodes: 3,
            requests: 1500,
            crash_node: 1,
            clients: 8,
        }
    }
}

/// The deterministic `BENCH_recovery_plan.json` artifact.
#[derive(Debug, Serialize)]
struct RecoveryPlan {
    seed: u64,
    nodes: usize,
    crash_node: usize,
    /// Cacheable records in the warm-up slice — fixed by the seed.
    requests_planned: u64,
    modes: [&'static str; 2],
}

/// One mode's measured outcome in `BENCH_recovery.json`.
#[derive(Debug, Serialize)]
struct ModeOutcome {
    mode: &'static str,
    /// Hint records the crashed node held when it went down.
    hints_before_crash: usize,
    /// Hint records recovered by the restart (log replay or resync).
    hints_recovered: usize,
    /// Wall time of the whole restart (respawn + recovery), micros.
    restart_micros: u64,
    /// Spawn-time log replay micros (0 in resync mode).
    replay_micros: u64,
    /// The restarted node's full metric dump.
    metrics: Vec<MetricValue>,
}

/// The measured `BENCH_recovery.json` artifact.
#[derive(Debug, Serialize)]
struct RecoveryResult {
    plan: RecoveryPlan,
    outcomes: Vec<ModeOutcome>,
    /// True when the durable-log mode recovered hints without resync
    /// and the baseline recovered via resync.
    recovered: bool,
}

/// Runs the comparison and writes the three artifacts. Returns `true`
/// when the warm restart measurably recovered hints from the log while
/// the baseline had to resync.
pub fn run_recovery(args: &Args, opts: &RecoveryOptions) -> bool {
    let spec = WorkloadSpec::small()
        .with_requests(opts.requests)
        .with_clients(opts.nodes as u32 * 256)
        .with_p_new(0.35);
    let records: Vec<TraceRecord> = TraceGenerator::new(&spec, args.seed).collect();
    let requests_planned = records.iter().filter(|r| r.is_cacheable()).count() as u64;

    let plan = RecoveryPlan {
        seed: args.seed,
        nodes: opts.nodes,
        crash_node: opts.crash_node,
        requests_planned,
        modes: ["log_replay", "resync"],
    };
    std::fs::create_dir_all(&args.out).expect("create output dir");
    args.write_json("BENCH_recovery_plan", &plan);

    let replay_opts = ChaosOptions {
        nodes: opts.nodes,
        clients: opts.clients,
        shards: 1,
        workers: 8,
        p_new: 0.35,
    };

    let mut outcomes = Vec::with_capacity(2);
    for mode in plan.modes {
        let durable = mode == "log_replay";
        // Fresh per-node log directories under the output dir, wiped
        // before each run so a stale snapshot can't leak across runs.
        let log_root = args.out.join("recovery_hintlog");
        if durable {
            let _ = std::fs::remove_dir_all(&log_root);
        }
        let origin = OriginServer::spawn("127.0.0.1:0").expect("spawn origin");
        let topology = Topology::Flat { nodes: opts.nodes };
        let mut mesh = Mesh::spawn(origin, topology, |i, c| {
            let c = fast_mesh_config(c, &replay_opts);
            if durable {
                c.with_durability_dir(log_root.join(format!("node{i}")))
            } else {
                c
            }
        })
        .expect("spawn recovery mesh");

        // Warm the mesh, then flush twice: once to propagate hint
        // batches, once more so receivers persist what they learned.
        let mut cursor = 0usize;
        let (_out, _issued) = replay_segment(
            &mesh,
            &replay_opts,
            &spec,
            &records,
            &mut cursor,
            opts.requests,
            None,
        );
        mesh.flush_all();
        mesh.flush_all();

        let victim = mesh.node(opts.crash_node).expect("victim node is live");
        let hints_before_crash = victim.hint_entries().len();
        mesh.crash(opts.crash_node);

        // bh-lint: allow(no-wall-clock, reason = "restart wall time on a live mesh is the measured quantity; only the plan artifact is byte-compared")
        let t0 = Instant::now();
        let hints_recovered = mesh.restart(opts.crash_node).expect("restart victim");
        let restart_micros = t0.elapsed().as_micros() as u64;

        let restarted = mesh.node(opts.crash_node).expect("restarted node");
        let stats = restarted.stats();
        let metrics = metric_values(&restarted.metrics_snapshot());
        outcomes.push(ModeOutcome {
            mode,
            hints_before_crash,
            hints_recovered,
            restart_micros,
            replay_micros: stats.hint_log_replay_micros,
            metrics,
        });
        println!(
            "recovery[{mode}]: {hints_before_crash} hints before crash, \
             {hints_recovered} recovered in {restart_micros} us \
             (log replay {} us, resyncs {})",
            stats.hint_log_replay_micros,
            stats.hints_recovered_from_log == 0,
        );
        mesh.shutdown();
    }

    let log_mode = &outcomes[0];
    let resync_mode = &outcomes[1];
    let recovered = log_mode.hints_recovered > 0
        && log_mode.replay_micros > 0
        && resync_mode.hints_recovered > 0
        && resync_mode.replay_micros == 0;

    let result = RecoveryResult {
        plan: RecoveryPlan {
            seed: args.seed,
            nodes: opts.nodes,
            crash_node: opts.crash_node,
            requests_planned,
            modes: ["log_replay", "resync"],
        },
        outcomes,
        recovered,
    };
    args.write_json("BENCH_recovery", &result);

    // Deterministic obs dump: plan-derived values only.
    let registry = Registry::new();
    registry
        .counter(
            "recovery.nodes",
            Unit::Count,
            "mesh size of the recovery benchmark",
            Determinism::Deterministic,
        )
        .add(opts.nodes as u64);
    registry
        .counter(
            "recovery.requests_planned",
            Unit::Count,
            "cacheable warm-up requests fixed by the seed",
            Determinism::Deterministic,
        )
        .add(requests_planned);
    registry
        .counter(
            "recovery.crash_node",
            Unit::Count,
            "spawn index of the crash/restart target",
            Determinism::Deterministic,
        )
        .add(opts.crash_node as u64);
    write_obs_dump(args, &registry);

    println!(
        "recovery: log_replay={} resync_baseline={} -> {}",
        result.outcomes[0].hints_recovered,
        result.outcomes[1].hints_recovered,
        if recovered { "OK" } else { "FAILED" }
    );
    recovered
}
