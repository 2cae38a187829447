//! Trace-replay load generator for the live hint-protocol prototype.
//!
//! Spawns an origin plus an N-node full-mesh cache cluster on loopback and
//! replays a synthetic `bh-trace` workload through it from M concurrent
//! closed-loop clients (`bh_proto::replay::replay_concurrent`). Reports
//! aggregate throughput, hit/probe/false-positive counts, and p50/p95/p99
//! request latency, and writes the same JSON-artifact format as the other
//! experiment binaries to `<out>/loadgen.json`.
//!
//! ```text
//! loadgen [--nodes n] [--clients m] [--requests r]
//!         [--chaos smoke|<plan.json>] [--obs] [--seed n] [--out dir]
//! ```
//!
//! `--obs` scrapes every node's obs registry through the mesh API
//! (`Get mesh/nodes/self/metrics`) after the replay, prints a per-node
//! summary, and writes the full snapshots to `<out>/loadgen_obs.json`.
//!
//! `--chaos` switches to fault-injection mode, driven by the
//! [`bh_bench::chaos`] library: the workload is replayed segment by
//! segment under a [`FaultPlan`] (crash/restart, partition, one-way
//! partition, latency, drop), reporting hit rate, false-probe rate, and
//! latency percentiles before/during/after every fault window. The
//! deterministic schedule and request counts land in
//! `loadgen_chaos_events.log` + `loadgen_chaos.json` (byte-identical
//! across runs of the same seed); measured metrics land in
//! `loadgen_chaos_metrics.json`. The process exits nonzero if the mesh
//! fails to recover after any window.
//!
//! `--scenario` runs a named or file-loaded [`bh_bench::scenario`]
//! bundle — a scenario workload (flash crowd or diurnal churn), a mesh
//! topology (including the two-level hint hierarchy), and a fault plan
//! that may target hierarchy roles (`CrashParent`). Artifacts follow
//! the chaos naming with a `scenario_<name>` stem, and the process
//! exits nonzero unless every window recovered, every orphaned child
//! re-homed, and live Plaxton repair matched the analytic churn count.
//!
//! `--recovery` runs the warm-restart comparison
//! ([`bh_bench::recovery`]): the same seeded warm-up, crash, and
//! restart executed twice — once with the durable hint log
//! (`BENCH_recovery_plan.json` / `BENCH_recovery.json`) and once with
//! the resync baseline — and exits nonzero unless the log replay
//! recovered hints without a network resync.

use bh_bench::chaos::{run_chaos, ChaosOptions};
use bh_bench::meshapi::{metric_values_from_meta, pick, MeshClient};
use bh_bench::recovery::{run_recovery, RecoveryOptions};
use bh_bench::report::MetricValue;
use bh_bench::scenario::{run_scenario, Scenario};
use bh_bench::Args;
use bh_proto::chaos::FaultPlan;
use bh_proto::mesh::{Mesh, Topology};
use bh_proto::origin::OriginServer;
use bh_proto::replay::{replay_concurrent, ReplayConfig};
use bh_trace::{TraceGenerator, TraceRecord, WorkloadSpec};
use serde::Serialize;
use std::path::PathBuf;
use std::time::Duration;

/// Parsed loadgen CLI (a superset of the shared harness flags).
struct LoadgenArgs {
    nodes: usize,
    clients: usize,
    requests: u64,
    shards: usize,
    workers: usize,
    p_new: f64,
    seed: u64,
    chaos: Option<String>,
    scenario: Option<String>,
    recovery: bool,
    obs: bool,
    out: PathBuf,
}

impl LoadgenArgs {
    fn parse() -> LoadgenArgs {
        let mut args = LoadgenArgs {
            nodes: 4,
            clients: 16,
            requests: 50_000,
            shards: 1,
            workers: 16,
            p_new: 0.35,
            seed: 42,
            chaos: None,
            scenario: None,
            recovery: false,
            obs: false,
            out: PathBuf::from("target/experiments"),
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = |what: &str| {
                it.next()
                    .unwrap_or_else(|| panic!("{flag} requires a {what} argument"))
            };
            match flag.as_str() {
                "--nodes" => {
                    args.nodes = value("count").parse().expect("--nodes takes an integer");
                    assert!(args.nodes >= 1, "--nodes must be at least 1");
                }
                "--clients" => {
                    args.clients = value("count").parse().expect("--clients takes an integer");
                    assert!(args.clients >= 1, "--clients must be at least 1");
                }
                "--requests" => {
                    args.requests = value("count").parse().expect("--requests takes an integer");
                }
                "--shards" => {
                    args.shards = value("count").parse().expect("--shards takes an integer");
                }
                "--workers" => {
                    args.workers = value("count").parse().expect("--workers takes an integer");
                }
                "--p-new" => {
                    args.p_new = value("probability").parse().expect("--p-new takes a float");
                    assert!(
                        (0.0..=1.0).contains(&args.p_new),
                        "--p-new must be in [0,1]"
                    );
                }
                "--seed" => args.seed = value("number").parse().expect("--seed takes an integer"),
                "--chaos" => args.chaos = Some(value("plan")),
                "--scenario" => args.scenario = Some(value("scenario")),
                "--recovery" => args.recovery = true,
                "--obs" => args.obs = true,
                "--out" => args.out = PathBuf::from(value("path")),
                "--help" | "-h" => {
                    println!(
                        "usage: loadgen [--nodes n] [--clients m] [--requests r] \
                         [--chaos smoke|<plan.json>] \
                         [--scenario flash-crowd|diurnal-churn|<scenario.json>] \
                         [--recovery] \
                         [--shards s] [--workers w] [--obs] \
                         [--p-new f] [--seed n] [--out dir]"
                    );
                    std::process::exit(0);
                }
                other => panic!("unknown flag {other}; try --help"),
            }
        }
        args
    }

    /// The shared-harness view of these args, for `write_json`.
    fn harness(&self) -> Args {
        Args {
            scale: 1.0,
            seed: self.seed,
            trace: "custom".to_string(),
            out: self.out.clone(),
            jobs: 1,
        }
    }

    /// The chaos-library view of these args.
    fn chaos_options(&self) -> ChaosOptions {
        ChaosOptions {
            nodes: self.nodes,
            clients: self.clients,
            shards: self.shards,
            workers: self.workers,
            p_new: self.p_new,
        }
    }
}

/// The measured replay run: the `loadgen.json` payload.
#[derive(Debug, Serialize)]
struct LoadgenRun {
    nodes: usize,
    client_threads: usize,
    requests: u64,
    errors: u64,
    local_hits: u64,
    peer_hits: u64,
    origin_fetches: u64,
    false_positives: u64,
    hit_ratio: f64,
    bytes: u64,
    wall_seconds: f64,
    requests_per_second: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
}

/// One node's end-of-run registry snapshot, scraped through the mesh
/// API (the `--obs` artifact).
#[derive(Debug, Serialize)]
struct ObsNode {
    addr: String,
    metrics: Vec<MetricValue>,
}

/// Scrapes every node through the mesh API namespace
/// (`Get mesh/nodes/self/metrics` per node — the same operator path
/// `obs get` uses) and prints a per-node summary.
fn scrape_nodes(mesh: &Mesh) -> Vec<ObsNode> {
    let client = MeshClient::new(mesh.addrs().to_vec());
    client
        .get_all("mesh/nodes/self/metrics")
        .expect("scrape node metrics")
        .into_iter()
        .map(|reply| {
            let metrics = metric_values_from_meta(&reply.entries);
            println!(
                "obs {:>21}  local {:>6}  peer {:>5}  origin {:>6}  fp {:>4}  \
                 served {:>7}  live-conns {:>3}",
                reply.addr,
                pick(&metrics, "local_hits"),
                pick(&metrics, "peer_hits"),
                pick(&metrics, "origin_fetches"),
                pick(&metrics, "false_positives"),
                pick(&metrics, "request_service_micros.count"),
                pick(&metrics, "pool_live_connections"),
            );
            ObsNode {
                addr: reply.addr.to_string(),
                metrics,
            }
        })
        .collect()
}

/// Spawns an origin plus a full mesh of `--nodes` cache nodes and replays
/// `records` through it from `--clients` closed-loop client threads.
fn run_replay(
    args: &LoadgenArgs,
    records: &[TraceRecord],
    spec: &WorkloadSpec,
) -> (LoadgenRun, Vec<ObsNode>) {
    let origin = OriginServer::spawn("127.0.0.1:0").expect("spawn origin");
    let mesh = Mesh::spawn(origin, Topology::Flat { nodes: args.nodes }, |_, c| {
        c.with_shards(args.shards)
            .with_workers(args.workers)
            .with_flush_max(Duration::from_millis(25))
    })
    .expect("spawn mesh");

    let mut config = ReplayConfig::flat_out(mesh.addrs().to_vec());
    config.clients_per_l1 = spec.clients_per_l1;
    config.dynamic_client_ids = spec.dynamic_client_ids;
    let outcome = replay_concurrent(&config, records, args.clients).expect("concurrent replay");

    let false_positives: u64 = mesh
        .stats()
        .iter()
        .flatten()
        .map(|s| s.false_positives)
        .sum();
    let [p50, p95, p99] = [
        outcome.latency.p50().unwrap_or(0.0),
        outcome.latency.p95().unwrap_or(0.0),
        outcome.latency.p99().unwrap_or(0.0),
    ];
    let run = LoadgenRun {
        nodes: args.nodes,
        client_threads: args.clients,
        requests: outcome.report.requests,
        errors: outcome.report.errors,
        local_hits: outcome.report.local_hits,
        peer_hits: outcome.report.peer_hits,
        origin_fetches: outcome.report.origin_fetches,
        false_positives,
        hit_ratio: outcome.report.hit_ratio(),
        bytes: outcome.report.bytes,
        wall_seconds: outcome.wall_seconds,
        requests_per_second: outcome.requests_per_second(),
        p50_ms: p50 * 1e3,
        p95_ms: p95 * 1e3,
        p99_ms: p99 * 1e3,
    };

    let scrapes = if args.obs {
        scrape_nodes(&mesh)
    } else {
        Vec::new()
    };

    mesh.shutdown();
    (run, scrapes)
}

fn print_run(run: &LoadgenRun) {
    println!(
        "{:>9.0} req/s  {:>7} req  {:>6} local  {:>6} peer  {:>6} origin  \
         {:>4} fp  {:>3} err  p50 {:>6.2} ms  p95 {:>6.2} ms  p99 {:>6.2} ms",
        run.requests_per_second,
        run.requests,
        run.local_hits,
        run.peer_hits,
        run.origin_fetches,
        run.false_positives,
        run.errors,
        run.p50_ms,
        run.p95_ms,
        run.p99_ms,
    );
}

fn main() {
    let args = LoadgenArgs::parse();
    let harness = args.harness();
    bh_bench::banner(
        "loadgen",
        "prototype under load: trace replay against a live loopback mesh",
        &harness,
    );

    if let Some(scenario_arg) = args.scenario.clone() {
        assert!(
            args.chaos.is_none(),
            "--scenario and --chaos are mutually exclusive"
        );
        let scenario = match Scenario::named(&scenario_arg, args.seed) {
            Some(s) => s,
            None => Scenario::load(std::path::Path::new(&scenario_arg))
                .unwrap_or_else(|e| panic!("{e}")),
        };
        scenario
            .validate()
            .unwrap_or_else(|e| panic!("invalid scenario: {e}"));
        let ok = run_scenario(&harness, &scenario);
        std::process::exit(if ok { 0 } else { 1 });
    }
    if args.recovery {
        assert!(
            args.chaos.is_none() && args.scenario.is_none(),
            "--recovery is mutually exclusive with --chaos and --scenario"
        );
        let opts = RecoveryOptions {
            nodes: args.nodes.max(2),
            requests: args.requests.min(5_000),
            crash_node: 1,
            clients: args.clients,
        };
        let ok = run_recovery(&harness, &opts);
        std::process::exit(if ok { 0 } else { 1 });
    }
    if let Some(plan_arg) = args.chaos.clone() {
        let plan = if plan_arg == "smoke" {
            FaultPlan::smoke(args.seed)
        } else {
            let text = std::fs::read_to_string(&plan_arg)
                .unwrap_or_else(|e| panic!("cannot read fault plan {plan_arg}: {e}"));
            serde_json::from_str(&text)
                .unwrap_or_else(|e| panic!("cannot parse fault plan {plan_arg}: {e}"))
        };
        plan.validate(args.nodes)
            .unwrap_or_else(|e| panic!("invalid fault plan: {e}"));
        let ok = run_chaos(&harness, &args.chaos_options(), plan);
        std::process::exit(if ok { 0 } else { 1 });
    }
    println!(
        "{} nodes (full mesh), {} client threads, {} trace records, seed {}",
        args.nodes, args.clients, args.requests, args.seed
    );

    // A compact, miss-heavy workload: enough first references to exercise the
    // origin path and enough sharing to drive peer probes and hint batches.
    // Uncachable/error records are skipped by the replayer, so oversample the
    // trace to land at least `--requests` issued requests.
    let spec = WorkloadSpec::small()
        .with_requests((args.requests as f64 / 0.9).ceil() as u64)
        .with_clients(args.nodes as u32 * 256)
        .with_p_new(args.p_new);
    let records: Vec<TraceRecord> = TraceGenerator::new(&spec, args.seed).collect();

    let (run, scrapes) = run_replay(&args, &records, &spec);
    print_run(&run);

    harness.write_json("loadgen", &run);
    if args.obs {
        harness.write_json("loadgen_obs", &scrapes);
    }
}
