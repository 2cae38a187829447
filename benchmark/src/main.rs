//! The repo benchmark. See README.md in this directory.
//!
//! ```text
//! bh-benchmark --workload NAME --seed N --seconds S --trace 0|1   one workload (the driver's form)
//! bh-benchmark [--seed N] [--seconds S] [--trace 0|1]             every workload, each in a fresh child process
//! bh-benchmark --calibrate N [--seed N] [--seconds S]             N full runs, spread table
//! ```
//!
//! Loopback only, zero-delay in-process origin: link rates and wire
//! latency are not measured here.

mod affinity;
mod clock;
mod heap;
mod iso;
mod ledger;
mod mesh;
mod procfs;
mod report;
mod sim;
mod spans;
mod stats;
mod window;

use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use affinity::Placement;
use bh_trace::MaterializedTrace;
use clock::{now_ns, secs_between};
use mesh::{Mesh, Round};
use report::{Outcome, RUN_SECONDS, WORKLOADS};
use spans::Recorder;
use stats::{best, median};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Fewest measured rounds a run is judged on.
const MIN_ROUNDS: usize = 3;

/// One-in-flight samples behind `client.unloaded_rtt_p50_us`.
const UNLOADED_SAMPLES: u64 = 2_000;

/// Rounds behind `node.two_cpu_ops_per_s`.
const TWO_CPU_ROUNDS: u64 = 3;

/// The benchmark's directory relative to the working directory: the
/// driver runs from the repo root, a developer may run from `benchmark/`.
fn bench_dir() -> PathBuf {
    if PathBuf::from("benchmark/Cargo.toml").exists() {
        PathBuf::from("benchmark")
    } else {
        PathBuf::from(".")
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The least disturbed round's `value`. Rounds are identical fixed work,
/// and what disturbs one on a shared host — a stolen time slice, a busy
/// sibling thread, contended memory — only ever slows it, so the best
/// round is the one nearest to what the program costs (see README.md for
/// the measurement that decided this against the median).
fn round_best<R>(rounds: &[&R], higher: bool, value: impl Fn(&R) -> f64) -> f64 {
    best(&rounds.iter().map(|r| value(r)).collect::<Vec<_>>(), higher)
}

/// How far the run's rounds lay apart: a wide gap between best and median
/// says the host disturbed the run.
fn spread_note(rates: Vec<f64>) -> String {
    format!(
        "ops_per_s over rounds: best {:.0}, median {:.0}, worst {:.0}",
        best(&rates, true),
        median(&rates),
        best(&rates, false)
    )
}

/// Seconds `set_up` takes. It runs everything that precedes the first
/// measured op, the discarded warm round included.
fn timed<T>(set_up: impl FnOnce() -> io::Result<T>) -> io::Result<(T, f64)> {
    let t0 = now_ns();
    let ready = set_up()?;
    Ok((ready, secs_between(t0, now_ns())))
}

/// `setup_s`: the median of the run's first set-up and of `SETUPS − 1`
/// more, each torn down before the next starts. The repeats run after the
/// measurement, so that peak RSS is that of one set-up and its rounds.
fn setup_median<T>(first_s: f64, set_up: impl Fn() -> io::Result<T>) -> io::Result<f64> {
    let mut times = vec![first_s];
    for _ in 1..SETUPS {
        times.push(timed(&set_up)?.1);
    }
    Ok(median(&times))
}

/// Runs rounds `1, 2, …` for at least `seconds`. A traced run records
/// spans in every second round, so the two kinds interleave and drift
/// cancels in their difference.
fn measure<R>(
    seconds: f64,
    traced: bool,
    recorder: &mut Recorder,
    mut round: impl FnMut(u64, &mut Recorder) -> io::Result<R>,
) -> io::Result<Vec<R>> {
    let min_rounds = if traced { 2 * MIN_ROUNDS } else { MIN_ROUNDS };
    let start = now_ns();
    let mut rounds = Vec::new();
    while rounds.len() < min_rounds || secs_between(start, now_ns()) < seconds {
        let index = rounds.len() as u64 + 1;
        recorder.set_enabled(traced && index.is_multiple_of(2));
        rounds.push(round(index, recorder)?);
    }
    recorder.set_enabled(traced);
    Ok(rounds)
}

fn ops_per_s(round: &Round) -> f64 {
    round.ops as f64 / (round.wall_ns as f64 / 1e9)
}

/// A warmed mesh that has run its discarded warm round.
fn ready_mesh(name: &str, seed: u64, place: Option<Placement>) -> io::Result<Mesh> {
    let mut mesh = Mesh::set_up(name, seed, place)?;
    mesh.round(0, &mut Recorder::new(false))?;
    Ok(mesh)
}

fn run_mesh(name: &str, seed: u64, seconds: f64, traced: bool) -> io::Result<Outcome> {
    let place = Placement::one_cpu();
    let (mut mesh, first_setup_s) = timed(|| ready_mesh(name, seed, place))?;
    let mut recorder = Recorder::new(false);
    let rounds = measure(seconds, traced, &mut recorder, |i, rec| mesh.round(i, rec))?;
    let plain: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
    let sum = |f: &dyn Fn(&Round) -> u64| rounds.iter().map(f).sum::<u64>();

    let mut out = Outcome {
        correct: true,
        attempted: sum(&|r| r.ops),
        failed: sum(&|r| r.failed),
        ..Outcome::default()
    };
    let m = &mut out.metrics;
    m.insert("peak_rss_mb", procfs::peak_rss_mb());
    m.insert("ops_per_s", round_best(&plain, true, ops_per_s));
    m.insert(
        "cpu_us_per_op",
        round_best(&plain, false, |r| {
            r.usage.cpu_ns as f64 / 1e3 / r.ops as f64
        }),
    );
    m.insert(
        "lat_p50_us",
        round_best(&plain, false, |r| f64::from(r.lat_p50_ns) / 1e3),
    );
    m.insert(
        "client.lat_p99_us",
        round_best(&plain, false, |r| f64::from(r.lat_p99_ns) / 1e3),
    );
    m.insert(
        "hit_ratio",
        ratio(sum(&|r| r.local + r.peer) as f64, out.attempted as f64),
    );

    check_mesh(&mesh, &rounds, &mut out);
    let first = &rounds[0];
    out.notes.push(format!(
        "per round: ops={} local={} peer={} origin={} updates_sent={} (window {}, {} rounds, {} latency samples each)",
        first.ops,
        first.local,
        first.peer,
        first.origin,
        first.counter("updates_sent"),
        mesh.window(),
        rounds.len(),
        first.ops - first.failed,
    ));
    out.notes
        .push(spread_note(plain.iter().map(|r| ops_per_s(r)).collect()));
    out.notes.push(format!(
        "entry node holds {} hints; one generator thread, 2 client connections, loopback, zero-delay origin",
        mesh.entry_hint_count()
    ));

    if traced {
        trace_mesh(&mut mesh, &rounds, &mut recorder, &mut out)?;
        write_trace(name, seed, &recorder)?;
    }
    drop(mesh);
    if traced {
        // The same workload with generator and servers on different CPUs.
        let mut apart = ready_mesh(name, seed, Placement::two_cpus())?;
        let mut rates = Vec::new();
        for i in 1..=TWO_CPU_ROUNDS {
            rates.push(ops_per_s(&apart.round(i, &mut Recorder::new(false))?));
        }
        out.metrics
            .insert("node.two_cpu_ops_per_s", best(&rates, true));
    }
    let setup_s = setup_median(first_setup_s, || ready_mesh(name, seed, place))?;
    out.metrics.insert("setup_s", setup_s);
    Ok(out)
}

/// The output checks of the mesh workloads.
fn check_mesh(mesh: &Mesh, rounds: &[Round], out: &mut Outcome) {
    let name = mesh.name();
    if out.failed > 0 {
        out.fail(format!(
            "{} of {} requests failed",
            out.failed, out.attempted
        ));
    }
    for (i, r) in rounds.iter().enumerate() {
        if r.local + r.peer + r.origin + r.failed != r.ops {
            out.fail(format!("round {}: outcome counts do not sum to ops", i + 1));
        }
        for zero in ["hint_batch_overflow", "admission_rejects", "service_errors"] {
            if r.counter(zero) != 0 {
                out.fail(format!("round {}: {zero} = {}", i + 1, r.counter(zero)));
            }
        }
        let expected_updates = match name {
            "local_hit" | "peer_hit" => Some(0),
            // Each miss adds one object and evicts one: two updates, each
            // delivered to three neighbours.
            "origin_fill" => Some(r.origin * 2 * 3),
            _ => None,
        };
        let shares_ok = match name {
            "local_hit" => r.local == r.ops,
            "peer_hit" => r.peer * 100 >= r.ops * 99,
            "origin_fill" => r.origin * 16 == r.ops * 15 && r.local * 16 == r.ops,
            _ => true,
        };
        if !shares_ok {
            out.fail(format!(
                "round {}: local={} peer={} origin={} of {} ops",
                i + 1,
                r.local,
                r.peer,
                r.origin,
                r.ops
            ));
        }
        if expected_updates.is_some_and(|e| e != r.counter("updates_sent")) {
            out.fail(format!(
                "round {}: updates_sent = {}, expected {expected_updates:?}",
                i + 1,
                r.counter("updates_sent")
            ));
        }
        // Rounds are identical work, so on the fixed workloads their
        // outcome counts are identical too.
        let same =
            |a: &Round, b: &Round| (a.local, a.peer, a.origin) == (b.local, b.peer, b.origin);
        if name != "trace_mix" && !same(r, &rounds[0]) {
            out.fail(format!(
                "round {}: outcome counts differ from round 1",
                i + 1
            ));
        }
    }
}

/// Per-layer metrics of a mesh workload: counter deltas and `/proc` over
/// the traced rounds, the isolated rows, and the ledger.
fn trace_mesh(
    mesh: &mut Mesh,
    rounds: &[Round],
    recorder: &mut Recorder,
    out: &mut Outcome,
) -> io::Result<()> {
    let traced: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
    let plain: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
    let total = |f: &dyn Fn(&Round) -> u64| traced.iter().map(|r| f(r)).sum::<u64>() as f64;
    let counter = |name: &str| total(&|r| r.counter(name));
    let ops = total(&|r| r.ops);
    let per_op = |v: f64| ratio(v, ops);

    let rtts = mesh.unloaded_rtts_us(UNLOADED_SAMPLES)?;
    let now = mesh.counters_now();
    let gauge = |name: &str| now.get(name).copied().unwrap_or(0) as f64;
    let (plain_rate, traced_rate) = (
        round_best(&plain, true, ops_per_s),
        round_best(&traced, true, ops_per_s),
    );
    let probes = counter("peer_hits") + counter("false_positives");
    let cpu_ticks = total(&|r| r.usage.utime_ticks + r.usage.stime_ticks);
    let situ = ledger::Situ {
        local_share: per_op(total(&|r| r.local)),
        peer_share: per_op(total(&|r| r.peer)),
        origin_share: per_op(total(&|r| r.origin)),
        false_positives_per_op: per_op(counter("false_positives")),
        updates_sent_per_op: per_op(counter("updates_sent")),
        flush_targets: mesh.flush_targets(),
        bytes_per_op: per_op(total(&|r| r.body_bytes)),
        client_reads_per_op: per_op(total(&|r| r.client_reads)),
        cpu_us_per_op: per_op(total(&|r| r.usage.cpu_ns) / 1e3),
    };

    let m = &mut out.metrics;
    m.insert(
        "netpoll.writev_batches_per_op",
        per_op(counter("writev_batches")),
    );
    m.insert(
        "netpoll.wakeups_coalesced_per_op",
        per_op(counter("wakeups_coalesced")),
    );
    m.insert("pool.live_connections", gauge("pool_live_connections"));
    m.insert("pool.reconnect_attempts", gauge("pool_reconnect_attempts"));
    m.insert("node.spawn_ms", mesh.spawn_ms);
    m.insert(
        "node.service_us_mean",
        ratio(
            counter("request_service_micros.sum"),
            counter("request_service_micros.count"),
        ),
    );
    m.insert(
        "node.ctx_switches_per_op",
        per_op(total(&|r| r.usage.voluntary)),
    );
    m.insert(
        "node.invol_ctx_switches_per_op",
        per_op(total(&|r| r.usage.involuntary)),
    );
    m.insert(
        "node.sys_cpu_share",
        ratio(total(&|r| r.usage.stime_ticks), cpu_ticks),
    );
    m.insert(
        "node.flush_us_per_update",
        ratio(total(&|r| r.flush_ns) / 1e3, counter("updates_sent")),
    );
    m.insert("node.updates_sent_per_op", situ.updates_sent_per_op);
    m.insert(
        "node.updates_filtered_ratio",
        ratio(counter("updates_filtered"), counter("updates_received")),
    );
    m.insert("node.local_share", situ.local_share);
    m.insert("node.peer_share", situ.peer_share);
    m.insert("node.origin_share", situ.origin_share);
    m.insert(
        "node.false_positive_ratio",
        ratio(counter("false_positives"), probes),
    );
    m.insert("node.bytes_per_op", situ.bytes_per_op);
    m.insert("node.hint_batch_overflow", counter("hint_batch_overflow"));
    m.insert("node.admission_rejects", counter("admission_rejects"));
    m.insert("node.service_errors", counter("service_errors"));
    m.insert(
        "client.cpu_us_per_op",
        per_op(total(&|r| r.usage.self_cpu_ns) / 1e3),
    );
    m.insert(
        "client.unloaded_rtt_p50_us",
        rtts.get(rtts.len() / 2).copied().unwrap_or(0.0),
    );
    m.insert(
        "bench.trace_overhead_ratio",
        ratio(plain_rate - traced_rate, plain_rate),
    );

    let iso = iso::mesh_rows(recorder, &mesh.urls, &bench_dir().join("out"))?;
    let terms = ledger::terms(&iso, &situ);
    let share = ledger::attributed_share(&terms, &situ);
    out.metrics.extend(iso);
    let ledger_key = match mesh.name() {
        "local_hit" => "ledger.local_hit.attributed_share",
        "peer_hit" => "ledger.peer_hit.attributed_share",
        "origin_fill" => "ledger.origin_fill.attributed_share",
        _ => "ledger.trace_mix.attributed_share",
    };
    out.metrics.insert(ledger_key, share);
    out.notes.push(format!(
        "ledger: {:.3} us CPU per op measured, {:.1}% attributed:",
        situ.cpu_us_per_op,
        share * 100.0
    ));
    for (name, ns) in terms.iter().filter(|(_, ns)| *ns > 0.0) {
        out.notes.push(format!("  {name:<24} {ns:>10.1} ns/op"));
    }
    Ok(())
}

/// The traces with the discarded warm round run over them.
fn ready_traces(seed: u64) -> io::Result<Vec<MaterializedTrace>> {
    let traces = sim::generate(seed);
    sim::round(&traces, 0, &mut Recorder::new(false));
    Ok(traces)
}

fn run_sim(seed: u64, seconds: f64, traced: bool) -> io::Result<Outcome> {
    let (traces, first_setup_s) = timed(|| ready_traces(seed))?;
    let mut recorder = Recorder::new(false);
    let rounds = measure(seconds, traced, &mut recorder, |i, rec| {
        Ok(sim::round(&traces, i, rec))
    })?;
    let plain: Vec<&sim::SimRound> = rounds.iter().filter(|r| !r.traced).collect();

    let mut out = Outcome {
        correct: true,
        attempted: rounds.iter().map(|r| r.ops).sum(),
        ..Outcome::default()
    };
    let sorted_cells = |r: &sim::SimRound| {
        let mut c = r.cell_ns;
        c.sort_unstable();
        c
    };
    let ops_per_s = |r: &sim::SimRound| r.ops as f64 / (r.wall_ns as f64 / 1e9);
    let m = &mut out.metrics;
    m.insert("peak_rss_mb", procfs::peak_rss_mb());
    m.insert("ops_per_s", round_best(&plain, true, ops_per_s));
    m.insert(
        "cpu_us_per_op",
        round_best(&plain, false, |r| {
            r.usage.cpu_ns as f64 / 1e3 / r.ops as f64
        }),
    );
    // No request has a latency here: the "request" is a cell. p50 is the
    // median cell time, p99 the slowest cell (five samples support no more).
    m.insert(
        "lat_p50_us",
        round_best(&plain, false, |r| sorted_cells(r)[2] as f64 / 1e3),
    );
    m.insert(
        "client.lat_p99_us",
        round_best(&plain, false, |r| sorted_cells(r)[4] as f64 / 1e3),
    );
    m.insert("hit_ratio", rounds[0].hit_ratio);

    let digest = format!("{:016x}", rounds[0].digest);
    if rounds.iter().any(|r| r.digest != rounds[0].digest) {
        out.fail("simulated statistics differ between rounds".into());
    }
    let expected = bench_dir().join(format!("expected/sim_sweep.{seed}.digest"));
    match std::fs::read_to_string(&expected) {
        Ok(want) if want.trim() == digest => out
            .notes
            .push(format!("digest {digest} matches {}", expected.display())),
        Ok(want) => out.fail(format!(
            "digest {digest}, but {} holds {}",
            expected.display(),
            want.trim()
        )),
        Err(_) => out.notes.push(format!(
            "digest {digest} (no committed digest for seed {seed}; rounds agree)"
        )),
    }
    out.notes
        .push(spread_note(plain.iter().map(|r| ops_per_s(r)).collect()));
    let records: usize = traces.iter().map(MaterializedTrace::len).sum();
    out.notes.push(format!(
        "{} traces, {records} records x {} cells per round, {} rounds, single thread",
        traces.len(),
        sim::CELLS.len(),
        rounds.len()
    ));
    if out.metrics["hit_ratio"] <= 0.0 {
        out.fail("the delayed hint cell reports no hits".into());
    }

    if traced {
        let traced_rounds: Vec<&sim::SimRound> = rounds.iter().filter(|r| r.traced).collect();
        for (i, cell) in sim::CELLS.iter().enumerate() {
            let secs = round_best(&traced_rounds, false, |r| r.cell_ns[i] as f64 / 1e9);
            out.metrics
                .insert(cell.rate_row, ratio(records as f64, secs));
        }
        let peak = rounds[0].queue.map_or(0, |q| q.peak_depth);
        out.metrics.insert("simcore.queue_peak_depth", peak as f64);
        let (plain_rate, traced_rate) = (
            round_best(&plain, true, ops_per_s),
            round_best(&traced_rounds, true, ops_per_s),
        );
        out.metrics.insert(
            "bench.trace_overhead_ratio",
            ratio(plain_rate - traced_rate, plain_rate),
        );
        out.metrics
            .extend(iso::sim_rows(&mut recorder, &traces[0], seed));
        write_trace("sim_sweep", seed, &recorder)?;
    }
    drop(traces);
    let setup_s = setup_median(first_setup_s, || ready_traces(seed))?;
    out.metrics.insert("setup_s", setup_s);
    Ok(out)
}

fn write_trace(workload: &str, seed: u64, recorder: &Recorder) -> io::Result<()> {
    let dir = bench_dir().join("out");
    std::fs::create_dir_all(&dir)?;
    std::fs::write(
        dir.join(format!("trace.{workload}.json")),
        spans::render_trace_json(workload, seed, recorder.spans()),
    )
}

/// Runs one workload in this process and prints its table and result line.
fn run_one(workload: &str, seed: u64, seconds: f64, traced: bool) -> ExitCode {
    let Some(why) = WORKLOADS.iter().find(|(n, _)| *n == workload).map(|w| w.1) else {
        eprintln!("unknown workload {workload}");
        return ExitCode::from(2);
    };
    println!("== {workload} == {why}");
    if !heap::keep_freed_memory() {
        println!("could not fix malloc's thresholds; allocator noise applies");
    }
    match Placement::one_cpu() {
        Some(p) if affinity::run_on(p.generator) => {
            println!("every thread on CPU {}", p.generator);
        }
        _ => println!("could not pin to one CPU; placement noise applies"),
    }
    let outcome = if workload == "sim_sweep" {
        run_sim(seed, seconds, traced)
    } else {
        run_mesh(workload, seed, seconds, traced)
    };
    match outcome {
        Ok(mut outcome) => {
            if outcome.attempted == 0 {
                outcome.fail("no operation was attempted".into());
            }
            print!("{}", report::render_table(&outcome, traced));
            println!("{}", report::result_line(&outcome, traced));
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{workload}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs `workload` in a fresh child process (so its peak RSS, threads and
/// sockets are its own), echoes the child's table, and returns whether
/// its checks passed with the metric values the table shows.
fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> io::Result<(bool, BTreeMap<String, f64>)> {
    let output = Command::new(std::env::current_exe()?)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()?;
    let text = String::from_utf8_lossy(&output.stdout);
    let (table, _result_line) = text.trim_end().rsplit_once('\n').unwrap_or((&text, ""));
    println!("{table}");
    Ok((output.status.success(), report::table_values(table)))
}

/// Every workload once; nonzero when any output check failed.
fn run_all(seed: u64, seconds: f64, traced: bool) -> io::Result<bool> {
    println!(
        "bh-benchmark: seed {seed}, {seconds} s per workload, {} cores, loopback only, zero-delay in-process origin",
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    let mut all_correct = true;
    let mut traces = Vec::new();
    for (workload, _) in WORKLOADS {
        let (correct, _) = run_child(workload, seed, seconds, traced)?;
        all_correct &= correct;
        if traced {
            let path = bench_dir().join(format!("out/trace.{workload}.json"));
            traces.push(std::fs::read_to_string(path)?);
        }
    }
    if traced {
        let joined = format!("{{\"workloads\": [\n{}]}}\n", traces.join(","));
        std::fs::write(bench_dir().join("out/trace.json"), joined)?;
        println!("spans: {}", bench_dir().join("out/trace.json").display());
    }
    println!(
        "output checks: {}",
        if all_correct { "all passed" } else { "FAILED" }
    );
    Ok(all_correct)
}

/// `runs` full untraced runs, each on another seed, as the driver does;
/// prints per metric × workload the median, quartiles and spreads.
fn calibrate(runs: u64, seed: u64, seconds: f64) -> io::Result<bool> {
    let mut samples: BTreeMap<(usize, usize), Vec<f64>> = BTreeMap::new();
    let mut all_correct = true;
    for run in 0..runs {
        for (w, (workload, _)) in WORKLOADS.iter().enumerate() {
            let (correct, metrics) = run_child(workload, seed + run, seconds, false)?;
            all_correct &= correct;
            for (m, (def, _)) in report::END_TO_END.iter().enumerate() {
                let value = metrics.get(def.name).copied().unwrap_or(0.0);
                samples.entry((m, w)).or_default().push(value);
            }
        }
    }
    println!(
        "\n| metric | workload | median | q1 | q3 | (q3-q1)/median | (max-min)/median | bound |"
    );
    println!("|---|---|---|---|---|---|---|---|");
    for ((m, w), values) in &samples {
        let (def, bound) = report::END_TO_END[*m];
        let (q1, q3) = stats::quartiles(values);
        println!(
            "| `{}` | `{}` | {:.4} | {:.4} | {:.4} | {:.4} | {:.4} | {bound} |",
            def.name,
            WORKLOADS[*w].0,
            median(values),
            q1,
            q3,
            stats::iqr_share(values),
            stats::range_share(values),
        );
    }
    Ok(all_correct)
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    calibrate: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        traced: false,
        calibrate: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: &str| format!("{flag}: cannot read {v:?}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?,
            "--seconds" => args.seconds = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?,
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--calibrate" => {
                args.calibrate = Some(value().and_then(|v| v.parse().map_err(|_| bad(&v)))?);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("bh-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(workload) = &args.workload {
        return run_one(workload, args.seed, args.seconds, args.traced);
    }
    let all_correct = match args.calibrate {
        Some(runs) => calibrate(runs, args.seed, args.seconds),
        None => run_all(args.seed, args.seconds, args.traced),
    };
    match all_correct {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bh-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_runs_a_minimum_and_alternates_traced_rounds() {
        let mut recorder = Recorder::new(false);
        let seen =
            measure(0.0, true, &mut recorder, |i, rec| Ok((i, rec.enabled()))).expect("rounds");
        let want: Vec<(u64, bool)> = (1..=6).map(|i| (i, i % 2 == 0)).collect();
        assert_eq!(seen, want);
        assert!(recorder.enabled(), "left on for the isolated rows");

        let mut recorder = Recorder::new(false);
        let seen =
            measure(0.0, false, &mut recorder, |i, rec| Ok((i, rec.enabled()))).expect("rounds");
        assert_eq!(seen, vec![(1, false), (2, false), (3, false)]);
    }

    #[test]
    fn a_failed_round_stops_the_measurement() {
        let mut recorder = Recorder::new(false);
        let result = measure(0.0, false, &mut recorder, |i, _| {
            if i == 2 {
                Err(io::Error::other("lost connection"))
            } else {
                Ok(i)
            }
        });
        assert!(result.is_err());
    }

    #[test]
    fn round_best_is_the_least_disturbed_round() {
        let rounds = [4.0, 1.0, 9.0];
        let refs: Vec<&f64> = rounds.iter().collect();
        assert_eq!(round_best(&refs, true, |r| *r * 2.0), 18.0);
        assert_eq!(round_best(&refs, false, |r| *r * 2.0), 2.0);
    }

    #[test]
    fn setup_is_the_median_of_three() {
        let built = std::cell::Cell::new(0);
        let median_s = setup_median(1e9, || {
            built.set(built.get() + 1);
            Ok(())
        })
        .expect("set-ups");
        assert_eq!(built.get(), SETUPS - 1);
        assert!(median_s < 1.0, "two quick set-ups outvote the slow first");
    }
}
