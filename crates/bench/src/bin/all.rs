//! Runs the complete experiment suite (every table and figure).
//!
//! The suite runs **in-process**: every experiment's job plan is flattened
//! onto one shared work-stealing queue (`--jobs N` workers, default: CPU
//! count), materialized trace arenas are shared through the
//! process-wide cache, and the per-experiment output sections are printed
//! sequentially in the canonical order — so stdout and the JSON artifacts
//! are byte-identical for any `--jobs` value.
//!
//! ```text
//! cargo run --release -p bh-bench --bin all -- --scale 0.05 --jobs 4
//! ```

use bh_bench::report::write_obs_dump;
use bh_bench::suite::{obs_registry, registry, run_suite};
use bh_bench::Args;
use std::time::Instant;

fn main() {
    let passthrough: Vec<String> = std::env::args().skip(1).collect();
    let experiments = registry();

    // Each experiment parses the same flag list but keeps its historical
    // per-binary scale default when --scale is absent.
    let per_args: Vec<Args> = experiments
        .iter()
        .map(|e| Args::parse_from(passthrough.iter().cloned(), e.default_scale()))
        .collect();
    let jobs = per_args[0].jobs;

    // bh-lint: allow(no-wall-clock, reason = "reports suite wall time to the operator; never feeds results")
    let start = Instant::now();
    let timings = run_suite(&experiments, &per_args, jobs);
    let wall = start.elapsed();

    eprintln!("\nall experiments completed; JSON artifacts in target/experiments/");
    eprintln!("\nSuite timing (--jobs {jobs}):");
    eprintln!(
        "{:<12} {:>6} {:>12} {:>12}",
        "experiment", "jobs", "job-time", "finish"
    );
    for t in &timings {
        eprintln!(
            "{:<12} {:>6} {:>11.2}s {:>11.2}s",
            t.name,
            t.jobs,
            t.job_time.as_secs_f64(),
            t.finish_time.as_secs_f64()
        );
    }
    let job_total: f64 = timings.iter().map(|t| t.job_time.as_secs_f64()).sum();
    eprintln!(
        "total: {:.2}s wall-clock ({:.2}s of job work across {} workers)",
        wall.as_secs_f64(),
        job_total,
        jobs
    );

    // Deterministic obs dump for the whole suite run (jobs-per-experiment
    // counters only; the measured timings stay in the table above).
    write_obs_dump(&per_args[0], &obs_registry(&timings));
}
