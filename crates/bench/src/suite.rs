//! The in-process experiment suite: experiments as job plans.
//!
//! Every experiment binary used to be a monolithic `main` that computed
//! and printed as it went. The suite splits each experiment into
//!
//! * [`Experiment::plan`] — a list of independent, silent [`Job`]s (one
//!   per grid cell / strategy / workload), and
//! * [`Experiment::finish`] — the sequential tail that downcasts the job
//!   results, prints the paper-format tables, and archives the JSON.
//!
//! Standalone binaries run their own plan through [`run_standalone`]. The
//! `all` binary flattens *every* experiment's plan into one shared queue
//! and feeds it to [`bh_simcore::par::sweep`], so a long job at the tail
//! of one experiment overlaps with the next experiment's grid instead of
//! serializing the suite. Finishes then run in canonical order, which
//! keeps stdout and artifact contents independent of `--jobs`.

use crate::Args;
use std::any::Any;
use std::time::{Duration, Instant};

/// What a job returns: any sendable value, downcast by `finish`.
pub type JobOutput = Box<dyn Any + Send>;

/// One independent unit of work. Jobs must not print — all output belongs
/// to [`Experiment::finish`], which runs in canonical order.
pub type Job = Box<dyn FnOnce() -> JobOutput + Send>;

/// Boxes a typed closure as a [`Job`].
pub fn job<T: Any + Send, F: FnOnce() -> T + Send + 'static>(f: F) -> Job {
    Box::new(move || Box::new(f()) as JobOutput)
}

/// Downcasts one job output back to its concrete type.
///
/// # Panics
///
/// Panics if the output is not a `T` — a plan/finish mismatch, which is a
/// programming error.
pub fn take<T: Any>(output: JobOutput) -> T {
    *output
        .downcast::<T>()
        .unwrap_or_else(|_| panic!("job output has unexpected type"))
}

/// One table or figure of the paper, as a parallel job plan plus a
/// sequential finish.
pub trait Experiment: Sync {
    /// The experiment's (and its binary's) name, e.g. `"fig2"`.
    fn name(&self) -> &'static str;
    /// The workload scale this experiment defaults to when `--scale` is
    /// not given (matches the historical per-binary defaults).
    fn default_scale(&self) -> f64;
    /// Builds the list of independent jobs for `args`.
    fn plan(&self, args: &Args) -> Vec<Job>;
    /// Consumes the job results (in plan order), prints the experiment's
    /// output, and writes its JSON artifact.
    fn finish(&self, args: &Args, results: Vec<JobOutput>);
}

/// Every suite experiment, in the canonical (paper) order.
pub fn registry() -> Vec<Box<dyn Experiment>> {
    vec![
        Box::new(crate::runners::fig1::Fig1),
        Box::new(crate::runners::table3::Table3),
        Box::new(crate::runners::table4::Table4),
        Box::new(crate::runners::fig2::Fig2),
        Box::new(crate::runners::fig3::Fig3),
        Box::new(crate::runners::fig5::Fig5),
        Box::new(crate::runners::fig6::Fig6),
        Box::new(crate::runners::table5::Table5),
        Box::new(crate::runners::fig8::Fig8),
        Box::new(crate::runners::fig10::Fig10),
        Box::new(crate::runners::fig11::Fig11),
        Box::new(crate::runners::ablations::Ablations),
        Box::new(crate::runners::scenario::ScenarioLag),
    ]
}

/// Runs one experiment end to end: plan, sweep the jobs over `args.jobs`
/// workers, finish. This is each standalone binary's `main`.
pub fn run_standalone(exp: &dyn Experiment) {
    let args = Args::parse(exp.default_scale());
    let jobs = exp.plan(&args);
    let results = bh_simcore::par::sweep(args.jobs, jobs, |_, j| j());
    exp.finish(&args, results);
}

/// Per-experiment accounting from a suite run.
#[derive(Debug, Clone)]
pub struct SuiteTiming {
    /// Experiment name.
    pub name: &'static str,
    /// Number of jobs the experiment planned.
    pub jobs: usize,
    /// Total time spent inside the experiment's jobs (summed across
    /// workers, so it can exceed wall-clock when `--jobs > 1`).
    pub job_time: Duration,
    /// Time spent in the sequential finish (printing + JSON).
    pub finish_time: Duration,
}

/// Runs the whole suite in one process over a single shared job queue.
///
/// All experiments' plans are flattened into one `sweep` call, so the
/// queue is topped up across experiment boundaries; finishes then run
/// sequentially in registry order. Returns per-experiment timings.
pub fn run_suite(
    experiments: &[Box<dyn Experiment>],
    per_args: &[Args],
    jobs: usize,
) -> Vec<SuiteTiming> {
    assert_eq!(experiments.len(), per_args.len());
    let mut flat: Vec<Job> = Vec::new();
    let mut spans = Vec::new(); // (start, len) into `flat` per experiment
    for (exp, args) in experiments.iter().zip(per_args) {
        let plan = exp.plan(args);
        spans.push((flat.len(), plan.len()));
        // Wrap each job to record its duration for the timing table.
        for j in plan {
            flat.push(Box::new(move || {
                // bh-lint: allow(no-wall-clock, reason = "per-job duration for the operator timing table; results never read it")
                let t = Instant::now();
                let out = j();
                Box::new((t.elapsed(), out)) as JobOutput
            }));
        }
    }
    let mut results: Vec<Option<JobOutput>> = bh_simcore::par::sweep(jobs, flat, |_, j| j())
        .into_iter()
        .map(Some)
        .collect();

    let mut timings = Vec::new();
    for ((exp, args), (start, len)) in experiments.iter().zip(per_args).zip(spans) {
        let mut job_time = Duration::ZERO;
        let mut outputs = Vec::with_capacity(len);
        for slot in &mut results[start..start + len] {
            let (elapsed, out): (Duration, JobOutput) =
                take(slot.take().expect("result consumed once"));
            job_time += elapsed;
            outputs.push(out);
        }
        eprintln!("\n>>> {}\n", exp.name());
        // bh-lint: allow(no-wall-clock, reason = "finish-phase duration for the operator timing table")
        let t = Instant::now();
        exp.finish(args, outputs);
        timings.push(SuiteTiming {
            name: exp.name(),
            jobs: len,
            job_time,
            finish_time: t.elapsed(),
        });
    }
    timings
}

/// Builds an obs registry describing one suite run: per-experiment job
/// counts (deterministic — a pure function of the flags) plus the
/// measured phase timings behind the operator timing table. The `all`
/// binary feeds this to [`crate::report::write_obs_dump`], which keeps
/// only the deterministic subset, so `obs_dump.json` stays byte-identical
/// across `--jobs` values.
pub fn obs_registry(timings: &[SuiteTiming]) -> bh_obs::Registry {
    use bh_obs::{Determinism, Unit};
    let r = bh_obs::Registry::new();
    for t in timings {
        r.counter(
            format!("suite.{}.jobs", t.name),
            Unit::Count,
            "jobs the experiment planned",
            Determinism::Deterministic,
        )
        .add(t.jobs as u64);
        r.counter(
            format!("suite.{}.job_micros", t.name),
            Unit::Micros,
            "summed job time across workers",
            Determinism::Measured,
        )
        .add(t.job_time.as_micros() as u64);
        r.counter(
            format!("suite.{}.finish_micros", t.name),
            Unit::Micros,
            "sequential finish (printing + JSON) time",
            Determinism::Measured,
        )
        .add(t.finish_time.as_micros() as u64);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_round_trips_through_any() {
        let j = job(|| vec![1u64, 2, 3]);
        assert_eq!(take::<Vec<u64>>(j()), vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "unexpected type")]
    fn take_panics_on_wrong_type() {
        let j = job(|| 42u32);
        take::<String>(j());
    }
}
