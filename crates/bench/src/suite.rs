//! The in-process experiment suite: experiments as job plans.
//!
//! Each experiment is split into
//!
//! * [`Experiment::plan`] — a list of independent, silent [`Job`]s (one
//!   per grid cell / strategy / workload), and
//! * [`Experiment::finish`] — the sequential tail that downcasts the job
//!   results, prints the paper-format tables, and archives the JSON.
//!
//! The `all` binary is the one way to run them: [`select`] turns its
//! command line into the experiments it names (every one when it names
//! none), and [`run_suite`] flattens their plans into one shared queue
//! fed to [`bh_simcore::par::sweep`], so a long job at the tail of one
//! experiment overlaps with the next experiment's grid instead of
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
    /// The experiment's name, e.g. `"fig2"`: what `all` takes to run it.
    fn name(&self) -> &'static str;
    /// The workload scale this experiment defaults to when `--scale` is
    /// not given.
    fn default_scale(&self) -> f64;
    /// Builds the list of independent jobs for `args`.
    fn plan(&self, args: &Args) -> Vec<Job>;
    /// Consumes the job results (in plan order), prints the experiment's
    /// output, and writes its JSON artifact.
    fn finish(&self, args: &Args, results: Vec<JobOutput>);
}

/// Every suite experiment, in the canonical (paper) order.
const REGISTRY: [&dyn Experiment; 12] = [
    &crate::runners::fig1::Fig1,
    &crate::runners::table3::Table3,
    &crate::runners::table4::Table4,
    &crate::runners::fig2::Fig2,
    &crate::runners::fig3::Fig3,
    &crate::runners::fig5::Fig5,
    &crate::runners::fig6::Fig6,
    &crate::runners::table5::Table5,
    &crate::runners::fig8::Fig8,
    &crate::runners::push::Push,
    &crate::runners::ablations::Ablations,
    &crate::runners::scenario::ScenarioLag,
];

/// One experiment of a suite run and the flags it runs under.
pub type Run = (&'static dyn Experiment, Args);

/// Resolves `all`'s command line — experiment names, then flags — into
/// the runs it asks for: the named experiments once each, in registry
/// order, or every experiment when no name is given. Each run parses the
/// same flags but keeps its own [`Experiment::default_scale`] unless
/// `--scale` is given.
///
/// # Errors
///
/// An unknown name, with a message listing the valid ones.
///
/// # Panics
///
/// Panics with a usage message on malformed flags (see
/// [`Args::parse_from`]).
pub fn select(raw: impl IntoIterator<Item = String>) -> Result<Vec<Run>, String> {
    let mut raw = raw.into_iter().peekable();
    let mut names = Vec::new();
    while let Some(name) = raw.next_if(|a| !a.starts_with('-')) {
        names.push(name);
    }
    let flags: Vec<String> = raw.collect();
    if let Some(unknown) = names
        .iter()
        .find(|n| REGISTRY.iter().all(|e| e.name() != n.as_str()))
    {
        let valid: Vec<&str> = REGISTRY.iter().map(|e| e.name()).collect();
        return Err(format!(
            "unknown experiment {unknown}; valid names: {}",
            valid.join(" ")
        ));
    }
    Ok(REGISTRY
        .into_iter()
        .filter(|e| names.is_empty() || names.iter().any(|n| n == e.name()))
        .map(|e| {
            (
                e,
                Args::parse_from(flags.iter().cloned(), e.default_scale()),
            )
        })
        .collect())
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

/// Runs `runs` in one process over a single shared job queue of `jobs`
/// workers.
///
/// All experiments' plans are flattened into one `sweep` call, so the
/// queue is topped up across experiment boundaries; finishes then run
/// sequentially in the order given. Returns per-experiment timings.
pub fn run_suite(runs: &[Run], jobs: usize) -> Vec<SuiteTiming> {
    let mut flat: Vec<Job> = Vec::new();
    let mut spans = Vec::new(); // (start, len) into `flat` per experiment
    for (exp, args) in runs {
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
    for ((exp, args), (start, len)) in runs.iter().zip(spans) {
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

    fn names(raw: &[&str]) -> Vec<&'static str> {
        let runs = select(raw.iter().map(|s| s.to_string())).expect("known names");
        runs.iter().map(|(e, _)| e.name()).collect()
    }

    #[test]
    fn no_name_selects_the_whole_registry() {
        let all: Vec<&str> = REGISTRY.iter().map(|e| e.name()).collect();
        assert_eq!(names(&[]), all);
        assert_eq!(names(&["--jobs", "1"]), all);
    }

    #[test]
    fn named_experiments_run_once_each_in_registry_order() {
        assert_eq!(
            names(&["push", "table3", "fig1", "table3"]),
            ["fig1", "table3", "push"]
        );
        assert_eq!(names(&["fig2", "fig2", "--seed", "7"]), ["fig2"]);
    }

    #[test]
    fn each_run_keeps_its_default_scale_unless_scale_is_given() {
        let raw = |r: &[&str]| r.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let runs = select(raw(&["fig1", "fig2", "--seed", "9"])).expect("known names");
        let scales: Vec<f64> = runs.iter().map(|(_, a)| a.scale).collect();
        assert_eq!(scales, [1.0, 0.1]);
        assert!(runs.iter().all(|(_, a)| a.seed == 9));
        let runs = select(raw(&["fig1", "fig2", "--scale", "0.005"])).expect("known names");
        assert!(runs.iter().all(|(_, a)| a.scale == 0.005));
    }

    #[test]
    fn an_unknown_name_is_an_error_listing_the_valid_ones() {
        let err = select(["fig2", "fig10"].map(String::from))
            .map(|_| ())
            .unwrap_err();
        assert!(
            err.starts_with("unknown experiment fig10; valid names: fig1 table3"),
            "{err}"
        );
        assert!(err.ends_with("push ablations scenario"), "{err}");
    }

    #[test]
    #[should_panic(expected = "unexpected type")]
    fn take_panics_on_wrong_type() {
        let j = job(|| 42u32);
        take::<String>(j());
    }
}
