//! Experiment harness: every table and figure of the paper (see
//! `DESIGN.md` §3), run by the `all` binary, plus the live-mesh chaos and
//! scenario harnesses behind `loadgen`.
//!
//! `all` takes experiment names (none means every one, see
//! [`suite::select`]) and then a tiny CLI:
//!
//! ```text
//! --scale <f>    workload scale factor in (0,1]; default per experiment
//! --seed <n>     PRNG seed (default 42)
//! --trace <t>    dec | berkeley | prodigy | all (default all)
//! --out <dir>    JSON output directory (default target/experiments)
//! --jobs <n>     worker threads for the job sweep (default: CPU count)
//! ```
//!
//! Output goes to stdout in the paper's row/series format and, as JSON,
//! to `<out>/<experiment>.json`. Results are bit-identical for any
//! `--jobs` value: jobs are independent deterministic simulations and the
//! scheduler preserves submission order.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod meshapi;
pub mod recovery;
pub mod report;
pub mod runners;
pub mod scenario;
pub mod suite;

use bh_trace::WorkloadSpec;
use std::path::PathBuf;

/// What `all --help` prints, and what a malformed `--trace` panics with.
const USAGE: &str = "usage: all [NAME...] [--scale f] [--seed n] \
                         [--trace dec|berkeley|prodigy|all] [--out dir] [--jobs n]";

/// The values `--trace` accepts.
const TRACES: [&str; 4] = ["dec", "berkeley", "prodigy", "all"];

/// Parsed harness CLI arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload scale factor.
    pub scale: f64,
    /// PRNG seed.
    pub seed: u64,
    /// Trace selector (`dec`/`berkeley`/`prodigy`/`all`).
    pub trace: String,
    /// Output directory for JSON artifacts.
    pub out: PathBuf,
    /// Worker threads for the job sweep.
    pub jobs: usize,
}

impl Args {
    /// Parses a flag list (no program name, no experiment names), with
    /// `default_scale` as the scale default — [`suite::select`] builds
    /// each experiment's `Args` from one shared list this way.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed arguments.
    pub fn parse_from(raw: impl IntoIterator<Item = String>, default_scale: f64) -> Args {
        let mut args = Args {
            scale: default_scale,
            seed: 42,
            trace: "all".to_string(),
            out: PathBuf::from("target/experiments"),
            jobs: bh_simcore::par::available_workers(),
        };
        let mut it = raw.into_iter();
        while let Some(flag) = it.next() {
            let mut value = |what: &str| {
                it.next()
                    .unwrap_or_else(|| panic!("{flag} requires a {what} argument"))
            };
            match flag.as_str() {
                "--scale" => {
                    args.scale = value("number").parse().expect("--scale takes a float");
                    assert!(
                        args.scale > 0.0 && args.scale <= 1.0,
                        "--scale must be in (0,1]"
                    );
                }
                "--seed" => args.seed = value("number").parse().expect("--seed takes an integer"),
                "--trace" => {
                    args.trace = value("name").to_lowercase();
                    assert!(
                        TRACES.contains(&args.trace.as_str()),
                        "unknown trace {}; {USAGE}",
                        args.trace
                    );
                }
                "--out" => args.out = PathBuf::from(value("path")),
                "--jobs" => {
                    args.jobs = value("number").parse().expect("--jobs takes an integer");
                    assert!(args.jobs >= 1, "--jobs must be at least 1");
                }
                "--help" | "-h" => {
                    println!("{USAGE}");
                    std::process::exit(0);
                }
                other => panic!("unknown flag {other}; try --help"),
            }
        }
        args
    }

    /// The workload specs selected by `--trace`, scaled by `--scale`.
    pub fn specs(&self) -> Vec<WorkloadSpec> {
        let all = [
            WorkloadSpec::dec(),
            WorkloadSpec::berkeley(),
            WorkloadSpec::prodigy(),
        ];
        all.into_iter()
            .filter(|s| self.trace == "all" || s.name.to_string().to_lowercase() == self.trace)
            .map(|s| s.scaled(self.scale))
            .collect()
    }

    /// Just the DEC spec (several figures are DEC-only in the paper).
    pub fn dec_spec(&self) -> WorkloadSpec {
        WorkloadSpec::dec().scaled(self.scale)
    }

    /// Writes `value` as pretty JSON to `<out>/<name>.json`, wrapped in
    /// the versioned [`report::Envelope`] (`schema_version` / `artifact`
    /// / `payload`); `value` itself becomes the payload, byte-compatible
    /// with the pre-envelope artifact bodies.
    ///
    /// # Panics
    ///
    /// Panics on I/O or serialization failure (harness binaries want loud
    /// failures).
    pub fn write_json<T: serde::Serialize>(&self, name: &str, value: &T) {
        std::fs::create_dir_all(&self.out).expect("create output directory");
        let path = self.out.join(format!("{name}.json"));
        let envelope = report::Envelope::of(name, value);
        let json = serde_json::to_string_pretty(&envelope).expect("serialize");
        std::fs::write(&path, json).expect("write JSON artifact");
        eprintln!("[wrote {}]", path.display());
    }
}

/// Prints a banner naming the experiment and its provenance in the paper.
pub fn banner(experiment: &str, caption: &str, args: &Args) {
    println!("================================================================");
    println!("{experiment} — {caption}");
    println!(
        "workload scale {:.3} (full-scale axis labels), seed {}",
        args.scale, args.seed
    );
    println!("================================================================");
}

/// Formats a ratio as the paper prints speedups.
pub fn fmt_speedup(x: f64) -> String {
    format!("{x:.2}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_args(scale: f64, trace: &str) -> Args {
        Args {
            scale,
            seed: 1,
            trace: trace.into(),
            out: PathBuf::from("/tmp/x"),
            jobs: 1,
        }
    }

    #[test]
    fn specs_filter_by_trace() {
        let mut args = test_args(0.01, "dec");
        assert_eq!(args.specs().len(), 1);
        assert_eq!(args.specs()[0].name.to_string(), "DEC");
        args.trace = "all".into();
        assert_eq!(args.specs().len(), 3);
        args.trace = "berkeley".into();
        assert_eq!(args.specs()[0].name.to_string(), "Berkeley");
    }

    #[test]
    fn specs_are_scaled() {
        let args = test_args(0.1, "dec");
        assert_eq!(args.specs()[0].requests, 2_210_000);
    }

    #[test]
    fn parse_from_reads_jobs_and_defaults() {
        let flags = ["--scale", "0.25", "--jobs", "3", "--seed", "9"];
        let args = Args::parse_from(flags.iter().map(|s| s.to_string()), 0.1);
        assert_eq!(args.scale, 0.25);
        assert_eq!(args.jobs, 3);
        assert_eq!(args.seed, 9);
        let args = Args::parse_from(std::iter::empty(), 0.1);
        assert_eq!(args.scale, 0.1);
        assert!(args.jobs >= 1);
    }

    #[test]
    fn parse_from_accepts_each_trace_name_in_any_case() {
        for name in ["dec", "Berkeley", "PRODIGY", "all"] {
            let flags = ["--trace", name].map(String::from);
            let args = Args::parse_from(flags, 0.1);
            assert_eq!(args.trace, name.to_lowercase());
        }
    }

    #[test]
    #[should_panic(expected = "unknown trace berkley; usage: all [NAME...]")]
    fn parse_from_rejects_a_misspelt_trace() {
        Args::parse_from(["--trace", "berkley"].map(String::from), 0.1);
    }

    #[test]
    fn fmt_speedup_two_decimals() {
        assert_eq!(fmt_speedup(1.274), "1.27x");
    }
}
