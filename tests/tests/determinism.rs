//! Determinism of the parallel experiment engine.
//!
//! The suite's contract is that `--jobs` is invisible in the results: jobs
//! are independent deterministic simulations and the work-stealing sweep
//! preserves submission order. These tests pin that contract:
//!
//! * the fig2, fig5 and fig8 grids and the push experiment (Figures 10
//!   and 11) produce **byte-identical** JSON artifacts at `--jobs 1` and
//!   `--jobs 8`;
//! * replaying a [`MaterializedTrace`] arena yields exactly the record
//!   stream a fresh [`TraceGenerator`] produces, for all three workloads;
//! * two chaos runs of the same seeded plan produce byte-identical
//!   `loadgen_chaos.json`, `loadgen_chaos_events.log`, and
//!   `obs_dump.json` artifacts, even though they drive two distinct live
//!   meshes (the measured numbers go to `loadgen_chaos_metrics.json`,
//!   which makes no such promise);
//! * the same contract for the scenario harness: two runs of the seeded
//!   flash-crowd scenario (two-level hierarchy, `CrashParent` window)
//!   produce byte-identical `scenario_flash_crowd.json`, event log, and
//!   `obs_dump.json`, and the scenario lag experiment's artifact is
//!   identical at `--jobs 1` and `--jobs 8`;
//! * the suite's `obs_dump.json` — the `Determinism::Deterministic`
//!   slice of the obs registry — is byte-identical at `--jobs 1` and
//!   `--jobs 8`.

use bh_bench::suite::{run_suite, Experiment};
use bh_bench::Args;
use std::path::PathBuf;

/// A per-test scratch directory under the target dir (unique per process,
/// so parallel test binaries don't collide).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bh-determinism-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs one experiment through the suite runner at `--scale 0.002` over
/// `jobs` workers, then returns the raw bytes of each named artifact.
fn artifacts(exp: &'static dyn Experiment, jobs: usize, files: &[&str]) -> Vec<Vec<u8>> {
    let out = scratch(&format!("{}-j{jobs}", exp.name()));
    let args = Args {
        scale: 0.002,
        seed: 42,
        trace: "all".to_string(),
        out: out.clone(),
        jobs,
    };
    run_suite(&[(exp, args)], jobs);
    files
        .iter()
        .map(|f| std::fs::read(out.join(f)).expect("read artifact"))
        .collect()
}

/// Asserts that each artifact in `files` is non-empty and byte-identical
/// at `--jobs 1` and `--jobs 8`.
fn assert_jobs_invisible(exp: &'static dyn Experiment, files: &[&str]) {
    let serial = artifacts(exp, 1, files);
    let parallel = artifacts(exp, 8, files);
    for ((file, s), p) in files.iter().zip(&serial).zip(&parallel) {
        assert!(!s.is_empty(), "{file}: empty artifact");
        assert_eq!(s, p, "{file}: --jobs 1 and --jobs 8 artifacts differ");
    }
}

#[test]
fn fig2_artifact_is_identical_at_jobs_1_and_8() {
    assert_jobs_invisible(&bh_bench::runners::fig2::Fig2, &["fig2.json"]);
}

#[test]
fn fig5_artifact_is_identical_at_jobs_1_and_8() {
    assert_jobs_invisible(&bh_bench::runners::fig5::Fig5, &["fig5.json"]);
}

#[test]
fn fig8_artifact_is_identical_at_jobs_1_and_8() {
    assert_jobs_invisible(&bh_bench::runners::fig8::Fig8, &["fig8.json"]);
}

/// The push cells are the suite's heaviest jobs, and one experiment
/// writes both figures from them.
#[test]
fn push_artifacts_are_identical_at_jobs_1_and_8() {
    assert_jobs_invisible(
        &bh_bench::runners::push::Push,
        &["fig10.json", "fig11.json"],
    );
}

/// Runs the chaos harness once into a scratch dir and returns the bytes
/// of the deterministic artifact, the event log, and the obs dump.
fn chaos_artifacts(tag: &str) -> (Vec<u8>, Vec<u8>, Vec<u8>) {
    use bh_bench::chaos::{run_chaos, ChaosOptions};
    use bh_proto::chaos::{FaultKind, FaultPlan, FaultWindow};

    let out = scratch(tag);
    let args = Args {
        scale: 1.0,
        seed: 7,
        trace: "custom".to_string(),
        out: out.clone(),
        jobs: 1,
    };
    // Partition-only plan: no crash windows, so the run never waits on
    // wall-clock failure detection and stays fast.
    let plan = FaultPlan {
        seed: 7,
        windows: vec![FaultWindow {
            fault: FaultKind::Partition { a: 0, b: 2 },
            pre: 200,
            hold: 200,
            post: 200,
        }],
    };
    let opts = ChaosOptions {
        nodes: 3,
        clients: 4,
        ..ChaosOptions::default()
    };
    assert!(run_chaos(&args, &opts, plan), "chaos run must recover");
    let json = std::fs::read(out.join("loadgen_chaos.json")).expect("read chaos artifact");
    let log = std::fs::read(out.join("loadgen_chaos_events.log")).expect("read event log");
    let obs = std::fs::read(out.join("obs_dump.json")).expect("read obs dump");
    (json, log, obs)
}

/// The statically-guarded byte-identity contract: `loadgen_chaos.json`,
/// the event log, and `obs_dump.json` (the deterministic slice of the
/// chaos obs registry) are pure functions of the plan and seed, so two
/// independent live-mesh runs must produce them byte for byte.
#[test]
fn chaos_plan_artifacts_are_byte_identical_across_runs() {
    let (json_a, log_a, obs_a) = chaos_artifacts("chaos-a");
    let (json_b, log_b, obs_b) = chaos_artifacts("chaos-b");
    assert!(!json_a.is_empty(), "empty chaos artifact");
    assert_eq!(
        json_a, json_b,
        "loadgen_chaos.json differs between two runs of the same plan"
    );
    assert_eq!(
        log_a, log_b,
        "loadgen_chaos_events.log differs between two runs of the same plan"
    );
    assert!(!obs_a.is_empty(), "empty obs dump");
    assert_eq!(
        obs_a, obs_b,
        "obs_dump.json differs between two runs of the same plan"
    );
}

/// Runs the flash-crowd scenario (two-level hierarchy, `CrashParent`
/// window) into a scratch dir and returns the bytes of its deterministic
/// artifact, event log, and obs dump.
fn scenario_artifacts(tag: &str) -> (Vec<u8>, Vec<u8>, Vec<u8>) {
    use bh_bench::scenario::{run_scenario, Scenario};

    let out = scratch(tag);
    let args = Args {
        scale: 1.0,
        seed: 7,
        trace: "custom".to_string(),
        out: out.clone(),
        jobs: 1,
    };
    let scenario = Scenario::flash_crowd(7);
    assert!(
        run_scenario(&args, &scenario),
        "scenario run must recover (children re-homed, churn parity held)"
    );
    let json = std::fs::read(out.join("scenario_flash_crowd.json")).expect("read artifact");
    let log = std::fs::read(out.join("scenario_flash_crowd_events.log")).expect("read log");
    let obs = std::fs::read(out.join("obs_dump.json")).expect("read obs dump");
    (json, log, obs)
}

/// The scenario harness extends the chaos byte-identity contract to the
/// hierarchy: `scenario_flash_crowd.json`, its event log, and the obs
/// dump are pure functions of the seeded scenario, byte-identical across
/// two live-mesh runs — even though each run kills and revives a parent.
#[test]
fn scenario_artifacts_are_byte_identical_across_runs() {
    let (json_a, log_a, obs_a) = scenario_artifacts("scenario-a");
    let (json_b, log_b, obs_b) = scenario_artifacts("scenario-b");
    assert!(!json_a.is_empty(), "empty scenario artifact");
    assert_eq!(
        json_a, json_b,
        "scenario_flash_crowd.json differs between two runs of the same scenario"
    );
    assert_eq!(
        log_a, log_b,
        "scenario_flash_crowd_events.log differs between two runs"
    );
    assert!(!obs_a.is_empty(), "empty obs dump");
    assert_eq!(obs_a, obs_b, "obs_dump.json differs between two runs");
}

/// The scenario lag experiment writes `scenario_flash_crowd_lag.json`
/// (not `<name>.json`).
#[test]
fn scenario_lag_artifact_is_identical_at_jobs_1_and_8() {
    assert_jobs_invisible(
        &bh_bench::runners::scenario::ScenarioLag,
        &["scenario_flash_crowd_lag.json"],
    );
}

/// Runs a one-experiment suite at tiny scale and returns the bytes of
/// the `obs_dump.json` it writes (the `Determinism::Deterministic` slice
/// of the suite registry — job counts, not timings).
fn suite_obs_dump_bytes(jobs: usize, tag: &str) -> Vec<u8> {
    use bh_bench::report::write_obs_dump;
    use bh_bench::suite::obs_registry;

    let out = scratch(tag);
    let args = Args {
        scale: 0.002,
        seed: 42,
        trace: "all".to_string(),
        out: out.clone(),
        jobs,
    };
    let timings = run_suite(&[(&bh_bench::runners::fig2::Fig2, args.clone())], jobs);
    write_obs_dump(&args, &obs_registry(&timings));
    std::fs::read(out.join("obs_dump.json")).expect("read obs dump")
}

/// `write_obs_dump` keeps only `Determinism::Deterministic` metrics, so
/// the suite's obs dump must be byte-identical at `--jobs 1` and `--jobs
/// 8` even though the measured phase timings in the registry differ.
#[test]
fn suite_obs_dump_is_identical_at_jobs_1_and_8() {
    let serial = suite_obs_dump_bytes(1, "obs-j1");
    let parallel = suite_obs_dump_bytes(8, "obs-j8");
    assert!(!serial.is_empty(), "empty suite obs dump");
    assert_eq!(
        serial, parallel,
        "obs_dump.json differs between --jobs 1 and --jobs 8"
    );
}

#[test]
fn materialized_replay_matches_fresh_generation_for_all_workloads() {
    use bh_trace::{MaterializedTrace, TraceGenerator, WorkloadSpec};
    for spec in [
        WorkloadSpec::dec(),
        WorkloadSpec::berkeley(),
        WorkloadSpec::prodigy(),
    ] {
        let spec = spec.scaled(0.002);
        let seed = 42;
        let arena = MaterializedTrace::generate(&spec, seed);
        let fresh: Vec<_> = TraceGenerator::new(&spec, seed).collect();
        assert_eq!(arena.len(), fresh.len(), "{}: record count", spec.name);
        for (i, (replayed, generated)) in arena.iter().zip(fresh).enumerate() {
            assert_eq!(
                replayed, generated,
                "{}: record {i} diverges between replay and generation",
                spec.name
            );
        }
    }
}
