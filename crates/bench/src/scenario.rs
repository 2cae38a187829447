//! Scenario harness: named workload + topology + fault-plan bundles
//! replayed against a live hierarchical mesh.
//!
//! A [`Scenario`] binds three deterministic ingredients:
//!
//! * a **workload** — one of the `bh-trace` scenario generators
//!   (flash crowd or diurnal churn), materialized through the
//!   [`bh_trace::MaterializedTrace`] arena so replay is byte-identical
//!   to fresh generation;
//! * a **topology** — the mesh shape ([`Topology`]), typically the
//!   two-level metadata hierarchy whose interior nodes the fault plan
//!   targets;
//! * a **fault plan** — request-count-positioned windows, including the
//!   role-targeted [`FaultKind::CrashParent`].
//!
//! `loadgen --scenario <name|file.json>` runs one. Artifacts follow the
//! chaos harness's deterministic/measured split:
//!
//! * `scenario_<name>.json` — deterministic: the scenario config, each
//!   segment's planned request count, and the recovery verdict.
//! * `scenario_<name>_metrics.json` — measured: per-segment hit/probe/
//!   latency summaries, re-homed child counts, full node registries.
//! * `scenario_<name>_events.log` — the plan's schedule, byte-identical
//!   across runs by construction.
//! * `obs_dump.json` — the deterministic obs-registry dump.
//!
//! Beyond the chaos harness's recovery criteria, a crash window here
//! also checks the *hierarchy* invariants live: every orphaned child
//! must re-home to a fallback parent, and every survivor's
//! `plaxton_repair_entries` delta must equal the analytic churn count
//! ([`analytic_churn_for`]) — the same live-vs-analytic parity the
//! integration tests pin.

use crate::chaos::{
    node_reports, run_windows, spawn_fast_mesh, write_event_log, write_windows_obs_dump,
    ChaosNodeReport, ChaosOptions, ChaosSegment, PlannedSegment,
};
use crate::Args;
use bh_proto::chaos::{analytic_churn_for, FaultKind, FaultPlan, FaultWindow};
use bh_proto::mesh::{Mesh, Topology};
use bh_trace::scenario::{ChurnKind, DiurnalChurnSpec, FlashCrowdSpec};
use bh_trace::{TraceRecord, WorkloadSpec};
use serde::{Deserialize, Serialize};
use std::path::Path;

/// The workload a scenario replays — one of the `bh-trace` scenario
/// generators, always materialized through the arena.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ScenarioWorkload {
    /// A flash crowd over background traffic.
    FlashCrowd {
        /// The crowd's spec (base workload + ramp schedule).
        spec: FlashCrowdSpec,
    },
    /// A diurnal swing with mesh join/leave churn.
    DiurnalChurn {
        /// The churn spec (base workload + churn rate).
        spec: DiurnalChurnSpec,
    },
}

impl ScenarioWorkload {
    /// The background workload spec (replay wiring reads client shape
    /// from it).
    pub fn base(&self) -> &WorkloadSpec {
        match self {
            ScenarioWorkload::FlashCrowd { spec } => &spec.base,
            ScenarioWorkload::DiurnalChurn { spec } => &spec.base,
        }
    }

    /// Stable kind label for artifacts.
    pub fn label(&self) -> &'static str {
        match self {
            ScenarioWorkload::FlashCrowd { .. } => "flash-crowd",
            ScenarioWorkload::DiurnalChurn { .. } => "diurnal-churn",
        }
    }

    /// The workload fingerprint (spec identity, not the seed).
    pub fn fingerprint(&self) -> u64 {
        match self {
            ScenarioWorkload::FlashCrowd { spec } => spec.fingerprint(),
            ScenarioWorkload::DiurnalChurn { spec } => spec.fingerprint(),
        }
    }

    /// Validates the underlying spec.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the offending field.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            ScenarioWorkload::FlashCrowd { spec } => spec.validate(),
            ScenarioWorkload::DiurnalChurn { spec } => spec.validate(),
        }
    }

    /// Materializes the workload for `seed` and replays the arena out
    /// into a record list — byte-identical to fresh generation.
    pub fn records(&self, seed: u64) -> Vec<TraceRecord> {
        match self {
            ScenarioWorkload::FlashCrowd { spec } => spec.materialize(seed).iter().collect(),
            ScenarioWorkload::DiurnalChurn { spec } => spec.materialize(seed).iter().collect(),
        }
    }
}

/// A named, self-contained scenario: workload, mesh shape, fault plan,
/// and client pressure. Serializable so a run is reproducible from one
/// JSON file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Scenario name; artifacts are `scenario_<name with - as _>`.
    pub name: String,
    /// Mesh shape the plan runs against.
    pub topology: Topology,
    /// The request stream.
    pub workload: ScenarioWorkload,
    /// Fault windows, validated against `topology`.
    pub plan: FaultPlan,
    /// Closed-loop client threads.
    pub clients: usize,
}

impl Scenario {
    /// Names [`Scenario::named`] resolves.
    pub const NAMES: [&'static str; 2] = ["flash-crowd", "diurnal-churn"];

    /// The built-in scenario with `name`, seeded with `seed`.
    pub fn named(name: &str, seed: u64) -> Option<Scenario> {
        match name {
            "flash-crowd" => Some(Scenario::flash_crowd(seed)),
            "diurnal-churn" => Some(Scenario::diurnal_churn(seed)),
            _ => None,
        }
    }

    /// The flash-crowd preset: a 2-parent / 2-child hierarchy, the hot
    /// object's ramp covering the crash window of the level-0 parent —
    /// so hint propagation for a *viral* object must survive re-homing.
    pub fn flash_crowd(seed: u64) -> Scenario {
        let topology = Topology::TwoLevel {
            parents: 2,
            children_per_parent: 1,
        };
        let plan = FaultPlan {
            seed,
            windows: vec![FaultWindow {
                fault: FaultKind::CrashParent { level: 0 },
                pre: 600,
                hold: 600,
                post: 600,
            }],
        };
        let requests = plan.total_requests();
        let base = WorkloadSpec::small()
            .with_requests(requests)
            .with_clients(topology.size() as u32 * 256)
            .with_p_new(0.35);
        Scenario {
            name: "flash-crowd".into(),
            topology,
            workload: ScenarioWorkload::FlashCrowd {
                spec: FlashCrowdSpec {
                    // The ramp starts late in the healthy segment and
                    // peaks while the parent is down.
                    ramp_start: 450,
                    ramp_len: 600,
                    peak_share: 0.4,
                    base,
                },
            },
            plan,
            clients: 8,
        }
    }

    /// The diurnal-churn preset: the same hierarchy under an amplified
    /// diurnal swing, with the seeded churn schedule converted into
    /// crash/restart windows at ~10× the paper-era churn baseline.
    pub fn diurnal_churn(seed: u64) -> Scenario {
        let topology = Topology::TwoLevel {
            parents: 2,
            children_per_parent: 1,
        };
        let mut base = WorkloadSpec::small()
            .with_requests(2_400)
            .with_clients(topology.size() as u32 * 256)
            .with_p_new(0.35);
        // A short simulated span keeps the churn-pair count (nodes ×
        // days/7 × multiplier) at a handful of windows for smoke runs.
        base.duration_days = 0.5;
        let spec = DiurnalChurnSpec {
            base,
            nodes: topology.size() as u32,
            churn_multiplier: 10.0,
        };
        let plan = churn_plan(&spec, seed);
        Scenario {
            name: "diurnal-churn".into(),
            topology,
            workload: ScenarioWorkload::DiurnalChurn { spec },
            plan,
            clients: 8,
        }
    }

    /// Loads a scenario from a JSON file.
    ///
    /// # Errors
    ///
    /// Fails on unreadable files, malformed JSON, or a scenario that
    /// fails [`Scenario::validate`].
    pub fn load(path: &Path) -> Result<Scenario, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read scenario {}: {e}", path.display()))?;
        let scenario: Scenario = serde_json::from_str(&text)
            .map_err(|e| format!("cannot parse scenario {}: {e}", path.display()))?;
        scenario.validate()?;
        Ok(scenario)
    }

    /// Checks the scenario is internally consistent: the workload and
    /// plan validate, the plan fits the topology, and the plan replays
    /// exactly the workload's request count.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("scenario name must be non-empty".into());
        }
        if self.clients == 0 {
            return Err("scenario needs at least 1 client thread".into());
        }
        self.workload.validate()?;
        self.plan.validate_for(&self.topology)?;
        let planned = self.plan.total_requests();
        let available = self.workload.base().requests;
        if planned != available {
            return Err(format!(
                "plan replays {planned} requests but the workload generates {available}"
            ));
        }
        Ok(())
    }

    /// Artifact stem: `scenario_<name>` with dashes flattened, so the
    /// files sit next to the chaos artifacts without shell quoting.
    pub fn artifact_stem(&self) -> String {
        format!("scenario_{}", self.name.replace('-', "_"))
    }
}

/// Converts a seeded churn schedule into a back-to-back fault plan:
/// each leave/join pair becomes one crash window whose hold spans the
/// pair's gap. Pairs that would overlap an earlier window are dropped
/// (segments replay sequentially), and the final window's post segment
/// absorbs the trace tail so the whole trace is replayed. A pure
/// function of `(spec, seed)`.
pub fn churn_plan(spec: &DiurnalChurnSpec, seed: u64) -> FaultPlan {
    let requests = spec.base.requests;
    let schedule = spec.churn_schedule(seed);
    let mut windows: Vec<FaultWindow> = Vec::new();
    let mut cursor = 0u64;
    for (i, e) in schedule.iter().enumerate() {
        if e.kind != ChurnKind::Leave || e.at_request < cursor {
            continue;
        }
        let Some(join) = schedule[i..].iter().find(|j| {
            j.kind == ChurnKind::Join && j.node == e.node && j.at_request >= e.at_request
        }) else {
            continue;
        };
        let pre = e.at_request - cursor;
        let hold = (join.at_request - e.at_request).max(1);
        // Half a hold of recovery traffic before the next pair.
        let post = hold / 2 + 1;
        if cursor + pre + hold + post > requests {
            break;
        }
        windows.push(FaultWindow {
            fault: FaultKind::Crash {
                node: e.node as usize,
            },
            pre,
            hold,
            post,
        });
        cursor += pre + hold + post;
    }
    if windows.is_empty() {
        // Degenerate schedule (every pair clipped): fall back to one
        // mid-trace crash of node 0 so the plan still exercises churn.
        let third = (requests / 3).max(1);
        windows.push(FaultWindow {
            fault: FaultKind::Crash { node: 0 },
            pre: third,
            hold: third,
            post: 0,
        });
        cursor = third * 2;
    }
    if let Some(last) = windows.last_mut() {
        last.post += requests.saturating_sub(cursor);
    }
    FaultPlan { seed, windows }
}

/// The deterministic `scenario_<name>.json` payload; two runs of the
/// same scenario must serialize byte-identically.
#[derive(Debug, Serialize)]
pub struct ScenarioResult {
    /// The executed scenario (config, not measurements).
    pub scenario: Scenario,
    /// Workload kind label.
    pub workload: String,
    /// Workload spec fingerprint (seed-independent identity).
    pub workload_fingerprint: u64,
    /// Per-segment issued-request counts (pure function of the seed).
    pub segments: Vec<PlannedSegment>,
    /// True when every window met the recovery + hierarchy criteria.
    pub recovered: bool,
}

/// The measured `scenario_<name>_metrics.json` payload.
#[derive(Debug, Serialize)]
pub struct ScenarioMetrics {
    /// Per-segment measured summaries.
    pub segments: Vec<ChaosSegment>,
    /// Hint records rebuilt by resync after each crash window.
    pub recovered_hints: Vec<usize>,
    /// Children that adopted a fallback parent, per crash window whose
    /// death the survivors confirmed.
    pub rehomed_children: Vec<usize>,
    /// Full per-node registry dump.
    pub node_reports: Vec<ChaosNodeReport>,
}

/// Checks the hierarchy invariants after `dead`'s death is confirmed:
/// every survivor's `plaxton_repair_entries` delta since `baseline`
/// equals the analytic churn count, and every orphaned child of `dead`
/// has adopted a live fallback parent. Returns
/// `(all held, re-homed child count)`.
///
/// One snapshot suffices: a node counts its repair and re-points its
/// parent before it releases the membership guard under which it turned
/// the peer `Dead`, so whoever has read `Dead` (`await_confirmed_death`)
/// reads the repaired state too.
fn check_hierarchy_recovery(
    mesh: &Mesh,
    dead: usize,
    baseline: &[Option<bh_proto::node::NodeStats>],
) -> (bool, usize) {
    let mut ok = true;
    let analytic = analytic_churn_for(mesh.addrs(), dead) as u64;
    for (i, (before, after)) in baseline.iter().zip(mesh.stats()).enumerate() {
        if i == dead {
            continue;
        }
        let Some(after) = after else { continue };
        let base = before.as_ref().map_or(0, |s| s.plaxton_repair_entries);
        let delta = after.plaxton_repair_entries.saturating_sub(base);
        if delta != analytic {
            eprintln!(
                "node {i}: live plaxton repair {delta} != analytic churn {analytic} \
                 for death of node {dead}"
            );
            ok = false;
        }
    }
    let dead_addr = mesh.addrs()[dead];
    let mut rehomed = 0usize;
    for child in mesh.topology().children_of(dead) {
        let adopted = mesh
            .node(child)
            .and_then(|n| n.parent())
            .filter(|p| *p != dead_addr);
        match adopted {
            Some(_) => rehomed += 1,
            None => {
                eprintln!("child {child} did not re-home after parent {dead} died");
                ok = false;
            }
        }
    }
    (ok, rehomed)
}

/// Runs the scenario end to end, writing all artifacts into `args.out`;
/// returns `false` if any window failed its recovery or hierarchy
/// checks.
///
/// # Panics
///
/// Panics on an invalid scenario, mesh spawn failure, or artifact I/O
/// failure (harness semantics: loud failures).
pub fn run_scenario(args: &Args, scenario: &Scenario) -> bool {
    if let Err(msg) = scenario.validate() {
        panic!("invalid scenario {}: {msg}", scenario.name);
    }
    let plan = &scenario.plan;
    let stem = scenario.artifact_stem();
    println!(
        "scenario {}: {} workload, {:?}, {} windows, {} requests",
        scenario.name,
        scenario.workload.label(),
        scenario.topology,
        plan.windows.len(),
        plan.total_requests()
    );

    let (log_path, log_bytes) = write_event_log(args, &format!("{stem}_events.log"), plan);

    let records = scenario.workload.records(plan.seed);
    let base = scenario.workload.base();
    let opts = ChaosOptions {
        nodes: scenario.topology.size(),
        clients: scenario.clients,
        shards: 1,
        workers: 16,
        p_new: base.p_new,
    };

    let mut mesh = spawn_fast_mesh(scenario.topology, &opts);
    let mut rehomed_children: Vec<usize> = Vec::new();
    // The hierarchy invariants: analytic churn parity on every survivor,
    // plus re-homed orphans.
    let run = run_windows(
        &mut mesh,
        plan,
        &opts,
        base,
        &records,
        |mesh, i, dead, baseline| {
            let (ok, rehomed) = check_hierarchy_recovery(mesh, dead, baseline);
            rehomed_children.push(rehomed);
            if rehomed > 0 {
                println!("window {i}: {rehomed} orphaned children re-homed");
            }
            ok
        },
    );
    let node_reports = node_reports(&mesh);
    write_windows_obs_dump(args, "scenario", plan, &run.planned);

    args.write_json(
        &stem,
        &ScenarioResult {
            scenario: scenario.clone(),
            workload: scenario.workload.label().to_string(),
            workload_fingerprint: scenario.workload.fingerprint(),
            segments: run.planned,
            recovered: run.recovered,
        },
    );
    args.write_json(
        &format!("{stem}_metrics"),
        &ScenarioMetrics {
            segments: run.segments,
            recovered_hints: run.recovered_hints,
            rehomed_children,
            node_reports,
        },
    );
    println!(
        "scenario event log: {} ({log_bytes} bytes)",
        log_path.display()
    );
    println!("recovered: {}", run.recovered);
    mesh.shutdown();
    run.recovered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_presets_validate() {
        for name in Scenario::NAMES {
            let s = Scenario::named(name, 7).expect("preset exists");
            s.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(s.name, name);
        }
        assert!(Scenario::named("nope", 7).is_none());
    }

    #[test]
    fn flash_crowd_preset_targets_the_hierarchy() {
        let s = Scenario::flash_crowd(42);
        assert!(matches!(
            s.plan.windows[0].fault,
            FaultKind::CrashParent { level: 0 }
        ));
        assert!(matches!(s.topology, Topology::TwoLevel { .. }));
        assert_eq!(s.plan.total_requests(), s.workload.base().requests);
    }

    #[test]
    fn churn_plan_is_deterministic_and_covers_the_trace() {
        let spec = match Scenario::diurnal_churn(9).workload {
            ScenarioWorkload::DiurnalChurn { spec } => spec,
            other => panic!("unexpected workload {other:?}"),
        };
        let a = churn_plan(&spec, 9);
        let b = churn_plan(&spec, 9);
        assert_eq!(a, b, "same seed, same plan");
        assert_ne!(a, churn_plan(&spec, 10), "seed must matter");
        assert_eq!(a.total_requests(), spec.base.requests);
        a.validate_for(&Topology::TwoLevel {
            parents: 2,
            children_per_parent: 1,
        })
        .expect("churn plan is valid for the preset topology");
        for w in &a.windows {
            assert!(matches!(w.fault, FaultKind::Crash { .. }));
        }
    }

    #[test]
    fn scenarios_round_trip_through_serde() {
        for name in Scenario::NAMES {
            let s = Scenario::named(name, 3).expect("preset");
            let json = serde_json::to_string(&s).expect("serialize");
            let back: Scenario = serde_json::from_str(&json).expect("deserialize");
            assert_eq!(s, back);
        }
    }

    #[test]
    fn validate_rejects_mismatched_request_counts() {
        let mut s = Scenario::flash_crowd(1);
        s.plan.windows[0].post += 1;
        assert!(s.validate().is_err(), "plan/workload length mismatch");
    }

    #[test]
    fn artifact_stems_flatten_dashes() {
        assert_eq!(
            Scenario::flash_crowd(1).artifact_stem(),
            "scenario_flash_crowd"
        );
        assert_eq!(
            Scenario::diurnal_churn(1).artifact_stem(),
            "scenario_diurnal_churn"
        );
    }
}
