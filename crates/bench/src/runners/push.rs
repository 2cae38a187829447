//! Figures 10 and 11: the push algorithms on the DEC trace
//! (space-constrained configuration) — no-push data hierarchy, no-push
//! hints, update push, push-1, push-half, push-all, and the ideal-push
//! upper bound.
//!
//! * Figure 10: simulated response time under the Max, Min and Testbed
//!   cost models.
//! * Figure 11: (a) efficiency — the fraction of pushed bytes later
//!   used — and (b) bandwidth consumed by pushed vs demand-fetched data.
//!
//! Both figures read the same seven simulations; cost models are pure
//! observers priced in one pass (`bh_core::sim`), so each job prices its
//! row under all three models and Figure 11 keeps the Testbed column.

use crate::suite::{job, take, Experiment, Job, JobOutput};
use crate::{banner, fmt_speedup, Args};
use bh_core::experiments::{push_row, PushComparisonRow};
use bh_core::strategies::StrategyKind;
use bh_netmodel::{CostModel, RousskovModel, TestbedModel};
use bh_trace::TraceCache;
use serde::Serialize;

#[derive(Serialize)]
struct PushOut {
    trace: String,
    scale: f64,
    rows: Vec<PushComparisonRow>,
}

/// Figures 10 and 11. One job per push strategy.
pub struct Push;

impl Experiment for Push {
    fn name(&self) -> &'static str {
        "push"
    }

    fn default_scale(&self) -> f64 {
        0.05
    }

    fn plan(&self, args: &Args) -> Vec<Job> {
        let seed = args.seed;
        let spec = args.dec_spec();
        StrategyKind::FIGURE10
            .iter()
            .map(|&kind| {
                let spec = spec.clone();
                job(move || {
                    let (max, min, tb) = (
                        RousskovModel::max(),
                        RousskovModel::min(),
                        TestbedModel::new(),
                    );
                    let models: [&dyn CostModel; 3] = [&max, &min, &tb];
                    push_row(&TraceCache::get(&spec, seed), kind, &models)
                })
            })
            .collect()
    }

    fn finish(&self, args: &Args, results: Vec<JobOutput>) {
        let rows: Vec<PushComparisonRow> = results.into_iter().map(take).collect();
        print_fig10(args, &rows);
        write_figure(args, "fig10", rows.clone());
        // Figure 11's artifact keeps only the Testbed column.
        let testbed: Vec<PushComparisonRow> = rows
            .into_iter()
            .map(|mut r| {
                r.response_ms.retain(|(model, _)| model == "Testbed");
                r
            })
            .collect();
        print_fig11(args, &testbed);
        write_figure(args, "fig11", testbed);
    }
}

fn write_figure(args: &Args, name: &str, rows: Vec<PushComparisonRow>) {
    args.write_json(
        name,
        &PushOut {
            trace: args.dec_spec().name.to_string(),
            scale: args.scale,
            rows,
        },
    );
}

/// Figure 10: response time per strategy and speedups over the no-push
/// hierarchy.
fn print_fig10(args: &Args, rows: &[PushComparisonRow]) {
    banner(
        "Figure 10",
        "response time for push algorithms (DEC, space-constrained)",
        args,
    );
    println!(
        "\n{:<14} {:>9} {:>9} {:>9} {:>8}",
        "Strategy", "Max", "Min", "Testbed", "L1-hit%"
    );
    for r in rows {
        let ms = |name: &str| {
            r.response_ms
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or(f64::NAN)
        };
        println!(
            "{:<14} {:>9.0} {:>9.0} {:>9.0} {:>7.1}%",
            r.strategy,
            ms("Max"),
            ms("Min"),
            ms("Testbed"),
            r.l1_hit_fraction * 100.0
        );
    }

    let ms_of = |label: &str, model: &str| {
        rows.iter()
            .find(|r| r.strategy == label)
            .and_then(|r| r.response_ms.iter().find(|(n, _)| n == model))
            .map(|(_, v)| *v)
            .unwrap_or(f64::NAN)
    };
    println!("\nSpeedups vs no-push hierarchy (Testbed):");
    for label in [
        "Hints",
        "Update Push",
        "Push-1",
        "Push-half",
        "Push-all",
        "Push-ideal",
    ] {
        println!(
            "  {:<12} {}",
            label,
            fmt_speedup(ms_of("Hierarchy", "Testbed") / ms_of(label, "Testbed"))
        );
    }
    println!("\n(paper: ideal push 1.54–2.63x vs data hierarchy and 1.21–1.62x vs hints;");
    println!(
        " hierarchical push 1.42–2.03x vs hierarchy, 1.12–1.25x vs hints; update push ≈ hints)"
    );
}

/// Figure 11: push efficiency and pushed vs demand bandwidth.
fn print_fig11(args: &Args, rows: &[PushComparisonRow]) {
    banner(
        "Figure 11",
        "push efficiency and bandwidth (DEC, space-constrained)",
        args,
    );
    println!("\n(a) efficiency — fraction of pushed bytes later accessed");
    println!("{:<14} {:>12}", "Strategy", "efficiency");
    for r in rows.iter().filter(|r| r.push_bw_kbps > 0.0) {
        println!("{:<14} {:>12.3}", r.strategy, r.efficiency);
    }

    println!("\n(b) bandwidth (KB/s over the measured window)");
    println!(
        "{:<14} {:>10} {:>10} {:>10}",
        "Strategy", "pushed", "demand", "total"
    );
    for r in rows {
        println!(
            "{:<14} {:>10.1} {:>10.1} {:>10.1}",
            r.strategy,
            r.push_bw_kbps,
            r.demand_bw_kbps,
            r.push_bw_kbps + r.demand_bw_kbps
        );
    }

    println!("\n(paper: update push ≈1/3 of pushed bytes used; hierarchical push 4–13%");
    println!(" efficient and up to ~4x the demand bandwidth — latency bought with bandwidth)");
}
