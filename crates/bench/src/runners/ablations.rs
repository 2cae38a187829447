//! Ablations for the design choices DESIGN.md §4 calls out:
//!
//! 1. hint-store associativity (the paper picks 4-way);
//! 2. Plaxton tree arity (binary vs 16-ary) — route length and root spread;
//! 3. hint placement: proxy-level (Figure 4-a) vs client-level (Figure 4-b)
//!    pricing, the §3.3 trade-off the paper describes but does not graph;
//! 4. the client-hint false-negative sweep;
//! 5. ICP multicast vs hints; 6. Plaxton metadata routing; 7. replacement.

use crate::suite::{job, take, Experiment, Job, JobOutput};
use crate::{banner, Args};
use bh_cache::HintCache;
use bh_core::experiments::{
    client_hint_tradeoff, hint_placement, ClientHintTradeoff, HintPlacementResult,
};
use bh_core::sim::{SimConfig, Simulator};
use bh_core::strategies::StrategyKind;
use bh_netmodel::{CostModel, RousskovModel, TestbedModel};
use bh_plaxton::{NodeSpec, PlaxtonTree};
use bh_simcore::rng::Xoshiro256;
use bh_simcore::ByteSize;
use bh_trace::TraceCache;
use serde::Serialize;

#[derive(Serialize)]
struct AblationsOut {
    associativity: Vec<(usize, f64)>, // (ways, survival rate of hot keys)
    plaxton: Vec<(u32, f64, f64)>,    // (arity bits, avg route len, root spread)
    placement_proxy_ms: Vec<(String, f64)>,
    placement_client_ms: Vec<(String, f64)>,
    client_hint_crossover: Option<f64>,  // §3.3's ~50% claim
    icp_vs_hints_ms: Vec<(String, f64)>, // (strategy, Testbed mean ms)
    replacement: Vec<(String, f64)>,     // (policy, request hit rate)
}

/// Associativity ablation: a fixed-size store absorbs a Zipf update stream;
/// how often do lookups of recently-inserted keys still succeed?
fn associativity_sweep() -> Vec<(usize, f64)> {
    let mut out = Vec::new();
    for ways in [1usize, 2, 4, 8] {
        let mut store = HintCache::with_capacity_and_ways(ByteSize::from_kb(64), ways);
        let mut rng = Xoshiro256::seed_from_u64(7);
        let zipf = bh_simcore::rng::Zipf::new(20_000, 0.8);
        let mut found = 0u64;
        let mut probes = 0u64;
        for i in 0..200_000u64 {
            let key = zipf.sample(&mut rng) + 1;
            store.insert(key, i);
            // Probe a recently popular key.
            let probe = zipf.sample(&mut rng) + 1;
            probes += 1;
            if store.lookup(probe).is_some() {
                found += 1;
            }
        }
        out.push((ways, found as f64 / probes as f64));
    }
    out
}

fn plaxton_sweep() -> Vec<(u32, f64, f64)> {
    let nodes: Vec<NodeSpec> = (0..64)
        .map(|i| {
            NodeSpec::from_address(
                &format!("10.1.{}.{}:3128", i / 8, i % 8),
                ((i % 8) as f64, (i / 8) as f64),
            )
        })
        .collect();
    [1u32, 2, 4]
        .into_iter()
        .map(|bits| {
            let tree = PlaxtonTree::build(nodes.clone(), bits).expect("build");
            let mut total_len = 0usize;
            let mut count = 0usize;
            let mut roots = vec![0u32; 64];
            for obj in 0..2_000u64 {
                let key = bh_md5::md5(obj.to_le_bytes()).low64();
                roots[tree.root_of(key)] += 1;
                for from in [0usize, 21, 42, 63] {
                    total_len += tree.route(from, key).len();
                    count += 1;
                }
            }
            let nonzero = roots.iter().filter(|&&c| c > 0).count() as f64 / 64.0;
            (bits, total_len as f64 / count as f64, nonzero)
        })
        .collect()
}

/// Replacement-policy ablation: LRU vs GreedyDual-Size vs seeded-Random
/// request hit rate on the actual workload stream through one
/// space-constrained shared cache. Rows follow [`bh_cache::Replacement::ALL`].
/// Public so the golden regression can pin the rows digit-for-digit
/// through the parallel engine without replaying the whole experiment.
pub fn replacement_sweep(spec: &bh_trace::WorkloadSpec, seed: u64) -> Vec<(String, f64)> {
    use bh_cache::{GdsCache, LruCache, RandomCache, Replacement};
    // Size the cache well below the unique-byte footprint (~p_new × requests
    // × 10 KB) so replacement actually matters.
    let capacity = ByteSize::from_mb(((spec.requests as f64) * 0.0003) as u64 + 8);
    let mut lru = LruCache::new(capacity);
    let mut gds = GdsCache::new(capacity);
    let mut rnd = RandomCache::new(capacity, seed);
    let mut hits = [0u64; 3];
    let mut total = 0u64;
    for r in TraceCache::get(spec, seed).iter() {
        if !r.is_cacheable() {
            continue;
        }
        total += 1;
        let key = r.object.key();
        if lru.get(key, r.version).is_some() {
            hits[0] += 1;
        } else {
            lru.insert(key, r.size, r.version);
        }
        if gds.get(key, r.version).is_some() {
            hits[1] += 1;
        } else {
            gds.insert(key, r.size, r.version);
        }
        if rnd.get(key, r.version).is_some() {
            hits[2] += 1;
        } else {
            rnd.insert(key, r.size, r.version);
        }
    }
    Replacement::ALL
        .into_iter()
        .zip(hits)
        .map(|(policy, h)| (policy.label().to_string(), h as f64 / total.max(1) as f64))
        .collect()
}

/// Metadata-routing ablation result: (updates, mean hops, busiest share,
/// load imbalance).
type MetadataStats = (u64, f64, f64, f64);

fn metadata_sweep(spec: &bh_trace::WorkloadSpec, seed: u64) -> MetadataStats {
    let topo = bh_core::topology::Topology::from_spec(spec);
    let mut md = bh_core::metadata::MetadataHierarchy::new(&topo, 2);
    let mut rng = Xoshiro256::seed_from_u64(seed);
    // Route one update per first-copy event (~p_new × requests, capped for
    // the ablation).
    let events = ((spec.requests as f64 * spec.p_new) as u64).min(100_000);
    for i in 0..events {
        let key = bh_md5::md5(i.to_le_bytes()).low64();
        md.route_update(rng.below(topo.l1_count() as u64) as u32, key);
    }
    let ms = md.stats();
    (
        ms.updates,
        ms.mean_hops,
        ms.busiest_node_share * 100.0,
        ms.load_imbalance,
    )
}

/// The ablations experiment. One job per section (two for the ICP
/// comparison, one per strategy).
pub struct Ablations;

const ICP_KINDS: [StrategyKind; 2] = [StrategyKind::IcpMulticast, StrategyKind::HintHierarchy];

impl Experiment for Ablations {
    fn name(&self) -> &'static str {
        "ablations"
    }

    fn default_scale(&self) -> f64 {
        0.02
    }

    fn plan(&self, args: &Args) -> Vec<Job> {
        let seed = args.seed;
        let spec = args.dec_spec();
        let mut jobs: Vec<Job> = Vec::new();
        jobs.push(job(associativity_sweep));
        jobs.push(job(plaxton_sweep));
        {
            let spec = spec.clone();
            jobs.push(job(move || {
                let tb = TestbedModel::new();
                let min = RousskovModel::min();
                let models: Vec<&dyn CostModel> = vec![&tb, &min];
                hint_placement(&spec, seed, &models)
            }));
        }
        {
            let spec = spec.clone();
            jobs.push(job(move || {
                let tb = TestbedModel::new();
                let min = RousskovModel::min();
                let models: Vec<&dyn CostModel> = vec![&tb, &min];
                client_hint_tradeoff(&spec, seed, &[0.0, 0.25, 0.5, 0.75, 1.0], &models)
            }));
        }
        for kind in ICP_KINDS {
            let spec = spec.clone();
            jobs.push(job(move || {
                let tb = TestbedModel::new();
                let min = RousskovModel::min();
                let models: Vec<&dyn CostModel> = vec![&tb, &min];
                let sim = Simulator::new(SimConfig::infinite(&spec));
                let r = sim.run_trace(&TraceCache::get(&spec, seed), kind, &models);
                (
                    kind.label().to_string(),
                    r.mean_response_ms("Testbed").unwrap_or(f64::NAN),
                    r.metrics.hit_ratio(),
                )
            }));
        }
        {
            let spec = spec.clone();
            jobs.push(job(move || metadata_sweep(&spec, seed)));
        }
        jobs.push(job(move || replacement_sweep(&spec, seed)));
        jobs
    }

    fn finish(&self, args: &Args, results: Vec<JobOutput>) {
        let mut results = results.into_iter();
        let mut next = || results.next().expect("plan/finish job count");
        let associativity: Vec<(usize, f64)> = take(next());
        let plaxton: Vec<(u32, f64, f64)> = take(next());
        let placement: HintPlacementResult = take(next());
        let tradeoff: ClientHintTradeoff = take(next());
        let icp_rows: Vec<(String, f64, f64)> =
            ICP_KINDS.map(|_| take(next())).into_iter().collect();
        let metadata: MetadataStats = take(next());
        let replacement: Vec<(String, f64)> = take(next());

        banner(
            "Ablations",
            "associativity, Plaxton arity, hint placement",
            args,
        );

        println!("\n1. Hint-store associativity (64 KB store, Zipf stream):");
        println!("{:>6} {:>14}", "ways", "probe hit rate");
        for (ways, rate) in &associativity {
            println!("{ways:>6} {rate:>14.3}");
        }

        println!("\n2. Plaxton tree arity (64 nodes):");
        println!(
            "{:>10} {:>14} {:>18}",
            "arity", "avg route len", "root coverage"
        );
        for (bits, len, spread) in &plaxton {
            println!("{:>9}b {len:>14.2} {spread:>18.2}", 1u32 << bits);
        }

        println!("\n3. Hint placement — proxy (Fig 4-a) vs client (Fig 4-b) pricing:");
        println!(
            "{:<10} {:>12} {:>12} {:>9}",
            "Model", "proxy ms", "client ms", "gain"
        );
        for ((name, p), (_, c)) in placement.proxy_ms.iter().zip(&placement.client_ms) {
            println!(
                "{:<10} {:>12.0} {:>12.0} {:>8.1}%",
                name,
                p,
                c,
                (1.0 - c / p) * 100.0
            );
        }
        println!("(paper §3.3: client hints improve response time by up to ~20% when client");
        println!(" hint caches match proxy hit rates)");

        println!("\n4. Client-hint false-negative sweep (§3.3's 50% claim):");
        println!("{:>8} {:>12}", "fn-rate", "Testbed ms");
        println!(
            "{:>8} {:>12.0}   (proxy-level baseline)",
            "-", tradeoff.proxy_ms[0].1
        );
        for (fnr, ms) in &tradeoff.client_points {
            println!("{fnr:>8.2} {:>12.0}", ms[0].1);
        }
        let crossover = tradeoff.crossover_fn_rate("Testbed");
        println!(
            "client config wins up to fn-rate ≈ {} (paper: below ~50%)",
            crossover
                .map(|c| format!("{c:.2}"))
                .unwrap_or_else(|| "never".into())
        );

        println!("\n5. ICP multicast vs hints (related-work baseline):");
        for (label, ms, hit_ratio) in &icp_rows {
            println!("  {label:<8} {ms:>9.0} ms (hit rate {hit_ratio:.3})");
        }
        println!("  (ICP polls only the L2 neighborhood and pays a query wait on every miss)");

        println!("\n6. Plaxton metadata routing under the DEC first-copy stream (§3.1.3):");
        let (updates, mean_hops, busiest_pct, imbalance) = metadata;
        println!(
            "  {updates} updates, {mean_hops:.2} mean hops, busiest node {busiest_pct:.1}% of traffic ({imbalance:.2}x mean)"
        );
        println!("  (a centralized directory would put 100% on one node)");

        println!("\n7. Replacement policy under space pressure (shared cache, DEC stream):");
        for (policy, rate) in &replacement {
            println!("  {policy:<18} request hit rate {rate:.3}");
        }
        println!("  (GreedyDual-Size trades byte hit rate for request hit rate — the era's");
        println!("   standard answer to the paper's 'more aggressive use of cache space')");

        args.write_json(
            "ablations",
            &AblationsOut {
                associativity,
                plaxton,
                placement_proxy_ms: placement.proxy_ms,
                placement_client_ms: placement.client_ms,
                client_hint_crossover: crossover,
                icp_vs_hints_ms: icp_rows
                    .into_iter()
                    .map(|(label, ms, _)| (label, ms))
                    .collect(),
                replacement,
            },
        );
    }
}
