//! Prodigy's 139 L1s are the one committed topology wider than a single
//! 64-bit holder word. Every strategy that keeps per-object holder sets —
//! the hint hierarchy on its oracle, bounded, delayed and push paths, the
//! central directory and client-level hints — runs one `prodigy()` trace
//! here, and each cell's integer statistics and testbed response time are
//! pinned as one FNV-1a digest. The starved cell (2 MB caches, 16 KB hint
//! stores, 5-minute delay) has false positives, false negatives and
//! suboptimal positives; the push cells push.

use bh_core::experiments::ClientDirect;
use bh_core::push::{PushFraction, PushPolicy};
use bh_core::sim::{SimConfig, Simulator};
use bh_core::strategies::{
    ClientHintConfig, ClientHints, HintConfig, HintHierarchy, Strategy, StrategyKind,
};
use bh_core::{Metrics, Topology};
use bh_netmodel::{CostModel, TestbedModel};
use bh_simcore::{ByteSize, SimDuration};
use bh_trace::{MaterializedTrace, WorkloadSpec};

fn digest(m: &Metrics) -> u64 {
    let fields = [
        m.requests,
        m.cacheable,
        m.l1_hits,
        m.l2_hits,
        m.l3_hits,
        m.remote_hits_l2,
        m.remote_hits_l3,
        m.server_fetches,
        m.false_positives,
        m.false_negatives,
        m.suboptimal_positives,
        m.hit_bytes,
        m.total_bytes,
        m.root_updates,
        m.directory_updates,
        m.pushes,
        m.pushed_bytes,
        m.pushed_used,
        m.pushed_used_bytes,
        m.demand_bytes,
        m.response[0].1.mean().to_bits(),
    ];
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for f in fields {
        for b in f.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

#[test]
fn prodigy_holder_set_cells_pinned() {
    let spec = WorkloadSpec::prodigy().scaled(0.01);
    let trace = MaterializedTrace::generate(&spec, 42);
    assert_eq!(Topology::from_spec(&spec).l1_count(), 139);
    let testbed = TestbedModel::new();
    let models: [&dyn CostModel; 1] = [&testbed];
    let run = |config: SimConfig, strategy: &mut dyn Strategy, models: &[&dyn CostModel]| {
        digest(
            &Simulator::new(config)
                .run_with_trace(&trace, strategy, models, false)
                .metrics,
        )
    };
    let cell = |kind: StrategyKind, config: SimConfig| {
        let mut s = kind.build(
            Topology::from_spec(&spec),
            &config.space,
            config.hint_delay,
            trace.seed(),
        );
        run(config, s.as_mut(), &models)
    };
    let constrained = SimConfig::constrained(&spec);
    let delayed = constrained.with_hint_delay(SimDuration::from_secs(30));
    let mut client = ClientHints::new(
        Topology::from_spec(&spec),
        ClientHintConfig {
            false_negative_rate: 0.3,
            ..ClientHintConfig::default()
        },
    );
    let direct = ClientDirect(&testbed);
    let mut starved = HintHierarchy::new(
        Topology::from_spec(&spec),
        HintConfig {
            data_capacity: ByteSize::from_mb(2),
            store_capacity: ByteSize::from_kb(16),
            delay: SimDuration::from_secs(300),
            push: PushPolicy::Update,
        },
        trace.seed(),
    );
    let got = [
        cell(StrategyKind::CentralDirectory, constrained),
        cell(StrategyKind::HintHierarchy, SimConfig::infinite(&spec)),
        cell(StrategyKind::HintHierarchy, delayed),
        run(constrained, &mut starved, &models),
        cell(
            StrategyKind::HintHierarchicalPush(PushFraction::Half),
            constrained,
        ),
        cell(
            StrategyKind::HintHierarchicalPush(PushFraction::One),
            delayed,
        ),
        run(SimConfig::infinite(&spec), &mut client, &[&direct]),
    ];
    // Pinned from the sorted holder lists the bitsets replaced, so a bug
    // on the wide path moves at least one of them.
    assert_eq!(
        got,
        [
            0xf08f_dd81_1ade_fdc5,
            0x7301_1fe4_c4eb_8921,
            0x32c1_741e_97e4_6380,
            0xc17d_e8f8_f849_fe7a,
            0x56c7_fe83_7929_5ec4,
            0xc6dd_5e0b_cdbb_d11e,
            0xf713_f675_3035_523a,
        ]
    );
}
