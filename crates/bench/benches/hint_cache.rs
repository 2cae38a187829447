//! µ1: hint-store operations — the paper measured 4.3 µs per in-memory
//! hint lookup on a 200 MHz Ultra-2; modern hardware should be far faster.

use bh_cache::{HintBank, HintCache};
use bh_simcore::ByteSize;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("hint_cache");

    group.bench_function("lookup_hit_100MB", |b| {
        let mut store = HintCache::with_capacity(ByteSize::from_mb(100));
        for k in 1..=1_000_000u64 {
            store.insert(k.wrapping_mul(0x9E3779B97F4A7C15), k);
        }
        let mut i = 1u64;
        b.iter(|| {
            i = i.wrapping_add(1) % 1_000_000 + 1;
            black_box(store.lookup(black_box(i.wrapping_mul(0x9E3779B97F4A7C15))))
        });
    });

    group.bench_function("lookup_miss_100MB", |b| {
        let mut store = HintCache::with_capacity(ByteSize::from_mb(100));
        for k in 1..=1_000_000u64 {
            store.insert(k.wrapping_mul(0x9E3779B97F4A7C15), k);
        }
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(store.lookup(black_box(i | 1)))
        });
    });

    group.bench_function("insert_bounded", |b| {
        let mut store = HintCache::with_capacity(ByteSize::from_mb(10));
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            store.insert(black_box(i | 1), black_box(i));
        });
    });

    group.bench_function("insert_unbounded", |b| {
        b.iter_batched(
            HintCache::unbounded,
            |mut store| {
                for k in 1..=1_000u64 {
                    store.insert(black_box(k), k);
                }
                store
            },
            BatchSize::SmallInput,
        );
    });

    // One holder change delivered to all 64 nodes of the simulated system
    // (one row of the bank), at the per-node geometry of the benchmark's
    // scaled cells (1 MB) and of a large store whose rows no longer share
    // cache lines or pages (100 MB). Objects are resident on every node
    // first; object `i` has slot `i + 1`.
    for (label, capacity) in [
        ("1MB", ByteSize::from_mb(1)),
        ("100MB", ByteSize::from_mb(100)),
    ] {
        let resident: Vec<u64> = (1..=32_768u64)
            .map(|k| k.wrapping_mul(0x9E3779B97F4A7C15) | 1)
            .collect();
        let mut bank = HintBank::new(64, capacity);
        for (i, &k) in resident.iter().enumerate() {
            bank.broadcast_insert(k, i as u32 + 1);
        }
        let mut i = 0usize;
        // The common event: the holder set changed and every node's hint
        // moves to the front of its set.
        group.bench_function(format!("broadcast_insert_64n_{label}"), |b| {
            b.iter(|| {
                i = (i + 1) % resident.len();
                bank.broadcast_insert(black_box(resident[i]), i as u32 + 1);
            });
        });
        // Last copy gone, then a first copy again: one remove event and
        // the insert into the emptied ways that restores the object.
        group.bench_function(format!("broadcast_remove_reinsert_64n_{label}"), |b| {
            b.iter(|| {
                i = (i + 1) % resident.len();
                bank.broadcast_remove(black_box(resident[i]), i as u32 + 1);
                bank.broadcast_insert(black_box(resident[i]), i as u32 + 1);
            });
        });
    }

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
