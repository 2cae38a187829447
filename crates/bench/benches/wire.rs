//! Wire-format encode/decode throughput: hint-update batches are the
//! protocol's steady-state traffic (20 bytes/record).

use bh_proto::wire::{HintAction, HintUpdate, MachineId, Message};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

fn batch(n: u64) -> Message {
    Message::hint_batch(
        MachineId(7),
        (0..n)
            .map(|i| HintUpdate {
                action: if i % 2 == 0 {
                    HintAction::Add
                } else {
                    HintAction::Remove
                },
                object: i.wrapping_mul(0x9E3779B97F4A7C15),
                machine: MachineId(i),
            })
            .collect(),
    )
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire");

    for n in [16u64, 256, 4096] {
        let msg = batch(n);
        group.throughput(Throughput::Bytes(20 * n));
        group.bench_function(format!("encode_batch_{n}"), |b| {
            b.iter(|| black_box(msg.encoded()));
        });
        let encoded = msg.encoded();
        group.bench_function(format!("decode_batch_{n}"), |b| {
            b.iter(|| {
                let mut cursor = std::io::Cursor::new(encoded.as_ref());
                black_box(bh_proto::wire::read_message(&mut cursor).expect("decode"))
            });
        });
    }

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
