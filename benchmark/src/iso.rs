//! Layers timed in isolation, through their public functions, on inputs
//! taken from the workload. The traced run calls these after its rounds.
//!
//! Each row runs timed batches for [`ROW_BUDGET_NS`] and reports the
//! median per-call time over its batch spans. A batch, not a call, is the
//! span: a clock read costs as much as the cheapest calls timed here.

use bh_cache::{HintCache, LruCache};
use bh_hintlog::{HintLog, LogRecord};
use bh_netmodel::{CostModel, Level, RemoteDistance, TestbedModel};
use bh_netpoll::{waker_pair, write_vectored, Interest, Poller};
use bh_obs::{Determinism, Registry, TraceEvent, TraceRing, Unit};
use bh_proto::node::NODE_TRACE_CAPACITY;
use bh_proto::pool::{ConnectionPool, PoolConfig, RequestOptions};
use bh_proto::wire::{
    coalesce, hint_batch_tag, read_message, FrameAssembler, HintAction, HintUpdate, MachineId,
    Message, ServedBy, Status,
};
use bh_proto::OriginServer;
use bh_simcore::{ByteSize, EventQueue, SimTime};
use bh_trace::{MaterializedTrace, TraceGenerator, WorkloadSpec};
use bytes::{Bytes, BytesMut};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{self, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::time::Duration;

use crate::clock::now_ns;
use crate::spans::{Recorder, Span, NO_PARENT};
use crate::stats::median;

/// Time spent on one row.
const ROW_BUDGET_NS: u64 = 500_000_000;

/// Shortest span worth recording.
const SPAN_TARGET_NS: u64 = 100_000;

/// Fewest batches a row is judged on.
const MIN_BATCHES: usize = 5;

/// Updates in the hint batches the wire rows handle: about what one flush
/// of `origin_fill` carries.
const BATCH_UPDATES: usize = 2_000;

/// Hint shards of a default node; the hint rows mirror its partitioning.
const HINT_SHARDS: u64 = 8;

/// Runs timed batches of `calls` calls each until the row budget is spent
/// and returns the median ns per call. Every batch is one span.
fn row(recorder: &mut Recorder, name: &'static str, calls: u32, batch: impl FnMut()) -> f64 {
    row_capped(recorder, name, calls, usize::MAX, batch)
}

/// [`row`] that also stops after `max_batches` timed batches, for calls
/// whose state grows with every batch.
fn row_capped(
    recorder: &mut Recorder,
    name: &'static str,
    calls: u32,
    max_batches: usize,
    mut batch: impl FnMut(),
) -> f64 {
    batch(); // untimed: faults pages in, fills caches, warms connections
             // Repeat short batches inside one span until a span lasts about
             // `SPAN_TARGET_NS`, so a row is a few thousand spans, not millions.
    let reps = if max_batches == usize::MAX {
        let t0 = now_ns();
        batch();
        (SPAN_TARGET_NS / (now_ns() - t0).max(1)).clamp(1, 1 << 12) as u32
    } else {
        1
    };
    let first = recorder.spans().len();
    let started = now_ns();
    let mut n = 0usize;
    loop {
        let t0 = now_ns();
        for _ in 0..reps {
            batch();
        }
        let t1 = now_ns();
        recorder.push(Span {
            name,
            start_ns: t0,
            end_ns: t1,
            parent: NO_PARENT,
            op: n as u64,
            calls: calls * reps,
        });
        n += 1;
        if (n >= MIN_BATCHES && t1 - started >= ROW_BUDGET_NS) || n >= max_batches {
            break;
        }
    }
    let per_call: Vec<f64> = recorder.spans()[first..]
        .iter()
        .map(|s| s.duration_ns() as f64 / f64::from(s.calls))
        .collect();
    median(&per_call)
}

fn reply(len: usize) -> Message {
    Message::GetReply {
        status: Status::Ok,
        version: 1,
        served_by: ServedBy::Local,
        body: Bytes::from(vec![0xA5u8; len]),
    }
}

fn concat(frames: &[Bytes]) -> Vec<u8> {
    frames.iter().flat_map(|f| f.iter().copied()).collect()
}

/// Feeds `chunk` (whole frames) to an assembler and pops every message.
fn decode_all(assembler: &mut FrameAssembler, chunk: &[u8]) {
    assembler.extend(chunk);
    while let Ok(Some(msg)) = assembler.next_message() {
        black_box(msg);
    }
}

/// The rows of the mesh side: `wire`, `md5`, `netpoll`, `cache`, `pool`,
/// `origin`, `obs`, `hintlog`. `urls` are the workload's URLs; `scratch`
/// is a directory inside the checkout for the hint-log rows.
///
/// # Errors
///
/// Fails when a loopback socket or the scratch directory cannot be set up.
pub fn mesh_rows(
    recorder: &mut Recorder,
    urls: &[String],
    scratch: &Path,
) -> io::Result<BTreeMap<&'static str, f64>> {
    let mut out = BTreeMap::new();
    let sample: Vec<&String> = urls.iter().take(256).collect();
    let keys: Vec<u64> = urls.iter().map(|u| bh_md5::url_key(u)).collect();

    // wire: the request and reply frames of every workload.
    let gets: Vec<Message> = sample
        .iter()
        .map(|u| Message::Get { url: (*u).clone() })
        .collect();
    let mut buf = BytesMut::with_capacity(64 * 1024);
    out.insert(
        "wire.encode_get_ns",
        row(recorder, "wire.encode_get", gets.len() as u32, || {
            for m in &gets {
                m.encode(&mut buf);
                black_box(&buf);
            }
        }),
    );
    // 32-frame reads, as a shard sees them from a client with a window.
    let get_frames: Vec<Bytes> = gets.iter().map(Message::encoded).collect();
    let get_chunks: Vec<Vec<u8>> = get_frames.chunks(32).map(concat).collect();
    let mut assembler = FrameAssembler::new();
    out.insert(
        "wire.decode_get_ns",
        row(recorder, "wire.decode_get", gets.len() as u32, || {
            for chunk in &get_chunks {
                decode_all(&mut assembler, chunk);
            }
        }),
    );
    let (small, large) = (reply(128), reply(4096));
    out.insert(
        "wire.encode_reply_128b_ns",
        row(recorder, "wire.encode_reply_128b", 256, || {
            for _ in 0..256 {
                small.encode(&mut buf);
                black_box(&buf);
            }
        }),
    );
    out.insert(
        "wire.encode_reply_4k_ns",
        row(recorder, "wire.encode_reply_4k", 256, || {
            for _ in 0..256 {
                large.encode(&mut buf);
                black_box(&buf);
            }
        }),
    );
    let reply_chunk = concat(&vec![large.encoded(); 8]);
    out.insert(
        "wire.decode_reply_4k_ns",
        row(recorder, "wire.decode_reply_4k", 64, || {
            for _ in 0..8 {
                decode_all(&mut assembler, &reply_chunk);
            }
        }),
    );

    // wire: the hint flush — coalesce, tag, encode at the sender; decode,
    // tag again at each receiver.
    let sender = MachineId(0x7F00_0001_1F90_0000);
    let updates: Vec<HintUpdate> = (0..BATCH_UPDATES)
        .map(|i| HintUpdate {
            action: if i % 2 == 0 {
                HintAction::Add
            } else {
                HintAction::Remove
            },
            object: keys[i % keys.len()] ^ (i as u64) << 1,
            machine: sender,
        })
        .collect();
    let per_update = BATCH_UPDATES as u32;
    let batch = Message::hint_batch(sender, updates.clone());
    out.insert(
        "wire.hint_batch_encode_ns_per_update",
        row(recorder, "wire.hint_batch_encode", per_update, || {
            batch.encode(&mut buf);
            black_box(&buf);
        }),
    );
    let batch_frame = batch.encoded();
    out.insert(
        "wire.hint_batch_decode_ns_per_update",
        row(recorder, "wire.hint_batch_decode", per_update, || {
            decode_all(&mut assembler, &batch_frame);
        }),
    );
    out.insert(
        "wire.hint_batch_tag_ns_per_update",
        row(recorder, "wire.hint_batch_tag", per_update, || {
            black_box(hint_batch_tag(sender, &updates));
        }),
    );
    // `coalesce` takes its input by value, as the flush path hands it
    // over, so the copy is part of the row.
    out.insert(
        "wire.coalesce_ns_per_update",
        row(recorder, "wire.coalesce", per_update, || {
            black_box(coalesce(updates.clone()));
        }),
    );

    out.insert(
        "md5.url_key_ns",
        row(recorder, "md5.url_key", sample.len() as u32, || {
            for u in &sample {
                black_box(bh_md5::url_key(u));
            }
        }),
    );

    netpoll_rows(recorder, &mut out)?;
    cache_rows(recorder, &keys, &mut out);
    transport_rows(recorder, &mut out)?;

    // obs: what every counted, timed or traced step of a request pays.
    let registry = Registry::new();
    let counter = registry.counter("bench_counter", Unit::Count, "iso", Determinism::Measured);
    out.insert(
        "obs.counter_inc_ns",
        row(recorder, "obs.counter_inc", 4096, || {
            for _ in 0..4096 {
                counter.inc();
            }
            black_box(counter.get());
        }),
    );
    let bounds: Vec<u64> = (0..16).map(|i| 50u64 << i).collect();
    let histogram = registry.histogram(
        "bench_histogram",
        Unit::Micros,
        "iso",
        Determinism::Measured,
        &bounds,
    );
    out.insert(
        "obs.histogram_observe_ns",
        row(recorder, "obs.histogram_observe", 4096, || {
            for i in 0..4096u64 {
                histogram.observe(black_box(i * 37 % 100_000));
            }
        }),
    );
    let mut ring = TraceRing::new(NODE_TRACE_CAPACITY);
    out.insert(
        "obs.trace_push_ns",
        row(recorder, "obs.trace_push", 4096, || {
            for i in 0..4096u64 {
                ring.record(TraceEvent {
                    ts_micros: i,
                    kind: 1,
                    a: i,
                    b: 0,
                });
            }
            black_box(ring.len());
        }),
    );

    hintlog_rows(recorder, &keys, scratch, &mut out)?;
    Ok(out)
}

/// `netpoll`: one loopback round trip and one wake-up, both ends on this
/// thread, so the rows hold syscall cost and no scheduling.
fn netpoll_rows(recorder: &mut Recorder, out: &mut BTreeMap<&'static str, f64>) -> io::Result<()> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let mut near = TcpStream::connect(listener.local_addr()?)?;
    let (far, _) = listener.accept()?;
    near.set_nodelay(true)?;
    far.set_nodelay(true)?;
    far.set_nonblocking(true)?;
    let poller = Poller::new()?;
    poller.register(&far, 1, Interest::READABLE)?;
    let mut events = Vec::with_capacity(8);
    let mut io_result = Ok(());
    let payload = [0x5Au8; 64];
    let mut inbox = [0u8; 256];
    let rtt = row(recorder, "netpoll.echo_rtt", 64, || {
        for _ in 0..64 {
            let step = (|| -> io::Result<()> {
                near.write_all(&payload)?;
                events.clear();
                poller.wait(&mut events, Some(Duration::from_secs(5)))?;
                let n = (&far).read(&mut inbox)?;
                write_vectored(&far, &[IoSlice::new(&inbox[..n])])?;
                near.read_exact(&mut inbox[..n])
            })();
            if let Err(e) = step {
                io_result = Err(e);
            }
        }
    });
    io_result?;
    out.insert("netpoll.echo_rtt_ns", rtt);

    let (waker, wake_rx) = waker_pair()?;
    let wake_poller = Poller::new()?;
    wake_poller.register(&wake_rx, 0, Interest::READABLE)?;
    let mut io_result = Ok(());
    let wake = row(recorder, "netpoll.wake", 256, || {
        for _ in 0..256 {
            waker.wake();
            events.clear();
            if let Err(e) = wake_poller.wait(&mut events, Some(Duration::from_secs(5))) {
                io_result = Err(e);
            }
            wake_rx.drain();
        }
    });
    io_result?;
    out.insert("netpoll.wake_ns", wake);
    Ok(())
}

/// `cache`: the data-cache LRU and the hint cache, keyed by the
/// workload's own URL digests and partitioned as a node partitions them.
fn cache_rows(recorder: &mut Recorder, keys: &[u64], out: &mut BTreeMap<&'static str, f64>) {
    let mut lru = LruCache::new(ByteSize::from_mb(64));
    for &k in keys {
        lru.insert(k, ByteSize::from_bytes(128), 1);
    }
    let probe: Vec<u64> = keys.iter().copied().step_by(7).take(1024).collect();
    out.insert(
        "cache.lru.get_ns",
        row(recorder, "cache.lru.get", probe.len() as u32, || {
            for &k in &probe {
                black_box(lru.get(k, 0));
            }
        }),
    );
    // A full 1 MB cache of 1 KiB objects: every insert evicts one.
    let mut small = LruCache::new(ByteSize::from_mb(1));
    let mut fresh = 0u64;
    let mut next_key = move || {
        fresh += 1;
        fresh.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1
    };
    for _ in 0..1024 {
        small.insert(next_key(), ByteSize::from_kb(1), 1);
    }
    out.insert(
        "cache.lru.insert_evict_ns",
        row(recorder, "cache.lru.insert_evict", 1024, || {
            for _ in 0..1024 {
                black_box(small.insert(next_key(), ByteSize::from_kb(1), 1));
            }
        }),
    );

    let shard_capacity = ByteSize::from_bytes(ByteSize::from_mb(4).as_bytes() / HINT_SHARDS);
    let mut shards: Vec<HintCache> = (0..HINT_SHARDS)
        .map(|_| HintCache::with_capacity(shard_capacity))
        .collect();
    let hint_keys: Vec<u64> = keys.iter().copied().filter(|&k| k != 0).collect();
    for &k in &hint_keys {
        shards[(k % HINT_SHARDS) as usize].insert(k, 1);
    }
    let displaced: u64 = shards.iter().map(HintCache::displacement_count).sum();
    out.insert(
        "cache.hint.displacement_ratio",
        displaced as f64 / hint_keys.len().max(1) as f64,
    );
    let probe: Vec<u64> = hint_keys.iter().copied().step_by(7).take(1024).collect();
    out.insert(
        "cache.hint.lookup_ns",
        row(recorder, "cache.hint.lookup", probe.len() as u32, || {
            for &k in &probe {
                black_box(shards[(k % HINT_SHARDS) as usize].lookup(k));
            }
        }),
    );
    let mut location = 1u64;
    out.insert(
        "cache.hint.insert_ns",
        row(recorder, "cache.hint.insert", probe.len() as u32, || {
            location += 1;
            for &k in &probe {
                shards[(k % HINT_SHARDS) as usize].insert(k, location);
            }
        }),
    );
}

/// `pool` and `origin`: a request/reply round trip to an in-process
/// zero-delay origin, through the pool (warm and cold) and over a bare
/// socket. These cross threads, so they include a wake-up each way.
fn transport_rows(
    recorder: &mut Recorder,
    out: &mut BTreeMap<&'static str, f64>,
) -> io::Result<()> {
    let origin = OriginServer::spawn("127.0.0.1:0")?;
    let url = "http://bench.test/iso/4k".to_string();
    origin.put(&url, 1, Bytes::from(vec![0x3Cu8; 4096]));
    let get = Message::Get { url };
    let pool = ConnectionPool::new(PoolConfig::default());
    let mut io_result = Ok(());
    let warm_ns = row(recorder, "pool.request_warm", 32, || {
        for _ in 0..32 {
            if let Err(e) = pool.request(origin.addr(), RequestOptions::origin(), &get) {
                io_result = Err(e);
            }
        }
    });
    let cold_ns = row(recorder, "pool.request_cold", 8, || {
        for _ in 0..8 {
            pool.clear();
            if let Err(e) = pool.request(origin.addr(), RequestOptions::origin(), &get) {
                io_result = Err(e);
            }
        }
    });
    io_result?;
    out.insert("pool.request_rtt_us", warm_ns / 1e3);
    out.insert("pool.connect_us", (cold_ns - warm_ns).max(0.0) / 1e3);

    let mut stream = TcpStream::connect(origin.addr())?;
    stream.set_nodelay(true)?;
    let frame = get.encoded();
    let mut io_result = Ok(());
    let direct_ns = row(recorder, "origin.fetch", 32, || {
        for _ in 0..32 {
            let step = stream
                .write_all(&frame)
                .and_then(|()| read_message(&mut stream));
            if let Err(e) = step {
                io_result = Err(e);
            }
        }
    });
    io_result?;
    out.insert("origin.fetch_rtt_us", direct_ns / 1e3);
    Ok(())
}

/// `hintlog`: buffered appends (no fsync — the node syncs on its flush
/// thread, off the request path) and a full replay on open. No workload
/// enables durability yet; the rows are the baseline for when one does.
fn hintlog_rows(
    recorder: &mut Recorder,
    keys: &[u64],
    scratch: &Path,
    out: &mut BTreeMap<&'static str, f64>,
) -> io::Result<()> {
    const RECORDS: usize = 1_000;
    const MAX_BATCHES: usize = 200;
    let dir = scratch.join(format!("hintlog-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let records: Vec<LogRecord> = (0..RECORDS)
        .map(|i| LogRecord::add(keys[i % keys.len()] | 1, 0x7F00_0001_1F90_0000))
        .collect();
    let mut log = HintLog::open(&dir)?.log;
    let mut io_result = Ok(());
    let mut batches = 0;
    // Capped so the replay row reads a log of known, modest size.
    let append = row_capped(
        recorder,
        "hintlog.append",
        RECORDS as u32,
        MAX_BATCHES,
        || {
            batches += 1;
            if let Err(e) = log.append(&records) {
                io_result = Err(e);
            }
        },
    );
    let synced = log.sync();
    drop(log);
    let logged = (batches * RECORDS) as u32;
    let replay = row(recorder, "hintlog.replay", logged, || {
        match HintLog::open(&dir) {
            Ok(recovered) => {
                black_box(recovered.records.len());
            }
            Err(e) => io_result = Err(e),
        }
    });
    let _ = std::fs::remove_dir_all(&dir);
    io_result?;
    synced?;
    out.insert("hintlog.append_ns_per_record", append);
    out.insert("hintlog.replay_ns_per_record", replay);
    Ok(())
}

/// The rows of the simulator side that no cell of `sim_sweep` times on
/// its own: `trace`, `simcore`, `netmodel`.
pub fn sim_rows(
    recorder: &mut Recorder,
    trace: &MaterializedTrace,
    seed: u64,
) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    let spec = WorkloadSpec::small().with_requests(100_000);
    let per_rec = row(recorder, "trace.generate", spec.requests as u32, || {
        black_box(TraceGenerator::new(&spec, seed).last());
    });
    out.insert("trace.generate_rec_per_s", 1e9 / per_rec);
    let per_rec = row(recorder, "trace.replay", trace.len() as u32, || {
        black_box(trace.iter().last());
    });
    out.insert("trace.replay_rec_per_s", 1e9 / per_rec);
    out.insert(
        "trace.arena_bytes_per_rec",
        trace.approx_bytes() as f64 / trace.len().max(1) as f64,
    );

    // A queue holding 1,024 pending events, as the delayed hint cell's
    // does: schedule one, pop one.
    let mut queue: EventQueue<u64> = EventQueue::new();
    let mut clock = 0u64;
    for i in 0..1024u64 {
        queue.schedule(SimTime::from_micros(i * 31 % 1024), i);
    }
    out.insert(
        "simcore.event_queue_ns_per_event",
        row(recorder, "simcore.event_queue", 1024, || {
            for i in 0..1024u64 {
                clock += 1;
                queue.schedule(SimTime::from_micros(clock + i * 31 % 1024), i);
                black_box(queue.pop());
            }
        }),
    );

    let model = TestbedModel::new();
    out.insert(
        "netmodel.cost_ns_per_access",
        row(recorder, "netmodel.cost", 1024, || {
            for i in 0..256u64 {
                let size = ByteSize::from_bytes(512 + i * 97);
                black_box(model.hierarchy_hit(Level::ALL[(i % 3) as usize], size));
                black_box(model.remote_fetch(RemoteDistance::SameL2, size));
                black_box(model.server_fetch(size));
                black_box(model.hierarchy_miss(size));
            }
        }),
    );
    out
}
