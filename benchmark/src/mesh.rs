//! The four live-mesh workloads: set-up, measured rounds, output checks.
//!
//! Noise rules, all of which the numbers depend on (see README.md):
//! one generator thread over exactly two client connections with a sliding
//! window; no wall-clock control plane (flush and heartbeat timers are
//! parked at an hour, the generator flushes at fixed request indices);
//! rounds of identical fixed work, reported as medians.

use bh_proto::node::CacheNode;
use bh_proto::origin::synthetic_body;
use bh_proto::wire::{Message, ServedBy, Status};
use bh_proto::{NodeConfig, OriginServer};
use bh_simcore::ByteSize;
use bh_trace::{TraceGenerator, WorkloadSpec};
use bytes::Bytes;
use std::collections::BTreeMap;
use std::io;
use std::net::SocketAddr;
use std::ops::Range;
use std::time::Duration;

use crate::affinity::{self, Placement};
use crate::clock::now_ns;
use crate::procfs::ProcUsage;
use crate::spans::{Recorder, Span, SpanId, NO_PARENT};
use crate::stats::percentile_sorted;
use crate::window::{Generator, Pending, ReplySink};

/// Every reply's length is checked; one reply in this many is compared
/// byte for byte.
const BODY_CHECK_EVERY: u64 = 16;

/// Client connections per workload (= cores of the reference box).
const CLIENT_CONNS: usize = 2;

/// What a reply's body must be.
#[derive(Debug)]
enum Expect {
    /// Bodies this benchmark installed at the origin, by URL index.
    Installed(Vec<Bytes>),
    /// The origin's own `synthetic_body(url)`; lengths precomputed.
    Synthetic { lens: Vec<u32> },
}

impl Expect {
    fn len_of(&self, url: u32) -> usize {
        match self {
            Expect::Installed(bodies) => bodies[url as usize].len(),
            Expect::Synthetic { lens } => lens[url as usize] as usize,
        }
    }

    fn matches(&self, url: &str, index: u32, body: &Bytes) -> bool {
        match self {
            Expect::Installed(bodies) => bodies[index as usize] == *body,
            Expect::Synthetic { .. } => synthetic_body(url) == *body,
        }
    }
}

/// The fixed shape of one workload.
#[derive(Debug, Clone, Copy)]
struct Shape {
    /// Requests in flight over both connections.
    window: usize,
    /// The window is drained and every node flushed after this many
    /// requests, so hint visibility is a function of the request index.
    flush_every: u64,
    /// Requests per round.
    round_ops: u64,
    /// Neighbours each hint flush of the entry node goes to.
    flush_targets: u32,
}

/// A running mesh with its load generator and request plan.
pub struct Mesh {
    name: &'static str,
    shape: Shape,
    /// Entry node first. Declared before `origin` so nodes stop first.
    nodes: Vec<CacheNode>,
    _origin: OriginServer,
    generator: Generator,
    /// `Get` frame per URL index.
    frames: Vec<Bytes>,
    /// URL strings per URL index (inputs for the isolated layer rows).
    pub urls: Vec<String>,
    expect: Expect,
    /// One cycle of `(connection, url)`; request `i` is `cycle[i % len]`.
    cycle: Vec<(u8, u32)>,
    /// Mean `CacheNode::spawn` time, ms.
    pub spawn_ms: f64,
}

/// Totals of one measured round.
#[derive(Debug, Clone, Default)]
pub struct Round {
    pub ops: u64,
    pub wall_ns: u64,
    pub usage: ProcUsage,
    pub lat_p50_ns: u32,
    pub lat_p99_ns: u32,
    pub local: u64,
    pub peer: u64,
    pub origin: u64,
    pub failed: u64,
    pub body_bytes: u64,
    pub flush_ns: u64,
    pub client_reads: u64,
    /// Node counter deltas, summed over every node of the mesh.
    pub counters: BTreeMap<String, u64>,
    pub traced: bool,
}

impl Round {
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

struct RoundSink<'a> {
    expect: &'a Expect,
    urls: &'a [String],
    lat_ns: Vec<u32>,
    local: u64,
    peer: u64,
    origin: u64,
    failed: u64,
    body_bytes: u64,
    recorder: &'a mut Recorder,
    parent: SpanId,
}

impl ReplySink for RoundSink<'_> {
    fn reply(&mut self, request: Pending, recv_ns: u64, reply: Message) {
        self.recorder.push(Span {
            name: "client.request",
            start_ns: request.sent_ns,
            end_ns: recv_ns,
            parent: self.parent,
            op: request.op,
            calls: 1,
        });
        let Message::GetReply {
            status: Status::Ok,
            served_by,
            body,
            ..
        } = reply
        else {
            // Error, redirect and not-found replies all count as failed
            // (and so as missing any latency limit).
            self.failed += 1;
            return;
        };
        let sampled = request.op.is_multiple_of(BODY_CHECK_EVERY);
        if body.len() != self.expect.len_of(request.url)
            || (sampled
                && !self
                    .expect
                    .matches(&self.urls[request.url as usize], request.url, &body))
        {
            self.failed += 1;
            return;
        }
        match served_by {
            ServedBy::Local => self.local += 1,
            ServedBy::Peer(_) => self.peer += 1,
            ServedBy::Origin => self.origin += 1,
        }
        self.body_bytes += body.len() as u64;
        let lat = recv_ns.saturating_sub(request.sent_ns);
        self.lat_ns.push(u32::try_from(lat).unwrap_or(u32::MAX));
    }
}

fn node_config(origin: SocketAddr, cache: ByteSize) -> NodeConfig {
    // An hour is "never" at these run lengths: the generator, not a timer,
    // decides when hints move.
    let never = Duration::from_secs(3600);
    NodeConfig::new("127.0.0.1:0", origin)
        .with_data_capacity(cache)
        .with_flush_max(never)
        .with_heartbeat_interval(never)
        .with_shards(1)
        .with_workers(2)
}

/// Runs `spawn` with the calling thread on the server CPU, so every
/// thread it starts stays there, then returns the caller to the generator
/// CPU (see `affinity.rs`).
fn on_server_cpu<T>(place: Option<Placement>, spawn: impl FnOnce() -> T) -> T {
    if let Some(p) = place {
        affinity::run_on(p.servers);
    }
    let spawned = spawn();
    if let Some(p) = place {
        affinity::run_on(p.generator);
    }
    spawned
}

fn spawn_origin(place: Option<Placement>) -> io::Result<OriginServer> {
    on_server_cpu(place, || OriginServer::spawn("127.0.0.1:0"))
}

fn spawn_nodes(
    place: Option<Placement>,
    configs: Vec<NodeConfig>,
) -> io::Result<(Vec<CacheNode>, f64)> {
    let t0 = now_ns();
    let n = configs.len();
    let nodes = on_server_cpu(place, || {
        configs
            .into_iter()
            .map(CacheNode::spawn)
            .collect::<io::Result<Vec<_>>>()
    })?;
    let spawn_ms = (now_ns() - t0) as f64 / 1e6 / n as f64;
    Ok((nodes, spawn_ms))
}

/// SplitMix64: the benchmark's only random stream, always explicitly seeded.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeded Fisher–Yates shuffle.
fn shuffle<T>(items: &mut [T], rng: &mut u64) {
    for i in (1..items.len()).rev() {
        let j = (splitmix(rng) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

fn seeded_body(seed: u64, index: u64, len: usize) -> Bytes {
    let mut state = seed ^ index.wrapping_mul(0xA076_1D64_78BD_642F);
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        out.extend_from_slice(&splitmix(&mut state).to_le_bytes());
    }
    out.truncate(len);
    Bytes::from(out)
}

/// `count` URLs named after the seed, each with a seeded body of `len`
/// bytes installed at the origin.
fn install(
    origin: &OriginServer,
    seed: u64,
    tag: &str,
    count: usize,
    len: usize,
) -> (Vec<String>, Vec<Bytes>) {
    let urls: Vec<String> = (0..count)
        .map(|i| format!("http://bench-{seed:x}.test/{tag}/{i}"))
        .collect();
    let bodies: Vec<Bytes> = (0..count)
        .map(|i| seeded_body(seed, i as u64, len))
        .collect();
    for (url, body) in urls.iter().zip(&bodies) {
        origin.put(url, 1, body.clone());
    }
    (urls, bodies)
}

/// Request `op` goes to `cycle[op % len]`.
fn route_over(cycle: &[(u8, u32)]) -> impl Fn(u64) -> (usize, u32) + '_ {
    move |op| {
        let (conn, url) = cycle[(op % cycle.len() as u64) as usize];
        (usize::from(conn), url)
    }
}

fn get_frames(urls: &[String]) -> Vec<Bytes> {
    urls.iter()
        .map(|url| Message::Get { url: url.clone() }.encoded())
        .collect()
}

impl Mesh {
    /// Builds the named workload's mesh from `seed`, warmed and ready for
    /// its first round, with its threads placed as `place` says (`None`
    /// leaves them to the kernel).
    ///
    /// # Errors
    ///
    /// Fails when a socket cannot be bound or connected, or when warm-up
    /// traffic fails.
    pub fn set_up(name: &str, seed: u64, place: Option<Placement>) -> io::Result<Mesh> {
        match name {
            "local_hit" => Mesh::local_hit(seed, place),
            "peer_hit" => Mesh::peer_hit(seed, place),
            "origin_fill" => Mesh::origin_fill(seed, place),
            "trace_mix" => Mesh::trace_mix(seed, place),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("unknown mesh workload {other}"),
            )),
        }
    }

    /// One node holding every object: the smallest message, answered on
    /// the shard thread. Codec, MD5, netpoll and the LRU do all the work;
    /// pool, hints, workers and origin do none.
    fn local_hit(seed: u64, place: Option<Placement>) -> io::Result<Mesh> {
        const URLS: usize = 8_192;
        let shape = Shape {
            window: 64,
            flush_every: 1024,
            round_ops: 16 * URLS as u64,
            flush_targets: 0,
        };
        let origin = spawn_origin(place)?;
        let (urls, bodies) = install(&origin, seed, "local", URLS, 128);
        let (nodes, spawn_ms) = spawn_nodes(
            place,
            vec![node_config(origin.addr(), ByteSize::from_mb(64))],
        )?;
        let entry = nodes[0].addr();
        let mut rng = seed ^ 0x10CA1;
        let cycle = (0..shape.round_ops)
            .map(|i| ((i % 2) as u8, (splitmix(&mut rng) % URLS as u64) as u32))
            .collect();
        let mut mesh = Mesh {
            name: "local_hit",
            shape,
            nodes,
            _origin: origin,
            generator: Generator::connect(&[entry; CLIENT_CONNS])?,
            frames: get_frames(&urls),
            urls,
            expect: Expect::Installed(bodies),
            cycle,
            spawn_ms,
        };
        // Warm-up: fetch every URL once so all of them are resident.
        mesh.warm_with((0..URLS).map(|i| ((i % 2) as u8, i as u32)).collect())?;
        Ok(mesh)
    }

    /// Every request misses at A, finds a hint, and is fetched from B:
    /// hint lookup, shard→worker handoff, pool checkout and the peer round
    /// trip dominate.
    fn peer_hit(seed: u64, place: Option<Placement>) -> io::Result<Mesh> {
        const URLS: usize = 8_192;
        let shape = Shape {
            window: 16,
            flush_every: 1024,
            round_ops: 4 * URLS as u64,
            flush_targets: 0,
        };
        let origin = spawn_origin(place)?;
        let (urls, bodies) = install(&origin, seed, "peer", URLS, 4096);
        let (mut nodes, spawn_a) = spawn_nodes(
            place,
            vec![node_config(origin.addr(), ByteSize::from_mb(1))],
        )?;
        let a = nodes[0].addr();
        let (b_nodes, spawn_b) = spawn_nodes(
            place,
            vec![node_config(origin.addr(), ByteSize::from_mb(64)).with_neighbors(vec![a])],
        )?;
        nodes.extend(b_nodes);
        let b = nodes[1].addr();
        let mut order: Vec<u32> = (0..URLS as u32).collect();
        shuffle(&mut order, &mut (seed ^ 0x9EE7));
        let cycle: Vec<(u8, u32)> = order
            .iter()
            .enumerate()
            .map(|(i, &u)| ((i % 2) as u8, u))
            .collect();
        let mut mesh = Mesh {
            name: "peer_hit",
            shape,
            nodes,
            _origin: origin,
            // Warm B first, through two connections of its own.
            generator: Generator::connect(&[b; CLIENT_CONNS])?,
            frames: get_frames(&urls),
            urls,
            expect: Expect::Installed(bodies),
            cycle,
            spawn_ms: (spawn_a + spawn_b) / 2.0,
        };
        // B fetches every URL; each flush carries its Adds to A (at most
        // 1,024 per flush: the pending buffer drops past 4,096).
        mesh.warm()?;
        // Then one pass at A, so its small cache is full and evicting.
        mesh.generator = Generator::connect(&[a; CLIENT_CONNS])?;
        mesh.warm()?;
        Ok(mesh)
    }

    /// Fifteen requests in sixteen are compulsory misses at A: origin
    /// fetch, insert + evict, two hint updates flushed to three passive
    /// neighbours. The sixteenth re-reads a small resident hot set, so
    /// `hit_ratio` is a fixed 1/16 and never 0.
    fn origin_fill(seed: u64, place: Option<Placement>) -> io::Result<Mesh> {
        const COLD: usize = 15_360;
        const HOT: usize = 16;
        let shape = Shape {
            window: 16,
            flush_every: 1024,
            round_ops: 2 * (COLD + COLD / 15) as u64,
            flush_targets: 3,
        };
        let origin = spawn_origin(place)?;
        let (urls, bodies) = install(&origin, seed, "fill", COLD + HOT, 1024);
        let passive = vec![node_config(origin.addr(), ByteSize::from_mb(1)); 3];
        let (mut nodes, spawn_passive) = spawn_nodes(place, passive)?;
        let neighbors: Vec<SocketAddr> = nodes.iter().map(CacheNode::addr).collect();
        let (entry, spawn_entry) = spawn_nodes(
            place,
            vec![node_config(origin.addr(), ByteSize::from_mb(1)).with_neighbors(neighbors)],
        )?;
        nodes.splice(0..0, entry);
        let a = nodes[0].addr();
        let mut order: Vec<u32> = (0..COLD as u32).collect();
        shuffle(&mut order, &mut (seed ^ 0xF111));
        // Positions 15, 31, … of the cycle re-read hot URLs in turn.
        let mut cold = order.iter().copied();
        let cycle: Vec<(u8, u32)> = (0..COLD + COLD / 15)
            .map(|i| {
                let url = if i % 16 == 15 {
                    (COLD + (i / 16) % HOT) as u32
                } else {
                    cold.next().unwrap_or(0)
                };
                ((i % 2) as u8, url)
            })
            .collect();
        let mut mesh = Mesh {
            name: "origin_fill",
            shape,
            nodes,
            _origin: origin,
            generator: Generator::connect(&[a; CLIENT_CONNS])?,
            frames: get_frames(&urls),
            urls,
            expect: Expect::Installed(bodies),
            cycle,
            spawn_ms: (3.0 * spawn_passive + spawn_entry) / 4.0,
        };
        // Warm-up: one pass over the cycle fills A's cache, makes the hot
        // set resident and reaches the steady insert-one-evict-one state.
        mesh.warm()?;
        Ok(mesh)
    }

    /// A seeded synthetic trace over a two-node mesh with the origin's own
    /// 1–64 KiB bodies: local, peer and origin service, false positives,
    /// evictions and large replies in one realistic mix.
    fn trace_mix(seed: u64, place: Option<Placement>) -> io::Result<Mesh> {
        const RECORDS: u64 = 24_000;
        let spec = WorkloadSpec::small()
            .with_p_new(0.35)
            .with_requests(RECORDS);
        let origin = spawn_origin(place)?;
        let (nodes, spawn_ms) = spawn_nodes(
            place,
            vec![node_config(origin.addr(), ByteSize::from_mb(64)); 2],
        )?;
        let addrs: Vec<SocketAddr> = nodes.iter().map(CacheNode::addr).collect();
        // Neighbour lists need both addresses, which exist only now.
        nodes[0].set_neighbors(vec![addrs[1]]);
        nodes[1].set_neighbors(vec![addrs[0]]);
        let mut index: BTreeMap<u64, u32> = BTreeMap::new();
        let mut urls: Vec<String> = Vec::new();
        let mut cycle: Vec<(u8, u32)> = Vec::new();
        for r in TraceGenerator::new(&spec, seed).filter(|r| r.is_cacheable()) {
            let url = *index.entry(r.object.0).or_insert_with(|| {
                urls.push(r.object.synthetic_url());
                (urls.len() - 1) as u32
            });
            // Clients map to nodes as `ReplayConfig::node_for` maps them.
            let node = (r.client.0 / spec.clients_per_l1) as usize % addrs.len();
            cycle.push((node as u8, url));
        }
        let lens = urls
            .iter()
            .map(|u| 1024 + (bh_md5::url_key(u) % (63 * 1024)) as u32)
            .collect();
        let shape = Shape {
            window: 16,
            flush_every: 1000,
            round_ops: cycle.len() as u64,
            flush_targets: 1,
        };
        let mut mesh = Mesh {
            name: "trace_mix",
            shape,
            nodes,
            _origin: origin,
            generator: Generator::connect(&addrs)?,
            frames: get_frames(&urls),
            expect: Expect::Synthetic { lens },
            urls,
            cycle,
            spawn_ms,
        };
        // Warm-up: the first pass holds all the trace's compulsory misses;
        // later passes see only capacity misses, which is the steady state.
        mesh.warm()?;
        Ok(mesh)
    }

    /// Sends one pass of the request cycle through the generator with the
    /// workload's window and flush cadence; a failed reply fails set-up.
    fn warm(&mut self) -> io::Result<()> {
        let pass = 0..self.cycle.len() as u64;
        let round = self.run_ops(pass, &mut Recorder::new(false), NO_PARENT)?;
        if round.failed > 0 {
            return Err(io::Error::other(format!(
                "{}: {} warm-up requests failed",
                self.name, round.failed
            )));
        }
        Ok(())
    }

    /// [`Mesh::warm`] over `fill` instead of the workload's own cycle.
    fn warm_with(&mut self, fill: Vec<(u8, u32)>) -> io::Result<()> {
        let cycle = std::mem::replace(&mut self.cycle, fill);
        let warmed = self.warm();
        self.cycle = cycle;
        warmed
    }

    /// The workload's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Requests in flight.
    pub fn window(&self) -> usize {
        self.shape.window
    }

    /// Neighbours each hint flush of the entry node goes to.
    pub fn flush_targets(&self) -> f64 {
        f64::from(self.shape.flush_targets)
    }

    /// Node counters and gauges, summed over the mesh.
    pub fn counters_now(&self) -> BTreeMap<String, u64> {
        let mut sum = BTreeMap::new();
        for node in &self.nodes {
            for entry in node.metrics_snapshot() {
                *sum.entry(entry.name).or_insert(0) += entry.value;
            }
        }
        sum
    }

    /// Hint records held by the entry node.
    pub fn entry_hint_count(&self) -> usize {
        self.nodes[0].hint_entries().len()
    }

    /// Runs requests `ops` (draining and flushing every `flush_every`) and
    /// returns their totals. Spans go to `recorder` under `parent`.
    fn run_ops(
        &mut self,
        ops: Range<u64>,
        recorder: &mut Recorder,
        parent: SpanId,
    ) -> io::Result<Round> {
        let route = route_over(&self.cycle);
        let traced = recorder.enabled();
        let before = self.counters_now();
        let reads0 = self.generator.reads();
        let mut sink = RoundSink {
            expect: &self.expect,
            urls: &self.urls,
            lat_ns: Vec::with_capacity((ops.end - ops.start) as usize),
            local: 0,
            peer: 0,
            origin: 0,
            failed: 0,
            body_bytes: 0,
            recorder,
            parent,
        };
        let mut flush_ns = 0;
        let usage0 = ProcUsage::read();
        let t0 = now_ns();
        let mut start = ops.start;
        let mut outcome = Ok(());
        while start < ops.end {
            let end = (start + self.shape.flush_every).min(ops.end);
            outcome = self.generator.run(
                start..end,
                self.shape.window,
                &route,
                &self.frames,
                &mut sink,
            );
            if outcome.is_err() {
                break;
            }
            let f0 = now_ns();
            for node in &self.nodes {
                node.flush_updates_now();
            }
            let f1 = now_ns();
            flush_ns += f1 - f0;
            sink.recorder.push(Span {
                name: "client.flush",
                start_ns: f0,
                end_ns: f1,
                parent,
                op: end,
                calls: 1,
            });
            start = end;
        }
        let wall_ns = now_ns() - t0;
        let usage = ProcUsage::read().since(&usage0);
        let ops_n = ops.end - ops.start;
        let answered = sink.local + sink.peer + sink.origin + sink.failed;
        // A lost connection fails every request it left unanswered.
        let failed = sink.failed + (ops_n - answered.min(ops_n));
        let mut lat = std::mem::take(&mut sink.lat_ns);
        let (local, peer, origin, body_bytes) =
            (sink.local, sink.peer, sink.origin, sink.body_bytes);
        lat.sort_unstable();
        let after = self.counters_now();
        let counters = after
            .into_iter()
            .map(|(name, v)| {
                let delta = v.saturating_sub(before.get(&name).copied().unwrap_or(0));
                (name, delta)
            })
            .collect();
        if let Err(e) = outcome {
            eprintln!("{}: generator stopped: {e}", self.name);
        }
        Ok(Round {
            ops: ops_n,
            wall_ns,
            usage,
            lat_p50_ns: percentile_sorted(&lat, 50.0),
            lat_p99_ns: percentile_sorted(&lat, 99.0),
            local,
            peer,
            origin,
            failed,
            body_bytes,
            flush_ns,
            client_reads: self.generator.reads() - reads0,
            counters,
            traced,
        })
    }

    /// Runs round number `index` (0 is the discarded warm round). Every
    /// round covers the same request indices modulo the cycle.
    pub fn round(&mut self, index: u64, recorder: &mut Recorder) -> io::Result<Round> {
        let ops = index * self.shape.round_ops..(index + 1) * self.shape.round_ops;
        let t0 = now_ns();
        let parent = recorder.open("bench.round", t0, NO_PARENT, index);
        let round = self.run_ops(ops, recorder, parent);
        recorder.close(parent, now_ns());
        round
    }

    /// `samples` request/reply round trips with one request in flight, in
    /// µs, ascending. Diagnostic only: known to be bimodal on two cores.
    pub fn unloaded_rtts_us(&mut self, samples: u64) -> io::Result<Vec<f64>> {
        struct Rtts(Vec<f64>);
        impl ReplySink for Rtts {
            fn reply(&mut self, request: Pending, recv_ns: u64, _reply: Message) {
                self.0
                    .push(recv_ns.saturating_sub(request.sent_ns) as f64 / 1e3);
            }
        }
        let route = route_over(&self.cycle);
        let mut sink = Rtts(Vec::with_capacity(samples as usize));
        self.generator
            .run(0..samples, 1, &route, &self.frames, &mut sink)?;
        for node in &self.nodes {
            node.flush_updates_now();
        }
        sink.0.sort_by(f64::total_cmp);
        Ok(sink.0)
    }
}
