//! The cache-node daemon: a Squid-like proxy with the paper's hint module.
//!
//! Each node serves `Get` requests from clients: local cache first, then a
//! **local** hint lookup naming the nearest peer copy, then a direct
//! peer-to-peer transfer, and finally the origin server (misses never take
//! extra hops — a failed hint costs exactly one wasted probe). Nodes
//! advertise copy arrivals/departures as 20-byte hint updates, batched and
//! flushed to their neighbor set on a randomized period (§3.2's
//! Floyd–Jacobson desynchronization).
//!
//! One connection engine (`engine`): a bounded set of epoll shard threads
//! owns all client and peer sockets, answering hint-module frames inline
//! and handing `Get` misses to a bounded worker pool. Outbound traffic
//! (peer probes, origin fetches, hint flushes) goes through a warm
//! [`crate::pool::ConnectionPool`], and flushes coalesce into
//! authenticated [`Message::HintBatch`] frames. The engine needs Linux
//! epoll; on any other target [`CacheNode::spawn`] fails with
//! [`io::ErrorKind::Unsupported`].
//!
//! Who a node flushes to, who it heartbeats, what it believes about their
//! health and the Plaxton tree it keeps repaired are one value behind one
//! lock (`membership`), installed whole by [`CacheNode::rewire`] and
//! changed afterwards by one step per heartbeat outcome — see that
//! module for the "`Dead` implies repaired" invariant.

mod engine;
mod hints;
mod membership;
mod meta;
mod metrics;
mod service;

pub use membership::{mesh_tree_for, Wiring};
pub use metrics::{NodeStats, NODE_TRACE_CAPACITY};

use crate::liveness::PeerHealth;
use crate::pool::{ConnectionPool, PoolConfig, RequestOptions};
use crate::wire::{
    coalesce, hint_batch_tag, HintAction, HintUpdate, MachineId, Message, ServedBy, Status,
};
use bh_cache::LruCache;
use bh_obs::{span, MetricEntry, MetricInfo, TraceEvent, TraceRing};
use bh_simcore::ByteSize;
use bytes::Bytes;
use hints::HintStore;
use membership::Membership;
use metrics::NodeMetrics;
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration for a [`CacheNode`].
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Address to bind (port 0 for ephemeral).
    pub bind: String,
    /// The origin server to fall back to.
    pub origin: SocketAddr,
    /// Neighbor caches that receive this node's hint-update batches
    /// (flat/mesh propagation); seeds [`Wiring::neighbors`] at spawn.
    pub neighbors: Vec<SocketAddr>,
    /// Data-cache capacity.
    pub data_capacity: ByteSize,
    /// Hint-store capacity (16-byte records, 4-way sets).
    pub hint_capacity: ByteSize,
    /// Upper bound of the randomized update-flush period. The paper uses
    /// 60 s; tests use milliseconds.
    pub flush_max: Duration,
    /// I/O timeout for peer and origin connections.
    pub io_timeout: Duration,
    /// Epoll shard threads (min 1).
    pub shards: usize,
    /// Worker threads servicing `Get` requests (min 1).
    pub workers: usize,
    /// Global cap on idle pooled connections across all remotes. `None`
    /// keeps the pool default (256). Wide meshes run many nodes per
    /// process in the harness, so the per-process fd budget is roughly
    /// `nodes × pool_idle_cap × fds-per-connection` — the mesh sweep
    /// shrinks this cap as the node count grows.
    pub pool_idle_cap: Option<usize>,
    /// Interval between liveness heartbeats to each neighbor.
    pub heartbeat_interval: Duration,
    /// Consecutive failed heartbeats before a neighbor becomes suspect.
    pub suspicion_threshold: u32,
    /// How long a neighbor must stay suspect (measured from the first
    /// failure of the streak) before it is confirmed dead and standing
    /// state — stale hints, Plaxton table entries — is repaired.
    pub confirm_death_after: Duration,
    /// Upper bound on how long `shutdown`/drop waits for node threads to
    /// unwind before detaching the stragglers.
    pub shutdown_deadline: Duration,
    /// When set, hint-store mutations are mirrored to a crash-safe
    /// append-only log in this directory (the [`bh_hintlog`] crate) and a
    /// warm restart replays it at spawn — recovering the hint table
    /// without a network-wide [`CacheNode::resync`]. `None` (the
    /// default) keeps the hint store purely in-memory.
    pub durability_dir: Option<PathBuf>,
}

impl NodeConfig {
    /// A config with the paper's defaults, ephemeral port, no neighbors.
    pub fn new(bind: impl Into<String>, origin: SocketAddr) -> Self {
        NodeConfig {
            bind: bind.into(),
            origin,
            // bh-lint: allow(no-hot-alloc, reason = "config construction runs once per node, not per request")
            neighbors: Vec::new(),
            data_capacity: ByteSize::from_mb(64),
            hint_capacity: ByteSize::from_mb(4),
            flush_max: Duration::from_secs(60),
            io_timeout: Duration::from_secs(5),
            shards: 2,
            workers: 8,
            pool_idle_cap: None,
            heartbeat_interval: Duration::from_secs(1),
            suspicion_threshold: 3,
            confirm_death_after: Duration::from_secs(30),
            shutdown_deadline: Duration::from_secs(5),
            durability_dir: None,
        }
    }

    /// Sets the neighbor list.
    pub fn with_neighbors(mut self, neighbors: Vec<SocketAddr>) -> Self {
        self.neighbors = neighbors;
        self
    }

    /// Sets the flush period bound.
    pub fn with_flush_max(mut self, d: Duration) -> Self {
        self.flush_max = d;
        self
    }

    /// Sets the data capacity.
    pub fn with_data_capacity(mut self, c: ByteSize) -> Self {
        self.data_capacity = c;
        self
    }

    /// Sets the epoll shard count.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Sets the `Get` worker-pool size.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Caps idle pooled connections across all remotes (min 1).
    pub fn with_pool_idle_cap(mut self, cap: usize) -> Self {
        self.pool_idle_cap = Some(cap.max(1));
        self
    }

    /// Sets the liveness heartbeat interval.
    pub fn with_heartbeat_interval(mut self, d: Duration) -> Self {
        self.heartbeat_interval = d;
        self
    }

    /// Sets the suspicion threshold (consecutive failed heartbeats).
    pub fn with_suspicion_threshold(mut self, n: u32) -> Self {
        self.suspicion_threshold = n.max(1);
        self
    }

    /// Sets the death-confirmation window.
    pub fn with_confirm_death_after(mut self, d: Duration) -> Self {
        self.confirm_death_after = d;
        self
    }

    /// Sets the shutdown join deadline.
    pub fn with_shutdown_deadline(mut self, d: Duration) -> Self {
        self.shutdown_deadline = d;
        self
    }

    /// Enables the durable hint log in `dir` (created if missing).
    pub fn with_durability_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.durability_dir = Some(dir.into());
        self
    }
}

#[derive(Debug)]
struct Store {
    /// Metadata LRU (sizes/versions) driving eviction.
    meta: LruCache,
    /// Object bodies, keyed like `meta`.
    bodies: HashMap<u64, Bytes>,
}

#[derive(Debug)]
struct Inner {
    config: NodeConfig,
    machine: MachineId,
    store: Mutex<Store>,
    /// The hint table and its durable mirror (never locked under the
    /// store lock).
    hints: HintStore,
    /// Coalescing buffer for outbound hint updates, bounded at
    /// [`PENDING_CAP`] with drop-oldest overflow.
    pending: Mutex<VecDeque<HintUpdate>>,
    /// The control plane: wiring, peer health and the Plaxton tree, one
    /// lock (never held across outbound I/O or another lock).
    membership: Mutex<Membership>,
    metrics: NodeMetrics,
    /// Structured request/propagation trace ring; timestamps are micros
    /// since `started` (the ring itself never reads a clock).
    trace: Mutex<TraceRing>,
    started: Instant,
    shutdown: AtomicBool,
    /// Warm outbound connections: every peer probe, origin fetch, hint
    /// flush, heartbeat and resync goes through this pool.
    pool: ConnectionPool,
    /// Consecutive hint-batch authentication failures per sender
    /// (keyed by `MachineId.0`); crossing
    /// [`HINT_AUTH_QUARANTINE_AFTER`] quarantines the sender.
    hint_auth: Mutex<HashMap<u64, u32>>,
    /// Drain switch (mesh API `Set .../control/drain`): while set, every
    /// client `Get` is turned away with a `Redirect` so the node can be
    /// taken out of rotation without killing in-flight hint traffic.
    drained: AtomicBool,
    /// Completed namespace-triggered resyncs (`Set .../control/resync`
    /// is asynchronous; callers poll `.../control/resync/runs` to see
    /// the run land).
    resync_runs: AtomicU64,
    /// Total hint records learned across those resyncs.
    resync_learned: AtomicU64,
}

impl Inner {
    /// Whether the drain switch is set (checked on every `Get` fast
    /// path; one relaxed load).
    fn drained(&self) -> bool {
        self.drained.load(Ordering::Relaxed)
    }
}

/// Handle to a running cache node; dropping it shuts the node down.
#[derive(Debug)]
pub struct CacheNode {
    addr: SocketAddr,
    inner: Arc<Inner>,
    threads: Vec<std::thread::JoinHandle<()>>,
    /// Wakers for the shard threads; used to break them out of
    /// `epoll_wait` at shutdown.
    wakers: Vec<bh_netpoll::Waker>,
}

impl CacheNode {
    /// Binds, spawns the connection engine, the update flusher and the
    /// heartbeat loop.
    ///
    /// # Errors
    ///
    /// Propagates bind errors; fails for IPv6 binds (machine IDs are the
    /// paper's 8-byte IPv4+port records), and with
    /// [`io::ErrorKind::Unsupported`] on targets without epoll.
    pub fn spawn(config: NodeConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(&config.bind)?;
        let addr = listener.local_addr()?;
        let machine = MachineId::from_addr(addr)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "IPv4 bind required"))?;
        let pool = ConnectionPool::new(PoolConfig {
            connect_timeout: config.io_timeout,
            io_timeout: config.io_timeout,
            quarantine: config.io_timeout * 4,
            // Every worker may hold a connection to the same remote at
            // once; a smaller cap would drop and re-dial the excess.
            max_idle_per_peer: config.workers.max(4),
            max_idle_total: config
                .pool_idle_cap
                .unwrap_or(PoolConfig::default().max_idle_total),
            // Per-node jitter stream: distinct nodes must not retry or
            // re-probe in lockstep.
            jitter_seed: machine.0,
            ..PoolConfig::default()
        });
        let metrics = NodeMetrics::register();
        // Warm restart: a durable store replays snapshot + tail before
        // the node serves a single request.
        let t0 = Instant::now();
        let hints = HintStore::open(config.hint_capacity, config.durability_dir.as_deref());
        if hints.is_durable() {
            metrics
                .hint_log_replay_micros
                .add(t0.elapsed().as_micros() as u64);
            metrics
                .hints_recovered_from_log
                .add(hints.table.lock().len() as u64);
        }
        let inner = Arc::new(Inner {
            machine,
            store: Mutex::new(Store {
                meta: LruCache::new(config.data_capacity),
                bodies: HashMap::new(),
            }),
            hints,
            pending: Mutex::new(VecDeque::new()),
            membership: Mutex::new(Membership::new(
                Wiring {
                    neighbors: config.neighbors.clone(),
                    ..Wiring::default()
                },
                &config,
            )),
            metrics,
            trace: Mutex::new(TraceRing::new(NODE_TRACE_CAPACITY)),
            started: Instant::now(),
            shutdown: AtomicBool::new(false),
            pool,
            hint_auth: Mutex::new(HashMap::new()),
            drained: AtomicBool::new(false),
            resync_runs: AtomicU64::new(0),
            resync_learned: AtomicU64::new(0),
            config,
        });

        let engine::Engine {
            mut threads,
            wakers,
        } = engine::spawn(listener, Arc::clone(&inner))?;
        {
            let inner = Arc::clone(&inner);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("cache-flush-{addr}"))
                    .spawn(move || flush_loop(inner))?,
            );
        }
        {
            let inner = Arc::clone(&inner);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("cache-heartbeat-{addr}"))
                    .spawn(move || membership::heartbeat_loop(inner))?,
            );
        }
        Ok(CacheNode {
            addr,
            inner,
            threads,
            wakers,
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// This node's 8-byte machine identifier.
    pub fn machine_id(&self) -> MachineId {
        self.inner.machine
    }

    /// Counter snapshot as the typed view ([`NodeStats`]), derived from
    /// the registry — the same flat list [`CacheNode::metrics_snapshot`]
    /// returns and `Get mesh/nodes/self/metrics` answers.
    pub fn stats(&self) -> NodeStats {
        NodeStats::from_snapshot(&self.metrics_snapshot())
    }

    /// Every registered metric as a sorted `(name, value)` list,
    /// including the pool gauges (refreshed now) and the latency
    /// histogram buckets.
    pub fn metrics_snapshot(&self) -> Vec<MetricEntry> {
        self.inner.metrics.snapshot_with_pool(&self.inner.pool)
    }

    /// The metric catalog (name, unit, help, determinism class).
    pub fn metrics_catalog(&self) -> Vec<MetricInfo> {
        self.inner.metrics.catalog()
    }

    /// Retained trace records, oldest first.
    pub fn trace_snapshot(&self) -> Vec<TraceEvent> {
        self.inner.trace.lock().snapshot()
    }

    /// Number of objects currently cached.
    pub fn cached_objects(&self) -> usize {
        self.inner.store.lock().meta.len()
    }

    /// The hint module's **find nearest** command: the location of the
    /// nearest known copy of the object with `key`, if any.
    pub fn find_nearest(&self, key: u64) -> Option<MachineId> {
        self.inner.hints.table.lock().lookup(key).map(MachineId)
    }

    /// The hint module's **invalidate** command: drops the local copy of
    /// `url` and advertises the non-presence.
    pub fn invalidate(&self, url: &str) {
        let key = bh_md5::url_key(url);
        let mut store = self.inner.store.lock();
        if store.meta.remove(key).is_some() {
            store.bodies.remove(&key);
            drop(store);
            queue_update(&self.inner, HintAction::Remove, key);
        }
    }

    /// Replaces the neighbor set at runtime (nodes joining or leaving the
    /// collective — the paper's self-configuring hierarchy reassigns
    /// neighbors the same way).
    pub fn set_neighbors(&self, neighbors: Vec<SocketAddr>) {
        self.inner.membership.lock().set_neighbors(neighbors);
    }

    /// Installs this node's whole place in a mesh in one step — hint
    /// topology, re-homing fallbacks, liveness peers and the shared
    /// Plaxton membership (every member must pass the same ordered
    /// [`Wiring::members`] so the trees agree) — presuming every peer
    /// alive. A confirmed death then removes the member from the tree and
    /// counts the rewritten routing-table entries in
    /// [`NodeStats::plaxton_repair_entries`]; a dead parent is replaced by
    /// the first fallback that is not the dead one, counted in
    /// [`NodeStats::parent_rehomes`], and the cached objects are
    /// re-advertised upward so hint propagation resumes through it; a
    /// revival returns the member to its own slot in the tree.
    pub fn rewire(&self, wiring: Wiring) {
        *self.inner.membership.lock() = Membership::new(wiring, &self.inner.config);
    }

    /// The current metadata parent, if any.
    pub fn parent(&self) -> Option<SocketAddr> {
        self.inner.membership.lock().parent()
    }

    /// Flushes pending hint updates to all neighbors immediately (tests use
    /// this instead of waiting out the randomized timer).
    pub fn flush_updates_now(&self) {
        flush_once(&self.inner);
    }

    /// The outbound connection pool — fault switch, partition block list,
    /// quarantine state. The chaos driver steers faults through this.
    pub fn pool(&self) -> &ConnectionPool {
        &self.inner.pool
    }

    /// The hint store's current contents as `(object, location)` pairs,
    /// sorted by object key.
    pub fn hint_entries(&self) -> Vec<(u64, u64)> {
        self.inner.hints.entries()
    }

    /// The failure detector's current judgment of `addr`.
    pub fn peer_health(&self, addr: SocketAddr) -> PeerHealth {
        self.inner.membership.lock().health(addr)
    }

    /// Runs one round of heartbeats against the current neighbor set
    /// immediately (tests use this instead of waiting out the interval).
    pub fn heartbeat_now(&self) {
        membership::heartbeat_round(&self.inner);
    }

    /// Anti-entropy pull: asks every neighbor for the objects it holds and
    /// applies the answers to the hint store. A warm-restarted node calls
    /// this to rebuild the hint table it lost in the crash instead of
    /// waiting for organic update traffic. Returns the number of hint
    /// records received.
    pub fn resync(&self) -> usize {
        resync_now(&self.inner)
    }

    /// Stops the node gracefully and joins its threads (bounded by
    /// [`NodeConfig::shutdown_deadline`]). Staged durable-log records
    /// reach the disk first — only a crash ([`CacheNode::kill`]) loses
    /// them.
    pub fn shutdown(mut self) {
        self.inner.hints.persist();
        self.stop();
    }

    /// Crash-stop: tears the node down immediately, discarding pending
    /// hint updates instead of flushing them — the failure mode the chaos
    /// harness injects. The rest of the mesh sees an unannounced
    /// disappearance and recovers via quarantine, suspicion, and resync.
    pub fn kill(mut self) {
        self.inner.pending.lock().clear();
        // A crash loses everything not yet fsynced: staged log records
        // die with the process, exactly like the pending hint updates.
        self.inner.hints.table.lock().discard_staged();
        self.stop();
    }

    fn stop(&mut self) {
        // Idempotent: the first call drains `threads`, so an explicit
        // `shutdown` followed by the Drop-driven call finds nothing to do.
        self.inner.shutdown.store(true, Ordering::SeqCst);
        // Fail outbound I/O fast so workers blocked behind pool requests
        // unwind instead of riding out connect timeouts.
        self.inner.pool.poison();
        for waker in &self.wakers {
            waker.wake();
        }
        let _ = TcpStream::connect(self.addr);
        let deadline = Instant::now() + self.inner.config.shutdown_deadline;
        let mut pending: Vec<std::thread::JoinHandle<()>> = self.threads.drain(..).collect();
        loop {
            let mut still_running = Vec::with_capacity(pending.len());
            for t in pending {
                if t.is_finished() {
                    let _ = t.join();
                } else {
                    still_running.push(t);
                }
            }
            pending = still_running;
            if pending.is_empty() {
                break;
            }
            if Instant::now() >= deadline {
                // Deadline reached: detach the stragglers rather than
                // wedging the caller on a stuck worker. They observe the
                // shutdown flag and the poisoned pool on their own.
                break;
            }
            // Re-nudge the accept loop in case the first connect raced the
            // shutdown flag.
            let _ = TcpStream::connect(self.addr);
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Drop for CacheNode {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Records one span into the node's trace ring. The timestamp is micros
/// since node start, computed here and passed in — the ring itself is
/// clock-free.
fn trace_event(inner: &Inner, kind: u16, a: u64, b: u64) {
    let ts = inner.started.elapsed().as_micros() as u64;
    inner.trace.lock().record(TraceEvent {
        ts_micros: ts,
        kind,
        a,
        b,
    });
}

/// Cap on the pending hint-update coalescing buffer. A slow or dead
/// neighbor cannot grow the queue past this: overflow drops the oldest
/// records — they are hints, so the next flush, push, or anti-entropy
/// resync re-advertises the state — and counts `hint_batch_overflow`.
const PENDING_CAP: usize = 4096;

/// Pushes one update into `pending`, evicting the oldest record when the
/// buffer is at `cap`. Returns how many records were dropped (0 or 1).
fn push_bounded(pending: &mut VecDeque<HintUpdate>, update: HintUpdate, cap: usize) -> u64 {
    let mut dropped = 0;
    while pending.len() >= cap {
        pending.pop_front();
        dropped += 1;
    }
    pending.push_back(update);
    dropped
}

fn queue_pending<I: IntoIterator<Item = HintUpdate>>(inner: &Inner, updates: I) {
    let mut pending = inner.pending.lock();
    let mut dropped = 0;
    for u in updates {
        dropped += push_bounded(&mut pending, u, PENDING_CAP);
    }
    drop(pending);
    if dropped > 0 {
        inner.metrics.hint_batch_overflow.add(dropped);
    }
}

fn queue_update(inner: &Inner, action: HintAction, key: u64) {
    queue_pending(
        inner,
        std::iter::once(HintUpdate {
            action,
            object: key,
            machine: inner.machine,
        }),
    );
}

/// Sleeps `total` in 20 ms slices so shutdown joins promptly even with
/// long periods; returns whether the node is still running.
fn sleep_unless_shutdown(inner: &Inner, total: Duration) -> bool {
    let mut remaining = total;
    while !remaining.is_zero() && !inner.shutdown.load(Ordering::SeqCst) {
        let slice = remaining.min(Duration::from_millis(20));
        std::thread::sleep(slice);
        remaining -= slice;
    }
    !inner.shutdown.load(Ordering::SeqCst)
}

fn flush_loop(inner: Arc<Inner>) {
    // Randomized period: uniform in [0, flush_max), re-drawn every round
    // (Floyd–Jacobson desynchronization).
    let mut seed = inner.machine.0 | 1;
    let max_ms = inner.config.flush_max.as_millis().max(1) as u64;
    loop {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        if !sleep_unless_shutdown(&inner, Duration::from_millis(seed % max_ms)) {
            return;
        }
        flush_once(&inner);
    }
}

/// Consecutive hint-batch authentication failures a sender is allowed
/// before it is quarantined (pool-blocked, hints purged like a dead
/// peer's). The first valid batch afterwards heals it.
const HINT_AUTH_QUARANTINE_AFTER: u32 = 3;

/// Builds this node's authenticated outbound [`Message::HintBatch`].
/// When the chaos harness arms `corrupt_hint_tags` on the fault switch,
/// the tag's first byte is flipped — the frame still parses everywhere,
/// but verification fails at every honest receiver (the byzantine-sender
/// fault).
fn outbound_hint_batch(inner: &Inner, updates: Vec<HintUpdate>) -> Message {
    let mut msg = Message::hint_batch(inner.machine, updates);
    if inner.pool.fault_switch().corrupt_hint_tags() {
        if let Message::HintBatch { tag, .. } = &mut msg {
            tag[0] ^= 0xFF;
        }
    }
    msg
}

/// Checks a received batch's authenticator against the tag this node
/// computes for `(sender, updates)`. A mismatch counts
/// `hint_auth_failures` and advances the sender's failure streak;
/// crossing [`HINT_AUTH_QUARANTINE_AFTER`] quarantines the sender —
/// outbound path blocked, every hint it planted purged (the same repair
/// a confirmed death gets). A valid batch from a quarantined sender
/// heals it: streak cleared, block lifted.
fn verify_hint_batch(
    inner: &Inner,
    sender: MachineId,
    updates: &[HintUpdate],
    tag: &[u8; 16],
) -> bool {
    if hint_batch_tag(sender, updates) == *tag {
        let was_quarantined = inner
            .hint_auth
            .lock()
            .remove(&sender.0)
            .is_some_and(|streak| streak >= HINT_AUTH_QUARANTINE_AFTER);
        if was_quarantined {
            let addr = sender.to_addr();
            inner.pool.unblock(addr);
            inner.pool.forgive(addr);
        }
        return true;
    }
    inner.metrics.hint_auth_failures.inc();
    let streak = {
        let mut auth = inner.hint_auth.lock();
        let streak = auth.entry(sender.0).or_insert(0);
        *streak += 1;
        *streak
    };
    if streak == HINT_AUTH_QUARANTINE_AFTER {
        inner.pool.block(sender.to_addr());
        let purged = inner.hints.table.lock().purge_location(sender.0);
        inner.metrics.stale_hints_gc.add(purged as u64);
    }
    false
}

fn flush_once(inner: &Inner) {
    inner.hints.persist();
    let batch: Vec<HintUpdate> = std::mem::take(&mut *inner.pending.lock()).into();
    if batch.is_empty() {
        return;
    }
    let targets = inner.membership.lock().flush_targets();
    // Coalesce first (an Add shadowed by a Remove never hits the wire),
    // then one versioned HintBatch per target over a warm pooled
    // connection. A dead target fails at most one fast probe and is
    // quarantined; the flush never wedges on it.
    let batch = coalesce(batch);
    let batch_n = batch.len() as u64;
    let targets_n = targets.len() as u64;
    let msg = outbound_hint_batch(inner, batch);
    for neighbor in targets {
        if let Ok(Message::Ack) = inner
            .pool
            .request(neighbor, RequestOptions::peer_probe(), &msg)
        {
            inner.metrics.updates_sent.add(batch_n);
        }
    }
    trace_event(inner, span::FLUSH_BATCH, batch_n, targets_n);
}

/// Anti-entropy pull ([`CacheNode::resync`] and the mesh API's
/// `Set .../control/resync`): asks every flush target for the objects it
/// holds and applies the authenticated answers to the hint store.
/// Returns the number of hint records learned and advances the
/// namespace-visible `resync_runs`/`resync_learned` counters.
fn resync_now(inner: &Inner) -> usize {
    // Pull from the same peers a flush would reach, so a restarted leaf
    // recovers through its parent even with an empty neighbor set.
    let mut learned = 0;
    let targets = inner.membership.lock().flush_targets();
    for addr in targets {
        // Two attempts, no quarantine interaction either way: resync
        // runs right after restart, when this node has no basis for
        // judging its peers yet.
        let opts = RequestOptions {
            max_attempts: 2,
            quarantine_on_failure: false,
            respect_quarantine: false,
        };
        if let Ok(Message::HintBatch {
            sender,
            updates,
            tag,
        }) = inner.pool.request(addr, opts, &Message::Resync)
        {
            // Resync replies are authenticated like any other batch:
            // a byzantine peer cannot seed a restarting node's hint
            // table with forged locations.
            if verify_hint_batch(inner, sender, &updates, &tag) {
                learned += updates.len();
                apply_updates(inner, updates);
            }
        }
    }
    inner
        .resync_learned
        .fetch_add(learned as u64, Ordering::Relaxed);
    // Release pairs with the Acquire read in the meta namespace: a poller
    // that observes the run count also observes its learned total.
    inner.resync_runs.fetch_add(1, Ordering::Release);
    learned
}

/// Applies a received update batch to the hint store with the §3.1.2
/// filtering, queueing the state-changing subset for hierarchical
/// re-propagation. Callers verify the batch's authenticator first
/// ([`verify_hint_batch`]); nothing reaches the hint store unauthenticated.
fn apply_updates(inner: &Inner, updates: Vec<HintUpdate>) {
    let hierarchical = inner.membership.lock().hierarchical();
    // One lock for the whole batch, one pass in batch order: the
    // propagate subset is the updates that changed this table.
    let mut hints = inner.hints.table.lock();
    let mut propagate = Vec::with_capacity(if hierarchical { updates.len() } else { 0 });
    for u in updates.iter().filter(|u| u.machine != inner.machine) {
        let changed = match u.action {
            // §3.1.2 filtering: forward only the first copy this subtree
            // learns of...
            HintAction::Add => hints.learn(u.object, u.machine.0),
            // ...and a departure only if the hint named the departing
            // machine.
            HintAction::Remove => hints.forget_if(u.object, u.machine.0),
        };
        if !changed {
            inner.metrics.updates_filtered.inc();
        } else if hierarchical {
            propagate.push(*u);
        }
    }
    drop(hints);
    inner.metrics.updates_received.add(updates.len() as u64);
    if !propagate.is_empty() {
        // Knowledge changed: climb/descend the metadata tree. Loop-safe
        // because re-applying the same update is a no-op (filtered)
        // everywhere it has already landed.
        queue_pending(inner, propagate);
    }
}

/// Answers every frame that can be served from purely local state — the
/// hint-module commands, pushes, and the meta namespace. `Get` is *not*
/// local (it may probe a peer or the origin) and is answered with an
/// error here; the engine routes it to [`service::service_gets`] before
/// calling this. Takes the `Arc` (not `&Inner`) because meta control writes that
/// imply outbound I/O (`control/resync`, `control/flush`) must detach
/// onto their own thread — shard threads never perform outbound I/O.
fn local_response(inner: &Arc<Inner>, msg: Message) -> Message {
    match msg {
        Message::MetaRequest { op, path, value } => meta::handle(inner, op, &path, &value),
        Message::PeerGet { url } => {
            // Serve only from the local cache; never forward.
            let (status, version, body) = match service::cached(inner, bh_md5::url_key(&url)) {
                Some((version, body)) => (Status::Ok, version, body),
                None => (Status::NotFound, 0, Bytes::new()),
            };
            Message::GetReply {
                status,
                version,
                served_by: ServedBy::Local,
                body,
            }
        }
        Message::HintBatch {
            sender,
            updates,
            tag,
        } => {
            // Authenticated batch: a bad tag is dropped (and counted
            // toward the sender's quarantine streak) but still Acked —
            // hints are advisory, so a byzantine sender learns nothing
            // from the reply and an honest one never sees an error.
            if verify_hint_batch(inner, sender, &updates, &tag) {
                apply_updates(inner, updates);
            }
            Message::Ack
        }
        Message::Push { url, version, body } => {
            let key = bh_md5::url_key(&url);
            inner.metrics.pushes_received.inc();
            service::store_body(inner, key, version, body);
            // Aging (§4.1.2): pushed copies start at the cold end.
            inner.store.lock().meta.demote(key);
            Message::Ack
        }
        Message::FindNearest { key } => {
            let location = inner.hints.table.lock().lookup(key).map(MachineId);
            Message::FindNearestReply { location }
        }
        Message::Ping => Message::Ack,
        Message::Resync => {
            // Anti-entropy pull from a restarting peer: re-advertise every
            // object this node currently holds, as plain Adds. Sorted so
            // the reply is deterministic for a given store state.
            let mut keys: Vec<u64> = {
                let store = inner.store.lock();
                store.bodies.keys().copied().collect()
            };
            keys.sort_unstable();
            let updates = keys
                .into_iter()
                .map(|object| HintUpdate {
                    action: HintAction::Add,
                    object,
                    machine: inner.machine,
                })
                .collect();
            inner.metrics.resyncs_served.inc();
            outbound_hint_batch(inner, updates)
        }
        _ => Message::GetReply {
            status: Status::Error,
            version: 0,
            served_by: ServedBy::Local,
            body: Bytes::new(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::{Mesh, Topology};
    use crate::origin::OriginServer;

    fn cluster(n: usize) -> (OriginServer, Vec<CacheNode>) {
        let origin = OriginServer::spawn("127.0.0.1:0").expect("origin");
        Mesh::spawn(origin, Topology::Flat { nodes: n }, |_, c| {
            c.with_flush_max(Duration::from_secs(3600))
        })
        .expect("mesh")
        .into_parts()
    }

    #[test]
    fn local_cache_serves_second_request() {
        let origin = OriginServer::spawn("127.0.0.1:0").expect("origin");
        let node = CacheNode::spawn(NodeConfig::new("127.0.0.1:0", origin.addr())).expect("node");
        let (s1, b1) = crate::client::fetch(node.addr(), "http://t.test/x").expect("fetch");
        let (s2, b2) = crate::client::fetch(node.addr(), "http://t.test/x").expect("fetch");
        assert_eq!(s1, crate::client::Source::Origin);
        assert_eq!(s2, crate::client::Source::Local);
        assert_eq!(b1, b2);
        assert_eq!(node.stats().local_hits, 1);
        assert_eq!(node.stats().origin_fetches, 1);
        assert_eq!(origin.request_count(), 1);
    }

    #[test]
    fn find_nearest_reflects_updates() {
        let (_origin, nodes) = cluster(2);
        let url = "http://t.test/shared";
        let key = bh_md5::url_key(url);
        crate::client::fetch(nodes[0].addr(), url).expect("fetch");
        nodes[0].flush_updates_now();
        // Node 1's hint store should now name node 0.
        let loc = nodes[1].find_nearest(key).expect("hint should arrive");
        assert_eq!(loc, nodes[0].machine_id());
    }

    #[test]
    fn invalidate_advertises_non_presence() {
        let (_origin, nodes) = cluster(2);
        let url = "http://t.test/gone";
        let key = bh_md5::url_key(url);
        crate::client::fetch(nodes[0].addr(), url).expect("fetch");
        nodes[0].flush_updates_now();
        assert!(nodes[1].find_nearest(key).is_some());
        nodes[0].invalidate(url);
        nodes[0].flush_updates_now();
        assert_eq!(nodes[1].find_nearest(key), None);
        assert_eq!(nodes[0].cached_objects(), 0);
    }

    /// Satellite: the pending coalescing buffer is bounded — overflow
    /// drops the oldest records and reports how many.
    #[test]
    fn pending_buffer_drops_oldest_at_cap() {
        let mut pending: VecDeque<HintUpdate> = VecDeque::new();
        let update = |object: u64| HintUpdate {
            action: HintAction::Add,
            object,
            machine: MachineId(9),
        };
        let mut dropped = 0;
        for i in 0..PENDING_CAP as u64 + 10 {
            dropped += push_bounded(&mut pending, update(i), PENDING_CAP);
        }
        assert_eq!(pending.len(), PENDING_CAP);
        assert_eq!(dropped, 10);
        // Oldest went first: the front is now record 10.
        assert_eq!(pending.front().map(|u| u.object), Some(10));
        assert_eq!(
            pending.back().map(|u| u.object),
            Some(PENDING_CAP as u64 + 9)
        );
    }
}
