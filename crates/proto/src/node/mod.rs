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
//! module for the "`Dead` implies repaired" invariant. What it has yet to
//! tell its peers and what it thinks of the batches they send is the
//! other one (`propagation`).
//!
//! This file is the node's frame: the shared state (`Inner`), the
//! [`CacheNode`] handle, spawn/stop with the control mailbox every
//! timer thread parks on (`Mailbox`), and the dispatch of frames
//! answered from local state (`local_response`).

mod config;
mod engine;
mod hints;
mod membership;
mod meta;
mod metrics;
mod outq;
mod propagation;
mod service;

pub use config::NodeConfig;
pub use membership::{mesh_tree_for, Wiring};
pub use metrics::{NodeStats, NODE_TRACE_CAPACITY};

use crate::liveness::PeerHealth;
use crate::pool::{ConnectionPool, PoolConfig};
use crate::wire::{HintAction, MachineId, Message, ServedBy, Status};
use bh_cache::LruCache;
use bh_obs::{MetricEntry, MetricInfo, TraceEvent, TraceRing};
use bytes::Bytes;
use hints::HintStore;
use membership::Membership;
use metrics::NodeMetrics;
use parking_lot::{Condvar, Mutex, MutexGuard};
use propagation::Propagation;
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

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
    /// What this node has yet to tell its peers and what it makes of
    /// what they tell it: the pending update queue, the per-sender auth
    /// streaks and the resync counts, one lock (never held across
    /// outbound I/O).
    propagation: Mutex<Propagation>,
    /// The control plane: wiring, peer health and the Plaxton tree, one
    /// lock (never held across outbound I/O or another lock).
    membership: Mutex<Membership>,
    metrics: NodeMetrics,
    /// Structured request/propagation trace ring; timestamps are micros
    /// since `started` (the ring itself never reads a clock).
    trace: Mutex<TraceRing>,
    started: Instant,
    /// Set first thing by `stop()`; the data-plane threads read it
    /// between events without a lock. The timer threads park on
    /// `mailbox`, which carries its own copy under the condvar's mutex.
    shutdown: AtomicBool,
    /// Warm outbound connections: every peer probe, origin fetch, hint
    /// flush, heartbeat and resync goes through this pool.
    pool: ConnectionPool,
    /// Drain switch (mesh API `Set .../control/drain`): while set, every
    /// client `Get` is turned away with a `Redirect` so the node can be
    /// taken out of rotation without killing in-flight hint traffic.
    drained: AtomicBool,
    /// Where flush/resync requests are posted, what the flush and
    /// heartbeat threads park on, and what `stop()` waits on.
    mailbox: Mailbox,
}

impl Inner {
    /// Whether the drain switch is set (checked on every `Get` fast
    /// path; one relaxed load).
    fn drained(&self) -> bool {
        self.drained.load(Ordering::Relaxed)
    }
}

/// The node's control mailbox, under [`Mailbox`]'s mutex.
#[derive(Debug, Default, Clone, Copy)]
struct Control {
    /// `Set …/control/flush` arrived since the flush thread last looked.
    /// A flag, not a count: any number of requests is one pending run.
    flush_requested: bool,
    /// Likewise for `Set …/control/resync`.
    resync_requested: bool,
    /// `stop()` was called: every parked thread leaves.
    shutdown: bool,
    /// Node threads that have not returned yet; `stop()` waits for 0.
    running: usize,
}

/// One mutex and one condvar for everything in the node that waits on
/// time: the flush thread parks here until its next deadline or a
/// request, the heartbeat thread for its interval, and `stop()` until the
/// threads are out. Nothing polls — every post notifies.
#[derive(Debug, Default)]
struct Mailbox {
    control: Mutex<Control>,
    wake: Condvar,
}

impl Mailbox {
    /// Changes the control state and wakes whoever waits on it.
    fn post(&self, change: impl FnOnce(&mut Control)) {
        change(&mut self.control.lock());
        self.wake.notify_all();
    }

    /// Parks until `ready` holds or `deadline` passes.
    fn wait_until(
        &self,
        deadline: Instant,
        ready: impl Fn(&Control) -> bool,
    ) -> MutexGuard<'_, Control> {
        let mut control = self.control.lock();
        while !ready(&control) {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            control = self.wake.wait_timeout(control, deadline - now).0;
        }
        control
    }

    /// The flush thread's wait: until `deadline`, a request or shutdown.
    /// Returns what it woke to and takes the requests with it.
    fn next_work(&self, deadline: Instant) -> Control {
        let mut control = self.wait_until(deadline, |c| {
            c.shutdown || c.flush_requested || c.resync_requested
        });
        let work = *control;
        control.flush_requested = false;
        control.resync_requested = false;
        work
    }

    /// Sleeps out `period` unless the node stops first; returns whether
    /// it is still running.
    fn sleep(&self, period: Duration) -> bool {
        !self
            .wait_until(Instant::now() + period, |c| c.shutdown)
            .shutdown
    }

    /// Tells every parked thread to leave and waits, at most until
    /// `deadline`, for all node threads to return; says whether they did.
    fn shut_down(&self, deadline: Instant) -> bool {
        self.post(|c| c.shutdown = true);
        self.wait_until(deadline, |c| c.running == 0).running == 0
    }
}

/// One node thread's entry in [`Control::running`], held for as long as
/// the thread lives: dropping it — on return or on a panic — is what
/// `stop()` waits for.
struct Running(Arc<Inner>);

impl Running {
    fn enter(inner: &Arc<Inner>) -> Running {
        inner.mailbox.control.lock().running += 1;
        Running(Arc::clone(inner))
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        self.0.mailbox.post(|c| c.running -= 1);
    }
}

/// Handle to a running cache node; dropping it shuts the node down.
#[derive(Debug)]
pub struct CacheNode {
    addr: SocketAddr,
    inner: Arc<Inner>,
    threads: Vec<std::thread::JoinHandle<()>>,
    /// Ends the engine's threads at shutdown: wakes the shards out of
    /// `epoll_wait` and sends each worker its stop sentinel.
    engine: engine::Stopper,
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
            propagation: Mutex::new(Propagation::default()),
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
            drained: AtomicBool::new(false),
            mailbox: Mailbox::default(),
            config,
        });

        let engine::Engine {
            mut threads,
            stopper,
        } = engine::spawn(listener, &inner)?;
        let flush: fn(&Inner) = propagation::flush_loop;
        for (name, body) in [("flush", flush), ("heartbeat", membership::heartbeat_loop)] {
            let running = Running::enter(&inner);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("cache-{name}-{addr}"))
                    .spawn(move || body(&running.0))?,
            );
        }
        Ok(CacheNode {
            addr,
            inner,
            threads,
            engine: stopper,
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
            propagation::queue_update(&self.inner, HintAction::Remove, key);
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
        propagation::flush_once(&self.inner);
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
        propagation::resync_now(&self.inner)
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
        self.inner.propagation.lock().discard_pending();
        // A crash loses everything not yet fsynced: staged log records
        // die with the process, exactly like the pending hint updates.
        self.inner.hints.table.lock().discard_staged();
        self.stop();
    }

    fn stop(&mut self) {
        // Idempotent: the first call drains `threads`, so an explicit
        // `shutdown` followed by the Drop-driven call finds nothing to do.
        if self.threads.is_empty() {
            return;
        }
        self.inner.shutdown.store(true, Ordering::SeqCst);
        // Fail outbound I/O fast so workers blocked behind pool requests
        // unwind instead of riding out connect timeouts.
        self.inner.pool.poison();
        self.engine.stop();
        // The accept thread blocks in `accept()`: one connection wakes it.
        let _ = TcpStream::connect(self.addr);
        let deadline = Instant::now() + self.inner.config.shutdown_deadline;
        let all_out = self.inner.mailbox.shut_down(deadline);
        for thread in self.threads.drain(..) {
            // Past the deadline the stragglers are detached rather than
            // wedging the caller on a stuck worker; they observe the
            // shutdown flag and the poisoned pool on their own.
            if all_out || thread.is_finished() {
                let _ = thread.join();
            }
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

/// Answers every frame that can be served from purely local state — the
/// hint-module commands, pushes, and the meta namespace. `Get` is *not*
/// local (it may probe a peer or the origin) and is answered with an
/// error here; the engine routes it to [`service::service_gets`] before
/// calling this. Nothing in here performs outbound I/O — shard threads
/// never do: the two meta control writes that imply it
/// (`control/resync`, `control/flush`) post a request to the mailbox.
fn local_response(inner: &Inner, msg: Message) -> Message {
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
            if propagation::verify_hint_batch(inner, sender, &updates, &tag) {
                propagation::apply_updates(inner, &updates);
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
            // object this node currently holds, as plain Adds.
            inner.metrics.resyncs_served.inc();
            propagation::outbound_hint_batch(inner, propagation::held_as_adds(inner))
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
}
