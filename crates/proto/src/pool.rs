//! Pooled peer/origin connections: keep-warm reuse, bounded exponential
//! backoff with deterministic jitter, and dead-peer quarantine.
//!
//! A connection is checked out for one in-order pipelined run at a time
//! (a single request is the run of one) and parked again within a
//! per-remote ([`MAX_IDLE_PER_PEER`]) and a global ([`MAX_IDLE_TOTAL`])
//! cap.
//!
//! Failure policy is per-request ([`RequestOptions`]) because the paper's
//! §3.2 contract is asymmetric. A **peer probe** gets one attempt and
//! quarantines the peer on failure: a dead peer costs at most one wasted
//! probe per window, and inside the window none (the probe fails fast and
//! the caller accounts a false positive as if it had probed). An **origin
//! fetch** retries with jittered backoff and ignores quarantine: the origin
//! is the only copy of record. Windows escalate on consecutive failures
//! (four I/O timeouts, doubling up to 30 s), and once one expires only
//! **one** run at a time may re-probe. A *stale* pooled socket is replayed
//! once on a fresh one without using an attempt. Partition blocks and a
//! [`FaultSwitch`] (latency, drop) serve the fault injector.
//!
//! Everything the pool decides is one value behind one lock (`peers`): per
//! remote its idle sockets, window, streak and re-probe slot, an entry
//! kept only while it holds any, for at most [`PEERS_CAP`] remotes; the block
//! set; the [`PoolStats`]; the jitter stream; the poison flag. Its steps
//! take no socket and read no clock — `admit` gates a run, `settle`
//! applies what the run did, `park` enforces the idle caps, `backoff`
//! draws a retry delay — so, like [`crate::liveness::LivenessTracker`],
//! the policy is pure in the time passed to it.
//!
//! A run in flight is a value too, an `Outbound`: admitted, then sent and
//! answered chunk by chunk over warm and fresh sockets, one step per call
//! of its `advance`, which never waits. What it waits for — its socket,
//! the exchange deadline, a backoff, injected latency — it returns as a
//! deadline, and whoever drives it registers the socket with a poller and
//! waits in `epoll_wait` for readiness or that deadline. A node's shard
//! does so on its own poller, so a shard never blocks on a peer;
//! [`ConnectionPool::request_run`] does so on one the pool keeps between
//! runs, stamped by the file's one clock read. Every pooled socket is
//! non-blocking for life: a connect returns while still in progress
//! ([`bh_netpoll::connect`]) and its completion is one more step,
//! signalled by writable readiness.

use crate::wire::{FrameAssembler, Message};
use bh_netpoll::fault::FaultSwitch;
use bh_netpoll::{Interest, Poller};
use bytes::{Bytes, BytesMut};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Idle connections kept warm per remote address: as many as a small
/// mesh's runs to one remote hold at once; a run past them re-dials.
pub const MAX_IDLE_PER_PEER: usize = 4;

/// Idle connections kept warm across *all* remotes, so a node in a wide
/// mesh stays inside the fd rlimit. A connection over the cap is closed;
/// the next request to its peer re-dials.
pub const MAX_IDLE_TOTAL: usize = 256;

/// Cap on partition-blocked addresses. A block's address comes off the
/// wire (an operator `Set …/pool/blocked/<addr> true`, a forging hint
/// sender), so past the cap a new one is refused; unblocking frees a slot.
pub const BLOCKED_CAP: usize = 1024;

/// Cap on the remotes whose quarantine state is tracked. Addresses come
/// from hint locations, which a forger holding the public per-sender key
/// can choose, so past the cap a new failure evicts a remote with no live
/// window and no held re-probe slot — or, with none, goes untracked.
pub const PEERS_CAP: usize = 1024;

/// Upper bound on an escalated quarantine window.
const QUARANTINE_CAP: Duration = Duration::from_secs(30);
/// Retry backoff: the first delay, doubled per attempt up to the cap.
const BACKOFF_BASE: Duration = Duration::from_millis(20);
const BACKOFF_CAP: Duration = Duration::from_millis(200);

/// Tuning knobs for a [`ConnectionPool`].
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// How long an exchange may wait for its socket to move — to connect,
    /// to take the frames, to answer — before it fails as timed out. A
    /// failed peer's first quarantine window is four of these.
    pub io_timeout: Duration,
    /// Seeds the backoff jitter and the fault switch's drop draws.
    pub jitter_seed: u64,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            io_timeout: Duration::from_secs(5),
            jitter_seed: 0x9E37_79B9_7F4A_7C15,
        }
    }
}

/// Per-request failure policy: one of the four constructors below.
#[derive(Debug, Clone, Copy)]
pub struct RequestOptions {
    /// Fresh-connect attempts before giving up (min 1).
    max_attempts: u32,
    /// A failure quarantines the remote.
    quarantine_on_failure: bool,
    /// Fail fast, without touching the network, while quarantined.
    respect_quarantine: bool,
}

impl RequestOptions {
    /// Policy for peer cache probes: one attempt, quarantine on failure,
    /// fail fast while quarantined — the §3.2 "one wasted probe" bound.
    pub fn peer_probe() -> Self {
        RequestOptions {
            max_attempts: 1,
            quarantine_on_failure: true,
            respect_quarantine: true,
        }
    }

    /// Policy for origin fetches and other must-reach traffic: retry with
    /// backoff, never quarantine, ignore quarantine state.
    pub fn origin() -> Self {
        RequestOptions {
            max_attempts: 3,
            quarantine_on_failure: false,
            respect_quarantine: false,
        }
    }

    /// Policy for liveness heartbeats: one attempt, feeds the quarantine
    /// but is never blocked by it, so the detector sees death and revival.
    pub fn heartbeat() -> Self {
        RequestOptions {
            max_attempts: 1,
            quarantine_on_failure: true,
            respect_quarantine: false,
        }
    }

    /// Policy for anti-entropy pulls: two attempts, no quarantine either
    /// way — right after a restart a node cannot judge its peers yet.
    pub fn resync() -> Self {
        RequestOptions {
            max_attempts: 2,
            quarantine_on_failure: false,
            respect_quarantine: false,
        }
    }
}

/// Counters exposed for tests and the load generator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Fresh TCP connects performed.
    pub connects: u64,
    /// Requests served over a reused warm connection.
    pub reuses: u64,
    /// Retry attempts after a failed fresh connect or round trip.
    pub retries: u64,
    /// Requests refused immediately because the remote was quarantined
    /// (includes refusals while another request held the re-probe slot).
    pub quarantine_rejections: u64,
    /// Requests refused because the remote was partition-blocked.
    pub partition_rejections: u64,
    /// Requests failed by the fault injector's packet-drop knob.
    pub injected_drops: u64,
}

impl PoolStats {
    fn absorb(&mut self, run: &PoolStats) {
        self.connects += run.connects;
        self.reuses += run.reuses;
        self.retries += run.retries;
        self.quarantine_rejections += run.quarantine_rejections;
        self.partition_rejections += run.partition_rejections;
        self.injected_drops += run.injected_drops;
    }
}

/// Read-ahead bytes per pooled connection: enough for several of a run's
/// replies per `read`, small because every warm connection pays it.
const POOLED_READ_BUF: usize = 16 * 1024;

/// Replies read off one socket: read ahead into a fixed buffer, each
/// payload copied into an allocation of exactly its frame's size, which
/// the decoded body then shares — a stored body never pins its
/// neighbours' bytes.
#[derive(Debug)]
struct Inbox {
    buf: Box<[u8]>,
    /// The unread bytes of `buf`.
    start: usize,
    end: usize,
    /// A reply whose header is read: its type, its payload's length and
    /// the payload so far.
    frame: Option<(u8, usize, Vec<u8>)>,
}

impl Inbox {
    fn new() -> Inbox {
        Inbox {
            buf: vec![0; POOLED_READ_BUF].into_boxed_slice(),
            start: 0,
            end: 0,
            frame: None,
        }
    }

    /// The next whole reply off `stream`, or `None` once the socket has
    /// no more bytes for now. A closed stream is an error.
    fn next(&mut self, stream: &TcpStream) -> io::Result<Option<Message>> {
        loop {
            let ahead = self.end - self.start;
            let Some((_, len, payload)) = &mut self.frame else {
                if ahead < 5 {
                    if !self.fill(stream)? {
                        return Ok(None);
                    }
                    continue;
                }
                let head = &self.buf[self.start..self.end];
                let len = FrameAssembler::header(head)? - 5;
                self.frame = Some((head[4], len, Vec::with_capacity(len)));
                self.start += 5;
                continue;
            };
            let take = (*len - payload.len()).min(ahead);
            payload.extend_from_slice(&self.buf[self.start..self.start + take]);
            self.start += take;
            let want = *len - payload.len();
            if want == 0 {
                if let Some((ty, _, payload)) = self.frame.take() {
                    return Message::decode(ty, Bytes::from(payload)).map(Some);
                }
            } else if want >= self.buf.len() {
                // Nothing is read ahead any more, and the rest of the
                // payload is at least a buffer: read it straight into place.
                match stream.take(want as u64).read_to_end(payload) {
                    Ok(0) => return Err(closed()),
                    Ok(_) => {}
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(None),
                    Err(e) => return Err(e),
                }
            } else if !self.fill(stream)? {
                return Ok(None);
            }
        }
    }

    /// Reads more behind what is left of the buffer; false when the socket
    /// has nothing for now.
    fn fill(&mut self, mut stream: &TcpStream) -> io::Result<bool> {
        self.buf.copy_within(self.start..self.end, 0);
        (self.start, self.end) = (0, self.end - self.start);
        loop {
            match stream.read(&mut self.buf[self.end..]) {
                Ok(0) => return Err(closed()),
                Ok(n) => {
                    self.end += n;
                    return Ok(true);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) => return Err(e),
            }
        }
    }
}

fn closed() -> io::Error {
    io::Error::new(
        io::ErrorKind::UnexpectedEof,
        "connection closed by the remote",
    )
}

/// A pooled stream and what it has read ahead, parked together: bytes past
/// one run's last reply belong to the connection's next.
#[derive(Debug)]
struct Link {
    /// Non-blocking from its connect on.
    stream: TcpStream,
    inbox: Inbox,
    /// The interest it is registered with on the driving poller.
    registered: Option<Interest>,
}

impl Link {
    /// Waits on `interest` from now on: registers the socket with
    /// `driver`'s poller, or changes what it is registered for.
    fn want(&mut self, Driver(poller, token): Driver<'_>, interest: Interest) -> io::Result<()> {
        match self.registered {
            Some(was) if was == interest => {}
            Some(_) => poller.modify(&self.stream, token, interest)?,
            None => poller.register(&self.stream, token, interest)?,
        }
        self.registered = Some(interest);
        Ok(())
    }

    /// Leaves the poller, so any poller may take the socket next.
    fn detach(&mut self, Driver(poller, _): Driver<'_>) {
        if self.registered.take().is_some() {
            let _ = poller.deregister(&self.stream);
        }
    }
}

/// The pool's one clock read: the pool's epoch (`ConnectionPool::new`),
/// [`ConnectionPool::request_run`]'s step stamps, and the quarantine
/// checks an operator scrapes (`is_quarantined`, `quarantined_peer_count`).
fn now() -> Instant {
    // bh-lint: allow(no-wall-clock, reason = "the pool's epoch, request_run's step stamps and the quarantine scrapes read it; every other pool step takes its time as a parameter")
    Instant::now()
}

/// The window after `streak` consecutive failures: `min(base·2^(streak−1),
/// QUARANTINE_CAP)`.
fn quarantine_window(base: Duration, streak: u32) -> Duration {
    base.saturating_mul(1 << streak.saturating_sub(1).min(16))
        .min(QUARANTINE_CAP)
}

/// Why [`PoolState::admit`] turned a run away. An expired window whose one
/// re-probe another run holds is `ReprobeInFlight`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Refusal {
    Poisoned,
    Blocked,
    Quarantined,
    ReprobeInFlight,
}

impl Refusal {
    /// What each frame fails with; a partition times out, like silence.
    fn error(self, addr: SocketAddr) -> io::Error {
        use io::ErrorKind::{ConnectionAborted, ConnectionRefused, TimedOut};
        let (kind, why) = match self {
            Refusal::Poisoned => (ConnectionAborted, "unreachable (pool shut down)"),
            Refusal::Blocked => (TimedOut, "unreachable (injected partition)"),
            Refusal::Quarantined => (ConnectionRefused, "quarantined"),
            Refusal::ReprobeInFlight => (ConnectionRefused, "re-probe in flight"),
        };
        io::Error::new(kind, format!("peer {addr} {why}"))
    }
}
/// A remote's quarantine state.
#[derive(Debug, Default)]
struct Peer {
    /// End of the window; once past, runs are gated by the re-probe slot
    /// (`probing`) until a frame is answered or the peer is forgiven.
    quarantined_until: Option<Instant>,
    /// Consecutive quarantining failures; scales the next window.
    streak: u32,
    probing: bool,
}

impl Peer {
    fn quarantined(&self, now: Instant) -> bool {
        self.quarantined_until.is_some_and(|until| now < until)
    }

    /// Nothing left to remember: the entry can go.
    fn is_clear(&self) -> bool {
        self.quarantined_until.is_none() && self.streak == 0 && !self.probing
    }
}

/// One run from [`PoolState::admit`] to [`PoolState::settle`]: its re-probe
/// slot, whether some frame was answered (on whichever socket) or lost
/// (dropped, or out of attempts), and the counters it accrued.
#[derive(Debug, Default)]
struct Run {
    reprobe: bool,
    answered: bool,
    failed: bool,
    tally: PoolStats,
}

/// Everything the pool decides (see the [module docs](self)); `C` is the
/// connection type, a socket in the pool and a token in the tests.
#[derive(Debug)]
struct PoolState<C> {
    /// Remotes with a window, a streak or a held re-probe slot, at most
    /// [`PEERS_CAP`]; an entry goes as soon as it is clear.
    peers: HashMap<SocketAddr, Peer>,
    /// Remotes with idle sockets; an entry goes as soon as it is empty.
    idle: HashMap<SocketAddr, Vec<C>>,
    /// Partition-blocked addresses, at most [`BLOCKED_CAP`].
    blocked: HashSet<SocketAddr>,
    stats: PoolStats,
    /// The backoff-jitter LCG's state.
    jitter: u64,
    poisoned: bool,
    /// A failed peer's first quarantine window.
    quarantine_base: Duration,
}

impl<C> PoolState<C> {
    fn new(config: &PoolConfig) -> Self {
        PoolState {
            peers: HashMap::new(),
            idle: HashMap::new(),
            blocked: HashSet::new(),
            stats: PoolStats::default(),
            jitter: config.jitter_seed | 1,
            poisoned: false,
            quarantine_base: config.io_timeout * 4,
        }
    }

    /// Gates a run of `frames` frames to `addr` under `policy` at `now`:
    /// poison, then the partition block, then — for a policy that respects
    /// quarantine — the window and the re-probe slot (an expired window
    /// admits one run at a time, which takes the slot); then checks out a
    /// warm connection if one is parked. Refusals are counted per frame.
    fn admit(
        &mut self,
        addr: SocketAddr,
        policy: RequestOptions,
        frames: usize,
        now: Instant,
    ) -> Result<(Option<C>, Run), Refusal> {
        if self.poisoned {
            return Err(Refusal::Poisoned);
        }
        if self.blocked.contains(&addr) {
            self.stats.partition_rejections += frames as u64;
            return Err(Refusal::Blocked);
        }
        let gate = self.peers.get_mut(&addr);
        let gate = gate.filter(|p| policy.respect_quarantine && p.quarantined_until.is_some());
        let reprobe = gate.is_some();
        if let Some(peer) = gate {
            if peer.quarantined(now) || peer.probing {
                self.stats.quarantine_rejections += frames as u64;
                return Err(if peer.quarantined(now) {
                    Refusal::Quarantined
                } else {
                    Refusal::ReprobeInFlight
                });
            }
            peer.probing = true;
        }
        let run = Run {
            reprobe,
            ..Run::default()
        };
        let conn = self.idle.get_mut(&addr).and_then(Vec::pop);
        if self.idle.get(&addr).is_some_and(Vec::is_empty) {
            self.idle.remove(&addr);
        }
        Ok((conn, run))
    }

    /// Applies what an admitted run did, at `now`. Any answered frame
    /// clears the window and the streak, whichever socket carried it; a
    /// failure under a quarantining policy then escalates the window to
    /// `min(base·2^(streak−1), cap)` and drops the remote's idle sockets.
    /// Releases the re-probe slot if the run held it, and counts. An entry
    /// left clear is dropped.
    fn settle(&mut self, addr: SocketAddr, policy: RequestOptions, run: &Run, now: Instant) {
        let escalate = run.failed && policy.quarantine_on_failure;
        let base = self.quarantine_base;
        let peer = if escalate {
            self.idle.remove(&addr);
            self.tracked(addr, now)
        } else {
            self.peers.get_mut(&addr)
        };
        if let Some(peer) = peer {
            if run.answered {
                (peer.quarantined_until, peer.streak) = (None, 0);
            }
            if escalate {
                peer.streak = peer.streak.saturating_add(1);
                peer.quarantined_until = Some(now + quarantine_window(base, peer.streak));
            }
            peer.probing &= !run.reprobe;
            if peer.is_clear() {
                self.peers.remove(&addr);
            }
        }
        self.stats.absorb(&run.tally);
    }

    /// `addr`'s entry, made if need be. Past [`PEERS_CAP`] it takes the
    /// place of the remote whose window ended longest ago, among those with
    /// no live window and no held slot; with none, `addr` goes untracked.
    fn tracked(&mut self, addr: SocketAddr, now: Instant) -> Option<&mut Peer> {
        if !self.peers.contains_key(&addr) && self.peers.len() >= PEERS_CAP {
            let evictable = self
                .peers
                .iter()
                .filter(|(_, p)| !p.quarantined(now) && !p.probing);
            let (&spare, _) = evictable.min_by_key(|(_, p)| p.quarantined_until)?;
            self.peers.remove(&spare);
        }
        Some(self.peers.entry(addr).or_default())
    }

    /// Parks `conn` as warm for `addr`, or drops it if the per-peer cap or
    /// [`MAX_IDLE_TOTAL`] is full.
    fn park(&mut self, addr: SocketAddr, conn: C) {
        let total = self.idle_total();
        let parked = self.idle.get(&addr).map_or(0, Vec::len);
        if parked < MAX_IDLE_PER_PEER && total < MAX_IDLE_TOTAL {
            self.idle.entry(addr).or_default().push(conn);
        }
    }

    /// The delay before retry `attempt`: exponential, capped, with jitter in
    /// `[delay/2, delay)` from the pool's seeded stream, so nodes (each
    /// seeded apart) do not stampede a restarted peer in lock-step.
    fn backoff(&mut self, attempt: u32) -> Duration {
        let base = BACKOFF_BASE.as_micros() as u64;
        let cap = BACKOFF_CAP.as_micros() as u64;
        let exp = base.saturating_mul(1u64 << attempt.min(16)).min(cap).max(1);
        let draw = self.jitter;
        self.jitter = draw
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        Duration::from_micros(exp / 2 + draw % (exp / 2).max(1))
    }

    fn quarantined(&self, addr: SocketAddr, now: Instant) -> bool {
        self.peers.get(&addr).is_some_and(|p| p.quarantined(now))
    }

    fn idle_total(&self) -> usize {
        self.idle.values().map(Vec::len).sum()
    }

    /// Forgets `addr`'s window and streak. A re-probe in flight keeps its
    /// slot until it settles, so it never releases a slot taken after this.
    fn clear_quarantine(&mut self, addr: SocketAddr) {
        if let Some(peer) = self.peers.get_mut(&addr) {
            (peer.quarantined_until, peer.streak) = (None, 0);
            if peer.is_clear() {
                self.peers.remove(&addr);
            }
        }
    }

    /// Blocks (`true`) or unblocks `addr`; returns whether `addr` is now as
    /// asked. A new block past [`BLOCKED_CAP`] is refused; a block drops
    /// the remote's idle sockets, so the partition severs warm paths too.
    fn set_blocked(&mut self, addr: SocketAddr, blocked: bool) -> bool {
        if !blocked {
            self.blocked.remove(&addr);
        } else if self.blocked.len() < BLOCKED_CAP || self.blocked.contains(&addr) {
            self.blocked.insert(addr);
            self.idle.remove(&addr);
        } else {
            return false;
        }
        true
    }
}

/// A warm connection pool over every remote this node talks to.
#[derive(Debug)]
pub struct ConnectionPool {
    io_timeout: Duration,
    /// Held for one step at a time, never across I/O.
    peers: Mutex<PoolState<Link>>,
    fault: Arc<FaultSwitch>,
    /// Time zero of the micros every run is stepped with.
    epoch: Instant,
    /// The poller [`ConnectionPool::request_run`] steps its runs on,
    /// parked here between runs with no socket registered.
    spare: Mutex<Option<Poller>>,
}

impl ConnectionPool {
    /// Creates an empty pool with its own fault switch, seeded from
    /// [`PoolConfig::jitter_seed`].
    pub fn new(config: PoolConfig) -> Self {
        ConnectionPool {
            io_timeout: config.io_timeout,
            peers: Mutex::new(PoolState::new(&config)),
            fault: Arc::new(FaultSwitch::new(config.jitter_seed)),
            epoch: now(),
            spare: Mutex::new(None),
        }
    }

    /// When the pool was made: runs are stepped in micros since then.
    pub(crate) fn epoch(&self) -> Instant {
        self.epoch
    }

    /// `micros` since the epoch, as the policy's instant.
    fn at(&self, micros: u64) -> Instant {
        self.epoch + Duration::from_micros(micros)
    }

    /// [`ConnectionPool::request_run`]'s clock: micros since the epoch.
    fn clock(&self) -> u64 {
        now().saturating_duration_since(self.epoch).as_micros() as u64
    }

    /// The fault switch this pool consults before every send.
    pub fn fault_switch(&self) -> &Arc<FaultSwitch> {
        &self.fault
    }

    /// Snapshot of the pool counters.
    pub fn stats(&self) -> PoolStats {
        self.peers.lock().stats
    }

    /// True while `addr` is inside its quarantine window.
    pub fn is_quarantined(&self, addr: SocketAddr) -> bool {
        self.peers.lock().quarantined(addr, now())
    }

    /// Consecutive quarantining failures since `addr` last answered.
    pub fn quarantine_streak(&self, addr: SocketAddr) -> u32 {
        self.peers.lock().peers.get(&addr).map_or(0, |p| p.streak)
    }

    /// Injects a partition: requests to `addr` fail fast, and its parked
    /// connections are dropped, until [`ConnectionPool::unblock`]. Returns
    /// false, blocking nothing, when [`BLOCKED_CAP`] others are blocked.
    pub fn block(&self, addr: SocketAddr) -> bool {
        self.peers.lock().set_blocked(addr, true)
    }

    /// Heals an injected partition.
    pub fn unblock(&self, addr: SocketAddr) {
        self.peers.lock().set_blocked(addr, false);
    }

    /// True while `addr` is partition-blocked.
    pub fn is_blocked(&self, addr: SocketAddr) -> bool {
        self.peers.lock().blocked.contains(&addr)
    }

    /// Peers inside their quarantine window, counted at scrape time (the
    /// `pool_quarantined_peers` gauge; expiry is passive).
    pub fn quarantined_peer_count(&self) -> usize {
        let now = now();
        let state = self.peers.lock();
        state.peers.values().filter(|p| p.quarantined(now)).count()
    }

    /// Idle connections parked (the `pool_live_connections` gauge).
    pub fn total_idle_connections(&self) -> usize {
        self.peers.lock().idle_total()
    }

    /// Closes all idle connections and forgets quarantine state.
    pub fn clear(&self) {
        let mut state = self.peers.lock();
        state.peers.clear();
        state.idle.clear();
    }

    /// Clears quarantine bookkeeping for `addr` (liveness recovery: the
    /// peer answered a heartbeat, so probes flow again at once).
    pub fn forgive(&self, addr: SocketAddr) {
        self.peers.lock().clear_quarantine(addr);
    }

    /// Poisons the pool (node shutdown): every later request fails at once
    /// with `ConnectionAborted`, so callers unwind fast. Irreversible.
    pub fn poison(&self) {
        self.peers.lock().poisoned = true;
        self.clear();
    }

    /// Performs one framed request/reply round trip against `addr` under
    /// the given policy: the one-frame case of [`ConnectionPool::request_run`].
    ///
    /// # Errors
    ///
    /// Fails when a gate refuses the request, the fault injector drops it,
    /// every attempt errors, or the reply cannot be decoded.
    pub fn request(
        &self,
        addr: SocketAddr,
        opts: RequestOptions,
        msg: &Message,
    ) -> io::Result<Message> {
        let mut result = None;
        self.request_run(addr, opts, std::slice::from_ref(msg), &mut |r| {
            result = Some(r)
        });
        result.unwrap_or_else(|| Err(io::Error::other("empty run")))
    }

    /// Sends `msgs` to `addr` as one in-order pipelined run on one pooled
    /// connection and hands `on_reply` one result per frame, in frame
    /// order, each as soon as it is known. The calling thread steps the
    /// run on a poller no other run uses meanwhile and waits in
    /// `epoll_wait` for its socket or the run's next deadline: the exchange
    /// deadline, a backoff, injected latency. The pool keeps one such
    /// poller between runs; a run that finds it taken makes its own, and
    /// one that cannot fails each frame.
    ///
    /// Every gate treats the run as its frames sent singly would be treated:
    /// a refusal refuses each frame; an expired window admits the run as
    /// the one re-probe; with the drop knob armed each frame draws its own
    /// fate and goes out alone; once the run has quarantined the remote,
    /// the rest of it is refused as the window would refuse it. A socket
    /// that dies after `k` replies fails only the unanswered frames, after
    /// the replay and the policy's attempts were spent on them alone.
    ///
    /// The frames are written before any reply is read, so a run must fit
    /// the socket buffers: callers pipeline short requests, never bodies.
    pub fn request_run(
        &self,
        addr: SocketAddr,
        opts: RequestOptions,
        msgs: &[Message],
        on_reply: &mut dyn FnMut(io::Result<Message>),
    ) {
        let spare = self.spare.lock().take();
        let poller = match spare.map_or_else(Poller::new, Ok) {
            Ok(poller) => poller,
            Err(e) => {
                let why = e.to_string();
                msgs.iter()
                    .for_each(|_| on_reply(Err(io::Error::new(e.kind(), why.clone()))));
                return;
            }
        };
        let (driver, mut events) = (Driver(&poller, 0), Vec::new());
        let mut run = self.start(addr, opts, msgs, self.clock());
        while let Some(deadline) = run.advance(self, driver, self.clock(), on_reply) {
            let wait = deadline.saturating_sub(self.clock());
            events.clear();
            // A failed wait only steps the run again before its deadline.
            let _ = poller.wait(&mut events, Some(Duration::from_micros(wait)));
        }
        // Settled: the run's socket has left the poller.
        self.spare.lock().get_or_insert(poller);
    }

    /// Admits a run of `msgs` to `addr` under `opts` at `now` (micros since
    /// the epoch): a warm connection is checked out if one is parked, and
    /// a refusal fails each frame at the run's first step.
    pub(crate) fn start(
        &self,
        addr: SocketAddr,
        opts: RequestOptions,
        msgs: &[Message],
        now: u64,
    ) -> Outbound {
        let admitted = self
            .peers
            .lock()
            .admit(addr, opts, msgs.len(), self.at(now));
        let mut bytes = BytesMut::with_capacity(64 * msgs.len());
        let mut ends = Vec::with_capacity(msgs.len());
        for msg in msgs {
            msg.encode_into(&mut bytes);
            ends.push(bytes.len());
        }
        let (link, run, step, deadline) = match admitted {
            Err(refusal) => (None, Run::default(), Step::Refused(refusal), now),
            Ok((link, run)) => match self.fault.tx_latency() {
                Some(delay) => (link, run, Step::Latency, now + micros(delay)),
                None => (link, run, Step::Chunk, now),
            },
        };
        Outbound {
            addr,
            opts,
            bytes,
            ends,
            done: 0,
            chunk: (0, 0),
            run,
            attempt: 0,
            last_err: None,
            link,
            fresh: false,
            before: 0,
            sent: 0,
            deadline,
            step,
        }
    }
}

fn micros(d: Duration) -> u64 {
    d.as_micros() as u64
}

/// Where an [`Outbound`] waits for its socket: on this poller, registered
/// under this token.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Driver<'a>(pub(crate) &'a Poller, pub(crate) u64);

/// Where an [`Outbound`] is between calls of [`Outbound::advance`].
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Turned away at admission: every frame fails with this.
    Refused(Refusal),
    /// Injected send latency: nothing leaves before the deadline.
    Latency,
    /// The next chunk draws its fate from the drop knob.
    Chunk,
    /// The chunk needs a socket: the warm one, else a fresh one within the
    /// policy's attempts.
    Link,
    /// A retry waits out its backoff before it dials.
    Backoff,
    /// A fresh socket is still connecting.
    Connect,
    /// The chunk's frames go out and its replies come in.
    Exchange,
    /// Every frame has its result and the run is settled.
    Done,
}

/// A run of frames to one remote in flight, from admission to settlement:
/// [`ConnectionPool::request_run`]'s whole contract as a value its driver
/// steps with [`Outbound::advance`] until it returns `None`.
#[derive(Debug)]
pub(crate) struct Outbound {
    addr: SocketAddr,
    opts: RequestOptions,
    /// The frames encoded back to back, and where each one ends.
    bytes: BytesMut,
    ends: Vec<usize>,
    /// Frames whose result has been handed out.
    done: usize,
    /// The chunk in flight, as frame indices: every frame, or one at a
    /// time with the drop knob armed.
    chunk: (usize, usize),
    run: Run,
    /// Fresh connects spent on the chunk, and why the last socket failed.
    attempt: u32,
    last_err: Option<io::Error>,
    link: Option<Link>,
    /// The socket was dialled for the chunk, and `done` when it took over.
    fresh: bool,
    before: usize,
    /// How far into `bytes` the socket has written.
    sent: usize,
    /// When the step in progress gives up (micros): the end of a latency
    /// or backoff wait, or the exchange deadline since the socket last
    /// moved.
    deadline: u64,
    step: Step,
}

impl Outbound {
    /// Steps the run at `now` (micros since the pool's epoch) as far as it
    /// goes without waiting, handing `on_reply` each frame's result in
    /// frame order. Returns the deadline it waits for next — readiness of
    /// its socket on `driver`'s poller may come first — or `None` once the
    /// run is settled.
    pub(crate) fn advance(
        &mut self,
        pool: &ConnectionPool,
        driver: Driver<'_>,
        now: u64,
        on_reply: &mut dyn FnMut(io::Result<Message>),
    ) -> Option<u64> {
        loop {
            match self.step {
                Step::Done => return None,
                Step::Refused(refusal) => {
                    let addr = self.addr;
                    self.ends
                        .iter()
                        .for_each(|_| on_reply(Err(refusal.error(addr))));
                    self.step = Step::Done;
                }
                Step::Latency | Step::Backoff if now < self.deadline => return Some(self.deadline),
                Step::Latency => self.step = Step::Chunk,
                Step::Backoff => self.dial(pool, now),
                Step::Chunk if self.done == self.ends.len() => self.settle(pool, driver, now),
                Step::Chunk => {
                    let end = match pool.fault.drop_per_million() {
                        0 => self.ends.len(),
                        _ => self.done + 1,
                    };
                    (self.chunk, self.attempt, self.last_err) = ((self.done, end), 0, None);
                    if pool.fault.should_drop() {
                        self.run.tally.injected_drops += 1;
                        let why = format!("send to {} dropped (injected fault)", self.addr);
                        self.fail(io::Error::new(io::ErrorKind::TimedOut, why), on_reply);
                    } else {
                        self.step = Step::Link;
                    }
                }
                Step::Link if self.link.is_some() => self.begin(false, pool, now),
                Step::Link if self.attempt == self.opts.max_attempts.max(1) => {
                    let err = self.last_err.take();
                    self.fail(
                        err.unwrap_or_else(|| io::Error::other("no attempts made")),
                        on_reply,
                    );
                }
                Step::Link if self.attempt > 0 => {
                    self.run.tally.retries += 1;
                    let delay = pool.peers.lock().backoff(self.attempt);
                    (self.deadline, self.step) = (now + micros(delay), Step::Backoff);
                }
                Step::Link => self.dial(pool, now),
                Step::Connect => match self.connected(driver, now) {
                    Ok(false) => return Some(self.deadline),
                    Ok(true) => self.begin(true, pool, now),
                    Err(e) => self.lose_link(driver, e),
                },
                Step::Exchange => match self.exchange(pool, driver, now, on_reply) {
                    Ok(false) => return Some(self.deadline),
                    Ok(true) => {
                        self.tally_link();
                        self.run.answered = true;
                        self.step = Step::Chunk;
                    }
                    Err(e) => {
                        // A warm socket's failure is the free replay; a
                        // fresh one's used its attempt.
                        self.tally_link();
                        self.run.tally.retries += u64::from(!self.fresh);
                        self.lose_link(driver, e);
                    }
                },
            }
        }
    }

    /// Dials a fresh non-blocking socket for the chunk, using an attempt.
    /// The connect is still in progress, and waits under the exchange
    /// deadline.
    fn dial(&mut self, pool: &ConnectionPool, now: u64) {
        self.attempt += 1;
        let stream = bh_netpoll::connect(&self.addr);
        match stream.and_then(|stream| stream.set_nodelay(true).map(|()| stream)) {
            Ok(stream) => {
                self.link = Some(Link {
                    stream,
                    inbox: Inbox::new(),
                    registered: None,
                });
                (self.deadline, self.step) = (now + micros(pool.io_timeout), Step::Connect);
            }
            Err(e) => {
                self.last_err = Some(e);
                self.step = Step::Link;
            }
        }
    }

    /// Whether the fresh socket has connected: an error says it
    /// failed, a peer address that it is through; otherwise it waits for
    /// writable readiness until the deadline.
    fn connected(&mut self, driver: Driver<'_>, now: u64) -> io::Result<bool> {
        let Some(link) = self.link.as_mut() else {
            return Err(io::Error::other("no socket"));
        };
        if let Some(e) = link.stream.take_error()? {
            return Err(e);
        }
        if link.stream.peer_addr().is_ok() {
            return Ok(true);
        }
        if now >= self.deadline {
            return Err(timed_out(self.addr));
        }
        link.want(driver, Interest::WRITABLE)?;
        Ok(false)
    }

    /// Drops the chunk's socket, which failed with `err`; the next step
    /// dials again or gives up.
    fn lose_link(&mut self, driver: Driver<'_>, err: io::Error) {
        if let Some(mut link) = self.link.take() {
            link.detach(driver);
        }
        self.last_err = Some(err);
        self.step = Step::Link;
    }

    /// The socket in `link` takes over the chunk's unanswered frames.
    fn begin(&mut self, fresh: bool, pool: &ConnectionPool, now: u64) {
        let from = self.done.checked_sub(1).map_or(0, |last| self.ends[last]);
        (self.fresh, self.before, self.sent) = (fresh, self.done, from);
        self.deadline = now + micros(pool.io_timeout);
        self.step = Step::Exchange;
    }

    /// Counts what the socket leaving the chunk carried: a fresh socket's
    /// first frame paid for the connect, every other frame rode a
    /// connection that was already open.
    fn tally_link(&mut self) {
        let tally = &mut self.run.tally;
        tally.connects += u64::from(self.fresh);
        let carried = self.done - self.before;
        tally.reuses += carried.saturating_sub(usize::from(self.fresh)) as u64;
    }

    /// Writes what the socket still owes of the chunk and hands over every
    /// reply that has arrived: `Ok(true)` once the chunk is answered,
    /// `Ok(false)` to wait on the poller until readiness or the deadline.
    /// A socket that does not move by the deadline fails.
    fn exchange(
        &mut self,
        pool: &ConnectionPool,
        driver: Driver<'_>,
        now: u64,
        on_reply: &mut dyn FnMut(io::Result<Message>),
    ) -> io::Result<bool> {
        let Some(link) = self.link.as_mut() else {
            return Err(io::Error::other("no socket"));
        };
        let end = self.ends[self.chunk.1 - 1];
        let mut moved = false;
        while self.sent < end {
            match (&link.stream).write(&self.bytes[self.sent..end]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => (self.sent, moved) = (self.sent + n, true),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            }
        }
        while self.done < self.chunk.1 {
            let Some(reply) = link.inbox.next(&link.stream)? else {
                break;
            };
            (self.done, moved) = (self.done + 1, true);
            on_reply(Ok(reply));
        }
        if self.done == self.chunk.1 {
            return Ok(true);
        }
        if moved {
            self.deadline = now + micros(pool.io_timeout);
        } else if now >= self.deadline {
            return Err(timed_out(self.addr));
        }
        let writable = self.sent < end;
        link.want(
            driver,
            Interest {
                readable: true,
                writable,
            },
        )?;
        Ok(false)
    }

    /// The chunk's unanswered frames fail with `err`, as the lost exchange
    /// they were. Under a quarantining probe policy the run has quarantined
    /// the remote, so the rest of it is refused as the window would refuse
    /// it; otherwise the chunk's other frames fail with the same error.
    fn fail(&mut self, err: io::Error, on_reply: &mut dyn FnMut(io::Result<Message>)) {
        let (start, end) = self.chunk;
        let unanswered = end - self.done;
        self.run.answered |= self.done > start;
        self.run.failed = true;
        let (kind, why) = (err.kind(), err.to_string());
        on_reply(Err(err));
        if self.opts.quarantine_on_failure && self.opts.respect_quarantine {
            let left = self.ends.len() - self.done - 1;
            self.run.tally.quarantine_rejections += left as u64;
            let addr = self.addr;
            (0..left).for_each(|_| on_reply(Err(Refusal::Quarantined.error(addr))));
            self.done = self.ends.len();
        } else {
            (1..unanswered).for_each(|_| on_reply(Err(io::Error::new(kind, why.clone()))));
            self.done = end;
        }
        self.step = Step::Chunk;
    }

    /// Parks the socket, if one is left, and applies what the run did.
    fn settle(&mut self, pool: &ConnectionPool, driver: Driver<'_>, now: u64) {
        let link = self.link.take().map(|mut link| {
            link.detach(driver);
            link
        });
        let mut state = pool.peers.lock();
        if let Some(link) = link {
            state.park(self.addr, link);
        }
        state.settle(self.addr, self.opts, &self.run, pool.at(now));
        self.step = Step::Done;
    }
}

fn timed_out(addr: SocketAddr) -> io::Error {
    io::Error::new(io::ErrorKind::TimedOut, format!("peer {addr} timed out"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire;
    use bh_netpoll::fault::PER_MILLION;
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// What the test server answers: a `FindNearest` gets its own key back
    /// (so a run's replies can be matched to its frames), anything else an
    /// `Ack`.
    fn answer_to(msg: &Message) -> Message {
        match msg {
            Message::FindNearest { key } => Message::FindNearestReply {
                location: Some(wire::MachineId(*key)),
            },
            _ => Message::Ack,
        }
    }

    /// Serves `requests_per_conn` replies ([`answer_to`]) per accepted
    /// connection, then closes it. `None` keeps connections open until the
    /// client hangs up.
    fn ack_server(requests_per_conn: Option<usize>) -> (SocketAddr, Arc<AtomicUsize>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let served = Arc::new(AtomicUsize::new(0));
        let served2 = Arc::clone(&served);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(mut stream) = stream else { break };
                let served = Arc::clone(&served2);
                std::thread::spawn(move || {
                    let mut handled = 0;
                    while let Ok(msg) = wire::read_message(&mut stream) {
                        // Count before replying: the client may assert on
                        // the counter the instant its reply arrives.
                        served.fetch_add(1, Ordering::SeqCst);
                        if wire::write_message(&mut stream, &answer_to(&msg)).is_err() {
                            break;
                        }
                        handled += 1;
                        if requests_per_conn.is_some_and(|limit| handled >= limit) {
                            break;
                        }
                    }
                });
            }
        });
        (addr, served)
    }

    fn quick_config() -> PoolConfig {
        PoolConfig {
            io_timeout: Duration::from_millis(500),
            ..PoolConfig::default()
        }
    }

    /// The first quarantine window under [`quick_config`].
    const BASE: Duration = Duration::from_secs(2);

    /// An address that refuses connections (bound then immediately freed).
    fn dead_addr() -> SocketAddr {
        let l = TcpListener::bind("127.0.0.1:0").expect("bind");
        l.local_addr().expect("addr")
    }

    /// The pure tests' clock origin.
    fn t0() -> Instant {
        // bh-lint: allow(no-wall-clock, reason = "arbitrary base instant; the pool state is pure in the times passed to it")
        Instant::now()
    }

    /// A socket-free pool state whose connections are tokens.
    fn state() -> PoolState<u32> {
        PoolState::new(&quick_config())
    }

    fn addr(i: u16) -> SocketAddr {
        SocketAddr::from(([10, 0, 0, 1], 7000 + i))
    }

    /// `run` once some frame of it was lost.
    fn lost(run: Run) -> Run {
        Run {
            failed: true,
            ..run
        }
    }

    /// `run` once some frame of it was answered.
    fn answered(run: Run) -> Run {
        Run {
            answered: true,
            ..run
        }
    }

    /// Ends `addr`'s quarantine window at `at`, an instant already past,
    /// instead of waiting it out; the streak and the slot stay as they are.
    fn expire_window(pool: &ConnectionPool, addr: SocketAddr, at: Instant) {
        let mut state = pool.peers.lock();
        let peer = state.peers.get_mut(&addr).expect("quarantined peer");
        assert!(peer.quarantined_until.is_some(), "no window to expire");
        peer.quarantined_until = Some(at);
    }

    /// Opens a quarantine window on `addr` the way a lost probe does.
    fn lose_a_probe(pool: &ConnectionPool, addr: SocketAddr) {
        pool.fault_switch().set_drop_per_million(PER_MILLION);
        pool.request(addr, RequestOptions::peer_probe(), &Message::Ack)
            .expect_err("dropped");
        pool.fault_switch().clear();
        assert!(pool.is_quarantined(addr));
    }

    #[test]
    fn second_request_reuses_the_warm_connection() {
        let (addr, _served) = ack_server(None);
        let pool = ConnectionPool::new(quick_config());
        for _ in 0..3 {
            let reply = pool
                .request(addr, RequestOptions::origin(), &Message::Ack)
                .expect("ack");
            assert_eq!(reply, Message::Ack);
        }
        let stats = pool.stats();
        assert_eq!(stats.connects, 1, "one connect serves all three requests");
        assert_eq!(stats.reuses, 2);
        assert_eq!(pool.total_idle_connections(), 1);
    }

    #[test]
    fn runs_reuse_one_spare_poller() {
        let (addr, _served) = ack_server(None);
        let pool = ConnectionPool::new(quick_config());
        let origin = RequestOptions::origin();
        assert!(pool.spare.lock().is_none());
        pool.request(addr, origin, &Message::Ack).expect("ack");
        assert!(pool.spare.lock().is_some(), "the run put its poller back");
        // A run started while another holds the spare makes its own.
        let mut nested = None;
        pool.request_run(addr, origin, &[Message::Ack], &mut |reply| {
            assert!(pool.spare.lock().is_none(), "the outer run holds the spare");
            nested = Some(pool.request(addr, origin, &Message::Ack));
            assert_eq!(reply.expect("ack"), Message::Ack);
        });
        assert_eq!(nested.expect("nested run").expect("ack"), Message::Ack);
        assert!(pool.spare.lock().is_some());
        assert_eq!(
            pool.stats().connects,
            2,
            "the nested run dialled its own socket"
        );
    }

    fn keyed(keys: std::ops::Range<u64>) -> Vec<Message> {
        keys.map(|key| Message::FindNearest { key }).collect()
    }

    /// A run's results, in frame order.
    fn run(
        pool: &ConnectionPool,
        addr: SocketAddr,
        opts: RequestOptions,
        msgs: &[Message],
    ) -> Vec<io::Result<Message>> {
        let mut results = Vec::with_capacity(msgs.len());
        pool.request_run(addr, opts, msgs, &mut |r| results.push(r));
        results
    }

    /// The echoed key of each frame, or the error kind it failed with.
    fn outcomes(results: Vec<io::Result<Message>>) -> Vec<Result<u64, io::ErrorKind>> {
        results
            .into_iter()
            .map(|r| match r {
                Ok(Message::FindNearestReply {
                    location: Some(wire::MachineId(key)),
                }) => Ok(key),
                Ok(other) => panic!("unexpected reply {other:?}"),
                Err(e) => Err(e.kind()),
            })
            .collect()
    }

    #[test]
    fn a_run_is_answered_in_order_over_one_connection() {
        let (addr, served) = ack_server(None);
        let pool = ConnectionPool::new(quick_config());
        let got = outcomes(run(&pool, addr, RequestOptions::origin(), &keyed(0..8)));
        assert_eq!(got, (0..8).map(Ok).collect::<Vec<_>>());
        assert_eq!(served.load(Ordering::SeqCst), 8);
        let stats = pool.stats();
        assert_eq!((stats.connects, stats.reuses, stats.retries), (1, 7, 0));
        assert_eq!(
            pool.total_idle_connections(),
            1,
            "parked once, after the last reply"
        );
    }

    /// A server whose connections die on purpose: connection `i` reads
    /// `script[i].0` frames, answers only the first `script[i].1` of them,
    /// and closes (every frame read, so the close is a clean FIN and the
    /// client sees exactly the replies that were written). Connections
    /// past the script are refused: the listener is gone. Returns the keys
    /// each connection was sent.
    fn scripted_server(
        script: Vec<(usize, usize)>,
    ) -> (SocketAddr, std::thread::JoinHandle<Vec<Vec<u64>>>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            let mut seen = Vec::new();
            let mut listener = Some(listener);
            let last = script.len() - 1;
            for (conn, (read, answer)) in script.into_iter().enumerate() {
                let (mut stream, _) = listener
                    .as_ref()
                    .expect("listening")
                    .accept()
                    .expect("accept");
                let mut keys = Vec::new();
                for i in 0..read {
                    let msg = wire::read_message(&mut stream).expect("frame");
                    if let Message::FindNearest { key } = msg {
                        keys.push(key);
                    }
                    if i < answer {
                        wire::write_message(&mut stream, &answer_to(&msg)).expect("reply");
                    }
                }
                seen.push(keys);
                if conn == last {
                    // Stop listening before the last connection closes, so
                    // the client's reconnect is refused, not half-accepted.
                    listener = None;
                }
            }
            seen
        });
        (addr, server)
    }

    #[test]
    fn stale_socket_replays_only_the_unanswered_frames() {
        // The parked socket answers the warm-up and two frames of the run
        // of five, then dies; the second connection answers what it gets.
        let (addr, server) = scripted_server(vec![(6, 3), (3, 3)]);
        let pool = ConnectionPool::new(quick_config());
        pool.request(addr, RequestOptions::peer_probe(), &Message::Ack)
            .expect("warm-up");
        let got = outcomes(run(
            &pool,
            addr,
            RequestOptions::peer_probe(),
            &keyed(10..15),
        ));
        assert_eq!(got, (10..15).map(Ok).collect::<Vec<_>>());
        let seen = server.join().expect("server");
        assert_eq!(seen[0], [10, 11, 12, 13, 14]);
        assert_eq!(
            seen[1],
            [12, 13, 14],
            "only the unanswered suffix is replayed"
        );
        let stats = pool.stats();
        assert_eq!(stats.connects, 2);
        assert_eq!(
            stats.reuses,
            2 + 2,
            "two on the stale socket, two behind the reconnect"
        );
        assert_eq!(stats.retries, 1, "the replay is free");
        assert!(!pool.is_quarantined(addr));
    }

    #[test]
    fn a_peer_that_dies_mid_run_fails_the_unanswered_frames_and_is_quarantined_once() {
        // The only connection the server ever accepts answers two frames
        // of five; the reconnect finds nobody listening.
        let (addr, server) = scripted_server(vec![(5, 2)]);
        let pool = ConnectionPool::new(quick_config());
        let results = run(&pool, addr, RequestOptions::peer_probe(), &keyed(0..5));
        server.join().expect("server");
        let got = outcomes(results);
        assert_eq!(got[..2], [Ok(0), Ok(1)]);
        assert!(got[2..].iter().all(Result::is_err), "{got:?}");
        assert_eq!(
            pool.quarantine_streak(addr),
            1,
            "quarantined once, not per frame"
        );
        let stats = pool.stats();
        assert_eq!(stats.connects, 1);
        assert_eq!(
            stats.quarantine_rejections, 2,
            "the frames behind the failed one are refused as the window would refuse them"
        );
    }

    /// A run of `n` and `n` single requests leave the same `PoolStats` and
    /// the same per-frame outcomes behind every gate.
    #[test]
    fn run_stats_equal_single_requests_under_every_gate() {
        const N: u64 = 6;
        type Gate = fn(&ConnectionPool, SocketAddr);
        let drop_all: Gate = |pool, _| pool.fault_switch().set_drop_per_million(PER_MILLION);
        let gates: [(&str, Gate); 7] = [
            ("open", |_, _| {}),
            ("poisoned", |pool, _| pool.poison()),
            ("partition block", |pool, addr| {
                assert!(pool.block(addr));
            }),
            // A lost probe opens the window; the fault is then lifted.
            ("quarantine window", lose_a_probe),
            ("every frame dropped", drop_all),
            ("half the frames dropped", |pool, _| {
                pool.fault_switch().set_drop_per_million(500_000)
            }),
            ("outbound latency", |pool, _| {
                pool.fault_switch().set_tx_latency_micros(50)
            }),
        ];
        let policies = [RequestOptions::peer_probe(), RequestOptions::origin()];
        for (name, gate) in gates {
            for opts in policies {
                let (addr, _served) = ack_server(None);
                // Same seed on both sides: the drop stream makes the same
                // draws for frame i of the run and for request i.
                let pool = || {
                    ConnectionPool::new(PoolConfig {
                        jitter_seed: 7,
                        ..quick_config()
                    })
                };
                let (batched, single) = (pool(), pool());
                gate(&batched, addr);
                gate(&single, addr);
                let as_run = outcomes(run(&batched, addr, opts, &keyed(0..N)));
                let one_by_one = outcomes(
                    keyed(0..N)
                        .iter()
                        .map(|m| single.request(addr, opts, m))
                        .collect(),
                );
                assert_eq!(as_run, one_by_one, "{name}, {opts:?}: outcomes");
                assert_eq!(batched.stats(), single.stats(), "{name}, {opts:?}: stats");
                assert_eq!(
                    batched.quarantine_streak(addr),
                    single.quarantine_streak(addr),
                    "{name}, {opts:?}: streak"
                );
            }
        }
    }

    /// An expired quarantine window admits a whole run as the one re-probe:
    /// it holds the slot once, and its success clears the quarantine, just
    /// as the first of `n` single requests would.
    #[test]
    fn expired_quarantine_admits_a_run_as_the_single_reprobe() {
        let t0 = t0();
        let (addr, _served) = ack_server(None);
        let reprobe = |as_run: bool| {
            let pool = ConnectionPool::new(quick_config());
            lose_a_probe(&pool, addr);
            expire_window(&pool, addr, t0);
            let got = if as_run {
                outcomes(run(&pool, addr, RequestOptions::peer_probe(), &keyed(0..4)))
            } else {
                outcomes(
                    keyed(0..4)
                        .iter()
                        .map(|m| pool.request(addr, RequestOptions::peer_probe(), m))
                        .collect(),
                )
            };
            assert_eq!(got, (0..4).map(Ok).collect::<Vec<_>>());
            assert_eq!(pool.quarantine_streak(addr), 0, "success clears the streak");
            assert!(
                !pool.peers.lock().peers.contains_key(&addr),
                "slot released"
            );
            pool.stats()
        };
        assert_eq!(reprobe(true), reprobe(false));
    }

    /// A re-probe answered over a warm socket clears the quarantine exactly
    /// as one answered over a fresh connect does. Were it to leave the
    /// streak at 1 and the expired window set, every later probe would be
    /// "the" re-probe and a concurrent one would be refused.
    #[test]
    fn a_reprobe_answered_over_a_warm_socket_clears_the_quarantine() {
        let t0 = t0();
        let (addr, _served) = ack_server(None);
        let pool = ConnectionPool::new(quick_config());
        lose_a_probe(&pool, addr);
        // A request that was in flight when the probe failed finishes and
        // parks its socket.
        let conn = Link {
            stream: bh_netpoll::connect(&addr).expect("connect"),
            inbox: Inbox::new(),
            registered: None,
        };
        pool.peers.lock().park(addr, conn);
        expire_window(&pool, addr, t0);

        let reply = pool
            .request(addr, RequestOptions::peer_probe(), &Message::Ack)
            .expect("re-probe");
        assert_eq!(reply, Message::Ack);
        let stats = pool.stats();
        assert_eq!(
            (stats.connects, stats.reuses),
            (0, 1),
            "over the warm socket"
        );
        assert_eq!(pool.quarantine_streak(addr), 0);
        assert!(!pool.is_quarantined(addr));
        // A probe still in flight holds no re-probe slot, so a second one
        // is not refused.
        let (_, in_flight) = pool
            .peers
            .lock()
            .admit(addr, RequestOptions::peer_probe(), 1, t0)
            .expect("admitted");
        assert!(!in_flight.reprobe);
        pool.request(addr, RequestOptions::peer_probe(), &Message::Ack)
            .expect("second probe");
    }

    /// Warm capacity is bounded per peer and across the pool: parking six
    /// rounds of connections to 100 remotes leaves each remote at most
    /// its own cap and the pool at [`MAX_IDLE_TOTAL`].
    #[test]
    fn global_idle_cap_bounds_total_warm_connections() {
        let mut state = state();
        for round in 0..6 {
            for i in 0..100 {
                state.park(addr(i), round);
            }
        }
        assert!(state
            .idle
            .values()
            .all(|idle| idle.len() <= MAX_IDLE_PER_PEER));
        assert_eq!(state.idle_total(), MAX_IDLE_TOTAL);
        // A remote whose connection is turned away is still admitted; its
        // run just re-dials.
        state.park(addr(100), 6);
        let (conn, _) = state
            .admit(addr(100), RequestOptions::origin(), 1, t0())
            .expect("admitted");
        assert!(conn.is_none());
    }

    /// Hint locations pick the remotes, so the pool's maps are bounded:
    /// 100,000 distinct addresses, each admitted under a probe or origin
    /// policy, its token parked, and its run answered or failed, leave at
    /// most [`PEERS_CAP`] tracked remotes and [`MAX_IDLE_TOTAL`] idle
    /// entries. The first half arrives at one instant, so every tracked
    /// window is live once the cap is reached and the next failing remote
    /// goes untracked; in the second half time moves on, and expired
    /// windows make room.
    #[test]
    fn peer_and_idle_maps_are_bounded_at_their_caps() {
        let (mut state, t0) = (state(), t0());
        let policies = [RequestOptions::peer_probe(), RequestOptions::origin()];
        for i in 0..100_000u32 {
            let [_, a, b, c] = i.to_be_bytes();
            let addr = SocketAddr::from(([10, a, b, c], 7000));
            let later = i
                .checked_sub(50_000)
                .map(|ms| BASE + Duration::from_millis(ms.into()));
            let t = t0 + later.unwrap_or_default();
            let policy = policies[i as usize % 2];
            let (conn, run) = state.admit(addr, policy, 1, t).expect("admitted");
            state.park(addr, conn.unwrap_or(i));
            let run = if i % 3 == 0 { lost(run) } else { answered(run) };
            state.settle(addr, policy, &run, t);
            assert!(state.peers.len() <= PEERS_CAP, "{i}");
            assert!(state.idle.len() <= MAX_IDLE_TOTAL, "{i}");
            let quarantined = i % 6 == 0;
            if quarantined && i < 50_000 && i >= 6 * PEERS_CAP as u32 {
                assert!(!state.quarantined(addr, t), "{i}: untracked past the cap");
            } else if quarantined {
                assert!(state.quarantined(addr, t), "{i}: room was made");
            }
        }
        assert_eq!(state.peers.len(), PEERS_CAP);
        assert!(state.peers.values().all(|p| p.streak == 1));
    }

    #[test]
    fn stale_pooled_connection_is_replayed_on_a_fresh_socket() {
        let (addr, served) = ack_server(Some(1));
        let pool = ConnectionPool::new(quick_config());
        pool.request(addr, RequestOptions::origin(), &Message::Ack)
            .expect("first");
        // The server closes the connection after one request, but the pool
        // parked it. Whether the close has landed yet or not, the parked
        // socket never answers again — a FIN reads as EOF, a request that
        // arrives at the closing socket draws a reset — so the second
        // request must be replaced on a fresh socket transparently.
        pool.request(addr, RequestOptions::origin(), &Message::Ack)
            .expect("second");
        let stats = pool.stats();
        assert_eq!((stats.connects, stats.retries), (2, 1));
        assert_eq!(served.load(Ordering::SeqCst), 2);
    }

    /// A lost probe quarantines its peer for the base window: inside it
    /// every probe is refused without touching the network (and counted),
    /// and the window ends on its own.
    #[test]
    fn dead_peer_probe_fails_once_then_quarantines() {
        let (mut state, t0, probe) = (state(), t0(), RequestOptions::peer_probe());
        let (conn, first) = state.admit(addr(0), probe, 1, t0).expect("first probe");
        assert!(conn.is_none() && !first.reprobe);
        state.settle(addr(0), probe, &lost(first), t0);
        assert!(state.quarantined(addr(0), t0));
        assert_eq!(state.peers[&addr(0)].streak, 1);

        // While quarantined the probe fails fast without touching the net.
        let refused = state.admit(addr(0), probe, 1, t0 + BASE / 2);
        assert_eq!(refused.err(), Some(Refusal::Quarantined));
        assert_eq!(state.stats.quarantine_rejections, 1);

        // Quarantine expires on its own.
        assert!(state.quarantined(addr(0), t0 + BASE - Duration::from_micros(1)));
        assert!(!state.quarantined(addr(0), t0 + BASE));
    }

    #[test]
    fn origin_policy_retries_and_ignores_quarantine() {
        let addr = dead_addr();
        let pool = ConnectionPool::new(quick_config());
        // Quarantine the address via a failed probe…
        pool.request(addr, RequestOptions::peer_probe(), &Message::Ack)
            .expect_err("dead");
        assert!(pool.is_quarantined(addr));
        // …then confirm the origin policy still attempts (and retries).
        pool.request(addr, RequestOptions::origin(), &Message::Ack)
            .expect_err("still dead");
        let stats = pool.stats();
        assert_eq!(stats.retries, 2, "origin made its extra attempts");
        assert_eq!(stats.quarantine_rejections, 0);
        assert_eq!(stats.connects, 0, "refused connects are not counted");
    }

    /// An answered re-probe clears the window and the streak and releases
    /// the slot: the peer is as if it had never been quarantined.
    #[test]
    fn recovery_clears_quarantine() {
        let (mut state, t0, probe) = (state(), t0(), RequestOptions::peer_probe());
        let (_, first) = state.admit(addr(0), probe, 1, t0).expect("first probe");
        state.settle(addr(0), probe, &lost(first), t0);

        let t1 = t0 + BASE;
        let (_, reprobe) = state.admit(addr(0), probe, 1, t1).expect("window over");
        assert!(reprobe.reprobe);
        state.settle(addr(0), probe, &answered(reprobe), t1);
        assert!(!state.quarantined(addr(0), t1));
        assert!(
            !state.peers.contains_key(&addr(0)),
            "success forgets the peer"
        );
        // No slot left behind: probes at the same instant all go.
        for _ in 0..2 {
            let (_, open) = state.admit(addr(0), probe, 1, t1).expect("open");
            assert!(!open.reprobe);
        }
    }

    #[test]
    fn jitter_streams_diverge_across_seeds_and_replay_within_one() {
        let delays = |seed: u64| {
            let mut state: PoolState<u32> = PoolState::new(&PoolConfig {
                jitter_seed: seed,
                ..quick_config()
            });
            (1..=8u32).map(|a| state.backoff(a)).collect::<Vec<_>>()
        };
        let a = delays(1);
        let b = delays(2);
        let a2 = delays(1);
        assert_eq!(a, a2, "a pool's delay sequence is reproducible");
        assert_ne!(a, b, "different machines draw different jitter");
        // Jitter stays inside the documented [delay/2, delay) envelope.
        for (i, d) in a.iter().enumerate() {
            let exp = (BACKOFF_BASE * (2 << i)).min(BACKOFF_CAP);
            assert!(*d >= exp / 2 && *d < exp, "attempt {i}: {d:?} vs {exp:?}");
        }
    }

    #[test]
    fn quarantine_escalates_per_failure_and_caps() {
        let ms = Duration::from_millis;
        assert_eq!(quarantine_window(ms(100), 1), ms(100));
        assert_eq!(quarantine_window(ms(100), 2), ms(200));
        assert_eq!(quarantine_window(ms(100), 3), ms(400));
        assert_eq!(quarantine_window(ms(100), 9), ms(25_600));
        assert_eq!(quarantine_window(ms(100), 10), QUARANTINE_CAP, "capped");
        assert_eq!(quarantine_window(ms(100), u32::MAX), QUARANTINE_CAP);

        // Each failed re-probe, let through as its window ends, escalates
        // the next window one step.
        let (mut state, t0, probe) = (state(), t0(), RequestOptions::peer_probe());
        let mut t = t0;
        for streak in 1..=8 {
            let (_, attempt) = state.admit(addr(0), probe, 1, t).expect("window over");
            assert_eq!(attempt.reprobe, streak > 1);
            state.settle(addr(0), probe, &lost(attempt), t);
            let window = (BASE * 2u32.pow(streak - 1)).min(QUARANTINE_CAP);
            assert_eq!(state.peers[&addr(0)].streak, streak);
            assert_eq!(state.peers[&addr(0)].quarantined_until, Some(t + window));
            t += window;
        }
        // Forgiveness (liveness recovery) resets everything at once.
        state.clear_quarantine(addr(0));
        assert!(!state.quarantined(addr(0), t0));
        assert!(!state.peers.contains_key(&addr(0)));
    }

    /// Once a window has expired exactly one run at a time may re-probe:
    /// the first `admit` takes the slot, a second at the same instant is
    /// refused for the slot (not the window), a policy that ignores
    /// quarantine needs no slot, and the re-probe's failure escalates to
    /// streak 2 and a window of twice the base.
    #[test]
    fn expired_quarantine_admits_one_probe_at_a_time() {
        let (mut state, t0, probe) = (state(), t0(), RequestOptions::peer_probe());
        let (_, opener) = state.admit(addr(0), probe, 1, t0).expect("first probe");
        state.settle(addr(0), probe, &lost(opener), t0);

        let t1 = t0 + BASE;
        let (_, first) = state.admit(addr(0), probe, 1, t1).expect("takes the slot");
        assert!(first.reprobe);
        let second = state.admit(addr(0), probe, 1, t1);
        assert_eq!(second.err(), Some(Refusal::ReprobeInFlight));
        assert_eq!(state.stats.quarantine_rejections, 1);
        let (_, heartbeat) = state
            .admit(addr(0), RequestOptions::heartbeat(), 1, t1)
            .expect("not gated");
        assert!(!heartbeat.reprobe);

        state.settle(addr(0), probe, &lost(first), t1);
        let peer = &state.peers[&addr(0)];
        assert_eq!(peer.streak, 2);
        assert_eq!(peer.quarantined_until, Some(t1 + 2 * BASE));
        assert!(!peer.probing, "the slot is released");
    }

    #[test]
    fn partition_blocks_and_heals() {
        let (addr, served) = ack_server(None);
        let pool = ConnectionPool::new(quick_config());
        pool.request(addr, RequestOptions::origin(), &Message::Ack)
            .expect("reachable");
        assert!(pool.block(addr));
        assert!(pool.is_blocked(addr));
        assert_eq!(
            pool.total_idle_connections(),
            0,
            "partition severs warm conns"
        );
        let err = pool
            .request(addr, RequestOptions::origin(), &Message::Ack)
            .expect_err("partitioned");
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert_eq!(pool.stats().partition_rejections, 1);
        pool.unblock(addr);
        pool.request(addr, RequestOptions::origin(), &Message::Ack)
            .expect("healed");
        assert_eq!(served.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn injected_drop_fails_the_send_and_quarantines_probes() {
        let (addr, served) = ack_server(None);
        let pool = ConnectionPool::new(quick_config());
        pool.fault_switch().set_drop_per_million(PER_MILLION);
        let err = pool
            .request(addr, RequestOptions::peer_probe(), &Message::Ack)
            .expect_err("dropped");
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert_eq!(pool.stats().injected_drops, 1);
        assert!(pool.is_quarantined(addr), "a lost probe looks like death");
        assert_eq!(served.load(Ordering::SeqCst), 0, "nothing hit the wire");
        pool.fault_switch().clear();
        pool.forgive(addr);
        pool.request(addr, RequestOptions::peer_probe(), &Message::Ack)
            .expect("fault cleared");
    }

    #[test]
    fn poisoned_pool_fails_fast_and_stays_poisoned() {
        let (addr, served) = ack_server(None);
        let pool = ConnectionPool::new(quick_config());
        pool.request(addr, RequestOptions::origin(), &Message::Ack)
            .expect("up");
        pool.poison();
        pool.poison(); // idempotent
        for _ in 0..2 {
            let err = pool
                .request(addr, RequestOptions::origin(), &Message::Ack)
                .expect_err("poisoned");
            assert_eq!(err.kind(), io::ErrorKind::ConnectionAborted);
        }
        assert_eq!(pool.total_idle_connections(), 0);
        assert_eq!(pool.stats().connects, 1, "no connect was attempted");
        assert_eq!(served.load(Ordering::SeqCst), 1);
    }

    /// splitmix64: the schedules' only source of choice.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// What the contract says one address's state must be, kept from the
    /// schedule's events alone.
    #[derive(Debug, Default, Clone, Copy)]
    struct Witness {
        /// Quarantining failures since the last answered frame or forgive.
        streak: u32,
        /// End of the current window.
        until: Option<Instant>,
        /// The in-flight run (by id) holding the re-probe slot.
        slot: Option<usize>,
        blocked: bool,
    }

    const SCHEDULES: u64 = 1_000;
    const STEPS: usize = 200;
    /// Address 3 never answers and is never forgiven.
    const DEAD: usize = 3;

    /// The pool's state under seeded schedules of `admit`, `settle`
    /// (answered, failed or both), `forgive`, `block`, `unblock`, parking
    /// and time advances over four addresses and all four policies, no
    /// socket and no clock: `admit` decides exactly as the contract says
    /// (a policy that respects quarantine is never let in inside a window
    /// or while another run holds the slot), the streak counts the
    /// quarantining failures since the last answer or forgive and sets the
    /// window to `min(base·2^(streak−1), cap)`, a permanently dead address
    /// lets through at most one peer probe per window (§3.2 as a count),
    /// and idle sockets and blocks stay within their caps.
    #[test]
    fn seeded_schedules_keep_the_quarantine_contract() {
        let policies = [
            RequestOptions::peer_probe(),
            RequestOptions::origin(),
            RequestOptions::heartbeat(),
            RequestOptions::resync(),
        ];
        let t0 = t0();
        // All but two block slots taken by wire-supplied addresses, so the
        // schedules' own blocks run into the cap.
        let mut wire_blocked = state();
        for i in 0..BLOCKED_CAP - 2 {
            let wire = SocketAddr::from(([192, 0, 2, (i % 256) as u8], 1000 + i as u16));
            assert!(wire_blocked.set_blocked(wire, true));
        }
        for seed in 0..SCHEDULES {
            let mut rng = Rng(seed);
            let mut state: PoolState<u32> = PoolState::new(&quick_config());
            state.blocked = wire_blocked.blocked.clone();
            let mut witness = [Witness::default(); 4];
            let mut in_flight: Vec<(usize, usize, RequestOptions, Option<u32>, Run)> = Vec::new();
            let (mut t, mut next_id) = (t0, 0);
            let (mut dead_probes, mut dead_windows) = (0u32, 0u32);
            for _ in 0..STEPS {
                let i = rng.below(4);
                let w = &mut witness[i];
                match rng.below(10) {
                    0..=2 => {
                        let policy = policies[rng.below(4)];
                        let frames = 1 + rng.below(4);
                        let gated = policy.respect_quarantine && w.until.is_some();
                        let expected = if w.blocked {
                            Err(Refusal::Blocked)
                        } else if gated && w.until.is_some_and(|until| t < until) {
                            Err(Refusal::Quarantined)
                        } else if gated && w.slot.is_some() {
                            Err(Refusal::ReprobeInFlight)
                        } else {
                            Ok(gated)
                        };
                        let got = state.admit(addr(i as u16), policy, frames, t);
                        let decided = got.as_ref().map(|(_, run)| run.reprobe).map_err(|r| *r);
                        assert_eq!(decided, expected, "seed {seed}: admit {i} at {:?}", t - t0);
                        if let Ok((conn, run)) = got {
                            if run.reprobe {
                                w.slot = Some(next_id);
                            }
                            if i == DEAD && policy.respect_quarantine && w.streak > 0 {
                                dead_probes += 1;
                            }
                            in_flight.push((next_id, i, policy, conn, run));
                            next_id += 1;
                        }
                    }
                    3 | 4 if !in_flight.is_empty() => {
                        let (id, i, policy, conn, run) =
                            in_flight.swap_remove(rng.below(in_flight.len()));
                        let w = &mut witness[i];
                        let (answered, failed) = match rng.below(3) {
                            _ if i == DEAD => (false, true),
                            0 => (true, false),
                            1 => (false, true),
                            _ => (true, true),
                        };
                        if let Some(conn) = conn {
                            state.park(addr(i as u16), conn);
                        }
                        let run = Run {
                            answered,
                            failed,
                            ..run
                        };
                        state.settle(addr(i as u16), policy, &run, t);
                        if answered {
                            (w.streak, w.until) = (0, None);
                        }
                        if failed && policy.quarantine_on_failure {
                            w.streak += 1;
                            w.until = Some(t + quarantine_window(BASE, w.streak));
                            dead_windows += u32::from(i == DEAD);
                            let idle = state.idle.get(&addr(i as u16)).map_or(0, Vec::len);
                            assert_eq!(idle, 0, "seed {seed}: escalation drops idle");
                        }
                        if w.slot == Some(id) {
                            w.slot = None;
                        }
                    }
                    5 if i != DEAD => {
                        state.clear_quarantine(addr(i as u16));
                        (w.streak, w.until) = (0, None);
                    }
                    6 => {
                        let room = state.blocked.len() < BLOCKED_CAP;
                        let blocked = state.set_blocked(addr(i as u16), true);
                        assert_eq!(blocked, room || w.blocked, "seed {seed}: block {i}");
                        w.blocked = blocked;
                    }
                    7 => {
                        assert!(state.set_blocked(addr(i as u16), false));
                        w.blocked = false;
                    }
                    8 => {
                        for _ in 0..rng.below(64) {
                            state.park(addr(i as u16), 0);
                        }
                    }
                    _ => t += Duration::from_millis(rng.below(4_000) as u64),
                }
                for (i, w) in witness.iter().enumerate() {
                    let peer = state.peers.get(&addr(i as u16));
                    let got = peer.map_or((0, None, false), |p| {
                        (p.streak, p.quarantined_until, p.probing)
                    });
                    assert_eq!(
                        got,
                        (w.streak, w.until, w.slot.is_some()),
                        "seed {seed}: {i}"
                    );
                    assert_eq!(state.blocked.contains(&addr(i as u16)), w.blocked);
                }
                assert!(state
                    .idle
                    .values()
                    .all(|idle| idle.len() <= MAX_IDLE_PER_PEER));
                assert!(state.idle_total() <= MAX_IDLE_TOTAL, "seed {seed}");
                assert!(state.blocked.len() <= BLOCKED_CAP);
                assert!(state.peers.len() <= PEERS_CAP && state.idle.len() <= MAX_IDLE_TOTAL);
                assert!(
                    state.idle.values().all(|idle| !idle.is_empty()),
                    "seed {seed}"
                );
                assert!(state.peers.values().all(|p| !p.is_clear()), "seed {seed}");
                assert!(
                    dead_probes <= dead_windows,
                    "seed {seed}: {dead_probes} probes through {dead_windows} windows"
                );
            }
        }
    }
}
