//! Pooled peer/origin connections: keep-warm reuse, bounded exponential
//! backoff with deterministic jitter, and dead-peer quarantine.
//!
//! The seed prototype opened a fresh TCP connection for every peer probe,
//! origin fetch, and hint flush — faithful to 1998, but the dominant cost
//! once the daemon is asked to scale. The pool keeps a small set of idle
//! connections per remote warm and checks one out for one in-order
//! pipelined run at a time ([`ConnectionPool::request_run`]: every frame
//! of the run in one `write`, the replies read back in order; a single
//! request/reply is the run of one), so a connection never carries the
//! frames of two callers interleaved. Warm capacity is bounded twice over —
//! per remote ([`PoolConfig::max_idle_per_peer`]) and across the whole
//! pool ([`PoolConfig::max_idle_total`]) — so a node meshed with dozens
//! of peers cannot park its way past the process fd limit.
//!
//! Failure policy is per-request ([`RequestOptions`]), because the paper's
//! §3.2 contract is asymmetric:
//!
//! * **peer probes** get exactly one attempt and quarantine the peer on
//!   failure — a dead peer must cost at most one wasted probe, and while
//!   quarantined it costs none (the probe fails fast and the caller
//!   accounts a false positive exactly as if it had probed);
//! * **origin fetches** retry with backoff and ignore quarantine — the
//!   origin is the only copy of record, so giving up early turns a
//!   transient hiccup into a client-visible error.
//!
//! A *stale* pooled connection (peer restarted or idle-timed-out since
//! checkout) is retried once with a fresh connect without consuming an
//! attempt: the failure says nothing about the peer, only about the cached
//! socket. Only the frames it left unanswered are replayed.
//!
//! Three failure-hardening behaviours matter for the chaos harness:
//!
//! * backoff jitter is drawn from a **per-pool seeded stream**
//!   ([`PoolConfig::jitter_seed`]) — every node derives a distinct seed
//!   from its machine id, so a restarted peer sees its neighbours
//!   reconnect staggered instead of as a synchronized stampede, while any
//!   single pool's delay sequence stays reproducible;
//! * quarantine **escalates** on consecutive failures (doubling up to
//!   [`PoolConfig::quarantine_cap`]) and, once a window expires, only
//!   **one** request at a time may re-probe the peer — everyone else
//!   keeps failing fast until the prober reports back. Together these cap
//!   the re-probe frequency against a peer that stays dead;
//! * address-directed **partition blocks** ([`ConnectionPool::block`])
//!   and a process-wide [`FaultSwitch`] (outbound latency and packet
//!   drop) let the fault injector exercise all of the above
//!   deterministically.

use crate::wire::{self, Message};
use bh_netpoll::fault::FaultSwitch;
use bytes::BytesMut;
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tuning knobs for a [`ConnectionPool`].
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Per-connect timeout.
    pub connect_timeout: Duration,
    /// Read/write timeout applied to every pooled stream.
    pub io_timeout: Duration,
    /// Idle connections kept warm per remote address.
    pub max_idle_per_peer: usize,
    /// Idle connections kept warm across *all* remotes. The per-peer cap
    /// alone does not bound the pool: a node in an `n`-node full mesh
    /// talks to `n - 1` peers, and at `max_idle_per_peer` sockets each a
    /// 64-node process walks into the fd rlimit long before any single
    /// peer's bucket fills. When a finished round trip would exceed this
    /// cap the connection is closed instead of parked — the next request
    /// to that peer re-dials, which costs a loopback connect, not an
    /// error.
    pub max_idle_total: usize,
    /// First retry delay; doubles per attempt.
    pub backoff_base: Duration,
    /// Upper bound on any single retry delay.
    pub backoff_cap: Duration,
    /// How long a failed peer stays quarantined (first failure; consecutive
    /// failures double it).
    pub quarantine: Duration,
    /// Upper bound on an escalated quarantine window.
    pub quarantine_cap: Duration,
    /// Seed for the backoff-jitter stream. Pools with different seeds
    /// de-synchronize their retry schedules; the same seed reproduces the
    /// same delays (tests, replays).
    pub jitter_seed: u64,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            connect_timeout: Duration::from_secs(5),
            io_timeout: Duration::from_secs(5),
            max_idle_per_peer: 4,
            max_idle_total: 256,
            backoff_base: Duration::from_millis(20),
            backoff_cap: Duration::from_millis(200),
            quarantine: Duration::from_secs(2),
            quarantine_cap: Duration::from_secs(30),
            jitter_seed: 0x9E37_79B9_7F4A_7C15,
        }
    }
}

impl PoolConfig {
    /// Returns the config with the jitter stream reseeded (builder-style).
    pub fn with_jitter_seed(mut self, seed: u64) -> Self {
        self.jitter_seed = seed;
        self
    }
}

/// Per-request failure policy.
#[derive(Debug, Clone, Copy)]
pub struct RequestOptions {
    /// Fresh-connect attempts before giving up (min 1).
    pub max_attempts: u32,
    /// Quarantine the remote after the final failed attempt.
    pub quarantine_on_failure: bool,
    /// Fail fast (without touching the network) while the remote is
    /// quarantined.
    pub respect_quarantine: bool,
}

impl RequestOptions {
    /// Policy for peer cache probes: one attempt, quarantine on failure,
    /// fail fast while quarantined. Preserves the §3.2 "one wasted probe"
    /// bound for dead peers.
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

/// Read-buffer bytes per pooled connection: a run's replies arrive back to
/// back, so one `read` should usually carry several, and it is paid per
/// warm connection, so it stays small.
const POOLED_READ_BUF: usize = 16 * 1024;

/// A pooled stream plus its read buffer. The buffer lives with the stream:
/// a `BufReader` may read ahead, and any buffered bytes belong to this
/// connection's next reply, so the two are parked and checked out together.
#[derive(Debug)]
struct PooledConn {
    stream: TcpStream,
    reader: io::BufReader<TcpStream>,
}

impl PooledConn {
    fn new(stream: TcpStream) -> io::Result<Self> {
        let reader = io::BufReader::with_capacity(POOLED_READ_BUF, stream.try_clone()?);
        Ok(PooledConn { stream, reader })
    }
}

#[derive(Debug, Default)]
struct PeerState {
    idle: Vec<PooledConn>,
    quarantined_until: Option<Instant>,
    /// Consecutive quarantining failures; scales the next window.
    quarantine_streak: u32,
    /// A request currently holds the post-expiry re-probe slot.
    probing: bool,
}

/// A warm connection pool over every remote this node talks to.
#[derive(Debug)]
pub struct ConnectionPool {
    config: PoolConfig,
    peers: Mutex<HashMap<SocketAddr, PeerState>>,
    /// Addresses under an injected network partition.
    blocked: Mutex<HashSet<SocketAddr>>,
    stats: Mutex<PoolStats>,
    jitter_seed: AtomicU64,
    fault: Arc<FaultSwitch>,
    /// Poisoned pools fail every request immediately (node shutdown).
    poisoned: AtomicBool,
}

impl ConnectionPool {
    /// Creates an empty pool with a private (inert) fault switch.
    pub fn new(config: PoolConfig) -> Self {
        let fault = Arc::new(FaultSwitch::new(config.jitter_seed));
        Self::with_fault_switch(config, fault)
    }

    /// Creates an empty pool wired to a shared fault switch (the chaos
    /// driver flips the knobs, the pool observes them).
    pub fn with_fault_switch(config: PoolConfig, fault: Arc<FaultSwitch>) -> Self {
        ConnectionPool {
            jitter_seed: AtomicU64::new(config.jitter_seed | 1),
            config,
            peers: Mutex::new(HashMap::new()),
            blocked: Mutex::new(HashSet::new()),
            stats: Mutex::new(PoolStats::default()),
            fault,
            poisoned: AtomicBool::new(false),
        }
    }

    /// The fault switch this pool consults before every send.
    pub fn fault_switch(&self) -> &Arc<FaultSwitch> {
        &self.fault
    }

    /// Snapshot of the pool counters.
    pub fn stats(&self) -> PoolStats {
        *self.stats.lock()
    }

    /// True while `addr` is inside its quarantine window.
    pub fn is_quarantined(&self, addr: SocketAddr) -> bool {
        let peers = self.peers.lock();
        peers
            .get(&addr)
            .and_then(|p| p.quarantined_until)
            .is_some_and(|until| Instant::now() < until)
    }

    /// Consecutive quarantining failures recorded against `addr` (0 once a
    /// request succeeds).
    pub fn quarantine_streak(&self, addr: SocketAddr) -> u32 {
        self.peers
            .lock()
            .get(&addr)
            .map_or(0, |p| p.quarantine_streak)
    }

    /// The quarantine window applied after `streak` consecutive failures:
    /// base duration doubled per extra failure, capped.
    pub fn quarantine_window(&self, streak: u32) -> Duration {
        let base = self.config.quarantine.as_micros() as u64;
        let cap = self.config.quarantine_cap.as_micros() as u64;
        let exp = streak.saturating_sub(1).min(16);
        Duration::from_micros(base.saturating_mul(1u64 << exp).min(cap).max(1))
    }

    /// Injects a partition: requests to `addr` fail fast until
    /// [`ConnectionPool::unblock`]. Parked connections are dropped so the
    /// partition also severs warm paths.
    pub fn block(&self, addr: SocketAddr) {
        self.blocked.lock().insert(addr);
        if let Some(peer) = self.peers.lock().get_mut(&addr) {
            peer.idle.clear();
        }
    }

    /// Heals an injected partition.
    pub fn unblock(&self, addr: SocketAddr) {
        self.blocked.lock().remove(&addr);
    }

    /// True while `addr` is partition-blocked.
    pub fn is_blocked(&self, addr: SocketAddr) -> bool {
        self.blocked.lock().contains(&addr)
    }

    /// Idle (warm) connections currently parked for `addr`.
    pub fn idle_count(&self, addr: SocketAddr) -> usize {
        self.peers.lock().get(&addr).map_or(0, |p| p.idle.len())
    }

    /// Peers currently inside their quarantine window. Feeds the
    /// `pool_quarantined_peers` gauge — quarantine expiry is passive, so
    /// this is computed at scrape time instead of maintained incrementally.
    pub fn quarantined_peer_count(&self) -> usize {
        let now = Instant::now();
        let peers = self.peers.lock();
        peers
            .values()
            .filter(|p| p.quarantined_until.is_some_and(|until| now < until))
            .count()
    }

    /// Total idle (warm) connections parked across all peers. Feeds the
    /// `pool_live_connections` gauge.
    pub fn total_idle_connections(&self) -> usize {
        self.peers.lock().values().map(|p| p.idle.len()).sum()
    }

    /// Closes all idle connections and forgets quarantine state.
    pub fn clear(&self) {
        self.peers.lock().clear();
    }

    /// Clears quarantine bookkeeping for `addr` (liveness recovery: the
    /// failure detector saw the peer answer a heartbeat, so probes should
    /// flow again immediately rather than waiting out the window).
    pub fn forgive(&self, addr: SocketAddr) {
        if let Some(peer) = self.peers.lock().get_mut(&addr) {
            peer.quarantined_until = None;
            peer.quarantine_streak = 0;
            peer.probing = false;
        }
    }

    /// Poisons the pool: every subsequent request fails immediately with
    /// `ConnectionAborted` and idle connections are dropped. Used on node
    /// shutdown so worker threads blocked behind pool I/O unwind fast
    /// instead of riding out connect timeouts. Irreversible, idempotent.
    pub fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
        self.peers.lock().clear();
    }

    /// True once [`ConnectionPool::poison`] has been called.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    /// Performs one framed request/reply round trip against `addr` under
    /// the given policy: the one-frame case of [`ConnectionPool::request_run`].
    ///
    /// # Errors
    ///
    /// Fails when the remote is quarantined (`respect_quarantine`) or
    /// partition-blocked, when the pool is poisoned, when the fault
    /// injector dropped the send, when every attempt errored, or when the
    /// reply cannot be decoded.
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
    /// connection — every frame in one `write`, the replies read back in
    /// order — and hands `on_reply` one result per frame, in frame order,
    /// each as soon as it is known (a reply is handed over before the next
    /// one is read, so a caller that consumes bodies as they come never
    /// holds the whole run's worth).
    ///
    /// Every gate treats the run as its frames sent one after another
    /// would be treated: a poisoned pool, a partition block and a
    /// quarantine window refuse each frame; an expired window admits the
    /// run as the single re-probe; with the packet-drop knob armed every
    /// frame draws its own fate (and goes out on its own, so a drop costs
    /// exactly that frame); once the run has quarantined the remote the
    /// rest of it is refused as the window would refuse it. A connection
    /// that dies after answering `k` frames fails only the unanswered
    /// ones, after the stale-socket replay and the policy's attempts have
    /// been spent on that suffix alone.
    ///
    /// The frames are written before any reply is read, so a run must fit
    /// the socket buffers: callers pipeline short requests (`Get`,
    /// `PeerGet`), never bodies. `on_reply` may itself use the pool (a
    /// different connection is checked out).
    pub fn request_run(
        &self,
        addr: SocketAddr,
        opts: RequestOptions,
        msgs: &[Message],
        on_reply: &mut dyn FnMut(io::Result<Message>),
    ) {
        let mut refuse_all = |kind: io::ErrorKind, why: String| {
            for _ in msgs {
                on_reply(Err(io::Error::new(kind, why.clone())));
            }
        };
        if self.is_poisoned() {
            return refuse_all(
                io::ErrorKind::ConnectionAborted,
                "connection pool shut down".to_string(),
            );
        }
        if self.is_blocked(addr) {
            self.stats.lock().partition_rejections += msgs.len() as u64;
            // A partition looks like silence, not refusal: surface it as a
            // timeout so callers treat it like an unreachable peer.
            return refuse_all(
                io::ErrorKind::TimedOut,
                format!("peer {addr} unreachable (injected partition)"),
            );
        }

        // Quarantine gate: fail fast inside the window; once the window
        // has expired, admit exactly one re-probe at a time.
        let mut holds_probe_slot = false;
        if opts.respect_quarantine {
            let mut peers = self.peers.lock();
            if let Some(peer) = peers.get_mut(&addr) {
                let refusal = match peer.quarantined_until {
                    Some(until) if Instant::now() < until => Some("quarantined"),
                    Some(_) if peer.probing => Some("re-probe in flight"),
                    Some(_) => {
                        peer.probing = true;
                        holds_probe_slot = true;
                        None
                    }
                    None => None,
                };
                if let Some(why) = refusal {
                    drop(peers);
                    self.stats.lock().quarantine_rejections += msgs.len() as u64;
                    return refuse_all(
                        io::ErrorKind::ConnectionRefused,
                        format!("peer {addr} {why}"),
                    );
                }
            }
        }
        self.run_inner(addr, opts, msgs, on_reply);
        if holds_probe_slot {
            if let Some(peer) = self.peers.lock().get_mut(&addr) {
                peer.probing = false;
            }
        }
    }

    /// Past the gates: fault injection, then the exchange.
    fn run_inner(
        &self,
        addr: SocketAddr,
        opts: RequestOptions,
        msgs: &[Message],
        on_reply: &mut dyn FnMut(io::Result<Message>),
    ) {
        if let Some(delay) = self.fault.tx_latency() {
            std::thread::sleep(delay);
        }
        // With the drop knob armed a run goes out one frame per exchange,
        // each behind its own seeded draw, exactly as if sent singly.
        let step = if self.fault.drop_per_million() == 0 {
            msgs.len()
        } else {
            1
        };
        let refused = || {
            io::Error::new(
                io::ErrorKind::ConnectionRefused,
                format!("peer {addr} quarantined"),
            )
        };
        // Set once this run has quarantined the remote: what is left of it
        // is refused as the fresh window would refuse it.
        let mut quarantined = false;
        for chunk in msgs.chunks(step.max(1)) {
            if quarantined && opts.respect_quarantine {
                self.stats.lock().quarantine_rejections += chunk.len() as u64;
                chunk.iter().for_each(|_| on_reply(Err(refused())));
            } else if self.fault.should_drop() {
                self.stats.lock().injected_drops += 1;
                if opts.quarantine_on_failure {
                    self.quarantine(addr);
                    quarantined = true;
                }
                on_reply(Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("send to {addr} dropped (injected fault)"),
                )));
            } else if let Err((unanswered, err)) = self.exchange(addr, opts, chunk, on_reply) {
                // The first unanswered frame carries the error; under a
                // policy that ignores quarantine the ones behind it fail
                // with it too.
                let (kind, why) = (err.kind(), err.to_string());
                on_reply(Err(err));
                if opts.quarantine_on_failure {
                    self.quarantine(addr);
                    quarantined = true;
                }
                for _ in 1..unanswered {
                    if quarantined && opts.respect_quarantine {
                        self.stats.lock().quarantine_rejections += 1;
                        on_reply(Err(refused()));
                    } else {
                        on_reply(Err(io::Error::new(kind, why.clone())));
                    }
                }
            }
        }
    }

    /// One pipelined exchange of `msgs`: the pooled connection first, then
    /// fresh connects under the policy's attempt budget, each carrying
    /// only the frames still unanswered. Every reply goes to `on_reply` as
    /// it arrives; when the attempts run out, returns how many frames
    /// stayed unanswered and the last error.
    fn exchange(
        &self,
        addr: SocketAddr,
        opts: RequestOptions,
        msgs: &[Message],
        on_reply: &mut dyn FnMut(io::Result<Message>),
    ) -> Result<(), (usize, io::Error)> {
        let mut answered = 0;

        // A stale pooled connection gets one free replay on a fresh socket:
        // its failure reflects the cached fd, not the remote.
        if let Some(conn) = self.checkout(addr) {
            let outcome = self.pipeline(conn, msgs, addr, &mut answered, on_reply);
            let mut stats = self.stats.lock();
            stats.reuses += answered as u64;
            if outcome.is_ok() {
                return Ok(());
            }
            stats.retries += 1;
        }

        let attempts = opts.max_attempts.max(1);
        let mut last_err = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                self.stats.lock().retries += 1;
                std::thread::sleep(self.backoff_delay(attempt));
            }
            let conn = match self.connect(addr) {
                Ok(conn) => conn,
                Err(e) => {
                    last_err = Some(e);
                    continue;
                }
            };
            let before = answered;
            let outcome = self.pipeline(conn, &msgs[before..], addr, &mut answered, on_reply);
            {
                // The first frame paid for the connect; the rest rode a
                // connection that was already open.
                let mut stats = self.stats.lock();
                stats.connects += 1;
                stats.reuses += (answered - before).saturating_sub(1) as u64;
            }
            if answered > before {
                let mut peers = self.peers.lock();
                let peer = peers.entry(addr).or_default();
                peer.quarantined_until = None;
                peer.quarantine_streak = 0;
            }
            match outcome {
                Ok(()) => return Ok(()),
                Err(e) => last_err = Some(e),
            }
        }
        let err = last_err.unwrap_or_else(|| io::Error::other("no attempts made"));
        Err((msgs.len() - answered, err))
    }

    /// Opens (or escalates) the quarantine window for `addr`.
    fn quarantine(&self, addr: SocketAddr) {
        let mut peers = self.peers.lock();
        let peer = peers.entry(addr).or_default();
        peer.quarantine_streak = peer.quarantine_streak.saturating_add(1);
        let window = self.quarantine_window(peer.quarantine_streak);
        peer.quarantined_until = Some(Instant::now() + window);
        peer.idle.clear();
    }

    fn checkout(&self, addr: SocketAddr) -> Option<PooledConn> {
        self.peers.lock().get_mut(&addr)?.idle.pop()
    }

    fn connect(&self, addr: SocketAddr) -> io::Result<PooledConn> {
        let stream = TcpStream::connect_timeout(&addr, self.config.connect_timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(self.config.io_timeout))?;
        stream.set_write_timeout(Some(self.config.io_timeout))?;
        PooledConn::new(stream)
    }

    /// Writes every frame of `msgs` in one `write`, reads the replies back
    /// in order — handing each to `on_reply` and counting it in `answered`
    /// — and parks the connection again. On an error the replies already
    /// handed over stand and the connection is dropped.
    fn pipeline(
        &self,
        mut conn: PooledConn,
        msgs: &[Message],
        addr: SocketAddr,
        answered: &mut usize,
        on_reply: &mut dyn FnMut(io::Result<Message>),
    ) -> io::Result<()> {
        let mut frames = BytesMut::with_capacity(64 * msgs.len());
        for msg in msgs {
            msg.encode_into(&mut frames);
        }
        conn.stream.write_all(&frames)?;
        for _ in msgs {
            let reply = wire::read_message(&mut conn.reader)?;
            *answered += 1;
            on_reply(Ok(reply));
        }
        let mut peers = self.peers.lock();
        // Both caps must hold before parking: the per-peer cap keeps one
        // chatty remote from monopolizing the pool, the global cap keeps a
        // wide mesh (many remotes, few sockets each) inside the process fd
        // budget. The map is at most one entry per remote, so summing under
        // the lock is cheap.
        let idle_total: usize = peers.values().map(|p| p.idle.len()).sum();
        let peer = peers.entry(addr).or_default();
        if peer.idle.len() < self.config.max_idle_per_peer
            && idle_total < self.config.max_idle_total
        {
            peer.idle.push(conn);
        }
        Ok(())
    }

    /// Exponential backoff with jitter in `[delay/2, delay)`, capped. The
    /// jitter stream is seeded per pool ([`PoolConfig::jitter_seed`]): one
    /// pool's delays are reproducible, while pools with different seeds
    /// (every node derives its own from its machine id) spread their
    /// reconnect attempts instead of stampeding a restarted peer in
    /// lock-step.
    fn backoff_delay(&self, attempt: u32) -> Duration {
        let base = self.config.backoff_base.as_micros() as u64;
        let cap = self.config.backoff_cap.as_micros() as u64;
        let exp = base.saturating_mul(1u64 << attempt.min(16)).min(cap).max(1);
        let seed = self
            .jitter_seed
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                Some(
                    s.wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407),
                )
            })
            .unwrap_or_else(|prev| prev);
        let jitter = seed % (exp / 2).max(1);
        Duration::from_micros(exp / 2 + jitter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpListener;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

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
            connect_timeout: Duration::from_millis(500),
            io_timeout: Duration::from_millis(500),
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(4),
            quarantine: Duration::from_millis(200),
            ..PoolConfig::default()
        }
    }

    /// An address that refuses connections (bound then immediately freed).
    fn dead_addr() -> SocketAddr {
        let l = TcpListener::bind("127.0.0.1:0").expect("bind");
        l.local_addr().expect("addr")
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
        assert_eq!(pool.idle_count(addr), 1);
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
            pool.idle_count(addr),
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
        assert_eq!(stats.retries, 1, "the replay is free: no attempt consumed");
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
        let drop_all: Gate = |pool, _| {
            pool.fault_switch()
                .set_drop_per_million(bh_netpoll::fault::PER_MILLION)
        };
        let gates: [(&str, Gate); 7] = [
            ("open", |_, _| {}),
            ("poisoned", |pool, _| pool.poison()),
            ("partition block", |pool, addr| pool.block(addr)),
            ("quarantine window", |pool, addr| {
                // A lost probe opens the window; the fault is then lifted.
                pool.fault_switch()
                    .set_drop_per_million(bh_netpoll::fault::PER_MILLION);
                pool.request(addr, RequestOptions::peer_probe(), &Message::Ack)
                    .expect_err("dropped");
                pool.fault_switch().clear();
                assert!(pool.is_quarantined(addr));
            }),
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
                    let fault = Arc::new(FaultSwitch::new(7));
                    ConnectionPool::with_fault_switch(quick_config(), fault)
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
        let (addr, _served) = ack_server(None);
        let reprobe = |as_run: bool| {
            let pool = ConnectionPool::new(PoolConfig {
                quarantine: Duration::from_millis(1),
                ..quick_config()
            });
            pool.fault_switch()
                .set_drop_per_million(bh_netpoll::fault::PER_MILLION);
            pool.request(addr, RequestOptions::peer_probe(), &Message::Ack)
                .expect_err("dropped");
            pool.fault_switch().clear();
            while pool.is_quarantined(addr) {
                std::thread::yield_now();
            }
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
            pool.stats()
        };
        assert_eq!(reprobe(true), reprobe(false));
    }

    #[test]
    fn global_idle_cap_bounds_total_warm_connections() {
        let servers: Vec<_> = (0..4).map(|_| ack_server(None)).collect();
        let pool = ConnectionPool::new(PoolConfig {
            max_idle_per_peer: 4,
            max_idle_total: 2,
            ..quick_config()
        });
        // Touch every remote twice: well under the per-peer cap, but the
        // pool as a whole may only park two sockets.
        for _ in 0..2 {
            for (addr, _) in &servers {
                pool.request(*addr, RequestOptions::origin(), &Message::Ack)
                    .expect("ack");
            }
        }
        assert_eq!(
            pool.total_idle_connections(),
            2,
            "global cap bounds warm sockets across all remotes"
        );
        // The capped remotes still work — their requests re-dial.
        for (addr, _) in &servers {
            pool.request(*addr, RequestOptions::origin(), &Message::Ack)
                .expect("ack after cap");
        }
        assert!(pool.total_idle_connections() <= 2);
    }

    #[test]
    fn stale_pooled_connection_is_replayed_on_a_fresh_socket() {
        let (addr, served) = ack_server(Some(1));
        let pool = ConnectionPool::new(quick_config());
        pool.request(addr, RequestOptions::origin(), &Message::Ack)
            .expect("first");
        // The server closed the connection after one request, but the pool
        // parked it. Give the close time to land, then request again: the
        // stale socket must be replaced transparently.
        std::thread::sleep(Duration::from_millis(50));
        pool.request(addr, RequestOptions::origin(), &Message::Ack)
            .expect("second");
        assert_eq!(pool.stats().connects, 2);
        assert_eq!(served.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn dead_peer_probe_fails_once_then_quarantines() {
        let addr = dead_addr();
        let pool = ConnectionPool::new(quick_config());

        let err = pool
            .request(addr, RequestOptions::peer_probe(), &Message::Ack)
            .expect_err("dead peer");
        assert_ne!(err.kind(), io::ErrorKind::Unsupported);
        assert!(pool.is_quarantined(addr));
        assert_eq!(pool.stats().connects, 0, "refused connects are not counted");

        // While quarantined the probe fails fast without touching the net.
        let before = pool.stats();
        pool.request(addr, RequestOptions::peer_probe(), &Message::Ack)
            .expect_err("still quarantined");
        let after = pool.stats();
        assert_eq!(
            after.quarantine_rejections,
            before.quarantine_rejections + 1
        );

        // Quarantine expires on its own.
        std::thread::sleep(Duration::from_millis(250));
        assert!(!pool.is_quarantined(addr));
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
    }

    #[test]
    fn recovery_clears_quarantine() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        drop(listener);
        let pool = ConnectionPool::new(quick_config());
        pool.request(addr, RequestOptions::peer_probe(), &Message::Ack)
            .expect_err("dead");
        std::thread::sleep(Duration::from_millis(250));

        // Peer comes back on the same port.
        let listener = TcpListener::bind(addr).expect("rebind");
        std::thread::spawn(move || {
            if let Ok((mut stream, _)) = listener.accept() {
                let _ = wire::read_message(&mut stream);
                let _ = wire::write_message(&mut stream, &Message::Ack);
                // Hold the connection open until the test ends.
                let mut buf = [0u8; 1];
                let _ = stream.read(&mut buf);
            }
        });
        let reply = pool
            .request(addr, RequestOptions::peer_probe(), &Message::Ack)
            .expect("recovered");
        assert_eq!(reply, Message::Ack);
        assert!(!pool.is_quarantined(addr));
        assert_eq!(pool.quarantine_streak(addr), 0, "success resets the streak");
    }

    #[test]
    fn jitter_streams_diverge_across_seeds_and_replay_within_one() {
        let delays = |seed: u64| {
            let pool = ConnectionPool::new(PoolConfig {
                backoff_base: Duration::from_millis(8),
                backoff_cap: Duration::from_secs(1),
                ..PoolConfig::default().with_jitter_seed(seed)
            });
            (1..=8u32)
                .map(|a| pool.backoff_delay(a))
                .collect::<Vec<_>>()
        };
        let a = delays(1);
        let b = delays(2);
        let a2 = delays(1);
        assert_eq!(a, a2, "a pool's delay sequence is reproducible");
        assert_ne!(a, b, "different machines draw different jitter");
        // Jitter stays inside the documented [delay/2, delay) envelope.
        for (i, d) in a.iter().enumerate() {
            let exp = Duration::from_millis(8 << (i + 1)).min(Duration::from_secs(1));
            assert!(*d >= exp / 2 && *d < exp, "attempt {i}: {d:?} vs {exp:?}");
        }
    }

    #[test]
    fn quarantine_escalates_per_failure_and_caps() {
        let pool = ConnectionPool::new(PoolConfig {
            quarantine: Duration::from_millis(100),
            quarantine_cap: Duration::from_millis(400),
            ..quick_config()
        });
        assert_eq!(pool.quarantine_window(1), Duration::from_millis(100));
        assert_eq!(pool.quarantine_window(2), Duration::from_millis(200));
        assert_eq!(pool.quarantine_window(3), Duration::from_millis(400));
        assert_eq!(
            pool.quarantine_window(9),
            Duration::from_millis(400),
            "capped"
        );

        // Two real consecutive failures move the streak to 2.
        let addr = dead_addr();
        pool.request(addr, RequestOptions::peer_probe(), &Message::Ack)
            .expect_err("dead");
        assert_eq!(pool.quarantine_streak(addr), 1);
        std::thread::sleep(Duration::from_millis(150));
        pool.request(addr, RequestOptions::peer_probe(), &Message::Ack)
            .expect_err("still dead");
        assert_eq!(pool.quarantine_streak(addr), 2);
        assert!(pool.is_quarantined(addr));
        // Forgiveness (liveness recovery) resets everything at once.
        pool.forgive(addr);
        assert!(!pool.is_quarantined(addr));
        assert_eq!(pool.quarantine_streak(addr), 0);
    }

    #[test]
    fn expired_quarantine_admits_one_probe_at_a_time() {
        let addr = dead_addr();
        let pool = Arc::new(ConnectionPool::new(PoolConfig {
            // Slow connect timeout so the re-probe holds its slot long
            // enough for the second thread to observe it.
            connect_timeout: Duration::from_millis(400),
            quarantine: Duration::from_millis(50),
            ..quick_config()
        }));
        pool.request(addr, RequestOptions::peer_probe(), &Message::Ack)
            .expect_err("dead");
        std::thread::sleep(Duration::from_millis(80));
        assert!(!pool.is_quarantined(addr), "window expired");

        // First probe after expiry claims the slot (and will fail slowly);
        // a concurrent second probe must be refused instantly.
        let p2 = Arc::clone(&pool);
        let prober = std::thread::spawn(move || {
            p2.request(addr, RequestOptions::peer_probe(), &Message::Ack)
                .expect_err("still dead")
        });
        std::thread::sleep(Duration::from_millis(30));
        let start = Instant::now();
        let err = pool
            .request(addr, RequestOptions::peer_probe(), &Message::Ack)
            .expect_err("slot held");
        assert!(
            start.elapsed() < Duration::from_millis(100),
            "refusal must be immediate, took {:?}",
            start.elapsed()
        );
        assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused);
        prober.join().expect("prober");
        // The failed re-probe escalated the quarantine.
        assert_eq!(pool.quarantine_streak(addr), 2);
    }

    #[test]
    fn partition_blocks_and_heals() {
        let (addr, served) = ack_server(None);
        let pool = ConnectionPool::new(quick_config());
        pool.request(addr, RequestOptions::origin(), &Message::Ack)
            .expect("reachable");
        pool.block(addr);
        assert!(pool.is_blocked(addr));
        assert_eq!(pool.idle_count(addr), 0, "partition severs warm conns");
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
        pool.fault_switch()
            .set_drop_per_million(bh_netpoll::fault::PER_MILLION);
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
        let start = Instant::now();
        let err = pool
            .request(addr, RequestOptions::origin(), &Message::Ack)
            .expect_err("poisoned");
        assert_eq!(err.kind(), io::ErrorKind::ConnectionAborted);
        assert!(start.elapsed() < Duration::from_millis(50));
        assert!(pool.is_poisoned());
        assert_eq!(served.load(Ordering::SeqCst), 1);
    }
}
