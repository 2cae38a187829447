//! The sharded connection engine: a fixed set of epoll shard threads owns
//! every accepted socket, and a bounded worker pool services `Get`
//! requests (which may touch the network).
//!
//! Division of labor:
//!
//! * the **accept thread** blocks in `accept()` and deals new connections
//!   round-robin to the shards through an injection channel + waker;
//! * each **shard thread** runs a level-triggered epoll loop over its
//!   connections, assembling frames incrementally and answering every
//!   local-state frame (`PeerGet`, `HintBatch`, `Push`, `FindNearest`,
//!   `MetaRequest`) inline — a shard never performs outbound I/O, which
//!   is what makes peer-to-peer probing deadlock-free on a bounded
//!   thread count;
//! * `Get` frames that hit the local data cache are also answered on the
//!   shard (pure in-memory work); the rest are handed to the **worker
//!   pool**, which writes the reply straight to the client socket through
//!   the connection's shared write state — the owning shard is only poked
//!   (rare on loopback) when a short write leaves bytes pending and
//!   `EPOLLOUT` interest must be armed.
//!
//! Per-connection ordering: a connection with a `Get` in flight (`busy`)
//! parks subsequent frames in a backlog; whoever finishes the `Get`
//! replays them under the connection lock, so replies always match
//! request order even though local frames are cheap and `Get`s are not.
//!
//! Lock order: a connection's state lock may be taken before the node's
//! store lock (frame handling under the connection lock), never the other
//! way around — nothing touches connection state while holding the store.

use super::{handle_get, local_hit, local_response, trace_event, Inner};
use crate::wire::{FrameAssembler, Message, ServedBy, Status};
use bh_netpoll::{waker_pair, Event, Interest, Poller, WakeReceiver, Waker};
use bh_obs::span;
use bytes::{Bytes, BytesMut};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{self, Receiver, Sender};

/// Token reserved for each shard's wake-up descriptor.
const WAKER_TOKEN: u64 = 0;

/// How long a shard sleeps in `epoll_wait` with nothing to do. Wake-ups
/// normally arrive via the waker; the timeout is a shutdown backstop.
const IDLE_WAIT: Duration = Duration::from_millis(500);

/// Work injected into a shard from outside its epoll loop.
enum Injected {
    /// A freshly accepted connection to adopt.
    Conn(TcpStream),
    /// A writer left connection `token` with queued bytes; arm `EPOLLOUT`.
    WantWrite { token: u64 },
}

/// A `Get` checked out to the worker pool.
struct WorkerJob {
    shard: usize,
    token: u64,
    url: String,
    conn: Arc<SharedConn>,
}

/// Admission-controlled handle to the worker-pool job channel.
///
/// Depth is tracked with a shared counter: enqueue increments, a worker
/// dequeue decrements. Past the high-water mark new `Get`s are turned
/// away with a redirect-to-origin reply instead of queueing unboundedly
/// behind a slow origin — the client is closer to the origin than to a
/// saturated cache (the paper's "the cache must stay cheaper than going
/// direct" argument, applied as backpressure).
#[derive(Clone)]
struct JobQueue {
    tx: Sender<WorkerJob>,
    depth: Arc<AtomicUsize>,
    saturated: Arc<AtomicBool>,
    high_water: usize,
}

impl JobQueue {
    /// Admission check: `Ok` when the job may be enqueued, `Err(depth)`
    /// when it must be rejected. Counts one `queue_saturation_events`
    /// per episode (the rising edge of the mark, not every reject); the
    /// episode ends once the queue drains back to half the mark.
    fn admit(&self, inner: &Inner) -> Result<(), usize> {
        let depth = self.depth.load(Ordering::Relaxed);
        if depth >= self.high_water {
            if !self.saturated.swap(true, Ordering::Relaxed) {
                inner.metrics.queue_saturation_events.inc();
                trace_event(
                    inner,
                    span::QUEUE_SATURATION,
                    depth as u64,
                    self.high_water as u64,
                );
            }
            Err(depth)
        } else {
            if self.saturated.load(Ordering::Relaxed) && depth <= self.high_water / 2 {
                self.saturated.store(false, Ordering::Relaxed);
            }
            Ok(())
        }
    }

    fn send(&self, job: WorkerJob) -> Result<(), channel::SendError<WorkerJob>> {
        self.depth.fetch_add(1, Ordering::Relaxed);
        let sent = self.tx.send(job);
        if sent.is_err() {
            self.depth.fetch_sub(1, Ordering::Relaxed);
        }
        sent
    }

    /// A worker checked a job out of the channel.
    fn job_done(&self) {
        self.depth.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Writes the admission-control rejection: a `Redirect` reply telling the
/// client to fetch from the origin directly. Callers hold the connection
/// lock.
fn reject_get(
    inner: &Inner,
    stream: &TcpStream,
    state: &mut ConnState,
    scratch: &mut BytesMut,
    url: &str,
    depth: usize,
) {
    inner.metrics.admission_rejects.inc();
    trace_event(
        inner,
        span::ADMISSION_REJECT,
        bh_md5::url_key(url),
        depth as u64,
    );
    let reply = Message::GetReply {
        status: Status::Redirect,
        version: 0,
        served_by: ServedBy::Origin,
        body: Bytes::new(),
    };
    reply.encode(scratch);
    send_frame(stream, state, scratch);
}

/// Everything `CacheNode::spawn` needs to own the running engine.
pub(super) struct Engine {
    pub(super) threads: Vec<std::thread::JoinHandle<()>>,
    pub(super) wakers: Vec<Waker>,
}

/// Spawns the accept thread, shard threads, and worker pool.
pub(super) fn spawn(listener: TcpListener, inner: Arc<Inner>) -> io::Result<Engine> {
    let shards = inner.config.shards.max(1);
    let workers = inner.config.workers.max(1);
    let addr = listener.local_addr()?;

    let mut handles: Vec<(Sender<Injected>, Waker)> = Vec::with_capacity(shards);
    let mut loops = Vec::with_capacity(shards);
    for _ in 0..shards {
        let poller = Poller::new()?;
        let (waker, wake_rx) = waker_pair()?;
        poller.register(&wake_rx, WAKER_TOKEN, Interest::READABLE)?;
        let (tx, rx) = channel::unbounded();
        handles.push((tx, waker));
        loops.push((poller, wake_rx, rx));
    }

    let (job_tx, job_rx) = channel::unbounded::<WorkerJob>();
    let jobs = JobQueue {
        tx: job_tx,
        depth: Arc::new(AtomicUsize::new(0)),
        saturated: Arc::new(AtomicBool::new(false)),
        // Enough queued Gets to keep every worker busy through a burst,
        // small enough that a stalled origin turns into redirects instead
        // of unbounded memory.
        high_water: (workers * 64).max(256),
    };
    let mut threads = Vec::with_capacity(workers + shards + 1);

    for w in 0..workers {
        let job_rx = job_rx.clone();
        let jobs = jobs.clone();
        let handles = clone_handles(&handles)?;
        let inner = Arc::clone(&inner);
        threads.push(
            std::thread::Builder::new()
                .name(format!("cache-worker-{addr}-{w}"))
                .spawn(move || worker_loop(job_rx, jobs, handles, inner))?,
        );
    }

    for (i, (poller, wake_rx, rx)) in loops.into_iter().enumerate() {
        let inner = Arc::clone(&inner);
        let jobs = jobs.clone();
        threads.push(
            std::thread::Builder::new()
                .name(format!("cache-shard-{addr}-{i}"))
                .spawn(move || {
                    Shard::new(i, poller, wake_rx, rx, jobs, inner).run();
                })?,
        );
    }
    drop(jobs);

    let wakers = handles
        .iter()
        .map(|(_, w)| w.try_clone())
        .collect::<io::Result<Vec<_>>>()?;
    {
        let inner = Arc::clone(&inner);
        threads.push(
            std::thread::Builder::new()
                .name(format!("cache-accept-{addr}"))
                .spawn(move || accept_loop(listener, handles, inner))?,
        );
    }

    Ok(Engine { threads, wakers })
}

fn clone_handles(
    handles: &[(Sender<Injected>, Waker)],
) -> io::Result<Vec<(Sender<Injected>, Waker)>> {
    handles
        .iter()
        .map(|(tx, w)| Ok((tx.clone(), w.try_clone()?)))
        .collect()
}

/// Deals accepted connections round-robin across the shards. Holding the
/// shard senders here (and dropping them on exit) is what lets the shard
/// loops observe engine teardown.
fn accept_loop(listener: TcpListener, handles: Vec<(Sender<Injected>, Waker)>, inner: Arc<Inner>) {
    let mut next = 0usize;
    for stream in listener.incoming() {
        if inner.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let (tx, waker) = &handles[next % handles.len()];
        next = next.wrapping_add(1);
        if tx.send(Injected::Conn(stream)).is_ok() && !waker.wake() {
            inner.metrics.wakeups_coalesced.inc();
        }
    }
}

/// Services `Get` jobs; each may probe a peer and fall back to the origin
/// through the pooled transport, then completes the request directly on
/// the connection (writing the reply and replaying the backlog), poking
/// the owning shard only if queued bytes remain.
fn worker_loop(
    job_rx: Receiver<WorkerJob>,
    jobs: JobQueue,
    handles: Vec<(Sender<Injected>, Waker)>,
    inner: Arc<Inner>,
) {
    // Reply frames are encoded into this reusable scratch buffer; the
    // fast path writes it straight to the socket, so the steady state is
    // zero allocations per reply.
    let mut scratch = BytesMut::with_capacity(4096);
    loop {
        // Workers hold a `JobQueue` clone (backlog replays enqueue
        // follow-up jobs), so the channel never disconnects on its own —
        // poll the shutdown flag instead of blocking forever.
        let job = match job_rx.recv_timeout(Duration::from_millis(50)) {
            Ok(job) => job,
            Err(channel::RecvTimeoutError::Timeout) => {
                if inner.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
            Err(channel::RecvTimeoutError::Disconnected) => break,
        };
        jobs.job_done();
        if inner.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let reply = handle_get(&inner, &job.url);
        let wants_write = {
            // bh-lint: allow(lock-order, reason = "the per-connection state lock IS the frame-write serializer; the socket is nonblocking, so writes under it only fill the kernel buffer and queue the rest")
            let mut state = job.conn.state.lock();
            let was_closed = state.closed;
            reply.encode(&mut scratch);
            send_frame(&job.conn.stream, &mut state, &scratch);
            if state.closed && !was_closed {
                // The reply could not be delivered (socket died mid-write);
                // account it instead of wedging or panicking the worker.
                inner.metrics.service_errors.inc();
            }
            state.busy = false;
            replay_backlog(
                &job.conn,
                &mut state,
                &inner,
                &jobs,
                &mut scratch,
                job.shard,
                job.token,
            );
            !state.closed && state.wants_write()
        };
        if wants_write {
            let (tx, waker) = &handles[job.shard];
            if tx.send(Injected::WantWrite { token: job.token }).is_ok() && !waker.wake() {
                inner.metrics.wakeups_coalesced.inc();
            }
        }
    }
}

/// Dispatches parked frames until the backlog drains or a `Get` checks
/// out: a missing `Get` goes to the worker pool, everything else
/// (including locally-hit `Get`s) is answered inline. Runs under the
/// connection lock, on the shard delivering a frame or on whichever
/// thread cleared `busy` (a worker finishing a `Get`, usually).
fn replay_backlog(
    conn: &Arc<SharedConn>,
    state: &mut ConnState,
    inner: &Arc<Inner>,
    jobs: &JobQueue,
    scratch: &mut BytesMut,
    shard: usize,
    token: u64,
) {
    while !state.busy && !state.closed {
        let Some(msg) = state.backlog.pop_front() else {
            break;
        };
        match msg {
            Message::Get { url } => {
                // Drain (mesh API) outranks the local-hit fast path: a
                // drained node turns every client `Get` away.
                if inner.drained() {
                    reject_get(inner, &conn.stream, state, scratch, &url, 0);
                } else if let Some(reply) = local_hit(inner, &url) {
                    reply.encode(scratch);
                    send_frame(&conn.stream, state, scratch);
                } else if let Err(depth) = jobs.admit(inner) {
                    reject_get(inner, &conn.stream, state, scratch, &url, depth);
                } else {
                    state.busy = true;
                    let job = WorkerJob {
                        shard,
                        token,
                        url,
                        conn: Arc::clone(conn),
                    };
                    if jobs.send(job).is_err() {
                        // Engine tearing down; the connection dies with it.
                        state.closed = true;
                        inner.metrics.service_errors.inc();
                    }
                }
            }
            other => {
                let reply = local_response(inner, other);
                reply.encode(scratch);
                send_frame(&conn.stream, state, scratch);
            }
        }
    }
}

/// Write-side state of a connection, shared between the owning shard and
/// any worker finishing a `Get` for it.
struct ConnState {
    /// Reply frames queued for writing, oldest first; `front_pos` marks
    /// how much of the front frame already left. Keeping whole frames
    /// (refcounted `Bytes`) instead of one flat byte buffer is what lets
    /// the flush path hand the entire queue to `writev` in one syscall.
    out: VecDeque<Bytes>,
    front_pos: usize,
    /// A `Get` is checked out to the worker pool; further frames wait in
    /// `backlog` so replies keep request order.
    busy: bool,
    backlog: VecDeque<Message>,
    /// Set once the shard abandons the connection (or the engine is
    /// tearing down); writers stop touching the socket.
    closed: bool,
}

impl ConnState {
    fn wants_write(&self) -> bool {
        !self.out.is_empty()
    }
}

/// A connection as seen by both the shard (reads, epoll) and the workers
/// (direct reply writes). The stream itself is never cloned: both sides
/// write through `&TcpStream`, serialized by the state lock.
struct SharedConn {
    stream: TcpStream,
    state: Mutex<ConnState>,
}

/// Shard-private bookkeeping for one connection.
struct ShardConn {
    shared: Arc<SharedConn>,
    /// Frame reassembly is shard-only — only the shard reads the socket.
    assembler: FrameAssembler,
    /// Interest currently registered with the poller (avoids redundant
    /// `epoll_ctl` calls).
    interest: Interest,
}

struct Shard {
    id: usize,
    poller: Poller,
    wake_rx: WakeReceiver,
    inject_rx: Receiver<Injected>,
    jobs: JobQueue,
    inner: Arc<Inner>,
    conns: HashMap<u64, ShardConn>,
    next_token: u64,
    /// Reusable encode buffer for replies answered on the shard itself.
    scratch: BytesMut,
}

impl Shard {
    fn new(
        id: usize,
        poller: Poller,
        wake_rx: WakeReceiver,
        inject_rx: Receiver<Injected>,
        jobs: JobQueue,
        inner: Arc<Inner>,
    ) -> Self {
        Shard {
            id,
            poller,
            wake_rx,
            inject_rx,
            jobs,
            inner,
            conns: HashMap::new(),
            next_token: WAKER_TOKEN + 1,
            scratch: BytesMut::with_capacity(4096),
        }
    }

    fn run(mut self) {
        let mut events: Vec<Event> = Vec::with_capacity(128);
        while !self.inner.shutdown.load(Ordering::SeqCst) {
            events.clear();
            if self.poller.wait(&mut events, Some(IDLE_WAIT)).is_err() {
                break;
            }
            self.wake_rx.drain();
            self.drain_injections();
            for &event in &events {
                if event.token == WAKER_TOKEN {
                    continue;
                }
                self.service(event);
            }
        }
        // Mark every connection closed so in-flight workers stop writing.
        for conn in self.conns.values() {
            conn.shared.state.lock().closed = true;
        }
    }

    fn drain_injections(&mut self) {
        while let Ok(injected) = self.inject_rx.try_recv() {
            match injected {
                Injected::Conn(stream) => self.adopt(stream),
                Injected::WantWrite { token } => self.flush_and_rearm(token),
            }
        }
    }

    fn adopt(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
            return;
        }
        let token = self.next_token;
        self.next_token += 1;
        if self
            .poller
            .register(&stream, token, Interest::READABLE)
            .is_ok()
        {
            let shared = Arc::new(SharedConn {
                stream,
                state: Mutex::new(ConnState {
                    out: VecDeque::new(),
                    front_pos: 0,
                    busy: false,
                    backlog: VecDeque::new(),
                    closed: false,
                }),
            });
            self.conns.insert(
                token,
                ShardConn {
                    shared,
                    assembler: FrameAssembler::new(),
                    interest: Interest::READABLE,
                },
            );
        }
    }

    /// Handles readiness for one connection.
    fn service(&mut self, event: Event) {
        let token = event.token;
        // Chaos hook: injected inbound service delay, applied before the
        // shard touches the socket. One relaxed load when disarmed.
        if let Some(delay) = self.inner.pool.fault_switch().rx_latency() {
            std::thread::sleep(delay);
        }
        if event.needs_read() && !self.read_ready(token) {
            self.close(token);
            return;
        }
        self.flush_and_rearm(token);
    }

    /// Pulls bytes, assembles frames, dispatches them. Returns false when
    /// the connection is finished (EOF, error, or unframeable input).
    fn read_ready(&mut self, token: u64) -> bool {
        let mut buf = [0u8; 16 * 1024];
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return false;
            };
            match (&conn.shared.stream).read(&mut buf) {
                Ok(0) => return false,
                Ok(n) => {
                    conn.assembler.extend(&buf[..n]);
                    loop {
                        let Some(conn) = self.conns.get_mut(&token) else {
                            return false;
                        };
                        match conn.assembler.next_message() {
                            Ok(Some(msg)) => {
                                if !self.deliver(token, msg) {
                                    return false;
                                }
                            }
                            Ok(None) => break,
                            Err(_) => return false,
                        }
                    }
                }
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
    }

    /// Routes one frame under the connection lock, through the backlog so
    /// there is one dispatch ladder ([`replay_backlog`]): the frame stays
    /// parked if a `Get` is in flight and is dispatched at once otherwise.
    /// Returns false when the connection should be torn down.
    fn deliver(&mut self, token: u64, msg: Message) -> bool {
        let Some(conn) = self.conns.get(&token) else {
            return false;
        };
        let shared = Arc::clone(&conn.shared);
        // bh-lint: allow(lock-order, reason = "the per-connection state lock IS the frame-write serializer; the socket is nonblocking, so writes under it only fill the kernel buffer and queue the rest")
        let mut state = shared.state.lock();
        if state.closed {
            return false;
        }
        state.backlog.push_back(msg);
        replay_backlog(
            &shared,
            &mut state,
            &self.inner,
            &self.jobs,
            &mut self.scratch,
            self.id,
            token,
        );
        !state.closed
    }

    /// Pushes queued bytes and keeps the poller's interest set in sync
    /// with whether a write is still pending.
    fn flush_and_rearm(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let want = {
            // bh-lint: allow(lock-order, reason = "draining queued bytes to the nonblocking socket is exactly what this lock serializes; write_some returns WouldBlock instead of waiting")
            let mut state = conn.shared.state.lock();
            if write_some(&conn.shared.stream, &mut state, &self.inner).is_err() {
                drop(state);
                self.close(token);
                return;
            }
            if state.wants_write() {
                Interest::BOTH
            } else {
                Interest::READABLE
            }
        };
        if conn.interest != want {
            if self
                .poller
                .modify(&conn.shared.stream, token, want)
                .is_err()
            {
                self.close(token);
                return;
            }
            conn.interest = want;
        }
    }

    fn close(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            conn.shared.state.lock().closed = true;
            let _ = self.poller.deregister(&conn.shared.stream);
        }
    }
}

/// Queues an encoded frame on a connection, writing it straight to the
/// socket when nothing is already queued — the common case, which skips a
/// full copy of the frame (reply bodies dominate the bytes moved). Only
/// the unsent tail, if any, is buffered. Callers hold the connection lock.
fn send_frame(stream: &TcpStream, state: &mut ConnState, frame: &[u8]) {
    if state.closed {
        return;
    }
    let mut sent = 0;
    if !state.wants_write() {
        while sent < frame.len() {
            match (&*stream).write(&frame[sent..]) {
                Ok(0) => {
                    state.closed = true;
                    return;
                }
                Ok(n) => sent += n,
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    state.closed = true;
                    return;
                }
            }
        }
    }
    if sent < frame.len() {
        // bh-lint: allow(no-hot-alloc, reason = "only the unsent tail of a short write is copied; the fast path above writes the caller's scratch buffer in place")
        state.out.push_back(Bytes::from(frame[sent..].to_vec()));
    }
}

/// Writes as much of the out-queue as the socket accepts right now, whole
/// frames gathered into one `writev` per syscall. Callers hold the
/// connection lock.
fn write_some(stream: &TcpStream, state: &mut ConnState, inner: &Inner) -> io::Result<()> {
    while state.wants_write() {
        let empty: &[u8] = &[];
        let mut bufs = [IoSlice::new(empty); bh_netpoll::MAX_IOV];
        let mut cnt = 0usize;
        for (i, frame) in state.out.iter().take(bh_netpoll::MAX_IOV).enumerate() {
            bufs[i] = IoSlice::new(if i == 0 {
                &frame[state.front_pos..]
            } else {
                frame
            });
            cnt += 1;
        }
        let wrote = match bh_netpoll::write_vectored(stream, &bufs[..cnt]) {
            Ok(0) => return Err(io::Error::from(io::ErrorKind::WriteZero)),
            Ok(n) => n,
            Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) => return Err(e),
        };
        if cnt > 1 {
            inner.metrics.writev_batches.inc();
        }
        let mut remaining = wrote;
        while remaining > 0 && !state.out.is_empty() {
            let front_left = state.out[0].len() - state.front_pos;
            if remaining >= front_left {
                remaining -= front_left;
                state.out.pop_front();
                state.front_pos = 0;
            } else {
                state.front_pos += remaining;
                remaining = 0;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{CacheNode, NodeConfig};
    use crate::origin::OriginServer;

    /// `queue_saturation_events` counts episodes, not rejects: one per
    /// rising edge of the mark, re-armed only once the queue has drained
    /// back to half of it.
    #[test]
    fn admit_counts_one_saturation_event_per_episode() {
        let origin = OriginServer::spawn("127.0.0.1:0").expect("origin");
        let node = CacheNode::spawn(NodeConfig::new("127.0.0.1:0", origin.addr())).expect("node");
        let inner = &node.inner;
        let (tx, _rx) = channel::unbounded();
        let jobs = JobQueue {
            tx,
            depth: Arc::new(AtomicUsize::new(0)),
            saturated: Arc::new(AtomicBool::new(false)),
            high_water: 4,
        };
        let events = || inner.metrics.queue_saturation_events.get();
        let at = |depth: usize| {
            jobs.depth.store(depth, Ordering::Relaxed);
            jobs.admit(inner)
        };

        assert_eq!(at(3), Ok(()), "below the mark");
        assert_eq!(events(), 0);
        assert_eq!(at(4), Err(4), "at the mark");
        assert_eq!(at(9), Err(9));
        assert_eq!(events(), 1, "every reject of one episode counts once");
        assert_eq!(at(3), Ok(()), "admitted again below the mark");
        assert_eq!(at(4), Err(4));
        assert_eq!(events(), 1, "never drained to half: still the same episode");
        assert_eq!(at(2), Ok(()), "half the mark ends the episode");
        assert_eq!(at(4), Err(4));
        assert_eq!(events(), 2, "a new rising edge is a new episode");
    }
}
