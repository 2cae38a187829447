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
//!   shard (pure in-memory work); a miss hands the *connection* to the
//!   **worker pool**, and the worker services the whole run of `Get`s the
//!   client has pipelined on it as one batch, as the I/O shell of its
//!   [`Service`] — one outbound exchange at a time. An idle worker blocks
//!   in the job channel's `recv()`; at shutdown [`Stopper::stop`] sends
//!   each one a [`Work::Stop`] sentinel, so nothing polls for the flag.
//!
//! Replies are encoded straight into the connection's one out-queue
//! ([`OutQueue`]: small frames flat, bodies of a page or more by
//! reference) and leave through one function, [`write_out`]: once per
//! readiness event on a shard (a peer answering eight pipelined `PeerGet`s
//! issues one `write` or `writev`), and on a worker once per exchange of a
//! run, always before it blocks on the network — a finished reply never
//! waits behind someone else's fetch.
//!
//! Per-connection ordering: a connection a worker holds (`busy`) parks
//! every further frame in its backlog; whoever clears `busy` replays the
//! backlog under the connection lock, so replies always match request
//! order even though local frames are cheap and `Get`s are not. After a
//! capped run ([`RUN_CAP`]) a worker sends a connection that still has
//! `Get`s parked to the back of the job channel, so one deep pipeline
//! cannot starve the others.
//!
//! What a client can make the node hold is bounded: a connection stops
//! being polled for reads while its backlog holds [`BACKLOG_CAP`] frames
//! or its out-queue [`OUT_CAP`](super::outq::OUT_CAP) unsent bytes (so a client that pipelines
//! and never reads ends up blocked in its own `write`), and parked `Get`s
//! count toward the admission mark that turns new ones away.
//!
//! Lock order: a connection's state lock may be taken before the node's
//! store lock (frame handling under the connection lock), never the other
//! way around — nothing touches connection state while holding the store.

use super::outq::OutQueue;
use super::service::{self, ParkedGet, Service};
use super::{local_response, trace_event, Inner, Running};
use crate::wire::{FrameAssembler, Message};
use bh_netpoll::{waker_pair, write_vectored, Event, Interest, Poller, WakeReceiver, Waker};
use bh_obs::span;
use parking_lot::{Mutex, MutexGuard};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
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

/// Most `Get`s a worker takes off one connection before the connection
/// goes to the back of the job channel.
const RUN_CAP: usize = 32;

/// Parked frames past which a connection is no longer read.
const BACKLOG_CAP: usize = 1024;

/// Socket-read buffer of a shard; one read past the caps is the slack.
const READ_BUF: usize = 16 * 1024;

/// Work injected into a shard from outside its epoll loop.
enum Injected {
    /// A freshly accepted connection to adopt.
    Conn(TcpStream),
    /// A worker left connection `token` with unsent bytes, or drained it
    /// while its reads were paused: flush, and re-arm its interest.
    WantWrite { token: u64 },
}

/// What travels the worker pool's job channel.
enum Work {
    /// A connection to service.
    Run(WorkerJob),
    /// The node is stopping: the worker that takes this returns.
    Stop,
}

/// A connection with a run of `Get`s parked at the front of its backlog,
/// checked out to the worker pool.
#[derive(Clone)]
struct WorkerJob {
    shard: usize,
    token: u64,
    conn: Arc<SharedConn>,
}

/// Admission-controlled handle to the worker-pool job channel.
///
/// Depth is the number of `Get`s parked on connections for the worker
/// pool, tracked with a shared counter: parking one increments, a worker
/// taking its run (or an inline answer) decrements. Past the high-water
/// mark new `Get`s are turned away with a redirect-to-origin reply
/// instead of queueing unboundedly behind a slow origin — the client is
/// closer to the origin than to a saturated cache (the paper's "the cache
/// must stay cheaper than going direct" argument, applied as
/// backpressure).
#[derive(Clone)]
struct JobQueue {
    tx: Sender<Work>,
    depth: Arc<AtomicUsize>,
    saturated: Arc<AtomicBool>,
    high_water: usize,
}

impl JobQueue {
    /// Admission check: `Ok` when a `Get` may be parked, `Err(depth)`
    /// when it must be rejected. Counts one `queue_saturation_events`
    /// per episode (the rising edge of the mark, not every reject); the
    /// episode ends once the queue drains back to half the mark.
    fn admit_get(&self, inner: &Inner) -> Result<(), usize> {
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

    /// A `Get` was parked for the worker pool.
    fn parked(&self) {
        self.depth.fetch_add(1, Ordering::Relaxed);
    }

    /// `n` parked `Get`s left their backlog: taken by a worker, answered
    /// inline, or dropped with their connection.
    fn unparked(&self, n: usize) {
        self.depth.fetch_sub(n, Ordering::Relaxed);
    }
}

/// Everything `CacheNode::spawn` needs to own the running engine.
pub(super) struct Engine {
    pub(super) threads: Vec<std::thread::JoinHandle<()>>,
    pub(super) stopper: Stopper,
}

/// What `CacheNode::stop` ends the engine's threads with (the accept
/// thread, blocked in `accept()`, is woken by a connection instead).
pub(super) struct Stopper {
    /// One per shard: breaks it out of `epoll_wait`.
    wakers: Vec<Waker>,
    job_tx: Sender<Work>,
    workers: usize,
}

impl Stopper {
    /// Wakes every shard and sends every worker its stop sentinel. A
    /// worker busy with a run finishes it first (the poisoned pool fails
    /// its outbound I/O fast) and then sees the shutdown flag.
    pub(super) fn stop(&self) {
        for _ in 0..self.workers {
            let _ = self.job_tx.send(Work::Stop);
        }
        for waker in &self.wakers {
            waker.wake();
        }
    }
}

impl std::fmt::Debug for Stopper {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Stopper")
            .field("workers", &self.workers)
            .finish_non_exhaustive()
    }
}

/// Spawns the accept thread, shard threads, and worker pool.
pub(super) fn spawn(listener: TcpListener, inner: &Arc<Inner>) -> io::Result<Engine> {
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

    let (job_tx, job_rx) = channel::unbounded::<Work>();
    let jobs = JobQueue {
        tx: job_tx.clone(),
        depth: Arc::new(AtomicUsize::new(0)),
        saturated: Arc::new(AtomicBool::new(false)),
        // Enough parked Gets to keep every worker busy through a burst,
        // small enough that a stalled origin turns into redirects instead
        // of unbounded memory.
        high_water: (workers * 64).max(256),
    };
    let mut threads = Vec::with_capacity(workers + shards + 1);

    for w in 0..workers {
        let job_rx = job_rx.clone();
        let jobs = jobs.clone();
        let handles = clone_handles(&handles)?;
        let running = Running::enter(inner);
        threads.push(
            std::thread::Builder::new()
                .name(format!("cache-worker-{addr}-{w}"))
                .spawn(move || worker_loop(job_rx, jobs, handles, &running.0))?,
        );
    }

    for (i, (poller, wake_rx, rx)) in loops.into_iter().enumerate() {
        let running = Running::enter(inner);
        let jobs = jobs.clone();
        threads.push(
            std::thread::Builder::new()
                .name(format!("cache-shard-{addr}-{i}"))
                .spawn(move || {
                    Shard::new(i, poller, wake_rx, rx, jobs, Arc::clone(&running.0)).run();
                })?,
        );
    }
    drop(jobs);

    let wakers = handles
        .iter()
        .map(|(_, w)| w.try_clone())
        .collect::<io::Result<Vec<_>>>()?;
    let running = Running::enter(inner);
    threads.push(
        std::thread::Builder::new()
            .name(format!("cache-accept-{addr}"))
            .spawn(move || accept_loop(listener, handles, &running.0))?,
    );

    Ok(Engine {
        threads,
        stopper: Stopper {
            wakers,
            job_tx,
            workers,
        },
    })
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
fn accept_loop(listener: TcpListener, handles: Vec<(Sender<Injected>, Waker)>, inner: &Inner) {
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

/// [`pump`] from a worker: a socket that dies under a reply is accounted
/// instead of wedging or panicking the worker.
fn pump_from_worker<'a>(
    job: &'a WorkerJob,
    jobs: &JobQueue,
    inner: &Inner,
    prepare: impl FnOnce(&mut ConnState),
) -> MutexGuard<'a, ConnState> {
    let (state, died) = pump(&job.conn, inner, jobs, job.shard, job.token, prepare);
    if died {
        inner.metrics.service_errors.inc();
    }
    state
}

/// Services connections with `Get`s parked: takes the run at the front
/// of the backlog (at most [`RUN_CAP`]) and steps its [`Service`] — the
/// Get path's only outbound I/O: each exchange it asks for on the pooled
/// transport, every result handed back — and then either re-queues the
/// connection behind the others (more `Get`s parked) or clears `busy` and
/// lets the backlog replay, poking the owning shard only if unsent bytes
/// remain or its reads are paused.
fn worker_loop(
    job_rx: Receiver<Work>,
    jobs: JobQueue,
    handles: Vec<(Sender<Injected>, Waker)>,
    inner: &Inner,
) {
    let mut run: Vec<ParkedGet> = Vec::with_capacity(RUN_CAP);
    let mut replies: Vec<Message> = Vec::with_capacity(RUN_CAP);
    // Workers hold a `JobQueue` clone (backlog replays enqueue follow-up
    // jobs), so the channel never disconnects on its own: a worker
    // leaves on its stop sentinel, or on the flag if jobs were queued
    // ahead of it.
    while let Ok(Work::Run(job)) = job_rx.recv() {
        if inner.shutdown.load(Ordering::SeqCst) {
            break;
        }
        {
            let mut state = job.conn.state.lock();
            while !state.closed && run.len() < RUN_CAP {
                match state.backlog.pop_front() {
                    Some(Parked::Get(get)) => run.push(get),
                    Some(other) => {
                        state.backlog.push_front(other);
                        break;
                    }
                    None => break,
                }
            }
        }
        jobs.unparked(run.len());
        // A step's finished replies join the out-queue under one lock; they
        // are written before an exchange (`write`) or once the queue is full.
        let deliver = |replies: &mut Vec<Message>, write: bool| {
            let mut state = job.conn.state.lock();
            if !state.closed {
                replies.iter().for_each(|reply| state.out.push(reply));
            }
            replies.clear();
            if write || state.out.is_full() {
                drop(state);
                drop(pump_from_worker(&job, &jobs, inner, |_| {}));
            }
        };
        let mut service = Service::new(inner, &run);
        while let Some(exchange) = service.next(inner.now_micros(), &mut replies) {
            deliver(&mut replies, true);
            let mut on_reply = |result| {
                service.reply(inner.now_micros(), result, &mut replies);
                deliver(&mut replies, false);
            };
            let (addr, options, frames) = (exchange.addr, exchange.options, &exchange.frames);
            inner.pool.request_run(addr, options, frames, &mut on_reply);
        }
        deliver(&mut replies, false);
        run.clear();
        let poke = {
            let mut state = pump_from_worker(&job, &jobs, inner, |state| {
                let more = matches!(state.backlog.front(), Some(Parked::Get(_)));
                if more && !state.closed && !state.out.is_full() {
                    if jobs.tx.send(Work::Run(job.clone())).is_err() {
                        // Engine tearing down; the connection dies with it.
                        state.closed = true;
                        inner.metrics.service_errors.inc();
                    }
                } else {
                    state.busy = false;
                }
            });
            state.release_if_closed(&jobs);
            !state.closed && (state.wants_write() || state.read_paused)
        };
        if poke {
            let (tx, waker) = &handles[job.shard];
            if tx.send(Injected::WantWrite { token: job.token }).is_ok() && !waker.wake() {
                inner.metrics.wakeups_coalesced.inc();
            }
        }
    }
}

/// Dispatches parked frames until the backlog drains, the out-queue
/// fills, or a `Get` misses: the miss stays at the front of the backlog
/// and the connection goes to the worker pool; everything else (including
/// locally-hit `Get`s) is answered inline. Runs under the connection
/// lock, on the shard delivering a frame or inside [`pump`]. Replies are
/// only encoded here; [`pump`] writes them.
fn replay_backlog(
    conn: &Arc<SharedConn>,
    state: &mut ConnState,
    inner: &Inner,
    jobs: &JobQueue,
    shard: usize,
    token: u64,
) {
    while !state.busy && !state.closed && !state.out.is_full() {
        let Some(parked) = state.backlog.pop_front() else {
            break;
        };
        match parked {
            Parked::Get(get) => {
                if let Some(reply) = service::answer_locally(inner, get.key) {
                    state.out.push(&reply);
                    jobs.unparked(1);
                    continue;
                }
                state.backlog.push_front(Parked::Get(get));
                state.busy = true;
                let job = WorkerJob {
                    shard,
                    token,
                    conn: Arc::clone(conn),
                };
                if jobs.tx.send(Work::Run(job)).is_err() {
                    // Engine tearing down; the connection dies with it.
                    state.closed = true;
                    inner.metrics.service_errors.inc();
                }
            }
            Parked::Reply(reply) => state.out.push(&reply),
            Parked::Frame(msg) => state.out.push(&local_response(inner, msg)),
        }
    }
}

/// A frame waiting its turn on a connection.
enum Parked {
    /// A client `Get` that passed admission; counted in [`JobQueue`]'s
    /// depth for as long as it sits in a backlog.
    Get(ParkedGet),
    /// The redirect owed to a client `Get` that admission control turned
    /// away on arrival; it waits only for its place in the reply order.
    Reply(Message),
    /// Anything else: answered from local state.
    Frame(Message),
}

/// Write-side state of a connection, shared between the owning shard and
/// the worker holding it.
struct ConnState {
    /// Encoded replies not yet accepted by the socket, oldest first: a
    /// batch of replies leaves in one `write` or `writev`.
    out: OutQueue,
    /// A worker holds the connection for the run of `Get`s at the front
    /// of `backlog`; further frames wait behind it so replies keep
    /// request order.
    busy: bool,
    backlog: VecDeque<Parked>,
    /// The shard has stopped polling the connection for reads (caps hit,
    /// or the client finished sending); a worker that drains it pokes the
    /// shard to look again.
    read_paused: bool,
    /// Set once the shard abandons the connection (or the engine is
    /// tearing down); writers stop touching the socket.
    closed: bool,
}

impl ConnState {
    fn wants_write(&self) -> bool {
        !self.out.is_empty()
    }

    /// Whether the connection holds as much as a client may make it
    /// hold: a full backlog, a full out-queue, or — with no worker on it
    /// — frames it could not answer for lack of room.
    fn over_caps(&self) -> bool {
        self.backlog.len() >= BACKLOG_CAP
            || self.out.is_full()
            || (!self.busy && !self.backlog.is_empty())
    }

    /// Drops what a closed connection nobody holds still has parked.
    fn release_if_closed(&mut self, jobs: &JobQueue) {
        if self.closed && !self.busy {
            let gets = self
                .backlog
                .iter()
                .filter(|p| matches!(p, Parked::Get(_)))
                .count();
            jobs.unparked(gets);
            self.backlog.clear();
        }
    }
}

/// A connection as seen by both the shard (reads, epoll) and the workers
/// (reply writes). The stream itself is never cloned: both sides write
/// through `&TcpStream`, serialized by the state lock.
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
    /// The client finished sending (EOF on read); the connection lives on
    /// until everything it asked for has been answered and written.
    eof: bool,
    /// The last read pass stopped at the caps: frames may wait, unparsed,
    /// in the assembler, with no readiness event to announce them.
    stalled: bool,
}

/// What [`Shard::flush_and_rearm`] does once the connection is pumped.
enum Next {
    /// Nothing is owed any more, or the socket died.
    Close,
    /// There is room again for the frames a stalled read pass left.
    Resume,
    /// Wait for the poller with this interest.
    Arm(Interest),
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
                    out: OutQueue::new(),
                    busy: false,
                    backlog: VecDeque::new(),
                    read_paused: false,
                    closed: false,
                }),
            });
            self.conns.insert(
                token,
                ShardConn {
                    shared,
                    assembler: FrameAssembler::new(),
                    interest: Interest::READABLE,
                    eof: false,
                    stalled: false,
                },
            );
        }
    }

    /// Handles readiness for one connection: read and dispatch what
    /// arrived, then one write for everything that produced.
    fn service(&mut self, event: Event) {
        let token = event.token;
        // Chaos hook: injected inbound service delay, applied before the
        // shard touches the socket. One relaxed load when disarmed.
        if let Some(delay) = self.inner.pool.fault_switch().rx_latency() {
            std::thread::sleep(delay);
        }
        if event.needs_read() {
            // Reads are off after EOF: only a hang-up or a socket error
            // still reports then, and nobody is left to answer.
            let finished = self.conns.get(&token).is_some_and(|c| c.eof);
            if finished || !self.read_ready(token) {
                self.close(token);
                return;
            }
        }
        self.flush_and_rearm(token);
    }

    /// Dispatches the frames already assembled, then pulls more bytes,
    /// until the socket runs dry, the client has finished sending, or the
    /// connection holds all it may — what is left then waits, unparsed, in
    /// the assembler and the socket (`stalled`). Returns false when the
    /// connection is beyond saving (socket error or unframeable input).
    /// The connection is looked up once for the whole pass.
    fn read_ready(&mut self, token: u64) -> bool {
        let Some(conn) = self.conns.get_mut(&token) else {
            return false;
        };
        let mut buf = [0u8; READ_BUF];
        // A short read drained the socket: epoll is level-triggered, so
        // whatever arrives next raises a new event, and no extra `read` is
        // spent collecting `WouldBlock`.
        let mut drained = false;
        conn.stalled = false;
        loop {
            loop {
                let msg = match conn.assembler.next_message() {
                    Ok(Some(msg)) => msg,
                    Ok(None) => break,
                    Err(_) => return false,
                };
                let Some(over_caps) =
                    deliver(&self.inner, &self.jobs, self.id, token, &conn.shared, msg)
                else {
                    return false;
                };
                if over_caps {
                    conn.stalled = true;
                    return true;
                }
            }
            if drained || conn.eof {
                return true;
            }
            let n = match (&conn.shared.stream).read(&mut buf) {
                Ok(0) => {
                    conn.eof = true;
                    return true;
                }
                Ok(n) => n,
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            };
            conn.assembler.extend(&buf[..n]);
            drained = n < buf.len();
        }
    }

    /// Pumps the connection and keeps the poller's interest set in sync:
    /// readable unless the connection is over its caps or finished
    /// sending, writable while bytes are unsent. Takes up the frames a
    /// stalled read pass left behind once there is room again, and closes
    /// a finished connection once nothing is owed on it.
    fn flush_and_rearm(&mut self, token: u64) {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            let next = {
                let (mut state, _) = pump(
                    &conn.shared,
                    &self.inner,
                    &self.jobs,
                    self.id,
                    token,
                    |_| {},
                );
                let over = state.over_caps();
                let idle = !state.busy && state.backlog.is_empty() && !state.wants_write();
                if state.closed || (conn.eof && idle && !conn.stalled) {
                    Next::Close
                } else if conn.stalled && !over {
                    Next::Resume
                } else {
                    if over && !state.read_paused {
                        self.inner.metrics.read_pauses.inc();
                    }
                    state.read_paused = over || conn.eof;
                    Next::Arm(Interest {
                        readable: !state.read_paused,
                        writable: state.wants_write(),
                    })
                }
            };
            match next {
                Next::Close => return self.close(token),
                Next::Resume => {
                    if !self.read_ready(token) {
                        return self.close(token);
                    }
                }
                Next::Arm(want) => {
                    if conn.interest != want {
                        if self
                            .poller
                            .modify(&conn.shared.stream, token, want)
                            .is_err()
                        {
                            return self.close(token);
                        }
                        conn.interest = want;
                    }
                    return;
                }
            }
        }
    }

    fn close(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            let mut state = conn.shared.state.lock();
            state.closed = true;
            state.release_if_closed(&self.jobs);
            let _ = self.poller.deregister(&conn.shared.stream);
        }
    }
}

/// Routes one frame from shard `shard`'s connection `token` under the
/// connection lock, through the backlog so there is one dispatch ladder
/// ([`replay_backlog`]): the frame stays parked behind a held connection
/// and is dispatched at once otherwise. A `Get` parked behind a worker
/// passes admission here, once. Returns whether the connection is now over
/// its caps, `None` when it should be torn down.
fn deliver(
    inner: &Inner,
    jobs: &JobQueue,
    shard: usize,
    token: u64,
    shared: &Arc<SharedConn>,
    msg: Message,
) -> Option<bool> {
    let mut state = shared.state.lock();
    if state.closed {
        return None;
    }
    let parked = match msg {
        Message::Get { url } => {
            let get = ParkedGet::new(url);
            if !state.busy && state.backlog.is_empty() {
                if let Some(reply) = service::answer_locally(inner, get.key) {
                    state.out.push(&reply);
                    return Some(state.over_caps());
                }
            }
            match jobs.admit_get(inner) {
                Ok(()) => {
                    jobs.parked();
                    Parked::Get(get)
                }
                Err(depth) => Parked::Reply(service::redirect(inner, get.key, depth)),
            }
        }
        other => Parked::Frame(other),
    };
    state.backlog.push_back(parked);
    replay_backlog(shared, &mut state, inner, jobs, shard, token);
    (!state.closed).then(|| state.over_caps())
}

/// The one place a connection's bytes leave. Takes the connection lock,
/// lets `prepare` adjust the state, then alternates dispatching the
/// backlog (a no-op while a worker holds the connection or the out-queue
/// is full) with writing the out-queue, until the socket is full, the
/// backlog is empty, or the connection went to a worker. Returns the
/// guard, so the caller decides what happens next under the same lock,
/// and whether a write just killed the connection.
fn pump<'a>(
    conn: &'a Arc<SharedConn>,
    inner: &Inner,
    jobs: &JobQueue,
    shard: usize,
    token: u64,
    prepare: impl FnOnce(&mut ConnState),
) -> (MutexGuard<'a, ConnState>, bool) {
    // bh-lint: allow(lock-order, reason = "the per-connection state lock IS the write serializer; the socket is nonblocking, so a write under it only fills the kernel buffer and stops at WouldBlock")
    let mut state = conn.state.lock();
    prepare(&mut state);
    let was_closed = state.closed;
    loop {
        replay_backlog(conn, &mut state, inner, jobs, shard, token);
        write_out(&conn.stream, &mut state, inner);
        // Unsent bytes mean the socket is full and EPOLLOUT will bring the
        // shard back; otherwise go round for what the cap held back.
        if state.closed || state.busy || state.backlog.is_empty() || state.wants_write() {
            break;
        }
    }
    let died = state.closed && !was_closed;
    (state, died)
}

/// Writes as much of the out-queue as the socket accepts right now and
/// keeps the rest: one flat run with `write`, anything holding a
/// referenced body with `writev`. A dead socket marks the connection
/// closed.
fn write_out(stream: &TcpStream, state: &mut ConnState, inner: &Inner) {
    let mut vectored = false;
    while !state.closed && state.wants_write() {
        let wrote = state.out.write_with(|segments| match segments {
            [one] => (&*stream).write(one),
            many => {
                vectored = true;
                write_vectored(stream, many)
            }
        });
        match wrote {
            Ok(0) => state.closed = true,
            Ok(_) => {}
            Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => state.closed = true,
        }
    }
    if vectored {
        inner.metrics.writev_batches.inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeConfig;
    use crate::wire::MachineId;
    use std::net::SocketAddr;

    /// `queue_saturation_events` counts episodes, not rejects: one per
    /// rising edge of the mark, re-armed only once the queue has drained
    /// back to half of it.
    #[test]
    fn admit_counts_one_saturation_event_per_episode() {
        let addr = SocketAddr::from(([10, 0, 0, 1], 7000));
        let machine = MachineId::from_addr(addr).expect("ipv4");
        let inner = &Inner::new(NodeConfig::new("127.0.0.1:0", addr), machine);
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
            jobs.admit_get(inner)
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
