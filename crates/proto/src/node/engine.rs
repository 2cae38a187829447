//! The sharded connection engine: a fixed set of epoll shard threads owns
//! every accepted socket and serves everything that arrives on it,
//! `Get`s included, on one kind of thread.
//!
//! Division of labor:
//!
//! * every **shard thread** polls a clone of the non-blocking listening
//!   socket, and whichever shard wakes first adopts a new connection;
//! * each shard runs a level-triggered epoll loop over its
//!   connections, assembling frames incrementally. It answers every
//!   local-state frame (`PeerGet`, `HintBatch`, `Push`, `FindNearest`,
//!   `MetaRequest`) and every `Get` that hits the local data cache inline.
//!   A miss starts a **run**: the [`Service`] of the `Get`s the client has
//!   pipelined at the front of the connection's backlog, kept on the
//!   connection. Each exchange the service asks for — a hinted peer's
//!   probes, an origin fetch — is an [`Outbound`] on a non-blocking socket
//!   registered with the shard's own poller: the shard writes the frames,
//!   goes back to `epoll_wait`, and hands each reply to the service as it
//!   is assembled. A shard never waits on a peer, so two nodes probing each
//!   other cannot deadlock, and a slow origin delays only the connections
//!   whose runs wait on it. The I/O timeout, a retry's backoff and
//!   injected send latency are deadlines that bound the shard's wait, and
//!   a fresh connect is one more readiness step;
//! * **shard 0** also runs the control plane ([`Rounds`]): the flush and
//!   heartbeat deadlines bound its wait too, and a hint flush, a resync or
//!   a heartbeat is a round of the same [`Outbound`]s, one target at a time.
//!
//! Replies are encoded straight into the connection's one out-queue
//! ([`OutQueue`]: small frames flat, bodies of a page or more by
//! reference) and leave through one function, [`outq::write_out`]: once per
//! readiness event (a peer answering eight pipelined `PeerGet`s issues one
//! `write` or `writev`), and within a run before each new exchange goes
//! out — a finished reply never waits behind a fetch.
//!
//! Per-connection ordering: while a run is in service every further frame
//! on its connection parks in the backlog; when the run ends the backlog
//! replays, so replies always match request order even though local
//! frames are cheap and `Get`s are not. A run takes at most [`RUN_CAP`]
//! `Get`s, so its exchanges stay small enough for the socket buffers.
//!
//! What a client can make the node hold is bounded: a connection stops
//! being polled for reads while its backlog holds [`BACKLOG_CAP`] frames
//! or its out-queue [`OUT_CAP`](super::outq::OUT_CAP) unsent bytes (so a client that pipelines
//! and never reads ends up blocked in its own `write`), and parked `Get`s
//! count toward the admission mark ([`PARKED_MARK`]) that turns new ones
//! away.

use super::outq::{self, OutQueue};
use super::propagation;
use super::service::{self, ParkedGet, Service};
use super::{local_response, membership, trace_event, Ask, Inner, Request, Waiters};
use crate::pool::{Driver, Outbound, RequestOptions};
use crate::wire::{FrameAssembler, Message};
use bh_netpoll::{waker_pair, Event, Interest, Poller, WakeReceiver, Waker};
use bh_obs::span;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// Tokens of each shard's wake-up descriptor and its clone of the
/// listening socket, of shard 0's control exchanges ([`Rounds`]), and a
/// connection's first.
const WAKER_TOKEN: u64 = 0;
const LISTENER_TOKEN: u64 = 1;
const CONTROL_TOKEN: u64 = 2;
const FIRST_CONN: u64 = 3;

/// Set in the token of a connection's outbound socket: the rest of the
/// token is the connection's own.
const OUTBOUND: u64 = 1 << 63;

/// How long a shard sleeps in `epoll_wait` with no run in service.
/// Wake-ups normally arrive via the waker; the timeout is a shutdown
/// backstop.
const IDLE_WAIT: Duration = Duration::from_millis(500);

/// Most `Get`s one run takes off a connection.
const RUN_CAP: usize = 32;

/// Parked frames past which a connection is no longer read.
const BACKLOG_CAP: usize = 1024;

/// Parked `Get`s across the node past which new ones are turned away.
/// Enough to keep a burst of runs going, small enough that a stalled
/// origin turns into redirects instead of unbounded memory.
const PARKED_MARK: usize = 512;

/// Socket-read buffer of a shard; one read past the caps is the slack.
const READ_BUF: usize = 16 * 1024;

/// Admission control over the `Get`s parked in the node's backlogs.
///
/// Depth is the number of `Get`s parked on connections, shared by the
/// node's shards: parking one increments, a run taking it (or an inline
/// answer) decrements. Past [`PARKED_MARK`] new `Get`s are turned away
/// with a redirect-to-origin reply instead of queueing unboundedly behind
/// a slow origin — the client is closer to the origin than to a saturated
/// cache (the paper's "the cache must stay cheaper than going direct"
/// argument, applied as backpressure).
#[derive(Default)]
struct Admission {
    depth: AtomicUsize,
    saturated: AtomicBool,
}

impl Admission {
    /// Admission check: `Ok` when a `Get` may be parked, `Err(depth)`
    /// when it must be rejected. Counts one `queue_saturation_events`
    /// per episode (the rising edge of the mark, not every reject); the
    /// episode ends once the depth drains back to half the mark.
    fn admit_get(&self, inner: &Inner) -> Result<(), usize> {
        let depth = self.depth.load(Ordering::Relaxed);
        if depth >= PARKED_MARK {
            if !self.saturated.swap(true, Ordering::Relaxed) {
                inner.metrics.queue_saturation_events.inc();
                trace_event(
                    inner,
                    span::QUEUE_SATURATION,
                    depth as u64,
                    PARKED_MARK as u64,
                );
            }
            Err(depth)
        } else {
            if self.saturated.load(Ordering::Relaxed) && depth <= PARKED_MARK / 2 {
                self.saturated.store(false, Ordering::Relaxed);
            }
            Ok(())
        }
    }

    /// A `Get` was parked.
    fn parked(&self) {
        self.depth.fetch_add(1, Ordering::Relaxed);
    }

    /// `n` parked `Get`s left their backlog: taken by a run, answered
    /// inline, or dropped with their connection.
    fn unparked(&self, n: usize) {
        self.depth.fetch_sub(n, Ordering::Relaxed);
    }
}

/// Spawns the shard threads, and the `cache-persist` thread when the hint
/// log is durable; returns them with one waker per shard. Each thread
/// holds a clone of `running` until it returns.
pub(super) fn spawn(
    listener: TcpListener,
    inner: &Arc<Inner>,
    running: &mpsc::Sender<()>,
) -> io::Result<(Vec<std::thread::JoinHandle<()>>, Vec<Waker>)> {
    let shards = inner.config.shards.max(1);
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let admission = Arc::new(Admission::default());
    let (mut threads, mut wakers) = (Vec::with_capacity(shards + 1), Vec::with_capacity(shards));
    let mut persist = None;
    if inner.hints.is_durable() {
        let (jobs, queue) = mpsc::channel::<Waiters>();
        let (inner, running) = (Arc::clone(inner), running.clone());
        let thread = std::thread::Builder::new().name(format!("cache-persist-{addr}"));
        threads.push(thread.spawn(move || {
            let _running = running;
            // A flush's waiters go once what was staged before it is fsynced.
            for _waiters in queue {
                inner.hints.persist();
            }
        })?);
        persist = Some(jobs);
    }
    for i in 0..shards {
        let poller = Poller::new()?;
        let (waker, wake_rx) = waker_pair()?;
        poller.register(&wake_rx, WAKER_TOKEN, Interest::READABLE)?;
        let listener = listener.try_clone()?;
        poller.register(&listener, LISTENER_TOKEN, Interest::READABLE)?;
        let mut rounds = None;
        if i == 0 {
            let (requests, inbox) = mpsc::channel();
            let _ = inner.control.set((requests, waker.try_clone()?));
            let (mut seed, now) = (inner.machine.0 | 1, inner.now_micros());
            rounds = Some(Rounds {
                requests: inbox,
                asked: Default::default(),
                flush_at: now + propagation::next_flush(&mut seed, inner.config.flush_max),
                heartbeat_at: now + heartbeat_period(inner),
                seed,
                round: None,
                persist: persist.take(),
            });
        }
        wakers.push(waker);
        let (inner, admission, running) =
            (Arc::clone(inner), Arc::clone(&admission), running.clone());
        let thread = std::thread::Builder::new().name(format!("cache-shard-{addr}-{i}"));
        threads.push(thread.spawn(move || {
            let _running = running;
            Shard::new(poller, wake_rx, listener, rounds, admission, inner).run();
        })?);
    }
    Ok((threads, wakers))
}

/// A frame waiting its turn on a connection.
enum Parked {
    /// A client `Get` that passed admission; counted in [`Admission`]'s
    /// depth for as long as it sits in a backlog.
    Get(ParkedGet),
    /// The redirect owed to a client `Get` that admission control turned
    /// away on arrival; it waits only for its place in the reply order.
    Reply(Message),
    /// Anything else: answered from local state.
    Frame(Message),
}

/// The run of `Get`s a connection is being served, between poll
/// iterations.
struct Run {
    service: Service,
    /// The exchange in flight; `None` only inside [`step_run`].
    outbound: Option<Outbound>,
    /// When the shard must step the exchange even if its socket stays
    /// quiet (micros on the node's clock).
    deadline: u64,
}

/// One client connection, owned by its shard.
struct Conn {
    stream: TcpStream,
    /// Frame reassembly of what the client sends.
    assembler: FrameAssembler,
    /// Encoded replies not yet accepted by the socket, oldest first: a
    /// batch of replies leaves in one `write` or `writev`.
    out: OutQueue,
    /// Frames waiting their turn behind the run in service.
    backlog: VecDeque<Parked>,
    /// The run in service; further frames wait in `backlog` so replies
    /// keep request order.
    run: Option<Run>,
    /// Interest currently registered with the poller (avoids redundant
    /// `epoll_ctl` calls).
    interest: Interest,
    /// The client finished sending (EOF on read); the connection lives on
    /// until everything it asked for has been answered and written.
    eof: bool,
    /// The last read pass stopped at the caps: frames may wait, unparsed,
    /// in the assembler, with no readiness event to announce them.
    stalled: bool,
    /// The shard has stopped polling the connection for reads (caps hit,
    /// or the client finished sending).
    read_paused: bool,
    /// The connection is abandoned (socket error, or nothing left owed);
    /// it lingers only until its run ends.
    closed: bool,
}

impl Conn {
    fn wants_write(&self) -> bool {
        !self.out.is_empty()
    }

    /// Whether the connection holds as much as a client may make it
    /// hold: a full backlog, a full out-queue, or — with no run in
    /// service — frames it could not answer for lack of room.
    fn over_caps(&self) -> bool {
        self.backlog.len() >= BACKLOG_CAP
            || self.out.is_full()
            || (self.run.is_none() && !self.backlog.is_empty())
    }
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

/// What a shard's connections share: the poller their sockets and their
/// runs' outbound sockets are registered with, the node's state and
/// admission count, and which connections have a run in service — each
/// run's deadline bounds the shard's wait.
struct Ctx {
    poller: Poller,
    inner: Arc<Inner>,
    admission: Arc<Admission>,
    /// Connections with a run in service.
    running: Vec<u64>,
    /// Scratch for the replies one step of a service finishes.
    replies: Vec<Message>,
}

struct Shard {
    ctx: Ctx,
    wake_rx: WakeReceiver,
    /// This shard's clone of the listening socket (non-blocking).
    listener: TcpListener,
    /// The control plane, on shard 0 only.
    rounds: Option<Rounds>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    /// Scratch for the connections whose deadline has passed.
    due: Vec<u64>,
}

impl Shard {
    fn new(
        poller: Poller,
        wake_rx: WakeReceiver,
        listener: TcpListener,
        rounds: Option<Rounds>,
        admission: Arc<Admission>,
        inner: Arc<Inner>,
    ) -> Self {
        Shard {
            ctx: Ctx {
                poller,
                inner,
                admission,
                running: Vec::with_capacity(16),
                replies: Vec::with_capacity(RUN_CAP),
            },
            wake_rx,
            listener,
            rounds,
            conns: HashMap::new(),
            next_token: FIRST_CONN,
            due: Vec::with_capacity(16),
        }
    }

    fn run(mut self) {
        let mut events: Vec<Event> = Vec::with_capacity(128);
        while !self.ctx.inner.shutdown.load(Ordering::SeqCst) {
            events.clear();
            if self
                .ctx
                .poller
                .wait(&mut events, Some(self.timeout()))
                .is_err()
            {
                break;
            }
            self.wake_rx.drain();
            let mut fired = false;
            for &event in &events {
                match event.token {
                    WAKER_TOKEN => {}
                    LISTENER_TOKEN => self.accept(),
                    CONTROL_TOKEN => fired = true,
                    token if token & OUTBOUND != 0 => self.resume(token & !OUTBOUND),
                    _ => self.service(event),
                }
            }
            self.expire();
            if let Some(rounds) = self.rounds.as_mut() {
                rounds.tick(&self.ctx, fired);
            }
        }
    }

    /// How long `epoll_wait` may block: until the earliest deadline of a
    /// run or (on shard 0) of the control plane, or the idle backstop. The
    /// clock is read only when there is a deadline.
    fn timeout(&self) -> Duration {
        let runs = self.ctx.running.iter().filter_map(|token| {
            let run = self.conns.get(token)?.run.as_ref()?;
            Some(run.deadline)
        });
        let control = self.rounds.as_ref().map(Rounds::deadline);
        let Some(first) = runs.chain(control).min() else {
            return IDLE_WAIT;
        };
        let wait = first.saturating_sub(self.ctx.inner.now_micros());
        Duration::from_micros(wait).min(IDLE_WAIT)
    }

    /// Steps every run whose deadline has passed.
    fn expire(&mut self) {
        if self.ctx.running.is_empty() {
            return;
        }
        let now = self.ctx.inner.now_micros();
        let conns = &self.conns;
        let due = self.ctx.running.iter().copied().filter(|token| {
            let run = conns.get(token).and_then(|c| c.run.as_ref());
            run.is_some_and(|run| run.deadline <= now)
        });
        self.due.extend(due);
        while let Some(token) = self.due.pop() {
            self.resume(token);
        }
    }

    /// Takes one connection off the listening socket, which every shard
    /// polls: whichever wakes first adopts it, and the others find the
    /// queue empty. One per wake-up, so a burst spreads over the shards.
    fn accept(&mut self) {
        if let Ok((stream, _)) = self.listener.accept() {
            self.adopt(stream);
        }
    }

    fn adopt(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
            return;
        }
        let token = self.next_token;
        self.next_token += 1;
        if self
            .ctx
            .poller
            .register(&stream, token, Interest::READABLE)
            .is_ok()
        {
            self.conns.insert(
                token,
                Conn {
                    stream,
                    assembler: FrameAssembler::new(),
                    out: OutQueue::new(),
                    backlog: VecDeque::new(),
                    run: None,
                    interest: Interest::READABLE,
                    eof: false,
                    stalled: false,
                    read_paused: false,
                    closed: false,
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
        if let Some(delay) = self.ctx.inner.pool.fault_switch().rx_latency() {
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

    /// Steps connection `token`'s run — its socket is ready, or its
    /// deadline passed — and writes what that finished.
    fn resume(&mut self, token: u64) {
        if let Some(conn) = self.conns.get_mut(&token) {
            step_run(&mut self.ctx, token, conn);
            self.flush_and_rearm(token);
        }
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
                let Some(over_caps) = deliver(&self.ctx, conn, msg) else {
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
            let n = match (&conn.stream).read(&mut buf) {
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
            pump(&mut self.ctx, token, conn);
            let over = conn.over_caps();
            let idle = conn.run.is_none() && conn.backlog.is_empty() && !conn.wants_write();
            let next = if conn.closed || (conn.eof && idle && !conn.stalled) {
                Next::Close
            } else if conn.stalled && !over {
                Next::Resume
            } else {
                if over && !conn.read_paused {
                    self.ctx.inner.metrics.read_pauses.inc();
                }
                conn.read_paused = over || conn.eof;
                Next::Arm(Interest {
                    readable: !conn.read_paused,
                    writable: conn.wants_write(),
                })
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
                        if self.ctx.poller.modify(&conn.stream, token, want).is_err() {
                            return self.close(token);
                        }
                        conn.interest = want;
                    }
                    return;
                }
            }
        }
    }

    /// Abandons a connection: its parked `Get`s are released at once, and
    /// it goes as soon as no run is in service on it — a run in flight is
    /// finished, its replies dropped, so its exchange settles with the
    /// pool.
    fn close(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if !conn.closed {
            conn.closed = true;
            let gets = conn
                .backlog
                .iter()
                .filter(|p| matches!(p, Parked::Get(_)))
                .count();
            self.ctx.admission.unparked(gets);
            conn.backlog.clear();
            let _ = self.ctx.poller.deregister(&conn.stream);
            if conn.run.is_some() {
                self.ctx.inner.metrics.service_errors.inc();
            }
        }
        if conn.run.is_none() {
            self.conns.remove(&token);
        }
    }
}

/// Takes one frame of a read pass. With nothing waiting ahead of it, a
/// local hit and any frame answered from local state are answered at
/// once; everything else parks in the backlog — a `Get` passing admission
/// here, once — for [`replay_backlog`] once the pass ends, so a run takes
/// every `Get` the pass delivered. Returns whether the read pass must stop
/// at the caps, `None` when the connection should be torn down.
fn deliver(ctx: &Ctx, conn: &mut Conn, msg: Message) -> Option<bool> {
    if conn.closed {
        return None;
    }
    let inner = &*ctx.inner;
    let first = conn.run.is_none() && conn.backlog.is_empty();
    let parked = match msg {
        Message::Get { url } => {
            let get = ParkedGet::new(url);
            if first {
                if let Some(reply) = service::answer_locally(inner, get.key) {
                    conn.out.push(&reply);
                    return Some(conn.over_caps());
                }
            }
            match ctx.admission.admit_get(inner) {
                Ok(()) => {
                    ctx.admission.parked();
                    Parked::Get(get)
                }
                Err(depth) => Parked::Reply(service::redirect(inner, get.key, depth)),
            }
        }
        other if first && !conn.out.is_full() => {
            conn.out.push(&local_response(inner, other));
            return Some(conn.over_caps());
        }
        other => Parked::Frame(other),
    };
    conn.backlog.push_back(parked);
    Some(conn.backlog.len() >= BACKLOG_CAP || conn.out.is_full())
}

/// Dispatches parked frames until the backlog drains, the out-queue
/// fills, or a run is left in service: a `Get` that misses starts one
/// over the run of `Get`s at the front of the backlog; everything else
/// (including locally-hit `Get`s) is answered inline. Replies are only
/// encoded here; [`pump`] writes them.
fn replay_backlog(ctx: &mut Ctx, token: u64, conn: &mut Conn) {
    while conn.run.is_none() && !conn.closed && !conn.out.is_full() {
        let Some(parked) = conn.backlog.pop_front() else {
            break;
        };
        match parked {
            Parked::Get(get) => {
                if let Some(reply) = service::answer_locally(&ctx.inner, get.key) {
                    conn.out.push(&reply);
                    ctx.admission.unparked(1);
                    continue;
                }
                let mut run = Vec::with_capacity(RUN_CAP);
                run.push(get);
                while run.len() < RUN_CAP {
                    match conn.backlog.pop_front() {
                        Some(Parked::Get(get)) => run.push(get),
                        Some(other) => {
                            conn.backlog.push_front(other);
                            break;
                        }
                        None => break,
                    }
                }
                ctx.admission.unparked(run.len());
                conn.run = Some(Run {
                    service: Service::new(run),
                    outbound: None,
                    deadline: 0,
                });
                ctx.running.push(token);
                step_run(ctx, token, conn);
            }
            Parked::Reply(reply) => conn.out.push(&reply),
            Parked::Frame(msg) => conn.out.push(&local_response(&ctx.inner, msg)),
        }
    }
}

/// Steps connection `token`'s run as far as it goes without waiting: its
/// exchange in flight takes what its socket has, each reply that finishes
/// joins the out-queue, and when an exchange ends the service is asked for
/// the next — the replies finished so far are written first. When the
/// service has no more, the run ends and the connection is free.
fn step_run(ctx: &mut Ctx, token: u64, conn: &mut Conn) {
    let Some(run) = conn.run.as_mut() else {
        return;
    };
    let inner = &*ctx.inner;
    let driver = Driver(&ctx.poller, token | OUTBOUND);
    let now = inner.now_micros();
    let replies = &mut ctx.replies;
    loop {
        if let Some(outbound) = run.outbound.as_mut() {
            let (service, out, closed) = (&mut run.service, &mut conn.out, conn.closed);
            let mut on_reply = |result| {
                service.reply(inner, now, result, replies);
                if !closed {
                    replies.iter().for_each(|reply| out.push(reply));
                }
                replies.clear();
            };
            match outbound.advance(&inner.pool, driver, now, &mut on_reply) {
                Some(deadline) => {
                    run.deadline = deadline;
                    return;
                }
                None => run.outbound = None,
            }
        }
        let exchange = run.service.next(inner, now, replies);
        if !conn.closed {
            replies.iter().for_each(|reply| conn.out.push(reply));
            if exchange.is_some() && !conn.out.is_empty() {
                write_replies(&conn.stream, &mut conn.out, &mut conn.closed, inner);
            }
        }
        replies.clear();
        let Some(exchange) = exchange else {
            conn.run = None;
            ctx.running.retain(|&t| t != token);
            return;
        };
        let (addr, options) = (exchange.addr, exchange.options);
        run.outbound = Some(inner.pool.start(addr, options, &exchange.frames, now));
    }
}

/// Alternates dispatching the backlog (a no-op while a run is in service
/// or the out-queue is full) with writing the out-queue, until the socket
/// is full, the backlog is empty, or a run is left in service.
fn pump(ctx: &mut Ctx, token: u64, conn: &mut Conn) {
    loop {
        replay_backlog(ctx, token, conn);
        write_replies(&conn.stream, &mut conn.out, &mut conn.closed, &ctx.inner);
        // Unsent bytes mean the socket is full and EPOLLOUT will bring the
        // shard back; otherwise go round for what the cap held back.
        if conn.closed || conn.run.is_some() || conn.backlog.is_empty() || conn.wants_write() {
            break;
        }
    }
}

/// Writes as much of the out-queue as the socket accepts right now
/// ([`outq::write_out`]) and counts a pass that used `writev`. A dead
/// socket marks the connection closed.
fn write_replies(stream: &TcpStream, out: &mut OutQueue, closed: &mut bool, inner: &Inner) {
    if !*closed {
        match outq::write_out(stream, out) {
            Ok(true) => inner.metrics.writev_batches.inc(),
            Ok(false) => {}
            Err(_) => *closed = true,
        }
    }
}

/// Shard 0's control plane: the flush and heartbeat deadlines, the callers
/// waiting on each [`Ask`] not yet taken up, and the one round in flight.
struct Rounds {
    requests: mpsc::Receiver<Request>,
    asked: [Option<Waiters>; 3],
    /// The flush period's LCG ([`propagation::next_flush`]).
    seed: u64,
    flush_at: u64,
    heartbeat_at: u64,
    round: Option<Round>,
    /// The `cache-persist` thread's queue, when the hint log is durable.
    persist: Option<mpsc::Sender<Waiters>>,
}

impl Rounds {
    /// When shard 0 must look again even if no socket stirs.
    fn deadline(&self) -> u64 {
        let timers = self.flush_at.min(self.heartbeat_at);
        self.round.as_ref().map_or(timers, |round| round.deadline)
    }

    /// Takes up the asks posted since the last tick, steps the round in
    /// flight if its socket `fired` or its deadline passed, and starts the
    /// next one that is asked for or due: a resync, then a flush, then a
    /// heartbeat round.
    fn tick(&mut self, ctx: &Ctx, fired: bool) {
        while let Ok((ask, waiter)) = self.requests.try_recv() {
            let asked = self.asked[ask as usize].get_or_insert_with(Vec::default);
            asked.extend(waiter);
        }
        let now = ctx.inner.now_micros();
        loop {
            match self.round.as_mut() {
                Some(round) if fired || round.deadline <= now => {
                    if !round.drive(ctx, now) {
                        return;
                    }
                    self.round = None;
                }
                Some(_) => return,
                None => match self.next_round(&ctx.inner, now) {
                    Some(round) => self.round = Some(round),
                    None => return,
                },
            }
        }
    }

    /// The round that starts now, if one is asked for or due. A timer that
    /// fires is re-armed strictly after `now`.
    fn next_round(&mut self, inner: &Inner, now: u64) -> Option<Round> {
        if let Some(waiters) = self.asked[Ask::Resync as usize].take() {
            let targets = inner.membership.lock().flush_targets();
            let round = Round::new(Kind::Resync(0), Message::Resync, targets, waiters);
            return Some(round);
        }
        let flush = self.asked[Ask::Flush as usize].take();
        if flush.is_some() || now >= self.flush_at {
            if now >= self.flush_at {
                let wait = propagation::next_flush(&mut self.seed, inner.config.flush_max);
                self.flush_at = now + wait.max(1);
            }
            let waiters = flush.unwrap_or_default();
            if let Some(persist) = &self.persist {
                let _ = persist.send(waiters.clone());
            }
            let batch = inner.propagation.lock().take_batch();
            let targets = match batch.is_empty() {
                true => Vec::default(),
                false => inner.membership.lock().flush_targets(),
            };
            let kind = Kind::Flush(batch.len() as u64);
            let msg = propagation::outbound_hint_batch(inner, batch);
            return Some(Round::new(kind, msg, targets, waiters));
        }
        let beat = self.asked[Ask::Heartbeat as usize].take();
        if beat.is_none() && now < self.heartbeat_at {
            return None;
        }
        if now >= self.heartbeat_at {
            self.heartbeat_at = now + heartbeat_period(inner);
        }
        let peers = inner.membership.lock().liveness_peers();
        let waiters = beat.unwrap_or_default();
        Some(Round::new(Kind::Heartbeat, Message::Ping, peers, waiters))
    }
}

fn heartbeat_period(inner: &Inner) -> u64 {
    (inner.config.heartbeat_interval.as_micros() as u64).max(1000)
}

/// What a [`Round`] does with each reply: a flush counts the updates each
/// `Ack` took, a resync the hint records it learns, a heartbeat feeds the
/// failure detector.
enum Kind {
    Flush(u64),
    Resync(usize),
    Heartbeat,
}

/// One control round: the same frame to each target in turn, one exchange
/// at a time, in the order the targets are configured. The callers waiting
/// on it go when it ends.
struct Round {
    kind: Kind,
    msg: Message,
    targets: Vec<SocketAddr>,
    waiters: Waiters,
    /// Targets the frame has gone to, and the last one's exchange.
    sent: usize,
    outbound: Option<(SocketAddr, Outbound)>,
    deadline: u64,
}

impl Round {
    fn new(kind: Kind, msg: Message, targets: Vec<SocketAddr>, waiters: Waiters) -> Round {
        let (sent, outbound, deadline) = (0, None, 0);
        Round {
            kind,
            msg,
            targets,
            waiters,
            sent,
            outbound,
            deadline,
        }
    }

    /// Steps the round as far as it goes without waiting; returns whether
    /// it has ended.
    fn drive(&mut self, ctx: &Ctx, now: u64) -> bool {
        let (inner, driver) = (&*ctx.inner, Driver(&ctx.poller, CONTROL_TOKEN));
        loop {
            if let Some((addr, outbound)) = self.outbound.as_mut() {
                let (kind, addr) = (&mut self.kind, *addr);
                let mut on_reply = |result: io::Result<Message>| match &mut *kind {
                    Kind::Flush(updates) if matches!(result, Ok(Message::Ack)) => {
                        inner.metrics.updates_sent.add(*updates);
                    }
                    Kind::Flush(_) => {}
                    Kind::Resync(learned) => {
                        *learned += result.map_or(0, |r| propagation::receive_hint_batch(inner, r));
                    }
                    Kind::Heartbeat => {
                        let answered = matches!(result, Ok(Message::Ack));
                        membership::heartbeat_answered(inner, addr, answered, now);
                    }
                };
                match outbound.advance(&inner.pool, driver, now, &mut on_reply) {
                    Some(deadline) => {
                        self.deadline = deadline;
                        return false;
                    }
                    None => self.outbound = None,
                }
            }
            let Some(&addr) = self.targets.get(self.sent) else {
                break;
            };
            self.sent += 1;
            let options = match self.kind {
                Kind::Flush(_) => RequestOptions::peer_probe(),
                Kind::Resync(_) => RequestOptions::resync(),
                Kind::Heartbeat => RequestOptions::heartbeat(),
            };
            let frames = std::slice::from_ref(&self.msg);
            self.outbound = Some((addr, inner.pool.start(addr, options, frames, now)));
        }
        match self.kind {
            Kind::Flush(updates) if updates > 0 => {
                trace_event(inner, span::FLUSH_BATCH, updates, self.sent as u64);
            }
            Kind::Resync(learned) => {
                inner.propagation.lock().resync_completed(learned as u64);
                for waiter in &self.waiters {
                    let _ = waiter.send(learned);
                }
            }
            _ => {}
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeConfig;
    use crate::wire::MachineId;
    use std::net::SocketAddr;

    /// `queue_saturation_events` counts episodes, not rejects: one per
    /// rising edge of the mark, re-armed only once the depth has drained
    /// back to half of it.
    #[test]
    fn admit_counts_one_saturation_event_per_episode() {
        let addr = SocketAddr::from(([10, 0, 0, 1], 7000));
        let machine = MachineId::from_addr(addr).expect("ipv4");
        let inner = &Inner::new(NodeConfig::new("127.0.0.1:0", addr), machine);
        let admission = Admission::default();
        let events = || inner.metrics.queue_saturation_events.get();
        let at = |depth: usize| {
            admission.depth.store(depth, Ordering::Relaxed);
            admission.admit_get(inner)
        };
        const MARK: usize = PARKED_MARK;

        assert_eq!(at(MARK - 1), Ok(()), "below the mark");
        assert_eq!(events(), 0);
        assert_eq!(at(MARK), Err(MARK), "at the mark");
        assert_eq!(at(MARK + 5), Err(MARK + 5));
        assert_eq!(events(), 1, "every reject of one episode counts once");
        assert_eq!(at(MARK - 1), Ok(()), "admitted again below the mark");
        assert_eq!(at(MARK), Err(MARK));
        assert_eq!(events(), 1, "never drained to half: still the same episode");
        assert_eq!(at(MARK / 2), Ok(()), "half the mark ends the episode");
        assert_eq!(at(MARK), Err(MARK));
        assert_eq!(events(), 2, "a new rising edge is a new episode");
    }
}
