//! A minimal origin server: the authoritative store the cache system
//! fetches from on a miss.
//!
//! Unknown URLs are served with deterministic synthetic content (size
//! derived from the URL key), so workload replay needs no setup; tests
//! install explicit bodies and bump versions with
//! [`Message::OriginPut`] to drive consistency scenarios.
//!
//! One thread serves each connection. It answers every frame its read
//! buffer already holds, queueing the replies in the node's out-queue
//! ([`OutQueue`]: small frames flat, bodies of a page or more by
//! reference), and hands them to the socket in one `write` or `writev`
//! before it can block on a read: a node that pipelines sixteen misses
//! gets sixteen replies back from one call, and a lone `Get` is answered
//! before the thread waits again. The queue is also written out whenever
//! it reaches [`OUT_CAP`](crate::node::outq::OUT_CAP), so one run never
//! holds more than about that many unsent bytes.

use crate::node::outq::OutQueue;
use crate::wire::{read_message, FrameAssembler, Message, ServedBy, Status};
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{self, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Live accepted connections, keyed by a per-connection id so each serving
/// thread can drop its own entry when the peer hangs up (otherwise the
/// registry would leak one fd per connection for the server's lifetime).
type ConnRegistry = Arc<Mutex<HashMap<u64, TcpStream>>>;

#[derive(Debug, Default)]
struct OriginState {
    objects: HashMap<String, (u32, Bytes)>,
}

/// Handle to a running origin server; dropping it shuts the server down.
#[derive(Debug)]
pub struct OriginServer {
    addr: SocketAddr,
    state: Arc<Mutex<OriginState>>,
    shutdown: Arc<AtomicBool>,
    requests: Arc<AtomicU64>,
    conns: ConnRegistry,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl OriginServer {
    /// Binds and spawns the server (use port 0 for an ephemeral port).
    ///
    /// # Errors
    ///
    /// Propagates bind errors.
    pub fn spawn(bind: impl ToSocketAddrs) -> io::Result<Self> {
        let listener = TcpListener::bind(bind)?;
        let addr = listener.local_addr()?;
        let state = Arc::new(Mutex::new(OriginState::default()));
        let shutdown = Arc::new(AtomicBool::new(false));
        let requests = Arc::new(AtomicU64::new(0));

        let conns: ConnRegistry = Arc::new(Mutex::new(HashMap::new()));
        let state2 = Arc::clone(&state);
        let shutdown2 = Arc::clone(&shutdown);
        let requests2 = Arc::clone(&requests);
        let conns2 = Arc::clone(&conns);
        let handle = std::thread::Builder::new()
            .name(format!("origin-{addr}"))
            .spawn(move || accept_loop(listener, state2, shutdown2, requests2, conns2))
            .expect("spawn origin thread");

        Ok(OriginServer {
            addr,
            state,
            shutdown,
            requests,
            conns,
            handle: Some(handle),
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of `Get` requests served (every one is a cache-system miss).
    pub fn request_count(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Installs (or updates) an object directly, bypassing the network.
    pub fn put(&self, url: &str, version: u32, body: impl Into<Bytes>) {
        self.state
            .lock()
            .objects
            .insert(url.to_string(), (version, body.into()));
    }

    /// The currently served version of `url` (0 for synthetic objects).
    pub fn version_of(&self, url: &str) -> u32 {
        self.state
            .lock()
            .objects
            .get(url)
            .map(|(v, _)| *v)
            .unwrap_or(0)
    }

    /// Stops the accept loop and joins the server thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Nudge the blocking accept() awake.
        let _ = TcpStream::connect(self.addr);
        // Sever live connections too, so shutdown means "the process died"
        // even to clients holding warm pooled connections.
        for (_, conn) in self.conns.lock().drain() {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for OriginServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(
    listener: TcpListener,
    state: Arc<Mutex<OriginState>>,
    shutdown: Arc<AtomicBool>,
    requests: Arc<AtomicU64>,
    conns: ConnRegistry,
) {
    let mut next_id: u64 = 0;
    for stream in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let id = next_id;
        next_id += 1;
        if let Ok(clone) = stream.try_clone() {
            conns.lock().insert(id, clone);
        }
        let state = Arc::clone(&state);
        let requests = Arc::clone(&requests);
        let conns = Arc::clone(&conns);
        std::thread::Builder::new()
            .name("origin-conn".to_string())
            .spawn(move || {
                let _ = serve_connection(&stream, &state, &requests);
                conns.lock().remove(&id);
            })
            // bh-lint: allow(no-panic-hot-path, reason = "test-harness origin server; failing to spawn a connection thread is unrecoverable and loud beats silent")
            .expect("spawn connection thread");
    }
}

/// Deterministic body for URLs nobody installed: pseudo-random bytes whose
/// length is derived from the URL key (1–64 KiB), so replayed workloads get
/// stable, checkable content.
///
/// The bytes are the little-endian words of the 64-bit LCG `s ← A·s + C`
/// started at `key | 1`. What one word costs is the latency of the
/// multiply-add the next one waits for, so the fill steps four words at
/// once: lane `i` holds word `n + i` and jumps four ahead with
/// `s ← A⁴·s + C·(A³ + A² + A + 1)`, four independent chains in place of
/// one. The output is the one-word-at-a-time sequence, byte for byte.
pub fn synthetic_body(url: &str) -> Bytes {
    const A: u64 = 6364136223846793005;
    const C: u64 = 1442695040888963407;
    const A2: u64 = A.wrapping_mul(A);
    const C2: u64 = C.wrapping_mul(A.wrapping_add(1));
    const A4: u64 = A2.wrapping_mul(A2);
    const C4: u64 = C2.wrapping_mul(A2.wrapping_add(1));
    let next = |s: u64| s.wrapping_mul(A).wrapping_add(C);

    let key = bh_md5::url_key(url);
    let len = 1024 + (key % (63 * 1024)) as usize;
    let mut out = vec![0u8; len];
    let mut lanes = [0u64; 4];
    let mut state = key | 1;
    for lane in &mut lanes {
        state = next(state);
        *lane = state;
    }
    let mut blocks = out.chunks_exact_mut(32);
    for block in &mut blocks {
        for (word, s) in block.chunks_exact_mut(8).zip(&mut lanes) {
            word.copy_from_slice(&s.to_le_bytes());
            *s = s.wrapping_mul(A4).wrapping_add(C4);
        }
    }
    for (word, s) in blocks.into_remainder().chunks_mut(8).zip(lanes) {
        word.copy_from_slice(&s.to_le_bytes()[..word.len()]);
    }
    Bytes::from(out)
}

fn serve_connection(
    stream: &TcpStream,
    state: &Mutex<OriginState>,
    requests: &AtomicU64,
) -> io::Result<()> {
    stream.set_nodelay(true)?;
    // Buffer the read side so a pipelined run is usually one syscall.
    let mut writer = stream;
    serve(&mut BufReader::new(stream), &mut writer, state, requests)
}

/// Answers the frames `reader` yields until it ends, queueing each reply
/// and writing the queue out whenever the read buffer holds no complete
/// frame or the queue is full: never does it block on a read while
/// replies are unsent.
fn serve<R: Read, W: Write>(
    reader: &mut BufReader<R>,
    writer: &mut W,
    state: &Mutex<OriginState>,
    requests: &AtomicU64,
) -> io::Result<()> {
    let mut out = OutQueue::new();
    loop {
        if !out.is_empty() && (out.is_full() || !holds_frame(reader.buffer())) {
            write_out(writer, &mut out)?;
        }
        // Either a whole frame is buffered, and this reads no socket, or
        // nothing is owed.
        let msg = match read_message(reader) {
            Ok(m) => m,
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(()),
            Err(e) => return Err(e),
        };
        out.push(&answer(msg, state, requests));
    }
}

/// Whether `buf` starts with a whole frame: a header and all the payload
/// it announces. A length past [`MAX_FRAME`](crate::wire::MAX_FRAME) is
/// never whole, so the replies before it are written before the read
/// that rejects it.
fn holds_frame(buf: &[u8]) -> bool {
    buf.len() >= 5 && FrameAssembler::header(buf).is_ok_and(|total| total <= buf.len())
}

/// The reply to one request.
fn answer(msg: Message, state: &Mutex<OriginState>, requests: &AtomicU64) -> Message {
    match msg {
        Message::Get { url } | Message::PeerGet { url } => {
            requests.fetch_add(1, Ordering::Relaxed);
            // Look up under the lock, generate outside it: one
            // connection's miss must not queue behind another's fill.
            let installed = state.lock().objects.get(&url).cloned();
            let (version, body) = installed.unwrap_or_else(|| (0, synthetic_body(&url)));
            Message::GetReply {
                status: Status::Ok,
                version,
                served_by: ServedBy::Origin,
                body,
            }
        }
        Message::OriginPut { url, version, body } => {
            state.lock().objects.insert(url, (version, body));
            Message::Ack
        }
        _ => Message::GetReply {
            status: Status::Error,
            version: 0,
            served_by: ServedBy::Origin,
            body: Bytes::new(),
        },
    }
}

/// Drains `out` into the blocking `writer`: one `write` for a queue that
/// is one flat segment, one `writev` for one that holds bodies, and more
/// only when the socket takes part of what it is offered.
fn write_out<W: Write>(writer: &mut W, out: &mut OutQueue) -> io::Result<()> {
    while !out.is_empty() {
        match out.write_with(|segments| match segments {
            [one] => writer.write(one),
            many => writer.write_vectored(many),
        }) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::outq::OUT_CAP;
    use crate::wire::{write_message, BODY_BY_REF};
    use bytes::BytesMut;
    use std::cell::RefCell;
    use std::collections::VecDeque;
    use std::io::IoSlice;
    use std::rc::Rc;

    /// What the scripted transport was asked to do, in order.
    #[derive(Debug, Clone, PartialEq)]
    enum Call {
        /// A read, which returned this many bytes (0 at the end).
        Read(usize),
        /// One `write` or `write_vectored`: the bytes it took.
        Write(Vec<u8>),
    }

    type Log = Rc<RefCell<Vec<Call>>>;

    /// A reader that hands out `chunks` one per read, then the end.
    struct Chunks {
        chunks: VecDeque<Vec<u8>>,
        log: Log,
    }

    impl Read for Chunks {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = match self.chunks.front_mut() {
                Some(chunk) => {
                    let n = chunk.len().min(buf.len());
                    buf[..n].copy_from_slice(&chunk[..n]);
                    chunk.drain(..n);
                    if chunk.is_empty() {
                        self.chunks.pop_front();
                    }
                    n
                }
                None => 0,
            };
            self.log.borrow_mut().push(Call::Read(n));
            Ok(n)
        }
    }

    /// A writer that takes at most `most` bytes a call, logs each call,
    /// and records where every segment it was offered sits in memory.
    struct Sink {
        most: usize,
        log: Log,
        offered: Vec<(*const u8, usize)>,
    }

    impl Write for Sink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, segments: &[IoSlice<'_>]) -> io::Result<usize> {
            let mut took = Vec::new();
            for seg in segments {
                self.offered.push((seg.as_ptr(), seg.len()));
                let n = seg.len().min(self.most - took.len());
                took.extend_from_slice(&seg[..n]);
            }
            let n = took.len();
            self.log.borrow_mut().push(Call::Write(took));
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Serves `chunks` (one read each) against an origin holding
    /// `installed` at version 1, through a writer that takes at most
    /// `most` bytes a call; returns the transport log and the segments
    /// offered.
    fn serve_script(
        installed: &[(String, Bytes)],
        chunks: Vec<Vec<u8>>,
        most: usize,
    ) -> (Vec<Call>, Vec<(*const u8, usize)>) {
        let state = Mutex::new(OriginState::default());
        for (url, body) in installed {
            state.lock().objects.insert(url.clone(), (1, body.clone()));
        }
        let log = Log::default();
        let mut reader = BufReader::new(Chunks {
            chunks: chunks.into(),
            log: Rc::clone(&log),
        });
        let mut sink = Sink {
            most,
            log: Rc::clone(&log),
            offered: Vec::new(),
        };
        serve(&mut reader, &mut sink, &state, &AtomicU64::new(0)).expect("serve");
        let calls = log.borrow().clone();
        (calls, sink.offered)
    }

    fn get(url: &str) -> Message {
        Message::Get { url: url.into() }
    }

    fn frames(msgs: &[Message]) -> Vec<u8> {
        let mut out = BytesMut::new();
        for m in msgs {
            m.encode_into(&mut out);
        }
        out.to_vec()
    }

    fn origin_reply(version: u32, body: &Bytes) -> Message {
        Message::GetReply {
            status: Status::Ok,
            version,
            served_by: ServedBy::Origin,
            body: body.clone(),
        }
    }

    /// Bodies either side of `BODY_BY_REF`, 33 KB in all: one run's
    /// replies fit under `OUT_CAP` and mix flat and referenced frames.
    fn mixed_objects() -> Vec<(String, Bytes)> {
        [10, 100, 4095, 4096, 5000, 0, 20_000, 3]
            .iter()
            .enumerate()
            .map(|(i, &len)| {
                let body: Vec<u8> = (0..len).map(|b| (b * 7 + i) as u8).collect();
                (format!("http://mixed.test/{i}"), Bytes::from(body))
            })
            .collect()
    }

    /// N requests that arrive in one read leave as one write carrying
    /// the N replies in request order, byte for byte what `encode_into`
    /// makes of them.
    #[test]
    fn a_run_in_one_read_is_answered_in_one_write() {
        let objects = mixed_objects();
        let gets: Vec<Message> = objects.iter().map(|(url, _)| get(url)).collect();
        let replies: Vec<Message> = objects.iter().map(|(_, b)| origin_reply(1, b)).collect();
        let (calls, _) = serve_script(&objects, vec![frames(&gets)], usize::MAX);
        let run = frames(&gets).len();
        assert_eq!(
            calls,
            [
                Call::Read(run),
                Call::Write(frames(&replies)),
                Call::Read(0)
            ]
        );
    }

    /// A run whose last frame arrives in two reads: the replies to the
    /// complete frames are written before the reader is asked for the
    /// rest, and the last reply before it is asked again.
    #[test]
    fn replies_leave_before_the_rest_of_a_split_frame_is_read() {
        let url = "http://s.test/1";
        let body = Bytes::from_static(b"split");
        let wire = frames(&[get(url), get(url), get(url)]);
        let cut = wire.len() - 4;
        let (calls, _) = serve_script(
            &[(url.into(), body.clone())],
            vec![wire[..cut].to_vec(), wire[cut..].to_vec()],
            usize::MAX,
        );
        let reply = origin_reply(1, &body);
        assert_eq!(
            calls,
            [
                Call::Read(cut),
                Call::Write(frames(&[reply.clone(), reply.clone()])),
                Call::Read(4),
                Call::Write(frames(&[reply])),
                Call::Read(0),
            ]
        );
    }

    /// A writer that takes a few bytes a call still gets every byte of a
    /// run, and nothing more is read until it has.
    #[test]
    fn a_short_writer_is_drained_before_the_next_read() {
        let objects = mixed_objects();
        let gets: Vec<Message> = objects.iter().map(|(url, _)| get(url)).collect();
        let replies: Vec<Message> = objects.iter().map(|(_, b)| origin_reply(1, b)).collect();
        let (calls, _) = serve_script(&objects, vec![frames(&gets)], 1000);
        let (last, writes) = calls[1..].split_last().expect("calls");
        assert_eq!(calls[0], Call::Read(frames(&gets).len()));
        assert_eq!(*last, Call::Read(0));
        let mut out = Vec::new();
        for call in writes {
            let Call::Write(bytes) = call else {
                panic!("read before the run was written: {call:?}")
            };
            assert!(bytes.len() <= 1000);
            out.extend_from_slice(bytes);
        }
        assert_eq!(out, frames(&replies));
    }

    /// An `OriginPut` and a `Get` of the same URL in one run: `Ack`, then
    /// the version just installed.
    #[test]
    fn a_put_then_a_get_in_one_run_reads_the_new_version() {
        let url = "http://p.test/v";
        let body = Bytes::from_static(b"version nine");
        let put = Message::OriginPut {
            url: url.into(),
            version: 9,
            body: body.clone(),
        };
        let (calls, _) = serve_script(
            &[(url.into(), Bytes::from_static(b"old"))],
            vec![frames(&[put, get(url)])],
            usize::MAX,
        );
        let Call::Write(bytes) = &calls[1] else {
            panic!("expected one write, got {calls:?}")
        };
        let mut cursor = io::Cursor::new(bytes);
        assert_eq!(read_message(&mut cursor).expect("ack"), Message::Ack);
        assert_eq!(
            read_message(&mut cursor).expect("reply"),
            origin_reply(9, &body)
        );
        assert_eq!(cursor.position() as usize, bytes.len());
    }

    /// A body of `BODY_BY_REF` bytes or more is offered to the writer as
    /// the memory it is installed in, never as a copy.
    #[test]
    fn a_large_body_leaves_by_reference() {
        let body = Bytes::from(vec![0xA5u8; BODY_BY_REF]);
        let url = "http://r.test/page";
        let (_, offered) = serve_script(
            &[(url.into(), body.clone())],
            vec![frames(&[get(url)])],
            usize::MAX,
        );
        assert!(
            offered.contains(&(body.as_ptr(), body.len())),
            "the body was not offered in place: {offered:?}"
        );
    }

    /// A run whose replies pass `OUT_CAP` is written out as soon as the
    /// queue reaches it, before the rest of the run is answered; the last
    /// 20 replies follow in a write of their own.
    #[test]
    fn the_queue_is_written_out_at_out_cap() {
        let body = Bytes::from(vec![1u8; 1000]);
        let url = "http://c.test/k";
        let one = frames(&[origin_reply(1, &body)]).len();
        let first = OUT_CAP.div_ceil(one);
        let n = first + 20;
        let gets = vec![get(url); n];
        let (calls, _) = serve_script(
            &[(url.into(), body.clone())],
            vec![frames(&gets)],
            usize::MAX,
        );
        assert_eq!(
            calls[1..],
            [
                Call::Write(frames(&vec![origin_reply(1, &body); first])),
                Call::Write(frames(&vec![origin_reply(1, &body); n - first])),
                Call::Read(0),
            ]
        );
    }

    /// Over a real socket: 64 pipelined `Get`s sent in one write come back
    /// in order, each the URL's synthetic body.
    #[test]
    fn pipelined_gets_over_tcp_come_back_in_order() {
        let origin = OriginServer::spawn("127.0.0.1:0").expect("spawn");
        let urls: Vec<String> = (0..64).map(|i| format!("http://pipe.test/{i}")).collect();
        let gets: Vec<Message> = urls.iter().map(|u| get(u)).collect();
        let mut s = TcpStream::connect(origin.addr()).expect("connect");
        s.write_all(&frames(&gets)).expect("write");
        let mut reader = BufReader::new(&s);
        for url in &urls {
            let reply = read_message(&mut reader).expect("read");
            assert_eq!(reply, origin_reply(0, &synthetic_body(url)), "{url}");
        }
        assert_eq!(origin.request_count(), 64);
    }

    fn request(addr: SocketAddr, msg: &Message) -> Message {
        let mut s = TcpStream::connect(addr).expect("connect");
        write_message(&mut s, msg).expect("write");
        read_message(&mut s).expect("read")
    }

    #[test]
    fn serves_synthetic_content_deterministically() {
        let origin = OriginServer::spawn("127.0.0.1:0").expect("spawn");
        let m1 = request(
            origin.addr(),
            &Message::Get {
                url: "http://t.test/a".into(),
            },
        );
        let m2 = request(
            origin.addr(),
            &Message::Get {
                url: "http://t.test/a".into(),
            },
        );
        let Message::GetReply {
            status,
            body: b1,
            served_by,
            ..
        } = m1
        else {
            panic!("unexpected reply {m1:?}")
        };
        let Message::GetReply { body: b2, .. } = m2 else {
            panic!("unexpected reply")
        };
        assert_eq!(status, Status::Ok);
        assert_eq!(served_by, ServedBy::Origin);
        assert_eq!(b1, b2);
        assert!(b1.len() >= 1024);
        assert_eq!(origin.request_count(), 2);
    }

    /// `synthetic_body` is what every replayed workload's replies are
    /// checked against: its bytes must never change. Digests taken from
    /// the one-word-at-a-time fill, over lengths that end on each kind of
    /// lane boundary (`len % 32` = 15, 16, 23, 0, 9, 4).
    #[test]
    fn synthetic_bodies_are_pinned() {
        for (n, len, md5) in [
            (0, 46_575, "42d2374b09461bf5634f048afbdb88b8"),
            (20, 2_000, "cd2815eee417e7f58a52771ef8833de3"),
            (6, 2_359, "0c0af53454ed01a21e3172679a74fece"),
            (29, 61_536, "84794e4e1e22e5525d25d0b89deef67a"),
            (12, 6_761, "c865f2be54d02a95b4bbaee8af60caf3"),
            (10, 3_684, "7677328912227070d4221d9d5435534e"),
        ] {
            let body = synthetic_body(&format!("http://digest.test/{n}"));
            assert_eq!(body.len(), len, "url {n}");
            assert_eq!(bh_md5::md5(&body[..]).to_hex(), md5, "url {n}");
        }
    }

    #[test]
    fn distinct_urls_distinct_bodies() {
        assert_ne!(
            synthetic_body("http://a.test/1"),
            synthetic_body("http://a.test/2")
        );
    }

    #[test]
    fn origin_put_overrides_and_versions() {
        let origin = OriginServer::spawn("127.0.0.1:0").expect("spawn");
        let ack = request(
            origin.addr(),
            &Message::OriginPut {
                url: "http://t.test/v".into(),
                version: 3,
                body: Bytes::from_static(b"v3!"),
            },
        );
        assert_eq!(ack, Message::Ack);
        assert_eq!(origin.version_of("http://t.test/v"), 3);
        let reply = request(
            origin.addr(),
            &Message::Get {
                url: "http://t.test/v".into(),
            },
        );
        let Message::GetReply { version, body, .. } = reply else {
            panic!("bad reply")
        };
        assert_eq!(version, 3);
        assert_eq!(&body[..], b"v3!");
    }

    #[test]
    fn shutdown_joins_cleanly() {
        let origin = OriginServer::spawn("127.0.0.1:0").expect("spawn");
        let addr = origin.addr();
        origin.shutdown();
        // Subsequent connections must fail or be closed without replies.
        let err = TcpStream::connect(addr)
            .and_then(|mut s| {
                write_message(
                    &mut s,
                    &Message::Get {
                        url: "http://x/".into(),
                    },
                )?;
                read_message(&mut s)
            })
            .is_err();
        assert!(err, "server should be down after shutdown");
    }
}
