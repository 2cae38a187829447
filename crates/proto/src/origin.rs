//! A minimal origin server: the authoritative store the cache system
//! fetches from on a miss.
//!
//! Unknown URLs are served with deterministic synthetic content (size
//! derived from the URL key), so workload replay needs no setup; tests
//! install explicit bodies and bump versions with
//! [`Message::OriginPut`] to drive consistency scenarios.
//!
//! What the origin knows is one value, `Origin`, which answers a request
//! with no I/O. A live origin is that value on one `origin-{addr}` thread
//! that waits only in its `bh-netpoll` poller: on the listener, on every
//! accepted connection, and on the waker [`OriginServer::shutdown`] rings.
//! A connection answers every frame a read assembled into the node's
//! out-queue (`OutQueue`) and writes it out, in one `write` or `writev`,
//! before it is read again, and also whenever the queue reaches
//! `OUT_CAP`. A connection whose socket will not take that much is not
//! read again until it has, so a client that never reads stalls only
//! itself.

use crate::node::outq::{write_out, OutQueue};
use crate::wire::{FrameAssembler, Message, ServedBy, Status};
use bh_netpoll::{waker_pair, Interest, Poller, WakeReceiver, Waker};
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::Arc;

/// Tokens of the origin thread's waker, its listener, and its first
/// connection.
const WAKER_TOKEN: u64 = 0;
const LISTENER_TOKEN: u64 = 1;
const FIRST_CONN: u64 = 2;

/// Bytes one socket read takes.
const READ_BUF: usize = 16 * 1024;

/// The origin's state: the objects installed over the synthetic ones, and
/// how many `Get`s it has served (every one a cache-system miss).
#[derive(Debug, Default)]
pub(crate) struct Origin {
    objects: HashMap<String, (u32, Bytes)>,
    requests: u64,
}

impl Origin {
    /// The reply to one request.
    pub(crate) fn answer(&mut self, msg: Message) -> Message {
        match msg {
            Message::Get { url } | Message::PeerGet { url } => {
                self.requests += 1;
                let installed = self.objects.get(&url).cloned();
                let (version, body) = installed.unwrap_or_else(|| (0, synthetic_body(&url)));
                Message::GetReply {
                    status: Status::Ok,
                    version,
                    served_by: ServedBy::Origin,
                    body,
                }
            }
            Message::OriginPut { url, version, body } => {
                self.objects.insert(url, (version, body));
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
}

/// Handle to a running origin server; dropping it shuts the server down.
#[derive(Debug)]
pub struct OriginServer {
    addr: SocketAddr,
    origin: Arc<Mutex<Origin>>,
    waker: Waker,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl OriginServer {
    /// Binds and spawns the server (use port 0 for an ephemeral port).
    ///
    /// # Errors
    ///
    /// Propagates bind, poller and thread-spawn errors.
    pub fn spawn(bind: impl ToSocketAddrs) -> io::Result<Self> {
        let listener = TcpListener::bind(bind)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let poller = Poller::new()?;
        let (waker, wake_rx) = waker_pair()?;
        poller.register(&wake_rx, WAKER_TOKEN, Interest::READABLE)?;
        poller.register(&listener, LISTENER_TOKEN, Interest::READABLE)?;
        let origin = Arc::new(Mutex::new(Origin::default()));
        let shared = Arc::clone(&origin);
        let thread = std::thread::Builder::new()
            .name(format!("origin-{addr}"))
            .spawn(move || serve(&poller, wake_rx, &listener, &shared))?;
        Ok(OriginServer {
            addr,
            origin,
            waker,
            thread: Some(thread),
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of `Get` requests served (every one is a cache-system miss).
    pub fn request_count(&self) -> u64 {
        self.origin.lock().requests
    }

    /// Installs (or updates) an object directly, bypassing the network.
    pub fn put(&self, url: &str, version: u32, body: impl Into<Bytes>) {
        let object = (version, body.into());
        self.origin.lock().objects.insert(url.to_string(), object);
    }

    /// The currently served version of `url` (0 for synthetic objects).
    pub fn version_of(&self, url: &str) -> u32 {
        self.origin.lock().objects.get(url).map_or(0, |(v, _)| *v)
    }

    /// Stops the server, as dropping it does: its thread closes every
    /// connection and the listener and is joined before this returns.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for OriginServer {
    fn drop(&mut self) {
        if let Some(thread) = self.thread.take() {
            self.waker.wake();
            let _ = thread.join();
        }
    }
}

/// The origin thread: serves the listener and every connection until the
/// waker rings (`_wake_rx` is its receiving end, kept registered with
/// `poller`), then returns, and what it owned — the listener and every
/// connection — closes with it.
fn serve(poller: &Poller, _wake_rx: WakeReceiver, listener: &TcpListener, origin: &Mutex<Origin>) {
    let mut conns = HashMap::new();
    let mut next_token = FIRST_CONN;
    let (mut events, mut buf) = (Vec::with_capacity(64), vec![0u8; READ_BUF]);
    loop {
        events.clear();
        if poller.wait(&mut events, None).is_err() {
            return;
        }
        for event in &events {
            match event.token {
                WAKER_TOKEN => return,
                LISTENER_TOKEN => {
                    while let Ok((stream, _)) = listener.accept() {
                        let adopted = (stream.set_nonblocking(true))
                            .and_then(|()| stream.set_nodelay(true))
                            .and_then(|()| {
                                poller.register(&stream, next_token, Interest::READABLE)
                            });
                        if adopted.is_ok() {
                            conns.insert(next_token, Conn::new(stream));
                            next_token += 1;
                        }
                    }
                }
                token => {
                    let Some(conn) = conns.get_mut(&token) else {
                        continue;
                    };
                    let kept = match conn.step(origin, &mut buf, event.needs_read()) {
                        Ok(Some(want)) if want == conn.interest => true,
                        Ok(Some(want)) => {
                            conn.interest = want;
                            poller.modify(&conn.stream, token, want).is_ok()
                        }
                        _ => false,
                    };
                    if !kept {
                        conns.remove(&token);
                    }
                }
            }
        }
    }
}

/// One connection: what it owes and has half read, between readiness
/// events. `S` is a socket, or a scripted transport in the tests.
struct Conn<S> {
    stream: S,
    assembler: FrameAssembler,
    out: OutQueue,
    /// The client finished sending.
    eof: bool,
    /// Interest registered with the poller.
    interest: Interest,
}

impl<S: Read + Write> Conn<S> {
    fn new(stream: S) -> Conn<S> {
        Conn {
            stream,
            assembler: FrameAssembler::new(),
            out: OutQueue::new(),
            eof: false,
            interest: Interest::READABLE,
        }
    }

    /// Serves what the stream has for now: answers every frame assembled,
    /// writes the replies out before the next read (and whenever the queue
    /// reaches `OUT_CAP`), and reads — if `readable` says there is
    /// something to read — until the socket has nothing more, refuses
    /// the replies, or is finished. Returns the interest to wait with
    /// next, or `None` once the client has finished and everything it
    /// asked for is written.
    ///
    /// # Errors
    ///
    /// A socket error or an unframeable request: the connection is dead.
    fn step(
        &mut self,
        origin: &Mutex<Origin>,
        buf: &mut [u8],
        readable: bool,
    ) -> io::Result<Option<Interest>> {
        let mut more = readable && !self.eof;
        loop {
            loop {
                if self.out.is_full() {
                    write_out(&mut self.stream, &mut self.out)?;
                    if self.out.is_full() {
                        break;
                    }
                }
                let Some(msg) = self.assembler.next_message()? else {
                    break;
                };
                self.out.push(&origin.lock().answer(msg));
            }
            if self.out.is_full() {
                break;
            }
            if !self.out.is_empty() {
                write_out(&mut self.stream, &mut self.out)?;
            }
            if !more {
                break;
            }
            match self.stream.read(buf) {
                Ok(0) => (self.eof, more) = (true, false),
                // A short read drained the socket: whatever arrives next
                // raises a new event.
                Ok(n) => {
                    self.assembler.extend(&buf[..n]);
                    more = n == buf.len();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => more = false,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if self.eof && self.out.is_empty() {
            return Ok(None);
        }
        Ok(Some(Interest {
            readable: !self.eof && !self.out.is_full(),
            writable: !self.out.is_empty(),
        }))
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::outq::OUT_CAP;
    use crate::wire::{read_message, write_message, BODY_BY_REF};
    use bytes::BytesMut;
    use std::collections::VecDeque;
    use std::io::{BufReader, IoSlice};
    use std::net::TcpStream;
    use std::time::Duration;

    /// What the scripted transport was asked to do, in order.
    #[derive(Debug, Clone, PartialEq)]
    enum Call {
        /// A read, which returned this many bytes (0 at the end).
        Read(usize),
        /// One `write` or `write_vectored`: the bytes it took.
        Write(Vec<u8>),
    }

    /// A scripted transport: reads hand out `chunks` one per call, then
    /// the end; a write takes at most `most` bytes. Logs every call and
    /// records where each segment it was offered sits in memory.
    struct Script {
        chunks: VecDeque<Vec<u8>>,
        most: usize,
        log: Vec<Call>,
        offered: Vec<(*const u8, usize)>,
    }

    impl Read for Script {
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
            self.log.push(Call::Read(n));
            Ok(n)
        }
    }

    impl Write for Script {
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
            self.log.push(Call::Write(took));
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Steps one connection over `chunks` (one read each) against an
    /// origin holding `installed` at version 1, through a writer that takes
    /// at most `most` bytes a call, once per readiness event until the
    /// connection is done; returns the transport log and the segments
    /// offered.
    fn serve_script(
        installed: &[(String, Bytes)],
        chunks: Vec<Vec<u8>>,
        most: usize,
    ) -> (Vec<Call>, Vec<(*const u8, usize)>) {
        let mut origin = Origin::default();
        for (url, body) in installed {
            origin.objects.insert(url.clone(), (1, body.clone()));
        }
        let origin = Mutex::new(origin);
        let mut conn = Conn::new(Script {
            chunks: chunks.into(),
            most,
            log: Vec::new(),
            offered: Vec::new(),
        });
        let mut buf = vec![0u8; READ_BUF];
        while conn.step(&origin, &mut buf, true).expect("step").is_some() {}
        (conn.stream.log, conn.stream.offered)
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

    /// A client that pipelines `Get`s for 25 MiB of replies and never
    /// reads stalls only its own connection: another connection's `Get` is
    /// still answered, and the origin still shuts down.
    #[test]
    fn a_client_that_never_reads_does_not_stall_another() {
        let origin = OriginServer::spawn("127.0.0.1:0").expect("spawn");
        let url = "http://stall.test/64k";
        origin.put(url, 1, Bytes::from(vec![0x33u8; 64 * 1024]));
        let mut stalled = TcpStream::connect(origin.addr()).expect("connect");
        stalled
            .write_all(&frames(&vec![get(url); 400]))
            .expect("write");
        // The origin is at work on the stalled run before the other
        // connection arrives.
        let since = std::time::Instant::now();
        while origin.request_count() == 0 {
            assert!(since.elapsed() < Duration::from_secs(5), "run not read");
            std::thread::sleep(Duration::from_millis(1));
        }
        let mut other = TcpStream::connect(origin.addr()).expect("connect");
        other
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        write_message(&mut other, &get("http://stall.test/other")).expect("write");
        let reply = read_message(&mut other).expect("answered behind a client that never reads");
        let body = synthetic_body("http://stall.test/other");
        assert_eq!(reply, origin_reply(0, &body));
        assert!(
            origin.request_count() < 401,
            "the stalled client's replies cannot all have left"
        );
        drop(stalled);
        origin.shutdown();
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
