//! A minimal origin server: the authoritative store the cache system
//! fetches from on a miss.
//!
//! Unknown URLs are served with deterministic synthetic content (size
//! derived from the URL key), so workload replay needs no setup; tests
//! install explicit bodies and bump versions with
//! [`Message::OriginPut`] to drive consistency scenarios.

use crate::wire::{read_message, write_message, Message, ServedBy, Status};
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io;
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
                let _ = serve_connection(stream, state, requests);
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
    mut stream: TcpStream,
    state: Arc<Mutex<OriginState>>,
    requests: Arc<AtomicU64>,
) -> io::Result<()> {
    stream.set_nodelay(true)?;
    // Buffer the read side so a framed request is usually one syscall.
    let mut reader = io::BufReader::new(stream.try_clone()?);
    loop {
        let msg = match read_message(&mut reader) {
            Ok(m) => m,
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(()),
            Err(e) => return Err(e),
        };
        match msg {
            Message::Get { url } | Message::PeerGet { url } => {
                requests.fetch_add(1, Ordering::Relaxed);
                // Look up under the lock, generate outside it: one
                // connection's miss must not queue behind another's fill.
                let installed = state.lock().objects.get(&url).cloned();
                let (version, body) = installed.unwrap_or_else(|| (0, synthetic_body(&url)));
                write_message(
                    &mut stream,
                    &Message::GetReply {
                        status: Status::Ok,
                        version,
                        served_by: ServedBy::Origin,
                        body,
                    },
                )?;
            }
            Message::OriginPut { url, version, body } => {
                state.lock().objects.insert(url, (version, body));
                write_message(&mut stream, &Message::Ack)?;
            }
            other => {
                let _ = other;
                write_message(
                    &mut stream,
                    &Message::GetReply {
                        status: Status::Error,
                        version: 0,
                        served_by: ServedBy::Origin,
                        body: Bytes::new(),
                    },
                )?;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
