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
pub fn synthetic_body(url: &str) -> Bytes {
    let key = bh_md5::url_key(url);
    let len = 1024 + (key % (63 * 1024)) as usize;
    let mut out = Vec::with_capacity(len);
    let mut state = key | 1;
    while out.len() < len {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        out.extend_from_slice(&state.to_le_bytes());
    }
    out.truncate(len);
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
                let (version, body) = {
                    let st = state.lock();
                    match st.objects.get(&url) {
                        Some((v, b)) => (*v, b.clone()),
                        None => (0, synthetic_body(&url)),
                    }
                };
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
