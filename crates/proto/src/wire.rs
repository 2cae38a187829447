//! Wire format: length-prefixed frames and the 20-byte hint-update record.
//!
//! Frame layout: `u32 length (LE, payload bytes) | u8 message type |
//! payload`. Strings are `u32 length | UTF-8 bytes`; binary bodies are
//! `u32 length | bytes`.
//!
//! The hint-update record is exactly the paper's (§3.2): "each update
//! consumes 20 bytes: a 4-byte action, an 8-byte object identifier (part
//! of the MD5 signature of the object's URL), and an 8-byte machine
//! identifier (an IP address and port number)."

use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::io::{self, IoSlice, Read, Write};

/// Maximum accepted frame payload (guards against corrupt length prefixes).
pub const MAX_FRAME: u32 = 64 * 1024 * 1024;

/// Smallest body that leaves by reference ([`Message::encode_split`]): one
/// page. Below it the copy into the frame buffer is cheaper than what
/// replaces it (a refcount, a splice entry, two iovec segments and a
/// `writev` where one `write` did); at a page the two break even, and
/// from there on the copy is the cost that grows with the body.
pub const BODY_BY_REF: usize = 4096;

/// A machine identifier: IPv4 address and port packed into 8 bytes
/// (4 bytes address, 2 bytes port, 2 bytes zero), as the paper specifies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MachineId(pub u64);

impl MachineId {
    /// Packs an IPv4 socket address.
    ///
    /// # Errors
    ///
    /// Returns `None` for IPv6 addresses (the 1998-era record has no room).
    pub fn from_addr(addr: std::net::SocketAddr) -> Option<Self> {
        match addr {
            std::net::SocketAddr::V4(v4) => {
                let ip = u32::from_be_bytes(v4.ip().octets()) as u64;
                Some(MachineId(ip << 32 | (v4.port() as u64) << 16))
            }
            std::net::SocketAddr::V6(_) => None,
        }
    }

    /// Unpacks back into a socket address.
    pub fn to_addr(self) -> std::net::SocketAddr {
        let ip = std::net::Ipv4Addr::from(((self.0 >> 32) as u32).to_be_bytes());
        let port = ((self.0 >> 16) & 0xFFFF) as u16;
        std::net::SocketAddr::V4(std::net::SocketAddrV4::new(ip, port))
    }
}

/// Hint-update action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HintAction {
    /// A node now stores a copy ("inform"/advertise).
    Add,
    /// A node no longer stores a copy ("invalidate"/advertise non-presence).
    Remove,
}

/// One 20-byte hint-update record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HintUpdate {
    /// What happened.
    pub action: HintAction,
    /// Low 64 bits of the MD5 of the object's URL.
    pub object: u64,
    /// Who it happened at.
    pub machine: MachineId,
}

/// Size of an encoded [`HintUpdate`].
pub const HINT_UPDATE_BYTES: usize = 20;

impl HintUpdate {
    /// Encodes into the fixed 20-byte layout.
    pub fn encode(&self, buf: &mut BytesMut) {
        buf.put_u32_le(match self.action {
            HintAction::Add => 1,
            HintAction::Remove => 2,
        });
        buf.put_u64_le(self.object);
        buf.put_u64_le(self.machine.0);
    }

    /// Decodes from the fixed layout.
    ///
    /// # Errors
    ///
    /// Fails if the buffer is short or the action code is unknown.
    pub fn decode(buf: &mut impl Buf) -> io::Result<Self> {
        if buf.remaining() < HINT_UPDATE_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "short hint update",
            ));
        }
        let action = match buf.get_u32_le() {
            1 => HintAction::Add,
            2 => HintAction::Remove,
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unknown hint action {other}"),
                ))
            }
        };
        Ok(HintUpdate {
            action,
            object: buf.get_u64_le(),
            machine: MachineId(buf.get_u64_le()),
        })
    }
}

/// Reply status for `Get`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Data follows.
    Ok,
    /// The asked node does not have the object (false-positive hint).
    NotFound,
    /// Server-side error.
    Error,
    /// Admission control turned the request away: the node's worker queue
    /// is past its high-water mark and the client should fetch from the
    /// origin directly instead of waiting in an unbounded queue.
    Redirect,
}

/// Where a `Get` was ultimately served from (diagnostic, carried in the
/// reply so clients and tests can observe the data path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedBy {
    /// The contacted node's own cache.
    Local,
    /// A peer cache (direct cache-to-cache transfer).
    Peer(MachineId),
    /// The origin server.
    Origin,
}

/// Operation selector for a [`Message::MetaRequest`] against the mesh
/// meta namespace (`mesh/...`, `meta/...`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetaOp {
    /// Read one leaf (`mesh/nodes/self/metrics/local_hits`) or dump a
    /// branch (`Get mesh/nodes/self/metrics` returns every metric with
    /// its value — the scrape path).
    Get,
    /// Enumerate a branch's children, sorted, names only where values
    /// are non-deterministic (so listings are byte-identical across
    /// seeded runs).
    List,
    /// Control-plane write: the request's `value` is the new state
    /// (`Set .../control/drain true`).
    Set,
}

/// Outcome of a [`Message::MetaRequest`], carried in the reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetaStatus {
    /// The operation succeeded; `entries` carries the result.
    Ok,
    /// The path does not name a known branch or leaf.
    NotFound,
    /// The path exists but does not support the requested op (e.g. `Set`
    /// on a read-only metric).
    Denied,
    /// The path or value is malformed (bad node id, non-boolean for a
    /// flag, non-numeric for a knob).
    Invalid,
}

/// One `path = value` pair in a [`Message::MetaReply`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetaEntry {
    /// Namespace path, relative to the serving node's root.
    pub path: String,
    /// Rendered value (empty for pure listings).
    pub value: String,
}

/// Protocol messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Fetch an object through the cache.
    Get {
        /// Full URL (the request always carries it; hint keys may collide).
        url: String,
    },
    /// Peer-to-peer fetch: only serve from the local cache, never forward
    /// (a miss here is a false-positive hint at the requester).
    PeerGet {
        /// Full URL.
        url: String,
    },
    /// Reply to `Get`/`PeerGet`.
    GetReply {
        /// Outcome.
        status: Status,
        /// Object version.
        version: u32,
        /// Where it came from.
        served_by: ServedBy,
        /// The body (empty unless `status == Ok`).
        body: Bytes,
    },
    /// A coalesced batch of hint updates ("HTTP POST to route://updates"
    /// in the prototype; a first-class frame here) — the only frame that
    /// carries hints. A leading version byte lets the batching format
    /// evolve without burning a frame type. Version
    /// [`HINT_BATCH_VERSION`] payloads are `u8 version | u64 sender |
    /// u32 count | count × 20-byte records | 16-byte tag`, where `tag`
    /// is the sender's keyed-MD5 authenticator over the batch
    /// ([`hint_batch_tag`]) — receivers verify it before applying and
    /// quarantine peers whose batches keep failing. Build with
    /// [`Message::hint_batch`], which computes the tag.
    HintBatch {
        /// Who flushed the batch (the authenticator key is per-sender).
        sender: MachineId,
        /// The coalesced updates.
        updates: Vec<HintUpdate>,
        /// Keyed-MD5 authenticator over `(version, sender, updates)`.
        tag: [u8; 16],
    },
    /// Push a copy of an object to the receiving cache (§4).
    Push {
        /// Full URL.
        url: String,
        /// Object version.
        version: u32,
        /// The body.
        body: Bytes,
    },
    /// Ask a node's hint store for the nearest copy ("find nearest").
    FindNearest {
        /// 64-bit object key.
        key: u64,
    },
    /// Reply to `FindNearest`.
    FindNearestReply {
        /// The nearest known location, if any.
        location: Option<MachineId>,
    },
    /// Origin-control: install an object at the origin server (tests drive
    /// content and versions through this).
    OriginPut {
        /// Full URL.
        url: String,
        /// New version.
        version: u32,
        /// New body.
        body: Bytes,
    },
    /// Acknowledgement for `HintBatch` / `Push` / `OriginPut` / `Ping`.
    Ack,
    /// Liveness heartbeat: "are you there?". Reply is [`Message::Ack`].
    /// Carries no payload — reachability is the only question.
    Ping,
    /// Anti-entropy pull issued by a warm-restarted node: "re-advertise
    /// what you hold". The receiver replies with a [`Message::HintBatch`]
    /// of `Add` records for every object in its *own* cache, letting the
    /// asker rebuild the hint table it lost in the crash (§3.2 recovery).
    Resync,
    /// Path-addressed read or control write against the node's meta
    /// namespace (the mesh API). Payload leads with
    /// [`META_API_VERSION`] so the namespace can evolve without burning
    /// a frame type; decoders reject any other version. Reply is
    /// [`Message::MetaReply`].
    MetaRequest {
        /// What to do at the path.
        op: MetaOp,
        /// Namespace path (`mesh/nodes/self/metrics/local_hits`).
        path: String,
        /// New state for `Set`; empty for `Get`/`List`.
        value: String,
    },
    /// Reply to [`Message::MetaRequest`]: a status plus zero or more
    /// `path = value` entries (one for `Get`/`Set` echoes, n sorted
    /// entries for `List`, none on error).
    MetaReply {
        /// Outcome.
        status: MetaStatus,
        /// Result rows.
        entries: Vec<MetaEntry>,
    },
}

// Wire tags. A tag number is never reused: retired tags decode as
// `unknown message type` in both decoders, forever.
//
//   tag    frame              status
//   1      Get                live
//   2      PeerGet            live
//   3      GetReply           live
//   4      (UpdateBatch)      retired in PR 14 — unauthenticated hint flush
//   5      Push               live
//   6      FindNearest        live
//   7      FindNearestReply   live
//   8      OriginPut          live
//   9      Ack                live
//   10     HintBatch          live
//   11     Ping               live
//   12     Resync             live
//   13-16  (Stats/Trace)      retired in PR 14 — superseded by MetaRequest
//   17     MetaRequest        live
//   18     MetaReply          live
const T_GET: u8 = 1;
const T_PEER_GET: u8 = 2;
const T_GET_REPLY: u8 = 3;
const T_PUSH: u8 = 5;
const T_FIND_NEAREST: u8 = 6;
const T_FIND_NEAREST_REPLY: u8 = 7;
const T_ORIGIN_PUT: u8 = 8;
const T_ACK: u8 = 9;
const T_HINT_BATCH: u8 = 10;
const T_PING: u8 = 11;
const T_RESYNC: u8 = 12;
const T_META_REQUEST: u8 = 17;
const T_META_REPLY: u8 = 18;

/// Minimum bytes of one encoded [`MetaEntry`]: two length-prefixed strings,
/// both empty (`u32 len | path | u32 len | value`).
const META_ENTRY_MIN_BYTES: usize = 8;

/// Current version byte at the head of [`Message::MetaRequest`] and
/// [`Message::MetaReply`] payloads. Decoders accept exactly this version
/// and reject anything else with `InvalidData`, so the namespace contract
/// can change shape without reusing stale frame semantics.
pub const META_API_VERSION: u8 = 1;

/// Current version byte written at the head of a [`Message::HintBatch`]
/// payload. Decoders accept exactly this version and reject anything newer
/// (or older) with `InvalidData` rather than misparsing it. Version 2
/// added the sender id and the trailing keyed-MD5 authenticator.
pub const HINT_BATCH_VERSION: u8 = 2;

/// Bytes of a [`Message::HintBatch`] authenticator tag (one MD5 digest).
pub const HINT_TAG_BYTES: usize = 16;

/// Derives the per-sender key for [`hint_batch_tag`].
///
/// The derivation is a *public* scheme (MD5 over a domain label and the
/// sender id), which authenticates against corruption and byzantine-buggy
/// peers — the failure modes the chaos harness injects — but not against
/// an adversary who knows the scheme. A hardened deployment would swap
/// this one function for provisioned shared secrets; everything else
/// (tag chaining, verification, quarantine) is key-source agnostic.
pub fn hint_batch_key(sender: MachineId) -> [u8; 16] {
    let mut ctx = bh_md5::Context::new();
    ctx.consume(b"bh-hint-batch-auth-v2");
    ctx.consume(sender.0.to_le_bytes());
    ctx.finalize().0
}

/// The keyed-MD5 authenticator a [`Message::HintBatch`] carries:
/// `MD5(key ‖ version ‖ sender ‖ count ‖ records ‖ key)` with the
/// per-sender [`hint_batch_key`], streamed record by record (no batch
/// copy).
pub fn hint_batch_tag(sender: MachineId, updates: &[HintUpdate]) -> [u8; 16] {
    let key = hint_batch_key(sender);
    let mut ctx = bh_md5::Context::keyed(&key);
    ctx.consume([HINT_BATCH_VERSION]);
    ctx.consume(sender.0.to_le_bytes());
    ctx.consume((updates.len() as u32).to_le_bytes());
    for u in updates {
        let action: u32 = match u.action {
            HintAction::Add => 1,
            HintAction::Remove => 2,
        };
        ctx.consume(action.to_le_bytes());
        ctx.consume(u.object.to_le_bytes());
        ctx.consume(u.machine.0.to_le_bytes());
    }
    ctx.finalize_keyed(&key).0
}

fn put_string(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn get_string(buf: &mut Bytes) -> io::Result<String> {
    if buf.remaining() < 4 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "short string length",
        ));
    }
    let len = buf.get_u32_le() as usize;
    if buf.remaining() < len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "short string body",
        ));
    }
    // Validate UTF-8 against the shared slice, then make the one copy an
    // owned `String` requires (the legacy path copied twice: once into a
    // `Vec` and once through `String::from_utf8`).
    let bytes = buf.copy_to_bytes(len);
    match std::str::from_utf8(&bytes) {
        Ok(s) => Ok(s.to_string()),
        Err(e) => Err(io::Error::new(io::ErrorKind::InvalidData, e)),
    }
}

fn get_bytes(buf: &mut Bytes) -> io::Result<Bytes> {
    if buf.remaining() < 4 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "short bytes length",
        ));
    }
    let len = buf.get_u32_le() as usize;
    if buf.remaining() < len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "short bytes body",
        ));
    }
    Ok(buf.copy_to_bytes(len))
}

impl Message {
    /// Builds an authenticated [`Message::HintBatch`]: computes the
    /// sender's keyed tag over the updates. The only way honest code
    /// should construct the variant.
    pub fn hint_batch(sender: MachineId, updates: Vec<HintUpdate>) -> Message {
        let tag = hint_batch_tag(sender, &updates);
        Message::HintBatch {
            sender,
            updates,
            tag,
        }
    }

    /// Encodes the full frame (`u32 len | u8 ty | payload`) into `out`,
    /// replacing its contents but keeping its allocation. Use
    /// [`Message::encoded`] when an owned [`Bytes`] frame is more
    /// convenient than a borrowed slice.
    pub fn encode(&self, out: &mut BytesMut) {
        out.clear();
        self.encode_into(out);
    }

    /// Appends the full frame (`u32 len | u8 ty | payload`) to `out`,
    /// after whatever it already holds.
    ///
    /// This is the flat encode path: a pipelined run's requests go one
    /// after another into one write buffer, so a batch leaves in one
    /// `write` and a warm buffer encodes with zero allocations. Whoever
    /// sends bodies uses [`Message::encode_split`] instead.
    pub fn encode_into(&self, out: &mut BytesMut) {
        if let Some(body) = self.encode_head(out) {
            out.put_slice(body);
        }
    }

    /// [`Message::encode_into`], except that a trailing body of
    /// [`BODY_BY_REF`] bytes or more is left out and returned: `out` then
    /// ends where those bytes belong, and the caller sends them from the
    /// refcounted buffer they already sit in (a `writev` segment) instead
    /// of copying them. `None` means `out` holds the whole frame.
    pub fn encode_split(&self, out: &mut BytesMut) -> Option<&Bytes> {
        match self.encode_head(out) {
            Some(body) if body.len() < BODY_BY_REF => {
                out.put_slice(body);
                None
            }
            by_ref => by_ref,
        }
    }

    /// The one encoder: appends the frame to `out` — all of it, or, for
    /// the frames that end in a body (`GetReply`, `Push`, `OriginPut`),
    /// all but the body's bytes, which it returns. The header counts the
    /// body either way. The payload is written once, directly after a
    /// placeholder header that is patched in place — no intermediate
    /// payload buffer and no frame-assembly copy.
    fn encode_head(&self, out: &mut BytesMut) -> Option<&Bytes> {
        let start = out.len();
        // Placeholder header, patched once the payload length is known.
        out.put_u32_le(0);
        out.put_u8(0);
        let mut trailing = None;
        let ty = match self {
            Message::Get { url } => {
                put_string(out, url);
                T_GET
            }
            Message::PeerGet { url } => {
                put_string(out, url);
                T_PEER_GET
            }
            Message::GetReply {
                status,
                version,
                served_by,
                body,
            } => {
                out.put_u8(match status {
                    Status::Ok => 0,
                    Status::NotFound => 1,
                    Status::Error => 2,
                    Status::Redirect => 3,
                });
                out.put_u32_le(*version);
                match served_by {
                    ServedBy::Local => out.put_u8(0),
                    ServedBy::Peer(m) => {
                        out.put_u8(1);
                        out.put_u64_le(m.0);
                    }
                    ServedBy::Origin => out.put_u8(2),
                }
                out.put_u32_le(body.len() as u32);
                trailing = Some(body);
                T_GET_REPLY
            }
            Message::HintBatch {
                sender,
                updates,
                tag,
            } => {
                out.put_u8(HINT_BATCH_VERSION);
                out.put_u64_le(sender.0);
                out.put_u32_le(updates.len() as u32);
                for u in updates {
                    u.encode(out);
                }
                out.put_slice(tag);
                T_HINT_BATCH
            }
            Message::Push { url, version, body } => {
                put_string(out, url);
                out.put_u32_le(*version);
                out.put_u32_le(body.len() as u32);
                trailing = Some(body);
                T_PUSH
            }
            Message::FindNearest { key } => {
                out.put_u64_le(*key);
                T_FIND_NEAREST
            }
            Message::FindNearestReply { location } => {
                match location {
                    Some(m) => {
                        out.put_u8(1);
                        out.put_u64_le(m.0);
                    }
                    None => out.put_u8(0),
                }
                T_FIND_NEAREST_REPLY
            }
            Message::OriginPut { url, version, body } => {
                put_string(out, url);
                out.put_u32_le(*version);
                out.put_u32_le(body.len() as u32);
                trailing = Some(body);
                T_ORIGIN_PUT
            }
            Message::Ack => T_ACK,
            Message::Ping => T_PING,
            Message::Resync => T_RESYNC,
            Message::MetaRequest { op, path, value } => {
                out.put_u8(META_API_VERSION);
                out.put_u8(match op {
                    MetaOp::Get => 0,
                    MetaOp::List => 1,
                    MetaOp::Set => 2,
                });
                put_string(out, path);
                put_string(out, value);
                T_META_REQUEST
            }
            Message::MetaReply { status, entries } => {
                out.put_u8(META_API_VERSION);
                out.put_u8(match status {
                    MetaStatus::Ok => 0,
                    MetaStatus::NotFound => 1,
                    MetaStatus::Denied => 2,
                    MetaStatus::Invalid => 3,
                });
                out.put_u32_le(entries.len() as u32);
                for e in entries {
                    put_string(out, &e.path);
                    put_string(out, &e.value);
                }
                T_META_REPLY
            }
        };
        let payload_len = (out.len() - start - 5 + trailing.map_or(0, Bytes::len)) as u32;
        out[start..start + 4].copy_from_slice(&payload_len.to_le_bytes());
        out[start + 4] = ty;
        trailing
    }

    /// Encodes into a freshly allocated, framed [`Bytes`] buffer.
    ///
    /// Convenience wrapper over [`Message::encode`] for cold paths
    /// (tests, one-shot control messages): one allocation, zero copies
    /// (the scratch vector is moved, not duplicated, by `freeze`).
    pub fn encoded(&self) -> Bytes {
        let mut out = BytesMut::with_capacity(64);
        self.encode(&mut out);
        out.freeze()
    }

    /// Decodes one message from `(type, payload)`.
    ///
    /// # Errors
    ///
    /// Fails on truncated payloads or unknown type/status codes.
    pub fn decode(ty: u8, mut payload: Bytes) -> io::Result<Message> {
        let buf = &mut payload;
        let msg = match ty {
            T_GET => Message::Get {
                url: get_string(buf)?,
            },
            T_PEER_GET => Message::PeerGet {
                url: get_string(buf)?,
            },
            T_GET_REPLY => {
                if buf.remaining() < 6 {
                    return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "short reply"));
                }
                let status = match buf.get_u8() {
                    0 => Status::Ok,
                    1 => Status::NotFound,
                    2 => Status::Error,
                    3 => Status::Redirect,
                    s => {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("unknown status {s}"),
                        ))
                    }
                };
                let version = buf.get_u32_le();
                let served_by = match buf.get_u8() {
                    0 => ServedBy::Local,
                    1 => {
                        if buf.remaining() < 8 {
                            return Err(io::Error::new(
                                io::ErrorKind::UnexpectedEof,
                                "short peer id",
                            ));
                        }
                        ServedBy::Peer(MachineId(buf.get_u64_le()))
                    }
                    2 => ServedBy::Origin,
                    s => {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("unknown served-by {s}"),
                        ))
                    }
                };
                Message::GetReply {
                    status,
                    version,
                    served_by,
                    body: get_bytes(buf)?,
                }
            }
            T_HINT_BATCH => {
                if buf.remaining() < 13 + HINT_TAG_BYTES {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "short hint batch",
                    ));
                }
                let version = buf.get_u8();
                if version != HINT_BATCH_VERSION {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("unsupported hint batch version {version}"),
                    ));
                }
                let sender = MachineId(buf.get_u64_le());
                let n = buf.get_u32_le() as usize;
                if n > (MAX_FRAME as usize) / HINT_UPDATE_BYTES {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "oversized batch",
                    ));
                }
                let mut updates = Vec::with_capacity(n);
                for _ in 0..n {
                    updates.push(HintUpdate::decode(buf)?);
                }
                if buf.remaining() < HINT_TAG_BYTES {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "short hint batch tag",
                    ));
                }
                let mut tag = [0u8; HINT_TAG_BYTES];
                buf.copy_to_slice(&mut tag);
                Message::HintBatch {
                    sender,
                    updates,
                    tag,
                }
            }
            T_PUSH => {
                let url = get_string(buf)?;
                if buf.remaining() < 4 {
                    return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "short push"));
                }
                let version = buf.get_u32_le();
                Message::Push {
                    url,
                    version,
                    body: get_bytes(buf)?,
                }
            }
            T_FIND_NEAREST => {
                if buf.remaining() < 8 {
                    return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "short find"));
                }
                Message::FindNearest {
                    key: buf.get_u64_le(),
                }
            }
            T_FIND_NEAREST_REPLY => {
                if buf.remaining() < 1 {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "short find reply",
                    ));
                }
                let location = match buf.get_u8() {
                    0 => None,
                    1 => {
                        if buf.remaining() < 8 {
                            return Err(io::Error::new(
                                io::ErrorKind::UnexpectedEof,
                                "short location",
                            ));
                        }
                        Some(MachineId(buf.get_u64_le()))
                    }
                    s => {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("unknown option tag {s}"),
                        ))
                    }
                };
                Message::FindNearestReply { location }
            }
            T_ORIGIN_PUT => {
                let url = get_string(buf)?;
                if buf.remaining() < 4 {
                    return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "short put"));
                }
                let version = buf.get_u32_le();
                Message::OriginPut {
                    url,
                    version,
                    body: get_bytes(buf)?,
                }
            }
            T_ACK => Message::Ack,
            T_PING => Message::Ping,
            T_RESYNC => Message::Resync,
            T_META_REQUEST => {
                if buf.remaining() < 2 {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "short meta request",
                    ));
                }
                let version = buf.get_u8();
                if version != META_API_VERSION {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("unsupported meta api version {version}"),
                    ));
                }
                let op = match buf.get_u8() {
                    0 => MetaOp::Get,
                    1 => MetaOp::List,
                    2 => MetaOp::Set,
                    s => {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("unknown meta op {s}"),
                        ))
                    }
                };
                let path = get_string(buf)?;
                let value = get_string(buf)?;
                Message::MetaRequest { op, path, value }
            }
            T_META_REPLY => {
                if buf.remaining() < 6 {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "short meta reply",
                    ));
                }
                let version = buf.get_u8();
                if version != META_API_VERSION {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("unsupported meta api version {version}"),
                    ));
                }
                let status = match buf.get_u8() {
                    0 => MetaStatus::Ok,
                    1 => MetaStatus::NotFound,
                    2 => MetaStatus::Denied,
                    3 => MetaStatus::Invalid,
                    s => {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("unknown meta status {s}"),
                        ))
                    }
                };
                let n = buf.get_u32_le() as usize;
                if n > (MAX_FRAME as usize) / META_ENTRY_MIN_BYTES {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "oversized meta reply",
                    ));
                }
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    let path = get_string(buf)?;
                    let value = get_string(buf)?;
                    entries.push(MetaEntry { path, value });
                }
                Message::MetaReply { status, entries }
            }
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unknown message type {other}"),
                ))
            }
        };
        Ok(msg)
    }
}

/// Writes one framed message to `w`.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_message<W: Write>(w: &mut W, msg: &Message) -> io::Result<()> {
    let mut head = BytesMut::with_capacity(64);
    match msg.encode_split(&mut head) {
        None => w.write_all(&head)?,
        Some(body) => write_all_vectored(w, &head, body)?,
    }
    w.flush()
}

/// `head` then `body` in as few vectored writes as `w` takes them in.
fn write_all_vectored<W: Write>(w: &mut W, mut head: &[u8], mut body: &[u8]) -> io::Result<()> {
    while !head.is_empty() {
        match w.write_vectored(&[IoSlice::new(head), IoSlice::new(body)]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => {
                let of_head = n.min(head.len());
                head = &head[of_head..];
                body = &body[n - of_head..];
            }
            Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.write_all(body)
}

/// Coalesces a pending update list into the minimal equivalent batch:
/// for each `(object, machine)` pair only the *last* action survives
/// (last-writer-wins), positioned where the pair first appeared so the
/// output order stays deterministic. An Add followed by a Remove for the
/// same copy still sends the Remove — receivers use it to retire stale
/// hints — but the obsolete Add is dropped from the wire.
pub fn coalesce(updates: Vec<HintUpdate>) -> Vec<HintUpdate> {
    use std::collections::HashMap;
    let mut index: HashMap<(u64, u64), usize> = HashMap::with_capacity(updates.len());
    let mut out: Vec<HintUpdate> = Vec::with_capacity(updates.len());
    for u in updates {
        match index.entry((u.object, u.machine.0)) {
            std::collections::hash_map::Entry::Occupied(slot) => out[*slot.get()] = u,
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(out.len());
                out.push(u);
            }
        }
    }
    out
}

/// Incremental frame parser for non-blocking sockets.
///
/// Bytes arrive in arbitrary chunks via [`FrameAssembler::extend`];
/// [`FrameAssembler::next_message`] yields complete messages as they become
/// available. The length prefix is validated against [`MAX_FRAME`] as soon
/// as the 5-byte header is buffered, so a corrupt prefix can never cause an
/// over-allocation or an over-read.
///
/// ## Buffer lifecycle (zero-copy)
///
/// Incoming bytes accumulate in a plain `staging` vector (one memcpy off
/// the socket buffer — unavoidable, the kernel hands us borrowed slices).
/// Once at least one *complete* frame is staged, the whole staging vector
/// is frozen into a refcounted [`Bytes`] `window` **without copying** (the
/// vector moves behind an `Arc`), and every complete frame in the window
/// is yielded as a refcounted sub-slice: payloads, and the bodies
/// [`Message::decode`] slices out of them, share the window's allocation
/// until the last reference drops. There is no per-frame payload copy and
/// no `drain`-style memmove of the remaining buffer. A partial frame left
/// at the window's tail is folded back into staging on the next `extend`
/// (one copy of at most that fragment); incomplete frames are never
/// frozen, so feeding a large frame chunk-by-chunk stays linear.
#[derive(Debug, Default)]
pub struct FrameAssembler {
    /// Unfrozen tail of the stream: bytes still being accumulated.
    staging: Vec<u8>,
    /// Frozen, unparsed front of the stream. Invariant: outside of
    /// `extend`, at most one of `staging`/`window` is non-empty, and the
    /// window only ever holds bytes that were part of a freeze containing
    /// at least one complete frame.
    window: Bytes,
}

impl FrameAssembler {
    /// Creates an empty assembler.
    pub fn new() -> Self {
        FrameAssembler::default()
    }

    /// Appends raw bytes read off the socket.
    pub fn extend(&mut self, data: &[u8]) {
        if !self.window.is_empty() {
            // A parse pass left a partial frame in the frozen window; fold
            // it back in front of the new bytes. The fragment is smaller
            // than one frame's worth of the last read, so this stays
            // cheaper than the per-frame drain it replaces.
            let mut v = Vec::with_capacity(self.window.len() + self.staging.len() + data.len());
            v.extend_from_slice(&self.window);
            v.extend_from_slice(&self.staging);
            self.window = Bytes::new();
            self.staging = v;
        }
        self.staging.extend_from_slice(data);
    }

    /// Number of bytes buffered but not yet consumed as messages.
    pub fn buffered(&self) -> usize {
        self.window.len() + self.staging.len()
    }

    /// Parses `buf[..5]` as a frame header, validating the length prefix.
    fn header(buf: &[u8]) -> io::Result<usize> {
        let mut len = [0u8; 4];
        len.copy_from_slice(&buf[..4]);
        let len = u32::from_le_bytes(len);
        if len > MAX_FRAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame too large: {len}"),
            ));
        }
        Ok(5 + len as usize)
    }

    /// Pops the next complete message, `Ok(None)` if more bytes are needed.
    ///
    /// # Errors
    ///
    /// Fails on an oversized length prefix or a malformed payload; the
    /// connection should be dropped, as the stream can no longer be framed.
    pub fn next_message(&mut self) -> io::Result<Option<Message>> {
        if self.window.is_empty() {
            // Freeze staging only once it holds a complete frame: freezing
            // partial data would re-copy it on every subsequent extend.
            if self.staging.len() < 5 {
                return Ok(None);
            }
            let total = Self::header(&self.staging)?;
            if self.staging.len() < total {
                return Ok(None);
            }
            self.window = Bytes::from(std::mem::take(&mut self.staging));
        }
        if self.window.len() < 5 {
            return Ok(None);
        }
        let total = Self::header(&self.window)?;
        if self.window.len() < total {
            return Ok(None);
        }
        let frame = self.window.copy_to_bytes(total); // refcounted sub-slice
        let ty = frame[4];
        let payload = frame.slice(5..total);
        Message::decode(ty, payload).map(Some)
    }
}

/// Reads one framed message from `r`.
///
/// # Errors
///
/// Fails on I/O errors, oversized frames, or malformed payloads.
pub fn read_message<R: Read>(r: &mut R) -> io::Result<Message> {
    let mut header = [0u8; 5];
    r.read_exact(&mut header)?;
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame too large: {len}"),
        ));
    }
    let ty = header[4];
    // Straight into an allocation of exactly the payload's size, which the
    // decoded body then shares: nothing zero-fills it first, and a body
    // never pins memory beyond its own frame.
    let len = len as usize;
    let mut payload = Vec::with_capacity(len);
    if r.take(len as u64).read_to_end(&mut payload)? < len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "stream ended inside a frame",
        ));
    }
    Message::decode(ty, Bytes::from(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(msg: Message) -> Message {
        let framed = msg.encoded();
        let mut cursor = std::io::Cursor::new(framed.to_vec());
        read_message(&mut cursor).expect("decode")
    }

    #[test]
    fn hint_update_is_twenty_bytes() {
        let mut buf = BytesMut::new();
        HintUpdate {
            action: HintAction::Add,
            object: 0xDEADBEEF,
            machine: MachineId(42),
        }
        .encode(&mut buf);
        assert_eq!(buf.len(), HINT_UPDATE_BYTES);
    }

    #[test]
    fn machine_id_round_trips_socket_addrs() {
        let addr: std::net::SocketAddr = "192.168.1.10:3128".parse().expect("addr");
        let id = MachineId::from_addr(addr).expect("v4");
        assert_eq!(id.to_addr(), addr);
        let v6: std::net::SocketAddr = "[::1]:80".parse().expect("addr");
        assert_eq!(MachineId::from_addr(v6), None);
    }

    #[test]
    fn all_messages_round_trip() {
        let messages = vec![
            Message::Get {
                url: "http://x.test/a".into(),
            },
            Message::PeerGet {
                url: "http://x.test/ü".into(),
            },
            Message::GetReply {
                status: Status::Ok,
                version: 7,
                served_by: ServedBy::Peer(MachineId(99)),
                body: Bytes::from_static(b"hello"),
            },
            Message::GetReply {
                status: Status::NotFound,
                version: 0,
                served_by: ServedBy::Local,
                body: Bytes::new(),
            },
            Message::hint_batch(
                MachineId(11),
                vec![
                    HintUpdate {
                        action: HintAction::Add,
                        object: 9,
                        machine: MachineId(8),
                    },
                    HintUpdate {
                        action: HintAction::Remove,
                        object: 7,
                        machine: MachineId(6),
                    },
                ],
            ),
            Message::hint_batch(MachineId(12), vec![]),
            Message::Push {
                url: "http://x.test/p".into(),
                version: 3,
                body: Bytes::from_static(b"abc"),
            },
            Message::FindNearest { key: 0xABCD },
            Message::FindNearestReply {
                location: Some(MachineId(5)),
            },
            Message::FindNearestReply { location: None },
            Message::OriginPut {
                url: "http://x.test/o".into(),
                version: 1,
                body: Bytes::from_static(b"v1"),
            },
            Message::Ack,
            Message::Ping,
            Message::Resync,
            Message::MetaRequest {
                op: MetaOp::Get,
                path: "mesh/nodes/self/metrics/local_hits".into(),
                value: String::new(),
            },
            Message::MetaRequest {
                op: MetaOp::List,
                path: "meta/mesh/nodes".into(),
                value: String::new(),
            },
            Message::MetaRequest {
                op: MetaOp::Set,
                path: "mesh/nodes/self/control/drain".into(),
                value: "true".into(),
            },
            Message::MetaReply {
                status: MetaStatus::Ok,
                entries: vec![
                    MetaEntry {
                        path: "mesh/nodes/self/metrics/local_hits".into(),
                        value: "7".into(),
                    },
                    MetaEntry {
                        path: "mesh/nodes/self/metrics/peer_hits".into(),
                        value: "ü".into(),
                    },
                ],
            },
            Message::MetaReply {
                status: MetaStatus::NotFound,
                entries: vec![],
            },
        ];
        for msg in messages {
            assert_eq!(round_trip(msg.clone()), msg);
        }
    }

    #[test]
    fn meta_frames_are_versioned() {
        // A future version byte must be rejected, not misparsed — in both
        // directions of the exchange.
        let mut payload = BytesMut::new();
        payload.put_u8(META_API_VERSION + 1);
        payload.put_u8(0); // op: Get
        payload.put_u32_le(0); // empty path
        payload.put_u32_le(0); // empty value
        let err = Message::decode(T_META_REQUEST, payload.freeze()).expect_err("future version");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        let mut payload = BytesMut::new();
        payload.put_u8(META_API_VERSION + 1);
        payload.put_u8(0); // status: Ok
        payload.put_u32_le(0); // no entries
        let err = Message::decode(T_META_REPLY, payload.freeze()).expect_err("future version");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // The current version leads both payloads.
        let req = Message::MetaRequest {
            op: MetaOp::Get,
            path: "meta".into(),
            value: String::new(),
        }
        .encoded();
        assert_eq!(req[5], META_API_VERSION);
        let reply = Message::MetaReply {
            status: MetaStatus::Ok,
            entries: vec![],
        }
        .encoded();
        assert_eq!(reply[5], META_API_VERSION);
    }

    #[test]
    fn oversized_meta_reply_count_rejected() {
        // A corrupt count must fail fast on the length arithmetic, not
        // attempt a giant allocation.
        let mut payload = BytesMut::new();
        payload.put_u8(META_API_VERSION);
        payload.put_u8(0); // status: Ok
        payload.put_u32_le(u32::MAX);
        let err = Message::decode(T_META_REPLY, payload.freeze()).expect_err("oversized");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn ping_and_resync_are_payloadless() {
        // Heartbeats ride the hot path; they must stay at the 5-byte frame
        // minimum.
        assert_eq!(Message::Ping.encoded().len(), 5);
        assert_eq!(Message::Resync.encoded().len(), 5);
    }

    #[test]
    fn hint_batch_frame_size_matches_paper_arithmetic() {
        // A batch of N updates costs a fixed 34-byte envelope — 5 (frame)
        // + 1 (version) + 8 (sender) + 4 (count) + 16 (tag) — plus the
        // paper's "20 bytes per update".
        for n in [0u64, 1, 100] {
            let updates = (0..n)
                .map(|i| HintUpdate {
                    action: HintAction::Add,
                    object: i,
                    machine: MachineId(i),
                })
                .collect();
            let encoded = Message::hint_batch(MachineId(3), updates).encoded();
            assert_eq!(encoded.len(), 5 + 1 + 8 + 4 + 20 * n as usize + 16);
        }
    }

    #[test]
    fn hint_batch_is_versioned() {
        let encoded = Message::hint_batch(MachineId(3), vec![]).encoded();
        assert_eq!(encoded[5], HINT_BATCH_VERSION);

        // A future version byte must be rejected, not misparsed.
        let mut payload = BytesMut::new();
        payload.put_u8(HINT_BATCH_VERSION + 1);
        payload.put_u64_le(3);
        payload.put_u32_le(0);
        payload.put_slice(&[0u8; HINT_TAG_BYTES]);
        let err = Message::decode(T_HINT_BATCH, payload.freeze()).expect_err("future version");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn hint_batch_tags_bind_sender_and_contents() {
        let updates = vec![HintUpdate {
            action: HintAction::Add,
            object: 5,
            machine: MachineId(6),
        }];
        let tag = hint_batch_tag(MachineId(1), &updates);
        // Same inputs, same tag (stateless authenticator).
        assert_eq!(tag, hint_batch_tag(MachineId(1), &updates));
        // A different sender keys differently.
        assert_ne!(tag, hint_batch_tag(MachineId(2), &updates));
        // Any record mutation changes the tag.
        let mut flipped = updates.clone();
        flipped[0].object ^= 1;
        assert_ne!(tag, hint_batch_tag(MachineId(1), &flipped));
        let mut removed = updates.clone();
        removed[0].action = HintAction::Remove;
        assert_ne!(tag, hint_batch_tag(MachineId(1), &removed));
        // The constructor embeds exactly this tag.
        match Message::hint_batch(MachineId(1), updates.clone()) {
            Message::HintBatch {
                sender,
                updates: got,
                tag: got_tag,
            } => {
                assert_eq!(sender, MachineId(1));
                assert_eq!(got, updates);
                assert_eq!(got_tag, tag);
            }
            other => panic!("unexpected message {other:?}"),
        }
    }

    #[test]
    fn coalesce_keeps_last_action_per_copy() {
        let m = MachineId(1);
        let updates = vec![
            HintUpdate {
                action: HintAction::Add,
                object: 1,
                machine: m,
            },
            HintUpdate {
                action: HintAction::Add,
                object: 2,
                machine: m,
            },
            HintUpdate {
                action: HintAction::Remove,
                object: 1,
                machine: m,
            },
            HintUpdate {
                action: HintAction::Add,
                object: 2,
                machine: MachineId(3),
            },
            HintUpdate {
                action: HintAction::Add,
                object: 2,
                machine: m,
            },
        ];
        let out = coalesce(updates);
        assert_eq!(
            out,
            vec![
                HintUpdate {
                    action: HintAction::Remove,
                    object: 1,
                    machine: m
                },
                HintUpdate {
                    action: HintAction::Add,
                    object: 2,
                    machine: m
                },
                HintUpdate {
                    action: HintAction::Add,
                    object: 2,
                    machine: MachineId(3)
                },
            ]
        );
    }

    #[test]
    fn assembler_yields_messages_across_arbitrary_chunk_boundaries() {
        let messages = vec![
            Message::Get {
                url: "http://x.test/a".into(),
            },
            Message::hint_batch(
                MachineId(7),
                vec![HintUpdate {
                    action: HintAction::Add,
                    object: 5,
                    machine: MachineId(6),
                }],
            ),
            Message::Ack,
        ];
        let mut stream = Vec::new();
        for m in &messages {
            stream.extend_from_slice(&m.encoded());
        }
        // Feed one byte at a time; every complete frame must pop out exactly
        // once, in order.
        let mut assembler = FrameAssembler::new();
        let mut got = Vec::new();
        for byte in stream {
            assembler.extend(&[byte]);
            while let Some(msg) = assembler.next_message().expect("clean stream") {
                got.push(msg);
            }
        }
        assert_eq!(got, messages);
        assert_eq!(assembler.buffered(), 0);
    }

    #[test]
    fn assembler_rejects_oversized_and_malformed_frames() {
        let mut assembler = FrameAssembler::new();
        let mut frame = BytesMut::new();
        frame.put_u32_le(MAX_FRAME + 1);
        frame.put_u8(T_ACK);
        assembler.extend(&frame);
        assert!(assembler.next_message().is_err());

        let mut assembler = FrameAssembler::new();
        let mut frame = BytesMut::new();
        frame.put_u32_le(0);
        frame.put_u8(200); // unknown type
        assembler.extend(&frame);
        assert!(assembler.next_message().is_err());

        // A partial header is just "need more bytes".
        let mut assembler = FrameAssembler::new();
        assembler.extend(&[1, 0, 0]);
        assert!(assembler.next_message().expect("partial header").is_none());
    }

    #[test]
    fn rejects_garbage() {
        // Unknown type.
        let mut frame = BytesMut::new();
        frame.put_u32_le(0);
        frame.put_u8(200);
        let mut cursor = std::io::Cursor::new(frame.to_vec());
        assert!(read_message(&mut cursor).is_err());

        // Oversized length prefix.
        let mut frame = BytesMut::new();
        frame.put_u32_le(MAX_FRAME + 1);
        frame.put_u8(T_ACK);
        let mut cursor = std::io::Cursor::new(frame.to_vec());
        assert!(read_message(&mut cursor).is_err());

        // Truncated string.
        let mut payload = BytesMut::new();
        payload.put_u32_le(100); // claims 100 bytes, has none
        assert!(Message::decode(T_GET, payload.freeze()).is_err());
    }

    #[test]
    fn truncated_stream_is_clean_eof() {
        let framed = Message::Ack.encoded();
        let mut cursor = std::io::Cursor::new(framed[..3].to_vec());
        let err = read_message(&mut cursor).expect_err("short read");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }
}
