//! Property tests for the wire format: every frame type round-trips
//! through encode → reassembly → decode, and malformed input (truncated,
//! corrupted, oversized) is rejected with an error — never a panic.

use bh_proto::wire::{
    read_message, write_message, FrameAssembler, HintAction, HintUpdate, MachineId, Message,
    MetaEntry, MetaOp, MetaStatus, ServedBy, Status, HINT_BATCH_VERSION, HINT_TAG_BYTES,
    HINT_UPDATE_BYTES, MAX_FRAME, META_API_VERSION,
};
use bytes::{Buf, Bytes};
use proptest::prelude::*;
use std::io::{self, Cursor, IoSlice, Read, Write};

// The live wire tags by number (the table above `T_GET` in `wire.rs`) and
// the smallest encoded `MetaEntry`, as the witness decoder spells them.
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
const META_ENTRY_MIN_BYTES: usize = 8;

/// The pre-zero-copy decoder, kept verbatim as the differential witness:
/// it copies every string and body out of the payload the way the
/// original decode path did, so the proptests below can assert the
/// zero-copy [`Message::decode`] produces identical values (and identical
/// error outcomes) over the malformed-frame corpus. It lives here, with
/// its only caller; the library has one decoder.
fn decode_message_legacy(ty: u8, payload: &[u8]) -> io::Result<Message> {
    fn legacy_string(buf: &mut &[u8]) -> io::Result<String> {
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
        let bytes = buf.copy_to_bytes(len);
        String::from_utf8(bytes.to_vec()).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
    fn legacy_bytes(buf: &mut &[u8]) -> io::Result<Bytes> {
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
    let buf = &mut &payload[..];
    let msg = match ty {
        T_GET => Message::Get {
            url: legacy_string(buf)?,
        },
        T_PEER_GET => Message::PeerGet {
            url: legacy_string(buf)?,
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
                body: legacy_bytes(buf)?,
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
            let url = legacy_string(buf)?;
            if buf.remaining() < 4 {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "short push"));
            }
            let version = buf.get_u32_le();
            Message::Push {
                url,
                version,
                body: legacy_bytes(buf)?,
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
            let url = legacy_string(buf)?;
            if buf.remaining() < 4 {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "short put"));
            }
            let version = buf.get_u32_le();
            Message::OriginPut {
                url,
                version,
                body: legacy_bytes(buf)?,
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
            let path = legacy_string(buf)?;
            let value = legacy_string(buf)?;
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
                let path = legacy_string(buf)?;
                let value = legacy_string(buf)?;
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

fn arb_url() -> BoxedStrategy<String> {
    // Mostly URL-ish ASCII, with arbitrary unicode mixed in: the format
    // carries any UTF-8 string.
    prop_oneof![
        (any::<u64>(), 0usize..40).prop_map(|(key, extra)| {
            let mut url = format!("http://host-{}.test/obj/{key:x}", key % 17);
            for i in 0..extra {
                url.push(char::from(b'a' + (i % 26) as u8));
            }
            url
        }),
        proptest::collection::vec(any::<char>(), 0..24)
            .prop_map(|chars| chars.into_iter().collect::<String>()),
    ]
    .boxed()
}

fn arb_body() -> BoxedStrategy<Bytes> {
    proptest::collection::vec(any::<u8>(), 0..2048)
        .prop_map(Bytes::from)
        .boxed()
}

fn arb_hint_update() -> BoxedStrategy<HintUpdate> {
    (any::<bool>(), any::<u64>(), any::<u64>())
        .prop_map(|(add, object, machine)| HintUpdate {
            action: if add {
                HintAction::Add
            } else {
                HintAction::Remove
            },
            object,
            machine: MachineId(machine),
        })
        .boxed()
}

fn arb_status() -> BoxedStrategy<Status> {
    prop_oneof![
        Just(Status::Ok),
        Just(Status::NotFound),
        Just(Status::Error),
        Just(Status::Redirect),
    ]
    .boxed()
}

fn arb_served_by() -> BoxedStrategy<ServedBy> {
    prop_oneof![
        Just(ServedBy::Local),
        Just(ServedBy::Origin),
        any::<u64>().prop_map(|m| ServedBy::Peer(MachineId(m))),
    ]
    .boxed()
}

fn arb_meta_op() -> BoxedStrategy<MetaOp> {
    prop_oneof![Just(MetaOp::Get), Just(MetaOp::List), Just(MetaOp::Set),].boxed()
}

fn arb_meta_status() -> BoxedStrategy<MetaStatus> {
    prop_oneof![
        Just(MetaStatus::Ok),
        Just(MetaStatus::NotFound),
        Just(MetaStatus::Denied),
        Just(MetaStatus::Invalid),
    ]
    .boxed()
}

fn arb_meta_path() -> BoxedStrategy<String> {
    // Mostly namespace-shaped paths, with arbitrary unicode mixed in: the
    // codec carries any UTF-8 string; path validation is the resolver's job.
    prop_oneof![
        (any::<u64>(), 0usize..4).prop_map(|(id, depth)| {
            let mut path = format!("mesh/nodes/{}", id % 9);
            for seg in ["metrics", "hints", "pool", "control"].iter().take(depth) {
                path.push('/');
                path.push_str(seg);
            }
            path
        }),
        proptest::collection::vec(any::<char>(), 0..24)
            .prop_map(|chars| chars.into_iter().collect::<String>()),
    ]
    .boxed()
}

fn arb_meta_entry() -> BoxedStrategy<MetaEntry> {
    (
        arb_meta_path(),
        proptest::collection::vec(any::<char>(), 0..16),
    )
        .prop_map(|(path, chars)| MetaEntry {
            path,
            value: chars.into_iter().collect(),
        })
        .boxed()
}

/// Every frame type in the protocol.
fn arb_message() -> BoxedStrategy<Message> {
    prop_oneof![
        arb_url().prop_map(|url| Message::Get { url }),
        arb_url().prop_map(|url| Message::PeerGet { url }),
        (arb_status(), any::<u32>(), arb_served_by(), arb_body()).prop_map(
            |(status, version, served_by, body)| Message::GetReply {
                status,
                version,
                served_by,
                body
            }
        ),
        (
            any::<u64>(),
            proptest::collection::vec(arb_hint_update(), 0..64)
        )
            .prop_map(|(sender, updates)| Message::hint_batch(MachineId(sender), updates)),
        (arb_url(), any::<u32>(), arb_body()).prop_map(|(url, version, body)| Message::Push {
            url,
            version,
            body
        }),
        any::<u64>().prop_map(|key| Message::FindNearest { key }),
        prop_oneof![
            Just(Message::FindNearestReply { location: None }),
            any::<u64>().prop_map(|m| Message::FindNearestReply {
                location: Some(MachineId(m))
            }),
        ],
        (arb_url(), any::<u32>(), arb_body()).prop_map(|(url, version, body)| Message::OriginPut {
            url,
            version,
            body
        }),
        Just(Message::Ack),
        Just(Message::Ping),
        Just(Message::Resync),
        (
            arb_meta_op(),
            arb_meta_path(),
            proptest::collection::vec(any::<char>(), 0..16)
        )
            .prop_map(|(op, path, value)| Message::MetaRequest {
                op,
                path,
                value: value.into_iter().collect(),
            }),
        (
            arb_meta_status(),
            proptest::collection::vec(arb_meta_entry(), 0..32)
        )
            .prop_map(|(status, entries)| Message::MetaReply { status, entries }),
    ]
    .boxed()
}

/// Splits `frame` into `(type, payload)` as the assembler would.
fn frame_parts(frame: &[u8]) -> (u8, Bytes) {
    assert!(frame.len() >= 5, "frame shorter than its header");
    let len = u32::from_le_bytes([frame[0], frame[1], frame[2], frame[3]]) as usize;
    assert_eq!(len + 5, frame.len(), "length prefix must cover the payload");
    (frame[4], Bytes::from(frame[5..].to_vec()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// encode → FrameAssembler → decode is the identity for every frame
    /// type (the path the sharded engine uses).
    #[test]
    fn round_trips_through_assembler(msg in arb_message()) {
        let mut assembler = FrameAssembler::new();
        assembler.extend(&msg.encoded());
        let decoded = assembler.next_message();
        prop_assert!(decoded.is_ok(), "decode failed: {:?}", decoded);
        prop_assert_eq!(decoded.unwrap(), Some(msg));
        prop_assert_eq!(assembler.buffered(), 0);
    }

    /// write_message → read_message is the identity (the blocking path the
    /// client, pool, and origin use).
    #[test]
    fn round_trips_through_streams(msg in arb_message()) {
        let mut buf = Vec::new();
        write_message(&mut buf, &msg).expect("write to vec");
        let decoded = read_message(&mut Cursor::new(buf));
        prop_assert!(decoded.is_ok(), "decode failed: {:?}", decoded);
        prop_assert_eq!(decoded.unwrap(), msg);
    }

    /// Reassembly is byte-boundary independent: delivering the frame in
    /// arbitrary chunks yields the same message.
    #[test]
    fn round_trips_split_delivery(msg in arb_message(), cut in any::<u64>()) {
        let frame = msg.encoded();
        let cut = 1 + (cut as usize) % frame.len().max(1);
        let mut assembler = FrameAssembler::new();
        assembler.extend(&frame[..cut.min(frame.len())]);
        if cut < frame.len() {
            // Nothing complete yet or a full message, never an error.
            let early = assembler.next_message();
            prop_assert!(early.is_ok(), "partial frame errored: {:?}", early);
            assembler.extend(&frame[cut..]);
        }
        let decoded = assembler.next_message();
        prop_assert!(decoded.is_ok(), "decode failed: {:?}", decoded);
        prop_assert_eq!(decoded.unwrap(), Some(msg));
    }

    /// Every strict prefix of a valid payload is rejected with an error —
    /// truncation can never produce a bogus message or a panic.
    #[test]
    fn truncated_payloads_error(msg in arb_message()) {
        let (ty, payload) = frame_parts(&msg.encoded());
        for cut in 0..payload.len() {
            let truncated = payload.slice(0..cut);
            let result = Message::decode(ty, truncated);
            prop_assert!(result.is_err(), "prefix {}/{} decoded: {:?}", cut, payload.len(), result);
        }
    }

    /// Arbitrary single-byte corruption anywhere in the payload either
    /// decodes to something or errors — it never panics.
    #[test]
    fn corrupted_payloads_never_panic(
        msg in arb_message(),
        pos in any::<u64>(),
        xor in 1u8..=255,
    ) {
        let (ty, payload) = frame_parts(&msg.encoded());
        let mut bytes = payload.to_vec();
        if !bytes.is_empty() {
            let pos = (pos as usize) % bytes.len();
            bytes[pos] ^= xor;
        }
        let _ = Message::decode(ty, Bytes::from(bytes));
    }

    /// Fully random `(type, payload)` pairs never panic the decoder.
    #[test]
    fn random_garbage_never_panics(
        ty in any::<u8>(),
        payload in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let _ = Message::decode(ty, Bytes::from(payload));
    }

    /// Unknown frame types — never-assigned tags and the retired ones
    /// (4 and 13–16, see the tag table in `wire.rs`) — are always
    /// rejected, by both decoders, whatever the payload.
    #[test]
    fn unknown_frame_types_error(
        ty in prop_oneof![Just(4u8), 13u8..=16, 19u8..=255],
        payload in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        prop_assert!(decode_message_legacy(ty, &payload).is_err());
        prop_assert!(Message::decode(ty, Bytes::from(payload)).is_err());
    }

    /// The zero-copy decoder is value-identical to the retained legacy
    /// (copy-everything) decoder on every valid frame.
    #[test]
    fn zero_copy_decode_matches_legacy_on_valid_frames(msg in arb_message()) {
        let (ty, payload) = frame_parts(&msg.encoded());
        let legacy = decode_message_legacy(ty, &payload).expect("legacy rejects valid frame");
        let zero_copy = Message::decode(ty, payload).expect("zero-copy rejects valid frame");
        prop_assert_eq!(&zero_copy, &legacy);
        prop_assert_eq!(zero_copy, msg);
    }

    /// ...and outcome-identical over the malformed-frame corpus: for every
    /// strict prefix and every single-byte corruption of a valid payload,
    /// either both decoders error or both produce the same message.
    #[test]
    fn zero_copy_decode_matches_legacy_on_malformed_frames(
        msg in arb_message(),
        pos in any::<u64>(),
        xor in 1u8..=255,
    ) {
        let (ty, payload) = frame_parts(&msg.encoded());
        for cut in 0..payload.len() {
            let truncated = payload.slice(0..cut);
            let legacy = decode_message_legacy(ty, &truncated);
            let zero_copy = Message::decode(ty, truncated);
            prop_assert!(legacy.is_err() && zero_copy.is_err(),
                "prefix {}/{}: legacy {:?} vs zero-copy {:?}", cut, payload.len(), legacy, zero_copy);
        }
        let mut corrupted = payload.to_vec();
        if !corrupted.is_empty() {
            let pos = (pos as usize) % corrupted.len();
            corrupted[pos] ^= xor;
        }
        let legacy = decode_message_legacy(ty, &corrupted);
        let zero_copy = Message::decode(ty, Bytes::from(corrupted));
        match (legacy, zero_copy) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
            (Err(_), Err(_)) => {}
            (a, b) => prop_assert!(false, "decoders diverged: legacy {:?} vs zero-copy {:?}", a, b),
        }
    }

    /// Fully random payloads: the two decoders agree on accept/reject and
    /// on the decoded value when both accept.
    #[test]
    fn zero_copy_decode_matches_legacy_on_garbage(
        ty in any::<u8>(),
        payload in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let legacy = decode_message_legacy(ty, &payload);
        let zero_copy = Message::decode(ty, Bytes::from(payload));
        match (legacy, zero_copy) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
            (Err(_), Err(_)) => {}
            (a, b) => prop_assert!(false, "decoders diverged: legacy {:?} vs zero-copy {:?}", a, b),
        }
    }
}

/// Sizes of 1..=`most` bytes, different on every call.
struct Sizes {
    most: usize,
    state: u64,
}

impl Sizes {
    fn next(&mut self) -> usize {
        self.state = self
            .state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        1 + (self.state >> 33) as usize % self.most
    }
}

/// A stream that hands out its bytes a few at a time, as a socket may.
struct Dribble<'a> {
    data: &'a [u8],
    sizes: Sizes,
}

impl Read for Dribble<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.sizes.next().min(buf.len()).min(self.data.len());
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

/// A sink that takes a few bytes per call, across whatever segments it is
/// offered, as a socket may.
struct Trickle {
    taken: Vec<u8>,
    sizes: Sizes,
}

impl Write for Trickle {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.write_vectored(&[IoSlice::new(buf)])
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        let mut left = self.sizes.next();
        let before = self.taken.len();
        for buf in bufs {
            let n = left.min(buf.len());
            self.taken.extend_from_slice(&buf[..n]);
            left -= n;
        }
        Ok(self.taken.len() - before)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A reply whose body sits on either side of the by-reference threshold.
fn arb_reply_around_a_page() -> BoxedStrategy<Message> {
    (
        arb_served_by(),
        prop_oneof![Just(4095usize), Just(4096), Just(4097), Just(9000)],
        any::<u8>(),
    )
        .prop_map(|(served_by, len, fill)| Message::GetReply {
            status: Status::Ok,
            version: len as u32,
            served_by,
            body: Bytes::from((0..len).map(|i| i as u8 ^ fill).collect::<Vec<u8>>()),
        })
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `read_message` over a stream that arrives 1..=k bytes per `read` —
    /// bare, or behind a small `BufReader` as in the pool — yields what
    /// the assembler yields for the same bytes, then a clean EOF.
    #[test]
    fn read_message_matches_the_assembler_over_dribbled_streams(
        small in proptest::collection::vec(arb_message(), 0..6),
        large in arb_reply_around_a_page(),
        at in any::<u64>(),
        most in 1usize..600,
        buffered in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut msgs = small;
        msgs.insert(at as usize % (msgs.len() + 1), large);
        let stream: Vec<u8> = msgs.iter().flat_map(|m| m.encoded().to_vec()).collect();

        let mut assembler = FrameAssembler::new();
        assembler.extend(&stream);
        let mut assembled = Vec::new();
        while let Some(msg) = assembler.next_message().expect("clean stream") {
            assembled.push(msg);
        }
        prop_assert_eq!(&assembled, &msgs);

        let dribble = Dribble { data: &stream, sizes: Sizes { most, state: seed } };
        let mut reader: Box<dyn Read> = if buffered {
            Box::new(io::BufReader::with_capacity(64, dribble))
        } else {
            Box::new(dribble)
        };
        for expected in &assembled {
            let got = read_message(&mut reader);
            prop_assert!(got.is_ok(), "read failed: {:?}", got);
            prop_assert_eq!(&got.unwrap(), expected);
        }
        let end = read_message(&mut reader).expect_err("read past the end");
        prop_assert_eq!(end.kind(), io::ErrorKind::UnexpectedEof);
    }

    /// A stream that ends anywhere inside a frame is `UnexpectedEof`:
    /// never a short body, never a message.
    #[test]
    fn a_stream_cut_inside_a_frame_is_unexpected_eof(
        msg in prop_oneof![arb_message(), arb_reply_around_a_page()],
        most in 1usize..6000,
        seed in any::<u64>(),
    ) {
        let frame = msg.encoded();
        for cut in 0..frame.len() {
            let mut stream = Dribble { data: &frame[..cut], sizes: Sizes { most, state: seed } };
            let got = read_message(&mut stream);
            prop_assert!(
                matches!(&got, Err(e) if e.kind() == io::ErrorKind::UnexpectedEof),
                "cut at {}/{}: {:?}", cut, frame.len(), got
            );
        }
    }

    /// `write_message` puts the flat encoding on the wire whether the
    /// body is copied into the frame or sent as its own segment, and
    /// however few bytes the sink takes per call.
    #[test]
    fn write_message_is_the_flat_encoding_through_any_sink(
        msg in prop_oneof![arb_message(), arb_reply_around_a_page()],
        most in 1usize..6000,
        seed in any::<u64>(),
    ) {
        let mut sink = Trickle { taken: Vec::new(), sizes: Sizes { most, state: seed } };
        write_message(&mut sink, &msg).expect("write");
        prop_assert!(sink.taken == msg.encoded()[..], "bytes on the wire differ from the encoding");
    }
}

/// A length prefix larger than `MAX_FRAME` is rejected up front by both
/// framed readers, before any allocation of that size.
#[test]
fn oversized_frames_rejected() {
    let mut frame = Vec::new();
    frame.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
    frame.push(1); // T_GET
    frame.extend_from_slice(&[0u8; 32]);

    let mut assembler = FrameAssembler::new();
    assembler.extend(&frame);
    assert!(
        assembler.next_message().is_err(),
        "assembler must reject oversized frames"
    );

    assert!(
        read_message(&mut Cursor::new(frame)).is_err(),
        "read_message must reject too"
    );
}

/// A batch whose count field promises more records than `MAX_FRAME` could
/// hold is rejected without attempting the allocation.
#[test]
fn oversized_batch_counts_rejected() {
    let mut payload = vec![bh_proto::wire::HINT_BATCH_VERSION];
    payload.extend_from_slice(&7u64.to_le_bytes()); // sender
    payload.extend_from_slice(&u32::MAX.to_le_bytes());
    payload.extend_from_slice(&[0u8; 40]);
    let err = Message::decode(10, Bytes::from(payload)); // T_HINT_BATCH
    assert_eq!(
        err.expect_err("absurd batch count accepted").to_string(),
        "oversized batch"
    );
}

/// `HintBatch` decoding is strictly versioned: a version byte newer than
/// ours errors instead of misparsing records.
#[test]
fn hint_batch_future_version_rejected() {
    let update = HintUpdate {
        action: HintAction::Add,
        object: 7,
        machine: MachineId(3),
    };
    let (ty, payload) = frame_parts(&Message::hint_batch(MachineId(1), vec![update]).encoded());
    let mut bytes = payload.to_vec();
    bytes[0] = bh_proto::wire::HINT_BATCH_VERSION + 1;
    assert!(Message::decode(ty, Bytes::from(bytes)).is_err());
}

/// A corrupted batch still *decodes* (authentication is the node's job,
/// not the codec's) but its embedded tag no longer verifies — for any
/// single-byte corruption of the records region.
#[test]
fn corrupted_hint_batch_fails_tag_verification() {
    let updates: Vec<HintUpdate> = (1..=4)
        .map(|i| HintUpdate {
            action: HintAction::Add,
            object: i,
            machine: MachineId(i << 16),
        })
        .collect();
    let sender = MachineId(9 << 16);
    let (ty, payload) = frame_parts(&Message::hint_batch(sender, updates).encoded());
    // Records region: after version(1) + sender(8) + count(4), before the
    // 16-byte trailing tag.
    for pos in 13..payload.len() - 16 {
        let mut bytes = payload.to_vec();
        bytes[pos] ^= 0x01;
        match Message::decode(ty, Bytes::from(bytes)) {
            Ok(Message::HintBatch {
                sender: s,
                updates: u,
                tag,
            }) => {
                assert_ne!(
                    bh_proto::wire::hint_batch_tag(s, &u),
                    tag,
                    "corruption at byte {pos} went undetected"
                );
            }
            Ok(other) => panic!("decoded to a different frame: {other:?}"),
            Err(_) => {} // rejected outright is fine too (bad action code)
        }
    }
}
