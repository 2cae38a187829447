//! A connection's out-queue: every reply byte the socket has yet to take,
//! oldest first, with no body of a page or more ever copied.
//!
//! Frames are encoded by [`Message::encode_split`] into one flat buffer —
//! headers, and every frame whose body is under
//! [`BODY_BY_REF`](crate::wire::BODY_BY_REF) whole — and a larger body is
//! spliced in at its place as the refcounted [`Bytes`] it arrived in or is
//! cached as. A queue that only ever sees small replies is that flat
//! buffer, written with one `write` and cleared, allocation kept; one
//! that holds bodies leaves through `writev`, and the bytes are moved
//! once, by the kernel.
//!
//! A partial write moves a cursor, never the bytes behind it.
//!
//! Two writers drain it: a node's connection engine, on a non-blocking
//! socket once per readiness event (`engine::write_out`), and the origin
//! server, on a blocking socket once per pipelined run before it reads
//! again (`origin::serve`).

use crate::wire::Message;
use bh_netpoll::MAX_IOV;
use bytes::{BufMut, Bytes, BytesMut};
use std::collections::VecDeque;
use std::io::{self, IoSlice};

/// Unsent reply bytes past which nothing more is encoded, serviced or
/// read on a connection until the socket has taken them: a run's replies
/// leave in writes of about this size, and a client that does not read
/// stalls here, at a node and at the origin alike. Referenced bodies
/// count like copied ones.
pub(crate) const OUT_CAP: usize = 64 * 1024;

/// Initial capacity of the flat buffer.
const FLAT_BUF: usize = 4096;

/// A body sent from where it already is, after `flat[..at]`.
struct Splice {
    at: usize,
    body: Bytes,
}

pub(crate) struct OutQueue {
    /// Everything that is not a referenced body, in order.
    flat: BytesMut,
    /// Bytes of `flat` the socket has taken.
    flat_sent: usize,
    /// The referenced bodies still owed, oldest first; `at` never
    /// decreases and is never below `flat_sent`.
    bodies: VecDeque<Splice>,
    /// Bytes of `bodies[0]` the socket has taken; nonzero only once
    /// `flat_sent` has reached its `at`.
    body_sent: usize,
    /// Bytes owed: the unsent rest of `flat` and of every body.
    len: usize,
}

impl OutQueue {
    pub(crate) fn new() -> OutQueue {
        OutQueue {
            flat: BytesMut::with_capacity(FLAT_BUF),
            flat_sent: 0,
            bodies: VecDeque::new(),
            body_sent: 0,
            len: 0,
        }
    }

    /// Bytes the socket has yet to take.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the queue holds [`OUT_CAP`] bytes or more.
    pub(crate) fn is_full(&self) -> bool {
        self.len() >= OUT_CAP
    }

    /// Queues `msg`'s frame behind everything already owed.
    pub(crate) fn push(&mut self, msg: &Message) {
        let before = self.flat.len();
        let by_ref = msg.encode_split(&mut self.flat);
        self.len += self.flat.len() - before;
        if let Some(body) = by_ref {
            self.len += body.len();
            self.bodies.push_back(Splice {
                at: self.flat.len(),
                body: body.clone(),
            });
        }
    }

    /// The bytes owed, oldest first: the stretch of `flat` before each
    /// body, that body, and what `flat` holds past the last one.
    fn segments(&self) -> impl Iterator<Item = &[u8]> {
        let mut at = self.flat_sent;
        let mut skip = self.body_sent;
        let last = self.bodies.back().map_or(at, |splice| splice.at);
        self.bodies
            .iter()
            .flat_map(move |splice| {
                let stretch = &self.flat[at..splice.at];
                at = splice.at;
                [stretch, &splice.body[std::mem::take(&mut skip)..]]
            })
            .chain([&self.flat[last..]])
            .filter(|segment| !segment.is_empty())
    }

    /// Offers `write` the bytes owed, oldest first, as at most
    /// [`MAX_IOV`] segments, and drops from the queue as many bytes as it
    /// reports taken. Must not be called on an empty queue.
    pub(crate) fn write_with(
        &mut self,
        write: impl FnOnce(&[IoSlice<'_>]) -> io::Result<usize>,
    ) -> io::Result<usize> {
        let taken = if self.bodies.is_empty() {
            write(&[IoSlice::new(&self.flat[self.flat_sent..])])?
        } else {
            let mut iov = [IoSlice::new(&[]); MAX_IOV];
            let mut used = 0;
            for (slot, segment) in iov.iter_mut().zip(self.segments()) {
                *slot = IoSlice::new(segment);
                used += 1;
            }
            write(&iov[..used])?
        };
        self.advance(taken);
        Ok(taken)
    }

    /// Moves the cursor past `n` bytes the socket took.
    fn advance(&mut self, mut n: usize) {
        self.len -= n;
        loop {
            let flat_end = self.bodies.front().map_or(self.flat.len(), |s| s.at);
            let of_flat = n.min(flat_end - self.flat_sent);
            self.flat_sent += of_flat;
            n -= of_flat;
            let Some(front) = self.bodies.front() else {
                break;
            };
            let left = front.body.len() - self.body_sent;
            if n < left {
                self.body_sent += n;
                break;
            }
            n -= left;
            self.body_sent = 0;
            self.bodies.pop_front();
        }
        if self.len == 0 {
            // A buffer that one large frame stretched is not kept that way.
            if self.flat.len() > 2 * OUT_CAP {
                self.flat = BytesMut::with_capacity(FLAT_BUF);
            } else {
                self.flat.clear();
            }
            self.flat_sent = 0;
        } else if self.flat_sent > OUT_CAP {
            // Never quite drained (a client that reads, but slowly): drop
            // the sent front of `flat`, which a clear would have.
            let mut rest = BytesMut::with_capacity(self.flat.len() - self.flat_sent + FLAT_BUF);
            rest.put_slice(&self.flat[self.flat_sent..]);
            for splice in &mut self.bodies {
                splice.at -= self.flat_sent;
            }
            self.flat = rest;
            self.flat_sent = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{MachineId, ServedBy, Status};
    use proptest::prelude::*;

    /// Body lengths around everything the queue branches on: empty, tiny,
    /// either side of the by-reference threshold, and a whole out-cap.
    const BODY_LENS: [usize; 7] = [0, 1, 127, 4095, 4096, 4097, 65_536];

    /// A reply whose body is `BODY_LENS[pick % 7]` bytes of a pattern
    /// seeded by `pick`; one draw in eight is a bodiless `Ack` instead.
    fn reply(pick: u64) -> Message {
        if pick % 8 == 7 {
            return Message::Ack;
        }
        let len = BODY_LENS[(pick % 7) as usize];
        let body: Vec<u8> = (0..len).map(|i| (i as u64 ^ pick) as u8).collect();
        Message::GetReply {
            status: Status::Ok,
            version: pick as u32,
            served_by: if pick.is_multiple_of(2) {
                ServedBy::Local
            } else {
                ServedBy::Peer(MachineId(pick))
            },
            body: Bytes::from(body),
        }
    }

    /// Where a referenced body sits in the byte stream, and in memory.
    struct ByRef {
        start: usize,
        end: usize,
        at: *const u8,
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random replies pushed in random groupings and drained through
        /// a writer that takes a random number of bytes per call — cuts
        /// inside headers, inside bodies, past `MAX_IOV` segments — or
        /// takes nothing (`WouldBlock`): the bytes out are the
        /// concatenation of `encode_into` of the same replies, `len()` is
        /// what is still owed after every step, and a body of a page or
        /// more is only ever offered as the memory it already sits in.
        #[test]
        fn drains_to_the_flat_encoding_through_any_writer(
            picks in proptest::collection::vec(any::<u64>(), 1..200),
            script in proptest::collection::vec(any::<u64>(), 200..201),
        ) {
            let replies: Vec<Message> = picks.iter().map(|&p| reply(p)).collect();
            let mut expected = BytesMut::with_capacity(0);
            let mut by_ref = Vec::with_capacity(replies.len());
            for r in &replies {
                let start = expected.len();
                r.encode_into(&mut expected);
                if let Message::GetReply { body, .. } = r {
                    if body.len() >= crate::wire::BODY_BY_REF {
                        let end = expected.len();
                        by_ref.push(ByRef { start: end - body.len(), end, at: body.as_ptr() });
                    }
                }
                prop_assert!(expected.len() > start);
            }

            let mut queue = OutQueue::new();
            let mut pushed = 0; // replies
            let mut owed = 0; // bytes pushed and not yet taken
            let mut out: Vec<u8> = Vec::with_capacity(expected.len());
            let mut script = script.into_iter().cycle();
            let mut draw = || script.next().unwrap_or(0);
            while pushed < replies.len() || !queue.is_empty() {
                let step = draw();
                if pushed < replies.len() && (queue.is_empty() || step.is_multiple_of(3)) {
                    // Push a group of 1..=200 replies: past `MAX_IOV`
                    // segments about one time in three.
                    let group = 1 + (step / 3 % 200) as usize;
                    for r in replies.iter().skip(pushed).take(group) {
                        queue.push(r);
                        owed += r.encoded().len();
                        pushed += 1;
                    }
                } else {
                    let would_block = step % 16 == 1;
                    let small = step % 4 == 2;
                    let took = queue.write_with(|segments| {
                        assert!(!segments.is_empty() && segments.len() <= MAX_IOV);
                        let mut at = out.len();
                        for seg in segments {
                            assert!(!seg.is_empty(), "an empty segment was offered");
                            for b in by_ref.iter().filter(|b| at < b.end && at + seg.len() > b.start) {
                                assert!(at >= b.start && at + seg.len() <= b.end, "a body shares a segment");
                                assert_eq!(seg.as_ptr(), b.at.wrapping_add(at - b.start), "a body was copied");
                            }
                            at += seg.len();
                        }
                        if would_block {
                            return Err(io::ErrorKind::WouldBlock.into());
                        }
                        let offered = at - out.len();
                        let most = if small { offered.min(48) } else { offered };
                        let take = 1 + (step / 16) as usize % most;
                        let mut left = take;
                        for seg in segments {
                            let n = left.min(seg.len());
                            out.extend_from_slice(&seg[..n]);
                            left -= n;
                        }
                        Ok(take)
                    });
                    match took {
                        Ok(n) => owed -= n,
                        Err(e) => prop_assert_eq!(e.kind(), io::ErrorKind::WouldBlock),
                    }
                }
                prop_assert_eq!(queue.len(), owed);
                prop_assert_eq!(queue.is_full(), owed >= OUT_CAP);
            }
            prop_assert_eq!(owed, 0);
            prop_assert!(out == expected[..], "the drained bytes differ from the flat encoding");
        }
    }

    /// A queue of small replies is one flat segment, written and cleared
    /// in place: the path `local_hit` and `origin_fill` replies take.
    #[test]
    fn small_replies_stay_one_flat_segment() {
        let mut queue = OutQueue::new();
        for round in 0..3 {
            for pick in [1, 2, 3, 7] {
                queue.push(&reply(pick));
            }
            let owed = queue.len();
            let took = queue
                .write_with(|segments| {
                    assert_eq!(segments.len(), 1, "round {round}");
                    Ok(segments[0].len())
                })
                .expect("write");
            assert_eq!(took, owed);
            assert!(queue.is_empty());
        }
    }
}
