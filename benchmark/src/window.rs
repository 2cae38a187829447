//! The load generator: one thread keeps a sliding window of requests in
//! flight over a fixed set of client connections.
//!
//! Never one request in flight: with a single outstanding request the
//! server threads sleep between requests and the run measures the
//! scheduler's wake-up latency, which on a 2-core box is bimodal. The
//! window is topped up to `window` requests, then the generator reads
//! until the oldest half has completed, and tops up again.

use bh_proto::wire::{FrameAssembler, Message};
use bytes::Bytes;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
use std::time::Duration;

use crate::clock::now_ns;

/// A request that has been queued or written and not yet answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pending {
    /// Global request index.
    pub op: u64,
    /// Index of the requested URL in the workload's URL table.
    pub url: u32,
    /// When the write that carried it was issued.
    pub sent_ns: u64,
}

/// Per-connection request bookkeeping. The server answers a connection's
/// requests in order, so the next reply always belongs to the oldest
/// pending request.
#[derive(Debug, Default)]
pub struct PendingFifo {
    fifo: VecDeque<Pending>,
    /// Trailing entries whose frames sit in the write buffer, unwritten.
    unsent: usize,
}

impl PendingFifo {
    /// Notes a request whose frame was appended to the write buffer.
    pub fn queue(&mut self, op: u64, url: u32) {
        self.fifo.push_back(Pending {
            op,
            url,
            sent_ns: 0,
        });
        self.unsent += 1;
    }

    /// Stamps every queued-but-unwritten request with the time of the
    /// write that carries it.
    pub fn mark_sent(&mut self, sent_ns: u64) {
        let len = self.fifo.len();
        for p in self.fifo.range_mut(len - self.unsent..) {
            p.sent_ns = sent_ns;
        }
        self.unsent = 0;
    }

    /// Whether frames are waiting in the write buffer.
    pub fn has_unsent(&self) -> bool {
        self.unsent > 0
    }

    /// Matches the next reply to its request. `None` means the server
    /// sent a reply to nothing this side has written.
    pub fn complete(&mut self) -> Option<Pending> {
        if self.fifo.len() <= self.unsent {
            return None;
        }
        self.fifo.pop_front()
    }

    /// Requests queued or written and not yet answered.
    #[cfg(test)]
    pub fn outstanding(&self) -> usize {
        self.fifo.len()
    }
}

/// One client connection: blocking socket, reply reassembly, write buffer.
#[derive(Debug)]
pub struct ClientConn {
    stream: TcpStream,
    assembler: FrameAssembler,
    wbuf: Vec<u8>,
    rbuf: Vec<u8>,
    pending: PendingFifo,
    /// Replies parsed whose requests the window has not retired yet.
    unclaimed: usize,
    /// `read` calls that returned data.
    pub reads: u64,
}

impl ClientConn {
    /// Connects to `addr`. Reads time out, so a wedged server fails the
    /// workload instead of hanging it.
    pub fn open(addr: SocketAddr) -> io::Result<ClientConn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(20)))?;
        stream.set_write_timeout(Some(Duration::from_secs(20)))?;
        Ok(ClientConn {
            stream,
            assembler: FrameAssembler::new(),
            wbuf: Vec::with_capacity(16 * 1024),
            rbuf: vec![0u8; 256 * 1024],
            pending: PendingFifo::default(),
            unclaimed: 0,
            reads: 0,
        })
    }

    fn flush_writes(&mut self) -> io::Result<()> {
        if self.pending.has_unsent() {
            self.pending.mark_sent(now_ns());
            self.stream.write_all(&self.wbuf)?;
            self.wbuf.clear();
        }
        Ok(())
    }

    /// One blocking read; every reply it completes goes to `sink`.
    fn read_replies(&mut self, sink: &mut impl ReplySink) -> io::Result<()> {
        let n = self.stream.read(&mut self.rbuf)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        let recv_ns = now_ns();
        self.reads += 1;
        self.assembler.extend(&self.rbuf[..n]);
        while let Some(msg) = self.assembler.next_message()? {
            let pending = self.pending.complete().ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidData, "reply without a request")
            })?;
            self.unclaimed += 1;
            sink.reply(pending, recv_ns, msg);
        }
        Ok(())
    }
}

/// Receives each reply with the request it answers.
pub trait ReplySink {
    /// `recv_ns` is the time of the read that returned the reply's last
    /// byte.
    fn reply(&mut self, request: Pending, recv_ns: u64, reply: Message);
}

/// The generator: its connections and the issue order of what is in flight.
#[derive(Debug)]
pub struct Generator {
    /// The client connections; a workload uses exactly two.
    pub conns: Vec<ClientConn>,
    /// Connection index of every in-flight request, oldest first.
    order: VecDeque<u8>,
}

impl Generator {
    /// Opens one connection per address.
    pub fn connect(addrs: &[SocketAddr]) -> io::Result<Generator> {
        Ok(Generator {
            conns: addrs
                .iter()
                .map(|a| ClientConn::open(*a))
                .collect::<io::Result<_>>()?,
            order: VecDeque::new(),
        })
    }

    /// Issues requests `ops` with at most `window` in flight and returns
    /// once every one of them is answered (the window is drained, so the
    /// caller may flush hint updates at a point that depends only on the
    /// request index). `route(op)` names the connection and URL of a
    /// request; `frames[url]` is its encoded `Get` frame.
    ///
    /// # Errors
    ///
    /// Fails on connection loss, a read time-out or an unframeable reply;
    /// requests still in flight then never reach the sink.
    pub fn run(
        &mut self,
        ops: Range<u64>,
        window: usize,
        route: &impl Fn(u64) -> (usize, u32),
        frames: &[Bytes],
        sink: &mut impl ReplySink,
    ) -> io::Result<()> {
        let mut next = ops.start;
        loop {
            while self.order.len() < window && next < ops.end {
                let (conn, url) = route(next);
                let c = &mut self.conns[conn];
                c.wbuf.extend_from_slice(&frames[url as usize]);
                c.pending.queue(next, url);
                self.order.push_back(conn as u8);
                next += 1;
            }
            for c in &mut self.conns {
                c.flush_writes()?;
            }
            if self.order.is_empty() {
                return Ok(());
            }
            let target = if next < ops.end { window / 2 } else { 0 };
            while self.order.len() > target {
                let oldest = &mut self.conns[usize::from(self.order[0])];
                while oldest.unclaimed == 0 {
                    oldest.read_replies(sink)?;
                }
                oldest.unclaimed -= 1;
                self.order.pop_front();
            }
        }
    }

    /// `read` calls that returned data, over all connections.
    pub fn reads(&self) -> u64 {
        self.conns.iter().map(|c| c.reads).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replies_match_send_times_in_order() {
        let mut fifo = PendingFifo::default();
        fifo.queue(0, 10);
        fifo.queue(1, 11);
        assert!(fifo.has_unsent());
        fifo.mark_sent(100);
        // A second batch is written later; the first keeps its stamp.
        fifo.queue(2, 12);
        fifo.mark_sent(250);
        assert!(!fifo.has_unsent());
        assert_eq!(fifo.outstanding(), 3);
        let got: Vec<Pending> = std::iter::from_fn(|| fifo.complete()).collect();
        assert_eq!(
            got,
            vec![
                Pending {
                    op: 0,
                    url: 10,
                    sent_ns: 100
                },
                Pending {
                    op: 1,
                    url: 11,
                    sent_ns: 100
                },
                Pending {
                    op: 2,
                    url: 12,
                    sent_ns: 250
                },
            ]
        );
        assert_eq!(fifo.outstanding(), 0);
    }

    #[test]
    fn mark_sent_without_queued_requests_is_a_no_op() {
        let mut fifo = PendingFifo::default();
        fifo.queue(5, 1);
        fifo.mark_sent(7);
        fifo.mark_sent(9);
        assert_eq!(fifo.complete().map(|p| p.sent_ns), Some(7));
        assert_eq!(fifo.complete(), None);
    }

    /// The generator against an in-process server that answers each `Get`
    /// with its URL as the body: every reply reaches the sink with its own
    /// request, and `run` returns with nothing in flight.
    #[test]
    fn generator_matches_replies_and_drains() {
        use bh_proto::wire::{read_message, write_message, ServedBy, Status};
        use std::net::TcpListener;

        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            let conns: Vec<_> = (0..2)
                .map(|_| {
                    let (mut stream, _) = listener.accept().expect("accept");
                    std::thread::spawn(move || {
                        while let Ok(Message::Get { url }) = read_message(&mut stream) {
                            let reply = Message::GetReply {
                                status: Status::Ok,
                                version: 0,
                                served_by: ServedBy::Local,
                                body: Bytes::from(url.into_bytes()),
                            };
                            write_message(&mut stream, &reply).expect("reply");
                        }
                    })
                })
                .collect();
            for c in conns {
                c.join().expect("connection thread");
            }
        });

        struct Collect(Vec<(Pending, Message)>);
        impl ReplySink for Collect {
            fn reply(&mut self, request: Pending, recv_ns: u64, reply: Message) {
                assert!(recv_ns >= request.sent_ns);
                self.0.push((request, reply));
            }
        }

        let urls: Vec<String> = (0..7).map(|i| format!("http://t.test/{i}")).collect();
        let frames: Vec<Bytes> = urls
            .iter()
            .map(|u| Message::Get { url: u.clone() }.encoded())
            .collect();
        let mut generator = Generator::connect(&[addr, addr]).expect("connect");
        let mut sink = Collect(Vec::new());
        let route = |op: u64| ((op % 2) as usize, (op % 7) as u32);
        generator
            .run(0..100, 6, &route, &frames, &mut sink)
            .expect("run");
        assert!(generator.order.is_empty());
        assert!(generator.conns.iter().all(|c| c.pending.outstanding() == 0));
        assert_eq!(sink.0.len(), 100);
        let mut ops: Vec<u64> = sink.0.iter().map(|(p, _)| p.op).collect();
        ops.sort_unstable();
        assert_eq!(ops, (0..100).collect::<Vec<u64>>());
        for (request, reply) in &sink.0 {
            let Message::GetReply { body, .. } = reply else {
                panic!("unexpected reply {reply:?}");
            };
            assert_eq!(&body[..], urls[request.url as usize].as_bytes());
            assert_eq!(request.url, (request.op % 7) as u32);
        }
        drop(generator);
        server.join().expect("server thread");
    }
}
