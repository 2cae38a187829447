//! Batch service of pipelined `Get`s, end to end over real sockets.
//!
//! A node services the run of `Get`s a client has pipelined on one
//! connection as one batch. What the client — and anyone inspecting the
//! node afterwards — can observe must equal servicing them one after
//! another; a wrong hint must still cost its request one wasted probe and
//! never a failed request; and what a client can make the node hold must
//! stay bounded. None of these tests paces itself with sleeps: waits are
//! on replies or on counters.

use bh_proto::mesh::{Mesh, Topology};
use bh_proto::node::{CacheNode, NodeConfig};
use bh_proto::origin::{synthetic_body, OriginServer};
use bh_proto::wire::{
    read_message, write_message, FrameAssembler, HintAction, HintUpdate, MachineId, Message,
    MetaOp, ServedBy, Status,
};
use bh_simcore::ByteSize;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

const NEVER: Duration = Duration::from_secs(3600);

/// `bh_netpoll::fault::PER_MILLION`: the drop knob at certainty.
const PER_MILLION: u32 = 1_000_000;

/// A full mesh that flushes hints and heartbeats only when told to.
fn mesh(
    nodes: usize,
    tune: impl Fn(usize, NodeConfig) -> NodeConfig,
) -> (OriginServer, Vec<CacheNode>) {
    let origin = OriginServer::spawn("127.0.0.1:0").expect("origin");
    Mesh::spawn(origin, Topology::Flat { nodes }, |i, c| {
        tune(
            i,
            c.with_flush_max(NEVER)
                .with_heartbeat_interval(NEVER)
                .with_shards(1),
        )
    })
    .expect("mesh")
    .into_parts()
}

fn get(url: &str) -> Message {
    Message::Get {
        url: url.to_string(),
    }
}

/// Every frame in one `write`, then every reply read back.
fn pipelined(addr: SocketAddr, requests: &[Message]) -> Vec<Message> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let frames: Vec<u8> = requests.iter().flat_map(|m| m.encoded().to_vec()).collect();
    stream.write_all(&frames).expect("write run");
    requests
        .iter()
        .map(|_| read_message(&mut stream).expect("reply"))
        .collect()
}

/// One frame, its reply, the next frame: nothing is ever parked.
fn one_at_a_time(addr: SocketAddr, requests: &[Message]) -> Vec<Message> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    requests
        .iter()
        .map(|m| {
            write_message(&mut stream, m).expect("write");
            read_message(&mut stream).expect("reply")
        })
        .collect()
}

/// What a node holds, via the frame a restarting peer would send it.
fn held_keys(addr: SocketAddr) -> Vec<u64> {
    match one_at_a_time(addr, &[Message::Resync]).pop() {
        Some(Message::HintBatch { updates, .. }) => updates.iter().map(|u| u.object).collect(),
        other => panic!("unexpected resync reply {other:?}"),
    }
}

/// A reply with everything that names a port — and so differs between
/// two meshes doing the same thing — replaced by the node's index.
fn normalized(reply: &Message, nodes: &[CacheNode]) -> String {
    let index = |m: &MachineId| nodes.iter().position(|n| n.machine_id() == *m);
    match reply {
        Message::GetReply {
            status,
            version,
            served_by,
            body,
        } => {
            let via = match served_by {
                ServedBy::Peer(m) => format!("peer {:?}", index(m)),
                other => format!("{other:?}"),
            };
            format!(
                "{status:?} v{version} via {via}, {} bytes, digest {:x}",
                body.len(),
                bh_md5::md5(body).low64()
            )
        }
        Message::MetaReply { status, entries } => {
            let values: Vec<&str> = entries.iter().map(|e| e.value.as_str()).collect();
            format!("{status:?} {values:?}")
        }
        other => format!("{other:?}"),
    }
}

/// Everything about a mesh's end state the two sides must agree on.
fn end_state(nodes: &[CacheNode]) -> Vec<String> {
    let index = |location: u64| nodes.iter().position(|n| n.machine_id().0 == location);
    nodes
        .iter()
        .map(|node| {
            let s = node.stats();
            let hints: Vec<(u64, Option<usize>)> = node
                .hint_entries()
                .into_iter()
                .map(|(key, location)| (key, index(location)))
                .collect();
            let misses_timed = node
                .metrics_snapshot()
                .into_iter()
                .find(|e| e.name == "request_service_micros.count")
                .map(|e| e.value);
            // Span kinds per key, as a multiset: a batch overlaps the
            // spans of its members in time, but each still appears once.
            let mut spans: BTreeMap<(u16, u64, u64), u32> = BTreeMap::new();
            for e in node.trace_snapshot() {
                *spans.entry((e.kind, e.a, e.b)).or_default() += 1;
            }
            format!(
                "local {} peer {} origin {} false+ {} degraded {} sent {} received {} \
                 misses timed {misses_timed:?} | holds {:?} | hints {hints:?} | spans {spans:?}",
                s.local_hits,
                s.peer_hits,
                s.origin_fetches,
                s.false_positives,
                s.degraded_to_origin,
                s.updates_sent,
                s.updates_received,
                held_keys(node.addr()),
            )
        })
        .collect()
}

/// Runs `prepare` on two identical meshes, sends `requests` to node 0 —
/// pipelined on one, one at a time on the other — flushes every node, and
/// returns the serial side's normalized replies after asserting that
/// replies and end state agree.
fn differential(
    tune: impl Fn(usize, NodeConfig) -> NodeConfig + Copy,
    prepare: impl Fn(&OriginServer, &[CacheNode]),
    requests: &[Message],
) -> Vec<String> {
    let sides: Vec<(Vec<String>, Vec<String>)> = [true, false]
        .into_iter()
        .map(|batched| {
            let (origin, nodes) = mesh(3, tune);
            prepare(&origin, &nodes);
            let entry = nodes[0].addr();
            let replies = if batched {
                pipelined(entry, requests)
            } else {
                one_at_a_time(entry, requests)
            };
            for node in &nodes {
                node.flush_updates_now();
            }
            let replies = replies.iter().map(|r| normalized(r, &nodes)).collect();
            (replies, end_state(&nodes))
        })
        .collect();
    let (batched, serial) = (&sides[0], &sides[1]);
    for (i, (b, s)) in batched.0.iter().zip(&serial.0).enumerate() {
        assert_eq!(b, s, "reply {i} differs (pipelined vs one at a time)");
    }
    for (i, (b, s)) in batched.1.iter().zip(&serial.1).enumerate() {
        assert_eq!(b, s, "end state of node {i} differs");
    }
    serial.0.clone()
}

fn url(name: &str) -> String {
    format!("http://batch.test/{name}")
}

/// (a) The named cases, each checked to be the case it claims to be.
#[test]
fn a_pipelined_run_is_indistinguishable_from_the_same_gets_one_at_a_time() {
    let prepare = |_: &OriginServer, nodes: &[CacheNode]| {
        // Node 1 holds b1..b5, node 2 holds c1..c3, node 0 knows both
        // sets by hint. Node 1 then drops b3 without telling anyone.
        for name in ["b1", "b2", "b3", "b4", "b5"] {
            bh_proto::fetch(nodes[1].addr(), &url(name)).expect("seed node 1");
        }
        for name in ["c1", "c2", "c3"] {
            bh_proto::fetch(nodes[2].addr(), &url(name)).expect("seed node 2");
        }
        nodes[1].flush_updates_now();
        nodes[2].flush_updates_now();
        nodes[1].invalidate(&url("b3"));
        bh_proto::fetch(nodes[0].addr(), &url("a1")).expect("resident at node 0");
    };
    let meta = Message::MetaRequest {
        op: MetaOp::Get,
        path: "mesh/nodes/self/metrics/false_positives".to_string(),
        value: String::new(),
    };
    let requests = [
        get(&url("n1")), // 0: miss, origin
        get(&url("b1")), // 1..4: hints to two different peers, interleaved
        get(&url("c1")),
        get(&url("b2")),
        get(&url("c2")),
        Message::Ping,   // 5: a local frame between Gets
        get(&url("n1")), // 6: the URL of request 0 again
        get(&url("a1")), // 7: resident before the run started
        get(&url("b4")), // 8..10: one peer run with a false positive inside
        get(&url("b3")),
        get(&url("b5")),
        meta,            // 11: must see exactly one false positive so far
        get(&url("n2")), // 12..14: an origin run holding a duplicate
        get(&url("n3")),
        get(&url("n2")),
        get(&url("c3")), // 15
    ];
    let replies = differential(|_, c| c, prepare, &requests);
    let via = |i: usize, what: &str| {
        assert!(
            replies[i].contains(what),
            "request {i}: expected {what}, got {}",
            replies[i]
        )
    };
    via(0, "via Origin");
    for (i, peer) in [(1, 1), (2, 2), (3, 1), (4, 2), (8, 1), (10, 1), (15, 2)] {
        via(i, &format!("via peer Some({peer})"));
    }
    via(5, "Ack");
    via(6, "via Local");
    via(7, "via Local");
    via(9, "via Origin");
    via(11, "[\"1\"]");
    via(12, "via Origin");
    via(13, "via Origin");
    via(14, "via Local");
    assert!(replies.iter().all(|r| !r.contains("Error")), "{replies:?}");
}

/// (a, continued) The same property where it is hardest to keep: a cache
/// that holds five objects, so every store evicts, a resident object can
/// be gone by the time its turn comes, and an evicted one comes back.
#[test]
fn a_pipelined_run_evicts_and_re_fetches_exactly_as_one_at_a_time_does() {
    let small = |i: usize, c: NodeConfig| {
        if i == 0 {
            c.with_data_capacity(ByteSize::from_bytes(5 * 4096))
        } else {
            c
        }
    };
    let prepare = |origin: &OriginServer, nodes: &[CacheNode]| {
        for i in 0..24 {
            origin.put(&url(&format!("e{i}")), 1, vec![i as u8; 4000]);
        }
        for i in 0..8 {
            bh_proto::fetch(nodes[1].addr(), &url(&format!("e{i}"))).expect("seed node 1");
        }
        nodes[1].flush_updates_now();
        for i in 20..24 {
            bh_proto::fetch(nodes[0].addr(), &url(&format!("e{i}"))).expect("fill node 0");
        }
    };
    // A fixed pseudo-random walk over 24 URLs: repeats at every distance,
    // peer-hinted and unhinted URLs mixed, 120 requests in one write.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let requests: Vec<Message> = (0..120)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            get(&url(&format!("e{}", (state >> 33) % 24)))
        })
        .collect();
    let replies = differential(small, prepare, &requests);
    for kind in ["via Local", "via Origin", "via peer Some(1)"] {
        assert!(
            replies.iter().any(|r| r.contains(kind)),
            "the walk never produced a reply {kind}"
        );
    }
    assert!(replies.iter().all(|r| r.starts_with("Ok")), "{replies:?}");
}

/// A node with no neighbours, and URLs it holds hints for, all naming
/// `peer`: the hints are planted the way a neighbour's flush would plant
/// them.
fn node_hinting_at(origin: &OriginServer, peer: SocketAddr, urls: &[String]) -> CacheNode {
    let node = CacheNode::spawn(
        NodeConfig::new("127.0.0.1:0", origin.addr())
            .with_flush_max(NEVER)
            .with_heartbeat_interval(NEVER),
    )
    .expect("node");
    let machine = MachineId::from_addr(peer).expect("ipv4");
    let updates = urls
        .iter()
        .map(|u| HintUpdate {
            action: HintAction::Add,
            object: bh_md5::url_key(u),
            machine,
        })
        .collect();
    let ack = one_at_a_time(node.addr(), &[Message::hint_batch(machine, updates)]);
    assert_eq!(ack, [Message::Ack]);
    node
}

fn served_by(reply: &Message) -> (Status, ServedBy) {
    match reply {
        Message::GetReply {
            status, served_by, ..
        } => (*status, *served_by),
        other => panic!("unexpected reply {other:?}"),
    }
}

/// (b) The hinted peer dies while a run is in flight: it answers three of
/// the eight probes it was sent and is gone, listener and all. Every
/// request is still answered `Ok`, the five lost probes are the only ones
/// wasted, and the peer is quarantined once.
#[test]
fn a_peer_dying_mid_run_costs_each_request_one_probe_and_none_its_answer() {
    const RUN: usize = 8;
    const ANSWERED: usize = 3;
    let origin = OriginServer::spawn("127.0.0.1:0").expect("origin");
    let urls: Vec<String> = (0..RUN).map(|i| url(&format!("dying/{i}"))).collect();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind peer");
    let peer = listener.local_addr().expect("peer addr");
    let dying_peer = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        for _ in 0..ANSWERED {
            let probe = read_message(&mut stream).expect("probe");
            assert!(matches!(probe, Message::PeerGet { .. }), "{probe:?}");
            let reply = Message::GetReply {
                status: Status::Ok,
                version: 7,
                served_by: ServedBy::Local,
                body: vec![0xAB; 512].into(),
            };
            write_message(&mut stream, &reply).expect("reply");
        }
        // Gone: nobody listens any more, and the connection says so with
        // a FIN behind the last reply (a reset could overtake it), then
        // lingers until the node hangs up.
        drop(listener);
        stream.shutdown(Shutdown::Write).expect("half-close");
        let _ = stream.read_to_end(&mut Vec::new());
    });
    let node = node_hinting_at(&origin, peer, &urls);

    let requests: Vec<Message> = urls.iter().map(|u| get(u)).collect();
    let replies = pipelined(node.addr(), &requests);
    dying_peer.join().expect("peer thread");

    let machine = MachineId::from_addr(peer).expect("ipv4");
    for (i, reply) in replies.iter().enumerate() {
        let expected = if i < ANSWERED {
            ServedBy::Peer(machine)
        } else {
            ServedBy::Origin
        };
        assert_eq!(served_by(reply), (Status::Ok, expected), "request {i}");
    }
    let lost = (RUN - ANSWERED) as u64;
    let stats = node.stats();
    assert_eq!(stats.peer_hits, ANSWERED as u64);
    assert_eq!(
        stats.false_positives, lost,
        "one wasted probe per request, never two"
    );
    assert_eq!(stats.degraded_to_origin, lost);
    assert_eq!(stats.origin_fetches, lost);
    assert_eq!(origin.request_count(), lost);
    assert_eq!(node.pool().quarantine_streak(peer), 1, "quarantined once");
    assert!(node.pool().is_quarantined(peer));
    assert_eq!(
        node.hint_entries().len(),
        ANSWERED,
        "the five wrong hints are dropped, the three right ones stand"
    );
}

/// (b, continued) The same contract behind every gate of the pool: the
/// hinted peer holds every object, and the run's probes are refused by a
/// partition block, by a quarantine window, or lost to the drop knob.
#[test]
fn a_gated_peer_costs_each_request_one_probe_and_none_its_answer() {
    const RUN: u64 = 8;
    type Gate = fn(&CacheNode, SocketAddr);
    let gates: [(&str, Gate); 2] = [
        ("partition block", |entry, peer| entry.pool().block(peer)),
        ("quarantine window", |entry, peer| {
            // One lost probe (of a URL outside the run) opens the window.
            entry
                .pool()
                .fault_switch()
                .set_drop_per_million(PER_MILLION);
            let _ = bh_proto::fetch(entry.addr(), &url("gate/opener"));
            entry.pool().fault_switch().clear();
            assert!(entry.pool().is_quarantined(peer));
        }),
    ];
    for (name, gate) in gates {
        let (origin, nodes) = mesh(2, |_, c| c);
        let urls: Vec<String> = (0..RUN).map(|i| url(&format!("gate/{i}"))).collect();
        for u in urls.iter().chain([&url("gate/opener")]) {
            bh_proto::fetch(nodes[1].addr(), u).expect("seed the peer");
        }
        nodes[1].flush_updates_now();
        let peer = nodes[1].addr();
        gate(&nodes[0], peer);
        let before = (nodes[0].stats(), origin.request_count());
        let streak = nodes[0].pool().quarantine_streak(peer);

        let requests: Vec<Message> = urls.iter().map(|u| get(u)).collect();
        for (i, reply) in pipelined(nodes[0].addr(), &requests).iter().enumerate() {
            assert_eq!(
                served_by(reply),
                (Status::Ok, ServedBy::Origin),
                "{name}: request {i}"
            );
        }
        let after = nodes[0].stats();
        assert_eq!(
            after.false_positives - before.0.false_positives,
            RUN,
            "{name}: one wasted probe per request"
        );
        assert_eq!(after.peer_hits, 0, "{name}");
        assert_eq!(origin.request_count() - before.1, RUN, "{name}");
        assert_eq!(
            nodes[0].pool().quarantine_streak(peer),
            streak,
            "{name}: refused probes do not escalate the quarantine"
        );
        assert_eq!(
            nodes[1].stats().local_hits,
            0,
            "{name}: nothing reached the peer"
        );
    }
}

/// (b, continued) The drop knob armed at certainty loses every outbound
/// send, the origin fetch included — as it does for requests sent singly —
/// so nothing can be answered `Ok`; what must still hold is that every
/// request is answered, in order, after one wasted probe, with the peer
/// quarantined once, and that lifting the fault restores service.
#[test]
fn a_run_under_total_send_loss_is_answered_in_order_and_recovers() {
    const RUN: u64 = 8;
    let (_origin, nodes) = mesh(2, |_, c| c);
    let urls: Vec<String> = (0..RUN).map(|i| url(&format!("lossy/{i}"))).collect();
    for u in &urls {
        bh_proto::fetch(nodes[1].addr(), u).expect("seed the peer");
    }
    nodes[1].flush_updates_now();
    let (entry, peer) = (&nodes[0], nodes[1].addr());
    entry
        .pool()
        .fault_switch()
        .set_drop_per_million(PER_MILLION);
    let requests: Vec<Message> = urls.iter().map(|u| get(u)).collect();
    for (i, reply) in pipelined(entry.addr(), &requests).iter().enumerate() {
        assert_eq!(
            served_by(reply),
            (Status::Error, ServedBy::Origin),
            "request {i}"
        );
    }
    assert_eq!(entry.stats().false_positives, RUN);
    assert_eq!(entry.pool().quarantine_streak(peer), 1, "quarantined once");
    let pool = entry.pool().stats();
    assert_eq!(
        pool.injected_drops,
        1 + RUN,
        "one lost probe, then every origin fetch"
    );
    assert_eq!(
        pool.quarantine_rejections,
        RUN - 1,
        "the probes behind the lost one"
    );

    entry.pool().fault_switch().clear();
    for (i, reply) in pipelined(entry.addr(), &requests).iter().enumerate() {
        assert_eq!(
            served_by(reply),
            (Status::Ok, ServedBy::Origin),
            "after the fault: request {i}"
        );
    }
}

/// Splits a byte stream into the frames it holds.
fn frames_in(bytes: &[u8]) -> Vec<Message> {
    let mut assembler = FrameAssembler::new();
    assembler.extend(bytes);
    let mut out = Vec::new();
    while let Some(msg) = assembler.next_message().expect("well-framed") {
        out.push(msg);
    }
    assert_eq!(assembler.buffered(), 0, "trailing partial frame");
    out
}

/// (d) A client that writes its `Get`s and shuts its sending side still
/// receives every reply, and then the node's FIN: the out-queue is
/// flushed before the connection is torn down.
#[test]
fn a_half_closed_client_still_receives_every_reply() {
    let origin = OriginServer::spawn("127.0.0.1:0").expect("origin");
    let node = CacheNode::spawn(NodeConfig::new("127.0.0.1:0", origin.addr())).expect("node");
    let urls: Vec<String> = (0..12).map(|i| url(&format!("half/{i}"))).collect();
    let mut stream = TcpStream::connect(node.addr()).expect("connect");
    let frames: Vec<u8> = urls
        .iter()
        .flat_map(|u| get(u).encoded().to_vec())
        .collect();
    stream.write_all(&frames).expect("write");
    stream.shutdown(Shutdown::Write).expect("half-close");
    let mut received = Vec::new();
    stream.read_to_end(&mut received).expect("read to EOF");
    let replies = frames_in(&received);
    assert_eq!(replies.len(), urls.len());
    for (u, reply) in urls.iter().zip(&replies) {
        match reply {
            Message::GetReply {
                status: Status::Ok,
                body,
                ..
            } => assert_eq!(*body, synthetic_body(u), "{u}"),
            other => panic!("{u}: {other:?}"),
        }
    }
}

/// Spins (yielding) until `done`, for at most a minute.
fn wait_for(what: &str, done: impl Fn() -> bool) {
    // bh-lint: allow(no-wall-clock, reason = "deadline-bounded wait on a live node's counter; the deadline only turns a hang into a failure")
    let started = Instant::now();
    while !done() {
        assert!(
            started.elapsed() < Duration::from_secs(60),
            "timed out waiting for {what}"
        );
        std::thread::yield_now();
    }
}

/// (e) A client writes 100,000 `Get`s for a resident object and reads
/// nothing. The node answers until the socket and its out-queue cap are
/// full, then stops reading the connection; the client ends up blocked in
/// its own `write`. When it starts reading, all 100,000 replies arrive.
#[test]
fn a_client_that_never_reads_is_held_at_the_caps_and_loses_nothing() {
    const GETS: usize = 100_000;
    const BODY: usize = 1024;
    let origin = OriginServer::spawn("127.0.0.1:0").expect("origin");
    let node = CacheNode::spawn(NodeConfig::new("127.0.0.1:0", origin.addr())).expect("node");
    let hot = url("caps/hot");
    origin.put(&hot, 3, vec![0x5A; BODY]);
    bh_proto::fetch(node.addr(), &hot).expect("make it resident");

    let stream = TcpStream::connect(node.addr()).expect("connect");
    let mut sender = stream.try_clone().expect("clone");
    let frame = get(&hot).encoded().to_vec();
    let writer = std::thread::spawn(move || {
        let burst: Vec<u8> = frame
            .iter()
            .copied()
            .cycle()
            .take(frame.len() * 1000)
            .collect();
        for _ in 0..GETS / 1000 {
            sender.write_all(&burst).expect("write");
        }
    });

    wait_for("the connection to be paused", || {
        node.stats().read_pauses > 0
    });
    // Paused with the client not reading: what the node has answered so
    // far is what fits the socket buffers plus its own cap, nowhere near
    // the 100 MB the client is asking for.
    let answered = node.stats().local_hits;
    assert!(
        answered < (GETS / 4) as u64,
        "{answered} replies buffered for a client that reads nothing"
    );

    let mut reader = stream;
    let mut assembler = FrameAssembler::new();
    let mut buf = vec![0u8; 256 * 1024];
    let mut replies = 0usize;
    while replies < GETS {
        let n = reader.read(&mut buf).expect("read");
        assert!(n > 0, "connection closed after {replies} replies");
        assembler.extend(&buf[..n]);
        while let Some(reply) = assembler.next_message().expect("frame") {
            match reply {
                Message::GetReply {
                    status: Status::Ok,
                    served_by: ServedBy::Local,
                    version: 3,
                    body,
                } => assert_eq!(body.len(), BODY),
                other => panic!("reply {replies}: {other:?}"),
            }
            replies += 1;
        }
    }
    writer.join().expect("writer");
    assert_eq!(node.stats().local_hits, GETS as u64);
    assert_eq!(node.stats().service_errors, 0);
}

/// (e, continued) A read pass that stops at the out-queue cap may leave
/// half a frame behind in the assembler. Resuming it must wait for the
/// other half like any partial frame — not spin the shard on a frame that
/// is not there yet.
#[test]
fn half_a_frame_left_at_the_cap_is_completed_not_spun_on() {
    const BODY: usize = 40 * 1024;
    let origin = OriginServer::spawn("127.0.0.1:0").expect("origin");
    let node = CacheNode::spawn(NodeConfig::new("127.0.0.1:0", origin.addr()).with_shards(1))
        .expect("node");
    let hot = url("caps/big");
    origin.put(&hot, 1, vec![0xC3; BODY]);
    bh_proto::fetch(node.addr(), &hot).expect("make it resident");

    // Two whole Gets (their replies overshoot the 64 KiB cap) and the
    // first half of a third, in one write.
    let frame = get(&hot).encoded().to_vec();
    let (head, tail) = frame.split_at(frame.len() / 2);
    let mut stream = TcpStream::connect(node.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("timeout");
    stream
        .write_all(&[&frame[..], &frame[..], head].concat())
        .expect("write");
    for i in 0..2 {
        assert_eq!(
            served_by(&read_message(&mut stream).expect("reply")),
            (Status::Ok, ServedBy::Local),
            "reply {i}"
        );
    }
    stream.write_all(tail).expect("write the other half");
    assert_eq!(
        served_by(&read_message(&mut stream).expect("third reply")),
        (Status::Ok, ServedBy::Local)
    );
    // The shard is still turning: a second connection gets served.
    bh_proto::fetch(node.addr(), &hot).expect("shard alive");
}

/// (e, continued) Bodies that leave by reference: the origin's own 1–64 KiB
/// synthetic bodies, half of them resident (answered on the shard), half
/// misses (answered by a worker), pipelined by a client that stops reading
/// in the middle of the first body. The node writes until its socket is
/// full — a `writev` that ends somewhere inside a referenced body — and
/// stops reading at its cap; once the client drains, every reply arrives
/// byte-exact and in order.
#[test]
fn a_client_that_stalls_mid_body_gets_every_referenced_body_intact() {
    const URLS: usize = 300;
    let origin = OriginServer::spawn("127.0.0.1:0").expect("origin");
    let node = CacheNode::spawn(NodeConfig::new("127.0.0.1:0", origin.addr()).with_shards(1))
        .expect("node");
    let urls: Vec<String> = (0..URLS).map(|i| url(&format!("by-ref/{i}"))).collect();
    for resident in urls.iter().step_by(2) {
        bh_proto::fetch(node.addr(), resident).expect("make it resident");
    }
    let served = || {
        let s = node.stats();
        s.local_hits + s.origin_fetches
    };
    let warmed = served();

    let mut stream = TcpStream::connect(node.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("timeout");
    let round: Vec<u8> = urls
        .iter()
        .flat_map(|u| get(u).encoded().to_vec())
        .collect();
    stream.write_all(&round).expect("write round");
    let mut sent = URLS;

    // The first reply's header and half of its payload, then nothing.
    let mut first = vec![0u8; 5];
    stream.read_exact(&mut first).expect("first header");
    let payload = u32::from_le_bytes([first[0], first[1], first[2], first[3]]) as usize;
    first.resize(5 + payload, 0);
    let half = 5 + payload / 2;
    stream.read_exact(&mut first[5..half]).expect("half a body");

    // Loopback buffers hold megabytes: keep asking until the node is left
    // holding replies the socket will not take.
    loop {
        wait_for("a pause or an answered round", || {
            node.stats().read_pauses > 0 || served() - warmed == sent as u64
        });
        if node.stats().read_pauses > 0 {
            break;
        }
        stream.write_all(&round).expect("write round");
        sent += URLS;
    }

    stream
        .read_exact(&mut first[half..])
        .expect("rest of the body");
    let mut replies = vec![read_message(&mut &first[..]).expect("first reply")];
    while replies.len() < sent {
        replies.push(read_message(&mut stream).expect("reply"));
    }
    for (i, reply) in replies.iter().enumerate() {
        match reply {
            Message::GetReply {
                status: Status::Ok,
                served_by: ServedBy::Local | ServedBy::Origin,
                body,
                ..
            } => assert!(
                *body == synthetic_body(&urls[i % URLS]),
                "reply {i}: {} bytes differ from the origin's",
                body.len()
            ),
            other => panic!("reply {i}: {other:?}"),
        }
    }
    let stats = node.stats();
    assert!(
        stats.writev_batches > 0,
        "bodies did not leave by reference"
    );
    assert_eq!(stats.service_errors, 0);
}

/// (e, continued) The same for misses: 4,000 pipelined `Get`s of distinct
/// URLs park on one connection faster than a worker drains them. The
/// backlog cap pauses the connection, parked `Get`s count toward the
/// admission mark (so some are turned away, in order, with a redirect),
/// and once the client reads, every request has its reply.
#[test]
fn a_deep_pipeline_of_misses_is_capped_and_every_get_is_answered() {
    const GETS: usize = 4_000;
    let origin = OriginServer::spawn("127.0.0.1:0").expect("origin");
    let node = CacheNode::spawn(
        NodeConfig::new("127.0.0.1:0", origin.addr())
            .with_shards(1)
            .with_workers(1),
    )
    .expect("node");
    let urls: Vec<String> = (0..GETS).map(|i| url(&format!("deep/{i}"))).collect();
    for u in &urls {
        origin.put(u, 1, u.as_bytes().to_vec());
    }
    let stream = TcpStream::connect(node.addr()).expect("connect");
    let mut sender = stream.try_clone().expect("clone");
    let frames: Vec<u8> = urls
        .iter()
        .flat_map(|u| get(u).encoded().to_vec())
        .collect();
    let writer = std::thread::spawn(move || sender.write_all(&frames).expect("write"));

    wait_for("the connection to be paused", || {
        node.stats().read_pauses > 0
    });

    let mut reader = stream;
    let (mut served, mut redirected) = (0u64, 0u64);
    for (i, u) in urls.iter().enumerate() {
        match read_message(&mut reader).expect("reply") {
            Message::GetReply {
                status: Status::Ok,
                body,
                ..
            } => {
                assert_eq!(&body[..], u.as_bytes(), "reply {i} answers another request");
                served += 1;
            }
            Message::GetReply {
                status: Status::Redirect,
                ..
            } => redirected += 1,
            other => panic!("reply {i}: {other:?}"),
        }
    }
    writer.join().expect("writer");
    let stats = node.stats();
    assert_eq!(served + redirected, GETS as u64);
    assert_eq!(stats.origin_fetches, served);
    assert_eq!(stats.admission_rejects, redirected);
    assert!(
        redirected > 0,
        "4,000 parked Gets never reached the admission mark of 256"
    );
    assert_eq!(stats.service_errors, 0);
}

/// (e, continued) Every path between the caps at once: three clients
/// pipeline 2,000 frames each — resident objects larger than half the
/// out-queue cap, misses, pings — written in chunks of arbitrary size
/// (so read passes end mid-frame) while the replies are read back in
/// small pieces (so the socket keeps filling). Every frame gets its own
/// reply — the object, an `Ack`, or admission control's redirect — in
/// order, on every connection.
#[test]
fn mixed_pipelines_in_arbitrary_chunks_are_answered_in_order() {
    const FRAMES: usize = 2_000;
    let origin = OriginServer::spawn("127.0.0.1:0").expect("origin");
    let node = CacheNode::spawn(
        NodeConfig::new("127.0.0.1:0", origin.addr())
            .with_shards(1)
            .with_workers(2),
    )
    .expect("node");
    let big: Vec<String> = (0..3).map(|i| url(&format!("soak/big/{i}"))).collect();
    for (i, u) in big.iter().enumerate() {
        origin.put(u, 1, vec![i as u8; 33_000 + 7_000 * i]);
        bh_proto::fetch(node.addr(), u).expect("make it resident");
    }
    let addr = node.addr();
    let clients: Vec<_> = (0..3u64)
        .map(|client| {
            let big = big.clone();
            std::thread::spawn(move || {
                let mut state = 0xD1B5_4A32_D192_ED03u64.wrapping_mul(client + 1);
                let mut draw = move |n: u64| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (state >> 33) % n
                };
                // What is sent, and the length of the body owed for it
                // (`None` for a ping).
                let mut owed: Vec<Option<usize>> = Vec::with_capacity(FRAMES);
                let mut bytes = Vec::new();
                for i in 0..FRAMES {
                    let frame = match draw(10) {
                        0 => {
                            owed.push(None);
                            Message::Ping
                        }
                        1..=4 => {
                            let which = draw(3) as usize;
                            owed.push(Some(33_000 + 7_000 * which));
                            get(&big[which])
                        }
                        _ => {
                            let u = url(&format!("soak/miss/{client}/{i}"));
                            owed.push(Some(synthetic_body(&u).len()));
                            get(&u)
                        }
                    };
                    bytes.extend_from_slice(&frame.encoded());
                }
                let stream = TcpStream::connect(addr).expect("connect");
                stream
                    .set_read_timeout(Some(Duration::from_secs(60)))
                    .expect("timeout");
                let mut sender = stream.try_clone().expect("clone");
                let mut cuts = Vec::new();
                let mut at = 0;
                while at < bytes.len() {
                    at = (at + 1 + draw(3_000) as usize).min(bytes.len());
                    cuts.push(at);
                }
                let writer = std::thread::spawn(move || {
                    let mut from = 0;
                    for to in cuts {
                        sender.write_all(&bytes[from..to]).expect("write");
                        from = to;
                    }
                });
                let mut reader = stream;
                let mut assembler = FrameAssembler::new();
                let mut buf = vec![0u8; 9_000];
                let (mut answered, mut redirected) = (0, 0u64);
                while answered < FRAMES {
                    let want = 1 + draw(9_000) as usize;
                    let n = reader.read(&mut buf[..want]).expect("read");
                    assert!(n > 0, "client {client}: closed after {answered} replies");
                    assembler.extend(&buf[..n]);
                    while let Some(reply) = assembler.next_message().expect("frame") {
                        match (&reply, owed[answered]) {
                            (Message::Ack, None) => {}
                            (
                                Message::GetReply {
                                    status: Status::Ok,
                                    body,
                                    ..
                                },
                                Some(len),
                            ) if body.len() == len => {}
                            // Parked `Get`s count toward the admission
                            // mark, and three deep pipelines pass it.
                            (
                                Message::GetReply {
                                    status: Status::Redirect,
                                    ..
                                },
                                Some(_),
                            ) => redirected += 1,
                            (other, owed) => {
                                panic!("client {client}, reply {answered}: owed {owed:?}, got {other:?}")
                            }
                        }
                        answered += 1;
                    }
                }
                writer.join().expect("writer");
                redirected
            })
        })
        .collect();
    let redirected: u64 = clients
        .into_iter()
        .map(|client| client.join().expect("client"))
        .sum();
    assert_eq!(node.stats().service_errors, 0);
    assert_eq!(node.stats().admission_rejects, redirected);
}

/// (f) Each miss of a pipelined run is timed once and leaves each of its
/// spans once, as a miss sent alone does.
#[test]
fn every_miss_of_a_run_is_timed_and_traced_once() {
    use bh_proto::node::NODE_TRACE_CAPACITY;
    const RUN: usize = 6;
    const { assert!(RUN * 4 < NODE_TRACE_CAPACITY) };
    let origin = OriginServer::spawn("127.0.0.1:0").expect("origin");
    let node = CacheNode::spawn(NodeConfig::new("127.0.0.1:0", origin.addr())).expect("node");
    let urls: Vec<String> = (0..RUN).map(|i| url(&format!("spans/{i}"))).collect();
    let requests: Vec<Message> = urls.iter().map(|u| get(u)).collect();
    let replies = pipelined(node.addr(), &requests);
    assert!(replies
        .iter()
        .all(|r| served_by(r) == (Status::Ok, ServedBy::Origin)));

    let timed = node
        .metrics_snapshot()
        .into_iter()
        .find(|e| e.name == "request_service_micros.count")
        .map(|e| e.value);
    assert_eq!(timed, Some(RUN as u64));
    let trace = node.trace_snapshot();
    for u in &urls {
        let key = bh_md5::url_key(u);
        let kinds: Vec<u16> = trace
            .iter()
            .filter(|e| e.a == key)
            .map(|e| e.kind)
            .collect();
        let mut sorted = kinds.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(
            kinds.len(),
            4,
            "{u}: recv, hint-lookup, origin-fetch, reply: {kinds:?}"
        );
        assert_eq!(sorted.len(), 4, "{u}: a span appears twice: {kinds:?}");
    }
}
