//! The control plane never holds a shard. A node's hint flushes, resyncs
//! and heartbeats run on shard 0 as non-blocking exchanges, and every
//! outbound connect of a shard is one more readiness step, so a slow flush
//! target or a peer whose connect hangs delays no connection of the shard:
//! local hits on a second connection of a one-shard node each finish in
//! under 100 ms meanwhile, while a shard held by the control plane would
//! keep one waiting 200 ms or more. (The third such check, a slow fsync, is
//! a unit test of the node: it holds a lock only the node's code can
//! reach.)
//!
//! Both tests time requests, so they take turns: no other test competes
//! for the CPU while one of them runs.

use bh_proto::client::Connection;
use bh_proto::node::{CacheNode, NodeConfig};
use bh_proto::origin::OriginServer;
use bh_proto::wire::{
    read_message, write_message, HintAction, HintUpdate, MachineId, Message, ServedBy, Status,
};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const NEVER: Duration = Duration::from_secs(3600);

/// Local hits timed per test, and the bound on each: half the shortest
/// hold a blocking control plane would cost. A loaded two-vCPU host delays
/// a wake-up by a 10 ms tick now and then, so a 10 ms bound would fail on
/// scheduling alone.
const HITS: usize = 1_000;
const HIT_LIMIT: Duration = Duration::from_millis(100);

/// Held by whichever test is timing requests.
static TIMING: Mutex<()> = Mutex::new(());

/// A one-shard node with no timer of its own.
fn one_shard(origin: SocketAddr) -> NodeConfig {
    NodeConfig::new("127.0.0.1:0", origin)
        .with_shards(1)
        .with_flush_max(NEVER)
        .with_heartbeat_interval(NEVER)
}

/// A connection to `node` holding one resident object, planted without
/// the origin; returns it with the object's URL.
fn hot_connection(node: &CacheNode) -> (TcpStream, String) {
    let hot = "http://control.test/hot".to_string();
    let mut conn = TcpStream::connect(node.addr()).expect("connect");
    conn.set_nodelay(true).expect("nodelay");
    let stuck = Some(Duration::from_secs(5));
    conn.set_read_timeout(stuck).expect("read timeout");
    let push = Message::Push {
        url: hot.clone(),
        version: 1,
        body: vec![0x5A; 128].into(),
    };
    write_message(&mut conn, &push).expect("push");
    assert_eq!(read_message(&mut conn).expect("ack"), Message::Ack);
    (conn, hot)
}

/// `HITS` local hits of `url` on `conn`, each under `HIT_LIMIT`.
fn timed_hits(conn: &mut TcpStream, url: &str, what: &str) {
    let get = Message::Get {
        url: url.to_string(),
    };
    for i in 0..HITS {
        // bh-lint: allow(no-wall-clock, reason = "the test times each local hit against a wall-clock bound")
        let sent = Instant::now();
        write_message(conn, &get).expect("write hit");
        let reply = read_message(conn).expect("hit reply");
        let took = sent.elapsed();
        match reply {
            Message::GetReply {
                status: Status::Ok,
                served_by: ServedBy::Local,
                ..
            } => {}
            other => panic!("hit {i}: {other:?}"),
        }
        assert!(took < HIT_LIMIT, "hit {i} took {took:?} behind {what}");
    }
}

/// A flush whose sends are held 200 ms by injected latency waits on shard
/// 0's deadline, not on shard 0: the hits go on, and the hint still lands.
#[test]
fn local_hits_are_not_delayed_by_a_slow_flush_target() {
    let _turn = TIMING.lock().unwrap_or_else(|e| e.into_inner());
    let origin = OriginServer::spawn("127.0.0.1:0").expect("origin");
    let target = CacheNode::spawn(one_shard(origin.addr())).expect("target");
    let node = CacheNode::spawn(one_shard(origin.addr()).with_neighbors(vec![target.addr()]))
        .expect("node");
    let (mut hits, hot) = hot_connection(&node);

    // One miss queues one update for the target.
    let url = "http://control.test/flushed";
    bh_proto::fetch(node.addr(), url).expect("miss");
    let key = bh_md5::url_key(url);
    let mut control = Connection::open(node.addr()).expect("control connection");
    control
        .meta_set("mesh/nodes/self/pool/fault/tx_latency_micros", "200000")
        .expect("slow the node's sends");
    let reply = control
        .meta_set("mesh/nodes/self/control/flush", "1")
        .expect("post the flush");
    assert_eq!(reply[0].value, "scheduled");
    assert_eq!(target.find_nearest(key), None, "the flush is still held");

    timed_hits(&mut hits, &hot, "a slow flush target");

    let landed = (0..5_000).any(|_| {
        target.find_nearest(key).is_some() || {
            std::thread::sleep(Duration::from_millis(1));
            false
        }
    });
    assert!(landed, "the hint never reached the flush target");
    assert_eq!(target.find_nearest(key), Some(node.machine_id()));
}

/// A listener whose accept queue is full: std listens with a backlog of
/// 128, so the 130th connect hangs. The held connections are returned
/// with it (dropping them would free the queue).
fn hanging_listener() -> (TcpListener, Vec<TcpStream>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let mut held = Vec::new();
    for _ in 0..1_000 {
        match TcpStream::connect_timeout(&addr, Duration::from_millis(100)) {
            Ok(stream) => held.push(stream),
            Err(_) => return (listener, held),
        }
    }
    panic!("the accept queue never filled");
}

/// A hinted peer whose connect hangs costs its probe the I/O timeout, on
/// shard 0's poller: the hits go on meanwhile, and the miss then falls to
/// the origin.
#[test]
fn local_hits_are_not_delayed_by_a_hanging_connect() {
    let _turn = TIMING.lock().unwrap_or_else(|e| e.into_inner());
    let io_timeout = Duration::from_secs(1);
    let (peer, _held) = hanging_listener();
    let peer = MachineId::from_addr(peer.local_addr().expect("addr")).expect("ipv4");
    let origin = OriginServer::spawn("127.0.0.1:0").expect("origin");
    let mut config = one_shard(origin.addr());
    config.io_timeout = io_timeout;
    let node = CacheNode::spawn(config).expect("node");
    let (mut hits, hot) = hot_connection(&node);

    // The hint names the hanging peer, in a batch it authenticated.
    let url = "http://control.test/hinted";
    let update = HintUpdate {
        action: HintAction::Add,
        object: bh_md5::url_key(url),
        machine: peer,
    };
    write_message(&mut hits, &Message::hint_batch(peer, vec![update])).expect("hint");
    assert_eq!(read_message(&mut hits).expect("ack"), Message::Ack);

    let mut waiting = TcpStream::connect(node.addr()).expect("connect");
    // bh-lint: allow(no-wall-clock, reason = "the test times the probe against the I/O timeout")
    let asked = Instant::now();
    let get = Message::Get {
        url: url.to_string(),
    };
    write_message(&mut waiting, &get).expect("write miss");

    timed_hits(&mut hits, &hot, "a hanging connect");
    assert_eq!(
        node.stats().origin_fetches,
        0,
        "the hits were timed while the probe hung"
    );

    match read_message(&mut waiting).expect("miss reply") {
        Message::GetReply {
            status: Status::Ok,
            served_by: ServedBy::Origin,
            ..
        } => {}
        other => panic!("miss: {other:?}"),
    }
    let took = asked.elapsed();
    assert!(took >= io_timeout, "the probe gave up after {took:?}");
    let stats = node.stats();
    assert_eq!((stats.false_positives, stats.origin_fetches), (1, 1));
}
