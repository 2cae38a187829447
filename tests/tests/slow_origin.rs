//! A slow origin delays only the connections whose runs wait on it. A
//! node serves every connection on its shard, misses included, so a
//! shard that slept or blocked on an origin exchange would stall every
//! other connection it owns; this checks that it does not. The test is
//! alone in its binary so that no other test competes for the CPU while
//! it times requests.

use bh_proto::node::{CacheNode, NodeConfig};
use bh_proto::wire::{read_message, write_message, Message, ServedBy, Status};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

const NEVER: Duration = Duration::from_secs(3600);

/// How long the scripted origin holds each `Get` before answering it.
const ORIGIN_DELAY: Duration = Duration::from_millis(200);

/// A scripted origin: each `Get` is answered `ORIGIN_DELAY` after it is
/// read, with the URL as its body, one at a time per connection. Every
/// `Get` it reads is announced on the returned channel.
fn slow_origin() -> (std::net::SocketAddr, mpsc::Receiver<String>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind origin");
    let addr = listener.local_addr().expect("origin addr");
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { break };
            let tx = tx.clone();
            std::thread::spawn(move || {
                while let Ok(Message::Get { url }) = read_message(&mut stream) {
                    let _ = tx.send(url.clone());
                    std::thread::sleep(ORIGIN_DELAY);
                    let reply = Message::GetReply {
                        status: Status::Ok,
                        version: 1,
                        served_by: ServedBy::Origin,
                        body: url.into_bytes().into(),
                    };
                    if write_message(&mut stream, &reply).is_err() {
                        break;
                    }
                }
            });
        }
    });
    (addr, rx)
}

fn get(url: &str) -> Message {
    Message::Get {
        url: url.to_string(),
    }
}

/// While one connection of a one-shard node has a run of 5 misses out at
/// an origin that takes 200 ms a `Get`, 1,000 local hits on a second
/// connection of the same shard each complete in under 100 ms — and the
/// misses are then all answered, in order. A shard held by the exchange
/// would keep a hit waiting up to the 200 ms hold; the bound leaves room
/// for a wake-up that the scheduler delays by a 10 ms tick or several.
#[test]
fn local_hits_are_not_delayed_by_a_slow_origin_on_the_same_shard() {
    const MISSES: usize = 5;
    const HITS: usize = 1_000;
    const HIT_LIMIT: Duration = Duration::from_millis(100);
    let (origin, fetched) = slow_origin();
    let node = CacheNode::spawn(
        NodeConfig::new("127.0.0.1:0", origin)
            .with_shards(1)
            .with_flush_max(NEVER)
            .with_heartbeat_interval(NEVER),
    )
    .expect("node");

    // One resident object, planted without the origin.
    let hot = "http://slow.test/hot";
    let mut hits = TcpStream::connect(node.addr()).expect("connect");
    hits.set_nodelay(true).expect("nodelay");
    let push = Message::Push {
        url: hot.to_string(),
        version: 1,
        body: vec![0x5A; 128].into(),
    };
    write_message(&mut hits, &push).expect("push");
    assert_eq!(read_message(&mut hits).expect("ack"), Message::Ack);

    // The misses go out as one run; wait until the origin holds them.
    let misses: Vec<String> = (0..MISSES)
        .map(|i| format!("http://slow.test/miss/{i}"))
        .collect();
    let mut waiting = TcpStream::connect(node.addr()).expect("connect");
    let frames: Vec<u8> = misses
        .iter()
        .flat_map(|u| get(u).encoded().to_vec())
        .collect();
    waiting.write_all(&frames).expect("write misses");
    let first = fetched
        .recv_timeout(Duration::from_secs(10))
        .expect("the run reached the origin");
    assert_eq!(first, misses[0]);

    for i in 0..HITS {
        // bh-lint: allow(no-wall-clock, reason = "the test times each local hit against a wall-clock bound")
        let sent = Instant::now();
        write_message(&mut hits, &get(hot)).expect("write hit");
        let reply = read_message(&mut hits).expect("hit reply");
        let took = sent.elapsed();
        match reply {
            Message::GetReply {
                status: Status::Ok,
                served_by: ServedBy::Local,
                ..
            } => {}
            other => panic!("hit {i}: {other:?}"),
        }
        assert!(
            took < HIT_LIMIT,
            "hit {i} took {took:?} behind a slow origin"
        );
    }
    let fetches = node.stats().origin_fetches;
    assert!(
        fetches < MISSES as u64,
        "the hits were timed while the run was out at the origin ({fetches} of {MISSES} fetched)"
    );

    for (i, url) in misses.iter().enumerate() {
        match read_message(&mut waiting).expect("miss reply") {
            Message::GetReply {
                status: Status::Ok,
                served_by: ServedBy::Origin,
                body,
                ..
            } => assert_eq!(&body[..], url.as_bytes(), "miss {i}"),
            other => panic!("miss {i}: {other:?}"),
        }
    }
    assert_eq!(node.stats().origin_fetches, MISSES as u64);
}
