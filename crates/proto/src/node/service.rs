//! The `Get` service: local cache, then the hinted peer, then the origin
//! (§3.1.1 — a miss never takes an extra hop, and a wrong hint costs its
//! request exactly one wasted probe).
//!
//! The unit of service is the **run** of `Get`s a client has pipelined on
//! one connection ([`service_gets`]); a lone `Get` is the run of one.
//! Within a run, every maximal group of consecutive misses bound for the
//! same remote — one hinted peer, or the origin — goes out as one
//! pipelined exchange on one pooled connection
//! ([`crate::pool::ConnectionPool::request_run`]), and each member is
//! then stored, accounted and answered in request order. What a client
//! can observe of a run is what servicing its `Get`s one after another
//! would produce — same replies in the same order, same counters, same
//! store and hint tables — except that the probes of a group overlap in
//! time. Three rules keep it so:
//!
//! * a group never holds two requests for one key (the second must see
//!   what the first stored) nor a key that is resident when the group
//!   forms (it is answered from the cache at its own turn, after the
//!   group's stores have had their chance to evict it);
//! * a member whose probe was wasted is fetched from the origin *before*
//!   anything behind it is stored, so insertions and evictions happen in
//!   request order;
//! * a finished reply is never held across a blocking call:
//!   [`Replies::flush`] runs before every exchange.

use super::propagation::queue_update;
use super::{trace_event, Inner};
use crate::pool::RequestOptions;
use crate::wire::{HintAction, MachineId, Message, ServedBy, Status};
use bh_obs::span;
use bh_simcore::ByteSize;
use bytes::Bytes;
use std::io;
use std::time::Instant;

/// A client `Get` waiting on its connection, hashed once on arrival.
#[derive(Debug)]
pub(super) struct ParkedGet {
    pub(super) url: String,
    /// `bh_md5::url_key(&url)`.
    pub(super) key: u64,
}

impl ParkedGet {
    pub(super) fn new(url: String) -> ParkedGet {
        ParkedGet {
            key: bh_md5::url_key(&url),
            url,
        }
    }
}

/// Where a run's replies go: the connection's out-queue in the engine, a
/// plain list in tests.
pub(super) trait Replies {
    /// Takes one finished reply; replies are pushed in request order.
    fn push(&mut self, reply: &Message);
    /// Puts everything pushed so far on the wire.
    fn flush(&mut self);
}

/// Where a miss goes next.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Remote {
    Peer(MachineId),
    Origin,
}

fn get_reply(status: Status, version: u32, served_by: ServedBy, body: Bytes) -> Message {
    Message::GetReply {
        status,
        version,
        served_by,
        body,
    }
}

/// The reply that turns a client `Get` away to the origin — admission
/// control past its high-water mark (`depth`), or a drained node (0) —
/// with its accounting.
pub(super) fn redirect(inner: &Inner, key: u64, depth: usize) -> Message {
    inner.metrics.admission_rejects.inc();
    trace_event(inner, span::ADMISSION_REJECT, key, depth as u64);
    get_reply(Status::Redirect, 0, ServedBy::Origin, Bytes::new())
}

/// The cached copy of `key`, promoted to most-recently-used: version and
/// body under one store lock.
pub(super) fn cached(inner: &Inner, key: u64) -> Option<(u32, Bytes)> {
    let mut store = inner.store.lock();
    let (_, version) = store.meta.get(key, 0)?;
    let body = store.bodies.get(&key).cloned()?;
    Some((version, body))
}

/// Step 1 of a `Get`: the local data cache. Purely in-memory, so the
/// engine answers hits inline on the shard thread instead of paying the
/// worker-pool round trip.
pub(super) fn local_hit(inner: &Inner, key: u64) -> Option<Message> {
    let (version, body) = cached(inner, key)?;
    inner.metrics.local_hits.inc();
    trace_event(inner, span::LOCAL_HIT, key, 0);
    Some(get_reply(Status::Ok, version, ServedBy::Local, body))
}

/// Stores a body locally (inform) and queues the hint updates implied by
/// the evictions plus the arrival itself.
pub(super) fn store_body(inner: &Inner, key: u64, version: u32, body: Bytes) {
    let mut store = inner.store.lock();
    let size = ByteSize::from_bytes(body.len() as u64);
    let evicted = store.meta.insert(key, size, version);
    let mut departed = Vec::with_capacity(evicted.len());
    for e in evicted {
        store.bodies.remove(&e.key);
        departed.push(e.key);
    }
    let stored = store.meta.peek(key).is_some();
    if stored {
        store.bodies.insert(key, body);
    }
    drop(store);
    for gone in departed {
        queue_update(inner, HintAction::Remove, gone);
    }
    if stored {
        queue_update(inner, HintAction::Add, key);
    }
}

/// Step 2 of a `Get`: the local hint store. The data-store lock is never
/// touched here. A hint naming this node itself is no remote copy.
fn hinted_remote(inner: &Inner, key: u64) -> Remote {
    let hint = inner.hints.table.lock().lookup(key).map(MachineId);
    trace_event(inner, span::HINT_LOOKUP, key, u64::from(hint.is_some()));
    match hint {
        Some(peer) if peer != inner.machine => Remote::Peer(peer),
        _ => Remote::Origin,
    }
}

/// Closes one miss: the reply span, its service time (measured from when
/// its group formed), and the reply itself.
fn finish(inner: &Inner, out: &mut dyn Replies, key: u64, t0: Instant, reply: &Message) {
    // Stable served-by code for trace records: 1 peer, 2 origin (0, the
    // local cache, never gets here).
    let via_peer = matches!(
        reply,
        Message::GetReply {
            served_by: ServedBy::Peer(_),
            ..
        }
    );
    let served_by = if via_peer { 1 } else { 2 };
    trace_event(inner, span::REPLY, key, served_by);
    inner
        .metrics
        .request_service_micros
        .observe(t0.elapsed().as_micros() as u64);
    out.push(reply);
}

/// Services a run of `Get`s in request order, pushing one reply each.
/// Every miss is timed into `request_service_micros` and leaves the
/// recv → hint-lookup → probe/origin-fetch → reply spans once.
pub(super) fn service_gets(inner: &Inner, run: &[ParkedGet], out: &mut dyn Replies) {
    let mut next = 0;
    // The remote of `run[next]`, when forming the previous group already
    // looked it up (it named a different remote and closed that group).
    let mut looked_up: Option<Remote> = None;
    while next < run.len() {
        let lead = &run[next];
        if inner.drained() {
            // Drained (mesh API): turn the client away exactly like
            // admission control does, so existing clients already know to
            // fall back to the origin. Hint traffic keeps flowing.
            out.push(&redirect(inner, lead.key, 0));
            looked_up = None;
            next += 1;
            continue;
        }
        if let Some(hit) = local_hit(inner, lead.key) {
            // As on the shard: a hit is no miss, so it leaves no service
            // spans and no latency sample.
            out.push(&hit);
            looked_up = None;
            next += 1;
            continue;
        }
        let t0 = Instant::now();
        let remote = looked_up.take().unwrap_or_else(|| {
            trace_event(inner, span::RECV, lead.key, 0);
            hinted_remote(inner, lead.key)
        });
        let mut end = next + 1;
        while end < run.len() {
            let key = run[end].key;
            let repeated = run[next..end].iter().any(|g| g.key == key);
            if repeated || inner.store.lock().meta.peek(key).is_some() {
                break;
            }
            trace_event(inner, span::RECV, key, 0);
            let its_remote = hinted_remote(inner, key);
            if its_remote != remote {
                looked_up = Some(its_remote);
                break;
            }
            end += 1;
        }
        let group = &run[next..end];
        match remote {
            Remote::Peer(peer) => probe_peer(inner, group, peer, t0, out),
            Remote::Origin => fetch_from_origin(inner, group, t0, out),
        }
        next = end;
    }
}

/// One result of a `Get`-shaped exchange, unpacked.
fn unpack(result: io::Result<Message>) -> io::Result<(Status, u32, Bytes)> {
    match result? {
        Message::GetReply {
            status,
            version,
            body,
            ..
        } => Ok((status, version, body)),
        other => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unexpected reply {other:?}"),
        )),
    }
}

/// Probes `peer` for every member of `group` in one pipelined exchange.
/// A member the peer serves is a peer hit; a member whose probe was
/// wasted — answered NotFound, or lost with the peer — drops its hint and
/// falls to the origin, with no second hint lookup (§3.1.1).
fn probe_peer(
    inner: &Inner,
    group: &[ParkedGet],
    peer: MachineId,
    t0: Instant,
    out: &mut dyn Replies,
) {
    let probes: Vec<Message> = group
        .iter()
        .map(|g| Message::PeerGet { url: g.url.clone() })
        .collect();
    out.flush();
    // Members before `settled` are answered; a stretch of wasted probes
    // behind it waits for the next hit (or the end) and then goes to the
    // origin together, ahead of that hit's store.
    let mut settled = 0;
    let mut members = group.iter().enumerate();
    let mut on_reply = |result: io::Result<Message>| {
        let Some((i, get)) = members.next() else {
            return;
        };
        let wasted = match unpack(result) {
            Ok((Status::Ok, version, body)) => {
                fetch_from_origin(inner, &group[settled..i], t0, out);
                settled = i + 1;
                inner.metrics.peer_hits.inc();
                trace_event(inner, span::PEER_PROBE, get.key, 0);
                store_body(inner, get.key, version, body.clone());
                let reply = get_reply(Status::Ok, version, ServedBy::Peer(peer), body);
                finish(inner, out, get.key, t0, &reply);
                return;
            }
            // False positive: the peer answered, without the object.
            Ok(_) => 1,
            // Dead or unreachable peer: same one-wasted-probe accounting,
            // plus the degradation counter the chaos harness watches —
            // the request still completes via the origin.
            Err(_) => {
                inner.metrics.degraded_to_origin.inc();
                2
            }
        };
        inner.metrics.false_positives.inc();
        trace_event(inner, span::PEER_PROBE, get.key, wasted);
        inner.hints.table.lock().forget(get.key);
    };
    inner.pool.request_run(
        peer.to_addr(),
        RequestOptions::peer_probe(),
        &probes,
        &mut on_reply,
    );
    fetch_from_origin(inner, &group[settled..], t0, out);
}

/// Step 3 of a `Get`: fetches every member of `group` from the origin in
/// one pipelined exchange, stores and answers each in order.
fn fetch_from_origin(inner: &Inner, group: &[ParkedGet], t0: Instant, out: &mut dyn Replies) {
    if group.is_empty() {
        return;
    }
    let gets: Vec<Message> = group
        .iter()
        .map(|g| Message::Get { url: g.url.clone() })
        .collect();
    out.flush();
    let mut members = group.iter();
    let mut on_reply = |result: io::Result<Message>| {
        let Some(get) = members.next() else {
            return;
        };
        let reply = match unpack(result) {
            Ok((Status::Ok, version, body)) => {
                inner.metrics.origin_fetches.inc();
                trace_event(inner, span::ORIGIN_FETCH, get.key, 0);
                store_body(inner, get.key, version, body.clone());
                get_reply(Status::Ok, version, ServedBy::Origin, body)
            }
            _ => {
                trace_event(inner, span::ORIGIN_FETCH, get.key, 1);
                get_reply(Status::Error, 0, ServedBy::Origin, Bytes::new())
            }
        };
        finish(inner, out, get.key, t0, &reply);
    };
    inner.pool.request_run(
        inner.config.origin,
        RequestOptions::origin(),
        &gets,
        &mut on_reply,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{CacheNode, NodeConfig};
    use crate::origin::OriginServer;

    /// Records what the service does to its reply sink, in order.
    struct Recorded(Vec<String>);

    impl Replies for Recorded {
        fn push(&mut self, reply: &Message) {
            match reply {
                Message::GetReply { served_by, .. } => self.0.push(format!("{served_by:?}")),
                other => self.0.push(format!("{other:?}")),
            }
        }

        fn flush(&mut self) {
            self.0.push("flush".to_string());
        }
    }

    /// The rule that keeps a large run from delaying its own first
    /// replies: whatever is finished is flushed before every exchange, and
    /// a group's members share one exchange (one flush, not one each).
    #[test]
    fn finished_replies_are_flushed_before_every_exchange() {
        let origin = OriginServer::spawn("127.0.0.1:0").expect("origin");
        let node = CacheNode::spawn(NodeConfig::new("127.0.0.1:0", origin.addr())).expect("node");
        crate::client::fetch(node.addr(), "http://s.test/resident").expect("warm");
        let run: Vec<ParkedGet> = ["a", "resident", "b", "c"]
            .iter()
            .map(|name| ParkedGet::new(format!("http://s.test/{name}")))
            .collect();
        let mut seen = Recorded(Vec::new());
        service_gets(&node.inner, &run, &mut seen);
        assert_eq!(
            seen.0,
            ["flush", "Origin", "Local", "flush", "Origin", "Origin"]
        );
        assert_eq!(origin.request_count(), 4);
    }
}
