//! The `Get` service: local cache, then the hinted peer, then the origin
//! (§3.1.1 — a miss never takes an extra hop, and a wrong hint costs its
//! request exactly one wasted probe).
//!
//! The unit of service is the **run** of `Get`s a client has pipelined on
//! one connection (a lone `Get` is the run of one), and its [`Service`]
//! owns the run, does no I/O and reads no clock: the shard that owns the
//! connection performs each [`Exchange`] that [`Service::next`] asks for
//! and hands every result to [`Service::reply`], passing the time in. The
//! service lives on the connection across the shard's poll iterations
//! while its exchanges are out. Each maximal group of
//! consecutive misses bound for one remote — a hinted peer, or the origin
//! — is one pipelined exchange, followed for a peer group by at most one
//! origin exchange carrying the members whose probes were wasted.
//!
//! What a client can observe of a run is what servicing its `Get`s one
//! after another would produce — same replies in the same order, same
//! counters, same store and hint tables — except that the probes of a
//! group overlap in time. Three rules keep it so:
//!
//! * a group never holds two requests for one key, nor a key resident
//!   when it forms (answered from the cache at its own turn, after the
//!   group's stores have had their chance to evict it);
//! * members are stored in request order: a peer hit behind a wasted probe
//!   of its group waits, body in hand, for that member's origin fill;
//! * a finished reply is never held: the step that finishes it hands it
//!   to the shard, which delivers it before the next exchange.

use super::propagation::queue_update;
use super::{trace_event, Inner, RequestOptions};
use crate::wire::{HintAction, MachineId, Message, ServedBy, Status};
use bh_obs::span;
use bh_simcore::ByteSize;
use bytes::Bytes;
use std::collections::VecDeque;
use std::io;
use std::net::SocketAddr;

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

/// One pipelined exchange the service asks its shell for: `frames` to
/// `addr` under `options`, each result handed back in frame order.
#[derive(Debug)]
pub(super) struct Exchange {
    pub(super) addr: SocketAddr,
    pub(super) options: RequestOptions,
    pub(super) frames: Vec<Message>,
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
/// body from one probe under one store lock.
pub(super) fn cached(inner: &Inner, key: u64) -> Option<(u32, Bytes)> {
    let mut store = inner.store.lock();
    let (version, body) = store.get_value(key, 0)?;
    Some((version, body.clone()))
}

/// Step 1 of a `Get`, the answer that needs no remote: a drained node
/// (mesh API) turns every client `Get` away exactly like admission control
/// does, which outranks the cache; otherwise a resident object is a local
/// hit. `None` for a miss. Purely in-memory, so the shard answers a `Get`
/// this way inline, without starting a run.
pub(super) fn answer_locally(inner: &Inner, key: u64) -> Option<Message> {
    if inner.drained() {
        return Some(redirect(inner, key, 0));
    }
    let (version, body) = cached(inner, key)?;
    inner.metrics.local_hits.inc();
    trace_event(inner, span::LOCAL_HIT, key, 0);
    Some(get_reply(Status::Ok, version, ServedBy::Local, body))
}

/// Stores a body locally (inform) and queues the hint updates implied by
/// the evictions plus the arrival itself.
pub(super) fn store_body(inner: &Inner, key: u64, version: u32, body: Bytes) {
    let size = ByteSize::from_bytes(body.len() as u64);
    // bh-lint: allow(no-hot-alloc, reason = "an empty Vec allocates nothing; it grows only when the insert evicts, and the evicted keys are announced after the store lock is released")
    let mut evicted = Vec::new();
    let stored = inner
        .store
        .lock()
        .insert_value(key, size, version, body, |gone| evicted.push(gone.key));
    // Too large to cache: nothing arrived and nothing left.
    if !stored {
        return;
    }
    for gone in evicted {
        queue_update(inner, HintAction::Remove, gone);
    }
    queue_update(inner, HintAction::Add, key);
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

/// A peer's copy of a member: who served it, its version and body.
type Hit = (MachineId, u32, Bytes);

/// The service of one run (see the [module docs](self)).
pub(super) struct Service {
    run: Vec<ParkedGet>,
    /// The first member not yet answered locally or taken into a group.
    next: usize,
    /// The remote of `run[next]`, when forming the previous group already
    /// looked it up (it named a different remote and closed that group).
    looked_up: Option<Remote>,
    /// While a peer exchange is out: the peer, and whose result is next.
    probing: Option<(MachineId, usize)>,
    /// When the group in flight formed: its members' service times start.
    formed: u64,
    /// The group's members not answered yet, in request order, each with
    /// the peer's copy once a probe has found one.
    group: VecDeque<(usize, Option<Hit>)>,
}

impl Service {
    pub(super) fn new(run: Vec<ParkedGet>) -> Service {
        Service {
            run,
            next: 0,
            looked_up: None,
            probing: None,
            formed: 0,
            group: VecDeque::new(),
        }
    }

    /// The exchange to perform next, at `now` (micros), or `None` once the
    /// run is done: the origin fill of a peer group's wasted probes, or the
    /// next group, after answering what needs no remote. Finished replies
    /// go onto `out`, in request order. Every miss leaves the recv →
    /// hint-lookup → probe/origin-fetch → reply spans once and is timed
    /// into `request_service_micros`.
    pub(super) fn next(
        &mut self,
        inner: &Inner,
        now: u64,
        out: &mut Vec<Message>,
    ) -> Option<Exchange> {
        if self.probing.take().is_some() && !self.group.is_empty() {
            return Some(self.fetch(inner));
        }
        let run = &self.run;
        while self.next < run.len() {
            let lead = &run[self.next];
            if let Some(reply) = answer_locally(inner, lead.key) {
                // As on the shard: no miss, so no service spans and no
                // latency sample.
                out.push(reply);
                self.looked_up = None;
                self.next += 1;
                continue;
            }
            let remote = self.looked_up.take().unwrap_or_else(|| {
                trace_event(inner, span::RECV, lead.key, 0);
                hinted_remote(inner, lead.key)
            });
            let (start, mut end) = (self.next, self.next + 1);
            while end < run.len() {
                let key = run[end].key;
                let repeated = run[start..end].iter().any(|g| g.key == key);
                if repeated || inner.store.lock().peek(key).is_some() {
                    break;
                }
                trace_event(inner, span::RECV, key, 0);
                let its_remote = hinted_remote(inner, key);
                if its_remote != remote {
                    self.looked_up = Some(its_remote);
                    break;
                }
                end += 1;
            }
            (self.next, self.formed) = (end, now);
            self.group.extend((start..end).map(|member| (member, None)));
            let Remote::Peer(peer) = remote else {
                return Some(self.fetch(inner));
            };
            self.probing = Some((peer, start));
            let urls = self.run[start..end].iter().map(|g| g.url.clone());
            return Some(Exchange {
                addr: peer.to_addr(),
                options: RequestOptions::peer_probe(),
                frames: urls.map(|url| Message::PeerGet { url }).collect(),
            });
        }
        None
    }

    /// The origin exchange for every unanswered member without a copy.
    fn fetch(&self, inner: &Inner) -> Exchange {
        let waiting = self.group.iter().filter(|(_, hit)| hit.is_none());
        let urls = waiting.map(|&(member, _)| self.run[member].url.clone());
        Exchange {
            addr: inner.config.origin,
            options: RequestOptions::origin(),
            frames: urls.map(|url| Message::Get { url }).collect(),
        }
    }

    /// Takes the next result of the exchange in flight, at `now`. A probe
    /// the peer serves is a peer hit; one answered NotFound, or lost with
    /// the peer, is wasted: it drops its hint and falls to the origin, with
    /// no second hint lookup (§3.1.1). An origin result answers the first
    /// unanswered member. Then every peer hit with no unanswered member
    /// before it is stored and answered, in order.
    pub(super) fn reply(
        &mut self,
        inner: &Inner,
        now: u64,
        result: io::Result<Message>,
        out: &mut Vec<Message>,
    ) {
        if let Some((peer, at)) = self.probing.filter(|&(_, at)| at < self.next) {
            self.probing = Some((peer, at + 1));
            let key = self.run[at].key;
            let wasted = match unpack(result) {
                Ok((Status::Ok, version, body)) => {
                    inner.metrics.peer_hits.inc();
                    trace_event(inner, span::PEER_PROBE, key, 0);
                    // The group's members from `at` on are all unanswered.
                    let slot = self.group.len() - (self.next - at);
                    self.group[slot].1 = Some((peer, version, body));
                    0
                }
                // False positive: the peer answered, without the object.
                Ok(_) => 1,
                // Dead or unreachable peer: same one-wasted-probe
                // accounting, plus the degradation counter the chaos
                // harness watches — the request still completes via the
                // origin.
                Err(_) => {
                    inner.metrics.degraded_to_origin.inc();
                    2
                }
            };
            if wasted > 0 {
                inner.metrics.false_positives.inc();
                trace_event(inner, span::PEER_PROBE, key, wasted);
                inner.hints.table.lock().forget(key);
            }
        } else if let Some((member, _)) = self.group.pop_front() {
            let key = self.run[member].key;
            let reply = match unpack(result) {
                Ok((Status::Ok, version, body)) => {
                    inner.metrics.origin_fetches.inc();
                    trace_event(inner, span::ORIGIN_FETCH, key, 0);
                    store_body(inner, key, version, body.clone());
                    get_reply(Status::Ok, version, ServedBy::Origin, body)
                }
                _ => {
                    trace_event(inner, span::ORIGIN_FETCH, key, 1);
                    get_reply(Status::Error, 0, ServedBy::Origin, Bytes::new())
                }
            };
            self.finish(inner, now, key, 2, reply, out);
        }
        while matches!(self.group.front(), Some((_, Some(_)))) {
            if let Some((member, Some((peer, version, body)))) = self.group.pop_front() {
                let key = self.run[member].key;
                store_body(inner, key, version, body.clone());
                let reply = get_reply(Status::Ok, version, ServedBy::Peer(peer), body);
                self.finish(inner, now, key, 1, reply, out);
            }
        }
    }

    /// Closes one miss: the reply span with its stable served-by code (1
    /// peer, 2 origin), its service time since the group formed, and the
    /// reply itself.
    fn finish(
        &self,
        inner: &Inner,
        now: u64,
        key: u64,
        served_by: u64,
        reply: Message,
        out: &mut Vec<Message>,
    ) {
        trace_event(inner, span::REPLY, key, served_by);
        let micros = now.saturating_sub(self.formed);
        inner.metrics.request_service_micros.observe(micros);
        out.push(reply);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeConfig;
    use bh_simcore::rng::Xoshiro256;
    use std::collections::{BTreeMap, BTreeSet};
    use std::sync::atomic::Ordering;

    /// The runs' only source of choice: uniform in `[0, n)`.
    fn below(rng: &mut Xoshiro256, n: usize) -> usize {
        rng.below(n as u64) as usize
    }

    /// Machine 1 is the node under test, machine 2 its peer.
    fn machine(n: u8) -> MachineId {
        MachineId::from_addr(SocketAddr::from(([10, 0, 0, n], 7000))).expect("ipv4")
    }

    /// The origin's address; nothing listens there.
    fn origin() -> SocketAddr {
        SocketAddr::from(([10, 0, 0, 9], 80))
    }

    /// A node's shared state, with no listener, no thread and no socket,
    /// and a data cache of `capacity` bytes.
    fn node(capacity: u64) -> Inner {
        let mut config = NodeConfig::new("127.0.0.1:0", origin())
            .with_data_capacity(ByteSize::from_bytes(capacity));
        config.hint_capacity = ByteSize::from_kb(4);
        Inner::new(config, machine(1))
    }

    /// A body derived from its key: 64–255 bytes.
    fn body(key: u64) -> Bytes {
        Bytes::from(vec![key as u8; 64 + (key % 192) as usize])
    }

    /// The scripted remotes: the peer serves the keys it `held`, version 1,
    /// and loses the `lost` ones at the transport; the origin serves every
    /// key, version 2, except the `failing` ones. Both count what each key
    /// drew.
    #[derive(Clone, Default)]
    struct Remotes {
        held: BTreeSet<u64>,
        lost: BTreeSet<u64>,
        failing: BTreeSet<u64>,
        probes: BTreeMap<u64, usize>,
        fetches: BTreeMap<u64, usize>,
        /// Keys whose probe was wasted, in order.
        wasted: Vec<u64>,
    }

    impl Remotes {
        fn answer(&mut self, to: SocketAddr, frame: &Message) -> io::Result<Message> {
            let lost = || Err(io::Error::new(io::ErrorKind::ConnectionReset, "scripted"));
            match frame {
                Message::PeerGet { url } if to == machine(2).to_addr() => {
                    let key = bh_md5::url_key(url);
                    *self.probes.entry(key).or_default() += 1;
                    if self.lost.contains(&key) {
                        self.wasted.push(key);
                        lost()
                    } else if self.held.contains(&key) {
                        Ok(get_reply(Status::Ok, 1, ServedBy::Local, body(key)))
                    } else {
                        self.wasted.push(key);
                        Ok(get_reply(
                            Status::NotFound,
                            0,
                            ServedBy::Local,
                            Bytes::new(),
                        ))
                    }
                }
                Message::Get { url } if to == origin() => {
                    let key = bh_md5::url_key(url);
                    *self.fetches.entry(key).or_default() += 1;
                    if self.failing.contains(&key) {
                        lost()
                    } else {
                        Ok(get_reply(Status::Ok, 2, ServedBy::Origin, body(key)))
                    }
                }
                other => panic!("{other:?} sent to {to}"),
            }
        }
    }

    /// The shard's loop over the scripted remotes, with a step counter
    /// for its clock. Returns what the shard is handed, in order: each
    /// reply at the step that finished it, and `None` where an exchange
    /// goes out.
    fn serve(inner: &Inner, run: &[ParkedGet], remotes: &mut Remotes) -> Vec<Option<Message>> {
        let owned = run.iter().map(|g| ParkedGet::new(g.url.clone())).collect();
        let (mut service, mut clock) = (Service::new(owned), 0);
        let (mut seen, mut out) = (Vec::new(), Vec::new());
        while let Some(exchange) = service.next(inner, clock, &mut out) {
            seen.extend(out.drain(..).map(Some));
            seen.push(None);
            for frame in &exchange.frames {
                clock += 1;
                let result = remotes.answer(exchange.addr, frame);
                service.reply(inner, clock, result, &mut out);
                seen.extend(out.drain(..).map(Some));
            }
        }
        seen.extend(out.drain(..).map(Some));
        seen
    }

    fn gets(urls: &[&str]) -> Vec<ParkedGet> {
        urls.iter().map(|u| ParkedGet::new(u.to_string())).collect()
    }

    /// The rule that keeps a large run from delaying its own first
    /// replies: each reply is handed to the shard by the step that
    /// finishes it, so it is delivered before the next exchange goes out;
    /// a group's members share one exchange; and a peer hit behind a
    /// wasted probe of its group waits for that member's origin fill, and
    /// no longer.
    #[test]
    fn finished_replies_are_flushed_before_every_exchange() {
        let inner = node(1 << 20);
        let resident = ParkedGet::new("http://s.test/resident".into());
        store_body(&inner, resident.key, 1, body(resident.key));
        let peered = gets(&["http://s.test/p0", "http://s.test/p1", "http://s.test/p2"]);
        for get in &peered {
            inner.hints.table.lock().learn(get.key, machine(2).0);
        }
        let mut remotes = Remotes::default();
        remotes.held.extend([peered[0].key, peered[2].key]);
        let names = |seen: Vec<Option<Message>>| -> Vec<String> {
            let name = |step| match step {
                Some(Message::GetReply { served_by, .. }) => format!("{served_by:?}"),
                other => format!("{other:?}"),
            };
            seen.into_iter().map(name).collect()
        };

        let run = gets(&[
            "http://s.test/a",
            "http://s.test/resident",
            "http://s.test/b",
        ]);
        let seen = names(serve(&inner, &run, &mut remotes));
        assert_eq!(seen, ["None", "Origin", "Local", "None", "Origin"]);

        let run: Vec<ParkedGet> = gets(&["http://s.test/c"])
            .into_iter()
            .chain(peered)
            .collect();
        let seen = names(serve(&inner, &run, &mut remotes));
        let peer = format!("{:?}", ServedBy::Peer(machine(2)));
        let expected = ["None", "Origin", "None", &peer, "None", "Origin", &peer];
        assert_eq!(seen, expected);
        assert_eq!(remotes.fetches.values().sum::<usize>(), 4);
        assert_eq!(remotes.probes.values().sum::<usize>(), 3);
    }

    const SEEDS: u64 = 100;
    const RUNS_PER_SEED: usize = 10;
    const KEYS: usize = 24;
    const LONGEST_RUN: usize = 32;

    /// The counters a run moves: local, peer and origin service, wasted
    /// probes, the transport failures among them, and timed misses.
    fn counts(inner: &Inner) -> [u64; 6] {
        let m = &inner.metrics;
        [
            m.local_hits.get(),
            m.peer_hits.get(),
            m.origin_fetches.get(),
            m.false_positives.get(),
            m.degraded_to_origin.get(),
            m.request_service_micros.snapshot().count,
        ]
    }

    /// A store's contents: its entries in recency order, and every body.
    type Contents = (Vec<(u64, ByteSize, u32)>, BTreeMap<u64, Bytes>);

    fn store(inner: &Inner) -> Contents {
        let store = inner.store.lock();
        let entries: Vec<_> = store.iter().collect();
        let bodies = entries
            .iter()
            .map(|&(k, _, _)| {
                (
                    k,
                    store
                        .peek_value(k)
                        .cloned()
                        .expect("entry carries its body"),
                )
            })
            .collect();
        (entries, bodies)
    }

    /// The module's claim, with no socket and no clock: a node serving
    /// each seeded run of 1–32 `Get`s over at most 24 keys pipelined, and
    /// a twin serving the same `Get`s as runs of one, end every run with
    /// equal replies in order, equal stores in recency order (so stores
    /// evicted alike), equal hint tables and pending hint updates, and
    /// equal counters. The data cache holds a few objects; hints name the
    /// peer or the node itself; the peer serves what it holds and loses a
    /// seeded set of keys, the origin fails another, and now and then the
    /// node is drained. The paper's contract holds as counts: a request
    /// draws at most one probe and one origin fetch, every wasted probe
    /// forgets its hint, and a reply is an error only where the origin
    /// failed its key.
    #[test]
    fn a_pipelined_run_equals_one_at_a_time_service_over_seeded_runs() {
        let mut runs = 0;
        for seed in 0..SEEDS {
            let mut rng = Xoshiro256::seed_from_u64(seed);
            let urls: Vec<String> = (0..=below(&mut rng, KEYS))
                .map(|i| format!("http://diff.test/{i}"))
                .collect();
            let capacity = 256 + below(&mut rng, 768) as u64;
            let (pipelined, single) = (node(capacity), node(capacity));
            let mut remotes = Remotes::default();
            for key in urls.iter().map(|u| bh_md5::url_key(u)) {
                let sets = [
                    (&mut remotes.held, 2),
                    (&mut remotes.lost, 6),
                    (&mut remotes.failing, 6),
                ];
                for (set, one_in) in sets {
                    if below(&mut rng, one_in) == 0 {
                        set.insert(key);
                    }
                }
            }
            let (mut a, mut b) = (remotes.clone(), remotes);
            for _ in 0..RUNS_PER_SEED {
                let drained = below(&mut rng, 20) == 0;
                for url in &urls {
                    let location = match below(&mut rng, 8) {
                        0..=3 => Some(machine(2)),
                        4 => Some(machine(1)),
                        _ => None,
                    };
                    for side in [&pipelined, &single] {
                        if let Some(at) = location {
                            side.hints.table.lock().learn(bh_md5::url_key(url), at.0);
                        }
                        side.drained.store(drained, Ordering::Relaxed);
                    }
                }
                let run: Vec<ParkedGet> = (0..=below(&mut rng, LONGEST_RUN))
                    .map(|_| ParkedGet::new(urls[below(&mut rng, urls.len())].clone()))
                    .collect();
                for side in [&mut a, &mut b] {
                    side.probes.clear();
                    side.fetches.clear();
                    side.wasted.clear();
                }
                let wasted_before = pipelined.metrics.false_positives.get();

                let served = serve(&pipelined, &run, &mut a);
                let replies: Vec<Message> = served.into_iter().flatten().collect();
                let one_by_one: Vec<Message> = run
                    .chunks(1)
                    .flat_map(|one| serve(&single, one, &mut b))
                    .flatten()
                    .collect();
                let what = format!("seed {seed}, run {runs}");
                assert_eq!(replies, one_by_one, "{what}: replies");
                assert_eq!(store(&pipelined), store(&single), "{what}: store");
                let hints = (pipelined.hints.entries(), single.hints.entries());
                assert_eq!(hints.0, hints.1, "{what}: hint tables");
                let pending = |side: &Inner| format!("{:?}", side.propagation.lock());
                assert_eq!(pending(&pipelined), pending(&single), "{what}: pending");
                assert_eq!(counts(&pipelined), counts(&single), "{what}: counters");

                // §3.2 as counts.
                assert_eq!(replies.len(), run.len(), "{what}");
                assert_eq!((&a.probes, &a.fetches), (&b.probes, &b.fetches), "{what}");
                let (mut via_peer, mut via_origin) = (0, 0);
                for (get, reply) in run.iter().zip(&replies) {
                    let Message::GetReply {
                        status, served_by, ..
                    } = reply
                    else {
                        panic!("{what}: {reply:?}");
                    };
                    let asked = run.iter().filter(|g| g.key == get.key).count();
                    let drew = |counts: &BTreeMap<u64, usize>| counts.get(&get.key).copied();
                    assert!(drew(&a.probes).unwrap_or(0) <= asked, "{what}: probes");
                    assert!(drew(&a.fetches).unwrap_or(0) <= asked, "{what}: fetches");
                    if *status == Status::Error {
                        assert!(a.failing.contains(&get.key), "{what}: {get:?} failed");
                    }
                    via_peer += usize::from(matches!(served_by, ServedBy::Peer(_)));
                    via_origin +=
                        usize::from(*status != Status::Redirect && *served_by == ServedBy::Origin);
                }
                let probes = a.probes.values().sum::<usize>();
                assert_eq!(probes, via_peer + a.wasted.len(), "{what}: probes");
                assert_eq!(a.fetches.values().sum::<usize>(), via_origin, "{what}");
                let wasted = pipelined.metrics.false_positives.get() - wasted_before;
                assert_eq!(wasted, a.wasted.len() as u64, "{what}: wasted probes");
                for key in &a.wasted {
                    let kept = pipelined.hints.table.lock().peek(*key);
                    assert_eq!(kept, None, "{what}: a wasted probe kept its hint");
                }
                for side in [&pipelined, &single] {
                    side.propagation.lock().discard_pending();
                }
                runs += 1;
            }
        }
        assert!(runs >= 1_000);
    }
}
