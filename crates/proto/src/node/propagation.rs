//! The node's one hint-propagation state (§3.1.2, §3.2): the bounded
//! queue of updates waiting for the next flush, the per-sender
//! authentication streaks, and the anti-entropy counters — all behind the
//! single `Inner.propagation` lock.
//!
//! The steps that change it take no socket and no clock:
//! [`Propagation::advertise`] queues one update (drop-oldest at
//! [`PENDING_CAP`]), [`Propagation::take_batch`] drains the queue
//! coalesced, [`Propagation::admit`] judges one received batch by its
//! sender and whether its tag verified, and the free [`apply`] runs the
//! §3.1.2 filter over a hint table. Below them, [`outbound_hint_batch`] and
//! [`receive_hint_batch`] take the lock for one step at a time, never while
//! the hint table's lock is held the other way round, and touch no socket.
//! Flushes and resyncs are rounds on shard 0 (`engine`'s `Rounds`), due at
//! the deadlines [`next_flush`] draws or when asked for.

use super::hints::HintTable;
use super::Inner;
use crate::wire::{coalesce, hint_batch_tag, HintAction, HintUpdate, MachineId, Message};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::time::Duration;

/// Cap on the pending hint-update queue. A slow or dead neighbor cannot
/// grow it past this: overflow drops the oldest records — they are hints,
/// so the next flush, push, or anti-entropy resync re-advertises the
/// state — and counts `hint_batch_overflow`.
pub(super) const PENDING_CAP: usize = 4096;

/// Cap on the senders whose authentication failures are tracked. The
/// sender id of a `HintBatch` is read off the wire, so without a bound a
/// peer cycling ids grows the streak map — and, three bad batches per id,
/// the pool's block list — without limit. When the map is full, an
/// untracked sender's bad batch is still dropped, still `Ack`ed and still
/// counted in `hint_auth_failures`; it just accrues no streak, so at most
/// this many senders are ever quarantined on authentication grounds.
pub(super) const AUTH_TRACKED_CAP: usize = 1024;

/// Consecutive hint-batch authentication failures a sender is allowed
/// before it is quarantined (pool-blocked, hints purged like a dead
/// peer's). The first valid batch afterwards heals it.
const HINT_AUTH_QUARANTINE_AFTER: u32 = 3;

/// See the [module docs](self).
#[derive(Debug, Default)]
pub(super) struct Propagation {
    /// Outbound updates since the last flush, oldest first.
    pending: VecDeque<HintUpdate>,
    /// Consecutive authentication failures per sender (keyed by
    /// `MachineId.0`), at most [`AUTH_TRACKED_CAP`] entries.
    auth_streaks: HashMap<u64, u32>,
    /// Completed resyncs and the hint records they learned
    /// (`control/resync/{runs,learned}`); one lock, so a poller that sees
    /// a run sees its learned total.
    resync_runs: u64,
    resync_learned: u64,
}

/// What [`Propagation::admit`] decided about one received batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(super) struct Admission {
    /// The tag verified: apply the batch.
    pub accepted: bool,
    /// This failure crossed the threshold: block the sender and purge
    /// the hints it planted.
    pub quarantine_now: bool,
    /// A valid batch from a quarantined sender: lift the block.
    pub healed: bool,
}

/// What [`apply`] did with one batch.
#[derive(Debug, Default, PartialEq, Eq)]
pub(super) struct Applied {
    /// Updates that changed nothing here (§3.1.2: not forwarded).
    pub filtered: u64,
    /// The updates that changed the table, in batch order — what a node
    /// with a tree edge forwards. Empty when not `hierarchical`.
    pub propagate: Vec<HintUpdate>,
}

impl Propagation {
    /// Queues one update for the next flush, evicting the oldest records
    /// while the queue is at [`PENDING_CAP`]. Returns how many were
    /// dropped (0 or 1).
    pub(super) fn advertise(&mut self, update: HintUpdate) -> u64 {
        let mut dropped = 0;
        while self.pending.len() >= PENDING_CAP {
            self.pending.pop_front();
            dropped += 1;
        }
        self.pending.push_back(update);
        dropped
    }

    /// Drains the queue into the minimal equivalent batch (an Add
    /// shadowed by a Remove never hits the wire).
    pub(super) fn take_batch(&mut self) -> Vec<HintUpdate> {
        coalesce(std::mem::take(&mut self.pending).into())
    }

    /// Drops everything queued (a crash loses it).
    pub(super) fn discard_pending(&mut self) {
        self.pending.clear();
    }

    /// Judges one received batch: a verified tag clears the sender's
    /// streak (healing it if it was quarantined); a bad one advances the
    /// streak of a tracked sender, or starts one while fewer than
    /// [`AUTH_TRACKED_CAP`] senders are tracked.
    pub(super) fn admit(&mut self, sender: MachineId, tag_ok: bool) -> Admission {
        if tag_ok {
            let healed = self
                .auth_streaks
                .remove(&sender.0)
                .is_some_and(|streak| streak >= HINT_AUTH_QUARANTINE_AFTER);
            return Admission {
                accepted: true,
                healed,
                ..Admission::default()
            };
        }
        let room = self.auth_streaks.len() < AUTH_TRACKED_CAP;
        let streak = match self.auth_streaks.entry(sender.0) {
            Entry::Occupied(slot) => {
                let streak = slot.into_mut();
                *streak = streak.saturating_add(1);
                *streak
            }
            Entry::Vacant(slot) if room => *slot.insert(1),
            Entry::Vacant(_) => 0,
        };
        Admission {
            quarantine_now: streak == HINT_AUTH_QUARANTINE_AFTER,
            ..Admission::default()
        }
    }

    /// Records one completed resync that learned `learned` records.
    pub(super) fn resync_completed(&mut self, learned: u64) {
        self.resync_runs += 1;
        self.resync_learned += learned;
    }

    /// `(runs, learned)` over every completed resync.
    pub(super) fn resync_counts(&self) -> (u64, u64) {
        (self.resync_runs, self.resync_learned)
    }
}

/// Applies one received batch to `table` with the §3.1.2 filter, in batch
/// order: an Add changes the table only as the first copy it hears of, a
/// Remove only if the hint named the departing machine, and updates
/// naming `me` are skipped. Loop-safe: re-applying a batch is a no-op
/// (everything filtered) wherever it has already landed.
pub(super) fn apply(
    table: &mut HintTable,
    me: MachineId,
    hierarchical: bool,
    updates: &[HintUpdate],
) -> Applied {
    let mut applied = Applied {
        filtered: 0,
        propagate: Vec::with_capacity(if hierarchical { updates.len() } else { 0 }),
    };
    for u in updates.iter().filter(|u| u.machine != me) {
        let changed = match u.action {
            HintAction::Add => table.learn(u.object, u.machine.0),
            HintAction::Remove => table.forget_if(u.object, u.machine.0),
        };
        if !changed {
            applied.filtered += 1;
        } else if hierarchical {
            applied.propagate.push(*u);
        }
    }
    applied
}

/// Queues `updates` for the next flush under one lock acquisition.
pub(super) fn queue_pending<I: IntoIterator<Item = HintUpdate>>(inner: &Inner, updates: I) {
    let mut propagation = inner.propagation.lock();
    let mut dropped = 0;
    for u in updates {
        dropped += propagation.advertise(u);
    }
    drop(propagation);
    if dropped > 0 {
        inner.metrics.hint_batch_overflow.add(dropped);
    }
}

/// Queues one update about this node's own store.
pub(super) fn queue_update(inner: &Inner, action: HintAction, key: u64) {
    queue_pending(
        inner,
        std::iter::once(HintUpdate {
            action,
            object: key,
            machine: inner.machine,
        }),
    );
}

/// Every object this node holds, as Adds naming it, sorted by key so the
/// batch is deterministic for a given store state: the `Resync` reply and
/// the re-advertisement after re-homing.
pub(super) fn held_as_adds(inner: &Inner) -> Vec<HintUpdate> {
    let mut keys: Vec<u64> = inner.store.lock().iter().map(|(key, _, _)| key).collect();
    keys.sort_unstable();
    keys.into_iter()
        .map(|object| HintUpdate {
            action: HintAction::Add,
            object,
            machine: inner.machine,
        })
        .collect()
}

/// Stops trusting `machine`: drops every hint naming it and counts them
/// in `stale_hints_gc` — the repair a confirmed death and an
/// authentication quarantine share.
pub(super) fn purge_machine(inner: &Inner, machine: MachineId) {
    let purged = inner.hints.table.lock().purge_location(machine.0);
    inner.metrics.stale_hints_gc.add(purged as u64);
}

/// Builds this node's authenticated outbound [`Message::HintBatch`].
/// When the chaos harness arms `corrupt_hint_tags` on the fault switch,
/// the tag's first byte is flipped — the frame still parses everywhere,
/// but verification fails at every honest receiver (the byzantine-sender
/// fault).
pub(super) fn outbound_hint_batch(inner: &Inner, updates: Vec<HintUpdate>) -> Message {
    let mut msg = Message::hint_batch(inner.machine, updates);
    if inner.pool.fault_switch().corrupt_hint_tags() {
        if let Message::HintBatch { tag, .. } = &mut msg {
            tag[0] ^= 0xFF;
        }
    }
    msg
}

/// Takes one received [`Message::HintBatch`] — pushed by a peer, or a
/// resync reply (any other frame is ignored). Checks its authenticator
/// against the tag this node computes for `(sender, updates)` and carries
/// out what [`Propagation::admit`] decides: a mismatch counts
/// `hint_auth_failures`; the one that crosses the threshold quarantines
/// the sender — outbound path blocked, every hint it planted purged; a
/// valid batch from a quarantined sender lifts the block. Only a verified
/// batch reaches the hint store ([`apply`]) — a byzantine peer cannot seed
/// a restarting node's table with forged locations — and its
/// state-changing subset is queued for hierarchical re-propagation.
/// Returns the records applied.
pub(super) fn receive_hint_batch(inner: &Inner, batch: Message) -> usize {
    let Message::HintBatch {
        sender,
        updates,
        tag,
    } = batch
    else {
        return 0;
    };
    let tag_ok = hint_batch_tag(sender, &updates) == tag;
    let admission = inner.propagation.lock().admit(sender, tag_ok);
    if !tag_ok {
        inner.metrics.hint_auth_failures.inc();
    }
    if admission.healed {
        let addr = sender.to_addr();
        inner.pool.unblock(addr);
        inner.pool.forgive(addr);
    }
    if admission.quarantine_now {
        // With the pool's block set full the block is refused; the purge
        // still stops every probe this sender's hints would have cost.
        inner.pool.block(sender.to_addr());
        purge_machine(inner, sender);
    }
    if !admission.accepted {
        return 0;
    }
    let hierarchical = inner.membership.lock().hierarchical();
    // One table lock for the whole batch.
    let applied = apply(
        &mut inner.hints.table.lock(),
        inner.machine,
        hierarchical,
        &updates,
    );
    inner.metrics.updates_filtered.add(applied.filtered);
    inner.metrics.updates_received.add(updates.len() as u64);
    if !applied.propagate.is_empty() {
        // Knowledge changed: climb/descend the metadata tree.
        queue_pending(inner, applied.propagate);
    }
    updates.len()
}

/// Micros to the next flush (§3.2's Floyd–Jacobson desynchronization):
/// one step of the per-machine LCG `seed` (started at the machine id | 1),
/// uniform in `[0, flush_max)`, in whole milliseconds.
pub(super) fn next_flush(seed: &mut u64, flush_max: Duration) -> u64 {
    *seed = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *seed % flush_max.as_millis().max(1) as u64 * 1000
}

#[cfg(test)]
mod tests {
    use super::super::hints::HintStore;
    use super::super::membership::Membership;
    use super::super::NodeConfig;
    use super::*;
    use crate::mesh::Topology;
    use bh_simcore::ByteSize;
    use std::collections::{BTreeMap, BTreeSet};
    use std::net::SocketAddr;

    fn update(action: HintAction, object: u64, machine: MachineId) -> HintUpdate {
        HintUpdate {
            action,
            object,
            machine,
        }
    }

    /// The pending queue is bounded — overflow drops the oldest records
    /// and reports how many.
    #[test]
    fn pending_buffer_drops_oldest_at_cap() {
        let mut propagation = Propagation::default();
        let mut dropped = 0;
        for i in 0..PENDING_CAP as u64 + 10 {
            dropped += propagation.advertise(update(HintAction::Add, i, MachineId(9)));
        }
        assert_eq!(propagation.pending.len(), PENDING_CAP);
        assert_eq!(dropped, 10);
        // Oldest went first: the front is now record 10.
        assert_eq!(propagation.pending.front().map(|u| u.object), Some(10));
        assert_eq!(
            propagation.pending.back().map(|u| u.object),
            Some(PENDING_CAP as u64 + 9)
        );
    }

    /// The sender id of a batch is whatever the wire says, so the streak
    /// map is bounded: 100,000 bad-tag batches from distinct ids leave at
    /// most the cap tracked and at most the cap quarantined, and every
    /// one of them is refused.
    #[test]
    fn auth_streaks_are_bounded_at_the_tracked_cap() {
        let mut propagation = Propagation::default();
        let mut quarantined = 0;
        for round in 0..HINT_AUTH_QUARANTINE_AFTER {
            for id in 0..100_000u64 {
                let admission = propagation.admit(MachineId(id << 16), false);
                assert!(!admission.accepted && !admission.healed);
                quarantined += u64::from(admission.quarantine_now);
                assert!(propagation.auth_streaks.len() <= AUTH_TRACKED_CAP);
            }
            assert_eq!(propagation.auth_streaks.len(), AUTH_TRACKED_CAP, "{round}");
        }
        assert_eq!(quarantined, AUTH_TRACKED_CAP as u64);
        // A tracked sender heals on its first valid batch and frees its
        // slot; an untracked one is simply accepted.
        assert_eq!(
            propagation.admit(MachineId(0), true),
            Admission {
                accepted: true,
                healed: true,
                quarantine_now: false
            }
        );
        assert_eq!(propagation.auth_streaks.len(), AUTH_TRACKED_CAP - 1);
        assert!(!propagation.admit(MachineId(99_999 << 16), true).healed);
    }

    /// splitmix64: the schedules' only source of choice.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// One simulated member: what it holds, what it believes, what it has
    /// yet to tell — the three things a live node's store, hint table and
    /// propagation state are, with no socket between them.
    struct Member {
        me: MachineId,
        hierarchical: bool,
        /// Indices of the members a flush reaches.
        targets: Vec<usize>,
        held: BTreeSet<u64>,
        hints: HintStore,
        propagation: Propagation,
    }

    /// Counters over one schedule, named like the node metrics they
    /// mirror.
    #[derive(Default)]
    struct Tally {
        advertised: u64,
        updates_received: u64,
        updates_filtered: u64,
        /// Received updates naming the receiver itself (skipped).
        about_me: u64,
        /// Records [`apply`] handed back for forwarding.
        forwarded: u64,
        dropped: u64,
    }

    /// A mesh of [`Member`]s wired by [`Topology::wiring`] over fake
    /// addresses, with one FIFO per directed edge: per-sender order is
    /// kept, cross-sender order is the schedule's to shuffle.
    struct Sim {
        members: Vec<Member>,
        /// `channels[(from, to)]`: batches in flight.
        channels: BTreeMap<(usize, usize), VecDeque<Vec<HintUpdate>>>,
        /// Every machine that ever advertised a key.
        ever_held: BTreeMap<u64, BTreeSet<u64>>,
        tally: Tally,
    }

    impl Sim {
        fn new(topology: Topology) -> Sim {
            let addrs: Vec<SocketAddr> = (0..topology.size())
                .map(|i| SocketAddr::from(([10, 0, 0, 1], 7000 + i as u16)))
                .collect();
            let index_of = |a: &SocketAddr| addrs.iter().position(|b| b == a).expect("member");
            let config = NodeConfig::new("127.0.0.1:0", addrs[0]);
            let members = (0..addrs.len())
                .map(|i| {
                    // The node's own reading of its wiring, not a copy.
                    let membership = Membership::new(topology.wiring(&addrs, i), &config);
                    Member {
                        me: MachineId::from_addr(addrs[i]).expect("ipv4"),
                        hierarchical: membership.hierarchical(),
                        targets: membership.flush_targets().iter().map(index_of).collect(),
                        held: BTreeSet::new(),
                        hints: HintStore::open(ByteSize::from_kb(64), None),
                        propagation: Propagation::default(),
                    }
                })
                .collect();
            Sim {
                members,
                channels: BTreeMap::new(),
                ever_held: BTreeMap::new(),
                tally: Tally::default(),
            }
        }

        fn advertise(&mut self, i: usize, u: HintUpdate) {
            self.tally.dropped += self.members[i].propagation.advertise(u);
            assert!(self.members[i].propagation.pending.len() <= PENDING_CAP);
        }

        fn store(&mut self, i: usize, key: u64) {
            if self.members[i].held.insert(key) {
                let me = self.members[i].me;
                self.ever_held.entry(key).or_default().insert(me.0);
                self.tally.advertised += 1;
                self.advertise(i, update(HintAction::Add, key, me));
            }
        }

        fn evict(&mut self, i: usize, key: u64) {
            if self.members[i].held.remove(&key) {
                let me = self.members[i].me;
                self.tally.advertised += 1;
                self.advertise(i, update(HintAction::Remove, key, me));
            }
        }

        fn flush(&mut self, i: usize) {
            let batch = self.members[i].propagation.take_batch();
            if batch.is_empty() {
                return;
            }
            for &to in &self.members[i].targets {
                self.channels
                    .entry((i, to))
                    .or_default()
                    .push_back(batch.clone());
            }
        }

        /// Delivers the oldest batch of the `pick`-th busy edge, `times`
        /// over (a duplicate delivery is the same batch again, at once).
        fn deliver(&mut self, pick: usize, times: usize) {
            let busy: Vec<(usize, usize)> = self.channels.keys().copied().collect();
            let edge = busy[pick % busy.len()];
            let queue = self.channels.get_mut(&edge).expect("busy edge");
            let batch = queue.pop_front().expect("nonempty");
            if queue.is_empty() {
                self.channels.remove(&edge);
            }
            for _ in 0..times {
                let to = &mut self.members[edge.1];
                let applied = apply(&mut to.hints.table.lock(), to.me, to.hierarchical, &batch);
                let about_me = batch.iter().filter(|u| u.machine == to.me).count() as u64;
                self.tally.updates_received += batch.len() as u64;
                self.tally.updates_filtered += applied.filtered;
                self.tally.about_me += about_me;
                self.tally.forwarded += applied.propagate.len() as u64;
                if to.hierarchical {
                    // Every update is skipped, filtered or forwarded.
                    assert_eq!(
                        batch.len() as u64,
                        about_me + applied.filtered + applied.propagate.len() as u64
                    );
                } else {
                    assert!(applied.propagate.is_empty());
                }
                for u in applied.propagate {
                    self.advertise(edge.1, u);
                }
            }
        }

        fn quiescent(&self) -> bool {
            self.channels.is_empty()
                && self
                    .members
                    .iter()
                    .all(|m| m.propagation.pending.is_empty())
        }

        /// Keeps flushing and delivering in seeded order until nothing is
        /// pending or in flight; panics past `budget` steps.
        fn drain(&mut self, rng: &mut Rng, budget: usize, what: &str) {
            for _ in 0..budget {
                if self.quiescent() {
                    return;
                }
                if self.channels.is_empty() || rng.below(3) == 0 {
                    self.flush(rng.below(self.members.len()));
                } else {
                    self.deliver(rng.below(usize::MAX), 1);
                }
            }
            panic!("{what}: propagation still running after {budget} steps");
        }

        /// `updates_received = changed + filtered` (+ the updates about
        /// the receiver, which a node skips uncounted), and — with the
        /// queue never overflowing in these schedules — nothing dropped.
        fn check_accounting(&self, what: &str) {
            let t = &self.tally;
            assert_eq!(t.dropped, 0, "{what}");
            if self.members.iter().all(|m| m.hierarchical) {
                assert_eq!(
                    t.updates_received,
                    t.forwarded + t.updates_filtered + t.about_me,
                    "{what}"
                );
            } else {
                assert_eq!(t.forwarded, 0, "{what}");
            }
        }

        /// Every hint of every member, as `(member, key, location)`.
        fn hints(&self) -> Vec<(usize, u64, u64)> {
            let mut all = Vec::new();
            for (i, m) in self.members.iter().enumerate() {
                all.extend(m.hints.entries().into_iter().map(|(k, loc)| (i, k, loc)));
            }
            all
        }

        fn holds(&self, location: u64, key: u64) -> bool {
            self.members
                .iter()
                .any(|m| m.me.0 == location && m.held.contains(&key))
        }
    }

    const KEYS: u64 = 24;
    const EVENTS: usize = 160;
    const SEEDS: u64 = 300;

    fn key(rng: &mut Rng) -> u64 {
        bh_md5::url_key(&format!("http://sched.test/{}", rng.next() % KEYS))
    }

    /// Runs `EVENTS` seeded events — store, evict (when `evicts`), flush,
    /// deliver, duplicate delivery — then drains to quiescence.
    fn run_schedule(topology: Topology, seed: u64, evicts: bool) -> Sim {
        let mut sim = Sim::new(topology);
        let mut rng = Rng(seed);
        let n = sim.members.len();
        for _ in 0..EVENTS {
            match rng.below(10) {
                0..=2 => {
                    let k = key(&mut rng);
                    sim.store(rng.below(n), k);
                }
                3 if evicts => {
                    let k = key(&mut rng);
                    sim.evict(rng.below(n), k);
                }
                3..=5 => sim.flush(rng.below(n)),
                _ if sim.channels.is_empty() => {}
                6 => sim.deliver(rng.below(usize::MAX), 2),
                _ => sim.deliver(rng.below(usize::MAX), 1),
            }
        }
        let what = format!("{topology:?} seed {seed}");
        // Far above what any of these schedules needs (a few hundred).
        sim.drain(&mut rng, 100 * EVENTS, &what);
        sim.check_accounting(&what);
        sim
    }

    const FLAT: [Topology; 2] = [Topology::Flat { nodes: 3 }, Topology::Flat { nodes: 6 }];
    const TREE: Topology = Topology::TwoLevel {
        parents: 2,
        children_per_parent: 2,
    };

    /// Flat meshes forward nothing, so every record a member receives
    /// came straight from its subject in that subject's own order — and
    /// at quiescence every hint names a member that holds the key, under
    /// stores, evictions, duplicates and any cross-sender interleaving.
    #[test]
    fn flat_schedules_end_with_every_hint_naming_a_holder() {
        for topology in FLAT {
            for seed in 0..SEEDS {
                let sim = run_schedule(topology, seed, true);
                let fanout = (topology.size() - 1) as u64;
                // Duplicates aside, each advertised update is delivered
                // at most once per neighbor.
                assert!(sim.tally.updates_received <= 2 * fanout * sim.tally.advertised);
                for (i, k, loc) in sim.hints() {
                    assert!(
                        sim.holds(loc, k),
                        "{topology:?} seed {seed}: member {i} hints {k:#x} at {loc:#x}"
                    );
                }
            }
        }
    }

    /// In a hierarchy an Add is forwarded only as the first copy a member
    /// hears of, so without evictions each member forwards each key at
    /// most once — total forwarded records ≤ members × keys, whatever the
    /// schedule — and the tables converge: at quiescence every member
    /// knows a holder of every key it does not hold itself.
    #[test]
    fn tree_schedules_without_evictions_converge_within_the_first_copy_bound() {
        for seed in 0..SEEDS {
            let sim = run_schedule(TREE, seed, false);
            let stored = sim.ever_held.len() as u64;
            assert!(
                sim.tally.forwarded <= sim.members.len() as u64 * stored,
                "seed {seed}: {} forwarded for {stored} keys",
                sim.tally.forwarded
            );
            for (i, k, loc) in sim.hints() {
                assert!(sim.holds(loc, k), "seed {seed}: member {i}, key {k:#x}");
            }
            for (i, m) in sim.members.iter().enumerate() {
                for k in sim.ever_held.keys().filter(|k| !m.held.contains(k)) {
                    let known = m.hints.table.lock().peek(*k).is_some();
                    assert!(known, "seed {seed}: member {i} missed {k:#x}");
                }
            }
        }
    }

    /// With evictions in a hierarchy the two-parent cycle can echo an Add
    /// past the Remove that chased it (flush targets include the peer an
    /// update came from), so a hint may outlive its copy — one wasted
    /// probe, §3.2 — and no schedule-independent bound on forwarding
    /// exists: an Add and a Remove for one copy can swap places between
    /// the parents until one flush catches both. Under every seeded
    /// schedule here propagation still stops, within members × advertised
    /// forwarded records; nothing is invented (every hint names a machine
    /// that did advertise the key); and the accounting closes.
    #[test]
    fn tree_schedules_with_evictions_stop_and_invent_nothing() {
        for seed in 0..SEEDS {
            let sim = run_schedule(TREE, seed, true);
            assert!(
                sim.tally.forwarded <= sim.members.len() as u64 * sim.tally.advertised,
                "seed {seed}: {} forwarded for {} advertised",
                sim.tally.forwarded,
                sim.tally.advertised
            );
            for (i, k, loc) in sim.hints() {
                assert!(
                    sim.ever_held.get(&k).is_some_and(|h| h.contains(&loc)),
                    "seed {seed}: member {i} hints {k:#x} at {loc:#x}, which never held it"
                );
            }
        }
    }
}
