//! The paper's architecture (§3): separated data and metadata paths.
//!
//! Data is stored **only at the leaves** (the L1 proxies). A metadata
//! hierarchy propagates compact location hints; every L1 answers "where is
//! the nearest copy?" from its *local* hint cache with no network traffic,
//! then either fetches directly from the named peer (one cache-to-cache
//! hop) or — when the hints know of no copy — goes straight to the origin
//! server. Misses are never routed through the hierarchy.
//!
//! Hint state here follows the paper's semantics faithfully:
//!
//! * each node's hint store holds at most one 16-byte record per object,
//!   naming the nearest known copy. The simulator keeps every node's store
//!   in one [`bh_cache::HintBank`] that records only *which* objects a node
//!   holds; every holder change reaches every node, so a held hint names
//!   the nearest holder of the object's last delivered holder set, which
//!   is kept once per object and resolved at lookup;
//! * updates propagate with a configurable delay (Figure 6); until an
//!   update lands, a node may act on stale hints — *suboptimal positives*
//!   (a farther copy than necessary), *false positives* (remote node no
//!   longer has the data: error reply, then the server), and *false
//!   negatives* (a copy exists but the hints don't know: straight to the
//!   server, which is exactly what "do not slow down misses" prescribes);
//! * the metadata hierarchy filters updates: only first-copy /
//!   last-copy transitions for the whole system reach the root
//!   (Table 5's load comparison);
//! * with unbounded stores and zero delay the per-node stores are
//!   bit-for-bit equivalent to consulting the global copy registry, and
//!   the implementation switches to that *oracle* fast path automatically.
//!
//! Push caching (§4) hooks in after each demand fetch; see [`crate::push`].

use super::{RequestCtx, Strategy};
use crate::metrics::Metrics;
use crate::outcome::AccessPath;
use crate::push::{PushFraction, PushPolicy};
use crate::topology::{NodeIdx, NodeSet, Topology};
use bh_cache::{HintBank, LruCache, PreMixed};
use bh_netmodel::RemoteDistance;
use bh_simcore::rng::Xoshiro256;
use bh_simcore::{ByteSize, EventQueue, SimDuration, SimTime};
use std::cell::Cell;
use std::collections::HashMap;

/// Configuration of a [`HintHierarchy`].
#[derive(Debug, Clone, Copy)]
pub struct HintConfig {
    /// Per-L1 data-cache capacity.
    pub data_capacity: ByteSize,
    /// Per-node hint-store capacity ([`ByteSize::MAX`] = unbounded).
    pub store_capacity: ByteSize,
    /// Hint propagation delay (Figure 6's x-axis).
    pub delay: SimDuration,
    /// Push policy layered on top.
    pub push: PushPolicy,
}

impl Default for HintConfig {
    fn default() -> Self {
        HintConfig {
            data_capacity: ByteSize::MAX,
            store_capacity: ByteSize::MAX,
            delay: SimDuration::ZERO,
            push: PushPolicy::None,
        }
    }
}

#[derive(Debug, Default)]
struct ObjState {
    version: u32,
    holders: NodeSet,
    /// The holder set of the last change delivered to every node's hints:
    /// what a node holding a hint for the object resolves it against.
    delivered: NodeSet,
}

/// The object's slot in the hint bank: its index in `objs`, plus one.
fn slot_of(obj: usize) -> u32 {
    u32::try_from(obj + 1).expect("object count exceeds the hint bank's 32-bit slots")
}

/// One holder-set change, broadcast to every observer when it comes due.
/// Storing the holder snapshot once instead of 64 per-observer events
/// keeps long-delay simulations (Figure 6's 1000-minute points) within
/// memory.
#[derive(Debug)]
struct HintEvent {
    key: u64,
    slot: u32,
    holders: NodeSet,
}

#[derive(Debug)]
enum HintStores {
    /// Unbounded stores + zero delay ≡ perfect knowledge of the registry.
    Oracle,
    /// Real per-node stores, all in one bank, with delayed propagation.
    Real {
        bank: Box<HintBank>,
        pending: EventQueue<HintEvent>,
    },
}

/// An L1 data cache. Each entry carries whether a push put the copy there
/// and no request has used it yet, so the flag leaves with the copy.
pub type L1Cache = LruCache<PreMixed, Cell<bool>>;

/// The hint-hierarchy strategy. See the docs of its module,
/// `strategies::hint`.
#[derive(Debug)]
pub struct HintHierarchy {
    topo: Topology,
    config: HintConfig,
    caches: Vec<L1Cache>,
    /// Index into `objs` of every object seen. A request hashes its key
    /// here once and reaches the state by index from then on.
    slots: HashMap<u64, usize, PreMixed>,
    objs: Vec<ObjState>,
    hints: HintStores,
    rng: Xoshiro256,

    // Counters exported via finalize().
    root_updates: u64,
    directory_updates: u64,
    false_negatives: u64,
    suboptimal_positives: u64,
    pushes: u64,
    pushed_bytes: u64,
    pushed_used: u64,
    pushed_used_bytes: u64,
    demand_bytes: u64,
    /// Keys one data-cache insert evicted, kept between inserts so that an
    /// evicting insert allocates nothing.
    evicted: Vec<u64>,
    /// One hierarchical push's targets and one L2 group's candidates, kept
    /// between pushes so that a push allocates nothing.
    push_targets: Vec<NodeIdx>,
    push_members: Vec<NodeIdx>,
}

impl HintHierarchy {
    /// Builds the strategy; deterministic in `seed` (used only by the
    /// hierarchical push's random target selection).
    pub fn new(topo: Topology, config: HintConfig, seed: u64) -> Self {
        let hints = if config.store_capacity.is_unlimited() && config.delay == SimDuration::ZERO {
            HintStores::Oracle
        } else {
            HintStores::Real {
                bank: Box::new(HintBank::new(
                    topo.l1_count() as usize,
                    config.store_capacity,
                )),
                pending: EventQueue::new(),
            }
        };
        HintHierarchy {
            caches: (0..topo.l1_count())
                .map(|_| LruCache::with_hasher(config.data_capacity, PreMixed::default()))
                .collect(),
            slots: HashMap::default(),
            objs: Vec::new(),
            hints,
            rng: Xoshiro256::seed_from_u64(seed ^ 0x48494E54_5F505348),
            topo,
            config,
            root_updates: 0,
            directory_updates: 0,
            false_negatives: 0,
            suboptimal_positives: 0,
            pushes: 0,
            pushed_bytes: 0,
            pushed_used: 0,
            pushed_used_bytes: 0,
            demand_bytes: 0,
            evicted: Vec::new(),
            push_targets: Vec::new(),
            push_members: Vec::new(),
        }
    }

    /// Whether the oracle fast path is active.
    pub fn is_oracle(&self) -> bool {
        matches!(self.hints, HintStores::Oracle)
    }

    /// The configuration in use.
    pub fn config(&self) -> &HintConfig {
        &self.config
    }

    /// Read access to an L1 data cache.
    pub fn l1_cache(&self, idx: usize) -> &L1Cache {
        &self.caches[idx]
    }

    /// Current fresh holders of `key` (for tests and experiments).
    pub fn holders(&self, key: u64) -> &NodeSet {
        static NONE: NodeSet = NodeSet::new();
        self.slots
            .get(&key)
            .map_or(&NONE, |&obj| &self.objs[obj].holders)
    }

    /// Bytes the hint stores have allocated (0 on the oracle path); see
    /// [`HintBank::allocated_bytes`].
    pub fn hint_store_bytes(&self) -> u64 {
        match &self.hints {
            HintStores::Oracle => 0,
            HintStores::Real { bank, .. } => bank.allocated_bytes(),
        }
    }

    /// Holder changes so far whose delivery walked the bank's row of the
    /// key (0 on the oracle path); see [`HintBank::row_walk_count`].
    pub fn hint_row_walks(&self) -> u64 {
        match &self.hints {
            HintStores::Oracle => 0,
            HintStores::Real { bank, .. } => bank.row_walk_count(),
        }
    }

    /// Delivers every holder change that has come due.
    fn drain_pending(&mut self, now: SimTime) {
        let HintStores::Real { bank, pending } = &mut self.hints else {
            return;
        };
        while let Some((_, ev)) = pending.pop_due(now) {
            deliver(bank, &mut self.objs, ev);
        }
    }

    /// Broadcasts the post-change best-copy hint for `key` to every node.
    ///
    /// This models the metadata hierarchy's propagation: each observer
    /// eventually learns the location of its *nearest* copy. With delay 0
    /// in oracle mode this is implicit (lookups consult the registry).
    fn holders_changed(&mut self, key: u64, obj: usize, at: SimTime) {
        let HintStores::Real { bank, pending } = &mut self.hints else {
            return;
        };
        // The change carries a snapshot: the holders may change again
        // before it comes due.
        let ev = HintEvent {
            key,
            slot: slot_of(obj),
            holders: self.objs[obj].holders.clone(),
        };
        if self.config.delay == SimDuration::ZERO {
            // Zero delay means "instant propagation": deliver in place so
            // the oracle equivalence holds even within a single request.
            deliver(bank, &mut self.objs, ev);
        } else {
            pending.schedule(at.saturating_add(self.config.delay), ev);
        }
    }

    fn add_holder(&mut self, key: u64, obj: usize, node: NodeIdx, at: SimTime) {
        let st = &mut self.objs[obj];
        let first = st.holders.is_empty();
        if st.holders.insert(node) {
            self.directory_updates += 1;
            if first {
                // First copy in the system: the update climbs to the root.
                self.root_updates += 1;
            }
            self.holders_changed(key, obj, at);
        }
    }

    fn remove_holder(&mut self, key: u64, node: NodeIdx, at: SimTime) {
        let Some(&obj) = self.slots.get(&key) else {
            return;
        };
        let st = &mut self.objs[obj];
        if st.holders.remove(node) {
            self.directory_updates += 1;
            if st.holders.is_empty() {
                // Last copy gone: the non-presence advertisement reaches the root.
                self.root_updates += 1;
            }
            self.holders_changed(key, obj, at);
        }
    }

    /// Credits the first use of a pushed copy of `size`.
    fn note_pushed_use(&mut self, size: ByteSize) {
        self.pushed_used += 1;
        self.pushed_used_bytes += size.as_bytes();
    }

    /// A remote hit on `peer`'s copy of `key`: credits the copy if it got
    /// there by a push.
    fn note_remote_use(&mut self, peer: NodeIdx, key: u64) {
        let cache = &self.caches[peer as usize];
        if cache
            .peek_value(key)
            .is_some_and(|pushed| pushed.replace(false))
        {
            let size = cache.peek(key).map_or(ByteSize::ZERO, |(s, _)| s);
            self.note_pushed_use(size);
        }
    }

    /// Stores a copy of `key` (state slot `obj`) in its current version at
    /// `node`, flagged as `pushed` or not, maintaining holder state and hint
    /// traffic. Returns whether the copy was stored (it is not if larger
    /// than the whole cache).
    fn insert_copy(
        &mut self,
        node: NodeIdx,
        key: u64,
        obj: usize,
        size: ByteSize,
        at: SimTime,
        pushed: bool,
    ) -> bool {
        let version = self.objs[obj].version;
        let mut evicted = std::mem::take(&mut self.evicted);
        let cache = &mut self.caches[node as usize];
        let stored = cache.insert_value(key, size, version, Cell::new(pushed), |e| {
            evicted.push(e.key)
        });
        for &gone in &evicted {
            self.remove_holder(gone, node, at);
        }
        evicted.clear();
        self.evicted = evicted;
        if stored {
            self.add_holder(key, obj, node, at);
        }
        stored
    }

    /// Consults the requesting node's hints for `key` (state slot `obj`);
    /// returns the outcome of the remote/server fetch decision.
    fn lookup(&mut self, l1: NodeIdx, key: u64, obj: usize, version: u32) -> AccessPath {
        let st = &self.objs[obj];
        // A local miss: every holder is a peer.
        debug_assert!(!st.holders.contains(l1), "a holder missed locally");
        let hinted = match &mut self.hints {
            HintStores::Oracle => {
                return match self.topo.nearest_holder(l1, &st.holders) {
                    Some(peer) => {
                        self.note_remote_use(peer, key);
                        AccessPath::RemoteHit {
                            distance: self.topo.distance(l1, peer),
                        }
                    }
                    None => AccessPath::ServerFetch {
                        false_positive: None,
                    },
                };
            }
            HintStores::Real { bank, .. } => bank
                .lookup(l1 as usize, key, slot_of(obj))
                .then(|| self.topo.nearest_holder(l1, &st.delivered))
                .flatten(),
        };
        match hinted {
            Some(peer) if peer != l1 => {
                let distance = self.topo.distance(l1, peer);
                if self.caches[peer as usize].contains_fresh(key, version) {
                    // Suboptimal positive: a nearer copy existed but the
                    // (stale) hint named a farther one.
                    if distance == RemoteDistance::SameL3
                        && self
                            .topo
                            .nearest_holder(l1, &st.holders)
                            .is_some_and(|best| {
                                self.topo.distance(l1, best) == RemoteDistance::SameL2
                            })
                    {
                        self.suboptimal_positives += 1;
                    }
                    self.note_remote_use(peer, key);
                    AccessPath::RemoteHit { distance }
                } else {
                    // False positive: error reply, drop the bad hint, go to
                    // the server. No second lookup — "when the hint cache
                    // fails, it is unlikely a hit will result" (§3.1.1).
                    if let HintStores::Real { bank, .. } = &mut self.hints {
                        bank.remove(l1 as usize, key, slot_of(obj));
                    }
                    AccessPath::ServerFetch {
                        false_positive: Some(distance),
                    }
                }
            }
            _ => {
                if !st.holders.is_empty() {
                    self.false_negatives += 1;
                }
                AccessPath::ServerFetch {
                    false_positive: None,
                }
            }
        }
    }

    /// Hierarchical push on miss (§4.1.3) after a remote hit at `distance`.
    fn hierarchical_push(
        &mut self,
        ctx: &RequestCtx,
        obj: usize,
        distance: RemoteDistance,
        fraction: PushFraction,
    ) {
        let mut targets = std::mem::take(&mut self.push_targets);
        let holders = &self.objs[obj].holders;
        let wanted = |n: &NodeIdx| *n != ctx.l1 && !holders.contains(*n);
        match distance {
            RemoteDistance::SameL2 => {
                // Level-1 subtrees under our L2 parent are single nodes:
                // push to each of them (Figure 9, object B).
                targets.extend(self.topo.l2_siblings(ctx.l1).filter(wanted));
            }
            RemoteDistance::SameL3 => {
                // One (push-1) / half / all random node(s) in each level-2
                // subtree under the root (Figure 9, object A).
                let members = &mut self.push_members;
                for g in 0..self.topo.l2_count() {
                    let first = g * self.topo.l1s_per_l2();
                    members.clear();
                    members.extend(
                        (first..(first + self.topo.l1s_per_l2()).min(self.topo.l1_count()))
                            .filter(wanted),
                    );
                    let want = fraction.targets(members.len());
                    pick_random(members, want, &mut self.rng, &mut targets);
                }
            }
        }
        for &t in &targets {
            self.push_copy(t, obj, ctx, false);
        }
        targets.clear();
        self.push_targets = targets;
    }

    /// Pushes the requested object to `target`, aged to the cold end of
    /// its LRU list if `aged`.
    fn push_copy(&mut self, target: NodeIdx, obj: usize, ctx: &RequestCtx, aged: bool) {
        if self.insert_copy(target, ctx.key, obj, ctx.size, ctx.time, true) {
            if aged {
                self.caches[target as usize].demote(ctx.key);
            }
            self.pushes += 1;
            self.pushed_bytes += ctx.size.as_bytes();
        }
    }
}

/// Delivers one holder change to every node's hints: one pass over the
/// key's row of the bank, after which the change's holder set is the one
/// every node's hint resolves against.
fn deliver(bank: &mut HintBank, objs: &mut [ObjState], ev: HintEvent) {
    if ev.holders.is_empty() {
        bank.broadcast_remove(ev.key, ev.slot);
    } else {
        bank.broadcast_insert(ev.key, ev.slot);
    }
    objs[ev.slot as usize - 1].delivered = ev.holders;
}

/// Moves `want` of `pool`'s nodes, drawn at random, to the end of `out`
/// in draw order; all of them, in order and without a draw, if `want`
/// covers the pool. What is left in `pool` is scratch.
fn pick_random(pool: &mut Vec<NodeIdx>, want: usize, rng: &mut Xoshiro256, out: &mut Vec<NodeIdx>) {
    if want >= pool.len() {
        out.append(pool);
        return;
    }
    // Partial Fisher–Yates.
    for _ in 0..want {
        let i = rng.below(pool.len() as u64) as usize;
        out.push(pool.swap_remove(i));
    }
}

impl Strategy for HintHierarchy {
    fn on_request(&mut self, ctx: &RequestCtx) -> AccessPath {
        self.drain_pending(ctx.time);

        let obj = *self.slots.entry(ctx.key).or_insert_with(|| {
            self.objs.push(ObjState::default());
            self.objs.len() - 1
        });

        // Consistency: a version bump invalidates every cached copy
        // (strong consistency, §2.2.1). Remember the old holders — they are
        // the update-push candidate list (§4.1.2).
        let mut update_push_candidates = NodeSet::new();
        let st = &mut self.objs[obj];
        if ctx.version > st.version {
            st.version = ctx.version;
            let stale = std::mem::take(&mut st.holders);
            if !stale.is_empty() {
                self.directory_updates += stale.len() as u64;
                self.root_updates += 1; // last-copy-gone reaches the root
                for h in stale.iter() {
                    self.caches[h as usize].remove(ctx.key);
                }
                self.holders_changed(ctx.key, obj, ctx.time);
                update_push_candidates = stale;
            }
        }

        // Local hit?
        let version = self.objs[obj].version;
        if let Some((_, pushed)) = self.caches[ctx.l1 as usize].get_value(ctx.key, version) {
            if pushed.replace(false) {
                self.note_pushed_use(ctx.size);
            }
            return AccessPath::L1Hit;
        }

        // Local miss: consult local hints, fetch remotely or from the server.
        let outcome = self.lookup(ctx.l1, ctx.key, obj, version);
        self.demand_bytes += ctx.size.as_bytes();
        self.insert_copy(ctx.l1, ctx.key, obj, ctx.size, ctx.time, false);

        // Push hooks.
        match (self.config.push, outcome) {
            (PushPolicy::Update, _) => {
                for target in update_push_candidates.iter() {
                    if target != ctx.l1 {
                        self.push_copy(target, obj, ctx, true);
                    }
                }
            }
            (PushPolicy::Hierarchical(fr), AccessPath::RemoteHit { distance }) => {
                self.hierarchical_push(ctx, obj, distance, fr);
            }
            _ => {}
        }
        outcome
    }

    fn name(&self) -> &'static str {
        match self.config.push {
            PushPolicy::None => "hint-hierarchy",
            PushPolicy::Update => "hint-update-push",
            PushPolicy::Hierarchical(_) => "hint-hierarchical-push",
        }
    }

    fn finalize(&mut self, metrics: &mut Metrics) {
        metrics.root_updates = self.root_updates;
        metrics.directory_updates = self.directory_updates;
        metrics.false_negatives = self.false_negatives;
        metrics.suboptimal_positives = self.suboptimal_positives;
        metrics.pushes = self.pushes;
        metrics.pushed_bytes = self.pushed_bytes;
        metrics.pushed_used = self.pushed_used;
        metrics.pushed_used_bytes = self.pushed_used_bytes;
        metrics.demand_bytes = self.demand_bytes;
    }

    fn queue_stats(&self) -> Option<bh_simcore::QueueStats> {
        match &self.hints {
            HintStores::Real { pending, .. } => Some(pending.stats()),
            HintStores::Oracle => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bh_netmodel::RemoteDistance;
    use bh_trace::WorkloadSpec;

    fn ctx_at(l1: u32, key: u64, version: u32, secs: u64) -> RequestCtx {
        RequestCtx {
            time: SimTime::from_secs(secs),
            client: bh_trace::ClientId(l1 * 256),
            l1,
            key,
            size: ByteSize::from_kb(10),
            version,
        }
    }

    fn ctx(l1: u32, key: u64, version: u32) -> RequestCtx {
        ctx_at(l1, key, version, 0)
    }

    /// The request a trace record of `spec` presents to a strategy.
    fn ctx_of(spec: &WorkloadSpec, r: &bh_trace::TraceRecord) -> RequestCtx {
        RequestCtx {
            time: r.time,
            client: r.client,
            l1: spec.l1_group_of(r.client),
            key: r.object.key(),
            size: r.size,
            version: r.version,
        }
    }

    fn topo() -> Topology {
        Topology::from_spec(&WorkloadSpec::small()) // 4 L1s, 2 per L2
    }

    /// The holders of `key`, ascending.
    fn held(h: &HintHierarchy, key: u64) -> Vec<NodeIdx> {
        h.holders(key).iter().collect()
    }

    fn oracle() -> HintHierarchy {
        HintHierarchy::new(topo(), HintConfig::default(), 7)
    }

    fn real(delay_secs: u64) -> HintHierarchy {
        HintHierarchy::new(
            topo(),
            HintConfig {
                delay: SimDuration::from_secs(delay_secs),
                store_capacity: ByteSize::from_mb(4),
                ..HintConfig::default()
            },
            7,
        )
    }

    #[test]
    fn oracle_mode_detection() {
        assert!(oracle().is_oracle());
        assert!(!real(0).is_oracle());
        let bounded = HintHierarchy::new(
            topo(),
            HintConfig {
                store_capacity: ByteSize::from_kb(1),
                ..HintConfig::default()
            },
            7,
        );
        assert!(!bounded.is_oracle());
    }

    #[test]
    fn miss_goes_straight_to_server_then_remote_hits() {
        let mut h = oracle();
        assert_eq!(
            h.on_request(&ctx(0, 1, 0)),
            AccessPath::ServerFetch {
                false_positive: None
            }
        );
        assert_eq!(h.on_request(&ctx(0, 1, 0)), AccessPath::L1Hit);
        assert_eq!(
            h.on_request(&ctx(1, 1, 0)),
            AccessPath::RemoteHit {
                distance: RemoteDistance::SameL2
            }
        );
        assert_eq!(
            h.on_request(&ctx(3, 1, 0)),
            AccessPath::RemoteHit {
                distance: RemoteDistance::SameL3
            }
        );
        assert_eq!(held(&h, 1), [0, 1, 3]);
    }

    #[test]
    fn real_mode_zero_delay_matches_oracle_outcomes() {
        let spec = WorkloadSpec::small().with_requests(3_000);
        let mut a = oracle();
        let mut b = real(0);
        for r in bh_trace::TraceGenerator::new(&spec, 3) {
            if !r.is_cacheable() {
                continue;
            }
            let c = ctx_of(&spec, &r);
            let pa = a.on_request(&c);
            let pb = b.on_request(&c);
            assert_eq!(pa, pb, "oracle and real-mode outcomes diverged at {c:?}");
        }
    }

    #[test]
    fn version_bump_invalidates_all_copies() {
        let mut h = oracle();
        h.on_request(&ctx(0, 1, 0));
        h.on_request(&ctx(1, 1, 0));
        assert_eq!(h.holders(1).len(), 2);
        // Update: both copies invalid; straight to server (no false positive
        // in oracle mode — hints are perfectly fresh).
        assert_eq!(
            h.on_request(&ctx(2, 1, 1)),
            AccessPath::ServerFetch {
                false_positive: None
            }
        );
        assert_eq!(held(&h, 1), [2]);
    }

    #[test]
    fn delayed_hints_cause_false_negatives() {
        let mut h = real(600);
        assert_eq!(
            h.on_request(&ctx_at(0, 1, 0, 0)),
            AccessPath::ServerFetch {
                false_positive: None
            }
        );
        // 10 s later the hint (delay 600 s) has not arrived at node 3:
        // a copy exists but node 3 goes to the server — false negative.
        assert_eq!(
            h.on_request(&ctx_at(3, 1, 0, 10)),
            AccessPath::ServerFetch {
                false_positive: None
            }
        );
        let mut m = Metrics::new(&[]);
        h.finalize(&mut m);
        assert_eq!(m.false_negatives, 1);
        // After the delay passes, hints have landed: remote hit.
        assert_eq!(
            h.on_request(&ctx_at(2, 1, 0, 700)),
            AccessPath::RemoteHit {
                distance: RemoteDistance::SameL2
            },
            "node 2 should find node 3's copy (same L2) once hints propagate"
        );
    }

    #[test]
    fn stale_hint_is_false_positive() {
        let mut h = real(300);
        // Node 0 fetches; hint propagates at t=300.
        h.on_request(&ctx_at(0, 1, 0, 0));
        // t=400: node 1 knows node 0 has it.
        assert_eq!(
            h.on_request(&ctx_at(1, 1, 0, 400)),
            AccessPath::RemoteHit {
                distance: RemoteDistance::SameL2
            }
        );
        // The object is modified; node 0 and 1's copies are invalidated via
        // a fetch by node 2 — but node 3's hint still names an old holder.
        h.on_request(&ctx_at(2, 1, 1, 500));
        let out = h.on_request(&ctx_at(3, 1, 1, 510));
        assert!(
            matches!(
                out,
                AccessPath::ServerFetch {
                    false_positive: Some(_)
                }
            ),
            "stale hint should cost a wasted probe, got {out:?}"
        );
    }

    #[test]
    fn root_updates_filtered_vs_directory() {
        let mut h = oracle();
        // Three nodes fetch the same object: 3 directory updates but only
        // one first-copy event reaches the root.
        h.on_request(&ctx(0, 1, 0));
        h.on_request(&ctx(1, 1, 0));
        h.on_request(&ctx(3, 1, 0));
        let mut m = Metrics::new(&[]);
        h.finalize(&mut m);
        assert_eq!(m.directory_updates, 3);
        assert_eq!(m.root_updates, 1);
    }

    #[test]
    fn update_push_replicates_to_old_holders() {
        let mut h = HintHierarchy::new(
            topo(),
            HintConfig {
                push: PushPolicy::Update,
                ..HintConfig::default()
            },
            7,
        );
        h.on_request(&ctx(0, 1, 0));
        h.on_request(&ctx(1, 1, 0));
        h.on_request(&ctx(3, 1, 0));
        // Version bump fetched by node 2: old holders 0, 1, 3 get the new
        // version pushed.
        h.on_request(&ctx(2, 1, 5));
        assert_eq!(held(&h, 1), [0, 1, 2, 3]);
        let mut m = Metrics::new(&[]);
        h.finalize(&mut m);
        assert_eq!(m.pushes, 3);
        // A later local access at node 0 uses the pushed copy.
        assert_eq!(h.on_request(&ctx(0, 1, 5)), AccessPath::L1Hit);
        let mut m2 = Metrics::new(&[]);
        h.finalize(&mut m2);
        assert_eq!(m2.pushed_used, 1);
    }

    #[test]
    fn update_push_ages_pushed_copies() {
        let small_cap = HintConfig {
            push: PushPolicy::Update,
            data_capacity: ByteSize::from_kb(30),
            ..HintConfig::default()
        };
        let mut h = HintHierarchy::new(topo(), small_cap, 7);
        h.on_request(&ctx(0, 1, 0));
        h.on_request(&ctx(0, 2, 0));
        // Bump object 1; node 3 fetches it; push lands at node 0 *aged*.
        h.on_request(&ctx(3, 1, 1));
        assert_eq!(
            h.l1_cache(0).lru_key(),
            Some(1),
            "pushed copy must sit at the cold end"
        );
    }

    #[test]
    fn hierarchical_push_same_l2_fills_siblings() {
        let mut h = HintHierarchy::new(
            topo(),
            HintConfig {
                push: PushPolicy::Hierarchical(PushFraction::One),
                ..HintConfig::default()
            },
            7,
        );
        h.on_request(&ctx(0, 1, 0)); // node 0 holds
                                     // Node 1 remote-hits node 0 (same L2): push to all level-1 subtrees
                                     // under that L2 — here there are only nodes 0 and 1, both covered.
        h.on_request(&ctx(1, 1, 0));
        assert_eq!(held(&h, 1), [0, 1]);
        // Node 2 remote-hits at L3 distance: push-1 places one copy in each
        // level-2 subtree.
        h.on_request(&ctx(2, 1, 0));
        let holders = held(&h, 1);
        assert!(holders.contains(&2));
        assert!(
            holders.len() >= 4,
            "push-1 should seed every L2 group: {holders:?}"
        );
    }

    #[test]
    fn push_all_replicates_everywhere() {
        let mut h = HintHierarchy::new(
            topo(),
            HintConfig {
                push: PushPolicy::Hierarchical(PushFraction::All),
                ..HintConfig::default()
            },
            7,
        );
        h.on_request(&ctx(0, 1, 0));
        h.on_request(&ctx(3, 1, 0)); // L3-distance hit → push-all
        assert_eq!(held(&h, 1), [0, 1, 2, 3]);
        let mut m = Metrics::new(&[]);
        h.finalize(&mut m);
        assert_eq!(m.pushes, 2, "nodes 1 and 2 received pushes");
    }

    #[test]
    fn no_push_policy_never_pushes() {
        let mut h = oracle();
        h.on_request(&ctx(0, 1, 0));
        h.on_request(&ctx(3, 1, 0));
        let mut m = Metrics::new(&[]);
        h.finalize(&mut m);
        assert_eq!(m.pushes, 0);
        assert_eq!(m.pushed_bytes, 0);
    }

    #[test]
    fn eviction_updates_holders_and_hints() {
        let mut h = HintHierarchy::new(
            topo(),
            HintConfig {
                data_capacity: ByteSize::from_kb(20),
                ..HintConfig::default()
            },
            7,
        );
        h.on_request(&ctx(0, 1, 0));
        h.on_request(&ctx(0, 2, 0));
        h.on_request(&ctx(0, 3, 0)); // evicts key 1 at node 0
        assert!(
            h.holders(1).is_empty(),
            "evicted copy must leave the registry"
        );
        // Another node asking for key 1 now goes to the server.
        assert_eq!(
            h.on_request(&ctx(1, 1, 0)),
            AccessPath::ServerFetch {
                false_positive: None
            }
        );
    }

    /// The paper's full geometry — 64 nodes × 512 MB of hints, 8 GB of
    /// nominal slots — must cost what the replay writes, not what it could
    /// address: one 1 KB row of 4-byte slots per set a holder change
    /// reached (plus the unused tail of the last chunk). A bank that
    /// allocated `nodes × capacity` up front would be refused here.
    #[test]
    fn full_scale_geometry_allocates_only_the_rows_written() {
        let spec = WorkloadSpec::dec().scaled(0.0002); // 4,420 records, 64 L1s
        let space = crate::space::SpaceConfig::constrained();
        let mut h = HintHierarchy::new(
            Topology::from_spec(&spec),
            HintConfig {
                data_capacity: space.hint_node_capacity,
                store_capacity: space.hint_store_capacity,
                ..HintConfig::default()
            },
            7,
        );
        assert!(!h.is_oracle());
        let mut remote = 0u64;
        for r in bh_trace::TraceGenerator::new(&spec, 11) {
            if !r.is_cacheable() {
                continue;
            }
            let c = ctx_of(&spec, &r);
            if matches!(h.on_request(&c), AccessPath::RemoteHit { .. }) {
                remote += 1;
            }
        }
        assert!(remote > 0, "hints must have been stored and found");
        let mut m = Metrics::new(&[]);
        h.finalize(&mut m);
        let row_bytes = 64 * 4 * 4;
        let chunk_rows = (1 << 20) / row_bytes;
        let allocated = h.hint_store_bytes();
        assert!(allocated >= row_bytes, "no row was allocated");
        // Every holder change writes at most one row.
        assert!(
            allocated <= (m.directory_updates + chunk_rows) * row_bytes,
            "{allocated} bytes for {} holder changes",
            m.directory_updates
        );
    }

    /// A space-constrained DEC × 0.002 cell with hint delay `delay_secs`
    /// and `push`, run over the repo benchmark's first seed-1 trace (seed
    /// 2); returns the strategy and the trace's record count.
    fn dec_cell(delay_secs: u64, push: PushPolicy) -> (HintHierarchy, usize) {
        let spec = WorkloadSpec::dec().scaled(0.002);
        let trace = bh_trace::MaterializedTrace::generate(&spec, 2);
        let config = crate::sim::SimConfig::constrained(&spec)
            .with_hint_delay(SimDuration::from_secs(delay_secs));
        let mut h = HintHierarchy::new(
            Topology::from_spec(&spec),
            HintConfig {
                data_capacity: config.space.hint_node_capacity,
                store_capacity: config.space.hint_store_capacity,
                delay: config.hint_delay,
                push,
            },
            trace.seed(),
        );
        crate::sim::Simulator::new(config).run_with_trace(&trace, &mut h, &[], false);
        (h, trace.len())
    }

    /// The delayed hint cell of the repo benchmark's `sim_sweep` (30 s
    /// delay) holds its slots in exactly this many bytes: whole 1 MB
    /// chunks of 1 KB rows. A layout change moves it on any host.
    #[test]
    fn delayed_dec_cell_hint_store_bytes() {
        let (h, _) = dec_cell(30, PushPolicy::None);
        // 6,145–7,168 rows of 64 nodes × 4 ways × 4 bytes, 1,024 to a chunk.
        assert_eq!(h.hint_store_bytes(), 7 << 20);
    }

    /// Row walks of the same trace's delayed hint cell and push-all cell
    /// (zero delay, as Figures 10 and 11 run it): a holder change whose
    /// key every node already holds at way 0 walks no row. Of the trace's
    /// 44,200 records, 0.200 and 0.420 per record; every holder change
    /// walked one, 20,815 (0.471) and 575,523 (13.02), before the bank
    /// kept its shared word.
    #[test]
    fn dec_cells_row_walks_per_record() {
        let walks = |(h, records): (HintHierarchy, usize)| {
            let walks = h.hint_row_walks();
            println!(
                "{walks} row walks, {:.3} per record",
                walks as f64 / records as f64
            );
            walks
        };
        assert_eq!(walks(dec_cell(30, PushPolicy::None)), 8_858);
        let push_all = PushPolicy::Hierarchical(PushFraction::All);
        assert_eq!(walks(dec_cell(0, push_all)), 18_577);
    }

    #[test]
    fn bounded_hint_store_limits_reach() {
        // A tiny hint store cannot index much beyond the local cache: most
        // cross-node reuse is lost (Figure 5's left edge).
        let tiny = HintHierarchy::new(
            topo(),
            HintConfig {
                store_capacity: ByteSize::from_bytes(64),
                ..HintConfig::default()
            },
            7,
        );
        let big = HintHierarchy::new(
            topo(),
            HintConfig {
                store_capacity: ByteSize::from_mb(16),
                ..HintConfig::default()
            },
            7,
        );
        let spec = WorkloadSpec::small().with_requests(8_000);
        let run = |mut h: HintHierarchy| {
            let mut remote = 0u64;
            for r in bh_trace::TraceGenerator::new(&spec, 5) {
                if !r.is_cacheable() {
                    continue;
                }
                let c = ctx_of(&spec, &r);
                if matches!(h.on_request(&c), AccessPath::RemoteHit { .. }) {
                    remote += 1;
                }
            }
            remote
        };
        let tiny_remote = run(tiny);
        let big_remote = run(big);
        assert!(
            tiny_remote < big_remote / 2,
            "tiny store {tiny_remote} remote hits vs big {big_remote}"
        );
    }
}
