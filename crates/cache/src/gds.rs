//! GreedyDual-Size replacement (Cao & Irani, USENIX ITS 1997).
//!
//! The paper's contemporaries found that web caches should weigh object
//! *size* in replacement: evicting one large object can keep many small
//! ones, and request hit rate counts requests, not bytes. GreedyDual-Size
//! assigns each object a credit `H = L + cost/size` (we use uniform cost 1,
//! the request-hit-rate variant), refreshes `H` on every hit, evicts the
//! minimum-`H` object, and *inflates* `L` to the evicted credit so that
//! long-resident objects age out. The paper lists "more aggressive
//! techniques for using cache space" as future work (§2.2); this module
//! provides the era's standard candidate for the ablation in
//! `all ablations` (`bh-bench`).

use bh_simcore::ByteSize;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// An `f64` credit with a total order (no NaNs admitted).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Credit(f64);

impl Eq for Credit {}
impl PartialOrd for Credit {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Credit {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    size: u64,
    version: u32,
    credit: Credit,
}

/// A byte-capacity GreedyDual-Size cache with versioned entries — a
/// drop-in alternative to [`crate::LruCache`] for policy ablations.
#[derive(Debug, Clone)]
pub struct GdsCache {
    capacity: ByteSize,
    used: u64,
    entries: HashMap<u64, Entry>,
    /// Eviction order: (credit, key), smallest first. A refresh or removal
    /// leaves the old item behind; an item is live while its key's entry
    /// holds its credit, and the heap is rebuilt from the entries when it
    /// reaches twice their number, so it stops growing (and allocating)
    /// once the cache is full.
    queue: BinaryHeap<Reverse<(Credit, u64)>>,
    /// The inflation value L.
    inflation: f64,
}

impl GdsCache {
    /// Creates a cache with the given byte capacity
    /// ([`ByteSize::MAX`] = unlimited).
    pub fn new(capacity: ByteSize) -> Self {
        GdsCache {
            capacity,
            used: 0,
            entries: HashMap::new(),
            queue: BinaryHeap::new(),
            inflation: 0.0,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Bytes currently stored.
    pub fn used_bytes(&self) -> ByteSize {
        ByteSize::from_bytes(self.used)
    }

    /// The current inflation value `L` (diagnostics).
    pub fn inflation(&self) -> f64 {
        self.inflation
    }

    fn credit_for(&self, size: u64) -> Credit {
        // Uniform cost 1: H = L + 1/size. Guard zero-size objects.
        Credit(self.inflation + 1.0 / size.max(1) as f64)
    }

    /// Queues `key`, whose entry already holds `credit`; once the heap has
    /// reached twice the entries, rebuilds it from them instead, which
    /// drops the dead items.
    fn enqueue(&mut self, credit: Credit, key: u64) {
        if self.queue.len() >= 2 * self.entries.len().max(8) {
            self.queue.clear();
            let live = self.entries.iter().map(|(&k, e)| Reverse((e.credit, k)));
            self.queue.extend(live);
        } else {
            self.queue.push(Reverse((credit, key)));
        }
    }

    /// Looks up `key`, requiring at least `min_version`; refreshes the
    /// entry's credit on a hit. Stale entries are invalidated, as in
    /// [`crate::LruCache::get`].
    pub fn get(&mut self, key: u64, min_version: u32) -> Option<(ByteSize, u32)> {
        let entry = *self.entries.get(&key)?;
        if entry.version < min_version {
            self.remove(key);
            return None;
        }
        // Refresh credit: H = L + 1/size.
        let fresh = self.credit_for(entry.size);
        self.entries.get_mut(&key).expect("present").credit = fresh;
        self.enqueue(fresh, key);
        Some((ByteSize::from_bytes(entry.size), entry.version))
    }

    /// Looks up without refreshing or invalidating.
    pub fn peek(&self, key: u64) -> Option<(ByteSize, u32)> {
        self.entries
            .get(&key)
            .map(|e| (ByteSize::from_bytes(e.size), e.version))
    }

    /// Inserts (or refreshes) `key`; evicts minimum-credit entries as
    /// needed, the new entry among them if its credit is the lowest.
    /// Objects larger than the whole capacity are not cached.
    pub fn insert(&mut self, key: u64, size: ByteSize, version: u32) {
        let size_b = size.as_bytes();
        if !self.capacity.is_unlimited() && size_b > self.capacity.as_bytes() {
            return;
        }
        if let Some(old) = self.entries.remove(&key) {
            self.used -= old.size;
        }
        let credit = self.credit_for(size_b);
        self.entries.insert(
            key,
            Entry {
                size: size_b,
                version,
                credit,
            },
        );
        self.enqueue(credit, key);
        self.used += size_b;

        if !self.capacity.is_unlimited() {
            // Only the just-inserted key left: keep it.
            while self.used > self.capacity.as_bytes() && self.entries.len() > 1 {
                let Reverse((victim_credit, victim)) =
                    self.queue.pop().expect("over capacity implies entries");
                if self
                    .entries
                    .get(&victim)
                    .is_none_or(|e| e.credit != victim_credit)
                {
                    continue;
                }
                // Inflate L to the evicted credit — GreedyDual's aging.
                self.inflation = victim_credit.0;
                let e = self.entries.remove(&victim).expect("live implies present");
                self.used -= e.size;
            }
        }
    }

    /// Removes `key`; returns whether it was present.
    pub fn remove(&mut self, key: u64) -> bool {
        match self.entries.remove(&key) {
            Some(e) => {
                self.used -= e.size;
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kb(n: u64) -> ByteSize {
        ByteSize::from_kb(n)
    }

    #[test]
    fn basic_insert_get() {
        let mut c = GdsCache::new(kb(100));
        c.insert(1, kb(10), 0);
        assert_eq!(c.get(1, 0), Some((kb(10), 0)));
        assert_eq!(c.get(2, 0), None);
        assert_eq!(c.len(), 1);
        assert_eq!(c.used_bytes(), kb(10));
    }

    #[test]
    fn prefers_evicting_large_objects() {
        let mut c = GdsCache::new(kb(100));
        c.insert(1, kb(64), 0); // big → low credit
        c.insert(2, kb(1), 0); // small → high credit
        c.insert(3, kb(1), 0);
        c.insert(4, kb(40), 0); // overflow
        assert!(c.peek(1).is_none(), "the large cold object goes first");
        assert!(c.peek(2).is_some());
        assert!(c.peek(3).is_some());
        assert!(c.peek(4).is_some());
    }

    #[test]
    fn hits_refresh_credit() {
        let mut c = GdsCache::new(kb(66));
        c.insert(1, kb(64), 0);
        c.insert(2, kb(1), 0);
        // Age the cache: force an eviction so L inflates.
        c.insert(3, kb(64), 0);
        assert!(c.peek(1).is_none());
        assert!(c.peek(2).is_some());
        // Keep hitting object 2; it must survive the next big insert.
        for _ in 0..3 {
            assert!(c.get(2, 0).is_some());
        }
        c.insert(4, kb(64), 0);
        assert!(
            c.peek(3).is_none(),
            "hot small object outlives cold big one"
        );
        assert!(c.peek(2).is_some());
        assert!(c.peek(4).is_some());
    }

    #[test]
    fn version_semantics_match_lru() {
        let mut c = GdsCache::new(kb(100));
        c.insert(1, kb(10), 1);
        assert_eq!(c.get(1, 2), None, "stale copy invalidated");
        assert!(c.peek(1).is_none());
        assert_eq!(c.used_bytes(), ByteSize::ZERO);
    }

    #[test]
    fn oversized_object_not_cached() {
        let mut c = GdsCache::new(kb(10));
        c.insert(1, kb(20), 0);
        assert!(c.peek(1).is_none());
        assert_eq!(c.used_bytes(), ByteSize::ZERO);
    }

    #[test]
    fn inflation_monotone() {
        let mut c = GdsCache::new(kb(4));
        let mut last = 0.0;
        for k in 0..50u64 {
            c.insert(k, kb(2), 0);
            assert!(c.inflation() >= last);
            last = c.inflation();
        }
        assert!(last > 0.0, "evictions must inflate L");
    }

    #[test]
    fn gds_beats_lru_on_request_hit_rate_with_mixed_sizes() {
        // The classic result: with heavy-tailed sizes and uniform cost,
        // GreedyDual-Size buys request hit rate by caching many small
        // objects instead of a few big ones.
        use crate::lru::LruCache;
        use bh_simcore::rng::{Xoshiro256, Zipf};

        let capacity = ByteSize::from_kb(512);
        let mut gds = GdsCache::new(capacity);
        let mut lru = LruCache::new(capacity);
        let zipf = Zipf::new(4_000, 0.9);
        let mut rng = Xoshiro256::seed_from_u64(17);
        let size_of = |obj: u64| {
            // Deterministic heavy-tailed sizes: 1 KB to 512 KB.
            let mut h = bh_simcore::rng::SplitMix64::new(obj);
            ByteSize::from_bytes(1024 << (h.next_u64() % 10))
        };
        let (mut gds_hits, mut lru_hits, mut total) = (0u64, 0u64, 0u64);
        for _ in 0..60_000 {
            let obj = zipf.sample(&mut rng) + 1;
            let size = size_of(obj);
            total += 1;
            if gds.get(obj, 0).is_some() {
                gds_hits += 1;
            } else {
                gds.insert(obj, size, 0);
            }
            if lru.get(obj, 0).is_some() {
                lru_hits += 1;
            } else {
                lru.insert(obj, size, 0);
            }
        }
        let g = gds_hits as f64 / total as f64;
        let l = lru_hits as f64 / total as f64;
        assert!(
            g > l,
            "GreedyDual-Size ({g:.3}) should beat LRU ({l:.3}) on request hit rate"
        );
    }

    mod props {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeSet;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Capacity and byte accounting hold under arbitrary sequences.
            #[test]
            fn invariants(ops in proptest::collection::vec(
                (0u64..40, 1u64..30_000, 0u32..3, 0u8..3), 1..300)) {
                let cap = ByteSize::from_bytes(60_000);
                let mut c = GdsCache::new(cap);
                for (key, size, version, op) in ops {
                    match op {
                        0 => { c.insert(key, ByteSize::from_bytes(size), version); }
                        1 => { c.get(key, version); }
                        _ => { c.remove(key); }
                    }
                    prop_assert!(c.used_bytes() <= cap);
                    let sum: u64 = (0..40u64)
                        .filter_map(|k| c.peek(k).map(|(s, _)| s.as_bytes()))
                        .sum();
                    prop_assert_eq!(sum, c.used_bytes().as_bytes());
                }
            }

            /// The lazily pruned heap evicts exactly what an ordered set of
            /// the live `(credit, key)` pairs would: the same entries stay
            /// after every op, and `L` inflates the same.
            #[test]
            fn evicts_as_an_ordered_set_would(ops in proptest::collection::vec(
                (0u64..40, 1u64..30_000, 0u32..3, 0u8..3), 1..300)) {
                let cap = ByteSize::from_bytes(60_000);
                let mut c = GdsCache::new(cap);
                let mut witness = Witness { entries: HashMap::new(), queue: BTreeSet::new(), inflation: 0.0, used: 0 };
                for (key, size, version, op) in ops {
                    match op {
                        0 => {
                            c.insert(key, ByteSize::from_bytes(size), version);
                            witness.insert(key, size, version, cap.as_bytes());
                        }
                        1 => {
                            let hit = c.get(key, version).is_some();
                            prop_assert_eq!(hit, witness.get(key, version));
                        }
                        _ => {
                            prop_assert_eq!(c.remove(key), witness.remove(key));
                        }
                    }
                    for k in 0..40u64 {
                        prop_assert_eq!(c.peek(k).map(|(s, _)| s.as_bytes()), witness.entries.get(&k).map(|e| e.0));
                    }
                    prop_assert_eq!(c.inflation(), witness.inflation);
                }
            }
        }

        /// GreedyDual-Size over an ordered set.
        struct Witness {
            /// `(size, version, credit)` per key.
            entries: HashMap<u64, (u64, u32, Credit)>,
            queue: BTreeSet<(Credit, u64)>,
            inflation: f64,
            used: u64,
        }

        impl Witness {
            fn credit(&self, size: u64) -> Credit {
                Credit(self.inflation + 1.0 / size as f64)
            }

            fn get(&mut self, key: u64, min_version: u32) -> bool {
                let Some(&(size, version, credit)) = self.entries.get(&key) else {
                    return false;
                };
                if version < min_version {
                    self.remove(key);
                    return false;
                }
                let fresh = self.credit(size);
                self.queue.remove(&(credit, key));
                self.queue.insert((fresh, key));
                self.entries.insert(key, (size, version, fresh));
                true
            }

            fn remove(&mut self, key: u64) -> bool {
                let Some((size, _, credit)) = self.entries.remove(&key) else {
                    return false;
                };
                self.queue.remove(&(credit, key));
                self.used -= size;
                true
            }

            fn insert(&mut self, key: u64, size: u64, version: u32, capacity: u64) {
                if size > capacity {
                    return;
                }
                self.remove(key);
                let credit = self.credit(size);
                self.entries.insert(key, (size, version, credit));
                self.queue.insert((credit, key));
                self.used += size;
                while self.used > capacity && self.entries.len() > 1 {
                    let (credit, victim) = self.queue.pop_first().expect("entries");
                    self.inflation = credit.0;
                    self.used -= self.entries.remove(&victim).expect("queued").0;
                }
            }
        }
    }
}
