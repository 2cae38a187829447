//! Byte-capacity cache with seeded-random replacement.
//!
//! The third arm of the replacement ablation, after LRU and
//! GreedyDual-Size: victims are drawn from a seeded LCG stream, so the
//! policy has no recency or cost signal at all. "Performance Evaluation
//! of the Random Replacement Policy for Networks of Caches" (PAPERS.md)
//! argues Random approximates LRU surprisingly well on Zipf-like
//! streams while being far cheaper to implement — this cache lets the
//! ablation quantify that gap on the paper's workloads.
//!
//! The API deliberately mirrors [`crate::LruCache`]: versioned entries,
//! stale copies invalidated on `get`, oversize objects never cached,
//! eviction until within capacity (never evicting the just-inserted
//! key). Replays are deterministic in `(capacity, seed, op sequence)`.

use crate::Evicted;
use bh_simcore::ByteSize;
use std::collections::HashMap;

#[derive(Debug, Clone, Copy)]
struct Entry {
    key: u64,
    size: u64,
    version: u32,
}

/// A byte-capacity cache of versioned objects with seeded-random
/// replacement.
#[derive(Debug, Clone)]
pub struct RandomCache {
    capacity: ByteSize,
    used: u64,
    map: HashMap<u64, u32>,
    slots: Vec<Entry>,
    lcg: u64,
}

impl RandomCache {
    /// Creates a cache with the given byte capacity
    /// ([`ByteSize::MAX`] = unlimited) and LCG seed.
    pub fn new(capacity: ByteSize, seed: u64) -> Self {
        RandomCache {
            capacity,
            used: 0,
            map: HashMap::new(),
            slots: Vec::new(),
            // Seed 0 would fix Knuth's LCG at its additive constant for
            // one step; mixing a non-zero constant keeps every seed
            // usable without special cases.
            lcg: seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Creates an unlimited-capacity cache (the seed is irrelevant:
    /// nothing is ever evicted).
    pub fn unbounded() -> Self {
        Self::new(ByteSize::MAX, 0)
    }

    /// The configured capacity.
    pub fn capacity(&self) -> ByteSize {
        self.capacity
    }

    /// Bytes currently stored.
    pub fn used_bytes(&self) -> ByteSize {
        ByteSize::from_bytes(self.used)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Advances the LCG (Knuth's MMIX constants) and returns the next
    /// draw. The high bits carry the quality, so victim selection below
    /// shifts before reducing.
    fn next_draw(&mut self) -> u64 {
        self.lcg = self
            .lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.lcg >> 33
    }

    fn remove_slot(&mut self, idx: u32) -> Evicted {
        let e = self.slots.swap_remove(idx as usize);
        self.map.remove(&e.key);
        self.used -= e.size;
        // swap_remove moved the former last entry into `idx`; re-point it.
        if (idx as usize) < self.slots.len() {
            self.map.insert(self.slots[idx as usize].key, idx);
        }
        Evicted {
            key: e.key,
            size: ByteSize::from_bytes(e.size),
            version: e.version,
        }
    }

    /// Looks up `key`, requiring at least `min_version`.
    ///
    /// * Fresh entry → `Some((size, version))` (no promotion — Random
    ///   keeps no recency state).
    /// * Stale entry (stored version < `min_version`) → invalidated and
    ///   `None` (the communication-miss contract, as in LRU).
    /// * Absent → `None`.
    pub fn get(&mut self, key: u64, min_version: u32) -> Option<(ByteSize, u32)> {
        let idx = *self.map.get(&key)?;
        let e = self.slots[idx as usize];
        if e.version < min_version {
            self.remove_slot(idx);
            return None;
        }
        Some((ByteSize::from_bytes(e.size), e.version))
    }

    /// Looks up without invalidating.
    pub fn peek(&self, key: u64) -> Option<(ByteSize, u32)> {
        let idx = *self.map.get(&key)?;
        let e = &self.slots[idx as usize];
        Some((ByteSize::from_bytes(e.size), e.version))
    }

    /// Whether `key` is present with version at least `min_version`.
    pub fn contains_fresh(&self, key: u64, min_version: u32) -> bool {
        self.peek(key).is_some_and(|(_, v)| v >= min_version)
    }

    /// Inserts (or refreshes) `key`, evicting seeded-random victims as
    /// needed.
    ///
    /// Objects larger than the whole capacity are not cached, and the
    /// just-inserted key is never its own victim — both as in
    /// [`crate::LruCache`]. Refreshing keeps the higher version.
    pub fn insert(&mut self, key: u64, size: ByteSize, version: u32) {
        let size_b = size.as_bytes();
        if !self.capacity.is_unlimited() && size_b > self.capacity.as_bytes() {
            return;
        }
        if let Some(&idx) = self.map.get(&key) {
            let e = &mut self.slots[idx as usize];
            self.used = self.used - e.size + size_b;
            e.size = size_b;
            e.version = e.version.max(version);
        } else {
            let idx = u32::try_from(self.slots.len()).expect("cache entries fit in u32");
            self.slots.push(Entry {
                key,
                size: size_b,
                version,
            });
            self.map.insert(key, idx);
            self.used += size_b;
        }
        if !self.capacity.is_unlimited() {
            while self.used > self.capacity.as_bytes() {
                debug_assert!(!self.slots.is_empty(), "over capacity with no entries");
                if self.slots.len() == 1 {
                    // Only the just-inserted key remains; keep it.
                    break;
                }
                let draw = self.next_draw();
                let mut victim = (draw % self.slots.len() as u64) as u32;
                if self.slots[victim as usize].key == key {
                    // Never evict the entry being inserted; take its
                    // deterministic neighbor instead of redrawing (a
                    // redraw loop has no termination bound).
                    victim = ((victim as usize + 1) % self.slots.len()) as u32;
                }
                self.remove_slot(victim);
            }
        }
    }

    /// Removes `key` (e.g. on invalidation). Returns the removed entry.
    pub fn remove(&mut self, key: u64) -> Option<Evicted> {
        let idx = *self.map.get(&key)?;
        Some(self.remove_slot(idx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kb(n: u64) -> ByteSize {
        ByteSize::from_kb(n)
    }

    #[test]
    fn insert_get_basic() {
        let mut c = RandomCache::new(kb(100), 1);
        assert!(c.is_empty());
        c.insert(1, kb(10), 0);
        assert_eq!(c.get(1, 0), Some((kb(10), 0)));
        assert_eq!(c.len(), 1);
        assert_eq!(c.used_bytes(), kb(10));
        assert_eq!(c.get(2, 0), None);
    }

    #[test]
    fn eviction_is_deterministic_in_the_seed() {
        let run = |seed: u64| {
            // The keys resident after each insert.
            let mut c = RandomCache::new(kb(30), seed);
            let mut all = Vec::new();
            for i in 0..20u64 {
                c.insert(i, kb(10), 0);
                all.push(
                    (0..20u64)
                        .filter(|&k| c.peek(k).is_some())
                        .collect::<Vec<_>>(),
                );
            }
            all
        };
        assert_eq!(run(7), run(7), "same seed must evict the same victims");
        assert_ne!(run(7), run(8), "different seeds should diverge");
    }

    #[test]
    fn never_evicts_the_inserted_key() {
        for seed in 0..32u64 {
            let mut c = RandomCache::new(kb(30), seed);
            for i in 0..100u64 {
                c.insert(i, kb(10), 0);
                assert!(c.peek(i).is_some(), "seed {seed}: {i} must stay cached");
            }
        }
    }

    #[test]
    fn stale_version_invalidates_on_get() {
        let mut c = RandomCache::new(kb(100), 1);
        c.insert(1, kb(10), 1);
        assert_eq!(c.get(1, 1), Some((kb(10), 1)));
        assert_eq!(c.get(1, 2), None, "stale copy must not be served");
        assert!(c.peek(1).is_none(), "stale copy must be removed");
        assert_eq!(c.used_bytes(), ByteSize::ZERO);
    }

    #[test]
    fn refresh_updates_size_and_never_downgrades_version() {
        let mut c = RandomCache::new(kb(100), 1);
        c.insert(1, kb(10), 5);
        c.insert(1, kb(20), 2);
        assert_eq!(c.peek(1), Some((kb(20), 5)));
        assert_eq!(c.len(), 1);
        assert_eq!(c.used_bytes(), kb(20));
    }

    #[test]
    fn oversized_object_not_cached() {
        let mut c = RandomCache::new(kb(10), 1);
        c.insert(7, kb(11), 0);
        assert!(c.peek(7).is_none());
        assert_eq!(c.used_bytes(), ByteSize::ZERO);
    }

    #[test]
    fn unbounded_never_evicts() {
        let mut c = RandomCache::unbounded();
        for i in 0..10_000u64 {
            c.insert(i, kb(100), 0);
        }
        assert_eq!(c.len(), 10_000);
    }

    #[test]
    fn remove_fixes_the_moved_slot() {
        let mut c = RandomCache::new(kb(100), 1);
        c.insert(1, kb(10), 0);
        c.insert(2, kb(10), 0);
        c.insert(3, kb(10), 0);
        let removed = c.remove(1).expect("present");
        assert_eq!(removed.key, 1);
        assert_eq!(c.remove(1), None);
        // Entry 3 was swap-moved into slot 0; it must still resolve.
        assert_eq!(c.peek(3), Some((kb(10), 0)));
        assert_eq!(c.len(), 2);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        #[derive(Debug, Clone)]
        enum Op {
            Insert(u64, u64, u32),
            Get(u64, u32),
            Remove(u64),
        }

        fn op_strategy() -> impl Strategy<Value = Op> {
            prop_oneof![
                (0u64..50, 1u64..20_000, 0u32..4).prop_map(|(k, s, v)| Op::Insert(k, s, v)),
                (0u64..50, 0u32..4).prop_map(|(k, v)| Op::Get(k, v)),
                (0u64..50).prop_map(Op::Remove),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Capacity, byte accounting, and map/slot consistency hold
            /// under arbitrary operation sequences (the LRU invariants,
            /// minus recency).
            #[test]
            fn invariants_hold(
                seed in 0u64..1_000,
                ops in proptest::collection::vec(op_strategy(), 1..300),
            ) {
                let cap = ByteSize::from_bytes(50_000);
                let mut c = RandomCache::new(cap, seed);
                for op in ops {
                    match op {
                        Op::Insert(k, s, v) => { c.insert(k, ByteSize::from_bytes(s), v); }
                        Op::Get(k, v) => { c.get(k, v); }
                        Op::Remove(k) => { c.remove(k); }
                    }
                    prop_assert!(c.used_bytes() <= cap);
                    let sum: u64 = c.slots.iter().map(|e| e.size).sum();
                    prop_assert_eq!(sum, c.used_bytes().as_bytes());
                    prop_assert_eq!(c.slots.len(), c.map.len());
                    for (i, e) in c.slots.iter().enumerate() {
                        prop_assert_eq!(c.map.get(&e.key).copied(), Some(i as u32));
                    }
                }
            }
        }
    }
}
