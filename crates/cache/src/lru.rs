//! Byte-capacity LRU data cache with versioned entries.
//!
//! Entries are keyed by a 64-bit object identifier and carry the object's
//! size, its version and a value of the caller's type (`()` by default;
//! the live node keeps each object's body there). Capacity is in bytes
//! ([`bh_simcore::ByteSize::MAX`] means unlimited, the paper's "infinite
//! disk" configuration). The recency list is an intrusive doubly-linked list over a slab, so every
//! operation is O(1) amortized.

use crate::hash::Keyed;
use bh_simcore::ByteSize;
use std::collections::HashMap;
use std::hash::BuildHasher;

/// An entry evicted to make room.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// Object key.
    pub key: u64,
    /// Object size.
    pub size: ByteSize,
    /// Version that was stored.
    pub version: u32,
}

const NIL: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Node<V> {
    key: u64,
    size: u64,
    version: u32,
    prev: u32,
    next: u32,
    /// `None` only while the slot is on the free list: a value is dropped
    /// when its entry leaves, not when its slot is reused. `Option<()>`
    /// fits in the padding, so a `V = ()` node stays 32 bytes.
    value: Option<V>,
}

/// A byte-capacity LRU cache of versioned objects. `S` hashes the keys:
/// [`Keyed`] unless every key is already well mixed and no outside party
/// chooses it (see [`crate::hash`]). `V` rides each entry and leaves with
/// it — on eviction, removal, stale invalidation, or replacement by a
/// refresh.
///
/// See the [crate docs](crate) for an example.
#[derive(Debug, Clone)]
pub struct LruCache<S = Keyed, V = ()> {
    capacity: ByteSize,
    used: u64,
    map: HashMap<u64, u32, S>,
    slab: Vec<Node<V>>,
    free: Vec<u32>,
    /// Most recently used. NIL when empty.
    head: u32,
    /// Least recently used. NIL when empty.
    tail: u32,
}

impl LruCache {
    /// Creates a cache with the given byte capacity
    /// ([`ByteSize::MAX`] = unlimited).
    pub fn new(capacity: ByteSize) -> Self {
        Self::with_hasher(capacity, Keyed::default())
    }

    /// Creates an unlimited-capacity cache.
    pub fn unbounded() -> Self {
        Self::new(ByteSize::MAX)
    }
}

impl<S: BuildHasher, V> LruCache<S, V> {
    /// Creates a cache with the given byte capacity whose keys `hasher`
    /// hashes.
    pub fn with_hasher(capacity: ByteSize, hasher: S) -> Self {
        LruCache {
            capacity,
            used: 0,
            map: HashMap::with_hasher(hasher),
            slab: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
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
        self.map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    fn detach(&mut self, idx: u32) {
        let (prev, next) = {
            let n = &self.slab[idx as usize];
            (n.prev, n.next)
        };
        if prev != NIL {
            self.slab[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slab[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn attach_front(&mut self, idx: u32) {
        let old_head = self.head;
        {
            let n = &mut self.slab[idx as usize];
            n.prev = NIL;
            n.next = old_head;
        }
        if old_head != NIL {
            self.slab[old_head as usize].prev = idx;
        } else {
            self.tail = idx;
        }
        self.head = idx;
    }

    fn attach_back(&mut self, idx: u32) {
        let old_tail = self.tail;
        {
            let n = &mut self.slab[idx as usize];
            n.next = NIL;
            n.prev = old_tail;
        }
        if old_tail != NIL {
            self.slab[old_tail as usize].next = idx;
        } else {
            self.head = idx;
        }
        self.tail = idx;
    }

    fn remove_idx(&mut self, idx: u32) -> Evicted {
        self.detach(idx);
        let n = &mut self.slab[idx as usize];
        n.value = None;
        let (key, size, version) = (n.key, n.size, n.version);
        self.map.remove(&key);
        self.used -= size;
        self.free.push(idx);
        Evicted {
            key,
            size: ByteSize::from_bytes(size),
            version,
        }
    }

    /// The one probe behind [`LruCache::get`] and
    /// [`LruCache::get_value`]: the slab entry of a fresh `key`, promoted
    /// to most-recently-used; a stale one is removed.
    #[inline(always)]
    fn promote(&mut self, key: u64, min_version: u32) -> Option<&Node<V>> {
        let idx = *self.map.get(&key)?;
        if self.slab[idx as usize].version < min_version {
            self.remove_idx(idx);
            return None;
        }
        self.detach(idx);
        self.attach_front(idx);
        Some(&self.slab[idx as usize])
    }

    /// Looks up `key`, requiring at least `min_version`.
    ///
    /// * Fresh entry → promoted to most-recently-used, `Some((size, version))`.
    /// * Stale entry (stored version < `min_version`) → **invalidated**
    ///   (removed, its value dropped) and `None` is returned: this is how
    ///   strong consistency turns an update into a communication miss.
    /// * Absent → `None`.
    //
    // `get`, `get_value` and `insert_value` are kept out of line: inlined
    // into a caller's loop, they left the keyed SipHash there as a call,
    // +2 ns a `get` and +8 ns an evicting `insert` in the benchmark's
    // `cache.lru.*` rows.
    #[inline(never)]
    pub fn get(&mut self, key: u64, min_version: u32) -> Option<(ByteSize, u32)> {
        let n = self.promote(key, min_version)?;
        Some((ByteSize::from_bytes(n.size), n.version))
    }

    /// [`LruCache::get`] that answers with the entry's version and value:
    /// one probe of the key map for both.
    #[inline(never)]
    pub fn get_value(&mut self, key: u64, min_version: u32) -> Option<(u32, &V)> {
        let n = self.promote(key, min_version)?;
        Some((n.version, n.value.as_ref()?))
    }

    /// Looks up without promoting or invalidating.
    pub fn peek(&self, key: u64) -> Option<(ByteSize, u32)> {
        let idx = *self.map.get(&key)?;
        let n = &self.slab[idx as usize];
        Some((ByteSize::from_bytes(n.size), n.version))
    }

    /// The value stored with `key`, without promoting or invalidating.
    pub fn peek_value(&self, key: u64) -> Option<&V> {
        let idx = *self.map.get(&key)?;
        self.slab[idx as usize].value.as_ref()
    }

    /// Whether `key` is present with version at least `min_version`.
    pub fn contains_fresh(&self, key: u64, min_version: u32) -> bool {
        self.peek(key).is_some_and(|(_, v)| v >= min_version)
    }

    /// Inserts (or refreshes) `key` with `value`, evicting LRU entries as
    /// needed, and returns `true`. Each evicted entry is handed to
    /// `evicted`, oldest first, its value already dropped; a refresh drops
    /// the value it replaces.
    ///
    /// Objects larger than the whole capacity are not cached: `false`,
    /// nothing is evicted, and `value` is dropped unstored, mirroring
    /// proxies' max-object-size policies.
    #[inline(never)]
    pub fn insert_value(
        &mut self,
        key: u64,
        size: ByteSize,
        version: u32,
        value: V,
        mut evicted: impl FnMut(Evicted),
    ) -> bool {
        let size_b = size.as_bytes();
        if !self.capacity.is_unlimited() && size_b > self.capacity.as_bytes() {
            return false;
        }
        // Refresh in place if already present.
        if let Some(&idx) = self.map.get(&key) {
            let old = self.slab[idx as usize].size;
            self.used = self.used - old + size_b;
            {
                let n = &mut self.slab[idx as usize];
                n.size = size_b;
                n.version = n.version.max(version);
                n.value = Some(value);
            }
            self.detach(idx);
            self.attach_front(idx);
        } else {
            let node = Node {
                key,
                size: size_b,
                version,
                prev: NIL,
                next: NIL,
                value: Some(value),
            };
            let idx = match self.free.pop() {
                Some(i) => {
                    self.slab[i as usize] = node;
                    i
                }
                None => {
                    // bh-lint: allow(no-panic-hot-path, reason = "2^32 entries would take 128 GiB of slab before this could fire")
                    let i = u32::try_from(self.slab.len()).expect("cache entries fit in u32");
                    self.slab.push(node);
                    i
                }
            };
            self.map.insert(key, idx);
            self.used += size_b;
            self.attach_front(idx);
        }
        // Evict from the cold end until within capacity.
        if !self.capacity.is_unlimited() {
            while self.used > self.capacity.as_bytes() {
                let tail = self.tail;
                debug_assert_ne!(tail, NIL, "over capacity with empty list");
                if self.slab[tail as usize].key == key {
                    // The new entry itself is the only one left; keep it.
                    break;
                }
                evicted(self.remove_idx(tail));
            }
        }
        true
    }

    /// Removes `key` (e.g. on invalidation). Returns the removed entry.
    pub fn remove(&mut self, key: u64) -> Option<Evicted> {
        let idx = *self.map.get(&key)?;
        Some(self.remove_idx(idx))
    }

    /// Moves `key` to the cold (LRU) end without removing it — the update
    /// push algorithm's "aging": objects updated many times without being
    /// read drift out of the cache (§4.1.2).
    pub fn demote(&mut self, key: u64) -> bool {
        let Some(&idx) = self.map.get(&key) else {
            return false;
        };
        self.detach(idx);
        self.attach_back(idx);
        true
    }

    /// The least-recently-used key, if any.
    pub fn lru_key(&self) -> Option<u64> {
        (self.tail != NIL).then(|| self.slab[self.tail as usize].key)
    }

    /// Iterates over keys from most- to least-recently used.
    pub fn iter(&self) -> Iter<'_, V> {
        Iter {
            slab: &self.slab,
            cur: self.head,
        }
    }
}

impl<S: BuildHasher> LruCache<S> {
    /// [`LruCache::insert_value`] for a cache that keeps no values and
    /// whose caller needs no word of what the insert evicted.
    #[inline]
    pub fn insert(&mut self, key: u64, size: ByteSize, version: u32) -> bool {
        self.insert_value(key, size, version, (), |_| {})
    }
}

/// Iterator over `(key, size, version)` in recency order.
#[derive(Debug)]
pub struct Iter<'a, V = ()> {
    slab: &'a [Node<V>],
    cur: u32,
}

impl<V> Iterator for Iter<'_, V> {
    type Item = (u64, ByteSize, u32);
    fn next(&mut self) -> Option<Self::Item> {
        if self.cur == NIL {
            return None;
        }
        let n = &self.slab[self.cur as usize];
        self.cur = n.next;
        Some((n.key, ByteSize::from_bytes(n.size), n.version))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kb(n: u64) -> ByteSize {
        ByteSize::from_kb(n)
    }

    /// Inserts `key` with no value and returns what the insert evicted.
    fn evictions<S: BuildHasher>(
        c: &mut LruCache<S>,
        key: u64,
        size: ByteSize,
        version: u32,
    ) -> Vec<Evicted> {
        let mut evicted = Vec::new();
        c.insert_value(key, size, version, (), |e| evicted.push(e));
        evicted
    }

    #[test]
    fn insert_get_basic() {
        let mut c = LruCache::new(kb(100));
        assert!(c.is_empty());
        assert!(evictions(&mut c, 1, kb(10), 0).is_empty());
        assert_eq!(c.get(1, 0), Some((kb(10), 0)));
        assert_eq!(c.len(), 1);
        assert_eq!(c.used_bytes(), kb(10));
        assert_eq!(c.get(2, 0), None);
    }

    #[test]
    fn evicts_lru_order() {
        let mut c = LruCache::new(kb(30));
        c.insert(1, kb(10), 0);
        c.insert(2, kb(10), 0);
        c.insert(3, kb(10), 0);
        // Touch 1 so 2 becomes LRU.
        assert!(c.get(1, 0).is_some());
        let ev = evictions(&mut c, 4, kb(10), 0);
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].key, 2);
        assert!(c.get(2, 0).is_none());
        assert!(c.get(1, 0).is_some());
    }

    #[test]
    fn eviction_can_cascade() {
        let mut c = LruCache::new(kb(30));
        c.insert(1, kb(10), 0);
        c.insert(2, kb(10), 0);
        c.insert(3, kb(10), 0);
        let ev = evictions(&mut c, 4, kb(25), 0);
        assert_eq!(ev.iter().map(|e| e.key).collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!(c.len(), 1);
        assert!(c.used_bytes() <= kb(30));
    }

    #[test]
    fn stale_version_invalidates_on_get() {
        let mut c = LruCache::new(kb(100));
        c.insert(1, kb(10), 1);
        assert_eq!(c.get(1, 1), Some((kb(10), 1)));
        assert_eq!(c.get(1, 2), None, "stale copy must not be served");
        assert!(c.peek(1).is_none(), "stale copy must be removed");
        assert_eq!(c.used_bytes(), ByteSize::ZERO);
    }

    #[test]
    fn contains_fresh_does_not_mutate() {
        let mut c = LruCache::new(kb(100));
        c.insert(1, kb(10), 1);
        assert!(c.contains_fresh(1, 1));
        assert!(!c.contains_fresh(1, 5));
        assert!(c.peek(1).is_some(), "contains_fresh must not invalidate");
    }

    #[test]
    fn refresh_updates_size_and_version() {
        let mut c = LruCache::new(kb(100));
        c.insert(1, kb(10), 1);
        c.insert(1, kb(20), 3);
        assert_eq!(c.get(1, 3), Some((kb(20), 3)));
        assert_eq!(c.len(), 1);
        assert_eq!(c.used_bytes(), kb(20));
    }

    #[test]
    fn refresh_never_downgrades_version() {
        let mut c = LruCache::new(kb(100));
        c.insert(1, kb(10), 5);
        c.insert(1, kb(10), 2);
        assert_eq!(c.peek(1), Some((kb(10), 5)));
    }

    #[test]
    fn oversized_object_not_cached() {
        let mut c = LruCache::new(kb(10));
        assert!(!c.insert(7, kb(11), 0));
        assert!(c.peek(7).is_none());
        assert_eq!(c.used_bytes(), ByteSize::ZERO);
    }

    #[test]
    fn exactly_capacity_object_is_cached_alone() {
        let mut c = LruCache::new(kb(10));
        c.insert(1, kb(4), 0);
        let ev = evictions(&mut c, 2, kb(10), 0);
        assert_eq!(ev.len(), 1);
        assert!(c.peek(2).is_some());
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn remove_and_reuse_slot() {
        let mut c = LruCache::new(kb(100));
        c.insert(1, kb(10), 0);
        c.insert(2, kb(10), 0);
        let removed = c.remove(1).expect("present");
        assert_eq!(removed.key, 1);
        assert_eq!(c.remove(1), None);
        c.insert(3, kb(10), 0);
        assert_eq!(c.len(), 2);
        let keys: Vec<u64> = c.iter().map(|(k, _, _)| k).collect();
        assert_eq!(keys, vec![3, 2]);
    }

    #[test]
    fn demote_moves_to_cold_end() {
        let mut c = LruCache::new(kb(30));
        c.insert(1, kb(10), 0);
        c.insert(2, kb(10), 0);
        c.insert(3, kb(10), 0);
        assert!(c.demote(3));
        assert_eq!(c.lru_key(), Some(3));
        let ev = evictions(&mut c, 4, kb(10), 0);
        assert_eq!(ev[0].key, 3, "demoted entry evicted first");
        assert!(!c.demote(99));
    }

    #[test]
    fn unbounded_never_evicts() {
        let mut c = LruCache::unbounded();
        for i in 0..10_000u64 {
            assert!(evictions(&mut c, i, kb(100), 0).is_empty());
        }
        assert_eq!(c.len(), 10_000);
    }

    #[test]
    fn iter_in_recency_order() {
        let mut c = LruCache::new(kb(100));
        for i in 1..=4u64 {
            c.insert(i, kb(1), 0);
        }
        c.get(2, 0);
        let keys: Vec<u64> = c.iter().map(|(k, _, _)| k).collect();
        assert_eq!(keys, vec![2, 4, 3, 1]);
    }

    mod props {
        use super::*;
        use crate::PreMixed;
        use proptest::prelude::*;
        use std::rc::Rc;

        #[derive(Debug, Clone)]
        enum Op {
            Insert(u64, u64, u32),
            Get(u64, u32),
            Remove(u64),
            Demote(u64),
            Peek(u64),
        }

        /// 50 keys, half of them small integers and half spread over all
        /// 64 bits, so a repeated insert refreshes an entry.
        fn key() -> impl Strategy<Value = u64> {
            (0u64..50).prop_map(|i| {
                if i % 2 == 0 {
                    i
                } else {
                    i.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                }
            })
        }

        /// Sizes up to 60,000 bytes against a 50,000-byte cache, so some
        /// inserts are oversize; versions 0–3, so some gets are stale.
        fn op_strategy() -> impl Strategy<Value = Op> {
            prop_oneof![
                (key(), 1u64..60_000, 0u32..4).prop_map(|(k, s, v)| Op::Insert(k, s, v)),
                (key(), 0u32..4).prop_map(|(k, v)| Op::Get(k, v)),
                key().prop_map(Op::Remove),
                key().prop_map(Op::Demote),
                key().prop_map(Op::Peek),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Capacity, byte accounting, and map/list consistency hold
            /// under arbitrary operation sequences.
            #[test]
            fn invariants_hold(ops in proptest::collection::vec(op_strategy(), 1..300)) {
                let cap = ByteSize::from_bytes(50_000);
                let mut c = LruCache::new(cap);
                for op in ops {
                    match op {
                        Op::Insert(k, s, v) => { c.insert(k, ByteSize::from_bytes(s), v); }
                        Op::Get(k, v) => { c.get(k, v); }
                        Op::Remove(k) => { c.remove(k); }
                        Op::Demote(k) => { c.demote(k); }
                        Op::Peek(k) => { c.peek(k); }
                    }
                    // Never over capacity.
                    prop_assert!(c.used_bytes() <= cap);
                    // Byte accounting matches the entries.
                    let sum: u64 = c.iter().map(|(_, s, _)| s.as_bytes()).sum();
                    prop_assert_eq!(sum, c.used_bytes().as_bytes());
                    // List length matches map length.
                    prop_assert_eq!(c.iter().count(), c.len());
                }
            }

            /// The hasher decides only where the key map keeps an entry, and
            /// the value type only what rides it: a cache on the keyed
            /// hasher, one on the pass-through hasher and one that carries
            /// a value with every entry return the same answers, evict the
            /// same entries in the same order and hold the same entries in
            /// the same recency order.
            #[test]
            fn hasher_never_changes_behaviour(ops in proptest::collection::vec(op_strategy(), 1..300)) {
                let cap = ByteSize::from_bytes(50_000);
                let mut keyed = LruCache::new(cap);
                let mut premixed = LruCache::with_hasher(cap, PreMixed::default());
                let mut valued: LruCache<Keyed, Rc<u64>> = LruCache::with_hasher(cap, Keyed::default());
                for (serial, op) in ops.into_iter().enumerate() {
                    match op {
                        Op::Insert(k, s, v) => {
                            let s = ByteSize::from_bytes(s);
                            let evicted = evictions(&mut keyed, k, s, v);
                            prop_assert_eq!(&evicted, &evictions(&mut premixed, k, s, v));
                            let mut carried = Vec::new();
                            let stored = valued.insert_value(k, s, v, Rc::new(serial as u64), |e| carried.push(e));
                            prop_assert_eq!(stored, keyed.peek(k).is_some_and(|(size, _)| size == s));
                            prop_assert_eq!(evicted, carried);
                        }
                        Op::Get(k, v) => {
                            let got = keyed.get(k, v);
                            prop_assert_eq!(got, premixed.get(k, v));
                            prop_assert_eq!(got.map(|(_, v)| v), valued.get_value(k, v).map(|(v, _)| v));
                        }
                        Op::Remove(k) => {
                            let removed = keyed.remove(k);
                            prop_assert_eq!(removed, premixed.remove(k));
                            prop_assert_eq!(removed, valued.remove(k));
                        }
                        Op::Demote(k) => {
                            let demoted = keyed.demote(k);
                            prop_assert_eq!(demoted, premixed.demote(k));
                            prop_assert_eq!(demoted, valued.demote(k));
                        }
                        Op::Peek(k) => {
                            let peeked = keyed.peek(k);
                            prop_assert_eq!(peeked, premixed.peek(k));
                            prop_assert_eq!(peeked, valued.peek(k));
                        }
                    }
                    prop_assert!(keyed.iter().eq(premixed.iter()));
                    prop_assert!(keyed.iter().eq(valued.iter()));
                    prop_assert_eq!(keyed.len(), premixed.len());
                    prop_assert_eq!(keyed.len(), valued.len());
                    prop_assert_eq!(keyed.used_bytes(), premixed.used_bytes());
                    prop_assert_eq!(keyed.used_bytes(), valued.used_bytes());
                }
            }

            /// A value rides its entry: reads return the value last
            /// inserted for the key, and a value is dropped exactly when its
            /// entry leaves — evicted, removed, invalidated as stale,
            /// replaced by a refresh, or refused as oversize — and never
            /// outlives it. The test keeps a second handle on every value,
            /// so a value the cache still holds has two.
            #[test]
            fn values_ride_their_entries(ops in proptest::collection::vec(op_strategy(), 1..300)) {
                let cap = ByteSize::from_bytes(50_000);
                let mut c: LruCache<Keyed, Rc<u64>> = LruCache::with_hasher(cap, Keyed::default());
                // The serial each resident key's value carries.
                let mut model: HashMap<u64, u64> = HashMap::new();
                let mut handles: Vec<Rc<u64>> = Vec::new();
                for (serial, op) in ops.into_iter().enumerate() {
                    let serial = serial as u64;
                    match op {
                        Op::Insert(k, s, v) => {
                            let value = Rc::new(serial);
                            handles.push(Rc::clone(&value));
                            let mut evicted = Vec::new();
                            if c.insert_value(k, ByteSize::from_bytes(s), v, value, |e| evicted.push(e.key)) {
                                for gone in evicted {
                                    model.remove(&gone);
                                }
                                model.insert(k, serial);
                            }
                        }
                        Op::Get(k, v) => match c.get_value(k, v) {
                            Some((_, value)) => prop_assert_eq!(Some(**value), model.get(&k).copied()),
                            None => {
                                model.remove(&k);
                            }
                        },
                        Op::Remove(k) => {
                            prop_assert_eq!(c.remove(k).is_some(), model.remove(&k).is_some());
                        }
                        Op::Demote(k) => {
                            c.demote(k);
                        }
                        Op::Peek(k) => {
                            prop_assert_eq!(c.peek_value(k).map(|v| **v), model.get(&k).copied());
                        }
                    }
                    prop_assert_eq!(c.len(), model.len());
                    for (k, _, _) in c.iter() {
                        prop_assert_eq!(c.peek_value(k).map(|v| **v), model.get(&k).copied());
                    }
                    for handle in &handles {
                        let held = model.values().any(|s| *s == **handle);
                        prop_assert_eq!(Rc::strong_count(handle), 1 + usize::from(held));
                    }
                }
                drop(c);
                prop_assert!(handles.iter().all(|h| Rc::strong_count(h) == 1));
            }
        }
    }
}
