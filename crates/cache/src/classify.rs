//! Miss classification — the taxonomy of Figure 2.
//!
//! For each request to a shared cache, the outcome is classified as:
//!
//! * **hit** — fresh copy present;
//! * **compulsory** — first access to the object by *anyone* behind this
//!   cache;
//! * **communication** — the object was cached but has been invalidated by
//!   an update (stored version < requested version);
//! * **capacity** — the object was cached but was discarded to make space;
//! * **uncachable** — the request must contact the server (non-GET, CGI,
//!   cache-control);
//! * **error** — the request draws an error reply.
//!
//! [`ClassifyingCache`] wraps an [`LruCache`] and keeps the tombstone
//! state needed to distinguish capacity from communication misses.

use crate::lru::LruCache;
use bh_simcore::ByteSize;
use serde::{DeError, Deserialize, Serialize, Value};
use std::collections::HashMap;

/// Why a request missed (or that it hit).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum MissClass {
    /// Served from cache.
    Hit,
    /// First access to this object through this cache.
    Compulsory,
    /// Cached copy was invalidated by an update.
    Communication,
    /// Cached copy was evicted for space.
    Capacity,
    /// Request may not be served from cache.
    Uncachable,
    /// Request produced an error reply.
    Error,
}

impl MissClass {
    /// All classes, in Figure 2's legend order.
    pub const ALL: [MissClass; 6] = [
        MissClass::Hit,
        MissClass::Compulsory,
        MissClass::Capacity,
        MissClass::Communication,
        MissClass::Error,
        MissClass::Uncachable,
    ];

    /// Number of classes (the length of [`MissClass::ALL`]).
    pub const COUNT: usize = 6;

    /// A dense index in `0..MissClass::COUNT`, stable across runs — used to
    /// address per-class counter arrays without hashing.
    pub const fn index(self) -> usize {
        match self {
            MissClass::Hit => 0,
            MissClass::Compulsory => 1,
            MissClass::Communication => 2,
            MissClass::Capacity => 3,
            MissClass::Uncachable => 4,
            MissClass::Error => 5,
        }
    }

    /// The class's lowercase name as it appears in figures and JSON.
    pub const fn label(self) -> &'static str {
        match self {
            MissClass::Hit => "hit",
            MissClass::Compulsory => "compulsory",
            MissClass::Communication => "communication",
            MissClass::Capacity => "capacity",
            MissClass::Uncachable => "uncachable",
            MissClass::Error => "error",
        }
    }

    /// The class with the given [`MissClass::label`], if any.
    pub fn from_label(label: &str) -> Option<MissClass> {
        MissClass::ALL.iter().copied().find(|c| c.label() == label)
    }
}

impl std::fmt::Display for MissClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A per-class rate table: one `f64` per [`MissClass`], addressed by
/// [`MissClass::index`] instead of a heap-allocated name/value list.
///
/// Serializes exactly like the historical `Vec<(String, f64)>` form — an
/// array of `["name", value]` pairs in [`MissClass::ALL`] (legend) order —
/// so JSON artifacts are unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ClassRates([f64; MissClass::COUNT]);

impl ClassRates {
    /// Builds a table by evaluating `f` for every class.
    pub fn from_fn(mut f: impl FnMut(MissClass) -> f64) -> Self {
        let mut rates = [0.0; MissClass::COUNT];
        for class in MissClass::ALL {
            rates[class.index()] = f(class);
        }
        ClassRates(rates)
    }

    /// The rate for `class`.
    pub fn get(&self, class: MissClass) -> f64 {
        self.0[class.index()]
    }

    /// Sets the rate for `class`.
    pub fn set(&mut self, class: MissClass, rate: f64) {
        self.0[class.index()] = rate;
    }

    /// Looks a rate up by class name (`"hit"`, `"capacity"`, …).
    pub fn by_name(&self, name: &str) -> Option<f64> {
        MissClass::from_label(name).map(|c| self.get(c))
    }

    /// Iterates `(class, rate)` pairs in [`MissClass::ALL`] (legend) order.
    pub fn iter(&self) -> impl Iterator<Item = (MissClass, f64)> + '_ {
        MissClass::ALL.into_iter().map(|c| (c, self.get(c)))
    }

    /// Sum of all class rates (≈ 1.0 for a complete breakdown).
    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }
}

impl Serialize for ClassRates {
    fn serialize(&self) -> Value {
        Value::Array(
            self.iter()
                .map(|(class, rate)| {
                    Value::Array(vec![
                        Value::Str(class.label().to_string()),
                        Value::Float(rate),
                    ])
                })
                .collect(),
        )
    }
}

impl Deserialize for ClassRates {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        let Value::Array(items) = v else {
            return Err(DeError(
                "ClassRates: expected array of [name, rate] pairs".into(),
            ));
        };
        let mut rates = ClassRates::default();
        for item in items {
            let Value::Array(pair) = item else {
                return Err(DeError("ClassRates: expected [name, rate] pair".into()));
            };
            let [name, rate] = pair.as_slice() else {
                return Err(DeError("ClassRates: pair must have two elements".into()));
            };
            let Value::Str(name) = name else {
                return Err(DeError("ClassRates: pair name must be a string".into()));
            };
            let class = MissClass::from_label(name)
                .ok_or_else(|| DeError(format!("ClassRates: unknown class {name:?}")))?;
            rates.set(class, f64::deserialize(rate)?);
        }
        Ok(rates)
    }
}

/// The outcome of one classified access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// The classification.
    pub class: MissClass,
    /// Bytes transferred to the client (the object size).
    pub bytes: ByteSize,
}

/// What we remember about an object no longer (or not currently fresh) in
/// the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Gone {
    Evicted,
    Invalidated,
}

/// An [`LruCache`] wrapper that classifies every access per Figure 2.
///
/// ```
/// use bh_cache::{ClassifyingCache, MissClass};
/// use bh_simcore::ByteSize;
///
/// let mut c = ClassifyingCache::new(ByteSize::from_mb(1));
/// let first = c.access(1, ByteSize::from_kb(10), 0, true);
/// assert_eq!(first.class, MissClass::Compulsory);
/// let second = c.access(1, ByteSize::from_kb(10), 0, true);
/// assert_eq!(second.class, MissClass::Hit);
/// let updated = c.access(1, ByteSize::from_kb(10), 1, true);
/// assert_eq!(updated.class, MissClass::Communication);
/// ```
#[derive(Debug, Clone)]
pub struct ClassifyingCache {
    cache: LruCache,
    gone: HashMap<u64, Gone>,
    counts: [u64; MissClass::COUNT],
    bytes: [u64; MissClass::COUNT],
}

impl ClassifyingCache {
    /// Creates a classifier over a cache of the given capacity.
    pub fn new(capacity: ByteSize) -> Self {
        ClassifyingCache {
            cache: LruCache::new(capacity),
            gone: HashMap::new(),
            counts: [0; MissClass::COUNT],
            bytes: [0; MissClass::COUNT],
        }
    }

    /// Processes one access and classifies it.
    ///
    /// `cacheable = false` marks uncachable requests; pass error requests as
    /// uncachable with [`ClassifyingCache::access_error`] instead.
    pub fn access(
        &mut self,
        key: u64,
        size: ByteSize,
        version: u32,
        cacheable: bool,
    ) -> AccessOutcome {
        let class = self.classify(key, size, version, cacheable);
        self.counts[class.index()] += 1;
        self.bytes[class.index()] += size.as_bytes();
        AccessOutcome { class, bytes: size }
    }

    /// Processes an error request (never cached, classified [`MissClass::Error`]).
    pub fn access_error(&mut self, size: ByteSize) -> AccessOutcome {
        self.counts[MissClass::Error.index()] += 1;
        self.bytes[MissClass::Error.index()] += size.as_bytes();
        AccessOutcome {
            class: MissClass::Error,
            bytes: size,
        }
    }

    fn classify(&mut self, key: u64, size: ByteSize, version: u32, cacheable: bool) -> MissClass {
        if !cacheable {
            // Uncachable requests bypass the cache entirely; they neither
            // hit nor warm it, and they do not change tombstone state.
            return MissClass::Uncachable;
        }
        if let Some((_, v)) = self.cache.peek(key) {
            if v >= version {
                let _ = self.cache.get(key, version); // promote
                return MissClass::Hit;
            }
            // Stale in cache: invalidate and re-fetch.
            self.cache.remove(key);
            self.insert_tracking_evictions(key, size, version);
            return MissClass::Communication;
        }
        let class = match self.gone.get(&key) {
            None => MissClass::Compulsory,
            Some(Gone::Evicted) => MissClass::Capacity,
            Some(Gone::Invalidated) => MissClass::Communication,
        };
        self.gone.remove(&key);
        self.insert_tracking_evictions(key, size, version);
        class
    }

    fn insert_tracking_evictions(&mut self, key: u64, size: ByteSize, version: u32) {
        let gone = &mut self.gone;
        self.cache.insert_value(key, size, version, (), |e| {
            gone.insert(e.key, Gone::Evicted);
        });
        if self.cache.peek(key).is_none() {
            // Object too large to cache at all: next access is a capacity miss.
            self.gone.insert(key, Gone::Evicted);
        }
    }

    /// Explicitly invalidates an object (server-driven consistency): the
    /// next access classifies as a communication miss.
    pub fn invalidate(&mut self, key: u64) {
        if self.cache.remove(key).is_some() || self.gone.contains_key(&key) {
            self.gone.insert(key, Gone::Invalidated);
        }
    }

    /// Per-class access counts so far.
    pub fn count(&self, class: MissClass) -> u64 {
        self.counts[class.index()]
    }

    /// Per-class byte totals so far.
    pub fn bytes(&self, class: MissClass) -> u64 {
        self.bytes[class.index()]
    }

    /// Total accesses classified.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Total bytes classified.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Fraction of accesses in `class`.
    pub fn rate(&self, class: MissClass) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            self.count(class) as f64 / t as f64
        }
    }

    /// Fraction of bytes in `class`.
    pub fn byte_rate(&self, class: MissClass) -> f64 {
        let t = self.total_bytes();
        if t == 0 {
            0.0
        } else {
            self.bytes(class) as f64 / t as f64
        }
    }

    /// Overall miss ratio (all classes except [`MissClass::Hit`]).
    pub fn miss_ratio(&self) -> f64 {
        1.0 - self.rate(MissClass::Hit)
    }

    /// The full per-class access-rate table (each entry from
    /// [`ClassifyingCache::rate`]).
    pub fn rates(&self) -> ClassRates {
        ClassRates::from_fn(|class| self.rate(class))
    }

    /// The full per-class byte-rate table (each entry from
    /// [`ClassifyingCache::byte_rate`]).
    pub fn byte_rates(&self) -> ClassRates {
        ClassRates::from_fn(|class| self.byte_rate(class))
    }

    /// Resets the per-class counters (the cache and tombstones are kept) —
    /// used at the end of the warm-up window.
    pub fn reset_counters(&mut self) {
        self.counts = [0; MissClass::COUNT];
        self.bytes = [0; MissClass::COUNT];
    }

    /// The wrapped cache.
    pub fn cache(&self) -> &LruCache {
        &self.cache
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kb(n: u64) -> ByteSize {
        ByteSize::from_kb(n)
    }

    #[test]
    fn first_access_is_compulsory_then_hits() {
        let mut c = ClassifyingCache::new(kb(100));
        assert_eq!(c.access(1, kb(10), 0, true).class, MissClass::Compulsory);
        assert_eq!(c.access(1, kb(10), 0, true).class, MissClass::Hit);
        assert_eq!(c.count(MissClass::Compulsory), 1);
        assert_eq!(c.count(MissClass::Hit), 1);
    }

    #[test]
    fn version_bump_is_communication_miss() {
        let mut c = ClassifyingCache::new(kb(100));
        c.access(1, kb(10), 0, true);
        assert_eq!(c.access(1, kb(10), 2, true).class, MissClass::Communication);
        // The re-fetched copy is fresh now.
        assert_eq!(c.access(1, kb(10), 2, true).class, MissClass::Hit);
    }

    #[test]
    fn eviction_then_reaccess_is_capacity_miss() {
        let mut c = ClassifyingCache::new(kb(20));
        c.access(1, kb(10), 0, true);
        c.access(2, kb(10), 0, true);
        c.access(3, kb(10), 0, true); // evicts 1
        assert_eq!(c.access(1, kb(10), 0, true).class, MissClass::Capacity);
    }

    #[test]
    fn explicit_invalidate_reclassifies() {
        let mut c = ClassifyingCache::new(kb(100));
        c.access(1, kb(10), 0, true);
        c.invalidate(1);
        assert_eq!(c.access(1, kb(10), 0, true).class, MissClass::Communication);
    }

    #[test]
    fn invalidate_unknown_object_is_noop() {
        let mut c = ClassifyingCache::new(kb(100));
        c.invalidate(42);
        assert_eq!(c.access(42, kb(1), 0, true).class, MissClass::Compulsory);
    }

    #[test]
    fn uncachable_never_warms_cache() {
        let mut c = ClassifyingCache::new(kb(100));
        assert_eq!(c.access(1, kb(10), 0, false).class, MissClass::Uncachable);
        assert_eq!(c.access(1, kb(10), 0, false).class, MissClass::Uncachable);
        // A later cacheable access is still the first *cacheable* one.
        assert_eq!(c.access(1, kb(10), 0, true).class, MissClass::Compulsory);
    }

    #[test]
    fn error_requests_tracked_separately() {
        let mut c = ClassifyingCache::new(kb(100));
        c.access_error(kb(5));
        assert_eq!(c.count(MissClass::Error), 1);
        assert_eq!(c.bytes(MissClass::Error), kb(5).as_bytes());
    }

    #[test]
    fn oversized_objects_classify_as_capacity_on_reaccess() {
        let mut c = ClassifyingCache::new(kb(10));
        assert_eq!(c.access(1, kb(50), 0, true).class, MissClass::Compulsory);
        assert_eq!(c.access(1, kb(50), 0, true).class, MissClass::Capacity);
    }

    #[test]
    fn rates_sum_to_one() {
        let mut c = ClassifyingCache::new(kb(30));
        for (k, v, cacheable) in [
            (1, 0, true),
            (2, 0, true),
            (1, 0, true),
            (3, 1, true),
            (4, 0, false),
            (1, 1, true),
        ] {
            c.access(k, kb(10), v, cacheable);
        }
        c.access_error(kb(1));
        let total: f64 = MissClass::ALL.iter().map(|&cl| c.rate(cl)).sum();
        assert!((total - 1.0).abs() < 1e-12);
        let total_b: f64 = MissClass::ALL.iter().map(|&cl| c.byte_rate(cl)).sum();
        assert!((total_b - 1.0).abs() < 1e-12);
    }

    #[test]
    fn infinite_cache_has_no_capacity_misses() {
        let mut c = ClassifyingCache::new(ByteSize::MAX);
        let mut state = 1u64;
        for i in 0..5_000u64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let key = state % 500 + 1;
            c.access(key, kb(10), (i / 2000) as u32, true);
        }
        assert_eq!(c.count(MissClass::Capacity), 0);
        assert!(c.count(MissClass::Hit) > 0);
        assert!(c.count(MissClass::Communication) > 0);
    }

    #[test]
    fn reset_counters_keeps_cache_state() {
        let mut c = ClassifyingCache::new(kb(100));
        c.access(1, kb(10), 0, true);
        c.reset_counters();
        assert_eq!(c.total(), 0);
        // Still a hit: the cache was not cleared.
        assert_eq!(c.access(1, kb(10), 0, true).class, MissClass::Hit);
    }

    #[test]
    fn miss_ratio_consistent() {
        let mut c = ClassifyingCache::new(kb(100));
        c.access(1, kb(10), 0, true);
        c.access(1, kb(10), 0, true);
        assert!((c.miss_ratio() - 0.5).abs() < 1e-12);
    }
}
