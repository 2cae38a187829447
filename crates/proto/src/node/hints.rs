//! The node's hint store (§3.2.1): one 4-way set-associative table of
//! 16-byte records at the full configured capacity, behind one lock, plus
//! the table's durable mirror.
//!
//! Every mutation is a method of [`HintTable`] — what locking
//! [`HintStore::table`] hands out — and stages its own [`LogRecord`]
//! under that lock, so the log holds the mutations in the order the
//! table saw them and no caller pairs a table call with a log call.
//! The write and the fsync happen in [`HintStore::persist`], on the flush
//! tick, never on a request path.

use bh_cache::HintCache;
use bh_hintlog::{HintLog, LogRecord};
use bh_simcore::ByteSize;
use parking_lot::Mutex;
use std::path::Path;

/// Log bytes past which [`HintStore::persist`] compacts the durable log
/// into a fresh snapshot even without a bulk purge.
const LOG_COMPACT_BYTES: u64 = 1 << 20;

/// One node's hint table and its durable log.
#[derive(Debug)]
pub(super) struct HintStore {
    /// A `HintBatch` holds the guard for the whole batch; single
    /// operations use it as a temporary.
    pub(super) table: Mutex<HintTable>,
    /// `None` unless the node runs with a durability directory. Locked
    /// only by [`HintStore::persist`].
    log: Option<Mutex<HintLog>>,
}

/// The hint table under its lock.
#[derive(Debug)]
pub(super) struct HintTable {
    cache: HintCache,
    /// Mutations since the last persist, in table order; nothing is
    /// staged unless a durable log takes them (`durable`).
    staged: Vec<LogRecord>,
    durable: bool,
    /// Set by a purge that removed anything: the next persist rewrites
    /// the snapshot from the table instead of logging every purged key.
    compact_due: bool,
}

impl HintStore {
    /// A table of `capacity` bytes. With a `durability_dir`, opens the
    /// log there and replays snapshot + tail into the table; a log that
    /// cannot be opened leaves a cold in-memory store rather than failing
    /// the spawn — durability is best-effort by design.
    pub(super) fn open(capacity: ByteSize, durability_dir: Option<&Path>) -> HintStore {
        let mut table = HintTable {
            cache: HintCache::with_capacity(capacity),
            // bh-lint: allow(no-hot-alloc, reason = "node spawn runs once, not per request")
            staged: Vec::new(),
            durable: false,
            compact_due: false,
        };
        let log = durability_dir
            .and_then(|dir| HintLog::open(dir).ok())
            .map(|recovered| {
                // Replayed through the mutation API; nothing is staged
                // yet, so the replay does not log itself.
                for r in &recovered.records {
                    if r.is_remove() {
                        table.forget(r.key);
                    } else {
                        table.learn(r.key, r.machine());
                    }
                }
                table.durable = true;
                Mutex::new(recovered.log)
            });
        HintStore {
            table: Mutex::new(table),
            log,
        }
    }

    /// Whether mutations are mirrored to a durable log.
    pub(super) fn is_durable(&self) -> bool {
        self.log.is_some()
    }

    /// Every `(object, location)` pair, sorted by object key — after the
    /// table's lock is released.
    pub(super) fn entries(&self) -> Vec<(u64, u64)> {
        let mut entries = self.table.lock().cache.entries();
        entries.sort_unstable();
        entries
    }

    /// Drains the staged records into one CRC-framed, fsynced append, and
    /// compacts the log into a snapshot when a purge flagged it or the
    /// tail has grown past [`LOG_COMPACT_BYTES`]. Write errors are
    /// dropped: the in-memory table stays authoritative and the §3.2
    /// invariant makes a lost hint cost at most one wasted probe after
    /// the next restart.
    pub(super) fn persist(&self) {
        let Some(log) = &self.log else {
            return;
        };
        // bh-lint: allow(lock-order, reason = "group commit: only flush ticks take the log lock, request threads stage under the table lock and never touch it")
        let mut log = log.lock();
        let mut table = self.table.lock();
        let staged = std::mem::take(&mut table.staged);
        let compact_due = std::mem::take(&mut table.compact_due);
        drop(table);
        if !staged.is_empty() {
            let _ = log.append(&staged).and_then(|()| log.sync());
        }
        if compact_due || log.log_bytes() > LOG_COMPACT_BYTES {
            // A mutation that lands between the drain and this snapshot is
            // in both; replaying its record over the snapshot converges.
            let _ = log.compact(&self.entries());
        }
    }
}

impl HintTable {
    fn stage(&mut self, record: LogRecord) {
        if self.durable {
            self.staged.push(record);
        }
    }

    /// The hint module's lookup: the location recorded for `key`,
    /// promoted within its set.
    pub(super) fn lookup(&mut self, key: u64) -> Option<u64> {
        self.cache.lookup(key)
    }

    /// Lookup without promoting (introspection).
    pub(super) fn peek(&self, key: u64) -> Option<u64> {
        self.cache.peek(key)
    }

    /// Records that `location` holds `key`. Returns whether this is the
    /// first copy the table has heard of (the §3.1.2 propagate test).
    /// Key 0 marks an empty slot in the table and is ignored.
    pub(super) fn learn(&mut self, key: u64, location: u64) -> bool {
        if key == 0 {
            return false;
        }
        let first_copy = self.cache.peek(key).is_none();
        self.cache.insert(key, location);
        self.stage(LogRecord::add(key, location));
        first_copy
    }

    /// Drops the hint for `key`, whatever it names.
    pub(super) fn forget(&mut self, key: u64) -> bool {
        let known = self.cache.remove(key).is_some();
        if known {
            self.stage(LogRecord::remove(key));
        }
        known
    }

    /// Drops the hint for `key` only if it names `location`.
    pub(super) fn forget_if(&mut self, key: u64, location: u64) -> bool {
        self.cache.peek(key) == Some(location) && self.forget(key)
    }

    /// Drops every hint naming `location` (a dead or quarantined peer).
    /// Returns the number purged.
    pub(super) fn purge_location(&mut self, location: u64) -> usize {
        let purged = self.cache.purge_location(location);
        self.compact_due |= purged > 0;
        purged
    }

    /// A crash loses everything not yet fsynced.
    pub(super) fn discard_staged(&mut self) {
        self.staged.clear();
    }

    pub(super) fn len(&self) -> usize {
        self.cache.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    const LOCATIONS: u64 = 5;

    /// Machine words with the log's op bit clear, like every real
    /// `MachineId`.
    fn location(n: u64) -> u64 {
        (n % LOCATIONS + 1) << 16
    }

    /// §3.2.1: one array of `hint_capacity / 16` records whose index
    /// spreads keys over every set, so a store filled to 1/16 of its
    /// capacity displaces (almost) nothing.
    #[test]
    fn whole_capacity_is_reachable() {
        let capacity = ByteSize::from_mb(4);
        let store = HintStore::open(capacity, None);
        let mut table = store.table.lock();
        let records = (capacity.as_bytes() / bh_cache::HINT_RECORD_BYTES) as usize;
        assert_eq!(table.cache.capacity_records(), Some(records));
        let keys = records / 16;
        for i in 0..keys {
            table.learn(bh_md5::url_key(&format!("http://fill.test/{i}")), 1 << 16);
        }
        let displaced = keys - table.len();
        assert!(displaced * 1000 < keys, "{displaced} of {keys} displaced");
    }

    /// Key 0 is the table's empty-slot marker; a frame naming it must not
    /// reach the array.
    #[test]
    fn key_zero_is_ignored() {
        let store = HintStore::open(ByteSize::from_kb(4), None);
        assert!(!store.table.lock().learn(0, 1 << 16));
        assert!(!store.table.lock().forget(0));
        assert_eq!(store.table.lock().len(), 0);
    }

    /// The durable mirror: whatever sequence of mutations and persists a
    /// store has seen, reopening its log yields exactly the table as of
    /// the last persist — across restarts (snapshot + tail replay), with
    /// unpersisted mutations lost like in a crash, and through the
    /// compaction a purge triggers. A `BTreeMap` is the witness for the
    /// table itself.
    #[test]
    fn reopened_log_is_the_table_as_of_the_last_persist() {
        for seed in [7u64, 42, 1999] {
            let dir =
                std::env::temp_dir().join(format!("bh-hints-mirror-{}-{seed}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let mut rng = seed;
            let mut step = move || {
                // splitmix64
                rng = rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = rng;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            let mut store = HintStore::open(ByteSize::from_mb(1), Some(&dir));
            assert!(store.is_durable());
            let mut witness: BTreeMap<u64, u64> = BTreeMap::new();
            let mut persisted = witness.clone();
            let (mut compactions, mut restarts) = (0, 0);
            for _ in 0..4000 {
                let op = step() % 100;
                let key = step() % 257 + 1; // small space forces overwrites
                let loc = location(step());
                if op < 84 {
                    let mut table = store.table.lock();
                    if op < 50 {
                        let first = table.learn(key, loc);
                        assert_eq!(first, witness.insert(key, loc).is_none());
                    } else if op < 65 {
                        assert_eq!(table.forget(key), witness.remove(&key).is_some());
                    } else if op < 80 {
                        let named = witness.get(&key) == Some(&loc);
                        assert_eq!(table.forget_if(key, loc), named);
                        if named {
                            witness.remove(&key);
                        }
                    } else {
                        let before = witness.len();
                        witness.retain(|_, l| *l != loc);
                        assert_eq!(table.purge_location(loc), before - witness.len());
                    }
                } else if op < 97 {
                    compactions += usize::from(store.table.lock().compact_due);
                    store.persist();
                    persisted = witness.clone();
                } else {
                    // Crash and restart: what was not persisted is gone.
                    store = HintStore::open(ByteSize::from_mb(1), Some(&dir));
                    witness = persisted.clone();
                    restarts += 1;
                }
                let entries = store.entries();
                assert!(entries
                    .iter()
                    .copied()
                    .eq(witness.iter().map(|(&k, &l)| (k, l))));
            }
            assert!(compactions > 10 && restarts > 10, "seed {seed} is vacuous");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
