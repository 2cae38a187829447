//! The location-hint store (§3.2.1).
//!
//! A hint is an `(object, location)` pair naming the node that caches the
//! nearest known copy of an object. The paper's key implementation insight
//! is to store hints as **small, fixed-sized records** — an 8-byte hash of
//! the URL plus an 8-byte machine identifier, 16 bytes total — in a simple
//! array managed as a **4-way set-associative cache** indexed by the URL
//! hash. At that size a hint is ~3 orders of magnitude smaller than the
//! average 10 KB object, so a cache that dedicates 10% of its space to
//! hints can index ~two orders of magnitude more data than it stores.
//!
//! [`HintBank`] is that array for any number of nodes that share one
//! geometry, laid out `[set][node][way]`: the `ways` records one node keeps
//! for one set are adjacent (64 bytes at 4 ways), and the slices every node
//! keeps for the same set are adjacent too — one *row* of `nodes × ways`
//! records. A holder change that the metadata hierarchy delivers to every
//! node ([`HintBank::broadcast`]) is therefore one pass over one contiguous
//! row instead of one probe into each of `nodes` separate tables. Rows
//! live in fixed-size chunks and a row is allocated when its set is first
//! written; a set never written has no row and reads as a miss, so memory
//! follows the sets in use, not `nodes × capacity`.
//!
//! [`HintCache`] is the one-node bank: the bounded, set-associative store
//! with within-set LRU that a live cache node keeps. Both carry an
//! unbounded variant for the "infinite hint cache" end of Figure 5.

use bh_simcore::ByteSize;
use std::collections::HashMap;
use std::iter;
use std::ops::Range;

/// Size of one hint record on disk/in memory: 8-byte key + 8-byte location.
pub const HINT_RECORD_BYTES: u64 = 16;

/// Associativity of the bounded store (the paper uses 4).
pub const DEFAULT_WAYS: usize = 4;

/// One hint record, `[key, location]`: the 64-bit URL-hash key and the
/// opaque 64-bit machine identifier (IP + port in the prototype, node
/// index in the simulator). `key == 0` marks an empty slot, mirroring the
/// prototype's special hash value — which makes zeroed memory a run of
/// empty records, so the allocator's zeroed pages need no second pass.
pub type HintRecord = [u64; 2];

const KEY: usize = 0;
const LOCATION: usize = 1;
const EMPTY: HintRecord = [0, 0];

/// What [`set_insert`] did to the set.
enum Placed {
    /// The key was present; its location was overwritten.
    Updated,
    /// The key took an empty slot.
    Filled,
    /// The set was full; its least recently used record made way.
    Displaced,
}

// The set kernel: every operation on the `ways` records one node keeps for
// one set. Records are ordered most recently used first and live records
// are packed at the front, so the last slot is both the LRU victim and the
// first to fall empty.

fn set_find(set: &[HintRecord], key: u64) -> Option<usize> {
    set.iter().position(|r| r[KEY] == key)
}

/// Puts `record` at the front, shifting `set[..pos]` back over slot `pos`.
fn set_front(set: &mut [HintRecord], pos: usize, record: HintRecord) {
    // At most `ways - 1` records move: a loop, not a `memmove` call.
    for i in (0..pos).rev() {
        set[i + 1] = set[i];
    }
    set[0] = record;
}

fn set_lookup(set: &mut [HintRecord], key: u64) -> Option<u64> {
    let pos = set_find(set, key)?;
    let record = set[pos];
    if pos > 0 {
        set_front(set, pos, record);
    }
    Some(record[LOCATION])
}

#[inline(always)]
fn set_insert(set: &mut [HintRecord], key: u64, location: u64) -> Placed {
    // The key's own slot, else the first empty one, else the LRU's. Live
    // records precede empty slots, so the key cannot follow an empty one.
    let (mut pos, mut placed) = (set.len() - 1, Placed::Displaced);
    for (i, record) in set.iter().enumerate() {
        if record[KEY] == key {
            (pos, placed) = (i, Placed::Updated);
            break;
        }
        if record[KEY] == 0 {
            (pos, placed) = (i, Placed::Filled);
            break;
        }
    }
    set_front(set, pos, [key, location]);
    placed
}

#[inline(always)]
fn set_remove(set: &mut [HintRecord], key: u64) -> Option<u64> {
    let pos = set_find(set, key)?;
    let location = set[pos][LOCATION];
    set.copy_within(pos + 1.., pos);
    set[set.len() - 1] = EMPTY;
    Some(location)
}

/// Writes one holder change into `span`, the records of consecutive nodes
/// in one row, `ways` per node: the n-th node stores the n-th of `hints`
/// for `key`, or drops its record for `key` where that hint is `None`.
///
/// `set_insert` and `set_remove` are inlined here: called out of line, a
/// 64-node broadcast took 420 ns instead of 295 ns.
#[inline(always)]
fn span_write(
    span: &mut [HintRecord],
    ways: usize,
    counters: &mut [Counters],
    key: u64,
    hints: impl Iterator<Item = Option<u64>>,
) {
    for ((set, counters), hint) in span.chunks_exact_mut(ways).zip(counters).zip(hints) {
        match hint {
            Some(location) => counters.placed(set_insert(set, key, location)),
            None => {
                if set_remove(set, key).is_some() {
                    counters.len -= 1;
                }
            }
        }
    }
}

/// Drops every record naming `location`, keeping the survivors' LRU order.
fn set_purge(set: &mut [HintRecord], location: u64) -> usize {
    let mut kept = 0;
    let mut live = 0;
    while live < set.len() && set[live][KEY] != 0 {
        if set[live][LOCATION] != location {
            set[kept] = set[live];
            kept += 1;
        }
        live += 1;
    }
    set[kept..live].fill(EMPTY);
    live - kept
}

/// Record bytes per chunk of the row arena. Large enough that the
/// allocator serves a chunk straight from fresh zero pages, small enough
/// that the unused tail of the last chunk does not show in a run's peak.
const CHUNK_BYTES: usize = 1 << 20;

/// The bounded array, `[set][node][way]`. See the [module docs](self).
#[derive(Debug, Clone)]
struct Rows {
    sets: usize,
    ways: usize,
    nodes: usize,
    /// One past the arena row of each set; 0 = the set was never written.
    row_of_set: Vec<u32>,
    /// The row arena: every chunk holds `1 << chunk_rows_log2` rows and is
    /// never moved or resized, so no allocation grows with
    /// `nodes × capacity` and none is ever copied.
    chunks: Vec<Box<[HintRecord]>>,
    chunk_rows_log2: u32,
    /// Rows handed out so far.
    rows: usize,
}

impl Rows {
    fn new(nodes: usize, sets: usize, ways: usize) -> Rows {
        assert!(
            u32::try_from(sets).is_ok(),
            "hint store of {sets} sets exceeds the 32-bit row index"
        );
        let row_bytes = nodes * ways * HINT_RECORD_BYTES as usize;
        let chunk_rows = (CHUNK_BYTES / row_bytes).clamp(1, sets);
        Rows {
            sets,
            ways,
            nodes,
            row_of_set: vec![0; sets],
            chunks: Vec::new(),
            chunk_rows_log2: chunk_rows.next_power_of_two().trailing_zeros(),
            rows: 0,
        }
    }

    fn set_of(&self, key: u64) -> usize {
        (key % self.sets as u64) as usize
    }

    /// Chunk and offset within it of arena row `row`.
    fn position(&self, row: usize) -> (usize, usize) {
        let within = row & ((1 << self.chunk_rows_log2) - 1);
        (row >> self.chunk_rows_log2, within * self.nodes * self.ways)
    }

    /// Where the row of `set` lies, if it has one.
    fn locate(&self, set: usize) -> Option<(usize, usize)> {
        let row = (self.row_of_set[set] as usize).checked_sub(1)?;
        Some(self.position(row))
    }

    /// Gives `set`, which has no row, the next free one.
    fn allocate(&mut self, set: usize) -> (usize, usize) {
        let row = self.rows;
        if row >> self.chunk_rows_log2 == self.chunks.len() {
            let records = (self.nodes * self.ways) << self.chunk_rows_log2;
            self.chunks.push(vec![EMPTY; records].into_boxed_slice());
        }
        self.rows += 1;
        self.row_of_set[set] = self.rows as u32;
        self.position(row)
    }

    /// The records `nodes` keep in the row at `(chunk, row)`: `ways` per
    /// node, in node order.
    fn span_mut(&mut self, (chunk, row): (usize, usize), nodes: Range<usize>) -> &mut [HintRecord] {
        &mut self.chunks[chunk][row + nodes.start * self.ways..row + nodes.end * self.ways]
    }

    /// The records `node` keeps for `set`; `None` if the set has no row.
    fn get(&self, set: usize, node: usize) -> Option<&[HintRecord]> {
        let (chunk, row) = self.locate(set)?;
        Some(&self.chunks[chunk][row + node * self.ways..][..self.ways])
    }

    fn get_mut(&mut self, set: usize, node: usize) -> Option<&mut [HintRecord]> {
        self.locate(set).map(|at| self.span_mut(at, node..node + 1))
    }
}

#[derive(Debug, Clone)]
enum Store {
    SetAssoc(Rows),
    /// One map per node.
    Unbounded(Vec<HashMap<u64, u64>>),
}

#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    /// Records currently stored.
    len: usize,
    /// Lookups that found a record.
    hits: u64,
    /// Lookups that found nothing.
    misses: u64,
    /// Insertions that displaced a valid record (set overflow).
    displacements: u64,
}

impl Counters {
    fn placed(&mut self, placed: Placed) {
        match placed {
            Placed::Updated => {}
            Placed::Filled => self.len += 1,
            Placed::Displaced => self.displacements += 1,
        }
    }
}

/// The hint stores of `nodes` nodes in one array. See the
/// [module docs](self). Every per-node operation behaves exactly as it
/// would on that node's own [`HintCache`].
#[derive(Debug, Clone)]
pub struct HintBank {
    store: Store,
    counters: Vec<Counters>,
}

impl HintBank {
    /// Creates the bounded, 4-way set-associative stores of `nodes` nodes,
    /// each occupying at most `capacity` bytes at [`HINT_RECORD_BYTES`]
    /// per record.
    ///
    /// A capacity of [`ByteSize::MAX`] creates unbounded stores. Small
    /// capacities are rounded up to one full set.
    pub fn new(nodes: usize, capacity: ByteSize) -> Self {
        Self::with_ways(nodes, capacity, DEFAULT_WAYS)
    }

    /// Creates bounded stores with explicit associativity (for the
    /// associativity ablation; the paper's choice is 4).
    ///
    /// # Panics
    ///
    /// Panics if `nodes == 0` or `ways == 0`.
    pub fn with_ways(nodes: usize, capacity: ByteSize, ways: usize) -> Self {
        assert!(nodes > 0, "a hint bank needs at least one node");
        assert!(ways > 0, "associativity must be positive");
        let store = if capacity.is_unlimited() {
            Store::Unbounded(vec![HashMap::new(); nodes])
        } else {
            let entries = (capacity.as_bytes() / HINT_RECORD_BYTES).max(ways as u64) as usize;
            Store::SetAssoc(Rows::new(nodes, (entries / ways).max(1), ways))
        };
        HintBank {
            store,
            counters: vec![Counters::default(); nodes],
        }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.counters.len()
    }

    /// Number of records `node` currently stores.
    pub fn len(&self, node: usize) -> usize {
        self.counters[node].len
    }

    /// Maximum number of records per node (`None` if unbounded).
    pub fn capacity_records(&self) -> Option<usize> {
        match &self.store {
            Store::SetAssoc(rows) => Some(rows.sets * rows.ways),
            Store::Unbounded(_) => None,
        }
    }

    /// Record bytes the bank has allocated: whole chunks of rows for the
    /// bounded array (so at most one chunk beyond the rows written), live
    /// records for the unbounded maps. The set index of the bounded array
    /// (4 bytes per set, zero pages until written) is not counted.
    pub fn allocated_bytes(&self) -> u64 {
        let records: usize = match &self.store {
            Store::SetAssoc(rows) => rows.chunks.iter().map(|c| c.len()).sum(),
            Store::Unbounded(maps) => maps.iter().map(HashMap::len).sum(),
        };
        records as u64 * HINT_RECORD_BYTES
    }

    /// `node`'s lookups that found a record so far.
    pub fn hit_count(&self, node: usize) -> u64 {
        self.counters[node].hits
    }

    /// `node`'s lookups that found nothing so far.
    pub fn miss_count(&self, node: usize) -> u64 {
        self.counters[node].misses
    }

    /// `node`'s insertions that displaced a valid record so far.
    pub fn displacement_count(&self, node: usize) -> u64 {
        self.counters[node].displacements
    }

    /// Looks up `node`'s location hint for `key`, promoting it within its
    /// set.
    ///
    /// Keys of 0 are reserved for empty slots and always miss.
    pub fn lookup(&mut self, node: usize, key: u64) -> Option<u64> {
        let found = match &mut self.store {
            _ if key == 0 => None,
            Store::SetAssoc(rows) => rows
                .get_mut(rows.set_of(key), node)
                .and_then(|set| set_lookup(set, key)),
            Store::Unbounded(maps) => maps[node].get(&key).copied(),
        };
        let counters = &mut self.counters[node];
        match found {
            Some(_) => counters.hits += 1,
            None => counters.misses += 1,
        }
        found
    }

    /// Looks up without promoting or counting.
    pub fn peek(&self, node: usize, key: u64) -> Option<u64> {
        match &self.store {
            _ if key == 0 => None,
            Store::SetAssoc(rows) => {
                let set = rows.get(rows.set_of(key), node)?;
                set_find(set, key).map(|pos| set[pos][LOCATION])
            }
            Store::Unbounded(maps) => maps[node].get(&key).copied(),
        }
    }

    /// Inserts or updates `node`'s hint for `key`. In the bounded store the
    /// record lands at the front of its set, displacing the set's LRU
    /// record if the set is full.
    ///
    /// # Panics
    ///
    /// Panics if `key == 0` (reserved for empty slots).
    pub fn insert(&mut self, node: usize, key: u64, location: u64) {
        self.broadcast_to(node..node + 1, key, |_| Some(location));
    }

    /// Removes `node`'s hint for `key`; returns the stored location if
    /// present.
    pub fn remove(&mut self, node: usize, key: u64) -> Option<u64> {
        let removed = match &mut self.store {
            _ if key == 0 => None,
            Store::SetAssoc(rows) => rows
                .get_mut(rows.set_of(key), node)
                .and_then(|set| set_remove(set, key)),
            Store::Unbounded(maps) => maps[node].remove(&key),
        };
        if removed.is_some() {
            self.counters[node].len -= 1;
        }
        removed
    }

    /// Delivers one holder change to every node: node `n` stores
    /// `hint(n)` as its hint for `key`, or drops its hint where `hint(n)`
    /// is `None` — the same as [`HintBank::insert`] or
    /// [`HintBank::remove`] on each node in turn, in one pass over the
    /// key's row.
    ///
    /// # Panics
    ///
    /// Panics if `key == 0` (reserved for empty slots).
    pub fn broadcast(&mut self, key: u64, hint: impl FnMut(usize) -> Option<u64>) {
        self.broadcast_to(0..self.nodes(), key, hint);
    }

    /// [`HintBank::broadcast`] to `nodes` only: the row is located once and
    /// the nodes' slices of it are walked in one pass.
    fn broadcast_to(
        &mut self,
        nodes: Range<usize>,
        key: u64,
        mut hint: impl FnMut(usize) -> Option<u64>,
    ) {
        assert_ne!(key, 0, "hint key 0 is reserved");
        match &mut self.store {
            Store::SetAssoc(rows) => {
                let (set, ways, end) = (rows.set_of(key), rows.ways, nodes.end);
                let Some(at) = rows.locate(set) else {
                    // A set without a row holds no hint for anyone: the
                    // removals before the first insert are no-ops, and only
                    // that insert gives the set a row.
                    for node in nodes {
                        if let Some(location) = hint(node) {
                            let at = rows.allocate(set);
                            let hints = iter::once(Some(location)).chain((node + 1..end).map(hint));
                            let counters = &mut self.counters[node..end];
                            span_write(rows.span_mut(at, node..end), ways, counters, key, hints);
                            return;
                        }
                    }
                    return;
                };
                // `nodes` reaches this walk untouched, so the one-node walk
                // of `insert` compiles to straight-line code.
                let counters = &mut self.counters[nodes.clone()];
                let span = rows.span_mut(at, nodes.clone());
                span_write(span, ways, counters, key, nodes.map(hint));
            }
            Store::Unbounded(maps) => {
                for node in nodes {
                    let counters = &mut self.counters[node];
                    match hint(node) {
                        Some(location) => {
                            if maps[node].insert(key, location).is_none() {
                                counters.len += 1;
                            }
                        }
                        None => {
                            if maps[node].remove(&key).is_some() {
                                counters.len -= 1;
                            }
                        }
                    }
                }
            }
        }
    }

    /// Enumerates every live `(key, location)` record of `node`, in set
    /// order for the bounded store (deterministic) and sorted by key for
    /// the unbounded one (so snapshots compare stably across store kinds).
    pub fn entries(&self, node: usize) -> Vec<(u64, u64)> {
        match &self.store {
            Store::SetAssoc(rows) => (0..rows.sets)
                .filter_map(|set| rows.get(set, node))
                .flatten()
                .filter(|r| r[KEY] != 0)
                .map(|r| (r[KEY], r[LOCATION]))
                .collect(),
            Store::Unbounded(maps) => {
                let mut out: Vec<(u64, u64)> = maps[node].iter().map(|(&k, &l)| (k, l)).collect();
                out.sort_unstable();
                out
            }
        }
    }

    /// Drops every hint of `node` that names `location` — the stale-hint
    /// garbage collection a node runs when a peer is confirmed dead, so a
    /// departed machine's hints stop costing probes. Returns the number
    /// purged.
    ///
    /// One pass over the store: O(sets) for the bounded array, O(records)
    /// for the unbounded map — independent of request rate, which is what
    /// bounds a dead peer's total cost at O(1) per object.
    pub fn purge_location(&mut self, node: usize, location: u64) -> usize {
        let purged = match &mut self.store {
            Store::SetAssoc(rows) => (0..rows.sets)
                .map(|set| {
                    rows.get_mut(set, node)
                        .map_or(0, |s| set_purge(s, location))
                })
                .sum(),
            Store::Unbounded(maps) => {
                let before = maps[node].len();
                maps[node].retain(|_, &mut l| l != location);
                before - maps[node].len()
            }
        };
        self.counters[node].len -= purged;
        purged
    }
}

/// One node's hint store: the one-node [`HintBank`]. See the
/// [module docs](self).
#[derive(Debug, Clone)]
pub struct HintCache {
    bank: HintBank,
}

impl HintCache {
    /// Creates a bounded, 4-way set-associative store occupying at most
    /// `capacity` bytes at [`HINT_RECORD_BYTES`] per record.
    ///
    /// A capacity of [`ByteSize::MAX`] creates an unbounded store. Small
    /// capacities are rounded up to one full set.
    pub fn with_capacity(capacity: ByteSize) -> Self {
        Self::with_capacity_and_ways(capacity, DEFAULT_WAYS)
    }

    /// Creates a bounded store with explicit associativity (for the
    /// associativity ablation; the paper's choice is 4).
    ///
    /// # Panics
    ///
    /// Panics if `ways == 0`.
    pub fn with_capacity_and_ways(capacity: ByteSize, ways: usize) -> Self {
        HintCache {
            bank: HintBank::with_ways(1, capacity, ways),
        }
    }

    /// Creates an unbounded store (perfect hint index).
    pub fn unbounded() -> Self {
        Self::with_capacity(ByteSize::MAX)
    }

    /// Number of records currently stored.
    pub fn len(&self) -> usize {
        self.bank.len(0)
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum number of records (`None` if unbounded).
    pub fn capacity_records(&self) -> Option<usize> {
        self.bank.capacity_records()
    }

    /// Bytes this store occupies at 16 bytes/record (the *array* size for
    /// the bounded store, the live-record footprint for the unbounded one).
    pub fn footprint(&self) -> ByteSize {
        let records = self.capacity_records().unwrap_or(self.len());
        ByteSize::from_bytes(records as u64 * HINT_RECORD_BYTES)
    }

    /// Lookups that found a record so far.
    pub fn hit_count(&self) -> u64 {
        self.bank.hit_count(0)
    }

    /// Lookups that found nothing so far.
    pub fn miss_count(&self) -> u64 {
        self.bank.miss_count(0)
    }

    /// Insertions that displaced a valid record so far.
    pub fn displacement_count(&self) -> u64 {
        self.bank.displacement_count(0)
    }

    /// Looks up the location hint for `key`, promoting it within its set.
    ///
    /// Keys of 0 are reserved for empty slots and always miss.
    pub fn lookup(&mut self, key: u64) -> Option<u64> {
        self.bank.lookup(0, key)
    }

    /// Looks up without promoting or counting.
    pub fn peek(&self, key: u64) -> Option<u64> {
        self.bank.peek(0, key)
    }

    /// Inserts or updates the hint for `key`. In the bounded store the
    /// record lands at the front of its set, displacing the set's LRU
    /// record if the set is full.
    ///
    /// # Panics
    ///
    /// Panics if `key == 0` (reserved for empty slots).
    pub fn insert(&mut self, key: u64, location: u64) {
        self.bank.insert(0, key, location);
    }

    /// Enumerates every live `(key, location)` record, in set order for the
    /// bounded store (deterministic) and sorted by key for the unbounded one
    /// (so snapshots compare stably across store kinds).
    pub fn entries(&self) -> Vec<(u64, u64)> {
        self.bank.entries(0)
    }

    /// Drops every hint that names `location`; see
    /// [`HintBank::purge_location`]. Returns the number purged.
    pub fn purge_location(&mut self, location: u64) -> usize {
        self.bank.purge_location(0, location)
    }

    /// Removes the hint for `key`; returns the stored location if present.
    pub fn remove(&mut self, key: u64) -> Option<u64> {
        self.bank.remove(0, key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_size_is_sixteen_bytes() {
        assert_eq!(HINT_RECORD_BYTES, 16);
        assert_eq!(std::mem::size_of::<HintRecord>() as u64, HINT_RECORD_BYTES);
    }

    #[test]
    fn capacity_math() {
        // 1 MB of hints = 65536 records, as the paper's sizing arithmetic has it.
        let h = HintCache::with_capacity(ByteSize::from_mb(1));
        assert_eq!(h.capacity_records(), Some(65_536));
        assert_eq!(h.footprint(), ByteSize::from_mb(1));
        assert!(HintCache::unbounded().capacity_records().is_none());
    }

    #[test]
    fn insert_lookup_remove() {
        let mut h = HintCache::with_capacity(ByteSize::from_kb(1));
        assert_eq!(h.lookup(5), None);
        h.insert(5, 100);
        assert_eq!(h.lookup(5), Some(100));
        assert_eq!(h.len(), 1);
        h.insert(5, 200); // update in place
        assert_eq!(h.lookup(5), Some(200));
        assert_eq!(h.len(), 1);
        assert_eq!(h.remove(5), Some(200));
        assert_eq!(h.remove(5), None);
        assert!(h.is_empty());
    }

    #[test]
    fn set_overflow_displaces_lru() {
        // One set of 4 ways: capacity 64 bytes.
        let mut h = HintCache::with_capacity(ByteSize::from_bytes(64));
        assert_eq!(h.capacity_records(), Some(4));
        // All keys land in the single set.
        for k in 1..=4u64 {
            h.insert(k, k * 10);
        }
        assert_eq!(h.len(), 4);
        // Touch key 1 so it is MRU; key 2 becomes LRU.
        assert_eq!(h.lookup(1), Some(10));
        h.insert(5, 50);
        assert_eq!(h.displacement_count(), 1);
        assert_eq!(h.peek(2), None, "LRU record displaced");
        assert_eq!(h.peek(1), Some(10));
        assert_eq!(h.peek(5), Some(50));
    }

    #[test]
    fn hot_keys_survive_with_associativity() {
        // The paper keeps "a modest amount of associativity to guard against
        // several hot URLs landing in the same hash bucket".
        let mut h = HintCache::with_capacity(ByteSize::from_bytes(64)); // 1 set × 4 ways
        h.insert(1, 11);
        h.insert(2, 22);
        for cold in 100..120u64 {
            h.insert(cold, cold);
            // Keep the two hot keys touched.
            assert_eq!(h.lookup(1), Some(11));
            assert_eq!(h.lookup(2), Some(22));
        }
        assert_eq!(h.peek(1), Some(11));
        assert_eq!(h.peek(2), Some(22));
    }

    #[test]
    fn zero_key_reserved() {
        let mut h = HintCache::with_capacity(ByteSize::from_kb(1));
        assert_eq!(h.lookup(0), None);
        assert_eq!(h.remove(0), None);
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn zero_key_insert_panics() {
        HintCache::with_capacity(ByteSize::from_kb(1)).insert(0, 1);
    }

    #[test]
    fn unbounded_stores_everything() {
        let mut h = HintCache::unbounded();
        for k in 1..=100_000u64 {
            h.insert(k, k);
        }
        assert_eq!(h.len(), 100_000);
        for k in 1..=100_000u64 {
            assert_eq!(h.peek(k), Some(k));
        }
        assert_eq!(h.displacement_count(), 0);
    }

    #[test]
    fn stats_counters() {
        let mut h = HintCache::with_capacity(ByteSize::from_kb(1));
        h.insert(3, 30);
        h.lookup(3);
        h.lookup(4);
        assert_eq!(h.hit_count(), 1);
        assert_eq!(h.miss_count(), 1);
    }

    #[test]
    fn remove_compacts_set() {
        let mut h = HintCache::with_capacity(ByteSize::from_bytes(64));
        for k in 1..=4u64 {
            h.insert(k, k);
        }
        h.remove(4); // was at front (MRU)
        h.insert(9, 9);
        assert_eq!(h.len(), 4);
        for k in [1u64, 2, 3, 9] {
            assert_eq!(h.peek(k), Some(k), "key {k} must survive");
        }
    }

    /// Rows the bank has handed out.
    fn rows_in_use(bank: &HintBank) -> usize {
        match &bank.store {
            Store::SetAssoc(rows) => rows.rows,
            Store::Unbounded(_) => 0,
        }
    }

    /// Every counter of every node: `(len, hits, misses, displacements)`.
    fn counters(bank: &HintBank) -> Vec<(usize, u64, u64, u64)> {
        (0..bank.nodes())
            .map(|n| {
                let c = bank.counters[n];
                (c.len, c.hits, c.misses, c.displacements)
            })
            .collect()
    }

    #[test]
    fn removals_sent_to_a_set_without_a_row_allocate_nothing() {
        // 64 nodes × 64 sets × 4 ways.
        let mut bank = HintBank::new(64, ByteSize::from_kb(4));
        for node in 0..64 {
            assert_eq!(bank.lookup(node, 7), None);
        }
        let before = counters(&bank);
        bank.broadcast(7, |_| None);
        assert_eq!(bank.allocated_bytes(), 0);
        assert_eq!(rows_in_use(&bank), 0);
        assert_eq!(counters(&bank), before);

        // The same once another set has a row.
        bank.insert(5, 65, 1);
        let (before, allocated) = (counters(&bank), bank.allocated_bytes());
        bank.broadcast(7, |_| None);
        assert_eq!(rows_in_use(&bank), 1);
        assert_eq!(bank.allocated_bytes(), allocated);
        assert_eq!(counters(&bank), before);
    }

    #[test]
    fn leading_removals_then_an_insert_allocate_exactly_one_row() {
        let mut bank = HintBank::new(64, ByteSize::from_kb(4));
        for node in 0..64 {
            bank.insert(node, 65, 1); // set 1: one record per node
        }
        assert_eq!(rows_in_use(&bank), 1);
        // Set 3: nodes 0–39 drop a hint they never had, 40–63 store one.
        bank.broadcast(3, |node| (node >= 40).then_some(node as u64));
        assert_eq!(rows_in_use(&bank), 2);
        for node in 0..64 {
            let stored = (node >= 40).then_some(node as u64);
            assert_eq!(
                bank.len(node),
                1 + usize::from(stored.is_some()),
                "node {node}"
            );
            assert_eq!(bank.peek(node, 3), stored, "node {node}");
            assert_eq!(bank.peek(node, 65), Some(1), "node {node}");
        }
    }

    #[test]
    fn an_insert_changes_only_its_own_nodes_entries() {
        // 64 nodes × 1,024 sets × 4 ways; keys 1..=200 give sets 1–200 a row.
        let mut bank = HintBank::new(64, ByteSize::from_kb(64));
        for key in 1..=200u64 {
            bank.broadcast(key, |node| {
                (!(key + node as u64).is_multiple_of(3)).then_some(node as u64 ^ key)
            });
        }
        // A key with a record at some nodes, a new key in a set with a row,
        // and a key whose set has no row yet.
        for key in [5u64, 5 + 3 * 1024, 904] {
            for n in [0, 1, 31, 62, 63] {
                let before: Vec<_> = (0..64).map(|m| bank.entries(m)).collect();
                bank.insert(n, key, 99);
                for (m, entries) in before.iter().enumerate() {
                    if m != n {
                        assert_eq!(&bank.entries(m), entries, "node {m} after insert at {n}");
                    }
                }
                assert_eq!(bank.peek(n, key), Some(99));
                assert!(bank.entries(n).contains(&(key, 99)));
            }
        }
    }

    mod props {
        use super::*;
        use proptest::prelude::*;
        use std::collections::HashMap;

        /// The reference store: each set a most-recently-used-first list of
        /// at most `ways` records, written without the kernel's in-place
        /// shifting.
        struct Witness {
            ways: usize,
            sets: Vec<Vec<(u64, u64)>>,
            displaced: u64,
            hits: u64,
            misses: u64,
        }

        impl Witness {
            fn new(sets: usize, ways: usize) -> Self {
                Witness {
                    ways,
                    sets: vec![Vec::new(); sets],
                    displaced: 0,
                    hits: 0,
                    misses: 0,
                }
            }

            fn set(&mut self, key: u64) -> &mut Vec<(u64, u64)> {
                let sets = self.sets.len() as u64;
                &mut self.sets[(key % sets) as usize]
            }

            fn take(&mut self, key: u64) -> Option<u64> {
                let set = self.set(key);
                let pos = set.iter().position(|&(k, _)| k == key)?;
                Some(set.remove(pos).1)
            }

            fn peek(&self, key: u64) -> Option<u64> {
                let set = &self.sets[(key % self.sets.len() as u64) as usize];
                set.iter().find(|&&(k, _)| k == key).map(|&(_, l)| l)
            }

            fn lookup(&mut self, key: u64) -> Option<u64> {
                let found = self.take(key);
                match found {
                    Some(l) => {
                        self.set(key).insert(0, (key, l));
                        self.hits += 1;
                    }
                    None => self.misses += 1,
                }
                found
            }

            fn insert(&mut self, key: u64, location: u64) {
                self.take(key);
                let ways = self.ways;
                let set = self.set(key);
                set.insert(0, (key, location));
                if set.len() > ways {
                    set.pop();
                    self.displaced += 1;
                }
            }

            fn remove(&mut self, key: u64) -> Option<u64> {
                self.take(key)
            }

            fn purge_location(&mut self, location: u64) -> usize {
                let before = self.entries().len();
                for set in &mut self.sets {
                    set.retain(|&(_, l)| l != location);
                }
                before - self.entries().len()
            }

            fn entries(&self) -> Vec<(u64, u64)> {
                self.sets.iter().flatten().copied().collect()
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The bounded store is a lossy map: every lookup that returns a
            /// value returns the *most recently inserted* value for that key.
            #[test]
            fn never_returns_stale_locations(
                ops in proptest::collection::vec((1u64..100, 0u64..1000), 1..400)
            ) {
                let mut h = HintCache::with_capacity(ByteSize::from_bytes(256));
                let mut truth: HashMap<u64, u64> = HashMap::new();
                for (key, loc) in ops {
                    h.insert(key, loc);
                    truth.insert(key, loc);
                    if let Some(found) = h.peek(key) {
                        prop_assert_eq!(found, truth[&key]);
                    } else {
                        prop_assert!(false, "just-inserted key must be present");
                    }
                }
                // Anything still present must agree with the truth map.
                for k in 1u64..100 {
                    if let Some(found) = h.peek(k) {
                        prop_assert_eq!(Some(found), truth.get(&k).copied());
                    }
                }
            }

            /// A bank of N nodes is N independent stores: under any mix of
            /// per-node and broadcast operations every return value, every
            /// node's `entries()`, length and displacement count equal those
            /// of the naive per-node witness.
            #[test]
            fn bank_equals_independent_witness_stores(
                nodes_pick in 0usize..3,
                ways in 1usize..=8,
                sets in 1usize..=5,
                ops in proptest::collection::vec(
                    (0u8..6, 0usize..64, 1u64..40, 0u64..6, any::<u64>()),
                    1..250,
                ),
            ) {
                let nodes = [1usize, 3, 64][nodes_pick];
                let capacity = ByteSize::from_bytes((sets * ways) as u64 * HINT_RECORD_BYTES);
                let mut bank = HintBank::with_ways(nodes, capacity, ways);
                prop_assert_eq!(bank.capacity_records(), Some(sets * ways));
                let mut witness: Vec<Witness> = (0..nodes).map(|_| Witness::new(sets, ways)).collect();
                let mut rows_written = std::collections::HashSet::new();
                for (op, node, key, location, mask) in ops {
                    let node = node % nodes;
                    // Node `n`'s share of a broadcast: a hint that varies by
                    // node, or a removal where its mask bit is clear.
                    let hint = |n: usize| (mask >> (n % 64) & 1 == 1).then_some(location + n as u64 % 3);
                    match op {
                        0 => prop_assert_eq!(bank.lookup(node, key), witness[node].lookup(key)),
                        1 => {
                            bank.insert(node, key, location);
                            witness[node].insert(key, location);
                            rows_written.insert(key as usize % sets);
                        }
                        2 => prop_assert_eq!(bank.remove(node, key), witness[node].remove(key)),
                        3 => {
                            bank.broadcast(key, hint);
                            for (n, w) in witness.iter_mut().enumerate() {
                                match hint(n) {
                                    Some(l) => {
                                        w.insert(key, l);
                                        rows_written.insert(key as usize % sets);
                                    }
                                    None => {
                                        w.remove(key);
                                    }
                                }
                            }
                        }
                        4 => prop_assert_eq!(
                            bank.purge_location(node, location),
                            witness[node].purge_location(location)
                        ),
                        _ => prop_assert_eq!(bank.peek(node, key), witness[node].peek(key)),
                    }
                }
                for (n, w) in witness.iter().enumerate() {
                    prop_assert_eq!((n, bank.entries(n)), (n, w.entries()));
                    prop_assert_eq!(bank.len(n), w.entries().len());
                    prop_assert_eq!(bank.displacement_count(n), w.displaced);
                    prop_assert_eq!(bank.hit_count(n), w.hits);
                    prop_assert_eq!(bank.miss_count(n), w.misses);
                }
                // Rows exist only for sets some insert reached, in whole
                // chunks of at most `sets` rows.
                let row_bytes = (nodes * ways) as u64 * HINT_RECORD_BYTES;
                prop_assert!(bank.allocated_bytes() >= rows_written.len() as u64 * row_bytes);
                if rows_written.is_empty() {
                    prop_assert_eq!(bank.allocated_bytes(), 0);
                }
            }

            /// len() never exceeds capacity and matches live slots.
            #[test]
            fn len_bounded(ops in proptest::collection::vec((1u64..50, 0u64..10), 1..200),
                           ways in 1usize..8) {
                let mut h = HintCache::with_capacity_and_ways(ByteSize::from_bytes(320), ways);
                let cap = h.capacity_records().unwrap();
                for (key, loc) in ops {
                    h.insert(key, loc);
                    prop_assert!(h.len() <= cap);
                }
            }
        }
    }
}
