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
//! [`HintCache`] is that array as a live cache node keeps it: 16-byte
//! `[key, location]` records with within-set LRU.
//!
//! [`HintBank`] holds the stores of every node of a simulated system that
//! share one geometry, and keeps only *which* objects each node holds: a
//! 4-byte object slot per way, laid out `[set][node][way]`, so the slots
//! all nodes keep for one set form one contiguous *row* of `nodes × ways`
//! slots. The metadata hierarchy delivers every holder change to every
//! node ([`HintBank::broadcast_insert`], [`HintBank::broadcast_remove`]),
//! so a node that still holds an object holds the location its last
//! delivered holder set gave it; the caller keeps that set once per object
//! and resolves the location at lookup.
//!
//! A delivered change lands at the front of every node's ways, so after a
//! broadcast every node holds the same slot at way 0, and a second change
//! of the same object finds nothing to move. The bank keeps one *shared
//! word* per set for that case. **Invariant:** a nonzero shared word is the
//! slot every node holds at way 0 of the set (so the set has a row); 0
//! claims nothing. A `broadcast_insert` of the slot the word names returns
//! without walking the row, which is exactly what the walk would do: each
//! node finds the slot at way 0 and changes neither its ways nor its
//! counters. A walking `broadcast_insert` sets the word; a `lookup`,
//! `remove` or `broadcast_remove` clears it only when it changes some
//! node's way 0.
//!
//! Both keep their rows in fixed-size chunks. A set gets a row when it is
//! written, and a removal that walks the whole row and leaves it empty
//! hands the row back for the next new set; a set without a row reads as a
//! miss. So memory follows the most sets in use at once, not every set
//! ever written and not `nodes × capacity`.
//!
//! One set kernel — find, move-to-front, insert-or-displace, remove over
//! the `ways` entries of one set — serves both, generic over what a way
//! holds. Both carry an unbounded variant for the "infinite hint cache"
//! end of Figure 5.

use bh_simcore::ByteSize;
use std::collections::{HashMap, HashSet};
use std::mem::size_of;

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

/// What one way of a set holds: a [`HintRecord`] in a [`HintCache`], an
/// object slot in a [`HintBank`]. The kernel finds an entry by its id, and
/// an id of 0 marks an empty way.
trait Entry: Copy + PartialEq {
    const EMPTY: Self;
    fn id(self) -> u64;
}

impl Entry for HintRecord {
    const EMPTY: Self = [0, 0];
    fn id(self) -> u64 {
        self[KEY]
    }
}

impl Entry for u32 {
    const EMPTY: Self = 0;
    fn id(self) -> u64 {
        u64::from(self)
    }
}

/// What [`set_insert`] did to the set.
enum Placed {
    /// The entry was present; it was overwritten.
    Updated,
    /// The entry took an empty way.
    Filled,
    /// The set was full; its least recently used entry made way.
    Displaced,
}

// The set kernel: every operation on the `ways` entries one node keeps for
// one set. Entries are ordered most recently used first and live entries
// are packed at the front, so the last way is both the LRU victim and the
// first to fall empty.

fn set_find<E: Entry>(set: &[E], id: u64) -> Option<usize> {
    set.iter().position(|e| e.id() == id)
}

/// Puts `entry` at the front, shifting `set[..pos]` back over way `pos`.
fn set_front<E: Entry>(set: &mut [E], pos: usize, entry: E) {
    // At most `ways - 1` entries move: a loop, not a `memmove` call.
    for i in (0..pos).rev() {
        set[i + 1] = set[i];
    }
    set[0] = entry;
}

fn set_lookup<E: Entry>(set: &mut [E], id: u64) -> Option<E> {
    let pos = set_find(set, id)?;
    let entry = set[pos];
    if pos > 0 {
        set_front(set, pos, entry);
    }
    Some(entry)
}

#[inline(always)]
fn set_insert<E: Entry>(set: &mut [E], entry: E) -> Placed {
    // The entry's own way, else the first empty one, else the LRU's. Live
    // entries precede empty ways, so the entry cannot follow an empty one.
    let (mut pos, mut placed) = (set.len() - 1, Placed::Displaced);
    for (i, e) in set.iter().enumerate() {
        if e.id() == entry.id() {
            (pos, placed) = (i, Placed::Updated);
            break;
        }
        if e.id() == 0 {
            (pos, placed) = (i, Placed::Filled);
            break;
        }
    }
    set_front(set, pos, entry);
    placed
}

#[inline(always)]
fn set_remove<E: Entry>(set: &mut [E], id: u64) -> Option<E> {
    let pos = set_find(set, id)?;
    let entry = set[pos];
    set.copy_within(pos + 1.., pos);
    set[set.len() - 1] = E::EMPTY;
    Some(entry)
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
    set[kept..live].fill(HintRecord::EMPTY);
    live - kept
}

/// Bytes per chunk of the row arena. Large enough that the allocator
/// serves a chunk straight from fresh zero pages, small enough that the
/// unused tail of the last chunk does not show in a run's peak.
const CHUNK_BYTES: usize = 1 << 20;

/// The bounded array, `[set][node][way]`. See the [module docs](self).
#[derive(Debug, Clone)]
struct Rows<E> {
    sets: usize,
    ways: usize,
    nodes: usize,
    /// One past the arena row of each set; 0 = the set has no row.
    row_of_set: Vec<u32>,
    /// The row arena: every chunk holds `1 << chunk_rows_log2` rows and is
    /// never moved or resized, so no allocation grows with
    /// `nodes × capacity` and none is ever copied.
    chunks: Vec<Box<[E]>>,
    chunk_rows_log2: u32,
    /// Rows carved from the chunks so far.
    rows: usize,
    /// Carved rows that no set holds, every entry empty: `allocate` takes
    /// one of these before it carves a new row.
    free: Vec<u32>,
}

impl<E: Entry> Rows<E> {
    fn new(nodes: usize, sets: usize, ways: usize) -> Self {
        assert!(
            u32::try_from(sets).is_ok(),
            "hint store of {sets} sets exceeds the 32-bit row index"
        );
        let row_bytes = nodes * ways * size_of::<E>();
        let chunk_rows = (CHUNK_BYTES / row_bytes).clamp(1, sets);
        Rows {
            sets,
            ways,
            nodes,
            row_of_set: vec![0; sets],
            chunks: Vec::new(),
            chunk_rows_log2: chunk_rows.next_power_of_two().trailing_zeros(),
            rows: 0,
            free: Vec::new(),
        }
    }

    fn set_of(&self, key: u64) -> usize {
        (key % self.sets as u64) as usize
    }

    fn row_len(&self) -> usize {
        self.nodes * self.ways
    }

    /// Chunk and offset within it of arena row `row`.
    fn position(&self, row: usize) -> (usize, usize) {
        let within = row & ((1 << self.chunk_rows_log2) - 1);
        (row >> self.chunk_rows_log2, within * self.row_len())
    }

    /// Where the row of `set` lies, if it has one.
    fn locate(&self, set: usize) -> Option<(usize, usize)> {
        let row = (self.row_of_set[set] as usize).checked_sub(1)?;
        Some(self.position(row))
    }

    /// Gives `set`, which has no row, a freed row, else the next new one.
    fn allocate(&mut self, set: usize) -> (usize, usize) {
        let row = match self.free.pop() {
            Some(row) => row as usize,
            None => {
                let row = self.rows;
                if row >> self.chunk_rows_log2 == self.chunks.len() {
                    let entries = self.row_len() << self.chunk_rows_log2;
                    self.chunks.push(vec![E::EMPTY; entries].into_boxed_slice());
                }
                self.rows += 1;
                row
            }
        };
        self.row_of_set[set] = row as u32 + 1;
        let at = self.position(row);
        debug_assert!(
            self.row_at(at).iter().all(|&e| e == E::EMPTY),
            "a freed row holds entries"
        );
        at
    }

    /// Takes the row of `set` back for reuse. Every entry in it is empty:
    /// live entries are packed at the front of a node's ways, so the row
    /// is empty once each node's first way is.
    fn release(&mut self, set: usize) {
        let row = self.row_of_set[set] - 1;
        self.row_of_set[set] = 0;
        self.free.push(row);
    }

    /// The row at `(chunk, offset)`: `ways` entries per node, in node order.
    fn row_at(&mut self, (chunk, at): (usize, usize)) -> &mut [E] {
        let len = self.row_len();
        &mut self.chunks[chunk][at..at + len]
    }

    /// The row of `set`, if it has one.
    fn row_mut(&mut self, set: usize) -> Option<&mut [E]> {
        let at = self.locate(set)?;
        Some(self.row_at(at))
    }

    /// The row of `set`, which is given one if it has none.
    fn row_or_allocate(&mut self, set: usize) -> &mut [E] {
        let at = self.locate(set).unwrap_or_else(|| self.allocate(set));
        self.row_at(at)
    }

    /// The entries `node` keeps for `set`; `None` if the set has no row.
    fn get(&self, set: usize, node: usize) -> Option<&[E]> {
        let (chunk, at) = self.locate(set)?;
        Some(&self.chunks[chunk][at + node * self.ways..][..self.ways])
    }

    fn get_mut(&mut self, set: usize, node: usize) -> Option<&mut [E]> {
        let ways = self.ways;
        self.row_mut(set).map(|row| &mut row[node * ways..][..ways])
    }

    /// Bytes of every chunk carved.
    fn allocated_bytes(&self) -> u64 {
        let entries: usize = self.chunks.iter().map(|c| c.len()).sum();
        (entries * size_of::<E>()) as u64
    }
}

/// A bounded array of `E`, or the unbounded variant `M`.
#[derive(Debug, Clone)]
enum Store<E, M> {
    SetAssoc(Rows<E>),
    Unbounded(M),
}

impl<E: Entry, M> Store<E, M> {
    /// The stores of `nodes` nodes, each of `capacity` bytes at
    /// [`HINT_RECORD_BYTES`] per record, whatever an entry's size in memory.
    fn new(nodes: usize, capacity: ByteSize, ways: usize, unbounded: impl FnOnce() -> M) -> Self {
        assert!(nodes > 0, "a hint store needs at least one node");
        assert!(ways > 0, "associativity must be positive");
        if capacity.is_unlimited() {
            Store::Unbounded(unbounded())
        } else {
            let entries = (capacity.as_bytes() / HINT_RECORD_BYTES).max(ways as u64) as usize;
            Store::SetAssoc(Rows::new(nodes, (entries / ways).max(1), ways))
        }
    }

    fn capacity_records(&self) -> Option<usize> {
        match self {
            Store::SetAssoc(rows) => Some(rows.sets * rows.ways),
            Store::Unbounded(_) => None,
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    /// Entries currently stored.
    len: usize,
    /// Lookups that found an entry.
    hits: u64,
    /// Lookups that found nothing.
    misses: u64,
    /// Insertions that displaced a valid entry (set overflow).
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

    fn looked_up(&mut self, found: bool) {
        if found {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
    }
}

/// Which objects each of `nodes` simulated nodes holds a hint for, in one
/// array. See the [module docs](self).
///
/// An object is named by its *slot*, a nonzero `u32` the caller assigns
/// one to one with its 64-bit key; the key picks the set (`key % sets`,
/// as in [`HintCache`]) and the slot is what a way stores. Every per-node
/// operation places, finds, promotes, displaces and counts exactly as the
/// same operation on that node's own [`HintCache`] does for the key.
#[derive(Debug, Clone)]
pub struct HintBank {
    store: Store<u32, Vec<HashSet<u32>>>,
    /// The bounded array's shared word per set: the slot every node holds
    /// at way 0, or 0 (see the [module docs](self)). Empty for the
    /// unbounded stores.
    shared: Vec<u32>,
    counters: Vec<Counters>,
    /// Broadcasts that walked every node's entries for their key.
    row_walks: u64,
}

impl HintBank {
    /// Creates the bounded, 4-way set-associative stores of `nodes` nodes,
    /// each of `capacity` bytes at [`HINT_RECORD_BYTES`] per record.
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
        let store = Store::new(nodes, capacity, ways, || vec![HashSet::new(); nodes]);
        let shared = match &store {
            Store::SetAssoc(rows) => vec![0; rows.sets],
            Store::Unbounded(_) => Vec::new(),
        };
        HintBank {
            store,
            shared,
            counters: vec![Counters::default(); nodes],
            row_walks: 0,
        }
    }

    /// Number of objects `node` currently holds a hint for.
    pub fn len(&self, node: usize) -> usize {
        self.counters[node].len
    }

    /// Maximum number of records per node (`None` if unbounded).
    pub fn capacity_records(&self) -> Option<usize> {
        self.store.capacity_records()
    }

    /// Bytes the bank has allocated for slots: whole chunks of rows for the
    /// bounded array (so at most one chunk beyond the most rows held at
    /// once), live slots for the unbounded sets. The set index of the
    /// bounded array (4 bytes per set, zero pages until written) is not
    /// counted.
    pub fn allocated_bytes(&self) -> u64 {
        match &self.store {
            Store::SetAssoc(rows) => rows.allocated_bytes(),
            Store::Unbounded(sets) => {
                let slots: usize = sets.iter().map(HashSet::len).sum();
                (slots * size_of::<u32>()) as u64
            }
        }
    }

    /// `node`'s lookups that found a hint so far.
    pub fn hit_count(&self, node: usize) -> u64 {
        self.counters[node].hits
    }

    /// `node`'s lookups that found nothing so far.
    pub fn miss_count(&self, node: usize) -> u64 {
        self.counters[node].misses
    }

    /// `node`'s insertions that displaced a valid hint so far.
    pub fn displacement_count(&self, node: usize) -> u64 {
        self.counters[node].displacements
    }

    /// Broadcasts so far that walked every node's entries for their key: a
    /// `broadcast_insert` the shared word did not answer, a
    /// `broadcast_remove` that reached a row (every one, for the unbounded
    /// stores).
    pub fn row_walk_count(&self) -> u64 {
        self.row_walks
    }

    /// Whether `node` holds a hint for the object `slot` (key `key`),
    /// promoting it within its set.
    ///
    /// Slot 0 is reserved for empty ways and always misses.
    pub fn lookup(&mut self, node: usize, key: u64, slot: u32) -> bool {
        let found = match &mut self.store {
            _ if slot == 0 => false,
            Store::SetAssoc(rows) => {
                let set = rows.set_of(key);
                let found = rows
                    .get_mut(set, node)
                    .and_then(|ways| set_lookup(ways, slot.id()))
                    .is_some();
                // A hit on a slot the word does not name was behind way 0
                // and has just moved to the front.
                if found && self.shared[set] != slot {
                    self.shared[set] = 0;
                }
                found
            }
            Store::Unbounded(sets) => sets[node].contains(&slot),
        };
        self.counters[node].looked_up(found);
        found
    }

    /// Drops `node`'s hint for the object `slot` (key `key`); returns
    /// whether it held one.
    pub fn remove(&mut self, node: usize, key: u64, slot: u32) -> bool {
        let removed = match &mut self.store {
            _ if slot == 0 => false,
            Store::SetAssoc(rows) => {
                let set = rows.set_of(key);
                // The slot the word names is at this node's way 0.
                if self.shared[set] == slot {
                    self.shared[set] = 0;
                }
                rows.get_mut(set, node)
                    .and_then(|ways| set_remove(ways, slot.id()))
                    .is_some()
            }
            Store::Unbounded(sets) => sets[node].remove(&slot),
        };
        if removed {
            self.counters[node].len -= 1;
        }
        removed
    }

    /// Delivers a holder change that leaves copies of the object `slot`
    /// (key `key`) to every node: each node's hint moves to the front of
    /// its set, displacing the set's LRU hint if the set is full. One pass
    /// over the key's row, which is allocated here if the set has none —
    /// or none at all if the set's shared word already names the slot.
    ///
    /// # Panics
    ///
    /// Panics if `slot == 0` (reserved for empty ways).
    pub fn broadcast_insert(&mut self, key: u64, slot: u32) {
        assert_ne!(slot, 0, "hint slot 0 is reserved");
        match &mut self.store {
            Store::SetAssoc(rows) => {
                let (ways, set) = (rows.ways, rows.set_of(key));
                if self.shared[set] == slot {
                    debug_assert!(
                        (0..rows.nodes).all(|n| rows.get(set, n).is_some_and(|w| w[0] == slot)),
                        "the shared word names slot {slot}, which a node lacks at way 0"
                    );
                    return;
                }
                self.row_walks += 1;
                let row = rows.row_or_allocate(set);
                for (entries, counters) in row.chunks_exact_mut(ways).zip(&mut self.counters) {
                    counters.placed(set_insert(entries, slot));
                }
                self.shared[set] = slot;
            }
            Store::Unbounded(sets) => {
                self.row_walks += 1;
                for (set, counters) in sets.iter_mut().zip(&mut self.counters) {
                    if set.insert(slot) {
                        counters.len += 1;
                    }
                }
            }
        }
    }

    /// Delivers the last copy of the object `slot` (key `key`) going away:
    /// every node drops its hint. A set without a row holds no hint, so
    /// this allocates nothing; a row this leaves empty is freed.
    pub fn broadcast_remove(&mut self, key: u64, slot: u32) {
        match &mut self.store {
            _ if slot == 0 => {}
            Store::SetAssoc(rows) => {
                let (ways, set) = (rows.ways, rows.set_of(key));
                let Some(row) = rows.row_mut(set) else {
                    return;
                };
                self.row_walks += 1;
                if self.shared[set] == slot {
                    self.shared[set] = 0;
                }
                let mut held = false;
                for (entries, counters) in row.chunks_exact_mut(ways).zip(&mut self.counters) {
                    if set_remove(entries, slot.id()).is_some() {
                        counters.len -= 1;
                    }
                    held |= entries[0] != 0;
                }
                if !held {
                    rows.release(set);
                }
            }
            Store::Unbounded(sets) => {
                self.row_walks += 1;
                for (set, counters) in sets.iter_mut().zip(&mut self.counters) {
                    if set.remove(&slot) {
                        counters.len -= 1;
                    }
                }
            }
        }
    }
}

/// One node's hint store of 16-byte `[key, location]` records. See the
/// [module docs](self).
#[derive(Debug, Clone)]
pub struct HintCache {
    store: Store<HintRecord, HashMap<u64, u64>>,
    counters: Counters,
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
            store: Store::new(1, capacity, ways, HashMap::new),
            counters: Counters::default(),
        }
    }

    /// Creates an unbounded store (perfect hint index).
    pub fn unbounded() -> Self {
        Self::with_capacity(ByteSize::MAX)
    }

    /// Number of records currently stored.
    pub fn len(&self) -> usize {
        self.counters.len
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum number of records (`None` if unbounded).
    pub fn capacity_records(&self) -> Option<usize> {
        self.store.capacity_records()
    }

    /// Lookups that found a record so far.
    pub fn hit_count(&self) -> u64 {
        self.counters.hits
    }

    /// Lookups that found nothing so far.
    pub fn miss_count(&self) -> u64 {
        self.counters.misses
    }

    /// Insertions that displaced a valid record so far.
    pub fn displacement_count(&self) -> u64 {
        self.counters.displacements
    }

    /// Looks up the location hint for `key`, promoting it within its set.
    ///
    /// Keys of 0 are reserved for empty slots and always miss.
    pub fn lookup(&mut self, key: u64) -> Option<u64> {
        let found = match &mut self.store {
            _ if key == 0 => None,
            Store::SetAssoc(rows) => rows
                .get_mut(rows.set_of(key), 0)
                .and_then(|set| set_lookup(set, key))
                .map(|r| r[LOCATION]),
            Store::Unbounded(map) => map.get(&key).copied(),
        };
        self.counters.looked_up(found.is_some());
        found
    }

    /// Looks up without promoting or counting.
    pub fn peek(&self, key: u64) -> Option<u64> {
        match &self.store {
            _ if key == 0 => None,
            Store::SetAssoc(rows) => {
                let set = rows.get(rows.set_of(key), 0)?;
                set_find(set, key).map(|pos| set[pos][LOCATION])
            }
            Store::Unbounded(map) => map.get(&key).copied(),
        }
    }

    /// Inserts or updates the hint for `key`. In the bounded store the
    /// record lands at the front of its set, displacing the set's LRU
    /// record if the set is full.
    ///
    /// # Panics
    ///
    /// Panics if `key == 0` (reserved for empty slots).
    pub fn insert(&mut self, key: u64, location: u64) {
        assert_ne!(key, 0, "hint key 0 is reserved");
        match &mut self.store {
            Store::SetAssoc(rows) => {
                let set = rows.row_or_allocate(rows.set_of(key));
                self.counters.placed(set_insert(set, [key, location]));
            }
            Store::Unbounded(map) => {
                if map.insert(key, location).is_none() {
                    self.counters.len += 1;
                }
            }
        }
    }

    /// Enumerates every live `(key, location)` record, in set order for the
    /// bounded store (deterministic) and sorted by key for the unbounded one
    /// (so snapshots compare stably across store kinds).
    pub fn entries(&self) -> Vec<(u64, u64)> {
        match &self.store {
            Store::SetAssoc(rows) => (0..rows.sets)
                .filter_map(|set| rows.get(set, 0))
                .flatten()
                .filter(|r| r[KEY] != 0)
                .map(|r| (r[KEY], r[LOCATION]))
                .collect(),
            Store::Unbounded(map) => {
                let mut out: Vec<(u64, u64)> = map.iter().map(|(&k, &l)| (k, l)).collect();
                out.sort_unstable();
                out
            }
        }
    }

    /// Drops every hint that names `location` — the stale-hint garbage
    /// collection a node runs when a peer is confirmed dead, so a departed
    /// machine's hints stop costing probes. Returns the number purged.
    ///
    /// One pass over the store: O(sets) for the bounded array, O(records)
    /// for the unbounded map — independent of request rate, which is what
    /// bounds a dead peer's total cost at O(1) per object. A set it empties
    /// gives back its row.
    pub fn purge_location(&mut self, location: u64) -> usize {
        let purged = match &mut self.store {
            Store::SetAssoc(rows) => {
                let mut purged = 0;
                for set in 0..rows.sets {
                    let Some(entries) = rows.row_mut(set) else {
                        continue;
                    };
                    purged += set_purge(entries, location);
                    if entries[0] == HintRecord::EMPTY {
                        rows.release(set);
                    }
                }
                purged
            }
            Store::Unbounded(map) => {
                let before = map.len();
                map.retain(|_, &mut l| l != location);
                before - map.len()
            }
        };
        self.counters.len -= purged;
        purged
    }

    /// Removes the hint for `key`; returns the stored location if present.
    /// A set this empties gives back its row.
    pub fn remove(&mut self, key: u64) -> Option<u64> {
        let removed = match &mut self.store {
            _ if key == 0 => None,
            Store::SetAssoc(rows) => {
                let set = rows.set_of(key);
                let entries = rows.row_mut(set)?;
                let removed = set_remove(entries, key);
                if entries[0] == HintRecord::EMPTY {
                    rows.release(set);
                }
                removed.map(|r| r[LOCATION])
            }
            Store::Unbounded(map) => map.remove(&key),
        };
        if removed.is_some() {
            self.counters.len -= 1;
        }
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_size_is_sixteen_bytes() {
        assert_eq!(HINT_RECORD_BYTES, 16);
        assert_eq!(size_of::<HintRecord>() as u64, HINT_RECORD_BYTES);
    }

    #[test]
    fn capacity_math() {
        // 1 MB of hints = 65536 records, as the paper's sizing arithmetic has it.
        let h = HintCache::with_capacity(ByteSize::from_mb(1));
        assert_eq!(h.capacity_records(), Some(65_536));
        assert!(HintCache::unbounded().capacity_records().is_none());
        // The bank sizes by the same record; only its ways are smaller.
        let bank = HintBank::new(64, ByteSize::from_mb(1));
        assert_eq!(bank.capacity_records(), Some(65_536));
        assert!(HintBank::new(64, ByteSize::MAX)
            .capacity_records()
            .is_none());
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

    /// A bounded store's rows: `(held by a set, carved from the chunks)`.
    fn row_counts<E, M>(store: &Store<E, M>) -> (usize, usize) {
        match store {
            Store::SetAssoc(rows) => (rows.rows - rows.free.len(), rows.rows),
            Store::Unbounded(_) => (0, 0),
        }
    }

    /// Every counter of every node: `(len, hits, misses, displacements)`.
    fn counters(bank: &HintBank) -> Vec<(usize, u64, u64, u64)> {
        bank.counters
            .iter()
            .map(|c| (c.len, c.hits, c.misses, c.displacements))
            .collect()
    }

    /// `node`'s slots: in set order, most recently used first within a set,
    /// for the bounded store; sorted for the unbounded one.
    fn slots(bank: &HintBank, node: usize) -> Vec<u32> {
        match &bank.store {
            Store::SetAssoc(rows) => (0..rows.sets)
                .filter_map(|set| rows.get(set, node))
                .flatten()
                .copied()
                .filter(|&s| s != 0)
                .collect(),
            Store::Unbounded(sets) => {
                let mut out: Vec<u32> = sets[node].iter().copied().collect();
                out.sort_unstable();
                out
            }
        }
    }

    #[test]
    fn removals_sent_to_a_set_without_a_row_allocate_nothing() {
        // 64 nodes × 64 sets × 4 ways.
        let mut bank = HintBank::new(64, ByteSize::from_kb(4));
        for node in 0..64 {
            assert!(!bank.lookup(node, 7, 1));
        }
        let before = counters(&bank);
        bank.broadcast_remove(7, 1);
        assert_eq!(bank.allocated_bytes(), 0);
        assert_eq!(row_counts(&bank.store).1, 0);
        assert_eq!(counters(&bank), before);

        // The same once another set has a row.
        bank.broadcast_insert(65, 2);
        let (before, allocated) = (counters(&bank), bank.allocated_bytes());
        bank.broadcast_remove(7, 1);
        assert_eq!(row_counts(&bank.store).1, 1);
        assert_eq!(bank.allocated_bytes(), allocated);
        assert_eq!(counters(&bank), before);
    }

    #[test]
    fn leading_removals_then_an_insert_allocate_exactly_one_row() {
        let mut bank = HintBank::new(64, ByteSize::from_kb(4));
        bank.broadcast_insert(65, 1); // set 1: one slot per node
        assert_eq!(row_counts(&bank.store).1, 1);
        // Set 3: every node drops a hint it never had, then stores one.
        bank.broadcast_remove(3, 2);
        assert_eq!(row_counts(&bank.store).1, 1);
        bank.broadcast_insert(3, 2);
        assert_eq!(row_counts(&bank.store).1, 2);
        for node in 0..64 {
            assert_eq!(bank.len(node), 2, "node {node}");
            assert_eq!(slots(&bank, node), [1, 2], "node {node}");
        }
    }

    #[test]
    fn a_lookup_or_remove_changes_only_its_own_nodes_slots() {
        // 64 nodes × 1,024 sets × 4 ways; keys 1..=200 give sets 1–200 a
        // row, and every third key's last copy is gone again.
        let mut bank = HintBank::new(64, ByteSize::from_kb(64));
        for key in 1..=200u64 {
            bank.broadcast_insert(key, key as u32);
            if key.is_multiple_of(3) {
                bank.broadcast_remove(key, key as u32);
            }
        }
        // A key every node holds, a key no node holds in a set with a row,
        // and a key whose set has no row.
        for (key, held) in [(5u64, true), (6, false), (904, false)] {
            for n in [0, 1, 31, 62, 63] {
                let before: Vec<_> = (0..64).map(|m| slots(&bank, m)).collect();
                assert_eq!(bank.lookup(n, key, key as u32), held);
                assert_eq!(bank.remove(n, key, key as u32), held);
                for (m, slots_before) in before.iter().enumerate() {
                    if m != n {
                        assert_eq!(&slots(&bank, m), slots_before, "node {m} after {n}");
                    }
                }
                let mut expected = before[n].clone();
                expected.retain(|&s| s != key as u32);
                assert_eq!(slots(&bank, n), expected);
                if held {
                    bank.broadcast_insert(key, key as u32);
                }
            }
        }
    }

    #[test]
    fn churn_holds_rows_for_the_live_sets_only() {
        // 65,536 sets; each round's 1,024 fresh keys replace the last
        // round's, so at most 2,048 are live at once. Without reuse the
        // 65,536 keys would touch about 41k sets and keep a row for each.
        let mut h = HintCache::with_capacity(ByteSize::from_mb(4));
        let key = |i: u64| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        for round in 0..64u64 {
            for i in round * 1024..(round + 1) * 1024 {
                h.insert(key(i), i);
            }
            if let Some(last) = round.checked_sub(1) {
                for i in last * 1024..round * 1024 {
                    assert_eq!(h.remove(key(i)), Some(i));
                }
            }
            assert_eq!(h.len(), 1024);
        }
        let (held, carved) = row_counts(&h.store);
        assert!(held <= 1024, "{held} rows held for 1,024 hints");
        assert!(carved <= 2048, "{carved} rows carved for 2,048 live hints");
    }

    #[test]
    fn purge_location_hands_back_the_rows_it_empties() {
        // 64 sets: sets 1–8 hold only location 7's hints, sets 9–12 one of
        // location 7's and one of location 8's.
        let mut h = HintCache::with_capacity(ByteSize::from_kb(4));
        for key in 1..=12u64 {
            h.insert(key, 7);
        }
        for key in 9..=12u64 {
            h.insert(key + 64, 8);
        }
        assert_eq!(row_counts(&h.store), (12, 12));
        assert_eq!(h.purge_location(7), 12);
        assert_eq!(row_counts(&h.store), (4, 12));
        assert_eq!(h.entries(), [(73, 8), (74, 8), (75, 8), (76, 8)]);
        // Eight new sets take the eight freed rows.
        for key in 20..28u64 {
            h.insert(key, 9);
        }
        assert_eq!(row_counts(&h.store), (12, 12));
        assert_eq!(h.peek(1), None);
        assert_eq!(h.peek(27), Some(9));
    }

    #[test]
    fn a_broadcast_remove_that_empties_a_row_lets_the_next_set_reuse_it() {
        // 64 nodes × 64 sets × 4 ways; keys 1 and 65 share set 1.
        let mut bank = HintBank::new(64, ByteSize::from_kb(4));
        bank.broadcast_insert(1, 1);
        bank.broadcast_insert(65, 2);
        bank.broadcast_remove(1, 1);
        assert_eq!(
            row_counts(&bank.store),
            (1, 1),
            "slot 2 still holds the row"
        );
        // One node dropping its last hint frees nothing: only a broadcast
        // walks the whole row.
        assert!(bank.remove(0, 65, 2));
        assert_eq!(row_counts(&bank.store), (1, 1));
        bank.broadcast_remove(65, 2);
        assert_eq!(row_counts(&bank.store), (0, 1));
        let allocated = bank.allocated_bytes();
        bank.broadcast_insert(3, 3);
        assert_eq!(row_counts(&bank.store), (1, 1));
        assert_eq!(bank.allocated_bytes(), allocated);
        for node in 0..64 {
            assert_eq!(slots(&bank, node), [3], "node {node}");
            assert_eq!(bank.len(node), 1, "node {node}");
            assert!(!bank.lookup(node, 65, 2), "set 1 has no row again");
        }
    }

    #[test]
    fn a_change_every_node_already_holds_at_way_0_walks_no_row() {
        // 64 nodes × 64 sets × 4 ways; keys 1 and 65 share set 1.
        let mut bank = HintBank::new(64, ByteSize::from_kb(4));
        bank.broadcast_insert(1, 1);
        bank.broadcast_insert(1, 1);
        assert_eq!(bank.row_walk_count(), 1);
        bank.broadcast_insert(65, 2);
        assert_eq!(bank.row_walk_count(), 2);
        // Node 5 moves slot 1 to its way 0: slot 2 must be walked again.
        assert!(bank.lookup(5, 1, 1));
        bank.broadcast_insert(65, 2);
        assert_eq!(bank.row_walk_count(), 3);
        bank.broadcast_insert(65, 2);
        assert_eq!(bank.row_walk_count(), 3);
        // Node 7 drops slot 2 from its way 0, then every node drops it.
        assert!(bank.remove(7, 65, 2));
        bank.broadcast_insert(65, 2);
        assert_eq!(bank.row_walk_count(), 4);
        bank.broadcast_remove(65, 2);
        bank.broadcast_insert(65, 2);
        assert_eq!(bank.row_walk_count(), 6);
        for node in 0..64 {
            assert_eq!(slots(&bank, node), [2, 1], "node {node}");
        }
    }

    mod props {
        use super::*;
        use proptest::prelude::*;
        use std::collections::HashMap;

        /// The reference store: each set a most-recently-used-first list of
        /// at most `ways` `(key, location)` records, written without the
        /// kernel's in-place shifting.
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

        /// A location rule of the simulator's kind, a function of the
        /// holder set and the node only: the node itself, else the lowest
        /// holder in its group of eight, else the lowest holder.
        fn nearest(node: u32, holders: &[u32]) -> Option<u64> {
            let h = holders
                .iter()
                .copied()
                .min_by_key(|&h| (h != node, h / 8 != node / 8, h))?;
            Some(u64::from(h))
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

            /// A node's own store equals the naive witness under any mix of
            /// operations: every return value, `entries()`, length and
            /// counter. After every operation the store holds a row for
            /// exactly the witness's non-empty sets, and has carved no more
            /// rows than it ever held at once.
            #[test]
            fn cache_equals_witness_store(
                ways in 1usize..=8,
                sets in 1usize..=5,
                ops in proptest::collection::vec((0u8..5, 1u64..40, 0u64..6), 1..250),
            ) {
                let capacity = ByteSize::from_bytes((sets * ways) as u64 * HINT_RECORD_BYTES);
                let mut h = HintCache::with_capacity_and_ways(capacity, ways);
                prop_assert_eq!(h.capacity_records(), Some(sets * ways));
                let mut witness = Witness::new(sets, ways);
                let mut peak = 0;
                for (op, key, location) in ops {
                    match op {
                        0 => prop_assert_eq!(h.lookup(key), witness.lookup(key)),
                        1 => {
                            h.insert(key, location);
                            witness.insert(key, location);
                        }
                        2 => prop_assert_eq!(h.remove(key), witness.remove(key)),
                        3 => prop_assert_eq!(
                            h.purge_location(location),
                            witness.purge_location(location)
                        ),
                        _ => prop_assert_eq!(h.peek(key), witness.peek(key)),
                    }
                    let (held, carved) = row_counts(&h.store);
                    peak = peak.max(held);
                    prop_assert_eq!(held, witness.sets.iter().filter(|s| !s.is_empty()).count());
                    prop_assert_eq!(carved, peak);
                }
                prop_assert_eq!(h.entries(), witness.entries());
                prop_assert_eq!(h.len(), witness.entries().len());
                prop_assert_eq!(h.displacement_count(), witness.displaced);
                prop_assert_eq!(h.hit_count(), witness.hits);
                prop_assert_eq!(h.miss_count(), witness.misses);
            }

            /// The bank plus each object's last delivered holder set is N
            /// independent location-carrying stores, each fed its own
            /// nearest holder of every holder change: every lookup resolves
            /// to the same location, and every node ends with the same
            /// objects in the same LRU order and the same counters. Sets 0
            /// stands for the unbounded stores. Half the ops repeat the key
            /// of the last broadcast, so a key is broadcast again after
            /// lookups, removes and removal broadcasts that moved it from
            /// some node's way 0 — each a change the shared word must see.
            #[test]
            fn bank_equals_independent_witness_stores(
                nodes_pick in 0usize..3,
                ways in 1usize..=8,
                sets in 0usize..=5,
                ops in proptest::collection::vec(
                    (0u8..6, 0usize..64, 1u64..40, any::<u64>()),
                    1..250,
                ),
            ) {
                let nodes = [1usize, 3, 64][nodes_pick];
                let (capacity, witness_sets, witness_ways) = match sets {
                    0 => (ByteSize::MAX, 1, usize::MAX),
                    _ => {
                        let bytes = (sets * ways) as u64 * HINT_RECORD_BYTES;
                        (ByteSize::from_bytes(bytes), sets, ways)
                    }
                };
                let mut bank = HintBank::with_ways(nodes, capacity, ways);
                let mut witness: Vec<Witness> =
                    (0..nodes).map(|_| Witness::new(witness_sets, witness_ways)).collect();
                // Slots in first-seen order, as the simulator assigns them,
                // so that a key's set and its slot disagree.
                let mut slot_of: HashMap<u64, u32> = HashMap::new();
                let mut delivered: HashMap<u64, Vec<u32>> = HashMap::new();
                let mut rows_written = std::collections::HashSet::new();
                let mut last = None;
                for (op, node, key, mask) in ops {
                    // Ops 3–5 are ops 0–2 on the last broadcast key.
                    let (op, key) = match op {
                        3.. => (op - 3, last.unwrap_or(key)),
                        _ => (op, key),
                    };
                    let next = slot_of.len() as u32 + 1;
                    let slot = *slot_of.entry(key).or_insert(next);
                    match op {
                        0 => {
                            // A sorted holder set of about a quarter of the
                            // nodes; empty a quarter of the time.
                            let bits = mask & mask.rotate_left(17);
                            let holders: Vec<u32> = match mask >> 62 {
                                0 => Vec::new(),
                                _ => (0..nodes as u32)
                                    .filter(|&n| bits >> (n % 62) & 1 == 1)
                                    .collect(),
                            };
                            if holders.is_empty() {
                                bank.broadcast_remove(key, slot);
                            } else {
                                bank.broadcast_insert(key, slot);
                                rows_written.insert(key as usize % sets.max(1));
                            }
                            for (n, w) in witness.iter_mut().enumerate() {
                                match nearest(n as u32, &holders) {
                                    Some(l) => w.insert(key, l),
                                    None => {
                                        w.remove(key);
                                    }
                                }
                            }
                            delivered.insert(key, holders);
                            last = Some(key);
                        }
                        1 => {
                            let node = node % nodes;
                            let resolved = bank.lookup(node, key, slot).then(|| {
                                let holders = &delivered[&key];
                                nearest(node as u32, holders).expect("a held hint resolves")
                            });
                            prop_assert_eq!(resolved, witness[node].lookup(key));
                        }
                        _ => {
                            let node = node % nodes;
                            prop_assert_eq!(
                                bank.remove(node, key, slot),
                                witness[node].remove(key).is_some()
                            );
                        }
                    }
                }
                for (n, w) in witness.iter().enumerate() {
                    let mut expected: Vec<u32> =
                        w.entries().iter().map(|(k, _)| slot_of[k]).collect();
                    if sets == 0 {
                        expected.sort_unstable();
                    }
                    prop_assert_eq!((n, slots(&bank, n)), (n, expected));
                    prop_assert_eq!(bank.len(n), w.entries().len());
                    prop_assert_eq!(bank.displacement_count(n), w.displaced);
                    prop_assert_eq!(bank.hit_count(n), w.hits);
                    prop_assert_eq!(bank.miss_count(n), w.misses);
                }
                // Rows exist only for sets some insert reached, in whole
                // chunks of at most `sets` rows of 4-byte slots.
                if sets > 0 {
                    let row_bytes = (nodes * ways * size_of::<u32>()) as u64;
                    prop_assert!(bank.allocated_bytes() >= rows_written.len() as u64 * row_bytes);
                    if rows_written.is_empty() {
                        prop_assert_eq!(bank.allocated_bytes(), 0);
                    }
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
