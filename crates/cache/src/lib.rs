//! Cache substrates for the Beyond Hierarchies reproduction.
//!
//! Three building blocks every strategy shares:
//!
//! * [`LruCache`] — a byte-capacity LRU data cache with versioned entries
//!   (plus [`GdsCache`], the era's GreedyDual-Size alternative, for
//!   replacement-policy ablations)
//!   (strong consistency by invalidation, §2.2.1) and an explicit
//!   *demote* operation used by the update-push algorithm's aging rule
//!   (§4.1.2); its key map hashes with the keyed [`Keyed`] by default and
//!   with the pass-through [`PreMixed`] where keys are already mixed
//!   ([`hash`]);
//! * [`HintCache`] — the paper's hint store (§3.2.1): small, **fixed-size
//!   16-byte records** (8-byte URL-hash key + 8-byte machine identifier) in
//!   a **4-way set-associative array**, sized in bytes, plus an unbounded
//!   variant for "infinite hint cache" experiments (Figure 5's rightmost
//!   point); [`HintBank`] is the same geometry for every node of a
//!   simulated system, holding which objects each node has a hint for;
//! * [`classify`] — the miss taxonomy of Figure 2 (compulsory / capacity /
//!   communication / uncachable / error), implemented as a classifying
//!   wrapper over a shared global cache.
//!
//! # Examples
//!
//! ```
//! use bh_cache::{HintCache, LruCache};
//! use bh_simcore::ByteSize;
//!
//! let mut data = LruCache::new(ByteSize::from_kb(64));
//! data.insert(1, ByteSize::from_kb(40), 0);
//! data.insert(2, ByteSize::from_kb(40), 0); // evicts object 1
//! assert!(data.get(1, 0).is_none());
//! assert!(data.get(2, 0).is_some());
//!
//! let mut hints = HintCache::with_capacity(ByteSize::from_kb(1));
//! hints.insert(0xfeed, 7);
//! assert_eq!(hints.lookup(0xfeed), Some(7));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classify;
pub mod gds;
pub mod hash;
pub mod hint;
pub mod lru;
pub mod random;

pub use classify::{AccessOutcome, ClassRates, ClassifyingCache, MissClass};
pub use gds::GdsCache;
pub use hash::{Keyed, PreMixed};
pub use hint::{HintBank, HintCache, HintRecord, HINT_RECORD_BYTES};
pub use lru::{Evicted, LruCache};
pub use random::RandomCache;

/// The replacement policies the ablation runner compares. The enum is
/// the stable index: runners and artifacts order rows by it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Replacement {
    /// Least-recently-used ([`LruCache`]).
    Lru,
    /// GreedyDual-Size ([`GdsCache`]).
    GreedyDualSize,
    /// Seeded-random victims ([`RandomCache`]).
    Random,
}

impl Replacement {
    /// Every policy, in the canonical ablation-row order.
    pub const ALL: [Replacement; 3] = [
        Replacement::Lru,
        Replacement::GreedyDualSize,
        Replacement::Random,
    ];

    /// The row label the ablation tables print.
    pub fn label(self) -> &'static str {
        match self {
            Replacement::Lru => "LRU",
            Replacement::GreedyDualSize => "GreedyDual-Size",
            Replacement::Random => "Random",
        }
    }
}
