//! The two hashers a map keyed by a 64-bit object key can use.
//!
//! A key the simulator hands a cache is already a well-mixed 64-bit value:
//! `ObjectId::key()` is a SplitMix64 finalizer, bijective, and nobody
//! chooses it. Hashing it again with SipHash buys nothing, so simulator
//! maps use [`PreMixed`], which passes the key through. A live node's keys
//! are MD5 prefixes of URLs its clients choose; an unkeyed hash would let a
//! client grind URLs into one probe chain, so its maps keep [`Keyed`].
//! Which hasher a map uses never changes what it returns — only where its
//! entries sit, which no caller observes.

use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher, Hash, Hasher};

/// The std library's per-process keyed SipHash: the default for maps whose
/// keys an outside party can choose.
#[derive(Debug, Clone, Default)]
// bh-lint: allow(no-ambient-rng, reason = "SipHash keys against crafted probe chains; no iteration order or output depends on them")
pub struct Keyed(std::hash::RandomState);

impl BuildHasher for Keyed {
    type Hasher = DefaultHasher;

    #[inline]
    fn build_hasher(&self) -> DefaultHasher {
        self.0.build_hasher()
    }

    // The provided `hash_one` is the same code without `#[inline]`: the
    // compiler keeps one copy of it per crate, and a map lookup compiled in
    // another codegen unit calls it instead of inlining SipHash. Which unit
    // that is shifts with unrelated edits to the crate; once it cost
    // `LruCache::get` 2 ns and an evicting `insert` 6 ns.
    #[inline]
    #[allow(clippy::manual_hash_one)] // `self.hash_one` would recurse
    fn hash_one<T: Hash>(&self, x: T) -> u64 {
        let mut hasher = self.build_hasher();
        x.hash(&mut hasher);
        hasher.finish()
    }
}

/// Builds [`PassThrough`] hashers: for maps keyed by pre-mixed `u64`s.
pub type PreMixed = BuildHasherDefault<PassThrough>;

/// A hasher whose hash of a `u64` is the `u64` itself. Only for keys that
/// are already uniformly mixed in every bit; see the [module docs](self).
#[derive(Debug, Clone, Copy, Default)]
pub struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }

    /// Keys other than one `u64` are folded in byte by byte (FNV-1a), so
    /// the hasher stays total; no map in the workspace needs it.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn a_u64_key_hashes_to_itself() {
        for key in [0, 1, 0x9E37_79B9_7F4A_7C15, u64::MAX] {
            assert_eq!(PreMixed::default().hash_one(key), key);
        }
    }
}
