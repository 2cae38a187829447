//! From-scratch MD5 (RFC 1321) message digest.
//!
//! The Beyond Hierarchies design derives identifiers from MD5 signatures:
//! node IDs are the MD5 of the node's IP address, object IDs are the MD5 of
//! the object's URL, and hint records store 8-byte (64-bit) prefixes of those
//! digests (paper §3.1.3, §3.2.1). This crate provides exactly that: a small,
//! dependency-free MD5 with helpers for the 64-bit key used throughout the
//! repository.
//!
//! MD5 is used here purely as a well-distributed deterministic hash, never
//! for security.
//!
//! # Examples
//!
//! ```
//! use bh_md5::{md5, Digest};
//!
//! let d: Digest = md5(b"abc");
//! assert_eq!(d.to_hex(), "900150983cd24fb0d6963f7d28e17f72");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

/// A 128-bit MD5 digest.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Digest(pub [u8; 16]);

impl Digest {
    /// Renders the digest as the conventional 32-character lowercase hex string.
    ///
    /// ```
    /// assert_eq!(bh_md5::md5(b"").to_hex(), "d41d8cd98f00b204e9800998ecf8427e");
    /// ```
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(32);
        for b in &self.0 {
            s.push(char::from_digit((b >> 4) as u32, 16).expect("nibble < 16"));
            s.push(char::from_digit((b & 0xf) as u32, 16).expect("nibble < 16"));
        }
        s
    }

    /// Returns the low-order 64 bits of the digest (the first 8 bytes in
    /// digest order), interpreted little-endian.
    ///
    /// This is the "8-byte object identifier (part of the MD5 signature of
    /// the object's URL)" that hint records carry on the wire (§3.2).
    pub fn low64(&self) -> u64 {
        let mut word = [0u8; 8];
        word.copy_from_slice(&self.0[..8]);
        u64::from_le_bytes(word)
    }

    /// Returns the high-order 64 bits of the digest (bytes 8..16),
    /// interpreted little-endian.
    pub fn high64(&self) -> u64 {
        let mut word = [0u8; 8];
        word.copy_from_slice(&self.0[8..]);
        u64::from_le_bytes(word)
    }

    /// Returns the raw digest bytes.
    pub fn as_bytes(&self) -> &[u8; 16] {
        &self.0
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({})", self.to_hex())
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl From<Digest> for [u8; 16] {
    fn from(d: Digest) -> Self {
        d.0
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// Streaming MD5 context.
///
/// Feed data incrementally with [`Context::consume`] and finish with
/// [`Context::finalize`].
///
/// ```
/// use bh_md5::Context;
///
/// let mut ctx = Context::new();
/// ctx.consume(b"hello ");
/// ctx.consume(b"world");
/// assert_eq!(ctx.finalize(), bh_md5::md5(b"hello world"));
/// ```
#[derive(Clone)]
pub struct Context {
    state: [u32; 4],
    /// Total message length in bytes (mod 2^64).
    length: u64,
    buffer: [u8; 64],
    buffered: usize,
}

impl fmt::Debug for Context {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Context")
            .field("length", &self.length)
            .field("buffered", &self.buffered)
            .finish()
    }
}

impl Default for Context {
    fn default() -> Self {
        Self::new()
    }
}

impl Context {
    /// Creates a fresh context with the RFC 1321 initial state.
    pub fn new() -> Self {
        Context {
            state: [0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476],
            length: 0,
            buffer: [0u8; 64],
            buffered: 0,
        }
    }

    /// Absorbs `data` into the digest state.
    //
    // Inline, so a short fixed-size piece (a hint record's fields) that
    // leaves the block partial is one store into the buffer.
    #[inline]
    pub fn consume(&mut self, data: impl AsRef<[u8]>) {
        let data = data.as_ref();
        self.length = self.length.wrapping_add(data.len() as u64);
        let at = self.buffered;
        if data.len() < 64 - at {
            self.buffer[at..at + data.len()].copy_from_slice(data);
            self.buffered = at + data.len();
        } else {
            self.absorb_blocks(data);
        }
    }

    /// The rest of [`Context::consume`], for input that completes at
    /// least one block: tops up the buffer, compresses every whole block
    /// in place, and buffers the remainder.
    fn absorb_blocks(&mut self, mut data: &[u8]) {
        if self.buffered > 0 {
            let (head, rest) = data.split_at(64 - self.buffered);
            self.buffer[self.buffered..].copy_from_slice(head);
            compress(&mut self.state, &self.buffer);
            data = rest;
        }
        let (blocks, rest) = data.as_chunks::<64>();
        for block in blocks {
            compress(&mut self.state, block);
        }
        self.buffer[..rest.len()].copy_from_slice(rest);
        self.buffered = rest.len();
    }

    /// Completes the digest, applying RFC 1321 padding: a 0x80 byte, zeros
    /// to 56 mod 64, then the 64-bit little-endian bit length, written
    /// straight into the buffered tail (a second block when the tail has
    /// no room for the length).
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.length.wrapping_mul(8);
        let at = self.buffered;
        self.buffer[at] = 0x80;
        self.buffer[at + 1..].fill(0);
        if at >= 56 {
            compress(&mut self.state, &self.buffer);
            self.buffer = [0u8; 64];
        }
        self.buffer[56..].copy_from_slice(&bit_len.to_le_bytes());
        compress(&mut self.state, &self.buffer);

        let mut out = [0u8; 16];
        for (bytes, word) in out.chunks_exact_mut(4).zip(self.state) {
            bytes.copy_from_slice(&word.to_le_bytes());
        }
        Digest(out)
    }

    /// Creates a context pre-seeded with `key` — the prefix half of the
    /// envelope authenticator `MD5(key ‖ data ‖ key)`. Pair with
    /// [`Context::finalize_keyed`], which absorbs the trailer copy.
    ///
    /// ```
    /// use bh_md5::{keyed_md5, Context};
    ///
    /// let mut ctx = Context::keyed(b"k");
    /// ctx.consume(b"payload");
    /// assert_eq!(ctx.finalize_keyed(b"k"), keyed_md5(b"k", b"payload"));
    /// ```
    pub fn keyed(key: &[u8]) -> Context {
        let mut ctx = Context::new();
        ctx.consume(key);
        ctx
    }

    /// Completes an envelope authenticator started with
    /// [`Context::keyed`]: absorbs `key` again as the trailer, then
    /// finalizes.
    pub fn finalize_keyed(mut self, key: &[u8]) -> Digest {
        self.consume(key);
        self.finalize()
    }
}

/// The four auxiliary functions of RFC 1321 §3.4. `f` and `g` are the
/// RFC's `XY v not(X) Z` and `XZ v Y not(Z)` as bit selects, which leave
/// one operation fewer after the newest register on each step's chain.
#[inline(always)]
fn f(x: u32, y: u32, z: u32) -> u32 {
    z ^ (x & (y ^ z))
}

#[inline(always)]
fn g(x: u32, y: u32, z: u32) -> u32 {
    y ^ (z & (x ^ y))
}

#[inline(always)]
fn h(x: u32, y: u32, z: u32) -> u32 {
    x ^ y ^ z
}

#[inline(always)]
fn i(x: u32, y: u32, z: u32) -> u32 {
    y ^ (x | !z)
}

/// One step of RFC 1321 §3.4: `a = b + ((a + fun(b, c, d) + x + t) <<< s)`.
macro_rules! step {
    ($fun:ident, $a:ident, $b:ident, $c:ident, $d:ident, $x:expr, $s:expr, $t:expr) => {
        $a = $b.wrapping_add(
            $a.wrapping_add($fun($b, $c, $d))
                .wrapping_add($x)
                .wrapping_add($t)
                .rotate_left($s),
        )
    };
}

/// Compresses one 64-byte block into `state`: the 64 steps of RFC 1321
/// §3.4 written out in the RFC's order, with the message word, shift and
/// sine constant of each step a literal.
fn compress(state: &mut [u32; 4], block: &[u8; 64]) {
    let (words, _) = block.as_chunks::<4>();
    let x: [u32; 16] = std::array::from_fn(|w| u32::from_le_bytes(words[w]));
    let [mut a, mut b, mut c, mut d] = *state;

    step!(f, a, b, c, d, x[0], 7, 0xd76aa478);
    step!(f, d, a, b, c, x[1], 12, 0xe8c7b756);
    step!(f, c, d, a, b, x[2], 17, 0x242070db);
    step!(f, b, c, d, a, x[3], 22, 0xc1bdceee);
    step!(f, a, b, c, d, x[4], 7, 0xf57c0faf);
    step!(f, d, a, b, c, x[5], 12, 0x4787c62a);
    step!(f, c, d, a, b, x[6], 17, 0xa8304613);
    step!(f, b, c, d, a, x[7], 22, 0xfd469501);
    step!(f, a, b, c, d, x[8], 7, 0x698098d8);
    step!(f, d, a, b, c, x[9], 12, 0x8b44f7af);
    step!(f, c, d, a, b, x[10], 17, 0xffff5bb1);
    step!(f, b, c, d, a, x[11], 22, 0x895cd7be);
    step!(f, a, b, c, d, x[12], 7, 0x6b901122);
    step!(f, d, a, b, c, x[13], 12, 0xfd987193);
    step!(f, c, d, a, b, x[14], 17, 0xa679438e);
    step!(f, b, c, d, a, x[15], 22, 0x49b40821);

    step!(g, a, b, c, d, x[1], 5, 0xf61e2562);
    step!(g, d, a, b, c, x[6], 9, 0xc040b340);
    step!(g, c, d, a, b, x[11], 14, 0x265e5a51);
    step!(g, b, c, d, a, x[0], 20, 0xe9b6c7aa);
    step!(g, a, b, c, d, x[5], 5, 0xd62f105d);
    step!(g, d, a, b, c, x[10], 9, 0x02441453);
    step!(g, c, d, a, b, x[15], 14, 0xd8a1e681);
    step!(g, b, c, d, a, x[4], 20, 0xe7d3fbc8);
    step!(g, a, b, c, d, x[9], 5, 0x21e1cde6);
    step!(g, d, a, b, c, x[14], 9, 0xc33707d6);
    step!(g, c, d, a, b, x[3], 14, 0xf4d50d87);
    step!(g, b, c, d, a, x[8], 20, 0x455a14ed);
    step!(g, a, b, c, d, x[13], 5, 0xa9e3e905);
    step!(g, d, a, b, c, x[2], 9, 0xfcefa3f8);
    step!(g, c, d, a, b, x[7], 14, 0x676f02d9);
    step!(g, b, c, d, a, x[12], 20, 0x8d2a4c8a);

    step!(h, a, b, c, d, x[5], 4, 0xfffa3942);
    step!(h, d, a, b, c, x[8], 11, 0x8771f681);
    step!(h, c, d, a, b, x[11], 16, 0x6d9d6122);
    step!(h, b, c, d, a, x[14], 23, 0xfde5380c);
    step!(h, a, b, c, d, x[1], 4, 0xa4beea44);
    step!(h, d, a, b, c, x[4], 11, 0x4bdecfa9);
    step!(h, c, d, a, b, x[7], 16, 0xf6bb4b60);
    step!(h, b, c, d, a, x[10], 23, 0xbebfbc70);
    step!(h, a, b, c, d, x[13], 4, 0x289b7ec6);
    step!(h, d, a, b, c, x[0], 11, 0xeaa127fa);
    step!(h, c, d, a, b, x[3], 16, 0xd4ef3085);
    step!(h, b, c, d, a, x[6], 23, 0x04881d05);
    step!(h, a, b, c, d, x[9], 4, 0xd9d4d039);
    step!(h, d, a, b, c, x[12], 11, 0xe6db99e5);
    step!(h, c, d, a, b, x[15], 16, 0x1fa27cf8);
    step!(h, b, c, d, a, x[2], 23, 0xc4ac5665);

    step!(i, a, b, c, d, x[0], 6, 0xf4292244);
    step!(i, d, a, b, c, x[7], 10, 0x432aff97);
    step!(i, c, d, a, b, x[14], 15, 0xab9423a7);
    step!(i, b, c, d, a, x[5], 21, 0xfc93a039);
    step!(i, a, b, c, d, x[12], 6, 0x655b59c3);
    step!(i, d, a, b, c, x[3], 10, 0x8f0ccc92);
    step!(i, c, d, a, b, x[10], 15, 0xffeff47d);
    step!(i, b, c, d, a, x[1], 21, 0x85845dd1);
    step!(i, a, b, c, d, x[8], 6, 0x6fa87e4f);
    step!(i, d, a, b, c, x[15], 10, 0xfe2ce6e0);
    step!(i, c, d, a, b, x[6], 15, 0xa3014314);
    step!(i, b, c, d, a, x[13], 21, 0x4e0811a1);
    step!(i, a, b, c, d, x[4], 6, 0xf7537e82);
    step!(i, d, a, b, c, x[11], 10, 0xbd3af235);
    step!(i, c, d, a, b, x[2], 15, 0x2ad7d2bb);
    step!(i, b, c, d, a, x[9], 21, 0xeb86d391);

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
}

/// Computes the MD5 digest of `data` in one shot.
///
/// ```
/// assert_eq!(
///     bh_md5::md5(b"The quick brown fox jumps over the lazy dog").to_hex(),
///     "9e107d9d372bb6826bd81d3542a419d6",
/// );
/// ```
pub fn md5(data: impl AsRef<[u8]>) -> Digest {
    let mut ctx = Context::new();
    ctx.consume(data);
    ctx.finalize()
}

/// Keyed digest in envelope construction: `MD5(key ‖ data ‖ key)`.
///
/// Used as the per-peer hint-batch authenticator. Like everything else
/// in this crate it is an *integrity* primitive, not a cryptographic
/// MAC: it detects corrupted and byzantine-buggy senders, and its
/// strength is exactly the secrecy of `key` (a real deployment would
/// provision a shared secret; the prototype derives per-sender keys
/// from a public scheme, which catches corruption but not a determined
/// forger).
///
/// ```
/// let a = bh_md5::keyed_md5(b"k1", b"batch");
/// let b = bh_md5::keyed_md5(b"k2", b"batch");
/// assert_ne!(a, b, "different keys, different tags");
/// ```
pub fn keyed_md5(key: &[u8], data: &[u8]) -> Digest {
    let mut ctx = Context::keyed(key);
    ctx.consume(data);
    ctx.finalize_keyed(key)
}

/// Convenience: the 64-bit key for a URL, as used by hint records (§3.2.1).
///
/// Two distinct URLs may collide in 64 bits; the system tolerates this as a
/// false positive (the remote cache replies with an error and the request is
/// treated as a miss), exactly as the paper describes.
///
/// ```
/// let k = bh_md5::url_key("http://example.com/index.html");
/// assert_ne!(k, bh_md5::url_key("http://example.com/other.html"));
/// ```
pub fn url_key(url: &str) -> u64 {
    md5(url.as_bytes()).low64()
}

/// Convenience: the 64-bit node identifier for an address string
/// (e.g. `"128.83.120.10:3128"`), per §3.1.3's MD5-of-IP node IDs.
pub fn node_key(addr: &str) -> u64 {
    md5(addr.as_bytes()).low64()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fixed byte pattern, so a pinned digest depends on its length
    /// alone.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(7))
            .collect()
    }

    /// The digests of `pattern(0..=192)` folded into one word.
    fn fold_digests() -> u64 {
        (0..=192).fold(0u64, |acc, len| {
            let d = md5(pattern(len));
            (acc.rotate_left(7) ^ d.low64()).wrapping_add(d.high64())
        })
    }

    /// Digests of the pattern at every padding case — one block with the
    /// length in it (≤ 55), a 0x80 that spills the length into a second
    /// block (56–63), an exact block (64), and the same again one block on
    /// (119–120, 127–128) — recorded from the loop-form kernel this crate
    /// shipped first and checked against an independent MD5. The other
    /// lengths up to 192 are pinned as one folded value.
    #[test]
    fn pinned_digests_cover_every_padding_case() {
        let boundary = [
            (0, "d41d8cd98f00b204e9800998ecf8427e"),
            (1, "89e74e640b8c46257a29de0616794d5d"),
            (55, "c9e512626618c9980ef21a96597af94c"),
            (56, "ecde7caa08e9f5657c863df107cac60a"),
            (57, "b17b1a018dd6a4d1edda8aca15f17846"),
            (63, "2f0301069e1c40af7f6c8f843b1b13f2"),
            (64, "b6bf87c24b1bc334e2541387a92b981b"),
            (65, "f168246f08b6134d66bd2a10343fa9f1"),
            (119, "d5dc3d8264de3aa24dee105910ee27fe"),
            (120, "bcc139b3848923904860d1eefd6e5923"),
            (127, "27670172396247fa5f68637f13f8933d"),
            (128, "3e85b70ffc8df5c735ecf2a8f14f1bee"),
            (192, "97ff8c2c469166fdfef87c190eccba0e"),
        ];
        for (len, hex) in boundary {
            assert_eq!(md5(pattern(len)).to_hex(), hex, "length {len}");
        }
        assert_eq!(fold_digests(), 0x542f_3a64_9fa9_6d12);
        // The same lengths streamed in uneven pieces.
        for len in 0..=192 {
            let data = pattern(len);
            let mut ctx = Context::new();
            for piece in data.chunks(1 + len % 13) {
                ctx.consume(piece);
            }
            assert_eq!(ctx.finalize(), md5(&data), "length {len} in pieces");
        }
    }

    #[test]
    fn pinned_keyed_digests() {
        assert_eq!(
            keyed_md5(b"bh-key", &pattern(100)).to_hex(),
            "f9af9aa6d287ba6593baea4c1e02b63f"
        );
        assert_eq!(
            keyed_md5(&pattern(16), b"").to_hex(),
            "9a362728b7f0a1fdfed0cbf5eab1977e"
        );
    }

    /// RFC 1321 appendix A.5 test suite.
    #[test]
    fn rfc1321_vectors() {
        let cases: &[(&str, &str)] = &[
            ("", "d41d8cd98f00b204e9800998ecf8427e"),
            ("a", "0cc175b9c0f1b6a831c399e269772661"),
            ("abc", "900150983cd24fb0d6963f7d28e17f72"),
            ("message digest", "f96b697d7cb7938d525a2f31aaf161d0"),
            (
                "abcdefghijklmnopqrstuvwxyz",
                "c3fcd3d76192e4007dfb496cca67e13b",
            ),
            (
                "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
                "d174ab98d277d9f5a5611c2c9f419d9f",
            ),
            (
                "12345678901234567890123456789012345678901234567890123456789012345678901234567890",
                "57edf4a22be3c955ac49da2e2107b67a",
            ),
        ];
        for (input, expected) in cases {
            assert_eq!(md5(input.as_bytes()).to_hex(), *expected, "md5({input:?})");
        }
    }

    #[test]
    fn incremental_matches_oneshot_at_block_boundaries() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for split in [0, 1, 55, 56, 63, 64, 65, 128, 999, 1000] {
            let mut ctx = Context::new();
            ctx.consume(&data[..split]);
            ctx.consume(&data[split..]);
            assert_eq!(ctx.finalize(), md5(&data), "split at {split}");
        }
    }

    #[test]
    fn incremental_byte_at_a_time() {
        let data = b"an arbitrary message that spans multiple MD5 blocks when repeated \
                     enough times to exceed sixty-four bytes in total length";
        let mut ctx = Context::new();
        for b in data.iter() {
            ctx.consume([*b]);
        }
        assert_eq!(ctx.finalize(), md5(data));
    }

    #[test]
    fn keyed_digest_is_the_envelope_construction() {
        assert_eq!(
            keyed_md5(b"key", b"data"),
            md5(b"keydatakey"),
            "keyed_md5 must equal MD5(key ‖ data ‖ key)"
        );
        let mut ctx = Context::keyed(b"key");
        ctx.consume(b"da");
        ctx.consume(b"ta");
        assert_eq!(ctx.finalize_keyed(b"key"), keyed_md5(b"key", b"data"));
        assert_ne!(keyed_md5(b"a", b"x"), keyed_md5(b"b", b"x"));
        assert_ne!(keyed_md5(b"a", b"x"), md5(b"x"));
    }

    #[test]
    fn low64_and_high64_cover_digest() {
        let d = md5(b"abc");
        let lo = d.low64().to_le_bytes();
        let hi = d.high64().to_le_bytes();
        assert_eq!(&d.0[..8], &lo);
        assert_eq!(&d.0[8..], &hi);
    }

    #[test]
    fn display_matches_hex() {
        let d = md5(b"x");
        assert_eq!(format!("{d}"), d.to_hex());
        assert!(format!("{d:?}").contains(&d.to_hex()));
    }

    #[test]
    fn url_keys_well_distributed_in_low_bits() {
        // Sanity: low bits of URL keys should spread across buckets; with 4096
        // URLs into 64 buckets, no bucket should be wildly over-occupied.
        let mut buckets = [0u32; 64];
        for i in 0..4096 {
            let k = url_key(&format!(
                "http://server{}.example.com/path/{}.html",
                i % 97,
                i
            ));
            buckets[(k % 64) as usize] += 1;
        }
        let max = *buckets.iter().max().expect("nonempty");
        let min = *buckets.iter().min().expect("nonempty");
        assert!(max < 2 * 4096 / 64, "max bucket {max} too hot");
        assert!(min > 0, "empty bucket");
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Splitting the input arbitrarily never changes the digest.
            #[test]
            fn split_invariance(data in proptest::collection::vec(any::<u8>(), 0..2048),
                                split in 0usize..2048) {
                let split = split.min(data.len());
                let mut ctx = Context::new();
                ctx.consume(&data[..split]);
                ctx.consume(&data[split..]);
                prop_assert_eq!(ctx.finalize(), md5(&data));
            }

            /// Distinct short inputs virtually never collide in 128 bits.
            #[test]
            fn distinct_inputs_distinct_digests(a in ".{0,64}", b in ".{0,64}") {
                prop_assume!(a != b);
                prop_assert_ne!(md5(a.as_bytes()), md5(b.as_bytes()));
            }

            /// Hex round-trip has fixed length and charset.
            #[test]
            fn hex_is_canonical(data in proptest::collection::vec(any::<u8>(), 0..256)) {
                let h = md5(&data).to_hex();
                prop_assert_eq!(h.len(), 32);
                prop_assert!(h.chars().all(|c| c.is_ascii_hexdigit() && !c.is_ascii_uppercase()));
            }
        }
    }
}
