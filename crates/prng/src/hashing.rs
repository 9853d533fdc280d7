//! A seeded, version-stable hasher built on the SplitMix64 finalizer.
//!
//! `std::collections::hash_map::DefaultHasher` makes no stability promise
//! across Rust releases, which is fatal for anything that *pins* hash
//! placement — shuffle routing, key → rank ownership, regression tests that
//! record which bucket a key landed in. [`StableHash64`] is the repo-wide
//! replacement: a tiny sponge over [`SplitMix64::mix`] (Stafford's Mix13)
//! whose output is a pure function of the seed and the absorbed bytes —
//! independent of the Rust release, the platform word size, and the
//! process (no randomized per-instance state).
//!
//! Multi-byte integer writes are absorbed as little-endian words and
//! `usize`/`isize` are widened to 64 bits, so the same key hashes the same
//! on every platform.
//!
//! [`StableState`] is the `BuildHasher` counterpart, std's `RandomState`
//! without the randomness: within one build, a `HashMap<K, V, StableState>`
//! iterates in an order that is a pure function of its insert sequence.

use std::hash::{BuildHasherDefault, Hasher};

use crate::splitmix::SplitMix64;

/// Domain-separation tag folded in with the byte length of every raw
/// `write`, so zero-padding a partial word cannot collide with explicit
/// trailing zero bytes.
const LEN_TAG: u64 = 0x51ab_1e4a_54e5_0001;

/// A seeded, deterministic 64-bit [`Hasher`].
///
/// ```
/// use std::hash::{Hash, Hasher};
/// use peachy_prng::StableHash64;
///
/// let mut h = StableHash64::seeded(42);
/// "peachy".hash(&mut h);
/// let a = h.finish();
///
/// let mut h2 = StableHash64::seeded(42);
/// "peachy".hash(&mut h2);
/// assert_eq!(a, h2.finish());          // same seed + bytes → same hash
///
/// let mut h3 = StableHash64::seeded(43);
/// "peachy".hash(&mut h3);
/// assert_ne!(a, h3.finish());          // seed participates
/// ```
#[derive(Debug, Clone)]
pub struct StableHash64 {
    state: u64,
}

impl StableHash64 {
    /// Hasher with the default (zero) seed.
    pub fn new() -> Self {
        Self::seeded(0)
    }

    /// Hasher whose output is keyed by `seed`.
    pub fn seeded(seed: u64) -> Self {
        // Mix the seed so adjacent seeds give unrelated streams.
        Self {
            state: SplitMix64::mix(seed ^ LEN_TAG),
        }
    }

    /// Absorb one 64-bit word (xor-then-mix sponge; `mix` is bijective, so
    /// each absorbed word permutes the whole state).
    #[inline]
    fn absorb(&mut self, word: u64) {
        self.state = SplitMix64::mix(self.state ^ word);
    }
}

impl Default for StableHash64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Hasher for StableHash64 {
    #[inline]
    fn finish(&self) -> u64 {
        SplitMix64::mix(self.state)
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.absorb(u64::from_le_bytes(buf));
        }
        self.absorb(bytes.len() as u64 ^ LEN_TAG);
    }

    // Fixed-width integer writes skip the length tag: each absorbs a fixed
    // number of words, always little-endian, with usize widened to u64 so
    // 32- and 64-bit targets agree.
    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.absorb(v as u64);
    }
    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.absorb(v as u64);
    }
    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.absorb(v as u64);
    }
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.absorb(v);
    }
    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.absorb(v as u64);
        self.absorb((v >> 64) as u64);
    }
    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.absorb(v as u64);
    }
}

/// A [`BuildHasher`](std::hash::BuildHasher) of [`StableHash64`]s under
/// the default (zero) seed, with nothing to configure: std's
/// `RandomState`, minus the per-instance random keys. The seed must not
/// be the routing seed (`peachy_cluster::dist::ROUTE_SEED`): every key a
/// shuffle routes to bucket `p` of `n` has a routing hash ≡ `p` (mod `n`),
/// so a map over one bucket hashed under that seed would index by low
/// bits that never vary.
///
/// A map built on it iterates in an order fixed by its insert sequence
/// for one build of the program: std's `HashMap` promises no iteration
/// order, and its table layout (group width, growth policy) may differ
/// between Rust releases and targets. The seed is public, so such a map
/// gives up HashDoS resistance. An integer key hashes in two mixes, well
/// under std's SipHash; a string takes one mix per 8-byte word plus
/// three, in series, so a loop that waits on each short string's hash
/// can run slower than under SipHash.
///
/// ```
/// use std::collections::HashMap;
/// use peachy_prng::StableState;
///
/// let build = |n: u64| -> Vec<u64> {
///     let mut m: HashMap<u64, u64, StableState> = HashMap::default();
///     m.extend((0..n).map(|k| (k, k * k)));
///     m.into_keys().collect()
/// };
/// assert_eq!(build(1_000), build(1_000)); // same inserts, same order
/// ```
pub type StableState = BuildHasherDefault<StableHash64>;

/// Hash `key` with a [`StableHash64`] keyed by `seed`.
pub fn stable_hash<K: std::hash::Hash + ?Sized>(key: &K, seed: u64) -> u64 {
    let mut h = StableHash64::seeded(seed);
    key.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    #[test]
    fn deterministic_across_instances() {
        for key in ["", "a", "hello world", "peachy-parallel"] {
            assert_eq!(stable_hash(key, 7), stable_hash(key, 7), "{key:?}");
        }
        assert_eq!(stable_hash(&123456u64, 1), stable_hash(&123456u64, 1));
    }

    #[test]
    fn seed_changes_output() {
        assert_ne!(stable_hash("key", 0), stable_hash("key", 1));
        assert_ne!(stable_hash(&42u32, 0), stable_hash(&42u32, 0x5eed));
    }

    #[test]
    fn padding_does_not_collide_with_zeros() {
        // Raw byte writes of "ab" vs "ab\0" must differ (length is absorbed).
        let mut a = StableHash64::new();
        a.write(b"ab");
        let mut b = StableHash64::new();
        b.write(b"ab\0");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn integer_widths_are_distinguished_by_hash_impl() {
        // u32 and u64 of the same value may collide or not — what matters
        // is determinism; but distinct values must spread.
        let outs: std::collections::HashSet<u64> =
            (0..10_000u64).map(|i| stable_hash(&i, 0)).collect();
        assert_eq!(outs.len(), 10_000, "no collisions on small ints");
    }

    #[test]
    fn tuples_and_strings_hash() {
        let a = stable_hash(&("x", 3u64), 9);
        let b = stable_hash(&("x", 4u64), 9);
        assert_ne!(a, b);
    }

    #[test]
    fn usize_matches_u64_widening() {
        // Cross-platform contract: usize is absorbed as a 64-bit word.
        let mut h1 = StableHash64::seeded(3);
        h1.write_usize(77);
        let mut h2 = StableHash64::seeded(3);
        h2.write_u64(77);
        assert_eq!(h1.finish(), h2.finish());
    }

    #[test]
    fn placement_is_pinned() {
        // Routing and spill bytes depend on these; a change is a format
        // change, not a refactor.
        assert_eq!(stable_hash("", 42), 0xb5f1_090a_94dc_8ee4);
        assert_eq!(stable_hash("peachy", 42), 0x65c8_c71a_de84_9b6a);
        assert_eq!(
            stable_hash("key-0123456789abcdef", 42),
            0x21f0_6b88_0a08_bcac
        );
        assert_eq!(stable_hash(&123_456_789u64, 42), 0x27b4_09d3_fc61_7500);
    }

    #[test]
    fn stable_states_build_equal_hashers() {
        // Two maps built apart (two processes, two runs) must agree.
        let (a, b) = (StableState::default(), StableState::default());
        for key in ["", "a", "peachy-parallel"] {
            let (mut ha, mut hb) = (a.build_hasher(), b.build_hasher());
            key.hash(&mut ha);
            key.hash(&mut hb);
            assert_eq!(ha.finish(), hb.finish(), "{key:?}");
            assert_eq!(a.hash_one(key), stable_hash(key, 0));
        }
        for key in 0..1_000u64 {
            assert_eq!(a.hash_one(key), b.hash_one(key), "{key}");
        }
    }

    #[test]
    fn derived_hash_goes_through_overrides() {
        #[derive(Hash)]
        struct Key {
            id: u64,
            name: &'static str,
        }
        let k = Key {
            id: 5,
            name: "five",
        };
        assert_eq!(stable_hash(&k, 2), stable_hash(&k, 2));
    }
}
