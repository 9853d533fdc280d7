//! # peachy-prng
//!
//! Pseudo-random number generation for the Peachy Parallel Assignments
//! reproduction, centred on the requirement of the Nagel–Schreckenberg
//! traffic assignment (EduHPC 2023, §5): *a parallel simulation must produce
//! output bit-identical to the serial code for any number of threads*.
//!
//! That requirement is met by generators that can **fast-forward** ("move
//! ahead") their internal state by `n` steps in `O(log n)` time, so that a
//! worker responsible for the `i`-th chunk of a shared random sequence can
//! jump directly to its starting offset instead of generating (and
//! discarding) everything before it.
//!
//! The crate provides:
//!
//! * [`Lcg64`] — a 64-bit linear congruential generator with a power-of-two
//!   modulus and `O(log n)` [`FastForward::jump`], the workhorse generator.
//! * [`Lcg31`] — the classic MINSTD (Lehmer) generator, `x ← 48271·x mod
//!   2³¹−1`, matching the C++ `std::minstd_rand` that the assignment's
//!   starter code fast-forwards; jump-ahead via modular exponentiation.
//! * [`SplitMix64`] — a trivially-jumpable counter-based mixer, used for
//!   seeding and as a comparator.
//! * [`XorShift64Star`] — a small non-jumpable generator used as a negative
//!   control in benchmarks (fast, but *cannot* support reproducible
//!   chunked parallelism without replaying the stream).
//! * [`dist`] — distributions built on any [`RandomStream`]: uniform
//!   integers without modulo bias, uniform floats, Bernoulli, and normal
//!   variates.
//! * [`stats`] — χ², Kolmogorov–Smirnov, and serial-correlation self-tests
//!   used by the test-suite to keep all generators honest.
//! * [`cases`] — a seeded property-test runner: fixed per-case seeds,
//!   and a failing case reports the seed that replays it.
//! * [`hashing`] — [`StableHash64`], a seeded version-stable hasher built
//!   on the SplitMix64 finalizer, used wherever hash *placement* must be
//!   reproducible across Rust releases (shuffle routing, key → rank maps),
//!   and [`StableState`], its fixed-seed `BuildHasher` for hash maps whose
//!   iteration order must not change from run to run of one build.
//!
//! ## Quick example: chunked reproducibility
//!
//! ```
//! use peachy_prng::{Lcg64, RandomStream, FastForward};
//!
//! // Serial reference: 100 draws from one stream.
//! let mut serial = Lcg64::seed_from(42);
//! let reference: Vec<u64> = (0..100).map(|_| serial.next_u64()).collect();
//!
//! // "Parallel": four workers each fast-forward to their chunk.
//! let mut chunked = Vec::new();
//! for w in 0..4 {
//!     let mut rng = Lcg64::seed_from(42);
//!     rng.jump(w * 25);
//!     for _ in 0..25 { chunked.push(rng.next_u64()); }
//! }
//! assert_eq!(reference, chunked);
//! ```

// Numeric kernels below use explicit index loops deliberately: they mirror
// the assignments' pseudocode and keep stencil/neighbour indexing visible.
#![allow(clippy::needless_range_loop)]

pub mod cases;
pub mod dist;
pub mod hashing;
pub mod lcg;
pub mod philox;
pub mod splitmix;
pub mod stats;
pub mod stream;
pub mod xorshift;

pub use dist::{Bernoulli, Normal, UniformF64, UniformU64};
pub use hashing::{stable_hash, StableHash64, StableState};
pub use lcg::{Lcg31, Lcg64};
pub use philox::Philox;
pub use splitmix::SplitMix64;
pub use stream::{FastForward, RandomStream, StreamSplit};
pub use xorshift::XorShift64Star;

/// Convenience: the default generator used across the Peachy crates.
pub type DefaultStream = Lcg64;

/// Derive a well-mixed 64-bit seed from an arbitrary integer, so that
/// adjacent user seeds (0, 1, 2, …) do not produce correlated LCG states.
#[inline]
pub fn mix_seed(seed: u64) -> u64 {
    SplitMix64::new(seed).next()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_seed_changes_adjacent_seeds() {
        let a = mix_seed(0);
        let b = mix_seed(1);
        assert_ne!(a, b);
        let dist = (a ^ b).count_ones();
        assert!(
            dist > 16,
            "adjacent seeds too similar: {dist} differing bits"
        );
    }

    #[test]
    fn default_stream_is_fast_forwardable() {
        let mut a = DefaultStream::seed_from(7);
        let mut b = DefaultStream::seed_from(7);
        for _ in 0..1000 {
            a.next_u64();
        }
        b.jump(1000);
        assert_eq!(a.next_u64(), b.next_u64());
    }
}
