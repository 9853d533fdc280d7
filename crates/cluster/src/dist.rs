//! One partitioning vocabulary for every assignment.
//!
//! The paper's six assignments all make the same first move — partition an
//! index space over workers — and before this module existed the repo
//! spelled that move out five different ways (heat's `BlockDist`, traffic's
//! and mapreduce's hand-rolled `block_range`, kmeans' flat-chunk scatter
//! math, ensemble's `block_assignment`). This module is now the **single
//! source of partition truth**:
//!
//! * [`block_range`] — the Chapel balanced-block rule as a total free
//!   function (empty domains and empty parts allowed), used directly by
//!   scatter math that needs exactly one chunk per rank;
//! * [`cyclic_indices`] — the round-robin rule as a total free function;
//! * the [`Distribution`] trait with [`Block`], [`Cyclic`], [`BlockCyclic`]
//!   and [`EvenBlocks`] impls — typed distributions whose constructors clip
//!   the part count so **every part is non-empty by construction** (the
//!   type-level guarantee that replaced the old `BlockDist::is_empty`
//!   dead branch);
//! * [`owner_of_key`] — seeded, version-stable key → part routing on
//!   [`peachy_prng::StableHash64`], shared by the dataflow shuffle and the
//!   MapReduce collate so placement survives Rust upgrades.
//!
//! `Block` and `EvenBlocks` differ only in *grouping*: `Block` balances
//! sizes (first `n % parts` parts one element larger — rank/locale
//! decomposition), while `EvenBlocks` fixes the chunk length at
//! `⌈n/parts⌉` with a short final chunk — exactly the
//! `par_chunks` rule. The distinction matters because floating-point
//! reductions merge per-part partials in part order: the grouping *is* the
//! answer, bit for bit, so rewiring an existing `par_chunks_mut` loop must
//! use `EvenBlocks` to stay bit-identical.

use std::hash::Hash;
use std::ops::Range;

/// Seed for the repo-wide default key → part routing (dataflow shuffle,
/// MapReduce collate). Changing it reshuffles every hash-partitioned
/// pipeline, so it is fixed here once.
pub const ROUTE_SEED: u64 = 0x5eed_cafe_f00d_0042;

/// The Chapel balanced-block rule: part `part` of `parts` owns a contiguous
/// range of `0..n`, the first `n % parts` parts owning one extra element.
///
/// Total over its domain: `n` may be zero and `parts` may exceed `n`, in
/// which case trailing parts own empty ranges — what scatter math needs
/// when it must produce exactly one (possibly empty) chunk per rank.
#[inline]
pub fn block_range(n: usize, parts: usize, part: usize) -> Range<usize> {
    assert!(parts > 0, "need at least one part");
    assert!(part < parts, "part {part} out of range for {parts} parts");
    let base = n / parts;
    let extra = n % parts;
    let start = part * base + part.min(extra);
    start..(start + base + usize::from(part < extra))
}

/// Round-robin (cyclic) rule: part `part` of `parts` owns indices
/// `part, part + parts, part + 2·parts, …` — total like [`block_range`]
/// (a part past the end of a short domain owns nothing).
#[inline]
pub fn cyclic_indices(n: usize, parts: usize, part: usize) -> impl Iterator<Item = usize> {
    assert!(parts > 0, "need at least one part");
    assert!(part < parts, "part {part} out of range for {parts} parts");
    (part..n).step_by(parts)
}

/// Seeded, version-stable key → part routing: `stable_hash(key) % parts`.
///
/// Every caller that computes ownership of a hashed key (shuffle buckets,
/// MapReduce key owners) goes through here, so all of them agree and none
/// of them depend on `DefaultHasher`'s unstable internals.
#[inline]
pub fn owner_of_key<K: Hash + ?Sized>(key: &K, parts: usize, seed: u64) -> usize {
    assert!(parts > 0, "need at least one part");
    (peachy_prng::stable_hash(key, seed) % parts as u64) as usize
}

/// A partition of the index space `0..len()` into `parts()` disjoint,
/// collectively exhaustive index sets.
///
/// Laws (pinned by the `proptest_dist` suite):
/// * `part_indices(p)` for `p in 0..parts()` are pairwise disjoint and
///   their union is exactly `0..len()`;
/// * `owner_of(i) == p` iff `part_indices(p)` contains `i`;
/// * every part is non-empty (constructors clip `parts` when asked for
///   more parts than indices).
pub trait Distribution {
    /// Domain size.
    fn len(&self) -> usize;

    /// Whether the domain is empty. Derived from [`Distribution::len`] —
    /// honest for every impl (the typed constructors below require
    /// non-empty domains, so there it is `false` by *invariant*, not by a
    /// hardcoded branch).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of parts actually used (after clipping).
    fn parts(&self) -> usize;

    /// The part owning global index `i`.
    fn owner_of(&self, i: usize) -> usize;

    /// All indices owned by `part`, in ascending order.
    fn part_indices(&self, part: usize) -> Vec<usize>;
}

/// A distribution whose parts are contiguous ranges tiling `0..n` in part
/// order — the shape the executor needs to split a slice with
/// `split_at_mut`.
pub trait Contiguous: Distribution {
    /// The contiguous range owned by `part`.
    fn range_of(&self, part: usize) -> Range<usize>;
}

/// Chapel-style balanced block distribution (`Block.createDomain({0..<n})`):
/// contiguous parts whose sizes differ by at most one.
///
/// **Invariant (type-level):** `new` requires a non-empty domain and clips
/// the part count to `min(parts, n)`, so every constructed `Block` has
/// `1 ≤ parts ≤ n` and every part owns at least one index. There is no
/// `is_empty` escape hatch to consult — emptiness is unrepresentable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Block {
    n: usize,
    parts: usize,
}

// No inherent `is_empty`: `new` rejects n = 0, so it could only ever
// return false — the dead branch this type exists to make unrepresentable.
#[allow(clippy::len_without_is_empty)]
impl Block {
    /// Create a distribution; requires at least one index and one part.
    /// Asking for more parts than indices clips to one index per part.
    pub fn new(n: usize, parts: usize) -> Self {
        assert!(n > 0, "empty domain");
        assert!(parts > 0, "need at least one part");
        Self {
            n,
            parts: parts.min(n),
        }
    }

    /// Domain size.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Number of parts actually used (clipped to `n`).
    pub fn parts(&self) -> usize {
        self.parts
    }

    /// The contiguous range owned by `part` (first `n % parts` parts hold
    /// one extra element — the balanced block rule, via [`block_range`]).
    pub fn local_range(&self, part: usize) -> Range<usize> {
        assert!(part < self.parts, "part {part} out of range");
        block_range(self.n, self.parts, part)
    }

    /// The part owning global index `i` (inverse of [`Block::local_range`]).
    pub fn owner_of(&self, i: usize) -> usize {
        assert!(i < self.n, "index {i} out of domain");
        let base = self.n / self.parts;
        let extra = self.n % self.parts;
        let boundary = extra * (base + 1);
        if i < boundary {
            i / (base + 1)
        } else {
            extra + (i - boundary) / base
        }
    }
}

impl Distribution for Block {
    fn len(&self) -> usize {
        self.n
    }
    fn parts(&self) -> usize {
        self.parts
    }
    fn owner_of(&self, i: usize) -> usize {
        Block::owner_of(self, i)
    }
    fn part_indices(&self, part: usize) -> Vec<usize> {
        self.local_range(part).collect()
    }
}

impl Contiguous for Block {
    fn range_of(&self, part: usize) -> Range<usize> {
        self.local_range(part)
    }
}

/// Fixed-chunk-length blocks: chunk length `⌈n/parts⌉`, last chunk short —
/// **exactly** the `par_chunks`/`par_chunks_mut` decomposition.
///
/// Use this (not [`Block`]) when rewiring an existing `par_chunks` loop:
/// the per-part grouping of a floating-point reduction is part of its
/// bit-exact output, and the two rules group differently whenever
/// `n % parts != 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvenBlocks {
    n: usize,
    chunk_len: usize,
    parts: usize,
}

// Same as `Block`: n > 0 by construction, so `is_empty` would be dead.
#[allow(clippy::len_without_is_empty)]
impl EvenBlocks {
    /// Split `0..n` into chunks of length `⌈n/max_parts⌉`; the actual part
    /// count is `⌈n/chunk_len⌉ ≤ max_parts`, every part non-empty.
    /// Requires a non-empty domain, like [`Block::new`].
    pub fn new(n: usize, max_parts: usize) -> Self {
        assert!(n > 0, "empty domain");
        assert!(max_parts > 0, "need at least one part");
        let chunk_len = n.div_ceil(max_parts).max(1);
        Self {
            n,
            chunk_len,
            parts: n.div_ceil(chunk_len),
        }
    }

    /// Domain size.
    pub fn len(&self) -> usize {
        self.n
    }

    /// The fixed chunk length (`⌈n/max_parts⌉`).
    pub fn chunk_len(&self) -> usize {
        self.chunk_len
    }

    /// Number of parts actually used.
    pub fn parts(&self) -> usize {
        self.parts
    }

    /// The contiguous range owned by `part` (the final part may be short).
    pub fn local_range(&self, part: usize) -> Range<usize> {
        assert!(part < self.parts, "part {part} out of range");
        let start = part * self.chunk_len;
        start..(start + self.chunk_len).min(self.n)
    }
}

impl Distribution for EvenBlocks {
    fn len(&self) -> usize {
        self.n
    }
    fn parts(&self) -> usize {
        self.parts
    }
    fn owner_of(&self, i: usize) -> usize {
        assert!(i < self.n, "index {i} out of domain");
        i / self.chunk_len
    }
    fn part_indices(&self, part: usize) -> Vec<usize> {
        self.local_range(part).collect()
    }
}

impl Contiguous for EvenBlocks {
    fn range_of(&self, part: usize) -> Range<usize> {
        self.local_range(part)
    }
}

/// Cyclic (round-robin) distribution: index `i` belongs to part
/// `i % parts`. Clips `parts` to `min(parts, n)`, so every part owns at
/// least index `part` itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cyclic {
    n: usize,
    parts: usize,
}

impl Cyclic {
    /// Create a cyclic distribution; requires a non-empty domain.
    pub fn new(n: usize, parts: usize) -> Self {
        assert!(n > 0, "empty domain");
        assert!(parts > 0, "need at least one part");
        Self {
            n,
            parts: parts.min(n),
        }
    }
}

impl Distribution for Cyclic {
    fn len(&self) -> usize {
        self.n
    }
    fn parts(&self) -> usize {
        self.parts
    }
    fn owner_of(&self, i: usize) -> usize {
        assert!(i < self.n, "index {i} out of domain");
        i % self.parts
    }
    fn part_indices(&self, part: usize) -> Vec<usize> {
        cyclic_indices(self.n, self.parts, part).collect()
    }
}

/// Block-cyclic distribution: blocks of `block` consecutive indices dealt
/// round-robin to parts — Chapel's `BlockCyclic`, the compromise between
/// locality (within a block) and load balance (across blocks). Clips
/// `parts` to the number of blocks, so every part owns a whole block at
/// minimum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockCyclic {
    n: usize,
    parts: usize,
    block: usize,
}

impl BlockCyclic {
    /// Create a block-cyclic distribution with the given block length.
    pub fn new(n: usize, parts: usize, block: usize) -> Self {
        assert!(n > 0, "empty domain");
        assert!(parts > 0, "need at least one part");
        assert!(block > 0, "need a positive block length");
        let blocks = n.div_ceil(block);
        Self {
            n,
            parts: parts.min(blocks),
            block,
        }
    }

    /// The block length.
    pub fn block_len(&self) -> usize {
        self.block
    }
}

impl Distribution for BlockCyclic {
    fn len(&self) -> usize {
        self.n
    }
    fn parts(&self) -> usize {
        self.parts
    }
    fn owner_of(&self, i: usize) -> usize {
        assert!(i < self.n, "index {i} out of domain");
        (i / self.block) % self.parts
    }
    fn part_indices(&self, part: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let mut b = part;
        loop {
            let start = b * self.block;
            if start >= self.n {
                break;
            }
            out.extend(start..(start + self.block).min(self.n));
            b += self.parts;
        }
        out
    }
}

/// Consistent-hash ring with virtual nodes: seeded, version-stable
/// key → member routing that stays *almost entirely* put when membership
/// changes.
///
/// [`owner_of_key`] (`hash % parts`) reshuffles ~`n/(n+1)` of all keys
/// when the part count grows from `n` to `n+1` — fine for a shuffle that
/// rebuilds every partition anyway, fatal for a serving tier whose parts
/// carry warm state. The ring fixes this: each member contributes
/// `vnodes` points at `stable_hash((member, vnode), seed)` on a `u64`
/// circle, and a key belongs to the first point at or after its own hash
/// (wrapping). Adding a member only claims the arcs its new points cut;
/// every other key keeps its owner — the minimal-movement law pinned by
/// `cluster/tests/hashring_laws.rs`.
///
/// Determinism contract: the ring is a pure function of
/// `(members, vnodes, seed)`. Member order at construction is irrelevant
/// (members are sorted and deduplicated), point-hash ties break by member
/// id, and hashing goes through [`peachy_prng::StableHash64`], so
/// placement survives Rust upgrades and replays bit-identically — the
/// property the sharded serving tier's epoch maps are built on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashRing {
    seed: u64,
    vnodes: usize,
    members: Vec<usize>,
    /// `(point_hash, member)`, sorted — the circle, flattened.
    points: Vec<(u64, usize)>,
}

impl HashRing {
    /// Build the ring for `members` with `vnodes` points per member.
    ///
    /// Panics if `members` is empty or `vnodes` is zero. Duplicate member
    /// ids are collapsed.
    pub fn new<I: IntoIterator<Item = usize>>(members: I, vnodes: usize, seed: u64) -> Self {
        let mut members: Vec<usize> = members.into_iter().collect();
        members.sort_unstable();
        members.dedup();
        assert!(!members.is_empty(), "a hash ring needs at least one member");
        assert!(vnodes > 0, "need at least one virtual node per member");
        let mut points = Vec::with_capacity(members.len() * vnodes);
        for &m in &members {
            for v in 0..vnodes {
                points.push((peachy_prng::stable_hash(&(m as u64, v as u64), seed), m));
            }
        }
        points.sort_unstable();
        Self {
            seed,
            vnodes,
            members,
            points,
        }
    }

    /// The members on the ring, ascending.
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// Virtual nodes per member.
    pub fn vnodes(&self) -> usize {
        self.vnodes
    }

    /// The routing seed the ring was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether `member` is on the ring.
    pub fn contains(&self, member: usize) -> bool {
        self.members.binary_search(&member).is_ok()
    }

    /// The member owning `key`: the first ring point at or after
    /// `stable_hash(key, seed)`, wrapping past the top of the circle.
    pub fn owner_of_key<K: Hash + ?Sized>(&self, key: &K) -> usize {
        let h = peachy_prng::stable_hash(key, self.seed);
        // First point with hash >= h; ties already ordered by member id
        // because `points` is sorted on the full (hash, member) pair.
        let idx = self.points.partition_point(|&(p, _)| p < h);
        if idx == self.points.len() {
            self.points[0].1
        } else {
            self.points[idx].1
        }
    }

    /// A new ring with `member` added (no-op clone if already present).
    pub fn with_member(&self, member: usize) -> Self {
        if self.contains(member) {
            return self.clone();
        }
        let mut members = self.members.clone();
        members.push(member);
        Self::new(members, self.vnodes, self.seed)
    }

    /// A new ring with `member` removed.
    ///
    /// Panics if `member` is the last one — an empty ring routes nothing.
    pub fn without_member(&self, member: usize) -> Self {
        let members: Vec<usize> = self
            .members
            .iter()
            .copied()
            .filter(|&m| m != member)
            .collect();
        assert!(
            !members.is_empty(),
            "removing member {member} would empty the ring"
        );
        Self::new(members, self.vnodes, self.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_range_covers_everything_including_empty() {
        for n in [0usize, 1, 7, 10, 100, 1001] {
            for parts in [1usize, 2, 3, 8, 16] {
                let mut next = 0;
                for p in 0..parts {
                    let r = block_range(n, parts, p);
                    assert_eq!(r.start, next, "n={n} parts={parts} p={p}");
                    next = r.end;
                }
                assert_eq!(next, n);
            }
        }
    }

    #[test]
    fn block_ranges_partition_domain() {
        for n in [1usize, 7, 10, 100, 1001] {
            for parts in [1usize, 2, 3, 8, 16] {
                let dist = Block::new(n, parts);
                let mut next = 0;
                for p in 0..dist.parts() {
                    let r = dist.local_range(p);
                    assert_eq!(r.start, next, "n={n} parts={parts} p={p}");
                    next = r.end;
                    assert!(!r.is_empty(), "every used part owns something");
                }
                assert_eq!(next, n);
            }
        }
    }

    #[test]
    fn block_owner_agrees_with_ranges() {
        for n in [5usize, 17, 64] {
            for parts in [1usize, 2, 5, 7] {
                let dist = Block::new(n, parts);
                for i in 0..n {
                    let p = dist.owner_of(i);
                    assert!(
                        dist.local_range(p).contains(&i),
                        "n={n} parts={parts} i={i}"
                    );
                }
            }
        }
    }

    #[test]
    fn block_more_parts_than_indices_clipped() {
        let dist = Block::new(3, 10);
        assert_eq!(dist.parts(), 3);
        assert_eq!(dist.local_range(0), 0..1);
        assert_eq!(dist.local_range(2), 2..3);
    }

    #[test]
    fn block_balanced_sizes() {
        let dist = Block::new(10, 4);
        let sizes: Vec<usize> = (0..4).map(|p| dist.local_range(p).len()).collect();
        assert_eq!(sizes, vec![3, 3, 2, 2]);
    }

    #[test]
    fn even_blocks_match_par_chunks_rule() {
        // 10 over 4 parts: par_chunks rule gives ⌈10/4⌉ = 3 → [3,3,3,1],
        // unlike Block's balanced [3,3,2,2].
        let dist = EvenBlocks::new(10, 4);
        assert_eq!(dist.chunk_len(), 3);
        assert_eq!(dist.parts(), 4);
        let sizes: Vec<usize> = (0..4).map(|p| dist.local_range(p).len()).collect();
        assert_eq!(sizes, vec![3, 3, 3, 1]);
        // Decomposition == exactly what slice::chunks produces.
        let data: Vec<usize> = (0..10).collect();
        let chunks: Vec<&[usize]> = data.chunks(dist.chunk_len()).collect();
        assert_eq!(chunks.len(), dist.parts());
        for (p, c) in chunks.iter().enumerate() {
            assert_eq!(&data[dist.local_range(p)], *c);
        }
    }

    #[test]
    fn even_blocks_clip_when_parts_exceed_n() {
        let dist = EvenBlocks::new(3, 64);
        assert_eq!(dist.chunk_len(), 1);
        assert_eq!(dist.parts(), 3);
    }

    #[test]
    fn cyclic_deals_round_robin() {
        let dist = Cyclic::new(10, 3);
        assert_eq!(dist.part_indices(0), vec![0, 3, 6, 9]);
        assert_eq!(dist.part_indices(1), vec![1, 4, 7]);
        assert_eq!(dist.part_indices(2), vec![2, 5, 8]);
        for i in 0..10 {
            assert_eq!(dist.owner_of(i), i % 3);
        }
    }

    #[test]
    fn block_cyclic_interleaves_blocks() {
        let dist = BlockCyclic::new(10, 2, 2);
        // Blocks [0,1][2,3][4,5][6,7][8,9] dealt to parts 0,1,0,1,0.
        assert_eq!(dist.part_indices(0), vec![0, 1, 4, 5, 8, 9]);
        assert_eq!(dist.part_indices(1), vec![2, 3, 6, 7]);
        assert_eq!(dist.owner_of(5), 0);
        assert_eq!(dist.owner_of(6), 1);
    }

    #[test]
    fn route_is_stable_and_in_range() {
        for key in 0..1000u64 {
            let p = owner_of_key(&key, 7, ROUTE_SEED);
            assert!(p < 7);
            assert_eq!(p, owner_of_key(&key, 7, ROUTE_SEED));
        }
        // Seed participates in placement.
        let moved = (0..1000u64)
            .filter(|k| owner_of_key(k, 7, 1) != owner_of_key(k, 7, 2))
            .count();
        assert!(moved > 500, "reseeding must reshuffle: {moved}/1000 moved");
    }

    #[test]
    fn hash_ring_is_order_insensitive_and_stable() {
        let a = HashRing::new([4, 0, 2, 0], 16, 99);
        let b = HashRing::new([0, 2, 4], 16, 99);
        assert_eq!(a, b);
        assert_eq!(a.members(), &[0, 2, 4]);
        for key in 0..500u64 {
            let owner = a.owner_of_key(&key);
            assert!(a.contains(owner));
            assert_eq!(owner, b.owner_of_key(&key));
        }
    }

    #[test]
    fn hash_ring_spreads_keys_over_all_members() {
        let ring = HashRing::new(0..5, 64, ROUTE_SEED);
        let mut counts = [0usize; 5];
        for key in 0..2000u64 {
            counts[ring.owner_of_key(&key)] += 1;
        }
        for (m, &c) in counts.iter().enumerate() {
            assert!(c > 0, "member {m} owns nothing");
        }
    }

    #[test]
    fn hash_ring_membership_edits_round_trip() {
        let ring = HashRing::new(0..3, 8, 7);
        let grown = ring.with_member(3);
        assert_eq!(grown.members(), &[0, 1, 2, 3]);
        assert_eq!(grown.without_member(3), ring);
        // Adding an existing member is a no-op.
        assert_eq!(ring.with_member(1), ring);
    }

    #[test]
    #[should_panic(expected = "empty the ring")]
    fn hash_ring_refuses_to_empty() {
        HashRing::new([5], 4, 0).without_member(5);
    }
}
