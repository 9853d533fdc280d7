//! Consistent-hashing stability laws for [`HashRing`].
//!
//! The ring exists for exactly one reason: membership changes must move
//! almost nothing. These tests pin that as two laws over a seed × size
//! grid:
//!
//! 1. **Monotonicity** (strict, not statistical): growing the ring from
//!    `n` to `n+1` members changes a key's owner only if the new owner
//!    *is* the new member; shrinking changes it only for keys the removed
//!    member owned. No key ever moves between two surviving members.
//! 2. **Minimal movement** (statistical, generous slack): the fraction
//!    moved on grow is close to `1/(n+1)` — and far below the mod-hash
//!    strawman `owner_of_key`, which moves ~`n/(n+1)` of everything.
//!
//! Both laws hold per seed, so the grid runs a few seeds and several ring
//! sizes; `vnodes = 64` keeps arc-length variance small enough for the
//! statistical bound without slowing the suite.

use peachy_cluster::dist::owner_of_key;
use peachy_cluster::HashRing;

const KEYS: u64 = 2000;
const VNODES: usize = 64;

fn owners(ring: &HashRing) -> Vec<usize> {
    (0..KEYS).map(|k| ring.owner_of_key(&k)).collect()
}

#[test]
fn growth_only_moves_keys_to_the_new_member() {
    for seed in [1u64, 2, 7, 42] {
        for n in [2usize, 3, 5, 8] {
            let ring = HashRing::new(0..n, VNODES, seed);
            let grown = ring.with_member(n);
            for (key, (&before, &after)) in owners(&ring).iter().zip(&owners(&grown)).enumerate() {
                if before != after {
                    assert_eq!(
                        after, n,
                        "seed {seed} n {n}: key {key} moved {before} → {after}, \
                         but only the new member may gain keys"
                    );
                }
            }
        }
    }
}

#[test]
fn shrink_only_moves_the_removed_members_keys() {
    for seed in [1u64, 2, 7, 42] {
        for n in [3usize, 5, 8] {
            let ring = HashRing::new(0..n, VNODES, seed);
            let removed = n / 2;
            let shrunk = ring.without_member(removed);
            for (key, (&before, &after)) in owners(&ring).iter().zip(&owners(&shrunk)).enumerate() {
                if before != after {
                    assert_eq!(
                        before, removed,
                        "seed {seed} n {n}: key {key} moved {before} → {after}, \
                         but only the removed member's keys may move"
                    );
                }
            }
        }
    }
}

#[test]
fn growth_moves_about_one_nth_and_beats_mod_hash() {
    for seed in [1u64, 2, 7, 42] {
        for n in [2usize, 4, 8] {
            let ring = HashRing::new(0..n, VNODES, seed);
            let grown = ring.with_member(n);
            let ring_moved = owners(&ring)
                .iter()
                .zip(&owners(&grown))
                .filter(|(b, a)| b != a)
                .count() as u64;

            // Expectation is K/(n+1); vnode arc-length variance gives
            // slack, but 2× expectation stays comfortably clear of it.
            let expected = KEYS / (n as u64 + 1);
            assert!(
                ring_moved <= 2 * expected,
                "seed {seed} n {n}: ring moved {ring_moved} of {KEYS} keys \
                 (expected ≈{expected})"
            );
            assert!(
                ring_moved > 0,
                "seed {seed} n {n}: the new member got nothing"
            );

            // The mod-hash strawman reshuffles ≈ n/(n+1) of the keys — n×
            // the ring's share. Requiring a 1.5× margin keeps the law sharp
            // for every n ≥ 2 while leaving room for arc-length variance
            // (at n = 2 the expected ratio is exactly 2×).
            let mod_moved = (0..KEYS)
                .filter(|k| owner_of_key(k, n, seed) != owner_of_key(k, n + 1, seed))
                .count() as u64;
            assert!(
                ring_moved * 3 < mod_moved * 2,
                "seed {seed} n {n}: ring moved {ring_moved}, mod-hash moved {mod_moved} — \
                 the ring must move far fewer keys"
            );
        }
    }
}

#[test]
fn add_then_remove_restores_every_owner() {
    for seed in [3u64, 11] {
        let ring = HashRing::new([0, 2, 5, 9], VNODES, seed);
        let round_trip = ring.with_member(7).without_member(7);
        assert_eq!(owners(&ring), owners(&round_trip));
        assert_eq!(ring, round_trip);
    }
}
