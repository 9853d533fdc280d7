//! One backend seam for every assignment: "partition → local compute →
//! combine", expressed once.
//!
//! Every parallel leg in the repo is the same shape — decompose an index
//! space with a [`crate::dist::Contiguous`] distribution, run a
//! per-part kernel, merge results in part order. [`Executor`] owns that
//! shape for three backends:
//!
//! * [`Executor::Seq`] — one part, plain loop; the bit-exactness oracle.
//! * [`Executor::Rayon`] — the distribution's parts run on the rayon pool.
//!   Parts, ranges, and merge order are fixed by the *distribution*, never
//!   by the pool size, so output is bit-identical across thread counts.
//! * [`Executor::Cluster`] — each part becomes a rank on the in-process
//!   [`Cluster`]: part data is scattered, the kernel runs rank-local, and
//!   per-rank results (plus mutated data) are gathered back to part order
//!   at the root. A [`FaultPlan`] can ride along for chaos testing.
//!
//! The determinism contract: for a fixed distribution, all three backends
//! call the kernel with identical `(part, global_range, local_slice)`
//! arguments and merge the returned values in ascending part order.
//! Backends differ only in *where* the kernel runs and (on `Cluster`)
//! whether data movement is a borrow or a message — which is exactly what
//! the [`CommStats`] counters make visible.

use std::ops::Range;

use peachy_par::prelude::*;

use crate::dist::Contiguous;
use crate::fault::FaultPlan;
use crate::message::ByteSized;
use crate::stats::CommStats;
use crate::Cluster;

/// A compute backend for partitioned loops.
#[derive(Debug, Clone)]
pub enum Executor {
    /// Sequential reference backend: every part runs in order on the
    /// calling thread.
    Seq,
    /// Shared-memory backend: parts run on the rayon pool. `chunks` is the
    /// *requested* decomposition width handed to distribution constructors
    /// (which clip it to the domain size).
    Rayon {
        /// Requested number of parts for distributions built against this
        /// executor.
        chunks: usize,
    },
    /// Distributed-memory backend: one in-process rank per part, data moved
    /// by scatter/gather collectives.
    Cluster {
        /// Number of ranks to spawn.
        ranks: usize,
        /// Transport-fault schedule; [`FaultPlan::none`] for a clean run.
        plan: FaultPlan,
    },
}

impl std::str::FromStr for Executor {
    type Err = String;

    /// `"seq"`, `"rayon:4"`, `"cluster:4"` — the textual form CLI flags
    /// and scenario specs use. Cluster backends parse with a clean
    /// transport; attach a [`FaultPlan`] by building the variant directly.
    fn from_str(s: &str) -> Result<Self, String> {
        let parts = |rest: &str| -> Result<usize, String> {
            let n: usize = rest
                .parse()
                .map_err(|_| format!("bad part count in executor `{s}`"))?;
            if n == 0 {
                return Err(format!("executor `{s}` needs at least one part"));
            }
            Ok(n)
        };
        match s.split_once(':') {
            None if s == "seq" => Ok(Executor::Seq),
            Some(("rayon", rest)) => Ok(Executor::rayon(parts(rest)?)),
            Some(("cluster", rest)) => Ok(Executor::cluster(parts(rest)?)),
            _ => Err(format!(
                "unknown executor `{s}` (want seq, rayon:N, or cluster:N)"
            )),
        }
    }
}

impl Executor {
    /// The sequential backend.
    pub fn seq() -> Self {
        Executor::Seq
    }

    /// The rayon backend with `chunks` requested parts.
    pub fn rayon(chunks: usize) -> Self {
        assert!(chunks > 0, "need at least one chunk");
        Executor::Rayon { chunks }
    }

    /// The cluster backend with `ranks` ranks and a clean transport.
    pub fn cluster(ranks: usize) -> Self {
        assert!(ranks > 0, "need at least one rank");
        Executor::Cluster {
            ranks,
            plan: FaultPlan::none(),
        }
    }

    /// The decomposition width this backend asks of a domain of `n`
    /// indices: 1 for `Seq`, the requested chunk/rank count otherwise,
    /// clipped to `n` so distribution constructors accept it as-is.
    pub fn parts_for(&self, n: usize) -> usize {
        let raw = match self {
            Executor::Seq => 1,
            Executor::Rayon { chunks } => *chunks,
            Executor::Cluster { ranks, .. } => *ranks,
        };
        raw.min(n).max(1)
    }

    /// Run `f(part, global_range, local_slice)` over every part of `dist`,
    /// mutating `data` in place, and return the per-part results in part
    /// order.
    ///
    /// `data.len()` must equal `dist.len()`; the slice passed to `f` is the
    /// part's own window of `data` (on `Cluster`, a scattered copy that is
    /// gathered back verbatim). With `Some(stats)` the run is counted:
    /// elements scattered/gathered always, payload bytes only on the
    /// `Cluster` backend (shared-memory backends move no bytes).
    pub fn map_parts_mut<D, T, A, F>(
        &self,
        dist: &D,
        data: &mut [T],
        stats: Option<&CommStats>,
        f: F,
    ) -> Vec<A>
    where
        D: Contiguous + Sync,
        T: Clone + Send + Sync + ByteSized + 'static,
        A: Send + ByteSized + 'static,
        F: Fn(usize, Range<usize>, &mut [T]) -> A + Send + Sync,
    {
        let n = dist.len();
        assert_eq!(data.len(), n, "data length must match the distribution");
        let parts = dist.parts();
        if let Some(s) = stats {
            s.add_scattered(n as u64);
            s.add_gathered(n as u64);
        }
        match self {
            Executor::Seq | Executor::Rayon { .. } => {
                // Slice the buffer into the distribution's windows up
                // front; the decomposition (and thus the merge grouping)
                // comes from `dist` alone.
                let mut windows = Vec::with_capacity(parts);
                let mut rest = data;
                let mut offset = 0;
                for p in 0..parts {
                    let r = dist.range_of(p);
                    debug_assert_eq!(r.start, offset, "contiguous parts tile in order");
                    let (head, tail) = rest.split_at_mut(r.len());
                    offset = r.end;
                    windows.push((p, r, head));
                    rest = tail;
                }
                match self {
                    Executor::Seq => windows.into_iter().map(|(p, r, w)| f(p, r, w)).collect(),
                    // Indexed parallel collect preserves part order: the
                    // in-order merge is structural, not a race winner.
                    _ => windows
                        .into_par_iter()
                        .map(|(p, r, w)| f(p, r, w))
                        .collect(),
                }
            }
            Executor::Cluster { ranks, plan } => {
                // One rank per part; a distribution narrower than the
                // configured rank count (EvenBlocks' ceil-sized chunks can
                // collapse below `parts_for`) just leaves ranks unspawned.
                assert!(
                    parts <= *ranks,
                    "cluster executor needs one rank per part (build the \
                     distribution with parts_for)"
                );
                if let Some(s) = stats {
                    s.add_collective_bytes(
                        2 * (n * std::mem::size_of::<T>()) as u64
                            + (parts * std::mem::size_of::<A>()) as u64,
                    );
                }
                let chunks: Vec<Vec<T>> = (0..parts)
                    .map(|p| data[dist.range_of(p)].to_vec())
                    .collect();
                // The root *takes* the chunk set instead of cloning it into
                // the scatter: the closure runs once per rank, and only the
                // root reaches for the payload, so the second full copy of
                // the dataset the old `chunks.clone()` made is gone.
                let chunks = std::sync::Mutex::new(Some(chunks));
                let f = &f;
                let mut rank_results = Cluster::run_with_plan(parts, plan, move |comm| {
                    let rank = comm.rank();
                    let mut local = comm.scatter(
                        0,
                        (rank == 0).then(|| {
                            chunks
                                .lock()
                                .expect("chunk handoff")
                                .take()
                                .expect("root takes the chunks exactly once")
                        }),
                    );
                    let a = f(rank, dist.range_of(rank), &mut local);
                    let gathered = comm.gather(0, (a, local));
                    // Measured bytes: whatever this rank's transport
                    // actually moved (scatter chunks at the root, the
                    // (result, data) gather everywhere else).
                    if let Some(s) = stats {
                        s.add_bytes(comm.bytes_sent());
                    }
                    gathered
                });
                let gathered = rank_results
                    .swap_remove(0)
                    .unwrap_or_else(|e| panic!("{e}"))
                    .expect("root holds the gather");
                let mut out = Vec::with_capacity(parts);
                for (p, (a, local)) in gathered.into_iter().enumerate() {
                    data[dist.range_of(p)].clone_from_slice(&local);
                    out.push(a);
                }
                out
            }
        }
    }

    /// Run `f(part, global_range)` over every part of `dist` (no shared
    /// buffer) and return the per-part results in part order, counted into
    /// `stats` when given (see [`Executor::map_parts_mut`]).
    pub fn map_parts<D, A, F>(&self, dist: &D, stats: Option<&CommStats>, f: F) -> Vec<A>
    where
        D: Contiguous + Sync,
        A: Send + ByteSized + 'static,
        F: Fn(usize, Range<usize>) -> A + Send + Sync,
    {
        let parts = dist.parts();
        if let Some(s) = stats {
            s.add_scattered(dist.len() as u64);
            s.add_gathered(parts as u64);
        }
        match self {
            Executor::Seq => (0..parts).map(|p| f(p, dist.range_of(p))).collect(),
            Executor::Rayon { .. } => (0..parts)
                .into_par_iter()
                .map(|p| f(p, dist.range_of(p)))
                .collect(),
            Executor::Cluster { ranks, plan } => {
                // See map_parts_mut: parts ≤ ranks, extra ranks idle.
                assert!(
                    parts <= *ranks,
                    "cluster executor needs one rank per part (build the \
                     distribution with parts_for)"
                );
                if let Some(s) = stats {
                    s.add_collective_bytes((parts * std::mem::size_of::<A>()) as u64);
                }
                let f = &f;
                let mut rank_results = Cluster::run_with_plan(parts, plan, move |comm| {
                    let rank = comm.rank();
                    let a = f(rank, dist.range_of(rank));
                    let gathered = comm.gather(0, a);
                    if let Some(s) = stats {
                        s.add_bytes(comm.bytes_sent());
                    }
                    gathered
                });
                rank_results
                    .swap_remove(0)
                    .unwrap_or_else(|e| panic!("{e}"))
                    .expect("root holds the gather")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{Block, EvenBlocks};

    fn sum_kernel(_p: usize, r: Range<usize>, w: &mut [u64]) -> u64 {
        for (i, v) in r.clone().zip(w.iter_mut()) {
            *v = (i as u64) * 3;
        }
        w.iter().sum()
    }

    #[test]
    fn backends_agree_bit_for_bit() {
        let n = 101;
        for parts in [1usize, 2, 4, 7] {
            let dist = Block::new(n, parts);
            let mut seq_data = vec![0u64; n];
            let seq = Executor::seq().map_parts_mut(&dist, &mut seq_data, None, sum_kernel);

            let mut ray_data = vec![0u64; n];
            let ray = Executor::rayon(parts).map_parts_mut(&dist, &mut ray_data, None, sum_kernel);

            let mut clu_data = vec![0u64; n];
            let clu = Executor::cluster(dist.parts()).map_parts_mut(
                &dist,
                &mut clu_data,
                None,
                sum_kernel,
            );

            assert_eq!(seq, ray, "parts={parts}");
            assert_eq!(seq, clu, "parts={parts}");
            assert_eq!(seq_data, ray_data);
            assert_eq!(seq_data, clu_data);
        }
    }

    #[test]
    fn cluster_writes_mutations_back() {
        let dist = Block::new(10, 3);
        let mut data: Vec<u64> = (0..10).collect();
        Executor::cluster(3).map_parts_mut(&dist, &mut data, None, |_, _, w| {
            for v in w.iter_mut() {
                *v += 100;
            }
        });
        let expect: Vec<u64> = (100..110).collect();
        assert_eq!(data, expect);
    }

    #[test]
    fn merge_order_is_part_order() {
        let dist = EvenBlocks::new(10, 4);
        let mut data = vec![0u8; 10];
        let parts = Executor::rayon(4).map_parts_mut(&dist, &mut data, None, |p, _, _| p);
        assert_eq!(parts, vec![0, 1, 2, 3]);
        let ranges = Executor::seq().map_parts(&dist, None, |_, r| r);
        assert_eq!(ranges, vec![0..3, 3..6, 6..9, 9..10]);
    }

    #[test]
    fn counters_see_bytes_only_on_cluster() {
        let dist = Block::new(8, 2);
        let mut data = vec![0u64; 8];

        let s = CommStats::new();
        Executor::rayon(2).map_parts_mut(&dist, &mut data, Some(&s), |_, _, _| 0u64);
        assert_eq!(s.scattered(), 8);
        assert_eq!(s.gathered(), 8);
        assert_eq!(s.collective_bytes(), 0, "borrows move no bytes");
        assert_eq!(s.bytes(), 0, "borrows move no measured bytes either");

        let s = CommStats::new();
        Executor::cluster(2).map_parts_mut(&dist, &mut data, Some(&s), |_, _, _| 0u64);
        assert_eq!(s.scattered(), 8);
        assert_eq!(s.gathered(), 8);
        // Analytic estimate: 8 u64 scattered + 8 gathered back + 2 u64
        // results, root chunk included.
        assert_eq!(s.collective_bytes(), (16 + 2) * 8);
        // Measured transport bytes exclude the root's rank-local chunk:
        // the root scatters rank 1's 4-u64 chunk (32 B) and rank 1
        // gathers back `(0u64, [u64; 4])` (8 + 32 = 40 B).
        assert_eq!(s.bytes(), 32 + 40);

        let s = CommStats::new();
        let dist3 = Block::new(9, 3);
        Executor::cluster(3).map_parts(&dist3, Some(&s), |_, _| 0u64);
        // Immutable path moves only the gathered results: two non-root
        // ranks each send one u64.
        assert_eq!(s.bytes(), 16);
    }

    #[test]
    fn immutable_map_gathers_results() {
        let dist = Block::new(9, 3);
        for exec in [Executor::seq(), Executor::rayon(3), Executor::cluster(3)] {
            let sums = exec.map_parts(&dist, None, |_, r| r.map(|i| i as u64).sum::<u64>());
            assert_eq!(sums.iter().sum::<u64>(), 36, "{exec:?}");
            assert_eq!(sums.len(), 3);
        }
    }

    #[test]
    fn cluster_tolerates_collapsed_distributions() {
        // EvenBlocks' ceil-sized chunks can yield fewer parts than asked
        // for (4 items / 3 parts → chunks of 2 → 2 parts); the cluster
        // backend must serve the narrower distribution with idle ranks
        // rather than assert.
        let dist = EvenBlocks::new(4, 3);
        assert_eq!(dist.parts(), 2);
        for exec in [Executor::cluster(3), Executor::rayon(3), Executor::seq()] {
            let sums = exec.map_parts(&dist, None, |_, r| r.map(|i| i as u64).sum::<u64>());
            assert_eq!(sums.iter().sum::<u64>(), 6, "{exec:?}");
            assert_eq!(sums.len(), 2);
        }
        // A domain smaller than the configured rank count: `parts_for`
        // clips the width, so a 4-rank executor serves a 2-element batch
        // on 2 ranks, unshrunk, with Seq's sums.
        let exec = Executor::cluster(4);
        let dist = Block::new(2, exec.parts_for(2));
        let kernel = |_, r: Range<usize>| r.map(|i| i as u64 + 1).sum::<u64>();
        let sums = exec.map_parts(&dist, None, kernel);
        assert_eq!(sums, Executor::seq().map_parts(&dist, None, kernel));
        assert_eq!(sums.iter().sum::<u64>(), 3);
        assert_eq!(sums.len(), 2);
    }

    #[test]
    fn parts_for_clips_to_domain() {
        assert_eq!(Executor::seq().parts_for(100), 1);
        assert_eq!(Executor::rayon(8).parts_for(100), 8);
        assert_eq!(Executor::rayon(8).parts_for(3), 3);
        assert_eq!(Executor::cluster(4).parts_for(2), 2);
    }
}
