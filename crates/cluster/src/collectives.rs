//! MPI-style collective operations.
//!
//! Every collective advances the communicator's internal sequence number,
//! which is folded into the message match key — so consecutive collectives
//! cannot interfere even when fast ranks race ahead, and user point-to-point
//! traffic can never be mistaken for collective traffic.
//!
//! The default algorithms mirror production MPI structure:
//!
//! * [`Comm::barrier`] — dissemination, `⌈log₂ n⌉` rounds;
//! * [`Comm::broadcast`] / [`Comm::reduce`] — binomial tree, `O(log n)` depth;
//! * [`Comm::allreduce`] — reduce + broadcast;
//! * [`Comm::allgather`] — ring, `n − 1` rounds;
//! * [`Comm::alltoall`] — direct pairwise exchange.
//!
//! Linear variants ([`Comm::broadcast_linear`], [`Comm::reduce_linear`]) are
//! kept for the ablation benchmark comparing flat vs. tree collectives — the
//! "architectural knowledge can help design faster code" lesson of §2.
//!
//! **Zero-copy payloads**: pass a [`Shared`] (`Arc`) payload to the one
//! collective. [`Comm::broadcast`], [`Comm::broadcast_linear`] and
//! [`Comm::allgather`] at `T = Shared<U>` run the same topology and the
//! same `(seq, round)` keys, but the clone each edge makes is a refcount
//! bump instead of a deep copy, so the per-child cost is independent of
//! the payload size. The shared payload is immutable, so distributed-memory
//! semantics are preserved, and `ByteSized for Arc<U>` reports `U`'s bytes,
//! so byte accounting charges the *logical* value per edge either way.
//! [`Comm::allreduce_shared`] is the one shared-only entry point: non-root
//! ranks have no value to hand the broadcast, so it pairs the reduction
//! with a receive-only broadcast of the total as one `Shared` allocation.
//!
//! **Failure semantics** (fail-stop, see DESIGN.md "Failure model"): a
//! collective has no partial-completion story. If a participating rank dies
//! mid-collective, every rank blocked on a message from it aborts with a
//! peer-death classification instead of hanging; the abort cascades along
//! the communication tree (each aborting rank broadcasts its own death
//! notice), so under [`Cluster::run_with_plan`](crate::Cluster::run_with_plan)
//! the whole job terminates with the victim reported as the primary failure
//! and every survivor as a `PeerDead` casualty — mirroring how MPI tears
//! down a communicator after a member fails. Plans that only delay,
//! duplicate, or reorder messages leave collective results bit-identical:
//! matching is by `(source, seq, round)`, never by arrival order.

use std::sync::Arc;

use crate::comm::Comm;
use crate::message::{ByteSized, MatchKey};

/// A zero-copy collective payload: one allocation, reference-counted
/// across the ranks of the in-process cluster. Sharing is immutable, so
/// the "no shared mutable state" discipline holds — an `Arc` hop models
/// handing a peer a read-only buffer instead of serializing a copy.
pub type Shared<T> = Arc<T>;

/// Binary reduction operator. Must be associative; commutativity is also
/// assumed (operands may be combined in rank-tree order, not rank order).
pub trait ReduceOp<T>: Fn(T, T) -> T + Sync {}
impl<T, F: Fn(T, T) -> T + Sync> ReduceOp<T> for F {}

impl Comm {
    #[inline]
    fn next_seq(&mut self) -> u64 {
        let s = self.coll_seq;
        self.coll_seq += 1;
        s
    }

    #[inline]
    fn coll_key(seq: u64, round: u32) -> MatchKey {
        MatchKey::Coll { seq, round }
    }

    /// The `(source rank, round)` a non-root rank receives from in a
    /// binomial-tree broadcast rooted at `root` (rotated vrank space).
    fn bcast_source(&self, root: usize, vrank: usize) -> (usize, u32) {
        debug_assert_ne!(vrank, 0, "the root receives from nobody");
        let n = self.size();
        let recv_round = usize::BITS - 1 - vrank.leading_zeros(); // floor(log2(vrank))
        let src_vrank = vrank - (1 << recv_round);
        ((src_vrank + root) % n, recv_round)
    }

    /// Destinations `(round, dst)` this rank forwards to in a binomial-tree
    /// broadcast rooted at `root`.
    fn bcast_children(&self, root: usize, vrank: usize) -> Vec<(u32, usize)> {
        let n = self.size();
        let rounds = usize::BITS - (n - 1).leading_zeros();
        let first_send_round = if vrank == 0 {
            0
        } else {
            usize::BITS - vrank.leading_zeros()
        };
        let mut children: Vec<(u32, usize)> = Vec::new();
        for k in first_send_round..rounds {
            let dst_vrank = vrank + (1usize << k);
            if dst_vrank < n {
                children.push((k, (dst_vrank + root) % n));
            }
        }
        children
    }

    /// Round-0 destinations of a flat (linear) broadcast: every rank but
    /// the root, one envelope each, whether the payload is deep or
    /// [`Shared`] — so the E17 flat-vs-tree-vs-shared ablation compares
    /// identical bookkeeping.
    fn linear_dsts(&self, root: usize) -> Vec<(u32, usize)> {
        (0..self.size())
            .filter(|&d| d != root)
            .map(|d| (0, d))
            .collect()
    }

    /// Send `value` to every destination `(round, dst)`, cloning for all
    /// but the last, which receives the original allocation moved into the
    /// message; the caller keeps a clone made just before that final send.
    /// (The collective APIs return `T` at every rank, so the clone count
    /// is unchanged — but the original buffer now travels to a child
    /// instead of idling at the sender, and the send loop lives in one
    /// place for all broadcast variants.) The payload is sized once; at
    /// `T = Shared<U>` each clone is a refcount bump.
    fn fan_out<T: Send + Clone + ByteSized + 'static>(
        &mut self,
        seq: u64,
        dsts: &[(u32, usize)],
        value: T,
    ) -> T {
        let Some((&(last_round, last_dst), rest)) = dsts.split_last() else {
            return value;
        };
        let bytes = value.approx_bytes() as u64;
        for &(round, dst) in rest {
            self.send_keyed(
                dst,
                Self::coll_key(seq, round),
                Box::new(value.clone()),
                bytes,
            );
        }
        let keep = value.clone();
        self.send_keyed(
            last_dst,
            Self::coll_key(seq, last_round),
            Box::new(value),
            bytes,
        );
        keep
    }

    /// Dissemination barrier: no rank leaves until every rank has entered.
    pub fn barrier(&mut self) {
        let n = self.size();
        let seq = self.next_seq();
        if n == 1 {
            return;
        }
        let mut round = 0u32;
        let mut dist = 1usize;
        while dist < n {
            let dst = (self.rank() + dist) % n;
            let src = (self.rank() + n - dist) % n;
            self.send_keyed(dst, Self::coll_key(seq, round), Box::new(()), 0);
            self.recv_keyed::<()>(src, Self::coll_key(seq, round));
            dist <<= 1;
            round += 1;
        }
    }

    /// Binomial-tree broadcast of `value` from `root` to all ranks.
    ///
    /// Every rank passes its own `value` argument (ignored except at root,
    /// as in MPI) and receives the root's value back. With a [`Shared`]
    /// payload every rank's handle points at the root's one allocation.
    pub fn broadcast<T: Send + Clone + ByteSized + 'static>(&mut self, root: usize, value: T) -> T {
        let n = self.size();
        assert!(root < n, "broadcast root {root} out of range");
        let seq = self.next_seq();
        if n == 1 {
            return value;
        }
        // Work in a rotated space where the root is rank 0. Receive first
        // (if not root), then forward to children in subsequent rounds.
        let vrank = (self.rank() + n - root) % n;
        let value = if vrank == 0 {
            value
        } else {
            let (src, round) = self.bcast_source(root, vrank);
            self.recv_keyed::<T>(src, Self::coll_key(seq, round))
        };
        let children = self.bcast_children(root, vrank);
        self.fan_out(seq, &children, value)
    }

    /// Linear broadcast (root sends to every rank): the naïve baseline.
    pub fn broadcast_linear<T: Send + Clone + ByteSized + 'static>(
        &mut self,
        root: usize,
        value: T,
    ) -> T {
        let n = self.size();
        assert!(root < n, "broadcast root {root} out of range");
        let seq = self.next_seq();
        if self.rank() == root {
            let dsts = self.linear_dsts(root);
            self.fan_out(seq, &dsts, value)
        } else {
            self.recv_keyed::<T>(root, Self::coll_key(seq, 0))
        }
    }

    /// Binomial-tree reduction to `root`. Returns `Some(total)` at the root
    /// and `None` elsewhere.
    pub fn reduce<T, F>(&mut self, root: usize, value: T, op: F) -> Option<T>
    where
        T: Send + ByteSized + 'static,
        F: ReduceOp<T>,
    {
        let n = self.size();
        assert!(root < n, "reduce root {root} out of range");
        let seq = self.next_seq();
        let vrank = (self.rank() + n - root) % n;
        let mut acc = value;
        // Binomial tree gather: in round k, vranks that are odd multiples of
        // 2^k send to vrank - 2^k.
        let mut k = 0u32;
        loop {
            let bit = 1usize << k;
            if bit >= n {
                break;
            }
            if vrank & bit != 0 {
                // Sender this round, then done.
                let dst_vrank = vrank - bit;
                let dst = (dst_vrank + root) % n;
                let bytes = acc.approx_bytes() as u64;
                self.send_keyed(dst, Self::coll_key(seq, k), Box::new(acc), bytes);
                return None;
            } else if vrank + bit < n {
                let src = ((vrank + bit) + root) % n;
                let other = self.recv_keyed::<T>(src, Self::coll_key(seq, k));
                acc = op(acc, other);
            }
            k += 1;
        }
        debug_assert_eq!(vrank, 0);
        Some(acc)
    }

    /// Linear reduction baseline: every rank sends straight to the root.
    pub fn reduce_linear<T, F>(&mut self, root: usize, value: T, op: F) -> Option<T>
    where
        T: Send + ByteSized + 'static,
        F: ReduceOp<T>,
    {
        let n = self.size();
        assert!(root < n, "reduce root {root} out of range");
        let seq = self.next_seq();
        if self.rank() == root {
            let mut acc = value;
            // Combine in rank order for determinism.
            for src in 0..n {
                if src != root {
                    let v = self.recv_keyed::<T>(src, Self::coll_key(seq, 0));
                    acc = op(acc, v);
                }
            }
            Some(acc)
        } else {
            let bytes = value.approx_bytes() as u64;
            self.send_keyed(root, Self::coll_key(seq, 0), Box::new(value), bytes);
            None
        }
    }

    /// Reduce-to-root followed by broadcast: every rank gets the total.
    pub fn allreduce<T, F>(&mut self, value: T, op: F) -> T
    where
        T: Send + Clone + ByteSized + 'static,
        F: ReduceOp<T>,
    {
        let total = self.reduce(0, value, op);
        match total {
            Some(t) => self.broadcast(0, t),
            // Non-root ranks have surrendered their value to the reduction
            // and cannot construct a T, so they join the broadcast as pure
            // receivers.
            None => self.broadcast_recv_only(0),
        }
    }

    /// Allreduce with a zero-copy result distribution: the reduction tree
    /// moves owned operands exactly like [`Comm::allreduce`] (the partial
    /// sums are consumed, nothing to share), but the total travels back
    /// down as one [`Shared`] allocation — every rank ends holding a
    /// handle to the same reduced value, with zero deep clones in the
    /// broadcast phase.
    pub fn allreduce_shared<T, F>(&mut self, value: T, op: F) -> Shared<T>
    where
        T: Send + Sync + ByteSized + 'static,
        F: ReduceOp<T>,
    {
        match self.reduce(0, value, op) {
            Some(t) => self.broadcast(0, Shared::new(t)),
            None => self.broadcast_recv_only(0),
        }
    }

    /// Participate in a broadcast as a pure receiver (used by ranks that
    /// have no value of their own, e.g. non-roots in [`Comm::allreduce`]
    /// and [`Comm::allreduce_shared`]).
    fn broadcast_recv_only<T: Send + Clone + ByteSized + 'static>(&mut self, root: usize) -> T {
        let n = self.size();
        let seq = self.next_seq();
        let vrank = (self.rank() + n - root) % n;
        debug_assert_ne!(
            vrank, 0,
            "root must call broadcast, not broadcast_recv_only"
        );
        let (src, round) = self.bcast_source(root, vrank);
        let value = self.recv_keyed::<T>(src, Self::coll_key(seq, round));
        let children = self.bcast_children(root, vrank);
        self.fan_out(seq, &children, value)
    }

    /// Scatter: root distributes one chunk per rank; every rank (including
    /// the root) receives its chunk. Non-root ranks pass `None`.
    pub fn scatter<T: Send + ByteSized + 'static>(
        &mut self,
        root: usize,
        chunks: Option<Vec<T>>,
    ) -> T {
        let n = self.size();
        assert!(root < n, "scatter root {root} out of range");
        let seq = self.next_seq();
        if self.rank() == root {
            let chunks = chunks.expect("root must provide chunks to scatter");
            assert_eq!(chunks.len(), n, "scatter needs exactly one chunk per rank");
            let mut own: Option<T> = None;
            for (dst, chunk) in chunks.into_iter().enumerate() {
                if dst == root {
                    own = Some(chunk);
                } else {
                    let bytes = chunk.approx_bytes() as u64;
                    self.send_keyed(dst, Self::coll_key(seq, 0), Box::new(chunk), bytes);
                }
            }
            own.expect("root chunk present")
        } else {
            assert!(chunks.is_none(), "only the root provides chunks");
            self.recv_keyed::<T>(root, Self::coll_key(seq, 0))
        }
    }

    /// Gather: every rank contributes one value; the root receives all of
    /// them in rank order (`Some(vec)` at root, `None` elsewhere).
    pub fn gather<T: Send + ByteSized + 'static>(
        &mut self,
        root: usize,
        value: T,
    ) -> Option<Vec<T>> {
        let n = self.size();
        assert!(root < n, "gather root {root} out of range");
        let seq = self.next_seq();
        if self.rank() == root {
            let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
            out[root] = Some(value);
            for src in 0..n {
                if src != root {
                    out[src] = Some(self.recv_keyed::<T>(src, Self::coll_key(seq, 0)));
                }
            }
            Some(out.into_iter().map(|v| v.expect("all gathered")).collect())
        } else {
            let bytes = value.approx_bytes() as u64;
            self.send_keyed(root, Self::coll_key(seq, 0), Box::new(value), bytes);
            None
        }
    }

    /// Ring allgather: every rank ends with all contributions in rank order.
    /// With [`Shared`] pieces each forward is an `Arc` clone of the handle
    /// that arrived, so each rank's contribution is allocated once and
    /// shared by all `n` ranks at the end.
    pub fn allgather<T: Send + Clone + ByteSized + 'static>(&mut self, value: T) -> Vec<T> {
        let n = self.size();
        let seq = self.next_seq();
        let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
        out[self.rank()] = Some(value);
        let next = (self.rank() + 1) % n;
        let prev = (self.rank() + n - 1) % n;
        // In round r we forward the piece that originated at rank - r.
        for r in 0..n.saturating_sub(1) {
            let send_origin = (self.rank() + n - r) % n;
            let piece = out[send_origin].clone().expect("piece present to forward");
            let bytes = piece.approx_bytes() as u64;
            self.send_keyed(next, Self::coll_key(seq, r as u32), Box::new(piece), bytes);
            let recv_origin = (prev + n - r) % n;
            let got = self.recv_keyed::<T>(prev, Self::coll_key(seq, r as u32));
            out[recv_origin] = Some(got);
        }
        out.into_iter()
            .map(|v| v.expect("allgather complete"))
            .collect()
    }

    /// All-to-all personalized exchange: `data[i]` goes to rank `i`;
    /// returns the vector whose `i`-th entry came from rank `i`.
    pub fn alltoall<T: Send + ByteSized + 'static>(&mut self, data: Vec<T>) -> Vec<T> {
        let n = self.size();
        assert_eq!(data.len(), n, "alltoall needs exactly one item per rank");
        let seq = self.next_seq();
        let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
        for (dst, item) in data.into_iter().enumerate() {
            if dst == self.rank() {
                out[dst] = Some(item);
            } else {
                let bytes = item.approx_bytes() as u64;
                self.send_keyed(dst, Self::coll_key(seq, 0), Box::new(item), bytes);
            }
        }
        for src in 0..n {
            if src != self.rank() {
                out[src] = Some(self.recv_keyed::<T>(src, Self::coll_key(seq, 0)));
            }
        }
        out.into_iter()
            .map(|v| v.expect("alltoall complete"))
            .collect()
    }

    /// Inclusive prefix scan: rank `i` receives `op(v₀, …, vᵢ)`.
    /// Linear pipeline implementation (adequate at laptop rank counts).
    pub fn scan<T, F>(&mut self, value: T, op: F) -> T
    where
        T: Send + Clone + ByteSized + 'static,
        F: ReduceOp<T>,
    {
        let n = self.size();
        let seq = self.next_seq();
        let rank = self.rank();
        let acc = if rank == 0 {
            value
        } else {
            let prefix = self.recv_keyed::<T>(rank - 1, Self::coll_key(seq, 0));
            op(prefix, value)
        };
        if rank + 1 < n {
            let bytes = acc.approx_bytes() as u64;
            self.send_keyed(
                rank + 1,
                Self::coll_key(seq, 0),
                Box::new(acc.clone()),
                bytes,
            );
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::Shared;
    use crate::message::ByteSized;
    use crate::Cluster;

    #[test]
    fn barrier_many_times() {
        Cluster::run(7, |comm| {
            for _ in 0..50 {
                comm.barrier();
            }
        });
    }

    #[test]
    fn broadcast_from_each_root() {
        for n in [1usize, 2, 3, 5, 8] {
            for root in 0..n {
                let out = Cluster::run(n, move |comm| {
                    let v = if comm.rank() == root { 1000 + root } else { 0 };
                    comm.broadcast(root, v)
                });
                assert_eq!(out, vec![1000 + root; n], "n={n} root={root}");
            }
        }
    }

    #[test]
    fn broadcast_linear_matches_tree() {
        let out = Cluster::run(6, |comm| {
            let v = if comm.rank() == 2 { "hello" } else { "" };
            let a = comm.broadcast(2, v);
            let b = comm.broadcast_linear(2, v);
            (a, b)
        });
        for (a, b) in out {
            assert_eq!(a, "hello");
            assert_eq!(b, "hello");
        }
    }

    #[test]
    fn reduce_sum_all_roots_all_sizes() {
        for n in [1usize, 2, 4, 5, 9] {
            let expected: u64 = (0..n as u64).sum();
            for root in 0..n {
                let out = Cluster::run(n, move |comm| {
                    comm.reduce(root, comm.rank() as u64, |a, b| a + b)
                });
                for (rank, r) in out.into_iter().enumerate() {
                    if rank == root {
                        assert_eq!(r, Some(expected), "n={n} root={root}");
                    } else {
                        assert_eq!(r, None);
                    }
                }
            }
        }
    }

    #[test]
    fn reduce_linear_matches_tree() {
        let out = Cluster::run(5, |comm| {
            let a = comm.reduce(0, comm.rank() as i64, |x, y| x + y);
            let b = comm.reduce_linear(0, comm.rank() as i64, |x, y| x + y);
            (a, b)
        });
        assert_eq!(out[0], (Some(10), Some(10)));
    }

    #[test]
    fn allreduce_max() {
        let out = Cluster::run(6, |comm| {
            comm.allreduce((comm.rank() * 7) % 5, |a, b| a.max(b))
        });
        let expected = (0..6).map(|r| (r * 7) % 5).max().unwrap();
        assert_eq!(out, vec![expected; 6]);
    }

    #[test]
    fn allreduce_vector_sum() {
        let out = Cluster::run(4, |comm| {
            let v = vec![comm.rank() as f64; 3];
            comm.allreduce(v, |a, b| a.iter().zip(&b).map(|(x, y)| x + y).collect())
        });
        for v in out {
            assert_eq!(v, vec![6.0, 6.0, 6.0]);
        }
    }

    #[test]
    fn scatter_and_gather_roundtrip() {
        let out = Cluster::run(4, |comm| {
            let chunks = if comm.rank() == 1 {
                Some((0..4).map(|i| i * i).collect())
            } else {
                None
            };
            let mine: usize = comm.scatter(1, chunks);
            assert_eq!(mine, comm.rank() * comm.rank());
            comm.gather(1, mine * 2)
        });
        assert_eq!(out[1], Some(vec![0, 2, 8, 18]));
        assert_eq!(out[0], None);
    }

    #[test]
    fn allgather_rank_order() {
        for n in [1usize, 2, 3, 6] {
            let out = Cluster::run(n, |comm| comm.allgather(comm.rank() * 100));
            let expected: Vec<usize> = (0..n).map(|r| r * 100).collect();
            for v in out {
                assert_eq!(v, expected, "n={n}");
            }
        }
    }

    #[test]
    fn alltoall_transpose() {
        let n = 5;
        let out = Cluster::run(n, move |comm| {
            let data: Vec<(usize, usize)> = (0..n).map(|dst| (comm.rank(), dst)).collect();
            comm.alltoall(data)
        });
        for (rank, row) in out.into_iter().enumerate() {
            for (src, pair) in row.into_iter().enumerate() {
                assert_eq!(pair, (src, rank));
            }
        }
    }

    #[test]
    fn scan_prefix_sums() {
        let out = Cluster::run(6, |comm| comm.scan(comm.rank() as u32 + 1, |a, b| a + b));
        assert_eq!(out, vec![1, 3, 6, 10, 15, 21]);
    }

    #[test]
    fn mixed_collectives_and_p2p_do_not_interfere() {
        Cluster::run(4, |comm| {
            // Interleave user traffic with collectives.
            let next = (comm.rank() + 1) % 4;
            let prev = (comm.rank() + 3) % 4;
            comm.send(next, 99, comm.rank());
            let total = comm.allreduce(1usize, |a, b| a + b);
            assert_eq!(total, 4);
            comm.barrier();
            let got: usize = comm.recv(prev, 99);
            assert_eq!(got, prev);
            let all = comm.allgather(got);
            assert_eq!(all, vec![3, 0, 1, 2]);
        });
    }

    /// Run every broadcast/allgather on one cluster with a deep and a
    /// [`Shared`] payload and require the results to be bit-identical.
    fn assert_shared_matches_clone<T>(n: usize, make: impl Fn(usize) -> T + Copy + Send + Sync)
    where
        T: Send + Sync + Clone + ByteSized + PartialEq + std::fmt::Debug + 'static,
    {
        for root in [0, n - 1] {
            let out = Cluster::run(n, move |comm| {
                let v = make(comm.rank());
                let tree = comm.broadcast(root, v.clone());
                let tree_shared = comm.broadcast(root, Shared::new(v.clone()));
                let lin = comm.broadcast_linear(root, v.clone());
                let lin_shared = comm.broadcast_linear(root, Shared::new(v.clone()));
                let ag = comm.allgather(v.clone());
                let ag_shared = comm.allgather(Shared::new(v));
                (tree, tree_shared, lin, lin_shared, ag, ag_shared)
            });
            for (tree, tree_shared, lin, lin_shared, ag, ag_shared) in out {
                assert_eq!(*tree_shared, tree, "n={n} root={root}");
                assert_eq!(*lin_shared, lin, "n={n} root={root}");
                assert_eq!(lin, tree, "n={n} root={root}");
                let unwrapped: Vec<T> = ag_shared.iter().map(|a| (**a).clone()).collect();
                assert_eq!(unwrapped, ag, "n={n} root={root}");
            }
        }
    }

    #[test]
    fn shared_collectives_bit_identical_grid() {
        for n in [1usize, 2, 4, 8] {
            // Vector, matrix-shaped, and String payloads.
            assert_shared_matches_clone(n, |r| {
                vec![r as f64 * 0.5, -(r as f64), 1.0 / (r as f64 + 1.0)]
            });
            assert_shared_matches_clone(n, |r| vec![vec![r as f64 + 0.25; 3]; 2]);
            assert_shared_matches_clone(n, |r| format!("rank-{r}-payload"));
        }
    }

    #[test]
    fn allreduce_shared_matches_clone_grid() {
        let vecsum = |a: Vec<f64>, b: Vec<f64>| -> Vec<f64> {
            a.iter().zip(&b).map(|(x, y)| x + y).collect()
        };
        for n in [1usize, 2, 4, 8] {
            let out = Cluster::run(n, move |comm| {
                let v = vec![comm.rank() as f64, 1.0, 0.5];
                let owned = comm.allreduce(v.clone(), vecsum);
                let shared = comm.allreduce_shared(v, vecsum);
                (owned, shared)
            });
            for (owned, shared) in out {
                assert_eq!(*shared, owned, "n={n}");
            }
        }
    }

    #[test]
    fn shared_broadcast_moves_one_allocation() {
        // The zero-copy guarantee itself, on every collective that takes
        // a `Shared` payload: no rank holds a copy of anybody's data.
        let ptr = |a: &Shared<Vec<u64>>| Shared::as_ptr(a) as usize;
        let out = Cluster::run(8, move |comm| {
            let mine = Shared::new(vec![comm.rank() as u64; 8]);
            let own = ptr(&mine);
            let tree = comm.broadcast(0, Shared::clone(&mine));
            let flat = comm.broadcast_linear(3, Shared::clone(&mine));
            let pieces: Vec<usize> = comm.allgather(mine).iter().map(ptr).collect();
            let total = comm.allreduce_shared(vec![comm.rank() as u64; 8], |a, b| {
                a.iter().zip(&b).map(|(x, y)| x + y).collect()
            });
            (own, ptr(&tree), ptr(&flat), pieces, ptr(&total))
        });
        // Every rank's handle points at the source rank's allocation.
        let own: Vec<usize> = out.iter().map(|o| o.0).collect();
        for (rank, (_, tree, flat, pieces, total)) in out.iter().enumerate() {
            assert_eq!(*tree, own[0], "rank {rank}: tree broadcast from 0");
            assert_eq!(*flat, own[3], "rank {rank}: linear broadcast from 3");
            assert_eq!(pieces, &own, "rank {rank}: allgather piece r is rank r's");
            assert_eq!(*total, out[0].4, "rank {rank}: one allreduce_shared total");
        }
    }

    #[test]
    fn shared_and_clone_collectives_report_identical_bytes() {
        // Pinned: vec![f64; 4] = 32 bytes per edge, a binomial tree on n
        // ranks has n-1 edges, so both paths account 32·(n-1) in total and
        // identical amounts per rank.
        let n = 4usize;
        let out = Cluster::run(n, move |comm| {
            let v = vec![1.0f64; 4];
            let before = comm.bytes_sent();
            comm.broadcast(0, v.clone());
            let clone_bytes = comm.bytes_sent() - before;
            let before = comm.bytes_sent();
            comm.broadcast(0, Shared::new(v));
            let shared_bytes = comm.bytes_sent() - before;
            (clone_bytes, shared_bytes)
        });
        for (rank, (c, s)) in out.iter().enumerate() {
            assert_eq!(c, s, "rank {rank}: per-rank byte parity");
        }
        let total: u64 = out.iter().map(|(c, _)| c).sum();
        assert_eq!(total, 32 * (n as u64 - 1));
        assert_eq!(out[0].0, 64, "root of a 4-rank tree feeds 2 children");
    }

    #[test]
    fn linear_clone_and_shared_share_bookkeeping() {
        // The E17 apples-to-apples guarantee: flat clone and flat shared
        // broadcasts advance the collective sequence once each, send
        // exactly n-1 envelopes from the root (no extra envelope per
        // round), and report identical byte totals.
        let n = 8usize;
        let out = Cluster::run(n, move |comm| {
            let v = vec![7u64; 16]; // 128 bytes
            let (c0, b0) = (comm.sent_count(), comm.bytes_sent());
            comm.broadcast_linear(0, v.clone());
            let (c1, b1) = (comm.sent_count(), comm.bytes_sent());
            comm.broadcast_linear(0, Shared::new(v));
            let (c2, b2) = (comm.sent_count(), comm.bytes_sent());
            ((c1 - c0, b1 - b0), (c2 - c1, b2 - b1))
        });
        let (clone_root, shared_root) = out[0];
        assert_eq!(clone_root, ((n - 1) as u64, 128 * (n as u64 - 1)));
        assert_eq!(shared_root, clone_root, "identical seq/key bookkeeping");
        for &(c, s) in &out[1..] {
            assert_eq!(c, (0, 0), "non-roots send nothing on the flat path");
            assert_eq!(s, (0, 0));
        }
    }

    #[test]
    fn tree_broadcast_message_count_scales_logarithmically() {
        // Root's send count: linear broadcast sends n-1; tree sends ⌈log₂ n⌉.
        let n = 16;
        let out = Cluster::run(n, move |comm| {
            let before = comm.sent_count();
            comm.broadcast(0, 1u8);
            let tree = comm.sent_count() - before;
            let before = comm.sent_count();
            comm.broadcast_linear(0, 1u8);
            let linear = comm.sent_count() - before;
            (tree, linear)
        });
        let (tree_root, linear_root) = out[0];
        assert_eq!(linear_root, (n - 1) as u64);
        assert_eq!(
            tree_root, 4,
            "root of a 16-rank binomial tree sends log2(16) messages"
        );
    }
}
