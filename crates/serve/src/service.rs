//! What the server serves: the [`Service`] seam and the built-in services
//! proving it is generic across the workspace's workloads.
//!
//! A service's model is [`Service::answer`]: one output per input, in
//! order, each input answered independently of the others.
//! [`Service::run_batch`] is the one place a request batch is split over
//! the [`peachy_cluster::Executor`] the server hands it: even blocks, each
//! answered by `answer`. Since no answer depends on how the batch is
//! decomposed into parts, the server's end-to-end responses are
//! bit-identical across `Seq`, `Rayon`, and `Cluster`.
//!
//! Three built-ins wrap the assignments' inference-shaped paths:
//! [`KnnService`] (§2 k-NN classification), [`KmeansAssignService`] (§3
//! nearest-centroid assignment), [`EnsembleService`] (§7 neural-net
//! batch forward). [`EchoService`] is the unit-test identity service.
//!
//! On the elastic tier a shard's state *is* a pool service:
//! [`ShardedKnnService`] builds a [`KnnService`] over each shard's block
//! of its database, and [`Replicated`] clones one row-input service into
//! every shard. Each model is written once, in its `answer`.

use peachy_cluster::dist::{block_range, EvenBlocks};
use peachy_cluster::{ByteSized, CommStats, Executor};
use peachy_data::kernels::Candidates;
use peachy_data::matrix::{LabeledDataset, Matrix};
use peachy_ensemble::nn::DenseNet;
use peachy_knn::KnnIndex;

use crate::shard::ShardedService;

/// Seed for [`row_route_key`]; changing it re-routes every row-keyed
/// sharded service, so it is fixed here once.
const ROW_ROUTE_SEED: u64 = 0x0e1a_511c_0000_0001;

/// Deterministic routing key for an unlabeled feature row: the stable
/// hash of its exact bit pattern. Two bit-identical rows always land on
/// the same shard, on every backend, across Rust upgrades.
pub fn row_route_key(row: &[f64]) -> u64 {
    let bits: Vec<u64> = row.iter().map(|x| x.to_bits()).collect();
    peachy_prng::stable_hash(&bits, ROW_ROUTE_SEED)
}

/// A batch-serving workload.
///
/// A service implements [`Service::answer`], its model; the server calls
/// the provided [`Service::run_batch`], which splits the batch over the
/// executor. `answer` must be pure and answer each input independently of
/// the others in the slice — all built-ins do. A batch lost to a worker
/// kill replays verbatim, and a batch whose service panics is not
/// retried, since it would only panic again.
pub trait Service: Send + Sync + 'static {
    /// One request's payload.
    type Input: Send + Sync + 'static;
    /// One request's answer. `ByteSized` prices it when the cluster
    /// backend gathers a part's answers.
    type Output: Send + ByteSized + 'static;

    /// Short name for reports and logs.
    fn name(&self) -> &'static str;

    /// Answer every input, in order.
    fn answer(&self, inputs: &[Self::Input]) -> Vec<Self::Output>;

    /// Answer every input in the batch, in order: the batch is split into
    /// even blocks over `exec`, at most one per input
    /// ([`Executor::parts_for`]), and [`Service::answer`] answers each
    /// block. The server hands its configured executor, whatever the
    /// batch's size, and its ledger's embedded [`CommStats`], which counts
    /// what the split scatters, gathers and moves. An empty batch answers
    /// empty.
    fn run_batch(
        &self,
        inputs: &[Self::Input],
        exec: &Executor,
        comm: &CommStats,
    ) -> Vec<Self::Output> {
        if inputs.is_empty() {
            return Vec::new();
        }
        let dist = EvenBlocks::new(inputs.len(), exec.parts_for(inputs.len()));
        exec.map_parts(&dist, Some(comm), |_, range| self.answer(&inputs[range]))
            .into_iter()
            .flatten()
            .collect()
    }
}

/// Identity service for unit tests: answers each request with its input.
pub struct EchoService;

impl Service for EchoService {
    type Input = u32;
    type Output = u32;

    fn name(&self) -> &'static str {
        "echo"
    }

    fn answer(&self, inputs: &[u32]) -> Vec<u32> {
        inputs.to_vec()
    }
}

/// k-NN classification as a service: each request is a query row, each
/// answer the majority-vote class among the `k` nearest database points,
/// searched in a [`KnnIndex`] packed once at construction. Each batch is
/// one tiled pass over the database ([`KnnIndex::classify_batch`]).
///
/// It is also the per-shard state of [`ShardedKnnService`], built over
/// one shard's block of the database.
pub struct KnnService {
    index: KnnIndex,
    k: usize,
}

impl KnnService {
    /// Serve classifications against `db` with neighbourhood size `k`.
    /// `db`'s rows are packed in place, not copied.
    pub fn new(db: LabeledDataset, k: usize) -> Self {
        assert!(!db.is_empty(), "empty database");
        assert!(k >= 1, "k must be at least 1");
        Self {
            index: KnnIndex::new(db),
            k,
        }
    }
}

impl Service for KnnService {
    type Input = Vec<f64>;
    type Output = u32;

    fn name(&self) -> &'static str {
        "knn-classify"
    }

    fn answer(&self, inputs: &[Vec<f64>]) -> Vec<u32> {
        let rows: Vec<&[f64]> = inputs.iter().map(Vec::as_slice).collect();
        self.index.classify_batch(&rows, self.k)
    }
}

impl ByteSized for KnnService {
    /// The rows, one label per row and the class count — the size of the
    /// database as a dataset, whatever layout the index packs it into.
    fn approx_bytes(&self) -> usize {
        let rows = self.index.len();
        rows * self.index.dims() * std::mem::size_of::<f64>()
            + rows * std::mem::size_of::<u32>()
            + std::mem::size_of::<u32>()
    }
}

/// Nearest-centroid assignment as a service (the inference half of
/// k-means): each request is a point, each answer the index of its
/// nearest centroid, via the [`Candidates`] kernel family — ties break
/// to the lowest index, independent of decomposition.
#[derive(Clone)]
pub struct KmeansAssignService {
    centroids: Matrix,
}

impl KmeansAssignService {
    /// Serve assignments against a fixed centroid set.
    pub fn new(centroids: Matrix) -> Self {
        assert!(!centroids.is_empty(), "no centroids");
        Self { centroids }
    }
}

impl Service for KmeansAssignService {
    type Input = Vec<f64>;
    type Output = u32;

    fn name(&self) -> &'static str {
        "kmeans-assign"
    }

    fn answer(&self, inputs: &[Vec<f64>]) -> Vec<u32> {
        let cand = Candidates::new(&self.centroids);
        inputs.iter().map(|row| cand.nearest(row)).collect()
    }
}

impl ByteSized for KmeansAssignService {
    /// The centroid matrix.
    fn approx_bytes(&self) -> usize {
        self.centroids.rows() * self.centroids.cols() * std::mem::size_of::<f64>()
    }
}

/// Neural-net inference as a service: each request is an input row, each
/// answer the arg-max class of the batched forward pass — row-identical
/// to the single-row forward regardless of batching or decomposition.
#[derive(Clone)]
pub struct EnsembleService {
    net: DenseNet,
}

impl EnsembleService {
    /// Serve predictions from a trained network.
    pub fn new(net: DenseNet) -> Self {
        Self { net }
    }
}

impl Service for EnsembleService {
    type Input = Vec<f64>;
    type Output = u32;

    fn name(&self) -> &'static str {
        "ensemble-nn"
    }

    fn answer(&self, inputs: &[Vec<f64>]) -> Vec<u32> {
        self.net.predict_batch(&Matrix::from_rows(inputs))
    }
}

impl ByteSized for EnsembleService {
    /// The whole weight set.
    fn approx_bytes(&self) -> usize {
        self.net.approx_bytes()
    }
}

/// k-NN classification with a **partitioned index**: the database is
/// block-split into `num_shards` index partitions, and each request
/// carries an explicit routing key deciding which partition answers it.
///
/// This is the sharded-state archetype where shards genuinely differ:
/// each shard's state is a [`KnnService`] over its block, and rebuilding
/// partition `s` after a rank death re-slices the same block of the same
/// database, so replayed requests get bit-identical answers.
pub struct ShardedKnnService {
    db: LabeledDataset,
    k: usize,
}

impl ShardedKnnService {
    /// Partitioned serving over `db` with neighbourhood size `k`. The
    /// database must have at least one row per shard.
    pub fn new(db: LabeledDataset, k: usize) -> Self {
        assert!(!db.is_empty(), "empty database");
        assert!(k >= 1, "k must be at least 1");
        Self { db, k }
    }
}

impl ShardedService for ShardedKnnService {
    /// `(routing key, query row)`.
    type Input = (u64, Vec<f64>);
    type Output = u32;
    type State = KnnService;

    fn name(&self) -> &'static str {
        "sharded-knn"
    }

    fn route_key(&self, input: &Self::Input) -> u64 {
        input.0
    }

    fn build_shard(&self, shard: usize, num_shards: usize) -> KnnService {
        assert!(
            self.db.len() >= num_shards,
            "need at least one database row per shard ({} rows, {num_shards} shards)",
            self.db.len()
        );
        let range = block_range(self.db.len(), num_shards, shard);
        let indices: Vec<usize> = range.collect();
        KnnService::new(self.db.select(&indices), self.k)
    }

    fn run_shard(&self, _shard: usize, state: &KnnService, inputs: &[Self::Input]) -> Vec<u32> {
        let rows: Vec<&[f64]> = inputs.iter().map(|(_, row)| row.as_slice()).collect();
        state.index.classify_batch(&rows, state.k)
    }
}

/// A row-input service on the sharded tier with **replicated** state:
/// every shard holds a clone of the service and answers through its
/// [`Service::answer`], so any shard gives the unsharded answer. Requests
/// route by [`row_route_key`]. Sharding buys elastic *throughput*, and a
/// migration ships the whole replica, priced by the service's
/// [`ByteSized`].
pub struct Replicated<S>(pub S);

impl<S> ShardedService for Replicated<S>
where
    S: Service<Input = Vec<f64>> + Clone + ByteSized,
{
    type Input = Vec<f64>;
    type Output = S::Output;
    type State = S;

    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn route_key(&self, input: &Self::Input) -> u64 {
        row_route_key(input)
    }

    fn build_shard(&self, _shard: usize, _num_shards: usize) -> S {
        self.0.clone()
    }

    fn run_shard(&self, _shard: usize, state: &S, inputs: &[Vec<f64>]) -> Vec<S::Output> {
        state.answer(inputs)
    }
}

/// Nearest-centroid assignment with replicated shard state.
pub type ShardedKmeansAssignService = Replicated<KmeansAssignService>;

/// Neural-net inference with replicated model shards.
pub type ShardedEnsembleService = Replicated<EnsembleService>;

#[cfg(test)]
mod tests {
    use super::*;
    use peachy_data::synth::gaussian_blobs;
    use peachy_knn::brute::classify_batch_seq;

    fn backends() -> [Executor; 3] {
        [Executor::seq(), Executor::rayon(4), Executor::cluster(3)]
    }

    fn rows_of(m: &Matrix) -> Vec<Vec<f64>> {
        m.iter_rows().map(|r| r.to_vec()).collect()
    }

    #[test]
    fn knn_service_matches_direct_classification() {
        let db = gaussian_blobs(200, 5, 3, 2.0, 31);
        let queries = gaussian_blobs(23, 5, 3, 2.0, 32);
        let svc = KnnService::new(db.clone(), 5);
        let inputs = rows_of(&queries.points);
        let reference = classify_batch_seq(&db, &queries, 5);
        for exec in backends() {
            let comm = CommStats::new();
            let out = svc.run_batch(&inputs, &exec, &comm);
            assert_eq!(out, reference, "{exec:?}");
            assert!(svc.run_batch(&[], &exec, &comm).is_empty(), "{exec:?}");
        }
    }

    #[test]
    fn kmeans_service_matches_candidates_assign() {
        let data = gaussian_blobs(150, 4, 3, 1.5, 33);
        let centroids = data.points.select_rows(&[0, 50, 100]);
        let svc = KmeansAssignService::new(centroids.clone());
        let inputs = rows_of(&data.points);
        let reference = Candidates::new(&centroids).assign(&data.points);
        for exec in backends() {
            let comm = CommStats::new();
            let out = svc.run_batch(&inputs, &exec, &comm);
            assert_eq!(out, reference, "{exec:?}");
            assert!(svc.run_batch(&[], &exec, &comm).is_empty(), "{exec:?}");
        }
    }

    #[test]
    fn ensemble_service_matches_batch_forward() {
        use peachy_ensemble::nn::NetConfig;
        let data = gaussian_blobs(60, 8, 3, 2.0, 34);
        let net = DenseNet::new(
            &NetConfig {
                layers: vec![8, 6, 3],
            },
            7,
        );
        let svc = EnsembleService::new(net.clone());
        let inputs = rows_of(&data.points);
        let reference = net.predict_batch(&data.points);
        for exec in backends() {
            let comm = CommStats::new();
            let out = svc.run_batch(&inputs, &exec, &comm);
            assert_eq!(out, reference, "{exec:?}");
            assert!(svc.run_batch(&[], &exec, &comm).is_empty(), "{exec:?}");
        }
    }

    #[test]
    fn executor_backends_match_sequential() {
        let db = gaussian_blobs(250, 6, 3, 2.0, 9);
        let queries = gaussian_blobs(61, 6, 3, 2.0, 10);
        let reference = classify_batch_seq(&db, &queries, 5);
        let svc = KnnService::new(db, 5);
        let inputs = rows_of(&queries.points);
        for exec in [Executor::seq(), Executor::rayon(8), Executor::cluster(4)] {
            assert_eq!(
                svc.run_batch(&inputs, &exec, &CommStats::new()),
                reference,
                "{exec:?}"
            );
        }
    }

    #[test]
    fn counted_batch_matches_and_feeds_stats() {
        let db = gaussian_blobs(200, 5, 3, 2.0, 13);
        let queries = gaussian_blobs(37, 5, 3, 2.0, 14);
        let reference = classify_batch_seq(&db, &queries, 5);
        let svc = KnnService::new(db, 5);
        let inputs = rows_of(&queries.points);

        let s = CommStats::new();
        assert_eq!(svc.run_batch(&inputs, &Executor::rayon(4), &s), reference);
        assert_eq!(s.scattered(), 37, "one element per query scattered");
        assert_eq!(s.gathered(), 4, "one result per part gathered");
        assert_eq!(s.collective_bytes(), 0, "rayon borrows, moves no bytes");

        let s = CommStats::new();
        assert_eq!(svc.run_batch(&inputs, &Executor::cluster(4), &s), reference);
        assert!(s.collective_bytes() > 0, "cluster pays for what it moves");
    }

    #[test]
    fn batch_smaller_than_rank_count_shrinks() {
        let db = gaussian_blobs(100, 4, 2, 2.0, 15);
        let queries = gaussian_blobs(2, 4, 2, 2.0, 16);
        let reference = classify_batch_seq(&db, &queries, 3);
        // 8 ranks, 2 queries: the split takes 2 parts instead of panicking.
        let svc = KnnService::new(db, 3);
        let out = svc.run_batch(
            &rows_of(&queries.points),
            &Executor::cluster(8),
            &CommStats::new(),
        );
        assert_eq!(out, reference);
    }

    #[test]
    fn sharded_knn_partitions_cover_the_database() {
        let db = gaussian_blobs(97, 4, 3, 1.5, 41);
        let svc = ShardedKnnService::new(db.clone(), 3);
        for num_shards in [1usize, 4, 16] {
            let mut covered = 0usize;
            for shard in 0..num_shards {
                let part = svc.build_shard(shard, num_shards);
                let rows = part.index.len();
                assert!(rows > 0, "shard {shard}/{num_shards} empty");
                // Priced as the block's dataset: rows·d·8 + rows·4 + 4.
                assert_eq!(part.approx_bytes(), rows * 4 * 8 + rows * 4 + 4);
                covered += rows;
            }
            assert_eq!(covered, db.len(), "{num_shards} shards");
        }
        // Single-partition serving matches the unsharded reference.
        let queries = gaussian_blobs(20, 4, 3, 1.5, 42);
        let reference = classify_batch_seq(&db, &queries, 3);
        let whole = svc.build_shard(0, 1);
        let inputs: Vec<(u64, Vec<f64>)> = queries
            .points
            .iter_rows()
            .enumerate()
            .map(|(i, r)| (i as u64, r.to_vec()))
            .collect();
        assert_eq!(svc.run_shard(0, &whole, &inputs), reference);
    }

    #[test]
    fn sharded_replica_services_are_decomposition_independent() {
        // Replicated shard state: any shard must give the exact answer of
        // the unsharded service, whatever the shard index or count.
        use peachy_ensemble::nn::NetConfig;
        let data = gaussian_blobs(50, 4, 3, 1.5, 43);
        let inputs = rows_of(&data.points);

        let centroids = data.points.select_rows(&[0, 25, 49]);
        let ksvc = Replicated(KmeansAssignService::new(centroids.clone()));
        let kref = Candidates::new(&centroids).assign(&data.points);
        let net = DenseNet::new(
            &NetConfig {
                layers: vec![4, 5, 3],
            },
            9,
        );
        let esvc = Replicated(EnsembleService::new(net.clone()));
        let eref = net.predict_batch(&data.points);

        for (shard, num_shards) in [(0usize, 1usize), (3, 8), (15, 16)] {
            let kstate = ksvc.build_shard(shard, num_shards);
            assert_eq!(ksvc.run_shard(shard, &kstate, &inputs), kref);
            assert!(kstate.approx_bytes() > 0);
            let estate = esvc.build_shard(shard, num_shards);
            assert_eq!(esvc.run_shard(shard, &estate, &inputs), eref);
            assert!(estate.approx_bytes() > 0);
        }
    }

    #[test]
    fn row_route_key_is_stable_and_spreads() {
        let data = gaussian_blobs(64, 4, 2, 1.5, 44);
        let keys: Vec<u64> = data.points.iter_rows().map(row_route_key).collect();
        let again: Vec<u64> = data.points.iter_rows().map(row_route_key).collect();
        assert_eq!(keys, again, "route keys must be pure");
        let distinct: std::collections::BTreeSet<u64> = keys.iter().copied().collect();
        assert!(
            distinct.len() > 32,
            "route keys collapsed: {}",
            distinct.len()
        );
    }

    #[test]
    fn services_feed_the_comm_ledger() {
        let data = gaussian_blobs(40, 4, 2, 1.5, 35);
        let inputs = rows_of(&data.points);
        let kmeans = KmeansAssignService::new(data.points.select_rows(&[0, 20]));
        let knn = KnnService::new(data, 3);
        let services: [&dyn Service<Input = Vec<f64>, Output = u32>; 2] = [&kmeans, &knn];
        for svc in services {
            let comm = CommStats::new();
            svc.run_batch(&inputs, &Executor::rayon(4), &comm);
            assert_eq!(comm.scattered(), 40, "{}", svc.name());
            assert_eq!(comm.gathered(), 4, "{}", svc.name());
            assert_eq!(comm.collective_bytes(), 0, "{}", svc.name());
            let comm = CommStats::new();
            svc.run_batch(&inputs, &Executor::cluster(4), &comm);
            assert!(comm.collective_bytes() > 0, "{}", svc.name());
        }
    }
}
