//! The core lazy dataset: lineage nodes, narrow transformations, actions.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use peachy_cluster::dist::Block;
use peachy_cluster::{ByteSized, Executor, RetryPolicy};
use peachy_par::prelude::*;

use crate::optimize::{self, OptimizerConfig, PlanReport};
use crate::plan::{Lineage, PlanKind, PlanNode};
use crate::store::{PartitionStore, SpillRow, StoreConfig};

/// A lineage node: something that can produce partition `i` on demand.
///
/// Narrow operations pull the parent's partition, or have its rows pushed
/// through them, and transform it — so a chain of narrow ops is one fused
/// pass (a *stage*). Wide operations materialize all map-side output once,
/// then serve bucketed partitions.
///
/// Every op is also a [`Lineage`] node (the supertrait), giving the plan
/// optimizer a type-free view of the DAG. Its [`Lineage::plan`] is the
/// node's one description: `explain()`, `num_stages()` and
/// `explain_plans()` all read that tree.
pub(crate) trait Op<T>: Lineage {
    /// Number of partitions.
    fn partitions(&self) -> usize;
    /// Compute one partition as a shared handle. Nodes that hold their
    /// rows resident (sources, caches, materialized shuffles) hand out an
    /// `Arc` to them instead of deep-cloning the partition; everything else
    /// wraps a freshly computed `Vec`, which a consumer that needs owned
    /// rows unwraps for free via [`take_rows`].
    fn compute_partition_shared(&self, idx: usize) -> Arc<Vec<T>>;
    /// Stream one partition's rows into `emit` — the push-based (fused)
    /// evaluation path. Row-wise narrow ops override this to wrap `emit`
    /// and forward to their parent, so a chain of such ops runs as one
    /// composed pass with no intermediate `Vec`s. Everything else (the
    /// default) materializes and replays — a fusion barrier.
    fn push_partition(&self, idx: usize, emit: &mut dyn FnMut(T))
    where
        T: Clone,
    {
        for row in take_rows(self.compute_partition_shared(idx)) {
            emit(row);
        }
    }
    /// Pull-based dual of [`Op::push_partition`]: an iterator over one
    /// partition's rows, for consumers that drive the pace themselves
    /// (shuffle posts merging several cursors). Store-backed ops override
    /// this with their store's row cursor so a spilled partition is
    /// decoded row-by-row instead of rebuilt; the default materializes and
    /// drains. Retry deliberately keeps the default (atomicity — see
    /// `RetryOp::push_partition`).
    fn stream_partition(&self, idx: usize) -> Box<dyn Iterator<Item = T> + '_>
    where
        T: Clone + 'static,
    {
        Box::new(take_rows(self.compute_partition_shared(idx)).into_iter())
    }
}

/// Upcast an op handle to its type-free lineage view.
pub(crate) fn up<T>(op: &Arc<dyn Op<T>>) -> &dyn Lineage {
    &**op
}

/// Take ownership of a shared partition: free when the handle is unique
/// (a freshly computed partition), one clone when the rows are resident
/// elsewhere (a source or cache keeps them).
pub(crate) fn take_rows<T: Clone>(shared: Arc<Vec<T>>) -> Vec<T> {
    Arc::try_unwrap(shared).unwrap_or_else(|kept| (*kept).clone())
}

/// A lazy, partitioned, immutable collection — the engine's RDD analogue.
///
/// Cloning a `Dataset` clones the recipe (an `Arc`), not the data.
pub struct Dataset<T> {
    pub(crate) op: Arc<dyn Op<T>>,
    pub(crate) opt: OptimizerConfig,
    /// Counter block charged by stores built for *subsequently created*
    /// operations (spill/unspill traffic); see [`Dataset::with_stats`].
    pub(crate) stats: Option<Arc<peachy_cluster::CommStats>>,
}

impl<T> Clone for Dataset<T> {
    fn clone(&self) -> Self {
        Self {
            op: Arc::clone(&self.op),
            opt: self.opt,
            stats: self.stats.clone(),
        }
    }
}

// ---------- auto-cache (optimizer-armed shared-subtree memo) ----------

/// A dormant per-partition cache the optimizer can arm at action time.
///
/// Until armed this is a no-op; once [`optimize::prepare_action`] observes
/// the owning node consumed by more than one action (and the cost model
/// approves), computed partitions are pinned exactly like an explicit
/// [`Dataset::cache`].
pub(crate) struct AutoCache<T> {
    armed: AtomicBool,
    store: PartitionStore<T>,
}

impl<T> AutoCache<T> {
    pub(crate) fn new(partitions: usize, cfg: StoreConfig) -> Self {
        Self {
            armed: AtomicBool::new(false),
            store: PartitionStore::new(partitions, cfg),
        }
    }
    pub(crate) fn armed(&self) -> bool {
        self.armed.load(Ordering::Relaxed)
    }
    pub(crate) fn arm(&self) {
        self.armed.store(true, Ordering::Relaxed);
    }
    /// The cache store's residency for plan rendering; `None` until armed
    /// (an unarmed cache holds nothing, so it has no residency to report).
    pub(crate) fn residency(&self, est_bytes: Option<u64>) -> Option<crate::store::Residency> {
        if !self.armed() {
            return None;
        }
        self.store.residency(est_bytes)
    }
}

impl<T: SpillRow> AutoCache<T> {
    /// Serve partition `idx` through the cache (must be armed).
    pub(crate) fn get_or_init(
        &self,
        idx: usize,
        compute: impl FnOnce() -> Vec<T>,
    ) -> Arc<Vec<T>> {
        self.store.get_or_init(idx, || Arc::new(compute()))
    }

    /// A row cursor over an already-filled partition, if any — lets push
    /// consumers replay a spilled cache cell without rebuilding it.
    pub(crate) fn stream(&self, idx: usize) -> Option<crate::store::RowCursor<T>>
    where
        T: Clone,
    {
        self.store.stream(idx)
    }
}

// ---------- source ----------

struct Source<T> {
    // Partitions behind the storage seam: shared `Arc` cells by default
    // (so actions on an uncached dataset read the resident rows instead of
    // deep-cloning them per action), spilled to disk where the dataset's
    // byte budget says so.
    parts: PartitionStore<T>,
}

impl<T: Send + Sync + SpillRow> Op<T> for Source<T>
where
    T: Clone,
{
    fn partitions(&self) -> usize {
        self.parts.partitions()
    }
    fn compute_partition_shared(&self, idx: usize) -> Arc<Vec<T>> {
        self.parts.load(idx).expect("source parts prefilled")
    }
    fn push_partition(&self, idx: usize, emit: &mut dyn FnMut(T)) {
        // Stream straight off the store cursor: resident rows are cloned
        // one at a time (no whole-partition clone even when a fused chain
        // consumes the source), and a spilled partition decodes row-by-row
        // off its file — it is never rebuilt in memory just to be pushed.
        for row in self.parts.stream(idx).expect("source parts prefilled") {
            emit(row);
        }
    }
    fn stream_partition(&self, idx: usize) -> Box<dyn Iterator<Item = T> + '_> {
        Box::new(self.parts.stream(idx).expect("source parts prefilled"))
    }
}

impl<T: Clone + Send + Sync> Lineage for Source<T> {
    fn plan(&self) -> PlanNode {
        let rows = Lineage::est_rows(self);
        let est_bytes = rows.map(|r| r * std::mem::size_of::<T>() as u64);
        PlanNode {
            id: self.lineage_id(),
            label: format!(
                "Source[{} rows, {} partitions]",
                rows.unwrap_or(0),
                self.parts.partitions()
            ),
            kind: PlanKind::Source,
            partitions: self.parts.partitions(),
            est_rows: rows,
            row_bytes: std::mem::size_of::<T>(),
            measured_bytes: None,
            residency: self.parts.residency(est_bytes),
            children: vec![],
        }
    }
    fn lineage_children(&self, _visit: &mut dyn FnMut(&dyn Lineage)) {}
    fn est_rows(&self) -> Option<u64> {
        Some(
            (0..self.parts.partitions())
                .map(|p| self.parts.part_len(p).unwrap_or(0) as u64)
                .sum(),
        )
    }
}

// ---------- narrow ops ----------

struct MapOp<U, T, F> {
    parent: Arc<dyn Op<U>>,
    f: F,
    name: &'static str,
    /// Whether this op may participate in push-based fusion (baked from
    /// the dataset's [`OptimizerConfig::fuse`] at construction).
    fuse: bool,
    auto: AutoCache<T>,
    consumed: AtomicU32,
    _marker: std::marker::PhantomData<fn(U) -> T>,
}

impl<U, T, F> MapOp<U, T, F>
where
    U: Clone + Send + Sync,
    T: Clone + Send + Sync,
    F: Fn(U, &mut dyn FnMut(T)) + Send + Sync,
{
    /// One un-cached evaluation of the partition: fused (one push-based
    /// pass through the whole narrow chain) or naive (materialize the
    /// parent, then transform).
    fn compute_raw(&self, idx: usize) -> Vec<T> {
        let mut out = Vec::new();
        if self.fuse {
            let mut emit = |t: T| out.push(t);
            self.parent.push_partition(idx, &mut |u| (self.f)(u, &mut emit));
        } else {
            let input = take_rows(self.parent.compute_partition_shared(idx));
            out.reserve(input.len());
            let mut emit = |t: T| out.push(t);
            for row in input {
                (self.f)(row, &mut emit);
            }
        }
        out
    }
}

impl<U, T, F> Op<T> for MapOp<U, T, F>
where
    U: Clone + Send + Sync,
    T: Clone + Send + Sync + SpillRow,
    F: Fn(U, &mut dyn FnMut(T)) + Send + Sync,
{
    fn partitions(&self) -> usize {
        self.parent.partitions()
    }
    fn compute_partition_shared(&self, idx: usize) -> Arc<Vec<T>> {
        if self.auto.armed() {
            return self.auto.get_or_init(idx, || self.compute_raw(idx));
        }
        Arc::new(self.compute_raw(idx))
    }
    fn push_partition(&self, idx: usize, emit: &mut dyn FnMut(T)) {
        if self.auto.armed() {
            // A filled (possibly spilled) cache cell replays through the
            // cursor — no rebuild. The first consumer computes and fills.
            if let Some(cursor) = self.auto.stream(idx) {
                for row in cursor {
                    emit(row);
                }
                return;
            }
            for row in self.compute_partition_shared(idx).iter() {
                emit(row.clone());
            }
            return;
        }
        if self.fuse {
            self.parent.push_partition(idx, &mut |u| (self.f)(u, &mut *emit));
        } else {
            for row in self.compute_raw(idx) {
                emit(row);
            }
        }
    }
    fn stream_partition(&self, idx: usize) -> Box<dyn Iterator<Item = T> + '_> {
        // An armed, filled cache cell replays through the cursor; anything
        // else falls back to materialize-and-drain (the pull consumer
        // cannot drive a push-fused chain without buffering it anyway).
        if self.auto.armed() {
            if let Some(cursor) = self.auto.stream(idx) {
                return Box::new(cursor);
            }
        }
        Box::new(take_rows(self.compute_partition_shared(idx)).into_iter())
    }
}

impl<U, T, F> Lineage for MapOp<U, T, F>
where
    U: Send + Sync,
    T: Clone + Send + Sync,
    F: Fn(U, &mut dyn FnMut(T)) + Send + Sync,
{
    fn plan(&self) -> PlanNode {
        PlanNode {
            id: self.lineage_id(),
            label: self.name.to_string(),
            kind: PlanKind::Narrow {
                fused: self.fuse,
                auto_cached: self.auto.armed(),
                consumed: self.consumed.load(Ordering::Relaxed),
            },
            partitions: self.parent.partitions(),
            est_rows: Lineage::est_rows(self),
            row_bytes: std::mem::size_of::<T>(),
            measured_bytes: None,
            residency: self.auto.residency(Lineage::est_cache_bytes(self)),
            children: vec![up(&self.parent).plan()],
        }
    }
    fn lineage_children(&self, visit: &mut dyn FnMut(&dyn Lineage)) {
        visit(up(&self.parent));
    }
    fn note_consumed(&self) -> Option<u32> {
        Some(self.consumed.fetch_add(1, Ordering::Relaxed) + 1)
    }
    fn est_cache_bytes(&self) -> Option<u64> {
        Lineage::est_rows(self).map(|r| r * std::mem::size_of::<T>() as u64)
    }
    fn arm_auto_cache(&self) {
        self.auto.arm();
    }
}

struct MapPartitionsOp<T, U, F> {
    parent: Arc<dyn Op<T>>,
    /// Computes output partition `idx` from the parent: out of the whole
    /// partition (`map_partitions`) or out of its pushed rows
    /// (`fold_partitions`).
    f: F,
    auto: AutoCache<U>,
    consumed: AtomicU32,
    _marker: std::marker::PhantomData<fn(T) -> U>,
}

impl<T, U, F> Op<U> for MapPartitionsOp<T, U, F>
where
    T: Send + Sync,
    U: Clone + Send + Sync + SpillRow,
    F: Fn(&dyn Op<T>, usize) -> Vec<U> + Send + Sync,
{
    fn partitions(&self) -> usize {
        self.parent.partitions()
    }
    fn compute_partition_shared(&self, idx: usize) -> Arc<Vec<U>> {
        if self.auto.armed() {
            return self
                .auto
                .get_or_init(idx, || (self.f)(&*self.parent, idx));
        }
        Arc::new((self.f)(&*self.parent, idx))
    }
}

impl<T, U, F> Lineage for MapPartitionsOp<T, U, F>
where
    T: Send + Sync,
    U: Clone + Send + Sync,
    F: Fn(&dyn Op<T>, usize) -> Vec<U> + Send + Sync,
{
    fn plan(&self) -> PlanNode {
        PlanNode {
            id: self.lineage_id(),
            label: "MapPartitions".to_string(),
            kind: PlanKind::NarrowBarrier,
            partitions: self.parent.partitions(),
            est_rows: Lineage::est_rows(self),
            row_bytes: std::mem::size_of::<U>(),
            measured_bytes: None,
            residency: self.auto.residency(Lineage::est_cache_bytes(self)),
            children: vec![up(&self.parent).plan()],
        }
    }
    fn lineage_children(&self, visit: &mut dyn FnMut(&dyn Lineage)) {
        visit(up(&self.parent));
    }
    fn note_consumed(&self) -> Option<u32> {
        Some(self.consumed.fetch_add(1, Ordering::Relaxed) + 1)
    }
    fn est_cache_bytes(&self) -> Option<u64> {
        Lineage::est_rows(self).map(|r| r * std::mem::size_of::<U>() as u64)
    }
    fn arm_auto_cache(&self) {
        self.auto.arm();
    }
}

struct UnionOp<T> {
    left: Arc<dyn Op<T>>,
    right: Arc<dyn Op<T>>,
}

impl<T: Clone + Send + Sync> Op<T> for UnionOp<T> {
    fn partitions(&self) -> usize {
        self.left.partitions() + self.right.partitions()
    }
    fn compute_partition_shared(&self, idx: usize) -> Arc<Vec<T>> {
        let l = self.left.partitions();
        if idx < l {
            self.left.compute_partition_shared(idx)
        } else {
            self.right.compute_partition_shared(idx - l)
        }
    }
    fn push_partition(&self, idx: usize, emit: &mut dyn FnMut(T)) {
        // Pass-through: fusion crosses the union boundary.
        let l = self.left.partitions();
        if idx < l {
            self.left.push_partition(idx, emit);
        } else {
            self.right.push_partition(idx - l, emit);
        }
    }
}

impl<T: Send + Sync> Lineage for UnionOp<T> {
    fn plan(&self) -> PlanNode {
        PlanNode {
            id: self.lineage_id(),
            label: "Union".to_string(),
            kind: PlanKind::Union,
            partitions: self.left.partitions() + self.right.partitions(),
            est_rows: Lineage::est_rows(self),
            row_bytes: std::mem::size_of::<T>(),
            measured_bytes: None,
            residency: None,
            children: vec![up(&self.left).plan(), up(&self.right).plan()],
        }
    }
    fn lineage_children(&self, visit: &mut dyn FnMut(&dyn Lineage)) {
        visit(up(&self.left));
        visit(up(&self.right));
    }
}

// ---------- cache ----------

struct CacheOp<T> {
    parent: Arc<dyn Op<T>>,
    store: PartitionStore<T>,
    hits: AtomicU64,
}

impl<T: Clone + Send + Sync + SpillRow> Op<T> for CacheOp<T> {
    fn partitions(&self) -> usize {
        self.parent.partitions()
    }
    fn compute_partition_shared(&self, idx: usize) -> Arc<Vec<T>> {
        if self.store.is_filled(idx) {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        self.store
            .get_or_init(idx, || self.parent.compute_partition_shared(idx))
    }
    fn push_partition(&self, idx: usize, emit: &mut dyn FnMut(T)) {
        // A filled cell (resident or spilled) replays through the cursor,
        // so a spilled cache is never rebuilt just to be pushed downstream.
        if let Some(cursor) = self.store.stream(idx) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            for row in cursor {
                emit(row);
            }
            return;
        }
        for row in self.compute_partition_shared(idx).iter() {
            emit(row.clone());
        }
    }
    fn stream_partition(&self, idx: usize) -> Box<dyn Iterator<Item = T> + '_> {
        if let Some(cursor) = self.store.stream(idx) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Box::new(cursor);
        }
        Box::new(take_rows(self.compute_partition_shared(idx)).into_iter())
    }
}

impl<T: Clone + Send + Sync> Lineage for CacheOp<T> {
    fn plan(&self) -> PlanNode {
        let est_bytes = Lineage::est_rows(self).map(|r| r * std::mem::size_of::<T>() as u64);
        PlanNode {
            id: self.lineage_id(),
            label: "Cache".to_string(),
            kind: PlanKind::Cache,
            partitions: self.parent.partitions(),
            est_rows: Lineage::est_rows(self),
            row_bytes: std::mem::size_of::<T>(),
            measured_bytes: None,
            residency: self.store.residency(est_bytes),
            children: vec![up(&self.parent).plan()],
        }
    }
    fn lineage_children(&self, visit: &mut dyn FnMut(&dyn Lineage)) {
        visit(up(&self.parent));
    }
}

// ---------- repartition (wide, round-robin) ----------

struct RepartitionOp<T> {
    parent: Arc<dyn Op<T>>,
    target: usize,
    store: PartitionStore<T>,
}

impl<T: Clone + Send + Sync + SpillRow> RepartitionOp<T> {
    fn ensure_filled(&self) {
        self.store.fill_once(|| {
            let inputs: Vec<Vec<T>> = (0..self.parent.partitions())
                .into_par_iter()
                .map(|i| take_rows(self.parent.compute_partition_shared(i)))
                .collect();
            let mut out: Vec<Vec<T>> = (0..self.target).map(|_| Vec::new()).collect();
            for (i, row) in inputs.into_iter().flatten().enumerate() {
                out[i % self.target].push(row);
            }
            out
        });
    }
}

impl<T: Clone + Send + Sync + SpillRow> Op<T> for RepartitionOp<T> {
    fn partitions(&self) -> usize {
        self.target
    }
    fn compute_partition_shared(&self, idx: usize) -> Arc<Vec<T>> {
        self.ensure_filled();
        self.store.load(idx).expect("repartition store filled")
    }
    fn push_partition(&self, idx: usize, emit: &mut dyn FnMut(T)) {
        // A spilled output partition streams off its cursor instead of
        // being rebuilt (the materialization barrier itself is inherent:
        // round-robin needs every input first).
        self.ensure_filled();
        for row in self.store.stream(idx).expect("repartition store filled") {
            emit(row);
        }
    }
    fn stream_partition(&self, idx: usize) -> Box<dyn Iterator<Item = T> + '_> {
        self.ensure_filled();
        Box::new(self.store.stream(idx).expect("repartition store filled"))
    }
}

impl<T: Clone + Send + Sync + SpillRow> Lineage for RepartitionOp<T> {
    fn plan(&self) -> PlanNode {
        let est_bytes = Lineage::est_rows(self).map(|r| r * std::mem::size_of::<T>() as u64);
        PlanNode {
            id: self.lineage_id(),
            label: format!("Repartition[{}] === stage boundary ===", self.target),
            kind: PlanKind::Repartition,
            partitions: self.target,
            est_rows: Lineage::est_rows(self),
            row_bytes: std::mem::size_of::<T>(),
            measured_bytes: None,
            residency: self.store.residency(est_bytes),
            children: vec![up(&self.parent).plan()],
        }
    }
    fn lineage_children(&self, visit: &mut dyn FnMut(&dyn Lineage)) {
        visit(up(&self.parent));
    }
    fn run_stage(&self, inputs: &mut dyn FnMut(&dyn Lineage)) {
        inputs(up(&self.parent));
        self.ensure_filled();
    }
}

// ---------- retry (failure-aware partition executor) ----------

struct RetryOp<T> {
    parent: Arc<dyn Op<T>>,
    policy: RetryPolicy,
    retries: AtomicU64,
}

impl<T> RetryOp<T> {
    /// Run `run` under the retry policy, re-raising the last panic once
    /// the attempt budget is spent.
    fn run_bounded<R>(&self, run: impl Fn() -> R) -> R {
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(&run)) {
                Ok(rows) => return rows,
                Err(payload) => {
                    if attempt >= self.policy.max_attempts {
                        std::panic::resume_unwind(payload);
                    }
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    self.policy.sleep_before_retry(attempt);
                }
            }
        }
    }
}

impl<T: Send + Sync> Op<T> for RetryOp<T> {
    fn partitions(&self) -> usize {
        self.parent.partitions()
    }
    fn compute_partition_shared(&self, idx: usize) -> Arc<Vec<T>> {
        self.run_bounded(|| self.parent.compute_partition_shared(idx))
    }
    // No push_partition override: retry is deliberately a fusion barrier.
    // A push-through retry that re-ran a panicking parent after rows had
    // already been emitted would duplicate them downstream; the default
    // (materialize under run_bounded, then replay) keeps retries atomic.
}

impl<T: Send + Sync> Lineage for RetryOp<T> {
    fn plan(&self) -> PlanNode {
        PlanNode {
            id: self.lineage_id(),
            label: format!("Retry[max {} attempts]", self.policy.max_attempts),
            kind: PlanKind::Retry,
            partitions: self.parent.partitions(),
            est_rows: Lineage::est_rows(self),
            row_bytes: std::mem::size_of::<T>(),
            measured_bytes: None,
            residency: None,
            children: vec![up(&self.parent).plan()],
        }
    }
    fn lineage_children(&self, visit: &mut dyn FnMut(&dyn Lineage)) {
        visit(up(&self.parent));
    }
    // The stage runner stops here: a map side below a retry runs inside
    // the retried partition task, so a panic there is retried, not raised.
    fn run_stage(&self, _inputs: &mut dyn FnMut(&dyn Lineage)) {}
}

// ---------- public API ----------

impl<T: Clone + Send + Sync + SpillRow + 'static> Dataset<T> {
    /// Create a dataset from a vector, split into `partitions` contiguous
    /// blocks (balanced, like a file read).
    pub fn from_vec(data: Vec<T>, partitions: usize) -> Self {
        Self::from_vec_with(data, partitions, OptimizerConfig::default())
    }

    /// Like [`Dataset::from_vec`], but under an explicit optimizer
    /// configuration — in particular, a [`OptimizerConfig::spill_budget`]
    /// applies to the source partitions themselves, so even the input can
    /// live (partly) on disk.
    pub fn from_vec_with(data: Vec<T>, partitions: usize, cfg: OptimizerConfig) -> Self {
        assert!(partitions > 0, "need at least one partition");
        let n = data.len();
        let mut parts: Vec<Vec<T>> = (0..partitions).map(|_| Vec::new()).collect();
        if n > 0 {
            let base = n / partitions;
            let extra = n % partitions;
            let mut iter = data.into_iter();
            for (r, part) in parts.iter_mut().enumerate() {
                let len = base + usize::from(r < extra);
                part.extend(iter.by_ref().take(len));
            }
        }
        Self {
            op: Arc::new(Source {
                parts: PartitionStore::prefilled(
                    parts,
                    StoreConfig {
                        budget: cfg.spill_budget,
                        stats: None,
                        stream: cfg.stream_spills,
                    },
                ),
            }),
            opt: cfg,
            stats: None,
        }
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.op.partitions()
    }

    /// The optimizer configuration derived datasets inherit.
    pub fn optimizer_config(&self) -> OptimizerConfig {
        self.opt
    }

    /// Same lineage, different optimizer configuration for *subsequently
    /// built* operations (fusion and elision decisions are baked into each
    /// op at construction; already-built upstream nodes keep theirs).
    pub fn with_optimizer(&self, cfg: OptimizerConfig) -> Dataset<T> {
        Dataset {
            op: Arc::clone(&self.op),
            opt: cfg,
            stats: self.stats.clone(),
        }
    }

    /// Attach a shared counter block. Stores built by *subsequently
    /// created* operations (caches, shuffle buckets, repartitions) charge
    /// their spill/unspill traffic to it — already-built upstream nodes
    /// keep whatever block they were constructed with.
    pub fn with_stats(&self, stats: Arc<peachy_cluster::CommStats>) -> Dataset<T> {
        Dataset {
            op: Arc::clone(&self.op),
            opt: self.opt,
            stats: Some(stats),
        }
    }

    /// The store configuration ops built from this dataset hand their
    /// partition stores: the optimizer's byte budget plus the attached
    /// counter block.
    pub(crate) fn store_cfg(&self) -> StoreConfig {
        StoreConfig {
            budget: self.opt.spill_budget,
            stats: self.stats.clone(),
            stream: self.opt.stream_spills,
        }
    }

    /// Internal constructor for row-wise narrow ops.
    fn narrow<U, F>(&self, name: &'static str, f: F) -> Dataset<U>
    where
        U: Clone + Send + Sync + SpillRow + 'static,
        F: Fn(T, &mut dyn FnMut(U)) + Send + Sync + 'static,
    {
        Dataset {
            op: Arc::new(MapOp {
                parent: Arc::clone(&self.op),
                f,
                name,
                fuse: self.opt.fuse,
                auto: AutoCache::new(self.op.partitions(), self.store_cfg()),
                consumed: AtomicU32::new(0),
                _marker: std::marker::PhantomData,
            }),
            opt: self.opt,
            stats: self.stats.clone(),
        }
    }

    /// Narrow: apply `f` to every row.
    pub fn map<U, F>(&self, f: F) -> Dataset<U>
    where
        U: Clone + Send + Sync + SpillRow + 'static,
        F: Fn(T) -> U + Send + Sync + 'static,
    {
        self.narrow("Map", move |row, out| out(f(row)))
    }

    /// Narrow: keep rows satisfying the predicate.
    pub fn filter<F>(&self, pred: F) -> Dataset<T>
    where
        F: Fn(&T) -> bool + Send + Sync + 'static,
    {
        self.narrow("Filter", move |row: T, out| {
            if pred(&row) {
                out(row);
            }
        })
    }

    /// Narrow: expand each row into zero or more rows.
    pub fn flat_map<U, I, F>(&self, f: F) -> Dataset<U>
    where
        U: Clone + Send + Sync + SpillRow + 'static,
        I: IntoIterator<Item = U>,
        F: Fn(T) -> I + Send + Sync + 'static,
    {
        self.narrow("FlatMap", move |row, out| {
            for item in f(row) {
                out(item);
            }
        })
    }

    /// Narrow: transform a whole partition at once (Spark's
    /// `mapPartitions`) — the hook for per-partition algorithms such as
    /// map-side combining.
    pub fn map_partitions<U, F>(&self, f: F) -> Dataset<U>
    where
        U: Clone + Send + Sync + SpillRow + 'static,
        F: Fn(Vec<T>) -> Vec<U> + Send + Sync + 'static,
    {
        self.partition_wise(move |parent: &dyn Op<T>, idx| {
            f(take_rows(parent.compute_partition_shared(idx)))
        })
    }

    /// Like [`Dataset::map_partitions`], but `f` reads the partition as
    /// rows pushed into a sink it passes to `rows`, through the parent's
    /// push path: a fused narrow chain feeds it row by row, and the
    /// partition is never collected into a `Vec` first. Map-side combining
    /// runs through it.
    pub(crate) fn fold_partitions<U, F>(&self, f: F) -> Dataset<U>
    where
        U: Clone + Send + Sync + SpillRow + 'static,
        F: Fn(&mut dyn FnMut(&mut dyn FnMut(T))) -> Vec<U> + Send + Sync + 'static,
    {
        self.partition_wise(move |parent: &dyn Op<T>, idx| {
            f(&mut |emit| parent.push_partition(idx, emit))
        })
    }

    fn partition_wise<U, F>(&self, f: F) -> Dataset<U>
    where
        U: Clone + Send + Sync + SpillRow + 'static,
        F: Fn(&dyn Op<T>, usize) -> Vec<U> + Send + Sync + 'static,
    {
        Dataset {
            op: Arc::new(MapPartitionsOp {
                parent: Arc::clone(&self.op),
                f,
                auto: AutoCache::new(self.op.partitions(), self.store_cfg()),
                consumed: AtomicU32::new(0),
                _marker: std::marker::PhantomData,
            }),
            opt: self.opt,
            stats: self.stats.clone(),
        }
    }

    /// Narrow: concatenate two datasets (partitions of both are preserved).
    pub fn union_with(&self, other: &Dataset<T>) -> Dataset<T> {
        Dataset {
            op: Arc::new(UnionOp {
                left: Arc::clone(&self.op),
                right: Arc::clone(&other.op),
            }),
            opt: self.opt,
            stats: self.stats.clone(),
        }
    }

    /// Attach keys: produce a keyed dataset for wide operations.
    pub fn key_by<K, F>(&self, f: F) -> crate::keyed::KeyedDataset<K, T>
    where
        K: Clone + Send + Sync + SpillRow + std::hash::Hash + Eq + 'static,
        F: Fn(&T) -> K + Send + Sync + 'static,
    {
        crate::keyed::KeyedDataset::from_dataset(self.map(move |row| (f(&row), row)))
    }

    /// Pin this dataset's partitions after first computation — in memory,
    /// or on disk where the byte budget says so.
    pub fn cache(&self) -> Dataset<T> {
        let parts = self.op.partitions();
        Dataset {
            op: Arc::new(CacheOp {
                parent: Arc::clone(&self.op),
                store: PartitionStore::new(parts, self.store_cfg()),
                hits: AtomicU64::new(0),
            }),
            opt: self.opt,
            stats: self.stats.clone(),
        }
    }

    /// Make partition evaluation failure-aware: a partition whose compute
    /// panics (a flaky UDF, a simulated executor loss) is retried up to
    /// `policy.max_attempts` times with the policy's backoff — Spark's
    /// task-retry / Parsl's app-retry behaviour on the lineage graph. The
    /// panic is re-raised once the budget is exhausted. Because lineage
    /// recomputes from the parent each attempt (caches left uninitialized
    /// by a panicking compute are retried through), a transient failure is
    /// invisible in the action's result.
    pub fn with_retry(&self, policy: RetryPolicy) -> Dataset<T> {
        assert!(policy.max_attempts >= 1, "max_attempts must be >= 1");
        Dataset {
            op: Arc::new(RetryOp {
                parent: Arc::clone(&self.op),
                policy,
                retries: AtomicU64::new(0),
            }),
            opt: self.opt,
            stats: self.stats.clone(),
        }
    }

    /// Wide: redistribute rows round-robin over `target` partitions.
    pub fn repartition(&self, target: usize) -> Dataset<T> {
        assert!(target > 0, "need at least one partition");
        Dataset {
            op: Arc::new(RepartitionOp {
                parent: Arc::clone(&self.op),
                target,
                store: PartitionStore::new(target, self.store_cfg()),
            }),
            opt: self.opt,
            stats: self.stats.clone(),
        }
    }

    // ---------- actions ----------

    /// The optimizer's runtime pass, run at the start of every action
    /// except `take`: count consumptions, arm auto-caches where caching
    /// pays, then run every stage below the root on all cores.
    fn prepare(&self) {
        optimize::prepare_action(up(&self.op), &self.opt);
    }

    /// Action: materialize every row (partitions evaluated in parallel,
    /// concatenated in partition order). Reads the shared-partition path,
    /// so resident rows (sources, caches) are cloned once into the output
    /// rather than once per lineage hop.
    pub fn collect(&self) -> Vec<T> {
        self.prepare();
        let parts: Vec<Arc<Vec<T>>> = (0..self.op.partitions())
            .into_par_iter()
            .map(|i| self.op.compute_partition_shared(i))
            .collect();
        let mut out = Vec::with_capacity(parts.iter().map(|p| p.len()).sum());
        for part in parts {
            out.extend(take_rows(part));
        }
        out
    }

    /// Action: number of rows. Counts through the shared handles — no row
    /// is cloned.
    pub fn count(&self) -> usize {
        self.prepare();
        (0..self.op.partitions())
            .into_par_iter()
            .map(|i| self.op.compute_partition_shared(i).len())
            .sum()
    }

    /// Action: at most `n` rows, from the earliest partitions (partitions
    /// are evaluated lazily one at a time, like Spark's `take`, so a
    /// shuffle the prefix never reaches is never routed). Only the taken
    /// prefix is cloned when the partition is resident elsewhere.
    pub fn take(&self, n: usize) -> Vec<T> {
        optimize::arm_auto_caches(up(&self.op), &self.opt);
        let mut out = Vec::with_capacity(n);
        for i in 0..self.op.partitions() {
            if out.len() >= n {
                break;
            }
            let need = n - out.len();
            match Arc::try_unwrap(self.op.compute_partition_shared(i)) {
                Ok(part) => out.extend(part.into_iter().take(need)),
                Err(resident) => out.extend(resident.iter().take(need).cloned()),
            }
        }
        out
    }

    /// Action: fold all rows with an associative, commutative operator.
    /// Returns `None` for an empty dataset.
    pub fn reduce<F>(&self, f: F) -> Option<T>
    where
        F: Fn(T, T) -> T + Send + Sync,
    {
        self.prepare();
        let parts: Vec<Option<T>> = (0..self.op.partitions())
            .into_par_iter()
            .map(|i| take_rows(self.op.compute_partition_shared(i)).into_iter().reduce(&f))
            .collect();
        parts.into_iter().flatten().reduce(&f)
    }

    /// Action: like [`Dataset::collect`], but partition evaluation is
    /// scheduled by a cluster-layer [`Executor`] (Seq / Rayon / Cluster) —
    /// the bridge the optimizer equivalence suite uses to pin plans across
    /// backends. Output is bit-identical to `collect()` on every backend:
    /// partitions are assigned to parts in contiguous blocks and merged in
    /// part order.
    pub fn collect_with(&self, exec: &Executor) -> Vec<T>
    where
        T: ByteSized + 'static,
    {
        self.prepare();
        let n = self.op.partitions();
        let exec = exec.shrink_to(n);
        let dist = Block::new(n, exec.parts_for(n));
        let groups: Vec<Vec<Vec<T>>> = exec.map_parts(&dist, |_, range| {
            range
                .map(|i| take_rows(self.op.compute_partition_shared(i)))
                .collect()
        });
        let mut out = Vec::new();
        for group in groups {
            for part in group {
                out.extend(part);
            }
        }
        out
    }

    /// Action: like [`Dataset::count`], but scheduled by an [`Executor`].
    pub fn count_with(&self, exec: &Executor) -> usize {
        self.prepare();
        let n = self.op.partitions();
        let exec = exec.shrink_to(n);
        let dist = Block::new(n, exec.parts_for(n));
        let per_part: Vec<u64> = exec.map_parts(&dist, |_, range| {
            range
                .map(|i| self.op.compute_partition_shared(i).len() as u64)
                .sum::<u64>()
        });
        per_part.into_iter().sum::<u64>() as usize
    }

    /// Number of execution stages: shuffle boundaries + 1 along the
    /// deepest lineage path — the quantity `explain()` marks visually.
    pub fn num_stages(&self) -> usize {
        up(&self.op).plan().stage_count()
    }

    /// Render the lineage tree, with stage boundaries marked at wide
    /// operations.
    pub fn explain(&self) -> String {
        up(&self.op).plan().lineage_text()
    }

    /// The optimizer's view of this plan: naive and optimized renderings
    /// plus predicted shuffle bytes and a rewrite summary.
    pub fn explain_plans(&self) -> PlanReport {
        optimize::report_for(up(&self.op))
    }
}

struct CoalesceOp<T> {
    parent: Arc<dyn Op<T>>,
    group: usize,
    target: usize,
}

impl<T: Clone + Send + Sync> Op<T> for CoalesceOp<T> {
    fn partitions(&self) -> usize {
        self.target
    }
    fn compute_partition_shared(&self, idx: usize) -> Arc<Vec<T>> {
        let sources = self.parent.partitions();
        let start = idx * self.group;
        let end = ((idx + 1) * self.group).min(sources);
        let mut out = Vec::new();
        for s in start..end {
            out.extend(take_rows(self.parent.compute_partition_shared(s)));
        }
        Arc::new(out)
    }
    fn push_partition(&self, idx: usize, emit: &mut dyn FnMut(T)) {
        // Order-preserving pass-through: fusion crosses the merge.
        let sources = self.parent.partitions();
        let start = idx * self.group;
        let end = ((idx + 1) * self.group).min(sources);
        for s in start..end {
            self.parent.push_partition(s, emit);
        }
    }
}

impl<T: Send + Sync> Lineage for CoalesceOp<T> {
    fn plan(&self) -> PlanNode {
        PlanNode {
            id: self.lineage_id(),
            label: format!("Coalesce[{}]", self.target),
            kind: PlanKind::NarrowBarrier,
            partitions: self.target,
            est_rows: Lineage::est_rows(self),
            row_bytes: std::mem::size_of::<T>(),
            measured_bytes: None,
            residency: None,
            children: vec![up(&self.parent).plan()],
        }
    }
    fn lineage_children(&self, visit: &mut dyn FnMut(&dyn Lineage)) {
        visit(up(&self.parent));
    }
}

impl<T: Clone + Send + Sync + 'static> Dataset<T> {
    /// Internal: group `per` consecutive source partitions into each of
    /// `target` output partitions (order-preserving narrow-ish merge).
    pub(crate) fn from_op_groups(parent: Dataset<T>, per: usize, target: usize) -> Dataset<T> {
        let opt = parent.opt;
        let stats = parent.stats.clone();
        Dataset {
            op: Arc::new(CoalesceOp {
                parent: parent.op,
                group: per,
                target,
            }),
            opt,
            stats,
        }
    }
}

impl Dataset<String> {
    /// Parse the lines of a text blob into a dataset of `String` rows —
    /// the ingestion step of every pipeline.
    pub fn from_text(text: &str, partitions: usize) -> Dataset<String> {
        Dataset::from_vec(text.lines().map(String::from).collect(), partitions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_text_splits_lines() {
        let ds = Dataset::from_text("a\nb\nc\n", 2);
        assert_eq!(ds.collect(), vec!["a", "b", "c"]);
    }

    #[test]
    fn from_vec_balances_partitions() {
        let ds = Dataset::from_vec((0..10).collect::<Vec<i32>>(), 4);
        assert_eq!(ds.num_partitions(), 4);
        assert_eq!(ds.collect(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn from_vec_more_partitions_than_rows() {
        let ds = Dataset::from_vec(vec![1, 2], 5);
        assert_eq!(ds.num_partitions(), 5);
        assert_eq!(ds.count(), 2);
    }

    #[test]
    fn empty_dataset() {
        let ds = Dataset::from_vec(Vec::<i32>::new(), 3);
        assert_eq!(ds.count(), 0);
        assert!(ds.collect().is_empty());
        assert_eq!(ds.reduce(|a, b| a + b), None);
    }

    #[test]
    fn map_filter_flat_map_chain() {
        let ds = Dataset::from_vec((1..=10).collect::<Vec<i32>>(), 3)
            .map(|x| x * 2)
            .filter(|&x| x % 3 == 0)
            .flat_map(|x| vec![x, x + 1]);
        assert_eq!(ds.collect(), vec![6, 7, 12, 13, 18, 19]);
    }

    #[test]
    fn fused_and_naive_chains_are_bit_identical() {
        let data: Vec<i32> = (0..500).collect();
        let build = |cfg: OptimizerConfig| {
            Dataset::from_vec(data.clone(), 7)
                .with_optimizer(cfg)
                .map(|x| x * 3)
                .filter(|&x| x % 2 == 0)
                .flat_map(|x| vec![x, x + 1])
                .map(|x| x - 1)
        };
        let fused = build(OptimizerConfig::default());
        let naive = build(OptimizerConfig::naive());
        assert_eq!(fused.collect(), naive.collect());
        assert_eq!(fused.count(), naive.count());
        assert_eq!(fused.take(13), naive.take(13));
    }

    #[test]
    fn fusion_streams_without_materializing_intermediates() {
        // Observable allocation proxy: a clone-counting row. A fused chain
        // clones each source row exactly once (out of the resident source);
        // the naive chain clones once per materialized hop boundary too,
        // but the *source* clone count is identical — so instead we pin the
        // per-op pass structure via call order: in a fused chain the map
        // sees row i immediately before the filter sees row i.
        let order = Arc::new(std::sync::Mutex::new(Vec::new()));
        let o1 = Arc::clone(&order);
        let o2 = Arc::clone(&order);
        let ds = Dataset::from_vec((0..3).collect::<Vec<i32>>(), 1)
            .map(move |x| {
                o1.lock().unwrap().push(format!("map{x}"));
                x
            })
            .filter(move |&x| {
                o2.lock().unwrap().push(format!("filter{x}"));
                true
            });
        ds.collect();
        assert_eq!(
            *order.lock().unwrap(),
            vec!["map0", "filter0", "map1", "filter1", "map2", "filter2"],
            "fused chain interleaves per-row, not per-pass"
        );

        // The naive configuration runs pass-by-pass.
        let order = Arc::new(std::sync::Mutex::new(Vec::new()));
        let o1 = Arc::clone(&order);
        let o2 = Arc::clone(&order);
        let ds = Dataset::from_vec((0..3).collect::<Vec<i32>>(), 1)
            .with_optimizer(OptimizerConfig::naive())
            .map(move |x| {
                o1.lock().unwrap().push(format!("map{x}"));
                x
            })
            .filter(move |&x| {
                o2.lock().unwrap().push(format!("filter{x}"));
                true
            });
        ds.collect();
        assert_eq!(
            *order.lock().unwrap(),
            vec!["map0", "map1", "map2", "filter0", "filter1", "filter2"],
            "naive chain materializes between ops"
        );
    }

    #[test]
    fn collect_preserves_order() {
        let data: Vec<i32> = (0..1000).collect();
        let ds = Dataset::from_vec(data.clone(), 7).map(|x| x);
        assert_eq!(ds.collect(), data);
    }

    #[test]
    fn take_is_prefix() {
        let ds = Dataset::from_vec((0..100).collect::<Vec<i32>>(), 5);
        assert_eq!(ds.take(7), (0..7).collect::<Vec<_>>());
        assert_eq!(ds.take(0), Vec::<i32>::new());
        assert_eq!(ds.take(1000).len(), 100);
    }

    #[test]
    fn reduce_sums() {
        let ds = Dataset::from_vec((1..=100).collect::<Vec<u64>>(), 8);
        assert_eq!(ds.reduce(|a, b| a + b), Some(5050));
    }

    #[test]
    fn union_concatenates() {
        let a = Dataset::from_vec(vec![1, 2], 1);
        let b = Dataset::from_vec(vec![3, 4], 2);
        let u = a.union_with(&b);
        assert_eq!(u.num_partitions(), 3);
        assert_eq!(u.collect(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn lazy_until_action() {
        static CALLS: AtomicU64 = AtomicU64::new(0);
        let ds = Dataset::from_vec((0..10).collect::<Vec<i32>>(), 2).map(|x| {
            CALLS.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(CALLS.load(Ordering::Relaxed), 0, "map must be lazy");
        ds.count();
        assert_eq!(CALLS.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn cache_avoids_recomputation() {
        let calls = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&calls);
        let ds = Dataset::from_vec((0..10).collect::<Vec<i32>>(), 2)
            .map(move |x| {
                c.fetch_add(1, Ordering::Relaxed);
                x
            })
            .cache();
        ds.count();
        ds.count();
        ds.collect();
        assert_eq!(
            calls.load(Ordering::Relaxed),
            10,
            "parent computed exactly once"
        );
    }

    #[test]
    fn auto_cache_arms_on_second_action() {
        let calls = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&calls);
        // 10k rows × 4 bytes clears the 1 KiB cost threshold; NO
        // explicit .cache() anywhere.
        let ds = Dataset::from_vec((0..10_000).collect::<Vec<i32>>(), 4).map(move |x| {
            c.fetch_add(1, Ordering::Relaxed);
            x
        });
        ds.count();
        assert_eq!(calls.load(Ordering::Relaxed), 10_000);
        ds.count(); // second action arms the auto-cache, then fills it
        assert_eq!(calls.load(Ordering::Relaxed), 20_000);
        ds.count(); // third action reads the armed cache
        ds.collect();
        assert_eq!(
            calls.load(Ordering::Relaxed),
            20_000,
            "auto-cache serves actions 3+ without recompute"
        );
    }

    #[test]
    fn auto_cache_respects_cost_threshold() {
        let calls = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&calls);
        // 10 rows × 4 bytes is far below the 1 KiB threshold: the
        // optimizer must judge the cache not worth holding.
        let ds = Dataset::from_vec((0..10).collect::<Vec<i32>>(), 2).map(move |x| {
            c.fetch_add(1, Ordering::Relaxed);
            x
        });
        for _ in 0..4 {
            ds.count();
        }
        assert_eq!(
            calls.load(Ordering::Relaxed),
            40,
            "tiny subtree recomputes: cache not worth its footprint"
        );
    }

    #[test]
    fn auto_cache_disabled_by_config() {
        let calls = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&calls);
        let ds = Dataset::from_vec((0..10_000).collect::<Vec<i32>>(), 4)
            .with_optimizer(OptimizerConfig {
                auto_cache: false,
                ..OptimizerConfig::default()
            })
            .map(move |x| {
                c.fetch_add(1, Ordering::Relaxed);
                x
            });
        for _ in 0..3 {
            ds.count();
        }
        assert_eq!(calls.load(Ordering::Relaxed), 30_000, "auto-cache off");
    }

    #[test]
    fn auto_cache_shares_diamond_within_one_action() {
        let calls = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&calls);
        let base = Dataset::from_vec((0..10_000).collect::<Vec<i32>>(), 4).map(move |x| {
            c.fetch_add(1, Ordering::Relaxed);
            x
        });
        // Diamond: both union branches consume `base` — one action, two
        // consumptions, armed before any partition computes.
        let diamond = base.map(|x| x + 1).union_with(&base.map(|x| x + 2));
        assert_eq!(diamond.count(), 20_000);
        assert_eq!(
            calls.load(Ordering::Relaxed),
            10_000,
            "shared subtree computed once within the diamond"
        );
    }

    #[test]
    fn source_actions_share_resident_rows() {
        // A row type whose clones are observable: repeated actions on an
        // *uncached* dataset must read the source's resident rows, not
        // re-clone them per action.
        #[derive(Debug)]
        struct Row(u64, Arc<AtomicU64>);
        impl Clone for Row {
            fn clone(&self) -> Self {
                self.1.fetch_add(1, Ordering::Relaxed);
                Row(self.0, Arc::clone(&self.1))
            }
        }
        impl ByteSized for Row {
            fn approx_bytes(&self) -> usize {
                std::mem::size_of::<u64>()
            }
        }
        // Never actually spills (no budget here); the decode fabricates a
        // fresh counter, which is fine for a counting test row.
        impl SpillRow for Row {
            fn spill_encode(&self, out: &mut Vec<u8>) {
                self.0.spill_encode(out);
            }
            fn spill_decode(r: &mut crate::store::SpillReader<'_>) -> Self {
                Row(u64::spill_decode(r), Arc::new(AtomicU64::new(0)))
            }
        }
        let clones = Arc::new(AtomicU64::new(0));
        let data: Vec<Row> = (0..10).map(|i| Row(i, Arc::clone(&clones))).collect();
        let ds = Dataset::from_vec(data, 3);
        ds.count();
        ds.count();
        ds.count();
        assert_eq!(clones.load(Ordering::Relaxed), 0, "count clones nothing");
        assert_eq!(ds.take(4).len(), 4);
        assert_eq!(clones.load(Ordering::Relaxed), 4, "take clones its prefix only");
        let all = ds.collect();
        assert_eq!(all.len(), 10);
        assert_eq!(
            clones.load(Ordering::Relaxed),
            14,
            "collect clones each row exactly once"
        );
    }

    #[test]
    fn uncached_recomputes() {
        let calls = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&calls);
        let ds = Dataset::from_vec((0..10).collect::<Vec<i32>>(), 2).map(move |x| {
            c.fetch_add(1, Ordering::Relaxed);
            x
        });
        ds.count();
        ds.count();
        assert_eq!(calls.load(Ordering::Relaxed), 20, "no cache → recompute");
    }

    #[test]
    fn repartition_preserves_rows() {
        let ds = Dataset::from_vec((0..20).collect::<Vec<i32>>(), 2).repartition(5);
        assert_eq!(ds.num_partitions(), 5);
        let mut rows = ds.collect();
        rows.sort_unstable();
        assert_eq!(rows, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn explain_shows_lineage() {
        let ds = Dataset::from_vec(vec![1, 2, 3], 2)
            .map(|x| x)
            .filter(|_| true);
        assert_eq!(
            ds.explain(),
            "Filter\n  Map\n    Source[3 rows, 2 partitions]\n"
        );

        // One plan holding every node kind: a fused run, a partition-wise
        // pass, a repartition, a cache, a retry, a coalesce, a union, a
        // real shuffle and an elided one (the second `reduce_by_key`
        // routes by the same seed and count as the first).
        let base = Dataset::from_vec((0..1_000u64).collect::<Vec<_>>(), 4);
        let narrow = base
            .map(|x| x * 3)
            .filter(|x| x % 2 == 0)
            .flat_map(|x| vec![x, x + 1]);
        let barriers = base
            .map_partitions(|rows| rows)
            .repartition(3)
            .cache()
            .with_retry(RetryPolicy::default())
            .coalesce(2);
        let ds = narrow
            .union_with(&barriers)
            .key_by(|x| x % 7)
            .reduce_by_key(|a, b| a + b)
            .reduce_by_key(|a, b| a.max(b))
            .rows();
        // Read before any action and after each of two: the text and the
        // stage count never change. The predicted bytes switch from
        // estimates to the shuffle's exact post counts once it has run,
        // and the second action arms the auto-caches, which breaks the
        // fused run.
        assert_eq!(ds.explain_plans().optimized, EVERY_NODE_KIND_OPTIMIZED);
        let reads = [
            (1, 64_000, 32_000),
            (1, 32_112, 32_000),
            (0, 32_112, 32_000),
        ];
        for (read, (fused_runs, naive_bytes, optimized_bytes)) in reads.into_iter().enumerate() {
            assert_eq!(ds.explain(), EVERY_NODE_KIND, "read {read}");
            assert_eq!(ds.num_stages(), 3, "read {read}");
            let report = ds.explain_plans();
            assert_eq!(
                (
                    report.fused_runs,
                    report.elided_shuffles,
                    report.predicted_naive_shuffle_bytes,
                    report.predicted_optimized_shuffle_bytes,
                ),
                (fused_runs, 1, naive_bytes, optimized_bytes),
                "read {read}"
            );
            ds.collect();
        }
    }

    const EVERY_NODE_KIND: &str = "\
ReduceByKey[6 partitions] ~~~ shuffle elided (co-partitioned) ~~~
  MapPartitions
    ReduceByKey[6 partitions] === stage boundary (shuffle) ===
      MapPartitions
        Map
          Union
            FlatMap
              Filter
                Map
                  Source[1000 rows, 4 partitions]
            Coalesce[2]
              Retry[max 3 attempts]
                Cache
                  Repartition[3] === stage boundary ===
                    MapPartitions
                      Source[1000 rows, 4 partitions]
";

    const EVERY_NODE_KIND_OPTIMIZED: &str = "\
ReduceByKey[6 partitions] ~~~ shuffle elided (co-partitioned) ~~~
  MapPartitions
    ReduceByKey[6 partitions] === stage boundary (shuffle) ===
      MapPartitions
        Map
          Union
            Fused[FlatMap <- Filter <- Map]
              Source[1000 rows, 4 partitions]
            Coalesce[2]
              Retry[max 3 attempts]
                Cache
                  Repartition[3] === stage boundary ===
                    MapPartitions
                      Source[1000 rows, 4 partitions]
";

    #[test]
    fn explain_plans_reports_fused_runs() {
        let ds = Dataset::from_vec((0..100).collect::<Vec<i32>>(), 4)
            .map(|x| x)
            .filter(|_| true)
            .map(|x| x + 1);
        let report = ds.explain_plans();
        assert_eq!(report.fused_runs, 1, "one run of three narrow ops");
        assert!(report.optimized.contains("Fused["));
        assert!(!report.naive.contains("Fused["));
        // The rendered report mentions both plans.
        let rendered = report.to_string();
        assert!(rendered.contains("naive plan:"));
        assert!(rendered.contains("optimized plan:"));

        let naive = Dataset::from_vec((0..100).collect::<Vec<i32>>(), 4)
            .with_optimizer(OptimizerConfig::naive())
            .map(|x| x)
            .filter(|_| true);
        assert_eq!(naive.explain_plans().fused_runs, 0);

        let split_by_shuffle = Dataset::from_vec((0..100u64).collect::<Vec<_>>(), 4)
            .map(|x| x + 1)
            .filter(|x| x % 3 != 0)
            .key_by(|x| x % 5)
            .group_by_key()
            .rows()
            .map(|(k, vs)| k + vs.len() as u64)
            .filter(|_| true);
        assert_eq!(
            split_by_shuffle.explain_plans().fused_runs,
            2,
            "one run per stage"
        );

        // A diamond consumes `shared` twice in one action, which arms its
        // auto-cache; the nodes below it are walked once and stay fused.
        let shared = Dataset::from_vec((0..1_000u64).collect::<Vec<_>>(), 4)
            .map(|x| x + 1)
            .map(|x| x * 2)
            .map(|x| x ^ 1);
        let top = shared.map(|x| x + 3).filter(|_| true);
        assert_eq!(top.explain_plans().fused_runs, 1, "one run of five");
        top.union_with(&shared.map(|x| x + 5)).count();
        let report = top.explain_plans();
        assert_eq!(report.auto_cached, 1);
        assert_eq!(
            report.fused_runs, 2,
            "the armed cache splits the run in two"
        );
    }

    #[test]
    fn collect_with_matches_collect_on_all_backends() {
        let ds = Dataset::from_vec((0..200).collect::<Vec<i32>>(), 6)
            .map(|x| x * 2)
            .filter(|&x| x % 3 != 0);
        let reference = ds.collect();
        for exec in [Executor::seq(), Executor::rayon(3), Executor::cluster(4)] {
            assert_eq!(ds.collect_with(&exec), reference, "{exec:?}");
            assert_eq!(ds.count_with(&exec), reference.len(), "{exec:?}");
        }
    }

    #[test]
    fn retry_recovers_from_transient_panics() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        // Each partition's first computation dies; the retry re-runs it.
        let failed_once: Arc<Mutex<HashSet<usize>>> = Arc::new(Mutex::new(HashSet::new()));
        let f = Arc::clone(&failed_once);
        let ds = Dataset::from_vec((0..40).collect::<Vec<i32>>(), 4)
            .map_partitions(move |rows: Vec<i32>| {
                let key = rows.first().copied().unwrap_or(-1) as usize;
                if f.lock().unwrap().insert(key) {
                    panic!("transient executor loss on partition starting at {key}");
                }
                rows
            })
            .with_retry(RetryPolicy::default());
        assert_eq!(ds.collect(), (0..40).collect::<Vec<_>>());
        assert_eq!(failed_once.lock().unwrap().len(), 4, "every partition failed once");
    }

    #[test]
    #[should_panic(expected = "permanent failure")]
    fn retry_gives_up_after_max_attempts() {
        let ds = Dataset::from_vec(vec![1, 2, 3], 1)
            .map(|_: i32| -> i32 { panic!("permanent failure") })
            .with_retry(RetryPolicy {
                max_attempts: 2,
                backoff: std::time::Duration::ZERO,
            });
        ds.collect();
    }

    #[test]
    fn retry_appears_in_lineage_and_keeps_stages() {
        let ds = Dataset::from_vec((0..10).collect::<Vec<i32>>(), 2)
            .map(|x| x + 1)
            .with_retry(RetryPolicy::default());
        assert!(ds.explain().contains("Retry[max 3 attempts]"));
        assert_eq!(ds.num_stages(), 1, "retry is not a stage boundary");
        assert_eq!(ds.num_partitions(), 2);
    }

    #[test]
    fn retry_is_a_fusion_barrier() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        // A downstream narrow op fused through a retried parent must never
        // see duplicated rows from a retried (partially-emitted) attempt.
        let failed_once: Arc<Mutex<HashSet<i32>>> = Arc::new(Mutex::new(HashSet::new()));
        let f = Arc::clone(&failed_once);
        let ds = Dataset::from_vec((0..30).collect::<Vec<i32>>(), 3)
            .map(move |x| {
                // Die mid-partition, after earlier rows were produced.
                if x % 10 == 5 && f.lock().unwrap().insert(x) {
                    panic!("transient mid-partition failure at {x}");
                }
                x
            })
            .with_retry(RetryPolicy {
                max_attempts: 3,
                backoff: std::time::Duration::ZERO,
            })
            .map(|x| x) // fused downstream of the retry barrier
            .filter(|_| true);
        assert_eq!(ds.collect(), (0..30).collect::<Vec<_>>());
    }

    #[test]
    fn stage_counting() {
        let base = Dataset::from_vec((0..50).collect::<Vec<i32>>(), 4);
        assert_eq!(base.num_stages(), 1);
        assert_eq!(
            base.map(|x| x).filter(|_| true).num_stages(),
            1,
            "narrow ops fuse"
        );
        assert_eq!(base.repartition(2).num_stages(), 2);
        let shuffled = base
            .key_by(|&x| x % 3)
            .reduce_by_key(|a, b| a + b)
            .rows()
            .map(|(_, v)| v);
        assert_eq!(shuffled.num_stages(), 2, "one shuffle boundary");
        let twice = shuffled
            .key_by(|&x| x)
            .group_by_key()
            .rows()
            .map(|(k, _)| k);
        assert_eq!(twice.num_stages(), 3, "two shuffle boundaries");
        // Union takes the deeper side.
        assert_eq!(base.union_with(&shuffled).num_stages(), 2);
        // The second reduce routes like the first, so it moves nothing.
        let elided = base
            .key_by(|&x| x % 3)
            .reduce_by_key(|a, b| a + b)
            .reduce_by_key(|a, b| a.max(b))
            .rows();
        assert_eq!(elided.explain_plans().elided_shuffles, 1);
        assert_eq!(
            elided.num_stages(),
            2,
            "an elided shuffle is not a stage boundary"
        );
    }
}
