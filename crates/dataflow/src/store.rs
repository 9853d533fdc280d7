//! The storage seam for resident partitions: byte-budgeted disk spill.
//!
//! Every holder of materialized partitions in the engine — source parts,
//! explicit cache cells, optimizer auto-cache cells, repartition outputs,
//! shuffle buckets, and memoized shuffle posts — keeps its rows in a
//! [`PartitionStore<T>`] instead of hand-rolling `OnceLock<Arc<Vec<T>>>`
//! cells. Without a byte budget (the default) the store *is* that cell
//! array — the mem-store mode, bit-for-bit the semantics the holders used
//! to implement themselves: first fill wins, later reads share the same
//! `Arc`. With a budget ([`OptimizerConfig::spill_budget`]) the store runs
//! in spill mode: partitions too big for their share of the budget are
//! encoded to a temp file ([`SpillRow`], a deterministic little-endian
//! format) and streamed back on access, so a pipeline's resident set stays
//! bounded while results remain bit-identical.
//!
//! # Determinism
//!
//! The core law (pinned in `tests/spill_laws.rs`): which partitions spill
//! is a pure function of (data, budget, config) — never of thread timing.
//!
//! * **Lazy holders** (caches, memoized shuffle posts) fill one partition
//!   at a time, in whatever order the pool schedules them. A shared
//!   "bytes-used-so-far" counter would make the spill set race-dependent,
//!   so lazy fills use a *fair-share* rule instead: partition `p` spills
//!   iff `bytes(p) × partitions > budget`. The decision reads only the
//!   partition's own size; any schedule produces the same spill set, and
//!   if every partition stays under its fair share the whole store is
//!   resident within budget.
//! * **Pre-sized holders** (shuffle buckets, repartition outputs, source
//!   parts) know every partition's exact byte size before any cell fills,
//!   so they pack greedily in index order: keep partitions resident while
//!   the running total fits the budget, spill the rest. Strictly better
//!   packing, still order-free — the sizes are data, not timing.
//!
//! # Streaming consumption
//!
//! Reading a spilled partition through [`PartitionStore::load`] rebuilds
//! it as one `Vec` — the budget bounds storage, not execution.
//! [`PartitionStore::replay`] fixes that: it pushes a slot's rows into a
//! consumer's sink, decoding a spilled slot one row at a time. With
//! `StoreConfig::stream` set (the default), fused narrow chains and the
//! shuffle's route/merge passes read through `replay`, so peak resident
//! memory stays bounded by the budget even *during* consumption. With it
//! cleared `replay` rebuilds the partition first — the measurable strawman
//! E22 ablates against.
//!
//! # The block codec
//!
//! A spill file is `[u64 rows]` followed by `[u32 len][row]` per row.
//! Every read of a spilled slot — `replay`, and the whole-partition
//! rebuild behind `load` and `get_or_init` — goes through one block reader:
//! it reads 64 KiB blocks and decodes each row straight out of the block; a
//! row the block's end cuts is carried to the front of the next block, and
//! the block grows for a row longer than itself.
//!
//! The write side is a `SpillFile`: the header, then one or more segments
//! of rows in segment order, each written by its own `SpillSink`. A sink
//! frames a row in place — it reserves the length prefix in its block,
//! encodes the row right after it and patches the prefix — and writes the
//! block when the next row might not fit. A file's segments start at
//! offsets fixed by the framed bytes metered for the segments before them
//! (`spill_segments`), so they fill in parallel, with positioned writes
//! through the file's one handle, and still lay down the bytes one sink
//! pushing every row in order would (`spill_file`, the one-segment case).
//! Each segment checks on close that it wrote exactly its metered rows and
//! bytes. The shuffle's route writes each input's rows as one segment of
//! every spilled bucket, in every store mode, and pre-sized fills place
//! their partitions on the `peachy-par` pool, so the ones they spill
//! encode in parallel.
//!
//! Spill and unspill traffic is metered through the `CommStats` block
//! ([`CommStats::add_spill`] / [`CommStats::add_unspill`]), and every
//! materialization or streamed row raises the deterministic
//! `CommStats::peak_resident_bytes` high-water mark, so the replay-read
//! cost *and* the memory bound of a budgeted run are as observable as its
//! shuffle volume.
//!
//! [`OptimizerConfig::spill_budget`]: crate::optimize::OptimizerConfig::spill_budget
//! [`CommStats::add_spill`]: peachy_cluster::CommStats::add_spill
//! [`CommStats::add_unspill`]: peachy_cluster::CommStats::add_unspill

use std::collections::BTreeSet;
use std::fs::File;
use std::io::{ErrorKind, Read};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use peachy_cluster::{ByteSized, CommStats};
use peachy_par::prelude::*;

use crate::dataset::take_rows;

// ---------- the deterministic row encoding ----------

/// A row that can round-trip through a spill file.
///
/// The encoding is fixed little-endian (floats via `to_bits`, lengths as
/// `u64` prefixes), so a spilled partition decodes to exactly the rows
/// that were written on any platform — bit-identity across budgets depends
/// on it. `ByteSized` is a supertrait because the budget that decides
/// *whether* to spill is enforced through the same byte accounting the
/// comm layer already uses.
pub trait SpillRow: ByteSized {
    /// Append this row's encoding to `out`.
    fn spill_encode(&self, out: &mut Vec<u8>);
    /// Decode one row from the reader (panics on a corrupt stream — spill
    /// files are written and read by the same process, so truncation is a
    /// bug, not an input error).
    fn spill_decode(r: &mut SpillReader<'_>) -> Self;
}

/// Cursor over a spill file's bytes.
pub struct SpillReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SpillReader<'a> {
    /// Wrap a byte buffer for decoding.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Read a fixed-size chunk.
    pub fn read_array<const N: usize>(&mut self) -> [u8; N] {
        let end = self.pos + N;
        let chunk: [u8; N] = self.buf[self.pos..end]
            .try_into()
            .expect("spill stream truncated");
        self.pos = end;
        chunk
    }

    /// Read a length-prefixed (`u64`) byte run.
    pub fn read_bytes(&mut self) -> &'a [u8] {
        let len = u64::from_le_bytes(self.read_array()) as usize;
        let end = self.pos + len;
        let run = &self.buf[self.pos..end];
        self.pos = end;
        run
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

macro_rules! spill_fixed_int {
    ($($t:ty),* $(,)?) => {$(
        impl SpillRow for $t {
            fn spill_encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn spill_decode(r: &mut SpillReader<'_>) -> Self {
                <$t>::from_le_bytes(r.read_array())
            }
        }
    )*};
}

spill_fixed_int!(u8, u16, u32, u64, u128, i8, i16, i32, i64, i128);

// Pointer-width ints travel as 64-bit so a spill file means the same thing
// on every platform.
impl SpillRow for usize {
    fn spill_encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(*self as u64).to_le_bytes());
    }
    fn spill_decode(r: &mut SpillReader<'_>) -> Self {
        u64::from_le_bytes(r.read_array()) as usize
    }
}

impl SpillRow for isize {
    fn spill_encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(*self as i64).to_le_bytes());
    }
    fn spill_decode(r: &mut SpillReader<'_>) -> Self {
        i64::from_le_bytes(r.read_array()) as isize
    }
}

// Floats round-trip through their bit patterns: exact, NaN payloads and
// signed zeros included.
impl SpillRow for f32 {
    fn spill_encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
    fn spill_decode(r: &mut SpillReader<'_>) -> Self {
        f32::from_bits(u32::from_le_bytes(r.read_array()))
    }
}

impl SpillRow for f64 {
    fn spill_encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
    fn spill_decode(r: &mut SpillReader<'_>) -> Self {
        f64::from_bits(u64::from_le_bytes(r.read_array()))
    }
}

impl SpillRow for bool {
    fn spill_encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn spill_decode(r: &mut SpillReader<'_>) -> Self {
        r.read_array::<1>()[0] != 0
    }
}

impl SpillRow for char {
    fn spill_encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(*self as u32).to_le_bytes());
    }
    fn spill_decode(r: &mut SpillReader<'_>) -> Self {
        char::from_u32(u32::from_le_bytes(r.read_array())).expect("valid char scalar")
    }
}

impl SpillRow for () {
    fn spill_encode(&self, _out: &mut Vec<u8>) {}
    fn spill_decode(_r: &mut SpillReader<'_>) -> Self {}
}

impl SpillRow for String {
    fn spill_encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.len() as u64).to_le_bytes());
        out.extend_from_slice(self.as_bytes());
    }
    fn spill_decode(r: &mut SpillReader<'_>) -> Self {
        String::from_utf8(r.read_bytes().to_vec()).expect("spilled string was utf8")
    }
}

/// Intern a decoded `&'static str` row in a process-wide cache.
///
/// Decoding a `&'static str` has to mint a `'static` string from file
/// bytes, which means leaking — but leaking *per decode* would grow
/// memory without bound as the same spilled partition is replayed (a
/// streaming store replays it on every pass). The cache leaks each distinct
/// string exactly once; every later decode of the same bytes returns the
/// same pointer.
fn intern_static_str(s: &str) -> &'static str {
    static CACHE: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
    let mut cache = CACHE.lock().expect("str intern cache poisoned");
    if let Some(hit) = cache.get(s) {
        return hit;
    }
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    cache.insert(leaked);
    leaked
}

/// `&'static str` rows (common in tests and literals) decode through a
/// process-wide intern cache: the distinct strings of a static-str dataset
/// are a finite set fixed at compile time, so the cache is bounded even
/// though each entry is deliberately leaked to get the `'static` lifetime.
impl SpillRow for &'static str {
    fn spill_encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.len() as u64).to_le_bytes());
        out.extend_from_slice(self.as_bytes());
    }
    fn spill_decode(r: &mut SpillReader<'_>) -> Self {
        let s = std::str::from_utf8(r.read_bytes()).expect("spilled str was utf8");
        intern_static_str(s)
    }
}

impl<T: SpillRow> SpillRow for Option<T> {
    fn spill_encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.spill_encode(out);
            }
        }
    }
    fn spill_decode(r: &mut SpillReader<'_>) -> Self {
        match r.read_array::<1>()[0] {
            0 => None,
            _ => Some(T::spill_decode(r)),
        }
    }
}

impl<T: SpillRow> SpillRow for Vec<T> {
    fn spill_encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.len() as u64).to_le_bytes());
        for item in self {
            item.spill_encode(out);
        }
    }
    fn spill_decode(r: &mut SpillReader<'_>) -> Self {
        let len = u64::from_le_bytes(r.read_array()) as usize;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::spill_decode(r));
        }
        out
    }
}

impl<T: SpillRow, const N: usize> SpillRow for [T; N] {
    fn spill_encode(&self, out: &mut Vec<u8>) {
        for item in self {
            item.spill_encode(out);
        }
    }
    fn spill_decode(r: &mut SpillReader<'_>) -> Self {
        let mut items = Vec::with_capacity(N);
        for _ in 0..N {
            items.push(T::spill_decode(r));
        }
        match items.try_into() {
            Ok(array) => array,
            Err(_) => unreachable!("exactly N items decoded"),
        }
    }
}

macro_rules! spill_tuple {
    ($($name:ident)+) => {
        #[allow(non_snake_case)]
        impl<$($name: SpillRow),+> SpillRow for ($($name,)+) {
            fn spill_encode(&self, out: &mut Vec<u8>) {
                let ($($name,)+) = self;
                $($name.spill_encode(out);)+
            }
            fn spill_decode(r: &mut SpillReader<'_>) -> Self {
                ($(<$name>::spill_decode(r),)+)
            }
        }
    };
}

spill_tuple!(A);
spill_tuple!(A B);
spill_tuple!(A B C);
spill_tuple!(A B C D);
spill_tuple!(A B C D E);
spill_tuple!(A B C D E F);

// ---------- store configuration ----------

/// How a [`PartitionStore`] holds its partitions.
#[derive(Clone)]
pub struct StoreConfig {
    /// Resident byte budget. `None` (the default) is the mem-store mode:
    /// every partition stays in RAM and nothing ever touches disk.
    pub budget: Option<u64>,
    /// Counter block charged for spill writes and unspill reads.
    pub stats: Option<Arc<CommStats>>,
    /// Replay spilled partitions row by row (the default). Cleared,
    /// [`PartitionStore::replay`] rebuilds each spilled partition first —
    /// the E22 strawman. Irrelevant without a budget (nothing ever
    /// spills).
    pub stream: bool,
}

impl Default for StoreConfig {
    fn default() -> Self {
        Self {
            budget: None,
            stats: None,
            stream: true,
        }
    }
}

impl std::fmt::Debug for StoreConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreConfig")
            .field("budget", &self.budget)
            .field("stats", &self.stats.is_some())
            .field("stream", &self.stream)
            .finish()
    }
}

// ---------- the store ----------

enum Slot<T> {
    /// Rows pinned in RAM — the only variant a budget-less store creates.
    Resident(Arc<Vec<T>>),
    /// Rows encoded into `path`; decoded into a fresh `Arc` per access.
    Spilled {
        path: PathBuf,
        encoded_bytes: u64,
        row_count: usize,
    },
}

/// A fixed-arity array of once-fillable partition slots, each resident in
/// RAM or spilled to a temp file according to the byte budget. See the
/// module docs for the placement rules and the determinism argument.
pub struct PartitionStore<T> {
    cells: Box<[OnceLock<Slot<T>>]>,
    cfg: StoreConfig,
    /// Spill directory, created lazily on first spill; removed on drop.
    dir: OnceLock<PathBuf>,
    /// Guards one-shot batch fills ([`PartitionStore::fill_once`]).
    filled: OnceLock<()>,
    spilled_parts: AtomicU64,
    spilled_bytes: AtomicU64,
}

/// Process-unique suffix for spill directories, so two stores never share
/// one (paths stay collision-free even across identical pipelines).
fn next_store_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// The per-process parent of every store's spill directory.
fn process_spill_dir() -> PathBuf {
    std::env::temp_dir().join(format!("peachy-spill-{}", std::process::id()))
}

/// Stores of this process that have a spill directory. Creating a store
/// directory and removing the per-process parent both happen under this
/// lock, so a store being created never races the last one's cleanup.
/// Poison is ignored: a panic under the lock leaves the count exact.
fn spilling_stores() -> MutexGuard<'static, usize> {
    static LIVE: Mutex<usize> = Mutex::new(0);
    LIVE.lock().unwrap_or_else(PoisonError::into_inner)
}

impl<T> PartitionStore<T> {
    /// An empty store with `partitions` unfilled slots.
    pub fn new(partitions: usize, cfg: StoreConfig) -> Self {
        Self {
            cells: (0..partitions).map(|_| OnceLock::new()).collect(),
            cfg,
            dir: OnceLock::new(),
            filled: OnceLock::new(),
            spilled_parts: AtomicU64::new(0),
            spilled_bytes: AtomicU64::new(0),
        }
    }

    /// Number of partition slots.
    pub fn partitions(&self) -> usize {
        self.cells.len()
    }

    /// Row count of slot `idx`, if filled — readable without touching disk.
    pub fn part_len(&self, idx: usize) -> Option<usize> {
        self.cells[idx].get().map(|slot| match slot {
            Slot::Resident(rows) => rows.len(),
            Slot::Spilled { row_count, .. } => *row_count,
        })
    }

    /// Partitions currently spilled to disk.
    pub fn spilled_parts(&self) -> u64 {
        self.spilled_parts.load(Ordering::Relaxed)
    }

    /// Encoded bytes currently spilled to disk.
    pub fn spilled_bytes(&self) -> u64 {
        self.spilled_bytes.load(Ordering::Relaxed)
    }

    /// The store's spill directory, if anything has spilled yet.
    pub fn spill_dir(&self) -> Option<&Path> {
        self.dir.get().map(PathBuf::as_path)
    }

    /// Does a byte budget apply (may anything spill)?
    pub(crate) fn budgeted(&self) -> bool {
        self.cfg.budget.is_some()
    }

    /// Does this store replay spilled partitions row by row? (Budgeted +
    /// `stream` — the shuffle's route pass picks where its second pass
    /// gets its rows off this.)
    pub(crate) fn streams(&self) -> bool {
        self.budgeted() && self.cfg.stream
    }

    /// Raise the peak-resident high-water mark for a materialization of
    /// `bytes` (no-op without a stats block).
    fn charge_peak(&self, bytes: u64) {
        if let Some(stats) = &self.cfg.stats {
            stats.charge_resident(bytes);
        }
    }

    /// This store's residency picture for plan rendering: `None` while no
    /// budget applies, the mem/spill decision (with `est_bytes` as the
    /// predicted volume where nothing has filled yet) otherwise.
    pub fn residency(&self, est_bytes: Option<u64>) -> Option<Residency> {
        let budget = self.cfg.budget?;
        let spilled_parts = self.spilled_parts() as usize;
        let spilled_bytes = self.spilled_bytes();
        let predicted_bytes = match est_bytes {
            Some(est) if est > budget => est,
            _ => 0,
        };
        Some(if spilled_parts == 0 && predicted_bytes == 0 {
            Residency::Mem { budget }
        } else {
            Residency::Disk {
                budget,
                spilled_parts,
                spilled_bytes,
                predicted_bytes,
                streamed: self.cfg.stream,
            }
        })
    }

    /// Which partitions of a pre-sized batch must spill: greedy first-fit
    /// in index order over the exact byte sizes (a pure function of sizes
    /// and budget).
    pub(crate) fn plan_presized(&self, sizes: &[u64]) -> Vec<bool> {
        let Some(budget) = self.cfg.budget else {
            return vec![false; sizes.len()];
        };
        let mut resident = 0u64;
        sizes
            .iter()
            .map(|&size| {
                if resident.saturating_add(size) <= budget {
                    resident += size;
                    false
                } else {
                    true
                }
            })
            .collect()
    }

    fn dir(&self) -> &Path {
        self.dir.get_or_init(|| {
            let dir = process_spill_dir().join(format!("store-{}", next_store_id()));
            let mut live = spilling_stores();
            std::fs::create_dir_all(&dir)
                .unwrap_or_else(|e| panic!("spill store: create {}: {e}", dir.display()));
            *live += 1;
            dir
        })
    }
}

impl<T: SpillRow> PartitionStore<T> {
    /// A store pre-filled from owned partitions (sources, repartition
    /// outputs): sizes are known before any slot fills, so placement uses
    /// the greedy pre-sized plan.
    pub fn prefilled(parts: Vec<Vec<T>>, cfg: StoreConfig) -> Self
    where
        T: Send + Sync,
    {
        let store = Self::new(parts.len(), cfg);
        store.fill_batch(parts);
        store
    }

    /// Fill every slot from owned partitions (each slot must be empty).
    /// The partitions are placed on the pool, so the ones the plan spills
    /// encode in parallel; the slots fill in index order.
    fn fill_batch(&self, parts: Vec<Vec<T>>)
    where
        T: Send + Sync,
    {
        assert_eq!(parts.len(), self.cells.len(), "one partition per slot");
        let sizes: Vec<u64> = parts.iter().map(|p| p.approx_bytes() as u64).collect();
        // Every partition existed in RAM at fill time; charge the largest.
        self.charge_peak(sizes.iter().copied().max().unwrap_or(0));
        let spill = self.plan_presized(&sizes);
        let slots: Vec<Slot<T>> = parts
            .into_par_iter()
            .enumerate()
            .map(|(idx, rows)| {
                if spill[idx] {
                    self.spill(idx, rows.len(), rows.iter())
                } else {
                    Slot::Resident(Arc::new(rows))
                }
            })
            .collect();
        for (idx, slot) in slots.into_iter().enumerate() {
            if self.cells[idx].set(slot).is_err() {
                panic!("fill_batch: slot {idx} already filled");
            }
        }
    }

    /// Run `fill` exactly once (across threads) to populate every slot.
    /// The holder's one-shot materialization guard (what used to be an
    /// outer `OnceLock<Vec<…>>`).
    pub fn fill_once(&self, fill: impl FnOnce() -> Vec<Vec<T>>)
    where
        T: Send + Sync,
    {
        self.filled.get_or_init(|| self.fill_batch(fill()));
    }

    /// Fill slot `idx` with resident rows (pre-sized holders that planned
    /// placement via [`PartitionStore::plan_presized`]).
    pub(crate) fn fill_resident(&self, idx: usize, rows: Arc<Vec<T>>) {
        self.charge_peak(rows.approx_bytes() as u64);
        if self.cells[idx].set(Slot::Resident(rows)).is_err() {
            panic!("fill_resident: slot {idx} already filled");
        }
    }

    /// Serve slot `idx`, computing it on first access (the lazy-holder
    /// path: caches and memoized posts). Placement follows the fair-share
    /// rule; the first fill returns the just-computed rows from RAM even
    /// when the slot spills, so the filling action pays no read-back.
    pub fn get_or_init(&self, idx: usize, compute: impl FnOnce() -> Arc<Vec<T>>) -> Arc<Vec<T>> {
        let mut fresh: Option<Arc<Vec<T>>> = None;
        let slot = self.cells[idx].get_or_init(|| {
            let rows = compute();
            let placed = self.place_lazy(idx, Arc::clone(&rows));
            fresh = Some(rows);
            placed
        });
        match fresh {
            Some(rows) => rows,
            None => self.read_slot(slot),
        }
    }

    /// Read slot `idx` if it has been filled (resident: the shared `Arc`;
    /// spilled: a fresh decode, charged as unspill traffic).
    pub fn load(&self, idx: usize) -> Option<Arc<Vec<T>>> {
        self.cells[idx].get().map(|slot| self.read_slot(slot))
    }

    /// Push slot `idx`'s rows into `emit`: replay the filled slot, or else
    /// compute it, fill it ([`PartitionStore::get_or_init`]) and push the
    /// rows — moved out where the slot spilled, one clone of the partition
    /// where it stays resident.
    pub(crate) fn replay_or_init(
        &self,
        idx: usize,
        emit: &mut dyn FnMut(T),
        compute: impl FnOnce() -> Arc<Vec<T>>,
    ) where
        T: Clone,
    {
        if !self.replay(idx, emit) {
            take_rows(self.get_or_init(idx, compute))
                .into_iter()
                .for_each(emit);
        }
    }

    /// Place a lazily computed partition: resident unless its size times
    /// the partition count exceeds the budget (the fair-share rule).
    fn place_lazy(&self, idx: usize, rows: Arc<Vec<T>>) -> Slot<T> {
        let bytes = rows.approx_bytes() as u64;
        // The computed partition exists in RAM right now either way.
        self.charge_peak(bytes);
        let Some(budget) = self.cfg.budget else {
            return Slot::Resident(rows);
        };
        if bytes.saturating_mul(self.cells.len() as u64) <= budget {
            return Slot::Resident(rows);
        }
        self.spill(idx, rows.len(), rows.iter())
    }

    fn spill<'a>(&self, idx: usize, row_count: usize, rows: impl Iterator<Item = &'a T>) -> Slot<T>
    where
        T: 'a,
    {
        let file = self.spill_file(idx, row_count);
        let mut sink = file.segment(0);
        rows.for_each(|row| sink.push(row));
        sink.close();
        file.into_slot()
    }

    /// Open slot `idx`'s spill file for one writer of `row_count` rows:
    /// [`SpillFile::segment`]`(0)` encodes them, [`SpillFile::finish`]
    /// fills the slot. The write-side dual of [`PartitionStore::replay`]:
    /// rows go to disk as a producer pushes them, never concatenated in
    /// RAM.
    pub(crate) fn spill_file(&self, idx: usize, row_count: usize) -> SpillFile<'_, T> {
        self.open_spill(idx, row_count, vec![(HEADER_BYTES, row_count, None)])
    }

    /// Open slot `idx`'s spill file for one writer per share: share `i`
    /// is the row count and framed bytes ([`framed_len`]) that segment `i`
    /// will write, so every segment's offset is known before any row is,
    /// and the segments may fill in parallel.
    pub(crate) fn spill_segments(&self, idx: usize, shares: &[(usize, u64)]) -> SpillFile<'_, T> {
        let mut offset = HEADER_BYTES;
        let segments = shares
            .iter()
            .map(|&(rows, bytes)| {
                let segment = (offset, rows, Some(bytes));
                offset += bytes;
                segment
            })
            .collect();
        let row_count = shares.iter().map(|&(rows, _)| rows).sum();
        self.open_spill(idx, row_count, segments)
    }

    /// Create slot `idx`'s spill file and write its header.
    fn open_spill(&self, idx: usize, rows: usize, segments: Vec<Segment>) -> SpillFile<'_, T> {
        let path = self.dir().join(format!("part-{idx}.bin"));
        let file = File::create(&path)
            .and_then(|file| {
                file.write_all_at(&(rows as u64).to_le_bytes(), 0)
                    .map(|()| file)
            })
            .unwrap_or_else(|e| panic!("spill store: create {}: {e}", path.display()));
        SpillFile {
            store: self,
            idx,
            path,
            file,
            segments,
            rows,
            sealed_rows: AtomicUsize::new(0),
            sealed_bytes: AtomicU64::new(0),
        }
    }

    /// Push slot `idx`'s rows into `emit`, in order; `false`, with nothing
    /// pushed, while the slot is unfilled.
    ///
    /// Resident slots clone the shared rows out one at a time (the same
    /// copies a consumer of [`PartitionStore::load`] would make). Spilled
    /// slots decode row by row out of a reused 64 KiB block when the store
    /// streams, so no intermediate `Vec` of the partition ever exists;
    /// with `StoreConfig::stream` cleared they are rebuilt first (the
    /// strawman). Unspill traffic is charged in full either way, so byte
    /// counters are mode-invariant.
    pub fn replay(&self, idx: usize, emit: &mut dyn FnMut(T)) -> bool
    where
        T: Clone,
    {
        let Some(slot) = self.cells[idx].get() else {
            return false;
        };
        match slot {
            Slot::Resident(rows) => rows.iter().for_each(|row| emit(row.clone())),
            Slot::Spilled { .. } if !self.cfg.stream => {
                take_rows(self.read_slot(slot)).into_iter().for_each(emit);
            }
            Slot::Spilled {
                path,
                encoded_bytes,
                row_count,
            } => self.decode(path, *encoded_bytes, *row_count, |row| {
                // Only this one decoded row is resident.
                self.charge_peak(row.approx_bytes() as u64);
                emit(row);
            }),
        }
        true
    }

    fn read_slot(&self, slot: &Slot<T>) -> Arc<Vec<T>> {
        match slot {
            Slot::Resident(rows) => Arc::clone(rows),
            Slot::Spilled {
                path,
                encoded_bytes,
                row_count,
            } => {
                let mut rows = Vec::with_capacity(*row_count);
                self.decode(path, *encoded_bytes, *row_count, |row| rows.push(row));
                // The whole partition was just rebuilt in RAM.
                self.charge_peak(rows.approx_bytes() as u64);
                Arc::new(rows)
            }
        }
    }

    /// Push a spilled slot's rows into `emit`, in order, decoding each
    /// straight out of a [`BlockReader`]'s block, and charge the file as
    /// unspill traffic. Every read of a spilled slot runs through here.
    fn decode(&self, path: &Path, encoded_bytes: u64, row_count: usize, mut emit: impl FnMut(T)) {
        if let Some(stats) = &self.cfg.stats {
            stats.add_unspill(encoded_bytes);
        }
        let mut reader = BlockReader::open(path);
        let header = u64::from_le_bytes(reader.take_array());
        debug_assert_eq!(header as usize, row_count, "spill header row count");
        for _ in 0..row_count {
            let len = u32::from_le_bytes(reader.take_array()) as usize;
            let mut r = SpillReader::new(reader.take(len));
            let row = T::spill_decode(&mut r);
            debug_assert_eq!(r.remaining(), 0, "spill row fully consumed");
            emit(row);
        }
    }
}

// ---------- the block codec ----------

/// Bytes in one spill I/O block: [`PartitionStore::replay`] reads this
/// much at a time, and a sink writes this much (a segment metered smaller
/// than a block writes itself in one).
const SPILL_BLOCK: usize = 64 * 1024;

/// A spill file opens with its row count as a `u64`.
const HEADER_BYTES: u64 = 8;

/// Each row in a spill file follows its encoded length as a `u32`.
const PREFIX_BYTES: usize = 4;

/// Bytes `row` takes in a spill file: its length prefix and its encoding
/// (`scratch` is a reusable encode buffer). A writer meters these to lay
/// out [`PartitionStore::spill_segments`].
pub(crate) fn framed_len<T: SpillRow>(row: &T, scratch: &mut Vec<u8>) -> u64 {
    scratch.clear();
    row.spill_encode(scratch);
    (PREFIX_BYTES + scratch.len()) as u64
}

/// Reads a spill file a block at a time for [`PartitionStore::replay`].
struct BlockReader {
    file: File,
    block: Vec<u8>,
    /// The block's unread bytes are `block[start..end]`.
    start: usize,
    end: usize,
}

impl BlockReader {
    fn open(path: &Path) -> Self {
        let file = File::open(path)
            .unwrap_or_else(|e| panic!("spill store: open {}: {e}", path.display()));
        Self {
            file,
            block: vec![0; SPILL_BLOCK],
            start: 0,
            end: 0,
        }
    }

    /// The file's next `n` bytes.
    fn take(&mut self, n: usize) -> &[u8] {
        if self.end - self.start < n {
            self.refill(n);
        }
        let run = &self.block[self.start..self.start + n];
        self.start += n;
        run
    }

    /// The file's next `N` bytes, as an array.
    fn take_array<const N: usize>(&mut self) -> [u8; N] {
        self.take(N).try_into().expect("took exactly N bytes")
    }

    /// Carry the unread bytes (a row the block's end cut) to the front,
    /// grow the block when one row is longer than it, and read until `n`
    /// bytes are unread.
    #[cold]
    fn refill(&mut self, n: usize) {
        self.block.copy_within(self.start..self.end, 0);
        self.end -= self.start;
        self.start = 0;
        if self.block.len() < n {
            self.block.resize(n, 0);
        }
        while self.end < n {
            match self.file.read(&mut self.block[self.end..]) {
                Ok(0) => panic!("spill stream truncated"),
                Ok(got) => self.end += got,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => panic!("spill store: read: {e}"),
            }
        }
    }
}

// ---------- the spill writers ----------

/// One segment of a [`SpillFile`]: its byte offset, its row count, and
/// its framed bytes where they were metered (the sole segment of
/// [`PartitionStore::spill_file`] is not).
type Segment = (u64, usize, Option<u64>);

/// A spill file being written. Its header is on disk; its rows arrive
/// through one [`SpillSink`] per segment and land header first, then
/// segment 0's rows, segment 1's rows, and so on. Opened by
/// [`PartitionStore::spill_file`] or [`PartitionStore::spill_segments`];
/// [`SpillFile::finish`] fills the slot once every segment has closed.
pub(crate) struct SpillFile<'s, T> {
    store: &'s PartitionStore<T>,
    idx: usize,
    path: PathBuf,
    /// The one handle every segment writes through, each at its own
    /// offsets.
    file: File,
    segments: Vec<Segment>,
    /// Rows the header promises.
    rows: usize,
    /// Rows and framed bytes of the closed segments.
    sealed_rows: AtomicUsize,
    sealed_bytes: AtomicU64,
}

impl<T: SpillRow> SpillFile<'_, T> {
    /// The writer of segment `seg`.
    pub fn segment(&self, seg: usize) -> SpillSink<'_, T> {
        let block = self.segments[seg]
            .2
            .map_or(SPILL_BLOCK, |bytes| bytes.min(SPILL_BLOCK as u64) as usize);
        SpillSink {
            file: self,
            seg,
            block: Vec::with_capacity(block),
            rows: 0,
            bytes: 0,
        }
    }

    /// Fill the slot (panics if it was filled already, or if the closed
    /// segments do not hold the rows the header promised).
    pub fn finish(self) {
        let (store, idx) = (self.store, self.idx);
        let slot = self.into_slot();
        if store.cells[idx].set(slot).is_err() {
            panic!("spill file: slot {idx} already filled");
        }
    }

    fn into_slot(self) -> Slot<T> {
        let rows = self.sealed_rows.into_inner();
        assert_eq!(
            rows, self.rows,
            "spill file: header promised {} rows, segments closed {rows}",
            self.rows
        );
        let encoded_bytes = HEADER_BYTES + self.sealed_bytes.into_inner();
        if let Some(stats) = &self.store.cfg.stats {
            stats.add_spill(encoded_bytes);
        }
        self.store.spilled_parts.fetch_add(1, Ordering::Relaxed);
        self.store
            .spilled_bytes
            .fetch_add(encoded_bytes, Ordering::Relaxed);
        Slot::Spilled {
            path: self.path,
            encoded_bytes,
            row_count: rows,
        }
    }
}

/// Writes one segment of a [`SpillFile`]. A pushed row is framed in
/// place: its length prefix is reserved in the block, the row encoded
/// right after it, and the prefix patched. The block goes to disk, with a
/// positioned write at the segment's next offset, when a row as long as
/// the last one might not fit, so rows of one size never regrow it.
pub(crate) struct SpillSink<'f, T> {
    file: &'f SpillFile<'f, T>,
    seg: usize,
    block: Vec<u8>,
    rows: usize,
    /// Framed bytes pushed so far.
    bytes: u64,
}

impl<T: SpillRow> SpillSink<'_, T> {
    /// Encode one row. Only this row is resident, and only this row is
    /// charged against the peak meter.
    pub fn push(&mut self, row: &T) {
        let at = self.block.len();
        self.block.extend_from_slice(&[0; PREFIX_BYTES]);
        row.spill_encode(&mut self.block);
        let framed = self.block.len() - at;
        let len = u32::try_from(framed - PREFIX_BYTES).expect("spill row under 4 GiB");
        self.block[at..at + PREFIX_BYTES].copy_from_slice(&len.to_le_bytes());
        self.bytes += framed as u64;
        self.rows += 1;
        self.file.store.charge_peak(row.approx_bytes() as u64);
        if self.block.len() + framed > self.block.capacity() {
            self.write_block();
        }
    }

    /// Write the rest of the segment. Panics unless it holds exactly the
    /// rows, and where metered the framed bytes, its file was laid out
    /// for.
    pub fn close(mut self) {
        let (_, rows, bytes) = self.file.segments[self.seg];
        assert_eq!(
            self.rows, rows,
            "spill segment {}: laid out for {rows} rows, got {}",
            self.seg, self.rows
        );
        if let Some(bytes) = bytes {
            assert_eq!(
                self.bytes, bytes,
                "spill segment {}: metered {bytes} bytes, wrote {}",
                self.seg, self.bytes
            );
        }
        self.write_block();
        // Relaxed: `SpillFile::finish` reads the sums after every writer
        // has joined.
        self.file
            .sealed_rows
            .fetch_add(self.rows, Ordering::Relaxed);
        self.file
            .sealed_bytes
            .fetch_add(self.bytes, Ordering::Relaxed);
    }

    /// Write the block where it belongs: it holds the segment's last
    /// `block.len()` framed bytes.
    fn write_block(&mut self) {
        let at = self.file.segments[self.seg].0 + self.bytes - self.block.len() as u64;
        self.file
            .file
            .write_all_at(&self.block, at)
            .expect("spill write");
        self.block.clear();
    }
}

impl<T> Drop for PartitionStore<T> {
    fn drop(&mut self) {
        if let Some(dir) = self.dir.get() {
            let _ = std::fs::remove_dir_all(dir);
            let mut live = spilling_stores();
            *live -= 1;
            if *live == 0 {
                let _ = std::fs::remove_dir(process_spill_dir());
            }
        }
    }
}

impl<T> std::fmt::Debug for PartitionStore<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PartitionStore")
            .field("partitions", &self.cells.len())
            .field("budget", &self.cfg.budget)
            .field("spilled_parts", &self.spilled_parts())
            .field("spilled_bytes", &self.spilled_bytes())
            .finish()
    }
}

// ---------- residency (for plan rendering) ----------

/// A budgeted store's mem-vs-spill picture, rendered by `explain_plans()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Residency {
    /// Everything fits: nothing spilled, nothing predicted to.
    Mem {
        /// The resident byte budget the store stayed within.
        budget: u64,
    },
    /// Some partitions live (or are predicted to live) on disk.
    Disk {
        /// The resident byte budget in force.
        budget: u64,
        /// Partitions spilled so far.
        spilled_parts: usize,
        /// Encoded bytes spilled so far.
        spilled_bytes: u64,
        /// Estimated bytes that *will* spill where nothing has run yet
        /// (0 once real spills exist or the estimate fits the budget).
        predicted_bytes: u64,
        /// Spilled partitions replay row by row
        /// ([`PartitionStore::replay`]), so peak resident memory stays
        /// bounded during consumption; `false`, they are rebuilt as whole
        /// `Vec`s on access (`StoreConfig::stream` cleared).
        streamed: bool,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem_cfg() -> StoreConfig {
        StoreConfig::default()
    }

    /// Budgeted, rebuild-on-access (the strawman mode).
    fn spill_cfg(budget: u64) -> StoreConfig {
        StoreConfig {
            budget: Some(budget),
            stats: None,
            stream: false,
        }
    }

    /// Budgeted, streaming replay (the default mode).
    fn stream_cfg(budget: u64) -> StoreConfig {
        StoreConfig {
            budget: Some(budget),
            ..StoreConfig::default()
        }
    }

    #[test]
    fn roundtrip_assorted_row_types() {
        fn roundtrip<T: SpillRow + PartialEq + std::fmt::Debug>(rows: Vec<T>) {
            let mut buf = Vec::new();
            for row in &rows {
                row.spill_encode(&mut buf);
            }
            let mut reader = SpillReader::new(&buf);
            let decoded: Vec<T> = (0..rows.len())
                .map(|_| T::spill_decode(&mut reader))
                .collect();
            assert_eq!(decoded, rows);
            assert_eq!(reader.remaining(), 0);
        }
        roundtrip(vec![0u64, 1, u64::MAX]);
        roundtrip(vec![-3i64, 0, i64::MAX]);
        roundtrip(vec![1.5f64, -0.0, f64::INFINITY]);
        roundtrip(vec![String::from("héllo"), String::new()]);
        roundtrip(vec![("k".to_string(), 7u64), ("".to_string(), 0)]);
        roundtrip(vec![Some(3u32), None, Some(0)]);
        roundtrip(vec![vec![1u8, 2, 3], vec![]]);
        roundtrip(vec![[1u64, 2], [3, 4]]);
        roundtrip(vec![(1u32, (2u64, true), 'λ')]);
        roundtrip(vec!["static", ""]);
        roundtrip(vec![(3usize, -4isize)]);
    }

    #[test]
    fn float_bits_survive_exactly() {
        let nan = f64::from_bits(0x7FF8_0000_0000_1234);
        let mut buf = Vec::new();
        nan.spill_encode(&mut buf);
        let decoded = f64::spill_decode(&mut SpillReader::new(&buf));
        assert_eq!(decoded.to_bits(), nan.to_bits());
    }

    #[test]
    fn mem_store_shares_one_arc_and_touches_no_disk() {
        let store: PartitionStore<u64> = PartitionStore::new(2, mem_cfg());
        let first = store.get_or_init(0, || Arc::new(vec![1, 2, 3]));
        let second = store.get_or_init(0, || unreachable!("filled once"));
        assert!(
            Arc::ptr_eq(&first, &second),
            "mem mode hands out the same Arc"
        );
        assert!(store.spill_dir().is_none(), "no budget, no directory");
        assert_eq!(store.part_len(0), Some(3));
        assert_eq!(store.part_len(1), None, "slot 1 never filled");
    }

    #[test]
    fn fair_share_spills_only_oversized_partitions() {
        // 4 slots, 64-byte budget → fair share 16 bytes. A 2-row u64
        // partition (16 B) stays; a 3-row one (24 B) spills.
        let store: PartitionStore<u64> = PartitionStore::new(4, spill_cfg(64));
        let small = store.get_or_init(0, || Arc::new(vec![1, 2]));
        assert_eq!(store.spilled_parts(), 0);
        let big = store.get_or_init(1, || Arc::new(vec![3, 4, 5]));
        assert_eq!(store.spilled_parts(), 1, "over fair share → disk");
        assert_eq!(*big, vec![3, 4, 5], "first fill reads back from RAM");
        // Later loads decode the file into a fresh allocation.
        let replay = store.load(1).unwrap();
        assert_eq!(*replay, vec![3, 4, 5]);
        assert!(
            !Arc::ptr_eq(&big, &replay),
            "spilled reads are fresh decodes"
        );
        // The resident partition still shares its Arc.
        assert!(Arc::ptr_eq(&small, &store.load(0).unwrap()));
    }

    #[test]
    fn presized_plan_is_greedy_first_fit() {
        let store: PartitionStore<u64> = PartitionStore::new(4, spill_cfg(40));
        // 16 + 16 fits; 16 more would overflow; the final 8 still fits.
        assert_eq!(
            store.plan_presized(&[16, 16, 16, 8]),
            vec![false, false, true, false]
        );
        let unbudgeted: PartitionStore<u64> = PartitionStore::new(4, mem_cfg());
        assert_eq!(
            unbudgeted.plan_presized(&[u64::MAX, 1, 2, 3]),
            vec![false; 4]
        );
    }

    #[test]
    fn prefilled_store_roundtrips_spilled_parts() {
        let parts: Vec<Vec<u64>> = (0..4)
            .map(|p| (0..8).map(|i| p * 100 + i).collect())
            .collect();
        let store = PartitionStore::prefilled(parts.clone(), spill_cfg(100));
        // 64 B per part: part 0 fits, part 1 fits (128 > 100 → no, 64+64=128 > 100), …
        assert_eq!(store.spilled_parts(), 3, "one resident, three spilled");
        for (p, expected) in parts.iter().enumerate() {
            assert_eq!(*store.load(p).unwrap(), *expected, "partition {p}");
        }
    }

    #[test]
    fn spill_counters_feed_comm_stats() {
        let stats = CommStats::new();
        let cfg = StoreConfig {
            budget: Some(8),
            stats: Some(Arc::clone(&stats)),
            ..StoreConfig::default()
        };
        let store: PartitionStore<u64> = PartitionStore::new(1, cfg);
        store.get_or_init(0, || Arc::new(vec![7, 8, 9]));
        assert_eq!(stats.spills(), 1);
        // Header (8 B row count) + 3 × (4 B length prefix + 8 B row).
        assert_eq!(stats.spill_bytes(), 44);
        assert_eq!(stats.unspill_bytes(), 0, "first fill served from RAM");
        store.load(0);
        store.load(0);
        assert_eq!(stats.unspill_bytes(), 88, "every later read is a decode");
        assert_eq!(stats.spills(), 1, "written once");
    }

    #[test]
    fn drop_removes_spill_directory() {
        let dir;
        {
            let store: PartitionStore<u64> = PartitionStore::new(1, spill_cfg(0));
            store.get_or_init(0, || Arc::new(vec![1, 2, 3]));
            dir = store.spill_dir().expect("spilled").to_path_buf();
            assert!(dir.exists(), "spill file on disk while the store lives");
        }
        assert!(!dir.exists(), "drop cleans the store's directory");
    }

    #[test]
    fn residency_reports_mem_and_spill() {
        let store: PartitionStore<u64> = PartitionStore::new(2, mem_cfg());
        assert_eq!(store.residency(Some(10)), None, "no budget → no residency");

        let store: PartitionStore<u64> = PartitionStore::new(2, spill_cfg(64));
        assert_eq!(
            store.residency(Some(10)),
            Some(Residency::Mem { budget: 64 })
        );
        assert_eq!(
            store.residency(Some(100)),
            Some(Residency::Disk {
                budget: 64,
                spilled_parts: 0,
                spilled_bytes: 0,
                predicted_bytes: 100,
                streamed: false,
            })
        );
        store.get_or_init(0, || Arc::new(vec![1u64; 32]));
        let Some(Residency::Disk {
            spilled_parts,
            spilled_bytes,
            ..
        }) = store.residency(None)
        else {
            panic!("spilled store must report Spill");
        };
        assert_eq!(spilled_parts, 1);
        assert_eq!(spilled_bytes, 8 + 32 * (4 + 8));
    }

    #[test]
    fn residency_distinguishes_stream_from_rebuild() {
        let store: PartitionStore<u64> = PartitionStore::new(1, stream_cfg(8));
        store.get_or_init(0, || Arc::new(vec![1, 2, 3]));
        assert!(
            matches!(
                store.residency(None),
                Some(Residency::Disk {
                    spilled_parts: 1,
                    streamed: true,
                    ..
                })
            ),
            "a streaming store reports Stream residency"
        );
        let store: PartitionStore<u64> = PartitionStore::new(1, spill_cfg(8));
        store.get_or_init(0, || Arc::new(vec![1, 2, 3]));
        assert!(
            matches!(
                store.residency(None),
                Some(Residency::Disk {
                    spilled_parts: 1,
                    streamed: false,
                    ..
                })
            ),
            "a rebuild-on-access store reports Spill residency"
        );
    }

    /// Spill `rows` into slot `idx` through one sink.
    fn sink_rows<T: SpillRow>(store: &PartitionStore<T>, idx: usize, rows: &[T]) {
        let file = store.spill_file(idx, rows.len());
        let mut sink = file.segment(0);
        rows.iter().for_each(|row| sink.push(row));
        sink.close();
        file.finish();
    }

    /// Every row `replay` pushes out of a filled slot.
    fn replayed<T: SpillRow + Clone>(store: &PartitionStore<T>, idx: usize) -> Vec<T> {
        let mut rows = Vec::new();
        assert!(store.replay(idx, &mut |row| rows.push(row)), "filled");
        rows
    }

    #[test]
    fn replay_matches_load_in_every_mode() {
        let rows: Vec<u64> = (0..500).map(|i| i * 3).collect();
        for cfg in [mem_cfg(), spill_cfg(8), stream_cfg(8)] {
            let store = PartitionStore::prefilled(vec![rows.clone()], cfg);
            let streamed = replayed(&store, 0);
            assert_eq!(streamed, *store.load(0).unwrap());
            assert_eq!(streamed, rows);
        }
        let empty: PartitionStore<u64> = PartitionStore::new(1, mem_cfg());
        let mut pushed = 0;
        assert!(
            !empty.replay(0, &mut |_| pushed += 1),
            "unfilled slot does not replay"
        );
        assert_eq!(pushed, 0, "unfilled slot pushes nothing");
    }

    #[test]
    fn replay_charges_unspill_like_a_full_read() {
        // Byte counters must not depend on the consumption mode, only the
        // peak meter does.
        let rows: Vec<u64> = (0..64).collect();
        let mut unspills = Vec::new();
        for stream in [false, true] {
            let stats = CommStats::new();
            let cfg = StoreConfig {
                budget: Some(8),
                stats: Some(Arc::clone(&stats)),
                stream,
            };
            let store = PartitionStore::prefilled(vec![rows.clone()], cfg);
            replayed(&store, 0);
            unspills.push(stats.unspill_bytes());
        }
        assert_eq!(unspills[0], unspills[1], "unspill bytes are mode-invariant");
        assert!(unspills[0] > 0);
    }

    #[test]
    fn streaming_replay_keeps_peak_below_full_rebuild() {
        let rows: Vec<u64> = (0..4096).collect();
        let peak_of = |stream: bool| {
            let stats = CommStats::new();
            let cfg = StoreConfig {
                budget: Some(8),
                stats: Some(Arc::clone(&stats)),
                stream,
            };
            let store: PartitionStore<u64> = PartitionStore::new(1, cfg);
            // Fill through the sink so the strawman's fill-side charge is
            // identical and only the read side differs.
            sink_rows(&store, 0, &rows);
            assert_eq!(replayed(&store, 0), rows);
            stats.peak_resident_bytes()
        };
        let streamed = peak_of(true);
        let rebuilt = peak_of(false);
        assert_eq!(streamed, 8, "streaming holds one 8-byte row at a time");
        assert_eq!(rebuilt, 4096 * 8, "the strawman rebuilds the whole Vec");
    }

    #[test]
    fn spill_sink_and_prefilled_spill_write_identical_slots() {
        let rows: Vec<(u64, String)> = (0..100).map(|i| (i, format!("row-{i}"))).collect();
        let via_sink: PartitionStore<(u64, String)> = PartitionStore::new(1, stream_cfg(8));
        sink_rows(&via_sink, 0, &rows);
        let via_prefill = PartitionStore::prefilled(vec![rows.clone()], stream_cfg(8));
        assert_eq!(via_prefill.spilled_parts(), 1, "the prefilled slot spills");
        assert_eq!(via_sink.spilled_bytes(), via_prefill.spilled_bytes());
        assert_eq!(*via_sink.load(0).unwrap(), *via_prefill.load(0).unwrap());
        assert_eq!(*via_sink.load(0).unwrap(), rows);
    }

    /// Spill `chunks` into slot `idx`, one segment per chunk, the
    /// segments written in parallel.
    fn sink_segments<T: SpillRow + Send + Sync>(
        store: &PartitionStore<T>,
        idx: usize,
        chunks: &[Vec<T>],
    ) {
        let mut scratch = Vec::new();
        let shares: Vec<(usize, u64)> = chunks
            .iter()
            .map(|c| (c.len(), c.iter().map(|r| framed_len(r, &mut scratch)).sum()))
            .collect();
        let file = store.spill_segments(idx, &shares);
        (0..chunks.len()).into_par_iter().for_each(|i| {
            let mut sink = file.segment(i);
            chunks[i].iter().for_each(|row| sink.push(row));
            sink.close();
        });
        file.finish();
    }

    fn spill_file_bytes<T>(store: &PartitionStore<T>, idx: usize) -> Vec<u8> {
        let dir = store.spill_dir().expect("spilled");
        std::fs::read(dir.join(format!("part-{idx}.bin"))).expect("spill file")
    }

    #[test]
    fn parallel_segments_write_the_bytes_of_one_sink() {
        let rows: Vec<(u64, String)> = (0..12_000u64)
            .map(|i| (i, "x".repeat(i as usize % 37)))
            .collect();
        // One chunk per pool thread plus empty ones first, in the middle
        // and last, so there are more segments than threads; then a
        // bucket whose every segment is empty.
        let (n, threads) = (rows.len(), peachy_par::current_num_threads());
        let mut chunks: Vec<Vec<(u64, String)>> = (0..threads)
            .map(|i| rows[i * n / threads..(i + 1) * n / threads].to_vec())
            .collect();
        chunks.insert(chunks.len() / 2, Vec::new());
        chunks.insert(0, Vec::new());
        chunks.push(Vec::new());
        let empty: Vec<Vec<(u64, String)>> = vec![Vec::new(); threads + 3];
        for (rows, chunks) in [(&rows[..], &chunks), (&[][..], &empty)] {
            let (one, many) = (CommStats::new(), CommStats::new());
            let cfg = |stats: &Arc<CommStats>| StoreConfig {
                budget: Some(8),
                stats: Some(Arc::clone(stats)),
                ..StoreConfig::default()
            };
            let sequential = PartitionStore::new(1, cfg(&one));
            sink_rows(&sequential, 0, rows);
            let segmented = PartitionStore::new(1, cfg(&many));
            sink_segments(&segmented, 0, chunks);
            assert_eq!(
                spill_file_bytes(&segmented, 0),
                spill_file_bytes(&sequential, 0),
                "{} rows",
                rows.len()
            );
            assert_eq!(many.spill_bytes(), one.spill_bytes());
            assert_eq!(segmented.spilled_bytes(), sequential.spilled_bytes());
            assert_eq!(many.peak_resident_bytes(), one.peak_resident_bytes());
            assert_eq!(replayed(&segmented, 0), rows);
        }
    }

    #[test]
    #[should_panic(expected = "metered")]
    fn a_segment_off_its_metered_bytes_panics() {
        let store: PartitionStore<String> = PartitionStore::new(1, stream_cfg(8));
        let file = store.spill_segments(0, &[(1, 4 + 8 + 3)]);
        let mut sink = file.segment(0);
        sink.push(&"four".to_string());
        sink.close();
    }

    #[test]
    fn replay_carries_rows_cut_at_every_offset_near_a_block_end() {
        // A `String` row frames as 4 + 8 + len bytes. The first row leaves
        // `pad` bytes of the first block, so the block's end cuts the
        // following rows at every offset of their prefix, length and body.
        for pad in 0..=48 {
            let mut rows = vec!["a".repeat(SPILL_BLOCK - 8 - 12 - pad)];
            rows.extend((0..40).map(|i| format!("row-{i:03}-{}", "b".repeat(i % 7))));
            let store = PartitionStore::new(1, stream_cfg(8));
            sink_rows(&store, 0, &rows);
            assert_eq!(replayed(&store, 0), rows, "pad {pad}");
            assert_eq!(*store.load(0).unwrap(), rows, "pad {pad}");
        }
    }

    #[test]
    fn replay_decodes_a_row_longer_than_a_block_and_an_empty_slot() {
        let rows = vec![
            "head".to_string(),
            "z".repeat(3 * SPILL_BLOCK + 5),
            "tail".to_string(),
        ];
        let store = PartitionStore::new(2, stream_cfg(8));
        sink_rows(&store, 0, &rows);
        sink_rows(&store, 1, &[]);
        assert_eq!(replayed(&store, 0), rows);
        assert_eq!(*store.load(0).unwrap(), rows);
        assert_eq!(store.spilled_parts(), 2, "the empty slot spilled too");
        assert_eq!(spill_file_bytes(&store, 1), 0u64.to_le_bytes());
        assert_eq!(replayed(&store, 1), Vec::<String>::new());
        assert_eq!(*store.load(1).unwrap(), Vec::<String>::new());
    }

    #[test]
    fn fill_once_runs_exactly_once() {
        use std::sync::atomic::AtomicUsize;
        let store: PartitionStore<u64> = PartitionStore::new(2, mem_cfg());
        let calls = AtomicUsize::new(0);
        for _ in 0..3 {
            store.fill_once(|| {
                calls.fetch_add(1, Ordering::Relaxed);
                vec![vec![1], vec![2, 3]]
            });
        }
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        assert_eq!(*store.load(1).unwrap(), vec![2, 3]);
    }
}
