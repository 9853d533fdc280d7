//! Reified logical plans: a type-free view of the lineage DAG.
//!
//! Lineage nodes are `Arc<dyn Op<T>>` with a different `T` at every level,
//! so a plan walker cannot traverse them with typed references. The
//! `Lineage` supertrait (every `Op<T>` implements it) erases the row
//! type: each node can describe itself as a [`PlanNode`], enumerate its
//! children as `&dyn Lineage`, and expose the hooks the optimizer's
//! runtime pass needs — a consumption counter, an auto-cache trigger and
//! the stage runner's map-side hook.
//!
//! The [`PlanNode`] tree is the only description of a node: `explain()`
//! prints its labels, `num_stages()` counts its boundaries, and
//! `explain_plans()` renders and prices it.
//!
//! Node identity is the op's allocation address. Lineage nodes live behind
//! `Arc`s for their whole life, so the address is stable and unique while
//! the plan exists — exactly the window in which the optimizer looks at it.

use std::sync::atomic::{AtomicU32, Ordering};

use crate::store::Residency;

/// Label fragment marking a materialized shuffle boundary.
pub const SHUFFLE_MARK: &str = "=== stage boundary (shuffle) ===";

/// Label fragment marking a shuffle the optimizer elided.
pub const ELIDED_MARK: &str = "~~~ shuffle elided (co-partitioned) ~~~";

/// How a dataset's rows are distributed over partitions.
///
/// This is the fact the shuffle-elision rewrite trades on: a dataset that
/// is [`Partitioning::HashKeyed`] with the same seed and partition count as
/// a downstream shuffle's routing function is *already* shuffled — every
/// key in partition `p` hashes back to `p`, so the boundary moves nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Partitioning {
    /// No known relationship between keys and partitions.
    Arbitrary,
    /// Rows are placed by `owner_of_key(key, partitions, seed)` — the
    /// postcondition of every hash shuffle.
    HashKeyed {
        /// Seed of the stable hash that routed the rows.
        seed: u64,
        /// Partition count the rows were routed into.
        partitions: usize,
    },
}

impl Partitioning {
    /// Does this layout satisfy a shuffle routing by `seed` into
    /// `partitions` buckets? Only an exact match (same seed *and* same
    /// count) is safe — see the negative tests in `keyed.rs`.
    pub fn satisfies(&self, seed: u64, partitions: usize) -> bool {
        matches!(
            self,
            Partitioning::HashKeyed { seed: s, partitions: p }
                if *s == seed && *p == partitions
        )
    }
}

/// What kind of plan node this is, with the per-kind facts the optimizer
/// report renders.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanKind {
    /// A source holding resident rows.
    Source,
    /// A row-wise narrow op (map/filter/flat_map).
    Narrow {
        /// Whether this op participates in push-based fusion (off when the
        /// dataset runs under a naive [`OptimizerConfig`]).
        ///
        /// [`OptimizerConfig`]: crate::optimize::OptimizerConfig
        fused: bool,
        /// Whether the optimizer armed this node's auto-cache.
        auto_cached: bool,
        /// Lifetime consumption count seen by `prepare_action`.
        consumed: u32,
    },
    /// A partition-wise narrow op (map_partitions, coalesce): a fusion
    /// barrier but not a stage boundary.
    NarrowBarrier,
    /// A hash shuffle boundary.
    Shuffle {
        /// Stage id labeling this boundary's rows in the
        /// [`CommStats`](peachy_cluster::CommStats) per-stage ledger.
        stage: u32,
        /// True when the optimizer removed the data movement (upstream
        /// already partitioned to match).
        elided: bool,
    },
    /// A round-robin repartition boundary.
    Repartition,
    /// An explicit user cache.
    Cache,
    /// Concatenation of two lineages.
    Union,
    /// A retry wrapper (fusion barrier: re-runs must not re-emit rows).
    Retry,
}

/// One node of a rendered plan tree.
#[derive(Debug, Clone)]
pub struct PlanNode {
    /// Node identity (the op's allocation address).
    pub id: usize,
    /// Human-readable label: one line of `explain()`.
    pub label: String,
    /// Structural kind plus per-kind facts.
    pub kind: PlanKind,
    /// Output partition count.
    pub partitions: usize,
    /// Estimated output rows (exact at sources and materialized shuffles,
    /// propagated — so approximate — elsewhere).
    pub est_rows: Option<u64>,
    /// `size_of` of one output row: the crude per-row cost factor used
    /// when no measured bytes exist for a stage.
    pub row_bytes: usize,
    /// For shuffle nodes whose stage has already run: the bytes the stage
    /// ledger attributed to it ([`CommStats::stage_comm`]). The cost model
    /// prefers this over size estimates.
    ///
    /// [`CommStats::stage_comm`]: peachy_cluster::CommStats::stage_comm
    pub measured_bytes: Option<u64>,
    /// For nodes holding partitions in a byte-budgeted store: whether those
    /// partitions live in RAM or (partly) on disk. `None` for nodes without
    /// a store, and for stores running without a budget.
    pub residency: Option<Residency>,
    /// Child subtrees.
    pub children: Vec<PlanNode>,
}

impl PlanNode {
    /// Estimated bytes needed to materialize this node's output once.
    pub fn est_bytes(&self) -> Option<u64> {
        self.est_rows.map(|r| r * self.row_bytes as u64)
    }

    /// Visit this node and all descendants, parents before children.
    pub fn walk(&self, visit: &mut dyn FnMut(&PlanNode)) {
        visit(self);
        for child in &self.children {
            child.walk(visit);
        }
    }

    /// Execution stages along the deepest path ending at this node: one,
    /// plus one per repartition or materialized shuffle on that path. An
    /// elided shuffle moves nothing, so it is not a boundary.
    pub(crate) fn stage_count(&self) -> usize {
        let below = self
            .children
            .iter()
            .map(PlanNode::stage_count)
            .max()
            .unwrap_or(1);
        match self.kind {
            PlanKind::Repartition | PlanKind::Shuffle { elided: false, .. } => below + 1,
            _ => below,
        }
    }

    /// The tree as `explain()` prints it: one label per line, indented two
    /// spaces per level.
    pub(crate) fn lineage_text(&self) -> String {
        fn push(node: &PlanNode, depth: usize, out: &mut String) {
            out.push_str(&"  ".repeat(depth));
            out.push_str(&node.label);
            out.push('\n');
            for child in &node.children {
                push(child, depth + 1, out);
            }
        }
        let mut out = String::new();
        push(self, 0, &mut out);
        out
    }
}

/// The type-free face of a lineage node. `Op<T>: Lineage`, so a plan
/// walker can traverse a heterogeneously-typed DAG through `&dyn Lineage`
/// references (trait upcasting from `&dyn Op<T>`).
pub(crate) trait Lineage: Send + Sync {
    /// Render this node and its lineage as a plan tree.
    fn plan(&self) -> PlanNode;

    /// Visit each direct child as a type-free lineage node.
    fn lineage_children(&self, visit: &mut dyn FnMut(&dyn Lineage));

    /// Stable identity: the allocation address of the op.
    fn lineage_id(&self) -> usize {
        self as *const Self as *const () as usize
    }

    /// Record one consumption of this node by an action and return the
    /// lifetime total. Nodes that cannot hold an auto-cache return `None`.
    fn note_consumed(&self) -> Option<u32> {
        None
    }

    /// Estimated output rows (see [`PlanNode::est_rows`]). The default sums
    /// the inputs' estimates: exact where every row passes through (maps,
    /// caches, unions, repartitions); filters shrink and flat_maps grow,
    /// but the input count is the best static estimate available there.
    /// Sources and shuffles, which know their counts, override it.
    fn est_rows(&self) -> Option<u64> {
        let mut rows = Some(0u64);
        self.lineage_children(&mut |child| {
            rows = rows.zip(child.est_rows()).map(|(a, b)| a + b);
        });
        rows
    }

    /// Estimated bytes to materialize this node once — the auto-cache cost
    /// model's input. `None` where the row type's size is unknown or the
    /// row estimate is unavailable.
    fn est_cache_bytes(&self) -> Option<u64> {
        None
    }

    /// Switch this node's auto-cache on (no-op for nodes without one).
    fn arm_auto_cache(&self) {}

    /// The stage runner's hook (see [`crate::optimize::prepare_action`]):
    /// pass the walk to each input through `inputs`, then run this node's
    /// own map side, if it has one — a shuffle's route pass or a
    /// repartition's fill. The default has no map side of its own and only
    /// passes the walk on; a retry overrides it to stop the walk, so its
    /// subtree keeps routing lazily under its policy.
    fn run_stage(&self, inputs: &mut dyn FnMut(&dyn Lineage)) {
        self.lineage_children(inputs);
    }
}

/// Allocate a process-unique stage id for a shuffle boundary, labeling its
/// rows in the per-stage [`CommStats`](peachy_cluster::CommStats) ledger.
pub(crate) fn next_stage_id() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn satisfies_requires_exact_match() {
        let p = Partitioning::HashKeyed {
            seed: 42,
            partitions: 8,
        };
        assert!(p.satisfies(42, 8));
        assert!(!p.satisfies(42, 4), "partition count must match");
        assert!(!p.satisfies(43, 8), "seed must match");
        assert!(!Partitioning::Arbitrary.satisfies(42, 8));
    }

    #[test]
    fn stage_ids_are_unique() {
        let a = next_stage_id();
        let b = next_stage_id();
        assert_ne!(a, b);
        assert!(b > 0);
    }

    #[test]
    fn plan_node_estimates_bytes() {
        let node = PlanNode {
            id: 1,
            label: "x".into(),
            kind: PlanKind::Source,
            partitions: 2,
            est_rows: Some(10),
            row_bytes: 16,
            measured_bytes: None,
            residency: None,
            children: vec![],
        };
        assert_eq!(node.est_bytes(), Some(160));
    }
}
