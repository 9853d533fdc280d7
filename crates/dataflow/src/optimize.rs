//! The cost-based plan optimizer: rewrite rules over the lineage DAG.
//!
//! Three rewrites, all on by default and all individually gated by
//! [`OptimizerConfig`]:
//!
//! 1. **Narrow-op fusion** — adjacent row-wise narrow ops (map / filter /
//!    flat_map) execute as one push-based pass per partition instead of N
//!    materialized intermediates. Decided at construction (each narrow op
//!    records whether it may fuse), executed via `Op::push_partition`.
//! 2. **Shuffle elision** — a shuffle whose input is provably already
//!    hash-partitioned by the same seed and partition count
//!    ([`Partitioning::satisfies`]) is replaced by a narrow per-partition
//!    pass: zero records cross the boundary. Decided at construction in
//!    `KeyedDataset`, which tracks [`Partitioning`] through narrow ops.
//! 3. **Auto-caching** — `prepare_action` runs at the start of every
//!    action (before it runs the plan's stages), counts how often each
//!    cacheable node has been consumed, and arms an in-memory cache on
//!    nodes consumed more than once whose
//!    estimated recompute volume is at least 1 KiB
//!    (estimates use measured per-stage bytes where a shuffle below has
//!    already run, `rows × size_of::<Row>()` otherwise).
//!
//! The contract: every rewrite is *semantically invisible* — optimized
//! plans produce bit-identical rows to naive plans (exact order for narrow
//! pipelines; up to the engine's existing per-partition grouping
//! nondeterminism for keyed posts, which hash-map group in both modes).
//! `tests/optimizer_equivalence.rs` pins this over randomly generated DAGs
//! on every executor backend.
//!
//! [`Partitioning`]: crate::plan::Partitioning
//! [`Partitioning::satisfies`]: crate::plan::Partitioning::satisfies

use std::collections::HashSet;
use std::fmt;

use crate::plan::{Lineage, PlanKind, PlanNode};
use crate::store::Residency;

/// Minimum estimated recompute volume (bytes) before a shared subtree is
/// worth holding in memory. Below this, recomputing is assumed cheaper
/// than the cache's footprint.
const AUTO_CACHE_MIN_BYTES: u64 = 1024;

/// Which rewrites the optimizer may apply to a dataset's plan.
///
/// Carried by every `Dataset` and inherited by derived datasets; the
/// default enables everything. [`OptimizerConfig::naive`] turns every
/// rewrite off — the reference plan the equivalence suite compares against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimizerConfig {
    /// Fuse adjacent row-wise narrow ops into one push-based pass.
    pub fuse: bool,
    /// Elide shuffles whose input partitioning already matches.
    pub elide_shuffles: bool,
    /// Arm in-memory caches on subtrees consumed by more than one action.
    pub auto_cache: bool,
    /// Resident byte budget for every partition store the dataset builds
    /// (sources, caches, shuffle buckets, memoized posts). `None` keeps
    /// everything in RAM — exactly the pre-spill behavior.
    pub spill_budget: Option<u64>,
    /// Replay spilled partitions row by row (the default): fused chains and
    /// shuffle passes take decoded rows straight off the spill file instead
    /// of rebuilding the partition as one `Vec`. Off, every spilled read is
    /// a full rebuild — the measurable strawman E22 ablates against.
    pub stream_spills: bool,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        Self {
            fuse: true,
            elide_shuffles: true,
            auto_cache: true,
            spill_budget: None,
            stream_spills: true,
        }
    }
}

impl OptimizerConfig {
    /// Every rewrite off: the reference configuration whose plans the
    /// optimizer must reproduce bit-identically.
    pub fn naive() -> Self {
        Self {
            fuse: false,
            elide_shuffles: false,
            auto_cache: false,
            spill_budget: None,
            stream_spills: false,
        }
    }
}

/// The runtime half of the optimizer and the stage runner: called at the
/// start of every action except `take`, under every configuration.
///
/// First it arms auto-caches ([`arm_auto_caches`]). Then it runs the
/// plan's stages bottom-up, each node once, from the action's own thread:
/// every shuffle route pass and repartition fill below the root runs here,
/// as one top-level parallel loop over its input partitions, after every
/// stage below it — so the previous stage's posts run inside that loop,
/// on all cores. The action's partition tasks then find every boundary
/// routed. The walk stops at a retry, whose subtree routes lazily inside
/// the retried partition task, under its policy.
pub(crate) fn prepare_action(root: &dyn Lineage, cfg: &OptimizerConfig) {
    arm_auto_caches(root, cfg);
    run_stages(root, &mut HashSet::new());
}

fn run_stages(node: &dyn Lineage, visited: &mut HashSet<usize>) {
    if visited.insert(node.lineage_id()) {
        node.run_stage(&mut |input| run_stages(input, visited));
    }
}

/// Walks the lineage, bumps each cacheable node's lifetime consumption
/// count (a diamond consumes its shared subtree once per path), and arms
/// the auto-cache on nodes consumed ≥ 2 times whose estimated recompute
/// volume clears [`AUTO_CACHE_MIN_BYTES`]. Descent into an already-visited
/// node is skipped (counts stay linear in plan size), which undercounts
/// *descendants* of shared nodes — conservative, and harmless: once the
/// shared ancestor caches, its descendants recompute at most once anyway.
///
/// `take` runs only this half: it evaluates partitions lazily, one at a
/// time, and must not route a shuffle its prefix never reaches.
pub(crate) fn arm_auto_caches(root: &dyn Lineage, cfg: &OptimizerConfig) {
    if !cfg.auto_cache {
        return;
    }
    arm_walk(root, &mut HashSet::new());
}

fn arm_walk(node: &dyn Lineage, visited: &mut HashSet<usize>) {
    if let Some(total) = node.note_consumed() {
        // Worth caching: big enough to beat recomputation. The byte budget
        // does not enter: a cache that spills is replayed from disk rather
        // than recomputed, under either read mode.
        if total >= 2
            && node
                .est_cache_bytes()
                .is_none_or(|b| b >= AUTO_CACHE_MIN_BYTES)
        {
            node.arm_auto_cache();
        }
    }
    if !visited.insert(node.lineage_id()) {
        return;
    }
    node.lineage_children(&mut |child| arm_walk(child, visited));
}

/// What the optimizer did (and would have done) to one plan: rendered
/// naive and optimized trees plus the predicted shuffle volume of each.
#[derive(Debug, Clone)]
pub struct PlanReport {
    /// The plan as it would run with [`OptimizerConfig::naive`].
    pub naive: String,
    /// The plan as it actually runs.
    pub optimized: String,
    /// Predicted bytes crossing shuffle boundaries in the naive plan
    /// (measured per-stage bytes where a stage has run, size estimates
    /// otherwise).
    pub predicted_naive_shuffle_bytes: u64,
    /// Predicted shuffle bytes after elision.
    pub predicted_optimized_shuffle_bytes: u64,
    /// Fused runs of ≥ 2 narrow ops (each run is one pass instead of N).
    pub fused_runs: usize,
    /// Shuffle boundaries removed by elision.
    pub elided_shuffles: usize,
    /// Nodes whose auto-cache the runtime pass has armed so far.
    pub auto_cached: usize,
    /// The resident byte budget in force, if any node holds its partitions
    /// in a budgeted store (`None` means everything runs in RAM).
    pub spill_budget: Option<u64>,
    /// Partitions the plan's stores have spilled to disk so far.
    pub spilled_parts: usize,
    /// Encoded bytes those spills wrote.
    pub spilled_bytes: u64,
    /// Estimated bytes that will spill in stores that have not filled yet.
    pub predicted_spill_bytes: u64,
    /// Nodes whose spilled partitions are replayed row by row (never
    /// rebuilt as one `Vec`) rather than rebuilt on access.
    pub streamed_nodes: usize,
}

impl fmt::Display for PlanReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "naive plan:")?;
        write!(f, "{}", self.naive)?;
        writeln!(f, "optimized plan:")?;
        write!(f, "{}", self.optimized)?;
        writeln!(
            f,
            "predicted shuffle bytes: {} naive -> {} optimized",
            self.predicted_naive_shuffle_bytes, self.predicted_optimized_shuffle_bytes
        )?;
        writeln!(
            f,
            "rewrites: {} fused narrow run(s), {} shuffle(s) elided, {} subtree(s) auto-cached",
            self.fused_runs, self.elided_shuffles, self.auto_cached
        )?;
        if let Some(budget) = self.spill_budget {
            writeln!(
                f,
                "residency: budget {budget} B, {} part(s) / {} B spilled, {} B predicted to spill, {} node(s) streamed",
                self.spilled_parts, self.spilled_bytes, self.predicted_spill_bytes,
                self.streamed_nodes
            )?;
        }
        Ok(())
    }
}

/// Build the optimizer report for a plan rooted at `root`.
pub(crate) fn report_for(root: &dyn Lineage) -> PlanReport {
    let plan = root.plan();

    let mut naive = String::new();
    render(&plan, 0, false, &mut naive);
    let mut optimized = String::new();
    let fused_runs = render(&plan, 0, true, &mut optimized);

    let mut naive_bytes = 0u64;
    let mut optimized_bytes = 0u64;
    let mut elided = 0usize;
    let mut auto_cached = 0usize;
    let mut spill_budget = None;
    let mut spilled_parts = 0usize;
    let mut spilled_bytes = 0u64;
    let mut predicted_spill_bytes = 0u64;
    let mut streamed_nodes = 0usize;
    plan.walk(&mut |node| {
        match node.residency {
            Some(Residency::Mem { budget }) => {
                spill_budget.get_or_insert(budget);
            }
            Some(Residency::Disk {
                budget,
                spilled_parts: parts,
                spilled_bytes: bytes,
                predicted_bytes,
                streamed,
            }) => {
                spill_budget = Some(budget);
                spilled_parts += parts;
                spilled_bytes += bytes;
                predicted_spill_bytes += predicted_bytes;
                streamed_nodes += usize::from(streamed);
            }
            None => {}
        }
        if let PlanKind::Shuffle { elided: e, .. } = node.kind {
            let cost = shuffle_cost(node);
            naive_bytes += cost;
            if e {
                elided += 1;
            } else {
                optimized_bytes += cost;
            }
        }
        if let PlanKind::Narrow {
            auto_cached: true, ..
        } = node.kind
        {
            auto_cached += 1;
        }
    });

    PlanReport {
        naive,
        optimized,
        predicted_naive_shuffle_bytes: naive_bytes,
        predicted_optimized_shuffle_bytes: optimized_bytes,
        fused_runs,
        elided_shuffles: elided,
        auto_cached,
        spill_budget,
        spilled_parts,
        spilled_bytes,
        predicted_spill_bytes,
        streamed_nodes,
    }
}

/// Bytes a shuffle boundary moves: the node's measured stage bytes when
/// the stage has run, otherwise the estimated size of its inputs.
fn shuffle_cost(node: &PlanNode) -> u64 {
    if let Some(measured) = node.measured_bytes {
        return measured;
    }
    node.children
        .iter()
        .map(|c| c.est_bytes().unwrap_or(0))
        .sum()
}

/// Render a plan tree. In optimized mode, runs of fusable narrow nodes
/// collapse into one `Fused[...]` line and elided shuffles keep their
/// elision marker; in naive mode every node prints separately and elided
/// shuffles print as the stage boundary they would have been. Returns how
/// many runs of ≥ 2 narrow nodes it collapsed (none in naive mode).
fn render(node: &PlanNode, indent: usize, optimized: bool, out: &mut String) -> usize {
    let pad = |out: &mut String, indent: usize| {
        for _ in 0..indent {
            out.push_str("  ");
        }
    };

    // Collapse a fused run (optimized mode only).
    if optimized {
        let fusable = |n: &PlanNode| {
            matches!(
                n.kind,
                PlanKind::Narrow {
                    fused: true,
                    auto_cached: false,
                    ..
                }
            )
        };
        if fusable(node) && node.children.len() == 1 && fusable(&node.children[0]) {
            let mut labels = vec![node.label.clone()];
            let mut cursor = &node.children[0];
            while fusable(cursor) && cursor.children.len() == 1 && fusable(&cursor.children[0]) {
                labels.push(cursor.label.clone());
                cursor = &cursor.children[0];
            }
            labels.push(cursor.label.clone());
            pad(out, indent);
            out.push_str("Fused[");
            out.push_str(&labels.join(" <- "));
            out.push_str("]\n");
            return 1 + render_children(cursor, indent, optimized, out);
        }
    }

    pad(out, indent);
    let label = if optimized {
        node.label.clone()
    } else {
        naive_label(node)
    };
    out.push_str(&label);
    if optimized {
        if let PlanKind::Narrow {
            auto_cached: true,
            consumed,
            ..
        } = node.kind
        {
            out.push_str(&format!(" [auto-cached, consumed x{consumed}]"));
        }
    }
    // Residency renders in both modes: the budget applies to the naive
    // plan's holders just the same.
    match node.residency {
        Some(Residency::Mem { .. }) => out.push_str(" [mem]"),
        Some(Residency::Disk {
            budget,
            spilled_parts,
            spilled_bytes,
            predicted_bytes,
            streamed,
        }) => {
            let mode = if streamed { "stream" } else { "spill" };
            out.push_str(&format!(
                " [{mode}@{budget}B: {spilled_parts} part(s)/{spilled_bytes} B spilled, pred {predicted_bytes} B]"
            ));
        }
        None => {}
    }
    out.push('\n');
    render_children(node, indent, optimized, out)
}

fn render_children(node: &PlanNode, indent: usize, optimized: bool, out: &mut String) -> usize {
    node.children
        .iter()
        .map(|child| render(child, indent + 1, optimized, out))
        .sum()
}

/// The label this node would carry in a naive plan (elision undone).
fn naive_label(node: &PlanNode) -> String {
    if let PlanKind::Shuffle { elided: true, .. } = node.kind {
        return node
            .label
            .replace(crate::plan::ELIDED_MARK, crate::plan::SHUFFLE_MARK);
    }
    node.label.clone()
}
