//! # peachy-heat
//!
//! The 1-D heat equation solver of §6, reproducing both halves of the
//! Chapel assignment with simulated *locales*:
//!
//! * **Part 1 — `forall` over a Block distribution**
//!   ([`forall::solve_forall`]): a high-level data-parallel solver. The
//!   global array is split by a [`BlockDist`] (the workspace-wide
//!   [`peachy_cluster::dist::Block`] distribution) into evenly-sized
//!   contiguous blocks, one per locale; every time step spawns a fresh set
//!   of tasks (one per locale block) exactly as Chapel's `forall` does —
//!   simple, but it pays task create/destroy overhead per step.
//!
//! * **Part 2 — `coforall` with explicit synchronization**
//!   ([`coforall::solve_coforall`]): one persistent task per locale,
//!   spawned once (`coforall loc in Locales do on loc`), each owning a
//!   *local* array (distributed memory), sharing edge values through a
//!   global array of **halo cells**, and synchronizing with a reusable
//!   **barrier** each step. More code, less overhead — the trade-off the
//!   assignment teaches.
//!
//! The update is the standard explicit finite difference
//!
//! ```text
//! u'[x] = u[x] + α (u[x−1] − 2 u[x] + u[x+1])
//! ```
//!
//! with Dirichlet boundaries. Every cell reads only previous-step values,
//! so all three solvers (serial reference included) are **bit-identical**
//! regardless of the number of locales — asserted by the test-suite — and
//! correctness is validated against the exact discrete eigenmode solution.

// Numeric kernels below use explicit index loops deliberately: they mirror
// the assignments' pseudocode and keep stencil/neighbour indexing visible.
#![allow(clippy::needless_range_loop)]

pub mod coforall;
pub mod distributed;
pub mod forall;
pub mod heat2d;
pub mod problem;
pub mod serial;

pub use coforall::solve_coforall;
pub use distributed::solve_distributed;
pub use forall::solve_forall;
/// The Chapel-style balanced block distribution, now shared workspace-wide.
/// Re-exported under its historical heat-crate name.
pub use peachy_cluster::dist::Block as BlockDist;
pub use problem::{HeatProblem, InitialCondition};
pub use serial::solve_serial;
