//! # peachy-kmeans
//!
//! *K*-means clustering — the §3 Peachy assignment, including the
//! **parallelization-strategy ladder** the assignment walks students
//! through:
//!
//! 1. detect the race conditions in the assignment and update phases;
//! 2. solve them with **critical regions** ([`Strategy::Critical`] — one
//!    mutex around the shared accumulators);
//! 3. improve efficiency with **atomic operations**
//!    ([`Strategy::Atomic`] — CAS loops on bit-cast `f64` sums);
//! 4. eliminate the races entirely with a **reduction**
//!    ([`Strategy::Reduction`] — per-chunk partials merged
//!    deterministically).
//!
//! plus the **distributed-memory** version ([`distributed::fit_distributed`])
//! on [`peachy_cluster`] collectives, where "students who reach the fourth
//! step in OpenMP find MPI easier since a distributed reduction is needed
//! in any case".
//!
//! The sequential reference ([`seq::fit_seq`]) mirrors the assignment's
//! "intentionally understandable" starter code: a main loop with an
//! assignment phase (tracking *cluster changes*) and an update phase
//! (counting members and summing coordinates), terminating on any of three
//! thresholds — iteration count, cluster changes, or centroid displacement.
//!
//! That main loop is written once, as the crate's Lloyd driver (in
//! [`config`]): it owns the centroids, the per-cluster means (an empty
//! cluster keeps its centroid), the largest-shift measure and the three
//! thresholds. Every variant — sequential, the three strategies, the
//! gather-buffer layout, the GPU kernel and each distributed rank —
//! supplies only its step: one pass that fills the counts, sums and
//! change count, resolving its races its own way.
//!
//! ```
//! use peachy_data::synth::gaussian_blobs;
//! use peachy_kmeans::{fit, init, KMeansConfig, Strategy};
//!
//! let data = gaussian_blobs(1000, 2, 3, 0.4, 7);
//! let config = KMeansConfig::default();
//! let centroids = init::random_init(&data.points, 3, 42);
//! let result = fit(&data.points, &config, centroids, Strategy::Reduction);
//! assert_eq!(result.centroids.rows(), 3);
//! assert!(result.iterations <= config.max_iters);
//! ```

// Numeric kernels below use explicit index loops deliberately: they mirror
// the assignments' pseudocode and keep stencil/neighbour indexing visible.
#![allow(clippy::needless_range_loop)]

pub mod config;
pub mod distributed;
pub mod executor;
pub mod gpu;
pub mod init;
pub mod locality;
pub mod metrics;
pub mod quality;
pub mod seq;
pub mod strategies;

pub use config::{KMeansConfig, KMeansResult, Termination};
pub use distributed::{fit_distributed, fit_distributed_resilient, ResilientFit};
pub use executor::fit_with;
pub use gpu::{fit_gpu, GpuLaunch, GpuStrategy};
pub use init::{kmeans_plus_plus, random_init};
pub use locality::fit_buffers;
pub use metrics::inertia;
pub use quality::{elbow_sweep, silhouette, ElbowPoint};
pub use seq::fit_seq;
pub use strategies::{fit, Strategy};
