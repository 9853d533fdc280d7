//! # peachy-data
//!
//! Datasets and data plumbing for the Peachy Parallel Assignments
//! reproduction. Each assignment consumes data the original courses pulled
//! from external sources; this crate synthesizes laptop-scale equivalents
//! with controllable parameters (documented per-module):
//!
//! * [`matrix`] — dense row-major `f64` matrices and labelled point sets,
//!   the common currency of the k-NN (§2), k-means (§3) and ensemble (§7)
//!   assignments.
//! * [`kernels`] — blocked, rayon-parallel distance/GEMM kernels (pairwise
//!   distances, fused batch argmin, matvec/matmul, the packed panel scan
//!   the served k-NN index runs) shared by every
//!   distance-heavy hot path in the workspace, with scalar reference
//!   implementations kept for equivalence testing.
//! * [`csv`] — minimal, dependency-free CSV reading/writing, standing in
//!   for the datahub.io / NYC-open-data ingestion steps.
//! * [`synth`] — synthetic classification/clustering point clouds
//!   (Gaussian blobs, concentric rings, two moons) replacing the
//!   datahub.io classification instances.
//! * [`geo`] — a synthetic city (neighbourhood polygons, population,
//!   arrest events with dirty records) replacing the NYC arrests / NTA
//!   datasets of the §4 pipeline, plus point-in-polygon tests.
//! * [`digits`] — procedural 28×28 handwritten-digit images with an
//!   ambiguity knob, replacing MNIST for the §7 uncertainty experiment.
//! * [`split`] — seeded shuffles and train/test splits.
//!
//! All generators are deterministic functions of an explicit seed, so every
//! experiment in the repository is reproducible bit-for-bit.

pub mod csv;
pub mod digits;
pub mod geo;
pub mod iris;
pub mod kernels;
pub mod matrix;
pub mod selfdesc;
pub mod split;
pub mod synth;

pub use matrix::{LabeledDataset, Matrix};
pub use split::TrainTest;
