//! # magneto-tensor
//!
//! Dense linear-algebra substrate for the MAGNETO Edge-AI platform.
//!
//! The MAGNETO paper (EDBT 2024) implements its models in PyTorch; the
//! offline Rust crate ecosystem available to this reproduction has no
//! mature deep-learning stack, so everything the neural network and the
//! classifiers need is built here from scratch:
//!
//! * [`Matrix`] — row-major `f32` dense matrix with the handful of BLAS-like
//!   operations a fully-connected network needs (matmul, transpose,
//!   broadcast row ops, element-wise maps).
//! * [`vector`] — distance and similarity kernels (Euclidean, cosine,
//!   Manhattan) used by the Nearest-Class-Mean classifier.
//! * [`init`] — Xavier/He/uniform weight initialisers.
//! * [`stats`] — scalar statistics (mean, variance, skewness, kurtosis,
//!   percentiles, correlation) shared by the DSP feature extractor.
//! * [`rng`] — a small deterministic RNG facade so every experiment is
//!   reproducible from a single seed.
//! * [`serialize`] — compact little-endian binary encoding used for the
//!   Cloud → Edge bundle (the paper's < 5 MB footprint claim is measured
//!   against these encodings).
//! * [`workspace`] — a scratch-buffer pool so the batched hot path
//!   (training steps, batch embedding, streaming inference) reuses
//!   allocations instead of re-allocating every call.
//! * [`pool`] — a deterministic fixed-partition compute pool: GEMMs are
//!   split over output row panels across cores with results
//!   bit-identical to the sequential path at any thread count.
//! * [`plan`] — the [`KernelPlan`] (thread count, dispatch thresholds,
//!   micro-kernel backend) that steers every kernel.
//! * [`quant`] — the int8 execution seam: [`QuantMatrix`] weights with
//!   per-output-channel scales, dynamic per-row activation quantisation,
//!   and a register-blocked i8×i8→i32 fused GEMM on packed weights that
//!   is bit-identical across backends and pool sizes (integer
//!   accumulation + a per-element f32 epilogue).
//!
//! Design notes: matrices are plain `Vec<f32>` in row-major order. The
//! backbone network in the paper is a 5-layer MLP (80→1024→512→128→64→128),
//! small enough that a cache-blocked scalar matmul with manual loop
//! ordering (i-k-j, k-panelled) is more than fast enough on laptop-class
//! hardware, and far simpler to audit than SIMD intrinsics. Hot-path
//! kernels come in `_into` form (`matmul_into`, `matmul_transpose_into`,
//! `transpose_matmul_into`) writing into caller-owned outputs; the
//! allocating variants are thin shims over them.

// Every `unsafe` operation must sit in its own explicit `unsafe` block
// (with a `// SAFETY:` comment — `make lint-unsafe` greps for it), even
// inside `unsafe fn`s like the `#[target_feature]` SIMD kernels.
#![deny(unsafe_op_in_unsafe_fn)]

pub mod error;
pub mod init;
pub(crate) mod kernels;
pub mod matrix;
pub mod plan;
pub mod pool;
pub mod qdist;
pub mod quant;
pub mod rng;
pub mod serialize;
pub mod stats;
pub mod tiling;
pub mod vector;
pub mod workspace;

pub use error::TensorError;
pub use matrix::Matrix;
pub use plan::KernelPlan;
pub use pool::{install_global, ComputePool, Exec};
pub use qdist::QuantRowStore;
pub use quant::{Precision, QuantMatrix, QuantScratch};
pub use rng::SeededRng;
pub use tiling::Backend;
pub use workspace::Workspace;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TensorError>;
