//! Int8 inference kernels: the precision seam of the execution stack.
//!
//! The paper's Cloud→Edge payload is quantised to stay under 5 MB, but
//! until this module existed the Edge dequantised everything back to f32
//! at deploy, so resident memory and the GEMM hot path saw no benefit.
//! [`QuantMatrix`] keeps weights resident as int8 with one f32 scale per
//! *output channel* (per column of the row-major `(in, out)` weight
//! matrix) and runs the fused matmul+bias+activation directly on the
//! int8 data:
//!
//! * activations are quantised dynamically per row (`scale =
//!   max_abs/127`, symmetric, zero-guarded) into a [`QuantScratch`]
//!   buffer *before* the kernel is dispatched across the compute pool,
//!   so worker threads only ever read the int8 buffers;
//! * the inner kernel accumulates `i8×i8→i32` — integer addition is
//!   exactly associative, so any partitioning of the output rows across
//!   pool threads produces bit-identical accumulators;
//! * a single f32 epilogue rescales per element:
//!   `out[r, c] = act(acc as f32 * x_scale[r] * w_scale[c] + bias[c])`,
//!   which makes the whole path bit-identical across pool sizes
//!   (property-tested below, mirroring the f32 guarantees).
//!
//! There is one kernel for every batch size, the row-streaming
//! [`crate::kernels::scalar::qstream`]: each activation row runs k-outer,
//! n-inner into an `n`-wide i32 accumulator row, reading W front to back
//! two k-rows at a time. An earlier design walked 16- or 32-column strips
//! down all `k` rows of W with stride `n`, which at the backbone's
//! 1024 × 512 layer re-walked about a thousand cache lines per 8-column
//! vector. Streaming has no tile and therefore no tile knobs: the only
//! [`crate::plan::KernelPlan`] field the int8 path reads is
//! `par_min_rows`, and the pool splits rows with no alignment.

use std::cell::RefCell;

use serde::{Deserialize, Serialize};

use crate::error::TensorError;
use crate::kernels::scalar::qstream;
use crate::matrix::Matrix;
use crate::pool::{Exec, SendPtr};
use crate::Result;

/// Numeric precision a model executes at.
///
/// Lives in the tensor crate so every layer above (nn forwards, core
/// deploy policy, fleet batching keys) can share one vocabulary.
/// `Ord` because the fleet uses it inside a `BTreeMap` batching key.
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize,
)]
pub enum Precision {
    /// Full f32 execution (the pre-quantisation default).
    #[default]
    F32,
    /// Int8 weights and activations, i32 accumulate, f32 epilogue.
    Int8,
}

impl Precision {
    /// Canonical lowercase name (CLI flag value, banner text).
    pub fn name(self) -> &'static str {
        match self {
            Precision::F32 => "f32",
            Precision::Int8 => "int8",
        }
    }

    /// Parse a CLI-style name.
    ///
    /// # Errors
    /// [`TensorError::Decode`] on anything other than `f32` / `int8`.
    pub fn parse(s: &str) -> Result<Self> {
        match s {
            "f32" => Ok(Precision::F32),
            "int8" | "i8" => Ok(Precision::Int8),
            other => Err(TensorError::Decode(format!(
                "unknown precision `{other}` (expected `f32` or `int8`)"
            ))),
        }
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Largest inner dimension the i32 accumulator provably cannot overflow
/// for: `k * 127 * 127 <= i32::MAX` holds comfortably below this.
pub(crate) const MAX_QUANT_K: usize = 100_000;

/// An int8 weight matrix with one f32 scale per output channel.
///
/// Layout matches the f32 [`Matrix`] it is quantised from: row-major
/// `(in_dim, out_dim)`, so `scales[c]` rescales output column `c`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantMatrix {
    rows: usize,
    cols: usize,
    data: Vec<i8>,
    scales: Vec<f32>,
}

impl QuantMatrix {
    /// Quantise an f32 weight matrix symmetrically, one scale per
    /// column (output channel). Columns that are entirely zero get scale
    /// 1.0 so dequantisation is exact for them.
    ///
    /// # Errors
    /// [`TensorError::EmptyInput`] for a zero-sized matrix;
    /// [`TensorError::Decode`] when the inner dimension is too large for
    /// the i32 accumulator guarantee.
    pub fn quantize(m: &Matrix) -> Result<Self> {
        let (rows, cols) = m.shape();
        if rows == 0 || cols == 0 {
            return Err(TensorError::EmptyInput("quantize"));
        }
        if rows > MAX_QUANT_K {
            return Err(TensorError::Decode(format!(
                "quantized inner dim {rows} exceeds accumulator-safe bound {MAX_QUANT_K}"
            )));
        }
        let mut max_abs = vec![0.0f32; cols];
        for r in 0..rows {
            for (c, &v) in m.row(r).iter().enumerate() {
                max_abs[c] = max_abs[c].max(v.abs());
            }
        }
        let scales: Vec<f32> = max_abs
            .iter()
            .map(|&ma| if ma > 0.0 { ma / 127.0 } else { 1.0 })
            .collect();
        let mut data = vec![0i8; rows * cols];
        for r in 0..rows {
            let src = m.row(r);
            let dst = &mut data[r * cols..(r + 1) * cols];
            for ((d, &v), &s) in dst.iter_mut().zip(src.iter()).zip(scales.iter()) {
                *d = (v / s).round().clamp(-127.0, 127.0) as i8;
            }
        }
        Ok(QuantMatrix {
            rows,
            cols,
            data,
            scales,
        })
    }

    /// Reconstruct the f32 matrix (lossy round trip through int8).
    ///
    /// # Errors
    /// Never for a well-formed `QuantMatrix`; fallible because
    /// [`Matrix::from_vec`] is.
    pub fn dequantize(&self) -> Result<Matrix> {
        let mut data = Vec::with_capacity(self.rows * self.cols);
        for r in 0..self.rows {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            for (c, &q) in row.iter().enumerate() {
                data.push(f32::from(q) * self.scales[c]);
            }
        }
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// Input (inner) dimension.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Output dimension.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Per-output-channel scales.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Raw int8 weights, row-major.
    pub fn data(&self) -> &[i8] {
        &self.data
    }

    /// Rebuild from raw parts (deserialisation).
    ///
    /// # Errors
    /// [`TensorError::InvalidDimensions`] when buffer lengths do not
    /// match the dims; [`TensorError::Decode`] on an oversized inner dim.
    pub fn from_parts(rows: usize, cols: usize, data: Vec<i8>, scales: Vec<f32>) -> Result<Self> {
        if rows == 0 || cols == 0 || data.len() != rows * cols || scales.len() != cols {
            return Err(TensorError::InvalidDimensions {
                rows,
                cols,
                len: data.len(),
            });
        }
        if rows > MAX_QUANT_K {
            return Err(TensorError::Decode(format!(
                "quantized inner dim {rows} exceeds accumulator-safe bound {MAX_QUANT_K}"
            )));
        }
        Ok(QuantMatrix {
            rows,
            cols,
            data,
            scales,
        })
    }

    /// Resident bytes of the quantised weights (int8 data + scales).
    pub fn stored_bytes(&self) -> usize {
        self.data.len() + self.scales.len() * 4
    }

    /// Fused `out = act(x · W + bias)` executed on the int8 data.
    ///
    /// `x` is f32 and quantised per row into `scratch` before dispatch;
    /// `out` receives f32. Bit-identical across pool sizes and plans
    /// (integer accumulation + per-element epilogue, one kernel).
    ///
    /// # Errors
    /// [`TensorError::ShapeMismatch`] when `x.cols() != self.rows()` or
    /// the bias length is not `self.cols()`.
    pub fn matmul_bias_act_into_exec<F>(
        &self,
        x: &Matrix,
        bias: &[f32],
        act: F,
        out: &mut Matrix,
        scratch: &mut QuantScratch,
        exec: &Exec,
    ) -> Result<()>
    where
        F: Fn(f32) -> f32 + Sync,
    {
        let (m, k) = x.shape();
        let n = self.cols;
        if k != self.rows {
            return Err(TensorError::ShapeMismatch {
                op: "qmatmul",
                lhs: (m, k),
                rhs: (self.rows, self.cols),
            });
        }
        if bias.len() != n {
            return Err(TensorError::ShapeMismatch {
                op: "qmatmul bias",
                lhs: (1, bias.len()),
                rhs: (1, n),
            });
        }
        scratch.quantize_rows(x);
        out.resize(m, n);
        let x_q = &scratch.x_q[..];
        let x_scales = &scratch.x_scales[..];
        let out_ptr = SendPtr::new(out.as_mut_slice().as_mut_ptr());
        let act = &act;
        // One row is the unit of work and every batch size runs the same
        // kernel, so any row split across the pool computes exactly what
        // the sequential run does.
        exec.run_row_panels(m, 1, &|r0, r1| {
            // SAFETY: panels partition the row range, so each closure
            // invocation writes a disjoint slice of `out`.
            let panel = unsafe {
                std::slice::from_raw_parts_mut(out_ptr.get().add(r0 * n), (r1 - r0) * n)
            };
            ACC_ROW.with(|cell| {
                let mut acc = cell.borrow_mut();
                acc.resize(n, 0);
                for (i, out_row) in (r0..r1).zip(panel.chunks_exact_mut(n)) {
                    qstream(&x_q[i * k..(i + 1) * k], &self.data, n, &mut acc);
                    epilogue(&acc, x_scales[i], &self.scales, bias, out_row, act);
                }
            });
        });
        Ok(())
    }
}

thread_local! {
    /// The `n`-wide i32 accumulator row of the int8 GEMM. Pool workers
    /// are long-lived threads, so after the first call per layer width
    /// the steady state allocates nothing.
    static ACC_ROW: RefCell<Vec<i32>> = const { RefCell::new(Vec::new()) };
}

/// The f32 epilogue: rescale, add bias, activate.
#[inline]
fn epilogue<F: Fn(f32) -> f32>(
    acc: &[i32],
    x_scale: f32,
    w_scales: &[f32],
    bias: &[f32],
    out_row: &mut [f32],
    act: &F,
) {
    for (t, &a) in acc.iter().enumerate() {
        out_row[t] = act(a as f32 * x_scale * w_scales[t] + bias[t]);
    }
}

/// Reusable buffers for the dynamic activation quantisation.
///
/// Owned by the caller (rides in [`crate::workspace::Workspace`]) so the
/// steady state allocates nothing. The buffers are filled *before* the
/// kernel is dispatched and only read afterwards, which is what lets the
/// parallel closure capture them as plain shared references.
#[derive(Debug, Default)]
pub struct QuantScratch {
    x_q: Vec<i8>,
    x_scales: Vec<f32>,
}

impl QuantScratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        QuantScratch::default()
    }

    /// Quantise every row of `x` symmetrically (`scale = max_abs / 127`,
    /// all-zero rows get scale 1.0).
    fn quantize_rows(&mut self, x: &Matrix) {
        let (m, k) = x.shape();
        self.x_q.clear();
        self.x_q.resize(m * k, 0);
        self.x_scales.clear();
        self.x_scales.resize(m, 1.0);
        for r in 0..m {
            let row = x.row(r);
            let max_abs = row.iter().fold(0.0f32, |a, &v| a.max(v.abs()));
            let scale = if max_abs > 0.0 { max_abs / 127.0 } else { 1.0 };
            let dst = &mut self.x_q[r * k..(r + 1) * k];
            for (q, &v) in dst.iter_mut().zip(row.iter()) {
                *q = (v / scale).round().clamp(-127.0, 127.0) as i8;
            }
            self.x_scales[r] = scale;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::KernelPlan;
    use crate::rng::SeededRng;
    use crate::tiling::Backend;
    use proptest::prelude::*;

    fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = SeededRng::new(seed);
        let data = (0..rows * cols).map(|_| rng.uniform(-2.0, 2.0)).collect();
        Matrix::from_vec(rows, cols, data).unwrap()
    }

    /// Straight-line reference computing the exact same math as the
    /// kernels: quantise rows, i32 dot products, shared epilogue.
    fn reference(x: &Matrix, w: &QuantMatrix, bias: &[f32], act: impl Fn(f32) -> f32) -> Matrix {
        let mut scratch = QuantScratch::new();
        scratch.quantize_rows(x);
        let (m, k) = x.shape();
        let n = w.cols();
        let mut out = Matrix::zeros(m, n);
        for r in 0..m {
            for (c, (&w_scale, &b)) in w.scales().iter().zip(bias).enumerate() {
                let mut acc = 0i32;
                for kk in 0..k {
                    acc += i32::from(scratch.x_q[r * k + kk]) * i32::from(w.data()[kk * n + c]);
                }
                let v = act(acc as f32 * scratch.x_scales[r] * w_scale + b);
                out.set(r, c, v);
            }
        }
        out
    }

    #[test]
    fn quantize_dequantize_is_close_per_channel() {
        let m = random_matrix(24, 17, 1);
        let q = QuantMatrix::quantize(&m).unwrap();
        let back = q.dequantize().unwrap();
        for r in 0..24 {
            for (c, (&a, &b)) in m.row(r).iter().zip(back.row(r).iter()).enumerate() {
                let bound = q.scales()[c] / 2.0 + 1e-6;
                assert!((a - b).abs() <= bound, "({r},{c}): {a} vs {b}");
            }
        }
    }

    #[test]
    fn zero_column_round_trips_exactly() {
        let mut m = random_matrix(8, 4, 2);
        for r in 0..8 {
            m.set(r, 2, 0.0);
        }
        let q = QuantMatrix::quantize(&m).unwrap();
        assert_eq!(q.scales()[2], 1.0);
        let back = q.dequantize().unwrap();
        for r in 0..8 {
            assert_eq!(back.get(r, 2), 0.0);
        }
    }

    #[test]
    fn rejects_empty_and_mismatched_parts() {
        assert!(QuantMatrix::quantize(&Matrix::zeros(0, 4)).is_err());
        assert!(QuantMatrix::from_parts(2, 2, vec![0; 3], vec![1.0; 2]).is_err());
        assert!(QuantMatrix::from_parts(2, 2, vec![0; 4], vec![1.0; 3]).is_err());
    }

    #[test]
    fn matmul_matches_reference() {
        let x = random_matrix(23, 40, 3);
        let w = QuantMatrix::quantize(&random_matrix(40, 37, 4)).unwrap();
        let bias: Vec<f32> = (0..37).map(|i| i as f32 * 0.01 - 0.2).collect();
        let act = |v: f32| v.max(0.0);
        let expect = reference(&x, &w, &bias, act);
        let mut out = Matrix::default();
        let mut scratch = QuantScratch::new();
        w.matmul_bias_act_into_exec(&x, &bias, act, &mut out, &mut scratch, &Exec::inline())
            .unwrap();
        assert_eq!(out, expect);
    }

    /// Weights at the i8 extremes: whole columns of −128 and of 127, a
    /// column alternating −128/127, and a mixed pattern with −127.
    fn extreme_weights(k: usize, n: usize) -> QuantMatrix {
        let data = (0..k * n)
            .map(|i| {
                let (kk, c) = (i / n, i % n);
                match c % 4 {
                    0 => -128,
                    1 => 127,
                    2 if kk % 2 == 0 => -128,
                    2 => 127,
                    _ => [-128, 127, -127, 0, 1, -1][(kk * 7 + c) % 6],
                }
            })
            .collect();
        let scales = (0..n).map(|c| 0.01 * (c + 1) as f32).collect();
        QuantMatrix::from_parts(k, n, data, scales).unwrap()
    }

    /// Activation rows that quantise to ±127 everywhere, all-zero rows,
    /// rows zero on every other element, rows whose k-pairs alternate
    /// between both-zero and both-nonzero, and two random rows.
    fn extreme_activations(k: usize) -> Matrix {
        let patterns: [&dyn Fn(usize) -> f32; 8] = [
            &|_| 3.0,
            &|_| -3.0,
            &|j| if j % 2 == 0 { 3.0 } else { -3.0 },
            &|_| 0.0,
            &|j| if j % 2 == 0 { 0.0 } else { -3.0 },
            &|j| if j % 2 == 1 { 0.0 } else { 3.0 },
            &|j| if (j / 2) % 2 == 0 { 0.0 } else { -3.0 },
            &|j| if (j / 2) % 2 == 1 { 0.0 } else { 3.0 },
        ];
        let mut data: Vec<f32> = patterns.iter().flat_map(|p| (0..k).map(p)).collect();
        data.extend(random_matrix(2, k, k as u64).as_slice());
        Matrix::from_vec(patterns.len() + 2, k, data).unwrap()
    }

    /// The int8 GEMM is exact at the value extremes, for odd and even
    /// `k` (the pair tail) and ragged `n`, on every backend a plan can
    /// name and at every pool size. Pinning −128 weights against ±127
    /// activations rules out saturating i16 shortcuts (`maddubs`-style
    /// u8×i8 pair sums overflow there).
    #[test]
    fn extremes_match_reference_on_every_backend_and_pool_size() {
        let act = |v: f32| if v > 0.0 { v } else { 0.01 * v };
        for k in [1usize, 2, 1023, 1024] {
            let x = extreme_activations(k);
            assert!(x.rows() >= 8, "enough rows to split across the pool");
            for n in [1usize, 7, 15, 17, 512] {
                let w = extreme_weights(k, n);
                let bias: Vec<f32> = (0..n).map(|c| (c as f32).cos()).collect();
                let expect = reference(&x, &w, &bias, act);
                let mut scratch = QuantScratch::new();
                for backend in Backend::candidates() {
                    let plan = KernelPlan {
                        par_min_rows: 8,
                        ..KernelPlan::inline().with_backend(backend)
                    };
                    let execs = [
                        Exec::inline(),
                        Exec::from_plan(plan.with_threads(1)),
                        Exec::from_plan(plan.with_threads(2)),
                        Exec::from_plan(plan.with_threads(8)),
                    ];
                    for (pool, exec) in [0, 1, 2, 8].into_iter().zip(&execs) {
                        let mut out = Matrix::default();
                        w.matmul_bias_act_into_exec(&x, &bias, act, &mut out, &mut scratch, exec)
                            .unwrap();
                        assert_eq!(out, expect, "k={k} n={n} backend={backend} pool={pool}");
                    }
                }
            }
        }
    }

    #[test]
    fn shape_mismatches_are_rejected() {
        let x = random_matrix(4, 5, 5);
        let w = QuantMatrix::quantize(&random_matrix(6, 3, 6)).unwrap();
        let mut out = Matrix::default();
        let mut scratch = QuantScratch::new();
        let exec = Exec::inline();
        assert!(w
            .matmul_bias_act_into_exec(&x, &[0.0; 3], |v| v, &mut out, &mut scratch, &exec)
            .is_err());
        let w_ok = QuantMatrix::quantize(&random_matrix(5, 3, 7)).unwrap();
        assert!(w_ok
            .matmul_bias_act_into_exec(&x, &[0.0; 2], |v| v, &mut out, &mut scratch, &exec)
            .is_err());
    }

    #[test]
    fn empty_batch_is_fine() {
        let x = Matrix::zeros(0, 5);
        let w = QuantMatrix::quantize(&random_matrix(5, 3, 8)).unwrap();
        let mut out = Matrix::default();
        let mut scratch = QuantScratch::new();
        w.matmul_bias_act_into_exec(&x, &[0.0; 3], |v| v, &mut out, &mut scratch, &exec_inline())
            .unwrap();
        assert_eq!(out.shape(), (0, 3));
    }

    fn exec_inline() -> Exec {
        Exec::inline()
    }

    #[test]
    fn precision_parse_and_display() {
        assert_eq!(Precision::parse("f32").unwrap(), Precision::F32);
        assert_eq!(Precision::parse("int8").unwrap(), Precision::Int8);
        assert_eq!(Precision::parse("i8").unwrap(), Precision::Int8);
        assert!(Precision::parse("f16").is_err());
        assert_eq!(Precision::Int8.to_string(), "int8");
        assert_eq!(Precision::default(), Precision::F32);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The acceptance property: for any shape, the i8 GEMM is
        /// bit-identical across pool sizes 0/1/2/8.
        #[test]
        fn qgemm_bit_identical_across_pool_sizes(
            m in 1usize..40,
            k in 1usize..48,
            n in 1usize..40,
            seed in 0u64..1000,
        ) {
            let x = random_matrix(m, k, seed);
            let w = QuantMatrix::quantize(&random_matrix(k, n, seed ^ 0xABCD)).unwrap();
            let bias: Vec<f32> = (0..n).map(|i| (i as f32).sin() * 0.1).collect();
            let act = |v: f32| if v > 0.0 { v } else { 0.01 * v };
            let plan = KernelPlan {
                // Force parallel dispatch even for tiny batches.
                par_min_rows: 8,
                ..KernelPlan::inline()
            }.sanitized();

            // Pool size 0: the plain inline context.
            let mut base = Matrix::default();
            let mut scratch = QuantScratch::new();
            w.matmul_bias_act_into_exec(
                &x, &bias, act, &mut base, &mut scratch,
                &Exec::from_plan(plan.with_threads(1)),
            ).unwrap();

            for threads in [1usize, 2, 8] {
                let exec = Exec::from_plan(plan.with_threads(threads));
                let mut out = Matrix::default();
                w.matmul_bias_act_into_exec(&x, &bias, act, &mut out, &mut scratch, &exec)
                    .unwrap();
                prop_assert_eq!(&out, &base, "threads={}", threads);
            }
        }
    }
}
