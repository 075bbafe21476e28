//! Int8 inference kernels: the precision seam of the execution stack.
//!
//! The paper's Cloud→Edge payload is quantised to stay under 5 MB, but
//! until this module existed the Edge dequantised everything back to f32
//! at deploy, so resident memory and the GEMM hot path saw no benefit.
//! [`QuantMatrix`] keeps weights resident as int8 with one f32 scale per
//! *output channel* (per column of the logical `(in, out)` weight
//! matrix) and runs the fused matmul+bias+activation directly on the
//! int8 data:
//!
//! * activations are quantised dynamically per row (`scale =
//!   max_abs/127`, symmetric, zero-guarded) into a [`QuantScratch`]
//!   buffer *before* the kernel is dispatched across the compute pool,
//!   so worker threads only ever read the quantised buffers;
//! * the inner kernel accumulates `i8×i8→i32` — integer addition is
//!   exactly associative, so any backend, tile shape or partitioning of
//!   the output rows across pool threads produces bit-identical
//!   accumulators;
//! * a single f32 epilogue rescales per element:
//!   `out[r, c] = act(acc as f32 * x_scale[r] * w_scale[c] + bias[c])`,
//!   which makes the whole path bit-identical across backends and pool
//!   sizes (property-tested below, mirroring the f32 guarantees).
//!
//! The GEMM is register-blocked. The weights live in one packed layout
//! (column blocks of [`QCOLS`], k-rows interleaved in pairs; see
//! [`QuantMatrix`]) that replaces the row-major bytes in memory, and a
//! tile of up to [`QROWS`] activation rows × [`QCOLS`] columns runs over
//! one block at a time, so each weight pair loaded feeds every row of
//! the tile. The tile is dispatched on the plan's backend
//! ([`crate::kernels`]): AVX2 widens each interleaved pair with
//! `cvtepi8_epi16` and multiplies it against the broadcast activation
//! pair with `madd_epi16`; the portable instance (Scalar, and NEON,
//! which has no int8 GEMM instance of its own) runs the same arithmetic
//! in plain Rust. Rows left below the tile height run the same instance
//! at a smaller height, and the pool splits rows at the tile height.

use serde::{Deserialize, Serialize, Value};

use crate::error::TensorError;
use crate::kernels::qtile_dispatch;
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
/// for: `k * 127 * 128 <= i32::MAX` holds comfortably below this.
pub(crate) const MAX_QUANT_K: usize = 100_000;

/// Columns of one packed weight block, and the width of the int8
/// register tile (two 8-lane i32 accumulators per row on AVX2).
pub(crate) const QCOLS: usize = 16;

/// Rows of the int8 register tile. With the k loop unrolled two pairs
/// deep, three rows of two accumulators fill twelve of the sixteen ymm
/// registers, leaving room for the two widened weight vectors and the
/// broadcast activation pair. A six-row tile with one pair per step
/// also keeps twelve, and measured ~12% slower per row on an AVX-VNNI
/// host (EXPERIMENTS.md, "Register-blocked int8 GEMM").
pub(crate) const QROWS: usize = 3;

/// An int8 weight matrix with one f32 scale per output channel.
///
/// Logically `(in_dim, out_dim)` like the f32 [`Matrix`] it is quantised
/// from, so `scales[c]` rescales output column `c`. In memory the
/// weights live only in the kernel's packed layout: column blocks
/// [`QCOLS`] wide, each block `k`-pair after `k`-pair, and within a pair
/// the two k-rows interleaved per column —
/// `w(2p, c0), w(2p+1, c0), w(2p, c1), w(2p+1, c1), …` — with a zero
/// k-row padding an odd `k`. A last block narrower than [`QCOLS`] (when
/// `out_dim` is not a multiple of it) is stored at its own width and
/// widened into [`QuantScratch`] per call, so column padding costs no
/// resident memory. [`row_major`](Self::row_major) recovers the logical
/// order for the wire format and dequantisation.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantMatrix {
    rows: usize,
    cols: usize,
    packed: Vec<i8>,
    scales: Vec<f32>,
}

/// Index of logical weight `(r, c)` in the packed layout of a matrix
/// with `cols` columns whose inner dimension is padded to `kp`.
#[inline]
fn packed_index(kp: usize, cols: usize, r: usize, c: usize) -> usize {
    let block = c / QCOLS;
    let width = QCOLS.min(cols - block * QCOLS);
    block * kp * QCOLS + (r / 2) * 2 * width + (c % QCOLS) * 2 + r % 2
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
        check_inner_dim(rows)?;
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
        let packed = pack(rows, cols, |r, c| {
            (m.get(r, c) / scales[c]).round().clamp(-127.0, 127.0) as i8
        });
        Ok(QuantMatrix {
            rows,
            cols,
            packed,
            scales,
        })
    }

    /// Reconstruct the f32 matrix (lossy round trip through int8).
    ///
    /// # Errors
    /// Never for a well-formed `QuantMatrix`; fallible because
    /// [`Matrix::from_vec`] is.
    pub fn dequantize(&self) -> Result<Matrix> {
        let scales = self.scales.iter().cycle();
        let data = self
            .row_major()
            .zip(scales)
            .map(|(q, &s)| f32::from(q) * s)
            .collect();
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

    /// The int8 weights in logical row-major `(in, out)` order, read out
    /// of the packed layout (the `MGQ2` wire order).
    pub fn row_major(&self) -> impl Iterator<Item = i8> + '_ {
        let kp = self.rows.next_multiple_of(2);
        let n = self.cols;
        (0..self.rows)
            .flat_map(move |r| (0..n).map(move |c| self.packed[packed_index(kp, n, r, c)]))
    }

    /// Rebuild from raw parts (deserialisation); `data` is row-major.
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
        check_inner_dim(rows)?;
        Ok(QuantMatrix {
            rows,
            cols,
            packed: pack(rows, cols, |r, c| data[r * cols + c]),
            scales,
        })
    }

    /// Resident bytes of the quantised weights: the packed int8 data
    /// plus the f32 scales. One byte per logical weight, plus one zero
    /// k-row when the inner dimension is odd.
    pub fn stored_bytes(&self) -> usize {
        self.packed.len() + self.scales.len() * 4
    }

    /// Fused `out = act(x · W + bias)` executed on the int8 data.
    ///
    /// `x` is f32 and quantised per row into `scratch` before dispatch;
    /// `out` receives f32. Bit-identical across backends, pool sizes and
    /// plans (integer accumulation + per-element epilogue).
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
        let kp = scratch.quantize_rows(x);
        let full_blocks = self.packed.chunks_exact(kp * QCOLS);
        scratch.widen_block(full_blocks.remainder(), kp);
        let narrow = (!scratch.tail.is_empty()).then_some(&scratch.tail[..]);
        let blocks = full_blocks.chain(narrow);
        out.resize(m, n);
        let x_q = &scratch.x_q[..];
        let x_scales = &scratch.x_scales[..];
        let backend = exec.backend();
        let out_ptr = SendPtr::new(out.as_mut_slice().as_mut_ptr());
        let act = &act;
        // Integer accumulation is exact, so the tile a row lands in (and
        // the panel split that decides it) cannot change a result; the
        // tile-height alignment only keeps whole tiles together.
        exec.run_row_panels(m, QROWS, &|r0, r1| {
            // SAFETY: panels partition the row range, so each closure
            // invocation writes a disjoint slice of `out`.
            let panel = unsafe {
                std::slice::from_raw_parts_mut(out_ptr.get().add(r0 * n), (r1 - r0) * n)
            };
            let mut acc = [[0i32; QCOLS]; QROWS];
            for i in (r0..r1).step_by(QROWS) {
                let h = QROWS.min(r1 - i);
                let x_tile = &x_q[i * kp..(i + h) * kp];
                let tile = &mut acc[..h];
                for (b, block) in blocks.clone().enumerate() {
                    qtile_dispatch(backend, x_tile, kp, block, tile);
                    let (c0, c1) = (b * QCOLS, n.min((b + 1) * QCOLS));
                    for (r, row_acc) in tile.iter().enumerate() {
                        let at = (i - r0 + r) * n;
                        epilogue(
                            &row_acc[..c1 - c0],
                            x_scales[i + r],
                            &self.scales[c0..c1],
                            &bias[c0..c1],
                            &mut panel[at + c0..at + c1],
                            act,
                        );
                    }
                }
            }
        });
        Ok(())
    }
}

/// Refuse inner dimensions past the accumulator-safe bound.
fn check_inner_dim(rows: usize) -> Result<()> {
    if rows > MAX_QUANT_K {
        return Err(TensorError::Decode(format!(
            "quantized inner dim {rows} exceeds accumulator-safe bound {MAX_QUANT_K}"
        )));
    }
    Ok(())
}

/// Lay out the logical weights `weight(r, c)` in the packed layout,
/// padding an odd `k` with a zero k-row.
fn pack(rows: usize, cols: usize, weight: impl Fn(usize, usize) -> i8) -> Vec<i8> {
    let kp = rows.next_multiple_of(2);
    let mut packed = vec![0i8; kp * cols];
    for r in 0..rows {
        for c in 0..cols {
            packed[packed_index(kp, cols, r, c)] = weight(r, c);
        }
    }
    packed
}

/// The serialised form: logical row-major weights, so JSON built from a
/// `QuantMatrix` does not depend on the in-memory layout.
#[derive(Deserialize)]
struct QuantMatrixWire {
    rows: usize,
    cols: usize,
    data: Vec<i8>,
    scales: Vec<f32>,
}

impl Deserialize for QuantMatrix {
    /// Decoded parts pass the same checks as
    /// [`from_parts`](QuantMatrix::from_parts).
    fn from_value(v: &Value) -> std::result::Result<Self, serde::Error> {
        let wire = QuantMatrixWire::from_value(v)?;
        QuantMatrix::from_parts(wire.rows, wire.cols, wire.data, wire.scales)
            .map_err(|e| serde::Error::custom(e.to_string()))
    }
}

impl Serialize for QuantMatrix {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("rows".into(), self.rows.to_value()),
            ("cols".into(), self.cols.to_value()),
            ("data".into(), Value::Seq(self.row_major().map(|q| q.to_value()).collect())),
            ("scales".into(), self.scales.to_value()),
        ])
    }
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
    /// Quantised rows, each padded with zeros to an even length so every
    /// k-pair `(x0, x1)` reads as one 32-bit word. Stored as i16 (the
    /// values are in `[-127, 127]`) because the kernels multiply in i16.
    x_q: Vec<i16>,
    x_scales: Vec<f32>,
    /// The weights' narrow last block widened to [`QCOLS`] columns with
    /// zeros; empty when every block is full.
    tail: Vec<i8>,
}

impl QuantScratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        QuantScratch::default()
    }

    /// Quantise every row of `x` symmetrically (`scale = max_abs / 127`,
    /// all-zero rows get scale 1.0) into rows padded to an even length;
    /// returns that padded length.
    fn quantize_rows(&mut self, x: &Matrix) -> usize {
        let (m, k) = x.shape();
        let kp = k.next_multiple_of(2);
        self.x_q.clear();
        self.x_q.resize(m * kp, 0);
        self.x_scales.clear();
        self.x_scales.resize(m, 1.0);
        for (r, (dst, scale)) in self
            .x_q
            .chunks_exact_mut(kp)
            .zip(&mut self.x_scales)
            .enumerate()
        {
            *scale = quantize_row(x.row(r), &mut dst[..k]);
        }
        kp
    }

    /// Widen `block`, a packed block narrower than [`QCOLS`] columns
    /// (empty when there is none), into `self.tail`, zero-filling the
    /// missing columns of every k-pair.
    fn widen_block(&mut self, block: &[i8], kp: usize) {
        self.tail.clear();
        if block.is_empty() {
            return;
        }
        self.tail.resize(kp * QCOLS, 0);
        let pair = block.len() / (kp / 2);
        for (dst, src) in self.tail.chunks_exact_mut(2 * QCOLS).zip(block.chunks_exact(pair)) {
            dst[..pair].copy_from_slice(src);
        }
    }
}

/// Quantise one row into `dst` and return its scale: `scale = max_abs
/// / 127` (1.0 for a row with nothing above zero), then round, clamp
/// and a saturating cast per value (NaN → 0).
fn quantize_row(row: &[f32], dst: &mut [i16]) -> f32 {
    let max_abs = row.iter().fold(0.0f32, |a, &v| a.max(v.abs()));
    let scale = if max_abs > 0.0 { max_abs / 127.0 } else { 1.0 };
    for (q, &v) in dst.iter_mut().zip(row) {
        *q = (v / scale).round().clamp(-127.0, 127.0) as i16;
    }
    scale
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
    /// kernels: quantise rows, i32 dot products over the logical
    /// row-major weights, shared epilogue.
    fn reference(x: &Matrix, w: &QuantMatrix, bias: &[f32], act: impl Fn(f32) -> f32) -> Matrix {
        let (m, k) = x.shape();
        let n = w.cols();
        let weights: Vec<i8> = w.row_major().collect();
        let mut out = Matrix::zeros(m, n);
        let mut x_q = vec![0i16; k];
        for r in 0..m {
            let x_scale = quantize_row(x.row(r), &mut x_q);
            for (c, (&w_scale, &b)) in w.scales().iter().zip(bias).enumerate() {
                let mut acc = 0i32;
                for kk in 0..k {
                    acc += i32::from(x_q[kk]) * i32::from(weights[kk * n + c]);
                }
                let v = act(acc as f32 * x_scale * w_scale + b);
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

    /// Activation rows that quantise to ±127 everywhere, two all-zero
    /// rows, rows zero on every other element, rows whose k-pairs
    /// alternate between both-zero and both-nonzero, a row whose only
    /// nonzero is the last element (the odd-`k` pad pair), and two
    /// random rows: thirteen, so every prefix height 1–13 runs, with
    /// every tile remainder.
    fn extreme_activations(k: usize) -> Matrix {
        let patterns: [&dyn Fn(usize) -> f32; 10] = [
            &|_| 3.0,
            &|_| -3.0,
            &|j| if j % 2 == 0 { 3.0 } else { -3.0 },
            &|_| 0.0,
            &|j| if j % 2 == 0 { 0.0 } else { -3.0 },
            &|j| if j % 2 == 1 { 0.0 } else { 3.0 },
            &|j| if (j / 2) % 2 == 0 { 0.0 } else { -3.0 },
            &|j| if (j / 2) % 2 == 1 { 0.0 } else { 3.0 },
            &|_| 0.0,
            &|j| if j + 1 == k { -3.0 } else { 0.0 },
        ];
        let mut data: Vec<f32> = patterns.iter().flat_map(|p| (0..k).map(p)).collect();
        data.extend(random_matrix(3, k, k as u64).as_slice());
        Matrix::from_vec(patterns.len() + 3, k, data).unwrap()
    }

    /// Thirteen seeded rows, half their values zero (post-ReLU-like),
    /// with row 4 all zero.
    fn sparse_activations(k: usize) -> Matrix {
        let mut x = random_matrix(13, k, 0x2C0 + k as u64);
        for (i, v) in x.as_mut_slice().iter_mut().enumerate() {
            if *v < 0.0 || i / k == 4 {
                *v = 0.0;
            }
        }
        x
    }

    /// Seeded weights built through `from_parts`, a tenth of them −128
    /// (a value `quantize` never produces).
    fn seeded_raw_weights(k: usize, n: usize) -> QuantMatrix {
        let mut rng = SeededRng::new(0x2D0 + (k * 31 + n) as u64);
        let data = (0..k * n)
            .map(|_| {
                let v = rng.uniform(-1.0, 1.0);
                if v < -0.8 {
                    -128
                } else {
                    (v * 127.0) as i8
                }
            })
            .collect();
        let scales = (0..n).map(|c| 0.002 * (c % 7 + 1) as f32).collect();
        QuantMatrix::from_parts(k, n, data, scales).unwrap()
    }

    /// The first `m` rows of `x`.
    fn top_rows(x: &Matrix, m: usize) -> Matrix {
        Matrix::from_vec(m, x.cols(), x.as_slice()[..m * x.cols()].to_vec()).unwrap()
    }

    /// The int8 GEMM is exact at the value extremes and on seeded sparse
    /// inputs, on every backend a plan can name and at every pool size,
    /// for every tile remainder (`m` = 1–13 against the three-row tile),
    /// odd and even `k` (the pad pair) on both sides of the 80/256/1024
    /// widths, and `n` on both sides of the 16-column block. Pinning −128
    /// weights against ±127 activations rules out saturating i16
    /// shortcuts (`maddubs`-style u8×i8 pair sums overflow there).
    #[test]
    fn extremes_match_reference_on_every_backend_and_pool_size() {
        let act = |v: f32| if v > 0.0 { v } else { 0.01 * v };
        let execs: Vec<(Backend, usize, Exec)> = Backend::candidates()
            .into_iter()
            .flat_map(|backend| {
                let plan = KernelPlan {
                    par_min_rows: 2,
                    ..KernelPlan::inline().with_backend(backend)
                };
                [
                    (backend, 0, Exec::from_plan(KernelPlan::inline().with_backend(backend))),
                    (backend, 1, Exec::from_plan(plan.with_threads(1))),
                    (backend, 2, Exec::from_plan(plan.with_threads(2))),
                    (backend, 8, Exec::from_plan(plan.with_threads(8))),
                ]
            })
            .collect();
        let mut scratch = QuantScratch::new();
        let mut out = Matrix::default();
        for k in [1usize, 2, 3, 79, 80, 255, 256, 257, 1024] {
            for n in [1usize, 15, 16, 17, 33, 128, 512] {
                let bias: Vec<f32> = (0..n).map(|c| (c as f32).cos()).collect();
                let inputs = [
                    ("extreme", extreme_activations(k), extreme_weights(k, n)),
                    ("sparse", sparse_activations(k), seeded_raw_weights(k, n)),
                ];
                for (input, x_all, w) in &inputs {
                    let expect = reference(x_all, w, &bias, act);
                    for m in 1..=x_all.rows() {
                        let x = top_rows(x_all, m);
                        let expect = top_rows(&expect, m);
                        for (backend, pool, exec) in &execs {
                            w.matmul_bias_act_into_exec(
                                &x,
                                &bias,
                                act,
                                &mut out,
                                &mut scratch,
                                exec,
                            )
                            .unwrap();
                            assert_eq!(
                                out, expect,
                                "{input} m={m} k={k} n={n} backend={backend} pool={pool}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Weights only the packed layout holds: every logical weight reads
    /// back through [`QuantMatrix::row_major`] in `from_parts` order,
    /// whatever padding `k` and `n` need, and the resident bytes count a
    /// narrow last block at its own width.
    #[test]
    fn packed_layout_round_trips_row_major() {
        for (k, n) in [(1, 1), (2, 16), (3, 17), (80, 33), (257, 15)] {
            let data: Vec<i8> = (0..k * n).map(|i| (i % 256) as u8 as i8).collect();
            let w = QuantMatrix::from_parts(k, n, data.clone(), vec![1.0; n]).unwrap();
            assert_eq!(w.row_major().collect::<Vec<_>>(), data, "k={k} n={n}");
            assert_eq!(w.stored_bytes(), k.next_multiple_of(2) * n + 4 * n, "k={k} n={n}");
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
