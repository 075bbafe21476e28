//! Per-row-scale int8 row store and coarse distance scans — the tensor
//! substrate of the sublinear NCM index (DESIGN.md §16).
//!
//! A [`QuantRowStore`] holds a pool of equal-length rows (class
//! prototypes and support exemplars) quantised with the same symmetric
//! per-row scheme `quant.rs` uses for activations: `scale = max_abs/127`
//! (1.0 for all-zero rows so dequantisation is exact for them), values
//! rounded and clamped to `[-127, 127]`. Alongside each row it caches
//! the integer squared norm `Σ qᵢ²`, so one i8×i8→i32 dot against a
//! quantised query reconstructs an approximate squared-L2 or cosine
//! distance with two multiplies — the *coarse* stage of the two-stage
//! search. The exact stage re-scores a handful of candidate rows in f32;
//! that happens in `magneto-core`, which owns the f32 vectors.
//!
//! The dot kernels dispatch per [`Backend`] like every other kernel
//! family (PR 6): integer accumulation is exact, so scalar, AVX2 and
//! NEON instances are bit-identical and need no accuracy gate.

use crate::kernels::{qdot4_dispatch, qdot_dispatch};
use crate::quant::MAX_QUANT_K;
use crate::tiling::Backend;
use crate::{Result, TensorError};

/// Quantise one f32 row with the per-row symmetric scheme, appending to
/// `out`; returns the row's scale. All-zero rows get scale 1.0.
pub fn quantize_row(row: &[f32], out: &mut Vec<i8>) -> f32 {
    let max_abs = row.iter().fold(0.0f32, |m, v| m.max(v.abs()));
    let scale = if max_abs > 0.0 { max_abs / 127.0 } else { 1.0 };
    out.extend(
        row.iter()
            .map(|&v| (v / scale).round().clamp(-127.0, 127.0) as i8),
    );
    scale
}

/// A pool of int8 rows with one scale and one integer squared norm per
/// row. Row order is caller-managed (swap-remove compaction); the store
/// itself is position-addressed.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QuantRowStore {
    dim: usize,
    data: Vec<i8>,
    scales: Vec<f32>,
    sqnorms: Vec<i32>,
}

impl QuantRowStore {
    /// An empty store of `dim`-wide rows.
    ///
    /// # Errors
    /// [`TensorError::EmptyInput`] for `dim == 0`; [`TensorError::Decode`]
    /// when `dim` exceeds the i32-accumulator-safe bound.
    pub fn new(dim: usize) -> Result<Self> {
        if dim == 0 {
            return Err(TensorError::EmptyInput("QuantRowStore::new"));
        }
        if dim > MAX_QUANT_K {
            return Err(TensorError::Decode(format!(
                "quantized row dim {dim} exceeds accumulator-safe bound {MAX_QUANT_K}"
            )));
        }
        Ok(Self {
            dim,
            data: Vec::new(),
            scales: Vec::new(),
            sqnorms: Vec::new(),
        })
    }

    /// Row width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.scales.len()
    }

    /// Whether the store holds no rows.
    pub fn is_empty(&self) -> bool {
        self.scales.is_empty()
    }

    /// Resident bytes of the quantised pool.
    pub fn bytes(&self) -> usize {
        self.data.len() + 4 * self.scales.len() + 4 * self.sqnorms.len()
    }

    /// Quantise `row` and append it; returns the new row's position.
    /// `row.len()` must equal [`Self::dim`].
    pub fn push(&mut self, row: &[f32]) -> usize {
        debug_assert_eq!(row.len(), self.dim);
        let scale = quantize_row(row, &mut self.data);
        self.finish_push(scale)
    }

    /// Append an already-quantised row (e.g. decoded from a bundle) with
    /// its scale; the squared norm is recomputed. `q.len()` must equal
    /// [`Self::dim`].
    pub fn push_quantized(&mut self, q: &[i8], scale: f32) -> usize {
        debug_assert_eq!(q.len(), self.dim);
        self.data.extend_from_slice(q);
        self.finish_push(scale)
    }

    fn finish_push(&mut self, scale: f32) -> usize {
        let i = self.scales.len();
        let q = &self.data[i * self.dim..(i + 1) * self.dim];
        self.sqnorms.push(q.iter().map(|&v| {
            let v = i32::from(v);
            v * v
        }).sum());
        self.scales.push(scale);
        i
    }

    /// Re-quantise row `i` from new f32 contents in place.
    pub fn replace(&mut self, i: usize, row: &[f32]) {
        debug_assert_eq!(row.len(), self.dim);
        let mut tmp = Vec::with_capacity(self.dim);
        let scale = quantize_row(row, &mut tmp);
        self.data[i * self.dim..(i + 1) * self.dim].copy_from_slice(&tmp);
        self.scales[i] = scale;
        self.sqnorms[i] = tmp.iter().map(|&v| {
            let v = i32::from(v);
            v * v
        }).sum();
    }

    /// Remove row `i` by moving the last row into its slot (O(dim)).
    /// The caller owns any position bookkeeping this invalidates.
    pub fn swap_remove(&mut self, i: usize) {
        let last = self.len() - 1;
        if i != last {
            let (head, tail) = self.data.split_at_mut(last * self.dim);
            head[i * self.dim..(i + 1) * self.dim].copy_from_slice(&tail[..self.dim]);
        }
        self.data.truncate(last * self.dim);
        self.scales.swap_remove(i);
        self.sqnorms.swap_remove(i);
    }

    /// The quantised contents of row `i`.
    pub fn row_q(&self, i: usize) -> &[i8] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// The scale of row `i`.
    pub fn scale(&self, i: usize) -> f32 {
        self.scales[i]
    }

    /// Dequantise row `i` into `out` (`out.len()` must equal the dim).
    pub fn dequantize_into(&self, i: usize, out: &mut [f32]) {
        debug_assert_eq!(out.len(), self.dim);
        let scale = self.scales[i];
        for (o, &q) in out.iter_mut().zip(self.row_q(i).iter()) {
            *o = f32::from(q) * scale;
        }
    }

    /// Coarse squared-L2 distances from a quantised query to every row,
    /// written into `out` (cleared and refilled):
    /// `‖q‖² − 2·sq·sᵢ·⟨q,rᵢ⟩ + sᵢ²·‖rᵢ‖²`, all norms exact in the
    /// quantised domain, clamped at 0 so downstream `sqrt` never sees a
    /// rounding-induced negative. Rows are scanned in blocks of four
    /// sharing the query loads.
    pub fn coarse_sq_l2(
        &self,
        backend: Backend,
        q: &[i8],
        q_scale: f32,
        q_sqnorm: i32,
        out: &mut Vec<f32>,
    ) {
        debug_assert_eq!(q.len(), self.dim);
        let qn2 = q_scale * q_scale * q_sqnorm as f32;
        self.scan(backend, q, out, |i, dot| {
            let s = self.scales[i];
            let d = qn2 - 2.0 * (q_scale * s) * dot as f32 + s * s * self.sqnorms[i] as f32;
            d.max(0.0)
        });
    }

    /// Coarse cosine distances from a quantised query to every row,
    /// written into `out` (cleared and refilled). Near-zero norms yield
    /// distance 1.0, mirroring [`crate::vector::cosine_similarity`]'s
    /// zero-vector convention; results are clamped to `[0, 2]`.
    pub fn coarse_cosine(
        &self,
        backend: Backend,
        q: &[i8],
        q_scale: f32,
        q_sqnorm: i32,
        out: &mut Vec<f32>,
    ) {
        debug_assert_eq!(q.len(), self.dim);
        let qn = q_scale * (q_sqnorm as f32).sqrt();
        self.scan(backend, q, out, |i, dot| {
            let rn = self.scales[i] * (self.sqnorms[i] as f32).sqrt();
            if qn < 1e-12 || rn < 1e-12 {
                1.0
            } else {
                let sim = (q_scale * self.scales[i] * dot as f32) / (qn * rn);
                (1.0 - sim).clamp(0.0, 2.0)
            }
        });
    }

    /// Shared scan driver: blocked qdot4 over full 4-row groups, qdot
    /// tail, `score(i, dot)` epilogue per row.
    fn scan(
        &self,
        backend: Backend,
        q: &[i8],
        out: &mut Vec<f32>,
        score: impl Fn(usize, i32) -> f32,
    ) {
        let n = self.len();
        out.clear();
        out.reserve(n);
        let d = self.dim;
        let mut i = 0;
        while i + 4 <= n {
            let at = i * d;
            let dots = qdot4_dispatch(
                backend,
                q,
                &self.data[at..at + d],
                &self.data[at + d..at + 2 * d],
                &self.data[at + 2 * d..at + 3 * d],
                &self.data[at + 3 * d..at + 4 * d],
            );
            for (r, &dot) in dots.iter().enumerate() {
                out.push(score(i + r, dot));
            }
            i += 4;
        }
        while i < n {
            let dot = qdot_dispatch(backend, q, self.row_q(i));
            out.push(score(i, dot));
            i += 1;
        }
    }
}

/// Quantise a query row for coarse scans: appends to `out` (not
/// cleared) and returns `(scale, integer squared norm)`.
pub fn quantize_query(row: &[f32], out: &mut Vec<i8>) -> (f32, i32) {
    let start = out.len();
    let scale = quantize_row(row, out);
    let sqnorm = out[start..]
        .iter()
        .map(|&v| {
            let v = i32::from(v);
            v * v
        })
        .sum();
    (scale, sqnorm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeededRng;
    use crate::vector;

    fn random_row(rng: &mut SeededRng, dim: usize, span: f32) -> Vec<f32> {
        (0..dim).map(|_| rng.uniform(-span, span)).collect()
    }

    #[test]
    fn quantize_roundtrip_error_bounded() {
        let mut rng = SeededRng::new(11);
        for dim in [1usize, 7, 8, 17, 64] {
            let row = random_row(&mut rng, dim, 4.0);
            let mut store = QuantRowStore::new(dim).unwrap();
            store.push(&row);
            let mut back = vec![0.0f32; dim];
            store.dequantize_into(0, &mut back);
            let tol = store.scale(0) * 0.5 + 1e-6;
            for (a, b) in row.iter().zip(back.iter()) {
                assert!((a - b).abs() <= tol, "dim {dim}: {a} vs {b} (tol {tol})");
            }
        }
    }

    #[test]
    fn zero_row_dequantizes_exactly() {
        let mut store = QuantRowStore::new(5).unwrap();
        store.push(&[0.0; 5]);
        assert_eq!(store.scale(0), 1.0);
        let mut back = vec![9.0f32; 5];
        store.dequantize_into(0, &mut back);
        assert_eq!(back, vec![0.0; 5]);
    }

    #[test]
    fn invalid_dims_rejected() {
        assert!(QuantRowStore::new(0).is_err());
        assert!(QuantRowStore::new(MAX_QUANT_K + 1).is_err());
    }

    #[test]
    fn push_quantized_matches_push() {
        let mut rng = SeededRng::new(12);
        let row = random_row(&mut rng, 33, 2.0);
        let mut a = QuantRowStore::new(33).unwrap();
        a.push(&row);
        let mut b = QuantRowStore::new(33).unwrap();
        b.push_quantized(a.row_q(0), a.scale(0));
        assert_eq!(a, b);
    }

    #[test]
    fn swap_remove_moves_last_row() {
        let mut store = QuantRowStore::new(3).unwrap();
        store.push(&[1.0, 0.0, 0.0]);
        store.push(&[0.0, 1.0, 0.0]);
        store.push(&[0.0, 0.0, 1.0]);
        store.swap_remove(0);
        assert_eq!(store.len(), 2);
        let mut row = vec![0.0f32; 3];
        store.dequantize_into(0, &mut row);
        assert_eq!(row, vec![0.0, 0.0, 1.0]);
        store.dequantize_into(1, &mut row);
        assert_eq!(row, vec![0.0, 1.0, 0.0]);
        // Removing the last row needs no move.
        store.swap_remove(1);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn replace_requantizes_in_place() {
        let mut store = QuantRowStore::new(4).unwrap();
        store.push(&[1.0, 2.0, 3.0, 4.0]);
        store.push(&[5.0, 6.0, 7.0, 8.0]);
        store.replace(0, &[-4.0, -3.0, -2.0, -1.0]);
        let mut fresh = QuantRowStore::new(4).unwrap();
        fresh.push(&[-4.0, -3.0, -2.0, -1.0]);
        assert_eq!(store.row_q(0), fresh.row_q(0));
        assert_eq!(store.scale(0), fresh.scale(0));
        let mut row = vec![0.0f32; 4];
        store.dequantize_into(1, &mut row);
        assert!((row[0] - 5.0).abs() < 0.05);
    }

    #[test]
    fn coarse_sq_l2_tracks_exact_distance() {
        let mut rng = SeededRng::new(13);
        for dim in [1usize, 2, 8, 31, 64, 80] {
            let mut store = QuantRowStore::new(dim).unwrap();
            let rows: Vec<Vec<f32>> = (0..13).map(|_| random_row(&mut rng, dim, 3.0)).collect();
            for r in &rows {
                store.push(r);
            }
            let query = random_row(&mut rng, dim, 3.0);
            let mut q = Vec::new();
            let (qs, qn) = quantize_query(&query, &mut q);
            let mut coarse = Vec::new();
            store.coarse_sq_l2(Backend::Scalar, &q, qs, qn, &mut coarse);
            assert_eq!(coarse.len(), rows.len());
            for (row, &c) in rows.iter().zip(coarse.iter()) {
                let exact = vector::squared_euclidean(&query, row);
                // Per-element quantisation error is ≤ scale/2; the
                // squared-distance error scales with dim and magnitude.
                let tol = 0.05 * dim as f32 + 0.05 * exact + 1e-3;
                assert!((c - exact).abs() <= tol, "dim {dim}: {c} vs {exact}");
                assert!(c >= 0.0);
            }
        }
    }

    #[test]
    fn coarse_cosine_tracks_exact_distance_and_handles_zero() {
        let mut rng = SeededRng::new(14);
        let dim = 48;
        let mut store = QuantRowStore::new(dim).unwrap();
        let rows: Vec<Vec<f32>> = (0..9).map(|_| random_row(&mut rng, dim, 2.0)).collect();
        for r in &rows {
            store.push(r);
        }
        store.push(&vec![0.0; dim]);
        let query = random_row(&mut rng, dim, 2.0);
        let mut q = Vec::new();
        let (qs, qn) = quantize_query(&query, &mut q);
        let mut coarse = Vec::new();
        store.coarse_cosine(Backend::Scalar, &q, qs, qn, &mut coarse);
        for (row, &c) in rows.iter().zip(coarse.iter()) {
            let exact = vector::cosine_distance(&query, row);
            assert!((c - exact).abs() <= 0.05, "{c} vs {exact}");
            assert!((0.0..=2.0).contains(&c));
        }
        // The all-zero row follows the zero-vector convention.
        assert_eq!(coarse[rows.len()], 1.0);
    }

    #[test]
    fn qdot4_matches_four_qdots_over_ragged_dims() {
        let mut rng = SeededRng::new(15);
        for dim in [1usize, 3, 7, 8, 9, 15, 16, 17, 33, 64, 100] {
            let mut store = QuantRowStore::new(dim).unwrap();
            for _ in 0..4 {
                store.push(&random_row(&mut rng, dim, 5.0));
            }
            let query = random_row(&mut rng, dim, 5.0);
            let mut q = Vec::new();
            quantize_query(&query, &mut q);
            let block = qdot4_dispatch(
                Backend::Scalar,
                &q,
                store.row_q(0),
                store.row_q(1),
                store.row_q(2),
                store.row_q(3),
            );
            for (r, &dot) in block.iter().enumerate() {
                assert_eq!(dot, qdot_dispatch(Backend::Scalar, &q, store.row_q(r)));
            }
        }
    }

    #[test]
    fn simd_qdot_bit_identical_to_scalar() {
        for simd in Backend::candidates() {
            simd_qdot_matches_scalar(simd);
        }
    }

    fn simd_qdot_matches_scalar(simd: Backend) {
        let mut rng = SeededRng::new(16);
        for dim in [1usize, 7, 8, 15, 16, 17, 31, 32, 33, 64, 80, 127, 128] {
            let mut store = QuantRowStore::new(dim).unwrap();
            for _ in 0..5 {
                store.push(&random_row(&mut rng, dim, 6.0));
            }
            let query = random_row(&mut rng, dim, 6.0);
            let mut q = Vec::new();
            let (qs, qn) = quantize_query(&query, &mut q);
            for r in 0..5 {
                assert_eq!(
                    qdot_dispatch(Backend::Scalar, &q, store.row_q(r)),
                    qdot_dispatch(simd, &q, store.row_q(r)),
                    "qdot dim {dim} row {r}"
                );
            }
            let s4 = qdot4_dispatch(
                Backend::Scalar,
                &q,
                store.row_q(0),
                store.row_q(1),
                store.row_q(2),
                store.row_q(3),
            );
            let v4 = qdot4_dispatch(
                simd,
                &q,
                store.row_q(0),
                store.row_q(1),
                store.row_q(2),
                store.row_q(3),
            );
            assert_eq!(s4, v4, "qdot4 dim {dim}");
            // The coarse scans (integer dots + per-row f32 epilogue in
            // scan order) must also match bitwise across backends.
            let mut a = Vec::new();
            let mut b = Vec::new();
            store.coarse_sq_l2(Backend::Scalar, &q, qs, qn, &mut a);
            store.coarse_sq_l2(simd, &q, qs, qn, &mut b);
            assert_eq!(a, b, "coarse_sq_l2 dim {dim}");
            store.coarse_cosine(Backend::Scalar, &q, qs, qn, &mut a);
            store.coarse_cosine(simd, &q, qs, qn, &mut b);
            assert_eq!(a, b, "coarse_cosine dim {dim}");
        }
    }
}
