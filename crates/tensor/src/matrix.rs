//! Row-major dense `f32` matrix.
//!
//! [`Matrix`] is the single tensor type of the MAGNETO stack. Batches of
//! feature vectors are matrices with one sample per row; layer weights are
//! `(in, out)` matrices so a forward pass is `x.matmul(w)`.

use crate::error::TensorError;
use crate::kernels::{self, fma};
use crate::pool::{Exec, SendPtr};
use crate::Result;
use serde::{Deserialize, Serialize};

/// A dense, row-major matrix of `f32`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Default for Matrix {
    /// An empty `0 x 0` matrix — the natural seed for `_into` outputs
    /// and [`crate::workspace::Workspace`] scratch buffers.
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Creates a matrix from a row-major buffer.
    ///
    /// # Errors
    /// Returns [`TensorError::InvalidDimensions`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(TensorError::InvalidDimensions {
                rows,
                cols,
                len: data.len(),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a single-row matrix from a slice.
    pub fn from_row(row: &[f32]) -> Self {
        Matrix {
            rows: 1,
            cols: row.len(),
            data: row.to_vec(),
        }
    }

    /// Creates a matrix by stacking equal-length rows.
    ///
    /// # Errors
    /// Returns [`TensorError::InvalidDimensions`] if the rows have differing
    /// lengths.
    pub fn from_rows(rows: &[Vec<f32>]) -> Result<Self> {
        if rows.is_empty() {
            return Ok(Matrix::zeros(0, 0));
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            if r.len() != cols {
                return Err(TensorError::InvalidDimensions {
                    rows: rows.len(),
                    cols,
                    len: r.len(),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the matrix holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow the underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrow the underlying row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume the matrix, returning its row-major buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element access.
    ///
    /// # Panics
    /// Panics in debug builds if out of bounds (release builds panic via
    /// slice indexing).
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Checked element access.
    ///
    /// # Errors
    /// Returns [`TensorError::IndexOutOfBounds`] when `(r, c)` is outside
    /// the matrix.
    pub fn try_get(&self, r: usize, c: usize) -> Result<f32> {
        if r >= self.rows || c >= self.cols {
            return Err(TensorError::IndexOutOfBounds {
                index: (r, c),
                shape: (self.rows, self.cols),
            });
        }
        Ok(self.data[r * self.cols + c])
    }

    /// Element write.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r` as a slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copy column `c` into a new vector.
    pub fn col(&self, c: usize) -> Vec<f32> {
        (0..self.rows).map(|r| self.get(r, c)).collect()
    }

    /// Iterate over rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Matrix product `self * rhs`.
    ///
    /// Uses the i-k-j loop order so the inner loop walks both `rhs` and the
    /// output row contiguously — the classic cache-friendly ordering that
    /// the Rust compiler auto-vectorises well.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] unless
    /// `self.cols == rhs.rows`.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_into(rhs, &mut out)?;
        Ok(out)
    }

    /// Matrix product `self * rhs` written into `out`, reusing `out`'s
    /// allocation when it is already large enough.
    ///
    /// Dispatches on batch size. Small inputs (fewer than
    /// [`TILED_MIN_ROWS`] rows, including the per-sample `rows == 1`
    /// case) run an axpy kernel that skips zero `self` entries — post-ReLU
    /// activations are ~50% zeros, so the skip removes whole row
    /// updates. Batched inputs run a broadcast-FMA register-tiled
    /// kernel, which trades the sparsity skip for
    /// keeping a 4×32 output tile in vector registers across the whole
    /// `k` loop. Both paths accumulate `k` contributions in ascending
    /// order, so results match [`Matrix::matmul_naive`] exactly (up to
    /// the sign of zero: the tiled path adds exact `±0.0` terms where
    /// the reference skips zero `a` entries).
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] unless
    /// `self.cols == rhs.rows`.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) -> Result<()> {
        self.matmul_into_exec(rhs, out, &Exec::inline())
    }

    /// Plan-driven [`Matrix::matmul_into`]: the dispatch thresholds and
    /// backend come from `exec`'s [`KernelPlan`](crate::plan::KernelPlan),
    /// and the output is split into row panels across `exec`'s compute
    /// pool.
    ///
    /// Panels are aligned to the 4-row tile height, so exactly the same
    /// rows take the tiled path vs. the zero-skip remainder as in a
    /// sequential run, and each output element is accumulated by exactly
    /// one thread in ascending-`k` order — the result is bit-identical
    /// at every thread count for a fixed plan. With [`Exec::inline`]
    /// this *is* the PR-1 sequential kernel.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] unless
    /// `self.cols == rhs.rows`.
    pub fn matmul_into_exec(&self, rhs: &Matrix, out: &mut Matrix, exec: &Exec) -> Result<()> {
        if self.cols != rhs.rows {
            return Err(TensorError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        out.resize(self.rows, rhs.cols);
        let plan = exec.plan();
        let n = rhs.cols;
        // Kernel choice depends on the *total* batch size, never on a
        // panel's size — another thread-count invariance requirement.
        let tiled = self.rows >= plan.tiled_min_rows;
        let out_ptr = SendPtr::new(out.data.as_mut_ptr());
        exec.run_row_panels(self.rows, if tiled { TILE_ROWS } else { 1 }, &|r0, r1| {
            // SAFETY: `run_row_panels` hands out disjoint `[r0, r1)` row
            // ranges covering `0..rows`, so the panels never alias and
            // the pointer stays valid for the duration of the dispatch.
            let panel = unsafe {
                std::slice::from_raw_parts_mut(out_ptr.get().add(r0 * n), (r1 - r0) * n)
            };
            if tiled {
                kernels::matmul_tiled_panel(
                    plan.backend, &self.data, self.cols, &rhs.data, n, r0, r1, panel,
                );
            } else {
                kernels::matmul_axpy_panel(
                    plan.backend, &self.data, self.cols, &rhs.data, n, r0, r1, panel,
                );
            }
        });
        Ok(())
    }

    /// Fused `act(self * rhs + bias)` written into `out` — the whole
    /// dense-layer forward in one pass over the output. The bias add and
    /// activation run per row panel while it is still cache-hot, after
    /// that row's `k` accumulation has fully finished, so the float
    /// operation sequence per element (`acc`, `acc + bias`, `act(·)`) is
    /// exactly the one the separate matmul → bias → map passes produce.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] unless
    /// `self.cols == rhs.rows` and `bias.len() == rhs.cols`.
    pub fn matmul_bias_act_into_exec<F>(
        &self,
        rhs: &Matrix,
        bias: &[f32],
        act: F,
        out: &mut Matrix,
        exec: &Exec,
    ) -> Result<()>
    where
        F: Fn(f32) -> f32 + Sync,
    {
        if self.cols != rhs.rows {
            return Err(TensorError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        if bias.len() != rhs.cols {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_bias_act",
                lhs: self.shape(),
                rhs: (1, bias.len()),
            });
        }
        out.resize(self.rows, rhs.cols);
        let plan = exec.plan();
        let n = rhs.cols;
        let tiled = self.rows >= plan.tiled_min_rows;
        let out_ptr = SendPtr::new(out.data.as_mut_ptr());
        exec.run_row_panels(self.rows, if tiled { TILE_ROWS } else { 1 }, &|r0, r1| {
            // SAFETY: disjoint row panels; see `matmul_into_exec`.
            let panel = unsafe {
                std::slice::from_raw_parts_mut(out_ptr.get().add(r0 * n), (r1 - r0) * n)
            };
            if tiled {
                kernels::matmul_tiled_panel(
                    plan.backend, &self.data, self.cols, &rhs.data, n, r0, r1, panel,
                );
            } else {
                kernels::matmul_axpy_panel(
                    plan.backend, &self.data, self.cols, &rhs.data, n, r0, r1, panel,
                );
            }
            if n > 0 {
                for row in panel.chunks_exact_mut(n) {
                    for (o, &b) in row.iter_mut().zip(bias.iter()) {
                        *o = act(*o + b);
                    }
                }
            }
        });
        Ok(())
    }

    /// Reference i-k-j matmul with no blocking: the oracle the blocked
    /// kernel is property-tested against.
    ///
    /// Always compiled (not `#[cfg(test)]`) so the integration property
    /// tests in `tests/` can reach it; hidden from docs because production
    /// code should call [`Matrix::matmul_into`].
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] unless
    /// `self.cols == rhs.rows`.
    #[doc(hidden)]
    pub fn matmul_naive(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(TensorError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            let a_row = &self.data[i * self.cols..(i + 1) * self.cols];
            let out_row = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
            for (k, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let b_row = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
                for (o, &b) in out_row.iter_mut().zip(b_row.iter()) {
                    *o = fma(a, b, *o);
                }
            }
        }
        Ok(out)
    }

    /// Matrix product `self * rhs^T` without materialising the transpose.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] unless
    /// `self.cols == rhs.cols`.
    pub fn matmul_transposed(&self, rhs: &Matrix) -> Result<Matrix> {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_transpose_into(rhs, &mut out)?;
        Ok(out)
    }

    /// Matrix product `self * rhs^T` written into `out`, reusing `out`'s
    /// allocation. Both operands are walked row-major, so every inner
    /// loop is a contiguous dot product; rows are processed as 2×4
    /// register tiles with eight-lane accumulators, which keeps the whole
    /// tile in vector registers and loads each operand row once per four
    /// (resp. two) outputs. This is the batched-forward fast path: with
    /// the weights pre-transposed, `x · Wᵀᵀ` runs here instead of the
    /// store-bound axpy kernel.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] unless
    /// `self.cols == rhs.cols`.
    pub fn matmul_transpose_into(&self, rhs: &Matrix, out: &mut Matrix) -> Result<()> {
        self.matmul_transpose_into_exec(rhs, out, &Exec::inline())
    }

    /// Parallel [`Matrix::matmul_transpose_into`]: output rows are split
    /// into panels aligned to the kernel's 2-row pairing across `exec`'s
    /// pool, so the same rows form register-tile pairs as in a
    /// sequential run and the result is bit-identical at any thread
    /// count.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] unless
    /// `self.cols == rhs.cols`.
    pub fn matmul_transpose_into_exec(
        &self,
        rhs: &Matrix,
        out: &mut Matrix,
        exec: &Exec,
    ) -> Result<()> {
        if self.cols != rhs.cols {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_transposed",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        out.resize(self.rows, rhs.rows);
        let n = rhs.rows;
        let out_ptr = SendPtr::new(out.data.as_mut_ptr());
        exec.run_row_panels(self.rows, 2, &|r0, r1| {
            // SAFETY: disjoint row panels; see `matmul_into_exec`.
            let panel = unsafe {
                std::slice::from_raw_parts_mut(out_ptr.get().add(r0 * n), (r1 - r0) * n)
            };
            kernels::matmul_transpose_panel(
                exec.plan().backend,
                &self.data,
                self.cols,
                &rhs.data,
                n,
                r0,
                r1,
                panel,
            );
        });
        Ok(())
    }

    /// Matrix product `self^T * rhs` written into `out`, reusing `out`'s
    /// allocation.
    ///
    /// This is the gradient kernel: `dw = input^T * delta`. It packs
    /// `self^T` and runs the packed product on
    /// [`Matrix::matmul_into_exec`], so output element `(i, j)` is
    /// accumulated by fma over the shared rows `r` in ascending order —
    /// the order of an r-outer scatter, computed with register tiles
    /// instead of re-streaming the output once per row.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] unless
    /// `self.rows == rhs.rows`.
    pub fn transpose_matmul_into(&self, rhs: &Matrix, out: &mut Matrix) -> Result<()> {
        self.transpose_matmul_into_exec(rhs, out, &Exec::inline())
    }

    /// Parallel [`Matrix::transpose_matmul_into`]: the packed product
    /// splits its output rows (columns of `self`) across `exec`'s pool
    /// exactly as [`Matrix::matmul_into_exec`] does, so the result is
    /// bit-identical at any thread count. The pack buffer is allocated
    /// per call; hot loops use [`Matrix::transpose_matmul_into_packed`].
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] unless
    /// `self.rows == rhs.rows`.
    pub fn transpose_matmul_into_exec(
        &self,
        rhs: &Matrix,
        out: &mut Matrix,
        exec: &Exec,
    ) -> Result<()> {
        self.transpose_matmul_into_packed(rhs, out, &mut Matrix::default(), exec)
    }

    /// [`Matrix::transpose_matmul_into_exec`] packing `self^T` into the
    /// caller's `packed` matrix (its contents are overwritten), so a hot
    /// loop reuses one allocation for the pack.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] unless
    /// `self.rows == rhs.rows`.
    pub fn transpose_matmul_into_packed(
        &self,
        rhs: &Matrix,
        out: &mut Matrix,
        packed: &mut Matrix,
        exec: &Exec,
    ) -> Result<()> {
        if self.rows != rhs.rows {
            return Err(TensorError::ShapeMismatch {
                op: "transpose_matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        self.transpose_into(packed);
        packed.matmul_into_exec(rhs, out, exec)
    }

    /// Reshape in place to `rows x cols`, zero-filling every element and
    /// reusing the existing allocation when it is large enough.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Make `self` an element-for-element copy of `src`, reusing `self`'s
    /// allocation when it is large enough.
    pub fn copy_from(&mut self, src: &Matrix) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.transpose_into(&mut out);
        out
    }

    /// Transpose written into `out`, reusing `out`'s allocation — the
    /// `xᵀ` pack of [`Matrix::transpose_matmul_into_packed`].
    ///
    /// Copies square blocks of [`TRANSPOSE_BLOCK`] rows and columns,
    /// reading each source row segment contiguously, so the destination
    /// rows a block writes stay in cache instead of every write striding
    /// a whole column. It only moves values, so the blocking changes no
    /// bit.
    pub fn transpose_into(&self, out: &mut Matrix) {
        const B: usize = TRANSPOSE_BLOCK;
        let (rows, cols) = (self.rows, self.cols);
        out.resize(cols, rows);
        for r0 in (0..rows).step_by(B) {
            let r1 = (r0 + B).min(rows);
            for c0 in (0..cols).step_by(B) {
                let c1 = (c0 + B).min(cols);
                for r in r0..r1 {
                    let src = &self.data[r * cols + c0..r * cols + c1];
                    for (c, &v) in (c0..c1).zip(src) {
                        out.data[c * rows + r] = v;
                    }
                }
            }
        }
    }

    /// Element-wise sum `self + rhs`.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn add(&self, rhs: &Matrix) -> Result<Matrix> {
        self.zip_with(rhs, "add", |a, b| a + b)
    }

    /// Element-wise difference `self - rhs`.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn sub(&self, rhs: &Matrix) -> Result<Matrix> {
        self.zip_with(rhs, "sub", |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn hadamard(&self, rhs: &Matrix) -> Result<Matrix> {
        self.zip_with(rhs, "hadamard", |a, b| a * b)
    }

    fn zip_with(
        &self,
        rhs: &Matrix,
        op: &'static str,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<Matrix> {
        if self.shape() != rhs.shape() {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// In-place element-wise `self += rhs * scale` (the AXPY of optimiser
    /// updates).
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn add_scaled_inplace(&mut self, rhs: &Matrix, scale: f32) -> Result<()> {
        if self.shape() != rhs.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "add_scaled_inplace",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        for (a, &b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += b * scale;
        }
        Ok(())
    }

    /// Multiply every element by `s`, returning a new matrix.
    pub fn scale(&self, s: f32) -> Matrix {
        self.map(|v| v * s)
    }

    /// In-place scalar multiply.
    pub fn scale_inplace(&mut self, s: f32) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Apply `f` to every element, returning a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Apply `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Add `row` (length == `cols`) to every row; the bias-broadcast of a
    /// dense layer.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] if `row.len() != self.cols`.
    pub fn add_row_broadcast(&self, row: &[f32]) -> Result<Matrix> {
        if row.len() != self.cols {
            return Err(TensorError::ShapeMismatch {
                op: "add_row_broadcast",
                lhs: self.shape(),
                rhs: (1, row.len()),
            });
        }
        let mut out = self.clone();
        for r in 0..out.rows {
            for (v, &b) in out.row_mut(r).iter_mut().zip(row.iter()) {
                *v += b;
            }
        }
        Ok(out)
    }

    /// Sum over rows, returning a length-`cols` vector (bias gradients).
    pub fn sum_rows(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.cols];
        for r in 0..self.rows {
            for (o, &v) in out.iter_mut().zip(self.row(r).iter()) {
                *o += v;
            }
        }
        out
    }

    /// Mean over rows, returning a length-`cols` vector (class prototypes).
    ///
    /// # Errors
    /// Returns [`TensorError::EmptyInput`] when the matrix has no rows.
    pub fn mean_rows(&self) -> Result<Vec<f32>> {
        if self.rows == 0 {
            return Err(TensorError::EmptyInput("mean_rows"));
        }
        let mut out = self.sum_rows();
        let inv = 1.0 / self.rows as f32;
        for v in &mut out {
            *v *= inv;
        }
        Ok(out)
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Largest absolute element (`0.0` for an empty matrix).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
    }

    /// Select a subset of rows into a new matrix.
    ///
    /// # Errors
    /// Returns [`TensorError::IndexOutOfBounds`] if any index is out of
    /// range.
    pub fn select_rows(&self, indices: &[usize]) -> Result<Matrix> {
        let mut data = Vec::with_capacity(indices.len() * self.cols);
        for &i in indices {
            if i >= self.rows {
                return Err(TensorError::IndexOutOfBounds {
                    index: (i, 0),
                    shape: self.shape(),
                });
            }
            data.extend_from_slice(self.row(i));
        }
        Ok(Matrix {
            rows: indices.len(),
            cols: self.cols,
            data,
        })
    }

    /// Vertically stack two matrices with the same column count.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] if column counts differ.
    pub fn vstack(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.cols && !self.is_empty() && !other.is_empty() {
            return Err(TensorError::ShapeMismatch {
                op: "vstack",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        if self.is_empty() {
            return Ok(other.clone());
        }
        if other.is_empty() {
            return Ok(self.clone());
        }
        let mut data = Vec::with_capacity(self.data.len() + other.data.len());
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Ok(Matrix {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        })
    }

    /// L2-normalise every row in place (rows with ~zero norm are left
    /// untouched). Used to put embeddings on the unit hypersphere before
    /// contrastive/NCM operations.
    pub fn l2_normalize_rows(&mut self) {
        for r in 0..self.rows {
            let row = self.row_mut(r);
            let norm = row.iter().map(|v| v * v).sum::<f32>().sqrt();
            if norm > 1e-12 {
                let inv = 1.0 / norm;
                for v in row {
                    *v *= inv;
                }
            }
        }
    }

    /// `true` if every element is finite. Training loops use this as a
    /// cheap divergence guard.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

/// Default minimum row count at which [`Matrix::matmul_into`] routes to
/// the register-tiled kernel. The tile forgoes the zero-skip that
/// post-ReLU activation sparsity makes profitable, so it needs enough
/// rows for register reuse to amortise the extra arithmetic; below this
/// the zero-skipping axpy kernel wins and stays on the exact per-sample
/// code path. The live threshold is `KernelPlan::tiled_min_rows`, which
/// every served plan leaves at this value; tests move it to force one
/// kernel path.
pub const TILED_MIN_ROWS: usize = 16;

/// Column width of the register tile in the batched kernel; columns past
/// the last full strip take the zero-skipping axpy tail.
pub(crate) const TILE_COLS: usize = 32;

/// Depth of the k-panel of `rhs` the batched kernel packs and keeps
/// L1-resident between row tiles. Each panel continues the same
/// ascending-`k` accumulation, so the depth moves no bits.
pub(crate) const PANEL_K: usize = 256;

/// Side of the square blocks [`Matrix::transpose_into`] copies: a
/// 32 × 32 block is 4 KB of source and 4 KB of destination, well inside
/// L1.
const TRANSPOSE_BLOCK: usize = 32;

/// Row height of the register tile in [`Matrix::matmul_into_exec`]'s
/// batched kernel. Row panels handed to pool pieces are aligned to this
/// so tile membership is identical to a sequential run. The micro-kernel
/// bodies themselves live in [`crate::kernels`], one instance per
/// [`Backend`](crate::tiling::Backend).
pub(crate) const TILE_ROWS: usize = 4;

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, data: &[f32]) -> Matrix {
        Matrix::from_vec(rows, cols, data.to_vec()).unwrap()
    }

    #[test]
    fn zeros_and_shape() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert_eq!(z.len(), 6);
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn filled_value() {
        let f = Matrix::filled(2, 2, 7.5);
        assert!(f.as_slice().iter().all(|&v| v == 7.5));
    }

    #[test]
    fn identity_matmul_is_noop() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i).unwrap(), a);
        assert_eq!(i.matmul(&a).unwrap(), a);
    }

    #[test]
    fn from_vec_rejects_bad_len() {
        let err = Matrix::from_vec(2, 2, vec![1.0; 3]).unwrap_err();
        assert!(matches!(err, TensorError::InvalidDimensions { len: 3, .. }));
    }

    #[test]
    fn from_rows_builds_and_rejects_ragged() {
        let ok = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(ok.shape(), (2, 2));
        assert!(Matrix::from_rows(&[vec![1.0], vec![2.0, 3.0]]).is_err());
        assert_eq!(Matrix::from_rows(&[]).unwrap().shape(), (0, 0));
    }

    #[test]
    fn matmul_known_result() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, m(2, 2, &[58.0, 64.0, 139.0, 154.0]));
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.matmul(&b),
            Err(TensorError::ShapeMismatch { op: "matmul", .. })
        ));
    }

    #[test]
    fn matmul_transposed_matches_explicit_transpose() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(4, 3, &[1.0; 12]);
        let via_t = a.matmul(&b.transpose()).unwrap();
        let direct = a.matmul_transposed(&b).unwrap();
        assert_eq!(via_t, direct);
    }

    #[test]
    fn transpose_involution() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn add_sub_hadamard() {
        let a = m(1, 3, &[1.0, 2.0, 3.0]);
        let b = m(1, 3, &[4.0, 5.0, 6.0]);
        assert_eq!(a.add(&b).unwrap(), m(1, 3, &[5.0, 7.0, 9.0]));
        assert_eq!(b.sub(&a).unwrap(), m(1, 3, &[3.0, 3.0, 3.0]));
        assert_eq!(a.hadamard(&b).unwrap(), m(1, 3, &[4.0, 10.0, 18.0]));
        assert!(a.add(&Matrix::zeros(2, 2)).is_err());
    }

    #[test]
    fn add_scaled_inplace_is_axpy() {
        let mut a = m(1, 2, &[1.0, 1.0]);
        let g = m(1, 2, &[2.0, 4.0]);
        a.add_scaled_inplace(&g, -0.5).unwrap();
        assert_eq!(a, m(1, 2, &[0.0, -1.0]));
        assert!(a.add_scaled_inplace(&Matrix::zeros(3, 3), 1.0).is_err());
    }

    #[test]
    fn scale_and_map() {
        let a = m(1, 2, &[1.0, -2.0]);
        assert_eq!(a.scale(2.0), m(1, 2, &[2.0, -4.0]));
        assert_eq!(a.map(f32::abs), m(1, 2, &[1.0, 2.0]));
        let mut b = a.clone();
        b.scale_inplace(3.0);
        assert_eq!(b, m(1, 2, &[3.0, -6.0]));
        let mut c = a;
        c.map_inplace(|v| v + 1.0);
        assert_eq!(c, m(1, 2, &[2.0, -1.0]));
    }

    #[test]
    fn row_broadcast_and_sums() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let b = a.add_row_broadcast(&[10.0, 20.0]).unwrap();
        assert_eq!(b, m(2, 2, &[11.0, 22.0, 13.0, 24.0]));
        assert!(a.add_row_broadcast(&[1.0]).is_err());
        assert_eq!(a.sum_rows(), vec![4.0, 6.0]);
        assert_eq!(a.mean_rows().unwrap(), vec![2.0, 3.0]);
        assert_eq!(a.sum(), 10.0);
        assert!(Matrix::zeros(0, 2).mean_rows().is_err());
    }

    #[test]
    fn norms() {
        let a = m(1, 2, &[3.0, 4.0]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-6);
        assert_eq!(m(1, 2, &[-7.0, 2.0]).max_abs(), 7.0);
    }

    #[test]
    fn select_rows_subset() {
        let a = m(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let s = a.select_rows(&[2, 0]).unwrap();
        assert_eq!(s, m(2, 2, &[5.0, 6.0, 1.0, 2.0]));
        assert!(a.select_rows(&[3]).is_err());
    }

    #[test]
    fn vstack_concatenates() {
        let a = m(1, 2, &[1.0, 2.0]);
        let b = m(2, 2, &[3.0, 4.0, 5.0, 6.0]);
        let v = a.vstack(&b).unwrap();
        assert_eq!(v.shape(), (3, 2));
        assert_eq!(v.row(2), &[5.0, 6.0]);
        assert!(a.vstack(&Matrix::zeros(1, 3)).is_err());
        // Stacking with an empty matrix is the identity.
        assert_eq!(Matrix::zeros(0, 0).vstack(&a).unwrap(), a);
    }

    #[test]
    fn l2_normalize_rows_unit_norm() {
        let mut a = m(2, 2, &[3.0, 4.0, 0.0, 0.0]);
        a.l2_normalize_rows();
        let n0: f32 = a.row(0).iter().map(|v| v * v).sum();
        assert!((n0 - 1.0).abs() < 1e-6);
        // Zero row untouched (no NaN).
        assert_eq!(a.row(1), &[0.0, 0.0]);
    }

    #[test]
    fn try_get_bounds() {
        let a = m(1, 1, &[42.0]);
        assert_eq!(a.try_get(0, 0).unwrap(), 42.0);
        assert!(a.try_get(1, 0).is_err());
        assert!(a.try_get(0, 1).is_err());
    }

    #[test]
    fn all_finite_detects_nan_and_inf() {
        let mut a = m(1, 2, &[1.0, 2.0]);
        assert!(a.all_finite());
        a.set(0, 1, f32::NAN);
        assert!(!a.all_finite());
        a.set(0, 1, f32::INFINITY);
        assert!(!a.all_finite());
    }

    #[test]
    fn iter_rows_and_col() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let rows: Vec<&[f32]> = a.iter_rows().collect();
        assert_eq!(rows, vec![&[1.0, 2.0][..], &[3.0, 4.0][..]]);
        assert_eq!(a.col(1), vec![2.0, 4.0]);
    }

    #[test]
    fn serde_roundtrip() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let json = serde_json::to_string(&a).unwrap();
        let back: Matrix = serde_json::from_str(&json).unwrap();
        assert_eq!(a, back);
    }
}
