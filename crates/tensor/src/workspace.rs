//! Reusable scratch memory for the batched execution path.
//!
//! Every hot loop in the workspace (training steps, batched embedding,
//! streaming inference) needs short-lived matrices whose shapes repeat
//! from iteration to iteration. A [`Workspace`] is a small pool of
//! `Vec<f32>` allocations those loops draw from: [`Workspace::take`]
//! hands out a zeroed matrix backed by a recycled buffer, and
//! [`Workspace::give`] returns the buffer to the pool when the caller is
//! done. After the first iteration warms the pool, the steady state
//! performs no heap allocation at all.
//!
//! Ownership rules (see DESIGN.md):
//!
//! * a `Workspace` is owned by exactly one driver loop (a trainer, a
//!   streaming session, a batch embedder) — it is never shared;
//! * callees receive `&mut Workspace` and must `give` back everything
//!   they `take` before returning, so the pool's size reaches a fixed
//!   point after one iteration;
//! * buffers carry no shape memory — `take(rows, cols)` always returns a
//!   fully zeroed matrix of exactly the requested shape.

use crate::matrix::Matrix;
use crate::pool::Exec;
use crate::quant::QuantScratch;
use crate::tiling::Backend;

/// A pool of recycled `f32` buffers backing temporary matrices, plus
/// the [`Exec`] compute context the owning driver loop's kernels run
/// on. Riding the execution context here means every batched hot path
/// that already threads a `Workspace` (training steps, batch embedding,
/// streaming inference) picks up the installed [`crate::plan::KernelPlan`]
/// and the shared compute pool without any signature changes.
#[derive(Debug, Default)]
pub struct Workspace {
    pool: Vec<Vec<f32>>,
    exec: Exec,
    quant: QuantScratch,
}

impl Workspace {
    /// An empty workspace; buffers are allocated lazily on first use and
    /// kernels run on the process-wide [`Exec::global`] context.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// An empty workspace whose kernels run on `exec` — how benchmarks
    /// and property tests pin a specific pool size or plan.
    pub fn with_exec(exec: Exec) -> Self {
        Workspace {
            pool: Vec::new(),
            exec,
            quant: QuantScratch::new(),
        }
    }

    /// The compute context this workspace's kernels run on.
    pub fn exec(&self) -> &Exec {
        &self.exec
    }

    /// Replace the compute context (e.g. to run on another plan
    /// mid-session).
    pub fn set_exec(&mut self, exec: Exec) {
        self.exec = exec;
    }

    /// The micro-kernel backend this workspace's kernels dispatch to
    /// (surfaced for banners and telemetry; see [`Exec::backend`]).
    pub fn backend(&self) -> Backend {
        self.exec.backend()
    }

    /// Borrow a zeroed `rows x cols` matrix, reusing a pooled allocation
    /// when one is available.
    pub fn take(&mut self, rows: usize, cols: usize) -> Matrix {
        let mut buf = self.pool.pop().unwrap_or_default();
        buf.clear();
        buf.resize(rows * cols, 0.0);
        Matrix::from_vec(rows, cols, buf).expect("workspace buffer sized to shape")
    }

    /// Return a matrix's backing buffer to the pool for reuse.
    pub fn give(&mut self, m: Matrix) {
        self.pool.push(m.into_vec());
    }

    /// Number of idle buffers currently pooled.
    pub fn pooled(&self) -> usize {
        self.pool.len()
    }

    /// Scratch buffers for the int8 kernels' dynamic activation
    /// quantisation (see [`crate::quant`]). Reused across calls like the
    /// f32 pool, so the quantised forward path is allocation-free once
    /// warm.
    pub fn quant_scratch(&mut self) -> &mut QuantScratch {
        &mut self.quant
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_returns_zeroed_matrix_of_requested_shape() {
        let mut ws = Workspace::new();
        let m = ws.take(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn give_then_take_reuses_the_allocation() {
        let mut ws = Workspace::new();
        let mut m = ws.take(8, 8);
        m.set(0, 0, 42.0);
        let ptr = m.as_slice().as_ptr();
        let cap = m.as_slice().len();
        ws.give(m);
        assert_eq!(ws.pooled(), 1);
        // Same-or-smaller shape must reuse the pooled buffer and be
        // fully re-zeroed despite the earlier write.
        let again = ws.take(4, 4);
        assert_eq!(ws.pooled(), 0);
        assert!(again.as_slice().iter().all(|&v| v == 0.0));
        assert!(cap >= again.as_slice().len());
        assert_eq!(again.as_slice().as_ptr(), ptr);
    }

    #[test]
    fn pool_reaches_fixed_point() {
        let mut ws = Workspace::new();
        for _ in 0..10 {
            let a = ws.take(2, 3);
            let b = ws.take(3, 2);
            ws.give(a);
            ws.give(b);
        }
        assert_eq!(ws.pooled(), 2);
    }
}
