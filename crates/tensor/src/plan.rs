//! Kernel launch plan.
//!
//! A [`KernelPlan`] is the scheduling half of every GEMM: how many
//! threads split the output rows, which batch size leaves the
//! zero-skipping axpy kernel for the register-tiled one, below which
//! size a GEMM stays on one thread, and which micro-kernel [`Backend`]
//! executes the f32 tiles. The tile shape itself (4×32) and the k-panel
//! depth (256) are fixed constants of the kernels, printed by
//! [`KernelPlan::describe`] for provenance.
//!
//! [`KernelPlan::inline`] pins one thread and the scalar backend — the
//! reference every parallel and SIMD run is property-tested against.
//! [`KernelPlan::host_default`] adds the machine's core count; the
//! served plan is `host_default().with_backend(Backend::detect())`.
//!
//! Plans only steer *scheduling*: for any one fixed plan the kernels in
//! [`crate::matrix`] produce bit-identical results at every thread
//! count (see `DESIGN.md` §11 for the argument), so a plan can never
//! change what a model computes — only how fast.
//!
//! The int8 GEMM ([`crate::quant`]) reads `backend`, `threads` and
//! `par_min_rows`.
//!
//! Privacy note (paper Definition 1): a plan describes the *device*, not
//! the user — thread count and kernel choice. It never leaves the Edge.

use crate::matrix::{PANEL_K, TILED_MIN_ROWS, TILE_COLS, TILE_ROWS};
use crate::tiling::Backend;

/// Hard cap on pool threads a plan may request.
pub const MAX_THREADS: usize = 16;

/// Launch configuration for every GEMM in the crate.
///
/// `Copy` on purpose: a plan is a few small integers and a backend tag,
/// cloned freely into closures and across threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelPlan {
    /// Total compute threads (pool workers + the calling thread).
    /// `1` means fully sequential — no pool is created.
    pub threads: usize,
    /// Minimum batch rows before `matmul` leaves the zero-skipping axpy
    /// kernel for the register-tiled one. Tests lower it to 1 (or raise
    /// it to `usize::MAX`) to force one kernel path at every size.
    pub tiled_min_rows: usize,
    /// Minimum output rows before a GEMM is split across pool threads;
    /// below this the dispatch overhead outweighs the parallelism.
    pub par_min_rows: usize,
    /// Micro-kernel instance executing the f32 register tiles.
    /// [`Backend::Scalar`] (the bit-identity reference) unless
    /// [`KernelPlan::with_backend`] selects a SIMD instance;
    /// [`KernelPlan::sanitized`] degrades any backend the host cannot
    /// run back to scalar.
    pub backend: Backend,
}

impl Default for KernelPlan {
    fn default() -> Self {
        KernelPlan::inline()
    }
}

impl KernelPlan {
    /// The sequential plan: the default dispatch thresholds, one thread,
    /// the scalar backend.
    ///
    /// This is the reference configuration every parallel run is
    /// property-tested to match bit-for-bit.
    pub fn inline() -> Self {
        KernelPlan {
            threads: 1,
            tiled_min_rows: TILED_MIN_ROWS,
            par_min_rows: 32,
            backend: Backend::Scalar,
        }
    }

    /// Defaults for this host: [`KernelPlan::inline`] plus the machine's
    /// available core count (capped at [`MAX_THREADS`]).
    pub fn host_default() -> Self {
        KernelPlan {
            threads: available_threads(),
            ..KernelPlan::inline()
        }
    }

    /// The same plan with `threads` replaced (clamped to
    /// `1..=`[`MAX_THREADS`]) — used by benchmarks and property tests to
    /// sweep pool sizes with everything else held fixed.
    pub fn with_threads(self, threads: usize) -> Self {
        KernelPlan {
            threads: threads.clamp(1, MAX_THREADS),
            ..self
        }
    }

    /// The same plan with the micro-kernel `backend` (f32 and int8
    /// alike) replaced, degraded to [`Backend::Scalar`] when the host
    /// cannot run the requested one — used to serve the detected SIMD
    /// instance and by the smoke benchmarks to force the SIMD/scalar
    /// comparison.
    pub fn with_backend(self, backend: Backend) -> Self {
        let backend = if backend.is_available() {
            backend
        } else {
            Backend::Scalar
        };
        KernelPlan { backend, ..self }
    }

    /// Clamp every field into the range the kernels can dispatch:
    /// `threads` into `1..=`[`MAX_THREADS`], both row thresholds to at
    /// least 1, and an unavailable backend down to scalar. Applied by
    /// every [`crate::pool::Exec`] constructor, so a hand-built plan can
    /// degrade performance but never break dispatch. Thresholds are not
    /// otherwise clamped: tests force one kernel path with
    /// `tiled_min_rows: 1` or `usize::MAX`.
    pub fn sanitized(self) -> Self {
        KernelPlan {
            threads: self.threads.clamp(1, MAX_THREADS),
            tiled_min_rows: self.tiled_min_rows.max(1),
            par_min_rows: self.par_min_rows.max(1),
            ..self
        }
        .with_backend(self.backend)
    }

    /// One-line human-readable summary for startup banners and benchmark
    /// provenance. The tile shape and panel depth are the kernels' fixed
    /// constants.
    pub fn describe(&self) -> String {
        format!(
            "backend={} threads={} tile={TILE_ROWS}x{TILE_COLS} panel_k={PANEL_K} \
             tiled_min_rows={} par_min_rows={}",
            self.backend, self.threads, self.tiled_min_rows, self.par_min_rows,
        )
    }
}

/// Available cores, capped at [`MAX_THREADS`]; `1` when the count is
/// unavailable.
pub(crate) fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(MAX_THREADS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_plan_matches_pr1_constants() {
        let p = KernelPlan::inline();
        assert_eq!(p.threads, 1);
        assert_eq!(p.tiled_min_rows, TILED_MIN_ROWS);
        assert_eq!((TILE_ROWS, TILE_COLS, PANEL_K), (4, 32, 256));
        assert_eq!(p.backend, Backend::Scalar);
    }

    #[test]
    fn sanitize_clamps_garbage() {
        let p = KernelPlan {
            threads: 0,
            tiled_min_rows: 0,
            par_min_rows: 0,
            backend: Backend::Neon,
        }
        .sanitized();
        assert_eq!(p.threads, 1);
        assert_eq!(p.tiled_min_rows, 1);
        assert_eq!(p.par_min_rows, 1);
        // An unavailable backend degrades to scalar; an available one
        // survives. Either way the sanitized plan can always dispatch.
        assert!(p.backend.is_available());
        // Thresholds that force one kernel path survive unchanged.
        let forced = KernelPlan {
            threads: 99,
            tiled_min_rows: usize::MAX,
            ..KernelPlan::inline()
        }
        .sanitized();
        assert_eq!(forced.threads, MAX_THREADS);
        assert_eq!(forced.tiled_min_rows, usize::MAX);
        let tiled = KernelPlan {
            tiled_min_rows: 1,
            ..KernelPlan::inline()
        };
        assert_eq!(tiled.sanitized(), tiled);
    }

    #[test]
    fn with_backend_degrades_unavailable_to_scalar() {
        for b in Backend::ALL {
            let p = KernelPlan::inline().with_backend(b);
            assert!(p.backend.is_available());
            if b.is_available() {
                assert_eq!(p.backend, b);
            } else {
                assert_eq!(p.backend, Backend::Scalar);
            }
        }
    }

    #[test]
    fn describe_mentions_threads_tile_and_backend() {
        // Golden: benchmark provenance compares this string byte for byte.
        assert_eq!(
            KernelPlan::inline().describe(),
            "backend=scalar threads=1 tile=4x32 panel_k=256 tiled_min_rows=16 par_min_rows=32"
        );
    }
}
