//! Micro-kernel layer: shared tiled-loop structure, one instance set per
//! [`Backend`].
//!
//! This module owns the *how* of every GEMM: the stage-level packing and
//! the panel-level loops live here once, and the innermost register-tile
//! arithmetic is dispatched to the scalar / AVX2 / AVX-512 / NEON
//! instance named by the plan's [`Backend`]. The AVX-512 set has its
//! own instance of the two f32 tiles only and runs the AVX2 instance of
//! every other kernel; each dispatch names the instance every backend
//! runs, with no wildcard arm. The callers in [`crate::matrix`] and
//! [`crate::quant`] keep the *global* level — shape checks, kernel
//! choice from the total row count, and the row-panel split across the
//! compute pool — so the tile, stage and global levels of the
//! decomposition map onto three layers of code.
//!
//! The int8 GEMM keeps its global level in [`crate::quant`] too, but it
//! has no stage: its weights are packed once, when the
//! [`QuantMatrix`](crate::quant::QuantMatrix) is built, into the
//! column-block, k-pair-interleaved layout the tile reads, so the
//! [`qtile_dispatch`] instances stream a block front to back. The AVX2
//! instance is the `cvtepi8_epi16` + `madd_epi16` register tile, which
//! AVX-512 runs too; Scalar and NEON run the portable one. The int8
//! distance kernels (`qdot`, `qdot4`) dispatch the same way.
//!
//! Stage buffers are thread-locals ping-ponged between consecutive
//! k-panels (double buffering: the pack of panel `p` writes the buffer
//! panel `p - 2` vacated, never the one panel `p - 1`'s tiles may still
//! have in flight in the store pipeline). Pool workers are long-lived
//! threads, so after the first GEMM the steady state allocates nothing.
//!
//! Dispatch safety: the AVX2 and AVX-512 arms execute
//! `#[target_feature]` functions, which is only defined when the host
//! really has the features. Every [`Exec`](crate::pool::Exec) runs its
//! plan through
//! [`KernelPlan::sanitized`](crate::plan::KernelPlan::sanitized), which
//! replaces unavailable backends with [`Backend::Scalar`], and the
//! dispatchers below re-check availability in debug builds.

use std::cell::RefCell;

use crate::matrix::{PANEL_K, TILE_COLS, TILE_ROWS};
use crate::quant::{QCOLS, QROWS};
use crate::tiling::Backend;

pub(crate) mod scalar;

#[cfg(target_arch = "x86_64")]
pub(crate) mod avx2;

#[cfg(target_arch = "x86_64")]
pub(crate) mod avx512;

#[cfg(target_arch = "aarch64")]
pub(crate) mod neon;

/// Fused multiply-add `a * b + c`, the one accumulation primitive every
/// matmul kernel in this crate goes through.
///
/// Rust never contracts `a * b + c` into a hardware FMA on its own (it
/// would change the rounding), which leaves half the machine's FLOP/s on
/// the table. When the build targets an FMA-capable CPU (the workspace
/// `.cargo/config.toml` passes `-C target-cpu=native`) this compiles to a
/// single fused instruction; otherwise it falls back to plain mul+add
/// rather than a libm `fmaf` call, which would be orders of magnitude
/// slower. Routing *all* kernels through the same primitive keeps the
/// batched, per-sample, and naive-oracle paths bit-identical to each
/// other within any one build.
#[inline(always)]
pub(crate) fn fma(a: f32, b: f32, c: f32) -> f32 {
    if cfg!(target_feature = "fma") {
        a.mul_add(b, c)
    } else {
        a * b + c
    }
}

thread_local! {
    /// Double-buffered f32 stage: two packing buffers alternated across
    /// consecutive k-panels of the tiled matmul.
    static STAGE_F32: RefCell<[Vec<f32>; 2]> = const { RefCell::new([Vec::new(), Vec::new()]) };
}

/// Debug-build guard behind every SIMD dispatch arm: a sanitized plan
/// can never carry an unavailable backend, so hitting this means a
/// caller skipped [`KernelPlan::sanitized`](crate::plan::KernelPlan::sanitized).
#[inline]
fn debug_check_available(backend: Backend) {
    debug_assert!(
        backend.is_available(),
        "backend {backend} dispatched on a host without it; plan not sanitized?"
    );
}

/// Tile-level dispatch of the k-panel broadcast-FMA kernel.
#[inline]
#[allow(clippy::too_many_arguments)] // tile geometry is inherently wide
fn tile_fma_dispatch<const TC: usize>(
    backend: Backend,
    a0: &[f32],
    a1: &[f32],
    a2: &[f32],
    a3: &[f32],
    k0: usize,
    k1: usize,
    stage: &[f32],
    acc: &mut [[f32; TC]; TILE_ROWS],
) {
    match backend {
        Backend::Scalar => scalar::tile_fma::<TC>(a0, a1, a2, a3, k0, k1, stage, acc),
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => {
            debug_check_available(backend);
            // SAFETY: Avx2 only reaches dispatch through a sanitized
            // plan, which guarantees AVX2+FMA are present at runtime.
            unsafe { avx2::tile_fma::<TC>(a0, a1, a2, a3, k0, k1, stage, acc) }
        }
        #[cfg(target_arch = "x86_64")]
        Backend::Avx512 => {
            debug_check_available(backend);
            // SAFETY: Avx512 only reaches dispatch through a sanitized
            // plan, which guarantees AVX-512F+VL and FMA at runtime.
            unsafe { avx512::tile_fma::<TC>(a0, a1, a2, a3, k0, k1, stage, acc) }
        }
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => neon::tile_fma::<TC>(a0, a1, a2, a3, k0, k1, stage, acc),
        // Backends of another architecture never reach dispatch
        // (sanitized plans degrade them to scalar) but must be matched:
        // no dispatch has a wildcard arm, so a new backend fails to
        // compile until every dispatch names the instance it runs.
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2 | Backend::Avx512 => {
            scalar::tile_fma::<TC>(a0, a1, a2, a3, k0, k1, stage, acc)
        }
        #[cfg(not(target_arch = "aarch64"))]
        Backend::Neon => scalar::tile_fma::<TC>(a0, a1, a2, a3, k0, k1, stage, acc),
    }
}

/// Dispatch of the streaming `out += x * b` row update. The zero-skip
/// stays at the call sites.
#[inline]
pub(crate) fn axpy_dispatch(backend: Backend, x: f32, b: &[f32], out: &mut [f32]) {
    match backend {
        Backend::Scalar => scalar::axpy(x, b, out),
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 | Backend::Avx512 => {
            debug_check_available(backend);
            // SAFETY: sanitized plans guarantee AVX2+FMA at runtime.
            unsafe { avx2::axpy(x, b, out) }
        }
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => neon::axpy(x, b, out),
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2 | Backend::Avx512 => scalar::axpy(x, b, out),
        #[cfg(not(target_arch = "aarch64"))]
        Backend::Neon => scalar::axpy(x, b, out),
    }
}

/// Dispatch of the lane-parallel dot product.
#[inline]
fn dot_dispatch(backend: Backend, a: &[f32], b: &[f32]) -> f32 {
    match backend {
        Backend::Scalar => scalar::dot_lanes(a, b),
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 | Backend::Avx512 => {
            debug_check_available(backend);
            // SAFETY: sanitized plans guarantee AVX2+FMA at runtime.
            unsafe { avx2::dot_lanes(a, b) }
        }
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => neon::dot_lanes(a, b),
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2 | Backend::Avx512 => scalar::dot_lanes(a, b),
        #[cfg(not(target_arch = "aarch64"))]
        Backend::Neon => scalar::dot_lanes(a, b),
    }
}

/// Dispatch of the 2×4 dot-product register tile.
#[inline]
fn tile_2x4_dispatch(
    backend: Backend,
    a0: &[f32],
    a1: &[f32],
    b0: &[f32],
    b1: &[f32],
    b2: &[f32],
    b3: &[f32],
) -> [[f32; 4]; 2] {
    match backend {
        Backend::Scalar => scalar::tile_2x4(a0, a1, b0, b1, b2, b3),
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 | Backend::Avx512 => {
            debug_check_available(backend);
            // SAFETY: sanitized plans guarantee AVX2+FMA at runtime.
            unsafe { avx2::tile_2x4(a0, a1, b0, b1, b2, b3) }
        }
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => neon::tile_2x4(a0, a1, b0, b1, b2, b3),
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2 | Backend::Avx512 => scalar::tile_2x4(a0, a1, b0, b1, b2, b3),
        #[cfg(not(target_arch = "aarch64"))]
        Backend::Neon => scalar::tile_2x4(a0, a1, b0, b1, b2, b3),
    }
}

/// Dispatch of the packed-row i8×i8→i32 dot product. Bit-identical
/// across backends (exact integer accumulation).
#[inline]
pub(crate) fn qdot_dispatch(backend: Backend, a: &[i8], b: &[i8]) -> i32 {
    match backend {
        Backend::Scalar => scalar::qdot(a, b),
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 | Backend::Avx512 => {
            debug_check_available(backend);
            // SAFETY: sanitized plans guarantee AVX2 at runtime.
            unsafe { avx2::qdot(a, b) }
        }
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => neon::qdot(a, b),
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2 | Backend::Avx512 => scalar::qdot(a, b),
        #[cfg(not(target_arch = "aarch64"))]
        Backend::Neon => scalar::qdot(a, b),
    }
}

/// Dispatch of the 4-rows-vs-one-query i8 dot-product tile.
/// Bit-identical across backends (exact integer accumulation).
#[inline]
pub(crate) fn qdot4_dispatch(
    backend: Backend,
    q: &[i8],
    r0: &[i8],
    r1: &[i8],
    r2: &[i8],
    r3: &[i8],
) -> [i32; 4] {
    match backend {
        Backend::Scalar => scalar::qdot4(q, r0, r1, r2, r3),
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 | Backend::Avx512 => {
            debug_check_available(backend);
            // SAFETY: sanitized plans guarantee AVX2 at runtime.
            unsafe { avx2::qdot4(q, r0, r1, r2, r3) }
        }
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => neon::qdot4(q, r0, r1, r2, r3),
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2 | Backend::Avx512 => scalar::qdot4(q, r0, r1, r2, r3),
        #[cfg(not(target_arch = "aarch64"))]
        Backend::Neon => scalar::qdot4(q, r0, r1, r2, r3),
    }
}

/// Dispatch of the int8 register tile: `acc.len()` (1 to
/// [`QROWS`](crate::quant::QROWS)) activation rows of `x`, each `kp`
/// long, against one packed weight block. Bit-identical across backends
/// (exact integer accumulation). NEON has no instance of its own and
/// runs the portable one.
#[inline]
pub(crate) fn qtile_dispatch(
    backend: Backend,
    x: &[i16],
    kp: usize,
    block: &[i8],
    acc: &mut [[i32; QCOLS]],
) {
    assert!((1..=QROWS).contains(&acc.len()) && kp.is_multiple_of(2));
    assert!(x.len() >= acc.len() * kp && block.len() >= kp * QCOLS);
    match backend {
        Backend::Scalar | Backend::Neon => scalar::qtile(x, kp, block, acc),
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 | Backend::Avx512 => {
            debug_check_available(backend);
            // SAFETY: sanitized plans guarantee AVX2 at runtime; the
            // lengths were checked above.
            unsafe { avx2::qtile(x, kp, block, acc) }
        }
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2 | Backend::Avx512 => scalar::qtile(x, kp, block, acc),
    }
}

/// Tiled-matmul panel: output rows `[r0, r1)` of `lhs · rhs`, written
/// into `panel` (panel-local indexing; must arrive zeroed or holding the
/// running accumulation).
///
/// Per [`TILE_COLS`]-wide column strip, each [`PANEL_K`]-deep slice of
/// `rhs` is packed into the thread's stage buffer (alternating between
/// the two buffers), the 4-row register tiles of the panel consume the
/// packed strip through the backend's `tile_fma`, remainder rows take
/// the zero-skipping single-row path over the same stage, and the ragged
/// column tail (`n % TILE_COLS`) runs the streaming axpy update directly
/// on `rhs`. Packing changes addresses, not values or accumulation
/// order, so the scalar backend stays bit-identical to the pre-stage
/// kernel.
#[allow(clippy::too_many_arguments)] // panel geometry is inherently wide
pub(crate) fn matmul_tiled_panel(
    backend: Backend,
    lhs: &[f32],
    k_total: usize,
    rhs: &[f32],
    n: usize,
    r0: usize,
    r1: usize,
    panel: &mut [f32],
) {
    const TC: usize = TILE_COLS;
    let base = r0 * n;
    let row = |i: usize| &lhs[i * k_total..(i + 1) * k_total];
    STAGE_F32.with(|cell| {
        let mut bufs = cell.borrow_mut();
        let mut j = 0;
        while j + TC <= n {
            let mut k0 = 0;
            let mut parity = 0;
            while k0 < k_total {
                let k1 = (k0 + PANEL_K).min(k_total);
                let stage = &mut bufs[parity];
                stage.clear();
                stage.resize((k1 - k0) * TC, 0.0);
                for (idx, k) in (k0..k1).enumerate() {
                    stage[idx * TC..(idx + 1) * TC]
                        .copy_from_slice(&rhs[k * n + j..k * n + j + TC]);
                }
                let stage = &bufs[parity];
                let mut i = r0;
                while i + TILE_ROWS <= r1 {
                    let mut acc = [[0.0f32; TC]; TILE_ROWS];
                    for (r, acc_row) in acc.iter_mut().enumerate() {
                        let at = (i + r) * n + j - base;
                        acc_row.copy_from_slice(&panel[at..at + TC]);
                    }
                    tile_fma_dispatch::<TC>(
                        backend,
                        row(i),
                        row(i + 1),
                        row(i + 2),
                        row(i + 3),
                        k0,
                        k1,
                        stage,
                        &mut acc,
                    );
                    for (r, acc_row) in acc.iter().enumerate() {
                        let at = (i + r) * n + j - base;
                        panel[at..at + TC].copy_from_slice(acc_row);
                    }
                    i += TILE_ROWS;
                }
                // Row remainder: one row at a time, zero-skip restored.
                while i < r1 {
                    let mut acc = [0.0f32; TC];
                    let at = i * n + j - base;
                    acc.copy_from_slice(&panel[at..at + TC]);
                    scalar::row_tail_fma::<TC>(row(i), k0, k1, stage, &mut acc);
                    panel[at..at + TC].copy_from_slice(&acc);
                    i += 1;
                }
                k0 = k1;
                parity ^= 1;
            }
            j += TC;
        }
        // Column tail (n % TC): streaming zero-skip axpy over the tail.
        if j < n {
            for i in r0..r1 {
                for (k, &x) in row(i).iter().enumerate() {
                    if x == 0.0 {
                        continue;
                    }
                    let b_tail = &rhs[k * n + j..(k + 1) * n];
                    let (o0, o1) = (i * n + j - base, (i + 1) * n - base);
                    axpy_dispatch(backend, x, b_tail, &mut panel[o0..o1]);
                }
            }
        }
    });
}

/// Axpy-matmul panel: output rows `[r0, r1)` via the zero-skipping
/// streaming kernel — the small-batch and per-sample (`rows == 1`) path,
/// where post-ReLU sparsity beats register tiling.
#[allow(clippy::too_many_arguments)] // tile geometry is inherently wide
pub(crate) fn matmul_axpy_panel(
    backend: Backend,
    lhs: &[f32],
    k_total: usize,
    rhs: &[f32],
    n: usize,
    r0: usize,
    r1: usize,
    panel: &mut [f32],
) {
    for i in r0..r1 {
        let a_row = &lhs[i * k_total..(i + 1) * k_total];
        let out_row = &mut panel[(i - r0) * n..(i - r0 + 1) * n];
        for (k, &a) in a_row.iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            axpy_dispatch(backend, a, &rhs[k * n..(k + 1) * n], out_row);
        }
    }
}

/// Dispatch of the 4×4 dot-product register tile. Only `Avx512` has an
/// instance of its own (its 16 accumulators need 32 vector registers);
/// every other backend runs its 2×4 tile twice, which computes each
/// output the same way.
#[inline]
fn tile_4x4_dispatch(backend: Backend, a: [&[f32]; 4], b: [&[f32]; 4]) -> [[f32; 4]; 4] {
    let twice_2x4 = |backend| {
        let [b0, b1, b2, b3] = b;
        let [r0, r1] = tile_2x4_dispatch(backend, a[0], a[1], b0, b1, b2, b3);
        let [r2, r3] = tile_2x4_dispatch(backend, a[2], a[3], b0, b1, b2, b3);
        [r0, r1, r2, r3]
    };
    match backend {
        Backend::Scalar | Backend::Avx2 | Backend::Neon => twice_2x4(backend),
        #[cfg(target_arch = "x86_64")]
        Backend::Avx512 => {
            debug_check_available(backend);
            // SAFETY: sanitized plans guarantee AVX-512F+VL, AVX2 and FMA
            // at runtime.
            unsafe { avx512::tile_4x4(a, b) }
        }
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx512 => twice_2x4(backend),
    }
}

/// Rows of `rhs` per cache block of [`matmul_transpose_panel`]: a block
/// is read from cache by every row of the panel. 4, 16 and 64 rows
/// measured within noise of each other on the paper backbone; a multiple
/// of 4 keeps every block but the last free of a column tail.
const DOT_BLOCK: usize = 16;

/// `lhs · rhsᵀ` panel: output rows `[r0, r1)` as dot products.
///
/// `rhs` is walked in blocks of [`DOT_BLOCK`] rows, and every row of the
/// panel runs against a block while it is still in cache, so `rhs` is
/// read from memory once per panel instead of once per pair of `lhs`
/// rows. Within a block, rows go in 4×4 register tiles, then one 2×4
/// tile, and an odd last row and the `n % 4` column tail take the
/// single dot product. Every output is the same 8-lane FMA split summed
/// in lane order, whatever tile computes it, so the blocking moves no
/// bit.
#[allow(clippy::too_many_arguments)] // panel geometry is inherently wide
pub(crate) fn matmul_transpose_panel(
    backend: Backend,
    lhs: &[f32],
    k_total: usize,
    rhs: &[f32],
    n: usize,
    r0: usize,
    r1: usize,
    panel: &mut [f32],
) {
    let base = r0 * n;
    let a_row = |i: usize| &lhs[i * k_total..(i + 1) * k_total];
    let b_row = |j: usize| &rhs[j * k_total..(j + 1) * k_total];
    let quads = |j: usize| [b_row(j), b_row(j + 1), b_row(j + 2), b_row(j + 3)];
    let mut jb = 0;
    while jb < n {
        let je = (jb + DOT_BLOCK).min(n);
        let mut i = r0;
        while i + 4 <= r1 {
            let a = [a_row(i), a_row(i + 1), a_row(i + 2), a_row(i + 3)];
            let mut j = jb;
            while j + 4 <= je {
                let t = tile_4x4_dispatch(backend, a, quads(j));
                for (r, t_row) in t.iter().enumerate() {
                    let at = (i + r) * n + j - base;
                    panel[at..at + 4].copy_from_slice(t_row);
                }
                j += 4;
            }
            for j in j..je {
                for (r, a_r) in a.iter().enumerate() {
                    panel[(i + r) * n + j - base] = dot_dispatch(backend, a_r, b_row(j));
                }
            }
            i += 4;
        }
        if i + 2 <= r1 {
            let (a0, a1) = (a_row(i), a_row(i + 1));
            let mut j = jb;
            while j + 4 <= je {
                let [b0, b1, b2, b3] = quads(j);
                let t = tile_2x4_dispatch(backend, a0, a1, b0, b1, b2, b3);
                panel[i * n + j - base..i * n + j + 4 - base].copy_from_slice(&t[0]);
                panel[(i + 1) * n + j - base..(i + 1) * n + j + 4 - base].copy_from_slice(&t[1]);
                j += 4;
            }
            for j in j..je {
                panel[i * n + j - base] = dot_dispatch(backend, a0, b_row(j));
                panel[(i + 1) * n + j - base] = dot_dispatch(backend, a1, b_row(j));
            }
            i += 2;
        }
        if i < r1 {
            for j in jb..je {
                panel[i * n + j - base] = dot_dispatch(backend, a_row(i), b_row(j));
            }
        }
        jb = je;
    }
}
