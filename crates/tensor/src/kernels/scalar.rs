//! Portable scalar micro-kernels — the always-available [`Backend::Scalar`]
//! instances and the bit-identity reference for every other backend.
//!
//! The f32 bodies are the original kernels moved behind the backend
//! dispatch *unchanged*: the
//! float operation sequence per output element is exactly what
//! `matrix.rs`/`quant.rs` executed before the refactor (the tiled kernel
//! now reads the packed stage buffer instead of the strided rhs, which
//! changes addresses but not values or accumulation order), so the
//! existing property harness — tiled ≡ axpy, blocked ≡ naive oracle,
//! bit-identical across pool sizes — passes on them unchanged.
//!
//! The loops are written lane-parallel (independent accumulator chains,
//! fixed-width inner loops) so the compiler auto-vectorises them under
//! `-C target-cpu=native`; the explicit-SIMD backends exist to make that
//! performance guaranteed rather than optimizer-dependent.

use super::fma;
use crate::matrix::TILE_ROWS;
use crate::quant::{QCOLS, QROWS};

/// Accumulator lanes for the dot-product kernels — wide enough for one
/// 256-bit vector register of `f32`.
pub(crate) const LANES: usize = 8;

/// Broadcast-FMA over one k-panel for a 4-row × `TC`-column register
/// tile. `stage` is the packed `(k1 - k0) × TC` rhs strip; accumulators
/// arrive loaded from the output panel and leave ready to store back,
/// continuing the same ascending-`k` accumulation across panels.
#[allow(clippy::too_many_arguments)] // tile geometry is inherently wide
pub(crate) fn tile_fma<const TC: usize>(
    a0: &[f32],
    a1: &[f32],
    a2: &[f32],
    a3: &[f32],
    k0: usize,
    k1: usize,
    stage: &[f32],
    acc: &mut [[f32; TC]; TILE_ROWS],
) {
    for k in k0..k1 {
        let at = (k - k0) * TC;
        let b: &[f32; TC] = stage[at..at + TC].try_into().unwrap();
        let x0 = a0[k];
        let x1 = a1[k];
        let x2 = a2[k];
        let x3 = a3[k];
        for l in 0..TC {
            let bl = b[l];
            acc[0][l] = fma(x0, bl, acc[0][l]);
            acc[1][l] = fma(x1, bl, acc[1][l]);
            acc[2][l] = fma(x2, bl, acc[2][l]);
            acc[3][l] = fma(x3, bl, acc[3][l]);
        }
    }
}

/// Row remainder of the tiled kernel: one output row over a `TC`-wide
/// strip of the packed stage, zero-skip restored (post-ReLU rows are
/// ~50% zeros).
pub(crate) fn row_tail_fma<const TC: usize>(
    a: &[f32],
    k0: usize,
    k1: usize,
    stage: &[f32],
    acc: &mut [f32; TC],
) {
    for (k, &x) in a[k0..k1].iter().enumerate() {
        if x == 0.0 {
            continue;
        }
        let at = k * TC;
        let b: &[f32; TC] = stage[at..at + TC].try_into().unwrap();
        for l in 0..TC {
            acc[l] = fma(x, b[l], acc[l]);
        }
    }
}

/// `out += x * b`, the streaming row update of the axpy kernels (the
/// per-sample forward and the tiled kernel's column tail). Zero-skip is
/// the *caller's* job so every call site keeps its original skip
/// decision.
pub(crate) fn axpy(x: f32, b: &[f32], out: &mut [f32]) {
    for (o, &bv) in out.iter_mut().zip(b.iter()) {
        *o = fma(x, bv, *o);
    }
}

/// Lane-parallel dot product: eight independent accumulator chains the
/// compiler turns into one vector FMA stream, plus a scalar tail.
pub(crate) fn dot_lanes(a: &[f32], b: &[f32]) -> f32 {
    let k = a.len();
    let chunks = k / LANES;
    let mut acc = [0.0f32; LANES];
    for c in 0..chunks {
        let ac = &a[c * LANES..(c + 1) * LANES];
        let bc = &b[c * LANES..(c + 1) * LANES];
        for l in 0..LANES {
            acc[l] = fma(ac[l], bc[l], acc[l]);
        }
    }
    let mut s: f32 = acc.iter().sum();
    for t in chunks * LANES..k {
        s = fma(a[t], b[t], s);
    }
    s
}

/// 2×4 register tile of dot products: each loaded `a` chunk feeds four
/// outputs and each `b` chunk feeds two, so the kernel performs eight
/// FMAs per six vector loads with no stores inside the loop.
pub(crate) fn tile_2x4(
    a0: &[f32],
    a1: &[f32],
    b0: &[f32],
    b1: &[f32],
    b2: &[f32],
    b3: &[f32],
) -> [[f32; 4]; 2] {
    let k = a0.len();
    let chunks = k / LANES;
    let mut acc = [[[0.0f32; LANES]; 4]; 2];
    for c in 0..chunks {
        let base = c * LANES;
        let a0c = &a0[base..base + LANES];
        let a1c = &a1[base..base + LANES];
        let b0c = &b0[base..base + LANES];
        let b1c = &b1[base..base + LANES];
        let b2c = &b2[base..base + LANES];
        let b3c = &b3[base..base + LANES];
        for l in 0..LANES {
            let x0 = a0c[l];
            let x1 = a1c[l];
            acc[0][0][l] = fma(x0, b0c[l], acc[0][0][l]);
            acc[0][1][l] = fma(x0, b1c[l], acc[0][1][l]);
            acc[0][2][l] = fma(x0, b2c[l], acc[0][2][l]);
            acc[0][3][l] = fma(x0, b3c[l], acc[0][3][l]);
            acc[1][0][l] = fma(x1, b0c[l], acc[1][0][l]);
            acc[1][1][l] = fma(x1, b1c[l], acc[1][1][l]);
            acc[1][2][l] = fma(x1, b2c[l], acc[1][2][l]);
            acc[1][3][l] = fma(x1, b3c[l], acc[1][3][l]);
        }
    }
    let mut out = [[0.0f32; 4]; 2];
    for (acc_row, out_row) in acc.iter().zip(out.iter_mut()) {
        for (lanes, o) in acc_row.iter().zip(out_row.iter_mut()) {
            *o = lanes.iter().sum();
        }
    }
    for t in chunks * LANES..k {
        let x0 = a0[t];
        let x1 = a1[t];
        out[0][0] = fma(x0, b0[t], out[0][0]);
        out[0][1] = fma(x0, b1[t], out[0][1]);
        out[0][2] = fma(x0, b2[t], out[0][2]);
        out[0][3] = fma(x0, b3[t], out[0][3]);
        out[1][0] = fma(x1, b0[t], out[1][0]);
        out[1][1] = fma(x1, b1[t], out[1][1]);
        out[1][2] = fma(x1, b2[t], out[1][2]);
        out[1][3] = fma(x1, b3[t], out[1][3]);
    }
    out
}

/// Portable instance of the int8 register tile: `acc[r][j]` receives
/// `Σ_k x[r·kp + k] · w(k, j)` for the `acc.len()` (1 to
/// [`QROWS`]) activation rows of `x` — each `kp` long, `kp` even —
/// against one packed weight block of [`QCOLS`] columns.
///
/// Each k-pair's interleaved weights are split back into their two
/// k-rows once and shared by the tile's rows, so the inner loop is the
/// contiguous `x0·w0[c] + x1·w1[c]` the compiler vectorises. A pair's
/// two products are summed in i16 before widening: activations are
/// quantised to `[-127, 127]` and weights are any `i8`, so
/// `|x0·w0 + x1·w1| ≤ 2·127·128 = 32512` fits exactly.
pub(crate) fn qtile(x: &[i16], kp: usize, block: &[i8], acc: &mut [[i32; QCOLS]]) {
    debug_assert!(acc.len() <= QROWS && x.len() >= acc.len() * kp && block.len() >= kp * QCOLS);
    let mut t = [[0i32; QCOLS]; QROWS];
    let t = &mut t[..acc.len()];
    for (p, w) in block.chunks_exact(2 * QCOLS).enumerate() {
        let w0: [i16; QCOLS] = std::array::from_fn(|c| i16::from(w[2 * c]));
        let w1: [i16; QCOLS] = std::array::from_fn(|c| i16::from(w[2 * c + 1]));
        for (r, t_row) in t.iter_mut().enumerate() {
            let (x0, x1) = (x[r * kp + 2 * p], x[r * kp + 2 * p + 1]);
            for c in 0..QCOLS {
                t_row[c] += i32::from(x0 * w0[c] + x1 * w1[c]);
            }
        }
    }
    acc.copy_from_slice(t);
}

/// i8×i8→i32 dot product of two packed rows — the coarse-distance
/// primitive of the quantized NCM index. Exact integer accumulation, so
/// every backend instance is bit-identical by construction.
pub(crate) fn qdot(a: &[i8], b: &[i8]) -> i32 {
    let mut s = 0i32;
    for (&x, &y) in a.iter().zip(b.iter()) {
        s += i32::from(x) * i32::from(y);
    }
    s
}

/// Four row dot products against one shared query: the register-tiled
/// form of [`qdot`] (the SIMD instances amortise the query loads across
/// the four rows; here it is just four calls).
pub(crate) fn qdot4(q: &[i8], r0: &[i8], r1: &[i8], r2: &[i8], r3: &[i8]) -> [i32; 4] {
    [qdot(q, r0), qdot(q, r1), qdot(q, r2), qdot(q, r3)]
}
