//! NEON micro-kernels (`aarch64`).
//!
//! NEON is a baseline feature of aarch64, so unlike the AVX2 instances
//! these are safe functions — the only `unsafe` is the raw loads and
//! stores. Structure mirrors the scalar kernels the same way
//! [`super::avx2`] does: one fused multiply-add chain per output element
//! in ascending `k`, sequential lane sums for reductions. The float
//! results are bit-identical to scalar on a build whose `fma` helper
//! fuses and held to a tolerance otherwise (DESIGN.md §14); the int8
//! kernels are bit-identical to scalar (exact integer arithmetic).

// Whether the pure-register NEON intrinsics (`vdupq_n_f32`,
// `vfmaq_n_f32`, ...) require `unsafe` depends on the rustc version:
// newer compilers make them safe to call where the feature is a baseline
// target feature. The blocks below keep working either way.
#![allow(unused_unsafe)]

use std::arch::aarch64::*;

use super::fma;
use crate::matrix::TILE_ROWS;

/// f32 lanes per 128-bit vector.
const VL: usize = 4;

/// NEON instance of [`super::scalar::tile_fma`]. Column strips are
/// processed one vector (4 outputs) at a time with the four row
/// accumulators live, re-reading the L1-resident lhs rows per strip
/// instead of spilling `4 × TC/4` accumulators.
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
    debug_assert!(TC % VL == 0);
    debug_assert!(stage.len() >= (k1 - k0) * TC);
    for v in 0..TC / VL {
        // SAFETY: pure register op, no memory access.
        let mut vacc = [unsafe { vdupq_n_f32(0.0) }; TILE_ROWS];
        for (row, lane) in acc.iter().zip(vacc.iter_mut()) {
            // SAFETY: `v * VL + VL <= TC`, in bounds of the `[f32; TC]` row.
            *lane = unsafe { vld1q_f32(row.as_ptr().add(v * VL)) };
        }
        for k in k0..k1 {
            // SAFETY: `(k - k0) * TC + v * VL + VL <= (k1 - k0) * TC`.
            let b = unsafe { vld1q_f32(stage.as_ptr().add((k - k0) * TC + v * VL)) };
            // SAFETY: pure register ops, no memory access.
            unsafe {
                vacc[0] = vfmaq_n_f32(vacc[0], b, a0[k]);
                vacc[1] = vfmaq_n_f32(vacc[1], b, a1[k]);
                vacc[2] = vfmaq_n_f32(vacc[2], b, a2[k]);
                vacc[3] = vfmaq_n_f32(vacc[3], b, a3[k]);
            }
        }
        for (row, lane) in acc.iter_mut().zip(vacc.iter()) {
            // SAFETY: same bounds as the load above.
            unsafe { vst1q_f32(row.as_mut_ptr().add(v * VL), *lane) };
        }
    }
}

/// NEON instance of [`super::scalar::axpy`]: `out += x * b` with a
/// scalar tail. The caller decides the zero-skip.
pub(crate) fn axpy(x: f32, b: &[f32], out: &mut [f32]) {
    let n = out.len();
    debug_assert!(b.len() >= n);
    let mut i = 0;
    while i + VL <= n {
        // SAFETY: `i + VL <= n <= b.len()`; `out` is exclusively borrowed.
        unsafe {
            let bv = vld1q_f32(b.as_ptr().add(i));
            let ov = vld1q_f32(out.as_ptr().add(i));
            vst1q_f32(out.as_mut_ptr().add(i), vfmaq_n_f32(ov, bv, x));
        }
        i += VL;
    }
    while i < n {
        out[i] = fma(x, b[i], out[i]);
        i += 1;
    }
}

/// Sum the lanes of `v` sequentially, mirroring the scalar kernels'
/// ordered reductions.
fn hsum_ordered(v: float32x4_t) -> f32 {
    let mut lanes = [0.0f32; VL];
    // SAFETY: `lanes` is exactly one 128-bit vector wide.
    unsafe { vst1q_f32(lanes.as_mut_ptr(), v) };
    lanes.iter().sum()
}

/// NEON instance of [`super::scalar::dot_lanes`].
pub(crate) fn dot_lanes(a: &[f32], b: &[f32]) -> f32 {
    let k = a.len();
    debug_assert!(b.len() >= k);
    let chunks = k / VL;
    // SAFETY: pure register op, no memory access.
    let mut acc = unsafe { vdupq_n_f32(0.0) };
    for c in 0..chunks {
        // SAFETY: `c * VL + VL <= k` for both operands.
        unsafe {
            let av = vld1q_f32(a.as_ptr().add(c * VL));
            let bv = vld1q_f32(b.as_ptr().add(c * VL));
            acc = vfmaq_f32(acc, av, bv);
        }
    }
    let mut s = hsum_ordered(acc);
    for t in chunks * VL..k {
        s = fma(a[t], b[t], s);
    }
    s
}

/// NEON instance of [`super::scalar::tile_2x4`]: eight vector
/// accumulators, six loads and eight FMAs per 4-deep chunk.
pub(crate) fn tile_2x4(
    a0: &[f32],
    a1: &[f32],
    b0: &[f32],
    b1: &[f32],
    b2: &[f32],
    b3: &[f32],
) -> [[f32; 4]; 2] {
    let k = a0.len();
    debug_assert!(
        a1.len() >= k && b0.len() >= k && b1.len() >= k && b2.len() >= k && b3.len() >= k
    );
    let chunks = k / VL;
    // SAFETY: pure register op, no memory access.
    let mut acc = [[unsafe { vdupq_n_f32(0.0) }; 4]; 2];
    for c in 0..chunks {
        let base = c * VL;
        // SAFETY: `base + VL <= k`, in bounds of every operand slice.
        unsafe {
            let x0 = vld1q_f32(a0.as_ptr().add(base));
            let x1 = vld1q_f32(a1.as_ptr().add(base));
            let bv = [
                vld1q_f32(b0.as_ptr().add(base)),
                vld1q_f32(b1.as_ptr().add(base)),
                vld1q_f32(b2.as_ptr().add(base)),
                vld1q_f32(b3.as_ptr().add(base)),
            ];
            for (j, &b) in bv.iter().enumerate() {
                acc[0][j] = vfmaq_f32(acc[0][j], x0, b);
                acc[1][j] = vfmaq_f32(acc[1][j], x1, b);
            }
        }
    }
    let mut out = [[0.0f32; 4]; 2];
    for (acc_row, out_row) in acc.iter().zip(out.iter_mut()) {
        for (v, o) in acc_row.iter().zip(out_row.iter_mut()) {
            *o = hsum_ordered(*v);
        }
    }
    for t in chunks * VL..k {
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

/// Sum the 4 i32 lanes of `v` (exact: integer addition is associative).
fn hsum_i32(v: int32x4_t) -> i32 {
    let mut lanes = [0i32; VL];
    // SAFETY: `lanes` is exactly one 128-bit vector wide.
    unsafe { vst1q_s32(lanes.as_mut_ptr(), v) };
    lanes.iter().sum()
}

/// i8 elements consumed per vector step of the qdot kernels.
const QSTEP: usize = 8;

/// NEON instance of [`super::scalar::qdot`]: `vmull_s8` widening
/// multiply (i8×i8→i16, exact) folded into the i32 accumulator with the
/// pairwise add-accumulate `vpadalq_s16`, 8 elements per step with a
/// scalar tail. Bit-identical to scalar (exact integer accumulation).
pub(crate) fn qdot(a: &[i8], b: &[i8]) -> i32 {
    let k = a.len();
    debug_assert!(b.len() >= k);
    let chunks = k / QSTEP;
    // SAFETY: pure register op, no memory access.
    let mut acc = unsafe { vdupq_n_s32(0) };
    for c in 0..chunks {
        // SAFETY: `c * QSTEP + QSTEP <= k`, in bounds of both operands;
        // `vld1_s8` reads exactly 8 bytes.
        unsafe {
            let av = vld1_s8(a.as_ptr().add(c * QSTEP));
            let bv = vld1_s8(b.as_ptr().add(c * QSTEP));
            acc = vpadalq_s16(acc, vmull_s8(av, bv));
        }
    }
    let mut s = hsum_i32(acc);
    for t in chunks * QSTEP..k {
        s += i32::from(a[t]) * i32::from(b[t]);
    }
    s
}

/// NEON instance of [`super::scalar::qdot4`]: four rows against one
/// query, the query chunk loaded once per step. Bit-identical to scalar
/// (exact integer accumulation).
pub(crate) fn qdot4(q: &[i8], r0: &[i8], r1: &[i8], r2: &[i8], r3: &[i8]) -> [i32; 4] {
    let k = q.len();
    debug_assert!(r0.len() >= k && r1.len() >= k && r2.len() >= k && r3.len() >= k);
    let chunks = k / QSTEP;
    // SAFETY: pure register op, no memory access.
    let mut acc = [unsafe { vdupq_n_s32(0) }; 4];
    for c in 0..chunks {
        let at = c * QSTEP;
        // SAFETY: `at + QSTEP <= k`, in bounds of the query and (by the
        // length contract) of every row; `vld1_s8` reads exactly 8 bytes.
        unsafe {
            let qv = vld1_s8(q.as_ptr().add(at));
            let rv = [
                vld1_s8(r0.as_ptr().add(at)),
                vld1_s8(r1.as_ptr().add(at)),
                vld1_s8(r2.as_ptr().add(at)),
                vld1_s8(r3.as_ptr().add(at)),
            ];
            for (a, &r) in acc.iter_mut().zip(rv.iter()) {
                *a = vpadalq_s16(*a, vmull_s8(qv, r));
            }
        }
    }
    let mut out = [0i32; 4];
    for (o, &a) in out.iter_mut().zip(acc.iter()) {
        *o = hsum_i32(a);
    }
    for t in chunks * QSTEP..k {
        let qv = i32::from(q[t]);
        out[0] += qv * i32::from(r0[t]);
        out[1] += qv * i32::from(r1[t]);
        out[2] += qv * i32::from(r2[t]);
        out[3] += qv * i32::from(r3[t]);
    }
    out
}
