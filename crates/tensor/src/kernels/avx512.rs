//! AVX-512 micro-kernels (`x86_64`, runtime-detected): the two f32 tiles
//! that a wider register file speeds up, and nothing else.
//!
//! * [`tile_fma`] is the 4 × 32 broadcast-FMA tile on 512-bit vectors:
//!   two zmm per row, eight accumulators. The tile shape and the k-panel
//!   depth are those of every other instance, so each row and column
//!   takes the same path as on AVX2 (including which rows skip zeros),
//!   and each output is the same FMA chain in ascending `k`.
//! * [`tile_4x4`] is a 4 × 4 dot-product tile for `A·Bᵀ`: sixteen
//!   256-bit accumulators plus eight operand vectors, which only fit in
//!   AVX-512VL's 32 registers. Each output keeps the 8-lane split and the
//!   ordered lane sum of [`super::scalar::dot_lanes`].
//!
//! Both are therefore bit-identical to the scalar and AVX2 instances on
//! an FMA build. Every other kernel (`axpy`, `dot_lanes`, `tile_2x4`, the
//! int8 tile and distance kernels) runs the AVX2 instance: the dispatch
//! in [`super`] routes `Backend::Avx512` there by an explicit arm.
//!
//! Callers must only dispatch here after
//! [`Backend::Avx512.is_available()`](crate::tiling::Backend::is_available)
//! returned true.

use std::arch::x86_64::*;

use super::avx2::hsum_ordered;
use super::fma;
use crate::matrix::TILE_ROWS;

/// f32 lanes per 512-bit vector.
const ZL: usize = 16;

/// f32 lanes per 256-bit vector: the lane split of the dot products.
const VL: usize = 8;

/// AVX-512 instance of [`super::scalar::tile_fma`]: broadcast-FMA over
/// one k-panel for a 4-row × `TC`-column tile, reading the packed stage.
///
/// # Safety
/// Requires AVX-512F + FMA at runtime. `TC` must be 16 or 32, and
/// `stage` must hold at least `(k1 - k0) * TC` elements.
#[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)] // tile geometry is inherently wide
pub(crate) unsafe fn tile_fma<const TC: usize>(
    a0: &[f32],
    a1: &[f32],
    a2: &[f32],
    a3: &[f32],
    k0: usize,
    k1: usize,
    stage: &[f32],
    acc: &mut [[f32; TC]; TILE_ROWS],
) {
    debug_assert!(TC.is_multiple_of(ZL) && TC / ZL <= 2);
    debug_assert!(stage.len() >= (k1 - k0) * TC);
    let nv = TC / ZL;
    let mut vacc = [[_mm512_setzero_ps(); 2]; TILE_ROWS];
    for (row, vrow) in acc.iter().zip(vacc.iter_mut()) {
        for (v, lane) in vrow.iter_mut().take(nv).enumerate() {
            // SAFETY: `v * ZL + ZL <= TC`, in bounds of the `[f32; TC]` row.
            *lane = unsafe { _mm512_loadu_ps(row.as_ptr().add(v * ZL)) };
        }
    }
    for k in k0..k1 {
        let x = [
            _mm512_set1_ps(a0[k]),
            _mm512_set1_ps(a1[k]),
            _mm512_set1_ps(a2[k]),
            _mm512_set1_ps(a3[k]),
        ];
        let at = (k - k0) * TC;
        for v in 0..nv {
            // SAFETY: `at + v * ZL + ZL <= (k1 - k0) * TC <= stage.len()`.
            let b = unsafe { _mm512_loadu_ps(stage.as_ptr().add(at + v * ZL)) };
            for (xr, vrow) in x.iter().zip(vacc.iter_mut()) {
                vrow[v] = _mm512_fmadd_ps(*xr, b, vrow[v]);
            }
        }
    }
    for (row, vrow) in acc.iter_mut().zip(vacc.iter()) {
        for (v, lane) in vrow.iter().take(nv).enumerate() {
            // SAFETY: same bounds as the load above.
            unsafe { _mm512_storeu_ps(row.as_mut_ptr().add(v * ZL), *lane) };
        }
    }
}

/// 4 × 4 register tile of dot products `a[r] · b[c]`: each loaded `a`
/// chunk feeds four outputs and each `b` chunk four, sixteen FMAs per
/// eight vector loads. Equal bit for bit to two
/// [`super::scalar::tile_2x4`] calls on the same operands.
///
/// # Safety
/// Requires AVX-512VL + AVX2 + FMA at runtime (the 24 live vectors spill
/// without VL's upper sixteen registers). Every slice must be at least
/// `a[0].len()` long.
#[target_feature(enable = "avx512f,avx512vl,avx2,fma")]
pub(crate) unsafe fn tile_4x4(a: [&[f32]; 4], b: [&[f32]; 4]) -> [[f32; 4]; 4] {
    let k = a[0].len();
    debug_assert!(a.iter().chain(b.iter()).all(|s| s.len() >= k));
    let chunks = k / VL;
    let mut acc = [[_mm256_setzero_ps(); 4]; 4];
    for c in 0..chunks {
        let base = c * VL;
        // SAFETY: `base + VL <= k`, in bounds of every operand slice.
        unsafe {
            let bv = [
                _mm256_loadu_ps(b[0].as_ptr().add(base)),
                _mm256_loadu_ps(b[1].as_ptr().add(base)),
                _mm256_loadu_ps(b[2].as_ptr().add(base)),
                _mm256_loadu_ps(b[3].as_ptr().add(base)),
            ];
            for (ar, acc_row) in a.iter().zip(acc.iter_mut()) {
                let x = _mm256_loadu_ps(ar.as_ptr().add(base));
                for (v, &bj) in acc_row.iter_mut().zip(bv.iter()) {
                    *v = _mm256_fmadd_ps(x, bj, *v);
                }
            }
        }
    }
    let mut out = [[0.0f32; 4]; 4];
    for (acc_row, out_row) in acc.iter().zip(out.iter_mut()) {
        for (v, o) in acc_row.iter().zip(out_row.iter_mut()) {
            // SAFETY: AVX2 is enabled for this function.
            *o = unsafe { hsum_ordered(*v) };
        }
    }
    for t in chunks * VL..k {
        for (ar, out_row) in a.iter().zip(out.iter_mut()) {
            let x = ar[t];
            for (bj, o) in b.iter().zip(out_row.iter_mut()) {
                *o = fma(x, bj[t], *o);
            }
        }
    }
    out
}
