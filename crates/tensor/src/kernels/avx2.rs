//! AVX2 + FMA micro-kernels (`x86_64`, runtime-detected).
//!
//! Every function here mirrors its scalar sibling's *loop and
//! accumulation structure*: each output element is one fused
//! multiply-add chain in ascending `k`, and horizontal reductions store
//! the vector lanes to an array and sum them in the same sequential
//! order as the scalar lane sums. On a build whose `fma` helper is a
//! hardware FMA (the workspace passes `-C target-cpu=native`) that makes
//! the f32 results bit-identical to scalar, and the tests gate them on
//! `to_bits` (DESIGN.md §14). The int8 kernels accumulate in exact
//! integer arithmetic and are bit-identical to scalar on every build.
//!
//! The [`Backend::Avx512`](crate::tiling::Backend::Avx512) instance set
//! runs these kernels too, except the two f32 tiles it has its own
//! instance of (`super::avx512`).
//!
//! Callers must only dispatch here after
//! [`Backend::Avx2.is_available()`](crate::tiling::Backend::is_available)
//! returned true — the `#[target_feature]` functions are `unsafe`
//! precisely because executing them on a non-AVX2 host is undefined.

use std::arch::x86_64::*;

use super::fma;
use crate::matrix::TILE_ROWS;
use crate::quant::{QCOLS, QROWS};

/// f32 lanes per 256-bit vector.
const VL: usize = 8;

/// AVX2 instance of [`super::scalar::tile_fma`]: broadcast-FMA over one
/// k-panel for a 4-row × `TC`-column tile, reading the packed stage.
///
/// # Safety
/// Requires AVX2 + FMA at runtime. `TC` must be a multiple of 8, and
/// `stage` must hold at least `(k1 - k0) * TC` elements.
#[target_feature(enable = "avx2", enable = "fma")]
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
    debug_assert!(TC.is_multiple_of(VL) && TC / VL <= 4);
    debug_assert!(stage.len() >= (k1 - k0) * TC);
    let nv = TC / VL;
    let mut vacc = [[_mm256_setzero_ps(); 4]; TILE_ROWS];
    for (row, vrow) in acc.iter().zip(vacc.iter_mut()) {
        for (v, lane) in vrow.iter_mut().take(nv).enumerate() {
            // SAFETY: `v * VL + VL <= TC`, in bounds of the `[f32; TC]` row.
            *lane = unsafe { _mm256_loadu_ps(row.as_ptr().add(v * VL)) };
        }
    }
    for k in k0..k1 {
        let x = [
            _mm256_set1_ps(a0[k]),
            _mm256_set1_ps(a1[k]),
            _mm256_set1_ps(a2[k]),
            _mm256_set1_ps(a3[k]),
        ];
        let at = (k - k0) * TC;
        for v in 0..nv {
            // SAFETY: `at + v * VL + VL <= (k1 - k0) * TC <= stage.len()`.
            let b = unsafe { _mm256_loadu_ps(stage.as_ptr().add(at + v * VL)) };
            for (xr, vrow) in x.iter().zip(vacc.iter_mut()) {
                vrow[v] = _mm256_fmadd_ps(*xr, b, vrow[v]);
            }
        }
    }
    for (row, vrow) in acc.iter_mut().zip(vacc.iter()) {
        for (v, lane) in vrow.iter().take(nv).enumerate() {
            // SAFETY: same bounds as the load above.
            unsafe { _mm256_storeu_ps(row.as_mut_ptr().add(v * VL), *lane) };
        }
    }
}

/// AVX2 instance of [`super::scalar::axpy`]: `out += x * b` with a
/// scalar tail. The caller decides the zero-skip.
///
/// # Safety
/// Requires AVX2 + FMA at runtime. `b.len()` must be ≥ `out.len()`.
#[target_feature(enable = "avx2", enable = "fma")]
pub(crate) unsafe fn axpy(x: f32, b: &[f32], out: &mut [f32]) {
    let n = out.len();
    debug_assert!(b.len() >= n);
    let xv = _mm256_set1_ps(x);
    let mut i = 0;
    while i + VL <= n {
        // SAFETY: `i + VL <= n <= b.len()`, so both 8-lane windows are
        // in bounds; `out` is exclusively borrowed.
        unsafe {
            let bv = _mm256_loadu_ps(b.as_ptr().add(i));
            let ov = _mm256_loadu_ps(out.as_ptr().add(i));
            _mm256_storeu_ps(out.as_mut_ptr().add(i), _mm256_fmadd_ps(xv, bv, ov));
        }
        i += VL;
    }
    while i < n {
        out[i] = fma(x, b[i], out[i]);
        i += 1;
    }
}

/// Sum the lanes of `v` sequentially, mirroring the scalar kernels'
/// `acc.iter().sum()` reduction order.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn hsum_ordered(v: __m256) -> f32 {
    let mut lanes = [0.0f32; VL];
    // SAFETY: `lanes` is exactly one 256-bit vector wide.
    unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), v) };
    lanes.iter().sum()
}

/// AVX2 instance of [`super::scalar::dot_lanes`].
///
/// # Safety
/// Requires AVX2 + FMA at runtime. `b.len()` must be ≥ `a.len()`.
#[target_feature(enable = "avx2", enable = "fma")]
pub(crate) unsafe fn dot_lanes(a: &[f32], b: &[f32]) -> f32 {
    let k = a.len();
    debug_assert!(b.len() >= k);
    let chunks = k / VL;
    let mut acc = _mm256_setzero_ps();
    for c in 0..chunks {
        // SAFETY: `c * VL + VL <= k` for both operands.
        unsafe {
            let av = _mm256_loadu_ps(a.as_ptr().add(c * VL));
            let bv = _mm256_loadu_ps(b.as_ptr().add(c * VL));
            acc = _mm256_fmadd_ps(av, bv, acc);
        }
    }
    // SAFETY: AVX2 is enabled for this function.
    let mut s = unsafe { hsum_ordered(acc) };
    for t in chunks * VL..k {
        s = fma(a[t], b[t], s);
    }
    s
}

/// AVX2 instance of [`super::scalar::tile_2x4`]: eight vector
/// accumulators, six loads and eight FMAs per 8-deep chunk.
///
/// # Safety
/// Requires AVX2 + FMA at runtime. All six slices must be at least
/// `a0.len()` long.
#[target_feature(enable = "avx2", enable = "fma")]
pub(crate) unsafe fn tile_2x4(
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
    let mut acc = [[_mm256_setzero_ps(); 4]; 2];
    for c in 0..chunks {
        let base = c * VL;
        // SAFETY: `base + VL <= k`, in bounds of every operand slice.
        unsafe {
            let x0 = _mm256_loadu_ps(a0.as_ptr().add(base));
            let x1 = _mm256_loadu_ps(a1.as_ptr().add(base));
            let bv = [
                _mm256_loadu_ps(b0.as_ptr().add(base)),
                _mm256_loadu_ps(b1.as_ptr().add(base)),
                _mm256_loadu_ps(b2.as_ptr().add(base)),
                _mm256_loadu_ps(b3.as_ptr().add(base)),
            ];
            for (j, &b) in bv.iter().enumerate() {
                acc[0][j] = _mm256_fmadd_ps(x0, b, acc[0][j]);
                acc[1][j] = _mm256_fmadd_ps(x1, b, acc[1][j]);
            }
        }
    }
    let mut out = [[0.0f32; 4]; 2];
    for (acc_row, out_row) in acc.iter().zip(out.iter_mut()) {
        for (v, o) in acc_row.iter().zip(out_row.iter_mut()) {
            // SAFETY: AVX2 is enabled for this function.
            *o = unsafe { hsum_ordered(*v) };
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

/// Sum the 8 i32 lanes of `v` (exact: integer addition is associative).
///
/// # Safety
/// Requires AVX2 at runtime.
#[target_feature(enable = "avx2")]
unsafe fn hsum_i32(v: __m256i) -> i32 {
    let mut lanes = [0i32; VL];
    // SAFETY: `lanes` is exactly one 256-bit vector wide.
    unsafe { _mm256_storeu_si256(lanes.as_mut_ptr().cast(), v) };
    lanes.iter().sum()
}

/// i8 elements consumed per vector step of the qdot kernels.
const QSTEP: usize = 16;

/// Load 16 int8 values at `p` widened to 16 lanes of i16.
///
/// # Safety
/// Requires AVX2 at runtime; `p` must be valid for a 16-byte read.
#[target_feature(enable = "avx2")]
unsafe fn load16_i8_as_i16(p: *const i8) -> __m256i {
    // SAFETY: caller guarantees 16 readable bytes at `p`.
    let bytes = unsafe { _mm_loadu_si128(p.cast()) };
    _mm256_cvtepi8_epi16(bytes)
}

/// AVX2 instance of [`super::scalar::qdot`]: widen both rows to i16 and
/// multiply-accumulate pairs with `madd_epi16` (products of two i8
/// values fit i16×i16→i32 exactly; a pair sum is ≤ 2·127², far from
/// overflow), 16 elements per step with a scalar tail. This row-vs-row
/// shape maps directly onto the i16 MAC unit, which the int8 GEMM's
/// broadcast-pair stream does not. Bit-identical to scalar (exact
/// integer accumulation).
///
/// # Safety
/// Requires AVX2 at runtime. `b.len()` must be ≥ `a.len()`.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn qdot(a: &[i8], b: &[i8]) -> i32 {
    let k = a.len();
    debug_assert!(b.len() >= k);
    let chunks = k / QSTEP;
    let mut acc = _mm256_setzero_si256();
    for c in 0..chunks {
        // SAFETY: `c * QSTEP + QSTEP <= k`, in bounds of both operands.
        unsafe {
            let av = load16_i8_as_i16(a.as_ptr().add(c * QSTEP));
            let bv = load16_i8_as_i16(b.as_ptr().add(c * QSTEP));
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(av, bv));
        }
    }
    // SAFETY: AVX2 is enabled for this function.
    let mut s = unsafe { hsum_i32(acc) };
    for t in chunks * QSTEP..k {
        s += i32::from(a[t]) * i32::from(b[t]);
    }
    s
}

/// AVX2 instance of [`super::scalar::qdot4`]: four rows against one
/// query, the query chunk loaded once per step and reused across the
/// four row MACs. Bit-identical to scalar (exact integer accumulation).
///
/// # Safety
/// Requires AVX2 at runtime. All four row slices must be at least
/// `q.len()` long.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn qdot4(q: &[i8], r0: &[i8], r1: &[i8], r2: &[i8], r3: &[i8]) -> [i32; 4] {
    let k = q.len();
    debug_assert!(r0.len() >= k && r1.len() >= k && r2.len() >= k && r3.len() >= k);
    let chunks = k / QSTEP;
    let mut acc = [_mm256_setzero_si256(); 4];
    for c in 0..chunks {
        let at = c * QSTEP;
        // SAFETY: `at + QSTEP <= k`, in bounds of the query and (by the
        // length contract) of every row.
        unsafe {
            let qv = load16_i8_as_i16(q.as_ptr().add(at));
            let rv = [
                load16_i8_as_i16(r0.as_ptr().add(at)),
                load16_i8_as_i16(r1.as_ptr().add(at)),
                load16_i8_as_i16(r2.as_ptr().add(at)),
                load16_i8_as_i16(r3.as_ptr().add(at)),
            ];
            for (a, &r) in acc.iter_mut().zip(rv.iter()) {
                *a = _mm256_add_epi32(*a, _mm256_madd_epi16(qv, r));
            }
        }
    }
    let mut out = [0i32; 4];
    for (o, &a) in out.iter_mut().zip(acc.iter()) {
        // SAFETY: AVX2 is enabled for this function.
        *o = unsafe { hsum_i32(a) };
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

/// AVX2 instance of [`super::scalar::qtile`]: the int8 register tile.
/// Per k-pair, the block's 32 interleaved weight bytes widen to two i16
/// vectors (`cvtepi8_epi16`), each row's `(x0, x1)` pair is broadcast as
/// one i32, and `madd_epi16` forms `x0·w0 + x1·w1` per column in i32
/// (exact: `|·| ≤ 2·127·128`), added into two accumulators per row.
/// `maddubs_epi16` would saturate in i16 and is not used. Bit-identical
/// to scalar (exact integer accumulation).
///
/// The k loop is unrolled into independent accumulator sets — two pairs
/// deep at three rows, three at two, four at one — so every height
/// keeps eight to twelve accumulators in flight: on hosts with AVX-VNNI
/// the compiler fuses `madd` + `add` into `vpdpwssd`, whose five-cycle
/// latency a single chain per accumulator would expose.
///
/// # Safety
/// Requires AVX2 at runtime. `acc` must hold 1 to `QROWS` rows, `kp`
/// must be even, `x` must hold `acc.len() * kp` values and `block`
/// `kp * QCOLS` bytes.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn qtile(x: &[i16], kp: usize, block: &[i8], acc: &mut [[i32; QCOLS]]) {
    debug_assert!(kp.is_multiple_of(2) && x.len() >= acc.len() * kp);
    debug_assert!(block.len() >= kp * QCOLS);
    // SAFETY: AVX2 is enabled for this function; the caller upholds the
    // length contract every instance relies on.
    unsafe {
        match acc.len() {
            1 => qtile_rows::<1, 4>(x, kp, block, acc),
            2 => qtile_rows::<2, 3>(x, kp, block, acc),
            _ => qtile_rows::<QROWS, 2>(x, kp, block, acc),
        }
    }
}

/// Widen the 32 interleaved weight bytes of one k-pair at `w` into the
/// i16 pairs of columns 0–7 and 8–15.
///
/// # Safety
/// Requires AVX2 at runtime; `w` must be valid for a 32-byte read.
#[target_feature(enable = "avx2")]
unsafe fn load_pair_block(w: *const i8) -> (__m256i, __m256i) {
    // SAFETY: caller guarantees 32 readable bytes at `w`.
    unsafe {
        (
            _mm256_cvtepi8_epi16(_mm_loadu_si128(w.cast())),
            _mm256_cvtepi8_epi16(_mm_loadu_si128(w.add(16).cast())),
        )
    }
}

/// `R` rows × one block, the k loop unrolled `U` pairs deep into `U`
/// independent accumulator sets (two vectors per row each), summed at
/// the end (integer addition is exact, so the grouping is free).
///
/// # Safety
/// As [`qtile`], with `acc.len() == R`.
#[target_feature(enable = "avx2")]
unsafe fn qtile_rows<const R: usize, const U: usize>(
    x: &[i16],
    kp: usize,
    block: &[i8],
    acc: &mut [[i32; QCOLS]],
) {
    let (xp, wp) = (x.as_ptr(), block.as_ptr());
    let pairs = kp / 2;
    let mut lo = [[_mm256_setzero_si256(); R]; U];
    let mut hi = [[_mm256_setzero_si256(); R]; U];
    // One k-pair into accumulator set `u`.
    // SAFETY (for callers): `p < pairs`, so the 32 weight bytes at
    // `p * 2 * QCOLS` lie within `kp * QCOLS <= block.len()`, and each
    // row's pair at `r * kp + 2 * p` within `R * kp <= x.len()`.
    let step = |p: usize, lo: &mut [__m256i; R], hi: &mut [__m256i; R]| {
        // SAFETY: see above; AVX2 is enabled for the enclosing function.
        unsafe {
            let (w_lo, w_hi) = load_pair_block(wp.add(p * 2 * QCOLS));
            for r in 0..R {
                let x_pair = xp.add(r * kp + 2 * p).cast::<i32>().read_unaligned();
                let pair = _mm256_set1_epi32(x_pair);
                lo[r] = _mm256_add_epi32(lo[r], _mm256_madd_epi16(pair, w_lo));
                hi[r] = _mm256_add_epi32(hi[r], _mm256_madd_epi16(pair, w_hi));
            }
        }
    };
    let mut p = 0;
    while p + U <= pairs {
        for u in 0..U {
            step(p + u, &mut lo[u], &mut hi[u]);
        }
        p += U;
    }
    while p < pairs {
        step(p, &mut lo[0], &mut hi[0]);
        p += 1;
    }
    for (r, row) in acc.iter_mut().enumerate() {
        let (mut l, mut h) = (lo[0][r], hi[0][r]);
        for u in 1..U {
            l = _mm256_add_epi32(l, lo[u][r]);
            h = _mm256_add_epi32(h, hi[u][r]);
        }
        // SAFETY: a row is `QCOLS` = 16 i32, two 256-bit stores.
        unsafe {
            _mm256_storeu_si256(row.as_mut_ptr().cast(), l);
            _mm256_storeu_si256(row.as_mut_ptr().add(VL).cast(), h);
        }
    }
}
