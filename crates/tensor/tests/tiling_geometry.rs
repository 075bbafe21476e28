//! Tail- and edge-geometry tests for the tiled kernel layer.
//!
//! Every GEMM splits into tile / stage / global levels with per-backend
//! micro-kernels (a 4×32 register tile over 256-deep k-panels); the
//! seams of that split are the *geometry edges* — empty inner
//! dimensions, single rows/columns, prime sizes that leave ragged tile
//! and panel tails, and inner dimensions that cross one or two panel
//! boundaries. These tests pin them down on the scalar reference and on
//! every SIMD backend the host can run (`Backend::candidates`):
//!
//! * scalar tiled output is **bit-identical** to the streaming axpy
//!   kernel and to the naive i-k-j oracle (same `fma` chain, same
//!   ascending-`k` order — packing must not change a single bit);
//! * float SIMD output is **bit-identical** to scalar on an FMA build
//!   (every instance runs the same fused chain and lane-ordered sums,
//!   DESIGN.md §14), and within elementwise tolerance on a build
//!   without FMA, where the scalar `fma` helper rounds twice;
//! * int8 output under a forced-SIMD plan is **bit-identical** to int8
//!   under scalar (exact integer accumulation has no rounding to
//!   disagree about; the oracle grid over every int8 tile remainder
//!   lives beside the kernel, in `quant.rs`);
//! * every backend at every pool size equals the AVX2 instance, f32 and
//!   int8 alike, so no backend can fall back to another kernel unseen.

use magneto_tensor::matrix::Matrix;
use magneto_tensor::qdist::quantize_query;
use magneto_tensor::{
    Backend, Exec, KernelPlan, QuantMatrix, QuantRowStore, QuantScratch, SeededRng,
};

/// Geometries chosen to hit every remainder path: K=0 (empty
/// accumulation), K=1 (single panel step), 1×N (row kernel), M×1
/// (column tail of width 1), primes (ragged tile, panel and lane
/// tails), multiples of the tile sizes (no tails at all), and K past one
/// or two 256-deep panel boundaries with N leaving a ragged tail after
/// one or more 32-wide strips.
const SHAPES: &[(usize, usize, usize)] = &[
    (1, 1, 1),
    (1, 0, 1),
    (4, 0, 7),
    (1, 7, 1),
    (5, 1, 3),
    (1, 13, 32),
    (17, 1, 1),
    (4, 16, 16),
    (8, 8, 32),
    (7, 13, 29),
    (13, 31, 37),
    (37, 17, 33),
    (3, 5, 64),
    (19, 23, 1),
    (23, 41, 47),
    (1, 260, 40),
    (5, 257, 33),
    (4, 512, 64),
    (9, 513, 65),
];

fn mat(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = SeededRng::new(seed);
    let data = (0..rows * cols).map(|_| rng.uniform(-2.0, 2.0)).collect();
    Matrix::from_vec(rows, cols, data).unwrap()
}

/// A plan that forces the register-tiled kernel for every batch size.
fn tiled_plan(backend: Backend) -> KernelPlan {
    KernelPlan {
        tiled_min_rows: 1,
        backend,
        ..KernelPlan::inline()
    }
}

/// A plan that forces the streaming axpy kernel for every batch size.
fn axpy_plan(backend: Backend) -> KernelPlan {
    KernelPlan {
        tiled_min_rows: usize::MAX,
        backend,
        ..KernelPlan::inline()
    }
}

/// The SIMD backends this host can run.
fn simd_candidates() -> Vec<Backend> {
    Backend::candidates()
        .into_iter()
        .filter(|&b| b != Backend::Scalar)
        .collect()
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// `simd` equals `scalar` bit for bit on an FMA build; on a build
/// without FMA the scalar `fma` helper rounds the product and the sum
/// separately while the intrinsics fuse them, so there the bar is `tol`.
fn assert_f32_agrees(scalar: &Matrix, simd: &Matrix, tol: f32, what: &str) {
    assert_eq!(scalar.shape(), simd.shape(), "{what}");
    if cfg!(target_feature = "fma") {
        assert!(bits(scalar) == bits(simd), "{what}: not bit-identical");
    } else {
        let diff = max_abs_diff(scalar, simd);
        assert!(diff <= tol, "{what}: diff {diff}");
    }
}

fn max_abs_diff(a: &Matrix, b: &Matrix) -> f32 {
    assert_eq!(a.shape(), b.shape());
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0f32, f32::max)
}

#[test]
fn scalar_tiled_is_bit_identical_to_axpy_and_naive_on_edge_geometries() {
    for &(m, k, n) in SHAPES {
        let a = mat(m, k, 0xA0 + (m * 31 + k * 7 + n) as u64);
        let b = mat(k, n, 0xB0 + (m + k * 13 + n * 3) as u64);
        let naive = a.matmul_naive(&b).unwrap();
        let mut axpy_out = Matrix::default();
        a.matmul_into_exec(&b, &mut axpy_out, &Exec::from_plan(axpy_plan(Backend::Scalar)))
            .unwrap();
        assert_eq!(axpy_out, naive, "axpy vs naive, shape ({m},{k},{n})");
        let mut out = Matrix::default();
        a.matmul_into_exec(&b, &mut out, &Exec::from_plan(tiled_plan(Backend::Scalar)))
            .unwrap();
        assert_eq!(out, naive, "tiled vs naive, shape ({m},{k},{n})");
    }
}

#[test]
fn scalar_backward_gemms_cover_edge_geometries() {
    // d/dA = G · Bᵀ and d/dB = Aᵀ · G walk the transpose kernels; check
    // them against explicit transposes through the forward oracle.
    for &(m, k, n) in SHAPES {
        if k == 0 {
            continue; // transpose oracle shapes degenerate identically
        }
        let g = mat(m, n, 0xC0 + (m * 17 + n) as u64);
        let a = mat(m, k, 0xD0 + (k * 11 + n) as u64);
        let b = mat(k, n, 0xE0 + (m + k + n) as u64);
        let exec = Exec::from_plan(tiled_plan(Backend::Scalar));

        let mut da = Matrix::default();
        g.matmul_transpose_into_exec(&b, &mut da, &exec).unwrap();
        let da_oracle = g.matmul_naive(&b.transpose()).unwrap();
        assert!(
            max_abs_diff(&da, &da_oracle) <= 1e-4,
            "G·Bᵀ, shape ({m},{k},{n})"
        );

        let mut db = Matrix::default();
        a.transpose_matmul_into_exec(&g, &mut db, &exec).unwrap();
        let db_oracle = a.transpose().matmul_naive(&g).unwrap();
        assert!(
            max_abs_diff(&db, &db_oracle) <= 1e-4,
            "Aᵀ·G, shape ({m},{k},{n})"
        );
    }
}

#[test]
fn simd_f32_agrees_with_scalar_on_edge_geometries() {
    for simd in simd_candidates() {
        for &(m, k, n) in SHAPES {
            let a = mat(m, k, 0x1A0 + (m * 31 + k * 7 + n) as u64);
            let b = mat(k, n, 0x1B0 + (m + k * 13 + n * 3) as u64);
            // Tiled and streaming axpy kernels, then both backward kernels.
            for (path, mk_plan) in [
                ("tiled", tiled_plan as fn(Backend) -> KernelPlan),
                ("axpy", axpy_plan),
            ] {
                let mut scalar_out = Matrix::default();
                let mut simd_out = Matrix::default();
                a.matmul_into_exec(
                    &b,
                    &mut scalar_out,
                    &Exec::from_plan(mk_plan(Backend::Scalar)),
                )
                .unwrap();
                a.matmul_into_exec(&b, &mut simd_out, &Exec::from_plan(mk_plan(simd)))
                    .unwrap();
                assert_f32_agrees(
                    &scalar_out,
                    &simd_out,
                    1e-4 * (k.max(1) as f32),
                    &format!("f32 {path} {simd} vs scalar, shape ({m},{k},{n})"),
                );
            }
            if k > 0 {
                let g = mat(m, n, 0x1C0 + (m + n) as u64);
                let scalar_exec = Exec::from_plan(tiled_plan(Backend::Scalar));
                let simd_exec = Exec::from_plan(tiled_plan(simd));
                let (mut s, mut v) = (Matrix::default(), Matrix::default());
                g.matmul_transpose_into_exec(&b, &mut s, &scalar_exec)
                    .unwrap();
                g.matmul_transpose_into_exec(&b, &mut v, &simd_exec)
                    .unwrap();
                let tol = 1e-4 * (n.max(1) as f32);
                assert_f32_agrees(&s, &v, tol, &format!("G·Bᵀ {simd} ({m},{k},{n})"));
                a.transpose_matmul_into_exec(&g, &mut s, &scalar_exec)
                    .unwrap();
                a.transpose_matmul_into_exec(&g, &mut v, &simd_exec)
                    .unwrap();
                let tol = 1e-4 * (m.max(1) as f32);
                assert_f32_agrees(&s, &v, tol, &format!("Aᵀ·G {simd} ({m},{k},{n})"));
            }
        }
    }
}

#[test]
fn simd_i8_is_bit_identical_to_scalar_on_edge_geometries() {
    for simd in simd_candidates() {
        simd_i8_matches_scalar(simd);
    }
}

fn simd_i8_matches_scalar(simd: Backend) {
    let act = |v: f32| if v > 0.0 { v } else { 0.01 * v };
    for &(m, k, n) in SHAPES {
        if k == 0 || n == 0 {
            continue; // QuantMatrix requires a non-empty weight matrix
        }
        let w = QuantMatrix::quantize(&mat(k, n, 0x2A0 + (k * 29 + n) as u64)).unwrap();
        let x = mat(m, k, 0x2B0 + (m * 23 + k) as u64);
        let bias: Vec<f32> = (0..n).map(|j| (j as f32).sin() * 0.1).collect();
        for (path, mk_plan) in [
            ("tiled", tiled_plan as fn(Backend) -> KernelPlan),
            ("axpy", axpy_plan),
        ] {
            let mut scalar_out = Matrix::default();
            let mut simd_out = Matrix::default();
            let mut scratch = QuantScratch::new();
            w.matmul_bias_act_into_exec(
                &x,
                &bias,
                act,
                &mut scalar_out,
                &mut scratch,
                &Exec::from_plan(mk_plan(Backend::Scalar)),
            )
            .unwrap();
            w.matmul_bias_act_into_exec(
                &x,
                &bias,
                act,
                &mut simd_out,
                &mut scratch,
                &Exec::from_plan(mk_plan(simd)),
            )
            .unwrap();
            // The int8 GEMM ignores the f32 plan knobs, and integer
            // accumulation is exact: any difference is a bug, not
            // rounding.
            assert_eq!(
                scalar_out, simd_out,
                "i8 {simd} vs scalar, shape ({m},{k},{n}) f32 plan {path}"
            );
        }
    }
}

#[test]
fn forced_simd_plan_sanitizes_to_available_backend() {
    // A plan carrying a backend this host can't run must degrade to
    // scalar rather than fault — the heterogeneous-fleet guarantee.
    for backend in Backend::ALL {
        let plan = tiled_plan(backend).sanitized();
        assert!(plan.backend.is_available());
        if !backend.is_available() {
            assert_eq!(plan.backend, Backend::Scalar);
        }
        // And the Exec constructor applies the same clamp.
        assert!(Exec::from_plan(tiled_plan(backend)).backend().is_available());
    }
    // Sanitizing keeps the thresholds that force each kernel path, so
    // the 1- and 3-row shapes above really run the tiled kernel.
    assert_eq!(Exec::from_plan(tiled_plan(Backend::Scalar)).plan().tiled_min_rows, 1);
    assert_eq!(Exec::from_plan(axpy_plan(Backend::Scalar)).plan().tiled_min_rows, usize::MAX);
}

/// Pool workers beside the calling thread in the cross-backend sweep;
/// 0 runs inline.
const POOL_WORKERS: [usize; 4] = [0, 1, 2, 8];

/// `(m, k, n)` of the cross-backend sweep: ragged lane, tile and block
/// tails, 4-row quads with a 2-row and a 1-row remainder, and `k` past
/// one and two 256-deep panels.
const SWEEP_SHAPES: &[(usize, usize, usize)] = &[
    (5, 9, 3),
    (16, 64, 32),
    (13, 31, 37),
    (37, 257, 65),
    (9, 513, 65),
];

/// The seeded operands `(A, B, G, query)` of one sweep shape.
fn sweep_operands(m: usize, k: usize, n: usize) -> (Matrix, Matrix, Matrix, Matrix) {
    let seed = (m * 131 + k * 17 + n) as u64;
    (
        mat(m, k, 0x3A0 + seed),
        mat(k, n, 0x3B0 + seed),
        mat(m, n, 0x3C0 + seed),
        mat(1, k, 0x3D0 + seed),
    )
}

/// Output bits of every GEMM and distance kernel on `(a, b, g)` under
/// `backend` with `workers` pool workers, as `(f32, int8)` lists. The
/// f32 list covers the tiled GEMM (`tile_fma`, its zero-skip row tail
/// and axpy column tail), the streaming axpy GEMM, `G·Bᵀ` (the 4×4 and
/// 2×4 dot tiles and `dot_lanes`) and `Aᵀ·G`; the int8 list the int8
/// GEMM (`qtile`) on both f32 plan paths and the coarse scans of a
/// quantised row store (`qdot`, `qdot4`).
fn dispatch_bits(
    backend: Backend,
    workers: usize,
    (a, b, g): (&Matrix, &Matrix, &Matrix),
    query: &[f32],
) -> (Vec<Vec<u32>>, Vec<Vec<u32>>) {
    let exec = |tiled_min_rows| {
        Exec::from_plan(KernelPlan {
            threads: workers + 1,
            tiled_min_rows,
            par_min_rows: 1,
            backend,
        })
    };
    let (tiled, axpy) = (exec(1), exec(usize::MAX));
    assert_eq!(tiled.backend(), backend, "candidates are available");
    let mut m = Matrix::default();
    let mut f32_bits = Vec::new();
    a.matmul_into_exec(b, &mut m, &tiled).unwrap();
    f32_bits.push(bits(&m));
    a.matmul_into_exec(b, &mut m, &axpy).unwrap();
    f32_bits.push(bits(&m));
    g.matmul_transpose_into_exec(b, &mut m, &tiled).unwrap();
    f32_bits.push(bits(&m));
    a.transpose_matmul_into_exec(g, &mut m, &tiled).unwrap();
    f32_bits.push(bits(&m));

    let mut int8_bits = Vec::new();
    let w = QuantMatrix::quantize(b).unwrap();
    // Plain arithmetic, not a libm call: the golden digest below must
    // not depend on how the platform's libm rounds.
    let bias: Vec<f32> = (0..b.cols()).map(|j| ((j % 7) as f32 - 3.0) * 0.03).collect();
    let mut scratch = QuantScratch::new();
    for exec in [&tiled, &axpy] {
        w.matmul_bias_act_into_exec(a, &bias, |v| v.max(0.0), &mut m, &mut scratch, exec)
            .unwrap();
        int8_bits.push(bits(&m));
    }
    let mut store = QuantRowStore::new(a.cols()).unwrap();
    for r in 0..a.rows() {
        store.push(a.row(r));
    }
    let mut q = Vec::new();
    let (qs, qn) = quantize_query(query, &mut q);
    let mut d = Vec::new();
    store.coarse_sq_l2(backend, &q, qs, qn, &mut d);
    int8_bits.push(d.iter().map(|v| v.to_bits()).collect());
    store.coarse_cosine(backend, &q, qs, qn, &mut d);
    int8_bits.push(d.iter().map(|v| v.to_bits()).collect());
    (f32_bits, int8_bits)
}

/// Every backend the host can run, at every pool size, computes each
/// f32 and int8 kernel bit for bit like the AVX2 instance run inline
/// (on a host without AVX2 the reference degrades to scalar). f32 is
/// compared wherever both sides fuse their multiply-adds — everywhere
/// on an FMA build; int8 always.
#[test]
fn every_backend_and_pool_size_equals_the_avx2_instance() {
    let reference = KernelPlan::inline().with_backend(Backend::Avx2).backend;
    let fused = |b: Backend| b != Backend::Scalar || cfg!(target_feature = "fma");
    for &(m, k, n) in SWEEP_SHAPES {
        let (a, b, g, query) = sweep_operands(m, k, n);
        let (want_f32, want_i8) = dispatch_bits(reference, 0, (&a, &b, &g), query.row(0));
        for backend in Backend::candidates() {
            for workers in POOL_WORKERS {
                let (f32_bits, i8_bits) =
                    dispatch_bits(backend, workers, (&a, &b, &g), query.row(0));
                let what = format!("{backend}, {workers} workers, shape ({m},{k},{n})");
                if fused(backend) == fused(reference) {
                    for (op, (got, want)) in f32_bits.iter().zip(&want_f32).enumerate() {
                        assert!(got == want, "f32 op {op} vs {reference}: {what}");
                    }
                }
                for (op, (got, want)) in i8_bits.iter().zip(&want_i8).enumerate() {
                    assert!(got == want, "int8 op {op} vs {reference}: {what}");
                }
            }
        }
    }
}

/// FNV-1a over every output bit pattern of [`dispatch_bits`] on the
/// shapes of the cross-backend sweep.
fn dispatch_digest(backend: Backend) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &(m, k, n) in SWEEP_SHAPES {
        let (a, b, g, query) = sweep_operands(m, k, n);
        let (f32_bits, i8_bits) = dispatch_bits(backend, 0, (&a, &b, &g), query.row(0));
        for v in f32_bits.iter().chain(&i8_bits).flatten() {
            for byte in v.to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

/// The kernels' outputs are pinned to a digest taken before the cache
/// blocking of `A·Bᵀ`, the blocked transpose pack and the AVX-512 tiles
/// existed: those changes move no bit. An FMA build only; without FMA
/// the scalar `fma` helper rounds twice and the f32 bits differ.
#[test]
fn outputs_match_the_digest_of_the_unblocked_kernels() {
    if !cfg!(target_feature = "fma") {
        eprintln!("skipping: the digest is of an FMA build");
        return;
    }
    for backend in Backend::candidates() {
        assert_eq!(dispatch_digest(backend), 0xf793_6eb7_326b_03dc, "{backend}");
    }
}
