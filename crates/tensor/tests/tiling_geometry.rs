//! Tail- and edge-geometry tests for the tiled kernel layer.
//!
//! Every GEMM splits into tile / stage / global levels with per-backend
//! micro-kernels (a 4×32 register tile over 256-deep k-panels); the
//! seams of that split are the *geometry edges* — empty inner
//! dimensions, single rows/columns, prime sizes that leave ragged tile
//! and panel tails, and inner dimensions that cross one or two panel
//! boundaries. These tests pin them down on the scalar reference and,
//! when the host has a SIMD backend, on the SIMD instance too:
//!
//! * scalar tiled output is **bit-identical** to the streaming axpy
//!   kernel and to the naive i-k-j oracle (same `fma` chain, same
//!   ascending-`k` order — packing must not change a single bit);
//! * float SIMD output agrees with scalar within elementwise tolerance
//!   (the accuracy-gated policy of DESIGN.md §14);
//! * int8 output under a forced-SIMD plan is **bit-identical** to int8
//!   under scalar (exact integer accumulation has no rounding to
//!   disagree about; the oracle grid over every int8 tile remainder
//!   lives beside the kernel, in `quant.rs`).

use magneto_tensor::matrix::Matrix;
use magneto_tensor::{Backend, Exec, KernelPlan, QuantMatrix, QuantScratch, SeededRng};

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
    let Some(simd) = Backend::detect_simd() else {
        eprintln!("skipping: no SIMD backend on this host");
        return;
    };
    for &(m, k, n) in SHAPES {
        let a = mat(m, k, 0x1A0 + (m * 31 + k * 7 + n) as u64);
        let b = mat(k, n, 0x1B0 + (m + k * 13 + n * 3) as u64);
        // Tiled and streaming axpy kernels, then both backward kernels.
        // Accuracy-gated, not bit-gated: the SIMD kernels mirror the
        // scalar FMA chain, but the policy bar is tolerance.
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
            let diff = max_abs_diff(&scalar_out, &simd_out);
            assert!(
                diff <= 1e-4 * (k.max(1) as f32),
                "f32 {path} {simd} vs scalar diff {diff}, shape ({m},{k},{n})"
            );
        }
        if k > 0 {
            let g = mat(m, n, 0x1C0 + (m + n) as u64);
            let scalar_exec = Exec::from_plan(tiled_plan(Backend::Scalar));
            let simd_exec = Exec::from_plan(tiled_plan(simd));
            let (mut s, mut v) = (Matrix::default(), Matrix::default());
            g.matmul_transpose_into_exec(&b, &mut s, &scalar_exec).unwrap();
            g.matmul_transpose_into_exec(&b, &mut v, &simd_exec).unwrap();
            assert!(max_abs_diff(&s, &v) <= 1e-4 * (n.max(1) as f32), "G·Bᵀ ({m},{k},{n})");
            a.transpose_matmul_into_exec(&g, &mut s, &scalar_exec).unwrap();
            a.transpose_matmul_into_exec(&g, &mut v, &simd_exec).unwrap();
            assert!(max_abs_diff(&s, &v) <= 1e-4 * (m.max(1) as f32), "Aᵀ·G ({m},{k},{n})");
        }
    }
}

#[test]
fn simd_i8_is_bit_identical_to_scalar_on_edge_geometries() {
    let Some(simd) = Backend::detect_simd() else {
        eprintln!("skipping: no SIMD backend on this host");
        return;
    };
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
    for backend in [Backend::Avx2, Backend::Neon] {
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
