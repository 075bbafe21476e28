//! Property-based tests for the tensor substrate.
//!
//! These pin down the algebraic laws the NN training code silently relies
//! on: matmul distributivity/associativity with transpose, metric axioms
//! for the NCM distance kernels, and lossless binary round-trips.

use bytes::BytesMut;
use magneto_tensor::matrix::Matrix;
use magneto_tensor::serialize::{decode_matrix, encode_matrix};
use magneto_tensor::stats;
use magneto_tensor::vector;
use magneto_tensor::{Backend, Exec, KernelPlan, Workspace};
use proptest::prelude::*;

fn small_f32() -> impl Strategy<Value = f32> {
    // Keep magnitudes modest so float error bounds stay simple.
    (-100i32..=100).prop_map(|v| v as f32 / 4.0)
}

fn matrix_strategy(max_dim: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        prop::collection::vec(small_f32(), r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data).unwrap())
    })
}

fn paired_matrices(max_dim: usize) -> impl Strategy<Value = (Matrix, Matrix)> {
    (1..=max_dim, 1..=max_dim, 1..=max_dim).prop_flat_map(|(m, k, n)| {
        let a = prop::collection::vec(small_f32(), m * k)
            .prop_map(move |d| Matrix::from_vec(m, k, d).unwrap());
        let b = prop::collection::vec(small_f32(), k * n)
            .prop_map(move |d| Matrix::from_vec(k, n, d).unwrap());
        (a, b)
    })
}

/// Like [`paired_matrices`] but with enough lhs rows to cross the
/// register-tiled dispatch threshold of `matmul_into`, and rhs widths
/// spanning both full 32-column tiles and ragged tails.
fn tall_paired_matrices() -> impl Strategy<Value = (Matrix, Matrix)> {
    (16..=48usize, 1..=24usize, 1..=48usize).prop_flat_map(|(m, k, n)| {
        let a = prop::collection::vec(small_f32(), m * k)
            .prop_map(move |d| Matrix::from_vec(m, k, d).unwrap());
        let b = prop::collection::vec(small_f32(), k * n)
            .prop_map(move |d| Matrix::from_vec(k, n, d).unwrap());
        (a, b)
    })
}

fn approx_eq(a: &Matrix, b: &Matrix, tol: f32) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice().iter())
            .all(|(&x, &y)| (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())))
}

proptest! {
    #[test]
    fn transpose_is_involution(m in matrix_strategy(12)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matmul_transpose_law((a, b) in paired_matrices(8)) {
        // (A B)^T == B^T A^T
        let left = a.matmul(&b).unwrap().transpose();
        let right = b.transpose().matmul(&a.transpose()).unwrap();
        prop_assert!(approx_eq(&left, &right, 1e-4));
    }

    #[test]
    fn matmul_transposed_consistent((a, b) in paired_matrices(8)) {
        // a.matmul_transposed(c) where c = b^T equals a.matmul(b)
        let c = b.transpose();
        let direct = a.matmul_transposed(&c).unwrap();
        let explicit = a.matmul(&b).unwrap();
        prop_assert!(approx_eq(&direct, &explicit, 1e-4));
    }

    #[test]
    fn blocked_matmul_matches_naive_oracle((a, b) in paired_matrices(12)) {
        // The production kernel (axpy path at these sizes) against the
        // reference triple loop it replaced.
        let naive = a.matmul_naive(&b).unwrap();
        let mut out = Matrix::zeros(0, 0);
        a.matmul_into(&b, &mut out).unwrap();
        prop_assert!(approx_eq(&out, &naive, 1e-4));
    }

    #[test]
    fn tiled_matmul_matches_naive_oracle((a, b) in tall_paired_matrices()) {
        // Same law, but with enough rows that matmul_into dispatches to
        // the register-tiled kernel (including its row/column tails).
        let naive = a.matmul_naive(&b).unwrap();
        let mut out = Matrix::zeros(0, 0);
        a.matmul_into(&b, &mut out).unwrap();
        prop_assert!(approx_eq(&out, &naive, 1e-4));
    }

    #[test]
    fn tiled_batch_rows_equal_per_row_axpy((a, b) in tall_paired_matrices()) {
        // The batched (tiled) and per-sample (axpy) paths accumulate k in
        // the same order through the same fma primitive, so a batch
        // result must equal the row-at-a-time results bit for bit.
        let full = a.matmul(&b).unwrap();
        for i in 0..a.rows() {
            let row = Matrix::from_vec(1, a.cols(), a.row(i).to_vec()).unwrap();
            let single = row.matmul(&b).unwrap();
            prop_assert_eq!(full.row(i), single.row(0), "row {}", i);
        }
    }

    #[test]
    fn matmul_transpose_into_matches_naive_oracle((a, b) in paired_matrices(8)) {
        // A·(Bᵀ)ᵀ == A·B: feed the transposed rhs through the
        // B-transposed kernel and compare against the oracle.
        let c = b.transpose();
        let mut out = Matrix::zeros(0, 0);
        a.matmul_transpose_into(&c, &mut out).unwrap();
        let naive = a.matmul_naive(&b).unwrap();
        prop_assert!(approx_eq(&out, &naive, 1e-4));
    }

    #[test]
    fn transpose_matmul_into_matches_naive_oracle((a, b) in paired_matrices(8)) {
        // Aᵀ·D via the scatter kernel equals the oracle on the
        // materialised transpose.
        let d = a.matmul_naive(&b).unwrap();
        let mut out = Matrix::zeros(0, 0);
        a.transpose_matmul_into(&d, &mut out).unwrap();
        let naive = a.transpose().matmul_naive(&d).unwrap();
        prop_assert!(approx_eq(&out, &naive, 1e-4));
    }

    #[test]
    fn matmul_into_overwrites_stale_output((a, b) in paired_matrices(8)) {
        // A reused output buffer with a stale shape and stale contents
        // must end up identical to a fresh allocation.
        let mut out = Matrix::from_vec(2, 3, vec![9.0; 6]).unwrap();
        a.matmul_into(&b, &mut out).unwrap();
        prop_assert_eq!(out, a.matmul(&b).unwrap());
    }

    #[test]
    fn workspace_take_is_always_zeroed(m in matrix_strategy(8)) {
        // Whatever was given back, the next take of any shape is zeroed.
        let mut ws = Workspace::new();
        let (r, c) = m.shape();
        ws.give(m);
        let t = ws.take(r + 1, c);
        prop_assert_eq!(t.shape(), (r + 1, c));
        prop_assert!(t.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn identity_is_neutral(m in matrix_strategy(10)) {
        let i = Matrix::identity(m.cols());
        prop_assert!(approx_eq(&m.matmul(&i).unwrap(), &m, 1e-6));
    }

    #[test]
    fn add_commutes(m in matrix_strategy(10)) {
        let doubled = m.add(&m).unwrap();
        prop_assert!(approx_eq(&doubled, &m.scale(2.0), 1e-6));
    }

    #[test]
    fn sub_self_is_zero(m in matrix_strategy(10)) {
        let z = m.sub(&m).unwrap();
        prop_assert!(z.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn vstack_preserves_rows(m in matrix_strategy(8)) {
        let stacked = m.vstack(&m).unwrap();
        prop_assert_eq!(stacked.rows(), m.rows() * 2);
        prop_assert_eq!(stacked.row(m.rows()), m.row(0));
    }

    #[test]
    fn binary_roundtrip_lossless(m in matrix_strategy(12)) {
        let mut buf = BytesMut::new();
        encode_matrix(&m, &mut buf);
        let back = decode_matrix(&mut buf.freeze()).unwrap();
        prop_assert_eq!(m, back);
    }

    #[test]
    fn euclidean_symmetry(a in prop::collection::vec(small_f32(), 1..32)) {
        let b: Vec<f32> = a.iter().map(|v| v + 1.0).collect();
        let d1 = vector::euclidean(&a, &b);
        let d2 = vector::euclidean(&b, &a);
        prop_assert!((d1 - d2).abs() < 1e-5);
        prop_assert!(d1 >= 0.0);
    }

    #[test]
    fn triangle_inequality(
        a in prop::collection::vec(small_f32(), 4),
        b in prop::collection::vec(small_f32(), 4),
        c in prop::collection::vec(small_f32(), 4),
    ) {
        let ab = vector::euclidean(&a, &b);
        let bc = vector::euclidean(&b, &c);
        let ac = vector::euclidean(&a, &c);
        prop_assert!(ac <= ab + bc + 1e-4);
    }

    #[test]
    fn cosine_similarity_bounded(
        a in prop::collection::vec(small_f32(), 1..16),
        b in prop::collection::vec(small_f32(), 1..16),
    ) {
        let n = a.len().min(b.len());
        let s = vector::cosine_similarity(&a[..n], &b[..n]);
        prop_assert!((-1.0..=1.0).contains(&s));
    }

    #[test]
    fn softmax_is_distribution(v in prop::collection::vec(small_f32(), 1..16)) {
        let p = vector::softmax(&v);
        prop_assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-4);
        prop_assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn stats_bounds(v in prop::collection::vec(small_f32(), 2..64)) {
        let lo = stats::min(&v);
        let hi = stats::max(&v);
        prop_assert!(lo <= stats::mean(&v) + 1e-4);
        prop_assert!(stats::mean(&v) <= hi + 1e-4);
        prop_assert!(lo <= stats::median(&v) && stats::median(&v) <= hi);
        prop_assert!(stats::variance(&v) >= 0.0);
        prop_assert!(stats::iqr(&v) >= -1e-5);
        let zcr = stats::zero_crossing_rate(&v);
        prop_assert!((0.0..=1.0).contains(&zcr));
    }

    #[test]
    fn pearson_bounded(v in prop::collection::vec(small_f32(), 2..32)) {
        let w: Vec<f32> = v.iter().rev().cloned().collect();
        let r = stats::pearson(&v, &w);
        prop_assert!((-1.0..=1.0).contains(&r));
    }

    #[test]
    fn l2_normalized_rows_unit_or_zero(m in matrix_strategy(8)) {
        let mut m = m;
        m.l2_normalize_rows();
        for r in 0..m.rows() {
            let n: f32 = m.row(r).iter().map(|v| v * v).sum::<f32>().sqrt();
            prop_assert!(n < 1e-6 || (n - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn select_rows_picks_expected(m in matrix_strategy(8)) {
        let idx: Vec<usize> = (0..m.rows()).rev().collect();
        let s = m.select_rows(&idx).unwrap();
        for (out_r, &src_r) in idx.iter().enumerate() {
            prop_assert_eq!(s.row(out_r), m.row(src_r));
        }
    }
}

/// Execution contexts for the determinism properties below, one per pool
/// size, built once (pool threads are reused across proptest cases). The
/// `par_min_rows` floor is lowered so even small generated matrices take
/// the parallel dispatch path.
fn pooled_execs() -> &'static [Exec] {
    static EXECS: std::sync::OnceLock<Vec<Exec>> = std::sync::OnceLock::new();
    EXECS.get_or_init(|| {
        [1usize, 2, 8]
            .iter()
            .map(|&t| {
                let mut plan = KernelPlan::inline().with_threads(t);
                plan.par_min_rows = 8;
                Exec::from_plan(plan)
            })
            .collect()
    })
}

/// Execution contexts for the gradient-GEMM property: pool sizes 1, 2
/// and 4 on every backend the host can run, with the
/// parallel floor lowered as in [`pooled_execs`].
fn dw_execs() -> &'static [Exec] {
    static EXECS: std::sync::OnceLock<Vec<Exec>> = std::sync::OnceLock::new();
    EXECS.get_or_init(|| {
        let mut execs = Vec::new();
        for backend in Backend::candidates() {
            for threads in [1usize, 2, 4] {
                let mut plan = KernelPlan::inline().with_threads(threads).with_backend(backend);
                plan.par_min_rows = 8;
                execs.push(Exec::from_plan(plan));
            }
        }
        execs
    })
}

/// Values with full mantissas, so products and sums round and the
/// accumulation order shows in the bits.
fn rounding_f32() -> impl Strategy<Value = f32> {
    (-1_000_000i32..=1_000_000).prop_map(|v| v as f32 * 1.234_567e-6)
}

/// Activation-like values: about half exact zeros (post-ReLU rows), so
/// the zero-skip of the reference scatter is exercised.
fn sparse_f32() -> impl Strategy<Value = f32> {
    rounding_f32().prop_map(|v| v.max(0.0))
}

/// `(x, δ)` sharing their row count `r`, with `x` columns on both sides
/// of the tiled dispatch threshold and `δ` widths with ragged tails.
fn gradient_pair() -> impl Strategy<Value = (Matrix, Matrix)> {
    (1..=40usize, 1..=40usize, 1..=40usize).prop_flat_map(|(r, c, n)| {
        let x = prop::collection::vec(sparse_f32(), r * c)
            .prop_map(move |d| Matrix::from_vec(r, c, d).unwrap());
        let delta = prop::collection::vec(rounding_f32(), r * n)
            .prop_map(move |d| Matrix::from_vec(r, n, d).unwrap());
        (x, delta)
    })
}

/// The gradient scatter `dW = xᵀ·δ` as the r-outer loop: for each shared
/// row `r` in ascending order, each nonzero `x[r][i]` adds `x[r][i]·δ[r]`
/// into output row `i` through the same fused multiply-add the kernels use.
fn scatter_dw(x: &Matrix, delta: &Matrix) -> Matrix {
    let fma = |a: f32, b: f32, c: f32| {
        if cfg!(target_feature = "fma") {
            a.mul_add(b, c)
        } else {
            a * b + c
        }
    };
    let mut out = Matrix::zeros(x.cols(), delta.cols());
    for r in 0..x.rows() {
        for (i, &a) in x.row(r).iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            for (o, &d) in out.row_mut(i).iter_mut().zip(delta.row(r)) {
                *o = fma(a, d, *o);
            }
        }
    }
    out
}

proptest! {
    /// The packed gradient GEMM accumulates every `dW` element in the
    /// scatter's ascending-row order, so it equals the scatter bit for
    /// bit at every pool size and on every backend.
    #[test]
    fn transpose_matmul_equals_row_scatter_bitwise((x, delta) in gradient_pair()) {
        let expected = scatter_dw(&x, &delta);
        for exec in dw_execs() {
            let mut out = Matrix::filled(3, 3, 7.0);
            x.transpose_matmul_into_exec(&delta, &mut out, exec).unwrap();
            prop_assert_eq!(out.shape(), expected.shape());
            let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(
                bits(&out),
                bits(&expected),
                "threads={} backend={}",
                exec.threads(),
                exec.backend()
            );
        }
    }
}

proptest! {
    /// The tentpole determinism claim: every exec GEMM kernel produces
    /// bit-identical output at any pool size, because row panels are
    /// aligned to kernel tile heights and per-element accumulation order
    /// never changes.
    #[test]
    fn matmul_exec_bit_identical_at_any_pool_size((a, b) in tall_paired_matrices()) {
        let mut reference = Matrix::zeros(0, 0);
        a.matmul_into_exec(&b, &mut reference, &Exec::inline()).unwrap();
        for exec in pooled_execs() {
            let mut out = Matrix::zeros(0, 0);
            a.matmul_into_exec(&b, &mut out, exec).unwrap();
            prop_assert_eq!(&out, &reference, "threads={}", exec.threads());
        }
    }

    #[test]
    fn matmul_transpose_exec_bit_identical((a, b) in tall_paired_matrices()) {
        let c = b.transpose();
        let mut reference = Matrix::zeros(0, 0);
        a.matmul_transpose_into_exec(&c, &mut reference, &Exec::inline()).unwrap();
        for exec in pooled_execs() {
            let mut out = Matrix::zeros(0, 0);
            a.matmul_transpose_into_exec(&c, &mut out, exec).unwrap();
            prop_assert_eq!(&out, &reference, "threads={}", exec.threads());
        }
    }

    #[test]
    fn transpose_matmul_exec_bit_identical((a, b) in tall_paired_matrices()) {
        let d = a.matmul_naive(&b).unwrap();
        let mut reference = Matrix::zeros(0, 0);
        a.transpose_matmul_into_exec(&d, &mut reference, &Exec::inline()).unwrap();
        for exec in pooled_execs() {
            let mut out = Matrix::zeros(0, 0);
            a.transpose_matmul_into_exec(&d, &mut out, exec).unwrap();
            prop_assert_eq!(&out, &reference, "threads={}", exec.threads());
        }
    }

    /// The fused bias+activation epilogue must match the separate
    /// matmul → add-bias → activate passes bit for bit (bias is added
    /// once after full k-accumulation, exactly like the unfused path),
    /// at every pool size.
    #[test]
    fn fused_bias_act_exec_bit_identical((a, b) in tall_paired_matrices()) {
        let bias: Vec<f32> = (0..b.cols()).map(|c| c as f32 / 8.0 - 1.0).collect();
        let relu = |v: f32| if v > 0.0 { v } else { 0.0 };
        let mut reference = Matrix::zeros(0, 0);
        a.matmul_into_exec(&b, &mut reference, &Exec::inline()).unwrap();
        for r in 0..reference.rows() {
            for (o, &bv) in reference.row_mut(r).iter_mut().zip(bias.iter()) {
                *o = relu(*o + bv);
            }
        }
        for exec in std::iter::once(&Exec::inline()).chain(pooled_execs()) {
            let mut out = Matrix::zeros(0, 0);
            a.matmul_bias_act_into_exec(&b, &bias, relu, &mut out, exec).unwrap();
            prop_assert_eq!(&out, &reference, "threads={}", exec.threads());
        }
    }
}
