//! On-device training smoke test (wired into `make check`): times the
//! Siamese train step at the served update shape (the paper backbone,
//! `TrainerConfig::edge_update()`'s 64 pairs = 128 stacked rows) and
//! batched inference across compute-pool sizes under the served kernel
//! plan (`host_default().with_backend(Backend::detect())`), emits
//! machine-readable `BENCH_train.json` / `BENCH_infer.json`, and gates
//! on three properties of the execution path:
//!
//! 1. **Determinism** — the trained weights (and inference embeddings)
//!    must be bit-identical at every pool size, including one thread.
//! 2. **Backend identity** — a train step on forced scalar and on the
//!    forced detected SIMD backend must leave byte-identical weights (on
//!    an FMA build; DESIGN.md §14), and so must the batched embeddings.
//! 3. **No regression** — running under a parallel installed kernel
//!    plan must not be slower than the same plan on one thread: the
//!    median over alternated sequential/plan pairs of the per-pair
//!    speedup must be ≥ 1.0×. When the host resolves to one thread both
//!    runs are the same sequential code, so the pool speedup is reported
//!    as unmeasured (`gate_speedup: null`) instead of passing a gate on
//!    timer noise.
//!
//! The per-thread-count rows are recorded in the JSON whatever they
//! measure — on a single-core host the 2/4/8-thread rows honestly show
//! dispatch overhead rather than speedup.

use magneto_nn::pairs::{sample_pairs, PairSample};
use magneto_nn::serialize::encode_mlp;
use magneto_nn::siamese::TrainScratch;
use magneto_nn::{Adam, Mlp, SiameseNetwork, TrainerConfig, PAPER_BACKBONE};
use magneto_tensor::{Backend, Exec, KernelPlan, Matrix, SeededRng, Workspace};
use serde::Serialize;
use std::time::Instant;

const DIMS: &[usize] = &PAPER_BACKBONE;
const CLASSES: usize = 4;
const ROWS_PER_CLASS: usize = 32;
const TRAIN_STEPS: usize = 30;
const INFER_REPS: usize = 50;
const THREAD_SWEEP: &[usize] = &[1, 2, 4, 8];
/// Alternated sequential/installed-plan training runs behind the pool
/// gate. Alternating puts both sides of a pair under the same host
/// load, and the median ignores a pair that a burst of load hit.
const GATE_PAIRS: usize = 9;

#[derive(Serialize)]
struct BenchEntry {
    threads: usize,
    mean_ms: f64,
    p50_ms: f64,
    p99_ms: f64,
    speedup_vs_1: f64,
    bit_identical_to_sequential: bool,
}

#[derive(Serialize)]
struct BenchReport {
    bench: String,
    /// Backbone layer widths of the timed call.
    dims: Vec<usize>,
    /// Rows through the backbone per timed call (a train step stacks
    /// both views of each pair).
    rows_per_call: usize,
    plan: String,
    backend: String,
    host_threads: usize,
    iterations: usize,
    entries: Vec<BenchEntry>,
    /// Installed-plan speedup over forced sequential, the median of
    /// `GATE_PAIRS` alternated pairs; `None` when the plan runs one
    /// thread and the speedup is unmeasured.
    gate_speedup: Option<f64>,
    gate_threshold: f64,
    /// SIMD backend the host detected, if any (`None` = scalar-only).
    simd_backend: Option<String>,
    /// Forced-SIMD vs forced-scalar embed speedup on this host.
    simd_speedup_vs_scalar: Option<f64>,
}

struct Timings {
    mean_ms: f64,
    p50_ms: f64,
    p99_ms: f64,
}

fn stats(mut ms: Vec<f64>) -> Timings {
    ms.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let mean_ms = ms.iter().sum::<f64>() / ms.len() as f64;
    let pct = |p: f64| ms[((ms.len() - 1) as f64 * p).round() as usize];
    Timings {
        mean_ms,
        p50_ms: pct(0.50),
        p99_ms: pct(0.99),
    }
}

/// Gaussian class blobs in the DSP feature dimension.
fn dataset() -> (Matrix, Vec<usize>) {
    let mut rng = SeededRng::new(0xBEEF);
    let mut rows = Vec::new();
    let mut labels = Vec::new();
    for c in 0..CLASSES {
        for _ in 0..ROWS_PER_CLASS {
            let row: Vec<f32> = (0..DIMS[0])
                .map(|d| rng.normal_with(if d % CLASSES == c { 2.0 } else { 0.0 }, 1.0))
                .collect();
            rows.push(row);
            labels.push(c);
        }
    }
    (Matrix::from_rows(&rows).expect("dataset"), labels)
}

/// Train a fresh copy of `init` for `TRAIN_STEPS` fixed pair batches on
/// the given exec; returns the trained backbone and per-step times.
fn train_run(
    init: &SiameseNetwork,
    features: &Matrix,
    batches: &[Vec<PairSample>],
    exec: Exec,
) -> (Mlp, Vec<f64>) {
    let mut net = init.clone();
    let mut opt = Adam::new(2e-3);
    let mut scratch = TrainScratch::with_exec(exec);
    let mut times = Vec::with_capacity(batches.len());
    for pairs in batches {
        let t0 = Instant::now();
        net.train_step_masked_with(features, pairs, &mut opt, None, None, 5.0, &mut scratch)
            .expect("train step");
        times.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    (net.into_backbone(), times)
}

/// Embed the whole feature matrix `INFER_REPS` times on the given exec;
/// returns the last embedding batch and per-call times.
fn infer_run(net: &SiameseNetwork, features: &Matrix, exec: Exec) -> (Matrix, Vec<f64>) {
    let mut ws = Workspace::with_exec(exec);
    let mut out = Matrix::default();
    let mut times = Vec::with_capacity(INFER_REPS);
    for _ in 0..INFER_REPS {
        let t0 = Instant::now();
        net.embed_into(features, &mut out, &mut ws).expect("embed");
        times.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    (out, times)
}

fn write_report(path: &str, report: &BenchReport) {
    let json = serde_json::to_string_pretty(report).expect("serialize report");
    std::fs::write(path, json).expect("write report");
    println!("train_smoke: wrote {path}");
}

fn main() {
    let plan = KernelPlan::host_default().with_backend(Backend::detect());
    let host_threads = plan.threads;
    println!("train_smoke: host isa {}", Backend::isa_summary());
    println!("train_smoke: kernel plan [{}]", plan.describe());

    let (features, labels) = dataset();
    let pairs_per_step = TrainerConfig::edge_update().batch_pairs;
    let mut rng = SeededRng::new(0x5EED);
    let init = SiameseNetwork::new(Mlp::new(DIMS, &mut rng).expect("backbone"), 1.0);
    let batches: Vec<Vec<PairSample>> = (0..TRAIN_STEPS)
        .map(|_| sample_pairs(&labels, pairs_per_step, &mut rng))
        .collect();

    // ---- training sweep -------------------------------------------------
    let seq_exec = Exec::from_plan(plan.with_threads(1));
    let (seq_weights, seq_times) = train_run(&init, &features, &batches, seq_exec.clone());
    let seq_mean = stats(seq_times.clone()).mean_ms;

    let mut train_entries = Vec::new();
    for &t in THREAD_SWEEP {
        let exec = Exec::from_plan(plan.with_threads(t));
        let (weights, times) = train_run(&init, &features, &batches, exec);
        let identical = weights == seq_weights;
        assert!(
            identical,
            "trained weights at {t} threads differ from the sequential path"
        );
        let s = stats(times);
        train_entries.push(BenchEntry {
            threads: t,
            mean_ms: s.mean_ms,
            p50_ms: s.p50_ms,
            p99_ms: s.p99_ms,
            speedup_vs_1: seq_mean / s.mean_ms,
            bit_identical_to_sequential: identical,
        });
        println!(
            "train_smoke: train {t:>2} thread(s): mean {:.3} ms, p50 {:.3} ms, p99 {:.3} ms, speedup {:.2}x",
            s.mean_ms,
            s.p50_ms,
            s.p99_ms,
            seq_mean / s.mean_ms
        );
    }

    // The gate compares the *installed plan* against forced sequential: a
    // parallel plan must win outright. The host drifts over seconds, so
    // the two run in alternated pairs and the gate reads the median
    // per-pair ratio. A single-thread plan (1-core host) runs the same
    // code both times, so only timer noise separates them: the speedup
    // is unmeasured there, and said so, rather than gated.
    let plan_exec = Exec::from_plan(plan);
    let mut ratios = Vec::with_capacity(GATE_PAIRS);
    for pair in 0..GATE_PAIRS {
        let (_, seq_times) = train_run(&init, &features, &batches, seq_exec.clone());
        let (plan_weights, plan_times) = train_run(&init, &features, &batches, plan_exec.clone());
        assert_eq!(
            plan_weights, seq_weights,
            "trained weights under the installed plan differ from the sequential path"
        );
        let (seq_ms, plan_ms) = (stats(seq_times).mean_ms, stats(plan_times).mean_ms);
        println!(
            "train_smoke: gate pair {pair}: sequential {seq_ms:.3} ms, plan {plan_ms:.3} ms, {:.2}x",
            seq_ms / plan_ms
        );
        ratios.push(seq_ms / plan_ms);
    }
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite ratios"));
    let plan_speedup = ratios[GATE_PAIRS / 2];
    let gate_threshold = 1.0;
    let gate_speedup = if plan.threads > 1 {
        println!(
            "train_smoke: installed plan ({} threads) median speedup {plan_speedup:.2}x over \
             {GATE_PAIRS} pairs (gate ≥ {gate_threshold:.1}x)",
            plan.threads
        );
        assert!(
            plan_speedup >= gate_threshold,
            "train step under the installed plan regressed: {plan_speedup:.2}x < {gate_threshold:.1}x"
        );
        Some(plan_speedup)
    } else {
        println!(
            "train_smoke: installed plan runs 1 thread: pool speedup unmeasured \
             (both runs sequential; median {plan_speedup:.2}x is timer noise, not gated)"
        );
        None
    };
    let gate = gate_speedup.map_or("unmeasured".to_string(), |g| format!("{g:.2}x"));

    write_report(
        "BENCH_train.json",
        &BenchReport {
            bench: "train_siamese_step".into(),
            dims: DIMS.to_vec(),
            rows_per_call: 2 * pairs_per_step,
            plan: plan.describe(),
            backend: plan.backend.to_string(),
            host_threads,
            iterations: TRAIN_STEPS,
            entries: train_entries,
            gate_speedup,
            gate_threshold,
            simd_backend: Backend::detect_simd().map(|b| b.name().to_string()),
            simd_speedup_vs_scalar: None,
        },
    );

    // ---- inference sweep ------------------------------------------------
    let trained = SiameseNetwork::new(seq_weights, 1.0);
    let (seq_emb, seq_times) = infer_run(&trained, &features, seq_exec.clone());
    let seq_mean = stats(seq_times.clone()).mean_ms;

    let mut infer_entries = Vec::new();
    for &t in THREAD_SWEEP {
        let exec = Exec::from_plan(plan.with_threads(t));
        let (emb, times) = infer_run(&trained, &features, exec);
        let identical = emb == seq_emb;
        assert!(
            identical,
            "batched embeddings at {t} threads differ from the sequential path"
        );
        let s = stats(times);
        infer_entries.push(BenchEntry {
            threads: t,
            mean_ms: s.mean_ms,
            p50_ms: s.p50_ms,
            p99_ms: s.p99_ms,
            speedup_vs_1: seq_mean / s.mean_ms,
            bit_identical_to_sequential: identical,
        });
        println!(
            "train_smoke: infer {t:>2} thread(s): mean {:.3} ms, p50 {:.3} ms, p99 {:.3} ms, speedup {:.2}x",
            s.mean_ms,
            s.p50_ms,
            s.p99_ms,
            seq_mean / s.mean_ms
        );
    }

    // ---- SIMD backend comparison ----------------------------------------
    // Forced scalar vs forced SIMD on one thread, so the comparison
    // isolates the micro-kernel. Every instance runs the scalar kernel's
    // FMA chains and lane-ordered sums, so on an FMA build the trained
    // weights and the embeddings are bit-identical (DESIGN.md §14); a
    // build without FMA rounds the scalar `fma` twice, and there the
    // embeddings are held to a tolerance instead.
    let mut simd_backend = None;
    let mut simd_speedup = None;
    if let Some(simd) = Backend::detect_simd() {
        let scalar_plan = plan.with_threads(1).with_backend(Backend::Scalar);
        let simd_plan = plan.with_threads(1).with_backend(simd);
        let fused = cfg!(target_feature = "fma");
        if fused {
            let (scalar_weights, _) =
                train_run(&init, &features, &batches, Exec::from_plan(scalar_plan));
            let (simd_weights, _) =
                train_run(&init, &features, &batches, Exec::from_plan(simd_plan));
            assert!(
                encode_mlp(&scalar_weights) == encode_mlp(&simd_weights),
                "weights trained on forced {simd} differ from forced scalar"
            );
            println!("train_smoke: {simd} vs scalar train step: trained weights byte-identical");
        } else {
            println!("train_smoke: build without FMA: {simd} vs scalar weights not compared");
        }
        let (scalar_emb, scalar_times) =
            infer_run(&trained, &features, Exec::from_plan(scalar_plan));
        let (simd_emb, simd_times) = infer_run(&trained, &features, Exec::from_plan(simd_plan));
        let max_diff = scalar_emb
            .as_slice()
            .iter()
            .zip(simd_emb.as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        if fused {
            let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert!(
                bits(&scalar_emb) == bits(&simd_emb),
                "forced-{simd} embeddings differ from scalar: max diff {max_diff}"
            );
        } else {
            assert!(
                max_diff <= 1e-3,
                "forced-{simd} embeddings diverge from scalar: max diff {max_diff}"
            );
        }
        let best = |ms: &[f64]| ms.iter().copied().fold(f64::INFINITY, f64::min);
        let speedup = best(&scalar_times) / best(&simd_times);
        println!(
            "train_smoke: {simd} vs scalar embed speedup {speedup:.2}x (max elementwise diff {max_diff:.1e})"
        );
        // Host-aware no-regression gate: explicit SIMD may tie with the
        // auto-vectorised scalar build, but must never badly lose to it.
        assert!(
            speedup >= 0.8,
            "forced-{simd} embed regressed vs scalar: {speedup:.2}x < 0.8x"
        );
        simd_backend = Some(simd.name().to_string());
        simd_speedup = Some(speedup);
    } else {
        println!("train_smoke: no SIMD backend on this host; skipping backend comparison");
    }

    write_report(
        "BENCH_infer.json",
        &BenchReport {
            bench: "batched_embed".into(),
            dims: DIMS.to_vec(),
            rows_per_call: features.rows(),
            plan: plan.describe(),
            backend: plan.backend.to_string(),
            host_threads,
            iterations: INFER_REPS,
            entries: infer_entries,
            gate_speedup,
            gate_threshold,
            simd_backend,
            simd_speedup_vs_scalar: simd_speedup,
        },
    );

    println!("train_smoke OK: bit-identical at all pool sizes, pool speedup {gate}");
}
