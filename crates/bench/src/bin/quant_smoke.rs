//! Quantised execution smoke test (wired into `make check`): measures
//! the int8 inference path against f32 end-to-end and emits
//! machine-readable `BENCH_quant.json`. Gates on three properties:
//!
//! 1. **Agreement** — an int8 device must agree with the f32 device on
//!    ≥ 99% of synthetic eval windows (the deploy-policy acceptance bar).
//! 2. **Determinism** — int8 batched embeddings must be bit-identical
//!    across compute-pool sizes, including fully inline: the i8×i8→i32
//!    kernels accumulate exactly, so any split of the row space commutes.
//! 3. **No regression** — the int8 forward under the installed kernel
//!    plan must not be slower than forced sequential (≥ 1.0× with a
//!    parallel plan; ≥ 0.9× noise floor on a single-thread host).
//!
//! On a host with a SIMD backend it also holds the int8 GEMM's SIMD
//! instance to its keep-or-delete bar: on the paper backbone, forced
//! SIMD must embed at least 1.05× faster than forced scalar at b8 and
//! b64 (b1 is reported, not gated). A host without SIMD records the
//! sweep as `unmeasured`.

use magneto_core::{CloudConfig, CloudInitializer, EdgeConfig, EdgeDevice, Precision};
use magneto_nn::{Mlp, SiameseNetwork};
use magneto_sensors::{GeneratorConfig, SensorDataset};
use magneto_tensor::{install_global, Backend, Exec, KernelPlan, Matrix, SeededRng, Workspace};
use serde::Serialize;
use std::time::Instant;

/// Backbone for the kernel-level sweep — big enough that threading the
/// GEMM matters.
const DIMS: &[usize] = &[80, 512, 256, 128];
const BATCH: usize = 128;
const REPS: usize = 50;
/// Pool sizes for the bit-identity sweep; 0 means fully inline.
const POOL_SWEEP: &[usize] = &[0, 1, 2, 8];
/// Batch sizes of the paper-backbone SIMD sweep: one window, a fleet
/// micro-batch, a full batch.
const BACKBONE_BATCHES: &[usize] = &[1, 8, 64];
/// Batch sizes the SIMD speedup is gated at.
const GATED_BATCHES: &[usize] = &[8, 64];
/// Alternated (forced SIMD, forced scalar) sample pairs per batch size.
const BACKBONE_PAIRS: usize = 15;
/// Rows embedded per timed sample (whole batches of the swept size).
const BACKBONE_SAMPLE_ROWS: usize = 256;
/// The int8 GEMM keeps its SIMD instance only while it embeds at least
/// this much faster than the scalar instance at the gated batch sizes.
const SIMD_INT8_MIN_SPEEDUP: f64 = 1.05;

#[derive(Serialize)]
struct SweepEntry {
    threads: usize,
    mean_ms: f64,
    p50_ms: f64,
    p99_ms: f64,
    bit_identical_to_inline: bool,
}

#[derive(Serialize)]
struct BackboneEntry {
    batch: usize,
    scalar_us_per_row: f64,
    simd_us_per_row: f64,
    /// Median over the alternated pairs of scalar time / SIMD time.
    speedup: f64,
    gated: bool,
}

#[derive(Serialize)]
struct QuantReport {
    bench: String,
    plan: String,
    backend: String,
    host_threads: usize,
    eval_windows: usize,
    agreement: f64,
    f32_per_window_ms: f64,
    int8_per_window_ms: f64,
    f32_resident_bytes: usize,
    int8_resident_bytes: usize,
    f32_bundle_bytes: usize,
    int8_bundle_bytes: usize,
    entries: Vec<SweepEntry>,
    gate_speedup: f64,
    gate_threshold: f64,
    /// SIMD backend the host detected, if any (`None` = scalar-only;
    /// the three fields below are `None` exactly when this one is).
    simd_backend: Option<String>,
    /// Forced-SIMD f32 device prediction agreement vs the scalar device.
    simd_f32_agreement: Option<f64>,
    /// Forced-SIMD int8 embeddings bit-identical to scalar (must be
    /// `true`: integer accumulation is exact on every backend).
    simd_int8_bit_identical: Option<bool>,
    /// Forced-SIMD-plan vs scalar int8 embed speedup on the `DIMS`
    /// sweep (b128, best of `REPS`); reported, not gated.
    simd_int8_speedup: Option<f64>,
    /// `measured on <backend>` or `unmeasured` (no SIMD backend).
    simd_int8_backbone_status: String,
    /// Paper-backbone forced-SIMD vs forced-scalar int8 embed sweep; the
    /// SIMD instance must reach `SIMD_INT8_MIN_SPEEDUP` at b8 and b64.
    simd_int8_backbone: Vec<BackboneEntry>,
}

struct Timings {
    min_ms: f64,
    mean_ms: f64,
    p50_ms: f64,
    p99_ms: f64,
}

fn stats(mut ms: Vec<f64>) -> Timings {
    ms.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let mean_ms = ms.iter().sum::<f64>() / ms.len() as f64;
    let pct = |p: f64| ms[((ms.len() - 1) as f64 * p).round() as usize];
    Timings {
        min_ms: ms[0],
        mean_ms,
        p50_ms: pct(0.50),
        p99_ms: pct(0.99),
    }
}

/// Embed `features` `REPS` times on the given exec; returns the last
/// embedding batch and per-call times.
fn quant_infer_run(net: &SiameseNetwork, features: &Matrix, exec: Exec) -> (Matrix, Vec<f64>) {
    let mut ws = Workspace::with_exec(exec);
    let mut out = Matrix::default();
    let mut times = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t0 = Instant::now();
        net.embed_into(features, &mut out, &mut ws).expect("embed");
        times.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    (out, times)
}

/// Paper-backbone int8 embed, one thread, forced `simd` against forced
/// scalar: per batch size, `BACKBONE_PAIRS` alternated samples of
/// `BACKBONE_SAMPLE_ROWS` rows each. Asserts bit-identical embeddings.
fn backbone_sweep(simd: Backend, plan: KernelPlan) -> Vec<BackboneEntry> {
    let mut rng = SeededRng::new(0x54);
    let qnet = SiameseNetwork::new(Mlp::paper_backbone(&mut rng).expect("backbone"), 1.0)
        .into_precision(Precision::Int8)
        .expect("quantize");
    let one_thread = plan.with_threads(1);
    let mut ws_simd = Workspace::with_exec(Exec::from_plan(one_thread.with_backend(simd)));
    let mut ws_scalar =
        Workspace::with_exec(Exec::from_plan(one_thread.with_backend(Backend::Scalar)));
    let (mut out_simd, mut out_scalar) = (Matrix::default(), Matrix::default());
    let mut entries = Vec::new();
    for &batch in BACKBONE_BATCHES {
        let rows: Vec<Vec<f32>> = (0..batch)
            .map(|_| (0..qnet.backbone().input_dim()).map(|_| rng.normal()).collect())
            .collect();
        let features = Matrix::from_rows(&rows).expect("features");
        let calls = BACKBONE_SAMPLE_ROWS / batch;
        let sample = |ws: &mut Workspace, out: &mut Matrix| {
            let t0 = Instant::now();
            for _ in 0..calls {
                qnet.embed_into(&features, out, ws).expect("embed");
            }
            t0.elapsed().as_secs_f64() * 1e6 / BACKBONE_SAMPLE_ROWS as f64
        };
        // Warm both workspaces before timing.
        sample(&mut ws_simd, &mut out_simd);
        sample(&mut ws_scalar, &mut out_scalar);
        assert_eq!(
            out_simd, out_scalar,
            "forced-{simd} paper-backbone int8 embeddings differ from scalar at b{batch}"
        );
        let (mut simd_us, mut scalar_us, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..BACKBONE_PAIRS {
            let v = sample(&mut ws_simd, &mut out_simd);
            let s = sample(&mut ws_scalar, &mut out_scalar);
            simd_us.push(v);
            scalar_us.push(s);
            ratios.push(s / v);
        }
        // `stats` reads any unit; its p50 is the median.
        let entry = BackboneEntry {
            batch,
            scalar_us_per_row: stats(scalar_us).p50_ms,
            simd_us_per_row: stats(simd_us).p50_ms,
            speedup: stats(ratios).p50_ms,
            gated: GATED_BATCHES.contains(&batch),
        };
        println!(
            "quant_smoke: paper backbone b{batch}: scalar {:.1} us/row, {simd} {:.1} us/row, {:.2}x{}",
            entry.scalar_us_per_row,
            entry.simd_us_per_row,
            entry.speedup,
            if entry.gated { " (gated)" } else { "" }
        );
        entries.push(entry);
    }
    entries
}

fn main() {
    let plan = KernelPlan::host_default();
    println!("quant_smoke: host isa {}", Backend::isa_summary());
    println!("quant_smoke: kernel plan [{}]", plan.describe());

    // ---- end-to-end: f32 vs int8 devices from one bundle ---------------
    let corpus = SensorDataset::generate(&GeneratorConfig::tiny(), 0x51);
    let (bundle, _) = CloudInitializer::new(CloudConfig::fast_demo())
        .pretrain(&corpus)
        .expect("pretrain");
    let f32_bundle_bytes = bundle.to_bytes(false).len();
    let int8_bundle_bytes = bundle.to_bytes(true).len();

    let deploy = |precision| {
        EdgeDevice::deploy(
            bundle.clone(),
            EdgeConfig {
                precision,
                ..EdgeConfig::default()
            },
        )
        .expect("deploy")
    };
    let mut f32_dev = deploy(Precision::F32);
    let mut int8_dev = deploy(Precision::Int8);
    println!(
        "quant_smoke: resident bytes f32 {} / int8 {} ({:.2}x)",
        f32_dev.resident_bytes(),
        int8_dev.resident_bytes(),
        int8_dev.resident_bytes() as f64 / f32_dev.resident_bytes() as f64
    );

    let eval = SensorDataset::generate(
        &GeneratorConfig {
            windows_per_class: 20,
            ..GeneratorConfig::tiny()
        },
        0x52,
    );
    let mut agree = 0usize;
    let (mut f32_ms, mut int8_ms) = (Vec::new(), Vec::new());
    let (mut f32_labels, mut int8_labels) = (Vec::new(), Vec::new());
    for w in &eval.windows {
        let t0 = Instant::now();
        let a = f32_dev.infer_window(&w.channels).expect("f32 infer");
        f32_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        let b = int8_dev.infer_window(&w.channels).expect("int8 infer");
        int8_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        if a.label == b.label {
            agree += 1;
        }
        f32_labels.push(a.label);
        int8_labels.push(b.label);
    }
    let agreement = agree as f64 / eval.windows.len() as f64;
    let f32_t = stats(f32_ms);
    let int8_t = stats(int8_ms);
    println!(
        "quant_smoke: agreement {agree}/{} ({:.1}%); per-window f32 {:.3} ms / int8 {:.3} ms",
        eval.windows.len(),
        agreement * 100.0,
        f32_t.mean_ms,
        int8_t.mean_ms
    );
    assert!(
        agreement >= 0.99,
        "int8 agreement {agreement:.3} below the 0.99 gate"
    );

    // ---- kernel-level sweep: bit-identity across pool sizes ------------
    let mut rng = SeededRng::new(0x53);
    let qnet = SiameseNetwork::new(Mlp::new(DIMS, &mut rng).expect("backbone"), 1.0)
        .into_precision(Precision::Int8)
        .expect("quantize");
    let rows: Vec<Vec<f32>> = (0..BATCH)
        .map(|_| (0..DIMS[0]).map(|_| rng.normal()).collect())
        .collect();
    let features = Matrix::from_rows(&rows).expect("features");

    let (inline_emb, inline_times) = quant_infer_run(&qnet, &features, Exec::inline());
    // Gate on best-observed time: the min is robust to scheduler noise
    // and co-running workloads where the mean is not.
    let seq_min = stats(inline_times).min_ms;

    let mut entries = Vec::new();
    for &t in POOL_SWEEP {
        let exec = if t == 0 {
            Exec::inline()
        } else {
            Exec::from_plan(plan.with_threads(t))
        };
        let (emb, times) = quant_infer_run(&qnet, &features, exec);
        let identical = emb == inline_emb;
        assert!(
            identical,
            "int8 embeddings at pool size {t} differ from the inline path"
        );
        let s = stats(times);
        println!(
            "quant_smoke: int8 embed pool {t}: mean {:.3} ms, p50 {:.3} ms, p99 {:.3} ms",
            s.mean_ms, s.p50_ms, s.p99_ms
        );
        entries.push(SweepEntry {
            threads: t,
            mean_ms: s.mean_ms,
            p50_ms: s.p50_ms,
            p99_ms: s.p99_ms,
            bit_identical_to_inline: identical,
        });
    }

    // ---- gate: installed plan vs forced sequential on the int8 path ----
    let (plan_emb, plan_times) = quant_infer_run(&qnet, &features, Exec::from_plan(plan));
    assert_eq!(
        plan_emb, inline_emb,
        "int8 embeddings under the installed plan differ from the inline path"
    );
    let gate_speedup = seq_min / stats(plan_times).min_ms;
    let gate_threshold = if plan.threads > 1 { 1.0 } else { 0.9 };
    println!(
        "quant_smoke: installed plan ({} thread(s)) speedup {gate_speedup:.2}x (gate ≥ {gate_threshold:.1}x)",
        plan.threads
    );
    assert!(
        gate_speedup >= gate_threshold,
        "int8 forward under the installed plan regressed: {gate_speedup:.2}x < {gate_threshold:.1}x"
    );

    // ---- forced-SIMD agreement sweep -----------------------------------
    // Devices capture the process-wide Exec when they deploy, so swap a
    // forced-SIMD plan into the global, deploy fresh devices, restore,
    // and compare their predictions against the scalar devices above.
    // Skips gracefully when the host has no SIMD backend.
    let mut simd_backend = None;
    let mut simd_f32_agreement = None;
    let mut simd_int8_bit_identical = None;
    let mut simd_int8_speedup = None;
    if let Some(simd) = Backend::detect_simd() {
        let saved = Exec::global();
        install_global(Exec::from_plan(plan.with_backend(simd)));
        let mut f32_simd = deploy(Precision::F32);
        let mut int8_simd = deploy(Precision::Int8);
        install_global(saved);
        let mut f32_agree = 0usize;
        let mut int8_agree = 0usize;
        for (w, (fl, il)) in eval.windows.iter().zip(f32_labels.iter().zip(&int8_labels)) {
            let a = f32_simd.infer_window(&w.channels).expect("simd f32 infer");
            let b = int8_simd.infer_window(&w.channels).expect("simd int8 infer");
            f32_agree += usize::from(a.label == *fl);
            int8_agree += usize::from(b.label == *il);
        }
        let f32_agreement = f32_agree as f64 / eval.windows.len() as f64;
        println!(
            "quant_smoke: forced-{simd} agreement vs scalar: f32 {f32_agree}/{n}, int8 {int8_agree}/{n}",
            n = eval.windows.len()
        );
        // On an FMA build every f32 kernel is bit-identical across
        // backends, so the forced-SIMD device must predict exactly what
        // the scalar device does; without FMA the scalar `fma` helper
        // rounds twice and only the 0.99 agreement bar holds.
        if cfg!(target_feature = "fma") {
            assert_eq!(
                f32_agree,
                eval.windows.len(),
                "forced-{simd} f32 predictions must equal scalar's on an FMA build"
            );
        } else {
            assert!(
                f32_agreement >= 0.99,
                "forced-{simd} f32 agreement {f32_agreement:.3} below the 0.99 gate"
            );
        }
        assert_eq!(
            int8_agree,
            eval.windows.len(),
            "int8 predictions must be identical across backends (exact integer GEMM)"
        );
        // Kernel level: forced-SIMD int8 embeddings must be bit-identical
        // to the inline scalar run.
        let (simd_emb, simd_times) = quant_infer_run(
            &qnet,
            &features,
            Exec::from_plan(plan.with_threads(1).with_backend(simd)),
        );
        let identical = simd_emb == inline_emb;
        assert!(
            identical,
            "forced-{simd} int8 embeddings differ from the scalar inline path"
        );
        let speedup = seq_min / stats(simd_times).min_ms;
        println!("quant_smoke: {simd} int8 embed speedup vs scalar {speedup:.2}x");
        simd_backend = Some(simd.name().to_string());
        simd_f32_agreement = Some(f32_agreement);
        simd_int8_bit_identical = Some(identical);
        simd_int8_speedup = Some(speedup);
    } else {
        println!("quant_smoke: no SIMD backend on this host; skipping forced-SIMD sweep");
    }

    // ---- paper-backbone SIMD int8 sweep: keep-or-delete gate ----------
    let (simd_int8_backbone_status, simd_int8_backbone) = match Backend::detect_simd() {
        Some(simd) => {
            let entries = backbone_sweep(simd, plan);
            for e in entries.iter().filter(|e| e.gated) {
                assert!(
                    e.speedup >= SIMD_INT8_MIN_SPEEDUP,
                    "{simd} int8 GEMM at b{} is {:.2}x scalar, below the {SIMD_INT8_MIN_SPEEDUP}x bar \
                     a SIMD instance must hold to be kept",
                    e.batch,
                    e.speedup
                );
            }
            (format!("measured on {simd}"), entries)
        }
        None => {
            println!("quant_smoke: paper-backbone SIMD int8 sweep unmeasured (no SIMD backend)");
            ("unmeasured".to_string(), Vec::new())
        }
    };

    let report = QuantReport {
        bench: "quantized_inference".into(),
        plan: plan.describe(),
        backend: plan.backend.to_string(),
        host_threads: plan.threads,
        eval_windows: eval.windows.len(),
        agreement,
        f32_per_window_ms: f32_t.mean_ms,
        int8_per_window_ms: int8_t.mean_ms,
        f32_resident_bytes: f32_dev.resident_bytes(),
        int8_resident_bytes: int8_dev.resident_bytes(),
        f32_bundle_bytes,
        int8_bundle_bytes,
        entries,
        gate_speedup,
        gate_threshold,
        simd_backend,
        simd_f32_agreement,
        simd_int8_bit_identical,
        simd_int8_speedup,
        simd_int8_backbone_status,
        simd_int8_backbone,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write("BENCH_quant.json", json).expect("write report");
    println!("quant_smoke: wrote BENCH_quant.json");
    println!(
        "quant_smoke OK: agreement {:.1}%, bit-identical at pool sizes {POOL_SWEEP:?}, gate {gate_speedup:.2}x",
        agreement * 100.0
    );
}
