//! Per-layer replays: a window through each stage's public call, and
//! feature batches through `BatchEmbedder::embed_rows`, each timed as a
//! span. Per-layer metrics are computed from those spans.

use crate::stats::{median, Dist};
use crate::trace::Tracer;
use crate::workload::Outcome;
use magneto_core::{
    BatchEmbedder, InferenceView, NcmDecision, NcmScratch, Precision, ResidentModel,
};
use magneto_dsp::filter::WindowDenoiseScratch;
use magneto_dsp::{guard, FeatureExtractor, NUM_FEATURES};
use magneto_tensor::Matrix;
use std::hint::black_box;

/// Buffers reused across replays.
pub struct Scratch {
    features: Vec<f32>,
    raw: Vec<f32>,
    checked: Vec<f32>,
    ncm: NcmScratch,
    decision: NcmDecision,
    /// Alternates which of `raw_features_into` / `process_into` runs
    /// first, so the second call's warm caches do not bias
    /// `dsp.normalize` (their difference) one way.
    raw_first: bool,
}

impl Default for Scratch {
    fn default() -> Self {
        Scratch {
            features: vec![0.0; NUM_FEATURES],
            raw: vec![0.0; NUM_FEATURES],
            checked: vec![0.0; NUM_FEATURES],
            ncm: NcmScratch::new(),
            decision: NcmDecision::default(),
            raw_first: false,
        }
    }
}

/// The stages one served window passes through, in path order. Their
/// spans, plus the serving layer's self time, make up the window's
/// serving span. `dsp.normalize` is not a public call of its own: it is
/// `dsp.process` (`process_into`) minus `dsp.raw_features`
/// (`raw_features_into`).
pub const STAGE_SPANS: [&str; 5] = [
    "dsp.guard",
    "dsp.denoise",
    "dsp.features",
    "nn.embed",
    "core.ncm",
];

/// Replay `window` through the serving view's stages, one span each,
/// all children of `parent`.
pub fn stages(
    view: &InferenceView<'_>,
    window: &[Vec<f32>],
    tr: &mut Tracer,
    req: u64,
    parent: Option<u32>,
    s: &mut Scratch,
) -> Result<(), String> {
    let cfg = view.pipeline.config();
    black_box(tr.time("dsp.guard", req, parent, || {
        guard::window_is_clean(window, &cfg.guard)
    }));
    // The denoise kernel and its scratch are built per window, as
    // `PreprocessingPipeline::raw_features_into` builds them.
    let denoised = tr.time("dsp.denoise", req, parent, || {
        let mut out = Vec::new();
        cfg.denoise.kernel().apply_window_into(
            window,
            &mut out,
            &mut WindowDenoiseScratch::default(),
        );
        out
    });
    tr.time("dsp.features", req, parent, || {
        FeatureExtractor::new(cfg.sample_rate_hz).extract_into(&denoised, &mut s.raw)
    })
    .map_err(|e| format!("features: {e}"))?;
    s.raw_first = !s.raw_first;
    for raw in [s.raw_first, !s.raw_first] {
        if raw {
            tr.time("dsp.raw_features", req, parent, || {
                view.pipeline.raw_features_into(window, &mut s.raw)
            })
            .map_err(|e| format!("raw features: {e}"))?;
        } else {
            tr.time("dsp.process", req, parent, || {
                view.pipeline.process_into(window, &mut s.features)
            })
            .map_err(|e| format!("process: {e}"))?;
        }
    }
    tr.time("dsp.pipeline", req, parent, || {
        view.pipeline.process_checked_into(window, &mut s.checked)
    })
    .map_err(|e| format!("pipeline: {e}"))?;
    let embedding = tr
        .time("nn.embed", req, parent, || {
            view.model.embed_one(&s.features)
        })
        .map_err(|e| format!("embed: {e}"))?;
    tr.time("core.ncm", req, parent, || {
        view.ncm
            .classify_into(&embedding, &mut s.ncm, &mut s.decision)
    })
    .map_err(|e| format!("ncm: {e}"))
}

/// Per-request sum of the replayed stage spans (µs), normalisation
/// included, plus any extra spans named in `also`.
pub fn stage_sums(tr: &Tracer, also: &[&str]) -> std::collections::HashMap<u64, f64> {
    let mut sums = tr.by_req("dsp.process");
    let raw = tr.by_req("dsp.raw_features");
    for (req, v) in sums.iter_mut() {
        *v -= raw.get(req).copied().unwrap_or(0.0);
    }
    for name in STAGE_SPANS.iter().chain(also) {
        for (req, v) in tr.by_req(name) {
            *sums.entry(req).or_insert(0.0) += v;
        }
    }
    sums
}

/// The stage metrics (`dsp.*`, `nn.embed_us`, `core.ncm_us`) as medians
/// of the replayed spans.
pub fn stage_metrics(model: &ResidentModel, out: &mut Outcome) {
    let tr = &out.tracer;
    let mut values: Vec<(&str, f64)> = [
        ("dsp.guard_us", "dsp.guard"),
        ("dsp.denoise_us", "dsp.denoise"),
        ("dsp.features_us", "dsp.features"),
        ("dsp.pipeline_us", "dsp.pipeline"),
        ("nn.embed_us", "nn.embed"),
        ("core.ncm_us", "core.ncm"),
    ]
    .into_iter()
    .map(|(metric, span)| (metric, Dist::new(tr.durations(span)).median()))
    .collect();
    let raw = tr.by_req("dsp.raw_features");
    let normalize: Vec<f64> = tr
        .by_req("dsp.process")
        .into_iter()
        .filter_map(|(req, p)| raw.get(&req).map(|r| p - r))
        .collect();
    values.push(("dsp.normalize_us", median(&normalize)));
    // Computed from the layer widths, not counted.
    let mflop = magneto_platform::flops::mlp_forward_flops(&model.dims(), 1) as f64 / 1e6;
    let embed_us = values[4].1;
    values.push(("nn.embed_mflop", mflop));
    values.push((
        "nn.embed_gflops",
        if embed_us > 0.0 {
            mflop * 1e3 / embed_us
        } else {
            0.0
        },
    ));
    for (name, v) in values {
        out.set(name, v);
    }
}

const BATCH_SIZES: [(usize, usize); 3] = [(1, 200), (8, 60), (64, 12)];

const BATCH_SPANS: [[(&str, &str); 3]; 2] = [
    [
        ("nn.embed_rows.f32.b1", "nn.embed_batch_us.f32.b1"),
        ("nn.embed_rows.f32.b8", "nn.embed_batch_us.f32.b8"),
        ("nn.embed_rows.f32.b64", "nn.embed_batch_us.f32.b64"),
    ],
    [
        ("nn.embed_rows.int8.b1", "nn.embed_batch_us.int8.b1"),
        ("nn.embed_rows.int8.b8", "nn.embed_batch_us.int8.b8"),
        ("nn.embed_rows.int8.b64", "nn.embed_batch_us.int8.b64"),
    ],
];

/// Featurise 64 of `windows` through the view's pipeline and embed
/// batches of 1, 8 and 64 rows through its backbone at both precisions;
/// each metric is the median batch time per window.
pub fn embed_batches(
    view: &InferenceView<'_>,
    windows: &[Vec<Vec<f32>>],
    out: &mut Outcome,
) -> Result<(), String> {
    let rows = windows
        .iter()
        .cycle()
        .take(64)
        .map(|w| {
            view.pipeline
                .process(w)
                .map_err(|e| format!("featurise: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let model = view.model;
    let int8 = model
        .clone()
        .into_precision(Precision::Int8)
        .map_err(|e| format!("quantize: {e}"))?;
    let f32_model = model
        .clone()
        .into_precision(Precision::F32)
        .map_err(|e| format!("dequantize: {e}"))?;
    for (model, spans) in [(&f32_model, &BATCH_SPANS[0]), (&int8, &BATCH_SPANS[1])] {
        for (&(batch, reps), &(span, metric)) in BATCH_SIZES.iter().zip(spans) {
            let rows = &rows[..batch.min(rows.len())];
            let mut embedder = BatchEmbedder::new();
            let mut emb = Matrix::default();
            // Warm the embedder's buffers before timing.
            embedder
                .embed_rows(model, rows, &mut emb)
                .map_err(|e| format!("embed_rows: {e}"))?;
            for r in 0..reps {
                out.tracer
                    .time(span, r as u64, None, || {
                        embedder.embed_rows(model, rows, &mut emb)
                    })
                    .map_err(|e| format!("embed_rows: {e}"))?;
            }
            let per_window = Dist::new(out.tracer.durations(span)).median() / rows.len() as f64;
            out.set(metric, per_window);
        }
    }
    Ok(())
}
