//! Micro-benchmarks for every stage of the inference pipeline (B*):
//! denoise, 80-feature extraction, embedding forward, NCM classify, and
//! the composed end-to-end window path whose "few milliseconds" claim is
//! experiment C1.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use magneto_core::incremental::ModelState;
use magneto_core::ncm::NcmClassifier;
use magneto_dsp::filter::DenoiseConfig;
use magneto_dsp::{FeatureExtractor, PipelineConfig, PreprocessingPipeline};
use magneto_nn::{Mlp, SiameseNetwork};
use magneto_sensors::{ActivityKind, GeneratorConfig, SensorDataset};
use magneto_tensor::vector::DistanceMetric;
use magneto_tensor::SeededRng;

fn test_window() -> Vec<Vec<f32>> {
    let ds = SensorDataset::generate(
        &GeneratorConfig {
            activities: vec![ActivityKind::Run],
            windows_per_class: 1,
            ..GeneratorConfig::tiny()
        },
        42,
    );
    ds.windows[0].channels.clone()
}

fn fitted_pipeline() -> PreprocessingPipeline {
    let ds = SensorDataset::generate(&GeneratorConfig::tiny(), 1);
    let mut p = PreprocessingPipeline::new(PipelineConfig::default());
    let refs: Vec<&[Vec<f32>]> = ds.windows.iter().map(|w| w.channels.as_slice()).collect();
    p.fit_normalizer(&refs).unwrap();
    p
}

fn bench_denoise(c: &mut Criterion) {
    let window = test_window();
    let cfg = DenoiseConfig::default();
    c.bench_function("denoise_22ch_window", |b| {
        b.iter(|| {
            for ch in &window {
                black_box(cfg.apply(black_box(ch)));
            }
        })
    });
}

fn bench_features(c: &mut Criterion) {
    let window = test_window();
    let fx = FeatureExtractor::default();
    c.bench_function("extract_80_features", |b| {
        b.iter(|| fx.extract(black_box(&window)).unwrap())
    });
}

fn bench_embedding_forward(c: &mut Criterion) {
    let mut group = c.benchmark_group("embedding_forward");
    let features = vec![0.1f32; 80];
    for (name, dims) in [
        ("paper_backbone", magneto_nn::PAPER_BACKBONE.to_vec()),
        ("fast_backbone", vec![80, 64, 32]),
    ] {
        let net = Mlp::new(&dims, &mut SeededRng::new(1)).unwrap();
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| net.embed_one(black_box(&features)).unwrap())
        });
    }
    group.finish();
}

fn bench_ncm(c: &mut Criterion) {
    let mut group = c.benchmark_group("ncm_classify");
    let embedding = vec![0.2f32; 128];
    for classes in [5usize, 10, 50] {
        let protos: Vec<(String, Vec<f32>)> = (0..classes)
            .map(|k| (format!("class_{k}"), vec![k as f32; 128]))
            .collect();
        let ncm = NcmClassifier::new(DistanceMetric::Euclidean, protos).unwrap();
        group.bench_function(BenchmarkId::from_parameter(classes), |b| {
            b.iter(|| ncm.classify(black_box(&embedding)).unwrap())
        });
    }
    group.finish();
}

fn bench_batched_vs_per_sample(c: &mut Criterion) {
    // The tentpole claim: embedding a backlog of 64 windows as one
    // (64, 80) batch through the paper backbone vs looping embed_one.
    let mut group = c.benchmark_group("batched_vs_per_sample");
    let model = SiameseNetwork::new(
        Mlp::new(&magneto_nn::PAPER_BACKBONE, &mut SeededRng::new(7)).unwrap(),
        1.0,
    );
    let mut rng = SeededRng::new(8);
    let rows: Vec<Vec<f32>> = (0..64)
        .map(|_| (0..80).map(|_| rng.normal()).collect())
        .collect();
    group.bench_function("per_sample_embed_64", |b| {
        b.iter(|| {
            for r in &rows {
                black_box(model.embed_one(black_box(r)).unwrap());
            }
        })
    });
    let mut embedder = magneto_core::BatchEmbedder::new();
    let mut out = magneto_tensor::Matrix::default();
    group.bench_function("batched_embed_64", |b| {
        b.iter(|| {
            embedder
                .embed_rows(&model, black_box(&rows), &mut out)
                .unwrap();
            black_box(out.rows());
        })
    });
    group.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    // Full inference path with the paper backbone — the C1 latency claim.
    let pipeline = fitted_pipeline();
    let model = SiameseNetwork::new(
        Mlp::new(&magneto_nn::PAPER_BACKBONE, &mut SeededRng::new(2)).unwrap(),
        1.0,
    );
    let protos: Vec<(String, Vec<f32>)> = (0..5)
        .map(|k| (format!("c{k}"), vec![k as f32; 128]))
        .collect();
    let ncm = NcmClassifier::new(DistanceMetric::Euclidean, protos).unwrap();
    let state = ModelState::assemble(
        model,
        {
            // Minimal support set so assemble() is happy.
            let mut ss = magneto_core::SupportSet::new(2, magneto_core::SelectionStrategy::Random);
            let mut rng = SeededRng::new(3);
            for k in 0..5 {
                ss.set_class(&format!("c{k}"), &[vec![k as f32; 80]], &mut rng)
                    .unwrap();
            }
            ss
        },
        magneto_core::LabelRegistry::from_labels(["c0", "c1", "c2", "c3", "c4"]),
        DistanceMetric::Euclidean,
    )
    .unwrap();
    drop(ncm);
    let window = test_window();
    c.bench_function("infer_window_end_to_end_paper_backbone", |b| {
        b.iter(|| {
            let feats = state
                .model
                .embed_one(&pipeline.process(black_box(&window)).unwrap())
                .unwrap();
            state.ncm.classify(&feats).unwrap()
        })
    });
}

criterion_group!(
    benches,
    bench_denoise,
    bench_features,
    bench_embedding_forward,
    bench_ncm,
    bench_batched_vs_per_sample,
    bench_end_to_end
);
criterion_main!(benches);
