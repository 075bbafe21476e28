//! Serialisation benchmarks (B*): bundle encode/decode at both
//! precisions, and the raw model codec. Deployment cost is a one-time
//! Cloud → Edge transfer, but decode also runs at every app start.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use magneto_core::cloud::{CloudConfig, CloudInitializer};
use magneto_core::EdgeBundle;
use magneto_nn::serialize::{decode_mlp, encode_mlp, encode_quantized_mlp};
use magneto_nn::Mlp;
use magneto_sensors::{GeneratorConfig, SensorDataset};
use magneto_tensor::SeededRng;

fn bundle_fixture() -> EdgeBundle {
    let corpus = SensorDataset::generate(&GeneratorConfig::tiny(), 1);
    let mut cfg = CloudConfig::fast_demo();
    cfg.trainer.epochs = 2;
    CloudInitializer::new(cfg).pretrain(&corpus).unwrap().0
}

fn bench_bundle_roundtrip(c: &mut Criterion) {
    let bundle = bundle_fixture();
    let bytes_f32 = bundle.to_bytes(false);
    let bytes_i8 = bundle.to_bytes(true);

    c.bench_function("bundle_encode_f32", |b| {
        b.iter(|| black_box(&bundle).to_bytes(false))
    });
    c.bench_function("bundle_encode_quantized", |b| {
        b.iter(|| black_box(&bundle).to_bytes(true))
    });
    c.bench_function("bundle_decode_f32", |b| {
        b.iter(|| EdgeBundle::from_bytes(black_box(&bytes_f32)).unwrap())
    });
    c.bench_function("bundle_decode_quantized", |b| {
        b.iter(|| EdgeBundle::from_bytes(black_box(&bytes_i8)).unwrap())
    });
}

fn bench_model_codec(c: &mut Criterion) {
    let net = Mlp::new(&magneto_nn::PAPER_BACKBONE, &mut SeededRng::new(2)).unwrap();
    let encoded = encode_mlp(&net);
    c.bench_function("model_encode_paper_backbone", |b| {
        b.iter(|| encode_mlp(black_box(&net)))
    });
    c.bench_function("model_decode_paper_backbone", |b| {
        b.iter(|| decode_mlp(black_box(&encoded)).unwrap())
    });
    // Quantises each f32 layer while it writes `MGQ2`.
    c.bench_function("model_encode_quantized_paper_backbone", |b| {
        b.iter(|| encode_quantized_mlp(black_box(&net)))
    });
}

criterion_group!(benches, bench_bundle_roundtrip, bench_model_codec);
criterion_main!(benches);
