//! Training-cost benchmarks (B*): one contrastive step, one distilled
//! step (the edge-update path), and a full incremental update — the cost
//! the user waits for in Figure 3(d).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use magneto_nn::optimizer::Adam;
use magneto_nn::pairs::sample_pairs;
use magneto_nn::{Mlp, SiameseNetwork};
use magneto_tensor::{Matrix, SeededRng};

fn feature_blob(n: usize, dim: usize, classes: usize, seed: u64) -> (Matrix, Vec<usize>) {
    let mut rng = SeededRng::new(seed);
    let mut rows = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let c = i % classes;
        rows.push(
            (0..dim)
                .map(|d| rng.normal_with(if d % classes == c { 2.0 } else { 0.0 }, 1.0))
                .collect(),
        );
        labels.push(c);
    }
    (Matrix::from_rows(&rows).unwrap(), labels)
}

fn bench_train_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("siamese_train_step_64pairs");
    group.sample_size(20);
    let (features, labels) = feature_blob(200, 80, 5, 1);
    for (name, dims) in [
        ("paper_backbone", magneto_nn::PAPER_BACKBONE.to_vec()),
        ("fast_backbone", vec![80, 64, 32]),
    ] {
        let base = SiameseNetwork::new(Mlp::new(&dims, &mut SeededRng::new(2)).unwrap(), 1.0);
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter_batched(
                || {
                    let mut rng = SeededRng::new(3);
                    (
                        base.clone(),
                        Adam::new(1e-3),
                        sample_pairs(&labels, 64, &mut rng),
                    )
                },
                |(mut net, mut opt, pairs)| {
                    net.train_step(black_box(&features), &pairs, &mut opt, None, 5.0)
                        .unwrap()
                },
                criterion::BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

fn bench_distilled_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("siamese_distilled_step_64pairs");
    group.sample_size(20);
    let (features, labels) = feature_blob(200, 80, 5, 4);
    let dims = magneto_nn::PAPER_BACKBONE.to_vec();
    let teacher = Mlp::new(&dims, &mut SeededRng::new(5)).unwrap();
    // The trainer embeds every row through the teacher once per update;
    // a step only gathers from that table.
    let table = teacher.forward(&features).unwrap();
    let base = SiameseNetwork::new(teacher, 1.0);
    group.bench_function("paper_backbone", |b| {
        b.iter_batched(
            || {
                let mut rng = SeededRng::new(6);
                (
                    base.clone(),
                    Adam::new(1e-3),
                    sample_pairs(&labels, 64, &mut rng),
                )
            },
            |(mut net, mut opt, pairs)| {
                net.train_step(
                    black_box(&features),
                    &pairs,
                    &mut opt,
                    Some((&table, 4.0)),
                    5.0,
                )
                .unwrap()
            },
            criterion::BatchSize::LargeInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_train_step, bench_distilled_step);
criterion_main!(benches);
