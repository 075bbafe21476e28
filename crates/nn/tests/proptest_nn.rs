//! Property-based tests for the neural-network substrate.

use magneto_nn::loss::{contrastive_loss, distillation_loss, softmax_cross_entropy};
use magneto_nn::serialize::{decode_mlp, decode_quantized_mlp, encode_mlp, encode_quantized_mlp};
use magneto_nn::siamese::TrainScratch;
use magneto_nn::trainer::train_siamese_masked_with;
use magneto_nn::{Mlp, SiameseNetwork, TrainerConfig};
use magneto_tensor::{Exec, KernelPlan, Matrix, Precision, SeededRng, Workspace};
use proptest::prelude::*;

fn small_f32() -> impl Strategy<Value = f32> {
    (-40i32..=40).prop_map(|v| v as f32 / 8.0)
}

fn embedding_batch(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(small_f32(), rows * cols)
        .prop_map(move |d| Matrix::from_vec(rows, cols, d).unwrap())
}

proptest! {
    /// Contrastive loss is non-negative; its gradients vanish exactly when
    /// the loss does.
    #[test]
    fn contrastive_nonnegative(
        a in embedding_batch(4, 3),
        b in embedding_batch(4, 3),
        mask in prop::collection::vec(any::<bool>(), 4),
        margin in 0.1f32..3.0,
    ) {
        let (loss, ga, gb) = contrastive_loss(&a, &b, &mask, margin).unwrap();
        prop_assert!(loss >= 0.0);
        prop_assert!(loss.is_finite());
        if loss == 0.0 {
            prop_assert!(ga.as_slice().iter().all(|&v| v == 0.0));
            prop_assert!(gb.as_slice().iter().all(|&v| v == 0.0));
        }
        // Gradients of the two sides are exact opposites (the loss
        // depends only on a - b).
        for (x, y) in ga.as_slice().iter().zip(gb.as_slice().iter()) {
            prop_assert!((x + y).abs() < 1e-5);
        }
    }

    /// Distillation loss is symmetric in value and antisymmetric in
    /// gradient.
    #[test]
    fn distillation_symmetry(
        s in embedding_batch(3, 4),
        t in embedding_batch(3, 4),
    ) {
        let (l1, g1) = distillation_loss(&s, &t).unwrap();
        let (l2, g2) = distillation_loss(&t, &s).unwrap();
        prop_assert!((l1 - l2).abs() < 1e-4 * (1.0 + l1.abs()));
        for (a, b) in g1.as_slice().iter().zip(g2.as_slice().iter()) {
            prop_assert!((a + b).abs() < 1e-5);
        }
        prop_assert!(l1 >= 0.0);
    }

    /// Cross-entropy gradient rows sum to ~0 (softmax minus one-hot).
    #[test]
    fn cross_entropy_gradient_rows_sum_to_zero(
        logits in embedding_batch(3, 5),
        targets in prop::collection::vec(0usize..5, 3),
    ) {
        let (loss, grad) = softmax_cross_entropy(&logits, &targets).unwrap();
        prop_assert!(loss >= 0.0);
        for r in 0..grad.rows() {
            let s: f32 = grad.row(r).iter().sum();
            prop_assert!(s.abs() < 1e-5, "row {r} sums to {s}");
        }
    }

    /// Model binary codec round-trips exactly for arbitrary architectures.
    #[test]
    fn model_codec_roundtrip(
        dims in prop::collection::vec(1usize..24, 2..5),
        seed in 0u64..1000,
    ) {
        let net = Mlp::new(&dims, &mut SeededRng::new(seed)).unwrap();
        let back = decode_mlp(&encode_mlp(&net)).unwrap();
        prop_assert_eq!(net, back);
    }

    /// Quantisation error per weight is bounded by half an int8 step.
    #[test]
    fn quantization_error_bounded(
        dims in prop::collection::vec(1usize..16, 2..4),
        seed in 0u64..1000,
    ) {
        let net = Mlp::new(&dims, &mut SeededRng::new(seed)).unwrap();
        let q = net.clone().into_precision(Precision::Int8).unwrap();
        let back = q.clone().into_precision(Precision::F32).unwrap();
        for (orig, rest) in net.layers().iter().zip(back.layers().iter()) {
            let (orig, rest) = (orig.f32_weights().unwrap(), rest.f32_weights().unwrap());
            let step = orig.max_abs() / 127.0;
            for (a, b) in orig.as_slice().iter().zip(rest.as_slice().iter()) {
                prop_assert!((a - b).abs() <= step * 0.5 + 1e-7);
            }
        }
        // And the binary codec round-trips the quantised form exactly.
        let bytes = encode_quantized_mlp(&q);
        prop_assert_eq!(decode_quantized_mlp(&bytes).unwrap(), q);
    }

    /// Forward passes are finite for bounded inputs and weights.
    #[test]
    fn forward_finite(
        dims in prop::collection::vec(1usize..16, 2..5),
        seed in 0u64..100,
        batch in 1usize..6,
    ) {
        let net = Mlp::new(&dims, &mut SeededRng::new(seed)).unwrap();
        let x = Matrix::filled(batch, dims[0], 0.5);
        let out = net.forward(&x).unwrap();
        prop_assert_eq!(out.shape(), (batch, *dims.last().unwrap()));
        prop_assert!(out.all_finite());
    }
}

/// Execution contexts at pool sizes 0 (inline), 1, 2 and 8, built once so
/// pool threads are reused across proptest cases.
fn execs() -> &'static [Exec] {
    static EXECS: std::sync::OnceLock<Vec<Exec>> = std::sync::OnceLock::new();
    EXECS.get_or_init(|| {
        let mut execs = vec![Exec::inline()];
        for t in [1usize, 2, 8] {
            let mut plan = KernelPlan::inline().with_threads(t);
            plan.par_min_rows = 8;
            execs.push(Exec::from_plan(plan));
        }
        execs
    })
}

fn blob_features(classes: usize, per_class: usize, dim: usize, seed: u64) -> (Matrix, Vec<usize>) {
    let mut rng = SeededRng::new(seed);
    let mut rows = Vec::new();
    let mut labels = Vec::new();
    for c in 0..classes {
        for _ in 0..per_class {
            rows.push(
                (0..dim)
                    .map(|d| rng.normal_with(if d % classes == c { 2.0 } else { 0.0 }, 1.0))
                    .collect::<Vec<f32>>(),
            );
            labels.push(c);
        }
    }
    (Matrix::from_rows(&rows).unwrap(), labels)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Full `train_siamese` runs are bit-identical at every pool size:
    /// identical loss histories AND identical trained weights. This is
    /// the end-to-end form of the panel-aligned determinism argument.
    #[test]
    fn train_siamese_bit_identical_at_any_pool_size(
        seed in 0u64..200,
        hidden in 8usize..24,
    ) {
        let (features, labels) = blob_features(3, 8, 10, seed);
        let config = TrainerConfig {
            epochs: 2,
            pairs_per_epoch: 32,
            batch_pairs: 16,
            seed,
            ..TrainerConfig::default()
        };
        let init = SiameseNetwork::new(
            Mlp::new(&[10, hidden, 6], &mut SeededRng::new(seed ^ 0xA5)).unwrap(),
            1.0,
        );
        let mut reference_net = init.clone();
        let mut scratch = TrainScratch::with_exec(Exec::inline());
        let reference = train_siamese_masked_with(
            &mut reference_net, &features, &labels, false, None, &config, &mut scratch,
        ).unwrap();
        for exec in execs() {
            let mut net = init.clone();
            let mut scratch = TrainScratch::with_exec(exec.clone());
            let report = train_siamese_masked_with(
                &mut net, &features, &labels, false, None, &config, &mut scratch,
            ).unwrap();
            prop_assert_eq!(&report.epoch_losses, &reference.epoch_losses, "threads={}", exec.threads());
            prop_assert_eq!(&net, &reference_net, "threads={}", exec.threads());
        }
    }

    /// The masked/distilled variant (the on-device update path) is
    /// equally deterministic: teacher table, masked distillation
    /// gradients and all backward GEMMs included.
    #[test]
    fn train_siamese_masked_bit_identical_at_any_pool_size(seed in 0u64..200) {
        let (features, labels) = blob_features(2, 8, 10, seed);
        let mask: Vec<bool> = labels.iter().map(|&l| l == 0).collect();
        let config = TrainerConfig {
            epochs: 2,
            pairs_per_epoch: 32,
            batch_pairs: 16,
            distill_weight: 2.0,
            seed,
            ..TrainerConfig::default()
        };
        let init = SiameseNetwork::new(
            Mlp::new(&[10, 16, 6], &mut SeededRng::new(seed ^ 0x5A)).unwrap(),
            1.0,
        );
        let mut reference_net = init.clone();
        let mut scratch = TrainScratch::with_exec(Exec::inline());
        let reference = train_siamese_masked_with(
            &mut reference_net, &features, &labels, true, Some(&mask), &config, &mut scratch,
        ).unwrap();
        for exec in execs() {
            let mut net = init.clone();
            let mut scratch = TrainScratch::with_exec(exec.clone());
            let report = train_siamese_masked_with(
                &mut net, &features, &labels, true, Some(&mask), &config, &mut scratch,
            ).unwrap();
            prop_assert_eq!(&report.epoch_losses, &reference.epoch_losses, "threads={}", exec.threads());
            prop_assert_eq!(&net, &reference_net, "threads={}", exec.threads());
        }
    }

    /// Batched inference embeds bit-identically at every pool size.
    #[test]
    fn batched_inference_bit_identical_at_any_pool_size(
        seed in 0u64..200,
        rows in 1usize..40,
    ) {
        let net = SiameseNetwork::new(
            Mlp::new(&[10, 20, 6], &mut SeededRng::new(seed)).unwrap(),
            1.0,
        );
        let mut rng = SeededRng::new(seed ^ 0x77);
        let data: Vec<Vec<f32>> = (0..rows)
            .map(|_| (0..10).map(|_| rng.normal_with(0.0, 1.0)).collect())
            .collect();
        let features = Matrix::from_rows(&data).unwrap();
        let mut ws = Workspace::with_exec(Exec::inline());
        let mut reference = Matrix::default();
        net.embed_into(&features, &mut reference, &mut ws).unwrap();
        for exec in execs() {
            let mut ws = Workspace::with_exec(exec.clone());
            let mut out = Matrix::default();
            net.embed_into(&features, &mut out, &mut ws).unwrap();
            prop_assert_eq!(&out, &reference, "threads={}", exec.threads());
        }
    }
}
