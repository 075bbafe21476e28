//! Property-based integration tests: platform invariants that must hold
//! for arbitrary activities, users, seeds and window contents.

use magneto::dsp::{FeatureExtractor, NUM_FEATURES};
use magneto::prelude::*;
use magneto::sensors::imu::SignalSynthesizer;
use proptest::prelude::*;

fn any_activity() -> impl Strategy<Value = ActivityKind> {
    prop::sample::select(vec![
        ActivityKind::Drive,
        ActivityKind::EScooter,
        ActivityKind::Run,
        ActivityKind::Still,
        ActivityKind::Walk,
        ActivityKind::GestureHi,
        ActivityKind::GestureCircle,
        ActivityKind::Jump,
        ActivityKind::StairsUp,
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any synthesised window yields exactly 80 finite features.
    #[test]
    fn features_always_80_and_finite(kind in any_activity(), seed in 0u64..1000) {
        let mut rng = SeededRng::new(seed);
        let person = PersonProfile::sample(&mut rng);
        let mut synth = SignalSynthesizer::new(kind.profile(), person, SeededRng::new(seed));
        let frames: Vec<_> = (0..120).map(|i| synth.frame(i as f64 / 120.0)).collect();
        let window = magneto::sensors::dataset::LabeledWindow::from_frames(kind.label(), &frames);
        let feats = FeatureExtractor::default().extract(&window.channels).unwrap();
        prop_assert_eq!(feats.len(), NUM_FEATURES);
        prop_assert!(feats.iter().all(|v| v.is_finite()));
    }

    /// Every synthesised frame is finite on all 22 channels.
    #[test]
    fn frames_are_always_finite(kind in any_activity(), seed in 0u64..500) {
        let mut synth = SignalSynthesizer::new(
            kind.profile(),
            PersonProfile::nominal(),
            SeededRng::new(seed),
        );
        for i in 0..240 {
            let f = synth.frame(i as f64 / 120.0);
            prop_assert!(f.values.iter().all(|v| v.is_finite()), "{kind:?} frame {i}");
        }
    }

    /// The in-place pipeline (`process_into` writing one feature-matrix
    /// row) is byte-identical to the allocating `process` for any window.
    #[test]
    fn process_into_equals_process(kind in any_activity(), seed in 0u64..500) {
        let mut synth = SignalSynthesizer::new(
            kind.profile(),
            PersonProfile::nominal(),
            SeededRng::new(seed),
        );
        let frames: Vec<_> = (0..120).map(|i| synth.frame(i as f64 / 120.0)).collect();
        let window = magneto::sensors::dataset::LabeledWindow::from_frames(kind.label(), &frames);
        let pipeline = magneto::dsp::PreprocessingPipeline::new(
            magneto::dsp::PipelineConfig::default(),
        );
        let allocated = pipeline.process(&window.channels).unwrap();
        let mut in_place = vec![0.0f32; NUM_FEATURES];
        pipeline.process_into(&window.channels, &mut in_place).unwrap();
        prop_assert_eq!(allocated, in_place);
    }

    /// One batched forward pass over stacked feature rows equals the
    /// per-sample embedding loop, row for row, for any batch — including
    /// batches past the register-tiled matmul dispatch threshold.
    #[test]
    fn batched_embedding_equals_per_sample(
        batch in 1usize..40,
        seed in 0u64..500,
    ) {
        let mut rng = SeededRng::new(seed);
        let model = magneto::nn::SiameseNetwork::new(
            magneto::nn::Mlp::new(&[10, 8, 4], &mut rng).unwrap(),
            1.0,
        );
        let rows: Vec<Vec<f32>> = (0..batch)
            .map(|_| (0..10).map(|_| rng.normal()).collect())
            .collect();
        let mut embedder = magneto::core::BatchEmbedder::new();
        let mut out = magneto::tensor::Matrix::default();
        embedder.embed_rows(&model, &rows, &mut out).unwrap();
        prop_assert_eq!(out.shape(), (batch, 4));
        for (i, row) in rows.iter().enumerate() {
            let single = model.embed_one(row).unwrap();
            prop_assert_eq!(out.row(i), single.as_slice(), "row {}", i);
        }
    }

    /// Dataset generation honours the requested shape for any size.
    #[test]
    fn dataset_shape_invariant(windows in 1usize..20, seed in 0u64..100) {
        let cfg = GeneratorConfig {
            windows_per_class: windows,
            ..GeneratorConfig::tiny()
        };
        let ds = SensorDataset::generate(&cfg, seed);
        prop_assert_eq!(ds.len(), windows * 5);
        for w in &ds.windows {
            prop_assert_eq!(w.channels.len(), 22);
            prop_assert_eq!(w.len(), cfg.window_len);
        }
    }

    /// Stratified splits conserve windows and never mix labels up.
    #[test]
    fn split_conserves_windows(frac in 0.1f64..0.9, seed in 0u64..50) {
        let ds = SensorDataset::generate(&GeneratorConfig::tiny(), seed);
        let mut rng = SeededRng::new(seed);
        let (train, test) = ds.split(frac, &mut rng);
        prop_assert_eq!(train.len() + test.len(), ds.len());
        let mut all: Vec<String> = train.windows.iter().chain(test.windows.iter())
            .map(|w| w.label.clone()).collect();
        all.sort();
        let mut orig: Vec<String> = ds.windows.iter().map(|w| w.label.clone()).collect();
        orig.sort();
        prop_assert_eq!(all, orig);
    }
}

proptest! {
    // Deployment-level properties get fewer, heavier cases.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// For any seed, a freshly initialised device classifies every window
    /// into a known class, never panics, and never uplinks.
    #[test]
    fn device_total_on_arbitrary_inputs(seed in 0u64..50) {
        let corpus = SensorDataset::generate(&GeneratorConfig::base_five(8), seed);
        let mut cfg = CloudConfig::fast_demo();
        cfg.trainer.epochs = 3;
        cfg.seed = seed;
        let (bundle, _) = CloudInitializer::new(cfg).pretrain(&corpus).unwrap();
        let mut device = EdgeDevice::deploy(bundle, EdgeConfig::default()).unwrap();
        let probe = SensorDataset::generate(&GeneratorConfig::base_five(2), seed ^ 0xAB);
        for w in &probe.windows {
            let pred = device.infer_window(&w.channels).unwrap();
            prop_assert!(device.classes().contains(&pred.label));
            prop_assert!(pred.confidence.is_finite());
        }
        device.privacy_ledger().assert_no_uplink();
    }

    /// Bundle serialisation round-trips for any seed, both precisions.
    #[test]
    fn bundle_roundtrip_any_seed(seed in 0u64..50, quantized in any::<bool>()) {
        let corpus = SensorDataset::generate(&GeneratorConfig::base_five(6), seed);
        let mut cfg = CloudConfig::fast_demo();
        cfg.trainer.epochs = 2;
        cfg.seed = seed;
        let (bundle, _) = CloudInitializer::new(cfg).pretrain(&corpus).unwrap();
        let bytes = bundle.to_bytes(quantized);
        let back = EdgeBundle::from_bytes(&bytes).unwrap();
        prop_assert_eq!(back.registry, bundle.registry);
        prop_assert_eq!(back.support_set, bundle.support_set);
        prop_assert_eq!(back.model.dims(), bundle.model.dims());
        if quantized {
            prop_assert_eq!(back.model.precision(), magneto::core::Precision::Int8);
        } else {
            prop_assert_eq!(back.model, bundle.model);
        }
    }
}
