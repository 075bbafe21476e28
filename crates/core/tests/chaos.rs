//! Chaos tests: the edge runtime under deterministic sensor faults and
//! hostile training inputs.
//!
//! Three guarantees are property-tested here:
//!
//! 1. **No faulted stream crashes the device.** A seeded [`FaultPlan`]
//!    (drops, frozen channels, NaN bursts, saturation rails, timestamp
//!    jitter) pushed through the full streaming path never panics and
//!    never produces a non-finite distance or confidence.
//! 2. **Chaos is replayable.** The same plan over the same input yields
//!    bit-identical predictions on every run, so any chaos failure
//!    reproduces from its seed alone.
//! 3. **Rollbacks are exact.** An update rejected by validation — or a
//!    training run that diverges outright — leaves the device's
//!    serialized bundle byte-identical and its predictions bit-identical
//!    to never having attempted the update.

use magneto_core::drift::DriftStatus;
use magneto_dsp::filter::DenoiseConfig;
use magneto_dsp::{PipelineConfig, PreprocessingPipeline};
use magneto_core::{
    CloudConfig, CloudInitializer, EdgeBundle, EdgeConfig, EdgeDevice, SelfHealingConfig,
    UpdateOutcome,
};
use magneto_sensors::stream::StreamConfig;
use magneto_sensors::{
    ActivityKind, BurstConfig, DriftPlan, FaultPlan, GeneratorConfig, LabeledWindow,
    PersonProfile, SensorDataset, SensorFrame, SensorStream, NUM_CHANNELS, SAMPLE_RATE_HZ,
};
use magneto_tensor::SeededRng;
use proptest::prelude::*;
use std::sync::OnceLock;

fn bundle() -> &'static EdgeBundle {
    static BUNDLE: OnceLock<EdgeBundle> = OnceLock::new();
    BUNDLE.get_or_init(|| {
        let corpus = SensorDataset::generate(&GeneratorConfig::tiny(), 1);
        CloudInitializer::new(CloudConfig::fast_demo())
            .pretrain(&corpus)
            .unwrap()
            .0
    })
}

fn device() -> EdgeDevice {
    EdgeDevice::deploy(bundle().clone(), EdgeConfig::default()).unwrap()
}

/// Transpose a `channels x samples` window back into a frame sequence,
/// so the fault injector (which operates on frames) can perturb it.
fn window_to_frames(channels: &[Vec<f32>]) -> Vec<SensorFrame> {
    let samples = channels.first().map_or(0, Vec::len);
    (0..samples)
        .map(|t| {
            let mut values = [0.0f32; NUM_CHANNELS];
            for (c, ch) in channels.iter().enumerate() {
                values[c] = ch[t];
            }
            SensorFrame {
                timestamp: t as f64 / SAMPLE_RATE_HZ,
                values,
            }
        })
        .collect()
}

/// A clean synthetic walk stream to perturb.
fn frames(n: usize, seed: u64) -> Vec<SensorFrame> {
    let mut s = SensorStream::new(
        ActivityKind::Walk.profile(),
        PersonProfile::nominal(),
        StreamConfig::ideal(),
        SeededRng::new(seed),
    );
    (0..n).map(|_| s.next().unwrap()).collect()
}

/// One prediction's fingerprint: label, smoothed label, and the exact
/// bits of every float output.
type Fingerprint = (String, String, u32, Vec<u32>, u32);

/// Run a faulted stream through a fresh device; return the prediction
/// fingerprints plus the device's sensor-health report.
fn serve(faulted: &[SensorFrame]) -> (Vec<Fingerprint>, u64) {
    let mut dev = device();
    let preds = dev.push_frames(faulted).unwrap();
    let fingerprint = preds
        .iter()
        .map(|p| {
            (
                p.raw.label.clone(),
                p.smoothed_label.clone(),
                p.raw.confidence.to_bits(),
                p.raw.distances.iter().map(|d| d.to_bits()).collect(),
                p.agreement.to_bits(),
            )
        })
        .collect();
    (fingerprint, dev.sensor_health().repaired_samples)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Guarantees 1 + 2, property-tested over the fault-seed space: an
    /// aggressive all-faults plan never panics the streaming path, never
    /// yields a non-finite output, and replays bit-identically.
    #[test]
    fn faulted_streams_never_panic_and_replay_bit_identically(seed in 0u64..1_000_000) {
        let input = frames(720, seed ^ 0x5EED_F00D);
        let plan = FaultPlan::nasty(seed);
        let faulted = plan.injector().apply(&input);
        let (a, _) = serve(&faulted);
        for (label, smoothed, conf, dists, agree) in &a {
            prop_assert!(!label.is_empty());
            prop_assert!(!smoothed.is_empty());
            prop_assert!(f32::from_bits(*conf).is_finite());
            prop_assert!(f32::from_bits(*agree).is_finite());
            for d in dists {
                prop_assert!(f32::from_bits(*d).is_finite(), "non-finite distance");
            }
        }
        // Replay: same plan, same input, fresh injector and device.
        let (b, _) = serve(&plan.injector().apply(&input));
        prop_assert_eq!(a, b, "chaos run did not replay bit-identically");
    }

    /// Sensor faults AND concept drift composed through the self-healing
    /// streaming path: never a panic, never a non-finite output, never an
    /// uplink byte — and the whole run (predictions, drift statuses,
    /// healing counters) replays bit-identically from its seeds, whatever
    /// the recalibration policy decided.
    #[test]
    fn faulted_and_drifted_streams_heal_deterministically(seed in 0u64..1_000_000) {
        let input = frames(120 * 8, seed ^ 0x0D12_F7ED);
        let faults = FaultPlan::nasty(seed);
        let drift = DriftPlan::gait_change(seed ^ 0xD21F7, 1.6, 400);
        // Faults first (the sensor path), then drift (the user).
        let perturb = || drift.injector().apply(&faults.injector().apply(&input));
        let serve_healing = |frames: &[SensorFrame]| {
            let config = EdgeConfig {
                healing: Some(SelfHealingConfig {
                    min_confidence: 0.05,
                    ..SelfHealingConfig::default()
                }),
                ..EdgeConfig::default()
            };
            let mut dev = EdgeDevice::deploy(bundle().clone(), config).unwrap();
            let preds = dev.push_frames(frames).unwrap();
            let fingerprint: Vec<_> = preds
                .iter()
                .map(|p| {
                    let drift_bits = match p.raw.drift {
                        None => (0u8, 0u32),
                        Some(DriftStatus::WarmingUp) => (1, 0),
                        Some(DriftStatus::Stable) => (2, 0),
                        Some(DriftStatus::Drifted { severity }) => (3, severity.to_bits()),
                    };
                    (
                        p.raw.label.clone(),
                        p.raw.confidence.to_bits(),
                        p.raw.distances.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
                        drift_bits,
                    )
                })
                .collect();
            dev.privacy_ledger().assert_no_uplink();
            (fingerprint, dev.healing_stats().unwrap())
        };
        let (a, stats_a) = serve_healing(&perturb());
        for (label, conf, dists, drift_bits) in &a {
            prop_assert!(!label.is_empty());
            prop_assert!(f32::from_bits(*conf).is_finite());
            for d in dists {
                prop_assert!(f32::from_bits(*d).is_finite(), "non-finite distance");
            }
            prop_assert!(drift_bits.0 > 0, "streamed prediction lost its drift status");
        }
        let (b, stats_b) = serve_healing(&perturb());
        prop_assert_eq!(a, b, "fault+drift chaos did not replay bit-identically");
        prop_assert_eq!(stats_a, stats_b, "healing counters did not replay");
    }
}

/// A stream hammered with NaN and saturation bursts still classifies
/// every completed window with finite outputs, the entry guard repairs
/// the poisoned samples, and the degradation is disclosed per-window
/// through `Prediction::quality` and the health counters.
#[test]
fn heavy_nan_saturation_stream_is_served_and_disclosed() {
    let plan = FaultPlan {
        nan: BurstConfig {
            prob: 0.02,
            min_len: 4,
            max_len: 40,
        },
        saturate: BurstConfig {
            prob: 0.02,
            min_len: 4,
            max_len: 40,
        },
        ..FaultPlan::none(33)
    };
    let input = frames(120 * 20, 12);
    let faulted = plan.injector().apply(&input);

    let mut dev = device();
    let preds = dev.push_frames(&faulted).unwrap();
    assert!(!preds.is_empty());
    for p in &preds {
        assert!(p.raw.confidence.is_finite());
        assert!(p.raw.distances.iter().all(|d| d.is_finite()));
    }
    assert!(preds.iter().any(|p| p.raw.quality.is_degraded()));

    let health = dev.sensor_health();
    assert!(health.repaired_samples > 0, "guard repaired nothing");
    assert!(health.degraded_windows > 0);
    assert!(health.worst_channel.is_some());
}

/// Frame drops shorten the stream but never corrupt it: the windowed
/// inference path over a 20 %-drop stream matches a clean device fed the
/// same surviving frames.
#[test]
fn frame_drops_change_timing_not_correctness() {
    let input = frames(120 * 20, 14);
    let faulted = FaultPlan::drops(5, 0.2).injector().apply(&input);
    assert!(faulted.len() < input.len());

    // The surviving frames are untouched: windows built from them are
    // plain clean windows, so two devices must agree bit-for-bit.
    let windows: Vec<LabeledWindow> = faulted
        .chunks_exact(120)
        .map(|c| LabeledWindow::from_frames("walk", c))
        .collect();
    let mut a = device();
    let mut b = device();
    for w in &windows {
        let pa = a.infer_window(&w.channels).unwrap();
        let pb = b.infer_window(&w.channels).unwrap();
        assert_eq!(pa.label, pb.label);
        assert_eq!(pa.confidence.to_bits(), pb.confidence.to_bits());
        assert!(pa.distances.iter().all(|d| d.is_finite()));
    }
}

/// Guarantee 3, validation-gate path: an update rejected by an
/// impossible self-accuracy floor reports the typed rollback outcome,
/// leaves the serialized bundle byte-identical, and the device's
/// post-rollback predictions agree 100 % (bit-for-bit) with a device
/// that never attempted the update.
#[test]
fn rolled_back_update_is_byte_and_prediction_exact() {
    let mut config = EdgeConfig::default();
    config.incremental.validation.self_accuracy_floor = 1.5; // unattainable
    let mut dev = EdgeDevice::deploy(bundle().clone(), config).unwrap();
    let before = dev.as_bundle().to_bytes(false);

    let recording = SensorDataset::record_session(
        "gesture_hi",
        ActivityKind::GestureHi,
        PersonProfile::nominal(),
        10.0,
        21,
    );
    let outcome = dev.learn_new_activity("gesture_hi", &recording).unwrap();
    assert!(
        matches!(outcome, UpdateOutcome::RolledBack { .. }),
        "expected rollback, got {outcome:?}"
    );
    assert!(outcome.committed().is_err(), "committed() must surface a typed error");

    assert_eq!(
        before,
        dev.as_bundle().to_bytes(false),
        "rollback must leave the bundle byte-identical"
    );
    assert!(!dev.classes().contains(&"gesture_hi".to_string()));

    // 100 % post-rollback inference agreement with an untouched device.
    let mut fresh = EdgeDevice::deploy(bundle().clone(), config).unwrap();
    let probe = SensorDataset::generate(&GeneratorConfig::tiny(), 77);
    for w in &probe.windows {
        let pa = dev.infer_window(&w.channels).unwrap();
        let pb = fresh.infer_window(&w.channels).unwrap();
        assert_eq!(pa.label, pb.label);
        assert_eq!(pa.confidence.to_bits(), pb.confidence.to_bits());
        assert_eq!(
            pa.distances.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
            pb.distances.iter().map(|d| d.to_bits()).collect::<Vec<_>>()
        );
    }
}

/// Guarantee 3, divergence path: a training run whose loss explodes to
/// non-finite values errors out — and the error path restores the exact
/// pre-update state just like a validation rollback does.
#[test]
fn divergent_training_error_restores_exact_state() {
    let mut config = EdgeConfig::default();
    config.incremental.trainer.learning_rate = 1.0e9; // guaranteed blow-up
    let mut dev = EdgeDevice::deploy(bundle().clone(), config).unwrap();
    let before = dev.as_bundle().to_bytes(false);

    let recording = SensorDataset::record_session(
        "gesture_hi",
        ActivityKind::GestureHi,
        PersonProfile::nominal(),
        10.0,
        22,
    );
    let err = dev.learn_new_activity("gesture_hi", &recording);
    assert!(err.is_err(), "1e9 learning rate should diverge");

    assert_eq!(
        before,
        dev.as_bundle().to_bytes(false),
        "training error must leave the bundle byte-identical"
    );
    assert!(!dev.classes().contains(&"gesture_hi".to_string()));
}

/// Learning from a chaos-faulted recording either commits cleanly or
/// rolls back exactly — never a panic, never a silently corrupted model.
/// Either way the device keeps serving finite predictions afterwards.
#[test]
fn learning_from_faulted_recording_commits_or_rolls_back_cleanly() {
    for seed in [3u64, 4, 5] {
        let mut dev = device();
        let before = dev.as_bundle().to_bytes(false);

        let raw = SensorDataset::record_session(
            "gesture_hi",
            ActivityKind::GestureHi,
            PersonProfile::nominal(),
            15.0,
            seed,
        );
        let mut injector = FaultPlan::nasty(seed).injector();
        let windows: Vec<LabeledWindow> = raw
            .windows
            .iter()
            .filter_map(|w| {
                let kept = injector.apply(&window_to_frames(&w.channels));
                (kept.len() == w.len()).then(|| LabeledWindow::from_frames("gesture_hi", &kept))
            })
            .collect();
        if windows.is_empty() {
            continue;
        }
        let recording = SensorDataset { windows };

        match dev.learn_new_activity("gesture_hi", &recording) {
            Ok(UpdateOutcome::Committed(report)) => {
                assert!(report.training.epoch_losses.iter().all(|l| l.is_finite()));
                assert!(dev.classes().contains(&"gesture_hi".to_string()));
            }
            Ok(UpdateOutcome::RolledBack { .. }) | Err(_) => {
                assert_eq!(before, dev.as_bundle().to_bytes(false));
            }
        }
        let probe = frames(120 * 3, seed + 100);
        for p in dev.push_frames(&probe).unwrap() {
            assert!(p.raw.distances.iter().all(|d| d.is_finite()));
        }
    }
}

/// Seed NaN into `channels` in one of four shapes: a single sample, a
/// run, a whole channel, or about one sample in sixteen of every
/// channel.
fn poison(channels: &mut [Vec<f32>], shape: u64, rng: &mut SeededRng) {
    let c = (rng.next_u64() as usize) % channels.len();
    let n = channels[c].len();
    let at = (rng.next_u64() as usize) % n;
    match shape % 4 {
        0 => channels[c][at] = f32::NAN,
        1 => channels[c][at..(at + 30).min(n)].fill(f32::NAN),
        2 => channels[c].fill(f32::NAN),
        _ => {
            for v in channels.iter_mut().flatten() {
                if rng.next_u64().is_multiple_of(16) {
                    *v = f32::NAN;
                }
            }
        }
    }
}

/// Two paths reach the feature extractor without the entry guard:
/// `raw_features_into` and on-device updates from a recording
/// (`calibrate_activity`). Windows seeded with NaN give a value, an
/// error or a rollback on both — never a panic. The low-pass filter
/// smears one NaN over its whole channel, so the sweep also runs
/// pipelines that denoise less and keep NaN scattered through the
/// series the extractor sorts.
#[test]
fn nan_windows_never_panic_the_unguarded_feature_paths() {
    let median_only = DenoiseConfig {
        lowpass_cutoff_hz: None,
        ..DenoiseConfig::default()
    };
    let mut rng = SeededRng::new(0x6e616e);
    for denoise in [DenoiseConfig::default(), median_only, DenoiseConfig::disabled()] {
        let pipeline = PreprocessingPipeline::new(PipelineConfig {
            denoise,
            ..PipelineConfig::default()
        });
        let mut out = vec![0.0f32; pipeline.output_dim()];
        for seed in 0..16u64 {
            let mut w = SensorDataset::record_session(
                "walk",
                ActivityKind::Walk,
                PersonProfile::nominal(),
                1.0,
                seed,
            )
            .windows
            .remove(0);
            poison(&mut w.channels, seed, &mut rng);
            let _ = pipeline.raw_features_into(&w.channels, &mut out);
        }
    }

    // A device whose pipeline does not denoise learns from poisoned
    // recordings.
    let corpus = SensorDataset::generate(&GeneratorConfig::tiny(), 1);
    let mut config = CloudConfig::fast_demo();
    config.pipeline.denoise = DenoiseConfig::disabled();
    let (raw_bundle, _) = CloudInitializer::new(config).pretrain(&corpus).unwrap();
    for seed in 0..4u64 {
        let mut recording = SensorDataset::record_session(
            "walk",
            ActivityKind::Walk,
            PersonProfile::nominal(),
            6.0,
            seed,
        );
        for (i, w) in recording.windows.iter_mut().enumerate() {
            poison(&mut w.channels, seed + i as u64, &mut rng);
        }
        let mut dev = EdgeDevice::deploy(raw_bundle.clone(), EdgeConfig::default()).unwrap();
        let before = dev.as_bundle().to_bytes(false);
        match dev.calibrate_activity("walk", &recording) {
            Ok(UpdateOutcome::Committed(_)) => {}
            Ok(UpdateOutcome::RolledBack { .. }) | Err(_) => {
                assert_eq!(before, dev.as_bundle().to_bytes(false));
            }
        }
    }
}
