//! Continual-learning smoke test (wired into `make check`): drives a
//! class-incremental lifecycle — deploy, learn new gestures, calibrate
//! to an atypical user, then survive concept drift — and gates on the
//! self-healing properties:
//!
//! 1. **Drift recovery** — under a sustained gait change the device's
//!    self-healing loop must commit an automatic recalibration, and the
//!    post-heal accuracy on the drifted distribution must land within
//!    10 points of the pre-drift accuracy.
//! 2. **Transactional recalibration** — with an unattainable replay
//!    floor, every automatic attempt must roll back and leave the
//!    serialized bundle byte-identical; repeated failures must trip the
//!    degraded advisory instead of looping forever.
//! 3. **Privacy** — `check_no_uplink` holds at every step: learning,
//!    calibration, drift detection and recalibration are all on-device.
//! 4. **Chaos stability** — a combined fault + drift plan swept over N
//!    seeds never panics, never emits a non-finite output, and replays
//!    bit-identically (drift statuses and healing counters included).
//!    `make check` sweeps 2 seeds; `make chaos-drift` runs the same
//!    binary with `--drift-seeds 16`.
//!
//! Alongside the gates it reports the standard continual-learning
//! metrics — per-step accuracy matrix, forgetting, backward transfer —
//! plus an open-set rejection-threshold sweep, all emitted as
//! machine-readable `BENCH_continual.json` (at the default seed count
//! only).

use magneto_bench::evaluate_device;
use magneto_core::drift::DriftStatus;
use magneto_core::{
    CloudConfig, CloudInitializer, EdgeBundle, EdgeConfig, EdgeDevice, SelfHealingConfig,
};
use magneto_sensors::{
    ActivityKind, DriftPlan, FaultPlan, GeneratorConfig, PersonProfile, SensorDataset,
    SensorFrame, SensorStream,
};
use magneto_tensor::SeededRng;
use serde::Serialize;
use std::collections::BTreeMap;

const WINDOW_LEN: usize = 120;
const MAX_ACCURACY_DROP: f64 = 0.10;
const BASE: [&str; 5] = ["drive", "e_scooter", "run", "still", "walk"];
/// Gait-change gain for the recovery scenario: strong enough that the
/// smoothed nearest-prototype distance clears the alert ratio, mild
/// enough that drifted walk windows still classify as walk — so the
/// harvested evidence refreshes the *right* prototype.
const RECOVERY_GAIN: f32 = 1.15;
/// Aggressive gain for the rollback and chaos scenarios, where we only
/// need sustained detection, not label fidelity.
const SEVERE_GAIN: f32 = 1.6;

#[derive(Serialize)]
struct StepRow {
    step: usize,
    action: String,
    /// Per-task accuracy; a task absent from the map was not introduced
    /// yet at this step.
    accuracy: BTreeMap<String, f64>,
}

#[derive(Serialize)]
struct OpenSetReport {
    /// (margin, threshold, known acceptance, novel rejection).
    sweep: Vec<(f64, f64, f64, f64)>,
    chosen_margin: f64,
    post_learning_acceptance: f64,
}

#[derive(Serialize)]
struct DriftRecoveryReport {
    pre_drift_accuracy: f64,
    drifted_accuracy: f64,
    post_heal_accuracy: f64,
    drift_alerts: u64,
    auto_recals: u64,
    recal_rollbacks: u64,
}

#[derive(Serialize)]
struct ContinualReport {
    bench: String,
    steps: Vec<StepRow>,
    /// Task -> step at which it was introduced (step 0 = deploy).
    introduced_at: BTreeMap<String, usize>,
    /// Task -> max historical accuracy minus final accuracy.
    forgetting: BTreeMap<String, f64>,
    /// Task -> final accuracy minus accuracy right after introduction.
    backward_transfer: BTreeMap<String, f64>,
    open_set: OpenSetReport,
    drift_recovery: DriftRecoveryReport,
    rollback_bundle_byte_identical: bool,
    rollback_degraded_advisory: bool,
    drift_seeds: u64,
    drift_predictions: u64,
    no_uplink: bool,
}

/// Seeds the `make check` sweep runs. Only a run at this count writes
/// `BENCH_continual.json`; a wider sweep (`--drift-seeds N`) asserts the
/// same gates without overwriting the committed report with
/// sweep-sized counts.
const DEFAULT_DRIFT_SEEDS: u64 = 2;

fn write_report(report: &ContinualReport) {
    let json = serde_json::to_string_pretty(report).expect("serialize report");
    std::fs::write("BENCH_continual.json", json).expect("write BENCH_continual.json");
}

fn walk_frames(n: usize, seed: u64, person: PersonProfile) -> Vec<SensorFrame> {
    let mut stream = SensorStream::new(
        ActivityKind::Walk.profile(),
        person,
        magneto_sensors::stream::StreamConfig::ideal(),
        SeededRng::new(seed),
    );
    (0..n).map(|_| stream.next().expect("stream frame")).collect()
}

/// Fraction of streamed windows labelled `expect`, with every output
/// checked finite.
fn streamed_accuracy(device: &mut EdgeDevice, frames: &[SensorFrame], expect: &str) -> f64 {
    let preds = device.push_frames(frames).expect("streaming");
    let hits = preds.iter().filter(|p| p.raw.label == expect).count();
    for p in &preds {
        assert!(
            p.raw.confidence.is_finite() && p.raw.distances.iter().all(|d| d.is_finite()),
            "continual_smoke: non-finite streaming output"
        );
    }
    hits as f64 / preds.len().max(1) as f64
}

/// Same-user recording of one activity.
fn recording(kind: ActivityKind, person: PersonProfile, seconds: f64, seed: u64) -> SensorDataset {
    SensorDataset::record_session(kind.label(), kind, person, seconds, seed)
}

/// Per-task test windows for one gesture, from the user who will teach
/// it (personalisation: the device learns *your* gesture).
fn gesture_test(kind: ActivityKind, seed: u64) -> SensorDataset {
    SensorDataset::generate_for_person(
        &GeneratorConfig {
            activities: vec![kind],
            windows_per_class: 12,
            ..GeneratorConfig::tiny()
        },
        PersonProfile::nominal(),
        seed,
    )
}

/// The class-incremental protocol: deploy → learn `gesture_hi` → learn
/// `gesture_circle` → calibrate `walk` to an atypical user. Returns the
/// per-step accuracy matrix plus the final device.
fn class_incremental(
    bundle: &EdgeBundle,
    atypical: PersonProfile,
) -> (Vec<StepRow>, BTreeMap<String, usize>, EdgeDevice) {
    let base_test = SensorDataset::generate(&GeneratorConfig::tiny(), 71);
    let hi_test = gesture_test(ActivityKind::GestureHi, 72);
    let circle_test = gesture_test(ActivityKind::GestureCircle, 73);
    let walk_personal_test = SensorDataset::generate_for_person(
        &GeneratorConfig {
            activities: vec![ActivityKind::Walk],
            windows_per_class: 12,
            ..GeneratorConfig::tiny()
        },
        atypical,
        75,
    );

    let mut union = base_test.clone();
    union.extend(hi_test.clone());
    union.extend(circle_test.clone());

    let mut device = EdgeDevice::deploy(bundle.clone(), EdgeConfig::default()).expect("deploy");
    let mut introduced_at = BTreeMap::new();
    introduced_at.insert("base".to_string(), 0);
    introduced_at.insert("gesture_hi".to_string(), 1);
    introduced_at.insert("gesture_circle".to_string(), 2);
    introduced_at.insert("walk_personal".to_string(), 3);

    let mut steps = Vec::new();
    let eval = |device: &mut EdgeDevice, step: usize, action: &str| {
        let cm = evaluate_device(device, &union);
        let mut accuracy = BTreeMap::new();
        accuracy.insert("base".to_string(), cm.subset_accuracy(&BASE));
        if step >= 1 {
            accuracy.insert("gesture_hi".to_string(), cm.subset_accuracy(&["gesture_hi"]));
        }
        if step >= 2 {
            accuracy.insert(
                "gesture_circle".to_string(),
                cm.subset_accuracy(&["gesture_circle"]),
            );
        }
        if step >= 3 {
            let pcm = evaluate_device(device, &walk_personal_test);
            accuracy.insert("walk_personal".to_string(), pcm.subset_accuracy(&["walk"]));
        }
        print!("step {step} {action:<24}");
        for (task, acc) in &accuracy {
            print!("  {task} {:.1}%", acc * 100.0);
        }
        println!();
        StepRow {
            step,
            action: action.to_string(),
            accuracy,
        }
    };

    steps.push(eval(&mut device, 0, "deploy"));

    device
        .learn_new_activity(
            "gesture_hi",
            &recording(ActivityKind::GestureHi, PersonProfile::nominal(), 20.0, 81),
        )
        .expect("learn gesture_hi")
        .committed()
        .expect("gesture_hi committed");
    steps.push(eval(&mut device, 1, "learn gesture_hi"));

    device
        .learn_new_activity(
            "gesture_circle",
            &recording(ActivityKind::GestureCircle, PersonProfile::nominal(), 20.0, 82),
        )
        .expect("learn gesture_circle")
        .committed()
        .expect("gesture_circle committed");
    steps.push(eval(&mut device, 2, "learn gesture_circle"));

    device
        .calibrate_activity(
            "walk",
            &recording(ActivityKind::Walk, atypical, 20.0, 83),
        )
        .expect("calibrate walk")
        .committed()
        .expect("walk calibration committed");
    steps.push(eval(&mut device, 3, "calibrate walk (atypical)"));

    device
        .privacy_ledger()
        .check_no_uplink()
        .expect("class-incremental protocol must stay on-device");
    (steps, introduced_at, device)
}

/// Forgetting per task: best historical accuracy minus final accuracy
/// (0 when the final step is the best). Backward transfer: final
/// accuracy minus accuracy at the introduction step.
fn continual_metrics(
    steps: &[StepRow],
    introduced_at: &BTreeMap<String, usize>,
) -> (BTreeMap<String, f64>, BTreeMap<String, f64>) {
    let mut forgetting = BTreeMap::new();
    let mut bwt = BTreeMap::new();
    for (task, &intro) in introduced_at {
        let series: Vec<f64> = steps
            .iter()
            .filter_map(|s| s.accuracy.get(task).copied())
            .collect();
        let (Some(&last), Some(&first)) = (series.last(), series.first()) else {
            continue;
        };
        let best = series.iter().copied().fold(f64::MIN, f64::max);
        forgetting.insert(task.clone(), best - last);
        if intro < steps.len() - 1 {
            bwt.insert(task.clone(), last - first);
        }
    }
    (forgetting, bwt)
}

/// Open-set sweep on a pre-gesture device: acceptance of known base
/// windows vs rejection of the unseen gesture, per margin; then the
/// post-learning acceptance of the gesture under the chosen margin.
fn open_set_sweep(bundle: &EdgeBundle) -> OpenSetReport {
    let mut device = EdgeDevice::deploy(bundle.clone(), EdgeConfig::default()).expect("deploy");
    let known = SensorDataset::generate(&GeneratorConfig::tiny(), 76);
    let novel = gesture_test(ActivityKind::GestureHi, 77);

    let acceptance = |device: &mut EdgeDevice, ds: &SensorDataset, threshold: f32| {
        let accepted = ds
            .windows
            .iter()
            .filter(|w| {
                device
                    .infer_window_open_set(&w.channels, threshold)
                    .expect("open-set inference")
                    .is_some()
            })
            .count();
        accepted as f64 / ds.len().max(1) as f64
    };

    let mut sweep = Vec::new();
    let mut chosen = (0.0f64, f64::MIN);
    println!(
        "{:>8} {:>10} {:>17} {:>16}",
        "margin", "threshold", "known acceptance", "novel rejection"
    );
    for margin in [1.0f32, 2.0, 3.0, 4.0, 6.0, 8.0] {
        let threshold = device
            .rejection_threshold(100.0, margin)
            .expect("rejection threshold");
        assert!(threshold.is_finite(), "non-finite rejection threshold");
        let known_acc = acceptance(&mut device, &known, threshold);
        let novel_rej = 1.0 - acceptance(&mut device, &novel, threshold);
        println!(
            "{margin:>8.1} {threshold:>10.3} {:>16.1}% {:>15.1}%",
            known_acc * 100.0,
            novel_rej * 100.0
        );
        sweep.push((f64::from(margin), f64::from(threshold), known_acc, novel_rej));
        if known_acc + novel_rej > chosen.1 {
            chosen = (f64::from(margin), known_acc + novel_rej);
        }
    }

    device
        .learn_new_activity(
            "gesture_hi",
            &recording(ActivityKind::GestureHi, PersonProfile::nominal(), 20.0, 78),
        )
        .expect("learn")
        .committed()
        .expect("learn committed");
    let threshold = device
        .rejection_threshold(100.0, chosen.0 as f32)
        .expect("threshold");
    let post = acceptance(&mut device, &novel, threshold);
    println!(
        "  margin {:.1}: post-learning gesture acceptance {:.1}%",
        chosen.0,
        post * 100.0
    );
    OpenSetReport {
        sweep,
        chosen_margin: chosen.0,
        post_learning_acceptance: post,
    }
}

/// Gate 1: a sustained-but-mild gait change must be detected, trigger an
/// automatic recalibration that commits through the replay gate, and
/// recover accuracy on the drifted distribution. `person` is the
/// device's owner — the user whose walk the device was calibrated to,
/// and whose gait now changes.
fn drift_recovery(bundle: &EdgeBundle, person: PersonProfile, seed: u64) -> DriftRecoveryReport {
    let config = EdgeConfig {
        healing: Some(SelfHealingConfig {
            // Harvest moderately-confident windows too: under drift the
            // margin shrinks before the label flips.
            min_confidence: 0.2,
            ..SelfHealingConfig::default()
        }),
        ..EdgeConfig::default()
    };
    let mut device = EdgeDevice::deploy(bundle.clone(), config).expect("deploy");

    // Phase A — clean stream: live-baseline calibration + warmup, then
    // the pre-drift reference accuracy.
    device
        .push_frames(&walk_frames(WINDOW_LEN * 8, seed, person))
        .expect("warmup");
    let pre = streamed_accuracy(
        &mut device,
        &walk_frames(WINDOW_LEN * 12, seed + 1, person),
        "walk",
    );

    // Phase B — the user's gait changes and stays changed. One injector
    // across both phases: the ramp completes here, so phase C serves the
    // fully-drifted regime.
    let mut injector = DriftPlan::gait_change(seed + 2, RECOVERY_GAIN, 600).injector();
    let drifted = streamed_accuracy(
        &mut device,
        &injector.apply(&walk_frames(WINDOW_LEN * 30, seed + 3, person)),
        "walk",
    );

    // Phase C — post-heal accuracy on the same drifted distribution.
    let post = streamed_accuracy(
        &mut device,
        &injector.apply(&walk_frames(WINDOW_LEN * 12, seed + 4, person)),
        "walk",
    );

    let stats = device.healing_stats().expect("healing enabled");
    device
        .privacy_ledger()
        .check_no_uplink()
        .expect("self-healing must add zero uplink");
    println!(
        "drift_recovery: pre {:.1}%  drifted {:.1}%  post-heal {:.1}%  \
         (alerts {}, recals {}, rollbacks {})",
        pre * 100.0,
        drifted * 100.0,
        post * 100.0,
        stats.drift_alerts,
        stats.auto_recals,
        stats.recal_rollbacks
    );
    DriftRecoveryReport {
        pre_drift_accuracy: pre,
        drifted_accuracy: drifted,
        post_heal_accuracy: post,
        drift_alerts: stats.drift_alerts,
        auto_recals: stats.auto_recals,
        recal_rollbacks: stats.recal_rollbacks,
    }
}

/// Gate 2: an unattainable replay floor forces every automatic attempt
/// to roll back; the bundle must stay byte-identical and the policy must
/// degrade rather than retry forever.
fn rollback_byte_exact(bundle: &EdgeBundle) -> (bool, bool) {
    let mut config = EdgeConfig::default();
    config.incremental.validation.self_accuracy_floor = 1.5; // unattainable
    config.healing = Some(SelfHealingConfig {
        max_strikes: 2,
        cooldown: 4,
        min_confidence: 0.05,
        ..SelfHealingConfig::default()
    });
    let mut device = EdgeDevice::deploy(bundle.clone(), config).expect("deploy");
    let before = device.as_bundle().to_bytes(false);

    device
        .push_frames(&walk_frames(WINDOW_LEN * 8, 85, PersonProfile::nominal()))
        .expect("warmup");
    let mut injector = DriftPlan::gait_change(86, SEVERE_GAIN, 600).injector();
    device
        .push_frames(&injector.apply(&walk_frames(WINDOW_LEN * 60, 87, PersonProfile::nominal())))
        .expect("drifted stream");

    let stats = device.healing_stats().expect("healing enabled");
    assert_eq!(
        stats.auto_recals, 0,
        "continual_smoke: impossible floor committed a recalibration: {stats:?}"
    );
    assert!(
        stats.recal_rollbacks >= 1,
        "continual_smoke: sustained drift never attempted recalibration: {stats:?}"
    );
    device.privacy_ledger().check_no_uplink().expect("no uplink");
    let byte_identical = before == device.as_bundle().to_bytes(false);
    (byte_identical, stats.degraded)
}

/// Gate 4: combined fault + drift plans over N seeds — never a panic,
/// never a non-finite output, and the whole run (labels, confidences,
/// drift statuses, healing counters) replays bit-identically.
fn drift_chaos_sweep(bundle: &EdgeBundle, seeds: u64) -> u64 {
    let mut predictions = 0u64;
    for seed in 0..seeds {
        let clean = walk_frames(WINDOW_LEN * 20, seed + 900, PersonProfile::nominal());
        let faults = FaultPlan::nasty(seed ^ 0xD41F);
        let drift = DriftPlan::gait_change(seed ^ 0x5EED, SEVERE_GAIN, 400);
        let serve = |frames: &[SensorFrame]| {
            let config = EdgeConfig {
                healing: Some(SelfHealingConfig {
                    min_confidence: 0.05,
                    ..SelfHealingConfig::default()
                }),
                ..EdgeConfig::default()
            };
            let mut device = EdgeDevice::deploy(bundle.clone(), config).expect("deploy");
            let preds = device.push_frames(frames).expect("chaos stream must serve");
            let trace: Vec<_> = preds
                .iter()
                .map(|p| {
                    assert!(
                        p.raw.confidence.is_finite()
                            && p.raw.distances.iter().all(|d| d.is_finite()),
                        "continual_smoke: non-finite output at drift-chaos seed {seed}"
                    );
                    (
                        p.raw.label.clone(),
                        p.raw.confidence.to_bits(),
                        matches!(p.raw.drift, Some(DriftStatus::Drifted { .. })),
                    )
                })
                .collect();
            device.privacy_ledger().check_no_uplink().expect("no uplink");
            (trace, device.healing_stats().expect("healing enabled"))
        };
        // Faults first (the sensor path), then drift (the user): the
        // same composition order both runs.
        let perturbed = drift
            .injector()
            .apply(&faults.injector().apply(&clean));
        let perturbed_again = drift
            .injector()
            .apply(&faults.injector().apply(&clean));
        let a = serve(&perturbed);
        let b = serve(&perturbed_again);
        assert_eq!(
            a, b,
            "continual_smoke: drift-chaos seed {seed} did not replay bit-identically"
        );
        predictions += a.0.len() as u64;
    }
    predictions
}

fn main() {
    let drift_seeds: u64 = {
        let args: Vec<String> = std::env::args().collect();
        args.iter()
            .position(|a| a == "--drift-seeds")
            .and_then(|i| args.get(i + 1))
            .map(|v| v.parse().expect("--drift-seeds takes an integer"))
            .unwrap_or(DEFAULT_DRIFT_SEEDS)
    };

    let corpus = SensorDataset::generate(&GeneratorConfig::tiny(), 70);
    let (bundle, _) = CloudInitializer::new(CloudConfig::fast_demo())
        .pretrain(&corpus)
        .expect("pretrain");

    // Class-incremental protocol + continual metrics. The atypical user
    // is the device's owner from the calibration step onwards.
    let atypical = PersonProfile::sample_atypical(&mut SeededRng::new(74));
    let (steps, introduced_at, device) = class_incremental(&bundle, atypical);
    let (forgetting, backward_transfer) = continual_metrics(&steps, &introduced_at);
    for (task, f) in &forgetting {
        println!(
            "forgetting {task}: {:.1} pts (bwt {})",
            f * 100.0,
            backward_transfer
                .get(task)
                .map_or("n/a".into(), |b| format!("{:+.1} pts", b * 100.0))
        );
    }
    assert!(
        forgetting["base"] <= MAX_ACCURACY_DROP,
        "continual_smoke: base classes forgot {:.1} pts across the protocol",
        forgetting["base"] * 100.0
    );

    // Open-set rejection sweep.
    let open_set = open_set_sweep(&bundle);

    // Gate 1: drift recovery on the device that lived the whole
    // protocol (its snapshot carries the learned gestures and the walk
    // calibration) — it is the atypical owner's gait that changes.
    let lived = device.as_bundle();
    let recovery = drift_recovery(&lived, atypical, 84);
    assert!(
        recovery.drift_alerts >= 1,
        "continual_smoke: gait change never raised a drift alert"
    );
    assert!(
        recovery.auto_recals >= 1,
        "continual_smoke: sustained drift never committed an automatic recalibration"
    );
    assert!(
        recovery.post_heal_accuracy >= recovery.pre_drift_accuracy - MAX_ACCURACY_DROP,
        "continual_smoke: post-heal accuracy {:.3} fell more than {MAX_ACCURACY_DROP} \
         below pre-drift {:.3}",
        recovery.post_heal_accuracy,
        recovery.pre_drift_accuracy
    );

    // Gate 2: byte-exact rollback under an impossible floor.
    let (rollback_ok, degraded) = rollback_byte_exact(&bundle);
    assert!(
        rollback_ok,
        "continual_smoke: rolled-back recalibration mutated the bundle"
    );

    // Gate 4: combined fault + drift chaos sweep.
    let drift_predictions = drift_chaos_sweep(&bundle, drift_seeds);
    assert!(drift_predictions > 0, "drift-chaos sweep served nothing");

    if drift_seeds == DEFAULT_DRIFT_SEEDS {
        write_report(&ContinualReport {
            bench: "continual_smoke".into(),
            steps,
            introduced_at,
            forgetting,
            backward_transfer,
            open_set,
            drift_recovery: recovery,
            rollback_bundle_byte_identical: rollback_ok,
            rollback_degraded_advisory: degraded,
            drift_seeds,
            drift_predictions,
            no_uplink: true,
        });
    } else {
        println!("BENCH_continual.json left as is: written only at {DEFAULT_DRIFT_SEEDS} seeds");
    }
    println!(
        "continual_smoke OK: drift recovery within {MAX_ACCURACY_DROP} of pre-drift, \
         rollback byte-exact, no uplink, {drift_predictions} finite predictions \
         across {drift_seeds} drift-chaos seeds"
    );
}
