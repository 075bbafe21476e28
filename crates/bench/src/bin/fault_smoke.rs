//! Fault-tolerance smoke test (wired into `make check`): drives the full
//! edge lifecycle — infer, learn, crash-save, reload — under injected
//! sensor faults and simulated crashes, and gates on four properties:
//!
//! 1. **Graceful degradation** — held-out streaming accuracy at 5 % and
//!    20 % frame drop stays within 10 points of the clean-stream
//!    accuracy (dropped frames shorten the stream; surviving windows
//!    must classify as well as ever).
//! 2. **Transactional learning** — an update rejected by validation
//!    leaves the serialized bundle byte-identical.
//! 3. **Crash-safe persistence** — a save interrupted mid-journal
//!    (torn write) loses nothing: reload yields the old bundle; a save
//!    interrupted after the journal completes rolls forward to the new
//!    bundle. Never an error, never a hybrid.
//! 4. **Chaos stability** — an aggressive all-faults plan (drops,
//!    frozen channels, NaN/saturation bursts, jitter) swept over N
//!    seeds never panics, never emits a non-finite output, and replays
//!    bit-identically. `make check` sweeps 4 seeds; `make chaos` runs
//!    the same binary with `--chaos-seeds 32`.
//!
//! Emits machine-readable `BENCH_fault.json` in the working directory
//! (at the default seed count only).

use magneto_core::storage::{journal_path, load_bundle, save_bundle};
use magneto_core::{
    CloudConfig, CloudInitializer, EdgeBundle, EdgeConfig, EdgeDevice, UpdateOutcome,
};
use magneto_sensors::{
    ActivityKind, FaultPlan, PersonProfile, SensorDataset, SensorFrame, GeneratorConfig,
    NUM_CHANNELS, SAMPLE_RATE_HZ,
};
use serde::Serialize;
use std::path::PathBuf;

const WINDOW_LEN: usize = 120;
const SECONDS_PER_CLASS: f64 = 30.0;
const DROP_RATES: &[f64] = &[0.0, 0.05, 0.20];
const MAX_ACCURACY_DROP: f64 = 0.10;
const CHAOS_FRAMES: usize = 720;

#[derive(Serialize)]
struct DropEntry {
    drop_rate: f64,
    windows: usize,
    accuracy: f64,
}

#[derive(Serialize)]
struct FaultReport {
    bench: String,
    drop_sweep: Vec<DropEntry>,
    rollback_bundle_byte_identical: bool,
    torn_journal_recovers_old: bool,
    complete_journal_rolls_forward: bool,
    chaos_seeds: u64,
    chaos_predictions: u64,
}

/// Seeds the `make check` sweep runs. Only a run at this count writes
/// `BENCH_fault.json`; a wider sweep (`--chaos-seeds N`) asserts the
/// same gates without overwriting the committed report with
/// sweep-sized counts.
const DEFAULT_CHAOS_SEEDS: u64 = 4;

fn write_report(report: &FaultReport) {
    let json = serde_json::to_string_pretty(report).expect("serialize report");
    std::fs::write("BENCH_fault.json", json).expect("write BENCH_fault.json");
}

/// Transpose a `channels x samples` window back into frames so the
/// injector (which operates on frame streams) can perturb it.
fn window_to_frames(channels: &[Vec<f32>], t0: usize) -> Vec<SensorFrame> {
    let samples = channels.first().map_or(0, Vec::len);
    (0..samples)
        .map(|t| {
            let mut values = [0.0f32; NUM_CHANNELS];
            for (c, ch) in channels.iter().enumerate() {
                values[c] = ch[t];
            }
            SensorFrame {
                timestamp: (t0 + t) as f64 / SAMPLE_RATE_HZ,
                values,
            }
        })
        .collect()
}

/// Held-out per-class streaming accuracy after dropping `drop_rate` of
/// the frames: each class's recording becomes one lossy stream,
/// re-windowed from whatever frames survive.
fn accuracy_under_drop(bundle: &EdgeBundle, drop_rate: f64, seed: u64) -> (usize, f64) {
    let mut device = EdgeDevice::deploy(bundle.clone(), EdgeConfig::default()).unwrap();
    let mut correct = 0usize;
    let mut total = 0usize;
    for (k, kind) in ActivityKind::BASE_FIVE.iter().enumerate() {
        let session = SensorDataset::record_session(
            kind.label(),
            *kind,
            PersonProfile::nominal(),
            SECONDS_PER_CLASS,
            seed + k as u64,
        );
        let mut frames = Vec::new();
        for w in &session.windows {
            frames.extend(window_to_frames(&w.channels, frames.len()));
        }
        let survived = FaultPlan::drops(seed ^ 0xD509, drop_rate).injector().apply(&frames);
        for chunk in survived.chunks_exact(WINDOW_LEN) {
            let mut channels: Vec<Vec<f32>> = (0..NUM_CHANNELS)
                .map(|_| Vec::with_capacity(WINDOW_LEN))
                .collect();
            for f in chunk {
                for (c, v) in f.values.iter().enumerate() {
                    channels[c].push(*v);
                }
            }
            let pred = device.infer_window(&channels).expect("inference");
            total += 1;
            if pred.label == kind.label() {
                correct += 1;
            }
        }
    }
    (total, correct as f64 / total.max(1) as f64)
}

/// Gate 2: a validation-rejected update must leave the bundle bytes
/// untouched.
fn check_transactional_rollback(bundle: &EdgeBundle) -> bool {
    let mut config = EdgeConfig::default();
    config.incremental.validation.self_accuracy_floor = 1.5; // unattainable
    let mut device = EdgeDevice::deploy(bundle.clone(), config).unwrap();
    let before = device.as_bundle().to_bytes(false);
    let recording = SensorDataset::record_session(
        "gesture_hi",
        ActivityKind::GestureHi,
        PersonProfile::nominal(),
        10.0,
        41,
    );
    let outcome = device
        .learn_new_activity("gesture_hi", &recording)
        .expect("update should roll back, not error");
    assert!(
        matches!(outcome, UpdateOutcome::RolledBack { .. }),
        "fault_smoke: impossible accuracy floor did not trigger rollback"
    );
    before == device.as_bundle().to_bytes(false)
}

/// Gate 3: crash-save. Simulates a crash at both interesting points of
/// the two-phase commit by planting (a) a torn journal and (b) a
/// complete journal next to an existing bundle, then reloading.
fn check_crash_save(old: &EdgeBundle, new: &EdgeBundle, dir: &PathBuf) -> (bool, bool) {
    std::fs::create_dir_all(dir).expect("create scratch dir");
    let path = dir.join("device.magneto");
    save_bundle(old, &path, false).expect("save old bundle");
    let old_bytes = std::fs::read(&path).expect("read old file");

    // A journal's on-disk format equals the final file's: capture the
    // new bundle's framed bytes from a sibling save.
    let sibling = dir.join("device.new.magneto");
    save_bundle(new, &sibling, false).expect("save new bundle");
    let new_bytes = std::fs::read(&sibling).expect("read new file");

    // Crash mid-journal-write: only half the journal made it to disk.
    std::fs::write(journal_path(&path), &new_bytes[..new_bytes.len() / 2])
        .expect("plant torn journal");
    let after_torn = load_bundle(&path).expect("load with torn journal");
    let torn_ok = after_torn.to_bytes(false) == old.to_bytes(false)
        && std::fs::read(&path).expect("reread") == old_bytes;

    // Crash after the journal completed but before the final rename:
    // recovery must roll the new bundle forward.
    std::fs::write(journal_path(&path), &new_bytes).expect("plant complete journal");
    let after_complete = load_bundle(&path).expect("load with complete journal");
    let complete_ok = after_complete.to_bytes(false) == new.to_bytes(false)
        && std::fs::read(&path).expect("reread") == new_bytes;

    let _unused = std::fs::remove_dir_all(dir);
    (torn_ok, complete_ok)
}

/// Gate 4: `seeds` nasty fault plans through the streaming path — all
/// outputs finite, every run bit-identical on replay. Returns the
/// prediction count as a liveness witness.
fn chaos_sweep(bundle: &EdgeBundle, seeds: u64) -> u64 {
    let mut predictions = 0u64;
    for seed in 0..seeds {
        let clean = SensorDataset::record_session(
            "walk",
            ActivityKind::Walk,
            PersonProfile::nominal(),
            CHAOS_FRAMES as f64 / SAMPLE_RATE_HZ,
            seed + 500,
        );
        let mut frames = Vec::new();
        for w in &clean.windows {
            frames.extend(window_to_frames(&w.channels, frames.len()));
        }
        let plan = FaultPlan::nasty(seed);
        let serve = |faulted: &[SensorFrame]| {
            let mut device = EdgeDevice::deploy(bundle.clone(), EdgeConfig::default()).unwrap();
            let preds = device.push_frames(faulted).expect("faulted stream must serve");
            preds
                .iter()
                .map(|p| {
                    assert!(
                        p.raw.confidence.is_finite()
                            && p.raw.distances.iter().all(|d| d.is_finite()),
                        "fault_smoke: non-finite output at chaos seed {seed}"
                    );
                    (
                        p.raw.label.clone(),
                        p.raw.confidence.to_bits(),
                        p.raw.distances.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
                    )
                })
                .collect::<Vec<_>>()
        };
        let a = serve(&plan.injector().apply(&frames));
        let b = serve(&plan.injector().apply(&frames));
        assert_eq!(a, b, "fault_smoke: chaos seed {seed} did not replay bit-identically");
        predictions += a.len() as u64;
    }
    predictions
}

fn main() {
    let chaos_seeds: u64 = {
        let args: Vec<String> = std::env::args().collect();
        args.iter()
            .position(|a| a == "--chaos-seeds")
            .and_then(|i| args.get(i + 1))
            .map(|v| v.parse().expect("--chaos-seeds takes an integer"))
            .unwrap_or(DEFAULT_CHAOS_SEEDS)
    };

    let corpus = SensorDataset::generate(&GeneratorConfig::tiny(), 5);
    let (bundle, _) = CloudInitializer::new(CloudConfig::fast_demo())
        .pretrain(&corpus)
        .unwrap();

    // Gate 1: accuracy under frame drop.
    let mut drop_sweep = Vec::new();
    for &rate in DROP_RATES {
        let (windows, accuracy) = accuracy_under_drop(&bundle, rate, 60);
        println!(
            "fault_smoke: drop {:>4.0}% -> {windows} windows, accuracy {:.1}%",
            rate * 100.0,
            accuracy * 100.0
        );
        drop_sweep.push(DropEntry {
            drop_rate: rate,
            windows,
            accuracy,
        });
    }
    let clean_acc = drop_sweep[0].accuracy;
    for entry in &drop_sweep[1..] {
        assert!(
            entry.accuracy >= clean_acc - MAX_ACCURACY_DROP,
            "fault_smoke: accuracy at {:.0}% drop fell from {:.3} to {:.3}",
            entry.drop_rate * 100.0,
            clean_acc,
            entry.accuracy
        );
    }

    // Gate 2: transactional rollback is byte-exact.
    let rollback_ok = check_transactional_rollback(&bundle);
    assert!(rollback_ok, "fault_smoke: rollback left the bundle changed");

    // Gate 3: crash-save. The "new" bundle is the old one after a real
    // committed on-device update, so old != new byte-wise.
    let mut learner = EdgeDevice::deploy(bundle.clone(), EdgeConfig::default()).unwrap();
    let recording = SensorDataset::record_session(
        "gesture_hi",
        ActivityKind::GestureHi,
        PersonProfile::nominal(),
        20.0,
        42,
    );
    learner
        .learn_new_activity("gesture_hi", &recording)
        .expect("learn")
        .committed()
        .expect("learn committed");
    let new_bundle = learner.as_bundle();
    let dir = std::env::temp_dir().join(format!("magneto_fault_smoke_{}", std::process::id()));
    let (torn_ok, complete_ok) = check_crash_save(&bundle, &new_bundle, &dir);
    assert!(torn_ok, "fault_smoke: torn journal corrupted the old bundle");
    assert!(complete_ok, "fault_smoke: complete journal failed to roll forward");

    // Gate 4: chaos sweep.
    let chaos_predictions = chaos_sweep(&bundle, chaos_seeds);
    assert!(chaos_predictions > 0, "chaos sweep served nothing");

    if chaos_seeds == DEFAULT_CHAOS_SEEDS {
        write_report(&FaultReport {
            bench: "fault_smoke".into(),
            drop_sweep,
            rollback_bundle_byte_identical: rollback_ok,
            torn_journal_recovers_old: torn_ok,
            complete_journal_rolls_forward: complete_ok,
            chaos_seeds,
            chaos_predictions,
        });
    } else {
        println!("BENCH_fault.json left as is: written only at {DEFAULT_CHAOS_SEEDS} seeds");
    }
    println!(
        "fault_smoke OK: rollback byte-exact, crash-save old/new safe, \
         {chaos_predictions} finite predictions across {chaos_seeds} chaos seeds"
    );
}
