//! Rollout lifecycle smoke test (wired into `make check`): drives the
//! versioned base-model lifecycle end-to-end over a fleet of ≥1k edge
//! sessions and gates on the rollout pipeline's core guarantees:
//!
//! 1. **Healthy upgrade** — a valid v1 → v2 successor rolls out through
//!    all three default waves (2 % canary, 18 %, 80 %), migrates every
//!    session, re-pins calibrated deltas, and ships as a section diff a
//!    fraction of the full bundle's size.
//! 2. **Canary gate** — a seeded regression (support classes rotated one
//!    label over, lineage perfectly valid) must halt at wave 0 and leave
//!    every device — canary included — serving the prior version.
//! 3. **Definition 1** — across both rollouts the privacy ledger shows
//!    zero uplink bytes and every Cloud → Edge payload within the 5 MB
//!    budget; ledger and fleet accounting agree byte-for-byte.
//!
//! Emits machine-readable `BENCH_rollout.json` in the working directory.

use magneto_core::privacy::{Direction, PrivacyLedger};
use magneto_core::{
    CloudConfig, CloudInitializer, EdgeBundle, ModelVersion, Precision,
};
use magneto_fleet::{Fleet, FleetConfig, FleetReply, SessionId};
use magneto_platform::rollout::DOWNLINK_BUDGET_BYTES;
use magneto_platform::{
    EnergyModel, FleetAccounting, Rollout, RolloutConfig, RolloutReport, RolloutStatus,
};
use magneto_sensors::pool::StreamPool;
use magneto_sensors::stream::StreamConfig;
use magneto_sensors::{ActivityKind, GeneratorConfig, SensorDataset};
use magneto_tensor::SeededRng;
use serde::Serialize;
use std::sync::mpsc::Receiver;

const DEFAULT_SESSIONS: usize = 1000;
const CALIBRATE_EVERY: usize = 7;

#[derive(Serialize)]
struct RolloutSmokeReport {
    bench: String,
    sessions: usize,
    healthy: RolloutReport,
    regressed: RolloutReport,
    healthy_completed: bool,
    regression_halted_at_canary: bool,
    all_on_prior_version_after_halt: bool,
    no_uplink: bool,
    downlink_within_budget: bool,
}

/// A regressed successor of `base`: every support class answers with the
/// next label's samples. The lineage chain stays valid — only the canary
/// accuracy gate can catch this.
fn regress(base: &EdgeBundle) -> EdgeBundle {
    let mut bad = base.clone();
    let labels: Vec<String> = bad.registry.labels().to_vec();
    let mut rng = SeededRng::new(99);
    let samples: Vec<Vec<Vec<f32>>> = labels
        .iter()
        .map(|l| base.support_set.samples(l).unwrap().to_vec())
        .collect();
    for (i, label) in labels.iter().enumerate() {
        let rotated = &samples[(i + 1) % samples.len()];
        bad.support_set.set_class(label, rotated, &mut rng).unwrap();
    }
    bad.with_lineage(base.child_lineage())
}

/// Cloud-owned probe windows (operator-synthesized, not user data).
fn probes(per_class: usize) -> Vec<(Vec<Vec<f32>>, String)> {
    let ds = SensorDataset::generate(
        &GeneratorConfig {
            windows_per_class: per_class,
            ..GeneratorConfig::tiny()
        },
        5,
    );
    ds.windows
        .into_iter()
        .map(|w| (w.channels, w.label))
        .collect()
}

fn calibration_windows(count: usize, seed: u64) -> Vec<Vec<Vec<f32>>> {
    let mut pool = StreamPool::new(1, &ActivityKind::BASE_FIVE, 120, StreamConfig::ideal(), seed);
    (0..count).map(|_| pool.next_round().remove(0)).collect()
}

fn main() {
    let sessions_target: usize = {
        let args: Vec<String> = std::env::args().collect();
        args.iter()
            .position(|a| a == "--sessions")
            .and_then(|i| args.get(i + 1))
            .map(|v| v.parse().expect("--sessions takes an integer"))
            .unwrap_or(DEFAULT_SESSIONS)
    };

    println!("rollout_smoke: pre-training v1 and registering {sessions_target} sessions…");
    let corpus = SensorDataset::generate(&GeneratorConfig::tiny(), 1);
    let (v1, _) = CloudInitializer::new(CloudConfig::fast_demo())
        .pretrain(&corpus)
        .unwrap();

    let mut fleet = Fleet::new(FleetConfig::deterministic()).unwrap();
    let key1 = fleet.register_base(&v1, Precision::F32).unwrap();
    let sessions: Vec<(SessionId, Receiver<FleetReply>)> = (0..sessions_target)
        .map(|i| {
            let (id, rx) = fleet.register_from_base(key1, Precision::F32).unwrap();
            if i % CALIBRATE_EVERY == 0 {
                fleet
                    .calibrate_session(id, "user_move", &calibration_windows(2, 100 + i as u64))
                    .unwrap();
            }
            (id, rx)
        })
        .collect();

    let probe_set = probes(2);
    let mut acc = FleetAccounting::new(EnergyModel::lte_phone(), &[80, 128, 64, 32], 5, 22, 120);
    let mut ledger = PrivacyLedger::edge_only();
    let rollout = Rollout::new(RolloutConfig::default()).unwrap();

    // Gate 1: healthy v1 → v2 completes all three waves.
    let v2 = v1.clone().with_lineage(v1.child_lineage());
    println!("rollout_smoke: rolling out v1 → v2 (healthy) across 3 waves…");
    let healthy = rollout
        .run(
            &mut fleet,
            &v1,
            &v2,
            &sessions,
            &probe_set,
            Precision::F32,
            &mut acc,
            &mut ledger,
        )
        .expect("healthy rollout must not error");
    let healthy_completed = healthy.status == RolloutStatus::Completed;
    assert!(healthy_completed, "rollout_smoke: healthy rollout halted: {:?}", healthy.status);
    assert_eq!(healthy.waves.len(), 3, "rollout_smoke: expected 3 waves");
    assert_eq!(
        healthy.waves.iter().map(|w| w.sessions).sum::<usize>(),
        sessions.len(),
        "rollout_smoke: waves must cover every session"
    );
    assert!(
        healthy.diff_bytes * 10 < healthy.full_bundle_bytes,
        "rollout_smoke: diff {} not a fraction of full bundle {}",
        healthy.diff_bytes,
        healthy.full_bundle_bytes
    );
    for (id, _) in &sessions {
        assert_eq!(
            fleet.session_version(*id).unwrap(),
            ModelVersion(2),
            "rollout_smoke: session not on v2 after healthy rollout"
        );
    }
    println!(
        "rollout_smoke: v2 live on {} sessions (baseline {:.1}%, diff {} B vs full {} B)",
        sessions.len(),
        healthy.baseline_accuracy * 100.0,
        healthy.diff_bytes,
        healthy.full_bundle_bytes
    );

    // Gate 2: a seeded regression v2 → v3 halts at the canary wave and
    // every device ends up back on version N (= v2).
    let key2 = fleet.register_base(&v2, Precision::F32).unwrap();
    let before: Vec<Vec<u8>> = sessions
        .iter()
        .map(|(id, _)| fleet.session_delta(*id).unwrap().to_bytes())
        .collect();
    let v3_bad = regress(&v2);
    println!("rollout_smoke: rolling out v2 → v3 (seeded regression)…");
    let regressed = rollout
        .run(
            &mut fleet,
            &v2,
            &v3_bad,
            &sessions,
            &probe_set,
            Precision::F32,
            &mut acc,
            &mut ledger,
        )
        .expect("regressed rollout must halt, not error");
    let regression_halted_at_canary = matches!(
        regressed.status,
        RolloutStatus::Halted { wave: 0, .. }
    );
    assert!(
        regression_halted_at_canary,
        "rollout_smoke: regression was not halted at the canary wave: {:?}",
        regressed.status
    );
    assert_eq!(regressed.waves.len(), 1, "rollout_smoke: later waves must never ship");
    let mut all_on_prior = true;
    for ((id, _), snapshot) in sessions.iter().zip(&before) {
        all_on_prior &= fleet.session_version(*id).unwrap() == ModelVersion(2);
        all_on_prior &= fleet.session_key(*id).unwrap() == key2;
        all_on_prior &= &fleet.session_delta(*id).unwrap().to_bytes() == snapshot;
    }
    assert!(
        all_on_prior,
        "rollout_smoke: a device was left off version N after the halt"
    );
    println!(
        "rollout_smoke: canary gate tripped at wave 0 ({} devices restored to v2)",
        match regressed.status {
            RolloutStatus::Halted { restored, .. } => restored,
            RolloutStatus::Completed => 0,
        }
    );

    // Gate 3: Definition 1 across both rollouts.
    let no_uplink = ledger.check_no_uplink().is_ok() && ledger.uplink_bytes() == 0;
    let downlink_within_budget = ledger.check_downlink_budget(DOWNLINK_BUDGET_BYTES).is_ok()
        && ledger
            .records()
            .iter()
            .all(|r| r.direction == Direction::CloudToEdge && r.bytes <= DOWNLINK_BUDGET_BYTES);
    assert!(no_uplink, "rollout_smoke: Definition 1 violated — uplink recorded");
    assert!(downlink_within_budget, "rollout_smoke: downlink payload over the 5 MB budget");
    let shipped: u64 = healthy
        .waves
        .iter()
        .chain(regressed.waves.iter())
        .map(|w| w.downlink_bytes)
        .sum();
    assert_eq!(
        ledger.downlink_bytes() as u64,
        acc.downlink_bytes,
        "rollout_smoke: ledger and fleet accounting disagree"
    );
    assert_eq!(shipped, acc.downlink_bytes, "rollout_smoke: wave totals disagree with accounting");

    let report = RolloutSmokeReport {
        bench: "rollout_smoke".into(),
        sessions: sessions.len(),
        healthy,
        regressed,
        healthy_completed,
        regression_halted_at_canary,
        all_on_prior_version_after_halt: all_on_prior,
        no_uplink,
        downlink_within_budget,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write("BENCH_rollout.json", json).expect("write BENCH_rollout.json");

    fleet.shutdown();
    println!(
        "rollout_smoke OK: {} sessions upgraded v1 → v2, regression halted at canary, \
         Definition 1 held across both rollouts",
        sessions.len()
    );
}
