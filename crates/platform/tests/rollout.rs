//! Rollout lifecycle integration tests, including the Definition-1
//! property test: whatever the wave layout or cohort size, a rollout
//! never uploads a byte and never ships a downlink payload over the
//! 5 MB budget.

use magneto_core::privacy::{Direction, PrivacyLedger};
use magneto_core::{
    CloudConfig, CloudInitializer, EdgeBundle, Lineage, ModelVersion, Precision,
};
use magneto_fleet::{Fleet, FleetConfig, FleetReply, SessionId};
use magneto_platform::rollout::DOWNLINK_BUDGET_BYTES;
use magneto_platform::{EnergyModel, FleetAccounting, Rollout, RolloutConfig, RolloutStatus};
use magneto_sensors::pool::StreamPool;
use magneto_sensors::stream::StreamConfig;
use magneto_sensors::{ActivityKind, GeneratorConfig, SensorDataset};
use magneto_tensor::SeededRng;
use proptest::prelude::*;
use std::sync::mpsc::Receiver;
use std::sync::OnceLock;

/// The fleet's current base: the pretrained seed bundle, version 1.
fn bundle_v1() -> &'static EdgeBundle {
    static BUNDLE: OnceLock<EdgeBundle> = OnceLock::new();
    BUNDLE.get_or_init(|| {
        let corpus = SensorDataset::generate(&GeneratorConfig::tiny(), 1);
        let (bundle, _) = CloudInitializer::new(CloudConfig::fast_demo())
            .pretrain(&corpus)
            .unwrap();
        assert_eq!(bundle.version(), ModelVersion(1));
        bundle
    })
}

/// A healthy successor: same weights, new version (a no-op retrain).
fn bundle_v2() -> EdgeBundle {
    let v1 = bundle_v1();
    v1.clone().with_lineage(v1.child_lineage())
}

/// A regressed successor: the support classes are rotated one label
/// over, so every base prototype answers for the wrong activity. The
/// lineage is perfectly valid — only the canary gate can catch this.
fn bundle_v2_regressed() -> EdgeBundle {
    let v1 = bundle_v1();
    let mut bad = v1.clone();
    let labels: Vec<String> = bad.registry.labels().to_vec();
    let mut rng = SeededRng::new(99);
    let samples: Vec<Vec<Vec<f32>>> = labels
        .iter()
        .map(|l| v1.support_set.samples(l).unwrap().to_vec())
        .collect();
    for (i, label) in labels.iter().enumerate() {
        let rotated = &samples[(i + 1) % samples.len()];
        bad.support_set.set_class(label, rotated, &mut rng).unwrap();
    }
    bad.with_lineage(v1.child_lineage())
}

/// Cloud-owned probe windows with expected labels (synthesized by the
/// operator — not user recordings, so grading them uploads nothing).
fn probes(n: usize) -> Vec<(Vec<Vec<f32>>, String)> {
    let ds = SensorDataset::generate(
        &GeneratorConfig {
            windows_per_class: n,
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

fn accounting() -> FleetAccounting {
    FleetAccounting::new(EnergyModel::lte_phone(), &[80, 128, 64, 32], 5, 22, 120)
}

/// Register `n` delta sessions on v1, calibrating every third one so
/// the cohort mixes personalized and pristine devices.
fn cohort(fleet: &Fleet, n: usize) -> Vec<(SessionId, Receiver<FleetReply>)> {
    let key = fleet.register_base(bundle_v1(), Precision::F32).unwrap();
    (0..n)
        .map(|i| {
            let (id, rx) = fleet.register_from_base(key, Precision::F32).unwrap();
            if i % 3 == 0 {
                fleet
                    .calibrate_session(id, "user_move", &calibration_windows(2, 100 + i as u64))
                    .unwrap();
            }
            (id, rx)
        })
        .collect()
}

#[test]
fn healthy_rollout_migrates_every_wave() {
    let mut fleet = Fleet::new(FleetConfig::deterministic()).unwrap();
    let sessions = cohort(&fleet, 12);
    let v2 = bundle_v2();
    let mut acc = accounting();
    let mut ledger = PrivacyLedger::edge_only();
    let report = Rollout::new(RolloutConfig::default())
        .unwrap()
        .run(
            &mut fleet,
            bundle_v1(),
            &v2,
            &sessions,
            &probes(2),
            Precision::F32,
            &mut acc,
            &mut ledger,
        )
        .unwrap();

    assert_eq!(report.status, RolloutStatus::Completed);
    assert_eq!(report.from_version, ModelVersion(1));
    assert_eq!(report.to_version, ModelVersion(2));
    assert_eq!(
        report.waves.iter().map(|w| w.sessions).sum::<usize>(),
        sessions.len()
    );
    assert_eq!(report.waves.iter().map(|w| w.rolled_back).sum::<usize>(), 0);
    // The upgrade travelled as a diff, not a full bundle: only the
    // lineage section changed, so the diff is a fraction of the bundle.
    assert!(
        report.diff_bytes * 10 < report.full_bundle_bytes,
        "diff {} vs full {}",
        report.diff_bytes,
        report.full_bundle_bytes
    );

    // Every session now serves v2; calibrated deltas were re-pinned.
    for (id, _) in &sessions {
        assert_eq!(fleet.session_version(*id).unwrap(), ModelVersion(2));
    }
    assert_eq!(
        fleet.session_delta(sessions[0].0).unwrap().base_version(),
        Some(ModelVersion(2))
    );

    // Satellite: per-wave downlink bytes flowed into FleetAccounting.
    assert_eq!(acc.sessions, sessions.len());
    assert_eq!(
        acc.downlink_bytes,
        (report.diff_bytes * sessions.len()) as u64
    );
    fleet.shutdown();
}

#[test]
fn regressed_canary_halts_and_restores_version_n() {
    let mut fleet = Fleet::new(FleetConfig::deterministic()).unwrap();
    let sessions = cohort(&fleet, 10);
    let key1 = fleet.register_base(bundle_v1(), Precision::F32).unwrap();
    let before: Vec<Vec<u8>> = sessions
        .iter()
        .map(|(id, _)| fleet.session_delta(*id).unwrap().to_bytes())
        .collect();

    let bad = bundle_v2_regressed();
    let mut acc = accounting();
    let mut ledger = PrivacyLedger::edge_only();
    let config = RolloutConfig {
        wave_fractions: vec![0.2, 0.8],
        max_accuracy_drop: 0.10,
        ..RolloutConfig::default()
    };
    let report = Rollout::new(config)
        .unwrap()
        .run(
            &mut fleet,
            bundle_v1(),
            &bad,
            &sessions,
            &probes(2),
            Precision::F32,
            &mut acc,
            &mut ledger,
        )
        .unwrap();

    // The canary gate tripped: wave 0 only, later waves never shipped.
    match report.status {
        RolloutStatus::Halted { wave, restored, .. } => {
            assert_eq!(wave, 0);
            assert_eq!(restored, report.waves[0].sessions);
        }
        RolloutStatus::Completed => panic!("regression must halt the rollout"),
    }
    assert_eq!(report.waves.len(), 1);
    assert!(report.waves[0].accuracy < report.baseline_accuracy);
    // Only the canary wave's diffs were ever shipped.
    assert_eq!(
        acc.downlink_bytes,
        (report.diff_bytes * report.waves[0].sessions) as u64
    );

    // Every device — canary included — is back on version N with its
    // exact pre-rollout delta bytes and the old batching key.
    for ((id, _), snapshot) in sessions.iter().zip(&before) {
        assert_eq!(fleet.session_version(*id).unwrap(), ModelVersion(1));
        assert_eq!(fleet.session_key(*id).unwrap(), key1);
        assert_eq!(&fleet.session_delta(*id).unwrap().to_bytes(), snapshot);
    }
    fleet.shutdown();
}

#[test]
fn lineage_violations_are_rejected_before_any_shipping() {
    let mut fleet = Fleet::new(FleetConfig::deterministic()).unwrap();
    let sessions = cohort(&fleet, 3);
    let mut acc = accounting();
    let mut ledger = PrivacyLedger::edge_only();
    let rollout = Rollout::new(RolloutConfig::default()).unwrap();

    // A "successor" that does not advance the version.
    let stale = bundle_v1().clone().with_lineage(Lineage {
        version: ModelVersion(1),
        parent: Some(bundle_v1().content_hash()),
    });
    // A "successor" claiming to be a root.
    let fake_root = bundle_v1().clone().with_lineage(Lineage::root(9));
    for bad in [stale, fake_root] {
        let err = rollout
            .run(
                &mut fleet,
                bundle_v1(),
                &bad,
                &sessions,
                &probes(1),
                Precision::F32,
                &mut acc,
                &mut ledger,
            )
            .unwrap_err();
        assert!(
            err.to_string().contains("lineage"),
            "wrong error: {err}"
        );
    }
    // Nothing was shipped or recorded.
    assert_eq!(acc.downlink_bytes, 0);
    assert!(ledger.records().is_empty());
    fleet.shutdown();
}

// ---------------------------------------------------------------------
// Definition 1 as a property: across wave layouts and cohort sizes, a
// rollout records zero uplink and every downlink payload ≤ 5 MB.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn definition_1_holds_for_any_rollout_shape(
        cohort_size in 2usize..6,
        canary_fraction in 0.1f64..0.5,
        regressed in any::<bool>(),
    ) {
        let mut fleet = Fleet::new(FleetConfig::deterministic()).unwrap();
        let sessions = cohort(&fleet, cohort_size);
        let target = if regressed {
            bundle_v2_regressed()
        } else {
            bundle_v2()
        };
        let mut acc = accounting();
        let mut ledger = PrivacyLedger::edge_only();
        let config = RolloutConfig {
            wave_fractions: vec![canary_fraction, 1.0 - canary_fraction],
            ..RolloutConfig::default()
        };
        let report = Rollout::new(config)
            .unwrap()
            .run(
                &mut fleet,
                bundle_v1(),
                &target,
                &sessions,
                &probes(1),
                Precision::F32,
                &mut acc,
                &mut ledger,
            )
            .unwrap();

        // First half: no user-derived byte ever travelled Edge → Cloud.
        prop_assert!(ledger.check_no_uplink().is_ok());
        prop_assert_eq!(ledger.uplink_bytes(), 0);
        // Second half: every downlink payload — including version
        // migration diffs — fits the paper's 5 MB budget.
        prop_assert!(ledger.check_downlink_budget(DOWNLINK_BUDGET_BYTES).is_ok());
        for r in ledger.records() {
            prop_assert_eq!(r.direction, Direction::CloudToEdge);
            prop_assert!(r.bytes <= DOWNLINK_BUDGET_BYTES);
        }
        // Ledger and accounting agree on what was shipped.
        prop_assert_eq!(ledger.downlink_bytes() as u64, acc.downlink_bytes);
        let shipped: u64 = report.waves.iter().map(|w| w.downlink_bytes).sum();
        prop_assert_eq!(shipped, acc.downlink_bytes);
        fleet.shutdown();
    }
}
