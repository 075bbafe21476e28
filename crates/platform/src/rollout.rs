//! Versioned base-model rollout: canary waves, regression gate,
//! automatic rollback.
//!
//! The cloud periodically retrains and ships a new base model. At fleet
//! scale that is not one download — it is a *lifecycle*: version N+1
//! must prove it descends from the version N the fleet is serving
//! ([`Lineage::validate_succession`]), travel as a [`BundleDiff`] (only
//! the wire sections that actually changed), land on a small **canary
//! cohort** first, and survive an accuracy gate against the pre-rollout
//! baseline before the remaining waves migrate. A regression halts the
//! rollout and walks every migrated canary session back to its exact
//! pre-migration `(base, delta)` state via
//! [`Fleet::restore_session`] — personalization is never sacrificed to
//! a bad base.
//!
//! Privacy is a *checked invariant*, not a convention: every byte the
//! driver ships flows through the caller's [`PrivacyLedger`], probe
//! windows are cloud-owned (synthesized by the operator, never user
//! recordings), and [`Rollout::run`] fails with a typed error if the
//! ledger ever shows uplink or a downlink payload above the Definition-1
//! budget (5 MB).

use crate::fleet::FleetAccounting;
use magneto_core::bundle::WireImage;
use magneto_core::privacy::PrivacyLedger;
use magneto_core::{CoreError, EdgeBundle, Fnv64, ModelVersion, Precision};
use magneto_fleet::{Fleet, FleetReply, SessionId, StoreError};
use serde::Serialize;
use std::fmt;
use std::sync::mpsc::Receiver;
use std::time::{Duration, Instant};

/// Wire framing for a serialized [`BundleDiff`].
const DIFF_MAGIC: &[u8; 4] = b"MGDF";
const DIFF_VERSION: u32 = 1;

/// The paper's Definition-1 downlink budget: 5 MB (decimal).
pub const DOWNLINK_BUDGET_BYTES: usize = 5_000_000;

/// One patch operation against the base bundle's wire sections.
#[derive(Debug, Clone, PartialEq)]
enum DiffOp {
    /// Reuse base section `i` verbatim (the device already has it).
    Keep(u32),
    /// Ship replacement bytes for this section.
    Replace(Vec<u8>),
}

/// A section-level delta between two bundle wire images.
///
/// The bundle wire format is a 9-byte header followed by five
/// length-prefixed sections (lineage, pipeline, model, support envelope,
/// registry), split by [`WireImage::parse`]. A retrain that only touches
/// the classifier re-ships only the sections that changed; unchanged
/// megabytes of backbone weights are referenced, not re-sent. Both
/// endpoints are pinned by FNV-1a content hashes, so a diff can neither
/// be applied to the wrong base nor silently produce the wrong target.
#[derive(Debug, Clone, PartialEq)]
pub struct BundleDiff {
    base_hash: u64,
    target_hash: u64,
    /// The target's 9-byte wire header (magic, wire version, format).
    header: Vec<u8>,
    ops: Vec<DiffOp>,
}

fn fnv(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.update(bytes);
    h.finish()
}

impl BundleDiff {
    /// Compute the diff that turns `base` wire bytes into `target` wire
    /// bytes. Sections are matched by content: a target section
    /// identical to *any* base section becomes a [`DiffOp::Keep`]
    /// reference, so a lineage-only release or a reordering does not
    /// force a re-send of the backbone.
    ///
    /// # Errors
    /// [`CoreError::InvalidBundle`] when either image is not a framed
    /// bundle.
    pub fn between(base: &[u8], target: &[u8]) -> Result<BundleDiff, CoreError> {
        let base_sections = WireImage::parse(base)?.sections;
        let target_wire = WireImage::parse(target)?;
        let ops = target_wire
            .sections
            .iter()
            .map(|t| {
                match base_sections.iter().position(|b| b == t) {
                    Some(i) => DiffOp::Keep(i as u32),
                    None => DiffOp::Replace(t.to_vec()),
                }
            })
            .collect();
        Ok(BundleDiff {
            base_hash: fnv(base),
            target_hash: fnv(target),
            header: target_wire.header.to_vec(),
            ops,
        })
    }

    /// Apply the diff to a base wire image, reconstructing the target.
    /// Verifies the base hash before patching and the target hash after
    /// — a corrupt or mismatched reconstruction never reaches a device.
    ///
    /// # Errors
    /// [`CoreError::InvalidBundle`] on a hash mismatch or an
    /// out-of-range section reference.
    pub fn apply(&self, base: &[u8]) -> Result<Vec<u8>, CoreError> {
        if fnv(base) != self.base_hash {
            return Err(CoreError::InvalidBundle(format!(
                "diff applies to base {:016x}, got {:016x}",
                self.base_hash,
                fnv(base)
            )));
        }
        let base_sections = WireImage::parse(base)?.sections;
        let sections = self
            .ops
            .iter()
            .map(|op| match op {
                DiffOp::Keep(i) => base_sections.get(*i as usize).copied().ok_or_else(|| {
                    CoreError::InvalidBundle(format!("diff references missing base section {i}"))
                }),
                DiffOp::Replace(bytes) => Ok(bytes.as_slice()),
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mut out = Vec::new();
        WireImage::write(&self.header, sections, &mut out).expect("writing to a Vec cannot fail");
        if fnv(&out) != self.target_hash {
            return Err(CoreError::InvalidBundle(
                "diff application did not reproduce the target bundle".into(),
            ));
        }
        Ok(out)
    }

    /// Serialize for transfer:
    ///
    /// ```text
    /// diff := "MGDF" | u32 version | u64 base | u64 target
    ///       | u32 header_len | header | u32 ops | op*
    /// op   := 0x00 u32 index | 0x01 u32 len bytes
    /// ```
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.encoded_payload_estimate());
        out.extend_from_slice(DIFF_MAGIC);
        out.extend_from_slice(&DIFF_VERSION.to_le_bytes());
        out.extend_from_slice(&self.base_hash.to_le_bytes());
        out.extend_from_slice(&self.target_hash.to_le_bytes());
        out.extend_from_slice(&(self.header.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.header);
        out.extend_from_slice(&(self.ops.len() as u32).to_le_bytes());
        for op in &self.ops {
            match op {
                DiffOp::Keep(i) => {
                    out.push(0);
                    out.extend_from_slice(&i.to_le_bytes());
                }
                DiffOp::Replace(bytes) => {
                    out.push(1);
                    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
                    out.extend_from_slice(bytes);
                }
            }
        }
        out
    }

    /// Wire size of the diff — the bytes a device actually downloads.
    pub fn encoded_size(&self) -> usize {
        self.to_bytes().len()
    }

    fn encoded_payload_estimate(&self) -> usize {
        self.ops
            .iter()
            .map(|op| match op {
                DiffOp::Keep(_) => 5,
                DiffOp::Replace(b) => 5 + b.len(),
            })
            .sum()
    }
}

/// Configuration for a staged rollout.
#[derive(Debug, Clone, Serialize)]
pub struct RolloutConfig {
    /// Fraction of the cohort migrated per wave, canary first. Must sum
    /// to ≤ 1; any remainder joins the final wave.
    pub wave_fractions: Vec<f64>,
    /// Halt the rollout when a wave's probe accuracy falls more than
    /// this below the pre-rollout baseline.
    pub max_accuracy_drop: f32,
    /// Per-payload Cloud → Edge byte budget (Definition 1: 5 MB).
    pub downlink_budget: usize,
}

impl Default for RolloutConfig {
    fn default() -> Self {
        RolloutConfig {
            wave_fractions: vec![0.02, 0.18, 0.80],
            max_accuracy_drop: 0.05,
            downlink_budget: DOWNLINK_BUDGET_BYTES,
        }
    }
}

impl RolloutConfig {
    /// Validate the knobs.
    ///
    /// # Errors
    /// A description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.wave_fractions.is_empty() {
            return Err("rollout needs at least one wave".into());
        }
        if self.wave_fractions.iter().any(|&f| f <= 0.0 || f > 1.0) {
            return Err("wave fractions must be in (0, 1]".into());
        }
        if self.wave_fractions.iter().sum::<f64>() > 1.0 + 1e-9 {
            return Err("wave fractions must sum to at most 1".into());
        }
        if !(0.0..=1.0).contains(&self.max_accuracy_drop) {
            return Err("max accuracy drop must be in [0, 1]".into());
        }
        if self.downlink_budget == 0 {
            return Err("downlink budget must be positive".into());
        }
        Ok(())
    }
}

/// Why a rollout stopped early.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum HaltReason {
    /// A wave's probe accuracy regressed past the configured gate.
    AccuracyRegression {
        /// Pre-rollout baseline accuracy.
        baseline: f32,
        /// The regressed wave's accuracy.
        observed: f32,
        /// The gate: lowest tolerated accuracy.
        floor: f32,
    },
}

impl fmt::Display for HaltReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HaltReason::AccuracyRegression {
                baseline,
                observed,
                floor,
            } => write!(
                f,
                "wave accuracy {observed:.3} fell below floor {floor:.3} (baseline {baseline:.3})"
            ),
        }
    }
}

/// Terminal state of one rollout.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum RolloutStatus {
    /// Every wave migrated and passed the gate.
    Completed,
    /// The gate tripped; the offending wave was restored to version N.
    Halted {
        /// Zero-based wave index that tripped the gate.
        wave: usize,
        /// What tripped it.
        reason: HaltReason,
        /// Sessions walked back to their pre-migration state.
        restored: usize,
    },
}

/// Per-wave telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct WaveOutcome {
    /// Zero-based wave index (0 = canary).
    pub wave: usize,
    /// Sessions in the wave.
    pub sessions: usize,
    /// Sessions whose replay committed onto the new base.
    pub migrated: usize,
    /// Sessions whose replay rolled back (they stay on version N).
    pub rolled_back: usize,
    /// Probe accuracy over the wave after migration.
    pub accuracy: f32,
    /// Mean end-to-end serve latency over the wave's probes, µs.
    pub mean_latency_us: f64,
    /// Bytes shipped Cloud → Edge to this wave (diff × sessions).
    pub downlink_bytes: u64,
}

/// Full rollout report (serialized into `BENCH_rollout.json`).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RolloutReport {
    /// The version the fleet served before the rollout.
    pub from_version: ModelVersion,
    /// The version being rolled out.
    pub to_version: ModelVersion,
    /// Wire size of the full target bundle.
    pub full_bundle_bytes: usize,
    /// Wire size of the shipped diff (per device).
    pub diff_bytes: usize,
    /// Pre-rollout probe accuracy over the canary cohort.
    pub baseline_accuracy: f32,
    /// Per-wave telemetry, in order.
    pub waves: Vec<WaveOutcome>,
    /// How the rollout ended.
    pub status: RolloutStatus,
}

/// Errors from [`Rollout::run`].
#[derive(Debug)]
pub enum RolloutError {
    /// The target bundle's lineage does not descend from the base.
    Lineage(CoreError),
    /// The privacy invariant (Definition 1) was violated.
    Privacy(CoreError),
    /// Diff computation or application failed.
    Diff(CoreError),
    /// A fleet/store operation failed.
    Fleet(StoreError),
    /// Invalid configuration or arguments.
    Config(String),
    /// Serving a probe window failed.
    Serving(String),
}

impl fmt::Display for RolloutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RolloutError::Lineage(e) => write!(f, "lineage validation failed: {e}"),
            RolloutError::Privacy(e) => write!(f, "privacy invariant violated: {e}"),
            RolloutError::Diff(e) => write!(f, "bundle diff failed: {e}"),
            RolloutError::Fleet(e) => write!(f, "fleet operation failed: {e}"),
            RolloutError::Config(msg) => write!(f, "invalid rollout config: {msg}"),
            RolloutError::Serving(msg) => write!(f, "probe serving failed: {msg}"),
        }
    }
}

impl std::error::Error for RolloutError {}

impl From<StoreError> for RolloutError {
    fn from(e: StoreError) -> Self {
        RolloutError::Fleet(e)
    }
}

/// A cohort member: the session plus the receiver its predictions
/// arrive on (as returned by [`Fleet::register_from_base`]).
pub type CohortSession = (SessionId, Receiver<FleetReply>);

/// The rollout driver.
pub struct Rollout {
    config: RolloutConfig,
}

impl Rollout {
    /// Create a driver with validated configuration.
    ///
    /// # Errors
    /// [`RolloutError::Config`] for an invalid knob.
    pub fn new(config: RolloutConfig) -> Result<Rollout, RolloutError> {
        config.validate().map_err(RolloutError::Config)?;
        Ok(Rollout { config })
    }

    /// Roll `target` out to `cohort` over the configured waves.
    ///
    /// `probes` are **cloud-owned** evaluation windows with expected
    /// labels — operator-synthesized, never user recordings, so grading
    /// them uploads nothing. The flow per wave: ship the
    /// [`BundleDiff`] to each device (recorded in `ledger` and
    /// `accounting`), snapshot each session's delta, replay it onto the
    /// new base via [`Fleet::migrate_session`], then grade the wave
    /// against the pre-rollout baseline measured on the canary cohort.
    /// A regression halts the rollout and restores every session of the
    /// offending wave to its snapshot.
    ///
    /// On return — completed or halted — the ledger is checked against
    /// both halves of Definition 1.
    ///
    /// # Errors
    /// See [`RolloutError`]. A halted rollout is **not** an error; it is
    /// reported in [`RolloutReport::status`].
    #[allow(clippy::too_many_arguments)]
    pub fn run(
        &self,
        fleet: &mut Fleet,
        base: &EdgeBundle,
        target: &EdgeBundle,
        cohort: &[CohortSession],
        probes: &[(Vec<Vec<f32>>, String)],
        precision: Precision,
        accounting: &mut FleetAccounting,
        ledger: &mut PrivacyLedger,
    ) -> Result<RolloutReport, RolloutError> {
        if cohort.is_empty() {
            return Err(RolloutError::Config("empty rollout cohort".into()));
        }
        if probes.is_empty() {
            return Err(RolloutError::Config("no probe windows".into()));
        }

        // 1. Version succession: the target must prove it descends from
        //    the base the fleet is serving.
        target
            .lineage
            .validate_succession(base.version(), base.content_hash())
            .map_err(RolloutError::Lineage)?;

        // 2. Delta-compress the upgrade and prove it reconstructs the
        //    target bit-exactly before shipping anything.
        let base_bytes = base.to_bytes(false);
        let target_bytes = target.to_bytes(false);
        let diff = BundleDiff::between(&base_bytes, &target_bytes).map_err(RolloutError::Diff)?;
        let reconstructed = diff.apply(&base_bytes).map_err(RolloutError::Diff)?;
        if reconstructed != target_bytes {
            return Err(RolloutError::Diff(CoreError::InvalidBundle(
                "diff round-trip mismatch".into(),
            )));
        }
        let diff_bytes = diff.encoded_size();
        if diff_bytes > self.config.downlink_budget {
            return Err(RolloutError::Privacy(CoreError::PrivacyViolation {
                description: format!(
                    "version diff {} → {} exceeds the downlink budget",
                    base.version(),
                    target.version()
                ),
                bytes: diff_bytes,
            }));
        }

        let base_key = fleet.register_base(base, precision)?;
        let target_key = fleet.register_base(target, precision)?;

        // 3. Pre-rollout baseline over the canary cohort.
        let waves = partition(cohort.len(), &self.config.wave_fractions);
        let canary = &cohort[..waves[0]];
        let (baseline_accuracy, _) = evaluate(fleet, canary, probes)?;
        let floor = baseline_accuracy - self.config.max_accuracy_drop;

        // 4. Staged migration.
        let mut report = RolloutReport {
            from_version: base.version(),
            to_version: target.version(),
            full_bundle_bytes: target_bytes.len(),
            diff_bytes,
            baseline_accuracy,
            waves: Vec::with_capacity(waves.len()),
            status: RolloutStatus::Completed,
        };
        let mut start = 0usize;
        for (w, &size) in waves.iter().enumerate() {
            let slice = &cohort[start..start + size];
            start += size;
            let mut migrated = 0usize;
            let mut rolled_back = 0usize;
            let mut snapshots = Vec::with_capacity(slice.len());
            for (id, _) in slice {
                ledger.record_download(
                    diff_bytes,
                    format!(
                        "bundle diff {} → {} (wave {w})",
                        report.from_version, report.to_version
                    ),
                );
                accounting.record_deploy(diff_bytes);
                let snapshot = fleet.session_delta(*id)?;
                let outcome = fleet.migrate_session(*id, target_key, precision)?;
                if outcome.is_committed() {
                    migrated += 1;
                } else {
                    rolled_back += 1;
                }
                snapshots.push(snapshot);
            }
            let (accuracy, mean_latency_us) = evaluate(fleet, slice, probes)?;
            report.waves.push(WaveOutcome {
                wave: w,
                sessions: slice.len(),
                migrated,
                rolled_back,
                accuracy,
                mean_latency_us,
                downlink_bytes: (diff_bytes * slice.len()) as u64,
            });
            if accuracy < floor {
                // Halt: walk every session of this wave back to its
                // exact pre-migration (base, delta) pair.
                let mut restored = 0usize;
                for ((id, _), snapshot) in slice.iter().zip(snapshots) {
                    fleet.restore_session(*id, base_key, precision, snapshot)?;
                    restored += 1;
                }
                report.status = RolloutStatus::Halted {
                    wave: w,
                    reason: HaltReason::AccuracyRegression {
                        baseline: baseline_accuracy,
                        observed: accuracy,
                        floor,
                    },
                    restored,
                };
                break;
            }
        }

        // 5. Definition 1, both halves, as a hard post-condition.
        ledger.check_no_uplink().map_err(RolloutError::Privacy)?;
        ledger
            .check_downlink_budget(self.config.downlink_budget)
            .map_err(RolloutError::Privacy)?;
        Ok(report)
    }
}

/// Split `n` sessions into wave sizes from `fractions`. The final wave
/// absorbs rounding remainders and any unallocated fraction; every wave
/// that should be non-empty gets at least one session while sessions
/// remain.
fn partition(n: usize, fractions: &[f64]) -> Vec<usize> {
    let mut sizes = Vec::with_capacity(fractions.len());
    let mut assigned = 0usize;
    for (i, &f) in fractions.iter().enumerate() {
        let remaining = n - assigned;
        let size = if i + 1 == fractions.len() {
            remaining
        } else {
            (((n as f64) * f).round() as usize).clamp(usize::from(remaining > 0), remaining)
        };
        sizes.push(size);
        assigned += size;
    }
    sizes
}

/// Serve every probe through every session of `slice`, returning
/// (accuracy, mean latency in µs). The fleet is pumped inline, so this
/// works on deterministic (worker-less) fleets.
fn evaluate(
    fleet: &mut Fleet,
    slice: &[CohortSession],
    probes: &[(Vec<Vec<f32>>, String)],
) -> Result<(f32, f64), RolloutError> {
    let mut correct = 0usize;
    let mut total = 0usize;
    let mut latency = Duration::ZERO;
    for (id, rx) in slice {
        for (window, expected) in probes {
            let t0 = Instant::now();
            fleet
                .submit(*id, window.clone())
                .map_err(|e| RolloutError::Serving(e.to_string()))?;
            fleet.pump();
            let reply = rx
                .recv_timeout(Duration::from_secs(30))
                .map_err(|e| RolloutError::Serving(format!("probe reply for {id}: {e}")))?;
            let prediction = reply
                .outcome
                .map_err(|e| RolloutError::Serving(format!("probe failed for {id}: {e}")))?;
            latency += t0.elapsed();
            total += 1;
            if prediction.label == *expected {
                correct += 1;
            }
        }
    }
    let accuracy = if total == 0 {
        0.0
    } else {
        correct as f32 / total as f32
    };
    let mean_latency_us = if total == 0 {
        0.0
    } else {
        latency.as_secs_f64() * 1e6 / total as f64
    };
    Ok((accuracy, mean_latency_us))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn partition_covers_every_session() {
        for n in [1usize, 3, 10, 100, 1000] {
            let sizes = partition(n, &[0.02, 0.18, 0.80]);
            assert_eq!(sizes.iter().sum::<usize>(), n, "n={n} sizes={sizes:?}");
            assert!(sizes[0] >= 1, "canary must be non-empty for n={n}");
        }
        assert_eq!(partition(100, &[1.0]), vec![100]);
    }

    #[test]
    fn config_validation() {
        assert!(RolloutConfig::default().validate().is_ok());
        for bad in [
            RolloutConfig {
                wave_fractions: vec![],
                ..RolloutConfig::default()
            },
            RolloutConfig {
                wave_fractions: vec![0.0, 0.5],
                ..RolloutConfig::default()
            },
            RolloutConfig {
                wave_fractions: vec![0.8, 0.8],
                ..RolloutConfig::default()
            },
            RolloutConfig {
                max_accuracy_drop: 2.0,
                ..RolloutConfig::default()
            },
            RolloutConfig {
                downlink_budget: 0,
                ..RolloutConfig::default()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?}");
        }
    }

    /// A wire image with the bundle header and five opaque sections.
    fn fake_bundle(sections: [&[u8]; WireImage::SECTIONS]) -> Vec<u8> {
        let mut header = b"MGBD".to_vec();
        header.extend_from_slice(&2u32.to_le_bytes());
        header.push(0);
        let mut out = Vec::new();
        WireImage::write(&header, sections, &mut out).unwrap();
        out
    }

    #[test]
    fn diff_reuses_unchanged_sections() {
        let big = vec![7u8; 10_000];
        let base = fake_bundle([b"v1", b"pipeline", &big, b"support", b"registry-v1"]);
        let target = fake_bundle([b"v2", b"pipeline", &big, b"support", b"registry-v2-more"]);
        let diff = BundleDiff::between(&base, &target).unwrap();
        // The 10 KB section travels as a 5-byte reference.
        assert!(
            diff.encoded_size() < 200,
            "diff too large: {}",
            diff.encoded_size()
        );
        assert_eq!(diff.apply(&base).unwrap(), target);
    }

    #[test]
    fn diff_rejects_wrong_base_and_detects_corruption() {
        let base = fake_bundle([b"v1", b"p", b"aaa", b"s", b"bbb"]);
        let target = fake_bundle([b"v1", b"p", b"aaa", b"s", b"ccc"]);
        let diff = BundleDiff::between(&base, &target).unwrap();
        // Wrong base: hash gate refuses before patching.
        let other = fake_bundle([b"v1", b"p", b"xxx", b"s", b"bbb"]);
        assert!(diff.apply(&other).is_err());
        // Identity diff still round-trips.
        let id = BundleDiff::between(&base, &base).unwrap();
        assert_eq!(id.apply(&base).unwrap(), base);
        // Non-bundle input is rejected structurally, and so is a
        // pre-lineage (wire version 1) image.
        assert!(BundleDiff::between(b"nope", &target).is_err());
        let mut v1 = base.clone();
        v1[4] = 1;
        assert!(BundleDiff::between(&v1, &target).is_err());
        assert!(BundleDiff::between(&base, &v1).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The base image on a device and a downlinked diff are both
        /// untrusted: no bit flip or truncation of either may panic
        /// `apply`, and every corruption is refused rather than patched
        /// into a wrong target.
        #[test]
        fn apply_never_panics_on_flips_or_truncation(
            pos in any::<u64>(),
            bit in 0u8..8,
            cut in any::<u64>(),
            keep in any::<u32>(),
        ) {
            let base = fake_bundle([b"v1", b"pipeline", &[7u8; 300], b"support", b"registry-v1"]);
            let target = fake_bundle([b"v2", b"pipeline", &[7u8; 300], b"support", b"registry-v2"]);
            let diff = BundleDiff::between(&base, &target).unwrap();
            prop_assert_eq!(diff.apply(&base).unwrap(), target);
            let at = |len: usize| (pos % len as u64) as usize;
            let upto = |len: usize| (cut % len as u64) as usize;

            // Corrupt base: flipped or truncated.
            let mut flipped = base.clone();
            flipped[at(base.len())] ^= 1 << bit;
            prop_assert!(diff.apply(&flipped).is_err());
            prop_assert!(diff.apply(&base[..upto(base.len())]).is_err());

            // Corrupt diff: a flipped endpoint hash or header byte, a
            // flipped or truncated shipped section, a reference to any
            // base section index.
            let mut bad = diff.clone();
            bad.base_hash ^= 1 << (pos % 64);
            prop_assert!(bad.apply(&base).is_err());
            let mut bad = diff.clone();
            bad.target_hash ^= 1 << (pos % 64);
            prop_assert!(bad.apply(&base).is_err());
            let mut bad = diff.clone();
            let len = bad.header.len();
            bad.header[at(len)] ^= 1 << bit;
            prop_assert!(bad.apply(&base).is_err());
            let mut bad = diff.clone();
            bad.header.truncate(upto(len));
            prop_assert!(bad.apply(&base).is_err());
            for op in 0..diff.ops.len() {
                let mut bad = diff.clone();
                let refused = match &mut bad.ops[op] {
                    DiffOp::Replace(bytes) if bit % 2 == 0 => {
                        let len = bytes.len();
                        bytes[at(len)] ^= 1 << bit;
                        true
                    }
                    DiffOp::Replace(bytes) => {
                        bytes.truncate(upto(bytes.len()));
                        true
                    }
                    DiffOp::Keep(i) => {
                        let same = *i == keep;
                        *i = keep;
                        !same
                    }
                };
                prop_assert_eq!(bad.apply(&base).is_err(), refused, "op {}", op);
            }
        }
    }
}
