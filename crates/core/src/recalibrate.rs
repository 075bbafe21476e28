//! Automatic recalibration policy: closing the drift loop.
//!
//! The drift monitor ([`crate::drift`]) says *something changed*; the
//! transactional update path ([`crate::incremental`]) can *safely apply*
//! a fix. This module supplies the policy between the two — when to act,
//! what evidence to act on, and when to stop trying:
//!
//! * **Hysteresis** — one `Drifted` window is noise; recalibration fires
//!   only after `hysteresis` *consecutive* drifted windows.
//! * **Cooldown** — after any attempt (committed or rolled back), at
//!   least `cooldown` windows must pass before the next one, so a
//!   recalibration storm cannot starve inference.
//! * **Evidence harvesting** — recent windows whose prediction was
//!   confident and whose signal was nominal are buffered (as pipeline
//!   feature rows, never raw sensor data) per predicted label; the label
//!   with the most evidence becomes the calibration candidate. The row
//!   is the one inference already staged for the window, so a harvested
//!   window is featurised once, not twice.
//! * **Strikes** — every rolled-back attempt is a strike. At
//!   `max_strikes` the policy stops attempting and degrades to
//!   "recalibration advised": the honest fallback when self-healing
//!   cannot pass the safety gates, at which point only a user-triggered
//!   calibration recording (§3.3) can help.
//!
//! [`HealingLoop`] wraps the policy together with the drift monitor and
//! the live-baseline estimate: the one loop both [`crate::EdgeDevice`]
//! and a fleet's delta sessions drive, one served window at a time,
//! each passing the window's row of [`crate::BatchEmbedder::staged`]. The
//! loop itself never touches the model: its owner passes a commit
//! closure to [`HealingLoop::attempt`] (`update_transactional` on a
//! device, the delta commit path in a fleet), so every automatic
//! recalibration passes the same gates — and gets the same byte-exact
//! rollback — as a user-triggered one.

use crate::drift::{DriftMonitor, DriftStatus};
use crate::error::CoreError;
use crate::inference::Prediction;
use crate::Result;
use magneto_dsp::SignalQuality;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Configuration of the self-healing loop (detector + policy).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SelfHealingConfig {
    /// Drift alert fires when the smoothed nearest-prototype distance
    /// exceeds `alert_ratio` × the deployment baseline.
    pub alert_ratio: f32,
    /// EWMA smoothing factor of the drift monitor, in `(0, 1]`.
    pub alpha: f32,
    /// Windows before the monitor may alert.
    pub warmup: u64,
    /// Percentile of within-class support distances used as the
    /// monitor's baseline (margin 1).
    pub baseline_percentile: f32,
    /// Consecutive `Drifted` windows required to trigger an attempt.
    pub hysteresis: u32,
    /// Minimum windows between recalibration attempts.
    pub cooldown: u64,
    /// Minimum harvested windows for a label before it can be a
    /// calibration candidate.
    pub min_harvest: usize,
    /// Most harvested windows retained per label (oldest evicted).
    pub max_harvest: usize,
    /// Minimum prediction confidence for a window to be harvested.
    pub min_confidence: f32,
    /// Rolled-back attempts before the policy degrades to
    /// "recalibration advised" and stops attempting.
    pub max_strikes: u32,
}

impl Default for SelfHealingConfig {
    fn default() -> Self {
        SelfHealingConfig {
            alert_ratio: 1.6,
            alpha: 0.25,
            warmup: 3,
            baseline_percentile: 90.0,
            hysteresis: 3,
            cooldown: 8,
            min_harvest: 4,
            max_harvest: 32,
            min_confidence: 0.35,
            max_strikes: 3,
        }
    }
}

impl SelfHealingConfig {
    /// Validate the knobs.
    ///
    /// # Errors
    /// [`CoreError::InvalidConfig`] on the first violated constraint.
    pub fn validate(&self) -> Result<()> {
        if !self.alert_ratio.is_finite() || self.alert_ratio < 1.0 {
            return Err(CoreError::InvalidConfig(format!(
                "alert_ratio must be finite and >= 1, got {}",
                self.alert_ratio
            )));
        }
        if !self.alpha.is_finite() || self.alpha <= 0.0 || self.alpha > 1.0 {
            return Err(CoreError::InvalidConfig(format!(
                "alpha must be in (0, 1], got {}",
                self.alpha
            )));
        }
        if !(0.0..=100.0).contains(&self.baseline_percentile) {
            return Err(CoreError::InvalidConfig(format!(
                "baseline_percentile must be in [0, 100], got {}",
                self.baseline_percentile
            )));
        }
        if self.hysteresis == 0 {
            return Err(CoreError::InvalidConfig(
                "hysteresis must be at least 1 window".into(),
            ));
        }
        if self.min_harvest == 0 || self.max_harvest < self.min_harvest {
            return Err(CoreError::InvalidConfig(format!(
                "harvest bounds invalid: min {} max {}",
                self.min_harvest, self.max_harvest
            )));
        }
        if !(0.0..=1.0).contains(&self.min_confidence) {
            return Err(CoreError::InvalidConfig(format!(
                "min_confidence must be in [0, 1], got {}",
                self.min_confidence
            )));
        }
        if self.max_strikes == 0 {
            return Err(CoreError::InvalidConfig(
                "max_strikes must be at least 1".into(),
            ));
        }
        Ok(())
    }
}

/// Counters describing what the self-healing loop has done so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct HealingStats {
    /// Windows observed while the monitor reported `Drifted`.
    pub drifted_windows: u64,
    /// Stable→Drifted transitions (alerts).
    pub drift_alerts: u64,
    /// Recalibrations committed through the transactional gates.
    pub auto_recals: u64,
    /// Recalibration attempts rejected and rolled back byte-exactly.
    pub recal_rollbacks: u64,
    /// Current strike count (reset on commit).
    pub strikes: u32,
    /// `true` once the policy has given up (`strikes == max_strikes`).
    pub degraded: bool,
}

impl HealingStats {
    /// Human-readable advisory when the loop has degraded.
    pub fn advisory(&self) -> Option<&'static str> {
        self.degraded
            .then_some("degraded: automatic recalibration failed repeatedly; manual recalibration advised")
    }
}

/// The recalibration policy state machine. Pure policy: it decides when
/// an attempt should fire and what evidence backs it; the owner executes
/// the attempt transactionally and reports the outcome back via
/// [`note_commit`](Recalibrator::note_commit) /
/// [`note_rollback`](Recalibrator::note_rollback).
#[derive(Debug, Clone)]
pub struct Recalibrator {
    config: SelfHealingConfig,
    /// Consecutive `Drifted` windows (hysteresis counter).
    consecutive_drifted: u32,
    /// Windows since the last attempt (cooldown counter); starts
    /// saturated so the first trigger is not throttled.
    since_attempt: u64,
    /// Whether the previous observation was already drifted (alert edge
    /// detection).
    was_drifted: bool,
    /// Harvested evidence: pipeline feature rows per predicted label.
    harvest: HashMap<String, Vec<Vec<f32>>>,
    stats: HealingStats,
}

impl Recalibrator {
    /// Fresh policy.
    ///
    /// # Errors
    /// [`CoreError::InvalidConfig`] when the config fails validation.
    pub fn new(config: SelfHealingConfig) -> Result<Self> {
        config.validate()?;
        Ok(Recalibrator {
            consecutive_drifted: 0,
            since_attempt: config.cooldown,
            was_drifted: false,
            harvest: HashMap::new(),
            stats: HealingStats::default(),
            config,
        })
    }

    /// The configuration in effect.
    pub fn config(&self) -> &SelfHealingConfig {
        &self.config
    }

    /// Counters so far.
    pub fn stats(&self) -> HealingStats {
        self.stats
    }

    /// `true` once the policy has exhausted its strikes and stopped
    /// attempting.
    pub fn is_degraded(&self) -> bool {
        self.stats.degraded
    }

    /// Observe one window's drift status; returns `true` when a
    /// recalibration attempt should fire *now* (sustained drift, cooldown
    /// elapsed, not degraded).
    pub fn observe(&mut self, status: DriftStatus) -> bool {
        self.since_attempt = self.since_attempt.saturating_add(1);
        let drifted = status.is_drifted();
        if drifted {
            self.stats.drifted_windows += 1;
            if !self.was_drifted {
                self.stats.drift_alerts += 1;
            }
            self.consecutive_drifted = self.consecutive_drifted.saturating_add(1);
        } else {
            self.consecutive_drifted = 0;
        }
        self.was_drifted = drifted;
        !self.stats.degraded
            && self.consecutive_drifted >= self.config.hysteresis
            && self.since_attempt > self.config.cooldown
    }

    /// Offer one window's evidence for harvesting. Only confident,
    /// nominal-quality windows are kept (the row is copied only then);
    /// the buffer per label is bounded (oldest evicted) so memory never
    /// grows with stream length.
    pub fn offer(
        &mut self,
        label: &str,
        features: &[f32],
        confidence: f32,
        quality: SignalQuality,
    ) {
        if self.stats.degraded || confidence < self.config.min_confidence || quality.is_degraded() {
            return;
        }
        let rows = self.harvest.entry(label.to_string()).or_default();
        if rows.len() == self.config.max_harvest {
            rows.remove(0);
        }
        rows.push(features.to_vec());
    }

    /// The current calibration candidate: the label with the most
    /// harvested evidence (ties broken lexicographically for
    /// determinism), provided it clears `min_harvest`. Returns the label
    /// and a clone of its evidence rows.
    pub fn candidate(&self) -> Option<(String, Vec<Vec<f32>>)> {
        self.harvest
            .iter()
            .filter(|(_, rows)| rows.len() >= self.config.min_harvest)
            .max_by(|(la, ra), (lb, rb)| ra.len().cmp(&rb.len()).then(lb.cmp(la)))
            .map(|(l, rows)| (l.clone(), rows.clone()))
    }

    /// Record a committed recalibration: strikes clear, the hysteresis
    /// and cooldown counters restart, and the harvested evidence (now
    /// baked into the support set) is dropped.
    pub fn note_commit(&mut self) {
        self.stats.auto_recals += 1;
        self.stats.strikes = 0;
        self.consecutive_drifted = 0;
        self.was_drifted = false;
        self.since_attempt = 0;
        self.harvest.clear();
    }

    /// Record a rolled-back attempt (a strike). Returns `true` when this
    /// strike degraded the policy. The harvested evidence is dropped —
    /// it just failed validation, so retrying with it would burn the
    /// remaining strikes on the same rejection.
    pub fn note_rollback(&mut self) -> bool {
        self.stats.recal_rollbacks += 1;
        self.stats.strikes += 1;
        self.consecutive_drifted = 0;
        self.since_attempt = 0;
        self.harvest.clear();
        if self.stats.strikes >= self.config.max_strikes {
            self.stats.degraded = true;
        }
        self.stats.degraded
    }

    /// The feature rows harvested for `label`, oldest first
    /// (diagnostics).
    pub fn harvested(&self, label: &str) -> &[Vec<f32>] {
        self.harvest.get(label).map_or(&[], Vec::as_slice)
    }
}

/// The self-healing loop: the streaming [`DriftMonitor`], the
/// [`Recalibrator`] policy, and the live-baseline estimate, driven one
/// served window at a time by [`observe`](Self::observe) and, when that
/// says so, one [`attempt`](Self::attempt).
///
/// Live windows sit at a different distance scale than the curated
/// support exemplars, so the first `warmup` windows of the stream
/// (assumed nominal) estimate the monitor's baseline as their mean
/// nearest-prototype distance, and every committed recalibration starts
/// a fresh estimate. A device has a deploy-time baseline (a support-set
/// distance percentile), and each estimate is floored at the monitor's
/// current baseline, which starts there. A fleet delta session has no
/// deploy baseline of its own: it starts from a 1.0 placeholder and its
/// estimates are not floored.
#[derive(Debug, Clone)]
pub struct HealingLoop {
    monitor: DriftMonitor,
    recal: Recalibrator,
    /// Floor each live estimate at the current baseline (set when a
    /// deploy-time baseline exists).
    floored: bool,
    /// Running `(sum, count)` of live nearest distances while the
    /// baseline is being estimated; `None` once it is set.
    estimate: Option<(f64, u64)>,
}

impl HealingLoop {
    /// A fresh loop. `deploy_baseline` is the deploy-time baseline
    /// distance, if the owner has one; it also turns on the floor.
    ///
    /// # Errors
    /// [`CoreError::InvalidConfig`] when the config fails validation or
    /// the baseline is not usable.
    pub fn new(config: SelfHealingConfig, deploy_baseline: Option<f32>) -> Result<Self> {
        let recal = Recalibrator::new(config)?;
        let monitor = DriftMonitor::new(
            deploy_baseline.unwrap_or(1.0).max(1e-6),
            config.alert_ratio,
            config.alpha,
            config.warmup,
        )?;
        Ok(HealingLoop {
            monitor,
            recal,
            floored: deploy_baseline.is_some(),
            estimate: Some((0.0, 0)),
        })
    }

    /// The drift monitor.
    pub fn monitor(&self) -> &DriftMonitor {
        &self.monitor
    }

    /// The policy's counters so far.
    pub fn stats(&self) -> HealingStats {
        self.recal.stats()
    }

    /// The feature rows harvested for `label` since the last attempt,
    /// oldest first (see [`Recalibrator::harvested`]).
    pub fn harvested(&self, label: &str) -> &[Vec<f32>] {
        self.recal.harvested(label)
    }

    /// Observe one served window: feed its nearest-prototype distance to
    /// the baseline estimate and the monitor, stamp the drift status on
    /// `pred`, and harvest `features` — the window's normalised pipeline
    /// row, as inference staged it — when the policy would keep the
    /// window. Returns `true` when a recalibration
    /// [`attempt`](Self::attempt) should fire.
    pub fn observe(&mut self, pred: &mut Prediction, features: &[f32]) -> bool {
        let nearest = pred.distances.iter().copied().fold(f32::INFINITY, f32::min);
        self.estimate_baseline(nearest);
        let status = self.monitor.observe(nearest);
        pred.drift = Some(status);
        self.recal
            .offer(&pred.label, features, pred.confidence, pred.quality);
        self.recal.observe(status)
    }

    /// Run one recalibration attempt on the current candidate, if any.
    /// `commit(label, rows)` applies it transactionally and returns
    /// whether it committed; a commit restarts the baseline estimate, a
    /// rollback (or error, reported as `false`) is a strike.
    pub fn attempt(&mut self, commit: impl FnOnce(&str, &[Vec<f32>]) -> bool) {
        let Some((label, rows)) = self.recal.candidate() else {
            return;
        };
        if commit(&label, &rows) {
            self.recal.note_commit();
            let baseline = self.monitor.baseline();
            self.monitor.reset(baseline);
            self.estimate = Some((0.0, 0));
        } else {
            self.recal.note_rollback();
        }
    }

    /// Accumulate one distance toward the live baseline; once `warmup`
    /// windows are seen, re-baseline the monitor (which re-enters its
    /// own warmup).
    fn estimate_baseline(&mut self, nearest: f32) {
        let Some((sum, n)) = self.estimate.as_mut() else {
            return;
        };
        if !nearest.is_finite() {
            return;
        }
        *sum += f64::from(nearest);
        *n += 1;
        if *n >= self.recal.config().warmup.max(1) {
            let mean = (*sum / *n as f64) as f32;
            let floor = if self.floored {
                self.monitor.baseline()
            } else {
                1e-6
            };
            self.monitor.reset(mean.max(floor));
            self.estimate = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drifted() -> DriftStatus {
        DriftStatus::Drifted { severity: 2.5 }
    }

    fn policy() -> Recalibrator {
        Recalibrator::new(SelfHealingConfig::default()).unwrap()
    }

    #[test]
    fn default_config_is_valid() {
        assert!(SelfHealingConfig::default().validate().is_ok());
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let ok = SelfHealingConfig::default();
        for bad in [
            SelfHealingConfig { alert_ratio: 0.5, ..ok },
            SelfHealingConfig { alert_ratio: f32::NAN, ..ok },
            SelfHealingConfig { alpha: 0.0, ..ok },
            SelfHealingConfig { alpha: 2.0, ..ok },
            SelfHealingConfig { baseline_percentile: 101.0, ..ok },
            SelfHealingConfig { hysteresis: 0, ..ok },
            SelfHealingConfig { min_harvest: 0, ..ok },
            SelfHealingConfig { max_harvest: 1, min_harvest: 2, ..ok },
            SelfHealingConfig { min_confidence: 1.5, ..ok },
            SelfHealingConfig { max_strikes: 0, ..ok },
        ] {
            assert!(bad.validate().is_err(), "{bad:?} accepted");
            assert!(Recalibrator::new(bad).is_err());
        }
    }

    #[test]
    fn hysteresis_requires_consecutive_drift() {
        let mut r = policy();
        // Two drifted, one stable, two drifted: never 3 consecutive.
        assert!(!r.observe(drifted()));
        assert!(!r.observe(drifted()));
        assert!(!r.observe(DriftStatus::Stable));
        assert!(!r.observe(drifted()));
        assert!(!r.observe(drifted()));
        // Third consecutive fires.
        assert!(r.observe(drifted()));
        // Alerts counted per Stable->Drifted edge, not per window.
        assert_eq!(r.stats().drift_alerts, 2);
        assert_eq!(r.stats().drifted_windows, 5);
    }

    #[test]
    fn cooldown_throttles_attempts() {
        let cfg = SelfHealingConfig {
            hysteresis: 1,
            cooldown: 5,
            ..SelfHealingConfig::default()
        };
        let mut r = Recalibrator::new(cfg).unwrap();
        assert!(r.observe(drifted()));
        r.note_rollback();
        // The next 5 drifted windows are inside the cooldown.
        for i in 0..5 {
            assert!(!r.observe(drifted()), "fired during cooldown at {i}");
        }
        assert!(r.observe(drifted()));
    }

    #[test]
    fn strikes_degrade_and_stop_attempts() {
        let cfg = SelfHealingConfig {
            hysteresis: 1,
            cooldown: 0,
            max_strikes: 2,
            ..SelfHealingConfig::default()
        };
        let mut r = Recalibrator::new(cfg).unwrap();
        assert!(r.observe(drifted()));
        assert!(!r.note_rollback());
        assert!(r.observe(drifted()));
        assert!(r.note_rollback(), "second strike should degrade");
        assert!(r.is_degraded());
        assert!(r.stats().advisory().is_some());
        // Degraded: never fires again, never harvests again.
        for _ in 0..10 {
            assert!(!r.observe(drifted()));
        }
        r.offer("walk", &[1.0], 0.9, SignalQuality::Nominal);
        assert_eq!(r.harvested("walk").len(), 0);
    }

    #[test]
    fn commit_clears_strikes_and_evidence() {
        let cfg = SelfHealingConfig {
            hysteresis: 1,
            cooldown: 0,
            min_harvest: 1,
            ..SelfHealingConfig::default()
        };
        let mut r = Recalibrator::new(cfg).unwrap();
        r.offer("walk", &[1.0, 2.0], 0.9, SignalQuality::Nominal);
        assert!(r.observe(drifted()));
        r.note_rollback();
        assert_eq!(r.stats().strikes, 1);
        r.offer("walk", &[1.0, 2.0], 0.9, SignalQuality::Nominal);
        r.note_commit();
        let s = r.stats();
        assert_eq!(s.strikes, 0);
        assert_eq!(s.auto_recals, 1);
        assert_eq!(s.recal_rollbacks, 1);
        assert!(!s.degraded);
        assert_eq!(r.harvested("walk").len(), 0);
    }

    #[test]
    fn harvest_filters_and_bounds_evidence() {
        let cfg = SelfHealingConfig {
            max_harvest: 4,
            min_harvest: 2,
            min_confidence: 0.5,
            ..SelfHealingConfig::default()
        };
        let mut r = Recalibrator::new(cfg).unwrap();
        // Low confidence and degraded quality are both refused.
        r.offer("walk", &[1.0], 0.4, SignalQuality::Nominal);
        r.offer("walk", &[1.0], 0.9, SignalQuality::Degraded);
        assert_eq!(r.harvested("walk").len(), 0);
        assert!(r.candidate().is_none());
        // The buffer is bounded at max_harvest; oldest rows evicted.
        for i in 0..10 {
            r.offer("walk", &[i as f32], 0.9, SignalQuality::Nominal);
        }
        assert_eq!(r.harvested("walk").len(), 4);
        let (label, rows) = r.candidate().unwrap();
        assert_eq!(label, "walk");
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0], vec![6.0]); // 0..5 evicted
    }

    /// A nominal, confident prediction whose nearest prototype sits at
    /// `nearest`.
    fn prediction(nearest: f32) -> Prediction {
        Prediction {
            label: "walk".into(),
            confidence: 0.9,
            distances: vec![nearest, nearest + 1.0],
            latency: std::time::Duration::ZERO,
            quality: SignalQuality::Nominal,
            drift: None,
        }
    }

    /// Observe `n` windows at `nearest`, harvesting a one-float row each.
    fn feed(heal: &mut HealingLoop, nearest: f32, n: usize) {
        for _ in 0..n {
            let mut pred = prediction(nearest);
            assert!(!heal.observe(&mut pred, &[nearest]));
            assert!(pred.drift.is_some(), "drift status not stamped");
        }
    }

    fn loop_config() -> SelfHealingConfig {
        SelfHealingConfig {
            warmup: 3,
            min_harvest: 1,
            ..SelfHealingConfig::default()
        }
    }

    #[test]
    fn warmup_baseline_is_floored_only_with_a_deploy_baseline() {
        // Device path: the live mean (1.0) is floored at the deploy
        // baseline (2.0); a live mean above the floor (3.0) wins.
        let mut device = HealingLoop::new(loop_config(), Some(2.0)).unwrap();
        assert_eq!(device.monitor().baseline(), 2.0);
        feed(&mut device, 1.0, 2);
        assert_eq!(device.monitor().baseline(), 2.0, "re-baselined before warmup");
        feed(&mut device, 1.0, 1);
        assert_eq!(device.monitor().baseline(), 2.0);
        let mut device = HealingLoop::new(loop_config(), Some(2.0)).unwrap();
        feed(&mut device, 3.0, 3);
        assert_eq!(device.monitor().baseline(), 3.0);

        // Delta-session path: a 1.0 placeholder, replaced by the live
        // mean even when that is smaller.
        let mut session = HealingLoop::new(loop_config(), None).unwrap();
        assert_eq!(session.monitor().baseline(), 1.0);
        feed(&mut session, 0.25, 3);
        assert_eq!(session.monitor().baseline(), 0.25);
        // Non-finite distances never enter the estimate.
        let mut session = HealingLoop::new(loop_config(), None).unwrap();
        feed(&mut session, f32::INFINITY, 5);
        assert_eq!(session.monitor().baseline(), 1.0);
    }

    #[test]
    fn reestimate_after_commit_keeps_the_device_floor() {
        let mut device = HealingLoop::new(loop_config(), Some(2.0)).unwrap();
        feed(&mut device, 3.0, 3);
        assert_eq!(device.monitor().baseline(), 3.0);
        let mut committed = None;
        device.attempt(|label, rows| {
            committed = Some((label.to_string(), rows.len()));
            true
        });
        assert_eq!(committed, Some(("walk".to_string(), 3)));
        assert_eq!(device.stats().auto_recals, 1);
        // The post-commit estimate (1.0) is floored at the current
        // baseline, the previous live estimate.
        feed(&mut device, 1.0, 3);
        assert_eq!(device.monitor().baseline(), 3.0);

        // Without a deploy baseline the re-estimate may fall.
        let mut session = HealingLoop::new(loop_config(), None).unwrap();
        feed(&mut session, 3.0, 3);
        session.attempt(|_, _| true);
        feed(&mut session, 1.0, 3);
        assert_eq!(session.monitor().baseline(), 1.0);
    }

    #[test]
    fn attempt_strikes_on_rollback_and_skips_without_evidence() {
        let mut heal = HealingLoop::new(loop_config(), None).unwrap();
        heal.attempt(|_, _| panic!("no evidence harvested, nothing to commit"));
        assert_eq!(heal.stats(), HealingStats::default());
        feed(&mut heal, 1.0, 1);
        heal.attempt(|_, _| false);
        let stats = heal.stats();
        assert_eq!((stats.auto_recals, stats.recal_rollbacks, stats.strikes), (0, 1, 1));
    }

    #[test]
    fn observe_skips_ineligible_windows() {
        let mut heal = HealingLoop::new(loop_config(), None).unwrap();
        let mut pred = prediction(1.0);
        pred.quality = SignalQuality::Degraded;
        assert!(!heal.observe(&mut pred, &[1.0]));
        let mut pred = prediction(1.0);
        pred.confidence = 0.0;
        assert!(!heal.observe(&mut pred, &[1.0]));
        assert!(pred.drift.is_some(), "drift status not stamped");
        assert_eq!(heal.harvested("walk").len(), 0, "ineligible window harvested");
        let mut pred = prediction(1.0);
        assert!(!heal.observe(&mut pred, &[1.0]));
        assert_eq!(heal.harvested("walk").len(), 1);
    }

    #[test]
    fn candidate_picks_most_evidence_deterministically() {
        let cfg = SelfHealingConfig {
            min_harvest: 1,
            ..SelfHealingConfig::default()
        };
        let mut r = Recalibrator::new(cfg).unwrap();
        r.offer("run", &[1.0], 0.9, SignalQuality::Nominal);
        r.offer("walk", &[1.0], 0.9, SignalQuality::Nominal);
        r.offer("walk", &[2.0], 0.9, SignalQuality::Nominal);
        assert_eq!(r.candidate().unwrap().0, "walk");
        // Tie: lexicographically smaller label wins, every time.
        r.offer("run", &[2.0], 0.9, SignalQuality::Nominal);
        for _ in 0..5 {
            assert_eq!(r.candidate().unwrap().0, "run");
        }
    }
}
