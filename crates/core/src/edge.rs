//! The Edge device runtime (the paper's online step).
//!
//! [`EdgeDevice`] owns everything that lives on the phone after
//! deployment: the pre-processing pipeline, the model state (Siamese
//! backbone + support set + registry + NCM), the privacy ledger, and the
//! latency recorder. Its API mirrors the demo scenarios of §4.2:
//! real-time inference, recording a new activity, on-device learning, and
//! calibration — all without a byte of uplink.

use crate::bundle::{BundleSizeReport, EdgeBundle};
use crate::drift::DriftStatus;
use crate::embed::BatchEmbedder;
use crate::error::CoreError;
use crate::incremental::{IncrementalConfig, ModelState, UpdateMode, UpdateOutcome};
use crate::inference::{
    infer_window, infer_windows, InferenceView, LatencyRecorder, LatencyStats, Prediction,
    SmoothedPrediction, StreamingSession,
};
use crate::precision::Precision;
use crate::privacy::PrivacyLedger;
use crate::recalibrate::{HealingLoop, HealingStats, SelfHealingConfig};
use crate::version::{Lineage, ModelVersion};
use crate::Result;
use magneto_dsp::PreprocessingPipeline;
use magneto_sensors::{SensorDataset, SensorFrame, NUM_CHANNELS};
use magneto_tensor::SeededRng;
use serde::{Deserialize, Serialize};

/// Edge runtime configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EdgeConfig {
    /// Samples per inference window (paper: ~120 = 1 s).
    pub window_len: usize,
    /// Majority-vote smoothing horizon, in windows.
    pub smoothing_window: usize,
    /// Incremental-learning configuration.
    pub incremental: IncrementalConfig,
    /// Seed for on-device randomness (exemplar selection, pair sampling).
    pub seed: u64,
    /// Resident precision policy: `Int8` keeps the quantised weights and
    /// support set resident (no f32 rehydration), `F32` is the
    /// pre-refactor behaviour.
    #[serde(default)]
    pub precision: Precision,
    /// Self-healing under concept drift: when set, the device runs a
    /// [`HealingLoop`] over the streaming path and automatically
    /// recalibrates through the transactional update gates (see
    /// [`crate::recalibrate`]). `None` (the default) preserves the
    /// drift-blind behaviour.
    #[serde(default)]
    pub healing: Option<SelfHealingConfig>,
}

impl Default for EdgeConfig {
    fn default() -> Self {
        EdgeConfig {
            window_len: 120,
            smoothing_window: 3,
            incremental: IncrementalConfig::default(),
            seed: 0,
            precision: Precision::F32,
            healing: None,
        }
    }
}

/// A deployed MAGNETO Edge device.
#[derive(Debug)]
pub struct EdgeDevice {
    pipeline: PreprocessingPipeline,
    state: ModelState,
    config: EdgeConfig,
    ledger: PrivacyLedger,
    latency: LatencyRecorder,
    session: StreamingSession,
    embedder: BatchEmbedder,
    rng: SeededRng,
    lineage: Lineage,
    healing: Option<HealingLoop>,
}

impl EdgeDevice {
    /// Deploy a bundle onto a fresh device. The bundle download is the
    /// only Cloud interaction the device will ever have; it is recorded
    /// in the privacy ledger.
    ///
    /// # Errors
    /// [`CoreError::InvalidBundle`] if the bundle fails validation.
    pub fn deploy(bundle: EdgeBundle, config: EdgeConfig) -> Result<Self> {
        let mut ledger = PrivacyLedger::edge_only();
        ledger.record_download(bundle.total_bytes(), "edge bundle (pipeline+model+support)");
        // An int8 deploy keeps quantised weights AND a quantised support
        // set resident.
        let (state, pipeline, lineage) =
            ModelState::from_bundle(bundle, config.precision, config.incremental.metric)?;
        // The streaming session's entry guard repairs with the same
        // thresholds the pipeline's window guard uses, so the streaming
        // and batch paths degrade identically.
        let guard = pipeline.config().guard;
        let mut device = EdgeDevice {
            pipeline,
            lineage,
            session: StreamingSession::with_guard(
                NUM_CHANNELS,
                config.window_len,
                config.smoothing_window,
                guard,
            ),
            state,
            ledger,
            latency: LatencyRecorder::new(),
            embedder: BatchEmbedder::new(),
            rng: SeededRng::new(config.seed),
            healing: None,
            config,
        };
        if let Some(healing) = config.healing {
            device.enable_self_healing(healing)?;
        }
        Ok(device)
    }

    /// Switch on the self-healing loop: a [`HealingLoop`] baselined on
    /// the current support set watches every streaming window and turns
    /// sustained drift into transactional calibration attempts
    /// (committed only through the validation gates; byte-exact
    /// rollback otherwise). Re-enabling replaces any
    /// previous loop and re-baselines against the current support set.
    ///
    /// # Errors
    /// [`CoreError::InvalidConfig`] when the config fails validation;
    /// [`CoreError::InsufficientData`] when no support samples exist to
    /// baseline the monitor.
    pub fn enable_self_healing(&mut self, config: SelfHealingConfig) -> Result<()> {
        config.validate()?;
        let baseline = self
            .state
            .rejection_threshold(config.baseline_percentile, 1.0)?;
        self.healing = Some(HealingLoop::new(config, Some(baseline))?);
        Ok(())
    }

    /// Switch the self-healing loop off (drift status stops riding on
    /// predictions; no further automatic recalibration).
    pub fn disable_self_healing(&mut self) {
        self.healing = None;
    }

    /// Current drift status, when self-healing is enabled.
    pub fn drift_status(&self) -> Option<DriftStatus> {
        self.healing.as_ref().map(|h| h.monitor().status())
    }

    /// Self-healing counters (alerts, committed recalibrations,
    /// rollbacks, strikes), when the loop is enabled.
    pub fn healing_stats(&self) -> Option<HealingStats> {
        self.healing.as_ref().map(HealingLoop::stats)
    }

    /// Activities the device currently recognises.
    pub fn classes(&self) -> Vec<String> {
        self.state.registry.labels().to_vec()
    }

    /// The runtime configuration.
    pub fn config(&self) -> &EdgeConfig {
        &self.config
    }

    /// The precision the resident model executes at.
    pub fn precision(&self) -> Precision {
        self.state.model.precision()
    }

    /// The micro-kernel backend this device's GEMMs dispatch to —
    /// the workspace captured at construction, so it reflects the plan
    /// that was globally installed when the device deployed.
    pub fn compute_backend(&self) -> magneto_tensor::Backend {
        self.embedder.backend()
    }

    /// Bytes held resident for the model parameters plus the support
    /// set at their deployed precision — the quantity the int8 policy
    /// shrinks (prototypes, registry and pipeline are noise next to it).
    pub fn resident_bytes(&self) -> usize {
        self.state.model.resident_bytes() + self.state.support_set.bytes()
    }

    /// Classify one channel-major raw window (22 × ~120 samples).
    ///
    /// # Errors
    /// Propagates pre-processing/classification errors.
    pub fn infer_window(&mut self, channels: &[Vec<f32>]) -> Result<Prediction> {
        let pred = infer_window(&self.pipeline, &self.state.model, &self.state.ncm, channels)?;
        self.latency.record(pred.latency);
        Ok(pred)
    }

    /// Classify a backlog of raw windows as **one batch**: every window
    /// is featurised into a shared feature matrix and the whole batch
    /// runs through the backbone in a single forward pass. Per-window
    /// latency is the amortised batch cost.
    ///
    /// # Errors
    /// Propagates pre-processing/classification errors.
    pub fn infer_windows(&mut self, windows: &[Vec<Vec<f32>>]) -> Result<Vec<Prediction>> {
        let preds = infer_windows(
            &self.pipeline,
            &self.state.model,
            &self.state.ncm,
            windows,
            &mut self.embedder,
        )?;
        for p in &preds {
            self.latency.record(p.latency);
        }
        Ok(preds)
    }

    /// Open-set classification: `None` means "unknown activity" — the
    /// window is farther than `threshold` from every known prototype.
    /// Calibrate the threshold with
    /// [`rejection_threshold`](Self::rejection_threshold).
    ///
    /// # Errors
    /// Propagates pre-processing/classification errors.
    pub fn infer_window_open_set(
        &mut self,
        channels: &[Vec<f32>],
        threshold: f32,
    ) -> Result<Option<Prediction>> {
        let pred = self.infer_window(channels)?;
        let min_dist = pred
            .distances
            .iter()
            .cloned()
            .fold(f32::INFINITY, f32::min);
        Ok((min_dist <= threshold).then_some(pred))
    }

    /// Calibrate an open-set rejection threshold from the support set
    /// (see [`ModelState::rejection_threshold`]). Percentile ~99 with a
    /// margin of 4–7 keeps false rejections of known activities rare
    /// under user drift.
    ///
    /// # Errors
    /// See [`ModelState::rejection_threshold`].
    pub fn rejection_threshold(&self, percentile: f32, margin: f32) -> Result<f32> {
        self.state.rejection_threshold(percentile, margin)
    }

    /// Index the device's support exemplars on the classifier's
    /// quantized row index so every inference scores classes by their
    /// nearest exemplar, not just the class mean (see
    /// [`ModelState::attach_support_exemplars`]). Returns the number of
    /// exemplar rows indexed.
    ///
    /// # Errors
    /// Propagates embedding failures.
    pub fn attach_support_exemplars(&mut self) -> Result<usize> {
        self.state.attach_support_exemplars()
    }

    /// Push one live sensor frame into the streaming session. Returns a
    /// smoothed prediction whenever a window completes.
    ///
    /// # Errors
    /// Propagates inference errors on completed windows.
    pub fn push_frame(&mut self, frame: &SensorFrame) -> Result<Option<SmoothedPrediction>> {
        let mut out = self.session.push_sample(
            &frame.values,
            &self.pipeline,
            &self.state.model,
            &self.state.ncm,
        )?;
        if let Some(p) = &mut out {
            self.latency.record(p.raw.latency);
            self.self_heal(std::slice::from_mut(p));
        }
        Ok(out)
    }

    /// Push a backlog of live sensor frames at once — the catch-up path
    /// after the app was suspended while the sensors kept buffering. All
    /// windows completed by the backlog are embedded in one batched
    /// forward pass (see [`StreamingSession::push_samples`]).
    ///
    /// # Errors
    /// Propagates inference errors on completed windows.
    pub fn push_frames(&mut self, frames: &[SensorFrame]) -> Result<Vec<SmoothedPrediction>> {
        let rows: Vec<&[f32]> = frames.iter().map(|f| f.values.as_slice()).collect();
        let mut out = self.session.push_samples(
            &rows,
            &self.pipeline,
            &self.state.model,
            &self.state.ncm,
        )?;
        for p in &out {
            self.latency.record(p.raw.latency);
        }
        self.self_heal(&mut out);
        Ok(out)
    }

    /// The self-healing step behind the streaming path: observe each
    /// completed window's nearest-prototype distance, stamp the drift
    /// status onto the prediction, harvest confident nominal windows as
    /// calibration evidence, and — on sustained drift past hysteresis
    /// and cooldown — attempt a transactional recalibration. `preds` are
    /// the predictions of the session's last push, so prediction `r`'s
    /// evidence is row `r` of the session's staged features.
    fn self_heal(&mut self, preds: &mut [SmoothedPrediction]) {
        let Some(healing) = self.healing.as_mut() else {
            return;
        };
        let staged = self.session.staged_features();
        let mut fire = false;
        for (r, p) in preds.iter_mut().enumerate() {
            fire |= healing.observe(&mut p.raw, staged.row(r));
        }
        if fire {
            // Automatic recalibration runs through the same transactional
            // gates as user-triggered learning; a rejected or errored
            // update is rolled back byte-exactly and never reaches the
            // serving path.
            let mut healing = self.healing.take().expect("matched above");
            healing.attempt(|label, rows| {
                matches!(
                    self.update(label, rows, UpdateMode::Calibration),
                    Ok(UpdateOutcome::Committed(_))
                )
            });
            self.healing = Some(healing);
        }
    }

    /// Reset the streaming session (activity boundary in the UI).
    pub fn reset_session(&mut self) {
        self.session.reset();
    }

    /// Cumulative sensor-health picture of the streaming path: frames
    /// scrubbed, samples repaired, the least healthy channel, and how
    /// many emitted windows were degraded.
    pub fn sensor_health(&self) -> crate::inference::SensorHealth {
        self.session.sensor_health()
    }

    /// §4.2.2: learn a brand-new activity from a recorded session. The
    /// recording never leaves the device.
    ///
    /// Runs transactionally: the trained state must pass validation
    /// (finite losses/weights, bounded loss growth, old-class
    /// self-accuracy floor) or the device is restored to its exact
    /// pre-update state and [`UpdateOutcome::RolledBack`] is returned.
    ///
    /// # Errors
    /// See [`ModelState::update_transactional`].
    pub fn learn_new_activity(
        &mut self,
        label: &str,
        recording: &SensorDataset,
    ) -> Result<UpdateOutcome> {
        let features = self.featurize_recording(recording)?;
        self.update(label, &features, UpdateMode::NewActivity)
    }

    /// Calibrate an existing activity to the user's personal style: the
    /// class's support data is replaced by the new recording, then the
    /// model re-trains. Transactional, like
    /// [`learn_new_activity`](Self::learn_new_activity).
    ///
    /// # Errors
    /// See [`ModelState::update_transactional`].
    pub fn calibrate_activity(
        &mut self,
        label: &str,
        recording: &SensorDataset,
    ) -> Result<UpdateOutcome> {
        let features = self.featurize_recording(recording)?;
        self.update(label, &features, UpdateMode::Calibration)
    }

    /// One transactional update with the device's config and RNG.
    ///
    /// A committed new activity retrains the backbone the device
    /// serves, so the device's lineage steps to a child of the bundle it
    /// replaces (next version, that bundle's content hash as parent): a
    /// delta pinned to the old version no longer matches the device's
    /// bundle. Calibrations and rolled-back updates keep the lineage.
    fn update(
        &mut self,
        label: &str,
        features: &[Vec<f32>],
        mode: UpdateMode,
    ) -> Result<UpdateOutcome> {
        let child = (mode == UpdateMode::NewActivity).then(|| self.as_bundle().child_lineage());
        let config = self.config.incremental;
        let outcome = self
            .state
            .update_transactional(label, features, mode, &config, &mut self.rng)?;
        if let Some(child) = child.filter(|_| outcome.is_committed()) {
            self.lineage = child;
        }
        Ok(outcome)
    }

    fn featurize_recording(&self, recording: &SensorDataset) -> Result<Vec<Vec<f32>>> {
        if recording.is_empty() {
            return Err(CoreError::InsufficientData("empty recording".into()));
        }
        let dim = self.pipeline.output_dim();
        let mut rows = Vec::with_capacity(recording.windows.len());
        for w in &recording.windows {
            let mut row = vec![0.0f32; dim];
            self.pipeline.process_into(&w.channels, &mut row)?;
            rows.push(row);
        }
        Ok(rows)
    }

    /// Export a learned activity as a portable [`crate::sharing::ClassPack`] for
    /// peer-to-peer sharing (Bluetooth/AirDrop — never via the Cloud).
    /// The pack carries pre-processed feature exemplars, not raw sensor
    /// data.
    ///
    /// # Errors
    /// [`CoreError::UnknownClass`] when the device does not know `label`.
    pub fn export_class(&self, label: &str) -> Result<crate::sharing::ClassPack> {
        let samples = self
            .state
            .support_set
            .samples(label)
            .ok_or_else(|| CoreError::UnknownClass(label.to_string()))?;
        crate::sharing::ClassPack::new(label, samples)
    }

    /// Import a peer's [`crate::sharing::ClassPack`], learning the class exactly as if
    /// this device's user had recorded it (same incremental machinery,
    /// same forgetting protection).
    ///
    /// # Errors
    /// [`CoreError::InvalidConfig`] when the class already exists or the
    /// pack's feature dimension does not match the pipeline; training
    /// errors are propagated.
    pub fn import_class(
        &mut self,
        pack: &crate::sharing::ClassPack,
    ) -> Result<UpdateOutcome> {
        if pack.feature_dim != self.pipeline.output_dim() {
            return Err(CoreError::InvalidConfig(format!(
                "class pack has {}-d features, pipeline produces {}",
                pack.feature_dim,
                self.pipeline.output_dim()
            )));
        }
        self.update(&pack.label, &pack.exemplars, UpdateMode::NewActivity)
    }

    /// Attempt to sync user data to the Cloud. Always fails on a MAGNETO
    /// device — this method exists so the demo can *show* Definition 1
    /// being enforced.
    ///
    /// # Errors
    /// Always [`CoreError::PrivacyViolation`].
    pub fn try_sync_to_cloud(&mut self, description: &str) -> Result<()> {
        let bytes = self.state.support_set.bytes();
        self.ledger.try_upload(bytes, description)
    }

    /// The privacy ledger (read-only).
    pub fn privacy_ledger(&self) -> &PrivacyLedger {
        &self.ledger
    }

    /// Latency statistics across all inferences so far.
    pub fn latency_stats(&self) -> LatencyStats {
        self.latency.stats()
    }

    /// Current on-device footprint, serialised at the given precision —
    /// the quantity bounded by 5 MB in §4.2.
    pub fn memory_footprint(&self, quantized: bool) -> BundleSizeReport {
        self.as_bundle().size_report(quantized)
    }

    /// Snapshot the current device state as a bundle (e.g. for local
    /// persistence; never for upload). The model keeps its resident
    /// precision; the support-set section of the wire format is f32, so
    /// an int8 store is dequantised for the snapshot.
    pub fn as_bundle(&self) -> EdgeBundle {
        EdgeBundle {
            pipeline: self.pipeline.clone(),
            model: self.state.model.clone(),
            support_set: self.state.support_set.clone().into_precision(Precision::F32),
            registry: self.state.registry.clone(),
            lineage: self.lineage,
        }
    }

    /// The base-model version this device is serving.
    pub fn model_version(&self) -> ModelVersion {
        self.lineage.version
    }

    /// Direct access to the model state (experiments and diagnostics).
    pub fn state(&self) -> &ModelState {
        &self.state
    }

    /// Borrow everything a serving runtime needs to classify windows for
    /// this device without taking `&mut`: pipeline, backbone, NCM. A
    /// fleet scheduler stacks views from many sessions into one
    /// [`crate::inference::infer_batch`] call.
    pub fn inference_view(&self) -> InferenceView<'_> {
        InferenceView {
            pipeline: &self.pipeline,
            model: &self.state.model,
            ncm: &self.state.ncm,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cloud::{CloudConfig, CloudInitializer};
    use magneto_sensors::{ActivityKind, GeneratorConfig, PersonProfile};

    fn deployed_device(seed: u64) -> EdgeDevice {
        deployed_device_at(seed, Precision::F32)
    }

    fn deployed_device_at(seed: u64, precision: Precision) -> EdgeDevice {
        let corpus = SensorDataset::generate(&GeneratorConfig::tiny(), seed);
        let (bundle, _) = CloudInitializer::new(CloudConfig::fast_demo())
            .pretrain(&corpus)
            .unwrap();
        let config = EdgeConfig {
            precision,
            ..EdgeConfig::default()
        };
        EdgeDevice::deploy(bundle, config).unwrap()
    }

    #[test]
    fn deploy_records_the_download_and_nothing_else() {
        let device = deployed_device(1);
        let ledger = device.privacy_ledger();
        assert_eq!(ledger.records().len(), 1);
        assert!(ledger.downlink_bytes() > 0);
        assert_eq!(ledger.uplink_bytes(), 0);
        ledger.assert_no_uplink();
        assert_eq!(device.classes().len(), 5);
    }

    #[test]
    fn infer_window_works_and_records_latency() {
        let mut device = deployed_device(2);
        let probe = SensorDataset::generate(
            &GeneratorConfig {
                activities: vec![ActivityKind::Run],
                windows_per_class: 3,
                ..GeneratorConfig::tiny()
            },
            99,
        );
        for w in &probe.windows {
            let pred = device.infer_window(&w.channels).unwrap();
            assert!(device.classes().contains(&pred.label));
        }
        let stats = device.latency_stats();
        assert_eq!(stats.count, 3);
        assert!(stats.mean_us > 0.0);
    }

    #[test]
    fn streaming_frames_produce_predictions() {
        let mut device = deployed_device(3);
        let mut stream = magneto_sensors::SensorStream::new(
            ActivityKind::Walk.profile(),
            PersonProfile::nominal(),
            magneto_sensors::stream::StreamConfig::ideal(),
            SeededRng::new(4),
        );
        let mut outputs = 0;
        for _ in 0..360 {
            let frame = stream.next().unwrap();
            if device.push_frame(&frame).unwrap().is_some() {
                outputs += 1;
            }
        }
        assert_eq!(outputs, 3);
        device.reset_session();
    }

    #[test]
    fn batched_window_inference_matches_per_window() {
        let mut device = deployed_device(40);
        let probe = SensorDataset::generate(
            &GeneratorConfig {
                windows_per_class: 2,
                ..GeneratorConfig::tiny()
            },
            41,
        );
        let windows: Vec<Vec<Vec<f32>>> =
            probe.windows.iter().map(|w| w.channels.clone()).collect();
        let batched = device.infer_windows(&windows).unwrap();
        assert_eq!(batched.len(), windows.len());
        for (w, b) in windows.iter().zip(&batched) {
            let single = device.infer_window(w).unwrap();
            assert_eq!(single.label, b.label);
            assert_eq!(single.confidence, b.confidence);
            assert_eq!(single.distances, b.distances);
        }
        // Both paths fed the latency recorder.
        assert_eq!(device.latency_stats().count, 2 * windows.len());
        // An empty backlog is a no-op.
        assert!(device.infer_windows(&[]).unwrap().is_empty());
    }

    #[test]
    fn batched_frames_match_sequential_frames() {
        let mut seq_dev = deployed_device(42);
        let mut batch_dev = deployed_device(42);
        let mut stream = magneto_sensors::SensorStream::new(
            ActivityKind::Walk.profile(),
            PersonProfile::nominal(),
            magneto_sensors::stream::StreamConfig::ideal(),
            SeededRng::new(43),
        );
        let frames: Vec<SensorFrame> = (0..360).map(|_| stream.next().unwrap()).collect();

        let mut seq_out = Vec::new();
        for f in &frames {
            if let Some(p) = seq_dev.push_frame(f).unwrap() {
                seq_out.push(p);
            }
        }
        let batch_out = batch_dev.push_frames(&frames).unwrap();
        assert_eq!(batch_out.len(), seq_out.len());
        assert_eq!(batch_out.len(), 3);
        for (b, s) in batch_out.iter().zip(&seq_out) {
            assert_eq!(b.raw.label, s.raw.label);
            assert_eq!(b.smoothed_label, s.smoothed_label);
            assert_eq!(b.agreement, s.agreement);
        }
    }

    #[test]
    fn learn_new_activity_end_to_end() {
        let mut device = deployed_device(5);
        let recording = SensorDataset::record_session(
            "gesture_hi",
            ActivityKind::GestureHi,
            PersonProfile::nominal(),
            25.0,
            6,
        );
        let report = device
            .learn_new_activity("gesture_hi", &recording)
            .unwrap()
            .committed()
            .unwrap();
        assert!(report.classes_after.contains(&"gesture_hi".to_string()));
        assert_eq!(report.new_windows, 25);
        assert_eq!(device.classes().len(), 6);
        // Privacy invariant still holds after learning.
        device.privacy_ledger().assert_no_uplink();
    }

    #[test]
    fn committed_new_activity_steps_the_lineage_and_calibration_keeps_it() {
        let mut device = deployed_device(5);
        let deployed = device.as_bundle();
        let recording = SensorDataset::record_session(
            "gesture_hi",
            ActivityKind::GestureHi,
            PersonProfile::nominal(),
            25.0,
            6,
        );
        device
            .learn_new_activity("gesture_hi", &recording)
            .unwrap()
            .committed()
            .unwrap();
        assert_eq!(device.model_version(), deployed.version().next());
        let learned = device.as_bundle().lineage;
        learned
            .validate_succession(deployed.version(), deployed.content_hash())
            .unwrap();

        let walk = SensorDataset::record_session(
            "walk",
            ActivityKind::Walk,
            PersonProfile::nominal(),
            20.0,
            11,
        );
        device
            .calibrate_activity("walk", &walk)
            .unwrap()
            .committed()
            .unwrap();
        assert_eq!(device.as_bundle().lineage, learned);
    }

    #[test]
    fn learn_duplicate_class_fails() {
        let mut device = deployed_device(7);
        let recording = SensorDataset::record_session(
            "walk",
            ActivityKind::Walk,
            PersonProfile::nominal(),
            10.0,
            8,
        );
        assert!(matches!(
            device.learn_new_activity("walk", &recording),
            Err(CoreError::InvalidConfig(_))
        ));
    }

    #[test]
    fn calibrate_existing_class() {
        let mut device = deployed_device(9);
        let mut rng = SeededRng::new(10);
        let person = PersonProfile::sample_atypical(&mut rng);
        let recording =
            SensorDataset::record_session("walk", ActivityKind::Walk, person, 20.0, 11);
        let report = device
            .calibrate_activity("walk", &recording)
            .unwrap()
            .committed()
            .unwrap();
        assert_eq!(report.classes_after.len(), 5); // no new class
        assert!(matches!(
            device.calibrate_activity("yoga", &recording),
            Err(CoreError::UnknownClass(_))
        ));
    }

    #[test]
    fn empty_recording_rejected() {
        let mut device = deployed_device(12);
        assert!(matches!(
            device.learn_new_activity("x", &SensorDataset::default()),
            Err(CoreError::InsufficientData(_))
        ));
    }

    #[test]
    fn sync_to_cloud_is_always_blocked() {
        let mut device = deployed_device(13);
        let err = device.try_sync_to_cloud("support set backup").unwrap_err();
        assert!(matches!(err, CoreError::PrivacyViolation { .. }));
        device.privacy_ledger().assert_no_uplink();
    }

    #[test]
    fn footprint_stays_under_budget_for_fast_demo() {
        let device = deployed_device(14);
        let report = device.memory_footprint(false);
        assert!(report.within_5mb(), "footprint {} MiB", report.total_mib());
        let quantized = device.memory_footprint(true);
        assert!(quantized.total_bytes < report.total_bytes);
    }

    #[test]
    fn class_sharing_between_devices() {
        // Device A learns a gesture; device B imports the exported pack
        // and recognises the gesture without ever seeing a recording.
        let mut device_a = deployed_device(30);
        let recording = SensorDataset::record_session(
            "gesture_hi",
            ActivityKind::GestureHi,
            PersonProfile::nominal(),
            25.0,
            31,
        );
        device_a
            .learn_new_activity("gesture_hi", &recording)
            .unwrap()
            .committed()
            .unwrap();
        let pack = device_a.export_class("gesture_hi").unwrap();
        let wire = pack.to_bytes();

        let mut device_b = deployed_device(30);
        assert_eq!(device_b.classes().len(), 5);
        let received = crate::sharing::ClassPack::from_bytes(&wire).unwrap();
        device_b.import_class(&received).unwrap().committed().unwrap();
        assert_eq!(device_b.classes().len(), 6);

        // B recognises the gesture from fresh windows.
        let probe = SensorDataset::record_session(
            "gesture_hi",
            ActivityKind::GestureHi,
            PersonProfile::nominal(),
            10.0,
            32,
        );
        let mut hits = 0;
        for w in &probe.windows {
            if device_b.infer_window(&w.channels).unwrap().label == "gesture_hi" {
                hits += 1;
            }
        }
        assert!(
            hits * 10 >= probe.windows.len() * 7,
            "B recognised {hits}/{}",
            probe.windows.len()
        );
        // No Cloud involved anywhere.
        device_a.privacy_ledger().assert_no_uplink();
        device_b.privacy_ledger().assert_no_uplink();

        // Exporting an unknown class fails; importing a duplicate fails.
        assert!(matches!(
            device_a.export_class("yoga"),
            Err(CoreError::UnknownClass(_))
        ));
        assert!(device_b.import_class(&received).is_err());
    }

    #[test]
    fn ragged_class_pack_is_refused_at_both_precisions() {
        // `ClassPack` has public fields and derives `Deserialize`, so a
        // peer can send rows that disagree with its `feature_dim`.
        let mut exemplars = vec![vec![0.5f32; 80]; 6];
        exemplars.push(vec![0.5; 3]);
        let pack = crate::sharing::ClassPack {
            label: "gesture_hi".into(),
            exemplars,
            feature_dim: 80,
        };
        for precision in [Precision::F32, Precision::Int8] {
            let mut device = deployed_device_at(33, precision);
            let before = device.as_bundle().to_bytes(false);
            assert!(device.import_class(&pack).is_err(), "{precision:?}");
            assert_eq!(device.as_bundle().to_bytes(false), before, "{precision:?}");
            assert_eq!(device.classes().len(), 5);
        }
    }

    #[test]
    fn open_set_rejects_unseen_gesture_before_learning() {
        let mut device = deployed_device(16);
        let threshold = device.rejection_threshold(100.0, 6.5).unwrap();
        assert!(threshold > 0.0);

        // Base-activity windows are mostly accepted…
        let base = SensorDataset::generate(&GeneratorConfig::tiny(), 17);
        let accepted = base
            .windows
            .iter()
            .filter(|w| {
                device
                    .infer_window_open_set(&w.channels, threshold)
                    .unwrap()
                    .is_some()
            })
            .count();
        assert!(
            accepted * 10 >= base.windows.len() * 5,
            "too many known windows rejected: {accepted}/{}",
            base.windows.len()
        );

        // …while an unseen gesture is rejected more often than base
        // activities are.
        let gesture = SensorDataset::record_session(
            "gesture_circle",
            ActivityKind::GestureCircle,
            PersonProfile::nominal(),
            20.0,
            18,
        );
        let gesture_accepted = gesture
            .windows
            .iter()
            .filter(|w| {
                device
                    .infer_window_open_set(&w.channels, threshold)
                    .unwrap()
                    .is_some()
            })
            .count();
        let base_rate = accepted as f64 / base.windows.len() as f64;
        let gesture_rate = gesture_accepted as f64 / gesture.windows.len() as f64;
        assert!(
            gesture_rate < base_rate,
            "unseen gesture accepted at {gesture_rate} vs base {base_rate}"
        );
    }

    #[test]
    fn int8_deploy_keeps_resident_footprint_under_035x() {
        let f32_dev = deployed_device_at(20, Precision::F32);
        let int8_dev = deployed_device_at(20, Precision::Int8);
        assert_eq!(f32_dev.precision(), Precision::F32);
        assert_eq!(int8_dev.precision(), Precision::Int8);
        let ratio = int8_dev.resident_bytes() as f64 / f32_dev.resident_bytes() as f64;
        assert!(
            ratio <= 0.35,
            "int8 resident {} bytes vs f32 {} bytes (ratio {ratio:.3})",
            int8_dev.resident_bytes(),
            f32_dev.resident_bytes()
        );
    }

    #[test]
    fn int8_predictions_agree_with_f32_above_99_percent() {
        let mut f32_dev = deployed_device_at(21, Precision::F32);
        let mut int8_dev = deployed_device_at(21, Precision::Int8);
        let eval = SensorDataset::generate(
            &GeneratorConfig {
                windows_per_class: 20,
                ..GeneratorConfig::tiny()
            },
            22,
        );
        let mut agree = 0;
        for w in &eval.windows {
            let a = f32_dev.infer_window(&w.channels).unwrap();
            let b = int8_dev.infer_window(&w.channels).unwrap();
            if a.label == b.label {
                agree += 1;
            }
        }
        let rate = agree as f64 / eval.windows.len() as f64;
        assert!(
            rate >= 0.99,
            "int8 agreed with f32 on {agree}/{} windows ({rate:.3})",
            eval.windows.len()
        );
    }

    #[test]
    fn int8_learn_new_activity_round_trip() {
        let mut device = deployed_device_at(23, Precision::Int8);
        let recording = SensorDataset::record_session(
            "gesture_hi",
            ActivityKind::GestureHi,
            PersonProfile::nominal(),
            25.0,
            24,
        );
        let report = device
            .learn_new_activity("gesture_hi", &recording)
            .unwrap()
            .committed()
            .unwrap();
        assert!(report.classes_after.contains(&"gesture_hi".to_string()));
        // The device recommitted to int8 after the f32 training pass,
        // support set included.
        assert_eq!(device.precision(), Precision::Int8);
        assert_eq!(
            device.state().support_set.precision(),
            Precision::Int8
        );
        device.privacy_ledger().assert_no_uplink();

        // The new gesture is recognised through the int8 path.
        let probe = SensorDataset::record_session(
            "gesture_hi",
            ActivityKind::GestureHi,
            PersonProfile::nominal(),
            10.0,
            25,
        );
        let mut hits = 0;
        for w in &probe.windows {
            if device.infer_window(&w.channels).unwrap().label == "gesture_hi" {
                hits += 1;
            }
        }
        assert!(
            hits * 10 >= probe.windows.len() * 7,
            "recognised {hits}/{}",
            probe.windows.len()
        );
    }

    #[test]
    fn int8_snapshot_roundtrips_and_redeploys() {
        let device = deployed_device_at(26, Precision::Int8);
        let snapshot = device.as_bundle();
        let restored = EdgeBundle::from_bytes(&snapshot.to_bytes(true)).unwrap();
        assert_eq!(restored.model.precision(), Precision::Int8);
        let device2 = EdgeDevice::deploy(
            restored,
            EdgeConfig {
                precision: Precision::Int8,
                ..EdgeConfig::default()
            },
        )
        .unwrap();
        assert_eq!(device2.classes(), device.classes());
        assert_eq!(device2.precision(), Precision::Int8);
    }

    fn walk_frames(n: usize, seed: u64) -> Vec<SensorFrame> {
        let mut stream = magneto_sensors::SensorStream::new(
            ActivityKind::Walk.profile(),
            PersonProfile::nominal(),
            magneto_sensors::stream::StreamConfig::ideal(),
            SeededRng::new(seed),
        );
        (0..n).map(|_| stream.next().unwrap()).collect()
    }

    #[test]
    fn self_healing_stays_quiet_on_clean_stream() {
        let mut device = deployed_device(50);
        device
            .enable_self_healing(SelfHealingConfig::default())
            .unwrap();
        assert!(device.drift_status().is_some());
        let preds = device.push_frames(&walk_frames(120 * 12, 51)).unwrap();
        assert_eq!(preds.len(), 12);
        // Every streaming prediction carries a drift status now.
        assert!(preds.iter().all(|p| p.raw.drift.is_some()));
        let stats = device.healing_stats().unwrap();
        assert_eq!(stats.drift_alerts, 0, "clean walk must not alert: {stats:?}");
        assert_eq!(stats.auto_recals, 0);
        assert!(!stats.degraded);
        // Self-healing adds zero uplink.
        device.privacy_ledger().assert_no_uplink();
    }

    #[test]
    fn self_healing_detects_drift_and_attempts_recalibration() {
        let mut device = deployed_device(52);
        device
            .enable_self_healing(SelfHealingConfig::default())
            .unwrap();
        // Warm the monitor up on clean data first (the first windows
        // also calibrate the live baseline).
        device.push_frames(&walk_frames(120 * 8, 53)).unwrap();
        // Then the user's gait changes: motion amplitude ramps up over
        // five seconds and stays there.
        let mut drift = magneto_sensors::DriftPlan::gait_change(54, 1.6, 600).injector();
        let drifted = drift.apply(&walk_frames(120 * 30, 55));
        let preds = device.push_frames(&drifted).unwrap();
        assert!(preds
            .iter()
            .any(|p| matches!(p.raw.drift, Some(DriftStatus::Drifted { .. }))));
        let stats = device.healing_stats().unwrap();
        assert!(stats.drift_alerts >= 1, "no alert fired: {stats:?}");
        assert!(
            stats.auto_recals + stats.recal_rollbacks >= 1,
            "sustained drift never triggered an attempt: {stats:?}"
        );
        device.privacy_ledger().assert_no_uplink();
    }

    #[test]
    fn healing_harvests_the_feature_rows_inference_staged() {
        // Each harvested row must be its window's own pipeline row, bit
        // for bit, however the stream arrives: frame by frame, one window
        // per push, or a backlog of several windows in one push. No
        // attempt may fire (it would clear the harvest).
        let corpus = SensorDataset::generate(&GeneratorConfig::tiny(), 61);
        let (bundle, _) = CloudInitializer::new(CloudConfig::fast_demo())
            .pretrain(&corpus)
            .unwrap();
        let config = EdgeConfig {
            healing: Some(SelfHealingConfig {
                min_confidence: 0.0,
                max_harvest: 64,
                hysteresis: 1_000,
                ..SelfHealingConfig::default()
            }),
            ..EdgeConfig::default()
        };
        let mut frames = walk_frames(120 * 10, 62);
        // Window 4 carries a repaired frame: served, never harvested.
        frames[4 * 120 + 60].values[3] = f32::NAN;
        let window = |k: usize| -> Vec<Vec<f32>> {
            (0..NUM_CHANNELS)
                .map(|c| frames[k * 120..(k + 1) * 120].iter().map(|f| f.values[c]).collect())
                .collect()
        };
        type Feed = fn(&mut EdgeDevice, &[SensorFrame]) -> Vec<SmoothedPrediction>;
        let feeds: [Feed; 3] = [
            |d, f| f.iter().filter_map(|x| d.push_frame(x).unwrap()).collect(),
            |d, f| f.chunks(120).flat_map(|c| d.push_frames(c).unwrap()).collect(),
            |d, f| f.chunks(120 * 4).flat_map(|c| d.push_frames(c).unwrap()).collect(),
        ];
        let bits = |rows: &[Vec<f32>]| -> Vec<Vec<u32>> {
            rows.iter().map(|r| r.iter().map(|v| v.to_bits()).collect()).collect()
        };
        for (way, feed) in feeds.iter().enumerate() {
            let mut device = EdgeDevice::deploy(bundle.clone(), config).unwrap();
            let preds = feed(&mut device, &frames);
            assert_eq!(preds.len(), 10, "way {way}");
            let mut expected: std::collections::HashMap<String, Vec<Vec<f32>>> =
                std::collections::HashMap::new();
            for (k, p) in preds.iter().enumerate() {
                assert_eq!(p.raw.quality.is_degraded(), k == 4, "way {way} window {k}");
                if k != 4 {
                    let mut row = vec![0.0f32; device.pipeline.output_dim()];
                    device.pipeline.process_into(&window(k), &mut row).unwrap();
                    expected.entry(p.raw.label.clone()).or_default().push(row);
                }
            }
            let healing = device.healing.as_ref().unwrap();
            let stats = healing.stats();
            assert_eq!(stats.auto_recals + stats.recal_rollbacks, 0, "way {way}");
            for label in device.classes() {
                let want = expected.remove(&label).unwrap_or_default();
                assert_eq!(
                    bits(healing.harvested(&label)),
                    bits(&want),
                    "way {way} label {label}"
                );
            }
            assert!(expected.is_empty(), "way {way}: unknown labels {expected:?}");
        }
    }

    #[test]
    fn rejected_recalibrations_strike_out_byte_exactly() {
        // An unattainable self-accuracy floor forces every automatic
        // attempt to roll back; the policy must degrade after
        // max_strikes and the model bytes must be exactly untouched.
        let mut config = EdgeConfig::default();
        config.incremental.validation.self_accuracy_floor = 1.5;
        config.healing = Some(SelfHealingConfig {
            max_strikes: 2,
            cooldown: 4,
            // Harvest even low-confidence windows so the evidence buffer
            // refills quickly between strikes.
            min_confidence: 0.05,
            ..SelfHealingConfig::default()
        });
        let corpus = SensorDataset::generate(&GeneratorConfig::tiny(), 56);
        let (bundle, _) = CloudInitializer::new(CloudConfig::fast_demo())
            .pretrain(&corpus)
            .unwrap();
        let mut device = EdgeDevice::deploy(bundle, config).unwrap();
        let before = device.as_bundle().to_bytes(false);

        device.push_frames(&walk_frames(120 * 8, 57)).unwrap();
        let mut drift = magneto_sensors::DriftPlan::gait_change(58, 1.6, 600).injector();
        let drifted = drift.apply(&walk_frames(120 * 60, 59));
        device.push_frames(&drifted).unwrap();

        let stats = device.healing_stats().unwrap();
        assert_eq!(stats.auto_recals, 0, "impossible floor committed: {stats:?}");
        if stats.recal_rollbacks >= 2 {
            assert!(stats.degraded, "strikes exhausted but not degraded: {stats:?}");
            assert!(stats.advisory().is_some());
        }
        assert!(
            stats.recal_rollbacks == 0 || before == device.as_bundle().to_bytes(false),
            "rolled-back recalibration mutated the bundle"
        );
        device.privacy_ledger().assert_no_uplink();
    }

    #[test]
    fn healing_config_in_edge_config_enables_at_deploy() {
        let corpus = SensorDataset::generate(&GeneratorConfig::tiny(), 60);
        let (bundle, _) = CloudInitializer::new(CloudConfig::fast_demo())
            .pretrain(&corpus)
            .unwrap();
        let config = EdgeConfig {
            healing: Some(SelfHealingConfig::default()),
            ..EdgeConfig::default()
        };
        let device = EdgeDevice::deploy(bundle, config).unwrap();
        assert!(device.drift_status().is_some());
        assert_eq!(device.healing_stats().unwrap(), HealingStats::default());
        // Legacy configs (no healing key) still deserialize, defaulting
        // to drift-blind.
        let json = serde_json::to_string(&EdgeConfig::default()).unwrap();
        let stripped = json.replace(",\"healing\":null", "");
        assert_ne!(json, stripped);
        let back: EdgeConfig = serde_json::from_str(&stripped).unwrap();
        assert_eq!(back.healing, None);
    }

    #[test]
    fn bundle_snapshot_roundtrips_through_bytes() {
        let device = deployed_device(15);
        let snapshot = device.as_bundle();
        let bytes = snapshot.to_bytes(false);
        let restored = EdgeBundle::from_bytes(&bytes).unwrap();
        assert_eq!(snapshot, restored);
        // And a new device can be deployed from the snapshot.
        let device2 = EdgeDevice::deploy(restored, EdgeConfig::default()).unwrap();
        assert_eq!(device2.classes(), device.classes());
    }
}
