//! On-device incremental learning and calibration (§3.3).
//!
//! The paper's edge update loop:
//!
//! 1. **Samples recording** — the user records ~20–30 s of a new activity;
//! 2. **Support set update** — the fresh data is folded into the support
//!    set;
//! 3. **Model re-training** — the model is updated on the combined
//!    support set with a joint **contrastive + distillation** objective,
//!    where the teacher is the frozen pre-update model (this is what
//!    holds off catastrophic forgetting);
//!
//! then the NCM prototypes are recomputed in the new embedding space.
//! *Calibration* "mirrors the re-training process, with the distinction
//! that the data for the targeted activity within the support set is
//! replaced with newly acquired data".

use crate::bundle::EdgeBundle;
use crate::embed::BatchEmbedder;
use crate::error::CoreError;
use crate::label::LabelRegistry;
use crate::ncm::NcmClassifier;
use crate::precision::{Precision, ResidentModel};
use crate::support_set::SupportSet;
use crate::version::Lineage;
use crate::Result;
use magneto_dsp::PreprocessingPipeline;
use magneto_nn::trainer::{train_siamese_masked, TrainerConfig, TrainingReport};
use magneto_nn::QuantizedSiamese;
use magneto_tensor::vector::DistanceMetric;
use magneto_tensor::{Matrix, SeededRng};
use serde::{Deserialize, Serialize};

/// Incremental-update configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IncrementalConfig {
    /// Re-training hyper-parameters (defaults to
    /// [`TrainerConfig::edge_update`]: few epochs, distillation on).
    pub trainer: TrainerConfig,
    /// Distance metric for the rebuilt NCM classifier.
    pub metric: DistanceMetric,
    /// Disable the distillation term (A1 ablation).
    pub disable_distillation: bool,
    /// Disable support-set replay: re-train on the fresh recording only,
    /// the naive fine-tuning regime where catastrophic forgetting is at
    /// its worst (A1 ablation). The support set is still *updated* (the
    /// NCM needs prototypes); it is just excluded from the training set.
    pub disable_replay: bool,
    /// Post-training validation thresholds for the transactional update
    /// path ([`ModelState::update_transactional`]). `serde(default)`
    /// keeps configs serialised before this field existed loadable.
    #[serde(default)]
    pub validation: ValidationConfig,
}

impl Default for IncrementalConfig {
    fn default() -> Self {
        IncrementalConfig {
            trainer: TrainerConfig::edge_update(),
            metric: DistanceMetric::Euclidean,
            disable_distillation: false,
            disable_replay: false,
            validation: ValidationConfig::default(),
        }
    }
}

/// Acceptance thresholds a freshly trained state must clear before the
/// transactional update commits it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ValidationConfig {
    /// Minimum post-update accuracy on the *old* classes' own support
    /// exemplars (the cheapest held-back forgetting probe the device
    /// has: data it already stores, classified through the new model).
    /// `<= 0` disables the check. Support exemplars are training data,
    /// so a healthy update scores near 1.0 here — a drop below 0.5 means
    /// the old embedding space collapsed.
    pub self_accuracy_floor: f32,
    /// Maximum allowed ratio of final epoch loss to first epoch loss.
    /// Healthy contrastive updates routinely grow the loss a few-fold
    /// early on (the new class reshapes the pair distribution), so the
    /// default only fires on order-of-magnitude blow-ups. `<= 0`
    /// disables the check.
    pub max_loss_growth: f32,
}

impl Default for ValidationConfig {
    fn default() -> Self {
        ValidationConfig {
            self_accuracy_floor: 0.5,
            max_loss_growth: 10.0,
        }
    }
}

impl ValidationConfig {
    /// All checks except weight/loss finiteness disabled (the finiteness
    /// checks cannot be turned off — committing NaN weights is never
    /// acceptable).
    pub fn permissive() -> Self {
        ValidationConfig {
            self_accuracy_floor: 0.0,
            max_loss_growth: 0.0,
        }
    }
}

/// Why a transactional update refused to commit.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum RollbackReason {
    /// An epoch loss came out NaN/infinite during re-training.
    NonFiniteLoss {
        /// Zero-based epoch of the first non-finite loss.
        epoch: usize,
    },
    /// The trained weights contain a non-finite parameter.
    NonFiniteWeights,
    /// The loss trajectory grew past the configured ratio.
    LossDiverged {
        /// First epoch loss.
        first: f32,
        /// Final epoch loss.
        last: f32,
        /// The configured [`ValidationConfig::max_loss_growth`].
        max_growth: f32,
    },
    /// Old-class self-accuracy fell below the configured floor
    /// (catastrophic forgetting detected).
    SelfAccuracy {
        /// Measured post-update accuracy on old-class exemplars.
        after: f32,
        /// The configured [`ValidationConfig::self_accuracy_floor`].
        floor: f32,
    },
    /// A base-version migration found personalization it cannot
    /// re-derive through the new backbone (a prototype with no stored
    /// support rows to replay).
    MissingReplaySource,
}

impl std::fmt::Display for RollbackReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RollbackReason::NonFiniteLoss { epoch } => {
                write!(f, "non-finite training loss at epoch {epoch}")
            }
            RollbackReason::NonFiniteWeights => write!(f, "non-finite trained weights"),
            RollbackReason::LossDiverged {
                first,
                last,
                max_growth,
            } => write!(
                f,
                "loss diverged: {first} -> {last} (allowed growth {max_growth}x)"
            ),
            RollbackReason::SelfAccuracy { after, floor } => write!(
                f,
                "old-class self-accuracy {after:.3} fell below floor {floor:.3}"
            ),
            RollbackReason::MissingReplaySource => write!(
                f,
                "personalization cannot be replayed (prototype without stored support rows)"
            ),
        }
    }
}

/// Result of a transactional update: either the new state was validated
/// and committed, or the device was rolled back to its exact pre-update
/// state (model, support set, registry and prototypes all restored).
#[derive(Debug, Clone)]
pub enum UpdateOutcome {
    /// The update passed validation; the report describes the training.
    Committed(UpdateReport),
    /// The update failed validation; nothing changed on the device.
    RolledBack {
        /// Which validation gate rejected the trained state.
        reason: RollbackReason,
    },
}

impl UpdateOutcome {
    /// `true` when the update committed.
    pub fn is_committed(&self) -> bool {
        matches!(self, UpdateOutcome::Committed(_))
    }

    /// The training report, when committed.
    pub fn report(&self) -> Option<&UpdateReport> {
        match self {
            UpdateOutcome::Committed(r) => Some(r),
            UpdateOutcome::RolledBack { .. } => None,
        }
    }

    /// The rollback reason, when rolled back.
    pub fn rollback_reason(&self) -> Option<RollbackReason> {
        match self {
            UpdateOutcome::Committed(_) => None,
            UpdateOutcome::RolledBack { reason } => Some(*reason),
        }
    }

    /// Unwrap into the report, converting a rollback into
    /// [`CoreError::UpdateRolledBack`] — for callers that treat a
    /// rollback as a hard failure (scripts, demos).
    ///
    /// # Errors
    /// [`CoreError::UpdateRolledBack`] when the update rolled back.
    pub fn committed(self) -> Result<UpdateReport> {
        match self {
            UpdateOutcome::Committed(r) => Ok(r),
            UpdateOutcome::RolledBack { reason } => Err(CoreError::UpdateRolledBack(reason)),
        }
    }
}

/// What kind of update is requested.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateMode {
    /// Learn a class the model has never seen (§3.3 steps 1–3).
    NewActivity,
    /// Re-calibrate an existing class to this user's style (§3.3, final
    /// paragraph): its support data is *replaced* by the new recording.
    Calibration,
}

/// Outcome of an incremental update.
#[derive(Debug, Clone)]
pub struct UpdateReport {
    /// Training history of the re-training run.
    pub training: TrainingReport,
    /// Classes known after the update.
    pub classes_after: Vec<String>,
    /// Number of freshly recorded feature windows used.
    pub new_windows: usize,
}

/// The full mutable model state living on the Edge device.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelState {
    /// The embedding model at its resident precision.
    pub model: ResidentModel,
    /// Budgeted exemplar store at its resident precision.
    pub support_set: SupportSet,
    /// Class registry.
    pub registry: LabelRegistry,
    /// NCM classifier over current prototypes.
    pub ncm: NcmClassifier,
}

impl ModelState {
    /// Assemble state from bundle components, computing prototypes
    /// *through the resident model* so prototypes and query embeddings
    /// always share one (possibly quantised) embedding space.
    ///
    /// # Errors
    /// Propagates embedding/classifier construction failures.
    pub fn assemble(
        model: impl Into<ResidentModel>,
        support_set: SupportSet,
        registry: LabelRegistry,
        metric: DistanceMetric,
    ) -> Result<Self> {
        let model = model.into();
        let ncm = build_ncm(&model, &support_set, metric)?;
        Ok(ModelState {
            model,
            support_set,
            registry,
            ncm,
        })
    }

    /// Make a validated bundle resident at `precision` — the one path
    /// behind `EdgeDevice::deploy` and the fleet's shared bases. Returns
    /// the state with the bundle's pipeline and lineage.
    ///
    /// # Errors
    /// Propagates validation, conversion and assembly failures.
    pub fn from_bundle(
        bundle: EdgeBundle,
        precision: Precision,
        metric: DistanceMetric,
    ) -> Result<(Self, PreprocessingPipeline, Lineage)> {
        bundle.validate()?;
        let state = ModelState::assemble(
            bundle.model.into_precision(precision)?,
            bundle.support_set.into_precision(precision),
            bundle.registry,
            metric,
        )?;
        Ok((state, bundle.pipeline, bundle.lineage))
    }

    /// Recompute every class prototype in the current embedding space.
    ///
    /// # Errors
    /// Propagates embedding failures.
    pub fn rebuild_prototypes(&mut self) -> Result<()> {
        self.ncm = build_ncm(&self.model, &self.support_set, self.ncm.metric())?;
        Ok(())
    }

    /// Index every support exemplar on the classifier's quantized row
    /// index (DESIGN.md §16): each class's support features are embedded
    /// through the resident model — int8 devices stay in the int8
    /// embedding space — and attached as int8 exemplar rows, so
    /// classification scores each class by its *nearest* exemplar or
    /// prototype instead of the class mean alone. Returns the number of
    /// exemplar rows indexed. Call again after any support-set or
    /// backbone mutation (exemplars are replaced wholesale per class).
    ///
    /// # Errors
    /// Propagates embedding failures.
    pub fn attach_support_exemplars(&mut self) -> Result<usize> {
        let mut embedder = BatchEmbedder::new();
        let mut embeddings = Matrix::default();
        let mut attached = 0;
        for label in self.support_set.classes() {
            if self.ncm.prototype(label).is_none() {
                continue;
            }
            self.support_set
                .class_features_into(label, embedder.staging())?;
            embedder.embed_staged(&self.model, &mut embeddings)?;
            self.ncm.set_class_exemplars(label, &embeddings)?;
            attached += embeddings.rows();
        }
        Ok(attached)
    }

    /// Calibrate an open-set rejection threshold: the given percentile of
    /// within-class distances (each support exemplar's embedding to its
    /// own class prototype), scaled by `margin`. Embeddings farther than
    /// this from *every* prototype are unlike anything the device knows —
    /// the "unknown activity" signal shown before a gesture is taught.
    ///
    /// Support exemplars are training data the contrastive objective has
    /// pulled tightly around the prototypes, so `margin = 1` only accepts
    /// near-replicas of training windows. A margin of 4–7 absorbs the
    /// distribution shift of unseen users/sessions while still rejecting
    /// genuinely novel activities (calibrate on your deployment with
    /// `eval_open_set`).
    ///
    /// # Errors
    /// [`CoreError::InsufficientData`] on an empty support set; embedding
    /// failures are propagated.
    pub fn rejection_threshold(&self, percentile: f32, margin: f32) -> Result<f32> {
        let mut dists = Vec::new();
        let mut embedder = BatchEmbedder::new();
        let mut embeddings = Matrix::default();
        for label in self.support_set.classes() {
            let Some(proto) = self.ncm.prototype(label).map(<[f32]>::to_vec) else {
                continue;
            };
            // One batched forward per class; the embedder's staging matrix
            // and workspace are reused across classes. Distances are
            // measured through the resident model, so an int8 device
            // calibrates its threshold in the int8 embedding space.
            self.support_set
                .class_features_into(label, embedder.staging())?;
            embedder.embed_staged(&self.model, &mut embeddings)?;
            for r in 0..embeddings.rows() {
                dists.push(self.ncm.metric().eval(embeddings.row(r), &proto));
            }
        }
        if dists.is_empty() {
            return Err(CoreError::InsufficientData(
                "no support samples to calibrate a rejection threshold".into(),
            ));
        }
        Ok(magneto_tensor::stats::percentile(&dists, percentile) * margin.max(0.0))
    }

    /// Apply an incremental update with freshly recorded features.
    ///
    /// # Errors
    /// [`CoreError::UnknownClass`] when calibrating a class that does not
    /// exist; [`CoreError::InvalidConfig`] when learning a "new" class
    /// that already exists; [`CoreError::InsufficientData`] on an empty
    /// recording. Training errors are propagated.
    pub fn update(
        &mut self,
        label: &str,
        new_features: &[Vec<f32>],
        mode: UpdateMode,
        config: &IncrementalConfig,
        rng: &mut SeededRng,
    ) -> Result<UpdateReport> {
        if new_features.is_empty() {
            return Err(CoreError::InsufficientData(format!(
                "no recorded windows for `{label}`"
            )));
        }
        match mode {
            UpdateMode::NewActivity => {
                if self.registry.contains(label) {
                    return Err(CoreError::InvalidConfig(format!(
                        "class `{label}` already exists; use calibration"
                    )));
                }
            }
            UpdateMode::Calibration => {
                if !self.registry.contains(label) {
                    return Err(CoreError::UnknownClass(label.to_string()));
                }
            }
        }

        // Training needs f32 gradients: an int8 device rehydrates a
        // full-precision training copy first (the only moment f32
        // weights exist on an int8 deploy) and re-quantises on commit
        // below.
        let committed_precision = self.model.precision();
        if committed_precision == Precision::Int8 {
            self.model = ResidentModel::F32(self.model.to_f32()?);
        }

        // Step 2 — support set update. Both modes end with `label`'s
        // exemplars drawn from the fresh recording; for NewActivity the
        // class simply did not exist before.
        self.registry.get_or_insert(label);
        self.support_set.set_class(label, new_features, rng)?;

        // Step 3 — model re-training. With replay (the paper's method)
        // the training set is the combined support set and the
        // distillation term anchors *old-class* rows to the frozen
        // teacher (the teacher knows nothing about the target class, so
        // anchoring its rows would fight the contrastive term). Without
        // replay (ablation) training sees only the fresh recording and
        // distillation — if enabled — anchors those same rows, LwF-style,
        // as the only remaining link to the old geometry.
        let target_id = self
            .registry
            .id_of(label)
            .ok_or_else(|| CoreError::UnknownClass(label.to_string()))?;
        let (features, labels, distill_mask): (Matrix, Vec<usize>, Vec<bool>) =
            if config.disable_replay {
                let features = Matrix::from_rows(new_features)?;
                let labels = vec![target_id; new_features.len()];
                let mask = vec![true; new_features.len()];
                (features, labels, mask)
            } else {
                let (features, labels) = self.support_set.training_data(&self.registry)?;
                let mask = labels.iter().map(|&l| l != target_id).collect();
                (features, labels, mask)
            };
        // The distillation teacher is the network as training starts: the
        // trainer embeds every training row through it once before the
        // first step (skipped in the no-distillation ablation). On an
        // int8 device that is the dequantised pre-update backbone —
        // exactly the geometry the device has been serving.
        let training = {
            let ResidentModel::F32(net) = &mut self.model else {
                unreachable!("training model rehydrated to f32 above")
            };
            train_siamese_masked(
                net,
                &features,
                &labels,
                !config.disable_distillation,
                Some(&distill_mask),
                &config.trainer,
            )?
        };

        // Commit: an int8 device re-quantises the trained weights
        // (Int8 → F32 → train → Int8 round trip) before prototypes are
        // rebuilt, so prototypes land in the embedding space that will
        // actually serve queries.
        if committed_precision == Precision::Int8 {
            let ResidentModel::F32(net) = &self.model else {
                unreachable!("training model is f32 until commit")
            };
            self.model =
                ResidentModel::Int8(QuantizedSiamese::quantize(net).map_err(CoreError::Nn)?);
        }

        // Prototypes move with the embedding space.
        self.rebuild_prototypes()?;
        Ok(UpdateReport {
            training,
            classes_after: self.registry.labels().to_vec(),
            new_windows: new_features.len(),
        })
    }

    /// [`update`](Self::update) wrapped in a transaction: the pre-update
    /// state is snapshotted, the trained state is validated (finite
    /// losses and weights, bounded loss growth, old-class self-accuracy
    /// floor — see [`ValidationConfig`]), and on any failure the device
    /// is restored to *exactly* its pre-update state and
    /// [`UpdateOutcome::RolledBack`] is returned instead of committing a
    /// poisoned model. This is the path the device API
    /// (`EdgeDevice::learn_new_activity` et al.) runs; the raw `update`
    /// remains available for experiments that study divergence itself.
    ///
    /// # Errors
    /// Precondition errors (unknown/duplicate class, empty recording)
    /// and training I/O errors propagate as before — the state is
    /// restored in those cases too. A *validation* failure is not an
    /// error: it returns `Ok(RolledBack { .. })`.
    pub fn update_transactional(
        &mut self,
        label: &str,
        new_features: &[Vec<f32>],
        mode: UpdateMode,
        config: &IncrementalConfig,
        rng: &mut SeededRng,
    ) -> Result<UpdateOutcome> {
        // Snapshot everything `update` can mutate.
        let model = self.model.clone();
        let support_set = self.support_set.clone();
        let registry = self.registry.clone();
        let ncm = self.ncm.clone();

        let verdict = self
            .update(label, new_features, mode, config, rng)
            .and_then(|report| {
                let gate =
                    self.validate_update(&report, &support_set, label, &config.validation)?;
                Ok((gate, report))
            });
        let outcome = match verdict {
            Ok((None, report)) => return Ok(UpdateOutcome::Committed(report)),
            Ok((Some(reason), _)) => Ok(UpdateOutcome::RolledBack { reason }),
            Err(e) => Err(e),
        };
        self.model = model;
        self.support_set = support_set;
        self.registry = registry;
        self.ncm = ncm;
        outcome
    }

    /// Post-training acceptance gates, in cost order. Returns the first
    /// failed gate, or `None` when the trained state is committable.
    fn validate_update(
        &self,
        report: &UpdateReport,
        pre_support: &SupportSet,
        target: &str,
        validation: &ValidationConfig,
    ) -> Result<Option<RollbackReason>> {
        // Gate 1 — every epoch loss finite. A NaN loss means NaN
        // gradients flowed; the weights are not trustworthy even if they
        // happen to read finite.
        let losses = &report.training.epoch_losses;
        if let Some(epoch) = losses.iter().position(|l| !l.is_finite()) {
            return Ok(Some(RollbackReason::NonFiniteLoss { epoch }));
        }
        // Gate 2 — every committed parameter finite (int8 deploys check
        // their scales/biases).
        if !self.model.all_finite() {
            return Ok(Some(RollbackReason::NonFiniteWeights));
        }
        // Gate 3 — bounded loss trajectory.
        if validation.max_loss_growth > 0.0 {
            if let (Some(&first), Some(&last)) = (losses.first(), losses.last()) {
                if last > first * validation.max_loss_growth {
                    return Ok(Some(RollbackReason::LossDiverged {
                        first,
                        last,
                        max_growth: validation.max_loss_growth,
                    }));
                }
            }
        }
        // Gate 4 — held-back forgetting probe: the old classes' own
        // support exemplars (as they existed *before* the update),
        // classified through the new model and prototypes.
        if validation.self_accuracy_floor > 0.0 {
            let old_classes = pre_support.classes().into_iter().filter(|l| *l != target);
            let accuracy = self_accuracy(&self.model, &self.ncm, old_classes, |label, staging| {
                pre_support.class_features_into(label, staging)?;
                Ok(true)
            })?;
            if let Some(after) = accuracy.filter(|a| *a < validation.self_accuracy_floor) {
                return Ok(Some(RollbackReason::SelfAccuracy {
                    after,
                    floor: validation.self_accuracy_floor,
                }));
            }
        }
        Ok(None)
    }
}

/// The self-accuracy probe behind every commit gate: embed each label's
/// rows through `model` as one batch, classify them with `ncm`, and
/// return the fraction assigned back to their own label — `None` when
/// no row was probed. `stage(label, staging)` writes a label's rows into
/// the embedder's staging matrix and returns `false` to skip the label.
///
/// # Errors
/// Propagates staging, embedding and classification failures.
pub fn self_accuracy<'l>(
    model: &ResidentModel,
    ncm: &NcmClassifier,
    labels: impl IntoIterator<Item = &'l str>,
    mut stage: impl FnMut(&str, &mut Matrix) -> Result<bool>,
) -> Result<Option<f32>> {
    let mut embedder = BatchEmbedder::new();
    let mut embeddings = Matrix::default();
    let mut correct = 0usize;
    let mut total = 0usize;
    for label in labels {
        if !stage(label, embedder.staging())? {
            continue;
        }
        embedder.embed_staged(model, &mut embeddings)?;
        for r in 0..embeddings.rows() {
            if ncm.classify(embeddings.row(r))?.label == label {
                correct += 1;
            }
            total += 1;
        }
    }
    Ok((total > 0).then(|| correct as f32 / total as f32))
}

/// Mission (i) of the support set: class prototypes for the NCM.
///
/// Prototypes are the mean of the *resident* model's embeddings — an
/// int8 device builds them through its int8 forward path, keeping the
/// prototypes, the rejection threshold and every query embedding in one
/// shared space.
fn build_ncm(
    model: &ResidentModel,
    support_set: &SupportSet,
    metric: DistanceMetric,
) -> Result<NcmClassifier> {
    let mut prototypes = Vec::with_capacity(support_set.num_classes());
    let mut embedder = BatchEmbedder::new();
    let mut embeddings = Matrix::default();
    for label in support_set.classes() {
        // All of a class's exemplars go through the backbone as one
        // (n_exemplars, 80) batch, with staging/scratch buffers shared
        // across classes.
        support_set.class_features_into(label, embedder.staging())?;
        embedder.embed_staged(model, &mut embeddings)?;
        let prototype = embeddings.mean_rows()?;
        prototypes.push((label.to_string(), prototype));
    }
    NcmClassifier::new(metric, prototypes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::support_set::SelectionStrategy;
    use magneto_nn::{Mlp, SiameseNetwork};

    /// Features for class `c`: a Gaussian blob around distinct corners.
    fn class_features(c: usize, n: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = SeededRng::new(seed);
        (0..n)
            .map(|_| {
                (0..8)
                    .map(|d| rng.normal_with(if d % 4 == c % 4 { 3.0 } else { 0.0 }, 0.5))
                    .collect()
            })
            .collect()
    }

    fn base_state(seed: u64) -> ModelState {
        let mut rng = SeededRng::new(seed);
        let model = SiameseNetwork::new(Mlp::new(&[8, 16, 8], &mut rng).unwrap(), 1.0);
        let mut support = SupportSet::new(20, SelectionStrategy::Herding);
        let mut srng = SeededRng::new(seed + 1);
        support
            .set_class("walk", &class_features(0, 15, 10), &mut srng)
            .unwrap();
        support
            .set_class("run", &class_features(1, 15, 11), &mut srng)
            .unwrap();
        let registry = LabelRegistry::from_labels(["walk", "run"]);
        ModelState::assemble(model, support, registry, DistanceMetric::Euclidean).unwrap()
    }

    fn fast_config() -> IncrementalConfig {
        IncrementalConfig {
            trainer: TrainerConfig {
                epochs: 6,
                pairs_per_epoch: 128,
                batch_pairs: 32,
                learning_rate: 2e-3,
                distill_weight: 2.0,
                ..TrainerConfig::edge_update()
            },
            ..IncrementalConfig::default()
        }
    }

    #[test]
    fn assemble_builds_prototypes_for_all_classes() {
        let state = base_state(1);
        assert_eq!(state.ncm.num_classes(), 2);
        assert_eq!(state.ncm.dim(), 8);
        assert!(state.ncm.prototype("walk").is_some());
    }

    #[test]
    fn learning_a_new_activity_adds_the_class() {
        let mut state = base_state(2);
        let mut rng = SeededRng::new(3);
        let report = state
            .update(
                "gesture_hi",
                &class_features(2, 12, 12),
                UpdateMode::NewActivity,
                &fast_config(),
                &mut rng,
            )
            .unwrap();
        assert_eq!(
            report.classes_after,
            vec!["walk".to_string(), "run".to_string(), "gesture_hi".to_string()]
        );
        assert_eq!(report.new_windows, 12);
        assert_eq!(state.ncm.num_classes(), 3);
        assert!(state.support_set.samples("gesture_hi").is_some());
        // The new class is recognisable on fresh draws (majority).
        let probes = class_features(2, 10, 13);
        let correct = probes
            .iter()
            .filter(|p| {
                let emb = state.model.embed_one(p).unwrap();
                state.ncm.classify(&emb).unwrap().label == "gesture_hi"
            })
            .count();
        assert!(correct >= 7, "new-class recall {correct}/10");
    }

    #[test]
    fn old_classes_still_recognised_after_update() {
        let mut state = base_state(4);
        let mut rng = SeededRng::new(5);
        state
            .update(
                "jump",
                &class_features(3, 12, 14),
                UpdateMode::NewActivity,
                &fast_config(),
                &mut rng,
            )
            .unwrap();
        // Probe each old class with fresh draws from its distribution.
        let mut correct = 0;
        let mut total = 0;
        for (c, label) in [(0usize, "walk"), (1usize, "run")] {
            for probe in class_features(c, 10, 20 + c as u64) {
                let emb = state.model.embed_one(&probe).unwrap();
                if state.ncm.classify(&emb).unwrap().label == label {
                    correct += 1;
                }
                total += 1;
            }
        }
        let acc = correct as f64 / total as f64;
        assert!(acc >= 0.8, "old-class accuracy after update: {acc}");
    }

    /// `base_state` re-assembled at int8: quantised model + quantised
    /// support exemplars, prototypes built through the int8 forward path.
    fn int8_state(seed: u64) -> ModelState {
        let base = base_state(seed);
        let model = base.model.into_precision(Precision::Int8).unwrap();
        let support = base.support_set.into_precision(Precision::Int8);
        ModelState::assemble(model, support, base.registry, DistanceMetric::Euclidean).unwrap()
    }

    #[test]
    fn int8_prototypes_live_in_the_int8_embedding_space() {
        let state = int8_state(40);
        assert_eq!(state.model.precision(), Precision::Int8);
        let mut embedder = BatchEmbedder::new();
        let mut embeddings = Matrix::default();
        for label in state.support_set.classes() {
            state
                .support_set
                .class_features_into(label, embedder.staging())
                .unwrap();
            embedder.embed_staged(&state.model, &mut embeddings).unwrap();
            let expected = embeddings.mean_rows().unwrap();
            assert_eq!(
                state.ncm.prototype(label).unwrap(),
                expected.as_slice(),
                "prototype for `{label}` must be the int8-model mean"
            );
        }
    }

    #[test]
    fn int8_update_trains_in_f32_and_recommits_int8() {
        let mut state = int8_state(42);
        let mut rng = SeededRng::new(43);
        let report = state
            .update(
                "gesture_hi",
                &class_features(2, 12, 44),
                UpdateMode::NewActivity,
                &fast_config(),
                &mut rng,
            )
            .unwrap();
        // The committed state never keeps f32 weights resident.
        assert_eq!(state.model.precision(), Precision::Int8);
        assert_eq!(state.support_set.precision(), Precision::Int8);
        assert_eq!(report.new_windows, 12);
        assert_eq!(state.ncm.num_classes(), 3);
        // The new class is recognisable through the int8 path (majority).
        let probes = class_features(2, 10, 45);
        let correct = probes
            .iter()
            .filter(|p| {
                let emb = state.model.embed_one(p).unwrap();
                state.ncm.classify(&emb).unwrap().label == "gesture_hi"
            })
            .count();
        assert!(correct >= 7, "int8 new-class recall {correct}/10");
    }

    #[test]
    fn int8_rejection_threshold_calibrates_in_int8_space() {
        let f32_state = base_state(46);
        let int8 = int8_state(46);
        let t_f32 = f32_state.rejection_threshold(95.0, 1.0).unwrap();
        let t_int8 = int8.rejection_threshold(95.0, 1.0).unwrap();
        assert!(t_f32 > 0.0 && t_int8 > 0.0);
        // Same data, different embedding spaces: the calibrated values
        // track each other but need not match bitwise.
        let rel = (t_f32 - t_int8).abs() / t_f32.max(1e-9);
        assert!(rel < 0.5, "thresholds diverged: f32 {t_f32} vs int8 {t_int8}");
    }

    #[test]
    fn new_activity_on_existing_class_rejected() {
        let mut state = base_state(6);
        let mut rng = SeededRng::new(7);
        assert!(matches!(
            state.update(
                "walk",
                &class_features(0, 5, 15),
                UpdateMode::NewActivity,
                &fast_config(),
                &mut rng,
            ),
            Err(CoreError::InvalidConfig(_))
        ));
    }

    #[test]
    fn calibration_requires_existing_class() {
        let mut state = base_state(8);
        let mut rng = SeededRng::new(9);
        assert!(matches!(
            state.update(
                "yoga",
                &class_features(0, 5, 16),
                UpdateMode::Calibration,
                &fast_config(),
                &mut rng,
            ),
            Err(CoreError::UnknownClass(_))
        ));
    }

    #[test]
    fn calibration_replaces_support_data() {
        let mut state = base_state(10);
        let mut rng = SeededRng::new(11);
        // The user's personal "walk" lives in a shifted region.
        let personal = class_features(3, 12, 17);
        state
            .update(
                "walk",
                &personal,
                UpdateMode::Calibration,
                &fast_config(),
                &mut rng,
            )
            .unwrap();
        // Support exemplars for walk are now from the personal recording.
        let stored = state.support_set.samples("walk").unwrap();
        assert!(stored.iter().all(|s| personal.contains(s)));
        // Class count unchanged.
        assert_eq!(state.ncm.num_classes(), 2);
    }

    #[test]
    fn empty_recording_rejected() {
        let mut state = base_state(12);
        let mut rng = SeededRng::new(13);
        assert!(matches!(
            state.update(
                "x",
                &[],
                UpdateMode::NewActivity,
                &fast_config(),
                &mut rng
            ),
            Err(CoreError::InsufficientData(_))
        ));
    }

    #[test]
    fn distillation_limits_embedding_drift() {
        let mut with = base_state(14);
        let mut without = base_state(14);
        // Fix the comparison set: the *old-class* support features as they
        // exist before the update, embedded by the pre-update model.
        let (old_features, _) = with.support_set.training_data(&with.registry).unwrap();
        let teacher_emb = with.model.embed(&old_features).unwrap();
        let new_data = class_features(2, 12, 18);
        let mut rng_a = SeededRng::new(15);
        let mut rng_b = SeededRng::new(15);
        let cfg = fast_config();
        let cfg_no_distill = IncrementalConfig {
            disable_distillation: true,
            ..cfg
        };
        with.update("g", &new_data, UpdateMode::NewActivity, &cfg, &mut rng_a)
            .unwrap();
        without
            .update("g", &new_data, UpdateMode::NewActivity, &cfg_no_distill, &mut rng_b)
            .unwrap();
        let drift = |state: &ModelState| {
            state
                .model
                .embed(&old_features)
                .unwrap()
                .sub(&teacher_emb)
                .unwrap()
                .frobenius_norm()
        };
        let d_with = drift(&with);
        let d_without = drift(&without);
        assert!(
            d_with < d_without,
            "distilled drift {d_with} should be below undistilled {d_without}"
        );
    }

    #[test]
    fn no_replay_fine_tuning_drifts_more_than_magneto() {
        // Mechanism check for the A1 ablation: training on the new
        // recording alone (no replay, no distillation) lets the old
        // classes' embeddings drift far more than the full MAGNETO update
        // (replay + distillation). The accuracy-level consequences are
        // exercised at system scale by `eval_forgetting`.
        let base = base_state(20);
        let (old_features, _) = base.support_set.training_data(&base.registry).unwrap();
        let before = base.model.embed(&old_features).unwrap();
        let drift = |state: &ModelState| {
            state
                .model
                .embed(&old_features)
                .unwrap()
                .sub(&before)
                .unwrap()
                .frobenius_norm()
        };
        let new_data = class_features(2, 12, 41);
        let mut cfg = fast_config();
        cfg.trainer.epochs = 20;
        cfg.trainer.learning_rate = 4e-3;

        let mut magneto = base.clone();
        let mut rng = SeededRng::new(21);
        magneto
            .update("g", &new_data, UpdateMode::NewActivity, &cfg, &mut rng)
            .unwrap();

        let mut naive = base.clone();
        let naive_cfg = IncrementalConfig {
            disable_replay: true,
            disable_distillation: true,
            ..cfg
        };
        let mut rng2 = SeededRng::new(21);
        naive
            .update("g", &new_data, UpdateMode::NewActivity, &naive_cfg, &mut rng2)
            .unwrap();

        let d_magneto = drift(&magneto);
        let d_naive = drift(&naive);
        assert!(
            d_naive > d_magneto,
            "naive drift {d_naive} should exceed magneto drift {d_magneto}"
        );
        // Both still know all three classes.
        assert_eq!(naive.ncm.num_classes(), 3);
        assert_eq!(magneto.ncm.num_classes(), 3);
    }

    #[test]
    fn cloned_state_updates_identically() {
        // A state that has already run an update and its clone hold no
        // hidden scratch between them: the next update must produce
        // bit-identical results on both.
        let mut warm = base_state(50);
        let cfg = fast_config();
        let mut rng = SeededRng::new(51);
        warm.update(
            "g1",
            &class_features(2, 10, 52),
            UpdateMode::NewActivity,
            &cfg,
            &mut rng,
        )
        .unwrap();
        let mut cold = warm.clone();
        assert_eq!(warm, cold);
        let data = class_features(3, 10, 54);
        let mut rng_w = SeededRng::new(53);
        let mut rng_c = SeededRng::new(53);
        warm.update("g2", &data, UpdateMode::NewActivity, &cfg, &mut rng_w)
            .unwrap();
        cold.update("g2", &data, UpdateMode::NewActivity, &cfg, &mut rng_c)
            .unwrap();
        assert_eq!(warm, cold);
        assert_eq!(warm.ncm.num_classes(), 4);
    }

    #[test]
    fn repeated_updates_accumulate_classes() {
        let mut state = base_state(16);
        let mut rng = SeededRng::new(17);
        let mut cfg = fast_config();
        cfg.trainer.epochs = 3;
        for (i, label) in ["a", "b", "c"].iter().enumerate() {
            state
                .update(
                    label,
                    &class_features(i + 2, 10, 30 + i as u64),
                    UpdateMode::NewActivity,
                    &cfg,
                    &mut rng,
                )
                .unwrap();
        }
        assert_eq!(state.ncm.num_classes(), 5);
        assert_eq!(state.registry.len(), 5);
        assert_eq!(state.support_set.num_classes(), 5);
    }

    #[test]
    fn transactional_commit_matches_raw_update() {
        let mut raw = base_state(60);
        let mut txn = raw.clone();
        let data = class_features(2, 10, 61);
        let cfg = fast_config();
        let mut rng_raw = SeededRng::new(62);
        let mut rng_txn = SeededRng::new(62);
        raw.update("g", &data, UpdateMode::NewActivity, &cfg, &mut rng_raw)
            .unwrap();
        let outcome = txn
            .update_transactional("g", &data, UpdateMode::NewActivity, &cfg, &mut rng_txn)
            .unwrap();
        assert!(outcome.is_committed());
        assert_eq!(outcome.report().unwrap().classes_after.len(), 3);
        // A committed transactional update is bit-identical to the raw path.
        assert_eq!(raw, txn);
    }

    #[test]
    fn impossible_accuracy_floor_rolls_back_to_exact_pre_state() {
        let mut state = base_state(63);
        let before = state.clone();
        let mut cfg = fast_config();
        cfg.validation.self_accuracy_floor = 1.5; // unattainable
        let mut rng = SeededRng::new(64);
        let outcome = state
            .update_transactional(
                "g",
                &class_features(2, 10, 65),
                UpdateMode::NewActivity,
                &cfg,
                &mut rng,
            )
            .unwrap();
        assert!(matches!(
            outcome.rollback_reason(),
            Some(RollbackReason::SelfAccuracy { .. })
        ));
        assert_eq!(state, before);
        // The typed error path reports the same reason.
        let err = outcome.committed().unwrap_err();
        assert!(matches!(err, CoreError::UpdateRolledBack(_)));
        assert!(err.to_string().contains("rolled back"));
    }

    #[test]
    fn loss_growth_gate_rolls_back() {
        let mut state = base_state(66);
        let before = state.clone();
        let mut cfg = fast_config();
        // Any epoch whose final loss exceeds first*1e-6 counts as divergence,
        // which real contrastive training cannot avoid.
        cfg.validation.max_loss_growth = 1e-6;
        let mut rng = SeededRng::new(67);
        let outcome = state
            .update_transactional(
                "g",
                &class_features(2, 10, 68),
                UpdateMode::NewActivity,
                &cfg,
                &mut rng,
            )
            .unwrap();
        assert!(matches!(
            outcome.rollback_reason(),
            Some(RollbackReason::LossDiverged { .. })
        ));
        assert_eq!(state, before);
    }

    #[test]
    fn training_error_still_restores_pre_state() {
        let mut state = base_state(69);
        let before = state.clone();
        let mut cfg = fast_config();
        // An absurd learning rate makes the trainer itself abort with
        // `Diverged`; the transaction must still restore the snapshot.
        cfg.trainer.learning_rate = 1e9;
        let mut rng = SeededRng::new(70);
        let result = state.update_transactional(
            "g",
            &class_features(2, 10, 71),
            UpdateMode::NewActivity,
            &cfg,
            &mut rng,
        );
        assert!(result.is_err());
        assert_eq!(state, before);
    }

    #[test]
    fn permissive_validation_never_rolls_back() {
        let mut state = base_state(72);
        let mut cfg = fast_config();
        cfg.validation = ValidationConfig::permissive();
        let mut rng = SeededRng::new(73);
        let outcome = state
            .update_transactional(
                "g",
                &class_features(2, 10, 74),
                UpdateMode::NewActivity,
                &cfg,
                &mut rng,
            )
            .unwrap();
        assert!(outcome.is_committed());
    }

    #[test]
    fn pre_validation_configs_deserialize_with_default_gates() {
        // Configs serialized before the validation field existed must load.
        let serialized = serde_json::to_string(&IncrementalConfig::default()).unwrap();
        let marker = ",\"validation\":";
        let start = serialized.find(marker).expect("validation key present");
        let end = serialized[start + 1..]
            .find('}')
            .map(|i| start + 1 + i + 1)
            .expect("validation object closes");
        let stripped = format!("{}{}", &serialized[..start], &serialized[end..]);
        let cfg: IncrementalConfig = serde_json::from_str(&stripped).unwrap();
        assert_eq!(cfg.validation, ValidationConfig::default());
    }
}
