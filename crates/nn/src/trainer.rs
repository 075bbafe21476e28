//! Epoch-level training loop with divergence guards and loss history.
//!
//! Used for both Cloud pre-training (many epochs, no distillation) and
//! on-device incremental updates (few epochs, distillation towards the
//! pre-update network, distillation weight > 0).

use crate::error::NnError;
use crate::optimizer::{Adam, Optimizer};
use crate::pairs::{sample_balanced_batch, sample_pairs};
use crate::siamese::{SiameseNetwork, TrainScratch};
use crate::Result;
use magneto_tensor::{Matrix, SeededRng};
use serde::{Deserialize, Serialize};

/// Which contrastive objective the Siamese training loop optimises.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum Objective {
    /// Pairwise (Hadsell–Chopra) contrastive loss on sampled pairs — the
    /// classic Siamese formulation and the default.
    #[default]
    Pairwise,
    /// Supervised contrastive (Khosla et al. \[9\]) on class-balanced
    /// batches of L2-normalised embeddings.
    SupCon {
        /// Softmax temperature τ (0.1–0.5 is typical).
        temperature: f32,
    },
}

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainerConfig {
    /// Number of passes over the pair budget.
    pub epochs: usize,
    /// Pairs sampled per epoch.
    pub pairs_per_epoch: usize,
    /// Pairs per optimisation step.
    pub batch_pairs: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Multiplicative LR decay applied after each epoch.
    pub lr_decay: f32,
    /// Weight of the distillation term (0 disables it even when
    /// distillation is requested).
    pub distill_weight: f32,
    /// Gradient clipping threshold (0 disables).
    pub grad_clip: f32,
    /// Seed for pair sampling.
    pub seed: u64,
    /// Contrastive objective.
    pub objective: Objective,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        TrainerConfig {
            epochs: 20,
            pairs_per_epoch: 2048,
            batch_pairs: 128,
            learning_rate: 1e-3,
            lr_decay: 0.97,
            distill_weight: 0.0,
            grad_clip: 5.0,
            seed: 0,
            objective: Objective::Pairwise,
        }
    }
}

impl TrainerConfig {
    /// Configuration shaped like on-device incremental updates: few
    /// epochs, smaller batches, distillation enabled.
    pub fn edge_update() -> Self {
        TrainerConfig {
            epochs: 8,
            pairs_per_epoch: 512,
            batch_pairs: 64,
            learning_rate: 5e-4,
            lr_decay: 0.95,
            distill_weight: 4.0,
            grad_clip: 5.0,
            seed: 0,
            objective: Objective::Pairwise,
        }
    }
}

/// Outcome of a training run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainingReport {
    /// Mean total loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// Mean contrastive loss per epoch.
    pub contrastive_losses: Vec<f32>,
    /// Mean (weighted) distillation loss per epoch.
    pub distillation_losses: Vec<f32>,
    /// Epochs actually run.
    pub epochs_run: usize,
    /// Total optimisation steps taken.
    pub steps: usize,
}

impl TrainingReport {
    /// Final epoch's mean loss, `None` when no epoch ran.
    ///
    /// Callers that want a printable value can
    /// `.unwrap_or(f32::NAN)`; forcing the `Option` through the API
    /// keeps "zero epochs" from masquerading as a numeric loss.
    pub fn final_loss(&self) -> Option<f32> {
        self.epoch_losses.last().copied()
    }
}

/// Train a Siamese network on labelled feature rows.
///
/// `distill` enables the joint contrastive + distillation objective used
/// for edge updates (§3.3): the teacher is `net` as passed in, the frozen
/// pre-update backbone. Its embedding of every training row is computed
/// once, before the first step, and each step gathers its rows from that
/// table — no copy of the teacher's weights is kept.
///
/// # Errors
/// [`NnError::InvalidBatch`] on empty/misaligned data,
/// [`NnError::Diverged`] if the loss or weights go non-finite.
pub fn train_siamese(
    net: &mut SiameseNetwork,
    features: &Matrix,
    labels: &[usize],
    distill: bool,
    config: &TrainerConfig,
) -> Result<TrainingReport> {
    train_siamese_masked(net, features, labels, distill, None, config)
}

/// [`train_siamese`] with a per-sample distillation mask (see
/// [`SiameseNetwork::train_step_masked`]): only rows where
/// `distill_mask[r]` is `true` are anchored to the teacher. Incremental
/// learning passes the old-class rows here.
///
/// # Errors
/// As [`train_siamese`], plus an invalid mask length.
pub fn train_siamese_masked(
    net: &mut SiameseNetwork,
    features: &Matrix,
    labels: &[usize],
    distill: bool,
    distill_mask: Option<&[bool]>,
    config: &TrainerConfig,
) -> Result<TrainingReport> {
    // One scratch arena for the whole run: after the first step warms it,
    // every later step reuses the same buffers (see TrainScratch). The
    // default scratch runs on the process-wide execution context, so an
    // installed multi-threaded plan parallelises this loop automatically.
    let mut scratch = TrainScratch::new();
    train_siamese_masked_with(net, features, labels, distill, distill_mask, config, &mut scratch)
}

/// [`train_siamese_masked`] drawing every temporary from a caller-owned
/// [`TrainScratch`]. The scratch also fixes the execution context
/// (kernel plan + thread pool) the GEMMs run on — results are
/// bit-identical at any thread count, so context choice is purely a
/// throughput decision.
///
/// # Errors
/// As [`train_siamese_masked`].
pub fn train_siamese_masked_with(
    net: &mut SiameseNetwork,
    features: &Matrix,
    labels: &[usize],
    distill: bool,
    distill_mask: Option<&[bool]>,
    config: &TrainerConfig,
    scratch: &mut TrainScratch,
) -> Result<TrainingReport> {
    if features.rows() != labels.len() || features.rows() == 0 {
        return Err(NnError::InvalidBatch(format!(
            "{} feature rows vs {} labels",
            features.rows(),
            labels.len()
        )));
    }
    let mut rng = SeededRng::new(config.seed);
    let mut optimizer = Adam::new(config.learning_rate);
    let mut report = TrainingReport {
        epoch_losses: Vec::with_capacity(config.epochs),
        contrastive_losses: Vec::with_capacity(config.epochs),
        distillation_losses: Vec::with_capacity(config.epochs),
        epochs_run: 0,
        steps: 0,
    };
    // The teacher table: every training row embedded once through the
    // pre-update network, in chunks no larger than one step's batch so
    // the scratch workspace does not grow.
    let step_rows = match config.objective {
        Objective::Pairwise => 2 * config.batch_pairs.max(1),
        Objective::SupCon { .. } => config.batch_pairs.max(2),
    };
    let mut table = Matrix::default();
    let teacher_arg = if distill && config.distill_weight > 0.0 {
        net.embed_chunked_into(features, step_rows, &mut table, scratch)?;
        Some((&table, config.distill_weight))
    } else {
        None
    };
    for epoch in 0..config.epochs {
        let mut epoch_total = 0.0f32;
        let mut epoch_contrastive = 0.0f32;
        let mut epoch_distill = 0.0f32;
        let mut batches = 0usize;
        let mut run_step = |loss: crate::siamese::StepLoss,
                            batches: &mut usize,
                            steps: &mut usize| {
            epoch_total += loss.total();
            epoch_contrastive += loss.contrastive;
            epoch_distill += loss.distillation;
            *batches += 1;
            *steps += 1;
        };
        match config.objective {
            Objective::Pairwise => {
                let pairs = sample_pairs(labels, config.pairs_per_epoch, &mut rng);
                if pairs.is_empty() {
                    return Err(NnError::InvalidBatch(
                        "no trainable pairs (single sample?)".into(),
                    ));
                }
                for chunk in pairs.chunks(config.batch_pairs.max(1)) {
                    let loss = net.train_step_masked_with(
                        features,
                        chunk,
                        &mut optimizer,
                        teacher_arg,
                        distill_mask,
                        config.grad_clip,
                        scratch,
                    )?;
                    run_step(loss, &mut batches, &mut report.steps);
                }
            }
            Objective::SupCon { temperature } => {
                let batch_size = config.batch_pairs.max(2);
                let steps_per_epoch =
                    (config.pairs_per_epoch / batch_size).max(1);
                for _ in 0..steps_per_epoch {
                    let batch = sample_balanced_batch(labels, batch_size, &mut rng);
                    if batch.is_empty() {
                        return Err(NnError::InvalidBatch("no samples to batch".into()));
                    }
                    let loss = net.train_step_supcon_with(
                        features,
                        labels,
                        &batch,
                        &mut optimizer,
                        teacher_arg,
                        distill_mask,
                        temperature,
                        config.grad_clip,
                        scratch,
                    )?;
                    run_step(loss, &mut batches, &mut report.steps);
                }
            }
        }
        let denom = batches.max(1) as f32;
        let mean_loss = epoch_total / denom;
        if !mean_loss.is_finite() || !net.backbone().all_finite() {
            return Err(NnError::Diverged { epoch });
        }
        report.epoch_losses.push(mean_loss);
        report.contrastive_losses.push(epoch_contrastive / denom);
        report.distillation_losses.push(epoch_distill / denom);
        report.epochs_run += 1;
        optimizer.set_learning_rate(optimizer.learning_rate() * config.lr_decay);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Mlp;

    fn blobs(n_per_class: usize, classes: usize, dim: usize, sep: f32, seed: u64) -> (Matrix, Vec<usize>) {
        let mut rng = SeededRng::new(seed);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for c in 0..classes {
            for _ in 0..n_per_class {
                let row: Vec<f32> = (0..dim)
                    .map(|d| rng.normal_with(if d % classes == c { sep } else { 0.0 }, 1.0))
                    .collect();
                rows.push(row);
                labels.push(c);
            }
        }
        (Matrix::from_rows(&rows).unwrap(), labels)
    }

    fn small_net(seed: u64) -> SiameseNetwork {
        let mut rng = SeededRng::new(seed);
        SiameseNetwork::new(Mlp::new(&[6, 16, 8], &mut rng).unwrap(), 1.0)
    }

    fn fast_config() -> TrainerConfig {
        TrainerConfig {
            epochs: 10,
            pairs_per_epoch: 128,
            batch_pairs: 32,
            learning_rate: 3e-3,
            ..TrainerConfig::default()
        }
    }

    #[test]
    fn loss_decreases_over_epochs() {
        let (features, labels) = blobs(20, 3, 6, 2.5, 1);
        let mut net = small_net(2);
        let report = train_siamese(&mut net, &features, &labels, false, &fast_config()).unwrap();
        assert_eq!(report.epochs_run, 10);
        assert_eq!(report.epoch_losses.len(), 10);
        assert!(
            report.final_loss().unwrap() < report.epoch_losses[0] * 0.7,
            "losses: {:?}",
            report.epoch_losses
        );
        assert!(report.steps >= 10 * 4);
        // No teacher -> zero distillation loss throughout.
        assert!(report.distillation_losses.iter().all(|&l| l == 0.0));
    }

    #[test]
    fn distillation_losses_recorded_with_teacher() {
        let (features, labels) = blobs(15, 2, 6, 2.0, 3);
        let mut net = small_net(4);
        let config = TrainerConfig {
            distill_weight: 1.0,
            ..fast_config()
        };
        let report =
            train_siamese(&mut net, &features, &labels, true, &config).unwrap();
        assert!(report.distillation_losses.iter().any(|&l| l > 0.0));
        // Contrastive + distillation == total (per epoch).
        for i in 0..report.epochs_run {
            let sum = report.contrastive_losses[i] + report.distillation_losses[i];
            assert!((sum - report.epoch_losses[i]).abs() < 1e-4);
        }
    }

    #[test]
    fn rejects_misaligned_inputs() {
        let (features, mut labels) = blobs(5, 2, 6, 1.0, 6);
        labels.pop();
        let mut net = small_net(7);
        assert!(matches!(
            train_siamese(&mut net, &features, &labels, false, &fast_config()),
            Err(NnError::InvalidBatch(_))
        ));
        let empty = Matrix::zeros(0, 6);
        assert!(train_siamese(&mut net, &empty, &[], false, &fast_config()).is_err());
    }

    #[test]
    fn divergence_is_detected() {
        // A NaN feature (corrupt sensor input that slipped past the
        // extractor) must abort training with `Diverged`, never silently
        // produce a NaN model.
        let (mut features, labels) = blobs(10, 2, 6, 2.0, 8);
        features.set(3, 2, f32::NAN);
        let mut net = small_net(9);
        let result = train_siamese(&mut net, &features, &labels, false, &fast_config());
        assert!(
            matches!(result, Err(NnError::Diverged { epoch: 0 })),
            "expected divergence, got {result:?}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let (features, labels) = blobs(10, 2, 6, 2.0, 10);
        let mut a = small_net(11);
        let mut b = small_net(11);
        let ra = train_siamese(&mut a, &features, &labels, false, &fast_config()).unwrap();
        let rb = train_siamese(&mut b, &features, &labels, false, &fast_config()).unwrap();
        assert_eq!(ra.epoch_losses, rb.epoch_losses);
        assert_eq!(a, b);
    }

    #[test]
    fn edge_update_preset_is_distilled() {
        let cfg = TrainerConfig::edge_update();
        assert!(cfg.distill_weight > 0.0);
        assert!(cfg.epochs < TrainerConfig::default().epochs);
    }

    #[test]
    fn supcon_objective_trains_and_separates() {
        let (features, labels) = blobs(20, 3, 6, 2.5, 30);
        let mut net = small_net(31);
        let config = TrainerConfig {
            objective: Objective::SupCon { temperature: 0.3 },
            learning_rate: 2e-3,
            ..fast_config()
        };
        let report = train_siamese(&mut net, &features, &labels, false, &config).unwrap();
        assert_eq!(report.epochs_run, config.epochs);
        assert!(
            report.final_loss().unwrap() < report.epoch_losses[0],
            "losses {:?}",
            report.epoch_losses
        );
        // Embeddings separate by class (cosine, since SupCon normalises).
        let emb = net.embed(&features).unwrap();
        let mut within = 0.0f32;
        let mut across = 0.0f32;
        let mut wn = 0;
        let mut an = 0;
        for i in 0..labels.len() {
            for j in (i + 1)..labels.len() {
                let d = magneto_tensor::vector::cosine_distance(emb.row(i), emb.row(j));
                if labels[i] == labels[j] {
                    within += d;
                    wn += 1;
                } else {
                    across += d;
                    an += 1;
                }
            }
        }
        let within = within / wn as f32;
        let across = across / an as f32;
        assert!(
            across > within * 1.5,
            "within {within}, across {across}"
        );
    }

    #[test]
    fn supcon_with_teacher_records_distillation() {
        let (features, labels) = blobs(10, 2, 6, 2.0, 32);
        let mut net = small_net(33);
        let config = TrainerConfig {
            objective: Objective::SupCon { temperature: 0.3 },
            distill_weight: 1.0,
            epochs: 4,
            ..fast_config()
        };
        let report =
            train_siamese(&mut net, &features, &labels, true, &config).unwrap();
        assert!(report.distillation_losses.iter().any(|&l| l > 0.0));
    }

    #[test]
    fn empty_report_final_loss_is_none() {
        let r = TrainingReport {
            epoch_losses: vec![],
            contrastive_losses: vec![],
            distillation_losses: vec![],
            epochs_run: 0,
            steps: 0,
        };
        assert_eq!(r.final_loss(), None);
    }

    #[test]
    fn final_loss_is_last_epoch_mean() {
        let r = TrainingReport {
            epoch_losses: vec![0.9, 0.4, 0.25],
            contrastive_losses: vec![0.9, 0.4, 0.25],
            distillation_losses: vec![0.0, 0.0, 0.0],
            epochs_run: 3,
            steps: 12,
        };
        assert_eq!(r.final_loss(), Some(0.25));
    }

    #[test]
    fn external_scratch_matches_internal_path_bitwise() {
        let (features, labels) = blobs(10, 2, 6, 2.0, 40);
        let mut a = small_net(41);
        let mut b = small_net(41);
        let ra =
            train_siamese_masked(&mut a, &features, &labels, false, None, &fast_config()).unwrap();
        let mut scratch = TrainScratch::with_exec(magneto_tensor::Exec::inline());
        let rb = train_siamese_masked_with(
            &mut b,
            &features,
            &labels,
            false,
            None,
            &fast_config(),
            &mut scratch,
        )
        .unwrap();
        assert_eq!(ra.epoch_losses, rb.epoch_losses);
        assert_eq!(a, b);
    }
}
