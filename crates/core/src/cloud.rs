//! Cloud Initialization (the paper's offline step, §3.2).
//!
//! "To empower MAGNETO with the best possible initial model … A neural
//! network is built from the pre-processed data, targeting the prediction
//! of existing activities, embedded in the system as an initialization
//! step." The initializer:
//!
//! 1. fits the pre-processing function's normaliser over the corpus;
//! 2. extracts 80-feature vectors for every window;
//! 3. trains the Siamese embedding network with contrastive loss;
//! 4. selects a budgeted support set per class;
//! 5. packages everything into an [`EdgeBundle`].
//!
//! No user data is involved: the corpus is the (simulated) open
//! collection-campaign data.

use crate::bundle::EdgeBundle;
use crate::error::CoreError;
use crate::label::LabelRegistry;
use crate::support_set::{SelectionStrategy, SupportSet};
use crate::version::Lineage;
use crate::Result;
use magneto_dsp::{PipelineConfig, PreprocessingPipeline};
use magneto_nn::trainer::{train_siamese, TrainerConfig, TrainingReport};
use magneto_nn::{Mlp, SiameseNetwork};
use magneto_sensors::SensorDataset;
use magneto_tensor::{Matrix, SeededRng};
use serde::{Deserialize, Serialize};

/// Cloud-side configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CloudConfig {
    /// Backbone layer widths (input first). The paper's default is
    /// `[80, 1024, 512, 128, 64, 128]`.
    pub backbone_dims: Vec<usize>,
    /// Contrastive margin.
    pub margin: f32,
    /// Pre-training hyper-parameters.
    pub trainer: TrainerConfig,
    /// Pre-processing configuration.
    pub pipeline: PipelineConfig,
    /// Support-set budget per class (paper: 200).
    pub support_budget: usize,
    /// Exemplar selection strategy.
    pub selection: SelectionStrategy,
    /// Master seed for weight init and selection.
    pub seed: u64,
}

impl Default for CloudConfig {
    fn default() -> Self {
        CloudConfig {
            backbone_dims: magneto_nn::PAPER_BACKBONE.to_vec(),
            margin: 1.0,
            trainer: TrainerConfig::default(),
            pipeline: PipelineConfig::default(),
            support_budget: 200,
            selection: SelectionStrategy::Herding,
            seed: 0,
        }
    }
}

impl CloudConfig {
    /// A small configuration for tests and quick demos: narrow backbone,
    /// few epochs, small support budget. Same code paths, seconds not
    /// minutes.
    pub fn fast_demo() -> Self {
        CloudConfig {
            backbone_dims: vec![80, 64, 32],
            margin: 1.0,
            trainer: TrainerConfig {
                epochs: 12,
                pairs_per_epoch: 512,
                batch_pairs: 64,
                learning_rate: 2e-3,
                ..TrainerConfig::default()
            },
            pipeline: PipelineConfig::default(),
            support_budget: 20,
            selection: SelectionStrategy::Herding,
            seed: 0,
        }
    }
}

/// Outcome of Cloud initialisation.
#[derive(Debug, Clone)]
pub struct CloudInitReport {
    /// Training history.
    pub training: TrainingReport,
    /// Windows used for pre-training.
    pub windows_used: usize,
    /// Classes learned.
    pub classes: Vec<String>,
}

/// The Cloud initialiser.
#[derive(Debug, Clone)]
pub struct CloudInitializer {
    config: CloudConfig,
}

impl CloudInitializer {
    /// Create with a configuration.
    pub fn new(config: CloudConfig) -> Self {
        CloudInitializer { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &CloudConfig {
        &self.config
    }

    /// Run the full offline step over a labelled corpus, producing the
    /// deployable bundle (stamped as the root version, v1) and a
    /// training report.
    ///
    /// # Errors
    /// [`CoreError::InsufficientData`] for an empty corpus; training and
    /// pre-processing errors are propagated.
    pub fn pretrain(&self, corpus: &SensorDataset) -> Result<(EdgeBundle, CloudInitReport)> {
        if corpus.is_empty() {
            return Err(CoreError::InsufficientData("empty pre-training corpus".into()));
        }

        // 1. Fit the pre-processing function.
        let mut pipeline = PreprocessingPipeline::new(self.config.pipeline);
        let window_refs: Vec<&[Vec<f32>]> = corpus
            .windows
            .iter()
            .map(|w| w.channels.as_slice())
            .collect();
        pipeline.fit_normalizer(&window_refs)?;

        // 2. Featurise the corpus.
        let registry = LabelRegistry::from_labels(corpus.classes());
        let (features, labels) = featurize(&pipeline, corpus, &registry)?;

        // 3. Train the Siamese embedding network.
        let mut rng = SeededRng::new(self.config.seed);
        let backbone = Mlp::new(&self.config.backbone_dims, &mut rng.split("weights"))?;
        let mut model = SiameseNetwork::new(backbone, self.config.margin);
        let training = train_siamese(&mut model, &features, &labels, false, &self.config.trainer)?;

        // 4. Select the support set.
        let mut support_set = SupportSet::new(self.config.support_budget, self.config.selection);
        let mut selection_rng = rng.split("selection");
        for (id, label) in registry.labels().iter().enumerate() {
            let class_rows: Vec<Vec<f32>> = labels
                .iter()
                .zip(0..features.rows())
                .filter(|(&l, _)| l == id)
                .map(|(_, r)| features.row(r).to_vec())
                .collect();
            support_set.set_class(label, &class_rows, &mut selection_rng)?;
        }

        // 5. Package.
        let bundle = EdgeBundle {
            pipeline,
            model,
            support_set,
            registry: registry.clone(),
            lineage: Lineage::root(1),
        };
        bundle.validate()?;
        Ok((
            bundle,
            CloudInitReport {
                training,
                windows_used: corpus.len(),
                classes: registry.labels().to_vec(),
            },
        ))
    }
}

/// Run every window of a dataset through the pipeline, producing a
/// feature matrix and integer labels. Shared by Cloud initialisation and
/// all evaluation harnesses.
///
/// # Errors
/// Pre-processing errors and unknown labels are propagated.
pub fn featurize(
    pipeline: &PreprocessingPipeline,
    dataset: &SensorDataset,
    registry: &LabelRegistry,
) -> Result<(Matrix, Vec<usize>)> {
    let mut rows = Vec::with_capacity(dataset.len());
    let mut labels = Vec::with_capacity(dataset.len());
    for w in &dataset.windows {
        let id = registry
            .id_of(&w.label)
            .ok_or_else(|| CoreError::UnknownClass(w.label.clone()))?;
        rows.push(pipeline.process(&w.channels)?);
        labels.push(id);
    }
    Ok((Matrix::from_rows(&rows)?, labels))
}

#[cfg(test)]
mod tests {
    use super::*;
    use magneto_sensors::GeneratorConfig;

    fn tiny_corpus(seed: u64) -> SensorDataset {
        SensorDataset::generate(&GeneratorConfig::tiny(), seed)
    }

    #[test]
    fn pretrain_produces_consistent_bundle() {
        let corpus = tiny_corpus(1);
        let init = CloudInitializer::new(CloudConfig::fast_demo());
        let (bundle, report) = init.pretrain(&corpus).unwrap();
        assert!(bundle.validate().is_ok());
        assert_eq!(report.windows_used, corpus.len());
        assert_eq!(
            report.classes,
            vec!["drive", "e_scooter", "run", "still", "walk"]
        );
        assert_eq!(bundle.support_set.num_classes(), 5);
        assert_eq!(bundle.registry.len(), 5);
        assert_eq!(bundle.model.backbone().input_dim(), 80);
        // The fast-demo run must actually have learned something.
        assert!(report.training.epochs_run > 0);
        assert!(report.training.final_loss().unwrap() < report.training.epoch_losses[0]);
    }

    #[test]
    fn support_budget_respected() {
        let corpus = tiny_corpus(2);
        let mut config = CloudConfig::fast_demo();
        config.support_budget = 4;
        config.trainer.epochs = 2;
        let (bundle, _) = CloudInitializer::new(config).pretrain(&corpus).unwrap();
        for label in bundle.support_set.classes() {
            assert!(bundle.support_set.samples(label).unwrap().len() <= 4);
        }
    }

    #[test]
    fn empty_corpus_rejected() {
        let init = CloudInitializer::new(CloudConfig::fast_demo());
        assert!(matches!(
            init.pretrain(&SensorDataset::default()),
            Err(CoreError::InsufficientData(_))
        ));
    }

    #[test]
    fn featurize_shapes_and_unknown_class() {
        let corpus = tiny_corpus(3);
        let mut pipeline = PreprocessingPipeline::new(PipelineConfig::default());
        let refs: Vec<&[Vec<f32>]> = corpus
            .windows
            .iter()
            .map(|w| w.channels.as_slice())
            .collect();
        pipeline.fit_normalizer(&refs).unwrap();
        let registry = LabelRegistry::from_labels(corpus.classes());
        let (features, labels) = featurize(&pipeline, &corpus, &registry).unwrap();
        assert_eq!(features.shape(), (corpus.len(), 80));
        assert_eq!(labels.len(), corpus.len());

        let incomplete = LabelRegistry::from_labels(["walk"]);
        assert!(matches!(
            featurize(&pipeline, &corpus, &incomplete),
            Err(CoreError::UnknownClass(_))
        ));
    }

    #[test]
    fn deterministic_given_seed() {
        let corpus = tiny_corpus(4);
        let mut cfg = CloudConfig::fast_demo();
        cfg.trainer.epochs = 3;
        let (b1, _) = CloudInitializer::new(cfg.clone()).pretrain(&corpus).unwrap();
        let (b2, _) = CloudInitializer::new(cfg).pretrain(&corpus).unwrap();
        assert_eq!(b1, b2);
    }

    #[test]
    fn default_config_matches_paper() {
        let cfg = CloudConfig::default();
        assert_eq!(cfg.backbone_dims, vec![80, 1024, 512, 128, 64, 128]);
        assert_eq!(cfg.support_budget, 200);
    }
}
