//! # magneto-core
//!
//! The MAGNETO platform — the paper's primary contribution.
//!
//! MAGNETO (EDBT 2024) is an Edge-AI platform for Human Activity
//! Recognition organised around two phases:
//!
//! 1. **Cloud Initialization** ([`cloud`]): pre-train a Siamese embedding
//!    network on a large open corpus, fit the pre-processing function,
//!    select a compact support set, and package all three into an
//!    [`bundle::EdgeBundle`] (< 5 MB) for transfer to the
//!    device.
//! 2. **Edge Inference and Learning** ([`edge`]): the device performs
//!    millisecond inference with a Nearest-Class-Mean classifier
//!    ([`ncm`]) over embeddings, and learns *new* activities on-device
//!    ([`incremental`]) by jointly optimising contrastive and
//!    distillation losses over the support set plus freshly recorded
//!    data — without ever sending a byte back to the Cloud
//!    ([`privacy`]).
//!
//! The module map mirrors Figure 2 of the paper:
//!
//! | paper component | module |
//! |---|---|
//! | pre-processing function | `magneto-dsp` (re-exported via the bundle) |
//! | initial ML model (Siamese FC net) | `magneto-nn`, packaged in [`bundle`] |
//! | support set | [`support_set`] |
//! | NCM classifier | [`ncm`] |
//! | cloud initialization | [`cloud`] |
//! | edge inference | [`inference`], [`edge`] |
//! | incremental learning / calibration | [`incremental`], [`edge`] |
//! | privacy definition 1 | [`privacy`] |
//!
//! plus cross-cutting utilities: [`label`] (dynamic class registry),
//! [`metrics`] (accuracy/confusion/forgetting), [`error`].

pub mod bundle;
pub mod cloud;
pub mod delta;
pub mod drift;
pub mod edge;
pub mod embed;
pub mod error;
pub mod incremental;
pub mod inference;
pub mod label;
pub mod metrics;
pub mod ncm;
pub(crate) mod ncm_index;
pub mod precision;
pub mod privacy;
pub mod recalibrate;
pub mod sharing;
pub mod storage;
pub mod support_set;
pub mod timeline;
pub mod version;

pub use bundle::{BundleSizeReport, EdgeBundle};
pub use cloud::{CloudConfig, CloudInitializer};
pub use delta::{AppliedDelta, PersonalDelta};
pub use drift::{DriftMonitor, DriftStatus};
pub use edge::{EdgeConfig, EdgeDevice};
pub use embed::{stage_rows, BatchEmbedder};
pub use error::CoreError;
pub use incremental::{
    self_accuracy, IncrementalConfig, RollbackReason, UpdateOutcome, UpdateReport,
    ValidationConfig,
};
pub use inference::{infer_batch, BatchJob, InferenceView, LatencyStats, Prediction, SensorHealth};
pub use magneto_dsp::{GuardConfig, SignalQuality};
pub use label::LabelRegistry;
pub use metrics::ConfusionMatrix;
pub use ncm::{NcmClassifier, NcmDecision, NcmScratch};
pub use precision::{Precision, ResidentModel};
pub use privacy::PrivacyLedger;
pub use recalibrate::{HealingLoop, HealingStats, Recalibrator, SelfHealingConfig};
pub use sharing::ClassPack;
pub use timeline::TimelineBuilder;
pub use support_set::{SelectionStrategy, SupportSet};
pub use version::{Fnv64, Lineage, ModelVersion};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CoreError>;
