//! # MAGNETO
//!
//! A Rust reproduction of *MAGNETO: Edge AI for Human Activity
//! Recognition — Privacy and Personalization* (EDBT 2024).
//!
//! MAGNETO pushes the whole HAR pipeline — data collection,
//! pre-processing, model adaptation/re-training/calibration, inference
//! and visualisation — onto the Edge device. After a one-time
//! Cloud → Edge bundle transfer, the device recognises activities in a
//! few milliseconds, learns brand-new user-defined activities on-device
//! without catastrophic forgetting, and never sends a byte of user data
//! back to the Cloud.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`tensor`] — dense linear algebra, seeded RNG, binary codecs;
//! * [`sensors`] — 22-channel synthetic smartphone sensor substrate
//!   (the stand-in for the paper's 100 GB collection campaigns);
//! * [`dsp`] — the pre-processing function (denoise → segment →
//!   80 statistical features → normalise);
//! * [`nn`] — from-scratch Siamese MLP with contrastive + distillation
//!   losses;
//! * [`core`] — the MAGNETO platform: Cloud initialisation, edge bundle,
//!   NCM inference, support set, incremental learning, privacy ledger;
//! * [`platform`] — the simulated Cloud/Edge deployment environment used
//!   for the paper's Figure-1 protocol comparison;
//! * [`fleet`] — concurrent multi-device serving runtime with
//!   cross-session micro-batching (sharded sessions, bounded queues,
//!   deterministic scheduling).
//!
//! ## Quickstart
//!
//! ```
//! use magneto::prelude::*;
//!
//! // Cloud (offline): pre-train on the open corpus and package.
//! let corpus = SensorDataset::generate(&GeneratorConfig::tiny(), 42);
//! let (bundle, _report) = CloudInitializer::new(CloudConfig::fast_demo())
//!     .pretrain(&corpus)
//!     .unwrap();
//! assert!(bundle.size_report(false).within_5mb());
//!
//! // Edge (online): deploy and infer locally.
//! let mut device = EdgeDevice::deploy(bundle, EdgeConfig::default()).unwrap();
//! let probe = SensorDataset::generate(&GeneratorConfig::tiny(), 7);
//! let pred = device.infer_window(&probe.windows[0].channels).unwrap();
//! assert!(device.classes().contains(&pred.label));
//! device.privacy_ledger().check_no_uplink().unwrap();
//! ```

pub use magneto_core as core;
pub use magneto_dsp as dsp;
pub use magneto_fleet as fleet;
pub use magneto_nn as nn;
pub use magneto_platform as platform;
pub use magneto_sensors as sensors;
pub use magneto_tensor as tensor;

/// The most common imports for application code.
pub mod prelude {
    pub use magneto_core::{
        BundleSizeReport, CloudConfig, CloudInitializer, ConfusionMatrix, DriftMonitor,
        DriftStatus, EdgeBundle, EdgeConfig, EdgeDevice, HealingStats, LabelRegistry,
        NcmClassifier, Precision, PrivacyLedger, Recalibrator, ResidentModel, SelectionStrategy,
        SelfHealingConfig, SupportSet,
    };
    pub use magneto_fleet::{Fleet, FleetConfig, FleetReply, ModelKey, SessionId, SubmitError};
    pub use magneto_platform::{
        CloudProtocol, DeviceModel, EdgeProtocol, EnergyModel, FleetAccounting, HarProtocol,
        NetworkLink,
    };
    pub use magneto_sensors::{
        ActivityKind, GeneratorConfig, PersonProfile, SensorDataset, SensorStream,
    };
    pub use magneto_tensor::SeededRng;
}
