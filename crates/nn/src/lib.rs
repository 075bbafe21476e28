//! # magneto-nn
//!
//! From-scratch neural-network substrate for MAGNETO.
//!
//! The paper's learner (§3.2 item 2): "a Siamese Network-based model with
//! contrastive loss is designed, which learns a class-separable embedding
//! space. The backbone model is a simple Fully Connected (FC) neural
//! network with dimensions [1024×512×128×64×128]". On-device updates
//! jointly optimise "Contrastive and Distillation Loss" (§3.3) to fight
//! catastrophic forgetting.
//!
//! No Rust deep-learning crate is available offline, so this crate builds
//! the whole stack by hand:
//!
//! * [`activation`] — ReLU family with exact derivatives;
//! * [`layer`] — dense layers with manual backprop, at either
//!   precision;
//! * [`network`] — the MLP backbone (any layer widths; the paper's
//!   `80→1024→512→128→64→128` is the default);
//! * [`loss`] — pairwise contrastive loss (Hadsell–Chopra form, which is
//!   what a Siamese network trains on), embedding-level distillation loss
//!   (Hinton-style teacher–student, applied to embeddings as in the
//!   companion paper), and softmax cross-entropy for baseline heads;
//! * [`optimizer`] — SGD with momentum and Adam;
//! * [`pairs`] — balanced positive/negative pair sampling;
//! * [`siamese`] — the Siamese wrapper: one shared backbone, two-view
//!   batches, optional distillation towards a table of teacher
//!   embeddings;
//! * [`trainer`] — epoch loop with loss history and divergence guards;
//! * [`quantize`] — a layer's weights at f32 or int8 ([`Weights`]): the
//!   post-training 8-bit quantisation behind the < 5 MB footprint
//!   budget, run directly by the int8 GEMM;
//! * [`serialize`] — the `MGNN` (f32) and `MGQ2` (int8) binary model
//!   encodings for the bundle.

pub mod activation;
pub mod error;
pub mod layer;
pub mod loss;
pub mod network;
pub mod optimizer;
pub mod pairs;
pub mod quantize;
pub mod serialize;
pub mod siamese;
pub mod trainer;

pub use activation::Activation;
pub use error::NnError;
pub use network::Mlp;
pub use optimizer::{Adam, Optimizer, Sgd};
pub use quantize::Weights;
pub use siamese::SiameseNetwork;
pub use trainer::{TrainerConfig, TrainingReport};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, NnError>;

/// The paper's backbone layout: 80 input features, hidden widths
/// 1024/512/128/64, and a 128-dimensional embedding.
pub const PAPER_BACKBONE: [usize; 6] = [80, 1024, 512, 128, 64, 128];
