//! Precision-polymorphic residency: which numeric format lives on the
//! device.
//!
//! The paper ships a < 5 MB bundle to the Edge (§4.2) and the earlier
//! PRs already *stored* the backbone as int8 — but deploy always
//! rehydrated to f32, so the resident footprint was the full f32 model
//! again. This module closes that gap: [`ResidentModel`] keeps whatever
//! the deploy policy chose — f32 or int8 — resident, and every consumer
//! (batch embedder, NCM prototype construction, streaming inference, the
//! fleet scheduler) works against it instead of a concrete network type.
//! The support set stores its own precision
//! ([`crate::SupportSet::into_precision`]).
//!
//! Design rules:
//!
//! * **One embedding space per device.** NCM prototypes are computed
//!   through the *resident* model, so prototypes, rejection thresholds
//!   and query embeddings always share the same (possibly quantised)
//!   space. Prototypes themselves stay f32 — a handful of 128-float
//!   vectors is noise next to the weights.
//! * **Training stays f32.** Gradients need the dynamic range; int8
//!   devices rehydrate a training copy, run the normal update, and
//!   re-quantise on commit (see `ModelState::update`).

use crate::error::CoreError;
use crate::Result;
use magneto_nn::{QuantizedSiamese, SiameseNetwork};
use magneto_tensor::{Matrix, Workspace};
use serde::{Deserialize, Serialize};

pub use magneto_tensor::Precision;

/// A deployed model at its resident precision.
///
/// The `Int8` arm holds the quantised weights *only* — constructing it
/// never materialises f32 weights, which is what keeps an int8 deploy at
/// roughly a quarter of the f32 footprint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ResidentModel {
    /// Full-precision network (the pre-refactor behaviour).
    F32(SiameseNetwork),
    /// Int8 weights with per-output-channel scales; inference runs on
    /// the i8×i8→i32 kernels directly.
    Int8(QuantizedSiamese),
}

impl From<SiameseNetwork> for ResidentModel {
    fn from(net: SiameseNetwork) -> Self {
        ResidentModel::F32(net)
    }
}

impl From<QuantizedSiamese> for ResidentModel {
    fn from(net: QuantizedSiamese) -> Self {
        ResidentModel::Int8(net)
    }
}

impl ResidentModel {
    /// The precision this model executes at.
    pub fn precision(&self) -> Precision {
        match self {
            ResidentModel::F32(_) => Precision::F32,
            ResidentModel::Int8(_) => Precision::Int8,
        }
    }

    /// Contrastive margin carried by either arm.
    pub fn margin(&self) -> f32 {
        match self {
            ResidentModel::F32(n) => n.margin,
            ResidentModel::Int8(q) => q.margin,
        }
    }

    /// Set the contrastive margin.
    pub fn set_margin(&mut self, margin: f32) {
        match self {
            ResidentModel::F32(n) => n.margin = margin,
            ResidentModel::Int8(q) => q.margin = margin,
        }
    }

    /// Layer widths, input first.
    pub fn dims(&self) -> Vec<usize> {
        match self {
            ResidentModel::F32(n) => n.backbone().dims(),
            ResidentModel::Int8(q) => q.backbone().dims(),
        }
    }

    /// Input feature dimension.
    pub fn input_dim(&self) -> usize {
        match self {
            ResidentModel::F32(n) => n.backbone().input_dim(),
            ResidentModel::Int8(q) => q.backbone().input_dim(),
        }
    }

    /// Embedding (output) dimension.
    pub fn output_dim(&self) -> usize {
        match self {
            ResidentModel::F32(n) => n.backbone().output_dim(),
            ResidentModel::Int8(q) => q.backbone().output_dim(),
        }
    }

    /// Total parameters (weights + biases), identical across precisions.
    pub fn param_count(&self) -> usize {
        match self {
            ResidentModel::F32(n) => n.backbone().param_count(),
            ResidentModel::Int8(q) => q.backbone().param_count(),
        }
    }

    /// Bytes needed to keep the parameters resident at this precision.
    pub fn resident_bytes(&self) -> usize {
        match self {
            ResidentModel::F32(n) => n.backbone().param_bytes(),
            ResidentModel::Int8(q) => q.stored_bytes(),
        }
    }

    /// Embed a batch of feature rows (allocating shim).
    ///
    /// # Errors
    /// Shape mismatch on malformed input.
    pub fn embed(&self, features: &Matrix) -> Result<Matrix> {
        match self {
            ResidentModel::F32(n) => n.embed(features).map_err(CoreError::Nn),
            ResidentModel::Int8(q) => q.embed(features).map_err(CoreError::Nn),
        }
    }

    /// Embed a batch into a caller-owned output, drawing scratch from
    /// `ws` — the allocation-free path both precisions run on.
    ///
    /// # Errors
    /// Shape mismatch on malformed input.
    pub fn embed_into(&self, features: &Matrix, out: &mut Matrix, ws: &mut Workspace) -> Result<()> {
        match self {
            ResidentModel::F32(n) => n.embed_into(features, out, ws).map_err(CoreError::Nn),
            ResidentModel::Int8(q) => q.embed_into(features, out, ws).map_err(CoreError::Nn),
        }
    }

    /// Embed one feature vector.
    ///
    /// # Errors
    /// Shape mismatch on malformed input.
    pub fn embed_one(&self, features: &[f32]) -> Result<Vec<f32>> {
        match self {
            ResidentModel::F32(n) => n.embed_one(features).map_err(CoreError::Nn),
            ResidentModel::Int8(q) => q.embed_one(features).map_err(CoreError::Nn),
        }
    }

    /// An f32 copy of the network: identity for the `F32` arm, a lossy
    /// dequantisation for `Int8` (used when training needs gradients).
    ///
    /// # Errors
    /// Internal inconsistency in the quantised weights.
    pub fn to_f32(&self) -> Result<SiameseNetwork> {
        match self {
            ResidentModel::F32(n) => Ok(n.clone()),
            ResidentModel::Int8(q) => q.dequantize().map_err(CoreError::Nn),
        }
    }

    /// `true` when every float parameter of the resident representation
    /// is finite — the post-training weight check of the transactional
    /// update path.
    pub fn all_finite(&self) -> bool {
        match self {
            ResidentModel::F32(n) => n.margin.is_finite() && n.backbone().all_finite(),
            ResidentModel::Int8(q) => q.all_finite(),
        }
    }

    /// Convert to the requested precision. Same-precision conversions
    /// are the identity (no round trip through the other format).
    ///
    /// # Errors
    /// Degenerate weights on quantise, internal inconsistency on
    /// dequantise.
    pub fn into_precision(self, precision: Precision) -> Result<Self> {
        match (self, precision) {
            (ResidentModel::F32(n), Precision::Int8) => Ok(ResidentModel::Int8(
                QuantizedSiamese::quantize(&n).map_err(CoreError::Nn)?,
            )),
            (ResidentModel::Int8(q), Precision::F32) => {
                Ok(ResidentModel::F32(q.dequantize().map_err(CoreError::Nn)?))
            }
            (same, _) => Ok(same),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magneto_nn::Mlp;
    use magneto_tensor::SeededRng;

    fn small_net(seed: u64) -> SiameseNetwork {
        SiameseNetwork::new(Mlp::new(&[8, 16, 4], &mut SeededRng::new(seed)).unwrap(), 1.5)
    }

    #[test]
    fn resident_model_precision_and_metadata() {
        let f32_model = ResidentModel::from(small_net(1));
        assert_eq!(f32_model.precision(), Precision::F32);
        let int8 = f32_model.clone().into_precision(Precision::Int8).unwrap();
        assert_eq!(int8.precision(), Precision::Int8);
        assert_eq!(int8.dims(), f32_model.dims());
        assert_eq!(int8.input_dim(), 8);
        assert_eq!(int8.output_dim(), 4);
        assert_eq!(int8.param_count(), f32_model.param_count());
        assert_eq!(int8.margin(), 1.5);
        assert!(
            int8.resident_bytes() < f32_model.resident_bytes() / 2,
            "int8 {} vs f32 {}",
            int8.resident_bytes(),
            f32_model.resident_bytes()
        );
    }

    #[test]
    fn into_precision_identity_is_lossless() {
        let model = ResidentModel::from(small_net(2));
        let same = model.clone().into_precision(Precision::F32).unwrap();
        assert_eq!(same, model);
        let int8 = model.into_precision(Precision::Int8).unwrap();
        let same8 = int8.clone().into_precision(Precision::Int8).unwrap();
        assert_eq!(same8, int8);
    }

    #[test]
    fn resident_model_embeddings_agree_across_precisions() {
        let model = ResidentModel::from(small_net(3));
        let int8 = model.clone().into_precision(Precision::Int8).unwrap();
        let x = Matrix::filled(5, 8, 0.3);
        let ef = model.embed(&x).unwrap();
        let eq = int8.embed(&x).unwrap();
        assert_eq!(ef.shape(), eq.shape());
        let rel = ef.sub(&eq).unwrap().frobenius_norm() / ef.frobenius_norm().max(1e-9);
        assert!(rel < 0.1, "embedding drift {rel}");
        // embed_one and embed_into agree with embed.
        let one = int8.embed_one(x.row(0)).unwrap();
        assert_eq!(one.as_slice(), eq.row(0));
        let mut out = Matrix::default();
        let mut ws = Workspace::new();
        int8.embed_into(&x, &mut out, &mut ws).unwrap();
        assert_eq!(out, eq);
    }

    #[test]
    fn set_margin_crosses_precisions() {
        let mut model = ResidentModel::from(small_net(4));
        model.set_margin(2.25);
        assert_eq!(model.margin(), 2.25);
        let mut int8 = model.into_precision(Precision::Int8).unwrap();
        assert_eq!(int8.margin(), 2.25);
        int8.set_margin(0.5);
        assert_eq!(int8.to_f32().unwrap().margin, 0.5);
    }

    #[test]
    fn serde_roundtrips() {
        let model = ResidentModel::from(small_net(16))
            .into_precision(Precision::Int8)
            .unwrap();
        let json = serde_json::to_string(&model).unwrap();
        let back: ResidentModel = serde_json::from_str(&json).unwrap();
        assert_eq!(model, back);
    }
}
