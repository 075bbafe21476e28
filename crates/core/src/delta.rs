//! Per-user personalization deltas.
//!
//! MAGNETO personalizes per user, but what actually differs between a
//! personalized session and the shared base model is small: calibrated
//! class prototypes, a handful of support exemplars recorded on-device,
//! and last-layer adjustments (contrastive margin, open-set rejection
//! threshold). [`PersonalDelta`] captures exactly that — a compact,
//! serializable overlay a serving runtime applies to a *shared* base
//! classifier at serve time instead of forking the whole backbone per
//! user. A fleet keeps one refcounted base per model version and one
//! delta per user; resident bytes per user shrink from the full
//! model-plus-support footprint to the delta alone.
//!
//! Two properties the serving tier depends on (both tested here and
//! property-tested in `magneto-fleet`):
//!
//! * **Exact revert** — [`PersonalDelta::apply`] returns an
//!   [`AppliedDelta`] undo record; [`AppliedDelta::revert`] restores the
//!   classifier to a byte-identical pre-apply state. A delta therefore
//!   only *upserts* prototypes (replace-in-place or append) — removal
//!   would shift sibling prototype indices and break exactness.
//! * **Deterministic serialization** — [`PersonalDelta::to_bytes`] /
//!   [`PersonalDelta::from_bytes`] round-trip every `f32` exactly
//!   (shortest-round-trip decimal encoding, ordered maps), so a delta
//!   paged out to storage and rehydrated later rebuilds a bit-identical
//!   overlay and serves bit-identical predictions.

use crate::error::CoreError;
use crate::ncm::NcmClassifier;
use crate::version::ModelVersion;
use crate::Result;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A compact per-user overlay on a shared base model: calibrated
/// prototypes, private support exemplars, and last-layer adjustments.
/// Everything a personalized session owns that the shared base does not.
///
/// Maps are `BTreeMap`s so iteration (and therefore prototype append
/// order under [`apply`](Self::apply), and serialized bytes) is
/// deterministic regardless of insertion order.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PersonalDelta {
    /// Per-class prototype overrides/additions, in the base embedding
    /// space.
    prototypes: BTreeMap<String, Vec<f32>>,
    /// Per-class support-set additions/replacements (feature rows), kept
    /// so a future re-calibration or export has the user's exemplars.
    support: BTreeMap<String, Vec<Vec<f32>>>,
    /// Contrastive-margin adjustment, if the user tuned it.
    margin: Option<f32>,
    /// Open-set rejection threshold, if calibrated for this user.
    threshold: Option<f32>,
    /// The base-model version this delta was calibrated against. A
    /// prototype lives in its base's embedding space, so a delta pinned
    /// to version N must be replayed (not blindly re-applied) when the
    /// base moves to N+1. `None` until a calibration pins it: an empty
    /// delta depends on no base. Skipped when unset.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    base_version: Option<ModelVersion>,
    /// Content hash ([`EdgeBundle::content_hash`]) of that base, set
    /// together with `base_version`. Versions alone collide — the
    /// cloud's next release and a device retrained on-device are both
    /// a child of the same parent — content does not. Skipped when
    /// unset.
    ///
    /// [`EdgeBundle::content_hash`]: crate::EdgeBundle::content_hash
    #[serde(default, skip_serializing_if = "Option::is_none")]
    base_hash: Option<u64>,
}

/// Undo record returned by [`PersonalDelta::apply`]: everything needed
/// to restore the classifier to its exact pre-apply state.
#[derive(Debug, Clone, PartialEq)]
pub struct AppliedDelta {
    /// Prototypes that existed before and were replaced: `(label,
    /// original prototype)`.
    replaced: Vec<(String, Vec<f32>)>,
    /// Labels the apply appended (they did not exist before).
    added: Vec<String>,
}

impl PersonalDelta {
    /// An empty delta (serves identically to the bare base model).
    pub fn new() -> Self {
        PersonalDelta::default()
    }

    /// `true` when applying this delta would change nothing.
    pub fn is_empty(&self) -> bool {
        self.prototypes.is_empty()
            && self.support.is_empty()
            && self.margin.is_none()
            && self.threshold.is_none()
    }

    /// Set (or replace) this user's prototype for `label`.
    pub fn set_prototype(&mut self, label: &str, prototype: Vec<f32>) {
        self.prototypes.insert(label.to_string(), prototype);
    }

    /// This user's prototype override for `label`, if any.
    pub fn prototype(&self, label: &str) -> Option<&[f32]> {
        self.prototypes.get(label).map(Vec::as_slice)
    }

    /// Labels with prototype overrides, in deterministic order.
    pub fn prototype_labels(&self) -> impl Iterator<Item = &str> {
        self.prototypes.keys().map(String::as_str)
    }

    /// Replace this user's support exemplars for `label`.
    pub fn set_support(&mut self, label: &str, rows: Vec<Vec<f32>>) {
        self.support.insert(label.to_string(), rows);
    }

    /// This user's support exemplars for `label`, if any.
    pub fn support(&self, label: &str) -> Option<&[Vec<f32>]> {
        self.support.get(label).map(Vec::as_slice)
    }

    /// Labels with support exemplars, in deterministic order (the
    /// overlay builder walks these to index each class's exemplars).
    pub fn support_labels(&self) -> impl Iterator<Item = &str> {
        self.support.keys().map(String::as_str)
    }

    /// Set the per-user contrastive-margin adjustment.
    pub fn set_margin(&mut self, margin: f32) {
        self.margin = Some(margin);
    }

    /// The per-user margin adjustment, if set.
    pub fn margin(&self) -> Option<f32> {
        self.margin
    }

    /// Set the per-user open-set rejection threshold.
    pub fn set_threshold(&mut self, threshold: f32) {
        self.threshold = Some(threshold);
    }

    /// The per-user rejection threshold, if set.
    pub fn threshold(&self) -> Option<f32> {
        self.threshold
    }

    /// Pin this delta to the base it was calibrated against: that
    /// base's version and the content hash of its bundle.
    pub fn pin_base(&mut self, version: ModelVersion, content_hash: u64) {
        self.base_version = Some(version);
        self.base_hash = Some(content_hash);
    }

    /// The base version this delta is pinned to, if any. `None` means
    /// no calibration has pinned it yet, so it applies to any base.
    pub fn base_version(&self) -> Option<ModelVersion> {
        self.base_version
    }

    /// The content hash of the base this delta is pinned to, if any.
    pub fn base_hash(&self) -> Option<u64> {
        self.base_hash
    }

    /// Approximate bytes this delta holds resident (payload floats plus
    /// label strings — the quantity a tiered session store budgets).
    pub fn resident_bytes(&self) -> usize {
        let protos: usize = self
            .prototypes
            .iter()
            .map(|(l, p)| l.len() + p.len() * 4)
            .sum();
        let support: usize = self
            .support
            .iter()
            .map(|(l, rows)| l.len() + rows.iter().map(|r| r.len() * 4).sum::<usize>())
            .sum();
        protos + support + 8
    }

    /// Serialize for paging out to storage. JSON with shortest
    /// round-trip float encoding: decoding yields a bit-identical delta
    /// (tested), so rehydrated sessions serve bit-identical predictions.
    pub fn to_bytes(&self) -> Vec<u8> {
        serde_json::to_vec(self).expect("delta serialization cannot fail")
    }

    /// Decode a delta written by [`to_bytes`](Self::to_bytes).
    ///
    /// # Errors
    /// [`CoreError::InvalidBundle`] on malformed bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        serde_json::from_slice(bytes)
            .map_err(|e| CoreError::InvalidBundle(format!("personal delta: {e}")))
    }

    /// Apply this delta's prototype overrides to `ncm`, returning the
    /// undo record that restores the exact pre-apply state.
    ///
    /// Transactional: every prototype is dimension-checked against the
    /// classifier *before* any mutation, so a failed apply leaves `ncm`
    /// untouched. New labels are appended in deterministic (sorted)
    /// order, so the same delta applied to the same base always yields
    /// the same classifier — including across a page-out/rehydrate
    /// cycle.
    ///
    /// # Errors
    /// [`CoreError::InvalidConfig`] on any prototype dimension mismatch
    /// (nothing applied).
    pub fn apply(&self, ncm: &mut NcmClassifier) -> Result<AppliedDelta> {
        let dim = ncm.dim();
        for (label, proto) in &self.prototypes {
            if proto.len() != dim {
                return Err(CoreError::InvalidConfig(format!(
                    "delta prototype `{label}` dim {} != classifier dim {dim}",
                    proto.len()
                )));
            }
        }
        let mut applied = AppliedDelta {
            replaced: Vec::new(),
            added: Vec::new(),
        };
        for (label, proto) in &self.prototypes {
            match ncm.prototype(label) {
                Some(old) => applied.replaced.push((label.clone(), old.to_vec())),
                None => applied.added.push(label.clone()),
            }
            ncm.upsert_prototype(label, proto.clone())
                .expect("dims pre-validated");
        }
        Ok(applied)
    }
}

impl AppliedDelta {
    /// Restore `ncm` to its exact pre-apply state. Valid only against
    /// the same classifier the apply mutated, with no other mutation in
    /// between (the contract a serving runtime upholds by construction:
    /// overlays are rebuilt from the base, never edited in place).
    pub fn revert(self, ncm: &mut NcmClassifier) {
        // Added labels were appended after every pre-existing prototype;
        // removing them back-to-front pops from the tail and never
        // shifts a surviving index.
        for label in self.added.iter().rev() {
            ncm.remove(label);
        }
        for (label, original) in self.replaced {
            ncm.upsert_prototype(&label, original)
                .expect("original prototype dims are valid");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magneto_tensor::vector::DistanceMetric;
    use proptest::prelude::*;

    fn base_ncm() -> NcmClassifier {
        NcmClassifier::new(
            DistanceMetric::Euclidean,
            vec![
                ("walk".into(), vec![0.25, -1.5, 3.0]),
                ("run".into(), vec![10.0, 0.125, -0.75]),
            ],
        )
        .unwrap()
    }

    fn ncm_bytes(ncm: &NcmClassifier) -> Vec<u8> {
        serde_json::to_vec(ncm).unwrap()
    }

    #[test]
    fn apply_then_revert_is_byte_identical() {
        let mut ncm = base_ncm();
        let before = ncm_bytes(&ncm);

        let mut delta = PersonalDelta::new();
        delta.set_prototype("walk", vec![0.1, 0.2, 0.3]); // replace
        delta.set_prototype("zumba", vec![7.0, 8.0, 9.0]); // append
        delta.set_prototype("aerial_yoga", vec![1.0, 2.0, 3.0]); // append
        let undo = delta.apply(&mut ncm).unwrap();
        assert_eq!(ncm.num_classes(), 4);
        assert_eq!(ncm.prototype("walk").unwrap(), &[0.1, 0.2, 0.3]);
        assert_ne!(ncm_bytes(&ncm), before);

        undo.revert(&mut ncm);
        assert_eq!(ncm_bytes(&ncm), before, "revert not byte-identical");
    }

    #[test]
    fn apply_is_transactional_on_dim_mismatch() {
        let mut ncm = base_ncm();
        let before = ncm_bytes(&ncm);
        let mut delta = PersonalDelta::new();
        delta.set_prototype("good", vec![1.0, 2.0, 3.0]);
        delta.set_prototype("bad", vec![1.0]); // wrong dim
        assert!(delta.apply(&mut ncm).is_err());
        assert_eq!(ncm_bytes(&ncm), before, "failed apply mutated the ncm");
    }

    #[test]
    fn apply_order_is_deterministic() {
        // Two deltas with the same content but different insertion order
        // produce identical classifiers (BTreeMap ordering).
        let mut a = PersonalDelta::new();
        a.set_prototype("b_cls", vec![1.0, 0.0, 0.0]);
        a.set_prototype("a_cls", vec![0.0, 1.0, 0.0]);
        let mut b = PersonalDelta::new();
        b.set_prototype("a_cls", vec![0.0, 1.0, 0.0]);
        b.set_prototype("b_cls", vec![1.0, 0.0, 0.0]);

        let mut ncm_a = base_ncm();
        let mut ncm_b = base_ncm();
        a.apply(&mut ncm_a).unwrap();
        b.apply(&mut ncm_b).unwrap();
        assert_eq!(ncm_bytes(&ncm_a), ncm_bytes(&ncm_b));
    }

    #[test]
    fn bytes_roundtrip_is_exact() {
        let mut delta = PersonalDelta::new();
        delta.set_prototype("walk", vec![0.1, f32::MIN_POSITIVE, -3.25e-7]);
        delta.set_support("walk", vec![vec![1.0e-30, 2.5], vec![0.3, 0.7]]);
        delta.set_margin(1.125);
        delta.set_threshold(0.004_217);
        let back = PersonalDelta::from_bytes(&delta.to_bytes()).unwrap();
        assert_eq!(back, delta);
        // Bit-exactness of every float, not just PartialEq.
        assert_eq!(
            back.prototype("walk").unwrap()[1].to_bits(),
            f32::MIN_POSITIVE.to_bits()
        );
        assert_eq!(back.to_bytes(), delta.to_bytes());
    }

    #[test]
    fn unpinned_delta_bytes_are_unchanged() {
        // A delta without a version pin serializes without the field
        // and round-trips byte-exactly.
        let mut delta = PersonalDelta::new();
        delta.set_prototype("walk", vec![1.0, 2.0]);
        delta.set_margin(0.5);
        let json = String::from_utf8(delta.to_bytes()).unwrap();
        assert!(!json.contains("base_version"), "{json}");
        assert!(!json.contains("base_hash"), "{json}");
        let back = PersonalDelta::from_bytes(delta.to_bytes().as_slice()).unwrap();
        assert_eq!(back.base_version(), None);
        assert_eq!(back.to_bytes(), delta.to_bytes());
    }

    #[test]
    fn pinned_delta_roundtrips_its_base_version() {
        let mut delta = PersonalDelta::new();
        delta.set_prototype("walk", vec![1.0, 2.0]);
        delta.pin_base(ModelVersion(3), 0xdead_beef_cafe_f00d);
        let back = PersonalDelta::from_bytes(&delta.to_bytes()).unwrap();
        assert_eq!(back.base_version(), Some(ModelVersion(3)));
        assert_eq!(back.base_hash(), Some(0xdead_beef_cafe_f00d));
        assert_eq!(back.to_bytes(), delta.to_bytes());
    }

    /// A delta exercising every field, pinned, as spooled to disk.
    fn spooled_delta_bytes() -> Vec<u8> {
        let mut delta = PersonalDelta::new();
        delta.set_prototype("walk", vec![0.1, -2.5e-7, 3.0]);
        delta.set_prototype("zumba", vec![7.0, 8.0, 9.0]);
        delta.set_support("walk", vec![vec![1.0e-30, 2.5], vec![0.3, 0.7]]);
        delta.set_margin(1.125);
        delta.set_threshold(0.004_217);
        delta.pin_base(ModelVersion(2), 0x0123_4567_89ab_cdef);
        delta.to_bytes()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Spool files and downlinked deltas are untrusted bytes: no
        /// bit flip or truncation may panic the decoder, and whatever a
        /// flip still decodes to must apply or fail cleanly.
        #[test]
        fn from_bytes_never_panics_on_flips_or_truncation(
            pos in any::<u64>(),
            bit in 0u8..8,
            cut in any::<u64>(),
        ) {
            let good = spooled_delta_bytes();
            let mut flipped = good.clone();
            flipped[(pos % good.len() as u64) as usize] ^= 1 << bit;
            if let Ok(delta) = PersonalDelta::from_bytes(&flipped) {
                let mut ncm = base_ncm();
                let _ = delta.apply(&mut ncm);
            }
            let cut = (cut % good.len() as u64) as usize;
            prop_assert!(PersonalDelta::from_bytes(&good[..cut]).is_err());
        }
    }

    #[test]
    fn from_bytes_rejects_garbage() {
        assert!(PersonalDelta::from_bytes(b"not json").is_err());
        assert!(PersonalDelta::from_bytes(&[]).is_err());
    }

    #[test]
    fn empty_delta_is_a_noop() {
        let delta = PersonalDelta::new();
        assert!(delta.is_empty());
        let mut ncm = base_ncm();
        let before = ncm_bytes(&ncm);
        let undo = delta.apply(&mut ncm).unwrap();
        assert_eq!(ncm_bytes(&ncm), before);
        undo.revert(&mut ncm);
        assert_eq!(ncm_bytes(&ncm), before);
    }

    #[test]
    fn accessors_and_resident_bytes() {
        let mut delta = PersonalDelta::new();
        assert!(delta.prototype("x").is_none());
        assert!(delta.support("x").is_none());
        assert_eq!(delta.margin(), None);
        assert_eq!(delta.threshold(), None);

        delta.set_prototype("x", vec![1.0; 8]);
        delta.set_support("x", vec![vec![0.0; 80]; 3]);
        delta.set_margin(2.0);
        delta.set_threshold(0.5);
        assert!(!delta.is_empty());
        assert_eq!(delta.prototype_labels().collect::<Vec<_>>(), ["x"]);
        assert_eq!(delta.support("x").unwrap().len(), 3);
        // 8 proto floats + 240 support floats ≈ 1 KB — and crucially two
        // orders of magnitude under a full resident model.
        let bytes = delta.resident_bytes();
        assert!(bytes >= 8 * 4 + 240 * 4, "{bytes}");
        assert!(bytes < 2048, "{bytes}");
    }
}
