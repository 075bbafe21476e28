//! Nearest-Class-Mean classifier over embeddings.
//!
//! §3.1: "After learning a class-separable embedding space, a nearest
//! class mean (NCM) classifier can be built to do the Edge Inference."
//! NCM is the natural classifier for incremental learning: adding a class
//! is *just adding a prototype* — no classifier weights to retrain, which
//! is exactly why Mensink et al. and the companion EDBT'23 paper use it.
//!
//! Classes and per-user exemplars keep growing over a device's lifetime,
//! so the classifier carries a quantized row index
//! ([`crate::ncm_index`], DESIGN.md §16) holding every class
//! representative — the f32 prototype plus optional int8 support
//! exemplars — as per-row-scale int8 rows. Small classifiers scan
//! densely (bit-identical to the classic prototype scan); past
//! `coarse_min_rows` total rows a two-stage search takes over: a coarse
//! int8 scan over all rows picks the `top_k` candidates, only those are
//! re-scored exactly in f32, and every class scores as the minimum over
//! its rows. With `top_k >= num_rows` the two stages collapse to the
//! dense scan bit-for-bit (property-tested); at the defaults the
//! prediction-agreement gate is ≥ 0.99 (`make check`, BENCH_ncm_scale).

use std::collections::HashMap;

use crate::error::CoreError;
use crate::ncm_index::NcmIndex;
use crate::Result;
use magneto_tensor::qdist;
use magneto_tensor::vector::{self, DistanceMetric};
use magneto_tensor::{Backend, Matrix};
use serde::{__get_field, __opt_field, Deserialize, Serialize, Value};

/// Total indexed rows below which classification always runs the dense
/// exact scan. Keeps every small classifier — in particular any
/// exemplar-free classifier a pre-index bundle produces — bit-identical
/// to the classic prototype scan.
const DEFAULT_COARSE_MIN_ROWS: usize = 64;

/// Candidate rows the coarse stage hands to exact re-scoring.
const DEFAULT_TOP_K: usize = 16;

/// A fitted NCM classifier: one prototype (mean embedding) per class,
/// plus optional quantized support exemplars per class.
#[derive(Debug, Clone)]
pub struct NcmClassifier {
    metric: DistanceMetric,
    labels: Vec<String>,
    prototypes: Vec<Vec<f32>>,
    /// Interned label → class index (first insertion wins on duplicate
    /// labels, mirroring the linear `position()` lookup it replaces).
    index_of: HashMap<String, usize>,
    index: NcmIndex,
    coarse_min_rows: usize,
    top_k: usize,
}

/// Classification outcome.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NcmDecision {
    /// Winning class label.
    pub label: String,
    /// Soft confidence in `[0, 1]`: softmax over negated distances.
    pub confidence: f32,
    /// Distance to the nearest representative of every class, in label
    /// order. For classes without exemplars this is the prototype
    /// distance; on the two-stage path, rows outside the candidate set
    /// contribute their coarse estimate.
    pub distances: Vec<f32>,
}

/// Reusable scratch for [`NcmClassifier::classify_into`] (§9 `_into`
/// convention): quantised query, coarse scores, candidate set, softmax
/// buffers. One per serving thread; `classify` allocates one per call.
#[derive(Debug, Clone)]
pub struct NcmScratch {
    backend: Backend,
    q: Vec<i8>,
    coarse: Vec<f32>,
    pairs: Vec<(f32, u32)>,
    selected: Vec<bool>,
    row_buf: Vec<f32>,
    neg: Vec<f32>,
    probs: Vec<f32>,
}

impl NcmScratch {
    /// Scratch dispatching the coarse scan to the best available SIMD
    /// backend. The int8 distance kernels accumulate in exact integer
    /// arithmetic — bit-identical across backends — so unlike the f32
    /// families there is no accuracy trade-off to weigh; detection
    /// alone decides.
    pub fn new() -> Self {
        Self::with_backend(Backend::detect_simd().unwrap_or(Backend::Scalar))
    }

    /// Scratch with an explicit coarse-scan backend (bench sweeps,
    /// bit-identity tests). Unavailable backends fall back to scalar.
    pub fn with_backend(backend: Backend) -> Self {
        let backend = if backend.is_available() {
            backend
        } else {
            Backend::Scalar
        };
        NcmScratch {
            backend,
            q: Vec::new(),
            coarse: Vec::new(),
            pairs: Vec::new(),
            selected: Vec::new(),
            row_buf: Vec::new(),
            neg: Vec::new(),
            probs: Vec::new(),
        }
    }

    /// The backend the coarse int8 scan dispatches to.
    pub fn backend(&self) -> Backend {
        self.backend
    }
}

impl Default for NcmScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl NcmClassifier {
    /// Build from `(label, prototype)` pairs.
    ///
    /// # Errors
    /// [`CoreError::InsufficientData`] when empty;
    /// [`CoreError::InvalidConfig`] on inconsistent prototype dims.
    pub fn new(metric: DistanceMetric, prototypes: Vec<(String, Vec<f32>)>) -> Result<Self> {
        if prototypes.is_empty() {
            return Err(CoreError::InsufficientData("no prototypes".into()));
        }
        let dim = prototypes[0].1.len();
        if dim == 0 || prototypes.iter().any(|(_, p)| p.len() != dim) {
            return Err(CoreError::InvalidConfig(
                "prototype dimension mismatch".into(),
            ));
        }
        let mut index = NcmIndex::new(dim)?;
        let mut labels = Vec::with_capacity(prototypes.len());
        let mut protos = Vec::with_capacity(prototypes.len());
        let mut index_of = HashMap::with_capacity(prototypes.len());
        for (label, proto) in prototypes {
            index.push_class(&proto);
            index_of.entry(label.clone()).or_insert(labels.len());
            labels.push(label);
            protos.push(proto);
        }
        Ok(NcmClassifier {
            metric,
            labels,
            prototypes: protos,
            index_of,
            index,
            coarse_min_rows: DEFAULT_COARSE_MIN_ROWS,
            top_k: DEFAULT_TOP_K,
        })
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.prototypes.first().map_or(0, Vec::len)
    }

    /// Class labels in prototype order.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.labels.len()
    }

    /// Total indexed rows: one prototype per class plus all exemplars.
    pub fn num_rows(&self) -> usize {
        self.index.num_rows()
    }

    /// Distance metric in use.
    pub fn metric(&self) -> DistanceMetric {
        self.metric
    }

    /// Override the two-stage search knobs: classification runs the
    /// coarse+rescore path once the index holds at least
    /// `coarse_min_rows` rows, re-scoring the `top_k` best coarse
    /// candidates exactly. `top_k >= num_rows` makes the two-stage path
    /// bit-identical to the dense scan.
    pub fn set_search_params(&mut self, coarse_min_rows: usize, top_k: usize) {
        self.coarse_min_rows = coarse_min_rows;
        self.top_k = top_k;
    }

    /// Current `(coarse_min_rows, top_k)` search knobs.
    pub fn search_params(&self) -> (usize, usize) {
        (self.coarse_min_rows, self.top_k)
    }

    /// The prototype for `label`.
    pub fn prototype(&self, label: &str) -> Option<&[f32]> {
        self.index_of
            .get(label)
            .map(|&i| self.prototypes[i].as_slice())
    }

    /// Add (or replace) a class prototype — the incremental-learning hook.
    /// O(label) via the interned lookup; replacing re-quantises exactly
    /// one index row, adding appends one.
    ///
    /// # Errors
    /// [`CoreError::InvalidConfig`] on dimension mismatch.
    pub fn upsert_prototype(&mut self, label: &str, prototype: Vec<f32>) -> Result<()> {
        if prototype.len() != self.dim() {
            return Err(CoreError::InvalidConfig(format!(
                "prototype dim {} != classifier dim {}",
                prototype.len(),
                self.dim()
            )));
        }
        match self.index_of.get(label) {
            Some(&i) => {
                self.index.replace_proto(i, &prototype);
                self.prototypes[i] = prototype;
            }
            None => {
                let i = self.labels.len();
                self.index.push_class(&prototype);
                self.index_of.insert(label.to_string(), i);
                self.labels.push(label.to_string());
                self.prototypes.push(prototype);
            }
        }
        Ok(())
    }

    /// Remove a class. The interned map stays consistent: entries above
    /// the removed slot shift down with their prototypes.
    pub fn remove(&mut self, label: &str) -> bool {
        let Some(i) = self.index_of.remove(label) else {
            return false;
        };
        self.labels.remove(i);
        self.prototypes.remove(i);
        self.index.remove_class(i);
        for slot in self.index_of.values_mut() {
            if *slot > i {
                *slot -= 1;
            }
        }
        true
    }

    /// Attach support exemplars to `label`, replacing any it already
    /// had: each row of `rows` (an embedding per row) is quantised with
    /// the per-row int8 scheme and indexed as an additional
    /// representative of the class — classification scores the class by
    /// its *nearest* representative. Pass an empty matrix to drop the
    /// class's exemplars.
    ///
    /// # Errors
    /// [`CoreError::InvalidConfig`] for an unknown label or a row-width
    /// mismatch.
    pub fn set_class_exemplars(&mut self, label: &str, rows: &Matrix) -> Result<()> {
        let Some(&c) = self.index_of.get(label) else {
            return Err(CoreError::InvalidConfig(format!(
                "cannot attach exemplars to unknown class `{label}`"
            )));
        };
        if rows.rows() > 0 && rows.cols() != self.dim() {
            return Err(CoreError::InvalidConfig(format!(
                "exemplar dim {} != classifier dim {}",
                rows.cols(),
                self.dim()
            )));
        }
        self.index.clear_exemplars(c);
        for r in 0..rows.rows() {
            self.index.push_exemplar(c, rows.row(r));
        }
        Ok(())
    }

    /// Drop every class's exemplars, shrinking the index back to one
    /// prototype row per class.
    pub fn clear_exemplars(&mut self) {
        for c in 0..self.labels.len() {
            self.index.clear_exemplars(c);
        }
    }

    /// Number of exemplar rows indexed for `label` (`None` for an
    /// unknown label).
    pub fn exemplar_count(&self, label: &str) -> Option<usize> {
        self.index_of
            .get(label)
            .map(|&c| self.index.exemplar_count(c))
    }

    /// Resident bytes: f32 prototypes + labels + the quantized index
    /// pool (exemplars cost ~1 byte per element, not 4).
    pub fn resident_bytes(&self) -> usize {
        let protos: usize = self.prototypes.iter().map(|p| 4 * p.len()).sum();
        let labels: usize = self.labels.iter().map(|l| l.len() + 24).sum();
        protos + labels + self.index.bytes()
    }

    /// Classify an embedding with open-set rejection: returns `None` when
    /// the nearest representative is farther than `threshold` — the
    /// embedding belongs to no known activity. This is what lets the demo
    /// device say "unknown activity" for a gesture it has not been taught
    /// yet, instead of mislabelling it as one of the base five.
    ///
    /// # Errors
    /// [`CoreError::InvalidConfig`] on dimension mismatch.
    pub fn classify_open_set(
        &self,
        embedding: &[f32],
        threshold: f32,
    ) -> Result<Option<NcmDecision>> {
        let decision = self.classify(embedding)?;
        let min_dist = decision
            .distances
            .iter()
            .cloned()
            .fold(f32::INFINITY, f32::min);
        Ok((min_dist <= threshold).then_some(decision))
    }

    /// Classify an embedding. Thin shim over [`Self::classify_into`]
    /// (allocates fresh scratch; serving paths keep scratch per thread).
    ///
    /// # Errors
    /// [`CoreError::InvalidConfig`] on dimension mismatch.
    pub fn classify(&self, embedding: &[f32]) -> Result<NcmDecision> {
        let mut scratch = NcmScratch::new();
        let mut out = NcmDecision::default();
        self.classify_into(embedding, &mut scratch, &mut out)?;
        Ok(out)
    }

    /// Classify an embedding into a caller-owned decision, reusing
    /// `scratch` across calls (§9 `_into` convention — the fleet serve
    /// path's variant). Below `coarse_min_rows` total rows this is the
    /// dense exact scan; above it, the two-stage quantized search.
    ///
    /// # Errors
    /// [`CoreError::InvalidConfig`] on dimension mismatch.
    pub fn classify_into(
        &self,
        embedding: &[f32],
        scratch: &mut NcmScratch,
        out: &mut NcmDecision,
    ) -> Result<()> {
        if embedding.len() != self.dim() {
            return Err(CoreError::InvalidConfig(format!(
                "embedding dim {} != classifier dim {}",
                embedding.len(),
                self.dim()
            )));
        }
        let two_stage = self.index.num_rows() >= self.coarse_min_rows.max(1)
            && !matches!(self.metric, DistanceMetric::Manhattan);
        if two_stage {
            self.scores_two_stage(embedding, scratch, &mut out.distances);
        } else {
            self.scores_dense(embedding, &mut scratch.row_buf, &mut out.distances);
        }
        let winner = vector::argmin(&out.distances).expect("non-empty prototypes");
        // Confidence: softmax over negative distances. Scale-free enough
        // for UI display and vote weighting.
        scratch.neg.clear();
        scratch.neg.extend(out.distances.iter().map(|d| -d));
        vector::softmax_into(&scratch.neg, &mut scratch.probs);
        out.label.clear();
        out.label.push_str(&self.labels[winner]);
        out.confidence = scratch.probs[winner];
        Ok(())
    }

    /// Dense exact scan, also the agreement reference for the bench:
    /// every class scores as the minimum metric distance over its
    /// prototype and (dequantised) exemplars. With no exemplars this is
    /// exactly the classic prototype scan.
    pub fn classify_dense_into(
        &self,
        embedding: &[f32],
        scratch: &mut NcmScratch,
        out: &mut NcmDecision,
    ) -> Result<()> {
        if embedding.len() != self.dim() {
            return Err(CoreError::InvalidConfig(format!(
                "embedding dim {} != classifier dim {}",
                embedding.len(),
                self.dim()
            )));
        }
        self.scores_dense(embedding, &mut scratch.row_buf, &mut out.distances);
        let winner = vector::argmin(&out.distances).expect("non-empty prototypes");
        scratch.neg.clear();
        scratch.neg.extend(out.distances.iter().map(|d| -d));
        vector::softmax_into(&scratch.neg, &mut scratch.probs);
        out.label.clear();
        out.label.push_str(&self.labels[winner]);
        out.confidence = scratch.probs[winner];
        Ok(())
    }

    fn scores_dense(&self, embedding: &[f32], row_buf: &mut Vec<f32>, distances: &mut Vec<f32>) {
        distances.clear();
        row_buf.resize(self.dim(), 0.0);
        for (c, proto) in self.prototypes.iter().enumerate() {
            let mut d = self.metric.eval(embedding, proto);
            for &pos in self.index.exemplar_positions(c) {
                self.index.dequantize_into(pos as usize, row_buf);
                d = d.min(self.metric.eval(embedding, row_buf));
            }
            distances.push(d);
        }
    }

    /// Two-stage search. Euclidean metrics run internally in the squared
    /// domain with one `sqrt` per class at the end — `sqrt` is monotone
    /// and correctly rounded, so `sqrt(min(x²)) == min(sqrt(x²))`
    /// bit-for-bit and the collapse to the dense scan at
    /// `top_k >= num_rows` is exact.
    fn scores_two_stage(
        &self,
        embedding: &[f32],
        scratch: &mut NcmScratch,
        distances: &mut Vec<f32>,
    ) {
        let n_rows = self.index.num_rows();
        // Stage 1: quantise the query once, coarse-score every row.
        scratch.q.clear();
        let (q_scale, q_sqnorm) = qdist::quantize_query(embedding, &mut scratch.q);
        let squared = matches!(
            self.metric,
            DistanceMetric::Euclidean | DistanceMetric::SquaredEuclidean
        );
        if squared {
            self.index
                .coarse_sq_l2(scratch.backend, &scratch.q, q_scale, q_sqnorm, &mut scratch.coarse);
        } else {
            self.index
                .coarse_cosine(scratch.backend, &scratch.q, q_scale, q_sqnorm, &mut scratch.coarse);
        }
        // Select the top_k coarse candidates for exact re-scoring.
        let k = self.top_k.min(n_rows);
        scratch.selected.clear();
        scratch.selected.resize(n_rows, false);
        if k > 0 {
            scratch.pairs.clear();
            scratch
                .pairs
                .extend(scratch.coarse.iter().enumerate().map(|(i, &s)| (s, i as u32)));
            if k < n_rows {
                scratch
                    .pairs
                    .select_nth_unstable_by(k - 1, |a, b| a.0.total_cmp(&b.0));
            }
            for &(_, i) in &scratch.pairs[..k] {
                scratch.selected[i as usize] = true;
            }
        }
        // Stage 2: per class, min over rows — exact f32 for candidates,
        // the coarse estimate otherwise.
        distances.clear();
        scratch.row_buf.resize(self.dim(), 0.0);
        for (c, proto) in self.prototypes.iter().enumerate() {
            let ppos = self.index.proto_pos(c);
            let mut d = if scratch.selected[ppos] {
                self.exact_internal(embedding, proto, squared)
            } else {
                scratch.coarse[ppos]
            };
            for &pos in self.index.exemplar_positions(c) {
                let pos = pos as usize;
                let rd = if scratch.selected[pos] {
                    self.index.dequantize_into(pos, &mut scratch.row_buf);
                    self.exact_internal(embedding, &scratch.row_buf, squared)
                } else {
                    scratch.coarse[pos]
                };
                d = d.min(rd);
            }
            distances.push(if matches!(self.metric, DistanceMetric::Euclidean) {
                d.sqrt()
            } else {
                d
            });
        }
    }

    /// Exact distance in the two-stage path's internal domain (squared
    /// for the Euclidean metrics, the metric itself otherwise).
    fn exact_internal(&self, a: &[f32], b: &[f32], squared: bool) -> f32 {
        if squared {
            vector::squared_euclidean(a, b)
        } else {
            self.metric.eval(a, b)
        }
    }
}

// Serde: hand-written so the wire format stays exactly what the derived
// impl produced before the index existed — `metric`/`labels`/`prototypes`
// in order, with the quantized exemplars as a fourth field *only when
// any exist*. Exemplar-free classifiers therefore serialize
// byte-identically to pre-index builds (the delta apply→revert
// byte-identity property depends on this), and pre-index JSON decodes
// into an exemplar-free classifier.
impl Serialize for NcmClassifier {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("metric".to_string(), self.metric.to_value()),
            ("labels".to_string(), self.labels.to_value()),
            ("prototypes".to_string(), self.prototypes.to_value()),
        ];
        if (0..self.labels.len()).any(|c| self.index.exemplar_count(c) > 0) {
            let classes: Vec<Value> = (0..self.labels.len())
                .map(|c| {
                    let mut scales = Vec::with_capacity(self.index.exemplar_count(c));
                    let mut rows = Vec::with_capacity(self.index.exemplar_count(c));
                    for &pos in self.index.exemplar_positions(c) {
                        let (q, scale) = self.index.row_quantized(pos as usize);
                        scales.push(scale);
                        rows.push(q.to_vec());
                    }
                    Value::Map(vec![
                        ("scales".to_string(), scales.to_value()),
                        ("rows".to_string(), rows.to_value()),
                    ])
                })
                .collect();
            fields.push(("exemplars".to_string(), Value::Seq(classes)));
        }
        Value::Map(fields)
    }
}

impl Deserialize for NcmClassifier {
    fn from_value(v: &Value) -> serde::Result<Self> {
        let m = v
            .as_map()
            .ok_or_else(|| serde::Error::expected("map", "NcmClassifier"))?;
        let metric: DistanceMetric = __get_field(m, "metric", "NcmClassifier")?;
        let labels: Vec<String> = __get_field(m, "labels", "NcmClassifier")?;
        let prototypes: Vec<Vec<f32>> = __get_field(m, "prototypes", "NcmClassifier")?;
        let mut ncm = NcmClassifier::new(metric, labels.into_iter().zip(prototypes).collect())
            .map_err(|e| serde::Error::custom(format!("NcmClassifier: {e}")))?;
        #[derive(Deserialize)]
        struct ClassExemplars {
            scales: Vec<f32>,
            rows: Vec<Vec<i8>>,
        }
        if let Some(classes) = __opt_field::<Vec<ClassExemplars>>(m, "exemplars", "NcmClassifier")?
        {
            if classes.len() != ncm.labels.len() {
                return Err(serde::Error::custom(format!(
                    "NcmClassifier: {} exemplar classes for {} labels",
                    classes.len(),
                    ncm.labels.len()
                )));
            }
            let dim = ncm.dim();
            for (c, class) in classes.into_iter().enumerate() {
                if class.scales.len() != class.rows.len()
                    || class.rows.iter().any(|r| r.len() != dim)
                {
                    return Err(serde::Error::custom(
                        "NcmClassifier: malformed exemplar block".to_string(),
                    ));
                }
                for (q, scale) in class.rows.iter().zip(class.scales) {
                    ncm.index.push_exemplar_quantized(c, q, scale);
                }
            }
        }
        Ok(ncm)
    }
}

// Logical equality: metric, labels, prototypes and per-class exemplar
// contents. Index row *positions* are derived state (they depend on the
// mutation history) and deliberately don't participate, so a serde
// round-trip — which rebuilds the pool in class order — compares equal.
impl PartialEq for NcmClassifier {
    fn eq(&self, other: &Self) -> bool {
        if self.metric != other.metric
            || self.labels != other.labels
            || self.prototypes != other.prototypes
        {
            return false;
        }
        (0..self.labels.len()).all(|c| {
            let (a, b) = (&self.index, &other.index);
            a.exemplar_count(c) == b.exemplar_count(c)
                && a.exemplar_positions(c)
                    .iter()
                    .zip(b.exemplar_positions(c))
                    .all(|(&pa, &pb)| {
                        a.row_quantized(pa as usize) == b.row_quantized(pb as usize)
                    })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_class() -> NcmClassifier {
        NcmClassifier::new(
            DistanceMetric::Euclidean,
            vec![
                ("walk".into(), vec![0.0, 0.0]),
                ("run".into(), vec![10.0, 0.0]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn classifies_by_nearest_prototype() {
        let ncm = two_class();
        let d = ncm.classify(&[1.0, 0.5]).unwrap();
        assert_eq!(d.label, "walk");
        assert!(d.confidence > 0.5);
        assert_eq!(d.distances.len(), 2);
        let d2 = ncm.classify(&[9.0, 0.0]).unwrap();
        assert_eq!(d2.label, "run");
    }

    #[test]
    fn confidence_degrades_toward_boundary() {
        let ncm = two_class();
        let near = ncm.classify(&[0.5, 0.0]).unwrap();
        let boundary = ncm.classify(&[5.0, 0.0]).unwrap();
        assert!(near.confidence > boundary.confidence);
        assert!((boundary.confidence - 0.5).abs() < 0.01);
    }

    #[test]
    fn construction_validation() {
        assert!(matches!(
            NcmClassifier::new(DistanceMetric::Euclidean, vec![]),
            Err(CoreError::InsufficientData(_))
        ));
        assert!(matches!(
            NcmClassifier::new(
                DistanceMetric::Euclidean,
                vec![("a".into(), vec![1.0]), ("b".into(), vec![1.0, 2.0])]
            ),
            Err(CoreError::InvalidConfig(_))
        ));
        assert!(NcmClassifier::new(
            DistanceMetric::Euclidean,
            vec![("a".into(), vec![])]
        )
        .is_err());
    }

    #[test]
    fn upsert_adds_class_without_disturbing_others() {
        let mut ncm = two_class();
        ncm.upsert_prototype("gesture_hi", vec![0.0, 10.0]).unwrap();
        assert_eq!(ncm.num_classes(), 3);
        // Old classes still classify identically.
        assert_eq!(ncm.classify(&[1.0, 0.0]).unwrap().label, "walk");
        assert_eq!(ncm.classify(&[0.0, 9.0]).unwrap().label, "gesture_hi");
        // Replace an existing prototype.
        ncm.upsert_prototype("walk", vec![-5.0, 0.0]).unwrap();
        assert_eq!(ncm.prototype("walk").unwrap(), &[-5.0, 0.0]);
        assert_eq!(ncm.num_classes(), 3);
        // Dimension mismatch rejected.
        assert!(ncm.upsert_prototype("bad", vec![1.0]).is_err());
    }

    #[test]
    fn remove_class() {
        let mut ncm = two_class();
        assert!(ncm.remove("walk"));
        assert!(!ncm.remove("walk"));
        assert_eq!(ncm.num_classes(), 1);
        assert_eq!(ncm.classify(&[0.0, 0.0]).unwrap().label, "run");
    }

    #[test]
    fn dimension_checked_on_classify() {
        let ncm = two_class();
        assert!(ncm.classify(&[1.0]).is_err());
    }

    #[test]
    fn cosine_metric_ignores_magnitude() {
        let ncm = NcmClassifier::new(
            DistanceMetric::Cosine,
            vec![
                ("x".into(), vec![1.0, 0.0]),
                ("y".into(), vec![0.0, 1.0]),
            ],
        )
        .unwrap();
        // A huge vector along x still lands on x.
        assert_eq!(ncm.classify(&[1000.0, 1.0]).unwrap().label, "x");
        assert_eq!(ncm.metric(), DistanceMetric::Cosine);
    }

    #[test]
    fn accessors() {
        let ncm = two_class();
        assert_eq!(ncm.dim(), 2);
        assert_eq!(ncm.labels(), &["walk".to_string(), "run".to_string()]);
        assert!(ncm.prototype("nope").is_none());
        assert_eq!(ncm.num_rows(), 2);
        assert_eq!(ncm.exemplar_count("walk"), Some(0));
        assert_eq!(ncm.exemplar_count("nope"), None);
    }

    #[test]
    fn serde_roundtrip() {
        let ncm = two_class();
        let json = serde_json::to_string(&ncm).unwrap();
        let back: NcmClassifier = serde_json::from_str(&json).unwrap();
        assert_eq!(ncm, back);
    }

    #[test]
    fn serde_roundtrip_with_exemplars() {
        let mut ncm = two_class();
        let mut rows = Matrix::zeros(3, 2);
        rows.row_mut(0).copy_from_slice(&[0.5, 0.25]);
        rows.row_mut(1).copy_from_slice(&[-0.5, 0.125]);
        rows.row_mut(2).copy_from_slice(&[0.0, 1.0]);
        ncm.set_class_exemplars("walk", &rows).unwrap();
        let json = serde_json::to_string(&ncm).unwrap();
        let back: NcmClassifier = serde_json::from_str(&json).unwrap();
        assert_eq!(ncm, back);
        assert_eq!(back.exemplar_count("walk"), Some(3));
        // Round-tripped exemplars classify identically (dense path).
        let probe = [0.45, 0.3];
        assert_eq!(ncm.classify(&probe).unwrap(), back.classify(&probe).unwrap());
    }

    #[test]
    fn exemplar_free_wire_format_is_pre_index() {
        // The serialized form of an exemplar-free classifier must not
        // mention the index at all — old decoders (and byte-equality
        // checks against pre-index snapshots) see the classic 3 fields.
        let json = serde_json::to_string(&two_class()).unwrap();
        assert!(json.contains("\"metric\""));
        assert!(json.contains("\"prototypes\""));
        assert!(!json.contains("exemplars"));
    }

    #[test]
    fn exemplars_pull_classification_toward_class_members() {
        let mut ncm = two_class();
        // A "walk" exemplar far from the walk prototype but near the
        // probe: nearest-representative scoring must use it.
        let mut rows = Matrix::zeros(1, 2);
        rows.row_mut(0).copy_from_slice(&[8.0, 8.0]);
        ncm.set_class_exemplars("walk", &rows).unwrap();
        let d = ncm.classify(&[8.0, 7.0]).unwrap();
        assert_eq!(d.label, "walk");
        // Dropping the exemplars restores prototype-only behavior.
        ncm.set_class_exemplars("walk", &Matrix::default()).unwrap();
        assert_eq!(ncm.num_rows(), 2);
        assert_eq!(ncm.classify(&[8.0, 7.0]).unwrap().label, "run");
    }

    #[test]
    fn exemplar_validation() {
        let mut ncm = two_class();
        let rows = Matrix::zeros(1, 3);
        assert!(ncm.set_class_exemplars("walk", &rows).is_err());
        assert!(ncm
            .set_class_exemplars("nope", &Matrix::zeros(1, 2))
            .is_err());
    }

    #[test]
    fn classify_into_matches_classify() {
        let ncm = two_class();
        let mut scratch = NcmScratch::new();
        let mut out = NcmDecision::default();
        for probe in [[1.0, 0.5], [9.0, 0.0], [5.0, 5.0]] {
            ncm.classify_into(&probe, &mut scratch, &mut out).unwrap();
            assert_eq!(out, ncm.classify(&probe).unwrap());
        }
    }

    #[test]
    fn open_set_rejects_far_embeddings() {
        let ncm = two_class();
        // Near the walk prototype: accepted.
        let near = ncm.classify_open_set(&[0.5, 0.0], 2.0).unwrap();
        assert_eq!(near.unwrap().label, "walk");
        // Far from everything: rejected.
        let far = ncm.classify_open_set(&[5.0, 100.0], 2.0).unwrap();
        assert!(far.is_none());
        // A huge threshold accepts anything.
        assert!(ncm
            .classify_open_set(&[5.0, 100.0], 1e9)
            .unwrap()
            .is_some());
        // Boundary is inclusive.
        assert!(ncm.classify_open_set(&[2.0, 0.0], 2.0).unwrap().is_some());
        // Dimension still checked.
        assert!(ncm.classify_open_set(&[1.0], 1.0).is_err());
    }
}
