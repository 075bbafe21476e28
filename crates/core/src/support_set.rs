//! The support set: a budgeted, per-class exemplar store.
//!
//! §3.2 item 3: "it is necessary to keep a minimal dataset to update the
//! learning model … The support set, containing a limited amount of data
//! samples which are representative for each class … This support set has
//! a two-fold mission: (i) serving to calculating the class prototypes
//! for building the NCM classifier, (ii) updating the model by combining
//! with the new activity data as training set."
//!
//! Exemplars are stored as *pre-processed feature vectors* (80 floats)
//! rather than raw windows — 33× smaller and exactly what both missions
//! need. Three selection strategies are provided for the A2 ablation:
//! random sampling, iCaRL-style herding (greedy mean-matching), and
//! streaming reservoir sampling.
//!
//! The set is resident at f32 or int8 ([`SupportSet::into_precision`]);
//! int8 rows carry one [`quantize_row`] scale each. Selection runs on the
//! f32 candidates and only the selected rows are quantised. The serde
//! form (the bundle's support-set section) is always f32: an int8 set
//! serialises dequantised rows and every decoded set is f32.

use crate::error::CoreError;
use crate::label::LabelRegistry;
use crate::Result;
use magneto_tensor::qdist::quantize_row;
use magneto_tensor::{vector, Matrix, Precision, SeededRng};
use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeMap;

/// How exemplars are chosen when a class exceeds its budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum SelectionStrategy {
    /// Uniform random subset.
    Random,
    /// Herding (Welling 2009 / iCaRL): greedily pick samples whose running
    /// mean best matches the class mean — the strongest prototype fidelity.
    #[default]
    Herding,
    /// Streaming reservoir sampling — O(1) memory for continuous capture.
    Reservoir,
}

/// Budgeted per-class feature store. Every stored row has one width.
#[derive(Debug, Clone, PartialEq)]
pub struct SupportSet {
    budget_per_class: usize,
    strategy: SelectionStrategy,
    precision: Precision,
    /// Non-empty row stores, one per class.
    classes: BTreeMap<String, Rows>,
    /// Streaming counters for reservoir sampling, per class.
    seen: BTreeMap<String, u64>,
}

/// One class's exemplars, row-major at the set's precision — the only
/// place the two precisions differ.
#[derive(Debug, Clone, PartialEq)]
enum Rows {
    F32 { dim: usize, data: Vec<f32> },
    /// i8 payload plus one scale per row.
    Int8 { dim: usize, data: Vec<i8>, scales: Vec<f32> },
}

impl Rows {
    fn new(precision: Precision, dim: usize) -> Self {
        match precision {
            Precision::F32 => Rows::F32 { dim, data: Vec::new() },
            Precision::Int8 => Rows::Int8 {
                dim,
                data: Vec::new(),
                scales: Vec::new(),
            },
        }
    }

    fn dim(&self) -> usize {
        match self {
            Rows::F32 { dim, .. } | Rows::Int8 { dim, .. } => *dim,
        }
    }

    fn len(&self) -> usize {
        match self {
            Rows::F32 { dim, data } => data.len() / dim,
            Rows::Int8 { scales, .. } => scales.len(),
        }
    }

    fn bytes(&self) -> usize {
        match self {
            Rows::F32 { data, .. } => data.len() * 4,
            Rows::Int8 { data, scales, .. } => data.len() + scales.len() * 4,
        }
    }

    fn push(&mut self, row: &[f32]) {
        match self {
            Rows::F32 { data, .. } => data.extend_from_slice(row),
            Rows::Int8 { data, scales, .. } => scales.push(quantize_row(row, data)),
        }
    }

    fn replace(&mut self, r: usize, row: &[f32]) {
        match self {
            Rows::F32 { dim, data } => data[r * *dim..(r + 1) * *dim].copy_from_slice(row),
            Rows::Int8 { dim, data, scales } => {
                // `quantize_row` appends; move the new row into slot `r`.
                scales[r] = quantize_row(row, data);
                let last = data.len() - *dim;
                data.copy_within(last.., r * *dim);
                data.truncate(last);
            }
        }
    }

    /// Row `r` as f32 (dequantised for int8) into `out`.
    fn read_into(&self, r: usize, out: &mut [f32]) {
        match self {
            Rows::F32 { dim, data } => out.copy_from_slice(&data[r * dim..(r + 1) * dim]),
            Rows::Int8 { dim, data, scales } => {
                for (o, &q) in out.iter_mut().zip(&data[r * dim..(r + 1) * dim]) {
                    *o = f32::from(q) * scales[r];
                }
            }
        }
    }

    fn to_vecs(&self) -> Vec<Vec<f32>> {
        (0..self.len())
            .map(|r| {
                let mut row = vec![0.0; self.dim()];
                self.read_into(r, &mut row);
                row
            })
            .collect()
    }
}

impl SupportSet {
    /// Create an empty f32 support set. The paper's default budget is 200
    /// observations per class.
    pub fn new(budget_per_class: usize, strategy: SelectionStrategy) -> Self {
        SupportSet {
            budget_per_class: budget_per_class.max(1),
            strategy,
            precision: Precision::F32,
            classes: BTreeMap::new(),
            seen: BTreeMap::new(),
        }
    }

    /// Convert to the requested precision: f32 → int8 quantises every
    /// row, int8 → f32 dequantises (lossy), and the same precision is the
    /// identity.
    #[must_use]
    pub fn into_precision(mut self, precision: Precision) -> Self {
        if precision != self.precision {
            self.precision = precision;
            for rows in self.classes.values_mut() {
                let mut converted = Rows::new(precision, rows.dim());
                rows.to_vecs().iter().for_each(|row| converted.push(row));
                *rows = converted;
            }
        }
        self
    }

    /// The precision rows are stored at.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Budget per class.
    pub fn budget(&self) -> usize {
        self.budget_per_class
    }

    /// Active selection strategy.
    pub fn strategy(&self) -> SelectionStrategy {
        self.strategy
    }

    /// Class labels currently stored (sorted).
    pub fn classes(&self) -> Vec<&str> {
        self.classes.keys().map(String::as_str).collect()
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// Width of every stored row; `None` while the set is empty.
    pub fn dim(&self) -> Option<usize> {
        self.classes.values().next().map(Rows::dim)
    }

    /// Exemplars stored for `label`, as owned f32 rows (dequantised on an
    /// int8 set).
    pub fn samples(&self, label: &str) -> Option<Vec<Vec<f32>>> {
        self.classes.get(label).map(Rows::to_vecs)
    }

    /// Total exemplars across classes.
    pub fn total_samples(&self) -> usize {
        self.classes.values().map(Rows::len).sum()
    }

    /// Resident bytes of stored feature data: 4 B per f32 value, or the
    /// i8 payload plus a 4 B scale per int8 row. At f32 this is the
    /// quantity the paper's "roughly 0.5 MB" estimate refers to.
    pub fn bytes(&self) -> usize {
        self.classes.values().map(Rows::bytes).sum()
    }

    /// Replace the exemplars of a class with a budget-sized selection from
    /// `samples` (used at Cloud initialisation, when learning a new class,
    /// and verbatim by calibration, which the paper describes as exactly
    /// this replacement).
    ///
    /// # Errors
    /// [`CoreError::InsufficientData`] when `samples` is empty;
    /// [`CoreError::InvalidConfig`] when a row's width is zero or differs
    /// from the other samples or from the rows already stored. Nothing is
    /// stored on error.
    pub fn set_class(
        &mut self,
        label: &str,
        samples: &[Vec<f32>],
        rng: &mut SeededRng,
    ) -> Result<()> {
        let dim = self.check_rows(label, samples)?;
        let mut rows = Rows::new(self.precision, dim);
        for i in self.select(samples, rng) {
            rows.push(&samples[i]);
        }
        self.classes.insert(label.to_string(), rows);
        self.seen.insert(label.to_string(), samples.len() as u64);
        Ok(())
    }

    /// Stream one sample into a class (reservoir semantics regardless of
    /// the configured batch strategy — streaming has no alternative).
    ///
    /// # Errors
    /// [`CoreError::InvalidConfig`] when the sample's width is zero or
    /// differs from the rows already stored; nothing is stored.
    pub fn push_sample(&mut self, label: &str, sample: &[f32], rng: &mut SeededRng) -> Result<()> {
        let dim = self.check_rows(label, std::slice::from_ref(&sample))?;
        let rows = self
            .classes
            .entry(label.to_string())
            .or_insert_with(|| Rows::new(self.precision, dim));
        let seen = self.seen.entry(label.to_string()).or_insert(0);
        *seen += 1;
        if rows.len() < self.budget_per_class {
            rows.push(sample);
        } else {
            // Classic reservoir: replace with probability budget/seen.
            let j = rng.index(*seen as usize);
            if j < self.budget_per_class {
                rows.replace(j, sample);
            }
        }
        Ok(())
    }

    /// Remove a class entirely.
    pub fn remove_class(&mut self, label: &str) -> bool {
        self.seen.remove(label);
        self.classes.remove(label).is_some()
    }

    /// Per-class arithmetic mean of the stored feature vectors.
    pub fn class_means(&self) -> BTreeMap<String, Vec<f32>> {
        let mut staged = Matrix::default();
        self.classes
            .keys()
            .filter_map(|label| {
                self.class_features_into(label, &mut staged).ok()?;
                Some((label.clone(), staged.mean_rows().ok()?))
            })
            .collect()
    }

    /// Flatten into a training `(features, labels)` pair using `registry`
    /// ids — mission (ii): the re-training set.
    ///
    /// # Errors
    /// [`CoreError::UnknownClass`] if a stored class is missing from the
    /// registry.
    pub fn training_data(&self, registry: &LabelRegistry) -> Result<(Matrix, Vec<usize>)> {
        let mut features = Matrix::default();
        let mut labels = Vec::new();
        self.training_data_into(registry, &mut features, &mut labels)?;
        Ok((features, labels))
    }

    /// [`training_data`](Self::training_data) writing into caller-provided
    /// buffers, so retraining loops can reuse one feature matrix across
    /// updates instead of re-cloning every exemplar row.
    ///
    /// # Errors
    /// [`CoreError::UnknownClass`] if a stored class is missing from the
    /// registry, [`CoreError::InsufficientData`] on an empty support set.
    pub fn training_data_into(
        &self,
        registry: &LabelRegistry,
        features: &mut Matrix,
        labels: &mut Vec<usize>,
    ) -> Result<()> {
        let dim = self
            .dim()
            .ok_or_else(|| CoreError::InsufficientData("support set is empty".into()))?;
        let total = self.total_samples();
        features.resize(total, dim);
        labels.clear();
        labels.reserve(total);
        for (label, rows) in &self.classes {
            let id = registry
                .id_of(label)
                .ok_or_else(|| CoreError::UnknownClass(label.clone()))?;
            for r in 0..rows.len() {
                rows.read_into(r, features.row_mut(labels.len()));
                labels.push(id);
            }
        }
        Ok(())
    }

    /// Stack the exemplars of one class into a caller-provided matrix —
    /// the staging step for batched prototype construction.
    ///
    /// # Errors
    /// [`CoreError::UnknownClass`] for an unstored label.
    pub fn class_features_into(&self, label: &str, out: &mut Matrix) -> Result<()> {
        let rows = self
            .classes
            .get(label)
            .ok_or_else(|| CoreError::UnknownClass(label.to_string()))?;
        out.resize(rows.len(), rows.dim());
        for r in 0..rows.len() {
            rows.read_into(r, out.row_mut(r));
        }
        Ok(())
    }

    /// The shared width of `samples` for `label`, refused unless they are
    /// non-empty, non-zero-width, and as wide as the rows already stored.
    fn check_rows(&self, label: &str, samples: &[impl AsRef<[f32]>]) -> Result<usize> {
        let dim = samples
            .first()
            .map(|s| s.as_ref().len())
            .ok_or_else(|| {
                CoreError::InsufficientData(format!("no samples for class `{label}`"))
            })?;
        let expected = self.dim().unwrap_or(dim);
        if dim == 0 || dim != expected || samples.iter().any(|s| s.as_ref().len() != dim) {
            return Err(CoreError::InvalidConfig(format!(
                "class `{label}` samples must all be {expected}-wide and non-empty"
            )));
        }
        Ok(dim)
    }

    /// Indices of the budget-sized selection from `samples`, in storage
    /// order.
    fn select(&self, samples: &[Vec<f32>], rng: &mut SeededRng) -> Vec<usize> {
        if samples.len() <= self.budget_per_class {
            return (0..samples.len()).collect();
        }
        match self.strategy {
            // Batch context: reservoir over a known set == uniform random
            // subset.
            SelectionStrategy::Random | SelectionStrategy::Reservoir => {
                rng.sample_indices(samples.len(), self.budget_per_class)
            }
            SelectionStrategy::Herding => herding_select(samples, self.budget_per_class),
        }
    }
}

/// The serialised field layout of [`SupportSet`]: rows as nested f32
/// arrays, no precision.
#[derive(Deserialize)]
struct SupportSetWire {
    budget_per_class: usize,
    strategy: SelectionStrategy,
    classes: BTreeMap<String, Vec<Vec<f32>>>,
    seen: BTreeMap<String, u64>,
}

impl Deserialize for SupportSet {
    /// Decoded rows pass the same width checks as
    /// [`set_class`](SupportSet::set_class).
    fn from_value(v: &Value) -> std::result::Result<Self, serde::Error> {
        let wire = SupportSetWire::from_value(v)?;
        let mut set = SupportSet {
            budget_per_class: wire.budget_per_class,
            strategy: wire.strategy,
            precision: Precision::F32,
            classes: BTreeMap::new(),
            seen: wire.seen,
        };
        for (label, samples) in wire.classes {
            let dim = set
                .check_rows(&label, &samples)
                .map_err(|e| serde::Error::custom(e.to_string()))?;
            let data = samples.concat();
            set.classes.insert(label, Rows::F32 { dim, data });
        }
        Ok(set)
    }
}

impl Serialize for SupportSet {
    fn to_value(&self) -> Value {
        let classes = self.classes.iter().map(|(l, rows)| (l.clone(), rows.to_vecs().to_value()));
        Value::Map(vec![
            ("budget_per_class".into(), self.budget_per_class.to_value()),
            ("strategy".into(), self.strategy.to_value()),
            ("classes".into(), Value::Map(classes.collect())),
            ("seen".into(), self.seen.to_value()),
        ])
    }
}

/// Greedy herding selection: at step k pick the sample that brings the
/// running exemplar mean closest to the true class mean.
fn herding_select(samples: &[Vec<f32>], budget: usize) -> Vec<usize> {
    let dim = samples[0].len();
    let refs: Vec<&[f32]> = samples.iter().map(Vec::as_slice).collect();
    let target = vector::mean_vector(&refs).unwrap_or_else(|| vec![0.0; dim]);
    let mut chosen: Vec<usize> = Vec::with_capacity(budget);
    let mut running_sum = vec![0.0f32; dim];
    let mut used = vec![false; samples.len()];
    for k in 0..budget.min(samples.len()) {
        let mut best_idx = usize::MAX;
        let mut best_dist = f32::INFINITY;
        for (i, s) in samples.iter().enumerate() {
            if used[i] {
                continue;
            }
            // Candidate running mean if we added sample i.
            let inv = 1.0 / (k + 1) as f32;
            let mut dist = 0.0f32;
            for d in 0..dim {
                let m = (running_sum[d] + s[d]) * inv;
                let diff = m - target[d];
                dist += diff * diff;
            }
            if dist < best_dist {
                best_dist = dist;
                best_idx = i;
            }
        }
        used[best_idx] = true;
        chosen.push(best_idx);
        for d in 0..dim {
            running_sum[d] += samples[best_idx][d];
        }
    }
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const BOTH: [Precision; 2] = [Precision::F32, Precision::Int8];

    fn gaussian_samples(n: usize, dim: usize, center: f32, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = SeededRng::new(seed);
        (0..n)
            .map(|_| (0..dim).map(|_| rng.normal_with(center, 1.0)).collect())
            .collect()
    }

    fn empty(budget: usize, strategy: SelectionStrategy, precision: Precision) -> SupportSet {
        SupportSet::new(budget, strategy).into_precision(precision)
    }

    /// `got` equals `want` exactly at f32; at int8 each value is within
    /// half a quantisation step of its own row's magnitude.
    fn assert_rows_match(precision: Precision, got: &[Vec<f32>], want: &[Vec<f32>]) {
        assert_eq!(got.len(), want.len(), "{precision:?}");
        for (g, w) in got.iter().zip(want) {
            assert_eq!(g.len(), w.len(), "{precision:?}");
            let max_abs = w.iter().fold(0.0f32, |m, v| m.max(v.abs()));
            let tol = match precision {
                Precision::F32 => 0.0,
                Precision::Int8 => max_abs / 127.0 * 0.5 + 1e-6,
            };
            for (x, y) in g.iter().zip(w) {
                assert!((x - y).abs() <= tol, "{x} vs {y} at {precision:?}");
            }
        }
    }

    #[test]
    fn budget_is_enforced() {
        let mut rng = SeededRng::new(1);
        for precision in BOTH {
            for strategy in [
                SelectionStrategy::Random,
                SelectionStrategy::Herding,
                SelectionStrategy::Reservoir,
            ] {
                let mut ss = empty(10, strategy, precision);
                ss.set_class("walk", &gaussian_samples(50, 4, 0.0, 2), &mut rng)
                    .unwrap();
                assert_eq!(ss.samples("walk").unwrap().len(), 10, "{strategy:?}");
                assert_eq!(ss.precision(), precision);
            }
        }
    }

    #[test]
    fn under_budget_keeps_everything() {
        for precision in BOTH {
            let mut rng = SeededRng::new(3);
            let mut ss = empty(100, SelectionStrategy::Herding, precision);
            let samples = gaussian_samples(7, 4, 1.0, 4);
            ss.set_class("run", &samples, &mut rng).unwrap();
            assert_rows_match(precision, &ss.samples("run").unwrap(), &samples);
        }
    }

    #[test]
    fn empty_class_rejected() {
        let mut rng = SeededRng::new(5);
        for precision in BOTH {
            let mut ss = empty(10, SelectionStrategy::Random, precision);
            assert!(matches!(
                ss.set_class("x", &[], &mut rng),
                Err(CoreError::InsufficientData(_))
            ));
        }
    }

    #[test]
    fn ragged_rows_are_refused_before_anything_is_stored() {
        for precision in BOTH {
            let mut rng = SeededRng::new(6);
            let mut ss = empty(4, SelectionStrategy::Random, precision);
            ss.set_class("walk", &gaussian_samples(6, 5, 0.0, 7), &mut rng)
                .unwrap();
            let before = ss.clone();
            let mut ragged = gaussian_samples(6, 5, 0.0, 8);
            ragged.push(vec![1.0; 3]);
            let narrower = gaussian_samples(3, 4, 0.0, 9);
            for bad in [&ragged[..], &narrower[..], &[vec![]][..]] {
                for label in ["walk", "run"] {
                    assert!(matches!(
                        ss.set_class(label, bad, &mut rng),
                        Err(CoreError::InvalidConfig(_))
                    ));
                }
            }
            assert!(ss.push_sample("walk", &[1.0; 4], &mut rng).is_err());
            assert!(ss.push_sample("run", &[1.0; 6], &mut rng).is_err());
            assert_eq!(ss, before, "{precision:?}");
        }
        // Decoding refuses what `set_class` would.
        let ragged = r#"{"budget_per_class":4,"strategy":"Random","classes":{"a":[[1.0,2.0],[3.0]]},"seen":{}}"#;
        assert!(serde_json::from_str::<SupportSet>(ragged).is_err());
        let mixed = r#"{"budget_per_class":4,"strategy":"Random","classes":{"a":[[1.0,2.0]],"b":[[3.0]]},"seen":{}}"#;
        assert!(serde_json::from_str::<SupportSet>(mixed).is_err());
    }

    #[test]
    fn herding_mean_beats_random_mean() {
        // Herding's running mean should track the class mean better than a
        // random subset of the same size.
        let samples = gaussian_samples(400, 8, 0.5, 6);
        let refs: Vec<&[f32]> = samples.iter().map(Vec::as_slice).collect();
        let target = vector::mean_vector(&refs).unwrap();
        for precision in BOTH {
            let mut rng = SeededRng::new(7);
            let mut herd = empty(10, SelectionStrategy::Herding, precision);
            herd.set_class("c", &samples, &mut rng).unwrap();
            let herd_err = vector::euclidean(&herd.class_means()["c"], &target);

            // Average random error over a few draws.
            let mut total_rand_err = 0.0;
            for s in 0..5 {
                let mut rng2 = SeededRng::new(100 + s);
                let mut rand = empty(10, SelectionStrategy::Random, precision);
                rand.set_class("c", &samples, &mut rng2).unwrap();
                total_rand_err += vector::euclidean(&rand.class_means()["c"], &target);
            }
            let rand_err = total_rand_err / 5.0;
            assert!(
                herd_err < rand_err * 0.5,
                "{precision:?}: herding err {herd_err}, random err {rand_err}"
            );
        }
    }

    #[test]
    fn reservoir_streaming_respects_budget_and_distribution() {
        for precision in BOTH {
            let mut rng = SeededRng::new(8);
            let mut ss = empty(20, SelectionStrategy::Reservoir, precision);
            for i in 0..1000 {
                ss.push_sample("s", &[i as f32], &mut rng).unwrap();
            }
            let stored = ss.samples("s").unwrap();
            assert_eq!(stored.len(), 20);
            // A reservoir over 0..1000 should contain late elements too.
            let max = stored.iter().map(|v| v[0]).fold(0.0f32, f32::max);
            assert!(max > 500.0, "reservoir biased to early items: max {max}");
            assert_eq!(ss.total_samples(), 20);
        }
    }

    #[test]
    fn class_means_and_training_data() {
        for precision in BOTH {
            let mut rng = SeededRng::new(9);
            let mut ss = empty(50, SelectionStrategy::Random, precision);
            ss.set_class("a", &vec![vec![1.0, 2.0]; 5], &mut rng).unwrap();
            ss.set_class("b", &vec![vec![3.0, 4.0]; 3], &mut rng).unwrap();
            let means = ss.class_means();
            assert_rows_match(precision, &[means["a"].clone()], &[vec![1.0, 2.0]]);
            assert_rows_match(precision, &[means["b"].clone()], &[vec![3.0, 4.0]]);

            let registry = LabelRegistry::from_labels(["a", "b"]);
            let (features, labels) = ss.training_data(&registry).unwrap();
            assert_eq!(features.shape(), (8, 2));
            assert_eq!(labels.iter().filter(|&&l| l == 0).count(), 5);
            assert_eq!(labels.iter().filter(|&&l| l == 1).count(), 3);
            let stacked: Vec<Vec<f32>> = (0..8).map(|r| features.row(r).to_vec()).collect();
            let mut expected = ss.samples("a").unwrap();
            expected.extend(ss.samples("b").unwrap());
            assert_eq!(stacked, expected, "training rows are the stored rows");

            // Missing registry entry is an error.
            let incomplete = LabelRegistry::from_labels(["a"]);
            assert!(matches!(
                ss.training_data(&incomplete),
                Err(CoreError::UnknownClass(_))
            ));
            assert!(matches!(
                empty(4, SelectionStrategy::Random, precision).training_data(&registry),
                Err(CoreError::InsufficientData(_))
            ));
        }
    }

    #[test]
    fn class_features_into_stacks_rows_at_both_precisions() {
        for precision in BOTH {
            let mut rng = SeededRng::new(10);
            let mut ss = empty(8, SelectionStrategy::Herding, precision);
            ss.set_class("walk", &gaussian_samples(20, 6, 0.0, 11), &mut rng)
                .unwrap();
            ss.set_class("run", &gaussian_samples(4, 6, 2.0, 12), &mut rng)
                .unwrap();
            let mut staged = Matrix::default();
            for (label, n) in [("walk", 8), ("run", 4)] {
                ss.class_features_into(label, &mut staged).unwrap();
                assert_eq!(staged.shape(), (n, 6));
                let rows: Vec<Vec<f32>> = (0..n).map(|r| staged.row(r).to_vec()).collect();
                assert_eq!(rows, ss.samples(label).unwrap());
            }
            assert!(matches!(
                ss.class_features_into("missing", &mut staged),
                Err(CoreError::UnknownClass(_))
            ));
        }
    }

    #[test]
    fn byte_accounting_matches_paper_arithmetic() {
        // 200 exemplars x 80 f32 features per class; five classes ≈
        // 0.3 MB total, within the paper's "roughly 0.5 MB" envelope. An
        // int8 row costs its 80 i8 values plus a 4 B scale.
        for (precision, row_bytes) in [(Precision::F32, 80 * 4), (Precision::Int8, 80 + 4)] {
            let mut rng = SeededRng::new(10);
            let mut ss = empty(200, SelectionStrategy::Random, precision);
            for label in ["drive", "e_scooter", "run", "still", "walk"] {
                ss.set_class(label, &gaussian_samples(200, 80, 0.0, 11), &mut rng)
                    .unwrap();
            }
            assert_eq!(ss.bytes(), 5 * 200 * row_bytes);
            let mb = ss.bytes() as f64 / (1024.0 * 1024.0);
            assert!(mb < 0.5, "support set {mb:.2} MiB");
            assert_eq!(ss.num_classes(), 5);
            assert_eq!(ss.classes().len(), 5);
        }
    }

    #[test]
    fn remove_and_replace_class() {
        for precision in BOTH {
            let mut rng = SeededRng::new(12);
            let mut ss = empty(10, SelectionStrategy::Random, precision);
            ss.set_class("walk", &gaussian_samples(5, 4, 0.0, 13), &mut rng)
                .unwrap();
            assert!(ss.remove_class("walk"));
            assert!(!ss.remove_class("walk"));
            assert!(ss.samples("walk").is_none());

            // Calibration path: replace with user-specific data.
            ss.set_class("walk", &gaussian_samples(5, 4, 10.0, 14), &mut rng)
                .unwrap();
            let mean = &ss.class_means()["walk"];
            assert!(mean[0] > 5.0, "replacement data should dominate");
        }
    }

    #[test]
    fn quantized_support_round_trip_error_bounded() {
        let mut rng = SeededRng::new(5);
        let mut set = SupportSet::new(16, SelectionStrategy::Herding);
        set.set_class("walk", &gaussian_samples(12, 8, 0.0, 6), &mut rng)
            .unwrap();
        set.set_class("run", &gaussian_samples(10, 8, 0.0, 7), &mut rng)
            .unwrap();
        let q = set.clone().into_precision(Precision::Int8);
        assert_eq!(q.precision(), Precision::Int8);
        assert_eq!(q.num_classes(), 2);
        assert_eq!(q.total_samples(), set.total_samples());
        assert_eq!(q.budget(), 16);
        assert_eq!(q.strategy(), SelectionStrategy::Herding);
        for label in ["walk", "run"] {
            let orig = set.samples(label).unwrap();
            assert_rows_match(Precision::Int8, &q.samples(label).unwrap(), &orig);
        }
        // Back to f32 is the dequantised set; f32 → f32 is the identity.
        let back = q.clone().into_precision(Precision::F32);
        assert_eq!(back.precision(), Precision::F32);
        assert_eq!(back.samples("walk"), q.samples("walk"));
        assert_eq!(set.clone().into_precision(Precision::F32), set);
    }

    #[test]
    fn quantized_support_is_roughly_quarter_size() {
        let mut rng = SeededRng::new(8);
        let mut set = SupportSet::new(32, SelectionStrategy::Random);
        for label in ["a", "b", "c"] {
            set.set_class(label, &gaussian_samples(32, 80, 0.0, 9), &mut rng)
                .unwrap();
        }
        let q = set.clone().into_precision(Precision::Int8);
        let ratio = q.bytes() as f64 / set.bytes() as f64;
        assert!(ratio < 0.30, "quantised support ratio {ratio:.3}");
    }

    #[test]
    fn zero_rows_quantize_without_dividing_by_zero() {
        let zeros = vec![vec![0.0f32; 6]; 3];
        let mut rng = SeededRng::new(15);
        let mut quantised = empty(4, SelectionStrategy::Random, Precision::Int8);
        quantised.set_class("still", &zeros, &mut rng).unwrap();
        let mut f32_set = SupportSet::new(4, SelectionStrategy::Random);
        f32_set.set_class("still", &zeros, &mut rng).unwrap();
        for q in [quantised, f32_set.into_precision(Precision::Int8)] {
            assert_eq!(q.samples("still").unwrap(), zeros);
        }
    }

    #[test]
    fn serde_roundtrip() {
        let mut rng = SeededRng::new(15);
        let mut ss = SupportSet::new(5, SelectionStrategy::Herding);
        ss.set_class("x", &gaussian_samples(8, 3, 0.0, 16), &mut rng)
            .unwrap();
        let json = serde_json::to_string(&ss).unwrap();
        let back: SupportSet = serde_json::from_str(&json).unwrap();
        assert_eq!(ss, back);

        // An int8 set serialises as its dequantised f32 form and decodes
        // as f32: the wire never carries int8 rows.
        let q = ss.into_precision(Precision::Int8);
        let dequantised = q.clone().into_precision(Precision::F32);
        let json = serde_json::to_string(&q).unwrap();
        assert_eq!(json, serde_json::to_string(&dequantised).unwrap());
        let back: SupportSet = serde_json::from_str(&json).unwrap();
        assert_eq!(back, dequantised);
    }

    /// The support-set section of the bundle wire format, pinned.
    #[test]
    fn f32_wire_json_is_golden() {
        let mut rng = SeededRng::new(1);
        let mut ss = SupportSet::new(4, SelectionStrategy::Herding);
        ss.set_class("walk", &[vec![1.0, 2.0, -0.1], vec![0.0, 0.25, 7.5]], &mut rng)
            .unwrap();
        ss.set_class("run", &[vec![0.5, -1.25, 3.0]], &mut rng).unwrap();
        let golden = concat!(
            r#"{"budget_per_class":4,"strategy":"Herding","#,
            r#""classes":{"run":[[0.5,-1.25,3.0]],"walk":[[1.0,2.0,-0.10000000149011612],[0.0,0.25,7.5]]},"#,
            r#""seen":{"run":1,"walk":2}}"#
        );
        assert_eq!(serde_json::to_string(&ss).unwrap(), golden);
        assert_eq!(serde_json::from_str::<SupportSet>(golden).unwrap(), ss);
    }

    #[test]
    fn into_precision_keeps_metadata() {
        let mut rng = SeededRng::new(13);
        let mut set = SupportSet::new(8, SelectionStrategy::Random);
        set.set_class("walk", &gaussian_samples(6, 5, 0.0, 14), &mut rng)
            .unwrap();
        let q = set.clone().into_precision(Precision::Int8);
        for s in [&set, &q] {
            assert_eq!(s.classes(), vec!["walk"]);
            assert_eq!(s.num_classes(), 1);
            assert_eq!(s.total_samples(), 6);
            assert_eq!(s.budget(), 8);
            assert_eq!(s.dim(), Some(5));
            assert_eq!(s.samples("walk").unwrap().len(), 6);
        }
        assert!(q.bytes() < set.bytes() / 2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// An int8 set holds exactly what `quantize_row` makes of each
        /// row — i8 payload plus a 4 B scale — whether rows were stored
        /// at int8 or quantised from an f32 set.
        #[test]
        fn int8_rows_and_bytes_match_quantize_row(
            (dim, rows) in (1usize..12).prop_flat_map(|dim| {
                let row = prop::collection::vec(
                    (-40i32..=40).prop_map(|v| if v % 5 == 0 { 0.0 } else { v as f32 * 0.37 }),
                    dim,
                );
                (Just(dim), prop::collection::vec(row, 1..10))
            }),
        ) {
            let mut rng = SeededRng::new(0);
            let mut stored = empty(16, SelectionStrategy::Herding, Precision::Int8);
            stored.set_class("c", &rows, &mut rng).unwrap();
            let mut f32_set = SupportSet::new(16, SelectionStrategy::Herding);
            f32_set.set_class("c", &rows, &mut rng).unwrap();
            let converted = f32_set.into_precision(Precision::Int8);

            let reference: Vec<Vec<f32>> = rows
                .iter()
                .map(|row| {
                    let mut q = Vec::new();
                    let scale = quantize_row(row, &mut q);
                    q.iter().map(|&v| f32::from(v) * scale).collect()
                })
                .collect();
            for set in [&stored, &converted] {
                let got = set.samples("c").unwrap();
                prop_assert_eq!(got.len(), reference.len());
                for (g, r) in got.iter().zip(&reference) {
                    let g: Vec<u32> = g.iter().map(|v| v.to_bits()).collect();
                    let r: Vec<u32> = r.iter().map(|v| v.to_bits()).collect();
                    prop_assert_eq!(g, r);
                }
                prop_assert_eq!(set.bytes(), rows.len() * (dim + 4));
            }
        }
    }
}
