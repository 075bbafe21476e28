//! The Siamese wrapper: one shared backbone, two-view batches, optional
//! distillation towards a table of teacher embeddings.
//!
//! "For learning new data on the Edge … we adopt the same base model as
//! the Cloud Initialization, i.e., Siamese Network with contrastive loss
//! … To handle the Catastrophic Forgetting issue, we jointly optimize the
//! model with contrastive loss and distillation loss." (§3.3)

use crate::error::NnError;
use crate::loss::{contrastive_loss_into, distillation_loss_into};
use crate::network::{ForwardCache, Gradients, Mlp};
use crate::optimizer::Optimizer;
use crate::pairs::PairSample;
use crate::Result;
use magneto_tensor::{Exec, Matrix, Precision, SeededRng, Workspace};
use serde::{Deserialize, Serialize};

/// A Siamese network: a single backbone applied to both views of each
/// pair (weight sharing is implicit — there is only one set of weights).
///
/// This is also the deployed model: its layers hold f32 or int8 weights
/// ([`into_precision`](Self::into_precision)), and embedding runs at
/// whatever precision each layer holds. Training needs f32 layers; a
/// train step on a network with an int8 layer returns
/// [`NnError::Int8Weights`] and changes nothing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SiameseNetwork {
    backbone: Mlp,
    /// Contrastive margin `m`: dissimilar pairs are pushed at least this
    /// far apart in the embedding space.
    pub margin: f32,
}

/// Loss breakdown for one training step.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StepLoss {
    /// Contrastive component.
    pub contrastive: f32,
    /// Distillation component (already weighted).
    pub distillation: f32,
}

impl StepLoss {
    /// Total optimised loss.
    pub fn total(&self) -> f32 {
        self.contrastive + self.distillation
    }
}

/// Reusable scratch memory for training steps.
///
/// Owns every temporary a train step needs — the stacked input batch, the
/// forward cache, gradient storage and a [`Workspace`] for the kernels —
/// so that a trainer creating one `TrainScratch` before its epoch loop
/// performs no per-step heap allocation once shapes have stabilised.
#[derive(Debug, Default)]
pub struct TrainScratch {
    ws: Workspace,
    cache: ForwardCache,
    grads: Gradients,
    stacked: Matrix,
    emb_a: Matrix,
    emb_b: Matrix,
    grad_a: Matrix,
    grad_b: Matrix,
    grad_out: Matrix,
    teacher_emb: Matrix,
    distill_grad: Matrix,
}

impl TrainScratch {
    /// Empty scratch; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        TrainScratch::default()
    }

    /// Scratch whose kernels run on the given execution context (thread
    /// pool + kernel plan). Training steps drawing from this scratch
    /// dispatch their GEMMs across the context's pool; results are
    /// bit-identical to the sequential path at any thread count.
    pub fn with_exec(exec: Exec) -> Self {
        let mut scratch = TrainScratch::default();
        scratch.ws.set_exec(exec);
        scratch
    }

    /// The execution context train steps using this scratch run on.
    pub fn exec(&self) -> &Exec {
        self.ws.exec()
    }

    /// The micro-kernel backend train-step GEMMs dispatch to (scalar /
    /// avx2 / neon) — surfaced for banners and telemetry.
    pub fn backend(&self) -> magneto_tensor::Backend {
        self.ws.backend()
    }

    /// Swap the execution context (e.g. after installing a new global
    /// plan).
    pub fn set_exec(&mut self, exec: Exec) {
        self.ws.set_exec(exec);
    }
}

impl SiameseNetwork {
    /// Wrap a backbone with the given contrastive margin.
    pub fn new(backbone: Mlp, margin: f32) -> Self {
        SiameseNetwork { backbone, margin }
    }

    /// Build the paper's backbone (`80→1024→512→128→64→128`) with margin
    /// 1.0.
    ///
    /// # Errors
    /// Never for the fixed dims; fallible for uniformity.
    pub fn paper_default(rng: &mut SeededRng) -> Result<Self> {
        Ok(SiameseNetwork::new(Mlp::paper_backbone(rng)?, 1.0))
    }

    /// The shared backbone.
    pub fn backbone(&self) -> &Mlp {
        &self.backbone
    }

    /// Consume, returning the backbone.
    pub fn into_backbone(self) -> Mlp {
        self.backbone
    }

    /// Layer widths, input first.
    pub fn dims(&self) -> Vec<usize> {
        self.backbone.dims()
    }

    /// The precision the backbone executes at ([`Mlp::precision`]).
    pub fn precision(&self) -> Precision {
        self.backbone.precision()
    }

    /// Bytes needed to keep the parameters resident at their precision.
    pub fn resident_bytes(&self) -> usize {
        self.backbone.resident_bytes()
    }

    /// `true` when the margin and every float parameter are finite — the
    /// post-training weight check of the transactional update path.
    pub fn all_finite(&self) -> bool {
        self.margin.is_finite() && self.backbone.all_finite()
    }

    /// Convert the backbone to `precision` in place, one layer at a time
    /// ([`Mlp::set_precision`]).
    ///
    /// # Errors
    /// As [`Mlp::set_precision`].
    pub fn set_precision(&mut self, precision: Precision) -> Result<()> {
        self.backbone.set_precision(precision)
    }

    /// [`set_precision`](Self::set_precision) on an owned network; the
    /// margin is kept, and same-precision conversions are the identity.
    ///
    /// # Errors
    /// As [`Mlp::set_precision`].
    pub fn into_precision(mut self, precision: Precision) -> Result<Self> {
        self.set_precision(precision)?;
        Ok(self)
    }

    /// Embed a batch of feature rows.
    ///
    /// # Errors
    /// Shape mismatch on malformed input.
    pub fn embed(&self, features: &Matrix) -> Result<Matrix> {
        self.backbone.forward(features)
    }

    /// Embed a batch of feature rows into a caller-owned output matrix,
    /// drawing hidden-layer scratch from `ws` — the allocation-free path
    /// batch embedding and streaming inference run on.
    ///
    /// # Errors
    /// Shape mismatch on malformed input.
    pub fn embed_into(&self, features: &Matrix, out: &mut Matrix, ws: &mut Workspace) -> Result<()> {
        self.backbone.forward_into(features, out, ws)
    }

    /// Embed every row of `features` into `out` (row `r` ↦ row `r`),
    /// running the forward on at most `chunk_rows` rows at a time with
    /// staging drawn from `scratch` — so the scratch workspace grows no
    /// larger than a train step of that many rows needs. This is how the
    /// trainer builds its distillation table: every GEMM row is
    /// bit-identical whatever batch it runs in, so each row equals the
    /// embedding a per-step forward of any batch holding it would give.
    ///
    /// # Errors
    /// Shape mismatch on malformed input.
    pub(crate) fn embed_chunked_into(
        &self,
        features: &Matrix,
        chunk_rows: usize,
        out: &mut Matrix,
        scratch: &mut TrainScratch,
    ) -> Result<()> {
        let (rows, cols) = features.shape();
        let chunk_rows = chunk_rows.max(1);
        out.resize(rows, self.backbone.output_dim());
        let mut r0 = 0;
        while r0 < rows {
            let r1 = (r0 + chunk_rows).min(rows);
            scratch.stacked.resize(r1 - r0, cols);
            scratch
                .stacked
                .as_mut_slice()
                .copy_from_slice(&features.as_slice()[r0 * cols..r1 * cols]);
            self.backbone
                .forward_into(&scratch.stacked, &mut scratch.teacher_emb, &mut scratch.ws)?;
            let width = out.cols();
            out.as_mut_slice()[r0 * width..r1 * width]
                .copy_from_slice(scratch.teacher_emb.as_slice());
            r0 = r1;
        }
        Ok(())
    }

    /// Embed one feature vector.
    ///
    /// # Errors
    /// Shape mismatch on malformed input.
    pub fn embed_one(&self, features: &[f32]) -> Result<Vec<f32>> {
        self.backbone.embed_one(features)
    }

    /// One optimisation step on a batch of pairs.
    ///
    /// `features` holds all samples (one per row); `pairs` indexes into
    /// it. When `teacher` is provided it is `(table, weight)`: row `r` of
    /// `table` is the teacher's embedding of feature row `r`, and an
    /// embedding-distillation term with that weight is added over the rows
    /// referenced by the batch, anchoring the new embedding space to the
    /// pre-update one.
    ///
    /// Returns the loss breakdown at the sampled batch.
    ///
    /// # Errors
    /// [`NnError::InvalidBatch`] on empty pairs or out-of-range indices.
    pub fn train_step(
        &mut self,
        features: &Matrix,
        pairs: &[PairSample],
        optimizer: &mut dyn Optimizer,
        teacher: Option<(&Matrix, f32)>,
        grad_clip: f32,
    ) -> Result<StepLoss> {
        self.train_step_masked(features, pairs, optimizer, teacher, None, grad_clip)
    }

    /// [`train_step`](Self::train_step) with a per-sample distillation
    /// mask.
    ///
    /// `distill_mask[r]` says whether feature row `r` should be anchored
    /// to the teacher. During incremental learning the mask selects
    /// *old-class* rows only (Learning-without-Forgetting style): the
    /// teacher knows nothing useful about the brand-new class, and
    /// anchoring its rows would fight the contrastive term that is trying
    /// to carve out space for it.
    ///
    /// # Errors
    /// [`NnError::InvalidBatch`] on empty pairs, out-of-range indices or a
    /// mask of the wrong length.
    pub fn train_step_masked(
        &mut self,
        features: &Matrix,
        pairs: &[PairSample],
        optimizer: &mut dyn Optimizer,
        teacher: Option<(&Matrix, f32)>,
        distill_mask: Option<&[bool]>,
        grad_clip: f32,
    ) -> Result<StepLoss> {
        let mut scratch = TrainScratch::new();
        self.train_step_masked_with(
            features,
            pairs,
            optimizer,
            teacher,
            distill_mask,
            grad_clip,
            &mut scratch,
        )
    }

    /// [`train_step_masked`](Self::train_step_masked) drawing every
    /// temporary from a caller-owned [`TrainScratch`]. The pair batch is
    /// assembled by copying feature rows straight into the scratch's
    /// stacked `(2n, dim)` matrix and run through the backbone as a single
    /// batched matmul chain per layer.
    ///
    /// # Errors
    /// [`NnError::InvalidBatch`] on empty pairs, out-of-range indices or a
    /// mask of the wrong length.
    #[allow(clippy::too_many_arguments)] // mirrors train_step_masked
    pub fn train_step_masked_with(
        &mut self,
        features: &Matrix,
        pairs: &[PairSample],
        optimizer: &mut dyn Optimizer,
        teacher: Option<(&Matrix, f32)>,
        distill_mask: Option<&[bool]>,
        grad_clip: f32,
        scratch: &mut TrainScratch,
    ) -> Result<StepLoss> {
        if pairs.is_empty() {
            return Err(NnError::InvalidBatch("empty pair batch".into()));
        }
        check_distill_inputs(features.rows(), teacher, distill_mask)?;
        let n = pairs.len();
        for p in pairs {
            if p.i >= features.rows() || p.j >= features.rows() {
                return Err(NnError::InvalidBatch(format!(
                    "pair index ({}, {}) out of range for {} rows",
                    p.i,
                    p.j,
                    features.rows()
                )));
            }
        }
        let same: Vec<bool> = pairs.iter().map(|p| p.same).collect();

        // One forward pass over the stacked views; the backbone is shared,
        // so gradients from both views accumulate naturally. Rows are
        // copied directly into the reusable stacked batch — no
        // select_rows/vstack intermediates.
        scratch.stacked.resize(2 * n, features.cols());
        for (r, p) in pairs.iter().enumerate() {
            scratch.stacked.row_mut(r).copy_from_slice(features.row(p.i));
            scratch
                .stacked
                .row_mut(n + r)
                .copy_from_slice(features.row(p.j));
        }
        self.backbone
            .forward_cached_into(&scratch.stacked, &mut scratch.cache, &mut scratch.ws)?;

        let emb_dim = self.backbone.output_dim();
        scratch.emb_a.resize(n, emb_dim);
        scratch.emb_b.resize(n, emb_dim);
        for r in 0..n {
            scratch
                .emb_a
                .row_mut(r)
                .copy_from_slice(scratch.cache.output.row(r));
            scratch
                .emb_b
                .row_mut(r)
                .copy_from_slice(scratch.cache.output.row(n + r));
        }

        let c_loss = contrastive_loss_into(
            &scratch.emb_a,
            &scratch.emb_b,
            &same,
            self.margin,
            &mut scratch.grad_a,
            &mut scratch.grad_b,
        )?;
        scratch.grad_out.resize(2 * n, emb_dim);
        for r in 0..n {
            scratch
                .grad_out
                .row_mut(r)
                .copy_from_slice(scratch.grad_a.row(r));
            scratch
                .grad_out
                .row_mut(n + r)
                .copy_from_slice(scratch.grad_b.row(r));
        }

        let mut d_loss = 0.0f32;
        if let Some((table, weight)) = teacher {
            if weight > 0.0 {
                let sources = || pairs.iter().map(|p| p.i).chain(pairs.iter().map(|p| p.j));
                gather_rows(table, 2 * n, sources(), &mut scratch.teacher_emb);
                let dl = distillation_loss_into(
                    &scratch.cache.output,
                    &scratch.teacher_emb,
                    &mut scratch.distill_grad,
                )?;
                let mut effective = dl;
                if let Some(mask) = distill_mask {
                    // Zero the gradient (and discount the reported loss)
                    // for rows whose source sample is unmasked.
                    let mut kept = 0usize;
                    for (row, src) in sources().enumerate() {
                        if mask[src] {
                            kept += 1;
                        } else {
                            for v in scratch.distill_grad.row_mut(row) {
                                *v = 0.0;
                            }
                        }
                    }
                    effective = dl * kept as f32 / (2 * n) as f32;
                }
                d_loss = weight * effective;
                scratch
                    .grad_out
                    .add_scaled_inplace(&scratch.distill_grad, weight)?;
            }
        }

        self.backbone.backward_into(
            &scratch.cache,
            &scratch.grad_out,
            &mut scratch.grads,
            &mut scratch.ws,
        )?;
        if grad_clip > 0.0 {
            scratch.grads.clip(grad_clip);
        }
        optimizer.step(&mut self.backbone, &scratch.grads)?;
        Ok(StepLoss {
            contrastive: c_loss,
            distillation: d_loss,
        })
    }

    /// One optimisation step with the supervised contrastive objective
    /// (Khosla et al. \[9\]) on a class-balanced batch of row indices, with
    /// optional masked embedding distillation (same semantics as
    /// [`train_step_masked`](Self::train_step_masked)).
    ///
    /// # Errors
    /// [`NnError::InvalidBatch`] on an empty batch, out-of-range indices,
    /// or a wrong-length mask.
    #[allow(clippy::too_many_arguments)] // mirrors train_step_masked
    pub fn train_step_supcon(
        &mut self,
        features: &Matrix,
        labels: &[usize],
        batch: &[usize],
        optimizer: &mut dyn Optimizer,
        teacher: Option<(&Matrix, f32)>,
        distill_mask: Option<&[bool]>,
        temperature: f32,
        grad_clip: f32,
    ) -> Result<StepLoss> {
        let mut scratch = TrainScratch::new();
        self.train_step_supcon_with(
            features,
            labels,
            batch,
            optimizer,
            teacher,
            distill_mask,
            temperature,
            grad_clip,
            &mut scratch,
        )
    }

    /// [`train_step_supcon`](Self::train_step_supcon) drawing every
    /// temporary from a caller-owned [`TrainScratch`].
    ///
    /// # Errors
    /// [`NnError::InvalidBatch`] on an empty batch, out-of-range indices,
    /// or a wrong-length mask.
    #[allow(clippy::too_many_arguments)] // mirrors train_step_supcon
    pub fn train_step_supcon_with(
        &mut self,
        features: &Matrix,
        labels: &[usize],
        batch: &[usize],
        optimizer: &mut dyn Optimizer,
        teacher: Option<(&Matrix, f32)>,
        distill_mask: Option<&[bool]>,
        temperature: f32,
        grad_clip: f32,
        scratch: &mut TrainScratch,
    ) -> Result<StepLoss> {
        if batch.is_empty() {
            return Err(NnError::InvalidBatch("empty supcon batch".into()));
        }
        check_distill_inputs(features.rows(), teacher, distill_mask)?;
        for &i in batch {
            if i >= features.rows() || i >= labels.len() {
                return Err(NnError::InvalidBatch(format!(
                    "batch index {i} out of range"
                )));
            }
        }
        scratch.stacked.resize(batch.len(), features.cols());
        for (r, &i) in batch.iter().enumerate() {
            scratch.stacked.row_mut(r).copy_from_slice(features.row(i));
        }
        let batch_labels: Vec<usize> = batch.iter().map(|&i| labels[i]).collect();
        self.backbone
            .forward_cached_into(&scratch.stacked, &mut scratch.cache, &mut scratch.ws)?;
        // The supcon gradient is O(batch²) pairwise structure; it still
        // allocates internally, which is fine — the matmuls dominate.
        let (c_loss, grad_out) = crate::loss::supervised_contrastive_loss(
            &scratch.cache.output,
            &batch_labels,
            temperature,
        )?;
        scratch.grad_out.copy_from(&grad_out);
        let mut d_loss = 0.0f32;
        if let Some((table, weight)) = teacher {
            if weight > 0.0 {
                gather_rows(table, batch.len(), batch.iter().copied(), &mut scratch.teacher_emb);
                let dl = distillation_loss_into(
                    &scratch.cache.output,
                    &scratch.teacher_emb,
                    &mut scratch.distill_grad,
                )?;
                let mut effective = dl;
                if let Some(mask) = distill_mask {
                    let mut kept = 0usize;
                    for (row, &src) in batch.iter().enumerate() {
                        if mask[src] {
                            kept += 1;
                        } else {
                            for v in scratch.distill_grad.row_mut(row) {
                                *v = 0.0;
                            }
                        }
                    }
                    effective = dl * kept as f32 / batch.len() as f32;
                }
                d_loss = weight * effective;
                scratch
                    .grad_out
                    .add_scaled_inplace(&scratch.distill_grad, weight)?;
            }
        }
        self.backbone.backward_into(
            &scratch.cache,
            &scratch.grad_out,
            &mut scratch.grads,
            &mut scratch.ws,
        )?;
        if grad_clip > 0.0 {
            scratch.grads.clip(grad_clip);
        }
        optimizer.step(&mut self.backbone, &scratch.grads)?;
        Ok(StepLoss {
            contrastive: c_loss,
            distillation: d_loss,
        })
    }

    /// Mean embedding-space distance between two slices of row vectors
    /// (diagnostics for class separation).
    ///
    /// # Errors
    /// Shape mismatch on malformed input.
    pub fn mean_pair_distance(&self, a: &Matrix, b: &Matrix) -> Result<f32> {
        let ea = self.embed(a)?;
        let eb = self.embed(b)?;
        if ea.rows() != eb.rows() || ea.rows() == 0 {
            return Err(NnError::InvalidBatch("mismatched diagnostic batches".into()));
        }
        let mut total = 0.0f32;
        for i in 0..ea.rows() {
            total += magneto_tensor::vector::euclidean(ea.row(i), eb.row(i));
        }
        Ok(total / ea.rows() as f32)
    }
}

/// Validate the optional distillation inputs of a train step against
/// the `rows` feature rows: the mask and the teacher table both need one
/// entry per row.
fn check_distill_inputs(
    rows: usize,
    teacher: Option<(&Matrix, f32)>,
    distill_mask: Option<&[bool]>,
) -> Result<()> {
    if let Some(mask) = distill_mask {
        if mask.len() != rows {
            return Err(NnError::InvalidBatch(format!(
                "distill mask length {} != {rows} feature rows",
                mask.len()
            )));
        }
    }
    if let Some((table, _)) = teacher {
        if table.rows() != rows {
            return Err(NnError::InvalidBatch(format!(
                "teacher table has {} rows, features have {rows}",
                table.rows()
            )));
        }
    }
    Ok(())
}

/// Copy row `sources[r]` of `table` into row `r` of `out` (`count` rows).
fn gather_rows(
    table: &Matrix,
    count: usize,
    sources: impl Iterator<Item = usize>,
    out: &mut Matrix,
) {
    out.resize(count, table.cols());
    for (r, src) in sources.enumerate() {
        out.row_mut(r).copy_from_slice(table.row(src));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::Adam;
    use crate::pairs::{sample_balanced_batch, sample_pairs};

    /// Two Gaussian blobs in feature space, labels 0/1.
    fn blobs(n_per_class: usize, dim: usize, sep: f32, seed: u64) -> (Matrix, Vec<usize>) {
        let mut rng = SeededRng::new(seed);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for c in 0..2usize {
            for _ in 0..n_per_class {
                let center = if c == 0 { -sep / 2.0 } else { sep / 2.0 };
                let row: Vec<f32> = (0..dim).map(|_| rng.normal_with(center, 1.0)).collect();
                rows.push(row);
                labels.push(c);
            }
        }
        (Matrix::from_rows(&rows).unwrap(), labels)
    }

    fn small_siamese(seed: u64) -> SiameseNetwork {
        let mut rng = SeededRng::new(seed);
        SiameseNetwork::new(Mlp::new(&[4, 16, 8], &mut rng).unwrap(), 1.0)
    }

    #[test]
    fn training_reduces_contrastive_loss() {
        let (features, labels) = blobs(30, 4, 2.0, 1);
        let mut net = small_siamese(2);
        let mut opt = Adam::new(0.005);
        let mut rng = SeededRng::new(3);
        let first = net
            .train_step(
                &features,
                &sample_pairs(&labels, 64, &mut rng),
                &mut opt,
                None,
                5.0,
            )
            .unwrap()
            .total();
        let mut last = first;
        for _ in 0..60 {
            last = net
                .train_step(
                    &features,
                    &sample_pairs(&labels, 64, &mut rng),
                    &mut opt,
                    None,
                    5.0,
                )
                .unwrap()
                .total();
        }
        assert!(last < first * 0.5, "loss {first} -> {last}");
    }

    #[test]
    fn training_separates_classes_in_embedding_space() {
        let (features, labels) = blobs(30, 4, 3.0, 4);
        let mut net = small_siamese(5);
        let mut opt = Adam::new(0.005);
        let mut rng = SeededRng::new(6);
        for _ in 0..100 {
            let pairs = sample_pairs(&labels, 64, &mut rng);
            net.train_step(&features, &pairs, &mut opt, None, 5.0)
                .unwrap();
        }
        // Same-class mean distance must be well below cross-class.
        let class0: Vec<usize> = (0..30).collect();
        let class1: Vec<usize> = (30..60).collect();
        let a0 = features.select_rows(&class0[..15]).unwrap();
        let a0b = features.select_rows(&class0[15..]).unwrap();
        let a1 = features.select_rows(&class1[..15]).unwrap();
        let within = net.mean_pair_distance(&a0, &a0b).unwrap();
        let across = net.mean_pair_distance(&a0, &a1).unwrap();
        assert!(
            across > within * 1.5,
            "within {within}, across {across}"
        );
    }

    #[test]
    fn distillation_anchors_to_teacher() {
        let (features, labels) = blobs(20, 4, 2.0, 7);
        // Train a "teacher" first.
        let mut teacher_net = small_siamese(8);
        let mut opt = Adam::new(0.005);
        let mut rng = SeededRng::new(9);
        for _ in 0..50 {
            let pairs = sample_pairs(&labels, 48, &mut rng);
            teacher_net
                .train_step(&features, &pairs, &mut opt, None, 5.0)
                .unwrap();
        }
        let teacher = teacher_net.backbone().clone();

        // Continue training two students on *shuffled* labels (a
        // disruptive update): one with distillation, one without.
        let disruptive: Vec<usize> = labels.iter().map(|&l| 1 - l).collect();
        let mut with = SiameseNetwork::new(teacher.clone(), 1.0);
        let mut without = SiameseNetwork::new(teacher.clone(), 1.0);
        let mut opt_w = Adam::new(0.005);
        let mut opt_wo = Adam::new(0.005);
        let mut rng2 = SeededRng::new(10);
        let t_emb = teacher.forward(&features).unwrap();
        for _ in 0..40 {
            let pairs = sample_pairs(&disruptive, 48, &mut rng2);
            with.train_step(&features, &pairs, &mut opt_w, Some((&t_emb, 10.0)), 5.0)
                .unwrap();
            without
                .train_step(&features, &pairs, &mut opt_wo, None, 5.0)
                .unwrap();
        }
        // Drift from the teacher's embeddings.
        let w_emb = with.embed(&features).unwrap();
        let wo_emb = without.embed(&features).unwrap();
        let drift_with = w_emb.sub(&t_emb).unwrap().frobenius_norm();
        let drift_without = wo_emb.sub(&t_emb).unwrap().frobenius_norm();
        assert!(
            drift_with < drift_without * 0.8,
            "distilled drift {drift_with} vs undistilled {drift_without}"
        );
    }

    #[test]
    fn teacher_table_rows_equal_per_step_teacher_forward_bitwise() {
        // 46 rows, tabled in chunks of one step's stacked batch (32 rows
        // for 16 pairs, 16 for a SupCon batch): the last chunk has 14
        // rows, below the tiled kernel's 16-row threshold, so those table
        // rows come from the axpy kernel while every step's stacked batch
        // runs tiled. Each row a masked distillation step gathers must
        // equal the frozen teacher's forward of that stacked batch, bit
        // for bit.
        let (features, labels) = blobs(23, 4, 2.0, 60);
        let mask: Vec<bool> = labels.iter().map(|&l| l == 0).collect();
        let init = small_siamese(61);
        let teacher = init.backbone().clone();
        let mut ws = Workspace::new();
        let mut expected = Matrix::default();
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for supcon in [false, true] {
            let mut scratch = TrainScratch::new();
            let mut table = Matrix::default();
            let step_rows = if supcon { 16 } else { 32 };
            init.embed_chunked_into(&features, step_rows, &mut table, &mut scratch)
                .unwrap();
            let mut net = init.clone();
            let mut opt = Adam::new(3e-3);
            let mut rng = SeededRng::new(62);
            for _ in 0..4 {
                let sources: Vec<usize> = if supcon {
                    let batch = sample_balanced_batch(&labels, 16, &mut rng);
                    net.train_step_supcon_with(
                        &features,
                        &labels,
                        &batch,
                        &mut opt,
                        Some((&table, 2.0)),
                        Some(&mask),
                        0.3,
                        5.0,
                        &mut scratch,
                    )
                    .unwrap();
                    batch
                } else {
                    let pairs = sample_pairs(&labels, 16, &mut rng);
                    net.train_step_masked_with(
                        &features,
                        &pairs,
                        &mut opt,
                        Some((&table, 2.0)),
                        Some(&mask),
                        5.0,
                        &mut scratch,
                    )
                    .unwrap();
                    pairs.iter().map(|p| p.i).chain(pairs.iter().map(|p| p.j)).collect()
                };
                assert_eq!(sources.len(), step_rows);
                let stacked = features.select_rows(&sources).unwrap();
                teacher.forward_into(&stacked, &mut expected, &mut ws).unwrap();
                assert_eq!(bits(&scratch.teacher_emb), bits(&expected), "supcon={supcon}");
            }
            assert_ne!(&net, &init, "the steps trained");
        }
    }

    #[test]
    fn rejects_bad_batches() {
        let (features, _) = blobs(5, 4, 1.0, 11);
        let mut net = small_siamese(12);
        let mut opt = Adam::new(0.01);
        assert!(matches!(
            net.train_step(&features, &[], &mut opt, None, 1.0),
            Err(NnError::InvalidBatch(_))
        ));
        let bad = [PairSample {
            i: 0,
            j: 999,
            same: true,
        }];
        assert!(net.train_step(&features, &bad, &mut opt, None, 1.0).is_err());
    }

    #[test]
    fn embed_shapes() {
        let net = small_siamese(13);
        let x = Matrix::filled(3, 4, 0.1);
        let e = net.embed(&x).unwrap();
        assert_eq!(e.shape(), (3, 8));
        assert_eq!(net.embed_one(&[0.1; 4]).unwrap().len(), 8);
        assert_eq!(net.backbone().input_dim(), 4);
    }

    #[test]
    fn serde_roundtrip() {
        let net = small_siamese(14);
        let json = serde_json::to_string(&net).unwrap();
        let back: SiameseNetwork = serde_json::from_str(&json).unwrap();
        assert_eq!(net, back);
    }

    fn precision_net(seed: u64) -> SiameseNetwork {
        SiameseNetwork::new(Mlp::new(&[8, 16, 4], &mut SeededRng::new(seed)).unwrap(), 1.5)
    }

    #[test]
    fn precision_and_metadata() {
        let f32_model = precision_net(1);
        assert_eq!(f32_model.precision(), Precision::F32);
        let int8 = f32_model.clone().into_precision(Precision::Int8).unwrap();
        assert_eq!(int8.precision(), Precision::Int8);
        assert_eq!(int8.dims(), f32_model.dims());
        assert_eq!(int8.backbone().input_dim(), 8);
        assert_eq!(int8.backbone().output_dim(), 4);
        assert_eq!(int8.backbone().param_count(), f32_model.backbone().param_count());
        assert_eq!(int8.margin, 1.5);
        assert!(int8.all_finite() && f32_model.all_finite());
        assert!(
            int8.resident_bytes() < f32_model.resident_bytes() / 2,
            "int8 {} vs f32 {}",
            int8.resident_bytes(),
            f32_model.resident_bytes()
        );
    }

    #[test]
    fn into_precision_identity_is_lossless() {
        let model = precision_net(2);
        let same = model.clone().into_precision(Precision::F32).unwrap();
        assert_eq!(same, model);
        let int8 = model.into_precision(Precision::Int8).unwrap();
        let same8 = int8.clone().into_precision(Precision::Int8).unwrap();
        assert_eq!(same8, int8);
    }

    #[test]
    fn embeddings_agree_across_precisions() {
        let model = precision_net(3);
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
    fn margin_crosses_precisions() {
        let mut model = precision_net(4);
        model.margin = 2.25;
        let mut int8 = model.into_precision(Precision::Int8).unwrap();
        assert_eq!(int8.margin, 2.25);
        int8.margin = 0.5;
        assert_eq!(int8.into_precision(Precision::F32).unwrap().margin, 0.5);
    }

    #[test]
    fn int8_serde_roundtrips() {
        let model = precision_net(16).into_precision(Precision::Int8).unwrap();
        let json = serde_json::to_string(&model).unwrap();
        let back: SiameseNetwork = serde_json::from_str(&json).unwrap();
        assert_eq!(model, back);
    }

    /// Training never runs on int8 weights: a train step, and an
    /// optimiser step, on a network with one int8 layer return
    /// `Int8Weights` and leave every weight byte-identical — whichever
    /// layer holds the int8 weights.
    #[test]
    fn int8_layers_refuse_training() {
        let (features, labels) = blobs(6, 4, 2.0, 70);
        for int8_layer in 0..2 {
            let mut net = small_siamese(71);
            net.backbone.layers_mut()[int8_layer]
                .set_precision(Precision::Int8)
                .unwrap();
            let before = serde_json::to_vec(&net).unwrap();
            let pairs = sample_pairs(&labels, 8, &mut SeededRng::new(72));
            let mut opt = Adam::new(0.01);
            let mut scratch = TrainScratch::new();
            let step = net.train_step_masked_with(
                &features,
                &pairs,
                &mut opt,
                None,
                None,
                5.0,
                &mut scratch,
            );
            assert!(matches!(step, Err(NnError::Int8Weights)), "{step:?}");
            let grads = Gradients::zeros_like(net.backbone());
            let mut sgd = crate::optimizer::Sgd::new(0.1, 0.9);
            assert!(matches!(
                sgd.step(&mut net.backbone, &grads),
                Err(NnError::Int8Weights)
            ));
            assert!(matches!(
                opt.step(&mut net.backbone, &grads),
                Err(NnError::Int8Weights)
            ));
            assert_eq!(opt.steps(), 0, "a refused step is not counted");
            assert_eq!(serde_json::to_vec(&net).unwrap(), before, "layer {int8_layer}");
        }
    }
}
