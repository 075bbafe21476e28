//! Batched embedding: many feature windows through the backbone in one
//! forward pass.
//!
//! Everywhere the platform used to loop `embed_one` over a backlog —
//! prototype construction, rejection-threshold calibration, streaming
//! catch-up after a stall — now stacks the rows into one `(batch, 80)`
//! matrix and runs a single matmul chain per layer. A [`BatchEmbedder`]
//! owns the feature staging matrix and the kernel [`Workspace`], so
//! repeated batches reuse the same allocations.

use crate::error::CoreError;
use crate::ncm::{NcmDecision, NcmScratch};
use magneto_nn::SiameseNetwork;
use crate::Result;
use magneto_tensor::{Matrix, Workspace};

/// Reusable batched-embedding state: a staging matrix for stacked
/// feature rows plus the scratch pool the forward kernels draw from.
/// Classification scratch rides along so the batch serve path
/// ([`crate::inference::infer_batch`]) reuses one set of NCM buffers
/// across every job of every batch.
#[derive(Debug, Default)]
pub struct BatchEmbedder {
    ws: Workspace,
    features: Matrix,
    ncm_scratch: NcmScratch,
    decision: NcmDecision,
}

impl BatchEmbedder {
    /// An empty embedder; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        BatchEmbedder::default()
    }

    /// The micro-kernel backend this embedder's forward GEMMs dispatch
    /// to (scalar / avx2 / neon).
    pub fn backend(&self) -> magneto_tensor::Backend {
        self.ws.backend()
    }

    /// Embed a slice of feature rows in one forward pass, writing the
    /// `(rows.len(), emb_dim)` embedding batch into `out`.
    ///
    /// # Errors
    /// [`CoreError::InsufficientData`] on an empty slice or ragged rows;
    /// embedding failures are propagated.
    pub fn embed_rows(
        &mut self,
        model: &SiameseNetwork,
        rows: &[Vec<f32>],
        out: &mut Matrix,
    ) -> Result<()> {
        stage_rows(rows, &mut self.features)?;
        model.embed_into(&self.features, out, &mut self.ws)?;
        Ok(())
    }

    /// Embed an already-stacked feature matrix in one forward pass.
    ///
    /// # Errors
    /// Shape mismatch on malformed input.
    pub fn embed_matrix(
        &mut self,
        model: &SiameseNetwork,
        features: &Matrix,
        out: &mut Matrix,
    ) -> Result<()> {
        model.embed_into(features, out, &mut self.ws)?;
        Ok(())
    }

    /// Borrow the staging matrix mutably: resize it, fill rows in place
    /// (e.g. via `PreprocessingPipeline::process_into`), then call
    /// [`embed_staged`](Self::embed_staged).
    pub fn staging(&mut self) -> &mut Matrix {
        &mut self.features
    }

    /// The staged feature rows, as the last batch left them: after
    /// [`crate::infer_batch`], row `r` holds job `r`'s normalised
    /// features (embedding reads the staging matrix, never writes it).
    /// The self-healing harvest reads its evidence here instead of
    /// featurising the window a second time.
    pub fn staged(&self) -> &Matrix {
        &self.features
    }

    /// Embed whatever is currently staged in [`staging`](Self::staging);
    /// the staged rows are left as they are.
    ///
    /// # Errors
    /// Shape mismatch on malformed staged input.
    pub fn embed_staged(&mut self, model: &SiameseNetwork, out: &mut Matrix) -> Result<()> {
        model.embed_into(&self.features, out, &mut self.ws)?;
        Ok(())
    }

    /// Disjoint borrows of the classification scratch and the reusable
    /// decision (the `classify_into` argument pair).
    pub(crate) fn classify_parts(&mut self) -> (&mut NcmScratch, &mut NcmDecision) {
        (&mut self.ncm_scratch, &mut self.decision)
    }
}

/// Stack feature rows into `out`, reusing its allocation.
///
/// # Errors
/// [`CoreError::InsufficientData`] on an empty slice or ragged rows.
pub fn stage_rows(rows: &[Vec<f32>], out: &mut Matrix) -> Result<()> {
    if rows.is_empty() {
        return Err(CoreError::InsufficientData(
            "no feature rows to embed".into(),
        ));
    }
    let dim = rows[0].len();
    out.resize(rows.len(), dim);
    for (i, row) in rows.iter().enumerate() {
        if row.len() != dim {
            return Err(CoreError::InsufficientData(format!(
                "ragged feature rows: row 0 has {dim} features, row {i} has {}",
                row.len()
            )));
        }
        out.row_mut(i).copy_from_slice(row);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use magneto_nn::Mlp;
    use magneto_tensor::{Precision, SeededRng};

    fn model() -> SiameseNetwork {
        let mut rng = SeededRng::new(7);
        SiameseNetwork::new(Mlp::new(&[6, 12, 4], &mut rng).unwrap(), 1.0)
    }

    #[test]
    fn batch_matches_per_sample_embedding() {
        let model = model();
        let mut rng = SeededRng::new(8);
        let rows: Vec<Vec<f32>> = (0..9)
            .map(|_| (0..6).map(|_| rng.normal()).collect())
            .collect();
        let mut embedder = BatchEmbedder::new();
        let mut out = Matrix::default();
        embedder.embed_rows(&model, &rows, &mut out).unwrap();
        assert_eq!(out.shape(), (9, 4));
        for (i, row) in rows.iter().enumerate() {
            let single = model.embed_one(row).unwrap();
            assert_eq!(out.row(i), single.as_slice(), "row {i}");
        }
    }

    #[test]
    fn int8_batch_matches_int8_per_sample_embedding() {
        let model = model().into_precision(Precision::Int8).unwrap();
        let mut rng = SeededRng::new(9);
        let rows: Vec<Vec<f32>> = (0..7)
            .map(|_| (0..6).map(|_| rng.normal()).collect())
            .collect();
        let mut embedder = BatchEmbedder::new();
        let mut out = Matrix::default();
        embedder.embed_rows(&model, &rows, &mut out).unwrap();
        assert_eq!(out.shape(), (7, 4));
        for (i, row) in rows.iter().enumerate() {
            let single = model.embed_one(row).unwrap();
            assert_eq!(out.row(i), single.as_slice(), "row {i}");
        }
    }

    #[test]
    fn rejects_empty_and_ragged_batches() {
        let model = model();
        let mut embedder = BatchEmbedder::new();
        let mut out = Matrix::default();
        assert!(matches!(
            embedder.embed_rows(&model, &[], &mut out),
            Err(CoreError::InsufficientData(_))
        ));
        let ragged = vec![vec![0.0; 6], vec![0.0; 5]];
        assert!(matches!(
            embedder.embed_rows(&model, &ragged, &mut out),
            Err(CoreError::InsufficientData(_))
        ));
    }

    #[test]
    fn staged_embedding_reuses_buffers() {
        let model = model();
        let mut embedder = BatchEmbedder::new();
        let mut out = Matrix::default();
        for round in 0..3 {
            let staged = embedder.staging();
            staged.resize(4, 6);
            for r in 0..4 {
                for v in staged.row_mut(r) {
                    *v = round as f32 * 0.1;
                }
            }
            embedder.embed_staged(&model, &mut out).unwrap();
            assert_eq!(out.shape(), (4, 4));
            // Embedding leaves the staged rows readable as they were.
            let staged = embedder.staged();
            assert_eq!(staged.shape(), (4, 6));
            assert!((0..4).all(|r| staged.row(r).iter().all(|&v| v == round as f32 * 0.1)));
        }
    }
}
