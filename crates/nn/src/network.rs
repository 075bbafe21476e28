//! The MLP backbone.
//!
//! A stack of [`Dense`] layers with ReLU between hidden layers and a
//! linear embedding output, mirroring the paper's
//! `[1024×512×128×64×128]` fully-connected design on 80 input features.
//! Each layer holds its weights at f32 or int8 ([`crate::quantize::Weights`]);
//! one forward loop serves both, and [`Mlp::into_precision`] converts
//! a network one layer at a time.

use crate::activation::Activation;
use crate::error::NnError;
use crate::layer::{Dense, DenseCache, DenseGrad};
use crate::Result;
use magneto_tensor::{Matrix, Precision, SeededRng, Workspace};
use serde::{Deserialize, Serialize};

/// A multi-layer perceptron.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Dense>,
}

/// Cached per-layer forward state for a whole network.
#[derive(Debug, Clone, Default)]
pub struct ForwardCache {
    caches: Vec<DenseCache>,
    /// The network output for this batch.
    pub output: Matrix,
}

impl ForwardCache {
    /// An empty cache, ready to be filled by
    /// [`Mlp::forward_cached_into`].
    pub fn new() -> Self {
        ForwardCache::default()
    }
}

/// Per-layer gradients for a whole network.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Gradients {
    /// One gradient per layer, input-side first.
    pub layers: Vec<DenseGrad>,
}

impl Gradients {
    /// Zero gradients shaped like `net`.
    pub fn zeros_like(net: &Mlp) -> Self {
        Gradients {
            layers: net.layers.iter().map(DenseGrad::zeros_like).collect(),
        }
    }

    /// `self += other`.
    ///
    /// # Errors
    /// Layer-count or shape mismatch.
    pub fn accumulate(&mut self, other: &Gradients) -> Result<()> {
        if self.layers.len() != other.layers.len() {
            return Err(NnError::InvalidBatch(format!(
                "gradient layer count mismatch: {} vs {}",
                self.layers.len(),
                other.layers.len()
            )));
        }
        for (a, b) in self.layers.iter_mut().zip(other.layers.iter()) {
            a.accumulate(b)?;
        }
        Ok(())
    }

    /// Scale all gradients in place.
    pub fn scale(&mut self, s: f32) {
        for g in &mut self.layers {
            g.scale(s);
        }
    }

    /// Largest absolute gradient entry (divergence guard / clipping).
    pub fn max_abs(&self) -> f32 {
        self.layers.iter().fold(0.0f32, |m, g| m.max(g.max_abs()))
    }

    /// Clip every entry to `[-limit, limit]` (training stability on tiny
    /// on-device batches).
    pub fn clip(&mut self, limit: f32) {
        for g in &mut self.layers {
            g.dw.map_inplace(|v| v.clamp(-limit, limit));
            for b in &mut g.db {
                *b = b.clamp(-limit, limit);
            }
        }
    }
}

impl Mlp {
    /// Build an MLP with the given layer widths (`dims[0]` = input
    /// features, `dims.last()` = embedding size). Hidden layers are ReLU;
    /// the output layer is linear.
    ///
    /// # Errors
    /// [`NnError::InvalidArchitecture`] for fewer than two dims or a zero
    /// width.
    pub fn new(dims: &[usize], rng: &mut SeededRng) -> Result<Self> {
        if dims.len() < 2 {
            return Err(NnError::InvalidArchitecture(format!(
                "need at least input and output dims, got {dims:?}"
            )));
        }
        if dims.contains(&0) {
            return Err(NnError::InvalidArchitecture(format!(
                "zero-width layer in {dims:?}"
            )));
        }
        let mut layers = Vec::with_capacity(dims.len() - 1);
        for i in 0..dims.len() - 1 {
            let act = if i + 2 == dims.len() {
                Activation::Identity
            } else {
                Activation::Relu
            };
            layers.push(Dense::new(dims[i], dims[i + 1], act, rng));
        }
        Ok(Mlp { layers })
    }

    /// The paper's backbone on 80 features.
    ///
    /// # Errors
    /// Never fails for the fixed dims; kept fallible for signature
    /// uniformity.
    pub fn paper_backbone(rng: &mut SeededRng) -> Result<Self> {
        Mlp::new(&crate::PAPER_BACKBONE, rng)
    }

    /// Assemble an MLP from pre-built layers (deserialisation,
    /// dequantisation).
    ///
    /// # Errors
    /// [`NnError::InvalidArchitecture`] when `layers` is empty or
    /// consecutive layer dims do not chain.
    pub fn from_layers(layers: Vec<Dense>) -> Result<Self> {
        if layers.is_empty() {
            return Err(NnError::InvalidArchitecture("no layers".into()));
        }
        for w in layers.windows(2) {
            if w[0].out_dim() != w[1].in_dim() {
                return Err(NnError::InvalidArchitecture(format!(
                    "layer chain break: {} -> {}",
                    w[0].out_dim(),
                    w[1].in_dim()
                )));
            }
        }
        Ok(Mlp { layers })
    }

    /// Layer widths, input first.
    pub fn dims(&self) -> Vec<usize> {
        let mut dims = Vec::with_capacity(self.layers.len() + 1);
        dims.push(self.layers[0].in_dim());
        dims.extend(self.layers.iter().map(Dense::out_dim));
        dims
    }

    /// Input feature dimension.
    pub fn input_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    /// Embedding (output) dimension.
    pub fn output_dim(&self) -> usize {
        self.layers.last().expect("non-empty").out_dim()
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Borrow the layers (read-only).
    pub fn layers(&self) -> &[Dense] {
        &self.layers
    }

    /// Mutably borrow the layers.
    pub fn layers_mut(&mut self) -> &mut [Dense] {
        &mut self.layers
    }

    /// Mutably borrow the layers for training: every layer must hold f32
    /// weights.
    ///
    /// # Errors
    /// [`NnError::Int8Weights`] when any layer holds int8 weights.
    pub fn f32_layers_mut(&mut self) -> Result<&mut [Dense]> {
        if self.precision() == Precision::Int8 {
            return Err(NnError::Int8Weights);
        }
        Ok(&mut self.layers)
    }

    /// Total parameters (weights + biases), at either precision.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Dense::param_count).sum()
    }

    /// Size of the parameters in bytes at f32 precision.
    pub fn param_bytes(&self) -> usize {
        self.param_count() * 4
    }

    /// Bytes needed to keep the parameters resident at the precision
    /// each layer holds.
    pub fn resident_bytes(&self) -> usize {
        self.layers.iter().map(Dense::resident_bytes).sum()
    }

    /// [`Precision::Int8`] when any layer holds int8 weights (the network
    /// cannot train as it is), else [`Precision::F32`].
    pub fn precision(&self) -> Precision {
        if self.layers.iter().any(|l| l.weights.precision() == Precision::Int8) {
            Precision::Int8
        } else {
            Precision::F32
        }
    }

    /// Convert every layer's weights to `precision` in place, one layer
    /// at a time, so at most one layer exists at both precisions at
    /// once. Layers already at `precision` are left as they are.
    ///
    /// # Errors
    /// As [`Dense::set_precision`]; the layers before the failing one
    /// are converted.
    pub fn set_precision(&mut self, precision: Precision) -> Result<()> {
        self.layers
            .iter_mut()
            .try_for_each(|l| l.set_precision(precision))
    }

    /// [`set_precision`](Self::set_precision) on an owned network.
    ///
    /// # Errors
    /// As [`Dense::set_precision`].
    pub fn into_precision(mut self, precision: Precision) -> Result<Self> {
        self.set_precision(precision)?;
        Ok(self)
    }

    /// Inference forward pass (no caches).
    ///
    /// # Errors
    /// Shape mismatch on malformed input.
    pub fn forward(&self, x: &Matrix) -> Result<Matrix> {
        let mut out = Matrix::default();
        let mut ws = Workspace::new();
        self.forward_into(x, &mut out, &mut ws)?;
        Ok(out)
    }

    /// Inference forward pass writing the embedding batch into `out`,
    /// ping-ponging the hidden activations between two workspace buffers
    /// and writing the last layer straight into `out`, so the whole pass
    /// allocates nothing once `ws` is warm. Int8 layers quantise their
    /// input into the workspace's quantisation scratch. Bit-identical
    /// across pool sizes at either precision.
    ///
    /// # Errors
    /// Shape mismatch on malformed input; `out` is left unspecified then.
    pub fn forward_into(&self, x: &Matrix, out: &mut Matrix, ws: &mut Workspace) -> Result<()> {
        let exec = ws.exec().clone();
        let last = self.layers.len() - 1;
        let mut a = ws.take(0, 0);
        let mut b = ws.take(0, 0);
        let mut result = Ok(());
        for (i, layer) in self.layers.iter().enumerate() {
            let src = if i == 0 { x } else { &a };
            let dst = if i == last { &mut *out } else { &mut b };
            result = layer.infer_into_exec(src, dst, ws.quant_scratch(), &exec);
            if result.is_err() {
                break;
            }
            std::mem::swap(&mut a, &mut b);
        }
        ws.give(a);
        ws.give(b);
        result
    }

    /// Embed a single feature vector.
    ///
    /// # Errors
    /// Shape mismatch on malformed input.
    pub fn embed_one(&self, features: &[f32]) -> Result<Vec<f32>> {
        let out = self.forward(&Matrix::from_row(features))?;
        Ok(out.into_vec())
    }

    /// Training forward pass, caching layer state.
    ///
    /// # Errors
    /// Shape mismatch on malformed input.
    pub fn forward_cached(&self, x: &Matrix) -> Result<ForwardCache> {
        let mut cache = ForwardCache::new();
        let mut ws = Workspace::new();
        self.forward_cached_into(x, &mut cache, &mut ws)?;
        Ok(cache)
    }

    /// Training forward pass reusing `cache`'s per-layer matrices and
    /// drawing hidden-activation scratch from `ws`.
    ///
    /// # Errors
    /// Shape mismatch on malformed input.
    pub fn forward_cached_into(
        &self,
        x: &Matrix,
        cache: &mut ForwardCache,
        ws: &mut Workspace,
    ) -> Result<()> {
        cache.caches.resize_with(self.layers.len(), DenseCache::default);
        let exec = ws.exec().clone();
        let mut h = ws.take(0, 0);
        let mut result = Ok(());
        for (i, (layer, lc)) in self.layers.iter().zip(cache.caches.iter_mut()).enumerate() {
            if i == 0 {
                result = layer.forward_into_exec(x, lc, &mut h, &exec);
            } else {
                let mut out = ws.take(0, 0);
                result = layer.forward_into_exec(&h, lc, &mut out, &exec);
                ws.give(std::mem::replace(&mut h, out));
            }
            if result.is_err() {
                break;
            }
        }
        if result.is_ok() {
            std::mem::swap(&mut cache.output, &mut h);
        }
        ws.give(h);
        result
    }

    /// Backward pass from `∂L/∂output`; returns gradients for every layer.
    ///
    /// # Errors
    /// Shape mismatch between cache and upstream gradient.
    pub fn backward(&self, cache: &ForwardCache, grad_output: &Matrix) -> Result<Gradients> {
        let mut grads = Gradients { layers: Vec::new() };
        let mut ws = Workspace::new();
        self.backward_into(cache, grad_output, &mut grads, &mut ws)?;
        Ok(grads)
    }

    /// Backward pass writing every layer's gradients into `grads`
    /// (resized to fit on first use) and drawing all intermediate
    /// matrices from `ws`. The gradient of the network input is never
    /// formed: the first layer skips its `δ·Wᵀ`.
    ///
    /// # Errors
    /// Shape mismatch between cache and upstream gradient.
    pub fn backward_into(
        &self,
        cache: &ForwardCache,
        grad_output: &Matrix,
        grads: &mut Gradients,
        ws: &mut Workspace,
    ) -> Result<()> {
        if cache.caches.len() != self.layers.len() {
            return Err(NnError::InvalidBatch(format!(
                "forward cache holds {} layers, network has {}",
                cache.caches.len(),
                self.layers.len()
            )));
        }
        grads.layers.resize_with(self.layers.len(), DenseGrad::default);
        let mut grad = ws.take(0, 0);
        grad.copy_from(grad_output);
        let mut result = Ok(());
        for (i, ((layer, lc), g)) in self
            .layers
            .iter()
            .zip(cache.caches.iter())
            .zip(grads.layers.iter_mut())
            .enumerate()
            .rev()
        {
            if i == 0 {
                // Nothing reads the gradient of the network input: the
                // first layer skips its `δ·Wᵀ`.
                result = layer.backward_into(lc, &grad, g, None, ws);
            } else {
                let mut dx = ws.take(0, 0);
                result = layer.backward_into(lc, &grad, g, Some(&mut dx), ws);
                ws.give(std::mem::replace(&mut grad, dx));
            }
            if result.is_err() {
                break;
            }
        }
        ws.give(grad);
        result
    }

    /// `true` if every float parameter is finite (divergence guard).
    pub fn all_finite(&self) -> bool {
        self.layers.iter().all(Dense::all_finite)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(dims: &[usize], seed: u64) -> Mlp {
        Mlp::new(dims, &mut SeededRng::new(seed)).unwrap()
    }

    #[test]
    fn construction_and_shape_accessors() {
        let m = net(&[8, 16, 4], 1);
        assert_eq!(m.dims(), vec![8, 16, 4]);
        assert_eq!(m.input_dim(), 8);
        assert_eq!(m.output_dim(), 4);
        assert_eq!(m.num_layers(), 2);
        assert_eq!(m.param_count(), 8 * 16 + 16 + 16 * 4 + 4);
        assert_eq!(m.param_bytes(), m.param_count() * 4);
        assert_eq!(m.layers().len(), 2);
    }

    #[test]
    fn paper_backbone_shape() {
        let m = Mlp::paper_backbone(&mut SeededRng::new(2)).unwrap();
        assert_eq!(m.dims(), vec![80, 1024, 512, 128, 64, 128]);
        // ~700k params -> ~2.8 MB at f32. Must stay under the 5 MB bundle
        // budget with room for the support set.
        let mb = m.param_bytes() as f64 / (1024.0 * 1024.0);
        assert!(mb < 3.0, "backbone is {mb:.2} MiB");
        // Hidden layers ReLU, output linear.
        assert_eq!(m.layers()[0].activation, Activation::Relu);
        assert_eq!(m.layers()[4].activation, Activation::Identity);
    }

    #[test]
    fn invalid_architectures_rejected() {
        let mut rng = SeededRng::new(3);
        assert!(matches!(
            Mlp::new(&[8], &mut rng),
            Err(NnError::InvalidArchitecture(_))
        ));
        assert!(matches!(
            Mlp::new(&[8, 0, 4], &mut rng),
            Err(NnError::InvalidArchitecture(_))
        ));
    }

    #[test]
    fn forward_matches_cached_forward() {
        let m = net(&[6, 10, 3], 4);
        let x = Matrix::filled(4, 6, 0.3);
        let plain = m.forward(&x).unwrap();
        let cached = m.forward_cached(&x).unwrap();
        assert_eq!(plain, cached.output);
        assert_eq!(m.embed_one(&[0.3; 6]).unwrap().len(), 3);
    }

    #[test]
    fn whole_network_gradient_check() {
        // L = sum(output); compare analytic dW against finite differences
        // for entries in the first and last layers.
        let mut m = net(&[4, 6, 3], 5);
        let x = Matrix::from_vec(
            3,
            4,
            vec![0.2, -0.4, 0.6, 0.1, -0.3, 0.5, 0.9, -0.7, 0.0, 0.8, -0.2, 0.4],
        )
        .unwrap();
        let cache = m.forward_cached(&x).unwrap();
        let grad_out = Matrix::filled(3, 3, 1.0);
        let grads = m.backward(&cache, &grad_out).unwrap();

        let eps = 1e-3f32;
        for (li, r, c) in [(0usize, 0usize, 0usize), (0, 3, 5), (1, 2, 1)] {
            let set = |m: &mut Mlp, v: f32| m.layers[li].f32_weights_mut().unwrap().set(r, c, v);
            let orig = m.layers[li].f32_weights().unwrap().get(r, c);
            set(&mut m, orig + eps);
            let up = m.forward(&x).unwrap().sum();
            set(&mut m, orig - eps);
            let down = m.forward(&x).unwrap().sum();
            set(&mut m, orig);
            let numeric = (up - down) / (2.0 * eps);
            let analytic = grads.layers[li].dw.get(r, c);
            assert!(
                (numeric - analytic).abs() < 3e-2,
                "layer {li} dW[{r},{c}]: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn backward_into_matches_hand_chained_dense_backward_bitwise() {
        // Mlp::backward_into never forms the first layer's input gradient;
        // every layer's dW and db must still equal a hand-chained
        // Dense::backward (which computes every dX) bit for bit.
        let m = net(&[18, 24, 16, 5], 12);
        let mut rng = SeededRng::new(13);
        let data: Vec<f32> = (0..20 * 18).map(|_| rng.normal_with(0.0, 1.0)).collect();
        let x = Matrix::from_vec(20, 18, data).unwrap();
        let grad_out = Matrix::from_vec(
            20,
            5,
            (0..20 * 5).map(|_| rng.normal_with(0.0, 1.0)).collect(),
        )
        .unwrap();
        let cache = m.forward_cached(&x).unwrap();
        let mut grads = Gradients { layers: Vec::new() };
        m.backward_into(&cache, &grad_out, &mut grads, &mut Workspace::new())
            .unwrap();

        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut upstream = grad_out;
        for (i, layer) in m.layers.iter().enumerate().rev() {
            let (g, dx) = layer.backward(&cache.caches[i], &upstream).unwrap();
            assert_eq!(
                bits(grads.layers[i].dw.as_slice()),
                bits(g.dw.as_slice()),
                "layer {i} dW"
            );
            assert_eq!(bits(&grads.layers[i].db), bits(&g.db), "layer {i} db");
            upstream = dx;
        }
    }

    #[test]
    fn gradients_accumulate_scale_clip() {
        let m = net(&[3, 4, 2], 6);
        let x = Matrix::filled(2, 3, 1.0);
        let cache = m.forward_cached(&x).unwrap();
        let g1 = m
            .backward(&cache, &Matrix::filled(2, 2, 1.0))
            .unwrap();
        let mut acc = Gradients::zeros_like(&m);
        acc.accumulate(&g1).unwrap();
        acc.accumulate(&g1).unwrap();
        acc.scale(0.5);
        // acc == g1 now.
        for (a, b) in acc.layers.iter().zip(g1.layers.iter()) {
            assert_eq!(a, b);
        }
        let before = acc.max_abs();
        acc.clip(before / 2.0);
        assert!(acc.max_abs() <= before / 2.0 + 1e-6);
        // Mismatched accumulate fails.
        let other = Gradients::zeros_like(&net(&[3, 2], 7));
        assert!(acc.accumulate(&other).is_err());
    }

    #[test]
    fn all_finite_detects_poisoned_weights() {
        let mut m = net(&[2, 2], 8);
        assert!(m.all_finite());
        m.layers_mut()[0].f32_weights_mut().unwrap().set(0, 0, f32::NAN);
        assert!(!m.all_finite());
    }

    #[test]
    fn deterministic_construction() {
        assert_eq!(net(&[5, 7, 3], 9), net(&[5, 7, 3], 9));
        assert_ne!(net(&[5, 7, 3], 9), net(&[5, 7, 3], 10));
    }

    #[test]
    fn serde_roundtrip() {
        let m = net(&[3, 5, 2], 11);
        let json = serde_json::to_string(&m).unwrap();
        let back: Mlp = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }
}
