//! Dense (fully-connected) layer with manual backprop.
//!
//! A layer holds its weights at either precision ([`Weights`]): f32,
//! which trains, or int8, which runs inference directly on the
//! i8×i8→i32 kernels. The inference step picks the GEMM from the
//! weights, so a network loops over its layers without knowing which
//! precision each one holds.

use crate::activation::Activation;
use crate::error::NnError;
use crate::quantize::Weights;
use crate::Result;
use magneto_tensor::init::Initializer;
use magneto_tensor::quant::{QuantMatrix, QuantScratch};
use magneto_tensor::{Exec, Matrix, Precision, SeededRng, TensorError, Workspace};
use serde::{Deserialize, Serialize};

/// A dense layer `y = act(x·W + b)` with `W: (in, out)`, `b: (out)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dense {
    /// Weight matrix, `(in_dim, out_dim)`, at either precision.
    pub weights: Weights,
    /// Bias vector, length `out_dim`.
    pub bias: Vec<f32>,
    /// Activation applied element-wise to the pre-activation.
    pub activation: Activation,
}

/// Cached forward state needed by the backward pass.
#[derive(Debug, Clone, Default)]
pub struct DenseCache {
    /// The layer input `x` (batch, in_dim).
    pub input: Matrix,
    /// Pre-activation `z = x·W + b` (batch, out_dim).
    pub pre_activation: Matrix,
}

/// Gradients for one layer.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DenseGrad {
    /// `∂L/∂W`, same shape as the weights.
    pub dw: Matrix,
    /// `∂L/∂b`.
    pub db: Vec<f32>,
}

impl DenseGrad {
    /// A zero gradient matching a layer's shapes.
    pub fn zeros_like(layer: &Dense) -> Self {
        DenseGrad {
            dw: Matrix::zeros(layer.in_dim(), layer.out_dim()),
            db: vec![0.0; layer.bias.len()],
        }
    }

    /// Accumulate another gradient (`self += other`).
    ///
    /// # Errors
    /// Shape mismatch between the gradients.
    pub fn accumulate(&mut self, other: &DenseGrad) -> Result<()> {
        self.dw.add_scaled_inplace(&other.dw, 1.0)?;
        for (a, b) in self.db.iter_mut().zip(other.db.iter()) {
            *a += b;
        }
        Ok(())
    }

    /// Scale the gradient in place.
    pub fn scale(&mut self, s: f32) {
        self.dw.scale_inplace(s);
        for v in &mut self.db {
            *v *= s;
        }
    }

    /// Largest absolute entry across weights and bias.
    pub fn max_abs(&self) -> f32 {
        self.dw
            .max_abs()
            .max(self.db.iter().fold(0.0f32, |m, v| m.max(v.abs())))
    }
}

impl Dense {
    /// Create a layer with He-initialised weights and zero bias.
    pub fn new(in_dim: usize, out_dim: usize, activation: Activation, rng: &mut SeededRng) -> Self {
        let init = match activation {
            Activation::Relu | Activation::LeakyRelu => Initializer::HeNormal,
            _ => Initializer::XavierUniform,
        };
        Dense {
            weights: Weights::F32(init.init(in_dim, out_dim, rng)),
            bias: vec![0.0; out_dim],
            activation,
        }
    }

    /// The f32 weights — what training reads and writes.
    ///
    /// # Errors
    /// [`NnError::Int8Weights`] when the layer holds int8 weights.
    pub fn f32_weights(&self) -> Result<&Matrix> {
        match &self.weights {
            Weights::F32(w) => Ok(w),
            Weights::Int8(_) => Err(NnError::Int8Weights),
        }
    }

    /// Mutable [`f32_weights`](Self::f32_weights) (optimisers).
    ///
    /// # Errors
    /// [`NnError::Int8Weights`] when the layer holds int8 weights.
    pub fn f32_weights_mut(&mut self) -> Result<&mut Matrix> {
        match &mut self.weights {
            Weights::F32(w) => Ok(w),
            Weights::Int8(_) => Err(NnError::Int8Weights),
        }
    }

    /// Convert the weights to `precision` in place (f32 → int8
    /// quantises, int8 → f32 dequantises); a layer already at
    /// `precision` is left as it is, with no round trip.
    ///
    /// # Errors
    /// [`NnError::Tensor`] when the weights cannot be quantised (an
    /// inner dimension too large for the int8 accumulator).
    pub fn set_precision(&mut self, precision: Precision) -> Result<()> {
        self.weights = match (&self.weights, precision) {
            (Weights::F32(w), Precision::Int8) => Weights::Int8(QuantMatrix::quantize(w)?),
            (Weights::Int8(q), Precision::F32) => Weights::F32(q.dequantize()?),
            _ => return Ok(()),
        };
        Ok(())
    }

    /// Resident parameter bytes: the weights at their precision plus the
    /// f32 bias.
    pub fn resident_bytes(&self) -> usize {
        self.weights.resident_bytes() + self.bias.len() * 4
    }

    /// `true` when every float parameter is finite (divergence guard).
    pub fn all_finite(&self) -> bool {
        self.weights.all_finite() && self.bias.iter().all(|v| v.is_finite())
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.weights.rows()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.weights.cols()
    }

    /// Number of parameters (weights + bias), at either precision.
    pub fn param_count(&self) -> usize {
        self.in_dim() * self.out_dim() + self.bias.len()
    }

    /// Forward pass, returning output and the cache for backprop.
    ///
    /// # Errors
    /// Shape mismatch if `x.cols() != in_dim`.
    pub fn forward(&self, x: &Matrix) -> Result<(Matrix, DenseCache)> {
        let mut cache = DenseCache::default();
        let mut out = Matrix::default();
        self.forward_into(x, &mut cache, &mut out)?;
        Ok((out, cache))
    }

    /// Forward pass writing the output into `out` and the backprop state
    /// into `cache`, reusing both allocations across calls. Batched
    /// inputs automatically hit the register-tiled matmul kernel.
    ///
    /// # Errors
    /// Shape mismatch if `x.cols() != in_dim`.
    pub fn forward_into(&self, x: &Matrix, cache: &mut DenseCache, out: &mut Matrix) -> Result<()> {
        self.forward_into_exec(x, cache, out, &Exec::inline())
    }

    /// [`Dense::forward_into`] on an explicit compute context: the
    /// matmul + bias run as one fused, row-panel-parallel kernel (the
    /// pre-activation must be materialised for backprop, so only the
    /// activation stays a separate pass). Bit-identical to the
    /// sequential path at any thread count.
    ///
    /// # Errors
    /// Shape mismatch if `x.cols() != in_dim`;
    /// [`NnError::Int8Weights`] on an int8 layer.
    pub fn forward_into_exec(
        &self,
        x: &Matrix,
        cache: &mut DenseCache,
        out: &mut Matrix,
        exec: &Exec,
    ) -> Result<()> {
        let weights = self.f32_weights()?;
        cache.input.copy_from(x);
        x.matmul_bias_act_into_exec(
            weights,
            &self.bias,
            |v| v,
            &mut cache.pre_activation,
            exec,
        )?;
        let act = self.activation;
        out.copy_from(&cache.pre_activation);
        out.map_inplace(|v| act.apply(v));
        Ok(())
    }

    /// Forward pass without caching (inference).
    ///
    /// # Errors
    /// Shape mismatch if `x.cols() != in_dim`.
    pub fn infer(&self, x: &Matrix) -> Result<Matrix> {
        let mut out = Matrix::default();
        self.infer_into(x, &mut out)?;
        Ok(out)
    }

    /// Inference forward pass writing into a caller-owned output. Batched
    /// inputs automatically hit the register-tiled matmul kernel.
    ///
    /// # Errors
    /// Shape mismatch if `x.cols() != in_dim`.
    pub fn infer_into(&self, x: &Matrix, out: &mut Matrix) -> Result<()> {
        self.infer_into_exec(x, out, &mut QuantScratch::new(), &Exec::inline())
    }

    /// [`Dense::infer_into`] on an explicit compute context: matmul,
    /// bias broadcast and activation fused into one row-panel-parallel
    /// pass over the output, on the f32 GEMM or — for int8 weights — on
    /// the int8 GEMM, which quantises `x` per row into `scratch` first.
    /// Bit-identical to the sequential path at any thread count.
    ///
    /// # Errors
    /// Shape mismatch if `x.cols() != in_dim`.
    pub fn infer_into_exec(
        &self,
        x: &Matrix,
        out: &mut Matrix,
        scratch: &mut QuantScratch,
        exec: &Exec,
    ) -> Result<()> {
        let act = self.activation;
        match &self.weights {
            Weights::F32(w) => {
                x.matmul_bias_act_into_exec(w, &self.bias, |v| act.apply(v), out, exec)?
            }
            Weights::Int8(q) => q.matmul_bias_act_into_exec(
                x,
                &self.bias,
                |v| act.apply(v),
                out,
                scratch,
                exec,
            )?,
        }
        Ok(())
    }

    /// Backward pass: given `∂L/∂out`, produce this layer's gradients and
    /// `∂L/∂input` for the previous layer.
    ///
    /// # Errors
    /// Shape mismatch between cache and upstream gradient.
    pub fn backward(&self, cache: &DenseCache, grad_out: &Matrix) -> Result<(DenseGrad, Matrix)> {
        let mut grad = DenseGrad::default();
        let mut dx = Matrix::default();
        let mut ws = Workspace::new();
        self.backward_into(cache, grad_out, &mut grad, Some(&mut dx), &mut ws)?;
        Ok((grad, dx))
    }

    /// Backward pass writing the layer gradients into `grad` and, when
    /// `dx` is given, the input gradient into it, drawing the δ scratch
    /// matrix from `ws`. `dW = xᵀ·δ` runs on the packed gradient kernel
    /// and `dX = δ·Wᵀ` on the transpose-aware dot kernel, so the caller
    /// materialises no transpose. A network's first layer passes
    /// `dx: None` — nothing reads the gradient of the network input, so
    /// its `δ·Wᵀ` GEMM is skipped.
    ///
    /// # Errors
    /// Shape mismatch between cache and upstream gradient;
    /// [`NnError::Int8Weights`] on an int8 layer.
    pub fn backward_into(
        &self,
        cache: &DenseCache,
        grad_out: &Matrix,
        grad: &mut DenseGrad,
        dx: Option<&mut Matrix>,
        ws: &mut Workspace,
    ) -> Result<()> {
        let weights = self.f32_weights()?;
        if grad_out.shape() != cache.pre_activation.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "dense_backward",
                lhs: grad_out.shape(),
                rhs: cache.pre_activation.shape(),
            }
            .into());
        }
        // δ = grad_out ⊙ act'(z)
        let act = self.activation;
        let exec = ws.exec().clone();
        let mut delta = ws.take(grad_out.rows(), grad_out.cols());
        for (d, (&g, &z)) in delta.as_mut_slice().iter_mut().zip(
            grad_out
                .as_slice()
                .iter()
                .zip(cache.pre_activation.as_slice().iter()),
        ) {
            *d = g * act.derivative(z);
        }
        // db = column sums of δ
        grad.db.clear();
        grad.db.resize(delta.cols(), 0.0);
        for r in 0..delta.rows() {
            for (acc, &v) in grad.db.iter_mut().zip(delta.row(r).iter()) {
                *acc += v;
            }
        }
        // dW = xᵀ · δ ; dX = δ · Wᵀ — both GEMMs split over the
        // workspace's compute pool. xᵀ has dX's size and dX is written
        // only after dW, so xᵀ is packed into dX's buffer; without a dX
        // it borrows a workspace buffer.
        match dx {
            Some(dx) => {
                cache
                    .input
                    .transpose_matmul_into_packed(&delta, &mut grad.dw, dx, &exec)?;
                delta.matmul_transpose_into_exec(weights, dx, &exec)?;
            }
            None => {
                let mut packed = ws.take(0, 0);
                let result = cache
                    .input
                    .transpose_matmul_into_packed(&delta, &mut grad.dw, &mut packed, &exec);
                ws.give(packed);
                result?;
            }
        }
        ws.give(delta);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer(in_dim: usize, out_dim: usize, act: Activation) -> Dense {
        let mut rng = SeededRng::new(42);
        Dense::new(in_dim, out_dim, act, &mut rng)
    }

    #[test]
    fn forward_shapes() {
        let l = layer(4, 3, Activation::Relu);
        let x = Matrix::filled(5, 4, 0.5);
        let (out, cache) = l.forward(&x).unwrap();
        assert_eq!(out.shape(), (5, 3));
        assert_eq!(cache.input.shape(), (5, 4));
        assert_eq!(cache.pre_activation.shape(), (5, 3));
        assert_eq!(l.in_dim(), 4);
        assert_eq!(l.out_dim(), 3);
        assert_eq!(l.param_count(), 15);
        // infer == forward output
        assert_eq!(l.infer(&x).unwrap(), out);
    }

    #[test]
    fn identity_layer_computes_affine() {
        let mut l = layer(2, 2, Activation::Identity);
        l.weights = Weights::F32(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap());
        l.bias = vec![10.0, 20.0];
        let x = Matrix::from_row(&[1.0, 1.0]);
        let (out, _) = l.forward(&x).unwrap();
        assert_eq!(out.as_slice(), &[14.0, 26.0]);
    }

    #[test]
    fn relu_zeroes_negatives() {
        let mut l = layer(1, 2, Activation::Relu);
        l.weights = Weights::F32(Matrix::from_vec(1, 2, vec![1.0, -1.0]).unwrap());
        l.bias = vec![0.0, 0.0];
        let (out, _) = l.forward(&Matrix::from_row(&[2.0])).unwrap();
        assert_eq!(out.as_slice(), &[2.0, 0.0]);
    }

    /// The canonical gradient check: analytic vs central finite
    /// differences on a tiny layer with a scalar loss `L = sum(out)`.
    #[test]
    fn gradient_check_weights_and_bias() {
        for act in [
            Activation::Identity,
            Activation::Tanh,
            Activation::Sigmoid,
            Activation::LeakyRelu,
        ] {
            let mut l = layer(3, 2, act);
            let x = Matrix::from_vec(2, 3, vec![0.5, -0.3, 0.8, -0.1, 0.9, 0.4]).unwrap();
            let (out, cache) = l.forward(&x).unwrap();
            // L = sum(out) -> grad_out = ones
            let grad_out = Matrix::filled(out.rows(), out.cols(), 1.0);
            let (grads, dx) = l.backward(&cache, &grad_out).unwrap();

            let eps = 1e-3f32;
            // Check a few weight entries.
            for &(r, c) in &[(0usize, 0usize), (1, 1), (2, 0)] {
                let orig = l.f32_weights().unwrap().get(r, c);
                l.f32_weights_mut().unwrap().set(r, c, orig + eps);
                let up = l.infer(&x).unwrap().sum();
                l.f32_weights_mut().unwrap().set(r, c, orig - eps);
                let down = l.infer(&x).unwrap().sum();
                l.f32_weights_mut().unwrap().set(r, c, orig);
                let numeric = (up - down) / (2.0 * eps);
                let analytic = grads.dw.get(r, c);
                assert!(
                    (numeric - analytic).abs() < 2e-2,
                    "{act:?} dW[{r},{c}]: numeric {numeric}, analytic {analytic}"
                );
            }
            // Bias entries.
            for c in 0..2 {
                let orig = l.bias[c];
                l.bias[c] = orig + eps;
                let up = l.infer(&x).unwrap().sum();
                l.bias[c] = orig - eps;
                let down = l.infer(&x).unwrap().sum();
                l.bias[c] = orig;
                let numeric = (up - down) / (2.0 * eps);
                assert!(
                    (numeric - grads.db[c]).abs() < 2e-2,
                    "{act:?} db[{c}]"
                );
            }
            // Input gradient.
            let mut x2 = x.clone();
            let orig = x2.get(0, 1);
            x2.set(0, 1, orig + eps);
            let up = l.infer(&x2).unwrap().sum();
            x2.set(0, 1, orig - eps);
            let down = l.infer(&x2).unwrap().sum();
            let numeric = (up - down) / (2.0 * eps);
            assert!(
                (numeric - dx.get(0, 1)).abs() < 2e-2,
                "{act:?} dX[0,1]"
            );
        }
    }

    #[test]
    fn grad_accumulate_and_scale() {
        let l = layer(2, 2, Activation::Identity);
        let mut g = DenseGrad::zeros_like(&l);
        let mut other = DenseGrad::zeros_like(&l);
        other.dw.set(0, 0, 2.0);
        other.db[1] = 4.0;
        g.accumulate(&other).unwrap();
        g.accumulate(&other).unwrap();
        assert_eq!(g.dw.get(0, 0), 4.0);
        assert_eq!(g.db[1], 8.0);
        g.scale(0.5);
        assert_eq!(g.dw.get(0, 0), 2.0);
        assert_eq!(g.db[1], 4.0);
        assert_eq!(g.max_abs(), 4.0);
    }

    #[test]
    fn forward_rejects_bad_input() {
        let l = layer(3, 2, Activation::Relu);
        assert!(l.forward(&Matrix::zeros(1, 4)).is_err());
        assert!(l.infer(&Matrix::zeros(1, 4)).is_err());
    }

    #[test]
    fn serde_roundtrip() {
        let l = layer(3, 2, Activation::Tanh);
        let json = serde_json::to_string(&l).unwrap();
        let back: Dense = serde_json::from_str(&json).unwrap();
        assert_eq!(l, back);
    }
}
