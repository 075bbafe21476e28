//! First-order optimisers: SGD with momentum, and Adam.
//!
//! On-device re-training works with tiny batches (a handful of support-set
//! exemplars plus the freshly recorded windows), where Adam's per-parameter
//! scaling is markedly more stable than plain SGD; both are provided so
//! the ablation benches can compare.

use crate::network::{Gradients, Mlp};
use crate::Result;
use magneto_tensor::Matrix;
use serde::{Deserialize, Serialize};

/// A stateful optimiser applying [`Gradients`] to an [`Mlp`].
pub trait Optimizer {
    /// Apply one update step. The optimiser may keep per-parameter state;
    /// it is keyed positionally, so always pass the same network.
    ///
    /// # Errors
    /// Shape mismatch between network and gradients;
    /// [`crate::NnError::Int8Weights`], before anything changes, when a
    /// layer holds int8 weights.
    fn step(&mut self, net: &mut Mlp, grads: &Gradients) -> Result<()>;

    /// Current learning rate.
    fn learning_rate(&self) -> f32;

    /// Override the learning rate (schedules).
    fn set_learning_rate(&mut self, lr: f32);
}

/// Stochastic gradient descent with classical momentum.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    velocity: Option<Vec<(Matrix, Vec<f32>)>>,
}

impl Sgd {
    /// Create with a learning rate and momentum coefficient (0 disables).
    pub fn new(lr: f32, momentum: f32) -> Self {
        Sgd {
            lr,
            momentum,
            velocity: None,
        }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, net: &mut Mlp, grads: &Gradients) -> Result<()> {
        let layers = net.f32_layers_mut()?;
        let velocity = self.velocity.get_or_insert_with(|| {
            layers
                .iter()
                .map(|l| (Matrix::zeros(l.in_dim(), l.out_dim()), vec![0.0; l.bias.len()]))
                .collect()
        });
        for ((layer, grad), (vw, vb)) in layers
            .iter_mut()
            .zip(grads.layers.iter())
            .zip(velocity.iter_mut())
        {
            // v = µ·v − lr·g ; w += v
            vw.scale_inplace(self.momentum);
            vw.add_scaled_inplace(&grad.dw, -self.lr)?;
            layer.f32_weights_mut()?.add_scaled_inplace(vw, 1.0)?;
            for ((b, vb), g) in layer.bias.iter_mut().zip(vb.iter_mut()).zip(grad.db.iter()) {
                *vb = self.momentum * *vb - self.lr * g;
                *b += *vb;
            }
        }
        Ok(())
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Adam (Kingma & Ba) with bias correction.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    epsilon: f32,
    t: u64,
    state: Option<Vec<AdamLayerState>>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct AdamLayerState {
    mw: Matrix,
    vw: Matrix,
    mb: Vec<f32>,
    vb: Vec<f32>,
}

impl Adam {
    /// Create with the standard hyper-parameters (β₁=0.9, β₂=0.999).
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            epsilon: 1e-8,
            t: 0,
            state: None,
        }
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }
}

impl Optimizer for Adam {
    fn step(&mut self, net: &mut Mlp, grads: &Gradients) -> Result<()> {
        let layers = net.f32_layers_mut()?;
        self.t += 1;
        let state = self.state.get_or_insert_with(|| {
            layers
                .iter()
                .map(|l| AdamLayerState {
                    mw: Matrix::zeros(l.in_dim(), l.out_dim()),
                    vw: Matrix::zeros(l.in_dim(), l.out_dim()),
                    mb: vec![0.0; l.bias.len()],
                    vb: vec![0.0; l.bias.len()],
                })
                .collect()
        });
        let b1 = self.beta1;
        let b2 = self.beta2;
        let bc1 = 1.0 - b1.powi(self.t as i32);
        let bc2 = 1.0 - b2.powi(self.t as i32);
        for ((layer, grad), st) in layers
            .iter_mut()
            .zip(grads.layers.iter())
            .zip(state.iter_mut())
        {
            // Weights.
            let w = layer.f32_weights_mut()?.as_mut_slice();
            let g = grad.dw.as_slice();
            let mw = st.mw.as_mut_slice();
            let vw = st.vw.as_mut_slice();
            for i in 0..w.len() {
                mw[i] = b1 * mw[i] + (1.0 - b1) * g[i];
                vw[i] = b2 * vw[i] + (1.0 - b2) * g[i] * g[i];
                let m_hat = mw[i] / bc1;
                let v_hat = vw[i] / bc2;
                w[i] -= self.lr * m_hat / (v_hat.sqrt() + self.epsilon);
            }
            // Bias.
            for i in 0..layer.bias.len() {
                let gb = grad.db[i];
                st.mb[i] = b1 * st.mb[i] + (1.0 - b1) * gb;
                st.vb[i] = b2 * st.vb[i] + (1.0 - b2) * gb * gb;
                let m_hat = st.mb[i] / bc1;
                let v_hat = st.vb[i] / bc2;
                layer.bias[i] -= self.lr * m_hat / (v_hat.sqrt() + self.epsilon);
            }
        }
        Ok(())
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magneto_tensor::SeededRng;

    /// Quadratic bowl: minimise ‖W·x − y‖² over a 1-layer linear net by
    /// looping forward/backward/step; both optimisers must converge.
    fn converges(opt: &mut dyn Optimizer) -> f32 {
        let mut rng = SeededRng::new(1);
        let mut net = Mlp::new(&[2, 1], &mut rng).unwrap();
        let x = Matrix::from_vec(4, 2, vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.5, -0.5]).unwrap();
        let y = Matrix::from_vec(4, 1, vec![2.0, -1.0, 1.0, 1.5]).unwrap();
        let mut final_loss = f32::MAX;
        for _ in 0..500 {
            let cache = net.forward_cached(&x).unwrap();
            let diff = cache.output.sub(&y).unwrap();
            final_loss =
                diff.as_slice().iter().map(|v| v * v).sum::<f32>() / diff.rows() as f32;
            let grad = diff.scale(2.0 / diff.rows() as f32);
            let grads = net.backward(&cache, &grad).unwrap();
            opt.step(&mut net, &grads).unwrap();
        }
        final_loss
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut opt = Sgd::new(0.1, 0.9);
        let loss = converges(&mut opt);
        assert!(loss < 1e-3, "SGD final loss {loss}");
    }

    #[test]
    fn sgd_without_momentum_also_converges() {
        let mut opt = Sgd::new(0.1, 0.0);
        let loss = converges(&mut opt);
        assert!(loss < 1e-2, "plain SGD final loss {loss}");
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.05);
        let loss = converges(&mut opt);
        assert!(loss < 1e-3, "Adam final loss {loss}");
        assert_eq!(opt.steps(), 500);
    }

    #[test]
    fn learning_rate_accessors() {
        let mut sgd = Sgd::new(0.1, 0.9);
        assert_eq!(sgd.learning_rate(), 0.1);
        sgd.set_learning_rate(0.01);
        assert_eq!(sgd.learning_rate(), 0.01);
        let mut adam = Adam::new(0.001);
        adam.set_learning_rate(0.002);
        assert_eq!(adam.learning_rate(), 0.002);
    }

    #[test]
    fn zero_gradient_is_noop_for_sgd() {
        let mut rng = SeededRng::new(2);
        let mut net = Mlp::new(&[3, 2], &mut rng).unwrap();
        let before = net.clone();
        let grads = Gradients::zeros_like(&net);
        let mut opt = Sgd::new(0.5, 0.0);
        opt.step(&mut net, &grads).unwrap();
        assert_eq!(net, before);
    }

    #[test]
    fn adam_step_magnitude_bounded_by_lr() {
        // Adam's per-parameter step is ≈ lr regardless of gradient scale.
        let mut rng = SeededRng::new(3);
        let mut net = Mlp::new(&[2, 2], &mut rng).unwrap();
        let before = net.layers()[0].f32_weights().unwrap().clone();
        let mut grads = Gradients::zeros_like(&net);
        grads.layers[0].dw = Matrix::filled(2, 2, 1e6); // enormous gradient
        let mut opt = Adam::new(0.01);
        opt.step(&mut net, &grads).unwrap();
        let after = net.layers()[0].f32_weights().unwrap();
        for i in 0..4 {
            let delta = (after.as_slice()[i] - before.as_slice()[i]).abs();
            assert!(delta <= 0.011, "step {delta} exceeds lr bound");
        }
    }

    #[test]
    fn momentum_accelerates_along_consistent_gradient() {
        let mut rng = SeededRng::new(4);
        let mut net = Mlp::new(&[1, 1], &mut rng).unwrap();
        let mut grads = Gradients::zeros_like(&net);
        grads.layers[0].dw = Matrix::filled(1, 1, 1.0);
        let mut opt = Sgd::new(0.1, 0.9);
        let w = |net: &Mlp| net.layers()[0].f32_weights().unwrap().get(0, 0);
        let w0 = w(&net);
        opt.step(&mut net, &grads).unwrap();
        let step1 = w0 - w(&net);
        let w1 = w(&net);
        opt.step(&mut net, &grads).unwrap();
        let step2 = w1 - w(&net);
        assert!(step2 > step1 * 1.5, "momentum should grow steps");
    }
}
