//! Int8 models: quantised storage *and* quantised execution.
//!
//! The paper stresses edge footprint ("Model size, which should be small
//! enough to fit within the Edge", §1; "does not exceed 5 MB", §4.2).
//! Earlier PRs used this module only as a codec — shrink the serialized
//! bundle, dequantise to f32 at deploy. Since the precision refactor it
//! is a first-class forward path: [`QuantizedMlp`] keeps weights
//! resident as int8 with per-output-channel scales and runs inference
//! through the i8×i8→i32 kernels in [`magneto_tensor::quant`], sharing
//! the layer-walking skeleton (and the [`Workspace`] scratch discipline)
//! with the f32 [`Mlp`]. Training stays f32 — gradients need the full
//! dynamic range — so incremental learning dequantises, trains, and
//! re-quantises on commit.

use crate::activation::Activation;
use crate::error::NnError;
use crate::layer::Dense;
use crate::network::Mlp;
use crate::siamese::SiameseNetwork;
use crate::Result;
use magneto_tensor::quant::{QuantMatrix, QuantScratch};
use magneto_tensor::{Exec, Matrix, Workspace};
use serde::{Deserialize, Serialize};

/// One dense layer with int8 weights (symmetric per-output-channel
/// scales) and f32 bias (biases are tiny; quantising them buys nothing).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantizedDense {
    weights: QuantMatrix,
    bias: Vec<f32>,
    activation: Activation,
}

/// A fully-quantised MLP that can run inference directly on its int8
/// weights.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantizedMlp {
    layers: Vec<QuantizedDense>,
}

/// A quantised Siamese network: the int8 backbone plus the contrastive
/// margin, mirroring [`SiameseNetwork`] so either can serve the same
/// embedding space.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantizedSiamese {
    backbone: QuantizedMlp,
    /// Contrastive margin carried through the quantised round trip.
    pub margin: f32,
}

impl QuantizedDense {
    fn quantize(layer: &Dense) -> Result<Self> {
        Ok(QuantizedDense {
            weights: QuantMatrix::quantize(&layer.weights).map_err(NnError::Tensor)?,
            bias: layer.bias.clone(),
            activation: layer.activation,
        })
    }

    fn dequantize(&self) -> Result<Dense> {
        Ok(Dense {
            weights: self.weights.dequantize().map_err(NnError::Tensor)?,
            bias: self.bias.clone(),
            activation: self.activation,
        })
    }

    /// `true` when every float parameter (scales, bias) is finite. The
    /// i8 weights cannot be non-finite; the scales and bias can, if the
    /// f32 model they were quantised from had diverged.
    fn all_finite(&self) -> bool {
        self.weights.scales().iter().all(|s| s.is_finite())
            && self.bias.iter().all(|b| b.is_finite())
    }

    fn in_dim(&self) -> usize {
        self.weights.rows()
    }

    fn out_dim(&self) -> usize {
        self.weights.cols()
    }

    /// Resident parameter bytes: i8 weights + f32 scales + f32 bias.
    fn stored_bytes(&self) -> usize {
        self.weights.stored_bytes() + self.bias.len() * 4
    }

    /// Fused int8 layer forward (`out = act(x·W + b)`).
    fn infer_into_exec(
        &self,
        x: &Matrix,
        out: &mut Matrix,
        scratch: &mut QuantScratch,
        exec: &Exec,
    ) -> Result<()> {
        let act = self.activation;
        self.weights
            .matmul_bias_act_into_exec(x, &self.bias, |v| act.apply(v), out, scratch, exec)
            .map_err(NnError::Tensor)
    }
}

impl QuantizedMlp {
    /// Quantise every layer of an MLP.
    ///
    /// # Errors
    /// [`NnError::Tensor`] only on a degenerate (zero-sized) layer, which
    /// [`Mlp`] construction already rules out.
    pub fn quantize(net: &Mlp) -> Result<Self> {
        Ok(QuantizedMlp {
            layers: net
                .layers()
                .iter()
                .map(QuantizedDense::quantize)
                .collect::<Result<Vec<_>>>()?,
        })
    }

    /// Reconstruct an f32 MLP (lossy: weights round-trip through int8).
    ///
    /// # Errors
    /// [`NnError::Decode`] only on internal inconsistency.
    pub fn dequantize(&self) -> Result<Mlp> {
        if self.layers.is_empty() {
            return Err(NnError::Decode("quantized model has no layers".into()));
        }
        let layers = self
            .layers
            .iter()
            .map(QuantizedDense::dequantize)
            .collect::<Result<Vec<_>>>()?;
        Mlp::from_layers(layers)
    }

    /// `true` when every float parameter of every layer is finite
    /// (mirrors [`Mlp::all_finite`] for the quantised representation).
    pub fn all_finite(&self) -> bool {
        self.layers.iter().all(QuantizedDense::all_finite)
    }

    /// Layer widths, input first (mirrors [`Mlp::dims`]).
    pub fn dims(&self) -> Vec<usize> {
        let mut dims = Vec::with_capacity(self.layers.len() + 1);
        dims.push(self.layers[0].in_dim());
        dims.extend(self.layers.iter().map(QuantizedDense::out_dim));
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

    /// Total parameters (weights + biases), for CLI inspection parity
    /// with [`Mlp::param_count`].
    pub fn param_count(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.weights.rows() * l.weights.cols() + l.bias.len())
            .sum()
    }

    /// Bytes needed to keep the quantised parameters resident.
    pub fn stored_bytes(&self) -> usize {
        self.layers.iter().map(QuantizedDense::stored_bytes).sum()
    }

    /// Int8 inference forward pass writing the embedding batch into
    /// `out`. Runs the same ping-pong skeleton as [`Mlp::forward_into`];
    /// the per-layer step quantises activations into the workspace's
    /// [`QuantScratch`] and dispatches the i8 GEMM on the workspace's
    /// execution context — allocation-free once `ws` is warm, and
    /// bit-identical across pool sizes.
    ///
    /// # Errors
    /// Shape mismatch on malformed input.
    pub fn forward_into(&self, x: &Matrix, out: &mut Matrix, ws: &mut Workspace) -> Result<()> {
        if self.layers.is_empty() {
            return Err(NnError::Decode("quantized model has no layers".into()));
        }
        let exec = ws.exec().clone();
        crate::network::forward_layers(self.layers.len(), x, out, ws, |i, src, dst, ws| {
            self.layers[i].infer_into_exec(src, dst, ws.quant_scratch(), &exec)
        })
    }

    /// Allocating shim over [`forward_into`](Self::forward_into).
    ///
    /// # Errors
    /// Shape mismatch on malformed input.
    pub fn forward(&self, x: &Matrix) -> Result<Matrix> {
        let mut out = Matrix::default();
        let mut ws = Workspace::new();
        self.forward_into(x, &mut out, &mut ws)?;
        Ok(out)
    }

    /// Embed a single feature vector through the int8 path.
    ///
    /// # Errors
    /// Shape mismatch on malformed input.
    pub fn embed_one(&self, features: &[f32]) -> Result<Vec<f32>> {
        let out = self.forward(&Matrix::from_row(features))?;
        Ok(out.into_vec())
    }

    /// Compact binary encoding (format `MGQ2`, per-output-channel
    /// scales; the per-tensor `MGNQ` format of earlier PRs is retired):
    ///
    /// ```text
    /// qmodel := magic "MGQ2" | u32 n_layers | qlayer*
    /// qlayer := u8 activation | u32 rows | u32 cols
    ///           | rows*cols i8 | f32vec scales | f32vec bias
    /// ```
    pub fn to_bytes(&self) -> Vec<u8> {
        use bytes::BufMut;
        let mut buf = bytes::BytesMut::with_capacity(self.stored_bytes() + 64);
        buf.put_slice(b"MGQ2");
        buf.put_u32_le(self.layers.len() as u32);
        for l in &self.layers {
            buf.put_u8(match l.activation {
                Activation::Relu => 0,
                Activation::LeakyRelu => 1,
                Activation::Sigmoid => 2,
                Activation::Tanh => 3,
                Activation::Identity => 4,
            });
            buf.put_u32_le(l.weights.rows() as u32);
            buf.put_u32_le(l.weights.cols() as u32);
            for q in l.weights.row_major() {
                buf.put_i8(q);
            }
            magneto_tensor::serialize::encode_f32_vec(l.weights.scales(), &mut buf);
            magneto_tensor::serialize::encode_f32_vec(&l.bias, &mut buf);
        }
        buf.to_vec()
    }

    /// Decode bytes produced by [`to_bytes`](Self::to_bytes).
    ///
    /// # Errors
    /// [`NnError::Decode`] on malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        use bytes::Buf;
        let mut buf = bytes::Bytes::copy_from_slice(bytes);
        if buf.remaining() < 8 {
            return Err(NnError::Decode("quantized header truncated".into()));
        }
        let mut magic = [0u8; 4];
        buf.copy_to_slice(&mut magic);
        if &magic != b"MGQ2" {
            return Err(NnError::Decode("bad quantized magic".into()));
        }
        let n_layers = buf.get_u32_le();
        if n_layers == 0 || n_layers > 1024 {
            return Err(NnError::Decode(format!(
                "implausible quantized layer count {n_layers}"
            )));
        }
        let mut layers: Vec<QuantizedDense> = Vec::with_capacity(n_layers as usize);
        for _ in 0..n_layers {
            if buf.remaining() < 9 {
                return Err(NnError::Decode("quantized layer header truncated".into()));
            }
            let activation = match buf.get_u8() {
                0 => Activation::Relu,
                1 => Activation::LeakyRelu,
                2 => Activation::Sigmoid,
                3 => Activation::Tanh,
                4 => Activation::Identity,
                other => {
                    return Err(NnError::Decode(format!("unknown activation {other}")))
                }
            };
            let rows = buf.get_u32_le() as usize;
            let cols = buf.get_u32_le() as usize;
            if rows == 0 || cols == 0 || rows > 1_000_000 || cols > 1_000_000 {
                return Err(NnError::Decode("implausible quantized dims".into()));
            }
            let n = rows * cols;
            if buf.remaining() < n {
                return Err(NnError::Decode("quantized weights truncated".into()));
            }
            let mut data = Vec::with_capacity(n);
            for _ in 0..n {
                data.push(buf.get_i8());
            }
            let scales = magneto_tensor::serialize::decode_f32_vec(&mut buf)
                .map_err(NnError::Tensor)?;
            if scales.len() != cols {
                return Err(NnError::Decode("quantized scale length mismatch".into()));
            }
            let bias = magneto_tensor::serialize::decode_f32_vec(&mut buf)
                .map_err(NnError::Tensor)?;
            if bias.len() != cols {
                return Err(NnError::Decode("quantized bias length mismatch".into()));
            }
            // Layers must chain like an f32 MLP.
            if let Some(prev) = layers.last() {
                if prev.out_dim() != rows {
                    return Err(NnError::Decode(format!(
                        "quantized layer chain break: {} -> {rows}",
                        prev.out_dim()
                    )));
                }
            }
            layers.push(QuantizedDense {
                weights: QuantMatrix::from_parts(rows, cols, data, scales)
                    .map_err(NnError::Tensor)?,
                bias,
                activation,
            });
        }
        Ok(QuantizedMlp { layers })
    }

    /// Mean absolute weight error introduced by quantisation.
    ///
    /// # Errors
    /// [`NnError::Decode`] on internal inconsistency.
    pub fn quantization_error(&self, original: &Mlp) -> Result<f32> {
        let restored = self.dequantize()?;
        let mut total = 0.0f64;
        let mut count = 0usize;
        for (a, b) in original.layers().iter().zip(restored.layers().iter()) {
            for (&x, &y) in a.weights.as_slice().iter().zip(b.weights.as_slice().iter()) {
                total += f64::from((x - y).abs());
                count += 1;
            }
        }
        Ok((total / count.max(1) as f64) as f32)
    }
}

impl QuantizedSiamese {
    /// Quantise a Siamese network, keeping the margin.
    ///
    /// # Errors
    /// [`NnError::Tensor`] only on a degenerate layer.
    pub fn quantize(net: &SiameseNetwork) -> Result<Self> {
        Ok(QuantizedSiamese {
            backbone: QuantizedMlp::quantize(net.backbone())?,
            margin: net.margin,
        })
    }

    /// Assemble from a decoded backbone plus margin (bundle decode).
    pub fn from_parts(backbone: QuantizedMlp, margin: f32) -> Self {
        QuantizedSiamese { backbone, margin }
    }

    /// Reconstruct the f32 network (lossy round trip through int8).
    ///
    /// # Errors
    /// [`NnError::Decode`] only on internal inconsistency.
    pub fn dequantize(&self) -> Result<SiameseNetwork> {
        Ok(SiameseNetwork::new(self.backbone.dequantize()?, self.margin))
    }

    /// The int8 backbone.
    pub fn backbone(&self) -> &QuantizedMlp {
        &self.backbone
    }

    /// Embed a batch of feature rows through the int8 path.
    ///
    /// # Errors
    /// Shape mismatch on malformed input.
    pub fn embed(&self, features: &Matrix) -> Result<Matrix> {
        self.backbone.forward(features)
    }

    /// Embed a batch into a caller-owned output, drawing scratch from
    /// `ws` — the int8 twin of [`SiameseNetwork::embed_into`].
    ///
    /// # Errors
    /// Shape mismatch on malformed input.
    pub fn embed_into(&self, features: &Matrix, out: &mut Matrix, ws: &mut Workspace) -> Result<()> {
        self.backbone.forward_into(features, out, ws)
    }

    /// Embed one feature vector.
    ///
    /// # Errors
    /// Shape mismatch on malformed input.
    pub fn embed_one(&self, features: &[f32]) -> Result<Vec<f32>> {
        self.backbone.embed_one(features)
    }

    /// Bytes needed to keep the quantised parameters resident.
    pub fn stored_bytes(&self) -> usize {
        self.backbone.stored_bytes()
    }

    /// `true` when every float parameter (scales, biases, margin) is
    /// finite.
    pub fn all_finite(&self) -> bool {
        self.margin.is_finite() && self.backbone.all_finite()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magneto_tensor::{KernelPlan, SeededRng};

    fn net(seed: u64) -> Mlp {
        Mlp::new(&[8, 16, 4], &mut SeededRng::new(seed)).unwrap()
    }

    #[test]
    fn roundtrip_preserves_architecture() {
        let m = net(1);
        let q = QuantizedMlp::quantize(&m).unwrap();
        let back = q.dequantize().unwrap();
        assert_eq!(back.dims(), m.dims());
        assert_eq!(q.dims(), m.dims());
        assert_eq!(q.param_count(), m.param_count());
        assert_eq!(back.layers()[0].activation, m.layers()[0].activation);
    }

    #[test]
    fn quantization_error_is_small() {
        let m = net(2);
        let q = QuantizedMlp::quantize(&m).unwrap();
        let err = q.quantization_error(&m).unwrap();
        // Max |w| / 254 is the theoretical mean bound for symmetric int8;
        // per-channel scales can only tighten it.
        let bound = m
            .layers()
            .iter()
            .map(|l| l.weights.max_abs())
            .fold(0.0f32, f32::max)
            / 127.0;
        assert!(err <= bound, "err {err} vs bound {bound}");
        assert!(err > 0.0);
    }

    #[test]
    fn embeddings_survive_quantization() {
        let m = net(3);
        let q = QuantizedMlp::quantize(&m).unwrap();
        let back = q.dequantize().unwrap();
        let x = Matrix::filled(4, 8, 0.5);
        let orig = m.forward(&x).unwrap();
        let quant = back.forward(&x).unwrap();
        let rel = orig.sub(&quant).unwrap().frobenius_norm() / orig.frobenius_norm().max(1e-9);
        assert!(rel < 0.05, "relative embedding drift {rel}");
    }

    #[test]
    fn int8_forward_tracks_f32_forward() {
        let m = net(10);
        let q = QuantizedMlp::quantize(&m).unwrap();
        let mut rng = SeededRng::new(11);
        let data: Vec<f32> = (0..6 * 8).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let x = Matrix::from_vec(6, 8, data).unwrap();
        let f32_out = m.forward(&x).unwrap();
        let q_out = q.forward(&x).unwrap();
        assert_eq!(q_out.shape(), f32_out.shape());
        let rel = f32_out.sub(&q_out).unwrap().frobenius_norm()
            / f32_out.frobenius_norm().max(1e-9);
        assert!(rel < 0.1, "int8 forward drift {rel}");
    }

    #[test]
    fn int8_forward_bit_identical_across_pool_sizes() {
        let m = net(12);
        let q = QuantizedMlp::quantize(&m).unwrap();
        let mut rng = SeededRng::new(13);
        let data: Vec<f32> = (0..32 * 8).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let x = Matrix::from_vec(32, 8, data).unwrap();
        let plan = KernelPlan {
            par_min_rows: 8,
            ..KernelPlan::inline()
        };
        let mut ws = Workspace::with_exec(Exec::from_plan(plan));
        let mut base = Matrix::default();
        q.forward_into(&x, &mut base, &mut ws).unwrap();
        for threads in [2usize, 8] {
            let mut ws_t = Workspace::with_exec(Exec::from_plan(plan.with_threads(threads)));
            let mut out = Matrix::default();
            q.forward_into(&x, &mut out, &mut ws_t).unwrap();
            assert_eq!(out, base, "threads={threads}");
        }
    }

    #[test]
    fn storage_is_roughly_quarter_of_f32() {
        let m = net(4);
        let q = QuantizedMlp::quantize(&m).unwrap();
        let f32_bytes = m.param_bytes();
        let q_bytes = q.stored_bytes();
        assert!(
            (q_bytes as f64) < (f32_bytes as f64) * 0.45,
            "quantised {q_bytes} vs f32 {f32_bytes}"
        );
    }

    #[test]
    fn paper_backbone_quantizes_under_one_mb() {
        let m = Mlp::paper_backbone(&mut SeededRng::new(5)).unwrap();
        let q = QuantizedMlp::quantize(&m).unwrap();
        let mb = q.stored_bytes() as f64 / (1024.0 * 1024.0);
        assert!(mb < 1.0, "quantised backbone {mb:.2} MiB");
    }

    #[test]
    fn zero_weights_do_not_divide_by_zero() {
        let mut m = net(6);
        for l in m.layers_mut() {
            l.weights.scale_inplace(0.0);
        }
        let q = QuantizedMlp::quantize(&m).unwrap();
        let back = q.dequantize().unwrap();
        assert!(back.layers()[0].weights.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn serde_roundtrip() {
        let q = QuantizedMlp::quantize(&net(7)).unwrap();
        let json = serde_json::to_string(&q).unwrap();
        let back: QuantizedMlp = serde_json::from_str(&json).unwrap();
        assert_eq!(q, back);
    }

    #[test]
    fn binary_roundtrip_exact() {
        let q = QuantizedMlp::quantize(&net(8)).unwrap();
        let bytes = q.to_bytes();
        let back = QuantizedMlp::from_bytes(&bytes).unwrap();
        assert_eq!(q, back);
        // Binary size tracks stored_bytes closely (header + per-layer
        // framing only).
        assert!(bytes.len() <= q.stored_bytes() + 64);
    }

    #[test]
    fn binary_rejects_corruption() {
        let q = QuantizedMlp::quantize(&net(9)).unwrap();
        let good = q.to_bytes();
        let mut bad = good.clone();
        bad[0] = b'Z';
        assert!(QuantizedMlp::from_bytes(&bad).is_err());
        assert!(QuantizedMlp::from_bytes(&good[..good.len() - 2]).is_err());
        assert!(QuantizedMlp::from_bytes(&[]).is_err());
    }

    #[test]
    fn binary_rejects_truncation_at_every_prefix() {
        let q = QuantizedMlp::quantize(&net(14)).unwrap();
        let good = q.to_bytes();
        for len in 0..good.len() {
            assert!(
                QuantizedMlp::from_bytes(&good[..len]).is_err(),
                "prefix of {len} bytes decoded"
            );
        }
    }

    #[test]
    fn quantized_siamese_roundtrip_and_embed() {
        let mut rng = SeededRng::new(15);
        let net = SiameseNetwork::new(Mlp::new(&[8, 16, 4], &mut rng).unwrap(), 1.25);
        let q = QuantizedSiamese::quantize(&net).unwrap();
        assert_eq!(q.margin, 1.25);
        let back = q.dequantize().unwrap();
        assert_eq!(back.margin, 1.25);
        assert_eq!(back.backbone().dims(), net.backbone().dims());
        let x = Matrix::filled(3, 8, 0.4);
        let e = q.embed(&x).unwrap();
        assert_eq!(e.shape(), (3, 4));
        assert_eq!(q.embed_one(&[0.4; 8]).unwrap().len(), 4);
        let mut out = Matrix::default();
        let mut ws = Workspace::new();
        q.embed_into(&x, &mut out, &mut ws).unwrap();
        assert_eq!(out, e);
    }

    /// FNV-1a 64-bit digest (the bundle content hash's function).
    fn fnv1a64(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// The `MGQ2` bytes of a seeded quantised paper backbone are pinned
    /// to a golden digest, so the in-memory weight layout the int8 GEMM
    /// packs can never leak onto the wire.
    #[test]
    fn paper_backbone_wire_bytes_are_golden() {
        let m = Mlp::paper_backbone(&mut SeededRng::new(24)).unwrap();
        let q = QuantizedMlp::quantize(&m).unwrap();
        let bytes = q.to_bytes();
        assert_eq!(bytes.len(), 703_069);
        assert_eq!(fnv1a64(&bytes), 0xe883_8dce_d4b1_36ad);
        assert_eq!(QuantizedMlp::from_bytes(&bytes).unwrap(), q);
    }
}
