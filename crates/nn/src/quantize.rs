//! A layer's weights at either precision, and the int8 conversions.
//!
//! The paper stresses edge footprint ("Model size, which should be small
//! enough to fit within the Edge", §1; "does not exceed 5 MB", §4.2).
//! Int8 is a property of a layer's [`Weights`], not a second network
//! type: an int8 layer keeps its weights resident as int8 with
//! per-output-channel scales and runs inference through the i8×i8→i32
//! kernels in [`magneto_tensor::quant`]; an f32 layer runs the f32 GEMM
//! and is the only kind that trains. A network converts with
//! [`crate::Mlp::into_precision`], one layer at a time, so an int8
//! device that learns dequantises, trains and re-quantises on commit.
//! The `MGQ2` wire format of an int8 network lives beside `MGNN` in
//! [`crate::serialize`].

use crate::Result;
use magneto_tensor::quant::QuantMatrix;
use magneto_tensor::{Matrix, Precision};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// A layer's weight matrix, `(in_dim, out_dim)`, at the precision it is
/// held at.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Weights {
    /// Full-precision weights; the only kind that trains.
    F32(Matrix),
    /// Int8 weights with symmetric per-output-channel scales. The bias
    /// stays f32 (biases are tiny; quantising them buys nothing).
    Int8(QuantMatrix),
}

impl Weights {
    /// The precision the weights are held at.
    pub fn precision(&self) -> Precision {
        match self {
            Weights::F32(_) => Precision::F32,
            Weights::Int8(_) => Precision::Int8,
        }
    }

    /// Rows (the layer's input dimension).
    pub fn rows(&self) -> usize {
        match self {
            Weights::F32(w) => w.rows(),
            Weights::Int8(q) => q.rows(),
        }
    }

    /// Columns (the layer's output dimension).
    pub fn cols(&self) -> usize {
        match self {
            Weights::F32(w) => w.cols(),
            Weights::Int8(q) => q.cols(),
        }
    }

    /// Resident bytes: four per f32 weight; for int8, the packed i8
    /// data plus the f32 scales.
    pub fn resident_bytes(&self) -> usize {
        match self {
            Weights::F32(w) => w.len() * 4,
            Weights::Int8(q) => q.stored_bytes(),
        }
    }

    /// `true` when every float is finite. The i8 weights cannot be
    /// non-finite; their scales can, if the f32 weights they were
    /// quantised from had diverged.
    pub fn all_finite(&self) -> bool {
        match self {
            Weights::F32(w) => w.all_finite(),
            Weights::Int8(q) => q.scales().iter().all(|s| s.is_finite()),
        }
    }

    /// The weights as f32: borrowed when held at f32, dequantised (lossy
    /// round trip through int8) otherwise.
    ///
    /// # Errors
    /// [`NnError::Tensor`] only on internal inconsistency.
    pub fn to_f32(&self) -> Result<Cow<'_, Matrix>> {
        match self {
            Weights::F32(w) => Ok(Cow::Borrowed(w)),
            Weights::Int8(q) => Ok(Cow::Owned(q.dequantize()?)),
        }
    }

    /// The weights as int8: borrowed when held at int8, quantised
    /// otherwise.
    ///
    /// # Errors
    /// [`NnError::Tensor`] only on a degenerate (zero-sized) matrix,
    /// which layer construction rules out.
    pub fn to_int8(&self) -> Result<Cow<'_, QuantMatrix>> {
        match self {
            Weights::F32(w) => Ok(Cow::Owned(QuantMatrix::quantize(w)?)),
            Weights::Int8(q) => Ok(Cow::Borrowed(q)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Mlp;
    use crate::serialize::{decode_quantized_mlp, encode_quantized_mlp};
    use crate::siamese::SiameseNetwork;
    use magneto_tensor::{Exec, KernelPlan, SeededRng, Workspace};

    fn net(seed: u64) -> Mlp {
        Mlp::new(&[8, 16, 4], &mut SeededRng::new(seed)).unwrap()
    }

    fn int8(net: &Mlp) -> Mlp {
        net.clone().into_precision(Precision::Int8).unwrap()
    }

    #[test]
    fn roundtrip_preserves_architecture() {
        let m = net(1);
        let q = int8(&m);
        let back = q.clone().into_precision(Precision::F32).unwrap();
        assert_eq!(back.dims(), m.dims());
        assert_eq!(q.dims(), m.dims());
        assert_eq!(q.param_count(), m.param_count());
        assert_eq!(back.layers()[0].activation, m.layers()[0].activation);
        assert_eq!(q.precision(), Precision::Int8);
        assert_eq!(back.precision(), Precision::F32);
    }

    #[test]
    fn quantization_error_is_small() {
        let m = net(2);
        let back = int8(&m).into_precision(Precision::F32).unwrap();
        let mut total = 0.0f64;
        let mut count = 0usize;
        for (a, b) in m.layers().iter().zip(back.layers()) {
            let (a, b) = (a.f32_weights().unwrap(), b.f32_weights().unwrap());
            for (&x, &y) in a.as_slice().iter().zip(b.as_slice()) {
                total += f64::from((x - y).abs());
                count += 1;
            }
        }
        let err = (total / count as f64) as f32;
        // Max |w| / 254 is the theoretical mean bound for symmetric int8;
        // per-channel scales can only tighten it.
        let bound = m
            .layers()
            .iter()
            .map(|l| l.f32_weights().unwrap().max_abs())
            .fold(0.0f32, f32::max)
            / 127.0;
        assert!(err <= bound, "err {err} vs bound {bound}");
        assert!(err > 0.0);
    }

    #[test]
    fn embeddings_survive_quantization() {
        let m = net(3);
        let back = int8(&m).into_precision(Precision::F32).unwrap();
        let x = Matrix::filled(4, 8, 0.5);
        let orig = m.forward(&x).unwrap();
        let quant = back.forward(&x).unwrap();
        let rel = orig.sub(&quant).unwrap().frobenius_norm() / orig.frobenius_norm().max(1e-9);
        assert!(rel < 0.05, "relative embedding drift {rel}");
    }

    #[test]
    fn int8_forward_tracks_f32_forward() {
        let m = net(10);
        let q = int8(&m);
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
        let q = int8(&net(12));
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
        let f32_bytes = m.resident_bytes();
        assert_eq!(f32_bytes, m.param_bytes());
        let q_bytes = int8(&m).resident_bytes();
        assert!(
            (q_bytes as f64) < (f32_bytes as f64) * 0.45,
            "quantised {q_bytes} vs f32 {f32_bytes}"
        );
    }

    #[test]
    fn paper_backbone_quantizes_under_one_mb() {
        let m = Mlp::paper_backbone(&mut SeededRng::new(5)).unwrap();
        let mb = int8(&m).resident_bytes() as f64 / (1024.0 * 1024.0);
        assert!(mb < 1.0, "quantised backbone {mb:.2} MiB");
    }

    #[test]
    fn zero_weights_do_not_divide_by_zero() {
        let mut m = net(6);
        for l in m.layers_mut() {
            l.f32_weights_mut().unwrap().scale_inplace(0.0);
        }
        let back = int8(&m).into_precision(Precision::F32).unwrap();
        let w = back.layers()[0].f32_weights().unwrap();
        assert!(w.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn serde_roundtrip() {
        let q = int8(&net(7));
        let json = serde_json::to_string(&q).unwrap();
        let back: Mlp = serde_json::from_str(&json).unwrap();
        assert_eq!(q, back);
    }

    // The `MGQ2` codec's round trip on an int8 network; the codec and
    // its golden digest live in `crate::serialize`.
    #[test]
    fn binary_roundtrip_exact() {
        let q = int8(&net(8));
        let bytes = encode_quantized_mlp(&q);
        let back = decode_quantized_mlp(&bytes).unwrap();
        assert_eq!(q, back);
        // Binary size tracks the resident bytes closely (header +
        // per-layer framing only).
        assert!(bytes.len() <= q.resident_bytes() + 64);
    }

    #[test]
    fn binary_rejects_corruption() {
        let good = encode_quantized_mlp(&int8(&net(9)));
        let mut bad = good.clone();
        bad[0] = b'Z';
        assert!(decode_quantized_mlp(&bad).is_err());
        assert!(decode_quantized_mlp(&good[..good.len() - 2]).is_err());
        assert!(decode_quantized_mlp(&[]).is_err());
    }

    #[test]
    fn binary_rejects_truncation_at_every_prefix() {
        let good = encode_quantized_mlp(&int8(&net(14)));
        for len in 0..good.len() {
            assert!(
                decode_quantized_mlp(&good[..len]).is_err(),
                "prefix of {len} bytes decoded"
            );
        }
    }

    #[test]
    fn quantized_siamese_roundtrip_and_embed() {
        let mut rng = SeededRng::new(15);
        let net = SiameseNetwork::new(Mlp::new(&[8, 16, 4], &mut rng).unwrap(), 1.25);
        let q = net.clone().into_precision(Precision::Int8).unwrap();
        assert_eq!(q.margin, 1.25);
        let back = q.clone().into_precision(Precision::F32).unwrap();
        assert_eq!(back.margin, 1.25);
        assert_eq!(back.dims(), net.dims());
        let x = Matrix::filled(3, 8, 0.4);
        let e = q.embed(&x).unwrap();
        assert_eq!(e.shape(), (3, 4));
        assert_eq!(q.embed_one(&[0.4; 8]).unwrap().len(), 4);
        let mut out = Matrix::default();
        let mut ws = Workspace::new();
        q.embed_into(&x, &mut out, &mut ws).unwrap();
        assert_eq!(out, e);
    }
}
