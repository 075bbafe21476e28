//! The model wire formats: `MGNN` (f32 weights) and `MGQ2` (int8
//! weights) for the Cloud → Edge bundle.
//!
//! JSON would inflate the ~700k-parameter backbone severalfold; the bundle
//! uses the little-endian framing from `magneto-tensor::serialize` instead:
//!
//! ```text
//! model   := magic "MGNN" | u32 version | u32 n_layers | layer*
//! layer   := u8 activation | matrix weights | f32vec bias
//!
//! qmodel  := magic "MGQ2" | u32 n_layers | qlayer*
//! qlayer  := u8 activation | u32 rows | u32 cols
//!            | rows*cols i8 | f32vec scales | f32vec bias
//! ```
//!
//! Either format encodes a network whatever precision its layers hold:
//! a layer at the other precision is converted on its own while it is
//! written, so no second copy of the network exists. `MGNN` decodes to
//! f32 layers and `MGQ2` to int8 layers (per-output-channel scales; the
//! per-tensor `MGNQ` format of earlier versions is retired).

use crate::activation::Activation;
use crate::error::NnError;
use crate::layer::Dense;
use crate::network::Mlp;
use crate::quantize::Weights;
use crate::Result;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use magneto_tensor::quant::QuantMatrix;
use magneto_tensor::serialize as ts;

const MAGIC: &[u8; 4] = b"MGNN";
const VERSION: u32 = 1;
const QUANT_MAGIC: &[u8; 4] = b"MGQ2";

fn activation_code(a: Activation) -> u8 {
    match a {
        Activation::Relu => 0,
        Activation::LeakyRelu => 1,
        Activation::Sigmoid => 2,
        Activation::Tanh => 3,
        Activation::Identity => 4,
    }
}

fn activation_from_code(c: u8) -> Result<Activation> {
    Ok(match c {
        0 => Activation::Relu,
        1 => Activation::LeakyRelu,
        2 => Activation::Sigmoid,
        3 => Activation::Tanh,
        4 => Activation::Identity,
        other => return Err(NnError::Decode(format!("unknown activation code {other}"))),
    })
}

/// Reject an implausible layer count before allocating for it.
fn check_layer_count(n_layers: u32) -> Result<usize> {
    if n_layers == 0 || n_layers > 1024 {
        return Err(NnError::Decode(format!("implausible layer count {n_layers}")));
    }
    Ok(n_layers as usize)
}

/// Encode a model as `MGNN`. Int8 layers are dequantised one at a time.
pub fn encode_mlp(net: &Mlp) -> Vec<u8> {
    let mut buf = BytesMut::with_capacity(encoded_size(net));
    buf.put_slice(MAGIC);
    buf.put_u32_le(VERSION);
    buf.put_u32_le(net.num_layers() as u32);
    for layer in net.layers() {
        buf.put_u8(activation_code(layer.activation));
        let weights = layer
            .weights
            .to_f32()
            .expect("a constructed int8 layer dequantises");
        ts::encode_matrix(&weights, &mut buf);
        ts::encode_f32_vec(&layer.bias, &mut buf);
    }
    buf.to_vec()
}

/// Decode a model previously written by [`encode_mlp`]; every layer
/// holds f32 weights.
///
/// # Errors
/// [`NnError::Decode`] on bad magic/version/truncation, and
/// [`NnError::InvalidArchitecture`] if the decoded layers do not chain.
pub fn decode_mlp(bytes: &[u8]) -> Result<Mlp> {
    let mut buf = Bytes::copy_from_slice(bytes);
    if buf.remaining() < 12 {
        return Err(NnError::Decode("model header truncated".into()));
    }
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(NnError::Decode("bad magic (not a MAGNETO model)".into()));
    }
    let version = buf.get_u32_le();
    if version != VERSION {
        return Err(NnError::Decode(format!(
            "unsupported model version {version} (expected {VERSION})"
        )));
    }
    let n_layers = check_layer_count(buf.get_u32_le())?;
    let mut layers = Vec::with_capacity(n_layers);
    for _ in 0..n_layers {
        if buf.remaining() < 1 {
            return Err(NnError::Decode("layer header truncated".into()));
        }
        let activation = activation_from_code(buf.get_u8())?;
        let weights = ts::decode_matrix(&mut buf)?;
        let bias = ts::decode_f32_vec(&mut buf)?;
        if bias.len() != weights.cols() {
            return Err(NnError::Decode(format!(
                "bias length {} does not match layer width {}",
                bias.len(),
                weights.cols()
            )));
        }
        layers.push(Dense {
            weights: Weights::F32(weights),
            bias,
            activation,
        });
    }
    Mlp::from_layers(layers)
}

/// Encoded size in bytes of a model under the `MGNN` framing.
pub fn encoded_size(net: &Mlp) -> usize {
    12 + net
        .layers()
        .iter()
        .map(|l| 1 + 8 + l.in_dim() * l.out_dim() * 4 + ts::f32_vec_encoded_size(&l.bias))
        .sum::<usize>()
}

/// Encode a model as `MGQ2`. F32 layers are quantised one at a time.
pub fn encode_quantized_mlp(net: &Mlp) -> Vec<u8> {
    let mut buf = BytesMut::with_capacity(net.param_count() + 64);
    buf.put_slice(QUANT_MAGIC);
    buf.put_u32_le(net.num_layers() as u32);
    for layer in net.layers() {
        let q = layer
            .weights
            .to_int8()
            .expect("a constructed layer has no degenerate weights");
        buf.put_u8(activation_code(layer.activation));
        buf.put_u32_le(q.rows() as u32);
        buf.put_u32_le(q.cols() as u32);
        for v in q.row_major() {
            buf.put_i8(v);
        }
        ts::encode_f32_vec(q.scales(), &mut buf);
        ts::encode_f32_vec(&layer.bias, &mut buf);
    }
    buf.to_vec()
}

/// Decode a model previously written by [`encode_quantized_mlp`];
/// every layer holds int8 weights.
///
/// # Errors
/// [`NnError::Decode`] on bad magic, truncation or inconsistent lengths,
/// and [`NnError::InvalidArchitecture`] if the layers do not chain.
pub fn decode_quantized_mlp(bytes: &[u8]) -> Result<Mlp> {
    let mut buf = Bytes::copy_from_slice(bytes);
    if buf.remaining() < 8 {
        return Err(NnError::Decode("quantized header truncated".into()));
    }
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != QUANT_MAGIC {
        return Err(NnError::Decode("bad quantized magic".into()));
    }
    let n_layers = check_layer_count(buf.get_u32_le())?;
    let mut layers = Vec::with_capacity(n_layers);
    for _ in 0..n_layers {
        if buf.remaining() < 9 {
            return Err(NnError::Decode("quantized layer header truncated".into()));
        }
        let activation = activation_from_code(buf.get_u8())?;
        let rows = buf.get_u32_le() as usize;
        let cols = buf.get_u32_le() as usize;
        if rows == 0 || cols == 0 || rows > 1_000_000 || cols > 1_000_000 {
            return Err(NnError::Decode("implausible quantized dims".into()));
        }
        let n = rows * cols;
        let Some(block) = buf.chunk().get(..n) else {
            return Err(NnError::Decode("quantized weights truncated".into()));
        };
        let data = block.iter().map(|&b| b as i8).collect();
        buf.advance(n);
        let scales = ts::decode_f32_vec(&mut buf)?;
        if scales.len() != cols {
            return Err(NnError::Decode("quantized scale length mismatch".into()));
        }
        let bias = ts::decode_f32_vec(&mut buf)?;
        if bias.len() != cols {
            return Err(NnError::Decode("quantized bias length mismatch".into()));
        }
        layers.push(Dense {
            weights: Weights::Int8(QuantMatrix::from_parts(rows, cols, data, scales)?),
            bias,
            activation,
        });
    }
    Mlp::from_layers(layers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use magneto_tensor::{Matrix, SeededRng};

    fn net(seed: u64) -> Mlp {
        Mlp::new(&[5, 9, 3], &mut SeededRng::new(seed)).unwrap()
    }

    #[test]
    fn roundtrip_is_exact() {
        let m = net(1);
        let bytes = encode_mlp(&m);
        assert_eq!(bytes.len(), encoded_size(&m));
        let back = decode_mlp(&bytes).unwrap();
        assert_eq!(m, back);
        // Behavioural identity too.
        let x = Matrix::filled(2, 5, 0.7);
        assert_eq!(m.forward(&x).unwrap(), back.forward(&x).unwrap());
    }

    #[test]
    fn paper_backbone_encoded_size_matches_expectation() {
        let m = Mlp::paper_backbone(&mut SeededRng::new(2)).unwrap();
        let bytes = encode_mlp(&m);
        // params * 4 plus a small framing overhead.
        assert!(bytes.len() >= m.param_bytes());
        assert!(bytes.len() < m.param_bytes() + 1024);
    }

    #[test]
    fn rejects_corruption() {
        let m = net(3);
        let good = encode_mlp(&m);

        // Bad magic.
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(decode_mlp(&bad), Err(NnError::Decode(_))));

        // Bad version.
        let mut bad = good.clone();
        bad[4] = 99;
        assert!(decode_mlp(&bad).is_err());

        // Truncated.
        assert!(decode_mlp(&good[..good.len() - 3]).is_err());
        assert!(decode_mlp(&good[..8]).is_err());
        assert!(decode_mlp(&[]).is_err());
    }

    #[test]
    fn rejects_unknown_activation() {
        let m = net(4);
        let mut bytes = encode_mlp(&m);
        bytes[12] = 200; // first layer's activation code
        assert!(matches!(decode_mlp(&bytes), Err(NnError::Decode(_))));
    }

    #[test]
    fn rejects_zero_layers() {
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        buf.put_u32_le(VERSION);
        buf.put_u32_le(0);
        assert!(decode_mlp(&buf).is_err());
    }

    /// FNV-1a 64-bit digest (the bundle content hash's function).
    fn fnv1a64(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// The `MGQ2` bytes of a seeded quantised paper backbone are pinned
    /// to a golden digest, so the in-memory weight layout the int8 GEMM
    /// packs can never leak onto the wire. Quantising while encoding and
    /// encoding an int8 network give the same bytes.
    #[test]
    fn paper_backbone_wire_bytes_are_golden() {
        let m = Mlp::paper_backbone(&mut SeededRng::new(24)).unwrap();
        let bytes = encode_quantized_mlp(&m);
        assert_eq!(bytes.len(), 703_069);
        assert_eq!(fnv1a64(&bytes), 0xe883_8dce_d4b1_36ad);
        let q = m.into_precision(magneto_tensor::Precision::Int8).unwrap();
        assert_eq!(encode_quantized_mlp(&q), bytes);
        assert_eq!(decode_quantized_mlp(&bytes).unwrap(), q);
    }

    #[test]
    fn activation_codes_roundtrip() {
        for a in [
            Activation::Relu,
            Activation::LeakyRelu,
            Activation::Sigmoid,
            Activation::Tanh,
            Activation::Identity,
        ] {
            assert_eq!(activation_from_code(activation_code(a)).unwrap(), a);
        }
        assert!(activation_from_code(17).is_err());
    }
}
