//! The Cloud → Edge bundle.
//!
//! §3.2: three artefacts are transferred into the Edge device — the
//! pre-processing function, the initial ML model, and the support set.
//! [`EdgeBundle`] packages exactly those (plus the label registry that
//! names the classes) into one versioned binary payload, and §4.2's claim
//! — "the entire data size that the demonstration needs on the Edge
//! device … does not exceed 5 MB" — is measured against
//! [`EdgeBundle::to_bytes`].
//!
//! Layout (little-endian, length-prefixed sections):
//!
//! ```text
//! bundle  := magic "MGBD" | u32 wire_version (= 2) | u8 model_format
//!            | section(lineage json)
//!            | section(pipeline json) | section(model)
//!            | section(support set json) | section(registry json)
//! section := u32 len | len bytes
//! ```
//!
//! Every bundle carries its [`Lineage`]. [`WireImage::parse`] is the one
//! reader of this layout: decoding, the rollout's section diff and the
//! size report all split a wire image through it. Any other wire
//! version (including the pre-lineage version 1) is refused with
//! [`CoreError::InvalidBundle`].

use crate::error::CoreError;
use crate::label::LabelRegistry;
use crate::support_set::SupportSet;
use crate::version::{Fnv64, Lineage, ModelVersion};
use crate::Result;
use magneto_dsp::PreprocessingPipeline;
use magneto_nn::serialize::{decode_mlp, decode_quantized_mlp, encode_mlp, encode_quantized_mlp};
use magneto_nn::SiameseNetwork;
use serde::{Deserialize, Serialize};

const MAGIC: &[u8; 4] = b"MGBD";
/// The one wire version: a lineage section follows the format byte.
const WIRE_VERSION: u32 = 2;
const FORMAT_F32: u8 = 0;
const FORMAT_QUANTIZED: u8 = 1;
/// Header bytes ahead of the first section: magic, wire version, model
/// format.
const HEADER_LEN: usize = 9;
/// Largest section the reader accepts.
const MAX_SECTION: usize = 256 * 1024 * 1024;

/// The deployable artefact produced by Cloud initialisation.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeBundle {
    /// The pre-processing function (denoise → 80 features → normalise).
    pub pipeline: PreprocessingPipeline,
    /// The embedding model at the precision it was decoded (or built)
    /// at. A quantised bundle decodes straight into int8 layers — no f32
    /// weights are ever materialised.
    pub model: SiameseNetwork,
    /// Budgeted per-class exemplars.
    pub support_set: SupportSet,
    /// Class id registry.
    pub registry: LabelRegistry,
    /// Version lineage: this bundle's version and its parent's hash.
    pub lineage: Lineage,
}

/// Byte-level breakdown of a serialised bundle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BundleSizeReport {
    /// Pipeline section bytes.
    pub pipeline_bytes: usize,
    /// Model section bytes.
    pub model_bytes: usize,
    /// Support-set section bytes.
    pub support_set_bytes: usize,
    /// Registry section bytes.
    pub registry_bytes: usize,
    /// Total bundle bytes including framing.
    pub total_bytes: usize,
}

impl BundleSizeReport {
    /// Total size in MiB (binary mebibytes, for humans used to them).
    pub fn total_mib(&self) -> f64 {
        self.total_bytes as f64 / (1024.0 * 1024.0)
    }

    /// Total size in decimal megabytes — the unit of the paper's
    /// "does not exceed 5 MB".
    pub fn total_mb(&self) -> f64 {
        self.total_bytes as f64 / 1_000_000.0
    }

    /// Whether the paper's 5 MB budget is met. "MB" is decimal
    /// (5 MB = 5,000,000 bytes); the earlier MiB comparison silently
    /// granted a ~4.9% larger budget than the paper claims.
    pub fn within_5mb(&self) -> bool {
        self.total_bytes <= 5_000_000
    }
}

/// A bundle wire image split into its header and its five sections,
/// none of them decoded.
#[derive(Debug, Clone, Copy)]
pub struct WireImage<'a> {
    /// The 9-byte header: magic, wire version, model format.
    pub header: &'a [u8],
    /// Lineage, pipeline, model, support set and registry, in wire
    /// order.
    pub sections: [&'a [u8]; WireImage::SECTIONS],
}

impl<'a> WireImage<'a> {
    /// Sections in a wire image.
    pub const SECTIONS: usize = 5;
    const NAMES: [&'static str; WireImage::SECTIONS] =
        ["lineage", "pipeline", "model", "support set", "registry"];

    /// Split `bytes` into header and sections. Checks the magic, the
    /// wire version, the model format byte and every section length,
    /// and refuses bytes after the last section.
    ///
    /// # Errors
    /// [`CoreError::InvalidBundle`] naming the first framing problem.
    pub fn parse(bytes: &'a [u8]) -> Result<Self> {
        let invalid = |what: String| Err(CoreError::InvalidBundle(what));
        let Some((header, mut rest)) = bytes.split_at_checked(HEADER_LEN) else {
            return invalid("bundle header truncated".into());
        };
        if &header[..4] != MAGIC {
            return invalid("bad magic".into());
        }
        let wire_version = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
        if wire_version != WIRE_VERSION {
            return invalid(format!(
                "unsupported bundle wire version {wire_version} (expected {WIRE_VERSION})"
            ));
        }
        if !matches!(header[8], FORMAT_F32 | FORMAT_QUANTIZED) {
            return invalid(format!("unknown model format {}", header[8]));
        }
        let mut sections = [&[][..]; WireImage::SECTIONS];
        for (section, what) in sections.iter_mut().zip(WireImage::NAMES) {
            let Some((len, tail)) = rest.split_first_chunk::<4>() else {
                return invalid(format!("{what} header truncated"));
            };
            let len = u32::from_le_bytes(*len) as usize;
            if len > MAX_SECTION {
                return invalid(format!("{what} section implausibly large ({len} bytes)"));
            }
            let Some((body, tail)) = tail.split_at_checked(len) else {
                return invalid(format!("{what} body truncated"));
            };
            *section = body;
            rest = tail;
        }
        if !rest.is_empty() {
            return invalid(format!("{} trailing bytes after the registry", rest.len()));
        }
        Ok(WireImage { header, sections })
    }

    /// Whether the model section stores int8 weights.
    pub fn quantized(&self) -> bool {
        self.header[8] == FORMAT_QUANTIZED
    }

    /// Write a wire image: `header`, then each section with its `u32`
    /// length prefix. Owned sections are dropped as soon as they are
    /// written, so a growing output never coexists with all of them.
    ///
    /// # Errors
    /// Propagates writer I/O errors (an in-memory sink never fails).
    pub fn write<W: std::io::Write>(
        header: &[u8],
        sections: impl IntoIterator<Item = impl AsRef<[u8]>>,
        out: &mut W,
    ) -> std::io::Result<()> {
        out.write_all(header)?;
        for section in sections {
            let section = section.as_ref();
            out.write_all(&(section.len() as u32).to_le_bytes())?;
            out.write_all(section)?;
        }
        Ok(())
    }
}

impl EdgeBundle {
    /// The model section at the requested wire precision (`MGQ2` when
    /// `quantized`, else `MGNN`). Layers held at that precision are
    /// written verbatim; the others convert one layer at a time while
    /// they are written.
    fn model_section(&self, quantized: bool) -> Vec<u8> {
        if quantized {
            encode_quantized_mlp(self.model.backbone())
        } else {
            encode_mlp(self.model.backbone())
        }
    }

    /// Stream the bundle's wire bytes into `out`, section by section —
    /// the same layout [`to_bytes`](Self::to_bytes) produces, without
    /// ever materialising the concatenated bundle. Consumers that only
    /// *scan* the bytes (hashing for a model key, checksumming) write
    /// into a digest sink instead of allocating a full serialized copy.
    ///
    /// # Errors
    /// Propagates writer I/O errors (an in-memory sink never fails).
    pub fn write_wire<W: std::io::Write>(&self, quantized: bool, out: &mut W) -> std::io::Result<()> {
        let support = serde_json::to_vec(&SupportEnvelope {
            margin: self.model.margin,
            support_set: &self.support_set,
        })
        .expect("support set serialisation cannot fail");
        let registry = serde_json::to_vec(&self.registry).expect("registry serialisation");
        let lineage = serde_json::to_vec(&self.lineage).expect("lineage serialisation");

        let mut header = [0u8; HEADER_LEN];
        header[..4].copy_from_slice(MAGIC);
        header[4..8].copy_from_slice(&WIRE_VERSION.to_le_bytes());
        header[8] = if quantized { FORMAT_QUANTIZED } else { FORMAT_F32 };
        let sections = [
            lineage,
            self.pipeline.to_bytes(),
            self.model_section(quantized),
            support,
            registry,
        ];
        WireImage::write(&header, sections, out)
    }

    /// Serialise the bundle. With `quantized = true` the model section
    /// stores int8 weights (~4× smaller, slightly lossy).
    pub fn to_bytes(&self, quantized: bool) -> Vec<u8> {
        let mut buf = Vec::new();
        self.write_wire(quantized, &mut buf)
            .expect("writing to a Vec cannot fail");
        buf
    }

    /// Deserialise a bundle produced by [`to_bytes`](Self::to_bytes).
    ///
    /// # Errors
    /// [`CoreError::InvalidBundle`] on any framing/content problem.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let wire = WireImage::parse(bytes)?;
        let [lineage_bytes, pipeline_bytes, model_bytes, support_bytes, registry_bytes] =
            wire.sections;
        let lineage: Lineage = serde_json::from_slice(lineage_bytes)
            .map_err(|e| CoreError::InvalidBundle(format!("lineage: {e}")))?;
        let pipeline = PreprocessingPipeline::from_bytes(pipeline_bytes)?;
        let envelope: SupportEnvelopeOwned = serde_json::from_slice(support_bytes)
            .map_err(|e| CoreError::InvalidBundle(format!("support set: {e}")))?;
        let registry: LabelRegistry = serde_json::from_slice(registry_bytes)
            .map_err(|e| CoreError::InvalidBundle(format!("registry: {e}")))?;

        // A quantised model section stays quantised: the int8 weights
        // become the resident model directly, with zero f32 rehydration.
        let backbone = if wire.quantized() {
            decode_quantized_mlp(model_bytes)?
        } else {
            decode_mlp(model_bytes)?
        };
        let model = SiameseNetwork::new(backbone, envelope.margin);

        let bundle = EdgeBundle {
            pipeline,
            model,
            support_set: envelope.support_set,
            registry,
            lineage,
        };
        bundle.validate()?;
        Ok(bundle)
    }

    /// This bundle's model version.
    pub fn version(&self) -> ModelVersion {
        self.lineage.version
    }

    /// Replace the lineage (stamp a successor or a chosen version).
    #[must_use]
    pub fn with_lineage(mut self, lineage: Lineage) -> EdgeBundle {
        self.lineage = lineage;
        self
    }

    /// FNV-1a content hash over the full-precision wire bytes — the
    /// identity a child's [`Lineage::parent`] records. Streams through
    /// a digest sink; no serialized copy is materialised.
    pub fn content_hash(&self) -> u64 {
        let mut digest = Fnv64::new();
        self.write_wire(false, &mut digest)
            .expect("digest sink cannot fail");
        digest.finish()
    }

    /// A lineage for a direct successor of this bundle: next version,
    /// parent hash set to this bundle's content hash.
    pub fn child_lineage(&self) -> Lineage {
        Lineage {
            version: self.version().next(),
            parent: Some(self.content_hash()),
        }
    }

    /// Cross-component consistency checks (run automatically on decode).
    ///
    /// # Errors
    /// [`CoreError::InvalidBundle`] describing the first inconsistency.
    pub fn validate(&self) -> Result<()> {
        if self.lineage.version.0 == 0 {
            return Err(CoreError::InvalidBundle(
                "lineage carries version v0; versions start at v1".into(),
            ));
        }
        let input_dim = self.model.backbone().input_dim();
        if input_dim != self.pipeline.output_dim() {
            return Err(CoreError::InvalidBundle(format!(
                "model expects {input_dim} features, pipeline produces {}",
                self.pipeline.output_dim()
            )));
        }
        for label in self.support_set.classes() {
            if !self.registry.contains(label) {
                return Err(CoreError::InvalidBundle(format!(
                    "support class `{label}` missing from registry"
                )));
            }
        }
        if let Some(dim) = self.support_set.dim() {
            if dim != self.pipeline.output_dim() {
                return Err(CoreError::InvalidBundle(format!(
                    "support samples have {dim} features, pipeline produces {}",
                    self.pipeline.output_dim()
                )));
            }
        }
        Ok(())
    }

    /// Measured size breakdown for a given precision.
    pub fn size_report(&self, quantized: bool) -> BundleSizeReport {
        let bytes = self.to_bytes(quantized);
        let wire = WireImage::parse(&bytes).expect("a bundle parses its own wire image");
        let [_, pipeline, model, support, registry] = wire.sections.map(<[u8]>::len);
        BundleSizeReport {
            pipeline_bytes: pipeline,
            model_bytes: model,
            support_set_bytes: support,
            registry_bytes: registry,
            total_bytes: bytes.len(),
        }
    }

    /// Serialised total at f32 precision (convenience).
    pub fn total_bytes(&self) -> usize {
        self.to_bytes(false).len()
    }
}

#[derive(Serialize)]
struct SupportEnvelope<'a> {
    margin: f32,
    support_set: &'a SupportSet,
}

#[derive(Deserialize)]
struct SupportEnvelopeOwned {
    margin: f32,
    support_set: SupportSet,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::support_set::SelectionStrategy;
    use magneto_dsp::PipelineConfig;
    use magneto_nn::Mlp;
    use magneto_tensor::SeededRng;

    fn tiny_bundle(seed: u64) -> EdgeBundle {
        let mut rng = SeededRng::new(seed);
        let mut pipeline = PreprocessingPipeline::new(PipelineConfig::default());
        // Fit the normaliser on a few synthetic windows.
        let windows: Vec<Vec<Vec<f32>>> = (0..4)
            .map(|k| {
                (0..22)
                    .map(|c| {
                        (0..120)
                            .map(|i| ((c + k) as f32 * 0.1 + i as f32 * 0.01).sin())
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let refs: Vec<&[Vec<f32>]> = windows.iter().map(|w| w.as_slice()).collect();
        pipeline.fit_normalizer(&refs).unwrap();

        let backbone = Mlp::new(&[80, 16, 8], &mut rng).unwrap();
        let mut support = SupportSet::new(10, SelectionStrategy::Random);
        let samples: Vec<Vec<f32>> = (0..6).map(|_| vec![0.1; 80]).collect();
        support.set_class("walk", &samples, &mut rng).unwrap();
        support.set_class("run", &samples, &mut rng).unwrap();
        EdgeBundle {
            pipeline,
            model: SiameseNetwork::new(backbone, 1.0),
            support_set: support,
            registry: LabelRegistry::from_labels(["walk", "run"]),
            lineage: Lineage::root(1),
        }
    }

    #[test]
    fn roundtrip_f32() {
        let b = tiny_bundle(1);
        let bytes = b.to_bytes(false);
        let back = EdgeBundle::from_bytes(&bytes).unwrap();
        assert_eq!(b, back);
    }

    #[test]
    fn roundtrip_quantized_preserves_structure() {
        let b = tiny_bundle(2);
        let bytes = b.to_bytes(true);
        let back = EdgeBundle::from_bytes(&bytes).unwrap();
        // Weights are lossy but architecture and everything else is exact,
        // and the decoded model stays int8 — no f32 rehydration.
        assert_eq!(back.model.precision(), crate::Precision::Int8);
        assert_eq!(back.model.dims(), b.model.dims());
        assert_eq!(back.support_set, b.support_set);
        assert_eq!(back.registry, b.registry);
        assert!(bytes.len() < b.to_bytes(false).len());
    }

    #[test]
    fn quantized_bundle_reserializes_verbatim() {
        // int8 → bytes → int8 → bytes is lossless: the resident weights
        // are written back without any dequantize/requantize round trip.
        let b = tiny_bundle(10);
        let bytes = b.to_bytes(true);
        let back = EdgeBundle::from_bytes(&bytes).unwrap();
        assert_eq!(back.to_bytes(true), bytes);
    }

    #[test]
    fn size_report_is_consistent() {
        let b = tiny_bundle(3);
        let report = b.size_report(false);
        assert_eq!(report.total_bytes, b.total_bytes());
        let parts = report.pipeline_bytes
            + report.model_bytes
            + report.support_set_bytes
            + report.registry_bytes;
        let lineage = serde_json::to_vec(&b.lineage).unwrap().len();
        // Total = parts + lineage + framing (9-byte header + 5 section
        // headers).
        assert_eq!(report.total_bytes, parts + lineage + 9 + 20);
        // The split matches the sections the serialisers produce.
        assert_eq!(report.pipeline_bytes, b.pipeline.to_bytes().len());
        assert_eq!(report.model_bytes, b.model_section(false).len());
        assert_eq!(
            b.size_report(true).model_bytes,
            b.model_section(true).len()
        );
        assert!(report.total_mib() > 0.0);
    }

    #[test]
    fn corruption_rejected() {
        let b = tiny_bundle(4);
        let good = b.to_bytes(false);
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(
            EdgeBundle::from_bytes(&bad),
            Err(CoreError::InvalidBundle(_))
        ));
        let mut bad_version = good.clone();
        bad_version[4] = 9;
        assert!(EdgeBundle::from_bytes(&bad_version).is_err());
        assert!(EdgeBundle::from_bytes(&good[..good.len() / 2]).is_err());
        assert!(EdgeBundle::from_bytes(&[]).is_err());
    }

    #[test]
    fn validate_catches_inconsistencies() {
        let mut b = tiny_bundle(5);
        // Registry missing a support class.
        b.registry = LabelRegistry::from_labels(["walk"]);
        assert!(matches!(b.validate(), Err(CoreError::InvalidBundle(_))));

        // Model input dim that does not match the pipeline.
        let mut b2 = tiny_bundle(6);
        let mut rng = SeededRng::new(7);
        b2.model = SiameseNetwork::new(Mlp::new(&[40, 8], &mut rng).unwrap(), 1.0);
        assert!(b2.validate().is_err());
    }

    #[test]
    fn decode_validates() {
        // A bundle whose support set references a class absent from the
        // registry must fail from_bytes, not just validate().
        let mut b = tiny_bundle(8);
        b.registry = LabelRegistry::from_labels(["walk"]);
        let bytes = b.to_bytes(false);
        assert!(EdgeBundle::from_bytes(&bytes).is_err());
    }

    #[test]
    fn margin_survives_roundtrip() {
        let mut b = tiny_bundle(9);
        b.model.margin = 2.5;
        let back = EdgeBundle::from_bytes(&b.to_bytes(false)).unwrap();
        assert_eq!(back.model.margin, 2.5);
        let back_q = EdgeBundle::from_bytes(&b.to_bytes(true)).unwrap();
        assert_eq!(back_q.model.margin, 2.5);
    }

    #[test]
    fn within_5mb_uses_decimal_megabytes() {
        let at_budget = BundleSizeReport {
            pipeline_bytes: 0,
            model_bytes: 0,
            support_set_bytes: 0,
            registry_bytes: 0,
            total_bytes: 5_000_000,
        };
        assert!(at_budget.within_5mb());
        let one_over = BundleSizeReport {
            total_bytes: 5_000_001,
            ..at_budget
        };
        assert!(!one_over.within_5mb());
        // 5,000,001 bytes is under 5 MiB — the old MiB comparison would
        // have (wrongly) passed it.
        assert!(one_over.total_mib() < 5.0);
        assert!(one_over.total_mb() > 5.0);
    }

    #[test]
    fn wire_v1_bundle_is_refused() {
        // The pre-lineage layout: wire version 1 and no lineage section.
        let bytes = tiny_bundle(20).to_bytes(false);
        let wire = WireImage::parse(&bytes).unwrap();
        let mut header = wire.header.to_vec();
        header[4..8].copy_from_slice(&1u32.to_le_bytes());
        let mut v1 = Vec::new();
        WireImage::write(&header, &wire.sections[1..], &mut v1).unwrap();
        let err = EdgeBundle::from_bytes(&v1).unwrap_err();
        assert!(matches!(err, CoreError::InvalidBundle(_)), "{err}");
        assert!(err.to_string().contains("wire version 1"), "{err}");
    }

    #[test]
    fn parse_splits_every_section_and_refuses_trailing_bytes() {
        let b = tiny_bundle(27);
        for quantized in [false, true] {
            let bytes = b.to_bytes(quantized);
            let wire = WireImage::parse(&bytes).unwrap();
            assert_eq!(wire.quantized(), quantized);
            assert_eq!(wire.sections[0], serde_json::to_vec(&b.lineage).unwrap());
            let mut rebuilt = Vec::new();
            WireImage::write(wire.header, wire.sections, &mut rebuilt).unwrap();
            assert_eq!(rebuilt, bytes);
            let mut longer = bytes.clone();
            longer.push(0);
            assert!(matches!(
                EdgeBundle::from_bytes(&longer),
                Err(CoreError::InvalidBundle(_))
            ));
        }
    }

    #[test]
    fn versioned_bundle_roundtrips_lineage() {
        let root = tiny_bundle(21).with_lineage(Lineage::root(4));
        for quantized in [false, true] {
            let bytes = root.to_bytes(quantized);
            assert_eq!(&bytes[4..8], &2u32.to_le_bytes());
            let back = EdgeBundle::from_bytes(&bytes).unwrap();
            assert_eq!(back.version(), ModelVersion(4));
            assert_eq!(back.lineage, root.lineage);
            // Versioned bundles re-serialize byte-identically too.
            assert_eq!(back.to_bytes(quantized), bytes);
        }
    }

    #[test]
    fn child_lineage_validates_against_parent() {
        let root = tiny_bundle(22);
        let child = tiny_bundle(23).with_lineage(root.child_lineage());
        assert_eq!(child.version(), ModelVersion(2));
        child
            .lineage
            .validate_succession(root.version(), root.content_hash())
            .unwrap();
        // A tampered parent does not validate.
        let other = tiny_bundle(24);
        assert!(child
            .lineage
            .validate_succession(other.version(), other.content_hash())
            .is_err());
    }

    #[test]
    fn lineage_with_legacy_version_is_rejected() {
        // v0 is no version: a lineage stamped v0 is refused.
        let b = tiny_bundle(25).with_lineage(Lineage::root(0));
        assert!(matches!(b.validate(), Err(CoreError::InvalidBundle(_))));
        assert!(matches!(
            EdgeBundle::from_bytes(&b.to_bytes(false)),
            Err(CoreError::InvalidBundle(_))
        ));
    }

    #[test]
    fn content_hash_streams_the_f32_wire() {
        let b = tiny_bundle(26);
        let mut digest = Fnv64::new();
        digest.update(&b.to_bytes(false));
        assert_eq!(b.content_hash(), digest.finish());
        // Another lineage changes the wire bytes and thus the hash.
        let versioned = b.clone().with_lineage(Lineage::root(2));
        assert_ne!(versioned.content_hash(), digest.finish());
    }

    #[test]
    fn truncation_at_every_prefix_errors_without_panicking() {
        for b in [tiny_bundle(11), tiny_bundle(11).with_lineage(Lineage::root(3))] {
            for quantized in [false, true] {
                let good = b.to_bytes(quantized);
                for cut in 0..good.len() {
                    assert!(
                        EdgeBundle::from_bytes(&good[..cut]).is_err(),
                        "prefix of {cut}/{} bytes decoded successfully",
                        good.len()
                    );
                }
            }
        }
    }

    #[test]
    fn random_byte_flips_never_panic() {
        for b in [tiny_bundle(12), tiny_bundle(12).with_lineage(Lineage::root(2))] {
            for quantized in [false, true] {
                let good = b.to_bytes(quantized);
                let mut rng = SeededRng::new(13);
                for _ in 0..200 {
                    let mut bad = good.clone();
                    let pos = (rng.next_u64() as usize) % bad.len();
                    let bit = 1u8 << ((rng.next_u64() % 8) as u8);
                    bad[pos] ^= bit;
                    // Decoding corrupted input may fail or (for benign flips)
                    // succeed; it must never panic.
                    let _ = EdgeBundle::from_bytes(&bad);
                }
            }
        }
    }
}
