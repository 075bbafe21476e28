//! The composed, versioned pre-processing pipeline.
//!
//! This is "the pre-processing function" of Figure 2 — the first of the
//! three artefacts the Cloud ships to the Edge (§3.2). It composes
//! denoise → feature extraction → normalisation into one serialisable
//! object so both sides run byte-identical pre-processing.

use crate::error::DspError;
use crate::features::{FeatureExtractor, NUM_FEATURES};
use crate::filter::DenoiseConfig;
use crate::guard::{self, GuardConfig, SignalQuality};
use crate::normalize::{Normalizer, NormalizerKind};
use crate::Result;
use serde::{Deserialize, Serialize};

/// Format version embedded in serialised pipelines; the Edge refuses
/// bundles whose version it does not understand.
pub const PIPELINE_VERSION: u32 = 1;

/// Pipeline construction parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Denoising applied per channel before feature extraction.
    pub denoise: DenoiseConfig,
    /// Normalisation scheme fitted during Cloud initialisation.
    pub normalizer_kind: NormalizerKind,
    /// Sample rate of incoming windows (Hz).
    pub sample_rate_hz: f32,
    /// Entry-point signal guard (non-finite / out-of-range repair).
    /// Defaults keep bundles serialised before this field existed
    /// loadable.
    #[serde(default)]
    pub guard: GuardConfig,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            denoise: DenoiseConfig::default(),
            normalizer_kind: NormalizerKind::ZScore,
            sample_rate_hz: 120.0,
            guard: GuardConfig::default(),
        }
    }
}

/// Denoise → 80 features → normalise, as one serialisable unit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PreprocessingPipeline {
    version: u32,
    config: PipelineConfig,
    extractor: FeatureExtractor,
    normalizer: Option<Normalizer>,
}

impl PreprocessingPipeline {
    /// Create an unfitted pipeline (features flow through unnormalised
    /// until [`fit_normalizer`](Self::fit_normalizer) runs on the Cloud).
    pub fn new(config: PipelineConfig) -> Self {
        PreprocessingPipeline {
            version: PIPELINE_VERSION,
            extractor: FeatureExtractor::new(config.sample_rate_hz),
            normalizer: None,
            config,
        }
    }

    /// Format version of this pipeline.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// The construction parameters.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Whether the normaliser has been fitted.
    pub fn is_fitted(&self) -> bool {
        self.normalizer.is_some()
    }

    /// Number of output features (always [`NUM_FEATURES`]).
    pub fn output_dim(&self) -> usize {
        NUM_FEATURES
    }

    /// Raw (denoised, unnormalised) features for one channel-major window.
    ///
    /// # Errors
    /// Propagates extractor errors on malformed windows.
    pub fn raw_features(&self, channels: &[Vec<f32>]) -> Result<Vec<f32>> {
        let mut out = vec![0.0f32; NUM_FEATURES];
        self.raw_features_into(channels, &mut out)?;
        Ok(out)
    }

    /// [`raw_features`](Self::raw_features) writing into a caller-provided
    /// slice of length [`NUM_FEATURES`].
    ///
    /// # Errors
    /// Propagates extractor errors on malformed windows or a wrong-length
    /// output slice.
    pub fn raw_features_into(&self, channels: &[Vec<f32>], out: &mut [f32]) -> Result<()> {
        // Only the 13 channels the features read are denoised, as one
        // time-major strip in per-thread buffers.
        let kernel = self.config.denoise.kernel();
        self.extractor
            .extract_denoised_into(channels, Some(&kernel), out)
    }

    /// Fit the normaliser over a corpus of windows (Cloud side).
    ///
    /// # Errors
    /// Fails when `windows` is empty or any window is malformed.
    pub fn fit_normalizer(&mut self, windows: &[&[Vec<f32>]]) -> Result<()> {
        let mut rows = Vec::with_capacity(windows.len());
        for w in windows {
            rows.push(self.raw_features(w)?);
        }
        self.normalizer = Some(Normalizer::fit(self.config.normalizer_kind, &rows)?);
        Ok(())
    }

    /// Full pipeline: denoise → features → normalise (if fitted).
    ///
    /// # Errors
    /// Propagates extractor/normaliser errors.
    pub fn process(&self, channels: &[Vec<f32>]) -> Result<Vec<f32>> {
        let mut feats = vec![0.0f32; NUM_FEATURES];
        self.process_into(channels, &mut feats)?;
        Ok(feats)
    }

    /// Full pipeline emitting the normalised features directly into a
    /// caller-provided slice — typically one row of a preallocated
    /// `(batch, 80)` feature matrix, so batch featurisation performs no
    /// per-window output allocation.
    ///
    /// # Errors
    /// Propagates extractor/normaliser errors.
    pub fn process_into(&self, channels: &[Vec<f32>], out: &mut [f32]) -> Result<()> {
        self.raw_features_into(channels, out)?;
        if let Some(norm) = &self.normalizer {
            norm.apply(out)?;
        }
        Ok(())
    }

    /// Guarded full pipeline: scan the window at entry, repair any
    /// non-finite / out-of-range samples (last-good-value hold within the
    /// window), then run denoise → features → normalise. Returns whether
    /// the window was [`SignalQuality::Nominal`] or had to be repaired.
    ///
    /// Clean windows take the exact same path as
    /// [`process_into`](Self::process_into) — no copy, no extra work
    /// beyond the scan — so the guard is free on the healthy fast path.
    ///
    /// # Errors
    /// Structural faults (empty channel, wrong channel count, too-short
    /// window) are *not* repairable and still error; only value faults
    /// are scrubbed.
    pub fn process_checked_into(
        &self,
        channels: &[Vec<f32>],
        out: &mut [f32],
    ) -> Result<SignalQuality> {
        if guard::window_is_clean(channels, &self.config.guard) {
            self.process_into(channels, out)?;
            return Ok(SignalQuality::Nominal);
        }
        let mut scrubbed = channels.to_vec();
        guard::scrub_window(&mut scrubbed, &self.config.guard);
        self.process_into(&scrubbed, out)?;
        Ok(SignalQuality::Degraded)
    }

    /// Allocating convenience wrapper around
    /// [`process_checked_into`](Self::process_checked_into).
    ///
    /// # Errors
    /// Same as `process_checked_into`.
    pub fn process_checked(&self, channels: &[Vec<f32>]) -> Result<(Vec<f32>, SignalQuality)> {
        let mut feats = vec![0.0f32; NUM_FEATURES];
        let quality = self.process_checked_into(channels, &mut feats)?;
        Ok((feats, quality))
    }

    /// Serialise to JSON bytes (the bundle embeds this).
    pub fn to_bytes(&self) -> Vec<u8> {
        serde_json::to_vec(self).expect("pipeline serialisation cannot fail")
    }

    /// Deserialise from bytes produced by [`to_bytes`](Self::to_bytes).
    ///
    /// # Errors
    /// [`DspError::InvalidConfig`] on malformed bytes or an unsupported
    /// version.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let p: PreprocessingPipeline = serde_json::from_slice(bytes)
            .map_err(|e| DspError::InvalidConfig(format!("pipeline decode: {e}")))?;
        if p.version != PIPELINE_VERSION {
            return Err(DspError::InvalidConfig(format!(
                "unsupported pipeline version {} (expected {})",
                p.version, PIPELINE_VERSION
            )));
        }
        Ok(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magneto_tensor::SeededRng;

    fn noisy_window(seed: u64) -> Vec<Vec<f32>> {
        let mut rng = SeededRng::new(seed);
        (0..22)
            .map(|c| {
                (0..120)
                    .map(|i| {
                        let t = i as f32 / 120.0;
                        (c as f32 * 0.3)
                            + (std::f32::consts::TAU * 2.0 * t).sin()
                            + rng.normal_with(0.0, 0.1)
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn unfitted_pipeline_passes_raw_features() {
        let p = PreprocessingPipeline::new(PipelineConfig::default());
        assert!(!p.is_fitted());
        assert_eq!(p.output_dim(), 80);
        let w = noisy_window(1);
        let raw = p.raw_features(&w).unwrap();
        let processed = p.process(&w).unwrap();
        assert_eq!(raw, processed);
    }

    #[test]
    fn fitted_pipeline_normalizes() {
        let mut p = PreprocessingPipeline::new(PipelineConfig::default());
        let windows: Vec<Vec<Vec<f32>>> = (0..20).map(noisy_window).collect();
        let refs: Vec<&[Vec<f32>]> = windows.iter().map(|w| w.as_slice()).collect();
        p.fit_normalizer(&refs).unwrap();
        assert!(p.is_fitted());
        // Features of the fitted corpus are roughly standardised.
        let processed: Vec<Vec<f32>> =
            windows.iter().map(|w| p.process(w).unwrap()).collect();
        let col: Vec<f32> = processed.iter().map(|r| r[0]).collect();
        assert!(magneto_tensor::stats::mean(&col).abs() < 0.5);
    }

    #[test]
    fn fit_on_empty_fails() {
        let mut p = PreprocessingPipeline::new(PipelineConfig::default());
        assert!(p.fit_normalizer(&[]).is_err());
    }

    #[test]
    fn denoising_changes_features_of_noisy_window() {
        let p_on = PreprocessingPipeline::new(PipelineConfig::default());
        let p_off = PreprocessingPipeline::new(PipelineConfig {
            denoise: DenoiseConfig::disabled(),
            ..PipelineConfig::default()
        });
        let w = noisy_window(2);
        let a = p_on.raw_features(&w).unwrap();
        let b = p_off.raw_features(&w).unwrap();
        assert_ne!(a, b);
        // Denoising reduces the std features of a noisy constant-ish
        // channel group (magnitudes shrink once HF noise is removed).
        let names = crate::features::FeatureExtractor::feature_names();
        let std_idx = names.iter().position(|n| n == "accel_x.std").unwrap();
        assert!(a[std_idx] <= b[std_idx] + 1e-4);
    }

    #[test]
    fn bytes_roundtrip_preserves_behaviour() {
        let mut p = PreprocessingPipeline::new(PipelineConfig::default());
        let windows: Vec<Vec<Vec<f32>>> = (0..10).map(noisy_window).collect();
        let refs: Vec<&[Vec<f32>]> = windows.iter().map(|w| w.as_slice()).collect();
        p.fit_normalizer(&refs).unwrap();
        let bytes = p.to_bytes();
        let q = PreprocessingPipeline::from_bytes(&bytes).unwrap();
        let w = noisy_window(99);
        assert_eq!(p.process(&w).unwrap(), q.process(&w).unwrap());
        assert_eq!(q.version(), PIPELINE_VERSION);
    }

    #[test]
    fn version_gate_rejects_future_formats() {
        let mut p = PreprocessingPipeline::new(PipelineConfig::default());
        p.version = 99;
        let bytes = serde_json::to_vec(&p).unwrap();
        assert!(matches!(
            PreprocessingPipeline::from_bytes(&bytes),
            Err(DspError::InvalidConfig(_))
        ));
        assert!(PreprocessingPipeline::from_bytes(b"not json").is_err());
    }

    #[test]
    fn config_accessor() {
        let cfg = PipelineConfig::default();
        let p = PreprocessingPipeline::new(cfg);
        assert_eq!(p.config(), &cfg);
    }

    #[test]
    fn pre_guard_configs_deserialize_with_default_guard() {
        // Bundles serialised before the guard field existed must load:
        // round-trip the default config with its "guard" key spliced out.
        let json = serde_json::to_string(&PipelineConfig::default()).unwrap();
        assert!(json.contains("\"guard\""));
        let start = json.find(",\"guard\"").unwrap();
        let end = json[start + 1..].find("}").unwrap() + start + 2;
        let stripped = format!("{}{}", &json[..start], &json[end..]);
        let cfg: PipelineConfig = serde_json::from_str(&stripped).unwrap();
        assert_eq!(cfg.guard, crate::guard::GuardConfig::default());
    }

    // Entry-point guard: one test per injected fault class.

    fn checked(p: &PreprocessingPipeline, w: &[Vec<f32>]) -> (Vec<f32>, SignalQuality) {
        let (feats, q) = p.process_checked(w).unwrap();
        assert!(feats.iter().all(|v| v.is_finite()), "non-finite features");
        (feats, q)
    }

    #[test]
    fn guard_clean_window_is_nominal_and_matches_unchecked() {
        let p = PreprocessingPipeline::new(PipelineConfig::default());
        let w = noisy_window(10);
        let (feats, q) = checked(&p, &w);
        assert_eq!(q, SignalQuality::Nominal);
        assert_eq!(feats, p.process(&w).unwrap());
    }

    #[test]
    fn guard_repairs_nan_samples() {
        let p = PreprocessingPipeline::new(PipelineConfig::default());
        let mut w = noisy_window(11);
        w[3][40] = f32::NAN;
        w[3][41] = f32::NAN;
        let (_, q) = checked(&p, &w);
        assert_eq!(q, SignalQuality::Degraded);
    }

    #[test]
    fn guard_repairs_infinite_samples() {
        let p = PreprocessingPipeline::new(PipelineConfig::default());
        let mut w = noisy_window(12);
        w[0][0] = f32::INFINITY;
        w[21][119] = f32::NEG_INFINITY;
        let (_, q) = checked(&p, &w);
        assert_eq!(q, SignalQuality::Degraded);
    }

    #[test]
    fn guard_repairs_saturated_samples() {
        let p = PreprocessingPipeline::new(PipelineConfig::default());
        let mut w = noisy_window(13);
        w[5][20..30].fill(1.0e7); // above GuardConfig::default().max_abs
        let (_, q) = checked(&p, &w);
        assert_eq!(q, SignalQuality::Degraded);
    }

    #[test]
    fn guard_empty_channel_still_errors() {
        let p = PreprocessingPipeline::new(PipelineConfig::default());
        let mut w = noisy_window(14);
        w[7].clear();
        let mut out = vec![0.0f32; NUM_FEATURES];
        assert!(p.process_checked_into(&w, &mut out).is_err());
    }

    #[test]
    fn guard_all_nan_window_still_produces_finite_features() {
        // Worst case: every sample of every channel is garbage. The
        // scrub holds 0.0 everywhere; features must still be finite
        // (and the quality flag tells the caller not to trust them).
        let p = PreprocessingPipeline::new(PipelineConfig::default());
        let w: Vec<Vec<f32>> = (0..22).map(|_| vec![f32::NAN; 120]).collect();
        let (_, q) = checked(&p, &w);
        assert_eq!(q, SignalQuality::Degraded);
    }
}
