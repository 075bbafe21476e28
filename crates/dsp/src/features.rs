//! The 80-feature statistical extractor.
//!
//! §4.1.2: "We extract 80 statistical features." The paper does not
//! enumerate them; this reproduction fixes a concrete, conventional HAR
//! feature table with exactly 80 entries, stable in count and order (the
//! network input layer, the normaliser and the support set all depend on
//! that stability):
//!
//! * 8 derived series — `accel_x/y/z`, `|accel|`, `|gyro|`, `|linacc|`,
//!   `|mag|`, `pressure` — × 9 time-domain statistics each
//!   (mean, std, min, max, median, IQR, RMS, skewness, kurtosis) = **72**;
//! * 8 extended features: `|accel|` mean-crossing rate, dominant
//!   frequency, spectral entropy and 8–45 Hz band-energy ratio; `|gyro|`
//!   mean-crossing rate and spectral entropy; Pearson correlations
//!   `accel_x·accel_y` and `accel_y·accel_z` = **8**.
//!
//! All time-domain statistics are `O(n)` except the order statistics
//! (`O(n log n)`), matching the paper's "linear processing time" claim in
//! spirit; the spectral features probe `n/2` DFT bins.

use crate::error::DspError;
use crate::filter::{gather_rows, DenoiseKernel, DenoiseScratch, Row, LANES};
use crate::spectral::{self, Goertzel};
use crate::Result;
use magneto_tensor::stats;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;

/// Number of features produced by [`FeatureExtractor::extract`]. The paper
/// specifies 80.
pub const NUM_FEATURES: usize = 80;

/// Channel-layout assumptions (indices into the 22-channel window).
mod layout {
    pub const ACCEL: [usize; 3] = [0, 1, 2];
    pub const GYRO: [usize; 3] = [3, 4, 5];
    pub const MAG: [usize; 3] = [6, 7, 8];
    pub const LINACC: [usize; 3] = [9, 10, 11];
    pub const PRESSURE: usize = 19;
    pub const MIN_CHANNELS: usize = 20;
    /// The channels the features read, in strip-lane order: lane `c` is
    /// channel `c` for the four 3-axis groups, and pressure rides lane
    /// [`PRESSURE_LANE`].
    pub const READ: [usize; 13] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, PRESSURE];
    pub const PRESSURE_LANE: usize = 12;
}

/// The derived series, one lane each of the series strip.
const SERIES: usize = 8;

const BASE_STATS: [&str; 9] = [
    "mean", "std", "min", "max", "median", "iqr", "rms", "skew", "kurt",
];

const SERIES_NAMES: [&str; 8] = [
    "accel_x",
    "accel_y",
    "accel_z",
    "accel_mag",
    "gyro_mag",
    "linacc_mag",
    "mag_mag",
    "pressure",
];

/// The spec-table-driven feature extractor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FeatureExtractor {
    /// Sample rate of incoming windows (Hz); needed by spectral features.
    pub sample_rate_hz: f32,
}

impl Default for FeatureExtractor {
    fn default() -> Self {
        FeatureExtractor {
            sample_rate_hz: 120.0,
        }
    }
}

impl FeatureExtractor {
    /// Create an extractor for windows sampled at `sample_rate_hz`.
    pub fn new(sample_rate_hz: f32) -> Self {
        FeatureExtractor { sample_rate_hz }
    }

    /// Names of the 80 features, in output order.
    pub fn feature_names() -> Vec<String> {
        let mut names = Vec::with_capacity(NUM_FEATURES);
        for series in SERIES_NAMES {
            for stat in BASE_STATS {
                names.push(format!("{series}.{stat}"));
            }
        }
        names.extend(
            [
                "accel_mag.mcr",
                "accel_mag.dom_freq",
                "accel_mag.spec_entropy",
                "accel_mag.band_8_45",
                "gyro_mag.mcr",
                "gyro_mag.spec_entropy",
                "corr.accel_xy",
                "corr.accel_yz",
            ]
            .iter()
            .map(|s| s.to_string()),
        );
        debug_assert_eq!(names.len(), NUM_FEATURES);
        names
    }

    /// Extract the 80-dimensional feature vector from a channel-major
    /// window (≥ 20 channels in the standard sensor layout, any length
    /// ≥ 8 samples).
    ///
    /// # Errors
    /// [`DspError::ChannelMismatch`] / [`DspError::WindowTooShort`] on
    /// malformed input.
    pub fn extract(&self, channels: &[Vec<f32>]) -> Result<Vec<f32>> {
        let mut out = vec![0.0f32; NUM_FEATURES];
        self.extract_into(channels, &mut out)?;
        Ok(out)
    }

    /// [`extract`](Self::extract) writing the 80 features directly into a
    /// caller-provided slice — typically one row of a preallocated
    /// feature matrix, so batch featurisation allocates no per-window
    /// output vectors.
    ///
    /// # Errors
    /// [`DspError::DimensionMismatch`] unless `out.len() == NUM_FEATURES`,
    /// plus the malformed-window errors of [`extract`](Self::extract).
    pub fn extract_into(&self, channels: &[Vec<f32>], out: &mut [f32]) -> Result<()> {
        self.extract_denoised_into(channels, None, out)
    }

    /// [`extract_into`](Self::extract_into) on the window as `kernel`
    /// denoises it. Only the 13 channels the features read are denoised,
    /// and all buffers are per-thread, so a warmed thread allocates
    /// nothing per window.
    ///
    /// # Errors
    /// As [`extract_into`](Self::extract_into).
    pub(crate) fn extract_denoised_into(
        &self,
        channels: &[Vec<f32>],
        kernel: Option<&DenoiseKernel>,
        out: &mut [f32],
    ) -> Result<()> {
        if out.len() != NUM_FEATURES {
            return Err(DspError::DimensionMismatch {
                expected: NUM_FEATURES,
                found: out.len(),
            });
        }
        if channels.len() < layout::MIN_CHANNELS {
            return Err(DspError::ChannelMismatch {
                expected: layout::MIN_CHANNELS,
                found: channels.len(),
            });
        }
        let n = channels.iter().map(Vec::len).min().unwrap_or(0);
        if n < 8 {
            return Err(DspError::WindowTooShort {
                required: 8,
                found: n,
            });
        }
        FRONT_END.with(|cell| {
            let fe = &mut *cell.borrow_mut();
            fe.load(channels, n, kernel);
            fe.extract(self.sample_rate_hz, out);
        });
        Ok(())
    }
}

thread_local! {
    /// One front end per thread, after the per-thread staging buffers of
    /// the dense kernels.
    static FRONT_END: RefCell<FrontEnd> = RefCell::new(FrontEnd::default());
}

/// The buffers of one featurisation, reused across windows.
#[derive(Debug, Default)]
struct FrontEnd {
    /// Time-major strip of the channels in [`layout::READ`].
    rows: Vec<Row>,
    tmp: Vec<Row>,
    /// Per-channel denoise output and scratch (ragged windows, median
    /// widths the strip does not run).
    channel: Vec<f32>,
    channel_scratch: DenoiseScratch,
    /// Time-major strip of the eight series.
    series: Vec<[f32; SERIES]>,
    /// The eight series channel-major, `n` samples each.
    columns: Vec<f32>,
    sorted: Vec<f32>,
    spectrum: Vec<f32>,
    goertzel: Goertzel,
}

impl FrontEnd {
    /// Fill `rows` with the first `n` samples of the channels the
    /// features read, denoised by `kernel` when one is given.
    fn load(&mut self, channels: &[Vec<f32>], n: usize, kernel: Option<&DenoiseKernel>) {
        let read = layout::READ.iter().map(|&c| channels[c].as_slice());
        match kernel {
            Some(k)
                if !k.runs_on_rows() || layout::READ.iter().any(|&c| channels[c].len() != n) =>
            {
                // Each channel is denoised over its own full length (the
                // backward pass starts at its own last sample), then
                // clipped to `n`.
                self.rows.clear();
                self.rows.resize(n, [0.0; LANES]);
                for (lane, ch) in read.enumerate() {
                    k.apply_into(ch, &mut self.channel, &mut self.channel_scratch);
                    for (row, &x) in self.rows.iter_mut().zip(&self.channel) {
                        row[lane] = x;
                    }
                }
            }
            _ => {
                gather_rows(read, n, &mut self.rows);
                if let Some(k) = kernel {
                    k.denoise_rows(&mut self.rows, &mut self.tmp);
                }
            }
        }
    }

    /// The 80 features of the loaded strip into `out`.
    fn extract(&mut self, sample_rate_hz: f32, out: &mut [f32]) {
        let n = self.rows.len();
        let len = n as f32;
        self.series.clear();
        self.series.extend(self.rows.iter().map(|r| {
            let mag = |[x, y, z]: [usize; 3]| (r[x] * r[x] + r[y] * r[y] + r[z] * r[z]).sqrt();
            [
                r[layout::ACCEL[0]],
                r[layout::ACCEL[1]],
                r[layout::ACCEL[2]],
                mag(layout::ACCEL),
                mag(layout::GYRO),
                mag(layout::LINACC),
                mag(layout::MAG),
                r[layout::PRESSURE_LANE],
            ]
        }));

        // The nine statistics need three passes: raw sums (mean, RMS,
        // min, max), centred second moment (std, as
        // `stats::variance_with`), and standardised third/fourth moments
        // (skew, kurtosis). Each pass updates all eight series per time
        // step, and each lane accumulates in ascending `t` exactly as a
        // serial pass over its own series does.
        let (mut sum, mut sum_sq) = ([0.0f32; SERIES], [0.0f32; SERIES]);
        let (mut lo, mut hi) = ([f32::INFINITY; SERIES], [f32::NEG_INFINITY; SERIES]);
        for x in &self.series {
            for l in 0..SERIES {
                sum[l] += x[l];
                sum_sq[l] += x[l] * x[l];
                lo[l] = lo[l].min(x[l]);
                hi[l] = hi[l].max(x[l]);
            }
        }
        let mean = sum.map(|s| s / len);
        let mut var = [0.0f32; SERIES];
        for x in &self.series {
            for l in 0..SERIES {
                var[l] += (x[l] - mean[l]) * (x[l] - mean[l]);
            }
        }
        let std = var.map(|v| (v / len).sqrt());
        let (mut m3, mut m4) = ([0.0f32; SERIES], [0.0f32; SERIES]);
        for x in &self.series {
            for l in 0..SERIES {
                let d = (x[l] - mean[l]) / std[l];
                let d2 = d * d;
                m3[l] += d2 * d;
                m4[l] += d2 * d2;
            }
        }

        let FrontEnd {
            series,
            columns,
            sorted,
            spectrum,
            goertzel,
            ..
        } = self;
        columns.clear();
        columns.resize(SERIES * n, 0.0);
        for (t, x) in series.iter().enumerate() {
            for (l, &v) in x.iter().enumerate() {
                columns[l * n + t] = v;
            }
        }
        let column = |l: usize| &columns[l * n..(l + 1) * n];
        // The order statistics of each series share one sorted copy
        // (median and IQR probe the same ranks).
        let per_series = out.chunks_exact_mut(BASE_STATS.len()).take(SERIES);
        for (l, row) in per_series.enumerate() {
            sorted.clear();
            sorted.extend_from_slice(column(l));
            stats::sort_nan_last(sorted);
            // A flat series (std below 1e-12) reports zero skew and
            // kurtosis. Its moments were divided by that std, so only
            // lanes with `std >= 1e-12` keep them; a NaN std (NaN input)
            // is neither, and reads moments of zero as the serial pass
            // that skipped it did.
            let flat = std[l] < 1e-12;
            let (m3, m4) = if std[l] >= 1e-12 {
                (m3[l], m4[l])
            } else {
                (0.0, 0.0)
            };
            row.copy_from_slice(&[
                mean[l],
                std[l],
                lo[l],
                hi[l],
                stats::percentile_of_sorted(sorted, 50.0),
                stats::percentile_of_sorted(sorted, 75.0)
                    - stats::percentile_of_sorted(sorted, 25.0),
                (sum_sq[l] / len).sqrt(),
                if flat { 0.0 } else { m3 / len },
                if flat { 0.0 } else { m4 / len - 3.0 },
            ]);
        }
        // Each magnitude series contributes several spectral summaries;
        // evaluate its Goertzel spectrum once and share it.
        let (accel_mag, gyro_mag) = (column(3), column(4));
        let extended = &mut out[SERIES * BASE_STATS.len()..];
        goertzel.magnitudes_into(accel_mag, spectrum);
        extended[0] = stats::mean_crossing_rate(accel_mag);
        extended[1] = spectral::dominant_frequency_of(spectrum, n, sample_rate_hz);
        extended[2] = spectral::spectral_entropy_of(spectrum);
        extended[3] = spectral::band_energy_ratio_of(spectrum, n, sample_rate_hz, 8.0, 45.0);
        extended[4] = stats::mean_crossing_rate(gyro_mag);
        goertzel.magnitudes_into(gyro_mag, spectrum);
        extended[5] = spectral::spectral_entropy_of(spectrum);
        extended[6] = stats::pearson(column(0), column(1));
        extended[7] = stats::pearson(column(1), column(2));

        // A malformed sample must never poison downstream training.
        for v in out.iter_mut() {
            if !v.is_finite() {
                *v = 0.0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic 22-channel window: channel c holds a sinusoid with
    /// channel-dependent frequency/offset so features are nontrivial.
    fn test_window(n: usize) -> Vec<Vec<f32>> {
        (0..22)
            .map(|c| {
                (0..n)
                    .map(|i| {
                        let t = i as f32 / 120.0;
                        (c as f32 + 1.0) * 0.1
                            + ((c as f32 + 1.0) * t * std::f32::consts::TAU).sin()
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn exactly_80_features() {
        assert_eq!(NUM_FEATURES, 80);
        assert_eq!(FeatureExtractor::feature_names().len(), 80);
        let fx = FeatureExtractor::default();
        let out = fx.extract(&test_window(120)).unwrap();
        assert_eq!(out.len(), 80);
    }

    #[test]
    fn feature_names_unique() {
        let mut names = FeatureExtractor::feature_names();
        names.sort();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn rejects_malformed_windows() {
        let fx = FeatureExtractor::default();
        assert!(matches!(
            fx.extract(&test_window(120)[..5]),
            Err(DspError::ChannelMismatch { .. })
        ));
        assert!(matches!(
            fx.extract(&test_window(4)),
            Err(DspError::WindowTooShort { .. })
        ));
    }

    #[test]
    fn all_features_finite_even_for_constant_window() {
        let fx = FeatureExtractor::default();
        let constant: Vec<Vec<f32>> = vec![vec![1.0; 120]; 22];
        let out = fx.extract(&constant).unwrap();
        assert!(out.iter().all(|v| v.is_finite()));
        // std/iqr/skew of a constant are zero.
        let names = FeatureExtractor::feature_names();
        let idx = |name: &str| names.iter().position(|n| n == name).unwrap();
        assert_eq!(out[idx("accel_x.std")], 0.0);
        assert_eq!(out[idx("accel_x.iqr")], 0.0);
        assert_eq!(out[idx("accel_x.skew")], 0.0);
    }

    #[test]
    fn deterministic() {
        let fx = FeatureExtractor::default();
        let w = test_window(120);
        assert_eq!(fx.extract(&w).unwrap(), fx.extract(&w).unwrap());
    }

    #[test]
    fn mean_feature_matches_stats() {
        let fx = FeatureExtractor::default();
        let w = test_window(120);
        let out = fx.extract(&w).unwrap();
        let names = FeatureExtractor::feature_names();
        let idx = names.iter().position(|n| n == "accel_x.mean").unwrap();
        assert!((out[idx] - stats::mean(&w[0])).abs() < 1e-6);
        let pidx = names.iter().position(|n| n == "pressure.mean").unwrap();
        assert!((out[pidx] - stats::mean(&w[19])).abs() < 1e-6);
    }

    #[test]
    fn accel_mag_features_use_magnitude() {
        let fx = FeatureExtractor::default();
        let mut w: Vec<Vec<f32>> = vec![vec![0.0; 120]; 22];
        w[0] = vec![3.0; 120];
        w[1] = vec![4.0; 120];
        let out = fx.extract(&w).unwrap();
        let names = FeatureExtractor::feature_names();
        let idx = names.iter().position(|n| n == "accel_mag.mean").unwrap();
        assert!((out[idx] - 5.0).abs() < 1e-5);
    }

    #[test]
    fn dominant_frequency_feature_sees_cadence() {
        let fx = FeatureExtractor::default();
        let mut w: Vec<Vec<f32>> = vec![vec![0.0; 120]; 22];
        // 3 Hz oscillation on accel_z, constant elsewhere.
        w[2] = (0..120)
            .map(|i| 9.8 + (std::f32::consts::TAU * 3.0 * i as f32 / 120.0).sin())
            .collect();
        let out = fx.extract(&w).unwrap();
        let names = FeatureExtractor::feature_names();
        let idx = names
            .iter()
            .position(|n| n == "accel_mag.dom_freq")
            .unwrap();
        assert!((out[idx] - 3.0).abs() < 1.1, "dom freq {}", out[idx]);
    }

    #[test]
    fn correlation_features_detect_coupled_axes() {
        let fx = FeatureExtractor::default();
        let mut w: Vec<Vec<f32>> = vec![vec![0.0; 120]; 22];
        let sig: Vec<f32> = (0..120)
            .map(|i| (std::f32::consts::TAU * 2.0 * i as f32 / 120.0).sin())
            .collect();
        w[0] = sig.clone();
        w[1] = sig.clone(); // x and y perfectly correlated
        w[2] = sig.iter().map(|v| -v).collect(); // z anti-correlated to y
        let out = fx.extract(&w).unwrap();
        let names = FeatureExtractor::feature_names();
        let xy = names.iter().position(|n| n == "corr.accel_xy").unwrap();
        let yz = names.iter().position(|n| n == "corr.accel_yz").unwrap();
        assert!(out[xy] > 0.99);
        assert!(out[yz] < -0.99);
    }

    #[test]
    fn works_with_short_and_long_windows() {
        let fx = FeatureExtractor::default();
        for n in [8, 60, 120, 240] {
            assert_eq!(fx.extract(&test_window(n)).unwrap().len(), 80);
        }
    }

    #[test]
    fn serde_roundtrip() {
        let fx = FeatureExtractor::new(100.0);
        let json = serde_json::to_string(&fx).unwrap();
        let back: FeatureExtractor = serde_json::from_str(&json).unwrap();
        assert_eq!(fx, back);
    }
}
