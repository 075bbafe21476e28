//! The DSP front end against a frozen oracle.
//!
//! `oracle` is a verbatim copy of the channel-major front end (one
//! denoise strip as wide as the window, per-channel fallback, one serial
//! moment chain per series, Goertzel tables rebuilt per spectrum). The
//! served front end must reproduce it bit for bit: `raw_features_into`,
//! `process_checked_into`, `extract_into` and `apply_window_into` are
//! compared by `to_bits` on random finite windows of every shape the
//! pipeline accepts, and the unguarded calls also on windows with
//! infinite samples.

use magneto_dsp::filter::{DenoiseConfig, WindowDenoiseScratch};
use magneto_dsp::{FeatureExtractor, PipelineConfig, PreprocessingPipeline, NUM_FEATURES};
use magneto_tensor::SeededRng;
use proptest::prelude::*;

mod oracle {
    use magneto_dsp::spectral;
    use magneto_tensor::stats;
    use std::f32::consts::TAU;

    fn median_filter_into(xs: &[f32], k: usize, out: &mut Vec<f32>) {
        out.clear();
        if k <= 1 || xs.is_empty() {
            out.extend_from_slice(xs);
            return;
        }
        let n = xs.len();
        if k == 3 {
            if n == 1 {
                out.push(xs[0]);
                return;
            }
            out.push(xs[0].max(xs[1]));
            for w in xs.windows(3) {
                let (a, b, c) = (w[0], w[1], w[2]);
                out.push(a.max(b).min(a.min(b).max(c)));
            }
            out.push(xs[n - 2].max(xs[n - 1]));
            return;
        }
        let half = k / 2;
        let mut buf: Vec<f32> = Vec::with_capacity(k);
        for i in 0..n {
            let lo = i.saturating_sub(half);
            let hi = (i + half + 1).min(n);
            buf.clear();
            buf.extend_from_slice(&xs[lo..hi]);
            buf.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            out.push(buf[buf.len() / 2]);
        }
    }

    #[derive(Clone, Copy)]
    struct Biquad {
        b0: f32,
        b1: f32,
        b2: f32,
        a1: f32,
        a2: f32,
    }

    impl Biquad {
        fn lowpass(cutoff_hz: f64, sample_rate_hz: f64) -> Self {
            let nyquist = sample_rate_hz / 2.0;
            let fc = cutoff_hz.clamp(0.01, nyquist * 0.99);
            let w0 = std::f64::consts::PI * 2.0 * fc / sample_rate_hz;
            let cos_w0 = w0.cos();
            let q = std::f64::consts::FRAC_1_SQRT_2;
            let alpha = w0.sin() / (2.0 * q);
            let b0 = (1.0 - cos_w0) / 2.0;
            let b1 = 1.0 - cos_w0;
            let b2 = (1.0 - cos_w0) / 2.0;
            let a0 = 1.0 + alpha;
            let a1 = -2.0 * cos_w0;
            let a2 = 1.0 - alpha;
            Biquad {
                b0: (b0 / a0) as f32,
                b1: (b1 / a0) as f32,
                b2: (b2 / a0) as f32,
                a1: (a1 / a0) as f32,
                a2: (a2 / a0) as f32,
            }
        }

        fn filter_into(&self, xs: &[f32], out: &mut Vec<f32>) {
            out.clear();
            let (mut x1, mut x2, mut y1, mut y2) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
            if let Some(&x0) = xs.first() {
                x1 = x0;
                x2 = x0;
                y1 = x0;
                y2 = x0;
            }
            for &x in xs {
                let y = self.b0 * x + self.b1 * x1 + self.b2 * x2 - self.a1 * y1 - self.a2 * y2;
                x2 = x1;
                x1 = x;
                y2 = y1;
                y1 = y;
                out.push(y);
            }
        }

        fn filtfilt_into(&self, xs: &[f32], out: &mut Vec<f32>) {
            let mut scratch = Vec::new();
            self.filter_into(xs, &mut scratch);
            scratch.reverse();
            self.filter_into(&scratch, out);
            out.reverse();
        }

        fn filtfilt_strip(&self, data: &mut [f32], lanes: usize) {
            let n = data.len() / lanes;
            let mut state = vec![0.0f32; 4 * lanes];
            let (x1, rest) = state.split_at_mut(lanes);
            let (x2, rest) = rest.split_at_mut(lanes);
            let (y1, y2) = rest.split_at_mut(lanes);
            for pass in 0..2 {
                let first = if pass == 0 { 0 } else { n - 1 };
                for c in 0..lanes {
                    let x0 = data[first * lanes + c];
                    x1[c] = x0;
                    x2[c] = x0;
                    y1[c] = x0;
                    y2[c] = x0;
                }
                let order: Vec<usize> = if pass == 0 {
                    (0..n).collect()
                } else {
                    (0..n).rev().collect()
                };
                for t in order {
                    let row = &mut data[t * lanes..(t + 1) * lanes];
                    for c in 0..lanes {
                        let x = row[c];
                        let y = self.b0 * x + self.b1 * x1[c] + self.b2 * x2[c]
                            - self.a1 * y1[c]
                            - self.a2 * y2[c];
                        x2[c] = x1[c];
                        x1[c] = x;
                        y2[c] = y1[c];
                        y1[c] = y;
                        row[c] = y;
                    }
                }
            }
        }
    }

    /// The per-channel denoise.
    fn apply_into(median_window: usize, lowpass: Option<Biquad>, xs: &[f32], out: &mut Vec<f32>) {
        let mut median = Vec::new();
        match lowpass {
            Some(bq) if median_window > 1 => {
                median_filter_into(xs, median_window, &mut median);
                bq.filtfilt_into(&median, out);
            }
            Some(bq) => bq.filtfilt_into(xs, out),
            None => median_filter_into(xs, median_window, out),
        }
    }

    /// The whole-window denoise: one strip as wide as the window, or the
    /// per-channel path for ragged windows and other median widths.
    pub fn denoise_window(
        cfg: &magneto_dsp::filter::DenoiseConfig,
        channels: &[Vec<f32>],
    ) -> Vec<Vec<f32>> {
        let lowpass = cfg
            .lowpass_cutoff_hz
            .map(|fc| Biquad::lowpass(fc, cfg.sample_rate_hz));
        let k = cfg.median_window;
        let mut out = vec![Vec::new(); channels.len()];
        let n = channels.first().map(Vec::len).unwrap_or(0);
        let uniform = channels.iter().all(|c| c.len() == n);
        if !uniform || (k > 1 && k != 3) || n < 2 {
            for (c, d) in channels.iter().zip(out.iter_mut()) {
                apply_into(k, lowpass, c, d);
            }
            return out;
        }
        let lanes = channels.len();
        let mut cur = Vec::with_capacity(n * lanes);
        for t in 0..n {
            for ch in channels {
                cur.push(ch[t]);
            }
        }
        if k == 3 {
            let mut med = Vec::with_capacity(n * lanes);
            for c in 0..lanes {
                med.push(cur[c].max(cur[lanes + c]));
            }
            for t in 1..n - 1 {
                let (p, x, q) = (t - 1, t, t + 1);
                for c in 0..lanes {
                    let (a, b, d) = (cur[p * lanes + c], cur[x * lanes + c], cur[q * lanes + c]);
                    med.push(a.max(b).min(a.min(b).max(d)));
                }
            }
            for c in 0..lanes {
                med.push(cur[(n - 2) * lanes + c].max(cur[(n - 1) * lanes + c]));
            }
            cur = med;
        }
        if let Some(bq) = lowpass {
            bq.filtfilt_strip(&mut cur, lanes);
        }
        for (c, d) in out.iter_mut().enumerate() {
            for t in 0..n {
                d.push(cur[t * lanes + c]);
            }
        }
        out
    }

    fn dft_magnitudes(xs: &[f32]) -> Vec<f32> {
        let n = xs.len();
        if n < 2 {
            return Vec::new();
        }
        let mean = xs.iter().sum::<f32>() / n as f32;
        let half = n / 2;
        let mut coeff = vec![0.0f32; half];
        let mut s1 = vec![0.0f32; half];
        let mut s2 = vec![0.0f32; half];
        for (k, c) in coeff.iter_mut().enumerate() {
            *c = 2.0 * (TAU * (k + 1) as f32 / n as f32).cos();
        }
        for &x in xs {
            let v = x - mean;
            for k in 0..half {
                let s0 = v + coeff[k] * s1[k] - s2[k];
                s2[k] = s1[k];
                s1[k] = s0;
            }
        }
        let mut mags = Vec::with_capacity(half);
        for k in 0..half {
            let w = TAU * (k + 1) as f32 / n as f32;
            let re = s1[k] - w.cos() * s2[k];
            let im = -(w.sin() * s2[k]);
            mags.push((re * re + im * im).sqrt() * 2.0 / n as f32);
        }
        mags
    }

    fn magnitude_series(channels: &[Vec<f32>], axes: [usize; 3], n: usize) -> Vec<f32> {
        let (xs, ys, zs) = (&channels[axes[0]], &channels[axes[1]], &channels[axes[2]]);
        (0..n)
            .map(|i| (xs[i] * xs[i] + ys[i] * ys[i] + zs[i] * zs[i]).sqrt())
            .collect()
    }

    /// The channel-major extractor on an already-denoised window (≥ 20
    /// channels, ≥ 8 samples).
    pub fn extract(sample_rate_hz: f32, channels: &[Vec<f32>]) -> Vec<f32> {
        let mut out = vec![0.0f32; 80];
        let n = channels.iter().map(Vec::len).min().unwrap_or(0);
        let accel_x = &channels[0];
        let accel_y = &channels[1];
        let accel_z = &channels[2];
        let accel_mag = magnitude_series(channels, [0, 1, 2], n);
        let gyro_mag = magnitude_series(channels, [3, 4, 5], n);
        let linacc_mag = magnitude_series(channels, [9, 10, 11], n);
        let mag_mag = magnitude_series(channels, [6, 7, 8], n);
        let pressure = &channels[19];
        let series: [&[f32]; 8] = [
            &accel_x[..n],
            &accel_y[..n],
            &accel_z[..n],
            &accel_mag,
            &gyro_mag,
            &linacc_mag,
            &mag_mag,
            &pressure[..n],
        ];
        let mut slots = out.iter_mut();
        let mut emit = |v: f32| {
            *slots.next().unwrap() = v;
        };
        let mut sorted: Vec<f32> = Vec::with_capacity(n);
        for s in series {
            sorted.clear();
            sorted.extend_from_slice(s);
            sorted.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            let len = s.len() as f32;
            let (mut sum, mut sum_sq) = (0.0f32, 0.0f32);
            let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
            for &x in s {
                sum += x;
                sum_sq += x * x;
                lo = lo.min(x);
                hi = hi.max(x);
            }
            let mean = sum / len;
            let std = stats::variance_with(s, mean).sqrt();
            let (mut m3, mut m4) = (0.0f32, 0.0f32);
            if std >= 1e-12 {
                for &x in s {
                    let d = (x - mean) / std;
                    let d2 = d * d;
                    m3 += d2 * d;
                    m4 += d2 * d2;
                }
            }
            emit(mean);
            emit(std);
            emit(lo);
            emit(hi);
            emit(stats::percentile_of_sorted(&sorted, 50.0));
            emit(
                stats::percentile_of_sorted(&sorted, 75.0)
                    - stats::percentile_of_sorted(&sorted, 25.0),
            );
            emit((sum_sq / len).sqrt());
            emit(if s.len() < 3 || std < 1e-12 {
                0.0
            } else {
                m3 / len
            });
            emit(if s.len() < 4 || std < 1e-12 {
                0.0
            } else {
                m4 / len - 3.0
            });
        }
        let accel_spectrum = dft_magnitudes(&accel_mag);
        emit(stats::mean_crossing_rate(&accel_mag));
        emit(spectral::dominant_frequency_of(
            &accel_spectrum,
            accel_mag.len(),
            sample_rate_hz,
        ));
        emit(spectral::spectral_entropy_of(&accel_spectrum));
        emit(spectral::band_energy_ratio_of(
            &accel_spectrum,
            accel_mag.len(),
            sample_rate_hz,
            8.0,
            45.0,
        ));
        emit(stats::mean_crossing_rate(&gyro_mag));
        emit(spectral::spectral_entropy_of(&dft_magnitudes(&gyro_mag)));
        emit(stats::pearson(&accel_x[..n], &accel_y[..n]));
        emit(stats::pearson(&accel_y[..n], &accel_z[..n]));
        for v in out.iter_mut() {
            if !v.is_finite() {
                *v = 0.0;
            }
        }
        out
    }
}

/// How one channel of a generated window is filled.
#[derive(Debug, Clone, Copy)]
enum Fill {
    Noise,
    Constant,
    Zero,
    /// Few distinct values, so sorts and medians meet ties.
    Repeated,
    /// Zeros of both signs mixed with small values.
    SignedZeros,
    /// Magnitudes up to just under the guard's ceiling.
    Large,
}

const FILLS: [Fill; 6] = [
    Fill::Noise,
    Fill::Constant,
    Fill::Zero,
    Fill::Repeated,
    Fill::SignedZeros,
    Fill::Large,
];

/// A finite window of `channels` channels of `n` samples, drawn from
/// `seed`; `ragged` lengthens or shortens some channels.
fn window(seed: u64, channels: usize, n: usize, ragged: bool) -> Vec<Vec<f32>> {
    let mut rng = SeededRng::new(seed);
    (0..channels)
        .map(|c| {
            let len = if ragged && rng.index(3) == 0 {
                n + rng.index(12) + usize::from(c == 0)
            } else {
                n
            };
            let fill = if rng.index(2) == 0 {
                Fill::Noise
            } else {
                FILLS[rng.index(FILLS.len())]
            };
            let level = rng.normal_with(0.0, 10.0);
            (0..len)
                .map(|i| match fill {
                    Fill::Noise => level + rng.normal() * (1.0 + (i % 5) as f32),
                    Fill::Constant => level,
                    Fill::Zero => 0.0,
                    Fill::Repeated => [-1.5f32, 0.0, 2.0, 2.0][rng.index(4)],
                    Fill::SignedZeros => [0.0f32, -0.0, -0.0, 1e-3, -2.5][rng.index(5)],
                    Fill::Large => (rng.normal() * 3.0e5).clamp(-9.9e5, 9.9e5),
                })
                .collect()
        })
        .collect()
}

fn configs() -> [DenoiseConfig; 5] {
    [
        DenoiseConfig::default(),
        DenoiseConfig::disabled(),
        DenoiseConfig {
            median_window: 5,
            ..DenoiseConfig::default()
        },
        DenoiseConfig {
            lowpass_cutoff_hz: None,
            ..DenoiseConfig::default()
        },
        DenoiseConfig {
            median_window: 1,
            lowpass_cutoff_hz: Some(20.0),
            ..DenoiseConfig::default()
        },
    ]
}

fn assert_bits(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what}: element {i} is {g} not {w}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `raw_features_into`, `process_checked_into` and
    /// `apply_window_into` match the oracle bit for bit, across several
    /// consecutive windows of different lengths on one thread.
    #[test]
    fn front_end_matches_frozen_oracle(
        seed in any::<u64>(),
        channels in 20usize..=24,
        lens in prop::collection::vec(8usize..=240, 1..4),
        ragged in any::<bool>(),
        cfg_idx in 0usize..5,
    ) {
        let cfg = configs()[cfg_idx];
        let pipeline = PreprocessingPipeline::new(PipelineConfig {
            denoise: cfg,
            ..PipelineConfig::default()
        });
        let mut scratch = WindowDenoiseScratch::default();
        let mut denoised = Vec::new();
        for (w, &n) in lens.iter().enumerate() {
            let win = window(seed.wrapping_add(w as u64), channels, n, ragged);
            let want_denoised = oracle::denoise_window(&cfg, &win);
            let want = oracle::extract(120.0, &want_denoised);

            let mut raw = vec![0.0f32; NUM_FEATURES];
            pipeline.raw_features_into(&win, &mut raw).unwrap();
            assert_bits(&raw, &want, "raw_features_into");

            let mut checked = vec![0.0f32; NUM_FEATURES];
            pipeline.process_checked_into(&win, &mut checked).unwrap();
            assert_bits(&checked, &want, "process_checked_into");

            cfg.kernel().apply_window_into(&win, &mut denoised, &mut scratch);
            prop_assert_eq!(denoised.len(), want_denoised.len());
            for (c, (got, want)) in denoised.iter().zip(&want_denoised).enumerate() {
                assert_bits(got, want, &format!("apply_window_into channel {c}"));
            }

            let mut extracted = vec![0.0f32; NUM_FEATURES];
            FeatureExtractor::default().extract_into(&want_denoised, &mut extracted).unwrap();
            assert_bits(&extracted, &want, "extract_into");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Without the guard in front, infinite samples reach the moments:
    /// a series holding ±inf has a NaN std, whose skew and kurtosis the
    /// oracle still reports as 0 and −3. Only the configurations without
    /// the low-pass keep NaN out of the order statistics, whose
    /// `partial_cmp` sort may panic on NaN in either version.
    #[test]
    fn unguarded_front_end_matches_oracle_on_infinite_samples(
        seed in any::<u64>(),
        n in 8usize..=160,
        faults in 1usize..40,
        cfg_idx in prop::sample::select(vec![1usize, 3]),
    ) {
        let cfg = configs()[cfg_idx];
        let pipeline = PreprocessingPipeline::new(PipelineConfig {
            denoise: cfg,
            ..PipelineConfig::default()
        });
        let mut win = window(seed, 22, n, false);
        let mut rng = SeededRng::new(seed ^ 0x9E37);
        for _ in 0..faults {
            let c = rng.index(win.len());
            let t = rng.index(n);
            win[c][t] = if rng.chance(0.5) { f32::INFINITY } else { f32::NEG_INFINITY };
        }
        let want_denoised = oracle::denoise_window(&cfg, &win);
        let mut raw = vec![0.0f32; NUM_FEATURES];
        pipeline.raw_features_into(&win, &mut raw).unwrap();
        assert_bits(&raw, &oracle::extract(120.0, &want_denoised), "raw_features_into");
        let mut denoised = Vec::new();
        cfg.kernel()
            .apply_window_into(&win, &mut denoised, &mut WindowDenoiseScratch::default());
        for (c, (got, want)) in denoised.iter().zip(&want_denoised).enumerate() {
            assert_bits(got, want, &format!("apply_window_into channel {c}"));
        }
    }
}

/// Windows the strip cannot take (fewer than two samples) and windows
/// of one channel still match the oracle's denoise.
#[test]
fn short_and_narrow_windows_match_oracle() {
    let mut scratch = WindowDenoiseScratch::default();
    let mut out = Vec::new();
    for cfg in configs() {
        for (channels, n) in [(1, 1), (1, 2), (3, 1), (17, 2), (40, 9), (0, 0)] {
            let win = window(n as u64 + 7, channels, n, false);
            cfg.kernel().apply_window_into(&win, &mut out, &mut scratch);
            let want = oracle::denoise_window(&cfg, &win);
            assert_eq!(out.len(), want.len());
            for (got, want) in out.iter().zip(&want) {
                let got: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
                let want: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "cfg {cfg:?}, {channels} channels of {n}");
            }
        }
    }
}
