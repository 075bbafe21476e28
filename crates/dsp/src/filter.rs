//! Denoising filters.
//!
//! The denoising stage runs on the Edge for every incoming window, so all
//! filters here are single-pass and allocation-light. The composition the
//! pipeline uses by default is median (kills spike artefacts) followed by
//! a Butterworth low-pass (tames broadband noise above the motion band).

use serde::{Deserialize, Serialize};

/// Centered moving average with window `k` (odd; clamped to the signal at
/// the edges). `k <= 1` returns the input unchanged.
pub fn moving_average(xs: &[f32], k: usize) -> Vec<f32> {
    if k <= 1 || xs.is_empty() {
        return xs.to_vec();
    }
    let half = k / 2;
    let n = xs.len();
    let mut out = Vec::with_capacity(n);
    // Prefix sums for O(n) evaluation.
    let mut prefix = Vec::with_capacity(n + 1);
    prefix.push(0.0f64);
    for &x in xs {
        prefix.push(prefix.last().unwrap() + f64::from(x));
    }
    for i in 0..n {
        let lo = i.saturating_sub(half);
        let hi = (i + half + 1).min(n);
        let sum = prefix[hi] - prefix[lo];
        out.push((sum / (hi - lo) as f64) as f32);
    }
    out
}

/// Centered median filter with window `k` (odd; clamped at the edges).
/// `k <= 1` returns the input unchanged. Removes isolated spikes without
/// smearing step edges the way a mean filter does.
pub fn median_filter(xs: &[f32], k: usize) -> Vec<f32> {
    let mut out = Vec::new();
    median_filter_into(xs, k, &mut out);
    out
}

/// [`median_filter`] writing into a caller-provided buffer (cleared
/// first), so per-window denoising allocates nothing after warm-up.
pub fn median_filter_into(xs: &[f32], k: usize, out: &mut Vec<f32>) {
    out.clear();
    if k <= 1 || xs.is_empty() {
        out.extend_from_slice(xs);
        return;
    }
    let n = xs.len();
    out.reserve(n);
    if k == 3 {
        // The pipeline default: a branchless median-of-three over the
        // interior, max-of-two at the clamped edges (the sorted middle of
        // a two-sample window is its larger element).
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
        magneto_tensor::stats::sort_nan_last(&mut buf);
        out.push(buf[buf.len() / 2]);
    }
}

/// Exponential moving average with smoothing factor `alpha` in `(0, 1]`;
/// `alpha = 1` is the identity.
pub fn exponential_smoothing(xs: &[f32], alpha: f32) -> Vec<f32> {
    let alpha = alpha.clamp(1e-6, 1.0);
    let mut out = Vec::with_capacity(xs.len());
    let mut state = match xs.first() {
        Some(&x) => x,
        None => return Vec::new(),
    };
    for &x in xs {
        state = alpha * x + (1.0 - alpha) * state;
        out.push(state);
    }
    out
}

/// Second-order (biquad) Butterworth low-pass filter.
///
/// Coefficients follow the RBJ audio-EQ cookbook with Butterworth Q
/// (`1/sqrt(2)`). Processed with zero initial state; for offline windows
/// use [`Biquad::filtfilt`] for zero phase distortion.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Biquad {
    b0: f32,
    b1: f32,
    b2: f32,
    a1: f32,
    a2: f32,
}

impl Biquad {
    /// Design a low-pass at `cutoff_hz` for signals sampled at
    /// `sample_rate_hz`. The cutoff is clamped just below Nyquist.
    pub fn lowpass(cutoff_hz: f64, sample_rate_hz: f64) -> Self {
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

    /// Single forward pass (causal, introduces phase lag).
    pub fn filter(&self, xs: &[f32]) -> Vec<f32> {
        let mut out = Vec::new();
        self.filter_into(xs, &mut out);
        out
    }

    /// [`filter`](Self::filter) into a caller-provided buffer (cleared
    /// first).
    pub fn filter_into(&self, xs: &[f32], out: &mut Vec<f32>) {
        out.clear();
        out.reserve(xs.len());
        let (mut x1, mut x2, mut y1, mut y2) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
        // Initialise state to the first sample to avoid a start-up
        // transient from an implicit zero history.
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

    /// Forward-backward pass: zero phase, squared magnitude response.
    pub fn filtfilt(&self, xs: &[f32]) -> Vec<f32> {
        let mut out = Vec::new();
        let mut scratch = Vec::new();
        self.filtfilt_into(xs, &mut out, &mut scratch);
        out
    }

    /// [`filtfilt`](Self::filtfilt) into a caller-provided buffer, using
    /// `scratch` for the intermediate forward pass; allocates nothing once
    /// both buffers have grown to the window length.
    pub fn filtfilt_into(&self, xs: &[f32], out: &mut Vec<f32>, scratch: &mut Vec<f32>) {
        self.filter_into(xs, scratch);
        scratch.reverse();
        self.filter_into(scratch, out);
        out.reverse();
    }

    /// Zero-phase forward-backward filtering of a time-major strip in
    /// place: every lane of every row is filtered exactly as
    /// [`filtfilt`](Self::filtfilt) would filter that lane's channel
    /// alone. The lanes only share loop iterations, and a row is a fixed
    /// [`LANES`]-wide array, so each recurrence step is a handful of
    /// whole-vector operations.
    fn filtfilt_rows(&self, rows: &mut [Row]) {
        let Some(&first) = rows.first() else {
            return;
        };
        // The backward pass seeds from the last row the forward pass
        // wrote, like `filter` seeding from the first sample it reads.
        self.filter_rows(rows.iter_mut(), first);
        let last = rows[rows.len() - 1];
        self.filter_rows(rows.iter_mut().rev(), last);
    }

    /// One causal pass over `rows` in iteration order, state seeded from
    /// `seed` as [`filter_into`](Self::filter_into) seeds from its first
    /// sample.
    fn filter_rows<'a>(&self, rows: impl Iterator<Item = &'a mut Row>, seed: Row) {
        let (mut x1, mut x2, mut y1, mut y2) = (seed, seed, seed, seed);
        for row in rows {
            let x = *row;
            let mut y = [0.0f32; LANES];
            for c in 0..LANES {
                y[c] = self.b0 * x[c] + self.b1 * x1[c] + self.b2 * x2[c]
                    - self.a1 * y1[c]
                    - self.a2 * y2[c];
            }
            x2 = x1;
            x1 = x;
            y2 = y1;
            y1 = y;
            *row = y;
        }
    }
}

/// Serialisable denoising configuration applied per channel by the
/// pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DenoiseConfig {
    /// Median filter window (odd; `1` disables).
    pub median_window: usize,
    /// Low-pass cutoff in Hz (`None` disables).
    pub lowpass_cutoff_hz: Option<f64>,
    /// Sample rate the cutoff refers to.
    pub sample_rate_hz: f64,
}

impl Default for DenoiseConfig {
    fn default() -> Self {
        DenoiseConfig {
            median_window: 3,
            // Human motion + vehicle vibration live below ~45 Hz at a
            // 120 Hz rate; clip broadband sensor noise above that.
            lowpass_cutoff_hz: Some(45.0),
            sample_rate_hz: 120.0,
        }
    }
}

impl DenoiseConfig {
    /// Pass-through configuration (ablations).
    pub fn disabled() -> Self {
        DenoiseConfig {
            median_window: 1,
            lowpass_cutoff_hz: None,
            sample_rate_hz: 120.0,
        }
    }

    /// Apply the configured denoising chain to one channel.
    pub fn apply(&self, xs: &[f32]) -> Vec<f32> {
        let mut out = Vec::new();
        self.kernel().apply_into(xs, &mut out, &mut DenoiseScratch::default());
        out
    }

    /// Compile the configuration into a reusable kernel — the Biquad
    /// design (a handful of `f64` trig evaluations) runs once instead of
    /// once per channel per window.
    pub fn kernel(&self) -> DenoiseKernel {
        DenoiseKernel {
            median_window: self.median_window,
            lowpass: self
                .lowpass_cutoff_hz
                .map(|fc| Biquad::lowpass(fc, self.sample_rate_hz)),
        }
    }
}

/// Reusable intermediate buffers for [`DenoiseKernel::apply_into`].
#[derive(Debug, Default)]
pub struct DenoiseScratch {
    median: Vec<f32>,
    filt: Vec<f32>,
}

/// A [`DenoiseConfig`] with its filter designs precomputed; apply it to
/// many channels/windows without re-deriving coefficients or allocating.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DenoiseKernel {
    median_window: usize,
    lowpass: Option<Biquad>,
}

impl DenoiseKernel {
    /// Run median + low-pass denoising of one channel into `out`
    /// (cleared first), reusing `scratch` across calls.
    pub fn apply_into(&self, xs: &[f32], out: &mut Vec<f32>, scratch: &mut DenoiseScratch) {
        match self.lowpass {
            Some(bq) if self.median_window > 1 => {
                median_filter_into(xs, self.median_window, &mut scratch.median);
                bq.filtfilt_into(&scratch.median, out, &mut scratch.filt);
            }
            Some(bq) => bq.filtfilt_into(xs, out, &mut scratch.filt),
            None => median_filter_into(xs, self.median_window, out),
        }
    }

    /// Whether [`denoise_rows`](Self::denoise_rows) runs this kernel:
    /// no median or the median-of-three, with or without the low-pass.
    /// Other median widths take the per-channel path.
    pub(crate) fn runs_on_rows(&self) -> bool {
        self.median_window <= 1 || self.median_window == 3
    }

    /// Denoise a time-major strip of at least two rows in place (`tmp`
    /// is scratch): each lane comes out exactly as
    /// [`apply_into`](Self::apply_into) returns that lane's channel.
    /// Only for kernels that [`runs_on_rows`](Self::runs_on_rows).
    pub(crate) fn denoise_rows(&self, rows: &mut Vec<Row>, tmp: &mut Vec<Row>) {
        debug_assert!(self.runs_on_rows() && rows.len() >= 2);
        if self.median_window == 3 {
            median3_rows(rows, tmp);
            std::mem::swap(rows, tmp);
        }
        if let Some(bq) = self.lowpass {
            bq.filtfilt_rows(rows);
        }
    }

    /// Denoise a whole channel-major window at once.
    ///
    /// Channels are mutually independent, so for the common case (all
    /// channels equal length, median window 1 or 3) the window runs in
    /// chunks of [`LANES`] channels, each gathered into a time-major
    /// strip whose rows the median network and the biquad recurrences
    /// update as whole vectors. Ragged windows, windows shorter than two
    /// samples and other median widths take the per-channel kernel.
    ///
    /// `out` is resized to match `channels`; `scratch` is reused across
    /// calls.
    pub fn apply_window_into(
        &self,
        channels: &[Vec<f32>],
        out: &mut Vec<Vec<f32>>,
        scratch: &mut WindowDenoiseScratch,
    ) {
        out.resize(channels.len(), Vec::new());
        let n = channels.first().map(Vec::len).unwrap_or(0);
        if n < 2 || !self.runs_on_rows() || channels.iter().any(|c| c.len() != n) {
            for (c, d) in channels.iter().zip(out.iter_mut()) {
                self.apply_into(c, d, &mut scratch.channel);
            }
            return;
        }
        for (chunk, outs) in channels.chunks(LANES).zip(out.chunks_mut(LANES)) {
            gather_rows(chunk.iter().map(|c| c.as_slice()), n, &mut scratch.rows);
            self.denoise_rows(&mut scratch.rows, &mut scratch.tmp);
            for (lane, d) in outs.iter_mut().enumerate() {
                d.clear();
                d.extend(scratch.rows.iter().map(|row| row[lane]));
            }
        }
    }
}

/// Lanes in one row of a time-major strip: row `t` holds sample `t` of
/// up to 16 channels, one 512-bit or two 256-bit vectors.
pub(crate) const LANES: usize = 16;

/// One time step of a time-major strip.
pub(crate) type Row = [f32; LANES];

/// Gather the first `n` samples of up to [`LANES`] channels into the
/// lanes of `rows` (cleared first); unused lanes hold zeros.
pub(crate) fn gather_rows<'a>(
    channels: impl Iterator<Item = &'a [f32]>,
    n: usize,
    rows: &mut Vec<Row>,
) {
    rows.clear();
    rows.resize(n, [0.0; LANES]);
    for (lane, ch) in channels.enumerate() {
        for (row, &x) in rows.iter_mut().zip(&ch[..n]) {
            row[lane] = x;
        }
    }
}

/// [`median_filter_into`] with `k = 3` on every lane of a strip of at
/// least two rows.
fn median3_rows(xs: &[Row], out: &mut Vec<Row>) {
    let n = xs.len();
    let max = |a: &Row, b: &Row| -> Row { std::array::from_fn(|c| a[c].max(b[c])) };
    out.clear();
    out.push(max(&xs[0], &xs[1]));
    out.extend(xs.windows(3).map(|w| -> Row {
        std::array::from_fn(|c| {
            let (a, b, d) = (w[0][c], w[1][c], w[2][c]);
            a.max(b).min(a.min(b).max(d))
        })
    }));
    out.push(max(&xs[n - 2], &xs[n - 1]));
}

/// Reusable buffers for [`DenoiseKernel::apply_window_into`].
#[derive(Debug, Default)]
pub struct WindowDenoiseScratch {
    rows: Vec<Row>,
    tmp: Vec<Row>,
    channel: DenoiseScratch,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f32::consts::TAU;

    fn sine(freq: f32, rate: f32, n: usize) -> Vec<f32> {
        (0..n).map(|i| (TAU * freq * i as f32 / rate).sin()).collect()
    }

    fn rms(xs: &[f32]) -> f32 {
        (xs.iter().map(|x| x * x).sum::<f32>() / xs.len() as f32).sqrt()
    }

    #[test]
    fn moving_average_constant_is_identity() {
        let xs = vec![2.0; 16];
        assert_eq!(moving_average(&xs, 5), xs);
        assert_eq!(moving_average(&xs, 1), xs);
        assert!(moving_average(&[], 3).is_empty());
    }

    #[test]
    fn moving_average_smooths() {
        let xs = [0.0, 10.0, 0.0, 10.0, 0.0, 10.0];
        let out = moving_average(&xs, 3);
        // Interior points become local means.
        assert!((out[2] - 20.0 / 3.0).abs() < 1e-5);
        // Variance is reduced.
        assert!(magneto_tensor::stats::variance(&out) < magneto_tensor::stats::variance(&xs));
    }

    #[test]
    fn median_filter_removes_spikes() {
        let mut xs = sine(2.0, 120.0, 120);
        xs[40] = 50.0;
        xs[80] = -50.0;
        let out = median_filter(&xs, 3);
        assert!(out[40].abs() < 2.0, "spike survived: {}", out[40]);
        assert!(out[80].abs() < 2.0);
        // Non-spike samples barely change.
        assert!((out[20] - xs[20]).abs() < 0.2);
    }

    #[test]
    fn median_filter_identity_cases() {
        let xs = [1.0, 2.0, 3.0];
        assert_eq!(median_filter(&xs, 1), xs.to_vec());
        assert!(median_filter(&[], 3).is_empty());
    }

    #[test]
    fn exponential_smoothing_tracks_and_lags() {
        let xs = [0.0, 0.0, 10.0, 10.0, 10.0];
        let out = exponential_smoothing(&xs, 0.5);
        assert_eq!(out.len(), 5);
        assert!(out[2] > 0.0 && out[2] < 10.0);
        assert!(out[4] > out[2]);
        // alpha = 1 is identity.
        assert_eq!(exponential_smoothing(&xs, 1.0), xs.to_vec());
        assert!(exponential_smoothing(&[], 0.3).is_empty());
    }

    #[test]
    fn lowpass_passes_low_attenuates_high() {
        let rate = 120.0;
        let low = sine(2.0, rate, 480);
        let high = sine(50.0, rate, 480);
        let bq = Biquad::lowpass(10.0, f64::from(rate));
        let low_out = bq.filtfilt(&low);
        let high_out = bq.filtfilt(&high);
        assert!(
            rms(&low_out) > 0.9 * rms(&low),
            "passband attenuation {} -> {}",
            rms(&low),
            rms(&low_out)
        );
        assert!(
            rms(&high_out) < 0.1 * rms(&high),
            "stopband leak: {}",
            rms(&high_out)
        );
    }

    #[test]
    fn filtfilt_preserves_dc() {
        let xs = vec![5.0; 240];
        let bq = Biquad::lowpass(10.0, 120.0);
        let out = bq.filtfilt(&xs);
        for &v in &out[10..230] {
            assert!((v - 5.0).abs() < 0.05, "DC shifted: {v}");
        }
    }

    #[test]
    fn lowpass_cutoff_clamped_below_nyquist() {
        // A cutoff above Nyquist must not produce NaNs.
        let bq = Biquad::lowpass(500.0, 120.0);
        let out = bq.filter(&sine(5.0, 120.0, 120));
        assert!(out.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn denoise_config_kills_spike_and_hf() {
        let rate = 120.0;
        let mut xs = sine(2.0, rate, 120);
        for (i, v) in sine(55.0, rate, 120).iter().enumerate() {
            xs[i] += 0.5 * v;
        }
        xs[60] = 30.0;
        let cfg = DenoiseConfig::default();
        let out = cfg.apply(&xs);
        assert!(out[60].abs() < 2.0, "spike survived denoise: {}", out[60]);
        // The clean 2 Hz carrier survives.
        let clean = sine(2.0, rate, 120);
        let err: f32 = out
            .iter()
            .zip(clean.iter())
            .skip(10)
            .take(100)
            .map(|(a, b)| (a - b).abs())
            .sum::<f32>()
            / 100.0;
        assert!(err < 0.25, "mean abs err {err}");
    }

    #[test]
    fn denoise_disabled_is_identity() {
        let xs = sine(7.0, 120.0, 60);
        assert_eq!(DenoiseConfig::disabled().apply(&xs), xs);
    }

    #[test]
    fn window_denoise_matches_per_channel_kernel() {
        let mut rng = magneto_tensor::SeededRng::new(7);
        let channels: Vec<Vec<f32>> = (0..22)
            .map(|c| {
                (0..120)
                    .map(|i| (TAU * (c + 1) as f32 * i as f32 / 120.0).sin() + rng.normal())
                    .collect()
            })
            .collect();
        for cfg in [
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
                ..DenoiseConfig::default()
            },
        ] {
            let kernel = cfg.kernel();
            let mut out = Vec::new();
            kernel.apply_window_into(
                &channels,
                &mut out,
                &mut WindowDenoiseScratch::default(),
            );
            assert_eq!(out.len(), channels.len());
            for (c, (got, raw)) in out.iter().zip(channels.iter()).enumerate() {
                let want = cfg.apply(raw);
                assert_eq!(got.len(), want.len());
                for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
                    assert!(
                        (g - w).abs() <= 1e-5 * w.abs().max(1.0),
                        "cfg {cfg:?} channel {c} sample {i}: {g} vs {w}"
                    );
                }
            }
        }
    }

    #[test]
    fn window_denoise_handles_ragged_and_empty_windows() {
        let kernel = DenoiseConfig::default().kernel();
        let mut scratch = WindowDenoiseScratch::default();
        let mut out = Vec::new();
        // Ragged channel lengths fall back to the per-channel path.
        let ragged = vec![vec![1.0; 50], vec![2.0; 120]];
        kernel.apply_window_into(&ragged, &mut out, &mut scratch);
        assert_eq!(out[0], DenoiseConfig::default().apply(&ragged[0]));
        assert_eq!(out[1], DenoiseConfig::default().apply(&ragged[1]));
        // Empty input.
        kernel.apply_window_into(&[], &mut out, &mut scratch);
        assert!(out.is_empty());
        // Output shrinks when reused on a smaller window.
        kernel.apply_window_into(&ragged[..1], &mut out, &mut scratch);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn config_serde_roundtrip() {
        let cfg = DenoiseConfig::default();
        let json = serde_json::to_string(&cfg).unwrap();
        let back: DenoiseConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
    }
}
