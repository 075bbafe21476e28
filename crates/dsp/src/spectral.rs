//! Small real-DFT spectral summaries.
//!
//! Cadence (Walk ≈ 1.9 Hz vs Run ≈ 2.8 Hz) and vibration bands
//! (E-scooter ≈ 9–19 Hz vs Drive ≈ 22–38 Hz) are fundamentally spectral
//! signatures, so a handful of the 80 features are frequency-domain. The
//! spectrum is evaluated by a bank of Goertzel resonators updated
//! lane-parallel across bins — `O(n·k)` like the naive DFT but with one
//! fused multiply-add per (sample, bin) instead of a `sin_cos` call, so
//! LLVM vectorises the bin loop the same way it does the dense kernels in
//! `magneto-tensor`. Several summaries of the same series should share one
//! [`dft_magnitudes`] call via the `*_of` variants.

use std::f32::consts::TAU;

/// Magnitude spectrum at bins `1..=n/2` (DC excluded). Bin `i` corresponds
/// to frequency `i * sample_rate / n`.
pub fn dft_magnitudes(xs: &[f32]) -> Vec<f32> {
    let mut mags = Vec::new();
    Goertzel::default().magnitudes_into(xs, &mut mags);
    mags
}

/// A Goertzel bank with its per-bin tables (`2cos w_k`, `cos w_k`,
/// `sin w_k`) built once per window length, and its resonator state
/// reused across calls.
#[derive(Debug, Default)]
pub(crate) struct Goertzel {
    /// Window length the tables were built for (0 = none yet).
    n: usize,
    coeff: Vec<f32>,
    cos: Vec<f32>,
    sin: Vec<f32>,
    s1: Vec<f32>,
    s2: Vec<f32>,
}

impl Goertzel {
    /// [`dft_magnitudes`] into `mags` (cleared first).
    pub(crate) fn magnitudes_into(&mut self, xs: &[f32], mags: &mut Vec<f32>) {
        mags.clear();
        let n = xs.len();
        if n < 2 {
            return;
        }
        let half = n / 2;
        if self.n != n {
            self.cos.clear();
            self.sin.clear();
            for k in 0..half {
                let w = TAU * (k + 1) as f32 / n as f32;
                self.cos.push(w.cos());
                self.sin.push(w.sin());
            }
            self.coeff.clear();
            self.coeff.extend(self.cos.iter().map(|c| 2.0 * c));
            self.n = n;
        }
        let mean = xs.iter().sum::<f32>() / n as f32;
        // Goertzel bank: bin k resonates at w_k = TAU*k/n under
        //   s0 = v + 2cos(w_k)*s1 - s2,
        // and after the full pass X_k = s1 - e^{-j w_k} s2, i.e.
        //   re = s1 - cos(w_k)*s2,  im = -sin(w_k)*s2
        // (conjugate convention; magnitudes are identical either way).
        let (coeff, s1, s2) = (&self.coeff, &mut self.s1, &mut self.s2);
        s1.clear();
        s1.resize(half, 0.0);
        s2.clear();
        s2.resize(half, 0.0);
        for &x in xs {
            let v = x - mean; // remove DC so bin 0 leakage doesn't dominate
            for ((c, a), b) in coeff.iter().zip(s1.iter_mut()).zip(s2.iter_mut()) {
                let s0 = v + c * *a - *b;
                *b = *a;
                *a = s0;
            }
        }
        mags.extend((0..half).map(|k| {
            let re = s1[k] - self.cos[k] * s2[k];
            let im = -(self.sin[k] * s2[k]);
            (re * re + im * im).sqrt() * 2.0 / n as f32
        }));
    }
}

/// [`dominant_frequency`] over a precomputed spectrum of a length-`n`
/// series (as returned by [`dft_magnitudes`]).
pub fn dominant_frequency_of(mags: &[f32], n: usize, sample_rate_hz: f32) -> f32 {
    match magneto_tensor::vector::argmax(mags) {
        Some(i) if mags[i] > 1e-9 && n > 0 => (i + 1) as f32 * sample_rate_hz / n as f32,
        _ => 0.0,
    }
}

/// Frequency (Hz) of the strongest non-DC bin; `0.0` for degenerate input.
pub fn dominant_frequency(xs: &[f32], sample_rate_hz: f32) -> f32 {
    dominant_frequency_of(&dft_magnitudes(xs), xs.len(), sample_rate_hz)
}

/// [`spectral_entropy`] over a precomputed spectrum.
pub fn spectral_entropy_of(mags: &[f32]) -> f32 {
    let total: f32 = mags.iter().sum();
    if total < 1e-12 {
        return 0.0;
    }
    mags.iter()
        .filter(|&&m| m > 1e-12)
        .map(|&m| {
            let p = m / total;
            -p * p.ln()
        })
        .sum()
}

/// Shannon entropy (nats) of the normalised magnitude spectrum. Low for a
/// pure tone (Walk cadence), high for broadband vibration (Drive).
pub fn spectral_entropy(xs: &[f32]) -> f32 {
    spectral_entropy_of(&dft_magnitudes(xs))
}

/// Magnitude-weighted mean frequency (Hz); the spectrum's centre of mass.
pub fn spectral_centroid(xs: &[f32], sample_rate_hz: f32) -> f32 {
    let mags = dft_magnitudes(xs);
    let total: f32 = mags.iter().sum();
    if total < 1e-12 {
        return 0.0;
    }
    let n = xs.len() as f32;
    mags.iter()
        .enumerate()
        .map(|(i, &m)| ((i + 1) as f32 * sample_rate_hz / n) * m)
        .sum::<f32>()
        / total
}

/// [`band_energy_ratio`] over a precomputed spectrum of a length-`n`
/// series.
pub fn band_energy_ratio_of(mags: &[f32], n: usize, sample_rate_hz: f32, lo_hz: f32, hi_hz: f32) -> f32 {
    let total: f32 = mags.iter().map(|m| m * m).sum();
    if total < 1e-12 || n == 0 {
        return 0.0;
    }
    let n = n as f32;
    let band: f32 = mags
        .iter()
        .enumerate()
        .filter(|(i, _)| {
            let f = (*i + 1) as f32 * sample_rate_hz / n;
            f >= lo_hz && f <= hi_hz
        })
        .map(|(_, &m)| m * m)
        .sum();
    band / total
}

/// Fraction of spectral energy inside `[lo_hz, hi_hz]` (inclusive),
/// in `[0, 1]`.
pub fn band_energy_ratio(xs: &[f32], sample_rate_hz: f32, lo_hz: f32, hi_hz: f32) -> f32 {
    band_energy_ratio_of(&dft_magnitudes(xs), xs.len(), sample_rate_hz, lo_hz, hi_hz)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sine(freq: f32, rate: f32, n: usize, amp: f32) -> Vec<f32> {
        (0..n)
            .map(|i| amp * (TAU * freq * i as f32 / rate).sin())
            .collect()
    }

    #[test]
    fn dft_finds_pure_tone() {
        // 10 Hz tone at 120 Hz rate over 120 samples -> bin 10 (index 9).
        let xs = sine(10.0, 120.0, 120, 1.0);
        let mags = dft_magnitudes(&xs);
        assert_eq!(mags.len(), 60);
        let peak = magneto_tensor::vector::argmax(&mags).unwrap();
        assert_eq!(peak, 9);
        assert!((mags[9] - 1.0).abs() < 0.05, "peak mag {}", mags[9]);
        // Other bins are near zero.
        assert!(mags[30] < 0.05);
    }

    #[test]
    fn dft_degenerate_inputs() {
        assert!(dft_magnitudes(&[]).is_empty());
        assert!(dft_magnitudes(&[1.0]).is_empty());
        assert_eq!(dominant_frequency(&[], 120.0), 0.0);
        assert_eq!(dominant_frequency(&[0.0; 120], 120.0), 0.0);
        assert_eq!(spectral_entropy(&[0.0; 32]), 0.0);
        assert_eq!(spectral_centroid(&[0.0; 32], 120.0), 0.0);
        assert_eq!(band_energy_ratio(&[0.0; 32], 120.0, 0.0, 60.0), 0.0);
    }

    #[test]
    fn dominant_frequency_recovers_cadence() {
        // Walking cadence 2 Hz over 1 s at 120 Hz.
        let xs = sine(2.0, 120.0, 120, 1.5);
        let f = dominant_frequency(&xs, 120.0);
        assert!((f - 2.0).abs() < 0.6, "found {f}");
        // Running cadence 3 Hz resolves above walking.
        let run = sine(3.0, 120.0, 120, 1.5);
        assert!(dominant_frequency(&run, 120.0) > f);
    }

    #[test]
    fn dc_is_ignored() {
        let mut xs = sine(5.0, 120.0, 120, 1.0);
        for v in &mut xs {
            *v += 100.0; // big DC offset (gravity)
        }
        let f = dominant_frequency(&xs, 120.0);
        assert!((f - 5.0).abs() < 0.6, "DC leaked: found {f}");
    }

    #[test]
    fn entropy_tone_vs_broadband() {
        let tone = sine(4.0, 120.0, 120, 1.0);
        let mut rng = magneto_tensor::SeededRng::new(1);
        let noise: Vec<f32> = (0..120).map(|_| rng.normal()).collect();
        let he = spectral_entropy(&noise);
        let te = spectral_entropy(&tone);
        assert!(he > te * 2.0, "tone {te}, noise {he}");
    }

    #[test]
    fn centroid_tracks_frequency() {
        let low = sine(3.0, 120.0, 120, 1.0);
        let high = sine(30.0, 120.0, 120, 1.0);
        let cl = spectral_centroid(&low, 120.0);
        let ch = spectral_centroid(&high, 120.0);
        assert!((cl - 3.0).abs() < 1.5, "low centroid {cl}");
        assert!((ch - 30.0).abs() < 3.0, "high centroid {ch}");
    }

    #[test]
    fn band_energy_separates_vehicle_bands() {
        // E-scooter buzz at 14 Hz vs car engine at 30 Hz.
        let scooter = sine(14.0, 120.0, 120, 1.0);
        let car = sine(30.0, 120.0, 120, 1.0);
        assert!(band_energy_ratio(&scooter, 120.0, 9.0, 19.0) > 0.9);
        assert!(band_energy_ratio(&scooter, 120.0, 22.0, 38.0) < 0.1);
        assert!(band_energy_ratio(&car, 120.0, 22.0, 38.0) > 0.9);
        assert!(band_energy_ratio(&car, 120.0, 9.0, 19.0) < 0.1);
    }

    #[test]
    fn band_ratios_partition() {
        let mut rng = magneto_tensor::SeededRng::new(2);
        let xs: Vec<f32> = (0..120).map(|_| rng.normal()).collect();
        let lo = band_energy_ratio(&xs, 120.0, 0.0, 20.0);
        let mid = band_energy_ratio(&xs, 120.0, 20.0001, 40.0);
        let hi = band_energy_ratio(&xs, 120.0, 40.0001, 60.0);
        assert!((lo + mid + hi - 1.0).abs() < 1e-4, "{lo}+{mid}+{hi}");
    }
}
