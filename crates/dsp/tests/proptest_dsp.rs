//! Property-based tests for the pre-processing substrate.

use magneto_dsp::features::{FeatureExtractor, NUM_FEATURES};
use magneto_dsp::filter::{median_filter, moving_average, Biquad};
use magneto_dsp::guard::{window_is_clean, GuardConfig};
use magneto_dsp::normalize::{Normalizer, NormalizerKind};
use magneto_dsp::segment::segment_series;
use magneto_dsp::spectral::{band_energy_ratio, dft_magnitudes, spectral_entropy};
use magneto_tensor::SeededRng;
use proptest::prelude::*;

fn signal(max_len: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec((-50i32..=50).prop_map(|v| v as f32 / 5.0), 2..max_len)
}

proptest! {
    /// Filters never extend the signal's range (they are averages/medians
    /// of window values).
    #[test]
    fn smoothing_filters_stay_in_range(xs in signal(64), k in 1usize..9) {
        let lo = xs.iter().cloned().fold(f32::INFINITY, f32::min);
        let hi = xs.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        for out in [moving_average(&xs, k), median_filter(&xs, k)] {
            prop_assert_eq!(out.len(), xs.len());
            for v in out {
                prop_assert!(v >= lo - 1e-4 && v <= hi + 1e-4);
            }
        }
    }

    /// The low-pass filter is total and finite on any input.
    #[test]
    fn biquad_always_finite(xs in signal(128), cutoff in 1.0f64..80.0) {
        let bq = Biquad::lowpass(cutoff, 120.0);
        for v in bq.filtfilt(&xs) {
            prop_assert!(v.is_finite());
        }
    }

    /// Window count follows the arithmetic `1 + (n - w) / hop`.
    #[test]
    fn segment_count_formula(n in 1usize..100, w in 1usize..20, hop in 1usize..10) {
        let ch = vec![(0..n).map(|i| i as f32).collect::<Vec<_>>()];
        let windows = segment_series(&ch, w, hop);
        let expected = if n >= w { 1 + (n - w) / hop } else { 0 };
        prop_assert_eq!(windows.len(), expected);
        for win in &windows {
            prop_assert_eq!(win[0].len(), w);
        }
    }

    /// Normalise → inverse is the identity (all three schemes).
    #[test]
    fn normalizer_inverse_roundtrip(
        rows in prop::collection::vec(prop::collection::vec(-100.0f32..100.0, 5), 2..20),
        kind in prop::sample::select(vec![
            NormalizerKind::ZScore,
            NormalizerKind::MinMax,
            NormalizerKind::Robust,
        ]),
    ) {
        let norm = Normalizer::fit(kind, &rows).unwrap();
        let v = &rows[0];
        let back = norm.inverse(&norm.transform(v).unwrap()).unwrap();
        for (a, b) in v.iter().zip(back.iter()) {
            prop_assert!((a - b).abs() < 1e-2 * (1.0 + a.abs()), "{kind:?}: {a} vs {b}");
        }
    }

    /// DFT magnitudes are non-negative and finite.
    #[test]
    fn dft_magnitudes_nonnegative(xs in signal(128)) {
        for m in dft_magnitudes(&xs) {
            prop_assert!(m >= 0.0 && m.is_finite());
        }
        prop_assert!(spectral_entropy(&xs) >= 0.0);
    }

    /// Band-energy ratio is a fraction, and the full band captures all.
    #[test]
    fn band_energy_is_fraction(xs in signal(128)) {
        let r = band_energy_ratio(&xs, 120.0, 10.0, 30.0);
        prop_assert!((0.0..=1.0 + 1e-4).contains(&r));
        let full = band_energy_ratio(&xs, 120.0, 0.0, 60.0);
        let has_energy = dft_magnitudes(&xs).iter().any(|&m| m > 1e-9);
        if has_energy {
            prop_assert!((full - 1.0).abs() < 1e-3, "full band {full}");
        }
    }

    /// The 80 features are produced for any plausible 22-channel window
    /// and are always finite.
    #[test]
    fn features_total_and_finite(
        seedish in 0u32..1000,
        len in 8usize..200,
    ) {
        let channels: Vec<Vec<f32>> = (0..22)
            .map(|c| {
                (0..len)
                    .map(|i| ((c as f32 + 1.3) * (i as f32 + seedish as f32)).sin() * 3.0)
                    .collect()
            })
            .collect();
        let out = FeatureExtractor::default().extract(&channels).unwrap();
        prop_assert_eq!(out.len(), NUM_FEATURES);
        prop_assert!(out.iter().all(|v| v.is_finite()));
    }

    /// Feature extraction is invariant to trailing extra samples in
    /// channels beyond the shortest one (the extractor clips to the
    /// shortest channel).
    #[test]
    fn features_clip_to_shortest_channel(len in 16usize..64, extra in 1usize..16) {
        let base: Vec<Vec<f32>> = (0..22)
            .map(|c| (0..len).map(|i| ((c + i) as f32).sin()).collect())
            .collect();
        let mut padded = base.clone();
        // Pad every channel except one with junk.
        for ch in padded.iter_mut().skip(1) {
            ch.extend(std::iter::repeat_n(999.0, extra));
        }
        let fx = FeatureExtractor::default();
        let a = fx.extract(&base).unwrap();
        let b = fx.extract(&padded).unwrap();
        // Channel 0 is the shortest in `padded`, so both see `len` samples.
        for (x, y) in a.iter().zip(b.iter()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    /// The branch-free guard scan agrees with the per-sample
    /// `is_faulty` scan, on windows seeded with NaN, ±inf, ±`max_abs`,
    /// the next float above `max_abs` and subnormals, under finite,
    /// infinite, NaN and degenerate ceilings.
    #[test]
    fn guard_scan_matches_per_sample_scan(
        seed in any::<u64>(),
        channels in 0usize..24,
        max_len in 0usize..130,
        limit in prop::sample::select(vec![
            1.0e6f32, 1.0, 0.0, -1.0, 1.0e-40, f32::MAX, f32::INFINITY, f32::NAN,
        ]),
        fault_rate in prop::sample::select(vec![0.0f64, 0.001, 0.02, 0.5]),
    ) {
        let cfg = GuardConfig { max_abs: limit };
        let specials = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            limit,
            -limit,
            limit.next_up(),
            -limit.next_up(),
            f32::MIN_POSITIVE / 4.0,
            -f32::MIN_POSITIVE / 8.0,
            0.0,
            -0.0,
        ];
        let mut rng = SeededRng::new(seed);
        let window: Vec<Vec<f32>> = (0..channels)
            .map(|_| {
                (0..rng.index(max_len + 1))
                    .map(|_| {
                        if rng.chance(fault_rate) {
                            specials[rng.index(specials.len())]
                        } else {
                            rng.normal_with(0.0, 10.0)
                        }
                    })
                    .collect()
            })
            .collect();
        let per_sample = window.iter().all(|ch| ch.iter().all(|&v| !cfg.is_faulty(v)));
        prop_assert_eq!(window_is_clean(&window, &cfg), per_sample);
    }
}
