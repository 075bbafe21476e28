//! Scalar statistics over `f32` slices.
//!
//! These are the primitives behind the paper's 80 hand-crafted statistical
//! features (§3.2 item 1): moments, order statistics, signal-energy and
//! crossing-rate measures, correlation and histogram entropy. All functions
//! are total: empty inputs yield `0.0` (documented per function) rather
//! than NaN, so a malformed window can never poison a feature vector.

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(xs: &[f32]) -> f32 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f32>() / xs.len() as f32
}

/// Population variance; `0.0` for slices shorter than 2.
pub fn variance(xs: &[f32]) -> f32 {
    variance_with(xs, mean(xs))
}

/// [`variance`] given the slice's precomputed mean — callers evaluating
/// several moments of one series pay for the mean pass once.
pub fn variance_with(xs: &[f32], mean: f32) -> f32 {
    if xs.len() < 2 {
        return 0.0;
    }
    xs.iter().map(|&x| (x - mean) * (x - mean)).sum::<f32>() / xs.len() as f32
}

/// Population standard deviation.
pub fn std_dev(xs: &[f32]) -> f32 {
    variance(xs).sqrt()
}

/// Minimum; `0.0` for an empty slice.
pub fn min(xs: &[f32]) -> f32 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().cloned().fold(f32::INFINITY, f32::min)
    }
}

/// Maximum; `0.0` for an empty slice.
pub fn max(xs: &[f32]) -> f32 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().cloned().fold(f32::NEG_INFINITY, f32::max)
    }
}

/// Range `max - min`; `0.0` for an empty slice.
pub fn range(xs: &[f32]) -> f32 {
    if xs.is_empty() {
        0.0
    } else {
        max(xs) - min(xs)
    }
}

/// Sort ascending with every NaN after every number. NaN is moved to
/// the end first, so the comparator only ever sees numbers: NaN cannot
/// make the sort panic, and NaN-free input sorts exactly as a sort by
/// `partial_cmp` does, bit for bit (`-0.0` and `0.0` compare equal).
/// A comparator ordering NaN last would do the same at about 1.7× the
/// cost per 120-sample series.
pub fn sort_nan_last(xs: &mut [f32]) {
    let mut numbers = xs.len();
    if xs.iter().any(|v| v.is_nan()) {
        let mut i = 0;
        while i < numbers {
            if xs[i].is_nan() {
                numbers -= 1;
                xs.swap(i, numbers);
            } else {
                i += 1;
            }
        }
    }
    xs[..numbers].sort_unstable_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
}

/// Linear-interpolated percentile, `p` in `[0, 100]`; `0.0` when empty.
pub fn percentile(xs: &[f32], p: f32) -> f32 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f32> = xs.to_vec();
    sort_nan_last(&mut sorted);
    percentile_of_sorted(&sorted, p)
}

/// [`percentile`] over an already ascending-sorted slice — callers that
/// need several order statistics of the same series (median + IQR, say)
/// sort once and probe this; `0.0` when empty.
pub fn percentile_of_sorted(sorted: &[f32], p: f32) -> f32 {
    if sorted.is_empty() {
        return 0.0;
    }
    let p = p.clamp(0.0, 100.0);
    let rank = p / 100.0 * (sorted.len() - 1) as f32;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f32;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Median (50th percentile).
pub fn median(xs: &[f32]) -> f32 {
    percentile(xs, 50.0)
}

/// Interquartile range (P75 − P25).
pub fn iqr(xs: &[f32]) -> f32 {
    percentile(xs, 75.0) - percentile(xs, 25.0)
}

/// Median absolute deviation.
pub fn mad(xs: &[f32]) -> f32 {
    if xs.is_empty() {
        return 0.0;
    }
    let med = median(xs);
    let devs: Vec<f32> = xs.iter().map(|&x| (x - med).abs()).collect();
    median(&devs)
}

/// Root mean square.
pub fn rms(xs: &[f32]) -> f32 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|&x| x * x).sum::<f32>() / xs.len() as f32).sqrt()
}

/// Signal energy (mean of squares) — conventional HAR "energy" feature.
pub fn energy(xs: &[f32]) -> f32 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().map(|&x| x * x).sum::<f32>() / xs.len() as f32
}

/// Sample skewness (Fisher); `0.0` for constant or short inputs.
pub fn skewness(xs: &[f32]) -> f32 {
    skewness_with(xs, mean(xs), std_dev(xs))
}

/// [`skewness`] given the slice's precomputed mean and standard deviation.
pub fn skewness_with(xs: &[f32], mean: f32, std: f32) -> f32 {
    if xs.len() < 3 || std < 1e-12 {
        return 0.0;
    }
    let n = xs.len() as f32;
    xs.iter().map(|&x| ((x - mean) / std).powi(3)).sum::<f32>() / n
}

/// Excess kurtosis; `0.0` for constant or short inputs (a Gaussian yields ~0).
pub fn kurtosis(xs: &[f32]) -> f32 {
    kurtosis_with(xs, mean(xs), std_dev(xs))
}

/// [`kurtosis`] given the slice's precomputed mean and standard deviation.
pub fn kurtosis_with(xs: &[f32], mean: f32, std: f32) -> f32 {
    if xs.len() < 4 || std < 1e-12 {
        return 0.0;
    }
    let n = xs.len() as f32;
    xs.iter().map(|&x| ((x - mean) / std).powi(4)).sum::<f32>() / n - 3.0
}

/// Rate of sign changes in `[0, 1]` (zero-crossing rate).
pub fn zero_crossing_rate(xs: &[f32]) -> f32 {
    if xs.len() < 2 {
        return 0.0;
    }
    let crossings = xs
        .windows(2)
        .filter(|w| (w[0] >= 0.0) != (w[1] >= 0.0))
        .count();
    crossings as f32 / (xs.len() - 1) as f32
}

/// Rate of crossings of the signal's own mean, in `[0, 1]`. More robust
/// than [`zero_crossing_rate`] for signals with a DC offset (e.g. an
/// accelerometer axis carrying gravity).
pub fn mean_crossing_rate(xs: &[f32]) -> f32 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    let crossings = xs
        .windows(2)
        .filter(|w| (w[0] >= m) != (w[1] >= m))
        .count();
    crossings as f32 / (xs.len() - 1) as f32
}

/// Normalised autocorrelation at `lag` in `[-1, 1]`; `0.0` when undefined.
pub fn autocorrelation(xs: &[f32], lag: usize) -> f32 {
    if lag == 0 {
        return 1.0;
    }
    if xs.len() <= lag + 1 {
        return 0.0;
    }
    let m = mean(xs);
    let denom: f32 = xs.iter().map(|&x| (x - m) * (x - m)).sum();
    if denom < 1e-12 {
        return 0.0;
    }
    let num: f32 = xs
        .windows(lag + 1)
        .map(|w| (w[0] - m) * (w[lag] - m))
        .sum();
    num / denom
}

/// Pearson correlation between two equal-length slices; `0.0` when either
/// input is constant or lengths differ.
pub fn pearson(xs: &[f32], ys: &[f32]) -> f32 {
    if xs.len() != ys.len() || xs.len() < 2 {
        return 0.0;
    }
    let mx = mean(xs);
    let my = mean(ys);
    let mut num = 0.0f32;
    let mut dx = 0.0f32;
    let mut dy = 0.0f32;
    for (&x, &y) in xs.iter().zip(ys.iter()) {
        num += (x - mx) * (y - my);
        dx += (x - mx) * (x - mx);
        dy += (y - my) * (y - my);
    }
    if dx < 1e-12 || dy < 1e-12 {
        return 0.0;
    }
    (num / (dx.sqrt() * dy.sqrt())).clamp(-1.0, 1.0)
}

/// Shannon entropy (nats) of a fixed-bin histogram of the values. A
/// constant signal has entropy 0; a uniform spread maximises it.
pub fn histogram_entropy(xs: &[f32], bins: usize) -> f32 {
    if xs.is_empty() || bins == 0 {
        return 0.0;
    }
    let lo = min(xs);
    let hi = max(xs);
    if (hi - lo).abs() < 1e-12 {
        return 0.0;
    }
    let mut counts = vec![0usize; bins];
    let width = (hi - lo) / bins as f32;
    for &x in xs {
        let mut b = ((x - lo) / width) as usize;
        if b >= bins {
            b = bins - 1;
        }
        counts[b] += 1;
    }
    let n = xs.len() as f32;
    counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f32 / n;
            -p * p.ln()
        })
        .sum()
}

/// Mean absolute first difference — a cheap "jerkiness" measure.
pub fn mean_abs_diff(xs: &[f32]) -> f32 {
    if xs.len() < 2 {
        return 0.0;
    }
    xs.windows(2).map(|w| (w[1] - w[0]).abs()).sum::<f32>() / (xs.len() - 1) as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f32 = 1e-5;

    #[test]
    fn mean_variance_std() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < EPS);
        assert!((variance(&xs) - 4.0).abs() < EPS);
        assert!((std_dev(&xs) - 2.0).abs() < EPS);
    }

    #[test]
    fn sort_nan_last_matches_the_partial_cmp_sort_and_puts_nan_last() {
        let mut rng = crate::SeededRng::new(5);
        let specials = [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, 1.5, 1.5];
        for len in [0usize, 1, 2, 7, 24, 120, 257] {
            let numbers: Vec<f32> = (0..len)
                .map(|i| specials.get(i % 9).copied().unwrap_or_else(|| rng.uniform(-2.0, 2.0)))
                .collect();
            // NaN-free: bit for bit the old comparator sort.
            let mut expected = numbers.clone();
            expected.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            let mut got = numbers.clone();
            sort_nan_last(&mut got);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&expected), "len {len}");
            // NaN-riddled: numbers ascending, every NaN at the end.
            let mut mixed = numbers.clone();
            for (i, v) in mixed.iter_mut().enumerate() {
                if i % 3 == 0 {
                    *v = f32::NAN;
                }
            }
            sort_nan_last(&mut mixed);
            let finite = mixed.iter().take_while(|v| !v.is_nan()).count();
            assert_eq!(finite, len - len.div_ceil(3), "len {len}");
            assert!(mixed[finite..].iter().all(|v| v.is_nan()));
            assert!(mixed[..finite].windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn empties_are_zero_not_nan() {
        let e: [f32; 0] = [];
        for v in [
            mean(&e),
            variance(&e),
            std_dev(&e),
            min(&e),
            max(&e),
            range(&e),
            percentile(&e, 50.0),
            median(&e),
            iqr(&e),
            mad(&e),
            rms(&e),
            energy(&e),
            skewness(&e),
            kurtosis(&e),
            zero_crossing_rate(&e),
            mean_crossing_rate(&e),
            autocorrelation(&e, 1),
            pearson(&e, &e),
            histogram_entropy(&e, 8),
            mean_abs_diff(&e),
        ] {
            assert_eq!(v, 0.0);
        }
    }

    #[test]
    fn order_statistics() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(min(&xs), 1.0);
        assert_eq!(max(&xs), 5.0);
        assert_eq!(range(&xs), 4.0);
        assert!((median(&xs) - 3.0).abs() < EPS);
        assert!((percentile(&xs, 0.0) - 1.0).abs() < EPS);
        assert!((percentile(&xs, 100.0) - 5.0).abs() < EPS);
        assert!((percentile(&xs, 25.0) - 2.0).abs() < EPS);
        assert!((iqr(&xs) - 2.0).abs() < EPS);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [0.0, 10.0];
        assert!((percentile(&xs, 50.0) - 5.0).abs() < EPS);
        assert!((percentile(&xs, 75.0) - 7.5).abs() < EPS);
        // Out-of-range p is clamped.
        assert!((percentile(&xs, 150.0) - 10.0).abs() < EPS);
    }

    #[test]
    fn mad_of_known() {
        let xs = [1.0, 1.0, 2.0, 2.0, 4.0, 6.0, 9.0];
        // median = 2, deviations = [1,1,0,0,2,4,7], mad = 1
        assert!((mad(&xs) - 1.0).abs() < EPS);
    }

    #[test]
    fn rms_and_energy() {
        let xs = [3.0, -4.0];
        assert!((energy(&xs) - 12.5).abs() < EPS);
        assert!((rms(&xs) - 12.5f32.sqrt()).abs() < EPS);
    }

    #[test]
    fn skewness_sign() {
        let right = [1.0, 1.0, 1.0, 2.0, 10.0];
        let left = [-10.0, -2.0, -1.0, -1.0, -1.0];
        assert!(skewness(&right) > 0.5);
        assert!(skewness(&left) < -0.5);
        assert_eq!(skewness(&[2.0, 2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn kurtosis_gaussian_near_zero() {
        let mut rng = crate::rng::SeededRng::new(21);
        let xs: Vec<f32> = (0..20_000).map(|_| rng.normal()).collect();
        assert!(kurtosis(&xs).abs() < 0.2, "kurtosis {}", kurtosis(&xs));
        assert_eq!(kurtosis(&[1.0, 1.0, 1.0, 1.0]), 0.0);
    }

    #[test]
    fn crossing_rates() {
        let alt = [1.0, -1.0, 1.0, -1.0, 1.0];
        assert!((zero_crossing_rate(&alt) - 1.0).abs() < EPS);
        let shifted = [11.0, 9.0, 11.0, 9.0, 11.0];
        // Never crosses zero, but crosses its mean every step.
        assert_eq!(zero_crossing_rate(&shifted), 0.0);
        assert!((mean_crossing_rate(&shifted) - 1.0).abs() < EPS);
    }

    #[test]
    fn autocorrelation_periodic_signal() {
        let period = 10usize;
        let xs: Vec<f32> = (0..200)
            .map(|i| (2.0 * std::f32::consts::PI * i as f32 / period as f32).sin())
            .collect();
        assert!(autocorrelation(&xs, period) > 0.9);
        assert!(autocorrelation(&xs, period / 2) < -0.9);
        assert_eq!(autocorrelation(&xs, 0), 1.0);
        assert_eq!(autocorrelation(&[1.0, 1.0, 1.0, 1.0], 1), 0.0);
    }

    #[test]
    fn pearson_correlations() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [2.0, 4.0, 6.0, 8.0];
        let zs = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&xs, &ys) - 1.0).abs() < EPS);
        assert!((pearson(&xs, &zs) + 1.0).abs() < EPS);
        assert_eq!(pearson(&xs, &[1.0, 1.0, 1.0, 1.0]), 0.0);
        assert_eq!(pearson(&xs, &ys[..2]), 0.0); // length mismatch -> 0
    }

    #[test]
    fn entropy_ordering() {
        let constant = [5.0; 64];
        let mut rng = crate::rng::SeededRng::new(33);
        let spread: Vec<f32> = (0..64).map(|_| rng.uniform(0.0, 1.0)).collect();
        assert_eq!(histogram_entropy(&constant, 8), 0.0);
        let h = histogram_entropy(&spread, 8);
        assert!(h > 1.0 && h <= (8.0f32).ln() + EPS, "h = {h}");
        assert_eq!(histogram_entropy(&spread, 0), 0.0);
    }

    #[test]
    fn mean_abs_diff_known() {
        assert!((mean_abs_diff(&[0.0, 1.0, -1.0]) - 1.5).abs() < EPS);
        assert_eq!(mean_abs_diff(&[1.0]), 0.0);
    }
}
