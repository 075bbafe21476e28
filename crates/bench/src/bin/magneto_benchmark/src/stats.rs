//! Order statistics over measured samples.

/// Percentiles a tail is reported at, highest first. A percentile is
/// only reported when at least [`MIN_BEYOND`] samples lie beyond it.
pub const TAIL_LADDER: [f64; 3] = [99.0, 90.0, 50.0];

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// A sorted sample.
#[derive(Debug, Clone, Default)]
pub struct Dist {
    sorted: Vec<f64>,
}

/// The highest percentile a sample supports, or why it supports none.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tail {
    /// `pct` has at least [`MIN_BEYOND`] samples beyond it.
    At { pct: f64, value: f64 },
    /// Too few samples for even the median to have [`MIN_BEYOND`]
    /// samples beyond it.
    TooSmall { n: usize },
}

impl Dist {
    pub fn new(mut samples: Vec<f64>) -> Self {
        samples.sort_by(f64::total_cmp);
        Dist { sorted: samples }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank percentile (`pct` in `[0, 100]`); `0.0` when empty.
    pub fn pct(&self, pct: f64) -> f64 {
        match self.rank(pct) {
            Some(k) => self.sorted[k],
            None => 0.0,
        }
    }

    pub fn median(&self) -> f64 {
        self.pct(50.0)
    }

    pub fn max(&self) -> f64 {
        self.sorted.last().copied().unwrap_or(0.0)
    }

    /// Samples strictly after the nearest-rank position of `pct`.
    pub fn beyond(&self, pct: f64) -> usize {
        self.rank(pct).map_or(0, |k| self.sorted.len() - 1 - k)
    }

    /// The highest percentile of [`TAIL_LADDER`] with at least
    /// [`MIN_BEYOND`] samples beyond it.
    pub fn tail(&self) -> Tail {
        TAIL_LADDER
            .iter()
            .find(|&&p| self.beyond(p) >= MIN_BEYOND)
            .map_or(Tail::TooSmall { n: self.len() }, |&p| Tail::At {
                pct: p,
                value: self.pct(p),
            })
    }

    fn rank(&self, pct: f64) -> Option<usize> {
        let n = self.sorted.len();
        if n == 0 {
            return None;
        }
        // The epsilon keeps float error in `pct / 100 * n` (99.9% of
        // 1000 is 999.0000000000001) from skipping a rank.
        let k = (pct / 100.0 * n as f64 - 1e-9).ceil() as usize;
        Some(k.clamp(1, n) - 1)
    }
}

/// Median of unsorted run values as Python's `statistics.median` takes
/// it (mean of the two middle values for an even count; `0.0` when
/// empty).
pub fn median(values: &[f64]) -> f64 {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => data[n / 2],
        _ => (data[n / 2 - 1] + data[n / 2]) / 2.0,
    }
}

/// First and third quartile by the method of Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), so the
/// spreads printed here match the ones a Python check computes. With a
/// single value both quartiles are that value.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    match n {
        0 => return (0.0, 0.0),
        1 => return (data[0], data[0]),
        _ => {}
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Interquartile distance as a share of the median (`0.0` for a zero
/// median).
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// Mean over groups of each group's `hits / total` (groups with no
/// samples skipped): accuracy with every user weighted equally.
pub fn mean_rate(groups: &[(u64, u64)]) -> f64 {
    let rates: Vec<f64> = groups
        .iter()
        .filter(|(_, n)| *n > 0)
        .map(|&(c, n)| c as f64 / n as f64)
        .collect();
    rates.iter().sum::<f64>() / rates.len().max(1) as f64
}

/// How much slower the flagged samples are than the rest, at the
/// median: `median(flagged) / median(unflagged) - 1` (`0.0` when either
/// side is empty).
pub fn median_excess(values: &[f64], flagged: &[bool]) -> f64 {
    let pick = |want: bool| -> Vec<f64> {
        values
            .iter()
            .zip(flagged)
            .filter(|&(_, &f)| f == want)
            .map(|(&v, _)| v)
            .collect()
    };
    let (yes, no) = (pick(true), pick(false));
    if yes.is_empty() || no.is_empty() || median(&no) == 0.0 {
        0.0
    } else {
        median(&yes) / median(&no) - 1.0
    }
}

/// Least-squares slope of `y` over `x` (`0.0` with fewer than two
/// distinct `x`).
pub fn slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    if points.len() < 2 {
        return 0.0;
    }
    let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
    let my = points.iter().map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = points.iter().map(|p| (p.0 - mx).powi(2)).sum();
    let sxy: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    if sxx == 0.0 {
        0.0
    } else {
        sxy / sxx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Dist {
        Dist::new((1..=n).map(|i| i as f64).collect())
    }

    #[test]
    fn tail_is_highest_percentile_with_ten_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond it, p99.9 only 1.
        let d = ramp(1000);
        assert_eq!(d.beyond(99.0), 10);
        assert_eq!(d.beyond(99.9), 1);
        assert_eq!(
            d.tail(),
            Tail::At {
                pct: 99.0,
                value: 990.0
            }
        );
        // 999 samples fall just short of p99 and drop to p90.
        assert!(matches!(ramp(999).tail(), Tail::At { pct, .. } if pct == 90.0));
    }

    #[test]
    fn tail_says_when_the_sample_is_too_small() {
        // The median needs 10 samples beyond it: 20 samples is the least.
        assert!(matches!(ramp(20).tail(), Tail::At { pct, .. } if pct == 50.0));
        assert_eq!(ramp(19).tail(), Tail::TooSmall { n: 19 });
        assert_eq!(Dist::default().tail(), Tail::TooSmall { n: 0 });
        assert_eq!(Dist::default().median(), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let d = ramp(100);
        assert_eq!(d.median(), 50.0);
        assert_eq!(d.pct(99.0), 99.0);
        assert_eq!(d.pct(100.0), 100.0);
        assert_eq!(d.pct(0.0), 1.0);
        assert_eq!(d.max(), 100.0);
        assert_eq!(Dist::new(vec![3.0, 1.0, 2.0]).median(), 2.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), (1.0, 5.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn mean_rate_weights_groups_equally() {
        assert_eq!(mean_rate(&[(9, 10), (1, 2), (0, 0)]), 0.7);
        assert_eq!(mean_rate(&[]), 0.0);
    }

    #[test]
    fn median_excess_compares_flagged_to_unflagged() {
        let v = [10.0, 11.0, 10.0, 11.0, 10.0, 11.0];
        let f = [false, true, false, true, false, true];
        assert!((median_excess(&v, &f) - 0.1).abs() < 1e-12);
        assert_eq!(median_excess(&v, &[false; 6]), 0.0);
    }

    #[test]
    fn slope_of_a_line() {
        let pts: Vec<(f64, f64)> = (0..10)
            .map(|i| (f64::from(i), 3.0 * f64::from(i) + 1.0))
            .collect();
        assert!((slope(&pts) - 3.0).abs() < 1e-12);
        assert_eq!(slope(&[(1.0, 2.0)]), 0.0);
    }
}
