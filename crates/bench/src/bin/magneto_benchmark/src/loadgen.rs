//! Seeded open-loop arrivals: Poisson arrival times and Zipf user
//! popularity.

use magneto_tensor::SeededRng;

/// Uniform draw in the open interval `(0, 1)` at full `f64` resolution.
pub fn uniform01(rng: &mut SeededRng) -> f64 {
    ((rng.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
}

/// Arrival offsets (seconds from phase start) of a Poisson process at
/// `rate` per second over `[0, duration_s)`: exponential gaps drawn by
/// inversion.
pub fn poisson_schedule(rate: f64, duration_s: f64, rng: &mut SeededRng) -> Vec<f64> {
    let mut out = Vec::with_capacity((rate * duration_s * 1.05) as usize + 16);
    let mut t = 0.0;
    loop {
        t += -uniform01(rng).ln() / rate;
        if t >= duration_s {
            return out;
        }
        out.push(t);
    }
}

/// Inverse-CDF sampler over ranks `0..n` weighted `1/(rank+1)^s`: a few
/// users produce most of the traffic, the long tail is rarely touched.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += (rank as f64).powf(-s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut SeededRng) -> usize {
        let u = uniform01(rng);
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }

    /// Probability of `rank`.
    #[cfg(test)]
    fn p(&self, rank: usize) -> f64 {
        self.cdf[rank] - if rank == 0 { 0.0 } else { self.cdf[rank - 1] }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_deterministic_per_seed() {
        let a = poisson_schedule(4000.0, 2.0, &mut SeededRng::new(7));
        let b = poisson_schedule(4000.0, 2.0, &mut SeededRng::new(7));
        let c = poisson_schedule(4000.0, 2.0, &mut SeededRng::new(8));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.iter().all(|&t| (0.0..2.0).contains(&t)));
    }

    #[test]
    fn poisson_mean_rate_within_one_percent_over_1e5_arrivals() {
        for seed in 0..5 {
            let rate = 20_000.0;
            let s = poisson_schedule(rate, 6.0, &mut SeededRng::new(seed));
            assert!(s.len() >= 100_000, "only {} arrivals", s.len());
            let measured = s.len() as f64 / s[s.len() - 1];
            assert!(
                (measured / rate - 1.0).abs() < 0.01,
                "seed {seed}: {measured} vs {rate}"
            );
            // Exponential gaps: the coefficient of variation is 1.
            let gaps: Vec<f64> = s.windows(2).map(|w| w[1] - w[0]).collect();
            let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
            let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
            assert!((var.sqrt() / mean - 1.0).abs() < 0.02);
        }
    }

    #[test]
    fn zipf_frequencies_follow_the_power_law() {
        let zipf = Zipf::new(2000, 1.1);
        let mut rng = SeededRng::new(3);
        let draws = 200_000;
        let mut counts = vec![0usize; 2000];
        for _ in 0..draws {
            counts[zipf.sample(&mut rng)] += 1;
        }
        for rank in [0, 1, 9] {
            let expected = zipf.p(rank) * draws as f64;
            let got = counts[rank] as f64;
            assert!(
                (got / expected - 1.0).abs() < 0.05,
                "rank {rank}: {got} vs {expected}"
            );
        }
        // Rank r+1 is (r+2/r+1)^s times rarer than rank r.
        assert!((zipf.p(0) / zipf.p(1) - 2f64.powf(1.1)).abs() < 1e-9);
        let total: f64 = (0..2000).map(|r| zipf.p(r)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zipf_is_deterministic_and_in_range() {
        let zipf = Zipf::new(5, 0.9);
        let a: Vec<usize> = {
            let mut rng = SeededRng::new(1);
            (0..100).map(|_| zipf.sample(&mut rng)).collect()
        };
        let b: Vec<usize> = {
            let mut rng = SeededRng::new(1);
            (0..100).map(|_| zipf.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
        assert!(a.iter().all(|&r| r < 5));
        // s = 0 is uniform.
        let flat = Zipf::new(4, 0.0);
        assert!((0..4).all(|r| (flat.p(r) - 0.25).abs() < 1e-12));
    }
}
