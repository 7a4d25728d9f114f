//! Zipf-distributed file popularity.

use simnet::SimRng;

/// A Zipf(α) sampler over `n` items (0-based ranks), using a
/// precomputed CDF and binary search. Web-trace popularity is classically
/// Zipf-like with α around 0.7–0.9.
///
/// # Example
///
/// ```
/// use simnet::SimRng;
/// use workload::Zipf;
///
/// let zipf = Zipf::new(1000, 0.8);
/// let mut rng = SimRng::seed_from(1);
/// let r = zipf.sample(&mut rng);
/// assert!(r < 1000);
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the sampler for `n` items with exponent `alpha`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `alpha` is negative or not finite.
    pub fn new(n: u32, alpha: f64) -> Self {
        assert!(n > 0, "zipf needs at least one item");
        assert!(
            alpha >= 0.0 && alpha.is_finite(),
            "bad zipf exponent {alpha}"
        );
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / f64::from(k).powf(alpha);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// `true` only for an impossible empty sampler (kept for API
    /// completeness; the constructor forbids it).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Draws an item rank in `[0, n)`; rank 0 is the most popular.
    pub fn sample(&self, rng: &mut SimRng) -> u32 {
        let u = rng.uniform();
        self.cdf.partition_point(|&c| c < u) as u32
    }

    /// Probability mass of the `top` most popular items — used to
    /// reason about cache hit rates.
    pub fn mass_of_top(&self, top: usize) -> f64 {
        if top == 0 {
            0.0
        } else {
            self.cdf[(top - 1).min(self.cdf.len() - 1)]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_are_in_range_and_skewed() {
        let z = Zipf::new(10_000, 0.8);
        let mut rng = SimRng::seed_from(7);
        let mut top_100 = 0;
        let n = 20_000;
        for _ in 0..n {
            let s = z.sample(&mut rng);
            assert!(s < 10_000);
            if s < 100 {
                top_100 += 1;
            }
        }
        let frac = top_100 as f64 / n as f64;
        let expected = z.mass_of_top(100);
        assert!(
            (frac - expected).abs() < 0.02,
            "top-100 mass {frac} vs expected {expected}"
        );
        // Zipf(0.8) over 10k items puts far more than 1% on the top 1%.
        assert!(expected > 0.15, "expected mass {expected}");
    }

    #[test]
    fn alpha_zero_is_uniform() {
        let z = Zipf::new(100, 0.0);
        assert!((z.mass_of_top(50) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cdf_is_monotone_and_normalized() {
        let z = Zipf::new(1000, 1.1);
        assert!(z.cdf.windows(2).all(|w| w[0] < w[1]));
        assert!((z.cdf.last().unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(z.len(), 1000);
        assert!(!z.is_empty());
    }

    #[test]
    fn mass_of_top_saturates() {
        let z = Zipf::new(10, 0.8);
        assert_eq!(z.mass_of_top(0), 0.0);
        assert!((z.mass_of_top(10) - 1.0).abs() < 1e-12);
        assert!((z.mass_of_top(99) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_zipf_is_rejected() {
        Zipf::new(0, 0.8);
    }
}
