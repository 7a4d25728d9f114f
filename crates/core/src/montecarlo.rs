//! Monte-Carlo performability estimation.
//!
//! The closed-form model (see [`crate::model`]) assumes faults arrive
//! one at a time and each follows its seven-stage response in
//! isolation. Correlated groups, gray faults, and overlapping arrivals
//! break both assumptions, so the estimator goes empirical instead:
//! *measure* average throughput over many independently-seeded fault
//! timelines and report the sample mean with a confidence interval —
//! the approximate-evaluation style of the large-scale Beowulf
//! performability studies.
//!
//! This module holds the architecture-independent statistics; the
//! `experiments` crate drives the simulations that produce the samples.

/// The aggregate of one Monte-Carlo estimate: sample mean, spread, and
/// a 95% confidence interval under the normal approximation.
#[derive(Debug, Clone, PartialEq)]
pub struct MonteCarloEstimate {
    /// Number of samples (replications).
    pub n: usize,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (Bessel-corrected; 0 for n < 2).
    pub std_dev: f64,
    /// Standard error of the mean (0 for n < 2).
    pub std_err: f64,
    /// Half-width of the 95% confidence interval (`1.96 · std_err`).
    pub ci95: f64,
}

impl MonteCarloEstimate {
    /// Estimates from a sample set.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or any sample is non-finite.
    pub fn from_samples(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "an estimate needs at least one sample");
        assert!(
            samples.iter().all(|s| s.is_finite()),
            "samples must be finite"
        );
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let (std_dev, std_err) = if n < 2 {
            (0.0, 0.0)
        } else {
            let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / (n as f64 - 1.0);
            let sd = var.sqrt();
            (sd, sd / (n as f64).sqrt())
        };
        MonteCarloEstimate {
            n,
            mean,
            std_dev,
            std_err,
            ci95: 1.96 * std_err,
        }
    }

    /// The confidence interval as `(low, high)`.
    pub fn interval(&self) -> (f64, f64) {
        (self.mean - self.ci95, self.mean + self.ci95)
    }

    /// Whether `value` falls inside the 95% interval widened by
    /// `tolerance` on each side — the cross-check gate between a
    /// closed-form prediction and its Monte-Carlo measurement.
    pub fn covers(&self, value: f64, tolerance: f64) -> bool {
        let (lo, hi) = self.interval();
        value >= lo - tolerance && value <= hi + tolerance
    }
}

/// One replication's measured outcome: the inputs to the performability
/// estimate, kept together so reports can show per-replication rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Replication {
    /// Seed that generated this replication's fault trace.
    pub seed: u64,
    /// Measured average throughput over the whole timeline (req/s).
    pub throughput: f64,
    /// Fraction of requests that succeeded.
    pub availability: f64,
    /// Number of faults injected by the generated trace.
    pub faults: usize,
    /// Maximum number of concurrently active faults.
    pub max_concurrent: usize,
}

/// A full Monte-Carlo performability result: throughput and
/// availability estimates over a set of replications, plus the
/// baseline they normalize against.
#[derive(Debug, Clone, PartialEq)]
pub struct MonteCarloResult {
    /// Fault-free baseline throughput Tn (req/s).
    pub tn: f64,
    /// Per-replication outcomes, in seed order.
    pub replications: Vec<Replication>,
    /// Estimate of average throughput AT (req/s).
    pub at: MonteCarloEstimate,
    /// Estimate of average availability AA = AT / Tn.
    pub aa: MonteCarloEstimate,
}

impl MonteCarloResult {
    /// Builds the AT and AA estimates from per-replication outcomes.
    ///
    /// # Panics
    ///
    /// Panics if `replications` is empty or `tn` is not positive.
    pub fn new(tn: f64, replications: Vec<Replication>) -> Self {
        assert!(tn > 0.0, "baseline throughput must be positive");
        let at_samples: Vec<f64> = replications.iter().map(|r| r.throughput).collect();
        let aa_samples: Vec<f64> = at_samples.iter().map(|t| t / tn).collect();
        MonteCarloResult {
            tn,
            at: MonteCarloEstimate::from_samples(&at_samples),
            aa: MonteCarloEstimate::from_samples(&aa_samples),
            replications,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimate_matches_hand_computation() {
        let e = MonteCarloEstimate::from_samples(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(e.n, 8);
        assert!((e.mean - 5.0).abs() < 1e-12);
        // Sample variance with Bessel's correction: 32/7.
        assert!((e.std_dev - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert!((e.std_err - e.std_dev / 8.0f64.sqrt()).abs() < 1e-12);
        assert!((e.ci95 - 1.96 * e.std_err).abs() < 1e-12);
        let (lo, hi) = e.interval();
        assert!(lo < 5.0 && hi > 5.0);
    }

    #[test]
    fn single_sample_has_zero_spread() {
        let e = MonteCarloEstimate::from_samples(&[3.5]);
        assert_eq!(e.mean, 3.5);
        assert_eq!(e.std_dev, 0.0);
        assert_eq!(e.ci95, 0.0);
        assert_eq!(e.interval(), (3.5, 3.5));
    }

    #[test]
    fn covers_widens_by_the_tolerance() {
        let e = MonteCarloEstimate::from_samples(&[1.0, 1.0, 1.0]);
        assert!(e.covers(1.0, 0.0));
        assert!(!e.covers(1.1, 0.05));
        assert!(e.covers(1.1, 0.2));
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn empty_samples_are_rejected() {
        MonteCarloEstimate::from_samples(&[]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_samples_are_rejected() {
        MonteCarloEstimate::from_samples(&[1.0, f64::NAN]);
    }

    fn rep(seed: u64, thr: f64) -> Replication {
        Replication {
            seed,
            throughput: thr,
            availability: 0.9,
            faults: 3,
            max_concurrent: 2,
        }
    }

    #[test]
    fn result_normalizes_aa_against_tn() {
        let r = MonteCarloResult::new(100.0, vec![rep(1, 80.0), rep(2, 90.0)]);
        assert!((r.at.mean - 85.0).abs() < 1e-12);
        assert!((r.aa.mean - 0.85).abs() < 1e-12);
        assert_eq!(r.replications.len(), 2);
        // AA's spread is AT's spread scaled by 1/Tn.
        assert!((r.aa.std_err - r.at.std_err / 100.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_baseline_is_rejected() {
        MonteCarloResult::new(0.0, vec![rep(1, 1.0)]);
    }
}
