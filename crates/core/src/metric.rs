//! The performability metric (§2.3).
//!
//! `P = Tn · log(A_I) / log(AA)` with `A_I` an ideal availability
//! (0.99999 in the paper). The metric scales linearly with throughput
//! and inversely with unavailability: halving the unavailability
//! roughly doubles `P`, because `log(1 − u) ≈ −u` for small `u`.

/// The ideal availability the paper uses ("five nines").
pub const IDEAL_AVAILABILITY: f64 = 0.99999;

/// Computes the performability `P`.
///
/// A perfectly available system (`aa >= 1`) has unbounded
/// performability under this metric; the value is clamped at
/// `aa = 1 − 1e-15` to stay finite.
///
/// # Panics
///
/// Panics unless `tn > 0`, `0 < aa`, and `0 < ideal < 1`.
pub fn performability(tn: f64, aa: f64, ideal: f64) -> f64 {
    assert!(tn > 0.0, "normal throughput must be positive");
    assert!(aa > 0.0, "availability must be positive");
    assert!(
        ideal > 0.0 && ideal < 1.0,
        "ideal availability must be in (0,1)"
    );
    let aa = aa.min(1.0 - 1e-15);
    tn * ideal.ln() / aa.ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doubling_throughput_doubles_performability() {
        let p1 = performability(1000.0, 0.999, IDEAL_AVAILABILITY);
        let p2 = performability(2000.0, 0.999, IDEAL_AVAILABILITY);
        assert!((p2 / p1 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn halving_unavailability_roughly_doubles_performability() {
        let p1 = performability(1000.0, 1.0 - 0.002, IDEAL_AVAILABILITY);
        let p2 = performability(1000.0, 1.0 - 0.001, IDEAL_AVAILABILITY);
        let ratio = p2 / p1;
        assert!((ratio - 2.0).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn ideal_availability_recovers_tn() {
        let p = performability(5000.0, IDEAL_AVAILABILITY, IDEAL_AVAILABILITY);
        assert!((p - 5000.0).abs() < 1e-9);
    }

    #[test]
    fn perfect_availability_is_finite() {
        let p = performability(5000.0, 1.0, IDEAL_AVAILABILITY);
        assert!(p.is_finite());
        assert!(p > 5000.0);
    }

    #[test]
    fn worse_availability_means_lower_performability() {
        let good = performability(5000.0, 0.9999, IDEAL_AVAILABILITY);
        let bad = performability(5000.0, 0.99, IDEAL_AVAILABILITY);
        assert!(good > bad);
    }
}
