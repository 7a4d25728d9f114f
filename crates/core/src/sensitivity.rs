//! Sensitivity analysis: fault-rate sweeps and the TCP/VIA crossover
//! solver (§6.3, §9).

use crate::fault_load::ModelFault;
use crate::metric::performability;
use crate::model::{average_availability, FaultBehavior};

/// Result of solving for the fault-rate multiplier at which a VIA
/// version's performability drops to a TCP version's.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrossoverResult {
    /// The multiplier applied to the scaled fault classes.
    pub multiplier: f64,
    /// VIA performability at the crossover.
    pub via_performability: f64,
    /// The (fixed) TCP performability being matched.
    pub tcp_performability: f64,
}

/// Performability of a configuration after multiplying the rates of the
/// fault classes selected by `scales` by `factor`.
pub fn performability_at(
    tn: f64,
    behaviors: &[FaultBehavior],
    factor: f64,
    ideal: f64,
    scales: impl Fn(ModelFault) -> bool,
) -> f64 {
    let scaled: Vec<FaultBehavior> = behaviors
        .iter()
        .map(|b| {
            if scales(b.entry.fault) {
                FaultBehavior {
                    entry: b.entry.scaled_rate(factor),
                    stages: b.stages.clone(),
                }
            } else {
                b.clone()
            }
        })
        .collect();
    let aa = average_availability(tn, &scaled);
    performability(tn, aa, ideal)
}

/// Finds, by bisection, the multiplier on the VIA version's
/// `scales`-selected fault classes at which its performability equals
/// the TCP version's. This reproduces the paper's headline "≈4×"
/// result (§9).
///
/// Returns `None` if even `max_factor` leaves VIA ahead (no crossover
/// in range), or if VIA is already behind at 1×.
pub fn crossover_multiplier(
    via_tn: f64,
    via_behaviors: &[FaultBehavior],
    tcp_performability: f64,
    ideal: f64,
    max_factor: f64,
    scales: impl Fn(ModelFault) -> bool + Copy,
) -> Option<CrossoverResult> {
    let p_at = |m: f64| performability_at(via_tn, via_behaviors, m, ideal, scales);
    if p_at(1.0) <= tcp_performability {
        return None; // VIA never led
    }
    if p_at(max_factor) > tcp_performability {
        return None; // no crossover within range
    }
    let (mut lo, mut hi) = (1.0, max_factor);
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if p_at(mid) > tcp_performability {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let multiplier = 0.5 * (lo + hi);
    Some(CrossoverResult {
        multiplier,
        via_performability: p_at(multiplier),
        tcp_performability,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault_load::{FaultEntry, DAY};
    use crate::metric::IDEAL_AVAILABILITY;
    use crate::stages::{SevenStage, Stage};

    fn behavior(mttf: f64, downtime: f64) -> FaultBehavior {
        let mut stages = SevenStage::zeroed();
        stages.set(Stage::A, downtime, 0.0);
        FaultBehavior {
            entry: FaultEntry {
                fault: ModelFault::ProcessCrash,
                mttf,
                mttr: 180.0,
                instances: 4,
            },
            stages,
        }
    }

    #[test]
    fn scaling_rates_reduces_performability_monotonically() {
        let b = vec![behavior(DAY, 60.0)];
        let p1 = performability_at(6000.0, &b, 1.0, IDEAL_AVAILABILITY, |_| true);
        let p2 = performability_at(6000.0, &b, 2.0, IDEAL_AVAILABILITY, |_| true);
        let p4 = performability_at(6000.0, &b, 4.0, IDEAL_AVAILABILITY, |_| true);
        assert!(p1 > p2 && p2 > p4);
    }

    #[test]
    fn unscaled_classes_are_untouched() {
        let b = vec![behavior(DAY, 60.0)];
        let p1 = performability_at(6000.0, &b, 1.0, IDEAL_AVAILABILITY, |_| false);
        let p9 = performability_at(6000.0, &b, 9.0, IDEAL_AVAILABILITY, |_| false);
        assert!((p1 - p9).abs() < 1e-9);
    }

    #[test]
    fn crossover_finds_the_equalizing_multiplier() {
        // VIA: faster (6000 vs 5000) but same fault behaviour; scaling
        // its faults must eventually hand TCP the lead.
        let via = vec![behavior(DAY, 60.0)];
        let tcp = vec![behavior(DAY, 60.0)];
        let tcp_p = performability_at(5000.0, &tcp, 1.0, IDEAL_AVAILABILITY, |_| true);
        let result = crossover_multiplier(6000.0, &via, tcp_p, IDEAL_AVAILABILITY, 100.0, |_| true)
            .expect("crossover exists");
        assert!(result.multiplier > 1.0);
        // At the solution, performabilities agree.
        let via_p = performability_at(6000.0, &via, result.multiplier, IDEAL_AVAILABILITY, |_| {
            true
        });
        assert!((via_p - tcp_p).abs() / tcp_p < 1e-6);
    }

    #[test]
    fn no_crossover_when_via_never_led() {
        let via = vec![behavior(DAY, 600.0)];
        let tcp = vec![behavior(DAY, 6.0)];
        let tcp_p = performability_at(5000.0, &tcp, 1.0, IDEAL_AVAILABILITY, |_| true);
        assert!(
            crossover_multiplier(5000.0, &via, tcp_p, IDEAL_AVAILABILITY, 100.0, |_| true)
                .is_none()
        );
    }

    #[test]
    fn no_crossover_when_range_too_small() {
        let via = vec![behavior(DAY, 1.0)]; // VIA barely dented by faults
        let tcp = vec![behavior(DAY, 60.0)];
        let tcp_p = performability_at(5000.0, &tcp, 1.0, IDEAL_AVAILABILITY, |_| true);
        assert!(
            crossover_multiplier(50_000.0, &via, tcp_p, IDEAL_AVAILABILITY, 2.0, |_| true)
                .is_none()
        );
    }
}
