//! Seeded fault-arrival traces: Poisson processes per fault class.
//!
//! The paper's phase 1 replays each Table-2 fault once, in isolation.
//! To study overlapping faults we instead *generate* a campaign: each
//! [`ArrivalClass`] is an independent Poisson process (exponential
//! inter-arrival times) over a horizon, targets drawn uniformly over
//! the nodes. Everything flows from one `u64` seed through the
//! simulator's own xoshiro256++ shim, so a trace is a pure function of
//! `(classes, horizon, nodes, seed)` and replays byte-identically —
//! the property every Monte-Carlo estimate in this repo leans on.
//!
//! Each class forks its own RNG stream from the root seed, so adding
//! or reordering classes perturbs only the class concerned — not every
//! other class's arrivals.

use simnet::fabric::NodeId;
use simnet::{SimDuration, SimRng, SimTime};

use crate::campaign::Campaign;
use crate::fault::{FaultKind, FaultSpec};

/// One Poisson fault class in an arrival trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalClass {
    /// The fault to inject at each arrival. One-shot bad-parameter
    /// kinds are not supported (they have no duration to overlap).
    pub kind: FaultKind,
    /// Mean time between arrivals (the exponential's mean, i.e. the
    /// class MTTF across the whole cluster).
    pub mean_between: SimDuration,
    /// How long each injected fault lasts (the class MTTR).
    pub duration: SimDuration,
}

impl ArrivalClass {
    /// A class injecting transient `kind` faults with the given mean
    /// inter-arrival time and per-fault duration.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is one-shot, or either time is zero.
    pub fn new(kind: FaultKind, mean_between: SimDuration, duration: SimDuration) -> Self {
        assert!(
            !kind.is_one_shot(),
            "{kind} is one-shot; arrival traces need transients"
        );
        assert!(
            mean_between > SimDuration::ZERO,
            "mean inter-arrival must be positive"
        );
        assert!(
            duration > SimDuration::ZERO,
            "fault duration must be positive"
        );
        ArrivalClass {
            kind,
            mean_between,
            duration,
        }
    }
}

/// Generates a campaign of overlapping transient faults: each class in
/// `classes` contributes a Poisson arrival stream over
/// `[start, start + horizon)`, targets drawn uniformly from
/// `0..nodes` (partial partitions additionally draw a distinct peer).
/// Arrivals landing so late their fault would not begin before the
/// horizon are dropped; durations may extend past it (the run clips
/// them via [`Campaign::active_intervals`]).
///
/// The result is deterministic in `(classes, start, horizon, nodes,
/// seed)` and always passes [`Campaign::validate`] — in the
/// vanishingly unlikely event two draws collide into identical specs,
/// the duplicate is dropped.
///
/// # Panics
///
/// Panics if `nodes == 0`, or `nodes < 2` while a class injects
/// partial partitions.
pub fn generate_trace(
    classes: &[ArrivalClass],
    start: SimTime,
    horizon: SimDuration,
    nodes: usize,
    seed: u64,
) -> Campaign {
    assert!(nodes > 0, "arrival traces need at least one node");
    let end = start + horizon;
    let mut root = SimRng::seed_from(seed);
    let mut faults: Vec<FaultSpec> = Vec::new();
    for class in classes {
        // Each class gets its own forked stream: stable under changes
        // to sibling classes' draw counts.
        let mut rng = root.fork();
        let rate = 1.0 / class.mean_between.as_secs_f64();
        let mut at = start;
        loop {
            let gap = rng.exponential(rate);
            at += SimDuration::from_nanos((gap * 1e9) as u64);
            if at >= end {
                break;
            }
            let node = NodeId(rng.below(nodes as u64) as usize);
            let spec = if class.kind == FaultKind::PartialPartition {
                assert!(nodes >= 2, "partial partitions need two nodes");
                // Draw a peer from the remaining nodes, skipping past
                // the target so the pair is always distinct.
                let raw = rng.below(nodes as u64 - 1) as usize;
                let peer = NodeId(if raw >= node.0 { raw + 1 } else { raw });
                FaultSpec::partial_partition(node, peer, at, class.duration)
            } else {
                FaultSpec::transient(class.kind, node, at, class.duration)
            };
            if !faults.contains(&spec) {
                faults.push(spec);
            }
        }
    }
    Campaign::new(faults)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn classes() -> Vec<ArrivalClass> {
        vec![
            ArrivalClass::new(
                FaultKind::NodeCrash,
                SimDuration::from_secs(120),
                SimDuration::from_secs(30),
            ),
            ArrivalClass::new(
                FaultKind::LinkDegraded,
                SimDuration::from_secs(90),
                SimDuration::from_secs(45),
            ),
            ArrivalClass::new(
                FaultKind::PartialPartition,
                SimDuration::from_secs(150),
                SimDuration::from_secs(40),
            ),
        ]
    }

    #[test]
    fn traces_are_deterministic_in_the_seed() {
        let horizon = SimDuration::from_secs(3600);
        let a = generate_trace(&classes(), SimTime::from_secs(10), horizon, 4, 7);
        let b = generate_trace(&classes(), SimTime::from_secs(10), horizon, 4, 7);
        assert_eq!(a, b);
        let c = generate_trace(&classes(), SimTime::from_secs(10), horizon, 4, 8);
        assert_ne!(a, c, "a different seed must change the trace");
        assert!(!a.is_empty());
        assert_eq!(a.validate(), Ok(()));
    }

    #[test]
    fn arrivals_stay_inside_the_window_and_target_valid_nodes() {
        let start = SimTime::from_secs(5);
        let horizon = SimDuration::from_secs(1800);
        let trace = generate_trace(&classes(), start, horizon, 4, 2003);
        for f in trace.faults() {
            assert!(f.at >= start && f.at < start + horizon);
            assert!(f.node.0 < 4);
            if let Some(peer) = f.peer {
                assert!(peer.0 < 4);
                assert_ne!(peer, f.node);
            }
            assert!(f.duration.is_some(), "arrival traces inject transients");
        }
    }

    #[test]
    fn arrival_counts_follow_the_class_rates() {
        // Over a long horizon the per-class arrival count concentrates
        // around horizon/mean_between.
        let horizon = SimDuration::from_secs(200_000);
        let trace = generate_trace(
            &[ArrivalClass::new(
                FaultKind::NodeHang,
                SimDuration::from_secs(100),
                SimDuration::from_secs(10),
            )],
            SimTime::ZERO,
            horizon,
            4,
            42,
        );
        let n = trace.faults().len() as f64;
        let expected = 2000.0;
        assert!(
            (n - expected).abs() < 150.0,
            "expected ~{expected} arrivals, got {n}"
        );
    }

    #[test]
    fn class_streams_are_independent() {
        // Dropping the second class must not perturb the first class's
        // arrivals.
        let horizon = SimDuration::from_secs(3600);
        let both = generate_trace(&classes(), SimTime::ZERO, horizon, 4, 9);
        let first_only = generate_trace(&classes()[..1], SimTime::ZERO, horizon, 4, 9);
        let crashes: Vec<&FaultSpec> = both
            .faults()
            .iter()
            .filter(|f| f.kind == FaultKind::NodeCrash)
            .collect();
        assert_eq!(crashes.len(), first_only.faults().len());
        for (a, b) in crashes.iter().zip(first_only.faults()) {
            assert_eq!(**a, *b);
        }
    }

    #[test]
    fn generated_traces_overlap() {
        // Dense rates on a small cluster must produce at least one
        // instant with two concurrently active faults — the whole point
        // of the generator.
        let trace = generate_trace(
            &[
                ArrivalClass::new(
                    FaultKind::NodeCrash,
                    SimDuration::from_secs(60),
                    SimDuration::from_secs(40),
                ),
                ArrivalClass::new(
                    FaultKind::LinkDegraded,
                    SimDuration::from_secs(60),
                    SimDuration::from_secs(40),
                ),
            ],
            SimTime::ZERO,
            SimDuration::from_secs(1200),
            4,
            1,
        );
        let horizon = SimTime::from_secs(1200);
        let intervals = trace.active_intervals(horizon);
        let overlaps = intervals.windows(2).any(|w| w[1].start < w[0].end);
        assert!(overlaps, "expected at least one overlapping pair");
    }

    #[test]
    #[should_panic(expected = "one-shot")]
    fn one_shot_kinds_are_rejected() {
        ArrivalClass::new(
            FaultKind::BadParamNull,
            SimDuration::from_secs(10),
            SimDuration::from_secs(1),
        );
    }
}
