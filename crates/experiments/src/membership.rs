//! Ring-vs-gossip membership study: how failure-detection latency
//! scales with cluster size under the two detectors TCP-PRESS-HB can
//! run ([`MembershipImpl::Ring`], the paper's heartbeat ring, and
//! [`MembershipImpl::Gossip`], the SWIM epidemic detector in
//! `crates/gossip`).
//!
//! The ring's weakness is *sequential unmasking*: only the successor of
//! a crashed node watches it, and excluding one crashed predecessor
//! resets the heartbeat timer on the next, so `k` simultaneous adjacent
//! crashes (a rack) take ≈ `k × 15 s` to clear. Gossip probes peers in
//! parallel from every live node, so the same rack clears in a few
//! probe rounds regardless of `N`. This module sweeps `N ∈ {4, 8, 16,
//! 32}` and three fault shapes per detector:
//!
//! * **rack crash** — `N/4` adjacent machines fail permanently at once;
//!   measures full-detection latency plus throughput/availability over
//!   the same window for both detectors.
//! * **gray partition** — a 30 s partial partition between two *live*
//!   nodes; counts live nodes some other live node falsely excludes
//!   (the ring cannot tell "my predecessor's link" from "my
//!   predecessor"; gossip's indirect ping-req can).
//! * **rejoin** — one machine crashes transiently and re-enters through
//!   the rejoin protocol; measures restart-to-full-view latency.
//!
//! Every run is an independent `(config, campaign, seed)` triple, so
//! the sweep fans out over [`run_indexed`] and is byte-identical for
//! any `--jobs` count.

use mendosus::{Campaign, FaultKind, FaultSpec};
use press::{MembershipImpl, PressVersion};
use simnet::fabric::NodeId;
use simnet::{SimDuration, SimTime};

use crate::cluster::{ClusterConfig, ClusterReport, ClusterSim};
use crate::phase2::{config_for, RunScale};
use crate::render::table;
use crate::runner::{rejoin_time, run_indexed, task_seed, views_reach, Run};

/// Cluster sizes swept (the paper's test-bed is the smallest point).
pub const SWEEP_NODES: [usize; 4] = [4, 8, 16, 32];

/// Injection instant shared by all three scenarios.
const FAULT_AT_S: u64 = 10;

/// One `(N, detector)` sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct MembershipPoint {
    /// Cluster size.
    pub nodes: usize,
    /// The detector under test.
    pub detector: MembershipImpl,
    /// Rack crash: seconds from injection until every live node's view
    /// has shrunk to the surviving set.
    pub detection_s: f64,
    /// Whether every live node converged within the run (when `false`,
    /// `detection_s` is the censored run remainder).
    pub detected_all: bool,
    /// Rack crash: fraction of requests served over the whole run.
    pub availability: f64,
    /// Rack crash: successful requests per second over the whole run.
    pub throughput: f64,
    /// Gray partition: live nodes falsely considered dead by at least
    /// one other live node at the end of the run.
    pub false_exclusions: usize,
    /// Rejoin: seconds from process restart until the restarted node's
    /// view is full again.
    pub rejoin_s: f64,
    /// Node-level metrics snapshot, when requested.
    pub metrics: Option<String>,
}

/// Short label for a detector ("ring" / "gossip").
pub fn detector_name(d: MembershipImpl) -> &'static str {
    match d {
        MembershipImpl::Ring => "ring",
        MembershipImpl::Gossip => "gossip",
    }
}

/// The sweep's cluster config: TCP-PRESS-HB on an `n`-node fabric with
/// the chosen detector. Rate and workload come from `scale` unchanged,
/// so detector comparisons at one `N` share the same offered load.
pub fn membership_config(scale: RunScale, n: usize, detector: MembershipImpl) -> ClusterConfig {
    let mut c = config_for(PressVersion::TcpHb, scale);
    c.press.nodes = n;
    c.press.membership = detector;
    c
}

/// Rack-crash run length: injection lead-in, one ring threshold per
/// crashed node (the sequential-unmasking worst case), and settle time.
/// Identical for both detectors at a given `N`, so availability and
/// throughput integrate over the same window.
fn rack_run_secs(n: usize) -> u64 {
    FAULT_AT_S + 15 * (n / 4) as u64 + 45
}

/// Rejoin run length: the 20 s crash, then time to re-enter.
const REJOIN_RUN_S: u64 = FAULT_AT_S + 80;

/// Rack crash: `N/4` adjacent machines (nodes `1..=k`) fail permanently
/// at `t = 10 s`.
fn rack_crash(config: ClusterConfig, seed: u64) -> Run {
    let n = config.press.nodes;
    let at = SimTime::from_secs(FAULT_AT_S);
    let crashes = (1..=n / 4).map(|i| FaultSpec::permanent(FaultKind::NodeCrash, NodeId(i), at));
    let end = SimTime::from_secs(rack_run_secs(n));
    Run::new(config, Campaign::new(crashes), end, seed)
}

/// Rack-crash detection: the worst live node's latency until its view
/// shrinks to the survivors, and whether every live node got there.
fn rack_detection(report: &ClusterReport, n: usize) -> (f64, bool) {
    let k = n / 4;
    let live = (0..n).filter(|i| *i == 0 || *i > k).map(NodeId);
    let end_s = rack_run_secs(n) as f64;
    views_reach(report, live, n - k, FAULT_AT_S as f64, end_s)
}

/// Gray partition: block the fabric pair (1, 2) — both stay alive — for
/// 30 s.
fn gray_partition(config: ClusterConfig, seed: u64) -> Run {
    let at = SimTime::from_secs(FAULT_AT_S);
    let gray = FaultSpec::partial_partition(NodeId(1), NodeId(2), at, SimDuration::from_secs(30));
    let end = at + SimDuration::from_secs(60);
    Run::new(config, Campaign::single(gray), end, seed)
}

/// The count of live nodes absent from at least one other live node's
/// final view (0 is the correct answer after a gray fault).
fn false_exclusions(sim: &ClusterSim) -> usize {
    let live: Vec<NodeId> = (0..sim.config().press.nodes)
        .map(NodeId)
        .filter(|&id| sim.process_running(id))
        .collect();
    live.iter()
        .filter(|&&victim| {
            live.iter()
                .any(|&o| o != victim && !sim.press(o).members().contains(&victim))
        })
        .count()
}

/// Rejoin: node 1's machine crashes at `t = 10 s` for 20 s, restarts,
/// and re-enters through the rejoin protocol.
fn rejoin(config: ClusterConfig, seed: u64) -> Run {
    let crash = FaultSpec::transient(
        FaultKind::NodeCrash,
        NodeId(1),
        SimTime::from_secs(FAULT_AT_S),
        SimDuration::from_secs(20),
    );
    let end = SimTime::from_secs(REJOIN_RUN_S);
    Run::new(config, Campaign::single(crash), end, seed)
}

/// The sweep over a node list ([`SWEEP_NODES`] for the study; tests
/// run a shortened one): both detectors per `N`, three scenario runs
/// per point, fanned across `jobs` workers. Output is in sweep order
/// and byte-identical for any `jobs`.
pub fn study_points(
    nodes: &[usize],
    scale: RunScale,
    seed: u64,
    jobs: usize,
    with_metrics: bool,
) -> Vec<MembershipPoint> {
    let tasks: Vec<(usize, MembershipImpl)> = nodes
        .iter()
        .flat_map(|&n| [(n, MembershipImpl::Ring), (n, MembershipImpl::Gossip)])
        .collect();
    run_indexed(jobs, tasks, |i, (n, detector)| {
        let s = task_seed(seed, i);
        let config = membership_config(scale, n, detector);
        let gray = gray_partition(config.clone(), s.wrapping_add(1));
        let false_exclusions = false_exclusions(&gray.observe().sim);
        let rejoined = rejoin(config.clone(), s.wrapping_add(2)).observe().report;
        let rejoin_s = rejoin_time(&rejoined, NodeId(1), n, REJOIN_RUN_S as f64);
        let rack = rack_crash(config, s).observe();
        let (detection_s, detected_all) = rack_detection(&rack.report, n);
        let a = &rack.report.availability;
        let name = detector_name(detector);
        let label = format!("membership rack-crash {name} n{n} seed{s}");
        MembershipPoint {
            nodes: n,
            detector,
            detection_s,
            detected_all,
            availability: a.availability(),
            throughput: a.successes as f64 / rack_run_secs(n) as f64,
            false_exclusions,
            rejoin_s,
            metrics: with_metrics.then(|| rack.metrics_text(&label)),
        }
    })
}

/// The smallest swept `N` at which gossip's rack-crash detection beats
/// the ring's, if any.
pub fn crossover_n(points: &[MembershipPoint]) -> Option<usize> {
    SWEEP_NODES.iter().copied().find(|&n| {
        let at = |d: MembershipImpl| {
            points
                .iter()
                .find(|p| p.nodes == n && p.detector == d)
                .map(|p| p.detection_s)
        };
        matches!(
            (at(MembershipImpl::Ring), at(MembershipImpl::Gossip)),
            (Some(r), Some(g)) if g < r
        )
    })
}

fn study_text(points: &[MembershipPoint]) -> String {
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.nodes.to_string(),
                detector_name(p.detector).to_string(),
                format!(
                    "{:.1}{}",
                    p.detection_s,
                    if p.detected_all { "" } else { "+" }
                ),
                format!("{:.2}", 100.0 * p.availability),
                format!("{:.0}", p.throughput),
                p.false_exclusions.to_string(),
                format!("{:.1}", p.rejoin_s),
            ]
        })
        .collect();
    let crossover = match crossover_n(points) {
        Some(n) => format!("gossip first beats the ring at N = {n}"),
        None => "gossip never beats the ring in this sweep".to_string(),
    };
    format!(
        "Membership detectors on TCP-PRESS-HB — heartbeat ring vs SWIM gossip\n\
         \n\
         rack crash: N/4 adjacent machines fail at t=10s (permanent); detect(s) is\n\
         the worst live node's view-convergence latency (+ = censored at run end).\n\
         gray fault: 30s partial partition between two live nodes; false-excl\n\
         counts live nodes some other live node ended up excluding.\n\
         rejoin: one machine crashes for 20s, restarts, re-enters the cluster.\n\
         \n\
         {}\n\
         \n\
         The ring unmasks one crashed predecessor per 15 s heartbeat threshold, so\n\
         rack detection grows linearly with N; gossip probes from every live node\n\
         in parallel and stays flat. Crossover: {}.\n",
        table(
            &[
                "N",
                "detector",
                "detect(s)",
                "avail(%)",
                "AT(req/s)",
                "false-excl",
                "rejoin(s)",
            ],
            &rows
        ),
        crossover
    )
}

/// The `repro -- membership` text: the crossover table for the sweep.
/// With `metrics`, the sweep's `membership.*` gauges and the node-level
/// snapshot (with the `press.gossip.*` fan-out counters) of each gossip
/// rack-crash run follow.
pub fn membership(scale: RunScale, seed: u64, jobs: usize, metrics: bool) -> String {
    let points = study_points(&SWEEP_NODES, scale, seed, jobs, metrics);
    let mut out = study_text(&points);
    if !metrics {
        return out;
    }
    let mut reg = telemetry::MetricsRegistry::new();
    for p in &points {
        let key = format!("{}.n{}", detector_name(p.detector), p.nodes);
        reg.gauge_set(&format!("membership.detection_time_s.{key}"), p.detection_s);
        reg.gauge_set(
            &format!("membership.false_exclusions.{key}"),
            p.false_exclusions as f64,
        );
        reg.gauge_set(&format!("membership.rejoin_time_s.{key}"), p.rejoin_s);
    }
    out.push('\n');
    out.push_str(&reg.text_summary(&format!("membership sweep seed{seed}")));
    for p in &points {
        if p.detector == MembershipImpl::Gossip {
            if let Some(m) = &p.metrics {
                out.push('\n');
                out.push_str(m);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(n: usize, detector: MembershipImpl) -> ClusterConfig {
        membership_config(RunScale::Small, n, detector)
    }

    fn rack(n: usize, detector: MembershipImpl, seed: u64) -> (f64, bool) {
        rack_detection(&rack_crash(config(n, detector), seed).observe().report, n)
    }

    fn gray(detector: MembershipImpl, seed: u64) -> usize {
        false_exclusions(&gray_partition(config(4, detector), seed).observe().sim)
    }

    /// One small point end-to-end: both detectors detect a rack crash at
    /// N = 4, and gossip never falsely excludes under the gray fault
    /// while the ring does.
    #[test]
    fn small_point_detects_and_gray_fault_separates_detectors() {
        let (ring_det, ring_all) = rack(4, MembershipImpl::Ring, 7);
        let (gossip_det, gossip_all) = rack(4, MembershipImpl::Gossip, 7);
        assert!(ring_all && gossip_all, "both detectors must converge");
        assert!(
            (10.0..30.0).contains(&ring_det),
            "ring ≈ one threshold: {ring_det}"
        );
        assert!(
            gossip_det < 30.0,
            "gossip single-crash detection: {gossip_det}"
        );

        let ring_false = gray(MembershipImpl::Ring, 8);
        let gossip_false = gray(MembershipImpl::Gossip, 8);
        assert!(ring_false >= 1, "the ring must false-exclude: {ring_false}");
        assert_eq!(gossip_false, 0, "ping-req must save the gray fault");
    }

    /// The sequential-unmasking scaling law: the ring's detection grows
    /// roughly linearly from N = 4 to N = 16 while gossip stays flat,
    /// and gossip wins at the larger size.
    #[test]
    fn ring_detection_grows_linearly_and_gossip_stays_flat() {
        let d = |n, det| rack(n, det, 11).0;
        let ring4 = d(4, MembershipImpl::Ring);
        let ring16 = d(16, MembershipImpl::Ring);
        let gossip16 = d(16, MembershipImpl::Gossip);
        assert!(
            ring16 >= 2.5 * ring4,
            "ring must scale with the crashed-rack size: {ring4} -> {ring16}"
        );
        assert!(
            gossip16 < ring16,
            "gossip must beat the ring at N=16: {gossip16} vs {ring16}"
        );
    }

    /// Rejoin completes under both detectors.
    #[test]
    fn rejoin_completes_under_both_detectors() {
        for det in [MembershipImpl::Ring, MembershipImpl::Gossip] {
            let report = rejoin(config(4, det), 13).observe().report;
            let r = rejoin_time(&report, NodeId(1), 4, REJOIN_RUN_S as f64);
            assert!(
                r < 30.0,
                "{} rejoin must complete promptly: {r}",
                detector_name(det)
            );
        }
    }

    /// The sweep is byte-identical across jobs (the verify gate covers
    /// the full sweep across sim-thread counts; this covers the
    /// cheapest point in-process).
    #[test]
    fn study_is_deterministic_across_jobs() {
        let a = study_points(&[4], RunScale::Small, 5, 1, false);
        let b = study_points(&[4], RunScale::Small, 5, 2, false);
        assert_eq!(a, b);
    }
}
