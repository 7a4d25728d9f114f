//! Phase 1: measuring server behaviour under single-fault loads (§5).
//!
//! Each experiment drives one PRESS version at its near-peak operating
//! point, injects one fault (plus its recovery), and produces the
//! throughput timeline, the stage markers derived from the run log, and
//! the extracted [`SevenStage`] parameters.

use mendosus::{Campaign, FaultKind, FaultSpec};
use performability::stages::{stabilization_time, SevenStage, Stage, StageMarkers};
use press::PressVersion;
use simnet::fabric::NodeId;
use simnet::{SimDuration, SimTime, TimeSeries};

use crate::cluster::{ClusterConfig, ClusterReport};
use crate::runner::{detection_time, recovery_time, run_totals, Run};

/// One single-fault experiment.
#[derive(Debug, Clone)]
pub struct FaultScenario {
    /// The fault to inject (including its target and duration).
    pub fault: FaultSpec,
    /// Total simulated run length.
    pub run: SimDuration,
}

impl FaultScenario {
    /// The paper's standard profile: steady state for 30 s, fault for
    /// 90 s, then observe recovery until 240 s.
    pub fn standard(kind: FaultKind, node: NodeId) -> Self {
        let at = SimTime::from_secs(30);
        let fault = if kind.is_one_shot() {
            FaultSpec::bad_param(kind, node, at, transport::MsgClass::FileData, 20)
        } else {
            FaultSpec::transient(kind, node, at, SimDuration::from_secs(90))
        };
        FaultScenario {
            fault,
            run: SimDuration::from_secs(240),
        }
    }

    /// Same profile on the small test-bed time scale (for tests).
    pub fn quick(kind: FaultKind, node: NodeId) -> Self {
        let at = SimTime::from_secs(10);
        let fault = if kind.is_one_shot() {
            FaultSpec::bad_param(kind, node, at, transport::MsgClass::FileData, 20)
        } else {
            FaultSpec::transient(kind, node, at, SimDuration::from_secs(30))
        };
        FaultScenario {
            fault,
            run: SimDuration::from_secs(90),
        }
    }
}

/// Everything a phase-1 run produced.
#[derive(Debug, Clone)]
pub struct FaultRunResult {
    /// The version measured.
    pub version: PressVersion,
    /// The fault injected.
    pub fault: FaultSpec,
    /// Requests-per-second timeline (1 s buckets).
    pub series: TimeSeries,
    /// Full run report.
    pub report: ClusterReport,
    /// Normal-operation throughput measured before the fault.
    pub tn: f64,
    /// Stage boundaries derived from the run log.
    pub markers: StageMarkers,
    /// The extracted 7-stage parameters.
    pub stages: SevenStage,
    /// Whether the run ended splintered or with processes down — i.e.
    /// an operator reset would be required to return to normal.
    pub needs_operator_reset: bool,
    /// The run's trace ([`crate::runner::Observed::trace`]) with the
    /// derived stage A–E spans on the [`telemetry::TID_STAGES`] lane.
    /// Present exactly when the run's `ClusterConfig::trace` was on.
    pub trace: Option<telemetry::RunTrace>,
    /// The run's root-cause attribution: every lost or deadline-missing
    /// request classified into exactly one cause, conservation-checkable
    /// against [`attr_totals`]. Present exactly when the run's
    /// `ClusterConfig::attribution` was set.
    pub attr: Option<telemetry::AttrReport>,
}

impl FaultRunResult {
    /// Mean throughput over the fault period (diagnostics).
    pub fn during_fault(&self) -> f64 {
        let t0 = self.fault.at.as_secs_f64();
        let t1 = self
            .fault
            .recovery_at()
            .unwrap_or(SimTime::MAX)
            .as_secs_f64()
            .min(self.series.points.last().map_or(t0, |p| p.0));
        self.series.mean_between(t0, t1).unwrap_or(0.0)
    }
}

/// Runs one single-fault experiment. The result carries the run's
/// trace and attribution report exactly when `config` turns them on.
pub fn run_fault_experiment(
    config: ClusterConfig,
    scenario: FaultScenario,
    seed: u64,
) -> FaultRunResult {
    let (version, nodes) = (config.version, config.press.nodes);
    let fault = scenario.fault;
    let end = SimTime::ZERO + scenario.run;
    let mut obs = Run::new(config, Campaign::single(fault.clone()), end, seed).observe();
    let report = &obs.report;
    let series = report.throughput.clone();

    let fault_s = fault.at.as_secs_f64();
    let end_s = end.as_secs_f64();
    // Normal throughput: the pre-fault steady state, skipping the first
    // couple of seconds of client ramp.
    let tn = series.mean_between(2.0, fault_s).unwrap_or(0.0).max(1.0);
    let detected = detection_time(report, fault_s);
    let recovered = recovery_time(report, &fault, end_s);

    // Stabilization boundaries from the measured curve.
    let stabilized = detected.and_then(|d| {
        let target = series
            .mean_between((recovered - 10.0).max(d), recovered)
            .unwrap_or(tn);
        stabilization_time(&series, d, target, 0.15, 3).filter(|t| *t < recovered)
    });
    let tail_target = series
        .mean_between((end_s - 15.0).max(recovered), end_s)
        .unwrap_or(tn);
    let restabilized = stabilization_time(&series, recovered, tail_target, 0.15, 3)
        .filter(|t| *t < end_s)
        .or(Some(recovered));

    let needs_operator_reset = !report.fully_recovered(nodes);
    let markers = StageMarkers {
        fault: fault_s,
        detected,
        stabilized,
        recovered,
        restabilized,
        reset: None,
        reset_done: None,
        end: end_s,
    };
    let mut stages = SevenStage::from_series(&series, &markers, tn);
    // Stage E at effectively normal throughput is not a stage at all.
    let e = stages.get(Stage::E);
    if !needs_operator_reset && e.throughput >= 0.95 * tn {
        stages.set(Stage::E, 0.0, 0.0);
    }
    let label = format!("{version} {} node{} seed{seed}", fault.kind, fault.node.0);
    let trace = obs.trace(label, stage_spans(&markers, &stages, tn));
    FaultRunResult {
        version,
        fault,
        series,
        report: obs.report,
        tn,
        markers,
        stages,
        needs_operator_reset,
        trace,
        attr: obs.sim.take_attr(),
    }
}

/// Derives the seven-stage spans (the ones this run exhibits) from the
/// markers, so the trace shows the A–G structure directly above the
/// per-node lanes. Stage F/G (operator reset) never occur inside a
/// single run.
fn stage_spans(markers: &StageMarkers, stages: &SevenStage, tn: f64) -> Vec<telemetry::TraceEvent> {
    const NAMES: [&str; 7] = [
        "stage.A", "stage.B", "stage.C", "stage.D", "stage.E", "stage.F", "stage.G",
    ];
    let to_time = |s: f64| SimTime::from_nanos((s * 1e9) as u64);
    markers
        .intervals()
        .into_iter()
        .filter(|&(_, t0, t1)| t1 > t0)
        .map(|(stage, t0, t1)| {
            let name = NAMES[Stage::ALL.iter().position(|s| *s == stage).expect("stage")];
            telemetry::TraceEvent::span(
                name,
                "stage",
                telemetry::TID_STAGES,
                to_time(t0),
                to_time(t1).saturating_since(to_time(t0)),
            )
            .arg_u64(
                "throughput_rps",
                stages.get(stage).throughput.max(0.0) as u64,
            )
            .arg_u64("tn_rps", tn.max(0.0) as u64)
        })
        .collect()
}

/// The client-pool totals an attribution report is conserved against:
/// the scored attempts/successes/failures and the run length.
pub fn attr_totals(result: &FaultRunResult) -> telemetry::RunTotals {
    run_totals(&result.report, result.markers.end)
}

/// The run's non-empty stage spans as `(name, t0, t1)` — the stage axis
/// of the attribution loss tables.
pub fn attr_stage_spans(result: &FaultRunResult) -> Vec<(String, f64, f64)> {
    result
        .markers
        .intervals()
        .into_iter()
        .filter(|&(_, t0, t1)| t1 > t0)
        .map(|(stage, t0, t1)| (stage.to_string(), t0, t1))
        .collect()
}

/// Measures the cold-start warm-up transient of a version: boots with
/// cold caches under load and reports `(duration, mean throughput)` of
/// the climb to steady state — the stage G parameters after an operator
/// reset.
pub fn measure_warmup(mut config: ClusterConfig, run: SimDuration, seed: u64) -> (f64, f64) {
    config.prewarm = false;
    let end = SimTime::ZERO + run;
    let report = Run::new(config, Campaign::none(), end, seed)
        .observe()
        .report;
    let end_s = end.as_secs_f64();
    let target = report
        .throughput
        .mean_between(end_s * 0.8, end_s)
        .unwrap_or(0.0);
    let stable = stabilization_time(&report.throughput, 0.0, target, 0.1, 5).unwrap_or(end_s);
    let mean = report.throughput.mean_between(0.0, stable).unwrap_or(0.0);
    (stable, mean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(version: PressVersion) -> ClusterConfig {
        ClusterConfig::small(version)
    }

    /// Helper running the quick profile.
    fn quick(version: PressVersion, kind: FaultKind, node: usize) -> FaultRunResult {
        run_fault_experiment(small(version), FaultScenario::quick(kind, NodeId(node)), 11)
    }

    #[test]
    fn via_detects_link_fault_fast_and_splinters() {
        let r = quick(PressVersion::Via5, FaultKind::LinkDown, 3);
        let detected = r.markers.detected.expect("VIA must detect");
        assert!(
            detected - r.markers.fault < 2.0,
            "VIA detection took {}s",
            detected - r.markers.fault
        );
        // No re-merge after a link fault: PRESS assumes nodes fail, not
        // links (§5.2).
        assert!(r.needs_operator_reset);
        // The 3-node side keeps serving during the fault.
        assert!(
            r.during_fault() > 0.4 * r.tn,
            "during fault {}",
            r.during_fault()
        );
    }

    #[test]
    fn tcp_press_stalls_through_a_link_fault_then_recovers() {
        let r = quick(PressVersion::Tcp, FaultKind::LinkDown, 3);
        // No detection: TCP keeps retrying (the 90s fault is far below
        // the ~13 minute abort).
        assert!(r.markers.detected.is_none(), "markers {:?}", r.markers);
        // Throughput collapses during the fault...
        assert!(
            r.during_fault() < 0.25 * r.tn,
            "during fault {} vs tn {}",
            r.during_fault(),
            r.tn
        );
        // ...and returns to normal after, with no splinter.
        assert!(!r.needs_operator_reset);
        let tail = r
            .series
            .mean_between(r.markers.end - 10.0, r.markers.end)
            .unwrap();
        assert!(tail > 0.8 * r.tn, "tail {} vs tn {}", tail, r.tn);
    }

    #[test]
    fn tcp_hb_detects_link_fault_at_the_heartbeat_threshold() {
        let r = quick(PressVersion::TcpHb, FaultKind::LinkDown, 3);
        let detected = r.markers.detected.expect("heartbeats must detect");
        let lag = detected - r.markers.fault;
        assert!(
            (10.0..25.0).contains(&lag),
            "heartbeat detection took {lag}s (threshold is 15s)"
        );
        assert!(
            r.needs_operator_reset,
            "HB version splinters and stays split"
        );
    }

    #[test]
    fn node_crash_recovers_fully_on_hb_and_via_but_not_tcp() {
        let hb = quick(PressVersion::TcpHb, FaultKind::NodeCrash, 3);
        assert!(!hb.needs_operator_reset, "HB version must reintegrate");
        let via = quick(PressVersion::Via3, FaultKind::NodeCrash, 3);
        assert!(!via.needs_operator_reset, "VIA version must reintegrate");
        let tcp = quick(PressVersion::Tcp, FaultKind::NodeCrash, 3);
        assert!(
            tcp.needs_operator_reset,
            "TCP-PRESS rejoin must be disregarded (members {:?})",
            tcp.report.final_members
        );
    }

    #[test]
    fn warmup_measures_a_cold_start_transient() {
        let (dur, mean) = measure_warmup(small(PressVersion::Via0), SimDuration::from_secs(60), 5);
        assert!(dur > 0.0 && dur <= 60.0);
        assert!(mean >= 0.0);
    }
}
