//! Phase 2: from phase-1 measurements to performability (§6).
//!
//! A [`VersionProfile`] holds, for one PRESS version, the measured
//! 7-stage behaviour under every fault class of Table 3 plus the
//! normal-operation throughput and the cold-start warm-up transient.
//! [`behaviors_for_load`] then instantiates the profile against any
//! fault load (stage C stretched to each class's MTTR, operator-reset
//! stages appended where phase 1 showed the cluster does not heal), and
//! [`evaluate`] runs the §2.2 equations.

use std::collections::BTreeMap;

use mendosus::FaultKind;
use performability::fault_load::{FaultEntry, ModelFault};
use performability::metric::{performability, IDEAL_AVAILABILITY};
use performability::model::{average_availability, unavailability_breakdown, FaultBehavior};
use performability::stages::{SevenStage, Stage};
use press::PressVersion;
use simnet::fabric::NodeId;
use simnet::SimDuration;

use crate::cluster::ClusterConfig;
use crate::phase1::{measure_warmup, run_fault_experiment, FaultRunResult, FaultScenario};
use crate::runner;

/// How long the operator takes to notice a splintered cluster and start
/// a reset (environmental parameter of the model; consistent with the
/// 3-minute repair times of Table 3).
pub const OPERATOR_RESPONSE_SECS: f64 = 180.0;

/// How long the reset itself takes (all processes restarted).
pub const RESET_SECS: f64 = 30.0;

/// Experiment fidelity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunScale {
    /// The paper's test-bed dimensions (minutes of simulated time per
    /// fault; use release builds).
    Paper,
    /// A shrunk test-bed for fast tests.
    Small,
}

/// One fault class's measured behaviour, with its healing outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasuredFault {
    /// Stage parameters extracted from the run (stage C at the injected
    /// duration; rescaled per fault load later).
    pub stages: SevenStage,
    /// Whether the run ended needing an operator reset.
    pub needs_reset: bool,
    /// Stable post-recovery throughput (stage E level) if degraded.
    pub residual_throughput: f64,
}

/// Everything phase 2 needs to know about one PRESS version.
#[derive(Debug, Clone, PartialEq)]
pub struct VersionProfile {
    /// The version.
    pub version: PressVersion,
    /// Normal-operation throughput.
    pub tn: f64,
    /// Measured behaviour per fault class.
    pub faults: BTreeMap<ModelFault, MeasuredFault>,
    /// Cold-start warm-up `(duration s, mean throughput)` — stage G
    /// after an operator reset.
    pub warmup: (f64, f64),
}

/// The phase-1 experiment that measures `fault` for the model.
///
/// Conditions target node 3; bad parameters corrupt a file-data send on
/// node 3 (a service node for ~a quarter of the documents).
pub fn scenario_for(fault: ModelFault, scale: RunScale) -> Option<FaultScenario> {
    let kind = match fault {
        ModelFault::LinkDown => FaultKind::LinkDown,
        ModelFault::SwitchDown => FaultKind::SwitchDown,
        ModelFault::NodeCrash => FaultKind::NodeCrash,
        ModelFault::NodeFreeze => FaultKind::NodeHang,
        ModelFault::MemPin => FaultKind::MemPinFail,
        ModelFault::MemAlloc => FaultKind::KernelAllocFail,
        ModelFault::ProcessCrash => FaultKind::AppCrash,
        ModelFault::ProcessHang => FaultKind::AppHang,
        ModelFault::BadNull => FaultKind::BadParamNull,
        ModelFault::BadOffPtr => FaultKind::BadParamOffPtr,
        ModelFault::BadOffSize => FaultKind::BadParamOffSize,
        // Sensitivity classes reuse measured behaviours.
        ModelFault::ViaPacketDrop | ModelFault::ViaExtraBug | ModelFault::ViaSystemCrash => {
            return None
        }
    };
    Some(scenario_at(kind, scale))
}

/// The single-fault scenario for `kind` at `scale`, injected on node 3:
/// the standard profile at paper scale, the quick one at small scale.
pub(crate) fn scenario_at(kind: FaultKind, scale: RunScale) -> FaultScenario {
    match scale {
        RunScale::Paper => FaultScenario::standard(kind, NodeId(3)),
        RunScale::Small => FaultScenario::quick(kind, NodeId(3)),
    }
}

/// The model fault class a phase-1 [`FaultKind`] measures — the
/// inverse of [`scenario_for`]'s mapping (total over Table 2: every
/// catalogued kind lands in one of Table 3's base classes).
///
/// # Panics
///
/// Panics for the gray extensions ([`FaultKind::GRAY`]): the
/// closed-form single-fault model has no availability class for a
/// component that never fail-stops — gray faults are scored by the
/// Monte-Carlo estimator instead.
pub fn model_for_kind(kind: FaultKind) -> ModelFault {
    match kind {
        FaultKind::LinkDown => ModelFault::LinkDown,
        FaultKind::SwitchDown => ModelFault::SwitchDown,
        FaultKind::NodeCrash => ModelFault::NodeCrash,
        FaultKind::NodeHang => ModelFault::NodeFreeze,
        FaultKind::MemPinFail => ModelFault::MemPin,
        FaultKind::KernelAllocFail => ModelFault::MemAlloc,
        FaultKind::AppCrash => ModelFault::ProcessCrash,
        FaultKind::AppHang => ModelFault::ProcessHang,
        FaultKind::BadParamNull => ModelFault::BadNull,
        FaultKind::BadParamOffPtr => ModelFault::BadOffPtr,
        FaultKind::BadParamOffSize => ModelFault::BadOffSize,
        FaultKind::LinkDegraded | FaultKind::CpuThrottle | FaultKind::PartialPartition => {
            panic!("{kind} is gray: the closed-form model has no class for it (use montecarlo)")
        }
    }
}

/// The fault-experiment cluster for `version` at `scale`: the paper's
/// test-bed just under peak, or its shrunk small-scale counterpart.
pub(crate) fn config_for(version: PressVersion, scale: RunScale) -> ClusterConfig {
    match scale {
        RunScale::Paper => ClusterConfig::fault_experiment(version),
        RunScale::Small => ClusterConfig::small(version),
    }
}

/// The eleven fault classes phase 1 measures directly (Table 3's base
/// classes), in profile-assembly order.
pub const MEASURED_FAULTS: [ModelFault; 11] = [
    ModelFault::LinkDown,
    ModelFault::SwitchDown,
    ModelFault::NodeCrash,
    ModelFault::NodeFreeze,
    ModelFault::MemPin,
    ModelFault::MemAlloc,
    ModelFault::ProcessCrash,
    ModelFault::ProcessHang,
    ModelFault::BadNull,
    ModelFault::BadOffPtr,
    ModelFault::BadOffSize,
];

/// Output of one unit of profile-building work (one simulation).
enum ProfileRun {
    Fault {
        fault: ModelFault,
        tn: f64,
        measured: MeasuredFault,
    },
    Warmup((f64, f64)),
}

/// Runs every phase-1 experiment for `version` and assembles its
/// profile. Expensive at [`RunScale::Paper`] (tens of millions of
/// events); prefer release builds.
pub fn version_profile(version: PressVersion, scale: RunScale, seed: u64) -> VersionProfile {
    version_profiles(&[version], scale, seed, 1)
        .pop()
        .expect("one version in, one profile out")
}

/// Builds the profiles for several versions at once, fanning the
/// underlying simulations (11 fault runs + 1 warm-up per version, all
/// taking explicit seeds and sharing nothing) across `jobs` workers.
///
/// Results are **bit-identical** to the sequential path for any `jobs`:
/// runs land in task-id order, so even the floating-point accumulation
/// of the mean throughput happens in the same order.
pub fn version_profiles(
    versions: &[PressVersion],
    scale: RunScale,
    seed: u64,
    jobs: usize,
) -> Vec<VersionProfile> {
    let mut tasks = Vec::with_capacity(versions.len() * (MEASURED_FAULTS.len() + 1));
    for v in versions {
        for fault in MEASURED_FAULTS {
            tasks.push((*v, Some(fault)));
        }
        tasks.push((*v, None));
    }
    let runs = runner::run_indexed(jobs, tasks, |_i, (version, fault)| match fault {
        Some(fault) => {
            let scenario = scenario_for(fault, scale).expect("base classes have scenarios");
            let r = run_fault_experiment(config_for(version, scale), scenario, seed);
            ProfileRun::Fault {
                fault,
                tn: r.tn,
                measured: measured_from_run(&r),
            }
        }
        None => {
            let warmup_run = match scale {
                RunScale::Paper => SimDuration::from_secs(180),
                RunScale::Small => SimDuration::from_secs(60),
            };
            ProfileRun::Warmup(measure_warmup(config_for(version, scale), warmup_run, seed))
        }
    });

    let mut runs = runs.into_iter();
    versions
        .iter()
        .map(|version| {
            let mut faults = BTreeMap::new();
            let mut tn_sum = 0.0;
            let mut tn_n = 0u32;
            for _ in 0..MEASURED_FAULTS.len() {
                match runs.next().expect("one run per measured fault") {
                    ProfileRun::Fault {
                        fault,
                        tn,
                        measured,
                    } => {
                        tn_sum += tn;
                        tn_n += 1;
                        faults.insert(fault, measured);
                    }
                    ProfileRun::Warmup(_) => unreachable!("warm-up is the last task per version"),
                }
            }
            let warmup = match runs.next().expect("one warm-up per version") {
                ProfileRun::Warmup(w) => w,
                ProfileRun::Fault { .. } => unreachable!("fault tasks precede the warm-up"),
            };
            VersionProfile {
                version: *version,
                tn: tn_sum / f64::from(tn_n),
                faults,
                warmup,
            }
        })
        .collect()
}

/// Runs every measured phase-1 experiment for `versions` and returns
/// the **full** results, version-major in [`MEASURED_FAULTS`] order —
/// the stage-segmentation audit needs the raw timelines and markers,
/// which [`version_profiles`] folds away. Fanned across `jobs` workers
/// with bit-identical results for any job count.
pub fn profile_fault_runs(
    versions: &[PressVersion],
    scale: RunScale,
    seed: u64,
    jobs: usize,
) -> Vec<FaultRunResult> {
    let mut tasks = Vec::with_capacity(versions.len() * MEASURED_FAULTS.len());
    for v in versions {
        for fault in MEASURED_FAULTS {
            tasks.push((*v, fault));
        }
    }
    runner::run_indexed(jobs, tasks, |_i, (version, fault)| {
        let scenario = scenario_for(fault, scale).expect("base classes have scenarios");
        run_fault_experiment(config_for(version, scale), scenario, seed)
    })
}

/// Converts one phase-1 run into the profile entry.
pub fn measured_from_run(r: &FaultRunResult) -> MeasuredFault {
    let e = r.stages.get(Stage::E);
    MeasuredFault {
        stages: r.stages.clone(),
        needs_reset: r.needs_operator_reset,
        residual_throughput: if e.duration > 0.0 { e.throughput } else { r.tn },
    }
}

/// Instantiates the profile against a fault load: every entry borrows
/// the measured behaviour of `entry.fault.behaves_like()`, with stage C
/// stretched to the entry's MTTR and — where phase 1 showed the cluster
/// stays degraded — operator-reset stages E/F/G appended.
pub fn behaviors_for_load(profile: &VersionProfile, load: &[FaultEntry]) -> Vec<FaultBehavior> {
    load.iter()
        .map(|entry| {
            let measured = profile
                .faults
                .get(&entry.fault.behaves_like())
                .unwrap_or_else(|| panic!("profile lacks {:?}", entry.fault.behaves_like()));
            let mut stages = measured.stages.scaled_to_repair(entry.mttr);
            if measured.needs_reset {
                stages.set(
                    Stage::E,
                    OPERATOR_RESPONSE_SECS,
                    measured.residual_throughput.min(profile.tn),
                );
                stages.set(Stage::F, RESET_SECS, 0.0);
                let (g_dur, g_tput) = profile.warmup;
                stages.set(Stage::G, g_dur, g_tput.min(profile.tn));
            } else {
                // Post-recovery normal operation is not a degraded stage.
                let e = stages.get(Stage::E);
                if e.throughput >= 0.95 * profile.tn {
                    stages.set(Stage::E, 0.0, 0.0);
                }
            }
            FaultBehavior {
                entry: *entry,
                stages,
            }
        })
        .collect()
}

/// One version's phase-2 outcome under a fault load.
#[derive(Debug, Clone)]
pub struct Phase2Result {
    /// The version.
    pub version: PressVersion,
    /// Normal throughput.
    pub tn: f64,
    /// Average availability (AA).
    pub availability: f64,
    /// 1 − AA.
    pub unavailability: f64,
    /// The performability metric `P`.
    pub performability: f64,
    /// Per-fault-class unavailability contributions.
    pub breakdown: Vec<(FaultEntry, f64)>,
}

/// Runs the §2.2 model for one profile and fault load.
pub fn evaluate(profile: &VersionProfile, load: &[FaultEntry]) -> Phase2Result {
    let behaviors = behaviors_for_load(profile, load);
    let aa = average_availability(profile.tn, &behaviors);
    Phase2Result {
        version: profile.version,
        tn: profile.tn,
        availability: aa,
        unavailability: 1.0 - aa,
        performability: performability(profile.tn, aa, IDEAL_AVAILABILITY),
        breakdown: unavailability_breakdown(profile.tn, &behaviors),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use performability::fault_load::{paper_fault_load, DAY, MONTH};

    fn quick_profile(version: PressVersion) -> VersionProfile {
        version_profile(version, RunScale::Small, 17)
    }

    #[test]
    fn profiles_build_and_evaluate_for_tcp_and_via() {
        for version in [PressVersion::TcpHb, PressVersion::Via5] {
            let profile = quick_profile(version);
            assert!(profile.tn > 500.0, "{version}: tn {}", profile.tn);
            assert_eq!(profile.faults.len(), 11);
            let result = evaluate(&profile, &paper_fault_load(DAY));
            assert!(
                result.availability > 0.9 && result.availability < 1.0,
                "{version}: availability {}",
                result.availability
            );
            assert!(result.performability > 0.0);
            // Breakdown sums to total unavailability.
            let sum: f64 = result.breakdown.iter().map(|(_, u)| u).sum();
            assert!((sum - result.unavailability).abs() < 1e-9);
        }
    }

    #[test]
    fn lower_app_fault_rate_improves_availability() {
        let profile = quick_profile(PressVersion::Via0);
        let daily = evaluate(&profile, &paper_fault_load(DAY));
        let monthly = evaluate(&profile, &paper_fault_load(MONTH));
        assert!(
            monthly.availability > daily.availability,
            "monthly {} daily {}",
            monthly.availability,
            daily.availability
        );
        assert!(monthly.performability > daily.performability);
    }

    #[test]
    fn sensitivity_classes_reuse_measured_behaviour() {
        let profile = quick_profile(PressVersion::Via3);
        let mut load = paper_fault_load(MONTH);
        load.push(FaultEntry {
            fault: ModelFault::ViaPacketDrop,
            mttf: DAY,
            mttr: 180.0,
            instances: 4,
        });
        let behaviors = behaviors_for_load(&profile, &load);
        assert_eq!(behaviors.len(), 12);
        let with = evaluate(&profile, &load);
        let without = evaluate(&profile, &paper_fault_load(MONTH));
        assert!(with.availability < without.availability);
    }
}
