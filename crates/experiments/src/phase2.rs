//! Phase 2: from phase-1 measurements to performability (§6).
//!
//! A [`VersionProfile`] holds, for one PRESS version, the measured
//! 7-stage behaviour under every fault class of Table 3 plus the
//! normal-operation throughput and the cold-start warm-up transient.
//! [`phase1_grid`] runs the phase-1 experiments behind it, one per
//! [`FAULT_CLASSES`] row, and [`VersionProfile::from_runs`] assembles
//! what they measured.
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
    /// The run's normal-operation throughput, measured before the fault.
    pub tn: f64,
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

impl VersionProfile {
    /// Assembles a profile from measured runs, one per fault class: Tn
    /// is the mean of the runs' normal-operation throughputs, summed in
    /// `runs` order.
    pub fn from_runs(
        version: PressVersion,
        runs: Vec<(ModelFault, MeasuredFault)>,
        warmup: (f64, f64),
    ) -> Self {
        let tn = runs.iter().map(|(_, m)| m.tn).sum::<f64>() / runs.len() as f64;
        VersionProfile {
            version,
            tn,
            faults: runs.into_iter().collect(),
            warmup,
        }
    }
}

/// Table 3's eleven measured base classes, in Table 3 order, each with
/// the Table 2 fault phase 1 injects to measure it. The §6.3
/// sensitivity classes borrow a measured behaviour
/// ([`ModelFault::behaves_like`]) and the gray kinds
/// ([`FaultKind::GRAY`]) have no closed-form class, so neither appears.
pub const FAULT_CLASSES: [(ModelFault, FaultKind); 11] = [
    (ModelFault::LinkDown, FaultKind::LinkDown),
    (ModelFault::SwitchDown, FaultKind::SwitchDown),
    (ModelFault::NodeCrash, FaultKind::NodeCrash),
    (ModelFault::NodeFreeze, FaultKind::NodeHang),
    (ModelFault::MemPin, FaultKind::MemPinFail),
    (ModelFault::MemAlloc, FaultKind::KernelAllocFail),
    (ModelFault::ProcessCrash, FaultKind::AppCrash),
    (ModelFault::ProcessHang, FaultKind::AppHang),
    (ModelFault::BadNull, FaultKind::BadParamNull),
    (ModelFault::BadOffPtr, FaultKind::BadParamOffPtr),
    (ModelFault::BadOffSize, FaultKind::BadParamOffSize),
];

/// The model fault class a phase-1 [`FaultKind`] measures: its
/// [`FAULT_CLASSES`] row.
///
/// # Panics
///
/// Panics for the gray extensions ([`FaultKind::GRAY`]): the
/// closed-form single-fault model has no availability class for a
/// component that never fail-stops — gray faults are scored by the
/// Monte-Carlo estimator instead.
pub fn model_for_kind(kind: FaultKind) -> ModelFault {
    FAULT_CLASSES
        .iter()
        .find(|&&(_, k)| k == kind)
        .map(|&(class, _)| class)
        .unwrap_or_else(|| {
            panic!("{kind} is gray: the closed-form model has no class for it (use montecarlo)")
        })
}

/// The single-fault scenario for `kind` at `scale`, injected on node 3:
/// the standard profile at paper scale, the quick one at small scale.
/// Bad parameters corrupt a file-data send on node 3 (a service node
/// for ~a quarter of the documents).
pub(crate) fn scenario_at(kind: FaultKind, scale: RunScale) -> FaultScenario {
    match scale {
        RunScale::Paper => FaultScenario::standard(kind, NodeId(3)),
        RunScale::Small => FaultScenario::quick(kind, NodeId(3)),
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

/// What phase 1 measured for one version: one kept value per requested
/// class, in the requested order, and the cold-start warm-up transient
/// when it was asked for.
#[derive(Debug)]
pub struct VersionRuns<T> {
    /// The version.
    pub version: PressVersion,
    /// What the caller kept of each class's run.
    pub runs: Vec<(ModelFault, T)>,
    /// The warm-up `(duration s, mean throughput)`.
    pub warmup: Option<(f64, f64)>,
}

/// Runs phase 1 over `versions` × `classes` (rows of [`FAULT_CLASSES`],
/// each kind injected on node 3), plus one cold-start warm-up run per
/// version when `warmup` is set. Each fault run is mapped through
/// `keep` inside its worker, so only what the caller keeps outlives the
/// simulation. The runs fan out across `jobs` workers and land in task
/// order, so results are bit-identical for any `jobs`.
pub fn phase1_grid<T, F>(
    versions: &[PressVersion],
    classes: &[(ModelFault, FaultKind)],
    warmup: bool,
    scale: RunScale,
    seed: u64,
    jobs: usize,
    keep: F,
) -> Vec<VersionRuns<T>>
where
    T: Send,
    F: Fn(&FaultRunResult) -> T + Sync,
{
    enum Run<T> {
        Fault(ModelFault, T),
        Warmup((f64, f64)),
    }
    let warmup_run = SimDuration::from_secs(match scale {
        RunScale::Paper => 180,
        RunScale::Small => 60,
    });
    let mut tasks = Vec::with_capacity(versions.len() * (classes.len() + 1));
    for (i, &version) in versions.iter().enumerate() {
        tasks.extend(classes.iter().map(|&class| (i, version, Some(class))));
        if warmup {
            tasks.push((i, version, None));
        }
    }
    let outs = runner::run_indexed(jobs, tasks, |_, (i, version, class)| {
        let config = config_for(version, scale);
        let run = match class {
            Some((class, kind)) => {
                let r = run_fault_experiment(config, scenario_at(kind, scale), seed);
                Run::Fault(class, keep(&r))
            }
            None => Run::Warmup(measure_warmup(config, warmup_run, seed)),
        };
        (i, run)
    });
    let mut rows: Vec<VersionRuns<T>> = versions
        .iter()
        .map(|&version| VersionRuns {
            version,
            runs: Vec::with_capacity(classes.len()),
            warmup: None,
        })
        .collect();
    for (i, run) in outs {
        match run {
            Run::Fault(class, kept) => rows[i].runs.push((class, kept)),
            Run::Warmup(w) => rows[i].warmup = Some(w),
        }
    }
    rows
}

/// Runs every phase-1 experiment for `version` and assembles its
/// profile. Expensive at [`RunScale::Paper`] (tens of millions of
/// events); prefer release builds.
pub fn version_profile(version: PressVersion, scale: RunScale, seed: u64) -> VersionProfile {
    version_profiles(&[version], scale, seed, 1)
        .pop()
        .expect("one version in, one profile out")
}

/// Builds the profiles for several versions at once: the
/// [`phase1_grid`] of every [`FAULT_CLASSES`] class plus the warm-up,
/// fanned across `jobs` workers with bit-identical results for any
/// `jobs`.
pub fn version_profiles(
    versions: &[PressVersion],
    scale: RunScale,
    seed: u64,
    jobs: usize,
) -> Vec<VersionProfile> {
    phase1_grid(
        versions,
        &FAULT_CLASSES,
        true,
        scale,
        seed,
        jobs,
        measured_from_run,
    )
    .into_iter()
    .map(|row| {
        let warmup = row.warmup.expect("the grid ran the warm-up");
        VersionProfile::from_runs(row.version, row.runs, warmup)
    })
    .collect()
}

/// Converts one phase-1 run into the profile entry.
pub fn measured_from_run(r: &FaultRunResult) -> MeasuredFault {
    let e = r.stages.get(Stage::E);
    MeasuredFault {
        stages: r.stages.clone(),
        needs_reset: r.needs_operator_reset,
        residual_throughput: if e.duration > 0.0 { e.throughput } else { r.tn },
        tn: r.tn,
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
    fn fault_classes_map_table2_onto_table3_and_back() {
        let table3: Vec<ModelFault> = paper_fault_load(DAY).iter().map(|e| e.fault).collect();
        let classes: Vec<ModelFault> = FAULT_CLASSES.iter().map(|&(class, _)| class).collect();
        assert_eq!(
            classes, table3,
            "one row per Table 3 class, in Table 3 order"
        );
        for kind in FaultKind::ALL {
            let class = model_for_kind(kind);
            assert!(
                FAULT_CLASSES.contains(&(class, kind)),
                "{kind} -> {class:?}"
            );
        }
        let mut kinds: Vec<FaultKind> = FAULT_CLASSES.iter().map(|&(_, kind)| kind).collect();
        kinds.sort();
        let mut table2 = FaultKind::ALL.to_vec();
        table2.sort();
        assert_eq!(
            kinds, table2,
            "every Table 2 kind measures a distinct class"
        );
        for kind in FaultKind::GRAY {
            let caught = std::panic::catch_unwind(|| model_for_kind(kind));
            assert!(caught.is_err(), "gray {kind} must have no model class");
        }
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
