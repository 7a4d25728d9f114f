//! Running independent simulations on worker threads must be invisible
//! in every output: for a fixed seed, each figure's rendered text is
//! byte-identical whatever the `--jobs` count.

use experiments::figures::timeline_results;
use experiments::phase2::RunScale;

/// Runs `f` with one job and with two, and asserts both results match.
fn sweep(label: &str, f: &dyn Fn(usize) -> String) {
    let base = f(1);
    assert!(!base.is_empty());
    assert_eq!(base, f(2), "{label} diverged at jobs=2");
}

/// A timeline figure's text at small scale, seed 2003.
fn timeline(target: &str, jobs: usize) -> String {
    timeline_results(target, RunScale::Small, 2003, jobs, false, false)
        .expect("a timeline figure")
        .0
}

#[test]
fn fig3_identical_across_jobs() {
    sweep("fig3", &|jobs| timeline("fig3", jobs));
}

#[test]
fn remaining_timeline_figures_identical_across_jobs() {
    for label in ["fig2", "fig4", "fig5"] {
        sweep(label, &|jobs| timeline(label, jobs));
    }
}

/// A reduced Monte-Carlo text render for the jobs sweep: the full
/// showcase plus cross-check is verify.sh territory; two replications
/// exercise the same code paths (generated multi-fault campaigns,
/// correlated expansion, gray faults concurrent with fail-stop ones)
/// at a fraction of the wall time.
fn mc_text(setup: &experiments::MonteCarloSetup, jobs: usize) -> String {
    let run = experiments::run_montecarlo(setup, RunScale::Small, 2003, jobs);
    // Fold every numeric output into the parity fingerprint: the
    // estimate, each replication's measurements, and the campaigns.
    let mut s = format!("{:?} {:?}", run.result, run.measure_from);
    for rep in &run.reps {
        s.push_str(&format!(
            "\n{:x} {:?} {:?} {:?}",
            rep.seed, rep.overlap, rep.campaign, rep.series.points
        ));
    }
    s
}

#[test]
fn gossip_membership_identical_across_jobs() {
    // One N=4 column of the detector sweep — both detectors, all three
    // scenarios (rack crash, gray partition, rejoin). The gossip runs
    // carry the epidemic detector's randomized probe order, seeded per
    // node, so the full Debug render of every point must match the
    // single-job baseline bit for bit.
    sweep("membership-n4", &|jobs| {
        format!(
            "{:?}",
            experiments::membership::study_points(&[4], RunScale::Small, 2003, jobs, false)
        )
    });
}

#[test]
fn montecarlo_multi_fault_identical_across_jobs() {
    use press::PressVersion;
    let mut setup = experiments::MonteCarloSetup::showcase(PressVersion::TcpHb, RunScale::Small);
    setup.replications = 2;
    sweep("montecarlo-showcase", &|jobs| mc_text(&setup, jobs));
}

#[test]
fn montecarlo_gray_campaign_identical_across_jobs() {
    use mendosus::{ArrivalClass, FaultKind};
    use press::PressVersion;
    use simnet::SimDuration;
    // A gray-only universe: silent degradation, throttling, and partial
    // partitions with no fail-stop signal at all.
    let mut setup = experiments::MonteCarloSetup::showcase(PressVersion::Via3, RunScale::Small);
    setup.classes = vec![
        ArrivalClass::new(
            FaultKind::LinkDegraded,
            SimDuration::from_secs(60),
            SimDuration::from_secs(40),
        ),
        ArrivalClass::new(
            FaultKind::CpuThrottle,
            SimDuration::from_secs(80),
            SimDuration::from_secs(35),
        ),
        ArrivalClass::new(
            FaultKind::PartialPartition,
            SimDuration::from_secs(100),
            SimDuration::from_secs(30),
        ),
    ];
    setup.rules.clear();
    setup.replications = 2;
    sweep("montecarlo-gray", &|jobs| mc_text(&setup, jobs));
}

#[test]
fn profile_sweep_identical_across_jobs() {
    use experiments::figures::{build_profiles, crossover, fig6};
    let base = build_profiles(RunScale::Small, 2003, 1);
    let other = build_profiles(RunScale::Small, 2003, 2);
    assert_eq!(fig6(&base), fig6(&other));
    assert_eq!(crossover(&base), crossover(&other));
}
