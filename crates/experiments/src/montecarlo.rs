//! Monte-Carlo performability estimation over generated fault
//! timelines (the `repro -- montecarlo` target).
//!
//! The closed-form phase-2 model assumes faults arrive one at a time
//! and each plays out its seven-stage response in isolation. The fault
//! universe this repository can now inject — correlated groups
//! ([`mendosus::CorrelationRule`]), gray faults ([`FaultKind::GRAY`]),
//! and overlapping Poisson arrivals ([`mendosus::generate_trace`]) —
//! violates both assumptions, so this module measures instead of
//! deriving: it replays many independently-seeded fault timelines
//! against the live cluster simulation and reports mean throughput and
//! availability with confidence intervals
//! ([`performability::MonteCarloResult`]).
//!
//! Every replication takes an explicit seed derived from the target
//! seed, so the whole estimate is byte-identical across reruns and
//! `--jobs`.
//!
//! The module also carries the sanity bridge between the two
//! methodologies: [`closed_form_crosscheck`] runs a fault load the
//! closed-form model *can* express (a single fail-stop class, no
//! correlation rules) through both paths and checks that the
//! Monte-Carlo availability brackets the analytic one.

use mendosus::{generate_trace, ArrivalClass, Campaign, CorrelationRule, FaultInterval, FaultKind};
use performability::{FaultEntry, MonteCarloResult, Replication};
use press::PressVersion;
use simnet::stats::FitSegment;
use simnet::{SimDuration, SimTime, TimeSeries};

use crate::phase2::{
    config_for, evaluate, measured_from_run, model_for_kind, phase1_grid, Phase2Result, RunScale,
    VersionProfile,
};
use crate::runner::{run_indexed, Run};

/// One Monte-Carlo experiment definition: which version to drive, what
/// fault universe to sample, and how many timelines to average.
#[derive(Debug, Clone)]
pub struct MonteCarloSetup {
    /// The PRESS version under test.
    pub version: PressVersion,
    /// Poisson arrival classes sampled per replication.
    pub classes: Vec<ArrivalClass>,
    /// Correlation rules expanded into each generated trace.
    pub rules: Vec<CorrelationRule>,
    /// Number of independently-seeded timelines.
    pub replications: usize,
    /// Settle time before arrivals start and measurement begins (the
    /// cluster boots and reaches steady state first).
    pub settle: SimDuration,
    /// Arrival + measurement window length; the run ends at
    /// `settle + window`.
    pub window: SimDuration,
}

impl MonteCarloSetup {
    /// The showcase fault universe: a fail-stop class (node crash), a
    /// correlated root (switch down, which takes every attached link
    /// with it), and all three gray classes, at rates high enough that
    /// timelines routinely hold several concurrent faults.
    pub fn showcase(version: PressVersion, scale: RunScale) -> Self {
        let (settle, window) = match scale {
            RunScale::Paper => (SimDuration::from_secs(30), SimDuration::from_secs(300)),
            RunScale::Small => (SimDuration::from_secs(20), SimDuration::from_secs(160)),
        };
        MonteCarloSetup {
            version,
            classes: vec![
                ArrivalClass::new(
                    FaultKind::NodeCrash,
                    SimDuration::from_secs(80),
                    SimDuration::from_secs(25),
                ),
                ArrivalClass::new(
                    FaultKind::SwitchDown,
                    SimDuration::from_secs(90),
                    SimDuration::from_secs(15),
                ),
                ArrivalClass::new(
                    FaultKind::LinkDegraded,
                    SimDuration::from_secs(70),
                    SimDuration::from_secs(40),
                ),
                ArrivalClass::new(
                    FaultKind::CpuThrottle,
                    SimDuration::from_secs(90),
                    SimDuration::from_secs(35),
                ),
                ArrivalClass::new(
                    FaultKind::PartialPartition,
                    SimDuration::from_secs(130),
                    SimDuration::from_secs(30),
                ),
            ],
            rules: vec![CorrelationRule::switch_takes_links(4)],
            replications: 5,
            settle,
            window,
        }
    }

    /// A fault load the closed-form model can also express: one
    /// fail-stop class, no correlation rules. Used by
    /// [`closed_form_crosscheck`].
    pub fn single_fault(version: PressVersion, scale: RunScale) -> Self {
        let (settle, window) = match scale {
            RunScale::Paper => (SimDuration::from_secs(30), SimDuration::from_secs(420)),
            RunScale::Small => (SimDuration::from_secs(20), SimDuration::from_secs(280)),
        };
        MonteCarloSetup {
            version,
            classes: vec![ArrivalClass::new(
                FaultKind::NodeCrash,
                SimDuration::from_secs(120),
                SimDuration::from_secs(30),
            )],
            rules: Vec::new(),
            replications: 5,
            settle,
            window,
        }
    }
}

/// Concurrency statistics of one replication's fault timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverlapProfile {
    /// Total faults active at some point in the run (after rule
    /// expansion, clipped to the horizon).
    pub faults: usize,
    /// How many of those were added by correlation-rule expansion.
    pub correlated: usize,
    /// Maximum number of concurrently active faults.
    pub max_concurrent: usize,
    /// Seconds during which two or more faults were active at once.
    pub multi_fault_secs: f64,
    /// Seconds during which at least one gray fault and at least one
    /// fail-stop fault were active at the same time — the regime
    /// neither the closed-form model nor the fail-stop-only injector
    /// could produce.
    pub gray_failstop_secs: f64,
}

/// Sweeps a timeline's active intervals and tallies its concurrency
/// profile. `correlated` is how many of the intervals came from rule
/// expansion rather than the arrival draw.
pub fn overlap_profile(intervals: &[FaultInterval], correlated: usize) -> OverlapProfile {
    let mut bounds: Vec<SimTime> = intervals.iter().flat_map(|iv| [iv.start, iv.end]).collect();
    bounds.sort_unstable();
    bounds.dedup();
    let mut max_concurrent = 0usize;
    let mut multi_fault_secs = 0.0;
    let mut gray_failstop_secs = 0.0;
    for w in bounds.windows(2) {
        let (t0, t1) = (w[0], w[1]);
        let mut gray = 0usize;
        let mut fail_stop = 0usize;
        for iv in intervals {
            // Active over the whole open segment [t0, t1): interval
            // boundaries only occur at segment boundaries.
            if iv.start <= t0 && iv.end >= t1 {
                if iv.spec.kind.is_gray() {
                    gray += 1;
                } else {
                    fail_stop += 1;
                }
            }
        }
        let active = gray + fail_stop;
        max_concurrent = max_concurrent.max(active);
        let secs = t1.as_secs_f64() - t0.as_secs_f64();
        if active >= 2 {
            multi_fault_secs += secs;
        }
        if gray >= 1 && fail_stop >= 1 {
            gray_failstop_secs += secs;
        }
    }
    OverlapProfile {
        faults: intervals.len(),
        correlated,
        max_concurrent,
        multi_fault_secs,
        gray_failstop_secs,
    }
}

/// One replication's full record: the generated campaign, its
/// concurrency profile, and the measured timeline (plus a blind
/// piecewise-constant fit for the report overlay).
#[derive(Debug, Clone)]
pub struct McReplication {
    /// Seed that generated the trace and drove the simulation.
    pub seed: u64,
    /// The expanded campaign that ran.
    pub campaign: Campaign,
    /// Active windows of every fault, clipped to the run horizon.
    pub intervals: Vec<FaultInterval>,
    /// Concurrency statistics of the timeline.
    pub overlap: OverlapProfile,
    /// Measured throughput, 1 s buckets over the whole run.
    pub series: TimeSeries,
    /// Fraction of requests served successfully over the whole run.
    pub availability: f64,
    /// Blind change-point fit of the throughput series — the audit
    /// methodology generalized from one stage ladder to arbitrary
    /// fault timelines.
    pub fit: Vec<FitSegment>,
}

impl McReplication {
    /// How many of the blind fit's interior change points land within
    /// `slack_secs` of some fault injection or recovery, as
    /// `(matched, total)`. With overlapping faults there is no unique
    /// ground-truth segmentation, so this is reported as a rate rather
    /// than gated pass/fail like the single-fault audit.
    pub fn change_points_near_fault_edges(&self, slack_secs: f64) -> (usize, usize) {
        let edges: Vec<f64> = self
            .intervals
            .iter()
            .flat_map(|iv| [iv.start.as_secs_f64(), iv.end.as_secs_f64()])
            .collect();
        let cuts: Vec<f64> = self
            .fit
            .iter()
            .skip(1)
            .filter_map(|seg| self.series.points.get(seg.start).map(|p| p.0))
            .collect();
        let matched = cuts
            .iter()
            .filter(|c| edges.iter().any(|e| (*c - e).abs() <= slack_secs))
            .count();
        (matched, cuts.len())
    }
}

/// A finished Monte-Carlo experiment: the baseline, the per-replication
/// records, and the aggregate estimate.
#[derive(Debug, Clone)]
pub struct McRun {
    /// The experiment definition.
    pub setup: MonteCarloSetup,
    /// Measurement window start (arrivals also start here).
    pub measure_from: SimTime,
    /// Run end (= measurement window end = trace horizon).
    pub end: SimTime,
    /// Fault-free baseline throughput timeline.
    pub baseline: TimeSeries,
    /// The AT/AA estimates over the replications.
    pub result: MonteCarloResult,
    /// Per-replication records, in seed order.
    pub reps: Vec<McReplication>,
}

/// Runs one Monte-Carlo experiment: a fault-free baseline plus
/// `setup.replications` independently-seeded fault timelines, fanned
/// across `jobs` workers (byte-identical to sequential — every run
/// takes an explicit seed and results land in task order).
///
/// # Panics
///
/// Panics if the baseline measures no throughput in the window (a
/// misconfigured operating point).
pub fn run_montecarlo(setup: &MonteCarloSetup, scale: RunScale, seed: u64, jobs: usize) -> McRun {
    let config = config_for(setup.version, scale);
    let nodes = config.press.nodes;
    let start = SimTime::ZERO + setup.settle;
    let end = start + setup.window;
    let (t0, t1) = (start.as_secs_f64(), end.as_secs_f64());

    // Replication seeds: a golden-ratio stride from the target seed,
    // so neighbouring replications land far apart in seed space
    // (consecutive integers can share arrival-stream luck). Each
    // timeline is drawn from its own seed, so drawing them all before
    // the fan-out changes nothing.
    const STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;
    let drawn: Vec<(u64, Campaign, usize)> = (0..setup.replications)
        .map(|r| {
            let rep_seed = seed.wrapping_add(STRIDE.wrapping_mul(1 + r as u64));
            let trace = generate_trace(&setup.classes, start, setup.window, nodes, rep_seed);
            let campaign = trace.expand(&setup.rules);
            let correlated = campaign.faults().len() - trace.faults().len();
            (rep_seed, campaign, correlated)
        })
        .collect();
    let baseline = Run::new(config.clone(), Campaign::none(), end, seed);
    let reps = drawn
        .iter()
        .map(|(s, c, _)| Run::new(config.clone(), c.clone(), end, *s));
    let runs: Vec<Run> = std::iter::once(baseline).chain(reps).collect();
    let mut outs = run_indexed(jobs, runs, |_, run| {
        let report = run.observe().report;
        (report.throughput, report.availability.availability())
    })
    .into_iter();

    let (baseline, _) = outs.next().expect("the baseline ran");
    let tn = baseline.mean_between(t0, t1).unwrap_or(0.0);
    assert!(tn > 0.0, "baseline measured no throughput in the window");
    let reps: Vec<McReplication> = drawn
        .into_iter()
        .zip(outs)
        .map(|((seed, campaign, correlated), (series, availability))| {
            let intervals = campaign.active_intervals(end);
            let overlap = overlap_profile(&intervals, correlated);
            // The single-fault audit's blind fit, allowed a change
            // point at each fault's start and end.
            let fit = series.blind_fit(tn, (2 * intervals.len() + 1).clamp(1, 24));
            McReplication {
                seed,
                campaign,
                intervals,
                overlap,
                series,
                availability,
                fit,
            }
        })
        .collect();
    let result = MonteCarloResult::new(
        tn,
        reps.iter()
            .map(|r| Replication {
                seed: r.seed,
                throughput: r.series.mean_between(t0, t1).unwrap_or(0.0),
                availability: r.availability,
                faults: r.overlap.faults,
                max_concurrent: r.overlap.max_concurrent,
            })
            .collect(),
    );
    McRun {
        setup: setup.clone(),
        measure_from: start,
        end,
        baseline,
        result,
        reps,
    }
}

/// The two-path sanity check: the same single-fail-stop-class fault
/// load evaluated by the closed-form model and by the Monte-Carlo
/// estimator.
#[derive(Debug, Clone)]
pub struct CrossCheck {
    /// The Monte-Carlo side (single fault class, no rules).
    pub run: McRun,
    /// The closed-form side, from a measured single-fault profile.
    pub closed: Phase2Result,
    /// Allowed AA disagreement beyond the Monte-Carlo 95% CI.
    pub tolerance: f64,
}

impl CrossCheck {
    /// Absolute difference between the two availability estimates.
    pub fn delta(&self) -> f64 {
        (self.closed.availability - self.run.result.aa.mean).abs()
    }

    /// Whether the closed-form AA lands inside the Monte-Carlo 95%
    /// interval widened by the tolerance.
    pub fn pass(&self) -> bool {
        self.run
            .result
            .aa
            .covers(self.closed.availability, self.tolerance)
    }
}

/// Runs [`MonteCarloSetup::single_fault`] through both methodologies.
///
/// The closed-form side builds a one-class profile the phase-2 pipeline
/// accepts: the node-crash behaviour and the warm-up transient measured
/// by the [`phase1_grid`], and the Monte-Carlo baseline as Tn (so
/// both paths normalize against the same operating point). The fault
/// entry's MTTF is chosen so its cluster-wide rate
/// (`instances / mttf`) equals the arrival generator's rate
/// (`1 / mean_between`), and its MTTR is the generator's fault
/// duration.
pub fn closed_form_crosscheck(
    version: PressVersion,
    scale: RunScale,
    seed: u64,
    jobs: usize,
) -> CrossCheck {
    let setup = MonteCarloSetup::single_fault(version, scale);
    let run = run_montecarlo(&setup, scale, seed, jobs);

    let nodes = config_for(version, scale).press.nodes;
    let class = &setup.classes[0];
    let fault = model_for_kind(class.kind);
    let row = phase1_grid(
        &[version],
        &[(fault, class.kind)],
        true,
        scale,
        seed,
        jobs,
        measured_from_run,
    )
    .pop()
    .expect("one version in, one row out");
    let warmup = row.warmup.expect("the grid ran the warm-up");
    let profile = VersionProfile {
        tn: run.result.tn,
        ..VersionProfile::from_runs(version, row.runs, warmup)
    };
    let entry = FaultEntry {
        fault,
        // instances / mttf == 1 / mean_between: same cluster-wide rate
        // as the Poisson generator's single stream.
        mttf: nodes as f64 * class.mean_between.as_secs_f64(),
        mttr: class.duration.as_secs_f64(),
        instances: nodes as u32,
    };
    let closed = evaluate(&profile, &[entry]);
    CrossCheck {
        run,
        closed,
        tolerance: 0.05,
    }
}

/// Renders one Monte-Carlo run as the repro target's text block.
fn render_mc(title: &str, run: &McRun) -> String {
    let mut s = String::new();
    let setup = &run.setup;
    s.push_str(&format!(
        "== {title} ({}, {} replications x {:.0} s window, measured [{:.0} s, {:.0} s)) ==\n",
        setup.version,
        setup.replications,
        run.end.as_secs_f64(),
        run.measure_from.as_secs_f64(),
        run.end.as_secs_f64(),
    ));
    s.push_str("arrival classes:\n");
    for class in &setup.classes {
        s.push_str(&format!(
            "  {:<28} mean between {:>5.0} s, duration {:>4.0} s\n",
            class.kind.to_string(),
            class.mean_between.as_secs_f64(),
            class.duration.as_secs_f64(),
        ));
    }
    if setup.rules.is_empty() {
        s.push_str("correlation rules: none\n");
    } else {
        for rule in &setup.rules {
            s.push_str(&format!("correlation rule: {}\n", rule.name));
        }
    }
    s.push_str(&format!("baseline Tn = {:.1} req/s\n\n", run.result.tn));
    s.push_str(
        "rep              seed  faults  corr  max-conc  multi_s  gray&fs_s   AT req/s  avail\n",
    );
    for (i, (rep, agg)) in run.reps.iter().zip(&run.result.replications).enumerate() {
        s.push_str(&format!(
            "{:>3} {:>17} {:>7} {:>5} {:>9} {:>8.1} {:>10.1} {:>10.1}  {:.3}\n",
            i,
            format!("{:016x}", rep.seed),
            rep.overlap.faults,
            rep.overlap.correlated,
            rep.overlap.max_concurrent,
            rep.overlap.multi_fault_secs,
            rep.overlap.gray_failstop_secs,
            agg.throughput,
            rep.availability,
        ));
    }
    let at = &run.result.at;
    let aa = &run.result.aa;
    s.push_str(&format!(
        "\nAT = {:.1} +/- {:.1} req/s (95% CI, n = {})\nAA = {:.4} +/- {:.4}\n",
        at.mean, at.ci95, at.n, aa.mean, aa.ci95,
    ));
    let faults: usize = run.reps.iter().map(|r| r.overlap.faults).sum();
    let correlated: usize = run.reps.iter().map(|r| r.overlap.correlated).sum();
    let max_conc = run
        .reps
        .iter()
        .map(|r| r.overlap.max_concurrent)
        .max()
        .unwrap_or(0);
    let gray_fs: f64 = run.reps.iter().map(|r| r.overlap.gray_failstop_secs).sum();
    s.push_str(&format!(
        "overlap: {faults} faults total ({correlated} correlated), max {max_conc} concurrent, \
         gray & fail-stop overlap {gray_fs:.1} s\n",
    ));
    let (matched, total) = run.reps.iter().fold((0, 0), |(m, t), rep| {
        let (rm, rt) = rep.change_points_near_fault_edges(3.0);
        (m + rm, t + rt)
    });
    s.push_str(&format!(
        "blind fit: {matched}/{total} change points within 3 s of a fault edge\n",
    ));
    s
}

/// Renders the cross-check block, ending in the PASS/FAIL verdict line
/// the verification script gates on.
fn render_crosscheck(check: &CrossCheck) -> String {
    let mut s = render_mc(
        "closed-form cross-check: Monte-Carlo side (node crash only)",
        &check.run,
    );
    let (lo, hi) = check.run.result.aa.interval();
    s.push_str(&format!(
        "\nclosed-form AA = {:.4} (same rate and MTTR through the phase-2 model)\n\
         Monte-Carlo AA = {:.4} [{:.4}, {:.4}] -> |delta| = {:.4}, tolerance {:.2}: {}\n",
        check.closed.availability,
        check.run.result.aa.mean,
        lo,
        hi,
        check.delta(),
        check.tolerance,
        if check.pass() { "PASS" } else { "FAIL" },
    ));
    s
}

/// The full `montecarlo` target: the showcase estimate plus the
/// closed-form cross-check. Returns the printable text and the
/// showcase run (for the HTML report).
pub fn montecarlo_results(scale: RunScale, seed: u64, jobs: usize) -> (String, McRun) {
    let version = PressVersion::TcpHb;
    let showcase = run_montecarlo(
        &MonteCarloSetup::showcase(version, scale),
        scale,
        seed,
        jobs,
    );
    let check = closed_form_crosscheck(version, scale, seed, jobs);
    let text = format!(
        "{}\n{}",
        render_mc(
            "Monte-Carlo performability: correlated + gray + overlapping faults",
            &showcase
        ),
        render_crosscheck(&check),
    );
    (text, showcase)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mendosus::FaultSpec;
    use simnet::fabric::NodeId;

    fn interval(kind: FaultKind, node: usize, at: u64, dur: u64) -> FaultInterval {
        let spec = FaultSpec::transient(
            kind,
            NodeId(node),
            SimTime::from_secs(at),
            SimDuration::from_secs(dur),
        );
        FaultInterval {
            start: spec.at,
            end: SimTime::from_secs(at + dur),
            spec,
        }
    }

    #[test]
    fn overlap_profile_counts_concurrency_and_gray_failstop_time() {
        // crash 10..40, degraded 30..70, crash 60..65: two overlaps.
        let ivs = vec![
            interval(FaultKind::NodeCrash, 0, 10, 30),
            interval(FaultKind::LinkDegraded, 1, 30, 40),
            interval(FaultKind::NodeCrash, 2, 60, 5),
        ];
        let p = overlap_profile(&ivs, 1);
        assert_eq!(p.faults, 3);
        assert_eq!(p.correlated, 1);
        assert_eq!(p.max_concurrent, 2);
        // 30..40 (crash+degraded) and 60..65 (degraded+crash).
        assert!((p.multi_fault_secs - 15.0).abs() < 1e-9);
        assert!((p.gray_failstop_secs - 15.0).abs() < 1e-9);
    }

    #[test]
    fn overlap_profile_of_disjoint_faults_has_no_overlap() {
        let ivs = vec![
            interval(FaultKind::NodeCrash, 0, 10, 5),
            interval(FaultKind::NodeCrash, 1, 20, 5),
        ];
        let p = overlap_profile(&ivs, 0);
        assert_eq!(p.max_concurrent, 1);
        assert_eq!(p.multi_fault_secs, 0.0);
        assert_eq!(p.gray_failstop_secs, 0.0);
    }

    #[test]
    fn montecarlo_runs_are_deterministic_and_overlapping() {
        let mut setup = MonteCarloSetup::showcase(PressVersion::TcpHb, RunScale::Small);
        setup.replications = 2;
        let a = run_montecarlo(&setup, RunScale::Small, 2003, 1);
        let b = run_montecarlo(&setup, RunScale::Small, 2003, 2);
        assert_eq!(a.result, b.result, "jobs must not change the estimate");
        assert!(a.result.tn > 500.0, "baseline Tn {}", a.result.tn);
        assert!(a.result.at.mean > 0.0 && a.result.at.mean < a.result.tn);
        let faults: usize = a.reps.iter().map(|r| r.overlap.faults).sum();
        assert!(faults > 0, "the showcase universe must inject faults");
    }

    #[test]
    fn crosscheck_structure_is_consistent() {
        // A tiny replication count keeps this test cheap; the full-size
        // tolerance gate runs in verify.sh against the repro target.
        let version = PressVersion::TcpHb;
        let scale = RunScale::Small;
        let mut setup = MonteCarloSetup::single_fault(version, scale);
        setup.replications = 2;
        let run = run_montecarlo(&setup, scale, 2003, 2);
        assert!(run.reps.iter().all(|r| r.overlap.correlated == 0));
        assert!(run
            .reps
            .iter()
            .flat_map(|r| r.intervals.iter())
            .all(|iv| iv.spec.kind == FaultKind::NodeCrash));
        assert!(run.result.aa.mean > 0.5 && run.result.aa.mean <= 1.0);
    }
}
