//! The blind stage-segmentation audit.
//!
//! Phase 2's availability and performability numbers all flow from the
//! stage durations and throughputs that phase 1 extracts — and those
//! boundaries come from the **run log** (membership changes, process
//! exits, recovery events). This module re-derives the segmentation
//! **blind**: an exact piecewise-constant change-point fit over the raw
//! throughput [`TimeSeries`] ([`TimeSeries::blind_fit`]), which
//! never sees the log. Where the log says the regime changed, the
//! curve must show a change; where the log says a stage held a level,
//! the blind fit must find the same level. Disagreements become
//! [`Finding`]s, surfaced in the HTML report and by `repro -- audit`
//! (non-zero exit).
//!
//! Transient stages (B, D, G) are ramps by definition, so the audit
//! only checks their *boundaries* where the local level jump is
//! material; the stable regions (pre-fault, C, E) also get the level
//! and plateau-onset checks. Stage A carries no stability claim — an
//! undetected fault decays gradually (TCP's connection backlog drains
//! over many seconds), so blind change points inside A are legitimate.

use experiments::phase1::FaultRunResult;
use performability::stages::{Stage, StageMarkers};
use simnet::stats::FitSegment;
use simnet::TimeSeries;

/// Tolerances for the log-vs-blind comparison. The defaults implement
/// the repro harness's acceptance bar: boundary agreement within about
/// one throughput bucket and level agreement within 5% of Tn.
#[derive(Debug, Clone, Copy)]
pub struct AuditConfig {
    /// A boundary's level jump must exceed this fraction of Tn to be
    /// blind-detectable at all; smaller steps are invisible in the
    /// noise and are not audited.
    pub material_jump_frac: f64,
    /// How far (in buckets) a blind change point may sit from the log
    /// boundary it explains. 1.5 buckets = the "within one bucket"
    /// criterion plus the half-bucket quantization of continuous marker
    /// times onto bucket edges.
    pub boundary_tolerance_buckets: f64,
    /// Allowed |blind level − log level| in a stable stage, as a
    /// fraction of Tn.
    pub level_tolerance_frac: f64,
    /// A stable stage shorter than this many buckets has no interior
    /// to compare levels over and is skipped.
    pub min_stable_buckets: usize,
    /// Everything before this time (seconds) is the client/cache ramp
    /// and is excluded — matching the phase-1 Tn measurement, which
    /// also skips the start of the run.
    pub startup_exclusion_s: f64,
    /// A shift inside a stable stage only counts as an unlogged regime
    /// change if the new level *persists*: when the fit returns to
    /// within `material_jump_frac` of the pre-shift level inside this
    /// many buckets, the departure is a transient excursion (retry
    /// resynchronization, cache churn) and is not flagged.
    pub max_excursion_buckets: usize,
    /// Most segments the fit may use.
    pub max_segments: usize,
}

impl Default for AuditConfig {
    fn default() -> Self {
        AuditConfig {
            material_jump_frac: 0.10,
            boundary_tolerance_buckets: 1.5,
            level_tolerance_frac: 0.05,
            min_stable_buckets: 3,
            startup_exclusion_s: 5.0,
            max_excursion_buckets: 6,
            max_segments: 12,
        }
    }
}

/// What kind of disagreement a finding reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FindingKind {
    /// The log claims a material regime change here, but no blind
    /// change point lands within tolerance.
    MissedBoundary,
    /// A stable stage's blind level disagrees with the log-derived
    /// level by more than the tolerance.
    LevelMismatch,
    /// The blind fit found a material throughput shift inside a stage
    /// the log calls stable, away from any log boundary.
    SpuriousShift,
}

impl std::fmt::Display for FindingKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FindingKind::MissedBoundary => "missed boundary",
            FindingKind::LevelMismatch => "level mismatch",
            FindingKind::SpuriousShift => "spurious shift",
        };
        write!(f, "{s}")
    }
}

/// One disagreement between the run log's segmentation and the blind
/// fit.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The kind of disagreement.
    pub kind: FindingKind,
    /// The stage the disagreement falls in (`None`: the pre-fault
    /// region).
    pub stage: Option<Stage>,
    /// Where (seconds into the run).
    pub at_s: f64,
    /// What the log-derived segmentation says (seconds or req/s,
    /// depending on `kind`).
    pub expected: f64,
    /// What the blind fit says.
    pub got: f64,
}

impl Finding {
    fn stage_name(&self) -> String {
        match self.stage {
            Some(s) => format!("stage {s}"),
            None => "pre-fault".to_string(),
        }
    }

    /// One-line human rendering.
    pub fn describe(&self) -> String {
        match self.kind {
            FindingKind::MissedBoundary => format!(
                "{} entry at {:.1}s: nearest blind change point at {:.1}s",
                self.stage_name(),
                self.expected,
                self.got
            ),
            FindingKind::LevelMismatch => format!(
                "{} level: log says {:.0} req/s, blind fit {:.0} req/s",
                self.stage_name(),
                self.expected,
                self.got
            ),
            FindingKind::SpuriousShift => format!(
                "unexplained {:+.0} req/s shift at {:.1}s inside {}",
                self.got - self.expected,
                self.at_s,
                self.stage_name()
            ),
        }
    }
}

/// One piece of the blind fit, in run-time coordinates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AuditSegment {
    /// Segment start (seconds).
    pub t0: f64,
    /// Segment end (seconds).
    pub t1: f64,
    /// Fitted throughput level (req/s).
    pub mean: f64,
}

/// The audit verdict for one run.
#[derive(Debug, Clone)]
pub struct RunAudit {
    /// "VERSION fault" label for tables.
    pub label: String,
    /// Normal throughput the tolerances are relative to.
    pub tn: f64,
    /// Throughput bucket width (seconds).
    pub bucket_s: f64,
    /// The blind piecewise-constant fit.
    pub segments: Vec<AuditSegment>,
    /// Every disagreement found (empty = the segmentations agree).
    pub findings: Vec<Finding>,
}

impl RunAudit {
    /// `true` when the blind segmentation agrees with the run log.
    pub fn pass(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Audits one phase-1 run with the default tolerances.
pub fn audit_run(r: &FaultRunResult) -> RunAudit {
    audit_series(
        &r.series,
        &r.markers,
        r.tn,
        format!("{} {}", r.version.name(), r.fault.kind.name()),
        &AuditConfig::default(),
    )
}

/// One region of the log-derived segmentation, with the level the log
/// (via the series means the model extraction uses) assigns it.
struct LogRegion {
    stage: Option<Stage>,
    t0: f64,
    t1: f64,
    level: f64,
    /// Whether the region claims a stable level: the pre-fault steady
    /// state, and C/E, whose starts come from the stabilization
    /// detector. A/B/D/G may hold arbitrary transients.
    stable: bool,
}

/// Audits a throughput series against log-derived stage markers.
pub fn audit_series(
    series: &TimeSeries,
    markers: &StageMarkers,
    tn: f64,
    label: String,
    cfg: &AuditConfig,
) -> RunAudit {
    let bucket_s = series.bucket_width();
    let tol_s = cfg.boundary_tolerance_buckets * bucket_s;
    let segments = timed_segments(series, &series.blind_fit(tn, cfg.max_segments));
    let regions = log_regions(series, markers, tn, cfg);
    let mut findings = Vec::new();

    // Interior blind change points `(time, level before, level after)`.
    let cuts: Vec<(f64, f64, f64)> = segments
        .windows(2)
        .map(|w| (w[1].t0, w[0].mean, w[1].mean))
        .collect();

    // 1. Every log boundary the curve can see needs a nearby blind
    // change point. "Can see" is judged *locally* — the mean over a few
    // buckets on each side of the boundary — because a region's overall
    // mean says nothing about the boundary instant (TCP's stage-D entry
    // is 0 → 0: the link is back but retry backoff holds throughput
    // down, so the repair event has no curve signature at all).
    let jump_w = cfg.min_stable_buckets as f64 * bucket_s;
    for w in regions.windows(2) {
        let t = w[1].t0;
        let (before, after) = (
            series.mean_between(t - jump_w, t),
            series.mean_between(t, t + jump_w),
        );
        let (Some(before), Some(after)) = (before, after) else {
            continue;
        };
        if (after - before).abs() <= cfg.material_jump_frac * tn {
            continue;
        }
        let nearest = cuts
            .iter()
            .map(|&(c, _, _)| c)
            .min_by(|a, b| {
                let (da, db) = ((a - t).abs(), (b - t).abs());
                da.partial_cmp(&db).expect("finite times")
            })
            .unwrap_or(f64::NEG_INFINITY);
        if (nearest - t).abs() > tol_s {
            findings.push(Finding {
                kind: FindingKind::MissedBoundary,
                stage: w[1].stage,
                at_s: t,
                expected: t,
                got: nearest,
            });
        }
    }

    // 2. Stable regions: the blind level over the region interior must
    // match the log level within tolerance.
    for region in &regions {
        if !region.stable {
            continue;
        }
        let (t0, t1) = (region.t0 + bucket_s, region.t1 - bucket_s);
        if t1 - t0 < cfg.min_stable_buckets as f64 * bucket_s {
            continue;
        }
        if let Some(blind) = fitted_mean_between(&segments, t0, t1) {
            if (blind - region.level).abs() > cfg.level_tolerance_frac * tn {
                findings.push(Finding {
                    kind: FindingKind::LevelMismatch,
                    stage: region.stage,
                    at_s: t0,
                    expected: region.level,
                    got: blind,
                });
            }
        }
    }

    // 2b. C and E start where the stabilization detector saw the
    // plateau begin. The blind segment carrying most of the region must
    // not begin materially *after* that claim — a plateau that only
    // forms later means the marker fired while the level was still
    // moving. (Beginning earlier is fine: when the boundary has no
    // level change, the plateau legitimately extends back into the
    // previous stage.)
    for region in &regions {
        if !matches!(region.stage, Some(Stage::C) | Some(Stage::E)) {
            continue;
        }
        let (t0, t1) = (region.t0 + bucket_s, region.t1 - bucket_s);
        if t1 - t0 < cfg.min_stable_buckets as f64 * bucket_s {
            continue;
        }
        let overlap = |s: &AuditSegment| (s.t1.min(t1) - s.t0.max(t0)).max(0.0);
        let dominant = segments
            .iter()
            .max_by(|a, b| overlap(a).partial_cmp(&overlap(b)).expect("finite overlap"));
        if let Some(seg) = dominant {
            if overlap(seg) > 0.0 && seg.t0 > region.t0 + tol_s {
                findings.push(Finding {
                    kind: FindingKind::MissedBoundary,
                    stage: region.stage,
                    at_s: region.t0,
                    expected: region.t0,
                    got: seg.t0,
                });
            }
        }
    }

    // 3. Material blind change points inside a stable region's interior
    // must be explained by *some* log boundary — unless the departure is
    // a short-lived excursion. An unlogged event (a crash the log never
    // saw) moves the level and *leaves* it there; an oscillation inside
    // a healthy stage (retry resynchronization after recovery, cache
    // churn) swings out and returns. So a shift is only spurious when
    // the fit does not come back to within materiality of the pre-shift
    // level inside `max_excursion_buckets`.
    let log_edges: Vec<f64> = regions
        .iter()
        .map(|r| r.t0)
        .chain(regions.last().map(|r| r.t1))
        .collect();
    let material = cfg.material_jump_frac * tn;
    let excursion_s = cfg.max_excursion_buckets as f64 * bucket_s;
    let mut skip_until = f64::NEG_INFINITY;
    for &(c, before, after) in &cuts {
        if c <= skip_until || (after - before).abs() <= material {
            continue;
        }
        if log_edges.iter().any(|&e| (e - c).abs() <= tol_s) {
            continue;
        }
        let host = regions
            .iter()
            .find(|r| c >= r.t0 + tol_s && c <= r.t1 - tol_s && r.stable);
        let Some(region) = host else {
            continue;
        };
        if let Some(&(back, _, _)) = cuts.iter().find(|&&(c2, _, after2)| {
            c2 > c && c2 - c <= excursion_s && (after2 - before).abs() <= material
        }) {
            // The level returns: one transient excursion. Its closing
            // cut(s) are part of the same swing, not fresh shifts.
            skip_until = back;
            continue;
        }
        findings.push(Finding {
            kind: FindingKind::SpuriousShift,
            stage: region.stage,
            at_s: c,
            expected: before,
            got: after,
        });
    }

    RunAudit {
        label,
        tn,
        bucket_s,
        segments,
        findings,
    }
}

/// A blind fit in run-time coordinates.
pub(crate) fn timed_segments(series: &TimeSeries, fit: &[FitSegment]) -> Vec<AuditSegment> {
    let bucket_s = series.bucket_width();
    fit.iter()
        .map(|s| {
            let (t0, t1) = s.span(bucket_s);
            AuditSegment {
                t0,
                t1,
                mean: s.mean,
            }
        })
        .collect()
}

/// Splits the run into the log's regions: the pre-fault steady state,
/// then every non-empty marker interval, each with the level the model
/// extraction assigns it.
fn log_regions(
    series: &TimeSeries,
    markers: &StageMarkers,
    tn: f64,
    cfg: &AuditConfig,
) -> Vec<LogRegion> {
    let mut regions = Vec::new();
    let pre0 = cfg.startup_exclusion_s.min(markers.fault);
    if markers.fault > pre0 {
        regions.push(LogRegion {
            stage: None,
            t0: pre0,
            t1: markers.fault,
            level: series.mean_between(pre0, markers.fault).unwrap_or(tn),
            stable: true,
        });
    }
    for (stage, t0, t1) in markers.intervals() {
        if t1 - t0 <= 0.0 {
            continue;
        }
        regions.push(LogRegion {
            stage: Some(stage),
            t0,
            t1,
            level: series.mean_between(t0, t1).unwrap_or(tn),
            stable: matches!(stage, Stage::C | Stage::E),
        });
    }
    regions
}

/// Mean of the fitted model over `[t0, t1)`, weighted by overlap.
/// `None` when the window misses the fit entirely.
fn fitted_mean_between(segments: &[AuditSegment], t0: f64, t1: f64) -> Option<f64> {
    let mut weight = 0.0;
    let mut sum = 0.0;
    for s in segments {
        let lo = s.t0.max(t0);
        let hi = s.t1.min(t1);
        if hi > lo {
            weight += hi - lo;
            sum += (hi - lo) * s.mean;
        }
    }
    if weight > 0.0 {
        Some(sum / weight)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic run: 1 s buckets at mid-bucket timestamps, levels
    /// given per `[t0, t1)` span, like the real recorder produces.
    fn series(spans: &[(f64, f64, f64)]) -> TimeSeries {
        let mut pts = Vec::new();
        for &(t0, t1, v) in spans {
            let mut t = t0 + 0.5;
            while t < t1 {
                // A deterministic ±2% wobble so the fit sees realistic
                // (non-zero) noise.
                let wiggle = 1.0 + 0.02 * ((t as u64 % 2) as f64 * 2.0 - 1.0);
                pts.push((t, v * wiggle));
                t += 1.0;
            }
        }
        TimeSeries::new(pts)
    }

    fn crash_markers() -> StageMarkers {
        StageMarkers {
            fault: 30.0,
            detected: Some(40.0),
            stabilized: Some(40.0),
            recovered: 60.0,
            restabilized: Some(60.0),
            reset: None,
            reset_done: None,
            end: 90.0,
        }
    }

    fn crash_series() -> TimeSeries {
        // Tn 1000 until the fault, stall to 0 until detection, degraded
        // 750 until repair, back to normal after.
        series(&[
            (0.0, 30.0, 1000.0),
            (30.0, 40.0, 0.0),
            (40.0, 60.0, 750.0),
            (60.0, 90.0, 1000.0),
        ])
    }

    #[test]
    fn consistent_markers_pass() {
        let audit = audit_series(
            &crash_series(),
            &crash_markers(),
            1000.0,
            "test".into(),
            &AuditConfig::default(),
        );
        assert!(
            audit.pass(),
            "expected agreement, got: {:?}",
            audit
                .findings
                .iter()
                .map(Finding::describe)
                .collect::<Vec<_>>()
        );
        assert!(audit.segments.len() >= 4, "fit: {:?}", audit.segments);
    }

    #[test]
    fn shifted_detection_marker_is_caught() {
        let mut m = crash_markers();
        // Claim the system stabilized at 35 s when the curve still sits
        // at zero until 40: stage C's plateau only forms 5 s after the
        // marker says it did.
        m.detected = Some(35.0);
        m.stabilized = Some(35.0);
        let audit = audit_series(
            &crash_series(),
            &m,
            1000.0,
            "test".into(),
            &AuditConfig::default(),
        );
        assert!(!audit.pass(), "a shifted boundary must be flagged");
        assert!(audit
            .findings
            .iter()
            .any(|f| f.kind == FindingKind::MissedBoundary));
    }

    #[test]
    fn shifted_recovery_marker_is_caught() {
        let mut m = crash_markers();
        // Claim the component recovered (the 750 → 1000 jump) 10 s
        // before the curve shows it.
        m.recovered = 50.0;
        m.restabilized = Some(50.0);
        let audit = audit_series(
            &crash_series(),
            &m,
            1000.0,
            "test".into(),
            &AuditConfig::default(),
        );
        assert!(audit
            .findings
            .iter()
            .any(|f| f.kind == FindingKind::MissedBoundary));
    }

    #[test]
    fn a_coarse_fit_shows_up_as_level_mismatches() {
        // Cap the fit at one segment: every stable stage's level is now
        // polluted by its neighbours, which the level check must see.
        let cfg = AuditConfig {
            max_segments: 1,
            ..AuditConfig::default()
        };
        let audit = audit_series(
            &crash_series(),
            &crash_markers(),
            1000.0,
            "test".into(),
            &cfg,
        );
        assert!(audit
            .findings
            .iter()
            .any(|f| f.kind == FindingKind::LevelMismatch));
    }

    #[test]
    fn unlogged_mid_stage_crash_is_a_spurious_shift() {
        // The curve collapses mid-stage-E with no marker anywhere near.
        let s = series(&[
            (0.0, 30.0, 1000.0),
            (30.0, 40.0, 0.0),
            (40.0, 60.0, 750.0),
            (60.0, 75.0, 1000.0),
            (75.0, 90.0, 200.0),
        ]);
        let audit = audit_series(
            &s,
            &crash_markers(),
            1000.0,
            "test".into(),
            &AuditConfig::default(),
        );
        assert!(
            audit
                .findings
                .iter()
                .any(|f| f.kind == FindingKind::SpuriousShift && f.stage == Some(Stage::E)),
            "findings: {:?}",
            audit
                .findings
                .iter()
                .map(Finding::describe)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn a_transient_excursion_is_not_spurious() {
        // A 4 s swing up and back mid-stage-E: the level returns, so
        // this is service-level oscillation, not an unlogged event.
        let s = series(&[
            (0.0, 30.0, 1000.0),
            (30.0, 40.0, 0.0),
            (40.0, 60.0, 750.0),
            (60.0, 72.0, 1000.0),
            (72.0, 76.0, 1300.0),
            (76.0, 90.0, 1000.0),
        ]);
        let audit = audit_series(
            &s,
            &crash_markers(),
            1000.0,
            "test".into(),
            &AuditConfig::default(),
        );
        assert!(
            audit
                .findings
                .iter()
                .all(|f| f.kind != FindingKind::SpuriousShift),
            "excursion flagged: {:?}",
            audit
                .findings
                .iter()
                .map(Finding::describe)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn immaterial_boundaries_are_not_audited() {
        // Detection barely moves the level (6% of Tn): blind fit cannot
        // see it and must not be required to.
        let s = series(&[
            (0.0, 30.0, 1000.0),
            (30.0, 60.0, 940.0),
            (60.0, 90.0, 1000.0),
        ]);
        let m = StageMarkers {
            fault: 30.0,
            detected: Some(45.0), // invisible A→B/C boundary
            stabilized: Some(45.0),
            recovered: 60.0,
            restabilized: Some(60.0),
            reset: None,
            reset_done: None,
            end: 90.0,
        };
        let audit = audit_series(&s, &m, 1000.0, "test".into(), &AuditConfig::default());
        assert!(
            audit
                .findings
                .iter()
                .all(|f| f.kind != FindingKind::MissedBoundary),
            "immaterial boundary flagged: {:?}",
            audit
                .findings
                .iter()
                .map(Finding::describe)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn empty_series_audits_to_a_clean_slate() {
        let audit = audit_series(
            &TimeSeries::new(Vec::new()),
            &crash_markers(),
            1000.0,
            "empty".into(),
            &AuditConfig::default(),
        );
        // Nothing measured: no segments, but also no missed boundaries
        // claimed against a curve that does not exist.
        assert!(audit.segments.is_empty());
    }
}
