//! Assembles the single-file HTML performability report.
//!
//! One report covers one repro target (e.g. fig3): per run it shows the
//! throughput timeline with A–G stage bands and event annotations, the
//! blind-fit overlay and audit verdict, the extracted stage parameters,
//! and per-stage response-time percentiles; across runs it adds the
//! phase-2 AT/AA/P projection and the Table 3 fault-load weights.
//! Rendering is pure (no file or clock access) and byte-deterministic
//! for fixed inputs.

use experiments::phase1::FaultRunResult;
use experiments::phase2::{self, VersionProfile};
use performability::fault_load::{paper_fault_load, FaultEntry, DAY, MONTH};
use performability::stages::Stage;
use simnet::LatencyHistogram;

use crate::audit::{audit_run, AuditConfig, RunAudit};
use crate::html::{esc, page, table};
use crate::svg::{timeline_svg, TimelineChart};

/// Report-wide context, shown in the header.
#[derive(Debug, Clone)]
pub struct ReportMeta {
    /// Repro target the report covers ("fig2", "fig3", ...).
    pub target: String,
    /// Human title ("Figure 3: node crash").
    pub title: String,
    /// Run scale ("paper" or "small").
    pub scale: String,
    /// The seed every run used.
    pub seed: u64,
}

/// Renders the full report page. `runs` come straight from the repro
/// harness (task order = render order); each run that carries an
/// attribution report ([`FaultRunResult::attr`]) gains a root-cause
/// section (stacked loss lanes, the Pareto table, and the conservation
/// verdict).
pub fn render_report(meta: &ReportMeta, runs: &[FaultRunResult]) -> String {
    let audits: Vec<RunAudit> = runs.iter().map(audit_run).collect();
    let mut body = format!(
        "<h1>{title}</h1>\n<p class=\"meta\">target {target} · scale {scale} · seed {seed} · \
         {n} run{plural} · deterministic render (byte-identical for a fixed seed, any --jobs)</p>\n",
        title = esc(&meta.title),
        target = esc(&meta.target),
        scale = esc(&meta.scale),
        seed = meta.seed,
        n = runs.len(),
        plural = if runs.len() == 1 { "" } else { "s" },
    );

    for (r, audit) in runs.iter().zip(&audits) {
        body.push_str(&run_section(r, audit));
        if let Some(attr) = &r.attr {
            body.push_str(&attr_section(r, attr));
        }
    }

    body.push_str(&phase2_section(runs));
    body.push_str(&fault_load_section());

    let cfg = AuditConfig::default();
    body.push_str(&format!(
        "<footer>Audit tolerances: boundaries within {bt:.1} buckets, stable-stage levels \
         within {lt:.0}% of Tn, jumps under {mj:.0}% of Tn treated as blind-invisible. \
         Generated by <code>repro -- {target} --report</code>.</footer>\n",
        bt = cfg.boundary_tolerance_buckets,
        lt = cfg.level_tolerance_frac * 100.0,
        mj = cfg.material_jump_frac * 100.0,
        target = esc(&meta.target),
    ));

    page(&format!("{} — performability report", meta.title), &body)
}

/// How a stage reads in tables.
fn stage_desc(stage: Stage) -> &'static str {
    match stage {
        Stage::A => "A — fault → detection",
        Stage::B => "B — reconfiguration",
        Stage::C => "C — stable degraded",
        Stage::D => "D — recovery transient",
        Stage::E => "E — post-recovery",
        Stage::F => "F — operator reset",
        Stage::G => "G — reset warm-up",
    }
}

fn run_section(r: &FaultRunResult, audit: &RunAudit) -> String {
    let label = format!("{} under {}", r.version.name(), r.fault.kind.name());
    let mut s = format!("<section class=\"run\">\n<h2>{}</h2>\n", esc(&label));

    let chart = TimelineChart {
        series: &r.series,
        markers: &r.markers,
        fit: &audit.segments,
        tn: r.tn,
    };
    s.push_str(&timeline_svg(
        &chart,
        &format!("Throughput timeline: {label}"),
    ));

    // Audit verdict.
    if audit.pass() {
        s.push_str(
            "<p><span class=\"badge pass\">segmentation audit: blind fit agrees with the \
             run log</span></p>\n",
        );
    } else {
        s.push_str(&format!(
            "<p><span class=\"badge fail\">segmentation audit: {} disagreement{}</span></p>\n<ul>\n",
            audit.findings.len(),
            if audit.findings.len() == 1 { "" } else { "s" },
        ));
        for f in &audit.findings {
            s.push_str(&format!("<li>{}: {}</li>\n", f.kind, esc(&f.describe())));
        }
        s.push_str("</ul>\n");
    }

    // Stage parameters (log-derived), skipping absent stages.
    s.push_str("<h3>Stage parameters</h3>\n");
    let mut rows: Vec<Vec<String>> = vec![vec![
        "normal (pre-fault)".to_string(),
        format!("{:.1}", r.markers.fault),
        format!("{:.0}", r.tn),
        "100".to_string(),
    ]];
    for (stage, p) in r.stages.iter() {
        if p.duration <= 0.0 {
            continue;
        }
        rows.push(vec![
            stage_desc(stage).to_string(),
            format!("{:.1}", p.duration),
            format!("{:.0}", p.throughput),
            format!("{:.0}", 100.0 * p.throughput / r.tn.max(1.0)),
        ]);
    }
    s.push_str(&table(
        &["stage", "duration (s)", "throughput (req/s)", "% of Tn"],
        &rows,
    ));

    // Per-stage response-time percentiles from the bucketed latency
    // timeline.
    let lat_rows = latency_rows(r);
    if !lat_rows.is_empty() {
        s.push_str("<h3>Response time by stage</h3>\n");
        s.push_str(&table(
            &[
                "stage",
                "completions",
                "mean (ms)",
                "p50 (ms)",
                "p95 (ms)",
                "p99 (ms)",
                "max (ms)",
            ],
            &lat_rows,
        ));
    }

    if r.needs_operator_reset {
        s.push_str(
            "<p>This run ends splintered or with processes down: phase 2 appends operator \
             reset stages E/F/G when projecting it onto a fault load.</p>\n",
        );
    }
    s.push_str("</section>\n");
    s
}

/// One run's root-cause attribution: the stacked loss timeline, the
/// Pareto table (descending loss count, index order on ties — the same
/// order as the text renderer), and the conservation verdict badge.
fn attr_section(r: &FaultRunResult, attr: &telemetry::AttrReport) -> String {
    let label = format!("{} under {}", r.version.name(), r.fault.kind.name());
    let mut s = format!(
        "<section class=\"run\">\n<h2>Root-cause attribution — {}</h2>\n",
        esc(&label)
    );
    s.push_str(&crate::svg::attr_svg(
        &attr.timeline,
        r.markers.end,
        &format!("Per-second losses by root cause: {label}"),
    ));

    let totals = experiments::phase1::attr_totals(r);
    let total = attr.total();
    let per_sec = |n: u64| {
        if totals.attempts == 0 {
            0.0
        } else {
            n as f64 / totals.attempts as f64 * totals.duration_s
        }
    };
    let mut order: Vec<usize> = (0..telemetry::NCAUSES).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(attr.counts[i]), i));
    let pct = |n: u64| {
        if total == 0 {
            0.0
        } else {
            n as f64 * 100.0 / total as f64
        }
    };
    let mut cum = 0u64;
    let mut rows: Vec<Vec<String>> = Vec::new();
    for &i in &order {
        let n = attr.counts[i];
        cum += n;
        rows.push(vec![
            telemetry::CAUSES[i].label().to_string(),
            n.to_string(),
            format!("{:.1}%", pct(n)),
            format!("{:.1}%", pct(cum)),
            format!("{:.6}", per_sec(n)),
        ]);
    }
    rows.push(vec![
        "in-flight residual".to_string(),
        attr.residual.to_string(),
        String::new(),
        String::new(),
        format!("{:.6}", per_sec(attr.residual)),
    ]);
    s.push_str(&table(
        &["root cause", "lost", "share", "cum", "unavailable (s)"],
        &rows,
    ));

    let (ok, detail) = attr.conservation(&totals);
    s.push_str(&format!(
        "<p><span class=\"badge {}\">conservation: {}</span></p>\n<p>{}</p>\n",
        if ok { "pass" } else { "fail" },
        if ok {
            "attributed losses sum to the scored failures; unavailable seconds to (1\u{2212}AA)\u{b7}T"
        } else {
            "conservation FAILED"
        },
        esc(&detail),
    ));
    s.push_str("</section>\n");
    s
}

/// Merges the per-bucket latency histograms over each stage interval
/// (plus the pre-fault window) and formats the percentile rows.
fn latency_rows(r: &FaultRunResult) -> Vec<Vec<String>> {
    if r.report.latency_timeline.is_empty() {
        return Vec::new();
    }
    // Bucket width: the throughput series shares the same buckets.
    let bucket_s = r.series.bucket_width();
    let merged = |t0: f64, t1: f64| -> LatencyHistogram {
        let mut h = LatencyHistogram::new();
        for (i, b) in r.report.latency_timeline.iter().enumerate() {
            let mid = (i as f64 + 0.5) * bucket_s;
            if mid >= t0 && mid < t1 {
                h.merge(b);
            }
        }
        h
    };
    let mut spans: Vec<(String, f64, f64)> =
        vec![("normal (pre-fault)".to_string(), 0.0, r.markers.fault)];
    for (stage, t0, t1) in r.markers.intervals() {
        if t1 > t0 {
            spans.push((stage_desc(stage).to_string(), t0, t1));
        }
    }
    spans
        .into_iter()
        .filter_map(|(name, t0, t1)| {
            let h = merged(t0, t1);
            if h.count() == 0 {
                return None;
            }
            let ms = |v: f64| format!("{:.2}", v * 1000.0);
            Some(vec![
                name,
                format!("{}", h.count()),
                ms(h.mean()),
                ms(h.quantile(0.50)),
                ms(h.quantile(0.95)),
                ms(h.quantile(0.99)),
                ms(h.max()),
            ])
        })
        .collect()
}

/// The phase-2 projection: each run's measured behaviour evaluated as a
/// single-class fault load at Table 3 rates (monthly application MTTF).
fn phase2_section(runs: &[FaultRunResult]) -> String {
    let mut rows = Vec::new();
    for r in runs {
        let model = phase2::model_for_kind(r.fault.kind);
        let load: Vec<FaultEntry> = paper_fault_load(MONTH)
            .into_iter()
            .filter(|e| e.fault.behaves_like() == model)
            .collect();
        if load.is_empty() {
            continue;
        }
        let runs = vec![(model, phase2::measured_from_run(r))];
        let profile = VersionProfile::from_runs(r.version, runs, (0.0, 0.0));
        let p2 = phase2::evaluate(&profile, &load);
        let at_run = r.series.mean_between(0.0, r.markers.end).unwrap_or(0.0);
        rows.push(vec![
            format!("{} · {}", r.version.name(), r.fault.kind.name()),
            format!("{:.0}", r.tn),
            format!("{:.0}", at_run),
            format!("{:.3}%", 100.0 * r.report.availability.availability()),
            format!("{:.5}%", 100.0 * p2.availability),
            format!("{:.1}", p2.performability),
        ]);
    }
    if rows.is_empty() {
        return String::new();
    }
    let mut s = String::from("<h2>Phase-2 projection</h2>\n");
    s.push_str(
        "<p>AT and AA (run) are measured over the injected run; AA (model) and P project \
         the run's stage parameters onto this fault class alone at Table 3 rates (monthly \
         application MTTF), with no reset warm-up term.</p>\n",
    );
    s.push_str(&table(
        &[
            "run",
            "Tn (req/s)",
            "AT run (req/s)",
            "AA run",
            "AA model",
            "P",
        ],
        &rows,
    ));
    s
}

/// Table 3: the fault-load weights every projection uses.
fn fault_load_section() -> String {
    let load = paper_fault_load(MONTH);
    let rows: Vec<Vec<String>> = load
        .iter()
        .map(|e| {
            vec![
                e.fault.name().to_string(),
                format!("{:.1}", e.mttf / DAY),
                format!("{:.0}", e.mttr),
                format!("{}", e.instances),
                format!("{:.4}", e.cluster_rate() * DAY),
            ]
        })
        .collect();
    let mut s = String::from("<h2>Fault load (Table 3, monthly application MTTF)</h2>\n");
    s.push_str(&table(
        &[
            "fault class",
            "MTTF (days)",
            "MTTR (s)",
            "instances",
            "cluster faults/day",
        ],
        &rows,
    ));
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use experiments::cluster::ClusterReport;
    use mendosus::{FaultKind, FaultSpec};
    use performability::stages::{SevenStage, StageMarkers};
    use press::PressVersion;
    use simnet::fabric::NodeId;
    use simnet::{AvailabilityCounter, SimDuration, SimTime, TimeSeries};

    /// A hand-built run: Tn 1000, stall 30–40, degraded 750 to 60, then
    /// recovered — the same shape the audit unit tests use.
    fn synthetic_run() -> FaultRunResult {
        let pts: Vec<(f64, f64)> = (0..90)
            .map(|i| {
                let t = i as f64 + 0.5;
                let v = if t < 30.0 {
                    1000.0
                } else if t < 40.0 {
                    0.0
                } else if t < 60.0 {
                    750.0
                } else {
                    1000.0
                };
                (t, v * (1.0 + 0.02 * ((i % 2) as f64 * 2.0 - 1.0)))
            })
            .collect();
        let series = TimeSeries::new(pts);
        let markers = StageMarkers {
            fault: 30.0,
            detected: Some(40.0),
            stabilized: Some(40.0),
            recovered: 60.0,
            restabilized: Some(60.0),
            reset: None,
            reset_done: None,
            end: 90.0,
        };
        let stages = SevenStage::from_series(&series, &markers, 1000.0);
        let mut latency_timeline = Vec::new();
        for i in 0..90 {
            let mut h = simnet::LatencyHistogram::new();
            h.record(0.005 + 0.0001 * (i % 7) as f64);
            latency_timeline.push(h);
        }
        FaultRunResult {
            version: PressVersion::Via5,
            fault: FaultSpec::transient(
                FaultKind::NodeCrash,
                NodeId(3),
                SimTime::from_secs(30),
                SimDuration::from_secs(30),
            ),
            series: series.clone(),
            report: ClusterReport {
                throughput: series,
                availability: AvailabilityCounter {
                    attempts: 1000,
                    successes: 950,
                    connect_timeouts: 30,
                    request_timeouts: 10,
                    refused: 10,
                },
                latency: simnet::LatencyHistogram::new(),
                latency_timeline,
                membership_log: Vec::new(),
                process_log: Vec::new(),
                final_members: vec![0, 1, 2, 3],
                all_running: true,
            },
            tn: 1000.0,
            markers,
            stages,
            needs_operator_reset: false,
            trace: None,
            attr: None,
        }
    }

    fn meta() -> ReportMeta {
        ReportMeta {
            target: "fig3".to_string(),
            title: "Figure 3: node crash".to_string(),
            scale: "small".to_string(),
            seed: 2003,
        }
    }

    #[test]
    fn report_renders_every_section() {
        let run = synthetic_run();
        let html = render_report(&meta(), &[run]);
        for needle in [
            "Figure 3: node crash",
            "VIA-PRESS-5 under Node crash",
            "Stage parameters",
            "Response time by stage",
            "Phase-2 projection",
            "Fault load (Table 3",
            "segmentation audit",
            "<svg",
        ] {
            assert!(html.contains(needle), "missing {needle:?}");
        }
        assert!(!html.contains("NaN"), "NaN leaked into the report");
    }

    #[test]
    fn rendering_is_byte_deterministic() {
        let run = synthetic_run();
        let a = render_report(&meta(), std::slice::from_ref(&run));
        let b = render_report(&meta(), &[run]);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_run_list_still_produces_a_page() {
        let html = render_report(&meta(), &[]);
        assert!(html.contains("0 runs"));
    }
}
