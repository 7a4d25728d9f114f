//! The Monte-Carlo performability dashboard: one page per
//! `repro -- montecarlo --report` invocation.
//!
//! Where the single-fault report draws A–G stage bands from the run
//! log, a Monte-Carlo timeline has no unique stage ladder — several
//! faults are active at once and gray faults never produce log events
//! at all. The generalization: one band per *active-fault interval*
//! (known exactly, since the campaign is generated), stacked into lanes
//! when faults overlap, with the blind change-point fit overlaid so the
//! reader can judge where the throughput regime actually shifted.
//! Rendering is pure and byte-deterministic for a fixed run.

use experiments::montecarlo::{McReplication, McRun};

use crate::audit::timed_segments;
use crate::dashboard::ReportMeta;
use crate::html::{esc, page, table};
use crate::svg::{mc_timeline_svg, McBand};

/// One band per active-fault interval, labeled with the fault and its
/// target.
fn bands(rep: &McReplication) -> Vec<McBand> {
    rep.intervals
        .iter()
        .map(|iv| {
            let label = match iv.spec.peer {
                Some(peer) => format!("{} n{}-n{}", iv.spec.kind.name(), iv.spec.node.0, peer.0),
                None => format!("{} n{}", iv.spec.kind.name(), iv.spec.node.0),
            };
            McBand {
                t0: iv.start.as_secs_f64(),
                t1: iv.end.as_secs_f64(),
                label,
                gray: iv.spec.kind.is_gray(),
            }
        })
        .collect()
}

fn summary_section(run: &McRun) -> String {
    let at = &run.result.at;
    let aa = &run.result.aa;
    let (aa_lo, aa_hi) = aa.interval();
    let mut s = String::from("<h2>Estimate</h2>\n");
    s.push_str(&table(
        &["quantity", "value", "95% CI"],
        &[
            vec![
                "baseline Tn (req/s)".to_string(),
                format!("{:.1}", run.result.tn),
                "—".to_string(),
            ],
            vec![
                format!("average throughput AT (req/s, n = {})", at.n),
                format!("{:.1}", at.mean),
                format!("± {:.1}", at.ci95),
            ],
            vec![
                "average availability AA".to_string(),
                format!("{:.4}", aa.mean),
                format!("[{aa_lo:.4}, {aa_hi:.4}]"),
            ],
        ],
    ));
    s
}

fn setup_section(run: &McRun) -> String {
    let setup = &run.setup;
    let mut s = String::from("<h2>Fault universe</h2>\n");
    let rows: Vec<Vec<String>> = setup
        .classes
        .iter()
        .map(|class| {
            vec![
                class.kind.name().to_string(),
                if class.kind.is_gray() {
                    "gray"
                } else {
                    "fail-stop"
                }
                .to_string(),
                format!("{:.0}", class.mean_between.as_secs_f64()),
                format!("{:.0}", class.duration.as_secs_f64()),
            ]
        })
        .collect();
    s.push_str(&table(
        &["arrival class", "kind", "mean between (s)", "duration (s)"],
        &rows,
    ));
    if setup.rules.is_empty() {
        s.push_str("<p>No correlation rules.</p>\n");
    } else {
        s.push_str("<ul>\n");
        for rule in &setup.rules {
            s.push_str(&format!("<li>correlation rule: {}</li>\n", esc(&rule.name)));
        }
        s.push_str("</ul>\n");
    }
    s
}

fn replication_section(i: usize, rep: &McReplication, run: &McRun) -> String {
    let o = &rep.overlap;
    let mut s = format!(
        "<section class=\"run\">\n<h2>Replication {i} (seed {seed})</h2>\n",
        seed = rep.seed,
    );
    s.push_str(&format!(
        "<p>{faults} faults ({corr} correlated), max {max} concurrent; {multi:.1} s with \
         two or more active, {grayfs:.1} s with gray and fail-stop faults overlapping.</p>\n",
        faults = o.faults,
        corr = o.correlated,
        max = o.max_concurrent,
        multi = o.multi_fault_secs,
        grayfs = o.gray_failstop_secs,
    ));
    s.push_str(&mc_timeline_svg(
        &rep.series,
        &timed_segments(&rep.series, &rep.fit),
        run.result.tn,
        run.end.as_secs_f64(),
        &bands(rep),
        &format!("Monte-Carlo replication {i} throughput timeline"),
    ));
    let (matched, total) = rep.change_points_near_fault_edges(3.0);
    s.push_str(&format!(
        "<p>Blind fit: {segs} segments; {matched}/{total} change points within 3 s of a \
         fault injection or recovery.</p>\n",
        segs = rep.fit.len(),
    ));
    s.push_str("</section>\n");
    s
}

/// Renders the Monte-Carlo report page.
pub fn render_mc_report(meta: &ReportMeta, run: &McRun) -> String {
    let mut body = format!(
        "<h1>{title}</h1>\n<p class=\"meta\">target {target} · scale {scale} · seed {seed} · \
         {version} · {n} replications · measured [{t0:.0} s, {t1:.0} s) · deterministic \
         render (byte-identical for a fixed seed, any --jobs)</p>\n",
        title = esc(&meta.title),
        target = esc(&meta.target),
        scale = esc(&meta.scale),
        seed = meta.seed,
        version = run.setup.version,
        n = run.reps.len(),
        t0 = run.measure_from.as_secs_f64(),
        t1 = run.end.as_secs_f64(),
    );
    body.push_str(&summary_section(run));
    body.push_str(&setup_section(run));
    for (i, rep) in run.reps.iter().enumerate() {
        body.push_str(&replication_section(i, rep, run));
    }
    body.push_str(&format!(
        "<footer>Fault bands are exact (the campaign is generated, not inferred); the blind \
         fit never sees them. Generated by <code>repro -- {target} --report</code>.</footer>\n",
        target = esc(&meta.target),
    ));
    page(
        &format!("{} — Monte-Carlo performability", meta.title),
        &body,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use experiments::montecarlo::{run_montecarlo, MonteCarloSetup};
    use experiments::phase2::RunScale;
    use press::PressVersion;

    fn tiny_run() -> McRun {
        let mut setup = MonteCarloSetup::showcase(PressVersion::TcpHb, RunScale::Small);
        setup.replications = 2;
        run_montecarlo(&setup, RunScale::Small, 2003, 2)
    }

    fn meta() -> ReportMeta {
        ReportMeta {
            target: "montecarlo".to_string(),
            title: "Monte-Carlo performability".to_string(),
            scale: "small".to_string(),
            seed: 2003,
        }
    }

    #[test]
    fn mc_report_renders_every_section() {
        let run = tiny_run();
        let html = render_mc_report(&meta(), &run);
        for needle in [
            "Monte-Carlo performability",
            "Estimate",
            "Fault universe",
            "Replication 0",
            "Replication 1",
            "average availability AA",
            "correlation rule",
            "<svg",
            "Blind fit",
        ] {
            assert!(html.contains(needle), "missing {needle:?}");
        }
        assert!(!html.contains("NaN"), "NaN leaked into the report");
    }

    #[test]
    fn mc_report_is_byte_deterministic() {
        let run = tiny_run();
        let a = render_mc_report(&meta(), &run);
        let b = render_mc_report(&meta(), &run);
        assert_eq!(a, b);
    }
}
