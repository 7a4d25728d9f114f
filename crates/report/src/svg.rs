//! Inline-SVG rendering for the report: the per-run throughput
//! timeline (stage bands, event annotations, measured curve, blind-fit
//! overlay, fault lane) and the bench-history sparkline.
//!
//! Everything routes through fixed-precision formatters so output is
//! byte-identical across runs and `--jobs` values; colors are CSS
//! custom properties from the page shell, so the charts follow the
//! light/dark theme with no extra markup.

use crate::audit::AuditSegment;
use crate::html::esc;
use performability::stages::StageMarkers;
use simnet::TimeSeries;

/// Inputs for one run's timeline chart.
pub struct TimelineChart<'a> {
    /// Measured throughput, one sample per bucket.
    pub series: &'a TimeSeries,
    /// Log-derived stage markers (bands + event annotations).
    pub markers: &'a StageMarkers,
    /// The blind piecewise-constant fit, drawn over the measurement.
    pub fit: &'a [AuditSegment],
    /// Normal throughput, drawn as a dashed reference line.
    pub tn: f64,
}

const W: f64 = 760.0;
const H: f64 = 268.0;
const L: f64 = 50.0; // left margin: y tick labels
const R: f64 = 14.0;
const T: f64 = 30.0; // top margin: event labels
const B: f64 = 50.0; // bottom margin: fault lane + x tick labels
const PLOT_W: f64 = W - L - R;
const PLOT_H: f64 = H - T - B;

/// Two-decimal coordinate formatting: enough for sub-pixel placement,
/// few enough digits to stay readable and deterministic.
fn c(v: f64) -> String {
    format!("{v:.2}")
}

/// A "nice" tick step (1/2/5 × 10^k) giving about `target` divisions.
fn nice_step(span: f64, target: usize) -> f64 {
    if span.is_nan() || span <= 0.0 {
        return 1.0;
    }
    let raw = span / target.max(1) as f64;
    let mag = 10f64.powf(raw.log10().floor());
    let norm = raw / mag;
    let mult = if norm <= 1.0 {
        1.0
    } else if norm <= 2.0 {
        2.0
    } else if norm <= 5.0 {
        5.0
    } else {
        10.0
    };
    mult * mag
}

/// Renders the throughput timeline for one run.
pub fn timeline_svg(chart: &TimelineChart<'_>, aria_label: &str) -> String {
    let end = chart.markers.end.max(1.0);
    let peak = chart.series.max().unwrap_or(0.0).max(chart.tn).max(1.0);
    let ymax = peak * 1.08;
    let x = |t: f64| L + (t / end).clamp(0.0, 1.0) * PLOT_W;
    let y = |v: f64| T + PLOT_H * (1.0 - (v / ymax).clamp(0.0, 1.0));

    let mut s = format!(
        "<svg viewBox=\"0 0 {w} {h}\" width=\"{w}\" height=\"{h}\" role=\"img\" \
         aria-label=\"{label}\" xmlns=\"http://www.w3.org/2000/svg\">\n",
        w = c(W),
        h = c(H),
        label = esc(aria_label),
    );

    // Stage bands: alternating ink washes with the stage letter on top.
    for (i, (stage, t0, t1)) in chart
        .markers
        .intervals()
        .into_iter()
        .filter(|&(_, t0, t1)| t1 > t0)
        .enumerate()
    {
        let (x0, x1) = (x(t0), x(t1));
        let opacity = if i % 2 == 0 { "0.05" } else { "0.10" };
        s.push_str(&format!(
            "<rect x=\"{x0}\" y=\"{y0}\" width=\"{w}\" height=\"{h}\" \
             style=\"fill:var(--text-primary);opacity:{opacity}\"/>\n",
            x0 = c(x0),
            y0 = c(T),
            w = c(x1 - x0),
            h = c(PLOT_H),
        ));
        if x1 - x0 >= 13.0 {
            s.push_str(&format!(
                "<text x=\"{x}\" y=\"{y}\" text-anchor=\"middle\" \
                 style=\"fill:var(--text-secondary)\">{stage}</text>\n",
                x = c((x0 + x1) / 2.0),
                y = c(T + 13.0),
            ));
        }
    }

    // Gridlines + y tick labels, with the x baseline on top of them.
    let ystep = nice_step(ymax, 4);
    let mut v = 0.0;
    while v <= ymax {
        s.push_str(&format!(
            "<line x1=\"{x0}\" y1=\"{yy}\" x2=\"{x1}\" y2=\"{yy}\" \
             style=\"stroke:var(--gridline);stroke-width:1\"/>\n\
             <text x=\"{lx}\" y=\"{ly}\" text-anchor=\"end\" \
             style=\"fill:var(--muted)\">{val:.0}</text>\n",
            x0 = c(L),
            x1 = c(W - R),
            yy = c(y(v)),
            lx = c(L - 6.0),
            ly = c(y(v) + 3.5),
            val = v,
        ));
        v += ystep;
    }
    let xstep = nice_step(end, 6);
    let mut t = 0.0;
    while t <= end {
        s.push_str(&format!(
            "<text x=\"{x}\" y=\"{y}\" text-anchor=\"middle\" \
             style=\"fill:var(--muted)\">{t:.0}s</text>\n",
            x = c(x(t)),
            y = c(H - 6.0),
        ));
        t += xstep;
    }
    s.push_str(&format!(
        "<line x1=\"{x0}\" y1=\"{yy}\" x2=\"{x1}\" y2=\"{yy}\" \
         style=\"stroke:var(--baseline);stroke-width:1\"/>\n",
        x0 = c(L),
        x1 = c(W - R),
        yy = c(T + PLOT_H),
    ));

    // Tn reference line.
    s.push_str(&format!(
        "<line x1=\"{x0}\" y1=\"{yy}\" x2=\"{x1}\" y2=\"{yy}\" \
         style=\"stroke:var(--text-secondary);stroke-width:1;stroke-dasharray:2 3\"/>\n\
         <text x=\"{lx}\" y=\"{ly}\" text-anchor=\"end\" \
         style=\"fill:var(--text-secondary)\">Tn</text>\n",
        x0 = c(L),
        x1 = c(W - R),
        yy = c(y(chart.tn)),
        lx = c(W - R - 2.0),
        ly = c(y(chart.tn) - 4.0),
    ));

    // Event annotations: dashed verticals with staggered labels above.
    let mut events: Vec<(f64, &str, &str)> =
        vec![(chart.markers.fault, "fault", "--status-critical")];
    if let Some(d) = chart.markers.detected {
        events.push((d, "detected", "--status-serious"));
    }
    events.push((chart.markers.recovered, "repaired", "--status-good"));
    if let Some(r) = chart.markers.reset {
        events.push((r, "reset", "--status-serious"));
    }
    for (i, (et, name, var)) in events.iter().enumerate() {
        let ex = x(*et);
        let ly = if i % 2 == 0 { 12.0 } else { 24.0 };
        s.push_str(&format!(
            "<line x1=\"{ex}\" y1=\"{y0}\" x2=\"{ex}\" y2=\"{y1}\" \
             style=\"stroke:var({var});stroke-width:1;stroke-dasharray:4 3\"/>\n\
             <text x=\"{lx}\" y=\"{ly}\" style=\"fill:var(--text-secondary)\">{name}</text>\n",
            ex = c(ex),
            y0 = c(T),
            y1 = c(T + PLOT_H),
            lx = c(ex + 3.0),
            ly = c(ly),
        ));
    }

    // Blind-fit overlay first (under the measured curve): a step path.
    if !chart.fit.is_empty() {
        let mut d = String::new();
        for (i, seg) in chart.fit.iter().enumerate() {
            if i == 0 {
                d.push_str(&format!("M{} {}", c(x(seg.t0)), c(y(seg.mean))));
            } else {
                d.push_str(&format!("V{}", c(y(seg.mean))));
            }
            d.push_str(&format!("H{}", c(x(seg.t1))));
        }
        s.push_str(&format!(
            "<path d=\"{d}\" style=\"stroke:var(--series-2);stroke-width:2;fill:none;opacity:0.9\"/>\n",
        ));
    }

    // Measured throughput.
    let pts: Vec<String> = chart
        .series
        .points
        .iter()
        .filter(|(pt, pv)| pt.is_finite() && pv.is_finite())
        .map(|&(pt, pv)| format!("{},{}", c(x(pt)), c(y(pv.max(0.0)))))
        .collect();
    if !pts.is_empty() {
        s.push_str(&format!(
            "<polyline points=\"{}\" style=\"stroke:var(--series-1);stroke-width:2;fill:none\"/>\n",
            pts.join(" "),
        ));
    }

    // Legend (two series): swatch + label, top right inside the margin.
    let legend_x = W - R - 196.0;
    s.push_str(&format!(
        "<rect x=\"{x1}\" y=\"6\" width=\"14\" height=\"3\" style=\"fill:var(--series-1)\"/>\n\
         <text x=\"{t1}\" y=\"12\" style=\"fill:var(--text-secondary)\">measured</text>\n\
         <rect x=\"{x2}\" y=\"6\" width=\"14\" height=\"3\" style=\"fill:var(--series-2)\"/>\n\
         <text x=\"{t2}\" y=\"12\" style=\"fill:var(--text-secondary)\">blind fit</text>\n",
        x1 = c(legend_x),
        t1 = c(legend_x + 18.0),
        x2 = c(legend_x + 90.0),
        t2 = c(legend_x + 108.0),
    ));

    // Fault-injection lane: when the injected fault was active.
    let lane_y = T + PLOT_H + 8.0;
    s.push_str(&format!(
        "<rect x=\"{x0}\" y=\"{ly}\" width=\"{w}\" height=\"7\" rx=\"2\" \
         style=\"fill:var(--status-critical);opacity:0.55\"/>\n\
         <text x=\"{tx}\" y=\"{ty}\" style=\"fill:var(--muted)\">fault active</text>\n",
        x0 = c(x(chart.markers.fault)),
        ly = c(lane_y),
        w = c((x(chart.markers.recovered) - x(chart.markers.fault)).max(1.0)),
        tx = c(L),
        ty = c(lane_y + 6.5),
    ));

    s.push_str("</svg>\n");
    s
}

/// One fault's active window on a Monte-Carlo timeline.
pub struct McBand {
    /// Injection time (seconds).
    pub t0: f64,
    /// Recovery time, clipped to the run end (seconds).
    pub t1: f64,
    /// Short label ("Node crash n2").
    pub label: String,
    /// Whether the fault is gray (degraded-but-alive) rather than
    /// fail-stop.
    pub gray: bool,
}

/// Renders one Monte-Carlo replication's timeline: the measured curve,
/// the Tn reference, the blind-fit overlay, a translucent wash over the
/// plot for every active-fault window, and a stacked lane per
/// concurrent fault below the axis (fail-stop in the critical color,
/// gray faults in the serious color). The SVG grows taller as lanes
/// stack, so arbitrarily overlapping campaigns stay readable.
pub fn mc_timeline_svg(
    series: &TimeSeries,
    fit: &[AuditSegment],
    tn: f64,
    end: f64,
    bands: &[McBand],
    aria_label: &str,
) -> String {
    let end = end.max(1.0);
    let peak = series.max().unwrap_or(0.0).max(tn).max(1.0);
    let ymax = peak * 1.08;
    let x = |t: f64| L + (t / end).clamp(0.0, 1.0) * PLOT_W;
    let y = |v: f64| T + PLOT_H * (1.0 - (v / ymax).clamp(0.0, 1.0));

    // Greedy first-fit lane assignment: bands arrive sorted by start,
    // each takes the first lane free at its start time.
    let mut lane_ends: Vec<f64> = Vec::new();
    let mut lanes: Vec<usize> = Vec::with_capacity(bands.len());
    for b in bands {
        let lane = lane_ends
            .iter()
            .position(|&e| e <= b.t0)
            .unwrap_or(lane_ends.len());
        if lane == lane_ends.len() {
            lane_ends.push(b.t1);
        } else {
            lane_ends[lane] = b.t1;
        }
        lanes.push(lane);
    }
    const LANE_H: f64 = 11.0;
    let lane_y0 = T + PLOT_H + 20.0;
    let h = lane_y0 + lane_ends.len() as f64 * LANE_H + 6.0;

    let mut s = format!(
        "<svg viewBox=\"0 0 {w} {h}\" width=\"{w}\" height=\"{h}\" role=\"img\" \
         aria-label=\"{label}\" xmlns=\"http://www.w3.org/2000/svg\">\n",
        w = c(W),
        h = c(h),
        label = esc(aria_label),
    );

    // Active-fault washes over the plot.
    for b in bands {
        let (x0, x1) = (x(b.t0), x(b.t1));
        let var = if b.gray {
            "--status-serious"
        } else {
            "--status-critical"
        };
        s.push_str(&format!(
            "<rect x=\"{x0}\" y=\"{y0}\" width=\"{w}\" height=\"{ph}\" \
             style=\"fill:var({var});opacity:0.05\"/>\n",
            x0 = c(x0),
            y0 = c(T),
            w = c((x1 - x0).max(0.5)),
            ph = c(PLOT_H),
        ));
    }

    // Gridlines + ticks + baseline, same recipe as the stage timeline.
    let ystep = nice_step(ymax, 4);
    let mut v = 0.0;
    while v <= ymax {
        s.push_str(&format!(
            "<line x1=\"{x0}\" y1=\"{yy}\" x2=\"{x1}\" y2=\"{yy}\" \
             style=\"stroke:var(--gridline);stroke-width:1\"/>\n\
             <text x=\"{lx}\" y=\"{ly}\" text-anchor=\"end\" \
             style=\"fill:var(--muted)\">{val:.0}</text>\n",
            x0 = c(L),
            x1 = c(W - R),
            yy = c(y(v)),
            lx = c(L - 6.0),
            ly = c(y(v) + 3.5),
            val = v,
        ));
        v += ystep;
    }
    let xstep = nice_step(end, 6);
    let mut t = 0.0;
    while t <= end {
        s.push_str(&format!(
            "<text x=\"{x}\" y=\"{y}\" text-anchor=\"middle\" \
             style=\"fill:var(--muted)\">{t:.0}s</text>\n",
            x = c(x(t)),
            y = c(T + PLOT_H + 14.0),
        ));
        t += xstep;
    }
    s.push_str(&format!(
        "<line x1=\"{x0}\" y1=\"{yy}\" x2=\"{x1}\" y2=\"{yy}\" \
         style=\"stroke:var(--baseline);stroke-width:1\"/>\n",
        x0 = c(L),
        x1 = c(W - R),
        yy = c(T + PLOT_H),
    ));

    // Tn reference line.
    s.push_str(&format!(
        "<line x1=\"{x0}\" y1=\"{yy}\" x2=\"{x1}\" y2=\"{yy}\" \
         style=\"stroke:var(--text-secondary);stroke-width:1;stroke-dasharray:2 3\"/>\n\
         <text x=\"{lx}\" y=\"{ly}\" text-anchor=\"end\" \
         style=\"fill:var(--text-secondary)\">Tn</text>\n",
        x0 = c(L),
        x1 = c(W - R),
        yy = c(y(tn)),
        lx = c(W - R - 2.0),
        ly = c(y(tn) - 4.0),
    ));

    // Blind-fit overlay under the measured curve.
    if !fit.is_empty() {
        let mut d = String::new();
        for (i, seg) in fit.iter().enumerate() {
            if i == 0 {
                d.push_str(&format!("M{} {}", c(x(seg.t0)), c(y(seg.mean))));
            } else {
                d.push_str(&format!("V{}", c(y(seg.mean))));
            }
            d.push_str(&format!("H{}", c(x(seg.t1))));
        }
        s.push_str(&format!(
            "<path d=\"{d}\" style=\"stroke:var(--series-2);stroke-width:2;fill:none;opacity:0.9\"/>\n",
        ));
    }

    // Measured throughput.
    let pts: Vec<String> = series
        .points
        .iter()
        .filter(|(pt, pv)| pt.is_finite() && pv.is_finite())
        .map(|&(pt, pv)| format!("{},{}", c(x(pt)), c(y(pv.max(0.0)))))
        .collect();
    if !pts.is_empty() {
        s.push_str(&format!(
            "<polyline points=\"{}\" style=\"stroke:var(--series-1);stroke-width:2;fill:none\"/>\n",
            pts.join(" "),
        ));
    }

    // Legend.
    let legend_x = W - R - 196.0;
    s.push_str(&format!(
        "<rect x=\"{x1}\" y=\"6\" width=\"14\" height=\"3\" style=\"fill:var(--series-1)\"/>\n\
         <text x=\"{t1}\" y=\"12\" style=\"fill:var(--text-secondary)\">measured</text>\n\
         <rect x=\"{x2}\" y=\"6\" width=\"14\" height=\"3\" style=\"fill:var(--series-2)\"/>\n\
         <text x=\"{t2}\" y=\"12\" style=\"fill:var(--text-secondary)\">blind fit</text>\n",
        x1 = c(legend_x),
        t1 = c(legend_x + 18.0),
        x2 = c(legend_x + 90.0),
        t2 = c(legend_x + 108.0),
    ));

    // Fault lanes below the axis.
    for (b, lane) in bands.iter().zip(&lanes) {
        let (x0, x1) = (x(b.t0), x(b.t1));
        let ly = lane_y0 + *lane as f64 * LANE_H;
        let var = if b.gray {
            "--status-serious"
        } else {
            "--status-critical"
        };
        s.push_str(&format!(
            "<rect x=\"{x0}\" y=\"{ly}\" width=\"{w}\" height=\"7\" rx=\"2\" \
             style=\"fill:var({var});opacity:0.55\"/>\n",
            x0 = c(x0),
            ly = c(ly),
            w = c((x1 - x0).max(1.0)),
        ));
        if x1 - x0 >= 56.0 {
            s.push_str(&format!(
                "<text x=\"{tx}\" y=\"{ty}\" style=\"fill:var(--muted)\">{label}</text>\n",
                tx = c(x0 + 2.0),
                ty = c(ly + 6.5),
                label = esc(&b.label),
            ));
        }
    }

    s.push_str("</svg>\n");
    s
}

/// Per-cause CSS color variables for the attribution chart, in
/// [`telemetry::RootCause`] index order.
const ATTR_COLORS: [&str; telemetry::NCAUSES] = [
    "--status-critical", // fault-window kill
    "--series-2",        // retransmit/abort stall
    "--series-1",        // broadcast freeze
    "--status-serious",  // detection lag
    "--muted",           // gray-link loss
    "--baseline",        // overload queueing
];

/// Renders one run's root-cause attribution timeline: a stacked bar per
/// simulated second (losses split by cause, in index order bottom-up)
/// over the plot, and one lane per cause below the axis marking the
/// seconds in which that cause took losses.
pub fn attr_svg(timeline: &[[u64; telemetry::NCAUSES]], end: f64, aria_label: &str) -> String {
    let end = end.max(timeline.len() as f64).max(1.0);
    let peak = timeline
        .iter()
        .map(|b| b.iter().sum::<u64>())
        .max()
        .unwrap_or(0)
        .max(1) as f64;
    let ymax = peak * 1.08;
    let x = |t: f64| L + (t / end).clamp(0.0, 1.0) * PLOT_W;
    let y = |v: f64| T + PLOT_H * (1.0 - (v / ymax).clamp(0.0, 1.0));

    const LANE_H: f64 = 11.0;
    let lane_y0 = T + PLOT_H + 20.0;
    let h = lane_y0 + telemetry::NCAUSES as f64 * LANE_H + 6.0;

    let mut s = format!(
        "<svg viewBox=\"0 0 {w} {h}\" width=\"{w}\" height=\"{h}\" role=\"img\" \
         aria-label=\"{label}\" xmlns=\"http://www.w3.org/2000/svg\">\n",
        w = c(W),
        h = c(h),
        label = esc(aria_label),
    );

    // Gridlines + ticks + baseline, same recipe as the other timelines.
    let ystep = nice_step(ymax, 4);
    let mut v = 0.0;
    while v <= ymax {
        s.push_str(&format!(
            "<line x1=\"{x0}\" y1=\"{yy}\" x2=\"{x1}\" y2=\"{yy}\" \
             style=\"stroke:var(--gridline);stroke-width:1\"/>\n\
             <text x=\"{lx}\" y=\"{ly}\" text-anchor=\"end\" \
             style=\"fill:var(--muted)\">{val:.0}</text>\n",
            x0 = c(L),
            x1 = c(W - R),
            yy = c(y(v)),
            lx = c(L - 6.0),
            ly = c(y(v) + 3.5),
            val = v,
        ));
        v += ystep;
    }
    let xstep = nice_step(end, 6);
    let mut t = 0.0;
    while t <= end {
        s.push_str(&format!(
            "<text x=\"{x}\" y=\"{y}\" text-anchor=\"middle\" \
             style=\"fill:var(--muted)\">{t:.0}s</text>\n",
            x = c(x(t)),
            y = c(T + PLOT_H + 14.0),
        ));
        t += xstep;
    }
    s.push_str(&format!(
        "<line x1=\"{x0}\" y1=\"{yy}\" x2=\"{x1}\" y2=\"{yy}\" \
         style=\"stroke:var(--baseline);stroke-width:1\"/>\n",
        x0 = c(L),
        x1 = c(W - R),
        yy = c(T + PLOT_H),
    ));

    // Stacked per-second bars, cause index order bottom-up.
    for (sec, bucket) in timeline.iter().enumerate() {
        let x0 = x(sec as f64);
        let w = (x(sec as f64 + 1.0) - x0).max(0.5);
        let mut cum = 0u64;
        for (ci, &n) in bucket.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let y1 = y((cum + n) as f64);
            let y0 = y(cum as f64);
            s.push_str(&format!(
                "<rect x=\"{x0}\" y=\"{y1}\" width=\"{w}\" height=\"{bh}\" \
                 style=\"fill:var({var});opacity:0.85\"/>\n",
                x0 = c(x0),
                y1 = c(y1),
                w = c(w),
                bh = c((y0 - y1).max(0.3)),
                var = ATTR_COLORS[ci],
            ));
            cum += n;
        }
    }

    // One lane per cause: a strip for every contiguous run of seconds
    // in which the cause took losses, labelled at the left edge.
    for (ci, cause) in telemetry::CAUSES.iter().enumerate() {
        let ly = lane_y0 + ci as f64 * LANE_H;
        let mut sec = 0usize;
        while sec < timeline.len() {
            if timeline[sec][ci] == 0 {
                sec += 1;
                continue;
            }
            let start = sec;
            while sec < timeline.len() && timeline[sec][ci] > 0 {
                sec += 1;
            }
            s.push_str(&format!(
                "<rect x=\"{x0}\" y=\"{ly}\" width=\"{w}\" height=\"7\" rx=\"2\" \
                 style=\"fill:var({var});opacity:0.75\"/>\n",
                x0 = c(x(start as f64)),
                ly = c(ly),
                w = c((x(sec as f64) - x(start as f64)).max(1.0)),
                var = ATTR_COLORS[ci],
            ));
        }
        // Label on top of the strips so it stays readable.
        s.push_str(&format!(
            "<text x=\"{tx}\" y=\"{ty}\" style=\"fill:var(--text-secondary)\">{label}</text>\n",
            tx = c(L + 2.0),
            ty = c(ly + 6.5),
            label = esc(cause.key()),
        ));
    }

    s.push_str("</svg>\n");
    s
}

/// A small single-series sparkline with first/last value labels — used
/// for the `repro -- all` wall-time history.
pub fn history_svg(values: &[f64], unit: &str, aria_label: &str) -> String {
    const HW: f64 = 420.0;
    const HH: f64 = 64.0;
    const HPAD: f64 = 8.0;
    let mut s = format!(
        "<svg viewBox=\"0 0 {w} {h}\" width=\"{w}\" height=\"{h}\" role=\"img\" \
         aria-label=\"{label}\" xmlns=\"http://www.w3.org/2000/svg\">\n",
        w = c(HW),
        h = c(HH),
        label = esc(aria_label),
    );
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    if finite.is_empty() {
        s.push_str(&format!(
            "<text x=\"{x}\" y=\"{y}\" style=\"fill:var(--muted)\">no history yet</text>\n",
            x = c(HPAD),
            y = c(HH / 2.0),
        ));
        s.push_str("</svg>\n");
        return s;
    }
    let max = finite.iter().fold(f64::MIN, |a, &b| a.max(b)).max(1e-9);
    let span = (finite.len() as f64 - 1.0).max(1.0);
    let x = |i: usize| HPAD + 56.0 + (i as f64 / span) * (HW - 2.0 * HPAD - 112.0);
    let y = |v: f64| HPAD + (HH - 2.0 * HPAD) * (1.0 - (v / max).clamp(0.0, 1.0));
    let pts: Vec<String> = finite
        .iter()
        .enumerate()
        .map(|(i, &v)| format!("{},{}", c(x(i)), c(y(v))))
        .collect();
    if pts.len() == 1 {
        s.push_str(&format!(
            "<circle cx=\"{cx}\" cy=\"{cy}\" r=\"3\" style=\"fill:var(--series-1)\"/>\n",
            cx = c(x(0)),
            cy = c(y(finite[0])),
        ));
    } else {
        s.push_str(&format!(
            "<polyline points=\"{}\" style=\"stroke:var(--series-1);stroke-width:2;fill:none\"/>\n",
            pts.join(" "),
        ));
    }
    let first = finite[0];
    let last = *finite.last().expect("non-empty");
    s.push_str(&format!(
        "<text x=\"{fx}\" y=\"{fy}\" text-anchor=\"end\" style=\"fill:var(--muted)\">{first:.1}{unit}</text>\n\
         <text x=\"{lx}\" y=\"{ly2}\" style=\"fill:var(--text-primary)\">{last:.1}{unit}</text>\n",
        fx = c(HPAD + 50.0),
        fy = c(y(first) + 3.5),
        lx = c(HW - HPAD - 106.0),
        ly2 = c(y(last) + 3.5),
        unit = esc(unit),
    ));
    s.push_str("</svg>\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use performability::stages::StageMarkers;

    fn markers() -> StageMarkers {
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

    #[test]
    fn timeline_contains_bands_events_and_both_series() {
        let series = TimeSeries::new((0..90).map(|i| (i as f64 + 0.5, 900.0)).collect());
        let fit = [AuditSegment {
            t0: 0.0,
            t1: 90.0,
            mean: 900.0,
        }];
        let svg = timeline_svg(
            &TimelineChart {
                series: &series,
                markers: &markers(),
                fit: &fit,
                tn: 1000.0,
            },
            "test chart",
        );
        for needle in [
            ">A<",
            ">C<",
            ">E<",
            "fault",
            "detected",
            "repaired",
            "measured",
            "blind fit",
            "polyline",
            "Tn",
            "fault active",
        ] {
            assert!(svg.contains(needle), "missing {needle:?} in svg");
        }
        assert!(!svg.contains("NaN"));
    }

    #[test]
    fn empty_series_still_renders_a_frame() {
        let svg = timeline_svg(
            &TimelineChart {
                series: &TimeSeries::new(Vec::new()),
                markers: &markers(),
                fit: &[],
                tn: 0.0,
            },
            "empty",
        );
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>\n"));
        assert!(!svg.contains("NaN"));
    }

    #[test]
    fn history_handles_empty_single_and_many() {
        assert!(history_svg(&[], "s", "hist").contains("no history yet"));
        assert!(history_svg(&[12.0], "s", "hist").contains("circle"));
        let multi = history_svg(&[10.0, 12.0, 9.5], "s", "hist");
        assert!(multi.contains("polyline"));
        assert!(multi.contains("9.5s"));
    }

    #[test]
    fn nice_steps_are_round() {
        assert_eq!(nice_step(90.0, 6), 20.0);
        assert_eq!(nice_step(240.0, 6), 50.0);
        assert_eq!(nice_step(1080.0, 4), 500.0);
        assert_eq!(nice_step(0.0, 4), 1.0);
    }
}
