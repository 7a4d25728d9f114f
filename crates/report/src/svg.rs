//! Inline-SVG rendering for the report: the per-run throughput
//! timeline (stage bands, event annotations, measured curve, blind-fit
//! overlay, fault lane) and the Monte-Carlo replication and root-cause
//! timelines.
//!
//! The three timelines draw on one [`Plot`] frame — scales, gridlines,
//! axis labels, baseline, Tn line, fit and measured curves, legend and
//! lane strips — and each keeps only its own layer on top of it.
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
/// Stacked lanes below the axis (Monte-Carlo faults, attribution
/// causes): pitch and the top of the first lane.
const LANE_H: f64 = 11.0;
const LANE_Y0: f64 = T + PLOT_H + 20.0;

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

/// The opening `<svg>` tag of a `w` × `h` chart.
fn svg_open(w: f64, h: f64, aria_label: &str) -> String {
    format!(
        "<svg viewBox=\"0 0 {w} {h}\" width=\"{w}\" height=\"{h}\" role=\"img\" \
         aria-label=\"{label}\" xmlns=\"http://www.w3.org/2000/svg\">\n",
        w = c(w),
        h = c(h),
        label = esc(aria_label),
    )
}

/// A curve through `pts` (`"x,y"` pairs) in the first series color.
fn polyline(s: &mut String, pts: &[String]) {
    s.push_str(&format!(
        "<polyline points=\"{}\" style=\"stroke:var(--series-1);stroke-width:2;fill:none\"/>\n",
        pts.join(" "),
    ));
}

/// Height of a timeline with `lanes` stacked lanes below the axis.
fn stacked_height(lanes: usize) -> f64 {
    LANE_Y0 + lanes as f64 * LANE_H + 6.0
}

/// Top of stacked lane `i`.
fn lane_y(i: usize) -> f64 {
    LANE_Y0 + i as f64 * LANE_H
}

/// The frame shared by every timeline chart: `[0, end]` seconds across,
/// `[0, ymax]` up, and each common element drawn from one place.
struct Plot {
    end: f64,
    ymax: f64,
    /// Baseline of the x tick labels.
    x_label_y: f64,
}

impl Plot {
    /// A frame reaching 8% above `peak`.
    fn new(end: f64, peak: f64, x_label_y: f64) -> Self {
        Plot {
            end: end.max(1.0),
            ymax: peak.max(1.0) * 1.08,
            x_label_y,
        }
    }

    /// A frame tall enough for both the measured curve and Tn.
    fn throughput(series: &TimeSeries, tn: f64, end: f64, x_label_y: f64) -> Self {
        Plot::new(end, series.max().unwrap_or(0.0).max(tn), x_label_y)
    }

    fn x(&self, t: f64) -> f64 {
        L + (t / self.end).clamp(0.0, 1.0) * PLOT_W
    }

    fn y(&self, v: f64) -> f64 {
        T + PLOT_H * (1.0 - (v / self.ymax).clamp(0.0, 1.0))
    }

    /// Gridlines with y tick labels, the x tick labels, then the x
    /// baseline on top of them.
    fn axes(&self, s: &mut String) {
        let ystep = nice_step(self.ymax, 4);
        let mut v = 0.0;
        while v <= self.ymax {
            s.push_str(&format!(
                "<line x1=\"{x0}\" y1=\"{yy}\" x2=\"{x1}\" y2=\"{yy}\" \
                 style=\"stroke:var(--gridline);stroke-width:1\"/>\n\
                 <text x=\"{lx}\" y=\"{ly}\" text-anchor=\"end\" \
                 style=\"fill:var(--muted)\">{val:.0}</text>\n",
                x0 = c(L),
                x1 = c(W - R),
                yy = c(self.y(v)),
                lx = c(L - 6.0),
                ly = c(self.y(v) + 3.5),
                val = v,
            ));
            v += ystep;
        }
        let xstep = nice_step(self.end, 6);
        let mut t = 0.0;
        while t <= self.end {
            s.push_str(&format!(
                "<text x=\"{x}\" y=\"{y}\" text-anchor=\"middle\" \
                 style=\"fill:var(--muted)\">{t:.0}s</text>\n",
                x = c(self.x(t)),
                y = c(self.x_label_y),
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
    }

    /// The dashed normal-throughput reference line.
    fn tn_line(&self, s: &mut String, tn: f64) {
        s.push_str(&format!(
            "<line x1=\"{x0}\" y1=\"{yy}\" x2=\"{x1}\" y2=\"{yy}\" \
             style=\"stroke:var(--text-secondary);stroke-width:1;stroke-dasharray:2 3\"/>\n\
             <text x=\"{lx}\" y=\"{ly}\" text-anchor=\"end\" \
             style=\"fill:var(--text-secondary)\">Tn</text>\n",
            x0 = c(L),
            x1 = c(W - R),
            yy = c(self.y(tn)),
            lx = c(W - R - 2.0),
            ly = c(self.y(tn) - 4.0),
        ));
    }

    /// The blind-fit step path, the measured polyline over it, and the
    /// two-series legend top right inside the margin.
    fn curves(&self, s: &mut String, series: &TimeSeries, fit: &[AuditSegment]) {
        if !fit.is_empty() {
            let mut d = String::new();
            for (i, seg) in fit.iter().enumerate() {
                if i == 0 {
                    d.push_str(&format!("M{} {}", c(self.x(seg.t0)), c(self.y(seg.mean))));
                } else {
                    d.push_str(&format!("V{}", c(self.y(seg.mean))));
                }
                d.push_str(&format!("H{}", c(self.x(seg.t1))));
            }
            s.push_str(&format!(
                "<path d=\"{d}\" style=\"stroke:var(--series-2);stroke-width:2;fill:none;opacity:0.9\"/>\n",
            ));
        }

        let pts: Vec<String> = series
            .points
            .iter()
            .filter(|(pt, pv)| pt.is_finite() && pv.is_finite())
            .map(|&(pt, pv)| format!("{},{}", c(self.x(pt)), c(self.y(pv.max(0.0)))))
            .collect();
        if !pts.is_empty() {
            polyline(s, &pts);
        }

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
    }

    /// A full-height wash over the plot, `w` pixels wide from `x0`.
    fn wash(&self, s: &mut String, x0: f64, w: f64, var: &str, opacity: &str) {
        s.push_str(&format!(
            "<rect x=\"{x0}\" y=\"{y0}\" width=\"{w}\" height=\"{h}\" \
             style=\"fill:var({var});opacity:{opacity}\"/>\n",
            x0 = c(x0),
            y0 = c(T),
            w = c(w),
            h = c(PLOT_H),
        ));
    }

    /// A lane strip below the axis from `t0` to `t1`, at least a pixel
    /// wide, with its top at `ly`.
    fn lane(&self, s: &mut String, t0: f64, t1: f64, ly: f64, var: &str, opacity: &str) {
        s.push_str(&format!(
            "<rect x=\"{x0}\" y=\"{ly}\" width=\"{w}\" height=\"7\" rx=\"2\" \
             style=\"fill:var({var});opacity:{opacity}\"/>\n",
            x0 = c(self.x(t0)),
            ly = c(ly),
            w = c((self.x(t1) - self.x(t0)).max(1.0)),
        ));
    }
}

/// Renders the throughput timeline for one run.
pub fn timeline_svg(chart: &TimelineChart<'_>, aria_label: &str) -> String {
    let m = chart.markers;
    let p = Plot::throughput(chart.series, chart.tn, m.end, H - 6.0);
    let mut s = svg_open(W, H, aria_label);

    // Stage bands: alternating ink washes with the stage letter on top.
    for (i, (stage, t0, t1)) in m
        .intervals()
        .into_iter()
        .filter(|&(_, t0, t1)| t1 > t0)
        .enumerate()
    {
        let (x0, x1) = (p.x(t0), p.x(t1));
        let opacity = if i % 2 == 0 { "0.05" } else { "0.10" };
        p.wash(&mut s, x0, x1 - x0, "--text-primary", opacity);
        if x1 - x0 >= 13.0 {
            s.push_str(&format!(
                "<text x=\"{x}\" y=\"{y}\" text-anchor=\"middle\" \
                 style=\"fill:var(--text-secondary)\">{stage}</text>\n",
                x = c((x0 + x1) / 2.0),
                y = c(T + 13.0),
            ));
        }
    }

    p.axes(&mut s);
    p.tn_line(&mut s, chart.tn);

    // Event annotations: dashed verticals with staggered labels above.
    let mut events: Vec<(f64, &str, &str)> = vec![(m.fault, "fault", "--status-critical")];
    if let Some(d) = m.detected {
        events.push((d, "detected", "--status-serious"));
    }
    events.push((m.recovered, "repaired", "--status-good"));
    if let Some(r) = m.reset {
        events.push((r, "reset", "--status-serious"));
    }
    for (i, (et, name, var)) in events.iter().enumerate() {
        let ex = p.x(*et);
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

    p.curves(&mut s, chart.series, chart.fit);

    // Fault-injection lane: when the injected fault was active.
    let lane_y = T + PLOT_H + 8.0;
    p.lane(
        &mut s,
        m.fault,
        m.recovered,
        lane_y,
        "--status-critical",
        "0.55",
    );
    s.push_str(&format!(
        "<text x=\"{tx}\" y=\"{ty}\" style=\"fill:var(--muted)\">fault active</text>\n",
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

impl McBand {
    fn color(&self) -> &'static str {
        if self.gray {
            "--status-serious"
        } else {
            "--status-critical"
        }
    }
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
    let p = Plot::throughput(series, tn, end, T + PLOT_H + 14.0);

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
    let mut s = svg_open(W, stacked_height(lane_ends.len()), aria_label);

    // Active-fault washes over the plot.
    for b in bands {
        let x0 = p.x(b.t0);
        p.wash(&mut s, x0, (p.x(b.t1) - x0).max(0.5), b.color(), "0.05");
    }

    p.axes(&mut s);
    p.tn_line(&mut s, tn);
    p.curves(&mut s, series, fit);

    // Fault lanes below the axis.
    for (b, &lane) in bands.iter().zip(&lanes) {
        let ly = lane_y(lane);
        p.lane(&mut s, b.t0, b.t1, ly, b.color(), "0.55");
        let x0 = p.x(b.t0);
        if p.x(b.t1) - x0 >= 56.0 {
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
    let peak = timeline
        .iter()
        .map(|b| b.iter().sum::<u64>())
        .max()
        .unwrap_or(0)
        .max(1) as f64;
    let p = Plot::new(end.max(timeline.len() as f64), peak, T + PLOT_H + 14.0);
    let mut s = svg_open(W, stacked_height(telemetry::NCAUSES), aria_label);
    p.axes(&mut s);

    // Stacked per-second bars, cause index order bottom-up.
    for (sec, bucket) in timeline.iter().enumerate() {
        let x0 = p.x(sec as f64);
        let w = (p.x(sec as f64 + 1.0) - x0).max(0.5);
        let mut cum = 0u64;
        for (ci, &n) in bucket.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let y1 = p.y((cum + n) as f64);
            let y0 = p.y(cum as f64);
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
        let ly = lane_y(ci);
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
            p.lane(
                &mut s,
                start as f64,
                sec as f64,
                ly,
                ATTR_COLORS[ci],
                "0.75",
            );
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
    fn nice_steps_are_round() {
        assert_eq!(nice_step(90.0, 6), 20.0);
        assert_eq!(nice_step(240.0, 6), 50.0);
        assert_eq!(nice_step(1080.0, 4), 500.0);
        assert_eq!(nice_step(0.0, 4), 1.0);
    }

    /// FNV-1a over the rendered bytes: a change to any drawn byte
    /// changes the digest.
    fn fnv1a(s: &str) -> u64 {
        s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// A throughput curve with a dip between 30 s and 60 s and a
    /// half-recovered tail, on 1-second buckets.
    fn dip_series(end: usize) -> TimeSeries {
        TimeSeries::new(
            (0..end)
                .map(|i| {
                    let v = match i {
                        0..=29 => 950.0 + (i % 7) as f64 * 11.5,
                        30..=59 => 310.0 + (i % 5) as f64 * 23.25,
                        _ => 720.0 + (i % 3) as f64 * 40.125,
                    };
                    (i as f64 + 0.5, v)
                })
                .collect(),
        )
    }

    fn dip_fit() -> [AuditSegment; 3] {
        [
            AuditSegment {
                t0: 0.0,
                t1: 30.0,
                mean: 984.5,
            },
            AuditSegment {
                t0: 30.0,
                t1: 60.0,
                mean: 356.5,
            },
            AuditSegment {
                t0: 60.0,
                t1: 90.0,
                mean: 760.25,
            },
        ]
    }

    #[test]
    fn chart_bytes_are_pinned() {
        let series = dip_series(90);
        let fit = dip_fit();
        let stage = timeline_svg(
            &TimelineChart {
                series: &series,
                markers: &StageMarkers {
                    fault: 30.0,
                    detected: Some(34.5),
                    stabilized: Some(36.0),
                    recovered: 60.0,
                    restabilized: Some(64.0),
                    reset: Some(70.0),
                    reset_done: Some(75.5),
                    end: 90.0,
                },
                fit: &fit,
                tn: 1000.0,
            },
            "stage <chart> & co",
        );

        let bands = [
            McBand {
                t0: 10.0,
                t1: 45.0,
                label: "Node crash n2".into(),
                gray: false,
            },
            McBand {
                t0: 20.0,
                t1: 32.0,
                label: "Gray link <n1>".into(),
                gray: true,
            },
            McBand {
                t0: 30.0,
                t1: 90.0,
                label: "Switch & rack".into(),
                gray: false,
            },
            McBand {
                t0: 50.0,
                t1: 52.0,
                label: "App hang".into(),
                gray: false,
            },
        ];
        let mc = mc_timeline_svg(&series, &fit, 1000.0, 90.0, &bands, "mc chart");

        let timeline: Vec<[u64; telemetry::NCAUSES]> = (0..40u64)
            .map(|s| {
                let mut b = [0u64; telemetry::NCAUSES];
                if (5..12).contains(&s) {
                    b[0] = 40 - s;
                }
                if (8..20).contains(&s) {
                    b[1] = s % 4 + 1;
                }
                if s % 9 == 3 {
                    b[3] = 7;
                }
                if (25..31).contains(&s) {
                    b[4] = 2;
                    b[5] = s - 20;
                }
                b
            })
            .collect();
        let attr = attr_svg(&timeline, 45.0, "attr chart");

        // The inputs reach every optional layer the digests pin.
        assert!(stage.contains(">detected<") && stage.contains(">reset<"));
        assert!(mc.contains("Gray link &lt;n1&gt;") && mc.contains("--status-serious"));
        assert!(attr.contains(">fault_kill<") && attr.contains(">overload<"));
        assert_eq!((stage.len(), fnv1a(&stage)), (5441, 0x8b7f_17dd_d056_b1ba));
        assert_eq!((mc.len(), fnv1a(&mc)), (4245, 0x7d23_366f_60b7_afae));
        assert_eq!((attr.len(), fnv1a(&attr)), (6538, 0x661e_b17e_c36e_2ae6));
    }
}
