//! One entry point per table and figure of the paper.
//!
//! Each function returns the regenerated content as renderable text
//! (plus structured data where useful). The `repro` binary in the
//! `bench` crate maps subcommands onto these.

use mendosus::{Campaign, FaultKind};
use performability::fault_load::{paper_fault_load, FaultEntry, ModelFault, DAY, MONTH, WEEK};
use performability::metric::IDEAL_AVAILABILITY;
use performability::sensitivity::{crossover_multiplier, performability_at};
use press::PressVersion;
use simnet::SimTime;

use crate::cluster::ClusterConfig;
use crate::phase1::{attr_stage_spans, attr_totals, run_fault_experiment, FaultRunResult};
use crate::phase2::{
    behaviors_for_load, config_for, evaluate, model_for_kind, phase1_grid, scenario_at,
    version_profiles, RunScale, VersionProfile,
};
use crate::render::{bar, sparkline, table};
use crate::runner::{run_indexed, Run};

/// Default seed used by the repro harness.
pub const REPRO_SEED: u64 = 2003;

/// Builds the per-version profiles shared by Figures 6–10 and the
/// crossover analysis. Expensive at paper scale — `jobs > 1` fans the
/// 60 underlying simulations out across workers with bit-identical
/// results (every run takes an explicit seed).
pub fn build_profiles(scale: RunScale, seed: u64, jobs: usize) -> Vec<VersionProfile> {
    version_profiles(&PressVersion::ALL, scale, seed, jobs)
}

// ---------------------------------------------------------------------
// Tables
// ---------------------------------------------------------------------

/// Table 1: near-peak throughput of the five versions, one independent
/// saturation run each (fanned across `jobs` workers). With `metrics`,
/// each version's deterministic metrics summary (counters, gauges —
/// including the `client.latency_p50/p95/p99_ms` percentiles — and
/// histograms) from the same runs follows the table.
pub fn table1(
    scale: RunScale,
    seed: u64,
    jobs: usize,
    metrics: bool,
) -> (String, Vec<(PressVersion, f64)>) {
    let (measure_until, window) = match scale {
        RunScale::Paper => (40u64, (10.0, 40.0)),
        RunScale::Small => (15u64, (5.0, 15.0)),
    };
    let data = run_indexed(jobs, PressVersion::ALL.to_vec(), |_i, v| {
        let config = match scale {
            RunScale::Paper => ClusterConfig::paper_defaults(v),
            RunScale::Small => {
                let mut c = ClusterConfig::small(v);
                c.rate = 2_500.0; // saturate the shrunk test-bed
                c
            }
        };
        let end = SimTime::from_secs(measure_until);
        let obs = Run::new(config, Campaign::none(), end, seed).observe();
        let throughput = obs.sim.mean_throughput(window.0, window.1);
        let summary = metrics.then(|| obs.metrics_text(&format!("table1 {} seed{seed}", v.name())));
        (v, throughput, summary)
    });
    let rows: Vec<Vec<String>> = data
        .iter()
        .map(|&(v, t, _)| {
            vec![
                v.name().to_string(),
                format!("{t:.0}"),
                format!("{:.0}", v.paper_throughput()),
                format!(
                    "{:+.1}%",
                    100.0 * (t - v.paper_throughput()) / v.paper_throughput()
                ),
                v.main_features().to_string(),
            ]
        })
        .collect();
    let mut text = format!(
        "Table 1 — near-peak throughput of the PRESS versions (4 nodes)\n\n{}",
        table(
            &[
                "version",
                "measured req/s",
                "paper req/s",
                "delta",
                "main features"
            ],
            &rows
        )
    );
    for summary in data.iter().filter_map(|(_, _, m)| m.as_deref()) {
        text.push('\n');
        text.push_str(summary);
    }
    (text, data.into_iter().map(|(v, t, _)| (v, t)).collect())
}

/// Table 2: the fault catalogue.
pub fn table2() -> String {
    let rows: Vec<Vec<String>> = FaultKind::ALL
        .iter()
        .map(|k| {
            vec![
                k.category().to_string(),
                k.name().to_string(),
                k.example_sources().to_string(),
                k.mechanism().to_string(),
            ]
        })
        .collect();
    format!(
        "Table 2 — faults injected and their sources\n\n{}",
        table(
            &[
                "category",
                "fault",
                "example error sources",
                "injection mechanism"
            ],
            &rows
        )
    )
}

/// Table 3: the fault load (MTTF/MTTR), at a given application fault
/// rate.
pub fn table3(app_mttf: f64) -> String {
    let rows: Vec<Vec<String>> = paper_fault_load(app_mttf)
        .iter()
        .map(|e| {
            vec![
                e.fault.name().to_string(),
                human_secs(e.mttf),
                human_secs(e.mttr),
                e.instances.to_string(),
            ]
        })
        .collect();
    format!(
        "Table 3 — fault loads (application MTTF = {})\n\n{}",
        human_secs(app_mttf),
        table(&["fault", "MTTF", "MTTR", "instances"], &rows)
    )
}

fn human_secs(s: f64) -> String {
    if s >= 364.0 * DAY {
        format!("{:.0} year", s / (365.0 * DAY))
    } else if s >= 59.0 * DAY {
        format!("{:.0} months", s / MONTH)
    } else if s >= 13.9 * DAY {
        format!("{:.0} weeks", s / WEEK)
    } else if s >= DAY {
        format!("{:.0} days", s / DAY)
    } else if s >= 3600.0 {
        format!("{:.0} hour", s / 3600.0)
    } else if s >= 60.0 {
        format!("{:.0} minutes", s / 60.0)
    } else {
        format!("{s:.0} s")
    }
}

// ---------------------------------------------------------------------
// Timeline figures (2-5)
// ---------------------------------------------------------------------

/// Renders one run as a titled sparkline plus its stage extraction.
pub fn render_timeline(r: &FaultRunResult) -> String {
    let width = 72;
    let max = r.tn * 1.2;
    let line = sparkline(&r.series, width, max);
    let span = r.markers.end.max(1e-9);
    let col = |t: f64| ((t / span) * (width as f64 - 1.0)).round() as usize;
    let mut marks = vec![' '; width];
    marks[col(r.markers.fault)] = 'F';
    if let Some(rec) = r.fault.recovery_at() {
        marks[col(rec.as_secs_f64())] = 'R';
    }
    let marks: String = marks.into_iter().collect();
    let mut out = format!(
        "{} under {} (Tn = {:.0} req/s, fault at F, component recovery at R)\n  |{line}|\n  |{marks}|\n",
        r.version.name(),
        r.fault.kind.name(),
        r.tn,
    );
    let mut rows = Vec::new();
    for (stage, p) in r.stages.iter() {
        if p.duration > 0.0 {
            rows.push(vec![
                stage.to_string(),
                format!("{:.1} s", p.duration),
                format!("{:.0} req/s", p.throughput),
                format!("{:.0}% of Tn", 100.0 * p.throughput / r.tn),
            ]);
        }
    }
    if rows.is_empty() {
        out.push_str("  (no degraded stages: the fault had no visible effect)\n");
    } else {
        out.push_str(&indent(
            &table(&["stage", "duration", "throughput", "level"], &rows),
            2,
        ));
    }
    out.push_str(&format!(
        "  detection: {}; outcome: {}\n",
        match r.markers.detected {
            Some(d) => format!("{:.1} s after injection", d - r.markers.fault),
            None => "never (rode the fault out)".to_string(),
        },
        if r.needs_operator_reset {
            "cluster left splintered/degraded — operator reset required"
        } else {
            "returned to normal operation"
        }
    ));
    let lat = &r.report.latency;
    if lat.count() > 0 {
        out.push_str(&format!(
            "  response time over the run: p50 {:.1} ms, p95 {:.1} ms, p99 {:.1} ms\n",
            lat.quantile(0.50) * 1e3,
            lat.quantile(0.95) * 1e3,
            lat.quantile(0.99) * 1e3,
        ));
    }
    out
}

fn indent(s: &str, n: usize) -> String {
    let pad = " ".repeat(n);
    s.lines().map(|l| format!("{pad}{l}\n")).collect()
}

/// A timeline figure's header, `(version, fault)` run list, and
/// footnote.
type TimelineSpec = (&'static str, Vec<(PressVersion, FaultKind)>, &'static str);

/// The runs behind each timeline figure (`fig2`–`fig5`), with the
/// figure's header and footnote. `None` for non-timeline targets.
fn timeline_spec(target: &str) -> Option<TimelineSpec> {
    match target {
        "fig2" => Some((
            "Figure 2 — transient link failure (intra-cluster link of node 3)",
            [PressVersion::Tcp, PressVersion::TcpHb, PressVersion::Via5]
                .map(|v| (v, FaultKind::LinkDown))
                .to_vec(),
            "(VIA-PRESS-0 and VIA-PRESS-3 behave essentially like VIA-PRESS-5, as in the paper.)\n",
        )),
        "fig3" => Some((
            "Figure 3 — node crash (hard reboot of node 3)",
            [PressVersion::Tcp, PressVersion::TcpHb, PressVersion::Via5]
                .map(|v| (v, FaultKind::NodeCrash))
                .to_vec(),
            "",
        )),
        "fig4" => Some((
            "Figure 4 — memory exhaustion (kernel allocation for TCP; pinnable memory for VIA-5)",
            vec![
                (PressVersion::Tcp, FaultKind::KernelAllocFail),
                (PressVersion::TcpHb, FaultKind::KernelAllocFail),
                (PressVersion::Via0, FaultKind::MemPinFail),
                (PressVersion::Via5, FaultKind::MemPinFail),
            ],
            "(VIA versions pre-allocate, so kernel allocation faults do not touch them;\n only the zero-copy VIA-PRESS-5 is exposed to pinning exhaustion.)\n",
        )),
        "fig5" => Some((
            "Figure 5 — NULL data pointer passed to a file-data send on node 3",
            [PressVersion::Tcp, PressVersion::Via0, PressVersion::Via5]
                .map(|v| (v, FaultKind::BadParamNull))
                .to_vec(),
            "",
        )),
        _ => None,
    }
}

/// Runs one timeline figure (`fig2`–`fig5`) and returns both its
/// rendered text and the underlying runs in task order, so the trace
/// exporters and the HTML report never repeat a simulation. `trace` and
/// `attribution` switch the runs' observers on (see
/// [`FaultRunResult::trace`] and [`FaultRunResult::attr`]); each run
/// that carries an attribution report is followed in the text by its
/// root-cause section (Pareto table, conservation verdict, losses by
/// stage, critical-path percentiles). Output is byte-identical for any
/// `jobs`. `None` when `target` is not a timeline figure.
pub fn timeline_results(
    target: &str,
    scale: RunScale,
    seed: u64,
    jobs: usize,
    trace: bool,
    attribution: bool,
) -> Option<(String, Vec<FaultRunResult>)> {
    let (header, runs, footer) = timeline_spec(target)?;
    let results = run_indexed(jobs, runs, |_i, (v, kind)| {
        let mut config = config_for(v, scale);
        if trace {
            config.trace = telemetry::TraceConfig::STANDARD;
        }
        config.attribution = attribution;
        run_fault_experiment(config, scenario_at(kind, scale), seed)
    });
    let mut out = format!("{header}\n\n");
    for r in &results {
        out.push_str(&render_timeline(r));
        out.push('\n');
        if let Some(attr) = &r.attr {
            let label = format!(
                "{} under {} (seed {seed})",
                r.version.name(),
                r.fault.kind.name()
            );
            out.push_str(&attr.render_text(&label, &attr_totals(r), &attr_stage_spans(r)));
            out.push('\n');
        }
    }
    out.push_str(footer);
    Some((out, results))
}

// ---------------------------------------------------------------------
// Figures 6-10 and the crossover (phase 2)
// ---------------------------------------------------------------------

fn breakdown_by_category(breakdown: &[(FaultEntry, f64)]) -> Vec<(&'static str, f64)> {
    let cat = |f: ModelFault| match f {
        ModelFault::LinkDown | ModelFault::SwitchDown => "network",
        ModelFault::NodeCrash | ModelFault::NodeFreeze => "node",
        ModelFault::MemPin | ModelFault::MemAlloc => "memory",
        ModelFault::ProcessCrash | ModelFault::ViaPacketDrop | ModelFault::ViaExtraBug => "crash",
        ModelFault::ProcessHang => "hang",
        ModelFault::BadNull | ModelFault::BadOffPtr | ModelFault::BadOffSize => "bad-param",
        ModelFault::ViaSystemCrash => "network",
    };
    let mut cats: Vec<(&'static str, f64)> = vec![
        ("network", 0.0),
        ("node", 0.0),
        ("memory", 0.0),
        ("crash", 0.0),
        ("hang", 0.0),
        ("bad-param", 0.0),
    ];
    for (e, u) in breakdown {
        let c = cat(e.fault);
        if let Some(slot) = cats.iter_mut().find(|(name, _)| *name == c) {
            slot.1 += u;
        }
    }
    cats
}

/// Figure 6: unavailability (with per-category contributions) and
/// performability at application fault rates of 1/day and 1/month.
pub fn fig6(profiles: &[VersionProfile]) -> String {
    let mut out = String::from(
        "Figure 6 — modeled (a) unavailability and (b) performability\n\
         (per version: left bar = app fault rate 1/day, right bar = 1/month)\n\n",
    );
    let mut rows_u = Vec::new();
    let mut rows_p = Vec::new();
    let mut max_p: f64 = 0.0;
    let mut results = Vec::new();
    for p in profiles {
        for (label, mttf) in [("1/day", DAY), ("1/month", MONTH)] {
            let r = evaluate(p, &paper_fault_load(mttf));
            max_p = max_p.max(r.performability);
            results.push((p.version, label, r));
        }
    }
    for (version, label, r) in &results {
        let cats = breakdown_by_category(&r.breakdown);
        let detail = cats
            .iter()
            .filter(|(_, u)| *u > 1e-9)
            .map(|(c, u)| format!("{c} {:.0}ppm", u * 1e6))
            .collect::<Vec<_>>()
            .join(", ");
        rows_u.push(vec![
            version.name().to_string(),
            label.to_string(),
            format!("{:.4}%", r.unavailability * 100.0),
            format!("{:.5}", r.availability),
            detail,
        ]);
        rows_p.push(vec![
            version.name().to_string(),
            label.to_string(),
            format!("{:.0}", r.performability),
            bar(r.performability, max_p, 36),
        ]);
    }
    out.push_str("(a) unavailability\n");
    out.push_str(&table(
        &[
            "version",
            "app rate",
            "unavailability",
            "AA",
            "contributions",
        ],
        &rows_u,
    ));
    out.push_str("\n(b) performability\n");
    out.push_str(&table(&["version", "app rate", "P", ""], &rows_p));
    out
}

fn via_extra(fault: ModelFault, mttf: f64) -> FaultEntry {
    // Substrate system crashes are modeled as switch crashes (§6.3), so
    // they inherit the switch's repair time from Table 3 (1 hour); the
    // process-level classes repair like application faults (3 minutes).
    let (mttr, instances) = if fault == ModelFault::ViaSystemCrash {
        (3_600.0, 1)
    } else {
        (180.0, 4)
    };
    FaultEntry {
        fault,
        mttf,
        mttr,
        instances,
    }
}

fn sensitivity_figure(
    title: &str,
    profiles: &[VersionProfile],
    base_app_mttf: f64,
    columns: &[(&str, f64)],
    make_load: impl Fn(f64) -> Vec<FaultEntry>,
) -> String {
    let mut out = format!("{title}\n\n");
    let mut rows = Vec::new();
    for p in profiles {
        let mut cells = vec![p.version.name().to_string()];
        for (_, param) in columns {
            let load = if p.version.uses_via() {
                make_load(*param)
            } else {
                paper_fault_load(base_app_mttf)
            };
            let r = evaluate(p, &load);
            cells.push(format!("{:.0}", r.performability));
        }
        rows.push(cells);
    }
    let mut headers = vec!["version"];
    for (label, _) in columns {
        headers.push(label);
    }
    out.push_str(&table(&headers, &rows));
    out
}

/// Figure 7: VIA-only transient packet drops (modeled as process
/// crashes) at 1/day, 1/week, 1/month; TCP unaffected.
pub fn fig7(profiles: &[VersionProfile]) -> String {
    sensitivity_figure(
        "Figure 7 — performability with VIA-only transient packet drops\n\
         (TCP rides out drops; a VIA drop resets the channel and the process fail-fasts)",
        profiles,
        MONTH,
        &[
            ("P @ 1/day", DAY),
            ("P @ 1/week", WEEK),
            ("P @ 1/month", MONTH),
        ],
        |mttf| {
            let mut load = paper_fault_load(MONTH);
            load.push(via_extra(ModelFault::ViaPacketDrop, mttf));
            load
        },
    )
}

/// Figure 8: extra application bugs on VIA (TCP fixed at 1/month).
pub fn fig8(profiles: &[VersionProfile]) -> String {
    sensitivity_figure(
        "Figure 8 — performability with extra software bugs from VIA's programming model\n\
         (TCP versions at app fault rate 1/month; VIA versions swept)",
        profiles,
        MONTH,
        &[
            ("P @ 1/day", DAY),
            ("P @ 1/week", WEEK),
            ("P @ 1/month", MONTH),
        ],
        paper_fault_load,
    )
}

/// Figure 9: system crashes from substrate immaturity (modeled as
/// switch crashes), VIA only, at 1/week, 1/month, 1/3 months.
pub fn fig9(profiles: &[VersionProfile]) -> String {
    sensitivity_figure(
        "Figure 9 — performability with system faults from an immature substrate\n\
         (modeled as switch crashes; TCP assumed on mature Gigabit Ethernet)",
        profiles,
        MONTH,
        &[
            ("P @ 1/week", WEEK),
            ("P @ 1/month", MONTH),
            ("P @ 1/3months", 3.0 * MONTH),
        ],
        |mttf| {
            let mut load = paper_fault_load(MONTH);
            load.push(via_extra(ModelFault::ViaSystemCrash, mttf));
            load
        },
    )
}

/// Figure 10: the combined pessimistic VIA load — packet drops 1/month,
/// extra application faults 1/2 weeks, system faults 1/month.
pub fn fig10(profiles: &[VersionProfile]) -> String {
    let mut out = String::from(
        "Figure 10 — performability under a combined pessimistic VIA fault load\n\
         (VIA: packet drops 1/month + extra app faults 1/2 weeks + system faults 1/month)\n\n",
    );
    let mut results = Vec::new();
    let mut max_p: f64 = 0.0;
    for p in profiles {
        let load = if p.version.uses_via() {
            let mut load = paper_fault_load(MONTH);
            load.push(via_extra(ModelFault::ViaPacketDrop, MONTH));
            load.push(via_extra(ModelFault::ViaExtraBug, 2.0 * WEEK));
            load.push(via_extra(ModelFault::ViaSystemCrash, MONTH));
            load
        } else {
            paper_fault_load(MONTH)
        };
        let r = evaluate(p, &load);
        max_p = max_p.max(r.performability);
        results.push(r);
    }
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.version.name().to_string(),
                format!("{:.0}", r.performability),
                format!("{:.5}", r.availability),
                bar(r.performability, max_p, 36),
            ]
        })
        .collect();
    out.push_str(&table(&["version", "P", "AA", ""], &rows));
    let tcp_best = results
        .iter()
        .filter(|r| !r.version.uses_via())
        .map(|r| r.performability)
        .fold(0.0, f64::max);
    let below = results
        .iter()
        .filter(|r| r.version.uses_via() && r.performability < tcp_best)
        .count();
    out.push_str(&format!(
        "\nUnder this load, {below} of 3 VIA versions fall below the best TCP version\n\
         (the paper observes two of three).\n"
    ));
    out
}

/// The §9 headline: the fault-rate multiplier on VIA's switch, link and
/// application fault classes at which each VIA version's performability
/// drops to each TCP version's (paper: ≈4×).
pub fn crossover(profiles: &[VersionProfile]) -> String {
    let mut out = String::from(
        "Crossover — rate multiplier on VIA's switch/link/application faults\n\
         at which VIA and TCP performability equalize (paper: ~4x)\n\n",
    );
    let mut rows = Vec::new();
    let mut multipliers = Vec::new();
    for (label, app_mttf) in [("1/month", MONTH), ("1/day", DAY)] {
        let base = paper_fault_load(app_mttf);
        for tcp in profiles.iter().filter(|p| !p.version.uses_via()) {
            let tcp_behaviors = behaviors_for_load(tcp, &base);
            let tcp_p =
                performability_at(tcp.tn, &tcp_behaviors, 1.0, IDEAL_AVAILABILITY, |_| false);
            for via in profiles.iter().filter(|p| p.version.uses_via()) {
                let via_behaviors = behaviors_for_load(via, &base);
                let result = crossover_multiplier(
                    via.tn,
                    &via_behaviors,
                    tcp_p,
                    IDEAL_AVAILABILITY,
                    64.0,
                    ModelFault::scales_for_via_pessimism,
                );
                if label == "1/month" {
                    if let Some(c) = result {
                        multipliers.push(c.multiplier);
                    }
                }
                rows.push(vec![
                    label.to_string(),
                    via.version.name().to_string(),
                    tcp.version.name().to_string(),
                    match result {
                        Some(c) => format!("{:.1}x", c.multiplier),
                        None => "no crossover <= 64x".to_string(),
                    },
                ]);
            }
        }
    }
    out.push_str(&table(
        &["app rate", "VIA version", "vs TCP version", "equal at"],
        &rows,
    ));
    if !multipliers.is_empty() {
        let mean = multipliers.iter().sum::<f64>() / multipliers.len() as f64;
        out.push_str(&format!(
            "\nMean crossover at the 1/month application-fault baseline: {mean:.1}x (paper: ~4x).\n"
        ));
    }
    out
}

/// Reproduces the §5.5 off-by-N observation: where errors surface.
pub fn off_by_n_summary(scale: RunScale, seed: u64, jobs: usize) -> String {
    let mut out = String::from("Off-by-N bad parameters — where the error surfaces (§5.5)\n\n");
    let versions = [PressVersion::Tcp, PressVersion::Via0, PressVersion::Via5];
    let classes =
        [FaultKind::BadParamOffPtr, FaultKind::BadParamOffSize].map(|k| (model_for_kind(k), k));
    let rows = phase1_grid(&versions, &classes, false, scale, seed, jobs, |r| {
        let exits = r
            .report
            .process_log
            .iter()
            .filter(|(_, _, e)| matches!(e, crate::cluster::ProcEvent::Exit));
        let nodes: Vec<String> = exits.map(|(_, n, _)| n.to_string()).collect();
        format!(
            "{:<14} {:<40} processes terminated: {}\n",
            r.version.name(),
            r.fault.kind.name(),
            if nodes.is_empty() {
                "none".to_string()
            } else {
                nodes.join(", ")
            },
        )
    });
    for (_, line) in rows.into_iter().flat_map(|row| row.runs) {
        out.push_str(&line);
    }
    out
}

// ---------------------------------------------------------------------
// Ablations (extensions beyond the paper)
// ---------------------------------------------------------------------

/// Ablation: the membership-repair extension the paper's §6.2 asks for.
/// Re-runs the splinter-producing faults with periodic merge probes
/// enabled and shows the operator reset disappearing.
pub fn ablation_membership(scale: RunScale, seed: u64, jobs: usize) -> String {
    let mut out = String::from(
        "Ablation — membership repair (the \"rigorous membership algorithm\" of §6.2)\n\
         Splinter-producing faults with and without periodic merge probes:\n\n",
    );
    let mut tasks = Vec::new();
    for version in [PressVersion::TcpHb, PressVersion::Via5, PressVersion::Tcp] {
        for kind in [FaultKind::LinkDown, FaultKind::NodeCrash] {
            for repair in [false, true] {
                tasks.push((version, kind, repair));
            }
        }
    }
    let results = run_indexed(jobs, tasks, |_i, (version, kind, repair)| {
        let mut config = config_for(version, scale);
        config.press.membership_repair = repair;
        let r = run_fault_experiment(config, scenario_at(kind, scale), seed);
        (version, kind, repair, r)
    });
    let mut rows = Vec::new();
    for (version, kind, repair, r) in &results {
        let tail = r
            .series
            .mean_between(r.markers.end - 10.0, r.markers.end)
            .unwrap_or(0.0)
            / r.tn;
        rows.push(vec![
            version.name().to_string(),
            kind.name().to_string(),
            if *repair { "on" } else { "off" }.to_string(),
            format!("{:.3}%", r.report.availability.availability() * 100.0),
            format!("{:.0}% of Tn", tail * 100.0),
            if r.needs_operator_reset {
                "operator reset required".to_string()
            } else {
                "self-healed".to_string()
            },
        ]);
    }
    out.push_str(&table(
        &[
            "version",
            "fault",
            "repair",
            "run availability",
            "final throughput",
            "end state",
        ],
        &rows,
    ));
    out.push_str(
        "\nWith repair on, splintered sub-clusters re-merge once the fabric heals,\n\
         removing the operator-reset stages (E/F/G) from the performability model.\n",
    );
    out
}

/// Ablation: heartbeat tuning — detection latency against the cost of
/// the beats, sweeping the detection threshold.
pub fn ablation_heartbeat(scale: RunScale, seed: u64, jobs: usize) -> String {
    let mut out = String::from(
        "Ablation — heartbeat detection threshold (interval x misses) under a link fault\n\n",
    );
    let tasks = vec![(1u64, 3u32), (5, 3), (5, 5), (10, 3)];
    let results = run_indexed(jobs, tasks, |_i, (interval_s, misses)| {
        let mut config = config_for(PressVersion::TcpHb, scale);
        config.press.hb_interval = simnet::SimDuration::from_secs(interval_s);
        config.press.hb_misses = misses;
        let r = run_fault_experiment(config, scenario_at(FaultKind::LinkDown, scale), seed);
        (interval_s, misses, r)
    });
    let mut rows = Vec::new();
    for (interval_s, misses, r) in &results {
        let lag = r.markers.detected.map(|d| d - r.markers.fault);
        rows.push(vec![
            format!("{interval_s} s x {misses}"),
            format!("{} s", interval_s * u64::from(*misses)),
            match lag {
                Some(l) => format!("{l:.1} s"),
                None => "none".to_string(),
            },
            format!("{:.3}%", r.report.availability.availability() * 100.0),
        ]);
    }
    out.push_str(&table(
        &[
            "interval x misses",
            "threshold",
            "measured detection",
            "run availability",
        ],
        &rows,
    ));
    out.push_str(
        "\nShorter thresholds shrink stage A (the blind window) and raise availability,\n\
         at the price of more heartbeat traffic and a higher false-positive risk when\n\
         beats are merely delayed (§6.2).\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_render() {
        let t2 = table2();
        assert!(t2.contains("Node crash"));
        assert!(t2.contains("stale memory handle"));
        let t3 = table3(DAY);
        assert!(t3.contains("6 months"));
        assert!(t3.contains("3 minutes"));
    }

    #[test]
    fn human_secs_is_sane() {
        assert_eq!(human_secs(180.0), "3 minutes");
        assert_eq!(human_secs(3600.0), "1 hour");
        assert_eq!(human_secs(DAY), "1 days");
        assert_eq!(human_secs(2.0 * WEEK), "2 weeks");
        assert_eq!(human_secs(61.0 * DAY), "2 months");
        assert_eq!(human_secs(365.0 * DAY), "1 year");
    }

    fn fig5(jobs: usize) -> String {
        timeline_results("fig5", RunScale::Small, 5, jobs, false, false)
            .expect("fig5 is a timeline figure")
            .0
    }

    #[test]
    fn timeline_figures_render_at_small_scale() {
        let s = fig5(1);
        assert!(s.contains("TCP-PRESS"));
        assert!(s.contains("VIA-PRESS-0"));
        assert!(s.contains("stage") || s.contains("no degraded stages"));
    }

    #[test]
    fn figure_output_is_identical_across_job_counts() {
        assert_eq!(
            fig5(1),
            fig5(3),
            "parallel timeline figure must render byte-identically"
        );
    }

    #[test]
    fn profiles_are_identical_across_job_counts() {
        let sequential = build_profiles(RunScale::Small, 5, 1);
        let parallel = build_profiles(RunScale::Small, 5, 4);
        assert_eq!(
            sequential, parallel,
            "profile building must be bit-identical for any job count"
        );
    }
}
