//! Regenerates every table and figure of the paper.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p bench --bin repro -- <target> [--small] [--seed N] [--jobs N] [flags]
//! ```
//!
//! where `<target>` is one of `table1`, `table2`, `table3`, `fig2`,
//! `fig3`, `fig4`, `fig5`, `fig6`, `fig7`, `fig8`, `fig9`, `fig10`,
//! `offbyn`, `crossover`, `ablation-membership`, `ablation-heartbeat`,
//! `membership`, `scale`, `scalebench`, `audit`, `montecarlo`, or
//! `all`. `--small` runs on the shrunk test-bed (fast, for
//! smoke-testing the harness; numbers will differ from the paper's
//! scale).
//!
//! `membership` sweeps cluster sizes N ∈ {4, 8, 16, 32} with
//! TCP-PRESS-HB under both failure detectors — the paper's heartbeat
//! ring and the SWIM epidemic detector (`crates/gossip`) — and prints
//! the detection-latency crossover table (rack-crash detection,
//! availability/throughput, gray-fault false exclusions, rejoin
//! latency).
//!
//! `scale` sweeps cluster sizes N ∈ {4, 16, 64} ({4, 16} with
//! `--small`) on a radix-8 fat-tree fabric, comparing the paper's
//! eager cache-action broadcast against batched cache digests
//! (`PressConfig::cache_sync`) under both detectors, and prints
//! Tn/AT/AA/P plus cluster-wide control-frame counts per point.
//! `scalebench` times the single heaviest point (the largest-N
//! digest-mode TCP-PRESS-HB run), one long simulation for measuring
//! per-event cost at scale.
//!
//! `montecarlo` estimates performability empirically over generated
//! fault timelines — correlated fault groups, gray faults, and
//! overlapping arrivals the closed-form model cannot express — and
//! cross-checks a single-fault-class load against the closed-form AA.
//!
//! `membership`, `scale`, `scalebench` and `montecarlo` go beyond the
//! paper's tables and are not part of `all`.
//!
//! The `audit` target runs the blind stage-segmentation audit over all
//! 11 measured faults × 5 versions and exits non-zero if any run's
//! blind change-point fit disagrees with its log-derived markers.
//!
//! `--jobs N` fans the independent simulations of each target across N
//! workers (`--jobs 0` = all cores, `--jobs 1` = sequential, the
//! default). Every run takes an explicit seed, so stdout and every
//! written file are byte-identical for any job count. Each simulation
//! itself runs on one thread.
//!
//! # Observation flags
//!
//! A target runs its simulations once, and these flags observe those
//! same runs. So flags compose: a combination does everything each of
//! its flags does alone, and each flag's output is byte-identical to
//! its single-flag run.
//!
//! | flag                        | targets                                        |
//! |-----------------------------|------------------------------------------------|
//! | `--trace <out.json>`        | `fig2`–`fig5`                                  |
//! | `--trace-jsonl <out.jsonl>` | `fig2`–`fig5`                                  |
//! | `--attribution`             | `fig2`–`fig5`, `scale`                         |
//! | `--metrics`                 | `fig2`–`fig5`, `table1`, `membership`, `scale` |
//! | `--report <out.html>`       | `fig2`–`fig5`, `montecarlo`                    |
//! | `--timing`                  | every target                                   |
//!
//! A flag the target does not accept exits with status 2, naming the
//! flag, before any simulation runs.
//!
//! - `--trace` writes a Chrome-trace JSON file loadable in Perfetto or
//!   `chrome://tracing`; `--trace-jsonl` writes the same events as a
//!   JSONL event log.
//! - `--attribution` turns on causal root-cause attribution: every lost
//!   or deadline-missing request is classified into exactly one root
//!   cause (fault-window kill, retransmit/abort stall, broadcast
//!   freeze, detection lag, gray-link loss, overload queueing). Each
//!   run's text is followed by the Pareto table, the conservation
//!   verdict (attributed losses sum exactly to the scored failures;
//!   attributed unavailable seconds to (1−AA)·T), the per-stage loss
//!   split, and the critical-path percentiles. The HTML report gains a
//!   stacked root-cause-lane section per run.
//! - `--metrics` prints metrics summaries after the target's text: each
//!   timeline run's registry, `table1`'s per-version workload metrics,
//!   or a sweep's gauges followed by its node-level snapshots.
//! - `--report` writes a single-file HTML dashboard: throughput
//!   timelines with stage bands and the blind-fit overlay, per-stage
//!   latency percentiles, the phase-2 projection, and the audit verdict
//!   (for `montecarlo`, the estimator's replications and intervals).
//! - `--timing` reports wall-clock, events dispatched, events/second,
//!   each target's share of the total wall time, and the process's
//!   peak resident memory (`VmHWM`, where `/proc/self/status` has it)
//!   on stderr, and writes `BENCH_repro.json` in the working directory
//!   (appending a compact history entry per run); stdout is unchanged.
//!   With `all` this is the per-phase wall-clock summary for the whole
//!   reproduction.

use std::env;
use std::time::Instant;

use experiments::figures::{
    ablation_heartbeat, ablation_membership, build_profiles, crossover, fig10, fig6, fig7, fig8,
    fig9, off_by_n_summary, table1, table2, table3, timeline_results, REPRO_SEED,
};
use experiments::phase1::FaultRunResult;
use experiments::phase2::{phase1_grid, RunScale, VersionProfile, FAULT_CLASSES};
use experiments::{effective_jobs, events_dispatched_total, montecarlo_results, McRun};
use performability::fault_load::DAY;
use press::PressVersion;
use telemetry::json::JsonValue;

/// One timed target for the `--timing` report.
struct Timing {
    name: String,
    wall_s: f64,
    events: u64,
}

impl Timing {
    fn events_per_sec(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.events as f64 / self.wall_s
        } else {
            0.0
        }
    }
}

fn scale_name(scale: RunScale) -> &'static str {
    match scale {
        RunScale::Paper => "paper",
        RunScale::Small => "small",
    }
}

/// Builds a JSON object from string keys (sorted on output by the
/// [`JsonValue`] printer).
fn jobj(pairs: &[(&str, JsonValue)]) -> JsonValue {
    JsonValue::Object(
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect(),
    )
}

/// Rounds to 3 decimals so wall-clock floats stay short in the file.
fn ms3(v: f64) -> JsonValue {
    JsonValue::Float((v * 1000.0).round() / 1000.0)
}

/// Whether a history entry carries the full expected schema. Entries
/// from older/foreign formats are dropped rather than propagated.
fn history_entry_valid(e: &JsonValue) -> bool {
    e.get("scale").and_then(JsonValue::as_str).is_some()
        && e.get("seed").and_then(JsonValue::as_i64).is_some()
        && e.get("jobs").and_then(JsonValue::as_i64).is_some()
        && e.get("targets").and_then(JsonValue::as_i64).is_some()
        && e.get("total_wall_s").and_then(JsonValue::as_f64).is_some()
        && e.get("total_events").and_then(JsonValue::as_i64).is_some()
}

/// The peak resident set in MiB from a `/proc/<pid>/status` text: its
/// `VmHWM` line, in kB.
fn vm_hwm_mb(status: &str) -> Option<f64> {
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// This process's peak resident set in MiB, if the OS reports it.
fn peak_rss_mb() -> Option<f64> {
    vm_hwm_mb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// Writes the `--timing` document: this run's targets and, when
/// known, its peak memory at the top level, plus the carried history.
fn write_bench_json(
    path: &str,
    scale: RunScale,
    seed: u64,
    jobs: usize,
    timings: &[Timing],
    peak_rss_mb: Option<f64>,
) {
    let total_wall: f64 = timings.iter().map(|t| t.wall_s).sum();
    let total_events: u64 = timings.iter().map(|t| t.events).sum();

    // Carry forward the existing history (schema-validated entries
    // only), then append this run and keep the last 20.
    let mut history: Vec<JsonValue> = std::fs::read_to_string(path)
        .ok()
        .and_then(|old| telemetry::json::parse(&old).ok())
        .and_then(|doc| {
            doc.get("history")
                .and_then(JsonValue::as_array)
                .map(<[JsonValue]>::to_vec)
        })
        .unwrap_or_default()
        .into_iter()
        .filter(history_entry_valid)
        .collect();
    history.push(jobj(&[
        ("scale", JsonValue::Str(scale_name(scale).to_string())),
        ("seed", JsonValue::Int(seed as i64)),
        ("jobs", JsonValue::Int(jobs as i64)),
        ("targets", JsonValue::Int(timings.len() as i64)),
        ("total_wall_s", ms3(total_wall)),
        ("total_events", JsonValue::Int(total_events as i64)),
    ]));
    if history.len() > 20 {
        let drop = history.len() - 20;
        history.drain(..drop);
    }

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let targets = timings
        .iter()
        .map(|t| {
            let share = if total_wall > 0.0 {
                t.wall_s / total_wall * 100.0
            } else {
                0.0
            };
            jobj(&[
                ("name", JsonValue::Str(t.name.clone())),
                ("wall_s", ms3(t.wall_s)),
                (
                    "wall_share_pct",
                    JsonValue::Float((share * 10.0).round() / 10.0),
                ),
                ("events", JsonValue::Int(t.events as i64)),
                (
                    "events_per_sec",
                    JsonValue::Int(t.events_per_sec().round() as i64),
                ),
            ])
        })
        .collect();
    let mut fields = vec![
        ("scale", JsonValue::Str(scale_name(scale).to_string())),
        ("seed", JsonValue::Int(seed as i64)),
        ("jobs", JsonValue::Int(jobs as i64)),
        ("host_cores", JsonValue::Int(cores as i64)),
        ("total_wall_s", ms3(total_wall)),
        ("total_events", JsonValue::Int(total_events as i64)),
        ("targets", JsonValue::Array(targets)),
        ("history", JsonValue::Array(history)),
    ];
    if let Some(mb) = peak_rss_mb {
        fields.push(("peak_rss_mb", JsonValue::Float((mb * 10.0).round() / 10.0)));
    }
    let doc = jobj(&fields);
    if let Err(e) = std::fs::write(path, doc.to_pretty()) {
        eprintln!("warning: could not write {path}: {e}");
    }
}

/// The `--timing` document, which `--report` reads as its history:
/// relative to the working directory, so a copied tree writes its own.
const BENCH_JSON: &str = "BENCH_repro.json";

/// The targets `all` runs, in order.
const ALL: [&str; 16] = [
    "table1",
    "table2",
    "table3",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "offbyn",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "crossover",
    "ablation-membership",
    "ablation-heartbeat",
];

/// The parsed command line.
#[derive(Debug)]
struct Opts {
    target: String,
    scale: RunScale,
    seed: u64,
    /// `--jobs` as given (`0` = all cores).
    jobs: usize,
    timing: bool,
    trace: Option<String>,
    jsonl: Option<String>,
    report: Option<String>,
    metrics: bool,
    attribution: bool,
}

/// The value after `flag`, or a message saying it needs `what`.
fn value<T: std::str::FromStr>(
    it: &mut std::slice::Iter<String>,
    flag: &str,
    what: &str,
) -> Result<T, String> {
    it.next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("{flag} needs {what}"))
}

impl Opts {
    /// Parses the arguments after the program name and checks them
    /// against the target.
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut o = Opts {
            target: String::from("all"),
            scale: RunScale::Paper,
            seed: REPRO_SEED,
            jobs: 1,
            timing: false,
            trace: None,
            jsonl: None,
            report: None,
            metrics: false,
            attribution: false,
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let path = "an output path";
            match a.as_str() {
                "--small" => o.scale = RunScale::Small,
                "--report" => o.report = Some(value(&mut it, a, path)?),
                "--trace" => o.trace = Some(value(&mut it, a, path)?),
                "--trace-jsonl" => o.jsonl = Some(value(&mut it, a, path)?),
                "--metrics" => o.metrics = true,
                "--attribution" => o.attribution = true,
                "--timing" => o.timing = true,
                "--seed" => o.seed = value(&mut it, a, "an integer")?,
                "--jobs" => o.jobs = value(&mut it, a, "an integer (0 = all cores)")?,
                t if !t.starts_with('-') => o.target = t.to_string(),
                other => return Err(format!("unknown flag {other}")),
            }
        }
        o.check()?;
        Ok(o)
    }

    /// Rejects an unknown target, or a flag the target does not accept
    /// (the table in the module docs), before anything runs.
    fn check(&self) -> Result<(), String> {
        let t = self.target.as_str();
        let beyond_all = ["membership", "scale", "scalebench", "audit", "montecarlo"];
        if !ALL.contains(&t) && !beyond_all.contains(&t) && t != "all" {
            return Err(format!("unknown target {t}"));
        }
        let timeline = matches!(t, "fig2" | "fig3" | "fig4" | "fig5");
        let table = [
            ("--trace", self.trace.is_some(), timeline),
            ("--trace-jsonl", self.jsonl.is_some(), timeline),
            ("--attribution", self.attribution, timeline || t == "scale"),
            (
                "--metrics",
                self.metrics,
                timeline || matches!(t, "table1" | "membership" | "scale"),
            ),
            (
                "--report",
                self.report.is_some(),
                timeline || t == "montecarlo",
            ),
        ];
        match table.iter().find(|&&(_, set, accepted)| set && !accepted) {
            Some((flag, ..)) => Err(format!(
                "{flag} does not apply to {t} (see the flag table in the repro docs)"
            )),
            None => Ok(()),
        }
    }
}

/// What one target's run produced: its stdout text, the phase-1 runs
/// the trace and report writers read, and the process exit status.
#[derive(Default)]
struct Output {
    text: String,
    runs: Vec<FaultRunResult>,
    mc: Option<McRun>,
    status: i32,
}

impl From<String> for Output {
    fn from(text: String) -> Self {
        Output {
            text,
            ..Output::default()
        }
    }
}

/// Runs target `name` once, with every observation `o` asks for.
fn run_target(name: &str, o: &Opts, jobs: usize, profiles: Option<&[VersionProfile]>) -> Output {
    let (scale, seed) = (o.scale, o.seed);
    let profiles = || profiles.expect("profiles built");
    match name {
        "fig2" | "fig3" | "fig4" | "fig5" => {
            // Per-run metrics ride on the trace, so --metrics traces too.
            let traced = o.trace.is_some() || o.jsonl.is_some() || o.metrics;
            let (mut text, runs) = timeline_results(name, scale, seed, jobs, traced, o.attribution)
                .expect("timeline target");
            if o.metrics {
                for t in runs.iter().filter_map(|r| r.trace.as_ref()) {
                    text.push('\n');
                    text.push_str(&t.metrics.text_summary(&t.label));
                }
            }
            Output {
                text,
                runs,
                ..Output::default()
            }
        }
        "montecarlo" => {
            let (text, run) = montecarlo_results(scale, seed, jobs);
            Output {
                text,
                mc: Some(run),
                ..Output::default()
            }
        }
        "audit" => run_audit(scale, seed, jobs),
        "table1" => table1(scale, seed, jobs, o.metrics).0.into(),
        "table2" => table2().into(),
        "table3" => table3(DAY).into(),
        "fig6" => fig6(profiles()).into(),
        "fig7" => fig7(profiles()).into(),
        "fig8" => fig8(profiles()).into(),
        "fig9" => fig9(profiles()).into(),
        "fig10" => fig10(profiles()).into(),
        "crossover" => crossover(profiles()).into(),
        "offbyn" => off_by_n_summary(scale, seed, jobs).into(),
        "ablation-membership" => ablation_membership(scale, seed, jobs).into(),
        "ablation-heartbeat" => ablation_heartbeat(scale, seed, jobs).into(),
        "membership" => experiments::membership::membership(scale, seed, jobs, o.metrics).into(),
        "scale" => experiments::scale::scale(scale, seed, jobs, o.metrics, o.attribution).into(),
        "scalebench" => experiments::scale::scalebench(scale, seed).into(),
        other => unreachable!("target {other} passed the check"),
    }
}

/// Prints a target's text, then writes every file `o` asks for from
/// the same runs. Returns the target's exit status.
fn emit(name: &str, o: &Opts, mut out: Output) -> i32 {
    println!("{}", out.text);
    let traces: Vec<telemetry::RunTrace> =
        out.runs.iter_mut().filter_map(|r| r.trace.take()).collect();
    if let Some(p) = &o.trace {
        write_file(p, &telemetry::chrome_trace_json(&traces));
        eprintln!(
            "wrote {p}: {} events across {} runs (open in Perfetto or chrome://tracing)",
            traces.iter().map(|r| r.events.len()).sum::<usize>(),
            traces.len()
        );
    }
    if let Some(p) = &o.jsonl {
        write_file(p, &telemetry::jsonl_log(&traces));
        eprintln!("wrote {p}");
    }
    if let Some(p) = &o.report {
        let mut meta = report::ReportMeta {
            target: name.to_string(),
            title: out.text.lines().next().unwrap_or(name).trim().to_string(),
            scale: scale_name(o.scale).to_string(),
            seed: o.seed,
        };
        let html = match &out.mc {
            Some(run) => {
                meta.title = "Monte-Carlo performability".to_string();
                report::render_mc_report(&meta, run)
            }
            None => {
                let history = std::fs::read_to_string(BENCH_JSON)
                    .map(|text| report::parse_bench_history(&text))
                    .unwrap_or_default();
                report::render_report(&meta, &out.runs, &history)
            }
        };
        write_file(p, &html);
        eprintln!("wrote {p} ({} bytes)", html.len());
    }
    out.status
}

fn write_file(path: &str, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("could not write {path}: {e}");
        std::process::exit(1);
    }
}

/// The `audit` target: blind stage segmentation vs the run log for all
/// 11 measured faults × 5 versions. Fails when any run disagrees.
fn run_audit(scale: RunScale, seed: u64, jobs: usize) -> Output {
    eprintln!("auditing stage segmentation (11 faults x 5 versions)...");
    let audits: Vec<report::RunAudit> = phase1_grid(
        &PressVersion::ALL,
        &FAULT_CLASSES,
        false,
        scale,
        seed,
        jobs,
        report::audit_run,
    )
    .into_iter()
    .flat_map(|row| row.runs)
    .map(|(_, audit)| audit)
    .collect();
    let mut text = format!(
        "== blind stage-segmentation audit (scale {}, seed {seed}, {} runs) ==\n",
        scale_name(scale),
        audits.len()
    );
    for a in &audits {
        let verdict = if a.pass() { "agree" } else { "DISAGREE" };
        text.push_str(&format!(
            "{:<46} {:>2} segments  {verdict}\n",
            a.label,
            a.segments.len()
        ));
        for f in &a.findings {
            text.push_str(&format!("    {}: {}\n", f.kind, f.describe()));
        }
    }
    let failed = audits.iter().filter(|a| !a.pass()).count();
    text.push_str(&if failed == 0 {
        format!("audit: all {} runs agree with the blind fit", audits.len())
    } else {
        format!(
            "audit: {failed}/{} runs disagree with the blind fit",
            audits.len()
        )
    });
    Output {
        text,
        status: i32::from(failed > 0),
        ..Output::default()
    }
}

/// Runs `f`, recording its wall time and the events it dispatched.
fn timed<T>(timings: &mut Vec<Timing>, name: &str, f: impl FnOnce() -> T) -> T {
    let ev0 = events_dispatched_total();
    let start = Instant::now();
    let out = f();
    timings.push(Timing {
        name: name.to_string(),
        wall_s: start.elapsed().as_secs_f64(),
        events: events_dispatched_total() - ev0,
    });
    out
}

/// The `--timing` table on stderr, plus the `BENCH_repro.json` entry.
fn print_timing(timings: &[Timing], scale: RunScale, seed: u64, jobs: usize) {
    let total_wall: f64 = timings.iter().map(|t| t.wall_s).sum();
    let total_events: u64 = timings.iter().map(|t| t.events).sum();
    eprintln!("\n--- timing (jobs = {jobs}) ---");
    for t in timings {
        eprintln!(
            "{:<22} {:>8.3} s  {:>12} events  {:>12.0} events/s  {:>5.1}%",
            t.name,
            t.wall_s,
            t.events,
            t.events_per_sec(),
            if total_wall > 0.0 {
                t.wall_s / total_wall * 100.0
            } else {
                0.0
            }
        );
    }
    eprintln!(
        "{:<22} {:>8.3} s  {:>12} events  {:>12.0} events/s  {:>5.1}%",
        "total",
        total_wall,
        total_events,
        if total_wall > 0.0 {
            total_events as f64 / total_wall
        } else {
            0.0
        },
        if total_wall > 0.0 { 100.0 } else { 0.0 }
    );
    let peak = peak_rss_mb();
    if let Some(mb) = peak {
        eprintln!("{:<22} {mb:>8.1} MiB", "peak memory (VmHWM)");
    }
    write_bench_json(BENCH_JSON, scale, seed, jobs, timings, peak);
    eprintln!("wrote {BENCH_JSON}");
}

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    let o = Opts::parse(&args).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let jobs = if o.jobs == 1 {
        1
    } else {
        effective_jobs(o.jobs)
    };
    let mut timings: Vec<Timing> = Vec::new();

    let target = o.target.as_str();
    let needs_profiles = matches!(
        target,
        "fig6" | "fig7" | "fig8" | "fig9" | "fig10" | "crossover" | "all"
    );
    let profiles = needs_profiles.then(|| {
        eprintln!("building per-version fault profiles (phase 1: 11 faults x 5 versions)...");
        timed(&mut timings, "profiles", || {
            build_profiles(o.scale, o.seed, jobs)
        })
    });

    let names = if target == "all" {
        &ALL[..]
    } else {
        std::slice::from_ref(&target)
    };
    let mut status = 0;
    for &name in names {
        if target == "all" {
            println!("==============================================================");
        }
        let s = timed(&mut timings, name, || {
            emit(name, &o, run_target(name, &o, jobs, profiles.as_deref()))
        });
        status = status.max(s);
    }

    if o.timing {
        print_timing(&timings, o.scale, o.seed, jobs);
    }
    if status != 0 {
        std::process::exit(status);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn history_entries_are_schema_validated() {
        let good = telemetry::json::parse(
            r#"{"scale":"paper","seed":2003,"jobs":2,"targets":16,
                "total_wall_s":475.368,"total_events":1000}"#,
        )
        .unwrap();
        assert!(history_entry_valid(&good));
        // Older entries also record the retired sim_threads knob; the
        // extra key does not disqualify them.
        let with_sim_threads = telemetry::json::parse(
            r#"{"scale":"paper","seed":2003,"jobs":2,"sim_threads":4,"targets":16,
                "total_wall_s":475.368,"total_events":1000}"#,
        )
        .unwrap();
        assert!(history_entry_valid(&with_sim_threads));
        let missing = telemetry::json::parse(r#"{"scale":"paper","seed":2003}"#).unwrap();
        assert!(!history_entry_valid(&missing));
        let wrong_type = telemetry::json::parse(
            r#"{"scale":3,"seed":2003,"jobs":2,"targets":16,
                "total_wall_s":475.368,"total_events":1000}"#,
        )
        .unwrap();
        assert!(!history_entry_valid(&wrong_type));
    }

    #[test]
    fn bench_json_round_trips_and_appends_history() {
        let dir = std::env::temp_dir().join("repro-bench-json-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_repro.json");
        let path = path.to_str().unwrap();
        // An existing file whose one history entry still records
        // sim_threads: it must be carried forward, not dropped.
        std::fs::write(
            path,
            r#"{"history":[{"scale":"paper","seed":2003,"jobs":1,"sim_threads":2,
                "targets":1,"total_wall_s":37.9,"total_events":1000}]}"#,
        )
        .unwrap();
        let timings = [Timing {
            name: "fig2".to_string(),
            wall_s: 1.2345,
            events: 1000,
        }];
        write_bench_json(path, RunScale::Small, 7, 2, &timings, None);
        let read = || telemetry::json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert!(
            read().get("peak_rss_mb").is_none(),
            "an unknown peak is left out, not written as zero"
        );
        write_bench_json(path, RunScale::Small, 7, 2, &timings, Some(341.26));
        let doc = read();
        assert_eq!(
            doc.get("peak_rss_mb").and_then(JsonValue::as_f64),
            Some(341.3)
        );
        let history = doc.get("history").and_then(JsonValue::as_array).unwrap();
        assert_eq!(
            history.len(),
            3,
            "each write appends one entry to the old one"
        );
        assert!(history.iter().all(history_entry_valid));
        assert!(
            doc.get("sim_threads").is_none(),
            "top level no longer records sim_threads"
        );
        let targets = doc.get("targets").and_then(JsonValue::as_array).unwrap();
        assert_eq!(targets.len(), 1);
        assert!(targets[0].get("sim_threads").is_none());
        assert!(history[1..].iter().all(|e| e.get("sim_threads").is_none()));
        // Keys are emitted sorted: the document is stable under
        // parse → print.
        let pretty = doc.to_pretty();
        assert_eq!(telemetry::json::parse(&pretty).unwrap().to_pretty(), pretty);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn peak_memory_is_read_from_the_vm_hwm_line() {
        let status = "Name:\trepro\nVmPeak:\t  600000 kB\nVmHWM:\t  349184 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(vm_hwm_mb(status), Some(341.0));
        assert_eq!(vm_hwm_mb("Name:\trepro\n"), None);
        assert_eq!(vm_hwm_mb("VmHWM:\t lots kB\n"), None);
    }

    fn parse(args: &str) -> Result<Opts, String> {
        let args: Vec<String> = args.split_whitespace().map(String::from).collect();
        Opts::parse(&args)
    }

    /// The flag × target table: accepted flags compose, and a flag the
    /// target does not take is rejected by name before anything runs.
    #[test]
    fn flags_are_checked_against_the_target() {
        let o = parse("fig3 --small --attribution --trace t.json").expect("fig3 takes both");
        assert!(o.attribution);
        assert_eq!(o.trace.as_deref(), Some("t.json"));
        assert!(parse("scale --attribution --metrics --timing").is_ok());
        assert!(parse("montecarlo --report m.html").is_ok());
        for (args, flag) in [
            ("table2 --trace t.json", "--trace"),
            ("scale --report s.html", "--report"),
            ("membership --attribution", "--attribution"),
            ("all --metrics", "--metrics"),
        ] {
            let err = parse(args).expect_err(args);
            assert!(err.starts_with(flag), "{args}: {err}");
        }
        assert_eq!(parse("fig11").unwrap_err(), "unknown target fig11");
        assert_eq!(
            parse("fig3 --seed x").unwrap_err(),
            "--seed needs an integer"
        );
    }
}
