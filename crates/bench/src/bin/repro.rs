//! Regenerates every table and figure of the paper.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p bench --bin repro -- <target> [--small] [--seed N] [--jobs N] [--timing]
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
//! latency). With `--metrics` it also prints the sweep's gauges and the
//! gossip runs' node-level metric snapshots. Like `montecarlo`, it goes
//! beyond the paper's tables and is not part of `all`.
//!
//! `scale` sweeps cluster sizes N ∈ {4, 16, 64} ({4, 16} with
//! `--small`) on a radix-8 fat-tree fabric, comparing the paper's
//! eager cache-action broadcast against batched cache digests
//! (`PressConfig::cache_sync`) under both detectors, and prints
//! Tn/AT/AA/P plus cluster-wide control-frame counts per point. With
//! `--metrics` it also prints the sweep's gauges and the digest runs'
//! node-level metric snapshots. `scalebench` times the single heaviest
//! point (the largest-N digest-mode TCP-PRESS-HB run), one long
//! simulation for measuring per-event cost at scale. Like
//! `montecarlo`, both go beyond the paper's tables and are not part of
//! `all`.
//!
//! `montecarlo` estimates performability empirically over generated
//! fault timelines — correlated fault groups, gray faults, and
//! overlapping arrivals the closed-form model cannot express — and
//! cross-checks a single-fault-class load against the closed-form AA.
//! It is not part of `all` (its fault universe goes beyond the paper's
//! tables); `--report <out.html>` works for it like for the timeline
//! targets.
//!
//! `--jobs N` fans the independent simulations of each target across N
//! workers (`--jobs 0` = all cores, `--jobs 1` = sequential, the
//! default). Every run takes an explicit seed, so stdout is
//! byte-identical for any job count. Each simulation itself runs on
//! one thread.
//!
//! `--timing` reports wall-clock, events dispatched, events/second,
//! and each target's share of the total wall time on stderr, and
//! writes `BENCH_repro.json` at the repo root (appending a compact
//! history entry per run); stdout is unchanged. With `all` this is the
//! per-phase wall-clock summary for the whole reproduction.
//!
//! `--trace <out.json>` (timeline targets `fig2`–`fig5` only) reruns
//! the target with structured tracing on and writes a Chrome-trace JSON
//! file loadable in Perfetto / `chrome://tracing`; the file is
//! byte-identical for a given seed, independent of `--jobs`.
//! `--trace-jsonl <out.jsonl>` writes the same events as a JSONL event
//! log. `--metrics` prints each traced run's metrics summary to stdout
//! after the figure text (for `table1`, it prints the per-version
//! workload metrics instead).
//!
//! `--attribution` (timeline targets `fig2`–`fig5`, plus `scale`)
//! reruns the target with causal root-cause attribution on: every lost
//! or deadline-missing request is classified into exactly one root
//! cause (fault-window kill, retransmit/abort stall, broadcast freeze,
//! detection lag, gray-link loss, overload queueing) and each run's
//! text output is followed by the Pareto table, the conservation
//! verdict (attributed losses sum exactly to the scored failures;
//! attributed unavailable seconds to (1−AA)·T), the per-stage loss
//! split, and the critical-path percentiles. Combine with `--report`
//! to add a stacked root-cause-lane section per run to the HTML
//! dashboard. Output is byte-identical across `--jobs`.
//!
//! `--report <out.html>` (timeline targets `fig2`–`fig5` only) also
//! writes a single-file HTML dashboard for the target: throughput
//! timelines with stage bands and the blind-fit overlay, per-stage
//! latency percentiles, the phase-2 projection, and the audit verdict.
//! The file is byte-identical for a fixed seed, independent of
//! `--jobs`.
//!
//! The `audit` target runs the blind stage-segmentation audit over all
//! 11 measured faults × 5 versions and exits non-zero if any run's
//! blind change-point fit disagrees with its log-derived markers.

use std::env;
use std::time::Instant;

use experiments::figures::{
    ablation_heartbeat, ablation_membership, build_profiles, crossover, fig10, fig2, fig3, fig4,
    fig5, fig6, fig7, fig8, fig9, off_by_n_summary, table1, table1_metrics, table2, table3,
    timeline_results, traced_timeline, REPRO_SEED,
};
use experiments::phase2::{profile_fault_runs, RunScale};
use experiments::{effective_jobs, events_dispatched_total, montecarlo_results};
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

fn write_bench_json(
    path: &str,
    scale: RunScale,
    seed: u64,
    jobs: usize,
    timings: &[Timing],
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
                ("wall_share_pct", JsonValue::Float((share * 10.0).round() / 10.0)),
                ("events", JsonValue::Int(t.events as i64)),
                ("events_per_sec", JsonValue::Int(t.events_per_sec().round() as i64)),
            ])
        })
        .collect();
    let doc = jobj(&[
        ("scale", JsonValue::Str(scale_name(scale).to_string())),
        ("seed", JsonValue::Int(seed as i64)),
        ("jobs", JsonValue::Int(jobs as i64)),
        ("host_cores", JsonValue::Int(cores as i64)),
        ("total_wall_s", ms3(total_wall)),
        ("total_events", JsonValue::Int(total_events as i64)),
        ("targets", JsonValue::Array(targets)),
        ("history", JsonValue::Array(history)),
    ]);
    if let Err(e) = std::fs::write(path, doc.to_pretty()) {
        eprintln!("warning: could not write {path}: {e}");
    }
}

/// Shared dashboard inputs: the meta block (titled from the figure
/// text's first line) and the wall-time history from `BENCH_repro.json`
/// if one exists next to the workspace root.
fn report_inputs(
    target: &str,
    figure_text: &str,
    scale: RunScale,
    seed: u64,
) -> (report::ReportMeta, Vec<report::BenchHistoryPoint>) {
    let bench_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_repro.json");
    let history = std::fs::read_to_string(bench_path)
        .map(|text| report::parse_bench_history(&text))
        .unwrap_or_default();
    let meta = report::ReportMeta {
        target: target.to_string(),
        title: figure_text
            .lines()
            .next()
            .unwrap_or(target)
            .trim()
            .to_string(),
        scale: scale_name(scale).to_string(),
        seed,
    };
    (meta, history)
}

/// Builds the HTML dashboard for a timeline target from its already-run
/// results.
fn build_report(
    target: &str,
    figure_text: &str,
    runs: &[experiments::phase1::FaultRunResult],
    scale: RunScale,
    seed: u64,
) -> String {
    let (meta, history) = report_inputs(target, figure_text, scale, seed);
    report::render_report(&meta, runs, &history)
}

/// The `audit` target: blind stage segmentation vs the run log for all
/// 11 measured faults × 5 versions. Returns the process exit code.
fn run_audit(scale: RunScale, seed: u64, jobs: usize) -> i32 {
    eprintln!("auditing stage segmentation (11 faults x 5 versions)...");
    let runs = profile_fault_runs(&PressVersion::ALL, scale, seed, jobs);
    let audits: Vec<report::RunAudit> = runs.iter().map(report::audit_run).collect();
    println!(
        "== blind stage-segmentation audit (scale {}, seed {seed}, {} runs) ==",
        scale_name(scale),
        audits.len()
    );
    let mut failed = 0usize;
    for a in &audits {
        let verdict = if a.pass() { "agree" } else { "DISAGREE" };
        println!(
            "{:<46} {:>2} segments  {verdict}",
            a.label,
            a.segments.len()
        );
        for f in &a.findings {
            println!("    {}: {}", f.kind, f.describe());
        }
        if !a.pass() {
            failed += 1;
        }
    }
    if failed == 0 {
        println!("audit: all {} runs agree with the blind fit", audits.len());
        0
    } else {
        println!(
            "audit: {failed}/{} runs disagree with the blind fit",
            audits.len()
        );
        1
    }
}

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    let mut target = String::from("all");
    let mut scale = RunScale::Paper;
    let mut seed = REPRO_SEED;
    let mut jobs_arg = 1usize;
    let mut timing = false;
    let mut trace_path: Option<String> = None;
    let mut jsonl_path: Option<String> = None;
    let mut report_path: Option<String> = None;
    let mut metrics = false;
    let mut attribution = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--small" => scale = RunScale::Small,
            "--report" => {
                report_path = match it.next() {
                    Some(p) => Some(p.clone()),
                    None => {
                        eprintln!("--report needs an output path");
                        std::process::exit(2);
                    }
                };
            }
            "--trace" => {
                trace_path = match it.next() {
                    Some(p) => Some(p.clone()),
                    None => {
                        eprintln!("--trace needs an output path");
                        std::process::exit(2);
                    }
                };
            }
            "--trace-jsonl" => {
                jsonl_path = match it.next() {
                    Some(p) => Some(p.clone()),
                    None => {
                        eprintln!("--trace-jsonl needs an output path");
                        std::process::exit(2);
                    }
                };
            }
            "--metrics" => metrics = true,
            "--attribution" => attribution = true,
            "--seed" => {
                seed = match it.next().and_then(|s| s.parse().ok()) {
                    Some(n) => n,
                    None => {
                        eprintln!("--seed needs an integer");
                        std::process::exit(2);
                    }
                };
            }
            "--jobs" => {
                jobs_arg = match it.next().and_then(|s| s.parse().ok()) {
                    Some(n) => n,
                    None => {
                        eprintln!("--jobs needs an integer (0 = all cores)");
                        std::process::exit(2);
                    }
                };
            }
            "--timing" => timing = true,
            t if !t.starts_with('-') => target = t.to_string(),
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    let jobs = if jobs_arg == 1 { 1 } else { effective_jobs(jobs_arg) };

    // The audit target has its own exit semantics: non-zero when any
    // run's blind segmentation disagrees with its log-derived markers.
    if target == "audit" {
        std::process::exit(run_audit(scale, seed, jobs));
    }

    // `table1 --metrics`: the per-version workload metrics summaries
    // (including the latency percentiles), golden-gated in verify.sh.
    if metrics && target == "table1" {
        println!("{}", table1_metrics(scale, seed, jobs));
        return;
    }

    // `membership [--metrics]`: the ring-vs-gossip detector sweep; with
    // --metrics, the membership.* gauges and gossip node snapshots too.
    if target == "membership" {
        if metrics {
            println!("{}", experiments::membership_metrics(scale, seed, jobs));
        } else {
            println!("{}", experiments::membership::membership(scale, seed, jobs));
        }
        return;
    }

    // `--attribution`: rerun the target with the causal root-cause
    // recorder on. Every lost/deadline-missing request lands in exactly
    // one cause bucket; each run's figure text is followed by the
    // Pareto table and the conservation verdict. `scale` attributes all
    // sweep points; fig2..fig5 attribute their three timeline runs and
    // compose with --report.
    if attribution {
        if target == "scale" {
            println!("{}", experiments::scale_attributed(scale, seed, jobs));
            return;
        }
        let Some((text, runs)) =
            experiments::figures::attributed_timeline(&target, scale, seed, jobs)
        else {
            eprintln!("--attribution applies to the timeline targets fig2..fig5 and scale");
            std::process::exit(2);
        };
        println!("{text}");
        if let Some(out) = &report_path {
            let (meta, history) = report_inputs(&target, &text, scale, seed);
            let html = report::render_report_attributed(&meta, &runs, &history);
            if let Err(e) = std::fs::write(out, &html) {
                eprintln!("could not write {out}: {e}");
                std::process::exit(1);
            }
            eprintln!("wrote {out} ({} bytes)", html.len());
        }
        return;
    }

    // `scale [--metrics]`: the eager-vs-digest cluster-size sweep; with
    // --metrics, the scale.* gauges and digest node snapshots too.
    if target == "scale" {
        if metrics {
            println!("{}", experiments::scale_metrics(scale, seed, jobs));
        } else {
            println!("{}", experiments::scale::scale(scale, seed, jobs));
        }
        return;
    }

    // Report mode: run the target once, print its text, and write the
    // HTML dashboard from the same runs (no re-simulation).
    if let Some(out) = &report_path {
        if target == "montecarlo" {
            let (text, run) = montecarlo_results(scale, seed, jobs);
            println!("{text}");
            let meta = report::ReportMeta {
                target: target.clone(),
                title: "Monte-Carlo performability".to_string(),
                scale: scale_name(scale).to_string(),
                seed,
            };
            let html = report::render_mc_report(&meta, &run);
            if let Err(e) = std::fs::write(out, &html) {
                eprintln!("could not write {out}: {e}");
                std::process::exit(1);
            }
            eprintln!("wrote {out} ({} bytes)", html.len());
            return;
        }
        let Some((text, runs)) = timeline_results(&target, scale, seed, jobs) else {
            eprintln!("--report only applies to the timeline targets fig2..fig5 and montecarlo");
            std::process::exit(2);
        };
        println!("{text}");
        let html = build_report(&target, &text, &runs, scale, seed);
        if let Err(e) = std::fs::write(out, &html) {
            eprintln!("could not write {out}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {out} ({} bytes)", html.len());
        return;
    }

    // Traced mode: rerun the target with the sink on and export.
    if trace_path.is_some() || jsonl_path.is_some() || metrics {
        match traced_timeline(&target, scale, seed, jobs) {
            Some((text, runs)) => {
                println!("{text}");
                if let Some(p) = &trace_path {
                    let json = telemetry::chrome_trace_json(&runs);
                    match std::fs::write(p, &json) {
                        Ok(()) => eprintln!(
                            "wrote {p}: {} events across {} runs (open in Perfetto or chrome://tracing)",
                            runs.iter().map(|r| r.events.len()).sum::<usize>(),
                            runs.len()
                        ),
                        Err(e) => {
                            eprintln!("could not write {p}: {e}");
                            std::process::exit(1);
                        }
                    }
                }
                if let Some(p) = &jsonl_path {
                    if let Err(e) = std::fs::write(p, telemetry::jsonl_log(&runs)) {
                        eprintln!("could not write {p}: {e}");
                        std::process::exit(1);
                    }
                    eprintln!("wrote {p}");
                }
                if metrics {
                    for r in &runs {
                        println!("{}", r.metrics.text_summary(&r.label));
                    }
                }
                return;
            }
            None => {
                eprintln!(
                    "warning: --trace/--metrics only applies to the timeline targets \
                     fig2..fig5; running {target} untraced"
                );
            }
        }
    }

    let mut timings: Vec<Timing> = Vec::new();
    let mut timed = |name: &str, f: &mut dyn FnMut()| {
        let ev0 = events_dispatched_total();
        let start = Instant::now();
        f();
        let wall_s = start.elapsed().as_secs_f64();
        let events = events_dispatched_total() - ev0;
        timings.push(Timing {
            name: name.to_string(),
            wall_s,
            events,
        });
    };

    let needs_profiles = matches!(
        target.as_str(),
        "fig6" | "fig7" | "fig8" | "fig9" | "fig10" | "crossover" | "all"
    );
    let mut profiles = None;
    if needs_profiles {
        eprintln!("building per-version fault profiles (phase 1: 11 faults x 5 versions)...");
        timed("profiles", &mut || {
            profiles = Some(build_profiles(scale, seed, jobs));
        });
    }
    let profiles = profiles.as_deref();

    let run = |name: &str| match name {
        "table1" => println!("{}", table1(scale, seed, jobs).0),
        "table2" => println!("{}", table2()),
        "table3" => println!("{}", table3(DAY)),
        "fig2" => println!("{}", fig2(scale, seed, jobs)),
        "fig3" => println!("{}", fig3(scale, seed, jobs)),
        "fig4" => println!("{}", fig4(scale, seed, jobs)),
        "fig5" => println!("{}", fig5(scale, seed, jobs)),
        "fig6" => println!("{}", fig6(profiles.expect("profiles built"))),
        "fig7" => println!("{}", fig7(profiles.expect("profiles built"))),
        "fig8" => println!("{}", fig8(profiles.expect("profiles built"))),
        "fig9" => println!("{}", fig9(profiles.expect("profiles built"))),
        "fig10" => println!("{}", fig10(profiles.expect("profiles built"))),
        "offbyn" => println!("{}", off_by_n_summary(scale, seed, jobs)),
        "ablation-membership" => println!("{}", ablation_membership(scale, seed, jobs)),
        "ablation-heartbeat" => println!("{}", ablation_heartbeat(scale, seed, jobs)),
        "crossover" => println!("{}", crossover(profiles.expect("profiles built"))),
        "montecarlo" => println!("{}", montecarlo_results(scale, seed, jobs).0),
        "scalebench" => println!("{}", experiments::scale::scalebench(scale, seed)),
        other => {
            eprintln!("unknown target {other}");
            std::process::exit(2);
        }
    };

    if target == "all" {
        for name in [
            "table1", "table2", "table3", "fig2", "fig3", "fig4", "fig5", "offbyn", "fig6",
            "fig7", "fig8", "fig9", "fig10", "crossover", "ablation-membership",
            "ablation-heartbeat",
        ] {
            println!("==============================================================");
            timed(name, &mut || run(name));
        }
    } else {
        timed(&target, &mut || run(&target));
    }

    if timing {

        let total_wall: f64 = timings.iter().map(|t| t.wall_s).sum();
        let total_events: u64 = timings.iter().map(|t| t.events).sum();
        eprintln!("\n--- timing (jobs = {jobs}) ---");
        for t in &timings {
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
        // The harness lives two levels below the repo root.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_repro.json");
        write_bench_json(path, scale, seed, jobs, &timings);
        eprintln!("wrote {path}");
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
        write_bench_json(path, RunScale::Small, 7, 2, &timings);
        write_bench_json(path, RunScale::Small, 7, 2, &timings);
        let doc = telemetry::json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
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
        assert_eq!(
            telemetry::json::parse(&pretty).unwrap().to_pretty(),
            pretty
        );
        let _ = std::fs::remove_file(path);
    }
}
