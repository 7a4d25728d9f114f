//! `perfbench`: host time and memory of the cluster simulator on four
//! workloads, with per-layer counters from a traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --seed 2003
//! perfbench [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]
//!           [--json PATH] [--quick]
//! ```
//!
//! With one `--workload`, the workload runs in this process for about
//! `--seconds` host seconds: as many full-horizon reps as fit, each timed
//! call by call. Reps come in pairs (at least two); both reps of a pair
//! run the same input, the first pair the one `--seed` names and each
//! later pair one derived from it, so a run's medians cover several
//! draws of the workload rather than one. The last line
//! of standard output is one JSON object, `{"correct", "attempted",
//! "failed", "metrics"}`, holding the end-to-end metrics with `--trace 0`
//! and the per-layer metrics with `--trace 1`. Without `--workload`, or
//! with several, the program runs itself once per workload (and per trace
//! mode, unless `--trace` is given) as a child process, one at a time, so
//! each peak RSS belongs to one workload.
//!
//! # Workloads
//!
//! Every workload runs one simulation thread. `--seed` drives the
//! cluster's randomness (client arrivals, file choice, detector probe
//! order); fault schedules are part of the workload. A rep lasts well
//! under two host seconds, so a run holds many and its medians shrug off
//! short stalls caused by other tenants of the host; longer spells of a
//! slower host are what the reference below takes out.
//!
//! * `steady-n4`: the paper's 4-node test-bed at the fault-experiment
//!   rate, prewarmed and fault-free, 30 s simulated, once on
//!   TCP-PRESS-HB and once on VIA-PRESS-5. This is the per-event hot path
//!   (engine, fabric, transport, PRESS routing) every figure spends most
//!   of its time in; no cache writes, faults or N-scaling.
//! * `faults-n4`: the same test-bed, TCP-PRESS-HB, under one timeline of
//!   the Monte-Carlo showcase fault classes (crash, switch down taking
//!   every link, degraded link, CPU throttle, partial partition) drawn by
//!   `generate_trace` from a fixed seed over 30 s settle + 150 s. TCP
//!   retransmit and abort timers, engine cancellation, ring membership
//!   and the fault ledger do most of the work.
//! * `cold-n16-digest`: `scale_config(Paper, 16, TcpHb, Digest, Ring)` on
//!   a radix-8 fat tree, cold caches, node 1 crashed from 10 s to 30 s,
//!   50 s. The N-scaling side: 240k files per node, so directory memory
//!   and setup weigh, and the cold fill runs through batched digest
//!   writes.
//! * `cold-n8-eager`: `scale_config(Paper, 8, TcpHb, Eager, Gossip)` with
//!   the same crash: per-action (N−1)-frame broadcasts and gossip
//!   membership, the cache layer used the other way, plus the §5.4
//!   freeze/defer path. A change that speeds up digest writes but slows
//!   broadcasts shows here.
//!
//! # Metrics
//!
//! End to end (`--trace 0`), per workload, each the median over the run
//! with its quartiles: `setup_s`, host seconds in
//! `ClusterSim::with_campaign` over every rep's set-up plus set-up-only
//! probes up to fifteen; `run_s`, host seconds in `run_until` over one
//! rep's horizon; `peak_rss_mb`, the process's `VmHWM` once the first
//! two pairs have run. Both timings are given at reference speed: a
//! fixed host-speed reference (see [`reference`]) runs just before every
//! rep and probe, and each time is scaled by the reference's nominal
//! time over the time it took, so that the spells in which other tenants
//! slow the whole host cancel out.
//!
//! Per layer (`--trace 1`), with the end-to-end metric and workload each
//! should move: `host.reference_ms` (the reference's own time, median
//! over the run) and `cluster.run_wall_s` (`run_s` as measured, before
//! scaling) → nothing, they show the host; `cluster.slice_ms_p50` and
//! `cluster.slice_ms_tail` (host
//! ms per simulated second; the tail is the highest percentile with ten
//! slices beyond it at two traced reps: p90, p95, p90, p90) → `run_s`
//! everywhere; `cluster.allocs_setup` → `setup_s` on the cold
//! workloads; `cluster.allocs_per_event`, `engine.events`,
//! `engine.ns_per_event` → `run_s` everywhere, most directly steady-n4;
//! `cluster.rss_setup_mb`, `cluster.rss_growth_mb`,
//! `press.directory_entries` → `peak_rss_mb` on the cold workloads;
//! `cluster.fault_ms_per_sim_s`, `cluster.clear_ms_per_sim_s` → `run_s`
//! on faults-n4; `engine.timers_stale_suppressed`, `tcp.*` counts,
//! `press.exclusions`, `press.rejoined`, `mendosus.fault_actions` →
//! `run_s` on faults-n4; `tcp.run_s`, `via.*` → `run_s` on steady-n4;
//! `fabric.*`, `press.cache.sync_frames`, `press.cache.ctrl_per_req`,
//! `gossip.pings`, `press.forward_timeouts`, `press.dropped_deferred` →
//! `run_s` on cold-n8-eager; `press.cache.digest_*` → `run_s` on
//! cold-n16-digest; `press.served_*`, `press.hit_ratio` → `run_s` on the
//! cold workloads; `press.node_new_s`, `press.directory_new_s` (N
//! standalone constructor calls) → `setup_s` on the cold workloads;
//! `client.*` are simulated sentinels a speed-only change leaves
//! identical; `cluster.report_s` is a guard; `self_ms.*` is span self
//! time per traced rep; `trace_overhead_pct` compares traced and
//! untraced reps of the same run.
//!
//! # Output check
//!
//! Every rep digests its simulated output (events, client tallies,
//! throughput series, latency quantiles, membership and process logs,
//! per-node cache-sync frames, the metrics snapshot). The two reps of a
//! pair must agree, and at seeds 2003 and 7 the first pair must match a
//! recorded digest; every part must account for its requests and pass its
//! workload's sanity checks. The model is checked for determinism against
//! its own recorded output, not validated against measured hardware.

mod reference;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use press::{Directory, PressNode};
use simnet::fabric::NodeId;
use telemetry::json::{self, JsonValue};

use stats::{median, quantile, quartiles, self_times, tail_percentile};
use trace::{set_counting, status_kb, CountingAlloc, Recorder};
use workloads::{run_part, Part, PartRun, Workload, ALL};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Set-ups timed per run, counting each rep's own.
const MIN_SETUPS: usize = 15;

/// Pairs of reps every run makes at least. The two reps of a pair run the
/// same input, so the output check can compare their digests.
const MIN_PAIRS: usize = 2;

/// Per-layer metrics, `(name, unit)`.
const PER_LAYER: [(&str, &str); 51] = [
    ("host.reference_ms", "ms"),
    ("cluster.run_wall_s", "s"),
    ("cluster.slice_ms_p50", "ms"),
    ("cluster.slice_ms_tail", "ms"),
    ("cluster.allocs_setup", "count"),
    ("cluster.allocs_per_event", "allocs/event"),
    ("cluster.rss_setup_mb", "MiB"),
    ("cluster.rss_growth_mb", "MiB"),
    ("cluster.fault_ms_per_sim_s", "ms"),
    ("cluster.clear_ms_per_sim_s", "ms"),
    ("cluster.report_s", "s"),
    ("engine.events", "count"),
    ("engine.ns_per_event", "ns"),
    ("engine.timers_stale_suppressed", "count"),
    ("fabric.frames_delivered", "count"),
    ("fabric.frames_lost", "count"),
    ("fabric.frames_per_request", "frames/req"),
    ("tcp.data_segments_sent", "count"),
    ("tcp.retransmissions", "count"),
    ("tcp.aborts", "count"),
    ("tcp.run_s", "s"),
    ("via.messages_sent", "count"),
    ("via.credit_stalls", "count"),
    ("via.run_s", "s"),
    ("press.served_local", "count"),
    ("press.served_remote", "count"),
    ("press.served_disk", "count"),
    ("press.hit_ratio", "ratio"),
    ("press.forward_timeouts", "count"),
    ("press.dropped_deferred", "count"),
    ("press.exclusions", "count"),
    ("press.rejoined", "count"),
    ("press.node_new_s", "s"),
    ("press.directory_new_s", "s"),
    ("press.cache.sync_frames", "count"),
    ("press.cache.ctrl_per_req", "frames/req"),
    ("press.cache.digest_flushes", "count"),
    ("press.cache.digest_retries", "count"),
    ("press.directory_entries", "count"),
    ("gossip.pings", "count"),
    ("client.attempts", "count"),
    ("client.successes", "count"),
    ("client.availability", "ratio"),
    ("mendosus.fault_actions", "count"),
    ("trace_overhead_pct", "%"),
    ("self_ms.harness", "ms"),
    ("self_ms.setup", "ms"),
    ("self_ms.slice", "ms"),
    ("self_ms.report", "ms"),
    ("self_ms.digest", "ms"),
    ("self_ms.teardown", "ms"),
];

/// Command-line options.
#[derive(Debug, Clone)]
struct Opts {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: Option<bool>,
    json: Option<PathBuf>,
    quick: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Opts, String> {
    let mut o = Opts {
        workloads: Vec::new(),
        seed: 2003,
        seconds: 25,
        trace: None,
        json: None,
        quick: false,
    };
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        if flag == "--quick" {
            o.quick = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => o.workloads.push(
                Workload::from_name(&value).ok_or_else(|| format!("unknown workload {value}"))?,
            ),
            "--seed" => o.seed = number()?,
            "--seconds" => o.seconds = number()?.clamp(1, 120),
            "--trace" => {
                o.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--json" => o.json = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(o)
}

/// One reported metric: its value, unit, and the quartiles and count of
/// the samples it summarises.
#[derive(Debug, Clone, Copy)]
struct Metric {
    value: f64,
    unit: &'static str,
    q1: f64,
    q3: f64,
    n: usize,
}

impl Metric {
    /// The median of `samples`.
    fn median(unit: &'static str, samples: &[f64]) -> Self {
        let (q1, q3) = quartiles(samples);
        Metric {
            value: median(samples),
            unit,
            q1,
            q3,
            n: samples.len(),
        }
    }

    /// A single exact value (a count or a reading).
    fn one(unit: &'static str, value: f64) -> Self {
        Metric {
            value,
            unit,
            q1: value,
            q3: value,
            n: 1,
        }
    }
}

/// One rep: every part of the workload, run once.
struct Rep {
    traced: bool,
    /// Seconds the host-speed reference took just before the rep.
    reference_s: f64,
    parts: Vec<PartRun>,
}

impl Rep {
    fn sum(&self, f: impl Fn(&PartRun) -> f64) -> f64 {
        self.parts.iter().map(f).sum()
    }

    fn digest(&self) -> u64 {
        let mut h = workloads::Fnv::new();
        for p in &self.parts {
            h.u64(p.digest);
        }
        h.finish()
    }

    fn counter(&self, name: &str) -> f64 {
        self.sum(|p| p.counters.get(name).copied().unwrap_or(0.0))
    }

    /// Slice times, all of them or only those with (`Some(true)`) or
    /// without (`Some(false)`) an active fault.
    fn slices(&self, fault: Option<bool>) -> Vec<f64> {
        self.parts
            .iter()
            .flat_map(|p| p.slice_ms.iter().zip(&p.fault_slice))
            .filter(|(_, &f)| fault.is_none_or(|want| want == f))
            .map(|(&ms, _)| ms)
            .collect()
    }
}

/// What one workload run produced.
struct RunResult {
    metrics: Vec<(&'static str, Metric)>,
    attempted: usize,
    failed: usize,
    errors: Vec<String>,
    digest: u64,
}

/// The slice-time tail percentile of `w`: the highest that leaves ten
/// slices beyond it at the `MIN_PAIRS` traced reps every traced run makes.
fn tail_pct(w: Workload) -> f64 {
    let slices: u64 = w.parts(false).iter().map(|p| p.horizon).sum();
    tail_percentile(MIN_PAIRS * slices as usize, 10)
}

/// The seed of a run's `k`th input: the run's own seed first, then a
/// golden-ratio stride from it, so neighbouring inputs land far apart in
/// seed space.
fn input_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(k as u64))
}

/// Runs `w` for about `o.seconds`, checks its output and summarises.
fn run_workload(w: Workload, o: &Opts, traced: bool) -> RunResult {
    let parts = w.parts(o.quick);
    let started = Instant::now();
    let budget = Duration::from_secs(o.seconds);
    let mut rec = Recorder::new(traced);
    let top = rec.open("workload");
    let mut reps: Vec<Rep> = Vec::new();
    let mut peak_kb = 0;
    // Reps come in pairs, each pair on its own input; another pair starts
    // while one of average length still fits the budget.
    while reps.len() < 2 * MIN_PAIRS
        || started.elapsed() + 2 * started.elapsed() / reps.len() as u32 <= budget
    {
        let input = input_seed(o.seed, reps.len() / 2);
        // A traced run's pair is one traced and one untraced rep, traced
        // first (so its memory readings start from a fresh heap); the
        // untraced ones are the baseline for the tracing overhead.
        for traced_rep in [traced, false] {
            let reference_s = time_reference(&mut rec);
            let span = rec.open(if traced_rep { "rep" } else { "untraced rep" });
            rec.set_paused(!traced_rep);
            set_counting(traced_rep);
            let runs = parts
                .iter()
                .map(|p| run_part(w, p, input, o.quick, &mut rec))
                .collect();
            set_counting(false);
            rec.set_paused(!traced);
            rec.close(span, &[("input", input)]);
            reps.push(Rep {
                traced: traced_rep,
                reference_s,
                parts: runs,
            });
        }
        // Read after a fixed number of inputs: a faster build that fits
        // more inputs in the budget must not meet a larger peak for it.
        if reps.len() == 2 * MIN_PAIRS {
            peak_kb = status_kb("VmHWM");
        }
    }
    let mut setups: Vec<f64> = reps
        .iter()
        .map(|r| reference::scaled(r.sum(|p| p.setup_s), r.reference_s))
        .collect();
    while setups.len() < MIN_SETUPS {
        let reference_s = time_reference(&mut rec);
        let span = rec.open("setup probe");
        let mut secs = 0.0;
        for p in &parts {
            let t = Instant::now();
            let sim = p.build(o.seed);
            secs += t.elapsed().as_secs_f64();
            drop(sim);
        }
        rec.close(span, &[]);
        setups.push(reference::scaled(secs, reference_s));
    }
    let probes = traced.then(|| constructor_probes(&parts[0], &mut rec));
    rec.close(top, &[]);

    let digest = reps[0].digest();
    let expected = if o.quick {
        None
    } else {
        w.expected_digest(o.seed)
    };
    let mut errors = Vec::new();
    let mut failed = 0;
    for (i, pair) in reps.chunks(2).enumerate() {
        for (j, r) in pair.iter().enumerate() {
            let mut e: Vec<String> = r.parts.iter().flat_map(|p| p.errors.clone()).collect();
            if r.digest() != pair[0].digest() {
                e.push(format!(
                    "digest {:016x} differs from {:016x} of the same input",
                    r.digest(),
                    pair[0].digest()
                ));
            }
            if let Some(x) = expected.filter(|&x| i == 0 && x != r.digest()) {
                e.push(format!(
                    "digest {:016x}, expected {x:016x} at seed {}",
                    r.digest(),
                    o.seed
                ));
            }
            if !e.is_empty() {
                failed += 1;
                errors.extend(e.into_iter().map(|m| format!("rep {}: {m}", 2 * i + j)));
            }
        }
    }

    let metrics = if traced {
        if let Err(e) = write_trace(w, &rec) {
            errors.push(format!("writing the trace: {e}"));
        }
        per_layer(w, &reps, &rec, probes.unwrap_or_default())
    } else {
        end_to_end(&reps, &setups, peak_kb)
    };
    RunResult {
        metrics,
        attempted: reps.len(),
        failed,
        errors,
        digest,
    }
}

/// Runs the host-speed reference inside a span; returns its seconds.
fn time_reference(rec: &mut Recorder) -> f64 {
    let span = rec.open("reference");
    let secs = reference::run();
    rec.close(span, &[]);
    secs
}

/// Times `N` standalone `PressNode::new` and `Directory::new` calls with
/// the part's configuration: the per-node share of setup.
fn constructor_probes(part: &Part, rec: &mut Recorder) -> (f64, f64) {
    let c = &part.config;
    let n = c.press.nodes;
    let span = rec.open("PressNode::new x N");
    let mut node_s = 0.0;
    for i in 0..n {
        let press = c.press.clone();
        let t = Instant::now();
        let node = PressNode::new(NodeId(i), c.version, press);
        node_s += t.elapsed().as_secs_f64();
        drop(node);
    }
    rec.close(span, &[("calls", n as u64)]);
    let span = rec.open("Directory::new x N");
    let mut dir_s = 0.0;
    for _ in 0..n {
        let t = Instant::now();
        let dir = Directory::new(c.press.files);
        dir_s += t.elapsed().as_secs_f64();
        drop(dir);
    }
    rec.close(span, &[("calls", n as u64)]);
    (node_s, dir_s)
}

/// `setup_s` and `run_s` at the reference's nominal speed, and
/// `peak_rss_mb`. `setups` are already scaled.
fn end_to_end(reps: &[Rep], setups: &[f64], peak_kb: u64) -> Vec<(&'static str, Metric)> {
    let runs: Vec<f64> = reps
        .iter()
        .map(|r| reference::scaled(r.sum(|p| p.run_s), r.reference_s))
        .collect();
    vec![
        ("setup_s", Metric::median("s", setups)),
        ("run_s", Metric::median("s", &runs)),
        ("peak_rss_mb", Metric::one("MiB", peak_kb as f64 / 1024.0)),
    ]
}

fn per_layer(
    w: Workload,
    reps: &[Rep],
    rec: &Recorder,
    probes: (f64, f64),
) -> Vec<(&'static str, Metric)> {
    let traced: Vec<&Rep> = reps.iter().filter(|r| r.traced).collect();
    let untraced: Vec<f64> = reps
        .iter()
        .filter(|r| !r.traced)
        .map(|r| r.sum(|p| p.run_s))
        .collect();
    let first = traced[0];
    let c = |name: &str| first.counter(name);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let over_traced = |unit, f: &dyn Fn(&Rep) -> f64| {
        Metric::median(unit, &traced.iter().map(|r| f(r)).collect::<Vec<_>>())
    };
    let slices =
        |fault: Option<bool>| -> Vec<f64> { traced.iter().flat_map(|r| r.slices(fault)).collect() };
    let all_slices = slices(None);
    let run_s = |via: bool| {
        move |r: &Rep| {
            r.sum(|p| {
                if p.version.uses_via() == via {
                    p.run_s
                } else {
                    0.0
                }
            })
        }
    };
    let run_wall = over_traced("s", &|r| r.sum(|p| p.run_s));
    let served = c("press.served_local") + c("press.served_remote") + c("press.served_disk");
    let max_kb =
        |f: fn(&PartRun) -> u64| first.parts.iter().map(f).max().unwrap_or(0) as f64 / 1024.0;

    let self_ns: BTreeMap<&str, u64> =
        self_times(&rec.spans().iter().map(|s| s.iv.clone()).collect::<Vec<_>>())
            .into_iter()
            .collect();
    let self_ms = |names: &[&str]| {
        let ns: u64 = names.iter().filter_map(|n| self_ns.get(n)).sum();
        Metric::one("ms", ns as f64 / 1e6 / traced.len() as f64)
    };

    let references: Vec<f64> = reps.iter().map(|r| 1e3 * r.reference_s).collect();
    let mut m: Vec<(&'static str, Metric)> = vec![
        ("host.reference_ms", Metric::median("ms", &references)),
        ("cluster.run_wall_s", run_wall),
        (
            "cluster.allocs_setup",
            Metric::one("count", first.sum(|p| p.setup_allocs as f64)),
        ),
        (
            "cluster.allocs_per_event",
            Metric::one(
                "allocs/event",
                ratio(first.sum(|p| p.run_allocs as f64), c("engine.events")),
            ),
        ),
        (
            "cluster.rss_setup_mb",
            Metric::one("MiB", max_kb(|p| p.rss_setup_kb)),
        ),
        (
            "cluster.rss_growth_mb",
            Metric::one("MiB", max_kb(|p| p.rss_growth_kb)),
        ),
        ("cluster.slice_ms_p50", Metric::median("ms", &all_slices)),
        (
            "cluster.slice_ms_tail",
            Metric {
                value: quantile(&all_slices, tail_pct(w) / 100.0),
                ..Metric::median("ms", &all_slices)
            },
        ),
        (
            "cluster.fault_ms_per_sim_s",
            Metric::median("ms", &slices(Some(true))),
        ),
        (
            "cluster.clear_ms_per_sim_s",
            Metric::median("ms", &slices(Some(false))),
        ),
        (
            "cluster.report_s",
            over_traced("s", &|r| r.sum(|p| p.report_s)),
        ),
        (
            "engine.ns_per_event",
            over_traced("ns", &|r| {
                1e9 * ratio(r.sum(|p| p.run_s), r.counter("engine.events"))
            }),
        ),
        (
            "fabric.frames_per_request",
            Metric::one(
                "frames/req",
                ratio(c("fabric.frames_delivered"), c("client.attempts")),
            ),
        ),
        ("tcp.run_s", over_traced("s", &run_s(false))),
        ("via.run_s", over_traced("s", &run_s(true))),
        (
            "press.hit_ratio",
            Metric::one(
                "ratio",
                ratio(c("press.served_local") + c("press.served_remote"), served),
            ),
        ),
        ("press.node_new_s", Metric::one("s", probes.0)),
        ("press.directory_new_s", Metric::one("s", probes.1)),
        (
            "press.cache.ctrl_per_req",
            Metric::one(
                "frames/req",
                ratio(c("press.cache.sync_frames"), c("client.successes")),
            ),
        ),
        (
            "client.availability",
            Metric::one("ratio", ratio(c("client.successes"), c("client.attempts"))),
        ),
        (
            "trace_overhead_pct",
            Metric::one(
                "%",
                100.0 * (ratio(run_wall.value, median(&untraced)) - 1.0),
            ),
        ),
        ("self_ms.harness", self_ms(&["workload", "rep", "part"])),
        ("self_ms.setup", self_ms(&["setup"])),
        ("self_ms.slice", self_ms(&["slice"])),
        ("self_ms.report", self_ms(&["report"])),
        ("self_ms.digest", self_ms(&["digest"])),
        ("self_ms.teardown", self_ms(&["teardown"])),
    ];
    for (name, unit) in PER_LAYER {
        if unit == "count" && !m.iter().any(|(n, _)| *n == name) {
            m.push((name, Metric::one("count", c(name))));
        }
    }
    m.sort_by_key(|(name, _)| PER_LAYER.iter().position(|(n, _)| n == name));
    m
}

/// Where traces and per-workload results go: `$CARGO_TARGET_DIR/perfbench`
/// or `target/perfbench`.
fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target).join("perfbench")
}

fn write_trace(w: Workload, rec: &Recorder) -> std::io::Result<()> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}.trace.json", w.name()));
    std::fs::write(&path, rec.chrome_trace(&format!("perfbench {}", w.name())))?;
    println!("trace: {}", path.display());
    Ok(())
}

fn num(v: f64) -> JsonValue {
    JsonValue::Float(if v.is_finite() { v } else { 0.0 })
}

fn obj(entries: impl IntoIterator<Item = (String, JsonValue)>) -> JsonValue {
    JsonValue::Object(entries.into_iter().collect())
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
fn result_line(attempted: usize, failed: usize, metrics: JsonValue) -> String {
    obj([
        ("correct".to_string(), JsonValue::Bool(failed == 0)),
        ("attempted".to_string(), JsonValue::Int(attempted as i64)),
        ("failed".to_string(), JsonValue::Int(failed as i64)),
        ("metrics".to_string(), metrics),
    ])
    .to_compact()
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs one workload in this process and prints its result.
fn run_one(w: Workload, o: &Opts) -> ExitCode {
    let traced = o.trace.unwrap_or(false);
    let r = run_workload(w, o, traced);
    println!(
        "perfbench {} seed={} traced={} reps={} digest={:016x} host_cores={}",
        w.name(),
        o.seed,
        u8::from(traced),
        r.attempted,
        r.digest,
        host_cores()
    );
    for (name, m) in &r.metrics {
        println!(
            "  {name:<32} {:>14.6} {:<12} q1 {:.6} q3 {:.6} n {}",
            m.value, m.unit, m.q1, m.q3, m.n
        );
    }
    for e in &r.errors {
        println!("  CHECK FAILED: {e}");
    }
    if let Some(path) = &o.json {
        let detail = obj([
            ("workload".to_string(), JsonValue::Str(w.name().to_string())),
            ("seed".to_string(), JsonValue::Int(o.seed as i64)),
            ("traced".to_string(), JsonValue::Bool(traced)),
            ("quick".to_string(), JsonValue::Bool(o.quick)),
            (
                "host_cores".to_string(),
                JsonValue::Int(host_cores() as i64),
            ),
            ("attempted".to_string(), JsonValue::Int(r.attempted as i64)),
            ("failed".to_string(), JsonValue::Int(r.failed as i64)),
            (
                "digest".to_string(),
                JsonValue::Str(format!("{:016x}", r.digest)),
            ),
            (
                "errors".to_string(),
                JsonValue::Array(r.errors.iter().cloned().map(JsonValue::Str).collect()),
            ),
            (
                "metrics".to_string(),
                obj(r.metrics.iter().map(|(name, m)| {
                    let fields = [
                        ("unit", JsonValue::Str(m.unit.to_string())),
                        ("value", num(m.value)),
                        ("q1", num(m.q1)),
                        ("q3", num(m.q3)),
                        ("n", JsonValue::Int(m.n as i64)),
                    ];
                    (
                        name.to_string(),
                        obj(fields.map(|(k, v)| (k.to_string(), v))),
                    )
                })),
            ),
        ]);
        if let Err(e) = write_file(path, &detail.to_pretty()) {
            eprintln!("perfbench: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    println!(
        "{}",
        result_line(r.attempted, r.failed, value_unit_map(&r.metrics))
    );
    if r.failed == 0 && r.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn value_unit_map(metrics: &[(&str, Metric)]) -> JsonValue {
    obj(metrics.iter().map(|(name, m)| {
        let fields = [
            ("value".to_string(), num(m.value)),
            ("unit".to_string(), JsonValue::Str(m.unit.to_string())),
        ];
        (name.to_string(), obj(fields))
    }))
}

fn write_file(path: &Path, text: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}

/// Runs each selected workload, in each trace mode, as a child process
/// of this program, one at a time, and merges their results.
fn run_children(o: &Opts) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot find own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let workloads = if o.workloads.is_empty() {
        ALL.to_vec()
    } else {
        o.workloads.clone()
    };
    let modes = o.trace.map_or(vec![false, true], |t| vec![t]);
    let (mut attempted, mut failed, mut ok) = (0, 0, true);
    let mut merged = BTreeMap::new();
    let mut line_metrics = BTreeMap::new();
    for w in workloads {
        for &traced in &modes {
            let label = format!("{}{}", w.name(), if traced { ".traced" } else { "" });
            let detail = out_dir().join(format!("{label}.json"));
            let mut cmd = Command::new(&exe);
            cmd.args([
                "--workload",
                w.name(),
                "--trace",
                if traced { "1" } else { "0" },
            ])
            .args([
                "--seed",
                &o.seed.to_string(),
                "--seconds",
                &o.seconds.to_string(),
            ])
            .arg("--json")
            .arg(&detail);
            if o.quick {
                cmd.arg("--quick");
            }
            let status = cmd.status();
            ok &= matches!(&status, Ok(s) if s.success());
            let doc = std::fs::read_to_string(&detail)
                .ok()
                .and_then(|text| json::parse(&text).ok());
            let Some(doc) = doc else {
                eprintln!("perfbench: {label} left no result ({status:?})");
                ok = false;
                continue;
            };
            let count = |k| doc.get(k).and_then(JsonValue::as_i64).unwrap_or(0) as usize;
            attempted += count("attempted");
            failed += count("failed");
            if let Some(metrics) = doc.get("metrics").and_then(JsonValue::as_object) {
                for (name, m) in metrics {
                    let pick = |k: &str| m.get(k).cloned().unwrap_or(JsonValue::Null);
                    let fields = [
                        ("value".to_string(), pick("value")),
                        ("unit".to_string(), pick("unit")),
                    ];
                    line_metrics.insert(format!("{}.{name}", w.name()), obj(fields));
                }
            }
            merged.insert(label, doc);
        }
    }
    if let Some(path) = &o.json {
        if let Err(e) = write_file(path, &JsonValue::Object(merged).to_pretty()) {
            eprintln!("perfbench: writing {}: {e}", path.display());
            ok = false;
        }
    }
    println!(
        "{}",
        result_line(attempted.max(1), failed, JsonValue::Object(line_metrics))
    );
    if ok && failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let o = match parse_args(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match o.workloads.as_slice() {
        [w] => run_one(*w, &o),
        _ => run_children(&o),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Opts, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn arguments_parse_and_bad_ones_are_refused() {
        let o = args("--workload faults-n4 --seed 7 --seconds 10 --trace 1 --quick").unwrap();
        assert_eq!(o.workloads, vec![Workload::FaultsN4]);
        assert_eq!(
            (o.seed, o.seconds, o.trace, o.quick),
            (7, 10, Some(true), true)
        );
        assert!(args("--reps 3").is_err());
        assert!(args("--workload nope").is_err());
        assert!(args("--trace 2").is_err());
        assert!(args("--seed").is_err());
        assert!(args("--frobnicate 1").is_err());
    }

    #[test]
    fn tail_percentiles_are_fixed_per_workload() {
        let pct: Vec<f64> = ALL.into_iter().map(tail_pct).collect();
        assert_eq!(pct, vec![90.0, 95.0, 90.0, 90.0]);
    }
}
