//! The trace exporters must be deterministic: for a fixed seed the
//! exported bytes may not depend on the worker count, on re-runs, or on
//! anything wall-clock. This is what makes `repro -- fig3 --trace`
//! diffable and the Chrome-trace files safe to commit as goldens.

use experiments::figures::timeline_results;
use experiments::phase1::FaultRunResult;
use experiments::phase2::RunScale;
use experiments::scale::scale_config;
use experiments::{run_indexed, ClusterSim};
use mendosus::{Campaign, FaultKind, FaultSpec};
use press::{CacheSyncImpl, MembershipImpl, PressVersion};
use simnet::fabric::NodeId;
use simnet::{SimDuration, SimTime};

/// The small fig3 with the chosen observers on: its text and runs.
fn fig3(jobs: usize, trace: bool, attribution: bool) -> (String, Vec<FaultRunResult>) {
    timeline_results("fig3", RunScale::Small, 2003, jobs, trace, attribution)
        .expect("fig3 is a timeline target")
}

/// The runs' traces, in task order.
fn traces(runs: &[FaultRunResult]) -> Vec<telemetry::RunTrace> {
    runs.iter()
        .map(|r| r.trace.clone().expect("tracing was on"))
        .collect()
}

#[test]
fn traced_fig3_is_byte_identical_across_job_counts() {
    let (text1, runs1) = fig3(1, true, false);
    let (text4, runs4) = fig3(4, true, false);
    // Same rendered figure text...
    assert_eq!(text1, text4);
    // ...and byte-identical exporter output for every format.
    let (runs1, runs4) = (traces(&runs1), traces(&runs4));
    let chrome1 = telemetry::chrome_trace_json(&runs1);
    let chrome4 = telemetry::chrome_trace_json(&runs4);
    assert_eq!(chrome1, chrome4);
    assert_eq!(telemetry::jsonl_log(&runs1), telemetry::jsonl_log(&runs4));
    let summaries = |runs: &[telemetry::RunTrace]| {
        runs.iter()
            .map(|r| r.metrics.text_summary(&r.label))
            .collect::<Vec<_>>()
    };
    assert_eq!(summaries(&runs1), summaries(&runs4));
    // The trace is substantial, not a trivially-equal empty file.
    assert!(runs1.iter().map(|r| r.events.len()).sum::<usize>() > 100);
    assert!(chrome1.len() > 10_000);
}

/// Observers compose: one fig3 pass with both tracing and attribution
/// on renders exactly the attribution-only text and exports exactly
/// the trace-only files, and each observer is present only when asked
/// for.
#[test]
fn trace_and_attribution_compose_on_one_run() {
    let (both_text, both) = fig3(2, true, true);
    let (attr_text, attr_only) = fig3(1, false, true);
    let (_, trace_only) = fig3(1, true, false);
    assert_eq!(both_text, attr_text);
    assert!(both_text.contains("conservation: OK"));
    assert!(both.iter().all(|r| r.trace.is_some() && r.attr.is_some()));
    assert!(attr_only.iter().all(|r| r.trace.is_none()));
    assert!(trace_only.iter().all(|r| r.attr.is_none()));
    let (both, trace_only) = (traces(&both), traces(&trace_only));
    assert_eq!(
        telemetry::chrome_trace_json(&both),
        telemetry::chrome_trace_json(&trace_only)
    );
    assert_eq!(
        telemetry::jsonl_log(&both),
        telemetry::jsonl_log(&trace_only)
    );
}

/// One N = 64 node-crash run in the hardest determinism configuration:
/// the largest fabric (radix-8 fat tree with a spine), batched cache
/// digests, and the epidemic gossip detector. Load and horizon are
/// trimmed so the runs stay fast under the dev profile.
type RunObservables = (
    Vec<telemetry::TraceEvent>,
    Vec<(f64, f64)>,
    Vec<(SimTime, simnet::fabric::NodeId, usize)>,
);

fn digest_gossip_run() -> RunObservables {
    let mut config = scale_config(
        RunScale::Small,
        64,
        PressVersion::TcpHb,
        CacheSyncImpl::Digest,
        Some(MembershipImpl::Gossip),
    );
    config.rate = 8.0 * 64.0;
    config.trace = true;
    let campaign = Campaign::single(FaultSpec::transient(
        FaultKind::NodeCrash,
        NodeId(1),
        SimTime::from_secs(5),
        SimDuration::from_secs(6),
    ));
    let mut sim = ClusterSim::with_campaign(config, campaign, 29);
    sim.run_until(SimTime::from_secs(16));
    let report = sim.report();
    (
        sim.take_trace(),
        report.throughput.points.clone(),
        report.membership_log.clone(),
    )
}

#[test]
fn digest_gossip_n64_trace_is_identical_across_jobs() {
    // In-process baseline, then two re-runs on the run_indexed worker
    // pool (the `--jobs` path).
    let base = digest_gossip_run();
    let workers = run_indexed(2, vec![(); 2], |_i, ()| digest_gossip_run());
    assert_eq!(workers.len(), 2);
    for (i, w) in workers.iter().enumerate() {
        assert_eq!(&base, w, "worker run {i} diverged from the in-process run");
    }
    // The comparison is substantial, not trivially-equal empty data.
    assert!(
        base.0.len() > 100,
        "expected a non-trivial trace, got {} events",
        base.0.len()
    );
    assert!(!base.2.is_empty(), "the crash must perturb membership");
}
