//! The four workloads, one timed rep of each, the digest of its
//! simulated output, and the checks that the output is right.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use experiments::cluster::ProcEvent;
use experiments::scale::scale_config;
use experiments::{ClusterConfig, ClusterReport, ClusterSim, MonteCarloSetup, RunScale};
use mendosus::{generate_trace, Campaign, FaultKind, FaultSpec};
use press::{CacheSyncImpl, MembershipImpl, PressVersion};
use simnet::fabric::NodeId;
use simnet::{SimDuration, SimTime};
use telemetry::metrics::MetricsRegistry;

use crate::trace::{allocations, status_kb, Recorder};

/// The seed `faults-n4` draws its fault timeline from. The timeline is
/// fixed, like the scale workloads' crash, so that spread between seeds
/// measures the simulator rather than how many faults a draw produced;
/// `--seed` drives the cluster's own randomness.
const TIMELINE_SEED: u64 = 2003;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper test-bed, prewarmed and fault-free: the per-event hot
    /// path, once on TCP-PRESS-HB and once on VIA-PRESS-5.
    SteadyN4,
    /// The test-bed under one generated timeline of overlapping faults.
    FaultsN4,
    /// 16 cold nodes with batched cache digests and a transient crash.
    ColdN16Digest,
    /// 8 cold nodes with per-action broadcasts, gossip membership and
    /// the same crash.
    ColdN8Eager,
}

/// Every workload, in run order.
pub const ALL: [Workload; 4] = [
    Workload::SteadyN4,
    Workload::FaultsN4,
    Workload::ColdN16Digest,
    Workload::ColdN8Eager,
];

/// Output digests at seeds 2003 and 7, recorded with `--trace 0`. A
/// change that only makes the simulator faster leaves them identical.
const EXPECTED: [(Workload, u64, u64); 8] = [
    (Workload::SteadyN4, 2003, 0x0a1e_6e02_d7d7_86e4),
    (Workload::SteadyN4, 7, 0x524c_0aa2_25c4_02f7),
    (Workload::FaultsN4, 2003, 0x4d44_0894_b702_47e7),
    (Workload::FaultsN4, 7, 0x9caf_e81d_3ed7_ac06),
    (Workload::ColdN16Digest, 2003, 0x1d6d_b34a_df6e_4c48),
    (Workload::ColdN16Digest, 7, 0x72e9_e737_b67c_c77a),
    (Workload::ColdN8Eager, 2003, 0x092a_3c46_8bbe_228a),
    (Workload::ColdN8Eager, 7, 0x79f5_c865_8ae5_02d1),
];

impl Workload {
    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SteadyN4 => "steady-n4",
            Workload::FaultsN4 => "faults-n4",
            Workload::ColdN16Digest => "cold-n16-digest",
            Workload::ColdN8Eager => "cold-n8-eager",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Self> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// The expected output digest at `seed`, where one is recorded.
    pub fn expected_digest(self, seed: u64) -> Option<u64> {
        EXPECTED
            .iter()
            .find(|(w, s, _)| *w == self && *s == seed)
            .map(|&(_, _, d)| d)
    }

    /// The simulations one rep runs, in order. `quick` shrinks every one
    /// to N ≤ 8 and a 5 s horizon.
    pub fn parts(self, quick: bool) -> Vec<Part> {
        let horizon = if quick { 5 } else { 30 };
        match self {
            Workload::SteadyN4 => [PressVersion::TcpHb, PressVersion::Via5]
                .map(|v| {
                    Part::new(
                        ClusterConfig::fault_experiment(v),
                        Campaign::none(),
                        horizon,
                    )
                })
                .into(),
            Workload::FaultsN4 => {
                let setup = MonteCarloSetup::showcase(PressVersion::TcpHb, RunScale::Paper);
                let (settle, window) = if quick { (1, 4) } else { (30, 150) };
                let campaign = generate_trace(
                    &setup.classes,
                    SimTime::from_secs(settle),
                    SimDuration::from_secs(window),
                    4,
                    TIMELINE_SEED,
                )
                .expand(&setup.rules);
                let config = ClusterConfig::fault_experiment(PressVersion::TcpHb);
                vec![Part::new(config, campaign, settle + window)]
            }
            Workload::ColdN16Digest => {
                vec![cold(quick, 16, CacheSyncImpl::Digest, MembershipImpl::Ring)]
            }
            Workload::ColdN8Eager => {
                vec![cold(quick, 8, CacheSyncImpl::Eager, MembershipImpl::Gossip)]
            }
        }
    }

    /// Checks one part's simulated output; returns what is wrong.
    fn check(self, quick: bool, part: &Part, report: &ClusterReport, c: &Counters) -> Vec<String> {
        let mut errors = Vec::new();
        let a = &report.availability;
        let scored = a.successes + a.failures();
        // Requests still awaiting a reply at the horizon are unscored;
        // at most one connect (2 s) plus one request timeout (6 s) of
        // arrivals can be.
        let unscored_cap = part.config.rate * 8.0;
        if scored > a.attempts || (a.attempts - scored) as f64 > unscored_cap {
            errors.push(format!(
                "{} successes + {} failures do not account for {} attempts",
                a.successes,
                a.failures(),
                a.attempts
            ));
        }
        if a.successes == 0 {
            errors.push("no request succeeded".to_string());
        }
        if quick {
            return errors;
        }
        let n = part.config.press.nodes;
        let crash_and_restart = |node: usize| {
            let saw = |ev| {
                report
                    .process_log
                    .iter()
                    .any(|&(_, id, e)| id.0 == node && e == ev)
            };
            saw(ProcEvent::Exit) && saw(ProcEvent::Restart)
        };
        let ctrl_per_req = c["press.cache.sync_frames"] / a.successes.max(1) as f64;
        match self {
            Workload::SteadyN4 => {
                if !report.process_log.is_empty() || !report.fully_recovered(n) {
                    errors.push("a fault-free run lost a process or a member".to_string());
                }
                if a.availability() < 0.999 {
                    errors.push(format!("fault-free availability {}", a.availability()));
                }
            }
            Workload::FaultsN4 => {
                if !report
                    .process_log
                    .iter()
                    .any(|&(_, _, e)| e == ProcEvent::Exit)
                {
                    errors.push("the fault timeline crashed no process".to_string());
                }
                if c["tcp.retransmissions"] == 0.0 {
                    errors.push("faults caused no TCP retransmission".to_string());
                }
            }
            Workload::ColdN16Digest => {
                if !crash_and_restart(1) {
                    errors.push("node 1 did not crash and restart".to_string());
                }
                // A 20 s crash of one node in 16 costs about 4% of a 50 s
                // run; eager sync, frozen by the same crash, loses 40%.
                if ctrl_per_req > 0.1 || a.availability() < 0.9 {
                    errors.push(format!(
                        "digest sync: {ctrl_per_req} control frames per request, availability {}",
                        a.availability()
                    ));
                }
            }
            Workload::ColdN8Eager => {
                if !crash_and_restart(1) {
                    errors.push("node 1 did not crash and restart".to_string());
                }
                if ctrl_per_req < 1.0 {
                    errors.push(format!(
                        "eager sync: only {ctrl_per_req} control frames per request"
                    ));
                }
            }
        }
        errors
    }
}

/// One scale-study point of `n` nodes: TCP-PRESS-HB, cold caches, node 1
/// crashed for a while, as in `repro -- scale`.
fn cold(quick: bool, n: usize, sync: CacheSyncImpl, detector: MembershipImpl) -> Part {
    let (scale, n, crash_at, down, horizon) = if quick {
        (RunScale::Small, n.min(8), 2, 2, 5)
    } else {
        (RunScale::Paper, n, 10, 20, 50)
    };
    let campaign = Campaign::single(FaultSpec::transient(
        FaultKind::NodeCrash,
        NodeId(1),
        SimTime::from_secs(crash_at),
        SimDuration::from_secs(down),
    ));
    let config = scale_config(scale, n, PressVersion::TcpHb, sync, Some(detector));
    Part::new(config, campaign, horizon)
}

/// One simulation of a workload.
#[derive(Debug, Clone)]
pub struct Part {
    /// Cluster configuration (one simulation thread).
    pub config: ClusterConfig,
    /// Fault campaign.
    pub campaign: Campaign,
    /// Simulated seconds to run.
    pub horizon: u64,
}

impl Part {
    fn new(mut config: ClusterConfig, campaign: Campaign, horizon: u64) -> Self {
        config.sim_threads = 1;
        Part {
            config,
            campaign,
            horizon,
        }
    }

    /// Builds the simulation, as timed by `setup_s`.
    pub fn build(&self, seed: u64) -> ClusterSim {
        ClusterSim::with_campaign(self.config.clone(), self.campaign.clone(), seed)
    }

    /// Whether a fault is active during each 1 s slice.
    fn fault_active(&self) -> Vec<bool> {
        let intervals = self
            .campaign
            .active_intervals(SimTime::from_secs(self.horizon));
        (0..self.horizon)
            .map(|s| {
                let (a, b) = (SimTime::from_secs(s), SimTime::from_secs(s + 1));
                intervals.iter().any(|iv| iv.start < b && iv.end > a)
            })
            .collect()
    }
}

/// Per-layer counts of one part, by metric name.
pub type Counters = BTreeMap<&'static str, f64>;

/// `metrics_snapshot` counters read as per-layer metrics, as
/// `(metric, snapshot counter)`.
const SNAPSHOT_COUNTERS: [(&str, &str); 15] = [
    (
        "engine.timers_stale_suppressed",
        "transport.timers_stale_suppressed",
    ),
    ("tcp.data_segments_sent", "tcp.data_segments_sent"),
    ("tcp.retransmissions", "tcp.retransmissions"),
    ("tcp.aborts", "tcp.aborts"),
    ("via.messages_sent", "via.messages_sent"),
    ("via.credit_stalls", "via.credit_stalls"),
    ("press.served_local", "press.served_local"),
    ("press.served_remote", "press.served_remote"),
    ("press.served_disk", "press.served_disk"),
    ("press.forward_timeouts", "press.forward_timeouts"),
    ("press.dropped_deferred", "press.dropped_deferred"),
    ("press.exclusions", "press.exclusions"),
    ("press.rejoined", "press.rejoined"),
    ("gossip.pings", "press.gossip.pings"),
    ("client.attempts", "client.attempts"),
];

/// The result of one part of one rep.
#[derive(Debug, Clone)]
pub struct PartRun {
    /// The PRESS version simulated.
    pub version: PressVersion,
    /// Host seconds in `ClusterSim::with_campaign`.
    pub setup_s: f64,
    /// Host ms of each 1-simulated-second `run_until` slice.
    pub slice_ms: Vec<f64>,
    /// Whether a fault was active during each slice.
    pub fault_slice: Vec<bool>,
    /// Host seconds in `run_until` over the whole horizon.
    pub run_s: f64,
    /// Host seconds in `report` plus `metrics_snapshot`.
    pub report_s: f64,
    /// Digest of the simulated output.
    pub digest: u64,
    /// Per-layer counts.
    pub counters: Counters,
    /// Allocations during setup (counted in traced reps only).
    pub setup_allocs: u64,
    /// Allocations during the run (counted in traced reps only).
    pub run_allocs: u64,
    /// Resident-set growth across setup, kB.
    pub rss_setup_kb: u64,
    /// Peak resident set beyond the post-setup one, kB.
    pub rss_growth_kb: u64,
    /// What the output check found wrong.
    pub errors: Vec<String>,
}

/// Runs one part in 1-simulated-second slices, timing each call into
/// the simulator and recording spans around them.
pub fn run_part(w: Workload, part: &Part, seed: u64, quick: bool, rec: &mut Recorder) -> PartRun {
    let version = part.config.version;
    let span = rec.open("part");
    let rss0 = status_kb("VmRSS");
    let sp = rec.open("setup");
    let a0 = allocations();
    let t = Instant::now();
    let mut sim = part.build(seed);
    let setup_s = t.elapsed().as_secs_f64();
    let setup_allocs = allocations() - a0;
    rec.close(sp, &[]);
    let rss1 = status_kb("VmRSS");

    let fault_slice = part.fault_active();
    let mut slice_ms = Vec::with_capacity(part.horizon as usize);
    let mut run = Duration::ZERO;
    let a1 = allocations();
    for s in 1..=part.horizon {
        let sp = rec.open("slice");
        let events = sim.events_dispatched();
        let t = Instant::now();
        sim.run_until(SimTime::from_secs(s));
        let d = t.elapsed();
        run += d;
        slice_ms.push(d.as_secs_f64() * 1e3);
        let fault = u64::from(fault_slice[s as usize - 1]);
        let delta = sim.events_dispatched() - events;
        rec.close(sp, &[("sim_s", s), ("events", delta), ("fault", fault)]);
    }
    let run_allocs = allocations() - a1;

    let sp = rec.open("report");
    let t = Instant::now();
    let report = sim.report();
    let snapshot = sim.metrics_snapshot();
    let report_s = t.elapsed().as_secs_f64();
    rec.close(sp, &[]);

    let sp = rec.open("digest");
    let digest = digest(&sim, &report, &snapshot);
    let counters = counters(&mut sim, &snapshot, &part.campaign);
    let errors = w.check(quick, part, &report, &counters);
    rec.close(sp, &[]);
    let rss_growth_kb = status_kb("VmHWM").saturating_sub(rss1);

    let sp = rec.open("teardown");
    drop(sim);
    rec.close(sp, &[]);
    rec.close(span, &[("via", u64::from(version.uses_via()))]);
    PartRun {
        version,
        setup_s,
        slice_ms,
        fault_slice,
        run_s: run.as_secs_f64(),
        report_s,
        digest,
        counters,
        setup_allocs,
        run_allocs,
        rss_setup_kb: rss1.saturating_sub(rss0),
        rss_growth_kb,
        errors,
    }
}

fn counters(sim: &mut ClusterSim, snapshot: &MetricsRegistry, campaign: &Campaign) -> Counters {
    let fabric = sim.fabric_mut().stats();
    let (delivered, lost) = (fabric.delivered, fabric.lost);
    let nodes: Vec<_> = (0..sim.config().press.nodes)
        .map(|i| sim.press(NodeId(i)))
        .collect();
    let sum = |f: &dyn Fn(&press::PressNode) -> u64| nodes.iter().map(|p| f(p)).sum::<u64>() as f64;
    let mut c: Counters = SNAPSHOT_COUNTERS
        .iter()
        .map(|&(metric, key)| (metric, snapshot.counter(key) as f64))
        .collect();
    c.insert(
        "client.successes",
        snapshot.counter("client.successes") as f64,
    );
    c.insert("engine.events", sim.events_dispatched() as f64);
    c.insert("fabric.frames_delivered", delivered as f64);
    c.insert("fabric.frames_lost", lost as f64);
    c.insert(
        "press.cache.sync_frames",
        sum(&|p| p.stats().cache_sync_frames),
    );
    c.insert(
        "press.cache.digest_flushes",
        sum(&|p| p.stats().digest_flushes),
    );
    c.insert(
        "press.cache.digest_retries",
        sum(&|p| p.stats().digest_retries),
    );
    c.insert(
        "press.directory_entries",
        sum(&|p| p.directory().entries() as u64),
    );
    c.insert("mendosus.fault_actions", campaign.actions().len() as f64);
    c
}

/// 64-bit FNV-1a, fed field by field.
pub struct Fnv(u64);

impl Fnv {
    /// The FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Mixes in raw bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ u64::from(x)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Mixes in an integer.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of everything a run reports: events dispatched, client
/// tallies, the throughput series, latency quantiles, membership and
/// process logs, per-node cache-sync frames and the metrics snapshot.
pub fn digest(sim: &ClusterSim, report: &ClusterReport, snapshot: &MetricsRegistry) -> u64 {
    let mut h = Fnv::new();
    h.u64(sim.events_dispatched());
    let a = &report.availability;
    for v in [
        a.attempts,
        a.successes,
        a.connect_timeouts,
        a.request_timeouts,
        a.refused,
    ] {
        h.u64(v);
    }
    for &(t, v) in &report.throughput.points {
        h.u64(t.to_bits());
        h.u64(v.to_bits());
    }
    h.u64(report.latency.count());
    for q in [0.5, 0.9, 0.99, 0.999] {
        h.u64(report.latency.quantile(q).to_bits());
    }
    for &(t, node, members) in &report.membership_log {
        h.u64(t.as_nanos());
        h.u64(node.0 as u64);
        h.u64(members as u64);
    }
    for &(t, node, ev) in &report.process_log {
        h.u64(t.as_nanos());
        h.u64(node.0 as u64);
        h.u64(u64::from(ev == ProcEvent::Exit));
    }
    for i in 0..sim.config().press.nodes {
        h.u64(sim.press(NodeId(i)).stats().cache_sync_frames);
    }
    h.bytes(snapshot.text_summary("perfbench").as_bytes());
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Cutting the run into 1 s `run_until` calls must not change what
    /// it simulates, or the benchmark would time a different run.
    #[test]
    fn slicing_the_run_leaves_the_output_unchanged() {
        let part = cold(true, 16, CacheSyncImpl::Digest, MembershipImpl::Ring);
        let mut rec = Recorder::new(false);
        let sliced = run_part(Workload::ColdN16Digest, &part, 11, true, &mut rec);
        assert!(sliced.errors.is_empty(), "{:?}", sliced.errors);
        let mut sim = part.build(11);
        sim.run_until(SimTime::from_secs(part.horizon));
        let whole = digest(&sim, &sim.report(), &sim.metrics_snapshot());
        assert_eq!(sliced.digest, whole);
        assert_eq!(sliced.slice_ms.len(), part.horizon as usize);
        assert!(sliced.fault_slice[2] && !sliced.fault_slice[0]);
    }

    /// The benchmark drives a cold scale point exactly as the scale
    /// study does: same Tn, AT, AA and control frames for the same seed.
    #[test]
    fn a_cold_part_reproduces_the_scale_study_point() {
        let study = experiments::scale::study_points(&[4], RunScale::Small, 5, 1, false, false);
        // The study's second point is TCP-PRESS-HB, digest, ring; its
        // seed is derived from its index.
        let point = &study[1];
        assert_eq!(
            (point.sync, point.detector),
            (CacheSyncImpl::Digest, Some(MembershipImpl::Ring))
        );
        let seed = 5 + 7919 * 2;
        let (run_s, tn_window) = (60, 10.0);
        let config = scale_config(
            RunScale::Small,
            4,
            PressVersion::TcpHb,
            CacheSyncImpl::Digest,
            Some(MembershipImpl::Ring),
        );
        let campaign = Campaign::single(FaultSpec::transient(
            FaultKind::NodeCrash,
            NodeId(1),
            SimTime::from_secs(10),
            SimDuration::from_secs(20),
        ));
        let part = Part::new(config, campaign, run_s);
        let mut sim = part.build(seed);
        for s in 1..=run_s {
            sim.run_until(SimTime::from_secs(s));
        }
        let a = sim.report().availability;
        let ctrl: u64 = (0..4)
            .map(|i| sim.press(NodeId(i)).stats().cache_sync_frames)
            .sum();
        let tn = sim.mean_throughput(run_s as f64 - tn_window, run_s as f64);
        assert_eq!(tn, point.tn);
        assert_eq!(a.successes as f64 / run_s as f64, point.at);
        assert_eq!(a.availability(), point.aa);
        assert_eq!(ctrl, point.ctrl_frames);
    }

    /// The `repro -- scalebench` line at N = 64 (2.9 GB, about a minute):
    /// `cargo test --release -- --ignored`.
    #[test]
    #[ignore]
    fn the_n64_digest_point_reproduces_scalebench() {
        let config = scale_config(
            RunScale::Paper,
            64,
            PressVersion::TcpHb,
            CacheSyncImpl::Digest,
            Some(MembershipImpl::Ring),
        );
        let campaign = Campaign::single(FaultSpec::transient(
            FaultKind::NodeCrash,
            NodeId(1),
            SimTime::from_secs(20),
            SimDuration::from_secs(45),
        ));
        let part = Part::new(config, campaign, 120);
        let mut sim = part.build(2003);
        for s in 1..=120 {
            sim.run_until(SimTime::from_secs(s));
        }
        let a = sim.report().availability;
        let ctrl: u64 = (0..64)
            .map(|i| sim.press(NodeId(i)).stats().cache_sync_frames)
            .sum();
        let line = format!(
            "Tn={:.0} AT={:.0} AA={:.2}% ctrl={ctrl}",
            sim.mean_throughput(100.0, 120.0),
            a.successes as f64 / 120.0,
            100.0 * a.availability()
        );
        assert_eq!(line, "Tn=12790 AT=12674 AA=99.15% ctrl=30526");
    }
}
