//! Cluster-size scaling study: Tn / AT / AA / P and control-plane cost
//! as the cluster grows from the paper's 4 nodes to 64, under both
//! cache-synchronization protocols ([`CacheSyncImpl::Eager`], the
//! paper's per-action broadcast, and [`CacheSyncImpl::Digest`], the
//! batched-digest extension) and both failure detectors.
//!
//! The paper measures everything on a 4-node clan, where broadcasting
//! every caching action costs 3 frames. The broadcast is O(N) frames
//! per action, O(N²) cluster-wide — this sweep makes that visible and
//! measures what the digest protocol buys back.
//!
//! **Scenario.** Each point is a fig3-style transient node crash (node
//! 1's machine fails mid-run and rejoins), run on a *cold* cluster:
//! caches start empty, so the cooperative-cache write path carries
//! load-proportional churn for the whole run. A prewarmed cluster
//! serves every request from cache without a single caching action —
//! steady state says nothing about control-plane scaling — while cache
//! filling is exactly the regime where eager broadcast pays O(N) per
//! request. Offered load and the per-node document-set share are fixed
//! per node (rate ∝ N, files ∝ N), so the per-request cache-miss
//! profile is the same at every N and control frames *per request* are
//! directly comparable across cluster sizes: eager grows ∝ (N−1),
//! digest stays bounded by `DIGEST_FANOUT / DIGEST_INTERVAL` per node
//! regardless of load.
//!
//! **Fabric.** Points run on a multi-switch fat tree
//! ([`Topology::FatTree`], radix 8): one leaf switch at N ≤ 8, a
//! spine above 8 leaves at N = 64.
//!
//! Tn is the mean served throughput over the final (warm, recovered)
//! window; AT is successes over the whole run; AA is the whole-run
//! availability; P is the paper's performability metric on (Tn, AA).
//! `ctrl` counts `CacheAdd`/`CacheEvict`/`CacheDigest` frames actually
//! handed to the transport, cluster-wide.
//!
//! Every run is an independent `(config, campaign, seed)` triple fanned
//! over [`run_indexed`], so output is byte-identical for any `--jobs`
//! count.

use mendosus::{Campaign, FaultKind, FaultSpec};
use performability::metric::{performability, IDEAL_AVAILABILITY};
use press::{CacheSyncImpl, MembershipImpl, PressVersion};
use simnet::fabric::{NodeId, Topology};
use simnet::{SimDuration, SimTime};

use crate::cluster::ClusterConfig;
use crate::membership::detector_name;
use crate::phase2::{config_for, RunScale};
use crate::render::table;
use crate::runner::{run_indexed, run_totals, task_seed, Run};

/// Cluster sizes swept at paper scale (the paper's test-bed is the
/// smallest point).
pub const SWEEP_NODES: [usize; 3] = [4, 16, 64];

/// Cluster sizes swept at `--small` scale (the CI-gated golden).
pub const SMALL_SWEEP_NODES: [usize; 2] = [4, 16];

/// Leaf-switch radix of the sweep's fat-tree fabrics: N ≤ 8 fits one
/// leaf, N = 64 takes 8 leaves under a spine.
const LEAF_RADIX: usize = 8;

/// One `(N, version, sync, detector)` sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalePoint {
    /// Cluster size.
    pub nodes: usize,
    /// The PRESS version under test.
    pub version: PressVersion,
    /// Cache-synchronization protocol.
    pub sync: CacheSyncImpl,
    /// Failure detector (`None` for the VIA versions, which detect
    /// failures through transport errors rather than a detector).
    pub detector: Option<MembershipImpl>,
    /// Mean served throughput over the final warm window (req/s).
    pub tn: f64,
    /// Successful requests per second over the whole run.
    pub at: f64,
    /// Fraction of requests served over the whole run.
    pub aa: f64,
    /// The performability metric `P` on (Tn, AA).
    pub p: f64,
    /// Cache-sync control frames handed to the transport, cluster-wide.
    pub ctrl_frames: u64,
    /// Control frames per successful request.
    pub ctrl_per_req: f64,
    /// Node-level metrics snapshot, when requested.
    pub metrics: Option<String>,
    /// Rendered root-cause attribution section, when requested.
    pub attr_text: Option<String>,
}

/// Short label for a sync protocol ("eager" / "digest").
pub fn sync_name(s: CacheSyncImpl) -> &'static str {
    match s {
        CacheSyncImpl::Eager => "eager",
        CacheSyncImpl::Digest => "digest",
    }
}

/// Crash instant: late enough that the cluster is partially warm and
/// the crashed node holds a real share of the cache.
fn fault_at_s(scale: RunScale) -> u64 {
    match scale {
        RunScale::Paper => 20,
        RunScale::Small => 10,
    }
}

/// Machine-down duration (transient; the node restarts and rejoins).
fn crash_secs(scale: RunScale) -> u64 {
    match scale {
        RunScale::Paper => 45,
        RunScale::Small => 20,
    }
}

/// Whole-run length.
fn run_secs(scale: RunScale) -> u64 {
    match scale {
        RunScale::Paper => 120,
        RunScale::Small => 60,
    }
}

/// Warm-window width for Tn (the run's tail: caches full, node 1 back).
fn tn_window_s(scale: RunScale) -> f64 {
    match scale {
        RunScale::Paper => 20.0,
        RunScale::Small => 10.0,
    }
}

/// The sweep's cluster config at size `n`.
///
/// Per-node quantities are held fixed as `n` grows — document-set share
/// (files ∝ N against the unchanged per-node cache) and offered load
/// (rate ∝ N, sized so even an all-miss cold start stays within the
/// per-node disk bandwidth) — so every N sees the same per-node,
/// per-request work and the sweep isolates the communication
/// architecture.
pub fn scale_config(
    scale: RunScale,
    n: usize,
    version: PressVersion,
    sync: CacheSyncImpl,
    detector: Option<MembershipImpl>,
) -> ClusterConfig {
    let mut c = config_for(version, scale);
    c.press.nodes = n;
    c.press.cache_sync = sync;
    if let Some(d) = detector {
        c.press.membership = d;
    }
    c.topology = Topology::FatTree {
        leaf_radix: LEAF_RADIX,
    };
    // 2 disks × 9 ms service ≈ 222 reads/s per node: the cold-start
    // all-miss phase must fit under that, with headroom for the
    // recovery re-caching burst.
    match scale {
        RunScale::Paper => {
            c.press.files = 15_000 * n as u32;
            c.rate = 200.0 * n as f64;
        }
        RunScale::Small => {
            c.press.files = 1_500 * n as u32;
            c.rate = 150.0 * n as f64;
        }
    }
    c.prewarm = false;
    c
}

/// One sweep point: cold-start run with a transient node-1 crash. With
/// `metrics` the point keeps its node-level metrics snapshot, with
/// `attribution` its rendered root-cause attribution section.
fn node_crash_point(
    scale: RunScale,
    n: usize,
    (version, sync, detector): PointSpec,
    seed: u64,
    metrics: bool,
    attribution: bool,
) -> ScalePoint {
    let run_s = run_secs(scale);
    let crash = FaultSpec::transient(
        FaultKind::NodeCrash,
        NodeId(1),
        SimTime::from_secs(fault_at_s(scale)),
        SimDuration::from_secs(crash_secs(scale)),
    );
    let mut config = scale_config(scale, n, version, sync, detector);
    config.attribution = attribution;
    let end = SimTime::from_secs(run_s);
    let mut obs = Run::new(config, Campaign::single(crash), end, seed).observe();
    let (name, sync_s) = (version.name(), sync_name(sync));
    let metrics = metrics
        .then(|| obs.metrics_text(&format!("scale node-crash {name} {sync_s} n{n} seed{seed}")));
    let attr_text = obs.sim.take_attr().map(|a| {
        let detector = detector.map_or("-", detector_name);
        let label = format!("scale node-crash N={n} {name} {sync_s} {detector} seed{seed}");
        a.render_text(&label, &run_totals(&obs.report, run_s as f64), &[])
    });
    let tn = obs
        .sim
        .mean_throughput(run_s as f64 - tn_window_s(scale), run_s as f64)
        .max(f64::MIN_POSITIVE);
    let successes = obs.report.availability.successes;
    let aa = obs.report.availability.availability();
    let ctrl_frames: u64 = (0..n)
        .map(|i| obs.sim.press(NodeId(i)).stats().cache_sync_frames)
        .sum();
    ScalePoint {
        nodes: n,
        version,
        sync,
        detector,
        tn,
        at: successes as f64 / run_s as f64,
        aa,
        p: performability(tn, aa, IDEAL_AVAILABILITY),
        ctrl_frames,
        ctrl_per_req: ctrl_frames as f64 / successes.max(1) as f64,
        metrics,
        attr_text,
    }
}

/// The per-N point list: TCP-PRESS-HB under every sync × detector
/// combination, plus VIA-PRESS-5 (the fastest version; it has no
/// detector — VIA errors are its failure signal) under both syncs.
type PointSpec = (PressVersion, CacheSyncImpl, Option<MembershipImpl>);

const POINTS_PER_N: [PointSpec; 6] = [
    (
        PressVersion::TcpHb,
        CacheSyncImpl::Eager,
        Some(MembershipImpl::Ring),
    ),
    (
        PressVersion::TcpHb,
        CacheSyncImpl::Digest,
        Some(MembershipImpl::Ring),
    ),
    (
        PressVersion::TcpHb,
        CacheSyncImpl::Eager,
        Some(MembershipImpl::Gossip),
    ),
    (
        PressVersion::TcpHb,
        CacheSyncImpl::Digest,
        Some(MembershipImpl::Gossip),
    ),
    (PressVersion::Via5, CacheSyncImpl::Eager, None),
    (PressVersion::Via5, CacheSyncImpl::Digest, None),
];

/// The node list a scale runs: {4, 16, 64} at paper scale, {4, 16} for
/// the CI-gated `--small` golden.
pub fn sweep_nodes(scale: RunScale) -> &'static [usize] {
    match scale {
        RunScale::Paper => &SWEEP_NODES,
        RunScale::Small => &SMALL_SWEEP_NODES,
    }
}

/// The sweep over a node list ([`sweep_nodes`] for the study; tests run
/// a shortened one), fanned across `jobs` workers. Output is in sweep
/// order and byte-identical for any `jobs`.
pub fn study_points(
    nodes: &[usize],
    scale: RunScale,
    seed: u64,
    jobs: usize,
    with_metrics: bool,
    with_attr: bool,
) -> Vec<ScalePoint> {
    let tasks: Vec<(usize, PointSpec)> = nodes
        .iter()
        .flat_map(|&n| POINTS_PER_N.iter().map(move |&p| (n, p)))
        .collect();
    run_indexed(jobs, tasks, |i, (n, spec)| {
        node_crash_point(scale, n, spec, task_seed(seed, i), with_metrics, with_attr)
    })
}

fn study_text(points: &[ScalePoint]) -> String {
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.nodes.to_string(),
                p.version.name().to_string(),
                sync_name(p.sync).to_string(),
                p.detector.map_or("-", detector_name).to_string(),
                format!("{:.0}", p.tn),
                format!("{:.0}", p.at),
                format!("{:.2}", 100.0 * p.aa),
                format!("{:.2}", p.p),
                p.ctrl_frames.to_string(),
                format!("{:.3}", p.ctrl_per_req),
            ]
        })
        .collect();
    format!(
        "Scaling the communication architecture — cache-sync protocols vs cluster size\n\
         \n\
         Cold-start node-crash runs on a radix-8 fat tree: offered load and document\n\
         set grow with N (fixed per-node share), node 1's machine crashes mid-run and\n\
         rejoins. Tn is the warm tail-window throughput, AT/AA integrate the whole\n\
         run, P = performability(Tn, AA). ctrl counts cache-sync control frames\n\
         (CacheAdd/CacheEvict broadcasts or CacheDigest batches) cluster-wide.\n\
         \n\
         {}\n\
         Eager broadcast sends (N-1) frames per caching action, so ctrl/req grows\n\
         linearly with N; digests coalesce deltas and flush fanout-bounded, so\n\
         ctrl/req stays flat and the control plane scales O(1) per request.\n",
        table(
            &[
                "N",
                "version",
                "sync",
                "detector",
                "Tn(req/s)",
                "AT(req/s)",
                "AA(%)",
                "P",
                "ctrl",
                "ctrl/req",
            ],
            &rows
        ),
    )
}

/// The `repro -- scale` text: the scaling table for the sweep. With
/// `attribution`, every point's root-cause attribution section follows
/// — which mechanism (fault-window kill, detection lag, broadcast
/// freeze, ...) ate its availability, conservation-checked against its
/// client pool. With `metrics`, the sweep's `scale.*` gauges and the
/// node-level snapshot (with the `press.cache.*` digest counters) of
/// each digest-mode ring run close the text.
pub fn scale(scale: RunScale, seed: u64, jobs: usize, metrics: bool, attribution: bool) -> String {
    let points = study_points(sweep_nodes(scale), scale, seed, jobs, metrics, attribution);
    let mut out = study_text(&points);
    for a in points.iter().filter_map(|p| p.attr_text.as_deref()) {
        out.push('\n');
        out.push_str(a);
    }
    if !metrics {
        return out;
    }
    let mut reg = telemetry::MetricsRegistry::new();
    for p in &points {
        let key = format!(
            "scale.ctrl_frames_per_req.{}.{}.n{}",
            match p.version {
                PressVersion::TcpHb => "tcphb",
                v => {
                    debug_assert_eq!(v, PressVersion::Via5);
                    "via5"
                }
            },
            sync_name(p.sync),
            p.nodes
        );
        // TcpHb appears once per detector; keep the ring row (the
        // paper's detector) as the gauge.
        if p.detector != Some(MembershipImpl::Gossip) {
            reg.gauge_set(&key, p.ctrl_per_req);
        }
    }
    out.push('\n');
    out.push_str(&reg.text_summary(&format!("scale sweep seed{seed}")));
    for p in &points {
        if p.sync == CacheSyncImpl::Digest && p.detector != Some(MembershipImpl::Gossip) {
            if let Some(m) = &p.metrics {
                out.push('\n');
                out.push_str(m);
            }
        }
    }
    out
}

/// The `repro -- scalebench` text: the single heaviest sweep point
/// (largest swept N, digest mode, TCP-PRESS-HB on the ring), run once.
/// One big simulation rather than many independent ones, so `--timing`
/// measures the per-event cost at large N, not `--jobs` fan-out.
pub fn scalebench(scale: RunScale, seed: u64) -> String {
    let n = *sweep_nodes(scale).last().expect("sweep is non-empty");
    let spec = (
        PressVersion::TcpHb,
        CacheSyncImpl::Digest,
        Some(MembershipImpl::Ring),
    );
    let p = node_crash_point(scale, n, spec, seed, false, false);
    format!(
        "scalebench: N={} {} digest ring  Tn={:.0} req/s  AT={:.0} req/s  \
         AA={:.2}%  ctrl={} ({:.3}/req)\n",
        p.nodes,
        p.version.name(),
        p.tn,
        p.at,
        100.0 * p.aa,
        p.ctrl_frames,
        p.ctrl_per_req,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use press::PressNode;

    fn tcphb_point(n: usize, sync: CacheSyncImpl, seed: u64) -> ScalePoint {
        let spec = (PressVersion::TcpHb, sync, Some(MembershipImpl::Ring));
        node_crash_point(RunScale::Small, n, spec, seed, false, false)
    }

    /// The headline law: eager control frames per request grow with the
    /// cluster (≈ (N-1) per caching action) while digest-mode frames
    /// per request stay flat, and digest wins outright at N = 16.
    #[test]
    fn eager_grows_linearly_and_digest_stays_flat() {
        let e4 = tcphb_point(4, CacheSyncImpl::Eager, 3);
        let e16 = tcphb_point(16, CacheSyncImpl::Eager, 3);
        let d4 = tcphb_point(4, CacheSyncImpl::Digest, 3);
        let d16 = tcphb_point(16, CacheSyncImpl::Digest, 3);
        // Pure (N-1) scaling would give 5x; the crash's eviction
        // cascade inflates the N=4 baseline (3 survivors absorb the
        // dead node's whole share), so require a 2.5x floor.
        assert!(
            e16.ctrl_per_req >= 2.5 * e4.ctrl_per_req,
            "eager ctrl/req must grow ~linearly: {} -> {}",
            e4.ctrl_per_req,
            e16.ctrl_per_req
        );
        assert!(
            d16.ctrl_per_req <= 2.0 * d4.ctrl_per_req,
            "digest ctrl/req must stay flat: {} -> {}",
            d4.ctrl_per_req,
            d16.ctrl_per_req
        );
        assert!(
            2 * d16.ctrl_frames < e16.ctrl_frames,
            "digest must at least halve control frames at N=16: {} vs {}",
            d16.ctrl_frames,
            e16.ctrl_frames
        );
        // Both modes actually served the run: the digest saving is not
        // bought by dropping requests.
        assert!(
            d16.aa > 0.9 * e16.aa,
            "digest AA {} vs eager {}",
            d16.aa,
            e16.aa
        );
        assert!(d16.tn > 0.0 && e16.tn > 0.0);
    }

    /// Semantic equivalence after quiescence: on a fault-free cold
    /// fill, both sync protocols converge to coherent cooperative
    /// caching state — every node's view of who caches what matches
    /// the holders' actual cache contents exactly, and the aggregate
    /// cache covers the touched working set in both modes.
    ///
    /// (A crash is deliberately excluded: a frame that would block
    /// freezes an eager sender (§5.4) and its skipped broadcasts are
    /// never resent, so the paper's protocol does *not* re-converge
    /// through a crash — the digest log, which survives blocking and
    /// flushes later, does. `press`'s node test
    /// `eager_announcements_skipped_by_a_freeze_are_never_resent` pins
    /// that asymmetry as expected behaviour; in the sweep it shows as
    /// eager disk-serve counts.)
    #[test]
    fn eager_and_digest_directories_converge_after_quiescence() {
        let n = 4;
        let files = 1_500 * n as u32;
        for sync in [CacheSyncImpl::Eager, CacheSyncImpl::Digest] {
            let config = scale_config(
                RunScale::Small,
                n,
                PressVersion::TcpHb,
                sync,
                Some(MembershipImpl::Ring),
            );
            // 40 s at 600 req/s touches most of the 6000 files (the
            // all-miss opening seconds are disk-bound, so some early
            // requests drop); the last digest rotations then drain
            // every pending delta. The cutoff sits 100 ms off the
            // 500 ms digest-tick boundary: a frame accepted at the
            // final tick advances the sender's watermark (so it is no
            // longer "pending") yet delivers a few µs later — cutting
            // exactly on the tick would strand it in flight.
            let end = SimTime::from_secs(40) + SimDuration::from_millis(100);
            let sim = Run::new(config, Campaign::none(), end, 17).observe().sim;
            let mut cached_anywhere = std::collections::BTreeSet::new();
            let mut pending: Vec<std::collections::BTreeSet<u32>> = Vec::new();
            for h in 0..n {
                // The cold tail churns at a few misses per second right
                // up to the cutoff, so the very last deltas are still
                // rotating; in eager mode the log is unused and empty.
                let p: std::collections::BTreeSet<u32> =
                    sim.press(NodeId(h)).digest_pending().into_iter().collect();
                if sync == CacheSyncImpl::Eager {
                    assert!(p.is_empty(), "eager mode must not use the digest log");
                }
                assert!(
                    p.len() < 20,
                    "{sync:?}: node {h} holds {} unflushed deltas — the log is not draining",
                    p.len()
                );
                pending.push(p);
                cached_anywhere.extend(sim.press(NodeId(h)).cached_files());
            }
            assert!(
                cached_anywhere.len() as f64 > 0.75 * f64::from(files),
                "{sync:?}: aggregate cache covers only {} of {files} files",
                cached_anywhere.len()
            );
            for o in 0..n {
                let observer: &PressNode = sim.press(NodeId(o));
                for (h, pending_h) in pending.iter().enumerate() {
                    if o == h {
                        continue;
                    }
                    let actual: std::collections::BTreeSet<u32> =
                        sim.press(NodeId(h)).cached_files().into_iter().collect();
                    let believed: std::collections::BTreeSet<u32> = (0..files)
                        .filter(|&f| observer.directory().holders(f).any(|n| n == NodeId(h)))
                        .collect();
                    // The convergence invariant: views may differ from
                    // reality only on files whose deltas the holder has
                    // not yet flushed to every peer. Eager mode has an
                    // empty log, so this is exact equality there.
                    let divergent: Vec<u32> = believed
                        .symmetric_difference(&actual)
                        .copied()
                        .filter(|f| !pending_h.contains(f))
                        .collect();
                    assert!(
                        divergent.is_empty(),
                        "{sync:?}: node {o}'s view of node {h} diverges beyond the \
                         pending deltas on {} files: {:?}",
                        divergent.len(),
                        &divergent[..divergent.len().min(8)]
                    );
                }
            }
        }
    }

    /// The sweep is byte-identical across jobs (the verify gate covers
    /// the full `--small` sweep against the golden; this covers the
    /// cheapest point in-process).
    #[test]
    fn study_is_deterministic_across_jobs() {
        let a = study_points(&[4], RunScale::Small, 5, 1, false, false);
        let b = study_points(&[4], RunScale::Small, 5, 2, false, false);
        assert_eq!(a, b);
    }

    /// Every attributed sweep point must satisfy the conservation law
    /// (per-cause losses sum to the pool's failures, unavailable time
    /// to (1-AA)·T), and the rendered sections must be byte-identical
    /// across job counts.
    #[test]
    fn attributed_sweep_conserves_every_point() {
        let a = study_points(&[4], RunScale::Small, 5, 1, false, true);
        let b = study_points(&[4], RunScale::Small, 5, 2, false, true);
        assert_eq!(a, b);
        for p in &a {
            let text = p.attr_text.as_deref().expect("attribution on");
            assert!(text.contains("conservation: OK"), "{text}");
        }
    }
}
