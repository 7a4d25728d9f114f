//! Causal request attribution: why was each lost request lost?
//!
//! The tracing module records *what happened*; this module answers the
//! paper's real question — *which communication-architecture mechanism
//! ate the availability*. Every request the cluster scores as lost
//! (connection failure, refusal, or deadline miss) is classified into
//! exactly one [`RootCause`], using causal evidence carried through the
//! simulation as [`AttrEvent`]s: §5.4 broadcast-freeze windows, TCP
//! retransmit/abort activity, membership-exclusion flushes, gray-link
//! losses, fault windows, and admission backlog.
//!
//! The design mirrors the trace pipeline so the report is
//! byte-identical for a seed: components emit `Effect::Attr(AttrEvent)` into
//! their ordinary effect buffers; the cluster facade applies them (and
//! its own lifecycle events) in exact `(time, seq)` order into one
//! [`AttrState`]. Nothing here consults wall clock or iterates a hash
//! map for output, so the same event order always yields the same
//! report.
//!
//! A conservation law makes the attribution trustworthy: the per-cause
//! loss counts must sum exactly to the run's scored failures, and the
//! per-cause unavailable seconds (plus the in-flight-at-end residual)
//! must sum to `(1 − AA) · T`. [`AttrReport::render_text`] checks both
//! and prints a machine-checkable verdict line.

use std::collections::HashMap;

use simnet::SimTime;

/// Number of root causes (the width of every per-cause array).
pub const NCAUSES: usize = 6;

/// The exclusive root cause assigned to one lost or late request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RootCause {
    /// The request hit a node inside a machine/process fault window
    /// (crash, hang, kill): refused connections, vanished replies.
    FaultKill = 0,
    /// A TCP retransmission or abort stalled the request's path
    /// (go-back-N recovery, RTO backoff, connection abort).
    RetransmitStall = 1,
    /// The §5.4 broadcast freeze: the serving node was blocked on a
    /// stalled send/broadcast and the request sat in (or overflowed)
    /// the deferred queue.
    BroadcastFreeze = 2,
    /// Membership exclusion lag: the request was forwarded toward a
    /// peer that had failed but was not yet excluded, and died waiting
    /// for the detector.
    DetectionLag = 3,
    /// A gray link silently ate frames on the request's path (no
    /// fail-stop signal, so nothing upstream reacted).
    GrayLoss = 4,
    /// Plain overload queueing: admission backlog, no fault evidence.
    Overload = 5,
}

/// All causes, in index order (for iteration and tables).
pub const CAUSES: [RootCause; NCAUSES] = [
    RootCause::FaultKill,
    RootCause::RetransmitStall,
    RootCause::BroadcastFreeze,
    RootCause::DetectionLag,
    RootCause::GrayLoss,
    RootCause::Overload,
];

impl RootCause {
    /// Human label used in tables and goldens.
    pub fn label(self) -> &'static str {
        match self {
            RootCause::FaultKill => "fault-window kill",
            RootCause::RetransmitStall => "retransmit/abort stall",
            RootCause::BroadcastFreeze => "broadcast freeze",
            RootCause::DetectionLag => "detection lag",
            RootCause::GrayLoss => "gray-link loss",
            RootCause::Overload => "overload queueing",
        }
    }

    /// Short machine key (JSON/metrics friendly).
    pub fn key(self) -> &'static str {
        match self {
            RootCause::FaultKill => "fault_kill",
            RootCause::RetransmitStall => "retransmit_stall",
            RootCause::BroadcastFreeze => "broadcast_freeze",
            RootCause::DetectionLag => "detection_lag",
            RootCause::GrayLoss => "gray_loss",
            RootCause::Overload => "overload",
        }
    }
}

/// One causal evidence or lifecycle record, applied in event order.
///
/// Evidence variants are emitted by press/transport through their
/// effect buffers; lifecycle variants are recorded by the cluster
/// facade at the exact points where requests are scored, so per-cause
/// counts stay conserved against the client pool by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttrEvent {
    /// A §5.4 freeze began on this node (send/broadcast would block).
    StallBegin,
    /// The freeze on this node cleared (writable again, or the blocked
    /// peer was excluded, or the process restarted).
    StallEnd,
    /// An accepted client request was parked in the deferred queue
    /// because the node was frozen.
    Deferred {
        /// The parked request.
        req_id: u64,
    },
    /// The request was forwarded to the peer owning its file.
    Forwarded {
        /// The forwarded request.
        req_id: u64,
        /// Service-owner peer node index.
        peer: u32,
    },
    /// The pending-forward timer expired before the peer replied.
    ForwardTimeout {
        /// The abandoned request.
        req_id: u64,
    },
    /// A pending forward was flushed because its peer was excluded
    /// from the membership.
    ForwardFlushed {
        /// The flushed request.
        req_id: u64,
        /// `true` when the exclusion came from a transport-level break
        /// (abort/reset); `false` when a failure detector excluded it.
        abort: bool,
    },
    /// The transport retransmitted on this node (RTO fired).
    Retransmit,
    /// The transport aborted a connection on this node.
    Abort,
    /// The fabric silently dropped a frame sent by this node (gray
    /// fault — no fail-stop signal).
    GrayLoss,
    /// A machine/process fault window opened on this node.
    FaultBegin,
    /// A machine/process fault window closed on this node.
    FaultEnd,
    /// The node accepted this request (scored by the client pool).
    Accepted {
        /// The accepted request.
        req_id: u64,
    },
    /// The request completed successfully.
    Completed {
        /// The finished request.
        req_id: u64,
    },
    /// The arrival was scored as a connection failure (node down or
    /// frozen at the listener).
    ConnFailed,
    /// The arrival was refused (process not running).
    Refused,
    /// The accept was dropped because the deferred queue overflowed
    /// during a freeze.
    DroppedOverflow,
    /// The accept was dropped by admission control (backlog bound).
    DroppedBacklog,
    /// The request's client-side deadline fired. Classifies and
    /// removes the request if it is still open; ignored otherwise.
    DeadlineMiss {
        /// The request whose deadline fired.
        req_id: u64,
    },
}

/// Request flags accumulated between accept and scoring.
const F_DEFERRED: u8 = 1;
const F_FWD_TIMEOUT: u8 = 2;
const F_FLUSH_ABORT: u8 = 4;
const F_FLUSH_DETECT: u8 = 8;

/// Sentinel for "no forward peer".
const NO_PEER: u32 = u32::MAX;

/// Causal record of one open (accepted, unresolved) request.
#[derive(Debug, Clone, Copy)]
struct ReqAttr {
    node: u32,
    issued: SimTime,
    fwd_peer: u32,
    deferred_at: Option<SimTime>,
    forwarded_at: Option<SimTime>,
    evidence_at: Option<SimTime>,
    flags: u8,
}

/// Per-node causal evidence, maintained in event order. Interval
/// evidence only ever needs "does any window overlap `[issued, now]`",
/// which reduces to *open now, or last closed end ≥ issued* — O(1)
/// space per node regardless of fault count.
#[derive(Debug, Clone, Default)]
struct NodeEvidence {
    fault_depth: u32,
    fault_last_end: Option<SimTime>,
    stall_depth: u32,
    stall_last_end: Option<SimTime>,
    last_retransmit: Option<SimTime>,
    last_abort: Option<SimTime>,
    last_gray: Option<SimTime>,
}

impl NodeEvidence {
    fn fault_overlaps(&self, since: SimTime) -> bool {
        self.fault_depth > 0 || self.fault_last_end.is_some_and(|e| e >= since)
    }

    fn stall_overlaps(&self, since: SimTime) -> bool {
        self.stall_depth > 0 || self.stall_last_end.is_some_and(|e| e >= since)
    }

    fn retransmit_since(&self, since: SimTime) -> bool {
        self.last_retransmit.is_some_and(|t| t >= since)
            || self.last_abort.is_some_and(|t| t >= since)
    }

    fn gray_since(&self, since: SimTime) -> bool {
        self.last_gray.is_some_and(|t| t >= since)
    }
}

/// Critical-path split of one deadline-missed request: time from issue
/// to the first causal transition (defer/forward), from there to the
/// decisive evidence (timeout/flush), and from the evidence to the
/// deadline. All in nanoseconds.
type StageSample = [u64; 3];

/// The run-wide attribution accumulator, owned by the cluster facade.
///
/// All mutation goes through [`AttrState::record`], called in the
/// exact `(time, seq)` order of the event loop, so the final state is
/// byte-identical across `--jobs`.
#[derive(Debug)]
pub struct AttrState {
    nodes: Vec<NodeEvidence>,
    open: HashMap<u64, ReqAttr>,
    counts: [u64; NCAUSES],
    /// Losses per whole simulated second, per cause.
    timeline: Vec<[u64; NCAUSES]>,
    /// Critical-path samples for deadline misses, per cause.
    samples: [Vec<StageSample>; NCAUSES],
}

impl AttrState {
    /// An empty accumulator for an `n`-node cluster.
    pub fn new(n: usize) -> AttrState {
        AttrState {
            nodes: vec![NodeEvidence::default(); n],
            open: HashMap::new(),
            counts: [0; NCAUSES],
            timeline: Vec::new(),
            samples: Default::default(),
        }
    }

    /// Applies one event observed on `node` at `now`.
    pub fn record(&mut self, now: SimTime, node: usize, ev: AttrEvent) {
        match ev {
            AttrEvent::StallBegin => self.nodes[node].stall_depth += 1,
            AttrEvent::StallEnd => {
                let ne = &mut self.nodes[node];
                ne.stall_depth = ne.stall_depth.saturating_sub(1);
                if ne.stall_depth == 0 {
                    ne.stall_last_end = Some(now);
                }
            }
            AttrEvent::Deferred { req_id } => {
                if let Some(r) = self.open.get_mut(&req_id) {
                    r.flags |= F_DEFERRED;
                    if r.deferred_at.is_none() {
                        r.deferred_at = Some(now);
                    }
                }
            }
            AttrEvent::Forwarded { req_id, peer } => {
                if let Some(r) = self.open.get_mut(&req_id) {
                    r.fwd_peer = peer;
                    if r.forwarded_at.is_none() {
                        r.forwarded_at = Some(now);
                    }
                }
            }
            AttrEvent::ForwardTimeout { req_id } => {
                if let Some(r) = self.open.get_mut(&req_id) {
                    r.flags |= F_FWD_TIMEOUT;
                    if r.evidence_at.is_none() {
                        r.evidence_at = Some(now);
                    }
                }
            }
            AttrEvent::ForwardFlushed { req_id, abort } => {
                if let Some(r) = self.open.get_mut(&req_id) {
                    r.flags |= if abort { F_FLUSH_ABORT } else { F_FLUSH_DETECT };
                    if r.evidence_at.is_none() {
                        r.evidence_at = Some(now);
                    }
                }
            }
            AttrEvent::Retransmit => self.nodes[node].last_retransmit = Some(now),
            AttrEvent::Abort => self.nodes[node].last_abort = Some(now),
            AttrEvent::GrayLoss => self.nodes[node].last_gray = Some(now),
            AttrEvent::FaultBegin => self.nodes[node].fault_depth += 1,
            AttrEvent::FaultEnd => {
                let ne = &mut self.nodes[node];
                ne.fault_depth = ne.fault_depth.saturating_sub(1);
                if ne.fault_depth == 0 {
                    ne.fault_last_end = Some(now);
                }
            }
            AttrEvent::Accepted { req_id } => {
                self.open.insert(
                    req_id,
                    ReqAttr {
                        node: node as u32,
                        issued: now,
                        fwd_peer: NO_PEER,
                        deferred_at: None,
                        forwarded_at: None,
                        evidence_at: None,
                        flags: 0,
                    },
                );
            }
            AttrEvent::Completed { req_id } => {
                self.open.remove(&req_id);
            }
            AttrEvent::ConnFailed | AttrEvent::Refused => {
                // Only a machine/process fault takes the listener away
                // (links dropping do not stop accepts), so both score
                // as fault-window kills.
                self.lose(now, RootCause::FaultKill);
            }
            AttrEvent::DroppedOverflow => self.lose(now, RootCause::BroadcastFreeze),
            AttrEvent::DroppedBacklog => self.lose(now, RootCause::Overload),
            AttrEvent::DeadlineMiss { req_id } => {
                if let Some(r) = self.open.remove(&req_id) {
                    let cause = self.classify(now, &r);
                    self.lose(now, cause);
                    self.sample(now, cause, &r);
                }
            }
        }
    }

    /// The exclusive-cause decision tree for a deadline miss, checked
    /// in order of causal specificity (direct fault evidence first,
    /// overload as the evidence-free fallback).
    fn classify(&self, now: SimTime, r: &ReqAttr) -> RootCause {
        let _ = now;
        let ne = &self.nodes[r.node as usize];
        let peer = (r.fwd_peer != NO_PEER).then(|| &self.nodes[r.fwd_peer as usize]);
        let since = r.issued;
        if ne.fault_overlaps(since) {
            return RootCause::FaultKill;
        }
        if r.flags & F_FLUSH_ABORT != 0 {
            return RootCause::RetransmitStall;
        }
        if r.flags & F_DEFERRED != 0 || ne.stall_overlaps(since) {
            return RootCause::BroadcastFreeze;
        }
        if ne.gray_since(since) || peer.is_some_and(|p| p.gray_since(since)) {
            return RootCause::GrayLoss;
        }
        if r.flags & (F_FWD_TIMEOUT | F_FLUSH_DETECT) != 0 {
            return RootCause::DetectionLag;
        }
        if peer.is_some_and(|p| p.fault_overlaps(since)) {
            return RootCause::DetectionLag;
        }
        if ne.retransmit_since(since) || peer.is_some_and(|p| p.retransmit_since(since)) {
            return RootCause::RetransmitStall;
        }
        RootCause::Overload
    }

    fn lose(&mut self, now: SimTime, cause: RootCause) {
        self.counts[cause as usize] += 1;
        let sec = (now.as_nanos() / 1_000_000_000) as usize;
        if self.timeline.len() <= sec {
            self.timeline.resize(sec + 1, [0; NCAUSES]);
        }
        self.timeline[sec][cause as usize] += 1;
    }

    fn sample(&mut self, now: SimTime, cause: RootCause, r: &ReqAttr) {
        let t1 = r.deferred_at.or(r.forwarded_at).unwrap_or(now).min(now);
        let t2 = r.evidence_at.unwrap_or(now).max(t1).min(now);
        let pre = t1.saturating_since(r.issued).as_nanos();
        let mid = t2.saturating_since(t1).as_nanos();
        let tail = now.saturating_since(t2).as_nanos();
        self.samples[cause as usize].push([pre, mid, tail]);
    }

    /// Requests still open (in flight) — the end-of-run residual.
    pub fn open_requests(&self) -> u64 {
        self.open.len() as u64
    }

    /// Freezes the accumulator into report data.
    pub fn finish(self) -> AttrReport {
        AttrReport {
            counts: self.counts,
            residual: self.open.len() as u64,
            timeline: self.timeline,
            samples: self.samples,
        }
    }
}

/// Client-pool totals the attribution is checked against.
#[derive(Debug, Clone, Copy)]
pub struct RunTotals {
    /// Requests issued.
    pub attempts: u64,
    /// Requests completed in time.
    pub successes: u64,
    /// Requests scored lost (connect failures + refusals + deadline
    /// misses) — the conservation target for the per-cause counts.
    pub failures: u64,
    /// Measured run length in seconds (the `T` of `(1 − AA) · T`).
    pub duration_s: f64,
}

/// Immutable per-run attribution result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttrReport {
    /// Losses per root cause (index = `RootCause as usize`).
    pub counts: [u64; NCAUSES],
    /// Requests still in flight when the run ended.
    pub residual: u64,
    /// Losses per whole simulated second, per cause.
    pub timeline: Vec<[u64; NCAUSES]>,
    /// Critical-path samples (deadline misses), per cause.
    pub samples: [Vec<StageSample>; NCAUSES],
}

fn pctl(sorted: &[u64], p: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[(sorted.len() - 1) * p / 100]
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

impl AttrReport {
    /// Total attributed losses across all causes.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Checks both conservation laws against the pool totals:
    /// per-cause counts sum exactly to `failures`, and per-cause
    /// unavailable seconds (with the in-flight residual) sum to
    /// `(1 − AA) · T` within `1e-9`. Returns `(ok, detail)`.
    pub fn conservation(&self, t: &RunTotals) -> (bool, String) {
        let total = self.total();
        let count_ok = total == t.failures;
        let residual_ok = t.attempts == t.successes + t.failures + self.residual;
        let (time_ok, delta) = if t.attempts == 0 {
            (true, 0.0)
        } else {
            let per = |n: u64| n as f64 / t.attempts as f64 * t.duration_s;
            let sum: f64 = self.counts.iter().map(|&c| per(c)).sum::<f64>() + per(self.residual);
            let unavail = (1.0 - t.successes as f64 / t.attempts as f64) * t.duration_s;
            let delta = (sum - unavail).abs();
            (delta < 1e-9, delta)
        };
        let ok = count_ok && residual_ok && time_ok;
        let detail = format!(
            "losses {} == failures {} | attempts {} == successes {} + failures {} + in-flight {} \
             | time delta {delta:.3e}s < 1e-9",
            total, t.failures, t.attempts, t.successes, t.failures, self.residual,
        );
        (ok, detail)
    }

    /// Renders the full attribution section: Pareto table with
    /// unavailable-seconds shares, conservation verdicts, per-stage
    /// loss counts (when stage spans are known), and critical-path
    /// percentiles. Pure function of the report and inputs.
    pub fn render_text(
        &self,
        label: &str,
        totals: &RunTotals,
        stage_spans: &[(String, f64, f64)],
    ) -> String {
        let mut out = String::new();
        out.push_str(&format!("## Root-cause attribution — {label}\n\n"));
        let total = self.total();
        let per_sec = |n: u64| {
            if totals.attempts == 0 {
                0.0
            } else {
                n as f64 / totals.attempts as f64 * totals.duration_s
            }
        };

        // Pareto: causes by descending count, index order on ties.
        let mut order: Vec<usize> = (0..NCAUSES).collect();
        order.sort_by_key(|&i| (std::cmp::Reverse(self.counts[i]), i));
        out.push_str(&format!(
            "{:<24} {:>10} {:>8} {:>8} {:>14}\n",
            "cause", "lost", "share", "cum", "unavail_s"
        ));
        let mut cum = 0u64;
        for &i in &order {
            let c = self.counts[i];
            cum += c;
            let share = if total == 0 {
                0.0
            } else {
                c as f64 * 100.0 / total as f64
            };
            let cshare = if total == 0 {
                0.0
            } else {
                cum as f64 * 100.0 / total as f64
            };
            out.push_str(&format!(
                "{:<24} {:>10} {:>7.1}% {:>7.1}% {:>14.6}\n",
                CAUSES[i].label(),
                c,
                share,
                cshare,
                per_sec(c),
            ));
        }
        out.push_str(&format!(
            "{:<24} {:>10} {:>8} {:>8} {:>14.6}\n",
            "total attributed",
            total,
            "",
            "",
            per_sec(total)
        ));
        out.push_str(&format!(
            "{:<24} {:>10} {:>8} {:>8} {:>14.6}\n",
            "in-flight residual",
            self.residual,
            "",
            "",
            per_sec(self.residual)
        ));
        let unavail = if totals.attempts == 0 {
            0.0
        } else {
            (1.0 - totals.successes as f64 / totals.attempts as f64) * totals.duration_s
        };
        out.push_str(&format!(
            "{:<24} {:>10} {:>8} {:>8} {:>14.6}\n",
            "(1-AA)*T", "", "", "", unavail
        ));

        let (ok, detail) = self.conservation(totals);
        out.push_str(&format!(
            "conservation: {} ({})\n",
            if ok { "OK" } else { "FAIL" },
            detail
        ));

        if !stage_spans.is_empty() && !self.timeline.is_empty() {
            out.push_str(&format!("\n{:<24}", "losses by stage"));
            for (name, _, _) in stage_spans {
                out.push_str(&format!(" {name:>8}"));
            }
            out.push('\n');
            for (ci, cause) in CAUSES.iter().enumerate() {
                out.push_str(&format!("{:<24}", cause.label()));
                for (_, s, e) in stage_spans {
                    let mut n = 0u64;
                    for (sec, bucket) in self.timeline.iter().enumerate() {
                        let mid = sec as f64 + 0.5;
                        if mid >= *s && mid < *e {
                            n += bucket[ci];
                        }
                    }
                    out.push_str(&format!(" {n:>8}"));
                }
                out.push('\n');
            }
        }

        let any_samples = self.samples.iter().any(|s| !s.is_empty());
        if any_samples {
            out.push_str(&format!(
                "\ncritical path (deadline misses, ms)\n{:<24} {:>6} {:>24} {:>24} {:>24}\n",
                "cause", "n", "to-defer/forward", "to-evidence", "to-deadline"
            ));
            for (ci, cause) in CAUSES.iter().enumerate() {
                let s = &self.samples[ci];
                if s.is_empty() {
                    continue;
                }
                let mut cols: [Vec<u64>; 3] = Default::default();
                for v in s {
                    for (k, col) in cols.iter_mut().enumerate() {
                        col.push(v[k]);
                    }
                }
                for col in cols.iter_mut() {
                    col.sort_unstable();
                }
                let fmt_col = |col: &[u64]| {
                    format!(
                        "{:>7.1}/{:>7.1}/{:>7.1}",
                        ms(pctl(col, 50)),
                        ms(pctl(col, 95)),
                        ms(*col.last().unwrap_or(&0)),
                    )
                };
                out.push_str(&format!(
                    "{:<24} {:>6} {:>24} {:>24} {:>24}\n",
                    cause.label(),
                    s.len(),
                    fmt_col(&cols[0]),
                    fmt_col(&cols[1]),
                    fmt_col(&cols[2]),
                ));
            }
            out.push_str("(p50/p95/max per segment)\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn deadline_in_fault_window_is_a_fault_kill() {
        let mut a = AttrState::new(2);
        a.record(t(1), 0, AttrEvent::Accepted { req_id: 7 });
        a.record(t(2), 0, AttrEvent::FaultBegin);
        a.record(t(7), 0, AttrEvent::DeadlineMiss { req_id: 7 });
        let r = a.finish();
        assert_eq!(r.counts[RootCause::FaultKill as usize], 1);
        assert_eq!(r.total(), 1);
    }

    #[test]
    fn closed_fault_window_still_overlaps_older_requests() {
        let mut a = AttrState::new(1);
        a.record(t(1), 0, AttrEvent::Accepted { req_id: 1 });
        a.record(t(2), 0, AttrEvent::FaultBegin);
        a.record(t(3), 0, AttrEvent::FaultEnd);
        a.record(t(7), 0, AttrEvent::DeadlineMiss { req_id: 1 });
        // A request issued *after* the window closed is not blamed on it.
        a.record(t(4), 0, AttrEvent::Accepted { req_id: 2 });
        a.record(t(10), 0, AttrEvent::DeadlineMiss { req_id: 2 });
        let r = a.finish();
        assert_eq!(r.counts[RootCause::FaultKill as usize], 1);
        assert_eq!(r.counts[RootCause::Overload as usize], 1);
    }

    #[test]
    fn deferred_requests_blame_the_broadcast_freeze() {
        let mut a = AttrState::new(1);
        a.record(t(1), 0, AttrEvent::Accepted { req_id: 3 });
        a.record(t(1), 0, AttrEvent::StallBegin);
        a.record(t(1), 0, AttrEvent::Deferred { req_id: 3 });
        a.record(t(2), 0, AttrEvent::StallEnd);
        a.record(t(7), 0, AttrEvent::DeadlineMiss { req_id: 3 });
        let r = a.finish();
        assert_eq!(r.counts[RootCause::BroadcastFreeze as usize], 1);
    }

    #[test]
    fn forward_to_faulted_peer_is_detection_lag_but_abort_flush_is_retransmit() {
        let mut a = AttrState::new(3);
        // req 1: forwarded to peer 2 which is in a fault window, timer expires.
        a.record(t(1), 0, AttrEvent::Accepted { req_id: 1 });
        a.record(t(1), 0, AttrEvent::Forwarded { req_id: 1, peer: 2 });
        a.record(t(2), 2, AttrEvent::FaultBegin);
        a.record(t(5), 0, AttrEvent::ForwardTimeout { req_id: 1 });
        a.record(t(7), 0, AttrEvent::DeadlineMiss { req_id: 1 });
        // req 2: flushed by a transport abort.
        a.record(t(1), 1, AttrEvent::Accepted { req_id: 2 });
        a.record(t(1), 1, AttrEvent::Forwarded { req_id: 2, peer: 0 });
        a.record(
            t(4),
            1,
            AttrEvent::ForwardFlushed {
                req_id: 2,
                abort: true,
            },
        );
        a.record(t(7), 1, AttrEvent::DeadlineMiss { req_id: 2 });
        let r = a.finish();
        assert_eq!(r.counts[RootCause::DetectionLag as usize], 1);
        assert_eq!(r.counts[RootCause::RetransmitStall as usize], 1);
    }

    #[test]
    fn gray_evidence_beats_retransmit_evidence() {
        let mut a = AttrState::new(2);
        a.record(t(1), 0, AttrEvent::Accepted { req_id: 9 });
        a.record(t(2), 0, AttrEvent::Retransmit);
        a.record(t(3), 0, AttrEvent::GrayLoss);
        a.record(t(7), 0, AttrEvent::DeadlineMiss { req_id: 9 });
        let r = a.finish();
        assert_eq!(r.counts[RootCause::GrayLoss as usize], 1);
    }

    #[test]
    fn completed_requests_are_never_classified() {
        let mut a = AttrState::new(1);
        a.record(t(1), 0, AttrEvent::Accepted { req_id: 4 });
        a.record(t(2), 0, AttrEvent::Completed { req_id: 4 });
        a.record(t(7), 0, AttrEvent::DeadlineMiss { req_id: 4 });
        assert_eq!(a.open_requests(), 0);
        assert_eq!(a.finish().total(), 0);
    }

    #[test]
    fn conservation_holds_and_detects_mismatch() {
        let mut a = AttrState::new(1);
        a.record(t(1), 0, AttrEvent::ConnFailed);
        a.record(t(2), 0, AttrEvent::Refused);
        a.record(t(3), 0, AttrEvent::DroppedBacklog);
        a.record(t(4), 0, AttrEvent::Accepted { req_id: 1 });
        let r = a.finish();
        assert_eq!(r.residual, 1);
        let good = RunTotals {
            attempts: 5,
            successes: 1,
            failures: 3,
            duration_s: 10.0,
        };
        assert!(r.conservation(&good).0, "{}", r.conservation(&good).1);
        let bad = RunTotals {
            attempts: 5,
            successes: 1,
            failures: 4,
            duration_s: 10.0,
        };
        assert!(!r.conservation(&bad).0);
    }

    #[test]
    fn render_text_is_deterministic_and_conserved() {
        let mut a = AttrState::new(2);
        a.record(t(1), 0, AttrEvent::Accepted { req_id: 1 });
        a.record(t(1), 0, AttrEvent::StallBegin);
        a.record(t(1), 0, AttrEvent::Deferred { req_id: 1 });
        a.record(t(7), 0, AttrEvent::DeadlineMiss { req_id: 1 });
        a.record(t(8), 0, AttrEvent::ConnFailed);
        let r = a.finish();
        let totals = RunTotals {
            attempts: 10,
            successes: 8,
            failures: 2,
            duration_s: 20.0,
        };
        let spans = vec![("A".to_string(), 0.0, 5.0), ("B".to_string(), 5.0, 20.0)];
        let s1 = r.render_text("test run", &totals, &spans);
        let s2 = r.render_text("test run", &totals, &spans);
        assert_eq!(s1, s2);
        assert!(s1.contains("conservation: OK"), "{s1}");
        assert!(s1.contains("broadcast freeze"));
        assert!(s1.contains("losses by stage"));
    }
}
