//! One observed run, and deterministic parallel execution of many.
//!
//! Every experiment in this crate is a set of independent runs. A
//! [`Run`] describes one: the cluster config, the fault campaign, when
//! the run ends and its seed. [`Run::observe`] is the only place that
//! builds, runs and reports a `ClusterSim`; the [`Observed`] result
//! holds the finished simulation and its report, and the measures here
//! read both: detection, restart and recovery time from the run log,
//! when views reach a size, the attribution totals, the metrics text
//! and the named trace lanes. Each study maps its observed runs to what
//! it keeps inside the worker that ran them.
//!
//! [`run_indexed`] fans a task list out across a small thread pool
//! while guaranteeing **bit-identical results to sequential
//! execution**: each task's output is written into a pre-sized slot
//! indexed by task id, never by completion order, so callers that fold
//! the results in task order (including floating-point accumulation
//! order) observe exactly the sequential outcome. Built on
//! `std::thread::scope` only: a work queue over scoped threads is all
//! this shape of parallelism needs.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use mendosus::{Campaign, FaultKind, FaultSpec};
use simnet::fabric::NodeId;
use simnet::SimTime;
use telemetry::{RunTotals, RunTrace, TraceEvent, TID_CLIENTS, TID_CLUSTER, TID_STAGES};

use crate::cluster::{ClusterConfig, ClusterReport, ClusterSim, ProcEvent};

/// One simulation run: the cluster (its trace and attribution switches
/// included), the faults armed at boot, when it stops, and its seed.
#[derive(Debug, Clone)]
pub struct Run {
    /// The cluster to build.
    pub config: ClusterConfig,
    /// The faults it suffers.
    pub campaign: Campaign,
    /// When the run stops.
    pub end: SimTime,
    /// The seed of every random stream in the run.
    pub seed: u64,
}

/// A finished run: the simulation, stopped at its end, and its report.
pub struct Observed {
    /// The simulation, for the state and observers the report omits.
    pub sim: ClusterSim,
    /// The report at the run's end.
    pub report: ClusterReport,
}

impl Run {
    /// The run of `config` under `campaign` from boot to `end`.
    pub fn new(config: ClusterConfig, campaign: Campaign, end: SimTime, seed: u64) -> Self {
        Run {
            config,
            campaign,
            end,
            seed,
        }
    }

    /// Builds and boots the cluster, runs it to `end` and reports it.
    pub fn observe(self) -> Observed {
        let mut sim = ClusterSim::with_campaign(self.config, self.campaign, self.seed);
        sim.run_until(self.end);
        let report = sim.report();
        Observed { sim, report }
    }
}

impl Observed {
    /// The run's metrics snapshot as text headed by `label`.
    pub fn metrics_text(&self, label: &str) -> String {
        self.sim.metrics_snapshot().text_summary(label)
    }

    /// The run's trace: its events, then `extra`, on one named lane per
    /// node plus the cluster, clients and stages lanes, with the final
    /// metrics snapshot. `None` when tracing was off.
    pub fn trace(&mut self, label: String, extra: Vec<TraceEvent>) -> Option<RunTrace> {
        if !self.sim.config().trace {
            return None;
        }
        let lanes = [
            (TID_CLUSTER, "cluster"),
            (TID_CLIENTS, "clients"),
            (TID_STAGES, "stages"),
        ];
        let threads = (0..self.sim.config().press.nodes as u32)
            .map(|i| (i, format!("node{i}")))
            .chain(lanes.map(|(tid, name)| (tid, name.to_string())))
            .collect();
        let mut events = self.sim.take_trace();
        events.extend(extra);
        let metrics = self.sim.metrics_snapshot();
        Some(RunTrace {
            label,
            threads,
            events,
            metrics,
        })
    }
}

/// The seed of task `i` of a sweep seeded `seed`: the same whichever
/// worker runs the task.
pub(crate) fn task_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_add(7919 * (i as u64 + 1))
}

/// The client-pool totals an attribution report is conserved against.
pub fn run_totals(report: &ClusterReport, duration_s: f64) -> RunTotals {
    let a = &report.availability;
    RunTotals {
        attempts: a.attempts,
        successes: a.successes,
        failures: a.failures(),
        duration_s,
    }
}

/// `(seconds, node)` of every process event `ev` at or after `from`.
fn proc_events(
    r: &ClusterReport,
    ev: ProcEvent,
    from: f64,
) -> impl Iterator<Item = (f64, NodeId)> + '_ {
    let log = r.process_log.iter().filter(move |(_, _, e)| *e == ev);
    log.map(|(t, node, _)| (t.as_secs_f64(), *node))
        .filter(move |(t, _)| *t >= from)
}

/// `(seconds, node, members)` of every view change at or after `from`.
fn view_changes(r: &ClusterReport, from: f64) -> impl Iterator<Item = (f64, NodeId, usize)> + '_ {
    let log = r
        .membership_log
        .iter()
        .map(|(t, node, m)| (t.as_secs_f64(), *node, *m));
    log.filter(move |(t, _, _)| *t >= from)
}

/// Detection: the first view change or process exit at or after the
/// fault.
pub(crate) fn detection_time(report: &ClusterReport, fault_s: f64) -> Option<f64> {
    let view = view_changes(report, fault_s).next().map(|(t, ..)| t);
    let exit = proc_events(report, ProcEvent::Exit, fault_s)
        .next()
        .map(|(t, _)| t);
    view.into_iter().chain(exit).reduce(f64::min)
}

/// Repair: a crash ends at the first restart at or after its nominal
/// recovery. A one-shot bad parameter has none, so its nominal recovery
/// is the run's end: it ends at the last restart from then on, else at
/// injection.
pub(crate) fn recovery_time(report: &ClusterReport, fault: &FaultSpec, end_s: f64) -> f64 {
    let nominal = fault.recovery_at().map_or(end_s, |t| t.as_secs_f64());
    let mut restarts = proc_events(report, ProcEvent::Restart, nominal).map(|(t, _)| t);
    match fault.kind {
        FaultKind::NodeCrash | FaultKind::AppCrash => restarts.next().unwrap_or(nominal),
        k if k.is_one_shot() => restarts.last().unwrap_or(fault.at.as_secs_f64()),
        _ => nominal,
    }
}

/// Seconds from `from` until every one of `nodes` has a view of `size`
/// members, as `(worst, all did)`; a node that never does is censored
/// at `end_s`.
pub(crate) fn views_reach(
    report: &ClusterReport,
    nodes: impl IntoIterator<Item = NodeId>,
    size: usize,
    from: f64,
    end_s: f64,
) -> (f64, bool) {
    nodes.into_iter().fold((0.0, true), |(worst, all), node| {
        match view_changes(report, from).find(|&(_, id, m)| id == node && m == size) {
            Some((t, ..)) => (worst.max(t - from), all),
            None => (worst.max(end_s - from), false),
        }
    })
}

/// Seconds from `node`'s first restart until its view holds `size`
/// members again; the run length `end_s` when it never restarted.
pub(crate) fn rejoin_time(report: &ClusterReport, node: NodeId, size: usize, end_s: f64) -> f64 {
    match proc_events(report, ProcEvent::Restart, 0.0).find(|&(_, id)| id == node) {
        Some((restart, _)) => views_reach(report, [node], size, restart, end_s).0,
        None => end_s,
    }
}

/// Resolves a user-facing `--jobs` request to a worker count:
/// `0` means "auto" (all available cores); anything else is capped by
/// available parallelism so oversubscription never helps a run lie
/// about its speed.
pub fn effective_jobs(requested: usize) -> usize {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    match requested {
        0 => cores,
        n => n.min(cores),
    }
}

/// Runs `f` over every task, returning outputs in task order.
///
/// With `jobs <= 1` (or fewer than two tasks) this is a plain in-order
/// map — the reference behaviour. Otherwise `min(jobs, tasks)` scoped
/// workers pull task indices from a shared counter and write results
/// into the slot matching the task index. Because every task carries
/// its own seed and shares nothing, the output vector is identical to
/// the sequential map regardless of scheduling.
///
/// # Panics
///
/// Propagates the first worker panic after all threads are joined.
pub fn run_indexed<T, R, F>(jobs: usize, tasks: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = tasks.len();
    if jobs <= 1 || n <= 1 {
        return tasks
            .into_iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect();
    }

    let workers = jobs.min(n);
    let queue: Vec<Mutex<Option<T>>> = tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let task = queue[i]
                    .lock()
                    .expect("task slot poisoned")
                    .take()
                    .expect("task claimed twice");
                let out = f(i, task);
                *slots[i].lock().expect("result slot poisoned") = Some(out);
            });
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("worker exited without storing its result")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mendosus::FaultKind;
    use simnet::{AvailabilityCounter, LatencyHistogram, SimDuration, TimeSeries};
    use transport::MsgClass;

    fn at(s: f64) -> SimTime {
        SimTime::from_nanos((s * 1e9) as u64)
    }

    /// A report holding only the two run logs: `(s, node, members)`
    /// view changes and `(s, node, event)` process events.
    fn logs(views: &[(f64, usize, usize)], procs: &[(f64, usize, ProcEvent)]) -> ClusterReport {
        ClusterReport {
            throughput: TimeSeries::new(Vec::new()),
            availability: AvailabilityCounter::default(),
            latency: LatencyHistogram::new(),
            latency_timeline: Vec::new(),
            membership_log: views
                .iter()
                .map(|&(s, n, m)| (at(s), NodeId(n), m))
                .collect(),
            process_log: procs
                .iter()
                .map(|&(s, n, e)| (at(s), NodeId(n), e))
                .collect(),
            final_members: Vec::new(),
            all_running: true,
        }
    }

    #[test]
    fn detection_is_the_first_view_change_or_exit_after_the_fault() {
        use ProcEvent::Exit;
        // Log entries before the fault at 10 s do not count.
        let exit_first = logs(
            &[(5.0, 0, 3), (12.0, 0, 3)],
            &[(4.0, 3, Exit), (11.0, 3, Exit)],
        );
        assert_eq!(detection_time(&exit_first, 10.0), Some(11.0));
        let view_first = logs(
            &[(5.0, 0, 3), (11.5, 0, 3)],
            &[(4.0, 3, Exit), (13.0, 3, Exit)],
        );
        assert_eq!(detection_time(&view_first, 10.0), Some(11.5));
        assert_eq!(
            detection_time(&logs(&[], &[(13.0, 3, Exit)]), 10.0),
            Some(13.0)
        );
        assert_eq!(detection_time(&view_first, 20.0), None);
    }

    #[test]
    fn a_restart_before_the_nominal_recovery_is_ignored() {
        use ProcEvent::Restart;
        let node = NodeId(3);
        let for_30s = SimDuration::from_secs(30);
        let crash = FaultSpec::transient(FaultKind::NodeCrash, node, at(10.0), for_30s);
        // The restart at 20 s precedes the nominal recovery at 40 s.
        let r = logs(
            &[],
            &[(20.0, 3, Restart), (45.0, 3, Restart), (50.0, 2, Restart)],
        );
        assert_eq!(recovery_time(&r, &crash, 90.0), 45.0);
        assert_eq!(
            recovery_time(&logs(&[], &[(20.0, 3, Restart)]), &crash, 90.0),
            40.0
        );
        // A fault with no process to restart recovers on schedule.
        let link = FaultSpec::transient(FaultKind::LinkDown, node, at(10.0), for_30s);
        assert_eq!(recovery_time(&r, &link, 90.0), 40.0);
    }

    #[test]
    fn a_one_shot_bad_parameter_recovers_at_injection() {
        use ProcEvent::{Exit, Restart};
        let kind = FaultKind::BadParamNull;
        let fault = FaultSpec::bad_param(kind, NodeId(3), at(10.0), MsgClass::FileData, 20);
        assert_eq!(recovery_time(&logs(&[], &[]), &fault, 90.0), 10.0);
        // Known defect (DESIGN.md §5): a one-shot bad parameter's nominal
        // recovery is the run's end, so a fail-fast exit and restart inside
        // the run is never counted and recovery stays at injection. The
        // fix moves the bad-parameter goldens; flip this assert with it.
        let r = logs(&[], &[(11.0, 3, Exit), (15.0, 3, Restart)]);
        assert_eq!(recovery_time(&r, &fault, 90.0), 10.0);
    }

    #[test]
    fn rack_detection_is_censored_when_a_live_view_never_shrinks() {
        // Nodes 0 and 3 must reach 3 members after the crash at 10 s.
        let live = [NodeId(0), NodeId(3)];
        let both = logs(&[(2.0, 3, 3), (14.0, 0, 3), (25.0, 3, 3)], &[]);
        assert_eq!(views_reach(&both, live, 3, 10.0, 70.0), (15.0, true));
        // Node 3 reached 3 members only before the fault.
        let one = logs(&[(2.0, 3, 3), (14.0, 0, 3), (25.0, 3, 2)], &[]);
        assert_eq!(views_reach(&one, live, 3, 10.0, 70.0), (60.0, false));
    }

    #[test]
    fn a_rejoin_is_timed_from_the_restart_and_without_one_is_the_run() {
        use ProcEvent::Restart;
        let views = [(12.0, 1, 4), (31.0, 1, 1), (34.0, 1, 4)];
        let restarted = logs(&views, &[(29.0, 2, Restart), (30.0, 1, Restart)]);
        assert_eq!(rejoin_time(&restarted, NodeId(1), 4, 90.0), 4.0);
        let other_node = logs(&views, &[(30.0, 2, Restart)]);
        assert_eq!(rejoin_time(&other_node, NodeId(1), 4, 90.0), 90.0);
        let never_full = logs(&views[..2], &[(30.0, 1, Restart)]);
        assert_eq!(rejoin_time(&never_full, NodeId(1), 4, 90.0), 60.0);
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let tasks: Vec<u64> = (0..37).collect();
        let f = |i: usize, t: u64| (i as u64) * 1_000 + t * t;
        let seq = run_indexed(1, tasks.clone(), f);
        let par = run_indexed(4, tasks, f);
        assert_eq!(seq, par);
    }

    #[test]
    fn results_are_in_task_order_not_completion_order() {
        // Early tasks sleep longer, so completion order is reversed;
        // output order must still follow task ids.
        let tasks: Vec<u64> = (0..8).collect();
        let out = run_indexed(8, tasks, |i, t| {
            std::thread::sleep(std::time::Duration::from_millis(8 - t));
            i
        });
        assert_eq!(out, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn more_jobs_than_tasks_is_fine() {
        let out = run_indexed(16, vec![5u32, 6], |_, t| t * 2);
        assert_eq!(out, [10, 12]);
    }

    #[test]
    fn empty_task_list() {
        let out: Vec<u32> = run_indexed(4, Vec::<u32>::new(), |_, t| t);
        assert!(out.is_empty());
    }

    #[test]
    fn effective_jobs_resolves_auto_and_caps() {
        // Mirror effective_jobs' own fallback: a host that cannot report
        // its parallelism should not fail the test.
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        assert_eq!(effective_jobs(0), cores);
        assert_eq!(effective_jobs(1), 1);
        assert!(effective_jobs(usize::MAX) <= cores);
    }
}
