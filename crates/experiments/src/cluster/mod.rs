//! The live simulated cluster: PRESS on TCP or VIA over the cLAN
//! fabric, driven by Poisson clients, with Mendosus faults applied in
//! real time.
//!
//! [`ClusterSim`] runs the event loop and routes effects; the request
//! fates live in the `requests` module and the active-fault counts in
//! `faults`.

mod faults;
mod requests;

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};

use mendosus::{Campaign, FaultAction, FaultKind, FaultPhase, PlannedMangle};
use press::{
    AppEffect, AppEvent, ClientAccept, NodeCtx, PressConfig, PressMsg, PressNode, PressVersion,
    Request, Stream,
};
use simnet::fabric::{Fabric, FabricConfig, Frame, LossReason, NodeId};
use simnet::{
    AvailabilityCounter, CancelToken, CpuMeter, Engine, Lane, LatencyHistogram, SimDuration,
    SimRng, SimTime, Slab, TimeSeries,
};
use telemetry::{AttrEvent, TraceEvent, TID_CLUSTER};
use transport::{
    Effect, Effects, Substrate, SubstrateImpl, TcpConfig, TcpStack, TimerKey, TimerKind, Upcall,
    ViaConfig, ViaNic, WirePayload,
};
use workload::{ClientConfig, ClientEvent, ClientPool};

use faults::FaultLedger;
use requests::RequestLedger;

/// Everything needed to build a cluster run.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Which PRESS version to run.
    pub version: PressVersion,
    /// Server parameters.
    pub press: PressConfig,
    /// Network fabric parameters.
    pub fabric: FabricConfig,
    /// TCP stack parameters (TCP versions).
    pub tcp: TcpConfig,
    /// VIA NIC parameters (VIA versions).
    pub via: ViaConfig,
    /// Aggregate client request rate (requests/second).
    pub rate: f64,
    /// Pre-populate caches and directories (skip cold-cache warm-up).
    pub prewarm: bool,
    /// Delay before the Mendosus daemon restarts a dead process.
    pub restart_delay: SimDuration,
    /// Structured tracing (off by default; near-free when off).
    pub trace: telemetry::TraceConfig,
    /// Always `1`: a simulation runs on one thread. The field stays only
    /// so the frozen `perfbench` workloads, which assign it, still
    /// compile; [`ClusterSim::with_campaign`] rejects any other value.
    pub sim_threads: usize,
    /// Causal root-cause attribution (off by default; near-free when
    /// off). When on, every lost or deadline-missing request is
    /// classified into exactly one [`telemetry::RootCause`].
    pub attribution: bool,
}

impl ClusterConfig {
    /// The paper's test-bed for `version`, driven slightly above the
    /// version's nominal peak so measured throughput is the near-peak
    /// capacity (Table 1's operating point).
    pub fn paper_defaults(version: PressVersion) -> Self {
        let mut via = match version.via_mode() {
            Some(transport::ViaMode::RemoteWrite) => ViaConfig::remote_write(),
            _ => ViaConfig::messaging(),
        };
        // VIA-PRESS-5 pins its whole 128 MB cache (32768 pages) plus the
        // startup communication buffers.
        via.pinned_page_limit = 40_000;
        let press = PressConfig::paper_testbed();
        ClusterConfig {
            version,
            fabric: FabricConfig::ring(press.nodes),
            press,
            tcp: TcpConfig::default(),
            via,
            rate: version.paper_throughput() * 1.06,
            prewarm: true,
            restart_delay: SimDuration::from_secs(3),
            trace: telemetry::TraceConfig::OFF,
            sim_threads: 1,
            attribution: false,
        }
    }

    /// The operating point for fault-injection experiments: the same
    /// test-bed driven just under peak, so the pre-fault baseline is
    /// stable and fully served ("the delivered throughput is relatively
    /// stable throughout the observation period", §2.1).
    pub fn fault_experiment(version: PressVersion) -> Self {
        let mut c = ClusterConfig::paper_defaults(version);
        c.rate = version.paper_throughput() * 0.95;
        c
    }

    /// A proportionally shrunk test-bed for fast unit/integration tests:
    /// same cache-to-working-set ratios and behaviours, an order of
    /// magnitude fewer events.
    pub fn small(version: PressVersion) -> Self {
        let mut c = ClusterConfig::paper_defaults(version);
        c.press.files = 6_000;
        c.press.cache_bytes = 1_640 * u64::from(c.press.file_bytes);
        c.rate = 900.0;
        c
    }
}

/// What happened to a process, for the run log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcEvent {
    /// The process died (fault or fail-fast).
    Exit,
    /// The process came back up.
    Restart,
}

/// Simulation events. Every queued event is one of these, so the size
/// matters: a frame in flight is parked in [`ClusterSim::frames`] and
/// its event carries only the handle.
#[derive(Debug)]
enum Ev {
    Frame(u32),
    Timer(TimerKey),
    App { node: usize, gen: u64, ev: AppEvent },
    Reply { node: usize, gen: u64, req_id: u64 },
    Client(ClientEvent),
    Fault(usize),
    ProcessRestart { node: usize, gen: u64 },
}

/// Internal work items processed synchronously within one event.
enum Work {
    /// A new arrival, scored by PRESS's accept or drop.
    Client(Request),
    /// An arrival the kernel accepted while the application was hung.
    /// It is already scored: its deadline is queued.
    Parked(Request),
    AppEv(AppEvent),
    Upcall(Upcall<PressMsg>),
    FrameIn(Frame<WirePayload<PressMsg>>),
    Timer(TimerKey),
    TransmitFailed(NodeId, LossReason),
    Start {
        cold: bool,
    },
    SetHung(bool),
}

struct NodeSlot {
    press: PressNode,
    /// The transport endpoint, statically dispatched: the hot path never
    /// pays a vtable indirection per frame/timer/send.
    sub: SubstrateImpl<PressMsg>,
    cpu: CpuMeter,
    mangler: mendosus::Mangler,
    running: bool,
    hung: bool,
    frozen: bool,
    gen: u64,
    freezer: Vec<Work>,
    /// `Work::Parked` requests not yet handed to PRESS: the connections
    /// waiting in the listen queue.
    parked: usize,
}

/// Engine lanes of one node's monotone event streams (see [`Stream`]).
#[derive(Debug, Clone, Copy)]
struct NodeLanes {
    cpu: Lane,
    disk: Lane,
}

/// How much a gray [`FaultKind::CpuThrottle`] slows a node: every CPU
/// charge costs this many times more while the fault is active.
const GRAY_THROTTLE_FACTOR: u32 = 8;

/// Connections the kernel accepts for an application that does not
/// read them (Linux's `SOMAXCONN`). Past it, SYNs are dropped and the
/// client's connect fails.
const LISTEN_BACKLOG: usize = 128;

/// The run's in-order observers. Both record in dispatch order, so
/// their output is byte-identical across `--jobs`.
struct Observer {
    sink: telemetry::TraceSink,
    /// Root-cause attribution accumulator (`None` when disabled).
    attr: Option<Box<telemetry::AttrState>>,
}

impl Observer {
    /// Records one attribution event (no-op when attribution is off).
    #[inline]
    fn attr(&mut self, now: SimTime, node: usize, ev: AttrEvent) {
        if let Some(a) = &mut self.attr {
            a.record(now, node, ev);
        }
    }
}

/// Cancellation bookkeeping for one TCP connection's timers.
///
/// TCP's reliability machine (`transport::tcp::reliability`) bumps the
/// shared per-connection `gen` on every arming, of any timer kind, and
/// `timer_fired` demands an exact match, so *any* pending timer whose
/// gen is older than the newest `SetTimer` gen seen for the connection
/// is a guaranteed no-op — it can be cancelled out of the engine instead
/// of transiting the heap just to be discarded. The index is only
/// maintained for TCP versions: VIA only arms rare connection-setup
/// timers.
#[derive(Clone, Default)]
struct ConnTimers {
    /// Gen of the newest `SetTimer` seen for this connection.
    latest_gen: u64,
    /// Per-kind pending timer: `(gen, engine token)`.
    pending: [Option<(u64, CancelToken)>; TimerKind::COUNT],
}

/// Summary of a finished (or in-progress) run.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Successful-request throughput, 1 s buckets.
    pub throughput: TimeSeries,
    /// Request outcome tallies.
    pub availability: AvailabilityCounter,
    /// Response-time distribution of the successful requests.
    pub latency: LatencyHistogram,
    /// Per-bucket response-time distributions, same 1 s buckets as
    /// `throughput` — merged per stage by the report generator.
    pub latency_timeline: Vec<LatencyHistogram>,
    /// `(time, node, members)` whenever a node's membership view
    /// changed size.
    pub membership_log: Vec<(SimTime, NodeId, usize)>,
    /// `(time, node, event)` process exits and restarts.
    pub process_log: Vec<(SimTime, NodeId, ProcEvent)>,
    /// Per-node membership sizes at the end of the run.
    pub final_members: Vec<usize>,
    /// Whether every process was running at the end of the run.
    pub all_running: bool,
}

impl ClusterReport {
    /// `true` if the cluster ended the run fully merged and running —
    /// i.e. no operator intervention would be needed.
    pub fn fully_recovered(&self, nodes: usize) -> bool {
        self.all_running && self.final_members.iter().all(|m| *m == nodes)
    }
}

/// Process-wide count of engine events dispatched by completed
/// simulations (flushed when each [`ClusterSim`] drops). The repro
/// harness reads deltas around each target to report events/second.
static EVENTS_DISPATCHED: AtomicU64 = AtomicU64::new(0);

/// Total engine events dispatched by all simulations finished so far,
/// across all threads.
pub fn events_dispatched_total() -> u64 {
    EVENTS_DISPATCHED.load(Ordering::Relaxed)
}

/// The simulated cluster.
pub struct ClusterSim {
    config: ClusterConfig,
    engine: Engine<Ev>,
    /// Shared engine lane of fixed-horizon timeouts: client deadlines
    /// and PRESS forward watchdogs, both stamped `now + 6 s`.
    timeout_lane: Lane,
    /// Per-node CPU and disk completion lanes, indexed by node.
    node_lanes: Vec<NodeLanes>,
    /// Frames between transmit and delivery, named by `Ev::Frame`.
    frames: Slab<Frame<WirePayload<PressMsg>>>,
    fabric: Fabric,
    nodes: Vec<NodeSlot>,
    requests: RequestLedger,
    actions: Vec<FaultAction>,
    /// Active-fault reference counts (overlapping campaigns).
    faults: FaultLedger,
    membership_log: Vec<(SimTime, NodeId, usize)>,
    process_log: Vec<(SimTime, NodeId, ProcEvent)>,
    last_members: Vec<usize>,
    obs: Observer,
    /// Work queue reused across events (allocation-free steady state).
    work: VecDeque<(usize, Work)>,
    /// Transport-effect buffer reused across work items.
    fx: Effects<PressMsg>,
    /// App-effect buffer reused across work items.
    app_scratch: Vec<AppEffect>,
    /// Same-instant event burst buffer reused across `run_until` steps.
    batch: Vec<Ev>,
    /// Per-node `conn → ConnTimers` cancellation index (TCP versions
    /// only; `None` for VIA — see [`ConnTimers`]).
    timers: Option<Vec<BTreeMap<u64, ConnTimers>>>,
    /// Superseded timers cancelled before ever being dispatched.
    timers_suppressed: u64,
}

impl Drop for ClusterSim {
    fn drop(&mut self) {
        EVENTS_DISPATCHED.fetch_add(self.engine.dispatched(), Ordering::Relaxed);
    }
}

impl ClusterSim {
    /// Builds and boots a fault-free cluster.
    pub fn new(config: ClusterConfig, seed: u64) -> Self {
        ClusterSim::with_campaign(config, Campaign::none(), seed)
    }

    /// Builds and boots a cluster with a fault campaign armed.
    ///
    /// # Panics
    ///
    /// Panics if `config.sim_threads != 1` or the campaign is malformed.
    pub fn with_campaign(config: ClusterConfig, campaign: Campaign, seed: u64) -> Self {
        assert_eq!(
            config.sim_threads, 1,
            "sim_threads must be 1: the conservative-parallel engine was removed"
        );
        // Reject a bad campaign before building anything. Replaying a
        // malformed one would corrupt the ledger's reference counts, and
        // a fault on a node the cluster lacks would fail mid-run.
        if let Err(err) = campaign.validate() {
            panic!("invalid fault campaign: {err}");
        }
        let n = config.press.nodes;
        for spec in campaign.faults() {
            // A switch fault names no node.
            let node = (spec.kind != FaultKind::SwitchDown).then_some(spec.node);
            for id in node.into_iter().chain(spec.peer) {
                assert!(
                    id.0 < n,
                    "invalid fault campaign: {} on node {} of a {n}-node cluster",
                    spec.kind,
                    id.0
                );
            }
        }
        let mut config = config;
        // The epidemic detector derives each node's probe-order stream
        // from the run seed and its node id (no draw from the main rng,
        // so Ring runs are bit-identical with or without this field).
        config.press.gossip.seed = seed;
        let mut rng = SimRng::seed_from(seed);
        // A booted 4-node cluster keeps a few hundred events in flight;
        // pre-sizing skips the early heap growth.
        let mut engine = Engine::with_capacity(512);
        // 2N+1 lanes: the shared timeout lane, then each node's CPU and
        // disk completion streams.
        let timeout_lane = engine.add_lane();
        let node_lanes: Vec<NodeLanes> = (0..n)
            .map(|_| NodeLanes {
                cpu: engine.add_lane(),
                disk: engine.add_lane(),
            })
            .collect();
        let fabric = Fabric::new(config.fabric.clone());
        let client_config = ClientConfig {
            rate: config.rate,
            nodes: n,
            files: config.press.files,
            ..ClientConfig::paper(config.rate)
        };
        let mut clients = ClientPool::new(client_config, rng.fork());
        let mut nodes = Vec::with_capacity(n);
        for i in 0..n {
            let id = NodeId(i);
            let sub = if config.version.uses_via() {
                SubstrateImpl::Via(ViaNic::new(
                    id,
                    config.via.clone(),
                    config.version.cost_model(),
                ))
            } else {
                SubstrateImpl::Tcp(TcpStack::new(
                    id,
                    config.tcp.clone(),
                    config.version.cost_model(),
                ))
            };
            nodes.push(NodeSlot {
                press: PressNode::new(id, config.version, config.press.clone()),
                sub,
                cpu: CpuMeter::new(),
                mangler: mendosus::Mangler::new(),
                running: true,
                hung: false,
                frozen: false,
                gen: 0,
                freezer: Vec::new(),
                parked: 0,
            });
        }
        // Arm the campaign.
        let actions = campaign.actions();
        for (i, a) in actions.iter().enumerate() {
            engine.schedule_at(a.at, Ev::Fault(i));
        }
        // First client arrival.
        let first = clients.first_arrival(SimTime::ZERO);
        engine.schedule_at(first, Ev::Client(ClientEvent::Arrival));

        let obs = Observer {
            sink: telemetry::TraceSink::new(config.trace),
            attr: config
                .attribution
                .then(|| Box::new(telemetry::AttrState::new(n))),
        };
        for slot in &mut nodes {
            slot.sub.set_trace(obs.sink.enabled());
            slot.press.set_trace(obs.sink.enabled());
            slot.sub.set_attr(obs.attr.is_some());
            slot.press.set_attr(obs.attr.is_some());
        }
        let sample = if obs.sink.enabled() {
            config.trace.request_sample
        } else {
            0
        };
        let timers = if config.version.uses_via() {
            None
        } else {
            Some(vec![BTreeMap::new(); n])
        };
        let mut sim = ClusterSim {
            last_members: vec![0; n],
            config,
            engine,
            timeout_lane,
            node_lanes,
            frames: Slab::new(),
            fabric,
            nodes,
            requests: RequestLedger::new(clients, sample),
            actions,
            faults: FaultLedger::default(),
            membership_log: Vec::new(),
            process_log: Vec::new(),
            obs,
            work: VecDeque::new(),
            fx: Effects::new(),
            app_scratch: Vec::new(),
            batch: Vec::new(),
            timers,
            timers_suppressed: 0,
        };
        // Cold-boot every node.
        for i in 0..n {
            sim.work.push_back((i, Work::Start { cold: true }));
        }
        sim.drain_work(SimTime::ZERO);
        if sim.config.prewarm {
            sim.prewarm();
        }
        sim
    }

    /// The configuration in use.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// Engine events dispatched by this simulation so far (live view of
    /// the count folded into [`events_dispatched_total`] on drop).
    pub fn events_dispatched(&self) -> u64 {
        self.engine.dispatched()
    }

    /// Direct fabric access (tests and custom scenarios).
    pub fn fabric_mut(&mut self) -> &mut Fabric {
        &mut self.fabric
    }

    /// A node's PRESS state (tests and reports).
    pub fn press(&self, node: NodeId) -> &PressNode {
        &self.nodes[node.0].press
    }

    /// Whether a node's process is currently running.
    pub fn process_running(&self, node: NodeId) -> bool {
        self.nodes[node.0].running
    }

    fn prewarm(&mut self) {
        // Spread the document set round-robin over the nodes, matching
        // the steady state cooperative caching converges to.
        let n = self.config.press.nodes;
        let per_node = self.config.press.cache_entries();
        let files = self.config.press.files as usize;
        // Round-robin gives node 0 the most files: ceil(files / n).
        assert!(
            files.div_ceil(n) <= per_node,
            "document set must fit in the aggregate cache for prewarm"
        );
        let assignment: Vec<NodeId> = (0..files).map(|f| NodeId(f % n)).collect();
        let now = self.engine.now();
        for slot in &mut self.nodes {
            let mut ctx = NodeCtx {
                now,
                cpu: &mut slot.cpu,
                sub: &mut slot.sub,
                interposer: &mut slot.mangler,
                fx: &mut self.fx,
                app: &mut self.app_scratch,
            };
            slot.press.prewarm(&mut ctx, &assignment);
            // Prewarm is setup, not simulation: discard the effects (the
            // CPU cost of loading caches happened "before" the run).
            self.fx.clear();
            self.app_scratch.clear();
        }
    }

    /// Runs the simulation until `deadline`.
    ///
    /// Events are pulled in same-instant bursts
    /// ([`Engine::pop_batch_before`]) rather than one at a time; events
    /// an in-burst handler schedules for the current
    /// instant land in the *next* burst, which is exactly where the
    /// per-event loop would have delivered them (they carry later seqs),
    /// so dispatch order — and therefore every report — is unchanged.
    pub fn run_until(&mut self, deadline: SimTime) {
        let mut batch = std::mem::take(&mut self.batch);
        while let Some(now) = self.engine.pop_batch_before(deadline, &mut batch) {
            for ev in batch.drain(..) {
                self.handle(now, ev);
            }
        }
        self.batch = batch;
    }

    /// Builds the report for everything seen so far.
    pub fn report(&self) -> ClusterReport {
        let end = self.engine.now();
        let clients = &self.requests.pool;
        let c = clients.counter();
        assert_eq!(
            c.successes + c.failures() + clients.outstanding() as u64,
            c.attempts,
            "a request was scored twice or never"
        );
        ClusterReport {
            throughput: clients.throughput(end),
            availability: clients.counter().clone(),
            latency: clients.latency().clone(),
            latency_timeline: clients.latency_timeline(end),
            membership_log: self.membership_log.clone(),
            process_log: self.process_log.clone(),
            final_members: self.nodes.iter().map(|s| s.press.members().len()).collect(),
            all_running: self.nodes.iter().all(|s| s.running),
        }
    }

    /// Mean successful throughput over `[t0, t1)` seconds.
    pub fn mean_throughput(&self, t0: f64, t1: f64) -> f64 {
        self.requests
            .pool
            .mean_throughput(self.engine.now(), t0, t1)
    }

    /// Superseded transport timers cancelled out of the engine before
    /// they were ever dispatched (also exported as the
    /// `transport.timers_stale_suppressed` metric).
    pub fn timers_stale_suppressed(&self) -> u64 {
        self.timers_suppressed
    }

    /// Drains the buffered trace events (empty when tracing is off).
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.obs.sink.take()
    }

    /// Takes the attribution accumulator frozen into its report
    /// (`None` when attribution is off or already taken).
    pub fn take_attr(&mut self) -> Option<telemetry::AttrReport> {
        self.obs.attr.take().map(|a| a.finish())
    }

    /// Snapshots every layer's counters and gauges into one registry:
    /// transport stats, PRESS behaviour counters, per-node CPU busy
    /// fractions, client outcome tallies and the current splinter count
    /// (distinct membership views among running nodes).
    pub fn metrics_snapshot(&self) -> telemetry::MetricsRegistry {
        let mut reg = telemetry::MetricsRegistry::new();
        let now = self.engine.now();
        for (i, slot) in self.nodes.iter().enumerate() {
            slot.sub.export_metrics(&mut reg);
            slot.press.export_metrics(&mut reg);
            let busy = slot.cpu.utilization(now);
            reg.gauge_set(&format!("cpu.busy_fraction.node{i}"), busy);
        }
        reg.counter_add("transport.timers_stale_suppressed", self.timers_suppressed);
        self.requests.pool.export_metrics(&mut reg);
        let views: std::collections::BTreeSet<Vec<usize>> = self
            .nodes
            .iter()
            .filter(|s| s.running)
            .map(|s| s.press.members().iter().map(|n| n.0).collect())
            .collect();
        reg.gauge_set("cluster.splinters", views.len() as f64);
        reg
    }

    // ------------------------------------------------------------------
    // Event handling
    // ------------------------------------------------------------------

    fn handle(&mut self, now: SimTime, ev: Ev) {
        debug_assert!(self.work.is_empty());
        match ev {
            Ev::Frame(handle) => {
                let frame = self.frames.take(handle);
                let dst = frame.dst.0;
                if self.fabric.node_up(frame.dst) {
                    self.work.push_back((dst, Work::FrameIn(frame)));
                }
            }
            Ev::Timer(key) => {
                if self.note_timer_dispatched(&key) {
                    self.timers_suppressed += 1;
                } else if self.fabric.node_up(key.node) {
                    self.work.push_back((key.node.0, Work::Timer(key)));
                }
            }
            Ev::App { node, gen, ev } => {
                if self.nodes[node].running && self.nodes[node].gen == gen {
                    self.work.push_back((node, Work::AppEv(ev)));
                }
            }
            Ev::Reply { node, gen, req_id } => {
                if self.nodes[node].running && self.nodes[node].gen == gen {
                    self.requests.completed(&mut self.obs, now, node, req_id);
                }
            }
            Ev::Client(ClientEvent::Arrival) => {
                let (req, target, next) = self.requests.pool.arrive(now);
                self.engine
                    .schedule_at(next, Ev::Client(ClientEvent::Arrival));
                let (i, slot) = (target.0, &self.nodes[target.0]);
                if !self.fabric.node_up(target) || slot.frozen {
                    // Machine unresponsive: SYN goes nowhere.
                    self.requests.connect_failed(&mut self.obs, now, i, req.id);
                } else if !slot.running {
                    // Machine up, process dead: refused immediately.
                    self.requests.refused(&mut self.obs, now, i, req.id);
                } else if slot.hung && slot.parked == LISTEN_BACKLOG {
                    // The listen queue is full: the kernel drops the SYN.
                    self.requests.connect_failed(&mut self.obs, now, i, req.id);
                } else if slot.hung {
                    // The kernel accepts; the application never reads.
                    self.accept(now, i, req.id);
                    let slot = &mut self.nodes[i];
                    slot.parked += 1;
                    slot.freezer.push(Work::Parked(req));
                } else {
                    self.work.push_back((i, Work::Client(req)));
                }
            }
            Ev::Client(ClientEvent::Deadline(id)) => {
                self.requests.deadline(&mut self.obs, now, id);
            }
            Ev::ProcessRestart { node, gen } => {
                let slot = &mut self.nodes[node];
                // A frozen machine cannot boot a process; the hang
                // recovery reschedules the restart when it thaws.
                if slot.gen == gen && !slot.running && !slot.frozen {
                    slot.running = true;
                    self.process_log
                        .push((now, NodeId(node), ProcEvent::Restart));
                    self.obs.attr(now, node, AttrEvent::FaultEnd);
                    self.obs.sink.emit_with(|| {
                        TraceEvent::instant("process.restart", "proc", node as u32, now)
                    });
                    self.work.push_back((node, Work::Start { cold: false }));
                }
            }
            Ev::Fault(idx) => {
                let action = self.actions[idx].clone();
                self.apply_fault(now, &action);
            }
        }
        self.drain_work(now);
    }

    /// Queues a node's event on the engine lane its stream names, or on
    /// the heap for [`Stream::Unordered`]. A lane only speeds up the
    /// queue: delivery follows the same `(time, seq)` order either way.
    fn schedule_stream(&mut self, node: usize, stream: Stream, at: SimTime, ev: Ev) {
        let lane = match stream {
            Stream::Unordered => return self.engine.schedule_at(at, ev),
            Stream::Cpu => self.node_lanes[node].cpu,
            Stream::Disk => self.node_lanes[node].disk,
            Stream::Timeout => self.timeout_lane,
        };
        self.engine.schedule_lane(lane, at, ev);
    }

    /// Scores a request accepted on `node` and queues its deadline.
    /// Deadlines are always `now +` [`press::REQUEST_TIMEOUT`], like the
    /// PRESS forward watchdogs, so they share the timeout lane.
    fn accept(&mut self, now: SimTime, node: usize, req_id: u64) {
        let at = self.requests.accepted(&mut self.obs, now, node, req_id);
        let ev = Ev::Client(ClientEvent::Deadline(req_id));
        self.engine.schedule_lane(self.timeout_lane, at, ev);
    }

    /// Queues a restart of `node`'s current process generation at `at`.
    fn schedule_restart(&mut self, at: SimTime, node: usize) {
        let gen = self.nodes[node].gen;
        self.engine
            .schedule_at(at, Ev::ProcessRestart { node, gen });
    }

    /// Parks `frame` and queues its delivery at `at`.
    fn schedule_frame(&mut self, at: SimTime, frame: Frame<WirePayload<PressMsg>>) {
        let handle = self.frames.insert(frame);
        self.engine.schedule_at(at, Ev::Frame(handle));
    }

    /// Records delivery of a timer event and reports whether it is
    /// *certainly* stale (superseded by a later gen for its connection)
    /// and need not reach the transport. Cancellation at arm time
    /// already removes such timers from the engine, so this is a cheap
    /// defensive check; delivering a maybe-stale timer is always safe
    /// (the transport re-checks the gen).
    fn note_timer_dispatched(&mut self, key: &TimerKey) -> bool {
        let Some(per_node) = &mut self.timers else {
            return false;
        };
        let Some(entry) = per_node[key.node.0].get_mut(&key.conn) else {
            return false;
        };
        let slot = &mut entry.pending[key.kind.idx()];
        if slot.is_some_and(|(g, ..)| g == key.gen) {
            *slot = None;
        }
        key.gen < entry.latest_gen
    }

    /// Schedules a transport timer, cancelling any pending timer of the
    /// same connection that the new gen supersedes (see [`ConnTimers`]).
    fn schedule_timer(&mut self, at: SimTime, key: TimerKey) {
        let Some(per_node) = &mut self.timers else {
            self.engine.schedule_at(at, Ev::Timer(key));
            return;
        };
        let entry = per_node[key.node.0].entry(key.conn).or_default();
        if key.gen > entry.latest_gen {
            entry.latest_gen = key.gen;
        }
        for slot in &mut entry.pending {
            if let Some((g, token)) = *slot {
                if g < entry.latest_gen {
                    *slot = None;
                    if self.engine.cancel(token) {
                        self.timers_suppressed += 1;
                    }
                }
            }
        }
        let token = self.engine.schedule_cancellable(at, Ev::Timer(key));
        entry.pending[key.kind.idx()] = Some((key.gen, token));
    }

    fn apply_fault(&mut self, now: SimTime, action: &FaultAction) {
        let spec = &action.spec;
        let (node, i) = (spec.node, spec.node.0);
        let inject = action.phase == FaultPhase::Inject;
        if self.obs.sink.enabled() {
            let tag = |ev: TraceEvent| {
                ev.arg_str("kind", spec.kind.to_string())
                    .arg_u64("node", i as u64)
            };
            if inject {
                let ev = TraceEvent::instant("fault.inject", "fault", TID_CLUSTER, now);
                self.obs.sink.emit(tag(ev));
            } else {
                // One span covering the fault's whole active window,
                // plus the recovery instant.
                let active = now.saturating_since(spec.at);
                let ev = TraceEvent::span("fault.active", "fault", TID_CLUSTER, spec.at, active);
                self.obs.sink.emit(tag(ev));
                let ev = TraceEvent::instant("fault.recover", "fault", TID_CLUSTER, now);
                self.obs.sink.emit(tag(ev));
            }
        }
        // Condition faults change state only on their count's edges, so
        // overlapping faults on one component compose instead of
        // clobbering each other.
        let edge = self.faults.edge(spec, inject);
        match spec.kind {
            FaultKind::LinkDown if edge => self.fabric.set_link_up(node, !inject),
            FaultKind::SwitchDown if edge => self.fabric.set_switch_up(!inject),
            FaultKind::NodeCrash if edge => {
                if inject {
                    self.fabric.set_node_up(node, false);
                    self.kill_process(now, i, None);
                } else {
                    // Machine back up (unless a concurrent hang still
                    // holds it frozen); Mendosus restarts PRESS after
                    // the boot completes.
                    if !self.faults.active(FaultKind::NodeHang, node) {
                        self.fabric.set_node_up(node, true);
                    }
                    self.schedule_restart(now + self.config.restart_delay, i);
                }
            }
            FaultKind::NodeHang if edge => {
                let crashed = self.faults.active(FaultKind::NodeCrash, node);
                if inject || !crashed {
                    self.fabric.set_node_up(node, !inject);
                }
                self.nodes[i].frozen = inject;
                let ev = if inject {
                    AttrEvent::FaultBegin
                } else {
                    AttrEvent::FaultEnd
                };
                self.obs.attr(now, i, ev);
                if !inject {
                    self.thaw(i);
                    // A crash recovery that fired while the machine was
                    // frozen could not boot the process (see
                    // Ev::ProcessRestart); resume the boot now.
                    if !crashed && !self.nodes[i].running {
                        self.schedule_restart(now + self.config.restart_delay, i);
                    }
                }
            }
            FaultKind::KernelAllocFail if edge => self.nodes[i].sub.set_alloc_fail(inject),
            FaultKind::MemPinFail if edge => self.nodes[i].sub.set_pin_fail(inject),
            FaultKind::AppHang if edge => {
                self.nodes[i].hung = inject;
                let ev = if inject {
                    AttrEvent::FaultBegin
                } else {
                    AttrEvent::FaultEnd
                };
                self.obs.attr(now, i, ev);
                self.work.push_back((i, Work::SetHung(inject)));
                if !inject {
                    self.thaw(i);
                }
            }
            // Every app crash kills, not just the count's first:
            // kill_process is idempotent and each kill schedules its
            // own gen-checked restart, which is also the recovery.
            FaultKind::AppCrash if inject => self.kill_process(now, i, spec.duration),
            FaultKind::BadParamNull | FaultKind::BadParamOffPtr | FaultKind::BadParamOffSize
                if inject =>
            {
                let bad = match spec.kind {
                    FaultKind::BadParamNull => mendosus::BadParam::NullPtr,
                    FaultKind::BadParamOffPtr => mendosus::BadParam::OffByPtr(spec.off_n),
                    _ => mendosus::BadParam::OffBySize(spec.off_n.max(1)),
                };
                self.nodes[i].mangler.plan(PlannedMangle {
                    at: now,
                    class: spec.class,
                    bad,
                });
            }
            FaultKind::LinkDegraded if edge => self.fabric.set_link_degraded(node, inject),
            FaultKind::CpuThrottle if edge => {
                let factor = if inject { GRAY_THROTTLE_FACTOR } else { 1 };
                self.nodes[i].cpu.set_throttle(factor);
            }
            FaultKind::PartialPartition if edge => {
                let peer = spec.peer.expect("partition specs always carry a peer");
                self.fabric.set_pair_blocked(node, peer, inject);
            }
            _ => {}
        }
    }

    /// Queues the work `node` parked while it was frozen or hung, in
    /// arrival order.
    fn thaw(&mut self, node: usize) {
        let parked = self.nodes[node].freezer.drain(..).map(|w| (node, w));
        self.work.extend(parked);
    }

    fn kill_process(&mut self, now: SimTime, node: usize, restart_after: Option<SimDuration>) {
        let slot = &mut self.nodes[node];
        if !slot.running {
            return;
        }
        slot.running = false;
        slot.hung = false;
        slot.gen += 1;
        slot.cpu.reset_backlog(now);
        slot.freezer.clear();
        slot.parked = 0;
        slot.sub.restart(now);
        self.process_log.push((now, NodeId(node), ProcEvent::Exit));
        self.obs.attr(now, node, AttrEvent::FaultBegin);
        self.obs
            .sink
            .emit_with(|| TraceEvent::instant("process.exit", "proc", node as u32, now));
        if let Some(delay) = restart_after {
            self.schedule_restart(now + delay, node);
        }
    }

    // ------------------------------------------------------------------
    // Work processing
    // ------------------------------------------------------------------

    fn drain_work(&mut self, now: SimTime) {
        while let Some((i, w)) = self.work.pop_front() {
            let slot = &mut self.nodes[i];
            // Transport-level work reaches the endpoint even when the
            // process is gone (the kernel answers with resets), and a
            // boot needs no process; application work requires a live
            // process, and waits in the freezer while it is frozen or
            // hung.
            let needs_process = !matches!(
                w,
                Work::FrameIn(_) | Work::Timer(_) | Work::TransmitFailed(..) | Work::Start { .. }
            );
            if needs_process && !slot.running {
                continue;
            }
            if needs_process && (slot.frozen || slot.hung) && !matches!(w, Work::SetHung(_)) {
                slot.freezer.push(w);
                continue;
            }
            // Reused buffers: zero steady-state allocation per work item.
            let mut ctx = NodeCtx {
                now,
                cpu: &mut slot.cpu,
                sub: &mut slot.sub,
                interposer: &mut slot.mangler,
                fx: &mut self.fx,
                app: &mut self.app_scratch,
            };
            match w {
                Work::Client(req) => match slot.press.client_request(&mut ctx, req) {
                    ClientAccept::Accepted => self.accept(now, i, req.id),
                    ClientAccept::Dropped(reason) => {
                        self.requests.dropped(&mut self.obs, now, i, req.id, reason)
                    }
                },
                // If PRESS drops it now, its queued deadline scores it.
                Work::Parked(req) => {
                    slot.parked -= 1;
                    _ = slot.press.client_request(&mut ctx, req);
                }
                Work::AppEv(ev) => slot.press.on_app_event(&mut ctx, ev),
                Work::Upcall(u) => slot.press.on_upcall(&mut ctx, u),
                Work::FrameIn(frame) => ctx.sub.frame_arrived(now, frame, ctx.fx),
                Work::Timer(key) => ctx.sub.timer_fired(now, key, ctx.fx),
                Work::TransmitFailed(peer, reason) => {
                    ctx.sub.transmit_failed(now, peer, reason, ctx.fx)
                }
                Work::Start { cold } => slot.press.start(&mut ctx, cold),
                Work::SetHung(h) => ctx.sub.set_app_receiving(now, !h, ctx.fx),
            }
            self.apply_effects(now, i);
        }
    }

    /// Routes the effects node `i`'s last work item left in the reused
    /// buffers.
    fn apply_effects(&mut self, now: SimTime, i: usize) {
        let mut fx = std::mem::take(&mut self.fx);
        for e in fx.drain(..) {
            match e {
                Effect::Transmit(frame) => match self.fabric.transmit(now, &frame) {
                    simnet::fabric::TransmitOutcome::Delivered { at } => {
                        self.schedule_frame(at, frame);
                    }
                    simnet::fabric::TransmitOutcome::Lost { reason } => {
                        // Gray losses are silent: no NIC error reaches
                        // the transport, so TCP never sees a connection
                        // break and VIA never tears a Vi down — only
                        // end-to-end timeouts can notice. The frame
                        // still counts as lost in the fabric stats.
                        if !reason.silent() {
                            self.work
                                .push_back((i, Work::TransmitFailed(frame.dst, reason)));
                        } else {
                            self.obs.attr(now, i, AttrEvent::GrayLoss);
                        }
                    }
                },
                Effect::SetTimer { at, key } => {
                    self.schedule_timer(at, key);
                }
                Effect::ChargeCpu(d) => {
                    self.nodes[i].cpu.charge(now, d);
                }
                Effect::Upcall(u) => {
                    self.work.push_back((i, Work::Upcall(u)));
                }
                Effect::Trace(ev) => {
                    self.obs.sink.emit(ev);
                }
                Effect::Attr(ev) => {
                    self.obs.attr(now, i, ev);
                }
            }
        }
        self.fx = fx;
        let mut app = std::mem::take(&mut self.app_scratch);
        for a in app.drain(..) {
            match a {
                AppEffect::Schedule { at, ev, stream } => {
                    let gen = self.nodes[i].gen;
                    self.schedule_stream(i, stream, at, Ev::App { node: i, gen, ev });
                }
                AppEffect::Reply { req_id, at } => {
                    let gen = self.nodes[i].gen;
                    let ev = Ev::Reply {
                        node: i,
                        gen,
                        req_id,
                    };
                    self.schedule_stream(i, Stream::Cpu, at, ev);
                }
                AppEffect::ProcessExit { reason: _ } => {
                    self.kill_process(now, i, Some(self.config.restart_delay));
                }
            }
        }
        self.app_scratch = app;
        // Log membership changes for stage-marker extraction.
        let m = self.nodes[i].press.members().len();
        if m != self.last_members[i] {
            self.last_members[i] = m;
            self.membership_log.push((now, NodeId(i), m));
            self.obs.sink.emit_with(|| {
                TraceEvent::instant("membership.size", "cluster", TID_CLUSTER, now)
                    .arg_u64("node", i as u64)
                    .arg_u64("members", m as u64)
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queued_events_stay_compact() {
        // Every queued event is stored at this size, in the engine's
        // slab or inline in a lane; a frame inline made each one 88 bytes.
        assert!(
            std::mem::size_of::<Ev>() <= 48,
            "Ev is {} bytes",
            std::mem::size_of::<Ev>()
        );
    }

    #[test]
    fn frames_are_parked_until_their_event_is_handled() {
        let mut sim = ClusterSim::new(ClusterConfig::small(PressVersion::Tcp), 3);
        sim.run_until(SimTime::from_secs(2));
        // Step until a frame is in flight (they spend microseconds on
        // the wire).
        let mut steps = 0;
        while sim.frames.is_empty() {
            steps += 1;
            assert!(steps < 100_000, "no frame ever in flight");
            sim.run_until(sim.now() + SimDuration::from_micros(1));
        }
        // Power every node off: nothing new leaves a dead NIC, and the
        // frames already in flight reach dead destinations, which must
        // still take them back out of the slab.
        for i in 0..sim.config().press.nodes {
            sim.fabric_mut().set_node_up(NodeId(i), false);
        }
        sim.run_until(SimTime::from_secs(3));
        assert_eq!(sim.frames.len(), 0);
    }

    #[test]
    fn fault_free_small_cluster_serves_requests() {
        let config = ClusterConfig::small(PressVersion::Via5);
        let mut sim = ClusterSim::new(config, 1);
        sim.run_until(SimTime::from_secs(10));
        let report = sim.report();
        assert!(report.availability.attempts > 5_000);
        assert!(
            report.availability.availability() > 0.999,
            "availability {} with {} failures",
            report.availability.availability(),
            report.availability.failures()
        );
        assert!(report.fully_recovered(4));
        // Throughput tracks the offered (sub-saturation) load.
        let mean = sim.mean_throughput(2.0, 10.0);
        assert!((mean - 900.0).abs() < 90.0, "mean throughput {mean}");
    }

    #[test]
    fn all_versions_boot_and_serve() {
        for version in PressVersion::ALL {
            let config = ClusterConfig::small(version);
            let mut sim = ClusterSim::new(config, 2);
            sim.run_until(SimTime::from_secs(5));
            let report = sim.report();
            assert!(
                report.availability.availability() > 0.99,
                "{version}: availability {}",
                report.availability.availability()
            );
        }
    }

    #[test]
    fn deterministic_given_a_seed() {
        let run = |seed| {
            let mut sim = ClusterSim::new(ClusterConfig::small(PressVersion::Tcp), seed);
            sim.run_until(SimTime::from_secs(5));
            let r = sim.report();
            (r.availability.clone(), r.throughput.points)
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).1, run(8).1);
    }

    #[test]
    fn superseded_timers_are_cancelled_before_dispatch() {
        // Steady TCP traffic constantly re-arms per-connection
        // retransmit timers with fresh gens; the pending-timer index
        // must cancel the superseded ones out of the engine rather
        // than letting them transit the heap as no-ops.
        let mut sim = ClusterSim::new(ClusterConfig::small(PressVersion::Tcp), 1);
        sim.run_until(SimTime::from_secs(5));
        let suppressed = sim.timers_stale_suppressed();
        assert!(suppressed > 0, "no superseded timers were cancelled");
        let reg = sim.metrics_snapshot();
        assert_eq!(reg.counter("transport.timers_stale_suppressed"), suppressed);
    }

    #[test]
    fn via_runs_without_a_timer_index() {
        // VIA gens are not monotone per connection (Vi replacement
        // resets them), so the index is TCP-only and VIA must simply
        // never count a suppression.
        let mut sim = ClusterSim::new(ClusterConfig::small(PressVersion::Via5), 1);
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(sim.timers_stale_suppressed(), 0);
    }

    /// Runs the small TCP scenario stepped in `chunk_ms` increments and
    /// returns everything a report compares on. Used to prove the event
    /// loop delivers identical results regardless of how callers batch
    /// `run_until` (the `--jobs N` worker threads each step their own
    /// sims like this).
    fn chunked_run(chunk_ms: u64) -> (AvailabilityCounter, Vec<(f64, f64)>, Vec<usize>, u64) {
        let mut sim = ClusterSim::new(ClusterConfig::small(PressVersion::Tcp), 7);
        let end = SimTime::from_secs(5);
        let mut t = SimTime::ZERO;
        while t < end {
            t = (t + SimDuration::from_millis(chunk_ms)).min(end);
            sim.run_until(t);
        }
        let r = sim.report();
        (
            r.availability.clone(),
            r.throughput.points,
            r.final_members,
            sim.timers_stale_suppressed(),
        )
    }

    /// Attribution must conserve against the pool: every scored loss is
    /// classified exactly once.
    #[test]
    fn attribution_conserves() {
        for version in [PressVersion::Tcp, PressVersion::Via5] {
            use mendosus::FaultSpec;
            let mut config = ClusterConfig::small(version);
            config.attribution = true;
            let campaign = Campaign::single(FaultSpec::transient(
                FaultKind::NodeCrash,
                NodeId(1),
                SimTime::from_secs(2),
                SimDuration::from_secs(2),
            ));
            let mut sim = ClusterSim::with_campaign(config, campaign, 23);
            sim.run_until(SimTime::from_secs(8));
            let report = sim.report();
            let attr = sim.take_attr().expect("attribution was enabled");
            let totals = telemetry::RunTotals {
                attempts: report.availability.attempts,
                successes: report.availability.successes,
                failures: report.availability.failures(),
                duration_s: 8.0,
            };
            assert!(
                totals.failures > 0,
                "{version}: the crash must cost requests"
            );
            let (ok, detail) = attr.conservation(&totals);
            assert!(ok, "{version}: conservation failed: {detail}");
            // The crash window must show up as attributed fault kills.
            assert!(
                attr.counts[telemetry::RootCause::FaultKill as usize] > 0,
                "{version}: no fault-kill attributions across a node crash: {:?}",
                attr.counts
            );
        }
    }

    #[test]
    #[should_panic(expected = "sim_threads must be 1")]
    fn configs_asking_for_more_sim_threads_are_rejected() {
        let mut config = ClusterConfig::small(PressVersion::Tcp);
        config.sim_threads = 2;
        let _ = ClusterSim::new(config, 1);
    }

    fn with_fault(spec: mendosus::FaultSpec) -> ClusterSim {
        let config = ClusterConfig::small(PressVersion::Tcp);
        ClusterSim::with_campaign(config, Campaign::single(spec), 1)
    }

    #[test]
    #[should_panic(expected = "Link fault on node 4 of a 4-node cluster")]
    fn faults_on_a_missing_node_are_rejected() {
        let at = SimTime::from_secs(1);
        let spec = mendosus::FaultSpec::permanent(FaultKind::LinkDown, NodeId(4), at);
        with_fault(spec);
    }

    #[test]
    #[should_panic(expected = "Partial partition (gray) on node 7 of a 4-node cluster")]
    fn partitions_with_a_missing_peer_are_rejected() {
        let (at, d) = (SimTime::from_secs(1), SimDuration::from_secs(1));
        let spec = mendosus::FaultSpec::partial_partition(NodeId(1), NodeId(7), at, d);
        with_fault(spec);
    }

    #[test]
    fn switch_faults_name_no_node() {
        let at = SimTime::from_secs(1);
        let spec = mendosus::FaultSpec::permanent(FaultKind::SwitchDown, NodeId(9), at);
        with_fault(spec).run_until(SimTime::from_secs(2));
    }

    /// With attribution off nothing is recorded and the run results are
    /// byte-identical to a run that never heard of attribution.
    #[test]
    fn attribution_off_changes_nothing() {
        let run = |attribution: bool| {
            let mut config = ClusterConfig::small(PressVersion::Tcp);
            config.attribution = attribution;
            let mut sim = ClusterSim::new(config, 7);
            sim.run_until(SimTime::from_secs(5));
            (sim.report().throughput.points, sim.take_attr().is_some())
        };
        let (off, had_off) = run(false);
        let (on, had_on) = run(true);
        assert!(!had_off && had_on);
        assert_eq!(off, on, "attribution perturbed the simulation");
    }

    /// Every request is scored exactly once, by the pool and by
    /// attribution, under every fault class and version. The faults
    /// outlast the 6 s request timeout and the horizon sees them end, so
    /// requests parked by an application hang time out before the thaw
    /// hands them to PRESS.
    #[test]
    fn every_fault_class_scores_each_request_once() {
        use mendosus::FaultSpec;
        let (at, long, node) = (SimTime::from_secs(2), SimDuration::from_secs(8), NodeId(1));
        for version in PressVersion::ALL {
            for kind in FaultKind::ALL.into_iter().chain(FaultKind::GRAY) {
                let spec = match kind {
                    FaultKind::PartialPartition => {
                        FaultSpec::partial_partition(node, NodeId(2), at, long)
                    }
                    k if k.is_one_shot() => {
                        FaultSpec::bad_param(k, node, at, transport::MsgClass::FileData, 20)
                    }
                    k => FaultSpec::transient(k, node, at, long),
                };
                let mut config = ClusterConfig::small(version);
                config.attribution = true;
                let mut sim = ClusterSim::with_campaign(config, Campaign::single(spec), 11);
                sim.run_until(SimTime::from_secs(13));
                let (c, outstanding) =
                    (sim.requests.pool.counter(), sim.requests.pool.outstanding());
                let scored = c.successes + c.failures() + outstanding as u64;
                assert_eq!(scored, c.attempts, "{version} {kind}: scored != attempts");
                let totals = telemetry::RunTotals {
                    attempts: c.attempts,
                    successes: c.successes,
                    failures: c.failures(),
                    duration_s: 13.0,
                };
                let attr = sim.take_attr().expect("attribution was enabled");
                let (ok, detail) = attr.conservation(&totals);
                assert!(ok, "{version} {kind}: attribution: {detail}");
            }
        }
    }

    /// A hung application's kernel holds at most the listen backlog;
    /// later arrivals fail to connect, and the thaw hands PRESS only
    /// the backlog.
    #[test]
    fn a_hung_application_parks_at_most_the_listen_backlog() {
        use mendosus::FaultSpec;
        let node = NodeId(1);
        let spec = FaultSpec::transient(
            FaultKind::AppHang,
            node,
            SimTime::from_secs(2),
            SimDuration::from_secs(8),
        );
        let mut sim = ClusterSim::with_campaign(
            ClusterConfig::small(PressVersion::Tcp),
            Campaign::single(spec),
            11,
        );
        sim.run_until(SimTime::from_secs(2));
        let failed_before = sim.requests.pool.counter().connect_timeouts;
        sim.run_until(SimTime::from_secs(9));
        let slot = &sim.nodes[node.0];
        let parked = slot
            .freezer
            .iter()
            .filter(|w| matches!(w, Work::Parked(_)))
            .count();
        assert_eq!((slot.parked, parked), (LISTEN_BACKLOG, LISTEN_BACKLOG));
        // The node's share of 7 s of arrivals, less the backlog.
        let failed = sim.requests.pool.counter().connect_timeouts - failed_before;
        assert!(failed > 1_000, "only {failed} connects failed");
        sim.run_until(SimTime::from_secs(11));
        assert_eq!(sim.nodes[node.0].parked, 0);
        assert!(sim.nodes[node.0].freezer.is_empty());
    }

    #[test]
    fn report_identical_across_batching_and_jobs() {
        let whole = chunked_run(5_000);
        // Odd chunk sizes land run_until deadlines mid-burst.
        assert_eq!(whole, chunked_run(137));
        assert_eq!(whole, chunked_run(1_000));
        // Same seed on worker threads (the `--jobs N` path) must agree
        // with the in-process run bit for bit.
        let handles: Vec<_> = (0..2)
            .map(|_| std::thread::spawn(|| chunked_run(5_000)))
            .collect();
        for h in handles {
            assert_eq!(whole, h.join().expect("worker run panicked"));
        }
    }
}
