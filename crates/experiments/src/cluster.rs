//! The live simulated cluster: PRESS on TCP or VIA over the cLAN
//! fabric, driven by Poisson clients, with Mendosus faults applied in
//! real time.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

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
use transport::{
    Effect, Effects, Substrate, SubstrateImpl, TcpConfig, TcpStack, TimerKey, TimerKind, Upcall,
    ViaConfig, ViaNic, WirePayload,
};
use workload::{ClientConfig, ClientEvent, ClientPool};

#[path = "par.rs"]
mod par;

/// Default for [`ClusterConfig::sim_threads`], settable once from the
/// command line (`repro --sim-threads N`) so every constructor picks it
/// up without threading a parameter through the experiment layers.
static DEFAULT_SIM_THREADS: AtomicUsize = AtomicUsize::new(1);

/// Sets the process-wide default for [`ClusterConfig::sim_threads`].
pub fn set_default_sim_threads(n: usize) {
    DEFAULT_SIM_THREADS.store(n.max(1), Ordering::Relaxed);
}

/// The process-wide default for [`ClusterConfig::sim_threads`].
pub fn default_sim_threads() -> usize {
    DEFAULT_SIM_THREADS.load(Ordering::Relaxed)
}

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
    /// Worker threads for one simulation (conservative-parallel DES).
    /// `1` runs the plain sequential loop; `N > 1` shards the nodes
    /// across `N` scoped workers advancing in fabric-lookahead windows,
    /// byte-identical to sequential (see the `par` module).
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
            sim_threads: default_sim_threads(),
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
    Client(Request),
    AppEv(AppEvent),
    Upcall(Upcall<PressMsg>),
    FrameIn(Frame<WirePayload<PressMsg>>),
    Timer(TimerKey),
    TransmitFailed(NodeId, LossReason),
    Start { cold: bool },
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

/// Reference counts of active faults per affected component.
///
/// Single-fault campaigns flip state directly; overlapping campaigns
/// cannot — two concurrent `LinkDown`s on the same node must keep the
/// link down until *both* recover. Every condition fault increments its
/// counter on inject and decrements on recover, and the underlying
/// state (fabric flags, substrate error modes, process freeze) changes
/// only on 0→1 and →0 edges. Non-overlapping campaigns take exactly the
/// same edge transitions as the old direct flips, so all existing
/// goldens are unchanged.
#[derive(Debug, Clone, Default)]
struct NodeFaultCounts {
    link_down: u32,
    crash: u32,
    hang: u32,
    alloc_fail: u32,
    pin_fail: u32,
    app_hang: u32,
    degraded: u32,
    throttle: u32,
}

#[derive(Debug, Default)]
struct FaultLedger {
    nodes: Vec<NodeFaultCounts>,
    switch_down: u32,
    /// Active partial partitions per normalized `(lo, hi)` node pair.
    partitions: BTreeMap<(usize, usize), u32>,
}

impl FaultLedger {
    fn new(nodes: usize) -> Self {
        FaultLedger {
            nodes: vec![NodeFaultCounts::default(); nodes],
            switch_down: 0,
            partitions: BTreeMap::new(),
        }
    }

    /// Bumps `count` up or down and reports whether the component's
    /// state changed (0→1 on inject, →0 on recover). Recovering a
    /// never-injected fault is a campaign bug and panics.
    fn edge(count: &mut u32, inject: bool) -> bool {
        if inject {
            *count += 1;
            *count == 1
        } else {
            assert!(*count > 0, "recovering a fault that was never injected");
            *count -= 1;
            *count == 0
        }
    }
}

/// Reusable pool of [`Effects`] buffers, so transport/app calls fill
/// recycled capacity instead of allocating a fresh `Vec` per work item.
#[derive(Default)]
struct FxPool {
    bufs: Vec<Effects<PressMsg>>,
}

impl FxPool {
    fn take(&mut self) -> Effects<PressMsg> {
        self.bufs.pop().unwrap_or_default()
    }

    fn put(&mut self, mut buf: Effects<PressMsg>) {
        buf.clear();
        self.bufs.push(buf);
    }
}

/// Cancellation bookkeeping for one TCP connection's timers.
///
/// TCP bumps the shared per-connection `gen` on every `arm_timer` and
/// `timer_fired` demands an exact match, so *any* pending timer whose
/// gen is older than the newest `SetTimer` gen seen for the connection
/// is a guaranteed no-op — it can be cancelled out of the engine instead
/// of transiting the heap just to be discarded. VIA's gens reset when a
/// Vi is replaced (not monotone), so the index is only maintained for
/// TCP versions; VIA only arms rare connection-setup timers anyway.
#[derive(Clone, Default)]
struct ConnTimers {
    /// Gen of the newest `SetTimer` seen for this connection.
    latest_gen: u64,
    /// Per-kind pending timer: `(gen, engine token, fire time)`. The
    /// fire time is carried for the parallel driver, which must know
    /// whether a superseded timer is still engine-resident or already
    /// drained into the current window.
    pending: [Option<(u64, CancelToken, SimTime)>; TimerKind::COUNT],
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
    clients: ClientPool,
    actions: Vec<FaultAction>,
    /// Active-fault reference counts (overlapping campaigns).
    ledger: FaultLedger,
    membership_log: Vec<(SimTime, NodeId, usize)>,
    process_log: Vec<(SimTime, NodeId, ProcEvent)>,
    last_members: Vec<usize>,
    sink: telemetry::TraceSink,
    /// Root-cause attribution accumulator (`None` when disabled). All
    /// records flow through the facade in `(time, seq)` order, so the
    /// result is byte-identical across `--jobs` and `--sim-threads`.
    attr: Option<Box<telemetry::AttrState>>,
    /// Sampled in-flight requests: id → (issue time, target node).
    traced_requests: std::collections::BTreeMap<u64, (SimTime, usize)>,
    /// Work queue reused across events (allocation-free steady state).
    work: VecDeque<(usize, Work)>,
    /// Pool of `Effects` buffers reused across work items.
    fx_pool: FxPool,
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
    pub fn with_campaign(config: ClusterConfig, campaign: Campaign, seed: u64) -> Self {
        let mut config = config;
        // The epidemic detector derives each node's probe-order stream
        // from the run seed and its node id (no draw from the main rng,
        // so Ring runs are bit-identical with or without this field).
        config.press.gossip.seed = seed;
        let mut rng = SimRng::seed_from(seed);
        let n = config.press.nodes;
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
                SubstrateImpl::Via(ViaNic::new(id, config.via.clone(), config.version.cost_model()))
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
            });
        }
        // Arm the campaign. Replaying a malformed campaign would
        // corrupt the ledger's reference counts, so reject it up front.
        if let Err(err) = campaign.validate() {
            panic!("invalid fault campaign: {err}");
        }
        let actions = campaign.actions();
        for (i, a) in actions.iter().enumerate() {
            engine.schedule_at(a.at, Ev::Fault(i));
        }
        // First client arrival.
        let first = clients.first_arrival(SimTime::ZERO);
        engine.schedule_at(first, Ev::Client(ClientEvent::Arrival));

        let sink = telemetry::TraceSink::new(config.trace);
        if sink.enabled() {
            for slot in &mut nodes {
                slot.sub.set_trace(true);
                slot.press.set_trace(true);
            }
        }
        let attr = config
            .attribution
            .then(|| Box::new(telemetry::AttrState::new(n)));
        if attr.is_some() {
            for slot in &mut nodes {
                slot.sub.set_attr(true);
                slot.press.set_attr(true);
            }
        }
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
            clients,
            actions,
            ledger: FaultLedger::new(n),
            membership_log: Vec::new(),
            process_log: Vec::new(),
            sink,
            attr,
            traced_requests: std::collections::BTreeMap::new(),
            work: VecDeque::new(),
            fx_pool: FxPool::default(),
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
        for i in 0..n {
            let slot = &mut self.nodes[i];
            let mut fx = self.fx_pool.take();
            let mut app = std::mem::take(&mut self.app_scratch);
            let mut ctx = NodeCtx {
                now,
                cpu: &mut slot.cpu,
                sub: &mut slot.sub,
                interposer: &mut slot.mangler,
                fx: &mut fx,
                app: &mut app,
            };
            slot.press.prewarm(&mut ctx, &assignment);
            // Prewarm is setup, not simulation: discard the effects (the
            // CPU cost of loading caches happened "before" the run).
            self.fx_pool.put(fx);
            app.clear();
            self.app_scratch = app;
        }
    }

    /// Runs the simulation until `deadline`.
    ///
    /// Events are pulled in same-instant bursts
    /// ([`Engine::pop_batch_before`]) rather than one `pop_before` call
    /// per event; events an in-burst handler schedules for the current
    /// instant land in the *next* burst, which is exactly where the
    /// per-event loop would have delivered them (they carry later seqs),
    /// so dispatch order — and therefore every report — is unchanged.
    pub fn run_until(&mut self, deadline: SimTime) {
        let threads = self.config.sim_threads.min(self.config.press.nodes).max(1);
        if threads > 1 {
            if self.config.fabric.lookahead() > SimDuration::ZERO {
                par::run_until_parallel(self, deadline, threads);
                return;
            }
            par::warn_zero_lookahead();
        }
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
        ClusterReport {
            throughput: self.clients.throughput(end),
            availability: self.clients.counter().clone(),
            latency: self.clients.latency().clone(),
            latency_timeline: self.clients.latency_timeline(end),
            membership_log: self.membership_log.clone(),
            process_log: self.process_log.clone(),
            final_members: self.nodes.iter().map(|s| s.press.members().len()).collect(),
            all_running: self.nodes.iter().all(|s| s.running),
        }
    }

    /// Mean successful throughput over `[t0, t1)` seconds.
    pub fn mean_throughput(&self, t0: f64, t1: f64) -> f64 {
        self.clients.mean_throughput(self.engine.now(), t0, t1)
    }

    /// Whether structured tracing is live for this run.
    pub fn trace_enabled(&self) -> bool {
        self.sink.enabled()
    }

    /// Superseded transport timers cancelled out of the engine before
    /// they were ever dispatched (also exported as the
    /// `transport.timers_stale_suppressed` metric).
    pub fn timers_stale_suppressed(&self) -> u64 {
        self.timers_suppressed
    }

    /// Drains the buffered trace events (empty when tracing is off).
    pub fn take_trace(&mut self) -> Vec<telemetry::TraceEvent> {
        self.sink.take()
    }

    /// Whether root-cause attribution is live for this run.
    pub fn attribution_enabled(&self) -> bool {
        self.attr.is_some()
    }

    /// Takes the attribution accumulator frozen into its report
    /// (`None` when attribution is off or already taken).
    pub fn take_attr(&mut self) -> Option<telemetry::AttrReport> {
        self.attr.take().map(|a| a.finish())
    }

    /// Records one attribution event (no-op when attribution is off).
    #[inline]
    fn record_attr(&mut self, now: SimTime, node: usize, ev: telemetry::AttrEvent) {
        if let Some(a) = &mut self.attr {
            a.record(now, node, ev);
        }
    }

    /// Snapshots every layer's counters and gauges into one registry:
    /// transport stats, PRESS behaviour counters, per-node CPU busy
    /// fractions, client outcome tallies and the current splinter count
    /// (distinct membership views among running nodes).
    pub fn metrics_snapshot(&self) -> telemetry::MetricsRegistry {
        /// Pre-rendered per-node gauge keys: snapshots are taken inside
        /// timed runs, so they must not allocate a label per node.
        static CPU_LABELS: [&str; 16] = [
            "cpu.busy_fraction.node0",
            "cpu.busy_fraction.node1",
            "cpu.busy_fraction.node2",
            "cpu.busy_fraction.node3",
            "cpu.busy_fraction.node4",
            "cpu.busy_fraction.node5",
            "cpu.busy_fraction.node6",
            "cpu.busy_fraction.node7",
            "cpu.busy_fraction.node8",
            "cpu.busy_fraction.node9",
            "cpu.busy_fraction.node10",
            "cpu.busy_fraction.node11",
            "cpu.busy_fraction.node12",
            "cpu.busy_fraction.node13",
            "cpu.busy_fraction.node14",
            "cpu.busy_fraction.node15",
        ];
        let mut reg = telemetry::MetricsRegistry::new();
        let now = self.engine.now();
        for (i, slot) in self.nodes.iter().enumerate() {
            slot.sub.export_metrics(&mut reg);
            let busy = slot.cpu.utilization(now);
            match CPU_LABELS.get(i) {
                Some(label) => reg.gauge_set(label, busy),
                None => reg.gauge_set(&format!("cpu.busy_fraction.node{i}"), busy),
            }
            let s = slot.press.stats();
            reg.counter_add("press.served_local", s.served_local);
            reg.counter_add("press.served_remote", s.served_remote);
            reg.counter_add("press.served_disk", s.served_disk);
            reg.counter_add("press.dropped_admission", s.dropped_admission);
            reg.counter_add("press.dropped_deferred", s.dropped_deferred);
            reg.counter_add("press.efault_drops", s.efault_drops);
            reg.counter_add("press.forward_timeouts", s.forward_timeouts);
            reg.counter_add("press.pin_cache_skips", s.pin_cache_skips);
            reg.counter_add("press.exclusions", s.exclusions);
            reg.counter_add("press.rejoined", s.rejoined);
            reg.counter_add("press.merges", s.merges);
            // Epidemic-detector fan-out counters exist only when the
            // Gossip detector runs, so Ring snapshots (and their golden
            // files) are untouched by the membership subsystem.
            if let Some(g) = slot.press.swim_stats() {
                reg.counter_add("press.gossip.pings", g.pings);
                reg.counter_add("press.gossip.acks", g.acks);
                reg.counter_add("press.gossip.ping_reqs", g.ping_reqs);
                reg.counter_add("press.gossip.relays", g.relays);
                reg.counter_add("press.gossip.suspects", g.suspects);
                reg.counter_add("press.gossip.clears", g.clears);
                reg.counter_add("press.gossip.refutations", g.refutations);
                reg.counter_add("press.gossip.confirms", g.confirms);
                reg.counter_add("press.gossip.updates_sent", g.updates_sent);
            }
            // Cache-sync counters are gated the same way: Eager mode now
            // counts its broadcast frames too, so exporting them
            // unconditionally would perturb the pre-digest metrics
            // goldens.
            if self.config.press.cache_sync == press::CacheSyncImpl::Digest {
                reg.counter_add("press.cache.sync_frames", s.cache_sync_frames);
                reg.counter_add("press.cache.digest_flushes", s.digest_flushes);
                reg.counter_add("press.cache.digest_deltas", s.digest_deltas);
                reg.counter_add("press.cache.digest_retries", s.digest_retries);
            }
        }
        reg.counter_add(
            "transport.timers_stale_suppressed",
            self.timers_suppressed,
        );
        self.clients.export_metrics(&mut reg);
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
                    // Mirror the pool exactly: a late reply does not
                    // score, so it must not close the causal record
                    // either (the pending deadline will classify it).
                    if self.clients.complete(now, req_id) {
                        self.record_attr(now, node, telemetry::AttrEvent::Completed { req_id });
                    }
                    if let Some((issued, target)) = self.traced_requests.remove(&req_id) {
                        self.sink.emit(
                            telemetry::TraceEvent::span(
                                "request",
                                "client",
                                target as u32,
                                issued,
                                now.saturating_since(issued),
                            )
                            .arg_u64("req_id", req_id),
                        );
                    }
                }
            }
            Ev::Client(ClientEvent::Arrival) => {
                let (req, target, next) = self.clients.arrive(now);
                self.engine.schedule_at(next, Ev::Client(ClientEvent::Arrival));
                let sample = self.config.trace.request_sample;
                let traced = self.sink.enabled() && sample != 0 && req.id % sample == 0;
                let slot = &self.nodes[target.0];
                if !self.fabric.node_up(target) || slot.frozen {
                    // Machine unresponsive: SYN goes nowhere.
                    self.clients.connect_failed();
                    self.record_attr(now, target.0, telemetry::AttrEvent::ConnFailed);
                    if traced {
                        self.sink.emit(
                            telemetry::TraceEvent::instant(
                                "request.conn_failed",
                                "client",
                                telemetry::TID_CLIENTS,
                                now,
                            )
                            .arg_u64("req_id", req.id)
                            .arg_u64("node", target.0 as u64),
                        );
                    }
                } else if !slot.running {
                    // Machine up, process dead: refused immediately.
                    self.clients.refused();
                    self.record_attr(now, target.0, telemetry::AttrEvent::Refused);
                    if traced {
                        self.sink.emit(
                            telemetry::TraceEvent::instant(
                                "request.refused",
                                "client",
                                telemetry::TID_CLIENTS,
                                now,
                            )
                            .arg_u64("req_id", req.id)
                            .arg_u64("node", target.0 as u64),
                        );
                    }
                } else if slot.hung {
                    // The kernel accepts; the application never reads.
                    if traced {
                        self.traced_requests.insert(req.id, (now, target.0));
                    }
                    let deadline = self.clients.accepted(now, req.id);
                    self.record_attr(now, target.0, telemetry::AttrEvent::Accepted { req_id: req.id });
                    self.schedule_deadline(deadline, req.id);
                    self.nodes[target.0].freezer.push(Work::Client(req));
                } else {
                    if traced {
                        self.traced_requests.insert(req.id, (now, target.0));
                    }
                    self.work.push_back((target.0, Work::Client(req)));
                }
            }
            Ev::Client(ClientEvent::Deadline(id)) => {
                self.clients.deadline(id);
                self.record_attr(now, 0, telemetry::AttrEvent::DeadlineMiss { req_id: id });
                if let Some((issued, target)) = self.traced_requests.remove(&id) {
                    self.sink.emit(
                        telemetry::TraceEvent::instant(
                            "request.timeout",
                            "client",
                            target as u32,
                            now,
                        )
                        .arg_u64("req_id", id)
                        .arg_u64("waited_us", now.saturating_since(issued).as_nanos() / 1_000),
                    );
                }
            }
            Ev::ProcessRestart { node, gen } => {
                let slot = &mut self.nodes[node];
                // A frozen machine cannot boot a process; the hang
                // recovery reschedules the restart when it thaws.
                if slot.gen == gen && !slot.running && !slot.frozen {
                    slot.running = true;
                    self.process_log.push((now, NodeId(node), ProcEvent::Restart));
                    self.record_attr(now, node, telemetry::AttrEvent::FaultEnd);
                    self.sink.emit_with(|| {
                        telemetry::TraceEvent::instant(
                            "process.restart",
                            "proc",
                            node as u32,
                            now,
                        )
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

    /// Queues a client deadline. Deadlines are always
    /// `now + request_timeout`, so they ride the timeout lane.
    fn schedule_deadline(&mut self, deadline: SimTime, req_id: u64) {
        let ev = Ev::Client(ClientEvent::Deadline(req_id));
        self.engine.schedule_lane(self.timeout_lane, deadline, ev);
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
            if let Some((g, token, _)) = *slot {
                if g < entry.latest_gen {
                    *slot = None;
                    if self.engine.cancel(token) {
                        self.timers_suppressed += 1;
                    }
                }
            }
        }
        let token = self.engine.schedule_cancellable(at, Ev::Timer(key));
        entry.pending[key.kind.idx()] = Some((key.gen, token, at));
    }

    fn apply_fault(&mut self, now: SimTime, action: &FaultAction) {
        let spec = &action.spec;
        let node = spec.node;
        let inject = action.phase == FaultPhase::Inject;
        if self.sink.enabled() {
            if inject {
                self.sink.emit(
                    telemetry::TraceEvent::instant(
                        "fault.inject",
                        "fault",
                        telemetry::TID_CLUSTER,
                        now,
                    )
                    .arg_str("kind", spec.kind.to_string())
                    .arg_u64("node", node.0 as u64),
                );
            } else {
                // One span covering the fault's whole active window,
                // plus the recovery instant.
                self.sink.emit(
                    telemetry::TraceEvent::span(
                        "fault.active",
                        "fault",
                        telemetry::TID_CLUSTER,
                        spec.at,
                        now.saturating_since(spec.at),
                    )
                    .arg_str("kind", spec.kind.to_string())
                    .arg_u64("node", node.0 as u64),
                );
                self.sink.emit(
                    telemetry::TraceEvent::instant(
                        "fault.recover",
                        "fault",
                        telemetry::TID_CLUSTER,
                        now,
                    )
                    .arg_str("kind", spec.kind.to_string())
                    .arg_u64("node", node.0 as u64),
                );
            }
        }
        // Condition faults go through the ledger: state changes only on
        // 0→1 / →0 count edges, so overlapping faults on the same
        // component compose instead of clobbering each other.
        match spec.kind {
            FaultKind::LinkDown => {
                if FaultLedger::edge(&mut self.ledger.nodes[node.0].link_down, inject) {
                    self.fabric.set_link_up(node, !inject);
                }
            }
            FaultKind::SwitchDown => {
                if FaultLedger::edge(&mut self.ledger.switch_down, inject) {
                    self.fabric.set_switch_up(!inject);
                }
            }
            FaultKind::NodeCrash => {
                let counts = &mut self.ledger.nodes[node.0];
                if inject {
                    if FaultLedger::edge(&mut counts.crash, true) {
                        self.fabric.set_node_up(node, false);
                        self.kill_process(now, node.0, None);
                    }
                } else if FaultLedger::edge(&mut counts.crash, false) {
                    // Machine back up (unless a concurrent hang still
                    // holds it frozen); Mendosus restarts PRESS after
                    // the boot completes.
                    if counts.hang == 0 {
                        self.fabric.set_node_up(node, true);
                    }
                    let gen = self.nodes[node.0].gen;
                    self.engine.schedule_at(
                        now + self.config.restart_delay,
                        Ev::ProcessRestart { node: node.0, gen },
                    );
                }
            }
            FaultKind::NodeHang => {
                let counts = &mut self.ledger.nodes[node.0];
                if inject {
                    if FaultLedger::edge(&mut counts.hang, true) {
                        self.fabric.set_node_up(node, false);
                        self.nodes[node.0].frozen = true;
                        self.record_attr(now, node.0, telemetry::AttrEvent::FaultBegin);
                    }
                } else if FaultLedger::edge(&mut counts.hang, false) {
                    let crashed = counts.crash > 0;
                    if !crashed {
                        self.fabric.set_node_up(node, true);
                    }
                    self.record_attr(now, node.0, telemetry::AttrEvent::FaultEnd);
                    let slot = &mut self.nodes[node.0];
                    slot.frozen = false;
                    let frozen_work = std::mem::take(&mut slot.freezer);
                    for w in frozen_work {
                        self.work.push_back((node.0, w));
                    }
                    // A crash recovery that fired while the machine was
                    // frozen could not boot the process (see
                    // Ev::ProcessRestart); resume the boot now.
                    let slot = &self.nodes[node.0];
                    if !crashed && !slot.running {
                        let gen = slot.gen;
                        self.engine.schedule_at(
                            now + self.config.restart_delay,
                            Ev::ProcessRestart { node: node.0, gen },
                        );
                    }
                }
            }
            FaultKind::KernelAllocFail => {
                if FaultLedger::edge(&mut self.ledger.nodes[node.0].alloc_fail, inject) {
                    self.nodes[node.0].sub.set_alloc_fail(inject);
                }
            }
            FaultKind::MemPinFail => {
                if FaultLedger::edge(&mut self.ledger.nodes[node.0].pin_fail, inject) {
                    self.nodes[node.0].sub.set_pin_fail(inject);
                }
            }
            FaultKind::AppHang => {
                if FaultLedger::edge(&mut self.ledger.nodes[node.0].app_hang, inject) {
                    if inject {
                        self.nodes[node.0].hung = true;
                        self.record_attr(now, node.0, telemetry::AttrEvent::FaultBegin);
                        self.work.push_back((node.0, Work::SetHung(true)));
                    } else {
                        self.nodes[node.0].hung = false;
                        self.record_attr(now, node.0, telemetry::AttrEvent::FaultEnd);
                        self.work.push_back((node.0, Work::SetHung(false)));
                        let frozen_work = std::mem::take(&mut self.nodes[node.0].freezer);
                        for w in frozen_work {
                            self.work.push_back((node.0, w));
                        }
                    }
                }
            }
            FaultKind::AppCrash => {
                if inject {
                    // kill_process is idempotent and each kill schedules
                    // its own gen-checked restart, so overlapping app
                    // crashes need no reference count.
                    self.kill_process(now, node.0, spec.duration);
                } else {
                    // Restart handled by the scheduled ProcessRestart.
                }
            }
            FaultKind::BadParamNull | FaultKind::BadParamOffPtr | FaultKind::BadParamOffSize => {
                if inject {
                    let bad = match spec.kind {
                        FaultKind::BadParamNull => mendosus::BadParam::NullPtr,
                        FaultKind::BadParamOffPtr => mendosus::BadParam::OffByPtr(spec.off_n),
                        _ => mendosus::BadParam::OffBySize(spec.off_n.max(1)),
                    };
                    self.nodes[node.0].mangler.plan(PlannedMangle {
                        at: now,
                        class: spec.class,
                        bad,
                    });
                }
            }
            FaultKind::LinkDegraded => {
                if FaultLedger::edge(&mut self.ledger.nodes[node.0].degraded, inject) {
                    self.fabric.set_link_degraded(node, inject);
                }
            }
            FaultKind::CpuThrottle => {
                if FaultLedger::edge(&mut self.ledger.nodes[node.0].throttle, inject) {
                    self.nodes[node.0]
                        .cpu
                        .set_throttle(if inject { GRAY_THROTTLE_FACTOR } else { 1 });
                }
            }
            FaultKind::PartialPartition => {
                let peer = spec.peer.expect("partition specs always carry a peer");
                let key = (node.0.min(peer.0), node.0.max(peer.0));
                let count = self.ledger.partitions.entry(key).or_insert(0);
                if FaultLedger::edge(count, inject) {
                    self.fabric.set_pair_blocked(node, peer, inject);
                }
                if *count == 0 {
                    self.ledger.partitions.remove(&key);
                }
            }
        }
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
        slot.sub.restart(now);
        self.process_log.push((now, NodeId(node), ProcEvent::Exit));
        if let Some(a) = &mut self.attr {
            a.record(now, node, telemetry::AttrEvent::FaultBegin);
        }
        self.sink
            .emit_with(|| telemetry::TraceEvent::instant("process.exit", "proc", node as u32, now));
        if let Some(delay) = restart_after {
            let gen = slot.gen;
            self.engine
                .schedule_at(now + delay, Ev::ProcessRestart { node, gen });
        }
    }

    // ------------------------------------------------------------------
    // Work processing
    // ------------------------------------------------------------------

    fn drain_work(&mut self, now: SimTime) {
        while let Some((i, w)) = self.work.pop_front() {
            // Reused buffers: zero steady-state allocation per work item.
            let mut fx = self.fx_pool.take();
            let mut app = std::mem::take(&mut self.app_scratch);
            let mut accept: Option<(u64, ClientAccept)> = None;
            {
                let slot = &mut self.nodes[i];
                // Transport-level work reaches the endpoint even when
                // the process is gone (the kernel answers with resets);
                // application work requires a live, unfrozen process.
                let transport_work = matches!(
                    w,
                    Work::FrameIn(_) | Work::Timer(_) | Work::TransmitFailed(..)
                );
                if !transport_work {
                    if !slot.running && !matches!(w, Work::Start { .. }) {
                        self.fx_pool.put(fx);
                        self.app_scratch = app;
                        continue;
                    }
                    if (slot.frozen || slot.hung)
                        && !matches!(w, Work::SetHung(_) | Work::Start { .. })
                    {
                        slot.freezer.push(w);
                        self.fx_pool.put(fx);
                        self.app_scratch = app;
                        continue;
                    }
                }
                let mut ctx = NodeCtx {
                    now,
                    cpu: &mut slot.cpu,
                    sub: &mut slot.sub,
                    interposer: &mut slot.mangler,
                    fx: &mut fx,
                    app: &mut app,
                };
                match w {
                    Work::Client(req) => {
                        let a = slot.press.client_request(&mut ctx, req);
                        accept = Some((req.id, a));
                    }
                    Work::AppEv(ev) => slot.press.on_app_event(&mut ctx, ev),
                    Work::Upcall(u) => {
                        if slot.running && !slot.frozen {
                            if slot.hung {
                                // Ends ctx's borrow of the slot so the
                                // freezer can take the work item.
                                let _ = ctx;
                                slot.freezer.push(Work::Upcall(u));
                            } else {
                                slot.press.on_upcall(&mut ctx, u);
                            }
                        }
                    }
                    Work::FrameIn(frame) => ctx.sub.frame_arrived(now, frame, ctx.fx),
                    Work::Timer(key) => ctx.sub.timer_fired(now, key, ctx.fx),
                    Work::TransmitFailed(peer, reason) => {
                        ctx.sub.transmit_failed(now, peer, reason, ctx.fx)
                    }
                    Work::Start { cold } => {
                        slot.press.start(&mut ctx, cold);
                    }
                    Work::SetHung(h) => {
                        // The transport fills the shared fx buffer
                        // directly; no intermediate Vec.
                        ctx.sub.set_app_receiving(now, !h, ctx.fx);
                    }
                }
            }
            if let Some((req_id, a)) = accept {
                match a {
                    ClientAccept::Accepted => {
                        let deadline = self.clients.accepted(now, req_id);
                        self.record_attr(now, i, telemetry::AttrEvent::Accepted { req_id });
                        self.schedule_deadline(deadline, req_id);
                    }
                    ClientAccept::Dropped(reason) => {
                        self.clients.connect_failed();
                        let ev = match reason {
                            press::DropReason::DeferOverflow => {
                                telemetry::AttrEvent::DroppedOverflow
                            }
                            press::DropReason::Admission => telemetry::AttrEvent::DroppedBacklog,
                        };
                        self.record_attr(now, i, ev);
                    }
                }
            }
            self.apply_effects(now, i, &mut fx, &mut app);
            self.fx_pool.put(fx);
            app.clear();
            self.app_scratch = app;
        }
    }

    fn apply_effects(
        &mut self,
        now: SimTime,
        i: usize,
        fx: &mut Effects<PressMsg>,
        app: &mut Vec<AppEffect>,
    ) {
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
                            self.work.push_back((i, Work::TransmitFailed(frame.dst, reason)));
                        } else {
                            self.record_attr(now, i, telemetry::AttrEvent::GrayLoss);
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
                    self.sink.emit(ev);
                }
                Effect::Attr(ev) => {
                    self.record_attr(now, i, ev);
                }
            }
        }
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
        // Log membership changes for stage-marker extraction.
        let m = self.nodes[i].press.members().len();
        if m != self.last_members[i] {
            self.last_members[i] = m;
            self.membership_log.push((now, NodeId(i), m));
            self.sink.emit_with(|| {
                telemetry::TraceEvent::instant(
                    "membership.size",
                    "cluster",
                    telemetry::TID_CLUSTER,
                    now,
                )
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
        assert!(std::mem::size_of::<Ev>() <= 48, "Ev is {} bytes", std::mem::size_of::<Ev>());
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

    /// Runs the small scenario for `version` with `sim_threads` worker
    /// threads and returns everything a report compares on, plus the
    /// dispatched-event count (the parallel driver must account
    /// events exactly like the sequential loop).
    fn threaded_run(
        version: PressVersion,
        threads: usize,
        seed: u64,
    ) -> (AvailabilityCounter, Vec<(f64, f64)>, Vec<usize>, u64, u64) {
        let mut config = ClusterConfig::small(version);
        config.sim_threads = threads;
        let mut sim = ClusterSim::new(config, seed);
        sim.run_until(SimTime::from_secs(5));
        let r = sim.report();
        (
            r.availability.clone(),
            r.throughput.points,
            r.final_members,
            sim.timers_stale_suppressed(),
            sim.events_dispatched(),
        )
    }

    #[test]
    fn parallel_windows_match_sequential_exactly() {
        for version in [PressVersion::Tcp, PressVersion::Via5] {
            let base = threaded_run(version, 1, 7);
            for threads in [2, 4] {
                let par = threaded_run(version, threads, 7);
                assert_eq!(base, par, "{version} diverged at sim_threads={threads}");
            }
        }
    }

    /// A fault campaign exercises the driver's serialization path:
    /// windows must stop at each fault instant, fold the shards back
    /// together, run the instant sequentially, and re-split — with
    /// the timer index, freezers and fabric ports surviving the round
    /// trip bit for bit.
    fn faulted_run(version: PressVersion, threads: usize) -> (ClusterReport, u64, u64) {
        use mendosus::FaultSpec;
        let mut config = ClusterConfig::small(version);
        config.sim_threads = threads;
        let s = SimDuration::from_secs;
        let campaign = Campaign::new([
            FaultSpec::transient(FaultKind::NodeCrash, NodeId(1), SimTime::from_secs(2), s(2)),
            FaultSpec::transient(FaultKind::AppHang, NodeId(2), SimTime::from_secs(3), s(1)),
            FaultSpec::transient(FaultKind::LinkDown, NodeId(0), SimTime::from_secs(6), s(1)),
            FaultSpec::transient(FaultKind::AppCrash, NodeId(3), SimTime::from_secs(8), s(1)),
            FaultSpec::bad_param(
                FaultKind::BadParamNull,
                NodeId(0),
                SimTime::from_secs(10),
                transport::MsgClass::FileData,
                0,
            ),
        ]);
        let mut sim = ClusterSim::with_campaign(config, campaign, 11);
        sim.run_until(SimTime::from_secs(12));
        let events = sim.events_dispatched();
        (sim.report(), sim.timers_stale_suppressed(), events)
    }

    /// With zero fabric latency there is no lookahead window to
    /// exploit, so `sim_threads > 1` must degrade to the sequential
    /// loop (with a one-time warning) rather than produce zero-width
    /// windows or wrong answers.
    #[test]
    fn zero_lookahead_falls_back_to_sequential() {
        let run = |threads: usize| {
            let mut config = ClusterConfig::small(PressVersion::Tcp);
            config.fabric.link_latency = SimDuration::ZERO;
            config.fabric.switch_latency = SimDuration::ZERO;
            config.sim_threads = threads;
            let mut sim = ClusterSim::new(config, 5);
            sim.run_until(SimTime::from_secs(2));
            (sim.report().throughput.points, sim.events_dispatched())
        };
        assert_eq!(run(1), run(4));
    }

    /// Tracing stresses the replay path hardest: every sampled request
    /// emits ordered instants and spans from both facade-side scoring
    /// and worker-side effects, and the merged stream must interleave
    /// them in exactly the sequential emission order.
    #[test]
    fn parallel_windows_preserve_trace_streams() {
        for version in [PressVersion::Tcp, PressVersion::Via5] {
            let run = |threads: usize| {
                use mendosus::FaultSpec;
                let mut config = ClusterConfig::small(version);
                config.sim_threads = threads;
                config.trace = telemetry::TraceConfig {
                    enabled: true,
                    request_sample: 4,
                };
                let campaign = Campaign::single(FaultSpec::transient(
                    FaultKind::NodeCrash,
                    NodeId(1),
                    SimTime::from_secs(2),
                    SimDuration::from_secs(2),
                ));
                let mut sim = ClusterSim::with_campaign(config, campaign, 23);
                sim.run_until(SimTime::from_secs(6));
                (sim.take_trace(), sim.report().throughput.points)
            };
            let base = run(1);
            for threads in [2, 4] {
                let par = run(threads);
                assert_eq!(base.1, par.1, "{version} throughput @ {threads}");
                assert_eq!(
                    base.0, par.0,
                    "{version} trace stream diverged at sim_threads={threads}"
                );
            }
        }
    }

    #[test]
    fn parallel_windows_survive_fault_campaigns() {
        for version in [PressVersion::Tcp, PressVersion::Via5] {
            let (base, base_sup, base_ev) = faulted_run(version, 1);
            for threads in [2, 4] {
                let (par, sup, ev) = faulted_run(version, threads);
                assert_eq!(base.throughput.points, par.throughput.points, "{version}");
                assert_eq!(base.availability, par.availability, "{version}");
                assert_eq!(base.membership_log, par.membership_log, "{version}");
                assert_eq!(base.process_log, par.process_log, "{version}");
                assert_eq!(base.final_members, par.final_members, "{version}");
                assert_eq!(base.all_running, par.all_running, "{version}");
                assert_eq!(base_sup, sup, "{version} suppressed-timer count");
                assert_eq!(base_ev, ev, "{version} dispatched-event count");
            }
        }
    }

    /// Attribution must conserve against the pool (every scored loss
    /// classified exactly once) and be byte-identical across thread
    /// counts — the records flow through the same replayed channel as
    /// traces, so this exercises the whole evidence pipeline.
    #[test]
    fn attribution_conserves_and_is_thread_invariant() {
        for version in [PressVersion::Tcp, PressVersion::Via5] {
            let run = |threads: usize| {
                use mendosus::FaultSpec;
                let mut config = ClusterConfig::small(version);
                config.sim_threads = threads;
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
                (attr, report)
            };
            let (base, report) = run(1);
            let totals = telemetry::RunTotals {
                attempts: report.availability.attempts,
                successes: report.availability.successes,
                failures: report.availability.failures(),
                duration_s: 8.0,
            };
            assert!(totals.failures > 0, "{version}: the crash must cost requests");
            let (ok, detail) = base.conservation(&totals);
            assert!(ok, "{version}: conservation failed: {detail}");
            // The crash window must show up as attributed fault kills.
            assert!(
                base.counts[telemetry::RootCause::FaultKill as usize] > 0,
                "{version}: no fault-kill attributions across a node crash: {:?}",
                base.counts
            );
            for threads in [2, 4] {
                let (par, _) = run(threads);
                assert_eq!(base, par, "{version} attribution diverged at sim_threads={threads}");
            }
        }
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

