//! Conservative-parallel window driver for [`ClusterSim`].
//!
//! The sequential loop in `cluster.rs` pops one global `(time, seq)`
//! ordered engine. This module keeps that engine as the *ordering
//! skeleton* but fans the expensive per-node work (PRESS, transport,
//! CPU accounting, fault mangling) out to shard workers in bounded
//! time windows, then replays the workers' buffered global effects
//! sequentially in exact `(time, seq)` order. The result is
//! byte-identical to the sequential run for every seed, shard count
//! and thread count — not approximately, but by construction, and the
//! replay *verifies* the construction at runtime.
//!
//! # Why the window bound is safe
//!
//! The only cross-node interaction is a fabric frame. A frame sent at
//! time `t` is delivered no earlier than
//! `t + wire_time (>= 1ns) + link + switch + link`, i.e. strictly
//! later than `t + lookahead()`. So with windows of width
//! `lookahead() + 1ns`, anything a node does inside the window
//! `[t0, bound)` cannot affect another node until `>= bound` — every
//! shard can execute its own window events independently. Timers,
//! replies and restart events are node-local, and fault injection
//! (the one global mutator) is serialized: windows never cross a
//! fault instant, which is run through the ordinary sequential
//! `handle()` loop instead.
//!
//! # One window
//!
//! 1. **Drain** (facade): pop every engine event `< bound` with its
//!    seq ([`Engine::pop_window`]), unrolling the client arrival
//!    chain (arrivals are the only RNG consumers, and the pool fields
//!    they touch are disjoint from scoring). Per-node events go to
//!    their shard's inbox in global order; client events stay on the
//!    facade.
//! 2. **Execute** (workers, `std::thread::scope`): each shard runs
//!    its inbox through a worker-local [`Engine<WEv>`] (in-window
//!    self-scheduled events are always same-node), mutating only its
//!    own `NodeSlot`s and buffering every global effect as an ordered
//!    [`Op`] list plus one [`Record`] per executed event.
//! 3. **Replay** (facade): merge the drained slots with in-window
//!    generated events (seqs allocated via [`Engine::alloc_seq`] at
//!    exactly the point the sequential loop would have scheduled
//!    them) and apply each record's ops in true `(time, seq)` order:
//!    engine inserts, client scoring, traces, logs, receive-side
//!    fabric serialization. Each consumed record is checked against
//!    the expected `(time, kind)`; any divergence panics rather than
//!    silently drifting from the sequential run.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use press::{AppEffect, ClientAccept, NodeCtx, PressMsg, Request, Stream};
use simnet::fabric::TransmitOutcome;
use simnet::{
    CancelToken, Engine, Fabric, FabricConfig, FabricFlags, Frame, NodeId, SimDuration, SimTime,
    TxOutcome, TxPort,
};
use transport::{Effect, Effects, Substrate, TimerKey, TimerKind, WirePayload};
use workload::ClientEvent;

use super::{ClusterSim, ConnTimers, Ev, FxPool, NodeSlot, ProcEvent, Work};

/// Facade-side map from a pending transport timer to its engine
/// cancellation token: `(node, conn, kind index) → token`. Workers
/// decide *that* an engine-resident timer is superseded; the facade
/// owns the tokens and performs the cancel at replay.
type TokenMap = HashMap<(usize, u64, usize), CancelToken>;

/// Worker-side event: the in-window, node-local mirror of [`Ev`].
enum WEv {
    Frame(Frame<WirePayload<PressMsg>>),
    Timer(TimerKey),
    App { node: usize, gen: u64, ev: press::AppEvent },
    Reply { node: usize, gen: u64, req_id: u64 },
    Restart { node: usize, gen: u64 },
    Arrival { node: usize, req: Request, traced: bool },
}

/// Record kinds — the executed event's discriminant, verified against
/// the facade's expectation when the record is consumed.
const K_FRAME: u8 = 0;
const K_TIMER: u8 = 1;
/// A timer event the worker skipped because an in-window re-arm
/// superseded it (the sequential loop would have cancelled it out of
/// the engine before it fired, so it is *not* counted as dispatched).
const K_TIMER_CANCELLED: u8 = 2;
const K_APP: u8 = 3;
const K_REPLY: u8 = 4;
const K_RESTART: u8 = 5;
const K_ARRIVAL: u8 = 6;
/// Facade expectation wildcard for in-window generated events.
const K_ANY: u8 = 255;

fn kind_matches(expected: u8, got: u8) -> bool {
    expected == got
        || expected == K_ANY
        || (expected == K_TIMER && got == K_TIMER_CANCELLED)
}

/// One executed worker event: when it ran, what it was, and where its
/// ops end in the shard's op list (ops are consumed cursor-style).
#[derive(Clone, Copy)]
struct Record {
    at: SimTime,
    kind: u8,
    ops_end: u32,
}

/// A buffered global effect, applied by the facade at replay in the
/// exact order the sequential loop would have performed it.
enum Op {
    /// Placeholder left behind when an op is moved out for application.
    Nop,
    /// `schedule_stream(node, stream, at, ev)` — allocates the next seq.
    Sched {
        at: SimTime,
        node: usize,
        stream: Stream,
        ev: Ev,
    },
    /// An in-window event the worker scheduled locally: burn the seq
    /// the sequential loop would have given it and queue the slot on
    /// the replay heap.
    Local { at: SimTime },
    /// `schedule_cancellable` + token registration (TCP timer index).
    TimerArm { at: SimTime, key: TimerKey },
    /// Plain timer schedule (VIA — no cancellation index).
    TimerArmPlain { at: SimTime, key: TimerKey },
    /// Cancel an engine-resident superseded timer via the token map.
    TimerCancel { node: usize, conn: u64, kind: usize },
    /// Count one suppressed timer (cancellation already effected
    /// worker-side, or detected stale at dispatch).
    Suppress,
    /// Launched frame: receive-side serialization + delivery schedule.
    TxFrame {
        frame: Frame<WirePayload<PressMsg>>,
        at_dst_port: SimTime,
    },
    /// `clients.accepted` + deadline schedule (monotone lane).
    ClientAccepted { req_id: u64 },
    ClientConnFailed,
    ClientRefused,
    /// `clients.complete` + traced-request span emission.
    ClientComplete { req_id: u64 },
    /// Register a sampled request in the traced-request table.
    TracedInsert { req_id: u64, target: usize },
    LogMembership { node: usize, members: usize },
    LogProcessExit { node: usize },
    LogProcessRestart { node: usize },
    /// Pre-built trace event (transport traces, client instants).
    Trace(Box<telemetry::TraceEvent>),
    /// Attribution record, applied into the facade's `AttrState` at
    /// the replay slot (so the record order is exactly sequential).
    Attr {
        node: usize,
        ev: telemetry::AttrEvent,
    },
}

/// Worker-side mirror of [`ConnTimers`]: the facade keeps the engine
/// tokens, the worker keeps the gens and fire times it needs to make
/// supersede decisions.
#[derive(Clone, Default)]
struct WTimers {
    latest_gen: u64,
    /// Per-kind pending timer: `(gen, fire time)`.
    pending: [Option<(u64, SimTime)>; TimerKind::COUNT],
}

/// Everything one shard owns while the simulation is split.
struct ShardState {
    /// First global node index of this shard (nodes are contiguous).
    start: usize,
    nodes: Vec<NodeSlot>,
    /// Sender-side fabric port state for this shard's nodes.
    tx: Vec<TxPort>,
    /// Snapshot of the fabric's up/down flags (constant per window —
    /// faults are serialized).
    flags: FabricFlags,
    /// Per-local-node timer index (TCP versions only).
    timers: Option<Vec<BTreeMap<u64, WTimers>>>,
    /// In-window locally-cancelled timers, keyed
    /// `(node, conn, gen, kind index)`; their events are skipped when
    /// popped from the local engine.
    cancelled: HashSet<(usize, u64, u64, usize)>,
    last_members: Vec<usize>,
    /// In-window event queue (drained inbox + self-scheduled events).
    local: Engine<WEv>,
    /// Events handed over by the facade for the current window.
    inbox: Vec<(SimTime, WEv)>,
    records: Vec<Record>,
    ops: Vec<Op>,
    rec_cursor: usize,
    op_cursor: usize,
    work: VecDeque<(usize, Work)>,
    fx_pool: FxPool,
    app_scratch: Vec<AppEffect>,
    fabcfg: FabricConfig,
    restart_delay: SimDuration,
    /// Exclusive end of the current window.
    bound: SimTime,
    /// Sender-side frame losses this split (merged via `note_lost`).
    lost: u64,
    /// Whether attribution is live (gates the worker-side lifecycle
    /// ops so the disabled path stays allocation-free).
    attr_on: bool,
}

impl ShardState {
    /// Empty placeholder left in a mutex while the real state is
    /// merged back into the facade (never executed).
    fn husk() -> ShardState {
        ShardState {
            start: 0,
            nodes: Vec::new(),
            tx: Vec::new(),
            flags: FabricFlags::default(),
            timers: None,
            cancelled: HashSet::new(),
            last_members: Vec::new(),
            local: Engine::new(),
            inbox: Vec::new(),
            records: Vec::new(),
            ops: Vec::new(),
            rec_cursor: 0,
            op_cursor: 0,
            work: VecDeque::new(),
            fx_pool: FxPool::default(),
            app_scratch: Vec::new(),
            fabcfg: FabricConfig::default(),
            restart_delay: SimDuration::ZERO,
            bound: SimTime::ZERO,
            lost: 0,
            attr_on: false,
        }
    }

    fn begin_window(&mut self, bound: SimTime) {
        self.bound = bound;
        self.inbox.clear();
        self.records.clear();
        self.ops.clear();
        self.rec_cursor = 0;
        self.op_cursor = 0;
    }
}

/// Worker coordination: the facade publishes a window generation, the
/// workers run it and report back. Spin-then-yield keeps latency low
/// on idle cores without starving single-core hosts.
struct Ctl {
    epoch: AtomicU64,
    done: Vec<AtomicU64>,
    panicked: AtomicBool,
}

/// Epoch value that tells workers to exit.
const STOP: u64 = u64::MAX;

fn backoff(spins: &mut u32) {
    *spins += 1;
    if *spins < 64 {
        std::hint::spin_loop();
    } else {
        std::thread::yield_now();
    }
}

impl Ctl {
    fn new(shards: usize) -> Ctl {
        Ctl {
            epoch: AtomicU64::new(0),
            done: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            panicked: AtomicBool::new(false),
        }
    }

    fn stop(&self) {
        self.epoch.store(STOP, Ordering::Release);
    }

    /// Worker side: block until a new window (or stop) is published.
    fn wait_epoch(&self, seen: u64) -> Option<u64> {
        let mut spins = 0;
        loop {
            let e = self.epoch.load(Ordering::Acquire);
            if e == STOP {
                return None;
            }
            if e != seen {
                return Some(e);
            }
            backoff(&mut spins);
        }
    }

    /// Facade side: block until every worker shard finished epoch `e`.
    fn wait_done(&self, e: u64) {
        for d in self.done.iter().skip(1) {
            let mut spins = 0;
            while d.load(Ordering::Acquire) != e {
                if self.panicked.load(Ordering::Acquire) {
                    self.stop();
                    panic!("parallel window driver: a shard worker panicked");
                }
                backoff(&mut spins);
            }
        }
    }
}

/// Ensures workers are released even if the facade panics mid-window
/// (otherwise `thread::scope` would deadlock joining them).
struct StopGuard<'a>(&'a Ctl);

impl Drop for StopGuard<'_> {
    fn drop(&mut self) {
        self.0.stop();
    }
}

/// One facade-retired slot of the window: an event the drain popped
/// from the global engine, with its real seq.
#[derive(Clone, Copy)]
struct Slot {
    at: SimTime,
    seq: u64,
    tag: SlotTag,
}

#[derive(Clone, Copy)]
enum SlotTag {
    /// Client deadline — handled wholly on the facade.
    Deadline(u64),
    /// Client arrival — pool mutation on the facade, node checks on
    /// the worker (the chain queue holds its next-arrival time+shard).
    Arrival,
    /// Node event executed by `shard`; `kind` is the expected record.
    Node { shard: u32, kind: u8 },
}

/// Replay-heap tag marking an in-window generated *arrival* (all
/// other entries carry their shard index).
const TAG_ARRIVAL: u32 = u32::MAX;

/// Facade-side driver state that lives across windows.
struct Driver {
    /// Drained engine events of the current window, with real seqs.
    stream: Vec<Slot>,
    /// Per-arrival `(next arrival time, target shard)` queue, in
    /// arrival order.
    chain: VecDeque<(SimTime, u32)>,
    /// In-window generated events awaiting replay:
    /// `(time, seq, shard | TAG_ARRIVAL)`.
    pending: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    tokens: TokenMap,
    node_shard: Vec<u32>,
    drained: Vec<(SimTime, u64, Ev)>,
    bound: SimTime,
    trace_on: bool,
    sample: u64,
    /// Next unrolled (virtual) arrival to interleave into the drain.
    next_arrival: Option<SimTime>,
}

/// Entry point: runs `sim` to `deadline` with `threads` shards,
/// byte-identical to the sequential `run_until`.
pub(super) fn run_until_parallel(sim: &mut ClusterSim, deadline: SimTime, threads: usize) {
    let window = sim.config.fabric.lookahead() + SimDuration::from_nanos(1);
    // Fault instants remaining in this run are serialized through the
    // sequential loop; windows never cross one. `>=` keeps an
    // already-dispatched same-instant fault harmless (its time simply
    // can't come up again) while never missing a pending one.
    let mut fault_times: Vec<SimTime> = sim
        .actions
        .iter()
        .map(|a| a.at)
        .filter(|&t| t >= sim.engine.now() && t <= deadline)
        .collect();
    fault_times.sort_unstable();
    fault_times.dedup();

    let n = sim.config.press.nodes;
    let shard_count = threads.min(n);
    let mut node_shard = vec![0u32; n];
    for k in 0..shard_count {
        for s in node_shard.iter_mut().take((k + 1) * n / shard_count).skip(k * n / shard_count) {
            *s = k as u32;
        }
    }

    let mut driver = Driver {
        stream: Vec::new(),
        chain: VecDeque::new(),
        pending: BinaryHeap::new(),
        tokens: TokenMap::new(),
        node_shard,
        drained: Vec::new(),
        bound: SimTime::ZERO,
        trace_on: sim.sink.enabled(),
        sample: sim.config.trace.request_sample,
        next_arrival: None,
    };

    let shards = split(sim, shard_count, &mut driver.tokens);
    let locks: Vec<Mutex<ShardState>> = shards.into_iter().map(Mutex::new).collect();
    let ctl = Ctl::new(locks.len());

    std::thread::scope(|scope| {
        let _guard = StopGuard(&ctl);
        for (w, lock) in locks.iter().enumerate().skip(1) {
            let ctl = &ctl;
            scope.spawn(move || worker_loop(ctl, w, lock));
        }
        drive(sim, deadline, window, &fault_times, &locks, &ctl, &mut driver);
    });

    sim.engine.advance_now(deadline);
}

/// The facade loop: windows, fault instants, final merge.
fn drive(
    sim: &mut ClusterSim,
    deadline: SimTime,
    window: SimDuration,
    fault_times: &[SimTime],
    locks: &[Mutex<ShardState>],
    ctl: &Ctl,
    driver: &mut Driver,
) {
    let shard_count = locks.len();
    let mut fi = 0;
    let mut epoch = 0u64;
    while let Some(t0) = sim.engine.peek_time() {
        if t0 > deadline {
            break;
        }
        while fi < fault_times.len() && fault_times[fi] < t0 {
            fi += 1;
        }
        if fi < fault_times.len() && fault_times[fi] == t0 {
            // Fault instant: fold the shards back together and run the
            // whole burst through the ordinary sequential loop — exact
            // fault semantics with zero duplicated logic — then re-split.
            merge(sim, take_all(locks), &driver.tokens);
            let mut batch = std::mem::take(&mut sim.batch);
            while let Some(t) = sim.engine.pop_batch_before(t0, &mut batch) {
                for ev in batch.drain(..) {
                    sim.handle(t, ev);
                }
            }
            sim.batch = batch;
            fi += 1;
            put_all(locks, split(sim, shard_count, &mut driver.tokens));
            continue;
        }

        let mut bound = t0 + window;
        if fi < fault_times.len() {
            bound = bound.min(fault_times[fi]);
        }
        bound = bound.min(deadline + SimDuration::from_nanos(1));

        driver.drained.clear();
        sim.engine.pop_window(bound, &mut driver.drained);
        if driver.drained.is_empty() {
            // Stale cancelled entry pruned; nothing to run this round.
            continue;
        }

        let mut guards: Vec<MutexGuard<'_, ShardState>> =
            locks.iter().map(|l| l.lock().expect("shard mutex poisoned")).collect();
        for g in guards.iter_mut() {
            g.begin_window(bound);
        }
        driver.bound = bound;
        distribute(sim, driver, &mut guards);
        drop(guards);

        epoch += 1;
        ctl.epoch.store(epoch, Ordering::Release);
        {
            // The facade executes shard 0 itself while workers run 1..
            let mut sh0 = locks[0].lock().expect("shard mutex poisoned");
            run_window(&mut sh0);
        }
        ctl.wait_done(epoch);

        let mut guards: Vec<MutexGuard<'_, ShardState>> =
            locks.iter().map(|l| l.lock().expect("shard mutex poisoned")).collect();
        replay(sim, driver, &mut guards);
        for (k, g) in guards.iter().enumerate() {
            assert_eq!(
                g.rec_cursor,
                g.records.len(),
                "window replay: shard {k} executed events the facade never retired"
            );
            assert_eq!(g.op_cursor, g.ops.len(), "window replay: shard {k} left ops unapplied");
            assert!(g.cancelled.is_empty(), "window replay: shard {k} cancellation leaked");
        }
        assert!(driver.chain.is_empty(), "window replay: arrival chain not fully retired");
        drop(guards);
    }

    merge(sim, take_all(locks), &driver.tokens);
}

/// Drain phase: route the popped window events to shard inboxes and
/// facade slots, unrolling the client arrival chain in merged time
/// order (a virtual arrival ties *after* a drained event at the same
/// instant — its seq is allocated later, in-window).
fn distribute(sim: &mut ClusterSim, driver: &mut Driver, guards: &mut [MutexGuard<'_, ShardState>]) {
    driver.stream.clear();
    driver.chain.clear();
    driver.next_arrival = None;
    debug_assert!(driver.pending.is_empty());
    let mut drained = std::mem::take(&mut driver.drained);
    for (at, seq, ev) in drained.drain(..) {
        while driver.next_arrival.is_some_and(|t| t < at) {
            let t = driver.next_arrival.take().unwrap();
            emit_arrival(sim, driver, guards, t, None);
        }
        match ev {
            Ev::Client(ClientEvent::Arrival) => {
                assert!(driver.next_arrival.is_none(), "two live arrival chains");
                emit_arrival(sim, driver, guards, at, Some(seq));
            }
            Ev::Client(ClientEvent::Deadline(id)) => {
                driver.stream.push(Slot { at, seq, tag: SlotTag::Deadline(id) });
            }
            Ev::Fault(_) => unreachable!("fault instants are serialized outside windows"),
            Ev::Frame(handle) => {
                let f = sim.frames.take(handle);
                let shard = driver.node_shard[f.dst.0];
                guards[shard as usize].inbox.push((at, WEv::Frame(f)));
                driver.stream.push(Slot { at, seq, tag: SlotTag::Node { shard, kind: K_FRAME } });
            }
            Ev::Timer(key) => {
                let shard = driver.node_shard[key.node.0];
                guards[shard as usize].inbox.push((at, WEv::Timer(key)));
                driver.stream.push(Slot { at, seq, tag: SlotTag::Node { shard, kind: K_TIMER } });
            }
            Ev::App { node, gen, ev } => {
                let shard = driver.node_shard[node];
                guards[shard as usize].inbox.push((at, WEv::App { node, gen, ev }));
                driver.stream.push(Slot { at, seq, tag: SlotTag::Node { shard, kind: K_APP } });
            }
            Ev::Reply { node, gen, req_id } => {
                let shard = driver.node_shard[node];
                guards[shard as usize].inbox.push((at, WEv::Reply { node, gen, req_id }));
                driver.stream.push(Slot { at, seq, tag: SlotTag::Node { shard, kind: K_REPLY } });
            }
            Ev::ProcessRestart { node, gen } => {
                let shard = driver.node_shard[node];
                guards[shard as usize].inbox.push((at, WEv::Restart { node, gen }));
                driver.stream.push(Slot { at, seq, tag: SlotTag::Node { shard, kind: K_RESTART } });
            }
        }
    }
    while let Some(t) = driver.next_arrival.take() {
        emit_arrival(sim, driver, guards, t, None);
    }
    driver.drained = drained;
}

/// Consumes one arrival from the client pool at drain time (the pool
/// fields `arrive` touches — RNG, ids, attempt counter — are disjoint
/// from the scoring fields replay touches, so pre-consuming here
/// leaves all replay-time scoring byte-identical).
fn emit_arrival(
    sim: &mut ClusterSim,
    driver: &mut Driver,
    guards: &mut [MutexGuard<'_, ShardState>],
    t: SimTime,
    real_seq: Option<u64>,
) {
    let (req, target, next) = sim.clients.arrive(t);
    let traced = driver.trace_on && driver.sample != 0 && req.id % driver.sample == 0;
    let shard = driver.node_shard[target.0];
    guards[shard as usize].inbox.push((t, WEv::Arrival { node: target.0, req, traced }));
    if let Some(seq) = real_seq {
        driver.stream.push(Slot { at: t, seq, tag: SlotTag::Arrival });
    }
    driver.chain.push_back((next, shard));
    driver.next_arrival = if next < driver.bound { Some(next) } else { None };
}

/// Replay phase: two-source merge of the drained stream (real seqs)
/// and the in-window generated events (seqs allocated at their
/// parents' replay slots), applying each record's buffered ops.
fn replay(sim: &mut ClusterSim, driver: &mut Driver, guards: &mut [MutexGuard<'_, ShardState>]) {
    let mut si = 0;
    loop {
        let s_key = driver.stream.get(si).map(|s| (s.at, s.seq));
        let p_key = driver.pending.peek().map(|Reverse((at, seq, _))| (*at, *seq));
        let use_stream = match (s_key, p_key) {
            (None, None) => break,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (Some(s), Some(p)) => s < p,
        };
        if use_stream {
            let slot = driver.stream[si];
            si += 1;
            sim.engine.advance_now(slot.at);
            match slot.tag {
                SlotTag::Deadline(id) => {
                    facade_deadline(sim, slot.at, id);
                    sim.engine.note_dispatched(1);
                }
                SlotTag::Arrival => replay_arrival(sim, driver, guards, slot.at),
                SlotTag::Node { shard, kind } => {
                    if consume_record(sim, driver, guards, shard, slot.at, kind) {
                        sim.engine.note_dispatched(1);
                    }
                }
            }
        } else {
            let Reverse((at, _seq, tag)) = driver.pending.pop().unwrap();
            sim.engine.advance_now(at);
            if tag == TAG_ARRIVAL {
                replay_arrival(sim, driver, guards, at);
            } else if consume_record(sim, driver, guards, tag, at, K_ANY) {
                sim.engine.note_dispatched(1);
            }
        }
    }
}

/// Replays one arrival slot: schedule (or queue) the next arrival at
/// exactly the point the sequential handler did, then retire the
/// worker's node-side record.
fn replay_arrival(
    sim: &mut ClusterSim,
    driver: &mut Driver,
    guards: &mut [MutexGuard<'_, ShardState>],
    at: SimTime,
) {
    let (next, shard) = driver.chain.pop_front().expect("arrival chain underrun");
    if next < driver.bound {
        let seq = sim.engine.alloc_seq();
        driver.pending.push(Reverse((next, seq, TAG_ARRIVAL)));
    } else {
        sim.engine.schedule_at(next, Ev::Client(ClientEvent::Arrival));
    }
    consume_record(sim, driver, guards, shard, at, K_ARRIVAL);
    sim.engine.note_dispatched(1);
}

/// Sequential `Ev::Client(Deadline)` handling, verbatim.
fn facade_deadline(sim: &mut ClusterSim, now: SimTime, id: u64) {
    sim.clients.deadline(id);
    sim.record_attr(now, 0, telemetry::AttrEvent::DeadlineMiss { req_id: id });
    if let Some((issued, target)) = sim.traced_requests.remove(&id) {
        sim.sink.emit(
            telemetry::TraceEvent::instant("request.timeout", "client", target as u32, now)
                .arg_u64("req_id", id)
                .arg_u64("waited_us", now.saturating_since(issued).as_nanos() / 1_000),
        );
    }
}

/// Retires the next record of `shard`, verifying `(time, kind)` and
/// applying its ops. Returns whether the event counts as dispatched.
fn consume_record(
    sim: &mut ClusterSim,
    driver: &mut Driver,
    guards: &mut [MutexGuard<'_, ShardState>],
    shard: u32,
    at: SimTime,
    expected: u8,
) -> bool {
    let sh = &mut *guards[shard as usize];
    let rec = *sh
        .records
        .get(sh.rec_cursor)
        .unwrap_or_else(|| panic!("window replay: shard {shard} ran out of records at {at:?}"));
    sh.rec_cursor += 1;
    assert!(
        rec.at == at && kind_matches(expected, rec.kind),
        "window replay: shard {shard} diverged from the sequential order \
         (expected kind {expected} at {at:?}, worker executed kind {} at {:?})",
        rec.kind,
        rec.at,
    );
    let end = rec.ops_end as usize;
    while sh.op_cursor < end {
        let op = std::mem::replace(&mut sh.ops[sh.op_cursor], Op::Nop);
        sh.op_cursor += 1;
        apply_op(sim, driver, shard, at, op);
    }
    rec.kind != K_TIMER_CANCELLED
}

/// Applies one buffered op on the facade — each arm is the verbatim
/// global half of the corresponding sequential code path.
fn apply_op(sim: &mut ClusterSim, driver: &mut Driver, shard: u32, at: SimTime, op: Op) {
    match op {
        Op::Nop => {}
        Op::Sched { at, node, stream, ev } => sim.schedule_stream(node, stream, at, ev),
        Op::Local { at } => {
            let seq = sim.engine.alloc_seq();
            driver.pending.push(Reverse((at, seq, shard)));
        }
        Op::TimerArm { at, key } => {
            let token = sim.engine.schedule_cancellable(at, Ev::Timer(key));
            driver.tokens.insert((key.node.0, key.conn, key.kind.idx()), token);
        }
        Op::TimerArmPlain { at, key } => sim.engine.schedule_at(at, Ev::Timer(key)),
        Op::TimerCancel { node, conn, kind } => {
            let token = *driver
                .tokens
                .get(&(node, conn, kind))
                .expect("window replay: cancel of an unregistered timer token");
            if sim.engine.cancel(token) {
                sim.timers_suppressed += 1;
            }
        }
        Op::Suppress => sim.timers_suppressed += 1,
        Op::TxFrame { frame, at_dst_port } => {
            match sim.fabric.rx_phase(at_dst_port, frame.dst, frame.bytes) {
                TransmitOutcome::Delivered { at } => sim.schedule_frame(at, frame),
                TransmitOutcome::Lost { reason } => panic!(
                    "window replay: receive-side loss ({reason:?}) after the sender already \
                     committed — transport flow control keeps per-peer backlog far below the \
                     rx queue bound, so this indicates a model change that breaks the \
                     parallel driver's delivery assumption"
                ),
            }
        }
        Op::ClientAccepted { req_id } => {
            let deadline = sim.clients.accepted(at, req_id);
            sim.schedule_deadline(deadline, req_id);
        }
        Op::ClientConnFailed => sim.clients.connect_failed(),
        Op::ClientRefused => sim.clients.refused(),
        Op::ClientComplete { req_id } => {
            // Same late-reply rule as the sequential path: only a
            // scored completion closes the causal record.
            if sim.clients.complete(at, req_id) {
                // The node index is irrelevant for `Completed`.
                sim.record_attr(at, 0, telemetry::AttrEvent::Completed { req_id });
            }
            if let Some((issued, target)) = sim.traced_requests.remove(&req_id) {
                sim.sink.emit(
                    telemetry::TraceEvent::span(
                        "request",
                        "client",
                        target as u32,
                        issued,
                        at.saturating_since(issued),
                    )
                    .arg_u64("req_id", req_id),
                );
            }
        }
        Op::TracedInsert { req_id, target } => {
            sim.traced_requests.insert(req_id, (at, target));
        }
        Op::LogMembership { node, members } => {
            sim.membership_log.push((at, NodeId(node), members));
            sim.sink.emit_with(|| {
                telemetry::TraceEvent::instant(
                    "membership.size",
                    "cluster",
                    telemetry::TID_CLUSTER,
                    at,
                )
                .arg_u64("node", node as u64)
                .arg_u64("members", members as u64)
            });
        }
        Op::LogProcessExit { node } => {
            sim.process_log.push((at, NodeId(node), ProcEvent::Exit));
            sim.record_attr(at, node, telemetry::AttrEvent::FaultBegin);
            sim.sink.emit_with(|| {
                telemetry::TraceEvent::instant("process.exit", "proc", node as u32, at)
            });
        }
        Op::LogProcessRestart { node } => {
            sim.process_log.push((at, NodeId(node), ProcEvent::Restart));
            sim.record_attr(at, node, telemetry::AttrEvent::FaultEnd);
            sim.sink.emit_with(|| {
                telemetry::TraceEvent::instant("process.restart", "proc", node as u32, at)
            });
        }
        Op::Trace(ev) => sim.sink.emit(*ev),
        Op::Attr { node, ev } => sim.record_attr(at, node, ev),
    }
}

// ----------------------------------------------------------------------
// Worker side
// ----------------------------------------------------------------------

fn worker_loop(ctl: &Ctl, w: usize, lock: &Mutex<ShardState>) {
    let mut seen = 0u64;
    while let Some(e) = ctl.wait_epoch(seen) {
        let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut sh = lock.lock().expect("shard mutex poisoned");
            run_window(&mut sh);
        }));
        if ran.is_err() {
            // The panic hook already printed the worker's message.
            ctl.panicked.store(true, Ordering::Release);
            return;
        }
        ctl.done[w].store(e, Ordering::Release);
        seen = e;
    }
}

/// Executes one shard's window: feed the inbox into the local engine
/// and run node-local state machines to exhaustion, one record per
/// event.
fn run_window(sh: &mut ShardState) {
    let mut inbox = std::mem::take(&mut sh.inbox);
    for (at, wev) in inbox.drain(..) {
        sh.local.schedule_at(at, wev);
    }
    sh.inbox = inbox;
    while let Some((now, wev)) = sh.local.pop() {
        debug_assert!(sh.work.is_empty());
        let kind = step(sh, now, wev);
        drain_work_local(sh, now);
        sh.records.push(Record { at: now, kind, ops_end: sh.ops.len() as u32 });
    }
}

/// Worker transliteration of the sequential `handle()` dispatch.
fn step(sh: &mut ShardState, now: SimTime, wev: WEv) -> u8 {
    match wev {
        WEv::Frame(frame) => {
            if sh.flags.node_up[frame.dst.0] {
                sh.work.push_back((frame.dst.0, Work::FrameIn(frame)));
            }
            K_FRAME
        }
        WEv::Timer(key) => {
            if sh.cancelled.remove(&(key.node.0, key.conn, key.gen, key.kind.idx())) {
                // An in-window re-arm superseded this timer; the
                // sequential loop cancelled it out of the engine.
                return K_TIMER_CANCELLED;
            }
            if note_timer_dispatched_local(sh, &key) {
                sh.ops.push(Op::Suppress);
            } else if sh.flags.node_up[key.node.0] {
                sh.work.push_back((key.node.0, Work::Timer(key)));
            }
            K_TIMER
        }
        WEv::App { node, gen, ev } => {
            let slot = &sh.nodes[node - sh.start];
            if slot.running && slot.gen == gen {
                sh.work.push_back((node, Work::AppEv(ev)));
            }
            K_APP
        }
        WEv::Reply { node, gen, req_id } => {
            let slot = &sh.nodes[node - sh.start];
            if slot.running && slot.gen == gen {
                sh.ops.push(Op::ClientComplete { req_id });
            }
            K_REPLY
        }
        WEv::Restart { node, gen } => {
            let slot = &mut sh.nodes[node - sh.start];
            if slot.gen == gen && !slot.running {
                slot.running = true;
                sh.ops.push(Op::LogProcessRestart { node });
                sh.work.push_back((node, Work::Start { cold: false }));
            }
            K_RESTART
        }
        WEv::Arrival { node, req, traced } => {
            let li = node - sh.start;
            if !sh.flags.node_up[node] || sh.nodes[li].frozen {
                sh.ops.push(Op::ClientConnFailed);
                if sh.attr_on {
                    sh.ops.push(Op::Attr { node, ev: telemetry::AttrEvent::ConnFailed });
                }
                if traced {
                    sh.ops.push(Op::Trace(Box::new(
                        telemetry::TraceEvent::instant(
                            "request.conn_failed",
                            "client",
                            telemetry::TID_CLIENTS,
                            now,
                        )
                        .arg_u64("req_id", req.id)
                        .arg_u64("node", node as u64),
                    )));
                }
            } else if !sh.nodes[li].running {
                sh.ops.push(Op::ClientRefused);
                if sh.attr_on {
                    sh.ops.push(Op::Attr { node, ev: telemetry::AttrEvent::Refused });
                }
                if traced {
                    sh.ops.push(Op::Trace(Box::new(
                        telemetry::TraceEvent::instant(
                            "request.refused",
                            "client",
                            telemetry::TID_CLIENTS,
                            now,
                        )
                        .arg_u64("req_id", req.id)
                        .arg_u64("node", node as u64),
                    )));
                }
            } else if sh.nodes[li].hung {
                if traced {
                    sh.ops.push(Op::TracedInsert { req_id: req.id, target: node });
                }
                sh.ops.push(Op::ClientAccepted { req_id: req.id });
                if sh.attr_on {
                    sh.ops.push(Op::Attr {
                        node,
                        ev: telemetry::AttrEvent::Accepted { req_id: req.id },
                    });
                }
                sh.nodes[li].freezer.push(Work::Client(req));
            } else {
                if traced {
                    sh.ops.push(Op::TracedInsert { req_id: req.id, target: node });
                }
                sh.work.push_back((node, Work::Client(req)));
            }
            K_ARRIVAL
        }
    }
}

/// Worker mirror of `note_timer_dispatched`.
fn note_timer_dispatched_local(sh: &mut ShardState, key: &TimerKey) -> bool {
    let Some(per_node) = &mut sh.timers else {
        return false;
    };
    let Some(entry) = per_node[key.node.0 - sh.start].get_mut(&key.conn) else {
        return false;
    };
    let slot = &mut entry.pending[key.kind.idx()];
    if slot.is_some_and(|(g, _)| g == key.gen) {
        *slot = None;
    }
    key.gen < entry.latest_gen
}

/// Worker mirror of `schedule_timer`: the supersede decision runs
/// here; the engine mutation is buffered as an op. A superseded timer
/// that fires inside this window (`at < bound`) is already out of the
/// global engine — it is cancelled locally via the `cancelled` set —
/// while one resting beyond the window is cancelled by token at
/// replay.
fn schedule_timer_local(sh: &mut ShardState, at: SimTime, key: TimerKey) {
    let bound = sh.bound;
    let Some(per_node) = &mut sh.timers else {
        if at < bound {
            sh.local.schedule_at(at, WEv::Timer(key));
            sh.ops.push(Op::Local { at });
        } else {
            sh.ops.push(Op::TimerArmPlain { at, key });
        }
        return;
    };
    let entry = per_node[key.node.0 - sh.start].entry(key.conn).or_default();
    if key.gen > entry.latest_gen {
        entry.latest_gen = key.gen;
    }
    for (k, slot) in entry.pending.iter_mut().enumerate() {
        if let Some((g, pat)) = *slot {
            if g < entry.latest_gen {
                *slot = None;
                if pat < bound {
                    let fresh = sh.cancelled.insert((key.node.0, key.conn, g, k));
                    assert!(fresh, "duplicate local timer cancellation");
                    sh.ops.push(Op::Suppress);
                } else {
                    sh.ops.push(Op::TimerCancel { node: key.node.0, conn: key.conn, kind: k });
                }
            }
        }
    }
    if at < bound {
        sh.local.schedule_at(at, WEv::Timer(key));
        sh.ops.push(Op::Local { at });
    } else {
        sh.ops.push(Op::TimerArm { at, key });
    }
    entry.pending[key.kind.idx()] = Some((key.gen, at));
}

/// Worker transliteration of the sequential `drain_work`.
fn drain_work_local(sh: &mut ShardState, now: SimTime) {
    while let Some((i, w)) = sh.work.pop_front() {
        let li = i - sh.start;
        let mut fx = sh.fx_pool.take();
        let mut app = std::mem::take(&mut sh.app_scratch);
        let mut accept: Option<(u64, ClientAccept)> = None;
        {
            let slot = &mut sh.nodes[li];
            let transport_work =
                matches!(w, Work::FrameIn(_) | Work::Timer(_) | Work::TransmitFailed(..));
            if !transport_work {
                if !slot.running && !matches!(w, Work::Start { .. }) {
                    sh.fx_pool.put(fx);
                    sh.app_scratch = app;
                    continue;
                }
                if (slot.frozen || slot.hung) && !matches!(w, Work::SetHung(_) | Work::Start { .. })
                {
                    slot.freezer.push(w);
                    sh.fx_pool.put(fx);
                    sh.app_scratch = app;
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
                    ctx.sub.set_app_receiving(now, !h, ctx.fx);
                }
            }
        }
        if let Some((req_id, a)) = accept {
            match a {
                ClientAccept::Accepted => {
                    sh.ops.push(Op::ClientAccepted { req_id });
                    if sh.attr_on {
                        sh.ops.push(Op::Attr {
                            node: i,
                            ev: telemetry::AttrEvent::Accepted { req_id },
                        });
                    }
                }
                ClientAccept::Dropped(reason) => {
                    sh.ops.push(Op::ClientConnFailed);
                    if sh.attr_on {
                        let ev = match reason {
                            press::DropReason::DeferOverflow => {
                                telemetry::AttrEvent::DroppedOverflow
                            }
                            press::DropReason::Admission => telemetry::AttrEvent::DroppedBacklog,
                        };
                        sh.ops.push(Op::Attr { node: i, ev });
                    }
                }
            }
        }
        apply_effects_local(sh, now, i, &mut fx, &mut app);
        sh.fx_pool.put(fx);
        app.clear();
        sh.app_scratch = app;
    }
}

/// Worker transliteration of the sequential `apply_effects`: the
/// sender-side fabric phase runs here against the shard's own port
/// and the window-constant flag snapshot; everything global becomes
/// an op.
fn apply_effects_local(
    sh: &mut ShardState,
    now: SimTime,
    i: usize,
    fx: &mut Effects<PressMsg>,
    app: &mut Vec<AppEffect>,
) {
    let li = i - sh.start;
    for e in fx.drain(..) {
        match e {
            Effect::Transmit(frame) => {
                debug_assert_eq!(frame.src.0, i, "transport sent from a foreign node");
                match Fabric::tx_phase(&sh.fabcfg, &sh.flags, &mut sh.tx[li], now, &frame) {
                    TxOutcome::Launched { at_dst_port } => {
                        sh.ops.push(Op::TxFrame { frame, at_dst_port });
                    }
                    TxOutcome::Lost { reason } => {
                        sh.lost += 1;
                        // Mirror of the sequential path: silent (gray)
                        // losses never surface a transport error.
                        if !reason.silent() {
                            sh.work.push_back((i, Work::TransmitFailed(frame.dst, reason)));
                        } else if sh.attr_on {
                            sh.ops.push(Op::Attr { node: i, ev: telemetry::AttrEvent::GrayLoss });
                        }
                    }
                }
            }
            Effect::SetTimer { at, key } => schedule_timer_local(sh, at, key),
            Effect::ChargeCpu(d) => {
                sh.nodes[li].cpu.charge(now, d);
            }
            Effect::Upcall(u) => sh.work.push_back((i, Work::Upcall(u))),
            Effect::Trace(ev) => sh.ops.push(Op::Trace(Box::new(ev))),
            Effect::Attr(ev) => sh.ops.push(Op::Attr { node: i, ev }),
        }
    }
    for a in app.drain(..) {
        let gen = sh.nodes[li].gen;
        match a {
            AppEffect::Schedule { at, ev, stream } => {
                if at < sh.bound {
                    sh.local.schedule_at(at, WEv::App { node: i, gen, ev });
                    sh.ops.push(Op::Local { at });
                } else {
                    let ev = Ev::App { node: i, gen, ev };
                    sh.ops.push(Op::Sched { at, node: i, stream, ev });
                }
            }
            AppEffect::Reply { req_id, at } => {
                if at < sh.bound {
                    sh.local.schedule_at(at, WEv::Reply { node: i, gen, req_id });
                    sh.ops.push(Op::Local { at });
                } else {
                    let ev = Ev::Reply { node: i, gen, req_id };
                    sh.ops.push(Op::Sched { at, node: i, stream: Stream::Cpu, ev });
                }
            }
            AppEffect::ProcessExit { reason: _ } => kill_process_local(sh, now, i),
        }
    }
    let m = sh.nodes[li].press.members().len();
    if m != sh.last_members[li] {
        sh.last_members[li] = m;
        sh.ops.push(Op::LogMembership { node: i, members: m });
    }
}

/// Worker mirror of `kill_process` for the fail-fast (`ProcessExit`)
/// path — fault-driven kills run in sequential mode.
fn kill_process_local(sh: &mut ShardState, now: SimTime, i: usize) {
    let slot = &mut sh.nodes[i - sh.start];
    if !slot.running {
        return;
    }
    slot.running = false;
    slot.hung = false;
    slot.gen += 1;
    slot.cpu.reset_backlog(now);
    slot.freezer.clear();
    slot.sub.restart(now);
    let gen = slot.gen;
    sh.ops.push(Op::LogProcessExit { node: i });
    let at = now + sh.restart_delay;
    if at < sh.bound {
        sh.local.schedule_at(at, WEv::Restart { node: i, gen });
        sh.ops.push(Op::Local { at });
    } else {
        let ev = Ev::ProcessRestart { node: i, gen };
        sh.ops.push(Op::Sched { at, node: i, stream: Stream::Unordered, ev });
    }
}

// ----------------------------------------------------------------------
// Split / merge
// ----------------------------------------------------------------------

/// Moves the per-node simulation state out of `sim` into shard
/// states: node slots, sender-side fabric ports, flag snapshots, the
/// timer index (tokens stay on the facade), membership watermarks.
fn split(sim: &mut ClusterSim, shard_count: usize, tokens: &mut TokenMap) -> Vec<ShardState> {
    let n = sim.config.press.nodes;
    tokens.clear();
    let mut all_nodes = std::mem::take(&mut sim.nodes).into_iter();
    let mut seq_timers = sim.timers.take().map(Vec::into_iter);
    let mut shards = Vec::with_capacity(shard_count);
    for k in 0..shard_count {
        let start = k * n / shard_count;
        let end = (k + 1) * n / shard_count;
        let timers = seq_timers.as_mut().map(|it| {
            (start..end)
                .map(|i| {
                    let m = it.next().expect("one timer map per node");
                    convert_conn_timers(i, m, tokens)
                })
                .collect()
        });
        shards.push(ShardState {
            start,
            nodes: all_nodes.by_ref().take(end - start).collect(),
            tx: (start..end).map(|i| sim.fabric.take_tx_port(NodeId(i))).collect(),
            flags: sim.fabric.flags(),
            timers,
            cancelled: HashSet::new(),
            last_members: sim.last_members[start..end].to_vec(),
            local: Engine::new(),
            inbox: Vec::new(),
            records: Vec::new(),
            ops: Vec::new(),
            rec_cursor: 0,
            op_cursor: 0,
            work: VecDeque::new(),
            fx_pool: FxPool::default(),
            app_scratch: Vec::new(),
            fabcfg: sim.config.fabric.clone(),
            restart_delay: sim.config.restart_delay,
            bound: SimTime::ZERO,
            lost: 0,
            attr_on: sim.attr.is_some(),
        });
    }
    shards
}

fn convert_conn_timers(
    node: usize,
    m: BTreeMap<u64, ConnTimers>,
    tokens: &mut TokenMap,
) -> BTreeMap<u64, WTimers> {
    m.into_iter()
        .map(|(conn, ct)| {
            let mut wt = WTimers { latest_gen: ct.latest_gen, pending: Default::default() };
            for (k, p) in ct.pending.iter().enumerate() {
                if let Some((g, token, at)) = *p {
                    wt.pending[k] = Some((g, at));
                    tokens.insert((node, conn, k), token);
                }
            }
            (conn, wt)
        })
        .collect()
}

/// Moves everything back into `sim`, reconstructing the sequential
/// timer index from the workers' gens and the facade's token map. A
/// live pending timer always rests in the global engine (in-window
/// timers resolve within their window), so its token is always here.
fn merge(sim: &mut ClusterSim, shards: Vec<ShardState>, tokens: &TokenMap) {
    let n = sim.config.press.nodes;
    let mut nodes = Vec::with_capacity(n);
    let mut seq_timers: Option<Vec<BTreeMap<u64, ConnTimers>>> =
        shards.first().and_then(|s| s.timers.as_ref().map(|_| Vec::with_capacity(n)));
    for sh in shards {
        assert_eq!(sh.rec_cursor, sh.records.len(), "merge with unconsumed records");
        assert_eq!(sh.op_cursor, sh.ops.len(), "merge with unapplied ops");
        assert!(sh.cancelled.is_empty(), "merge with a leaked local cancellation");
        assert_eq!(sh.local.pending(), 0, "merge with events still in a worker engine");
        let start = sh.start;
        sim.fabric.note_lost(sh.lost);
        for (li, port) in sh.tx.into_iter().enumerate() {
            sim.fabric.restore_tx_port(NodeId(start + li), port);
        }
        for (li, m) in sh.last_members.into_iter().enumerate() {
            sim.last_members[start + li] = m;
        }
        if let Some(out) = &mut seq_timers {
            for (li, m) in sh.timers.expect("timer index vanished mid-run").into_iter().enumerate()
            {
                let node = start + li;
                out.push(
                    m.into_iter()
                        .map(|(conn, w)| {
                            let mut ct = ConnTimers {
                                latest_gen: w.latest_gen,
                                pending: Default::default(),
                            };
                            for (k, p) in w.pending.iter().enumerate() {
                                if let Some((g, at)) = *p {
                                    let token = *tokens
                                        .get(&(node, conn, k))
                                        .expect("pending timer lost its engine token");
                                    ct.pending[k] = Some((g, token, at));
                                }
                            }
                            (conn, ct)
                        })
                        .collect(),
                );
            }
        }
        nodes.extend(sh.nodes);
    }
    sim.nodes = nodes;
    sim.timers = seq_timers;
}

fn take_all(locks: &[Mutex<ShardState>]) -> Vec<ShardState> {
    locks
        .iter()
        .map(|l| std::mem::replace(&mut *l.lock().expect("shard mutex poisoned"), ShardState::husk()))
        .collect()
}

fn put_all(locks: &[Mutex<ShardState>], shards: Vec<ShardState>) {
    for (l, s) in locks.iter().zip(shards) {
        *l.lock().expect("shard mutex poisoned") = s;
    }
}

/// One-time warning when `--sim-threads > 1` meets a zero-lookahead
/// fabric (no safe window exists; the sequential loop runs instead).
pub(super) fn warn_zero_lookahead() {
    static WARNED: AtomicBool = AtomicBool::new(false);
    if !WARNED.swap(true, Ordering::Relaxed) {
        eprintln!(
            "sim-threads: fabric lookahead (link + switch latency) is zero; \
             no conservative window exists — running sequentially"
        );
    }
}
