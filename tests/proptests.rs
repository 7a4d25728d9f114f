//! Property-based tests on the core data structures and invariants.

use cluster_performability::performability::fault_load::{FaultEntry, ModelFault};
use cluster_performability::performability::metric::performability;
use cluster_performability::performability::model::{
    average_availability, average_throughput, unavailability_breakdown, FaultBehavior,
};
use cluster_performability::performability::stages::{SevenStage, Stage};
use cluster_performability::press::cache::LruCache;
use cluster_performability::simnet::{
    CancelToken, CompactLane, Engine, Lane, SimDuration, SimRng, SimTime, ThroughputRecorder,
};
use cluster_performability::transport::tcp::TcpStack;
use cluster_performability::transport::{
    CallParams, CostModel, Effect, Effects, MsgClass, SendStatus, Substrate, Upcall,
};
use cluster_performability::workload::Zipf;
use proptest::prelude::*;
use simnet::fabric::NodeId;
use std::collections::BTreeMap;

/// Full and compact lanes in the engine model test.
const LANES: usize = 2;

/// The reference queue of the engine model test: live events keyed by
/// `(time, push index)`; the payload is the event's push index.
#[derive(Default)]
struct EngineModel {
    queue: BTreeMap<(SimTime, u64), u64>,
    now: SimTime,
    pushed: u64,
    dispatched: u64,
}

impl EngineModel {
    fn push(&mut self, at: SimTime) -> (SimTime, u64) {
        let key = (at, self.pushed);
        self.queue.insert(key, self.pushed);
        self.pushed += 1;
        key
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        let ((at, _), v) = self.queue.pop_first()?;
        self.now = at;
        self.dispatched += 1;
        Some((at, v))
    }

    fn next_time(&self) -> Option<SimTime> {
        self.queue.keys().next().map(|k| k.0)
    }

    /// Pops the whole earliest instant, as `pop_batch` must.
    fn pop_instant(&mut self) -> Option<(SimTime, Vec<u64>)> {
        let t = self.next_time()?;
        let mut burst = Vec::new();
        while self.next_time() == Some(t) {
            burst.push(self.pop().expect("queued").1);
        }
        Some((t, burst))
    }
}

/// A lane push time: monotone on the lane's tail, except that every
/// eighth one is deliberately earlier than the tail so it must take the
/// heap.
fn lane_time(now: SimTime, tail: &mut SimTime, a: u64) -> SimTime {
    let at = if a.is_multiple_of(8) {
        now + SimDuration::from_nanos(a % 13)
    } else {
        (*tail).max(now) + SimDuration::from_nanos(a % 20)
    };
    *tail = (*tail).max(at);
    at
}

proptest! {
    /// The engine always delivers events in (time, insertion) order.
    #[test]
    fn engine_orders_arbitrary_schedules(times in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut engine = Engine::new();
        for (i, t) in times.iter().enumerate() {
            engine.schedule_at(SimTime::from_nanos(*t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((t, i)) = engine.pop() {
            if let Some((lt, li)) = last {
                prop_assert!(t > lt || (t == lt && i > li), "order violated");
            }
            last = Some((t, i));
        }
        prop_assert_eq!(engine.pending(), 0);
    }

    /// The batch primitives agree with the one-at-a-time `pop` loop:
    /// `pop_batch` yields exactly one instant per call and the
    /// `pop_batch_before` driver loop dispatches the same `(time, event)`
    /// sequence up to its deadline, so same-instant events stay FIFO
    /// through either fast path.
    #[test]
    fn engine_batch_primitives_preserve_fifo(
        times in prop::collection::vec(0u64..40, 1..200),
        deadline in 0u64..50,
    ) {
        // The tiny timestamp range forces heavy same-instant collisions.
        let mut reference = Engine::new();
        let mut batched = Engine::new();
        let mut drained = Engine::new();
        for (i, t) in times.iter().enumerate() {
            let at = SimTime::from_nanos(*t);
            reference.schedule_at(at, i);
            batched.schedule_at(at, i);
            drained.schedule_at(at, i);
        }
        let mut expect = Vec::new();
        while let Some((t, i)) = reference.pop() {
            expect.push((t, i));
        }
        // pop_batch: each call appends one instant's burst in FIFO order.
        let mut via_batch = Vec::new();
        let mut burst = Vec::new();
        while let Some(t) = batched.pop_batch(&mut burst) {
            for i in burst.drain(..) {
                via_batch.push((t, i));
            }
        }
        prop_assert_eq!(&via_batch, &expect);
        prop_assert_eq!(batched.pending(), 0);
        // pop_batch_before: identical prefix up to the deadline, rest
        // queued.
        let cut = SimTime::from_nanos(deadline);
        let mut via_deadline = Vec::new();
        while let Some(t) = drained.pop_batch_before(cut, &mut burst) {
            via_deadline.extend(burst.drain(..).map(|i| (t, i)));
        }
        let head: Vec<_> = expect.iter().copied().filter(|(t, _)| *t <= cut).collect();
        prop_assert_eq!(&via_deadline, &head);
        prop_assert_eq!(drained.pending(), expect.len() - via_deadline.len());
        prop_assert_eq!(drained.now(), cut, "clock must rest at the deadline");
    }

    /// The engine against a reference queue sorted by `(time, push
    /// index)`: random interleavings of heap, cancellable, full-lane and
    /// compact-lane pushes (lane pushes earlier than the tail included)
    /// and of every draining primitive must yield the same `(time,
    /// event)` sequence, `pending()` and `dispatched()`. Compact-lane
    /// payloads are `u32`s delivered as `u64` events.
    #[test]
    fn engine_matches_a_sorted_reference(
        ops in prop::collection::vec((0u8..11, 0u64..1_000, 0u64..1_000), 1..400),
    ) {
        let mut e: Engine<u64, u32> = Engine::with_compact_lanes(0);
        let lanes: Vec<Lane> = (0..LANES).map(|_| e.add_lane()).collect();
        let compact: Vec<CompactLane> = (0..LANES).map(|_| e.add_compact_lane()).collect();
        let mut tails = [SimTime::ZERO; LANES];
        let mut compact_tails = [SimTime::ZERO; LANES];
        let mut m = EngineModel::default();
        let mut tokens: Vec<(CancelToken, (SimTime, u64))> = Vec::new();
        for (op, a, b) in ops {
            let now = e.now();
            prop_assert_eq!(now, m.now);
            let k = (b as usize) % LANES;
            match op {
                0 => {
                    let at = now + SimDuration::from_nanos(a % 50);
                    e.schedule_at(at, m.pushed);
                    m.push(at);
                }
                1 | 2 => {
                    // One timer, or a burst of sixteen that a later mass
                    // cancel turns into tombstones.
                    let n = if op == 1 { 1 } else { 16 };
                    for i in 0..n {
                        let at = now + SimDuration::from_nanos((a + i * b) % 50);
                        let tok = e.schedule_cancellable(at, m.pushed);
                        tokens.push((tok, m.push(at)));
                    }
                }
                3 if !tokens.is_empty() => {
                    let (tok, key) = tokens[(b as usize) % tokens.len()];
                    let live = m.queue.remove(&key).is_some();
                    prop_assert_eq!(e.cancel(tok), live);
                }
                4 => {
                    // Mass cancel: drives the tombstone count past half
                    // the heap, so the engine compacts it.
                    for (tok, key) in tokens.drain(..) {
                        let live = m.queue.remove(&key).is_some();
                        prop_assert_eq!(e.cancel(tok), live);
                    }
                }
                5 => {
                    let at = lane_time(now, &mut tails[k], a);
                    e.schedule_lane(lanes[k], at, m.pushed);
                    m.push(at);
                }
                6 => {
                    let at = lane_time(now, &mut compact_tails[k], a);
                    let payload = u32::try_from(m.pushed).expect("few pushes");
                    e.schedule_compact(compact[k], at, payload);
                    m.push(at);
                }
                7 => {
                    prop_assert_eq!(e.pop(), m.pop());
                }
                8 => {
                    let mut burst = Vec::new();
                    let got = e.pop_batch(&mut burst).map(|t| (t, burst));
                    prop_assert_eq!(got, m.pop_instant());
                }
                9 => {
                    let deadline = now + SimDuration::from_nanos(a % 30);
                    let mut burst = Vec::new();
                    let got = e.pop_batch_before(deadline, &mut burst);
                    if m.next_time().is_some_and(|t| t <= deadline) {
                        let (t, expect) = m.pop_instant().expect("queued");
                        prop_assert_eq!(got, Some(t));
                        prop_assert_eq!(&burst, &expect);
                    } else {
                        prop_assert_eq!(got, None);
                        prop_assert!(burst.is_empty());
                        m.now = m.now.max(deadline);
                    }
                }
                _ => {
                    // The run loop: bursts until the deadline.
                    let deadline = now + SimDuration::from_nanos(a % 30);
                    let mut expect = Vec::new();
                    while m.next_time().is_some_and(|t| t <= deadline) {
                        expect.push(m.pop().expect("queued"));
                    }
                    m.now = m.now.max(deadline);
                    let mut got = Vec::new();
                    let mut burst = Vec::new();
                    while let Some(t) = e.pop_batch_before(deadline, &mut burst) {
                        got.extend(burst.drain(..).map(|v| (t, v)));
                    }
                    prop_assert_eq!(&got, &expect);
                }
            }
            prop_assert_eq!(e.pending(), m.queue.len());
            prop_assert_eq!(e.dispatched(), m.dispatched);
        }
        // Whatever is left drains in reference order.
        while let Some(expect) = m.pop() {
            prop_assert_eq!(e.pop(), Some(expect));
        }
        prop_assert_eq!(e.pop(), None);
        prop_assert_eq!(e.pending(), 0);
        prop_assert_eq!(e.dispatched(), m.dispatched);
    }

    /// Bucketed throughput conserves the event count.
    #[test]
    fn recorder_conserves_events(stamps in prop::collection::vec(0u64..30_000_000_000u64, 0..500)) {
        let mut rec = ThroughputRecorder::new(SimDuration::from_secs(1));
        for s in &stamps {
            rec.record(SimTime::from_nanos(*s));
        }
        prop_assert_eq!(rec.total(), stamps.len() as u64);
        // The series integrates back to (at most) the same count; events
        // in the final partial bucket are excluded by design.
        let series = rec.series(SimTime::from_secs(31));
        let total: f64 = series.points.iter().map(|(_, v)| v).sum();
        prop_assert!((total - stamps.len() as f64).abs() < 1e-6);
    }

    /// LRU cache never exceeds capacity, and an inserted file is present
    /// until evicted or removed.
    #[test]
    fn lru_capacity_invariant(ops in prop::collection::vec((0u32..50, prop::bool::ANY), 1..300)) {
        let mut cache = LruCache::new(8);
        for (file, touch) in ops {
            if touch {
                cache.touch(file);
            } else {
                let evicted = cache.insert(file);
                prop_assert!(cache.contains(file));
                if let Some(e) = evicted {
                    prop_assert!(!cache.contains(e));
                    prop_assert_ne!(e, file);
                }
            }
            prop_assert!(cache.len() <= 8);
        }
    }

    /// Zipf samples stay in range and the CDF mass function is monotone.
    #[test]
    fn zipf_samples_in_range(n in 1u32..5_000, alpha in 0.0f64..2.0, seed in any::<u64>()) {
        let z = Zipf::new(n, alpha);
        let mut rng = SimRng::seed_from(seed);
        for _ in 0..32 {
            prop_assert!(z.sample(&mut rng) < n);
        }
        let mut last = 0.0;
        for top in [1usize, 2, 5, n as usize] {
            let m = z.mass_of_top(top);
            prop_assert!(m >= last - 1e-12);
            prop_assert!(m <= 1.0 + 1e-9);
            last = m;
        }
    }

    /// Phase-2 invariants: AA in (0,1], breakdown sums to 1-AA, and
    /// performability is monotone in availability.
    #[test]
    fn model_invariants(
        durations in prop::collection::vec(0.0f64..500.0, 7),
        levels in prop::collection::vec(0.0f64..1.5, 7),
        mttf in 10_000.0f64..10_000_000.0,
    ) {
        let tn = 1000.0;
        let mut stages = SevenStage::zeroed();
        for (i, stage) in Stage::ALL.iter().enumerate() {
            stages.set(*stage, durations[i], levels[i] * tn);
        }
        let entry = FaultEntry {
            fault: ModelFault::NodeCrash,
            mttf,
            mttr: 180.0,
            instances: 4,
        };
        let b = FaultBehavior { entry, stages };
        // Skip degenerate loads that violate the single-fault assumption.
        prop_assume!(b.degraded_fraction() < 1.0);
        let behaviors = vec![b];
        let at = average_throughput(tn, &behaviors);
        let aa = average_availability(tn, &behaviors);
        prop_assert!(at <= tn + 1e-9);
        prop_assert!(aa > 0.0 && aa <= 1.0 + 1e-12);
        let sum: f64 = unavailability_breakdown(tn, &behaviors).iter().map(|(_, u)| u).sum();
        prop_assert!((sum - (1.0 - aa)).abs() < 1e-9, "sum {} vs {}", sum, 1.0 - aa);
        if aa < 1.0 {
            let p1 = performability(tn, aa, 0.99999);
            let p2 = performability(tn, (aa + 1.0) / 2.0, 0.99999);
            prop_assert!(p2 >= p1 - 1e-9, "P must improve with availability");
        }
    }

    /// Stage-C rescaling preserves every other stage and never goes
    /// negative.
    #[test]
    fn scaled_to_repair_is_safe(
        a in 0.0f64..100.0,
        b in 0.0f64..100.0,
        c in 0.0f64..1000.0,
        mttr in 0.0f64..2000.0,
    ) {
        let mut st = SevenStage::zeroed();
        st.set(Stage::A, a, 1.0);
        st.set(Stage::B, b, 2.0);
        st.set(Stage::C, c, 3.0);
        st.set(Stage::D, 5.0, 4.0);
        let scaled = st.scaled_to_repair(mttr);
        prop_assert!(scaled.get(Stage::C).duration >= 0.0);
        prop_assert!((scaled.get(Stage::C).duration - (mttr - a - b).max(0.0)).abs() < 1e-9);
        prop_assert_eq!(scaled.get(Stage::A).duration, a);
        prop_assert_eq!(scaled.get(Stage::B).duration, b);
        prop_assert_eq!(scaled.get(Stage::D).duration, 5.0);
    }

    /// TCP delivers every cleanly-sent message exactly once, in order,
    /// under an arbitrary pattern of segment losses, duplicates and
    /// reorderings — retransmission and reassembly recover everything.
    /// `shuffle[r]` seeds a permutation of round `r`'s frame batch;
    /// `loss` and `dup` flag the frames in the order they are handled.
    #[test]
    fn tcp_delivers_exactly_once_under_loss(
        sizes in prop::collection::vec(1u32..20_000, 1..20),
        loss in prop::collection::vec(prop::bool::ANY, 0..12),
        dup in prop::collection::vec(prop::bool::ANY, 0..12),
        shuffle in prop::collection::vec(any::<u64>(), 0..16),
    ) {
        let mut a: TcpStack<u32> = TcpStack::new(NodeId(0), CostModel::tcp());
        let mut b: TcpStack<u32> = TcpStack::new(NodeId(1), CostModel::tcp());

        // Drive a tiny event loop by hand: effects -> frames/timers.
        let mut now = SimTime::ZERO;
        let mut frames = Vec::new();
        let mut timers = Vec::new();
        let mut delivered = Vec::new();
        let mut effects = Vec::new();

        // Establish the connection reliably; the loss pattern applies to
        // the data phase (losing every SYN legitimately aborts
        // establishment, which is not the property under test).
        let mut out = Effects::default();
        a.open(now, NodeId(1), &mut out);
        effects.extend(out.drain());
        while !effects.is_empty() {
            for e in std::mem::take(&mut effects) {
                if let Effect::Transmit(f) = e {
                    let mut out = Effects::default();
                    if f.dst == NodeId(1) {
                        b.frame_arrived(now, f, &mut out);
                    } else {
                        a.frame_arrived(now, f, &mut out);
                    }
                    effects.extend(out.drain());
                }
            }
        }
        prop_assert!(a.is_connected(NodeId(1)));

        let mut sent = 0usize;
        let mut loss_iter = loss.into_iter();
        let mut dup_iter = dup.into_iter();
        for round in 0..400 {
            // Feed pending sends while the buffer accepts them.
            while sent < sizes.len() {
                let mut out = Effects::default();
                let st = a.send(
                    now,
                    NodeId(1),
                    MsgClass::FileData,
                    sent as u32,
                    sizes[sent],
                    CallParams::default(),
                    &mut out,
                );
                effects.extend(out.drain());
                match st {
                    SendStatus::Accepted => sent += 1,
                    _ => break,
                }
            }
            // Route effects.
            for e in std::mem::take(&mut effects) {
                match e {
                    Effect::Transmit(f) => frames.push(f),
                    Effect::SetTimer { at, key } => timers.push((at, key)),
                    Effect::Upcall(Upcall::Deliver { msg, .. }) => delivered.push(msg),
                    _ => {}
                }
            }
            // Reorder the batch, then drop, deliver or duplicate each frame.
            let mut batch = std::mem::take(&mut frames);
            if let Some(&seed) = shuffle.get(round) {
                let mut rng = SimRng::seed_from(seed);
                for i in (1..batch.len()).rev() {
                    batch.swap(i, rng.below(i as u64 + 1) as usize);
                }
            }
            for f in batch {
                if loss_iter.next().unwrap_or(false) {
                    continue; // lost
                }
                let copies = if dup_iter.next().unwrap_or(false) { 2 } else { 1 };
                for f in std::iter::repeat_n(f, copies) {
                    let mut out = Effects::default();
                    if f.dst == NodeId(1) {
                        b.frame_arrived(now, f, &mut out);
                    } else {
                        a.frame_arrived(now, f, &mut out);
                    }
                    effects.extend(out.drain());
                }
            }
            // If idle, fire the earliest timer to force retransmission.
            if effects.is_empty() && frames.is_empty() {
                timers.sort_by_key(|(at, _)| *at);
                if timers.is_empty() {
                    break;
                }
                let (at, key) = timers.remove(0);
                now = now.max(at);
                let mut out = Effects::default();
                if key.node == NodeId(0) {
                    a.timer_fired(now, key, &mut out);
                } else {
                    b.timer_fired(now, key, &mut out);
                }
                effects.extend(out.drain());
            }
            if delivered.len() == sizes.len() && sent == sizes.len() {
                break;
            }
        }
        let expected: Vec<u32> = (0..sizes.len() as u32).collect();
        prop_assert_eq!(delivered, expected, "in-order exactly-once delivery");
    }
}
