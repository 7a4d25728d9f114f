//! Property-based tests on the core data structures and invariants.

use cluster_performability::performability::fault_load::{FaultEntry, ModelFault};
use cluster_performability::performability::metric::performability;
use cluster_performability::performability::model::{
    average_availability, average_throughput, unavailability_breakdown, FaultBehavior,
};
use cluster_performability::performability::stages::{SevenStage, Stage};
use cluster_performability::press::cache::LruCache;
use cluster_performability::simnet::{Engine, SimDuration, SimRng, SimTime, ThroughputRecorder};
use cluster_performability::transport::tcp::{TcpConfig, TcpStack};
use cluster_performability::transport::{
    CallParams, CostModel, Effect, MsgClass, SendStatus, Substrate, Upcall,
};
use cluster_performability::workload::Zipf;
use proptest::prelude::*;
use simnet::fabric::NodeId;

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
        let mut a: TcpStack<u32> = TcpStack::new(NodeId(0), TcpConfig::default(), CostModel::tcp());
        let mut b: TcpStack<u32> = TcpStack::new(NodeId(1), TcpConfig::default(), CostModel::tcp());

        // Drive a tiny event loop by hand: effects -> frames/timers.
        let mut now = SimTime::ZERO;
        let mut frames = Vec::new();
        let mut timers = Vec::new();
        let mut delivered = Vec::new();
        let mut effects = Vec::new();

        // Establish the connection reliably; the loss pattern applies to
        // the data phase (losing every SYN legitimately aborts
        // establishment, which is not the property under test).
        a.open(now, NodeId(1), &mut effects);
        while !effects.is_empty() {
            for e in std::mem::take(&mut effects) {
                if let Effect::Transmit(f) = e {
                    let mut out = Vec::new();
                    if f.dst == NodeId(1) {
                        b.frame_arrived(now, f, &mut out);
                    } else {
                        a.frame_arrived(now, f, &mut out);
                    }
                    effects.extend(out);
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
                let mut out = Vec::new();
                let st = a.send(
                    now,
                    NodeId(1),
                    MsgClass::FileData,
                    sent as u32,
                    sizes[sent],
                    CallParams::default(),
                    &mut out,
                );
                effects.extend(out);
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
                    let mut out = Vec::new();
                    if f.dst == NodeId(1) {
                        b.frame_arrived(now, f, &mut out);
                    } else {
                        a.frame_arrived(now, f, &mut out);
                    }
                    effects.extend(out);
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
                let mut out = Vec::new();
                if key.node == NodeId(0) {
                    a.timer_fired(now, key, &mut out);
                } else {
                    b.timer_fired(now, key, &mut out);
                }
                effects.extend(out);
            }
            if delivered.len() == sizes.len() && sent == sizes.len() {
                break;
            }
        }
        let expected: Vec<u32> = (0..sizes.len() as u32).collect();
        prop_assert_eq!(delivered, expected, "in-order exactly-once delivery");
    }
}
