//! Allocation counting for the steady-state hot path and set-up.
//!
//! [`CountingAlloc`] counts every heap allocation in the process and the
//! bytes asked for; a binary installs it as its `#[global_allocator]`
//! and then calls [`check_all`], which fails (panics) if a second
//! cluster build rebuilds the popularity table, or a warm engine, a warm
//! slab or the whole-cluster event loop allocates more than its budget. Two
//! binaries do so: the `cluster` criterion bench and the `allocations`
//! test, which `scripts/verify.sh` runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use experiments::{ClusterConfig, ClusterSim};
use press::PressVersion;
use simnet::{CompactLane, Engine, Frame, Lane, NodeId, SimDuration, SimTime, Slab};

/// A pass-through allocator over [`System`] that counts allocations and
/// the bytes they ask for.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every call forwards to `System` with the same arguments; the
// counters are relaxed atomics with no effect on the allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }
}

/// Allocations counted so far (zero unless [`CountingAlloc`] is the
/// global allocator).
pub fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Bytes asked for so far, a reallocation counting its new size (zero
/// unless [`CountingAlloc`] is the global allocator).
pub fn bytes_allocated() -> u64 {
    BYTES.load(Ordering::Relaxed)
}

/// Operations per measured window.
const OPS: u64 = 100_000;

/// Runs every check, printing one line each.
///
/// # Panics
///
/// Panics if a check exceeds its budget, or if [`CountingAlloc`] is not
/// installed (the checks would pass vacuously).
pub fn check_all() {
    let probe = allocations();
    drop(std::hint::black_box(vec![0u8; 16]));
    assert!(
        allocations() > probe,
        "CountingAlloc is not the global allocator"
    );
    check_setup();
    check_engine();
    check_frame_slab();
    check_cluster();
}

/// A second build of one config does not rebuild the Zipf popularity
/// table: it asks for at least the table's `files × 8` bytes fewer than
/// the first. It must run before any other simulation of the process, so
/// the first build is the one that builds the table.
pub fn check_setup() {
    let config = ClusterConfig::paper_defaults(PressVersion::TcpHb);
    let table = u64::from(config.press.files) * 8;
    let build = || {
        let before = bytes_allocated();
        drop(ClusterSim::new(config.clone(), 1));
        bytes_allocated() - before
    };
    let (first, second) = (build(), build());
    println!(
        "alloc-counter: set-up of {} files: {first} bytes, then {second} bytes",
        config.press.files
    );
    assert!(
        second + table <= first,
        "the second set-up asked for {second} bytes against the first's \
         {first}: it rebuilt the {table}-byte popularity table"
    );
}

/// One step of the engine workload: re-queues the popped event `v` on
/// the heap, as a cancellable timer (with a superseded twin cancelled
/// at once), on one of three fixed-offset timeout lanes (two full, one
/// compact), or on a busy-server completion lane.
fn engine_step(
    engine: &mut Engine<u64, u32>,
    lanes: &[Lane; 3],
    compact: CompactLane,
    busy: &mut SimTime,
    t: SimTime,
    v: u64,
) {
    match v % 4 {
        0 => {
            let at = t + SimDuration::from_secs(6);
            match v / 4 % 3 {
                2 => engine.schedule_compact(compact, at, u32::try_from(v).expect("small payload")),
                k => engine.schedule_lane(lanes[k as usize], at, v),
            }
        }
        1 => engine.schedule_at(t + SimDuration::from_millis(1), v),
        2 => {
            engine.schedule_cancellable(t + SimDuration::from_millis(2), v);
            let twin = engine.schedule_cancellable(t + SimDuration::from_millis(3), v);
            engine.cancel(twin);
        }
        _ => {
            *busy = (*busy).max(t) + SimDuration::from_micros(300);
            engine.schedule_lane(lanes[2], *busy, v);
        }
    }
}

/// A warm engine with three full lanes, a compact lane, the heap and
/// cancellation performs no allocation over 100k pop + push pairs.
pub fn check_engine() {
    let mut engine = Engine::with_compact_lanes(4096);
    let lanes = [(); 3].map(|_| engine.add_lane());
    let compact = engine.add_compact_lane();
    let mut busy = SimTime::ZERO;
    for i in 0..1_024u64 {
        engine.schedule_at(SimTime::from_nanos(i * 1_000), i);
    }
    let mut run = |engine: &mut Engine<u64, u32>| {
        for _ in 0..OPS {
            let (t, v) = engine.pop().expect("steady state");
            engine_step(engine, &lanes, compact, &mut busy, t, v);
        }
    };
    // Warm the heap, every lane and the slab and slot free lists.
    run(&mut engine);
    let before = allocations();
    run(&mut engine);
    let n = allocations() - before;
    assert_eq!(
        n, 0,
        "warm engine allocated {n} times over {OPS} pop+push pairs"
    );
    assert_eq!(engine.pending(), 1_024);
    println!(
        "alloc-counter: engine with 3 lanes and 1 compact lane: 0 allocations / {OPS} pop+push"
    );
}

/// A warm frame slab re-parks frames without allocating.
pub fn check_frame_slab() {
    let frame = |i: u64| Frame {
        src: NodeId(0),
        dst: NodeId(1),
        bytes: 1_500,
        payload: i,
    };
    let mut slab = Slab::new();
    let mut handles: Vec<u32> = (0..256).map(|i| slab.insert(frame(i))).collect();
    let mut run = |slab: &mut Slab<Frame<u64>>| {
        for i in 0..OPS {
            let k = (i.wrapping_mul(0x9E37_79B9) % 256) as usize;
            let f = slab.take(handles[k]);
            handles[k] = slab.insert(frame(f.payload + 1));
        }
    };
    // Warm the free list.
    run(&mut slab);
    let before = allocations();
    run(&mut slab);
    let n = allocations() - before;
    assert_eq!(
        n, 0,
        "warm frame slab allocated {n} times over {OPS} take+park pairs"
    );
    assert_eq!(slab.len(), 256);
    println!("alloc-counter: frame slab: 0 allocations / {OPS} take+park");
}

/// Whole-cluster steady state: one simulated second after warm-up.
///
/// The loop machinery (work queue, fx/app scratch, `Effects` pool,
/// batch buffer, engine lanes, frame slab) is allocation-free; what
/// remains in TCP is one `Vec` per data segment, the message records
/// `SendQueue::records` copies into it (1,260 allocations in 5,152
/// events, 0.2446 per event, at `ClusterConfig::small`), so the bound
/// is a calibrated residual, not zero. Before the scratch-reuse rework
/// the loop alone cost 3+ allocations per event. VIA's bound is
/// tighter: it sends whole messages, with no segment records to copy
/// (it measures zero) — the same kernel-overhead asymmetry the paper
/// measures.
pub fn check_cluster() {
    for (version, bound) in [(PressVersion::Tcp, 0.3), (PressVersion::Via5, 0.1)] {
        let mut sim = ClusterSim::new(ClusterConfig::small(version), 1);
        sim.run_until(SimTime::from_secs(3));
        let (a0, e0) = (allocations(), sim.events_dispatched());
        sim.run_until(SimTime::from_secs(4));
        let delta_allocs = allocations() - a0;
        let delta_events = sim.events_dispatched() - e0;
        let per_event = delta_allocs as f64 / delta_events as f64;
        println!(
            "alloc-counter: {} steady state: {delta_allocs} allocations / \
             {delta_events} events = {per_event:.4} per event",
            version.name()
        );
        assert!(
            per_event < bound,
            "{}: {per_event:.4} allocations per event exceeds the \
             {bound}/event residual budget — the loop itself must stay \
             allocation-free",
            version.name()
        );
    }
}
