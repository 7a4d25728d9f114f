//! Microbenchmarks for the conservative-parallel window engine.
//!
//! Three questions, measured separately so a regression points at one
//! layer:
//!
//! 1. `window_sync` — what does draining the queue in lookahead-sized
//!    windows (`pop_window` + replay accounting) cost over the
//!    sequential `pop_batch_before` burst loop, before any threads or
//!    shard state enter the picture?
//! 2. `cross_shard_mailbox` — how fast can events be fanned out to
//!    per-shard inboxes and merged back into one `(time, seq)`-ordered
//!    stream (the facade's replay merge)?
//! 3. `table1_sim_threads` — the end-to-end number: one simulated
//!    second of the fault-free table-1 workload at 1, 2, and 4 sim
//!    threads. On a single-core host the >1 rows price the
//!    coordination overhead; on a multi-core host they show the
//!    speedup.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use experiments::{ClusterConfig, ClusterSim};
use press::PressVersion;
use simnet::{Engine, Lane, SimDuration, SimTime};

/// Events per iteration for the synthetic queue benchmarks.
const N: u64 = 100_000;

/// A self-rescheduling workload: every popped event re-queues itself a
/// fixed fabric-like latency later, alternating the heap and a monotone
/// lane, so both drain strategies process exactly `N` events over
/// identical queue shapes.
fn seed_engine() -> (Engine<u64>, Lane) {
    let mut e = Engine::with_capacity(1024);
    let lane = e.add_lane();
    for i in 0..512u64 {
        e.schedule_at(SimTime::from_nanos(100 + i * 37), i);
    }
    (e, lane)
}

fn resched(e: &mut Engine<u64>, lane: Lane, t: SimTime, v: u64) {
    if v.is_multiple_of(2) {
        e.schedule_at(t + SimDuration::from_micros(29), v);
    } else {
        e.schedule_lane(lane, t + SimDuration::from_micros(40), v);
    }
}

fn window_sync(c: &mut Criterion) {
    let mut group = c.benchmark_group("window_sync");
    group.throughput(Throughput::Elements(N));

    // Baseline: the sequential burst loop exactly as `run_until` runs it.
    group.bench_function("sequential_pop_batch", |b| {
        b.iter_batched(
            seed_engine,
            |(mut e, lane)| {
                let mut batch = Vec::new();
                let mut left = N;
                'outer: while let Some(t) = e.pop_batch_before(SimTime::MAX, &mut batch) {
                    for v in batch.drain(..) {
                        resched(&mut e, lane, t, v);
                        left -= 1;
                        if left == 0 {
                            break 'outer;
                        }
                    }
                }
                black_box(e.dispatched())
            },
            BatchSize::SmallInput,
        )
    });

    // Windowed: drain in 20us windows (a fabric-lookahead-sized slice
    // of this workload) through `pop_window`, with the driver-side
    // clock and dispatch accounting the replay loop performs.
    group.bench_function("windowed_pop_window", |b| {
        b.iter_batched(
            seed_engine,
            |(mut e, lane)| {
                let window = SimDuration::from_micros(20);
                let mut out: Vec<(SimTime, u64, u64)> = Vec::new();
                let mut left = N;
                'outer: loop {
                    let bound = e.now() + window;
                    e.pop_window(bound, &mut out);
                    for (t, _seq, v) in out.drain(..) {
                        resched(&mut e, lane, t, v);
                        e.note_dispatched(1);
                        left -= 1;
                        if left == 0 {
                            break 'outer;
                        }
                    }
                    e.advance_now(bound);
                }
                black_box(e.dispatched())
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn cross_shard_mailbox(c: &mut Criterion) {
    let mut group = c.benchmark_group("cross_shard_mailbox");
    group.throughput(Throughput::Elements(N));
    for shards in [2usize, 4, 8] {
        group.bench_function(format!("fanout_merge_{shards}_shards"), |b| {
            b.iter_batched(
                || vec![Vec::<(SimTime, u64, u64)>::new(); shards],
                |mut inboxes| {
                    // Fan-out: the facade distributing a drained window
                    // to shard inboxes in global order.
                    for i in 0..N {
                        let t = SimTime::from_nanos(1 + i * 13);
                        inboxes[(i as usize) % shards].push((t, i, i));
                    }
                    // Merge-back: the replay's (time, seq)-ordered
                    // k-way merge over shard outputs.
                    let mut heap: BinaryHeap<Reverse<(SimTime, u64, usize, usize)>> =
                        BinaryHeap::with_capacity(shards);
                    for (s, inbox) in inboxes.iter().enumerate() {
                        if let Some(&(t, seq, _)) = inbox.first() {
                            heap.push(Reverse((t, seq, s, 0)));
                        }
                    }
                    let mut sum = 0u64;
                    while let Some(Reverse((_, seq, s, i))) = heap.pop() {
                        sum = sum.wrapping_add(seq);
                        if let Some(&(t, seq, _)) = inboxes[s].get(i + 1) {
                            heap.push(Reverse((t, seq, s, i + 1)));
                        }
                    }
                    for inbox in &mut inboxes {
                        inbox.clear();
                    }
                    black_box(sum)
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn table1_sim_threads(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1_sim_threads");
    group.sample_size(10);
    for threads in [1usize, 2, 4] {
        for version in [PressVersion::Tcp, PressVersion::Via5] {
            group.bench_function(format!("{}_t{threads}", version.name()), |b| {
                b.iter_batched(
                    || {
                        let mut config = ClusterConfig::small(version);
                        config.sim_threads = threads;
                        let mut sim = ClusterSim::new(config, 1);
                        sim.run_until(SimTime::from_secs(2)); // warm
                        sim
                    },
                    |mut sim| {
                        let until = sim.now() + SimDuration::from_secs(1);
                        sim.run_until(until);
                        black_box(sim.events_dispatched())
                    },
                    BatchSize::SmallInput,
                )
            });
        }
    }
    group.finish();
}

criterion_group!(benches, window_sync, cross_shard_mailbox, table1_sim_threads);
criterion_main!(benches);
