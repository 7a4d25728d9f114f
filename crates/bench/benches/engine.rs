//! Microbenchmarks of the discrete-event engine and the seeded RNG —
//! the substrate every experiment's wall-clock time hangs on.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use simnet::{Engine, Lane, SimDuration, SimRng, SimTime};
use std::hint::black_box;

fn engine_schedule_pop(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine");
    for n in [1_000u64, 100_000] {
        group.throughput(Throughput::Elements(n));
        group.bench_function(format!("schedule_pop_{n}"), |b| {
            b.iter_batched(
                Engine::new,
                |mut engine| {
                    // Interleaved schedule/pop with a pseudo-random time
                    // pattern, like a live simulation.
                    let mut t = 0u64;
                    for i in 0..n {
                        t = t.wrapping_mul(6364136223846793005).wrapping_add(i) % 1_000_000_000;
                        engine.schedule_at(SimTime::from_nanos(engine.now().as_nanos() + t), i);
                        if i % 2 == 0 {
                            black_box(engine.pop());
                        }
                    }
                    while let Some(ev) = engine.pop() {
                        black_box(ev);
                    }
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn engine_pop_batch(c: &mut Criterion) {
    // Same-instant bursts drained the way `ClusterSim::run_until` does:
    // one `pop_batch` call per instant instead of one `pop` per event.
    let mut group = c.benchmark_group("engine");
    let n = 100_000u64;
    group.throughput(Throughput::Elements(n));
    group.bench_function("pop_batch_100k", |b| {
        b.iter_batched(
            || {
                let mut engine = Engine::with_capacity(n as usize);
                for i in 0..n {
                    // Ten events per instant, like a frame burst.
                    engine.schedule_at(SimTime::from_nanos((i / 10) * 1_000), i);
                }
                engine
            },
            |mut engine| {
                let mut burst = Vec::with_capacity(16);
                while engine.pop_batch(&mut burst).is_some() {
                    for ev in burst.drain(..) {
                        black_box(ev);
                    }
                }
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

/// A 48-byte event, the size of the cluster's queued event type.
#[derive(Debug, Clone, Copy)]
struct WideEvent([u64; 6]);

/// A 16-byte payload, the size of the cluster's compact timeout.
#[derive(Debug, Clone, Copy)]
struct Timeout(u64, u64);

impl From<Timeout> for WideEvent {
    fn from(t: Timeout) -> Self {
        WideEvent([t.0, t.1, 0, 0, 0, 0])
    }
}

/// Where the timeout-stream benchmark queues its timeouts.
#[derive(Clone, Copy)]
enum TimeoutQueue {
    Heap,
    Lane,
    Compact,
}

fn engine_timeout_stream(c: &mut Criterion) {
    // A constant-offset timeout stream (request deadlines, forward
    // watchdogs: always `now + T`) in steady state — the workload the
    // monotone lanes exist for, benched against the general heap. The
    // events are 48 bytes like the cluster's; the compact lane parks
    // each one as a 16-byte payload.
    let mut group = c.benchmark_group("engine");
    let n = 100_000u64;
    group.throughput(Throughput::Elements(n));
    for (name, queue) in [
        ("timeout_stream_heap", TimeoutQueue::Heap),
        ("timeout_stream_lane", TimeoutQueue::Lane),
        ("timeout_stream_compact", TimeoutQueue::Compact),
    ] {
        group.bench_function(name, |b| {
            b.iter_batched(
                || {
                    let mut engine: Engine<WideEvent, Timeout> = Engine::with_compact_lanes(2048);
                    let lanes = (engine.add_lane(), engine.add_compact_lane());
                    for i in 0..1_000u64 {
                        engine.schedule_at(SimTime::from_nanos(i * 1_000), WideEvent([i; 6]));
                    }
                    (engine, lanes)
                },
                |(mut engine, (lane, compact))| {
                    for _ in 0..n {
                        let (t, v) = engine.pop().expect("steady state");
                        let at = t + SimDuration::from_secs(6);
                        match queue {
                            TimeoutQueue::Heap => engine.schedule_at(at, v),
                            TimeoutQueue::Lane => engine.schedule_lane(lane, at, v),
                            TimeoutQueue::Compact => {
                                engine.schedule_compact(compact, at, Timeout(v.0[0], v.0[1]))
                            }
                        }
                    }
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

/// Completion streams of the backlog benchmark (a node's CPU and disk
/// pair, four nodes).
const STREAMS: u64 = 8;

fn engine_backlog_lanes(c: &mut Criterion) {
    // The shape of a cluster under faults: every node's CPU and disk
    // queues are backed up, so eight completion streams hold ~30k
    // events between them, each stream's times non-decreasing (a busy
    // server stamps `busy_until += service`). Beside them runs a
    // short-horizon frame stream that reschedules itself 20 us out.
    // Heap-only, every push and pop sifts through the whole backlog;
    // with one lane per stream the heap holds eight lane heads plus the
    // frames.
    let mut group = c.benchmark_group("engine");
    let n = 100_000u64;
    let backlog_per_stream = 3_750u64;
    let service = SimDuration::from_micros(40);
    let frame_hop = SimDuration::from_micros(20);
    group.throughput(Throughput::Elements(n));
    for (name, use_lanes) in [("backlog_lanes/heap", false), ("backlog_lanes/lanes", true)] {
        group.bench_function(name, |b| {
            b.iter_batched(
                || {
                    let mut engine = Engine::with_capacity(40_000);
                    let lanes: Vec<Lane> = (0..STREAMS).map(|_| engine.add_lane()).collect();
                    let mut busy = vec![SimTime::ZERO; STREAMS as usize];
                    for _ in 0..backlog_per_stream {
                        for k in 0..STREAMS {
                            let done = &mut busy[k as usize];
                            *done = *done + service + SimDuration::from_nanos(k);
                            if use_lanes {
                                engine.schedule_lane(lanes[k as usize], *done, k);
                            } else {
                                engine.schedule_at(*done, k);
                            }
                        }
                    }
                    for i in 0..64u64 {
                        engine.schedule_at(SimTime::from_nanos(i * 300), STREAMS);
                    }
                    (engine, lanes, busy)
                },
                |(mut engine, lanes, mut busy)| {
                    for _ in 0..n {
                        let (t, v) = engine.pop().expect("steady state");
                        if v == STREAMS {
                            engine.schedule_at(t + frame_hop, v);
                            continue;
                        }
                        // The stream's server takes on one more job.
                        let done = &mut busy[v as usize];
                        *done = (*done).max(t) + service;
                        if use_lanes {
                            engine.schedule_lane(lanes[v as usize], *done, v);
                        } else {
                            engine.schedule_at(*done, v);
                        }
                    }
                    black_box(engine.pending())
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn engine_cancel(c: &mut Criterion) {
    // Schedule cancellable timers and cancel half before they fire —
    // the retransmit-supersession pattern the timer index produces.
    let mut group = c.benchmark_group("engine");
    let n = 100_000u64;
    group.throughput(Throughput::Elements(n));
    group.bench_function("schedule_cancel_pop_100k", |b| {
        b.iter_batched(
            || Engine::<u64>::with_capacity(n as usize),
            |mut engine| {
                let mut last = None;
                for i in 0..n {
                    let tok =
                        engine.schedule_cancellable(SimTime::from_nanos(1_000_000 + i * 100), i);
                    // Each new timer supersedes the previous one.
                    if let Some(prev) = last.replace(tok) {
                        engine.cancel(prev);
                    }
                }
                while let Some(ev) = engine.pop() {
                    black_box(ev);
                }
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn engine_dense_same_time(c: &mut Criterion) {
    c.bench_function("engine/fifo_ties_10k", |b| {
        b.iter_batched(
            Engine::new,
            |mut engine| {
                let t = SimTime::from_secs(1);
                for i in 0..10_000 {
                    engine.schedule_at(t, i);
                }
                while let Some(ev) = engine.pop() {
                    black_box(ev);
                }
            },
            BatchSize::SmallInput,
        )
    });
}

fn rng_sampling(c: &mut Criterion) {
    let mut group = c.benchmark_group("rng");
    group.throughput(Throughput::Elements(1));
    group.bench_function("exponential", |b| {
        let mut rng = SimRng::seed_from(1);
        b.iter(|| black_box(rng.exponential(5_000.0)))
    });
    group.bench_function("uniform", |b| {
        let mut rng = SimRng::seed_from(1);
        b.iter(|| black_box(rng.uniform()))
    });
    group.finish();
}

fn throughput_recorder(c: &mut Criterion) {
    c.bench_function("stats/record_100k", |b| {
        b.iter_batched(
            || simnet::ThroughputRecorder::new(SimDuration::from_secs(1)),
            |mut rec| {
                for i in 0..100_000u64 {
                    rec.record(SimTime::from_nanos(i * 3_000));
                }
                black_box(rec.total())
            },
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(
    benches,
    engine_schedule_pop,
    engine_pop_batch,
    engine_timeout_stream,
    engine_backlog_lanes,
    engine_cancel,
    engine_dense_same_time,
    rng_sampling,
    throughput_recorder
);
criterion_main!(benches);
