//! Whole-cluster benchmarks: how fast the simulation itself runs. One
//! simulated second of the shrunk test-bed per iteration, for each
//! PRESS version — the macro number that bounds every experiment's
//! wall-clock time.

use bench::alloc_counter::CountingAlloc;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use experiments::{ClusterConfig, ClusterSim};
use press::PressVersion;
use simnet::{SimDuration, SimTime};
use std::hint::black_box;

/// Counts every heap allocation in the process so the steady-state hot
/// path can be *measured* for allocation-freedom, not just eyeballed.
#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Not a timing benchmark: hard verification that the warm engine (with
/// lanes), the frame slab and the whole-cluster event loop stay within
/// their allocation budgets (see `bench::alloc_counter`). Panics,
/// failing the bench run, on any overrun.
fn allocation_counter(_c: &mut Criterion) {
    bench::alloc_counter::check_all();
}

fn cluster_second(c: &mut Criterion) {
    let mut group = c.benchmark_group("cluster_sim_second");
    group.sample_size(10);
    for version in [PressVersion::Tcp, PressVersion::Via0, PressVersion::Via5] {
        group.bench_function(version.name(), |b| {
            b.iter_batched(
                || {
                    let mut sim = ClusterSim::new(ClusterConfig::small(version), 1);
                    sim.run_until(SimTime::from_secs(2)); // warm
                    sim
                },
                |mut sim| {
                    let until = sim.now() + SimDuration::from_secs(1);
                    sim.run_until(until);
                    black_box(sim.report().availability.attempts)
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn drain_work_hot_path(c: &mut Criterion) {
    // 100 simulated milliseconds of a warm cluster per iteration: short
    // enough to sample the handle/drain_work scratch path tightly,
    // without boot or prewarm noise.
    let mut group = c.benchmark_group("drain_work_100ms");
    for version in [PressVersion::Tcp, PressVersion::Via5] {
        group.bench_function(version.name(), |b| {
            b.iter_batched(
                || {
                    let mut sim = ClusterSim::new(ClusterConfig::small(version), 1);
                    sim.run_until(SimTime::from_secs(2)); // warm
                    sim
                },
                |mut sim| {
                    let until = sim.now() + SimDuration::from_millis(100);
                    sim.run_until(until);
                    black_box(sim.events_dispatched())
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn cluster_boot(c: &mut Criterion) {
    let mut group = c.benchmark_group("cluster_boot");
    group.sample_size(10);
    group.bench_function("build_and_prewarm", |b| {
        b.iter(|| black_box(ClusterSim::new(ClusterConfig::small(PressVersion::Via5), 1)))
    });
    group.finish();
}

criterion_group!(
    benches,
    allocation_counter,
    cluster_second,
    drain_work_hot_path,
    cluster_boot
);
criterion_main!(benches);
