//! Benchmarks of PRESS's cooperative-caching data structures and the
//! workload generator.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use press::cache::{Directory, LruCache};
use simnet::fabric::NodeId;
use simnet::SimRng;
use std::hint::black_box;
use workload::Zipf;

fn lru_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("lru");
    group.throughput(Throughput::Elements(1));
    group.bench_function("insert_churn_16k", |b| {
        let mut cache = LruCache::new(16_384);
        for f in 0..16_384 {
            cache.insert(f);
        }
        let mut f = 16_384u32;
        b.iter(|| {
            f = f.wrapping_add(1) % 60_000;
            black_box(cache.insert(f))
        })
    });
    group.bench_function("touch_hot", |b| {
        let mut cache = LruCache::new(16_384);
        for f in 0..16_384 {
            cache.insert(f);
        }
        let mut f = 0u32;
        b.iter(|| {
            f = (f + 37) % 16_384;
            black_box(cache.touch(f))
        })
    });
    group.finish();
}

fn directory_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("directory");
    group.bench_function("add_remove", |b| {
        let mut d = Directory::new(60_000);
        let mut f = 0u32;
        b.iter(|| {
            f = (f + 101) % 60_000;
            d.add(f, NodeId((f % 4) as usize));
            d.remove(f, NodeId((f % 4) as usize));
        })
    });
    group.bench_function("holders_route", |b| {
        // A 16-node directory over the 240k-file scale document set,
        // one or two holders per file: the least-loaded pick `route`
        // makes on every non-local request.
        const FILES: u32 = 240_000;
        let mut d = Directory::new(FILES);
        for f in 0..FILES {
            d.add(f, NodeId((f % 16) as usize));
            if f % 3 == 0 {
                d.add(f, NodeId((f / 3 % 16) as usize));
            }
        }
        let load: Vec<u32> = (0..16).map(|n| (n * 7) % 5).collect();
        let mut f = 0u32;
        b.iter(|| {
            f = (f + 7_919) % FILES;
            black_box(d.holders(f).filter(|n| n.0 != 0).min_by_key(|n| load[n.0]))
        })
    });
    group.bench_function("drop_node_60k_files", |b| {
        b.iter_batched(
            || {
                let mut d = Directory::new(60_000);
                for f in 0..60_000 {
                    d.add(f, NodeId((f % 4) as usize));
                }
                d
            },
            |mut d| {
                d.drop_node(NodeId(3));
                black_box(d.entries())
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("drop_node_240k_files_16_nodes", |b| {
        // The 16-node scale directory: half the files cached on one
        // node, a third of those on a second, a ninth on a third
        // (spilled). Dropping a node walks every slot once.
        const FILES: u32 = 240_000;
        b.iter_batched(
            || {
                let mut d = Directory::new(FILES);
                for f in (0..FILES).step_by(2) {
                    d.add(f, NodeId((f % 16) as usize));
                    if f % 3 == 0 {
                        d.add(f, NodeId((f / 3 % 16) as usize));
                    }
                    if f % 9 == 0 {
                        d.add(f, NodeId((f / 9 % 16) as usize));
                    }
                }
                d
            },
            |mut d| {
                d.drop_node(NodeId(3));
                black_box(d.entries())
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

/// Draws timed per batch, so the clock's own cost stays out of the rate.
const DRAWS: u64 = 1_000;

fn zipf_sampling(c: &mut Criterion) {
    let mut group = c.benchmark_group("zipf");
    group.throughput(Throughput::Elements(DRAWS));
    for n in [6_000u32, 60_000, 240_000, 960_000] {
        group.bench_function(format!("sample_{n}"), |b| {
            let z = Zipf::new(n, 0.8);
            let mut rng = SimRng::seed_from(1);
            b.iter(|| {
                for _ in 0..DRAWS {
                    black_box(z.sample(&mut rng));
                }
            })
        });
    }
    group.throughput(Throughput::Elements(1));
    group.bench_function("new_240000", |b| {
        b.iter(|| black_box(Zipf::new(240_000, 0.8)))
    });
    // A memo hit, as every simulation after the first of a config sees.
    group.bench_function("shared_240000", |b| {
        Zipf::shared(240_000, 0.8);
        b.iter(|| black_box(Zipf::shared(240_000, 0.8)))
    });
    group.finish();
}

criterion_group!(benches, lru_ops, directory_ops, zipf_sampling);
criterion_main!(benches);
