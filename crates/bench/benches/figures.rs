//! One benchmark per reproduced table/figure, on the shrunk test-bed:
//! regenerating each artifact end-to-end (simulation + extraction +
//! analytics). These are the "can we rebuild the paper" macro numbers;
//! the full-scale regeneration lives in `repro -- all`.

use criterion::{criterion_group, criterion_main, Criterion};
use experiments::evaluate;
use experiments::figures::{table1, timeline_results};
use experiments::phase2::{version_profile, RunScale};
use performability::fault_load::{paper_fault_load, DAY};
use press::PressVersion;
use std::hint::black_box;

fn bench_tables(c: &mut Criterion) {
    let mut group = c.benchmark_group("repro");
    group.sample_size(10);
    group.bench_function("table1", |b| {
        b.iter(|| black_box(table1(RunScale::Small, 1, 1, false).1))
    });
    group.finish();
}

fn bench_timeline_figures(c: &mut Criterion) {
    let mut group = c.benchmark_group("repro_figures");
    group.sample_size(10);
    for (name, target) in [
        ("fig2_link_fault", "fig2"),
        ("fig3_node_crash", "fig3"),
        ("fig4_memory", "fig4"),
        ("fig5_null_pointer", "fig5"),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let (text, _) = timeline_results(target, RunScale::Small, 1, 1, false, false)
                    .expect("a timeline figure");
                black_box(text.len())
            })
        });
    }
    group.finish();
}

fn bench_phase2(c: &mut Criterion) {
    let mut group = c.benchmark_group("repro_phase2");
    group.sample_size(10);
    // Phase 1 once; then benchmark the analytic model on top of it.
    let profile = version_profile(PressVersion::Via5, RunScale::Small, 1);
    let load = paper_fault_load(DAY);
    group.bench_function("evaluate_model", |b| {
        b.iter(|| black_box(evaluate(&profile, &load).performability))
    });
    group.bench_function("profile_via5", |b| {
        b.iter(|| black_box(version_profile(PressVersion::Via5, RunScale::Small, 1).tn))
    });
    group.finish();
}

criterion_group!(benches, bench_tables, bench_timeline_figures, bench_phase2);
criterion_main!(benches);
