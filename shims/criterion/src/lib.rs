//! Offline stand-in for the `criterion` crate.
//!
//! The build environment cannot reach a crates registry, so this crate
//! provides the small harness surface the workspace's benches use:
//! [`Criterion`], [`BenchmarkGroup`], [`Bencher::iter`] /
//! [`Bencher::iter_batched`], [`BatchSize`], [`Throughput`], and the
//! [`criterion_group!`] / [`criterion_main!`] macros.
//!
//! It is a plain wall-clock harness: each benchmark is warmed up, then
//! timed in samples, and the median per-iteration time (plus derived
//! throughput) is printed. No plotting, no statistics files — just
//! numbers on stdout, which is all the repro workflow needs.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// The shortest batch [`Bencher::iter`] times, so the two clock reads
/// around it (about 40 ns on a shared 2-core VM) stay a small share.
const MIN_BATCH: Duration = Duration::from_micros(10);

/// How `iter_batched` amortizes setup cost (accepted for API
/// compatibility; this harness always times the routine alone).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    SmallInput,
    LargeInput,
    PerIteration,
}

/// Units processed per iteration, for derived rates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    Elements(u64),
    Bytes(u64),
}

/// Timing loop handed to each benchmark closure.
pub struct Bencher {
    samples: Vec<Duration>,
    sample_count: usize,
}

impl Bencher {
    fn new(sample_count: usize) -> Self {
        Bencher {
            samples: Vec::with_capacity(sample_count),
            sample_count,
        }
    }

    /// Times `routine` in batches. The warm-up doubles the batch,
    /// starting from one call, until a batch takes `MIN_BATCH`; each
    /// sample is then one batch's time divided by its size.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let mut time_batch = |n: u32| {
            let start = Instant::now();
            for _ in 0..n {
                black_box(routine());
            }
            start.elapsed()
        };
        let mut batch = 1;
        while time_batch(batch) < MIN_BATCH {
            batch *= 2;
        }
        for _ in 0..self.sample_count {
            self.samples.push(time_batch(batch) / batch);
        }
    }

    /// Times `routine` on a fresh value from `setup` each sample;
    /// setup time is excluded from the measurement.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let warm = setup();
        let _ = routine(warm);
        for _ in 0..self.sample_count {
            let input = setup();
            let start = Instant::now();
            let out = routine(input);
            self.samples.push(start.elapsed());
            drop(out);
        }
    }

    fn median(&self) -> Duration {
        if self.samples.is_empty() {
            return Duration::ZERO;
        }
        let mut sorted = self.samples.clone();
        sorted.sort();
        sorted[sorted.len() / 2]
    }
}

fn human_time(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns >= 1_000_000_000 {
        format!("{:.3} s", d.as_secs_f64())
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

fn report(name: &str, median: Duration, throughput: Option<Throughput>) {
    let mut line = format!("{name:<48} time: {}", human_time(median));
    if let Some(tp) = throughput {
        let secs = median.as_secs_f64();
        if secs > 0.0 {
            match tp {
                Throughput::Elements(n) => {
                    line.push_str(&format!("  thrpt: {:.0} elem/s", n as f64 / secs));
                }
                Throughput::Bytes(n) => {
                    line.push_str(&format!(
                        "  thrpt: {:.1} MiB/s",
                        n as f64 / secs / (1 << 20) as f64
                    ));
                }
            }
        }
    }
    println!("{line}");
}

/// A named set of related benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
    _criterion: &'a mut Criterion,
}

impl<'a> BenchmarkGroup<'a> {
    /// Sets how many timed samples each benchmark takes.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Declares per-iteration throughput for derived rates.
    pub fn throughput(&mut self, tp: Throughput) -> &mut Self {
        self.throughput = Some(tp);
        self
    }

    /// Runs one benchmark in the group.
    pub fn bench_function<N: Into<String>, F>(&mut self, name: N, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, name.into());
        let mut b = Bencher::new(self.sample_size);
        f(&mut b);
        report(&full, b.median(), self.throughput);
        self
    }

    /// Ends the group (no-op; kept for API parity).
    pub fn finish(&mut self) {}
}

/// Top-level harness state.
#[derive(Default)]
pub struct Criterion {
    sample_size: usize,
}

impl Criterion {
    /// Opens a configuration group.
    pub fn benchmark_group<N: Into<String>>(&mut self, name: N) -> BenchmarkGroup<'_> {
        let sample_size = self.effective_samples();
        BenchmarkGroup {
            name: name.into(),
            sample_size,
            throughput: None,
            _criterion: self,
        }
    }

    /// Runs a standalone benchmark.
    pub fn bench_function<N: Into<String>, F>(&mut self, name: N, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut b = Bencher::new(self.effective_samples());
        f(&mut b);
        report(&name.into(), b.median(), None);
        self
    }

    /// Accepted for API parity with `criterion_group!` expansions.
    pub fn configure_from_args(self) -> Self {
        self
    }

    fn effective_samples(&self) -> usize {
        if self.sample_size > 0 {
            self.sample_size
        } else {
            std::env::var("BENCH_SAMPLES")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(20)
        }
    }
}

/// Bundles benchmark functions under one group entry point.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $($target(&mut criterion);)+
        }
    };
}

/// Emits `main` running each group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_runs_and_reports() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim");
        group.sample_size(3);
        group.throughput(Throughput::Elements(10));
        let mut calls = 0;
        group.bench_function("iter", |b| {
            b.iter(|| {
                calls += 1;
                std::hint::black_box(calls)
            })
        });
        group.finish();
        // A call takes nanoseconds, so the batch grows past one call.
        assert!(calls > 4, "{calls} calls");
    }

    #[test]
    fn a_routine_slower_than_the_minimum_batch_is_timed_per_call() {
        let mut b = Bencher::new(3);
        let mut calls = 0;
        b.iter(|| {
            calls += 1;
            std::thread::sleep(MIN_BATCH);
        });
        // The first warm-up call fills a batch: 1 warm-up + 3 samples.
        assert_eq!(calls, 4);
        assert!(b.median() >= MIN_BATCH);
    }

    #[test]
    fn iter_batched_gets_fresh_input() {
        let mut c = Criterion::default();
        let mut inputs = Vec::new();
        let mut counter = 0u32;
        c.bench_function("batched", |b| {
            b.iter_batched(
                || {
                    counter += 1;
                    counter
                },
                |i| inputs.push(i),
                BatchSize::SmallInput,
            )
        });
        assert!(!inputs.is_empty());
        // Each sample saw a distinct setup value.
        let mut sorted = inputs.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), inputs.len());
    }
}
