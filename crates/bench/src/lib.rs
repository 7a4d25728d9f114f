//! Benchmark and reproduction harness for the paper's tables and
//! figures.
//!
//! * `src/bin/repro.rs` — regenerates every table and figure as text:
//!   `cargo run --release -p bench --bin repro -- all`.
//! * `benches/` — Criterion micro- and macro-benchmarks of the engine,
//!   the transports, the PRESS cache, whole-cluster stepping, and the
//!   per-figure reproduction runs.
//! * `src/alloc_counter.rs` (`bench-harness` feature) — the allocation
//!   budget checks shared by the `cluster` bench and the `allocations`
//!   test.

#[cfg(feature = "bench-harness")]
pub mod alloc_counter;
