//! Allocation budgets of the steady-state hot path, as a test:
//! `cargo test --release -p bench --features bench-harness --test allocations`.
//!
//! A plain `main` (no libtest harness) so nothing else allocates on
//! another thread while a window is being counted.

use bench::alloc_counter::{check_all, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn main() {
    check_all();
}
