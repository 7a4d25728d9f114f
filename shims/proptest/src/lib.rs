//! Offline stand-in for the `proptest` crate.
//!
//! The build environment cannot reach a crates registry, so this crate
//! vendors the subset of proptest the workspace's property tests use:
//! the [`proptest!`] macro, `prop_assert*` / `prop_assume!`, integer and
//! float range strategies, tuples, `prop::collection::vec`,
//! `prop::bool::ANY`, and `any::<T>()`.
//!
//! Semantics: each test body runs for a fixed number of generated cases
//! (`PROPTEST_CASES` env var overrides, default 64) with a per-test
//! deterministic seed derived from the test name, so failures reproduce
//! exactly. There is no shrinking — the failing case index and seed are
//! reported instead.

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// Deterministic source of randomness handed to strategies.
pub struct TestRng {
    inner: SmallRng,
}

impl TestRng {
    /// Builds the generator for one test case.
    pub fn new(seed: u64) -> Self {
        TestRng {
            inner: SmallRng::seed_from_u64(seed),
        }
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.inner.random::<u64>()
    }

    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        self.inner.random::<f64>()
    }

    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        self.inner.random_range(0..n)
    }
}

/// Why a test case did not pass.
#[derive(Debug)]
pub enum TestCaseError {
    /// An assertion failed; the campaign aborts with this message.
    Fail(String),
    /// `prop_assume!` filtered the inputs; the case is retried.
    Reject(String),
}

impl TestCaseError {
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }

    pub fn reject(msg: impl Into<String>) -> Self {
        TestCaseError::Reject(msg.into())
    }
}

/// Number of generated cases per property (env-overridable).
fn case_count() -> u64 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

/// Stable per-test seed: FNV-1a over the test name.
fn seed_for(name: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Drives one property: runs `f` until `case_count()` cases pass or one
/// fails. Rejected cases (via `prop_assume!`) are re-drawn, bounded so a
/// hostile filter cannot loop forever.
pub fn run_cases<F>(name: &str, mut f: F)
where
    F: FnMut(&mut TestRng) -> Result<(), TestCaseError>,
{
    let wanted = case_count();
    let base = seed_for(name);
    let max_attempts = wanted.saturating_mul(16).max(wanted);
    let mut passed = 0u64;
    for attempt in 0..max_attempts {
        if passed == wanted {
            break;
        }
        let seed = base.wrapping_add(attempt.wrapping_mul(0x9E3779B97F4A7C15));
        let mut rng = TestRng::new(seed);
        match f(&mut rng) {
            Ok(()) => passed += 1,
            Err(TestCaseError::Reject(_)) => {}
            Err(TestCaseError::Fail(msg)) => {
                panic!(
                    "proptest '{name}' failed at case {passed} (attempt {attempt}, seed {seed:#x}): {msg}"
                );
            }
        }
    }
}

/// A source of generated values.
pub trait Strategy {
    type Value;
    fn sample(&self, rng: &mut TestRng) -> Self::Value;
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    #[inline]
    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        (**self).sample(rng)
    }
}

macro_rules! int_range_strategy {
    ($($ty:ty),*) => {$(
        impl Strategy for core::ops::Range<$ty> {
            type Value = $ty;
            #[inline]
            fn sample(&self, rng: &mut TestRng) -> $ty {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as u64) - (self.start as u64);
                self.start + rng.below(span) as $ty
            }
        }
        impl Strategy for core::ops::RangeInclusive<$ty> {
            type Value = $ty;
            #[inline]
            fn sample(&self, rng: &mut TestRng) -> $ty {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as u64) - (lo as u64);
                if span == u64::MAX {
                    return rng.next_u64() as $ty;
                }
                lo + rng.below(span + 1) as $ty
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize);

impl Strategy for core::ops::Range<f64> {
    type Value = f64;
    #[inline]
    fn sample(&self, rng: &mut TestRng) -> f64 {
        self.start + rng.next_f64() * (self.end - self.start)
    }
}

macro_rules! tuple_strategy {
    ($(($($name:ident),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[inline]
            #[allow(non_snake_case)]
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.sample(rng),)+)
            }
        }
    )*};
}

tuple_strategy! { (A, B) (A, B, C) (A, B, C, D) }

/// Types with a canonical "anything goes" strategy.
pub trait Arbitrary: Sized {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for u64 {
    #[inline]
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64()
    }
}

impl Arbitrary for u32 {
    #[inline]
    fn arbitrary(rng: &mut TestRng) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Arbitrary for bool {
    #[inline]
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    #[inline]
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_f64()
    }
}

/// Strategy wrapper produced by [`any`].
pub struct Any<T> {
    _marker: core::marker::PhantomData<T>,
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    #[inline]
    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// `any::<T>()` — the full domain of `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any {
        _marker: core::marker::PhantomData,
    }
}

/// Namespaced strategy constructors (`prop::collection::vec`, …).
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use crate::{Strategy, TestRng};

        /// Accepted size specifications for [`vec()`]: a fixed length or a
        /// half-open range of lengths.
        pub struct SizeRange {
            lo: usize,
            hi: usize, // exclusive
        }

        impl From<usize> for SizeRange {
            fn from(n: usize) -> Self {
                SizeRange { lo: n, hi: n + 1 }
            }
        }

        impl From<core::ops::Range<usize>> for SizeRange {
            fn from(r: core::ops::Range<usize>) -> Self {
                assert!(r.start < r.end, "empty size range");
                SizeRange {
                    lo: r.start,
                    hi: r.end,
                }
            }
        }

        /// Strategy for vectors of `element` values.
        pub struct VecStrategy<S> {
            element: S,
            size: SizeRange,
        }

        /// `vec(element, size)` — size is a usize or `lo..hi` range.
        pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
            VecStrategy {
                element,
                size: size.into(),
            }
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let span = (self.size.hi - self.size.lo) as u64;
                let len = if span <= 1 {
                    self.size.lo
                } else {
                    self.size.lo + rng.below(span) as usize
                };
                (0..len).map(|_| self.element.sample(rng)).collect()
            }
        }
    }

    /// Boolean strategies.
    pub mod bool {
        use crate::{Strategy, TestRng};

        /// The `prop::bool::ANY` strategy: fair coin.
        pub struct BoolAny;

        /// Either boolean, uniformly.
        pub const ANY: BoolAny = BoolAny;

        impl Strategy for BoolAny {
            type Value = bool;
            #[inline]
            fn sample(&self, rng: &mut TestRng) -> bool {
                rng.next_u64() & 1 == 1
            }
        }
    }
}

/// Everything a property-test file needs in scope.
pub mod prelude {
    pub use crate::{
        any, prop, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Strategy,
        TestCaseError,
    };
}

/// Declares property tests. Each `fn name(arg in strategy, ...) { body }`
/// expands to a `#[test]` (the attribute is written by the caller and
/// passed through) that samples the strategies and runs the body across
/// many deterministic cases.
#[macro_export]
macro_rules! proptest {
    ($($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                $crate::run_cases(stringify!($name), |__proptest_rng| {
                    $(let $arg = $crate::Strategy::sample(&($strat), __proptest_rng);)*
                    let __proptest_result: ::std::result::Result<(), $crate::TestCaseError> =
                        (|| {
                            $body
                            ::std::result::Result::Ok(())
                        })();
                    __proptest_result
                });
            }
        )*
    };
}

/// Asserts inside a `proptest!` body; failure aborts the campaign with
/// the formatted message.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Equality assertion inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                l,
                r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "{}\n  left: {:?}\n right: {:?}",
                format!($($fmt)+),
                l,
                r
            )));
        }
    }};
}

/// Inequality assertion inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{} != {}`\n  both: {:?}",
                stringify!($left),
                stringify!($right),
                l
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "{}\n  both: {:?}",
                format!($($fmt)+),
                l
            )));
        }
    }};
}

/// Filters generated inputs; a rejected case is re-drawn rather than
/// counted as a pass or failure.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::reject(stringify!($cond)));
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(x in 3u64..17, y in 0.0f64..2.0) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((0.0..2.0).contains(&y));
        }

        #[test]
        fn vectors_respect_size(v in prop::collection::vec(0u32..10, 2..6), w in prop::collection::vec(any::<u64>(), 4)) {
            prop_assert!(v.len() >= 2 && v.len() < 6);
            prop_assert_eq!(w.len(), 4);
        }

        #[test]
        fn assume_filters(n in 0u64..100) {
            prop_assume!(n % 2 == 0);
            prop_assert_eq!(n % 2, 0);
            prop_assert_ne!(n, 1);
        }

        #[test]
        fn tuples_sample_componentwise(pair in (0u32..50, prop::bool::ANY)) {
            let (a, _b) = pair;
            prop_assert!(a < 50);
        }
    }

    #[test]
    #[should_panic(expected = "proptest 'always_fails'")]
    fn failure_panics_with_context() {
        crate::run_cases("always_fails", |_| {
            Err(crate::TestCaseError::fail("forced"))
        });
    }

    #[test]
    fn cases_are_deterministic() {
        let mut first = Vec::new();
        crate::run_cases("det_probe", |rng| {
            first.push(rng.next_u64());
            Ok(())
        });
        let mut second = Vec::new();
        crate::run_cases("det_probe", |rng| {
            second.push(rng.next_u64());
            Ok(())
        });
        assert_eq!(first, second);
    }
}
