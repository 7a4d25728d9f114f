//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no access to a crates registry, so the
//! workspace vendors the *small* subset of `rand`'s API it actually
//! uses: [`rngs::SmallRng`], [`SeedableRng::seed_from_u64`], and the
//! [`RngExt`] sampling helpers. The generator is xoshiro256++ seeded
//! through SplitMix64 — the same algorithm family real `SmallRng` uses
//! on 64-bit targets — so statistical quality matches what the
//! simulations were designed against.
//!
//! Everything here is deterministic: no OS entropy, no global state.

/// Types that can construct themselves from seed material.
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// The raw 64-bit generator interface.
pub trait RngCore {
    /// The next 64 raw bits.
    fn next_u64(&mut self) -> u64;
}

/// Values sampleable from the "standard" distribution of their type.
pub trait StandardSample {
    /// Draws one value from `rng`.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl StandardSample for u64 {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl StandardSample for u32 {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl StandardSample for bool {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl StandardSample for f64 {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Ranges that can produce a uniform sample.
pub trait SampleRange {
    /// The element type produced.
    type Value;
    /// Draws one value uniformly from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> Self::Value;
}

/// Uniform integer below `n` via the widening-multiply map. The bias is
/// at most `n / 2^64`, far below anything a simulation can observe.
#[inline]
fn below<R: RngCore + ?Sized>(rng: &mut R, n: u64) -> u64 {
    assert!(n > 0, "empty range");
    ((u128::from(rng.next_u64()) * u128::from(n)) >> 64) as u64
}

impl SampleRange for core::ops::Range<u64> {
    type Value = u64;
    #[inline]
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> u64 {
        assert!(self.start < self.end, "empty range");
        self.start + below(rng, self.end - self.start)
    }
}

impl SampleRange for core::ops::RangeInclusive<u64> {
    type Value = u64;
    #[inline]
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> u64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty range");
        let span = hi - lo;
        if span == u64::MAX {
            return rng.next_u64();
        }
        lo + below(rng, span + 1)
    }
}

impl SampleRange for core::ops::Range<u32> {
    type Value = u32;
    #[inline]
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> u32 {
        (u64::from(self.start)..u64::from(self.end)).sample_from(rng) as u32
    }
}

impl SampleRange for core::ops::Range<usize> {
    type Value = usize;
    #[inline]
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> usize {
        (self.start as u64..self.end as u64).sample_from(rng) as usize
    }
}

impl SampleRange for core::ops::Range<f64> {
    type Value = f64;
    #[inline]
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        let u = f64::sample(rng);
        self.start + u * (self.end - self.start)
    }
}

/// Convenience sampling methods, mirroring `rand::Rng`/`RngExt`.
pub trait RngExt: RngCore {
    /// Draws a standard-distribution value of type `T`.
    #[inline]
    fn random<T: StandardSample>(&mut self) -> T {
        T::sample(self)
    }

    /// Draws uniformly from `range`.
    #[inline]
    fn random_range<S: SampleRange>(&mut self, range: S) -> S::Value {
        range.sample_from(self)
    }
}

impl<T: RngCore + ?Sized> RngExt for T {}

/// Named generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256++ — small, fast, and statistically strong; the same
    /// family the real `SmallRng` uses on 64-bit platforms.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    #[inline]
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            SmallRng {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }
    }

    impl RngCore for SmallRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::{RngExt, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = SmallRng::seed_from_u64(1);
        let mut b = SmallRng::seed_from_u64(1);
        for _ in 0..64 {
            assert_eq!(a.random::<u64>(), b.random::<u64>());
        }
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SmallRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x: f64 = r.random();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn range_bounds_respected() {
        let mut r = SmallRng::seed_from_u64(3);
        let mut lo_seen = false;
        let mut hi_seen = false;
        for _ in 0..2_000 {
            let v = r.random_range(2u64..=5);
            assert!((2..=5).contains(&v));
            lo_seen |= v == 2;
            hi_seen |= v == 5;
        }
        assert!(lo_seen && hi_seen);
    }

    #[test]
    fn mean_is_centered() {
        let mut r = SmallRng::seed_from_u64(11);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| r.random::<f64>()).sum::<f64>() / f64::from(n);
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }
}
