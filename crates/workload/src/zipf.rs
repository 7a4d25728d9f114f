//! Zipf-distributed file popularity.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use simnet::SimRng;

/// A Zipf(α) sampler over `n` items (0-based ranks). Web-trace
/// popularity is classically Zipf-like with α around 0.7–0.9.
///
/// A draw of `u` in `[0, 1)` picks the first rank whose normalised
/// cumulative mass `sum / total` is at least `u`. The sampler keeps the
/// un-normalised running sums and a bucket index over them: a draw
/// searches only the ranks of the bucket holding `u · total`, then
/// steps to the exact boundary of `sum / total < u`. So every draw is
/// the rank a binary search over the normalised CDF gives, bit for bit,
/// whatever the bucket width; the index only decides how few ranks a
/// draw reads.
///
/// The sums and the index are shared: `clone()` is O(1), and
/// [`Zipf::shared`] hands every simulation of one `(n, α)` the same
/// arrays instead of building them again.
///
/// # Example
///
/// ```
/// use simnet::SimRng;
/// use workload::Zipf;
///
/// let zipf = Zipf::new(1000, 0.8);
/// let mut rng = SimRng::seed_from(1);
/// let r = zipf.sample(&mut rng);
/// assert!(r < 1000);
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    /// Running sums of `k^-α` over ranks `1..=k`: never decreasing.
    sums: Arc<[f64]>,
    /// The last running sum, which normalises every other.
    total: f64,
    /// One over the bucket width. The width is a power of two, so
    /// `x * inv_width` and `b * width` are exact.
    inv_width: f64,
    /// `guide[b]` counts the ranks whose sum is below `b · width`; the
    /// last entry, for a boundary above `total`, is `n`.
    guide: Arc<[u32]>,
}

/// The index aims at `n / RANKS_PER_BUCKET` buckets (at least one) and
/// holds at most one more: under 64 KiB at 240k files.
const RANKS_PER_BUCKET: u32 = 16;

impl Zipf {
    /// Builds the sampler for `n` items with exponent `alpha`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `alpha` is negative or not finite.
    pub fn new(n: u32, alpha: f64) -> Self {
        assert!(n > 0, "zipf needs at least one item");
        assert!(
            alpha >= 0.0 && alpha.is_finite(),
            "bad zipf exponent {alpha}"
        );
        Zipf::with_width(n, alpha, bucket_width(n, alpha))
    }

    /// The sampler [`Zipf::new`] builds, sharing its arrays with the
    /// previous call for the same `n` and `alpha` bits unless a call
    /// for another pair came between them. The table is a pure function
    /// of the pair, so a draw cannot tell a shared sampler from a fresh
    /// one.
    ///
    /// # Panics
    ///
    /// As [`Zipf::new`].
    pub fn shared(n: u32, alpha: f64) -> Self {
        static LAST: Memo = Memo::new();
        LAST.get(n, alpha)
    }

    /// The sampler with buckets `width` wide, a positive power of two.
    /// Draws do not depend on `width`; the index size and the ranks one
    /// draw searches do.
    fn with_width(n: u32, alpha: f64, width: f64) -> Self {
        let mut acc = 0.0;
        // An exact-size map: the shared array is written in place.
        let sums: Arc<[f64]> = (1..=n)
            .map(|k| {
                acc += 1.0 / f64::from(k).powf(alpha);
                acc
            })
            .collect();
        // A pass of its own over the sums just computed: the same boundary
        // test inside the `powf` loop measured slower than this pass.
        let mut guide = Vec::with_capacity((n / RANKS_PER_BUCKET) as usize + 2);
        let mut edge = 0.0;
        for (rank, &sum) in (0..n).zip(sums.iter()) {
            // Each boundary this sum reaches has the ranks before it below.
            while sum >= edge {
                guide.push(rank);
                edge = guide.len() as f64 * width;
            }
        }
        guide.push(n);
        Zipf {
            sums,
            total: acc,
            inv_width: 1.0 / width,
            guide: guide.into(),
        }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.sums.len()
    }

    /// `true` only for an impossible empty sampler (kept for API
    /// completeness; the constructor forbids it).
    pub fn is_empty(&self) -> bool {
        self.sums.is_empty()
    }

    /// Draws an item rank in `[0, n)`; rank 0 is the most popular.
    pub fn sample(&self, rng: &mut SimRng) -> u32 {
        self.rank(rng.uniform())
    }

    /// The first rank whose normalised sum is not below `u`.
    fn rank(&self, u: f64) -> u32 {
        let below = |sum: f64| sum / self.total < u;
        let x = u * self.total;
        let b = ((x * self.inv_width) as usize).min(self.guide.len() - 2);
        let (lo, hi) = (self.guide[b] as usize, self.guide[b + 1] as usize);
        let mut k = lo + self.sums[lo..hi].partition_point(|&a| a < x);
        // `x` is `u · total` rounded, so `a < x` can disagree with
        // `below` for sums within an ulp or two of `x`.
        while k > 0 && !below(self.sums[k - 1]) {
            k -= 1;
        }
        while k < self.sums.len() && below(self.sums[k]) {
            k += 1;
        }
        k as u32
    }

    /// Probability mass of the `top` most popular items — used to
    /// reason about cache hit rates.
    pub fn mass_of_top(&self, top: usize) -> f64 {
        if top == 0 {
            0.0
        } else {
            self.sums[(top - 1).min(self.sums.len() - 1)] / self.total
        }
    }
}

/// A one-slot memo of the last sampler built, keyed by `n` and the bits
/// of `alpha`. It holds at most one table beyond those live samplers
/// hold.
struct Memo(Mutex<Option<((u32, u64), Zipf)>>);

impl Memo {
    const fn new() -> Self {
        Memo(Mutex::new(None))
    }

    /// A clone of the memo's sampler on a hit; on a miss, a new one,
    /// built outside the lock so builds of other pairs do not wait on
    /// it, then kept. Two racing misses both build; the later one stays.
    fn get(&self, n: u32, alpha: f64) -> Zipf {
        let key = (n, alpha.to_bits());
        if let Some((k, zipf)) = &*self.lock() {
            if *k == key {
                return zipf.clone();
            }
        }
        let zipf = Zipf::new(n, alpha);
        *self.lock() = Some((key, zipf.clone()));
        zipf
    }

    /// The slot holds a whole sampler or none, so a panic elsewhere
    /// while it was locked leaves nothing half written.
    fn lock(&self) -> MutexGuard<'_, Option<((u32, u64), Zipf)>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The bucket width for Zipf(`alpha`) on `n` items: a power of two
/// sized from `1 + ∫₁ⁿ x^-α dx`, an upper bound on the total that is at
/// most twice it. The index so ends up with between a quarter of its
/// target bucket count and one more than it.
fn bucket_width(n: u32, alpha: f64) -> f64 {
    let ln_n = f64::from(n).ln();
    let one_minus = 1.0 - alpha;
    let bound = 1.0
        + if one_minus == 0.0 {
            ln_n
        } else {
            (one_minus * ln_n).exp_m1() / one_minus
        };
    let buckets = f64::from((n / RANKS_PER_BUCKET).max(1));
    2f64.powi((bound / buckets).log2().ceil() as i32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_are_in_range_and_skewed() {
        let z = Zipf::new(10_000, 0.8);
        let mut rng = SimRng::seed_from(7);
        let mut top_100 = 0;
        let n = 20_000;
        for _ in 0..n {
            let s = z.sample(&mut rng);
            assert!(s < 10_000);
            if s < 100 {
                top_100 += 1;
            }
        }
        let frac = top_100 as f64 / n as f64;
        let expected = z.mass_of_top(100);
        assert!(
            (frac - expected).abs() < 0.02,
            "top-100 mass {frac} vs expected {expected}"
        );
        // Zipf(0.8) over 10k items puts far more than 1% on the top 1%.
        assert!(expected > 0.15, "expected mass {expected}");
    }

    #[test]
    fn alpha_zero_is_uniform() {
        let z = Zipf::new(100, 0.0);
        assert!((z.mass_of_top(50) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sums_are_monotone_and_normalized() {
        let z = Zipf::new(1000, 1.1);
        assert!(z.sums.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(z.mass_of_top(1000), 1.0);
        assert_eq!(z.len(), 1000);
        assert!(!z.is_empty());
    }

    #[test]
    fn mass_of_top_saturates() {
        let z = Zipf::new(10, 0.8);
        assert_eq!(z.mass_of_top(0), 0.0);
        assert!((z.mass_of_top(10) - 1.0).abs() < 1e-12);
        assert!((z.mass_of_top(99) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_zipf_is_rejected() {
        Zipf::new(0, 0.8);
    }

    /// The normalised CDF the sampler used to store.
    fn reference_cdf(n: u32, alpha: f64) -> Vec<f64> {
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / f64::from(k).powf(alpha);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        cdf
    }

    /// The draw the sampler used to make: a binary search of the CDF.
    fn reference_rank(cdf: &[f64], u: f64) -> u32 {
        cdf.partition_point(|&c| c < u) as u32
    }

    const SIZES: [u32; 6] = [1, 2, 7, 1000, 60_000, 240_000];
    const ALPHAS: [f64; 5] = [0.0, 0.3, 0.8, 1.0, 3.0];

    /// `u` on both sides of every bucket boundary and of every rank's
    /// CDF value (a stride of them at large `n`), plus the ends of
    /// `[0, 1]`.
    fn edge_draws(z: &Zipf, cdf: &[f64]) -> Vec<f64> {
        let width = 1.0 / z.inv_width;
        let stride = (cdf.len() / 5_000).max(1);
        let buckets = (0..z.guide.len()).map(|b| b as f64 * width / z.total);
        let ranks = cdf.iter().step_by(stride).copied();
        let mut us = vec![0.0, 1.0, 1.0f64.next_down(), f64::MIN_POSITIVE];
        for c in buckets.chain(ranks) {
            us.extend([c.next_down(), c, c.next_up()]);
        }
        us
    }

    fn assert_draws_match(z: &Zipf, cdf: &[f64], us: impl IntoIterator<Item = f64>) {
        for u in us {
            assert_eq!(
                z.rank(u),
                reference_rank(cdf, u),
                "n={} u={u:e} width={:e}",
                cdf.len(),
                1.0 / z.inv_width
            );
        }
    }

    #[test]
    fn draws_and_masses_match_the_normalised_cdf_search() {
        for n in SIZES {
            for alpha in ALPHAS {
                let z = Zipf::new(n, alpha);
                let cdf = reference_cdf(n, alpha);
                for top in [0, 1, 2, n as usize / 2, n as usize, n as usize + 3] {
                    let want = if top == 0 {
                        0.0
                    } else {
                        cdf[(top - 1).min(cdf.len() - 1)]
                    };
                    assert_eq!(z.mass_of_top(top).to_bits(), want.to_bits());
                }
                let draws = if n >= 60_000 { 1_000_000 } else { 100_000 };
                let (mut rng, mut same) = (
                    SimRng::seed_from(u64::from(n)),
                    SimRng::seed_from(u64::from(n)),
                );
                for _ in 0..draws {
                    assert_eq!(
                        z.sample(&mut rng),
                        reference_rank(&cdf, same.uniform()),
                        "n={n} alpha={alpha}"
                    );
                }
                assert_draws_match(&z, &cdf, edge_draws(&z, &cdf));
            }
        }
    }

    /// One bucket over everything and about `n` buckets give the same
    /// draws as the default width, edges included.
    #[test]
    fn draws_do_not_depend_on_the_bucket_width() {
        for n in SIZES {
            for alpha in ALPHAS {
                let cdf = reference_cdf(n, alpha);
                let total = Zipf::new(n, alpha).total;
                let one = 2f64.powi(total.log2().floor() as i32 + 1);
                let many = 2f64.powi((total / f64::from(n)).log2().floor() as i32);
                for width in [one, many] {
                    let z = Zipf::with_width(n, alpha, width);
                    let buckets = z.guide.len() - 1;
                    if width == one {
                        assert_eq!(buckets, 1, "n={n} alpha={alpha}");
                    } else {
                        assert!(buckets >= n as usize, "n={n} alpha={alpha}");
                    }
                    let mut rng = SimRng::seed_from(3);
                    let draws = (0..20_000).map(|_| rng.uniform());
                    assert_draws_match(&z, &cdf, draws.chain(edge_draws(&z, &cdf)));
                }
            }
        }
    }

    /// The default width keeps the index between n/64 and n/16 buckets
    /// at the document-set sizes the experiments use.
    #[test]
    fn the_index_stays_small() {
        for n in [60_000, 240_000, 960_000] {
            for alpha in ALPHAS {
                let z = Zipf::new(n, alpha);
                let buckets = z.guide.len() - 1;
                let target = (n / RANKS_PER_BUCKET) as usize;
                assert!(
                    (target / 4..=target + 1).contains(&buckets),
                    "n={n} alpha={alpha}: {buckets} buckets"
                );
                assert_eq!(z.sums.len(), n as usize);
            }
        }
    }

    #[test]
    fn a_memo_hit_shares_the_arrays() {
        let memo = Memo::new();
        let a = memo.get(1000, 0.8);
        let b = memo.get(1000, 0.8);
        assert!(Arc::ptr_eq(&a.sums, &b.sums));
        assert!(Arc::ptr_eq(&a.guide, &b.guide));
        let fresh = Zipf::new(1000, 0.8);
        assert!(!Arc::ptr_eq(&a.sums, &fresh.sums));
    }

    #[test]
    fn another_n_or_alpha_bit_pattern_misses() {
        let memo = Memo::new();
        let a = memo.get(1000, 0.0);
        for (n, alpha) in [(1001, 0.0), (1000, -0.0), (1000, 0.0f64.next_up())] {
            let b = memo.get(n, alpha);
            assert!(!Arc::ptr_eq(&a.sums, &b.sums), "n={n} alpha={alpha:e}");
        }
        // The slot now holds the last pair, so the first misses again.
        let again = memo.get(1000, 0.0);
        assert!(!Arc::ptr_eq(&a.sums, &again.sums));
        assert!(Arc::ptr_eq(&again.sums, &memo.get(1000, 0.0).sums));
    }

    #[test]
    fn shared_draws_are_the_fresh_draws() {
        let (n, alpha) = (240_000, 0.8);
        let memo = Memo::new();
        memo.get(n, alpha);
        let shared = memo.get(n, alpha);
        let fresh = Zipf::new(n, alpha);
        for top in [0, 1, 2, 1_000, 120_000, 240_000, 240_003] {
            assert_eq!(
                shared.mass_of_top(top).to_bits(),
                fresh.mass_of_top(top).to_bits()
            );
        }
        let (mut a, mut b) = (SimRng::seed_from(11), SimRng::seed_from(11));
        for _ in 0..200_000 {
            assert_eq!(shared.sample(&mut a), fresh.sample(&mut b));
        }
    }
}
