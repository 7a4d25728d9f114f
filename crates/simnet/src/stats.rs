//! Throughput recording and time-series utilities.
//!
//! The paper's phase-1 experiments produce *throughput timelines*:
//! requests served per second, bucketed over the run, with fault injection
//! and recovery instants marked. [`ThroughputRecorder`] builds those
//! timelines; [`TimeSeries`] carries them to the stage-extraction code in
//! the `performability` crate and to the figure renderers.

use crate::time::{SimDuration, SimTime};

/// Records completion events into fixed-width time buckets and converts
/// them to a requests-per-second series.
///
/// # Example
///
/// ```
/// use simnet::{SimDuration, SimTime, ThroughputRecorder};
///
/// let mut rec = ThroughputRecorder::new(SimDuration::from_secs(1));
/// for i in 0..10 {
///     rec.record(SimTime::from_nanos(i * 100_000_000)); // 10 events in 1s
/// }
/// let series = rec.series(SimTime::from_secs(1));
/// assert_eq!(series.points[0].1, 10.0);
/// ```
#[derive(Debug, Clone)]
pub struct ThroughputRecorder {
    bucket: SimDuration,
    counts: Vec<u64>,
}

impl ThroughputRecorder {
    /// Creates a recorder with the given bucket width.
    ///
    /// # Panics
    ///
    /// Panics if `bucket` is zero.
    pub fn new(bucket: SimDuration) -> Self {
        assert!(!bucket.is_zero(), "bucket width must be positive");
        ThroughputRecorder {
            bucket,
            counts: Vec::new(),
        }
    }

    /// The bucket width.
    pub fn bucket(&self) -> SimDuration {
        self.bucket
    }

    /// Records one completion at time `at`.
    pub fn record(&mut self, at: SimTime) {
        let idx = (at.as_nanos() / self.bucket.as_nanos()) as usize;
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
    }

    /// Total completions recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Converts the buckets to a rate series covering `[0, end)`. Buckets
    /// with no events report zero; the (possibly partial) bucket
    /// containing `end` is dropped to avoid a truncation artifact.
    pub fn series(&self, end: SimTime) -> TimeSeries {
        let n = (end.as_nanos() / self.bucket.as_nanos()) as usize;
        let width = self.bucket.as_secs_f64();
        let points = (0..n)
            .map(|i| {
                let count = self.counts.get(i).copied().unwrap_or(0);
                let mid = (i as f64 + 0.5) * width;
                (mid, count as f64 / width)
            })
            .collect();
        TimeSeries { points }
    }
}

/// A sampled `(time seconds, value)` series, e.g. throughput over a run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TimeSeries {
    /// `(time in seconds, value)` samples in ascending time order.
    pub points: Vec<(f64, f64)>,
}

impl TimeSeries {
    /// Creates a series from raw points.
    ///
    /// # Panics
    ///
    /// Panics if the time coordinates are not non-decreasing.
    pub fn new(points: Vec<(f64, f64)>) -> Self {
        assert!(
            points.windows(2).all(|w| w[0].0 <= w[1].0),
            "time series points must be in ascending time order"
        );
        TimeSeries { points }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when the series has no samples.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Mean value of samples with time in `[t0, t1)`. Returns `None` when
    /// the window contains no samples.
    pub fn mean_between(&self, t0: f64, t1: f64) -> Option<f64> {
        let mut sum = 0.0;
        let mut n = 0usize;
        for &(t, v) in &self.points {
            if t >= t0 && t < t1 {
                sum += v;
                n += 1;
            }
        }
        if n == 0 {
            None
        } else {
            Some(sum / n as f64)
        }
    }

    /// Maximum value over the whole series, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|&(_, v)| v)
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }

    /// Index of the first sample at or after time `t`.
    pub fn index_at(&self, t: f64) -> usize {
        self.points.partition_point(|&(pt, _)| pt < t)
    }

    /// The bucket width, inferred from the spacing of the first two
    /// samples; 1.0 for fewer than two.
    pub fn bucket_width(&self) -> f64 {
        if self.points.len() >= 2 {
            (self.points[1].0 - self.points[0].0).max(1e-9)
        } else {
            1.0
        }
    }

    /// Robust estimate of the per-sample noise variance, from the
    /// median squared first difference: for a piecewise-constant signal
    /// plus i.i.d. noise, `diff[i] = x[i+1] - x[i]` has variance `2σ²`
    /// away from the (rare) level changes, and the median ignores the
    /// changes themselves. Returns 0.0 for fewer than two samples.
    pub fn noise_variance(&self) -> f64 {
        if self.points.len() < 2 {
            return 0.0;
        }
        let mut diffs: Vec<f64> = self
            .points
            .windows(2)
            .map(|w| {
                let d = w[1].1 - w[0].1;
                d * d
            })
            .collect();
        let mid = diffs.len() / 2;
        diffs.sort_by(|a, b| a.partial_cmp(b).expect("finite diffs"));
        diffs[mid] / 2.0
    }

    /// Fits an optimal piecewise-constant model to the series values
    /// (ignoring the time coordinates beyond their order): exact
    /// least-squares dynamic programming over all segmentations with at
    /// most `max_segments` pieces, where each extra piece costs
    /// `penalty` on top of its squared error. Returns the chosen
    /// segments in order; empty for an empty series.
    ///
    /// This is the "blind" change-point detector used by the
    /// stage-segmentation audit: it sees only the sampled values, never
    /// the run log, so its change points are an independent estimate of
    /// where the system's throughput regime actually shifted.
    ///
    /// # Panics
    ///
    /// Panics if `max_segments` is 0 or `penalty` is negative/NaN.
    pub fn piecewise_fit(&self, max_segments: usize, penalty: f64) -> Vec<FitSegment> {
        assert!(max_segments > 0, "need at least one segment");
        assert!(penalty >= 0.0, "penalty must be non-negative");
        let n = self.points.len();
        if n == 0 {
            return Vec::new();
        }
        let kmax = max_segments.min(n);

        // Prefix sums for O(1) segment cost: cost(i, j) is the SSE of
        // fitting one mean to points[i..j].
        let mut s = vec![0.0f64; n + 1];
        let mut s2 = vec![0.0f64; n + 1];
        for (i, &(_, v)) in self.points.iter().enumerate() {
            s[i + 1] = s[i] + v;
            s2[i + 1] = s2[i] + v * v;
        }
        let cost = |i: usize, j: usize| -> f64 {
            let m = (j - i) as f64;
            let sum = s[j] - s[i];
            // Clamp tiny negative round-off so costs stay comparable.
            (s2[j] - s2[i] - sum * sum / m).max(0.0)
        };

        // dp[k][j]: best cost of covering points[0..j] with k+1 segments.
        let mut dp = vec![vec![f64::INFINITY; n + 1]; kmax];
        let mut cut = vec![vec![0usize; n + 1]; kmax];
        for (j, slot) in dp[0].iter_mut().enumerate().skip(1) {
            *slot = cost(0, j);
        }
        for k in 1..kmax {
            let (done, rest) = dp.split_at_mut(k);
            let prev = &done[k - 1];
            for j in (k + 1)..=n {
                let mut best = f64::INFINITY;
                let mut best_i = k;
                for (i, &p) in prev.iter().enumerate().take(j).skip(k) {
                    let c = p + cost(i, j);
                    if c < best {
                        best = c;
                        best_i = i;
                    }
                }
                rest[0][j] = best;
                cut[k][j] = best_i;
            }
        }

        // Model selection: each extra segment must pay for itself.
        let mut best_k = 0;
        let mut best_total = dp[0][n];
        for (k, row) in dp.iter().enumerate().skip(1) {
            let total = row[n] + penalty * k as f64;
            if total < best_total {
                best_total = total;
                best_k = k;
            }
        }

        // Backtrack the cut points.
        let mut bounds = vec![n];
        let mut j = n;
        for k in (1..=best_k).rev() {
            j = cut[k][j];
            bounds.push(j);
        }
        bounds.push(0);
        bounds.reverse();
        bounds
            .windows(2)
            .map(|w| {
                let (i, j) = (w[0], w[1]);
                FitSegment {
                    start: i,
                    end: j,
                    mean: (s[j] - s[i]) / (j - i) as f64,
                }
            })
            .collect()
    }

    /// [`piecewise_fit`](Self::piecewise_fit) with a penalty scaled to
    /// the measured noise: a split must buy more squared-error
    /// reduction than noise alone would hand it. `2 ln n` per change
    /// point is the classic (BIC-flavored) rate; the `(0.04·tn)²`
    /// floor keeps pathologically quiet series from splitting on
    /// invisible steps. `tn` is the series' normal level.
    ///
    /// # Panics
    ///
    /// Panics if `max_segments` is 0.
    pub fn blind_fit(&self, tn: f64, max_segments: usize) -> Vec<FitSegment> {
        let n = self.points.len();
        let penalty = self.noise_variance().max((0.04 * tn).powi(2)) * 2.0 * (n.max(2) as f64).ln();
        self.piecewise_fit(max_segments, penalty)
    }
}

/// One piece of a piecewise-constant fit produced by
/// [`TimeSeries::piecewise_fit`]: sample indices `[start, end)` modeled
/// at the segment's mean value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitSegment {
    /// First sample index covered.
    pub start: usize,
    /// One past the last sample index covered.
    pub end: usize,
    /// Least-squares level of the segment.
    pub mean: f64,
}

impl FitSegment {
    /// The segment's `[t0, t1)` span in seconds, on a series of
    /// `bucket_s`-wide buckets ([`TimeSeries::bucket_width`]).
    pub fn span(&self, bucket_s: f64) -> (f64, f64) {
        (self.start as f64 * bucket_s, self.end as f64 * bucket_s)
    }
}

/// Tallies request outcomes for availability accounting.
///
/// Availability in phase 1 is "the percentage of requests served
/// successfully" (§2); this counter tracks the numerator and denominator
/// plus a breakdown of failure causes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AvailabilityCounter {
    /// Requests issued by clients.
    pub attempts: u64,
    /// Requests completed successfully.
    pub successes: u64,
    /// Requests whose connection attempt timed out (2 s in the paper).
    pub connect_timeouts: u64,
    /// Requests that connected but did not complete in time (6 s).
    pub request_timeouts: u64,
    /// Requests refused outright (e.g. node down).
    pub refused: u64,
}

impl AvailabilityCounter {
    /// A counter with all tallies at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fraction of attempts that succeeded; 1.0 when nothing was
    /// attempted (an idle system is trivially available).
    pub fn availability(&self) -> f64 {
        if self.attempts == 0 {
            1.0
        } else {
            self.successes as f64 / self.attempts as f64
        }
    }

    /// Total failed requests.
    pub fn failures(&self) -> u64 {
        self.connect_timeouts + self.request_timeouts + self.refused
    }

    /// Folds another counter's tallies into this one.
    pub fn merge(&mut self, other: &AvailabilityCounter) {
        self.attempts += other.attempts;
        self.successes += other.successes;
        self.connect_timeouts += other.connect_timeouts;
        self.request_timeouts += other.request_timeouts;
        self.refused += other.refused;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_buckets_by_time() {
        let mut rec = ThroughputRecorder::new(SimDuration::from_secs(1));
        rec.record(SimTime::from_nanos(100));
        rec.record(SimTime::from_nanos(999_999_999));
        rec.record(SimTime::from_secs(1));
        rec.record(SimTime::from_secs(3));
        let s = rec.series(SimTime::from_secs(4));
        let values: Vec<f64> = s.points.iter().map(|&(_, v)| v).collect();
        assert_eq!(values, [2.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn series_drops_partial_final_bucket() {
        let mut rec = ThroughputRecorder::new(SimDuration::from_secs(1));
        rec.record(SimTime::from_nanos(2_500_000_000));
        let s = rec.series(SimTime::from_nanos(2_500_000_000));
        assert_eq!(s.len(), 2); // bucket containing t=2.5s is dropped
    }

    #[test]
    fn empty_recorder_yields_empty_or_zero_series() {
        let rec = ThroughputRecorder::new(SimDuration::from_secs(1));
        assert_eq!(rec.total(), 0);
        // No time elapsed: no buckets at all.
        assert!(rec.series(SimTime::ZERO).is_empty());
        // Time elapsed but nothing recorded: all-zero buckets.
        let s = rec.series(SimTime::from_secs(3));
        assert_eq!(s.len(), 3);
        assert!(s.points.iter().all(|&(_, v)| v == 0.0));
    }

    #[test]
    fn record_on_exact_bucket_boundary_lands_in_upper_bucket() {
        let mut rec = ThroughputRecorder::new(SimDuration::from_secs(1));
        // t = 1.0 s is the first nanosecond of bucket 1, not the last of
        // bucket 0 (buckets are half-open [i, i+1)).
        rec.record(SimTime::from_secs(1));
        rec.record(SimTime::from_nanos(999_999_999));
        let s = rec.series(SimTime::from_secs(2));
        let values: Vec<f64> = s.points.iter().map(|&(_, v)| v).collect();
        assert_eq!(values, [1.0, 1.0]);
    }

    #[test]
    fn series_end_truncates_but_never_loses_recorded_totals() {
        let mut rec = ThroughputRecorder::new(SimDuration::from_secs(1));
        for t in [0u64, 1, 2, 3, 4] {
            rec.record(SimTime::from_secs(t));
        }
        // An end inside bucket 2 keeps only the two complete buckets.
        let s = rec.series(SimTime::from_nanos(2_900_000_000));
        assert_eq!(s.len(), 2);
        // An end at an exact boundary keeps everything before it.
        assert_eq!(rec.series(SimTime::from_secs(5)).len(), 5);
        // Truncation is a view: the recorder still holds all samples.
        assert_eq!(rec.total(), 5);
        // An end past the last record pads zeros, not stale data.
        let long = rec.series(SimTime::from_secs(8));
        assert_eq!(long.len(), 8);
        assert_eq!(long.points[7].1, 0.0);
    }

    #[test]
    fn rate_scales_with_bucket_width() {
        let mut rec = ThroughputRecorder::new(SimDuration::from_millis(500));
        rec.record(SimTime::from_nanos(100));
        let s = rec.series(SimTime::from_secs(1));
        assert_eq!(s.points[0].1, 2.0); // 1 event / 0.5s bucket
    }

    #[test]
    fn mean_between_windows() {
        let s = TimeSeries::new(vec![(0.5, 10.0), (1.5, 20.0), (2.5, 30.0)]);
        assert_eq!(s.mean_between(0.0, 2.0), Some(15.0));
        assert_eq!(s.mean_between(5.0, 6.0), None);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn out_of_order_series_panics() {
        TimeSeries::new(vec![(2.0, 1.0), (1.0, 1.0)]);
    }

    #[test]
    fn availability_counts() {
        let mut c = AvailabilityCounter::new();
        assert_eq!(c.availability(), 1.0);
        c.attempts = 10;
        c.successes = 9;
        c.request_timeouts = 1;
        assert!((c.availability() - 0.9).abs() < 1e-12);
        assert_eq!(c.failures(), 1);

        let mut d = AvailabilityCounter::new();
        d.attempts = 10;
        d.successes = 10;
        c.merge(&d);
        assert_eq!(c.attempts, 20);
        assert!((c.availability() - 0.95).abs() < 1e-12);
    }

    #[test]
    fn piecewise_fit_recovers_clean_steps() {
        // 100 for 20 samples, 0 for 15, 70 for 25.
        let mut pts = Vec::new();
        for i in 0..60 {
            let v = if i < 20 {
                100.0
            } else if i < 35 {
                0.0
            } else {
                70.0
            };
            pts.push((i as f64 + 0.5, v));
        }
        let series = TimeSeries::new(pts);
        let segs = series.piecewise_fit(8, 50.0);
        assert_eq!(segs.len(), 3, "segments {segs:?}");
        assert_eq!((segs[0].start, segs[0].end), (0, 20));
        assert_eq!((segs[1].start, segs[1].end), (20, 35));
        assert_eq!((segs[2].start, segs[2].end), (35, 60));
        assert!((segs[0].mean - 100.0).abs() < 1e-9);
        assert!((segs[1].mean - 0.0).abs() < 1e-9);
        assert!((segs[2].mean - 70.0).abs() < 1e-9);
    }

    #[test]
    fn piecewise_fit_ignores_noise_below_the_penalty() {
        // A flat noisy series must come back as one segment.
        let pts: Vec<(f64, f64)> = (0..50)
            .map(|i| (i as f64, 100.0 + if i % 2 == 0 { 3.0 } else { -3.0 }))
            .collect();
        let series = TimeSeries::new(pts);
        let noise = series.noise_variance();
        assert!(noise > 0.0);
        let segs = series.piecewise_fit(8, 2.0 * noise * (50.0f64).ln() * 10.0);
        assert_eq!(segs.len(), 1, "segments {segs:?}");
    }

    #[test]
    fn piecewise_fit_edge_cases() {
        assert!(TimeSeries::default().piecewise_fit(4, 1.0).is_empty());
        let one = TimeSeries::new(vec![(0.0, 5.0)]);
        let segs = one.piecewise_fit(4, 1.0);
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].mean, 5.0);
        assert_eq!(one.noise_variance(), 0.0);
        // Zero penalty on a stepped series still cannot exceed
        // max_segments.
        let two = TimeSeries::new(vec![(0.0, 1.0), (1.0, 9.0), (2.0, 5.0)]);
        assert_eq!(two.piecewise_fit(2, 0.0).len(), 2);
    }

    #[test]
    fn noise_variance_tracks_alternating_jitter() {
        // Alternating ±d: every first difference is 2d, so the estimate
        // is (2d)²/2 = 2d².
        let d = 3.0;
        let pts: Vec<(f64, f64)> = (0..40)
            .map(|i| (i as f64, if i % 2 == 0 { d } else { -d }))
            .collect();
        let series = TimeSeries::new(pts);
        assert!((series.noise_variance() - 2.0 * d * d).abs() < 1e-9);
    }

    #[test]
    fn blind_fit_splits_a_visible_step_and_spans_are_in_seconds() {
        // Half-second buckets: 1000 for 10 s, then 400 for 10 s, with a
        // ±5 jitter far below the 4%-of-Tn floor.
        let pts: Vec<(f64, f64)> = (0..40)
            .map(|i| {
                let level = if i < 20 { 1000.0 } else { 400.0 };
                (
                    i as f64 * 0.5 + 0.25,
                    level + if i % 2 == 0 { 5.0 } else { -5.0 },
                )
            })
            .collect();
        let series = TimeSeries::new(pts);
        assert_eq!(series.bucket_width(), 0.5);
        let segs = series.blind_fit(1000.0, 8);
        let spans: Vec<(f64, f64)> = segs.iter().map(|s| s.span(0.5)).collect();
        assert_eq!(spans, [(0.0, 10.0), (10.0, 20.0)]);
        // A step under the floor is noise.
        let quiet = TimeSeries::new(
            (0..40)
                .map(|i| (i as f64, if i < 20 { 1000.0 } else { 990.0 }))
                .collect(),
        );
        assert_eq!(quiet.blind_fit(1000.0, 8).len(), 1);
        assert!(TimeSeries::default().blind_fit(1000.0, 8).is_empty());
        assert_eq!(TimeSeries::default().bucket_width(), 1.0);
    }

    #[test]
    fn index_at_finds_first_sample() {
        let s = TimeSeries::new(vec![(0.5, 1.0), (1.5, 2.0), (2.5, 3.0)]);
        assert_eq!(s.index_at(0.0), 0);
        assert_eq!(s.index_at(1.0), 1);
        assert_eq!(s.index_at(9.0), 3);
    }
}

/// Upper bounds of [`LatencyHistogram`]'s buckets: 10 µs, growing 1.3×
/// while below 100 s. One table serves every histogram.
const LATENCY_BOUNDS: [f64; latency_bound_count()] = latency_bounds();

/// How many bounds [`LATENCY_BOUNDS`] holds.
const fn latency_bound_count() -> usize {
    let (mut b, mut n) = (10e-6, 0);
    while b < 100.0 {
        b *= 1.3;
        n += 1;
    }
    n
}

const fn latency_bounds() -> [f64; latency_bound_count()] {
    let mut bounds = [0.0; latency_bound_count()];
    let (mut b, mut i) = (10e-6, 0);
    while i < bounds.len() {
        bounds[i] = b;
        b *= 1.3;
        i += 1;
    }
    bounds
}

/// A log-bucketed latency histogram with percentile queries.
///
/// Buckets grow geometrically from 10 µs to ~89 s (1.3× per bucket),
/// which keeps percentile error under 15% across the whole range a
/// request can survive — plenty for availability work, where the
/// interesting boundaries are "fast", "slow", and "timed out". The
/// bounds are one shared table, so a histogram is only its counts and
/// clones without allocating.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyHistogram {
    /// Samples per bucket; the last bucket holds those past every bound.
    counts: [u64; LATENCY_BOUNDS.len() + 1],
    total: u64,
    sum: f64,
    max: f64,
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: [0; LATENCY_BOUNDS.len() + 1],
            total: 0,
            sum: 0.0,
            max: 0.0,
        }
    }

    /// Records one latency sample, in seconds.
    pub fn record(&mut self, seconds: f64) {
        let seconds = seconds.max(0.0);
        let idx = LATENCY_BOUNDS.partition_point(|b| *b < seconds);
        self.counts[idx] += 1;
        self.total += 1;
        self.sum += seconds;
        self.max = self.max.max(seconds);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean latency in seconds (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum / self.total as f64
        }
    }

    /// Largest sample seen.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// The latency at quantile `q` in `[0, 1]` (upper bucket bound; the
    /// max for the overflow bucket). Returns 0 when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
        if self.total == 0 {
            return 0.0;
        }
        let target = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return LATENCY_BOUNDS.get(i).copied().unwrap_or(self.max);
            }
        }
        self.max
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

#[cfg(test)]
mod latency_tests {
    use super::*;

    #[test]
    fn quantiles_bracket_the_samples() {
        let mut h = LatencyHistogram::new();
        for i in 1..=1000 {
            h.record(f64::from(i) * 1e-3); // 1ms..1s uniform
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.quantile(0.5);
        assert!((0.4..0.7).contains(&p50), "p50 {p50}");
        let p99 = h.quantile(0.99);
        assert!((0.9..1.4).contains(&p99), "p99 {p99}");
        assert!(h.quantile(1.0) >= p99);
        assert!((h.mean() - 0.5005).abs() < 0.01);
    }

    #[test]
    fn empty_histogram_is_zero_everywhere() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn overflow_bucket_reports_the_max() {
        let mut h = LatencyHistogram::new();
        h.record(500.0); // beyond the last bound
        assert_eq!(h.quantile(0.99), 500.0);
        assert_eq!(h.max(), 500.0);
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(0.001);
        b.record(1.0);
        b.record(2.0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert!(a.quantile(1.0) >= 2.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_quantile_panics() {
        LatencyHistogram::new().quantile(1.5);
    }

    #[test]
    fn empty_histogram_quantiles_at_every_q() {
        let h = LatencyHistogram::new();
        for q in [0.0, 0.25, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 0.0, "q={q}");
        }
        assert_eq!(h.max(), 0.0);
    }

    #[test]
    fn single_sample_histogram_is_that_sample_everywhere() {
        let mut h = LatencyHistogram::new();
        h.record(0.0042);
        assert_eq!(h.count(), 1);
        assert!((h.mean() - 0.0042).abs() < 1e-12);
        assert_eq!(h.max(), 0.0042);
        // Every quantile resolves to the one occupied bucket's bound,
        // which brackets the sample within the 1.3x resolution.
        for q in [0.0, 0.5, 0.99, 1.0] {
            let v = h.quantile(q);
            assert!((0.0042..0.0042 * 1.3).contains(&v), "q={q} gave {v}");
        }
        // A zero-latency sample lands in the first bucket.
        let mut z = LatencyHistogram::new();
        z.record(0.0);
        assert_eq!(z.quantile(0.5), 10e-6);
        assert_eq!(z.max(), 0.0);
    }

    #[test]
    fn merging_an_empty_histogram_is_identity() {
        let mut a = LatencyHistogram::new();
        a.record(0.25);
        let before = a.clone();
        a.merge(&LatencyHistogram::new());
        assert_eq!(a, before);
    }
}

#[cfg(test)]
mod latency_proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// merge(a, b) == merge(b, a) for arbitrary sample sets spanning
        /// every bucket (sub-10µs through past-the-last-bound), so
        /// per-stage histograms assembled from time buckets in any order
        /// agree exactly.
        #[test]
        fn merge_is_commutative(
            xs in prop::collection::vec(0u64..60_000_000, 0..40),
            ys in prop::collection::vec(0u64..60_000_000, 0..40),
        ) {
            let fill = |samples: &[u64]| {
                let mut h = LatencyHistogram::new();
                for &us in samples {
                    h.record(us as f64 * 2e-6); // 0 .. 120 s
                }
                h
            };
            let (a, b) = (fill(&xs), fill(&ys));
            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba = b.clone();
            ba.merge(&a);
            prop_assert_eq!(&ab, &ba);
            prop_assert_eq!(ab.count(), a.count() + b.count());
            // The merged quantiles never step outside the union range.
            prop_assert!(ab.quantile(1.0) >= a.quantile(1.0).max(b.quantile(1.0)) - 1e-12);
        }
    }

    #[test]
    fn bucket_resolution_is_bounded() {
        // Adjacent bucket bounds differ by 1.3x: the relative error of a
        // quantile is at most 30%.
        for w in LATENCY_BOUNDS.windows(2) {
            assert!(w[1] / w[0] < 1.3001);
        }
    }

    /// The shared table holds the very bounds each histogram used to
    /// build for itself at run time.
    #[test]
    fn shared_bounds_match_the_runtime_loop() {
        let mut runtime = Vec::new();
        let mut b = 10e-6;
        while b < 100.0 {
            runtime.push(b);
            b *= 1.3;
        }
        let bits = |v: &[f64]| v.iter().map(|b| b.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&LATENCY_BOUNDS), bits(&runtime));
    }
}
