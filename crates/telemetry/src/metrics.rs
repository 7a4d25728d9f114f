//! A per-run registry of named counters, gauges and histograms.
//!
//! Everything is stored in `BTreeMap`s keyed by name, so iteration —
//! and therefore every exported summary — is deterministically
//! ordered. Counters are integers, gauges are floats produced by
//! deterministic arithmetic (e.g. CPU busy fractions), histograms are
//! power-of-two log-bucketed integer distributions. None of it ever
//! reads the wall clock.

use std::collections::BTreeMap;

/// A log-bucketed distribution of `u64` samples (one bucket per bit
/// width, so 0, 1, 2–3, 4–7, ... 2^63–). Coarse, but enough to read
/// off tail behaviour, and merge- and order-independent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
        }
    }
}

fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or 0 when empty.
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Largest sample, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The upper bound of the bucket containing the `q`-quantile
    /// sample (`q` in `[0, 1]`), or 0 when empty. Bucket resolution:
    /// the answer is exact to within a factor of two.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return if i == 0 {
                    0
                } else {
                    (1u64 << (i - 1)).saturating_mul(2) - 1
                };
            }
        }
        self.max
    }
}

/// The registry: every named metric one run produced.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `v` to the named counter (creating it at zero).
    pub fn counter_add(&mut self, name: &str, v: u64) {
        if v != 0 || !self.counters.contains_key(name) {
            *self.counters.entry(name.to_string()).or_insert(0) += v;
        }
    }

    /// Sets the named gauge.
    pub fn gauge_set(&mut self, name: &str, v: f64) {
        self.gauges.insert(name.to_string(), v);
    }

    /// Records one sample into the named histogram.
    pub fn histogram_record(&mut self, name: &str, v: u64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .record(v);
    }

    /// Current value of a counter (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of a gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// The named histogram, if any sample was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// All gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Renders the deterministic plain-text summary: counters, gauges,
    /// then histograms, each in name order.
    pub fn text_summary(&self, label: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "== metrics: {label}");
        for (k, v) in &self.counters {
            let _ = writeln!(out, "counter {k} = {v}");
        }
        for (k, v) in &self.gauges {
            let _ = writeln!(out, "gauge   {k} = {v:.4}");
        }
        for (k, h) in &self.histograms {
            let _ = writeln!(
                out,
                "hist    {k}: n={} min={} p50<={} p99<={} max={} mean={:.1}",
                h.count(),
                h.min(),
                h.quantile(0.5),
                h.quantile(0.99),
                h.max(),
                h.mean(),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_default_to_zero() {
        let mut reg = MetricsRegistry::new();
        assert_eq!(reg.counter("tcp.retransmissions"), 0);
        reg.counter_add("tcp.retransmissions", 2);
        reg.counter_add("tcp.retransmissions", 3);
        assert_eq!(reg.counter("tcp.retransmissions"), 5);
    }

    #[test]
    fn zero_counter_add_registers_the_name() {
        let mut reg = MetricsRegistry::new();
        reg.counter_add("via.pin_failures", 0);
        assert_eq!(reg.counters().count(), 1);
        assert_eq!(reg.counter("via.pin_failures"), 0);
    }

    #[test]
    fn histogram_tracks_extremes_and_quantiles() {
        let mut h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        for v in [1u64, 2, 4, 1000, 8] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.sum(), 1015);
        // The median sample (4) lands in the 4–7 bucket.
        assert_eq!(h.quantile(0.5), 7);
        assert!(h.quantile(1.0) >= 1000);
    }

    #[test]
    fn summary_is_name_ordered() {
        let mut reg = MetricsRegistry::new();
        reg.counter_add("zeta", 1);
        reg.counter_add("alpha", 2);
        reg.gauge_set("cpu.node0", 0.25);
        reg.histogram_record("lat", 7);
        let s = reg.text_summary("test");
        let alpha = s.find("alpha").unwrap();
        let zeta = s.find("zeta").unwrap();
        assert!(alpha < zeta);
        assert!(s.contains("gauge   cpu.node0 = 0.2500"));
        assert!(s.contains("hist    lat: n=1"));
    }
}
