//! Order statistics and span self time.

/// The `q`-quantile of `values` by linear interpolation between the
/// closest ranks (0 for an empty slice).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The first and third quartiles of `values`.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    (quantile(values, 0.25), quantile(values, 0.75))
}

/// Candidate tail percentiles, highest first.
const TAIL_PERCENTILES: [f64; 6] = [99.9, 99.5, 99.0, 97.5, 95.0, 90.0];

/// The highest percentile of [`TAIL_PERCENTILES`] that leaves at least
/// `beyond` of `n` samples above it, or the median when none does.
pub fn tail_percentile(n: usize, beyond: usize) -> f64 {
    TAIL_PERCENTILES
        .into_iter()
        .find(|p| n as f64 * (100.0 - p) / 100.0 >= beyond as f64 - 1e-9)
        .unwrap_or(50.0)
}

/// One recorded interval, in nanoseconds since the recording began.
#[derive(Debug, Clone, PartialEq)]
pub struct Interval {
    /// Span name; self time is summed per name.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
}

/// Self time per span name, in ns: each span's duration minus the part
/// of it that its child spans cover, summed over spans of that name.
pub fn self_times(spans: &[Interval]) -> Vec<(&'static str, u64)> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    let mut out: Vec<(&'static str, u64)> = Vec::new();
    for (s, kids) in spans.iter().zip(&mut children) {
        kids.sort_unstable();
        let mut covered = 0;
        let mut reach = s.start;
        for &(a, b) in kids.iter() {
            let (a, b) = (a.max(reach), b.min(s.end));
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        let own = (s.end - s.start).saturating_sub(covered);
        match out.iter_mut().find(|(n, _)| *n == s.name) {
            Some((_, t)) => *t += own,
            None => out.push((s.name, own)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_interpolate() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (2.0, 4.0));
        assert_eq!(quantile(&[1.0, 2.0], 1.0), 2.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(10_000, 10), 99.9);
        assert_eq!(tail_percentile(1_200, 10), 99.0);
        assert_eq!(tail_percentile(480, 10), 97.5);
        assert_eq!(tail_percentile(240, 10), 95.0);
        assert_eq!(tail_percentile(100, 10), 90.0);
        assert_eq!(tail_percentile(20, 10), 50.0);
        for n in [100, 240, 480, 1_200, 10_000] {
            let p = tail_percentile(n, 10);
            assert!(n as f64 * (100.0 - p) / 100.0 >= 10.0 - 1e-9);
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let span = |name, parent, start, end| Interval {
            name,
            parent,
            start,
            end,
        };
        let spans = vec![
            span("rep", None, 0, 100),
            span("setup", Some(0), 10, 30),
            span("slice", Some(0), 30, 60),
            // Overlaps its sibling: covered time counts once.
            span("slice", Some(0), 50, 70),
            span("report", Some(0), 90, 120),
            span("inner", Some(4), 95, 100),
        ];
        let t = self_times(&spans);
        let get = |n| t.iter().find(|(k, _)| *k == n).map(|(_, v)| *v);
        // 100 - (20 + 40 + 10 covered up to the rep's end)
        assert_eq!(get("rep"), Some(30));
        assert_eq!(get("setup"), Some(20));
        assert_eq!(get("slice"), Some(30 + 20));
        assert_eq!(get("report"), Some(25));
        assert_eq!(get("inner"), Some(5));
    }
}
