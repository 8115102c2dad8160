//! Exact percentiles over recorded samples, a fine log-linear histogram for
//! per-call times, and the result line.

/// Nearest-rank percentile of `sorted` (ascending); `q` in (0, 1].
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank quantile of `values` (not empty), `q` in (0, 1].
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of `values`, which must not be empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Sub-buckets per power of two: a bucket is at most 1/64 (1.6%) wide
/// relative to its lower edge.
const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB as usize;

/// Log-linear histogram of nanosecond durations. Per-call times are too
/// many to keep one by one (several million per second), so the per-layer
/// percentiles come from here; the transaction percentiles, which are
/// end-to-end metrics, are exact.
#[derive(Clone)]
pub struct CallHist {
    counts: Vec<u64>,
    pub calls: u64,
    pub sum_ns: u64,
}

impl Default for CallHist {
    fn default() -> Self {
        CallHist {
            counts: vec![0; BUCKETS],
            calls: 0,
            sum_ns: 0,
        }
    }
}

impl CallHist {
    fn index(ns: u64) -> usize {
        if ns < SUB {
            return ns as usize;
        }
        let octave = 63 - ns.leading_zeros();
        let shift = octave - SUB_BITS;
        (((shift + 1) as u64) * SUB + ((ns >> shift) & (SUB - 1))) as usize
    }

    /// Midpoint of bucket `i`, in nanoseconds.
    fn value(i: usize) -> f64 {
        let i = i as u64;
        if i < SUB {
            return i as f64;
        }
        let shift = i / SUB - 1;
        let low = (SUB + i % SUB) << shift;
        low as f64 + ((1u64 << shift) as f64 - 1.0) / 2.0
    }

    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::index(ns)] += 1;
        self.calls += 1;
        self.sum_ns += ns;
    }

    pub fn merge(&mut self, other: &CallHist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.calls += other.calls;
        self.sum_ns += other.sum_ns;
    }

    /// Nearest-rank percentile in nanoseconds; 0 when nothing was recorded.
    pub fn percentile_ns(&self, q: f64) -> f64 {
        if self.calls == 0 {
            return 0.0;
        }
        let rank = ((q * self.calls as f64).ceil() as u64).clamp(1, self.calls);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::value(i);
            }
        }
        unreachable!("rank is at most the number of recorded calls")
    }
}

/// One metric of the result line.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// Collects metrics and renders the final JSON line.
#[derive(Default)]
pub struct Report {
    metrics: Vec<Metric>,
}

impl Report {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(
            !self.metrics.iter().any(|m| m.name == name),
            "metric {name} reported twice"
        );
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn json_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            body.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    #[test]
    fn histogram_error_is_bounded() {
        for ns in [0u64, 1, 63, 64, 65, 1000, 12_345, 999_999, 1 << 40] {
            let mut h = CallHist::default();
            h.record(ns);
            let got = h.percentile_ns(0.5);
            let err = (got - ns as f64).abs() / (ns.max(1) as f64);
            assert!(err <= 1.0 / 64.0, "{ns} -> {got}");
        }
    }

    #[test]
    fn nearest_rank_quantiles_of_floats() {
        let v: Vec<f64> = (1..=9).rev().map(f64::from).collect();
        assert_eq!(quantile(&v, 0.25), 3.0);
        assert_eq!(quantile(&v, 0.75), 7.0);
        assert_eq!(quantile(&[1.0, f64::INFINITY, 2.0, 3.0], 0.25), 1.0);
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
