//! Fixed log₂-bucket histograms.
//!
//! Values carry no unit here: a histogram's name says what it holds
//! (`round_trip_ns` nanoseconds, `frame_bytes` bytes, `send_latency_ms`
//! virtual milliseconds), so the JSON keys are unitless too. Bucket 0
//! holds only the value 0; bucket `i ≥ 1` holds values whose highest set
//! bit is bit `i - 1`, i.e. the half-open range `[2^(i-1), 2^i)` (bucket
//! 1 holds 1, bucket 2 holds 2 and 3). With `BUCKETS = 40` the top bucket
//! starts near 2^39 (~550 s of nanoseconds), far beyond any value this
//! toolkit records; larger values clamp into the last bucket. Recording is one comparison and one array increment,
//! cheap enough for always-on instrumentation.

/// Number of log₂ buckets.
pub const BUCKETS: usize = 40;

/// A histogram with fixed log₂ buckets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Histogram {
        Histogram {
            counts: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn bucket_of(ns: u64) -> usize {
        ((64 - ns.leading_zeros()) as usize).min(BUCKETS - 1)
    }

    /// Inclusive upper bound of bucket `i` in nanoseconds.
    pub fn bucket_upper(i: usize) -> u64 {
        if i >= 63 {
            u64::MAX
        } else {
            (1u64 << i).saturating_sub(1).max(1)
        }
    }

    /// Records one value (nanoseconds).
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::bucket_of(ns)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(ns);
        self.min = self.min.min(ns);
        self.max = self.max.max(ns);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values in nanoseconds.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean in nanoseconds (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Is the histogram empty?
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Estimated `q`-quantile (`0.0 ..= 1.0`) in nanoseconds: linearly
    /// interpolated within the bucket where the cumulative count crosses
    /// the rank, clamped to the observed min/max. Reporting the bucket
    /// upper bound instead would inflate every quantile by up to 2x (a
    /// lone 719 ns sample would report p50 = 1023 ns).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                // The overflow bucket has no meaningful upper bound;
                // report the observed max instead.
                if i == BUCKETS - 1 {
                    return self.max;
                }
                let lower = if i == 0 { 0 } else { 1u64 << (i - 1) };
                let upper = Self::bucket_upper(i);
                // Fraction of this bucket's samples at or below the rank,
                // assuming samples spread uniformly across the bucket.
                let into = (rank - seen) as f64 / c as f64;
                let est = lower as f64 + into * (upper - lower) as f64;
                return (est as u64).clamp(self.min(), self.max);
            }
            seen += c;
        }
        self.max
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Clears all recorded data.
    pub fn reset(&mut self) {
        *self = Histogram::new();
    }

    /// Non-empty buckets as `(upper_bound_ns, count)` pairs.
    pub fn buckets(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket_upper(i), c))
            .collect()
    }

    /// One-line human summary, the `obs histogram` output format.
    pub fn summary(&self) -> String {
        format!(
            "count {} min {} mean {} p50 {} p90 {} p99 {} max {}",
            self.count,
            self.min(),
            self.mean(),
            self.quantile(0.50),
            self.quantile(0.90),
            self.quantile(0.99),
            self.max
        )
    }

    /// JSON object for `obs dump -format json`.
    pub fn to_json(&self) -> String {
        let mut o = crate::json::Object::new();
        o.field_u64("count", self.count);
        o.field_u64("sum", self.sum);
        o.field_u64("min", self.min());
        o.field_u64("mean", self.mean());
        o.field_u64("p50", self.quantile(0.50));
        o.field_u64("p90", self.quantile(0.90));
        o.field_u64("p99", self.quantile(0.99));
        o.field_u64("max", self.max);
        let mut arr = crate::json::Array::new();
        for (le, c) in self.buckets() {
            let mut b = crate::json::Object::new();
            b.field_u64("le", le);
            b.field_u64("count", c);
            arr.push_raw(&b.build());
        }
        o.field_raw("buckets", &arr.build());
        o.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_of_pins_the_low_buckets() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert!(h.buckets().is_empty());
    }

    #[test]
    fn record_tracks_count_sum_min_max() {
        let mut h = Histogram::new();
        h.record(100);
        h.record(1_000);
        h.record(10_000);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 11_100);
        assert_eq!(h.min(), 100);
        assert_eq!(h.max(), 10_000);
        assert_eq!(h.mean(), 3_700);
    }

    #[test]
    fn quantiles_are_monotone_and_bounded() {
        let mut h = Histogram::new();
        for i in 1..=1000u64 {
            h.record(i * 100);
        }
        let p50 = h.quantile(0.50);
        let p90 = h.quantile(0.90);
        let p99 = h.quantile(0.99);
        assert!(p50 <= p90 && p90 <= p99, "{p50} {p90} {p99}");
        assert!(p99 <= h.max());
        // p50 of 100..100_000 should land within a factor of 2 of 50_000.
        assert!((32_768..=131_072).contains(&p50), "{p50}");
    }

    #[test]
    fn quantiles_interpolate_within_the_bucket() {
        // A single sample reports itself, not its bucket's upper bound.
        let mut h = Histogram::new();
        h.record(719);
        assert_eq!(h.quantile(0.5), 719);
        assert_eq!(h.quantile(0.99), 719);

        // Two samples in one bucket: the interpolated p50 sits at the
        // bucket midpoint, strictly below the old upper-bound answer.
        let mut h = Histogram::new();
        h.record(600);
        h.record(900);
        let p50 = h.quantile(0.5);
        assert!((600..1023).contains(&p50), "{p50}");
        assert!(h.quantile(1.0) <= 900);
    }

    #[test]
    fn large_values_clamp_into_last_bucket() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile(1.0), u64::MAX);
    }

    #[test]
    fn merge_combines() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 10);
        assert_eq!(a.max(), 1_000_000);
    }

    #[test]
    fn reset_clears() {
        let mut h = Histogram::new();
        h.record(42);
        h.reset();
        assert!(h.is_empty());
    }

    #[test]
    fn json_has_percentiles_and_buckets() {
        let mut h = Histogram::new();
        h.record(500);
        let j = h.to_json();
        assert!(j.contains("\"count\":1"), "{j}");
        assert!(j.contains("\"p99\":500"), "{j}");
        assert!(!j.contains("_ns"), "keys carry no unit: {j}");
        assert!(j.contains("\"buckets\":[{"), "{j}");
    }
}
