//! Log-bucketed latency histograms: constant-size and accurate to one
//! bucket width at every percentile.

/// Lower edge of the first log bucket, seconds (10 µs — well under any
/// layer's execution time).
const LO_S: f64 = 1e-5;

/// Geometric bucket growth factor: `2^(1/4)`, i.e. four buckets per
/// octave, ~19 % relative width.
const GROWTH: f64 = 1.189_207_115_002_721;

/// Bucket count. Bucket 0 is the underflow bin `[0, LO_S)`; the last
/// bucket is the overflow bin. 96 buckets cover `10 µs … ~119 s`.
const BUCKETS: usize = 96;

/// A fixed-size log-bucketed latency histogram.
///
/// Bucket 0 holds `[0, 10 µs)`; bucket `b` holds
/// `[10 µs · G^(b-1), 10 µs · G^b)` with `G = 2^(1/4)`; the final
/// bucket is the overflow bin. The nearest-rank
/// [`percentile_s`](LatencyHistogram::percentile_s) reports a bucket's
/// *upper* edge, so it brackets the exact pooled-sample percentile from
/// above and is off by at most one bucket width (a factor of `G`).
///
/// Everything here is integer counts plus a running maximum, so
/// snapshots of two runs of the same configuration and seed compare
/// bit-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
    max_s: f64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            total: 0,
            max_s: 0.0,
        }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The relative width of one bucket — the guaranteed accuracy bound
    /// of [`percentile_s`](LatencyHistogram::percentile_s): the reported
    /// value `v` and the exact sample percentile `p` satisfy
    /// `p <= v <= p * relative_width()` (up to the overflow bin).
    #[must_use]
    pub fn relative_width() -> f64 {
        GROWTH
    }

    fn bucket_of(latency_s: f64) -> usize {
        if latency_s.is_nan() || latency_s < LO_S {
            // NaN and sub-LO values land in the underflow bin.
            return 0;
        }
        let b = ((latency_s / LO_S).ln() / GROWTH.ln()).floor();
        if b.is_finite() && b >= 0.0 {
            ((b as usize) + 1).min(BUCKETS - 1)
        } else {
            0
        }
    }

    fn upper_edge(bucket: usize) -> f64 {
        if bucket == 0 {
            LO_S
        } else {
            LO_S * GROWTH.powi(bucket as i32)
        }
    }

    /// Records one latency sample.
    pub fn record(&mut self, latency_s: f64) {
        self.counts[Self::bucket_of(latency_s)] += 1;
        self.total += 1;
        self.max_s = self.max_s.max(latency_s);
    }

    /// Samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Largest recorded sample.
    #[must_use]
    pub fn max_s(&self) -> f64 {
        self.max_s
    }

    /// Nearest-rank percentile (`p` in `[0, 100]`), reported as the
    /// holding bucket's upper edge — an upper bound on the exact sample
    /// percentile, tight to one bucket width. The overflow bin reports
    /// the recorded maximum. Returns 0 when empty.
    #[must_use]
    pub fn percentile_s(&self, p: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((p.clamp(0.0, 100.0) / 100.0) * self.total as f64).ceil() as u64;
        let rank = rank.max(1);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return if b == BUCKETS - 1 {
                    self.max_s
                } else {
                    Self::upper_edge(b)
                };
            }
        }
        self.max_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_brackets_exact_samples_within_one_bucket() {
        let mut h = LatencyHistogram::new();
        let mut samples: Vec<f64> = (1..=1000).map(|i| 1e-4 * (i as f64).sqrt()).collect();
        for &s in &samples {
            h.record(s);
        }
        samples.sort_by(f64::total_cmp);
        for p in [50.0, 90.0, 95.0, 99.0] {
            let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
            let exact = samples[rank.max(1) - 1];
            let approx = h.percentile_s(p);
            assert!(
                approx >= exact - 1e-12 && approx <= exact * LatencyHistogram::relative_width(),
                "p{p}: approx {approx} not within one bucket of exact {exact}"
            );
        }
    }

    #[test]
    fn underflow_and_overflow_bins() {
        let mut h = LatencyHistogram::new();
        h.record(0.0);
        h.record(1e-9);
        h.record(1e6);
        h.record(0.5);
        assert_eq!(h.count(), 4);
        assert_eq!(h.max_s(), 1e6);
        assert_eq!(h.percentile_s(100.0), 1e6);
        assert!(h.percentile_s(25.0) <= 1e-5 + 1e-18);
    }
}
