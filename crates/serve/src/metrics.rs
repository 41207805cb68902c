//! Service-level metrics: latency histograms, batch occupancy, queue depth,
//! and the structure's hint counters.

/// Log2-bucketed latency histogram (nanoseconds). Bucket `i` covers
/// `[2^i, 2^(i+1))`; quantiles report the bucket's upper bound, so a
/// reported p99 is a ≤ 2× overestimate — plenty for tracking a trajectory
/// across PRs, with O(1) memory and no allocation on the hot path.
#[derive(Debug, Clone)]
pub struct LatencyHisto {
    buckets: [u64; 64],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for LatencyHisto {
    fn default() -> LatencyHisto {
        LatencyHisto {
            buckets: [0; 64],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl LatencyHisto {
    /// Empty histogram.
    pub fn new() -> LatencyHisto {
        LatencyHisto::default()
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        let idx = 63 - (ns | 1).leading_zeros() as usize;
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += ns;
        self.max = self.max.max(ns);
    }

    /// Fold another histogram in (per-thread histograms, one report).
    pub fn merge(&mut self, other: &LatencyHisto) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean sample, ns.
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest sample, ns.
    pub fn max_ns(&self) -> u64 {
        self.max
    }

    /// Quantile estimate (bucket upper bound, clamped to the observed max).
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                let upper = if i >= 63 { u64::MAX } else { (1u64 << (i + 1)) - 1 };
                return upper.min(self.max);
            }
        }
        self.max
    }

    /// Median estimate.
    pub fn p50_ns(&self) -> u64 {
        self.quantile_ns(0.50)
    }

    /// 99th-percentile estimate.
    pub fn p99_ns(&self) -> u64 {
        self.quantile_ns(0.99)
    }

    /// 99.9th-percentile estimate.
    pub fn p999_ns(&self) -> u64 {
        self.quantile_ns(0.999)
    }
}

/// Aggregated metrics for one service run: what `perfbench`'s ladder and
/// this crate's tests read.
#[derive(Debug, Clone, Default)]
pub struct ServiceMetrics {
    /// Requests completed.
    pub ops: u64,
    /// Completed `Range`s.
    pub ranges: u64,
    /// Replies that failed structurally (reserved key, pool exhausted).
    pub failed: u64,
    /// Epochs closed.
    pub epochs: u64,
    /// Batches dispatched.
    pub batches: u64,
    /// Requests shed at admission (the intake queue was full).
    pub sheds: u64,
    /// Sheds decided by a degradation ladder. Always 0: `serve()` runs no
    /// supervisor — the edge heals its engine (DESIGN §13) — and
    /// `perfbench`'s ladder still reads the field.
    pub degraded_sheds: u64,
    /// Largest intake depth sampled at an epoch close.
    pub queue_depth_max: usize,
    /// End-to-end latency per request (virtual ns).
    pub latency: LatencyHisto,
    /// Fraction of bottom-hint validations that succeeded across workers
    /// (0.0 when the hint cache never ran) — the key-sorted-dispatch
    /// locality signal.
    pub hint_hit_rate: f64,
    occupancy_sum: f64,
}

impl ServiceMetrics {
    /// Record a dispatched batch: `len` requests padded to `aligned` lanes.
    pub fn record_batch(&mut self, len: usize, aligned: usize) {
        self.batches += 1;
        self.occupancy_sum += len as f64 / aligned.max(1) as f64;
    }

    /// Sample the intake depth at an epoch close.
    pub fn sample_queue_depth(&mut self, depth: usize) {
        self.queue_depth_max = self.queue_depth_max.max(depth);
    }

    /// Mean lane occupancy across dispatched batches, in `0..=1`.
    pub fn mean_occupancy(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.occupancy_sum / self.batches as f64
        }
    }

    /// Fold the run's merged structure-level counters into the hint rate.
    pub fn absorb_op_stats(&mut self, s: &gfsl::OpStats) {
        self.hint_hit_rate = s.hint_hit_rate().unwrap_or(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_are_ordered_and_bounded() {
        let mut h = LatencyHisto::new();
        for ns in 1..=10_000u64 {
            h.record(ns);
        }
        assert_eq!(h.count(), 10_000);
        let (p50, p99, p999) = (h.p50_ns(), h.p99_ns(), h.p999_ns());
        assert!(p50 <= p99 && p99 <= p999, "{p50} {p99} {p999}");
        assert!(p999 <= h.max_ns());
        // p50 of uniform 1..=10000 is ~5000; log2 bucket upper bound gives
        // at most 2x overestimate.
        assert!((4_000..=10_000).contains(&p50), "p50 = {p50}");
        assert!((h.mean_ns() - 5_000.5).abs() < 1.0);
    }

    #[test]
    fn histogram_handles_empty_and_zero() {
        let mut h = LatencyHisto::new();
        assert_eq!(h.p99_ns(), 0);
        h.record(0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.p50_ns(), 0, "clamped to observed max");
    }

    #[test]
    fn merged_histograms_equal_one_fed_both_streams() {
        let (mut a, mut b, mut both) = (LatencyHisto::new(), LatencyHisto::new(), LatencyHisto::new());
        for i in 0..2_000u64 {
            let ns = i * i + 1;
            if i % 3 == 0 { &mut a } else { &mut b }.record(ns);
            both.record(ns);
        }
        a.merge(&b);
        assert_eq!((a.buckets, a.count, a.sum, a.max), (both.buckets, both.count, both.sum, both.max));
        assert_eq!(a.p99_ns(), both.p99_ns());

        // Rank 0 clamps to the first sample: its bucket, not `min(1, max)`.
        let mut h = LatencyHisto::new();
        h.record(5_000);
        h.record(9_000);
        assert!(h.quantile_ns(0.0) >= 4_096, "q0 = {}", h.quantile_ns(0.0));
    }

    #[test]
    fn occupancy_average_and_depth_high_water() {
        let mut m = ServiceMetrics::default();
        m.record_batch(32, 32);
        m.record_batch(16, 32);
        assert_eq!(m.batches, 2);
        assert!((m.mean_occupancy() - 0.75).abs() < 1e-9);
        m.sample_queue_depth(10);
        m.sample_queue_depth(30);
        assert_eq!(m.queue_depth_max, 30);
    }

    #[test]
    fn hint_counters_fold_in() {
        let mut m = ServiceMetrics::default();
        let mut s = gfsl::OpStats::new();
        s.hint_hits = 3;
        s.hint_misses = 1;
        m.absorb_op_stats(&s);
        assert!((m.hint_hit_rate - 0.75).abs() < 1e-12);
    }
}
