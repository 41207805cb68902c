//! Service-level metrics: latency histograms, batch occupancy, queue depth,
//! and the structure's hint counters.

/// Log2-bucketed latency histogram (nanoseconds). Bucket `i` covers
/// `[2^i, 2^(i+1))`; quantiles report the bucket's upper bound, so a
/// reported p99 is a ≤ 2× overestimate — plenty for tracking a trajectory
/// across PRs, with O(1) memory and no allocation on the hot path.
#[derive(Debug, Clone)]
pub struct LatencyHisto {
    // Serialized as the quantile summary, not the raw buckets — see the
    // hand-written `Serialize` impl below.
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

/// A histogram serializes as its quantile summary: 64 raw log2 buckets
/// would bloat every report row without adding anything the summary does
/// not carry (the buckets are a lossy sketch to begin with).
impl serde::Serialize for LatencyHisto {
    fn serialize_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("count".to_string(), serde::Value::U64(self.count)),
            ("mean_ns".to_string(), serde::Value::F64(self.mean_ns())),
            ("p50_ns".to_string(), serde::Value::U64(self.p50_ns())),
            ("p99_ns".to_string(), serde::Value::U64(self.p99_ns())),
            ("p999_ns".to_string(), serde::Value::U64(self.p999_ns())),
            ("max_ns".to_string(), serde::Value::U64(self.max)),
        ])
    }
}

/// Aggregated metrics for one service run.
#[derive(Debug, Clone, Default, serde::Serialize)]
pub struct ServiceMetrics {
    /// Requests completed.
    pub ops: u64,
    /// Completed `Get`s.
    pub gets: u64,
    /// Completed `Insert`s.
    pub inserts: u64,
    /// Completed `Delete`s.
    pub deletes: u64,
    /// Completed `Range`s.
    pub ranges: u64,
    /// Completed `MinEntry` peeks.
    pub min_peeks: u64,
    /// Completed `PopMin` extract-mins.
    pub pops: u64,
    /// Replies that failed structurally (reserved key, pool exhausted).
    pub failed: u64,
    /// Epochs closed.
    pub epochs: u64,
    /// Batches dispatched.
    pub batches: u64,
    /// Batches that were read-only (lock-free fast path end to end).
    pub read_only_batches: u64,
    /// Requests shed at admission (queue-full and degraded-mode combined).
    pub sheds: u64,
    /// Sheds decided by the degradation ladder rather than a full queue.
    pub degraded_sheds: u64,
    /// Replies that failed with a typed operation abort (crash, quarantine,
    /// retry budget, or deadline) — the recovery signal the supervisor
    /// watches. Also counted in `failed`.
    pub aborts: u64,
    /// Quarantined chunks repaired (rolled forward, rolled back, or
    /// released clean) by the service's per-epoch repair pass.
    pub repairs: u64,
    /// Deepest quarantine observed at an epoch boundary.
    pub quarantine_depth_max: u64,
    /// Degradation-ladder transitions (both directions).
    pub mode_transitions: u64,
    /// Duration of the last completed degraded interval — first rung away
    /// from normal service until the return to it — in virtual ns.
    pub time_to_heal_ns: u64,
    /// Largest intake depth sampled at an epoch close.
    pub queue_depth_max: usize,
    /// End-to-end latency per request (virtual ns).
    pub latency: LatencyHisto,
    /// Wall-clock seconds for the whole run (formation + routing included).
    pub run_wall_s: f64,
    /// Fraction of bottom-hint validations that succeeded across workers
    /// (0.0 when the hint cache never ran) — the key-sorted-dispatch
    /// locality signal.
    pub hint_hit_rate: f64,
    /// Hint validations answered by re-reading one lock word instead of
    /// the whole chunk (see [`gfsl::OpStats::skip_reads`]).
    pub skip_reads: u64,
    /// Multiversion clock at the end of the run (0 = mvcc knob off).
    pub mvcc_clock: u64,
    /// Version pre-images still retained on chains at the end of the run.
    pub mvcc_images: u64,
    /// Deepest single-chunk version chain observed over the whole run —
    /// the bounded-retention signal the mvcc bench gates on.
    pub mvcc_chain_hwm: u64,
    /// Chunk pre-images captured by stamped writers.
    pub mvcc_captures: u64,
    /// Images condemned by vacuum passes.
    pub mvcc_vacuumed: u64,
    /// Read tickets minted (pinned snapshots taken through the engine).
    pub mvcc_pins: u64,
    /// Versioned chunk resolutions served from a chain image rather than
    /// the live chunk.
    pub mvcc_image_resolves: u64,
    #[serde(skip)]
    occupancy_sum: f64,
}

impl ServiceMetrics {
    /// Record a dispatched batch: `len` requests padded to `aligned` lanes.
    pub fn record_batch(&mut self, len: usize, aligned: usize, read_only: bool) {
        self.batches += 1;
        if read_only {
            self.read_only_batches += 1;
        }
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

    /// Fold the run's merged structure-level counters into the hint fields.
    pub fn absorb_op_stats(&mut self, s: &gfsl::OpStats) {
        self.hint_hit_rate = s.hint_hit_rate().unwrap_or(0.0);
        self.skip_reads = s.skip_reads;
    }

    /// Fold the engine's multiversion counters into the report (no-op —
    /// all zeros — when the mvcc knob is off and the engine returns
    /// `None`).
    pub fn absorb_mvcc_stats(&mut self, s: Option<gfsl::MvccStats>) {
        let Some(s) = s else { return };
        self.mvcc_clock = s.clock;
        self.mvcc_images = s.images;
        self.mvcc_chain_hwm = s.chain_hwm;
        self.mvcc_captures = s.captures;
        self.mvcc_vacuumed = s.vacuumed;
        self.mvcc_pins = s.pins;
        self.mvcc_image_resolves = s.image_resolves;
    }

    /// Completed throughput over the whole run wall-clock, Mops/s.
    pub fn mops(&self) -> f64 {
        if self.run_wall_s <= 0.0 {
            0.0
        } else {
            self.ops as f64 / self.run_wall_s / 1.0e6
        }
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
        m.record_batch(32, 32, true);
        m.record_batch(16, 32, false);
        assert_eq!(m.batches, 2);
        assert_eq!(m.read_only_batches, 1);
        assert!((m.mean_occupancy() - 0.75).abs() < 1e-9);
        m.sample_queue_depth(10);
        m.sample_queue_depth(30);
        assert_eq!(m.queue_depth_max, 30);
    }

    #[test]
    fn metrics_serialize_to_json_with_histo_summaries() {
        let mut m = ServiceMetrics {
            ops: 3,
            gets: 2,
            run_wall_s: 0.25,
            ..Default::default()
        };
        m.record_batch(16, 32, true);
        m.latency.record(1_000);
        let json = serde::to_json_string(&m);
        assert!(json.starts_with("{\"ops\":3,\"gets\":2,"), "{json}");
        assert!(
            json.contains("\"latency\":{\"count\":1,"),
            "histograms serialize as summaries: {json}"
        );
        assert!(json.contains("\"run_wall_s\":0.25"), "{json}");
        assert!(
            !json.contains("occupancy_sum"),
            "private accumulators are skipped: {json}"
        );
    }

    #[test]
    fn hint_counters_fold_in_and_serialize() {
        let mut m = ServiceMetrics::default();
        let mut s = gfsl::OpStats::new();
        s.hint_hits = 3;
        s.hint_misses = 1;
        s.skip_reads = 5;
        m.absorb_op_stats(&s);
        assert!((m.hint_hit_rate - 0.75).abs() < 1e-12);
        let json = serde::to_json_string(&m);
        assert!(json.contains("\"hint_hit_rate\":0.75"), "{json}");
        assert!(json.contains("\"skip_reads\":5"), "{json}");
    }

    #[test]
    fn mvcc_counters_fold_in_and_stay_zero_when_off() {
        let mut m = ServiceMetrics::default();
        m.absorb_mvcc_stats(None);
        assert_eq!(m.mvcc_clock, 0, "knob off: all zeros");
        let s = gfsl::MvccStats {
            clock: 42,
            images: 3,
            chain_hwm: 2,
            captures: 9,
            vacuumed: 6,
            pins: 5,
            image_resolves: 4,
            ..Default::default()
        };
        m.absorb_mvcc_stats(Some(s));
        assert_eq!(m.mvcc_clock, 42);
        assert_eq!(m.mvcc_chain_hwm, 2);
        let json = serde::to_json_string(&m);
        assert!(json.contains("\"mvcc_clock\":42"), "{json}");
        assert!(json.contains("\"mvcc_pins\":5"), "{json}");
    }

    #[test]
    fn throughput_requires_elapsed_time() {
        let mut m = ServiceMetrics {
            ops: 1_000_000,
            ..Default::default()
        };
        assert_eq!(m.mops(), 0.0, "no wall time, no rate");
        m.run_wall_s = 0.5;
        assert!((m.mops() - 2.0).abs() < 1e-9);
    }
}
