//! Service-level metrics: op and batch counts, batch occupancy, queue
//! depth, sheds, and the structure's hint counters.

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
