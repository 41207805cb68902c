//! Merged measurements from one experiment run.

use gfsl_gpu_mem::Traffic;
use gfsl_gpu_model::RunMeasurement;
use gfsl_simt::DivergenceStats;

/// Everything measured while running one workload against one structure.
#[derive(Debug, Default, Clone, Copy)]
pub struct RunMetrics {
    /// Timed operations.
    pub n_ops: u64,
    /// Merged memory traffic from all workers.
    pub traffic: Traffic,
    /// Warp-level step/divergence accounting.
    pub divergence: DivergenceStats,
    /// Lock/CAS retries (contention signal).
    pub retries: u64,
    /// Search restarts (GFSL's lock-free edge case).
    pub restarts: u64,
    /// Splits performed (GFSL).
    pub splits: u64,
    /// Merges performed (GFSL).
    pub merges: u64,
    /// Host worker threads used.
    pub workers: u32,
    /// Update operations (inserts + deletes) among `n_ops`.
    pub update_ops: u64,
    /// Contended-resource width: bottom-level chunks (GFSL) or live keys
    /// (M&C); feeds the analytic contention term.
    pub contention_units: u64,
    /// Each warp lane runs its own operation (M&C) vs one op per team.
    pub op_per_lane: bool,
    /// Updates block on chunk locks (GFSL) vs retry CAS (M&C).
    pub blocking_updates: bool,
    /// Host wall-clock seconds for the timed phase (reference only; the
    /// modeled GPU time is what reproduces the paper).
    pub wall_seconds: f64,
}

impl RunMetrics {
    /// Host-side throughput in MOPS (reference metric).
    pub fn host_mops(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.n_ops as f64 / self.wall_seconds / 1e6
        } else {
            0.0
        }
    }

    /// Average memory transactions per operation.
    pub fn txns_per_op(&self) -> f64 {
        if self.n_ops == 0 {
            0.0
        } else {
            self.traffic.total_txns() as f64 / self.n_ops as f64
        }
    }

    /// Convert to the GPU cost model's input.
    pub fn to_measurement(&self) -> RunMeasurement {
        RunMeasurement {
            n_ops: self.n_ops,
            read_txns: self.traffic.read_txns,
            write_txns: self.traffic.write_txns,
            atomic_txns: self.traffic.atomic_txns,
            l2_hits: self.traffic.l2_hits,
            l2_misses: self.traffic.l2_misses,
            miss_sectors: self.traffic.miss_sectors,
            warp_steps: self.divergence.warp_steps,
            retries: self.retries,
            host_workers: self.workers,
            update_ops: self.update_ops,
            contention_units: self.contention_units,
            op_per_lane: self.op_per_lane,
            blocking_updates: self.blocking_updates,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        let m = RunMetrics {
            n_ops: 1000,
            traffic: Traffic {
                read_txns: 4000,
                write_txns: 500,
                atomic_txns: 100,
                l2_hits: 3000,
                l2_misses: 1600,
                miss_sectors: 3200,
                words_read: 64_000,
                words_written: 500,
            },
            divergence: DivergenceStats {
                warp_steps: 2000,
                lane_steps: 2000,
                divergent_branches: 0,
            },
            retries: 7,
            restarts: 1,
            splits: 3,
            merges: 2,
            workers: 4,
            update_ops: 200,
            contention_units: 50,
            op_per_lane: false,
            blocking_updates: true,
            wall_seconds: 0.01,
        };
        assert!((m.host_mops() - 0.1).abs() < 1e-9);
        assert!((m.txns_per_op() - 4.6).abs() < 1e-9);
        let rm = m.to_measurement();
        assert_eq!(rm.n_ops, 1000);
        assert_eq!(rm.warp_steps, 2000);
        assert_eq!(rm.retries, 7);
        assert_eq!(rm.host_workers, 4);
        assert_eq!(rm.l2_misses, 1600);
        assert_eq!(rm.update_ops, 200);
        assert_eq!(rm.contention_units, 50);
        assert!(rm.blocking_updates);
        assert!(!rm.op_per_lane);
    }
}
