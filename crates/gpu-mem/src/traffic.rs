//! Per-worker memory-traffic counters.
//!
//! Counters are plain integers owned by one worker thread and merged after a
//! run; the instrumented fast path therefore costs a handful of increments,
//! not atomic RMWs.

/// Memory-system event totals for one worker (or, after merging, one run).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Traffic {
    /// Coalesced read transactions issued (one per distinct line per
    /// half-warp per access).
    pub read_txns: u64,
    /// Write transactions issued.
    pub write_txns: u64,
    /// Atomic (CAS / atomic-store-with-contention) transactions. On Maxwell
    /// atomics resolve in L2 and serialize per address.
    pub atomic_txns: u64,
    /// Transactions that hit in the simulated L2.
    pub l2_hits: u64,
    /// Transactions that missed to DRAM.
    pub l2_misses: u64,
    /// 32-byte DRAM sectors fetched by the misses (a fully-used line costs
    /// four sectors; a scattered 8-byte access costs one).
    pub miss_sectors: u64,
    /// Total 8-byte words transferred by reads (for bandwidth accounting).
    pub words_read: u64,
    /// Total words written.
    pub words_written: u64,
}

impl Traffic {
    /// Fresh, zeroed counters.
    pub fn new() -> Traffic {
        Traffic::default()
    }

    /// All transactions of any kind.
    pub fn total_txns(&self) -> u64 {
        self.read_txns + self.write_txns + self.atomic_txns
    }

    /// L2 hit ratio over transactions that probed the cache.
    pub fn l2_hit_ratio(&self) -> f64 {
        let probes = self.l2_hits + self.l2_misses;
        if probes == 0 {
            0.0
        } else {
            self.l2_hits as f64 / probes as f64
        }
    }

    /// Merge another worker's counters into this one.
    pub fn merge(&mut self, o: &Traffic) {
        self.read_txns += o.read_txns;
        self.write_txns += o.write_txns;
        self.atomic_txns += o.atomic_txns;
        self.l2_hits += o.l2_hits;
        self.l2_misses += o.l2_misses;
        self.miss_sectors += o.miss_sectors;
        self.words_read += o.words_read;
        self.words_written += o.words_written;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_by_default() {
        let t = Traffic::new();
        assert_eq!(t.total_txns(), 0);
        assert_eq!(t.l2_hit_ratio(), 0.0);
    }

    #[test]
    fn totals_and_ratio() {
        let t = Traffic {
            read_txns: 10,
            write_txns: 4,
            atomic_txns: 1,
            l2_hits: 9,
            l2_misses: 3,
            miss_sectors: 7,
            words_read: 100,
            words_written: 40,
        };
        assert_eq!(t.total_txns(), 15);
        assert!((t.l2_hit_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn merge_is_componentwise_sum() {
        let mut a = Traffic {
            read_txns: 1,
            write_txns: 2,
            atomic_txns: 3,
            l2_hits: 4,
            l2_misses: 5,
            miss_sectors: 11,
            words_read: 6,
            words_written: 7,
        };
        a.merge(&a.clone());
        assert_eq!(
            a,
            Traffic {
                read_txns: 2,
                write_txns: 4,
                atomic_txns: 6,
                l2_hits: 8,
                l2_misses: 10,
                miss_sectors: 22,
                words_read: 12,
                words_written: 14,
            }
        );
    }
}
