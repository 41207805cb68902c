//! Per-handle operation statistics.
//!
//! The harness uses these to reproduce the paper's contention effects (the
//! mixed-workload throughput "dip" in small key ranges, §5.3) and to verify
//! the "< 0.01% of Contains restart" claim (§4.2.1).

/// Counters accumulated by one [`crate::GfslHandle`]. Merge across handles
/// for run totals.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct OpStats {
    /// Completed `contains`/`get` operations.
    pub contains_ops: u64,
    /// Completed `insert` calls (including duplicates rejected).
    pub insert_ops: u64,
    /// Completed `remove` calls (including missing keys).
    pub remove_ops: u64,
    /// Full restarts of the lock-free search (the paper's rare edge case).
    pub search_restarts: u64,
    /// Re-reads taken to certify a negative answer (NotFound, range scan,
    /// min-entry) against a concurrent writer: a snapshot whose bracketing
    /// lock words differed (or were locked) is discarded and retried. These
    /// are expected to be common under write contention and are deliberately
    /// NOT counted as `search_restarts`, which tracks the paper's §4.2.1
    /// backtrack-restart claim.
    pub certify_retries: u64,
    /// Successful lock acquisitions.
    pub locks_taken: u64,
    /// Failed lock CAS attempts plus re-read spins while a chunk was held
    /// by another team — the contention signal.
    pub lock_retries: u64,
    /// Backoff waits that escalated past pure spinning into a scheduler
    /// yield (the exponential-backoff tail).
    pub lock_backoff_yields: u64,
    /// Lock acquisitions that crossed the starvation threshold
    /// ([`crate::skiplist::STARVATION_RETRIES`] retries) before succeeding —
    /// each one is a team that went effectively unserved for a long window.
    pub lock_starvation_events: u64,
    /// Chunk splits performed.
    pub splits: u64,
    /// Chunk merges performed (zombies created).
    pub merges: u64,
    /// Lazy next-pointer redirections that unlinked a zombie.
    pub zombie_unlinks: u64,
    /// Down-pointers repaired after splits/merges.
    pub downptr_fixes: u64,
    /// Index entries installed by an insert whose own traversal showed the
    /// index above was missing one (DESIGN.md §20): the climb ran although
    /// no split asked for it.
    pub index_heals: u64,
    /// Raise climbs (split-raise or heal) cut short by pool exhaustion
    /// after the key was already in the bottom level. The insert still
    /// reports `Ok(true)`; only index entries are missing.
    pub raise_aborts: u64,
    /// Lockstep traversal steps (chunk reads) executed.
    pub chunk_reads: u64,
    /// Traversal-hint validations that succeeded: the read started its
    /// bottom-level walk at the cached chunk instead of a full descent.
    pub hint_hits: u64,
    /// Traversal-hint validations that failed (lock word moved or the
    /// cached chunk no longer encloses the key): full descent taken.
    pub hint_misses: u64,
    /// Hint validations answered by re-reading one lock word instead of the
    /// whole chunk: the fat hint's stashed snapshot was of the very
    /// `(chunk, word)` pair the hint names.
    pub skip_reads: u64,
}

impl OpStats {
    /// Fresh, zeroed counters.
    pub fn new() -> OpStats {
        OpStats::default()
    }

    /// Total completed operations.
    pub fn total_ops(&self) -> u64 {
        self.contains_ops + self.insert_ops + self.remove_ops
    }

    /// Fraction of hint validations that succeeded (the locality signal:
    /// near 1.0 for key-sorted batch dispatch, near 0.0 for uncorrelated
    /// streams). `None` when the hint cache was never consulted.
    pub fn hint_hit_rate(&self) -> Option<f64> {
        let probes = self.hint_hits + self.hint_misses;
        if probes == 0 {
            None
        } else {
            Some(self.hint_hits as f64 / probes as f64)
        }
    }

    /// Merge another handle's counters into this one.
    pub fn merge(&mut self, o: &OpStats) {
        self.contains_ops += o.contains_ops;
        self.insert_ops += o.insert_ops;
        self.remove_ops += o.remove_ops;
        self.search_restarts += o.search_restarts;
        self.certify_retries += o.certify_retries;
        self.locks_taken += o.locks_taken;
        self.lock_retries += o.lock_retries;
        self.lock_backoff_yields += o.lock_backoff_yields;
        self.lock_starvation_events += o.lock_starvation_events;
        self.splits += o.splits;
        self.merges += o.merges;
        self.zombie_unlinks += o.zombie_unlinks;
        self.downptr_fixes += o.downptr_fixes;
        self.index_heals += o.index_heals;
        self.raise_aborts += o.raise_aborts;
        self.chunk_reads += o.chunk_reads;
        self.hint_hits += o.hint_hits;
        self.hint_misses += o.hint_misses;
        self.skip_reads += o.skip_reads;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_merge() {
        let mut a = OpStats {
            contains_ops: 1,
            insert_ops: 2,
            remove_ops: 3,
            search_restarts: 1,
            certify_retries: 4,
            locks_taken: 5,
            lock_retries: 6,
            lock_backoff_yields: 12,
            lock_starvation_events: 13,
            splits: 7,
            merges: 8,
            zombie_unlinks: 9,
            downptr_fixes: 10,
            index_heals: 19,
            raise_aborts: 20,
            chunk_reads: 11,
            hint_hits: 14,
            hint_misses: 15,
            skip_reads: 18,
        };
        assert_eq!(a.total_ops(), 6);
        let b = a;
        a.merge(&b);
        assert_eq!(a.total_ops(), 12);
        assert_eq!(a.chunk_reads, 22);
        assert_eq!(a.hint_hits, 28);
        assert_eq!(a.hint_misses, 30);
        assert_eq!(a.downptr_fixes, 20);
        assert_eq!(a.index_heals, 38);
        assert_eq!(a.raise_aborts, 40);
        assert_eq!(a.lock_backoff_yields, 24);
        assert_eq!(a.lock_starvation_events, 26);
        assert_eq!(a.certify_retries, 8);
        assert_eq!(a.skip_reads, 36);
    }
}
