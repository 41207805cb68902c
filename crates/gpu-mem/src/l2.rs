//! Set-associative LRU model of the GPU's L2 cache.
//!
//! On the GTX 970 every global-memory transaction goes through a 1.75 MB L2
//! shared by all SMs. Whether the working set fits is the pivotal effect in
//! the paper's evaluation (§5.3): in the 10K key range "the entire structure
//! fits into the L2 cache in both implementations", neutralizing GFSL's
//! coalescing advantage; on large ranges M&C's scattered accesses miss and
//! its performance "melts down".
//!
//! The model is a straightforward set-associative cache with per-set LRU,
//! sharded behind `parking_lot` mutexes so concurrently running worker
//! threads can probe it without a global bottleneck. Hit/miss totals are
//! aggregated in the callers' [`crate::Traffic`] counters.

use parking_lot::Mutex;

use crate::layout::{LineAddr, LINE_BYTES};

/// Result of a cache probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// The line was resident.
    Hit,
    /// The line was fetched from DRAM (and inserted).
    Miss,
}

#[derive(Clone)]
struct Set {
    /// Tags of resident lines, most-recently-used last.
    tags: Vec<LineAddr>,
}

/// A set-associative, LRU, write-allocate cache of 128-byte lines.
pub struct L2Cache {
    sets: Vec<Mutex<Set>>,
    ways: usize,
}

impl L2Cache {
    /// Build a cache with the given capacity and associativity.
    ///
    /// # Panics
    /// Panics if the geometry is degenerate (zero ways or capacity smaller
    /// than one set). Set indexing is modulo, so any set count works — the
    /// GTX 970's 1.75 MB / 16 ways gives exactly 896 sets.
    pub fn new(capacity_bytes: usize, ways: usize) -> L2Cache {
        assert!(ways > 0, "associativity must be positive");
        let lines = capacity_bytes / LINE_BYTES;
        assert!(lines >= ways, "capacity must hold at least one set");
        let n_sets = (lines / ways).max(1);
        let sets = (0..n_sets)
            .map(|_| {
                Mutex::new(Set {
                    tags: Vec::with_capacity(ways),
                })
            })
            .collect();
        L2Cache { sets, ways }
    }

    /// GTX 970 L2: 1.75 MB, modeled 16-way.
    pub fn gtx970() -> L2Cache {
        L2Cache::new(1_792 * 1024, 16)
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets.len()
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Total capacity in lines.
    pub fn capacity_lines(&self) -> usize {
        self.sets.len() * self.ways
    }

    /// Probe (and on miss, fill) the line. LRU within the set.
    pub fn access(&self, line: LineAddr) -> Probe {
        let set = &self.sets[line as usize % self.sets.len()];
        let mut s = set.lock();
        if let Some(pos) = s.tags.iter().position(|&t| t == line) {
            // Move to MRU position.
            let tag = s.tags.remove(pos);
            s.tags.push(tag);
            Probe::Hit
        } else {
            if s.tags.len() == self.ways {
                s.tags.remove(0); // evict LRU
            }
            s.tags.push(line);
            Probe::Miss
        }
    }

    /// Drop all resident lines (used between experiment phases so the timed
    /// phase starts from a warm-from-prefill or explicitly cold state).
    pub fn flush(&self) {
        for set in &self.sets {
            set.lock().tags.clear();
        }
    }

    /// Number of currently resident lines.
    pub fn resident_lines(&self) -> usize {
        self.sets.iter().map(|s| s.lock().tags.len()).sum()
    }
}

impl std::fmt::Debug for L2Cache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("L2Cache")
            .field("sets", &self.sets.len())
            .field("ways", &self.ways)
            .field("capacity_lines", &self.capacity_lines())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gtx970_geometry_close_to_spec() {
        let c = L2Cache::gtx970();
        // 1.75MB / 128B = 14336 lines, 16 ways -> exactly 896 sets.
        assert_eq!(c.capacity_lines(), 14336);
        assert_eq!(c.sets(), 896);
    }

    #[test]
    fn first_access_misses_second_hits() {
        let c = L2Cache::new(16 * 1024, 4);
        assert_eq!(c.access(42), Probe::Miss);
        assert_eq!(c.access(42), Probe::Hit);
        assert_eq!(c.resident_lines(), 1);
    }

    #[test]
    fn lru_evicts_oldest_within_set() {
        let c = L2Cache::new(LINE_BYTES * 4, 4); // 1 set, 4 ways
        assert_eq!(c.sets(), 1);
        for line in 0..4 {
            assert_eq!(c.access(line), Probe::Miss);
        }
        // Touch line 0 so line 1 becomes LRU.
        assert_eq!(c.access(0), Probe::Hit);
        assert_eq!(c.access(99), Probe::Miss); // evicts 1
        assert_eq!(c.access(0), Probe::Hit);
        assert_eq!(c.access(1), Probe::Miss);
    }

    #[test]
    fn distinct_sets_do_not_interfere() {
        let c = L2Cache::new(LINE_BYTES * 8, 4); // 2 sets
        assert_eq!(c.sets(), 2);
        // Even lines map to set 0, odd to set 1.
        for line in [0u32, 2, 4, 6] {
            c.access(line);
        }
        assert_eq!(c.access(1), Probe::Miss);
        assert_eq!(c.access(0), Probe::Hit, "set 0 untouched by set 1 fill");
    }

    #[test]
    fn working_set_larger_than_capacity_thrashes() {
        let c = L2Cache::new(LINE_BYTES * 64, 4);
        let cap = c.capacity_lines() as u32;
        // Stream 4x capacity twice; second pass must still miss everywhere
        // (LRU + streaming = no reuse).
        for pass in 0..2 {
            for line in 0..cap * 4 {
                let p = c.access(line);
                assert_eq!(p, Probe::Miss, "pass {pass} line {line}");
            }
        }
    }

    #[test]
    fn working_set_within_capacity_all_hits_after_warmup() {
        let c = L2Cache::new(LINE_BYTES * 256, 16);
        let resident = (c.capacity_lines() / 2) as u32;
        for line in 0..resident {
            c.access(line);
        }
        for line in 0..resident {
            assert_eq!(c.access(line), Probe::Hit);
        }
    }

    #[test]
    fn flush_empties_cache() {
        let c = L2Cache::new(16 * 1024, 4);
        for line in 0..10 {
            c.access(line);
        }
        assert!(c.resident_lines() > 0);
        c.flush();
        assert_eq!(c.resident_lines(), 0);
        assert_eq!(c.access(3), Probe::Miss);
    }

    #[test]
    fn concurrent_probes_do_not_panic_or_deadlock() {
        let c = std::sync::Arc::new(L2Cache::new(64 * 1024, 8));
        std::thread::scope(|s| {
            for t in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for i in 0..10_000u32 {
                        c.access((i * 7 + t) % 4096);
                    }
                });
            }
        });
        assert!(c.resident_lines() <= c.capacity_lines());
    }
}
