//! Access probes: the hook the data structures call on every memory access.
//!
//! The skiplist implementations are generic over `P: MemProbe`. Production
//! users instantiate [`NoProbe`], whose methods are empty and monomorphize to
//! nothing; the experiment harness instantiates [`CountingProbe`], which
//! applies the half-warp coalescing rule, probes the shared L2 model, and
//! tallies [`Traffic`].

use std::sync::Arc;

use crate::coalesce;
use crate::l2::{L2Cache, Probe as CacheProbe};
use crate::layout::WordAddr;
use crate::traffic::Traffic;

/// Named instants in a structure's protocol where an adversarial scheduler
/// may preempt, stall, or kill the acting team.
///
/// Each variant marks the moment *just before* the structure commits the
/// named transition. A fault-injection probe (`gfsl::chaos::ChaosProbe`)
/// yields to its scheduler here, which may run the team's peers inside the
/// window for as long as it likes — simulating the worst-case interleavings
/// a GPU gives you for free — or panics to model a team dying while holding
/// locks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrashPoint {
    /// About to CAS a chunk's LOCK word from UNLOCKED to LOCKED.
    LockCas,
    /// About to store UNLOCKED into a held LOCK word.
    LockRelease,
    /// A split is about to publish the new chunk with one (max, next) store.
    SplitPublish,
    /// A merge is about to convert a held lock into the terminal ZOMBIE state.
    MergeZombieMark,
    /// About to swing a (max, next) field past a zombie (lazy unlink).
    NextSwing,
    /// About to install a down-pointer into an upper-level chunk.
    DownPtrInstall,
    /// A level's first `-∞` head chunk is written and about to be published
    /// in the head array.
    HeadPublish,
    /// A write-ahead-log append is in flight: part of the record batch may
    /// already be on disk (killing here leaves a torn tail).
    WalAppend,
    /// WAL records are fully written and the group-commit fsync is about to
    /// run (killing here loses the unsynced suffix but nothing was acked).
    WalFsync,
    /// A checkpoint page is about to be written to the temp file.
    CkptWrite,
    /// A finished checkpoint is about to be published by atomic rename.
    CkptRename,
    /// A WAL segment older than the checkpoint LSN is about to be deleted.
    WalPrune,
}

/// Observer of simulated-device memory accesses.
///
/// `warp_*` methods describe a team-wide lockstep access (the slice holds one
/// address per lane); `lane_*` methods describe a single-thread access (the
/// M&C baseline, where each lane acts alone).
pub trait MemProbe {
    /// A team reads `addrs` (one word per lane) in lockstep.
    fn warp_read(&mut self, addrs: &[WordAddr]);
    /// A team writes through some of its lanes in lockstep.
    fn warp_write(&mut self, addrs: &[WordAddr]);
    /// A single lane reads one word.
    fn lane_read(&mut self, addr: WordAddr);
    /// A single lane writes one word.
    fn lane_write(&mut self, addr: WordAddr);
    /// An atomic RMW (CAS) on one word.
    fn atomic(&mut self, addr: WordAddr);
    /// The team is one instruction away from the named protocol transition.
    ///
    /// Default is a no-op so performance probes pay nothing; fault-injection
    /// probes override it to preempt or kill at the most damaging instants.
    #[inline(always)]
    fn crash_point(&mut self, _point: CrashPoint) {}
    /// The team survived a contained crash and will keep issuing accesses.
    ///
    /// A probe that kills a team at a [`crash_point`](Self::crash_point)
    /// may also deregister it from its scheduler (the schedule turnstile
    /// retires the participant so peers stop waiting on it during the
    /// unwind). A containment layer that *catches* the kill and keeps the
    /// same thread running calls this from the catch site; scheduling
    /// probes re-admit the participant here, and every other probe keeps
    /// the free default.
    #[inline(always)]
    fn crash_recovered(&mut self) {}
}

/// The zero-cost probe: all methods are empty and inline away.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoProbe;

impl MemProbe for NoProbe {
    #[inline(always)]
    fn warp_read(&mut self, _: &[WordAddr]) {}
    #[inline(always)]
    fn warp_write(&mut self, _: &[WordAddr]) {}
    #[inline(always)]
    fn lane_read(&mut self, _: WordAddr) {}
    #[inline(always)]
    fn lane_write(&mut self, _: WordAddr) {}
    #[inline(always)]
    fn atomic(&mut self, _: WordAddr) {}
}

/// The instrumenting probe: coalescing + shared L2 + traffic totals.
///
/// One `CountingProbe` per worker thread; all probes share one [`L2Cache`]
/// (the L2 is a device-wide resource). Call [`CountingProbe::traffic`] after
/// the run and merge across workers.
pub struct CountingProbe {
    l2: Arc<L2Cache>,
    traffic: Traffic,
}

impl CountingProbe {
    /// New probe sharing the given L2 model.
    pub fn new(l2: Arc<L2Cache>) -> CountingProbe {
        CountingProbe {
            l2,
            traffic: Traffic::new(),
        }
    }

    /// Counter totals so far.
    pub fn traffic(&self) -> Traffic {
        self.traffic
    }

    /// Reset counters (the shared L2 contents are left warm).
    pub fn reset(&mut self) {
        self.traffic = Traffic::new();
    }

    fn probe_line(l2: &L2Cache, traffic: &mut Traffic, line: u32, sector_mask: u8) {
        match l2.access(line) {
            CacheProbe::Hit => traffic.l2_hits += 1,
            CacheProbe::Miss => {
                traffic.l2_misses += 1;
                traffic.miss_sectors += sector_mask.count_ones() as u64;
            }
        }
    }
}

impl MemProbe for CountingProbe {
    fn warp_read(&mut self, addrs: &[WordAddr]) {
        let l2 = &self.l2;
        let traffic = &mut self.traffic;
        let txns =
            coalesce::transactions(addrs, |line, mask| Self::probe_line(l2, traffic, line, mask));
        traffic.read_txns += txns as u64;
        traffic.words_read += addrs.len() as u64;
    }

    fn warp_write(&mut self, addrs: &[WordAddr]) {
        let l2 = &self.l2;
        let traffic = &mut self.traffic;
        let txns =
            coalesce::transactions(addrs, |line, mask| Self::probe_line(l2, traffic, line, mask));
        traffic.write_txns += txns as u64;
        traffic.words_written += addrs.len() as u64;
    }

    fn lane_read(&mut self, addr: WordAddr) {
        Self::probe_line(&self.l2, &mut self.traffic, crate::layout::line_of(addr), sector_bit(addr));
        self.traffic.read_txns += 1;
        self.traffic.words_read += 1;
    }

    fn lane_write(&mut self, addr: WordAddr) {
        Self::probe_line(&self.l2, &mut self.traffic, crate::layout::line_of(addr), sector_bit(addr));
        self.traffic.write_txns += 1;
        self.traffic.words_written += 1;
    }

    fn atomic(&mut self, addr: WordAddr) {
        // Atomics resolve in L2 on Maxwell: they probe the cache but always
        // cost a (serialized) transaction.
        Self::probe_line(&self.l2, &mut self.traffic, crate::layout::line_of(addr), sector_bit(addr));
        self.traffic.atomic_txns += 1;
    }
}

/// The single-sector mask of a lone 8-byte access.
#[inline]
fn sector_bit(addr: WordAddr) -> u8 {
    1u8 << ((addr % crate::layout::LINE_WORDS as u32) / coalesce::SECTOR_WORDS)
}

impl std::fmt::Debug for CountingProbe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CountingProbe")
            .field("traffic", &self.traffic)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe() -> CountingProbe {
        CountingProbe::new(Arc::new(L2Cache::new(64 * 1024, 8)))
    }

    #[test]
    fn warp_read_of_aligned_chunk_counts_expected_transactions() {
        let mut p = probe();
        let addrs: Vec<WordAddr> = (64..96).collect(); // 32-entry chunk
        p.warp_read(&addrs);
        let t = p.traffic();
        assert_eq!(t.read_txns, 2);
        assert_eq!(t.words_read, 32);
        assert_eq!(t.l2_misses, 2);
        p.warp_read(&addrs);
        assert_eq!(p.traffic().l2_hits, 2, "second read hits L2");
    }

    #[test]
    fn sixteen_entry_chunk_is_one_transaction() {
        let mut p = probe();
        let addrs: Vec<WordAddr> = (32..48).collect();
        p.warp_read(&addrs);
        assert_eq!(p.traffic().read_txns, 1);
    }

    #[test]
    fn lane_accesses_count_singly() {
        let mut p = probe();
        p.lane_read(100);
        p.lane_read(101); // same line: still a txn, but L2 hit
        p.lane_write(100);
        p.atomic(5000);
        let t = p.traffic();
        assert_eq!(t.read_txns, 2);
        assert_eq!(t.write_txns, 1);
        assert_eq!(t.atomic_txns, 1);
        assert_eq!(t.l2_hits, 2);
        assert_eq!(t.l2_misses, 2);
    }

    #[test]
    fn reset_clears_counters_but_keeps_l2_warm() {
        let mut p = probe();
        p.lane_read(0);
        p.reset();
        assert_eq!(p.traffic(), Traffic::new());
        p.lane_read(0);
        assert_eq!(p.traffic().l2_hits, 1, "L2 stayed warm across reset");
    }

    #[test]
    fn no_probe_is_truly_inert() {
        let mut p = NoProbe;
        p.warp_read(&[1, 2, 3]);
        p.warp_write(&[1]);
        p.lane_read(0);
        p.lane_write(0);
        p.atomic(0);
        // Nothing to assert beyond "it compiles and runs"; NoProbe carries
        // no state by construction.
    }

    #[test]
    fn probes_share_one_l2() {
        let l2 = Arc::new(L2Cache::new(64 * 1024, 8));
        let mut a = CountingProbe::new(l2.clone());
        let mut b = CountingProbe::new(l2);
        a.lane_read(77);
        b.lane_read(77);
        assert_eq!(a.traffic().l2_misses, 1);
        assert_eq!(b.traffic().l2_hits, 1, "b sees the line a fetched");
    }
}
