//! One shard: a contiguous key range, its own GFSL, an epoch fence, and
//! windowed load counters.
//!
//! The fence is the shard's only migration synchronization point: every
//! routed operation holds it for *read* while it runs, and a migration
//! (split, merge, snapshot) holds it for *write* while it retires the
//! shard's structure. A shard whose fence write section has completed is
//! *retired* — its `Gfsl` was exported into successors and must never be
//! written again; the router detects this by re-checking the shard map
//! after acquiring the read fence (see `Cluster::fenced`).

use std::sync::atomic::{AtomicU64, Ordering};

use gfsl::Gfsl;
use parking_lot::RwLock;

/// A shard: the half-open user-key range `[lo, hi)` and the GFSL that owns
/// it. `lo >= 1` and `hi <= KEY_INF`; the cluster keeps shards contiguous.
pub struct Shard {
    /// Stable shard identity, unique for the cluster's lifetime (survives
    /// map reshuffles; split/merge products get fresh ids).
    pub id: u64,
    /// Inclusive lower bound of the owned key range.
    pub lo: u32,
    /// Exclusive upper bound of the owned key range.
    pub hi: u32,
    /// The shard's skiplist.
    pub list: Gfsl,
    /// Epoch fence: ops read-hold, migrations write-hold (see module docs).
    pub(crate) fence: RwLock<()>,
    /// Windowed load counters, reset by `take_window`.
    reads: AtomicU64,
    writes: AtomicU64,
}

impl Shard {
    pub(crate) fn new(id: u64, lo: u32, hi: u32, list: Gfsl) -> Shard {
        assert!(lo < hi, "shard range [{lo}, {hi}) is empty");
        Shard {
            id,
            lo,
            hi,
            list,
            fence: RwLock::new(()),
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
        }
    }

    /// Does this shard's range contain `key`?
    #[inline]
    pub fn owns(&self, key: u32) -> bool {
        (self.lo..self.hi).contains(&key)
    }

    /// Record one routed operation against the current load window.
    #[inline]
    pub(crate) fn note(&self, write: bool) {
        if write {
            self.writes.fetch_add(1, Ordering::Relaxed);
        } else {
            self.reads.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Record a whole batched run against the current load window.
    pub(crate) fn note_run(&self, reads: u64, writes: u64) {
        self.reads.fetch_add(reads, Ordering::Relaxed);
        self.writes.fetch_add(writes, Ordering::Relaxed);
    }

    /// Current window counters `(reads, writes)` without resetting them.
    pub fn window(&self) -> (u64, u64) {
        (
            self.reads.load(Ordering::Relaxed),
            self.writes.load(Ordering::Relaxed),
        )
    }

    /// Take and reset the window counters (the rebalancer's sampling edge).
    pub(crate) fn take_window(&self) -> (u64, u64) {
        (
            self.reads.swap(0, Ordering::Relaxed),
            self.writes.swap(0, Ordering::Relaxed),
        )
    }

    /// Repair the quarantine a contained op's crash left in this shard, if
    /// any, before a migration or snapshot exports it; the caller holds the
    /// write fence. Panics when the handle table is full: exporting chunks
    /// a crashed op still holds would copy a half-done mutation.
    pub(crate) fn drain_quarantine(&self) {
        self.list
            .heal_step(0)
            .expect("no handle slot to repair a fenced shard's quarantine");
    }
}
