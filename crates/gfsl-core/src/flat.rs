//! Flat-bottom (B-Skiplist style) engine variant.
//!
//! The GFSL chunk is sized to one warp: a team of `N` lanes reads `N`
//! words in one or two coalesced transactions. That makes every lateral
//! step cheap but keeps the bottom level *thin* — a 14-entry chunk per
//! cache line pair, so a dense key range is a long linked chain. The
//! B-Skiplist family (Crain et al.'s rotating skiplists, cache-sensitive
//! B+-layouts) makes the opposite bet: pack a *fat* sorted run of
//! hundreds of entries into each bottom node so the lateral chain almost
//! disappears, and keep a sparse skip index above for the descent.
//!
//! [`FlatSkiplist`] is that bet as a second engine, off by default, judged
//! head-to-head against the chunked GFSL in the hotpath experiment grid.
//! The position vote inside a fat leaf is [`rank_le`] — a rank (count of
//! keys `<= k`) rather than a 32-lane ballot mask.
//!
//! ## Concurrency
//!
//! The structure is deliberately simpler than GFSL's lock-free-read
//! protocol, because its point is memory layout, not synchronization:
//!
//! * a `RwLock` guards the *index* (the sorted fence array of leaves);
//! * every point/range operation holds the index **read** lock plus the
//!   covering leaf's `Mutex` for its whole critical section — so each
//!   operation is atomic at the leaf and trivially linearizable (the
//!   linearization point is inside the leaf critical section);
//! * structural changes (leaf split when full, leaf removal when empty)
//!   take the index **write** lock, which excludes every leaf-mutex
//!   holder (they all hold the read lock), so the splitter mutates
//!   leaves without further locking.
//!
//! Lock order is always index-then-leaf; at most one leaf mutex is held
//! at a time. No cycles, no deadlock.
//!
//! Every acquisition goes through a scheduled gate ([`lock_leaf`] and the
//! `index_read`/`index_write` helpers): outside a model-check hook it is
//! the plain blocking lock (no overhead beyond one thread-local check);
//! under [`crate::mc`]'s turnstile each attempt becomes a yield point, so
//! the schedule explorer enumerates lock-acquisition interleavings of
//! this protocol directly — including the leaf-split path.
//!
//! The [`KvEngine`] trait is the seam both engines implement
//! (per-thread handles, `&mut self` ops), and [`EngineKind`] is the
//! dispatch knob the harness grid and serving tier select on.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, MutexGuard, RwLockReadGuard, RwLockWriteGuard};

use gfsl_simt::vector::rank_le;
use parking_lot::{Mutex, RwLock};

use crate::chunk::is_user_key;
use crate::skiplist::GfslHandle;
use gfsl_gpu_mem::schedule::{self, AccessKind, SYNTH_FLAT_INDEX, SYNTH_FLAT_LEAF_BASE};
use gfsl_gpu_mem::MemProbe;

/// Which engine serves a keyspace: the paper's chunked GFSL or the
/// flat-bottom B-Skiplist variant. Off-by-default knob — [`EngineKind::Gfsl`]
/// is the paper-faithful engine; [`EngineKind::FlatBottom`] is the
/// locality-experiment challenger.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EngineKind {
    /// Chunked GPU-friendly skiplist (the paper's algorithm).
    #[default]
    Gfsl,
    /// Fat sorted-run leaves with a fence index above ([`FlatSkiplist`]).
    FlatBottom,
}

impl EngineKind {
    /// Short label for experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::Gfsl => "gfsl",
            EngineKind::FlatBottom => "flat",
        }
    }
}

/// The common per-thread operation surface of both engines: obtain one
/// handle per thread, call ops on it. Implemented by [`GfslHandle`] and
/// [`FlatHandle`] so harness cells and benches are generic over the
/// [`EngineKind`] knob.
pub trait KvEngine {
    /// Look up `k`; `Some(value)` when present.
    fn get(&mut self, k: u32) -> Option<u32>;
    /// Insert `(k, v)`; `true` when the key was absent and is now present.
    fn insert(&mut self, k: u32, v: u32) -> bool;
    /// Remove `k`; `true` when the key was present.
    fn remove(&mut self, k: u32) -> bool;
    /// [`Self::remove`] by a team that dies between committing its merges
    /// and repairing the down-pointers of the keys they moved — the repair
    /// is best-effort, so that is a legal state, and scripted model-check
    /// setups use it to strand a down-pointer on a zombie. Engines without
    /// down-pointers just remove.
    fn remove_unrepaired(&mut self, k: u32) -> bool {
        self.remove(k)
    }
    /// Collect `lo..=hi` in ascending key order.
    fn range(&mut self, lo: u32, hi: u32) -> Vec<(u32, u32)>;
    /// Membership test.
    fn contains(&mut self, k: u32) -> bool {
        self.get(k).is_some()
    }
    /// Snapshot lookup: read `k` at a freshly pinned version (see
    /// `gfsl::mvcc`). Engines without multiversioning fall back to a plain
    /// `get` — indistinguishable for a single key; the distinct entry
    /// point exists so scripted model-check runs drive the version
    /// pin/publish/resolve protocol.
    fn snap_get(&mut self, k: u32) -> Option<u32> {
        self.get(k)
    }
    /// Maintenance: give memory the engine retired back to its allocator
    /// (one [`GfslHandle::reclaim_pass`]). Engines that free in place have
    /// nothing to do.
    fn reclaim_pass(&mut self) {}
    /// [`Self::reclaim_pass`] with a reader in flight: a second handle of
    /// the same structure stays pinned across the pass (scripted
    /// model-check setups use it to leave a grace period half elapsed).
    fn stalled_reclaim_pass(&mut self) {
        self.reclaim_pass();
    }
}

impl<P: MemProbe> KvEngine for GfslHandle<'_, P> {
    fn get(&mut self, k: u32) -> Option<u32> {
        GfslHandle::get(self, k)
    }

    fn snap_get(&mut self, k: u32) -> Option<u32> {
        // Pin borrows the list (not the handle), so the ticket can live
        // across the `&mut self` versioned read.
        let list = self.list;
        match list.pin_version() {
            Some(t) => self.get_at(k, &t),
            None => GfslHandle::get(self, k),
        }
    }

    fn insert(&mut self, k: u32, v: u32) -> bool {
        GfslHandle::insert(self, k, v).expect("gfsl insert failed")
    }

    fn remove(&mut self, k: u32) -> bool {
        GfslHandle::remove(self, k)
    }

    fn remove_unrepaired(&mut self, k: u32) -> bool {
        self.skip_downptr_repair = true;
        let removed = GfslHandle::remove(self, k);
        self.skip_downptr_repair = false;
        removed
    }

    fn range(&mut self, lo: u32, hi: u32) -> Vec<(u32, u32)> {
        GfslHandle::range(self, lo, hi)
    }

    fn reclaim_pass(&mut self) {
        GfslHandle::reclaim_pass(self);
    }

    fn stalled_reclaim_pass(&mut self) {
        self.list.handle().with_pin(|_| GfslHandle::reclaim_pass(self));
    }
}

/// One fat leaf: a sorted run of packed `(val << 32) | key` words (same
/// encoding as a GFSL data word, so [`rank_le`] reads the
/// low half), dense — no EMPTY sentinels, `len()` live entries.
#[derive(Debug)]
struct Leaf {
    /// Stable id for the model checker's synthetic lock address
    /// (`SYNTH_FLAT_LEAF_BASE | id`). Assigned in split order, which the
    /// turnstile serializes, so ids — and therefore trace hashes — are a
    /// deterministic function of the schedule.
    id: u32,
    entries: Mutex<Vec<u64>>,
}

/// Acquire a leaf mutex. Outside a scheduler hook this is the plain
/// blocking acquire; under a hook every attempt is a yield point, because
/// the turnstile only grants turns when all live threads are parked — a
/// thread blocked inside the OS lock would wedge it. Spinning through
/// `try_lock` with a [`schedule::wait_hint`] keeps acquisition order under
/// the scheduler's control instead of the OS's.
fn lock_leaf(leaf: &Leaf) -> MutexGuard<'_, Vec<u64>> {
    if !schedule::hooked() {
        return leaf.entries.lock();
    }
    let addr = SYNTH_FLAT_LEAF_BASE | leaf.id;
    loop {
        schedule::yield_point(AccessKind::Rmw, addr);
        if let Some(g) = leaf.entries.try_lock() {
            return g;
        }
        schedule::wait_hint(addr);
    }
}

#[inline]
fn pack(k: u32, v: u32) -> u64 {
    ((v as u64) << 32) | k as u64
}

/// Default fat-leaf capacity: 256 packed words = 2 KiB = 32 cache lines
/// of contiguous sorted keys, vs. 14 entries per chunk-chain hop in GFSL.
pub const FLAT_LEAF_CAP: usize = 256;

/// Structural-churn counters (leaf splits/merges), the flat analogue of
/// GFSL's `splits`/`merges` op stats.
#[derive(Debug, Default)]
pub struct FlatShape {
    /// Leaves currently in the index.
    pub leaves: usize,
    /// Live entries across all leaves.
    pub len: usize,
    /// Leaf splits performed since construction.
    pub splits: u64,
    /// Empty-leaf removals performed since construction.
    pub merges: u64,
}

/// Flat-bottom B-Skiplist engine: fence index over fat sorted-run leaves.
///
/// Shared by reference across threads; each thread calls
/// [`FlatSkiplist::handle`] and drives ops through [`KvEngine`].
#[derive(Debug)]
pub struct FlatSkiplist {
    leaf_cap: usize,
    /// Sorted fence array: leaf `i` covers keys in `[fence[i], fence[i+1])`
    /// (last leaf is unbounded above). `fence[0] == 0` always, so every
    /// user key has a covering leaf.
    index: RwLock<Vec<(u32, Arc<Leaf>)>>,
    /// Next leaf id for model-check lock addresses (leaf 0 is the seed leaf).
    next_leaf_id: AtomicU32,
    splits: AtomicU64,
    merges: AtomicU64,
}

impl Default for FlatSkiplist {
    fn default() -> Self {
        FlatSkiplist::new()
    }
}

impl FlatSkiplist {
    /// An empty engine, default leaf capacity.
    pub fn new() -> FlatSkiplist {
        FlatSkiplist::with_leaf_cap(FLAT_LEAF_CAP)
    }

    /// An empty engine with an explicit leaf capacity (tests use tiny
    /// capacities to force structural churn).
    pub fn with_leaf_cap(leaf_cap: usize) -> FlatSkiplist {
        assert!(leaf_cap >= 2, "leaf capacity must allow a split");
        FlatSkiplist {
            leaf_cap,
            index: RwLock::new(vec![(
                0,
                Arc::new(Leaf {
                    id: 0,
                    entries: Mutex::new(Vec::new()),
                }),
            )]),
            next_leaf_id: AtomicU32::new(1),
            splits: AtomicU64::new(0),
            merges: AtomicU64::new(0),
        }
    }

    /// Acquire the index read lock (a model-check yield point when a
    /// scheduler hook is registered; see [`lock_leaf`]). Read-read
    /// acquisitions commute, so this gate is an [`AccessKind::Load`] and
    /// partial-order pruning treats two of them as independent.
    fn index_read(&self) -> RwLockReadGuard<'_, Vec<(u32, Arc<Leaf>)>> {
        if !schedule::hooked() {
            return self.index.read();
        }
        loop {
            schedule::yield_point(AccessKind::Load, SYNTH_FLAT_INDEX);
            if let Some(g) = self.index.try_read() {
                return g;
            }
            schedule::wait_hint(SYNTH_FLAT_INDEX);
        }
    }

    /// Acquire the index write lock (a model-check yield point when a
    /// scheduler hook is registered; see [`lock_leaf`]).
    fn index_write(&self) -> RwLockWriteGuard<'_, Vec<(u32, Arc<Leaf>)>> {
        if !schedule::hooked() {
            return self.index.write();
        }
        loop {
            schedule::yield_point(AccessKind::Rmw, SYNTH_FLAT_INDEX);
            if let Some(g) = self.index.try_write() {
                return g;
            }
            schedule::wait_hint(SYNTH_FLAT_INDEX);
        }
    }

    /// A per-thread handle (cheap; holds only the engine reference).
    pub fn handle(&self) -> FlatHandle<'_> {
        FlatHandle { list: self }
    }

    /// Index slot of the leaf covering `k` (fences sorted, `fence[0]=0`).
    #[inline]
    fn pos(index: &[(u32, Arc<Leaf>)], k: u32) -> usize {
        index.partition_point(|&(fence, _)| fence <= k) - 1
    }

    /// Split the (full) leaf covering `k` under the index write lock.
    /// A racing split may have already made room; that is fine — the
    /// caller retries its op either way.
    fn split_covering(&self, k: u32) {
        let mut index = self.index_write();
        let i = Self::pos(&index, k);
        // Write lock excludes all leaf-mutex holders (they hold the read
        // lock), so this lock is uncontended and purely for &mut access.
        // Still gated: if that exclusion argument were ever broken, the
        // model checker's try-lock spin would livelock here and trip the
        // episode step bomb instead of silently blocking.
        let mut entries = lock_leaf(&index[i].1);
        if entries.len() < self.leaf_cap {
            return;
        }
        let mid = entries.len() / 2;
        let upper = entries.split_off(mid);
        let fence = upper[0] as u32;
        drop(entries);
        index.insert(
            i + 1,
            (
                fence,
                Arc::new(Leaf {
                    id: self.next_leaf_id.fetch_add(1, Ordering::Relaxed),
                    entries: Mutex::new(upper),
                }),
            ),
        );
        self.splits.fetch_add(1, Ordering::Relaxed);
    }

    /// Drop the (empty) leaf covering `k` under the index write lock,
    /// merging its key range into a neighbour's fence.
    fn retire_covering(&self, k: u32) {
        let mut index = self.index_write();
        if index.len() <= 1 {
            return;
        }
        let i = Self::pos(&index, k);
        if !lock_leaf(&index[i].1).is_empty() {
            return; // racing insert refilled it
        }
        index.remove(i);
        if i == 0 {
            // The new first leaf inherits coverage from key 0 up.
            index[0].0 = 0;
        }
        self.merges.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of the structure (leaf count, entry count, churn totals).
    pub fn shape(&self) -> FlatShape {
        let index = self.index.read();
        FlatShape {
            leaves: index.len(),
            len: index.iter().map(|(_, l)| l.entries.lock().len()).sum(),
            splits: self.splits.load(Ordering::Relaxed),
            merges: self.merges.load(Ordering::Relaxed),
        }
    }

    /// Structural invariants: fences strictly sorted starting at 0, every
    /// leaf sorted/unique/within its fence window. Panics on violation.
    pub fn assert_valid(&self) {
        let index = self.index.read();
        assert_eq!(index[0].0, 0, "first fence must cover key 0");
        for w in index.windows(2) {
            assert!(w[0].0 < w[1].0, "fences must be strictly increasing");
        }
        for (i, (fence, leaf)) in index.iter().enumerate() {
            let hi = index.get(i + 1).map_or(u32::MAX, |&(f, _)| f);
            let entries = leaf.entries.lock();
            for w in entries.windows(2) {
                assert!(
                    (w[0] as u32) < (w[1] as u32),
                    "leaf {i} keys must be strictly sorted"
                );
            }
            for &e in entries.iter() {
                let key = e as u32;
                assert!(is_user_key(key), "leaf {i} holds sentinel key {key}");
                assert!(
                    *fence <= key && (i + 1 == index.len() || key < hi),
                    "leaf {i} key {key} outside fence [{fence}, {hi})"
                );
            }
        }
    }
}

/// Per-thread handle over a shared [`FlatSkiplist`].
#[derive(Debug)]
pub struct FlatHandle<'a> {
    list: &'a FlatSkiplist,
}

impl KvEngine for FlatHandle<'_> {
    fn get(&mut self, k: u32) -> Option<u32> {
        let index = self.list.index_read();
        let entries = lock_leaf(&index[FlatSkiplist::pos(&index, k)].1);
        let r = rank_le(&entries, k);
        match r.checked_sub(1).map(|i| entries[i]) {
            Some(e) if e as u32 == k => Some((e >> 32) as u32),
            _ => None,
        }
    }

    fn insert(&mut self, k: u32, v: u32) -> bool {
        assert!(is_user_key(k), "key {k} is a reserved sentinel");
        loop {
            {
                let index = self.list.index_read();
                let mut entries = lock_leaf(&index[FlatSkiplist::pos(&index, k)].1);
                let r = rank_le(&entries, k);
                if r > 0 && entries[r - 1] as u32 == k {
                    return false;
                }
                if entries.len() < self.list.leaf_cap {
                    entries.insert(r, pack(k, v));
                    return true;
                }
            }
            // Leaf full: drop both locks, split under the write lock, retry.
            self.list.split_covering(k);
        }
    }

    fn remove(&mut self, k: u32) -> bool {
        let emptied = {
            let index = self.list.index_read();
            let mut entries = lock_leaf(&index[FlatSkiplist::pos(&index, k)].1);
            let r = rank_le(&entries, k);
            if r == 0 || entries[r - 1] as u32 != k {
                return false;
            }
            entries.remove(r - 1);
            entries.is_empty()
        };
        if emptied {
            self.list.retire_covering(k);
        }
        true
    }

    fn range(&mut self, lo: u32, hi: u32) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        if lo > hi {
            return out;
        }
        let index = self.list.index_read();
        // Holding the read lock pins the leaf set; each leaf is snapshotted
        // atomically under its mutex, and fences guarantee ascending order
        // across leaves.
        for i in FlatSkiplist::pos(&index, lo)..index.len() {
            let (fence, leaf) = &index[i];
            if *fence > hi {
                break;
            }
            let entries = lock_leaf(leaf);
            let from = if lo == 0 { 0 } else { rank_le(&entries, lo - 1) };
            let to = rank_le(&entries, hi);
            out.extend(entries[from..to].iter().map(|&e| (e as u32, (e >> 32) as u32)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_ops_and_duplicates() {
        let list = FlatSkiplist::new();
        let mut h = list.handle();
        assert!(h.insert(10, 100));
        assert!(!h.insert(10, 999), "duplicate rejected");
        assert_eq!(h.get(10), Some(100), "first value wins");
        assert!(!h.contains(11));
        assert!(h.remove(10));
        assert!(!h.remove(10));
        assert_eq!(h.get(10), None);
        list.assert_valid();
    }

    #[test]
    fn splits_keep_order_and_coverage() {
        let list = FlatSkiplist::with_leaf_cap(8);
        let mut h = list.handle();
        // Shuffled inserts force splits at several fences.
        for k in (1..=500u32).rev() {
            assert!(h.insert(k * 7, k));
        }
        let shape = list.shape();
        assert_eq!(shape.len, 500);
        assert!(shape.leaves > 50, "tiny leaves must have split: {shape:?}");
        assert!(shape.splits >= shape.leaves as u64 - 1);
        for k in 1..=500u32 {
            assert_eq!(h.get(k * 7), Some(k));
            assert_eq!(h.get(k * 7 - 1), None);
        }
        list.assert_valid();
    }

    #[test]
    fn removals_retire_empty_leaves() {
        let list = FlatSkiplist::with_leaf_cap(4);
        let mut h = list.handle();
        for k in 1..=100u32 {
            h.insert(k, k);
        }
        for k in 1..=100u32 {
            assert!(h.remove(k));
        }
        let shape = list.shape();
        assert_eq!(shape.len, 0);
        assert_eq!(shape.leaves, 1, "all empty leaves retired: {shape:?}");
        assert!(shape.merges > 0);
        // Structure still serves inserts across the whole keyspace.
        assert!(h.insert(1, 1) && h.insert(u32::MAX - 1, 2));
        list.assert_valid();
    }

    #[test]
    fn range_spans_leaves_sorted() {
        let list = FlatSkiplist::with_leaf_cap(8);
        let mut h = list.handle();
        for k in 1..=300u32 {
            h.insert(k * 3, k);
        }
        let got = h.range(30, 60);
        let want: Vec<(u32, u32)> = (10..=20).map(|k| (k * 3, k)).collect();
        assert_eq!(got, want);
        assert_eq!(h.range(10, 5), vec![], "inverted bounds");
        assert_eq!(h.range(1, u32::MAX - 1).len(), 300);
    }
}
