//! Epoch-based reclamation of retired (zombie) chunks.
//!
//! The paper never frees memory: `LOCK_ZOMBIE` is terminal and the pool's
//! bump pointer only grows, so sustained insert/delete churn exhausts the
//! pool even when the live set is tiny (§5.3 shows M&C hitting exactly this
//! wall). [`EpochReclaimer`] closes the loop with classic three-epoch EBR,
//! adapted to GFSL's team model:
//!
//! * every worker (team) registers a **slot** and *pins* it for the duration
//!   of each operation, announcing the global epoch it observed at entry;
//! * a chunk is **retired** (not recycled) at the moment it is *unlinked*
//!   from its level's list — the only point where the unlinking team holds
//!   exclusive authority over the pointer that made it reachable;
//! * a retired chunk becomes a **candidate** once two epoch advances have
//!   happened after its retirement: every team that could have held a
//!   reference from before the unlink has since passed through a quiescent
//!   (unpinned) state;
//! * the structure layer then performs its own reachability check on each
//!   candidate (stale down pointers may still name it — see DESIGN.md) and
//!   either [`stage_verified`](EpochReclaimer::stage_verified)s it or
//!   [`requeue`](EpochReclaimer::requeue)s it for a later round;
//! * a staged chunk waits out **one more grace period** before
//!   [`harvest_verified`](EpochReclaimer::harvest_verified) moves it to the
//!   free list: the verification scan proves no reference exists *in
//!   memory*, but a reader may have copied a stale pointer into a register
//!   just before its source was repaired — the second grace covers every
//!   pin that was live at scan time;
//! * `alloc_chunk` consumes the free list before touching the bump pointer,
//!   so churn runs at a bounded high-water mark.
//!
//! Everything in grace — retired chunks and staged chunks — sits in a
//! `GraceQueue`. Their total shares one atomic word with the structure
//! layer's [`flag`](EpochReclaimer::flag)s, so
//! [`has_work`](EpochReclaimer::has_work) tells "nothing to reclaim" with a
//! single relaxed load. Nothing here moves the epoch on its own: the owner
//! of a reclamation pass calls [`try_advance`](EpochReclaimer::try_advance)
//! and then drains.
//!
//! A pin never nests: each entry point pins once for its whole operation,
//! and [`pin`](EpochReclaimer::pin) debug-asserts the slot was quiescent.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Index of a registered reclamation slot (one per worker/handle).
pub type SlotId = usize;

/// The half of [`EpochReclaimer`]'s work word that counts items in grace.
const BACKLOG_MASK: u64 = u32::MAX as u64;

/// Items waiting out a grace period, oldest first, each with the epoch it
/// entered at. That epoch is read *under the queue lock*, so stamps never
/// decrease from front to back and the ripe entries (two advances old) are
/// always a prefix: draining pops from the front and stops at the first
/// unripe one.
type GraceQueue<T> = Mutex<VecDeque<(u64, T)>>;

/// One worker's epoch announcement.
///
/// `announce == 0` means quiescent (not inside an operation); otherwise it
/// is the global epoch the worker observed when it pinned.
///
/// Its owner writes a slot twice per operation (the `SeqCst` announce, the
/// unpin), so each slot gets a cache-line pair to itself (the adjacent-line
/// prefetcher pulls lines in twos): neighbouring handles' slots must not
/// bounce one line between their cores.
#[derive(Debug)]
#[repr(align(128))]
struct Slot {
    registered: AtomicU32,
    announce: AtomicU64,
}

/// Counters describing reclamation progress (see `introspect.rs`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReclaimStats {
    /// Global epoch advances since construction.
    pub epochs_advanced: u64,
    /// Chunks retired (unlinked zombies handed to the reclaimer).
    pub retired: u64,
    /// Chunks recycled onto the free list after grace + verification.
    pub zombies_reclaimed: u64,
    /// Recycled chunks re-issued by `try_alloc`.
    pub reused: u64,
    /// Chunks currently in limbo (retired, grace not yet confirmed).
    pub limbo_len: u64,
    /// Chunks verified unreachable, waiting out the second grace period.
    pub staged_len: u64,
    /// Chunks currently on the free list.
    pub free_len: u64,
    /// Reclamation passes the structure layer ran.
    pub passes: u64,
    /// Passes that came due (or were asked for) while another worker's pass
    /// was in flight, and so did not run.
    pub passes_skipped: u64,
    /// Chunks of parent levels read by the passes' stale-down-pointer
    /// scans: the part of a pass's cost that grows with the structure, not
    /// with what the pass reclaims.
    pub parent_chunks_scanned: u64,
    /// Every chunk read the passes took: the parent-level walks, the
    /// head-edge sweeps and their zombie steps.
    pub pass_chunk_reads: u64,
    /// Most chunks ever in grace at once (limbo + staged).
    pub backlog_high_water: u64,
}

/// Epoch-based reclaimer for fixed-size chunk slots.
///
/// The reclaimer deals purely in opaque `u32` chunk indices: it neither
/// reads nor writes pool memory. The structure layer decides *when* a chunk
/// is retired (at unlink) and performs the final reachability verification;
/// this type provides the grace-period machinery in between.
pub struct EpochReclaimer {
    /// Global epoch. Starts at 1 so an announcement of 0 is unambiguous.
    global: AtomicU64,
    slots: Box<[Slot]>,
    /// One past the highest slot ever registered; `try_advance` scans only
    /// this prefix.
    slots_used: AtomicUsize,
    /// Retired `(chunk, level)` pairs awaiting their first grace.
    limbo: GraceQueue<(u32, u8)>,
    /// Verified-unreachable chunks serving their second grace period.
    staged: GraceQueue<u32>,
    free: Mutex<Vec<u32>>,
    /// Low half: entries in the two grace queues together. High half:
    /// the structure layer's attention flags (see [`Self::flag`]). Zero
    /// means a pass has nothing to do.
    work: AtomicU64,
    backlog_high_water: AtomicU64,
    epochs_advanced: AtomicU64,
    retired_total: AtomicU64,
    reclaimed_total: AtomicU64,
    reused_total: AtomicU64,
    passes: AtomicU64,
    passes_skipped: AtomicU64,
    parent_chunks_scanned: AtomicU64,
    pass_chunk_reads: AtomicU64,
}

impl EpochReclaimer {
    /// A reclaimer supporting up to `max_slots` concurrently registered
    /// workers.
    pub fn new(max_slots: usize) -> EpochReclaimer {
        let slots = (0..max_slots)
            .map(|_| Slot {
                registered: AtomicU32::new(0),
                announce: AtomicU64::new(0),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        EpochReclaimer {
            global: AtomicU64::new(1),
            slots,
            slots_used: AtomicUsize::new(0),
            limbo: GraceQueue::default(),
            staged: GraceQueue::default(),
            free: Mutex::new(Vec::new()),
            work: AtomicU64::new(0),
            backlog_high_water: AtomicU64::new(0),
            epochs_advanced: AtomicU64::new(0),
            retired_total: AtomicU64::new(0),
            reclaimed_total: AtomicU64::new(0),
            reused_total: AtomicU64::new(0),
            passes: AtomicU64::new(0),
            passes_skipped: AtomicU64::new(0),
            parent_chunks_scanned: AtomicU64::new(0),
            pass_chunk_reads: AtomicU64::new(0),
        }
    }

    /// Claim a slot for a new worker. `None` when all slots are taken.
    pub fn register(&self) -> Option<SlotId> {
        for (i, s) in self.slots.iter().enumerate() {
            if s.registered
                .compare_exchange(0, 1, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                s.announce.store(0, Ordering::Release);
                // Grown only, so a handle minted per operation pays a load.
                // SeqCst, like `pin`'s announcement that follows it: an
                // advance scan that does not see the new bound is ordered
                // before that announcement, as if it had seen the slot
                // quiescent.
                if self.slots_used.load(Ordering::Relaxed) <= i {
                    self.slots_used.fetch_max(i + 1, Ordering::SeqCst);
                }
                return Some(i);
            }
        }
        None
    }

    /// Release a slot. The worker is normally unpinned by now; if its owner
    /// died mid-operation (panic unwinding past a pin), the slot is
    /// force-quiesced instead of asserting — the dying thread can no longer
    /// hold chunk references, and a leaked announcement would block epoch
    /// advance (and with it all reclamation) forever.
    pub fn unregister(&self, slot: SlotId) {
        let s = &self.slots[slot];
        s.announce.store(0, Ordering::Release);
        s.registered.store(0, Ordering::Release);
    }

    /// Enter an operation: announce the current epoch, and return it. The
    /// slot must be quiescent — a pin never nests.
    ///
    /// The announcement store is `SeqCst` so it is globally ordered before
    /// any chunk reads the operation performs; a reclaimer scan that sees
    /// this slot quiescent is therefore ordered before those reads too.
    ///
    /// Nothing the pinned operation can reach is recycled before the global
    /// epoch reaches the returned epoch + 2 (two advances from a retire, or
    /// the staging grace of a chunk verified while it ran), which is what
    /// lets a caller keep such a chunk past its unpin for as long as the
    /// epoch has not moved.
    #[inline]
    pub fn pin(&self, slot: SlotId) -> u64 {
        let s = &self.slots[slot];
        debug_assert_eq!(s.announce.load(Ordering::Relaxed), 0, "nested pin");
        let e = self.global.load(Ordering::SeqCst);
        s.announce.store(e, Ordering::SeqCst);
        e
    }

    /// Leave an operation: go quiescent.
    #[inline]
    pub fn unpin(&self, slot: SlotId) {
        let s = &self.slots[slot];
        debug_assert_ne!(s.announce.load(Ordering::Relaxed), 0, "unpin without pin");
        s.announce.store(0, Ordering::Release);
    }

    /// Put `item` in grace at the current epoch. The count goes up before
    /// the push and down after a pop, so it never under-reports.
    fn enqueue<T>(&self, q: &GraceQueue<T>, item: T) {
        let now = self.work.fetch_add(1, Ordering::Relaxed) + 1;
        self.backlog_high_water
            .fetch_max(now & BACKLOG_MASK, Ordering::Relaxed);
        let mut q = q.lock().unwrap();
        q.push_back((self.global.load(Ordering::SeqCst), item));
    }

    /// Pop everything in `q` whose grace (two advances) has elapsed into
    /// `sink`; returns how many.
    fn dequeue<T>(&self, q: &GraceQueue<T>, mut sink: impl FnMut(T)) -> u64 {
        let now = self.epoch();
        let mut q = q.lock().unwrap();
        let mut n = 0;
        while q.front().is_some_and(|&(e, _)| now >= e + 2) {
            sink(q.pop_front().expect("front was just observed").1);
            n += 1;
        }
        self.work.fetch_sub(n, Ordering::Relaxed);
        n
    }

    /// Is anything in grace, or any flag up? When not, a reclamation pass
    /// would find nothing to do. One relaxed load of a word that only
    /// reclamation work itself ever writes.
    #[inline]
    pub fn has_work(&self) -> bool {
        self.work.load(Ordering::Relaxed) != 0
    }

    /// Raise attention flags for the next pass: 32 bits whose meaning is
    /// the structure layer's (it flags the levels whose head edge needs a
    /// sweep). Release pairs with [`Self::take_flags`]: the pass that takes
    /// a flag sees what was written before it was raised.
    pub fn flag(&self, bits: u32) {
        self.work.fetch_or(u64::from(bits) << 32, Ordering::Release);
    }

    /// Take (and clear) the raised flags.
    pub fn take_flags(&self) -> u32 {
        (self.work.fetch_and(BACKLOG_MASK, Ordering::Acquire) >> 32) as u32
    }

    /// Hand an unlinked zombie chunk to the reclaimer.
    ///
    /// Must be called by the team that made the chunk unreachable on its own
    /// level (it holds the lock / won the CAS that swung the pointer past
    /// it), stamping the level so the verification pass knows which parent
    /// level to scan for stale down pointers.
    pub fn retire(&self, chunk: u32, level: u8) {
        self.retired_total.fetch_add(1, Ordering::Relaxed);
        self.requeue(chunk, level);
    }

    /// Put a grace-passed candidate back in limbo (a stale down pointer
    /// still referenced it); it re-enters grace at the current epoch.
    pub fn requeue(&self, chunk: u32, level: u8) {
        self.enqueue(&self.limbo, (chunk, level));
    }

    /// Try to advance the global epoch: possible when every pinned slot has
    /// announced the current epoch. Returns the (possibly new) epoch.
    pub fn try_advance(&self) -> u64 {
        let e = self.global.load(Ordering::SeqCst);
        let used = self.slots_used.load(Ordering::SeqCst);
        for s in self.slots[..used].iter() {
            if s.registered.load(Ordering::Acquire) == 0 {
                continue;
            }
            let a = s.announce.load(Ordering::SeqCst);
            if a != 0 && a != e {
                return e; // someone is still inside an older epoch
            }
        }
        match self
            .global
            .compare_exchange(e, e + 1, Ordering::SeqCst, Ordering::SeqCst)
        {
            Ok(_) => {
                self.epochs_advanced.fetch_add(1, Ordering::Relaxed);
                e + 1
            }
            Err(cur) => cur,
        }
    }

    /// Move every retired chunk whose grace period has elapsed (two epoch
    /// advances since retirement) into `out` as `(chunk, level)` pairs.
    ///
    /// The caller owns the candidates: it must either `stage_verified`,
    /// `recycle` or `requeue` each one.
    pub fn drain_candidates(&self, out: &mut Vec<(u32, u8)>) {
        self.dequeue(&self.limbo, |c| out.push(c));
    }

    /// How many retired chunks [`Self::drain_candidates`] would move now:
    /// the front of limbo whose grace has elapsed (a prefix, see
    /// `GraceQueue`), counted without moving anything.
    pub fn ready_candidates(&self) -> u64 {
        let now = self.epoch();
        let q = self.limbo.lock().unwrap();
        q.partition_point(|&(e, _)| now >= e + 2) as u64
    }

    /// Chunks on the free list now.
    pub fn free_len(&self) -> u64 {
        self.free.lock().unwrap().len() as u64
    }

    /// Put a verified-unreachable chunk on the free list for reuse.
    ///
    /// Callers that verified reachability by scanning shared memory should
    /// prefer [`Self::stage_verified`], which interposes a second grace
    /// period; direct `recycle` is for callers that can prove no reader
    /// holds the chunk at all (tests, single-threaded maintenance).
    pub fn recycle(&self, chunk: u32) {
        self.reclaimed_total.fetch_add(1, Ordering::Relaxed);
        self.free.lock().unwrap().push(chunk);
    }

    /// Stage a candidate that passed the reachability scan: it becomes
    /// allocatable only after one further grace period (covering readers
    /// that copied a soon-after-repaired stale pointer into a register
    /// before the scan ran), via [`Self::harvest_verified`].
    pub fn stage_verified(&self, chunk: u32) {
        self.enqueue(&self.staged, chunk);
    }

    /// Move staged chunks whose second grace period has elapsed onto the
    /// free list; returns how many were moved. References to a verified
    /// chunk cannot reappear in memory, so no rescan is needed.
    pub fn harvest_verified(&self) -> usize {
        self.dequeue(&self.staged, |c| self.recycle(c)) as usize
    }

    /// Call `f` on every chunk still awaiting reclamation (in limbo or
    /// staged). The structure layer's verification pass treats the frozen
    /// next pointers of these chunks as live references — a reader parked
    /// on one can still step through it.
    pub fn for_each_pending(&self, mut f: impl FnMut(u32)) {
        self.limbo
            .lock()
            .unwrap()
            .iter()
            .for_each(|&(_, (c, _))| f(c));
        self.staged.lock().unwrap().iter().for_each(|&(_, c)| f(c));
    }

    /// Pop a recycled chunk index, if any.
    pub fn try_alloc(&self) -> Option<u32> {
        let c = self.free.lock().unwrap().pop();
        if c.is_some() {
            self.reused_total.fetch_add(1, Ordering::Relaxed);
        }
        c
    }

    /// Current global epoch.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.global.load(Ordering::SeqCst)
    }

    /// Account one reclamation pass that read `chunk_reads` chunks in all,
    /// `parent_chunks` of them scanning parent levels for stale down
    /// pointers.
    pub fn note_pass(&self, parent_chunks: u64, chunk_reads: u64) {
        self.passes.fetch_add(1, Ordering::Relaxed);
        self.parent_chunks_scanned
            .fetch_add(parent_chunks, Ordering::Relaxed);
        self.pass_chunk_reads
            .fetch_add(chunk_reads, Ordering::Relaxed);
    }

    /// Account a pass that did not run because another was in flight.
    pub fn note_pass_skipped(&self) {
        self.passes_skipped.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of the reclamation counters.
    pub fn stats(&self) -> ReclaimStats {
        let o = Ordering::Relaxed;
        ReclaimStats {
            epochs_advanced: self.epochs_advanced.load(o),
            retired: self.retired_total.load(o),
            zombies_reclaimed: self.reclaimed_total.load(o),
            reused: self.reused_total.load(o),
            limbo_len: self.limbo.lock().unwrap().len() as u64,
            staged_len: self.staged.lock().unwrap().len() as u64,
            free_len: self.free_len(),
            passes: self.passes.load(o),
            passes_skipped: self.passes_skipped.load(o),
            parent_chunks_scanned: self.parent_chunks_scanned.load(o),
            pass_chunk_reads: self.pass_chunk_reads.load(o),
            backlog_high_water: self.backlog_high_water.load(o),
        }
    }
}

impl std::fmt::Debug for EpochReclaimer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpochReclaimer")
            .field("epoch", &self.epoch())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One epoch advance, then drain the retired chunks whose grace elapsed
    /// — what a reclamation pass does.
    fn advance_and_drain(r: &EpochReclaimer, out: &mut Vec<(u32, u8)>) {
        r.try_advance();
        r.drain_candidates(out);
    }

    #[test]
    fn adjacent_slots_share_no_cache_line_pair() {
        assert!(std::mem::size_of::<Slot>() >= 128);
        let r = EpochReclaimer::new(3);
        let at = |i: usize| &r.slots[i].announce as *const AtomicU64 as usize;
        assert!(at(1) - at(0) >= 128 && at(2) - at(1) >= 128);
    }

    #[test]
    fn register_unregister_reuses_slots() {
        let r = EpochReclaimer::new(2);
        let a = r.register().unwrap();
        let b = r.register().unwrap();
        assert_ne!(a, b);
        assert!(r.register().is_none(), "capacity is enforced");
        r.unregister(a);
        assert_eq!(r.register(), Some(a), "freed slot is reused");
        r.unregister(a);
        r.unregister(b);
    }

    #[test]
    fn unpinned_world_advances_and_drains() {
        let r = EpochReclaimer::new(4);
        r.retire(7, 0);
        assert!(r.has_work());
        let mut out = Vec::new();
        r.drain_candidates(&mut out);
        assert!(out.is_empty(), "draining does not move the epoch");
        advance_and_drain(&r, &mut out);
        assert!(out.is_empty(), "one advance is not grace");
        advance_and_drain(&r, &mut out);
        assert_eq!(out, vec![(7, 0)], "two advances past retirement = grace");
        assert!(!r.has_work(), "a drained candidate is the caller's");
        r.recycle(7);
        assert_eq!(r.try_alloc(), Some(7));
        assert_eq!(r.try_alloc(), None);
        let s = r.stats();
        assert_eq!(s.zombies_reclaimed, 1);
        assert_eq!(s.reused, 1);
        assert_eq!(s.epochs_advanced, 2);
        assert_eq!(s.backlog_high_water, 1);
    }

    #[test]
    fn flags_and_backlog_share_the_work_word() {
        let r = EpochReclaimer::new(4);
        assert!(!r.has_work());
        r.flag(1 << 31 | 1);
        r.retire(4, 0);
        assert_eq!(r.take_flags(), 1 << 31 | 1);
        assert_eq!(r.take_flags(), 0);
        assert!(r.has_work(), "taking the flags leaves the count");
        assert_eq!(r.stats().backlog_high_water, 1, "flags do not leak into it");
        let mut out = Vec::new();
        advance_and_drain(&r, &mut out);
        advance_and_drain(&r, &mut out);
        assert!(!r.has_work());
    }

    #[test]
    fn ripe_entries_are_a_prefix() {
        let r = EpochReclaimer::new(4);
        r.retire(1, 0);
        r.try_advance();
        r.retire(2, 0);
        assert_eq!(r.ready_candidates(), 0);
        r.try_advance();
        assert_eq!(r.ready_candidates(), 1, "counting moves nothing");
        assert_eq!(r.ready_candidates(), 1);
        let mut out = Vec::new();
        r.drain_candidates(&mut out);
        assert_eq!(
            out,
            vec![(1, 0)],
            "the younger entry stays queued behind it"
        );
        assert_eq!(r.ready_candidates(), 0);
        advance_and_drain(&r, &mut out);
        assert_eq!(out, vec![(1, 0), (2, 0)]);
    }

    #[test]
    fn pinned_slot_blocks_grace() {
        let r = EpochReclaimer::new(4);
        let slot = r.register().unwrap();
        r.pin(slot);
        r.retire(3, 1);
        let mut out = Vec::new();
        for _ in 0..5 {
            advance_and_drain(&r, &mut out);
        }
        assert!(out.is_empty(), "epoch cannot advance past a pinned slot");
        r.unpin(slot);
        advance_and_drain(&r, &mut out);
        advance_and_drain(&r, &mut out);
        assert_eq!(out, vec![(3, 1)]);
        r.unregister(slot);
    }

    #[test]
    fn advance_scans_only_slots_ever_registered() {
        let r = EpochReclaimer::new(1024);
        let (a, b) = (r.register().unwrap(), r.register().unwrap());
        r.unregister(a);
        r.pin(b);
        assert_eq!(r.slots_used.load(Ordering::SeqCst), 2);
        assert_eq!(r.try_advance(), 2, "b announced the current epoch");
        assert_eq!(r.try_advance(), 2, "b, the highest slot, now lags");
        r.unpin(b);
        r.unregister(b);
    }

    #[test]
    fn repinning_announces_fresh_epoch() {
        let r = EpochReclaimer::new(4);
        let slot = r.register().unwrap();
        r.pin(slot);
        r.retire(9, 0);
        r.unpin(slot);
        // The worker starts a *new* operation: it re-announces the current
        // epoch, so it no longer holds grace back.
        r.pin(slot);
        let mut out = Vec::new();
        advance_and_drain(&r, &mut out); // advances once; worker now lags
        r.unpin(slot);
        r.pin(slot); // quiesced + repinned at the newer epoch
        advance_and_drain(&r, &mut out);
        assert_eq!(out, vec![(9, 0)]);
        r.unpin(slot);
        r.unregister(slot);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "nested pin")]
    fn pinning_a_pinned_slot_panics() {
        let r = EpochReclaimer::new(4);
        let slot = r.register().unwrap();
        r.pin(slot);
        r.pin(slot);
    }

    #[test]
    fn requeue_restarts_grace() {
        let r = EpochReclaimer::new(4);
        r.retire(11, 2);
        let mut out = Vec::new();
        advance_and_drain(&r, &mut out);
        advance_and_drain(&r, &mut out);
        assert_eq!(out, vec![(11, 2)]);
        out.clear();
        r.requeue(11, 2);
        advance_and_drain(&r, &mut out);
        assert!(out.is_empty(), "requeued chunk re-enters grace");
        advance_and_drain(&r, &mut out);
        assert_eq!(out, vec![(11, 2)]);
        assert_eq!(r.stats().retired, 1, "requeue does not double-count");
    }

    #[test]
    fn staged_chunks_wait_out_second_grace() {
        let r = EpochReclaimer::new(4);
        r.stage_verified(13);
        r.try_advance();
        assert_eq!(r.harvest_verified(), 0, "one advance is not grace");
        assert_eq!(r.try_alloc(), None, "staged chunks are not yet allocatable");
        r.try_advance();
        assert_eq!(
            r.harvest_verified(),
            1,
            "second advance completes the grace"
        );
        assert_eq!(r.try_alloc(), Some(13));
        let s = r.stats();
        assert_eq!(s.zombies_reclaimed, 1);
        assert!(s.staged_len == 0 && !r.has_work());
    }

    #[test]
    fn pending_covers_limbo_and_staged() {
        let r = EpochReclaimer::new(4);
        r.retire(1, 0);
        r.stage_verified(2);
        let mut out = Vec::new();
        r.for_each_pending(|c| out.push(c));
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn concurrent_pin_retire_drain_is_safe() {
        use std::sync::atomic::AtomicBool;
        let r = EpochReclaimer::new(8);
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    let slot = r.register().unwrap();
                    for i in 0..2000u32 {
                        r.pin(slot);
                        if i % 7 == 0 {
                            r.retire(i, 0);
                        }
                        r.unpin(slot);
                    }
                    r.unregister(slot);
                });
            }
            s.spawn(|| {
                let mut out = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    advance_and_drain(&r, &mut out);
                    for (c, _) in out.drain(..) {
                        r.recycle(c);
                    }
                }
            });
            // Let the workers churn a while, then stop the drainer; the
            // scope joins everything.
            std::thread::sleep(std::time::Duration::from_millis(50));
            stop.store(true, Ordering::Relaxed);
        });
        let mut out = Vec::new();
        advance_and_drain(&r, &mut out);
        advance_and_drain(&r, &mut out);
        for (c, _) in out.drain(..) {
            r.recycle(c);
        }
        let s = r.stats();
        assert_eq!(s.retired, s.zombies_reclaimed + s.limbo_len);
        assert_eq!(r.has_work(), s.limbo_len > 0);
    }
}
