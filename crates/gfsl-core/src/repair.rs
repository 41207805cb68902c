//! Online scrub-and-repair of crash-quarantined chunks (DESIGN.md §13).
//!
//! When an operation run through a `try_*` entry point crashes, its
//! held chunks are parked — still lock-held — in the structure's quarantine
//! set together with their certified pre-op snapshots and the crashed op's
//! journal intent. [`GfslHandle::repair_quarantine`] walks that set and
//! decides, per chunk, between **roll-forward** (complete the structural
//! mutation the journal proves was in flight: publish-side of a split, the
//! zombie mark of a copied merge) and **roll-back** (restore the pre-op
//! snapshot certified by the versioned lock word, or retire a never-published
//! orphan), then releases the lock with a version bump so waiters, hints and
//! certification observe the repair as an ordinary writer critical section.
//!
//! The decision is safe against lock-free readers because a crashed op's
//! chunks are each *individually consistent* (the protocol's crash points
//! all precede their stores, and the shift/copy loops contain none), and
//! roll-back is applied only to states readers cannot have observed: a
//! never-published split half is unreachable, and a partially-merged
//! absorber only ever gains entries that duplicate live ones in the (still
//! linked, still locked) dying chunk with identical key *and* value.
//! Anything a reader could have answered `Found` from is rolled forward.
//!
//! [`GfslHandle::scrub_step`] is the other half of the subsystem: an
//! incremental background walk re-validating settled (unlocked, non-zombie)
//! chunks against the same chunk-local invariants the validator uses,
//! counting only violations that survive a certified re-read.

use gfsl_gpu_mem::MemProbe;
use std::sync::atomic::Ordering;

use crate::chunk::{
    lock_state, ops, ChunkView, Entry, KEY_NEG_INF, LOCK_LOCKED, LOCK_STATE_MASK, LOCK_UNLOCKED,
    LOCK_VERSION_UNIT, LOCK_ZOMBIE, NIL,
};
use crate::skiplist::{Error, Gfsl, GfslHandle, Intent, QuarantinedChunk, RepairStats};
use crate::validate::chunk_rules;

impl Gfsl {
    /// One heal step of the structure: repair the quarantine if it
    /// holds anything, then advance the scrubber `scrub_budget` chunks. A
    /// step with nothing to do mints no handle. Returns `(chunks repaired
    /// meanwhile — by this step or a concurrent one, quarantine depth
    /// left)`, or [`Error::TooManyHandles`] when there was work and no
    /// handle slot to do it with.
    pub fn heal_step(&self, scrub_budget: usize) -> Result<(u64, usize), Error> {
        let before = self.repair_stats().repaired();
        if self.quarantine_depth() > 0 || scrub_budget > 0 {
            let mut h = self.try_handle()?;
            if self.quarantine_depth() > 0 {
                h.repair_quarantine();
            }
            h.scrub_step(scrub_budget);
        }
        Ok((self.repair_stats().repaired() - before, self.quarantine_depth()))
    }
}

/// A down-pointer repair deferred until every quarantined lock has been
/// released (running it earlier could wait on a chunk this very repair pass
/// still holds).
struct DownPtrFix {
    level: usize,
    moved: Vec<u32>,
    target: u32,
}

impl<P: MemProbe> GfslHandle<'_, P> {
    /// Repair every quarantined chunk and release its lock, then re-install
    /// the down-pointers of keys the completed splits/merges moved. Returns
    /// the post-repair [`RepairStats`] snapshot.
    ///
    /// Any handle may run this (it is the maintenance half of containment);
    /// concurrent callers each drain a disjoint batch. Operations that were
    /// waiting on a quarantined chunk resume (or re-run after their typed
    /// abort) once the lock is released here.
    pub fn repair_quarantine(&mut self) -> RepairStats {
        let entries: Vec<QuarantinedChunk> = {
            let mut q = self
                .list
                .quarantine
                .lock()
                .unwrap_or_else(|p| p.into_inner());
            let drained = std::mem::take(&mut *q);
            self.list.quarantine_len.store(0, Ordering::Release);
            drained
        };
        if entries.is_empty() {
            return self.list.repair_stats();
        }
        let mut fixes: Vec<DownPtrFix> = Vec::new();
        for entry in &entries {
            self.repair_one(entry, &mut fixes);
        }
        // All structural locks are released; now the deferred down-pointer
        // installs can run as ordinary (contained) operations. Losing one to
        // an abort is tolerable: stale down-pointers are legal (they land
        // left of the key and lateral steps recover).
        for fix in fixes {
            if self
                .contained(|h| h.with_pin(|h| h.update_down_ptrs(fix.level, &fix.moved, fix.target)))
                .is_ok()
            {
                self.list
                    .recovery
                    .downptr_repairs
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
        self.list.repair_stats()
    }

    /// Apply the roll-forward / roll-back decision table to one quarantined
    /// chunk and release its lock.
    fn repair_one(&mut self, entry: &QuarantinedChunk, fixes: &mut Vec<DownPtrFix>) {
        let team = self.list.team;
        let c = entry.chunk;
        match entry.intent {
            // A split half that was never published: unreachable orphan.
            // Roll back by retiring it (readers cannot hold a pointer to a
            // chunk that was allocated and quarantined within one op).
            Intent::Split {
                new,
                level,
                published: false,
                ..
            } if c == new => {
                self.quarantine_zombie(c);
                if let Some(rec) = self.list.reclaim.as_ref() {
                    // Safe to retire directly: unlike a merged-away zombie,
                    // an unpublished half is linked from nowhere, so no lazy
                    // unlink will ever retire it for us.
                    rec.retire(c, level.min(u8::MAX as usize) as u8);
                }
                self.bump(|r| &r.repaired_back);
            }
            // The published side of a split: the one-word publish is the
            // split's commit point, so roll forward — drop the moved tail
            // (its copies live in the new half), release, and account the
            // new chunk (the crashed op died before its caller could).
            Intent::Split {
                split,
                new,
                thresh,
                level,
                published: true,
            } if c == split => {
                let view = self.read_chunk(c);
                let words = self.list.chunk_words(c);
                for i in (0..team.dsize()).rev() {
                    let e = view.entry(i);
                    if !e.is_empty() && e.key() > thresh {
                        ops::write_entry(&mut self.probe, words, i, Entry::EMPTY);
                    }
                }
                self.release_bumped(c);
                self.list.inc_level_chunks(level);
                let moved: Vec<u32> = entry
                    .snapshot
                    .iter()
                    .flat_map(|s| (0..team.dsize()).map(|i| s.entry(i)))
                    .filter(|e| !e.is_empty() && e.key() > thresh)
                    .map(|e| e.key())
                    .collect();
                if !moved.is_empty() {
                    fixes.push(DownPtrFix {
                        level,
                        moved,
                        target: new,
                    });
                }
                self.bump(|r| &r.repaired_forward);
            }
            // A merge whose copy completed: every survivor already lives in
            // the absorber, so roll forward by issuing the zombie mark the
            // crashed op died before. The zombie stays linked; the normal
            // lazy unlink machinery retires it later.
            Intent::Merge {
                dying,
                absorber,
                k,
                level,
                copied: true,
            } if c == dying => {
                let view = self.read_chunk(c);
                let moved: Vec<u32> = view
                    .live_entries(&team)
                    .map(|(_, e)| e.key())
                    .filter(|&key| key != k && key != KEY_NEG_INF)
                    .collect();
                self.quarantine_zombie(c);
                self.list.dec_level_chunks(level);
                self.list.note_zombie(level);
                if !moved.is_empty() {
                    fixes.push(DownPtrFix {
                        level,
                        moved,
                        target: absorber,
                    });
                }
                self.bump(|r| &r.repaired_forward);
            }
            // The absorber of a completed copy is consistent by
            // construction: release it as-is (its new entries are the
            // dying chunk's survivors).
            Intent::Merge {
                absorber,
                copied: true,
                ..
            } if c == absorber => {
                self.release_bumped(c);
                self.bump(|r| &r.unpoisoned_clean);
            }
            // No applicable intent: decide from the chunk image itself.
            // Crash points all precede their stores, so in practice the
            // image passes and is released untouched; the snapshot restore
            // is the defensive roll-back for a genuinely torn image.
            _ => {
                let view = self.read_chunk(c);
                if chunk_rules(&team, &view, 0, c).is_empty() {
                    self.release_bumped(c);
                    self.bump(|r| &r.unpoisoned_clean);
                } else {
                    self.restore_snapshot(c, entry.snapshot.as_ref());
                    self.release_bumped(c);
                    self.bump(|r| &r.repaired_back);
                }
            }
        }
    }

    /// Overwrite every non-lock lane of `c` from its quarantine snapshot.
    /// The lock lane is deliberately *not* restored: rewinding the version
    /// would break snapshot certification and hint validation.
    fn restore_snapshot(&mut self, c: u32, snapshot: Option<&ChunkView>) {
        let Some(snapshot) = snapshot else {
            return; // no certified snapshot recorded; leave the image alone
        };
        let team = self.list.team;
        let ch = self.list.chunk(c);
        for i in (0..team.lanes()).filter(|&i| i != team.lock_lane()) {
            self.probe.lane_write(ch.entry_addr(i));
            self.list.pool.write(ch.entry_addr(i), snapshot.entry(i).0);
        }
    }

    /// Release a held chunk's lock with a version bump: [`ops::unlock`]
    /// minus its crash point, which must not fire inside the repairer or a
    /// clean abort's release (the un-poisoning step of both).
    pub(crate) fn release_bumped(&mut self, c: u32) {
        let team = self.list.team;
        let addr = self.list.chunk(c).entry_addr(team.lock_lane());
        let cur = self.list.pool.read(addr);
        debug_assert_eq!(lock_state(cur), LOCK_LOCKED, "releasing an unheld chunk {c}");
        self.probe.lane_write(addr);
        self.list.pool.write(
            addr,
            (cur & !LOCK_STATE_MASK).wrapping_add(LOCK_VERSION_UNIT) | LOCK_UNLOCKED,
        );
    }

    /// Convert a quarantined chunk's held lock into the terminal zombie
    /// marker, preserving the version exactly like [`ops::mark_zombie`].
    fn quarantine_zombie(&mut self, c: u32) {
        let team = self.list.team;
        let addr = self.list.chunk(c).entry_addr(team.lock_lane());
        let cur = self.list.pool.read(addr);
        debug_assert_eq!(lock_state(cur), LOCK_LOCKED, "zombifying an unheld chunk {c}");
        self.probe.lane_write(addr);
        self.list
            .pool
            .write(addr, (cur & !LOCK_STATE_MASK) | LOCK_ZOMBIE);
    }

    #[inline]
    fn bump(&self, f: impl Fn(&crate::skiplist::RecoveryCounters) -> &std::sync::atomic::AtomicU64) {
        f(&self.list.recovery).fetch_add(1, Ordering::Relaxed);
    }

    /// One increment of the background scrubber: re-validate up to `budget`
    /// chunks against the chunk-local invariants (the shared
    /// `validate::chunk_rules`), advancing a structure-wide cursor across
    /// levels so repeated calls cover the whole structure. Returns the
    /// number of chunks visited (settled or not).
    ///
    /// Locked and zombie chunks are skipped (in flux / terminal); a
    /// suspected violation is counted only when a certified re-read — the
    /// same unlocked lock word observed twice — still shows it, so an
    /// in-flight writer can never produce a false positive.
    pub fn scrub_step(&mut self, budget: usize) -> usize {
        let team = self.list.team;
        let levels = self.list.params.max_levels();
        let mut cursor = *self
            .list
            .scrub_cursor
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        let mut visited = 0usize;
        while visited < budget {
            let (level, chunk) = cursor;
            let view = self.read_chunk(chunk);
            let word = view.lock_word(&team);
            if lock_state(word) == LOCK_UNLOCKED {
                if !chunk_rules(&team, &view, level, chunk).is_empty() {
                    // Certify before counting: the first read may have torn
                    // across an active writer's stores.
                    let v2 = self.read_chunk(chunk);
                    if v2.lock_word(&team) == word {
                        let confirmed = chunk_rules(&team, &v2, level, chunk).len();
                        if confirmed > 0 {
                            self.list
                                .recovery
                                .scrub_violations
                                .fetch_add(confirmed as u64, Ordering::Relaxed);
                        }
                    }
                }
                self.list
                    .recovery
                    .scrubbed_chunks
                    .fetch_add(1, Ordering::Relaxed);
            }
            visited += 1;
            let next = view.next(&team);
            cursor = if next == NIL {
                let nl = (level + 1) % levels;
                (nl, self.list.head_of(nl))
            } else {
                (level, next)
            };
        }
        *self
            .list
            .scrub_cursor
            .lock()
            .unwrap_or_else(|p| p.into_inner()) = cursor;
        visited
    }
}

#[cfg(test)]
mod tests {
    use crate::mc::controller::McController;
    use crate::mc::strategy::Replay;
    use crate::params::GfslParams;
    use crate::skiplist::{AbortReason, Error, Gfsl, Intent};
    use gfsl_gpu_mem::CrashPoint;
    use gfsl_simt::TeamSize;

    fn params16() -> GfslParams {
        GfslParams {
            team_size: TeamSize::Sixteen,
            pool_chunks: 1 << 12,
            ..Default::default()
        }
    }

    fn crash_once_at(point: CrashPoint) -> std::sync::Arc<McController> {
        crate::chaos::controller(1, Replay::new(Vec::new()), Some((point, 1)))
    }

    /// A structure of 200 keys (`10, 20, …`) built by plain inserts.
    fn prefilled16() -> Gfsl {
        let list = Gfsl::new(params16()).unwrap();
        let mut h = list.handle();
        for k in 1..=200u32 {
            h.insert(k * 10, k).unwrap();
        }
        drop(h);
        list
    }

    /// Run `try_insert(k * 10 + 5)` (for a split) or `try_remove(k * 10)`
    /// (for a merge) for `k = 1, 2, …` on a handle that crashes at the
    /// first `point`; return whether it fired.
    fn crash_one_op(list: &Gfsl, point: CrashPoint, mut before_op: impl FnMut()) -> bool {
        let ctl = crash_once_at(point);
        let mut h = list.handle_with(ctl.probe(0));
        (1..=400u32).any(|k| {
            before_op();
            let op = if point == CrashPoint::MergeZombieMark {
                h.try_remove(k * 10).map(|_| ())
            } else {
                h.try_insert(k * 10 + 5, k).map(|_| ())
            };
            op.is_err()
        })
    }

    #[test]
    fn scrub_covers_clean_structure_without_violations() {
        let list = Gfsl::new(params16()).unwrap();
        let mut h = list.handle();
        for k in 1..=600u32 {
            h.insert(k, k).unwrap();
        }
        let visited = h.scrub_step(512);
        assert_eq!(visited, 512, "budget fully spent (cursor wraps levels)");
        let stats = list.repair_stats();
        assert!(stats.scrubbed_chunks > 0, "settled chunks must be scrubbed");
        assert_eq!(stats.scrub_violations, 0, "clean structure, no violations");
    }

    #[test]
    fn repair_on_empty_quarantine_is_noop() {
        let list = Gfsl::new(params16()).unwrap();
        let mut h = list.handle();
        h.insert(5, 5).unwrap();
        let stats = h.repair_quarantine();
        assert_eq!(stats.quarantine_depth, 0);
        assert_eq!(stats.repaired(), 0);
        list.assert_valid();
    }

    /// `heal_step` mints a handle only when there is work: with the handle
    /// table full, a step over a quarantine fails typed and an idle one
    /// still answers; once a slot frees, the step repairs and counts.
    #[test]
    fn heal_step_needs_a_handle_only_for_work() {
        let list = Gfsl::new(params16()).unwrap();
        let ctl = crash_once_at(CrashPoint::SplitPublish);
        let mut h = list.handle_with(ctl.probe(0));
        assert!((1..=60u32).any(|k| h.try_insert(k, k).is_err()), "the crash fires");
        drop(h);
        let full = || (0..crate::MAX_RECLAIM_HANDLES).map(|_| list.handle());
        let held: Vec<_> = full().collect();
        assert_eq!(list.heal_step(32), Err(Error::TooManyHandles));
        drop(held);
        let (repaired, depth) = list.heal_step(0).unwrap();
        assert!(repaired >= 1, "the crashed split's chunks are repaired");
        assert_eq!(depth, 0);
        let held: Vec<_> = full().collect();
        assert_eq!(list.heal_step(0), Ok((0, 0)), "nothing to do, no handle");
        drop(held);
        list.assert_valid();
    }

    /// A rolled-forward split counts its new chunk and a rolled-forward
    /// merge uncounts its dying one: the height is the full counter scan on
    /// both sides of each. (A split that dies installing a down-pointer has
    /// published; one that dies at `SplitPublish` rolls back uncounted.)
    #[test]
    fn height_is_the_full_scan_around_repair() {
        for (point, moved) in [
            (CrashPoint::DownPtrInstall, 1i64),
            (CrashPoint::MergeZombieMark, -1),
        ] {
            let list = prefilled16();
            let counted = || -> i64 {
                (0..list.params.max_levels())
                    .map(|l| i64::from(list.level_chunk_count(l)))
                    .sum()
            };
            let crashed = crash_one_op(&list, point, || {});
            assert!(crashed && list.quarantine_depth() > 0, "{point:?} fires");
            assert_eq!(
                list.height(),
                list.scanned_height(),
                "{point:?} before repair"
            );
            let before = counted();
            list.handle().repair_quarantine();
            assert_eq!(counted() - before, moved, "{point:?}");
            assert_eq!(
                list.height(),
                list.scanned_height(),
                "{point:?} after repair"
            );
            list.assert_valid();
        }
    }

    #[test]
    fn split_publish_crash_quarantines_then_repairs() {
        let list = Gfsl::new(params16()).unwrap();
        let ctl = crash_once_at(CrashPoint::SplitPublish);
        let mut acked = Vec::new();
        let mut crashed = None;
        let mut h = list.handle_with(ctl.probe(0));
        for k in 1..=60u32 {
            let mut attempts = 0;
            loop {
                attempts += 1;
                assert!(attempts < 8, "key {k} not making progress");
                match h.try_insert(k, k) {
                    Ok(true) => {
                        acked.push(k);
                        break;
                    }
                    Ok(false) => break, // a crashed insert that rolled forward
                    Err(Error::Aborted(a)) => {
                        if a.reason == AbortReason::Crashed {
                            assert!(crashed.is_none(), "chaos injects exactly one crash");
                            crashed = Some(k);
                            assert!(
                                list.quarantine_depth() > 0,
                                "crash must quarantine the held chunks"
                            );
                        } else {
                            assert_eq!(a.reason, AbortReason::Quarantined);
                        }
                        let stats = list.handle().repair_quarantine();
                        assert_eq!(stats.quarantine_depth, 0, "repair drains the set");
                    }
                    Err(e) => panic!("unexpected error: {e}"),
                }
            }
        }
        drop(h);
        assert!(crashed.is_some(), "SplitPublish occurrence 1 must fire");
        let stats = list.repair_stats();
        assert_eq!(stats.crashed_ops, 1);
        assert!(stats.chunks_quarantined >= 2, "split holds both halves");
        assert!(
            stats.repaired_back >= 1,
            "the never-published split half rolls back (retired)"
        );
        list.assert_valid();
        let mut h = list.handle();
        for &a in &acked {
            assert!(h.contains(a), "acknowledged key {a} lost after repair");
        }
        assert_eq!(list.keys(), (1..=60u32).collect::<Vec<_>>());
    }

    #[test]
    fn merge_zombie_crash_rolls_forward() {
        let list = Gfsl::new(params16()).unwrap();
        {
            let mut h = list.handle();
            for k in 1..=200u32 {
                h.insert(k * 10, k).unwrap();
            }
        }
        let ctl = crash_once_at(CrashPoint::MergeZombieMark);
        let mut h = list.handle_with(ctl.probe(0));
        for k in 1..=200u32 {
            let key = k * 10;
            let mut attempts = 0;
            loop {
                attempts += 1;
                assert!(attempts < 8, "key {key} not making progress");
                match h.try_remove(key) {
                    // Ok(false) happens when the crashed remove of this very
                    // key was completed by the repair's roll-forward.
                    Ok(_) => break,
                    Err(Error::Aborted(a)) => {
                        if a.reason != AbortReason::Crashed {
                            assert_eq!(a.reason, AbortReason::Quarantined);
                        }
                        let stats = list.handle().repair_quarantine();
                        assert_eq!(stats.quarantine_depth, 0, "repair drains the set");
                    }
                    Err(e) => panic!("unexpected error: {e}"),
                }
            }
        }
        drop(h);
        let stats = list.repair_stats();
        assert_eq!(stats.crashed_ops, 1, "MergeZombieMark occurrence 1 fires");
        assert!(
            stats.repaired_forward + stats.unpoisoned_clean >= 1,
            "merge repair acts on the quarantined pair"
        );
        list.assert_valid();
        assert!(list.is_empty(), "every key removed after repair");
    }

    /// What a crash quarantines carries the chunk's image from before the
    /// op: equal, lane for lane (the lock lane aside), to the pool read just
    /// before the crashing op started. The half a split allocated had no
    /// image before the op and carries none.
    #[test]
    fn quarantine_snapshots_are_the_pre_op_image() {
        for point in [CrashPoint::SplitPublish, CrashPoint::MergeZombieMark] {
            let list = prefilled16();
            let mut before = Vec::new();
            let crashed = crash_one_op(&list, point, || {
                before = (0..list.pool.used()).map(|a| list.pool.read(a)).collect();
            });
            assert!(crashed, "{point:?} fires");
            let team = list.team;
            let q = list.quarantine.lock().unwrap();
            assert!(q.len() >= 2, "{point:?}: the op held a pair");
            for entry in q.iter() {
                let c = entry.chunk;
                let allocated = matches!(entry.intent, Intent::Split { new, .. } if new == c);
                let Some(snap) = entry.snapshot else {
                    assert!(allocated, "{point:?}: chunk {c} existed before the op but has no snapshot");
                    continue;
                };
                assert!(!allocated, "{point:?}: chunk {c} was allocated by the op but has a snapshot");
                let base = c as usize * team.lanes();
                for i in (0..team.lanes()).filter(|&i| i != team.lock_lane()) {
                    assert_eq!(snap.entry(i).0, before[base + i], "{point:?}: chunk {c} lane {i}");
                }
            }
            if point == CrashPoint::SplitPublish {
                assert!(q.iter().any(|e| e.snapshot.is_none()), "the new half is quarantined");
            }
            drop(q);
            list.handle().repair_quarantine();
            list.assert_valid();
        }
    }

    /// Snapshots go into a buffer the handle keeps: once warm, 10,000 more
    /// contained updates (splits and merges among them) do not grow it.
    #[test]
    fn a_warm_handle_records_snapshots_without_growing_their_store() {
        let list = Gfsl::new(params16()).unwrap();
        let mut h = list.handle();
        let mut churn = |keys: std::ops::Range<u32>| {
            for k in keys {
                assert!(h.try_insert(k, k).unwrap());
                if k > 64 {
                    assert!(h.try_remove(k - 64).unwrap());
                }
            }
            h.held.snap_lanes.capacity()
        };
        let warm = churn(1..2_065);
        assert!(warm > 0, "contained updates record snapshots");
        assert_eq!(churn(2_065..7_065), warm, "the store grew on a warm handle");
        let r = list.repair_stats();
        assert_eq!((r.crashed_ops, r.quarantine_depth), (0, 0), "{r:?}");
        list.assert_valid();
    }
}
