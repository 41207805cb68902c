//! Online scrub-and-repair of crash-quarantined chunks (DESIGN.md §13).
//!
//! When an operation run through any entry point crashes, its held chunks
//! are parked — still lock-held — in the structure's quarantine set
//! together with the crashed op's intent.
//! [`GfslHandle::repair_quarantine`] walks that set and decides, per chunk,
//! from that intent and the chunk's current image alone (no image from
//! before the op is kept): **roll-forward** (complete the structural
//! mutation the journal proves was in flight: the publish side of a split,
//! the zombie mark of a copied merge), **roll-back** (retire a
//! never-published split half) or a plain release. Each releases the lock
//! with a version bump so waiters, hints and certification observe the
//! repair as an ordinary writer critical section.
//!
//! This is safe against lock-free readers because every structural change
//! commits with one single-word store (a split's publish, a merge's zombie
//! mark) and every crash point precedes its store, so an injected crash
//! leaves each chunk it held *individually consistent*. Roll-back touches
//! only a state readers cannot have observed (an unpublished half is
//! unreachable); a partially-merged absorber only ever gains entries that
//! duplicate live ones in the (still linked, still locked) dying chunk with
//! identical key *and* value. A chunk that fails the chunk-local rules was
//! torn mid-store, which only a bug can leave: repair poisons the structure
//! and leaves that chunk locked.
//!
//! [`GfslHandle::scrub_step`] is the other half of the subsystem: an
//! incremental background walk re-validating settled (unlocked, non-zombie)
//! chunks against the same chunk-local invariants the validator uses,
//! counting only violations that survive a certified re-read.

use gfsl_gpu_mem::MemProbe;
use std::sync::atomic::Ordering;

use crate::chunk::{ops, ChunkRead, ChunkView, Entry, Release, KEY_NEG_INF, NIL};
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
        for entry in entries {
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
    /// chunk and release its lock quietly: the unlock, or for a chunk the
    /// decision retires, the zombie mark.
    fn repair_one(&mut self, QuarantinedChunk { held, intent }: QuarantinedChunk, fixes: &mut Vec<DownPtrFix>) {
        let team = self.list.team;
        let c = held.chunk();
        let (unlock, zombify) = (Release::Quiet { zombie: false }, Release::Quiet { zombie: true });
        match intent {
            // A split half that was never published: unreachable orphan.
            // Roll back by retiring it (readers cannot hold a pointer to a
            // chunk that was allocated and quarantined within one op).
            Intent::Split {
                new,
                level,
                published: false,
                ..
            } if c == new => {
                self.release(held, zombify);
                // Safe to retire directly: unlike a merged-away zombie, an
                // unpublished half is linked from nowhere, so no lazy unlink
                // will ever retire it for us.
                self.list
                    .reclaim
                    .retire(c, level.min(u8::MAX as usize) as u8);
                self.bump(|r| &r.repaired_back);
            }
            // The published side of a split: the one-word publish is the
            // split's commit point, so roll forward — drop the moved tail
            // (its copies live in the new half), release, and account the
            // new chunk (the crashed op died before its caller could).
            Intent::Split {
                split,
                thresh,
                level,
                published: true,
                ..
            } if c == split => {
                let view = self.read_chunk(c);
                let words = self.list.chunk_words(c);
                for i in (0..team.dsize()).rev() {
                    let e = view.entry(i);
                    if !e.is_empty() && e.key() > thresh {
                        ops::write_entry(&mut self.probe, words, i, Entry::EMPTY);
                    }
                }
                self.release(held, unlock);
                self.list.inc_level_chunks(level);
                self.bump(|r| &r.repaired_forward);
            }
            // The new half of a published split, still held by the crashed
            // op: read under that lock, its keys are the ones that moved
            // (plus the op's own key if it landed here), so they name the
            // down-pointers to fix. A new half the op had already released
            // is not in the quarantine and gets no fix: its stale
            // down-pointers are legal.
            Intent::Split {
                new,
                level,
                published: true,
                ..
            } if c == new => {
                let view = self.read_chunk(c);
                if self.poison_if_torn(c, &view) {
                    return;
                }
                // Sorted, as the chunk rules just checked.
                let moved: Vec<u32> = view.live_entries(&team).map(|(_, e)| e.key()).collect();
                self.release(held, unlock);
                if !moved.is_empty() {
                    fixes.push(DownPtrFix {
                        level,
                        moved,
                        target: new,
                    });
                }
                self.bump(|r| &r.unpoisoned_clean);
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
                self.release(held, zombify);
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
                self.release(held, unlock);
                self.bump(|r| &r.unpoisoned_clean);
            }
            // No applicable intent: decide from the chunk image itself.
            // Crash points all precede their stores, so the image of a chunk
            // an injected crash left passes and is released untouched.
            _ => {
                let view = self.read_chunk(c);
                if !self.poison_if_torn(c, &view) {
                    self.release(held, unlock);
                    self.bump(|r| &r.unpoisoned_clean);
                }
            }
        }
    }

    /// Poison the structure if `c`'s image breaks the chunk-local rules:
    /// torn mid-store, which only a bug can leave and no intent describes.
    /// The chunk stays locked for good (its caller drops the lock's token
    /// unreleased), so the poisoned lock-wait path reports it.
    fn poison_if_torn(&self, c: u32, view: &ChunkView) -> bool {
        let torn = !chunk_rules(&self.list.team, view, 0, c).is_empty();
        if torn {
            self.list.poison(c);
        }
        torn
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
            let mut view = ChunkView::BLANK;
            let read = self.read_chunk_into(chunk, None, &mut view);
            if let ChunkRead::Live(Some(word)) = read {
                if !chunk_rules(&team, &view, level, chunk).is_empty() {
                    // Certify before counting: the first read may have torn
                    // across an active writer's stores.
                    let mut v2 = ChunkView::BLANK;
                    if let ChunkRead::Certified(_) = self.read_chunk_into(chunk, Some(word), &mut v2) {
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
            cursor = match read {
                ChunkRead::Zombie { next } => (level, next),
                _ if view.next(&team) == NIL => match self.list.head_of((level + 1) % levels) {
                    NIL => (0, self.list.head_of(0)),
                    head => ((level + 1) % levels, head),
                },
                _ => (level, view.next(&team)),
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
    use crate::chunk::{lock_state, LOCK_LOCKED, NIL};
    use crate::mc::controller::McController;
    use crate::mc::strategy::Replay;
    use crate::params::GfslParams;
    use crate::skiplist::{AbortReason, Error, Gfsl, GfslHandle, Intent};
    use gfsl_gpu_mem::{CrashPoint, MemProbe, WordAddr};
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

    /// A structure of 200 keys (`10, 20, …`) built by plain inserts in
    /// descending order, so every split is a half split: the head chunk
    /// `10..=110`, then bottom chunks of seven keys, each indexed by its
    /// minimum (the last excepted).
    fn prefilled16() -> Gfsl {
        let list = Gfsl::new(params16()).unwrap();
        let mut h = list.handle();
        for k in (1..=200u32).rev() {
            h.insert(k * 10, k).unwrap();
        }
        drop(h);
        list
    }

    /// Run `try_insert(4_005 - k * 10)` (for a split) or `try_remove(k *
    /// 10)` (for a merge) for `k = 1, 2, …` on a handle that crashes at the
    /// first `point`; return whether it fired. The inserts descend, so the
    /// last chunk takes half splits, not append splits, and its second
    /// split moves the key its first one raised.
    fn crash_one_op(list: &Gfsl, point: CrashPoint) -> bool {
        let ctl = crash_once_at(point);
        let mut h = list.handle_with(ctl.probe(0));
        (1..=400u32).any(|k| {
            let op = if point == CrashPoint::MergeZombieMark {
                h.try_remove(k * 10).map(|_| ())
            } else {
                h.try_insert(4_005 - k * 10, k).map(|_| ())
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
            let crashed = crash_one_op(&list, point);
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
        assert_eq!(stats.chunks_quarantined, 2, "the dying chunk and its absorber");
        assert_eq!(
            (stats.repaired_forward, stats.unpoisoned_clean),
            (1, 1),
            "the dying chunk rolls forward, the absorber is released"
        );
        list.assert_valid();
        assert!(list.is_empty(), "every key removed after repair");
    }

    /// `key`'s entry at `level`: the chunk it points down at.
    fn down_pointer(list: &Gfsl, level: usize, key: u32) -> Option<u32> {
        let team = list.team;
        let mut h = list.handle();
        let mut c = list.head_of(level);
        while c != NIL {
            let v = h.read_chunk(c);
            if let Some(lane) = v.lane_of_key(&team, key).filter(|_| !v.is_zombie(&team)) {
                return Some(v.entry(lane).val());
            }
            c = v.next(&team);
        }
        None
    }

    /// [`prefilled16`], then `try_insert(k)` for each of `keys` on a handle
    /// that crashes at the `n`th `point`, until the crash quarantines
    /// something. Returns the list, the quarantined chunks' shared intent
    /// and the chunks.
    fn crash_inserts(point: CrashPoint, n: u64, keys: &[u32]) -> (Gfsl, Intent, Vec<u32>) {
        crate::quiet_injected_panics();
        let list = prefilled16();
        let ctl = crate::chaos::controller(1, Replay::new(Vec::new()), Some((point, n)));
        let mut h = list.handle_with(ctl.probe(0));
        for &k in keys {
            let _ = h.try_insert(k, k);
            if list.quarantine_depth() > 0 {
                break;
            }
        }
        drop(h);
        let q = list.quarantine.lock().unwrap();
        let intent = q.first().map_or(Intent::None, |e| e.intent);
        let held = q.iter().map(|e| e.held.chunk()).collect();
        drop(q);
        (list, intent, held)
    }

    /// A split that dies releasing the next chunk, just after its publish,
    /// quarantines all three chunks it held: the split chunk, the new half
    /// and the next chunk. Repair rolls it forward, and its one deferred
    /// down-pointer fix carries the keys the new half holds: every one of
    /// them indexed in the level above points at the new half afterwards,
    /// where before the repair they still pointed at the split chunk.
    #[test]
    fn a_published_split_fixes_the_down_pointers_of_its_new_half() {
        // The chunk of 190..=250 (190, its minimum, indexed above) takes
        // 181..=187; 188 splits it and 190 moves to the new half.
        let keys: Vec<u32> = (181..=188).collect();
        let (list, split, new) = (1..=64u64)
            .find_map(|n| {
                let (list, intent, held) = crash_inserts(CrashPoint::LockRelease, n, &keys);
                let Intent::Split { split, new, published: true, level: 0, .. } = intent else {
                    return None;
                };
                (held.len() == 3 && held.contains(&split) && held.contains(&new)).then_some((list, split, new))
            })
            .expect("some LockRelease occurrence is a split's next-chunk release");
        let mut h = list.handle();
        let moved: Vec<u32> = {
            let v = h.read_chunk(new);
            v.live_entries(&list.team).map(|(_, e)| e.key()).collect()
        };
        let indexed: Vec<u32> = moved
            .iter()
            .copied()
            .filter(|&k| down_pointer(&list, 1, k).is_some())
            .collect();
        assert!(!indexed.is_empty(), "the new half holds an indexed key: {moved:?}");
        for &k in &indexed {
            assert_eq!(down_pointer(&list, 1, k), Some(split), "key {k} before repair");
        }
        let before = list.repair_stats();
        let after = h.repair_quarantine();
        assert_eq!(after.downptr_repairs - before.downptr_repairs, 1, "one fix, for the split");
        assert_eq!(after.quarantine_depth, 0);
        list.assert_valid();
        for &k in &indexed {
            assert_eq!(down_pointer(&list, 1, k), Some(new), "key {k} after repair");
        }
    }

    /// A split whose insert lands in the old half releases the new half
    /// before it installs the moved keys' down-pointers. A crash in that
    /// install quarantines the split chunk under the published intent, but
    /// not the new half, which other ops may already be changing: repair
    /// rolls the split forward without reading it and queues no fix. The
    /// stale down-pointer stays, legal, and the structure validates.
    #[test]
    fn a_split_whose_new_half_was_released_queues_no_fix() {
        // The chunk of 190..=250 takes six keys below 187 and 189; 188 then
        // splits it at 189, lands in the old half, and 190 moves on.
        let keys = [181, 182, 183, 184, 185, 186, 189, 188];
        let (list, intent, held) = crash_inserts(CrashPoint::DownPtrInstall, 1, &keys);
        let Intent::Split { split, new, published: true, level: 0, .. } = intent else {
            panic!("the crash hit the split's own down-pointer install: {intent:?}");
        };
        assert!(held.contains(&split) && !held.contains(&new), "{held:?}");
        assert_eq!(down_pointer(&list, 1, 190), Some(split));
        let before = list.repair_stats();
        let after = list.handle().repair_quarantine();
        assert_eq!(after.downptr_repairs, before.downptr_repairs, "no fix queued");
        assert_eq!(after.quarantine_depth, 0);
        assert!(!list.is_poisoned());
        list.assert_valid();
        assert_eq!(down_pointer(&list, 1, 190), Some(split), "stale, and legal");
        assert_eq!(list.handle().get(190), Some(19));
    }

    /// A probe that panics at the `nth` lane write into chunk `target`: a
    /// bug tearing that chunk between two stores of a shift or a copy,
    /// which no crash point models.
    struct TearAt {
        target: std::ops::Range<WordAddr>,
        nth: usize,
    }

    impl MemProbe for TearAt {
        fn warp_read(&mut self, _: &[WordAddr]) {}
        fn warp_write(&mut self, _: &[WordAddr]) {}
        fn lane_read(&mut self, _: WordAddr) {}
        fn atomic(&mut self, _: WordAddr) {}
        fn lane_write(&mut self, addr: WordAddr) {
            if self.target.contains(&addr) {
                self.nth -= 1;
                assert!(self.nth > 0, "a bug tears the chunk mid-store");
            }
        }
    }

    /// Run `op` on a handle that tears chunk `c` at its `nth` lane write,
    /// repair, and check the escalation: the structure is poisoned, the
    /// report names `c`, and `c` stays locked.
    fn torn_op_poisons(
        list: &Gfsl,
        c: u32,
        nth: usize,
        op: impl FnOnce(&mut GfslHandle<'_, TearAt>) -> Result<bool, Error>,
    ) {
        let base = list.chunk(c).entry_addr(0);
        let mut h = list.handle_with(TearAt {
            target: base..base + list.team.lanes() as WordAddr,
            nth,
        });
        match op(&mut h) {
            Err(Error::Aborted(a)) => assert_eq!(a.reason, AbortReason::Crashed),
            other => panic!("the torn op must crash, got {other:?}"),
        }
        drop(h);
        assert!(!list.is_poisoned(), "the crash itself is contained");
        list.handle().repair_quarantine();
        assert!(list.is_poisoned(), "a torn chunk poisons the structure");
        let report = list.poison_report().unwrap();
        assert!(report.contains(&format!("[{c}]")), "{report}");
        let lock = list.pool.read(list.chunk(c).entry_addr(list.team.lock_lane()));
        assert_eq!(lock_state(lock), LOCK_LOCKED, "the torn chunk stays locked");
    }

    /// Keys `10, 20, …, 10 * n` by plain inserts.
    fn tens16(n: u32) -> Gfsl {
        let list = Gfsl::new(params16()).unwrap();
        let mut h = list.handle();
        for k in 1..=n {
            h.insert(k * 10, k).unwrap();
        }
        drop(h);
        list
    }

    /// An insert shift torn after its first store (the chunk's last key
    /// copied one slot right, so it is there twice).
    #[test]
    fn a_torn_insert_shift_poisons() {
        let list = tens16(7);
        let c = list.head_of(0);
        torn_op_poisons(&list, c, 2, |h| h.try_insert(15, 1));
    }

    /// A merge copy torn after its first store into the absorber (one entry
    /// written past the absorber's live run, leaving a hole before it).
    #[test]
    fn a_torn_merge_copy_poisons() {
        let list = tens16(30);
        let team = list.team;
        let mut h = list.handle();
        let dying = h.read_chunk(list.head_of(0)).next(&team);
        let view = |h: &mut GfslHandle<'_, _>| h.read_chunk(dying);
        // Thin the second chunk until its next remove merges.
        while view(&mut h).num_keys(&team) > list.params.merge_threshold() {
            let v = view(&mut h);
            let k = v.entry(v.keys_live(&team).lowest().unwrap()).key();
            assert!(h.remove(k).is_some());
        }
        let v = view(&mut h);
        let k = v.entry(v.keys_live(&team).lowest().unwrap()).key();
        let absorber = v.next(&team);
        drop(h);
        torn_op_poisons(&list, absorber, 2, |h| h.try_remove(k));
    }

    /// The case no pre-op image could cover: a split's new half, published,
    /// torn by the insert that follows into it. The half was allocated by
    /// the op and has no state from before it.
    #[test]
    fn a_torn_published_new_half_poisons() {
        // 13 keys fill the head chunk (with its -∞); inserting 125 splits it
        // and lands in the new half, shifting 130 right first.
        let new_half = |list: &Gfsl| {
            let mut h = list.handle();
            h.read_chunk(list.head_of(0)).next(&list.team)
        };
        let dry = tens16(13);
        assert_eq!(dry.handle().try_insert(125, 1), Ok(true));
        let c = new_half(&dry);
        assert_ne!(c, NIL, "the insert split the head chunk");
        let list = tens16(13);
        assert_eq!(new_half(&list), NIL);
        // The new half takes its next field and the seven moved entries
        // before the publish; its tenth write is the shift's second.
        torn_op_poisons(&list, c, 10, |h| h.try_insert(125, 1));
    }
}
