//! `Delete` (paper §4.2.3): top-down removal under the bottom-level lock,
//! merging underfull chunks into their right neighbour and marking them as
//! zombies.

use gfsl_gpu_mem::MemProbe;
use gfsl_simt::LaneId;
use std::sync::atomic::Ordering;

use crate::chunk::{is_user_key, ops, ChunkView, Entry, Held, Release, KEY_NEG_INF, NIL};
use crate::search::UpdatePath;
use crate::skiplist::{Commit, GfslHandle, Intent};
use crate::split::MovedKeys;

impl<'a, P: MemProbe> GfslHandle<'a, P> {
    /// The remove body [`Self::try_remove`] runs contained: returns the
    /// value removed, `None` if `k` was absent.
    ///
    /// The bottom-level enclosing chunk stays locked until `k` has been
    /// removed from every level, which serializes updates to the same key.
    /// Under that lock a lock-free probe climbs from level 1 to the first
    /// level without `k`; the levels found are then processed top-down with
    /// per-level lock/remove/unlock, keeping contention off the sparse upper
    /// levels.
    ///
    /// Deviation from the paper (documented): if a merge needs to pre-split
    /// the absorbing chunk and the pool is exhausted, we fall back to a
    /// plain (merge-free) removal instead of failing — the chunk is merely
    /// left underfull, which every traversal tolerates.
    pub(crate) fn remove(&mut self, k: u32) -> Option<u32> {
        self.stats.remove_ops += 1;
        if !is_user_key(k) {
            return None;
        }
        // Stamped with the mvcc version clock (a passthrough without the
        // knob). Reclamation maintenance runs inside the stamp but before
        // any lock is taken: the verification scan does certified reads and
        // must never wait on a chunk this handle itself holds locked.
        self.with_version_stamp(|h| {
            h.maybe_reclaim();
            h.with_pin(|h| h.remove_pinned(k))
        })
    }

    fn remove_pinned(&mut self, k: u32) -> Option<u32> {
        let team = self.list.team;
        // k's bottom chunk as locked, kept to the final removal: nobody else
        // writes a chunk this handle holds, and everything this op writes
        // before then is at level 1 or above.
        let mut bottom = ChunkView::BLANK;
        let (found, path) = self.search_slow(k, &mut bottom);
        if found.found.is_none() {
            self.note_hint_after_update(found.enclosing);
            return None;
        }
        // An upgraded lock takes `k`'s lane from the walk's vote on the
        // same view; only a re-read view is voted on again.
        let (p_bottom, placed) = self.lock_certified(&found, k, &mut bottom);
        let Ok(lane) = placed else {
            // Lost the race to another deleter. Decided under the bottom
            // lock, so the outcome survives a crash in the unlock below.
            self.journal.committed = Some(Commit::Removed(None));
            self.unlock(p_bottom);
            return None;
        };
        // The value this removal takes, certified under the bottom lock.
        let old = bottom.entry(lane).val();

        let mut enclosing = [NIL; gfsl_simt::WARP_SIZE];
        let top = self.levels_holding(k, &path, &mut enclosing);
        let mut view = ChunkView::BLANK;
        for level in (1..=top).rev() {
            // Level 1 upgrades the descent's view when it is still in hand.
            let p_enc = self.lock_enclosing(enclosing[level], k, &mut view);
            let Ok(lane) = view.place(&team, k) else {
                // Cannot happen while we hold k's bottom lock (no other team
                // may update k), but a defensive unlock is free.
                self.unlock(p_enc);
                continue;
            };
            self.remove_from_chunk(k, p_enc, &view, lane, level, None);
        }

        // Finally remove from the bottom level; only then is k logically
        // gone from the structure.
        let bottom_chunk = p_bottom.chunk();
        debug_assert!(
            self.view_is_current(bottom_chunk, &bottom),
            "chunk {bottom_chunk} changed under our lock"
        );
        self.remove_from_chunk(k, p_bottom, &bottom, lane, 0, Some(Commit::Removed(Some(old))));
        self.note_hint_after_update(bottom_chunk);
        Some(old)
    }

    /// The highest level holding `k`, whose bottom lock the caller holds,
    /// with `k`'s enclosing chunk at each level from 1 up to it left in
    /// `enclosing`. Under that lock `k`'s levels are frozen, and they run
    /// contiguously up from level 0 (upper ⊆ lower): the probe climbs from
    /// level 1 and stops at the first level without `k`. Path levels above
    /// the traversal height read as the level heads, so levels added since
    /// are seen; a level with no head holds nothing, and the probe stops
    /// there.
    ///
    /// Level 1 is answered from the descent's certified view of the chunk
    /// it stepped down through ([`Self::descended_view`]), which encloses
    /// `k` at level 1, when one read of that chunk's lock word repeats the
    /// word that certified it: no writer held the chunk since, so the view
    /// is its content now, after the bottom lock froze `k`'s levels. A key
    /// that was never raised then costs no chunk read; otherwise level 1
    /// is searched like the levels above it.
    pub(crate) fn levels_holding(
        &mut self,
        k: u32,
        path: &UpdatePath,
        enclosing: &mut [u32; gfsl_simt::WARP_SIZE],
    ) -> usize {
        let mut top = 0;
        let descended = self.descended_view().filter(|&(cert, _)| cert.chunk() == path.at(self.list, 1));
        if let Some((cert, seen)) = descended {
            let holds = seen.contains_key(&self.list.team, k);
            if crate::bug_knobs::stale_level_probe() || self.recertify(cert) {
                if !holds {
                    return 0;
                }
                top = 1;
                enclosing[1] = cert.chunk();
            }
        }
        while top + 1 < self.list.params.max_levels() {
            let start = path.at(self.list, top + 1);
            if start == NIL {
                break;
            }
            let at = self.search_lateral(k, start);
            self.note_finger_level(top + 1, k, at.enclosing);
            if at.found.is_none() {
                break;
            }
            top += 1;
            enclosing[top] = at.enclosing;
        }
        top
    }

    /// Does `view` still hold chunk `ch`'s data and next lanes? Read with
    /// plain pool loads, so a debug check costs no counted chunk read.
    fn view_is_current(&self, ch: u32, view: &ChunkView) -> bool {
        let base = self.list.chunk(ch);
        (0..self.list.team.lock_lane())
            .all(|lane| self.list.pool.read(base.entry_addr(lane)) == view.entry(lane).0)
    }

    /// Remove `k`, in DATA lane `lane` of `view`, from a held chunk at
    /// `level`, merging if that crosses the minimum-fill threshold
    /// (`removeFromChunk`, Algorithm 4.12). The chunk is unlocked (or
    /// zombified) on return. `commit` is journaled at the removal's
    /// linearization point: the bottom level's outcome, `None` above it.
    ///
    /// The threshold test reads one lane of the held, left-packed view
    /// ([`ChunkView::holds_at_most`]); the lane was found by the one vote
    /// that placed `k`.
    pub(crate) fn remove_from_chunk(&mut self, k: u32, mut p_enc: Held, view: &ChunkView, lane: LaneId, level: usize, commit: Option<Commit>) {
        let mut last = false;
        if view.holds_at_most(&self.list.team, self.list.params.merge_threshold()) {
            let mut nview = ChunkView::BLANK;
            match self.lock_next_chunk(&p_enc, level, &mut nview) {
                // Last chunk in the level: never merged, never zombified;
                // just remove, even if that empties it completely.
                None => last = true,
                Some(p_next) => match self.merge_into_next(k, p_enc, view, (p_next, &mut nview), level, commit) {
                    Ok(()) => return,
                    Err(kept) => p_enc = kept,
                },
            }
        }
        // Plain removal: plenty left, the level's last chunk, or a merge
        // that could not pre-split its absorber.
        self.execute_remove_no_merge(&p_enc, view, lane);
        if commit.is_some() {
            self.journal.committed = commit;
        }
        if last && level > 0 {
            self.note_possible_level_empty(&p_enc, view, level);
        }
        self.unlock(p_enc);
    }

    /// Remove `k` from the held, underfull `p_enc` by merging its other
    /// entries into its held successor `p_next`, whose content
    /// [`Self::lock_next_chunk`] left in `nview`, zombifying `p_enc` and
    /// releasing `p_next`. Hands `p_enc` back, still held, with `p_next`
    /// released when the absorber needed a pre-split and the pool is
    /// exhausted: the caller degrades to a merge-free remove. `commit` is
    /// as for [`Self::remove_from_chunk`].
    fn merge_into_next(&mut self, k: u32, p_enc: Held, view: &ChunkView, (p_next, nview): (Held, &mut ChunkView), level: usize, commit: Option<Commit>) -> Result<(), Held> {
        let team = self.list.team;
        let (dying, absorber) = (p_enc.chunk(), p_next.chunk());
        if nview.num_keys(&team) + view.num_keys(&team) - 1 > team.dsize() as u32 {
            // The absorber is too full: split it first (splitRemove).
            // On success `nview` is the absorber's image after the split.
            if self.split_remove(&p_next, nview, level).is_err() {
                self.unlock(p_next);
                return Err(p_enc);
            }
            self.list.inc_level_chunks(level);
        }
        // Journal the merge before the copy so a crash between the
        // copy and the zombie mark rolls the merge *forward* (the
        // absorber's image already carries the survivors).
        self.held.intent = Intent::Merge {
            dying,
            absorber,
            k,
            level,
            copied: false,
        };
        let moved = self.execute_remove_merge(view, &p_next, nview, k);
        if let Intent::Merge { copied, .. } = &mut self.held.intent {
            *copied = true;
        }
        // Zombification is a terminal release of p_enc's lock; for k
        // it is also the linearization point of the removal (until
        // the mark, readers could still find k in the dying chunk).
        self.release(p_enc, Release::Zombify);
        if commit.is_some() {
            self.journal.committed = commit;
        }
        self.stats.merges += 1;
        self.list.dec_level_chunks(level);
        self.list.note_zombie(level);
        self.unlock(p_next);
        self.update_down_ptrs(level, moved.as_slice(), absorber);
        self.held.intent = Intent::None;
        Ok(())
    }

    /// Physically remove the key in DATA lane `idx` by shifting larger keys
    /// one entry left (`executeRemoveNoMerge`, Fig. 4.6). Writes proceed
    /// left-to-right so no key transiently disappears; if it was the
    /// chunk's max, the max field is lowered *first* so lock-free readers
    /// never chase a max that is no longer present.
    pub(crate) fn execute_remove_no_merge(&mut self, p_enc: &Held, view: &ChunkView, idx: LaneId) {
        let team = self.list.team;
        let ch = self.list.chunk_words(p_enc.chunk());

        if view.max(&team) == view.entry(idx).key() {
            let new_max = if idx == 0 {
                KEY_NEG_INF
            } else {
                view.entry(idx - 1).key()
            };
            let enc = self.list.chunk(p_enc.chunk());
            ops::write_next_field(&team, &self.list.pool, &mut self.probe, enc, new_max, view.next(&team));
        }

        if crate::bug_knobs::revert_remove_shift() {
            return self.execute_remove_shift_reverted(p_enc, view, idx);
        }
        let mut cleared = false;
        for i in idx + 1..team.dsize() {
            let e = view.entry(i);
            ops::write_entry(&mut self.probe, ch, i - 1, e);
            if e.is_empty() {
                cleared = true;
                break;
            }
        }
        if !cleared {
            // k sat in (or the shift reached) the final data slot: the NEXT
            // lane empties it explicitly (no lane to its right to do so).
            ops::write_entry(&mut self.probe, ch, team.dsize() - 1, Entry::EMPTY);
        }
    }

    /// The pre-PR-1 buggy shift, kept behind
    /// [`crate::bug_knobs::revert_remove_shift`] as the model checker's
    /// differential oracle: identical final state, but the writes run
    /// right-to-left, so every surviving key in the shifted range vanishes
    /// from the chunk between the write that clobbers its slot and the
    /// write that restores it one slot left — a concurrent lock-free `get`
    /// interleaved into that window misses a present key.
    fn execute_remove_shift_reverted(&mut self, p_enc: &Held, view: &ChunkView, idx: usize) {
        let team = self.list.team;
        let ch = self.list.chunk_words(p_enc.chunk());
        let mut end = team.dsize();
        for i in idx + 1..team.dsize() {
            if view.entry(i).is_empty() {
                end = i + 1;
                break;
            }
        }
        for i in (idx + 1..end).rev() {
            ops::write_entry(&mut self.probe, ch, i - 1, view.entry(i));
        }
        if end == team.dsize() {
            ops::write_entry(&mut self.probe, ch, team.dsize() - 1, Entry::EMPTY);
        }
    }

    /// Move every live entry except `k` from `p_enc` into `p_next`
    /// (`executeRemoveMerge`, Fig. 4.5c). Both chunks are held. Target
    /// entries are written in descending index order so concurrent readers
    /// (which give precedence to higher lanes) never lose a key. Returns the
    /// moved keys for the down-pointer repair pass.
    pub(crate) fn execute_remove_merge(
        &mut self,
        eview: &ChunkView,
        p_next: &Held,
        nview: &ChunkView,
        k: u32,
    ) -> MovedKeys {
        let team = self.list.team;
        let mut merged = [Entry::EMPTY; gfsl_simt::WARP_SIZE];
        let mut moved = MovedKeys::new();
        let mut m = 0usize;
        for (_, e) in eview.live_entries(&team) {
            if e.key() != k {
                merged[m] = e;
                moved.push(e.key());
                m += 1;
            }
        }
        let s_count = m;
        for (_, e) in nview.live_entries(&team) {
            merged[m] = e;
            m += 1;
        }
        debug_assert!(m <= team.dsize(), "absorber overfull despite pre-split");
        if s_count == 0 {
            // The dying chunk held only k: nothing moves.
            return moved;
        }
        let ch = self.list.chunk_words(p_next.chunk());
        for j in (0..m).rev() {
            ops::write_entry(&mut self.probe, ch, j, merged[j]);
        }
        moved
    }

    /// After emptying the last chunk of an upper level, mark the level
    /// unused when it holds nothing but `-∞` (paper: "the chunk counter for
    /// that level is decremented to show that the level is empty"), counted
    /// from `view`, the held chunk before it lost one user key.
    fn note_possible_level_empty(&mut self, p_enc: &Held, view: &ChunkView, level: usize) {
        let team = self.list.team;
        if self.list.head_of(level) != p_enc.chunk() {
            return; // not the only chunk in the level
        }
        let live = view.num_keys(&team) - 1;
        let only_sentinel = live == 0 || (live == 1 && view.entry(0).key() == KEY_NEG_INF);
        if only_sentinel {
            // We hold the level's only chunk locked, so no split can race.
            self.list.level_chunks[level].store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::chunk::{ChunkView, NIL};
    use crate::params::GfslParams;
    use crate::skiplist::Gfsl;
    use gfsl_simt::TeamSize;

    fn list16() -> Gfsl {
        Gfsl::new(GfslParams {
            team_size: TeamSize::Sixteen,
            ..Default::default()
        })
        .unwrap()
    }

    #[test]
    fn insert_remove_roundtrip() {
        let list = list16();
        let mut h = list.handle();
        assert!(h.insert(5, 50).unwrap());
        assert!(h.remove(5).is_some());
        assert!(!h.contains(5));
        assert!(h.remove(5).is_none(), "double remove fails");
        assert!(h.insert(5, 51).unwrap(), "reinsert after remove");
        assert_eq!(h.get(5), Some(51));
    }

    #[test]
    fn remove_missing_and_reserved_keys() {
        let list = list16();
        let mut h = list.handle();
        assert!(h.remove(77).is_none());
        assert!(h.remove(0).is_none());
        assert!(h.remove(u32::MAX).is_none());
    }

    #[test]
    fn remove_max_key_of_chunk_updates_max() {
        let list = list16();
        let mut h = list.handle();
        // Force a split so the first chunk has a finite max.
        for k in 1..=14u32 {
            h.insert(k, k).unwrap();
        }
        let team = &list.team;
        let head = list.head_of(0);
        let v = h.read_chunk(head);
        let max = v.max(team);
        assert!(max < u32::MAX);
        assert!(h.remove(max).is_some());
        let v = h.read_chunk(head);
        assert!(v.max(team) < max, "max lowered after removing the max key");
        assert!(!h.contains(max));
        // All other keys survive.
        for k in 1..=14u32 {
            assert_eq!(h.contains(k), k != max, "k={k}");
        }
    }

    #[test]
    fn deletions_trigger_merges_and_keys_stay_consistent() {
        let list = list16();
        let mut h = list.handle();
        for k in 1..=200u32 {
            h.insert(k, k).unwrap();
        }
        // Delete a dense band to force underfull chunks.
        for k in 50..=150u32 {
            assert!(h.remove(k).is_some(), "k={k}");
        }
        assert!(h.stats().merges > 0, "deleting half the keys must merge");
        for k in 1..=200u32 {
            let expect = !(50..=150).contains(&k);
            assert_eq!(h.contains(k), expect, "k={k}");
        }
    }

    #[test]
    fn drain_everything_then_refill() {
        let list = list16();
        let mut h = list.handle();
        for k in 1..=500u32 {
            h.insert(k, k).unwrap();
        }
        for k in 1..=500u32 {
            assert!(h.remove(k).is_some(), "k={k}");
        }
        for k in 1..=500u32 {
            assert!(!h.contains(k), "k={k}");
        }
        // The emptied structure accepts new keys (chunk-entry reuse is the
        // paper's answer to reclamation pressure).
        for k in 1..=100u32 {
            assert!(h.insert(k, k + 1).unwrap(), "k={k}");
        }
        for k in 1..=100u32 {
            assert_eq!(h.get(k), Some(k + 1), "k={k}");
        }
    }

    #[test]
    fn interleaved_insert_delete_random_order() {
        let list = list16();
        let mut h = list.handle();
        let mut reference = std::collections::BTreeSet::new();
        let mut x: u64 = 88172645463325252;
        let mut rng = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..20_000 {
            let k = (rng() % 500 + 1) as u32;
            match rng() % 3 {
                0 => {
                    assert_eq!(h.insert(k, k).unwrap(), reference.insert(k), "insert {k}");
                }
                1 => {
                    assert_eq!(h.remove(k).is_some(), reference.remove(&k), "remove {k}");
                }
                _ => {
                    assert_eq!(h.contains(k), reference.contains(&k), "contains {k}");
                }
            }
        }
        for k in 1..=500u32 {
            assert_eq!(h.contains(k), reference.contains(&k), "final k={k}");
        }
    }

    #[test]
    fn upper_level_entries_removed_with_key() {
        let list = list16();
        let mut h = list.handle();
        for k in 1..=1000u32 {
            h.insert(k, k).unwrap();
        }
        assert!(list.height() >= 1);
        // Remove every key; upper levels must drain too (structure returns
        // to height 0 via the level-empty bookkeeping).
        for k in 1..=1000u32 {
            assert!(h.remove(k).is_some(), "k={k}");
        }
        for k in 1..=1000u32 {
            assert!(!h.contains(k));
        }
        assert_eq!(list.height(), 0, "levels marked empty after draining");
    }

    /// A list of height >= 3 (ascending inserts into 14-slot chunks, every
    /// split raising a key).
    fn tall_list16() -> Gfsl {
        let list = list16();
        let mut h = list.handle();
        for k in 1..=3_000u32 {
            h.insert(k, k).unwrap();
        }
        drop(h);
        assert!(list.height() >= 3, "height {}", list.height());
        list
    }

    /// The first key of `keys` that `not_in` lacks.
    fn first_without(keys: &[u32], not_in: &[u32]) -> u32 {
        *keys.iter().find(|k| !not_in.contains(k)).unwrap()
    }

    /// Lock `k`'s bottom chunk the way `remove` does, then run the upward
    /// probe alone: the level it stops at and the chunk reads it cost.
    fn probe(list: &Gfsl, k: u32) -> (usize, u64) {
        let mut h = list.handle();
        let mut view = ChunkView::BLANK;
        let (found, path) = h.search_slow(k, &mut view);
        assert!(found.found.is_some());
        let (p_bottom, _) = h.lock_certified(&found, k, &mut view);
        let before = h.stats().chunk_reads;
        let top = h.levels_holding(k, &path, &mut [NIL; gfsl_simt::WARP_SIZE]);
        let reads = h.stats().chunk_reads - before;
        h.unlock(p_bottom);
        (top, reads)
    }

    #[test]
    fn the_upward_probe_answers_level_1_from_the_descent_and_searches_the_levels_above() {
        let list = tall_list16();
        let at = |level: usize| list.level_keys(level);
        let (l1, l2, l3) = (at(1), at(2), at(3));
        let bottom_only = first_without(&at(0), &l1);
        let raised_to_2 = first_without(&l2, &l3);
        // No read: the descent's certified level-1 view lacks the key and
        // its chunk's word has not moved. The top-down walk the probe
        // replaced searched every level from the height down.
        assert_eq!(probe(&list, bottom_only), (0, 0));
        // Level 1 from the view, then one search each at levels 2, which
        // holds it, and 3, which does not.
        assert_eq!(probe(&list, raised_to_2), (2, 2));
        // The removes themselves take every level the probe found.
        let mut h = list.handle();
        assert!(h.remove(bottom_only).is_some() && h.remove(raised_to_2).is_some());
        assert!(!list.level_keys(2).contains(&raised_to_2));
        assert!(!list.level_keys(1).contains(&raised_to_2));
        list.assert_valid();
    }

    /// The reads and locks one `remove(k)` takes on a fresh handle, which
    /// has no finger to start from, with the reads of its search alone (the
    /// descent and the bottom walk) taken on another fresh handle; and
    /// whether it merged. `skip_repair` switches its down-pointer repair
    /// off.
    fn remove_cost(list: &Gfsl, k: u32, skip_repair: bool) -> (u64, u64, u64, bool) {
        let mut h = list.handle();
        h.search_slow(k, &mut ChunkView::BLANK.clone());
        let search = h.stats().chunk_reads;
        let mut h = list.handle();
        h.skip_downptr_repair = skip_repair;
        assert!(h.remove(k).is_some());
        let s = h.stats();
        (s.chunk_reads, search, s.locks_taken, s.merges > 0)
    }

    /// Under its bottom lock a remove of a key that was never raised reads
    /// nothing: the level probe is answered from the descent's view.
    #[test]
    fn a_remove_of_an_unraised_key_reads_no_chunk_under_its_bottom_lock() {
        let list = tall_list16();
        let k = first_without(&list.level_keys(0), &list.level_keys(1));
        // One read per level on the way down from the height (3), then the
        // bottom walk's one: the search's reads and nothing after them.
        assert_eq!(list.height(), 3);
        assert_eq!(remove_cost(&list, k, false), (4, 4, 1, false));
        list.assert_valid();
    }

    /// A key raised to level 1 only: its level-1 lock upgrades the
    /// descent's view, so the remove reads one chunk past its search, the
    /// probe's search of level 2.
    #[test]
    fn a_remove_of_a_key_raised_to_level_1_locks_it_by_upgrade() {
        let list = tall_list16();
        let k = first_without(&list.level_keys(1), &list.level_keys(2));
        assert_eq!(remove_cost(&list, k, false), (5, 4, 2, false));
        assert!(!list.level_keys(1).contains(&k));
        list.assert_valid();
    }

    /// The absorber of a merge is read once, by the read its lock
    /// upgrades: the remove reads its search's chunks and that one (the
    /// down-pointer repair is switched off to isolate it).
    #[test]
    fn a_merge_reads_its_absorber_once() {
        let list = list16();
        let mut h = list.handle();
        for k in 1..=20u32 {
            h.insert(k, k).unwrap();
        }
        drop(h);
        for k in 1..=13u32 {
            let (reads, search, locks, merged) = remove_cost(&list, k, true);
            if merged {
                assert_eq!((reads, locks), (search + 1, 2));
                list.assert_valid();
                return;
            }
            assert_eq!((reads, locks), (search, 1), "k={k}");
        }
        panic!("draining the head chunk never merged it");
    }

    #[test]
    fn the_kept_bottom_view_is_checked_against_the_pool_without_a_counted_read() {
        let list = list16();
        let mut h = list.handle();
        for k in [10, 20, 30] {
            h.insert(k, k).unwrap();
        }
        let team = list.team;
        let head = list.head_of(0);
        let mut view = h.read_chunk(head);
        let reads = h.stats().chunk_reads;
        assert!(h.view_is_current(head, &view));
        // Another handle's insert moves the chunk on: the check sees it.
        list.handle().insert(15, 15).unwrap();
        assert!(!h.view_is_current(head, &view));
        assert_eq!(h.stats().chunk_reads, reads, "plain pool loads, not counted reads");
        h.read_chunk_into(head, None, &mut view);
        assert!(view.contains_key(&team, 15) && h.view_is_current(head, &view));
    }

    /// Drains a tall list — upper-level removals and merges run between
    /// each bottom lock and its final removal — so in a debug build every
    /// remove asserts its kept bottom view is still the pool's chunk.
    #[test]
    fn every_remove_finds_its_kept_bottom_view_current() {
        let list = tall_list16();
        let mut h = list.handle();
        for k in (1..=3_000u32).rev().step_by(3).chain(1..=3_000u32) {
            h.remove(k);
        }
        assert!(h.stats().merges > 0);
        assert!(list.keys().is_empty());
        list.assert_valid();
    }
}
