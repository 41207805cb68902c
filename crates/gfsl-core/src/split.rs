//! Chunk splitting (paper §4.2.2, Algorithm 4.9 / Fig. 4.4).
//!
//! A split moves the top `DSIZE/2` entries of an overfull chunk into a newly
//! allocated chunk, publishes the new chunk with a single atomic write of
//! the old chunk's NEXT entry (new max + new next pointer together), and
//! only then empties the moved entries. Lock-free readers racing the split
//! are steered correctly by the lowered max field because ballots give
//! precedence to the NEXT lane over stale DATA lanes.

use gfsl_gpu_mem::probe::CrashPoint;
use gfsl_gpu_mem::MemProbe;

use crate::chunk::{ops, ChunkView, Entry};
use crate::skiplist::{Commit, Error, GfslHandle, Intent};

/// The keys moved out of a split/merged chunk, kept for the down-pointer
/// repair pass. Bounded by `DSIZE`.
pub(crate) struct MovedKeys {
    keys: [u32; gfsl_simt::WARP_SIZE],
    len: usize,
}

impl MovedKeys {
    pub(crate) fn new() -> MovedKeys {
        MovedKeys {
            keys: [0; gfsl_simt::WARP_SIZE],
            len: 0,
        }
    }

    pub(crate) fn push(&mut self, k: u32) {
        self.keys[self.len] = k;
        self.len += 1;
    }

    pub(crate) fn as_slice(&self) -> &[u32] {
        &self.keys[..self.len]
    }
}

impl<'a, P: MemProbe> GfslHandle<'a, P> {
    /// Split the full, locked chunk `p_split` and insert `(k, v)` into
    /// whichever half now encloses it (`splitInsert`).
    ///
    /// On success returns `(p_insert, raised_key)` where `p_insert` is the
    /// still-locked chunk containing `k` (the other half has been unlocked)
    /// and `raised_key` is the key to raise if the level coin says so.
    /// On error every lock taken here is released, including `p_split`.
    pub(crate) fn split_insert(
        &mut self,
        p_split: u32,
        view: &ChunkView,
        k: u32,
        v: u32,
        level: usize,
    ) -> Result<(u32, u32), Error> {
        let team = self.list.team;
        let half = team.dsize() / 2;

        // preSplit: lock the next chunk (unlinking zombies on the way), then
        // allocate the new chunk — it comes out of the allocator locked.
        let p_next = self.lock_next_chunk(p_split, level);
        let p_new = match self.alloc_chunk() {
            Ok(c) => c,
            Err(e) => {
                if let Some(n) = p_next {
                    self.unlock(n);
                }
                self.unlock(p_split);
                return Err(e);
            }
        };

        // splitCopy: copy the top half into the (still unreachable) new
        // chunk, publish with one word, then empty the moved entries.
        let thresh = view.entry(half - 1).key();
        // Journal the structural intent before any store touches p_new: a
        // crash before the publish rolls the unreachable p_new back
        // (retired), one after rolls the split forward.
        self.journal.intent = Intent::Split {
            split: p_split,
            new: p_new,
            thresh,
            level,
            published: false,
        };

        // The new chunk inherits the split chunk's current (max, next): it
        // slots in directly after it.
        let nf = ops::read_next_field(
            &team,
            &self.list.pool,
            &mut self.probe,
            self.list.chunk(p_split),
        );
        let (old_max, old_next) = (nf.key(), nf.val());
        ops::write_next_field(
            &team,
            &self.list.pool,
            &mut self.probe,
            self.list.chunk(p_new),
            old_max,
            old_next,
        );

        let new_ch = self.list.chunk_words(p_new);
        let mut moved = MovedKeys::new();
        for i in half..team.dsize() {
            let e = view.entry(i);
            debug_assert!(!e.is_empty(), "splitting a non-full chunk");
            moved.push(e.key());
            ops::write_entry(&mut self.probe, new_ch, i - half, e);
        }
        self.probe.crash_point(CrashPoint::SplitPublish);
        ops::write_next_field(
            &team,
            &self.list.pool,
            &mut self.probe,
            self.list.chunk(p_split),
            thresh,
            p_new,
        );
        if let Intent::Split { published, .. } = &mut self.journal.intent {
            *published = true;
        }
        let split_ch = self.list.chunk_words(p_split);
        for i in (half..team.dsize()).rev() {
            ops::write_entry(&mut self.probe, split_ch, i, Entry::EMPTY);
        }
        if let Some(n) = p_next {
            self.unlock(n);
        }
        self.stats.splits += 1;

        // insertNewData: k goes into whichever half encloses it; the other
        // half is unlocked. At level 0 the half holding k must stay locked
        // until the whole Insert completes.
        let p_insert = if k <= thresh { p_split } else { p_new };
        let iv = self.read_chunk(p_insert);
        self.execute_insert(p_insert, &iv, k, v);
        if level == 0 {
            self.journal.committed = Some(Commit::Inserted(true));
        }
        if p_insert == p_split {
            self.unlock(p_new);
        } else {
            self.unlock(p_split);
        }

        // keyForNextLevel: the raised key must live in the half that STAYS
        // LOCKED (p_insert) for the rest of the Insert. The paper's
        // max(k, min-of-new-chunk) is only safe when k landed in the new
        // chunk: raising a key whose bottom chunk has already been unlocked
        // races a concurrent Remove of that key, which can lock the new
        // chunk, delete the key from level 0, find no index entry to clean
        // up yet, and leave our subsequently-installed level-1 entry
        // dangling forever (violating upper-subset-of-lower). So: when k
        // went into the old half, raise k itself; when k went into the new
        // half, max(k, min-of-new-chunk) also lives there and is safe.
        let min_moved = view.entry(half).key();
        let unsafe_raise = crate::bug_knobs::revert_split_raised_key();
        let raised = if level == 0 && (p_insert == p_new || unsafe_raise) {
            k.max(min_moved)
        } else {
            k
        };

        // Repair the level-above down-pointers of the moved keys. Stale
        // pointers are legal (they point left of the key, which lateral
        // steps recover), so this is a best-effort performance fix.
        self.update_down_ptrs(level, moved.as_slice(), p_new);

        // The split is fully settled (caller's level-chunk accounting still
        // pending, which repair performs when it finds a Split intent).
        self.journal.intent = Intent::None;
        Ok((p_insert, raised))
    }

    /// Split a locked chunk during a merge (`splitRemove`): identical to the
    /// insert-path split except nothing is inserted and both the new chunk
    /// and the next chunk end up unlocked; `p_next_of_merge` stays locked by
    /// the caller.
    pub(crate) fn split_remove(&mut self, p_split: u32, view: &ChunkView, level: usize) -> Result<(), Error> {
        let team = self.list.team;
        let half = team.dsize() / 2;

        let p_nn = self.lock_next_chunk(p_split, level);
        let p_new = match self.alloc_chunk() {
            Ok(c) => c,
            Err(e) => {
                if let Some(n) = p_nn {
                    self.unlock(n);
                }
                // Caller keeps responsibility for p_split.
                return Err(e);
            }
        };

        // Unlike the insert-path split, the chunk may be only partially full
        // (merging just requires it to be too full to absorb its left
        // neighbour): move the live entries at positions >= DSIZE/2.
        let thresh = view.entry(half - 1).key();
        self.journal.intent = Intent::Split {
            split: p_split,
            new: p_new,
            thresh,
            level,
            published: false,
        };

        let nf = ops::read_next_field(
            &team,
            &self.list.pool,
            &mut self.probe,
            self.list.chunk(p_split),
        );
        ops::write_next_field(
            &team,
            &self.list.pool,
            &mut self.probe,
            self.list.chunk(p_new),
            nf.key(),
            nf.val(),
        );

        debug_assert!(thresh != crate::chunk::KEY_INF, "absorber at least half full");
        let new_ch = self.list.chunk_words(p_new);
        let mut moved = MovedKeys::new();
        for i in half..team.dsize() {
            let e = view.entry(i);
            if e.is_empty() {
                break; // live entries are left-packed
            }
            moved.push(e.key());
            ops::write_entry(&mut self.probe, new_ch, i - half, e);
        }
        self.probe.crash_point(CrashPoint::SplitPublish);
        ops::write_next_field(
            &team,
            &self.list.pool,
            &mut self.probe,
            self.list.chunk(p_split),
            thresh,
            p_new,
        );
        if let Intent::Split { published, .. } = &mut self.journal.intent {
            *published = true;
        }
        let split_ch = self.list.chunk_words(p_split);
        for i in (half..half + moved.as_slice().len()).rev() {
            ops::write_entry(&mut self.probe, split_ch, i, Entry::EMPTY);
        }
        if let Some(n) = p_nn {
            self.unlock(n);
        }
        self.unlock(p_new);
        self.stats.splits += 1;

        self.update_down_ptrs(level, moved.as_slice(), p_new);
        self.journal.intent = Intent::None;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::chunk::{KEY_INF, NIL};
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

    /// After one split the level-0 chain must be two sorted chunks with
    /// correct max/next wiring.
    #[test]
    fn split_wires_chain_correctly() {
        let list = list16();
        let mut h = list.handle();
        for k in 1..=14u32 {
            h.insert(k, k).unwrap();
        }
        assert_eq!(h.stats().splits, 1);
        let team = &list.team;
        let first = list.head_of(0);
        let v1 = h.read_chunk(first);
        let second = v1.next(team);
        assert_ne!(second, NIL);
        let v2 = h.read_chunk(second);
        // First chunk: max = threshold key, all keys <= max, no zombies.
        let max1 = v1.max(team);
        assert!(max1 < KEY_INF);
        assert!(v1
            .live_entries(team)
            .all(|(_, e)| e.key() <= max1));
        // Second chunk: last in level.
        assert_eq!(v2.max(team), KEY_INF);
        assert_eq!(v2.next(team), NIL);
        let min2 = v2.live_entries(team).map(|(_, e)| e.key()).min().unwrap();
        assert!(min2 > max1, "chunks laterally ordered");
        // Both sorted.
        for v in [&v1, &v2] {
            let keys: Vec<u32> = v.live_entries(team).map(|(_, e)| e.key()).collect();
            let mut sorted = keys.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(keys, sorted);
        }
    }

    #[test]
    fn raised_key_lands_in_level_one() {
        let list = list16();
        let mut h = list.handle();
        for k in 1..=14u32 {
            h.insert(k, k).unwrap();
        }
        // p_chunk = 1: the split must have raised a key into level 1.
        assert_eq!(list.height(), 1);
        let head1 = list.head_of(1);
        let v = h.read_chunk(head1);
        let raised: Vec<u32> = v
            .live_entries(&list.team)
            .map(|(_, e)| e.key())
            .filter(|&k| k != crate::chunk::KEY_NEG_INF)
            .collect();
        assert_eq!(raised.len(), 1, "exactly one key raised per split");
        // The raised key's down-pointer reaches a chunk that (transitively)
        // contains it.
        let (lane, _) = v
            .live_entries(&list.team)
            .find(|(_, e)| e.key() == raised[0])
            .unwrap();
        let down = v.entry(lane).val();
        let res = h.search_lateral(raised[0], down);
        assert!(res.found.is_some(), "raised key reachable through its down-pointer");
    }

    #[test]
    fn repeated_splits_grow_levels_geometrically() {
        let list = list16();
        let mut h = list.handle();
        for k in 1..=5000u32 {
            h.insert(k, k).unwrap();
        }
        let splits = h.stats().splits;
        assert!(splits >= 5000 / 14, "at least one split per chunk-fill");
        assert!(list.height() >= 2);
        // Level chunk counters roughly track the split counts.
        assert!(list.level_chunk_count(0) as u64 >= 1);
    }

    #[test]
    fn no_raise_when_p_chunk_zero() {
        let list = Gfsl::new(GfslParams {
            team_size: TeamSize::Sixteen,
            p_chunk: 0.0,
            ..Default::default()
        })
        .unwrap();
        let mut h = list.handle();
        for k in 1..=500u32 {
            h.insert(k, k).unwrap();
        }
        assert_eq!(list.height(), 0, "nothing ever raised");
        for k in 1..=500u32 {
            assert!(h.contains(k), "flat structure still correct");
        }
    }
}
