//! Chunk splitting (paper §4.2.2, Algorithm 4.9 / Fig. 4.4).
//!
//! A split moves the live entries from `DSIZE/2` up of a locked chunk into
//! a newly allocated chunk, publishes the new chunk with a single atomic
//! write of the old chunk's NEXT entry (new max + new next pointer
//! together), and only then empties the moved entries. Lock-free readers
//! racing the split are steered correctly by the lowered max field because
//! ballots give precedence to the NEXT lane over stale DATA lanes.
//!
//! There is one split body, `split_copy` (`preSplit` + `splitCopy`):
//! `split_insert` (`splitInsert`) and `split_remove` (`splitRemove`) differ
//! only in what they do after the publish.
//!
//! **Append split** (a deviation from Algorithm 4.9, DESIGN §4). When the
//! full chunk is its level's last (`next == NIL`) and the inserted key is
//! above every key in it, `split_insert` moves nothing: the new chunk is
//! published empty as the level's tail, the old chunk's max drops to its
//! own largest key, and the key goes into the new chunk. A sliding window
//! or a priority queue of increasing timestamps appends at the tail; the
//! half split would leave every lower half behind at half fill, never
//! written again. Why it is safe:
//! - the publish is the same one-word write of the old chunk's NEXT lane,
//!   and the old chunk keeps every key at or below its new max, so keys
//!   still move only rightward and a reader steered by the lowered max
//!   lands on the new chunk;
//! - the new chunk is published locked (the allocator hands it out
//!   locked) and stays locked until the key is in, so a certified
//!   `NotFound` on it waits for the insert, exactly as it waits for the
//!   key of a half split that lands in the new half;
//! - the raised key is the inserted key, which lives in the still-locked
//!   new chunk, so the raise is as safe as the half split's.
//!
//! `split_remove` and an insert anywhere else split at `DSIZE/2`.

use gfsl_gpu_mem::probe::CrashPoint;
use gfsl_gpu_mem::MemProbe;

use crate::chunk::{ops, ChunkView, Entry, Held, KEY_INF, NIL};
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

/// What the split body leaves its caller: the new chunk, still held and
/// published right after the split chunk, its image, the threshold key
/// that is now the split chunk's max, and the keys moved into the new chunk.
struct Split {
    new: Held,
    image: ChunkView,
    thresh: u32,
    moved: MovedKeys,
}

impl<'a, P: MemProbe> GfslHandle<'a, P> {
    /// `preSplit` + `splitCopy` of the held chunk `p_split`, whose
    /// snapshot is `view`: the one split body both `splitInsert` and
    /// `splitRemove` run. The live entries from lane `from` up move to the
    /// new chunk: `DSIZE/2` for Algorithm 4.9's half split, `DSIZE` for an
    /// append split, which moves none.
    ///
    /// Neither held chunk is read back: the data and NEXT lanes written
    /// here are kept as `view`, now `p_split`'s image, and as the new
    /// chunk's (LOCK lanes aside). On error (pool exhausted) the next
    /// chunk is released again and `p_split` stays held, the caller's to
    /// release.
    fn split_copy(&mut self, p_split: &Held, view: &mut ChunkView, level: usize, from: usize) -> Result<Split, Error> {
        let team = self.list.team;

        // preSplit: lock the next chunk (unlinking zombies on the way), then
        // allocate the new chunk — it comes out of the allocator locked.
        let mut next_view = ChunkView::BLANK;
        let p_next = self.lock_next_chunk(p_split, level, &mut next_view);
        let p_new = match self.alloc_chunk() {
            Ok(c) => c,
            Err(e) => {
                if let Some(n) = p_next {
                    self.unlock(n);
                }
                return Err(e);
            }
        };

        // splitCopy: copy the entries from `from` up into the (still
        // unreachable) new chunk, publish with one word, then empty the
        // moved entries.
        let thresh = view.entry(from - 1).key();
        debug_assert!(thresh != KEY_INF, "split chunk at least half full");
        // Journal the structural intent before any store touches p_new: a
        // crash before the publish rolls the unreachable p_new back
        // (retired), one after rolls the split forward.
        let (split, new) = (p_split.chunk(), p_new.chunk());
        self.held.intent = Intent::Split {
            split,
            new,
            thresh,
            level,
            published: false,
        };

        // The new chunk inherits the split chunk's current (max, next): it
        // slots in directly after it.
        let list = self.list;
        let nf = ops::read_next_field(&team, &list.pool, &mut self.probe, list.chunk(split));
        ops::write_next_field(&team, &list.pool, &mut self.probe, list.chunk(new), nf.key(), nf.val());
        let mut image = *view;
        image.set(team.next_lane(), nf);

        // A chunk split by a merge may be only partially full (it need only
        // be too full to absorb its left neighbour): move the live entries
        // at positions >= from.
        let new_ch = list.chunk_words(new);
        let mut moved = MovedKeys::new();
        for i in 0..team.dsize() {
            // Allocated all EMPTY; live entries are left-packed.
            let e = if from + i < team.dsize() { view.entry(from + i) } else { Entry::EMPTY };
            image.set(i, e);
            if !e.is_empty() {
                moved.push(e.key());
                ops::write_entry(&mut self.probe, new_ch, i, e);
            }
        }
        self.probe.crash_point(CrashPoint::SplitPublish);
        let max = if from == team.dsize() && crate::bug_knobs::append_split_keeps_max() {
            nf.key()
        } else {
            thresh
        };
        ops::write_next_field(&team, &list.pool, &mut self.probe, list.chunk(split), max, new);
        view.set(team.next_lane(), Entry::new(max, new));
        if let Intent::Split { published, .. } = &mut self.held.intent {
            *published = true;
        }
        let split_ch = list.chunk_words(split);
        for i in (from..from + moved.as_slice().len()).rev() {
            ops::write_entry(&mut self.probe, split_ch, i, Entry::EMPTY);
            view.set(i, Entry::EMPTY);
        }
        if let Some(n) = p_next {
            self.unlock(n);
        }
        self.stats.splits += 1;
        Ok(Split { new: p_new, image, thresh, moved })
    }

    /// Split the full, held chunk `p_split` and insert `(k, v)` into
    /// whichever half now encloses it (`splitInsert`).
    ///
    /// On success returns `(p_insert, raised_key)` where `p_insert` is the
    /// still-held chunk containing `k` (the other half has been unlocked)
    /// and `raised_key` is the key to raise if the level coin says so.
    /// On error every lock taken here is released, including `p_split`.
    pub(crate) fn split_insert(
        &mut self,
        p_split: Held,
        view: &ChunkView,
        k: u32,
        v: u32,
        level: usize,
    ) -> Result<(Held, u32), Error> {
        let team = self.list.team;
        let dsize = team.dsize();
        // Append split: the level's last chunk, and k above every key in it.
        let appends = view.next(&team) == NIL && view.entry(dsize - 1).key() < k;
        let from = if appends { dsize } else { dsize / 2 };
        let mut split_view = *view;
        let Split { new: p_new, image, thresh, moved } = match self.split_copy(&p_split, &mut split_view, level, from) {
            Ok(split) => split,
            Err(e) => {
                self.unlock(p_split);
                return Err(e);
            }
        };
        debug_assert_eq!(moved.as_slice().len(), dsize - from, "splitting a non-full chunk");

        // insertNewData: k goes into whichever half encloses it; the other
        // half is unlocked. At level 0 the half holding k must stay locked
        // until the whole Insert completes.
        let new = p_new.chunk();
        let (p_insert, other, iv) = if k <= thresh { (p_split, p_new, &split_view) } else { (p_new, p_split, &image) };
        let index = iv.place(&team, k).expect_err("k is in neither half of the chunk it split");
        self.execute_insert(&p_insert, iv, index, k, v);
        if level == 0 {
            self.journal.committed = Some(Commit::Inserted(None));
        }
        self.unlock(other);

        // keyForNextLevel: the raised key must live in the half that STAYS
        // LOCKED (p_insert) for the rest of the Insert. The paper's
        // max(k, min-of-new-chunk) is only safe when k landed in the new
        // chunk: raising a key whose bottom chunk has already been unlocked
        // races a concurrent Remove of that key, which can lock the new
        // chunk, delete the key from level 0, find no index entry to clean
        // up yet, and leave our subsequently-installed level-1 entry
        // dangling forever (violating upper-subset-of-lower). So: when k
        // went into the old half, raise k itself; when k went into the new
        // half, max(k, min-of-new-chunk) also lives there and is safe. An
        // append split moved nothing: k is the new chunk's only key.
        let unsafe_raise = crate::bug_knobs::revert_split_raised_key();
        let raised = match moved.as_slice().first() {
            Some(&min_moved) if level == 0 && (p_insert.chunk() == new || unsafe_raise) => k.max(min_moved),
            _ => k,
        };

        // Repair the level-above down-pointers of the moved keys. Stale
        // pointers are legal (they point left of the key, which lateral
        // steps recover), so this is a best-effort performance fix.
        self.update_down_ptrs(level, moved.as_slice(), new);

        // The split is fully settled (caller's level-chunk accounting still
        // pending, which repair performs when it finds a Split intent).
        self.held.intent = Intent::None;
        Ok((p_insert, raised))
    }

    /// Split a held chunk during a merge (`splitRemove`): the same split
    /// as the insert path's, but nothing is inserted and the new chunk is
    /// unlocked at once; `p_split` stays held by the caller, who keeps
    /// responsibility for it on error too. On success `view` is
    /// `p_split`'s image after the split.
    pub(crate) fn split_remove(&mut self, p_split: &Held, view: &mut ChunkView, level: usize) -> Result<(), Error> {
        let half = self.list.team.dsize() / 2;
        let Split { new: p_new, moved, .. } = self.split_copy(p_split, view, level, half)?;
        let new = p_new.chunk();
        self.unlock(p_new);
        self.update_down_ptrs(level, moved.as_slice(), new);
        self.held.intent = Intent::None;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::chunk::{lock_state, KEY_INF, KEY_NEG_INF, LOCK_UNLOCKED, NIL};
    use crate::params::GfslParams;
    use crate::skiplist::Gfsl;
    use gfsl_simt::TeamSize;
    use std::collections::BTreeSet;

    fn list16() -> Gfsl {
        Gfsl::new(GfslParams {
            team_size: TeamSize::Sixteen,
            ..Default::default()
        })
        .unwrap()
    }

    /// A split keeps the images it wrote: an insert that splits the full
    /// chunk its search ended in reads only that chunk, whether it splits
    /// at the half (55) or appends a new tail (140). No key is raised
    /// (`p_chunk` 0), so nothing above level 0 is read either.
    #[test]
    fn a_split_reads_neither_half_back() {
        for k in [55, 140] {
            let list = Gfsl::new(GfslParams { team_size: TeamSize::Sixteen, p_chunk: 0.0, ..Default::default() }).unwrap();
            let mut h = list.handle();
            for key in (1..=13u32).map(|i| i * 10) {
                h.insert(key, key).unwrap();
            }
            let before = h.stats();
            assert!(h.insert(k, k).unwrap());
            let after = h.stats();
            assert_eq!(after.splits - before.splits, 1, "inserting {k} split the head");
            assert_eq!(after.chunk_reads - before.chunk_reads, 1, "inserting {k} read its search's chunk only");
            list.assert_valid();
            assert!(list.keys().contains(&k));
        }
    }

    /// The live level-0 chunks in chain order, each with its keys, after
    /// checking the wiring: every chunk sorted and within its max, chunks
    /// laterally ordered, the last one's (max, next) = (∞, NIL).
    fn level0_chain(list: &Gfsl) -> Vec<(u32, Vec<u32>)> {
        let team = &list.team;
        let mut h = list.handle();
        let (mut chain, mut cur, mut prev_max) = (Vec::new(), list.head_of(0), None);
        loop {
            let v = h.read_chunk(cur);
            if !v.is_zombie(team) {
                let keys: Vec<u32> = v.live_entries(team).map(|(_, e)| e.key()).collect();
                assert!(keys.windows(2).all(|w| w[0] < w[1]), "chunk {cur} sorted");
                assert!(keys.iter().all(|&k| k <= v.max(team)), "chunk {cur} within its max");
                if let (Some(pm), Some(&min)) = (prev_max, keys.first()) {
                    assert!(min > pm, "chunks laterally ordered");
                }
                prev_max = Some(v.max(team));
                chain.push((cur, keys));
            }
            if v.next(team) == NIL {
                assert_eq!(v.max(team), KEY_INF, "the level's last chunk ends at ∞");
                return chain;
            }
            cur = v.next(team);
        }
    }

    /// One split must leave the level-0 chain sorted, with the moved keys
    /// in a new, unlocked chunk linked right after the split one. Two
    /// inputs, both splitting the level's last chunk at `DSIZE/2`:
    /// - insert side (`splitInsert`): the head chunk holds `1..=14` but 7,
    ///   and 7, below its maximum, overflows it;
    /// - remove side (`splitRemove`): 26 goes in first, so no insert of
    ///   `1..=25` after it appends, and the chunks are {1..6}, {7..13} and
    ///   {14..26}. Chunk {7..10} sits at the merge threshold (4) and its
    ///   right neighbour holds 13 keys, more than DSIZE − 4 + 1 = 11 but
    ///   fewer than DSIZE = 14, so removing 7 merges into a pre-split
    ///   absorber whose copy loop stops at an empty lane.
    #[test]
    fn split_wires_chain_correctly() {
        let all_but_7: Vec<u32> = (1..=14).filter(|&k| k != 7).collect();
        let top_first: Vec<u32> = std::iter::once(26).chain(1..=25).collect();
        for (inserts, removed, op_removes, op_key) in
            [(all_but_7, &[][..], false, 7u32), (top_first, &[11, 12, 13], true, 7)]
        {
            let list = list16();
            let mut h = list.handle();
            let mut present: BTreeSet<u32> = inserts.iter().copied().collect();
            let filled = *present.last().unwrap();
            for &k in &inserts {
                h.insert(k, k).unwrap();
            }
            for k in removed {
                assert!(h.remove(*k).is_some());
                present.remove(k);
            }
            let before = level0_chain(&list);
            let (p_split, split_keys) = before.last().unwrap().clone();
            let thresh = split_keys[list.team.dsize() / 2 - 1];
            let stats = h.stats();
            if op_removes {
                assert!(h.remove(op_key).is_some());
                present.remove(&op_key);
            } else {
                assert!(h.insert(op_key, op_key).unwrap());
                present.insert(op_key);
            }
            assert_eq!(h.stats().splits, stats.splits + 1);
            assert_eq!(h.stats().merges, stats.merges + u64::from(op_removes));

            let after = level0_chain(&list);
            assert_eq!(after.len(), before.len() + 1 - usize::from(op_removes));
            let v = h.read_chunk(p_split);
            assert_eq!(v.max(&list.team), thresh, "the split chunk ends at the threshold");
            let p_new = v.next(&list.team);
            assert!(before.iter().all(|(c, _)| *c != p_new), "the moved keys sit in a new chunk");
            let (_, new_keys) = after.iter().find(|(c, _)| *c == p_new).unwrap();
            assert_eq!(*new_keys, present.range(thresh + 1..).copied().collect::<Vec<_>>());
            let lock = h.read_chunk(p_new).lock_word(&list.team);
            assert_eq!(lock_state(lock), LOCK_UNLOCKED, "the new chunk is released");
            for k in 1..=filled.max(op_key) {
                assert_eq!(h.contains(k), present.contains(&k), "key {k}");
            }
            list.assert_valid();
        }
    }

    /// An append split: the level's last chunk is full and the key is above
    /// all of it. Nothing moves; the old chunk's max drops to its largest
    /// key, the new chunk holds the key alone, released, and the key is the
    /// one raised.
    #[test]
    fn an_append_split_moves_nothing_and_raises_the_key() {
        let list = list16();
        let mut h = list.handle();
        for k in 1..=13u32 {
            h.insert(k, k).unwrap();
        }
        let splits = h.stats().splits;
        assert!(h.insert(14, 14).unwrap());
        assert_eq!(h.stats().splits, splits + 1);
        let chain = level0_chain(&list);
        assert_eq!(chain.len(), 2);
        let head: Vec<u32> = std::iter::once(KEY_NEG_INF).chain(1..=13).collect();
        assert_eq!(chain[0].1, head, "the full chunk keeps every key");
        assert_eq!(h.read_chunk(chain[0].0).max(&list.team), 13, "its max is its own largest key");
        assert_eq!(chain[1].1, vec![14], "the new chunk takes only the key");
        let lock = h.read_chunk(chain[1].0).lock_word(&list.team);
        assert_eq!(lock_state(lock), LOCK_UNLOCKED, "the new chunk is released");
        assert_eq!(list.level_keys(1), vec![14], "the raised key is the appended one");
        assert_eq!(h.stats().downptr_fixes, 0, "no key moved, so no down-pointer to fix");
        list.assert_valid();
    }

    /// An insert below the max of a full last chunk is no append: the chunk
    /// splits at `DSIZE/2`, as Algorithm 4.9 does.
    #[test]
    fn an_insert_below_the_tail_max_splits_at_half() {
        let list = list16();
        let mut h = list.handle();
        for k in (1..=12u32).chain([14]) {
            h.insert(k, k).unwrap();
        }
        assert!(h.insert(13, 13).unwrap());
        let chain = level0_chain(&list);
        assert_eq!(chain.len(), 2);
        let half = list.team.dsize() as u32 / 2;
        // The head keeps `-∞` and the keys below the threshold.
        let head: Vec<u32> = std::iter::once(KEY_NEG_INF).chain(1..half).collect();
        assert_eq!(chain[0].1, head);
        assert_eq!(h.read_chunk(chain[0].0).max(&list.team), half - 1);
        assert_eq!(chain[1].1, (half..=14).collect::<Vec<_>>());
        list.assert_valid();
    }

    /// Ascending inserts fill the bottom level: every tail split is an
    /// append split, so each chunk left behind is full (a half split leaves
    /// each at about half: 15 of 30).
    #[test]
    fn ascending_inserts_leave_full_chunks() {
        let list = Gfsl::new(GfslParams {
            team_size: TeamSize::ThirtyTwo,
            ..Default::default()
        })
        .unwrap();
        let mut h = list.handle();
        for k in 1..=10_000u32 {
            h.insert(k, k).unwrap();
        }
        let fill = list.shape().levels[0].mean_fill();
        assert!(fill >= 28.0, "mean level-0 fill {fill:.1} of {}", list.team.dsize());
        list.assert_valid();
    }

    /// `engine-churn`'s window: 4,096 keys, bulk built, slid 163,840 pairs
    /// (insert above, remove below). Appends fill each tail chunk before
    /// the next one is taken, and merged chunks come back through
    /// reclamation, so the pool stays within a few chunks of the build's:
    /// 194 chunks and the heads of levels 0–2.
    #[test]
    fn a_sliding_window_stays_near_its_bulk_build() {
        const WINDOW: u32 = 4096;
        let list = Gfsl::from_sorted_pairs(GfslParams::default(), (1..=WINDOW).map(|k| (k, k))).unwrap();
        let built = list.chunks_allocated();
        assert_eq!((built, list.heads().count()), (197, 3));
        let mut h = list.handle();
        for j in 0..163_840u32 {
            assert!(h.insert(WINDOW + 1 + j, j).unwrap());
            assert!(h.remove(j + 1).is_some());
        }
        let high = list.chunks_allocated();
        assert_eq!(high, built + 6, "pool high water for a {built}-chunk build");
        list.assert_valid();
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
