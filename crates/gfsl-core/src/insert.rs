//! `Insert` (paper §4.2.2): bottom-up insertion under the bottom-level lock,
//! with per-level lock/insert/unlock above and probabilistic key raising
//! after splits.

use gfsl_gpu_mem::MemProbe;
use gfsl_simt::LaneId;

use crate::chunk::{is_user_key, ops, ChunkView, Entry, Held, NIL};
use crate::search::UpdatePath;
use crate::skiplist::{Commit, Error, GfslHandle};

/// What happened when inserting into one level.
#[derive(Debug)]
pub(crate) enum LevelOutcome {
    /// The key was already present, in DATA lane `lane` of the enclosing
    /// chunk, which is returned locked.
    AlreadyPresent { locked: Held, lane: LaneId },
    /// The key went in; the chunk now containing it is returned locked.
    Inserted {
        locked: Held,
        /// Should a key be raised to the next level (a split happened and
        /// the `p_chunk` coin came up heads)?
        raise: bool,
        /// The key to raise (`max(k, min-of-new-chunk)` at level 0, `k`
        /// above — paper §4.2.2, `keyForNextLevel`).
        raised_key: u32,
    },
}

impl<'a, P: MemProbe> GfslHandle<'a, P> {
    /// The insert body [`Self::try_insert`] runs contained.
    pub(crate) fn insert(&mut self, k: u32, v: u32) -> Result<bool, Error> {
        self.insert_body(k, v, false).map(|old| old.is_none())
    }

    /// The one insert body, for `try_insert` and `try_upsert`: put `(k, v)`
    /// in, or find `k` present and, when `overwrite`, store `v` over its
    /// value under the bottom lock. Returns the value `k` had, `None` when
    /// it went in.
    pub(crate) fn insert_body(&mut self, k: u32, v: u32, overwrite: bool) -> Result<Option<u32>, Error> {
        self.stats.insert_ops += 1;
        if !is_user_key(k) {
            return Err(Error::InvalidKey(k));
        }
        // Stamped with the mvcc version clock (a passthrough without the
        // knob); reclamation maintenance runs inside the stamp but before
        // any lock is taken (the verification scan must never wait on our
        // own locks).
        self.with_version_stamp(|h| {
            h.maybe_reclaim();
            h.with_pin(|h| h.insert_pinned(k, v, overwrite))
        })
    }

    fn insert_pinned(&mut self, k: u32, v: u32, overwrite: bool) -> Result<Option<u32>, Error> {
        let mut view = ChunkView::BLANK;
        let (found, path) = self.search_slow(k, &mut view);
        if let (Some((_, old)), false) = (found.found, overwrite) {
            self.note_hint_after_update(found.enclosing);
            return Ok(Some(old));
        }

        // Bottom level: the chunk that receives k stays locked until every
        // upper-level insertion completes, which is what serializes updates
        // to the same key.
        let (p_enc, placed) = self.lock_certified(&found, k, &mut view);
        let (p_bottom, raise, kk) = match self.insert_locked(0, p_enc, &view, placed, k, v)? {
            LevelOutcome::AlreadyPresent { locked, lane } => {
                // Present under the bottom lock: the op's outcome is decided
                // (an overwrite by the one store below) even if the unlock
                // crashes.
                let old = view.entry(lane).val();
                if overwrite {
                    ops::write_entry(&mut self.probe, self.list.chunk_words(locked.chunk()), lane, Entry::new(k, v));
                }
                self.journal.committed = Some(Commit::Inserted(Some(old)));
                self.unlock(locked);
                return Ok(Some(old));
            }
            LevelOutcome::Inserted {
                locked,
                raise,
                raised_key,
            } => (locked, raise, raised_key),
        };

        // Value inserted at level i+1 is a pointer to the chunk holding the
        // raised key at level i.
        let bottom = p_bottom.chunk();
        if raise {
            self.climb(&path, 1, kk, bottom, false);
        } else {
            self.heal_index(&p_bottom, k, &path);
        }
        self.unlock(p_bottom);
        self.note_hint_after_update(bottom);
        Ok(None)
    }

    /// Install `(key, down)` at `level`, then keep raising one level at a
    /// time while the splits this causes ask for it (the split-raise climb
    /// of §4.2.2). The caller holds the bottom-level lock that protects
    /// `key`; here one upper chunk is locked at a time.
    ///
    /// A level with no head yet gets one here ([`Self::head_or_grow`]): a
    /// climb is the only writer that reaches a level above the height.
    ///
    /// Everything this does is optional index work on behalf of an insert
    /// that already committed at the bottom level, so pool exhaustion ends
    /// the climb without failing the insert (an abort in here ends it too,
    /// and `try_insert` reports the journal's committed outcome).
    fn climb(
        &mut self,
        path: &UpdatePath,
        mut level: usize,
        mut key: u32,
        mut down: u32,
        healing: bool,
    ) {
        while level < self.list.params.max_levels() {
            let start = match path.at(self.list, level) {
                NIL => self.head_or_grow(level),
                c => Ok(c),
            };
            match start.and_then(|start| self.insert_to_level(level, start, key, down)) {
                Ok(LevelOutcome::AlreadyPresent { locked, .. }) => {
                    down = locked.chunk();
                    self.note_finger_level(level, key, down);
                    self.unlock(locked);
                    if healing {
                        return; // the entry the heal wanted exists
                    }
                    // The raised key already has an index entry here (it was
                    // raised earlier and never removed). Keep climbing: it
                    // may be missing higher up.
                }
                Ok(LevelOutcome::Inserted {
                    locked,
                    raise,
                    raised_key,
                }) => {
                    down = locked.chunk();
                    self.note_finger_level(level, key, down);
                    self.unlock(locked);
                    if !raise {
                        return;
                    }
                    key = raised_key;
                }
                Err(_) => {
                    self.stats.raise_aborts += 1;
                    return;
                }
            }
            level += 1;
        }
    }

    /// Repair the index this insert's traversal walked over (DESIGN.md
    /// §20). `k` just went into the held bottom chunk `p_bottom`.
    ///
    /// The traversal marked every level whose walk stepped across
    /// [`HEAL_STEPS_BOTTOM`](crate::skiplist::HEAL_STEPS_BOTTOM) live chunks
    /// (level 0; [`HEAL_STEPS_UPPER`](crate::skiplist::HEAL_STEPS_UPPER)
    /// above) before reaching `k`'s enclosing chunk: the level above is
    /// missing an entry there. The entry installed is keyed by the
    /// *minimum* of the chunk it points to, so every later search for a key
    /// in that chunk lands on it — and only ever by a key of the locked
    /// bottom chunk: a remove of such a key needs that chunk's lock, which
    /// this insert holds until it returns, so the key cannot vanish between
    /// levels (`upper ⊆ lower`). `p_chunk` is the coin, as for a split.
    fn heal_index(&mut self, p_bottom: &Held, k: u32, path: &UpdatePath) {
        let marked = self.heal_levels;
        if marked == 0 || !self.rng.coin(self.list.params.p_chunk) {
            return;
        }
        let team = self.list.team;
        let view = self.read_chunk(p_bottom.chunk());
        if marked & 1 != 0 {
            let min = view
                .keys_live(&team)
                .lowest()
                .map_or(k, |lane| view.entry(lane).key());
            self.stats.index_heals += 1;
            self.climb(path, 1, min, p_bottom.chunk(), true);
        }
        // Above: the descent left `level` through its chunk's minimum. When
        // that key lives in the locked bottom chunk it is ours to raise;
        // otherwise some other insert will get the chance. The top level has
        // nowhere to raise to.
        let mut upper = marked & !1 & !(1 << (self.list.params.max_levels() - 1));
        while upper != 0 {
            let level = upper.trailing_zeros() as usize;
            upper &= upper - 1;
            let min = self.heal_keys[level];
            if !view.contains_key(&team, min) && !crate::bug_knobs::heal_raises_upper_min() {
                continue;
            }
            // Seen at `level` before the lock was taken: it may have been
            // removed and re-inserted (bottom level only) since. Under the
            // lock its levels are frozen, so look once more.
            let at = self.search_lateral(min, path.at(self.list, level));
            if at.found.is_some() {
                self.stats.index_heals += 1;
                self.climb(path, level + 1, min, at.enclosing, true);
            }
        }
    }

    /// Lock `k`'s enclosing chunk at `level` (starting the walk at `start`,
    /// a path hint at-or-left of it) and insert, splitting on overflow
    /// (`insertToLevel`, Algorithm 4.5). At level 1 the lock upgrades the
    /// descent's certified view of `start` when it is still in hand
    /// ([`Self::lock_enclosing`]). All outcomes return with exactly one
    /// chunk locked; errors return with none.
    pub(crate) fn insert_to_level(
        &mut self,
        level: usize,
        start: u32,
        k: u32,
        v: u32,
    ) -> Result<LevelOutcome, Error> {
        let mut view = ChunkView::BLANK;
        let p_enc = self.lock_enclosing(start, k, &mut view);
        let placed = view.place(&self.list.team, k);
        self.insert_locked(level, p_enc, &view, placed, k, v)
    }

    /// [`Self::insert_to_level`] once `k`'s enclosing chunk `p_enc` is
    /// held, its content in `view` and `k`'s [`ChunkView::place`] in it
    /// `placed`: the one vote the held view costs.
    fn insert_locked(
        &mut self,
        level: usize,
        p_enc: Held,
        view: &ChunkView,
        placed: Result<LaneId, usize>,
        k: u32,
        v: u32,
    ) -> Result<LevelOutcome, Error> {
        let team = self.list.team;
        let index = match placed {
            Ok(lane) => return Ok(LevelOutcome::AlreadyPresent { locked: p_enc, lane }),
            Err(index) => index,
        };
        if !view.is_full(&team) {
            self.execute_insert(&p_enc, view, index, k, v);
            if level == 0 {
                // Linearization point passed: the key is in the bottom level.
                // A crash from here on must still report Ok(true).
                self.journal.committed = Some(Commit::Inserted(None));
            }
            if level > 0 && self.list.level_chunk_count(level) == 0 {
                // First key in this level: mark it in use so searches start
                // here. (Benign race: two first-inserters may both count.)
                self.list.inc_level_chunks(level);
            }
            Ok(LevelOutcome::Inserted {
                locked: p_enc,
                raise: false,
                raised_key: k,
            })
        } else {
            let (p_insert, raised_key) = self.split_insert(p_enc, view, k, v, level)?;
            self.list.inc_level_chunks(level);
            let raise =
                level + 1 < self.list.params.max_levels() && self.rng.coin(self.list.params.p_chunk);
            Ok(LevelOutcome::Inserted {
                locked: p_insert,
                raise,
                raised_key,
            })
        }
    }

    /// Physically insert `(k, v)` into a locked, non-full chunk while
    /// keeping it sorted (`executeInsert`, Algorithm 4.7 / Fig. 4.3), at
    /// `insert_idx`, the lane [`ChunkView::place`] found for it in `view`.
    ///
    /// Each lane takes its left neighbour's entry; writes proceed serially
    /// from the highest DATA lane down to the insertion index so no key ever
    /// transiently disappears (a key may transiently appear twice, which
    /// readers resolve by highest-lane precedence).
    pub(crate) fn execute_insert(&mut self, p_enc: &Held, view: &ChunkView, insert_idx: usize, k: u32, v: u32) {
        let team = self.list.team;
        debug_assert!(insert_idx < team.dsize(), "chunk was full");
        let ch = self.list.chunk_words(p_enc.chunk());
        for i in (insert_idx..team.dsize()).rev() {
            let e = if i == insert_idx {
                Entry::new(k, v)
            } else {
                view.entry(i - 1)
            };
            if !e.is_empty() {
                ops::write_entry(&mut self.probe, ch, i, e);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::{KEY_INF, KEY_NEG_INF};
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
    fn insert_then_contains() {
        let list = list16();
        let mut h = list.handle();
        assert_eq!(h.insert(42, 420), Ok(true));
        assert!(h.contains(42));
        assert_eq!(h.get(42), Some(420));
        assert!(!h.contains(41));
    }

    #[test]
    fn duplicate_insert_rejected() {
        let list = list16();
        let mut h = list.handle();
        assert_eq!(h.insert(7, 1), Ok(true));
        assert_eq!(h.insert(7, 2), Ok(false));
        assert_eq!(h.get(7), Some(1), "original value preserved");
    }

    /// An absent key's `upsert` is one pass of the insert body: it takes
    /// the bottom lock once, where re-entering `insert` took it twice.
    #[test]
    fn upsert_of_an_absent_key_takes_one_lock() {
        let list = list16();
        let mut h = list.handle();
        assert_eq!(h.try_upsert(42, 420), Ok(None));
        assert_eq!(h.get(42), Some(420));
        assert_eq!((h.stats().splits, h.stats().locks_taken), (0, 1));
        assert_eq!(h.try_upsert(42, 421), Ok(Some(420)));
        assert_eq!(h.stats().insert_ops, 2);
        assert_eq!(h.get(42), Some(421));
    }

    #[test]
    fn reserved_keys_error() {
        let list = list16();
        let mut h = list.handle();
        assert_eq!(h.insert(KEY_NEG_INF, 0), Err(Error::InvalidKey(0)));
        assert_eq!(h.insert(KEY_INF, 0), Err(Error::InvalidKey(KEY_INF)));
    }

    #[test]
    fn inserts_stay_sorted_within_chunk() {
        let list = list16();
        let mut h = list.handle();
        for k in [50u32, 10, 30, 20, 40] {
            assert_eq!(h.insert(k, k * 2), Ok(true));
        }
        let head = list.head_of(0);
        let v = h.read_chunk(head);
        let keys: Vec<u32> = v.live_entries(&list.team).map(|(_, e)| e.key()).collect();
        assert_eq!(keys, vec![KEY_NEG_INF, 10, 20, 30, 40, 50]);
        for k in [10u32, 20, 30, 40, 50] {
            assert_eq!(h.get(k), Some(k * 2));
        }
    }

    #[test]
    fn fill_one_chunk_to_capacity_without_split() {
        let list = list16();
        let mut h = list.handle();
        // Sentinel holds -inf, so 13 more keys fill the 14-entry data array.
        for k in 1..=13u32 {
            assert_eq!(h.insert(k, k), Ok(true));
        }
        assert_eq!(list.chunks_allocated(), 1, "no split yet: the head alone");
        assert_eq!(h.stats().splits, 0);
        for k in 1..=13u32 {
            assert!(h.contains(k));
        }
    }

    #[test]
    fn overflow_triggers_split_and_all_keys_survive() {
        let list = list16();
        let mut h = list.handle();
        for k in 1..=14u32 {
            assert_eq!(h.insert(k, k * 10), Ok(true), "k={k}");
        }
        assert!(h.stats().splits >= 1);
        for k in 1..=14u32 {
            assert_eq!(h.get(k), Some(k * 10), "k={k}");
        }
        assert!(!h.contains(15));
    }

    #[test]
    fn many_inserts_build_multiple_levels() {
        let list = list16();
        let mut h = list.handle();
        for k in 1..=2000u32 {
            assert_eq!(h.insert(k, k), Ok(true), "k={k}");
        }
        assert!(list.height() >= 1, "p_chunk=1 must raise keys");
        for k in 1..=2000u32 {
            assert_eq!(h.get(k), Some(k), "k={k}");
        }
        assert!(!h.contains(2001));
    }

    #[test]
    fn descending_inserts_exercise_index_zero_path() {
        let list = list16();
        let mut h = list.handle();
        for k in (1..=500u32).rev() {
            assert_eq!(h.insert(k, k + 1), Ok(true), "k={k}");
        }
        for k in 1..=500u32 {
            assert_eq!(h.get(k), Some(k + 1), "k={k}");
        }
    }

    #[test]
    fn pool_exhaustion_surfaces_and_leaves_structure_usable() {
        let list = Gfsl::new(GfslParams {
            team_size: TeamSize::Sixteen,
            pool_chunks: 3, // the bottom level's head + 2 spare chunks
            ..Default::default()
        })
        .unwrap();
        let mut h = list.handle();
        let mut inserted = Vec::new();
        let mut exhausted = false;
        for k in 1..=2000u32 {
            match h.insert(k, k) {
                Ok(true) => inserted.push(k),
                Ok(false) => unreachable!(),
                Err(Error::PoolExhausted(_)) => {
                    exhausted = true;
                    break;
                }
                Err(e) => panic!("unexpected error {e:?}"),
            }
        }
        assert!(exhausted, "tiny pool must run out");
        for &k in &inserted {
            assert!(h.contains(k), "k={k} must survive exhaustion");
        }
    }

    /// An insert whose key reached the bottom level succeeded, whatever
    /// happens to the index above: at the parent of this test a level-1
    /// split that found the pool empty made `insert` return `Err` for a key
    /// that was in the set (and the edge then logged nothing for it).
    #[test]
    fn exhaustion_mid_climb_still_reports_the_insert() {
        let mut raise_aborts = 0;
        // Somewhere in this range the allocation that fails is level 1's
        // head or its first split (the bottom level's head + one chunk per
        // bottom split so far, + level 1's head).
        for pool_chunks in 2..=25 {
            let list = Gfsl::new(GfslParams {
                team_size: TeamSize::Sixteen,
                pool_chunks,
                ..Default::default()
            })
            .unwrap();
            let mut h = list.handle();
            for k in 1..=400u32 {
                let added = h.insert(k, k);
                assert!(
                    matches!(added, Ok(true) | Err(Error::PoolExhausted(_))),
                    "pool {pool_chunks} k={k}: {added:?}"
                );
                assert_eq!(added == Ok(true), h.contains(k), "pool {pool_chunks} k={k}");
            }
            raise_aborts += h.stats().raise_aborts;
            list.assert_valid();
        }
        assert!(raise_aborts > 0, "no pool size failed inside a climb");
    }

    #[test]
    fn long_walks_heal_the_index() {
        // Bulk-build, then delete every indexed key: the index is gone but
        // the bottom level is intact, so inserts walk it — and repair it.
        let list = Gfsl::from_sorted_pairs(
            GfslParams {
                team_size: TeamSize::Sixteen,
                ..Default::default()
            },
            (1..=2_000u32).map(|k| (2 * k, k)),
        )
        .unwrap();
        let mut h = list.handle();
        let indexed: Vec<u32> = list.level_keys(1);
        assert!(indexed.len() > 100);
        for &k in &indexed {
            assert!(h.remove(k).is_some());
        }
        assert_eq!(list.shape().index_coverage()[0], 0.0);
        // Odd keys in a scattered order (ascending inserts would re-index
        // each chunk through its own splits before walking anywhere).
        for j in 0..2_000u32 {
            let k = 2 * (j * 37 % 2_000) + 3;
            assert_eq!(h.insert(k, k), Ok(true));
        }
        assert!(h.stats().index_heals > 50, "{} heals", h.stats().index_heals);
        let coverage = list.shape().index_coverage();
        assert!(coverage[0] > 0.5, "coverage {coverage:?}");
        list.assert_valid();
    }
}
