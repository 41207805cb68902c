//! Down-pointer repair after splits and merges (paper §4.2.2,
//! Algorithm 4.10).
//!
//! When keys move between chunks in level `i` (split or merge), their index
//! entries in level `i+1` keep pointing at the old chunk. Such stale
//! pointers are always *legal* — they point at-or-left of the key, and
//! lateral steps recover — so this pass is a best-effort performance fix,
//! not a correctness requirement. Each fix locks the level-`i+1` chunk,
//! re-verifies the key still exists there and is still reachable from the
//! destination chunk, and rewrites the entry with a single atomic store.

use gfsl_gpu_mem::probe::CrashPoint;
use gfsl_gpu_mem::MemProbe;

use crate::chunk::{ops, ChunkView, Entry, KEY_NEG_INF, NIL};
use crate::search::{down_step_lane, tid_for_next_step, NextStep};
use crate::skiplist::GfslHandle;

impl<'a, P: MemProbe> GfslHandle<'a, P> {
    /// Repair the level-`level+1` down-pointers of `moved` (ascending keys
    /// that migrated into `lower_moved_ch` at `level`).
    pub(crate) fn update_down_ptrs(&mut self, level: usize, moved: &[u32], lower_moved_ch: u32) {
        let team = self.list.team;
        let upper = level + 1;
        if upper >= self.list.params.max_levels() || self.skip_downptr_repair {
            return;
        }
        let mut uview = ChunkView::BLANK;
        for &mk in moved {
            // -∞ migrates like any key but has index entries only in the
            // sentinels' entry 0; fixing those is covered by the same logic.
            let start = match self.search_down_to_level(upper, mk) {
                Some(c) => c,
                // The level above is not in use, so it holds one entry: its
                // sentinel's `-∞`, still pointing down at the chunk `-∞`
                // just left (a zombie no pass could ever free).
                None if mk == KEY_NEG_INF => self.list.head_of(upper),
                None => return, // no other key has an entry up there
            };
            let found = self.search_lateral(mk, start);
            if found.found.is_none() {
                continue; // key was never raised (p_chunk < 1) or already removed
            }
            let p_upper = self.find_and_lock_enclosing(found.enclosing, mk, &mut uview);
            if let Some(lane) = uview.lane_of_key(&team, mk) {
                // The key must still be reachable from the destination chunk
                // (it may have moved again); only then is the new pointer an
                // improvement.
                if self.search_lateral(mk, lower_moved_ch).found.is_some() {
                    self.probe.crash_point(CrashPoint::DownPtrInstall);
                    ops::write_entry(
                        &mut self.probe,
                        self.list.chunk_words(p_upper),
                        lane,
                        Entry::new(mk, lower_moved_ch),
                    );
                    self.stats.downptr_fixes += 1;
                }
            }
            self.unlock(p_upper);
        }
    }

    /// `searchDown` variant that stops at `target` level instead of level 0
    /// (`searchDownToLevel`). Returns a chunk in `target` at-or-left of
    /// `k`'s enclosing chunk, or `None` when the structure is shorter than
    /// `target`.
    pub(crate) fn search_down_to_level(&mut self, target: usize, k: u32) -> Option<u32> {
        let team = self.list.team;
        // Swapped on every lateral step, as in `descend`.
        let mut views = [ChunkView::BLANK; 2];
        let mut at = 0;
        'restart: loop {
            let mut height = self.list.height();
            if height < target {
                return None;
            }
            // Stepped laterally from the chunk whose view is `views[at ^ 1]`.
            let mut stepped = false;
            let mut cur = self.list.head_of(height);
            while height > target {
                self.read_chunk_into(cur, &mut views[at]);
                let view = &views[at];
                if view.is_zombie(&team) {
                    let next = view.next(&team);
                    if next == NIL {
                        self.stats.search_restarts += 1;
                        continue 'restart;
                    }
                    cur = next;
                    continue;
                }
                match tid_for_next_step(&team, k, view) {
                    NextStep::Lateral => {
                        stepped = true;
                        cur = view.next(&team);
                        at ^= 1;
                    }
                    NextStep::Down(lane) => {
                        height -= 1;
                        stepped = false;
                        cur = view.entry(lane).val();
                    }
                    NextStep::Backtrack => {
                        let pview = &views[at ^ 1];
                        let down = if std::mem::take(&mut stepped) {
                            down_step_lane(&team, k, pview)
                        } else {
                            None
                        };
                        match down {
                            Some(l) => {
                                height -= 1;
                                cur = pview.entry(l).val();
                            }
                            None => {
                                self.stats.search_restarts += 1;
                                continue 'restart;
                            }
                        }
                    }
                }
            }
            return Some(cur);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::KEY_NEG_INF;
    use crate::params::GfslParams;
    use crate::skiplist::Gfsl;
    use gfsl_simt::TeamSize;

    fn built_list(n: u32) -> Gfsl {
        let list = Gfsl::new(GfslParams {
            team_size: TeamSize::Sixteen,
            ..Default::default()
        })
        .unwrap();
        {
            let mut h = list.handle();
            for k in 1..=n {
                h.insert(k, k).unwrap();
            }
        }
        list
    }

    #[test]
    fn search_down_to_level_zero_matches_search_down() {
        let list = built_list(300);
        let mut h = list.handle();
        for k in [1u32, 57, 150, 299] {
            let a = h.search_down(k);
            let b = h.search_down_to_level(0, k).unwrap();
            assert_eq!(a, b, "k={k}");
        }
    }

    #[test]
    fn search_down_to_level_above_height_is_none() {
        let list = built_list(20);
        let mut h = list.handle();
        let height = {
            // small structure: find a level strictly above the height
            let mut lvl = 1;
            while list.level_chunk_count(lvl) > 0 {
                lvl += 1;
            }
            lvl
        };
        assert_eq!(h.search_down_to_level(height + 1, 5), None);
    }

    #[test]
    fn down_pointers_point_at_or_left_after_many_splits() {
        let list = built_list(3000);
        let mut h = list.handle();
        let team = &list.team;
        // Walk level 1: every entry's down-pointer must reach the key
        // laterally in level 0.
        let mut cur = list.head_of(1);
        let mut checked = 0;
        loop {
            let v = h.read_chunk(cur);
            if !v.is_zombie(team) {
                for (_, e) in v.live_entries(team) {
                    if e.key() == KEY_NEG_INF {
                        continue;
                    }
                    let r = h.search_lateral(e.key(), e.val());
                    assert!(
                        r.found.is_some(),
                        "level-1 key {} unreachable through its down-pointer",
                        e.key()
                    );
                    checked += 1;
                }
            }
            let next = v.next(team);
            if next == crate::chunk::NIL {
                break;
            }
            cur = next;
        }
        assert!(checked > 10, "structure tall enough to be meaningful");
    }
}
