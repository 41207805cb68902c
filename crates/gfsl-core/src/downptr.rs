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

use crate::chunk::{ops, ChunkView, Entry, KEY_NEG_INF};
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
        // The descent stopped at any level in use lands at or left of the
        // key's enclosing chunk there: walking on from it ends where a walk
        // from the level's head does.
        for t in 0..=list.height() {
            for k in [1u32, 57, 1500, 2999, 3001] {
                let c = h.search_down_to_level(t, k).unwrap();
                assert_eq!(
                    h.search_lateral(k, c).enclosing,
                    h.search_lateral(k, list.head_of(t)).enclosing,
                    "level {t}, key {k}"
                );
            }
        }
    }
}
