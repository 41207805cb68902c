//! Down-pointer repair after splits and merges (paper §4.2.2,
//! Algorithm 4.10).
//!
//! When keys move between chunks in level `i` (split or merge), their index
//! entries in level `i+1` keep pointing at the old chunk. Such stale
//! pointers are always *legal* — they point at-or-left of the key, and
//! lateral steps recover — so this pass is a best-effort performance fix,
//! not a correctness requirement.
//!
//! The thesis repairs key by key, each with its own descent. Here one
//! descent reaches level `i+1` for the smallest moved key and one lateral
//! walk covers the rest, in ascending order, chunk by chunk. A chunk whose
//! certified view holds none of the moved keys is passed without a lock.
//! One that holds some is locked once, by one CAS from the word that
//! certified the walk's read of it, and under that lock each moved key
//! it encloses gets the thesis's per-key recheck: its lane is still there
//! and it is still reachable from the destination chunk. Only then is the
//! entry rewritten, with a single atomic store. Single-threaded, this
//! installs exactly the fixes the per-key pass does.

use gfsl_gpu_mem::probe::CrashPoint;
use gfsl_gpu_mem::MemProbe;

use crate::chunk::{ops, ChunkRead, ChunkView, Entry, Held, KEY_NEG_INF, NIL};
use crate::skiplist::GfslHandle;

impl<'a, P: MemProbe> GfslHandle<'a, P> {
    /// Repair the level-`level+1` down-pointers of `moved` (ascending keys
    /// that migrated into `target` at `level`).
    pub(crate) fn update_down_ptrs(&mut self, level: usize, moved: &[u32], target: u32) {
        let team = self.list.team;
        let upper = level + 1;
        let Some(&first) = moved.first() else {
            return;
        };
        if upper >= self.list.params.max_levels() || self.skip_downptr_repair {
            return;
        }
        // -∞ migrates like any key but has index entries only in the
        // sentinels' entry 0; being the smallest key, it is always first.
        let (mut cur, moved) = match self.search_down_to_level(upper, first) {
            Some(c) => (c, moved),
            // The level above is not in use. If it has a head, that
            // sentinel is its one chunk and `-∞` its one entry, still
            // pointing down at the chunk `-∞` just left (a zombie no pass
            // could ever free). With no head above there is no entry to
            // repair, and no other key has one up there.
            None if first == KEY_NEG_INF => match self.list.head_of(upper) {
                NIL => return,
                head => (head, &moved[..1]),
            },
            None => return,
        };
        let mut view = ChunkView::BLANK;
        let mut i = 0;
        while i < moved.len() {
            // Certified, so a moved key the view lacks is absent from the
            // chunk, not hidden by a concurrent shift.
            let cert = match self.read_bracketed(cur, &mut view) {
                ChunkRead::Zombie { next } => {
                    cur = next;
                    continue;
                }
                ChunkRead::Certified(cert) => cert,
            };
            let max = view.max(&team);
            let enclosed = moved[i..].partition_point(|&k| k <= max);
            let held = moved[i..i + enclosed]
                .iter()
                .find(|&&k| view.contains_key(&team, k));
            match held {
                // No moved key has an entry here: pass without a lock.
                None => i += enclosed,
                Some(&k) => {
                    // The view encloses `k`: its upgrade is the lock, and
                    // only a writer since sends the lock walking.
                    let (p_upper, _) = self.upgrade_or_walk(cert, k, &mut view);
                    let max = view.max(&team);
                    while i < moved.len() && moved[i] <= max {
                        self.repair_locked(&p_upper, &view, moved[i], target);
                        i += 1;
                    }
                    self.unlock(p_upper);
                }
            }
            cur = view.next(&team);
            debug_assert!(i == moved.len() || cur != NIL, "walked past the last chunk");
        }
    }

    /// Point `mk`'s entry in the held upper chunk `p_upper` (snapshot
    /// `view`, read under the lock) at `target`, if the entry is there and
    /// `mk` is still reachable from `target`: it may have moved again, and
    /// only then is the new pointer an improvement.
    fn repair_locked(&mut self, p_upper: &Held, view: &ChunkView, mk: u32, target: u32) {
        let Some(lane) = view.lane_of_key(&self.list.team, mk) else {
            return;
        };
        if self.search_lateral(mk, target).found.is_some() {
            self.probe.crash_point(CrashPoint::DownPtrInstall);
            ops::write_entry(&mut self.probe, self.list.chunk_words(p_upper.chunk()), lane, Entry::new(mk, target));
            self.stats.downptr_fixes += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{KEY_NEG_INF, NIL};
    use crate::params::GfslParams;
    use crate::skiplist::{Gfsl, GfslHandle};
    use gfsl_gpu_mem::NoProbe;
    use gfsl_simt::TeamSize;

    /// Every live entry above level 0 must point down at the chunk that
    /// *holds* its key — not merely one at-or-left of it. Returns the
    /// number of entries checked.
    fn assert_down_pointers_exact(list: &Gfsl) -> usize {
        let team = &list.team;
        let mut h = list.handle();
        let mut checked = 0;
        for level in 1..=list.height() {
            let mut cur = list.head_of(level);
            while cur != NIL {
                let v = h.read_chunk(cur);
                if !v.is_zombie(team) {
                    for (_, e) in v.live_entries(team) {
                        let below = h.read_chunk(e.val());
                        assert!(
                            !below.is_zombie(team) && below.contains_key(team, e.key()),
                            "level {level}: key {} points at chunk {}, which does not hold it",
                            e.key(),
                            e.val()
                        );
                        checked += 1;
                    }
                }
                cur = v.next(team);
            }
        }
        checked
    }

    /// Run `script` on a fresh list, check every down-pointer, and return
    /// the fixes the repair installed.
    fn fixes_after(params: GfslParams, script: impl FnOnce(&mut GfslHandle<'_, NoProbe>)) -> u64 {
        let list = Gfsl::new(params).unwrap();
        let mut h = list.handle();
        script(&mut h);
        list.assert_valid();
        assert!(
            assert_down_pointers_exact(&list) > 20,
            "a structure with an index"
        );
        h.stats().downptr_fixes
    }

    /// A 600-key window sliding right by 3,000: inserts split the tail,
    /// removes merge the head (the `engine-churn` shape).
    fn monotone_window(h: &mut GfslHandle<'_, NoProbe>) {
        const W: u32 = 600;
        for k in 1..=W {
            h.insert(k, k).unwrap();
        }
        for k in 1..=3_000 {
            h.insert(k + W, k).unwrap();
            assert!(h.remove(k).is_some());
        }
    }

    /// Seeded inserts and removes over 3,000 keys, half of each.
    fn random_mix(h: &mut GfslHandle<'_, NoProbe>) {
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        for _ in 0..30_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = (x % 3_000 + 1) as u32;
            if x >> 63 == 0 {
                h.insert(k, k).unwrap();
            } else {
                h.remove(k);
            }
        }
    }

    /// One descent and one lateral walk per split or merge install exactly
    /// the fixes the thesis's per-key pass does: every pointer ends on the
    /// chunk holding its key, and the fix counts are the per-key pass's own.
    #[test]
    fn batched_repair_installs_the_per_key_fixes() {
        // (team, fixes on the window, fixes on the mix), as counted by the
        // per-key repair on the same sequences with every update descending
        // from the top level; pinned by record with update fingers on. The
        // updates that start from a finger skip the descents' upper-level
        // zombie unlinks and heals, and the 16-lane mix takes 172 fixes
        // where its descents took 173.
        for (team_size, window, mix) in [
            (TeamSize::Sixteen, 458, 172),
            (TeamSize::ThirtyTwo, 199, 54),
        ] {
            let params = GfslParams {
                team_size,
                pool_chunks: 1 << 12,
                ..Default::default()
            };
            assert_eq!(
                fixes_after(params, monotone_window),
                window,
                "{team_size:?} window"
            );
            assert_eq!(fixes_after(params, random_mix), mix, "{team_size:?} mix");
        }
    }

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
