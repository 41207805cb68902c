//! Structure introspection: per-level shape, fill distribution, zombie
//! accounting. Quiescent-only, like the other whole-structure scans.
//!
//! These statistics drive capacity planning (pool sizing), verify the
//! paper's structural claims (e.g. "chunks hold an average of ~20 keys" for
//! 32-entry chunks, the ~`DSIZE/2 + threshold` steady-state fill under
//! churn), and power the compaction heuristics.

use gfsl_gpu_mem::NoProbe;

use crate::chunk::{KEY_NEG_INF, NIL};
use crate::skiplist::Gfsl;

/// Shape of one level's chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelShape {
    /// Level index (0 = bottom).
    pub level: usize,
    /// Non-zombie chunks reachable in the chain.
    pub live_chunks: u32,
    /// Zombie chunks still linked into the chain.
    pub zombie_chunks: u32,
    /// Keys in live chunks (excluding `-∞`).
    pub keys: u64,
    /// Histogram of live-entry counts per live chunk: `fill_histogram[i]` =
    /// chunks holding exactly `i` live entries.
    pub fill_histogram: Vec<u32>,
}

impl LevelShape {
    /// Mean live entries per live chunk.
    pub fn mean_fill(&self) -> f64 {
        if self.live_chunks == 0 {
            0.0
        } else {
            let total: u64 = self
                .fill_histogram
                .iter()
                .enumerate()
                .map(|(fill, &n)| fill as u64 * n as u64)
                .sum();
            total as f64 / self.live_chunks as f64
        }
    }
}

/// Whole-structure snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shape {
    /// Per-level shapes, bottom first, only levels that hold keys (plus
    /// level 0 always).
    pub levels: Vec<LevelShape>,
    /// Total chunks handed out by the pool's bump pointer: zombies and the
    /// heads of the levels in use included, no head of a level never used.
    /// This is the pool *high-water mark*: recycled chunks are re-issued
    /// from the free list without bumping it.
    pub chunks_allocated: u32,
    /// Reclamation progress counters: epochs advanced, chunks
    /// retired/recycled/reused, and the current limbo/staged/free
    /// populations. Always `Some`: it stays an `Option` while `perfbench`
    /// reads it with `unwrap_or_default()`.
    pub reclaim: Option<gfsl_gpu_mem::ReclaimStats>,
}

impl Shape {
    /// Keys in the set.
    pub fn len(&self) -> u64 {
        self.levels.first().map(|l| l.keys).unwrap_or(0)
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fraction of allocated chunks that are zombies (reclaimable by
    /// [`Gfsl::compacted`]).
    pub fn zombie_fraction(&self) -> f64 {
        let zombies: u32 = self.levels.iter().map(|l| l.zombie_chunks).sum();
        if self.chunks_allocated == 0 {
            0.0
        } else {
            zombies as f64 / self.chunks_allocated as f64
        }
    }

    /// Inter-level fan-out: keys at level 0 per key at level 1 (the paper
    /// ties this to chunk capacity via `p_chunk`; ~`DSIZE/2`..`DSIZE` for
    /// `p_chunk = 1`).
    pub fn fanout(&self) -> Option<f64> {
        let l0 = self.levels.first()?.keys;
        let l1 = self.levels.get(1)?.keys;
        if l1 == 0 {
            None
        } else {
            Some(l0 as f64 / l1 as f64)
        }
    }

    /// Index coverage per level: slot `i` = keys at level `i + 1` ÷ live
    /// chunks at level `i`. A freshly built structure sits near 1.0 (one
    /// index key per chunk below); deletes erode it and the update-path
    /// heal restores it (DESIGN.md §20). One slot per level in
    /// [`levels`](Self::levels); the top level's slot is 0.
    pub fn index_coverage(&self) -> Vec<f64> {
        (0..self.levels.len())
            .map(|i| {
                let above = self.levels.get(i + 1).map_or(0, |l| l.keys);
                above as f64 / f64::from(self.levels[i].live_chunks.max(1))
            })
            .collect()
    }
}

impl Gfsl {
    /// Chunks linked into the level chains, `(live, zombie)`, over every
    /// level that has a head — [`Gfsl::shape`] stops at the first level
    /// without keys, and a level out of use keeps its sentinel and may have
    /// a zombie run parked behind it. With the reclaimer's queue depths this
    /// accounts for every chunk the pool ever handed out, but a level head
    /// whose growth crashed before the publish. Quiescent use only.
    pub fn linked_chunks(&self) -> (u64, u64) {
        let (mut live, mut zombies) = (0, 0);
        let mut h = self.handle_with(NoProbe);
        for (_, head) in self.heads() {
            let mut cur = head;
            while cur != NIL {
                let v = h.read_chunk(cur);
                if v.is_zombie(&self.team) {
                    zombies += 1;
                } else {
                    live += 1;
                }
                cur = v.next(&self.team);
            }
        }
        (live, zombies)
    }

    /// Take a structural snapshot. Quiescent use only.
    pub fn shape(&self) -> Shape {
        let team = self.team;
        let mut h = self.handle_with(NoProbe);
        // Pinned so concurrent reclamation cannot recycle chunks out from
        // under the walk (the snapshot itself is still quiescent-only).
        h.with_pin(|h| {
        let mut levels = Vec::new();
        for (level, head) in self.heads() {
            let mut shape = LevelShape {
                level,
                live_chunks: 0,
                zombie_chunks: 0,
                keys: 0,
                fill_histogram: vec![0; team.dsize() + 1],
            };
            let mut cur = head;
            loop {
                let v = h.read_chunk(cur);
                if v.is_zombie(&team) {
                    shape.zombie_chunks += 1;
                } else {
                    shape.live_chunks += 1;
                    let live = v
                        .live_entries(&team)
                        .filter(|(_, e)| e.key() != KEY_NEG_INF)
                        .count();
                    shape.keys += live as u64;
                    shape.fill_histogram[v.num_keys(&team) as usize] += 1;
                }
                let next = v.next(&team);
                if next == NIL {
                    break;
                }
                cur = next;
            }
            let empty_level = level > 0 && shape.keys == 0;
            levels.push(shape);
            if empty_level {
                break; // levels above an empty level hold no keys
            }
        }
        Shape {
            levels,
            chunks_allocated: self.chunks_allocated(),
            reclaim: Some(self.reclaim_stats()),
        }
        })
    }
}

#[cfg(test)]
mod tests {
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
    fn empty_shape() {
        let list = list16();
        let s = list.shape();
        assert!(s.is_empty());
        assert_eq!(s.levels[0].live_chunks, 1, "the sentinel");
        assert_eq!(s.levels[0].zombie_chunks, 0);
        assert_eq!(s.zombie_fraction(), 0.0);
        assert_eq!(s.fanout(), None);
    }

    #[test]
    fn shape_counts_match_reality() {
        let list = list16();
        let mut h = list.handle();
        for k in 1..=1_000u32 {
            h.insert(k, k).unwrap();
        }
        let s = list.shape();
        assert_eq!(s.len(), 1_000);
        assert!(s.levels.len() >= 2, "index levels built");
        // Fan-out for p_chunk = 1 sits between half-fill and full-fill.
        let fanout = s.fanout().unwrap();
        assert!(
            (4.0..=16.0).contains(&fanout),
            "fanout {fanout} out of the DSIZE-tied band"
        );
        // Mean bottom fill is within the split/merge band.
        let fill = s.levels[0].mean_fill();
        assert!((6.0..=14.0).contains(&fill), "mean fill {fill}");
        // Histogram sums to chunk count.
        let total: u32 = s.levels[0].fill_histogram.iter().sum();
        assert_eq!(total, s.levels[0].live_chunks);
    }

    #[test]
    fn zombies_show_up_after_deletions() {
        let list = list16();
        {
            let mut h = list.handle();
            for k in 1..=2_000u32 {
                h.insert(k, k).unwrap();
            }
            for k in 1..=1_900u32 {
                h.remove(k);
            }
        }
        let s = list.shape();
        assert_eq!(s.len(), 100);
        assert!(s.zombie_fraction() > 0.0, "merges left zombies behind");
        // Compaction erases them.
        let mut list = list;
        let compacted = list.compacted().unwrap();
        assert_eq!(compacted.shape().zombie_fraction(), 0.0);
        assert_eq!(compacted.shape().len(), 100);
    }

    #[test]
    fn mean_fill_of_bulk_load_hits_target() {
        let list = Gfsl::from_sorted_pairs(
            GfslParams {
                team_size: TeamSize::Sixteen,
                ..Default::default()
            },
            (1..=10_000u32).map(|k| (k, k)),
        )
        .unwrap();
        let s = list.shape();
        let fill = s.levels[0].mean_fill();
        // Bulk load packs to ~3/4 of DSIZE = ~10.5 for 14-entry arrays.
        assert!((9.0..=11.5).contains(&fill), "bulk fill {fill}");
    }
}
