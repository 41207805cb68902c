//! Bulk loading and quiescent compaction.
//!
//! The paper leaves memory reclamation as future work and sketches the
//! intended mechanism: "a possible reclamation scheme would be to compact
//! the structure between kernel launches" (§4.1). [`Gfsl::compacted`] is
//! that scheme: at quiescence, rebuild the structure into a fresh pool,
//! dropping every zombie and defragmenting chunks to a uniform fill.
//!
//! The underlying [`Gfsl::from_sorted_pairs`] is also useful on its own: it
//! bulk-loads a sorted stream without any splits, producing an ideal
//! structure (exactly one index key per chunk per level — the paper's "in
//! an ideal structure at most one key from each chunk in level i would
//! appear in level i+1").

use gfsl_gpu_mem::NoProbe;

use crate::chunk::{is_user_key, ops, ChunkRef, Entry, KEY_INF, KEY_NEG_INF, LOCK_UNLOCKED, NIL};
use crate::params::GfslParams;
use crate::skiplist::{Error, Gfsl, GfslHandle};

/// Pack `entries` (`(key, value)` at level 0, `(key, down-pointer)` above;
/// strictly ascending user keys, else [`Error::InvalidKey`]) into the level
/// whose head, which keeps `-∞`, is `head`, `fill` to a chunk. No other
/// team sees the structure yet, so each chunk is written directly: locked,
/// filled, sealed unlocked, with no lock held. Returns the `(chunk, min
/// key)` of every chunk past the head: the level above's.
fn pack_level(
    h: &mut GfslHandle<'_, NoProbe>,
    head: u32,
    fill: usize,
    entries: impl IntoIterator<Item = (u32, u32)>,
) -> Result<Vec<(u32, u32)>, Error> {
    let list = h.list();
    let team = list.team;
    let seal = |ch: ChunkRef, max: u32, next: u32| {
        list.pool.write(ch.entry_addr(team.next_lane()), Entry::new(max, next).0);
        list.pool.write(ch.entry_addr(team.lock_lane()), LOCK_UNLOCKED);
    };
    let mut raised = Vec::new();
    let (mut cur, mut slot, mut min, mut max) = (head, 1, KEY_NEG_INF, KEY_NEG_INF);
    let mut cur_ref = list.chunk(cur);
    for (k, v) in entries {
        if !is_user_key(k) || k <= max {
            return Err(Error::InvalidKey(k));
        }
        if slot == fill {
            let (new, locked) = h.take_chunk()?;
            ops::write_image(&team, &list.pool, &mut NoProbe, new, Entry::EMPTY, locked);
            seal(cur_ref, max, new);
            if cur != head {
                raised.push((cur, min));
            }
            (cur, cur_ref, slot) = (new, list.chunk(new), 0);
        }
        list.pool.write(cur_ref.entry_addr(slot), Entry::new(k, v).0);
        if slot == 0 {
            min = k;
        }
        max = k;
        slot += 1;
    }
    // The last chunk is the end of the level.
    seal(cur_ref, KEY_INF, NIL);
    if cur != head {
        raised.push((cur, min));
    }
    Ok(raised)
}

impl Gfsl {
    /// Build a structure from strictly-ascending `(key, value)` pairs.
    ///
    /// Bottom-level chunks are packed to ~3/4 fill (comfortably above the
    /// merge threshold, with room for inserts before the first split), and
    /// each chunk beyond the first contributes its minimum key to the level
    /// above, recursively — the deterministic ideal of `p_chunk = 1`.
    ///
    /// # Errors
    /// [`Error::InvalidKey`] if a key is reserved, out of order, or
    /// duplicated; [`Error::PoolExhausted`] if `params.pool_chunks` is too
    /// small.
    pub fn from_sorted_pairs(
        params: GfslParams,
        pairs: impl IntoIterator<Item = (u32, u32)>,
    ) -> Result<Gfsl, Error> {
        let list = Gfsl::new(params)?;
        let dsize = list.team.dsize();
        // Fill target: at least one above the merge threshold so a single
        // delete never immediately merges, at most dsize - 2 so a couple of
        // inserts fit before a split.
        let fill = ((dsize * 3) / 4)
            .max(params.merge_threshold() as usize + 1)
            .min(dsize - 2)
            .max(1);

        let mut handle = list.handle_with(NoProbe);
        let mut raised = pack_level(&mut handle, list.head_of(0), fill, pairs)?;
        list.store_level_chunks(0, raised.len() as u32);

        // Upper levels: each non-sentinel chunk of level i is indexed by one
        // (min key -> chunk) entry in level i+1, whose head is allocated
        // only when there is such an entry.
        let mut level = 1usize;
        while !raised.is_empty() && level < params.max_levels() {
            let head = handle.head_or_grow(level)?;
            let next = pack_level(&mut handle, head, fill, raised.iter().map(|&(below, k)| (k, below)))?;
            list.store_level_chunks(level, raised.len() as u32);
            raised = next;
            level += 1;
        }
        drop(handle);
        Ok(list)
    }

    /// Build a structure prefilled with `keys` (values = keys), sorting and
    /// deduplicating first.
    ///
    /// The unsorted-keys front of [`Gfsl::from_sorted_pairs`]: tests build
    /// their starting structure with it by bulk load instead of replaying
    /// single-key inserts.
    ///
    /// # Errors
    /// [`Error::InvalidKey`] if any key is reserved (`0` / `u32::MAX`);
    /// [`Error::PoolExhausted`] if the pool is too small.
    pub fn prefilled(params: GfslParams, keys: impl IntoIterator<Item = u32>) -> Result<Gfsl, Error> {
        let mut keys: Vec<u32> = keys.into_iter().collect();
        keys.sort_unstable();
        keys.dedup();
        Gfsl::from_sorted_pairs(params, keys.into_iter().map(|k| (k, k)))
    }

    /// Rebuild this structure into a fresh pool at quiescence, dropping
    /// zombies and defragmenting — the paper's sketched "compact between
    /// kernel launches" reclamation scheme (§4.1, future work there).
    ///
    /// Takes `&mut self` as a compile-time proof of quiescence (no handles
    /// can be alive). Returns the compacted replacement.
    pub fn compacted(&mut self) -> Result<Gfsl, Error> {
        Gfsl::from_sorted_pairs(self.params, self.pairs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfsl_simt::TeamSize;

    fn params16() -> GfslParams {
        GfslParams {
            team_size: TeamSize::Sixteen,
            ..Default::default()
        }
    }

    #[test]
    fn bulk_load_roundtrips_and_validates() {
        let pairs: Vec<(u32, u32)> = (1..=5_000u32).map(|k| (k * 2, k)).collect();
        let list = Gfsl::from_sorted_pairs(params16(), pairs.iter().copied()).unwrap();
        list.assert_valid();
        assert_eq!(list.pairs(), pairs);
        let mut h = list.handle();
        assert_eq!(h.get(10_000), Some(5_000));
        assert!(!h.contains(9_999));
        assert!(list.height() >= 1, "bulk load builds index levels");
    }

    #[test]
    fn bulk_loaded_structure_accepts_updates() {
        let list =
            Gfsl::from_sorted_pairs(params16(), (1..=1_000u32).map(|k| (k * 10, k))).unwrap();
        let mut h = list.handle();
        // Inserts between, below, and above the loaded keys; deletes too.
        assert!(h.insert(5, 5).unwrap());
        assert!(h.insert(10_005, 5).unwrap());
        assert!(h.insert(55, 55).unwrap());
        assert!(h.remove(500).is_some());
        assert!(!h.contains(500));
        assert!(h.contains(55));
        list.assert_valid();
        assert_eq!(list.len(), 1_002);
    }

    #[test]
    fn bulk_load_rejects_disorder_and_reserved_keys() {
        assert!(matches!(
            Gfsl::from_sorted_pairs(params16(), [(5, 0), (5, 1)]),
            Err(Error::InvalidKey(5))
        ));
        assert!(matches!(
            Gfsl::from_sorted_pairs(params16(), [(9, 0), (3, 1)]),
            Err(Error::InvalidKey(3))
        ));
        assert!(matches!(
            Gfsl::from_sorted_pairs(params16(), [(0, 0)]),
            Err(Error::InvalidKey(0))
        ));
        assert!(matches!(
            Gfsl::from_sorted_pairs(params16(), [(u32::MAX, 0)]),
            Err(Error::InvalidKey(u32::MAX))
        ));
    }

    #[test]
    fn empty_bulk_load_is_an_empty_list() {
        let list = Gfsl::from_sorted_pairs(params16(), std::iter::empty()).unwrap();
        assert!(list.is_empty());
        list.assert_valid();
        let mut h = list.handle();
        assert!(h.insert(1, 1).unwrap());
    }

    #[test]
    fn compaction_reclaims_zombie_chunks() {
        let mut list = Gfsl::new(params16()).unwrap();
        {
            let mut h = list.handle();
            for k in 1..=5_000u32 {
                h.insert(k, k).unwrap();
            }
            for k in 1..=4_500u32 {
                h.remove(k);
            }
            assert!(h.stats().merges > 0);
        }
        let before = list.chunks_allocated();
        let compacted = list.compacted().unwrap();
        compacted.assert_valid();
        assert_eq!(compacted.pairs(), list.pairs());
        assert!(
            compacted.chunks_allocated() < before / 4,
            "compaction must shed zombies and fragmentation: {} -> {}",
            before,
            compacted.chunks_allocated()
        );
        // And the compacted structure is fully usable.
        let mut h = compacted.handle();
        assert!(h.insert(3, 3).unwrap());
        assert!(h.remove(4_999).is_some());
        compacted.assert_valid();
    }

    #[test]
    fn prefilled_sorts_and_dedups() {
        let list = Gfsl::prefilled(params16(), [7u32, 3, 9, 3, 1, 7]).unwrap();
        list.assert_valid();
        assert_eq!(list.pairs(), vec![(1, 1), (3, 3), (7, 7), (9, 9)]);
        assert!(matches!(
            Gfsl::prefilled(params16(), [1u32, 0]),
            Err(Error::InvalidKey(0))
        ));
    }

    #[test]
    fn bulk_load_32_lane_chunks() {
        let list = Gfsl::from_sorted_pairs(
            GfslParams::default(),
            (1..=20_000u32).map(|k| (k, k ^ 0xAA)),
        )
        .unwrap();
        list.assert_valid();
        assert_eq!(list.len(), 20_000);
        let mut h = list.handle();
        assert_eq!(h.get(12_345), Some(12_345 ^ 0xAA));
    }
}
