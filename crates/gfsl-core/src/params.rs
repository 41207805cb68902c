//! Tunable parameters of a GFSL instance.

use gfsl_simt::TeamSize;

/// Configuration for a [`crate::Gfsl`] instance.
///
/// Defaults reproduce the paper's best configuration (§5.2): 32-entry chunks
/// (GFSL-32), `p_chunk ≈ 1`, merge threshold `DSIZE/3`.
#[derive(Debug, Clone, Copy)]
pub struct GfslParams {
    /// Team size = chunk entry count (16 or 32).
    pub team_size: TeamSize,
    /// Probability that a split raises a key to the next level. The paper
    /// finds `p_chunk ≈ 1` best in all tested mixtures.
    pub p_chunk: f64,
    /// A chunk is merged when a deletion leaves it with at most
    /// `DSIZE / merge_divisor` live entries (paper: 3).
    pub merge_divisor: u32,
    /// Pool capacity in chunks. The paper preallocates the device pool at
    /// initialization; splits and merges allocate from it. Unlinked zombie
    /// chunks are recycled back into circulation (epoch-based reclamation,
    /// see `gfsl_gpu_mem::reclaim` and DESIGN.md), so the bump pointer stops
    /// at the churn high-water mark instead of growing forever.
    pub pool_chunks: u32,
    /// Seed for the per-handle raise-coin RNG streams.
    pub seed: u64,
    /// Enable multiversion reads (DESIGN.md §19): a global version clock,
    /// per-chunk copy-on-write version chains captured at lock acquisition,
    /// and `pin_version` read tickets that serve `get`/`range`/snapshot
    /// walks at a frozen version without blocking on writer locks. Off by
    /// default: writers then skip all capture bookkeeping and versioned
    /// read entry points return `None`.
    pub mvcc: bool,
}

impl Default for GfslParams {
    fn default() -> Self {
        GfslParams {
            team_size: TeamSize::ThirtyTwo,
            p_chunk: 1.0,
            merge_divisor: 3,
            pool_chunks: 1 << 16,
            seed: 0x9E37_79B9_7F4A_7C15,
            mvcc: false,
        }
    }
}

impl GfslParams {
    /// Convenience: the default configuration sized to hold about
    /// `expected_keys` keys (chunks average ~62% full under random inserts;
    /// we budget 2.5 chunks-per-chunk's-worth of keys to absorb splits,
    /// zombies, and upper levels).
    pub fn sized_for(expected_keys: u64) -> GfslParams {
        let mut p = GfslParams::default();
        p.pool_chunks = Self::chunks_for(expected_keys, p.team_size);
        p
    }

    /// Pool size heuristic shared by `sized_for` and the harness.
    pub fn chunks_for(expected_keys: u64, team_size: TeamSize) -> u32 {
        let per_chunk = (team_size.dsize() as u64 * 5 / 10).max(1);
        let chunks = expected_keys / per_chunk + expected_keys / (per_chunk * per_chunk) + 4096;
        chunks.min(u32::MAX as u64 / team_size.lanes() as u64) as u32
    }

    /// Number of entries per chunk (`N`).
    pub fn lanes(&self) -> usize {
        self.team_size.lanes()
    }

    /// Data entries per chunk (`DSIZE`).
    pub fn dsize(&self) -> usize {
        self.team_size.dsize()
    }

    /// Merge threshold: merge when `live entries <= threshold` after a
    /// removal would leave the chunk at or below it.
    pub fn merge_threshold(&self) -> u32 {
        self.dsize() as u32 / self.merge_divisor.max(1)
    }

    /// Maximum skiplist height: limited to the team size because the
    /// traversal path is held one-level-per-lane (paper §4.2.2: ample —
    /// 16 levels of 16-entry chunks cover ~10^16 keys).
    pub fn max_levels(&self) -> usize {
        self.lanes()
    }

    /// Basic sanity checks; called by `Gfsl::new`.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.p_chunk) {
            return Err(format!("p_chunk must be in [0,1], got {}", self.p_chunk));
        }
        if self.merge_divisor < 2 {
            return Err("merge_divisor must be >= 2 (threshold must stay below DSIZE/2 so a split always leaves chunks above it)".into());
        }
        if self.pool_chunks < 2 {
            return Err("pool_chunks must be >= 2 (the bottom level's head, and a chunk for its first split)".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_best_config() {
        let p = GfslParams::default();
        assert_eq!(p.team_size, TeamSize::ThirtyTwo);
        assert_eq!(p.lanes(), 32);
        assert_eq!(p.dsize(), 30);
        assert_eq!(p.merge_threshold(), 10);
        assert_eq!(p.max_levels(), 32);
        assert_eq!(p.p_chunk, 1.0);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn sixteen_entry_geometry() {
        let p = GfslParams {
            team_size: TeamSize::Sixteen,
            ..Default::default()
        };
        assert_eq!(p.dsize(), 14);
        assert_eq!(p.merge_threshold(), 4);
        assert_eq!(p.max_levels(), 16);
    }

    #[test]
    fn mvcc_defaults_off() {
        // Versioned reads are opt-in: the default config must not pay for
        // capture bookkeeping on the write path.
        assert!(!GfslParams::default().mvcc);
    }

    #[test]
    fn sized_for_scales_with_keys() {
        let small = GfslParams::sized_for(1_000);
        let big = GfslParams::sized_for(10_000_000);
        assert!(big.pool_chunks > small.pool_chunks);
        // Enough chunks to actually hold the keys even at minimum fill.
        let min_fill = big.merge_threshold() as u64;
        assert!(big.pool_chunks as u64 * min_fill.max(1) >= 10_000_000 / 3);
    }

    #[test]
    fn validate_rejects_bad_params() {
        let p = GfslParams {
            p_chunk: 1.5,
            ..Default::default()
        };
        assert!(p.validate().is_err());
        let p = GfslParams {
            merge_divisor: 1,
            ..Default::default()
        };
        assert!(p.validate().is_err());
        let p = GfslParams {
            pool_chunks: 1,
            ..Default::default()
        };
        assert!(p.validate().is_err());
        let p = GfslParams {
            pool_chunks: 2,
            ..Default::default()
        };
        assert!(p.validate().is_ok(), "one head: the other levels' are allocated on first use");
    }
}
