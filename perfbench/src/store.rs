//! The structure under test, built fresh and identical for every trial, and
//! what can be read off it from outside once the trial is over.

use std::sync::Arc;

use gfsl::{Gfsl, GfslParams, ReclaimStats};
use gfsl_cluster::Cluster;
use gfsl_edge::EdgeEngine;

use crate::gen::{hot_prefill, HOT_SPAN};

/// Shards of the cluster workloads: the hot span split evenly.
pub const SHARDS: u32 = 4;

#[derive(Clone)]
pub enum Store {
    Single(Arc<Gfsl>),
    Cluster(Arc<Cluster>),
}

/// End-of-trial readings, summed over shards.
#[derive(Debug, Default, Clone, Copy)]
pub struct StoreReading {
    pub chunks_allocated: u64,
    pub live_pairs: u64,
    pub zombie_chunks: u64,
    pub retired: u64,
    pub reclaimed: u64,
    pub reused: u64,
    pub limbo: u64,
    pub violations: u64,
}

impl Store {
    pub fn single(params: GfslParams, prefill: impl Iterator<Item = (u32, u32)>) -> Store {
        Store::Single(Arc::new(
            Gfsl::from_sorted_pairs(params, prefill).expect("bulk build"),
        ))
    }

    /// The hot key space of the edge workloads and the ladder, prefilled: one
    /// structure, or four shards splitting the span evenly — each bulk-built
    /// like the single structure, so both engines start from the same chunk
    /// shapes.
    pub fn hot(cluster: bool) -> Store {
        if !cluster {
            return Store::single(GfslParams::default(), hot_prefill());
        }
        let width = HOT_SPAN / SHARDS;
        let bounds: Vec<u32> = (1..SHARDS).map(|i| 1 + i * width).collect();
        Store::Cluster(Arc::new(
            Cluster::prefilled_with_bounds(GfslParams::default(), &bounds, hot_prefill())
                .expect("bulk build"),
        ))
    }

    pub fn engine(&self) -> EdgeEngine {
        match self {
            Store::Single(l) => EdgeEngine::Single(l.clone()),
            Store::Cluster(c) => EdgeEngine::Cluster(c.clone()),
        }
    }

    pub fn pairs(&self) -> Vec<(u32, u32)> {
        match self {
            Store::Single(l) => l.pairs(),
            Store::Cluster(c) => c.pairs(),
        }
    }

    /// Quiescent use only: walks every chunk (`validate`, `shape`).
    pub fn read(&self) -> StoreReading {
        let mut r = StoreReading::default();
        let mut add = |list: &Gfsl, violations: usize| {
            let shape = list.shape();
            r.chunks_allocated += u64::from(shape.chunks_allocated);
            r.live_pairs += shape.len();
            r.zombie_chunks += shape
                .levels
                .iter()
                .map(|l| u64::from(l.zombie_chunks))
                .sum::<u64>();
            let rs: ReclaimStats = shape.reclaim.unwrap_or_default();
            r.retired += rs.retired;
            r.reclaimed += rs.zombies_reclaimed;
            r.reused += rs.reused;
            r.limbo += rs.limbo_len;
            r.violations += violations as u64;
        };
        match self {
            Store::Single(l) => add(l, l.validate().len()),
            Store::Cluster(c) => {
                // Cluster::validate also checks every key sits in its shard.
                let bad: usize = c.validate().iter().map(|(_, v)| v.len()).sum();
                let shards = c.shards();
                for (i, s) in shards.iter().enumerate() {
                    add(&s.list, if i == 0 { bad } else { 0 });
                }
            }
        }
        r
    }
}

impl StoreReading {
    /// Bytes of chunks handed out per byte of live pairs. A chunk is `lanes`
    /// 8-byte words; a pair is one such word.
    pub fn space_amp(&self, lanes: usize) -> f64 {
        (self.chunks_allocated * lanes as u64) as f64 / self.live_pairs.max(1) as f64
    }

    pub fn zombie_fraction(&self) -> f64 {
        self.zombie_chunks as f64 / self.chunks_allocated.max(1) as f64
    }

    pub fn reuse_ratio(&self) -> f64 {
        self.reused as f64 / self.retired.max(1) as f64
    }
}
