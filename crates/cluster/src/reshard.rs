//! Live resharding: shard split, shard merge, and the load-aware policy
//! that drives them.
//!
//! A migration is a short exclusive section on the victim shard(s): take
//! the write fence (waits out in-flight routed ops, blocks new ones), drain
//! the quarantine so the export walks a healthy structure, export the pairs,
//! bulk-build the successor structures, and swap the shard map under a
//! brief `map.write` with an epoch bump. Ops that routed to the retired
//! shard before the swap see the identity mismatch on their verify re-read
//! and re-route to a successor inside the call. No acknowledged write can
//! be lost: the export happens strictly after every in-flight op released
//! its read fence, and the successors are installed strictly before any new
//! op can fence them.

use std::sync::Arc;

use gfsl::{Error, Gfsl};

use crate::cluster::Cluster;
use crate::shard::Shard;

/// One installed migration, for logs and the harness report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReshardEvent {
    /// `shard` was split at key `at` into `left = [lo, at)` and
    /// `right = [at, hi)`.
    Split {
        /// Retired shard id.
        shard: u64,
        /// First key owned by the right successor.
        at: u32,
        /// New left shard id.
        left: u64,
        /// New right shard id.
        right: u64,
    },
    /// Adjacent shards `left` and `right` were compacted into `into`.
    Merge {
        /// Retired left shard id.
        left: u64,
        /// Retired right shard id.
        right: u64,
        /// New combined shard id.
        into: u64,
    },
}

/// When to split a hot shard and merge cold neighbours.
///
/// The rebalancer samples per-shard windowed op counts (reset on every
/// [`Cluster::rebalance_step`]) and fires at most one migration per step:
/// split the hottest shard when it carries more than `hot_factor ×` the
/// mean window load, else merge the coldest adjacent pair when both sit
/// under `cold_factor ×` the mean. Windows with fewer than
/// `min_window_ops` total ops are ignored (idle clusters don't thrash).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RebalancePolicy {
    /// Split threshold as a multiple of the mean per-shard window load.
    pub hot_factor: f64,
    /// Merge threshold as a multiple of the mean per-shard window load.
    pub cold_factor: f64,
    /// Minimum total window ops before the policy acts at all.
    pub min_window_ops: u64,
    /// Never split past this many shards.
    pub max_shards: usize,
    /// Never merge below this many shards.
    pub min_shards: usize,
}

impl Default for RebalancePolicy {
    fn default() -> RebalancePolicy {
        RebalancePolicy {
            hot_factor: 2.0,
            cold_factor: 0.35,
            min_window_ops: 1_000,
            max_shards: 32,
            min_shards: 1,
        }
    }
}

impl Cluster {
    /// Find a live shard by id: `(index, shard)` under the current map.
    fn find_by_id(&self, id: u64) -> Option<(usize, Arc<Shard>)> {
        let m = self.map.read();
        m.shards
            .iter()
            .position(|s| s.id == id)
            .map(|i| (i, m.shards[i].clone()))
    }

    /// Split shard `id` into two: the top half of its pairs (by count)
    /// moves into a fresh GFSL. Returns `Ok(None)` when the shard is gone
    /// (already migrated) or too narrow to split.
    pub fn split_shard(&self, id: u64) -> Result<Option<ReshardEvent>, Error> {
        let _structural = self.reshard.lock();
        let Some((index, shard)) = self.find_by_id(id) else {
            return Ok(None);
        };
        let _fence = shard.fence.write();
        shard.drain_quarantine();
        let pairs: Vec<(u32, u32)> = shard.list.export_pairs().collect();
        // Median key if there is one; fall back to the range midpoint for
        // thin shards so a hot-but-small range can still be subdivided.
        let at = if pairs.len() >= 2 {
            pairs[pairs.len() / 2].0
        } else {
            shard.lo + (shard.hi - shard.lo) / 2
        };
        if at <= shard.lo || at >= shard.hi {
            return Ok(None);
        }
        let cut = pairs.partition_point(|&(k, _)| k < at);
        let left = Gfsl::from_sorted_pairs(self.params, pairs[..cut].iter().copied())?;
        let right = Gfsl::from_sorted_pairs(self.params, pairs[cut..].iter().copied())?;
        let (lid, rid) = (self.mint_shard_id(), self.mint_shard_id());
        {
            let mut m = self.map.write();
            debug_assert_eq!(m.shards[index].id, id, "reshard lock pins the map");
            m.shards.splice(
                index..=index,
                [
                    Arc::new(Shard::new(lid, shard.lo, at, left)),
                    Arc::new(Shard::new(rid, at, shard.hi, right)),
                ],
            );
            m.epoch += 1;
        }
        Ok(Some(ReshardEvent::Split {
            shard: id,
            at,
            left: lid,
            right: rid,
        }))
    }

    /// Merge shard `id` with its right neighbour into one compacted shard.
    /// Returns `Ok(None)` when either shard is gone or `id` is rightmost.
    pub fn merge_with_right(&self, id: u64) -> Result<Option<ReshardEvent>, Error> {
        let _structural = self.reshard.lock();
        let Some((index, left)) = self.find_by_id(id) else {
            return Ok(None);
        };
        let right = {
            let m = self.map.read();
            match m.shards.get(index + 1) {
                Some(r) => r.clone(),
                None => return Ok(None),
            }
        };
        // Fences in index order — the global fence order.
        let _fl = left.fence.write();
        let _fr = right.fence.write();
        left.drain_quarantine();
        right.drain_quarantine();
        let merged = Gfsl::from_sorted_pairs(
            self.params,
            left.list.export_pairs().chain(right.list.export_pairs()),
        )?;
        let mid = self.mint_shard_id();
        {
            let mut m = self.map.write();
            debug_assert_eq!(m.shards[index].id, id, "reshard lock pins the map");
            m.shards.splice(
                index..=index + 1,
                [Arc::new(Shard::new(mid, left.lo, right.hi, merged))],
            );
            m.epoch += 1;
        }
        Ok(Some(ReshardEvent::Merge {
            left: id,
            right: right.id,
            into: mid,
        }))
    }

    /// Sample the load windows (resetting them) and perform at most one
    /// policy-directed migration. Returns the migration installed, if any.
    pub fn rebalance_step(
        &self,
        policy: &RebalancePolicy,
    ) -> Result<Option<ReshardEvent>, Error> {
        // Sample outside the reshard lock: the decision is heuristic and a
        // stale sample at worst wastes one no-op split/merge attempt.
        let loads: Vec<(u64, u64)> = self
            .shards()
            .iter()
            .map(|s| {
                let (r, w) = s.take_window();
                (s.id, r + w)
            })
            .collect();
        let total: u64 = loads.iter().map(|&(_, n)| n).sum();
        if total < policy.min_window_ops {
            return Ok(None);
        }
        let n = loads.len();
        let mean = total as f64 / n as f64;

        // Bootstrap: a single shard carrying real load always subdivides.
        if n == 1 && policy.max_shards > 1 {
            return self.split_shard(loads[0].0);
        }
        if n < policy.max_shards {
            let &(hot_id, hot_ops) = loads.iter().max_by_key(|&&(_, ops)| ops).unwrap();
            if hot_ops as f64 > policy.hot_factor * mean {
                if let Some(ev) = self.split_shard(hot_id)? {
                    return Ok(Some(ev));
                }
            }
        }
        if n > policy.min_shards {
            // Coldest adjacent pair where both members are individually cold.
            let cold = loads
                .windows(2)
                .filter(|w| {
                    (w[0].1 as f64) < policy.cold_factor * mean
                        && (w[1].1 as f64) < policy.cold_factor * mean
                })
                .min_by_key(|w| w[0].1 + w[1].1);
            if let Some(pair) = cold {
                return self.merge_with_right(pair[0].0);
            }
        }
        Ok(None)
    }
}
