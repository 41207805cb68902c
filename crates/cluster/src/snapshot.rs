//! Consistent cluster-wide snapshots: a brief all-shard fence to stamp the
//! cut, then (with mvcc on) wait-free version-pinned export walks.
//!
//! Consistency argument, both modes: the snapshot write-holds *every* shard
//! fence simultaneously (acquired in index order, the global fence order),
//! so there is an instant `T` — after the last fence is acquired and before
//! the first is released — at which no routed operation is running
//! anywhere. Every op completed before its shard's fence acquisition is
//! included; every op blocked on a fence completes after release. The
//! snapshot is therefore exactly the cluster state at `T`: a linearizable
//! cut, including across shards.
//!
//! The two modes differ in *how long* the fences stay held:
//!
//! * **Legacy (mvcc off)**: the fences are held for the eager per-shard
//!   export (a sequential pair walk over every resident key) — writers
//!   block for the whole walk.
//! * **Version-pinned (mvcc on)**: the fences are held only long enough to
//!   [`pin_version`](gfsl::Gfsl::pin_version) each shard — microseconds,
//!   independent of data volume. At `T` every shard is op-quiescent, so
//!   the per-shard pinned versions jointly name the cluster state at `T`.
//!   The fences then drop and the export walks run against the tickets,
//!   wait-free with respect to resumed writers: a writer that locks a
//!   chunk first pushes its pre-image onto the chunk's version chain, and
//!   the pinned walk resolves through the chain (see `gfsl::mvcc`).

use gfsl::{Error, Gfsl, GfslParams};

use crate::cluster::Cluster;

/// Where each shard's pairs landed inside a [`ClusterSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub struct ShardCut {
    /// Shard id at the cut.
    pub id: u64,
    /// Inclusive lower key bound at the cut.
    pub lo: u32,
    /// Exclusive upper key bound at the cut.
    pub hi: u32,
    /// Number of pairs this shard contributed.
    pub pairs: usize,
    /// The shard's pinned mvcc version (`0` for a legacy write-held cut —
    /// version clocks start at 1, so 0 is unambiguous).
    pub version: u64,
}

/// A consistent, point-in-time image of the whole cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterSnapshot {
    /// Shard-map epoch the cut was taken under.
    pub epoch: u64,
    /// Every pair in the cluster, ascending by key.
    pub pairs: Vec<(u32, u32)>,
    /// Per-shard contribution layout.
    pub cuts: Vec<ShardCut>,
}

impl ClusterSnapshot {
    /// Materialize the snapshot as a single bulk-built GFSL (the export
    /// path: a cluster collapses into one structure for offline use).
    pub fn to_gfsl(&self, params: GfslParams) -> Result<Gfsl, Error> {
        Gfsl::from_sorted_pairs(params, self.pairs.iter().copied())
    }

    /// Was this cut taken on the version-pinned (wait-free export) path?
    pub fn pinned(&self) -> bool {
        self.cuts.iter().all(|c| c.version != 0) && !self.cuts.is_empty()
    }
}

impl Cluster {
    /// Take a consistent cluster-wide snapshot (see module docs). With
    /// [`GfslParams::mvcc`] on, routed ops block only while the per-shard
    /// versions are stamped; otherwise for the duration of the export
    /// walks.
    pub fn snapshot(&self) -> ClusterSnapshot {
        // Stabilize the shard set against concurrent migrations.
        let _structural = self.reshard.lock();
        let (shards, epoch) = {
            let m = self.map.read();
            (m.shards.clone(), m.epoch)
        };
        let fences: Vec<_> = shards.iter().map(|s| s.fence.write()).collect();
        // Heal before walking: exports must not traverse quarantined
        // chunks. Rare (a contained op crashed), so the
        // pinned path's brief-fence claim holds in the common case.
        for s in &shards {
            s.drain_quarantine();
        }

        if self.params.mvcc {
            // Stamp the cut: one pin per shard while every fence is
            // write-held, so the tickets jointly name the instant `T`.
            let tickets: Vec<_> = shards
                .iter()
                .map(|s| s.list.pin_version().expect("mvcc knob is on"))
                .collect();
            drop(fences);
            // Wait-free export: writers have resumed, the pinned walks
            // resolve racing chunks through their version chains.
            let per_shard: Vec<Vec<(u32, u32)>> = shards
                .iter()
                .zip(&tickets)
                .map(|(s, t)| s.list.handle().pairs_at(t))
                .collect();
            return stitch(epoch, &shards, per_shard, |i| tickets[i].version());
        }

        let per_shard: Vec<Vec<(u32, u32)>> = shards
            .iter()
            .map(|s| s.list.export_pairs().collect())
            .collect();
        drop(fences);
        stitch(epoch, &shards, per_shard, |_| 0)
    }
}

fn stitch(
    epoch: u64,
    shards: &[std::sync::Arc<crate::shard::Shard>],
    per_shard: Vec<Vec<(u32, u32)>>,
    version: impl Fn(usize) -> u64,
) -> ClusterSnapshot {
    let mut pairs = Vec::with_capacity(per_shard.iter().map(Vec::len).sum());
    let mut cuts = Vec::with_capacity(shards.len());
    for (i, (s, p)) in shards.iter().zip(per_shard).enumerate() {
        cuts.push(ShardCut {
            id: s.id,
            lo: s.lo,
            hi: s.hi,
            pairs: p.len(),
            version: version(i),
        });
        pairs.extend(p);
    }
    debug_assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0), "sorted stitch");
    ClusterSnapshot { epoch, pairs, cuts }
}
