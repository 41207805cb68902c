//! [`DurableCluster`]: the one durable engine — a key-range-sharded
//! cluster whose acknowledged writes survive process death. A single
//! durable list is the `n_shards: 1, n_lanes: 1` shape of it.
//!
//! ## The commit protocol
//!
//! Every mutation follows **apply → log → sync → ack**: the structural
//! operation runs first, then (only if it was effective — GFSL inserts are
//! set-like, so a duplicate insert changes nothing and logs nothing) its
//! [`WriteEffect`] goes through the engine's one commit routine
//! ([`CommitSink::commit`] on the lane log): effects partitioned by lane,
//! one append and one [`DurabilityContract`] sync per lane touched. The
//! per-op [`insert`](DurableCluster::insert) / [`remove`](DurableCluster::remove)
//! commit one effect; a serving edge commits an epoch's worth through
//! [`DurableCluster::sink`]. A crash before the log leaves an
//! applied-but-unlogged write that dies with the process — safe, because
//! it was never acknowledged. A crash after the sync loses nothing. The
//! window in between is the *maybe* zone the kill-restart soak models with
//! `InsertMaybe`/`RemoveMaybe` history records.
//!
//! ## Static WAL lanes, not per-shard logs
//!
//! The cluster reshards: splits and live migration move key ranges between
//! shards, so a log *per shard* would have to move records between logs
//! (or impose cross-log ordering) whenever the shard map changes. Instead
//! the engine logs into `n_lanes` **static** lanes — lane of a key is
//! `key % n_lanes`, fixed for the lifetime of the directory. Every op on a
//! given key lands in one lane in commit order, and because lanes own
//! disjoint key sets there is *no* cross-lane ordering to preserve: each
//! lane is an independent LSN space, synced independently, replayed in
//! any interleaving.
//!
//! ## Why replay is idempotent, and the checkpoint cut
//!
//! Only *effective* writes are logged, so per key the log alternates
//! `Put`/`Del`. Replaying a contiguous LSN suffix onto any state at least
//! as old as the replay floor converges to the post-log state: a `Put`
//! whose key is resident is a set-like no-op, a `Del` whose key is absent
//! likewise. The checkpointer therefore reads every lane's `last_lsn`
//! **before** taking the consistent cluster snapshot: apply happens before
//! log, so a write can be in the snapshot yet have `lsn > cut` — replayed
//! redundantly and absorbed. The reverse — a write with `lsn ≤ cut`
//! missing from the snapshot — cannot happen with cuts read first, and
//! that is the direction that would lose data.
//!
//! ## Recovery ([`DurableCluster::open`])
//!
//! 1. Sweep checkpoint temp files (a crash mid-publication leaves only
//!    `tmp-*` debris).
//! 2. Load the newest checkpoint that validates end to end, falling back
//!    on damage ([`ckpt::load_latest`]); its manifest carries the per-lane
//!    cuts, the shard-map epoch and every shard's key-range bounds, so the
//!    same shard layout comes back.
//! 3. Per lane, scan the WAL ([`wal::scan_wal`]): truncate a torn tail,
//!    refuse on mid-log corruption, damaged headers, or segment gaps.
//! 4. Refuse with [`RecoverError::WalGap`] if a lane's surviving log does
//!    not reach back to its cut — a stale checkpoint over a pruned log
//!    would otherwise silently lose acknowledged writes.
//! 5. Replay each lane's records past its cut, run the full validation
//!    walk, and only then serve.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

use gfsl::GfslParams;
use gfsl_cluster::{Cluster, ClusterSnapshot};
use gfsl_serve::{CommitSink, DurabilityContract, WriteEffect};

use crate::ckpt::{self, Manifest};
use crate::error::{OpError, RecoverError};
use crate::hook::Failpoints;
use crate::wal::{self, Wal, WalOp, WalRecord};

/// Shape of a durable engine's on-disk footprint.
#[derive(Debug, Clone)]
pub struct DurableClusterConfig {
    /// Root directory; lane `i` logs into `<dir>/wal/lane-<i>`,
    /// checkpoints live in `<dir>/ckpt`.
    pub dir: PathBuf,
    /// What an acknowledgement promises, per lane.
    pub contract: DurabilityContract,
    /// Records per WAL segment before rotation.
    pub seg_records: u32,
    /// Published checkpoints retained (≥ 2 keeps a fallback).
    pub ckpt_keep: usize,
    /// Static WAL lane count — fixed for the directory's lifetime; reopen
    /// with the same value.
    pub n_lanes: usize,
    /// Initial shard count (fresh creates only; recovery restores the
    /// checkpointed layout).
    pub n_shards: usize,
    /// Working key range (fresh creates only).
    pub key_range: u32,
    /// Structural parameters for every shard.
    pub params: GfslParams,
}

impl DurableClusterConfig {
    /// Defaults: fsync, 1024-record segments, 2 checkpoints, 4 lanes,
    /// 4 shards over keys `1..=1_000_000`.
    pub fn new(dir: impl Into<PathBuf>) -> DurableClusterConfig {
        DurableClusterConfig {
            dir: dir.into(),
            contract: DurabilityContract::Synced,
            seg_records: 1024,
            ckpt_keep: 2,
            n_lanes: 4,
            n_shards: 4,
            key_range: 1_000_000,
            params: GfslParams::default(),
        }
    }

    /// Lane `lane`'s WAL directory.
    pub fn lane_dir(&self, lane: usize) -> PathBuf {
        self.dir.join("wal").join(format!("lane-{lane:04}"))
    }

    /// The checkpoint directory.
    pub fn ckpt_dir(&self) -> PathBuf {
        self.dir.join("ckpt")
    }
}

/// What [`DurableCluster::open`] did to get back to a servable engine.
#[derive(Debug, Default, Clone, serde::Serialize)]
pub struct RecoveryReport {
    /// Sequence of the checkpoint restored from (`None`: started empty).
    pub checkpoint_seq: Option<u64>,
    /// Pairs the checkpoint contributed.
    pub checkpoint_pairs: u64,
    /// Newer checkpoints skipped as damaged: `(seq, why)`.
    pub checkpoint_fallbacks: Vec<(u64, String)>,
    /// Checkpoint temp files swept (crash mid-publication).
    pub swept_temps: u64,
    /// WAL records replayed past the checkpoint cut.
    pub replayed: u64,
    /// Replayed records that were already reflected (set-like no-ops) —
    /// the overlap idempotent replay absorbs.
    pub redundant_replays: u64,
    /// Bytes truncated from torn WAL tails.
    pub truncated_bytes: u64,
    /// Headerless final segments removed.
    pub removed_torn_segments: u64,
    /// Highest LSN durable on any lane after recovery.
    pub last_lsn: u64,
    /// Keys resident after recovery.
    pub recovered_keys: u64,
}

/// Everything a commit touches: the per-lane logs and the failpoint hook,
/// behind the one lock the per-op API and an edge's workers share.
struct LaneLog {
    lanes: Vec<Wal>,
    hook: Failpoints,
    /// Per-lane record buffers, kept across commits.
    scratch: Vec<Vec<WalOp>>,
}

impl CommitSink for LaneLog {
    /// The engine's one commit routine: `effects` partitioned by
    /// `key % n_lanes` (per-key order kept — a key has one lane), then one
    /// append and one contract sync per lane touched. Returns the highest
    /// LSN any touched lane assigned.
    fn commit(&mut self, effects: &[WriteEffect]) -> std::io::Result<u64> {
        let n_lanes = self.lanes.len();
        self.scratch.iter_mut().for_each(Vec::clear);
        for e in effects {
            self.scratch[e.key as usize % n_lanes].push(match e.value {
                Some(val) => WalOp::Put { key: e.key, val },
                None => WalOp::Del { key: e.key },
            });
        }
        let mut last = 0;
        for (wal, ops) in self.lanes.iter_mut().zip(&self.scratch) {
            if !ops.is_empty() {
                last = last.max(wal.append(ops, &mut self.hook)?.1);
            }
        }
        Ok(last)
    }
}

/// A sharded cluster + per-lane WALs + manifest-published checkpoints.
pub struct DurableCluster {
    cluster: Arc<Cluster>,
    log: Arc<Mutex<LaneLog>>,
    ckpt_dir: PathBuf,
    ckpt_keep: usize,
    contract: DurabilityContract,
    ckpt_seq: u64,
}

impl DurableCluster {
    fn assemble(
        cfg: &DurableClusterConfig,
        cluster: Cluster,
        lanes: Vec<Wal>,
        ckpt_seq: u64,
    ) -> DurableCluster {
        DurableCluster {
            cluster: Arc::new(cluster),
            log: Arc::new(Mutex::new(LaneLog {
                scratch: vec![Vec::new(); lanes.len()],
                lanes,
                hook: Failpoints::Off,
            })),
            ckpt_dir: cfg.ckpt_dir(),
            ckpt_keep: cfg.ckpt_keep.max(1),
            contract: cfg.contract,
            ckpt_seq,
        }
    }

    /// Create a fresh durable engine (empty shards, empty lanes).
    pub fn create(cfg: &DurableClusterConfig) -> Result<DurableCluster, RecoverError> {
        assert!(cfg.n_lanes >= 1, "need at least one WAL lane");
        let cluster = Cluster::prefilled(
            cfg.params,
            cfg.n_shards,
            cfg.key_range,
            std::iter::empty::<(u32, u32)>(),
        )
        .map_err(RecoverError::Rebuild)?;
        let lanes = (0..cfg.n_lanes)
            .map(|i| Wal::create(cfg.lane_dir(i), cfg.contract, cfg.seg_records))
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok(DurableCluster::assemble(cfg, cluster, lanes, 0))
    }

    /// Recover an engine from `cfg.dir` (see module docs for the state
    /// machine). Every acknowledged write is present when this returns;
    /// any repair taken is in the [`RecoveryReport`].
    pub fn open(
        cfg: &DurableClusterConfig,
    ) -> Result<(DurableCluster, RecoveryReport), RecoverError> {
        assert!(cfg.n_lanes >= 1, "need at least one WAL lane");
        let mut report = RecoveryReport {
            swept_temps: ckpt::clean_temps(&cfg.ckpt_dir())?,
            ..RecoveryReport::default()
        };

        let scan = ckpt::load_latest(&cfg.ckpt_dir())?;
        report.checkpoint_fallbacks = scan.fallbacks;
        let (cuts, bounds, pairs) = match scan.loaded {
            Some(loaded) => {
                report.checkpoint_seq = Some(loaded.manifest.seq);
                report.checkpoint_pairs = loaded.manifest.n_pairs;
                if loaded.manifest.lane_cuts.len() != cfg.n_lanes {
                    return Err(RecoverError::Invalid(format!(
                        "checkpoint has {} WAL lanes, config says {} — lane \
                         count is fixed per directory",
                        loaded.manifest.lane_cuts.len(),
                        cfg.n_lanes
                    )));
                }
                (loaded.manifest.lane_cuts, loaded.manifest.shard_bounds, loaded.pairs)
            }
            None => (vec![0; cfg.n_lanes], Vec::new(), Vec::new()),
        };

        // Restore the checkpointed shard layout, or the configured fresh
        // layout when starting from nothing.
        let cluster = if bounds.is_empty() {
            Cluster::prefilled(cfg.params, cfg.n_shards, cfg.key_range, pairs)
        } else {
            let interior: Vec<u32> = bounds.iter().skip(1).map(|&(lo, _)| lo).collect();
            Cluster::prefilled_with_bounds(cfg.params, &interior, pairs)
        }
        .map_err(RecoverError::Rebuild)?;

        // Scan, gap-check, and replay each lane independently — disjoint
        // key ownership means no cross-lane ordering exists to violate.
        let mut lanes = Vec::with_capacity(cfg.n_lanes);
        for (lane, &cut) in cuts.iter().enumerate() {
            let lane_scan = wal::scan_wal(&cfg.lane_dir(lane))?;
            report.truncated_bytes += lane_scan.truncated_bytes;
            report.removed_torn_segments += lane_scan.removed_torn_segments;
            check_reach(&lane_scan, cut)?;
            let (replayed, redundant) = replay(&cluster, &lane_scan.records, cut)?;
            report.replayed += replayed;
            report.redundant_replays += redundant;
            let lane_wal =
                Wal::resume(cfg.lane_dir(lane), cfg.contract, cfg.seg_records, &lane_scan, cut)?;
            report.last_lsn = report.last_lsn.max(lane_wal.last_lsn());
            lanes.push(lane_wal);
        }

        let violations = cluster.validate();
        if !violations.is_empty() {
            let (shard, v) = &violations[0];
            return Err(RecoverError::Invalid(format!(
                "{} shards with violations, first: shard {shard}: {:?}",
                violations.len(),
                v[0]
            )));
        }
        report.recovered_keys = cluster.len() as u64;

        let ckpt_seq = report.checkpoint_seq.unwrap_or(0);
        Ok((DurableCluster::assemble(cfg, cluster, lanes, ckpt_seq), report))
    }

    /// The underlying cluster (reads, resharding, migration, validation);
    /// clone the `Arc` to serve it from an edge.
    pub fn cluster(&self) -> &Arc<Cluster> {
        &self.cluster
    }

    /// The engine's commit routine as a shareable [`CommitSink`]: a serving
    /// loop that executes epochs on [`Self::cluster`] hands each epoch's
    /// effective writes here before it acknowledges them.
    pub fn sink(&self) -> Arc<Mutex<dyn CommitSink + Send>> {
        self.log.clone()
    }

    /// Route the durable path's crash points to `hook` (chaos soak entry
    /// point).
    pub fn set_hook(&mut self, hook: Failpoints) {
        lock(&self.log).hook = hook;
    }

    /// Insert `key → value`; `Ok(true)` — durable on its lane — iff the
    /// key was absent. An effective insert is applied, logged, and synced
    /// before this returns.
    pub fn insert(&mut self, key: u32, value: u32) -> Result<bool, OpError> {
        let applied = self.cluster.insert(key, value)?;
        if applied {
            lock(&self.log).commit(&[WriteEffect { key, value: Some(value) }])?;
        }
        Ok(applied)
    }

    /// Remove `key`; `Ok(true)` — durable — iff the key was present.
    pub fn remove(&mut self, key: u32) -> Result<bool, OpError> {
        let applied = self.cluster.remove(key)?;
        if applied {
            lock(&self.log).commit(&[WriteEffect { key, value: None }])?;
        }
        Ok(applied)
    }

    /// Read `key` (no durability interaction).
    pub fn get(&self, key: u32) -> Result<Option<u32>, OpError> {
        Ok(self.cluster.get(key)?)
    }

    /// Publish a checkpoint: per-lane cuts read first, then a consistent
    /// cluster snapshot, then manifest publication and per-lane pruning.
    /// Commits wait out the publication (the lane log stays locked);
    /// applies do not, which is why the cuts come first.
    pub fn checkpoint(&mut self) -> std::io::Result<Manifest> {
        let mut log = lock(&self.log);
        let LaneLog { lanes, hook, .. } = &mut *log;
        // Cuts BEFORE the snapshot: apply precedes log, so reading cuts
        // first can only over-include (redundant replay, absorbed), never
        // under-include (lost writes).
        let cuts: Vec<u64> = lanes.iter().map(|w| w.last_lsn()).collect();
        let snap: ClusterSnapshot = self.cluster.snapshot();
        let shard_bounds: Vec<(u32, u32)> =
            snap.cuts.iter().map(|c| (c.lo, c.hi)).collect();
        // With mvcc on the snapshot is a version-pinned cut; record the
        // per-shard pinned versions so the manifest says which cut
        // discipline produced the data file (empty = legacy write-held).
        let shard_versions: Vec<u64> = if snap.pinned() {
            snap.cuts.iter().map(|c| c.version).collect()
        } else {
            Vec::new()
        };
        let manifest = ckpt::write_checkpoint(
            &self.ckpt_dir,
            &Manifest {
                seq: self.ckpt_seq + 1,
                epoch: snap.epoch,
                lane_cuts: cuts.clone(),
                shard_bounds,
                n_pairs: 0,
                n_pages: 0,
                shard_versions,
            },
            &snap.pairs,
            self.contract,
            hook,
        )?;
        self.ckpt_seq = manifest.seq;
        ckpt::prune_old(&self.ckpt_dir, self.ckpt_keep)?;
        // Prune each lane only to the oldest RETAINED checkpoint's cut, so
        // fallback from a damaged newer checkpoint can still replay.
        let mut safe_cuts = cuts;
        for seq in ckpt::list_checkpoints(&self.ckpt_dir)? {
            if let Some(m) = ckpt::read_manifest(&self.ckpt_dir, seq) {
                for (safe, &c) in safe_cuts.iter_mut().zip(m.lane_cuts.iter()) {
                    *safe = (*safe).min(c);
                }
            }
        }
        for (lane, &cut) in lanes.iter_mut().zip(&safe_cuts) {
            lane.prune_upto(cut, hook)?;
        }
        Ok(manifest)
    }

    /// Sum of per-lane lifetime counters.
    pub fn wal_stats(&self) -> wal::WalStats {
        let mut total = wal::WalStats::default();
        for w in &lock(&self.log).lanes {
            total.group_commits += w.stats.group_commits;
            total.records += w.stats.records;
            total.syncs += w.stats.syncs;
            total.rotations += w.stats.rotations;
            total.pruned_segments += w.stats.pruned_segments;
        }
        total
    }
}

impl std::fmt::Debug for DurableCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableCluster")
            .field("ckpt_seq", &self.ckpt_seq)
            .finish_non_exhaustive()
    }
}

/// A poisoned lane lock means a commit or checkpoint died part-way (an
/// injected kill): what is on disk is recovery's to judge, not this
/// process's to keep appending to.
fn lock(log: &Mutex<LaneLog>) -> MutexGuard<'_, LaneLog> {
    log.lock().expect("a commit panicked under the lane lock: reopen the engine")
}

/// Refuse if a lane's surviving log cannot replay everything past `cut`.
fn check_reach(scan: &wal::WalScanned, cut: u64) -> Result<(), RecoverError> {
    let first_available = scan
        .records
        .first()
        .map(|r| r.lsn)
        .or_else(|| scan.tail.map(|t| t.base_lsn));
    if let Some(first_available) = first_available {
        if first_available > cut + 1 {
            return Err(RecoverError::WalGap {
                need_from: cut + 1,
                first_available,
            });
        }
    }
    Ok(())
}

/// Replay one lane's `records` past `cut` onto `cluster`; returns
/// `(replayed, redundant)`.
fn replay(cluster: &Cluster, records: &[WalRecord], cut: u64) -> Result<(u64, u64), RecoverError> {
    let (mut replayed, mut redundant) = (0, 0);
    for r in records.iter().filter(|r| r.lsn > cut) {
        let effective = match r.op {
            WalOp::Put { key, val } => cluster.insert(key, val),
            WalOp::Del { key } => cluster.remove(key),
        }
        .map_err(RecoverError::Rebuild)?;
        replayed += 1;
        redundant += u64::from(!effective);
    }
    Ok((replayed, redundant))
}

/// Remove an engine's entire on-disk footprint (tests, tooling).
pub fn destroy(dir: &Path) -> std::io::Result<()> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `(lanes, shards) = (3, 4)` shape.
    fn cfg(name: &str) -> DurableClusterConfig {
        let dir =
            std::env::temp_dir().join(format!("gfsl_dclu_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        DurableClusterConfig {
            seg_records: 8,
            n_lanes: 3,
            n_shards: 4,
            key_range: 10_000,
            ..DurableClusterConfig::new(dir)
        }
    }

    /// The single-list shape: one shard, one lane.
    fn single(name: &str) -> DurableClusterConfig {
        DurableClusterConfig {
            n_lanes: 1,
            n_shards: 1,
            ..cfg(name)
        }
    }

    #[test]
    fn create_write_reopen_recovers_everything() {
        let cfg = single("roundtrip1");
        let mut eng = DurableCluster::create(&cfg).unwrap();
        for k in 1..=200u32 {
            assert!(eng.insert(k * 2, k).unwrap());
        }
        assert!(!eng.insert(2, 99).unwrap(), "set-like duplicate");
        for k in 1..=50u32 {
            assert!(eng.remove(k * 4).unwrap());
        }
        let stats = eng.wal_stats();
        assert_eq!(stats.records, 250, "200 puts + 50 dels, duplicates unlogged");
        assert_eq!(stats.group_commits, 250, "a per-op write is a one-effect commit");
        drop(eng); // process death: memory gone, files remain

        let (eng, report) = DurableCluster::open(&cfg).unwrap();
        assert_eq!(report.replayed, 250);
        assert_eq!(report.recovered_keys, 150);
        assert_eq!(report.checkpoint_seq, None);
        assert_eq!(report.last_lsn, 250);
        assert_eq!(eng.get(4).unwrap(), None, "removed key stays removed");
        assert_eq!(eng.get(202).unwrap(), Some(101));
        eng.cluster().assert_valid();
        destroy(&cfg.dir).unwrap();
    }

    #[test]
    fn checkpoint_prunes_wal_and_bounds_replay() {
        let cfg = single("ckpt1");
        let mut eng = DurableCluster::create(&cfg).unwrap();
        for k in 1..=100u32 {
            eng.insert(k, k + 1).unwrap();
        }
        let m = eng.checkpoint().unwrap();
        assert_eq!(m.lane_cuts, vec![100]);
        assert!(eng.wal_stats().pruned_segments > 0, "covered segments go");
        for k in 101..=120u32 {
            eng.insert(k, k + 1).unwrap();
        }
        drop(eng);

        let (eng, report) = DurableCluster::open(&cfg).unwrap();
        assert_eq!(report.checkpoint_seq, Some(1));
        assert_eq!(report.checkpoint_pairs, 100);
        assert_eq!(report.replayed, 20, "only the post-cut tail replays");
        assert_eq!(report.recovered_keys, 120);
        assert_eq!(report.last_lsn, 120);
        eng.cluster().assert_valid();
        destroy(&cfg.dir).unwrap();
    }

    #[test]
    fn replay_overlap_is_idempotent() {
        // Rebuild from a state that already reflects part of the replayed
        // suffix: the set-like ops must converge, not double-apply.
        let cfg = single("overlap");
        let mut eng = DurableCluster::create(&cfg).unwrap();
        eng.insert(1, 10).unwrap(); // lsn 1
        eng.remove(1).unwrap(); // lsn 2
        eng.insert(1, 20).unwrap(); // lsn 3
        eng.insert(2, 30).unwrap(); // lsn 4
        drop(eng);

        // Replay EVERYTHING (cut 0) onto the final state itself.
        let wal_scan = wal::scan_wal(&cfg.lane_dir(0)).unwrap();
        let cluster =
            Cluster::prefilled(cfg.params, 1, cfg.key_range, [(1u32, 20u32), (2, 30)]).unwrap();
        let (replayed, redundant) = replay(&cluster, &wal_scan.records, 0).unwrap();
        assert_eq!(replayed, 4);
        // lsn1 Put(1,10): resident → no-op. lsn2 Del(1): effective. lsn3
        // Put(1,20): effective again. lsn4 Put(2,30): resident → no-op.
        assert_eq!(redundant, 2);
        assert_eq!(cluster.pairs(), [(1, 20), (2, 30)]);
        destroy(&cfg.dir).unwrap();
    }

    #[test]
    fn stale_checkpoint_over_pruned_wal_is_refused() {
        // ckpt_keep = 1: losing the only manifest leaves a pruned log with
        // no checkpoint to anchor it.
        let cfg = DurableClusterConfig {
            ckpt_keep: 1,
            ..single("stale")
        };
        let mut eng = DurableCluster::create(&cfg).unwrap();
        for k in 1..=60u32 {
            eng.insert(k, k).unwrap();
        }
        eng.checkpoint().unwrap(); // ckpt 1 @ cut 60, early segments pruned
        for k in 61..=80u32 {
            eng.insert(k, k).unwrap();
        }
        eng.checkpoint().unwrap(); // ckpt 2 @ cut 80, more pruning
        drop(eng);
        // Lose checkpoint 2: recovery falls back to checkpoint 1, but the
        // WAL records in (60, ~80] that checkpoint 2 covered are pruned.
        std::fs::remove_file(ckpt::manifest_path(&cfg.ckpt_dir(), 2)).unwrap();
        match DurableCluster::open(&cfg) {
            Err(RecoverError::WalGap { need_from, .. }) => assert_eq!(need_from, 1),
            other => panic!("expected WalGap, got {other:?}"),
        }
        destroy(&cfg.dir).unwrap();
    }

    /// The commit routine on a multi-lane epoch: each touched lane gets one
    /// append (the untouched lane none), a key's two effective writes stay
    /// in order on its lane, and the log replays to the live state.
    #[test]
    fn a_multi_lane_epoch_commits_each_touched_lane_once() {
        let cfg = cfg("epoch");
        let dc = DurableCluster::create(&cfg).unwrap();
        let put = |key, v| WriteEffect { key, value: Some(v) };
        // What an edge worker does: execute on the cluster, then commit the
        // effects in execution order. Lanes: 4 → 1, 7 → 1, 5 → 2; lane 0 idle.
        let epoch = [put(4, 40), put(5, 50), WriteEffect { key: 4, value: None }, put(7, 70), put(4, 41)];
        for e in &epoch {
            let applied = match e.value {
                Some(v) => dc.cluster().insert(e.key, v),
                None => dc.cluster().remove(e.key),
            };
            assert!(applied.unwrap(), "every write of the epoch is effective");
        }
        let last = dc.sink().lock().unwrap().commit(&epoch).unwrap();
        assert_eq!(last, 4, "lane 1 took four records, lane 2 one");
        let stats = dc.wal_stats();
        assert_eq!((stats.group_commits, stats.syncs, stats.records), (2, 2, 5));
        assert_eq!(wal::scan_wal(&cfg.lane_dir(0)).unwrap().records.len(), 0);
        let lane1: Vec<WalOp> =
            wal::scan_wal(&cfg.lane_dir(1)).unwrap().records.iter().map(|r| r.op).collect();
        assert_eq!(
            lane1,
            [
                WalOp::Put { key: 4, val: 40 },
                WalOp::Del { key: 4 },
                WalOp::Put { key: 7, val: 70 },
                WalOp::Put { key: 4, val: 41 },
            ]
        );
        let live = dc.cluster().pairs();
        drop(dc);

        let (dc, report) = DurableCluster::open(&cfg).unwrap();
        assert_eq!((report.replayed, report.redundant_replays), (5, 0));
        assert_eq!(dc.cluster().pairs(), live);
        assert_eq!(live, [(4, 41), (5, 50), (7, 70)]);
        destroy(&cfg.dir).unwrap();
    }

    #[test]
    fn cluster_write_reopen_recovers_across_lanes() {
        let cfg = cfg("roundtrip");
        let mut dc = DurableCluster::create(&cfg).unwrap();
        for k in 1..=300u32 {
            assert!(dc.insert(k * 7 % 9973 + 1, k).unwrap());
        }
        let expect = dc.cluster().pairs();
        drop(dc);

        let (dc, report) = DurableCluster::open(&cfg).unwrap();
        assert_eq!(report.replayed, 300);
        assert_eq!(report.recovered_keys, 300);
        assert_eq!(dc.cluster().pairs(), expect);
        dc.cluster().assert_valid();
        destroy(&cfg.dir).unwrap();
    }

    #[test]
    fn checkpoint_restores_shard_layout_and_bounds_replay() {
        let cfg = cfg("ckpt");
        let mut dc = DurableCluster::create(&cfg).unwrap();
        for k in 1..=200u32 {
            dc.insert(k * 31 % 9007 + 1, k).unwrap();
        }
        let bounds_before = dc.cluster().bounds();
        let m = dc.checkpoint().unwrap();
        assert_eq!(m.lane_cuts.len(), 3);
        assert_eq!(m.shard_bounds, bounds_before);
        for k in 500..540u32 {
            dc.insert(k * 13 + 100_000 % 9973, k).unwrap();
        }
        let expect = dc.cluster().pairs();
        drop(dc);

        let (dc, report) = DurableCluster::open(&cfg).unwrap();
        assert_eq!(report.checkpoint_seq, Some(1));
        assert_eq!(report.replayed, 40, "only post-cut lane tails replay");
        assert_eq!(dc.cluster().bounds(), bounds_before, "layout restored");
        assert_eq!(dc.cluster().pairs(), expect);
        dc.cluster().assert_valid();
        destroy(&cfg.dir).unwrap();
    }

    #[test]
    fn mvcc_checkpoints_are_version_pinned_and_recover() {
        let cfg = DurableClusterConfig {
            params: GfslParams {
                mvcc: true,
                ..GfslParams::default()
            },
            ..cfg("mvcc")
        };
        let mut dc = DurableCluster::create(&cfg).unwrap();
        for k in 1..=200u32 {
            dc.insert(k * 17 % 9901 + 1, k).unwrap();
        }
        let m = dc.checkpoint().unwrap();
        assert_eq!(
            m.shard_versions.len(),
            m.shard_bounds.len(),
            "pinned cut records one version per shard"
        );
        assert!(
            m.shard_versions.iter().all(|&v| v != 0),
            "version clocks start at 1: {:?}",
            m.shard_versions
        );
        // The manifest (with its optional versions section) survives the
        // disk roundtrip: reopen reads it back and recovery replays only
        // the post-cut tails.
        for k in 300..330u32 {
            dc.insert(k * 37 + 50_000, k).unwrap();
        }
        let expect = dc.cluster().pairs();
        drop(dc);

        let (dc, report) = DurableCluster::open(&cfg).unwrap();
        assert_eq!(report.checkpoint_seq, Some(1));
        assert_eq!(report.replayed, 30, "only post-cut lane tails replay");
        assert_eq!(dc.cluster().pairs(), expect);
        dc.cluster().assert_valid();
        destroy(&cfg.dir).unwrap();
    }

    #[test]
    fn lane_count_mismatch_is_refused() {
        let cfg = cfg("lanes");
        let mut dc = DurableCluster::create(&cfg).unwrap();
        for k in 1..=50u32 {
            dc.insert(k, k).unwrap();
        }
        dc.checkpoint().unwrap();
        drop(dc);
        let wrong = DurableClusterConfig {
            n_lanes: 5,
            ..cfg.clone()
        };
        match DurableCluster::open(&wrong) {
            Err(RecoverError::Invalid(msg)) => assert!(msg.contains("lane")),
            other => panic!("expected Invalid, got {other:?}"),
        }
        destroy(&cfg.dir).unwrap();
    }
}
