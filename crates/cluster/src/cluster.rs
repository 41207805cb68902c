//! The cluster router: epoch-verified single-key dispatch and fenced
//! multi-shard fan-out.
//!
//! ## Lock protocol
//!
//! Every path acquires locks in the same global order — **fences before the
//! map, fences in ascending shard-index order** — so routing, fan-out,
//! migration, and snapshot compose without deadlock:
//!
//! * a routed op: `map.read` (route, drop) → `fence.read(S)` →
//!   `map.read` (verify, drop) → run → drop fence;
//! * a batched run ([`Cluster::execute_batch`]): the same steps once for a
//!   whole key-sorted stretch of point ops one shard owns — one fence, one
//!   verify, one handle — and one fence held at a time;
//! * a fan-out op: route all overlapping shards, `fence.read` each in index
//!   order, re-verify the epoch, run each sub-op, drop;
//! * a migration (`reshard.rs`): `fence.write` on the victims in index
//!   order → export/rebuild → `map.write` (swap + epoch bump, held briefly
//!   with no further acquisitions inside).
//!
//! The verify step is what makes stale routing safe: between routing and
//! fencing, a migration may have retired the routed shard. Holding the read
//! fence blocks any *future* migration of that shard, and the map re-read
//! tells us whether one already happened — if the key no longer routes to
//! the very same `Arc<Shard>`, the op returns a typed
//! [`ClusterError::WrongShard`] redirect and the caller re-routes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gfsl::batch::{key_order, order_index, BatchOp, BatchReply};
use gfsl::{Error, Gfsl, GfslParams, MemProbe, Violation, KEY_INF};
use parking_lot::{Mutex, RwLock};

use crate::map::MapInner;
use crate::shard::{Shard, ShardStats};

/// A cluster-level operation failure.
#[derive(Debug)]
pub enum ClusterError {
    /// The op was routed under a shard map that changed before the shard
    /// fence was acquired, and the key now belongs to a different shard.
    /// Retry routes correctly; the convenience wrappers do so internally.
    WrongShard {
        /// The key that was being routed.
        key: u32,
        /// Map epoch the stale route was computed under.
        routed_epoch: u64,
        /// Map epoch observed at verification.
        current_epoch: u64,
    },
    /// The underlying shard operation failed (abort, pool exhaustion, …).
    Shard(Error),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::WrongShard {
                key,
                routed_epoch,
                current_epoch,
            } => write!(
                f,
                "key {key} routed at epoch {routed_epoch} no longer maps to the \
                 fenced shard (epoch is now {current_epoch}); re-route"
            ),
            ClusterError::Shard(e) => write!(f, "shard operation failed: {e}"),
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<Error> for ClusterError {
    fn from(e: Error) -> ClusterError {
        ClusterError::Shard(e)
    }
}

/// K GFSL shards behind an epoch-versioned key-range router.
pub struct Cluster {
    pub(crate) params: GfslParams,
    pub(crate) map: RwLock<MapInner>,
    /// Serializes structural changes (split, merge, snapshot) so each sees
    /// a stable shard set; never taken by routed operations.
    pub(crate) reshard: Mutex<()>,
    next_shard_id: AtomicU64,
}

/// The per-shard results of a fan-out read, or the first shard's error.
fn all_shards<T>(per: Vec<Result<T, Error>>) -> Result<Vec<T>, ClusterError> {
    per.into_iter()
        .collect::<Result<_, _>>()
        .map_err(ClusterError::Shard)
}

impl Cluster {
    /// A cluster of `n_shards` equal-width shards covering `[1, KEY_INF)`.
    pub fn new(params: GfslParams, n_shards: usize) -> Result<Cluster, Error> {
        assert!(n_shards >= 1, "need at least one shard");
        assert!(
            (n_shards as u64) < u64::from(KEY_INF - 1),
            "more shards than user keys"
        );
        let width = (u64::from(KEY_INF) - 1) / n_shards as u64;
        let bounds: Vec<u32> = (1..n_shards as u64)
            .map(|i| (1 + i * width) as u32)
            .collect();
        Cluster::with_bounds(params, &bounds)
    }

    /// A cluster with explicit interior split keys: `bounds = [b1 < b2 < …]`
    /// yields shards `[1, b1), [b1, b2), …, [bk, KEY_INF)`.
    pub fn with_bounds(params: GfslParams, bounds: &[u32]) -> Result<Cluster, Error> {
        Cluster::build(params, bounds, |_| Gfsl::new(params))
    }

    /// One shard per gap between `1`, the interior `bounds` and `KEY_INF`,
    /// each holding the list `list_below(hi)` makes for its range.
    fn build(
        params: GfslParams,
        bounds: &[u32],
        mut list_below: impl FnMut(u32) -> Result<Gfsl, Error>,
    ) -> Result<Cluster, Error> {
        let mut edges = vec![1u32];
        edges.extend_from_slice(bounds);
        edges.push(KEY_INF);
        assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "interior bounds must be strictly ascending user keys"
        );
        let next_shard_id = AtomicU64::new(0);
        let shards: Result<Vec<_>, Error> = edges
            .windows(2)
            .map(|w| {
                let id = next_shard_id.fetch_add(1, Ordering::Relaxed);
                Ok(Arc::new(Shard::new(id, w[0], w[1], list_below(w[1])?)))
            })
            .collect();
        let map = MapInner {
            epoch: 0,
            shards: shards?,
        };
        map.check();
        Ok(Cluster {
            params,
            map: RwLock::new(map),
            reshard: Mutex::new(()),
            next_shard_id,
        })
    }

    /// A cluster of `n_shards` shards equal-width over the *working* key
    /// range `1..=key_range` (the top shard additionally owns everything up
    /// to `KEY_INF`, keeping the whole space covered), bulk-loaded as
    /// [`Cluster::prefilled_with_bounds`] loads.
    pub fn prefilled(
        params: GfslParams,
        n_shards: usize,
        key_range: u32,
        pairs: impl IntoIterator<Item = (u32, u32)>,
    ) -> Result<Cluster, Error> {
        assert!(n_shards >= 1, "need at least one shard");
        assert!(
            key_range < KEY_INF && (n_shards as u64) < u64::from(key_range),
            "more shards than working keys"
        );
        let width = u64::from(key_range) / n_shards as u64;
        let bounds: Vec<u32> = (1..n_shards as u64).map(|i| (1 + i * width) as u32).collect();
        Cluster::prefilled_with_bounds(params, &bounds, pairs)
    }

    /// A cluster with the interior-bounds layout of [`Cluster::with_bounds`]
    /// — how durable recovery restores the exact shard map a checkpoint
    /// manifest recorded, so per-shard WAL lanes line up across restarts —
    /// bulk-loaded from an ascending `(key, value)` stream: each shard's
    /// slice goes through `Gfsl::from_sorted_pairs`, so prefill cost is
    /// linear and the chunks start at the bulk fill target instead of
    /// insert-path shapes.
    pub fn prefilled_with_bounds(
        params: GfslParams,
        bounds: &[u32],
        pairs: impl IntoIterator<Item = (u32, u32)>,
    ) -> Result<Cluster, Error> {
        let mut pairs = pairs.into_iter().peekable();
        let cluster = Cluster::build(params, bounds, |hi| {
            Gfsl::from_sorted_pairs(params, std::iter::from_fn(|| pairs.next_if(|&(k, _)| k < hi)))
        })?;
        assert!(
            pairs.peek().is_none(),
            "prefill pairs must be ascending user keys below KEY_INF"
        );
        Ok(cluster)
    }

    /// The parameters every shard is built with.
    pub fn params(&self) -> &GfslParams {
        &self.params
    }

    /// Current shard-map epoch.
    pub fn epoch(&self) -> u64 {
        self.map.read().epoch
    }

    /// Current number of shards.
    pub fn shard_count(&self) -> usize {
        self.map.read().shards.len()
    }

    /// A snapshot of the current shard vector (identities may be retired by
    /// a later migration; use for introspection and static pipelines only).
    pub fn shards(&self) -> Vec<Arc<Shard>> {
        self.map.read().shards.clone()
    }

    /// The current key-range cover as `(lo, hi)` half-open pairs.
    pub fn bounds(&self) -> Vec<(u32, u32)> {
        self.map
            .read()
            .shards
            .iter()
            .map(|s| (s.lo, s.hi))
            .collect()
    }

    pub(crate) fn mint_shard_id(&self) -> u64 {
        self.next_shard_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Route `key`, clone its shard, and report the epoch routed under.
    fn route(&self, key: u32) -> (Arc<Shard>, u64) {
        let m = self.map.read();
        (m.shards[m.find(key)].clone(), m.epoch)
    }

    /// Run `f` against the live shard owning `key` with its fence read-held
    /// and the route verified (see module docs): the lock steps every
    /// routed path shares, whatever it runs under them.
    fn fenced<T>(&self, key: u32, f: impl FnOnce(&Shard) -> T) -> Result<T, ClusterError> {
        let (shard, routed_epoch) = self.route(key);
        let _fence = shard.fence.read();
        {
            let m = self.map.read();
            if m.epoch != routed_epoch && !Arc::ptr_eq(&m.shards[m.find(key)], &shard) {
                return Err(ClusterError::WrongShard {
                    key,
                    routed_epoch,
                    current_epoch: m.epoch,
                });
            }
        }
        Ok(f(&shard))
    }

    /// Run `f` against the live shard owning `key`, under the full routed
    /// protocol. `write` feeds the shard's load window.
    pub(crate) fn with_shard<T>(
        &self,
        key: u32,
        write: bool,
        f: impl FnOnce(&Shard) -> T,
    ) -> Result<T, ClusterError> {
        assert!((1..KEY_INF).contains(&key), "key {key} outside the user range");
        self.fenced(key, |shard| {
            shard.note(write);
            f(shard)
        })
    }

    /// Run `f` once per live shard overlapping the inclusive window
    /// `[lo, hi]`, all fences read-held simultaneously (a consistent cut).
    /// `f` receives each shard plus the window clipped to its range.
    pub(crate) fn with_range_shards<T>(
        &self,
        lo: u32,
        hi: u32,
        mut f: impl FnMut(&Shard, u32, u32) -> T,
    ) -> Result<Vec<T>, ClusterError> {
        assert!(lo >= 1 && hi < KEY_INF && lo <= hi, "bad window [{lo}, {hi}]");
        let (shards, routed_epoch) = {
            let m = self.map.read();
            (m.shards[m.overlapping(lo, hi)].to_vec(), m.epoch)
        };
        // Index order — the same global fence order migrations use.
        let _fences: Vec<_> = shards.iter().map(|s| s.fence.read()).collect();
        {
            // Any epoch motion can have reshuffled an overlapped range;
            // unlike the single-key path there is no cheap identity check
            // across a window, so redirect on any bump (rare, cheap retry).
            let m = self.map.read();
            if m.epoch != routed_epoch {
                return Err(ClusterError::WrongShard {
                    key: lo,
                    routed_epoch,
                    current_epoch: m.epoch,
                });
            }
        }
        Ok(shards
            .iter()
            .map(|s| {
                s.note(false);
                f(s, lo.max(s.lo), hi.min(s.hi - 1))
            })
            .collect())
    }

    /// Run `f` once per live shard overlapping `[lo, hi]` against a
    /// **version-pinned cut** (mvcc only): every overlapped shard's fence
    /// is write-held just long enough to pin one version per shard — the
    /// instant `T` of the cut — then the fences drop and `f` runs against
    /// the tickets, wait-free with respect to resumed writers.
    ///
    /// Lock order matches the global protocol: fences (write, ascending
    /// shard index) before the map read. A concurrent migration takes its
    /// victims' fences in the same index order, so the two cannot deadlock;
    /// an epoch bump between routing and fencing surfaces as the usual
    /// [`ClusterError::WrongShard`] redirect.
    pub(crate) fn with_range_shards_pinned<T>(
        &self,
        lo: u32,
        hi: u32,
        mut f: impl FnMut(&Shard, &gfsl::ReadTicket<'_>, u32, u32) -> T,
    ) -> Result<Vec<T>, ClusterError> {
        assert!(lo >= 1 && hi < KEY_INF && lo <= hi, "bad window [{lo}, {hi}]");
        debug_assert!(self.params.mvcc, "pinned fan-out needs the mvcc knob");
        let (shards, routed_epoch) = {
            let m = self.map.read();
            (m.shards[m.overlapping(lo, hi)].to_vec(), m.epoch)
        };
        // Write fences in index order: drain in-flight routed ops so the
        // pins below jointly name one instant across all overlapped shards.
        let fences: Vec<_> = shards.iter().map(|s| s.fence.write()).collect();
        {
            let m = self.map.read();
            if m.epoch != routed_epoch {
                return Err(ClusterError::WrongShard {
                    key: lo,
                    routed_epoch,
                    current_epoch: m.epoch,
                });
            }
        }
        let tickets: Vec<_> = shards
            .iter()
            .map(|s| s.list.pin_version().expect("mvcc knob is on"))
            .collect();
        drop(fences);
        Ok(shards
            .iter()
            .zip(&tickets)
            .map(|(s, t)| {
                s.note(false);
                f(s, t, lo.max(s.lo), hi.min(s.hi - 1))
            })
            .collect())
    }

    // ---- one-shot routed operations (surface WrongShard) ----

    /// Routed lookup; one routing attempt.
    pub fn try_get(&self, key: u32) -> Result<Option<u32>, ClusterError> {
        self.with_shard(key, false, |s| s.list.try_handle()?.try_get(key))?
            .map_err(ClusterError::Shard)
    }

    /// Routed membership test; one routing attempt.
    pub fn try_contains(&self, key: u32) -> Result<bool, ClusterError> {
        self.with_shard(key, false, |s| s.list.try_handle()?.try_contains(key))?
            .map_err(ClusterError::Shard)
    }

    /// Routed insert; one routing attempt. Set-like: `Ok(false)` keeps the
    /// resident value, exactly as [`gfsl::GfslHandle`] does.
    pub fn try_insert(&self, key: u32, value: u32) -> Result<bool, ClusterError> {
        self.with_shard(key, true, |s| s.list.try_handle()?.try_insert(key, value))?
            .map_err(ClusterError::Shard)
    }

    /// Routed remove; one routing attempt.
    pub fn try_remove(&self, key: u32) -> Result<bool, ClusterError> {
        self.with_shard(key, true, |s| s.list.try_handle()?.try_remove(key))?
            .map_err(ClusterError::Shard)
    }

    // ---- probed one-shot variants (chaos campaigns) ----
    //
    // The probe is supplied as a *factory* invoked only after the shard
    // fence is read-held, and the probe drops (retiring its chaos
    // participant) before the fence releases. Minting it earlier would
    // deadlock chaos campaigns against migrations: a live turnstile
    // participant blocked on the fence (an OS lock, not a parked turn)
    // stalls every grant, while the migration writer waits on a fence some
    // parked participant holds.

    /// Like [`Cluster::try_get`], probed; `probe` is minted post-fence.
    pub fn try_get_with<P: MemProbe>(
        &self,
        probe: impl FnOnce() -> P,
        key: u32,
    ) -> Result<Option<u32>, ClusterError> {
        self.with_shard(key, false, move |s| s.list.handle_with(probe()).try_get(key))?
            .map_err(ClusterError::Shard)
    }

    /// Like [`Cluster::try_insert`], probed; `probe` is minted post-fence.
    pub fn try_insert_with<P: MemProbe>(
        &self,
        probe: impl FnOnce() -> P,
        key: u32,
        value: u32,
    ) -> Result<bool, ClusterError> {
        self.with_shard(key, true, move |s| {
            s.list.handle_with(probe()).try_insert(key, value)
        })?
        .map_err(ClusterError::Shard)
    }

    /// Like [`Cluster::try_remove`], probed; `probe` is minted post-fence.
    pub fn try_remove_with<P: MemProbe>(
        &self,
        probe: impl FnOnce() -> P,
        key: u32,
    ) -> Result<bool, ClusterError> {
        self.with_shard(key, true, move |s| {
            s.list.handle_with(probe()).try_remove(key)
        })?
        .map_err(ClusterError::Shard)
    }

    // ---- retrying convenience operations ----

    fn retry<T>(&self, mut attempt: impl FnMut() -> Result<T, ClusterError>) -> Result<T, Error> {
        loop {
            match attempt() {
                Ok(v) => return Ok(v),
                // A redirect means the map moved: re-route and go again.
                // Progress: each retry re-routes under the *current* map,
                // and a migration's fence-write section cannot start while
                // the retried op holds the fresh shard's read fence.
                Err(ClusterError::WrongShard { .. }) => continue,
                Err(ClusterError::Shard(e)) => return Err(e),
            }
        }
    }

    /// Lookup, re-routing through migrations.
    pub fn get(&self, key: u32) -> Result<Option<u32>, Error> {
        self.retry(|| self.try_get(key))
    }

    /// Membership test, re-routing through migrations.
    pub fn contains(&self, key: u32) -> Result<bool, Error> {
        self.retry(|| self.try_contains(key))
    }

    /// Set-like insert, re-routing through migrations.
    pub fn insert(&self, key: u32, value: u32) -> Result<bool, Error> {
        self.retry(|| self.try_insert(key, value))
    }

    /// Remove, re-routing through migrations.
    pub fn remove(&self, key: u32) -> Result<bool, Error> {
        self.retry(|| self.try_remove(key))
    }

    // ---- fan-out reads ----
    //
    // Every shard visit mints a handle; a full handle table on any shard
    // fails the whole read with that shard's typed error. A fence-held walk
    // runs contained, so a wait it gives up (a quarantined chunk, a spent
    // budget) fails the read the same way; a version-pinned walk never
    // waits on a chunk lock.

    /// All pairs in the inclusive window `[lo, hi]`, stitched across shard
    /// boundaries from a consistent cut; one routing attempt. With mvcc on
    /// the cut is version-pinned (fences held only to stamp it, the walk
    /// wait-free w.r.t. writers); otherwise every overlapped fence stays
    /// read-held for the walk.
    pub fn try_range(&self, lo: u32, hi: u32) -> Result<Vec<(u32, u32)>, ClusterError> {
        // Shards are visited in ascending range order, so concatenation is
        // already globally sorted.
        let per = if self.params.mvcc {
            self.with_range_shards_pinned(lo, hi, |s, t, clo, chi| {
                Ok(s.list.try_handle()?.range_at(clo, chi, t))
            })?
        } else {
            self.with_range_shards(lo, hi, |s, clo, chi| s.list.try_handle()?.try_range(clo, chi))?
        };
        Ok(all_shards(per)?.into_iter().flatten().collect())
    }

    /// Count keys in the inclusive window `[lo, hi]` across shards; one
    /// routing attempt. Same cut modes as [`Cluster::try_range`].
    pub fn try_count_range(&self, lo: u32, hi: u32) -> Result<usize, ClusterError> {
        let per = if self.params.mvcc {
            self.with_range_shards_pinned(lo, hi, |s, t, clo, chi| {
                Ok(s.list.try_handle()?.count_range_at(clo, chi, t))
            })?
        } else {
            self.with_range_shards(lo, hi, |s, clo, chi| {
                s.list.try_handle()?.try_count_range(clo, chi)
            })?
        };
        Ok(all_shards(per)?.into_iter().sum())
    }

    /// Stitched range query, re-routing through migrations.
    pub fn range(&self, lo: u32, hi: u32) -> Result<Vec<(u32, u32)>, Error> {
        self.retry(|| self.try_range(lo, hi))
    }

    /// Stitched range count, re-routing through migrations.
    pub fn count_range(&self, lo: u32, hi: u32) -> Result<usize, Error> {
        self.retry(|| self.try_count_range(lo, hi))
    }

    /// Version-stamped spanning count: `(version, count)`; one routing
    /// attempt. With mvcc on the count is read from a version-pinned cut
    /// and `version` names it (the newest shard version in the cut — the
    /// clock value the fences jointly stamped at the cut instant); with
    /// mvcc off it falls back to the fence-held legacy count and reports
    /// version 0, so callers (the edge wire, notably) never need to know
    /// which engine they are talking to.
    pub fn try_snap_count_range(&self, lo: u32, hi: u32) -> Result<(u64, u64), ClusterError> {
        if !self.params.mvcc {
            return self.try_count_range(lo, hi).map(|n| (0, n as u64));
        }
        let per = all_shards(self.with_range_shards_pinned(lo, hi, |s, t, clo, chi| {
            Ok((t.version(), s.list.try_handle()?.count_range_at(clo, chi, t) as u64))
        })?)?;
        let version = per.iter().map(|&(v, _)| v).max().unwrap_or(0);
        let count = per.iter().map(|&(_, n)| n).sum();
        Ok((version, count))
    }

    /// Version-stamped spanning count, re-routing through migrations; see
    /// [`Cluster::try_snap_count_range`].
    pub fn snap_count_range(&self, lo: u32, hi: u32) -> Result<(u64, u64), Error> {
        self.retry(|| self.try_snap_count_range(lo, hi))
    }

    // ---- priority-queue front (min-entry scan) ----

    /// Walk shards in ascending key order under the routed single-key
    /// protocol, running `f` on each until it yields `Some`. The global
    /// minimum lives in the lowest non-empty shard, so the first hit wins.
    ///
    /// Each step fences one shard at a time (not a consistent cut): a
    /// concurrent insert of a smaller key into a shard already found empty
    /// can be missed by *this* scan — the same relaxed-front semantics
    /// concurrent priority queues give, where racing consumers agree each
    /// element is consumed once but not on a total front order.
    fn scan_min<T>(
        &self,
        write: bool,
        mut f: impl FnMut(&Shard) -> Result<Option<T>, Error>,
    ) -> Result<Option<T>, ClusterError> {
        let mut key = 1u32;
        loop {
            let (found, hi) = self.with_shard(key, write, |s| (f(s), s.hi))?;
            match found {
                Ok(Some(v)) => return Ok(Some(v)),
                Ok(None) if hi == KEY_INF => return Ok(None),
                Ok(None) => key = hi,
                Err(e) => return Err(ClusterError::Shard(e)),
            }
        }
    }

    /// The smallest present entry across all shards; one routing attempt
    /// per shard visited.
    pub fn try_min_entry(&self) -> Result<Option<(u32, u32)>, ClusterError> {
        self.scan_min(false, |s| s.list.try_handle()?.try_min_entry())
    }

    /// Extract-min across all shards: remove and return the smallest
    /// present entry; one routing attempt per shard visited. Racing
    /// consumers never pop the same element (the per-shard extract-min is
    /// atomic); see [`Self::try_min_entry`] for the cross-shard caveat.
    pub fn try_pop_min(&self) -> Result<Option<(u32, u32)>, ClusterError> {
        self.scan_min(true, |s| s.list.try_handle()?.try_pop_min())
    }

    /// Minimum-entry peek, re-routing through migrations.
    pub fn min_entry(&self) -> Result<Option<(u32, u32)>, Error> {
        self.retry(|| self.try_min_entry())
    }

    /// Extract-min, re-routing through migrations.
    pub fn pop_min(&self) -> Result<Option<(u32, u32)>, Error> {
        self.retry(|| self.try_pop_min())
    }

    // ---- the epoch batch ----

    /// Execute one epoch batch, appending one [`BatchReply`] per op to
    /// `out`, index-aligned with `ops` — the contract of
    /// [`gfsl::GfslHandle::execute_batch_hinted`]: `(key, index)` order, so
    /// same-key ops keep their order and the rest are mutually unordered.
    ///
    /// The order is cut into maximal **runs** of point ops on user keys
    /// that one shard owns, and a run pays the routed protocol once: one
    /// route, one `fence.read`, one identity verify for its first key (a
    /// shard's `[lo, hi)` never changes, so the very shard that still owns
    /// that key owns the whole run), one handle — which drains the run with
    /// its bottom-level hint live — and one load-window update. A run that
    /// raced a migration re-routes under the current map, as the per-op
    /// wrappers do; every other op breaks a run and executes with no fence
    /// held here (`execute_alone`). A full handle table fails that
    /// shard's run typed; the other shards' runs still answer.
    pub fn execute_batch(&self, ops: &[BatchOp], out: &mut Vec<BatchReply>) {
        let mut order = Vec::with_capacity(ops.len());
        key_order(ops, &mut order);
        let base = out.len();
        out.resize(base + ops.len(), BatchReply::Got(None));
        let out = &mut out[base..];
        let mut rest = &order[..];
        while let Some(&next) = rest.first() {
            let i = order_index(next);
            let ran = match ops[i] {
                BatchOp::Get(k) | BatchOp::Insert(k, _) | BatchOp::Remove(k)
                    if (1..KEY_INF).contains(&k) =>
                {
                    self.retry(|| self.fenced(k, |shard| Self::run_on(shard, ops, rest, out)))
                        .expect("a run reports shard errors in its replies")
                }
                op => {
                    out[i] = self.execute_alone(op);
                    1
                }
            };
            rest = &rest[ran..];
        }
    }

    /// Drain the longest prefix of `order` that is point ops on keys below
    /// `shard.hi` (the caller routed its first key here, and keys ascend)
    /// through one handle, under the caller's fence. Returns its length.
    fn run_on(shard: &Shard, ops: &[BatchOp], order: &[u64], out: &mut [BatchReply]) -> usize {
        let (mut reads, mut writes) = (0u64, 0u64);
        for &packed in order {
            match ops[order_index(packed)] {
                BatchOp::Get(k) if k < shard.hi => reads += 1,
                BatchOp::Insert(k, _) | BatchOp::Remove(k) if k < shard.hi => writes += 1,
                _ => break,
            }
        }
        let run = &order[..(reads + writes) as usize];
        shard.note_run(reads, writes);
        match shard.list.try_handle() {
            Ok(mut h) => h.execute_ordered(ops, run, out),
            Err(e) => run
                .iter()
                .for_each(|&packed| out[order_index(packed)] = BatchReply::Failed(e)),
        }
        run.len()
    }

    /// One op that is not part of a run, answered as the single structure
    /// answers it: fan-out reads and min scans through their retrying
    /// paths, and a point op — its key is reserved, or it would be in a
    /// run — with what any handle says without touching a chunk.
    fn execute_alone(&self, op: BatchOp) -> BatchReply {
        let reply = match op {
            BatchOp::Get(_) => Ok(BatchReply::Got(None)),
            BatchOp::Insert(k, _) => Err(Error::InvalidKey(k)),
            BatchOp::Remove(_) => Ok(BatchReply::Removed(false)),
            // A handle clips the window to the user keys and counts an
            // empty one as zero; `count_range` asserts both instead.
            BatchOp::CountRange(lo, hi) => match (lo.max(1), hi.min(KEY_INF - 1)) {
                (lo, hi) if lo > hi => Ok(BatchReply::Counted(0)),
                (lo, hi) => self.count_range(lo, hi).map(|n| BatchReply::Counted(n as u32)),
            },
            BatchOp::MinEntry => self.min_entry().map(BatchReply::MinIs),
            BatchOp::PopMin => self.pop_min().map(BatchReply::Popped),
        };
        reply.unwrap_or_else(BatchReply::Failed)
    }

    /// One heal step of the cluster, shard by shard under the shard's read
    /// fence (routed ops keep running; a migration waits): repair the
    /// quarantine and advance the background scrubber `scrub_budget`
    /// chunks ([`Gfsl::heal_step`]; a shard with no free handle slot is
    /// skipped this step). With no budget and no quarantine it fences
    /// nothing. Returns `(chunks repaired, quarantine depth left)`, summed
    /// over the shards.
    pub fn repair_quarantine(&self, scrub_budget: usize) -> (u64, usize) {
        let idle = |s: &Arc<Shard>| s.list.quarantine_depth() == 0;
        if scrub_budget == 0 && self.map.read().shards.iter().all(idle) {
            return (0, 0);
        }
        let (mut repaired, mut depth) = (0, 0);
        for s in self.shards() {
            let _fence = s.fence.read();
            let (r, d) = s
                .list
                .heal_step(scrub_budget)
                .unwrap_or((0, s.list.quarantine_depth()));
            repaired += r;
            depth += d;
        }
        (repaired, depth)
    }

    // ---- introspection (quiescent use) ----

    /// Per-shard statistics for the current map.
    pub fn stats(&self) -> Vec<ShardStats> {
        self.shards().iter().map(|s| s.stats()).collect()
    }

    /// Per-shard mvcc counters for the current map (`None` when the knob
    /// is off). Shard order matches [`Cluster::shards`].
    pub fn mvcc_stats(&self) -> Option<Vec<gfsl::MvccStats>> {
        self.shards()
            .iter()
            .map(|s| s.list.mvcc_stats())
            .collect()
    }

    /// Every pair in the cluster, ascending. Quiescent use only.
    pub fn pairs(&self) -> Vec<(u32, u32)> {
        self.shards()
            .iter()
            .flat_map(|s| s.list.pairs())
            .collect()
    }

    /// Total resident keys. Quiescent use only.
    pub fn len(&self) -> usize {
        self.shards().iter().map(|s| s.list.len()).sum()
    }

    /// Is the cluster empty? Quiescent use only.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Validate every shard's structure *and* that each shard holds only
    /// keys inside its assigned range. Quiescent use only.
    pub fn validate(&self) -> Vec<(u64, Vec<Violation>)> {
        let mut out = Vec::new();
        let m = self.map.read();
        m.check();
        for s in m.shards.iter() {
            let mut v = s.list.validate();
            for k in s.list.keys() {
                if !s.owns(k) {
                    v.push(Violation {
                        rule: "key-in-shard-range",
                        level: 0,
                        chunk: None,
                        detail: format!("key {k} outside shard range [{}, {})", s.lo, s.hi),
                    });
                }
            }
            if !v.is_empty() {
                out.push((s.id, v));
            }
        }
        out
    }

    /// Panic with a readable report on any invariant violation.
    pub fn assert_valid(&self) {
        let bad = self.validate();
        assert!(bad.is_empty(), "cluster invariant violations: {bad:?}");
    }
}
