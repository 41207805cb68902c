//! The storage engine behind the edge: one GFSL or a sharded cluster.
//!
//! Worker threads execute whole epoch batches here. The single-structure
//! engine rides the key-sorted batched entry point (the same hinted
//! dispatch the in-process serve loop uses); the cluster engine routes each
//! request through the epoch-versioned shard map, so it keeps serving
//! straight through live split/merge migrations — a redirect retries
//! internally and never surfaces to the wire.

use std::sync::Arc;

use gfsl::batch::{BatchOp, BatchReply};
use gfsl::{Error as GfslError, Gfsl, KEY_INF};
use gfsl_cluster::Cluster;
use gfsl_serve::{request::to_batch_op, Reply};
use gfsl_workload::ServeOp;

/// The engine a server instance fronts.
#[derive(Clone)]
pub enum EdgeEngine {
    /// One GFSL structure; batches dispatch through
    /// [`execute_batch_hinted`](gfsl::GfslHandle::execute_batch_hinted).
    Single(Arc<Gfsl>),
    /// A sharded cluster; requests route per key and re-route through
    /// migrations.
    Cluster(Arc<Cluster>),
}

impl EdgeEngine {
    /// Execute one epoch batch, appending one [`Reply`] per op to `out`
    /// (index-aligned with `ops`).
    pub fn execute(&self, ops: &[ServeOp], out: &mut Vec<Reply>) {
        match self {
            EdgeEngine::Single(list) => {
                let mut h = match list.try_handle() {
                    Ok(h) => h,
                    Err(e) => return out.extend(ops.iter().map(|_| Reply::Failed(e))),
                };
                let batch: Vec<BatchOp> = ops.iter().map(|&op| to_batch_op(op)).collect();
                let mut replies: Vec<BatchReply> = Vec::with_capacity(batch.len());
                h.execute_batch_hinted(&batch, &mut replies);
                out.extend(replies.into_iter().map(Reply::from));
            }
            EdgeEngine::Cluster(c) => {
                out.extend(ops.iter().map(|&op| route_one(c, op)));
            }
        }
    }

    /// Version-pinned count of keys in `[lo, hi]`: `(version, count)`.
    /// Runs outside the epoch batch — with mvcc on, the pin is the only
    /// moment that touches the writer path (fence drain), and the count
    /// itself never blocks on chunk locks. Without the mvcc knob the
    /// count falls back to the engine's ordinary range count and reports
    /// version 0. The window is validated *here*, before the engine's
    /// internal asserts see it — this is the trust boundary for hostile
    /// wire input.
    pub fn snap_count(&self, lo: u32, hi: u32) -> Result<(u64, u64), GfslError> {
        if lo < 1 || hi == KEY_INF || lo > hi {
            return Err(GfslError::InvalidKey(if lo < 1 { lo } else { hi }));
        }
        match self {
            EdgeEngine::Single(list) => {
                let mut h = list.try_handle()?;
                match list.pin_version() {
                    Some(ticket) => {
                        let n = h.count_range_at(lo, hi, &ticket);
                        Ok((ticket.version(), n as u64))
                    }
                    None => h.try_count_range(lo, hi).map(|n| (0, n as u64)),
                }
            }
            EdgeEngine::Cluster(c) => c.snap_count_range(lo, hi),
        }
    }

    /// Current quarantine depth (the supervisor's repair-pressure signal);
    /// summed across shards for a cluster.
    pub fn quarantine_depth(&self) -> usize {
        match self {
            EdgeEngine::Single(list) => list.quarantine_depth(),
            EdgeEngine::Cluster(c) => c
                .shards()
                .iter()
                .map(|s| s.list.quarantine_depth())
                .sum(),
        }
    }
}

fn route_one(c: &Cluster, op: ServeOp) -> Reply {
    fn done<T>(r: Result<T, GfslError>, f: impl FnOnce(T) -> Reply) -> Reply {
        match r {
            Ok(v) => f(v),
            Err(e) => Reply::Failed(e),
        }
    }
    match op {
        ServeOp::Get(k) => done(c.get(k), Reply::Got),
        ServeOp::Insert(k, v) => done(c.insert(k, v), Reply::Inserted),
        ServeOp::Delete(k) => done(c.remove(k), Reply::Deleted),
        ServeOp::Range(lo, hi) => done(c.count_range(lo, hi), |n| Reply::Ranged(n as u32)),
        ServeOp::MinEntry => done(c.min_entry(), Reply::MinIs),
        ServeOp::PopMin => done(c.pop_min(), Reply::Popped),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfsl::GfslParams;

    fn params() -> GfslParams {
        GfslParams::default()
    }

    #[test]
    fn single_engine_executes_batches_index_aligned() {
        let list = Arc::new(Gfsl::new(params()).unwrap());
        let eng = EdgeEngine::Single(list);
        // Batched dispatch executes in (key, index) order — min ops carry
        // key 1 and run before the insert of key 5 — but replies come back
        // index-aligned with the submitted ops.
        let mut out = Vec::new();
        eng.execute(&[ServeOp::Insert(5, 50), ServeOp::Get(5)], &mut out);
        assert_eq!(out, vec![Reply::Inserted(true), Reply::Got(Some(50))]);
        let mut out = Vec::new();
        eng.execute(
            &[ServeOp::MinEntry, ServeOp::PopMin, ServeOp::Get(5)],
            &mut out,
        );
        assert_eq!(
            out,
            vec![
                Reply::MinIs(Some((5, 50))),
                Reply::Popped(Some((5, 50))),
                Reply::Got(None),
            ],
            "index-aligned replies; same-key order preserved"
        );
    }

    #[test]
    fn snap_count_pins_when_mvcc_is_on_and_falls_back_when_off() {
        // mvcc off: count still answers, version 0.
        let plain = EdgeEngine::Single(Arc::new(
            Gfsl::prefilled(params(), 1..=100).unwrap(),
        ));
        assert_eq!(plain.snap_count(10, 20).unwrap(), (0, 11));

        // mvcc on: version comes from the pinned clock (nonzero).
        let mvcc = GfslParams { mvcc: true, ..params() };
        let eng = EdgeEngine::Single(Arc::new(Gfsl::prefilled(mvcc, 1..=100).unwrap()));
        let (v, n) = eng.snap_count(10, 20).unwrap();
        assert!(v >= 1, "pinned version names a clock instant");
        assert_eq!(n, 11);

        // Hostile windows fail typed instead of tripping engine asserts.
        assert!(eng.snap_count(0, 5).is_err());
        assert!(eng.snap_count(9, 3).is_err());
        assert!(eng.snap_count(1, u32::MAX).is_err());
    }

    #[test]
    fn full_handle_table_answers_failed_on_both_engines() {
        let failed = Reply::Failed(GfslError::TooManyHandles);

        let list = Arc::new(Gfsl::prefilled(params(), 1..=100).unwrap());
        let live: Vec<_> = (0..gfsl::MAX_RECLAIM_HANDLES).map(|_| list.handle()).collect();
        let eng = EdgeEngine::Single(list.clone());
        let mut out = Vec::new();
        eng.execute(&[ServeOp::Get(5), ServeOp::Insert(500, 1)], &mut out);
        assert_eq!(out, vec![failed; 2]);
        assert_eq!(eng.snap_count(1, 50), Err(GfslError::TooManyHandles));
        drop(live);
        assert_eq!(eng.snap_count(1, 50), Ok((0, 50)));

        let c = Arc::new(Cluster::new(params(), 4).unwrap());
        let shards = c.shards();
        let live: Vec<_> = (0..gfsl::MAX_RECLAIM_HANDLES)
            .map(|_| shards[0].list.handle())
            .collect();
        let eng = EdgeEngine::Cluster(c.clone());
        let mut out = Vec::new();
        eng.execute(
            &[ServeOp::Get(5), ServeOp::Insert(6, 1), ServeOp::Delete(7), ServeOp::MinEntry],
            &mut out,
        );
        assert_eq!(out[..4], vec![failed; 4]);
        // Another shard's table has room.
        out.clear();
        eng.execute(&[ServeOp::Insert(3_000_000_000, 1)], &mut out);
        assert_eq!(out, vec![Reply::Inserted(true)]);
        drop(live);
    }

    #[test]
    fn snap_count_spans_cluster_shards() {
        let mvcc = GfslParams { mvcc: true, ..params() };
        let c = Arc::new(Cluster::new(mvcc, 4).unwrap());
        for k in [10u32, 1_000_000_000, 2_000_000_000, 3_000_000_000] {
            c.insert(k, k).unwrap();
        }
        let eng = EdgeEngine::Cluster(c);
        let (v, n) = eng.snap_count(1, 3_000_000_001).unwrap();
        assert!(v >= 1);
        assert_eq!(n, 4, "pinned count stitches across all four shards");
    }

    #[test]
    fn cluster_engine_routes_across_shards() {
        let c = Arc::new(Cluster::new(params(), 4).unwrap());
        let eng = EdgeEngine::Cluster(c.clone());
        let keys = [10u32, 2_000_000_000, 1_000_000_000, 3_000_000_000];
        let ops: Vec<ServeOp> = keys.iter().map(|&k| ServeOp::Insert(k, k)).collect();
        let mut out = Vec::new();
        eng.execute(&ops, &mut out);
        assert!(out.iter().all(|r| matches!(r, Reply::Inserted(true))));
        let mut out = Vec::new();
        eng.execute(&[ServeOp::PopMin, ServeOp::MinEntry], &mut out);
        assert_eq!(out[0], Reply::Popped(Some((10, 10))));
        assert_eq!(out[1], Reply::MinIs(Some((1_000_000_000, 1_000_000_000))));
    }
}
