//! The storage engine behind the edge: one GFSL or a sharded cluster.
//!
//! Worker threads execute whole epoch batches here, and the epoch batch is
//! the unit of execution on both engines: the single structure runs it
//! through one handle's key-sorted, hinted entry point; the cluster sorts
//! it the same way and hands each shard its stretch of the order under one
//! fence and one handle ([`Cluster::execute_batch`]), so it keeps serving
//! straight through live split/merge migrations — a redirect re-routes
//! internally and never surfaces to the wire.

use std::cell::RefCell;
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
    /// A sharded cluster; batches dispatch through
    /// [`Cluster::execute_batch`] and re-route through migrations.
    Cluster(Arc<Cluster>),
}

thread_local! {
    /// The calling worker's `ServeOp → BatchOp` and `BatchReply → Reply`
    /// buffers, kept across epochs so [`EdgeEngine::execute`] allocates
    /// nothing in steady state.
    static EPOCH_BUFS: RefCell<(Vec<BatchOp>, Vec<BatchReply>)> =
        const { RefCell::new((Vec::new(), Vec::new())) };
}

impl EdgeEngine {
    /// Execute one epoch batch, appending one [`Reply`] per op to `out`
    /// (index-aligned with `ops`).
    pub fn execute(&self, ops: &[ServeOp], out: &mut Vec<Reply>) {
        EPOCH_BUFS.with_borrow_mut(|(batch, replies)| {
            batch.clear();
            batch.extend(ops.iter().map(|&op| to_batch_op(op)));
            replies.clear();
            match self {
                EdgeEngine::Single(list) => match list.try_handle() {
                    Ok(mut h) => {
                        h.execute_batch_hinted(batch, replies);
                    }
                    Err(e) => replies.resize(batch.len(), BatchReply::Failed(e)),
                },
                EdgeEngine::Cluster(c) => c.execute_batch(batch, replies),
            }
            out.extend(replies.drain(..).map(Reply::from));
        })
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

    /// One heal step of the engine: repair the quarantine crashed
    /// ops left and advance the background scrubber `scrub_budget` chunks
    /// ([`Gfsl::heal_step`]; [`Cluster::repair_quarantine`] on a cluster,
    /// shard by shard under its fence). Returns `(chunks repaired,
    /// quarantine depth left)` — the supervisor's repair-pressure signals.
    /// With no free handle slot the step repairs nothing this time.
    pub fn heal(&self, scrub_budget: usize) -> (u64, usize) {
        match self {
            EdgeEngine::Single(list) => list
                .heal_step(scrub_budget)
                .unwrap_or((0, list.quarantine_depth())),
            EdgeEngine::Cluster(c) => c.repair_quarantine(scrub_budget),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfsl::GfslParams;

    fn params() -> GfslParams {
        GfslParams::default()
    }

    /// Containment must not hide bugs: no op these tests run may panic
    /// into a quarantine.
    fn assert_no_contained_crash(eng: &EdgeEngine) {
        let check = |list: &Gfsl| {
            let r = list.repair_stats();
            assert_eq!((r.crashed_ops, r.quarantine_depth), (0, 0), "{r:?}");
        };
        match eng {
            EdgeEngine::Single(list) => check(list),
            EdgeEngine::Cluster(c) => c.shards().iter().for_each(|s| check(&s.list)),
        }
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
        assert_no_contained_crash(&eng);
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
        assert_no_contained_crash(&plain);
        assert_no_contained_crash(&eng);
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
        assert_no_contained_crash(&eng);

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
        assert_no_contained_crash(&eng);
    }

    /// Wire input the per-op cluster API asserts on — reserved keys, windows
    /// that touch them, an inverted window — never reaches it: the batch
    /// path answers what the single structure answers, typed.
    #[test]
    fn reserved_keys_and_bad_windows_answer_alike_on_both_engines() {
        let hostile = [
            ServeOp::Get(0),
            ServeOp::Get(u32::MAX),
            ServeOp::Insert(0, 1),
            ServeOp::Delete(u32::MAX),
            ServeOp::Range(0, 5),
            ServeOp::Range(9, 3),
            ServeOp::Range(1, u32::MAX),
        ];
        let on_empty = vec![
            Reply::Got(None),
            Reply::Got(None),
            Reply::Failed(GfslError::InvalidKey(0)),
            Reply::Deleted(false),
            Reply::Ranged(0),
            Reply::Ranged(0),
            Reply::Ranged(0),
        ];
        // Empty, then holding keys in every shard and next to both sentinels.
        let keys = [1u32, 4, 5, 1_500_000_000, 2_500_000_000, 3_500_000_000, u32::MAX - 1];
        for keys in [&[][..], &keys[..]] {
            let single = Gfsl::prefilled(params(), keys.iter().copied()).unwrap();
            let c = Cluster::new(params(), 4).unwrap();
            for &k in keys {
                c.insert(k, k).unwrap();
            }
            let (mut one, mut four) = (Vec::new(), Vec::new());
            let engines = [EdgeEngine::Single(Arc::new(single)), EdgeEngine::Cluster(Arc::new(c))];
            engines[0].execute(&hostile, &mut one);
            engines[1].execute(&hostile, &mut four);
            engines.iter().for_each(assert_no_contained_crash);
            assert_eq!(one, four, "the engines disagree over {keys:?}");
            if keys.is_empty() {
                assert_eq!(one, on_empty);
            } else {
                assert_eq!(one[4..], [Reply::Ranged(3), Reply::Ranged(0), Reply::Ranged(7)]);
            }
        }
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
        assert_no_contained_crash(&eng);
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
        assert_no_contained_crash(&eng);
    }
}
