//! Batch schedulers: how an epoch's admitted requests become warp-aligned
//! dispatch batches.
//!
//! A policy receives everything admitted in one epoch and returns the
//! batches to dispatch, each with a planned worker. Two policies ship:
//!
//! * [`Fifo`] — arrival order, chopped into lane-aligned batches, workers
//!   round-robin. The reference: what the durable tier and the tests run.
//! * [`KeySorted`] — the epoch sorted by key before chopping, so each
//!   batch covers a narrow ascending key band for the structure's
//!   key-sorted entry point. What the benchmark ladder passes.

use crate::request::Request;

/// Formation-time context handed to a policy.
#[derive(Debug, Clone, Copy)]
pub struct PolicyCtx {
    /// Worker (team) count; planned workers must be `< workers`.
    pub workers: usize,
    /// Hard cap on requests per dispatched batch.
    pub max_batch: usize,
    /// Team width: batches are chopped at multiples of this so full batches
    /// keep every lane of a team busy.
    pub lane_align: usize,
}

impl PolicyCtx {
    /// The chop granule: `max_batch` rounded down to a lane multiple.
    fn granule(&self) -> usize {
        let lanes = self.lane_align.max(1);
        ((self.max_batch / lanes).max(1)) * lanes
    }
}

/// One dispatch batch.
#[derive(Debug)]
pub struct Batch {
    /// Global dispatch sequence number (assigned by the service driver).
    pub seq: u64,
    /// Planned worker (used for the deterministic execution-time model and
    /// the dispatch-grant trace; the pool balances actual pulls).
    pub worker: usize,
    /// True when every request in the batch is lock-free (`Get`/`Range`).
    pub read_only: bool,
    /// The requests, in formation order.
    pub reqs: Vec<Request>,
}

impl Batch {
    /// Lane slots this batch occupies once padded to team width.
    pub fn aligned_len(&self, lane_align: usize) -> usize {
        let lanes = lane_align.max(1);
        self.reqs.len().div_ceil(lanes) * lanes
    }
}

/// A batch-formation policy.
pub trait BatchPolicy: Send {
    /// Policy name, for reports.
    fn name(&self) -> &'static str;

    /// Split one epoch's admitted requests into dispatch batches.
    ///
    /// Every request must appear in exactly one returned batch; `seq` may
    /// be left 0 (the driver assigns global sequence numbers).
    fn form(&mut self, epoch: Vec<Request>, ctx: &PolicyCtx) -> Vec<Batch>;
}

/// Chop `reqs` into batches of at most one granule, tagging each with the
/// next round-robin worker.
fn chop(reqs: Vec<Request>, ctx: &PolicyCtx, next_worker: &mut usize, out: &mut Vec<Batch>) {
    let granule = ctx.granule();
    let mut reqs = reqs;
    while !reqs.is_empty() {
        let rest = if reqs.len() > granule {
            reqs.split_off(granule)
        } else {
            Vec::new()
        };
        let read_only = reqs.iter().all(|r| r.op.is_read_only());
        out.push(Batch {
            seq: 0,
            worker: *next_worker % ctx.workers.max(1),
            read_only,
            reqs,
        });
        *next_worker = next_worker.wrapping_add(1);
        reqs = rest;
    }
}

/// Arrival-order batching, round-robin workers.
#[derive(Debug, Default)]
pub struct Fifo {
    next_worker: usize,
}

impl BatchPolicy for Fifo {
    fn name(&self) -> &'static str {
        "fifo"
    }

    fn form(&mut self, epoch: Vec<Request>, ctx: &PolicyCtx) -> Vec<Batch> {
        let mut out = Vec::new();
        chop(epoch, ctx, &mut self.next_worker, &mut out);
        out
    }
}

/// Key-sorted batching: the epoch is sorted by `(key, arrival)` before
/// chopping, so each dispatched batch covers a narrow, ascending key band.
/// Paired with the structure's key-sorted entry point
/// (`execute_batch_hinted`, whose bottom-level hint is live for the
/// call), a team serving such a
/// batch descends once and then walks laterally — `k` same-band ops cost
/// ~1 descent + `k` lateral steps instead of `k` full descents. Same-key
/// requests keep arrival order, so per-key semantics match FIFO.
#[derive(Debug, Default)]
pub struct KeySorted {
    next_worker: usize,
}

impl BatchPolicy for KeySorted {
    fn name(&self) -> &'static str {
        "key-sorted"
    }

    fn form(&mut self, mut epoch: Vec<Request>, ctx: &PolicyCtx) -> Vec<Batch> {
        epoch.sort_by_key(|r| (r.op.key(), r.arrival_ns, r.id));
        let mut out = Vec::new();
        chop(epoch, ctx, &mut self.next_worker, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfsl_workload::ServeOp;

    fn reqs(ops: &[ServeOp]) -> Vec<Request> {
        ops.iter()
            .enumerate()
            .map(|(i, &op)| Request {
                client: i as u32 % 4,
                id: i as u64,
                arrival_ns: i as u64,
                op,
            })
            .collect()
    }

    fn ctx() -> PolicyCtx {
        PolicyCtx {
            workers: 4,
            max_batch: 32,
            lane_align: 16,
        }
    }

    fn total_ids(batches: &[Batch]) -> Vec<u64> {
        let mut ids: Vec<u64> = batches.iter().flat_map(|b| b.reqs.iter().map(|r| r.id)).collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn fifo_chops_lane_aligned_and_loses_nothing() {
        let ops: Vec<ServeOp> = (0..75).map(|k| ServeOp::Get(k + 1)).collect();
        let epoch = reqs(&ops);
        let mut p = Fifo::default();
        let batches = p.form(epoch, &ctx());
        // granule = 32 -> 32 + 32 + 11
        assert_eq!(
            batches.iter().map(|b| b.reqs.len()).collect::<Vec<_>>(),
            vec![32, 32, 11]
        );
        assert_eq!(total_ids(&batches), (0..75).collect::<Vec<u64>>());
        assert!(batches.iter().all(|b| b.read_only));
        // round-robin workers
        assert_eq!(
            batches.iter().map(|b| b.worker).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        // alignment pads the tail batch to a lane multiple
        assert_eq!(batches[2].aligned_len(16), 16);
    }

    #[test]
    fn key_sorted_batches_cover_ascending_key_bands() {
        // Arrivals in scrambled key order.
        let ops: Vec<ServeOp> = (0..100u32).map(|i| ServeOp::Get((i * 37) % 100 + 1)).collect();
        let epoch = reqs(&ops);
        let mut p = KeySorted::default();
        let batches = p.form(epoch, &ctx());
        assert_eq!(total_ids(&batches), (0..100).collect::<Vec<u64>>());
        // Keys ascend within each batch and across batch boundaries.
        let keys: Vec<u32> = batches
            .iter()
            .flat_map(|b| b.reqs.iter().map(|r| r.op.key()))
            .collect();
        assert!(keys.windows(2).all(|w| w[0] <= w[1]), "global key order");
        assert_eq!(p.name(), "key-sorted");
    }

    #[test]
    fn granule_respects_both_caps() {
        let c = PolicyCtx {
            workers: 2,
            max_batch: 10, // below one 16-lane team: granule floors to 16? no — max(1)*16
            lane_align: 16,
        };
        assert_eq!(c.granule(), 16, "granule is at least one full team");
        let c2 = PolicyCtx {
            workers: 2,
            max_batch: 100,
            lane_align: 32,
        };
        assert_eq!(c2.granule(), 96, "rounded down to a lane multiple");
    }
}
