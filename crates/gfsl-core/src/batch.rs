//! Batched operation entry points.
//!
//! The paper's structure only pays off when operations arrive in warp-sized
//! cooperative batches — the shape a kernel launch (or a continuous-batching
//! serving loop, see `gfsl-serve`) produces.
//! [`GfslHandle::execute_batch_hinted`] is that entry point: one team
//! drains a slice of operations in key order, writing one typed reply per
//! operation at its index. Inserts that hit a structural error (pool
//! exhaustion, reserved key) record the error in their reply slot and the
//! batch keeps going, so a single bad request cannot abort the dispatch of
//! its batchmates.

use gfsl_gpu_mem::MemProbe;

use crate::skiplist::{Error, GfslHandle};

/// One operation inside a dispatch batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchOp {
    /// Point lookup: reply [`BatchReply::Got`].
    Get(u32),
    /// Insert `(key, value)`: reply [`BatchReply::Inserted`].
    Insert(u32, u32),
    /// Remove a key: reply [`BatchReply::Removed`].
    Remove(u32),
    /// Count keys in `[lo, hi]`: reply [`BatchReply::Counted`].
    CountRange(u32, u32),
    /// Peek the smallest present entry: reply [`BatchReply::MinIs`].
    MinEntry,
    /// Extract-min (priority-queue pop): reply [`BatchReply::Popped`].
    PopMin,
}

impl BatchOp {
    /// True for operations that never take a chunk lock (`Get` /
    /// `CountRange` / `MinEntry` ride the paper's lock-free Contains fast
    /// path).
    pub fn is_read_only(&self) -> bool {
        matches!(
            self,
            BatchOp::Get(_) | BatchOp::CountRange(_, _) | BatchOp::MinEntry
        )
    }

    /// The key the operation is routed by (`lo` for a range count) — what
    /// hinted batch execution clusters on. Min ops address the head of the
    /// key space, so they report the smallest user key.
    pub fn key(&self) -> u32 {
        match *self {
            BatchOp::Get(k) | BatchOp::Insert(k, _) | BatchOp::Remove(k) => k,
            BatchOp::CountRange(lo, _) => lo,
            BatchOp::MinEntry | BatchOp::PopMin => 1,
        }
    }
}

/// Typed reply for one [`BatchOp`], index-aligned with the request slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchReply {
    /// Value found (or `None`) for a `Get`.
    Got(Option<u32>),
    /// Whether an `Insert` added a new key (`false`: key already present).
    Inserted(bool),
    /// Whether a `Remove` found and removed the key.
    Removed(bool),
    /// Number of present keys in a `CountRange` window.
    Counted(u32),
    /// The smallest present entry (or `None`) for a `MinEntry` peek.
    MinIs(Option<(u32, u32)>),
    /// The entry a `PopMin` removed, or `None` on an empty structure.
    Popped(Option<(u32, u32)>),
    /// The operation failed structurally (reserved key, pool exhausted).
    Failed(Error),
}

/// Fill `order` with the `(key, index)` execution order of `ops`, as packed
/// `(key << 32) | index` words: one u64 compare per sort branch instead of a
/// tuple compare that chases `ops[i]`, with the index in the low half
/// keeping same-key ops in their original relative order.
pub fn key_order(ops: &[BatchOp], order: &mut Vec<u64>) {
    order.clear();
    order.extend(
        ops.iter()
            .enumerate()
            .map(|(i, op)| ((op.key() as u64) << 32) | i as u64),
    );
    order.sort_unstable();
}

/// The index into the batch that one word of a [`key_order`] names.
#[inline]
pub fn order_index(packed: u64) -> usize {
    (packed & u32::MAX as u64) as usize
}

impl<P: MemProbe> GfslHandle<'_, P> {
    /// Execute `ops` in ascending key order, appending one [`BatchReply`]
    /// per op to `out` (replies stay index-aligned with the request slice)
    /// and returning how many (always `ops.len()`). Consecutive operations
    /// land in the same or adjacent bottom-level chunks. The call is
    /// **hinted by construction**: for its duration the handle's
    /// bottom-level traversal hint is live, so op *i+1*'s lateral walk
    /// starts at op *i*'s chunk instead of re-descending from the head.
    ///
    /// Operations on the *same* key keep their original relative order (the
    /// sort is by `(key, index)`), so per-key reply semantics match running
    /// the ops one by one in order; operations on different keys are
    /// mutually unordered, exactly as they would be across concurrently
    /// dispatched batches.
    pub fn execute_batch_hinted(&mut self, ops: &[BatchOp], out: &mut Vec<BatchReply>) -> usize {
        // The scratch buffer lives on the handle so steady-state batch
        // dispatch allocates nothing.
        let mut order = std::mem::take(&mut self.batch_order);
        key_order(ops, &mut order);
        let base = out.len();
        out.resize(base + ops.len(), BatchReply::Got(None));
        self.execute_ordered(ops, &order, &mut out[base..]);
        self.batch_order = order;
        ops.len()
    }

    /// Execute the ops a slice of a [`key_order`] names, in that order,
    /// writing op `i`'s reply to `out[i]` (`out` is index-aligned with
    /// `ops`). This is the body of
    /// [`execute_batch_hinted`](Self::execute_batch_hinted), split out for
    /// callers that sort one batch and hand different stretches of the
    /// order to different structures (`gfsl-cluster`'s shard runs).
    ///
    /// The bottom-level hint is cleared on entry — the previous call ended
    /// at its largest key, right of everything here — and live until
    /// return; per-op calls outside never consult it.
    pub fn execute_ordered(&mut self, ops: &[BatchOp], order: &[u64], out: &mut [BatchReply]) {
        self.clear_hint();
        let outside = std::mem::replace(&mut self.hint_live, true);
        for &packed in order {
            let i = order_index(packed);
            out[i] = self.dispatch_one(ops[i]);
        }
        self.hint_live = outside;
    }

    fn dispatch_one(&mut self, op: BatchOp) -> BatchReply {
        // Every op runs through its contained (`try_*`) entry point: a
        // mid-batch crash or budget overrun surfaces as
        // `Failed(Error::Aborted)` in that op's reply slot while its
        // batchmates keep dispatching.
        match op {
            BatchOp::Get(k) => match self.try_get(k) {
                Ok(v) => BatchReply::Got(v),
                Err(e) => BatchReply::Failed(e),
            },
            BatchOp::Insert(k, v) => match self.try_insert(k, v) {
                Ok(added) => BatchReply::Inserted(added),
                Err(e) => BatchReply::Failed(e),
            },
            BatchOp::Remove(k) => match self.try_remove(k) {
                Ok(removed) => BatchReply::Removed(removed),
                Err(e) => BatchReply::Failed(e),
            },
            BatchOp::CountRange(lo, hi) => match self.try_count_range(lo, hi) {
                Ok(n) => BatchReply::Counted(n as u32),
                Err(e) => BatchReply::Failed(e),
            },
            BatchOp::MinEntry => match self.try_min_entry() {
                Ok(kv) => BatchReply::MinIs(kv),
                Err(e) => BatchReply::Failed(e),
            },
            BatchOp::PopMin => match self.try_pop_min() {
                Ok(kv) => BatchReply::Popped(kv),
                Err(e) => BatchReply::Failed(e),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::GfslParams;
    use crate::skiplist::Gfsl;
    use gfsl_simt::TeamSize;

    fn params16() -> GfslParams {
        GfslParams {
            team_size: TeamSize::Sixteen,
            ..Default::default()
        }
    }

    #[test]
    fn batch_replies_are_index_aligned() {
        let list = Gfsl::new(params16()).unwrap();
        let mut h = list.handle();
        let ops = [
            BatchOp::Insert(10, 100),
            BatchOp::Insert(10, 100),
            BatchOp::Get(10),
            BatchOp::Get(11),
            BatchOp::Remove(10),
            BatchOp::Remove(10),
            BatchOp::Insert(0, 1), // reserved key: fails in place
            BatchOp::Get(10),
        ];
        let mut out = Vec::new();
        assert_eq!(h.execute_batch_hinted(&ops, &mut out), ops.len());
        assert_eq!(
            out,
            vec![
                BatchReply::Inserted(true),
                BatchReply::Inserted(false),
                BatchReply::Got(Some(100)),
                BatchReply::Got(None),
                BatchReply::Removed(true),
                BatchReply::Removed(false),
                BatchReply::Failed(Error::InvalidKey(0)),
                BatchReply::Got(None),
            ]
        );
        list.assert_valid();
    }

    #[test]
    fn batch_range_counts_present_keys() {
        let list = Gfsl::prefilled(params16(), (1..=100u32).map(|k| k * 2)).unwrap();
        let mut h = list.handle();
        let mut out = Vec::new();
        h.execute_batch_hinted(
            &[BatchOp::CountRange(2, 200), BatchOp::CountRange(3, 8)],
            &mut out,
        );
        // Even keys only: [3, 8] holds 4, 6, 8.
        assert_eq!(out, vec![BatchReply::Counted(100), BatchReply::Counted(3)]);
    }

    /// The sorted call owns the hint: per-op calls before it and after it
    /// (on the same handle) never consult one.
    #[test]
    fn the_hint_is_live_in_the_sorted_call_and_nowhere_else() {
        let list = Gfsl::prefilled(params16(), (1..=500u32).map(|k| k * 2)).unwrap();
        let mut h = list.handle();
        // Scrambled mixed ops: the sorted call runs them in key order, so
        // consecutive ops land in the same or neighbouring bottom chunks.
        let ops: Vec<BatchOp> = (0..400u32)
            .map(|i| match (i * 37 % 1100 + 1, i % 5) {
                (k, 0) => BatchOp::Insert(k, i),
                (k, 1) => BatchOp::Remove(k),
                (k, _) => BatchOp::Get(k),
            })
            .collect();
        let unhinted = |s: crate::OpStats| s.hint_hits + s.hint_misses == 0;

        assert!(!h.hint_live, "a fresh handle's hint is off");
        let plain: Vec<BatchReply> = ops.iter().map(|&op| h.dispatch_one(op)).collect();
        assert!(unhinted(h.stats()), "a per-op stream consults no hint");

        // Same-key order is kept, so the replies are what the in-order run
        // would give on the state it left behind: compare on a twin.
        let twin = Gfsl::prefilled(params16(), (1..=500u32).map(|k| k * 2)).unwrap();
        let mut sorted = Vec::new();
        let mut th = twin.handle();
        th.execute_batch_hinted(&ops, &mut sorted);
        assert_eq!(sorted, plain, "replies independent of execution order");
        assert!(th.stats().hint_hits > 0, "key-sorted batch must reuse the hint");
        assert_eq!(twin.pairs(), list.pairs());
        assert!(!th.hint_live, "the call switches it back off");

        th.reset_stats();
        for &op in &ops {
            th.dispatch_one(op);
        }
        assert!(unhinted(th.stats()), "the hint does not outlive the sorted call");
        twin.assert_valid();
    }

    #[test]
    fn hinted_batch_keeps_same_key_order() {
        let list = Gfsl::new(params16()).unwrap();
        let mut h = list.handle();
        let ops = [
            BatchOp::Insert(10, 1),
            BatchOp::Remove(10),
            BatchOp::Insert(10, 2),
            BatchOp::Get(10),
        ];
        let mut out = Vec::new();
        h.execute_batch_hinted(&ops, &mut out);
        assert_eq!(
            out,
            vec![
                BatchReply::Inserted(true),
                BatchReply::Removed(true),
                BatchReply::Inserted(true),
                BatchReply::Got(Some(2)),
            ]
        );
    }

    #[test]
    fn read_only_classification() {
        assert!(BatchOp::Get(1).is_read_only());
        assert!(BatchOp::CountRange(1, 2).is_read_only());
        assert!(BatchOp::MinEntry.is_read_only());
        assert!(!BatchOp::Insert(1, 1).is_read_only());
        assert!(!BatchOp::Remove(1).is_read_only());
        assert!(!BatchOp::PopMin.is_read_only());
    }

    #[test]
    fn batched_min_ops_drain_in_priority_order() {
        let list = Gfsl::prefilled(params16(), [30u32, 10, 20]).unwrap();
        let mut h = list.handle();
        let ops = [
            BatchOp::MinEntry,
            BatchOp::PopMin,
            BatchOp::PopMin,
            BatchOp::PopMin,
            BatchOp::PopMin,
            BatchOp::MinEntry,
        ];
        let mut out = Vec::new();
        h.execute_batch_hinted(&ops, &mut out);
        assert_eq!(
            out,
            vec![
                BatchReply::MinIs(Some((10, 10))),
                BatchReply::Popped(Some((10, 10))),
                BatchReply::Popped(Some((20, 20))),
                BatchReply::Popped(Some((30, 30))),
                BatchReply::Popped(None),
                BatchReply::MinIs(None),
            ]
        );
        list.assert_valid();
    }
}
