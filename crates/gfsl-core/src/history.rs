//! Operation-history recording and per-key linearizability checking.
//!
//! The chaos campaign records every `insert`/`remove`/`get` as an
//! invoke/return interval on a shared logical clock. Because GFSL keys are
//! independent single-word registers (an operation on key `k` serializes
//! only with operations on `k`), full-history linearizability decomposes
//! into one check per key, which keeps the Wing & Gong search tractable:
//! a history is linearizable iff, for every key, some total order of that
//! key's operations (a) respects real-time order — an op that returned
//! before another was invoked comes first — and (b) replays correctly
//! against set-of-pairs semantics: insert succeeds iff absent (duplicate
//! inserts do not overwrite), remove succeeds iff present, get returns the
//! current value.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};

/// Shared logical clock: each tick returns a unique, totally ordered
/// timestamp.
#[derive(Debug, Default)]
pub struct HistoryClock(AtomicU64);

impl HistoryClock {
    /// A clock starting at zero.
    pub fn new() -> HistoryClock {
        HistoryClock(AtomicU64::new(0))
    }

    /// Take the next timestamp.
    pub fn tick(&self) -> u64 {
        self.0.fetch_add(1, Ordering::Relaxed)
    }
}

/// What an operation did and what it observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpAction {
    /// `insert(key, value)` returning whether the key was added.
    Insert {
        /// Value inserted (visible to later gets only if `ok`).
        value: u32,
        /// `true` = key was absent and is now present.
        ok: bool,
    },
    /// `remove(key)` returning whether the key was present.
    Remove {
        /// `true` = key was present and is now absent.
        ok: bool,
    },
    /// `get(key)` and the value it observed.
    Get {
        /// `Some(v)` = present with value `v`.
        found: Option<u32>,
    },
    /// `insert(key, value)` whose outcome is *unknown*: the operation
    /// crashed mid-protocol (contained) before acknowledging, so it
    /// may have linearized (key now present with `value`) or not happened
    /// at all. The checker tries both.
    InsertMaybe {
        /// Value the crashed insert would have stored.
        value: u32,
    },
    /// `remove(key)` whose outcome is unknown (crashed mid-protocol): it
    /// may have removed the key or left it untouched.
    RemoveMaybe,
}

/// One completed operation: key, action + outcome, and its real-time
/// interval on the [`HistoryClock`].
#[derive(Debug, Clone, Copy)]
pub struct OpRecord {
    /// The key operated on.
    pub key: u32,
    /// Action and observed outcome.
    pub action: OpAction,
    /// Clock value taken immediately before invoking the operation.
    pub invoke: u64,
    /// Clock value taken immediately after it returned.
    pub ret: u64,
}

/// Per-thread history recorder. Collect one per worker, then merge the
/// `records` and run [`check_linearizable`].
#[derive(Debug)]
pub struct Recorder<'a> {
    clock: &'a HistoryClock,
    /// Completed operations, in this thread's program order.
    pub records: Vec<OpRecord>,
}

impl<'a> Recorder<'a> {
    /// A recorder on a shared clock.
    pub fn new(clock: &'a HistoryClock) -> Recorder<'a> {
        Recorder {
            clock,
            records: Vec::new(),
        }
    }

    /// Timestamp the start of an operation; pass the result to
    /// [`Recorder::finish`].
    pub fn invoke(&self) -> u64 {
        self.clock.tick()
    }

    /// Record a completed operation (timestamps its return).
    pub fn finish(&mut self, key: u32, action: OpAction, invoke: u64) {
        let ret = self.clock.tick();
        self.records.push(OpRecord {
            key,
            action,
            invoke,
            ret,
        });
    }

    /// Record a pinned snapshot/scan read as per-key [`OpAction::Get`]
    /// observations sharing one real-time window. `observed` lists every
    /// key of interest with what the scan saw (`None` = absent from the
    /// cut); `invoke` is the tick taken before the version was pinned.
    ///
    /// Soundness of the decomposition: a version-pinned scan (see
    /// [`crate::mvcc`]) linearizes at a single instant — the pin — inside
    /// `[invoke, ret]`. Per key, its observation is then indistinguishable
    /// from a `get` spanning the whole scan window, so every per-key
    /// violation the checker reports against these records is a real
    /// consistency violation of the scan. The converse cross-key property
    /// (all observations taken at the *same* instant) is what the
    /// cluster's moving-token test pins down; a per-key checker cannot
    /// express it.
    pub fn finish_scan(
        &mut self,
        observed: impl IntoIterator<Item = (u32, Option<u32>)>,
        invoke: u64,
    ) {
        let ret = self.clock.tick();
        for (key, found) in observed {
            self.records.push(OpRecord {
                key,
                action: OpAction::Get { found },
                invoke,
                ret,
            });
        }
    }
}

/// Encode a register state for memoization (`u64::MAX` = absent; values are
/// 32-bit so the encoding is injective).
fn encode(state: Option<u32>) -> u64 {
    match state {
        None => u64::MAX,
        Some(v) => u64::from(v),
    }
}

/// The candidate post-states of linearizing `op` now in `state`: up to two
/// (a crashed `*Maybe` op may or may not have taken effect), `[None, None]`
/// when the observed outcome contradicts `state`.
fn apply(state: Option<u32>, op: &OpRecord) -> [Option<Option<u32>>; 2] {
    match op.action {
        OpAction::Insert { value, ok: true } => [state.is_none().then_some(Some(value)), None],
        OpAction::Insert { ok: false, .. } => [state.is_some().then_some(state), None],
        OpAction::Remove { ok: true } => [state.is_some().then_some(None), None],
        OpAction::Remove { ok: false } => [state.is_none().then_some(state), None],
        OpAction::Get { found } => [(found == state).then_some(state), None],
        // A crashed op contradicts nothing; it either took effect or
        // no-opped. Branch only where the two differ.
        OpAction::InsertMaybe { value } => {
            if state.is_none() {
                [Some(Some(value)), Some(None)]
            } else {
                [Some(state), None]
            }
        }
        OpAction::RemoveMaybe => {
            if state.is_some() {
                [Some(None), Some(state)]
            } else {
                [Some(state), None]
            }
        }
    }
}

/// Growable bitmask over the ops of one key.
#[derive(Clone)]
struct Mask {
    words: Vec<u64>,
    set: usize,
    len: usize,
}

impl Mask {
    fn new(len: usize) -> Mask {
        Mask {
            words: vec![0; len.div_ceil(64)],
            set: 0,
            len,
        }
    }
    fn get(&self, i: usize) -> bool {
        self.words[i / 64] >> (i % 64) & 1 == 1
    }
    fn set(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
        self.set += 1;
    }
    fn unset(&mut self, i: usize) {
        self.words[i / 64] &= !(1 << (i % 64));
        self.set -= 1;
    }
    fn full(&self) -> bool {
        self.set == self.len
    }
}

/// Wing & Gong DFS over one key's operations.
fn dfs(
    ops: &[OpRecord],
    done: &mut Mask,
    state: Option<u32>,
    memo: &mut HashSet<(Vec<u64>, u64)>,
) -> bool {
    if done.full() {
        return true;
    }
    if !memo.insert((done.words.clone(), encode(state))) {
        return false; // already explored this frontier
    }
    // Only an op invoked before every pending op's return can go first:
    // anything later is real-time-after some pending op.
    let min_ret = ops
        .iter()
        .enumerate()
        .filter(|&(i, _)| !done.get(i))
        .map(|(_, o)| o.ret)
        .min()
        .expect("pending op exists");
    for i in 0..ops.len() {
        if done.get(i) || ops[i].invoke > min_ret {
            continue;
        }
        for next in apply(state, &ops[i]).into_iter().flatten() {
            done.set(i);
            if dfs(ops, done, next, memo) {
                return true;
            }
            done.unset(i);
        }
    }
    false
}

/// Check one key's operations against an initial state. Returns `Err` with
/// a description when no valid linearization exists.
///
/// Crashed (`*Maybe`) operations are treated as *pending forever*: their
/// abort is not a response event, so no real-time edge points out of them
/// and they may linearize after operations invoked much later — which is
/// exactly what happens when the repair pass rolls a crashed op forward
/// long after its abort returned to the caller.
pub fn check_key(key: u32, initial: Option<u32>, ops: &[OpRecord]) -> Result<(), String> {
    debug_assert!(ops.iter().all(|o| o.key == key));
    let open: Vec<OpRecord> = ops
        .iter()
        .map(|o| match o.action {
            OpAction::InsertMaybe { .. } | OpAction::RemoveMaybe => {
                OpRecord { ret: u64::MAX, ..*o }
            }
            _ => *o,
        })
        .collect();
    let mut done = Mask::new(ops.len());
    let mut memo = HashSet::new();
    if dfs(&open, &mut done, initial, &mut memo) {
        Ok(())
    } else {
        Err(format!(
            "key {key}: no linearization of {} ops (initial {initial:?}): {ops:?}",
            ops.len()
        ))
    }
}

/// Check a merged multi-key history. `initial` gives keys present before the
/// recorded window (absent keys start empty). Returns every per-key
/// violation found.
pub fn check_linearizable(
    records: &[OpRecord],
    initial: &HashMap<u32, u32>,
) -> Result<(), Vec<String>> {
    let mut by_key: HashMap<u32, Vec<OpRecord>> = HashMap::new();
    for r in records {
        by_key.entry(r.key).or_default().push(*r);
    }
    let mut errors = Vec::new();
    for (key, ops) in &by_key {
        if let Err(e) = check_key(*key, initial.get(key).copied(), ops) {
            errors.push(e);
        }
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(key: u32, action: OpAction, invoke: u64, ret: u64) -> OpRecord {
        OpRecord {
            key,
            action,
            invoke,
            ret,
        }
    }

    #[test]
    fn sequential_history_passes() {
        let ops = [
            rec(5, OpAction::Insert { value: 50, ok: true }, 0, 1),
            rec(5, OpAction::Get { found: Some(50) }, 2, 3),
            rec(5, OpAction::Insert { value: 60, ok: false }, 4, 5),
            rec(5, OpAction::Get { found: Some(50) }, 6, 7),
            rec(5, OpAction::Remove { ok: true }, 8, 9),
            rec(5, OpAction::Get { found: None }, 10, 11),
            rec(5, OpAction::Remove { ok: false }, 12, 13),
        ];
        check_key(5, None, &ops).unwrap();
    }

    #[test]
    fn overlapping_ops_need_a_reordering() {
        // The get returned None although the insert was invoked first —
        // legal only because they overlap (the get linearizes first).
        let ops = [
            rec(9, OpAction::Insert { value: 1, ok: true }, 0, 5),
            rec(9, OpAction::Get { found: None }, 1, 2),
        ];
        check_key(9, None, &ops).unwrap();
    }

    #[test]
    fn real_time_order_is_enforced() {
        // Same shape but NOT overlapping: the insert returned before the
        // get was invoked, so the get must see the value.
        let ops = [
            rec(9, OpAction::Insert { value: 1, ok: true }, 0, 1),
            rec(9, OpAction::Get { found: None }, 2, 3),
        ];
        assert!(check_key(9, None, &ops).is_err());
    }

    #[test]
    fn duplicate_insert_cannot_both_succeed() {
        let ops = [
            rec(3, OpAction::Insert { value: 7, ok: true }, 0, 4),
            rec(3, OpAction::Insert { value: 8, ok: true }, 1, 5),
        ];
        assert!(check_key(3, None, &ops).is_err(), "no remove between them");
    }

    #[test]
    fn insert_does_not_overwrite() {
        // Failed insert must not change the stored value.
        let ops = [
            rec(3, OpAction::Insert { value: 7, ok: true }, 0, 1),
            rec(3, OpAction::Insert { value: 8, ok: false }, 2, 3),
            rec(3, OpAction::Get { found: Some(8) }, 4, 5),
        ];
        assert!(check_key(3, None, &ops).is_err());
    }

    #[test]
    fn initial_state_respected() {
        let ops = [
            rec(1, OpAction::Get { found: Some(11) }, 0, 1),
            rec(1, OpAction::Remove { ok: true }, 2, 3),
        ];
        check_key(1, Some(11), &ops).unwrap();
        assert!(check_key(1, None, &ops).is_err());
    }

    #[test]
    fn multi_key_check_groups_independently() {
        let clock = HistoryClock::new();
        let mut r = Recorder::new(&clock);
        for key in [10u32, 20, 30] {
            let t = r.invoke();
            r.finish(key, OpAction::Insert { value: key * 2, ok: true }, t);
            let t = r.invoke();
            r.finish(key, OpAction::Get { found: Some(key * 2) }, t);
        }
        check_linearizable(&r.records, &HashMap::new()).unwrap();
        // Corrupt one key's observation.
        let mut bad = r.records.clone();
        bad[1].action = OpAction::Get { found: Some(999) };
        let errs = check_linearizable(&bad, &HashMap::new()).unwrap_err();
        assert_eq!(errs.len(), 1);
        assert!(errs[0].contains("key 10"));
    }

    #[test]
    fn crashed_ops_linearize_either_way() {
        // A crashed insert may or may not have landed; both continuations
        // must pass, but it cannot conjure a different value.
        let saw_it = [
            rec(6, OpAction::InsertMaybe { value: 60 }, 0, 1),
            rec(6, OpAction::Get { found: Some(60) }, 2, 3),
        ];
        check_key(6, None, &saw_it).unwrap();
        let missed_it = [
            rec(6, OpAction::InsertMaybe { value: 60 }, 0, 1),
            rec(6, OpAction::Get { found: None }, 2, 3),
        ];
        check_key(6, None, &missed_it).unwrap();
        let wrong_value = [
            rec(6, OpAction::InsertMaybe { value: 60 }, 0, 1),
            rec(6, OpAction::Get { found: Some(61) }, 2, 3),
        ];
        assert!(check_key(6, None, &wrong_value).is_err());
        // A crashed remove likewise: gone or still present are both legal.
        let gone = [
            rec(7, OpAction::RemoveMaybe, 0, 1),
            rec(7, OpAction::Get { found: None }, 2, 3),
        ];
        check_key(7, Some(70), &gone).unwrap();
        let stayed = [
            rec(7, OpAction::RemoveMaybe, 0, 1),
            rec(7, OpAction::Get { found: Some(70) }, 2, 3),
        ];
        check_key(7, Some(70), &stayed).unwrap();
    }

    #[test]
    fn crashed_op_may_take_effect_long_after_its_abort() {
        // Observed in the recovery soak: remove(k) crashed before its merge
        // linearized, two later inserts still saw k present, and the repair
        // pass then rolled the merge (and with it the removal) forward — so
        // the final get finds k absent. Legal: the crashed remove never
        // responded, so it linearizes after both inserts.
        let ops = [
            rec(5, OpAction::RemoveMaybe, 0, 1),
            rec(5, OpAction::Insert { value: 9, ok: false }, 2, 3),
            rec(5, OpAction::Get { found: None }, 4, 5),
        ];
        check_key(5, Some(50), &ops).unwrap();
        // An *acknowledged* remove is a real response event: the identical
        // shape must still fail the real-time check.
        let acked = [
            rec(5, OpAction::Remove { ok: true }, 0, 1),
            rec(5, OpAction::Insert { value: 9, ok: false }, 2, 3),
            rec(5, OpAction::Get { found: None }, 4, 5),
        ];
        assert!(check_key(5, Some(50), &acked).is_err());
    }

    #[test]
    fn scan_observations_decompose_per_key() {
        let clock = HistoryClock::new();
        let mut r = Recorder::new(&clock);
        let t = r.invoke();
        r.finish(10, OpAction::Insert { value: 100, ok: true }, t);
        let t = r.invoke();
        r.finish(20, OpAction::Insert { value: 200, ok: true }, t);
        // The scan runs after both inserts returned: it must see both, and
        // key 30 (never written) as absent.
        let t = r.invoke();
        r.finish_scan([(10, Some(100)), (20, Some(200)), (30, None)], t);
        check_linearizable(&r.records, &HashMap::new()).unwrap();

        // A scan that missed an insert which returned before the scan was
        // invoked is a real-time violation on that key alone.
        let mut bad = r.records.clone();
        let scan_get = bad
            .iter_mut()
            .find(|o| o.key == 20 && matches!(o.action, OpAction::Get { .. }))
            .unwrap();
        scan_get.action = OpAction::Get { found: None };
        let errs = check_linearizable(&bad, &HashMap::new()).unwrap_err();
        assert_eq!(errs.len(), 1);
        assert!(errs[0].contains("key 20"));
    }

    #[test]
    fn scan_overlapping_a_writer_may_cut_either_side() {
        // The scan window overlaps an insert: observing the key present or
        // absent are both valid cuts; observing a value never written is
        // not.
        for (found, ok) in [(Some(7), true), (None, true), (Some(8), false)] {
            let ops = [
                rec(5, OpAction::Insert { value: 7, ok: true }, 0, 10),
                rec(5, OpAction::Get { found }, 1, 11),
            ];
            assert_eq!(check_key(5, None, &ops).is_ok(), ok, "found {found:?}");
        }
    }

    #[test]
    fn three_way_race_with_valid_witness_passes() {
        // insert / remove / get all overlapping; get saw the value, so the
        // order insert < get < remove is a valid witness.
        let ops = [
            rec(4, OpAction::Insert { value: 44, ok: true }, 0, 10),
            rec(4, OpAction::Remove { ok: true }, 1, 11),
            rec(4, OpAction::Get { found: Some(44) }, 2, 12),
        ];
        check_key(4, None, &ops).unwrap();
    }
}
