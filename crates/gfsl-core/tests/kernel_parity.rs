//! Differential tests: the host chunk step against the scalar reference.
//!
//! The engine reads a chunk with one fixed-width team read and votes with
//! the fixed-width ballot kernels of `gfsl_simt::vector`; there is no
//! second kernel to swap in. What keeps them honest:
//!
//! * every ballot a [`ChunkView`] offers, and both traversal decisions
//!   built on them, against [`ScalarBallot`] — the per-lane loop kept purely
//!   as an oracle — over chunks of every shape a traversal can meet: sorted,
//!   mid-shift with a transient duplicate, torn across a concurrent remove,
//!   all EMPTY, sentinel-edged, and arbitrary words;
//! * the scripted schedules' trace hashes, pinned. The FNV trace (the
//!   shared `gfsl_rng::fnv` word-wise fold) folds every granted probe event
//!   of every team — who, what kind, which word — in execution order, so an
//!   unchanged hash means a change to the chunk step drove a byte-identical
//!   access schedule;
//! * random single-thread histories in order and through the key-sorted
//!   entry point with its hint live, which must agree reply for reply — the
//!   sorted call also under the scripted chaos schedules.

use std::sync::{Condvar, Mutex};

use gfsl::mc::strategy::Replay;
use gfsl::chunk::{ChunkRef, ChunkView, Entry};
use gfsl::search::{tid_for_next_step, tid_with_equal_key, LateralStep, NextStep};
use gfsl::{BatchOp, BatchReply, Gfsl, GfslHandle, GfslParams, MemProbe, NoProbe, TeamSize};
use gfsl_gpu_mem::WordPool;
use gfsl_simt::{Ballot, ScalarBallot, Team};
use proptest::prelude::*;

/// Keys per worker class in the scripted runs: enough to force several
/// splits of a 14-data-entry chunk, then merges on the way back down.
const KEYS_PER_CLASS: u32 = 40;

/// Script bytes per run: a byte is spent at each step where both workers
/// could run (some 2,500 of a run's 3,000), so this steers the whole run.
const SCRIPT_LEN: usize = 4096;

/// Deterministic script bytes from a seed (xorshift; no global RNG state so
/// the pinned seeds replay forever).
fn script_from_seed(seed: u64) -> Vec<u8> {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..SCRIPT_LEN)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 24) as u8
        })
        .collect()
}

/// How a scripted worker runs its ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Run {
    /// In order, one `try_*` call per op ([`in_order`]).
    Plain,
    /// Through the key-sorted entry point: `(key, index)` order, the
    /// bottom-level hint live for the call.
    Sorted,
}

/// Run `ops` one by one in order, each through the contained (`try_*`)
/// entry point the key-sorted call dispatches it to.
fn in_order<P: MemProbe>(h: &mut GfslHandle<'_, P>, ops: &[BatchOp]) -> Vec<BatchReply> {
    let fail = BatchReply::Failed;
    ops.iter()
        .map(|&op| match op {
            BatchOp::Get(k) => h.try_get(k).map_or_else(fail, BatchReply::Got),
            BatchOp::Insert(k, v) => h.try_insert(k, v).map_or_else(fail, BatchReply::Inserted),
            BatchOp::Remove(k) => h.try_remove(k).map_or_else(fail, BatchReply::Removed),
            BatchOp::CountRange(lo, hi) => h.try_count_range(lo, hi).map_or_else(fail, |n| BatchReply::Counted(n as u32)),
            BatchOp::MinEntry => h.try_min_entry().map_or_else(fail, BatchReply::MinIs),
            BatchOp::PopMin => h.try_pop_min().map_or_else(fail, BatchReply::Popped),
        })
        .collect()
}

/// Worker `t`'s ops: insert its class's keys, remove all but every 4th,
/// then probe membership and a range count so the lock-free read ballots
/// (eq / in-range / live) sit on the traced path too.
fn class_ops(t: u32) -> Vec<BatchOp> {
    let key = |i: u32| i * 2 + t + 1;
    let mut ops: Vec<BatchOp> = (0..KEYS_PER_CLASS)
        .map(|i| BatchOp::Insert(key(i), key(i) * 10))
        .collect();
    ops.extend((0..KEYS_PER_CLASS).filter(|i| i % 4 != 0).map(|i| BatchOp::Remove(key(i))));
    ops.extend((0..KEYS_PER_CLASS).map(|i| BatchOp::Get(key(i))));
    ops.push(BatchOp::CountRange(1, KEYS_PER_CLASS * 2));
    ops
}

/// Run the two-worker split/merge/read workload under one scripted
/// schedule and return the replay witnesses — the trace hash and the final
/// membership — and each worker's replies.
///
/// Handle creation is serialized through a gate (worker 0 first) because a
/// handle's raise-coin RNG stream is assigned at creation; leaving that to
/// OS spawn order would make the schedule, not the script, pick the workload.
fn scripted_run(script: Vec<u8>, run: Run) -> (u64, Vec<u32>, [Vec<BatchReply>; 2]) {
    let list = Gfsl::new(GfslParams {
        team_size: TeamSize::Sixteen,
        pool_chunks: 1 << 12,
        ..Default::default()
    })
    .expect("params valid");
    let ctl = gfsl::chaos::controller(2, Replay::new(script), None);
    let gate = (Mutex::new(0u32), Condvar::new());

    let replies = std::thread::scope(|s| {
        let workers = [0u32, 1].map(|t| {
            let list = &list;
            let ctl = &ctl;
            let gate = &gate;
            s.spawn(move || {
                let mut turn = gate.0.lock().unwrap();
                while *turn != t {
                    turn = gate.1.wait(turn).unwrap();
                }
                let mut h = list.handle_with(ctl.probe(t as usize));
                *turn += 1;
                gate.1.notify_all();
                drop(turn);

                let ops = class_ops(t);
                let out = match run {
                    Run::Plain => in_order(&mut h, &ops),
                    Run::Sorted => {
                        let mut out = Vec::new();
                        h.execute_batch_hinted(&ops, &mut out);
                        out
                    }
                };
                for (op, reply) in ops.iter().zip(&out) {
                    match (*op, *reply) {
                        (BatchOp::Insert(..), BatchReply::Inserted(true))
                        | (BatchOp::Remove(_), BatchReply::Removed(true)) => {}
                        (BatchOp::Get(k), BatchReply::Got(v)) => {
                            assert_eq!(v.is_some(), (k - t - 1) / 2 % 4 == 0, "get {k}");
                        }
                        // The range also sees the peer's (in-flight) class,
                        // so only this class's 10 survivors are a guaranteed
                        // lower bound (in order: the sorted call counts from
                        // key 1 before its own inserts); the exact value is
                        // part of the trace-hash comparison.
                        (BatchOp::CountRange(..), BatchReply::Counted(n)) => {
                            let least = if run == Run::Sorted { 0 } else { 10 };
                            assert!((least..=50).contains(&n), "count {n} outside feasible window");
                        }
                        other => panic!("unexpected reply {other:?}"),
                    }
                }
                out
            })
        });
        workers.map(|w| w.join().expect("scripted worker"))
    });

    list.assert_valid();
    (ctl.trace_hash(), list.keys(), replies)
}

/// Trace hashes of the plain scripted runs (script seeds 0..6). Re-pinned
/// when the schedule moved onto the model checker's controller (`Replay`
/// decisions instead of the chaos decider's, no stall draws, and a fold of
/// (who, kind, word) per granted step instead of (who, event code)), again
/// when splits and merges began repairing the index in one descent each,
/// and again when updates began taking their bottom lock with one CAS on
/// the search's certified view: the same fixes, fewer reads, so fewer
/// granted steps; and again when a level's last chunk began taking append
/// splits (both classes insert ascending keys, so a full tail chunk now
/// moves none of them) and a zombie view began re-reading its NEXT lane
/// (one more granted step per zombie view); and again when the parent-level
/// walks began certifying a re-read against the read before it (seed 1)
/// and `Gfsl::new` stopped allocating the heads of unused levels, which
/// moves every chunk's index (all six); and again when reclamation stopped
/// being optional: the runs now take its passes, whose reads and epoch
/// words are granted steps too (all six). `results/ab/` ("Turnstile fold",
/// 21.md; "Update-path index maintenance", 26.md; "Certified lock
/// upgrade", 28.md; "Append splits", 41.md; "Level heads on first use",
/// 43.md; "Reclamation always on", 49.md) lists old → new. A
/// change that alters any of them changed which word some team accessed on
/// which turn — re-pin only for a change that means to.
const PLAIN_TRACES: [u64; 6] = [
    0xb0c4_e969_c0be_29cc,
    0x8d6f_2aa7_f5ca_b8cb,
    0x9e88_f664_9dd0_940c,
    0x051c_fe09_b914_80a1,
    0x9bc5_e78f_943f_0400,
    0xb697_0eec_0b8a_cf74,
];

/// Acceptance check for any change to the chunk step: the pinned schedules
/// still produce the pinned trace hashes bit for bit (and the final state
/// the workload always ends in).
#[test]
fn scripted_chaos_traces_match_the_pinned_hashes() {
    for (seed, want) in PLAIN_TRACES.into_iter().enumerate() {
        let (trace, keys, _) = scripted_run(script_from_seed(seed as u64), Run::Plain);
        assert_eq!(
            trace, want,
            "the observable schedule changed under script seed {seed}: 0x{trace:016x}"
        );
        assert_eq!(keys.len(), 20, "every 4th key of both classes survives");
    }
}

/// Replay sanity for the harness itself: the same script is deterministic
/// within one process too (otherwise the pinned hashes above could pass or
/// fail by accident).
#[test]
fn scripted_run_replays_identically() {
    let script = script_from_seed(0xD1FF);
    let a = scripted_run(script.clone(), Run::Plain);
    let b = scripted_run(script, Run::Plain);
    assert_eq!(a, b, "scripted harness must be deterministic");
}

/// The key-sorted entry point under the same scripted schedules: each
/// worker's class is its own, so every point reply is decided by that
/// key's own history, which the `(key, index)` order preserves — the
/// sorted call, hint live while the peer splits and merges the chunks it
/// names, must answer exactly what the in-order call answers and leave the
/// same membership. (The range count sees the peer's in-flight class; both
/// runs hold it to the feasible window.)
#[test]
fn sorted_call_answers_as_the_in_order_call_under_scripted_chaos() {
    for seed in 0..6u64 {
        let script = script_from_seed(seed);
        let (_, plain_keys, plain) = scripted_run(script.clone(), Run::Plain);
        let (_, sorted_keys, sorted) = scripted_run(script, Run::Sorted);
        assert_eq!(plain_keys, sorted_keys, "membership diverged under script seed {seed}");
        for (p, s) in plain.iter().zip(&sorted) {
            let points = p.len() - 1;
            assert_eq!(p[..points], s[..points], "replies diverged under script seed {seed}");
        }
    }
}

/// One batch op over the interesting key space: a dense band that forces
/// splits and merges, plus the keys adjacent to both sentinels (`-∞` lives
/// in lane 0 as key 0; `EMPTY` is key `u32::MAX`). Reserved keys 0 and
/// `u32::MAX` are included deliberately: every configuration must agree on
/// typed failures too.
fn key_strategy() -> impl Strategy<Value = u32> {
    prop_oneof![
        4 => 1..=120u32,
        1 => Just(1u32),
        1 => (0..=3u32).prop_map(|d| u32::MAX - d),
        1 => Just(0u32),
    ]
}

fn op_strategy() -> impl Strategy<Value = BatchOp> {
    prop_oneof![
        3 => (key_strategy(), any::<u32>()).prop_map(|(k, v)| BatchOp::Insert(k, v)),
        2 => key_strategy().prop_map(BatchOp::Get),
        2 => key_strategy().prop_map(BatchOp::Remove),
        1 => (key_strategy(), 0..=140u32).prop_map(|(a, b)| BatchOp::CountRange(a.min(b), a.max(b))),
    ]
}

/// Apply one history to a fresh list — in order, or through the key-sorted
/// entry point — and return every reply plus the final membership.
fn apply_history(ops: &[BatchOp], sorted: bool) -> (Vec<BatchReply>, Vec<u32>) {
    let list = Gfsl::new(GfslParams {
        team_size: TeamSize::Sixteen,
        pool_chunks: 1 << 12,
        ..Default::default()
    })
    .expect("params valid");
    let mut h = list.handle();
    let out = if sorted {
        let mut out = Vec::new();
        h.execute_batch_hinted(ops, &mut out);
        out
    } else {
        in_order(&mut h, ops)
    };
    list.assert_valid();
    (out, list.keys())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Random single-thread histories (including sentinel-adjacent and
    /// reserved keys) produce identical replies and identical final
    /// membership in order and through the key-sorted entry point. That
    /// call runs a history in `(key, index)` order with its hint live —
    /// updates re-point it at the chunks they write, and the history's
    /// inserts and removes split and merge the very chunk it names — so it
    /// is held to the in-order call on the history sorted that way
    /// beforehand (a range count's reply depends on where among the other
    /// keys' ops it runs): a hint surviving a split or merge it should
    /// have rejected would change a reply.
    #[test]
    fn traversal_configs_agree_on_random_histories(
        ops in proptest::collection::vec(op_strategy(), 0..250),
    ) {
        let mut by_key = ops;
        by_key.sort_by_key(BatchOp::key);
        let in_order = apply_history(&by_key, false);
        let sorted = apply_history(&by_key, true);
        prop_assert_eq!(in_order, sorted, "the sorted call changed results");
    }
}

/// Deterministic sentinel-edge sweep: the first user key sits in the lane
/// right of `-∞`, the largest legal key (`u32::MAX - 1`) sits left of the
/// EMPTY right-packing, and the whole-keyspace range count must see exactly
/// the live set.
#[test]
fn sentinel_edge_lanes_answer_for_their_keys() {
    let mut ops: Vec<BatchOp> = vec![BatchOp::Insert(1, 11), BatchOp::Insert(u32::MAX - 1, 99)];
    ops.extend((10..=60).map(|k| BatchOp::Insert(k, k)));
    ops.extend([
        BatchOp::Get(1),
        BatchOp::Get(2),
        BatchOp::Get(u32::MAX - 1),
        BatchOp::Get(u32::MAX - 2),
        BatchOp::CountRange(1, u32::MAX - 1),
        BatchOp::Remove(1),
        BatchOp::Remove(u32::MAX - 1),
    ]);
    ops.extend((10..=60).map(BatchOp::Remove));
    ops.push(BatchOp::CountRange(1, u32::MAX - 1));
    let (replies, keys) = apply_history(&ops, false);
    assert!(keys.is_empty(), "everything removed");
    assert_eq!(replies[53], BatchReply::Got(Some(11)), "get(1) next to -inf");
    assert_eq!(replies[55], BatchReply::Got(Some(99)), "get(MAX-1) next to EMPTY");
    assert_eq!(replies[57], BatchReply::Counted(53), "full-span count");
}

/// The shapes a chunk's data array can be caught in.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// Sorted, left-packed, EMPTY tail: the state between updates.
    Settled,
    /// Mid `executeInsert`: lane `at + 1` already holds a copy of lane `at`.
    TransientDuplicate { at: usize },
    /// A read racing `executeRemove`'s left shift: lanes below `cut` were
    /// read before the shift, lanes from `cut` up after it.
    Torn { cut: usize, removed: usize },
    /// Freshly allocated, or emptied.
    AllEmpty,
    /// Arbitrary words: nothing the protocol writes, everything a ballot
    /// must still agree with the oracle on.
    Noise,
}

fn shape_strategy() -> impl Strategy<Value = Shape> {
    prop_oneof![
        2 => Just(Shape::Settled),
        2 => (0..32usize).prop_map(|at| Shape::TransientDuplicate { at }),
        2 => (0..32usize, 0..32usize).prop_map(|(cut, removed)| Shape::Torn { cut, removed }),
        1 => Just(Shape::AllEmpty),
        2 => Just(Shape::Noise),
    ]
}

/// Keys from the sentinels' neighbourhoods as often as from the middle.
fn edge_key_strategy() -> impl Strategy<Value = u32> {
    prop_oneof![
        3 => 1..=200u32,
        1 => 0..=2u32,
        1 => (0..=2u32).prop_map(|d| u32::MAX - d),
        1 => any::<u32>(),
    ]
}

/// Lay `shape` out over `dsize` data lanes from the raw material `keys`
/// (sorted and deduplicated here) and `noise`.
fn data_lanes(shape: Shape, dsize: usize, keys: &[u32], fill: usize, noise: &[u64]) -> Vec<u64> {
    let mut sorted: Vec<u32> = keys.iter().copied().filter(|&k| k != u32::MAX).collect();
    sorted.sort_unstable();
    sorted.dedup();
    sorted.truncate(fill.min(dsize));
    let settled = |keys: &[u32]| -> Vec<u64> {
        (0..dsize)
            .map(|i| keys.get(i).map_or(Entry::EMPTY, |&k| Entry::new(k, i as u32)).0)
            .collect()
    };
    match shape {
        Shape::Settled => settled(&sorted),
        Shape::TransientDuplicate { at } => {
            let mut lanes = settled(&sorted);
            let at = at % (dsize - 1);
            lanes[at + 1] = lanes[at];
            lanes
        }
        Shape::Torn { cut, removed } => {
            let before = settled(&sorted);
            if !sorted.is_empty() {
                sorted.remove(removed % sorted.len());
            }
            let after = settled(&sorted);
            let cut = cut % dsize;
            before[..cut].iter().chain(&after[cut..]).copied().collect()
        }
        Shape::AllEmpty => settled(&[]),
        Shape::Noise => noise[..dsize].to_vec(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// One fixed-width team read returns exactly the pool's words, and every
    /// ballot over it — and both traversal decisions — is bit for bit what
    /// the scalar oracle computes from the same words, for both team sizes.
    #[test]
    fn chunk_step_matches_the_scalar_oracle(
        (shape, keys, fill, noise) in (
            shape_strategy(),
            proptest::collection::vec(edge_key_strategy(), 32),
            0..=32usize,
            proptest::collection::vec(any::<u64>(), 32),
        ),
        (max, next, lock) in (edge_key_strategy(), any::<u32>(), any::<u64>()),
        (k, hi) in (edge_key_strategy(), edge_key_strategy()),
    ) {
        for size in [TeamSize::Sixteen, TeamSize::ThirtyTwo] {
            let team = Team::new(size);
            let (lanes, dsize) = (team.lanes(), team.dsize());
            // The chunk sits last in the pool: a read one word too wide
            // would trip the bounds check.
            let pool = WordPool::new(3 * lanes);
            let ch = ChunkRef { base: 2 * lanes as u32 };
            let mut words = data_lanes(shape, dsize, &keys, fill, &noise);
            words.push(Entry::new(max, next).0);
            words.push(lock);
            for (lane, &w) in words.iter().enumerate() {
                pool.write(ch.entry_addr(lane), w);
            }

            let view = ChunkView::read(&team, &pool, &mut NoProbe, ch);
            for (lane, &w) in words.iter().enumerate() {
                prop_assert_eq!(view.entry(lane).0, w, "lane {} of a {}-lane read", lane, lanes);
            }
            prop_assert_eq!(view.max(&team), max);
            prop_assert_eq!(view.next(&team), next);
            prop_assert_eq!(view.lock_word(&team), lock);

            let data = &words[..dsize];
            let le = ScalarBallot.keys_le(data, k);
            let eq = ScalarBallot.keys_eq(data, k);
            prop_assert_eq!(view.keys_le(&team, k).bits(), le);
            prop_assert_eq!(view.keys_eq(&team, k).bits(), eq);
            prop_assert_eq!(view.keys_live(&team).bits(), ScalarBallot.keys_live(data));
            prop_assert_eq!(
                view.keys_in_range(&team, k, hi).bits(),
                ScalarBallot.keys_in_range(data, k, hi)
            );
            prop_assert_eq!(
                view.num_keys(&team),
                ScalarBallot.keys_le(data, u32::MAX - 1).count_ones()
            );
            prop_assert_eq!(view.lane_of_key(&team, k), Ballot::from_bits(eq).highest());

            // The NEXT lane outvotes every DATA lane; otherwise the highest
            // DATA vote decides.
            let lateral = max < k;
            let want_next = match Ballot::from_bits(le).highest() {
                _ if lateral => NextStep::Lateral,
                Some(lane) => NextStep::Down(lane),
                None => NextStep::Backtrack,
            };
            prop_assert_eq!(tid_for_next_step(&team, k, &view), want_next);
            let want_eq = match Ballot::from_bits(eq).highest() {
                _ if lateral => LateralStep::Continue,
                Some(lane) => LateralStep::Found(lane),
                None => LateralStep::NotFound,
            };
            prop_assert_eq!(tid_with_equal_key(&team, k, &view), want_eq);
        }
    }
}
