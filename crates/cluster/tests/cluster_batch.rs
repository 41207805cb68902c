//! `Cluster::execute_batch`: the epoch batch as the cluster's unit of
//! execution. Replies and final state against the per-op routed API and a
//! sequential oracle over every kind of op a wire frame can carry; load
//! windows against the per-op path's; and linearizable per-key histories
//! with no acknowledged write lost while shards split and merge underneath
//! the batches.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

use gfsl::history::{check_linearizable, HistoryClock, OpAction, Recorder};
use gfsl::{BatchOp, BatchReply, Error, GfslParams, TeamSize, KEY_INF};
use gfsl_cluster::Cluster;
use gfsl_rng::SplitMix64;
use proptest::prelude::*;

/// Interior shard bounds of every cluster here: four shards over a key
/// space small enough that random epochs keep landing on the boundaries.
const BOUNDS: [u32; 3] = [100, 200, 300];
const KEY_SPACE: u32 = 400;

fn params16() -> GfslParams {
    GfslParams {
        team_size: TeamSize::Sixteen,
        pool_chunks: 1 << 12,
        ..Default::default()
    }
}

/// Containment must not hide bugs: a run that injects no crash ends with no
/// op panicked into a quarantine on any shard.
fn assert_no_contained_crash(c: &Cluster) {
    for s in c.shards() {
        let r = s.list.repair_stats();
        assert_eq!((r.crashed_ops, r.quarantine_depth), (0, 0), "shard {}: {r:?}", s.id);
    }
}

fn is_user_key(k: u32) -> bool {
    (1..KEY_INF).contains(&k)
}

/// The indices of `ops` in `(key, index)` order: the order a batch runs in.
fn key_order(ops: &[BatchOp]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..ops.len()).collect();
    order.sort_by_key(|&i| ops[i].key());
    order
}

/// What a single structure answers to `ops` executed in `(key, index)`
/// order — same-key ops in submission order, reserved keys never present
/// and never insertable, a window clipped to the user keys — with replies
/// index-aligned.
fn oracle_batch(oracle: &mut BTreeMap<u32, u32>, ops: &[BatchOp]) -> Vec<BatchReply> {
    let mut out = vec![BatchReply::Got(None); ops.len()];
    for i in key_order(ops) {
        out[i] = match ops[i] {
            BatchOp::Get(k) => BatchReply::Got(oracle.get(&k).copied()),
            BatchOp::Insert(k, _) if !is_user_key(k) => BatchReply::Failed(Error::InvalidKey(k)),
            BatchOp::Insert(k, v) => {
                let fresh = !oracle.contains_key(&k);
                oracle.entry(k).or_insert(v);
                BatchReply::Inserted(fresh)
            }
            BatchOp::Remove(k) => BatchReply::Removed(oracle.remove(&k).is_some()),
            BatchOp::CountRange(lo, hi) if lo > hi => BatchReply::Counted(0),
            BatchOp::CountRange(lo, hi) => BatchReply::Counted(oracle.range(lo..=hi).count() as u32),
            BatchOp::MinEntry => BatchReply::MinIs(oracle.first_key_value().map(|(&k, &v)| (k, v))),
            BatchOp::PopMin => BatchReply::Popped(oracle.pop_first()),
        };
    }
    out
}

/// `op` through the per-op routed API, or `None` where that API asserts
/// instead of answering (reserved keys, windows outside the user keys).
fn routed_one(c: &Cluster, op: BatchOp) -> Option<BatchReply> {
    let reply = match op {
        BatchOp::Get(k) if is_user_key(k) => c.get(k).map(BatchReply::Got),
        BatchOp::Insert(k, v) if is_user_key(k) => c.insert(k, v).map(BatchReply::Inserted),
        BatchOp::Remove(k) if is_user_key(k) => c.remove(k).map(BatchReply::Removed),
        BatchOp::CountRange(lo, hi) if is_user_key(lo) && is_user_key(hi) && lo <= hi => {
            c.count_range(lo, hi).map(|n| BatchReply::Counted(n as u32))
        }
        BatchOp::MinEntry => c.min_entry().map(BatchReply::MinIs),
        BatchOp::PopMin => c.pop_min().map(BatchReply::Popped),
        _ => return None,
    };
    Some(reply.unwrap_or_else(BatchReply::Failed))
}

/// Keys on and around every shard boundary and both sentinels, plus the
/// space between.
fn key_strategy() -> impl Strategy<Value = u32> {
    prop_oneof![
        4 => 1..=KEY_SPACE,
        3 => (0..BOUNDS.len(), 0..3u32).prop_map(|(b, d)| BOUNDS[b] - 1 + d),
        1 => Just(1u32),
        1 => Just(KEY_INF - 1),
        1 => prop_oneof![Just(0u32), Just(KEY_INF)],
    ]
}

fn op_strategy() -> impl Strategy<Value = BatchOp> {
    prop_oneof![
        4 => (key_strategy(), any::<u32>()).prop_map(|(k, v)| BatchOp::Insert(k, v)),
        4 => key_strategy().prop_map(BatchOp::Get),
        3 => key_strategy().prop_map(BatchOp::Remove),
        2 => (key_strategy(), key_strategy()).prop_map(|(a, b)| BatchOp::CountRange(a, b)),
        1 => Just(BatchOp::MinEntry),
        1 => Just(BatchOp::PopMin),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Random epochs — point ops across and on every shard boundary,
    /// repeated keys, fan-out reads and min ops interleaved, reserved keys
    /// and inverted windows — answer through the batch exactly what the
    /// oracle answers, and wherever the per-op API answers at all, what it
    /// answers when driven in the same `(key, index)` order; the three end
    /// in the same state.
    #[test]
    fn epochs_match_the_routed_api_and_the_oracle(
        epochs in proptest::collection::vec(proptest::collection::vec(op_strategy(), 0..64), 1..5),
    ) {
        let batched = Cluster::with_bounds(params16(), &BOUNDS).unwrap();
        let routed = Cluster::with_bounds(params16(), &BOUNDS).unwrap();
        let mut oracle = BTreeMap::new();
        for ops in &epochs {
            let mut got = Vec::new();
            batched.execute_batch(ops, &mut got);
            let want = oracle_batch(&mut oracle, ops);
            prop_assert_eq!(&got, &want, "batch vs oracle over {:?}", ops);

            for i in key_order(ops) {
                if let Some(reply) = routed_one(&routed, ops[i]) {
                    prop_assert_eq!(reply, got[i], "op {} = {:?}", i, ops[i]);
                }
            }
        }
        batched.assert_valid();
        assert_no_contained_crash(&batched);
        assert_no_contained_crash(&routed);
        let pairs: Vec<(u32, u32)> = oracle.into_iter().collect();
        prop_assert_eq!(batched.pairs(), pairs.clone());
        prop_assert_eq!(routed.pairs(), pairs);
    }
}

/// The rebalance policy reads `Shard::window()`: a batch must feed it what
/// the per-op path feeds it for the same ops — one read or write per point
/// op on its shard, one read per shard a count overlaps, one per shard a
/// min scan visits.
#[test]
fn a_batch_feeds_the_load_windows_what_the_per_op_path_feeds_them() {
    let mut rng = SplitMix64::new(0xB47C);
    let ops: Vec<BatchOp> = (0..2_000)
        .map(|_| {
            let r = rng.next_u64();
            let k = (r % u64::from(KEY_SPACE) + 1) as u32;
            match (r >> 32) % 16 {
                0..=3 => BatchOp::Insert(k, k),
                4..=6 => BatchOp::Remove(k),
                7 => BatchOp::CountRange(k, k.saturating_add((r >> 40) as u32 % 150)),
                8 => BatchOp::MinEntry,
                9 => BatchOp::PopMin,
                _ => BatchOp::Get(k),
            }
        })
        .collect();
    let batched = Cluster::with_bounds(params16(), &BOUNDS).unwrap();
    let routed = Cluster::with_bounds(params16(), &BOUNDS).unwrap();
    for epoch in ops.chunks(500) {
        batched.execute_batch(epoch, &mut Vec::new());
        for i in key_order(epoch) {
            routed_one(&routed, epoch[i]).expect("every op here is one the per-op API answers");
        }
    }
    let windows = |c: &Cluster| c.shards().iter().map(|s| s.window()).collect::<Vec<_>>();
    assert_eq!(windows(&batched), windows(&routed));
    assert!(windows(&batched).iter().all(|&(r, w)| r > 0 && w > 0), "every shard saw load");
    assert_no_contained_crash(&batched);
    assert_no_contained_crash(&routed);
}

/// Two threads drive `execute_batch` over disjoint key classes while a
/// third splits and merges shards underneath them. Every run re-verifies
/// its shard after fencing it, so a batch never writes a retired shard:
/// per-key histories must linearize (each op's interval is its batch
/// call), every reply must be what the thread's own sequential oracle says
/// (a class has one writer, and the batch keeps same-key order), and the
/// end state must hold every acknowledged write.
#[test]
fn batches_linearize_and_lose_nothing_across_live_migrations() {
    const WORKERS: u32 = 2;
    const EPOCH_OPS: usize = 48;
    const MIN_BATCHES: u32 = 200;
    const MIN_MAP_EPOCHS_SEEN: u32 = 16;
    const MAX_SHARDS: usize = 8;

    let cluster = Cluster::with_bounds(params16(), &BOUNDS).unwrap();
    let initial: HashMap<u32, u32> = (1..=KEY_SPACE).step_by(3).map(|k| (k, k)).collect();
    for (&k, &v) in &initial {
        cluster.insert(k, v).unwrap();
    }
    let clock = HistoryClock::new();
    let stop = AtomicBool::new(false);
    let start = Barrier::new(WORKERS as usize + 1);

    let (results, migrations) = std::thread::scope(|s| {
        let migrator = s.spawn(|| {
            let mut rng = SplitMix64::new(0x5117);
            let mut done = 0u64;
            start.wait();
            while !stop.load(Ordering::Relaxed) {
                let r = rng.next_u64();
                let key = (r % u64::from(KEY_SPACE) + 1) as u32;
                let id = cluster.shards().iter().find(|sh| sh.owns(key)).unwrap().id;
                let event = if r >> 63 == 0 && cluster.shard_count() < MAX_SHARDS {
                    cluster.split_shard(id).expect("split")
                } else {
                    cluster.merge_with_right(id).expect("merge")
                };
                done += u64::from(event.is_some());
            }
            done
        });
        let workers: Vec<_> = (0..WORKERS)
            .map(|t| {
                let (cluster, clock, start, initial) = (&cluster, &clock, &start, &initial);
                s.spawn(move || {
                    // This thread's class: keys congruent to `t`.
                    let mut oracle: BTreeMap<u32, u32> = initial
                        .iter()
                        .filter(|(&k, _)| k % WORKERS == t)
                        .map(|(&k, &v)| (k, v))
                        .collect();
                    let mut rng = SplitMix64::new(0xBA7C ^ u64::from(t));
                    let mut rec = Recorder::new(clock);
                    let (mut batches, mut map_epochs_seen, mut last_epoch) = (0u32, 0u32, 0u64);
                    start.wait();
                    // Until enough batches ran *and* enough of them started
                    // under a map the migrator had changed since the last.
                    while batches < MIN_BATCHES || map_epochs_seen < MIN_MAP_EPOCHS_SEEN {
                        let ops: Vec<BatchOp> = (0..EPOCH_OPS)
                            .map(|i| {
                                let r = rng.next_u64();
                                let k = (r % u64::from(KEY_SPACE / WORKERS - 1) + 1) as u32 * WORKERS + t;
                                match (r >> 32) % 10 {
                                    0..=2 => BatchOp::Insert(k, batches * 64 + i as u32),
                                    3..=5 => BatchOp::Remove(k),
                                    _ => BatchOp::Get(k),
                                }
                            })
                            .collect();
                        let now = cluster.epoch();
                        map_epochs_seen += u32::from(now != last_epoch);
                        last_epoch = now;

                        let invoke = rec.invoke();
                        let mut got = Vec::new();
                        cluster.execute_batch(&ops, &mut got);
                        assert_eq!(got, oracle_batch(&mut oracle, &ops), "worker {t} batch {batches}");
                        for (op, reply) in ops.iter().zip(&got) {
                            let action = match (*op, *reply) {
                                (BatchOp::Insert(_, value), BatchReply::Inserted(ok)) => {
                                    OpAction::Insert { value, ok }
                                }
                                (BatchOp::Remove(_), BatchReply::Removed(ok)) => OpAction::Remove { ok },
                                (BatchOp::Get(_), BatchReply::Got(found)) => OpAction::Get { found },
                                other => panic!("worker {t}: unexpected reply {other:?}"),
                            };
                            rec.finish(op.key(), action, invoke);
                        }
                        batches += 1;
                    }
                    (rec.records, oracle)
                })
            })
            .collect();
        // Stop the migrator before looking at how the workers ended: a
        // worker that failed must fail the test, not leave it spinning.
        let results: Vec<_> = workers.into_iter().map(|w| w.join()).collect();
        stop.store(true, Ordering::Relaxed);
        let migrations = migrator.join().expect("migrator");
        let results: Vec<_> = results.into_iter().map(|r| r.expect("worker")).collect();
        (results, migrations)
    });
    assert!(migrations > 0, "the migrator must have installed splits and merges");

    cluster.assert_valid();
    assert_no_contained_crash(&cluster);
    let mut records = Vec::new();
    let mut expect = BTreeMap::new();
    for (history, oracle) in results {
        records.extend(history);
        expect.extend(oracle);
    }
    assert_eq!(
        cluster.pairs(),
        expect.into_iter().collect::<Vec<_>>(),
        "an acknowledged write was lost or resurrected"
    );
    // Sequential reads on the same clock pin the end state for the checker.
    let mut rec = Recorder::new(&clock);
    for key in 1..=KEY_SPACE {
        let invoke = rec.invoke();
        let found = cluster.get(key).unwrap();
        rec.finish(key, OpAction::Get { found }, invoke);
    }
    records.extend(rec.records);
    if let Err(errors) = check_linearizable(&records, &initial) {
        panic!("non-linearizable cluster history across migrations: {errors:?}");
    }
}
