//! Differential and linearizability coverage for the flat-bottom
//! (B-Skiplist) engine — the same bar the chunked engine's knobs clear
//! before shipping off-by-default:
//!
//! * random histories against a `BTreeMap` oracle, with a tiny leaf
//!   capacity that forces constant splits/retires;
//! * the flat engine against the chunked GFSL on identical histories
//!   (engines must be observationally interchangeable behind [`KvEngine`]);
//! * a multi-threaded linearizability soak over a tight keyspace, checked
//!   with the repo's real-time-order checker.

use std::collections::{BTreeMap, HashMap};

use gfsl::history::{check_linearizable, HistoryClock, OpAction, OpRecord, Recorder};
use gfsl::{FlatSkiplist, Gfsl, GfslParams, KvEngine, TeamSize};
use proptest::prelude::*;

/// One oracle-checked op over a band tight enough to split tiny leaves.
#[derive(Debug, Clone, Copy)]
enum FlatOp {
    Insert(u32, u32),
    Remove(u32),
    Get(u32),
    Range(u32, u32),
}

fn key_strategy() -> impl Strategy<Value = u32> {
    prop_oneof![
        6 => 1..=160u32,
        1 => Just(1u32),
        1 => (0..=2u32).prop_map(|d| u32::MAX - 1 - d),
    ]
}

fn op_strategy() -> impl Strategy<Value = FlatOp> {
    prop_oneof![
        3 => (key_strategy(), any::<u32>()).prop_map(|(k, v)| FlatOp::Insert(k, v)),
        2 => key_strategy().prop_map(FlatOp::Remove),
        2 => key_strategy().prop_map(FlatOp::Get),
        1 => (key_strategy(), key_strategy()).prop_map(|(a, b)| FlatOp::Range(a.min(b), a.max(b))),
    ]
}

/// Drive one history through any [`KvEngine`], returning every observation.
fn drive(h: &mut impl KvEngine, ops: &[FlatOp]) -> Vec<u64> {
    let mut obs = Vec::with_capacity(ops.len());
    for &op in ops {
        obs.push(match op {
            FlatOp::Insert(k, v) => h.insert(k, v) as u64,
            FlatOp::Remove(k) => h.remove(k) as u64,
            FlatOp::Get(k) => match h.get(k) {
                None => u64::MAX,
                Some(v) => v as u64,
            },
            FlatOp::Range(lo, hi) => {
                let got = h.range(lo, hi);
                assert!(
                    got.windows(2).all(|w| w[0].0 < w[1].0),
                    "range must be sorted and unique"
                );
                got.iter()
                    .map(|&(k, v)| k as u64 ^ (v as u64) << 32)
                    .fold(0u64, u64::wrapping_add)
            }
        });
    }
    obs
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Flat engine vs `BTreeMap` oracle, leaf capacity 4 so a
    /// 160-key band splits and retires leaves constantly.
    #[test]
    fn flat_matches_btree_oracle(ops in proptest::collection::vec(op_strategy(), 0..300)) {
        let list = FlatSkiplist::with_leaf_cap(4);
        let mut h = list.handle();
        let mut oracle: BTreeMap<u32, u32> = BTreeMap::new();
        for &op in &ops {
            match op {
                FlatOp::Insert(k, v) => {
                    let added = h.insert(k, v);
                    prop_assert_eq!(added, !oracle.contains_key(&k));
                    oracle.entry(k).or_insert(v);
                }
                FlatOp::Remove(k) => {
                    prop_assert_eq!(h.remove(k), oracle.remove(&k).is_some());
                }
                FlatOp::Get(k) => {
                    prop_assert_eq!(h.get(k), oracle.get(&k).copied());
                }
                FlatOp::Range(lo, hi) => {
                    let want: Vec<(u32, u32)> =
                        oracle.range(lo..=hi).map(|(&k, &v)| (k, v)).collect();
                    prop_assert_eq!(h.range(lo, hi), want);
                }
            }
        }
        list.assert_valid();
    }

    /// The two engines behind [`KvEngine`] are observationally identical on
    /// any single-threaded history.
    #[test]
    fn flat_and_gfsl_engines_agree(ops in proptest::collection::vec(op_strategy(), 0..250)) {
        let flat = FlatSkiplist::with_leaf_cap(8);
        let gfsl = Gfsl::new(GfslParams {
            team_size: TeamSize::Sixteen,
            pool_chunks: 1 << 12,
            ..Default::default()
        })
        .unwrap();
        let a = drive(&mut flat.handle(), &ops);
        let b = drive(&mut gfsl.handle(), &ops);
        prop_assert_eq!(a, b, "engines diverged behind the KvEngine seam");
        flat.assert_valid();
        gfsl.assert_valid();
    }
}

/// Multi-threaded linearizability soak: a tight keyspace over tiny leaves
/// maximizes leaf-mutex contention, splits, and empty-leaf retirement
/// racing point ops. Every operation is recorded on a shared real-time
/// clock and the merged history must linearize per key.
#[test]
fn flat_engine_linearizability_soak() {
    const THREADS: u64 = 4;
    const OPS: u64 = 600;
    const KEYSPACE: u64 = 48;

    let list = FlatSkiplist::with_leaf_cap(4);
    let clock = HistoryClock::new();

    let histories: Vec<Vec<OpRecord>> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let list = &list;
                let clock = &clock;
                s.spawn(move || {
                    let mut h = list.handle();
                    let mut rec = Recorder::new(clock);
                    let mut x = (t << 32) | 0x2545_F491 | 1;
                    for i in 0..OPS {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let k = (x % KEYSPACE) as u32 + 1;
                        let inv = rec.invoke();
                        match x % 3 {
                            0 => {
                                let value = (t * OPS + i) as u32;
                                let ok = h.insert(k, value);
                                rec.finish(k, OpAction::Insert { value, ok }, inv);
                            }
                            1 => {
                                let ok = h.remove(k);
                                rec.finish(k, OpAction::Remove { ok }, inv);
                            }
                            _ => {
                                let found = h.get(k);
                                rec.finish(k, OpAction::Get { found }, inv);
                            }
                        }
                    }
                    rec.records
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });

    let records: Vec<OpRecord> = histories.into_iter().flatten().collect();
    assert_eq!(records.len() as u64, THREADS * OPS);
    if let Err(errors) = check_linearizable(&records, &HashMap::new()) {
        panic!("flat engine produced a non-linearizable history: {errors:?}");
    }
    list.assert_valid();
    let shape = list.shape();
    assert!(shape.splits > 0, "soak must split tiny leaves: {shape:?}");
}
