//! Deterministic schedule exploration of the concurrent protocol.
//!
//! Each test runs a small adversarial scenario under hundreds of *seeded,
//! reproducible* interleavings: every memory access of every participant is
//! gated by the one schedule turnstile ([`McController`]) with no fault
//! plan, which serializes accesses in an order that is a pure function of
//! the seed. A failure prints the seed, so any discovered race replays
//! exactly.
//!
//! This complements the wall-clock stress tests: those explore schedules
//! the OS happens to produce; these explore schedules chosen adversarially
//! at per-access granularity — including ones a preemptive scheduler on
//! this machine would essentially never produce (e.g. a reader observing
//! every intermediate store of a split's publish-then-clear sequence).

use std::sync::Arc;

use gfsl::mc::strategy::RandomWalk;
use gfsl::{Gfsl, GfslParams, McController, TeamSize};

/// A schedule-only controller: seeded turn selection, nothing injected.
fn turnstile(threads: usize, seed: u64) -> Arc<McController> {
    gfsl::chaos::controller(threads, RandomWalk::new(seed, 1), None)
}

fn tiny_list(prefill: impl IntoIterator<Item = u32>) -> Gfsl {
    let list = Gfsl::new(GfslParams {
        team_size: TeamSize::Sixteen,
        pool_chunks: 1 << 12,
        ..Default::default()
    })
    .unwrap();
    {
        let mut h = list.handle();
        for k in prefill {
            h.insert(k, k * 3).unwrap();
        }
    }
    list
}

/// Two inserters whose keys land in the same (nearly full) chunk: every
/// interleaving of the split protocol must keep both keys and all old keys.
#[test]
fn racing_inserts_into_one_full_chunk() {
    for seed in 0..250u64 {
        // 13 keys: one below the 14-entry array's capacity (with -inf).
        let list = tiny_list((1..=13).map(|i| i * 10));
        let ts = turnstile(2, seed);
        std::thread::scope(|s| {
            for (id, key) in [(0usize, 55u32), (1, 56)] {
                let list = &list;
                let ts = ts.clone();
                s.spawn(move || {
                    let mut h = list.handle_with(ts.probe(id));
                    assert!(h.insert(key, key).unwrap(), "seed {seed} key {key}");
                });
            }
        });
        let keys = list.keys();
        let mut expect: Vec<u32> = (1..=13).map(|i| i * 10).collect();
        expect.extend([55, 56]);
        expect.sort_unstable();
        assert_eq!(keys, expect, "seed {seed}");
        let violations = list.validate();
        assert!(violations.is_empty(), "seed {seed}: {violations:?}");
    }
}

/// An inserter racing a deleter that empties the same chunk into a merge:
/// the untouched keys must survive every interleaving.
#[test]
fn racing_insert_and_merge() {
    for seed in 0..250u64 {
        let list = tiny_list([10, 20, 30, 40, 200, 210, 220, 230, 240, 250, 260, 270, 280]);
        let ts = turnstile(2, seed);
        std::thread::scope(|s| {
            {
                let list = &list;
                let ts = ts.clone();
                s.spawn(move || {
                    let mut h = list.handle_with(ts.probe(0));
                    // Deleting most of the left keys drives the chunk under
                    // the merge threshold.
                    for k in [10u32, 20, 30] {
                        assert!(h.remove(k), "seed {seed} remove {k}");
                    }
                });
            }
            {
                let list = &list;
                let ts = ts.clone();
                s.spawn(move || {
                    let mut h = list.handle_with(ts.probe(1));
                    assert!(h.insert(15, 15).unwrap(), "seed {seed} insert");
                    assert!(h.insert(25, 25).unwrap(), "seed {seed} insert2");
                });
            }
        });
        let keys = list.keys();
        for k in [40u32, 200, 210, 220, 230, 240, 250, 260, 270, 280, 15, 25] {
            assert!(keys.contains(&k), "seed {seed}: lost key {k}; have {keys:?}");
        }
        for k in [10u32, 20, 30] {
            assert!(!keys.contains(&k), "seed {seed}: zombie key {k}");
        }
        list.assert_valid();
    }
}

/// The §4.3 reader guarantee under adversarial schedules: a lock-free
/// reader probing an anchored key must find it at *every* gated point of a
/// concurrent split/merge storm around it.
#[test]
fn reader_sees_anchor_through_split_and_merge_storm() {
    for seed in 0..200u64 {
        let list = tiny_list((1..=12).map(|i| i * 10)); // anchor = 60
        let ts = turnstile(2, seed);
        std::thread::scope(|s| {
            {
                // Writer: inserts fillers to force a split, then deletes
                // them to force a merge.
                let list = &list;
                let ts = ts.clone();
                s.spawn(move || {
                    let mut h = list.handle_with(ts.probe(0));
                    for k in 61..=68u32 {
                        h.insert(k, k).unwrap();
                    }
                    for k in 61..=68u32 {
                        assert!(h.remove(k), "seed {seed} remove {k}");
                    }
                });
            }
            {
                // Reader: the anchor must never flicker.
                let list = &list;
                let ts = ts.clone();
                s.spawn(move || {
                    let mut h = list.handle_with(ts.probe(1));
                    for probe_round in 0..40 {
                        assert_eq!(
                            h.get(60),
                            Some(180),
                            "seed {seed}: anchor lost at round {probe_round}"
                        );
                    }
                });
            }
        });
        list.assert_valid();
    }
}

/// Three-way chaos on one tiny structure: final state must equal the union
/// of per-thread oracles (threads own disjoint keys).
#[test]
fn three_writers_disjoint_oracle() {
    for seed in (0..600u64).step_by(3) {
        let list = tiny_list([]);
        let ts = turnstile(3, seed);
        let finals: Vec<Vec<u32>> = std::thread::scope(|s| {
            (0..3usize)
                .map(|id| {
                    let list = &list;
                    let ts = ts.clone();
                    s.spawn(move || {
                        let mut h = list.handle_with(ts.probe(id));
                        let mut mine = Vec::new();
                        // Insert 8 keys, remove every other one.
                        for i in 0..8u32 {
                            let k = i * 3 + id as u32 + 1;
                            assert!(h.insert(k, k).unwrap());
                            mine.push(k);
                        }
                        for i in (0..8u32).step_by(2) {
                            let k = i * 3 + id as u32 + 1;
                            assert!(h.remove(k));
                            mine.retain(|&x| x != k);
                        }
                        mine
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|j| j.join().unwrap())
                .collect()
        });
        let mut expect: Vec<u32> = finals.into_iter().flatten().collect();
        expect.sort_unstable();
        assert_eq!(list.keys(), expect, "seed {seed}");
        list.assert_valid();
    }
}

/// The replay-determinism witness itself: one seed walks one schedule —
/// trace hash, step count, decision bytes and crash-point hits all equal —
/// different seeds walk different ones, and the walks do reach the lock
/// protocol's windows.
#[test]
fn same_seed_replays_and_seeds_differ() {
    let run = |seed: u64| {
        let list = tiny_list([]);
        let ts = turnstile(2, seed);
        std::thread::scope(|s| {
            for id in 0..2u32 {
                let (list, ts) = (&list, &ts);
                s.spawn(move || {
                    let mut h = list.handle_with(ts.probe(id as usize));
                    for i in 0..40u32 {
                        let k = 1 + i * 2 + id;
                        h.insert(k, k).unwrap();
                        if i % 3 == 0 {
                            h.remove(k);
                        }
                    }
                });
            }
        });
        list.assert_valid();
        (ts.trace_hash(), ts.steps(), ts.decisions(), ts.crash_point_hits())
    };
    let a = run(42);
    assert_eq!(a, run(42), "same seed must replay the identical schedule");
    assert!(a.1 > 100, "the schedule actually serialized accesses");
    let hits = |p: gfsl::CrashPoint| a.3[p as usize].1;
    assert!(hits(gfsl::CrashPoint::LockCas) > 0, "every lock acquisition passes LockCas");
    assert!(hits(gfsl::CrashPoint::SplitPublish) > 0, "enough inserts to split");
    let distinct: std::collections::HashSet<u64> = (0..6).map(|seed| run(seed).0).collect();
    assert!(distinct.len() > 2, "only {} distinct traces", distinct.len());
}
