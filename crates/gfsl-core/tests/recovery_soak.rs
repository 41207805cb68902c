//! Chaos recovery soak: crash-containment end to end, for every crash
//! point in the lock protocol.
//!
//! For each (crash point × seed) cell, two contending workers run a mixed
//! insert/remove/get workload in containment mode while the chaos layer
//! kills one operation at the seeded occurrence of the target crash point.
//! The dead op's chunks land in quarantine; the surviving worker keeps
//! operating around them (aborting with typed `Quarantined` errors where it
//! must). After the run, online repair drains the quarantine, and the cell
//! passes only if
//!
//! 1. every structural invariant validates clean (`Gfsl::validate`),
//! 2. no acknowledged operation is lost and every crashed op either fully
//!    happened or not at all — checked by a per-key linearizability search
//!    over the recorded history (crashed ops enter as `InsertMaybe` /
//!    `RemoveMaybe`, final sequential gets pin the end state),
//! 3. the quarantine is empty and stays empty.
//!
//! Seeds per point come from `GFSL_SOAK_SEEDS` (default 4; CI runs 32), and
//! `GFSL_SOAK_STATS=<path>` dumps per-cell repair/abort statistics for the
//! CI artifact.

use std::collections::HashMap;

use gfsl::chaos::LOCK_CRASH_POINTS;
use gfsl::history::{check_linearizable, HistoryClock, OpAction, Recorder};
use gfsl::mc::strategy::{RandomWalk, Replay};
use gfsl::{AbortReason, CrashPoint, Error, Gfsl, GfslParams, TeamSize};
use gfsl_rng::SplitMix64;

const KEY_SPACE: u32 = 110;
const OPS_PER_WORKER: usize = 120;
const WORKERS: usize = 2;

fn soak_seeds() -> u64 {
    std::env::var("GFSL_SOAK_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4)
}

#[derive(Debug, Default)]
struct CellStats {
    crashed_ops: u64,
    aborts: u64,
    chunks_quarantined: u64,
    repaired_forward: u64,
    repaired_back: u64,
    unpoisoned_clean: u64,
    downptr_repairs: u64,
}

/// One soak cell: seeded run, crash at `point`, repair, full verification.
/// Returns the cell's recovery statistics.
fn soak_cell(point: CrashPoint, seed: u64) -> CellStats {
    gfsl::quiet_injected_panics();
    let list = Gfsl::new(GfslParams {
        team_size: TeamSize::Sixteen,
        pool_chunks: 1 << 12,
        ..Default::default()
    })
    .unwrap();
    // Prefill so removes and merges have something to chew on from turn one.
    {
        let mut h = list.handle();
        for k in (2..KEY_SPACE).step_by(2) {
            h.insert(k, k).unwrap();
        }
    }
    let occurrence = 1 + seed % 3;
    let ctl = gfsl::chaos::controller(
        WORKERS,
        RandomWalk::new(seed ^ 0xD6E8_FEB8_6659_FD93, 1),
        Some((point, occurrence)),
    );

    let clock = HistoryClock::new();
    let histories: Vec<_> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..WORKERS)
            .map(|t| {
                let (list, ctl, clock) = (&list, &ctl, &clock);
                s.spawn(move || {
                    let mut rec = Recorder::new(clock);
                    let mut rng = SplitMix64::new(seed.wrapping_mul(0x9E37) ^ t as u64);
                    let mut h = list.handle_with(ctl.probe(t));
                    for _ in 0..OPS_PER_WORKER {
                        let r = rng.next_u64();
                        let key = (r % u64::from(KEY_SPACE) + 1) as u32;
                        let value = (r >> 40) as u32 | 1;
                        let inv = rec.invoke();
                        match (r >> 32) % 5 {
                            0 | 1 => match h.try_insert(key, value) {
                                Ok(ok) => rec.finish(key, OpAction::Insert { value, ok }, inv),
                                Err(Error::Aborted(a)) => {
                                    if a.reason == AbortReason::Crashed {
                                        // Outcome unknown: repair may roll it
                                        // forward. The checker tries both.
                                        rec.finish(key, OpAction::InsertMaybe { value }, inv);
                                    }
                                    // Clean aborts (quarantined chunk, budget)
                                    // have no effect: no record.
                                }
                                Err(e) => panic!("insert({key}): unexpected error {e}"),
                            },
                            2 | 3 => match h.try_remove(key) {
                                Ok(ok) => rec.finish(key, OpAction::Remove { ok }, inv),
                                Err(Error::Aborted(a)) => {
                                    if a.reason == AbortReason::Crashed {
                                        rec.finish(key, OpAction::RemoveMaybe, inv);
                                    }
                                }
                                Err(e) => panic!("remove({key}): unexpected error {e}"),
                            },
                            _ => match h.try_get(key) {
                                Ok(found) => rec.finish(key, OpAction::Get { found }, inv),
                                Err(Error::Aborted(a)) => {
                                    assert_ne!(
                                        a.reason,
                                        AbortReason::Crashed,
                                        "lock-free gets cannot crash"
                                    );
                                }
                                Err(e) => panic!("get({key}): unexpected error {e}"),
                            },
                        }
                    }
                    rec.records
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("worker must survive (containment)"))
            .collect()
    });

    let fired = ctl
        .crash_point_hits()
        .into_iter()
        .find(|&(p, _)| p == point)
        .map(|(_, n)| n)
        .unwrap_or(0);

    // Online repair, then the three verdicts: structure valid, quarantine
    // empty, history linearizable.
    let stats = list.handle().repair_quarantine();
    assert_eq!(
        stats.quarantine_depth, 0,
        "[{point:?} seed {seed}] repair must drain the quarantine"
    );
    let violations = list.validate();
    assert!(
        violations.is_empty(),
        "[{point:?} seed {seed}] post-repair invariant violations: {violations:?}"
    );
    if stats.crashed_ops > 0 {
        assert!(
            fired >= occurrence,
            "[{point:?} seed {seed}] a crash implies the point fired"
        );
    }

    let mut records: Vec<_> = histories.into_iter().flatten().collect();
    {
        // Sequential reads on the same clock pin the post-repair state:
        // an acknowledged-then-lost write becomes a linearizability error.
        let mut rec = Recorder::new(&clock);
        let mut h = list.handle();
        for key in 1..=KEY_SPACE {
            let inv = rec.invoke();
            let found = h.try_get(key).expect("quiescent get cannot abort");
            rec.finish(key, OpAction::Get { found }, inv);
        }
        records.extend(rec.records);
    }
    let initial: HashMap<u32, u32> = (2..KEY_SPACE).step_by(2).map(|k| (k, k)).collect();
    if let Err(errors) = check_linearizable(&records, &initial) {
        panic!("[{point:?} seed {seed}] non-linearizable recovery: {errors:?}");
    }

    CellStats {
        crashed_ops: stats.crashed_ops,
        aborts: stats.aborts,
        chunks_quarantined: stats.chunks_quarantined,
        repaired_forward: stats.repaired_forward,
        repaired_back: stats.repaired_back,
        unpoisoned_clean: stats.unpoisoned_clean,
        downptr_repairs: stats.downptr_repairs,
    }
}

#[test]
fn recovery_soak_every_crash_point() {
    let seeds = soak_seeds();
    let mut report = String::from("point,seed,crashed_ops,aborts,quarantined,fwd,back,clean,downptr\n");
    for &point in LOCK_CRASH_POINTS.iter() {
        let mut crashes_for_point = 0u64;
        for seed in 0..seeds {
            let s = soak_cell(point, seed);
            crashes_for_point += s.crashed_ops;
            report.push_str(&format!(
                "{point:?},{seed},{},{},{},{},{},{},{}\n",
                s.crashed_ops,
                s.aborts,
                s.chunks_quarantined,
                s.repaired_forward,
                s.repaired_back,
                s.unpoisoned_clean,
                s.downptr_repairs
            ));
        }
        assert!(
            crashes_for_point > 0,
            "{point:?} never produced a contained crash in {seeds} seeds — \
             the soak is not exercising this window"
        );
    }
    if let Ok(path) = std::env::var("GFSL_SOAK_STATS") {
        std::fs::write(&path, &report).expect("write soak stats artifact");
    }
}

/// A crash *inside the index-heal climb* (DESIGN.md §20) is a crash after
/// the insert committed at the bottom level: it must be contained, the
/// insert must still report `Ok(true)`, and repair must leave a valid
/// structure that holds the key.
#[test]
fn crash_inside_the_heal_climb_keeps_the_insert() {
    gfsl::quiet_injected_panics();
    let list = Gfsl::new(GfslParams {
        team_size: TeamSize::Sixteen,
        pool_chunks: 1 << 12,
        ..Default::default()
    })
    .unwrap();
    // Four bottom chunks, then delete the three raised keys: no index left,
    // so an insert into the third chunk walks two live chunks and heals.
    {
        let mut h = list.handle();
        for k in (2..=56).step_by(2) {
            h.insert(k, k).unwrap();
        }
        for k in list.level_keys(1) {
            assert!(h.remove(k));
        }
    }
    assert_eq!(list.height(), 0);
    // The insert's second lock CAS is the heal's level-1 chunk (the first
    // is the bottom chunk).
    let ctl = gfsl::chaos::controller(1, Replay::new(Vec::new()), Some((CrashPoint::LockCas, 2)));
    let mut h = list.handle_with(ctl.probe(0));
    assert_eq!(h.try_insert(33, 330), Ok(true), "committed before the crash");
    assert_eq!(h.stats().index_heals, 1, "the crash hit the heal");
    drop(h);

    let stats = list.handle().repair_quarantine();
    assert_eq!(stats.crashed_ops, 1);
    assert_eq!(stats.quarantine_depth, 0);
    assert!(list.validate().is_empty(), "{:?}", list.validate());
    assert_eq!(list.handle().get(33), Some(330));
}
