//! Migration-under-chaos soak: seeded splits, merges, and snapshots race
//! probed client operations while the fault plan kills one operation at
//! every crash point in the lock protocol.
//!
//! A cell passes only if
//!
//! 1. no acknowledged write is lost and every crashed op either fully
//!    happened or not at all — the per-worker histories (crashed ops as
//!    `InsertMaybe` / `RemoveMaybe`, a redirect re-routed inside the same
//!    call and so the same invocation) stitch into one cluster history
//!    that linearizes;
//! 2. after the run every surviving shard passes the full validation walk,
//!    including the shard-range ownership rule, with an empty quarantine;
//! 3. snapshots taken mid-chaos are well-formed (strictly ascending).
//!
//! Worker probes are minted only after the shard fence is held, once per
//! routing attempt (see `Cluster::insert_with`): a turnstile participant
//! must never block on an OS lock while live, or grants stall against the
//! migration driver.

use std::collections::HashMap;
use std::sync::mpsc;

use gfsl::chaos::LOCK_CRASH_POINTS;
use gfsl::history::{check_linearizable, HistoryClock, OpAction, Recorder};
use gfsl::mc::strategy::RandomWalk;
use gfsl::{AbortReason, CrashPoint, Error, GfslParams, TeamSize};
use gfsl_cluster::Cluster;
use gfsl_rng::SplitMix64;

const KEY_SPACE: u32 = 110;
/// A key above the key space.
const CEILING: u32 = 1 << 20;
/// Long enough that a cell reaches the rare windows (split publish, zombie
/// mark, down-pointer install) two to four times: at 200 a cell reached
/// them once or twice, the second and third occurrences were rarely there
/// to kill, and the coverage assert missed one run in 200.
const OPS_PER_WORKER: usize = 400;
const WORKERS: usize = 2;
const MAX_SHARDS: usize = 6;
/// Completed worker ops per driver action: back-to-back export→rebuild
/// cycles would keep every chunk compacted to the bulk fill target and
/// starve the split/merge crash windows of pressure. The driver is paced by
/// worker progress, not by the clock, so the ratio holds however loaded
/// the host is (one action per 100 ops is what an idle host's 800 µs pause
/// used to give).
const OPS_PER_DRIVER_ACTION: usize = 100;

/// Seeds per crash point (CI runs 8). A cell kills occurrence `1 + seed % 3`
/// of its point; seed 3 is a second first-occurrence cell, the one kind
/// that fires in (nearly) every cell.
fn soak_seeds() -> u64 {
    std::env::var("GFSL_CLUSTER_SOAK_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4)
}

/// One soak cell: two probed workers churn the key space while an
/// unprobed driver splits, merges, and snapshots the shards, and the
/// fault plan kills the seeded occurrence of `point`. With `appends`, the
/// second worker instead inserts `KEY_SPACE + 1, KEY_SPACE + 2, …`: each
/// key is above every key of the last shard, so every split it takes is
/// an append split. Returns `(crashed_ops, migrations, crashed_appends)`,
/// the last counting the crashed inserts above the key space.
fn soak_cell(point: CrashPoint, seed: u64, appends: bool) -> (u64, u64, usize) {
    gfsl::quiet_injected_panics();
    let params = GfslParams {
        team_size: TeamSize::Sixteen,
        pool_chunks: 1 << 12,
        ..Default::default()
    };
    // One shard at full key density: the migration driver introduces (and
    // removes) the sharding mid-run, so early crash windows see the same
    // structure depth as the single-structure soak.
    let cluster = Cluster::with_bounds(params, &[]).unwrap();
    // With a key above the key space in the list, no prefill insert
    // appends: every split is a half split, and the bottom level is left
    // in chunks of seven keys, whose splits and merges the windows need.
    cluster.insert(CEILING, 0).unwrap();
    for k in (2..KEY_SPACE).step_by(2) {
        cluster.insert(k, k).unwrap();
    }
    assert_eq!(cluster.remove(CEILING), Ok(true));
    let occurrence = 1 + seed % 3;
    let ctl = gfsl::chaos::controller(
        WORKERS,
        RandomWalk::new(seed ^ 0x9D3C_5A1B_7E24_F680, 1),
        Some((point, occurrence)),
    );
    let clock = HistoryClock::new();
    // One token per completed worker op; closed when the last worker is done.
    let (op_done, ops_done) = mpsc::channel::<()>();

    let (histories, migrations) = std::thread::scope(|s| {
        // Migration driver: no probe, so the turnstile never waits on it.
        // Splits are capped so the shard set stays small.
        let cluster = &cluster;
        let driver = s.spawn(move || {
            let mut rng = SplitMix64::new(seed.wrapping_mul(0xA5A5) ^ 0x11);
            let mut done = 0u64;
            loop {
                let r = rng.next_u64();
                let key = (r % u64::from(KEY_SPACE) + 1) as u32;
                let id = cluster
                    .shards()
                    .iter()
                    .find(|sh| sh.owns(key))
                    .unwrap()
                    .id;
                let ev = match r >> 61 {
                    0..=2 if cluster.shard_count() < MAX_SHARDS => {
                        cluster.split_shard(id).expect("split must not fail")
                    }
                    3..=5 => cluster.merge_with_right(id).expect("merge must not fail"),
                    _ => {
                        let snap = cluster.snapshot();
                        assert!(
                            snap.pairs.windows(2).all(|w| w[0].0 < w[1].0),
                            "mid-chaos snapshot must be strictly ascending"
                        );
                        None
                    }
                };
                done += u64::from(ev.is_some());
                if (0..OPS_PER_DRIVER_ACTION).any(|_| ops_done.recv().is_err()) {
                    return done;
                }
            }
        });

        let workers: Vec<_> = (0..WORKERS)
            .map(|t| {
                let (ctl, clock, op_done) = (&ctl, &clock, op_done.clone());
                s.spawn(move || {
                    // Stay retired whenever not holding a probe: a live
                    // participant blocked on a fence would stall the
                    // turnstile (see module docs).
                    ctl.retire(t);
                    let mint = || {
                        let p = ctl.probe(t);
                        ctl.revive(t);
                        p
                    };
                    let mut rec = Recorder::new(clock);
                    let mut rng = SplitMix64::new(seed.wrapping_mul(0x9E37) ^ t as u64);
                    for i in 0..OPS_PER_WORKER as u32 {
                        let r = rng.next_u64();
                        let (key, kind) = if appends && t == 1 {
                            (KEY_SPACE + 1 + i, 0)
                        } else {
                            ((r % u64::from(KEY_SPACE) + 1) as u32, (r >> 32) % 5)
                        };
                        let value = (r >> 40) as u32 | 1;
                        let inv = rec.invoke();
                        match kind {
                            0 | 1 => match cluster.insert_with(mint, key, value) {
                                Ok(ok) => rec.finish(key, OpAction::Insert { value, ok }, inv),
                                Err(Error::Aborted(a)) => {
                                    if a.reason == AbortReason::Crashed {
                                        rec.finish(key, OpAction::InsertMaybe { value }, inv);
                                    }
                                }
                                Err(e) => panic!("insert({key}): unexpected error {e}"),
                            },
                            2 | 3 => match cluster.remove_with(mint, key) {
                                Ok(ok) => rec.finish(key, OpAction::Remove { ok }, inv),
                                Err(Error::Aborted(a)) => {
                                    if a.reason == AbortReason::Crashed {
                                        rec.finish(key, OpAction::RemoveMaybe, inv);
                                    }
                                }
                                Err(e) => panic!("remove({key}): unexpected error {e}"),
                            },
                            _ => match cluster.get_with(mint, key) {
                                Ok(found) => rec.finish(key, OpAction::Get { found }, inv),
                                Err(Error::Aborted(a)) => assert_ne!(
                                    a.reason,
                                    AbortReason::Crashed,
                                    "lock-free gets cannot crash"
                                ),
                                Err(e) => panic!("get({key}): unexpected error {e}"),
                            },
                        }
                        op_done.send(()).expect("the driver outlives the workers");
                    }
                    rec.records
                })
            })
            .collect();
        drop(op_done);
        let histories: Vec<_> = workers
            .into_iter()
            .map(|w| w.join().expect("worker must survive (containment)"))
            .collect();
        (histories, driver.join().expect("driver must survive"))
    });

    // The injected panic fires unconditionally at the seeded occurrence,
    // so reaching it is proof of a contained crash — the workers joined
    // cleanly above. (Repair statistics undercount here: a migration's
    // pre-export quarantine drain absorbs crashed ops mid-run.)
    let fired = ctl
        .crash_point_hits()
        .into_iter()
        .find(|&(p, _)| p == point)
        .map(|(_, n)| n)
        .unwrap_or(0);
    let crashed = u64::from(fired >= occurrence);

    // Quiescence: drain every surviving shard's quarantine, then the full
    // validation walk (structure + shard-range ownership).
    for sh in cluster.shards() {
        let stats = sh.list.handle().repair_quarantine();
        assert_eq!(
            stats.quarantine_depth, 0,
            "[{point:?} seed {seed}] repair must drain shard {}",
            sh.id
        );
    }
    let bad = cluster.validate();
    assert!(
        bad.is_empty(),
        "[{point:?} seed {seed}] post-migration invariant violations: {bad:?}"
    );

    // Stitch the cluster history: per-key registers, so the per-worker
    // records merge directly; sequential reads on the same clock pin the
    // end state so an acknowledged-then-lost write cannot hide.
    let mut records: Vec<_> = histories.into_iter().flatten().collect();
    let crashed_appends = records
        .iter()
        .filter(|r| r.key > KEY_SPACE && matches!(r.action, OpAction::InsertMaybe { .. }))
        .count();
    {
        let mut rec = Recorder::new(&clock);
        let top = KEY_SPACE + if appends { OPS_PER_WORKER as u32 } else { 0 };
        for key in 1..=top {
            let inv = rec.invoke();
            let found = cluster.get(key).expect("quiescent get cannot abort");
            rec.finish(key, OpAction::Get { found }, inv);
        }
        records.extend(rec.records);
    }
    let initial: HashMap<u32, u32> = (2..KEY_SPACE).step_by(2).map(|k| (k, k)).collect();
    if let Err(errors) = check_linearizable(&records, &initial) {
        panic!("[{point:?} seed {seed}] non-linearizable cluster history: {errors:?}");
    }

    (crashed, migrations, crashed_appends)
}

#[test]
fn migration_chaos_every_crash_point() {
    let seeds = soak_seeds();
    let mut total_migrations = 0u64;
    for &point in LOCK_CRASH_POINTS.iter() {
        let mut crashes_for_point = 0u64;
        for seed in 0..seeds {
            // Over the key space a level grows only in a shard a migration
            // has just rebuilt small, a matter of timing. At `HeadPublish`
            // the second worker appends above the key space instead, which
            // grows the last shard's levels under a probe.
            let (crashed, migrations, _) = soak_cell(point, seed, point == CrashPoint::HeadPublish);
            crashes_for_point += crashed;
            total_migrations += migrations;
        }
        assert!(
            crashes_for_point > 0,
            "{point:?} never produced a contained crash in {seeds} seeds — \
             the soak is not exercising this window"
        );
    }
    // The same seeds once more at `SplitPublish`, with an appending worker:
    // a crash inside an append split is contained too.
    let mut crashed_appends = 0;
    for seed in 0..seeds {
        let (_, migrations, appends) = soak_cell(CrashPoint::SplitPublish, seed, true);
        crashed_appends += appends;
        total_migrations += migrations;
    }
    assert!(
        crashed_appends > 0,
        "SplitPublish never crashed an append split in {seeds} seeds"
    );
    assert!(
        total_migrations > 0,
        "the soak must actually race migrations against client ops"
    );
}
