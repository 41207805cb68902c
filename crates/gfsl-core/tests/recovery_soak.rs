//! Chaos recovery soak: crash-containment end to end, for every crash
//! point in the lock protocol.
//!
//! For each (crash point × seed) cell, two contending workers run a mixed
//! insert/remove/get workload through the `try_*` entry points while the
//! chaos layer kills one operation at the seeded occurrence of the target
//! crash point. The dead op's chunks land in quarantine; the surviving
//! worker keeps operating around them (aborting with typed `Quarantined`
//! errors where it must). The sweep runs the same cell single-threaded on
//! one scripted sliding window, once per occurrence of every crash point.
//! After the run, online repair drains the quarantine, and the cell passes
//! only if
//!
//! 1. every structural invariant validates clean (`Gfsl::validate`),
//! 2. no acknowledged operation is lost and every crashed op either fully
//!    happened or not at all — checked by a per-key linearizability search
//!    over the recorded history (crashed ops enter as `InsertMaybe` /
//!    `RemoveMaybe`, final sequential gets pin the end state),
//! 3. the quarantine is empty and stays empty, and the structure is not
//!    poisoned: repair rebuilt it from the crashed op's intent alone.
//!
//! Seeds per point come from `GFSL_SOAK_SEEDS` (default 4; CI runs 32), and
//! `GFSL_SOAK_STATS=<path>` dumps per-cell repair/abort statistics for the
//! CI artifact.

use std::collections::HashMap;

use gfsl::chaos::LOCK_CRASH_POINTS;
use gfsl::history::{check_linearizable, HistoryClock, OpAction, Recorder};
use gfsl::mc::strategy::{RandomWalk, Replay, Scheduler};
use gfsl::{AbortReason, CrashPoint, Error, Gfsl, GfslHandle, GfslParams, MemProbe, TeamSize};
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
    /// The keys of the inserts that crashed.
    crashed_inserts: Vec<u32>,
}

/// One operation of a worker's script.
#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(u32, u32),
    Remove(u32),
    Get(u32),
}

/// The keys every cell starts from, so removes and merges have something
/// to chew on from turn one.
fn prefill() -> impl Iterator<Item = u32> {
    (2..KEY_SPACE).step_by(2)
}

/// A key above every key a script touches.
const CEILING: u32 = 1 << 20;

/// Insert `keys` (ascending) into `list` with [`CEILING`] in the level's
/// last chunk, then remove it: no insert appends, so every split is a half
/// split and the bottom level is left in chunks of seven keys (the shape
/// the scripts below were written for), not full ones.
fn insert_below_ceiling(list: &Gfsl, keys: impl Iterator<Item = u32>) {
    let mut h = list.handle();
    h.try_insert(CEILING, 0).unwrap();
    for k in keys {
        h.try_insert(k, k).unwrap();
    }
    assert!(h.try_remove(CEILING).unwrap());
}

fn list16() -> Gfsl {
    Gfsl::new(GfslParams {
        team_size: TeamSize::Sixteen,
        pool_chunks: 1 << 12,
        ..Default::default()
    })
    .unwrap()
}

/// Worker `t`'s seeded mix: two inserts, two removes and one get in five,
/// over `1..=KEY_SPACE`.
fn mixed_script(seed: u64, t: usize) -> Vec<Op> {
    let mut rng = SplitMix64::new(seed.wrapping_mul(0x9E37) ^ t as u64);
    (0..OPS_PER_WORKER)
        .map(|_| {
            let r = rng.next_u64();
            let key = (r % u64::from(KEY_SPACE) + 1) as u32;
            match (r >> 32) % 5 {
                0 | 1 => Op::Insert(key, (r >> 40) as u32 | 1),
                2 | 3 => Op::Remove(key),
                _ => Op::Get(key),
            }
        })
        .collect()
}

/// Ascending inserts above the key space: each one is above every key in
/// the list, so every split it takes is an append split.
fn append_script() -> Vec<Op> {
    (1..=OPS_PER_WORKER as u32 / 3).map(|i| Op::Insert(KEY_SPACE + i, i)).collect()
}

/// Ascending inserts above the key space, below a first key above them
/// all, as [`insert_below_ceiling`] builds the prefill: no insert is above
/// every key of the level's last chunk, which holds that first key, so
/// every split the script takes is a half split, one about every seven
/// inserts. A script below the prefill's largest key could take none: the
/// prefill's chunks of seven keys each span at most fourteen integers, a
/// full chunk, so only a merge can make room for one to overflow.
fn half_split_script() -> Vec<Op> {
    let top = KEY_SPACE + 41;
    std::iter::once(top).chain(KEY_SPACE + 1..top).map(|k| Op::Insert(k, k)).collect()
}

/// [`append_script`], long enough to grow a level: alone on the prefill,
/// the 100th append splits level 1's head and raises into level 2, which
/// has no head until then.
fn grow_script() -> Vec<Op> {
    (1..=160).map(|i| Op::Insert(KEY_SPACE + i, i)).collect()
}

/// A 64-key window sliding 64 steps right over the prefill: each step
/// inserts the key 64 above the left edge, removes the edge, removes and
/// re-inserts the key 40 above it and reads one in between. Inserts fill
/// and split the chunks ahead, removes merge the chunks behind (into an
/// absorber full enough to be split first, once), and a re-inserted key
/// comes back without the index entry its removal took, so later inserts
/// walk and heal the index.
fn window_script() -> Vec<Op> {
    (1..=64u32)
        .flat_map(|k| {
            [
                Op::Insert(k + 64, k),
                Op::Remove(k),
                Op::Remove(k + 40),
                Op::Insert(k + 40, k),
                Op::Get(k + 20),
            ]
        })
        .collect()
}

/// Run `op` through the `try_*` entry points and record it. A crashed
/// update's outcome is unknown (repair may roll it forward), so it is
/// recorded as a `*Maybe` the checker tries both ways; a clean abort
/// (quarantined chunk, budget) has no effect and no record.
fn run_op<P: MemProbe>(h: &mut GfslHandle<'_, P>, rec: &mut Recorder<'_>, op: Op) {
    let inv = rec.invoke();
    let crashed = |a: &gfsl::OpAbort| a.reason == AbortReason::Crashed;
    match op {
        Op::Insert(key, value) => match h.try_insert(key, value) {
            Ok(ok) => rec.finish(key, OpAction::Insert { value, ok }, inv),
            Err(Error::Aborted(a)) if crashed(&a) => rec.finish(key, OpAction::InsertMaybe { value }, inv),
            Err(Error::Aborted(_)) => {}
            Err(e) => panic!("insert({key}): unexpected error {e}"),
        },
        Op::Remove(key) => match h.try_remove(key) {
            Ok(ok) => rec.finish(key, OpAction::Remove { ok }, inv),
            Err(Error::Aborted(a)) if crashed(&a) => rec.finish(key, OpAction::RemoveMaybe, inv),
            Err(Error::Aborted(_)) => {}
            Err(e) => panic!("remove({key}): unexpected error {e}"),
        },
        Op::Get(key) => match h.try_get(key) {
            Ok(found) => rec.finish(key, OpAction::Get { found }, inv),
            Err(Error::Aborted(a)) => assert!(!crashed(&a), "lock-free gets cannot crash"),
            Err(e) => panic!("get({key}): unexpected error {e}"),
        },
    }
}

/// One soak cell: one worker per script, scheduled by `strategy`, the
/// `occurrence`-th hit of `point` crashing its op; then repair and full
/// verification. Returns the cell's recovery statistics.
fn soak_cell(
    point: CrashPoint,
    occurrence: u64,
    strategy: impl Scheduler + 'static,
    scripts: &[Vec<Op>],
    cell: &str,
) -> CellStats {
    gfsl::quiet_injected_panics();
    let list = list16();
    insert_below_ceiling(&list, prefill());
    let ctl = gfsl::chaos::controller(scripts.len(), strategy, Some((point, occurrence)));

    let clock = HistoryClock::new();
    let histories: Vec<_> = std::thread::scope(|s| {
        let workers: Vec<_> = scripts
            .iter()
            .enumerate()
            .map(|(t, script)| {
                let (list, ctl, clock) = (&list, &ctl, &clock);
                s.spawn(move || {
                    let mut rec = Recorder::new(clock);
                    let mut h = list.handle_with(ctl.probe(t));
                    for &op in script {
                        run_op(&mut h, &mut rec, op);
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

    // Online repair, then the verdicts: structure valid and unpoisoned,
    // quarantine empty, history linearizable.
    let stats = list.handle().repair_quarantine();
    assert_eq!(
        stats.quarantine_depth, 0,
        "[{cell}] repair must drain the quarantine"
    );
    assert!(
        !list.is_poisoned(),
        "[{cell}] repair poisoned the structure: {:?}",
        list.poison_report()
    );
    let violations = list.validate();
    assert!(
        violations.is_empty(),
        "[{cell}] post-repair invariant violations: {violations:?}"
    );
    if stats.crashed_ops > 0 {
        assert!(fired >= occurrence, "[{cell}] a crash implies the point fired");
    }

    let mut records: Vec<_> = histories.into_iter().flatten().collect();
    let crashed_inserts = records
        .iter()
        .filter(|r| matches!(r.action, OpAction::InsertMaybe { .. }))
        .map(|r| r.key)
        .collect();
    {
        // Sequential reads on the same clock pin the post-repair state:
        // an acknowledged-then-lost write becomes a linearizability error.
        let top = scripts
            .iter()
            .flatten()
            .map(|&op| match op {
                Op::Insert(k, _) | Op::Remove(k) | Op::Get(k) => k,
            })
            .max()
            .unwrap_or(0)
            .max(KEY_SPACE);
        let mut rec = Recorder::new(&clock);
        let mut h = list.handle();
        for key in 1..=top {
            let inv = rec.invoke();
            let found = h.try_get(key).expect("quiescent get cannot abort");
            rec.finish(key, OpAction::Get { found }, inv);
        }
        records.extend(rec.records);
    }
    let initial: HashMap<u32, u32> = prefill().map(|k| (k, k)).collect();
    if let Err(errors) = check_linearizable(&records, &initial) {
        panic!("[{cell}] non-linearizable recovery: {errors:?}");
    }

    CellStats {
        crashed_ops: stats.crashed_ops,
        aborts: stats.aborts,
        chunks_quarantined: stats.chunks_quarantined,
        repaired_forward: stats.repaired_forward,
        repaired_back: stats.repaired_back,
        unpoisoned_clean: stats.unpoisoned_clean,
        downptr_repairs: stats.downptr_repairs,
        crashed_inserts,
    }
}

#[test]
fn recovery_soak_every_crash_point() {
    let seeds = soak_seeds();
    let mut report = String::from("point,seed,scripts,crashed_ops,aborts,quarantined,fwd,back,clean,downptr\n");
    let mut append_split_crashes = 0;
    for &point in LOCK_CRASH_POINTS.iter() {
        let mut crashes_for_point = 0u64;
        for seed in 0..seeds {
            // Two mixed workers, which fire every point but `SplitPublish`
            // and `HeadPublish` on their own: over the key space the index
            // never grows a level, and a split needs a merge first. At
            // `SplitPublish`, two more cells run a mixed worker against one
            // whose every split is a half split, which crashes one in every
            // seed, and against one that appends above the key space; at
            // `HeadPublish` the appending worker goes on until it grows
            // level 2, the cell's one growth, which it crashes.
            let mut cells = vec![((0..WORKERS).map(|t| mixed_script(seed, t)).collect::<Vec<_>>(), "mixed")];
            if point == CrashPoint::SplitPublish {
                cells.push((vec![mixed_script(seed, 0), half_split_script()], "half"));
                cells.push((vec![mixed_script(seed, 0), append_script()], "append"));
            }
            if point == CrashPoint::HeadPublish {
                cells.push((vec![mixed_script(seed, 0), grow_script()], "grow"));
            }
            for (scripts, kind) in &cells {
                let s = soak_cell(
                    point,
                    if *kind == "grow" { 1 } else { 1 + seed % 3 },
                    RandomWalk::new(seed ^ 0xD6E8_FEB8_6659_FD93, 1),
                    scripts,
                    &format!("{point:?} seed {seed} {kind}"),
                );
                if *kind != "append" {
                    crashes_for_point += s.crashed_ops;
                } else {
                    append_split_crashes += s.crashed_inserts.iter().filter(|&&k| k > KEY_SPACE).count();
                }
                report.push_str(&format!(
                    "{point:?},{seed},{kind},{},{},{},{},{},{},{}\n",
                    s.crashed_ops,
                    s.aborts,
                    s.chunks_quarantined,
                    s.repaired_forward,
                    s.repaired_back,
                    s.unpoisoned_clean,
                    s.downptr_repairs
                ));
            }
        }
        assert!(
            crashes_for_point > 0,
            "{point:?} never produced a contained crash in {seeds} seeds — \
             the soak is not exercising this window"
        );
    }
    assert!(
        append_split_crashes > 0,
        "SplitPublish never crashed an append split in {seeds} seeds"
    );
    if let Ok(path) = std::env::var("GFSL_SOAK_STATS") {
        std::fs::write(&path, &report).expect("write soak stats artifact");
    }
}

/// The sweep: [`window_script`] on one worker under the empty replay
/// schedule, crashed at every occurrence of every lock crash point in turn
/// (one cell each, until the next occurrence no longer fires), each cell
/// repaired and verified like a soak cell. Single-threaded runs are
/// deterministic, so this covers every crash window the script reaches.
/// The window never grows a level, so `HeadPublish` is swept on
/// [`grow_script`] instead.
#[test]
fn crash_sweep_every_occurrence() {
    for &point in LOCK_CRASH_POINTS {
        let script = [if point == CrashPoint::HeadPublish { grow_script() } else { window_script() }];
        let mut cells = 0u64;
        let [mut fwd, mut back, mut clean, mut fixes] = [0u64; 4];
        loop {
            let n = cells + 1;
            let s = soak_cell(point, n, Replay::new(Vec::new()), &script, &format!("{point:?} occurrence {n}"));
            if s.crashed_ops == 0 {
                break;
            }
            cells = n;
            fwd += s.repaired_forward;
            back += s.repaired_back;
            clean += s.unpoisoned_clean;
            fixes += s.downptr_repairs;
        }
        assert!(cells > 0, "{point:?} never fired on the window script");
        println!("sweep {point:?}: {cells} cells; chunks forward {fwd}, back {back}, clean {clean}; {fixes} down-pointer fixes");
    }
}

/// The sweep's script reaches every mutation kind repair must handle:
/// insert and remove shifts, splits on the insert and on the remove side
/// (append splits among the insert side's), merges and index heals, with
/// down-pointer installs after them.
#[test]
fn window_script_reaches_every_mutation_kind() {
    let list = list16();
    insert_below_ceiling(&list, prefill());
    let mut h = list.handle();
    let base = h.stats();
    let [mut insert_shifts, mut remove_shifts, mut insert_splits, mut remove_splits] = [0u64; 4];
    let (mut append_splits, mut top) = (0u64, prefill().max().unwrap());
    for op in window_script() {
        let before = h.stats();
        match op {
            Op::Insert(k, v) => {
                let fresh = h.try_insert(k, v).unwrap();
                let splits = h.stats().splits - before.splits;
                insert_splits += splits;
                insert_shifts += u64::from(fresh && splits == 0);
                append_splits += u64::from(k > top && splits > 0);
                top = top.max(k);
            }
            Op::Remove(k) => {
                let gone = h.try_remove(k).unwrap();
                let s = h.stats();
                remove_splits += s.splits - before.splits;
                remove_shifts += u64::from(gone && s.merges == before.merges);
            }
            Op::Get(k) => {
                h.try_get(k).unwrap();
            }
        }
    }
    let s = h.stats();
    let kinds = [
        ("insert shift", insert_shifts),
        ("remove shift", remove_shifts),
        ("insert-side split", insert_splits),
        ("append split", append_splits),
        ("remove-side split", remove_splits),
        ("merge", s.merges - base.merges),
        ("index heal", s.index_heals - base.index_heals),
        ("down-pointer install", s.downptr_fixes - base.downptr_fixes),
    ];
    println!("window script: {kinds:?}");
    for (kind, n) in kinds {
        assert!(n > 0, "the window script never reaches a {kind}");
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
    insert_below_ceiling(&list, (2..=56).step_by(2));
    {
        let mut h = list.handle();
        for k in list.level_keys(1) {
            assert!(h.try_remove(k).unwrap());
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
    assert_eq!(list.handle().try_get(33).unwrap(), Some(330));
}

/// A crash between a new level head's allocation and its publish is a
/// crash inside a climb, after the insert committed: the insert reports
/// `Ok(true)`, only the bottom chunk it held is quarantined (the head was
/// never held), and the level stays headless until a later raise grows it
/// again. The unpublished chunk is left unreachable, never linked.
#[test]
fn crash_inside_level_growth_keeps_the_insert_and_quarantines_no_head() {
    gfsl::quiet_injected_panics();
    let list = list16();
    let ctl = gfsl::chaos::controller(1, Replay::new(Vec::new()), Some((CrashPoint::HeadPublish, 1)));
    let mut h = list.handle_with(ctl.probe(0));
    // The 14th ascending key splits the full bottom head and raises into
    // level 1, which has no head yet.
    let mut k = 0;
    while ctl.crash_point_hits().iter().all(|&(p, n)| p != CrashPoint::HeadPublish || n == 0) {
        k += 1;
        assert_eq!(h.try_insert(k, k), Ok(true), "committed before any crash");
    }
    assert_eq!(k, 14);
    drop(h);
    assert_eq!(list.quarantine_depth(), 1, "the bottom chunk the insert held, no head");
    assert_eq!(list.height(), 0, "level 1 never got its head");
    let allocated = list.chunks_allocated();

    let stats = list.handle().repair_quarantine();
    assert_eq!((stats.crashed_ops, stats.quarantine_depth), (1, 0));
    assert!(list.validate().is_empty(), "{:?}", list.validate());
    let (live, zombies) = list.linked_chunks();
    assert_eq!(live + zombies, u64::from(allocated) - 1, "the unpublished head is linked nowhere");

    // The next split grows level 1 for good.
    let mut h = list.handle();
    while list.height() == 0 {
        k += 1;
        assert!(h.try_insert(k, k).unwrap());
    }
    assert_eq!(list.keys(), (1..=k).collect::<Vec<_>>());
    list.assert_valid();
}

