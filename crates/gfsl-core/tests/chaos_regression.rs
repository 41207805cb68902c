//! Regression: a team that dies (panics) mid-protocol while holding chunk
//! locks leaves them *quarantined* with its intent, and one repair pass
//! returns the structure to full validity — it neither poisons the
//! structure nor deadlocks every team that needs the orphaned locks. The
//! crashed op returns a typed abort and its handle stays usable. A team
//! that then meets a quarantined chunk gives its wait up with a typed abort
//! instead of waiting for the repair.
//!
//! The crash is injected deterministically with the chaos layer: the worker
//! is killed at its first `SplitPublish` crash point (after it locked the
//! splitting chunk AND the freshly allocated, locked-at-birth new chunk) or
//! at its first `MergeZombieMark` (mid-merge, holding the dying chunk and
//! its absorber), the worst cases for orphaned locks.

use std::sync::{mpsc, Arc};
use std::time::Duration;

use gfsl::chaos::ChaosProbe;
use gfsl::mc::strategy::Replay;
use gfsl::{AbortReason, CrashPoint, Error, Gfsl, GfslHandle, GfslParams, NoProbe, OpAbort, TeamSize};

fn list16() -> Gfsl {
    Gfsl::new(GfslParams {
        team_size: TeamSize::Sixteen,
        pool_chunks: 1 << 12,
        ..Default::default()
    })
    .unwrap()
}

/// Crash one worker at the first `point`, then repair. For `SplitPublish`
/// the worker inserts `1, 2, …` into an empty list; for `MergeZombieMark`
/// it removes `10, 20, …` from a list of 200 such keys. The crashed op
/// returns an abort, the quarantine holds its chunks, and the validation
/// walk shows the linked ones locked until one repair pass drains it.
fn crash_and_repair(point: CrashPoint) {
    let list = list16();
    let merge = point == CrashPoint::MergeZombieMark;
    if merge {
        let mut h = list.handle();
        for k in 1..=200u32 {
            h.try_insert(k * 10, k).unwrap();
        }
    }
    let ctl = gfsl::chaos::controller(1, Replay::new(Vec::new()), Some((point, 1)));
    let aborted = std::thread::scope(|s| {
        s.spawn(|| {
            let mut h = list.handle_with(ctl.probe(0));
            (1..=200u32).any(|k| match merge {
                false => h.try_insert(k, k).is_err(),
                true => h.try_remove(k * 10).is_err(),
            })
        })
        .join()
        .expect("a contained op returns, it does not unwind")
    });
    assert!(aborted, "{point:?}: the injected crash fires");
    assert!(!list.is_poisoned(), "{point:?}: a crash does not poison");
    let crashed = list.repair_stats();
    assert_eq!(crashed.crashed_ops, 1, "{point:?}");
    assert!(crashed.quarantine_depth >= 2, "{point:?}: the op's chunks are quarantined");
    assert!(!list.validate().is_empty(), "{point:?}: quarantined chunks show locked");
    let repaired = list.handle().repair_quarantine();
    assert_eq!(repaired.quarantine_depth, 0, "{point:?}: repair drains the quarantine");
    assert_eq!(repaired.repaired(), crashed.chunks_quarantined, "{point:?}");
    list.assert_valid();
}

/// A crash through `try_insert` (a split) and through `try_remove` (a
/// merge) quarantines the op's chunks, and one repair pass restores a
/// fully valid structure.
#[test]
fn a_crash_quarantines_and_one_repair_restores_validity() {
    gfsl::quiet_injected_panics();
    crash_and_repair(CrashPoint::SplitPublish);
    crash_and_repair(CrashPoint::MergeZombieMark);
}

/// How long an op may take to give up its wait; waiting on until repair
/// runs never ends here.
const WATCHDOG: Duration = Duration::from_secs(5);

/// After an insert crashes at `SplitPublish` in the head chunk, its handle
/// inserts a key of another chunk, and `try_get`, `try_count_range` and
/// `try_remove` of the crashed key each meet its quarantined chunk and
/// return `OpAbort { reason: Quarantined, .. }`, holding nothing, instead
/// of waiting for a repair that never comes.
#[test]
fn a_contained_op_gives_up_a_wait_on_a_quarantined_chunk() {
    gfsl::quiet_injected_panics();
    let list = Arc::new(list16());
    {
        // Chunks right of the head, for the crashed handle to reuse.
        let mut h = list.handle();
        for k in (1_000..1_400u32).step_by(2) {
            h.try_insert(k, k).unwrap();
        }
    }
    let ctl = gfsl::chaos::controller(
        1,
        Replay::new(Vec::new()),
        Some((CrashPoint::SplitPublish, 1)),
    );
    let mut crashed = list.handle_with(ctl.probe(0));
    let key = (1..=100u32)
        .find(|&k| crashed.try_insert(k, k).is_err())
        .expect("the injected crash fires");
    let depth = list.quarantine_depth();
    assert!(depth >= 2, "the split's chunks are quarantined");
    assert_eq!(crashed.try_insert(1_301, 1), Ok(true), "the crashed handle is reusable");
    assert_eq!(list.quarantine_depth(), depth);

    type Op = fn(&mut GfslHandle<'_, NoProbe>, u32) -> Result<(), Error>;
    let ops: [(&str, Op); 3] = [
        ("try_get", |h, k| h.try_get(k).map(drop)),
        ("try_count_range", |h, k| h.try_count_range(k, k).map(drop)),
        ("try_remove", |h, k| h.try_remove(k).map(drop)),
    ];
    for (name, op) in ops {
        let (tx, rx) = mpsc::channel();
        let shared = Arc::clone(&list);
        std::thread::spawn(move || {
            let _ = tx.send(op(&mut shared.handle(), key));
        });
        let outcome = rx
            .recv_timeout(WATCHDOG)
            .unwrap_or_else(|_| panic!("{name}({key}) still waiting after {WATCHDOG:?}"));
        assert!(
            matches!(
                outcome,
                Err(Error::Aborted(OpAbort {
                    reason: AbortReason::Quarantined,
                    ..
                }))
            ),
            "{name}({key}) must return a Quarantined OpAbort: {outcome:?}"
        );
        assert_eq!(list.quarantine_depth(), depth, "{name} held nothing when it gave up");
    }

    list.handle().repair_quarantine();
    list.assert_valid();
    let mut h = list.handle();
    assert_eq!(h.try_get(key).unwrap(), None, "the crashed insert never published");
    assert!(h.try_insert(key, key).unwrap());
}

/// A reclamation pass takes chunk locks (the head-edge sweep's try-lock
/// on the chunk a zombie run sits behind), so it is contained too: a crash
/// inside it returns a typed abort, not a pass count that reads like an
/// empty pass, and quarantines the chunk it held. One repair restores
/// validity, and the crashed pass let go of the one-pass-at-a-time flag.
#[test]
fn a_crashed_reclaim_pass_returns_an_abort() {
    let list = list16();
    let mut crashed = crash_the_head_edge_sweep(&list);
    list.handle().repair_quarantine();
    list.assert_valid();
    assert!(crashed.reclaim_pass().is_ok());
}

/// Park a zombie right behind the bottom level's head, which no traversal
/// has passed since, and crash the reclamation pass whose head-edge sweep
/// unlinks it, at the sweep's pointer swing: the pass returns a typed
/// abort and quarantines the head chunk it held. Returns the crashed
/// handle.
fn crash_the_head_edge_sweep(list: &Gfsl) -> GfslHandle<'_, ChaosProbe> {
    gfsl::quiet_injected_panics();
    let mut h = list.handle();
    let mut k = 0;
    while list.shape().levels[0].live_chunks < 3 {
        k += 1;
        h.try_insert(k, k).unwrap();
    }
    // Empty the bottom level's last chunk (never merged), then the second
    // until it merges into the last.
    while list.shape().levels[0].zombie_chunks == 0 {
        assert!(h.try_remove(k).unwrap(), "{k}");
        k -= 1;
    }
    let ctl = gfsl::chaos::controller(1, Replay::new(Vec::new()), Some((CrashPoint::NextSwing, 1)));
    let mut crashing = list.handle_with(ctl.probe(0));
    let pass = crashing.reclaim_pass();
    assert!(
        matches!(
            pass,
            Err(Error::Aborted(OpAbort {
                reason: AbortReason::Crashed,
                ..
            }))
        ),
        "{pass:?}"
    );
    assert_eq!(list.quarantine_depth(), 1, "the chunk the sweep held");
    crashing
}

/// A sweep takes every level's flag before it sweeps any, and nothing
/// raises a flag again for a zombie run already parked behind a head: a
/// pass that crashed mid-sweep flags the levels it had not swept, so a
/// later pass unlinks and retires the run after repair.
#[test]
fn a_crashed_sweep_leaves_its_levels_flagged() {
    let list = list16();
    crash_the_head_edge_sweep(&list);
    list.handle().repair_quarantine();
    let mut h = list.handle();
    for _ in 0..8 {
        h.reclaim_pass().unwrap();
    }
    assert!(list.reclaim_stats().retired >= 1, "{:?}", list.reclaim_stats());
    assert_eq!(list.shape().levels[0].zombie_chunks, 0, "a zombie still parked behind the head");
    list.assert_valid();
}
