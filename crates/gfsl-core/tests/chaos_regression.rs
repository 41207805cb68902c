//! Regression: a team that dies (panics) mid-protocol while holding chunk
//! locks leaves them *quarantined* with its intent, whichever entry point it
//! died in, and one repair pass returns the structure to full validity — it
//! neither poisons the structure nor deadlocks every team that needs the
//! orphaned locks. A team that then meets a quarantined chunk gives its
//! wait up with a typed abort instead of waiting for the repair.
//!
//! The crash is injected deterministically with the chaos layer: the worker
//! is killed at its first `SplitPublish` crash point (after it locked the
//! splitting chunk AND the freshly allocated, locked-at-birth new chunk) or
//! at its first `MergeZombieMark` (mid-merge, holding the dying chunk and
//! its absorber), the worst cases for orphaned locks.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use gfsl::mc::strategy::Replay;
use gfsl::{
    AbortReason, CrashPoint, Gfsl, GfslHandle, GfslParams, NoProbe, OpAbort, RepairStats,
    TeamSize, Violation,
};

fn list16() -> Gfsl {
    Gfsl::new(GfslParams {
        team_size: TeamSize::Sixteen,
        pool_chunks: 1 << 12,
        ..Default::default()
    })
    .unwrap()
}

/// The entry point the crashing worker runs its ops through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EntryPoint {
    Plain,
    Contained,
}

/// Everything a crash and its repair leave observable.
#[derive(Debug, PartialEq)]
struct Aftermath {
    /// Recovery counters right after the crash (the quarantine's depth and
    /// the chunks that entered it).
    crashed: RepairStats,
    /// The full validation walk before repair: the quarantined chunks that
    /// are linked show as locked at quiescence.
    locked: Vec<Violation>,
    /// The key-value pairs before repair.
    pairs: Vec<(u32, u32)>,
    /// Recovery counters after one repair pass: which arm each chunk took
    /// follows from the intent it was quarantined with.
    repaired: RepairStats,
}

/// Crash one worker at the first `point` through `entry`, then repair.
/// For `SplitPublish` the worker inserts `1, 2, …` into an empty list; for
/// `MergeZombieMark` it removes `10, 20, …` from a list of 200 such keys.
fn crash_and_repair(point: CrashPoint, entry: EntryPoint) -> Aftermath {
    let list = list16();
    let merge = point == CrashPoint::MergeZombieMark;
    if merge {
        let mut h = list.handle();
        for k in 1..=200u32 {
            h.insert(k * 10, k).unwrap();
        }
    }
    let ctl = gfsl::chaos::controller(1, Replay::new(Vec::new()), Some((point, 1)));
    let died = std::thread::scope(|s| {
        s.spawn(|| {
            let mut h = list.handle_with(ctl.probe(0));
            for k in 1..=200u32 {
                let aborted = match (entry, merge) {
                    (EntryPoint::Plain, false) => !h.insert(k, k).unwrap(),
                    (EntryPoint::Plain, true) => !h.remove(k * 10),
                    (EntryPoint::Contained, false) => h.try_insert(k, k).is_err(),
                    (EntryPoint::Contained, true) => h.try_remove(k * 10).is_err(),
                };
                if aborted {
                    return;
                }
            }
        })
        .join()
        .is_err()
    });
    assert_eq!(
        died,
        entry == EntryPoint::Plain,
        "{point:?}: the plain worker dies at the crash, the contained one returns"
    );
    assert!(!list.is_poisoned(), "{point:?} {entry:?}: a crash does not poison");
    let crashed = list.repair_stats();
    assert_eq!(crashed.crashed_ops, 1, "{point:?} {entry:?}");
    assert!(crashed.quarantine_depth >= 2, "{point:?} {entry:?}: the op's chunks are quarantined");
    let (locked, pairs) = (list.validate(), list.pairs());
    let repaired = list.handle().repair_quarantine();
    assert_eq!(repaired.quarantine_depth, 0, "{point:?} {entry:?}: repair drains the quarantine");
    list.assert_valid();
    Aftermath {
        crashed,
        locked,
        pairs,
        repaired,
    }
}

/// The same injected crash through `insert` / `remove` and through
/// `try_insert` / `try_remove` leaves the same quarantine, and one repair
/// pass takes the same arms to the same fully valid structure.
#[test]
fn a_crash_quarantines_and_repairs_alike_through_either_entry_point() {
    gfsl::quiet_injected_panics();
    for point in [CrashPoint::SplitPublish, CrashPoint::MergeZombieMark] {
        let plain = crash_and_repair(point, EntryPoint::Plain);
        let contained = crash_and_repair(point, EntryPoint::Contained);
        assert_eq!(plain, contained, "{point:?}");
    }
}

/// How long a plain op may take to give up its wait; waiting on until
/// repair runs never ends here.
const WATCHDOG: Duration = Duration::from_secs(5);

/// After a contained insert crashes at `SplitPublish`, a plain `get`,
/// `count_range` and `remove` of the crashed key each meet its quarantined
/// chunk and unwind with `OpAbort { reason: Quarantined, .. }`, holding
/// nothing, instead of waiting for a repair that never comes.
#[test]
fn a_plain_op_gives_up_a_wait_on_a_quarantined_chunk() {
    gfsl::quiet_injected_panics();
    let list = Arc::new(list16());
    let ctl = gfsl::chaos::controller(
        1,
        Replay::new(Vec::new()),
        Some((CrashPoint::SplitPublish, 1)),
    );
    let key = {
        let mut h = list.handle_with(ctl.probe(0));
        (1..=100u32)
            .find(|&k| h.try_insert(k, k).is_err())
            .expect("the injected crash fires")
    };
    let depth = list.quarantine_depth();
    assert!(depth >= 2, "the split's chunks are quarantined");

    type PlainOp = fn(&mut GfslHandle<'_, NoProbe>, u32);
    let ops: [(&str, PlainOp); 3] = [
        ("get", |h, k| {
            let _ = h.get(k);
        }),
        ("count_range", |h, k| {
            let _ = h.count_range(k, k);
        }),
        ("remove", |h, k| {
            let _ = h.remove(k);
        }),
    ];
    for (name, op) in ops {
        let (tx, rx) = mpsc::channel();
        let shared = Arc::clone(&list);
        std::thread::spawn(move || {
            let run = catch_unwind(AssertUnwindSafe(|| op(&mut shared.handle(), key)));
            let _ = tx.send(run.map_err(|p| p.downcast::<OpAbort>().map(|a| *a)));
        });
        let outcome = rx
            .recv_timeout(WATCHDOG)
            .unwrap_or_else(|_| panic!("plain {name}({key}) still waiting after {WATCHDOG:?}"));
        match outcome {
            Err(Ok(OpAbort {
                reason: AbortReason::Quarantined,
                ..
            })) => {}
            other => panic!("plain {name}({key}) must unwind with a Quarantined OpAbort: {other:?}"),
        }
        assert_eq!(
            list.quarantine_depth(),
            depth,
            "plain {name} held nothing when its handle unwound"
        );
    }

    list.handle().repair_quarantine();
    list.assert_valid();
    let mut h = list.handle();
    assert_eq!(h.get(key), None, "the crashed insert never published");
    assert!(h.insert(key, key).unwrap());
}
