//! Regression: a team that dies (panics) mid-insert while holding chunk
//! locks must be *detected* — the structure reports itself poisoned and
//! later writers fail fast with a diagnosis — instead of silently
//! deadlocking every team that needs the orphaned locks.
//!
//! The panic is injected deterministically with the chaos layer: the worker
//! is killed at its first `SplitPublish` crash point, i.e. after it locked
//! the splitting chunk AND the freshly allocated (locked-at-birth) new
//! chunk, the worst case for orphaned locks.

use std::panic::{catch_unwind, AssertUnwindSafe};

use gfsl::mc::strategy::Replay;
use gfsl::{CrashPoint, Gfsl, GfslParams, TeamSize};

#[test]
fn panic_mid_split_poisons_instead_of_deadlocking() {
    let list = Gfsl::new(GfslParams {
        team_size: TeamSize::Sixteen,
        pool_chunks: 1 << 12,
        ..Default::default()
    })
    .unwrap();

    let ctl = gfsl::chaos::controller(
        1,
        Replay::new(Vec::new()),
        Some((CrashPoint::SplitPublish, 1)),
    );

    std::thread::scope(|s| {
        let worker = s.spawn(|| {
            let mut h = list.handle_with(ctl.probe(0));
            // The 14th insert overflows the 16-entry chunk's data array and
            // triggers the first split.
            for k in 1..=100u32 {
                let _ = h.insert(k, k);
            }
        });
        assert!(
            worker.join().is_err(),
            "worker must die at the injected crash point"
        );
    });

    // The held-lock tracker saw the unwind and poisoned the structure.
    assert!(list.is_poisoned(), "dead team went undetected");
    let report = list.poison_report().expect("poison carries a report");
    assert!(
        report.contains("chunk"),
        "report should name the orphaned chunks: {report}"
    );

    // Lock-free reads still work: keys inserted before the crash are
    // reachable (the split never published, so nothing moved).
    let mut reader = list.handle();
    for k in 1..=13u32 {
        assert!(reader.contains(k), "pre-crash key {k} must stay readable");
    }

    // A writer that needs one of the orphaned locks fails FAST with the
    // poison diagnosis (bounded wait + periodic poison check) instead of
    // spinning forever. The test completing at all is the no-deadlock
    // assertion.
    let res = catch_unwind(AssertUnwindSafe(|| {
        let mut h = list.handle();
        let _ = h.insert(500, 1);
    }));
    let err = res.expect_err("writer must abort, not complete or hang");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(
        msg.contains("poisoned"),
        "writer's panic should carry the poison diagnosis, got: {msg}"
    );

    // Full structural check: the injected crash fires *before* the split
    // publish, so every data invariant must still hold — the only legal
    // violations are the orphaned locks themselves.
    assert_crash_left_data_intact(&list, &[]);
}

/// Run the full [`Gfsl::validate`] walk on a poisoned structure and assert
/// the crash corrupted nothing: orphaned locks (`quiescent-unlocked`) are
/// always expected, and a caller whose crash point freezes a documented
/// multi-chunk window (e.g. mid-merge, where moved keys transiently exist
/// in both the dying chunk and its absorber) lists the level-scope rules
/// that window legitimately suspends. Chunk-local rules — sorted, unique,
/// packed, max fields — must hold unconditionally.
fn assert_crash_left_data_intact(list: &Gfsl, window_rules: &[&str]) {
    let violations = list.validate();
    assert!(
        !violations.is_empty(),
        "a poisoned structure must at least report its orphaned locks"
    );
    for v in &violations {
        assert!(
            v.rule == "quiescent-unlocked" || window_rules.contains(&v.rule),
            "crash may orphan locks but never corrupt data: {v}"
        );
    }
}

#[test]
fn surviving_teams_keep_running_after_peer_dies_elsewhere() {
    // A peer dying while holding locks on chunks another team never touches
    // must not stop that team: poisoning is detected at lock-wait time.
    let list = Gfsl::new(GfslParams {
        team_size: TeamSize::Sixteen,
        pool_chunks: 1 << 12,
        ..Default::default()
    })
    .unwrap();
    // Push enough keys that low and high key ranges live in distinct chunks.
    {
        let mut h = list.handle();
        for k in 1..=200u32 {
            h.insert(k * 10, k).unwrap();
        }
    }

    let ctl = gfsl::chaos::controller(
        1,
        Replay::new(Vec::new()),
        // Die at the first zombie-mark: the victim is mid-merge holding
        // the bottom chunk's lock, which gets orphaned by the unwind.
        Some((CrashPoint::MergeZombieMark, 1)),
    );
    std::thread::scope(|s| {
        let victim = s.spawn(|| {
            let mut h = list.handle_with(ctl.probe(0));
            // Remove low keys until a merge (zombie-mark) happens.
            for k in 1..=200u32 {
                h.remove(k * 10);
            }
        });
        let _ = victim.join();
    });

    // Whether or not the merge fired (it does with these parameters), the
    // high end of the key space must stay fully operational.
    let mut h = list.handle();
    for k in 150..=200u32 {
        assert!(h.contains(k * 10) || list.is_poisoned());
    }
    assert!(h.insert(100_000, 1).unwrap_or(false) || list.is_poisoned());
    drop(h);

    // Same full-walk guarantee as above, with the merge window's two
    // legal artifacts: the crash froze the op after the copy but before
    // the zombie mark, so the moved keys transiently exist in both the
    // dying chunk and its absorber (duplicates + out-of-order min). Every
    // chunk-local rule must still hold.
    if list.is_poisoned() {
        assert_crash_left_data_intact(&list, &["level-unique-keys", "lateral-order"]);
    } else {
        list.assert_valid();
    }
}

/// The containment counterpart of the poisoning regressions: the same
/// injected crash, but through a `try_*` entry point the worker survives
/// with a typed abort, the orphaned chunks land in quarantine, and one
/// repair pass returns the structure to a state where the *full* validation
/// walk — not just the lock-scrubbed subset — passes clean.
#[test]
fn contained_crash_repairs_to_a_fully_valid_structure() {
    let list = Gfsl::new(GfslParams {
        team_size: TeamSize::Sixteen,
        pool_chunks: 1 << 12,
        ..Default::default()
    })
    .unwrap();
    let ctl = gfsl::chaos::controller(
        1,
        Replay::new(Vec::new()),
        Some((CrashPoint::SplitPublish, 1)),
    );

    let crashed = std::thread::scope(|s| {
        s.spawn(|| {
            let mut h = list.handle_with(ctl.probe(0));
            let mut crashed = 0u32;
            for k in 1..=100u32 {
                match h.try_insert(k, k) {
                    Ok(_) => {}
                    Err(gfsl::Error::Aborted(_)) => crashed += 1,
                    Err(e) => panic!("unexpected error {e}"),
                }
            }
            crashed
        })
        .join()
        .expect("containment keeps the worker alive")
    });

    assert!(crashed > 0, "the injected crash must surface as a typed abort");
    assert!(!list.is_poisoned(), "containment replaces poisoning");
    assert!(list.quarantine_depth() > 0, "crashed chunks are quarantined");

    let stats = list.handle().repair_quarantine();
    assert_eq!(stats.quarantine_depth, 0, "repair drains the quarantine");
    list.assert_valid();
}
