//! Differential oracles for the model checker (ISSUE 9 satellite):
//! re-introduce each of PR 1's two seed races, the unprotected raise a
//! first draft of the index heal made, a reclaimer without its staging
//! grace, a bottom-lock upgrade that ignores the word certifying its
//! view, an append split that publishes without lowering the split
//! chunk's max, a zombie step that follows the NEXT lane of a torn
//! view, and a level head published before it is written, via the
//! `bug_knobs` test-only
//! reverts and assert the schedule explorer **finds** the bug,
//! minimizes it, and emits a trace-hash-replayable counterexample — then
//! that the *fixed* code passes the exact same schedule.
//!
//! This is the calibration that keeps "0 counterexamples found" in
//! `modelcheck.rs` meaningful: a checker that cannot re-find known bugs
//! proves nothing by finding none.

use gfsl::bug_knobs;
use gfsl::mc::minimize::ddmin;
use gfsl::mc::strategy::{DfsBounded, RandomWalk, Replay, Scheduler};
use gfsl::mc::{configs, explore, format_spec, replay, McOp, McReport};
use gfsl::Gfsl;

/// Explore with bounded DFS, escalating to a seeded random walk if the
/// preemption-bounded space misses the bug (it should not — both seed
/// races need a single preemption — but the oracle must not flake on a
/// default-policy change).
fn find_bug(config_name: &str) -> McReport {
    let cfg = configs::by_name(config_name).expect("config registered");
    let strategies: Vec<Box<dyn Scheduler>> = vec![
        Box::new(DfsBounded::new(2, true, 500_000)),
        Box::new(RandomWalk::new(0xB00B_5EED, 2_000)),
    ];
    let mut last = None;
    for strategy in strategies {
        let report = explore(&cfg, strategy);
        println!("oracle {}", report.summary());
        if report.counterexample.is_some() {
            return report;
        }
        last = Some(report);
    }
    last.expect("at least one strategy ran")
}

fn assert_found_minimized_and_differential(config_name: &str, revert: &str) {
    let report = find_bug(config_name);
    let cx = report
        .counterexample
        .unwrap_or_else(|| panic!("{config_name}: reverting {revert} must produce a counterexample"));
    assert!(
        report.minimize_episodes > 0,
        "counterexample must have gone through ddmin"
    );

    // The one-line spec replays: same decisions -> same trace hash, still
    // failing. This is exactly what `stress --schedule <spec>` does.
    let cfg = configs::by_name(config_name).expect("config registered");
    let out = replay(&cfg, cx.decisions.clone());
    assert_eq!(
        out.trace, cx.trace,
        "minimized schedule must replay to its recorded trace hash"
    );
    assert!(
        out.failure.is_some(),
        "minimized schedule must still fail on replay"
    );
    println!(
        "oracle {config_name}: minimized to {} decision byte(s), spec {}",
        cx.decisions.len(),
        cx.spec()
    );
}

#[test]
fn split_raised_key_revert_is_refound() {
    let guard = bug_knobs::revert_split_raised_key_guard();
    assert_found_minimized_and_differential("split-raise-2t", "the split raised-key fix");
    drop(guard);

    // Differential direction: with the fix restored, the *same minimized
    // schedule* must pass. Re-derive it under the knob, then replay
    // without it.
    let guard = bug_knobs::revert_split_raised_key_guard();
    let cx = find_bug("split-raise-2t").counterexample.expect("refound");
    drop(guard);
    let cfg = configs::by_name("split-raise-2t").unwrap();
    let out = replay(&cfg, cx.decisions);
    assert!(
        out.failure.is_none(),
        "fixed split must pass the bug's schedule, got: {:?}",
        out.failure
    );
}

#[test]
fn remove_shift_revert_is_refound() {
    let guard = bug_knobs::revert_remove_shift_guard();
    assert_found_minimized_and_differential("remove-shift-2t", "the remove left-to-right shift fix");
    drop(guard);

    let guard = bug_knobs::revert_remove_shift_guard();
    let cx = find_bug("remove-shift-2t").counterexample.expect("refound");
    drop(guard);
    let cfg = configs::by_name("remove-shift-2t").unwrap();
    let out = replay(&cfg, cx.decisions);
    assert!(
        out.failure.is_none(),
        "fixed remove must pass the bug's schedule, got: {:?}",
        out.failure
    );
}

#[test]
fn heal_raising_an_unprotected_minimum_is_refound() {
    let guard = bug_knobs::heal_raises_upper_min_guard();
    assert_found_minimized_and_differential("heal-upper-2t", "the heal's lock-coverage check");
    let cx = find_bug("heal-upper-2t").counterexample.expect("refound");
    assert!(
        cx.description.contains("structure invariant"),
        "expected a dangling index entry, got: {}",
        cx.description
    );
    drop(guard);
    let cfg = configs::by_name("heal-upper-2t").unwrap();
    let out = replay(&cfg, cx.decisions);
    assert!(
        out.failure.is_none(),
        "the lock-covered heal must pass the bug's schedule, got: {:?}",
        out.failure
    );
}

#[test]
fn skipping_the_staging_grace_is_refound() {
    let guard = bug_knobs::skip_staging_grace_guard();
    assert_found_minimized_and_differential("reclaim-2t", "the reclaimer's staging grace");
    let cx = find_bug("reclaim-2t").counterexample.expect("refound");
    drop(guard);
    let cfg = configs::by_name("reclaim-2t").unwrap();
    let out = replay(&cfg, cx.decisions);
    assert!(
        out.failure.is_none(),
        "with the staging grace the parked reader's chunk must not be reused, got: {:?}",
        out.failure
    );
}

#[test]
fn a_stale_lock_upgrade_is_refound() {
    let guard = bug_knobs::stale_lock_upgrade_guard();
    assert_found_minimized_and_differential("lock-upgrade-2t", "the upgrade's certifying word");
    let cx = find_bug("lock-upgrade-2t").counterexample.expect("refound");
    assert!(
        cx.description.contains("non-linearizable"),
        "expected a lost update, got: {}",
        cx.description
    );
    drop(guard);
    let cfg = configs::by_name("lock-upgrade-2t").unwrap();
    let out = replay(&cfg, cx.decisions);
    assert!(
        out.failure.is_none(),
        "an upgrade from the certifying word must pass the bug's schedule, got: {:?}",
        out.failure
    );
}

#[test]
fn an_append_split_keeping_the_old_max_is_refound() {
    let guard = bug_knobs::append_split_keeps_max_guard();
    assert_found_minimized_and_differential("split-append-2t", "the append split's lowered max");
    let cx = find_bug("split-append-2t").counterexample.expect("refound");
    assert!(
        cx.description.contains("structure invariant"),
        "expected the appended key out of lateral order, got: {}",
        cx.description
    );
    drop(guard);
    let cfg = configs::by_name("split-append-2t").unwrap();
    let out = replay(&cfg, cx.decisions);
    assert!(
        out.failure.is_none(),
        "an append split that lowers the max must pass the bug's schedule, got: {:?}",
        out.failure
    );
}

/// Item 3's torn zombie view, at one preemption: without the NEXT re-read,
/// the read misses a present key and the insert lands right of its chunk.
#[test]
fn a_torn_zombie_next_is_refound() {
    for (name, symptom) in [
        ("zombie-tear-2t", "non-linearizable"),
        ("zombie-tear-insert-2t", "structure invariant"),
    ] {
        let cfg = configs::by_name(name).expect("config registered");
        let guard = bug_knobs::torn_zombie_next_guard();
        let report = explore(&cfg, Box::new(DfsBounded::new(1, true, 500_000)));
        println!("oracle {}", report.summary());
        let cx = report
            .counterexample
            .unwrap_or_else(|| panic!("{name}: skipping the NEXT re-read must produce a counterexample"));
        assert!(report.minimize_episodes > 0, "counterexample must have gone through ddmin");
        assert!(cx.description.contains(symptom), "{name}: expected {symptom}, got: {}", cx.description);
        let out = replay(&cfg, cx.decisions.clone());
        assert_eq!(out.trace, cx.trace, "minimized schedule must replay to its recorded trace hash");
        assert!(out.failure.is_some(), "minimized schedule must still fail on replay");
        drop(guard);
        let out = replay(&cfg, cx.decisions);
        assert!(
            out.failure.is_none(),
            "{name}: the re-read NEXT lane must pass the bug's schedule, got: {:?}",
            out.failure
        );
    }
}

/// A level head published before its lanes are written, at one
/// preemption: between the publish and the first lane store, a remove's
/// probe above level 1 reads the fresh pool chunk — zeros, a chunk whose
/// max is `-inf` and whose next pointer is the bottom level's head — and
/// walks out of its level, down to its own locked bottom chunk.
#[test]
fn an_early_head_publish_is_refound() {
    let cfg = configs::by_name("level-grow-2t").expect("config registered");
    let guard = bug_knobs::early_head_publish_guard();
    let report = explore(&cfg, Box::new(DfsBounded::new(1, true, 500_000)));
    println!("oracle {}", report.summary());
    let cx = report
        .counterexample
        .unwrap_or_else(|| panic!("publishing a head before its lanes must produce a counterexample"));
    assert!(report.minimize_episodes > 0, "counterexample must have gone through ddmin");
    let out = replay(&cfg, cx.decisions.clone());
    assert_eq!(out.trace, cx.trace, "minimized schedule must replay to its recorded trace hash");
    assert!(out.failure.is_some(), "minimized schedule must still fail on replay");
    drop(guard);
    let out = replay(&cfg, cx.decisions);
    assert!(
        out.failure.is_none(),
        "a head written before its publish must pass the bug's schedule, got: {:?}",
        out.failure
    );
}

#[test]
fn clean_build_passes_the_oracle_configs() {
    // Sanity inverse: with no knob set, the same exploration budget finds
    // nothing on the oracle configs (they are ordinary workloads then).
    // The knobs are process-global: hold the lock the knob tests hold, or a
    // parallel test run explores these configs with a revert switched on.
    let _serial = bug_knobs::knob_test_lock();
    for name in [
        "split-raise-2t",
        "remove-shift-2t",
        "heal-upper-2t",
        "reclaim-2t",
        "lock-upgrade-2t",
        "split-append-2t",
    ] {
        let report = find_bug(name);
        assert!(
            report.counterexample.is_none(),
            "{name} must be clean without a revert knob: {}",
            report.summary()
        );
    }
}

/// One *probe-granularity* run of `split-raise-2t`'s two scripted threads —
/// the granularity every fault-injection soak gates at, and the one PR 1's
/// soak found this race at: participants step the one turnstile through
/// [`gfsl::ChaosProbe`] (one step per probe event or crash point), not
/// through the pool-word hook. Returns whether the structure came out
/// invalid, the decision bytes and the trace hash.
fn probe_run(strategy: impl Scheduler + 'static) -> (bool, Vec<u8>, u64) {
    let cfg = configs::by_name("split-raise-2t").expect("config registered");
    let list = Gfsl::new(cfg.params).expect("params valid");
    {
        let mut h = list.handle();
        for &(k, v) in &cfg.prefill {
            assert!(h.insert(k, v).expect("pool"));
        }
    }
    let ctl = gfsl::chaos::controller(cfg.threads.len(), strategy, None);
    std::thread::scope(|s| {
        for (id, ops) in cfg.threads.iter().enumerate() {
            let (list, ctl) = (&list, &ctl);
            s.spawn(move || {
                let mut h = list.handle_with(ctl.probe(id));
                for &op in ops {
                    match op {
                        McOp::Insert(k, v) => drop(h.insert(k, v).expect("pool")),
                        McOp::Remove(k) => drop(h.remove(k)),
                        other => unreachable!("split-raise-2t scripts no {other:?}"),
                    }
                }
            });
        }
    });
    (!list.validate().is_empty(), ctl.decisions(), ctl.trace_hash())
}

/// Seeds a probe-granularity campaign may spend re-finding the race.
const PROBE_SEED_BUDGET: u64 = 2_000;

/// The fold of fault injection onto the model checker's turnstile kept its
/// teeth and gained replay: a seeded walk over probe-granularity
/// participants re-finds the split raised-key race, the recorded decisions
/// replay it to the same trace hash, ddmin shrinks them — and with the fix
/// in place the same seeds are clean.
#[test]
fn probe_granularity_walk_refinds_the_split_raise_race() {
    let guard = bug_knobs::revert_split_raised_key_guard();
    let (seed, decisions, trace) = (0..PROBE_SEED_BUDGET)
        .find_map(|seed| {
            let (bad, decisions, trace) = probe_run(RandomWalk::new(seed, 1));
            bad.then_some((seed, decisions, trace))
        })
        .unwrap_or_else(|| panic!("no violation in {PROBE_SEED_BUDGET} probe-granularity seeds"));
    assert_eq!(
        probe_run(Replay::new(decisions.clone())),
        (true, decisions.clone(), trace),
        "the recorded decisions replay the failure bit for bit"
    );
    let (min, replays) = ddmin(&decisions, |b| probe_run(Replay::new(b.to_vec())).0);
    assert!(min.len() <= decisions.len(), "ddmin never grows a schedule");
    let (bad, _, min_trace) = probe_run(Replay::new(min.clone()));
    assert!(bad, "the minimized schedule still fails");
    println!(
        "oracle split-raise-2t @ probe granularity: seed {seed} of {PROBE_SEED_BUDGET}, {} decision \
         byte(s) -> {} after {replays} replays, spec {}",
        decisions.len(),
        min.len(),
        format_spec(min_trace, &min)
    );
    drop(guard);

    let _serial = bug_knobs::knob_test_lock();
    assert!(!probe_run(Replay::new(min)).0, "the fixed split passes the bug's schedule");
    for seed in 0..PROBE_SEED_BUDGET {
        assert!(!probe_run(RandomWalk::new(seed, 1)).0, "seed {seed}: fixed code must be clean");
    }
}
