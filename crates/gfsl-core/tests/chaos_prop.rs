//! Property tests: split/merge invariants under *scripted* chaos schedules.
//!
//! Each case drives two concurrent workers through a byte-script schedule:
//! every simulated memory access and crash point at which both could run is
//! a scheduling decision consumed from the script (`Replay`: once the bytes
//! run out the last-run thread continues, and a thread spinning on a lock
//! sits out until its holder writes). Shrinking the script shrinks the
//! *schedule*, so a failing interleaving minimizes to the shortest byte
//! prefix that still breaks an invariant.
//!
//! Workers own disjoint key classes (even/odd), so despite full chunk-level
//! contention every insert/remove return value has an exact per-thread
//! oracle, and the final membership is the union of the two oracles.

use std::collections::BTreeSet;

use gfsl::mc::strategy::Replay;
use gfsl::{Gfsl, GfslParams, TeamSize};
use proptest::prelude::*;

/// The workload: enough inserts per class to force several splits in a
/// 14-data-entry chunk format, then enough removes to force merges.
const KEYS_PER_CLASS: u32 = 40;

/// Longest script drawn. A byte is spent only where both workers could
/// run, and an exhausted script stops preempting, so the bound is sized to
/// steer a good part of the run rather than its first hundred steps.
const SCRIPT_MAX: usize = 2048;

/// Run the workload under `script`; returns the schedule's trace hash.
fn run_scripted(script: Vec<u8>) -> Result<u64, TestCaseError> {
    let list = Gfsl::new(GfslParams {
        team_size: TeamSize::Sixteen,
        pool_chunks: 1 << 12,
        ..Default::default()
    })
    .expect("params valid");
    let ctl = gfsl::chaos::controller(2, Replay::new(script), None);

    let finals: Vec<BTreeSet<u32>> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..2u32)
            .map(|t| {
                let list = &list;
                let ctl = &ctl;
                s.spawn(move || {
                    let mut h = list.handle_with(ctl.probe(t as usize));
                    let mut reference = BTreeSet::new();
                    // Insert this class's keys (interleaved with the peer's
                    // into the same chunks), then remove all but every 4th:
                    // the shrink forces merges right where splits happened.
                    for i in 0..KEYS_PER_CLASS {
                        let k = i * 2 + t + 1;
                        assert_eq!(
                            h.try_insert(k, k * 10).expect("pool"),
                            reference.insert(k),
                            "insert {k}"
                        );
                    }
                    for i in 0..KEYS_PER_CLASS {
                        if i % 4 == 0 {
                            continue;
                        }
                        let k = i * 2 + t + 1;
                        assert_eq!(h.try_remove(k).unwrap(), reference.remove(&k), "remove {k}");
                    }
                    reference
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("worker survived the schedule"))
            .collect()
    });

    // Quiescence: structure must be fully valid...
    let violations = list.validate();
    prop_assert!(
        violations.is_empty(),
        "invariant violations under script: {violations:?}"
    );
    // ...and membership must equal the union of the disjoint oracles.
    let got: BTreeSet<u32> = list.keys().into_iter().collect();
    let expect: BTreeSet<u32> = finals.into_iter().flatten().collect();
    prop_assert_eq!(got, expect);
    Ok(ctl.trace_hash())
}

/// The fully shrunk script: no byte steers anything, so liveness is the
/// controller's alone (wait hints drop the spinner from the candidates). It
/// must terminate — the step bomb, not a watchdog, says so if it does not —
/// and replay to the same schedule.
#[test]
fn the_empty_script_terminates_and_replays() {
    let a = run_scripted(Vec::new()).expect("empty script holds the invariants");
    let b = run_scripted(Vec::new()).expect("empty script holds the invariants");
    assert_eq!(a, b, "same script, same schedule");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Arbitrary byte scripts steer the all-parked scheduler through
    /// different interleavings of two contending workers; every schedule
    /// must preserve every structural invariant and the exact per-class
    /// membership oracle.
    #[test]
    fn scripted_schedules_preserve_split_merge_invariants(
        script in proptest::collection::vec(any::<u8>(), 0..SCRIPT_MAX),
    ) {
        run_scripted(script)?;
    }
}
