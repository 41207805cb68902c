//! Property test: range scans under *scripted* chaos schedules never miss a
//! continuously present key (the satellite to PR 2's serving front end,
//! which leans on `range` for its `Range` request type).
//!
//! One mutator deletes every even key (forcing merges across the scan
//! window) and then reinserts the `k % 4 == 3` class (forcing splits),
//! while a scanner repeatedly walks the full window. Every access of both
//! workers is scheduled by the turnstile from an arbitrary byte
//! script, so shrinking a failure shrinks the interleaving. The scan
//! contract under test (see `range.rs`): keys present for the whole scan
//! are reported exactly once, in order; concurrently mutated keys may or
//! may not appear — but nothing outside the universe ever does.

use std::collections::BTreeSet;

use gfsl::mc::strategy::Replay;
use gfsl::{Gfsl, GfslParams, TeamSize};
use proptest::prelude::*;

/// Key universe `1..=UNIVERSE`; spans several 14-entry chunks so merges and
/// splits cross chunk boundaries mid-scan.
const UNIVERSE: u32 = 120;
const SCANS: usize = 6;

fn stable(k: u32) -> bool {
    k % 4 == 1 // never touched after prefill
}

fn victim(k: u32) -> bool {
    k.is_multiple_of(2) // prefilled, deleted by the mutator
}

fn late(k: u32) -> bool {
    k % 4 == 3 // absent at prefill, inserted by the mutator
}

/// Run the workload under `script`; returns the schedule's trace hash.
fn run_scripted(script: Vec<u8>) -> Result<u64, TestCaseError> {
    let list = Gfsl::new(GfslParams {
        team_size: TeamSize::Sixteen,
        pool_chunks: 1 << 12,
        ..Default::default()
    })
    .expect("params valid");
    {
        let mut h = list.handle();
        for k in (1..=UNIVERSE).filter(|&k| stable(k) || victim(k)) {
            h.try_insert(k, k * 10).expect("pool");
        }
    }
    let ctl = gfsl::chaos::controller(2, Replay::new(script), None);

    let scan_violation: Option<String> = std::thread::scope(|s| {
        let mutator = {
            let (list, ctl) = (&list, &ctl);
            s.spawn(move || {
                let mut h = list.handle_with(ctl.probe(0));
                for k in (1..=UNIVERSE).filter(|&k| victim(k)) {
                    assert!(h.try_remove(k).unwrap(), "victim {k} was prefilled");
                }
                for k in (1..=UNIVERSE).filter(|&k| late(k)) {
                    assert!(h.try_insert(k, k * 10).expect("pool"), "late {k} was absent");
                }
            })
        };
        let scanner = {
            let (list, ctl) = (&list, &ctl);
            s.spawn(move || -> Option<String> {
                let mut h = list.handle_with(ctl.probe(1));
                for scan in 0..SCANS {
                    let got = h.try_range(1, UNIVERSE).unwrap();
                    if !got.windows(2).all(|w| w[0].0 < w[1].0) {
                        return Some(format!("scan {scan} not sorted/unique: {got:?}"));
                    }
                    let keys: BTreeSet<u32> = got.iter().map(|&(k, _)| k).collect();
                    for k in (1..=UNIVERSE).filter(|&k| stable(k)) {
                        if !keys.contains(&k) {
                            return Some(format!(
                                "scan {scan} missed continuously present key {k}: {keys:?}"
                            ));
                        }
                    }
                    for &(k, v) in &got {
                        if k == 0 || k > UNIVERSE || v != k * 10 {
                            return Some(format!("scan {scan} fabricated ({k}, {v})"));
                        }
                    }
                }
                None
            })
        };
        mutator.join().expect("mutator survived the schedule");
        scanner.join().expect("scanner survived the schedule")
    });
    prop_assert!(scan_violation.is_none(), "{}", scan_violation.unwrap());

    // Quiescence: structure valid, membership equals the exact oracle
    // (stable ∪ late; every victim deleted).
    let violations = list.validate();
    prop_assert!(
        violations.is_empty(),
        "invariant violations under script: {violations:?}"
    );
    let got: BTreeSet<u32> = list.keys().into_iter().collect();
    let expect: BTreeSet<u32> = (1..=UNIVERSE).filter(|&k| stable(k) || late(k)).collect();
    prop_assert_eq!(got, expect);
    let mut h = list.handle();
    prop_assert_eq!(h.try_count_range(1, UNIVERSE).unwrap(), expect.len());
    Ok(ctl.trace_hash())
}

/// The fully shrunk script terminates (the scanner's certification spins
/// sit out on their wait hints) and replays to the same schedule.
#[test]
fn the_empty_script_terminates_and_replays() {
    let a = run_scripted(Vec::new()).expect("empty script holds the scan contract");
    let b = run_scripted(Vec::new()).expect("empty script holds the scan contract");
    assert_eq!(a, b, "same script, same schedule");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Arbitrary byte scripts interleave a merging/splitting mutator with a
    /// concurrent scanner; no schedule may make a scan miss a continuously
    /// present key, yield out-of-order output, or fabricate entries.
    #[test]
    fn scripted_schedules_never_break_range_scans(
        script in proptest::collection::vec(any::<u8>(), 0..2048),
    ) {
        run_scripted(script)?;
    }
}
