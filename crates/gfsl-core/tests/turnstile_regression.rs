//! Regression: the schedule turnstile must never wedge on a *retired*
//! participant.
//!
//! The bug: an injected panic retires its participant on the way out, but
//! under containment the catch site's bookkeeping — quarantining the
//! chunks the dead op still holds — performs gated accesses *before* the
//! participant is revived. A turnstile that parks every caller
//! unconditionally never grants a turn to a retired participant, so the
//! still-retired caller waits forever while its peers spin on the lock
//! words it holds: a whole-process deadlock with every thread alive and no
//! panic to report.
//!
//! Two fixes cover it, each sufficient, both kept:
//! - `McController::step` passes retired participants through ungated
//!   (and unrecorded, to keep trace replay deterministic), and
//! - the containment catch site calls `crash_recovered()` *before* any
//!   quarantine bookkeeping.
//!
//! Because the failure mode is a silent hang, the regression runs the whole
//! scenario on a helper thread and fails via watchdog timeout instead of
//! hanging the suite.

use std::sync::mpsc;
use std::time::Duration;

use gfsl::mc::strategy::RandomWalk;
use gfsl::{CrashPoint, Gfsl, GfslParams, TeamSize};

/// Deadline generous enough for a debug-build chaos run (the run itself
/// takes well under a second); a wedged turnstile exhausts it.
const WATCHDOG: Duration = Duration::from_secs(60);

#[test]
fn contained_crash_with_live_peers_does_not_wedge_the_turnstile() {
    let (tx, rx) = mpsc::channel();
    let runner = std::thread::spawn(move || {
        let list = Gfsl::new(GfslParams {
            team_size: TeamSize::Sixteen,
            pool_chunks: 1 << 12,
            ..Default::default()
        })
        .unwrap();

        // Two interleaved participants; participant hitting the first
        // split-publish dies there. Containment catches the kill, and its
        // quarantine bookkeeping runs while the participant is still
        // retired from the schedule — the exact wedge window.
        let ctl = gfsl::chaos::controller(
            2,
            RandomWalk::new(0x7ED_0FF, 1),
            Some((CrashPoint::SplitPublish, 1)),
        );

        let (crashes, acked) = std::thread::scope(|s| {
            let workers: Vec<_> = (0..2)
                .map(|t| {
                    let probe = ctl.probe(t);
                    let list = &list;
                    s.spawn(move || {
                        let mut h = list.handle_with(probe);
                        let mut crashed = 0u32;
                        let mut acked = Vec::new();
                        // Disjoint key ranges; enough inserts per thread
                        // that each fills chunks and splits repeatedly,
                        // so the survivor keeps stepping the turnstile
                        // long after the victim's crash.
                        for k in 1..=60u32 {
                            let key = 1000 * t as u32 + k;
                            match h.try_insert(key, k) {
                                Ok(_) => acked.push(key),
                                // The victim's crash surfaces as `Crashed`;
                                // the survivor's inserts may also abort with
                                // `Quarantined` when they route through the
                                // crashed op's quarantined chunks — fine,
                                // both keep the worker stepping.
                                Err(gfsl::Error::Aborted(a)) => {
                                    if a.reason == gfsl::AbortReason::Crashed {
                                        crashed += 1;
                                    }
                                }
                                Err(e) => panic!("unexpected error {e}"),
                            }
                        }
                        (crashed, acked)
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("containment keeps workers alive"))
                .fold((0, Vec::new()), |(crashes, mut all), (c, acked)| {
                    all.extend(acked);
                    (crashes + c, all)
                })
        });

        assert_eq!(crashes, 1, "exactly one injected crash must surface");
        assert!(!list.is_poisoned(), "containment replaces poisoning");

        // Post-crash health: repair drains the quarantine and the full
        // validation walk passes, proving the revived participant finished
        // its remaining ops normally.
        let stats = list.handle().repair_quarantine();
        assert_eq!(stats.quarantine_depth, 0);
        list.assert_valid();
        let mut h = list.handle();
        assert!(!acked.is_empty(), "inserts were acknowledged before the crash");
        for key in acked {
            assert!(h.contains(key), "acknowledged key {key} reachable");
        }

        tx.send(()).unwrap();
    });

    rx.recv_timeout(WATCHDOG).expect(
        "turnstile wedged: a retired participant parked in McController::step \
         (or containment quarantined before crash_recovered) and the schedule \
         never granted it a turn",
    );
    runner.join().expect("runner thread itself must not panic");
}

#[test]
fn retired_probe_steps_pass_through_ungated() {
    // Unit-level counterpart, directly on the controller: with one of two
    // participants retired and the other never stepping, the retiree's
    // accesses must return immediately instead of waiting for a turn that
    // is never granted. Run under the same watchdog discipline.
    let (tx, rx) = mpsc::channel();
    let runner = std::thread::spawn(move || {
        let ctl = gfsl::chaos::controller(2, RandomWalk::new(0, 1), None);
        ctl.retire(0);
        let mut probe = ctl.probe(0);
        // Would park forever before the passthrough fix.
        for _ in 0..1000 {
            gfsl::MemProbe::lane_read(&mut probe, 0xDEAD);
        }
        tx.send(()).unwrap();
    });
    rx.recv_timeout(WATCHDOG)
        .expect("retired participant parked in the turnstile");
    runner.join().unwrap();
}
