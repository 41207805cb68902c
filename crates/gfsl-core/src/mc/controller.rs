//! The schedule turnstile: one thread runs at a time, the [`Scheduler`]
//! decides which. The workspace's only one — the model checker's episodes
//! and every fault-injection run ([`crate::chaos`]) are its clients.
//!
//! A turn is granted only when every live participant is parked, so the
//! schedule is a pure function of the decision stream, not OS timing.
//! Participants gate at every pool atomic ([`McHook`], the `sched` builds'
//! yield points — what bounded-exhaustive exploration needs) or at every
//! [`gfsl_gpu_mem::MemProbe`] event ([`crate::chaos::ChaosProbe`] — what a
//! soak can afford). On top of the grant discipline:
//!
//! * **Access reporting.** A participant parks *before* its access and
//!   reports its kind and address, so the scheduler can reason about
//!   conflicts before committing an order.
//! * **Decision recording.** Every decision point with ≥ 2 effective
//!   candidates logs the chosen index as one byte. The byte list replays
//!   the run exactly (via [`super::strategy::Replay`]) and is what ddmin
//!   minimizes; the trace hash (a word-wise FNV fold of every granted
//!   step) is the one-line fingerprint.
//! * **Spin-wait tracking.** `wait_hint(addr)` marks the caller as
//!   spinning on `addr`; waiting threads are excluded from the effective
//!   candidate set while any non-waiting thread is runnable (scheduling a
//!   spinner before its lock word changes only permutes futile spins),
//!   and every granted store/RMW clears the flags so woken spinners
//!   rejoin the candidate set. This, not a fallback policy in a strategy,
//!   keeps a run live under a schedule that always continues one thread.
//!   If *everyone* is waiting the controller schedules them anyway — a
//!   genuinely deadlocked protocol then trips the step bomb instead of
//!   hanging the test run.
//! * **A fault plan.** `panic_at = (point, n)` kills the participant
//!   granted the n-th occurrence of a [`CrashPoint`], inside the window,
//!   with a typed [`InjectedCrash`]; see [`McController::new`].
//!
//! A **retired** participant passes through ungated (and unrecorded): a
//! thread that keeps executing gated code after retirement — a crash
//! victim's unwind and quarantine bookkeeping, before its catch site
//! revives it — must never park waiting for a turn no scheduler grants to
//! the retired.

use std::sync::{Arc, Condvar, Mutex, Once};

use gfsl_gpu_mem::schedule::{AccessKind, SchedHook};
use gfsl_gpu_mem::{CrashPoint, WordAddr};
use gfsl_rng::fnv;

use super::strategy::{PendingAccess, Scheduler};
use crate::chaos::ALL_CRASH_POINTS;
use crate::skiplist::AbortSignal;

/// Synthetic address of the episode start gate: every worker's first
/// yield point, so all threads are parked before any instruction of any
/// operation runs (thread *startup* code would otherwise race ungated).
pub const SYNTH_START: WordAddr = 0xFFFF_FFFC;

/// A strategy shared between the episode executor (between episodes) and
/// the controller (during an episode).
pub type SharedScheduler = Arc<Mutex<Box<dyn Scheduler>>>;

/// `strategy` in the shared form with its one episode begun: what a single
/// run — a replay, a fault-injection run and its rounds — hands its
/// controller(s).
pub fn one_episode(mut strategy: impl Scheduler + 'static) -> SharedScheduler {
    assert!(strategy.begin_episode(), "strategy has no episode left");
    Arc::new(Mutex::new(Box::new(strategy)))
}

/// Panic payload of a fault-plan kill: which window, which occurrence of
/// it, which participant died there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedCrash {
    /// The crash point the victim was granted.
    pub point: CrashPoint,
    /// Its 1-based occurrence, counted across participants.
    pub occurrence: u64,
    /// The participant killed.
    pub participant: usize,
}

/// Silence the default panic hook for injected unwinds — the fault plan's
/// [`InjectedCrash`] and containment's typed abort signals — for the rest
/// of the process. Every other panic still prints.
pub fn quiet_injected_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let p = info.payload();
            if !p.is::<InjectedCrash>() && !p.is::<AbortSignal>() {
                prev(info);
            }
        }));
    });
}

struct McState {
    parked: Vec<bool>,
    retired: Vec<bool>,
    pending: Vec<PendingAccess>,
    waiting: Vec<bool>,
    granted: Option<usize>,
    last: Option<usize>,
    decisions: Vec<u8>,
    trace: u64,
    steps: u64,
    max_steps: u64,
    panic_at: Option<(CrashPoint, u64)>,
    crash_hits: [u64; ALL_CRASH_POINTS.len()],
}

/// The scheduling turnstile (see module docs). One per episode or
/// fault-injection run; participants attach via [`McController::hook`] or
/// [`McController::probe`].
pub struct McController {
    state: Mutex<McState>,
    cv: Condvar,
    strategy: SharedScheduler,
}

impl McController {
    /// A controller for `threads` participants driving decisions from
    /// `strategy`. `max_steps` bounds the granted turns (the
    /// livelock/deadlock bomb); 0 means no bound. With `panic_at = (point,
    /// n)` the participant granted the `n`-th occurrence (1-based, counted
    /// across participants) of the crash point panics inside it with an
    /// [`InjectedCrash`], retired first so its peers keep being scheduled
    /// through the unwind.
    pub fn new(
        threads: usize,
        strategy: SharedScheduler,
        max_steps: u64,
        panic_at: Option<(CrashPoint, u64)>,
    ) -> Arc<McController> {
        Arc::new(McController {
            state: Mutex::new(McState {
                parked: vec![false; threads],
                retired: vec![false; threads],
                pending: vec![
                    PendingAccess {
                        kind: AccessKind::Load,
                        addr: 0,
                    };
                    threads
                ],
                waiting: vec![false; threads],
                granted: None,
                last: None,
                decisions: Vec::new(),
                trace: fnv::OFFSET,
                steps: 0,
                max_steps,
                panic_at,
                crash_hits: [0; ALL_CRASH_POINTS.len()],
            }),
            cv: Condvar::new(),
            strategy,
        })
    }

    /// The [`SchedHook`] for participant `id` (register it in that
    /// worker's thread-local via [`gfsl_gpu_mem::schedule::register`]).
    /// With `words` every pool atomic is a gate; without, only the wait
    /// hints reach the controller — a [`crate::chaos::ChaosProbe`]
    /// participant's hook, which gates per probe event even in `sched`
    /// builds.
    pub fn hook(self: &Arc<McController>, id: usize, words: bool) -> Arc<McHook> {
        Arc::new(McHook {
            controller: self.clone(),
            id,
            words,
        })
    }

    /// Declare participant `id` finished. Idempotent; wakes the turnstile
    /// so the remaining participants' parked==live condition can re-form.
    pub fn retire(&self, id: usize) {
        let mut st = self.state.lock().unwrap();
        if st.retired[id] {
            return;
        }
        st.retired[id] = true;
        st.parked[id] = false;
        st.waiting[id] = false;
        if st.granted == Some(id) {
            st.granted = None;
        }
        self.cv.notify_all();
    }

    /// Re-admit a retired participant: a crash victim whose kill was
    /// contained (the catch site calls this through
    /// [`gfsl_gpu_mem::MemProbe::crash_recovered`]), or one that sat out
    /// between operations.
    pub fn revive(&self, id: usize) {
        let mut st = self.state.lock().unwrap();
        st.retired[id] = false;
        st.parked[id] = false;
        st.waiting[id] = false;
        self.cv.notify_all();
    }

    /// The run's trace hash: a word-wise FNV fold of every granted step's
    /// (thread, kind, address). Equal decisions and thread behaviour ⇒
    /// equal hash; this is the replay-determinism witness.
    pub fn trace_hash(&self) -> u64 {
        self.state.lock().unwrap().trace
    }

    /// Granted turns so far.
    pub fn steps(&self) -> u64 {
        self.state.lock().unwrap().steps
    }

    /// The episode's decision byte log (one byte per ≥2-candidate
    /// decision point: the chosen index into the effective candidate
    /// list). Feed to [`super::strategy::Replay`] to reproduce.
    pub fn decisions(&self) -> Vec<u8> {
        self.state.lock().unwrap().decisions.clone()
    }

    /// How many times each crash point was granted.
    pub fn crash_point_hits(&self) -> Vec<(CrashPoint, u64)> {
        let st = self.state.lock().unwrap();
        ALL_CRASH_POINTS.iter().copied().zip(st.crash_hits).collect()
    }

    /// Block until `id` is granted the access it describes; `point` names
    /// the crash point this step *is*, for the hit table and the fault plan.
    pub(crate) fn step(
        &self,
        id: usize,
        kind: AccessKind,
        addr: WordAddr,
        point: Option<CrashPoint>,
    ) {
        let mut st = self.state.lock().unwrap();
        if st.retired[id] {
            // Retired passthrough: ungated AND unrecorded (an ungated
            // access interleaves on OS timing; folding it into the trace
            // would break replay determinism).
            return;
        }
        st.pending[id] = PendingAccess { kind, addr };
        st.parked[id] = true;
        loop {
            if st.granted == Some(id) {
                st.granted = None;
                st.parked[id] = false;
                st.last = Some(id);
                st.trace = fnv::fold_word(st.trace, id as u64);
                st.trace = fnv::fold_word(st.trace, u64::from(kind.code()));
                st.trace = fnv::fold_word(st.trace, u64::from(addr));
                st.steps += 1;
                // Feed the access log the DFS's delayed-conflict pruning
                // reads; lock order state -> strategy matches decide().
                self.strategy
                    .lock()
                    .unwrap()
                    .observe(id, PendingAccess { kind, addr });
                if kind != AccessKind::Load {
                    // A write landed: spinners may now observe what they
                    // were waiting for. Conservative (clears on *any*
                    // write, not just the watched address): a woken
                    // spinner re-parks and re-hints at worst.
                    for i in 0..st.waiting.len() {
                        if !st.retired[i] {
                            st.waiting[i] = false;
                        }
                    }
                }
                let crash = point.and_then(|p| {
                    st.crash_hits[p as usize] += 1;
                    let occurrence = st.crash_hits[p as usize];
                    (st.panic_at == Some((p, occurrence))).then_some(InjectedCrash {
                        point: p,
                        occurrence,
                        participant: id,
                    })
                });
                if crash.is_some() {
                    st.retired[id] = true;
                }
                let max = st.max_steps;
                let over_budget = max > 0 && st.steps > max;
                self.cv.notify_all();
                drop(st);
                if over_budget {
                    panic!(
                        "mc: episode exceeded {max} scheduled steps — livelocked or \
                         deadlocked schedule (all threads spin-waiting?)"
                    );
                }
                if let Some(crash) = crash {
                    std::panic::panic_any(crash);
                }
                return;
            }
            if st.granted.is_none() {
                let live = st.retired.iter().filter(|&&r| !r).count();
                let parked = st
                    .parked
                    .iter()
                    .zip(&st.retired)
                    .filter(|&(&p, &r)| p && !r)
                    .count();
                if parked == live && live > 0 {
                    let next = Self::decide(&mut st, &self.strategy);
                    st.granted = Some(next);
                    self.cv.notify_all();
                    if next == id {
                        continue;
                    }
                }
            }
            st = self.cv.wait(st).unwrap();
        }
    }

    /// All live participants are parked: compute the effective candidate
    /// set, consult the strategy if there is a real choice, log it.
    fn decide(st: &mut McState, strategy: &SharedScheduler) -> usize {
        let enabled: Vec<usize> = (0..st.parked.len())
            .filter(|&i| st.parked[i] && !st.retired[i])
            .collect();
        debug_assert!(!enabled.is_empty());
        let non_waiting: Vec<usize> = enabled
            .iter()
            .copied()
            .filter(|&i| !st.waiting[i])
            .collect();
        let effective = if non_waiting.is_empty() {
            enabled
        } else {
            non_waiting
        };
        if effective.len() == 1 {
            return effective[0];
        }
        let pending: Vec<PendingAccess> = effective.iter().map(|&i| st.pending[i]).collect();
        let idx = strategy
            .lock()
            .unwrap()
            .pick(&effective, &pending, st.last);
        assert!(idx < effective.len(), "scheduler picked out of range");
        st.decisions.push(idx as u8);
        effective[idx]
    }

    fn note_wait(&self, id: usize, _addr: WordAddr) {
        let mut st = self.state.lock().unwrap();
        if !st.retired[id] {
            st.waiting[id] = true;
        }
    }
}

/// Per-thread [`SchedHook`] bridging the thread-local yield points to the
/// shared [`McController`].
pub struct McHook {
    controller: Arc<McController>,
    id: usize,
    words: bool,
}

impl SchedHook for McHook {
    fn yield_point(&self, kind: AccessKind, addr: WordAddr) {
        if self.words {
            self.controller.step(self.id, kind, addr, None);
        }
    }
    fn wait_hint(&self, addr: WordAddr) {
        self.controller.note_wait(self.id, addr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mc::strategy::Replay;

    fn shared(s: impl Scheduler + 'static) -> SharedScheduler {
        Arc::new(Mutex::new(Box::new(s)))
    }

    /// Two threads, three gated accesses each: a replayed decision list
    /// produces a deterministic grant order and trace hash.
    #[test]
    fn turnstile_serializes_and_replays() {
        let run = |bytes: Vec<u8>| {
            let strategy = shared(Replay::new(bytes));
            strategy.lock().unwrap().begin_episode();
            let ctl = McController::new(2, strategy, 1000, None);
            let order = Arc::new(Mutex::new(Vec::new()));
            std::thread::scope(|s| {
                for id in 0..2usize {
                    let ctl = ctl.clone();
                    let order = order.clone();
                    s.spawn(move || {
                        let hook = ctl.hook(id, true);
                        for a in 0..3u32 {
                            hook.yield_point(AccessKind::Store, 100 + a);
                            order.lock().unwrap().push((id, a));
                        }
                        ctl.retire(id);
                    });
                }
            });
            let order = order.lock().unwrap().clone();
            (order, ctl.trace_hash(), ctl.steps())
        };
        let a = run(vec![0, 1, 0, 1]);
        let b = run(vec![0, 1, 0, 1]);
        assert_eq!(a, b, "same decisions ⇒ same order and trace");
        let c = run(vec![1, 1, 1, 1]);
        assert_ne!(a.1, c.1, "different decisions ⇒ different trace");
        assert_eq!(a.2, 6, "each access is one granted step");
    }

    /// A retired participant's accesses pass through without parking.
    #[test]
    fn retired_passthrough_never_parks() {
        let strategy = shared(Replay::new(Vec::new()));
        strategy.lock().unwrap().begin_episode();
        let ctl = McController::new(2, strategy, 1000, None);
        ctl.retire(1);
        let hook = ctl.hook(1, true);
        // Would park forever pre-fix: no peer is running to grant a turn.
        hook.yield_point(AccessKind::Store, 5);
        hook.wait_hint(5);
        assert_eq!(ctl.steps(), 0, "passthrough accesses are unrecorded");
    }

    /// Spin-wait flags exclude spinners until a write is granted.
    #[test]
    fn wait_hint_deprioritizes_spinner() {
        // Thread 1 hints a wait, then parks; thread 0 keeps running.
        // The decision log must show no ≥2-candidate decisions granted to
        // the waiting thread until thread 0's store clears the flag.
        let strategy = shared(Replay::new(vec![0, 0, 0, 0, 0, 0, 0, 0]));
        strategy.lock().unwrap().begin_episode();
        let ctl = McController::new(2, strategy, 1000, None);
        let order = Arc::new(Mutex::new(Vec::new()));
        std::thread::scope(|s| {
            {
                let ctl = ctl.clone();
                let order = order.clone();
                s.spawn(move || {
                    let hook = ctl.hook(0, true);
                    for _ in 0..3 {
                        hook.yield_point(AccessKind::Load, 1);
                        order.lock().unwrap().push(0);
                    }
                    hook.yield_point(AccessKind::Store, 2); // wakes spinner
                    order.lock().unwrap().push(0);
                    ctl.retire(0);
                });
            }
            {
                let ctl = ctl.clone();
                let order = order.clone();
                s.spawn(move || {
                    let hook = ctl.hook(1, true);
                    hook.wait_hint(2);
                    hook.yield_point(AccessKind::Load, 2);
                    order.lock().unwrap().push(1);
                    ctl.retire(1);
                });
            }
        });
        let order = order.lock().unwrap().clone();
        // Thread 1 was marked waiting before its first park, so thread 0
        // runs alone until its store; thread 1's access is granted last.
        assert_eq!(order, vec![0, 0, 0, 0, 1]);
    }

    /// The fault plan: the n-th occurrence of the point, counted across
    /// participants, panics inside the window with the typed payload and
    /// retires its victim, which then passes through ungated and
    /// unrecorded until revived.
    #[test]
    fn fault_plan_kills_the_nth_occurrence_and_retires_until_revive() {
        use gfsl_gpu_mem::MemProbe;
        let ctl = crate::chaos::controller(
            2,
            Replay::new(Vec::new()),
            Some((CrashPoint::SplitPublish, 3)),
        );
        let killed = std::thread::scope(|s| {
            let spawn = |id: usize| {
                let ctl = &ctl;
                s.spawn(move || {
                    let mut probe = ctl.probe(id);
                    let mut killed = None;
                    for _ in 0..2 {
                        let hit = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            probe.crash_point(CrashPoint::SplitPublish)
                        }));
                        if let Err(payload) = hit {
                            killed = Some(*payload.downcast::<InjectedCrash>().expect("typed"));
                            // Retired: these neither park (the peer may be
                            // gone) nor count.
                            let before = ctl.steps();
                            probe.lane_write(7);
                            probe.crash_point(CrashPoint::NextSwing);
                            assert_eq!(ctl.steps(), before, "passthrough is unrecorded");
                            probe.crash_recovered();
                        }
                    }
                    probe.lane_write(8); // revived: gated and counted again
                    killed
                })
            };
            let workers = [spawn(0), spawn(1)];
            workers.map(|w| w.join().unwrap())
        });
        // The empty script runs thread 0 to completion first: its two hits
        // are occurrences 1 and 2, thread 1's first is the third.
        let crash = InjectedCrash { point: CrashPoint::SplitPublish, occurrence: 3, participant: 1 };
        assert_eq!(killed, [None, Some(crash)]);
        let hits = ctl.crash_point_hits();
        assert_eq!(hits[CrashPoint::SplitPublish as usize], (CrashPoint::SplitPublish, 4));
        assert_eq!(hits[CrashPoint::NextSwing as usize].1, 0, "a retiree's hit is not counted");
        assert_eq!(ctl.steps(), 4 + 2, "four crash points and two revived writes");
    }

    /// What `gfsl_durable::Failpoints::Chaos` relies on: the only
    /// participant is always the one parked, so every step grants at once
    /// and the plan fires at the seeded occurrence.
    #[test]
    fn one_participant_grants_immediately() {
        use gfsl_gpu_mem::MemProbe;
        let ctl =
            crate::chaos::controller(1, Replay::new(Vec::new()), Some((CrashPoint::WalFsync, 2)));
        let mut probe = ctl.probe(0);
        probe.crash_point(CrashPoint::WalAppend);
        probe.crash_point(CrashPoint::WalFsync);
        let second = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            probe.crash_point(CrashPoint::WalFsync)
        }));
        assert!(second.unwrap_err().is::<InjectedCrash>());
        assert_eq!(ctl.steps(), 3);
        assert!(ctl.decisions().is_empty(), "one candidate is never a decision");
    }

    /// The hit table is indexed by discriminant.
    #[test]
    fn crash_point_table_is_in_discriminant_order() {
        for (i, p) in ALL_CRASH_POINTS.into_iter().enumerate() {
            assert_eq!(p as usize, i, "{p:?}");
        }
    }
}
