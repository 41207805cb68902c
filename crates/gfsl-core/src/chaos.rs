//! Deterministic fault injection for the GFSL locking protocol.
//!
//! A [`ChaosController`] is a turnstile scheduler with three facilities,
//! all replayable from a seed:
//!
//! * **Schedule control** — every memory access of every participating
//!   handle blocks until granted a turn; turns are granted only when all
//!   live participants are parked, so the interleaving is a pure function
//!   of the decision source, not of OS timing.
//! * **Delay injection** — at each named [`CrashPoint`] (the protocol's
//!   vulnerable windows: lock CAS, split publish, merge zombie-mark,
//!   next-pointer swing, down-pointer install) the controller draws a stall
//!   of 0..=[`ChaosOptions::max_stall_turns`] extra turns, handing peers
//!   scheduling opportunities exactly inside the window.
//! * **Panic injection** — [`ChaosOptions::panic_at`] kills a team at the
//!   n-th occurrence of a crash point, exercising the held-lock tracker's
//!   poisoning path ([`crate::Gfsl::is_poisoned`]).
//!
//! Decisions come either from a seeded RNG ([`ChaosOptions::seed`]) or from
//! an explicit byte script ([`ChaosOptions::script`]); scripts shrink well
//! under property testing. Every granted turn is folded into a running FNV
//! trace hash, so two runs with the same options are bit-identical iff
//! [`ChaosController::trace_hash`] matches — the replay check used by the
//! `stress --chaos` campaign.

use std::sync::{Arc, Condvar, Mutex};

use gfsl_gpu_mem::{CrashPoint, MemProbe, WordAddr};

use gfsl_rng::{fnv, SplitMix64};

/// Number of [`CrashPoint`] variants (for the hit-count table).
const CRASH_POINTS: usize = 11;

/// All crash points, in discriminant order: the six lock-protocol windows
/// (PR 1) followed by the five durability-path windows (`gfsl-durable`'s
/// WAL append/fsync and checkpoint write/rename/prune).
pub const ALL_CRASH_POINTS: [CrashPoint; CRASH_POINTS] = [
    CrashPoint::LockCas,
    CrashPoint::LockRelease,
    CrashPoint::SplitPublish,
    CrashPoint::MergeZombieMark,
    CrashPoint::NextSwing,
    CrashPoint::DownPtrInstall,
    CrashPoint::WalAppend,
    CrashPoint::WalFsync,
    CrashPoint::CkptWrite,
    CrashPoint::CkptRename,
    CrashPoint::WalPrune,
];

/// The lock-protocol subset of [`ALL_CRASH_POINTS`] — the windows the
/// in-process recovery soak and migration chaos campaigns can reach by
/// driving structure operations (the durability windows only fire inside
/// `gfsl-durable`'s WAL/checkpoint code).
pub const LOCK_CRASH_POINTS: [CrashPoint; 6] = [
    CrashPoint::LockCas,
    CrashPoint::LockRelease,
    CrashPoint::SplitPublish,
    CrashPoint::MergeZombieMark,
    CrashPoint::NextSwing,
    CrashPoint::DownPtrInstall,
];

/// The durability-path subset of [`ALL_CRASH_POINTS`] — what the
/// kill-restart soak iterates (the lock-protocol points are covered by the
/// in-process recovery soak instead).
pub const DURABILITY_CRASH_POINTS: [CrashPoint; 5] = [
    CrashPoint::WalAppend,
    CrashPoint::WalFsync,
    CrashPoint::CkptWrite,
    CrashPoint::CkptRename,
    CrashPoint::WalPrune,
];

/// Stable index of a crash point in [`ALL_CRASH_POINTS`].
pub fn crash_point_index(p: CrashPoint) -> usize {
    match p {
        CrashPoint::LockCas => 0,
        CrashPoint::LockRelease => 1,
        CrashPoint::SplitPublish => 2,
        CrashPoint::MergeZombieMark => 3,
        CrashPoint::NextSwing => 4,
        CrashPoint::DownPtrInstall => 5,
        CrashPoint::WalAppend => 6,
        CrashPoint::WalFsync => 7,
        CrashPoint::CkptWrite => 8,
        CrashPoint::CkptRename => 9,
        CrashPoint::WalPrune => 10,
    }
}

// Event codes folded into the trace hash. Accesses are 0..=4, the stall
// filler is 9, crash points are 16 + index.
const CODE_WARP_READ: u16 = 0;
const CODE_WARP_WRITE: u16 = 1;
const CODE_LANE_READ: u16 = 2;
const CODE_LANE_WRITE: u16 = 3;
const CODE_ATOMIC: u16 = 4;
const CODE_STALL: u16 = 9;

fn crash_code(p: CrashPoint) -> u16 {
    16 + crash_point_index(p) as u16
}

/// Where chaos decisions come from.
enum Decider {
    /// Seeded SplitMix64 stream.
    Rng(SplitMix64),
    /// Explicit byte script: each decision consumes one byte (`byte % bound`).
    /// An exhausted script degrades to a round-robin counter — NOT a
    /// constant — because always answering 0 would starve every thread but
    /// the first candidate, and a starved thread parked while holding a
    /// chunk lock livelocks the whole run. Round-robin keeps the schedule
    /// deterministic *and* grants every waiter infinitely often.
    Script {
        bytes: Vec<u8>,
        pos: usize,
        fallback: u32,
    },
}

impl Decider {
    fn draw(&mut self, bound: u32) -> u32 {
        debug_assert!(bound > 0);
        match self {
            Decider::Rng(rng) => (rng.next_u64() % u64::from(bound)) as u32,
            Decider::Script {
                bytes,
                pos,
                fallback,
            } => match bytes.get(*pos) {
                Some(&b) => {
                    *pos += 1;
                    u32::from(b) % bound
                }
                None => {
                    let v = *fallback % bound;
                    *fallback = fallback.wrapping_add(1);
                    v
                }
            },
        }
    }
}

/// Configuration for a [`ChaosController`].
#[derive(Debug, Clone)]
pub struct ChaosOptions {
    /// Seed for schedule and stall decisions (ignored when `script` is set).
    pub seed: u64,
    /// Explicit decision script instead of the RNG: turn selection and
    /// stall draws consume bytes in order. Deterministic and shrinkable —
    /// the property tests inject these.
    pub script: Option<Vec<u8>>,
    /// Maximum extra turns injected at a crash point (a stall of
    /// 0..=this is drawn each time one is reached).
    pub max_stall_turns: u8,
    /// Crash points where stalls apply; empty means all of them.
    pub stall_points: Vec<CrashPoint>,
    /// Kill the team that reaches the `n`-th occurrence (1-based, counted
    /// across all teams) of the crash point by panicking inside it.
    pub panic_at: Option<(CrashPoint, u64)>,
}

impl Default for ChaosOptions {
    fn default() -> ChaosOptions {
        ChaosOptions {
            seed: 0,
            script: None,
            max_stall_turns: 3,
            stall_points: Vec::new(),
            panic_at: None,
        }
    }
}

struct ChaosState {
    waiting: Vec<bool>,
    retired: Vec<bool>,
    granted: Option<usize>,
    decider: Decider,
    max_stall_turns: u8,
    stall_mask: [bool; CRASH_POINTS],
    panic_at: Option<(CrashPoint, u64)>,
    crash_hits: [u64; CRASH_POINTS],
    /// FNV-1a over the serialized (team, event) execution order.
    trace: u64,
    steps: u64,
}

impl ChaosState {
    /// Pick a waiting live thread via the decider.
    fn choose(&mut self) -> Option<usize> {
        let candidates: Vec<usize> = self
            .waiting
            .iter()
            .enumerate()
            .filter(|&(i, &w)| w && !self.retired[i])
            .map(|(i, _)| i)
            .collect();
        if candidates.is_empty() {
            None
        } else {
            let pick = self.decider.draw(candidates.len() as u32) as usize;
            Some(candidates[pick])
        }
    }

    fn record(&mut self, id: usize, code: u16) {
        // Word-wise FNV fold (NOT byte-wise): this is the shape every chaos
        // trace hash since PR 1 was recorded with, shared via gfsl-rng so it
        // cannot drift from the replay transcripts.
        self.trace = fnv::fold_word(self.trace, id as u64);
        self.trace = fnv::fold_word(self.trace, u64::from(code));
        self.steps += 1;
    }
}

/// Shared chaos scheduler; create with [`ChaosController::new`], hand one
/// [`ChaosProbe`] per worker thread, and run ordinary GFSL operations
/// through [`crate::Gfsl::handle_with`].
pub struct ChaosController {
    state: Mutex<ChaosState>,
    cv: Condvar,
}

impl ChaosController {
    /// A controller for `threads` participants.
    pub fn new(threads: usize, opts: ChaosOptions) -> Arc<ChaosController> {
        let mut stall_mask = [opts.stall_points.is_empty(); CRASH_POINTS];
        for &p in &opts.stall_points {
            stall_mask[crash_point_index(p)] = true;
        }
        let decider = match opts.script {
            Some(bytes) => Decider::Script {
                bytes,
                pos: 0,
                fallback: 0,
            },
            None => Decider::Rng(SplitMix64::new(opts.seed)),
        };
        Arc::new(ChaosController {
            state: Mutex::new(ChaosState {
                waiting: vec![false; threads],
                retired: vec![false; threads],
                granted: None,
                decider,
                max_stall_turns: opts.max_stall_turns,
                stall_mask,
                panic_at: opts.panic_at,
                crash_hits: [0; CRASH_POINTS],
                trace: fnv::OFFSET,
                steps: 0,
            }),
            cv: Condvar::new(),
        })
    }

    /// The probe for participant `id` (each id in `0..threads` must be used
    /// by exactly one thread).
    pub fn probe(self: &Arc<ChaosController>, id: usize) -> ChaosProbe {
        ChaosProbe {
            controller: self.clone(),
            id,
        }
    }

    /// Declare participant `id` finished (no further accesses). Idempotent.
    pub fn retire(&self, id: usize) {
        let mut st = self.state.lock().unwrap();
        if st.retired[id] {
            return;
        }
        st.retired[id] = true;
        st.waiting[id] = false;
        if st.granted == Some(id) {
            st.granted = None;
        }
        self.cv.notify_all();
    }

    /// Re-admit a retired participant to the turnstile. An injected panic
    /// retires its participant on the way out (see
    /// [`ChaosOptions::panic_at`]); a thread that keeps running after its
    /// panic must be revived before its next probed access, or that access
    /// would park forever waiting for a turn that is never granted to a
    /// retired participant. The containment catch site does this
    /// automatically through [`MemProbe::crash_recovered`]; calling it
    /// again is a harmless no-op.
    pub fn revive(&self, id: usize) {
        let mut st = self.state.lock().unwrap();
        st.retired[id] = false;
        st.waiting[id] = false;
        self.cv.notify_all();
    }

    /// The run's trace hash: an FNV fold of every granted turn in execution
    /// order. Equal options (seed/script + thread behavior) ⇒ equal hash;
    /// this is the replay-determinism witness.
    pub fn trace_hash(&self) -> u64 {
        self.state.lock().unwrap().trace
    }

    /// Total turns granted.
    pub fn steps(&self) -> u64 {
        self.state.lock().unwrap().steps
    }

    /// How many times each crash point was reached.
    pub fn crash_point_hits(&self) -> Vec<(CrashPoint, u64)> {
        let st = self.state.lock().unwrap();
        ALL_CRASH_POINTS
            .iter()
            .map(|&p| (p, st.crash_hits[crash_point_index(p)]))
            .collect()
    }

    /// Block until `id` is granted a turn; returns the stall drawn for a
    /// crash-point event (0 for plain accesses).
    fn step(&self, id: usize, code: u16, point: Option<CrashPoint>) -> u32 {
        let mut st = self.state.lock().unwrap();
        // Retired-participant passthrough. A participant retired by an
        // injected panic can reach another probed access *before* its
        // containment catch site revives it (any gated access in the
        // unwind/bookkeeping path) — and `choose` never picks a retired
        // participant, so parking here would wedge the whole turnstile:
        // the retiree waits for a turn that is never granted while its
        // peers spin on the lock words it still holds. Letting the access
        // through ungated keeps the run live; it is deliberately NOT folded
        // into the trace hash — an ungated access interleaves with granted
        // turns on OS timing, so recording it would break replay
        // determinism (the retiree is simply not a schedule participant
        // until revived, like the validation walk at quiescence).
        if st.retired[id] {
            return 0;
        }
        st.waiting[id] = true;
        loop {
            if st.granted == Some(id) {
                st.granted = None;
                st.waiting[id] = false;
                st.record(id, code);
                let mut stall = 0;
                if let Some(p) = point {
                    let idx = crash_point_index(p);
                    st.crash_hits[idx] += 1;
                    if let Some((pp, n)) = st.panic_at {
                        if pp == p && st.crash_hits[idx] == n {
                            // Kill this team *inside* the protocol window.
                            // Retire first and release the controller lock so
                            // peers keep being scheduled; the unwind then
                            // trips the held-lock tracker, poisoning the
                            // structure.
                            st.retired[id] = true;
                            self.cv.notify_all();
                            drop(st);
                            panic!(
                                "chaos: injected panic at {p:?} (occurrence {n}) in team {id}"
                            );
                        }
                    }
                    if st.stall_mask[idx] && st.max_stall_turns > 0 {
                        let bound = u32::from(st.max_stall_turns) + 1;
                        stall = st.decider.draw(bound);
                    }
                }
                self.cv.notify_all();
                return stall;
            }
            if st.granted.is_none() {
                let live = st.retired.iter().filter(|&&r| !r).count();
                let parked = st
                    .waiting
                    .iter()
                    .zip(&st.retired)
                    .filter(|&(&w, &r)| w && !r)
                    .count();
                if parked == live {
                    if let Some(next) = st.choose() {
                        st.granted = Some(next);
                        self.cv.notify_all();
                        if next == id {
                            continue;
                        }
                    }
                }
            }
            st = self.cv.wait(st).unwrap();
        }
    }
}

/// A [`MemProbe`] that routes every access — and every [`CrashPoint`] —
/// through its [`ChaosController`]. Dropping the probe retires the
/// participant.
pub struct ChaosProbe {
    controller: Arc<ChaosController>,
    id: usize,
}

impl ChaosProbe {
    /// Retire this participant early (dropping the probe also retires it).
    pub fn retire(&self) {
        self.controller.retire(self.id);
    }
}

impl Drop for ChaosProbe {
    fn drop(&mut self) {
        self.retire();
    }
}

impl MemProbe for ChaosProbe {
    fn warp_read(&mut self, _: &[WordAddr]) {
        self.controller.step(self.id, CODE_WARP_READ, None);
    }
    fn warp_write(&mut self, _: &[WordAddr]) {
        self.controller.step(self.id, CODE_WARP_WRITE, None);
    }
    fn lane_read(&mut self, _: WordAddr) {
        self.controller.step(self.id, CODE_LANE_READ, None);
    }
    fn lane_write(&mut self, _: WordAddr) {
        self.controller.step(self.id, CODE_LANE_WRITE, None);
    }
    fn atomic(&mut self, _: WordAddr) {
        self.controller.step(self.id, CODE_ATOMIC, None);
    }
    fn crash_point(&mut self, point: CrashPoint) {
        let stall = self.controller.step(self.id, crash_code(point), Some(point));
        for _ in 0..stall {
            self.controller.step(self.id, CODE_STALL, None);
        }
    }
    fn crash_recovered(&mut self) {
        // The injected panic retired this participant on the way out; the
        // containment layer caught it and the thread keeps running, so
        // re-admit it before its next access parks in the turnstile.
        self.controller.revive(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::GfslParams;
    use crate::skiplist::Gfsl;
    use gfsl_simt::TeamSize;

    fn chaos_run(opts: ChaosOptions) -> (u64, u64, Vec<(CrashPoint, u64)>) {
        let list = Gfsl::new(GfslParams {
            team_size: TeamSize::Sixteen,
            pool_chunks: 1 << 12,
            ..Default::default()
        })
        .unwrap();
        let ctl = ChaosController::new(2, opts);
        std::thread::scope(|s| {
            for id in 0..2 {
                let ctl = ctl.clone();
                let list = &list;
                s.spawn(move || {
                    let mut h = list.handle_with(ctl.probe(id));
                    for i in 0..40u32 {
                        let k = 1 + i * 2 + id as u32;
                        h.insert(k, k).unwrap();
                        if i % 3 == 0 {
                            h.remove(k);
                        }
                    }
                });
            }
        });
        list.assert_valid();
        (ctl.trace_hash(), ctl.steps(), ctl.crash_point_hits())
    }

    #[test]
    fn same_seed_reproduces_trace_hash() {
        let a = chaos_run(ChaosOptions {
            seed: 42,
            ..Default::default()
        });
        let b = chaos_run(ChaosOptions {
            seed: 42,
            ..Default::default()
        });
        assert_eq!(a, b, "same seed must replay the identical schedule");
        assert!(a.1 > 100, "schedule actually serialized accesses");
    }

    #[test]
    fn different_seeds_explore_different_schedules() {
        let distinct: std::collections::HashSet<u64> = (0..6u64)
            .map(|s| {
                chaos_run(ChaosOptions {
                    seed: s,
                    ..Default::default()
                })
                .0
            })
            .collect();
        assert!(distinct.len() > 2, "only {} distinct traces", distinct.len());
    }

    #[test]
    fn crash_points_are_reached() {
        let (_, _, hits) = chaos_run(ChaosOptions {
            seed: 7,
            ..Default::default()
        });
        let lock_cas = hits
            .iter()
            .find(|(p, _)| *p == CrashPoint::LockCas)
            .unwrap()
            .1;
        let publish = hits
            .iter()
            .find(|(p, _)| *p == CrashPoint::SplitPublish)
            .unwrap()
            .1;
        assert!(lock_cas > 0, "every lock acquisition passes LockCas");
        assert!(publish > 0, "enough inserts to split");
    }

    #[test]
    fn script_decider_is_deterministic_and_shrinkable() {
        let script: Vec<u8> = (0..255u8).collect();
        let a = chaos_run(ChaosOptions {
            script: Some(script.clone()),
            ..Default::default()
        });
        let b = chaos_run(ChaosOptions {
            script: Some(script),
            ..Default::default()
        });
        assert_eq!(a, b);
        // The empty script (fully shrunk) is the deterministic round-robin
        // baseline and must also replay.
        let c = chaos_run(ChaosOptions {
            script: Some(Vec::new()),
            ..Default::default()
        });
        let d = chaos_run(ChaosOptions {
            script: Some(Vec::new()),
            ..Default::default()
        });
        assert_eq!(c, d);
    }
}
