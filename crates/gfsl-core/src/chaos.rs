//! Fault injection for the GFSL locking and durability protocols.
//!
//! The fault model is the named [`CrashPoint`] windows (lock CAS and
//! release, split publish, merge zombie-mark, next-pointer swing,
//! down-pointer install, level-head publish, and `gfsl-durable`'s WAL /
//! checkpoint windows), a
//! fault plan that kills whoever reaches the n-th occurrence of one of them
//! (`panic_at`, see [`controller`]) and a `try_*` entry point's containment
//! catching that kill. The schedule is not this module's: a
//! fault-injection run is a [`McController`] run whose participants gate
//! once per [`MemProbe`] event — [`ChaosProbe`] is that adapter — so a
//! seeded run takes [`RandomWalk`](crate::mc::strategy::RandomWalk), a
//! scripted one [`Replay`](crate::mc::strategy::Replay), and either way the
//! controller records the decision bytes that replay the run and that
//! [`ddmin`](crate::mc::minimize::ddmin) shrinks.

use std::sync::Arc;

use gfsl_gpu_mem::schedule::{self, AccessKind, HookGuard};
use gfsl_gpu_mem::{CrashPoint, MemProbe, WordAddr};

use crate::mc::controller::{one_episode, McController};
use crate::mc::strategy::Scheduler;

/// All crash points, in discriminant order (the controller's hit table is
/// indexed by `point as usize`): the seven lock-protocol windows, then the
/// five durability-path windows.
pub const ALL_CRASH_POINTS: [CrashPoint; 12] = [
    CrashPoint::LockCas,
    CrashPoint::LockRelease,
    CrashPoint::SplitPublish,
    CrashPoint::MergeZombieMark,
    CrashPoint::NextSwing,
    CrashPoint::DownPtrInstall,
    CrashPoint::HeadPublish,
    CrashPoint::WalAppend,
    CrashPoint::WalFsync,
    CrashPoint::CkptWrite,
    CrashPoint::CkptRename,
    CrashPoint::WalPrune,
];

/// The lock-protocol windows: what the in-process recovery soak and the
/// migration campaign reach by driving structure operations.
pub const LOCK_CRASH_POINTS: &[CrashPoint] = ALL_CRASH_POINTS.split_at(7).0;

/// The durability-path windows, which fire only inside `gfsl-durable`'s
/// WAL / checkpoint code: what the kill-restart soaks iterate.
pub const DURABILITY_CRASH_POINTS: &[CrashPoint] = ALL_CRASH_POINTS.split_at(7).1;

/// Base of the synthetic addresses crash-point steps report (`| point`).
const SYNTH_CRASH_BASE: WordAddr = 0xFFFF_FF00;

/// Granted-step bound of a fault-injection run. The soaks' runs grant a few
/// thousand steps (12k the longest), so a run that reaches this is wedged;
/// the bomb says so in about a second, which is what lets ddmin afford
/// candidate schedules that livelock.
pub const MAX_STEPS: u64 = 1 << 18;

/// The controller of one fault-injection run: `threads` participants
/// scheduled by one episode of `strategy`, killed per `panic_at`.
pub fn controller(
    threads: usize,
    strategy: impl Scheduler + 'static,
    panic_at: Option<(CrashPoint, u64)>,
) -> Arc<McController> {
    McController::new(threads, one_episode(strategy), MAX_STEPS, panic_at)
}

impl McController {
    /// The probe-granularity adapter for participant `id` (each id in
    /// `0..threads` is used by one thread at a time).
    pub fn probe(self: &Arc<McController>, id: usize) -> ChaosProbe {
        ChaosProbe { controller: self.clone(), id, hints: None }
    }
}

/// A [`MemProbe`] whose every event — and every [`CrashPoint`] — is one
/// step on its [`McController`]. Dropping the probe retires the participant.
///
/// The thread that first gates through a probe also registers, for the
/// probe's lifetime, the [`schedule::SchedHook`] that carries the engine's
/// `wait_hint`s to the controller; that thread must be the one to drop it.
pub struct ChaosProbe {
    controller: Arc<McController>,
    id: usize,
    hints: Option<HookGuard>,
}

impl ChaosProbe {
    fn gate(&mut self, kind: AccessKind, addr: WordAddr, point: Option<CrashPoint>) {
        if self.hints.is_none() && !schedule::hooked() {
            self.hints = Some(schedule::register(self.controller.hook(self.id, false)));
        }
        self.controller.step(self.id, kind, addr, point);
    }
}

impl Drop for ChaosProbe {
    fn drop(&mut self) {
        self.controller.retire(self.id);
    }
}

impl MemProbe for ChaosProbe {
    fn warp_read(&mut self, addrs: &[WordAddr]) {
        self.gate(AccessKind::Load, addrs.first().copied().unwrap_or(0), None);
    }
    fn warp_write(&mut self, addrs: &[WordAddr]) {
        self.gate(AccessKind::Store, addrs.first().copied().unwrap_or(0), None);
    }
    fn lane_read(&mut self, addr: WordAddr) {
        self.gate(AccessKind::Load, addr, None);
    }
    fn lane_write(&mut self, addr: WordAddr) {
        self.gate(AccessKind::Store, addr, None);
    }
    fn atomic(&mut self, addr: WordAddr) {
        self.gate(AccessKind::Rmw, addr, None);
    }
    fn crash_point(&mut self, point: CrashPoint) {
        // A yield inside the window: whoever the strategy picks next runs
        // there. A load, so it wakes no spinner.
        self.gate(AccessKind::Load, SYNTH_CRASH_BASE | point as WordAddr, Some(point));
    }
    fn crash_recovered(&mut self) {
        // The fault plan retired this participant on its way out; the
        // containment layer caught the kill and the thread runs on.
        self.controller.revive(self.id);
    }
}
