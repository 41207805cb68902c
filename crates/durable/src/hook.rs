//! Failpoint plumbing: how the durability path joins the chaos harness.
//!
//! Every vulnerable instant in the WAL/checkpoint protocol calls
//! [`Failpoints::hit`] with its named [`CrashPoint`] — mid-append (torn
//! tail), pre-fsync, per checkpoint page, pre-rename, pre-prune. In
//! production ([`Failpoints::Off`]) the call is a no-op that inlines away;
//! under the kill-restart soak a [`ChaosProbe`] sits behind it, so the
//! fault plan of the one schedule turnstile (`gfsl::McController`:
//! occurrence counting, recorded decisions, trace hashing) — the one that
//! drives every other soak in this repo — kills the process-under-test at
//! exactly the chosen window.

use gfsl::chaos::ChaosProbe;
use gfsl::{CrashPoint, MemProbe};

/// Where the durability path's crash points report to.
#[derive(Default)]
pub enum Failpoints {
    /// Production: every hit is free.
    #[default]
    Off,
    /// Chaos campaign: hits route to a [`ChaosProbe`], whose controller
    /// panics per its fault plan. Use a 1-participant controller for the
    /// single-threaded durable path — its only participant is always the
    /// one parked, so every turn grants immediately and `panic_at` fires
    /// at the chosen occurrence.
    Chaos(ChaosProbe),
}

impl Failpoints {
    /// Report reaching `point`. May panic (injected kill) under chaos.
    #[inline]
    pub fn hit(&mut self, point: CrashPoint) {
        if let Failpoints::Chaos(probe) = self {
            probe.crash_point(point);
        }
    }
}

impl std::fmt::Debug for Failpoints {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Failpoints::Off => "Failpoints::Off",
            Failpoints::Chaos(_) => "Failpoints::Chaos(..)",
        })
    }
}
