//! Graceful-degradation supervisor: the serving loop's recovery state
//! machine.
//!
//! Operations run through the structure's `try_*` entry points (the batch
//! path every server uses) are contained: crashes surface as typed
//! aborts and quarantined chunks, so the service can keep running
//! *through* a fault. The supervisor decides what
//! "keep running" means at each moment: it observes per-epoch recovery
//! signals (aborted replies, chunks repaired, quarantine depth) and walks a
//! degradation ladder
//!
//! ```text
//! Normal  →  ShedWrites  →  ReadOnly  →  Drain
//! ```
//!
//! escalating one rung per sustained-trouble window and de-escalating one
//! rung per sustained-clean window, so a single transient crash costs one
//! epoch of write shedding while a crash storm converges to read-only (and,
//! if even repair cannot keep up, to full drain) instead of a latency
//! collapse. Every transition is counted and the full degraded interval —
//! first rung up to the return to [`ServiceMode::Normal`] — is reported as
//! the *time to heal*, in the caller's clock. The edge server's workers run
//! one each, observing every epoch and every idle pass while degraded
//! (`gfsl-edge`, DESIGN §13).

use gfsl_workload::ServeOp;

/// The service's admission rung. Ordering is severity: each rung admits a
/// subset of what the previous one admits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum ServiceMode {
    /// Full service: everything is admitted.
    #[default]
    Normal,
    /// Soft backpressure: writes are shed once the intake queue is at half
    /// capacity; reads are admitted unconditionally.
    ShedWrites,
    /// Reads only: every write arrival is shed with a retry hint.
    ReadOnly,
    /// Nothing is admitted; queued requests drain and the service quiesces.
    Drain,
}

impl ServiceMode {
    /// Ladder rung as a number (`Normal` = 0 … `Drain` = 3), the form the
    /// edge's `max_mode` gauge and the escalation arithmetic use.
    pub fn severity(self) -> u8 {
        match self {
            ServiceMode::Normal => 0,
            ServiceMode::ShedWrites => 1,
            ServiceMode::ReadOnly => 2,
            ServiceMode::Drain => 3,
        }
    }

    fn from_severity(s: u8) -> ServiceMode {
        match s {
            0 => ServiceMode::Normal,
            1 => ServiceMode::ShedWrites,
            2 => ServiceMode::ReadOnly,
            _ => ServiceMode::Drain,
        }
    }

    /// Would this rung admit `op` when the intake queue holds `depth` of
    /// `cap` requests? Reads (`Get`/`Range`/`MinEntry`) ride the
    /// structure's lock-free path and stay admitted until `Drain`; writes
    /// (`Insert`/`Delete`/`PopMin`) are shed progressively.
    pub fn admits(self, op: ServeOp, depth: usize, cap: usize) -> bool {
        let write = matches!(
            op,
            ServeOp::Insert(..) | ServeOp::Delete(_) | ServeOp::PopMin
        );
        match self {
            ServiceMode::Normal => true,
            ServiceMode::ShedWrites => !write || depth < cap / 2,
            ServiceMode::ReadOnly => !write,
            ServiceMode::Drain => false,
        }
    }
}

impl std::fmt::Display for ServiceMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ServiceMode::Normal => "normal",
            ServiceMode::ShedWrites => "shed-writes",
            ServiceMode::ReadOnly => "read-only",
            ServiceMode::Drain => "drain",
        })
    }
}

/// The escalation state machine. Deterministic: the next mode is a pure
/// function of the observation stream.
#[derive(Debug)]
pub struct Supervisor {
    mode: ServiceMode,
    bad_streak: u32,
    clean_streak: u32,
    degraded_since_ns: Option<u64>,
    /// Observations with trouble before each further escalation rung.
    escalate_after: u32,
    /// Consecutive clean observations before each de-escalation rung.
    deescalate_after: u32,
    /// Mode changes so far (both directions).
    pub transitions: u64,
    /// Duration of the last completed degraded interval (first rung up to
    /// the return to `Normal`), ns of the observation clock. Zero until a
    /// full heal happened.
    pub time_to_heal_ns: u64,
}

impl Default for Supervisor {
    fn default() -> Supervisor {
        Supervisor::new(2, 2)
    }
}

impl Supervisor {
    /// A supervisor escalating one rung per `escalate_after` troubled
    /// observations and de-escalating one rung per `deescalate_after`
    /// consecutive clean ones (both clamped to at least 1). The first
    /// troubled observation always leaves `Normal` immediately.
    pub fn new(escalate_after: u32, deescalate_after: u32) -> Supervisor {
        Supervisor {
            mode: ServiceMode::Normal,
            bad_streak: 0,
            clean_streak: 0,
            degraded_since_ns: None,
            escalate_after: escalate_after.max(1),
            deescalate_after: deescalate_after.max(1),
            transitions: 0,
            time_to_heal_ns: 0,
        }
    }

    /// Current rung.
    pub fn mode(&self) -> ServiceMode {
        self.mode
    }

    /// True while the service is anywhere below full service.
    pub fn degraded(&self) -> bool {
        self.mode != ServiceMode::Normal
    }

    /// Feed one epoch's recovery signals; returns the (possibly new) mode.
    ///
    /// `faults_delta` is the fault activity since the previous call —
    /// aborted replies plus chunks the repair pass had to handle;
    /// `quarantine_depth` is the structure's quarantine depth at
    /// observation time (after the epoch's repair pass, so a depth that
    /// *stays* positive means repair is not keeping up — exactly the
    /// signal that should climb past `ShedWrites`).
    pub fn observe(&mut self, now_ns: u64, faults_delta: u64, quarantine_depth: usize) -> ServiceMode {
        let trouble = faults_delta > 0 || quarantine_depth > 0;
        if trouble {
            self.clean_streak = 0;
            self.bad_streak += 1;
            // First trouble leaves Normal at once; each further
            // `escalate_after` window climbs one rung.
            let target = 1 + (self.bad_streak - 1) / self.escalate_after;
            let target = ServiceMode::from_severity(target.min(3) as u8);
            if target > self.mode {
                self.switch(target, now_ns);
            }
        } else {
            self.bad_streak = 0;
            if self.mode != ServiceMode::Normal {
                self.clean_streak += 1;
                if self.clean_streak >= self.deescalate_after {
                    self.clean_streak = 0;
                    let down = ServiceMode::from_severity(self.mode.severity() - 1);
                    self.switch(down, now_ns);
                }
            }
        }
        self.mode
    }

    fn switch(&mut self, to: ServiceMode, now_ns: u64) {
        debug_assert_ne!(to, self.mode);
        if self.mode == ServiceMode::Normal {
            self.degraded_since_ns = Some(now_ns);
        }
        if to == ServiceMode::Normal {
            if let Some(t0) = self.degraded_since_ns.take() {
                // A heal that completes within one observation still counts
                // as a measurable interval.
                self.time_to_heal_ns = now_ns.saturating_sub(t0).max(1);
            }
        }
        self.mode = to;
        self.transitions += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_fault_costs_one_rung_then_heals() {
        let mut sup = Supervisor::default();
        assert_eq!(sup.observe(100, 1, 0), ServiceMode::ShedWrites);
        assert_eq!(sup.observe(200, 0, 0), ServiceMode::ShedWrites);
        assert_eq!(sup.observe(300, 0, 0), ServiceMode::Normal);
        assert_eq!(sup.transitions, 2);
        assert_eq!(sup.time_to_heal_ns, 200);
        assert!(!sup.degraded());
    }

    #[test]
    fn sustained_trouble_climbs_the_whole_ladder() {
        let mut sup = Supervisor::new(2, 2);
        let mut seen = Vec::new();
        for i in 0..8u64 {
            seen.push(sup.observe(i * 100, 0, 5));
        }
        assert_eq!(seen[0], ServiceMode::ShedWrites);
        assert!(seen.contains(&ServiceMode::ReadOnly));
        assert_eq!(*seen.last().unwrap(), ServiceMode::Drain);
        assert!(seen.windows(2).all(|w| w[0] <= w[1]), "monotone climb: {seen:?}");
    }

    #[test]
    fn deescalation_steps_down_one_rung_per_clean_window() {
        let mut sup = Supervisor::new(1, 2);
        for i in 0..6u64 {
            sup.observe(i, 3, 1);
        }
        assert_eq!(sup.mode(), ServiceMode::Drain);
        let mut t = 100u64;
        let mut modes = Vec::new();
        while sup.degraded() {
            t += 100;
            modes.push(sup.observe(t, 0, 0));
            assert!(modes.len() < 32, "must converge to Normal: {modes:?}");
        }
        assert!(modes.windows(2).all(|w| w[0] >= w[1]), "monotone descent: {modes:?}");
        assert!(sup.time_to_heal_ns > 0);
    }

    #[test]
    fn trouble_mid_descent_restarts_the_climb() {
        let mut sup = Supervisor::new(1, 1);
        sup.observe(0, 1, 0); // ShedWrites
        sup.observe(1, 1, 0); // ReadOnly
        sup.observe(2, 0, 0); // back to ShedWrites
        assert_eq!(sup.mode(), ServiceMode::ShedWrites);
        assert_eq!(sup.observe(3, 0, 1), ServiceMode::ShedWrites, "rung held, streak reset");
        assert_eq!(sup.observe(4, 0, 1), ServiceMode::ReadOnly);
    }

    #[test]
    fn admission_matrix_matches_the_ladder() {
        let w = ServeOp::Insert(1, 1);
        let d = ServeOp::Delete(1);
        let r = ServeOp::Get(1);
        let q = ServeOp::Range(1, 9);
        assert!(ServiceMode::Normal.admits(w, 99, 100));
        assert!(ServiceMode::ShedWrites.admits(w, 10, 100), "half-empty queue admits writes");
        assert!(!ServiceMode::ShedWrites.admits(w, 60, 100), "half-full queue sheds writes");
        assert!(ServiceMode::ShedWrites.admits(r, 99, 100));
        assert!(!ServiceMode::ReadOnly.admits(w, 0, 100));
        assert!(!ServiceMode::ReadOnly.admits(d, 0, 100));
        assert!(ServiceMode::ReadOnly.admits(q, 99, 100));
        assert!(!ServiceMode::Drain.admits(r, 0, 100));
        // Min ops: the peek is a read, the pop removes and is a write.
        assert!(ServiceMode::ReadOnly.admits(ServeOp::MinEntry, 99, 100));
        assert!(!ServiceMode::ReadOnly.admits(ServeOp::PopMin, 0, 100));
        assert!(!ServiceMode::ShedWrites.admits(ServeOp::PopMin, 60, 100));
    }
}
