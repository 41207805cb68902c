//! Exploration strategies: how the model checker chooses schedules.
//!
//! A [`Scheduler`] sees the stream of *decision points* the
//! [`super::controller::McController`] surfaces — moments where two or
//! more runnable threads are parked and one must be granted the next
//! access — and answers with a candidate index. Three strategies:
//!
//! * [`RandomWalk`] — a seeded uniform pick per decision; what every
//!   seeded fault-injection run takes (every walked schedule is
//!   automatically a byte-script counterexample if it fails, because the
//!   controller records every decision).
//! * [`Replay`] — a single episode driven by a recorded decision byte
//!   list; exhausted bytes fall back to the [`default_index`] policy,
//!   which is what makes ddmin-shortened prefixes replayable.
//! * [`DfsBounded`] — bounded-exhaustive depth-first enumeration with a
//!   *preemption bound* (CHESS-style: schedules that preempt a runnable
//!   thread more than `bound` times are pruned — empirically almost all
//!   concurrency bugs need very few preemptions) and optional
//!   partial-order-reduction pruning keyed on (address, access-kind)
//!   independence.
//!
//! All strategies share one default policy so prefixes mean the same
//! thing everywhere: *continue the last-run thread if it is a candidate,
//! else the lowest-id candidate*. Non-preemptive continuations are free;
//! only departures from the default at a point where the last thread was
//! still runnable count against the preemption budget.

use gfsl_gpu_mem::schedule::AccessKind;
use gfsl_gpu_mem::WordAddr;
use gfsl_rng::SplitMix64;

/// The access a parked thread will perform when granted its turn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingAccess {
    /// Load / Store / Rmw.
    pub kind: AccessKind,
    /// Logical word address (pool index or reserved synthetic address).
    pub addr: WordAddr,
}

impl PendingAccess {
    /// Two pending accesses conflict iff they touch the same address and
    /// are not both loads — the (address, access-kind) independence rule.
    #[inline]
    pub fn conflicts_with(&self, other: &PendingAccess) -> bool {
        self.addr == other.addr && !self.kind.independent_with(other.kind)
    }
}

/// The shared default policy: continue `last` if it is a candidate, else
/// take the lowest-id candidate. Returns an index into `candidates`.
#[inline]
pub fn default_index(candidates: &[usize], last: Option<usize>) -> usize {
    last.and_then(|l| candidates.iter().position(|&c| c == l))
        .unwrap_or(0)
}

/// A schedule-exploration strategy (see module docs).
///
/// The contract: `begin_episode` is called before each episode (false =
/// exploration finished); during the episode `pick` is called once per
/// decision point with the candidate thread ids (sorted ascending), each
/// candidate's pending access, and the thread granted the previous step;
/// `end_episode` is called after teardown. The structure run under the
/// controller is deterministic, so a strategy replaying a previous
/// episode's choices sees the identical decision-point sequence.
pub trait Scheduler: Send {
    /// Prepare the next episode. `false` ends exploration.
    fn begin_episode(&mut self) -> bool;
    /// Choose a candidate index at a decision point.
    fn pick(
        &mut self,
        candidates: &[usize],
        pending: &[PendingAccess],
        last: Option<usize>,
    ) -> usize;
    /// Called once per *granted* access, in grant order — including the
    /// single-candidate fast-path grants that never reach [`Self::pick`].
    /// [`DfsBounded`] builds its per-episode access log from this for
    /// delayed-conflict POR pruning; other strategies ignore it.
    fn observe(&mut self, _thread: usize, _access: PendingAccess) {}
    /// Episode finished (teardown checks already ran).
    fn end_episode(&mut self) {}
    /// True if exploration ended because a cap was hit rather than the
    /// space being exhausted (reported in the stats artifact — a silent
    /// cap would read as "explored everything").
    fn truncated(&self) -> bool {
        false
    }
}

/// Seeded uniform random walk over `episodes` schedules.
pub struct RandomWalk {
    rng: SplitMix64,
    remaining: u64,
}

impl RandomWalk {
    /// `episodes` seeded walks from `seed`.
    pub fn new(seed: u64, episodes: u64) -> RandomWalk {
        RandomWalk {
            rng: SplitMix64::new(seed),
            remaining: episodes,
        }
    }
}

impl Scheduler for RandomWalk {
    fn begin_episode(&mut self) -> bool {
        if self.remaining == 0 {
            return false;
        }
        self.remaining -= 1;
        true
    }

    fn pick(&mut self, candidates: &[usize], _: &[PendingAccess], _: Option<usize>) -> usize {
        self.rng.below(candidates.len() as u64) as usize
    }
}

/// Replay one episode from a recorded decision byte list.
pub struct Replay {
    bytes: Vec<u8>,
    pos: usize,
    ran: bool,
}

impl Replay {
    /// Replay `bytes` (one byte per decision point, `byte % candidates`).
    pub fn new(bytes: Vec<u8>) -> Replay {
        Replay {
            bytes,
            pos: 0,
            ran: false,
        }
    }
}

impl Scheduler for Replay {
    fn begin_episode(&mut self) -> bool {
        if self.ran {
            return false;
        }
        self.ran = true;
        self.pos = 0;
        true
    }

    fn pick(&mut self, candidates: &[usize], _: &[PendingAccess], last: Option<usize>) -> usize {
        match self.bytes.get(self.pos) {
            Some(&b) => {
                self.pos += 1;
                b as usize % candidates.len()
            }
            None => default_index(candidates, last),
        }
    }
}

/// One decision point on the DFS path.
struct Node {
    /// Candidate thread ids (ascending).
    candidates: Vec<usize>,
    /// Pending access of each candidate.
    pending: Vec<PendingAccess>,
    /// Thread granted the step before this decision.
    last: Option<usize>,
    /// Index currently chosen for this episode.
    chosen: usize,
    /// Index chosen on the node's *first* visit (alternatives equal to it
    /// are never POR-pruned).
    first_chosen: usize,
    /// Candidate indexes already explored from this node.
    tried: Vec<bool>,
    /// Preemptions spent on the path strictly above this node.
    preemptions_before: u32,
    /// Length of the access log when this decision was made: the chosen
    /// access lands at exactly this log position, so `log[log_pos..]` is
    /// "everything that happened from this node onward" in any episode
    /// sharing the prefix (determinism makes the prefix log identical).
    log_pos: usize,
}

impl Node {
    /// Is picking `idx` here a preemption (switching away from a
    /// still-runnable last thread)?
    fn is_preempt(&self, idx: usize) -> bool {
        match self.last {
            Some(l) => self.candidates.contains(&l) && self.candidates[idx] != l,
            None => false,
        }
    }
}

/// Bounded-exhaustive DFS with a preemption bound and optional POR pruning.
pub struct DfsBounded {
    /// Maximum preemptions per schedule.
    bound: u32,
    /// Delayed-conflict POR pruning (see [`DfsBounded::admissible_por`]).
    por: bool,
    path: Vec<Node>,
    depth: usize,
    cur_preemptions: u32,
    exhausted: bool,
    /// Granted accesses of the episode in progress (or just finished), in
    /// grant order — rebuilt identically over shared prefixes by
    /// determinism, so node `log_pos` indexes stay valid across episodes.
    log: Vec<(usize, PendingAccess)>,
    /// Hard cap on episodes (safety valve for misjudged configs); 0 = none.
    max_episodes: u64,
    episodes: u64,
    hit_cap: bool,
}

impl DfsBounded {
    /// Exhaustive search at `bound` preemptions; `por` enables
    /// independence pruning; `max_episodes` caps runaway spaces (0 = no
    /// cap) and sets [`Scheduler::truncated`] when hit.
    pub fn new(bound: u32, por: bool, max_episodes: u64) -> DfsBounded {
        DfsBounded {
            bound,
            por,
            path: Vec::new(),
            depth: 0,
            cur_preemptions: 0,
            exhausted: false,
            log: Vec::new(),
            max_episodes,
            episodes: 0,
            hit_cap: false,
        }
    }

    /// Delayed-conflict POR admissibility of alternative `idx` at `node`:
    /// explore it iff
    ///
    /// * its thread has not run before this node (its pending access is
    ///   its episode entry; the future behind it is entirely unexplored,
    ///   so there is nothing to prove commutativity against), or
    /// * its pending access *conflicts* (same address, not both loads)
    ///   with some access another thread performed **from this node
    ///   onward** in the episode just executed.
    ///
    /// Otherwise the swap commutes with everything it would be reordered
    /// against in the observed trace and the alternative is pruned. This
    /// consults one executed trace rather than tracking happens-before
    /// and sleep sets, so it is a pruning *heuristic* in the spirit of
    /// DPOR's backtrack-set rule, not sound stateless-model-checking POR
    /// — see DESIGN.md §18 for the argument and its known blind spots.
    fn admissible_por(&self, node: &Node, idx: usize) -> bool {
        let thread = node.candidates[idx];
        let started = self.log[..node.log_pos].iter().any(|&(t, _)| t == thread);
        if !started {
            return true;
        }
        let pending = &node.pending[idx];
        self.log[node.log_pos..]
            .iter()
            .any(|(t, a)| *t != thread && pending.conflicts_with(a))
    }

    /// Find the deepest node with an admissible untried alternative, set
    /// it, and truncate the path below it. Sets `exhausted` if none.
    fn backtrack(&mut self) {
        while let Some(node) = self.path.last() {
            let mut found = None;
            for idx in 0..node.candidates.len() {
                if node.tried[idx] {
                    continue;
                }
                if node.is_preempt(idx) && node.preemptions_before >= self.bound {
                    continue;
                }
                if self.por && idx != node.first_chosen && !self.admissible_por(node, idx) {
                    continue;
                }
                found = Some(idx);
                break;
            }
            match found {
                Some(idx) => {
                    let node = self.path.last_mut().expect("node exists");
                    node.tried[idx] = true;
                    node.chosen = idx;
                    return;
                }
                None => {
                    self.path.pop();
                }
            }
        }
        self.exhausted = true;
    }
}

impl Scheduler for DfsBounded {
    fn begin_episode(&mut self) -> bool {
        if self.exhausted {
            return false;
        }
        if self.max_episodes > 0 && self.episodes >= self.max_episodes {
            self.hit_cap = true;
            return false;
        }
        self.episodes += 1;
        self.depth = 0;
        self.cur_preemptions = 0;
        // Rebuilt from observe(); the shared prefix reproduces the same
        // grants, so node log positions recorded earlier stay valid.
        self.log.clear();
        true
    }

    fn pick(
        &mut self,
        candidates: &[usize],
        pending: &[PendingAccess],
        last: Option<usize>,
    ) -> usize {
        let d = self.depth;
        self.depth += 1;
        if d < self.path.len() {
            let node = &self.path[d];
            debug_assert_eq!(
                node.candidates, candidates,
                "nondeterministic episode: decision point {d} changed candidates"
            );
            if node.is_preempt(node.chosen) {
                self.cur_preemptions += 1;
            }
            return node.chosen;
        }
        // Past the planned prefix: extend with the default policy.
        let chosen = default_index(candidates, last);
        let node = Node {
            candidates: candidates.to_vec(),
            pending: pending.to_vec(),
            last,
            chosen,
            first_chosen: chosen,
            tried: {
                let mut t = vec![false; candidates.len()];
                t[chosen] = true;
                t
            },
            preemptions_before: self.cur_preemptions,
            log_pos: self.log.len(),
        };
        if node.is_preempt(chosen) {
            self.cur_preemptions += 1;
        }
        self.path.push(node);
        chosen
    }

    fn observe(&mut self, thread: usize, access: PendingAccess) {
        self.log.push((thread, access));
    }

    fn end_episode(&mut self) {
        self.backtrack();
    }

    fn truncated(&self) -> bool {
        self.hit_cap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pa(kind: AccessKind, addr: WordAddr) -> PendingAccess {
        PendingAccess { kind, addr }
    }

    #[test]
    fn conflict_rule() {
        assert!(!pa(AccessKind::Load, 1).conflicts_with(&pa(AccessKind::Load, 1)));
        assert!(pa(AccessKind::Load, 1).conflicts_with(&pa(AccessKind::Store, 1)));
        assert!(!pa(AccessKind::Store, 1).conflicts_with(&pa(AccessKind::Store, 2)));
        assert!(pa(AccessKind::Rmw, 3).conflicts_with(&pa(AccessKind::Rmw, 3)));
    }

    #[test]
    fn default_policy_continues_last() {
        assert_eq!(default_index(&[0, 1], Some(1)), 1);
        assert_eq!(default_index(&[0, 1], Some(2)), 0);
        assert_eq!(default_index(&[0, 1], None), 0);
    }

    /// Drive a DFS over a synthetic 2-thread space where every decision
    /// point offers both threads with conflicting accesses: bound-1 DFS
    /// must enumerate the non-preemptive schedule plus one schedule per
    /// possible single preemption point.
    #[test]
    fn dfs_bound1_counts_single_preemption_schedules() {
        let steps = 4usize; // decision points per episode
        let mut dfs = DfsBounded::new(1, false, 0);
        let mut schedules = Vec::new();
        while dfs.begin_episode() {
            let mut picks = Vec::new();
            for _ in 0..steps {
                let p = dfs.pick(
                    &[0, 1],
                    &[pa(AccessKind::Store, 7), pa(AccessKind::Store, 7)],
                    Some(0),
                );
                picks.push(p);
            }
            dfs.end_episode();
            schedules.push(picks);
        }
        // Default (all thread 0) + one preemption at each of 4 points.
        // A preemption at point i flips the choice at i to thread 1; the
        // default policy then continues thread 1 afterwards... but `last`
        // is fixed to 0 in this synthetic driver, so the suffix returns
        // to 0. Either way: 1 + 4 distinct schedules.
        assert_eq!(schedules.len(), 1 + steps);
        let unique: std::collections::HashSet<_> = schedules.iter().collect();
        assert_eq!(unique.len(), schedules.len(), "no duplicate schedules");
    }

    /// POR pruning: once both threads have started, alternatives whose
    /// pending access conflicts with nothing later in the executed trace
    /// are pruned — independent loads leave exactly one schedule.
    #[test]
    fn dfs_por_prunes_independent_branches() {
        let run = |kind: AccessKind| {
            let mut dfs = DfsBounded::new(2, true, 0);
            let mut episodes = 0;
            while dfs.begin_episode() {
                // Both threads' entry accesses: they have "started", so
                // the never-started rule does not bypass pruning.
                dfs.observe(0, pa(AccessKind::Load, 8));
                dfs.observe(1, pa(AccessKind::Load, 9));
                for _ in 0..6 {
                    let p = dfs.pick(&[0, 1], &[pa(kind, 1), pa(kind, 1)], Some(0));
                    dfs.observe(p, pa(kind, 1));
                }
                dfs.end_episode();
                episodes += 1;
            }
            episodes
        };
        assert_eq!(
            run(AccessKind::Load),
            1,
            "independent accesses: nothing to reorder"
        );
        assert!(run(AccessKind::Store) > 1, "conflicting stores branch");
    }

    /// The never-started rule: a thread that has not run before a node
    /// has an entirely unexplored future, so its entry access is never
    /// pruned even when it conflicts with nothing observed.
    #[test]
    fn dfs_por_never_prunes_unstarted_threads() {
        let mut dfs = DfsBounded::new(2, true, 0);
        let mut episodes = 0;
        while dfs.begin_episode() {
            for _ in 0..3 {
                let p = dfs.pick(
                    &[0, 1],
                    &[pa(AccessKind::Load, 1), pa(AccessKind::Load, 2)],
                    Some(0),
                );
                dfs.observe(p, [pa(AccessKind::Load, 1), pa(AccessKind::Load, 2)][p]);
            }
            dfs.end_episode();
            episodes += 1;
        }
        // Default episode + one "thread 1 enters here" branch per node;
        // inside those branches thread 1 has started and its independent
        // loads prune everything deeper.
        assert_eq!(episodes, 4);
    }

    #[test]
    fn episode_cap_reports_truncation() {
        let mut dfs = DfsBounded::new(2, false, 3);
        let mut episodes = 0;
        while dfs.begin_episode() {
            for _ in 0..8 {
                dfs.pick(
                    &[0, 1],
                    &[pa(AccessKind::Store, 1), pa(AccessKind::Store, 1)],
                    Some(0),
                );
            }
            dfs.end_episode();
            episodes += 1;
        }
        assert_eq!(episodes, 3);
        assert!(dfs.truncated());
    }

    #[test]
    fn replay_consumes_bytes_then_defaults() {
        let mut r = Replay::new(vec![1, 0]);
        assert!(r.begin_episode());
        assert_eq!(r.pick(&[0, 1], &[], Some(0)), 1);
        assert_eq!(r.pick(&[0, 1], &[], Some(1)), 0);
        // Bytes exhausted: default policy.
        assert_eq!(r.pick(&[0, 1], &[], Some(1)), 1);
        assert!(!r.begin_episode(), "replay is a single episode");
    }

    #[test]
    fn random_walk_is_seeded_and_bounded() {
        let run = |seed| {
            let mut w = RandomWalk::new(seed, 3);
            let mut picks = Vec::new();
            while w.begin_episode() {
                for _ in 0..10 {
                    picks.push(w.pick(&[0, 1, 2], &[], None));
                }
            }
            picks
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
        assert_eq!(run(9).len(), 30);
    }
}
