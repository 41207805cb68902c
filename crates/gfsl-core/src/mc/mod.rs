//! Schedule-exploring model checker for the GFSL lock protocol.
//!
//! The fault-injection soaks ([`crate::chaos`]) *sample* interleavings from
//! seeded randomness; this module *enumerates* them, on the same turnstile.
//! Every `WordPool` atomic access (in `sched` builds of `gfsl-gpu-mem`) and
//! every explicit gate (the mvcc version fence's acquisitions, the episode
//! start gate) is a yield point parked in a [`controller::McController`]; a
//! [`strategy::Scheduler`] decides, at each point where two or more threads
//! could run, which one does. Three strategies: seeded
//! [`strategy::RandomWalk`], [`strategy::Replay`] of a recorded decision
//! list, and [`strategy::DfsBounded`] — bounded-exhaustive DFS with a
//! preemption bound and optional partial-order pruning.
//!
//! An **episode** is one complete run of a small configuration
//! ([`McConfig`]): build a fresh structure, prefill it, run each thread's
//! scripted ops under the turnstile, then check at quiescence —
//!
//! * full structure validation ([`crate::skiplist::Gfsl::validate`],
//!   whose `quiescent-unlocked` rule is also the leaked-lock-word check),
//! * per-key linearizability of the recorded history (PR 1's checker),
//! * no worker panics (protocol asserts, the livelock step bomb).
//!
//! Any failure is a **counterexample**: the episode's decision byte list,
//! ddmin-minimized ([`minimize::ddmin`]) and stamped with the trace hash,
//! printable as a one-line `<trace-hash>:<decision-hex>` spec that
//! `stress --schedule` replays from the CLI.
//!
//! Determinism is the load-bearing property: with all live threads parked
//! between grants, everything a thread does between two yield points —
//! history-clock ticks, handle construction, non-pool atomics — runs
//! while its peers are parked, so an episode is a pure function of the
//! decision list. The DFS's prefix replay and ddmin both rest on this.

pub mod configs;
pub mod controller;
pub mod minimize;
pub mod strategy;

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

use gfsl_gpu_mem::schedule::{self, AccessKind, SchedHook};
use gfsl_gpu_mem::NoProbe;

use crate::history::{check_linearizable, HistoryClock, OpAction, OpRecord, Recorder};
use crate::params::GfslParams;
use crate::skiplist::{Gfsl, GfslHandle};

use controller::{one_episode, McController, SharedScheduler, SYNTH_START};
use minimize::ddmin;
use strategy::{Replay, Scheduler};

/// One scripted client operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum McOp {
    /// `insert(k, v)`.
    Insert(u32, u32),
    /// `remove(k)`.
    Remove(u32),
    /// `remove(k)` by a team that dies between committing its merges and
    /// repairing the down-pointers of the keys they moved (the repair is
    /// best-effort, so that is a legal state): a setup script's way to
    /// leave an index entry pointing at the chunk a merge just killed.
    RemoveUnrepaired(u32),
    /// `get(k)`.
    Get(u32),
    /// `snap_get(k)`: pin a version, read `k` at it, release. Drives the
    /// mvcc publish/pin/resolve protocol; recorded as a plain get (a
    /// single-key snapshot read has get semantics).
    SnapGet(u32),
    /// One reclamation pass ([`crate::GfslHandle::reclaim_pass`]); leaves
    /// no history record.
    ReclaimPass,
    /// A reclamation pass with a reader in flight: a second handle of the
    /// same structure stays pinned across it, so the pass's first epoch
    /// advance goes through and its second does not — what it leaves in
    /// limbo is one advance short of its grace.
    StalledReclaimPass,
}

/// A model-check configuration: a small, fully scripted concurrent run.
#[derive(Debug, Clone)]
pub struct McConfig {
    /// Registry name (`stress --modelcheck <name>`).
    pub name: &'static str,
    /// What the configuration exercises (printed in reports).
    pub about: &'static str,
    /// The structure's parameters. Pool accesses are the yield points:
    /// exploring needs the `sched` feature on `gfsl-gpu-mem`.
    pub params: GfslParams,
    /// Keys inserted, in this order, before the scripted ops run.
    pub prefill: Vec<(u32, u32)>,
    /// Script the building handle runs after the prefill, before any
    /// thread starts: an episode can start from an index that deletes have
    /// thinned, or with the reclamation pipeline in a chosen state. Inserts
    /// and removes in it must succeed.
    pub setup: Vec<McOp>,
    /// Per-thread operation scripts (`threads.len()` participants).
    pub threads: Vec<Vec<McOp>>,
    /// Per-episode granted-step bound (livelock bomb). 0 = unbounded.
    pub max_steps: u64,
}

impl McConfig {
    /// The structure an episode's scripted ops start from: `prefill`
    /// inserted in order, then `setup` run.
    pub(crate) fn build(&self) -> Gfsl {
        let list = Gfsl::new(self.params).expect("mc: structure construction");
        let mut h = list.handle_with(NoProbe);
        for &(k, v) in &self.prefill {
            assert_eq!(h.insert(k, v), Ok(true), "mc: prefill dup {k}");
        }
        for &op in &self.setup {
            let failed = matches!(
                apply(&mut h, op),
                Some((_, OpAction::Insert { ok: false, .. } | OpAction::Remove { ok: false }))
            );
            assert!(!failed, "mc: setup {op:?} failed");
        }
        drop(h);
        list
    }

    /// The key/value state the threads' history starts from.
    fn initial_state(&self) -> HashMap<u32, u32> {
        let mut state: HashMap<u32, u32> = self.prefill.iter().copied().collect();
        for op in &self.setup {
            match *op {
                McOp::Insert(k, v) => drop(state.insert(k, v)),
                McOp::Remove(k) | McOp::RemoveUnrepaired(k) => drop(state.remove(&k)),
                _ => {}
            }
        }
        state
    }
}

/// The outcome of one episode.
#[derive(Debug)]
pub struct EpisodeOutcome {
    /// `Some(description)` if any teardown check failed.
    pub failure: Option<String>,
    /// Decision byte log (replayable via [`strategy::Replay`]).
    pub decisions: Vec<u8>,
    /// Trace hash of the episode.
    pub trace: u64,
    /// Granted turns.
    pub steps: u64,
}

/// A minimized, replayable failing schedule.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// What check failed and how.
    pub description: String,
    /// Trace hash of the *minimized* episode.
    pub trace: u64,
    /// Minimized decision bytes.
    pub decisions: Vec<u8>,
}

impl Counterexample {
    /// One-line replayable spec: `<trace-hash-hex>:<decision-hex>`.
    pub fn spec(&self) -> String {
        format_spec(self.trace, &self.decisions)
    }
}

/// Format a `<trace-hash-hex>:<decision-hex>` schedule spec.
pub fn format_spec(trace: u64, decisions: &[u8]) -> String {
    let hex: String = decisions.iter().map(|b| format!("{b:02x}")).collect();
    format!("{trace:016x}:{hex}")
}

/// Parse a schedule spec produced by [`format_spec`].
pub fn parse_spec(s: &str) -> Result<(u64, Vec<u8>), String> {
    let (hash, hex) = s
        .split_once(':')
        .ok_or_else(|| format!("schedule spec `{s}` is not <trace-hash>:<decision-hex>"))?;
    let trace =
        u64::from_str_radix(hash, 16).map_err(|e| format!("bad trace hash `{hash}`: {e}"))?;
    if hex.len() % 2 != 0 {
        return Err(format!("decision hex `{hex}` has odd length"));
    }
    let bytes = (0..hex.len() / 2)
        .map(|i| u8::from_str_radix(&hex[2 * i..2 * i + 2], 16))
        .collect::<Result<Vec<u8>, _>>()
        .map_err(|e| format!("bad decision hex `{hex}`: {e}"))?;
    Ok((trace, bytes))
}

/// Aggregate result of an exploration run.
#[derive(Debug)]
pub struct McReport {
    /// Configuration name.
    pub config: &'static str,
    /// Episodes explored (excluding minimization replays).
    pub episodes: u64,
    /// Total granted turns across explored episodes.
    pub total_steps: u64,
    /// Exploration hit the strategy's episode cap before exhausting.
    pub truncated: bool,
    /// First failure found, minimized; `None` = all schedules passed.
    pub counterexample: Option<Counterexample>,
    /// Replay episodes spent minimizing (0 when nothing failed).
    pub minimize_episodes: u64,
}

impl McReport {
    /// Render for logs / the stats artifact.
    pub fn summary(&self) -> String {
        match &self.counterexample {
            None => format!(
                "{}: PASS — {} schedules explored ({} steps{})",
                self.config,
                self.episodes,
                self.total_steps,
                if self.truncated { ", TRUNCATED by episode cap" } else { "" }
            ),
            Some(cx) => format!(
                "{}: FAIL after {} schedules — {} | minimized repro ({} replays): {}",
                self.config, self.episodes, cx.description, self.minimize_episodes, cx.spec()
            ),
        }
    }
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The handle type every episode drives.
type Handle<'a> = GfslHandle<'a, NoProbe>;

/// [`McOp::RemoveUnrepaired`]: `update_down_ptrs` repairs nothing for this
/// one removal.
fn remove_unrepaired(h: &mut Handle<'_>, k: u32) -> bool {
    h.skip_downptr_repair = true;
    let removed = h.remove(k);
    h.skip_downptr_repair = false;
    removed
}

/// [`McOp::SnapGet`]: read `k` at a freshly pinned version (a plain `get`
/// when the structure keeps no versions).
fn snap_get(h: &mut Handle<'_>, k: u32) -> Option<u32> {
    // Pin borrows the list (not the handle), so the ticket can live
    // across the `&mut self` versioned read.
    let list = h.list;
    match list.pin_version() {
        Some(t) => h.get_at(k, &t),
        None => h.get(k),
    }
}

/// [`McOp::StalledReclaimPass`]: a second handle of the same structure
/// stays pinned across the pass.
fn stalled_reclaim_pass(h: &mut Handle<'_>) {
    h.list.handle().with_pin(|_| h.reclaim_pass());
}

/// Run one scripted op: the key it touched and what it did there, or
/// `None` for a maintenance op, which the history does not see.
fn apply(h: &mut Handle<'_>, op: McOp) -> Option<(u32, OpAction)> {
    Some(match op {
        McOp::Insert(k, v) => {
            let ok = h.insert(k, v).expect("gfsl insert failed");
            (k, OpAction::Insert { value: v, ok })
        }
        McOp::Remove(k) => (k, OpAction::Remove { ok: h.remove(k) }),
        McOp::RemoveUnrepaired(k) => (k, OpAction::Remove { ok: remove_unrepaired(h, k) }),
        McOp::Get(k) => (k, OpAction::Get { found: h.get(k) }),
        McOp::SnapGet(k) => (k, OpAction::Get { found: snap_get(h, k) }),
        McOp::ReclaimPass => {
            h.reclaim_pass();
            return None;
        }
        McOp::StalledReclaimPass => {
            stalled_reclaim_pass(h);
            return None;
        }
    })
}

fn run_ops(h: &mut Handle<'_>, ops: &[McOp], rec: &mut Recorder<'_>) {
    for &op in ops {
        let inv = rec.invoke();
        if let Some((k, action)) = apply(h, op) {
            rec.finish(k, action, inv);
        }
    }
}

/// Each worker's history and its panic message, if it panicked.
type WorkerResults = Vec<(Vec<OpRecord>, Option<String>)>;

/// One thread per script of `config`, each on a handle of `list` it mints
/// once it is through the start gate: run the script, and always retire (a
/// panicking worker that stays registered as live would wedge every parked
/// peer).
fn run_workers(
    config: &McConfig,
    ctl: &Arc<McController>,
    clock: &HistoryClock,
    list: &Gfsl,
) -> WorkerResults {
    std::thread::scope(|s| {
        let workers: Vec<_> = config
            .threads
            .iter()
            .enumerate()
            .map(|(id, ops)| {
                s.spawn(move || {
                    let hook: Arc<dyn SchedHook> = ctl.hook(id, true);
                    let mut rec = Recorder::new(clock);
                    let res = catch_unwind(AssertUnwindSafe(|| {
                        let _guard = schedule::register(hook);
                        schedule::yield_point(AccessKind::Load, SYNTH_START);
                        let mut h = list.handle_with(NoProbe);
                        // The hint as a key-sorted call runs it (reads
                        // consult it, reads and updates move it), on scripts
                        // in any key order: validation, not sortedness, is
                        // what keeps it safe.
                        h.hint_live = true;
                        run_ops(&mut h, ops, &mut rec);
                    }));
                    ctl.retire(id);
                    (rec.records, res.err().map(panic_text))
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    })
}

/// Run one episode of `config` under `strategy` (whose `begin_episode`
/// must already have returned `true`).
pub fn run_episode(config: &McConfig, strategy: &SharedScheduler) -> EpisodeOutcome {
    let threads = config.threads.len();
    assert!(threads >= 1, "config needs at least one thread");
    let ctl = McController::new(threads, strategy.clone(), config.max_steps, None);
    let clock = HistoryClock::new();

    let list = config.build();
    let results = run_workers(config, &ctl, &clock, &list);
    let violations = list.validate();
    let mut failure = (!violations.is_empty()).then(|| {
        format!(
            "structure invariant violated: {}",
            violations
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("; ")
        )
    });

    let steps = ctl.steps();
    // Silent no-op guard: a multi-threaded episode whose only granted
    // turns are the start gates means the pool was built without
    // per-access gating — exploration would trivially "pass" over one
    // schedule. Fail loudly instead.
    if threads > 1 && steps <= threads as u64 {
        panic!(
            "mc: episode granted only {steps} turns for {threads} threads — \
             gfsl-gpu-mem was built without the `sched` feature (run model \
             checks via `cargo test -p gfsl` or a `modelcheck`-featured \
             harness so pool atomics become yield points)"
        );
    }

    for (id, (_, panic_msg)) in results.iter().enumerate() {
        if failure.is_some() {
            break;
        }
        if let Some(msg) = panic_msg {
            failure = Some(format!("worker {id} panicked: {msg}"));
        }
    }
    if failure.is_none() {
        let mut records: Vec<OpRecord> = Vec::new();
        for (r, _) in &results {
            records.extend_from_slice(r);
        }
        if let Err(errors) = check_linearizable(&records, &config.initial_state()) {
            failure = Some(format!("non-linearizable history: {}", errors.join("; ")));
        }
    }

    EpisodeOutcome {
        failure,
        decisions: ctl.decisions(),
        trace: ctl.trace_hash(),
        steps,
    }
}

/// Replay one episode from a decision byte list.
pub fn replay(config: &McConfig, decisions: Vec<u8>) -> EpisodeOutcome {
    run_episode(config, &one_episode(Replay::new(decisions)))
}

/// Explore `config` under `strategy` until a failure is found or the
/// strategy exhausts its schedule space. On failure the decision list is
/// ddmin-minimized before being reported.
pub fn explore(config: &McConfig, strategy: Box<dyn Scheduler>) -> McReport {
    let shared: SharedScheduler = Arc::new(Mutex::new(strategy));
    let mut episodes = 0u64;
    let mut total_steps = 0u64;
    loop {
        if !shared.lock().unwrap().begin_episode() {
            let truncated = shared.lock().unwrap().truncated();
            return McReport {
                config: config.name,
                episodes,
                total_steps,
                truncated,
                counterexample: None,
                minimize_episodes: 0,
            };
        }
        let out = run_episode(config, &shared);
        episodes += 1;
        total_steps += out.steps;
        if let Some(description) = out.failure {
            let (min_bytes, mut replays) =
                ddmin(&out.decisions, |bytes| {
                    replay(config, bytes.to_vec()).failure.is_some()
                });
            // One final replay pins the minimized schedule's trace hash
            // and its (possibly more specific) failure description.
            let final_out = replay(config, min_bytes.clone());
            replays += 1;
            let description = final_out.failure.unwrap_or(description);
            return McReport {
                config: config.name,
                episodes,
                total_steps,
                truncated: false,
                counterexample: Some(Counterexample {
                    description,
                    trace: final_out.trace,
                    decisions: min_bytes,
                }),
                minimize_episodes: replays,
            };
        }
        shared.lock().unwrap().end_episode();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_roundtrip() {
        let spec = format_spec(0xDEAD_BEEF_0123_4567, &[0, 1, 255, 16]);
        assert_eq!(spec, "deadbeef01234567:0001ff10");
        assert_eq!(
            parse_spec(&spec).unwrap(),
            (0xDEAD_BEEF_0123_4567, vec![0, 1, 255, 16])
        );
        assert_eq!(parse_spec("abc:").unwrap(), (0xabc, vec![]));
        assert!(parse_spec("nocolon").is_err());
        assert!(parse_spec("12:abc").is_err(), "odd hex length");
        assert!(parse_spec("zz:00").is_err());
    }
}
