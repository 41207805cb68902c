//! # GFSL — a GPU-friendly concurrent skiplist
//!
//! Rust reproduction of *"A GPU-Friendly Skiplist Algorithm"* (Nurit
//! Moscovici, Nachshon Cohen, Erez Petrank; PPoPP 2017 poster / PACT 2017).
//!
//! GFSL replaces the classic one-key-per-node skiplist with linked lists of
//! cache-line-aligned, array-based **chunks** traversed cooperatively by
//! lockstep **teams** of threads:
//!
//! * a chunk holds `N-2` sorted key-value pairs plus a `(max, next)` word
//!   and a lock word;
//! * a team of `N` lanes reads a whole chunk in one or two coalesced memory
//!   transactions and picks the next traversal step with a ballot (highest
//!   voting lane wins);
//! * `contains`/`get` are lock-free; `insert`/`remove` hold the bottom-level
//!   enclosing chunk's fine-grained lock for the duration and lock upper
//!   chunks one at a time;
//! * overfull chunks **split** (publishing the new chunk with a single
//!   atomic `(max, next)` store); underfull chunks **merge** right and
//!   become terminal **zombies**, unlinked lazily;
//! * keys are raised to level `i+1` only when a split creates a chunk in
//!   level `i`, with probability `p_chunk` (≈ 1 is best).
//!
//! On the CPU, one host thread drives one team (see `gfsl-simt`), and the
//! chunk pool is a flat array of `AtomicU64` words (see `gfsl-gpu-mem`), so
//! the concurrent algorithm runs for real — with exactly the per-word
//! atomicity the GPU provides.
//!
//! ## Quick start
//!
//! ```
//! use gfsl::{Gfsl, GfslParams};
//!
//! let list = Gfsl::new(GfslParams::sized_for(10_000)).unwrap();
//!
//! // Concurrent use: share &list across threads, one handle per thread.
//! std::thread::scope(|s| {
//!     for t in 0..2u32 {
//!         let list = &list;
//!         s.spawn(move || {
//!             let mut h = list.handle();
//!             for k in 1..500 {
//!                 h.insert(k * 2 + t, k).ok();
//!             }
//!         });
//!     }
//! });
//!
//! let mut h = list.handle();
//! assert!(h.contains(2));
//! ```
//!
//! ## Locking discipline (deadlock freedom)
//!
//! All lock acquisition orders are consistent with the partial order
//! *(any level-0 chunk) < (any upper chunk)* and *(chunk) < (its right
//! neighbour within a level)*:
//!
//! * `insert`/`remove` take the bottom-level enclosing chunk first and hold
//!   it for the whole operation;
//! * above that, at most one upper-level chunk is held at a time, plus —
//!   transiently, during splits and merges — its immediate right neighbour
//!   (always acquired left-to-right);
//! * the down-pointer repair pass locks level `i+1` chunks while holding
//!   level `i` locks (upward, consistent);
//! * `contains` takes no locks at all.
//!
//! No cycle can form, so every spin terminates once the holder finishes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod bug_knobs;
pub mod bulk;
pub mod chaos;
pub mod chunk;
pub mod delete;
pub mod downptr;
pub mod export;
pub mod history;
pub mod insert;
pub mod introspect;
pub mod mc;
pub mod mvcc;
pub mod params;
pub mod range;
pub mod repair;
pub mod search;
pub mod skiplist;
pub mod split;
pub mod stats;
pub mod validate;

pub use batch::{BatchOp, BatchReply};
pub use chaos::ChaosProbe;
pub use chunk::{Entry, KEY_INF, KEY_NEG_INF};
pub use history::{check_linearizable, HistoryClock, OpAction, OpRecord, Recorder};
pub use params::GfslParams;
pub use skiplist::{
    AbortReason, Error, Gfsl, GfslHandle, OpAbort, RepairStats, LOCK_RETRY_BOUND,
    MAX_RECLAIM_HANDLES, STARVATION_RETRIES,
};
pub use mc::controller::{quiet_injected_panics, InjectedCrash, McController};
pub use mc::{Counterexample, McConfig, McOp, McReport};
pub use mvcc::{MvccStats, ReadTicket};
pub use introspect::{LevelShape, Shape};
pub use stats::OpStats;
pub use validate::Violation;

/// Re-exported crash-point seam (the named vulnerable windows of the lock
/// protocol that [`chaos`] injects faults at).
pub use gfsl_gpu_mem::CrashPoint;

/// Re-exported memory-probe seam, so downstream crates (e.g. the serving
/// front end) can write code generic over probes without a direct
/// `gfsl-gpu-mem` dependency.
pub use gfsl_gpu_mem::{MemProbe, NoProbe};

/// Re-exported team-size selector (chunk format): 16 or 32 entries.
pub use gfsl_simt::TeamSize;

/// Re-exported reclamation counters surfaced by [`Gfsl::reclaim_stats`].
pub use gfsl_gpu_mem::ReclaimStats;
