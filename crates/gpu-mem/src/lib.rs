//! Simulated GPU global memory.
//!
//! This crate is the memory substrate shared by GFSL and the M&C baseline:
//!
//! * [`pool::WordPool`] — "device memory": a flat array of 64-bit atomic
//!   words with a bump allocator handing out 32-bit word indexes. GFSL
//!   addresses chunks by 32-bit pool index exactly as the paper does (§4.2:
//!   "chunks are accessed using 32-bit indexes to the memory pool").
//! * [`layout`] — cache-line geometry (128-byte lines, as on Maxwell).
//! * [`coalesce`] — the half-warp coalescing rule: each half-warp's access
//!   requests are combined and one memory transaction is issued per distinct
//!   cache line covered (paper §2.2, "Memory Coalescing").
//! * [`l2::L2Cache`] — a set-associative LRU model of the GTX 970's 1.75 MB
//!   L2 cache; whether the working set fits in L2 is the single biggest
//!   effect in the paper's evaluation (§5.3).
//! * [`traffic::Traffic`] / [`probe`] — per-worker transaction counters and
//!   the probe trait the data structures call on every access. The
//!   `NoProbe` implementation compiles to nothing, so the uninstrumented
//!   structures run at full speed for the host-throughput benchmarks.
//!
//! Correctness note: the paper's algorithm relies on 8-byte entries being
//! read and written with single-word atomicity and on CAS for lock words.
//! `AtomicU64` with acquire/release ordering provides exactly those
//! guarantees (and documents them, unlike CUDA's informal model).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coalesce;
pub mod l2;
pub mod layout;
pub mod pool;
pub mod probe;
pub mod reclaim;
pub mod schedule;
pub mod traffic;

pub use l2::L2Cache;
pub use layout::{LineAddr, WordAddr, LINE_BYTES, LINE_WORDS, WORD_BYTES};
pub use pool::{PoolExhausted, WordPool, WordSpan};
pub use probe::{CountingProbe, CrashPoint, MemProbe, NoProbe};
pub use reclaim::{EpochReclaimer, ReclaimStats, SlotId};
pub use schedule::{AccessKind, HookGuard, ScheduledAtomicU64, SchedHook};
pub use traffic::Traffic;
