//! # Cycle-level SIMT executor
//!
//! An event-driven simulator of the GPU execution model the paper runs on:
//! SMs hold resident warps; a per-SM scheduler issues one warp instruction
//! per cycle from whichever resident warp is ready; warps stall on memory
//! for a latency decided by the shared L2 model; DRAM serves misses through
//! a bandwidth-limited queue.
//!
//! Each warp runs a *program* that replays the structures' own accesses.
//! An op is the real `contains` run under a recording `MemProbe`, the same
//! stream `CountingProbe` charges for the roofline; the warp then issues one
//! recorded access per step (a coalesced team read or a lock-word read for
//! GFSL, the lanes' scattered reads side by side for M&C) so the scheduler
//! can charge latency and bandwidth. On a read-only workload the structure
//! is static, so recording an op before its steps are issued changes
//! nothing, and the whole simulation is **single-threaded and bit-for-bit
//! deterministic**.
//!
//! This gives an estimate of Contains throughput whose timing is
//! *independent* of the roofline model in `gfsl-gpu-model`: the roofline
//! converts aggregate measured traffic into time; the executor schedules
//! every individual warp step against latencies and a DRAM queue. The
//! `cyclesim` harness experiment compares the two — agreement within a small
//! factor means the reproduction's conclusions don't hinge on either timing
//! model's simplifications.
//!
//! Scope: read-only (Contains) workloads. Updates would replay their
//! recorded streams the same way, each op run atomically when it is
//! recorded, so contention inside an op (a lock held across another warp's
//! steps) would not be modelled; the paper's Fig. 5.4a and the
//! read-dominated mixtures are where the cycle-level view matters most
//! (they are the regimes where latency hiding and issue pressure, not
//! bandwidth alone, decide the outcome).

#![warn(missing_docs)]

pub mod machine;
pub mod sched;
pub mod tasks;

pub use machine::{ExecConfig, ExecReport};
pub use sched::Device;
pub use tasks::{GfslContainsWarp, McContainsWarp, Step, WarpProgram};
