//! Lockstep warp/team (SIMT) execution substrate.
//!
//! GFSL (Moscovici, Cohen & Petrank, PPoPP'17/PACT'17) executes every skiplist
//! operation cooperatively by a *team* of GPU threads the size of a warp (32)
//! or half-warp (16). Intra-team communication happens exclusively through the
//! CUDA warp intrinsics `__ballot` and `__shfl` at lockstep step boundaries.
//!
//! On the CPU we reproduce exactly those semantics: a team is executed by a
//! single host thread, lane-parallel steps are expressed as per-lane closures
//! evaluated in lockstep (lane 0 .. lane N-1), a ballot is a 32-bit mask over
//! the lanes' boolean votes, and a shuffle reads another lane's register.
//! Because all intra-team data flow in GFSL goes through these primitives,
//! the sequentialized execution is observationally identical to the GPU's
//! lockstep execution; inter-team concurrency (the part the algorithm's
//! correctness argument is actually about) is provided by running one team
//! per host thread over shared atomic memory.
//!
//! The crate also provides [`DivergenceStats`], the counter set used by the
//! performance model to charge SIMT branch-serialization costs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ballot;
pub mod divergence;
pub mod lane;
pub mod team;
pub mod vector;

pub use ballot::Ballot;
pub use divergence::DivergenceStats;
pub use lane::{LaneId, TeamSize, WARP_SIZE};
pub use team::Team;
pub use vector::{ScalarBallot, WarpRegs};
