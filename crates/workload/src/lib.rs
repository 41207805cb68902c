//! Deterministic workload generation for the GFSL evaluation (paper §5.1).
//!
//! Benchmarks are parameterized by an operation mixture `[i, d, c]`
//! (percent inserts / deletes / contains), a key range, and an operation
//! count. Keys and operation types are drawn uniformly; the initial
//! structure is prefilled according to the benchmark type:
//!
//! * mixed-ops tests start from a random key set of exactly half the range;
//! * Contains-only and Delete-only tests start with *all* keys of the
//!   range, inserted in random order;
//! * Insert-only tests start empty, and single-op-type tests size their
//!   operation count to the key range "in order not to oversaturate small
//!   structures".
//!
//! Everything is driven by explicit-seed SplitMix64/Lehmer64 streams so
//! runs are bit-for-bit reproducible (we deliberately avoid `rand` and OS
//! entropy).

#![warn(missing_docs)]

pub mod arrival;
pub mod dist;
pub mod hotshard;
pub mod mix;
pub mod prefill;
pub mod rng;
pub mod spec;

pub use arrival::{ServeMix, ServeOp};
pub use dist::{KeyDist, Zipf};
pub use hotshard::HotShard;
pub use mix::{Op, OpKind, OpMix};
pub use prefill::Prefill;
pub use rng::{Lehmer64, SplitMix64};
pub use spec::{format_count, BenchKind, WorkloadSpec};
