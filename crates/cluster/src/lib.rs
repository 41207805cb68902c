//! # gfsl-cluster — a key-range-sharded multi-GFSL engine
//!
//! One GFSL is bounded by a single chunk pool and a single service loop's
//! worth of teams. This crate scales out instead of up: K independent GFSL
//! shards, each owning a contiguous slice of the user key space, behind an
//! **epoch-versioned shard map**. The moving parts:
//!
//! * **Routing** ([`cluster`]): single-key ops route by range under a
//!   per-shard read *fence* and re-verify the map epoch after fencing; an
//!   op that raced a migration re-routes under the current map inside the
//!   call, so callers see only [`gfsl::Error`]. Cross-shard `range` /
//!   `count_range` fan out over every overlapped shard (one consistent
//!   cut) and stitch the results.
//! * **Live resharding** ([`reshard`]): per-shard windowed load counters
//!   drive a split/merge policy — a hot shard bulk-exports its top half
//!   into a fresh structure via `Gfsl::from_sorted_pairs`, two cold
//!   neighbours compact into one — installed with a brief map swap and an
//!   epoch bump, losing no acknowledged write.
//! * **Consistent snapshots** ([`snapshot`]): all shard fences write-held
//!   simultaneously give a linearizable cluster-wide cut, exported eagerly
//!   and rebuildable into a single GFSL.
//!
//! The chaos layer composes: the point ops have probed variants
//! (`get_with`, `insert_with`, `remove_with`), every op is contained, and
//! migrations repair the quarantine before exporting, so splits and merges
//! can race crashing client ops (see the `migration_chaos` integration
//! test).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub(crate) mod map;
pub mod reshard;
pub mod shard;
pub mod snapshot;

pub use cluster::Cluster;
pub use reshard::{RebalancePolicy, ReshardEvent};
pub use shard::Shard;
pub use snapshot::{ClusterSnapshot, ShardCut};
