//! # gfsl-serve — a batched request-serving front end for GFSL
//!
//! The paper's structure only pays off when operations arrive in warp-sized
//! cooperative teams — exactly the shape a kernel-launch / continuous-
//! batching serving loop produces, and nothing like the one-op-at-a-time
//! API a client holds. This crate is the subsystem in between: a
//! [`RequestSource`] yields timed `Get/Insert/Delete/Range` requests, and
//! [`serve`]
//!
//! 1. **admits** them into a bounded intake queue, shedding with a typed
//!    error under overload ([`admission`]);
//! 2. **batches** them per epoch — deadline- and size-triggered, like an
//!    inference server's continuous batching — sorted by key into
//!    warp-aligned batches ([`KeySorted`], the one policy);
//! 3. **dispatches** each batch onto a GFSL team via the structure's
//!    key-sorted batch entry point, advancing its virtual clock by the
//!    measured execution time ([`service`]);
//! 4. **routes** typed responses ([`request`]) back to the source in
//!    dispatch order, feeding closed-loop clients their next issue;
//! 5. **counts** ops, batches, occupancy, queue depth, sheds and hint hits
//!    ([`metrics`]);
//! 6. **does not heal**: the batch entry point runs every operation
//!    through its contained `try_*` path, so a crashed operation's reply
//!    is a typed abort, and nothing here repairs the quarantine it leaves. Healing
//!    runs where serving survives — the edge's worker loop (`gfsl-edge`)
//!    repairs, scrubs and feeds the [`supervisor`] this crate owns, which
//!    walks the Normal → Shed-writes → Read-only → Drain degradation
//!    ladder until the structure is healthy again.
//!
//! The crate ships no request source: its one caller outside its tests,
//! `perfbench`'s ladder, brings its own.
//!
//! The crate also owns the durability *contract* ([`durability`]:
//! [`CommitSink`], [`batch_effects`], [`DurabilityContract`]). One loop
//! commits through it — the edge server's epoch — into one engine,
//! `gfsl_durable::DurableCluster`; [`serve`] acknowledges from memory and
//! takes no sink.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod durability;
pub mod metrics;
pub mod request;
pub mod service;
pub mod supervisor;

pub use admission::{IntakeQueue, ShedError};
pub use durability::{batch_effects, CommitSink, DurabilityContract, MemorySink, WriteEffect};
pub use metrics::ServiceMetrics;
pub use request::{ClientId, Reply, Request, RequestSource, Response};
pub use service::{serve, ExecMode, KeySorted, ServeConfig, ServiceReport};
pub use supervisor::{ServiceMode, Supervisor};
