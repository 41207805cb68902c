//! # gfsl-serve — a batched request-serving front end for GFSL
//!
//! The paper's structure only pays off when operations arrive in warp-sized
//! cooperative teams — exactly the shape a kernel-launch / continuous-
//! batching serving loop produces, and nothing like the one-op-at-a-time
//! API a client holds. This crate is the subsystem in between: simulated
//! clients issue `Get/Insert/Delete/Range` requests over time, and the
//! service
//!
//! 1. **admits** them into a bounded intake queue, shedding with a typed
//!    error under overload ([`admission`]);
//! 2. **batches** them per epoch — deadline- and size-triggered, like an
//!    inference server's continuous batching — under one of two policies
//!    ([`scheduler`]: FIFO, key-sorted);
//! 3. **dispatches** each warp-aligned batch onto a GFSL team via the
//!    structure's key-sorted batch entry point ([`service`]);
//! 4. **routes** typed responses ([`request`]) back to the source in
//!    dispatch order, feeding closed-loop clients their next issue;
//! 5. **measures** occupancy, queue depth, p50/p99/p999 latency and sheds
//!    ([`metrics`]) — and folds the entire schedule into a replayable
//!    FNV-1a trace hash ([`trace`]);
//! 6. **does not heal**: the batch entry point runs every operation
//!    through its contained `try_*` path, so a crashed operation's reply
//!    is a typed abort, and nothing here repairs the quarantine it leaves. Healing
//!    runs where serving survives — the edge's worker loop (`gfsl-edge`)
//!    repairs, scrubs and feeds the [`supervisor`] this crate owns, which
//!    walks the Normal → Shed-writes → Read-only → Drain degradation
//!    ladder until the structure is healthy again.
//!
//! See [`service::serve`] for the event loop and [`service::ExecMode`] for
//! the measured / modeled clock modes.
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
pub mod scheduler;
pub mod service;
pub mod source;
pub mod supervisor;
pub mod trace;

pub use admission::{IntakeQueue, ShedError};
pub use durability::{batch_effects, CommitSink, DurabilityContract, MemorySink, WriteEffect};
pub use metrics::{LatencyHisto, ServiceMetrics};
pub use request::{ClientId, Reply, Request, Response};
pub use scheduler::{Batch, BatchPolicy, Fifo, KeySorted, PolicyCtx};
pub use service::{env_seed, serve, ExecMode, ServeConfig, ServiceReport};
pub use source::{ClosedSource, OpenSource, ReplaySource, RequestSource};
pub use supervisor::{ServiceMode, Supervisor};
pub use trace::TraceHash;
