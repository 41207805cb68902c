//! # gfsl-edge — the networked serving edge for GFSL
//!
//! Everything below this crate is in-process: the structure
//! ([`gfsl`]), the batched serving loop ([`gfsl_serve`]), the sharded
//! cluster ([`gfsl_cluster`]). This crate puts a real network in front of
//! it:
//!
//! - [`proto`] — a compact, versioned binary wire protocol. Fixed-width
//!   frames, typed decode errors, and backpressure *in the protocol*: shed
//!   requests answer with a retry-after hint (milliseconds on the wire),
//!   framing violations with a final typed error frame.
//! - [`session`] — per-connection state: streaming decode, buffered
//!   writes, read-your-writes tracking, slow-client accounting.
//! - [`engine`] — the storage behind the edge: one GFSL or a live
//!   migrating cluster, executing whole epoch batches.
//! - [`server`] — a thread-per-core TCP server: one acceptor, per-core
//!   workers with connection affinity, epoch batching onto the engine,
//!   commit-before-ack durability, and — the one place an engine heals —
//!   a repair step on every loop pass (scrub on idle passes) feeding each
//!   worker's supervisor, whose ladder surfaces as typed shed frames.
//! - [`client`] — the blocking reference client (pipelined, id-matched).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod engine;
pub mod proto;
pub mod server;
pub mod session;

pub use client::EdgeClient;
pub use engine::EdgeEngine;
pub use proto::{DecodeError, Req, Resp};
pub use server::{EdgeConfig, EdgeServer, EdgeStats, SharedSink, StatsSnapshot};
pub use session::Session;
