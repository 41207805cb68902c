//! Durability tier for GFSL: acknowledged writes survive process death.
//!
//! One engine, [`DurableCluster`], over three pieces:
//!
//! * **WAL** ([`wal`]) — an append-only, segment-rotated, CRC-32C-guarded
//!   log. Group commit: the serving edge hands each epoch's effective
//!   writes to the engine's commit routine — one append + one sync (per
//!   the [`DurabilityContract`]) per lane touched — and only then do the
//!   epoch's acknowledgements route. Torn final records are detected and
//!   truncated on replay; damage anywhere else refuses to serve with a
//!   typed [`RecoverError`] — never silent loss.
//! * **Checkpoints** ([`ckpt`]) — sorted chunk runs streamed through a
//!   minimal disk manager (page-aligned 4 KiB writes, per-page checksums,
//!   temp-file + atomic-rename publication behind a manifest commit
//!   point). Publishing a checkpoint prunes the WAL segments it covers.
//! * **Recovery** ([`DurableCluster::open`]) — newest valid checkpoint
//!   (with fallback on damage), LSN-gated idempotent WAL-tail replay, and
//!   a full validation walk before the engine serves.
//!
//! [`DurableCluster`] wraps the sharded cluster with static per-key-lane
//! WALs and shard-layout-carrying manifests; a single durable list is its
//! one-shard, one-lane shape. There is one commit path: the per-op
//! `insert` / `remove` and the [`CommitSink`](gfsl_serve::CommitSink) an
//! edge server commits epochs through ([`DurableCluster::sink`]) run the
//! same routine. It exposes its crash points
//! (`WalAppend`/`WalFsync`/`CkptWrite`/`CkptRename`/`WalPrune`) to the
//! seeded chaos controller, which is how the kill-restart soak proves the
//! "no acknowledged write lost" contract at every window.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod ckpt;
pub mod cluster;
pub mod crc;
pub mod error;
pub mod hook;
pub mod wal;

pub use ckpt::{load_latest, write_checkpoint, CheckpointScan, LoadedCheckpoint, Manifest};
pub use cluster::{destroy, DurableCluster, DurableClusterConfig, RecoveryReport};
pub use crc::crc32c;
pub use error::{OpError, RecoverError};
pub use hook::Failpoints;
pub use wal::{scan_wal, Wal, WalOp, WalRecord, WalScanned, WalStats};

pub use gfsl_serve::DurabilityContract;
