//! The durability contract between a serving loop and a persistence tier.
//!
//! A serving loop acknowledges a request by routing its response back to
//! the client. With a [`CommitSink`] installed (the edge server's
//! `start_durable`), that acknowledgement is *gated*: the worker hands every
//! write effect of an executed epoch ([`batch_effects`]) to the sink, and
//! only when [`CommitSink::commit`] returns — i.e. the records are on
//! storage as durable as the configured [`DurabilityContract`] promises —
//! do the responses route. This is group commit: one sink call amortizes
//! its syncs over the whole epoch's writes.
//!
//! The serve crate owns only the *contract*; the write-ahead log, the
//! checkpointer, and recovery live in `gfsl-durable`, whose engine hands
//! out its commit routine as a [`CommitSink`]. [`crate::service::serve`]
//! itself takes no sink.

use gfsl_workload::ServeOp;

use crate::request::{to_batch_op, Reply};

/// How durable an acknowledged write is — the policy behind the group
/// commit's sync step, surfaced as an explicit contract so a deployment
/// states what an ack means instead of inheriting a file-API default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DurabilityContract {
    /// `fsync` (`File::sync_all`): an acked write survives process death
    /// *and* power loss — data and file metadata are on stable storage.
    #[default]
    Synced,
    /// `fdatasync` (`File::sync_data`): an acked write survives process
    /// death and power loss, but file metadata (e.g. mtime) may lag. On
    /// segment-preallocating logs this is the classic latency saver.
    DataSynced,
    /// No sync: records are written to the OS page cache only. An acked
    /// write survives process death (the kernel still holds the pages) but
    /// NOT power loss or kernel panic. The throughput ceiling, for
    /// workloads that accept it.
    Buffered,
}

impl DurabilityContract {
    /// Run the contract's sync step on `file`.
    pub fn sync(self, file: &std::fs::File) -> std::io::Result<()> {
        match self {
            DurabilityContract::Synced => file.sync_all(),
            DurabilityContract::DataSynced => file.sync_data(),
            DurabilityContract::Buffered => Ok(()),
        }
    }

    /// Stable lowercase name (table rows, CLI flags).
    pub fn name(self) -> &'static str {
        match self {
            DurabilityContract::Synced => "fsync",
            DurabilityContract::DataSynced => "fdatasync",
            DurabilityContract::Buffered => "none",
        }
    }

    /// All contracts, strongest first (test sweeps).
    pub const ALL: [DurabilityContract; 3] = [
        DurabilityContract::Synced,
        DurabilityContract::DataSynced,
        DurabilityContract::Buffered,
    ];
}

impl std::fmt::Display for DurabilityContract {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One state-changing effect an epoch acknowledged: what must be durable
/// before the corresponding response may route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteEffect {
    /// The key written.
    pub key: u32,
    /// `Some(v)`: the key now holds `v` (effective insert); `None`: the key
    /// was removed (effective delete).
    pub value: Option<u32>,
}

/// Append the effective writes of one executed batch to `effects`, in the
/// order the engine ran them: `(BatchOp::key, index)`, the order of
/// [`gfsl::GfslHandle::execute_batch_hinted`] and of the cluster's batch
/// call. Arrival order is not that order, and for an extract-min the
/// difference is visible in the log: the pop runs where key 1 sorts and
/// removes whichever key is smallest, so in a batch `[Insert(5, v), PopMin]`
/// over a structure whose minimum is 5 the pop removes 5 *first*, the insert
/// then adds it back, and a log in arrival order (`Put(5)`, `Del(5)`) would
/// replay to a structure without the acknowledged 5.
///
/// Only *effective* writes are logged — an `Inserted(false)` /
/// `Deleted(false)` changed nothing and replays to nothing; failed ops
/// changed nothing by definition. An extract-min replays as the removal of
/// the key it popped, position-independent like any delete.
pub fn batch_effects<'a>(
    batch: impl Iterator<Item = (ServeOp, &'a Reply)>,
    effects: &mut Vec<WriteEffect>,
) {
    let mut ran: Vec<(u32, WriteEffect)> = batch
        .filter_map(|(op, reply)| {
            let effect = match (op, reply) {
                (ServeOp::Insert(k, v), Reply::Inserted(true)) => {
                    WriteEffect { key: k, value: Some(v) }
                }
                (ServeOp::Delete(k), Reply::Deleted(true)) => WriteEffect { key: k, value: None },
                (ServeOp::PopMin, Reply::Popped(Some((k, _)))) => {
                    WriteEffect { key: *k, value: None }
                }
                _ => return None,
            };
            Some((to_batch_op(op).key(), effect))
        })
        .collect();
    // Stable: ops that sort under one key stay in arrival order.
    ran.sort_by_key(|&(at, _)| at);
    effects.extend(ran.into_iter().map(|(_, effect)| effect));
}

/// A persistence tier the epoch batcher drains into.
///
/// `commit` must not return until the effects are as durable as the sink's
/// contract promises; the driver acknowledges the epoch's requests only
/// after it does. An `Err` means the sink can no longer uphold the
/// contract — the driver treats that as fatal (it must never acknowledge a
/// write it cannot make durable).
pub trait CommitSink {
    /// Make `effects` durable, in order, as one group commit. Returns the
    /// last log sequence number assigned (0 when `effects` is empty).
    fn commit(&mut self, effects: &[WriteEffect]) -> std::io::Result<u64>;
}

/// Counting sink for tests: records effects in memory, never blocks.
#[derive(Debug, Default)]
pub struct MemorySink {
    /// Every effect committed, in commit order.
    pub effects: Vec<WriteEffect>,
    /// Number of `commit` calls (= group commits).
    pub commits: u64,
}

impl CommitSink for MemorySink {
    fn commit(&mut self, effects: &[WriteEffect]) -> std::io::Result<u64> {
        self.effects.extend_from_slice(effects);
        self.commits += 1;
        Ok(self.effects.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contract_names_and_order() {
        assert_eq!(DurabilityContract::Synced.name(), "fsync");
        assert_eq!(DurabilityContract::DataSynced.name(), "fdatasync");
        assert_eq!(DurabilityContract::Buffered.name(), "none");
        assert_eq!(DurabilityContract::ALL[0], DurabilityContract::Synced);
        assert_eq!(DurabilityContract::default(), DurabilityContract::Synced);
    }

    #[test]
    fn contract_sync_runs_on_a_real_file() {
        let dir = std::env::temp_dir().join("gfsl_contract_sync_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("probe.bin");
        let f = std::fs::File::create(&path).unwrap();
        for c in DurabilityContract::ALL {
            c.sync(&f).unwrap();
        }
        std::fs::remove_file(&path).ok();
    }

    /// The log follows the engine's `(key, index)` order: the pop of the
    /// current minimum 5 ran before the insert that put 5 back, and the two
    /// writes of key 9 keep their arrival order.
    #[test]
    fn batch_effects_are_logged_in_execution_order() {
        let batch = [
            (ServeOp::Delete(9), Reply::Deleted(true)),
            (ServeOp::Insert(5, 50), Reply::Inserted(true)),
            (ServeOp::Get(5), Reply::Got(Some(50))),
            (ServeOp::Insert(9, 90), Reply::Inserted(true)),
            (ServeOp::PopMin, Reply::Popped(Some((5, 7)))),
            (ServeOp::Insert(3, 30), Reply::Inserted(false)),
        ];
        let mut effects = Vec::new();
        batch_effects(batch.iter().map(|(op, reply)| (*op, reply)), &mut effects);
        let put = |key, v| WriteEffect { key, value: Some(v) };
        let del = |key| WriteEffect { key, value: None };
        assert_eq!(effects, [del(5), put(5, 50), del(9), put(9, 90)]);
    }

    #[test]
    fn memory_sink_counts_group_commits() {
        let mut sink = MemorySink::default();
        let a = [
            WriteEffect { key: 1, value: Some(10) },
            WriteEffect { key: 2, value: None },
        ];
        assert_eq!(sink.commit(&a).unwrap(), 2);
        assert_eq!(sink.commit(&[]).unwrap(), 2);
        assert_eq!(sink.commits, 2);
        assert_eq!(sink.effects.len(), 2);
    }
}
