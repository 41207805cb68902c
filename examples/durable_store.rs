//! Crash-surviving key-value store: the durability tier end to end.
//!
//! Builds a [`DurableCluster`] in its single-list shape — one shard, one
//! WAL lane (DESIGN.md §15) — commits writes through the engine's commit
//! routine, checkpoints, writes a tail past the checkpoint, then
//! *drops the engine where it stands* — the moral equivalent of
//! `kill -9` — and reopens from disk. The recovery report shows the
//! checkpoint base plus the LSN-gated tail replay, and a validation walk
//! plus a full content check prove no acknowledged write was lost.
//!
//! ```text
//! cargo run --release --example durable_store [data-dir]
//! ```
//!
//! With a `data-dir` argument — wiped first — the on-disk state is left in
//! place so you can poke at it with the inspection tool:
//!
//! ```text
//! cargo run --release -p gfsl-durable --bin gfsl-walctl -- status <data-dir>
//! ```

use std::collections::BTreeMap;

use gfsl_durable::{destroy, DurabilityContract, DurableCluster, DurableClusterConfig};

fn main() {
    let (dir, keep) = match std::env::args().nth(1) {
        Some(d) => (std::path::PathBuf::from(d), true),
        None => (
            std::env::temp_dir().join(format!("gfsl_durable_store_{}", std::process::id())),
            false,
        ),
    };
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = DurableClusterConfig {
        contract: DurabilityContract::Synced,
        seg_records: 64, // small segments so the demo rotates and prunes
        n_shards: 1,
        n_lanes: 1,
        ..DurableClusterConfig::new(&dir)
    };

    // Phase 1: a store takes acknowledged writes. Every `insert`/`remove`
    // below returns only after its record is fsync'd (apply -> log -> sync
    // -> ack), so everything this model sees is a promise.
    let mut model: BTreeMap<u32, u32> = BTreeMap::new();
    let mut eng = DurableCluster::create(&cfg).expect("create store");
    for k in 1..=300u32 {
        eng.insert(k, k * 7).expect("insert");
        model.insert(k, k * 7);
    }
    for k in (3..=300u32).step_by(3) {
        eng.remove(k).expect("remove");
        model.remove(&k);
    }
    let manifest = eng.checkpoint().expect("checkpoint");
    println!(
        "checkpointed {} pairs at lsn {} (seq {})",
        manifest.n_pairs, manifest.lane_cuts[0], manifest.seq
    );

    // A tail past the checkpoint: these live only in the WAL.
    for k in 301..=380u32 {
        eng.insert(k, k * 7).expect("tail insert");
        model.insert(k, k * 7);
    }
    let stats = eng.wal_stats();
    println!(
        "logged {} records in {} group commits ({} segments pruned behind the checkpoint)",
        stats.records, stats.group_commits, stats.pruned_segments
    );

    // Phase 2: the process "dies". No shutdown, no final checkpoint — the
    // engine is dropped mid-flight and only the files remain.
    drop(eng);
    println!("\n-- crash --\n");

    // Phase 3: restart from disk.
    let (eng, report) = DurableCluster::open(&cfg).expect("recovery");
    println!(
        "recovered: checkpoint seq {:?} ({} pairs) + {} WAL records replayed -> {} keys",
        report.checkpoint_seq, report.checkpoint_pairs, report.replayed, report.recovered_keys
    );
    assert!(report.checkpoint_fallbacks.is_empty(), "no damage expected");

    let recovered: BTreeMap<u32, u32> = eng.cluster().pairs().into_iter().collect();
    assert_eq!(recovered, model, "every acknowledged write survived");
    eng.cluster().assert_valid();
    println!("all {} acknowledged writes survived; structure validates", model.len());

    drop(eng);
    if keep {
        println!("state left in {}", dir.display());
    } else {
        destroy(&dir).expect("cleanup");
    }
}
