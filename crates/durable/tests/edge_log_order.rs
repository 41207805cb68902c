//! Log order is execution order, through the edge: a [`DurableCluster`]
//! in its single-list shape (one shard, one WAL lane) served by an
//! [`EdgeServer`] whose workers commit each epoch through the engine's own
//! sink, driven by pipelined connections; then the engine is dropped where
//! it stands and reopened cold.
//!
//! Only effective writes are logged, so a replayed record that changes
//! nothing (`redundant_replays`) means the log's order for two same-key
//! writes is not the order they executed in, and `diverged` — pairs in
//! exactly one of the live structure at the drop and the recovered one —
//! counts what that cost: acknowledged writes lost or resurrected.
//!
//! One worker runs its epochs one after another and logs each in the order
//! the engine ran it, so every one-worker cell must read `0 / 0`. With two
//! workers each locks the sink *after* running its own epoch, so lock order
//! is not execution order (DESIGN §15 has the counter-example, ROADMAP
//! item 2 the fix): that cell is ignored until the fix lands, and
//! `--ignored` runs it.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use gfsl::{GfslParams, TeamSize};
use gfsl_durable::{destroy, DurabilityContract, DurableCluster, DurableClusterConfig};
use gfsl_edge::{EdgeClient, EdgeConfig, EdgeEngine, EdgeServer, Req};
use gfsl_workload::{Lehmer64, ServeMix, ServeOp};

/// What the connections of a cell send.
struct Load {
    mix: ServeMix,
    /// Keys are drawn from `1..=range`; the even ones are prefilled.
    range: u32,
    /// Requests a connection keeps in flight, and the edge's epoch size.
    window: u64,
}

/// Write-heavy: the log sees an effective write in most epochs' slots.
const WRITES: Load = Load {
    mix: ServeMix::new(30, 30, 40, 0, 0),
    range: 10_000,
    window: 256,
};

/// Inserts and deletes over few enough keys that two connections collide
/// on a key in nearly every 32-op epoch.
const HOT_KEYS: Load = Load {
    mix: ServeMix::new(50, 50, 0, 0, 0),
    range: 64,
    window: 32,
};

/// What one cell's reopen saw.
#[derive(Debug)]
struct Reopened {
    /// Records the served phase appended to the WAL.
    records: u64,
    /// Records recovery replayed past the checkpoint cut.
    replayed: u64,
    /// Replayed records that changed nothing.
    redundant: u64,
    /// Pairs in exactly one of the live and the recovered structure.
    diverged: usize,
}

/// One cell: `workers` edge workers over a fresh one-shard, one-lane
/// engine, `max(2, workers)` connections sending `ops` requests of `load`
/// between them; then drop and reopen.
fn served_then_reopened(
    load: &Load,
    contract: DurabilityContract,
    workers: usize,
    ops: u64,
) -> Reopened {
    // Unique per cell within a process: the tests run concurrently.
    static CELLS: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "gfsl_edge_log_order_{}_{}",
        std::process::id(),
        CELLS.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = DurableClusterConfig {
        contract,
        seg_records: 1 << 16,
        n_shards: 1,
        n_lanes: 1,
        params: GfslParams {
            team_size: TeamSize::ThirtyTwo,
            pool_chunks: GfslParams::chunks_for(u64::from(load.range) + ops, TeamSize::ThirtyTwo),
            ..Default::default()
        },
        ..DurableClusterConfig::new(&dir)
    };
    let mut eng = DurableCluster::create(&cfg).expect("create durable engine");
    // Prefill straight into the structure, unlogged, then checkpoint: the
    // WAL tail is then exactly the served ops.
    for k in (1..=load.range).filter(|k| k % 2 == 0) {
        eng.cluster().insert(k, k).expect("prefill");
    }
    eng.checkpoint().expect("prefill checkpoint");

    let conns = workers.max(2) as u64;
    let ops_per_conn = ops.div_ceil(conns);
    let srv = EdgeServer::start_durable(
        EdgeEngine::Cluster(eng.cluster().clone()),
        EdgeConfig {
            workers,
            batch_ops: load.window as usize,
            intake_cap: 8 * load.window as usize,
            ..EdgeConfig::default()
        },
        eng.sink(),
    )
    .expect("start edge server");
    let addr = srv.addr();
    std::thread::scope(|s| {
        for conn in 0..conns {
            s.spawn(move || {
                // The timeout turns a dead server into a failure, not a hang.
                let mut client =
                    EdgeClient::connect(addr, Some(Duration::from_secs(30))).expect("connect");
                let mut rng = Lehmer64::new(0xED6E ^ conn << 32);
                let mut sent = 0;
                while sent < ops_per_conn {
                    let ids: Vec<u64> = (sent..ops_per_conn.min(sent + load.window))
                        .map(|i| {
                            client.send(match load.mix.draw(&mut rng, load.range) {
                                // A value no other write carries, so a lost or
                                // resurrected write shows.
                                ServeOp::Insert(k, _) => {
                                    Req::Insert(k, (conn * ops_per_conn + i) as u32)
                                }
                                ServeOp::Get(k) => Req::Get(k),
                                ServeOp::Delete(k) => Req::Delete(k),
                                ServeOp::Range(lo, hi) => Req::Range(lo, hi),
                                ServeOp::MinEntry => Req::MinEntry,
                                ServeOp::PopMin => Req::PopMin,
                            })
                        })
                        .collect();
                    sent += ids.len() as u64;
                    for id in ids {
                        client.recv(id).expect("reply");
                    }
                }
            });
        }
    });
    assert_eq!(srv.shutdown().sheds, 0, "a window fits the intake: nothing sheds");
    let records = eng.wal_stats().records;
    let pair_set = |e: &DurableCluster| e.cluster().pairs().into_iter().collect::<BTreeSet<_>>();
    let live = pair_set(&eng);

    // Crash-restart: drop the engine where it stands and reopen cold.
    drop(eng);
    let (eng, rec) = DurableCluster::open(&cfg).expect("recovery");
    let diverged = live.symmetric_difference(&pair_set(&eng)).count();
    eng.cluster().assert_valid();
    drop(eng);
    destroy(&dir).expect("cleanup");
    Reopened {
        records,
        replayed: rec.replayed,
        redundant: rec.redundant_replays,
        diverged,
    }
}

/// Every replayed record takes effect and recovery rebuilds exactly what
/// was live: under each durability contract, on the priority-queue mix and
/// on the 64-key collision load. The priority-queue mix is where execution
/// order shows: an extract-min runs where key 1 sorts and logs the removal
/// of whichever key it popped, so an epoch logged in arrival order would put
/// the pop of `k` after an insert of `k` that arrived before it and ran
/// after it.
#[test]
fn one_worker_log_order_is_execution_order() {
    let pq = Load {
        mix: ServeMix::PQ,
        ..WRITES
    };
    let cells = DurabilityContract::ALL
        .iter()
        .map(|&c| (&WRITES, c))
        .chain([
            (&pq, DurabilityContract::Buffered),
            (&HOT_KEYS, DurabilityContract::Buffered),
        ]);
    for (load, contract) in cells {
        let r = served_then_reopened(load, contract, 1, 8_000);
        assert!(r.records > 0, "effective writes reach the sink: {r:?}");
        assert_eq!(
            (r.replayed, r.redundant, r.diverged),
            (r.records, 0, 0),
            "{contract}, {} keys: {r:?}",
            load.range
        );
    }
}

/// The same 64-key load with two workers: each runs its epoch, then locks
/// the sink, so the log can hold two same-key writes in the order opposite
/// to the one they ran in. More requests than the one-worker cells: at
/// 8,000 a run now and then reads `0 / 0` by luck.
#[test]
#[ignore = "ROADMAP item 2: log order is not execution order"]
fn two_worker_log_order_is_execution_order() {
    let r = served_then_reopened(&HOT_KEYS, DurabilityContract::Buffered, 2, 64_000);
    assert!(r.records > 0, "effective writes reach the sink: {r:?}");
    assert_eq!((r.replayed, r.redundant, r.diverged), (r.records, 0, 0), "{r:?}");
}
