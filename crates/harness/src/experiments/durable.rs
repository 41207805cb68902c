//! Durability tier: group-commit cost per fsync policy, and crash-restart
//! recovery. Not a paper artifact — this measures the `gfsl-durable`
//! subsystem layered on top of the paper's structure.
//!
//! Every number comes from one kind of cell (`cell`): a
//! [`DurableCluster`] in its single-list shape (one shard, one WAL lane)
//! served by an [`EdgeServer`] whose workers commit each epoch through the
//! engine's own sink, driven by pipelined connections that each send a
//! fixed count of requests; then the engine is dropped where it stands and
//! reopened cold.
//!
//! **Group-commit table.** One cell per [`DurabilityContract`], write-heavy
//! mix, acks gated on the WAL: every epoch's effective writes are appended
//! and synced before any of its replies is queued, so the client-side
//! latency *is* the ack latency, durability included. The interesting
//! columns are the throughput ratio vs the `buffered` floor (what the sync
//! in the contract costs) and records per group commit (how much of that
//! cost the epoch amortizes).
//!
//! **Recovery table.** The same cells' reopen — a checkpoint of the prefill
//! plus a WAL tail of everything served — timing the full pipeline:
//! checkpoint page verification, rebuild via sorted bulk load, LSN-gated
//! tail replay, validation walk. Only effective writes are logged, so a
//! replayed record that changes nothing (`redundant`) means the log's order
//! for two same-key writes is not the order they executed in, and
//! `diverged` — pairs in exactly one of the live structure at the drop and
//! the recovered one — counts what that cost: acknowledged writes lost or
//! resurrected.
//!
//! **Edge table.** The same two counts where they are likeliest: two
//! connections (one per worker when there are two) write one small key
//! set in small epochs. Each worker locks the sink *after* running its own
//! epoch, so with two workers lock order is not execution order (DESIGN
//! §15 has the counter-example, ROADMAP item 2 the fix).
//!
//! Every one-worker cell asserts `redundant 0 / diverged 0`: one worker
//! runs its epochs one after another and logs each in the order the engine
//! ran it. Cells with more workers report the counts; nothing here hides
//! or gates them. Wall-clock columns are reported, never asserted.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use gfsl::{GfslParams, TeamSize};
use gfsl_durable::{
    destroy, DurabilityContract, DurableCluster, DurableClusterConfig, RecoveryReport, WalStats,
};
use gfsl_edge::loadgen::op_req;
use gfsl_edge::{EdgeClient, EdgeConfig, EdgeEngine, EdgeServer};
use gfsl_serve::LatencyHisto;
use gfsl_workload::{Lehmer64, ServeMix, ServeOp};

use super::ExpConfig;
use crate::report::{mops, ratio, Table};

/// What the connections of a cell send.
struct Load {
    mix: ServeMix,
    /// Keys are drawn from `1..=range`; the even ones are prefilled.
    range: u32,
    /// Requests a connection keeps in flight, and the edge's epoch size.
    window: u64,
}

/// Write-heavy service mix: durability cost scales with effective writes,
/// so a lookup-dominated mix would mostly measure the structure again.
const MIX: ServeMix = ServeMix::new(30, 30, 40, 0, 0);

/// The edge table's load: inserts and deletes over few enough keys that
/// two connections collide on a key in nearly every 32-op epoch.
const ORDER: Load = Load {
    mix: ServeMix::new(50, 50, 0, 0, 0),
    range: 64,
    window: 32,
};

struct Cell {
    contract: DurabilityContract,
    ops: u64,
    /// Wall-clock of the served phase, connect to last reply.
    served_s: f64,
    /// Window send to reply, per request.
    ack: LatencyHisto,
    stats: WalStats,
    ckpt_pairs: u64,
    rec: RecoveryReport,
    diverged: usize,
    recovery_s: f64,
}

/// One cell: `workers` edge workers over a fresh one-shard, one-lane
/// engine, `max(2, workers)` connections sending `n_ops` requests of `load`
/// between them; then drop and reopen.
fn cell(
    cfg: &ExpConfig,
    load: &Load,
    contract: DurabilityContract,
    workers: usize,
    n_ops: usize,
) -> Cell {
    // Unique per cell within a process: tests run cells concurrently.
    static CELLS: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "gfsl_repro_durable_{}_{}",
        std::process::id(),
        CELLS.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let dcfg = DurableClusterConfig {
        contract,
        // Large segments keep rotation off the measured path; the soak
        // covers small-segment churn.
        seg_records: 1 << 16,
        n_shards: 1,
        n_lanes: 1,
        params: GfslParams {
            team_size: TeamSize::ThirtyTwo,
            pool_chunks: GfslParams::chunks_for(
                u64::from(load.range) + n_ops as u64,
                TeamSize::ThirtyTwo,
            ),
            seed: cfg.seed,
            ..Default::default()
        },
        ..DurableClusterConfig::new(&dir)
    };
    let mut eng = DurableCluster::create(&dcfg).expect("create durable engine");
    // Prefill straight into the structure (unlogged — these writes predate
    // the measurement), then checkpoint so recovery sees the realistic
    // shape: a checkpoint base plus a WAL tail of exactly the served ops.
    for k in (1..=load.range).filter(|k| k % 2 == 0) {
        eng.cluster().insert(k, k).expect("prefill");
    }
    let ckpt_pairs = eng.checkpoint().expect("prefill checkpoint").n_pairs;

    let conns = workers.max(2) as u64;
    let ops_per_conn = (n_ops as u64).div_ceil(conns);
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
    let t0 = Instant::now();
    let mut ack = LatencyHisto::new();
    std::thread::scope(|s| {
        let clients: Vec<_> = (0..conns)
            .map(|conn| {
                s.spawn(move || {
                    // The timeout turns a dead server into a failure, not a hang.
                    let patience = Some(Duration::from_secs(30));
                    let mut client = EdgeClient::connect(addr, patience).expect("connect");
                    let mut rng = Lehmer64::new(cfg.seed ^ 0xED6E ^ conn << 32);
                    let mut ack = LatencyHisto::new();
                    let mut sent = 0;
                    while sent < ops_per_conn {
                        let sent_at = Instant::now();
                        let ids: Vec<u64> = (sent..ops_per_conn.min(sent + load.window))
                            .map(|i| {
                                client.send(op_req(
                                    match load.mix.draw(&mut rng, load.range) {
                                        // A value no other write carries, so a
                                        // lost or resurrected write shows.
                                        ServeOp::Insert(k, _) => {
                                            ServeOp::Insert(k, (conn * ops_per_conn + i) as u32)
                                        }
                                        op => op,
                                    },
                                    false,
                                ))
                            })
                            .collect();
                        sent += ids.len() as u64;
                        for id in ids {
                            client.recv(id).expect("reply");
                            ack.record(sent_at.elapsed().as_nanos() as u64);
                        }
                    }
                    ack
                })
            })
            .collect();
        for c in clients {
            ack.merge(&c.join().expect("client thread"));
        }
    });
    let served_s = t0.elapsed().as_secs_f64();
    assert_eq!(srv.shutdown().sheds, 0, "a window fits the intake: nothing sheds");
    let stats = eng.wal_stats();
    let pair_set = |e: &DurableCluster| e.cluster().pairs().into_iter().collect::<BTreeSet<_>>();
    let live = pair_set(&eng);

    // Crash-restart: drop the engine where it stands and reopen cold.
    drop(eng);
    let t0 = Instant::now();
    let (eng, rec) = DurableCluster::open(&dcfg).expect("recovery");
    let recovery_s = t0.elapsed().as_secs_f64();
    // `replayed` counts every record past the cut, the redundant ones too.
    assert_eq!(
        rec.replayed, stats.records,
        "recovery must replay the whole served WAL tail"
    );
    let diverged = live.symmetric_difference(&pair_set(&eng)).count();
    drop(eng);
    destroy(&dir).expect("cleanup");
    if workers == 1 {
        assert_eq!(
            (rec.redundant_replays, diverged),
            (0, 0),
            "one worker logs in execution order ({contract}, {} keys)",
            load.range
        );
    }
    Cell {
        contract,
        ops: conns * ops_per_conn,
        served_s,
        ack,
        stats,
        ckpt_pairs,
        rec,
        diverged,
        recovery_s,
    }
}

/// Run the durable experiment: the group-commit policy table, the
/// crash-restart recovery table, and the small-key-set log-order table.
pub fn run(cfg: &ExpConfig) -> Vec<Table> {
    let n_ops = cfg
        .ops_override
        .unwrap_or(if cfg.quick { 120_000 } else { 600_000 });
    let serve = Load {
        mix: MIX,
        range: cfg.anchor_range(),
        window: 256,
    };
    let workers = cfg
        .workers
        .min(std::thread::available_parallelism().map_or(1, |p| p.get()));

    // Weakest contract first: it is the denominator of every ratio.
    let cells: Vec<Cell> = DurabilityContract::ALL
        .iter()
        .rev()
        .map(|&c| cell(cfg, &serve, c, workers, n_ops))
        .collect();
    let cell_mops = |c: &Cell| c.ops as f64 / c.served_s.max(1e-9) / 1.0e6;
    let floor = cell_mops(&cells[0]).max(f64::MIN_POSITIVE);

    let mut t = Table::new(
        "Durable edge: group commit vs fsync policy ([30,30,40], anchor range)",
        &[
            "contract", "MOPS", "vs none", "ack p50 us", "ack p99 us", "commits",
            "records", "recs/commit", "syncs",
        ],
    );
    for c in &cells {
        t.row(vec![
            c.contract.name().into(),
            mops(cell_mops(c)),
            ratio(cell_mops(c) / floor),
            format!("{:.1}", c.ack.p50_ns() as f64 / 1.0e3),
            format!("{:.1}", c.ack.p99_ns() as f64 / 1.0e3),
            c.stats.group_commits.to_string(),
            c.stats.records.to_string(),
            format!(
                "{:.1}",
                c.stats.records as f64 / c.stats.group_commits.max(1) as f64
            ),
            c.stats.syncs.to_string(),
        ]);
    }
    t.attach("wal_stats", &cells.iter().map(|c| c.stats).collect::<Vec<_>>());

    let mut r = Table::new(
        "Durable recovery: checkpoint base + WAL-tail replay, cold reopen",
        &[
            "contract", "ckpt pairs", "tail replayed", "redundant", "diverged", "keys",
            "recovery ms", "replay Mrec/s",
        ],
    );
    for c in &cells {
        r.row(vec![
            c.contract.name().into(),
            c.ckpt_pairs.to_string(),
            c.rec.replayed.to_string(),
            c.rec.redundant_replays.to_string(),
            c.diverged.to_string(),
            c.rec.recovered_keys.to_string(),
            format!("{:.1}", c.recovery_s * 1.0e3),
            format!("{:.2}", c.rec.replayed as f64 / c.recovery_s.max(1e-9) / 1.0e6),
        ]);
    }

    let mut e = Table::new(
        "Durable edge: log order vs execution order (two connections, 64 keys, no sync)",
        &["workers", "ops", "commits", "records", "redundant", "diverged"],
    );
    for workers in [1, 2] {
        let c = cell(cfg, &ORDER, DurabilityContract::Buffered, workers, n_ops);
        e.row(
            [
                workers as u64,
                c.ops,
                c.stats.group_commits,
                c.stats.records,
                c.rec.redundant_replays,
                c.diverged as u64,
            ]
            .iter()
            .map(u64::to_string)
            .collect(),
        );
    }
    vec![t, r, e]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durable_experiment_runs_tiny() {
        let cfg = ExpConfig::tiny(2);
        let tables = run(&cfg);
        assert_eq!(tables.len(), 3);
        let commit = &tables[0];
        assert_eq!(commit.rows.len(), 3, "one row per durability contract");
        assert_eq!(commit.rows[0][0], "none", "ratio floor (no sync) leads");
        assert!(
            commit.attachments.iter().any(|(k, _)| k == "wal_stats"),
            "raw WAL counters ride along"
        );
        let rec = &tables[1];
        assert_eq!(rec.rows.len(), 3);
        assert_eq!(rec.headers[3..5], ["redundant", "diverged"]);
        for row in &rec.rows {
            assert!(row[2].parse::<u64>().unwrap() > 0, "served writes replay on reopen");
        }
        let edge = &tables[2];
        assert_eq!(edge.headers[4..6], ["redundant", "diverged"]);
        assert_eq!((edge.rows[0][0].as_str(), edge.rows[1][0].as_str()), ("1", "2"));
        for row in &edge.rows {
            assert!(row[3].parse::<u64>().unwrap() > 0, "effective writes reach the sink");
        }
    }

    /// One edge worker executes its epochs one after another, and the log
    /// records each epoch in the order the engine ran it: every replayed
    /// record takes effect and recovery rebuilds exactly what was live
    /// ([`cell`] asserts it of every one-worker cell; the rows are checked
    /// again here). The priority-queue mix is where that order shows — an
    /// extract-min runs where key 1 sorts and logs the removal of whichever
    /// key it popped, so an epoch logged in arrival order would put the pop
    /// of `k` after an insert of `k` that arrived before it and ran after it.
    #[test]
    fn one_worker_log_order_is_execution_order() {
        let cfg = ExpConfig::tiny(1);
        let tables = run(&cfg);
        for row in &tables[1].rows {
            assert_eq!((row[3].as_str(), row[4].as_str()), ("0", "0"), "{row:?}");
        }
        let one = &tables[2].rows[0];
        assert_eq!((one[4].as_str(), one[5].as_str()), ("0", "0"), "{one:?}");
        let n_ops = cfg.ops_override.expect("tiny runs fix their op count");
        let load = Load {
            mix: ServeMix::PQ,
            range: cfg.anchor_range(),
            window: 256,
        };
        let pq = cell(&cfg, &load, DurabilityContract::Buffered, 1, n_ops);
        assert!(pq.stats.records > 0);
        assert_eq!((pq.rec.redundant_replays, pq.diverged), (0, 0), "extract-min mix");
    }
}
