//! Durability tier: group-commit cost per fsync policy, and crash-restart
//! recovery. Not a paper artifact — this measures the `gfsl-durable`
//! subsystem layered on top of the paper's structure.
//!
//! **Group-commit table.** One serve pipeline per [`DurabilityContract`],
//! write-heavy mix, acks gated on the WAL sink: every epoch's effective
//! writes are appended and synced before any of its requests complete, so
//! the end-to-end latency histogram *is* the ack latency, durability
//! included. The interesting columns are the throughput ratio vs the
//! `buffered` floor (what the sync in the contract costs) and records per
//! group commit (how much of that cost the epoch batcher amortizes).
//!
//! **Recovery table.** Each engine is dropped as-is after its run — a
//! checkpoint of the prefill plus a WAL tail of everything served — then
//! reopened cold, timing the full pipeline: checkpoint page verification,
//! rebuild via sorted bulk load, LSN-gated tail replay, validation walk.
//! Only effective writes are logged, so a replayed record that changes
//! nothing (`redundant`) means the log's order for two same-key writes is
//! not the order they executed in, and `diverged` — pairs in exactly one of
//! the live structure at the drop and the recovered one — counts what that
//! cost: acknowledged writes lost or resurrected. Both are 0 with one
//! worker and not with two (ROADMAP item 1b has the counter-example); the
//! table reports them, nothing here hides or gates them.
//!
//! **Edge table.** The same two counts for the other commit path: an
//! [`EdgeServer`] whose workers group-commit through one shared sink. Each
//! worker locks the sink *after* running its own epoch, so with two
//! workers lock order is not execution order either. Two pipelined
//! connections (one per worker when there are two) write one small key
//! set; the sink's effects are replayed over the prefill and compared
//! with the structure at shutdown. Asserted 0 / 0 for one worker,
//! reported for two.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gfsl::{Gfsl, GfslParams, TeamSize};
use gfsl_durable::{destroy, DurabilityContract, DurableConfig, DurableGfsl};
use gfsl_edge::{EdgeClient, EdgeConfig, EdgeEngine, EdgeServer, Req};
use gfsl_serve::{serve_durable, ClosedSource, ExecMode, Fifo, MemorySink, ServeConfig};
use gfsl_workload::{ClosedLoop, ServeMix, SplitMix64};

use super::ExpConfig;
use crate::report::{mops, ratio, Table};

/// Write-heavy service mix: durability cost scales with effective writes,
/// so a lookup-dominated mix would mostly measure the structure again.
const MIX: ServeMix = ServeMix::new(30, 30, 40, 0, 0);

/// A structure's pairs as a set: `diverged` is the symmetric difference of
/// two of them.
fn pair_set(list: &Gfsl) -> BTreeSet<(u32, u32)> {
    list.pairs().into_iter().collect()
}

struct Cell {
    contract: DurabilityContract,
    report: gfsl_serve::ServiceReport,
    stats: gfsl_durable::WalStats,
    ckpt_pairs: u64,
    replayed: u64,
    redundant: u64,
    diverged: usize,
    recovered_keys: u64,
    recovery_s: f64,
}

fn measure(
    cfg: &ExpConfig,
    contract: DurabilityContract,
    mix: ServeMix,
    range: u32,
    n_ops: usize,
) -> Cell {
    // Unique per cell within a process: tests run cells concurrently.
    let dir = std::env::temp_dir().join(format!(
        "gfsl_repro_durable_{}_w{}_{}",
        contract.name(),
        cfg.workers,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let dcfg = DurableConfig {
        contract,
        // Large segments keep rotation off the measured path; the serve
        // soak covers small-segment churn.
        seg_records: 1 << 16,
        params: GfslParams {
            team_size: TeamSize::ThirtyTwo,
            pool_chunks: GfslParams::chunks_for(u64::from(range) + n_ops as u64, TeamSize::ThirtyTwo),
            seed: cfg.seed,
            ..Default::default()
        },
        ..DurableConfig::new(&dir)
    };
    let mut eng = DurableGfsl::create(&dcfg).expect("create durable engine");
    // Prefill straight into the structure (unlogged — these writes predate
    // the measurement), then checkpoint so recovery sees the realistic
    // shape: a checkpoint base plus a WAL tail of exactly the served ops.
    {
        let mut h = eng.list().handle();
        for k in (1..range).filter(|k| k % 2 == 0) {
            h.try_insert(k, k).expect("prefill");
        }
    }
    let ckpt_pairs = eng.checkpoint().expect("prefill checkpoint").n_pairs;

    let max_batch = 512;
    let scfg = ServeConfig {
        workers: cfg
            .workers
            .min(std::thread::available_parallelism().map_or(1, |p| p.get())),
        epoch_ns: 200_000,
        batch_ops: cfg.workers * max_batch,
        max_batch,
        intake_cap: (cfg.workers * max_batch * 4).max(8192),
        exec: ExecMode::Measured,
    };
    let clients = (4 * cfg.workers as u32 * 512).min((n_ops / 4).max(1) as u32);
    let pop = ClosedLoop::new(
        clients,
        (n_ops as u64).div_ceil(u64::from(clients)),
        0,
        mix,
        range,
        cfg.seed,
    );
    let mut src = ClosedSource::new(pop, 1_000);
    let (list, mut sink) = eng.serve_parts();
    let report = serve_durable(list, &scfg, &mut Fifo::default(), &mut src, &mut sink);
    let stats = eng.wal_stats();
    let live = pair_set(eng.list());

    // Crash-restart: drop the engine where it stands and reopen cold.
    drop(eng);
    let t0 = Instant::now();
    let (eng, rec) = DurableGfsl::open(&dcfg).expect("recovery");
    let recovery_s = t0.elapsed().as_secs_f64();
    // `replayed` counts every record past the cut, the redundant ones too.
    assert_eq!(
        rec.replayed, stats.records,
        "recovery must replay the whole served WAL tail"
    );
    let diverged = live.symmetric_difference(&pair_set(eng.list())).count();
    drop(eng);
    destroy(&dir).expect("cleanup");
    Cell {
        contract,
        report,
        stats,
        ckpt_pairs,
        replayed: rec.replayed,
        redundant: rec.redundant_replays,
        diverged,
        recovered_keys: rec.recovered_keys,
        recovery_s,
    }
}

/// Keys the edge cells write: few enough that two connections collide on
/// a key in nearly every epoch.
const EDGE_KEYS: u32 = 64;
/// Requests a connection keeps in flight: one edge epoch
/// ([`EdgeConfig::batch_ops`]), so nothing sheds.
const EDGE_WINDOW: u64 = 32;

/// One row of the edge table: `workers` edge workers over one structure
/// and one recording sink, two connections writing `ops_per_conn` inserts
/// and deletes each over [`EDGE_KEYS`] keys.
fn edge_row(cfg: &ExpConfig, workers: usize, ops_per_conn: u64) -> Vec<String> {
    let prefilled = || {
        Gfsl::prefilled(GfslParams::default(), (1..=EDGE_KEYS).filter(|k| k % 2 == 0))
            .expect("prefill")
    };
    let list = Arc::new(prefilled());
    let sink = Arc::new(Mutex::new(MemorySink::default()));
    let srv = EdgeServer::start_durable(
        EdgeEngine::Single(list.clone()),
        EdgeConfig {
            workers,
            ..EdgeConfig::default()
        },
        sink.clone(),
    )
    .expect("start edge server");
    let addr = srv.addr();
    std::thread::scope(|s| {
        for conn in 0..2u64 {
            s.spawn(move || {
                // The timeout turns a dead server into a failure, not a hang.
                let patience = Some(Duration::from_secs(10));
                let mut client = EdgeClient::connect(addr, patience).expect("connect");
                let mut rng = SplitMix64::new(cfg.seed ^ 0xED6E ^ conn << 32);
                let mut sent = 0;
                while sent < ops_per_conn {
                    let ids: Vec<u64> = (sent..ops_per_conn.min(sent + EDGE_WINDOW))
                        .map(|i| {
                            let k = 1 + rng.below(u64::from(EDGE_KEYS)) as u32;
                            // A value no other write carries.
                            let v = (conn * ops_per_conn + i) as u32;
                            let write = rng.below(2) == 0;
                            client.send(if write { Req::Insert(k, v) } else { Req::Delete(k) })
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
    srv.shutdown();

    // Recovery's replay (`gfsl_durable`'s), on a second copy of the prefill.
    let sink = sink.lock().expect("sink poisoned");
    let replayed = prefilled();
    let mut redundant = 0;
    {
        let mut h = replayed.handle();
        for e in &sink.effects {
            let effective = match e.value {
                Some(v) => h.try_insert(e.key, v),
                None => h.try_remove(e.key),
            }
            .expect("replay");
            redundant += u64::from(!effective);
        }
    }
    let diverged = pair_set(&list).symmetric_difference(&pair_set(&replayed)).count() as u64;
    if workers == 1 {
        // One worker runs its epochs one after another and logs each in
        // the order the engine ran it.
        assert_eq!((redundant, diverged), (0, 0), "one edge worker");
    }
    let records = sink.effects.len() as u64;
    [workers as u64, 2 * ops_per_conn, sink.commits, records, redundant, diverged]
        .iter()
        .map(u64::to_string)
        .collect()
}

/// Run the durable experiment: the group-commit policy table, the
/// crash-restart recovery table, and the edge's shared-sink log order.
pub fn run(cfg: &ExpConfig) -> Vec<Table> {
    let range = cfg.anchor_range();
    let n_ops = cfg
        .ops_override
        .unwrap_or(if cfg.quick { 120_000 } else { 600_000 });

    // Weakest contract first: it is the denominator of every ratio.
    let cells: Vec<Cell> = DurabilityContract::ALL
        .iter()
        .rev()
        .map(|&c| measure(cfg, c, MIX, range, n_ops))
        .collect();
    let floor = cells[0].report.metrics.mops().max(f64::MIN_POSITIVE);

    let mut t = Table::new(
        "Durable serve: group commit vs fsync policy ([30,30,40], anchor range)",
        &[
            "contract", "MOPS", "vs none", "ack p50 us", "ack p99 us", "commits",
            "records", "recs/commit", "syncs",
        ],
    );
    for c in &cells {
        let m = &c.report.metrics;
        t.row(vec![
            c.contract.name().into(),
            mops(m.mops()),
            ratio(m.mops() / floor),
            format!("{:.1}", m.latency.p50_ns() as f64 / 1.0e3),
            format!("{:.1}", m.latency.p99_ns() as f64 / 1.0e3),
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
            c.replayed.to_string(),
            c.redundant.to_string(),
            c.diverged.to_string(),
            c.recovered_keys.to_string(),
            format!("{:.1}", c.recovery_s * 1.0e3),
            format!("{:.2}", c.replayed as f64 / c.recovery_s.max(1e-9) / 1.0e6),
        ]);
    }

    let mut e = Table::new(
        "Durable edge: shared-sink log order vs execution order (two connections, 64 keys)",
        &["workers", "ops", "commits", "records", "redundant", "diverged"],
    );
    for workers in [1, 2] {
        e.row(edge_row(cfg, workers, n_ops as u64 / 2));
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

    /// One worker executes an epoch's batches one after another, and the
    /// log records each batch in the order the engine ran it: every replayed
    /// record takes effect and recovery rebuilds exactly what was live. The
    /// priority-queue mix is where that order shows — an extract-min runs
    /// where key 1 sorts and logs the removal of whichever key it popped, so
    /// a batch logged in arrival order would put the pop of `k` after an
    /// insert of `k` that arrived before it and ran after it.
    #[test]
    fn one_worker_log_order_is_execution_order() {
        let cfg = ExpConfig::tiny(1);
        for row in &run(&cfg)[1].rows {
            assert_eq!((row[3].as_str(), row[4].as_str()), ("0", "0"), "{row:?}");
        }
        let n_ops = cfg.ops_override.expect("tiny runs fix their op count");
        let pq = measure(&cfg, DurabilityContract::Buffered, ServeMix::PQ, cfg.anchor_range(), n_ops);
        assert!(pq.report.metrics.pops > 0 && pq.stats.records > 0);
        assert_eq!((pq.redundant, pq.diverged), (0, 0), "extract-min mix");
    }
}
