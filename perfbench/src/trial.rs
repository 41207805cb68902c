//! One trial of one workload: generate the seeded inputs, set up a fresh
//! structure (timed as set-up), run the fixed number of operations (the only
//! timed section), then check every reply and the final contents against the
//! sequential oracle and read the layers' counters — all outside the timing.

use std::collections::BTreeMap;
use std::time::Instant;

use gfsl::{GfslParams, OpStats};
use gfsl_durable::{scan_wal, DurabilityContract, WalOp};
use gfsl_edge::Req;
use gfsl_workload::ServeOp;

use crate::edge::{self, closed_loop, open_loop, Recorder, Rig, Status, TimedSink, CLIENTS};
use crate::engine::{self, Driven};
use crate::gen::{self, Mix};
use crate::oracle::Oracle;
use crate::quant::{quantile, Lane};
use crate::schema::{Shape, Workload};
use crate::store::{Store, StoreReading};

/// Metric name → value. Holds the end-to-end metrics, every per-layer metric
/// the workload produces itself, and bookkeeping (`attempted`, `failed`, …).
pub type Row = BTreeMap<String, f64>;

/// What one trial reports: its own readings, taken over the trial as a whole,
/// and its slices — one lane per engine thread, or one for the connection —
/// from which a run of several trials takes its timings (`quant::fastest`).
#[derive(Debug, Clone, Default)]
pub struct Trial {
    pub row: Row,
    pub lanes: Vec<Lane>,
}

fn put(row: &mut Row, name: &str, v: f64) {
    row.insert(name.to_string(), v);
}

/// Set-up is small next to a trial, so it is repeated — up to 64 times or
/// 100 ms, whichever ends first — and the trial's `setup_s` is the fastest of
/// the repeats (a run then reports the fastest of its trials): a tenth of a
/// millisecond of thread spawns, `bind` and page faults is mostly kernel work,
/// which a busy host stretches by half for whole trials at a time, and only
/// the undisturbed repeat says what set-up costs. The last one built is kept.
fn timed_setup<T>(mut build: impl FnMut() -> T, discard: impl Fn(T)) -> (T, f64) {
    let (mut repeats, mut total, mut fastest) = (0, 0.0, f64::INFINITY);
    loop {
        let t = Instant::now();
        let built = build();
        let took = t.elapsed().as_secs_f64();
        repeats += 1;
        total += took;
        fastest = took.min(fastest);
        if repeats == 64 || total >= 0.1 {
            return (built, fastest);
        }
        discard(built);
    }
}

fn discard_rig(rig: Rig) {
    let (_, _, _, dir) = rig.stop();
    if let Some(dir) = dir {
        let _ = std::fs::remove_dir_all(dir);
    }
}

fn lat_metrics(row: &mut Row, sorted_ns: &[u64]) {
    let us = |q| quantile(sorted_ns, q) / 1e3;
    put(row, "lat_p50_us", us(0.5));
    put(row, "lat_p90_us", us(0.9));
    put(row, "client.lat_p99_us", us(0.99));
    put(row, "client.lat_p999_us", us(0.999));
    put(row, "lat_samples", sorted_ns.len() as f64);
}

fn store_metrics(row: &mut Row, r: &StoreReading, ops: usize) {
    let kops = ops as f64 / 1e3;
    put(row, "space_amp", r.space_amp(GfslParams::default().lanes()));
    put(row, "gfsl-core.zombie_fraction", r.zombie_fraction());
    put(row, "gpu-mem.reclaimed_per_kop", r.reclaimed as f64 / kops);
    put(row, "gpu-mem.reuse_ratio", r.reuse_ratio());
    put(row, "gpu-mem.limbo_end", r.limbo as f64);
    put(
        row,
        "gpu-mem.pool_high_water_chunks",
        r.chunks_allocated as f64,
    );
    put(row, "violations", r.violations as f64);
}

fn core_metrics(row: &mut Row, s: &OpStats, ops: usize, read_drift: f64) {
    let kops = ops as f64 / 1e3;
    put(
        row,
        "gfsl-core.chunk_reads_per_op",
        s.chunk_reads as f64 / ops as f64,
    );
    put(row, "gfsl-core.read_drift", read_drift);
    put(row, "gfsl-core.splits_per_kop", s.splits as f64 / kops);
    put(row, "gfsl-core.merges_per_kop", s.merges as f64 / kops);
    put(
        row,
        "gfsl-core.zombie_unlinks_per_kop",
        s.zombie_unlinks as f64 / kops,
    );
    put(
        row,
        "gfsl-core.lock_retries_per_kop",
        s.lock_retries as f64 / kops,
    );
    put(
        row,
        "gfsl-core.certify_retries_per_kop",
        s.certify_retries as f64 / kops,
    );
    put(row, "gfsl-core.search_restarts", s.search_restarts as f64);
}

/// `TimedSink` counters over a trial of `wall_ns`.
pub fn durable_metrics(row: &mut Row, sink: &TimedSink, wal_bytes: u64, wall_ns: u64) {
    let mut durs: Vec<u64> = sink.commits.iter().map(|c| c.dur_ns).collect();
    durs.sort_unstable();
    let busy: u64 = durs.iter().sum();
    let commits = durs.len().max(1) as f64;
    let records = sink.wal.stats.records.max(1) as f64;
    put(row, "durable.commit_mean_us", busy as f64 / commits / 1e3);
    put(row, "durable.commit_p99_us", quantile(&durs, 0.99) / 1e3);
    put(row, "durable.recs_per_commit", records / commits);
    put(
        row,
        "durable.busy_share",
        busy as f64 / wall_ns.max(1) as f64,
    );
    put(row, "durable.syncs", sink.wal.stats.syncs as f64);
    put(
        row,
        "durable.bytes_per_user_byte",
        wal_bytes as f64 / (records * 8.0),
    );
}

/// Everything an edge run leaves behind, for the checks and for the ladder's
/// span writer.
pub struct EdgeOutcome {
    pub row: Row,
    pub rec: Recorder,
    pub sink: Option<TimedSink>,
}

/// One trial over the loopback edge. `due_ns` makes it open loop.
pub fn edge_run(
    ops: &[ServeOp],
    due_ns: Option<&[u64]>,
    cluster: bool,
    wal: Option<DurabilityContract>,
    traced: bool,
) -> EdgeOutcome {
    let n = ops.len();
    let reqs: Vec<Req> = ops.iter().map(|&op| edge::op_req(op)).collect();
    let slice = if due_ns.is_some() {
        edge::OPEN_SLICE
    } else {
        edge::CLOSED_SLICE
    };
    let mut rec = Recorder::new(n, slice);
    let mut row = Row::new();

    let (rig, setup_s) = timed_setup(|| Rig::start(Store::hot(cluster), wal, traced), discard_rig);
    let mut client = rig.connect();
    let wall_ns = match due_ns {
        Some(due) => open_loop(&mut client, &reqs, due, &mut rec),
        None => closed_loop(&mut client, &reqs, CLIENTS, &mut rec),
    };
    drop(client);
    let (store, stats, sink, wal_dir) = rig.stop();

    // Replies, then final contents, against the oracle. A request the server
    // shed (or the driver dropped) never ran, so the oracle skips it.
    let mut oracle = Oracle::new(gen::HOT_SPAN, gen::hot_prefill());
    let mut mismatches = oracle.replay(ops, &rec.code, |i| rec.status[i] == Status::Answered);
    let live = store.pairs();
    mismatches += oracle.diff_pairs(&live);
    let reading = store.read();

    if let (Some(sink), Some(dir)) = (&sink, &wal_dir) {
        // Every acknowledged write is in the log: the log replayed onto the
        // prefill must give the live contents.
        let scanned = scan_wal(dir).expect("scan the trial's WAL");
        let mut logged = Oracle::new(gen::HOT_SPAN, gen::hot_prefill());
        for r in &scanned.records {
            match r.op {
                WalOp::Put { key, val } => logged.put(key, Some(val)),
                WalOp::Del { key } => logged.put(key, None),
            }
        }
        mismatches += logged.diff_pairs(&live);
        durable_metrics(&mut row, sink, edge::dir_bytes(dir), wall_ns);
        let _ = std::fs::remove_dir_all(dir);
    }

    let answered = rec.count(Status::Answered);
    let sheds = rec.count(Status::Shed);
    let failed = n as u64 - answered + mismatches;
    let wall_s = wall_ns as f64 / 1e9;
    put(&mut row, "attempted", n as f64);
    put(&mut row, "failed", failed.min(n as u64) as f64);
    put(&mut row, "mismatches", mismatches as f64);
    put(&mut row, "sheds", sheds as f64);
    put(&mut row, "unanswered", rec.count(Status::Unanswered) as f64);
    put(&mut row, "wall_s", wall_s);
    put(
        &mut row,
        "goodput_ops_s",
        answered.saturating_sub(mismatches) as f64 / wall_s,
    );
    lat_metrics(&mut row, &rec.latencies());
    store_metrics(&mut row, &reading, n);
    let mut late = std::mem::take(&mut rec.late);
    late.sort_unstable();
    put(
        &mut row,
        "client.gen_late_p99_us",
        quantile(&late, 0.99) / 1e3,
    );
    let served = stats.ops_ok + stats.ops_failed;
    put(
        &mut row,
        "edge.ops_per_epoch",
        served as f64 / stats.epochs.max(1) as f64,
    );
    put(
        &mut row,
        "edge.shed_ratio",
        stats.sheds as f64 / (served + stats.sheds).max(1) as f64,
    );
    put(&mut row, "edge.ryw_violations", stats.ryw_violations as f64);
    put(&mut row, "setup_s", setup_s);
    EdgeOutcome { row, rec, sink }
}

/// The single structure a workload's stream runs against, in process: how it
/// is built, and the largest key the stream can name. The edge workloads have
/// one too, for the modelled replay.
struct Cell {
    params: GfslParams,
    prefill: fn() -> Box<dyn Iterator<Item = (u32, u32)>>,
    max_key: u32,
}

impl Cell {
    fn of(w: &Workload, scale: f64) -> Cell {
        let (params, prefill, max_key): (_, fn() -> Box<dyn Iterator<Item = _>>, _) = match w.shape
        {
            Shape::EngineBig => (
                GfslParams::sized_for(u64::from(gen::BIG_RANGE)),
                || Box::new(gen::big_prefill()),
                gen::BIG_RANGE,
            ),
            Shape::EngineChurn => (
                GfslParams::default(),
                || Box::new(gen::churn_prefill()),
                gen::CHURN_WINDOW + (w.ops(scale) / 2) as u32 + 1,
            ),
            Shape::EdgeClosed { .. } | Shape::EdgeOpen { .. } | Shape::EngineHot2 => (
                GfslParams::default(),
                || Box::new(gen::hot_prefill()),
                gen::HOT_SPAN,
            ),
        };
        Cell {
            params,
            prefill,
            max_key,
        }
    }

    fn build(&self) -> Store {
        Store::single(self.params, (self.prefill)())
    }
}

/// One trial of in-process engine threads, one stream per thread.
fn engine_run(cell: &Cell, streams: &[Vec<ServeOp>]) -> Trial {
    let mut row = Row::new();
    let (store, setup_s) = timed_setup(|| cell.build(), drop);
    let Store::Single(list) = &store else {
        unreachable!()
    };
    let driven = engine::run_threads(list, streams);

    let mut oracle = Oracle::new(cell.max_key, (cell.prefill)());
    let mut mismatches = 0;
    for (ops, d) in streams.iter().zip(&driven) {
        mismatches += oracle.replay(ops, &d.codes, |_| true);
    }
    mismatches += oracle.diff_pairs(&store.pairs());
    let reading = store.read();

    let n: usize = streams.iter().map(Vec::len).sum();
    let start = driven.iter().map(|d| d.start_ns).min().unwrap_or(0);
    let end = driven.iter().map(|d| d.end_ns).max().unwrap_or(0);
    let wall_s = (end - start) as f64 / 1e9;
    let mut stats = OpStats::new();
    let mut lat = Vec::new();
    for d in &driven {
        stats.merge(&d.stats);
        lat.extend_from_slice(&d.lat);
    }
    lat.sort_unstable();
    put(&mut row, "attempted", n as f64);
    put(&mut row, "failed", mismatches.min(n as u64) as f64);
    put(&mut row, "mismatches", mismatches as f64);
    put(&mut row, "wall_s", wall_s);
    put(
        &mut row,
        "goodput_ops_s",
        (n as u64).saturating_sub(mismatches) as f64 / wall_s,
    );
    lat_metrics(&mut row, &lat);
    store_metrics(&mut row, &reading, n);
    core_metrics(
        &mut row,
        &stats,
        n,
        Driven::read_drift(&driven.iter().collect::<Vec<_>>()),
    );
    put(&mut row, "setup_s", setup_s);
    Trial {
        row,
        lanes: driven.iter().map(Driven::lane).collect(),
    }
}

/// The seeded inputs of a trial — every trial of a run executes the same —
/// and how long they took to make.
pub struct Inputs {
    streams: Vec<Vec<ServeOp>>,
    due_ns: Option<Vec<u64>>,
    gen_ns_per_op: f64,
}

pub fn inputs(w: &Workload, seed: u64, scale: f64) -> Inputs {
    let n = w.ops(scale);
    let t = Instant::now();
    let (streams, due_ns) = match w.shape {
        Shape::EdgeClosed { mix, .. } => (vec![gen::hot_stream(seed, mix, n)], None),
        Shape::EdgeOpen { rate } => (
            vec![gen::hot_stream(seed, Mix::C80, n)],
            Some(gen::poisson_due_ns(seed, rate, n)),
        ),
        Shape::EngineBig => (
            vec![
                gen::big_stream(seed, 0, n / 2),
                gen::big_stream(seed, 1, n / 2),
            ],
            None,
        ),
        Shape::EngineChurn => (vec![gen::churn_stream(seed, n / 2)], None),
        Shape::EngineHot2 => (
            vec![
                gen::hot2_stream(seed, 0, n / 2),
                gen::hot2_stream(seed, 1, n / 2),
            ],
            None,
        ),
    };
    Inputs {
        streams,
        due_ns,
        gen_ns_per_op: t.elapsed().as_nanos() as f64 / n as f64,
    }
}

/// Run one trial of `w` on `inp`, its inputs at `scale`.
pub fn run(w: &Workload, inp: &Inputs, scale: f64) -> Trial {
    let edge = |due: Option<&[u64]>, cluster, wal| {
        let ops = &inp.streams[0];
        let out = edge_run(ops, due, cluster, wal, false);
        let window = due.is_none().then_some(CLIENTS.min(ops.len()));
        Trial {
            row: out.row,
            lanes: vec![out.rec.lane(window)],
        }
    };
    let mut trial = match w.shape {
        Shape::EdgeClosed { cluster, wal, .. } => {
            edge(None, cluster, wal.then_some(DurabilityContract::DataSynced))
        }
        Shape::EdgeOpen { .. } => edge(inp.due_ns.as_deref(), false, None),
        Shape::EngineBig | Shape::EngineChurn | Shape::EngineHot2 => {
            engine_run(&Cell::of(w, scale), &inp.streams)
        }
    };
    put(&mut trial.row, "workload.gen_ns_per_op", inp.gen_ns_per_op);
    trial
}

/// Single-thread replay of the first `1M × scale` ops of `w`'s stream through
/// the L2 model: exact model counts, and — for the edge workloads, whose
/// handles live inside the server — the handle counters of the same stream.
pub fn replay(w: &Workload, inp: &Inputs, scale: f64) -> Row {
    let want = ((1e6 * scale) as usize).max(64);
    let store = Cell::of(w, scale).build();
    let ops: Vec<ServeOp> = match inp.streams.as_slice() {
        [one] => one.iter().copied().take(want).collect(),
        // The two threads' streams, alternating.
        [a, b] => a
            .iter()
            .zip(b)
            .flat_map(|(&a, &b)| [a, b])
            .take(want)
            .collect(),
        _ => unreachable!("a workload has one or two streams"),
    };
    let Store::Single(list) = &store else {
        unreachable!()
    };
    let (driven, traffic) = engine::replay_modeled(list, &ops);
    let n = ops.len();
    let mut row = Row::new();
    put(
        &mut row,
        "gpu-mem.model_txns_per_op",
        traffic.total_txns() as f64 / n as f64,
    );
    put(
        &mut row,
        "gpu-mem.model_l2_miss_per_op",
        traffic.l2_misses as f64 / n as f64,
    );
    if matches!(w.shape, Shape::EdgeClosed { .. } | Shape::EdgeOpen { .. }) {
        core_metrics(&mut row, &driven.stats, n, Driven::read_drift(&[&driven]));
    }
    row
}
