//! The traced run: the `edge-closed-hot` op stream executed at every depth of
//! the stack from outside — generator only, raw handle loop, batched entry
//! point, cluster routing, the edge's engine seam, the in-process serve
//! pipeline, the WAL append, the wire codec, an engine-less ping, and the
//! full loopback edge with and without a durable sink — so that each layer
//! has its own ns/op and the delta it adds is visible. The two full-edge
//! rungs keep one span per request and per group commit and write them to
//! `trace.json`.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::hint::black_box;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use gfsl::batch::{BatchOp, BatchReply};
use gfsl_durable::{scan_wal, DurabilityContract, Failpoints, Wal, WalOp};
use gfsl_edge::proto::{decode_req, decode_resp};
use gfsl_edge::{Req, Resp};
use gfsl_serve::request::to_batch_op;
use gfsl_serve::{
    serve, ExecMode, KeySorted, Reply, Request, RequestSource, Response, ServeConfig,
};
use gfsl_workload::ServeOp;

use crate::edge::{self, closed_loop, Recorder, Rig, Status, CLIENTS, PONG};
use crate::engine::{self, Driven};
use crate::gen::{self, Mix, Rng};
use crate::oracle::{reply_code, Oracle, ABSENT, FAILED};
use crate::quant::quantile;
use crate::store::Store;
use crate::trial::{edge_run, EdgeOutcome, Row};

const RAW: &str = "raw handle loop";
const BATCH: &str = "execute_batch_hinted";
const ROUTED: &str = "cluster routed";
const SEAM_SINGLE: &str = "EdgeEngine::execute single";
const EDGE: &str = "loopback edge";

/// Ops per batch / epoch on the batched rungs.
const EPOCH: usize = 64;
/// Closed-loop clients of the `serve()` rung.
const SERVE_CLIENTS: usize = 64;
/// Records per group on the WAL-append rung.
const WAL_GROUP: usize = 16;
/// The sync-bound durable rung runs this fraction of the stream.
const WAL_RUNG_SHARE: usize = 8;
/// Request spans written per rung; the rest are counted, not written.
const SPANS_WRITTEN: usize = 100_000;

pub struct Rung {
    pub name: &'static str,
    pub ns_per_op: f64,
    /// The rung this one is stacked on; its delta is taken against that one.
    /// `None` for a rung that stands alone (its whole cost is what it adds).
    pub over: Option<&'static str>,
}

pub struct Ladder {
    pub rungs: Vec<Rung>,
    /// Every ladder metric, plus — as the value a workload falls back to when
    /// it does not cross a layer itself — the client, edge and durable
    /// counters of the two full-edge rungs.
    pub row: Row,
    pub attempted: u64,
    pub mismatches: u64,
    /// Goodput of the traced full-edge rung, ops/s.
    pub traced_goodput: f64,
}

/// Closed-loop clients replaying one stream through `serve()`: request `i`
/// of the stream is issued by whichever client is due next. Keeps exact
/// formation waits (the serve layer's own histogram is log2).
///
/// Each client thinks for a seeded exponential pause between a reply and its
/// next request. `serve()` runs on a virtual clock that jumps over idle time,
/// so thinking costs no wall time; it is there because a zero-think client
/// re-arrives at the very instant the next epoch forms and its formation wait
/// is 0 by construction, which measures nothing.
struct StreamSource<'a> {
    ops: &'a [ServeOp],
    next: usize,
    due: BinaryHeap<Reverse<(u64, u32)>>,
    outstanding: usize,
    think: Rng,
    codes: Vec<u32>,
    waits_ns: Vec<u64>,
    sheds: u64,
}

/// Mean think time of a `serve()` rung client: half the epoch deadline.
const THINK_MEAN_NS: f64 = 100_000.0;

impl<'a> StreamSource<'a> {
    fn new(ops: &'a [ServeOp], clients: usize, seed: u64) -> StreamSource<'a> {
        let mut src = StreamSource {
            ops,
            next: 0,
            due: BinaryHeap::new(),
            outstanding: 0,
            think: Rng::stream(seed, 3),
            codes: vec![FAILED; ops.len()],
            waits_ns: Vec::with_capacity(ops.len()),
            sheds: 0,
        };
        for c in 0..clients.min(ops.len()) as u32 {
            src.outstanding += 1;
            src.reschedule(0, c);
        }
        src
    }

    fn reschedule(&mut self, at_ns: u64, client: u32) {
        self.outstanding -= 1;
        if self.next + self.due.len() < self.ops.len() {
            let think = -THINK_MEAN_NS * (1.0 - self.think.unit()).ln();
            self.due.push(Reverse((at_ns + think as u64, client)));
        }
    }
}

impl RequestSource for StreamSource<'_> {
    fn peek_ns(&mut self) -> Option<u64> {
        self.due.peek().map(|&Reverse((t, _))| t)
    }

    fn take(&mut self) -> Request {
        let Reverse((t, client)) = self.due.pop().expect("take() without a pending peek");
        let id = self.next;
        self.next += 1;
        self.outstanding += 1;
        Request {
            client,
            id: id as u64,
            arrival_ns: t,
            op: self.ops[id],
        }
    }

    fn on_complete(&mut self, resp: &Response) {
        self.codes[resp.id as usize] = reply_code(&resp.reply);
        self.waits_ns.push(resp.wait_ns);
        self.reschedule(resp.done_ns, resp.client);
    }

    fn on_shed(&mut self, req: Request, now_ns: u64) {
        self.sheds += 1;
        self.reschedule(now_ns, req.client);
    }

    fn exhausted(&self) -> bool {
        self.due.is_empty() && self.outstanding == 0
    }
}

fn count_diff(got: &[u32], expect: &[u32]) -> u64 {
    got.iter().zip(expect).filter(|(a, b)| a != b).count() as u64
}

fn expected_resp(op: ServeOp, code: u32) -> Resp {
    match op {
        ServeOp::Get(_) => Resp::Got((code != ABSENT).then_some(code)),
        ServeOp::Insert(..) => Resp::Inserted(code == 1),
        _ => Resp::Deleted(code == 1),
    }
}

/// Run the ladder over `n` ops of the `edge-closed-hot` stream for `seed`.
pub fn run(seed: u64, n: usize, trace_out: &Path) -> Ladder {
    let mut rungs = Vec::new();
    let mut row = Row::new();
    let mut mismatches = 0u64;
    let mut attempted = 0u64;
    let per_op = |t: Instant| t.elapsed().as_nanos() as f64 / n as f64;
    let mut rung = |name: &'static str, over: Option<&'static str>, ns_per_op: f64| {
        rungs.push(Rung {
            name,
            ns_per_op,
            over,
        })
    };

    // Generator only.
    let t = Instant::now();
    let ops = gen::hot_stream(seed, Mix::C80, n);
    rung("generator", None, per_op(t));

    // What every rung must answer, and the writes that take effect.
    let mut oracle = Oracle::new(gen::HOT_SPAN, gen::hot_prefill());
    let expect: Vec<u32> = ops.iter().map(|&op| oracle.apply(op)).collect();
    let effects: Vec<WalOp> = ops
        .iter()
        .zip(&expect)
        .filter_map(|(&op, &code)| match op {
            ServeOp::Insert(key, val) if code == 1 => Some(WalOp::Put { key, val }),
            ServeOp::Delete(key) if code == 1 => Some(WalOp::Del { key }),
            _ => None,
        })
        .collect();
    let mut check = |codes: &[u32], store: &Store| {
        attempted += n as u64;
        mismatches += count_diff(codes, &expect) + oracle.diff_pairs(&store.pairs());
    };

    // One discarded pass, so the first measured rung does not pay for the
    // process's first page faults.
    let store = Store::hot(false);
    let Store::Single(list) = &store else {
        unreachable!()
    };
    engine::drive(&mut list.handle(), &ops, &mut Driven::new(n));

    // Raw handle loop: one long-lived handle, try_get / try_insert / try_remove.
    let store = Store::hot(false);
    let Store::Single(list) = &store else {
        unreachable!()
    };
    let mut driven = Driven::new(n);
    let t = Instant::now();
    engine::drive(&mut list.handle(), &ops, &mut driven);
    let raw = per_op(t);
    rung(RAW, None, raw);
    check(&driven.codes, &store);
    row.insert("gfsl-core.raw_ns_per_op".into(), raw);

    // execute_batch_hinted, 64-op batches, one long-lived handle.
    let store = Store::hot(false);
    let Store::Single(list) = &store else {
        unreachable!()
    };
    let batch: Vec<BatchOp> = ops.iter().map(|&op| to_batch_op(op)).collect();
    let mut out: Vec<BatchReply> = Vec::with_capacity(n);
    let mut h = list.handle();
    let t = Instant::now();
    for ops in batch.chunks(EPOCH) {
        h.execute_batch_hinted(ops, &mut out);
    }
    let ns = per_op(t);
    drop(h);
    rung(BATCH, Some(RAW), ns);
    let codes: Vec<u32> = out
        .into_iter()
        .map(|r| reply_code(&Reply::from(r)))
        .collect();
    check(&codes, &store);
    row.insert("gfsl-core.batch_ns_per_op".into(), ns);

    // Cluster routed: Cluster::{get, insert, remove} per op, 4 shards.
    let store = Store::hot(true);
    let Store::Cluster(cluster) = &store else {
        unreachable!()
    };
    let mut codes = vec![FAILED; n];
    let t = Instant::now();
    for (code, &op) in codes.iter_mut().zip(&ops) {
        *code = match op {
            ServeOp::Get(k) => cluster.get(k).map(|v| v.unwrap_or(ABSENT)),
            ServeOp::Insert(k, v) => cluster.insert(k, v).map(u32::from),
            ServeOp::Delete(k) => cluster.remove(k).map(u32::from),
            other => panic!("the benchmark generates no {other:?}"),
        }
        .unwrap_or(FAILED);
    }
    let ns = per_op(t);
    rung(ROUTED, Some(RAW), ns);
    check(&codes, &store);
    row.insert("cluster.route_ns_per_op".into(), ns);
    row.insert("cluster.route_overhead_ns".into(), ns - raw);

    // The edge's engine seam, 64-op epochs, on both engines.
    let mut engine_single = 0.0;
    for (name, over, metric, store) in [
        (
            SEAM_SINGLE,
            BATCH,
            "edge.engine_single_ns_per_op",
            Store::hot(false),
        ),
        (
            "EdgeEngine::execute cluster",
            ROUTED,
            "edge.engine_cluster_ns_per_op",
            Store::hot(true),
        ),
    ] {
        let eng = store.engine();
        let mut out: Vec<Reply> = Vec::with_capacity(n);
        let t = Instant::now();
        for epoch in ops.chunks(EPOCH) {
            eng.execute(epoch, &mut out);
        }
        let ns = per_op(t);
        drop(eng);
        rung(name, Some(over), ns);
        let codes: Vec<u32> = out.iter().map(reply_code).collect();
        check(&codes, &store);
        row.insert(metric.into(), ns);
        if engine_single == 0.0 {
            engine_single = ns;
        }
    }

    // serve(): the in-process epoch pipeline, key-sorted, one worker, with the
    // edge's own epoch size and deadline.
    let store = Store::hot(false);
    let Store::Single(list) = &store else {
        unreachable!()
    };
    let edge_cfg = gfsl_edge::EdgeConfig::default();
    let cfg = ServeConfig {
        epoch_ns: edge_cfg.epoch_us * 1_000,
        batch_ops: edge_cfg.batch_ops,
        max_batch: edge_cfg.batch_ops,
        intake_cap: edge_cfg.intake_cap,
        exec: ExecMode::Measured,
        ..ServeConfig::new(1)
    };
    let mut src = StreamSource::new(&ops, SERVE_CLIENTS, seed);
    let t = Instant::now();
    let report = serve(list, &cfg, &mut KeySorted::default(), &mut src);
    let ns = per_op(t);
    rung("serve() pipeline", Some(BATCH), ns);
    check(&src.codes, &store);
    src.waits_ns.sort_unstable();
    let m = &report.metrics;
    row.insert("serve.pipeline_ns_per_op".into(), ns);
    row.insert(
        "serve.formation_wait_p50_us".into(),
        quantile(&src.waits_ns, 0.5) / 1e3,
    );
    row.insert(
        "serve.batch_occupancy".into(),
        m.ops as f64 / m.batches.max(1) as f64,
    );
    row.insert(
        "serve.sheds".into(),
        (m.sheds + m.degraded_sheds).max(src.sheds) as f64,
    );

    // Wal::append of 16-record groups with no sync: format + write alone.
    // Then scan the log and replay it onto the prefill.
    let dir = edge::scratch_dir("ladder-wal");
    let mut wal = Wal::create(&dir, DurabilityContract::Buffered, 1024).expect("create WAL");
    let mut hook = Failpoints::Off;
    let groups = effects.chunks(WAL_GROUP).count().max(1);
    let t = Instant::now();
    for group in effects.chunks(WAL_GROUP) {
        wal.append(group, &mut hook).expect("append");
    }
    let total_ns = t.elapsed().as_nanos() as f64;
    drop(wal);
    rung("Wal::append buffered", None, total_ns / n as f64);
    row.insert(
        "durable.append_buffered_us".into(),
        total_ns / groups as f64 / 1e3,
    );
    let store = Store::hot(false);
    let Store::Single(list) = &store else {
        unreachable!()
    };
    let t = Instant::now();
    let scanned = scan_wal(&dir).expect("scan ladder WAL");
    let mut h = list.handle();
    for r in &scanned.records {
        let done = match r.op {
            WalOp::Put { key, val } => h.try_insert(key, val),
            WalOp::Del { key } => h.try_remove(key),
        };
        mismatches += u64::from(done != Ok(true));
    }
    let replay_s = t.elapsed().as_secs_f64();
    drop(h);
    mismatches +=
        oracle.diff_pairs(&store.pairs()) + (scanned.records.len() != effects.len()) as u64;
    row.insert(
        "durable.replay_mrec_s".into(),
        scanned.records.len().max(1) as f64 / replay_s / 1e6,
    );
    let _ = std::fs::remove_dir_all(&dir);

    // Wire codec: encode + decode of the request and of its reply.
    let mut buf = Vec::with_capacity(64);
    let t = Instant::now();
    for (i, (&op, &code)) in ops.iter().zip(&expect).enumerate() {
        buf.clear();
        edge::op_req(op).encode(i as u64, &mut buf);
        let (_, req, used) = decode_req(black_box(&buf)).expect("own frame decodes");
        expected_resp(op, code).encode(i as u64, &mut buf);
        let (_, resp, _) = decode_resp(black_box(&buf[used..])).expect("own frame decodes");
        black_box((req, resp));
    }
    let ns = per_op(t);
    rung("wire codec", None, ns);
    row.insert("edge.proto_ns_per_frame".into(), ns / 2.0);

    // Pipelined Ping, as deep as the edge workloads' window: sockets, session
    // and framing, with no engine behind them.
    let rig = Rig::start(Store::hot(false), None, false);
    let mut client = rig.connect();
    let mut rec = Recorder::new(n, edge::CLOSED_SLICE);
    let wall_ns = closed_loop(&mut client, &vec![Req::Ping; n], CLIENTS, &mut rec);
    drop(client);
    rig.stop();
    let ping = wall_ns as f64 / n as f64;
    rung("pipelined Ping", None, ping);
    attempted += n as u64;
    mismatches += rec.code.iter().filter(|&&c| c != PONG).count() as u64;
    row.insert("edge.ping_ns_per_op".into(), ping);

    // Full loopback edge, spans kept; then the same with a durable sink on a
    // prefix of the stream (every commit waits for an fdatasync).
    let plain = edge_run(&ops, None, false, None, true);
    let durable = edge_run(
        &ops[..(n / WAL_RUNG_SHARE).max(CLIENTS.min(n))],
        None,
        false,
        Some(DurabilityContract::DataSynced),
        true,
    );
    let traced_goodput = plain.row["goodput_ops_s"];
    let edge_ns = 1e9 / traced_goodput;
    rung(EDGE, Some(SEAM_SINGLE), edge_ns);
    rung(
        "loopback edge + WAL",
        Some(EDGE),
        1e9 / durable.row["goodput_ops_s"],
    );
    for outcome in [&plain, &durable] {
        attempted += outcome.row["attempted"] as u64;
        mismatches += outcome.row["failed"] as u64 + outcome.row["violations"] as u64;
    }
    for (name, v) in &plain.row {
        if name.starts_with("client.")
            || name.starts_with("edge.")
            || name.starts_with("gpu-mem.")
            || name == "gfsl-core.zombie_fraction"
        {
            row.insert(name.clone(), *v);
        }
    }
    for (name, v) in &durable.row {
        if name.starts_with("durable.") {
            row.insert(name.clone(), *v);
        }
    }
    row.insert("edge.overhead_ns_per_op".into(), edge_ns - engine_single);
    row.insert("workload.gen_ns_per_op".into(), rungs[0].ns_per_op);

    write_trace(
        trace_out,
        &[("edge", &ops, &plain), ("edge+wal", &ops, &durable)],
    )
    .expect("write trace.json");

    Ladder {
        rungs,
        row,
        attempted,
        mismatches,
        traced_goodput,
    }
}

/// The commit each acknowledged write rode in. Per-key order is preserved end
/// to end, so the k-th logged effect on a key belongs to the k-th successful
/// write request on that key.
fn commit_children(ops: &[ServeOp], out: &EdgeOutcome) -> Vec<Vec<u32>> {
    let Some(sink) = &out.sink else {
        return Vec::new();
    };
    let Some(keys) = &sink.keys else {
        return Vec::new();
    };
    let mut writers: Vec<VecDeque<u32>> = vec![VecDeque::new(); gen::HOT_SPAN as usize + 1];
    for i in 0..out.rec.status.len() {
        let wrote = out.rec.status[i] == Status::Answered && out.rec.code[i] == 1;
        if wrote && !ops[i].is_read_only() {
            writers[ops[i].key() as usize].push_back(i as u32);
        }
    }
    let mut at = 0;
    sink.commits
        .iter()
        .map(|c| {
            let ids = keys[at..at + c.records as usize]
                .iter()
                .filter_map(|&k| writers[k as usize].pop_front())
                .collect();
            at += c.records as usize;
            ids
        })
        .collect()
}

/// Spans are kept in memory during the run and written here, after it.
/// One `request` span per request (id = stream index = wire id − 1, parent =
/// the commit it waited for, if any) and one `commit` span per group commit
/// with the requests it covers as children.
fn write_trace(path: &Path, rungs: &[(&str, &[ServeOp], &EdgeOutcome)]) -> std::io::Result<()> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    write!(w, "{{\"clock\":\"ns since process start\",\"rungs\":[")?;
    for (r, (name, ops, out)) in rungs.iter().enumerate() {
        let children = commit_children(ops, out);
        let n = out.rec.status.len();
        let mut parent = vec![u32::MAX; n];
        for (c, ids) in children.iter().enumerate() {
            for &i in ids {
                parent[i as usize] = c as u32;
            }
        }
        if r > 0 {
            write!(w, ",")?;
        }
        write!(
            w,
            "\n{{\"rung\":\"{name}\",\"requests_recorded\":{n},\"requests_written\":{},\"spans\":[",
            n.min(SPANS_WRITTEN)
        )?;
        let mut first = true;
        for (i, &commit) in parent.iter().enumerate().take(SPANS_WRITTEN) {
            if out.rec.status[i] != Status::Answered {
                continue;
            }
            let sep = if std::mem::take(&mut first) { "" } else { "," };
            write!(
                w,
                "{sep}\n{{\"name\":\"request\",\"id\":{i},\"start_ns\":{},\"end_ns\":{},\"parent\":",
                out.rec.start[i], out.rec.end[i]
            )?;
            match commit {
                u32::MAX => write!(w, "null}}")?,
                c => write!(w, "\"c{c}\"}}")?,
            }
        }
        if let Some(sink) = &out.sink {
            for (c, (commit, ids)) in sink.commits.iter().zip(&children).enumerate() {
                let sep = if std::mem::take(&mut first) { "" } else { "," };
                write!(
                    w,
                    "{sep}\n{{\"name\":\"commit\",\"id\":\"c{c}\",\"start_ns\":{},\"end_ns\":{},\"records\":{},\"children\":{ids:?}}}",
                    commit.start_ns,
                    commit.start_ns + commit.dur_ns,
                    commit.records
                )?;
            }
        }
        write!(w, "]}}")?;
    }
    writeln!(w, "\n]}}")?;
    w.flush()
}
