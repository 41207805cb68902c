//! End-to-end tests of the serving loop — the CI gate.
//!
//! `serve()` runs on one clock, the measured one, so which arrivals share
//! an epoch depends on the machine. These tests assert only what holds on
//! any clock: a burst larger than the intake sheds exactly the overflow
//! and completes the rest; a closed loop that retries its sheds completes
//! everything; one worker answers point ops as a sequential map applied in
//! arrival order; and key-sorted batches hit the sorted call's hint.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use gfsl::{Gfsl, GfslParams, TeamSize};
use gfsl_serve::{
    serve, ExecMode, KeySorted, Reply, Request, RequestSource, Response, ServeConfig,
};
use gfsl_workload::{ServeMix, ServeOp};

/// A scripted source: request `i` is `ops[i]`, and its id is `i`.
///
/// * Open loop (`retry_after_ns: None`): request `i` arrives at
///   `i · spacing_ns` whatever happens to the others; a shed request is
///   dropped.
/// * Closed loop (`Some(backoff)`): `clients` requests arrive at t = 0, and
///   each completion issues the next unissued request at its done time; a
///   shed request is issued again `backoff` ns later.
struct Script {
    ops: Vec<ServeOp>,
    /// Pending arrivals `(time, id, client)`, earliest first, ties by id.
    due: BinaryHeap<Reverse<(u64, u64, u32)>>,
    /// Next request a closed-loop client issues.
    next: usize,
    retry_after_ns: Option<u64>,
    /// Requests taken and neither completed nor shed yet.
    outstanding: usize,
    /// The reply each request got, by id.
    replies: Vec<Option<Reply>>,
    /// Sheds seen, and how often each request was shed.
    sheds: u64,
    shed_by_id: Vec<u32>,
}

impl Script {
    fn open(ops: Vec<ServeOp>, spacing_ns: u64) -> Script {
        let mut s = Script::new(ops, None);
        for i in 0..s.ops.len() {
            s.due
                .push(Reverse((i as u64 * spacing_ns, i as u64, i as u32 % 8)));
        }
        s
    }

    fn closed(ops: Vec<ServeOp>, clients: u32, backoff_ns: u64) -> Script {
        let mut s = Script::new(ops, Some(backoff_ns));
        for c in 0..clients.min(s.ops.len() as u32) {
            s.due.push(Reverse((0, c as u64, c)));
        }
        s.next = s.due.len();
        s
    }

    fn new(ops: Vec<ServeOp>, retry_after_ns: Option<u64>) -> Script {
        let n = ops.len();
        Script {
            ops,
            due: BinaryHeap::new(),
            next: 0,
            retry_after_ns,
            outstanding: 0,
            replies: vec![None; n],
            sheds: 0,
            shed_by_id: vec![0; n],
        }
    }
}

impl RequestSource for Script {
    fn peek_ns(&mut self) -> Option<u64> {
        self.due.peek().map(|&Reverse((t, _, _))| t)
    }

    fn take(&mut self) -> Request {
        let Reverse((t, id, client)) = self.due.pop().expect("take() without a pending peek");
        self.outstanding += 1;
        Request {
            client,
            id,
            arrival_ns: t,
            op: self.ops[id as usize],
        }
    }

    fn on_complete(&mut self, resp: &Response) {
        self.outstanding -= 1;
        let slot = &mut self.replies[resp.id as usize];
        assert!(slot.is_none(), "request {} completed twice", resp.id);
        *slot = Some(resp.reply);
        if self.retry_after_ns.is_some() && self.next < self.ops.len() {
            self.due
                .push(Reverse((resp.done_ns, self.next as u64, resp.client)));
            self.next += 1;
        }
    }

    fn on_shed(&mut self, req: Request, now_ns: u64) {
        self.outstanding -= 1;
        self.sheds += 1;
        self.shed_by_id[req.id as usize] += 1;
        if let Some(backoff) = self.retry_after_ns {
            self.due
                .push(Reverse((now_ns + backoff, req.id, req.client)));
        }
    }

    fn exhausted(&self) -> bool {
        self.due.is_empty() && self.outstanding == 0
    }
}

/// Even keys of `1..=range` present.
fn list_for(range: u32) -> Gfsl {
    let params = GfslParams {
        team_size: TeamSize::Sixteen,
        pool_chunks: 1 << 14,
        ..Default::default()
    };
    Gfsl::prefilled(params, (1..=range).filter(|k| k % 2 == 0)).unwrap()
}

fn cfg(workers: usize, intake_cap: usize) -> ServeConfig {
    ServeConfig {
        workers,
        epoch_ns: 20_000,
        batch_ops: 64,
        max_batch: 32,
        intake_cap,
        exec: ExecMode::Measured,
    }
}

#[test]
fn a_burst_beyond_the_intake_sheds_the_overflow_and_completes_the_rest() {
    let list = list_for(2_000);
    // 600 arrivals at t = 0 against a 256-deep intake: the first 256 queue,
    // the other 344 shed before any epoch forms, whatever the clock reads.
    let mut src = Script::open(ServeMix::RANGE10.stream(7, 2_000, 600), 0);
    let c = cfg(2, 256);
    let report = serve(&list, &c, &mut KeySorted, &mut src);
    let m = &report.metrics;
    assert_eq!(
        (m.ops, m.sheds),
        (256, 344),
        "the overflow sheds, the rest completes"
    );
    assert_eq!(m.sheds, src.sheds, "every shed reaches the source");
    for id in 0..600 {
        let done = u32::from(src.replies[id].is_some());
        assert_eq!(
            done + src.shed_by_id[id],
            1,
            "request {id} completes or sheds, once"
        );
    }
    assert!(m.queue_depth_max <= c.intake_cap, "the queue stays bounded");
    assert!(m.ranges > 0 && m.failed == 0);
    assert!(src.exhausted());
    list.assert_valid();
}

#[test]
fn a_closed_loop_that_retries_its_sheds_completes_every_request() {
    let list = list_for(1_000);
    // 64 clients at t = 0 against a 32-deep intake: half shed on the first
    // admission, back off and retry until every request is answered.
    let n = 1_280;
    let mut src = Script::closed(ServeMix::C80.stream(11, 1_000, n), 64, 5_000);
    let report = serve(&list, &cfg(2, 32), &mut KeySorted, &mut src);
    let m = &report.metrics;
    assert_eq!(m.ops, n as u64, "closed loop retries until done");
    assert!(src.replies.iter().all(Option::is_some));
    assert!(m.sheds >= 32, "the first burst overflows: {}", m.sheds);
    assert_eq!(m.sheds, src.sheds);
    assert!(m.queue_depth_max <= 32);
    assert!(src.exhausted());
    list.assert_valid();
}

/// The sequential map's answer to the point op `op`, applied to `model`.
fn answer(model: &mut BTreeMap<u32, u32>, op: ServeOp) -> Reply {
    match op {
        ServeOp::Get(k) => Reply::Got(model.get(&k).copied()),
        ServeOp::Insert(k, v) => Reply::Inserted(match model.entry(k) {
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(v);
                true
            }
            std::collections::btree_map::Entry::Occupied(_) => false,
        }),
        ServeOp::Delete(k) => Reply::Deleted(model.remove(&k).is_some()),
        other => unreachable!("{other:?} is not a point op"),
    }
}

/// Every batch runs through the key-sorted call, which reorders
/// different-key ops inside it; what must survive is same-key order. With
/// one worker, batches run one after another, so a point-op stream must
/// get, request by request, the replies a sequential map gives when the
/// whole stream is applied in arrival order (each reply depends on one
/// key's history). Extract-min order is the engine's to hold:
/// `batch::tests::batched_min_ops_drain_in_priority_order` and
/// `durability::tests::batch_effects_are_logged_in_execution_order`.
#[test]
fn one_worker_answers_point_ops_as_a_sequential_map_in_arrival_order() {
    let list = list_for(200);
    let mut model: BTreeMap<u32, u32> = list.pairs().into_iter().collect();
    // 4,000 requests over 100 keys, spaced so an epoch gathers many: most
    // batches repeat a key. The intake never fills, so nothing sheds.
    let ops = ServeMix::C80.stream(9, 100, 4_000);
    let mut src = Script::open(ops.clone(), 500);
    let report = serve(&list, &cfg(1, 8_192), &mut KeySorted, &mut src);
    assert_eq!((report.metrics.ops, report.metrics.sheds), (4_000, 0));
    for (id, &op) in ops.iter().enumerate() {
        assert_eq!(
            src.replies[id],
            Some(answer(&mut model, op)),
            "request {id}: {op:?}"
        );
    }
    assert_eq!(list.pairs(), model.into_iter().collect::<Vec<_>>());
}

#[test]
fn key_sorted_batches_hit_the_sorted_calls_hint() {
    let list = list_for(2_000);
    // One burst of 2,048 requests: every epoch is a full 64-op size trigger
    // over 2,000 keys, so neighbours in a sorted batch share chunks.
    let mut src = Script::open(ServeMix::C80.stream(5, 2_000, 2_048), 0);
    let report = serve(&list, &cfg(2, 4_096), &mut KeySorted, &mut src);
    let m = &report.metrics;
    assert_eq!((m.ops, m.sheds, m.failed), (2_048, 0, 0));
    assert_eq!(
        (m.epochs, m.batches),
        (32, 64),
        "size-triggered epochs of two batches"
    );
    assert!(m.hint_hit_rate > 0.0, "the sorted call's hint was hit");
    assert!(
        (m.mean_occupancy() - 1.0).abs() < 1e-12,
        "full batches fill every lane"
    );
    list.assert_valid();
}
