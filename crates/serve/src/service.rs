//! The service driver: a virtual-time, epoch-batching event loop.
//!
//! The driver pulls timed requests from a [`RequestSource`], admits them
//! into the bounded intake queue (shedding on overflow), closes an *epoch*
//! when either the deadline expires or enough requests are queued (the
//! continuous-batching size trigger), hands the epoch to a
//! [`BatchPolicy`], and dispatches the resulting warp-aligned batches onto
//! a pool of worker threads — one GFSL team each. Responses route back to
//! the source in dispatch order, which lets closed-loop clients schedule
//! their next issue.
//!
//! ## Clocks and determinism
//!
//! Batch *formation* runs entirely in virtual time. What advances the
//! virtual clock across an epoch's execution is the [`ExecMode`]:
//!
//! * [`ExecMode::Measured`] — advance by the measured wall-clock execution
//!   time. This is the benchmarking mode: throughput numbers are real, but
//!   formation depends on machine speed, so the trace hash is only stable
//!   on one machine by accident.
//! * [`ExecMode::Modeled`] — advance by `ns_per_op · max_ops_per_worker`,
//!   a deterministic service-time model. Every admission decision, epoch
//!   close, batch, and dispatch grant is then a pure function of the seed
//!   and config: the run's [trace hash](crate::trace::TraceHash) replays
//!   bit-for-bit.
//!
//! ## Pipelining
//!
//! The driver keeps one epoch in flight: epoch N+1's batches are pushed
//! *before* epoch N's completions are collected, so response routing,
//! completion feedback, and admission all overlap worker execution.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use gfsl::batch::{BatchOp, BatchReply};
use gfsl::{Gfsl, GfslHandle, NoProbe};
use gfsl_workload::ServeOp;

use crate::admission::IntakeQueue;
use crate::metrics::ServiceMetrics;
use crate::request::{to_batch_op, Reply, Request, Response};
use crate::scheduler::{BatchPolicy, PolicyCtx};
use crate::source::RequestSource;
use crate::trace::TraceHash;

/// What advances the virtual clock across an epoch's execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Wall-clock execution time (benchmark mode; nondeterministic clock).
    Measured,
    /// Deterministic model: `ns_per_op` per request, workers in parallel.
    Modeled {
        /// Modeled service cost per request, nanoseconds.
        ns_per_op: u64,
    },
}

/// Service configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Worker threads (one GFSL team each).
    pub workers: usize,
    /// Epoch deadline: an epoch closes at most this long (virtual ns)
    /// after it opens.
    pub epoch_ns: u64,
    /// Size trigger: an epoch closes early once this many requests are
    /// queued, and at most this many dispatch per epoch.
    pub batch_ops: usize,
    /// Per-batch request cap (rounded down to a team-width multiple).
    pub max_batch: usize,
    /// Intake queue bound; arrivals beyond it are shed.
    pub intake_cap: usize,
    /// Execution-time mode.
    pub exec: ExecMode,
}

impl ServeConfig {
    /// Sensible defaults for `workers` worker teams: 200 µs epochs, 1024-op
    /// size trigger, 256-op batches, 8192-deep intake, measured clock.
    pub fn new(workers: usize) -> ServeConfig {
        ServeConfig {
            workers,
            epoch_ns: 200_000,
            batch_ops: 1024,
            max_batch: 256,
            intake_cap: 8192,
            exec: ExecMode::Measured,
        }
    }

    /// Panic on nonsensical configuration.
    pub fn validate(&self) {
        assert!(self.workers > 0, "need at least one worker");
        assert!(self.epoch_ns > 0, "epoch deadline must be positive");
        assert!(self.batch_ops > 0, "size trigger must be positive");
        assert!(self.max_batch > 0, "batch cap must be positive");
        assert!(self.intake_cap > 0, "intake capacity must be positive");
    }
}

/// Run seed: `GFSL_TEST_SEED` if set (the repo-wide replay convention),
/// else `default`.
pub fn env_seed(default: u64) -> u64 {
    std::env::var("GFSL_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// The outcome of one service run.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// The batch policy that formed the dispatches.
    pub policy: &'static str,
    /// Aggregated service metrics.
    pub metrics: ServiceMetrics,
    /// FNV-1a fold of the full service schedule (see [`TraceHash`]).
    pub trace_hash: u64,
}

struct WorkItem {
    seq: u64,
    epoch: u64,
    reqs: Vec<Request>,
}

struct DoneItem {
    seq: u64,
    epoch: u64,
    replies: Vec<(Request, Reply)>,
}

/// One dispatched epoch whose batches are still executing. The driver keeps
/// at most one epoch in flight: it pushes epoch N+1's batches *before*
/// collecting epoch N, so response routing and admission overlap worker
/// execution (software pipelining — without it, workers idle through every
/// driver pass and the service/raw throughput ratio caps well below 1).
struct InFlight {
    /// Batches to collect.
    n: usize,
    /// Epoch these batches belong to (completions are tagged: with two
    /// epochs in the pipe, the done channel interleaves them).
    epoch: u64,
    /// Virtual dispatch time (wait component of every response).
    dispatch_t: u64,
    /// Largest per-worker op count (modeled service time of the epoch).
    per_worker_max: u64,
    /// Wall-clock dispatch instant (measured service time of the epoch).
    exec_t0: Instant,
}

/// Shared work queue: the driver pushes batches, idle workers pull. Pulling
/// instead of pinning keeps workers busy when batch costs are uneven.
struct Injector {
    state: Mutex<(VecDeque<WorkItem>, bool)>,
    cv: Condvar,
}

impl Injector {
    fn new() -> Injector {
        Injector {
            state: Mutex::new((VecDeque::new(), false)),
            cv: Condvar::new(),
        }
    }

    fn push(&self, item: WorkItem) {
        self.state.lock().unwrap().0.push_back(item);
        self.cv.notify_one();
    }

    fn close(&self) {
        self.state.lock().unwrap().1 = true;
        self.cv.notify_all();
    }

    fn pop(&self) -> Option<WorkItem> {
        let mut st = self.state.lock().unwrap();
        loop {
            if let Some(item) = st.0.pop_front() {
                return Some(item);
            }
            if st.1 {
                return None;
            }
            st = self.cv.wait(st).unwrap();
        }
    }
}

fn exec_batch(h: &mut GfslHandle<'_, NoProbe>, reqs: Vec<Request>) -> Vec<(Request, Reply)> {
    let ops: Vec<BatchOp> = reqs.iter().map(|r| to_batch_op(r.op)).collect();
    let mut replies: Vec<BatchReply> = Vec::with_capacity(ops.len());
    // Key order, same-key ops in arrival order; replies stay index-aligned.
    h.execute_batch_hinted(&ops, &mut replies);
    reqs.into_iter()
        .zip(replies)
        .map(|(r, b)| (r, Reply::from(b)))
        .collect()
}

fn worker_loop(
    list: &Gfsl,
    injector: &Injector,
    done: mpsc::Sender<DoneItem>,
    op_stats: &std::sync::Mutex<gfsl::OpStats>,
) {
    let mut h = list.handle();
    while let Some(item) = injector.pop() {
        let reply = DoneItem {
            seq: item.seq,
            epoch: item.epoch,
            replies: exec_batch(&mut h, item.reqs),
        };
        if done.send(reply).is_err() {
            break;
        }
    }
    op_stats.lock().unwrap().merge(&h.stats());
}

/// Take the source's next arrival, due at `t`, and queue it — or shed it
/// on overflow. Returns whether it was queued.
fn admit_next(
    src: &mut dyn RequestSource,
    intake: &mut IntakeQueue,
    trace: &mut TraceHash,
    t: u64,
) -> bool {
    match intake.offer(src.take()) {
        Ok(()) => true,
        Err((req, shed)) => {
            trace.shed(req.client as u64, shed.depth as u64);
            src.on_shed(req, t);
            false
        }
    }
}

/// Admit every arrival at or before `limit_ns` ([`admit_next`]).
fn admit_upto(
    src: &mut dyn RequestSource,
    intake: &mut IntakeQueue,
    trace: &mut TraceHash,
    limit_ns: u64,
) {
    while let Some(t) = src.peek_ns() {
        if t > limit_ns {
            break;
        }
        admit_next(src, intake, trace, t);
    }
}

/// Deliver one collected epoch: count, timestamp, histogram, and feed
/// completions back to the source (which is what lets closed-loop clients
/// schedule their next issue).
fn route_done(
    mut done: Vec<DoneItem>,
    dispatch_t: u64,
    clock: u64,
    metrics: &mut ServiceMetrics,
    src: &mut dyn RequestSource,
) {
    // Batches complete out of order; restore dispatch order first, so each
    // client sees its responses in the order its requests were dispatched.
    done.sort_by_key(|d| d.seq);
    for d in done {
        for (req, reply) in d.replies {
            metrics.failed += u64::from(matches!(reply, Reply::Failed(_)));
            metrics.ranges += u64::from(matches!(req.op, ServeOp::Range(..)));
            metrics.ops += 1;
            let resp = Response {
                client: req.client,
                id: req.id,
                arrival_ns: req.arrival_ns,
                wait_ns: dispatch_t.saturating_sub(req.arrival_ns),
                done_ns: clock,
                reply,
            };
            metrics.latency.record(resp.latency_ns());
            src.on_complete(&resp);
        }
    }
}

/// Collect a pipelined epoch: receive its batches, advance the virtual
/// clock by its service time, and route the responses.
fn collect_epoch(
    p: InFlight,
    exec: ExecMode,
    done_rx: &mpsc::Receiver<DoneItem>,
    early: &mut Vec<DoneItem>,
    clock: &mut u64,
    metrics: &mut ServiceMetrics,
    src: &mut dyn RequestSource,
) {
    // The next epoch's batches are already executing; its completions can
    // land on the shared channel interleaved with this epoch's. Claim
    // buffered strays first, park foreign ones.
    let mut done: Vec<DoneItem> = Vec::with_capacity(p.n);
    let mut i = 0;
    while i < early.len() {
        if early[i].epoch == p.epoch {
            done.push(early.swap_remove(i));
        } else {
            i += 1;
        }
    }
    while done.len() < p.n {
        let d = done_rx.recv().expect("worker thread died");
        if d.epoch == p.epoch {
            done.push(d);
        } else {
            early.push(d);
        }
    }
    let advance = match exec {
        ExecMode::Measured => p.exec_t0.elapsed().as_nanos() as u64,
        ExecMode::Modeled { ns_per_op } => ns_per_op.saturating_mul(p.per_worker_max),
    };
    *clock = clock.saturating_add(advance.max(1));
    route_done(done, p.dispatch_t, *clock, metrics, src);
}

/// Run the service to completion: pull every request the source will ever
/// yield through admission, batching, dispatch, and completion routing.
pub fn serve(
    list: &Gfsl,
    cfg: &ServeConfig,
    policy: &mut dyn BatchPolicy,
    src: &mut dyn RequestSource,
) -> ServiceReport {
    cfg.validate();
    let lanes = list.params().lanes();
    let ctx = PolicyCtx {
        workers: cfg.workers,
        max_batch: cfg.max_batch,
        lane_align: lanes,
    };
    // Drain-rate estimate behind shed retry-after hints: the modeled per-op
    // cost when there is one, else the epoch deadline amortized over a full
    // size-triggered epoch.
    let drain_ns_per_req = match cfg.exec {
        ExecMode::Modeled { ns_per_op } => ns_per_op,
        ExecMode::Measured => cfg.epoch_ns / cfg.batch_ops.max(1) as u64,
    };
    let mut intake = IntakeQueue::with_drain_hint(cfg.intake_cap, drain_ns_per_req);
    let mut metrics = ServiceMetrics::default();
    let mut trace = TraceHash::new();
    let injector = Injector::new();
    let (done_tx, done_rx) = mpsc::channel::<DoneItem>();
    let op_stats = std::sync::Mutex::new(gfsl::OpStats::new());

    let mut clock: u64 = 0;
    let mut epoch_seq: u64 = 0;
    let mut batch_seq: u64 = 0;

    std::thread::scope(|s| {
        for _ in 0..cfg.workers {
            let tx = done_tx.clone();
            let inj = &injector;
            let st = &op_stats;
            s.spawn(move || worker_loop(list, inj, tx, st));
        }
        drop(done_tx);

        let mut pending: Option<InFlight> = None;
        let mut early: Vec<DoneItem> = Vec::new();

        loop {
            // Arrivals during the previous epoch's execution have already
            // happened — they contend for intake space now, or are shed.
            admit_upto(src, &mut intake, &mut trace, clock);

            if intake.is_empty() {
                if let Some(p) = pending.take() {
                    // Nothing to form yet; drain the pipeline so the
                    // completions can seed the next arrivals.
                    collect_epoch(p, cfg.exec, &done_rx, &mut early, &mut clock, &mut metrics, src);
                    continue;
                }
                match src.peek_ns() {
                    Some(t) => {
                        // Idle: jump the clock to the next arrival.
                        clock = clock.max(t);
                        admit_upto(src, &mut intake, &mut trace, clock);
                    }
                    None => break,
                }
            }

            // Formation window: close at the deadline, or early once the
            // size trigger is reached.
            let deadline = clock.saturating_add(cfg.epoch_ns);
            let mut close = deadline;
            if intake.len() >= cfg.batch_ops {
                close = clock;
            } else {
                while let Some(t) = src.peek_ns() {
                    if t > deadline {
                        break;
                    }
                    if admit_next(src, &mut intake, &mut trace, t) && intake.len() >= cfg.batch_ops
                    {
                        close = t.max(clock);
                        break;
                    }
                }
            }
            clock = clock.max(close);
            if intake.is_empty() {
                // Deadline passed with nothing admitted; re-enter the idle
                // skip with the advanced clock.
                continue;
            }

            // Close the epoch: sample depth, drain, form batches.
            metrics.epochs += 1;
            metrics.sample_queue_depth(intake.len());
            let epoch_reqs = intake.drain_upto(cfg.batch_ops);
            trace.epoch(epoch_seq, clock, epoch_reqs.len());
            epoch_seq += 1;

            let mut batches = policy.form(epoch_reqs, &ctx);
            let mut per_worker = vec![0u64; cfg.workers];
            for b in &mut batches {
                b.seq = batch_seq;
                batch_seq += 1;
                trace.batch(b.seq, b.worker, b.reqs.len(), b.read_only);
                metrics.record_batch(b.reqs.len(), b.aligned_len(lanes));
                per_worker[b.worker % cfg.workers] += b.reqs.len() as u64;
            }

            // Dispatch: push this epoch's batches *before* collecting the
            // one in flight, so the workers execute epoch N+1 while the
            // driver routes epoch N's responses and admits the arrivals
            // they trigger.
            let fresh = InFlight {
                n: batches.len(),
                epoch: epoch_seq - 1,
                dispatch_t: clock,
                per_worker_max: per_worker.iter().copied().max().unwrap_or(0),
                exec_t0: Instant::now(),
            };
            for b in batches {
                trace.grant(b.seq);
                injector.push(WorkItem {
                    seq: b.seq,
                    epoch: fresh.epoch,
                    reqs: b.reqs,
                });
            }
            if let Some(p) = pending.take() {
                collect_epoch(p, cfg.exec, &done_rx, &mut early, &mut clock, &mut metrics, src);
            }
            pending = Some(fresh);
        }

        if let Some(p) = pending.take() {
            collect_epoch(p, cfg.exec, &done_rx, &mut early, &mut clock, &mut metrics, src);
        }
        debug_assert!(early.is_empty(), "stray completions after drain");
        injector.close();
    });

    metrics.sheds = intake.sheds();
    // Workers have joined (scope end): fold their structure-level hint
    // counters into the service report.
    metrics.absorb_op_stats(&op_stats.into_inner().unwrap());
    ServiceReport {
        policy: policy.name(),
        metrics,
        trace_hash: trace.value(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{Batch, Fifo};
    use crate::source::{ClosedSource, ReplaySource};
    use gfsl::{GfslParams, TeamSize};
    use gfsl_workload::{ClosedLoop, OpenLoop, ServeMix};

    fn small_list() -> Gfsl {
        let params = GfslParams {
            team_size: TeamSize::Sixteen,
            pool_chunks: 1 << 12,
            ..Default::default()
        };
        Gfsl::prefilled(params, (1..=2_000u32).filter(|k| k % 2 == 0)).unwrap()
    }

    fn modeled_cfg() -> ServeConfig {
        ServeConfig {
            workers: 2,
            epoch_ns: 10_000,
            batch_ops: 64,
            max_batch: 32,
            intake_cap: 256,
            exec: ExecMode::Modeled { ns_per_op: 100 },
        }
    }

    fn run_once(seed: u64) -> ServiceReport {
        let list = small_list();
        let pop = ClosedLoop::new(16, 50, 1_000, ServeMix::C80, 2_000, seed);
        let mut src = ClosedSource::new(pop, 1_000);
        serve(&list, &modeled_cfg(), &mut Fifo::default(), &mut src)
    }

    #[test]
    fn modeled_run_completes_every_request() {
        let report = run_once(42);
        assert_eq!(report.metrics.ops, 16 * 50);
        assert_eq!(report.metrics.sheds, 0, "low load must not shed");
        assert_eq!(report.metrics.failed, 0);
        assert!(report.metrics.epochs > 0 && report.metrics.batches > 0);
        assert!(report.metrics.latency.count() == 16 * 50);
        assert!(report.metrics.latency.p50_ns() > 0);
        assert!(report.metrics.mean_occupancy() > 0.0);
        assert_eq!(report.policy, "fifo");
    }

    #[test]
    fn modeled_runs_replay_bit_for_bit() {
        let a = run_once(42);
        let b = run_once(42);
        assert_eq!(a.trace_hash, b.trace_hash, "same seed, same schedule");
        assert_eq!(a.metrics.ops, b.metrics.ops);
        assert_eq!(a.metrics.epochs, b.metrics.epochs);
        assert_eq!(a.metrics.batches, b.metrics.batches);
        let c = run_once(43);
        assert_ne!(a.trace_hash, c.trace_hash, "different seed, different schedule");
    }

    #[test]
    fn hinted_key_sorted_run_completes_and_replays() {
        let run = |seed: u64| {
            let list = small_list();
            let pop = ClosedLoop::new(16, 50, 1_000, ServeMix::C80, 2_000, seed);
            let mut src = ClosedSource::new(pop, 1_000);
            let report = serve(
                &list,
                &modeled_cfg(),
                &mut crate::scheduler::KeySorted::default(),
                &mut src,
            );
            list.assert_valid();
            report
        };
        let a = run(42);
        assert_eq!(a.metrics.ops, 16 * 50);
        assert_eq!(a.metrics.failed, 0);
        assert_eq!(a.policy, "key-sorted");
        assert!(a.metrics.hint_hit_rate > 0.0, "the sorted call's hint was hit");
        let b = run(42);
        assert_eq!(a.trace_hash, b.trace_hash, "hinted runs replay bit-for-bit");
    }

    /// A replayed arrival script that keeps each request's op (indexed by
    /// request id, which is arrival order) and the reply routed back for it.
    struct Recorded {
        inner: ReplaySource,
        ops: Vec<ServeOp>,
        replies: Vec<(u64, Reply)>,
    }

    impl RequestSource for Recorded {
        fn peek_ns(&mut self) -> Option<u64> {
            self.inner.peek_ns()
        }
        fn take(&mut self) -> Request {
            let req = self.inner.take();
            assert_eq!(req.id as usize, self.ops.len(), "ids follow arrival order");
            self.ops.push(req.op);
            req
        }
        fn on_complete(&mut self, resp: &Response) {
            self.replies.push((resp.id, resp.reply));
        }
        fn on_shed(&mut self, req: Request, now_ns: u64) {
            self.inner.on_shed(req, now_ns);
        }
        fn exhausted(&self) -> bool {
            self.inner.exhausted()
        }
    }

    /// A policy wrapper that keeps the request ids of every batch formed,
    /// in dispatch order.
    struct Tap<'a> {
        inner: &'a mut dyn BatchPolicy,
        batches: Vec<Vec<usize>>,
    }

    impl BatchPolicy for Tap<'_> {
        fn name(&self) -> &'static str {
            self.inner.name()
        }
        fn form(&mut self, epoch: Vec<Request>, ctx: &PolicyCtx) -> Vec<Batch> {
            let formed = self.inner.form(epoch, ctx);
            self.batches
                .extend(formed.iter().map(|b| b.reqs.iter().map(|r| r.id as usize).collect()));
            formed
        }
    }

    /// Every batch runs through the key-sorted call, which reorders
    /// different-key ops inside it; what must survive is same-key order.
    /// With one worker, batches run one after another, so under either
    /// batching policy a point-op stream must get, request by request, the
    /// replies a sequential map gives when the whole stream is applied in
    /// arrival order (each reply depends on one key's history). An
    /// extract-min depends on every key's, so the priority-queue stream is
    /// held to the order the engine documents instead: each batch by
    /// `(BatchOp::key, index)`, a pop where key 1 sorts.
    #[test]
    fn same_key_requests_are_answered_in_arrival_order_under_either_policy() {
        use std::collections::BTreeMap;

        // ~20 arrivals an epoch over 100 keys: most batches repeat a key.
        let stream = |mix| OpenLoop::new(mix, 100, 8, 4_000, 2.0, 9).collect::<Vec<_>>();
        let (points, pq) = (stream(ServeMix::C80), stream(ServeMix::PQ));
        let cfg = ServeConfig {
            workers: 1,
            ..modeled_cfg()
        };
        let answer = |model: &mut BTreeMap<u32, u32>, op: ServeOp| match op {
            ServeOp::Get(k) => Reply::Got(model.get(&k).copied()),
            ServeOp::Insert(k, v) => Reply::Inserted(match model.entry(k) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(v);
                    true
                }
                std::collections::btree_map::Entry::Occupied(_) => false,
            }),
            ServeOp::Delete(k) => Reply::Deleted(model.remove(&k).is_some()),
            ServeOp::Range(lo, hi) => Reply::Ranged(model.range(lo..=hi).count() as u32),
            ServeOp::MinEntry => Reply::MinIs(model.first_key_value().map(|(&k, &v)| (k, v))),
            ServeOp::PopMin => Reply::Popped(model.pop_first()),
        };
        let check = |arrivals: &[_], policy: &mut dyn BatchPolicy, in_arrival_order: bool| {
            let list = small_list();
            let mut model: BTreeMap<u32, u32> = list.pairs().into_iter().collect();
            let mut src = Recorded {
                inner: ReplaySource::new(arrivals.to_vec()),
                ops: Vec::new(),
                replies: Vec::new(),
            };
            let mut tap = Tap {
                inner: policy,
                batches: Vec::new(),
            };
            let report = serve(&list, &cfg, &mut tap, &mut src);
            assert_eq!((report.metrics.ops, report.metrics.sheds), (4_000, 0));
            src.replies.sort_by_key(|&(id, _)| id);
            let order: Vec<usize> = if in_arrival_order {
                (0..src.ops.len()).collect()
            } else {
                // Stable: ops that sort under one key stay in batch order.
                for batch in &mut tap.batches {
                    batch.sort_by_key(|&id| to_batch_op(src.ops[id]).key());
                }
                tap.batches.concat()
            };
            for id in order {
                let (op, reply) = (src.ops[id], src.replies[id].1);
                assert_eq!(reply, answer(&mut model, op), "{op:?} under {}", report.policy);
            }
            assert_eq!(list.pairs(), model.into_iter().collect::<Vec<_>>());
        };
        check(&points, &mut Fifo::default(), true);
        check(&points, &mut crate::scheduler::KeySorted::default(), true);
        check(&pq, &mut Fifo::default(), false);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_is_rejected() {
        let mut cfg = modeled_cfg();
        cfg.workers = 0;
        cfg.validate();
    }

    #[test]
    fn contained_modeled_runs_still_replay_bit_for_bit() {
        let run = || {
            let params = GfslParams {
                team_size: TeamSize::Sixteen,
                pool_chunks: 1 << 12,
                ..Default::default()
            };
            let list = Gfsl::prefilled(params, (1..=2_000u32).filter(|k| k % 2 == 0)).unwrap();
            let pop = ClosedLoop::new(16, 50, 1_000, ServeMix::C80, 2_000, 42);
            let mut src = ClosedSource::new(pop, 1_000);
            let report = serve(&list, &modeled_cfg(), &mut Fifo::default(), &mut src);
            list.assert_valid();
            report
        };
        let a = run();
        let b = run();
        assert_eq!(a.trace_hash, b.trace_hash, "containment must not break replay");
        assert_eq!(a.metrics.ops, 16 * 50);
    }
}
