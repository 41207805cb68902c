//! The service driver: a virtual-time, epoch-batching event loop.
//!
//! The driver pulls timed requests from a [`RequestSource`], admits them
//! into the bounded intake queue (shedding on overflow), closes an *epoch*
//! when either the deadline expires or enough requests are queued (the
//! continuous-batching size trigger), sorts the epoch into warp-aligned
//! batches ([`KeySorted`]), and dispatches them onto a pool of worker
//! threads — one GFSL team each. Responses route back to the source in
//! dispatch order, which lets closed-loop clients schedule their next
//! issue.
//!
//! ## The clock
//!
//! Batch *formation* runs in virtual time: an idle driver jumps the clock
//! to the next arrival. Across an epoch's execution the clock advances by
//! the measured wall-clock execution time ([`ExecMode::Measured`]), so
//! which arrivals share an epoch depends on machine speed. What a test can
//! assert is therefore what holds on any clock: counts, shed accounting,
//! the queue bound and per-key reply order.
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
use crate::request::{to_batch_op, Reply, Request, RequestSource, Response};

/// What advances the virtual clock across an epoch's execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Wall-clock execution time.
    Measured,
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

/// Key-sorted batching: the epoch is sorted by `(key, arrival)` before
/// chopping, so each dispatched batch covers a narrow, ascending key band.
/// Paired with the structure's key-sorted entry point
/// (`execute_batch_hinted`, whose bottom-level hint is live for the call),
/// a team serving such a batch descends once and then walks laterally —
/// `k` same-band ops cost ~1 descent + `k` lateral steps instead of `k`
/// full descents. Same-key requests keep arrival order.
#[derive(Debug, Default)]
pub struct KeySorted;

impl KeySorted {
    /// Sort one epoch's admitted requests and chop them into batches of at
    /// most `granule` requests each, in key order.
    pub(crate) fn form(&self, mut epoch: Vec<Request>, granule: usize) -> Vec<Vec<Request>> {
        epoch.sort_by_key(|r| (r.op.key(), r.arrival_ns, r.id));
        epoch.chunks(granule).map(<[Request]>::to_vec).collect()
    }
}

/// The chop granule: `max_batch` rounded down to a multiple of the team
/// width `lanes`, and at least one full team.
fn granule(max_batch: usize, lanes: usize) -> usize {
    let lanes = lanes.max(1);
    (max_batch / lanes).max(1) * lanes
}

/// The outcome of one service run.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Aggregated service metrics.
    pub metrics: ServiceMetrics,
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
/// driver pass).
struct InFlight {
    /// Batches to collect.
    n: usize,
    /// Epoch these batches belong to (completions are tagged: with two
    /// epochs in the pipe, the done channel interleaves them).
    epoch: u64,
    /// Virtual dispatch time (wait component of every response).
    dispatch_t: u64,
    /// Wall-clock dispatch instant (service time of the epoch).
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
fn admit_next(src: &mut dyn RequestSource, intake: &mut IntakeQueue, t: u64) -> bool {
    match intake.offer(src.take()) {
        Ok(()) => true,
        Err((req, _)) => {
            src.on_shed(req, t);
            false
        }
    }
}

/// Admit every arrival at or before `limit_ns` ([`admit_next`]).
fn admit_upto(src: &mut dyn RequestSource, intake: &mut IntakeQueue, limit_ns: u64) {
    while let Some(t) = src.peek_ns() {
        if t > limit_ns {
            break;
        }
        admit_next(src, intake, t);
    }
}

/// Deliver one collected epoch: count, timestamp, and feed completions back
/// to the source (which is what lets closed-loop clients schedule their
/// next issue).
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
            src.on_complete(&Response {
                client: req.client,
                id: req.id,
                arrival_ns: req.arrival_ns,
                wait_ns: dispatch_t.saturating_sub(req.arrival_ns),
                done_ns: clock,
                reply,
            });
        }
    }
}

/// Collect a pipelined epoch: receive its batches, advance the virtual
/// clock by its measured execution time, and route the responses.
fn collect_epoch(
    p: InFlight,
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
    let advance = p.exec_t0.elapsed().as_nanos() as u64;
    *clock = clock.saturating_add(advance.max(1));
    route_done(done, p.dispatch_t, *clock, metrics, src);
}

/// Run the service to completion: pull every request the source will ever
/// yield through admission, batching, dispatch, and completion routing.
pub fn serve(
    list: &Gfsl,
    cfg: &ServeConfig,
    policy: &mut KeySorted,
    src: &mut dyn RequestSource,
) -> ServiceReport {
    cfg.validate();
    let lanes = list.params().lanes();
    let granule = granule(cfg.max_batch, lanes);
    // Drain-rate estimate behind shed retry-after hints: the epoch deadline
    // amortized over a full size-triggered epoch.
    let drain_ns_per_req = cfg.epoch_ns / cfg.batch_ops.max(1) as u64;
    let mut intake = IntakeQueue::with_drain_hint(cfg.intake_cap, drain_ns_per_req);
    let mut metrics = ServiceMetrics::default();
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
            admit_upto(src, &mut intake, clock);

            if intake.is_empty() {
                if let Some(p) = pending.take() {
                    // Nothing to form yet; drain the pipeline so the
                    // completions can seed the next arrivals.
                    collect_epoch(p, &done_rx, &mut early, &mut clock, &mut metrics, src);
                    continue;
                }
                match src.peek_ns() {
                    Some(t) => {
                        // Idle: jump the clock to the next arrival.
                        clock = clock.max(t);
                        admit_upto(src, &mut intake, clock);
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
                    if admit_next(src, &mut intake, t) && intake.len() >= cfg.batch_ops {
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
            let batches = policy.form(intake.drain_upto(cfg.batch_ops), granule);
            epoch_seq += 1;

            // Dispatch: push this epoch's batches *before* collecting the
            // one in flight, so the workers execute epoch N+1 while the
            // driver routes epoch N's responses and admits the arrivals
            // they trigger.
            let fresh = InFlight {
                n: batches.len(),
                epoch: epoch_seq - 1,
                dispatch_t: clock,
                exec_t0: Instant::now(),
            };
            for reqs in batches {
                metrics.record_batch(reqs.len(), reqs.len().div_ceil(lanes) * lanes);
                injector.push(WorkItem {
                    seq: batch_seq,
                    epoch: fresh.epoch,
                    reqs,
                });
                batch_seq += 1;
            }
            if let Some(p) = pending.take() {
                collect_epoch(p, &done_rx, &mut early, &mut clock, &mut metrics, src);
            }
            pending = Some(fresh);
        }

        if let Some(p) = pending.take() {
            collect_epoch(p, &done_rx, &mut early, &mut clock, &mut metrics, src);
        }
        debug_assert!(early.is_empty(), "stray completions after drain");
        injector.close();
    });

    metrics.sheds = intake.sheds();
    // Workers have joined (scope end): fold their structure-level hint
    // counters into the service report.
    metrics.absorb_op_stats(&op_stats.into_inner().unwrap());
    ServiceReport { metrics }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reqs(ops: &[ServeOp]) -> Vec<Request> {
        ops.iter()
            .enumerate()
            .map(|(i, &op)| Request {
                client: i as u32 % 4,
                id: i as u64,
                arrival_ns: i as u64,
                op,
            })
            .collect()
    }

    #[test]
    fn key_sorted_batches_cover_ascending_key_bands() {
        // Arrivals in scrambled key order.
        let ops: Vec<ServeOp> = (0..100u32)
            .map(|i| ServeOp::Get((i * 37) % 100 + 1))
            .collect();
        let batches = KeySorted.form(reqs(&ops), 32);
        // 32 + 32 + 32 + 4: full granules, the remainder last.
        assert_eq!(
            batches.iter().map(Vec::len).collect::<Vec<_>>(),
            vec![32, 32, 32, 4]
        );
        let mut ids: Vec<u64> = batches.iter().flatten().map(|r| r.id).collect();
        ids.sort_unstable();
        assert_eq!(
            ids,
            (0..100).collect::<Vec<u64>>(),
            "every request exactly once"
        );
        // Keys ascend within each batch and across batch boundaries.
        let keys: Vec<u32> = batches.iter().flatten().map(|r| r.op.key()).collect();
        assert!(keys.windows(2).all(|w| w[0] <= w[1]), "global key order");
    }

    #[test]
    fn granule_respects_both_caps() {
        assert_eq!(granule(10, 16), 16, "granule is at least one full team");
        assert_eq!(granule(100, 32), 96, "rounded down to a lane multiple");
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_is_rejected() {
        let mut cfg = ServeConfig::new(1);
        cfg.workers = 0;
        cfg.validate();
    }
}
