//! Thread-per-core TCP edge server.
//!
//! One blocking acceptor thread hands each accepted connection to a worker
//! over a channel, round-robin — a connection stays pinned to its worker
//! for life (connection affinity: no cross-core handoff per request, the
//! session's buffers and read-your-writes table stay core-local). Each
//! worker owns its sessions outright and runs a nonblocking poll loop:
//!
//! 1. adopt newly assigned connections;
//! 2. drain readable bytes, decode frames, and *admit* each request — a
//!    full epoch buffer or a degraded supervisor rung answers with a typed
//!    [`Resp::Shed`] frame (retry-after in ms) instead of queueing without
//!    bound;
//! 3. once the epoch buffer reaches `batch_ops` or the `epoch_us` deadline
//!    passes, execute the whole buffer against the engine in one batched
//!    call (the GPU-style cooperative dispatch the structure is built for),
//!    group-commit write effects into the durable sink *before* any reply
//!    is queued (commit-before-ack), then route replies back to each
//!    session by request id;
//! 4. heal the engine: repair its quarantine (every pass; a crashed op
//!    leaves its chunks there), advance the scrubber on a pass that did no work, and
//!    feed the worker's [`Supervisor`] the epoch's aborted replies, the
//!    chunks repaired and the quarantine depth left — the rung that gates
//!    step 2 (DESIGN §13);
//! 5. flush, and shed connections that broke framing (one [`Resp::Proto`]
//!    frame, then close) or stalled mid-frame past the slow-client timeout.
//!
//! Everything is std networking — no async runtime; the thread-per-core
//! loop with nonblocking sockets *is* the runtime.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gfsl::Error as GfslError;
use gfsl_serve::{batch_effects, CommitSink, Reply, ShedError, Supervisor, WriteEffect};
use gfsl_workload::ServeOp;

use crate::engine::EdgeEngine;
use crate::proto::{self, Resp};
use crate::session::Session;

/// Shared handle to a durable commit sink (workers group-commit through it).
pub type SharedSink = Arc<Mutex<dyn CommitSink + Send>>;

/// Chunks the engine's background scrubber re-validates on each pass that
/// did no work. Small on purpose: the scrubber spends idle time, never
/// served traffic's.
const SCRUB_BUDGET_PER_IDLE_PASS: usize = 32;

/// Edge server tuning.
#[derive(Debug, Clone)]
pub struct EdgeConfig {
    /// Worker threads (thread-per-core; each owns its connections).
    pub workers: usize,
    /// Epoch batch size: execute once this many requests are buffered.
    pub batch_ops: usize,
    /// Epoch deadline, microseconds: execute a partial batch this old.
    pub epoch_us: u64,
    /// Per-worker admission bound: requests buffered beyond this shed.
    pub intake_cap: usize,
    /// Slow-client guard: a session stalled mid-frame (or refusing to read
    /// its responses) longer than this is dropped.
    pub idle_timeout_ms: u64,
    /// Drain-rate estimate feeding shed retry-after hints, ns per request.
    pub drain_ns_per_req: u64,
}

impl Default for EdgeConfig {
    fn default() -> EdgeConfig {
        EdgeConfig {
            workers: 2,
            batch_ops: 32,
            epoch_us: 200,
            intake_cap: 256,
            idle_timeout_ms: 2_000,
            drain_ns_per_req: 2_000,
        }
    }
}

/// Monotonic server counters, shared across workers.
#[derive(Debug, Default)]
pub struct EdgeStats {
    /// Connections accepted.
    pub conns_accepted: AtomicU64,
    /// Connections closed (any cause).
    pub conns_closed: AtomicU64,
    /// Connections shed for framing violations (after a `Proto` frame).
    pub proto_errors: AtomicU64,
    /// Connections dropped by the slow-client timeout.
    pub timeouts: AtomicU64,
    /// Engine replies delivered successfully.
    pub ops_ok: AtomicU64,
    /// Engine replies delivered as `Failed`.
    pub ops_failed: AtomicU64,
    /// Requests answered with a `Shed` frame.
    pub sheds: AtomicU64,
    /// Pings answered at the edge.
    pub pings: AtomicU64,
    /// Pinned snapshot counts answered at the edge (never batched).
    pub snaps: AtomicU64,
    /// Epoch batches executed.
    pub epochs: AtomicU64,
    /// [`Session::ryw_violations`] summed over closed sessions: reads that
    /// differed from the reading session's own last write of the key —
    /// violations only where no other session writes that key.
    pub ryw_violations: AtomicU64,
    /// Highest supervisor rung any worker reached (severity 0–3); stays 0
    /// unless an operation crashed or aborted.
    pub max_mode: AtomicU64,
    /// Supervisor rung changes, both directions, summed over workers.
    pub mode_transitions: AtomicU64,
    /// Longest completed degraded interval — first rung off `Normal` until
    /// the return to it — any worker's supervisor reported, ns.
    pub time_to_heal_ns: AtomicU64,
}

/// Plain-value copy of [`EdgeStats`] at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Connections accepted.
    pub conns_accepted: u64,
    /// Connections closed.
    pub conns_closed: u64,
    /// Framing-violation sheds.
    pub proto_errors: u64,
    /// Slow-client timeouts.
    pub timeouts: u64,
    /// Successful engine replies.
    pub ops_ok: u64,
    /// Failed engine replies.
    pub ops_failed: u64,
    /// Shed frames sent.
    pub sheds: u64,
    /// Pings answered.
    pub pings: u64,
    /// Pinned snapshot counts answered.
    pub snaps: u64,
    /// Epochs executed.
    pub epochs: u64,
    /// Reads that differed from the session's own last write of the key.
    pub ryw_violations: u64,
    /// Highest supervisor severity reached.
    pub max_mode: u64,
    /// Supervisor rung changes.
    pub mode_transitions: u64,
    /// Longest completed degraded interval, ns.
    pub time_to_heal_ns: u64,
}

impl EdgeStats {
    fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            conns_accepted: self.conns_accepted.load(Ordering::Relaxed),
            conns_closed: self.conns_closed.load(Ordering::Relaxed),
            proto_errors: self.proto_errors.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            ops_ok: self.ops_ok.load(Ordering::Relaxed),
            ops_failed: self.ops_failed.load(Ordering::Relaxed),
            sheds: self.sheds.load(Ordering::Relaxed),
            pings: self.pings.load(Ordering::Relaxed),
            snaps: self.snaps.load(Ordering::Relaxed),
            epochs: self.epochs.load(Ordering::Relaxed),
            ryw_violations: self.ryw_violations.load(Ordering::Relaxed),
            max_mode: self.max_mode.load(Ordering::Relaxed),
            mode_transitions: self.mode_transitions.load(Ordering::Relaxed),
            time_to_heal_ns: self.time_to_heal_ns.load(Ordering::Relaxed),
        }
    }
}

/// A running edge server. Dropping without [`EdgeServer::shutdown`] leaks
/// the threads for the process lifetime; tests and benches should shut
/// down explicitly to collect final counters.
pub struct EdgeServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    stats: Arc<EdgeStats>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl EdgeServer {
    /// Bind `127.0.0.1:0` and start the acceptor plus worker threads, no
    /// durable sink (replies ack from memory alone).
    pub fn start(engine: EdgeEngine, cfg: EdgeConfig) -> io::Result<EdgeServer> {
        EdgeServer::launch(engine, cfg, None)
    }

    /// Like [`EdgeServer::start`], with commit-before-ack through `sink`:
    /// no write is acknowledged on the wire before its effect is committed.
    pub fn start_durable(
        engine: EdgeEngine,
        cfg: EdgeConfig,
        sink: SharedSink,
    ) -> io::Result<EdgeServer> {
        EdgeServer::launch(engine, cfg, Some(sink))
    }

    fn launch(
        engine: EdgeEngine,
        cfg: EdgeConfig,
        sink: Option<SharedSink>,
    ) -> io::Result<EdgeServer> {
        assert!(cfg.workers > 0, "need at least one worker");
        assert!(cfg.batch_ops > 0 && cfg.intake_cap >= cfg.batch_ops);
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(EdgeStats::default());
        let start = Instant::now();

        let mut senders = Vec::with_capacity(cfg.workers);
        let mut workers = Vec::with_capacity(cfg.workers);
        for w in 0..cfg.workers {
            let (tx, rx) = mpsc::channel::<TcpStream>();
            senders.push(tx);
            let engine = engine.clone();
            let cfg = cfg.clone();
            let stop = stop.clone();
            let stats = stats.clone();
            let sink = sink.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("edge-worker-{w}"))
                    .spawn(move || worker_loop(engine, cfg, rx, stop, stats, sink, start))
                    .expect("spawn edge worker"),
            );
        }

        let astop = stop.clone();
        let astats = stats.clone();
        let acceptor = std::thread::Builder::new()
            .name("edge-acceptor".into())
            .spawn(move || {
                let mut next = 0usize;
                for conn in listener.incoming() {
                    if astop.load(Ordering::Relaxed) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    astats.conns_accepted.fetch_add(1, Ordering::Relaxed);
                    // Round-robin pinning; a dead worker's channel just
                    // drops the stream (only happens during shutdown).
                    let _ = senders[next % senders.len()].send(stream);
                    next += 1;
                }
            })
            .expect("spawn edge acceptor");

        Ok(EdgeServer {
            addr,
            stop,
            stats,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live counter snapshot.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// Stop accepting, drain workers, and return the final counters.
    pub fn shutdown(mut self) -> StatsSnapshot {
        self.stop.store(true, Ordering::Relaxed);
        // Unblock the acceptor's blocking accept with a throwaway connect.
        let _ = TcpStream::connect(self.addr);
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        self.stats.snapshot()
    }
}

/// One admitted request waiting in the epoch buffer.
struct PendingReq {
    conn: usize,
    req_id: u64,
    op: ServeOp,
}

struct Conn {
    sess: Session,
    /// Socket hit EOF/error; kept only until its in-flight ops complete.
    closed: bool,
}

#[allow(clippy::too_many_arguments)]
fn worker_loop(
    engine: EdgeEngine,
    cfg: EdgeConfig,
    rx: mpsc::Receiver<TcpStream>,
    stop: Arc<AtomicBool>,
    stats: Arc<EdgeStats>,
    sink: Option<SharedSink>,
    start: Instant,
) {
    // Extra frames decoded per pass beyond epoch-buffer room: the shed
    // trickle. Keeps typed retry-after frames flowing under overload
    // without spending the core decoding a firehose it would only discard.
    const SHED_QUANTUM: usize = 32;

    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut pending: Vec<PendingReq> = Vec::new();
    // Per-epoch scratch, kept across epochs so a steady-state epoch
    // allocates nothing.
    let mut ops: Vec<ServeOp> = Vec::new();
    let mut replies: Vec<Reply> = Vec::new();
    let mut effects: Vec<WriteEffect> = Vec::new();
    let mut epoch_started: Option<Instant> = None;
    // Rotating read offset so a budget-exhausted pass doesn't starve the
    // same tail sessions every time.
    let mut rr = 0usize;
    let mut supervisor = Supervisor::default();
    let idle_timeout = Duration::from_millis(cfg.idle_timeout_ms);
    let epoch_deadline = Duration::from_micros(cfg.epoch_us);

    loop {
        let stopping = stop.load(Ordering::Relaxed);
        let now = Instant::now();
        let mut progressed = false;

        // Adopt newly pinned connections.
        while let Ok(stream) = rx.try_recv() {
            if stream.set_nonblocking(true).is_err() {
                stats.conns_closed.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            let sess = Session::new(stream, now);
            let slot = conns.iter().position(Option::is_none);
            match slot {
                Some(i) => conns[i] = Some(Conn { sess, closed: false }),
                None => conns.push(Some(Conn { sess, closed: false })),
            }
            progressed = true;
        }

        let mode = supervisor.mode();

        // Read, decode, admit — under a decode budget. Each pass decodes
        // at most (epoch-buffer room + SHED_QUANTUM) frames across all
        // sessions; the surplus stays in session/kernel buffers, where TCP
        // backpressure throttles a firehose peer. Under overload the core
        // thus keeps executing admitted work instead of decoding traffic
        // it would only discard, while the quantum keeps a visible trickle
        // of typed Shed frames (retry-after hints) flowing to clients.
        let mut budget = cfg.intake_cap.saturating_sub(pending.len()) + SHED_QUANTUM;
        let nconns = conns.len();
        for k in 0..nconns {
            if budget == 0 {
                break;
            }
            let i = (rr + k) % nconns;
            let Some(conn) = conns[i].as_mut() else { continue };
            if conn.closed {
                continue;
            }
            let io = conn.sess.poll_read(now, budget);
            budget -= io.reqs.len().min(budget);
            if io.closed {
                conn.closed = true;
            }
            if io.proto_error.is_some() {
                stats.proto_errors.fetch_add(1, Ordering::Relaxed);
            }
            if !io.reqs.is_empty() {
                progressed = true;
            }
            for (req_id, req) in io.reqs {
                if let proto::Req::SnapRange(lo, hi) = req {
                    // Answered at admission from a pinned snapshot: the
                    // read is wait-free w.r.t. writers, so queueing it
                    // behind the epoch batch would only add latency — and
                    // it consumes no epoch-buffer slot, so it is never
                    // shed for depth.
                    stats.snaps.fetch_add(1, Ordering::Relaxed);
                    let resp = match engine.snap_count(lo, hi) {
                        Ok((version, count)) => Resp::Snapped { version, count },
                        Err(e) => Resp::Failed { code: proto::error_code(&e) },
                    };
                    conn.sess.push_resp(req_id, &resp);
                    continue;
                }
                let Some(op) = req.op() else {
                    stats.pings.fetch_add(1, Ordering::Relaxed);
                    conn.sess.push_resp(req_id, &Resp::Pong);
                    continue;
                };
                let depth = pending.len();
                let admitted =
                    depth < cfg.intake_cap && mode.admits(op, depth, cfg.intake_cap) && !stopping;
                if admitted {
                    if pending.is_empty() {
                        epoch_started = Some(now);
                    }
                    pending.push(PendingReq { conn: i, req_id, op });
                    conn.sess.inflight += 1;
                } else {
                    let shed = ShedError {
                        depth,
                        retry_after_ns: (depth as u64)
                            .saturating_mul(cfg.drain_ns_per_req)
                            .max(cfg.drain_ns_per_req),
                    };
                    stats.sheds.fetch_add(1, Ordering::Relaxed);
                    conn.sess.push_resp(req_id, &proto::shed_resp(mode, &shed));
                }
            }
        }
        rr = rr.wrapping_add(1);

        // Execute a full or expired epoch (always drain when stopping).
        let due = pending.len() >= cfg.batch_ops
            || epoch_started.is_some_and(|t| now.duration_since(t) >= epoch_deadline)
            || (stopping && !pending.is_empty());
        let executed = due && !pending.is_empty();
        let mut aborts = 0u64;
        if executed {
            progressed = true;
            epoch_started = None;
            ops.clear();
            ops.extend(pending.iter().map(|p| p.op));
            replies.clear();
            engine.execute(&ops, &mut replies);
            debug_assert_eq!(replies.len(), ops.len());

            // Commit-before-ack: the durable sink sees every write effect
            // of this epoch before any reply frame is queued.
            let mut commit_failed = false;
            if let Some(sink) = &sink {
                // In the order the engine ran the epoch, not arrival order.
                effects.clear();
                batch_effects(ops.iter().copied().zip(&replies), &mut effects);
                if !effects.is_empty() {
                    commit_failed = sink
                        .lock()
                        .expect("commit sink poisoned")
                        .commit(&effects)
                        .is_err();
                }
            }

            let (mut ok, mut failed) = (0u64, 0u64);
            for (p, reply) in pending.drain(..).zip(&replies) {
                let Some(conn) = conns[p.conn].as_mut() else { continue };
                conn.sess.inflight -= 1;
                if commit_failed && !p.op.is_read_only() {
                    failed += 1;
                    conn.sess.push_resp(p.req_id, &Resp::Failed { code: 0 });
                    continue;
                }
                conn.sess.observe_reply(p.op, reply);
                match reply {
                    Reply::Failed(e) => {
                        failed += 1;
                        // Only a typed abort is a fault; a reserved key is
                        // the client's mistake.
                        aborts += u64::from(matches!(e, GfslError::Aborted(_)));
                    }
                    _ => ok += 1,
                }
                conn.sess.push_resp(p.req_id, &proto::reply_resp(reply));
            }
            stats.ops_ok.fetch_add(ok, Ordering::Relaxed);
            stats.ops_failed.fetch_add(failed, Ordering::Relaxed);
            stats.epochs.fetch_add(1, Ordering::Relaxed);
        }

        // Heal on every pass (free while the quarantine is empty); the
        // scrubber advances only on a pass that has done no work, so idle
        // time pays for it. The supervisor observes each executed epoch
        // and, between epochs, every pass that repaired, left a quarantine
        // or runs degraded: a rung that refuses the clients' ops runs no
        // epoch, so only idle passes can walk it back down.
        let scrub = if progressed { 0 } else { SCRUB_BUDGET_PER_IDLE_PASS };
        let (repaired, depth) = engine.heal(scrub);
        if executed || repaired > 0 || depth > 0 || supervisor.degraded() {
            let seen = supervisor.transitions;
            let now_ns = now.duration_since(start).as_nanos() as u64;
            let m = supervisor.observe(now_ns, aborts + repaired, depth);
            if supervisor.transitions != seen {
                stats
                    .max_mode
                    .fetch_max(u64::from(m.severity()), Ordering::Relaxed);
                stats
                    .mode_transitions
                    .fetch_add(supervisor.transitions - seen, Ordering::Relaxed);
                stats
                    .time_to_heal_ns
                    .fetch_max(supervisor.time_to_heal_ns, Ordering::Relaxed);
            }
        }

        // Flush and reap.
        for slot in conns.iter_mut() {
            let Some(conn) = slot.as_mut() else { continue };
            if !conn.sess.poll_write(now) {
                conn.closed = true;
            }
            let timed_out = conn.sess.stalled()
                && now.duration_since(conn.sess.last_progress) >= idle_timeout;
            if timed_out && !conn.closed {
                stats.timeouts.fetch_add(1, Ordering::Relaxed);
                conn.closed = true;
            }
            let gone = (conn.closed || conn.sess.dead()) && conn.sess.inflight == 0;
            if gone {
                stats
                    .ryw_violations
                    .fetch_add(conn.sess.ryw_violations, Ordering::Relaxed);
                stats.conns_closed.fetch_add(1, Ordering::Relaxed);
                *slot = None;
                progressed = true;
            }
        }

        if stopping && pending.is_empty() {
            // Final pass already flushed what it could; account for the
            // sessions going down with the ship.
            for conn in conns.iter_mut().flatten() {
                stats
                    .ryw_violations
                    .fetch_add(conn.sess.ryw_violations, Ordering::Relaxed);
                stats.conns_closed.fetch_add(1, Ordering::Relaxed);
            }
            return;
        }

        if !progressed {
            // Nothing readable, nothing due: yield the core briefly. The
            // epoch deadline bounds the added latency.
            std::thread::sleep(Duration::from_micros(50));
        }
    }
}
