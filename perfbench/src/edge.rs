//! The benchmark's own edge driver and durable sink.
//!
//! Built on `EdgeClient::{send, poll, take_ready, stream}` and not on
//! `gfsl_edge::loadgen`: the load generator records latency in log2 buckets,
//! times open-loop requests from the send instant, and its open-loop `poll`
//! blocks for the socket's 2 ms receive timeout. This driver stores exact
//! nanosecond samples, never blocks in a read (the generator thread spins on a
//! non-blocking socket, so it is never waiting to be woken), times each
//! open-loop request from the instant it was due, and reports how late the
//! generator ran.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use gfsl_durable::{DurabilityContract, Failpoints, Wal, WalOp};
use gfsl_edge::{EdgeClient, EdgeConfig, EdgeServer, Req, SharedSink, StatsSnapshot};
use gfsl_serve::{CommitSink, WriteEffect};
use gfsl_workload::ServeOp;

use crate::oracle::{self, FAILED};
use crate::quant::{Lane, Slice};
use crate::store::Store;

/// Reply code of a `Pong`; no value the benchmark writes reaches it.
pub const PONG: u32 = u32::MAX - 2;

/// Pipelined closed-loop clients on the one connection. With 64 the loop runs
/// in lock step — the server answers all 64, finds the socket empty, sleeps
/// its 50 us, and meets all 64 again — and goodput is set by how late the
/// hypervisor delivers that timer, not by the code. 1024 take the generator
/// longer to turn around than the server sleeps, so the server always finds
/// work waiting: the workload measures the edge at saturation.
pub const CLIENTS: usize = 1024;
/// Requests a closed loop queues before it writes them to the socket: the
/// server gets the first of a group of replies' successors while the
/// generator is still reading the rest.
const FLUSH_GROUP: usize = 32;
/// Open-loop cap on requests in flight. An arrival beyond it waits in the
/// generator and is sent late — its latency still runs from its due instant,
/// so a stall is paid for in full and nothing is dropped. 4096 frames are
/// 60 KB, far below the loopback send buffer, so a non-blocking write never
/// comes back short.
const MAX_OUTSTANDING: usize = 4096;
/// A loop that sees no reply for this long gives up on the rest.
const STALL_NS: u64 = 2_000_000_000;
/// Completions per slice of a closed-loop and of an open-loop trial.
pub const CLOSED_SLICE: usize = 4096;
pub const OPEN_SLICE: usize = 1024;
/// WAL segment size, records (the durable tier's own default).
const SEG_RECORDS: u32 = 1024;

/// Nanoseconds on the process-wide clock every span is recorded against.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The directory the executable sits in: the build directory, which is inside
/// the checkout and ignored by git. Everything the benchmark writes goes here.
pub fn build_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("own path");
    exe.parent()
        .expect("executable sits in a directory")
        .to_path_buf()
}

/// A scratch directory inside the build directory, unique per call.
pub fn scratch_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = build_dir().join("perfbench-scratch").join(format!(
        "{}-{}-{tag}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

pub fn op_req(op: ServeOp) -> Req {
    match op {
        ServeOp::Get(k) => Req::Get(k),
        ServeOp::Insert(k, v) => Req::Insert(k, v),
        ServeOp::Delete(k) => Req::Delete(k),
        other => panic!("the benchmark generates no {other:?}"),
    }
}

// ---- the durable sink ----

#[derive(Debug, Clone, Copy)]
pub struct Commit {
    pub start_ns: u64,
    pub dur_ns: u64,
    pub records: u32,
}

/// A `CommitSink` that owns a `gfsl_durable::Wal` and times every group
/// commit from outside: the durable layer's busy time, as the edge sees it.
pub struct TimedSink {
    pub wal: Wal,
    hook: Failpoints,
    scratch: Vec<WalOp>,
    pub commits: Vec<Commit>,
    /// Key of every effect, in log order — kept only in a traced run, to
    /// attribute each commit span to the requests it covers.
    pub keys: Option<Vec<u32>>,
}

impl TimedSink {
    pub fn create(dir: &Path, contract: DurabilityContract, traced: bool) -> TimedSink {
        TimedSink {
            wal: Wal::create(dir, contract, SEG_RECORDS).expect("create WAL"),
            hook: Failpoints::Off,
            scratch: Vec::new(),
            commits: Vec::new(),
            keys: traced.then(Vec::new),
        }
    }
}

impl CommitSink for TimedSink {
    fn commit(&mut self, effects: &[WriteEffect]) -> io::Result<u64> {
        if effects.is_empty() {
            return Ok(0);
        }
        let start_ns = now_ns();
        self.scratch.clear();
        self.scratch.extend(effects.iter().map(|e| match e.value {
            Some(val) => WalOp::Put { key: e.key, val },
            None => WalOp::Del { key: e.key },
        }));
        let (_, last) = self.wal.append(&self.scratch, &mut self.hook)?;
        self.commits.push(Commit {
            start_ns,
            dur_ns: now_ns() - start_ns,
            records: effects.len() as u32,
        });
        if let Some(keys) = &mut self.keys {
            keys.extend(effects.iter().map(|e| e.key));
        }
        Ok(last)
    }
}

/// Bytes of every file in `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

// ---- server + connection ----

/// A running server over a fresh store: everything `setup_s` covers for an
/// edge workload. Connecting is not part of it: the handshake is answered by
/// the server's worker when it next wakes from its 50 us idle sleep, so it
/// takes as long as the hypervisor takes to deliver that timer (0.3–1 ms,
/// and a quarter more or less from one quarter of an hour to the next) —
/// several times the prefill, bind and thread spawns that are the set-up.
pub struct Rig {
    pub store: Store,
    pub server: EdgeServer,
    pub sink: Option<Arc<Mutex<TimedSink>>>,
    pub wal_dir: Option<PathBuf>,
}

impl Rig {
    /// One worker: with the generator thread that makes two busy threads, the
    /// host's core count (the acceptor is blocked in `accept`).
    ///
    /// The admission bound is raised from the default 256 to twice what the
    /// generators ever keep in flight, so the server sheds nothing. On a
    /// shared two-core host the worker is descheduled for milliseconds a few
    /// times a second; at 100k req/s that is a burst of more than 256 frames,
    /// which the default bound sheds (0.02–0.7 % of requests, measured). Shed
    /// counts set by the hypervisor would make `failed` differ from run to
    /// run on identical code; what a stall costs shows in the latencies
    /// instead. Anything the server sheds all the same counts as failed.
    pub fn start(store: Store, wal: Option<DurabilityContract>, traced: bool) -> Rig {
        let cfg = EdgeConfig {
            workers: 1,
            intake_cap: 2 * MAX_OUTSTANDING,
            ..EdgeConfig::default()
        };
        let (sink, wal_dir) = match wal {
            Some(contract) => {
                let dir = scratch_dir("wal");
                let sink = Arc::new(Mutex::new(TimedSink::create(&dir, contract, traced)));
                (Some(sink), Some(dir))
            }
            None => (None, None),
        };
        let server = match &sink {
            Some(s) => {
                let shared: SharedSink = s.clone();
                EdgeServer::start_durable(store.engine(), cfg, shared)
            }
            None => EdgeServer::start(store.engine(), cfg),
        }
        .expect("start edge server");
        Rig {
            store,
            server,
            sink,
            wal_dir,
        }
    }

    /// The one connection of a trial. The handshake waits as long as the
    /// server takes (a descheduled acceptor is the host's doing, and a dead
    /// one the watchdog's to catch); the loops switch the socket to
    /// non-blocking.
    pub fn connect(&self) -> EdgeClient {
        EdgeClient::connect(self.server.addr(), None).expect("connect to edge server")
    }

    /// Stop the server — every connection closed first — and hand back its
    /// counters and the sink. The scratch directory is the caller's to remove.
    pub fn stop(self) -> (Store, StatsSnapshot, Option<TimedSink>, Option<PathBuf>) {
        let stats = self.server.shutdown();
        let sink = self.sink.map(|s| {
            Arc::try_unwrap(s)
                .ok()
                .expect("server threads have exited")
                .into_inner()
                .expect("commit sink poisoned")
        });
        (self.store, stats, sink, self.wal_dir)
    }
}

// ---- recording ----

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Status {
    Unanswered,
    Answered,
    Shed,
    Failed,
    Proto,
}

/// Per-request record, index = position in the stream = wire id − first id.
/// Allocated and touched before the trial so the timed loop faults no page.
pub struct Recorder {
    /// Send instant (closed loop) or due instant (open loop), ns.
    pub start: Vec<u64>,
    pub end: Vec<u64>,
    pub code: Vec<u32>,
    pub status: Vec<Status>,
    /// Stream index of every completed request, in the order replies came.
    order: Vec<u32>,
    /// Completions per slice.
    slice: usize,
    /// How long after it was due each request left: per request in open
    /// loop, per group of replies turned around in closed loop.
    pub late: Vec<u64>,
    /// The connection broke or stalled before every reply arrived.
    pub broken: bool,
}

impl Recorder {
    pub fn new(n: usize, slice: usize) -> Recorder {
        Recorder {
            start: vec![u64::MAX; n],
            end: vec![u64::MAX; n],
            code: vec![FAILED; n],
            status: vec![Status::Unanswered; n],
            order: Vec::with_capacity(n),
            slice,
            late: Vec::with_capacity(n),
            broken: false,
        }
    }

    fn complete(&mut self, i: usize, resp: &gfsl_edge::Resp, now: u64) {
        use gfsl_edge::Resp;
        self.end[i] = now;
        self.status[i] = match resp {
            Resp::Shed { .. } => Status::Shed,
            Resp::Failed { .. } => Status::Failed,
            Resp::Proto { .. } => Status::Proto,
            _ => Status::Answered,
        };
        self.code[i] = match resp {
            Resp::Pong => PONG,
            other => oracle::resp_code(other),
        };
        self.order.push(i as u32);
    }

    pub fn count(&self, s: Status) -> u64 {
        self.status.iter().filter(|&&x| x == s).count() as u64
    }

    /// Sorted latencies of the answered requests, ns.
    pub fn latencies(&self) -> Vec<u64> {
        let mut v: Vec<u64> = (0..self.status.len())
            .filter(|&i| self.status[i] == Status::Answered)
            .map(|i| self.end[i] - self.start[i])
            .collect();
        v.sort_unstable();
        v
    }

    /// The trial cut into slices of `slice` completions, in the order they
    /// came in, with the latencies of the requests in each. (A stream's
    /// length is a whole number of slices, see `Workload::ops`.)
    ///
    /// How long a slice took is not read off the instants its replies were
    /// read: when the generator is descheduled, replies pile up in the socket
    /// and are then read in one go, so the slices after a stall seem to take
    /// no time at all — and the fastest repeat of a slice would be the one
    /// that followed the longest stall. A closed loop of `window` clients
    /// completes `window` requests per mean round trip (Little's law), and a
    /// stalled generator only ever lengthens a round trip; so a closed-loop
    /// slice takes its mean latency × its requests ÷ `window`. An open loop's
    /// pace is its schedule's (`run::WorkloadRun::summary` does not use its
    /// slices' durations); its slices span their first to their last reply.
    pub fn lane(&self, window: Option<usize>) -> Lane {
        self.order
            .chunks_exact(self.slice)
            .map(|ids| {
                let ends = ids.iter().map(|&i| self.end[i as usize]);
                let mut lat: Vec<u64> = ids
                    .iter()
                    .map(|&i| self.end[i as usize] - self.start[i as usize])
                    .collect();
                let dur_ns = match window {
                    Some(w) => lat.iter().sum::<u64>() / w as u64,
                    None => ends.clone().max().unwrap_or(0) - ends.min().unwrap_or(0),
                };
                Slice::of(dur_ns, &mut lat)
            })
            .collect()
    }
}

// ---- the two loops ----

/// `window` closed-loop clients, zero think time: each sends its next request
/// the moment its reply is read. The generator spins on a non-blocking
/// socket, so it is one busy thread. Returns the wall time, ns.
pub fn closed_loop(
    client: &mut EdgeClient,
    reqs: &[Req],
    window: usize,
    rec: &mut Recorder,
) -> u64 {
    let n = reqs.len();
    if client.stream().set_nonblocking(true).is_err() {
        rec.broken = true;
        return 0;
    }
    let t0 = now_ns();
    let (mut next, mut done, mut base) = (0usize, 0usize, 0u64);
    let mut last_progress = t0;
    while next < window.min(n) {
        let id = client.send(reqs[next]);
        if next == 0 {
            base = id;
        }
        rec.start[next] = t0;
        next += 1;
    }
    'trial: while done < n {
        if client.poll().is_err() {
            rec.broken = true;
            break;
        }
        let read_at = now_ns();
        // A zero-think client's request is due the moment its reply is read.
        // It counts as sent at the last clock reading before it was queued:
        // the read, or the flush of the group before it.
        let (mut now, mut queued, sent_before) = (read_at, 0, next);
        while let Some((id, resp)) = client.take_ready() {
            rec.complete((id - base) as usize, &resp, read_at);
            done += 1;
            last_progress = read_at;
            if next < n {
                client.send(reqs[next]);
                rec.start[next] = now;
                next += 1;
                queued += 1;
            }
            if queued == FLUSH_GROUP {
                if client.flush().is_err() {
                    rec.broken = true;
                    break 'trial;
                }
                now = now_ns();
                queued = 0;
            }
        }
        if queued > 0 && client.flush().is_err() {
            rec.broken = true;
            break;
        }
        if next > sent_before {
            // How long this group of replies took to turn around.
            rec.late.push(now_ns() - read_at);
        }
        if read_at - last_progress > STALL_NS {
            rec.broken = true;
            break;
        }
    }
    now_ns() - t0
}

/// Open loop: request `i` is due `due_ns[i]` after the start whatever the
/// server does, and its latency runs from that instant. The generator spins
/// on a non-blocking socket, so it is one busy thread.
pub fn open_loop(client: &mut EdgeClient, reqs: &[Req], due_ns: &[u64], rec: &mut Recorder) -> u64 {
    let n = reqs.len();
    if client.stream().set_nonblocking(true).is_err() {
        rec.broken = true;
        return 0;
    }
    let t0 = now_ns();
    let (mut next, mut done, mut base) = (0usize, 0usize, 0u64);
    let mut last_progress = t0;
    while done < n {
        let now = now_ns();
        while next < n && t0 + due_ns[next] <= now && next - done < MAX_OUTSTANDING {
            let due = t0 + due_ns[next];
            let id = client.send(reqs[next]);
            if next == 0 {
                base = id;
            }
            rec.start[next] = due;
            rec.late.push(now - due);
            next += 1;
        }
        if client.poll().is_err() {
            rec.broken = true;
            break;
        }
        let now = now_ns();
        while let Some((id, resp)) = client.take_ready() {
            rec.complete((id - base) as usize, &resp, now);
            done += 1;
            last_progress = now;
        }
        if next == done {
            // Nothing in flight: waiting for the next arrival is not a stall.
            last_progress = now;
        } else if now - last_progress > STALL_NS {
            rec.broken = true;
            break;
        }
    }
    now_ns() - t0
}
