//! Socket-level load generator: closed-loop and open-loop client
//! populations driving a running edge server over real TCP.
//!
//! One OS thread per connection. In **closed-loop** mode a connection
//! multiplexes `clients_per_conn` logical clients, each cycling
//! think → issue → await-reply; offered load self-limits to the service
//! rate (the classic interactive population). In **open-loop** mode the
//! connection issues on a Poisson schedule regardless of completions (up
//! to an outstanding cap that models the client's socket buffer, counted
//! when it binds) — the arrival process does *not* slow down when the
//! server does, which is what exposes overload behavior honestly.
//!
//! Each connection is a **tenant**: its keys live in the disjoint window
//! `[tenant·span+1, (tenant+1)·span]`, drawn zipf-skewed within the
//! window. Disjoint namespaces make the server's read-your-writes
//! accounting exact and keep tenants from invalidating each other's
//! writes.
//!
//! Shed frames are counted and — in closed loop — retried after the
//! server's `retry_after_ms` hint (the protocol's backpressure loop,
//! closed end to end). Latency is recorded per completed request in log2
//! buckets; goodput counts only successful engine replies.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use gfsl_serve::LatencyHisto;
use gfsl_workload::{Lehmer64, ServeMix, ServeOp, Zipf};

use crate::client::EdgeClient;
use crate::proto::{Req, Resp};

/// Load-generator run parameters.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Connections (= tenants = generator threads).
    pub conns: usize,
    /// Logical closed-loop clients multiplexed per connection.
    pub clients_per_conn: usize,
    /// Mean think time per closed-loop client, microseconds.
    pub think_us: u64,
    /// Open-loop arrival rate per connection, requests/second. Zero runs
    /// closed-loop; non-zero runs open-loop (ignoring `clients_per_conn`).
    pub open_rate_per_conn: f64,
    /// Cap on outstanding open-loop requests per connection; arrivals past
    /// it are counted as local drops (client buffer overflow), not sent.
    pub max_outstanding: usize,
    /// Run duration, milliseconds.
    pub duration_ms: u64,
    /// Operation mix.
    pub mix: ServeMix,
    /// Keys per tenant window.
    pub key_span: u32,
    /// Zipf skew within a tenant window (`0` = uniform).
    pub zipf_theta: f64,
    /// RNG seed (per-connection streams derive from it).
    pub seed: u64,
    /// Scan-tenant mode: every `Range` op the mix draws goes on the wire
    /// as a `SnapRange` — a version-pinned count answered at the edge
    /// outside the epoch batch. Pair with a range-bearing mix
    /// (e.g. `ServeMix::RANGE10`).
    pub snap_scans: bool,
}

impl Default for LoadConfig {
    fn default() -> LoadConfig {
        LoadConfig {
            conns: 4,
            clients_per_conn: 8,
            think_us: 100,
            open_rate_per_conn: 0.0,
            max_outstanding: 1024,
            duration_ms: 1_000,
            mix: ServeMix::C80,
            key_span: 10_000,
            zipf_theta: 0.6,
            seed: 42,
            snap_scans: false,
        }
    }
}

/// What one load-generator run observed, aggregated over all connections.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Successful engine replies (the goodput numerator).
    pub ops_ok: u64,
    /// `Failed` replies from the engine.
    pub failures: u64,
    /// `Snapped` replies received (pinned snapshot counts; also counted
    /// in `ops_ok`).
    pub snaps: u64,
    /// `Shed` frames received.
    pub sheds: u64,
    /// Shed requests retried (closed loop honors `retry_after_ms`).
    pub retries: u64,
    /// Open-loop arrivals dropped at the client's outstanding cap.
    pub local_drops: u64,
    /// Connections that died on a socket/protocol error.
    pub conn_errors: u64,
    /// Wall-clock of the measured window, milliseconds.
    pub wall_ms: u64,
    /// Successful replies per second over the measured window.
    pub goodput_ops_s: f64,
    /// Completion latency histogram (successful replies only).
    pub histo: LatencyHisto,
}

impl LoadReport {
    fn fold(&mut self, other: LoadReport) {
        self.ops_ok += other.ops_ok;
        self.failures += other.failures;
        self.snaps += other.snaps;
        self.sheds += other.sheds;
        self.retries += other.retries;
        self.local_drops += other.local_drops;
        self.conn_errors += other.conn_errors;
        self.histo.merge(&other.histo);
    }
}

/// Tenant `t`'s key for a zipf draw `z` in `1..=span`.
fn tenant_key(tenant: usize, span: u32, z: u32) -> u32 {
    (tenant as u32) * span + z
}

/// The top key of tenant `t`'s window — what range draws clamp to. Passing
/// the span alone would invert the window for every tenant but the first
/// (`lo` is a global key, so the clamp must be too).
fn tenant_top(tenant: usize, span: u32) -> u32 {
    (tenant as u32 + 1) * span
}

/// Run the configured population against `addr`; blocks for the duration
/// and returns the aggregate report.
pub fn run(addr: SocketAddr, cfg: &LoadConfig) -> LoadReport {
    let started = Instant::now();
    let mut handles = Vec::with_capacity(cfg.conns);
    for c in 0..cfg.conns {
        let cfg = cfg.clone();
        handles.push(std::thread::spawn(move || {
            if cfg.open_rate_per_conn > 0.0 {
                open_loop_conn(addr, &cfg, c)
            } else {
                closed_loop_conn(addr, &cfg, c)
            }
        }));
    }
    let mut report = LoadReport::default();
    for h in handles {
        match h.join() {
            Ok(r) => report.fold(r),
            Err(_) => report.conn_errors += 1,
        }
    }
    report.wall_ms = started.elapsed().as_millis() as u64;
    let secs = (report.wall_ms as f64 / 1e3).max(1e-9);
    report.goodput_ops_s = report.ops_ok as f64 / secs;
    report
}

/// One in-flight request, keyed by its wire id.
struct Outstanding {
    op: ServeOp,
    sent: Instant,
    /// Closed-loop client slot this belongs to (`usize::MAX` in open loop).
    slot: usize,
}

fn account(r: &mut LoadReport, out: &Outstanding, resp: &Resp, now: Instant) -> Option<u32> {
    match resp {
        Resp::Shed { retry_after_ms, .. } => {
            r.sheds += 1;
            Some(*retry_after_ms)
        }
        Resp::Failed { .. } => {
            r.failures += 1;
            None
        }
        resp => {
            if matches!(resp, Resp::Snapped { .. }) {
                r.snaps += 1;
            }
            r.ops_ok += 1;
            r.histo.record(now.duration_since(out.sent).as_nanos() as u64);
            None
        }
    }
}

fn closed_loop_conn(addr: SocketAddr, cfg: &LoadConfig, conn_idx: usize) -> LoadReport {
    let mut report = LoadReport::default();
    let mut client = match EdgeClient::connect(addr, Some(Duration::from_millis(5))) {
        Ok(c) => c,
        Err(_) => {
            report.conn_errors += 1;
            return report;
        }
    };
    let mut rng = Lehmer64::new(cfg.seed ^ (conn_idx as u64).wrapping_mul(0x9E3779B97F4A7C15));
    let zipf = Zipf::new(cfg.key_span.max(1), cfg.zipf_theta);
    let think = Duration::from_micros(cfg.think_us);
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_millis(cfg.duration_ms);

    // Each slot is a logical client: either thinking until an instant, or
    // waiting on a request id.
    enum Slot {
        Thinking { until: Instant, retry_of: Option<ServeOp> },
        Waiting,
    }
    let mut slots: Vec<Slot> = (0..cfg.clients_per_conn.max(1))
        .map(|i| Slot::Thinking {
            until: t0 + Duration::from_micros((cfg.think_us / 4) * i as u64),
            retry_of: None,
        })
        .collect();
    let mut inflight: HashMap<u64, Outstanding> = HashMap::new();

    loop {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        // Issue for every slot whose think time expired.
        for (s, slot) in slots.iter_mut().enumerate() {
            if let Slot::Thinking { until, retry_of } = slot {
                if now >= *until {
                    let op = retry_of.take().unwrap_or_else(|| {
                        let z = zipf.draw(&mut rng);
                        let k = tenant_key(conn_idx, cfg.key_span, z);
                        cfg.mix.draw_keyed(&mut rng, k, tenant_top(conn_idx, cfg.key_span))
                    });
                    let id = client.send(op_req(op, cfg.snap_scans));
                    inflight.insert(id, Outstanding { op, sent: now, slot: s });
                    *slot = Slot::Waiting;
                }
            }
        }
        // Collect completions (poll blocks ≤ the 5 ms read timeout).
        if client.poll().is_err() {
            report.conn_errors += 1;
            break;
        }
        let now = Instant::now();
        while let Some((id, resp)) = client.take_ready() {
            let Some(out) = inflight.remove(&id) else { continue };
            let retry_ms = account(&mut report, &out, &resp, now);
            let (until, retry_of) = match retry_ms {
                Some(ms) => {
                    report.retries += 1;
                    (now + Duration::from_millis(ms as u64), Some(out.op))
                }
                None => (now + think, None),
            };
            slots[out.slot] = Slot::Thinking { until, retry_of };
        }
    }
    report
}

fn open_loop_conn(addr: SocketAddr, cfg: &LoadConfig, conn_idx: usize) -> LoadReport {
    let mut report = LoadReport::default();
    let mut client = match EdgeClient::connect(addr, Some(Duration::from_millis(2))) {
        Ok(c) => c,
        Err(_) => {
            report.conn_errors += 1;
            return report;
        }
    };
    let mut rng = Lehmer64::new(cfg.seed ^ (conn_idx as u64).wrapping_mul(0xD1B54A32D192ED03));
    let zipf = Zipf::new(cfg.key_span.max(1), cfg.zipf_theta);
    let gap_ns = (1e9 / cfg.open_rate_per_conn).max(1.0);
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_millis(cfg.duration_ms);
    // Deterministic-rate schedule with exponential jitter folded in by the
    // zipf/mix rng; next_at advances on the schedule, never on completions.
    let mut next_at = t0;
    let mut inflight: HashMap<u64, Outstanding> = HashMap::new();

    loop {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        while next_at <= now {
            next_at += Duration::from_nanos(gap_ns as u64);
            if inflight.len() >= cfg.max_outstanding {
                report.local_drops += 1;
                continue;
            }
            let z = zipf.draw(&mut rng);
            let k = tenant_key(conn_idx, cfg.key_span, z);
            let op = cfg.mix.draw_keyed(&mut rng, k, tenant_top(conn_idx, cfg.key_span));
            let id = client.send(op_req(op, cfg.snap_scans));
            inflight.insert(id, Outstanding { op, sent: now, slot: usize::MAX });
        }
        if client.poll().is_err() {
            report.conn_errors += 1;
            break;
        }
        let now = Instant::now();
        while let Some((id, resp)) = client.take_ready() {
            let Some(out) = inflight.remove(&id) else { continue };
            // Open loop never retries: a shed is a shed, the schedule
            // marches on.
            account(&mut report, &out, &resp, now);
        }
    }
    report
}

/// The wire request for a drawn serve op. In scan-tenant mode every range
/// goes out as a version-pinned `SnapRange`.
pub fn op_req(op: ServeOp, snap_scans: bool) -> Req {
    match op {
        ServeOp::Get(k) => Req::Get(k),
        ServeOp::Insert(k, v) => Req::Insert(k, v),
        ServeOp::Delete(k) => Req::Delete(k),
        ServeOp::Range(lo, hi) if snap_scans => Req::SnapRange(lo, hi),
        ServeOp::Range(lo, hi) => Req::Range(lo, hi),
        ServeOp::MinEntry => Req::MinEntry,
        ServeOp::PopMin => Req::PopMin,
    }
}
