//! Networked edge: socket-level capacity, tail latency, and overload
//! behavior of the `gfsl-edge` TCP server. Not a paper artifact — this
//! measures the serving edge layered on top of the paper's structure.
//!
//! Four cells, all over real loopback sockets:
//!
//! 1. **closed-peak** — a zero-think closed-loop population; its goodput
//!    is the measured service capacity and the denominator below.
//! 2. **open-0.5x** — an open-loop zipf population at half capacity: the
//!    healthy regime (no sheds, tails near the closed-loop floor).
//! 3. **open-10x** — overload: arrivals at ~10× capacity. The edge must
//!    *shed, not collapse*. That it sheds is asserted, a count; goodput
//!    against peak and dead connections are reported (their columns, the
//!    `overload_no_collapse` attachment): both move with how the host
//!    schedules the load generator beside the server. That overflow
//!    surfaces as typed retry-after frames on a connection that survives
//!    is held deterministically by
//!    `edge_smoke::overload_sheds_with_typed_frames_and_the_connection_survives`.
//! 4. **pq-closed** — the producer/consumer priority-queue mix
//!    ([`ServeMix::PQ`]): inserts racing extract-mins through the wire
//!    `PopMin`/`MinEntry` ops.

use std::sync::Arc;

use gfsl::{Gfsl, GfslParams};
use gfsl_edge::loadgen::{self, LoadConfig, LoadReport};
use gfsl_edge::{EdgeConfig, EdgeEngine, EdgeServer, StatsSnapshot};
use gfsl_workload::ServeMix;
use serde::Serialize;

use super::ExpConfig;
use crate::report::Table;

/// Raw per-cell numbers attached to the bench JSON.
#[derive(Serialize)]
struct CellJson {
    cell: String,
    mode: String,
    conns: usize,
    offered_ops_s: f64,
    goodput_ops_s: f64,
    p50_us: f64,
    p99_us: f64,
    p999_us: f64,
    ops_ok: u64,
    sheds: u64,
    retries: u64,
    local_drops: u64,
    conn_errors: u64,
    server_epochs: u64,
    server_timeouts: u64,
    server_proto_errors: u64,
    ryw_violations: u64,
}

struct Cell {
    label: &'static str,
    mode: &'static str,
    offered: f64,
    report: LoadReport,
    stats: StatsSnapshot,
}

impl Cell {
    fn json(&self, cfg: &LoadConfig) -> CellJson {
        CellJson {
            cell: self.label.to_string(),
            mode: self.mode.to_string(),
            conns: cfg.conns,
            offered_ops_s: self.offered,
            goodput_ops_s: self.report.goodput_ops_s,
            p50_us: self.report.histo.quantile_ns(0.50) as f64 / 1e3,
            p99_us: self.report.histo.quantile_ns(0.99) as f64 / 1e3,
            p999_us: self.report.histo.quantile_ns(0.999) as f64 / 1e3,
            ops_ok: self.report.ops_ok,
            sheds: self.report.sheds,
            retries: self.report.retries,
            local_drops: self.report.local_drops,
            conn_errors: self.report.conn_errors,
            server_epochs: self.stats.epochs,
            server_timeouts: self.stats.timeouts,
            server_proto_errors: self.stats.proto_errors,
            ryw_violations: self.stats.ryw_violations,
        }
    }
}

fn server(cfg: &ExpConfig, prefill: u32) -> EdgeServer {
    let workers = cfg
        .workers
        .min(std::thread::available_parallelism().map_or(2, |p| p.get()))
        .max(1);
    let list = if prefill > 0 {
        Arc::new(Gfsl::prefilled(GfslParams::default(), 1..=prefill).expect("prefill"))
    } else {
        Arc::new(Gfsl::new(GfslParams::default()).expect("gfsl"))
    };
    EdgeServer::start(
        EdgeEngine::Single(list),
        EdgeConfig {
            workers,
            ..EdgeConfig::default()
        },
    )
    .expect("start edge server")
}

fn run_cell(
    cfg: &ExpConfig,
    label: &'static str,
    load: &LoadConfig,
    prefill: u32,
) -> Cell {
    let srv = server(cfg, prefill);
    let report = loadgen::run(srv.addr(), load);
    let stats = srv.shutdown();
    let (mode, offered) = if load.open_rate_per_conn > 0.0 {
        ("open", load.open_rate_per_conn * load.conns as f64)
    } else {
        // Closed loop offers what it completes.
        ("closed", report.goodput_ops_s)
    };
    Cell { label, mode, offered, report, stats }
}

/// Run the edge experiment: capacity, healthy open-loop, 10× overload, and
/// the priority-queue mix — all over real sockets.
pub fn run(cfg: &ExpConfig) -> Vec<Table> {
    let duration_ms = if cfg.quick { 500 } else { 2_000 };
    let conns = if cfg.quick { 4 } else { 8 };
    let base = LoadConfig {
        conns,
        clients_per_conn: 8,
        think_us: 0,
        open_rate_per_conn: 0.0,
        max_outstanding: 2_048,
        duration_ms,
        mix: ServeMix::C80,
        key_span: 10_000,
        zipf_theta: 0.6,
        seed: cfg.seed,
        snap_scans: false,
    };

    // Cell 1: closed-loop peak — the capacity estimate.
    let peak = run_cell(cfg, "closed-peak", &base, 0);
    let capacity = peak.report.goodput_ops_s.max(1.0);

    // Cell 2: open loop at ~0.5x capacity (healthy).
    let half = LoadConfig {
        open_rate_per_conn: capacity * 0.5 / conns as f64,
        ..base.clone()
    };
    let healthy = run_cell(cfg, "open-0.5x", &half, 0);

    // Cell 3: open loop at ~10x capacity.
    let ten = LoadConfig {
        open_rate_per_conn: capacity * 10.0 / conns as f64,
        ..base.clone()
    };
    let overload = run_cell(cfg, "open-10x", &ten, 0);
    assert!(
        overload.report.sheds > 0,
        "10x arrivals must overflow admission and shed"
    );

    // Cell 4: the priority-queue producer/consumer mix, closed loop.
    let pq = LoadConfig {
        mix: ServeMix::PQ,
        ..base.clone()
    };
    let pq_cell = run_cell(cfg, "pq-closed", &pq, 2_000);

    let cells = [peak, healthy, overload, pq_cell];
    let mut t = Table::new(
        "Edge serving over loopback TCP: goodput and tails per population",
        &[
            "cell", "mode", "offered/s", "goodput/s", "p50 us", "p99 us", "p999 us",
            "sheds", "retries", "conn errs",
        ],
    );
    let loads = [&base, &half, &ten, &pq];
    for (c, l) in cells.iter().zip(loads) {
        let j = c.json(l);
        t.row(vec![
            j.cell.clone(),
            j.mode.clone(),
            format!("{:.0}", j.offered_ops_s),
            format!("{:.0}", j.goodput_ops_s),
            format!("{:.1}", j.p50_us),
            format!("{:.1}", j.p99_us),
            format!("{:.1}", j.p999_us),
            j.sheds.to_string(),
            j.retries.to_string(),
            j.conn_errors.to_string(),
        ]);
    }
    t.attach(
        "cells",
        &cells
            .iter()
            .zip(loads)
            .map(|(c, l)| c.json(l))
            .collect::<Vec<_>>(),
    );
    t.attach("capacity_ops_s", &capacity);
    let no_collapse =
        cells[2].report.goodput_ops_s >= capacity / 2.0 && cells[2].report.conn_errors == 0;
    t.attach("overload_no_collapse", &no_collapse);
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_experiment_runs_tiny() {
        let cfg = ExpConfig {
            workers: 2,
            ..ExpConfig::tiny(2)
        };
        let tables = run(&cfg);
        assert_eq!(tables.len(), 1);
        let t = &tables[0];
        assert_eq!(t.rows.len(), 4, "peak, healthy, overload, pq");
        for key in ["cells", "overload_no_collapse"] {
            assert!(t.attachments.iter().any(|(k, _)| k == key), "{key} attached");
        }
        assert_eq!((t.headers[7].as_str(), t.rows[2][0].as_str()), ("sheds", "open-10x"));
        assert!(t.rows[2][7].parse::<u64>().unwrap() > 0, "overload sheds");
    }
}
