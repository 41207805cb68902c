//! Model diagnostics: per-component time breakdown for a few reference
//! configurations. Not a paper artifact — used to calibrate and to explain
//! *why* each regime lands where it does.

use gfsl::{GfslParams, TeamSize};
use gfsl_workload::{format_count, OpMix, WorkloadSpec};
use mc_skiplist::McParams;

use super::ExpConfig;
use crate::model_eval::{evaluate, StructureKind};
use crate::report::{mops, Table};
use crate::runner::{run_gfsl, run_mc, RunConfig};

/// Run the diagnostic breakdown across the configured ranges.
pub fn run(cfg: &ExpConfig) -> Vec<Table> {
    let run_cfg = RunConfig { workers: cfg.workers };
    let mut t = Table::new(
        "Diagnostics: model component breakdown ([10,10,80])",
        &[
            "structure",
            "range",
            "MOPS",
            "txns/op",
            "hit%",
            "sectors/op",
            "steps/op",
            "retries/op",
            "mem ns/op",
            "cmp ns/op",
            "cont ns/op",
            "host MOPS",
        ],
    );
    for &range in &cfg.ranges() {
        let spec = WorkloadSpec::mixed(OpMix::C80, range, cfg.mixed_ops(), cfg.seed);
        let g = run_gfsl(
            &spec,
            GfslParams {
                pool_chunks: GfslParams::chunks_for(
                    range as u64 + spec.n_ops as u64,
                    TeamSize::ThirtyTwo,
                ),
                seed: cfg.seed,
                ..Default::default()
            },
            &run_cfg,
        );
        let m = run_mc(
            &spec,
            McParams {
                seed: cfg.seed,
                ..McParams::sized_for(range as u64 + spec.n_ops as u64)
            },
            &run_cfg,
        );
        for (name, kind, metrics) in [
            ("GFSL-32", StructureKind::Gfsl, &g),
            ("M&C", StructureKind::Mc, &m),
        ] {
            let tp = evaluate(kind, metrics);
            let n = metrics.n_ops as f64;
            t.row(vec![
                name.into(),
                format_count(range as u64),
                mops(tp.mops),
                format!("{:.1}", metrics.txns_per_op()),
                format!("{:.0}", metrics.traffic.l2_hit_ratio() * 100.0),
                format!("{:.1}", metrics.traffic.miss_sectors as f64 / n),
                format!("{:.1}", metrics.divergence.warp_steps as f64 / n),
                format!("{:.4}", metrics.retries as f64 / n),
                format!("{:.1}", tp.mem_seconds * 1e9 / n),
                format!("{:.1}", tp.compute_seconds * 1e9 / n),
                format!("{:.1}", tp.contention_seconds * 1e9 / n),
                mops(metrics.host_mops()),
            ]);
        }
    }
    vec![t]
}
