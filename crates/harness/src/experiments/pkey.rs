//! §5.2 static-configuration sweeps: `p_key` for M&C, `p_chunk` for GFSL.
//!
//! The paper reports `p_key = 0.5` best for M&C among 0.2–0.8 and
//! `p_chunk ≈ 1` best for GFSL in every mixture tested.

use gfsl::{GfslParams, TeamSize};
use gfsl_workload::{OpMix, WorkloadSpec};
use mc_skiplist::McParams;

use super::ExpConfig;
use crate::model_eval::{evaluate, StructureKind};
use crate::report::{mops, Table};
use crate::runner::{run_gfsl, run_mc, RunConfig};

/// Run both sweeps at the anchor range on `[10,10,80]`.
pub fn run(cfg: &ExpConfig) -> Vec<Table> {
    let range = cfg.anchor_range();
    let spec = WorkloadSpec::mixed(OpMix::C80, range, cfg.mixed_ops(), cfg.seed);
    let run_cfg = RunConfig { workers: cfg.workers };

    let mut t_chunk = Table::new(
        format!("p_chunk sweep: GFSL-32, [10,10,80], range {}", spec.range_label()),
        &["p_chunk", "MOPS (model)", "txns/op", "splits"],
    );
    for p_chunk in [0.25, 0.5, 0.75, 1.0] {
        let params = GfslParams {
            p_chunk,
            pool_chunks: GfslParams::chunks_for(
                range as u64 + spec.n_ops as u64,
                TeamSize::ThirtyTwo,
            ),
            seed: cfg.seed,
            ..Default::default()
        };
        let m = run_gfsl(&spec, params, &run_cfg);
        let tp = evaluate(StructureKind::Gfsl, &m);
        t_chunk.row(vec![
            format!("{p_chunk:.2}"),
            mops(tp.mops),
            format!("{:.1}", m.txns_per_op()),
            m.splits.to_string(),
        ]);
    }

    let mut t_key = Table::new(
        format!("p_key sweep: M&C, [10,10,80], range {}", spec.range_label()),
        &["p_key", "MOPS (model)", "txns/op"],
    );
    for p_key in [0.2, 0.35, 0.5, 0.65, 0.8] {
        let params = McParams {
            p_key,
            seed: cfg.seed,
            ..McParams::sized_for(range as u64 + spec.n_ops as u64)
        };
        let m = run_mc(&spec, params, &run_cfg);
        let tp = evaluate(StructureKind::Mc, &m);
        t_key.row(vec![
            format!("{p_key:.2}"),
            mops(tp.mops),
            format!("{:.1}", m.txns_per_op()),
        ]);
    }

    vec![t_chunk, t_key]
}
