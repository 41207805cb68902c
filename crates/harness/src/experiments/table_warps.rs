//! Tables 5.1 and 5.2: effects of limiting warps launched per block.
//!
//! The static columns (registers, active blocks, occupancy, spillover) come
//! from the occupancy model and reproduce the paper **exactly**; the
//! throughput row re-evaluates one measured `[10,10,80]` run at the anchor
//! range under each launch configuration.

use gfsl::GfslParams;
use gfsl_gpu_model::{occupancy, GpuArch, KernelProfile, LaunchConfig};
use gfsl_workload::{OpMix, WorkloadSpec};
use mc_skiplist::McParams;

use super::ExpConfig;
use crate::model_eval::{evaluate_with_launch, StructureKind};
use crate::report::{mops, Table};
use crate::runner::{run_gfsl, run_mc, RunConfig};

const WARP_CONFIGS: [u32; 4] = [8, 16, 24, 32];

/// Paper Table 5.1 throughput row (MOPS), for reference columns.
const PAPER_GFSL_MOPS: [f64; 4] = [58.9, 65.7, 62.5, 52.9];
/// Paper Table 5.2 throughput row.
const PAPER_MC_MOPS: [f64; 4] = [20.7, 21.3, 20.6, 20.2];

fn static_rows(table: &mut Table, kernel: &KernelProfile) {
    let arch = GpuArch::gtx970();
    let occs: Vec<_> = WARP_CONFIGS
        .iter()
        .map(|&w| occupancy::occupancy(&arch, kernel, &LaunchConfig { warps_per_block: w }))
        .collect();
    table.row(
        std::iter::once("Occupancy/Theoretical".to_string())
            .chain(occs.iter().map(|o| {
                format!("{:.1}%/{:.1}%", o.achieved * 100.0, o.theoretical * 100.0)
            }))
            .collect(),
    );
    table.row(
        std::iter::once("Registers".to_string())
            .chain(occs.iter().map(|o| o.regs_alloc.to_string()))
            .collect(),
    );
    table.row(
        std::iter::once("Active Blocks".to_string())
            .chain(occs.iter().map(|o| o.active_blocks.to_string()))
            .collect(),
    );
    table.row(
        std::iter::once("Local Memory Spillover".to_string())
            .chain(occs.iter().map(|o| format!("{:.0}%", o.spill_share * 100.0)))
            .collect(),
    );
}

/// Table 5.1 — GFSL.
pub fn table5_1(cfg: &ExpConfig) -> Vec<Table> {
    let range = cfg.anchor_range();
    let spec = WorkloadSpec::mixed(OpMix::C80, range, cfg.mixed_ops(), cfg.seed);
    let run_cfg = RunConfig { workers: cfg.workers };
    let metrics = run_gfsl(
        &spec,
        GfslParams::sized_for(range as u64 + spec.n_ops as u64),
        &run_cfg,
    );

    let mut t = Table::new(
        format!("Table 5.1: GFSL warps per block ([10,10,80], range {})", spec.range_label()),
        &["", "8", "16", "24", "32"],
    );
    static_rows(&mut t, &KernelProfile::gfsl());
    t.row(
        std::iter::once("Throughput (MOPS, model)".to_string())
            .chain(WARP_CONFIGS.iter().map(|&w| {
                let tp = evaluate_with_launch(
                    StructureKind::Gfsl,
                    &metrics,
                    &LaunchConfig { warps_per_block: w },
                );
                mops(tp.mops)
            }))
            .collect(),
    );
    t.row(
        std::iter::once("Throughput (MOPS, paper)".to_string())
            .chain(PAPER_GFSL_MOPS.iter().map(|&v| mops(v)))
            .collect(),
    );
    vec![t]
}

/// Table 5.2 — M&C.
pub fn table5_2(cfg: &ExpConfig) -> Vec<Table> {
    let range = cfg.anchor_range();
    let spec = WorkloadSpec::mixed(OpMix::C80, range, cfg.mixed_ops(), cfg.seed);
    let run_cfg = RunConfig { workers: cfg.workers };
    let metrics = run_mc(
        &spec,
        McParams::sized_for(range as u64 + spec.n_ops as u64),
        &run_cfg,
    );

    let mut t = Table::new(
        format!("Table 5.2: M&C warps per block ([10,10,80], range {})", spec.range_label()),
        &["", "8", "16", "24", "32"],
    );
    static_rows(&mut t, &KernelProfile::mc());
    t.row(
        std::iter::once("Throughput (MOPS, model)".to_string())
            .chain(WARP_CONFIGS.iter().map(|&w| {
                let tp = evaluate_with_launch(
                    StructureKind::Mc,
                    &metrics,
                    &LaunchConfig { warps_per_block: w },
                );
                mops(tp.mops)
            }))
            .collect(),
    );
    t.row(
        std::iter::once("Throughput (MOPS, paper)".to_string())
            .chain(PAPER_MC_MOPS.iter().map(|&v| mops(v)))
            .collect(),
    );
    vec![t]
}
