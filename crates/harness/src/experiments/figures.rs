//! Figures 5.1–5.4: throughput and speedup as functions of key range.

use gfsl::{GfslParams, TeamSize};
use gfsl_workload::{format_count, BenchKind, OpMix, WorkloadSpec};
use mc_skiplist::McParams;

use super::ExpConfig;
use crate::model_eval::{evaluate, StructureKind};
use crate::report::{mops, ratio, Table};
use crate::runner::{run_gfsl, run_mc, RunConfig};

fn run_cfg(cfg: &ExpConfig) -> RunConfig {
    RunConfig { workers: cfg.workers }
}

fn gfsl_params(cfg: &ExpConfig, spec: &WorkloadSpec, team: TeamSize) -> GfslParams {
    GfslParams {
        team_size: team,
        pool_chunks: GfslParams::chunks_for(spec.key_range as u64 + spec.n_ops as u64, team),
        seed: cfg.seed,
        ..Default::default()
    }
}

fn mc_params(cfg: &ExpConfig, spec: &WorkloadSpec) -> McParams {
    McParams {
        seed: cfg.seed,
        ..McParams::sized_for(spec.key_range as u64 + spec.n_ops as u64)
    }
}

/// Modeled MOPS for GFSL on a spec.
fn gfsl_mops(cfg: &ExpConfig, spec: &WorkloadSpec, team: TeamSize) -> f64 {
    let m = run_gfsl(spec, gfsl_params(cfg, spec, team), &run_cfg(cfg));
    evaluate(StructureKind::Gfsl, &m).mops
}

/// Modeled MOPS for M&C on a spec.
fn mc_mops(cfg: &ExpConfig, spec: &WorkloadSpec) -> f64 {
    let m = run_mc(spec, mc_params(cfg, spec), &run_cfg(cfg));
    evaluate(StructureKind::Mc, &m).mops
}

/// Fig. 5.1: GFSL-16 vs GFSL-32 vs M&C on `[10,10,80]` across ranges.
pub fn fig5_1(cfg: &ExpConfig) -> Vec<Table> {
    let mut t = Table::new(
        "Fig 5.1: chunk/team size, [10,10,80]",
        &["range", "GFSL-16 (MOPS)", "GFSL-32 (MOPS)", "M&C (MOPS)"],
    );
    for &range in &cfg.ranges() {
        let spec = WorkloadSpec::mixed(OpMix::C80, range, cfg.mixed_ops(), cfg.seed);
        let g16 = gfsl_mops(cfg, &spec, TeamSize::Sixteen);
        let g32 = gfsl_mops(cfg, &spec, TeamSize::ThirtyTwo);
        let mc = if range <= cfg.mc_range_cap() {
            mops(mc_mops(cfg, &spec))
        } else {
            "OOM".into()
        };
        t.row(vec![format_count(range as u64), mops(g16), mops(g32), mc]);
    }
    vec![t]
}

/// Shared grid for Figs. 5.2/5.3: per (mixture, range) modeled MOPS of both
/// structures. Memoized per configuration fingerprint so running `fig5_2`
/// and `fig5_3` in one invocation measures the grid once.
fn mixed_grid(cfg: &ExpConfig) -> Vec<(OpMix, u32, f64, Option<f64>)> {
    use std::sync::Mutex;
    type Grid = Vec<(OpMix, u32, f64, Option<f64>)>;
    static CACHE: Mutex<Option<(String, Grid)>> = Mutex::new(None);

    let fingerprint = format!(
        "{:?}|{}|{}|{}|{}",
        cfg.ranges(),
        cfg.mixed_ops(),
        cfg.mc_range_cap(),
        cfg.workers,
        cfg.seed
    );
    if let Some((fp, grid)) = CACHE.lock().unwrap().as_ref() {
        if *fp == fingerprint {
            return grid.clone();
        }
    }
    let mut out = Vec::new();
    for mix in OpMix::MIXED {
        for &range in &cfg.ranges() {
            let spec = WorkloadSpec::mixed(mix, range, cfg.mixed_ops(), cfg.seed);
            let g = gfsl_mops(cfg, &spec, TeamSize::ThirtyTwo);
            let m = (range <= cfg.mc_range_cap()).then(|| mc_mops(cfg, &spec));
            out.push((mix, range, g, m));
        }
    }
    *CACHE.lock().unwrap() = Some((fingerprint, out.clone()));
    out
}

/// Fig. 5.2: GFSL/M&C speedup ratio per mixture and range.
pub fn fig5_2(cfg: &ExpConfig) -> Vec<Table> {
    let grid = mixed_grid(cfg);
    let mut t = Table::new(
        "Fig 5.2: GFSL-32 / M&C throughput ratio",
        &["range", "[1,1,98]", "[5,5,90]", "[10,10,80]", "[20,20,60]"],
    );
    for &range in &cfg.ranges() {
        let mut cells = vec![format_count(range as u64)];
        for mix in OpMix::MIXED {
            let cell = grid
                .iter()
                .find(|(m, r, _, _)| *m == mix && *r == range)
                .map(|(_, _, g, mc)| match mc {
                    Some(mc) => ratio(g / mc),
                    None => "OOM".into(),
                })
                .unwrap_or_default();
            cells.push(cell);
        }
        t.row(cells);
    }
    vec![t]
}

/// Fig. 5.3: absolute modeled throughput per mixture (four panels).
pub fn fig5_3(cfg: &ExpConfig) -> Vec<Table> {
    let grid = mixed_grid(cfg);
    OpMix::MIXED
        .iter()
        .map(|&mix| {
            let mut t = Table::new(
                format!("Fig 5.3: throughput, mixture {mix}"),
                &["range", "GFSL-32 (MOPS)", "M&C (MOPS)"],
            );
            for &range in &cfg.ranges() {
                if let Some((_, _, g, mc)) =
                    grid.iter().find(|(m, r, _, _)| *m == mix && *r == range)
                {
                    t.row(vec![
                        format_count(range as u64),
                        mops(*g),
                        mc.map(mops).unwrap_or_else(|| "OOM".into()),
                    ]);
                }
            }
            t
        })
        .collect()
}

/// Fig. 5.4: single-operation-type benchmarks (Contains / Insert / Delete).
pub fn fig5_4(cfg: &ExpConfig) -> Vec<Table> {
    let panels: [(&str, BenchKind); 3] = [
        ("Fig 5.4a: Contains-only", BenchKind::ContainsOnly),
        ("Fig 5.4b: Insert-only", BenchKind::InsertOnly),
        ("Fig 5.4c: Delete-only", BenchKind::DeleteOnly),
    ];
    // The paper measures M&C single-op tests only up to 3M (OOM above).
    let mc_cap = cfg.mc_range_cap().min(3_000_000);
    panels
        .iter()
        .map(|&(title, kind)| {
            let mut t = Table::new(title, &["range", "GFSL-32 (MOPS)", "M&C (MOPS)"]);
            for &range in &cfg.ranges() {
                let spec = WorkloadSpec::single(kind, range, cfg.mixed_ops(), cfg.seed);
                let g = gfsl_mops(cfg, &spec, TeamSize::ThirtyTwo);
                let mc = if range <= mc_cap {
                    mops(mc_mops(cfg, &spec))
                } else {
                    "OOM".into()
                };
                t.row(vec![format_count(range as u64), mops(g), mc]);
            }
            t
        })
        .collect()
}
