//! Cross-validation: the cycle-level SIMT executor vs the roofline model
//! on Contains-only workloads (Fig. 5.4a's regime).
//!
//! The two estimators read one access stream (each op's accesses as its
//! `MemProbe` reports them) through one L2 model and differ only in their
//! timing models: the roofline converts aggregate measured traffic to time
//! through calibrated bandwidth/issue constants; the executor schedules
//! every warp step against latencies and a DRAM queue, one event at a
//! time. Agreement on
//! *shape* (GFSL vs M&C ordering per range, degradation direction) means
//! the reproduction's conclusions don't hinge on either model's
//! simplifications.

use gfsl::{Gfsl, GfslParams, TeamSize};
use gfsl_gpu_exec::{Device, ExecConfig, GfslContainsWarp, McContainsWarp, WarpProgram};
use gfsl_workload::{format_count, BenchKind, Lehmer64, WorkloadSpec};
use mc_skiplist::{McParams, McSkipList};

use super::ExpConfig;
use crate::model_eval::{evaluate, StructureKind};
use crate::report::{mops, Table};
use crate::runner::{run_gfsl, run_mc, RunConfig};

/// Keys for `n` lookups over `1..=range` (uniform, seeded).
fn lookup_keys(n: usize, range: u32, seed: u64) -> Vec<u32> {
    let mut rng = Lehmer64::new(seed);
    (0..n).map(|_| rng.below(range as u64) as u32 + 1).collect()
}

/// Simulate a Contains-only kernel on GFSL: 416 resident teams, each
/// processing a contiguous slab of the lookup stream.
fn simulate_gfsl(list: &Gfsl, keys: &[u32]) -> f64 {
    let cfg = ExecConfig::default();
    let mut dev = Device::new(cfg);
    let teams = cfg.total_warps() as usize;
    let per = keys.len().div_ceil(teams).max(1);
    let warps: Vec<Box<dyn WarpProgram + '_>> = keys
        .chunks(per)
        .map(|slab| {
            Box::new(GfslContainsWarp::new(list, slab.to_vec())) as Box<dyn WarpProgram + '_>
        })
        .collect();
    dev.run(warps, keys.len() as u64).mops()
}

/// Simulate a Contains-only kernel on M&C: one op per thread, 32 per warp,
/// executed in resident waves of 416 warps (blocks retire and are
/// replaced, so the device always holds ~416 warps).
fn simulate_mc(list: &McSkipList, keys: &[u32]) -> f64 {
    let cfg = ExecConfig::default();
    let mut dev = Device::new(cfg);
    let wave = cfg.total_warps() as usize;
    let mut total_seconds = 0.0;
    for wave_keys in keys.chunks(wave * 32) {
        let warps: Vec<Box<dyn WarpProgram + '_>> = wave_keys
            .chunks(32)
            .map(|slab| {
                Box::new(McContainsWarp::new(list, slab.to_vec())) as Box<dyn WarpProgram + '_>
            })
            .collect();
        total_seconds += dev.run(warps, wave_keys.len() as u64).seconds;
    }
    if total_seconds > 0.0 {
        keys.len() as f64 / total_seconds / 1e6
    } else {
        0.0
    }
}

/// Run the cross-validation at three representative ranges.
pub fn run(cfg: &ExpConfig) -> Vec<Table> {
    let run_cfg = RunConfig { workers: cfg.workers };
    let n_ops = cfg.mixed_ops().min(300_000);
    let ranges: Vec<u32> = {
        let r = cfg.ranges();
        let pick = [0, r.len().saturating_sub(3), r.len().saturating_sub(1)];
        let mut v: Vec<u32> = pick.iter().map(|&i| r[i.min(r.len() - 1)]).collect();
        v.dedup();
        v
    };

    let mut t = Table::new(
        "Cross-validation: cycle-level executor vs roofline model (Contains-only)",
        &[
            "range",
            "GFSL cycle-sim",
            "GFSL roofline",
            "M&C cycle-sim",
            "M&C roofline",
        ],
    );
    for &range in &ranges {
        let spec = WorkloadSpec::single(BenchKind::ContainsOnly, range, n_ops, cfg.seed);
        let keys = lookup_keys(n_ops, range, cfg.seed ^ 0xC1C);

        // Build the structures once (full prefill, per §5.1).
        let gfsl = Gfsl::new(GfslParams {
            team_size: TeamSize::ThirtyTwo,
            pool_chunks: GfslParams::chunks_for(range as u64 * 2, TeamSize::ThirtyTwo),
            seed: cfg.seed,
            ..Default::default()
        })
        .unwrap();
        {
            let mut h = gfsl.handle();
            for k in spec.prefill_keys() {
                h.try_insert(k, k).unwrap();
            }
        }
        let mc = McSkipList::new(McParams {
            seed: cfg.seed,
            ..McParams::sized_for(range as u64 * 2)
        })
        .unwrap();
        {
            let mut h = mc.handle();
            for k in spec.prefill_keys() {
                h.insert(k, k);
            }
        }

        let g_sim = simulate_gfsl(&gfsl, &keys);
        let m_sim = simulate_mc(&mc, &keys);

        let g_roof = evaluate(
            StructureKind::Gfsl,
            &run_gfsl(
                &spec,
                GfslParams {
                    pool_chunks: GfslParams::chunks_for(range as u64 * 2, TeamSize::ThirtyTwo),
                    seed: cfg.seed,
                    ..Default::default()
                },
                &run_cfg,
            ),
        )
        .mops;
        let m_roof = evaluate(
            StructureKind::Mc,
            &run_mc(
                &spec,
                McParams {
                    seed: cfg.seed,
                    ..McParams::sized_for(range as u64 * 2)
                },
                &run_cfg,
            ),
        )
        .mops;

        t.row(vec![
            format_count(range as u64),
            mops(g_sim),
            mops(g_roof),
            mops(m_sim),
            mops(m_roof),
        ]);
    }
    vec![t]
}
