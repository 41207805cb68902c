//! Ablations beyond the paper: design-choice sensitivity checks that
//! DESIGN.md calls out.
//!
//! * merge threshold (`DSIZE/merge_divisor`): the paper fixes `DSIZE/3`;
//!   we sweep the divisor to show the merge-rate / space tradeoff;
//! * instrumentation overhead: host wall-clock with probes vs without
//!   (validates that the `NoProbe` fast path really is free to the
//!   *measured transaction counts* — they are identical by construction —
//!   and shows the cost of measuring);
//! * contention profile: lock retries and restarts as the key range
//!   shrinks (the mechanism behind the paper's throughput "dip").

use std::time::Instant;

use gfsl::{Gfsl, GfslParams, TeamSize};
use gfsl_workload::{format_count, KeyDist, Op, OpMix, Prefill, WorkloadSpec};

use super::ExpConfig;
use crate::model_eval::{evaluate, StructureKind};
use crate::report::{mops, Table};
use crate::runner::{run_gfsl, run_gfsl_ops, RunConfig};

/// Run all three ablations at the anchor range.
pub fn run(cfg: &ExpConfig) -> Vec<Table> {
    let run_cfg = RunConfig { workers: cfg.workers };
    let range = cfg.anchor_range();

    // Merge-threshold sweep on a delete-heavy mixture.
    let spec = WorkloadSpec::mixed(OpMix::C60, range, cfg.mixed_ops(), cfg.seed);
    let mut t_merge = Table::new(
        format!("Ablation: merge threshold (DSIZE/divisor), [20,20,60], range {}", spec.range_label()),
        &["divisor", "threshold", "MOPS (model)", "merges", "splits", "chunks used"],
    );
    for divisor in [2u32, 3, 6] {
        let params = GfslParams {
            merge_divisor: divisor,
            pool_chunks: GfslParams::chunks_for(
                range as u64 + spec.n_ops as u64,
                TeamSize::ThirtyTwo,
            ),
            seed: cfg.seed,
            ..Default::default()
        };
        let threshold = params.merge_threshold();
        let m = run_gfsl(&spec, params, &run_cfg);
        let tp = evaluate(StructureKind::Gfsl, &m);
        t_merge.row(vec![
            divisor.to_string(),
            threshold.to_string(),
            mops(tp.mops),
            m.merges.to_string(),
            m.splits.to_string(),
            "-".into(),
        ]);
    }

    // Probe overhead: run the identical single-threaded workload with and
    // without instrumentation.
    let po_range = 100_000u32;
    let po_spec = WorkloadSpec::mixed(OpMix::C80, po_range, cfg.mixed_ops().min(200_000), cfg.seed);
    let mut t_probe = Table::new(
        "Ablation: instrumentation overhead (host wall time, 1 worker)",
        &["mode", "ops", "seconds", "host MOPS"],
    );
    {
        let list = Gfsl::new(GfslParams::sized_for(po_range as u64 * 2)).unwrap();
        let mut h = list.handle();
        for k in po_spec.prefill_keys() {
            h.insert(k, k).unwrap();
        }
        let ops = po_spec.ops();
        let t0 = Instant::now();
        for op in &ops {
            match *op {
                Op::Insert(k, v) => {
                    let _ = h.insert(k, v).unwrap();
                }
                Op::Delete(k) => {
                    let _ = h.remove(k);
                }
                Op::Contains(k) => {
                    let _ = h.contains(k);
                }
            }
        }
        let secs = t0.elapsed().as_secs_f64();
        t_probe.row(vec![
            "NoProbe".into(),
            ops.len().to_string(),
            format!("{secs:.3}"),
            mops(ops.len() as f64 / secs / 1e6),
        ]);
    }
    {
        let one = RunConfig { workers: 1 };
        let m = run_gfsl(&po_spec, GfslParams::sized_for(po_range as u64 * 2), &one);
        t_probe.row(vec![
            "CountingProbe+L2".into(),
            m.n_ops.to_string(),
            format!("{:.3}", m.wall_seconds),
            mops(m.host_mops()),
        ]);
    }

    // Contention profile across ranges (the "dip" mechanism).
    let mut t_cont = Table::new(
        "Ablation: contention vs key range ([20,20,60])",
        &["range", "lock retries/op", "restarts/op", "merges", "MOPS (model)"],
    );
    for &r in &cfg.ranges()[..cfg.ranges().len().min(4)] {
        let spec = WorkloadSpec::mixed(OpMix::C60, r, cfg.mixed_ops(), cfg.seed);
        let m = run_gfsl(
            &spec,
            GfslParams::sized_for(r as u64 + spec.n_ops as u64),
            &run_cfg,
        );
        let tp = evaluate(StructureKind::Gfsl, &m);
        t_cont.row(vec![
            format_count(r as u64),
            format!("{:.4}", m.retries as f64 / m.n_ops as f64),
            format!("{:.6}", m.restarts as f64 / m.n_ops as f64),
            m.merges.to_string(),
            mops(tp.mops),
        ]);
    }

    // Future-work analysis (paper §7): two GFSL-16 teams per warp. We model
    // it from the measured one-team-per-warp GFSL-16 run: doubling the
    // resident teams doubles lock congestion; issue cost per op is
    // unchanged when the co-resident teams diverge (they serialize) and
    // halves in the optimistic fully-converged limit. Memory traffic per op
    // is identical.
    let tt_range = cfg.anchor_range();
    let tt_spec = WorkloadSpec::mixed(OpMix::C80, tt_range, cfg.mixed_ops(), cfg.seed);
    let mut t_future = Table::new(
        format!("Future work (paper \u{a7}7): two GFSL-16 teams per warp, [10,10,80], range {}", tt_spec.range_label()),
        &["variant", "MOPS (model)", "mem ns/op", "cmp ns/op", "cont ns/op"],
    );
    {
        use gfsl_gpu_model::{occupancy, CostModel, GpuArch, LaunchConfig};
        let params16 = GfslParams {
            team_size: TeamSize::Sixteen,
            pool_chunks: GfslParams::chunks_for(
                tt_range as u64 + tt_spec.n_ops as u64,
                TeamSize::Sixteen,
            ),
            seed: cfg.seed,
            ..Default::default()
        };
        let m16 = run_gfsl(&tt_spec, params16, &run_cfg);
        let params32 = GfslParams {
            pool_chunks: GfslParams::chunks_for(
                tt_range as u64 + tt_spec.n_ops as u64,
                TeamSize::ThirtyTwo,
            ),
            seed: cfg.seed,
            ..Default::default()
        };
        let m32 = run_gfsl(&tt_spec, params32, &run_cfg);
        let arch = GpuArch::gtx970();
        let occ = occupancy::occupancy(
            &arch,
            &crate::model_eval::StructureKind::Gfsl.profile(),
            &LaunchConfig::paper_default(),
        );
        let cm = CostModel::calibrated();
        let n = m16.n_ops as f64;

        let one_team = gfsl_gpu_model::cost::predict(&arch, &occ, &cm, &m16.to_measurement());
        // Two teams per warp, divergent (realistic): congestion doubles.
        let mut two_div = m16.to_measurement();
        two_div.op_per_lane = false;
        two_div.contention_units = (two_div.contention_units / 2).max(1);
        let two_divergent = gfsl_gpu_model::cost::predict(&arch, &occ, &cm, &two_div);
        // Two teams per warp, fully converged (optimistic bound): issue
        // halves too.
        let mut two_conv = two_div;
        two_conv.warp_steps /= 2;
        let two_converged = gfsl_gpu_model::cost::predict(&arch, &occ, &cm, &two_conv);
        let g32 = gfsl_gpu_model::cost::predict(&arch, &occ, &cm, &m32.to_measurement());

        for (name, tp, ops_n) in [
            ("GFSL-16, 1 team/warp (measured)", one_team, n),
            ("GFSL-16, 2 teams/warp (divergent model)", two_divergent, n),
            ("GFSL-16, 2 teams/warp (converged bound)", two_converged, n),
            ("GFSL-32 (measured, reference)", g32, m32.n_ops as f64),
        ] {
            t_future.row(vec![
                name.into(),
                mops(tp.mops),
                format!("{:.1}", tp.mem_seconds * 1e9 / ops_n),
                format!("{:.1}", tp.compute_seconds * 1e9 / ops_n),
                format!("{:.1}", tp.contention_seconds * 1e9 / ops_n),
            ]);
        }
    }

    // Key-skew ablation (beyond the paper, which is uniform-only): Zipfian
    // hot keys raise the L2 hit rate (modeled from measured traffic) and
    // concentrate updates onto few chunks (visible in measured host
    // retries).
    let sk_range = cfg.anchor_range();
    let sk_ops = cfg.mixed_ops();
    let mut t_skew = Table::new(
        format!("Ablation: key skew (Zipf), GFSL-32, [10,10,80], range {}", format_count(sk_range as u64)),
        &["distribution", "MOPS (model)", "L2 hit %", "txns/op", "host retries/op"],
    );
    {
        let prefill = Prefill::HalfRandom.keys(sk_range, cfg.seed);
        for (label, dist) in [
            ("uniform", KeyDist::Uniform),
            ("zipf 0.80", KeyDist::Zipf(0.80)),
            ("zipf 0.99", KeyDist::Zipf(0.99)),
        ] {
            let ops = OpMix::C80.stream_dist(cfg.seed ^ 0x5111, sk_range, sk_ops, dist);
            let params = GfslParams {
                pool_chunks: GfslParams::chunks_for(
                    sk_range as u64 + sk_ops as u64,
                    TeamSize::ThirtyTwo,
                ),
                seed: cfg.seed,
                ..Default::default()
            };
            let m = run_gfsl_ops(&prefill, &ops, sk_range, params, &run_cfg);
            let tp = evaluate(StructureKind::Gfsl, &m);
            t_skew.row(vec![
                label.into(),
                mops(tp.mops),
                format!("{:.0}", m.traffic.l2_hit_ratio() * 100.0),
                format!("{:.1}", m.txns_per_op()),
                format!("{:.5}", m.retries as f64 / m.n_ops as f64),
            ]);
        }
    }

    vec![t_merge, t_probe, t_cont, t_future, t_skew]
}
