//! Churn memory diagnostic: the sliding-window churn workload driven
//! through the counting probe, sweeping chunk size (team 16 vs 32) and the
//! reclamation window against the modeled GTX-970 L2 — the sim-vs-host
//! cross-check for the locality engine. Not a paper artifact.
//!
//! Each cell reports both sides of the cross-check:
//!
//! * host-side locality counters (finger hit rate, `(max,next)` skim
//!   steps, prefetches issued) from `OpStats`;
//! * simulator-side memory behaviour (L2 hit ratio, miss sectors/op,
//!   prefetch fills and useful-prefetch hits) from the probe's `Traffic`.
//!
//! The window size controls the reclamation high-water mark (a wider
//! window keeps more zombies in flight before the head-edge sweep
//! recycles them), so the sweep shows how chunk format x working-set
//! pressure lands in the cache model, with and without foresight
//! prefetch. The emitted CSV is the committed artifact.

use std::sync::Arc;
use std::time::Instant;

use gfsl::{Gfsl, GfslParams, Prefetch, TeamSize};
use gfsl_gpu_mem::{CountingProbe, L2Cache};

use super::ExpConfig;
use crate::report::{mops, pct, Table};

/// One churn cell: team size x window x prefetch, instrumented end to end.
struct Cell {
    churn_mops: f64,
    l2_hit: f64,
    sectors_per_op: f64,
    finger_hit: f64,
    skips_per_op: f64,
    pf_issued: u64,
    pf_fills: u64,
    pf_useful: u64,
    reclaimed: u64,
    high_water: u32,
    pool: u32,
}

fn run_cell(cfg: &ExpConfig, team: TeamSize, window: u32, prefetch: Prefetch) -> Cell {
    let pairs = (cfg.mixed_ops() / 4).max(window as usize);
    let mut params = GfslParams {
        team_size: team,
        fingers: true,
        prefetch,
        reclaim: true,
        seed: cfg.seed,
        ..Default::default()
    };
    params.pool_chunks = GfslParams::chunks_for(window as u64 * 2, team);
    let pool = params.pool_chunks;
    let list = Gfsl::new(params).unwrap();
    let l2 = Arc::new(L2Cache::gtx970());
    let mut h = list.handle_with(CountingProbe::new(l2));
    for k in 1..=window {
        h.insert(k, k).unwrap();
    }

    let t0 = Instant::now();
    for i in 0..pairs as u32 {
        let k = window + 1 + i;
        h.insert(k, k).expect("reclamation keeps the pool ahead of churn");
        assert!(h.remove(k - window), "window key must be present");
    }
    let secs = t0.elapsed().as_secs_f64();

    let (probe, stats) = h.into_parts();
    let traffic = probe.traffic();
    let n_ops = (pairs * 2) as f64;
    let reclaim = list.reclaim_stats().expect("reclamation on");
    Cell {
        churn_mops: n_ops / secs / 1.0e6,
        l2_hit: traffic.l2_hit_ratio(),
        sectors_per_op: traffic.miss_sectors as f64 / n_ops,
        finger_hit: stats.finger_hit_rate().unwrap_or(0.0),
        skips_per_op: stats.skip_reads as f64 / n_ops,
        pf_issued: traffic.prefetch_txns,
        pf_fills: traffic.prefetch_fills,
        pf_useful: traffic.prefetch_useful,
        reclaimed: reclaim.zombies_reclaimed,
        high_water: list.chunks_allocated(),
        pool,
    }
}

/// Run the churn diagnostic sweep: team size x window x prefetch.
pub fn run(cfg: &ExpConfig) -> Vec<Table> {
    let mut t = Table::new(
        "Churn diagnostics: chunk size x window x prefetch vs the L2 model",
        &[
            "team", "window", "prefetch", "churn MOPS", "L2 hit", "sectors/op", "finger hit",
            "skims/op", "pf issued", "pf fills", "pf useful", "reclaimed", "high water", "pool",
        ],
    );
    let anchor = cfg.anchor_range();
    let windows = [
        (anchor / 32).clamp(128, 1_024),
        (anchor / 8).clamp(256, 4_096),
    ];
    for team in [TeamSize::Sixteen, TeamSize::ThirtyTwo] {
        for &window in &windows {
            for prefetch in [Prefetch::Off, Prefetch::Next] {
                let c = run_cell(cfg, team, window, prefetch);
                if prefetch.enabled() {
                    assert!(
                        c.pf_issued > 0,
                        "prefetch-on churn must issue prefetches (team {team:?}, window {window})"
                    );
                    assert!(
                        c.pf_useful <= c.pf_fills && c.pf_fills <= c.pf_issued,
                        "prefetch funnel must be monotone: {} useful <= {} fills <= {} issued",
                        c.pf_useful,
                        c.pf_fills,
                        c.pf_issued
                    );
                }
                t.row(vec![
                    team.lanes().to_string(),
                    window.to_string(),
                    if prefetch.enabled() { "next" } else { "off" }.into(),
                    mops(c.churn_mops),
                    pct(c.l2_hit),
                    format!("{:.2}", c.sectors_per_op),
                    pct(c.finger_hit),
                    format!("{:.2}", c.skips_per_op),
                    c.pf_issued.to_string(),
                    c.pf_fills.to_string(),
                    c.pf_useful.to_string(),
                    c.reclaimed.to_string(),
                    c.high_water.to_string(),
                    c.pool.to_string(),
                ]);
            }
        }
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_diag_runs_tiny() {
        let cfg = ExpConfig::tiny(1);
        let tables = run(&cfg);
        assert_eq!(tables.len(), 1);
        let t = &tables[0];
        assert_eq!(t.rows.len(), 8, "2 teams x 2 windows x 2 prefetch modes");
        for row in &t.rows {
            assert_ne!(row[11], "0", "churn must reclaim zombies ({row:?})");
        }
        // Prefetch-off rows issue nothing; prefetch-on rows must.
        for pair in t.rows.chunks(2) {
            assert_eq!(pair[0][2], "off");
            assert_eq!(pair[0][8], "0", "no prefetches when the knob is off");
            assert_eq!(pair[1][2], "next");
            assert_ne!(pair[1][8], "0", "prefetches issued when the knob is on");
        }
    }
}
