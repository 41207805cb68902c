//! Cluster: the hot-shard rebalance scenario. Not a paper artifact — this
//! exercises the `gfsl-cluster` subsystem layered on top of the paper's
//! structure. (What a cluster costs per op against one structure is
//! `perfbench`'s `edge-cluster-hot` against `edge-closed-hot`.)
//!
//! **Rebalance table.** A zipf stream whose hot head jumps to a different
//! shard mid-run ([`HotShard`]); after every window of routed ops one
//! [`RebalancePolicy`] step may split the hottest shard or merge cold
//! neighbours. Stability = the first post-shift window whose rebalance
//! step proposes nothing; time-to-stable must stay bounded (it is asserted
//! `<` the post-shift window budget). The per-window MOPS column is the
//! host's wall clock, reported only.

use gfsl::{GfslParams, TeamSize};
use gfsl_cluster::{Cluster, RebalancePolicy, ReshardEvent};
use gfsl_workload::{HotShard, ServeMix, ServeOp};

use super::ExpConfig;
use crate::report::{mops, Table};

/// Run the cluster experiment: the hot-shard rebalance trace.
pub fn run(cfg: &ExpConfig) -> Vec<Table> {
    let range = cfg.anchor_range();
    let n_ops = cfg
        .ops_override
        .unwrap_or(if cfg.quick { 120_000 } else { 500_000 });

    // Hot-shard rebalance: 4 equal shards, zipf head on shard 0, jumping to
    // shard 2 at mid-run.
    let windows = 16usize;
    let window_ops = (n_ops / windows).max(1_000);
    let shift_window = windows / 2;
    // Theta 0.6: the head is hot enough to overload one shard (its quarter
    // of the key space draws ~57% of traffic) but diffuse enough that
    // key-median splits converge — at 0.9 the head's mass exceeds the hot
    // threshold at every shard count and the policy could never settle.
    // Zipf ranks walk *upward* from the center, so the centers sit at the
    // starts of shard 0 and shard 2: the whole head lands in one shard.
    let hs = HotShard::new(
        range,
        0.6,
        1,
        range / 2 + 1,
        (shift_window * window_ops) as u64,
    );
    let stream = hs.stream(ServeMix::C80, cfg.seed ^ 0x407, windows * window_ops);
    let params = GfslParams {
        team_size: TeamSize::ThirtyTwo,
        pool_chunks: GfslParams::chunks_for(
            range as u64 / 4 + stream.len() as u64,
            TeamSize::ThirtyTwo,
        ),
        seed: cfg.seed,
        ..Default::default()
    };
    let cluster = Cluster::prefilled(
        params,
        4,
        range,
        (1..range).filter(|k| k % 2 == 0).map(|k| (k, k)),
    )
    .expect("cluster prefill");
    let policy = RebalancePolicy {
        min_window_ops: window_ops as u64 / 2,
        max_shards: 8,
        min_shards: 2,
        ..Default::default()
    };

    let mut d = Table::new(
        "Cluster: hot-shard rebalance (zipf shift at window 8, policy step per window)",
        &["window", "phase", "MOPS", "shards", "event"],
    );
    let mut time_to_stable: Option<usize> = None;
    for (w, ops) in stream.chunks(window_ops).enumerate() {
        let t0 = std::time::Instant::now();
        for op in ops {
            match *op {
                ServeOp::Get(k) => {
                    cluster.get(k).expect("routed get");
                }
                ServeOp::Insert(k, v) => {
                    cluster.insert(k, v).expect("routed insert");
                }
                ServeOp::Delete(k) => {
                    cluster.remove(k).expect("routed delete");
                }
                ServeOp::Range(lo, hi) => {
                    cluster.count_range(lo, hi).expect("routed range");
                }
                ServeOp::MinEntry => {
                    cluster.min_entry().expect("routed min-entry");
                }
                ServeOp::PopMin => {
                    cluster.pop_min().expect("routed pop-min");
                }
            }
        }
        let wall = t0.elapsed().as_secs_f64();
        let ev = cluster.rebalance_step(&policy).expect("rebalance step");
        if w >= shift_window && ev.is_none() && time_to_stable.is_none() {
            time_to_stable = Some(w - shift_window);
        }
        d.row(vec![
            w.to_string(),
            if w < shift_window { "pre" } else { "post" }.into(),
            mops(ops.len() as f64 / wall / 1e6),
            cluster.shard_count().to_string(),
            match ev {
                Some(ReshardEvent::Split { shard, at, .. }) => format!("split {shard} @ {at}"),
                Some(ReshardEvent::Merge { left, right, .. }) => format!("merge {left}+{right}"),
                None => "-".into(),
            },
        ]);
    }
    let stable = time_to_stable.unwrap_or(windows - shift_window);
    assert!(
        stable < windows - shift_window,
        "rebalance must restabilize within the post-shift budget"
    );
    d.attach("shift_window", &(shift_window as u64));
    d.attach("time_to_stable_windows", &(stable as u64));
    d.attach("final_shard_stats", &cluster.stats());
    cluster.assert_valid();

    vec![d]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_experiment_runs_tiny() {
        let cfg = ExpConfig::tiny(2);
        let tables = run(&cfg);
        assert_eq!(tables.len(), 1);
        let reb = &tables[0];
        assert_eq!(reb.rows.len(), 16);
        assert!(reb
            .attachments
            .iter()
            .any(|(k, _)| k == "time_to_stable_windows"));
    }
}
