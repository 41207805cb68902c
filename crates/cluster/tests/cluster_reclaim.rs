//! Shards of a cluster reclaim their zombie chunks.
//!
//! `Cluster::insert` and `remove` mint a handle per operation. When
//! reclamation passes were paced by a per-handle update counter, such a
//! handle never counted past one: no shard ever ran a pass, every merged
//! chunk stayed in limbo, and a long-lived cluster walked its pools to
//! `PoolExhausted`. The pace is the list's now: short-lived handles pool
//! their updates in one counter per shard.

use gfsl::{GfslParams, TeamSize};
use gfsl_cluster::Cluster;

const SHARDS: u32 = 4;
const SPAN: u32 = 1 << 20;
const WINDOW: u32 = 32;
const STEPS: u32 = 5_000;
const POOL_CHUNKS: u32 = 64;

#[test]
fn sliding_window_churn_through_per_op_handles_recycles_every_shard() {
    let params = GfslParams {
        team_size: TeamSize::Sixteen,
        pool_chunks: POOL_CHUNKS,
        ..Default::default()
    };
    let bounds: Vec<u32> = (1..SHARDS).map(|s| s * SPAN).collect();
    let cluster = Cluster::with_bounds(params, &bounds).unwrap();
    // One window per shard, all sliding in step: 5,000 keys pass through
    // each 64-chunk pool, seven to a chunk — more than ten pools' worth.
    let key = |shard: u32, j: u32| shard * SPAN + 1 + j;
    for j in 0..STEPS {
        for shard in 0..SHARDS {
            assert!(
                cluster.insert(key(shard, j), j).expect("the pool is recycled"),
                "insert {j} on shard {shard}"
            );
            if j >= WINDOW {
                assert!(
                    cluster.remove(key(shard, j - WINDOW)).unwrap(),
                    "remove {} on shard {shard}",
                    j - WINDOW
                );
            }
        }
    }
    for shard in cluster.shards() {
        let stats = shard.list.reclaim_stats().expect("reclamation on");
        assert!(stats.zombies_reclaimed > 0, "shard {}: {stats:?}", shard.id);
        assert!(stats.reused > 0, "shard {}: {stats:?}", shard.id);
        assert!(shard.list.chunks_allocated() <= POOL_CHUNKS);
    }
    let expect: Vec<u32> = (0..SHARDS)
        .flat_map(|s| (STEPS - WINDOW..STEPS).map(move |j| key(s, j)))
        .collect();
    let got: Vec<u32> = cluster.pairs().into_iter().map(|(k, _)| k).collect();
    assert_eq!(got, expect, "each shard holds its last window");
    cluster.assert_valid();
    // Containment must not hide bugs: no op panicked into a quarantine.
    for shard in cluster.shards() {
        let r = shard.list.repair_stats();
        assert_eq!((r.crashed_ops, r.quarantine_depth), (0, 0), "shard {}: {r:?}", shard.id);
    }
}
