//! What the pool holds for the structures the benchmark builds: the chunks
//! its bump pointer handed out (`Shape::chunks_allocated`), heads included.
//! A level gets its `-∞` head when an update or the bulk loader first
//! writes into it, so each count carries the heads of the levels in use and
//! no others.

use gfsl::{Gfsl, GfslParams, TeamSize};
use gfsl_cluster::Cluster;

/// The hot key space of the edge workloads: the even keys of `2..=20,000`.
fn hot_pairs() -> impl Iterator<Item = (u32, u32)> {
    (2..=20_000).step_by(2).map(|k| (k, k))
}

#[test]
fn a_new_list_holds_the_bottom_head_only() {
    for team_size in [TeamSize::ThirtyTwo, TeamSize::Sixteen] {
        let list = Gfsl::new(GfslParams { team_size, ..Default::default() }).unwrap();
        assert_eq!(list.shape().chunks_allocated, 1, "{team_size:?}");
    }
}

/// `edge-closed-hot`'s structure: 10,000 keys, levels 0–2.
#[test]
fn the_hot_list_holds_three_heads() {
    let list = Gfsl::from_sorted_pairs(GfslParams::default(), hot_pairs()).unwrap();
    assert_eq!((list.height(), list.shape().chunks_allocated), (2, 477));
}

/// `edge-cluster-hot`'s: the same keys in four shards of 5,000, each with
/// levels 0–2 (the claimed `space_amp` gain is these 116 heads).
#[test]
fn the_hot_cluster_holds_three_heads_a_shard() {
    let bounds: Vec<u32> = (1..4).map(|i| 1 + i * 5_000).collect();
    let cluster = Cluster::prefilled_with_bounds(GfslParams::default(), &bounds, hot_pairs()).unwrap();
    let shards = cluster.shards();
    assert!(shards.iter().all(|s| s.list.height() == 2));
    let chunks: u32 = shards.iter().map(|s| s.list.shape().chunks_allocated).sum();
    assert_eq!((shards.len(), chunks), (4, 484));
}

/// `engine-churn`'s window as bulk built; `split::tests::
/// a_sliding_window_stays_near_its_bulk_build` slides it (203 after).
#[test]
fn the_churn_window_holds_three_heads() {
    let list = Gfsl::from_sorted_pairs(GfslParams::default(), (1..=4_096).map(|k| (k, k))).unwrap();
    assert_eq!((list.height(), list.shape().chunks_allocated), (2, 197));
}

/// `engine-c80-big`'s: 2M keys, levels 0–4.
#[test]
fn the_big_list_holds_five_heads() {
    let pairs = (2..=4_000_000).step_by(2).map(|k| (k, k));
    let list = Gfsl::from_sorted_pairs(GfslParams::sized_for(4_000_000), pairs).unwrap();
    assert_eq!((list.height(), list.shape().chunks_allocated), (4, 95_241));
}
