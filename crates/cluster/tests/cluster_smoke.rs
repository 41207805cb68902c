//! Cluster smoke: routing, cross-shard stitching, split/merge data
//! preservation, consistent snapshots under concurrent writers, and the
//! load-aware rebalance policy.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};

use gfsl::{GfslParams, TeamSize};
use gfsl_cluster::{Cluster, RebalancePolicy, ReshardEvent};
use gfsl_rng::SplitMix64;
use gfsl_workload::{HotShard, ServeMix, ServeOp};

/// Sets its flag when dropped: held by the thread that asserts, it stops a
/// scope's spinning threads however that thread leaves, so a failed assert
/// fails the test instead of hanging it in the scope's join.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

fn params16() -> GfslParams {
    GfslParams {
        team_size: TeamSize::Sixteen,
        pool_chunks: 1 << 12,
        ..Default::default()
    }
}

#[test]
fn routed_ops_match_an_oracle_across_shards() {
    let cluster = Cluster::with_bounds(params16(), &[500, 1_000, 1_500]).unwrap();
    assert_eq!(cluster.shard_count(), 4);
    let mut oracle = BTreeMap::new();
    let mut rng = SplitMix64::new(0x5EED);
    for _ in 0..20_000u32 {
        let r = rng.next_u64();
        let k = (r % 2_000 + 1) as u32;
        let v = (r >> 32) as u32;
        match (r >> 20) % 3 {
            0 => {
                // Set-like insert: duplicates keep the resident value.
                if cluster.insert(k, v).unwrap() {
                    oracle.insert(k, v);
                }
            }
            1 => assert_eq!(cluster.remove(k).unwrap(), oracle.remove(&k).is_some()),
            _ => {
                assert_eq!(cluster.get(k).unwrap(), oracle.get(&k).copied());
                assert_eq!(cluster.contains(k).unwrap(), oracle.contains_key(&k));
            }
        }
    }
    cluster.assert_valid();
    let expect: Vec<(u32, u32)> = oracle.iter().map(|(&k, &v)| (k, v)).collect();
    assert_eq!(cluster.pairs(), expect);
    assert_eq!(cluster.len(), oracle.len());
}

#[test]
fn range_queries_stitch_across_shard_boundaries() {
    let cluster = Cluster::with_bounds(params16(), &[100, 200]).unwrap();
    let mut oracle = BTreeMap::new();
    for k in (1..=300u32).step_by(3) {
        cluster.insert(k, k * 7).unwrap();
        oracle.insert(k, k * 7);
    }
    for (lo, hi) in [(1, 300), (50, 250), (99, 101), (100, 200), (150, 150), (290, 300)] {
        let expect: Vec<(u32, u32)> = oracle.range(lo..=hi).map(|(&k, &v)| (k, v)).collect();
        assert_eq!(cluster.range(lo, hi).unwrap(), expect, "window [{lo}, {hi}]");
        assert_eq!(
            cluster.count_range(lo, hi).unwrap(),
            expect.len(),
            "count [{lo}, {hi}]"
        );
    }
}

#[test]
fn split_and_merge_preserve_every_pair_and_bump_the_epoch() {
    let cluster = Cluster::with_bounds(params16(), &[1_000]).unwrap();
    let mut rng = SplitMix64::new(9);
    for _ in 0..1_500 {
        let k = (rng.next_u64() % 2_000 + 1) as u32;
        cluster.insert(k, k ^ 0xABCD).unwrap();
    }
    let before = cluster.pairs();
    assert_eq!(cluster.epoch(), 0);

    let victim = cluster.shards()[0].id;
    let ev = cluster.split_shard(victim).unwrap().expect("splittable");
    let ReshardEvent::Split { shard, at, .. } = ev else {
        panic!("expected a split, got {ev:?}");
    };
    assert_eq!(shard, victim);
    assert!((1..1_000).contains(&at), "split key inside the old range");
    assert_eq!(cluster.epoch(), 1);
    assert_eq!(cluster.shard_count(), 3);
    cluster.assert_valid();
    assert_eq!(cluster.pairs(), before, "split loses nothing");

    let left = cluster.shards()[0].id;
    let ev = cluster.merge_with_right(left).unwrap().expect("mergeable");
    assert!(matches!(ev, ReshardEvent::Merge { .. }));
    assert_eq!(cluster.epoch(), 2);
    assert_eq!(cluster.shard_count(), 2);
    cluster.assert_valid();
    assert_eq!(cluster.pairs(), before, "merge loses nothing");

    // Retired ids are gone: acting on them is a clean no-op.
    assert_eq!(cluster.split_shard(victim).unwrap(), None);
    assert_eq!(cluster.merge_with_right(victim).unwrap(), None);
    // The rightmost shard has no right neighbour.
    let rightmost = cluster.shards().last().unwrap().id;
    assert_eq!(cluster.merge_with_right(rightmost).unwrap(), None);
}

/// Alternate splits and merges over whichever shards currently cover the
/// keys `1..=span` until `stop` is set; returns the migrations installed.
fn churn_shards(cluster: &Cluster, stop: &AtomicBool, span: u64) -> u64 {
    let mut rng = SplitMix64::new(0xC0DE);
    let mut done = 0u64;
    while !stop.load(Ordering::Relaxed) {
        let key = (rng.next_u64() % span + 1) as u32;
        let id = cluster
            .shards()
            .iter()
            .find(|sh| sh.owns(key))
            .unwrap()
            .id;
        let ev = if rng.coin(0.5) && cluster.shard_count() < 10 {
            cluster.split_shard(id).unwrap()
        } else {
            cluster.merge_with_right(id).unwrap()
        };
        done += u64::from(ev.is_some());
        std::thread::yield_now();
    }
    done
}

#[test]
fn routed_ops_survive_concurrent_migration_churn() {
    let cluster = Cluster::with_bounds(params16(), &[250, 500, 750]).unwrap();
    let stop = AtomicBool::new(false);
    let (oracle, migrations) = std::thread::scope(|s| {
        let churn = s.spawn(|| churn_shards(&cluster, &stop, 1_000));
        let stopper = StopOnDrop(&stop);
        // One mutator keeps the oracle exact while the map churns under it.
        let mut oracle = BTreeMap::new();
        let mut rng = SplitMix64::new(0xFACE);
        for _ in 0..30_000u32 {
            let r = rng.next_u64();
            let k = (r % 1_000 + 1) as u32;
            match (r >> 32) % 4 {
                0 | 1 => {
                    if cluster.insert(k, k.wrapping_mul(31)).unwrap() {
                        oracle.insert(k, k.wrapping_mul(31));
                    }
                }
                2 => assert_eq!(cluster.remove(k).unwrap(), oracle.remove(&k).is_some()),
                _ => assert_eq!(cluster.get(k).unwrap(), oracle.get(&k).copied()),
            }
        }
        drop(stopper);
        (oracle, churn.join().unwrap())
    });
    assert!(migrations > 0, "the churn thread must have migrated something");
    assert!(cluster.epoch() >= migrations, "every migration bumps the epoch");
    cluster.assert_valid();
    let expect: Vec<(u32, u32)> = oracle.iter().map(|(&k, &v)| (k, v)).collect();
    assert_eq!(cluster.pairs(), expect, "no write lost through {migrations} migrations");
}

/// Fan-out reads against a map that splits and merges under them: the keys
/// `2, 4, …, 2000` are written once before the churn starts, so every
/// window must read exactly its static keys, whichever shards it spans and
/// however often its fences are redirected. With mvcc on the cut is
/// version-pinned and the count names a nonzero version.
fn fan_out_reads_survive_concurrent_migration_churn(mvcc: bool) {
    let params = GfslParams {
        mvcc,
        ..params16()
    };
    let cluster = Cluster::with_bounds(params, &[500, 1_000, 1_500]).unwrap();
    let oracle: BTreeMap<u32, u32> = (2..=2_000).step_by(2).map(|k| (k, k * 3)).collect();
    for (&k, &v) in &oracle {
        cluster.insert(k, v).unwrap();
    }
    let stop = AtomicBool::new(false);
    let (windows, migrations) = std::thread::scope(|s| {
        let churn = s.spawn(|| churn_shards(&cluster, &stop, 2_000));
        let stopper = StopOnDrop(&stop);
        let mut rng = SplitMix64::new(0xF4A0 + u64::from(mvcc));
        let mut windows = 0u32;
        // At least 2,000 windows, and at least one of them after a
        // migration has been installed.
        while windows < 2_000 || cluster.epoch() == 0 {
            let r = rng.next_u64();
            let lo = (r % 2_100 + 1) as u32;
            let hi = lo + ((r >> 32) % 300) as u32;
            let expect: Vec<(u32, u32)> = oracle.range(lo..=hi).map(|(&k, &v)| (k, v)).collect();
            assert_eq!(cluster.range(lo, hi).unwrap(), expect, "range [{lo}, {hi}]");
            assert_eq!(cluster.count_range(lo, hi).unwrap(), expect.len(), "count [{lo}, {hi}]");
            let (version, count) = cluster.snap_count_range(lo, hi).unwrap();
            assert_eq!(count, expect.len() as u64, "snap count [{lo}, {hi}]");
            assert_eq!(version != 0, mvcc, "version {version} of [{lo}, {hi}]");
            windows += 1;
        }
        drop(stopper);
        (windows, churn.join().unwrap())
    });
    assert!(migrations > 0, "the churn thread must have migrated something");
    println!("{windows} windows through {migrations} migrations");
    cluster.assert_valid();
    assert_eq!(cluster.len(), oracle.len());
}

#[test]
fn fenced_fan_out_reads_survive_concurrent_migration_churn() {
    fan_out_reads_survive_concurrent_migration_churn(false);
}

#[test]
fn pinned_fan_out_reads_survive_concurrent_migration_churn() {
    fan_out_reads_survive_concurrent_migration_churn(true);
}

#[test]
fn snapshots_are_consistent_cuts_even_across_shards() {
    // A writer keeps exactly one or two "token" keys alive, alternating
    // between the two shards' ranges (insert the new home, then remove the
    // old). A consistent cut can never observe zero tokens — but a
    // non-atomic per-shard walk could fence shard A after the token left
    // it and shard B before it arrived, observing none.
    let cluster = Cluster::with_bounds(params16(), &[500]).unwrap();
    let token = |i: u32| -> u32 {
        if i % 2 == 0 {
            1 + (i % 400)
        } else {
            501 + (i % 400)
        }
    };
    cluster.insert(token(0), 0).unwrap();
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut i = 0u32;
            while !stop.load(Ordering::Relaxed) {
                cluster.insert(token(i + 1), i + 1).unwrap();
                cluster.remove(token(i)).unwrap();
                i += 1;
            }
        });
        let stopper = StopOnDrop(&stop);
        for _ in 0..200 {
            let snap = cluster.snapshot();
            assert!(
                snap.pairs.windows(2).all(|w| w[0].0 < w[1].0),
                "snapshot pairs are strictly ascending"
            );
            assert!(
                (1..=2).contains(&snap.pairs.len()),
                "a consistent cut holds one or two tokens, saw {:?}",
                snap.pairs
            );
        }
        drop(stopper);
        writer.join().unwrap();
    });
    // The final snapshot materializes back into a single valid GFSL.
    let snap = cluster.snapshot();
    let flat = snap.to_gfsl(params16()).unwrap();
    flat.assert_valid();
    assert_eq!(flat.pairs(), snap.pairs);
    assert_eq!(
        snap.cuts.iter().map(|c| c.pairs).sum::<usize>(),
        snap.pairs.len()
    );
}

#[test]
fn rebalance_splits_the_hot_shard_and_merges_cold_neighbours() {
    let cluster = Cluster::with_bounds(params16(), &[2_500, 5_000, 7_500]).unwrap();
    let mut rng = SplitMix64::new(4);
    for _ in 0..2_000 {
        let k = (rng.next_u64() % 10_000 + 1) as u32;
        cluster.insert(k, k).unwrap();
    }
    let policy = RebalancePolicy {
        min_window_ops: 500,
        max_shards: 8,
        min_shards: 2,
        ..Default::default()
    };

    // Hammer shard 0's range; it must split.
    let hot = cluster.shards()[0].id;
    for _ in 0..2_000 {
        let k = (rng.next_u64() % 2_000 + 1) as u32;
        let _ = cluster.get(k).unwrap();
    }
    match cluster.rebalance_step(&policy).unwrap() {
        Some(ReshardEvent::Split { shard, .. }) => assert_eq!(shard, hot, "hot shard splits"),
        other => panic!("expected a split of the hot shard, got {other:?}"),
    }
    cluster.assert_valid();

    // Now hammer only the top range; with splitting capped at the current
    // shard count, the cold low shards must merge.
    let before = cluster.shard_count();
    let merge_policy = RebalancePolicy {
        max_shards: before,
        ..policy
    };
    for _ in 0..2_000 {
        let k = (rng.next_u64() % 2_000 + 8_000) as u32;
        let _ = cluster.get(k).unwrap();
    }
    match cluster.rebalance_step(&merge_policy).unwrap() {
        Some(ReshardEvent::Merge { .. }) => {}
        other => panic!("expected a merge of cold neighbours, got {other:?}"),
    }
    assert_eq!(cluster.shard_count(), before - 1);
    cluster.assert_valid();

    // An idle window changes nothing.
    assert_eq!(cluster.rebalance_step(&policy).unwrap(), None);
}

/// The hot-shard trace: a zipf stream whose head sits at the start of shard
/// 0, then jumps to the start of shard 2 halfway through, with one policy
/// step after each window of routed ops. The move must make the policy
/// act, and it must settle (a window whose step proposes nothing) inside
/// the post-shift windows. Counted in windows, never timed.
#[test]
fn rebalance_restabilizes_after_the_hot_head_moves() {
    const RANGE: u32 = 10_000;
    const WINDOWS: usize = 16;
    const WINDOW_OPS: usize = 1_000;
    let shift_window = WINDOWS / 2;
    // Theta 0.6: the head overloads one shard (its quarter of the keys
    // draws most of the traffic) but is diffuse enough that key-median
    // splits converge; at 0.9 the head's mass exceeds the hot threshold at
    // every shard count. Zipf ranks walk upward from the center, so the
    // whole head lands in one shard.
    let hot = HotShard::new(
        RANGE,
        0.6,
        1,
        RANGE / 2 + 1,
        (shift_window * WINDOW_OPS) as u64,
    );
    let stream = hot.stream(ServeMix::C80, 0x407, WINDOWS * WINDOW_OPS);
    let params = GfslParams {
        team_size: TeamSize::ThirtyTwo,
        pool_chunks: GfslParams::chunks_for(
            u64::from(RANGE) / 4 + stream.len() as u64,
            TeamSize::ThirtyTwo,
        ),
        ..Default::default()
    };
    let cluster = Cluster::prefilled(
        params,
        4,
        RANGE,
        (1..RANGE).filter(|k| k % 2 == 0).map(|k| (k, k)),
    )
    .unwrap();
    let policy = RebalancePolicy {
        min_window_ops: WINDOW_OPS as u64 / 2,
        max_shards: 8,
        min_shards: 2,
        ..Default::default()
    };
    let mut events = Vec::new();
    for ops in stream.chunks(WINDOW_OPS) {
        for op in ops {
            match *op {
                ServeOp::Get(k) => {
                    cluster.get(k).unwrap();
                }
                ServeOp::Insert(k, v) => {
                    cluster.insert(k, v).unwrap();
                }
                ServeOp::Delete(k) => {
                    cluster.remove(k).unwrap();
                }
                other => panic!("C80 draws no {other:?}"),
            }
        }
        events.push(cluster.rebalance_step(&policy).unwrap());
    }
    let post = &events[shift_window..];
    assert!(
        matches!(post[0], Some(ReshardEvent::Split { .. })),
        "the moved head splits its new shard: {events:?}"
    );
    let time_to_stable = post.iter().position(Option::is_none).unwrap_or(post.len());
    assert!(
        time_to_stable < post.len(),
        "no post-shift window settled: {events:?}"
    );
    println!("time to stable: {time_to_stable} of {} windows", post.len());
    cluster.assert_valid();
}

/// The moving-token instant-T test, version-pinned edition: with the mvcc
/// knob on, `Cluster::snapshot` write-holds the fences only to stamp one
/// version per shard, then exports wait-free while a write-heavy soak
/// churns both shards. Every cut must still hold exactly one or two
/// tokens — and, being pinned, must record a nonzero per-shard version.
/// The spanning range, whose cut is version-pinned too, sees the same
/// invariant.
#[test]
fn pinned_snapshots_are_consistent_cuts_under_write_soak() {
    let params = GfslParams {
        mvcc: true,
        ..params16()
    };
    let cluster = Cluster::with_bounds(params, &[500]).unwrap();
    // Token homes: shard 0 keys 1..=400, shard 1 keys 501..=900. The soak
    // churns disjoint ranges (shard 0: 401..=499, shard 1: 10_000..) so a
    // filtered view isolates the tokens.
    let token = |i: u32| -> u32 {
        if i % 2 == 0 {
            1 + (i % 400)
        } else {
            501 + (i % 400)
        }
    };
    let is_token = |k: u32| k <= 400 || (501..=900).contains(&k);
    cluster.insert(token(0), 0).unwrap();
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let mover = s.spawn(|| {
            let mut i = 0u32;
            while !stop.load(Ordering::Relaxed) {
                cluster.insert(token(i + 1), i + 1).unwrap();
                cluster.remove(token(i)).unwrap();
                i += 1;
            }
        });
        let soakers: Vec<_> = (0..2u32)
            .map(|t| {
                let cluster = &cluster;
                let stop = &stop;
                let base = if t == 0 { 401 } else { 10_000 };
                let span = if t == 0 { 99 } else { 4_000 };
                s.spawn(move || {
                    let mut i = 0u32;
                    let mut ops = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let k = base + (i % span);
                        cluster.insert(k, i).unwrap();
                        if i % 3 == 0 {
                            cluster.remove(k).unwrap();
                        }
                        i += 1;
                        ops += 1;
                    }
                    ops
                })
            })
            .collect();
        let stopper = StopOnDrop(&stop);
        for _ in 0..100 {
            let snap = cluster.snapshot();
            assert!(snap.pinned(), "mvcc cut must be version-pinned: {:?}", snap.cuts);
            assert!(
                snap.pairs.windows(2).all(|w| w[0].0 < w[1].0),
                "snapshot pairs are strictly ascending"
            );
            let tokens = snap.pairs.iter().filter(|(k, _)| is_token(*k)).count();
            assert!(
                (1..=2).contains(&tokens),
                "a consistent cut holds one or two tokens, saw {tokens}"
            );
            // The pinned spanning fan-out cuts at its own instant T and
            // must see the same invariant across the shard boundary.
            let ranged = cluster.range(1, 900).unwrap();
            let tokens = ranged.iter().filter(|(k, _)| is_token(*k)).count();
            assert!(
                (1..=2).contains(&tokens),
                "a pinned spanning range holds one or two tokens, saw {tokens}"
            );
            // Breathe between cuts: back-to-back fence.write() pressure on
            // a write-preferring RwLock starves the writers' shared-mode
            // stamps, and the soak-progress assertion below is the point
            // of the test. Real snapshot cadences have gaps.
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
        drop(stopper);
        mover.join().unwrap();
        let soak_ops: u64 = soakers.into_iter().map(|w| w.join().unwrap()).sum();
        // Write-heavy means write-heavy: the soak must have made real
        // progress while 200 pinned cuts were exporting.
        assert!(soak_ops > 1_000, "soak starved: only {soak_ops} ops");
    });
    // A pinned cut materializes back into a single valid GFSL, exactly as
    // the legacy cut does.
    let snap = cluster.snapshot();
    let flat = snap.to_gfsl(params16()).unwrap();
    flat.assert_valid();
    assert_eq!(flat.pairs(), snap.pairs);
    assert_eq!(
        snap.cuts.iter().map(|c| c.pairs).sum::<usize>(),
        snap.pairs.len()
    );
}
