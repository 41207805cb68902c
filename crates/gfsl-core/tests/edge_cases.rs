//! Edge-case tests for the GFSL core: extreme keys, chunk-boundary
//! behaviours, head-chunk zombies, stats accounting, and handle plumbing.

use gfsl::mc::strategy::Replay;
use gfsl::{CrashPoint, Gfsl, GfslParams, TeamSize};

fn list16() -> Gfsl {
    Gfsl::new(GfslParams {
        team_size: TeamSize::Sixteen,
        ..Default::default()
    })
    .unwrap()
}

#[test]
fn extreme_user_keys_roundtrip() {
    let list = list16();
    let mut h = list.handle();
    for k in [1u32, 2, u32::MAX - 2, u32::MAX - 1] {
        assert!(h.try_insert(k, k ^ 0xFFFF).unwrap(), "k={k}");
    }
    for k in [1u32, 2, u32::MAX - 2, u32::MAX - 1] {
        assert_eq!(h.try_get(k).unwrap(), Some(k ^ 0xFFFF), "k={k}");
    }
    assert!(h.try_remove(u32::MAX - 1).unwrap());
    assert!(!h.try_contains(u32::MAX - 1).unwrap());
    assert!(h.try_contains(u32::MAX - 2).unwrap());
    list.assert_valid();
}

#[test]
fn min_entry_tracks_minimum_through_churn() {
    let list = list16();
    let mut h = list.handle();
    assert_eq!(h.try_min_entry().unwrap(), None);
    h.try_insert(500, 5).unwrap();
    assert_eq!(h.try_min_entry().unwrap(), Some((500, 5)));
    h.try_insert(100, 1).unwrap();
    assert_eq!(h.try_min_entry().unwrap(), Some((100, 1)));
    h.try_insert(300, 3).unwrap();
    assert_eq!(h.try_min_entry().unwrap(), Some((100, 1)));
    assert!(h.try_remove(100).unwrap());
    assert_eq!(h.try_min_entry().unwrap(), Some((300, 3)));
    assert!(h.try_remove(300).unwrap());
    assert!(h.try_remove(500).unwrap());
    assert_eq!(h.try_min_entry().unwrap(), None);
}

/// Drain a multi-chunk level-0 chain from the left so the head chunk keeps
/// merging away: searches must keep working through the zombie chain and
/// the head pointer must eventually be repaired.
#[test]
fn head_chunk_zombie_chain_is_survivable() {
    let list = list16();
    let mut h = list.handle();
    for k in 1..=400u32 {
        h.try_insert(k, k).unwrap();
    }
    // Delete ascending: the leftmost chunks underflow and merge rightward.
    for k in 1..=300u32 {
        assert!(h.try_remove(k).unwrap(), "k={k}");
    }
    assert!(h.stats().merges > 0);
    for k in 301..=400u32 {
        assert!(h.try_contains(k).unwrap(), "k={k}");
    }
    assert!(!h.try_contains(1).unwrap());
    assert_eq!(h.try_min_entry().unwrap().map(|(k, _)| k), Some(301));
    list.assert_valid();
    assert_eq!(list.len(), 100);
}

/// Insert at a position before every existing key in a chunk (index 0 of a
/// non-first chunk) — the executeInsert edge where the new key becomes the
/// chunk minimum.
#[test]
fn insert_below_chunk_minimum() {
    let list = list16();
    let mut h = list.handle();
    // Build two chunks: 1..14 splits around 7.
    for k in (1..=28u32).map(|k| k * 10) {
        h.try_insert(k, k).unwrap();
    }
    assert!(h.stats().splits >= 1);
    // 145 falls strictly between chunk boundaries; 5 goes below everything.
    h.try_insert(145, 1).unwrap();
    h.try_insert(5, 2).unwrap();
    assert_eq!(h.try_get(145).unwrap(), Some(1));
    assert_eq!(h.try_get(5).unwrap(), Some(2));
    list.assert_valid();
}

/// Deleting the maximum key of each chunk exercises the max-field update
/// path repeatedly.
#[test]
fn repeatedly_delete_chunk_maxima() {
    let list = list16();
    let mut h = list.handle();
    for k in 1..=200u32 {
        h.try_insert(k, k).unwrap();
    }
    // Walk down from the global max; every few deletions hit a chunk max.
    for k in (100..=200u32).rev() {
        assert!(h.try_remove(k).unwrap(), "k={k}");
        list.assert_valid();
    }
    for k in 1..100u32 {
        assert!(h.try_contains(k).unwrap());
    }
}

#[test]
fn stats_counters_move_sensibly() {
    let list = list16();
    let mut h = list.handle();
    for k in 1..=100u32 {
        h.try_insert(k, k).unwrap();
    }
    let s = h.stats();
    assert_eq!(s.insert_ops, 100);
    assert!(s.splits >= 5, "100 keys / 14-entry chunks must split");
    assert!(s.locks_taken >= 100);
    assert!(s.chunk_reads > 100);
    h.reset_stats();
    assert_eq!(h.stats().insert_ops, 0);
    h.try_contains(1).unwrap();
    assert_eq!(h.stats().contains_ops, 1);
}

#[test]
fn into_parts_returns_probe_and_stats() {
    use gfsl_gpu_mem::{CountingProbe, L2Cache};
    use std::sync::Arc;
    let list = list16();
    let mut h = list.handle_with(CountingProbe::new(Arc::new(L2Cache::gtx970())));
    h.try_insert(9, 9).unwrap();
    let (probe, stats) = h.into_parts();
    assert_eq!(stats.insert_ops, 1);
    assert!(probe.traffic().read_txns > 0);
}

/// p_chunk = 0.5: probabilistic raising still yields a correct structure
/// and at least some upper-level population over many splits.
#[test]
fn fractional_p_chunk() {
    let list = Gfsl::new(GfslParams {
        team_size: TeamSize::Sixteen,
        p_chunk: 0.5,
        ..Default::default()
    })
    .unwrap();
    let mut h = list.handle();
    for k in 1..=3_000u32 {
        h.try_insert(k, k).unwrap();
    }
    assert!(list.height() >= 1, "some splits must raise at p=0.5");
    for k in (1..=3_000u32).step_by(17) {
        assert!(h.try_contains(k).unwrap());
    }
    list.assert_valid();
}

/// Aggressive merge threshold (DSIZE/2) must still be correct.
#[test]
fn eager_merge_threshold() {
    let list = Gfsl::new(GfslParams {
        team_size: TeamSize::Sixteen,
        merge_divisor: 2,
        ..Default::default()
    })
    .unwrap();
    let mut h = list.handle();
    let mut reference = std::collections::BTreeSet::new();
    let mut x = 7u64;
    for _ in 0..20_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let k = (x % 600 + 1) as u32;
        if (x >> 37) & 1 == 0 {
            assert_eq!(h.try_insert(k, k).unwrap(), reference.insert(k));
        } else {
            assert_eq!(h.try_remove(k).unwrap(), reference.remove(&k));
        }
    }
    assert!(h.stats().merges > 0, "divisor 2 merges eagerly");
    let keys: Vec<u32> = reference.into_iter().collect();
    assert_eq!(list.keys(), keys);
    list.assert_valid();
}

/// Lazy merge threshold (DSIZE/6) leaves sparser chunks but stays correct.
#[test]
fn lazy_merge_threshold() {
    let list = Gfsl::new(GfslParams {
        team_size: TeamSize::ThirtyTwo,
        merge_divisor: 6,
        ..Default::default()
    })
    .unwrap();
    let mut h = list.handle();
    for k in 1..=1_000u32 {
        h.try_insert(k, k).unwrap();
    }
    for k in (1..=1_000u32).filter(|k| k % 3 != 0) {
        assert!(h.try_remove(k).unwrap());
    }
    list.assert_valid();
    assert_eq!(list.len(), 333);
}

/// Values are independent of keys and survive heavy restructuring.
#[test]
fn values_survive_splits_and_merges() {
    let list = list16();
    let mut h = list.handle();
    for k in 1..=500u32 {
        h.try_insert(k, k.wrapping_mul(0x9E37_79B9)).unwrap();
    }
    for k in (1..=500u32).step_by(2) {
        assert!(h.try_remove(k).unwrap());
    }
    for k in (2..=500u32).step_by(2) {
        assert_eq!(h.try_get(k).unwrap(), Some(k.wrapping_mul(0x9E37_79B9)), "k={k}");
    }
}

#[test]
fn upsert_inserts_then_overwrites() {
    let list = list16();
    let mut h = list.handle();
    assert_eq!(h.try_upsert(10, 100), Ok(None));
    assert_eq!(h.try_get(10).unwrap(), Some(100));
    assert_eq!(h.try_upsert(10, 200), Ok(Some(100)));
    assert_eq!(h.try_get(10).unwrap(), Some(200));
    assert!(h.try_remove(10).unwrap());
    assert_eq!(h.try_upsert(10, 300), Ok(None), "fresh after remove");
    assert_eq!(h.try_get(10).unwrap(), Some(300));
    assert!(matches!(h.try_upsert(0, 1), Err(gfsl::Error::InvalidKey(0))));
    list.assert_valid();
}

/// An overwrite that crashes at its bottom lock's release has already
/// stored the new value: `try_upsert` reports the committed overwrite,
/// `Ok(Some(old))`, and repair releases the lock with the new value in
/// place.
#[test]
fn a_crashed_overwrite_reports_its_old_value() {
    gfsl::quiet_injected_panics();
    let list = list16();
    list.handle().try_insert(10, 100).unwrap();
    let ctl = gfsl::chaos::controller(1, Replay::new(Vec::new()), Some((CrashPoint::LockRelease, 1)));
    let mut h = list.handle_with(ctl.probe(0));
    assert_eq!(h.try_upsert(10, 200), Ok(Some(100)));
    let crashed = list.repair_stats();
    assert_eq!((crashed.crashed_ops, crashed.quarantine_depth), (1, 1), "the release crashed");
    list.handle().repair_quarantine();
    assert_eq!(list.handle().try_get(10), Ok(Some(200)));
    list.assert_valid();
}

#[test]
fn concurrent_upserts_last_writer_wins_per_key() {
    let list = list16();
    std::thread::scope(|s| {
        for t in 0..4u32 {
            let list = &list;
            s.spawn(move || {
                let mut h = list.handle();
                for round in 0..2_000u32 {
                    for k in 1..=50u32 {
                        h.try_upsert(k, t * 1_000_000 + round).unwrap();
                    }
                }
            });
        }
    });
    list.assert_valid();
    let pairs = list.pairs();
    assert_eq!(pairs.len(), 50);
    // Every surviving value was written by some thread's final rounds.
    for (k, v) in pairs {
        assert!((1..=50).contains(&k));
        assert!(v % 1_000_000 < 2_000, "value {v} must be a valid round tag");
    }
}

/// A handle sequence on an empty structure: removes and lookups on the
/// pristine sentinels.
#[test]
fn empty_structure_operations() {
    let list = list16();
    let mut h = list.handle();
    assert!(!h.try_remove(5).unwrap());
    assert!(!h.try_contains(5).unwrap());
    assert_eq!(h.try_get(5).unwrap(), None);
    assert_eq!(h.try_min_entry().unwrap(), None);
    assert_eq!(list.len(), 0);
    list.assert_valid();
}
