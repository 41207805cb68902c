//! Targeted races against the lock-free reader guarantees of §4.3:
//! readers must stay correct while chunks split, merge, and shift under
//! them. These tests concentrate updates on tiny regions so the racy
//! windows (publish-then-clear during splits, right-to-left shift during
//! inserts, left-to-right shift during removes, merge copies) are hit many
//! times per second even on one core.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use gfsl::{Gfsl, GfslParams, TeamSize};

/// Run seed: `GFSL_TEST_SEED` if set, else 0 (which leaves every RNG at its
/// historical constant). Printed so the harness shows it when a test fails;
/// re-run with `GFSL_TEST_SEED=<seed> cargo test` to replay.
fn test_seed() -> u64 {
    let seed = std::env::var("GFSL_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    eprintln!("GFSL_TEST_SEED={seed} (set this env var to replay)");
    seed
}

/// Fold the run seed into an RNG's base state, keeping xorshift state
/// nonzero.
fn mix(base: u64, seed: u64) -> u64 {
    match base ^ seed {
        0 => 0x9E37_79B9_7F4A_7C15,
        x => x,
    }
}

/// Keys that are never removed must be visible to every read, at all times,
/// while neighbouring keys churn hard enough to split/merge their chunks
/// constantly.
#[test]
fn anchored_keys_never_flicker() {
    let list = Gfsl::new(GfslParams {
        team_size: TeamSize::Sixteen,
        pool_chunks: 1 << 16,
        ..Default::default()
    })
    .unwrap();
    // Anchors: every 10th key in a small space.
    let anchors: Vec<u32> = (1..=30).map(|i| i * 10).collect();
    {
        let mut h = list.handle();
        for &a in &anchors {
            h.try_insert(a, a * 7).unwrap();
        }
    }
    let seed = test_seed();
    let stop = AtomicBool::new(false);
    let reads = AtomicU64::new(0);
    std::thread::scope(|s| {
        let list_ref = &list;
        let stop_ref = &stop;
        let anchors_ref = &anchors;
        let reads_ref = &reads;
        // Churners: insert/remove filler keys adjacent to the anchors so
        // the anchors' chunks split and merge repeatedly.
        for t in 0..2u64 {
            s.spawn(move || {
                let mut h = list_ref.handle();
                let mut x = mix(0x1111_2222 + t, seed);
                for _ in 0..25_000 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let base = ((x % 30 + 1) * 10) as u32;
                    let filler = base + 1 + ((x >> 32) % 8) as u32; // 10x+1..10x+8
                    if (x >> 45).is_multiple_of(2) {
                        let _ = h.try_insert(filler, 1).unwrap();
                    } else {
                        let _ = h.try_remove(filler).unwrap();
                    }
                }
                stop_ref.store(true, Ordering::Release);
            });
        }
        // Readers: anchors must be found on EVERY probe, with intact values.
        for t in 0..2u64 {
            s.spawn(move || {
                let mut h = list_ref.handle();
                let mut i = t as usize;
                let mut n = 0u64;
                while !stop_ref.load(Ordering::Acquire) {
                    let a = anchors_ref[i % anchors_ref.len()];
                    i += 1;
                    n += 1;
                    match h.try_get(a).unwrap() {
                        Some(v) => assert_eq!(v, a * 7, "anchor {a} value torn"),
                        None => panic!("anchor {a} vanished during churn (read {n})"),
                    }
                }
                reads_ref.fetch_add(n, Ordering::Relaxed);
            });
        }
    });
    assert!(reads.load(Ordering::Relaxed) > 1_000, "readers actually ran");
    list.assert_valid();
    let mut h = list.handle();
    for &a in &anchors {
        assert_eq!(h.try_get(a).unwrap(), Some(a * 7));
    }
}

/// Range scans racing heavy churn: scans must never yield out-of-order or
/// duplicate keys, and anchors must always be present in covering scans.
#[test]
fn range_scans_stay_ordered_under_churn() {
    let list = Gfsl::new(GfslParams {
        team_size: TeamSize::Sixteen,
        pool_chunks: 1 << 16,
        ..Default::default()
    })
    .unwrap();
    let anchors: Vec<u32> = (1..=20).map(|i| i * 50).collect(); // 50,100,...,1000
    {
        let mut h = list.handle();
        for &a in &anchors {
            h.try_insert(a, a).unwrap();
        }
    }
    let seed = test_seed();
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let list_ref = &list;
        let stop_ref = &stop;
        let anchors_ref = &anchors;
        s.spawn(move || {
            let mut h = list_ref.handle();
            let mut x = mix(0xF00D, seed);
            for _ in 0..40_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let k = (x % 1_000) as u32 + 1;
                if k.is_multiple_of(50) {
                    continue; // never touch anchors
                }
                if (x >> 40).is_multiple_of(2) {
                    let _ = h.try_insert(k, k).unwrap();
                } else {
                    let _ = h.try_remove(k).unwrap();
                }
            }
            stop_ref.store(true, Ordering::Release);
        });
        s.spawn(move || {
            let mut h = list_ref.handle();
            while !stop_ref.load(Ordering::Acquire) {
                let got = h.try_range(1, 1_100).unwrap();
                assert!(
                    got.windows(2).all(|w| w[0].0 < w[1].0),
                    "scan out of order or duplicated: {got:?}"
                );
                let keys: std::collections::HashSet<u32> =
                    got.iter().map(|&(k, _)| k).collect();
                for &a in anchors_ref {
                    assert!(keys.contains(&a), "anchor {a} missing from covering scan");
                }
            }
        });
    });
    list.assert_valid();
}

/// min_entry racing deletions of the minimum: it must always return either
/// a current minimum candidate or None, never a key that was never present.
#[test]
fn min_entry_under_min_deletion_churn() {
    let list = Gfsl::new(GfslParams {
        team_size: TeamSize::Sixteen,
        pool_chunks: 1 << 16,
        ..Default::default()
    })
    .unwrap();
    {
        let mut h = list.handle();
        for k in 1..=2_000u32 {
            h.try_insert(k, k + 1).unwrap();
        }
    }
    std::thread::scope(|s| {
        let list_ref = &list;
        s.spawn(move || {
            let mut h = list_ref.handle();
            for k in 1..=1_800u32 {
                assert!(h.try_remove(k).unwrap());
            }
        });
        s.spawn(move || {
            let mut h = list_ref.handle();
            let mut last_seen = 0u32;
            for _ in 0..20_000 {
                if let Some((k, v)) = h.try_min_entry().unwrap() {
                    assert!((1..=2_000).contains(&k));
                    assert_eq!(v, k + 1, "value of min {k}");
                    // The minimum can only move right over time (deletions
                    // from the left, no inserts), modulo transient lag one
                    // chunk behind; allow equality and forward movement.
                    assert!(
                        k + 50 >= last_seen,
                        "minimum moved sharply backwards: {last_seen} -> {k}"
                    );
                    last_seen = last_seen.max(k);
                }
            }
        });
    });
    assert_eq!(list.len(), 200);
    list.assert_valid();
}
