//! Export ∘ rebuild is identity.
//!
//! `Gfsl::export_pairs` is the primitive shard migration relies on: a shard
//! exports its pairs under a fence and the receiving side bulk-loads them
//! via `Gfsl::from_sorted_pairs`. If that round-trip ever loses, duplicates,
//! or reorders a pair — in particular on zombie-laden structures after heavy
//! merge churn — migration silently corrupts data. These tests pin the
//! identity on ideal, churned, and property-generated structures.

use std::collections::BTreeMap;

use gfsl::{Gfsl, GfslParams, TeamSize};
use gfsl_rng::SplitMix64;
use proptest::prelude::*;

fn params16() -> GfslParams {
    GfslParams {
        team_size: TeamSize::Sixteen,
        pool_chunks: 1 << 13,
        ..Default::default()
    }
}

/// Round-trip `list` through export → bulk rebuild and assert the result is
/// structurally valid and pair-identical, matching `reference`.
fn assert_roundtrip(list: &Gfsl, reference: &BTreeMap<u32, u32>) {
    let exported: Vec<(u32, u32)> = list.export_pairs().collect();
    let expect: Vec<(u32, u32)> = reference.iter().map(|(&k, &v)| (k, v)).collect();
    assert_eq!(exported, expect, "export must match the oracle exactly");

    let rebuilt = Gfsl::from_sorted_pairs(*list.params(), list.export_pairs())
        .expect("exported stream is strictly ascending and in-range");
    rebuilt.assert_valid();
    assert_eq!(rebuilt.pairs(), expect, "rebuild must preserve every pair");

    // The rebuilt structure must be fully usable, not just readable.
    let mut h = rebuilt.handle();
    if let Some((&k, &v)) = reference.iter().next() {
        assert_eq!(h.try_get(k).unwrap(), Some(v));
    }
}

#[test]
fn roundtrip_on_zombie_laden_post_churn_structure() {
    // Heavy insert/remove churn drives splits and merges; merges leave
    // zombie chunks parked in the chains, which export must skip without
    // dropping their replacements' contents.
    let list = Gfsl::new(params16()).unwrap();
    let mut oracle = BTreeMap::new();
    {
        let mut h = list.handle();
        let mut rng = SplitMix64::new(0xE0_C0DE);
        for _ in 0..40_000u32 {
            let k = rng.below(3_000) as u32 + 1;
            if rng.coin(0.55) {
                // Insert is set-like: a duplicate key keeps its old value.
                let v = rng.next_u64() as u32;
                if h.try_insert(k, v).unwrap() {
                    oracle.insert(k, v);
                }
            } else {
                assert_eq!(h.try_remove(k).unwrap(), oracle.remove(&k).is_some());
            }
        }
        assert!(h.stats().merges > 0, "churn must have exercised merges");
    }
    list.assert_valid();
    assert_roundtrip(&list, &oracle);
}

#[test]
fn roundtrip_on_near_empty_and_empty_lists() {
    let empty = Gfsl::new(params16()).unwrap();
    assert_roundtrip(&empty, &BTreeMap::new());

    let list = Gfsl::new(params16()).unwrap();
    let mut oracle = BTreeMap::new();
    {
        let mut h = list.handle();
        for k in 1..=200u32 {
            h.try_insert(k, k + 7).unwrap();
            oracle.insert(k, k + 7);
        }
        for k in 1..=199u32 {
            h.try_remove(k).unwrap();
            oracle.remove(&k);
        }
    }
    assert_roundtrip(&list, &oracle);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Arbitrary churn scripts (key, insert-vs-remove) over a small key
    /// universe — small enough that merges and zombie chains are common —
    /// must always round-trip exactly.
    #[test]
    fn export_rebuild_identity_under_arbitrary_churn(
        ops in proptest::collection::vec((1u32..400, any::<bool>(), any::<u32>()), 0..2_000),
    ) {
        let list = Gfsl::new(params16()).unwrap();
        let mut oracle = BTreeMap::new();
        {
            let mut h = list.handle();
            for (k, is_insert, v) in ops {
                if is_insert {
                    // Set-like insert: duplicates keep the original value.
                    if h.try_insert(k, v).unwrap() {
                        oracle.insert(k, v);
                    }
                } else {
                    prop_assert_eq!(h.try_remove(k).unwrap(), oracle.remove(&k).is_some());
                }
            }
        }
        let exported: Vec<(u32, u32)> = list.export_pairs().collect();
        let expect: Vec<(u32, u32)> = oracle.iter().map(|(&k, &v)| (k, v)).collect();
        prop_assert_eq!(&exported, &expect);
        let rebuilt = Gfsl::from_sorted_pairs(*list.params(), exported.iter().copied()).unwrap();
        rebuilt.assert_valid();
        prop_assert_eq!(rebuilt.pairs(), expect);
    }
}
