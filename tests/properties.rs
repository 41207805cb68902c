//! Workspace-level property tests: arbitrary operation sequences against a
//! reference model, on both structures and both chunk formats.

use proptest::prelude::*;
use std::collections::BTreeMap;

use gfsl_repro::gfsl::{Gfsl, GfslParams, TeamSize};
use gfsl_repro::mc_skiplist::{McParams, McSkipList};

#[derive(Debug, Clone)]
enum Action {
    Insert(u32, u32),
    Remove(u32),
    Get(u32),
    MinEntry,
    Range(u32, u32),
}

/// Mostly the dense span, and the user keys next to both sentinels.
fn key_strategy(key_span: u32) -> impl Strategy<Value = u32> {
    prop_oneof![
        6 => 1..=key_span,
        1 => Just(1u32),
        1 => (0..=2u32).prop_map(|d| u32::MAX - 1 - d),
    ]
}

fn action_strategy(key_span: u32) -> impl Strategy<Value = Action> {
    let key = move || key_strategy(key_span);
    prop_oneof![
        2 => (key(), any::<u32>()).prop_map(|(k, v)| Action::Insert(k, v)),
        2 => key().prop_map(Action::Remove),
        2 => key().prop_map(Action::Get),
        2 => Just(Action::MinEntry),
        1 => (key(), key()).prop_map(|(a, b)| Action::Range(a.min(b), a.max(b))),
    ]
}

fn check_gfsl(team: TeamSize, actions: &[Action]) {
    let list = Gfsl::new(GfslParams {
        team_size: team,
        pool_chunks: 1 << 14,
        ..Default::default()
    })
    .unwrap();
    let mut h = list.handle();
    let mut reference: BTreeMap<u32, u32> = BTreeMap::new();
    for a in actions {
        match *a {
            Action::Insert(k, v) => {
                let inserted = h.insert(k, v).unwrap();
                assert_eq!(inserted, !reference.contains_key(&k), "insert {k}");
                reference.entry(k).or_insert(v);
            }
            Action::Remove(k) => {
                assert_eq!(h.remove(k), reference.remove(&k).is_some(), "remove {k}");
            }
            Action::Get(k) => {
                assert_eq!(h.get(k), reference.get(&k).copied(), "get {k}");
            }
            Action::MinEntry => {
                let want = reference.iter().next().map(|(&k, &v)| (k, v));
                assert_eq!(h.min_entry(), want, "min_entry");
            }
            Action::Range(lo, hi) => {
                let got = h.range(lo, hi);
                assert!(got.windows(2).all(|w| w[0].0 < w[1].0), "range {lo}..={hi} sorted, unique");
                let want: Vec<(u32, u32)> = reference.range(lo..=hi).map(|(&k, &v)| (k, v)).collect();
                assert_eq!(got, want, "range {lo}..={hi}");
            }
        }
    }
    let keys: Vec<u32> = reference.keys().copied().collect();
    assert_eq!(list.keys(), keys);
    let pairs: Vec<(u32, u32)> = reference.into_iter().collect();
    assert_eq!(list.pairs(), pairs);
    list.assert_valid();
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64, ..ProptestConfig::default()
    })]

    /// GFSL-16 against a BTreeMap on dense key spans (forces splits,
    /// merges, and multi-level traffic in a 14-entry data array).
    #[test]
    fn gfsl16_matches_reference(actions in proptest::collection::vec(action_strategy(60), 1..400)) {
        check_gfsl(TeamSize::Sixteen, &actions);
    }

    /// GFSL-32 against a BTreeMap.
    #[test]
    fn gfsl32_matches_reference(actions in proptest::collection::vec(action_strategy(120), 1..400)) {
        check_gfsl(TeamSize::ThirtyTwo, &actions);
    }

    /// Sparse key space: exercises the backtrack path (searched keys often
    /// smaller than everything in a chunk).
    #[test]
    fn gfsl_sparse_keys(actions in proptest::collection::vec(action_strategy(u32::MAX - 1), 1..200)) {
        check_gfsl(TeamSize::Sixteen, &actions);
    }

    /// M&C against a BTreeMap.
    #[test]
    fn mc_matches_reference(actions in proptest::collection::vec(action_strategy(80), 1..400)) {
        let list = McSkipList::new(McParams::sized_for(4_000)).unwrap();
        let mut h = list.handle();
        let mut reference: BTreeMap<u32, u32> = BTreeMap::new();
        for a in &actions {
            match *a {
                Action::Insert(k, v) => {
                    let inserted = h.insert(k, v);
                    prop_assert_eq!(inserted, !reference.contains_key(&k));
                    reference.entry(k).or_insert(v);
                }
                Action::Remove(k) => {
                    prop_assert_eq!(h.remove(k), reference.remove(&k).is_some());
                }
                Action::Get(k) => {
                    prop_assert_eq!(h.get(k), reference.get(&k).copied());
                }
                Action::MinEntry | Action::Range(..) => {} // not part of the M&C API
            }
        }
        let keys: Vec<u32> = reference.keys().copied().collect();
        prop_assert_eq!(list.keys(), keys);
    }

    /// Level subsets survive arbitrary histories: every key indexed at
    /// level i+1 exists at level i (checked inside assert_valid, plus
    /// explicitly here for the top level).
    #[test]
    fn upper_levels_are_subsets(keys in proptest::collection::btree_set(1u32..10_000, 1..300)) {
        let list = Gfsl::new(GfslParams {
            team_size: TeamSize::Sixteen,
            ..Default::default()
        }).unwrap();
        let mut h = list.handle();
        for &k in &keys {
            h.insert(k, k).unwrap();
        }
        let bottom = list.level_keys(0);
        for level in 1..list.params().max_levels() {
            let upper = list.level_keys(level);
            for k in &upper {
                prop_assert!(bottom.binary_search(k).is_ok(), "level {level} key {k} missing below");
            }
        }
        list.assert_valid();
    }
}
