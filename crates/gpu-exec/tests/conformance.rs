//! Conformance: the cycle executor's warp programs must answer exactly like
//! the structures' own operations, and charge exactly their accesses, on
//! arbitrary structures — including ones containing zombies and both chunk
//! formats.

use std::sync::Arc;

use gfsl::{Gfsl, GfslParams, TeamSize};
use gfsl_gpu_exec::{Device, ExecConfig, GfslContainsWarp, McContainsWarp, Step, WarpProgram};
use gfsl_gpu_mem::{CountingProbe, L2Cache, Traffic};
use gfsl_workload::SplitMix64;
use mc_skiplist::{McParams, McSkipList};
use proptest::prelude::*;

fn drive_gfsl(list: &Gfsl, keys: Vec<u32>) -> Vec<bool> {
    let mut w = GfslContainsWarp::new(list, keys);
    while !matches!(w.step(), Step::Done) {}
    w.results
}

fn drive_mc(list: &McSkipList, keys: Vec<u32>) -> Vec<bool> {
    let mut w = McContainsWarp::new(list, keys);
    while !matches!(w.step(), Step::Done) {}
    w.results
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// GFSL warp answers == handle answers, after arbitrary insert/delete
    /// churn (which leaves zombies and multi-chunk levels behind).
    #[test]
    fn gfsl_warp_conforms(
        seed in any::<u64>(),
        team16 in any::<bool>(),
        n_build in 50usize..400,
        probes in proptest::collection::vec(1u32..600, 1..40),
    ) {
        let list = Gfsl::new(GfslParams {
            team_size: if team16 { TeamSize::Sixteen } else { TeamSize::ThirtyTwo },
            ..Default::default()
        }).unwrap();
        let mut h = list.handle();
        let mut rng = SplitMix64::new(seed);
        for _ in 0..n_build {
            let k = rng.below(600) as u32 + 1;
            if rng.coin(0.7) {
                h.insert(k, k).unwrap();
            } else {
                h.remove(k);
            }
        }
        let expect: Vec<bool> = probes.iter().map(|&k| h.contains(k)).collect();
        let got = drive_gfsl(&list, probes);
        prop_assert_eq!(got, expect);
    }

    /// M&C warp answers == handle answers.
    #[test]
    fn mc_warp_conforms(
        seed in any::<u64>(),
        n_build in 50usize..400,
        probes in proptest::collection::vec(1u32..600, 1..32),
    ) {
        let list = McSkipList::new(McParams::sized_for(2_000)).unwrap();
        let mut h = list.handle();
        let mut rng = SplitMix64::new(seed);
        for _ in 0..n_build {
            let k = rng.below(600) as u32 + 1;
            if rng.coin(0.7) {
                h.insert(k, k);
            } else {
                h.remove(k);
            }
        }
        let expect: Vec<bool> = probes.iter().map(|&k| h.contains(k)).collect();
        let got = drive_mc(&list, probes);
        prop_assert_eq!(got, expect);
    }
}

/// The `(read_txns, words_read, l2_hits, l2_misses)` a traffic total holds.
fn read_counts(t: Traffic) -> (u64, u64, u64, u64) {
    (t.read_txns, t.words_read, t.l2_hits, t.l2_misses)
}

/// The executor replays the very access stream the roofline's probe charges:
/// one GFSL warp over a key list (both team sizes, after churn that leaves
/// zombies behind), and one-lane M&C warps run one after another, leave a
/// fresh device with the traffic a `CountingProbe` counts for the same
/// `contains` calls in the same order.
#[test]
fn warps_replay_the_counting_probe_stream() {
    let mut rng = SplitMix64::new(0x5EED);
    let keys: Vec<u32> = (0..300).map(|_| rng.below(700) as u32 + 1).collect();
    for team_size in [TeamSize::Sixteen, TeamSize::ThirtyTwo] {
        let list = Gfsl::new(GfslParams {
            team_size,
            ..Default::default()
        })
        .unwrap();
        let mut h = list.handle();
        for _ in 0..2_000 {
            let k = rng.below(600) as u32 + 1;
            if rng.coin(0.6) {
                h.insert(k, k).unwrap();
            } else {
                h.remove(k);
            }
        }
        let mut dev = Device::new(ExecConfig::default());
        let warp = GfslContainsWarp::new(&list, keys.clone());
        let got = dev.run(vec![Box::new(warp)], keys.len() as u64).traffic;
        let mut h = list.handle_with(CountingProbe::new(Arc::new(L2Cache::gtx970())));
        for &k in &keys {
            h.contains(k);
        }
        let want = h.into_parts().0.traffic();
        assert_eq!(read_counts(got), read_counts(want), "{team_size:?}");
    }

    let list = McSkipList::new(McParams::sized_for(4_000)).unwrap();
    let mut h = list.handle();
    for _ in 0..2_000 {
        let k = rng.below(600) as u32 + 1;
        if rng.coin(0.6) {
            h.insert(k, k);
        } else {
            h.remove(k);
        }
    }
    let mut dev = Device::new(ExecConfig::default());
    for &k in &keys {
        dev.run(vec![Box::new(McContainsWarp::new(&list, vec![k]))], 1);
    }
    let mut h = list.handle_with(CountingProbe::new(Arc::new(L2Cache::gtx970())));
    for &k in &keys {
        h.contains(k);
    }
    let want = h.into_parts().0.traffic();
    assert_eq!(read_counts(dev.traffic()), read_counts(want), "M&C");
}

/// A full device run returns correct op counts and monotone-positive time,
/// and a warmer L2 makes a repeat run cheaper.
#[test]
fn device_end_to_end_with_gfsl_warps() {
    let list = Gfsl::new(GfslParams::sized_for(50_000)).unwrap();
    {
        let mut h = list.handle();
        for k in 1..=20_000u32 {
            h.insert(k, k).unwrap();
        }
    }
    let keys: Vec<u32> = (1..=4_000).collect();
    let run = |dev: &mut Device| {
        let warps: Vec<Box<dyn WarpProgram + '_>> = keys
            .chunks(100)
            .map(|c| Box::new(GfslContainsWarp::new(&list, c.to_vec())) as Box<dyn WarpProgram + '_>)
            .collect();
        dev.run(warps, keys.len() as u64)
    };
    let mut dev = Device::new(ExecConfig::default());
    let cold = run(&mut dev);
    assert_eq!(cold.ops, 4_000);
    assert!(cold.seconds > 0.0);
    assert!(cold.traffic.l2_misses > 0);
    let warm = run(&mut dev);
    assert!(
        warm.cycles <= cold.cycles,
        "warm L2 repeat must not be slower: {} vs {}",
        warm.cycles,
        cold.cycles
    );
}

/// Determinism end to end: identical device runs give identical cycles.
#[test]
fn device_runs_are_deterministic() {
    let list = Gfsl::new(GfslParams::sized_for(10_000)).unwrap();
    {
        let mut h = list.handle();
        for k in (1..=5_000u32).step_by(2) {
            h.insert(k, k).unwrap();
        }
    }
    let keys: Vec<u32> = (1..=2_000).collect();
    let go = || {
        let mut dev = Device::new(ExecConfig::default());
        let warps: Vec<Box<dyn WarpProgram + '_>> = keys
            .chunks(64)
            .map(|c| Box::new(GfslContainsWarp::new(&list, c.to_vec())) as Box<dyn WarpProgram + '_>)
            .collect();
        dev.run(warps, keys.len() as u64).cycles
    };
    assert_eq!(go(), go());
}
