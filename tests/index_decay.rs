//! Index decay under a sustained insert/delete mix, and the update-path
//! heal that stops it (DESIGN.md §20).
//!
//! GFSL as published raises a key only when a split happens and removes it
//! from every level on delete, so a long-lived structure under a steady
//! C80 mix loses its index: at the parent of this change the soak below
//! left 71 level-1 keys over 556 bottom chunks and a `get` cost 3.9× what
//! it costs on the freshly built structure.

use std::collections::BTreeMap;

use gfsl_repro::gfsl::{check_linearizable, Gfsl, GfslParams, HistoryClock, OpAction, Recorder};
use gfsl_repro::workload::rng::SplitMix64;

const SPAN: u32 = 20_000;
const SOAK_OPS: u32 = 2_000_000;

/// The 10,000 even keys of the span, bulk-built.
fn prefilled(params: GfslParams) -> Gfsl {
    Gfsl::from_sorted_pairs(params, (1..=SPAN / 2).map(|i| (2 * i, 2 * i))).unwrap()
}

/// Chunk reads per `get` over a fixed uniform key sample.
fn reads_per_get(list: &Gfsl) -> f64 {
    let mut h = list.handle();
    let mut rng = SplitMix64::new(0xD1CE);
    let n = 20_000u64;
    for _ in 0..n {
        h.get(1 + rng.below(u64::from(SPAN)) as u32);
    }
    h.stats().chunk_reads as f64 / n as f64
}

/// One handle, uniform 10/10/80 insert/delete/get over the span, checked
/// against a `BTreeMap` as it goes.
fn soak(list: &Gfsl, ops: u32) -> (BTreeMap<u32, u32>, gfsl_repro::gfsl::OpStats) {
    let mut oracle: BTreeMap<u32, u32> = list.pairs().into_iter().collect();
    let mut h = list.handle();
    let mut rng = SplitMix64::new(7);
    for i in 0..ops {
        let k = 1 + rng.below(u64::from(SPAN)) as u32;
        match rng.below(10) {
            0 => {
                let added = h.insert(k, i).unwrap();
                assert_eq!(added, !oracle.contains_key(&k), "insert {k} at op {i}");
                oracle.entry(k).or_insert(i);
            }
            1 => assert_eq!(h.remove(k), oracle.remove(&k).is_some(), "remove {k} at op {i}"),
            _ => assert_eq!(h.get(k), oracle.get(&k).copied(), "get {k} at op {i}"),
        }
    }
    (oracle, h.stats())
}

#[test]
fn soak_keeps_the_index() {
    let list = prefilled(GfslParams::default());
    let fresh = reads_per_get(&list);
    let (oracle, stats) = soak(&list, SOAK_OPS);
    let after = reads_per_get(&list);

    let shape = list.shape();
    let coverage = shape.index_coverage();
    println!(
        "reads/get fresh {fresh:.2} after {after:.2} ({:.2}x); soak reads/op {:.2}; heals {} raise_aborts {}; coverage {coverage:.2?}; levels {:?}",
        after / fresh,
        stats.chunk_reads as f64 / f64::from(SOAK_OPS),
        stats.index_heals,
        stats.raise_aborts,
        shape.levels.iter().map(|l| (l.keys, l.live_chunks)).collect::<Vec<_>>(),
    );
    assert!(
        after <= 1.7 * fresh,
        "a get costs {after:.2} chunk reads after the soak, {fresh:.2} fresh"
    );
    assert!(
        coverage[0] >= 0.5,
        "level 1 indexes {:.2} of the live bottom chunks",
        coverage[0]
    );
    assert!(stats.index_heals > 0, "the soak never healed");
    assert!(list.validate().is_empty(), "{:?}", list.validate());
    assert_eq!(list.pairs(), oracle.into_iter().collect::<Vec<_>>());
}

#[test]
fn p_chunk_zero_never_heals() {
    let list = prefilled(GfslParams {
        p_chunk: 0.0,
        ..GfslParams::default()
    });
    let (oracle, stats) = soak(&list, SOAK_OPS / 10);
    assert_eq!(stats.index_heals, 0, "p_chunk is the heal coin");
    assert!(list.validate().is_empty(), "{:?}", list.validate());
    assert_eq!(list.pairs(), oracle.into_iter().collect::<Vec<_>>());
}

/// Two handles on a 256-key span: every bottom chunk is contended, so
/// heals (which raise a chunk's minimum) collide with removes of that very
/// minimum. The recorded history must linearize and the index must stay a
/// subset of the level below it.
#[test]
fn heals_racing_removes_linearize() {
    const SMALL_SPAN: u64 = 256;
    let list = Gfsl::from_sorted_pairs(
        GfslParams::default(),
        (1..=SMALL_SPAN as u32 / 2).map(|i| (2 * i, 2 * i)),
    )
    .unwrap();
    let initial = list.pairs().into_iter().collect();
    let clock = HistoryClock::new();
    let barrier = std::sync::Barrier::new(2);
    let (records, heals) = std::thread::scope(|s| {
        let workers: Vec<_> = (0..2u64)
            .map(|t| {
                let (list, clock, barrier) = (&list, &clock, &barrier);
                s.spawn(move || {
                    let mut h = list.handle();
                    let mut rec = Recorder::new(clock);
                    let mut rng = SplitMix64::new(0xA11CE + t);
                    barrier.wait();
                    for i in 0..60_000u32 {
                        let k = 1 + rng.below(SMALL_SPAN) as u32;
                        let inv = rec.invoke();
                        match rng.below(5) {
                            0 | 1 => {
                                let value = (t as u32) << 24 | i;
                                let ok = h.insert(k, value).unwrap();
                                rec.finish(k, OpAction::Insert { value, ok }, inv);
                            }
                            2 | 3 => {
                                let ok = h.remove(k);
                                rec.finish(k, OpAction::Remove { ok }, inv);
                            }
                            _ => {
                                let found = h.get(k);
                                rec.finish(k, OpAction::Get { found }, inv);
                            }
                        }
                    }
                    (rec.records, h.stats().index_heals)
                })
            })
            .collect();
        let mut records = Vec::new();
        let mut heals = 0;
        for w in workers {
            let (r, n) = w.join().unwrap();
            records.extend(r);
            heals += n;
        }
        (records, heals)
    });
    assert!(heals > 0, "the span is too quiet to heal");
    assert!(list.validate().is_empty(), "{:?}", list.validate());
    if let Err(errors) = check_linearizable(&records, &initial) {
        panic!("non-linearizable history: {}", errors.join("; "));
    }
}
