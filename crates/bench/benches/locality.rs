//! Locality engine bench: the multi-level finger and foresight prefetch
//! against the sorted entry point's own bottom-level hint (`batch`:
//! default params), plus the flat-bottom (B-Skiplist)
//! engine variant, on the two shapes the locality work targets — hot-band
//! batched gets and sliding-window reclamation churn.
//!
//! The authoritative grid with gates and locality counters is the
//! `hotpath` harness experiment (`repro --experiment hotpath`), which
//! emits `BENCH_hotpath.json`; this target tracks the same paths under
//! criterion's statistics.

use criterion::{criterion_group, criterion_main, Criterion};
use gfsl::{
    BatchOp, BatchReply, FlatSkiplist, Gfsl, GfslParams, KvEngine, Prefetch, TeamSize,
};
use gfsl_workload::{Prefill, SplitMix64};

const RANGE: u32 = 200_000;
const BATCH: usize = 256;
/// Hot band for clustered reads: a few hundred bottom-level chunks.
const BAND: u32 = 8_192;

/// The chunked-engine locality grid: default params (the baseline),
/// fingers, and fingers + foresight prefetch.
const GRID: [(&str, bool, Prefetch); 3] = [
    ("batch", false, Prefetch::Off),
    ("fingers", true, Prefetch::Off),
    ("fingers_pf", true, Prefetch::Next),
];

fn built(fingers: bool, prefetch: Prefetch, reclaim: bool, expected: u64) -> Gfsl {
    let list = Gfsl::new(GfslParams {
        fingers,
        prefetch,
        reclaim,
        pool_chunks: GfslParams::chunks_for(expected * 2, TeamSize::ThirtyTwo),
        ..Default::default()
    })
    .unwrap();
    {
        let mut h = list.handle();
        for k in Prefill::HalfRandom.keys(RANGE, 5) {
            h.insert(k, k).unwrap();
        }
    }
    list
}

fn bench_locality(c: &mut Criterion) {
    let mut g = c.benchmark_group("locality");

    for (name, fingers, prefetch) in GRID {
        // Read-heavy: one key-sorted batch of gets inside a random hot band
        // per iteration; the finger keeps the whole descent path cached
        // between batches, so most lookups restart at the bottom level.
        let list = built(fingers, prefetch, false, RANGE as u64 / 2);
        let mut h = list.handle();
        let mut rng = SplitMix64::new(0x5EED);
        let mut out: Vec<BatchReply> = Vec::with_capacity(BATCH);
        g.bench_function(format!("get_band_{name}"), |b| {
            b.iter(|| {
                let lo = rng.below((RANGE - BAND) as u64) as u32 + 1;
                let ops: Vec<BatchOp> = (0..BATCH)
                    .map(|_| BatchOp::Get(lo + rng.below(BAND as u64) as u32))
                    .collect();
                out.clear();
                h.execute_batch_hinted(&ops, &mut out)
            })
        });

        // Reclamation churn: the split/merge/retire storm that invalidates
        // fingers, so this measures validation + partial-restart cost.
        const WINDOW: u32 = 4_096;
        let list = Gfsl::new(GfslParams {
            fingers,
            prefetch,
            reclaim: true,
            pool_chunks: GfslParams::chunks_for(WINDOW as u64 * 4, TeamSize::ThirtyTwo),
            ..Default::default()
        })
        .unwrap();
        let mut h = list.handle();
        for k in 1..=WINDOW {
            h.insert(k, k).unwrap();
        }
        let mut next = WINDOW + 1;
        g.bench_function(format!("churn_pair_{name}"), |b| {
            b.iter(|| {
                h.insert(next, next).unwrap();
                assert!(h.remove(next - WINDOW));
                next += 1;
            })
        });
    }

    // Flat-bottom engine on the same two shapes, through the KvEngine seam.
    let flat = FlatSkiplist::new();
    let mut h = flat.handle();
    for k in Prefill::HalfRandom.keys(RANGE, 5) {
        h.insert(k, k);
    }
    let mut rng = SplitMix64::new(0x5EED);
    g.bench_function("get_band_flat", |b| {
        b.iter(|| {
            let lo = rng.below((RANGE - BAND) as u64) as u32 + 1;
            let mut found = 0u64;
            for _ in 0..BATCH {
                let k = lo + rng.below(BAND as u64) as u32;
                found += h.get(k).is_some() as u64;
            }
            found
        })
    });

    const WINDOW: u32 = 4_096;
    let flat = FlatSkiplist::new();
    let mut h = flat.handle();
    for k in 1..=WINDOW {
        h.insert(k, k);
    }
    let mut next = WINDOW + 1;
    g.bench_function("churn_pair_flat", |b| {
        b.iter(|| {
            h.insert(next, next);
            assert!(h.remove(next - WINDOW));
            next += 1;
        })
    });

    g.finish();
}

criterion_group!(benches, bench_locality);
criterion_main!(benches);
