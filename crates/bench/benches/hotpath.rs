//! Hot-path engine bench: the chunked engine on the three shapes the
//! engine work targets — hot-band batched gets (read-heavy; in order
//! through `execute_batch` and key-sorted, hinted, through
//! `execute_batch_hinted`), steady-state locked writes, and reclamation
//! churn.
//!
//! The authoritative grid with speedup ratios and reclaim counters is the
//! `hotpath` harness experiment (`repro --experiment hotpath`), which
//! emits `BENCH_hotpath.json`; this target tracks the same paths under
//! criterion's statistics.

use criterion::{criterion_group, criterion_main, Criterion};
use gfsl::{BatchOp, BatchReply, Gfsl, GfslParams, TeamSize};
use gfsl_workload::{Prefill, SplitMix64};

const RANGE: u32 = 200_000;
const BATCH: usize = 256;
/// Hot band for clustered reads: a few hundred bottom-level chunks.
const BAND: u32 = 8_192;

fn built(reclaim: bool, expected_keys: u64) -> Gfsl {
    let list = Gfsl::new(GfslParams {
        reclaim,
        pool_chunks: GfslParams::chunks_for(expected_keys * 2, TeamSize::ThirtyTwo),
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

fn bench_hotpath(c: &mut Criterion) {
    let mut g = c.benchmark_group("hotpath");

    // Read-heavy: one batch of gets inside a random hot band per
    // iteration. The sorted entry point answers most lookups from the
    // previous op's validated chunk snapshot.
    for (name, sorted) in [("plain", false), ("batch", true)] {
        let list = built(false, RANGE as u64 / 2);
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
                if sorted {
                    h.execute_batch_hinted(&ops, &mut out)
                } else {
                    h.execute_batch(&ops, &mut out)
                }
            })
        });
    }

    // Steady-state locked write path: duplicate inserts take the chunk
    // lock and scan without mutating, so the list stays fixed across
    // criterion's iteration count.
    let list = built(false, RANGE as u64 / 2);
    let mut h = list.handle();
    let mut rng = SplitMix64::new(0xD00D);
    g.bench_function("insert_dup", |b| {
        b.iter(|| {
            let k = (rng.below(RANGE as u64 / 2) as u32) * 2 + 2;
            h.insert(k, k).unwrap()
        })
    });

    // Reclamation churn: monotone insert+remove pairs over a sliding
    // window, recycling zombie chunks through the epoch reclaimer as the
    // window advances.
    const WINDOW: u32 = 4_096;
    let list = Gfsl::new(GfslParams {
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
    g.bench_function("churn_pair", |b| {
        b.iter(|| {
            h.insert(next, next).unwrap();
            assert!(h.remove(next - WINDOW));
            next += 1;
        })
    });

    g.finish();
}

criterion_group!(benches, bench_hotpath);
criterion_main!(benches);
