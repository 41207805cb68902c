//! Windowed analytics over ordered events: bulk-load a day of
//! timestamp-keyed readings, run range aggregations while live appends
//! continue, then compact.
//!
//! Exercises the ordered-structure APIs a hash table cannot offer:
//! `Gfsl::from_sorted_pairs` (split-free bulk load), `try_range`
//! (lock-free ordered scans), `try_upsert` (corrections),
//! and `compacted` (the paper's between-kernel-launches reclamation).
//!
//! ```text
//! cargo run --release --example time_windows
//! ```

use gfsl::{Gfsl, GfslParams};

/// Timestamps are seconds-of-day (1..=86400) scaled to leave room for
/// sub-second appends; values are sensor readings.
fn ts(second: u32, sub: u32) -> u32 {
    second * 16 + sub + 1
}

fn main() {
    // Bulk-load yesterday's readings: one per second, already sorted — no
    // splits, ideal index structure.
    let day: Vec<(u32, u32)> = (0..86_400u32)
        .map(|s| (ts(s, 0), (s * 7919) % 1000)) // pseudo readings 0..999
        .collect();
    let mut store = Gfsl::from_sorted_pairs(
        GfslParams::sized_for(200_000),
        day.iter().copied(),
    )
    .expect("sorted bulk load");
    println!("bulk-loaded {} readings; shape:", store.len());
    for lvl in store.shape().levels.iter().take(4) {
        println!(
            "  level {}: {} chunks, {} keys, mean fill {:.1}",
            lvl.level,
            lvl.live_chunks,
            lvl.keys,
            lvl.mean_fill()
        );
    }

    // Live phase: two appenders add sub-second readings to the evening
    // hours while an analyst runs windowed aggregations.
    std::thread::scope(|s| {
        let store_ref = &store;
        for t in 1..=2u32 {
            s.spawn(move || {
                let mut h = store_ref.handle();
                for i in 0..20_000u32 {
                    let second = 72_000 + (i % 14_400); // 20:00..24:00
                    h.try_insert(ts(second, t), i % 1000).ok();
                }
            });
        }
        s.spawn(move || {
            let mut h = store_ref.handle();
            for hour in 0..24u32 {
                let lo = ts(hour * 3_600, 0);
                let hi = ts((hour + 1) * 3_600 - 1, 15);
                let mut sum = 0u64;
                let mut n = 0u64;
                let mut max = 0u32;
                for (_, v) in h.try_range(lo, hi).unwrap() {
                    sum += v as u64;
                    n += 1;
                    max = max.max(v);
                }
                if hour % 6 == 0 {
                    println!(
                        "  hour {hour:02}: n={n}, mean={:.1}, max={max}",
                        sum as f64 / n.max(1) as f64
                    );
                }
                assert!(n >= 3_600, "every second has at least one reading");
            }
        });
    });

    {
        // A correction comes in: overwrite one reading in place.
        let mut h = store.handle();
        let key = ts(12 * 3_600, 0);
        let old = h.try_upsert(key, 999_999 % 1000).expect("valid key");
        println!("corrected noon reading (was {old:?})");

        // Retention: drop the first six hours, then compact away the zombies.
        let cutoff = ts(6 * 3_600, 0);
        let victims = h.try_range(1, cutoff - 1).unwrap();
        for (k, _) in &victims {
            h.try_remove(*k).unwrap();
        }
        println!("expired {} readings before 06:00", victims.len());
    }

    let before = store.chunks_allocated();
    store = store.compacted().expect("compaction");
    println!(
        "compacted: {} -> {} chunks, zombie fraction now {:.3}",
        before,
        store.chunks_allocated(),
        store.shape().zombie_fraction()
    );
    store.assert_valid();
    println!("store valid; {} readings retained", store.len());
}
