//! Quickstart: build a GFSL, use it from several threads, inspect it.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use gfsl::{Gfsl, GfslParams, TeamSize};

fn main() {
    // A skiplist sized for ~100K keys, with the paper's best configuration
    // (32-entry chunks, p_chunk = 1, merge threshold DSIZE/3).
    let list = Gfsl::new(GfslParams::sized_for(100_000)).expect("construct");

    // Single-threaded use: get a handle (the moral equivalent of one GPU
    // team) and call set operations on it.
    {
        let mut h = list.handle();
        assert!(h.try_insert(42, 4200).unwrap());
        assert!(!h.try_insert(42, 9999).unwrap(), "duplicate keys are rejected");
        assert_eq!(h.try_get(42).unwrap(), Some(4200));
        assert!(h.try_contains(42).unwrap());
        assert!(h.try_remove(42).unwrap());
        assert!(!h.try_contains(42).unwrap());
    }

    // Concurrent use: share &list, one handle per thread. Handles embed
    // independent RNG streams (for the split raise-coin) and statistics.
    std::thread::scope(|s| {
        for t in 0..4u32 {
            let list = &list;
            s.spawn(move || {
                let mut h = list.handle();
                // Each thread owns keys congruent to t mod 4.
                for i in 0..25_000u32 {
                    let k = i * 4 + t + 1;
                    h.try_insert(k, k * 2).expect("pool sized for this");
                }
                for i in (0..25_000u32).step_by(2) {
                    let k = i * 4 + t + 1;
                    assert!(h.try_remove(k).unwrap());
                }
            });
        }
    });

    // Quiescent inspection: ordered iteration, length, invariant checking.
    let n = list.len();
    println!("keys left      : {n}");
    println!("height         : {:?}", list);
    println!("chunks in pool : {}", list.chunks_allocated());
    let pairs = list.pairs();
    assert_eq!(pairs.len(), 50_000);
    assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0), "sorted");
    assert!(pairs.iter().all(|&(k, v)| v == k * 2), "values intact");

    // The full structural validator (sortedness, lateral ordering, level
    // subsets, down-pointer reachability, max-field consistency):
    list.assert_valid();
    println!("all invariants hold");

    // The same API runs with 16-entry chunks (GFSL-16, 128-byte nodes):
    let small = Gfsl::new(GfslParams {
        team_size: TeamSize::Sixteen,
        ..GfslParams::sized_for(1_000)
    })
    .unwrap();
    let mut h = small.handle();
    h.try_insert(7, 70).unwrap();
    assert_eq!(h.try_get(7).unwrap(), Some(70));
    println!("GFSL-16 works too");
}
