//! Deterministic RNG streams shared by every GFSL crate.
//!
//! This is the single home for the pseudorandom generators (previously two
//! diverging copies lived in `gfsl-core` and `gfsl-workload`). Everything
//! here is seedable and reproducible: same seed, same stream, regardless of
//! thread interleaving.
//!
//! SplitMix64: Steele, Lea & Flood, "Fast splittable pseudorandom number
//! generators", OOPSLA 2014 (Vigna's public-domain reference). Lehmer64:
//! 128-bit multiplicative congruential generator — slightly faster for bulk
//! key generation.

pub mod fnv;

/// SplitMix64 stream. Good seeder and general-purpose generator.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Stream seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next 64 uniform bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, bound)` (Lemire's multiply-shift reduction;
    /// negligible modulo bias is irrelevant for workload generation but we
    /// use the unbiased-enough fast map anyway).
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform draw in `[0, 1)` (53 random mantissa bits).
    #[inline]
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial.
    #[inline]
    pub fn coin(&mut self, p: f64) -> bool {
        if p >= 1.0 {
            true
        } else if p <= 0.0 {
            false
        } else {
            self.unit_f64() < p
        }
    }
}

/// Lehmer64: `state *= M (mod 2^128)`, output the high 64 bits.
#[derive(Debug, Clone)]
pub struct Lehmer64 {
    state: u128,
}

impl Lehmer64 {
    /// Stream seeded with `seed` (expanded through SplitMix64 so low-entropy
    /// seeds still give full-width state; state must be odd/nonzero).
    pub fn new(seed: u64) -> Lehmer64 {
        let mut sm = SplitMix64::new(seed);
        let hi = sm.next_u64() as u128;
        let lo = sm.next_u64() as u128;
        Lehmer64 {
            state: (hi << 64 | lo) | 1,
        }
    }

    /// Next 64 uniform bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_mul(0xDA94_2042_E4DD_58B5);
        (self.state >> 64) as u64
    }

    /// Uniform draw in `[0, bound)`.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

/// Fisher–Yates shuffle driven by a SplitMix64 stream.
pub fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

/// Geometric tower height for classic skiplists: 1 + the number of
/// consecutive successes of a `p_key` coin, capped at `max`. This is how
/// M&C pre-draws the level for each insert on the host (paper §5.1).
pub fn tower_height(rng: &mut SplitMix64, p_key: f64, max: u32) -> u32 {
    let mut h = 1;
    while h < max && rng.coin(p_key) {
        h += 1;
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference outputs for seed 1234567 from the public-domain
        // reference implementation (Vigna).
        let mut r = SplitMix64::new(1234567);
        assert_eq!(r.next_u64(), 6457827717110365317);
        assert_eq!(r.next_u64(), 3203168211198807973);
        assert_eq!(r.next_u64(), 9817491932198370423);
    }

    #[test]
    fn below_stays_in_bounds_and_covers_range() {
        let mut r = SplitMix64::new(3);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = r.below(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets hit");
    }

    #[test]
    fn lehmer_is_deterministic_and_distinct_from_splitmix() {
        let mut a = Lehmer64::new(9);
        let mut b = Lehmer64::new(9);
        let mut c = Lehmer64::new(10);
        let va = a.next_u64();
        assert_eq!(va, b.next_u64());
        assert_ne!(va, c.next_u64());
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut v: Vec<u32> = (0..100).collect();
        let mut rng = SplitMix64::new(5);
        shuffle(&mut v, &mut rng);
        assert_ne!(v, (0..100).collect::<Vec<_>>(), "seed 5 must move something");
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn shuffle_deterministic_per_seed() {
        let mut a: Vec<u32> = (0..50).collect();
        let mut b: Vec<u32> = (0..50).collect();
        shuffle(&mut a, &mut SplitMix64::new(7));
        shuffle(&mut b, &mut SplitMix64::new(7));
        assert_eq!(a, b);
    }

    #[test]
    fn tower_height_distribution_matches_geometric() {
        let mut rng = SplitMix64::new(11);
        let n = 100_000;
        let heights: Vec<u32> = (0..n).map(|_| tower_height(&mut rng, 0.5, 32)).collect();
        let h1 = heights.iter().filter(|&&h| h == 1).count() as f64 / n as f64;
        let h2 = heights.iter().filter(|&&h| h == 2).count() as f64 / n as f64;
        assert!((h1 - 0.5).abs() < 0.01, "P(h=1) = {h1}");
        assert!((h2 - 0.25).abs() < 0.01, "P(h=2) = {h2}");
        assert!(heights.iter().all(|&h| (1..=32).contains(&h)));
    }

    #[test]
    fn tower_height_respects_cap() {
        let mut rng = SplitMix64::new(13);
        assert!((0..1000).all(|_| tower_height(&mut rng, 1.0, 4) == 4));
        assert!((0..1000).all(|_| tower_height(&mut rng, 0.0, 4) == 1));
    }

    #[test]
    fn unit_f64_in_range() {
        let mut r = SplitMix64::new(21);
        for _ in 0..1000 {
            let x = r.unit_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn coin_frequency_tracks_p() {
        let mut r = SplitMix64::new(99);
        let hits = (0..10_000).filter(|_| r.coin(0.25)).count();
        assert!((2_000..3_000).contains(&hits), "hits = {hits}");
    }
}
