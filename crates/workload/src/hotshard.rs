//! Hot-shard scenario: a zipf key distribution whose hot head re-centers on
//! a different part of the key space mid-run.
//!
//! A key-range-sharded cluster is only as fast as its hottest shard. This
//! scenario manufactures exactly the failure mode load-aware resharding
//! exists for: the first half of the stream hammers keys around one center
//! (one shard's range), then the head *jumps* to a different center — the
//! moment a real service sees when a tenant goes viral. The cluster's
//! rebalance test (`cluster_smoke::rebalance_restabilizes_after_the_hot_head_moves`)
//! counts the policy windows it takes to split the newly hot shard and
//! settle.

use crate::arrival::{ServeMix, ServeOp};
use crate::dist::Zipf;
use crate::rng::Lehmer64;

/// A zipf distribution over `1..=key_range` whose hottest rank sits at
/// `center` (ranks wrap around the end of the key space), re-centered from
/// `center_before` to `center_after` once `shift_at` keys have been drawn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HotShard {
    /// Total key universe `1..=key_range`.
    pub key_range: u32,
    /// Zipf skew in `[0, 1)`; high values concentrate the head hard onto
    /// one shard.
    pub theta: f64,
    /// Hot center for draws `0..shift_at`.
    pub center_before: u32,
    /// Hot center for draws `shift_at..`.
    pub center_after: u32,
    /// Draw index at which the head jumps.
    pub shift_at: u64,
}

impl HotShard {
    /// A scenario over `1..=key_range`. Panics (via [`Zipf::new`]) if
    /// `theta` is outside `[0, 1)`, and if either center is out of range.
    pub fn new(
        key_range: u32,
        theta: f64,
        center_before: u32,
        center_after: u32,
        shift_at: u64,
    ) -> HotShard {
        assert!(
            (1..=key_range).contains(&center_before) && (1..=key_range).contains(&center_after),
            "centers must lie in 1..=key_range"
        );
        // Validate theta eagerly.
        let _ = Zipf::new(key_range, theta);
        HotShard {
            key_range,
            theta,
            center_before,
            center_after,
            shift_at,
        }
    }

    /// The hot center in effect for draw `idx`.
    #[inline]
    pub fn center_at(&self, idx: u64) -> u32 {
        if idx < self.shift_at {
            self.center_before
        } else {
            self.center_after
        }
    }

    /// Draw the key for stream position `idx`: a zipf rank mapped so rank 1
    /// lands on the active center and successive ranks walk upward, wrapping
    /// at `key_range`.
    #[inline]
    pub fn key_at(&self, idx: u64, rng: &mut Lehmer64) -> u32 {
        let rank = Zipf::new(self.key_range, self.theta).draw(rng);
        let center = self.center_at(idx);
        ((center - 1 + (rank - 1)) % self.key_range) + 1
    }

    /// Generate the full deterministic request stream: zipf keys around the
    /// (shifting) center, op kinds rolled from `mix`.
    pub fn stream(&self, mix: ServeMix, seed: u64, n_ops: usize) -> Vec<ServeOp> {
        let mut keys = Lehmer64::new(seed ^ 0x4077_5EED);
        let mut kinds = Lehmer64::new(seed ^ 0x0DD5_0F0A);
        (0..n_ops)
            .map(|i| {
                let k = self.key_at(i as u64, &mut keys);
                mix.draw_keyed(&mut kinds, k, self.key_range)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn head_fraction(keys: &[u32], center: u32, span: u32, range: u32) -> f64 {
        let hits = keys
            .iter()
            .filter(|&&k| (k.wrapping_sub(center) % range) < span || k == center)
            .count();
        hits as f64 / keys.len() as f64
    }

    #[test]
    fn head_sits_on_the_center_and_jumps_at_the_shift() {
        let range = 10_000;
        let hs = HotShard::new(range, 0.9, 1_000, 8_000, 5_000);
        let mut rng = Lehmer64::new(77);
        let keys: Vec<u32> = (0..10_000u64).map(|i| hs.key_at(i, &mut rng)).collect();
        let (before, after) = keys.split_at(5_000);
        // Theta 0.9 puts well over half the mass in a 1% head.
        let span = range / 100;
        assert!(
            head_fraction(before, 1_000, span, range) > 0.5,
            "pre-shift head must sit on center_before"
        );
        assert!(
            head_fraction(after, 8_000, span, range) > 0.5,
            "post-shift head must sit on center_after"
        );
        assert!(
            head_fraction(after, 1_000, span, range) < 0.1,
            "old center must go cold after the shift"
        );
    }

    #[test]
    fn keys_stay_in_range_and_wrap_correctly() {
        // Center near the top of the range forces rank wrap-around.
        let hs = HotShard::new(100, 0.8, 99, 2, 50);
        let mut rng = Lehmer64::new(5);
        for i in 0..10_000u64 {
            let k = hs.key_at(i, &mut rng);
            assert!((1..=100).contains(&k), "key {k} out of range");
        }
    }

    #[test]
    fn stream_is_deterministic_and_mix_shaped() {
        let hs = HotShard::new(1_000, 0.9, 100, 900, 500);
        let a = hs.stream(ServeMix::C80, 42, 1_000);
        let b = hs.stream(ServeMix::C80, 42, 1_000);
        assert_eq!(a, b);
        let gets = a.iter().filter(|o| matches!(o, ServeOp::Get(_))).count();
        assert!((700..=900).contains(&gets), "~80% gets, got {gets}");
        assert!(a.iter().all(|o| (1..=1_000).contains(&o.key())));
    }
}
