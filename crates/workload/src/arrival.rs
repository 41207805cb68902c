//! Serving-request operations and their mixtures.
//!
//! The harness's op streams (`OpMix::stream`) model a saturating benchmark
//! loop over three kinds. A serving front end takes requests of more kinds:
//! [`ServeOp`] is the superset of [`crate::Op`] that adds `Range` scans and
//! the priority-queue pair `MinEntry` / `PopMin`, and [`ServeMix`] draws
//! deterministic streams of them. When requests *arrive* is the caller's
//! business: the edge serves live connections, and `perfbench` drives its
//! own clients.

use crate::rng::Lehmer64;

/// One serving-request operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeOp {
    /// Point lookup.
    Get(u32),
    /// Insert `(key, value)`.
    Insert(u32, u32),
    /// Delete a key.
    Delete(u32),
    /// Count keys in the inclusive window `[lo, hi]`.
    Range(u32, u32),
    /// Peek the smallest present entry (priority-queue front).
    MinEntry,
    /// Extract-min: remove and return the smallest present entry.
    PopMin,
}

impl ServeOp {
    /// The (low) key the operation addresses — what key-sorted batching
    /// sorts on. Min ops address the head of the key space, so they
    /// report the smallest user key.
    #[inline]
    pub fn key(&self) -> u32 {
        match *self {
            ServeOp::Get(k) | ServeOp::Insert(k, _) | ServeOp::Delete(k) | ServeOp::Range(k, _) => {
                k
            }
            ServeOp::MinEntry | ServeOp::PopMin => 1,
        }
    }

    /// True for operations that never take a chunk lock (the paper's
    /// lock-free Contains fast path, the range scan built on it, and the
    /// min-entry peek). `PopMin` removes, so it is a write.
    #[inline]
    pub fn is_read_only(&self) -> bool {
        matches!(
            self,
            ServeOp::Get(_) | ServeOp::Range(_, _) | ServeOp::MinEntry
        )
    }
}

/// Percent mixture over the request kinds, plus the key span of range
/// scans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeMix {
    /// Percent of `Insert` requests.
    pub insert_pct: u32,
    /// Percent of `Delete` requests.
    pub delete_pct: u32,
    /// Percent of `Get` requests.
    pub get_pct: u32,
    /// Percent of `Range` requests.
    pub range_pct: u32,
    /// Percent of `PopMin` (extract-min) requests.
    pub pop_pct: u32,
    /// Percent of `MinEntry` (peek-min) requests.
    pub min_pct: u32,
    /// Key span of each range scan (`hi = lo + range_span`, clamped).
    pub range_span: u32,
}

impl ServeMix {
    /// The paper's anchor mix, 10% insert / 10% delete / 80% lookup, with
    /// range scans disabled — directly comparable to [`crate::OpMix::C80`].
    pub const C80: ServeMix = ServeMix::new(10, 10, 80, 0, 0);

    /// A range-bearing service mix: 10/10/70 point ops plus 10% scans of a
    /// 64-key window.
    pub const RANGE10: ServeMix = ServeMix::new(10, 10, 70, 10, 64);

    /// The producer/consumer priority-queue mix: producers insert
    /// timestamped work items, consumers extract-min, a few peek the front
    /// — the shape of *Practical Concurrent Priority Queues* workloads.
    /// Slightly producer-heavy so the queue never empties out under load.
    pub const PQ: ServeMix = ServeMix::new_pq(48, 0, 5, 0, 42, 5, 0);

    /// A new mixture over the point/range kinds; percentages must sum
    /// to 100. Min ops are disabled — see [`ServeMix::new_pq`].
    pub const fn new(
        insert_pct: u32,
        delete_pct: u32,
        get_pct: u32,
        range_pct: u32,
        range_span: u32,
    ) -> ServeMix {
        ServeMix::new_pq(insert_pct, delete_pct, get_pct, range_pct, 0, 0, range_span)
    }

    /// A new mixture over all six request kinds; percentages must sum
    /// to 100.
    pub const fn new_pq(
        insert_pct: u32,
        delete_pct: u32,
        get_pct: u32,
        range_pct: u32,
        pop_pct: u32,
        min_pct: u32,
        range_span: u32,
    ) -> ServeMix {
        assert!(
            insert_pct + delete_pct + get_pct + range_pct + pop_pct + min_pct == 100,
            "request mix must sum to 100%"
        );
        ServeMix {
            insert_pct,
            delete_pct,
            get_pct,
            range_pct,
            pop_pct,
            min_pct,
            range_span,
        }
    }

    /// Draw one request with a uniform key in `1..=key_range`.
    #[inline]
    pub fn draw(&self, rng: &mut Lehmer64, key_range: u32) -> ServeOp {
        let k = rng.below(key_range as u64) as u32 + 1;
        self.draw_keyed(rng, k, key_range)
    }

    /// Draw one request for a caller-chosen key `k` (skewed scenarios pick
    /// keys from their own distribution and only roll the op kind here).
    #[inline]
    pub fn draw_keyed(&self, rng: &mut Lehmer64, k: u32, key_range: u32) -> ServeOp {
        let roll = rng.below(100) as u32;
        if roll < self.insert_pct {
            ServeOp::Insert(k, k)
        } else if roll < self.insert_pct + self.delete_pct {
            ServeOp::Delete(k)
        } else if roll < self.insert_pct + self.delete_pct + self.get_pct {
            ServeOp::Get(k)
        } else if roll < self.insert_pct + self.delete_pct + self.get_pct + self.range_pct {
            let hi = k.saturating_add(self.range_span).min(key_range);
            ServeOp::Range(k, hi)
        } else if roll
            < self.insert_pct + self.delete_pct + self.get_pct + self.range_pct + self.pop_pct
        {
            ServeOp::PopMin
        } else {
            ServeOp::MinEntry
        }
    }

    /// Generate a full deterministic request stream (uniform keys).
    pub fn stream(&self, seed: u64, key_range: u32, n_ops: usize) -> Vec<ServeOp> {
        let mut rng = Lehmer64::new(seed);
        (0..n_ops).map(|_| self.draw(&mut rng, key_range)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_mix_respects_percentages() {
        let mut rng = Lehmer64::new(7);
        let mix = ServeMix::RANGE10;
        let n = 100_000;
        let mut counts = [0u32; 6];
        for _ in 0..n {
            match mix.draw(&mut rng, 1_000_000) {
                ServeOp::Insert(..) => counts[0] += 1,
                ServeOp::Delete(_) => counts[1] += 1,
                ServeOp::Get(_) => counts[2] += 1,
                ServeOp::Range(..) => counts[3] += 1,
                ServeOp::PopMin => counts[4] += 1,
                ServeOp::MinEntry => counts[5] += 1,
            }
        }
        let pct = |c: u32| c as f64 / n as f64 * 100.0;
        assert!((pct(counts[0]) - 10.0).abs() < 1.0);
        assert!((pct(counts[1]) - 10.0).abs() < 1.0);
        assert!((pct(counts[2]) - 70.0).abs() < 1.0);
        assert!((pct(counts[3]) - 10.0).abs() < 1.0);
        assert_eq!(counts[4] + counts[5], 0, "min ops disabled in RANGE10");
    }

    #[test]
    fn pq_mix_produces_producer_consumer_streams() {
        let mut rng = Lehmer64::new(13);
        let mix = ServeMix::PQ;
        let n = 100_000;
        let (mut pops, mut mins, mut inserts) = (0u32, 0u32, 0u32);
        for _ in 0..n {
            match mix.draw(&mut rng, 1_000_000) {
                ServeOp::PopMin => pops += 1,
                ServeOp::MinEntry => mins += 1,
                ServeOp::Insert(..) => inserts += 1,
                _ => {}
            }
        }
        let pct = |c: u32| c as f64 / n as f64 * 100.0;
        assert!((pct(inserts) - 48.0).abs() < 1.0);
        assert!((pct(pops) - 42.0).abs() < 1.0);
        assert!((pct(mins) - 5.0).abs() < 1.0);
        assert!(inserts > pops, "producer-heavy: the queue must not drain dry");
    }

    #[test]
    fn c80_is_the_harness_anchor_mix() {
        let mix = ServeMix::C80;
        let ops = mix.stream(42, 1000, 10_000);
        assert!(ops.iter().all(|o| !matches!(o, ServeOp::Range(..))));
        assert!(ops.iter().all(|o| (1..=1000).contains(&o.key())));
    }

    #[test]
    fn range_windows_are_well_formed() {
        let ops = ServeMix::RANGE10.stream(9, 500, 20_000);
        for op in ops {
            if let ServeOp::Range(lo, hi) = op {
                assert!(lo <= hi && hi <= 500);
            }
        }
    }
}
