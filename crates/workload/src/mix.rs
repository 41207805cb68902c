//! Operation mixtures `[i, d, c]` and the operation stream they induce.

use serde::{Deserialize, Serialize};

use crate::rng::Lehmer64;

/// One skiplist operation of the benchmark stream. Inserted values are NULL
/// (0-equivalent) in the paper's kernels; we use the key itself so value
/// integrity is checkable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Insert `(key, value)`.
    Insert(u32, u32),
    /// Delete `key`.
    Delete(u32),
    /// Look up `key`.
    Contains(u32),
}

impl Op {
    /// The operation's key.
    pub fn key(&self) -> u32 {
        match *self {
            Op::Insert(k, _) | Op::Delete(k) | Op::Contains(k) => k,
        }
    }

    /// The operation's kind.
    pub fn kind(&self) -> OpKind {
        match self {
            Op::Insert(..) => OpKind::Insert,
            Op::Delete(..) => OpKind::Delete,
            Op::Contains(..) => OpKind::Contains,
        }
    }
}

/// Operation kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpKind {
    /// An insert.
    Insert,
    /// A delete.
    Delete,
    /// A membership query.
    Contains,
}

/// An `[i, d, c]` mixture: percentage of inserts, deletes, and contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpMix {
    /// Percent inserts.
    pub insert_pct: u32,
    /// Percent deletes.
    pub delete_pct: u32,
    /// Percent contains.
    pub contains_pct: u32,
}

impl OpMix {
    /// `[1, 1, 98]` (paper Fig. 5.3a).
    pub const C98: OpMix = OpMix::new(1, 1, 98);
    /// `[5, 5, 90]` (Fig. 5.3b).
    pub const C90: OpMix = OpMix::new(5, 5, 90);
    /// `[10, 10, 80]` (Fig. 5.3c — also the Table 5.1/5.2 anchor).
    pub const C80: OpMix = OpMix::new(10, 10, 80);
    /// `[20, 20, 60]` (Fig. 5.3d).
    pub const C60: OpMix = OpMix::new(20, 20, 60);
    /// Insert-only (Fig. 5.4b).
    pub const INSERT_ONLY: OpMix = OpMix::new(100, 0, 0);
    /// Delete-only (Fig. 5.4c).
    pub const DELETE_ONLY: OpMix = OpMix::new(0, 100, 0);
    /// Contains-only (Fig. 5.4a).
    pub const CONTAINS_ONLY: OpMix = OpMix::new(0, 0, 100);

    /// The four mixed-operation benchmarks of Fig. 5.2/5.3.
    pub const MIXED: [OpMix; 4] = [OpMix::C98, OpMix::C90, OpMix::C80, OpMix::C60];

    /// Build a mixture; percentages must total 100.
    pub const fn new(insert_pct: u32, delete_pct: u32, contains_pct: u32) -> OpMix {
        assert!(insert_pct + delete_pct + contains_pct == 100);
        OpMix {
            insert_pct,
            delete_pct,
            contains_pct,
        }
    }

    /// Draw one operation with a uniform key in `1..=key_range`.
    #[inline]
    pub fn draw(&self, rng: &mut Lehmer64, key_range: u32) -> Op {
        let k = rng.below(key_range as u64) as u32 + 1;
        let roll = rng.below(100) as u32;
        if roll < self.insert_pct {
            Op::Insert(k, k)
        } else if roll < self.insert_pct + self.delete_pct {
            Op::Delete(k)
        } else {
            Op::Contains(k)
        }
    }

    /// Generate a full operation stream (uniform keys, the paper's
    /// setting).
    pub fn stream(&self, seed: u64, key_range: u32, n_ops: usize) -> Vec<Op> {
        self.stream_dist(seed, key_range, n_ops, crate::dist::KeyDist::Uniform)
    }

    /// Generate a stream with an explicit key distribution (skew
    /// ablations).
    pub fn stream_dist(
        &self,
        seed: u64,
        key_range: u32,
        n_ops: usize,
        dist: crate::dist::KeyDist,
    ) -> Vec<Op> {
        let mut rng = Lehmer64::new(seed);
        (0..n_ops)
            .map(|_| {
                let k = dist.draw(&mut rng, key_range);
                let roll = rng.below(100) as u32;
                if roll < self.insert_pct {
                    Op::Insert(k, k)
                } else if roll < self.insert_pct + self.delete_pct {
                    Op::Delete(k)
                } else {
                    Op::Contains(k)
                }
            })
            .collect()
    }
}

impl std::fmt::Display for OpMix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{},{},{}]",
            self.insert_pct, self.delete_pct, self.contains_pct
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_sum_to_100() {
        for m in [
            OpMix::C98,
            OpMix::C90,
            OpMix::C80,
            OpMix::C60,
            OpMix::INSERT_ONLY,
            OpMix::DELETE_ONLY,
            OpMix::CONTAINS_ONLY,
        ] {
            assert_eq!(m.insert_pct + m.delete_pct + m.contains_pct, 100);
        }
    }

    #[test]
    fn stream_is_deterministic() {
        let a = OpMix::C80.stream(7, 1000, 500);
        let b = OpMix::C80.stream(7, 1000, 500);
        let c = OpMix::C80.stream(8, 1000, 500);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn stream_frequencies_match_mixture() {
        let ops = OpMix::C80.stream(3, 10_000, 100_000);
        let ins = ops.iter().filter(|o| o.kind() == OpKind::Insert).count() as f64;
        let del = ops.iter().filter(|o| o.kind() == OpKind::Delete).count() as f64;
        let con = ops.iter().filter(|o| o.kind() == OpKind::Contains).count() as f64;
        let n = ops.len() as f64;
        assert!((ins / n - 0.10).abs() < 0.01);
        assert!((del / n - 0.10).abs() < 0.01);
        assert!((con / n - 0.80).abs() < 0.01);
    }

    #[test]
    fn keys_stay_in_range_and_avoid_zero() {
        let ops = OpMix::C60.stream(5, 77, 10_000);
        assert!(ops.iter().all(|o| (1..=77).contains(&o.key())));
    }

    #[test]
    fn single_op_streams_are_pure() {
        assert!(OpMix::CONTAINS_ONLY
            .stream(1, 100, 1000)
            .iter()
            .all(|o| o.kind() == OpKind::Contains));
        assert!(OpMix::INSERT_ONLY
            .stream(1, 100, 1000)
            .iter()
            .all(|o| o.kind() == OpKind::Insert));
        assert!(OpMix::DELETE_ONLY
            .stream(1, 100, 1000)
            .iter()
            .all(|o| o.kind() == OpKind::Delete));
    }

    #[test]
    fn display_format_matches_paper_notation() {
        assert_eq!(OpMix::C80.to_string(), "[10,10,80]");
    }

    #[test]
    #[should_panic]
    fn bad_percentages_panic() {
        let _ = OpMix::new(50, 50, 50);
    }
}
