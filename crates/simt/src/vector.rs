//! Ballot kernels: the three hot chunk votes evaluated over a whole
//! register file in one fixed-width, branch-free pass.
//!
//! The paper's premise is that a team inspects a whole chunk in one
//! coalesced transaction and decides the next step with a *single* ballot.
//! The reference emulation ([`crate::Team::ballot`]) invokes a closure per
//! lane — faithful to lockstep semantics, but 16/32 indirect predicate
//! evaluations per traversal step on the host. The kernels here compute the
//! same vote masks directly from the chunk's packed `u64` words: every one
//! of the [`WARP_SIZE`] registers votes in straight-line, branch-free code
//! (no length to loop over, no tail), and the lanes that are not DATA lanes
//! of the team are masked off the result. That is all it is: inlined into
//! the engine's `tid_with_equal_key` and `tid_for_next_step`, the release
//! build compiles each vote to one scalar compare / set / shift / or per
//! lane, with no packed compare and no movemask (a kernel called on its own
//! can come out partly vectorized). A 32-lane vote costs about 6–9 ns,
//! measured standalone with the call included.
//!
//! They are pure register math over an already-read chunk snapshot: they
//! touch no shared memory and emit no probe events, so a replay's trace
//! hash cannot depend on how a vote was computed. [`ScalarBallot`], the
//! per-lane loop over a slice of data words, is kept as the oracle the
//! kernels are differentially tested against — here, in `gfsl-core`'s
//! `kernel_parity` suite and in the harness — and is not used on any
//! production path.
//!
//! Key encoding contract (shared with `gfsl-core`'s chunk layout): each
//! data word packs the key in its **low 32 bits**; key `0` is the `-∞`
//! sentinel and key `u32::MAX` is the `∞` / EMPTY sentinel.

use crate::ballot::Ballot;
use crate::lane::{TeamSize, WARP_SIZE};

/// One team's registers after a chunk read: lane `i`'s word at index `i`.
/// Registers at or above the team's width hold no lane and never vote.
pub type WarpRegs = [u64; WARP_SIZE];

/// Every register's `vote(key)`, DATA lanes of a `size` team only.
#[inline(always)]
fn data_votes(size: TeamSize, regs: &WarpRegs, vote: impl Fn(u32) -> bool) -> Ballot {
    let mut bits = 0u32;
    for (lane, &word) in regs.iter().enumerate() {
        bits |= (vote(word as u32) as u32) << lane;
    }
    Ballot::from_bits(bits & ((1u32 << size.dsize()) - 1))
}

/// DATA lanes whose key is `<= k` (the `getTidForNextStep` /
/// `getTidOfDownStep` data vote).
#[inline]
pub fn keys_le(size: TeamSize, regs: &WarpRegs, k: u32) -> Ballot {
    data_votes(size, regs, |key| key <= k)
}

/// DATA lanes whose key is `== k` (the `isTidWithEqualKey` data vote).
#[inline]
pub fn keys_eq(size: TeamSize, regs: &WarpRegs, k: u32) -> Ballot {
    data_votes(size, regs, |key| key == k)
}

/// DATA lanes holding a live user key — neither the `-∞` key (`0`) nor
/// EMPTY/`∞` (`u32::MAX`) — the min-entry scan vote.
#[inline]
pub fn keys_live(size: TeamSize, regs: &WarpRegs) -> Ballot {
    data_votes(size, regs, |key| key != 0 && key != u32::MAX)
}

/// DATA lanes whose key is live and in `[lo, hi]` (range scans).
#[inline]
pub fn keys_in_range(size: TeamSize, regs: &WarpRegs, lo: u32, hi: u32) -> Ballot {
    data_votes(size, regs, |key| key != 0 && key != u32::MAX && lo <= key && key <= hi)
}

/// Reference per-lane loop over a slice of data words (`words[i]` is lane
/// `i`'s, so bit `i` of a mask is lane `i`'s vote): the differential-test
/// oracle for the kernels above.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScalarBallot;

impl ScalarBallot {
    /// Mask of lanes whose key is `<= k`.
    pub fn keys_le(&self, words: &[u64], k: u32) -> u32 {
        let mut bits = 0u32;
        for (lane, &w) in words.iter().enumerate() {
            if w as u32 <= k {
                bits |= 1 << lane;
            }
        }
        bits
    }

    /// Mask of lanes whose key is `== k`.
    pub fn keys_eq(&self, words: &[u64], k: u32) -> u32 {
        let mut bits = 0u32;
        for (lane, &w) in words.iter().enumerate() {
            if w as u32 == k {
                bits |= 1 << lane;
            }
        }
        bits
    }

    /// Mask of lanes holding a live user key.
    pub fn keys_live(&self, words: &[u64]) -> u32 {
        let mut bits = 0u32;
        for (lane, &w) in words.iter().enumerate() {
            let key = w as u32;
            if key != 0 && key != u32::MAX {
                bits |= 1 << lane;
            }
        }
        bits
    }

    /// Mask of lanes whose key is in `[lo, hi]` **and** live; equals
    /// `keys_le(hi) & !keys_le(lo-1) & keys_live`.
    pub fn keys_in_range(&self, words: &[u64], lo: u32, hi: u32) -> u32 {
        let le_hi = self.keys_le(words, hi);
        let lt_lo = if lo == 0 { 0 } else { self.keys_le(words, lo - 1) };
        le_hi & !lt_lo & self.keys_live(words)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const SIZES: [TeamSize; 2] = [TeamSize::Sixteen, TeamSize::ThirtyTwo];

    fn word(key: u32, val: u32) -> u64 {
        ((val as u64) << 32) | key as u64
    }

    /// A register file whose first lanes are `words`; the rest EMPTY.
    fn regs(words: &[u64]) -> WarpRegs {
        let mut r = [word(u32::MAX, 0); WARP_SIZE];
        r[..words.len()].copy_from_slice(words);
        r
    }

    #[test]
    fn le_handles_sentinels_and_boundaries() {
        let r = regs(&[word(0, 9), word(5, 1), word(10, 2)]);
        for size in SIZES {
            let all = (1u32 << size.dsize()) - 1;
            assert_eq!(keys_le(size, &r, 4).bits(), 0b001, "{size}");
            assert_eq!(keys_le(size, &r, 5).bits(), 0b011, "{size}");
            assert_eq!(keys_le(size, &r, 10).bits(), 0b111, "{size}");
            assert_eq!(keys_le(size, &r, u32::MAX - 1).bits(), 0b111);
            assert_eq!(keys_le(size, &r, u32::MAX).bits(), all, "EMPTY lanes, DATA only");
        }
    }

    #[test]
    fn eq_ignores_value_half() {
        let r = regs(&[word(7, 123), word(7, 456), word(8, 7)]);
        for size in SIZES {
            assert_eq!(keys_eq(size, &r, 7).bits(), 0b011, "{size}");
            assert_eq!(keys_eq(size, &r, 8).bits(), 0b100, "{size}");
            assert_eq!(keys_eq(size, &r, 9).bits(), 0, "{size}");
        }
    }

    #[test]
    fn live_excludes_both_sentinels() {
        let r = regs(&[word(0, 1), word(1, 0), word(u32::MAX, 5), word(42, 0)]);
        for size in SIZES {
            assert_eq!(keys_live(size, &r).bits(), 0b1010, "{size}");
        }
    }

    #[test]
    fn range_mask_composes() {
        let words: Vec<u64> = (0..14u32).map(|i| word(i * 10, i)).collect();
        let r = regs(&words);
        for size in SIZES {
            // keys 0,10,..,130; live keys in [25, 60] are 30,40,50,60.
            assert_eq!(keys_in_range(size, &r, 25, 60).bits(), 0b0111_1000);
            // lo = 0 never panics and -inf stays excluded.
            assert_eq!(keys_in_range(size, &r, 0, 10).bits(), 0b10);
        }
    }

    #[test]
    fn next_and_lock_lanes_never_vote() {
        // Every register matches every vote; only DATA lanes may answer.
        let r = [word(5, 0); WARP_SIZE];
        for size in SIZES {
            let data = (1u32 << size.dsize()) - 1;
            assert_eq!(keys_le(size, &r, 5).bits(), data, "{size}");
            assert_eq!(keys_eq(size, &r, 5).bits(), data, "{size}");
            assert_eq!(keys_live(size, &r).bits(), data, "{size}");
            assert_eq!(keys_in_range(size, &r, 1, 9).bits(), data, "{size}");
        }
    }

    /// Register files of the shapes a traversal meets: arbitrary words,
    /// with keys drawn so that sentinels, duplicates and `k` itself occur.
    fn regs_strategy() -> impl Strategy<Value = Vec<u64>> {
        let key = prop_oneof![
            4 => any::<u32>(),
            2 => 0..=8u32,
            1 => (0..=2u32).prop_map(|d| u32::MAX - d),
        ];
        proptest::collection::vec((key, any::<u32>()).prop_map(|(k, v)| word(k, v)), WARP_SIZE)
    }

    fn k_strategy() -> impl Strategy<Value = u32> {
        prop_oneof![2 => any::<u32>(), 2 => 0..=8u32, 1 => (0..=2u32).prop_map(|d| u32::MAX - d)]
    }

    proptest! {
        #[test]
        fn kernels_match_the_scalar_oracle(
            words in regs_strategy(),
            k in k_strategy(),
            hi in k_strategy(),
        ) {
            let r: WarpRegs = words.as_slice().try_into().unwrap();
            for size in SIZES {
                let data = &r[..size.dsize()];
                prop_assert_eq!(keys_le(size, &r, k).bits(), ScalarBallot.keys_le(data, k));
                prop_assert_eq!(keys_eq(size, &r, k).bits(), ScalarBallot.keys_eq(data, k));
                prop_assert_eq!(keys_live(size, &r).bits(), ScalarBallot.keys_live(data));
                prop_assert_eq!(
                    keys_in_range(size, &r, k, hi).bits(),
                    ScalarBallot.keys_in_range(data, k, hi)
                );
            }
        }
    }
}
