//! The team: a lockstep group of lanes executing one GFSL operation.

use crate::ballot::Ballot;
use crate::lane::{LaneId, TeamSize};

/// A team of `N` lanes that cooperate to execute one skiplist operation.
///
/// The team is a pure description of the lockstep geometry (how many lanes,
/// which lane is the NEXT thread, which is the LOCK thread) plus the warp
/// intrinsics. It holds no memory of its own; the registers of a chunk read
/// live in a [`crate::WarpRegs`] owned by the operation code (reading lane
/// `i`'s entry of it is the `__shfl` broadcast), mirroring how CUDA kernel
/// locals live in the register file.
#[derive(Debug, Clone, Copy)]
pub struct Team {
    size: TeamSize,
}

impl Team {
    /// Create a team of the given size.
    #[inline]
    pub fn new(size: TeamSize) -> Team {
        Team { size }
    }

    /// Team size descriptor.
    #[inline]
    pub fn size(&self) -> TeamSize {
        self.size
    }

    /// Number of lanes.
    #[inline]
    pub fn lanes(&self) -> usize {
        self.size.lanes()
    }

    /// Number of DATA lanes/entries (`DSIZE = N - 2`).
    #[inline]
    pub fn dsize(&self) -> usize {
        self.size.dsize()
    }

    /// Lane index of the NEXT thread (reads the `max`/`next` entry).
    #[inline]
    pub fn next_lane(&self) -> LaneId {
        self.size.lanes() - 2
    }

    /// Lane index of the LOCK thread (reads the lock entry).
    #[inline]
    pub fn lock_lane(&self) -> LaneId {
        self.size.lanes() - 1
    }

    /// Is `lane` a DATA lane?
    #[inline]
    pub fn is_data_lane(&self, lane: LaneId) -> bool {
        lane < self.dsize()
    }

    /// `__ballot`: every lane evaluates `vote(lane)` in lockstep and the team
    /// receives the combined mask.
    ///
    /// The closure is invoked exactly once per lane, in lane order, matching
    /// the deterministic lockstep evaluation on the GPU. (On real hardware
    /// lanes evaluate simultaneously; because GFSL's vote predicates are pure
    /// functions of already-read registers, order is unobservable.)
    #[inline]
    pub fn ballot(&self, mut vote: impl FnMut(LaneId) -> bool) -> Ballot {
        let mut bits = 0u32;
        for lane in 0..self.lanes() {
            if vote(lane) {
                bits |= 1 << lane;
            }
        }
        Ballot::from_bits(bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_roles_32() {
        let t = Team::new(TeamSize::ThirtyTwo);
        assert_eq!(t.lanes(), 32);
        assert_eq!(t.dsize(), 30);
        assert_eq!(t.next_lane(), 30);
        assert_eq!(t.lock_lane(), 31);
        assert!(t.is_data_lane(0));
        assert!(t.is_data_lane(29));
        assert!(!t.is_data_lane(30));
        assert!(!t.is_data_lane(31));
    }

    #[test]
    fn lane_roles_16() {
        let t = Team::new(TeamSize::Sixteen);
        assert_eq!(t.lanes(), 16);
        assert_eq!(t.dsize(), 14);
        assert_eq!(t.next_lane(), 14);
        assert_eq!(t.lock_lane(), 15);
    }

    #[test]
    fn ballot_collects_votes_in_lane_order() {
        let t = Team::new(TeamSize::Sixteen);
        let b = t.ballot(|lane| lane % 3 == 0);
        for lane in 0..16 {
            assert_eq!(b.is_set(lane), lane % 3 == 0, "lane {lane}");
        }
        // Lanes 0,3,6,9,12,15 vote true; highest is 15.
        assert_eq!(b.highest(), Some(15));
    }

    #[test]
    fn ballot_does_not_set_bits_beyond_team() {
        let t = Team::new(TeamSize::Sixteen);
        let b = t.ballot(|_| true);
        assert_eq!(b.bits(), 0xFFFF);
    }
}
