//! Lane identities and team widths.

/// Number of threads in a full hardware warp on every Nvidia GPU to date
/// (the paper, §2.1, notes this may change in the future; GFSL only relies on
/// a team being *at most* this wide).
pub const WARP_SIZE: usize = 32;

/// A thread's index within its team (`tId` in the paper), in
/// `0..team_size`.
pub type LaneId = usize;

/// Supported team sizes. The number of entries in a GFSL chunk equals the
/// team size, so these are also the two chunk formats evaluated in the paper
/// (GFSL-16: 128 B chunks, one memory transaction; GFSL-32: 256 B chunks, two
/// transactions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TeamSize {
    /// Half-warp teams: 16 lanes, 128-byte chunks (GFSL-16).
    Sixteen,
    /// Full-warp teams: 32 lanes, 256-byte chunks (GFSL-32).
    ThirtyTwo,
}

impl TeamSize {
    /// Number of lanes in the team (= entries per chunk).
    #[inline]
    pub const fn lanes(self) -> usize {
        match self {
            TeamSize::Sixteen => 16,
            TeamSize::ThirtyTwo => 32,
        }
    }

    /// Number of DATA entries in a chunk of this size (`DSIZE = N - 2`).
    #[inline]
    pub const fn dsize(self) -> usize {
        self.lanes() - 2
    }

    /// Construct from a lane count.
    pub fn from_lanes(n: usize) -> Option<TeamSize> {
        match n {
            16 => Some(TeamSize::Sixteen),
            32 => Some(TeamSize::ThirtyTwo),
            _ => None,
        }
    }
}

impl std::fmt::Display for TeamSize {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.lanes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn team_size_lanes_and_dsize() {
        assert_eq!(TeamSize::Sixteen.lanes(), 16);
        assert_eq!(TeamSize::Sixteen.dsize(), 14);
        assert_eq!(TeamSize::ThirtyTwo.lanes(), 32);
        assert_eq!(TeamSize::ThirtyTwo.dsize(), 30);
    }

    #[test]
    fn team_size_from_lanes_roundtrip() {
        assert_eq!(TeamSize::from_lanes(16), Some(TeamSize::Sixteen));
        assert_eq!(TeamSize::from_lanes(32), Some(TeamSize::ThirtyTwo));
        assert_eq!(TeamSize::from_lanes(8), None);
        assert_eq!(TeamSize::from_lanes(0), None);
        assert_eq!(TeamSize::from_lanes(33), None);
    }

    #[test]
    fn display_prints_lane_count() {
        assert_eq!(TeamSize::Sixteen.to_string(), "16");
        assert_eq!(TeamSize::ThirtyTwo.to_string(), "32");
    }
}
