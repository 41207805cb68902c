//! The sequential oracle. One connection preserves per-key order and engine
//! threads own disjoint key classes, so every reply is a pure function of the
//! seeded stream: replaying the stream through a sequential map, outside the
//! timed section, says what each reply and the final contents must be.
//!
//! The map is a dense array indexed by key (every workload's key space is
//! small and bounded), which replays the 12M-op streams in tens of
//! milliseconds and iterates in key order like the structure's `pairs()`.

use gfsl_edge::Resp;
use gfsl_serve::Reply;
use gfsl_workload::ServeOp;

/// Reply code of a `Get` that found nothing.
pub const ABSENT: u32 = u32::MAX;
/// Reply code of an operation the program answered with an error, or with a
/// reply of another kind than the request's. Never equals an oracle code.
pub const FAILED: u32 = u32::MAX - 1;

/// A reply as one word: a `Get` is its value (or [`ABSENT`]), an insert or
/// delete is 1 when it took effect and 0 when it did not.
pub fn reply_code(reply: &Reply) -> u32 {
    match *reply {
        Reply::Got(v) => v.unwrap_or(ABSENT),
        Reply::Inserted(b) | Reply::Deleted(b) => b as u32,
        _ => FAILED,
    }
}

/// [`reply_code`] for a wire response.
pub fn resp_code(resp: &Resp) -> u32 {
    match *resp {
        Resp::Got(v) => v.unwrap_or(ABSENT),
        Resp::Inserted(b) | Resp::Deleted(b) => b as u32,
        _ => FAILED,
    }
}

pub struct Oracle {
    vals: Vec<u32>,
}

impl Oracle {
    pub fn new(max_key: u32, prefill: impl Iterator<Item = (u32, u32)>) -> Oracle {
        let mut vals = vec![ABSENT; max_key as usize + 1];
        for (k, v) in prefill {
            vals[k as usize] = v;
        }
        Oracle { vals }
    }

    /// Apply one op and return the code its reply must carry.
    pub fn apply(&mut self, op: ServeOp) -> u32 {
        match op {
            ServeOp::Get(k) => self.vals[k as usize],
            ServeOp::Insert(k, v) => {
                let slot = &mut self.vals[k as usize];
                let absent = *slot == ABSENT;
                if absent {
                    *slot = v;
                }
                absent as u32
            }
            ServeOp::Delete(k) => {
                let slot = &mut self.vals[k as usize];
                let present = *slot != ABSENT;
                *slot = ABSENT;
                present as u32
            }
            other => panic!("the benchmark generates no {other:?}"),
        }
    }

    /// Apply a logged write (WAL replay): unconditional put or delete.
    pub fn put(&mut self, key: u32, value: Option<u32>) {
        self.vals[key as usize] = value.unwrap_or(ABSENT);
    }

    pub fn pairs(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.vals
            .iter()
            .enumerate()
            .filter(|(_, &v)| v != ABSENT)
            .map(|(k, &v)| (k as u32, v))
    }

    /// Replay `ops` in order, skipping those the program never executed
    /// (`executed(i)` false: shed or dropped before it reached the engine),
    /// and count the replies in `got` that differ from what they must be.
    pub fn replay(
        &mut self,
        ops: &[ServeOp],
        got: &[u32],
        executed: impl Fn(usize) -> bool,
    ) -> u64 {
        let mut mismatches = 0;
        for (i, &op) in ops.iter().enumerate() {
            if executed(i) {
                mismatches += (self.apply(op) != got[i]) as u64;
            }
        }
        mismatches
    }

    /// Number of positions at which the structure's final contents differ
    /// from the oracle's (a length difference counts once per missing pair).
    pub fn diff_pairs(&self, live: &[(u32, u32)]) -> u64 {
        let mut expect = self.pairs();
        let mut bad = 0u64;
        for &pair in live {
            bad += (expect.next() != Some(pair)) as u64;
        }
        bad + expect.count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replies_follow_set_semantics() {
        let mut o = Oracle::new(10, [(2, 20)].into_iter());
        assert_eq!(o.apply(ServeOp::Get(2)), 20);
        assert_eq!(o.apply(ServeOp::Get(3)), ABSENT);
        assert_eq!(o.apply(ServeOp::Insert(2, 99)), 0, "present: not replaced");
        assert_eq!(o.apply(ServeOp::Get(2)), 20);
        assert_eq!(o.apply(ServeOp::Insert(3, 30)), 1);
        assert_eq!(o.apply(ServeOp::Delete(2)), 1);
        assert_eq!(o.apply(ServeOp::Delete(2)), 0);
        assert_eq!(o.pairs().collect::<Vec<_>>(), vec![(3, 30)]);
    }

    #[test]
    fn replay_skips_unexecuted_ops_and_counts_wrong_replies() {
        let ops = [
            ServeOp::Insert(1, 0),
            ServeOp::Insert(1, 1),
            ServeOp::Get(1),
        ];
        // Op 0 was shed, so op 1 is the insert that takes effect.
        let mut o = Oracle::new(4, std::iter::empty());
        assert_eq!(o.replay(&ops, &[FAILED, 1, 1], |i| i != 0), 0);
        let mut o = Oracle::new(4, std::iter::empty());
        assert_eq!(
            o.replay(&ops, &[1, 1, 0], |_| true),
            1,
            "second insert must report 0"
        );
        assert_eq!(o.diff_pairs(&[(1, 0)]), 0);
        assert_eq!(o.diff_pairs(&[]), 1);
        assert_eq!(o.diff_pairs(&[(1, 5), (2, 2)]), 2);
    }
}
