//! Warp programs: the structures' own recorded access streams, replayed one
//! lockstep step at a time by the scheduler.

use gfsl::Gfsl;
use gfsl_gpu_mem::{MemProbe, WordAddr};
use mc_skiplist::McSkipList;

/// One lockstep step's externally visible effect.
#[derive(Debug, Clone)]
pub enum Step {
    /// A warp-wide memory access (one address per active lane); the
    /// scheduler charges its latency.
    Mem(Vec<WordAddr>),
    /// Pure computation for this many cycles.
    Compute(u64),
    /// The warp retired all its operations.
    Done,
}

/// A warp-sized lockstep program.
pub trait WarpProgram {
    /// Execute the next lockstep step.
    fn step(&mut self) -> Step;
}

/// The probe an op runs under here: every access it reports becomes one
/// recorded access, in order. A team read keeps its addresses together; a
/// single-lane read, write or atomic is an access of one address.
#[derive(Default)]
struct Recorder(Vec<Vec<WordAddr>>);

impl MemProbe for Recorder {
    fn warp_read(&mut self, addrs: &[WordAddr]) {
        self.0.push(addrs.to_vec());
    }
    fn warp_write(&mut self, addrs: &[WordAddr]) {
        self.0.push(addrs.to_vec());
    }
    fn lane_read(&mut self, addr: WordAddr) {
        self.0.push(vec![addr]);
    }
    fn lane_write(&mut self, addr: WordAddr) {
        self.0.push(vec![addr]);
    }
    fn atomic(&mut self, addr: WordAddr) {
        self.0.push(vec![addr]);
    }
}

// --------------------------------------------------------------------------
// GFSL: one team per warp, one Contains at a time.
// --------------------------------------------------------------------------

/// A GFSL team executing a queue of Contains operations. Each op is the
/// structure's own `contains` (Algorithms 4.1/4.2) run under a recording
/// probe; the warp then issues its accesses one step each.
pub struct GfslContainsWarp<'a> {
    list: &'a Gfsl,
    keys: std::vec::IntoIter<u32>,
    /// The current op's accesses not yet issued.
    pending: std::vec::IntoIter<Vec<WordAddr>>,
    /// Contains results (checked by tests against ground truth).
    pub results: Vec<bool>,
}

impl<'a> GfslContainsWarp<'a> {
    /// A warp that will look up `keys` in order.
    pub fn new(list: &'a Gfsl, keys: Vec<u32>) -> Self {
        GfslContainsWarp {
            list,
            keys: keys.into_iter(),
            pending: Vec::new().into_iter(),
            results: Vec::new(),
        }
    }
}

impl WarpProgram for GfslContainsWarp<'_> {
    fn step(&mut self) -> Step {
        if let Some(addrs) = self.pending.next() {
            return Step::Mem(addrs);
        }
        let Some(k) = self.keys.next() else {
            return Step::Done;
        };
        // One handle per op: resident warps never hold reclaim slots.
        let mut h = self.list.handle_with(Recorder::default());
        self.results.push(h.try_contains(k).unwrap());
        self.pending = h.into_parts().0 .0.into_iter();
        // Reading the head array + height counters: a cheap step.
        Step::Compute(4)
    }
}

// --------------------------------------------------------------------------
// M&C: 32 independent lanes per warp, one Contains per lane.
// --------------------------------------------------------------------------

/// A warp of up to 32 independent M&C Contains operations in lockstep: step
/// *i* issues the *i*-th recorded access of every lane that still has one
/// (the SIMT masked-execution model — lanes that finished idle until the
/// warp retires, which is M&C's divergence cost).
pub struct McContainsWarp {
    lanes: Vec<std::vec::IntoIter<Vec<WordAddr>>>,
    /// Per-lane verdicts.
    pub results: Vec<bool>,
}

impl McContainsWarp {
    /// A warp looking up one key per lane (up to 32).
    pub fn new(list: &McSkipList, keys: Vec<u32>) -> Self {
        assert!(keys.len() <= 32);
        let (results, lanes) = keys
            .into_iter()
            .map(|k| {
                let mut h = list.handle_with(Recorder::default());
                let found = h.contains(k);
                (found, h.into_parts().0 .0.into_iter())
            })
            .unzip();
        McContainsWarp { lanes, results }
    }
}

impl WarpProgram for McContainsWarp {
    fn step(&mut self) -> Step {
        let addrs: Vec<WordAddr> = self
            .lanes
            .iter_mut()
            .filter_map(Iterator::next)
            .flatten()
            .collect();
        if addrs.is_empty() {
            Step::Done
        } else {
            Step::Mem(addrs)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfsl::GfslParams;
    use mc_skiplist::McParams;

    fn drive(mut w: impl WarpProgram) -> (u64, u64) {
        let mut steps = 0;
        let mut mem = 0;
        loop {
            match w.step() {
                Step::Done => return (steps, mem),
                Step::Mem(a) => {
                    steps += 1;
                    mem += a.len() as u64;
                }
                Step::Compute(_) => steps += 1,
            }
        }
    }

    #[test]
    fn gfsl_warp_answers_match_structure() {
        let list = Gfsl::new(GfslParams::sized_for(5_000)).unwrap();
        let mut h = list.handle();
        for k in (1..=2_000u32).step_by(2) {
            h.try_insert(k, k).unwrap();
        }
        let keys: Vec<u32> = (1..=100).collect();
        let mut w = GfslContainsWarp::new(&list, keys.clone());
        loop {
            if matches!(w.step(), Step::Done) {
                break;
            }
        }
        assert_eq!(w.results.len(), keys.len());
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(w.results[i], k % 2 == 1, "k={k}");
        }
    }

    #[test]
    fn mc_warp_answers_match_structure() {
        let list = McSkipList::new(McParams::sized_for(10_000)).unwrap();
        let mut h = list.handle();
        for k in (1..=2_000u32).step_by(3) {
            assert!(h.insert(k, k));
        }
        let keys: Vec<u32> = (1..=32).collect();
        let mut w = McContainsWarp::new(&list, keys.clone());
        loop {
            if matches!(w.step(), Step::Done) {
                break;
            }
        }
        assert_eq!(w.results.len(), 32);
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(w.results[i], (k - 1) % 3 == 0, "k={k}");
        }
    }

    #[test]
    fn mc_warp_steps_track_slowest_lane() {
        // A warp whose lanes search very different keys must take at least
        // as many steps as its deepest single-lane traversal (divergence).
        let list = McSkipList::new(McParams::sized_for(20_000)).unwrap();
        let mut h = list.handle();
        for k in 1..=5_000u32 {
            assert!(h.insert(k, k));
        }
        let solo_steps = drive(McContainsWarp::new(&list, vec![4_999])).0;
        let warp_keys: Vec<u32> = (1..=32).map(|i| i * 150).collect();
        let warp_steps = drive(McContainsWarp::new(&list, warp_keys)).0;
        assert!(
            warp_steps >= solo_steps / 2,
            "warp {warp_steps} vs solo {solo_steps}"
        );
    }
}
