//! Warp programs: lockstep state machines executed by the scheduler.

use gfsl::chunk::ChunkView;
use gfsl::search::{tid_for_next_step, tid_with_equal_key, LateralStep, NextStep};
use gfsl::Gfsl;
use gfsl_gpu_mem::{NoProbe, WordAddr};
use mc_skiplist::node::{NodeRef, NIL as MC_NIL};
use mc_skiplist::McSkipList;

/// One lockstep step's externally visible effect.
#[derive(Debug, Clone)]
pub enum Step {
    /// A warp-wide memory access (one address per active lane). The data is
    /// read immediately (the structure is static during read-only
    /// simulation); the scheduler charges the latency.
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

// --------------------------------------------------------------------------
// GFSL: one team per warp, one Contains at a time.
// --------------------------------------------------------------------------

enum GfslPhase {
    /// About to read the chunk at index `.0` while at height `.1`.
    Read(u32, usize),
    /// Between ops.
    NextOp,
    Finished,
}

/// A GFSL team executing a queue of Contains operations. Faithful to
/// Algorithm 4.1/4.2: down/lateral/backtrack steps decided by the same
/// ballot code the real structure uses (literally the same functions).
pub struct GfslContainsWarp<'a> {
    list: &'a Gfsl,
    keys: std::vec::IntoIter<u32>,
    key: u32,
    phase: GfslPhase,
    prev: Option<ChunkView>,
    /// Contains results (checked by tests against ground truth).
    pub results: Vec<bool>,
}

impl<'a> GfslContainsWarp<'a> {
    /// A warp that will look up `keys` in order.
    pub fn new(list: &'a Gfsl, keys: Vec<u32>) -> Self {
        GfslContainsWarp {
            list,
            keys: keys.into_iter(),
            key: 0,
            phase: GfslPhase::NextOp,
            prev: None,
            results: Vec::new(),
        }
    }

    fn read_view(&self, chunk: u32) -> (ChunkView, Vec<WordAddr>) {
        let team = self.list.team();
        let cref = self.list.chunk_ref(chunk);
        let addrs: Vec<WordAddr> = (0..team.lanes()).map(|l| cref.entry_addr(l)).collect();
        let view = ChunkView::read(team, self.list.raw_pool(), &mut NoProbe, cref);
        (view, addrs)
    }

    fn start_op(&mut self) -> Step {
        match self.keys.next() {
            None => {
                self.phase = GfslPhase::Finished;
                Step::Done
            }
            Some(k) => {
                self.key = k;
                self.prev = None;
                let h = self.list.height();
                self.phase = GfslPhase::Read(self.list.head_chunk(h), h);
                // Reading the head array + height counters: a cheap step.
                Step::Compute(4)
            }
        }
    }
}

impl WarpProgram for GfslContainsWarp<'_> {
    fn step(&mut self) -> Step {
        let team = *self.list.team();
        match self.phase {
            GfslPhase::Finished => Step::Done,
            GfslPhase::NextOp => self.start_op(),
            GfslPhase::Read(chunk, height) => {
                let (view, addrs) = self.read_view(chunk);
                if view.is_zombie(&team) {
                    self.phase = GfslPhase::Read(view.next(&team), height);
                    return Step::Mem(addrs);
                }
                if height > 0 {
                    match tid_for_next_step(&team, self.key, &view) {
                        NextStep::Lateral => {
                            self.prev = Some(view);
                            self.phase = GfslPhase::Read(view.next(&team), height);
                        }
                        NextStep::Down(lane) => {
                            self.prev = None;
                            self.phase =
                                GfslPhase::Read(view.entry(lane).val(), height - 1);
                        }
                        NextStep::Backtrack => match self.prev.take() {
                            None => {
                                // Rare restart (only under concurrent
                                // deletes; impossible in read-only sim, kept
                                // for completeness).
                                let h = self.list.height();
                                self.phase =
                                    GfslPhase::Read(self.list.head_chunk(h), h);
                            }
                            Some(pview) => {
                                let lane = team
                                    .ballot(|l| {
                                        team.is_data_lane(l)
                                            && pview.entry(l).key() <= self.key
                                    })
                                    .highest()
                                    .expect("backtrack with candidate");
                                self.phase = GfslPhase::Read(
                                    pview.entry(lane).val(),
                                    height - 1,
                                );
                            }
                        },
                    }
                } else {
                    match tid_with_equal_key(&team, self.key, &view) {
                        LateralStep::Continue => {
                            self.phase = GfslPhase::Read(view.next(&team), 0);
                        }
                        LateralStep::Found(_) => {
                            self.results.push(true);
                            self.phase = GfslPhase::NextOp;
                        }
                        LateralStep::NotFound => {
                            self.results.push(false);
                            self.phase = GfslPhase::NextOp;
                        }
                    }
                }
                Step::Mem(addrs)
            }
        }
    }
}

// --------------------------------------------------------------------------
// M&C: 32 independent lanes per warp, one Contains per lane.
// --------------------------------------------------------------------------

#[derive(Clone, Copy)]
enum McLane {
    /// About to read `pred`'s level-`level` next pointer.
    ReadNext { pred: u32, level: usize },
    /// About to read node `node`'s header (key); `pred`/`level` for the
    /// ensuing decision.
    ReadKey { pred: u32, node: u32, level: usize },
    /// Lane finished with the given verdict.
    Done(bool),
}

/// A warp of 32 independent M&C Contains operations in lockstep: every step
/// executes the current instruction of all still-active lanes (the SIMT
/// masked-execution model — lanes that finished idle until the warp
/// retires, which is M&C's divergence cost).
pub struct McContainsWarp<'a> {
    list: &'a McSkipList,
    keys: Vec<u32>,
    lanes: Vec<McLane>,
    /// Per-lane verdicts once the warp retires.
    pub results: Vec<bool>,
}

impl<'a> McContainsWarp<'a> {
    /// A warp looking up one key per lane (up to 32).
    pub fn new(list: &'a McSkipList, keys: Vec<u32>) -> Self {
        assert!(keys.len() <= 32);
        let top = list.params().max_height as usize - 1;
        let head = list.head_node().base;
        let lanes = keys
            .iter()
            .map(|_| McLane::ReadNext {
                pred: head,
                level: top,
            })
            .collect();
        McContainsWarp {
            list,
            keys,
            lanes,
            results: Vec::new(),
        }
    }
}

impl WarpProgram for McContainsWarp<'_> {
    fn step(&mut self) -> Step {
        let pool = self.list.raw_pool();
        let mut addrs = Vec::new();
        let mut active = false;
        for (i, lane) in self.lanes.iter_mut().enumerate() {
            let key = self.keys[i];
            match *lane {
                McLane::Done(_) => {}
                McLane::ReadNext { pred, level } => {
                    active = true;
                    let node = NodeRef { base: pred };
                    addrs.push(node.next_addr(level));
                    let succ = node.next(pool, &mut NoProbe, level);
                    let s = succ.ptr();
                    if s == MC_NIL {
                        if level == 0 {
                            *lane = McLane::Done(false);
                        } else {
                            *lane = McLane::ReadNext {
                                pred,
                                level: level - 1,
                            };
                        }
                    } else {
                        *lane = McLane::ReadKey {
                            pred,
                            node: s,
                            level,
                        };
                    }
                }
                McLane::ReadKey { pred, node, level } => {
                    active = true;
                    let n = NodeRef { base: node };
                    addrs.push(n.base); // header word
                    let (k, _) = n.header(pool, &mut NoProbe);
                    if k < key {
                        *lane = McLane::ReadNext { pred: node, level };
                    } else if k == key {
                        *lane = McLane::Done(true);
                    } else if level == 0 {
                        *lane = McLane::Done(false);
                    } else {
                        *lane = McLane::ReadNext {
                            pred,
                            level: level - 1,
                        };
                    }
                }
            }
        }
        if !active {
            self.results = self
                .lanes
                .iter()
                .map(|l| matches!(l, McLane::Done(true)))
                .collect();
            return Step::Done;
        }
        Step::Mem(addrs)
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
            h.insert(k, k).unwrap();
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

    #[test]
    fn gfsl_team_reads_whole_chunks() {
        let list = Gfsl::new(GfslParams::sized_for(2_000)).unwrap();
        let mut h = list.handle();
        for k in 1..=500u32 {
            h.insert(k, k).unwrap();
        }
        let (_, words) = {
            let w = GfslContainsWarp::new(&list, vec![250]);
            drive(w)
        };
        assert_eq!(words % 32, 0, "every access covers all 32 lanes");
    }
}
