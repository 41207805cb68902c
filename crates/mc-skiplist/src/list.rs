//! The lock-free skiplist algorithm (Herlihy & Shavit ch. 14, as ported to
//! the GPU by Misra & Chaudhuri).

use gfsl_gpu_mem::{MemProbe, NoProbe, PoolExhausted, WordPool};
use gfsl_workload::rng::{tower_height, SplitMix64};

use crate::node::{MarkedPtr, NodeRef, MAX_HEIGHT, NIL};

/// Configuration of an [`McSkipList`].
#[derive(Debug, Clone, Copy)]
pub struct McParams {
    /// Per-level promotion probability for tower heights (`p_key`; the
    /// paper finds 0.5 best for M&C in all mixtures).
    pub p_key: f64,
    /// Tower height cap.
    pub max_height: u32,
    /// Pool capacity in 64-bit words.
    pub pool_words: u32,
    /// Seed for per-handle tower-draw streams.
    pub seed: u64,
}

impl Default for McParams {
    fn default() -> Self {
        McParams {
            p_key: 0.5,
            max_height: MAX_HEIGHT as u32,
            pool_words: 1 << 22,
            seed: 0xC0FF_EE00_D15E_A5E5,
        }
    }
}

impl McParams {
    /// Size the pool for about `expected_keys` live keys. A `p_key = 0.5`
    /// tower averages 2 levels -> 4 words/node; deleted nodes leak (as in
    /// M&C), so callers doing delete-heavy runs should budget inserts, not
    /// live keys.
    pub fn sized_for(expected_inserts: u64) -> McParams {
        let mut p = McParams::default();
        let words = expected_inserts.saturating_mul(5) + (1 << 16);
        p.pool_words = words.min(u32::MAX as u64 - 1) as u32;
        p
    }
}

/// Per-handle statistics (the harness diffs `node_reads` around each
/// operation to obtain the per-op traversal lengths that feed the SIMT
/// divergence model).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct McStats {
    /// Completed operations.
    pub ops: u64,
    /// Node-pointer reads (scattered lane accesses).
    pub node_reads: u64,
    /// CAS attempts that failed (contention + helping).
    pub cas_failures: u64,
    /// Full-restart retries of `find` caused by failed snips.
    pub find_retries: u64,
}

impl McStats {
    /// Merge another handle's counters.
    pub fn merge(&mut self, o: &McStats) {
        self.ops += o.ops;
        self.node_reads += o.node_reads;
        self.cas_failures += o.cas_failures;
        self.find_retries += o.find_retries;
    }
}

/// A Misra & Chaudhuri-style lock-free skiplist over the simulated device
/// memory pool.
///
/// ```
/// use mc_skiplist::{McParams, McSkipList};
///
/// let list = McSkipList::new(McParams::default()).unwrap();
/// let mut h = list.handle();
/// assert!(h.insert(5, 50));
/// assert_eq!(h.get(5), Some(50));
/// assert!(h.remove(5));
/// assert!(!h.contains(5));
/// ```
pub struct McSkipList {
    pool: WordPool,
    params: McParams,
    /// The `-∞` head node, with a full-height tower.
    head: NodeRef,
    handle_seq: std::sync::atomic::AtomicU32,
}

impl McSkipList {
    /// Create an empty list (head sentinel only).
    pub fn new(params: McParams) -> Result<McSkipList, PoolExhausted> {
        assert!(params.max_height as usize <= MAX_HEIGHT);
        assert!((0.0..=1.0).contains(&params.p_key), "p_key must be a probability");
        let pool = WordPool::new(params.pool_words as usize);
        let base = pool.alloc(NodeRef::words_for(params.max_height), 1)?;
        let head = NodeRef { base };
        head.init(&pool, &mut NoProbe, 0, 0, params.max_height);
        Ok(McSkipList {
            pool,
            params,
            head,
            handle_seq: std::sync::atomic::AtomicU32::new(0),
        })
    }

    /// The configuration.
    pub fn params(&self) -> &McParams {
        &self.params
    }

    /// Words allocated so far (leaked nodes included — like the original).
    pub fn words_used(&self) -> u32 {
        self.pool.used()
    }

    /// An uninstrumented operation handle.
    pub fn handle(&self) -> McHandle<'_, NoProbe> {
        self.handle_with(NoProbe)
    }

    /// A handle with a custom memory probe.
    pub fn handle_with<P: MemProbe>(&self, probe: P) -> McHandle<'_, P> {
        let n = self
            .handle_seq
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed) as u64;
        McHandle {
            list: self,
            probe,
            rng: SplitMix64::new(self.params.seed ^ n.wrapping_mul(0x9FB2_1C65_1E98_DF25)),
            stats: McStats::default(),
        }
    }

    /// Ascending keys currently in the set (unmarked level-0 nodes).
    /// Quiescent use only.
    pub fn keys(&self) -> Vec<u32> {
        let mut out = Vec::new();
        let mut probe = NoProbe;
        let mut cur = self.head.next(&self.pool, &mut probe, 0);
        while cur.ptr() != NIL {
            let node = self.node(cur.ptr());
            let (k, _) = node.header(&self.pool, &mut probe);
            let nxt = node.next(&self.pool, &mut probe, 0);
            if !nxt.marked() {
                out.push(k);
            }
            cur = nxt;
        }
        out
    }

    /// Number of live keys. Quiescent use only.
    pub fn len(&self) -> usize {
        self.keys().len()
    }

    /// Is the set empty? Quiescent use only.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    fn node(&self, idx: u32) -> NodeRef {
        NodeRef { base: idx }
    }

    fn head_idx(&self) -> u32 {
        self.head.base
    }
}

impl std::fmt::Debug for McSkipList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("McSkipList")
            .field("p_key", &self.params.p_key)
            .field("words_used", &self.words_used())
            .finish()
    }
}

/// A per-thread session: one GPU thread's worth of operations.
pub struct McHandle<'a, P: MemProbe> {
    list: &'a McSkipList,
    probe: P,
    rng: SplitMix64,
    stats: McStats,
}

impl<'a, P: MemProbe> McHandle<'a, P> {
    /// Statistics accumulated so far.
    pub fn stats(&self) -> McStats {
        self.stats
    }

    /// Reset statistics.
    pub fn reset_stats(&mut self) {
        self.stats = McStats::default();
    }

    /// Consume the handle, returning probe and stats.
    pub fn into_parts(self) -> (P, McStats) {
        (self.probe, self.stats)
    }

    /// Insert with a tower height drawn from this handle's `p_key` stream.
    /// Returns `false` if the key was present.
    ///
    /// # Panics
    /// Panics on pool exhaustion — use
    /// [`McHandle::try_insert_with_height`] to handle exhaustion gracefully
    /// (the paper's M&C simply dies; §5.3: "it runs out of memory for
    /// larger structures").
    pub fn insert(&mut self, key: u32, value: u32) -> bool {
        let h = tower_height(&mut self.rng, self.list.params.p_key, self.list.params.max_height);
        self.try_insert_with_height(key, value, h).expect("M&C pool exhausted")
    }

    /// Insert with an explicit pre-drawn tower height (the paper's kernels
    /// receive the level with each insert in the input array, §5.1).
    pub fn try_insert_with_height(
        &mut self,
        key: u32,
        value: u32,
        height: u32,
    ) -> Result<bool, PoolExhausted> {
        assert!(key != 0 && key != u32::MAX, "keys 0 and u32::MAX are reserved");
        let height = height.clamp(1, self.list.params.max_height);
        self.stats.ops += 1;
        let pool = &self.list.pool;
        loop {
            let (preds, succs, found) = self.find(key);
            if found {
                return Ok(false);
            }
            let base = pool.alloc(NodeRef::words_for(height), 1)?;
            let node = NodeRef { base };
            node.init(pool, &mut self.probe, key, value, height);
            for (l, &succ) in succs.iter().enumerate().take(height as usize) {
                let a = node.next_addr(l);
                self.probe.lane_write(a);
                pool.write(a, MarkedPtr::new(succ, false).0);
            }
            // Publish at level 0.
            let pred = self.list.node(preds[0]);
            if !pred.cas_next(
                pool,
                &mut self.probe,
                0,
                MarkedPtr::new(succs[0], false),
                MarkedPtr::new(base, false),
            ) {
                // Lost the race; leak the node (as the original does) and
                // retry from scratch.
                self.stats.cas_failures += 1;
                continue;
            }
            // Link the upper levels.
            let mut preds = preds;
            let mut succs = succs;
            for l in 1..height as usize {
                loop {
                    let cur = node.next(pool, &mut self.probe, l);
                    if cur.marked() {
                        return Ok(true); // deleted while linking: done
                    }
                    if cur.ptr() != succs[l]
                        && !node.cas_next(
                            pool,
                            &mut self.probe,
                            l,
                            cur,
                            MarkedPtr::new(succs[l], false),
                        )
                    {
                        self.stats.cas_failures += 1;
                        // Re-read and retry the level.
                        continue;
                    }
                    let pred = self.list.node(preds[l]);
                    if pred.cas_next(
                        pool,
                        &mut self.probe,
                        l,
                        MarkedPtr::new(succs[l], false),
                        MarkedPtr::new(base, false),
                    ) {
                        break;
                    }
                    self.stats.cas_failures += 1;
                    let (p2, s2, _) = self.find(key);
                    preds = p2;
                    succs = s2;
                    // If the node vanished from level 0 (concurrent delete),
                    // stop linking.
                    if s2[0] != base {
                        return Ok(true);
                    }
                }
            }
            return Ok(true);
        }
    }

    /// Remove `key`. Returns `true` if this call logically deleted it.
    pub fn remove(&mut self, key: u32) -> bool {
        self.stats.ops += 1;
        let pool = &self.list.pool;
        let (_, succs, found) = self.find(key);
        if !found {
            return false;
        }
        let node = self.list.node(succs[0]);
        let (_, height) = node.header(pool, &mut self.probe);
        self.stats.node_reads += 1;
        // Mark the upper levels top-down.
        for l in (1..height as usize).rev() {
            let mut cur = node.next(pool, &mut self.probe, l);
            while !cur.marked() {
                if !node.cas_next(
                    pool,
                    &mut self.probe,
                    l,
                    cur,
                    MarkedPtr::new(cur.ptr(), true),
                ) {
                    self.stats.cas_failures += 1;
                }
                cur = node.next(pool, &mut self.probe, l);
            }
        }
        // Level 0 decides the winner.
        loop {
            let cur = node.next(pool, &mut self.probe, 0);
            if cur.marked() {
                return false; // another thread won
            }
            if node.cas_next(pool, &mut self.probe, 0, cur, MarkedPtr::new(cur.ptr(), true)) {
                // Physically unlink (best effort) via a find pass.
                let _ = self.find(key);
                return true;
            }
            self.stats.cas_failures += 1;
        }
    }

    /// Wait-free-ish membership query (no helping, no CAS).
    pub fn contains(&mut self, key: u32) -> bool {
        self.get(key).is_some()
    }

    /// Look up `key`'s value.
    pub fn get(&mut self, key: u32) -> Option<u32> {
        self.stats.ops += 1;
        let pool = &self.list.pool;
        let mut pred = self.list.head;
        let mut found: Option<NodeRef> = None;
        for l in (0..self.list.params.max_height as usize).rev() {
            let mut curp = pred.next(pool, &mut self.probe, l);
            self.stats.node_reads += 1;
            loop {
                // Skip marked nodes without helping.
                let cur = curp.ptr();
                if cur == NIL {
                    break;
                }
                let node = self.list.node(cur);
                let (k, _) = node.header(pool, &mut self.probe);
                let nxt = node.next(pool, &mut self.probe, l);
                self.stats.node_reads += 2;
                if nxt.marked() {
                    curp = nxt;
                    continue;
                }
                if k < key {
                    pred = node;
                    curp = nxt;
                } else {
                    if k == key {
                        found = Some(node);
                    }
                    break;
                }
            }
            if found.is_some() {
                break;
            }
        }
        let node = found?;
        // Live only if its level-0 pointer is unmarked.
        let nxt = node.next(pool, &mut self.probe, 0);
        self.stats.node_reads += 1;
        if nxt.marked() {
            None
        } else {
            Some(node.value(pool, &mut self.probe))
        }
    }

    /// Harris-style find with snipping of marked nodes. Returns per-level
    /// predecessors/successors (node indexes; `preds` defaults to head,
    /// `succs` to NIL) and whether an unmarked level-0 match exists.
    fn find(&mut self, key: u32) -> ([u32; MAX_HEIGHT], [u32; MAX_HEIGHT], bool) {
        let pool = &self.list.pool;
        'retry: loop {
            let mut preds = [self.list.head_idx(); MAX_HEIGHT];
            let mut succs = [NIL; MAX_HEIGHT];
            let mut pred = self.list.head;
            for l in (0..self.list.params.max_height as usize).rev() {
                let mut curp = pred.next(pool, &mut self.probe, l);
                self.stats.node_reads += 1;
                loop {
                    let cur_idx = curp.ptr();
                    if cur_idx == NIL {
                        break;
                    }
                    let node = self.list.node(cur_idx);
                    let nxt = node.next(pool, &mut self.probe, l);
                    self.stats.node_reads += 1;
                    if nxt.marked() {
                        // Snip the marked node out of this level.
                        if !pred.cas_next(
                            pool,
                            &mut self.probe,
                            l,
                            MarkedPtr::new(cur_idx, false),
                            MarkedPtr::new(nxt.ptr(), false),
                        ) {
                            self.stats.cas_failures += 1;
                            self.stats.find_retries += 1;
                            continue 'retry;
                        }
                        curp = MarkedPtr::new(nxt.ptr(), false);
                        continue;
                    }
                    let (k, _) = node.header(pool, &mut self.probe);
                    self.stats.node_reads += 1;
                    if k < key {
                        pred = node;
                        curp = nxt;
                    } else {
                        break;
                    }
                }
                preds[l] = pred.base;
                succs[l] = curp.ptr();
            }
            let found = if succs[0] == NIL {
                false
            } else {
                let (k, _) = self.list.node(succs[0]).header(pool, &mut self.probe);
                self.stats.node_reads += 1;
                k == key
            };
            return (preds, succs, found);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove_roundtrip() {
        let list = McSkipList::new(McParams::default()).unwrap();
        let mut h = list.handle();
        assert!(h.insert(10, 100));
        assert!(!h.insert(10, 200), "duplicate rejected");
        assert_eq!(h.get(10), Some(100));
        assert!(h.remove(10));
        assert!(!h.remove(10));
        assert!(!h.contains(10));
        assert!(h.insert(10, 300), "reinsert after delete");
        assert_eq!(h.get(10), Some(300));
    }

    #[test]
    fn keys_come_out_sorted() {
        let list = McSkipList::new(McParams::default()).unwrap();
        let mut h = list.handle();
        for k in [50u32, 10, 40, 20, 30] {
            assert!(h.insert(k, k));
        }
        assert_eq!(list.keys(), vec![10, 20, 30, 40, 50]);
        assert!(h.remove(30));
        assert_eq!(list.keys(), vec![10, 20, 40, 50]);
        assert_eq!(list.len(), 4);
    }

    #[test]
    fn random_churn_matches_reference() {
        let list = McSkipList::new(McParams::default()).unwrap();
        let mut h = list.handle();
        let mut reference = std::collections::BTreeSet::new();
        let mut x = 0x1357_9BDFu64;
        for _ in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = (x % 800 + 1) as u32;
            match (x >> 33) % 3 {
                0 => assert_eq!(h.insert(k, k), reference.insert(k), "insert {k}"),
                1 => assert_eq!(h.remove(k), reference.remove(&k), "remove {k}"),
                _ => assert_eq!(h.contains(k), reference.contains(&k), "contains {k}"),
            }
        }
        let keys: Vec<u32> = reference.into_iter().collect();
        assert_eq!(list.keys(), keys);
    }

    #[test]
    fn towers_respect_height_and_structure_survives() {
        let list = McSkipList::new(McParams {
            p_key: 0.9,
            max_height: 8,
            ..Default::default()
        })
        .unwrap();
        let mut h = list.handle();
        for k in 1..=2000u32 {
            assert!(h.insert(k, k));
        }
        for k in 1..=2000u32 {
            assert_eq!(h.get(k), Some(k), "k={k}");
        }
        assert_eq!(list.len(), 2000);
    }

    #[test]
    fn explicit_height_insert() {
        let list = McSkipList::new(McParams::default()).unwrap();
        let mut h = list.handle();
        assert_eq!(h.try_insert_with_height(5, 55, 32), Ok(true));
        assert_eq!(h.try_insert_with_height(5, 55, 1), Ok(false));
        assert_eq!(h.get(5), Some(55));
    }

    #[test]
    fn pool_exhaustion_is_an_error() {
        let list = McSkipList::new(McParams {
            pool_words: 64,
            ..Default::default()
        })
        .unwrap();
        let mut h = list.handle();
        let mut hit_exhaustion = false;
        for k in 1..=100u32 {
            match h.try_insert_with_height(k, k, 1) {
                Ok(_) => {}
                Err(_) => {
                    hit_exhaustion = true;
                    break;
                }
            }
        }
        assert!(hit_exhaustion);
    }

    #[test]
    fn concurrent_disjoint_classes() {
        let list = McSkipList::new(McParams::sized_for(200_000)).unwrap();
        let finals: Vec<std::collections::BTreeSet<u32>> = std::thread::scope(|s| {
            (0..4u32)
                .map(|t| {
                    let list = &list;
                    s.spawn(move || {
                        let mut h = list.handle();
                        let mut reference = std::collections::BTreeSet::new();
                        let mut x = 0xFEED_0000u64 + t as u64;
                        for _ in 0..8000 {
                            x ^= x << 13;
                            x ^= x >> 7;
                            x ^= x << 17;
                            let k = (x % 1500) as u32 * 4 + t + 1;
                            if (x >> 40).is_multiple_of(2) {
                                assert_eq!(h.insert(k, k), reference.insert(k));
                            } else {
                                assert_eq!(h.remove(k), reference.remove(&k));
                            }
                        }
                        reference
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|j| j.join().unwrap())
                .collect()
        });
        let expect: Vec<u32> = finals
            .into_iter()
            .flatten()
            .collect::<std::collections::BTreeSet<u32>>()
            .into_iter()
            .collect();
        assert_eq!(list.keys(), expect);
    }

    #[test]
    fn contention_on_same_keys_stays_consistent() {
        let list = McSkipList::new(McParams::sized_for(500_000)).unwrap();
        std::thread::scope(|s| {
            for t in 0..6u64 {
                let list = &list;
                s.spawn(move || {
                    let mut h = list.handle();
                    let mut x = 0xABC0 + t;
                    for _ in 0..6000 {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let k = (x % 200 + 1) as u32;
                        match (x >> 45) % 3 {
                            0 => {
                                let _ = h.insert(k, k);
                            }
                            1 => {
                                let _ = h.remove(k);
                            }
                            _ => {
                                let _ = h.contains(k);
                            }
                        }
                    }
                });
            }
        });
        // Quiescent structural sanity: keys sorted and unique, all in range.
        let keys = list.keys();
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        assert!(keys.iter().all(|&k| (1..=200).contains(&k)));
    }
}
