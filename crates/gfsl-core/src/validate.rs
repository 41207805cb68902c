//! Whole-structure invariant validation (test/debug support).
//!
//! These checks encode the correctness argument of paper §4.3 and are run by
//! the test suites at quiescence (no concurrent operations). They are *not*
//! part of the concurrent algorithm.

use std::collections::BTreeSet;

use gfsl_gpu_mem::NoProbe;
use gfsl_simt::Team;

use crate::chunk::{ChunkView, KEY_INF, KEY_NEG_INF, LOCK_UNLOCKED, LOCK_ZOMBIE, NIL};
use crate::skiplist::Gfsl;

/// A violated invariant, with enough context to debug it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which invariant failed.
    pub rule: &'static str,
    /// Level at which it failed.
    pub level: usize,
    /// Offending chunk index, if applicable.
    pub chunk: Option<u32>,
    /// Human-readable detail.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[level {}{}] {}: {}",
            self.level,
            self.chunk.map(|c| format!(", chunk {c}")).unwrap_or_default(),
            self.rule,
            self.detail
        )
    }
}

/// The *chunk-local* structural invariants of a single non-zombie chunk
/// view: data lanes sorted / unique / left-packed, and the NEXT lane's max
/// consistent with the data. Shared by [`Gfsl::validate`] (quiescent, full
/// walk), the online repair decision table, and the background scrubber —
/// these are exactly the rules a chunk can be checked against in isolation,
/// without trusting any other chunk.
pub(crate) fn chunk_rules(team: &Team, v: &ChunkView, level: usize, chunk: u32) -> Vec<Violation> {
    let mut violations = Vec::new();
    let keys: Vec<u32> = v.live_entries(team).map(|(_, e)| e.key()).collect();
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    sorted.dedup();
    if keys != sorted {
        violations.push(Violation {
            rule: "chunk-sorted-unique",
            level,
            chunk: Some(chunk),
            detail: format!("data array {keys:?}"),
        });
    }
    let packed = (0..team.dsize())
        .map(|i| v.entry(i).is_empty())
        .collect::<Vec<_>>();
    if let Some(first_empty) = packed.iter().position(|&e| e) {
        if packed[first_empty..].iter().any(|&e| !e) {
            violations.push(Violation {
                rule: "empties-at-end",
                level,
                chunk: Some(chunk),
                detail: "live entry after EMPTY entry".into(),
            });
        }
    }
    let max = v.max(team);
    let next = v.next(team);
    let data_max = keys.iter().copied().filter(|&k| k != KEY_NEG_INF).max();
    if next == NIL {
        if max != KEY_INF {
            violations.push(Violation {
                rule: "last-chunk-max-inf",
                level,
                chunk: Some(chunk),
                detail: format!("max = {max}"),
            });
        }
    } else if let Some(dm) = data_max {
        if max != dm && (keys != vec![KEY_NEG_INF]) {
            violations.push(Violation {
                rule: "max-is-largest-key",
                level,
                chunk: Some(chunk),
                detail: format!("max = {max}, largest key = {dm}"),
            });
        }
    }
    violations
}

impl Gfsl {
    /// Collect the key set of a level by walking its chain, skipping zombie
    /// contents. Quiescent use only.
    pub fn level_keys(&self, level: usize) -> Vec<u32> {
        let mut h = self.handle_with(NoProbe);
        let team = self.team;
        let mut out = Vec::new();
        let mut cur = self.head_of(level);
        while cur != NIL {
            let v = h.read_chunk(cur);
            if !v.is_zombie(&team) {
                for (_, e) in v.live_entries(&team) {
                    if e.key() != KEY_NEG_INF {
                        out.push(e.key());
                    }
                }
            }
            cur = v.next(&team);
        }
        out
    }

    /// All keys currently in the set (bottom level). Quiescent use only.
    pub fn keys(&self) -> Vec<u32> {
        self.level_keys(0)
    }

    /// All key-value pairs in ascending key order (an eager collect of
    /// [`Gfsl::export_pairs`]). Quiescent use only.
    pub fn pairs(&self) -> Vec<(u32, u32)> {
        self.export_pairs().collect()
    }

    /// Number of keys in the set. O(n) scan; quiescent use only.
    pub fn len(&self) -> usize {
        self.keys().len()
    }

    /// Is the set empty? Quiescent use only.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Check every structural invariant; returns all violations found.
    /// Quiescent use only.
    pub fn validate(&self) -> Vec<Violation> {
        let mut violations = Vec::new();
        let team = self.team;
        let mut h = self.handle_with(NoProbe);
        let levels = self.params.max_levels();
        let mut level_sets: Vec<BTreeSet<u32>> = Vec::with_capacity(levels);

        // The levels with a head are a prefix `0..=top`, at least as tall
        // as the height, and no level above it has ever held a key.
        let top = self.heads().count() - 1;
        let headless = |rule, detail: String| Violation { rule, level: top + 1, chunk: None, detail };
        if let Some(l) = (top + 1..levels).find(|&l| self.head_of(l) != NIL) {
            violations.push(headless("level-heads-prefix", format!("level {l} has a head, level {} none", top + 1)));
        }
        if self.height() > top || self.levels_high_water() > top {
            violations.push(headless(
                "level-heads-cover-height",
                format!("height {}, high water {}, heads up to level {top}", self.height(), self.levels_high_water()),
            ));
        }
        if let Some(l) = (top + 1..levels).find(|&l| self.level_chunk_count(l) > 0) {
            violations.push(headless("headless-level-unused", format!("level {l} counts chunks but has no head")));
        }

        for (level, head) in self.heads() {
            let mut seen = BTreeSet::new();
            let mut cur = head;
            let mut prev_max: Option<u32> = None;
            let mut first = true;
            let mut visited = std::collections::HashSet::new();
            loop {
                if !visited.insert(cur) {
                    violations.push(Violation {
                        rule: "acyclic-chain",
                        level,
                        chunk: Some(cur),
                        detail: "next-pointer cycle".into(),
                    });
                    break;
                }
                let v: ChunkView = h.read_chunk(cur);
                let zombie = v.is_zombie(&team);
                let lock = crate::chunk::lock_state(v.lock_word(&team));
                if lock != LOCK_UNLOCKED && lock != LOCK_ZOMBIE {
                    violations.push(Violation {
                        rule: "quiescent-unlocked",
                        level,
                        chunk: Some(cur),
                        detail: format!("lock word {lock} at quiescence"),
                    });
                }
                if !zombie {
                    let keys: Vec<u32> = v.live_entries(&team).map(|(_, e)| e.key()).collect();
                    // Chunk-local rules (sorted/unique, packed, max field).
                    violations.extend(chunk_rules(&team, &v, level, cur));
                    // First chunk holds -inf (head may lag behind a zombified
                    // first chunk, in which case this is checked on its
                    // replacement via the zombie walk).
                    if first && keys.first() != Some(&KEY_NEG_INF) && v.entry(0).key() != KEY_NEG_INF
                    {
                        violations.push(Violation {
                            rule: "first-chunk-neg-inf",
                            level,
                            chunk: Some(cur),
                            detail: format!("entry 0 key = {}", v.entry(0).key()),
                        });
                    }
                    let max = v.max(&team);
                    let next = v.next(&team);
                    // Lateral ordering between non-zombie chunks.
                    if let Some(pm) = prev_max {
                        if let Some(minimum) = keys.first() {
                            if *minimum != KEY_NEG_INF && *minimum <= pm {
                                violations.push(Violation {
                                    rule: "lateral-order",
                                    level,
                                    chunk: Some(cur),
                                    detail: format!("min key {minimum} <= previous max {pm}"),
                                });
                            }
                        }
                    }
                    if next != NIL {
                        prev_max = Some(max);
                    }
                    for k in keys {
                        if k != KEY_NEG_INF && !seen.insert(k) {
                            violations.push(Violation {
                                rule: "level-unique-keys",
                                level,
                                chunk: Some(cur),
                                detail: format!("key {k} appears twice in level"),
                            });
                        }
                    }
                    first = false;
                }
                let next = v.next(&team);
                if next == NIL {
                    break;
                }
                cur = next;
            }
            level_sets.push(seen);
        }

        // Upper levels are subsets of the level below.
        for (below, pair) in level_sets.windows(2).enumerate() {
            let level = below + 1;
            if let Some(stray) = pair[1].difference(&pair[0]).next() {
                violations.push(Violation {
                    rule: "upper-subset-of-lower",
                    level,
                    chunk: None,
                    detail: format!("key {stray} in level {level} missing from level {below}"),
                });
            }
        }

        // Every upper-level down-pointer reaches its key laterally below.
        let mut h = self.handle_with(NoProbe);
        for (level, set) in level_sets.iter().enumerate().skip(1) {
            if set.is_empty() {
                continue;
            }
            let mut cur = self.head_of(level);
            loop {
                let v = h.read_chunk(cur);
                if !v.is_zombie(&team) {
                    for (_, e) in v.live_entries(&team) {
                        if e.key() == KEY_NEG_INF {
                            continue;
                        }
                        let r = h.search_lateral(e.key(), e.val());
                        if r.found.is_none() {
                            violations.push(Violation {
                                rule: "down-pointer-reaches-key",
                                level,
                                chunk: Some(cur),
                                detail: format!(
                                    "key {} not laterally reachable from chunk {}",
                                    e.key(),
                                    e.val()
                                ),
                            });
                        }
                    }
                }
                let next = v.next(&team);
                if next == NIL {
                    break;
                }
                cur = next;
            }
        }

        violations
    }

    /// Panic with a readable report if any invariant is violated.
    pub fn assert_valid(&self) {
        let v = self.validate();
        assert!(
            v.is_empty(),
            "GFSL invariant violations:\n{}",
            v.iter().map(|x| format!("  {x}\n")).collect::<String>()
        );
    }
}

#[cfg(test)]
mod tests {
    use crate::params::GfslParams;
    use crate::skiplist::Gfsl;
    use gfsl_simt::TeamSize;

    fn list16() -> Gfsl {
        Gfsl::new(GfslParams {
            team_size: TeamSize::Sixteen,
            ..Default::default()
        })
        .unwrap()
    }

    #[test]
    fn fresh_list_is_valid_and_empty() {
        let list = list16();
        list.assert_valid();
        assert!(list.is_empty());
        assert_eq!(list.keys(), Vec::<u32>::new());
    }

    /// The head-prefix rules: a head above a level with none, and a level
    /// with no head that counts chunks, are violations.
    #[test]
    fn a_head_above_a_headless_level_is_a_violation() {
        use std::sync::atomic::Ordering;
        let list = list16();
        let head1 = list.handle().head_or_grow(1).unwrap();
        list.assert_valid();
        list.head[1].store(crate::chunk::NIL, Ordering::Relaxed);
        list.head[2].store(head1, Ordering::Relaxed);
        list.inc_level_chunks(3);
        let rules: Vec<&str> = list.validate().iter().map(|v| v.rule).collect();
        for rule in ["level-heads-prefix", "level-heads-cover-height", "headless-level-unused"] {
            assert!(rules.contains(&rule), "{rule} not in {rules:?}");
        }
    }

    #[test]
    fn valid_after_inserts() {
        let list = list16();
        let mut h = list.handle();
        for k in (1..=800u32).rev() {
            h.insert(k, k * 2).unwrap();
        }
        list.assert_valid();
        let keys = list.keys();
        assert_eq!(keys.len(), 800);
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "ascending order");
        let pairs = list.pairs();
        assert!(pairs.iter().all(|&(k, v)| v == k * 2));
    }

    #[test]
    fn valid_after_mixed_churn() {
        let list = list16();
        let mut h = list.handle();
        let mut reference = std::collections::BTreeSet::new();
        let mut x: u64 = 0x853c49e6748fea9b;
        for i in 0..30_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = (x % 2000 + 1) as u32;
            if (x >> 32).is_multiple_of(2) || i < 1000 {
                assert_eq!(h.insert(k, k).unwrap(), reference.insert(k));
            } else {
                assert_eq!(h.remove(k), reference.remove(&k));
            }
        }
        list.assert_valid();
        let keys: Vec<u32> = list.keys();
        let expect: Vec<u32> = reference.into_iter().collect();
        assert_eq!(keys, expect);
    }

    #[test]
    fn valid_for_32_entry_chunks_too() {
        let list = Gfsl::new(GfslParams::default()).unwrap();
        let mut h = list.handle();
        for k in 1..=3000u32 {
            h.insert(k * 7, k).unwrap();
        }
        for k in 1..=1500u32 {
            assert!(h.remove(k * 14), "k={k}");
        }
        list.assert_valid();
        assert_eq!(list.len(), 1500);
    }
}
