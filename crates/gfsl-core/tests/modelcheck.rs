//! Systematic schedule exploration of the lock protocol (ISSUE 9).
//!
//! Every test explores a named configuration from `gfsl::mc::configs` and
//! asserts that **no reachable schedule** violates structure invariants,
//! linearizability, or panic-freedom — printing the explored-schedule
//! count so CI can archive it.
//!
//! Cost scaling: exhaustive DFS cost grows with the preemption bound, so
//! tier-1 (debug) runs every config at bound 1, while the CI `modelcheck`
//! job (release) runs them at bound 2. `--nocapture` shows the schedule
//! counts.

use gfsl::mc::strategy::{DfsBounded, RandomWalk};
use gfsl::mc::{configs, explore, replay};

/// Preemption bound scaled to build profile: debug tier-1 stays fast,
/// release CI explores the full bound-2 space.
fn bound(debug: u32, release: u32) -> u32 {
    if cfg!(debug_assertions) {
        debug
    } else {
        release
    }
}

fn check_exhaustive(name: &str, bound: u32, cap: u64, allow_truncation: bool) {
    let cfg = configs::by_name(name).expect("config registered");
    let report = explore(&cfg, Box::new(DfsBounded::new(bound, true, cap)));
    println!("modelcheck [bound {bound}] {}", report.summary());
    assert!(
        report.counterexample.is_none(),
        "counterexample found: {}",
        report.summary()
    );
    if !allow_truncation {
        assert!(
            !report.truncated,
            "{name}: episode cap {cap} hit before exhausting bound-{bound} space"
        );
    }
    assert!(
        report.episodes > 1,
        "{name}: only {} schedule(s) explored — gating is not reaching the scheduler",
        report.episodes
    );
}

#[test]
fn cert_read_2t_exhaustive() {
    check_exhaustive("cert-read-2t", bound(1, 2), 5_000_000, false);
}

#[test]
fn cert_read_3t_bounded() {
    // Three threads over the split path: the bound-2 space is large, so a
    // cap keeps CI bounded; the run still covers every schedule the DFS
    // reaches within it.
    check_exhaustive("cert-read-3t", bound(1, 2), if cfg!(debug_assertions) { 30_000 } else { 300_000 }, true);
}

#[test]
fn heal_2t_exhaustive() {
    // An insert that heals (raises its locked chunk's minimum, no split)
    // against a remove of exactly that minimum.
    check_exhaustive("heal-2t", bound(1, 2), 5_000_000, false);
}

#[test]
fn heal_3t_exhaustive() {
    // ... and two lock-free reads through the entry the heal publishes.
    check_exhaustive("heal-3t", bound(1, 2), 5_000_000, false);
}

#[test]
fn heal_upper_2t_exhaustive() {
    // The upper-level heal declining a chunk minimum its lock does not
    // cover, against a remove of that minimum.
    check_exhaustive("heal-upper-2t", bound(1, 2), 5_000_000, false);
}

#[test]
fn reclaim_2t_exhaustive() {
    // The reclaimer end to end — grace, reachability scan, staging grace,
    // free list, reuse by a split — against a read that can step onto the
    // zombie through a stale down-pointer one epoch before it is repaired.
    check_exhaustive("reclaim-2t", bound(1, 2), 5_000_000, false);
}

#[test]
fn split_append_2t_exhaustive() {
    // A full tail chunk's append split — the new chunk published empty and
    // locked, the old max lowered — against reads on both sides of it and a
    // remove of the old max.
    check_exhaustive("split-append-2t", bound(1, 2), 5_000_000, false);
}

#[test]
fn level_grow_2t_exhaustive() {
    // Two splits race to raise into level 1's last free entry; the second
    // splits level 1 and grows level 2 while a remove probes above level 1.
    check_exhaustive("level-grow-2t", bound(1, 2), 5_000_000, false);
}

#[test]
fn remove_probe_2t_exhaustive() {
    // A remove whose level probe is answered from its descent's level-1
    // view, against the insert whose append split raises the key into
    // that chunk between the descent and the remove's bottom lock.
    check_exhaustive("remove-probe-2t", bound(1, 2), 5_000_000, false);
}

#[test]
fn finger_2t_exhaustive() {
    check_exhaustive("finger-2t", bound(1, 2), 5_000_000, false);
}

#[test]
fn lock_upgrade_2t_exhaustive() {
    // Two inserts into one bottom chunk: either one's certified view can go
    // stale between its search and the CAS that upgrades it to the lock.
    check_exhaustive("lock-upgrade-2t", bound(1, 2), 5_000_000, false);
}

#[test]
fn mvcc_snap_2t_bounded() {
    // Pinned snapshot reads vs a stamped split: the version fence adds a
    // yield point per acquisition attempt on both sides, so the space is
    // larger than cert-read-2t — capped, every schedule reached within
    // the cap is checked.
    check_exhaustive(
        "mvcc-snap-2t",
        bound(1, 2),
        if cfg!(debug_assertions) { 30_000 } else { 300_000 },
        true,
    );
}

#[test]
fn mvcc_snap_3t_bounded() {
    check_exhaustive(
        "mvcc-snap-3t",
        bound(1, 2),
        if cfg!(debug_assertions) { 30_000 } else { 300_000 },
        true,
    );
}

#[test]
fn zombie_tear_2t_exhaustive() {
    // A read preempted between a chunk's NEXT and LOCK lanes while the
    // writer splits that chunk and then merges it away: the read's zombie
    // step must follow the NEXT lane as read again after the mark.
    check_exhaustive("zombie-tear-2t", bound(1, 2), 5_000_000, false);
}

#[test]
fn zombie_tear_insert_2t_exhaustive() {
    // The same tear on the update path: the lazy redirect and the insert's
    // placement both follow the zombie's NEXT.
    check_exhaustive("zombie-tear-insert-2t", bound(1, 2), 5_000_000, false);
}

#[test]
fn random_walk_soak_finds_nothing() {
    // Seeded random walks over every registered config — the strategy the
    // CI soak job runs for much longer. Complements DFS: walks routinely
    // exceed the preemption bound.
    let episodes = if cfg!(debug_assertions) { 40 } else { 400 };
    for cfg in configs::all() {
        let report = explore(&cfg, Box::new(RandomWalk::new(0x5EED_0003, episodes)));
        println!("modelcheck [walk x{episodes}] {}", report.summary());
        assert!(
            report.counterexample.is_none(),
            "random walk counterexample: {}",
            report.summary()
        );
        assert_eq!(report.episodes, episodes);
    }
}

#[test]
fn replay_is_deterministic() {
    // The property every repro workflow rests on: same decisions, same
    // trace hash, same verdict — across fresh structure instances.
    let cfg = configs::by_name("split-raise-2t").expect("config registered");
    let a = replay(&cfg, vec![1, 0, 1, 1, 0, 1]);
    let b = replay(&cfg, vec![1, 0, 1, 1, 0, 1]);
    assert_eq!(a.trace, b.trace, "trace hash must be schedule-deterministic");
    assert_eq!(a.steps, b.steps);
    assert_eq!(a.failure.is_some(), b.failure.is_some());
    let c = replay(&cfg, vec![0, 1, 0, 0, 1, 0]);
    assert_ne!(
        a.trace, c.trace,
        "different decisions must reach a different interleaving"
    );
}
