//! Churn stress for the zombie-chunk reclamation layer.
//!
//! The paper preallocates the device pool, so before reclamation the bump
//! pointer was a hard lifetime budget: every split allocated, nothing ever
//! returned, and sustained insert/remove churn exhausted the pool long
//! before the live set needed it. These tests pin down the new contract:
//!
//! * churn many times the pool size recycles zombie chunks and the bump
//!   high-water stays bounded by the live-set footprint (not by the
//!   operation count);
//! * a live set larger than the pool surfaces as the typed
//!   [`Error::PoolExhausted`] with every lock released — the structure
//!   stays fully usable and valid afterwards.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU32, Ordering};

use gfsl::{BatchOp, BatchReply, Error, Gfsl, GfslParams, TeamSize};

fn params(pool_chunks: u32) -> GfslParams {
    GfslParams {
        team_size: TeamSize::Sixteen,
        pool_chunks,
        ..Default::default()
    }
}

/// Sliding-window churn: ~12k update ops through a 256-chunk pool (>10×
/// the pool in ops, >25× in chunk demand) with at most `WINDOW` keys live.
/// The bump high-water must stay within 2× the first window's footprint.
#[test]
fn sliding_window_churn_bounds_the_high_water_mark() {
    const WINDOW: u32 = 64;
    const LAST: u32 = 6_000;
    let list = Gfsl::new(params(256)).unwrap();
    let mut h = list.handle();

    for k in 1..=WINDOW {
        h.insert(k, k).unwrap();
    }
    // The post-fill footprint (the heads of levels 0 and 1 + the live
    // window's chunks) is the live-set yardstick the steady state is
    // measured against.
    let baseline = list.chunks_allocated();

    for k in WINDOW + 1..=LAST {
        h.insert(k, k).unwrap();
        assert!(h.remove(k - WINDOW), "window key {k} present", k = k - WINDOW);
    }

    let high_water = list.chunks_allocated();
    assert!(
        high_water <= 2 * baseline,
        "high water {high_water} vs 2x live-set footprint {baseline}"
    );
    let stats = list.reclaim_stats();
    assert!(stats.zombies_reclaimed > 0, "no zombie ever reclaimed: {stats:?}");
    assert!(stats.reused > 0, "free list never consumed: {stats:?}");

    let expect: Vec<u32> = (LAST - WINDOW + 1..=LAST).collect();
    assert_eq!(list.keys(), expect, "final membership is the last window");
    list.assert_valid();
}

/// Two writers churning disjoint key classes through a shared pool: the
/// epoch protocol must advance (both handles pin and unpin around every
/// op), zombies must be recycled, and quiescent validation must hold.
///
/// The writers keep within `LAG` steps of each other, waiting between
/// operations (unpinned, no lock held) when ahead. Left free, one of them
/// descheduled mid-operation — pinned, maybe holding its bottom chunk's
/// lock — lets the other run its whole stream against a reclaimer that
/// cannot finish a grace period and a first chunk nobody can unlink
/// behind: how far the pool then grows is the host's scheduling, not the
/// structure's doing.
#[test]
fn concurrent_churn_recycles_and_stays_valid() {
    const WINDOW: u32 = 32;
    const PER_THREAD: u32 = 3_000;
    const LAG: u32 = 64;
    let list = Gfsl::new(params(1024)).unwrap();
    let progress = [AtomicU32::new(0), AtomicU32::new(0)];

    let finals: Vec<BTreeSet<u32>> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..2u32)
            .map(|t| {
                let (list, progress) = (&list, &progress);
                s.spawn(move || {
                    let mut h = list.handle();
                    let key = |i: u32| i * 2 + t + 1;
                    let (mine, other) = (&progress[t as usize], &progress[1 - t as usize]);
                    // Done or dead, this writer is not waited for again.
                    struct Finished<'a>(&'a AtomicU32);
                    impl Drop for Finished<'_> {
                        fn drop(&mut self) {
                            self.0.store(u32::MAX, Ordering::Release);
                        }
                    }
                    let _finished = Finished(mine);
                    for i in 0..PER_THREAD {
                        while i > other.load(Ordering::Acquire).saturating_add(LAG) {
                            std::thread::yield_now();
                        }
                        h.insert(key(i), i).unwrap();
                        if i >= WINDOW {
                            assert!(h.remove(key(i - WINDOW)), "own window key");
                        }
                        mine.store(i + 1, Ordering::Release);
                    }
                    (PER_THREAD - WINDOW..PER_THREAD).map(key).collect()
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });

    // ~12k update ops; without recycling the bottom level alone would have
    // needed ~850 chunks. The bump pointer only moves when the free list is
    // empty, and every chunk it has handed out is then linked into a level
    // or in grace. In grace is what the run recorded as its backlog high
    // water (a writer stalled inside an operation holds grace periods
    // open for up to `LAG` of the other's steps). Linked is the 16
    // sentinels, two 32-key windows and the zombies a pass or a traversal
    // has yet to unlink (again up to `LAG` steps' worth): 64 covers it.
    let stats = list.reclaim_stats();
    let high_water = u64::from(list.chunks_allocated());
    assert!(
        high_water <= 64 + stats.backlog_high_water,
        "high water {high_water} not bounded by live set + backlog: {stats:?}"
    );
    assert!(stats.zombies_reclaimed > 0, "{stats:?}");
    // Nothing got lost on the way: every chunk handed out is linked into a
    // level, on the free list, or in one of the two grace queues.
    let (live, zombies) = list.linked_chunks();
    assert_eq!(
        high_water,
        live + zombies + stats.free_len + stats.limbo_len + stats.staged_len,
        "{live} live and {zombies} zombie chunks linked: {stats:?}"
    );

    let violations = list.validate();
    assert!(violations.is_empty(), "{violations:?}");
    let got: BTreeSet<u32> = list.keys().into_iter().collect();
    let expect: BTreeSet<u32> = finals.into_iter().flatten().collect();
    assert_eq!(got, expect, "membership is the union of both windows");
}

/// The sorted call's traversal hint must stay safe across chunk
/// reclamation. Within one key-sorted batch the hint can name a chunk that
/// the batch's own later updates merge away, retire, reclaim, and
/// reinitialize under a different key range; the hint's `(lock word,
/// reclaim epoch)` guard must reject such hints so a hinted lookup never
/// trusts a recycled incarnation. (A hint idling *between* calls — an idle
/// handle's hint going generations stale — is unreachable outside `mc`,
/// whose workers keep `hint_live` set across per-op calls: a sorted call
/// clears the hint on entry and nothing consults it outside one.)
///
/// The churn pushes chunk demand well past 10x the pool (sliding window
/// through a 64-chunk pool for 6k keys) in key-sorted batches of 16
/// window steps with lookups mixed in, every reply checked against a
/// reference map applied in index order — same-key order is what the
/// sorted call preserves, and every reply here depends on one key.
#[test]
fn sorted_batches_stay_correct_across_reclamation_churn() {
    const WINDOW: u32 = 48;
    const LAST: u32 = 6_000;
    const STEPS: u32 = 16;
    let list = Gfsl::new(GfslParams {
        team_size: TeamSize::Sixteen,
        pool_chunks: 64,
        ..Default::default()
    })
    .unwrap();
    let mut h = list.handle();
    let mut reference: BTreeMap<u32, u32> = BTreeMap::new();
    let mut run = |h: &mut gfsl::GfslHandle<'_, gfsl::NoProbe>, ops: &[BatchOp]| {
        let mut out = Vec::new();
        h.execute_batch_hinted(ops, &mut out);
        for (op, reply) in ops.iter().zip(out) {
            let want = match *op {
                BatchOp::Insert(k, v) => BatchReply::Inserted(reference.insert(k, v).is_none()),
                BatchOp::Remove(k) => BatchReply::Removed(reference.remove(&k).is_some()),
                BatchOp::Get(k) => BatchReply::Got(reference.get(&k).copied()),
                other => unreachable!("{other:?}"),
            };
            assert_eq!(reply, want, "{op:?}");
        }
    };

    let fill: Vec<BatchOp> = (1..=WINDOW).map(|k| BatchOp::Insert(k, k * 3)).collect();
    run(&mut h, &fill);
    for first in (WINDOW + 1..=LAST).step_by(STEPS as usize) {
        let mut ops = Vec::new();
        for k in first..(first + STEPS).min(LAST + 1) {
            ops.push(BatchOp::Insert(k, k * 3));
            ops.push(BatchOp::Remove(k - WINDOW));
            if k % 7 == 0 {
                // Lookups mid-churn, left of the inserts that follow them in
                // key order: the hint they leave names a window chunk the
                // same batch goes on to merge away and recycle.
                ops.push(BatchOp::Get(k - k % WINDOW));
            }
        }
        run(&mut h, &ops);
    }

    // The pool was recycled end over end: demand stayed inside 64 chunks
    // only because zombies were reclaimed (plain sliding-window demand is
    // ~850 bottom chunks, >13x the pool).
    let stats = list.reclaim_stats();
    assert!(
        stats.reused >= 640,
        "churn must recycle >10x the pool, reused only {}",
        stats.reused
    );
    assert!(list.chunks_allocated() <= 64, "bump pointer within the pool");

    // Full sweep against the reference; ascending keys make almost every
    // lookup a hint hit, all of them on recycled chunks.
    let sweep: Vec<BatchOp> = (1..=LAST).map(BatchOp::Get).collect();
    run(&mut h, &sweep);
    let s = h.stats();
    assert!(s.hint_hits > 0, "sweep never used the hint path: {s:?}");
    assert!(s.hint_misses > 0, "churn never invalidated a hint: {s:?}");

    let violations = list.validate();
    assert!(violations.is_empty(), "post-churn invariants: {violations:?}");
    let got: BTreeSet<u32> = list.keys().into_iter().collect();
    let expect: BTreeSet<u32> = reference.keys().copied().collect();
    assert_eq!(got, expect);
    // Containment must not hide bugs: no batch op panicked into quarantine.
    let r = list.repair_stats();
    assert_eq!((r.crashed_ops, r.quarantine_depth), (0, 0), "{r:?}");
}

/// Ascending inserts into a tiny pool exhaust it: they never merge, so
/// there is nothing to reclaim. The regression being pinned: exhaustion
/// inside a split used to leave chunk locks held, wedging every later
/// writer. It must instead surface the typed error with all locks released
/// and the structure intact.
#[test]
fn exhaustion_is_typed_and_leaves_no_lock_held() {
    let list = Gfsl::new(params(40)).unwrap();
    let mut h = list.handle();

    let mut inserted = Vec::new();
    let exhausted_at = loop {
        let k = inserted.len() as u32 + 1;
        match h.insert(k, k * 10) {
            Ok(added) => {
                assert!(added);
                inserted.push(k);
                assert!(k < 10_000, "a 40-chunk pool cannot hold 10k keys");
            }
            Err(Error::PoolExhausted(_)) => break k,
            Err(e) => panic!("unexpected error {e:?}"),
        }
    };

    // An exhaustion mid-raise still inserts the key at the bottom level
    // (only index levels are missing, which is legal); an exhaustion in the
    // bottom split does not. Either way the structure answers.
    let failing_key_landed = h.get(exhausted_at) == Some(exhausted_at * 10);

    // Every lock was released on the error path: reads, removes, and
    // no-alloc inserts must all still go through (a held lock would wedge
    // each of these), and repeating the failing insert fails cleanly
    // instead of deadlocking on a self-held lock.
    match h.insert(exhausted_at, 0) {
        Ok(false) => assert!(failing_key_landed, "duplicate implies it landed"),
        Err(Error::PoolExhausted(_)) => {}
        other => panic!("retried insert: {other:?}"),
    }
    for &k in &inserted {
        assert_eq!(h.get(k), Some(k * 10), "get {k} after exhaustion");
    }
    // Freeing in-chunk slots makes room for inserts that need no split.
    for &k in inserted.iter().take(20) {
        assert!(h.remove(k), "remove {k} after exhaustion");
    }
    assert!(h.insert(1, 42).unwrap(), "insert into freed slot");
    list.assert_valid();

    let mut expect: BTreeSet<u32> = inserted.iter().skip(20).copied().collect();
    expect.insert(1);
    if failing_key_landed {
        expect.insert(exhausted_at);
    }
    let got: BTreeSet<u32> = list.keys().into_iter().collect();
    assert_eq!(got, expect);
}

/// The companion guarantee: a tiny pool survives a churn workload that
/// dwarfs it, because reclamation recycles what the churn zombifies and
/// the steady-state live set fits comfortably. The window spans several chunks so removals hit
/// non-terminal chunks and actually merge (removals confined to the last
/// chunk of a level never zombify anything by design).
#[test]
fn same_tiny_pool_survives_churn() {
    const WINDOW: u32 = 32;
    const LAST: u32 = 2_000;
    let list = Gfsl::new(params(48)).unwrap();
    let mut h = list.handle();

    for k in 1..=LAST {
        h.insert(k, k).expect("reclamation keeps the pool ahead of churn");
        if k > WINDOW {
            assert!(h.remove(k - WINDOW));
        }
    }

    let stats = list.reclaim_stats();
    assert!(stats.reused > 0, "survival required recycling: {stats:?}");
    assert!(list.chunks_allocated() <= 48, "bump pointer within the pool");
    let expect: Vec<u32> = (LAST - WINDOW + 1..=LAST).collect();
    assert_eq!(list.keys(), expect);
    list.assert_valid();
}
