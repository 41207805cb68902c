//! Cluster kill-restart soak: per-lane WALs, manifest-carried shard
//! layout, and recovery under injected kills at every durability crash
//! point — including after the shard map has changed shape.
//!
//! The verdict is a state-machine check rather than a history search: a
//! deterministic model tracks every *acknowledged* write; after the kill
//! and restart, every key must hold exactly the model's value, except the
//! single op that was in its commit window, which may have either fully
//! happened or not at all.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use gfsl::chaos::DURABILITY_CRASH_POINTS;
use gfsl::mc::strategy::Replay;
use gfsl::{CrashPoint, GfslParams, TeamSize};
use gfsl_durable::{destroy, DurabilityContract, DurableCluster, DurableClusterConfig, Failpoints};
use gfsl_rng::SplitMix64;

const KEY_SPACE: u32 = 400;
const OPS: usize = 150;
const OPS_PER_CKPT: usize = 25;

fn soak_seeds() -> u64 {
    std::env::var("GFSL_DURABLE_SOAK_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4)
}

/// The one op whose outcome a kill left uncertain.
#[derive(Debug, Clone, Copy)]
enum Pending {
    Put(u32, u32),
    Del(u32),
}

fn soak_cell(point: CrashPoint, seed: u64) -> bool {
    gfsl::quiet_injected_panics();
    let dir = std::env::temp_dir().join(format!(
        "gfsl_dcsoak_{point:?}_{seed}_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = DurableClusterConfig {
        contract: DurabilityContract::ALL[(seed % 3) as usize],
        seg_records: 6 + (seed % 6) as u32,
        n_lanes: 3,
        n_shards: 4,
        key_range: KEY_SPACE,
        params: GfslParams {
            team_size: TeamSize::Sixteen,
            pool_chunks: 1 << 12,
            ..Default::default()
        },
        ..DurableClusterConfig::new(&dir)
    };

    let mut dc = DurableCluster::create(&cfg).unwrap();
    let mut model: BTreeMap<u32, u32> = BTreeMap::new();
    for k in (2..KEY_SPACE).step_by(4) {
        assert!(dc.insert(k, k).unwrap());
        model.insert(k, k);
    }
    // Change the shard map and checkpoint it before arming: layout is
    // durable from the moment a manifest records it, and every later
    // manifest (or fallback to this one) must carry it across the restart.
    let first_shard = dc.cluster().shards()[0].id;
    dc.cluster().split_shard(first_shard).unwrap();
    dc.checkpoint().unwrap();
    let bounds_before = dc.cluster().bounds();

    let occurrence = 1 + seed % 3;
    let ctl = gfsl::chaos::controller(1, Replay::new(Vec::new()), Some((point, occurrence)));
    dc.set_hook(Failpoints::Chaos(ctl.probe(0)));

    let mut rng = SplitMix64::new(seed.wrapping_mul(0x2545) ^ 0x5DEE);
    let mut crashed = false;
    let mut pending: Option<Pending> = None;
    let mut dc = Some(dc);
    for i in 0..OPS {
        let c = dc.as_mut().unwrap();
        if i > 0 && i % OPS_PER_CKPT == 0 {
            if catch_unwind(AssertUnwindSafe(|| c.checkpoint().unwrap())).is_err() {
                crashed = true;
                break;
            }
            continue;
        }
        let r = rng.next_u64();
        let key = (r % u64::from(KEY_SPACE - 2) + 1) as u32;
        let value = (r >> 40) as u32 | 1;
        if (r >> 32) % 3 < 2 {
            match catch_unwind(AssertUnwindSafe(|| c.insert(key, value))) {
                Ok(done) => {
                    if done.expect("non-chaos insert failure") {
                        model.insert(key, value);
                    }
                }
                Err(_) => {
                    pending = Some(Pending::Put(key, value));
                    crashed = true;
                    break;
                }
            }
        } else {
            match catch_unwind(AssertUnwindSafe(|| c.remove(key))) {
                Ok(done) => {
                    if done.expect("non-chaos remove failure") {
                        model.remove(&key);
                    }
                }
                Err(_) => {
                    pending = Some(Pending::Del(key));
                    crashed = true;
                    break;
                }
            }
        }
    }
    drop(dc);

    let (dc, report) = DurableCluster::open(&cfg).unwrap_or_else(|e| {
        panic!("[{point:?} seed {seed}] cluster recovery failed: {e}")
    });
    dc.cluster().assert_valid();
    assert_eq!(
        dc.cluster().bounds(),
        bounds_before,
        "[{point:?} seed {seed}] shard layout must come back from the manifest"
    );
    assert!(
        report.checkpoint_seq.is_some() || report.replayed > 0 || model.is_empty(),
        "[{point:?} seed {seed}] recovery found nothing to restore"
    );

    // Acked state must be exact; the pending op may be either way.
    let recovered: BTreeMap<u32, u32> = dc.cluster().pairs().into_iter().collect();
    let mut acceptable = vec![model.clone()];
    if let Some(p) = pending {
        let mut with = model.clone();
        match p {
            Pending::Put(k, v) => {
                with.insert(k, v);
            }
            Pending::Del(k) => {
                with.remove(&k);
            }
        }
        acceptable.push(with);
    }
    assert!(
        acceptable.contains(&recovered),
        "[{point:?} seed {seed}] recovered state diverges from every \
         acceptable model: pending {pending:?}, {} recovered keys vs {} modeled",
        recovered.len(),
        model.len()
    );
    destroy(&cfg.dir).unwrap();
    crashed
}

#[test]
fn cluster_kill_restart_soak_every_durability_crash_point() {
    let seeds = soak_seeds();
    for &point in DURABILITY_CRASH_POINTS.iter() {
        let mut crashes = 0u64;
        for seed in 0..seeds {
            crashes += u64::from(soak_cell(point, seed));
        }
        assert!(
            crashes > 0,
            "{point:?} never produced an injected kill in {seeds} seeds"
        );
    }
}
