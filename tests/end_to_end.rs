//! Workspace integration tests: the full measurement pipeline, determinism,
//! and cross-structure agreement.

use gfsl_repro::gfsl::{Gfsl, GfslParams, TeamSize};
use gfsl_repro::harness::experiments::{self, ExpConfig};
use gfsl_repro::harness::runner::{run_gfsl, run_mc, RunConfig};
use gfsl_repro::harness::{evaluate, StructureKind};
use gfsl_repro::mc_skiplist::{McParams, McSkipList};
use gfsl_repro::workload::{BenchKind, Op, OpMix, WorkloadSpec};

fn tiny_cfg() -> ExpConfig {
    ExpConfig::tiny(2)
}

/// Identical single-threaded histories leave GFSL, M&C, and a BTreeSet in
/// agreement on the final key set.
#[test]
fn structures_agree_on_identical_histories() {
    let spec = WorkloadSpec::mixed(OpMix::C60, 2_000, 30_000, 99);
    let gfsl = Gfsl::new(GfslParams::sized_for(40_000)).unwrap();
    let mc = McSkipList::new(McParams::sized_for(60_000)).unwrap();
    let mut reference = std::collections::BTreeSet::new();
    let mut gh = gfsl.handle();
    let mut mh = mc.handle();

    for k in spec.prefill_keys() {
        assert!(gh.insert(k, k).unwrap());
        assert!(mh.insert(k, k));
        assert!(reference.insert(k));
    }
    for op in spec.ops() {
        match op {
            Op::Insert(k, v) => {
                let want = reference.insert(k);
                assert_eq!(gh.insert(k, v).unwrap(), want, "insert {k}");
                assert_eq!(mh.insert(k, v), want, "mc insert {k}");
            }
            Op::Delete(k) => {
                let want = reference.remove(&k);
                assert_eq!(gh.remove(k), want, "remove {k}");
                assert_eq!(mh.remove(k), want, "mc remove {k}");
            }
            Op::Contains(k) => {
                let want = reference.contains(&k);
                assert_eq!(gh.contains(k), want, "contains {k}");
                assert_eq!(mh.contains(k), want, "mc contains {k}");
            }
        }
    }
    let expect: Vec<u32> = reference.into_iter().collect();
    assert_eq!(gfsl.keys(), expect);
    assert_eq!(mc.keys(), expect);
    gfsl.assert_valid();
}

/// Single-worker runs are bit-for-bit deterministic: same seed, same
/// traffic and step counts.
#[test]
fn single_worker_measurement_is_deterministic() {
    let spec = WorkloadSpec::mixed(OpMix::C80, 5_000, 10_000, 1234);
    let cfg = RunConfig { workers: 1 };
    let a = run_gfsl(&spec, GfslParams::sized_for(20_000), &cfg);
    let b = run_gfsl(&spec, GfslParams::sized_for(20_000), &cfg);
    assert_eq!(a.traffic, b.traffic);
    assert_eq!(a.divergence, b.divergence);
    assert_eq!(a.splits, b.splits);
    assert_eq!(a.merges, b.merges);

    let ma = run_mc(&spec, McParams::sized_for(20_000), &cfg);
    let mb = run_mc(&spec, McParams::sized_for(20_000), &cfg);
    assert_eq!(ma.traffic, mb.traffic);
    assert_eq!(ma.divergence, mb.divergence);
}

/// Different seeds produce different workloads (no accidental seed
/// swallowing anywhere in the pipeline).
#[test]
fn seeds_change_measurements() {
    let cfg = RunConfig { workers: 1 };
    let a = run_gfsl(
        &WorkloadSpec::mixed(OpMix::C80, 5_000, 10_000, 1),
        GfslParams::sized_for(20_000),
        &cfg,
    );
    let b = run_gfsl(
        &WorkloadSpec::mixed(OpMix::C80, 5_000, 10_000, 2),
        GfslParams::sized_for(20_000),
        &cfg,
    );
    assert_ne!(a.traffic, b.traffic);
}

/// The model pipeline yields sane, ordered results on a trivially small
/// configuration: contains-only beats update-heavy, GFSL's per-op traffic
/// is far below M&C's.
#[test]
fn model_pipeline_sanity() {
    let cfg = RunConfig { workers: 2 };
    let range = 50_000u32;
    let read_spec = WorkloadSpec::single(BenchKind::ContainsOnly, range, 20_000, 5);
    let upd_spec = WorkloadSpec::mixed(OpMix::C60, range, 20_000, 5);

    let read = run_gfsl(&read_spec, GfslParams::sized_for(range as u64 * 2), &cfg);
    let upd = run_gfsl(&upd_spec, GfslParams::sized_for(range as u64 * 2), &cfg);
    let t_read = evaluate(StructureKind::Gfsl, &read);
    let t_upd = evaluate(StructureKind::Gfsl, &upd);
    assert!(
        t_read.mops > t_upd.mops,
        "reads {} must beat updates {}",
        t_read.mops,
        t_upd.mops
    );

    let mc = run_mc(&upd_spec, McParams::sized_for(range as u64 * 2), &cfg);
    assert!(mc.txns_per_op() > 3.0 * upd.txns_per_op());
}

/// Every registered experiment runs end to end on a minimal configuration
/// and emits non-empty tables with consistent geometry.
#[test]
fn all_experiments_smoke() {
    let cfg = tiny_cfg();
    for id in [
        "table5_1", "table5_2", "fig5_4", "pkey", "ablate", "diag", "cyclesim",
    ] {
        let tables = experiments::run(id, &cfg);
        assert!(!tables.is_empty(), "{id} produced no tables");
        for t in &tables {
            assert!(!t.rows.is_empty(), "{id}: empty table {}", t.title);
            for row in &t.rows {
                assert_eq!(row.len(), t.headers.len(), "{id}: ragged row in {}", t.title);
            }
        }
    }
}

/// CSV artifacts land on disk when an output directory is configured.
#[test]
fn csv_artifacts_are_written() {
    let dir = std::env::temp_dir().join(format!("gfsl_e2e_{}", std::process::id()));
    let cfg = ExpConfig {
        out_dir: Some(dir.clone()),
        ..tiny_cfg()
    };
    let tables = experiments::run("fig5_1", &cfg);
    experiments::emit(&tables, &cfg);
    let entries: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert!(!entries.is_empty(), "no CSVs written to {}", dir.display());
    for e in entries {
        let path = e.unwrap().path();
        assert_eq!(path.extension().unwrap(), "csv", "{} is not a CSV", path.display());
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// GFSL-16 (half-warp teams) passes the same end-to-end pipeline.
#[test]
fn gfsl16_pipeline() {
    let spec = WorkloadSpec::mixed(OpMix::C80, 20_000, 10_000, 3);
    let cfg = RunConfig { workers: 2 };
    let params = GfslParams {
        team_size: TeamSize::Sixteen,
        pool_chunks: GfslParams::chunks_for(40_000, TeamSize::Sixteen),
        ..Default::default()
    };
    let m = run_gfsl(&spec, params, &cfg);
    assert_eq!(m.n_ops, 10_000);
    // 16-entry chunks read in ONE transaction per chunk (128 B = 1 line).
    let reads_per_chunk = m.traffic.read_txns as f64 / m.divergence.warp_steps as f64;
    assert!(
        reads_per_chunk < 1.6,
        "GFSL-16 chunk reads should be ~1 txn, got {reads_per_chunk}"
    );
    let t = evaluate(StructureKind::Gfsl, &m);
    assert!(t.mops.is_finite() && t.mops > 0.0);
}
