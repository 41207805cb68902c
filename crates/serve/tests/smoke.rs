//! End-to-end smoke tests for the serving front end — the CI gate.
//!
//! Covers the acceptance properties at a size that runs in seconds:
//! a low-load closed loop completes with zero sheds; overload sheds with
//! the typed path (and closed-loop retries eventually complete
//! everything); and both policies complete one workload to one final
//! state. Modeled runs replaying to one trace hash is `service::tests`'.

use gfsl::{Gfsl, GfslParams, TeamSize};
use gfsl_serve::{
    env_seed, serve, ClosedSource, ExecMode, Fifo, KeySorted, OpenSource, ServeConfig,
};
use gfsl_workload::{ClosedLoop, OpenLoop, ServeMix};

fn test_seed() -> u64 {
    let seed = env_seed(0);
    eprintln!("GFSL_TEST_SEED={seed} (set this env var to replay)");
    seed
}

fn list_for(range: u32) -> Gfsl {
    let params = GfslParams {
        team_size: TeamSize::Sixteen,
        pool_chunks: 1 << 14,
        ..Default::default()
    };
    Gfsl::prefilled(params, (1..=range).filter(|k| k % 2 == 0)).unwrap()
}

#[test]
fn low_load_closed_loop_sheds_nothing() {
    let seed = test_seed() ^ 0x10AD;
    let list = list_for(10_000);
    // 32 clients, long think times, roomy intake: far below capacity.
    let pop = ClosedLoop::new(32, 100, 50_000, ServeMix::RANGE10, 10_000, seed);
    let total = pop.total_ops();
    let mut src = ClosedSource::new(pop, 10_000);
    let cfg = ServeConfig {
        workers: 2,
        epoch_ns: 100_000,
        batch_ops: 128,
        max_batch: 64,
        intake_cap: 1024,
        exec: ExecMode::Modeled { ns_per_op: 200 },
    };
    let report = serve(&list, &cfg, &mut Fifo::default(), &mut src);
    // Modeled clock: a function of the seed alone, in any process.
    eprintln!("low-load trace hash {:#018x}", report.trace_hash);
    assert_eq!(report.metrics.ops, total, "every request completes");
    assert_eq!(report.metrics.sheds, 0, "low load must not shed");
    assert_eq!(report.metrics.failed, 0);
    assert_eq!(src.retries, 0);
    assert!(report.metrics.ranges > 0, "RANGE10 mix exercises range scans");
    assert!(report.metrics.latency.p50_ns() <= report.metrics.latency.p99_ns());
    list.assert_valid();
}

#[test]
fn overload_sheds_with_typed_error_and_open_clients_drop() {
    let seed = test_seed() ^ 0x54ED;
    let list = list_for(2_000);
    // Offered rate far above modeled capacity, tiny intake: must shed.
    let open = OpenLoop::new(ServeMix::C80, 2_000, 64, 20_000, 10.0, seed);
    let mut src = OpenSource::new(open);
    let cfg = ServeConfig {
        workers: 2,
        epoch_ns: 20_000,
        batch_ops: 128,
        max_batch: 64,
        intake_cap: 128,
        exec: ExecMode::Modeled { ns_per_op: 2_000 },
    };
    let report = serve(&list, &cfg, &mut Fifo::default(), &mut src);
    assert!(report.metrics.sheds > 0, "overload must shed");
    assert_eq!(report.metrics.sheds, src.dropped, "every shed is typed and counted");
    assert_eq!(
        report.metrics.ops + report.metrics.sheds,
        20_000,
        "each arrival either completes or sheds"
    );
    assert!(
        report.metrics.queue_depth_max <= cfg.intake_cap,
        "backpressure bounds the queue"
    );
}

#[test]
fn closed_loop_retries_complete_despite_sheds() {
    let seed = test_seed() ^ 0x4E74;
    let list = list_for(1_000);
    // Zero think time + tiny intake: bursts overflow, clients back off and
    // retry; everything still completes because the loop is closed.
    let pop = ClosedLoop::new(64, 20, 0, ServeMix::C80, 1_000, seed);
    let total = pop.total_ops();
    let mut src = ClosedSource::new(pop, 5_000);
    let cfg = ServeConfig {
        workers: 2,
        epoch_ns: 10_000,
        batch_ops: 32,
        max_batch: 32,
        intake_cap: 32,
        exec: ExecMode::Modeled { ns_per_op: 1_000 },
    };
    let report = serve(&list, &cfg, &mut Fifo::default(), &mut src);
    assert_eq!(report.metrics.ops, total, "closed loop retries until done");
    assert_eq!(report.metrics.sheds, src.retries);
    list.assert_valid();
}

#[test]
fn policies_complete_the_same_workload() {
    let seed = test_seed() ^ 0x9013;
    let cfg = ServeConfig {
        workers: 2,
        epoch_ns: 50_000,
        batch_ops: 128,
        max_batch: 64,
        intake_cap: 512,
        exec: ExecMode::Modeled { ns_per_op: 300 },
    };
    let mut fifo = Fifo::default();
    let mut sorted = KeySorted::default();
    let policies: [&mut dyn gfsl_serve::BatchPolicy; 2] = [&mut fifo, &mut sorted];
    let mut seen = Vec::new();
    for policy in policies {
        let list = list_for(4_000);
        let pop = ClosedLoop::new(24, 40, 2_000, ServeMix::RANGE10, 4_000, seed);
        let mut src = ClosedSource::new(pop, 2_000);
        let report = serve(&list, &cfg, policy, &mut src);
        assert_eq!(report.metrics.sheds, 0);
        list.assert_valid();
        seen.push((report.metrics.ops, list.pairs()));
    }
    assert_eq!(seen[0], seen[1]);
}
