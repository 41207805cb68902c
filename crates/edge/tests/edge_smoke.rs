//! Socket-level integration tests for the edge server: full round trips,
//! commit-before-ack durability, typed overload shedding, slow-client
//! timeouts, framing-violation handling, read-your-writes under live
//! shard migrations, and self-healing of the engine.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gfsl::mc::strategy::Replay;
use gfsl::{AbortReason, CrashPoint, Error, Gfsl, GfslParams, OpAbort, TeamSize};
use gfsl_cluster::Cluster;
use gfsl_edge::proto::{self, Req, Resp};
use gfsl_edge::{EdgeClient, EdgeConfig, EdgeEngine, EdgeServer};
use gfsl_serve::{MemorySink, Reply};
use gfsl_workload::ServeOp;

fn single_engine() -> EdgeEngine {
    EdgeEngine::Single(Arc::new(Gfsl::new(GfslParams::default()).unwrap()))
}

fn connect(server: &EdgeServer) -> EdgeClient {
    EdgeClient::connect(server.addr(), Some(Duration::from_secs(5))).unwrap()
}

/// Shut `server` down and check that no op it served on `engine` panicked
/// into a quarantine: containment must not hide bugs in a run that injects
/// no crash.
fn shutdown_clean(server: EdgeServer, engine: &EdgeEngine) -> gfsl_edge::StatsSnapshot {
    let stats = server.shutdown();
    let check = |list: &Gfsl| {
        let r = list.repair_stats();
        assert_eq!((r.crashed_ops, r.quarantine_depth), (0, 0), "{r:?}");
    };
    match engine {
        EdgeEngine::Single(list) => check(list),
        EdgeEngine::Cluster(c) => c.shards().iter().for_each(|s| check(&s.list)),
    }
    stats
}

#[test]
fn every_op_round_trips_over_the_wire() {
    let engine = single_engine();
    let server = EdgeServer::start(engine.clone(), EdgeConfig::default()).unwrap();
    let mut c = connect(&server);

    assert_eq!(c.call(Req::Ping).unwrap(), Resp::Pong);
    assert_eq!(c.insert(10, 100).unwrap(), Resp::Inserted(true));
    assert_eq!(c.insert(20, 200).unwrap(), Resp::Inserted(true));
    assert_eq!(c.insert(10, 100).unwrap(), Resp::Inserted(false));
    assert_eq!(c.get(10).unwrap(), Resp::Got(Some(100)));
    assert_eq!(c.get(99).unwrap(), Resp::Got(None));
    assert_eq!(c.call(Req::Range(1, 50)).unwrap(), Resp::Ranged(2));
    assert_eq!(c.call(Req::MinEntry).unwrap(), Resp::MinIs(Some((10, 100))));
    assert_eq!(c.pop_min().unwrap(), Resp::Popped(Some((10, 100))));
    assert_eq!(c.delete(20).unwrap(), Resp::Deleted(true));
    assert_eq!(c.pop_min().unwrap(), Resp::Popped(None));

    let stats = shutdown_clean(server, &engine);
    assert_eq!(stats.pings, 1);
    assert!(stats.ops_ok >= 10);
    assert_eq!(stats.proto_errors, 0);
    assert_eq!(stats.ryw_violations, 0, "single session, disjoint keys");
}

#[test]
fn pipelined_requests_come_back_id_matched() {
    let engine = single_engine();
    let server = EdgeServer::start(engine.clone(), EdgeConfig::default()).unwrap();
    let mut c = connect(&server);
    let ids: Vec<(u64, u32)> = (1..=64u32).map(|k| (c.send(Req::Insert(k, k * 10)), k)).collect();
    for (id, k) in &ids {
        assert_eq!(c.recv(*id).unwrap(), Resp::Inserted(true), "key {k}");
    }
    // Claim out of order: query evens before odds.
    let gets: Vec<(u64, u32)> = (1..=64u32).map(|k| (c.send(Req::Get(k)), k)).collect();
    for (id, k) in gets.iter().filter(|(_, k)| k % 2 == 0) {
        assert_eq!(c.recv(*id).unwrap(), Resp::Got(Some(k * 10)));
    }
    for (id, k) in gets.iter().filter(|(_, k)| k % 2 == 1) {
        assert_eq!(c.recv(*id).unwrap(), Resp::Got(Some(k * 10)));
    }
    shutdown_clean(server, &engine);
}

#[test]
fn writes_commit_to_the_sink_before_ack() {
    let sink = Arc::new(Mutex::new(MemorySink::default()));
    let engine = single_engine();
    let server = EdgeServer::start_durable(
        engine.clone(),
        EdgeConfig::default(),
        sink.clone(),
    )
    .unwrap();
    let mut c = connect(&server);

    assert_eq!(c.insert(7, 70).unwrap(), Resp::Inserted(true));
    // The ack has arrived, so the effect must already be in the sink —
    // commit-before-ack means no window where the reply exists but the
    // durable record does not.
    {
        let s = sink.lock().unwrap();
        assert!(s.commits >= 1);
        assert!(s
            .effects
            .iter()
            .any(|e| e.key == 7 && e.value == Some(70)));
    }
    assert_eq!(c.delete(7).unwrap(), Resp::Deleted(true));
    {
        let s = sink.lock().unwrap();
        assert!(s.effects.iter().any(|e| e.key == 7 && e.value.is_none()));
    }
    // Reads and no-op writes add no effects.
    let effects_now = sink.lock().unwrap().effects.len();
    assert_eq!(c.get(7).unwrap(), Resp::Got(None));
    assert_eq!(c.delete(7).unwrap(), Resp::Deleted(false));
    assert_eq!(sink.lock().unwrap().effects.len(), effects_now);
    shutdown_clean(server, &engine);
}

#[test]
fn overload_sheds_with_typed_frames_and_the_connection_survives() {
    // Tiny admission bound, long epoch deadline: a pipelined burst must
    // overflow admission and come back as typed Shed frames — not as a
    // closed connection.
    let cfg = EdgeConfig {
        workers: 1,
        batch_ops: 8,
        intake_cap: 8,
        epoch_us: 2_000,
        drain_ns_per_req: 1_000_000, // 1 ms/req so hints are nonzero ms
        ..EdgeConfig::default()
    };
    let engine = single_engine();
    let server = EdgeServer::start(engine.clone(), cfg).unwrap();
    let mut c = connect(&server);

    let ids: Vec<u64> = (1..=512u32).map(|k| c.send(Req::Insert(k, k))).collect();
    let mut ok = 0u64;
    let mut shed = 0u64;
    for id in ids {
        match c.recv(id).unwrap() {
            Resp::Inserted(_) => ok += 1,
            Resp::Shed { retry_after_ms, .. } => {
                shed += 1;
                assert!(retry_after_ms >= 1, "drain hint surfaces in ms");
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert!(ok > 0, "some of the burst is admitted");
    assert!(shed > 0, "the rest sheds with typed frames");
    // The same connection still serves after the storm.
    assert_eq!(c.call(Req::Ping).unwrap(), Resp::Pong);
    assert_eq!(c.get(1).unwrap(), Resp::Got(Some(1)));

    let stats = shutdown_clean(server, &engine);
    assert_eq!(stats.sheds, shed);
    assert_eq!(stats.proto_errors, 0);
    assert_eq!(stats.timeouts, 0);
}

#[test]
fn malformed_frame_answers_proto_then_sheds_the_connection() {
    let engine = single_engine();
    let server = EdgeServer::start(engine.clone(), EdgeConfig::default()).unwrap();
    let mut s = TcpStream::connect(server.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut hello = Vec::new();
    proto::encode_hello(&mut hello);
    s.write_all(&hello).unwrap();
    let mut server_hello = [0u8; proto::HELLO_LEN];
    s.read_exact(&mut server_hello).unwrap();
    proto::check_hello(&server_hello).unwrap();

    // A frame with a hostile length field (64 KiB claim).
    s.write_all(&u16::MAX.to_le_bytes()).unwrap();

    // Expect exactly one typed Proto frame, then EOF.
    let mut buf = Vec::new();
    let mut chunk = [0u8; 256];
    loop {
        match s.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) => panic!("expected clean close, got {e}"),
        }
    }
    let (id, resp, used) = proto::decode_resp(&buf).unwrap();
    assert_eq!(id, 0);
    assert_eq!(
        resp,
        Resp::Proto { code: proto::DecodeError::Oversized(u16::MAX).code() }
    );
    assert_eq!(used, buf.len(), "nothing after the final error frame");

    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let st = server.stats();
        if st.proto_errors == 1 && st.conns_closed >= 1 {
            break;
        }
        assert!(Instant::now() < deadline, "proto shed not accounted: {st:?}");
        std::thread::sleep(Duration::from_millis(10));
    }
    shutdown_clean(server, &engine);
}

#[test]
fn slow_clients_time_out_but_idle_clients_do_not() {
    let cfg = EdgeConfig {
        idle_timeout_ms: 150,
        ..EdgeConfig::default()
    };
    let engine = single_engine();
    let server = EdgeServer::start(engine.clone(), cfg).unwrap();

    // An idle-but-clean client survives well past the timeout.
    let mut idle = connect(&server);
    // A slowloris: handshake, then a partial frame and silence.
    let mut slow = TcpStream::connect(server.addr()).unwrap();
    slow.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut hello = Vec::new();
    proto::encode_hello(&mut hello);
    slow.write_all(&hello).unwrap();
    let mut server_hello = [0u8; proto::HELLO_LEN];
    slow.read_exact(&mut server_hello).unwrap();
    let mut frame = Vec::new();
    Req::Insert(1, 1).encode(9, &mut frame);
    slow.write_all(&frame[..3]).unwrap(); // length + first byte, then stall

    std::thread::sleep(Duration::from_millis(500));

    // The stalled connection was dropped...
    let mut chunk = [0u8; 64];
    assert_eq!(slow.read(&mut chunk).unwrap(), 0, "slowloris gets EOF");
    // ...the idle one still serves.
    assert_eq!(idle.call(Req::Ping).unwrap(), Resp::Pong);

    let stats = shutdown_clean(server, &engine);
    assert_eq!(stats.timeouts, 1, "exactly the stalled session timed out");
}

#[test]
fn snap_range_serves_pinned_counts_over_the_wire() {
    // A scan tenant against an mvcc cluster engine: pinned counts answer
    // at the edge (outside the epoch batch), carry a nondecreasing
    // snapshot version, and a hostile window fails typed — the
    // connection survives all of it.
    let params = GfslParams { mvcc: true, ..GfslParams::default() };
    let engine = EdgeEngine::Cluster(Arc::new(Cluster::new(params, 2).unwrap()));
    let server = EdgeServer::start(engine.clone(), EdgeConfig::default()).unwrap();
    let mut c = connect(&server);

    for k in 1..=50u32 {
        assert!(matches!(c.insert(k, k).unwrap(), Resp::Inserted(true)));
    }
    let Resp::Snapped { version: v1, count } = c.snap_range(1, 100).unwrap() else {
        panic!("expected Snapped");
    };
    assert_eq!(count, 50);
    assert!(v1 >= 1, "mvcc engine stamps a real version");

    // More writes advance the clock; a later snapshot never reads older.
    for k in 51..=80u32 {
        assert!(matches!(c.insert(k, k).unwrap(), Resp::Inserted(true)));
    }
    let Resp::Snapped { version: v2, count } = c.snap_range(1, 100).unwrap() else {
        panic!("expected Snapped");
    };
    assert_eq!(count, 80);
    assert!(v2 > v1, "snapshot versions advance with the write clock");

    // Hostile windows: typed failure, connection intact.
    assert!(matches!(c.snap_range(0, 10).unwrap(), Resp::Failed { .. }));
    assert!(matches!(c.snap_range(9, 3).unwrap(), Resp::Failed { .. }));
    assert_eq!(c.get(1).unwrap(), Resp::Got(Some(1)));

    // An engine without the knob still answers, unpinned.
    let plain_engine = single_engine();
    let plain = EdgeServer::start(plain_engine.clone(), EdgeConfig::default()).unwrap();
    let mut p = connect(&plain);
    assert!(matches!(p.insert(5, 5).unwrap(), Resp::Inserted(true)));
    assert_eq!(
        p.snap_range(1, 10).unwrap(),
        Resp::Snapped { version: 0, count: 1 },
        "mvcc-off fallback reports version 0"
    );
    shutdown_clean(plain, &plain_engine);

    let stats = shutdown_clean(server, &engine);
    assert_eq!(stats.snaps, 4, "two pinned counts + two rejected windows");
    assert_eq!(stats.proto_errors, 0);
}

#[test]
fn read_your_writes_holds_across_live_shard_migrations() {
    // The satellite regression test: sessions hammer write→read cycles in
    // disjoint key namespaces over a cluster engine while a churn thread
    // splits and merges shards under them. Every read must see the
    // session's own last acknowledged write; the server-side tracker
    // counts violations exactly because the namespaces are disjoint.
    let cluster = Arc::new(Cluster::new(GfslParams::default(), 4).unwrap());
    let engine = EdgeEngine::Cluster(cluster.clone());
    let server = EdgeServer::start(
        engine.clone(),
        EdgeConfig { workers: 2, ..EdgeConfig::default() },
    )
    .unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let churn = {
        let cluster = cluster.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut round = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let ids: Vec<u64> = cluster.shards().iter().map(|s| s.id).collect();
                if round % 2 == 0 {
                    for id in &ids {
                        let _ = cluster.split_shard(*id);
                    }
                } else {
                    for id in &ids {
                        let _ = cluster.merge_with_right(*id);
                    }
                }
                round += 1;
                std::thread::sleep(Duration::from_millis(2));
            }
        })
    };

    const SESSIONS: usize = 4;
    const SPAN: u32 = 1 << 20; // spread namespaces across the shard space
    let mut workers = Vec::new();
    for t in 0..SESSIONS {
        let addr = server.addr();
        workers.push(std::thread::spawn(move || {
            let mut c = EdgeClient::connect(addr, Some(Duration::from_secs(5))).unwrap();
            let base = (t as u32) * SPAN + 1;
            let mut checks = 0u64;
            for round in 0..120u32 {
                let k = base + (round % 32) * 97;
                assert!(matches!(c.insert(k, round + 1).unwrap(), Resp::Inserted(_)));
                match c.get(k).unwrap() {
                    Resp::Got(Some(_)) => checks += 1,
                    other => panic!("read-your-write miss on {k}: {other:?}"),
                }
                assert!(matches!(c.delete(k).unwrap(), Resp::Deleted(true)));
                match c.get(k).unwrap() {
                    Resp::Got(None) => checks += 1,
                    other => panic!("read-your-delete miss on {k}: {other:?}"),
                }
            }
            checks
        }));
    }
    let client_checks: u64 = workers.into_iter().map(|w| w.join().unwrap()).sum();
    stop.store(true, Ordering::Relaxed);
    churn.join().unwrap();

    let stats = shutdown_clean(server, &engine);
    assert_eq!(client_checks, (SESSIONS as u64) * 240);
    assert_eq!(
        stats.ryw_violations, 0,
        "server-side tracker agrees: no session saw a stale read"
    );
    assert!(stats.ops_ok >= client_checks, "all checks rode real engine replies");
}

/// A small structure: 16-entry chunks, a 4096-chunk pool.
fn small_params() -> GfslParams {
    GfslParams {
        team_size: TeamSize::Sixteen,
        pool_chunks: 1 << 12,
        ..GfslParams::default()
    }
}

/// Crash one (contained) `try_insert` deterministically before any server runs:
/// the mid-split victim leaves its held chunks quarantined (still
/// lock-held), the state the edge must route around and repair online.
fn crash_one_split(list: &Gfsl) {
    gfsl::quiet_injected_panics();
    let ctl = gfsl::chaos::controller(
        1,
        Replay::new(Vec::new()),
        Some((CrashPoint::SplitPublish, 1)),
    );
    let mut h = list.handle_with(ctl.probe(0));
    for k in 0..200u32 {
        match h.try_insert(2 * k + 1, 7) {
            Ok(_) => {}
            Err(Error::Aborted(a)) => {
                assert_eq!(a.reason, AbortReason::Crashed);
                assert!(list.quarantine_depth() > 0, "crash leaves a quarantine");
                return;
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    panic!("the injected crash must fire before serving");
}

/// Serve 40 pipelined rounds of mixed point ops over keys `1..=2000`, and
/// one range over all of them per round, on one connection and one worker;
/// return the final counters.
fn serve_rounds(engine: EdgeEngine) -> gfsl_edge::StatsSnapshot {
    let cfg = EdgeConfig {
        workers: 1,
        ..EdgeConfig::default()
    };
    let server = EdgeServer::start(engine, cfg).unwrap();
    let mut c = connect(&server);
    for round in 0..40u32 {
        let ids: Vec<u64> = (0..64u32)
            .map(|i| {
                let k = (round * 64 + i) * 37 % 2_000 + 1;
                c.send(match i % 5 {
                    // On a cluster the window fans out over every shard,
                    // the crashed one included.
                    _ if i == 2 => Req::Range(1, 2_000),
                    0 => Req::Insert(k, k),
                    1 => Req::Delete(k),
                    _ => Req::Get(k),
                })
            })
            .collect();
        for id in ids {
            // An op that met the quarantine answers `Failed`, one a
            // degraded rung refused `Shed`; neither breaks the session.
            let resp = c.recv(id).unwrap();
            assert!(!matches!(resp, Resp::Proto { .. }), "{resp:?}");
        }
    }
    server.shutdown()
}

/// `service_heals_through_a_precrashed_structure`'s port: the edge loop
/// heals on both engine arms.
#[test]
fn the_edge_heals_through_a_precrashed_structure() {
    let check = |stats: &gfsl_edge::StatsSnapshot, depth: usize, repaired: u64| {
        assert_eq!(depth, 0, "the edge repaired the quarantine");
        assert!(
            repaired >= 1,
            "the heal step repaired the crashed op's chunks"
        );
        assert!(
            stats.max_mode >= 1,
            "the repair was observed as a fault: {stats:?}"
        );
        assert!(
            stats.mode_transitions >= 2,
            "the supervisor must degrade and return to normal: {stats:?}"
        );
        assert!(
            stats.time_to_heal_ns > 0,
            "a completed heal reports its duration"
        );
    };
    let evens = || (1..=2_000u32).filter(|k| k % 2 == 0);

    let list = Arc::new(Gfsl::prefilled(small_params(), evens()).unwrap());
    crash_one_split(&list);
    let stats = serve_rounds(EdgeEngine::Single(list.clone()));
    check(
        &stats,
        list.quarantine_depth(),
        list.repair_stats().repaired(),
    );
    list.assert_valid();

    let pairs = evens().map(|k| (k, k));
    let cluster = Arc::new(Cluster::prefilled(small_params(), 4, 2_000, pairs).unwrap());
    let shards = cluster.shards();
    crash_one_split(&shards[0].list);
    // A fanned-out range that meets the crashed shard's quarantine answers
    // `Failed`; it does not unwind out of the engine into the worker.
    let mut out = Vec::new();
    EdgeEngine::Cluster(cluster.clone()).execute(&[ServeOp::Range(1, 2_000)], &mut out);
    let quarantined = |r: &Reply| {
        matches!(
            r,
            Reply::Failed(Error::Aborted(OpAbort { reason: AbortReason::Quarantined, .. }))
        )
    };
    assert!(matches!(&out[..], [r] if quarantined(r)), "{out:?}");
    let stats = serve_rounds(EdgeEngine::Cluster(cluster.clone()));
    assert_eq!(cluster.shard_count(), 4, "no migration retired a shard");
    check(
        &stats,
        shards.iter().map(|s| s.list.quarantine_depth()).sum(),
        shards
            .iter()
            .map(|s| s.list.repair_stats().repaired())
            .sum(),
    );
    cluster.assert_valid();
}

/// A worker walked to `Drain` admits nothing and so runs no epoch; its idle
/// passes must still heal and step it back down. Held handles keep the edge
/// from repairing a pre-crashed list until the worker drains; once they go,
/// a client sending only writes finds the worker serving again.
#[test]
fn a_drained_edge_heals_between_epochs() {
    let evens = (1..=2_000u32).filter(|k| k % 2 == 0);
    let list = Arc::new(Gfsl::prefilled(small_params(), evens).unwrap());
    crash_one_split(&list);
    let held: Vec<_> = (0..gfsl::MAX_RECLAIM_HANDLES).map(|_| list.handle()).collect();
    let cfg = EdgeConfig {
        workers: 1,
        ..EdgeConfig::default()
    };
    let server = EdgeServer::start(EdgeEngine::Single(list.clone()), cfg).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    let wait_for = |what: &str, done: &dyn Fn(&gfsl_edge::StatsSnapshot) -> bool| {
        while !done(&server.stats()) {
            assert!(Instant::now() < deadline, "{what}: {:?}", server.stats());
            std::thread::sleep(Duration::from_millis(1));
        }
    };
    wait_for("an unrepairable quarantine drains the worker", &|s| s.max_mode == 3);
    let mut c = connect(&server);
    assert!(matches!(c.insert(3_001, 1).unwrap(), Resp::Shed { mode: 3, .. }));

    drop(held);
    for k in 3_002.. {
        match c.insert(k, k).unwrap() {
            Resp::Inserted(true) => break,
            Resp::Shed { .. } => {}
            other => panic!("{other:?}"),
        }
        assert!(Instant::now() < deadline, "writes stay shed: {:?}", server.stats());
        std::thread::sleep(Duration::from_millis(1));
    }
    wait_for("the worker returns to Normal", &|s| s.time_to_heal_ns > 0);
    let stats = server.shutdown();
    assert_eq!(list.quarantine_depth(), 0, "the edge repaired the quarantine");
    assert!(list.repair_stats().repaired() >= 1);
    assert_eq!(
        (stats.max_mode, stats.mode_transitions),
        (3, 6),
        "three rungs up, three down: {stats:?}"
    );
    list.assert_valid();
}

/// A reserved key is the client's mistake, not a fault: however many of
/// them the engine answers `Failed(InvalidKey)`, its rung stays at
/// `Normal`.
#[test]
fn a_contained_edge_does_not_degrade_on_reserved_keys() {
    let engine = EdgeEngine::Single(Arc::new(Gfsl::new(small_params()).unwrap()));
    let cfg = EdgeConfig {
        workers: 1,
        ..EdgeConfig::default()
    };
    let server = EdgeServer::start(engine.clone(), cfg).unwrap();
    let mut c = connect(&server);
    let invalid = Resp::Failed {
        code: proto::error_code(&Error::InvalidKey(0)),
    };
    for round in 0..20u32 {
        let ids: Vec<u64> = (0..64u32)
            .map(|i| c.send(Req::Insert(0, round * 64 + i)))
            .collect();
        for id in ids {
            assert_eq!(c.recv(id).unwrap(), invalid);
        }
    }
    let stats = shutdown_clean(server, &engine);
    assert_eq!(stats.ops_failed, 20 * 64);
    assert!(stats.epochs >= 20, "every round ran through the heal step");
    assert_eq!(
        (stats.max_mode, stats.mode_transitions),
        (0, 0),
        "{stats:?}"
    );
}

/// The scrubber runs on the passes that did no work: a server nobody talks
/// to still re-validates chunks.
#[test]
fn an_idle_edge_advances_the_scrubber() {
    let list = Arc::new(Gfsl::prefilled(small_params(), 1..=2_000).unwrap());
    let engine = EdgeEngine::Single(list.clone());
    let cfg = EdgeConfig {
        workers: 1,
        ..EdgeConfig::default()
    };
    let server = EdgeServer::start(engine.clone(), cfg).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while list.repair_stats().scrubbed_chunks == 0 {
        assert!(Instant::now() < deadline, "the idle worker never scrubbed");
        std::thread::sleep(Duration::from_millis(1));
    }
    let stats = shutdown_clean(server, &engine);
    assert_eq!(stats.epochs, 0, "no traffic, no epoch");
    assert_eq!(list.repair_stats().scrub_violations, 0);
}
