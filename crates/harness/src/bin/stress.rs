//! Long-running concurrent soak test for GFSL.
//!
//! ```text
//! stress [--seconds N] [--threads N] [--range N] [--mix i,d,c] [--team 16|32] [--seed S]
//! stress --chaos [--seeds N] [--threads N] [--seed S]
//! stress --chaos --seed S [--threads N] --schedule <trace>:<decisions>
//! stress --modelcheck <config|all> [--strategy dfs|walk] [--bound N] [--episodes N] [--no-por] [--seed S]
//! stress --modelcheck <config> --schedule <trace>:<decisions>
//! ```
//!
//! Default mode runs a randomized mixed workload from many threads,
//! periodically spot-checks reader invariants, and finishes with a full
//! structural validation plus a per-key oracle check (each thread owns a
//! disjoint key class, so every thread's final state is exactly
//! predictable).
//!
//! `--chaos` instead runs a deterministic fault-injection campaign: for
//! each of `--seeds N` seeds, worker threads hammer a tiny shared key range
//! as probe-granularity participants of the schedule turnstile
//! ([`gfsl::McController`] under a seeded random walk), which serializes
//! every simulated memory access and yields inside the lock protocol's
//! named crash points. Every operation is recorded and the merged history
//! is checked for per-key linearizability; structural invariants are
//! validated at every quiescence point. A failing seed's recorded decisions
//! are ddmin-minimized and printed as a one-line `--schedule` spec that
//! `--chaos --seed S --schedule <spec>` replays; at the end the first
//! seed's decisions are replayed and must reproduce its trace hash.
//!
//! `--modelcheck` runs the systematic schedule explorer (see
//! `gfsl::mc`) on a named configuration from the shared registry — or
//! `all` of them — with bounded-exhaustive DFS (`--strategy dfs`, default)
//! or a seeded random walk (`--strategy walk`). Any counterexample prints
//! a one-line `--schedule` spec; passing that spec back replays the exact
//! schedule, which is how a CI failure becomes a local repro. The
//! `--modelcheck` modes need the pool's accesses compiled as yield points:
//! build with `--features modelcheck` (forwards `gfsl-gpu-mem/sched`).

use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use gfsl::mc::strategy::{RandomWalk, Replay, Scheduler};
use gfsl::{
    check_linearizable, Gfsl, GfslParams, HistoryClock, McController, OpAction, OpRecord, OpStats,
    Recorder, TeamSize,
};
use gfsl_workload::SplitMix64;

struct Args {
    seconds: u64,
    threads: u32,
    range: u32,
    mix: (u32, u32, u32),
    team: TeamSize,
    seed: u64,
    chaos: bool,
    seeds: u32,
    modelcheck: Option<String>,
    schedule: Option<String>,
    strategy: String,
    bound: u32,
    episodes: u64,
    no_por: bool,
}

fn parse() -> Args {
    let mut a = Args {
        seconds: 10,
        threads: 4,
        range: 100_000,
        mix: (20, 20, 60),
        team: TeamSize::ThirtyTwo,
        seed: 0xD06_F00D,
        chaos: false,
        seeds: 16,
        modelcheck: None,
        schedule: None,
        strategy: "dfs".to_string(),
        bound: 2,
        episodes: 1 << 20,
        no_por: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().expect("flag value");
        match flag.as_str() {
            "--seconds" => a.seconds = val().parse().expect("seconds"),
            "--threads" => a.threads = val().parse().expect("threads"),
            "--range" => a.range = val().parse().expect("range"),
            "--seed" => {
                // Accept both the decimal form from the replay hint and the
                // 0x form the per-seed progress lines display.
                let v = val();
                a.seed = match v.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16).expect("seed"),
                    None => v.parse().expect("seed"),
                };
            }
            "--chaos" => a.chaos = true,
            "--seeds" => a.seeds = val().parse().expect("seeds"),
            "--modelcheck" => a.modelcheck = Some(val()),
            "--schedule" => a.schedule = Some(val()),
            "--strategy" => a.strategy = val(),
            "--bound" => a.bound = val().parse().expect("bound"),
            "--episodes" => a.episodes = val().parse().expect("episodes"),
            "--no-por" => a.no_por = true,
            "--team" => {
                a.team = match val().as_str() {
                    "16" => TeamSize::Sixteen,
                    "32" => TeamSize::ThirtyTwo,
                    other => panic!("--team must be 16 or 32, got {other}"),
                }
            }
            "--mix" => {
                let v = val();
                let parts: Vec<u32> = v.split(',').map(|p| p.parse().expect("mix")).collect();
                assert_eq!(parts.len(), 3, "--mix i,d,c");
                assert_eq!(parts.iter().sum::<u32>(), 100, "mix must sum to 100");
                a.mix = (parts[0], parts[1], parts[2]);
            }
            other => panic!("unknown flag {other}"),
        }
    }
    a
}

/// Tiny shared key range: every thread fights over the same few chunks so
/// splits, merges, and lock handoffs happen constantly.
const CHAOS_RANGE: u32 = 48;
/// Ops per worker per round. Every simulated memory access is a schedule
/// point (condvar round-trip), so chaos ops are ~1000x slower than free-run.
const CHAOS_OPS: u64 = 40;
/// Rounds per seed; each round gets a fresh controller (fresh schedule) and
/// a quiescence check, and the history carries across rounds.
const CHAOS_ROUNDS: u64 = 2;

/// Replays a failing seed's minimization may spend (~50 ms each).
const MINIMIZE_REPLAYS: u32 = 2_000;

struct SeedOutcome {
    /// The first check that failed, if any; the rounds after it do not run.
    failure: Option<String>,
    trace: u64,
    steps: u64,
    stats: OpStats,
    crash_hits: Vec<(gfsl::CrashPoint, u64)>,
    /// The decision bytes of every round, in order: a [`Replay`] of them
    /// walks the same schedule.
    decisions: Vec<u8>,
}

/// One full chaos run for one seed: CHAOS_ROUNDS rounds of scheduled
/// mayhem, validating invariants and per-key linearizability at each
/// quiescence point. The workload is a function of `seed`, the schedule of
/// `strategy` — one episode of it, shared by the rounds.
fn run_chaos_seed(a: &Args, seed: u64, strategy: impl Scheduler + 'static) -> SeedOutcome {
    let threads = a.threads.clamp(2, 4) as usize;
    let list = Gfsl::new(GfslParams {
        team_size: TeamSize::Sixteen,
        pool_chunks: 1 << 12,
        seed,
        ..Default::default()
    })
    .expect("chaos params are valid");
    let strategy = gfsl::mc::controller::one_episode(strategy);

    let clock = HistoryClock::new();
    // Keys present at the start of the current round (round 0: empty).
    let mut initial: HashMap<u32, u32> = HashMap::new();
    let mut out = SeedOutcome {
        failure: None,
        trace: gfsl_rng::fnv::OFFSET,
        steps: 0,
        stats: OpStats::new(),
        crash_hits: Vec::new(),
        decisions: Vec::new(),
    };

    for round in 0..CHAOS_ROUNDS {
        let ctl = McController::new(threads, strategy.clone(), gfsl::chaos::MAX_STEPS, None);
        let per_thread: Vec<Result<(Vec<OpRecord>, OpStats), String>> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..threads)
                .map(|t| {
                    let list = &list;
                    let ctl = &ctl;
                    let clock = &clock;
                    s.spawn(move || {
                        let mut h = list.handle_with(ctl.probe(t));
                        let mut rec = Recorder::new(clock);
                        let mut rng =
                            SplitMix64::new(seed ^ (round << 8) ^ ((t as u64 + 1) << 40));
                        // No crash is injected: an op's `Err` (the step bomb,
                        // an assert, a wait given up) fails the check.
                        let failed = |op: &'static str, k: u32| {
                            move |e: gfsl::Error| format!("thread {t}: {op} {k}: {e}")
                        };
                        for _ in 0..CHAOS_OPS {
                            let k = rng.below(u64::from(CHAOS_RANGE)) as u32 + 1;
                            let roll = rng.below(100);
                            let inv = rec.invoke();
                            let action = if roll < 40 {
                                let v = rng.next_u64() as u32;
                                let ok = h.try_insert(k, v).map_err(failed("insert", k))?;
                                OpAction::Insert { value: v, ok }
                            } else if roll < 75 {
                                OpAction::Remove { ok: h.try_remove(k).map_err(failed("remove", k))? }
                            } else {
                                OpAction::Get { found: h.try_get(k).map_err(failed("get", k))? }
                            };
                            rec.finish(k, action, inv);
                        }
                        Ok((rec.records, h.stats()))
                    })
                })
                .collect();
            // A worker's own panic outside an op: its message is on stderr.
            workers
                .into_iter()
                .map(|w| w.join().unwrap_or_else(|_| Err("a worker panicked".into())))
                .collect()
        });
        out.trace = gfsl_rng::fnv::fold_u64(out.trace, ctl.trace_hash());
        out.steps += ctl.steps();
        out.decisions.extend(ctl.decisions());
        add_hits(&mut out.crash_hits, ctl.crash_point_hits());

        // All workers joined: quiescence. Structure must be fully valid.
        let violations = list.validate();
        if !violations.is_empty() {
            out.failure = Some(format!(
                "seed 0x{seed:016x} round {round}: {} invariant violations: {}",
                violations.len(),
                violations
                    .iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join("; ")
            ));
            return out;
        }

        let mut records: Vec<OpRecord> = Vec::new();
        for worker in per_thread {
            let (r, st) = match worker {
                Ok(done) => done,
                Err(e) => {
                    out.failure = Some(format!("seed 0x{seed:016x} round {round}: {e}"));
                    return out;
                }
            };
            records.extend(r);
            out.stats.merge(&st);
        }

        // Quiescent reads of the whole range close the round's history and
        // pin the exact state the next round starts from.
        let mut next_initial = HashMap::new();
        {
            let mut h = list.handle();
            let mut rec = Recorder::new(&clock);
            for k in 1..=CHAOS_RANGE {
                let inv = rec.invoke();
                // Valid and quiescent: nothing is locked to abort on.
                let found = h.try_get(k).expect("quiescent get");
                rec.finish(k, OpAction::Get { found }, inv);
                if let Some(v) = found {
                    next_initial.insert(k, v);
                }
            }
            records.extend(rec.records);
        }

        if let Err(errs) = check_linearizable(&records, &initial) {
            out.failure = Some(format!(
                "seed 0x{seed:016x} round {round}: history NOT linearizable: {}",
                errs.join(" | ")
            ));
            return out;
        }
        initial = next_initial;
    }
    out
}

/// Add one controller's crash-point hit table into a running total.
fn add_hits(total: &mut Vec<(gfsl::CrashPoint, u64)>, hits: Vec<(gfsl::CrashPoint, u64)>) {
    if total.is_empty() {
        *total = hits;
    } else {
        for (acc, (_, n)) in total.iter_mut().zip(hits) {
            acc.1 += n;
        }
    }
}

/// `--schedule`: replay one `<trace>:<decisions>` spec — as a failing
/// campaign's or exploration's `replay with:` line asks — through `run`,
/// which returns the replayed trace hash, step count and failure.
fn replay_spec(
    what: &str,
    spec: &str,
    run: impl FnOnce(Vec<u8>) -> (u64, u64, Option<String>),
) -> ExitCode {
    let (want_trace, decisions) = match gfsl::mc::parse_spec(spec) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("bad --schedule spec: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (trace, steps, failure) = run(decisions);
    println!("replay {what}: trace 0x{trace:016x}, {steps} scheduled steps");
    if trace != want_trace {
        println!(
            "WARNING: replayed trace differs from the spec's 0x{want_trace:016x} \
             (the code or the run's other flags changed since the schedule was captured?)"
        );
    }
    match failure {
        Some(f) => {
            println!("schedule FAILS: {f}");
            ExitCode::FAILURE
        }
        None => {
            println!("schedule passes");
            ExitCode::SUCCESS
        }
    }
}

fn chaos_main(a: &Args) -> ExitCode {
    if let Some(spec) = &a.schedule {
        return replay_spec(&format!("seed 0x{:016x}", a.seed), spec, |decisions| {
            let out = run_chaos_seed(a, a.seed, Replay::new(decisions));
            (out.trace, out.steps, out.failure)
        });
    }
    if a.seeds == 0 {
        eprintln!("--seeds must be at least 1");
        return ExitCode::FAILURE;
    }
    println!(
        "chaos campaign: {} seeds, {} threads, range {}, {} ops/thread, {} rounds/seed",
        a.seeds,
        a.threads.clamp(2, 4),
        CHAOS_RANGE,
        CHAOS_OPS,
        CHAOS_ROUNDS
    );
    let mut first: Option<(u64, u64, Vec<u8>)> = None; // (seed, trace hash, decisions)
    let mut stats = OpStats::new();
    let mut crash_hits: Vec<(gfsl::CrashPoint, u64)> = Vec::new();
    let mut steps = 0u64;
    for i in 0..a.seeds {
        let seed = a
            .seed
            .wrapping_add(u64::from(i).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let out = run_chaos_seed(a, seed, RandomWalk::new(seed, 1));
        if let Some(e) = &out.failure {
            eprintln!("CHAOS FAILURE: {e}");
            // The schedule that failed is its decision bytes: one line
            // reproduces it. Printed as recorded, then ddmin-minimized with
            // every candidate re-validated by full replay — up to
            // MINIMIZE_REPLAYS of them (a campaign run records a few
            // thousand bytes, and ddmin's worst case is quadratic); past
            // that every candidate is refused, which ends the search at the
            // best list found so far.
            let replay_line = |trace: u64, decisions: &[u8]| {
                eprintln!(
                    "replay with: stress --chaos --threads {} --seed {seed} --schedule {}",
                    a.threads,
                    gfsl::mc::format_spec(trace, decisions)
                );
            };
            replay_line(out.trace, &out.decisions);
            let mut replays = 0u32;
            let (min, _) = gfsl::mc::minimize::ddmin(&out.decisions, |bytes| {
                replays += 1;
                replays <= MINIMIZE_REPLAYS
                    && run_chaos_seed(a, seed, Replay::new(bytes.to_vec())).failure.is_some()
            });
            let pinned = run_chaos_seed(a, seed, Replay::new(min.clone()));
            eprintln!(
                "minimized {} decision bytes to {} in {} replays: {}",
                out.decisions.len(),
                min.len(),
                replays.min(MINIMIZE_REPLAYS),
                pinned.failure.as_deref().unwrap_or("(the minimized schedule passed?)")
            );
            replay_line(pinned.trace, &min);
            return ExitCode::FAILURE;
        }
        println!(
            "  seed {i:3} (0x{seed:016x}): trace 0x{:016x}, {:6} schedule steps",
            out.trace, out.steps
        );
        stats.merge(&out.stats);
        steps += out.steps;
        add_hits(&mut crash_hits, out.crash_hits);
        if first.is_none() {
            first = Some((seed, out.trace, out.decisions));
        }
    }

    // Replay determinism: the first seed's recorded decisions, replayed,
    // must walk the exact same schedule (bit-identical trace hash).
    let (seed0, trace0, decisions0) = first.expect("at least one seed");
    let replayed = run_chaos_seed(a, seed0, Replay::new(decisions0));
    if replayed.failure.is_some() || replayed.trace != trace0 {
        eprintln!(
            "NON-DETERMINISTIC REPLAY: seed 0x{seed0:016x} first gave trace 0x{trace0:016x}, \
             its decisions replayed to 0x{:016x} ({})",
            replayed.trace,
            replayed.failure.as_deref().unwrap_or("no check failed")
        );
        return ExitCode::FAILURE;
    }
    println!("replay determinism: seed 0x{seed0:016x} reproduced trace 0x{trace0:016x}");

    println!("campaign totals: {steps} schedule steps");
    println!(
        "lock protocol: {} locks taken, {} CAS retries, {} backoff yields, {} starvation events",
        stats.locks_taken, stats.lock_retries, stats.lock_backoff_yields, stats.lock_starvation_events
    );
    println!(
        "readers: {} search restarts, {} snapshot certification retries",
        stats.search_restarts, stats.certify_retries
    );
    print!("crash points hit:");
    for (p, n) in &crash_hits {
        print!(" {p:?}={n}");
    }
    println!();
    println!("chaos campaign PASSED: 0 invariant violations, 0 linearizability violations");
    ExitCode::SUCCESS
}

/// `--modelcheck`: systematic schedule exploration over a registered
/// configuration, or replay of one counterexample spec.
fn modelcheck_main(a: &Args) -> ExitCode {
    use gfsl::mc::strategy::DfsBounded;
    use gfsl::mc::{self, configs};

    if !gfsl_gpu_mem::schedule::POOL_GATED {
        eprintln!(
            "stress --modelcheck needs the pool's accesses compiled as yield points;\n\
             rebuild with: cargo run --release -p gfsl-harness --bin stress \
             --features modelcheck -- --modelcheck ..."
        );
        return ExitCode::FAILURE;
    }

    let sel = a.modelcheck.as_deref().expect("dispatched on --modelcheck");
    let cfgs: Vec<mc::McConfig> = if sel == "all" {
        configs::all()
    } else {
        match configs::by_name(sel) {
            Some(c) => vec![c],
            None => {
                eprintln!("unknown model-check config {sel:?}; registered configs:");
                for c in configs::all() {
                    eprintln!("  {:<16} {}", c.name, c.about);
                }
                return ExitCode::FAILURE;
            }
        }
    };

    // Replay mode: one spec (as printed by a failing exploration or the CI
    // modelcheck job) pins one exact schedule against one configuration.
    if let Some(spec) = &a.schedule {
        if cfgs.len() != 1 {
            eprintln!("--schedule replays one schedule: name a single --modelcheck <config>");
            return ExitCode::FAILURE;
        }
        let cfg = &cfgs[0];
        return replay_spec(cfg.name, spec, |decisions| {
            let out = mc::replay(cfg, decisions);
            (out.trace, out.steps, out.failure)
        });
    }

    let mut clean = true;
    for cfg in &cfgs {
        let strategy: Box<dyn Scheduler> = match a.strategy.as_str() {
            "dfs" => Box::new(DfsBounded::new(a.bound, !a.no_por, a.episodes)),
            "walk" => Box::new(RandomWalk::new(a.seed, a.episodes)),
            other => {
                eprintln!("--strategy must be dfs or walk, got {other}");
                return ExitCode::FAILURE;
            }
        };
        let report = mc::explore(cfg, strategy);
        println!("modelcheck {}", report.summary());
        if let Some(cx) = &report.counterexample {
            clean = false;
            println!("  counterexample: {}", cx.description);
            println!(
                "  replay with: stress --modelcheck {} --schedule {}",
                cfg.name,
                cx.spec()
            );
        }
    }
    if clean {
        println!("modelcheck PASSED: no counterexamples");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let a = parse();
    if a.modelcheck.is_some() {
        return modelcheck_main(&a);
    }
    if a.chaos {
        return chaos_main(&a);
    }
    if a.schedule.is_some() {
        eprintln!("--schedule replays against --modelcheck <config> or --chaos --seed S");
        return ExitCode::FAILURE;
    }
    println!(
        "soak: {}s, {} threads, range {}, mix [{},{},{}], GFSL-{}",
        a.seconds,
        a.threads,
        a.range,
        a.mix.0,
        a.mix.1,
        a.mix.2,
        match a.team {
            TeamSize::Sixteen => 16,
            TeamSize::ThirtyTwo => 32,
        }
    );
    let list = Gfsl::new(GfslParams {
        team_size: a.team,
        pool_chunks: GfslParams::chunks_for(a.range as u64 * 6, a.team),
        seed: a.seed,
        ..Default::default()
    })
    .expect("construct");

    let stop = AtomicBool::new(false);
    let total_ops = AtomicU64::new(0);
    let deadline = Instant::now() + Duration::from_secs(a.seconds);

    let finals: Vec<std::collections::BTreeMap<u32, u32>> = std::thread::scope(|s| {
        // A reader thread hammers invariant checks the whole time.
        let list_ref = &list;
        let stop_ref = &stop;
        s.spawn(move || {
            let mut h = list_ref.handle();
            let mut rng = SplitMix64::new(0xEAD);
            while !stop_ref.load(Ordering::Acquire) {
                let lo = rng.below(a.range as u64) as u32 + 1;
                let hi = (lo + 500).min(a.range);
                let window = h.try_range(lo, hi).expect("range scan");
                assert!(
                    window.windows(2).all(|w| w[0].0 < w[1].0),
                    "range scan disorder"
                );
                if let Some((mk, _)) = h.try_min_entry().expect("min scan") {
                    assert!((1..=a.range).contains(&mk));
                }
            }
        });

        let workers: Vec<_> = (0..a.threads)
            .map(|t| {
                let list = &list;
                let total = &total_ops;
                s.spawn(move || {
                    let mut h = list.handle();
                    let mut rng = SplitMix64::new(a.seed ^ (t as u64) << 32);
                    let mut oracle = std::collections::BTreeMap::new();
                    let mut n = 0u64;
                    while Instant::now() < deadline {
                        for _ in 0..512 {
                            // Keys in this thread's class only.
                            let k = (rng.below((a.range / a.threads).max(1) as u64) as u32)
                                * a.threads
                                + t
                                + 1;
                            if k > a.range {
                                continue;
                            }
                            let roll = rng.below(100) as u32;
                            if roll < a.mix.0 {
                                let v = rng.next_u64() as u32;
                                if h.try_insert(k, v).expect("insert") {
                                    oracle.insert(k, v);
                                }
                            } else if roll < a.mix.0 + a.mix.1 {
                                assert_eq!(
                                    h.try_remove(k).expect("remove"),
                                    oracle.remove(&k).is_some(),
                                    "remove {k} disagrees with oracle"
                                );
                            } else {
                                assert_eq!(
                                    h.try_get(k).expect("get"),
                                    oracle.get(&k).copied(),
                                    "get {k} disagrees with oracle"
                                );
                            }
                            n += 1;
                        }
                    }
                    total.fetch_add(n, Ordering::Relaxed);
                    oracle
                })
            })
            .collect();
        let finals = workers.into_iter().map(|w| w.join().unwrap()).collect();
        stop.store(true, Ordering::Release);
        finals
    });

    let ops = total_ops.load(Ordering::Relaxed);
    println!(
        "ran {} ops ({:.2} Mops/s host)",
        ops,
        ops as f64 / a.seconds as f64 / 1e6
    );

    // Final oracle check: the union of per-thread maps must equal the
    // structure exactly.
    let mut expect: Vec<(u32, u32)> = finals.into_iter().flatten().collect();
    expect.sort_unstable();
    let got = list.pairs();
    if got != expect {
        eprintln!(
            "FINAL STATE MISMATCH: structure has {} pairs, oracle {}",
            got.len(),
            expect.len()
        );
        return ExitCode::FAILURE;
    }
    let violations = list.validate();
    if !violations.is_empty() {
        for v in &violations {
            eprintln!("INVARIANT VIOLATION: {v}");
        }
        return ExitCode::FAILURE;
    }
    let shape = list.shape();
    println!(
        "final: {} keys, height {}, {} chunks ({:.1}% zombies), mean fill {:.1}",
        shape.len(),
        list.height(),
        shape.chunks_allocated,
        shape.zombie_fraction() * 100.0,
        shape.levels[0].mean_fill(),
    );
    println!("soak PASSED");
    ExitCode::SUCCESS
}
