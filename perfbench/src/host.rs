//! Host probes: a fixed ALU loop and a fixed pointer chase through 32 MB,
//! timed before and after every workload. A shared host's memory latency
//! moves between minutes by more than most of the bounds; when the probes of
//! two runs differ by more than a metric's bound, `compare` calls the pair
//! unresolved in place of blaming the code.

use std::hint::black_box;
use std::time::Instant;

use crate::gen::Rng;

const SPIN_ITERS: u64 = 40_000_000;
const CHASE_SLOTS: usize = 8 << 20; // × 4 B = 32 MB
const CHASE_STEPS: usize = 1 << 20;

pub struct HostProbe {
    next: Vec<u32>,
}

#[derive(Debug, Clone, Copy)]
pub struct HostReading {
    pub spin_ns: f64,
    pub chase_ns: f64,
}

impl HostProbe {
    /// Build the chase: one cycle through every slot in a fixed random order
    /// (Sattolo's shuffle), so each step is a dependent cache miss.
    pub fn new() -> HostProbe {
        let mut next: Vec<u32> = (0..CHASE_SLOTS as u32).collect();
        let mut rng = Rng::new(0x5EED_C4A5E);
        for i in (1..CHASE_SLOTS).rev() {
            let j = rng.below(i as u64) as usize;
            next.swap(i, j);
        }
        HostProbe { next }
    }

    pub fn read(&self) -> HostReading {
        let t = Instant::now();
        let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
        for _ in 0..SPIN_ITERS {
            x = (x ^ (x >> 29)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        }
        black_box(x);
        let spin_ns = t.elapsed().as_nanos() as f64;

        let t = Instant::now();
        let mut at = 0u32;
        for _ in 0..CHASE_STEPS {
            at = self.next[at as usize];
        }
        black_box(at);
        let chase_ns = t.elapsed().as_nanos() as f64;
        HostReading { spin_ns, chase_ns }
    }
}

impl HostReading {
    /// Mean of a before and an after reading.
    pub fn mean(a: HostReading, b: HostReading) -> HostReading {
        HostReading {
            spin_ns: (a.spin_ns + b.spin_ns) / 2.0,
            chase_ns: (a.chase_ns + b.chase_ns) / 2.0,
        }
    }
}
