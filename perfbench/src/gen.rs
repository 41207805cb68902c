//! Seeded input generation. The benchmark owns its generator so that a later
//! change to the repository's own workload crate cannot change the inputs a
//! seed stands for; the program under test only ever sees the generated ops.

use gfsl_workload::ServeOp;

/// Values written by the prefill carry this bit, values written by an insert
/// are the op's index in its stream: a read that returns anything else than
/// the oracle's value is a stale or foreign read.
pub const PREFILL_TAG: u32 = 0x8000_0000;

/// SplitMix64: one multiply-xorshift chain per draw, full 64-bit period.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent stream for `lane` of the same run seed.
    pub fn stream(seed: u64, lane: u64) -> Rng {
        let mut r = Rng(seed ^ lane.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Insert / delete / get percentages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mix {
    pub insert: u32,
    pub delete: u32,
}

impl Mix {
    /// The paper's anchor mixture, 10/10/80.
    pub const C80: Mix = Mix {
        insert: 10,
        delete: 10,
    };
    /// Half writes, 25/25/50.
    pub const W50: Mix = Mix {
        insert: 25,
        delete: 25,
    };

    fn op(&self, rng: &mut Rng, key: u32, index: usize) -> ServeOp {
        let roll = rng.below(100) as u32;
        if roll < self.insert {
            ServeOp::Insert(key, index as u32)
        } else if roll < self.insert + self.delete {
            ServeOp::Delete(key)
        } else {
            ServeOp::Get(key)
        }
    }
}

/// The hot key space of the four edge workloads and of the ladder.
pub const HOT_SPAN: u32 = 20_000;
const HOT_THETA: f64 = 0.6;

/// Prefill of the hot key space: the even keys.
pub fn hot_prefill() -> impl Iterator<Item = (u32, u32)> {
    (2..=HOT_SPAN).step_by(2).map(|k| (k, PREFILL_TAG | k))
}

/// `n` ops with zipf(θ = 0.6) keys over `1..=HOT_SPAN`. Rank r is key r, as
/// in the repository's own load generator: the hot keys are the small keys.
/// The rank is the continuous inverse-CDF approximation
/// `ceil(N · u^(1/(1-θ)))`.
pub fn hot_stream(seed: u64, mix: Mix, n: usize) -> Vec<ServeOp> {
    let mut rng = Rng::stream(seed, 1);
    let exponent = 1.0 / (1.0 - HOT_THETA);
    (0..n)
        .map(|i| {
            let rank = (HOT_SPAN as f64 * rng.unit().powf(exponent)).ceil() as u32;
            mix.op(&mut rng, rank.clamp(1, HOT_SPAN), i)
        })
        .collect()
}

/// Poisson arrival schedule: `n` due times in ns from the start of the trial
/// at `rate` requests per second.
pub fn poisson_due_ns(seed: u64, rate: f64, n: usize) -> Vec<u64> {
    let mut rng = Rng::stream(seed, 2);
    let mean_ns = 1e9 / rate;
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            t += -mean_ns * (1.0 - rng.unit()).ln();
            t as u64
        })
        .collect()
}

/// The large key space of `engine-c80-big`.
pub const BIG_RANGE: u32 = 4_000_000;

/// Prefill of the large key space: the even keys.
pub fn big_prefill() -> impl Iterator<Item = (u32, u32)> {
    (2..=BIG_RANGE).step_by(2).map(|k| (k, PREFILL_TAG | k))
}

/// Thread `thread`'s `n` C80 ops, uniform over the keys ≡ thread (mod 2) of
/// `1..=span`, so the two threads never touch the same key and each thread's
/// replies are a pure function of its own stream.
fn parity_stream(mut rng: Rng, thread: u32, span: u32, n: usize) -> Vec<ServeOp> {
    let first = if thread == 0 { 2 } else { 1 };
    (0..n)
        .map(|i| {
            let key = first + 2 * rng.below((span / 2) as u64) as u32;
            Mix::C80.op(&mut rng, key, i)
        })
        .collect()
}

/// One thread's share of `engine-c80-big`.
pub fn big_stream(seed: u64, thread: u32, n: usize) -> Vec<ServeOp> {
    parity_stream(Rng::stream(seed, 16 + thread as u64), thread, BIG_RANGE, n)
}

/// One thread's share of the excluded two-handle hazard, over the hot span.
pub fn hot2_stream(seed: u64, thread: u32, n: usize) -> Vec<ServeOp> {
    parity_stream(Rng::stream(seed, 32 + thread as u64), thread, HOT_SPAN, n)
}

/// Keys resident at any instant in `engine-churn`.
pub const CHURN_WINDOW: u32 = 4096;

/// Prefill of `engine-churn`: keys `1..=CHURN_WINDOW`.
pub fn churn_prefill() -> impl Iterator<Item = (u32, u32)> {
    (1..=CHURN_WINDOW).map(|k| (k, PREFILL_TAG | k))
}

/// `pairs` × (insert the next key above the window, remove the key leaving it
/// below). The key sequence is fixed by definition — this workload is the
/// determinism anchor — so the seed only salts the values written.
pub fn churn_stream(seed: u64, pairs: usize) -> Vec<ServeOp> {
    let salt = (seed as u32) & 0x3FFF_FFFF;
    let mut ops = Vec::with_capacity(2 * pairs);
    for j in 0..pairs as u32 {
        let next = CHURN_WINDOW + 1 + j;
        ops.push(ServeOp::Insert(next, (j ^ salt) & !PREFILL_TAG));
        ops.push(ServeOp::Delete(next - CHURN_WINDOW));
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = hot_stream(7, Mix::C80, 10_000);
        assert_eq!(a, hot_stream(7, Mix::C80, 10_000));
        assert_ne!(a, hot_stream(8, Mix::C80, 10_000));
        assert_eq!(poisson_due_ns(7, 1e5, 100), poisson_due_ns(7, 1e5, 100));
    }

    #[test]
    fn hot_stream_is_skewed_and_in_span() {
        let ops = hot_stream(3, Mix::C80, 200_000);
        assert!(ops.iter().all(|o| (1..=HOT_SPAN).contains(&o.key())));
        let low = ops.iter().filter(|o| o.key() <= HOT_SPAN / 4).count() as f64;
        // P(rank ≤ N/4) = 0.25^(1-θ) = 0.574.
        assert!((low / ops.len() as f64 - 0.574).abs() < 0.01);
        let gets = ops.iter().filter(|o| matches!(o, ServeOp::Get(_))).count() as f64;
        assert!((gets / ops.len() as f64 - 0.8).abs() < 0.01);
    }

    #[test]
    fn big_streams_own_disjoint_key_classes() {
        assert!(big_stream(1, 0, 1000).iter().all(|o| o.key() % 2 == 0));
        assert!(big_stream(1, 1, 1000).iter().all(|o| o.key() % 2 == 1));
        assert!(big_stream(1, 0, 1000).iter().all(|o| o.key() <= BIG_RANGE));
    }

    #[test]
    fn poisson_rate_is_the_rate_asked_for() {
        let due = poisson_due_ns(5, 100_000.0, 100_000);
        let secs = *due.last().unwrap() as f64 / 1e9;
        assert!((secs - 1.0).abs() < 0.02, "{secs}");
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
    }
}
