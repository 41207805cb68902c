//! Exact quantiles over stored samples, and the slice arithmetic that turns
//! repeated trials into one reading. Samples are kept as raw nanoseconds and
//! sorted once after the trial; nothing is bucketed.

/// The `q`-quantile of ascending `sorted`, linearly interpolated between the
/// two neighbouring ranks. 0 for an empty slice.
pub fn quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] as f64 * (1.0 - frac) + sorted[hi] as f64 * frac
}

/// The highest of the usual percentiles that still has at least ten of `n`
/// samples beyond it.
pub fn highest_supported(n: usize) -> &'static str {
    // (label, samples per one beyond it)
    [
        ("p99.99", 10_000),
        ("p99.9", 1_000),
        ("p99", 100),
        ("p90", 10),
    ]
    .into_iter()
    .find(|&(_, per_one)| n >= 10 * per_one)
    .map_or("p50", |(label, _)| label)
}

/// Median of `xs` (mean of the middle two for an even count); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// One slice of a trial: a fixed run of consecutive operations, the same
/// operations in every trial of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slice {
    /// How long the slice took, ns.
    pub dur_ns: u64,
    /// Median and 90th percentile of the latencies of the slice's requests.
    pub p50_ns: u64,
    pub p90_ns: u64,
}

impl Slice {
    /// `lat`: the latencies of the slice's requests, in any order.
    pub fn of(dur_ns: u64, lat: &mut [u64]) -> Slice {
        lat.sort_unstable();
        Slice {
            dur_ns,
            p50_ns: quantile(lat, 0.5) as u64,
            p90_ns: quantile(lat, 0.9) as u64,
        }
    }
}

/// The slices of one thread (or one connection) over one trial.
pub type Lane = Vec<Slice>;

/// The fastest repeat of every slice: position by position, the smallest
/// duration, median and p90 any of the trials saw. Every trial of a run
/// executes the same operations on the same starting state, so slice `i` is
/// the same work each time, and whatever else runs on the host can only add
/// to the time it takes. A neighbour that slows the host for a tenth of a
/// second spoils that stretch of one trial; it would have to come back at the
/// same position of every trial to reach this reading.
pub fn fastest(trials: &[&Lane]) -> Lane {
    let len = trials.iter().map(|t| t.len()).min().unwrap_or(0);
    (0..len)
        .map(|i| {
            let each = trials.iter().map(|t| t[i]);
            Slice {
                dur_ns: each.clone().map(|s| s.dur_ns).min().unwrap_or(0),
                p50_ns: each.clone().map(|s| s.p50_ns).min().unwrap_or(0),
                p90_ns: each.map(|s| s.p90_ns).min().unwrap_or(0),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fastest_takes_each_field_position_by_position() {
        let s = |d, a, b| Slice {
            dur_ns: d,
            p50_ns: a,
            p90_ns: b,
        };
        let (x, y) = (vec![s(10, 5, 9), s(30, 2, 8)], vec![s(20, 4, 7)]);
        assert_eq!(fastest(&[&x, &y]), vec![s(10, 4, 7)]);
        assert_eq!(fastest(&[&x]), x);
        assert!(fastest(&[]).is_empty());
        assert_eq!(Slice::of(7, &mut [3, 1, 2]), s(7, 2, 2));
    }

    #[test]
    fn quantiles_interpolate() {
        let s: Vec<u64> = (1..=101).collect();
        assert_eq!(quantile(&s, 0.5), 51.0);
        assert_eq!(quantile(&s, 0.9), 91.0);
        assert_eq!(quantile(&[10, 20], 0.5), 15.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond() {
        assert_eq!(highest_supported(99), "p50");
        assert_eq!(highest_supported(100), "p90");
        assert_eq!(highest_supported(1_000), "p99");
        assert_eq!(highest_supported(100_000), "p99.99");
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
