//! Order statistics and the open-loop arrival schedule.

/// Samples that must lie beyond a reported percentile for it to count
/// as measured rather than extrapolated.
const MIN_BEYOND: usize = 10;

/// Percentiles the tail helper may report, highest first.
const TAIL_LADDER: [f64; 7] = [0.999, 0.99, 0.98, 0.95, 0.9, 0.75, 0.5];

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample (the mean of the middle two when the
/// count is even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// Samples strictly beyond the nearest-rank `q` quantile of `n` samples.
fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).min(n)
}

/// The highest percentile, at most `want`, that has at least
/// [`MIN_BEYOND`] samples beyond it among `n` samples; `None` when not
/// even the median qualifies.
pub fn tail_percentile(n: usize, want: f64) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .filter(|&q| q <= want)
        .find(|&q| beyond(n, q) >= MIN_BEYOND)
}

/// Deterministic 64-bit generator (SplitMix64) for benchmark inputs.
struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    fn new(seed: u64) -> SplitMix {
        SplitMix(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]`.
    fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// Open-loop Poisson arrivals at `rate` per second: due offsets in
/// seconds, covering at least `seconds` and at least `min_count`
/// arrivals.
pub fn poisson_schedule(seed: u64, rate: f64, seconds: f64, min_count: usize) -> Vec<f64> {
    let mut rng = SplitMix::new(seed);
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        t += -rng.unit().ln() / rate;
        if t >= seconds && out.len() >= min_count {
            return out;
        }
        out.push(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_identical_for_a_seed() {
        let a = poisson_schedule(7, 40.0, 25.0, 0);
        let b = poisson_schedule(7, 40.0, 25.0, 0);
        assert_eq!(a, b);
        assert_ne!(a, poisson_schedule(8, 40.0, 25.0, 0));
        // Around rate × seconds arrivals, ascending, inside the window.
        assert!((900..1100).contains(&a.len()), "{}", a.len());
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.iter().all(|&t| (0.0..25.0).contains(&t)));
        // A minimum count stretches the window past `seconds`.
        let long = poisson_schedule(7, 40.0, 1.0, 100);
        assert_eq!(long.len(), 100);
        assert_eq!(long[..], poisson_schedule(7, 40.0, 25.0, 0)[..100]);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000, 0.99), Some(0.99));
        assert_eq!(tail_percentile(999, 0.99), Some(0.98));
        assert_eq!(tail_percentile(10_000, 0.99), Some(0.99));
        assert_eq!(tail_percentile(10_000, 1.0), Some(0.999));
        assert_eq!(tail_percentile(200, 0.99), Some(0.95));
        assert_eq!(tail_percentile(20, 0.99), Some(0.5));
        assert_eq!(tail_percentile(19, 0.99), None);
        for n in [20usize, 57, 200, 999, 1000, 4321] {
            let q = tail_percentile(n, 0.99).unwrap();
            assert!(beyond(n, q) >= MIN_BEYOND, "n={n} q={q}");
        }
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 4.0]), 2.5);
    }
}
