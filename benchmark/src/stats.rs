//! Order statistics, the seeded generator and the arrival process.
//!
//! Everything random in the benchmark comes from [`SplitMix64`] seeded by
//! `--seed`; the system under test only ever receives the generated data.

/// SplitMix64 (Steele et al.): small, fast, and identical on every platform.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// An independent stream for one named purpose, so adding a consumer
    /// never shifts the values another consumer sees.
    pub fn stream(seed: u64, purpose: &str) -> Self {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in purpose.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        let mut rng = SplitMix64::new(seed ^ h);
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        self.next_u64() % n
    }

    /// Uniform in `[lo, hi)`.
    pub fn range_i32(&mut self, lo: i32, hi: i32) -> i32 {
        assert!(lo < hi, "empty range");
        let span = (i64::from(hi) - i64::from(lo)) as u64;
        (i64::from(lo) + self.below(span) as i64) as i32
    }

    /// Uniform in the open interval `(0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }

    pub fn vec_i32(&mut self, len: usize, lo: i32, hi: i32) -> Vec<i32> {
        (0..len).map(|_| self.range_i32(lo, hi)).collect()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// Due times, in seconds from zero, of `count` Poisson arrivals at `rate`
/// per second (exponential gaps by inversion).
pub fn poisson_arrivals(rng: &mut SplitMix64, rate: f64, count: usize) -> Vec<f64> {
    assert!(rate > 0.0, "arrival rate must be positive");
    let mut t = 0.0;
    (0..count)
        .map(|_| {
            t += -rng.unit_f64().ln() / rate;
            t
        })
        .collect()
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
    v
}

/// Median of the values (mean of the two middle ones for an even count).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// computes them (the "exclusive" method), so spreads printed here equal the
/// ones a reviewer computes from the raw runs. Fewer than two values have no
/// spread: both quartiles are the value itself.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |k: usize| {
        // Rank k(n+1)/4 (1-based) clamped to the sample, remainder taken
        // after clamping — exact integer steps, as CPython does them.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 - (4 * j) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// `(q3 - q1) / median`, the spread every noise statement in this crate uses.
pub fn iqr_share(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
}

/// Nearest-rank percentile of an already sorted sample.
pub fn percentile_sorted(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn percentile(values: &[f64], pct: f64) -> f64 {
    percentile_sorted(&sorted(values), pct)
}

/// The highest of the usual tail percentiles that still has at least ten
/// samples beyond it, or `None` below 20 samples (where even the median has
/// fewer than ten on each side).
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    // In hundredths of a percent, so the count beyond is exact.
    [9999u64, 9990, 9900, 9500, 9000, 7500, 5000]
        .into_iter()
        .find(|p| n as u64 * (10_000 - p) >= 100_000)
        .map(|p| p as f64 / 100.0)
}

/// The percentile of a run's samples that is reported for a host-clock time.
///
/// Interference on a shared host is one-sided and bursty: a co-tenant slows
/// spells of a millisecond to many seconds by 10-50% and never speeds
/// anything up, and on a bad day such spells cover most of a run. The median
/// of the samples then jumps by a third from run to run, while the fastest
/// hundredth of several thousand 1 ms samples stays put: some samples always
/// fall between the bursts. A sample is the mean over a fixed batch that
/// covers the workload's whole cycle, so work done by only some ops still
/// raises every sample. Measured here over 8 runs of 10 s: the median moved
/// 25-40%, this percentile 1.3-3.4%.
pub const FAST_PERCENTILE: f64 = 1.0;

/// The undisturbed value of a run's samples: the [`FAST_PERCENTILE`]th
/// percentile by nearest rank — the minimum below 100 samples.
pub fn fast(values: &[f64]) -> f64 {
    percentile(values, FAST_PERCENTILE)
}

/// One metric of a run: the reported value and the spread of its samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    /// A reported `value` with the count and quartiles of the samples it
    /// was taken from.
    pub fn sampled(value: f64, samples: &[f64]) -> Self {
        let (q1, q3) = quartiles(samples);
        Summary {
            n: samples.len(),
            value,
            q1,
            q3,
        }
    }

    /// A value that was counted once, not sampled.
    pub fn exact(value: f64) -> Self {
        Summary {
            n: 1,
            value,
            q1: value,
            q3: value,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn iqr_share_is_relative_to_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(iqr_share(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(400), Some(95.0));
        assert_eq!(highest_supported_percentile(999), Some(95.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(20_000), Some(99.9));
        assert_eq!(highest_supported_percentile(100_000), Some(99.99));
    }

    #[test]
    fn fast_estimate_ignores_slow_spells_covering_most_of_a_run() {
        // 100 undisturbed samples around 10.0, then ever more disturbed ones.
        let clean: Vec<f64> = (0..100).map(|i| 10.0 + f64::from(i % 5) * 0.01).collect();
        assert_eq!(fast(&[3.0, 2.0, 5.0]), 2.0, "the minimum of a few samples");
        for slow in [0, 50, 200, 800, 5000] {
            let mut v = clean.clone();
            v.extend((0..slow).map(|i| 13.0 + f64::from(i % 7) * 0.3));
            assert!(
                (fast(&v) - 10.0).abs() < 0.05,
                "{slow} slow samples: {}",
                fast(&v)
            );
        }
        let s = Summary::sampled(fast(&clean), &clean);
        assert_eq!((s.n, s.value), (100, fast(&clean)));
        assert!(s.q1 <= s.q3);
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
    }

    #[test]
    fn poisson_arrivals_repeat_per_seed_and_differ_across_seeds() {
        let a = poisson_arrivals(&mut SplitMix64::stream(7, "arrivals"), 1000.0, 5000);
        let b = poisson_arrivals(&mut SplitMix64::stream(7, "arrivals"), 1000.0, 5000);
        let c = poisson_arrivals(&mut SplitMix64::stream(8, "arrivals"), 1000.0, 5000);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[1] > w[0]), "due times increase");
        // 5000 arrivals at 1000/s take about 5 s (relative sd 1/sqrt(5000)).
        let span = a[a.len() - 1];
        assert!((span - 5.0).abs() < 0.35, "span {span}");
    }

    #[test]
    fn streams_are_independent_and_ranges_hold() {
        let mut a = SplitMix64::stream(1, "inputs");
        let mut b = SplitMix64::stream(1, "arrivals");
        assert_ne!(a.next_u64(), b.next_u64());
        let v = SplitMix64::new(3).vec_i32(4096, -8, 8);
        assert!(v.iter().all(|x| (-8..8).contains(x)));
        assert!((-8..8).all(|want| v.contains(&want)));
        let mut order: Vec<usize> = (0..33).collect();
        SplitMix64::new(5).shuffle(&mut order);
        let mut back = order.clone();
        back.sort_unstable();
        assert_eq!(back, (0..33).collect::<Vec<_>>());
        assert_ne!(order, back);
    }
}
