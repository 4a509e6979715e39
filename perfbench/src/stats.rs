//! Order statistics for timing samples.

/// Samples that must lie beyond a reported tail percentile, so the tail is
/// measured rather than read off one or two outliers.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The median (nearest-rank, upper middle for even counts); 0 when empty.
pub fn median(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// The tail percentile `q` (e.g. 0.99), clamped so that at least
/// [`TAIL_MIN_BEYOND`] samples lie beyond the reported value. Returns the
/// value and the quantile actually reported; with fewer than
/// `TAIL_MIN_BEYOND + 1` samples the maximum is the only honest tail.
pub fn tail(samples: &mut [f64], q: f64) -> (f64, f64) {
    let n = samples.len();
    if n == 0 {
        return (0.0, q);
    }
    samples.sort_by(f64::total_cmp);
    let wanted = ((q * n as f64).ceil() as usize).saturating_sub(1);
    let index = if n > TAIL_MIN_BEYOND {
        wanted.min(n - TAIL_MIN_BEYOND - 1)
    } else {
        n - 1
    };
    (samples[index], (index + 1) as f64 / n as f64)
}

/// The median of a handful of repeated measurements (set-up times).
pub fn median_of(mut values: Vec<f64>) -> f64 {
    median(&mut values)
}

/// A uniform sample of at most `cap` values out of an unbounded stream
/// (reservoir sampling), so memory stays flat however fast the program
/// under test runs, while the kept values stay exact. Each value carries
/// the index of the calibration segment it was measured in.
#[derive(Debug, Clone)]
pub struct Samples {
    kept: Vec<(f64, u32)>,
    seen: u64,
    cap: usize,
    rng: u64,
}

impl Samples {
    pub fn new(cap: usize) -> Self {
        Samples {
            kept: Vec::new(),
            seen: 0,
            cap,
            rng: 0x9e37_79b9_7f4a_7c15,
        }
    }

    pub fn push(&mut self, value: f64, segment: u32) {
        self.seen += 1;
        if self.kept.len() < self.cap {
            self.kept.push((value, segment));
            return;
        }
        self.rng = splitmix64(self.rng);
        let slot = self.rng % self.seen;
        if (slot as usize) < self.cap {
            self.kept[slot as usize] = (value, segment);
        }
    }

    /// The kept values, each multiplied by its segment's factor; values of
    /// segments without a factor are left out.
    pub fn scaled(&self, factors: &[f64]) -> Vec<f64> {
        self.kept
            .iter()
            .filter_map(|&(v, segment)| factors.get(segment as usize).map(|f| v * f))
            .collect()
    }

    /// Values offered so far (kept or not).
    pub fn seen(&self) -> u64 {
        self.seen
    }
}

/// SplitMix64: the benchmark's one source of seeded randomness.
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded pseudo-random stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(splitmix64(seed))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = splitmix64(self.0);
        self.0
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond_the_reported_value() {
        for n in [1usize, 5, 11, 12, 100, 999, 1000, 1011, 5000] {
            let mut samples: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let (value, _) = tail(&mut samples, 0.99);
            let beyond = samples.iter().filter(|&&s| s > value).count();
            if n > TAIL_MIN_BEYOND {
                assert!(beyond >= TAIL_MIN_BEYOND, "n={n}: {beyond} beyond");
            } else {
                assert_eq!(value, (n - 1) as f64, "n={n}: tiny samples report the max");
            }
        }
    }

    #[test]
    fn tail_is_the_plain_percentile_with_enough_samples() {
        let mut samples: Vec<f64> = (1..=2000).map(f64::from).collect();
        let (value, q) = tail(&mut samples, 0.99);
        assert_eq!(value, 1980.0);
        assert!((q - 0.99).abs() < 1e-12);
    }

    #[test]
    fn scaled_samples_take_their_segment_factor() {
        let mut samples = Samples::new(8);
        samples.push(10.0, 0);
        samples.push(10.0, 1);
        samples.push(10.0, 5);
        assert_eq!(samples.scaled(&[0.5, 2.0]), vec![5.0, 20.0]);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 3.0);
        assert_eq!(median(&mut []), 0.0);
    }
}
