//! A fixed calibration workload that measures the host's current speed.
//!
//! The code is the benchmark's own, not the program's, so no change to the
//! program can move it. It mixes the kinds of work the searches do:
//! floating-point linear algebra (BO's surrogate), dependent loads (the
//! memo-cache and scenario tables), and branchy integer work (sorting,
//! hashing). Its buffers fit in the L1 and L2 caches and are warmed before
//! each timed round, so the round measures the core's speed and not what
//! the program left in the caches.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::splitmix64;

const MATRIX: usize = 48;
const CHASE_SLOTS: usize = 1 << 14;
const CHASE_STEPS: usize = 40_000;
const SORTED: usize = 2048;

/// The duration of one round at the nominal host speed, in seconds: about
/// what a round takes on a 2-vCPU Intel Xeon KVM guest when its host is not
/// loaded, so scaled timings read close to that host's best wall times.
pub const NOMINAL_ROUND_S: f64 = 2e-4;

/// Work time between calibration rounds.
const SEGMENT_S: f64 = 0.025;

/// Splits a stretch of work into segments with a calibration round
/// between each two, and scales each segment's timings to the nominal
/// host speed by the mean of the rounds on either side of it.
///
/// The host's speed can swing by more than a third within a second, and
/// the thread's own CPU time swings with it (it is not steal time). A
/// segment and the rounds around it run within a few tens of
/// milliseconds of each other, so they see the same host; a change that
/// makes the program slower moves the segment's time but not the rounds.
pub struct Calibrated {
    calibration: Calibration,
    /// `rounds[i]` ran just before segment `i`.
    rounds: Vec<f64>,
    /// Work time of each closed segment.
    segment_s: Vec<f64>,
    segment_start: Instant,
}

impl Calibrated {
    /// Runs the first round and opens the first segment.
    pub fn start() -> Self {
        let mut calibration = Calibration::new();
        let rounds = vec![calibration.round()];
        Calibrated {
            calibration,
            rounds,
            segment_s: Vec::new(),
            segment_start: Instant::now(),
        }
    }

    /// The index of the open segment (timings are tagged with it).
    pub fn segment(&self) -> u32 {
        self.segment_s.len() as u32
    }

    /// Closes the open segment with a round once it has run long enough.
    pub fn tick(&mut self) {
        if self.segment_start.elapsed().as_secs_f64() >= SEGMENT_S {
            self.close();
        }
    }

    /// Closes the open segment with a round and opens the next.
    pub fn close(&mut self) {
        self.segment_s
            .push(self.segment_start.elapsed().as_secs_f64());
        self.rounds.push(self.calibration.round());
        self.segment_start = Instant::now();
    }

    /// Per closed segment, the factor that puts its timings at the
    /// nominal host speed.
    pub fn factors(&self) -> Vec<f64> {
        self.rounds
            .windows(2)
            .map(|pair| NOMINAL_ROUND_S * 2.0 / (pair[0] + pair[1]))
            .collect()
    }

    /// Each closed segment's work time at the nominal host speed.
    pub fn scaled_segments(&self) -> Vec<f64> {
        self.segment_s
            .iter()
            .zip(self.factors())
            .map(|(s, f)| s * f)
            .collect()
    }
}

/// Reusable buffers, so a calibration round allocates nothing.
pub struct Calibration {
    matrix: Vec<f64>,
    chase: Vec<u32>,
    keys: Vec<u64>,
}

impl Calibration {
    pub fn new() -> Self {
        // A single-cycle permutation, so the chase visits every slot.
        let mut order: Vec<u32> = (0..CHASE_SLOTS as u32).collect();
        let mut state = 0x5eed_u64;
        for i in (1..CHASE_SLOTS).rev() {
            state = splitmix64(state);
            order.swap(i, (state % (i as u64 + 1)) as usize);
        }
        let mut chase = vec![0u32; CHASE_SLOTS];
        for w in 0..CHASE_SLOTS {
            chase[order[w] as usize] = order[(w + 1) % CHASE_SLOTS];
        }
        Calibration {
            matrix: vec![0.0; MATRIX * MATRIX],
            chase,
            keys: vec![0; SORTED],
        }
    }

    /// Runs one round of the fixed work and returns its wall time in
    /// seconds. A first, untimed run warms the caches, so the round does
    /// not depend on what ran before it; of two timed runs the shorter
    /// counts, so a preemption in one of them does not.
    pub fn round(&mut self) -> f64 {
        self.work();
        let mut best = f64::INFINITY;
        for _ in 0..2 {
            let start = Instant::now();
            self.work();
            best = best.min(start.elapsed().as_secs_f64());
        }
        best
    }

    fn work(&mut self) {
        black_box(self.cholesky());
        black_box(self.chase());
        black_box(self.sort());
    }

    /// Factors a fixed symmetric positive-definite matrix.
    fn cholesky(&mut self) -> f64 {
        let n = MATRIX;
        let a = &mut self.matrix;
        for i in 0..n {
            for j in 0..n {
                let d = i.abs_diff(j) as f64;
                a[i * n + j] = (-d * d / 50.0).exp() + if i == j { 1e-3 } else { 0.0 };
            }
        }
        for j in 0..n {
            let mut diag = a[j * n + j];
            for k in 0..j {
                diag -= a[j * n + k] * a[j * n + k];
            }
            let diag = diag.sqrt();
            a[j * n + j] = diag;
            for i in j + 1..n {
                let mut v = a[i * n + j];
                for k in 0..j {
                    v -= a[i * n + k] * a[j * n + k];
                }
                a[i * n + j] = v / diag;
            }
        }
        a[n * n - 1]
    }

    /// Follows the permutation for a fixed number of dependent loads.
    fn chase(&self) -> u32 {
        let mut at = 0u32;
        for _ in 0..CHASE_STEPS {
            at = self.chase[at as usize];
        }
        at
    }

    /// Sorts a fixed pseudo-random key set.
    fn sort(&mut self) -> u64 {
        let mut state = 0xca11_u64;
        for key in &mut self.keys {
            state = splitmix64(state);
            *key = state;
        }
        self.keys.sort_unstable();
        self.keys[SORTED / 2]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segments_are_scaled_by_the_rounds_around_them() {
        let clock = Calibrated {
            calibration: Calibration::new(),
            rounds: vec![1e-4, 3e-4, 2e-4],
            segment_s: vec![1.0, 2.0],
            segment_start: Instant::now(),
        };
        let near = |a: &[f64], b: &[f64]| a.iter().zip(b).all(|(x, y)| (x - y).abs() < 1e-12);
        assert!(near(&clock.factors(), &[1.0, 0.8]));
        assert!(near(&clock.scaled_segments(), &[1.0, 1.6]));
    }

    #[test]
    fn a_round_times_the_fixed_work() {
        let mut clock = Calibrated::start();
        clock.close();
        let factor = clock.factors()[0];
        assert!(factor.is_finite() && factor > 0.0);
    }
}
