//! Sample statistics and timing helpers.

use std::time::Instant;

/// Linear-interpolated quantile of an unsorted sample (`q` in `[0, 1]`);
/// NaN when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Runs `f` and returns its result with the wall seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Repeated set-ups: runs `setup` `n` times and keeps the last result.
/// Each set-up returns its components' seconds in a fixed order; the
/// answer holds the median of every component and of their sum.
pub fn repeated_setup<T, const K: usize>(
    n: usize,
    mut setup: impl FnMut() -> (T, [f64; K]),
) -> (T, SetupTimes<K>) {
    let mut runs: Vec<[f64; K]> = Vec::with_capacity(n);
    let mut last: Option<T> = None;
    for _ in 0..n.max(1) {
        // Drop the previous set-up first so peak memory holds one copy.
        drop(last.take());
        let (value, secs) = setup();
        runs.push(secs);
        last = Some(value);
    }
    let totals: Vec<f64> = runs.iter().map(|r| r.iter().sum()).collect();
    let mut parts = [0.0; K];
    for (k, slot) in parts.iter_mut().enumerate() {
        let col: Vec<f64> = runs.iter().map(|r| r[k]).collect();
        *slot = median(&col);
    }
    let times = SetupTimes {
        total: median(&totals),
        parts,
    };
    (last.expect("at least one set-up ran"), times)
}

/// Median set-up time and the median of each of its components \[s\].
pub struct SetupTimes<const K: usize> {
    pub total: f64,
    pub parts: [f64; K],
}

/// A splitmix64 step: derives independent seeds from the benchmark seed.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small deterministic generator for the benchmark's own inputs
/// (kept apart from the program's RNG so the inputs do not depend on it).
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        derive_seed(self.0, 0)
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + (hi - lo) * u
    }

    /// Standard normal (Box–Muller).
    pub fn gaussian(&mut self) -> f64 {
        let u1 = self.uniform(f64::MIN_POSITIVE, 1.0);
        let u2 = self.uniform(0.0, 1.0);
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}
