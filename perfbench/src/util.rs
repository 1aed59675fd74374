//! Small helpers shared by the workloads: the seeded generator, the Zipf
//! sampler, order statistics and the process's peak memory.

use std::time::{Duration, Instant};

/// SplitMix64: the benchmark's only source of randomness. Owning the
/// generator keeps every input a function of `--seed` and this file alone,
/// independent of the library's RNG stand-in.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i + 1);
            v.swap(i, j);
        }
    }
}

/// Zipf(s = 1) over ranks `0..n`, sampled by inverting the CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / k as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// The `q`-quantile (0..=1) of `v` by linear interpolation between order
/// statistics; 0 for an empty sample.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Microseconds elapsed since `t`.
pub fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where the
/// kernel does not report it.
pub fn max_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: u32 = 15;

/// The repeated, timed set-ups of one run. The first builds the instance
/// the run uses; the others are spread evenly over the run, each built and
/// dropped between two operations of the timed phase. The host's speed
/// drifts over seconds, so set-ups made back to back would all sample one
/// moment of it, while `setup_s` should sample the run as the other
/// metrics do.
pub struct Setups<F> {
    build: F,
    start: Instant,
    every: Duration,
    times: Vec<f64>,
}

impl<T, F: FnMut() -> T> Setups<F> {
    /// Runs the first set-up; the others are due over the next `seconds`.
    pub fn first(seconds: f64, mut build: F) -> (Self, T) {
        let start = Instant::now();
        let built = build();
        let setups = Setups {
            build,
            start,
            every: Duration::from_secs_f64(seconds / f64::from(SETUP_REPS)),
            times: vec![start.elapsed().as_secs_f64()],
        };
        (setups, built)
    }

    fn again(&mut self) -> Duration {
        let t = Instant::now();
        drop((self.build)());
        let d = t.elapsed();
        self.times.push(d.as_secs_f64());
        d
    }

    /// Runs the next set-up if it is due; returns the time it took, which
    /// the caller keeps out of its timed phase.
    pub fn poll(&mut self) -> Duration {
        let done = u32::try_from(self.times.len()).unwrap_or(u32::MAX);
        if done < SETUP_REPS && self.start.elapsed() >= self.every * done {
            self.again()
        } else {
            Duration::ZERO
        }
    }

    /// Runs the set-ups not yet due and returns the median in seconds.
    pub fn median_s(mut self) -> f64 {
        while self.times.len() < SETUP_REPS as usize {
            self.again();
        }
        median(&self.times)
    }
}
