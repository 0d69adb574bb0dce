//! Estimators. A repetition's value of a time metric is a *floor*
//! estimate — the 10th percentile of per-batch mean time per op —
//! because on a shared 2-thread host the median of the same loop moved
//! 295–408 ns between runs while the 10th percentile repeated within a
//! few percent. The minimum is used nowhere, over batches or over
//! repetitions: it picks lucky phases. A run's value is the median over
//! its repetitions; `setup_s` is the lower quartile of its samples.

/// Sort a copy of `values` ascending (NaN-free input).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// Percentile `p` in `[0, 1]` with linear interpolation between ranks
/// (rank `p·(n−1)`). Panics on an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    assert!((0.0..=1.0).contains(&p), "percentile {p} out of range");
    let v = sorted(values);
    let rank = p * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// The floor estimator: 10th percentile.
pub fn p10(values: &[f64]) -> f64 {
    percentile(values, 0.10)
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// First and third quartile as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them —
/// the rule the driver applies to ten runs. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let ld = v.len();
    assert!(ld >= 2, "quartiles need at least two samples");
    let (n, m) = (4usize, ld + 1);
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    (cut(1), cut(3))
}

/// The numbers printed for one set of per-batch samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// 10th percentile — the value a repetition reports.
    pub p10: f64,
    /// Median (diagnostic).
    pub p50: f64,
    /// 90th percentile (diagnostic).
    pub p90: f64,
    /// 99th percentile (diagnostic).
    pub p99: f64,
}

impl Summary {
    /// Summarise a non-empty sample set.
    pub fn of(values: &[f64]) -> Summary {
        Summary {
            n: values.len(),
            p10: p10(values),
            p50: median(values),
            p90: percentile(values, 0.90),
            p99: percentile(values, 0.99),
        }
    }
}

/// splitmix64: the benchmark's one generator. Every input — payload
/// bytes, priorities, fault-plan seed, graph seed — is drawn from a
/// stream seeded by `--seed`, so the program under test sees only
/// generated inputs.
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    /// Next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }
}

/// The splitmix64 finalizer, also used as the message checksum mixer.
pub fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}
