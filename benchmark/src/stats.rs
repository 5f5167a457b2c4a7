//! Order statistics and the output digest.

/// Median of `values` (mean of the two middle values for an even count);
/// NaN for an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `values`; NaN when empty.
#[must_use]
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let sorted = sorted(values);
    match rank(sorted.len(), p) {
        Some(rank) => sorted[rank - 1],
        None => f64::NAN,
    }
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    // The epsilon keeps a product that should be whole (99.9 % of 10,000)
    // from rounding up past it.
    let rank = ((p / 100.0) * n as f64 - 1e-9).ceil() as usize;
    Some(rank.clamp(1, n))
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n` samples.
#[must_use]
pub fn beyond(n: usize, p: f64) -> usize {
    rank(n, p).map_or(0, |rank| n - rank)
}

/// The highest of the usual reporting percentiles that has at least ten
/// samples beyond it among `n` samples; 50 when none does.
#[must_use]
pub fn supported_percentile(n: usize) -> f64 {
    [99.9, 99.0, 95.0, 90.0, 75.0].into_iter().find(|&p| beyond(n, p) >= 10).unwrap_or(50.0)
}

/// `median M ms, pP T ms (n=N, B beyond)`: the median and the highest
/// percentile, at most `max_p`, with at least ten samples beyond it.
#[must_use]
pub fn describe_ms(values: &[f64], max_p: f64) -> String {
    let n = values.len();
    let p = supported_percentile(n).min(max_p);
    format!(
        "median {:.4} ms, p{p} {:.4} ms (n={n}, {} beyond)",
        median(values),
        percentile(values, p),
        beyond(n, p)
    )
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// (the default "exclusive" method) computes them; `None` below 2 values.
#[must_use]
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let data = sorted(values);
    let len = data.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let quantile = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((quantile(1), quantile(3)))
}

/// Interquartile range as a share of the median (`quartiles` method);
/// `None` below 2 values or for a zero median.
#[must_use]
pub fn relative_iqr(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let mid = median(values);
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Streaming 64-bit FNV-1a: the `output_digest` each workload prints, so
/// two commits' outputs can be compared without storing them.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds the bit pattern of `value` into the digest.
    pub fn write_f64(&mut self, value: f64) {
        self.write(&value.to_bits().to_le_bytes());
    }

    /// The digest so far.
    #[must_use]
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// FNV-1a of one byte string.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut fnv = Fnv::default();
    fnv.write(bytes);
    fnv.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_nearest_rank_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 50.0), 50.0);
        assert_eq!(percentile(&values, 95.0), 95.0);
        assert_eq!(percentile(&values, 99.0), 99.0);
        assert_eq!(percentile(&values, 100.0), 100.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn percentile_choice_keeps_ten_samples_beyond() {
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(supported_percentile(1000), 99.0);
        assert_eq!(supported_percentile(999), 95.0);
        assert_eq!(beyond(200, 95.0), 10);
        assert_eq!(supported_percentile(200), 95.0);
        assert_eq!(supported_percentile(199), 90.0);
        assert_eq!(supported_percentile(10_000), 99.9);
        assert_eq!(supported_percentile(12), 50.0);
        for n in [0, 1, 40, 100, 250, 2000, 20_000] {
            let p = supported_percentile(n);
            assert!(p == 50.0 || beyond(n, p) >= 10, "n={n} p={p}");
        }
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(
            describe_ms(&values, 95.0),
            "median 500.5000 ms, p95 950.0000 ms (n=1000, 50 beyond)"
        );
        assert!(describe_ms(&values, 99.9).contains("p99 990.0000 ms (n=1000, 10 beyond)"));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        let rel = relative_iqr(&values).unwrap();
        assert!((rel - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn fnv1a_known_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
