//! ACT014 positive fixture: a library crate with its own `unsafe` and
//! its own CPU-feature dispatch.

/// Reads past a bounds check.
pub fn first(xs: &[f64]) -> f64 {
    unsafe { *xs.get_unchecked(0) }
}

/// A hand-rolled AVX2 instance of a loop.
#[target_feature(enable = "avx2")]
fn sum_avx2(xs: &[f64]) -> f64 {
    xs.iter().sum()
}

/// Dispatches on what the CPU reports.
pub fn sum(xs: &[f64]) -> f64 {
    if std::is_x86_feature_detected!("avx2") {
        return sum_avx2(xs);
    }
    xs.iter().sum()
}
