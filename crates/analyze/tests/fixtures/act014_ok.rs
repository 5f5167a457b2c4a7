//! ACT014 negative fixture: a block body run through `act_core::wide`,
//! a `cfg(target_feature)` predicate, the `unsafe_code` lint name, and a
//! test-gated `unsafe` block (tests are exempt). The body's
//! cross-instance case keeps ACT016 quiet.

#![deny(unsafe_code)]

use act_core::wide::{run_wide, Baseline, Body, Instance};

/// The sum of a block, as a named body.
struct Sum<'a>(&'a [f64]);

impl Body for Sum<'_> {
    type Output = f64;

    #[inline(always)]
    fn run<I: Instance>(self) -> f64 {
        self.0.iter().sum()
    }
}

/// Runs the body at the host's vector width.
pub fn sum(xs: &[f64]) -> f64 {
    if cfg!(target_feature = "avx2") {
        return Sum(xs).run::<Baseline>();
    }
    run_wide(Sum(xs))
}

#[cfg(test)]
mod tests {
    use act_core::wide::V4;

    use super::*;

    #[test]
    fn sum_in_every_instance() {
        let xs = [1.0, 2.0];
        let got = [Sum(&xs).run::<Baseline>(), Sum(&xs).run::<V4>(), run_wide(Sum(&xs))];
        assert_eq!(got, [3.0; 3]);
    }

    #[test]
    fn unchecked_reads_are_fine_in_tests() {
        let xs = [1.0];
        assert_eq!(unsafe { *xs.get_unchecked(0) }, 1.0);
    }
}
