//! ACT016 negative fixture: each library block body is named in a
//! cross-instance case, one directly and one in a closure's return type;
//! a test-gated body needs none.

use act_core::wide::{run_wide, Body, Instance};

/// The sum of a block.
pub struct Sum<'a>(&'a [f64]);

impl Body for Sum<'_> {
    type Output = f64;

    #[inline(always)]
    fn run<I: Instance>(self) -> f64 {
        self.0.iter().sum()
    }
}

/// The largest value of a block.
pub struct Peak<'a>(&'a [f64]);

impl<'a> act_core::wide::Body for Peak<'a> {
    type Output = f64;

    #[inline(always)]
    fn run<I: Instance>(self) -> f64 {
        self.0.iter().fold(f64::MIN, |a, &b| a.max(b))
    }
}

#[cfg(test)]
mod tests {
    use act_core::wide::{Baseline, V4};

    use super::*;

    struct Probe;

    impl Body for Probe {
        type Output = ();

        fn run<I: Instance>(self) {}
    }

    #[test]
    fn sum_in_every_instance() {
        let xs = [1.0, 2.0];
        let got = [Sum(&xs).run::<Baseline>(), Sum(&xs).run::<V4>(), run_wide(Sum(&xs))];
        assert_eq!(got, [3.0; 3]);
    }

    #[test]
    fn peak_in_every_instance() {
        let xs = [1.0, 2.0];
        let peak = |xs: &[f64]| -> Peak<'_> { Peak(xs) };
        let got = [peak(&xs).run::<Baseline>(), peak(&xs).run::<V4>(), run_wide(peak(&xs))];
        assert_eq!(got, [2.0; 3]);
    }
}
