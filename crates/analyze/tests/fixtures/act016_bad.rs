//! ACT016 positive fixture: three block bodies, two of them named in no
//! cross-instance case. `Sum`'s only case is not a `#[test]`, and
//! `Peak`'s test never runs it with the `V4` marker.

use act_core::wide::{run_wide, Baseline, Body, Instance, V4};

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

impl<'a> act_core::wide::Body for Peak<'a>
where
    Self: Sized,
{
    type Output = f64;

    #[inline(always)]
    fn run<I: Instance>(self) -> f64 {
        self.0.iter().fold(f64::MIN, |a, &b| a.max(b))
    }
}

/// A block scaled in place; its case is whole.
pub struct Twice<'a>(&'a mut [f64]);

impl Body for Twice<'_> {
    type Output = ();

    #[inline(always)]
    fn run<I: Instance>(self) {
        for v in self.0.iter_mut() {
            *v *= 2.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sum_in_every_instance() {
        let xs = [1.0, 2.0];
        let got = [Sum(&xs).run::<Baseline>(), Sum(&xs).run::<V4>(), run_wide(Sum(&xs))];
        assert_eq!(got, [3.0; 3]);
    }

    #[test]
    fn peak_in_two_instances() {
        let xs = [1.0, 2.0];
        assert_eq!([Peak(&xs).run::<Baseline>(), run_wide(Peak(&xs))], [2.0; 2]);
    }

    #[test]
    fn twice_in_every_instance() {
        let mut outs = [[1.0], [1.0], [1.0]];
        let [base, v4, wide] = &mut outs;
        Twice(base).run::<Baseline>();
        Twice(v4).run::<V4>();
        run_wide(Twice(wide));
        assert_eq!(outs, [[2.0]; 3]);
    }
}
