//! ACT015 negative fixture: a block body whose every reached workspace
//! function is `#[inline(always)]`, beside decoys the rule must not
//! follow: std method names workspace types share, a trait impl's
//! method, a closure called by name, a `run` outside a `Body` impl, and
//! a test-gated body. The cross-instance case keeps ACT016 quiet.

use act_core::wide::{Body, Instance};

/// A column scaled in place.
pub struct Scale<'a>(&'a mut [f64]);

impl Scale<'_> {
    #[inline(always)]
    pub(crate) fn apply(&mut self, shift: impl Fn(f64) -> f64) {
        for v in self.0.iter_mut() {
            *v = shift(Self::twice(*v)) + offset::<1>(*v);
        }
    }

    #[inline(always)]
    const fn twice(x: f64) -> f64 {
        x * 2.0
    }

    /// Shares a name with `f64::is_finite`; the body's call is std's.
    pub fn is_finite(&self) -> bool {
        self.0.iter().all(|v| v.is_finite())
    }
}

#[inline(always)]
#[must_use]
fn offset<const K: usize>(x: f64) -> f64 {
    x.abs() * K as f64
}

impl Iterator for Scale<'_> {
    type Item = f64;

    /// A trait impl's method is never reached by name.
    fn next(&mut self) -> Option<f64> {
        self.0.first().copied()
    }
}

impl Body for Scale<'_> {
    type Output = bool;

    #[inline(always)]
    fn run<I: Instance>(mut self) -> bool {
        let shift = |x: f64| x + 1.0;
        self.apply(shift);
        self.0.iter().fold(true, |clean, v| clean & v.is_finite())
    }
}

/// Not a block body: its helpers may stay out of line.
pub struct Job;

impl Job {
    pub fn run(&self) -> f64 {
        slow()
    }
}

fn slow() -> f64 {
    1.0
}

#[cfg(test)]
mod tests {
    use act_core::wide::{run_wide, Baseline, V4};

    use super::*;

    #[test]
    fn scale_in_every_instance() {
        let mut outs = [[1.0], [1.0], [1.0]];
        let [base, v4, wide] = &mut outs;
        let got =
            [Scale(base).run::<Baseline>(), Scale(v4).run::<V4>(), run_wide(Scale(wide))];
        assert_eq!(got, [true; 3]);
    }

    struct Probe;

    impl Body for Probe {
        type Output = f64;

        fn run<I: Instance>(self) -> f64 {
            slow()
        }
    }
}
