//! ACT015 positive fixture: a block body that is not always inlined, and
//! helpers it reaches by a free, a method and a path call that are only
//! hinted inline or not marked at all (its test keeps ACT016 quiet).

use act_core::wide::{Body, Instance};

/// A column scaled in place.
pub struct Scale<'a>(&'a mut [f64]);

impl Scale<'_> {
    #[inline]
    fn apply(&mut self) {
        for v in self.0.iter_mut() {
            *v = Self::twice(*v) + offset(*v);
        }
    }

    const fn twice(x: f64) -> f64 {
        x * 2.0
    }
}

/// Reached only through `apply`.
#[inline]
fn offset(x: f64) -> f64 {
    x.abs()
}

impl Body for Scale<'_> {
    type Output = ();

    #[inline]
    fn run<I: Instance>(mut self) {
        self.apply();
    }
}

#[cfg(test)]
mod tests {
    use act_core::wide::{run_wide, Baseline, V4};

    use super::*;

    #[test]
    fn scale_in_every_instance() {
        let mut outs = [[1.0], [1.0], [1.0]];
        let [base, v4, wide] = &mut outs;
        Scale(base).run::<Baseline>();
        Scale(v4).run::<V4>();
        run_wide(Scale(wide));
        assert_eq!(outs[0], outs[1]);
    }
}
