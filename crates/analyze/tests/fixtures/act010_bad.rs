//! ACT010 positive fixture (analyzed as the Monte-Carlo module): raw `<`
//! in a comparator and a bare `partial_cmp` — one NaN poisons the ordering.

use std::cmp::Ordering;

pub fn sort_points(points: &mut Vec<Point>) {
    points.sort_by(|a, b| if a.carbon < b.carbon { Ordering::Less } else { Ordering::Greater });
}

pub fn dominates(a: f64, b: f64) -> Option<Ordering> {
    a.partial_cmp(&b)
}
