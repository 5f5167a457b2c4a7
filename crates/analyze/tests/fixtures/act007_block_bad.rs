//! ACT007 positive fixture (analyzed as the act-dse chunk engine): a
//! block-kernel loop whose `EvalBudget` is checked once before the loop
//! but never inside it, so a deadline cannot stop a long sweep.

use std::ops::Range;

pub fn fill_blocks(
    values: &mut [f64],
    block: usize,
    fill: &impl Fn(Range<usize>, &mut [f64]),
    budget: &EvalBudget,
) -> bool {
    if budget.is_exhausted() {
        return false;
    }
    let mut offset = 0;
    while offset < values.len() {
        let end = (offset + block).min(values.len());
        fill(offset..end, &mut values[offset..end]);
        offset = end;
    }
    true
}
