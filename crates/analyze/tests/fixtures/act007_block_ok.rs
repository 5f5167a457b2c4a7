//! ACT007 negative fixture: the block-kernel loop checks its
//! `EvalBudget` before every block, so a deadline ends it at a block
//! boundary.

use std::ops::Range;

pub fn fill_blocks(
    values: &mut [f64],
    block: usize,
    fill: &impl Fn(Range<usize>, &mut [f64]),
    budget: &EvalBudget,
) -> bool {
    let mut offset = 0;
    while offset < values.len() {
        if budget.is_exhausted() {
            return false;
        }
        let end = (offset + block).min(values.len());
        fill(offset..end, &mut values[offset..end]);
        offset = end;
    }
    true
}
