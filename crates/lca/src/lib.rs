//! LCA-style baseline estimators: the methodologies ACT is compared against.
//!
//! Three baselines appear in the paper:
//!
//! * **Top-down product reports** (Figure 4's "LCA" bars): a device's total
//!   report footprint, scaled by its manufacturing share and the ~44 %
//!   IC share of manufacturing — see [`top_down_ic_estimate`].
//! * **Economic input-output LCA** (EIO-LCA): carbon from economic cost via
//!   an industry-wide factor — see [`EioLca`].
//! * **Legacy-node database LCAs** (Table 12): bottom-up estimates built on
//!   old process-technology characterizations; [`table12`] recomputes every
//!   row under both the legacy-node assumption ("node 1") and the shipping
//!   hardware's node ("node 2") with the ACT model.
//!
//! # Examples
//!
//! ```
//! use act_data::reports;
//! use act_lca::top_down_ic_estimate;
//!
//! let lca = top_down_ic_estimate(&reports::IPHONE_11);
//! assert!((lca.as_kilograms() - 23.0).abs() < 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compare;
mod eio;

pub use compare::{table12, NodeComparison};
pub use eio::EioLca;

use act_data::reports::ProductReport;
use act_units::MassCo2;

/// Top-down IC footprint estimate from a product environmental report:
/// `total × manufacturing share × IC share` (Figure 4's LCA methodology).
#[must_use]
pub fn top_down_ic_estimate(report: &ProductReport) -> MassCo2 {
    report.ic_estimate()
}

#[cfg(test)]
mod tests {
    use super::*;
    use act_data::reports;

    #[test]
    fn figure4_lca_bars() {
        assert!((top_down_ic_estimate(&reports::IPHONE_11).as_kilograms() - 23.0).abs() < 0.5);
        assert!((top_down_ic_estimate(&reports::IPAD).as_kilograms() - 28.0).abs() < 0.5);
    }

    #[test]
    fn top_down_overestimates_bottom_up() {
        // Figure 4: ACT's bottom-up estimates (17/21 kg) sit below the
        // coarse top-down numbers (23/28 kg).
        let act = act_scenario::Scenario::parse(act_data::scenarios::IPHONE_11)
            .and_then(|scenario| scenario.compile())
            .expect("the iPhone 11 document compiles");
        assert!(act.embodied().total() < top_down_ic_estimate(&reports::IPHONE_11));
    }
}
