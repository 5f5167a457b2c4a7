//! Figure 1 (left): the shift from operational to embodied emissions
//! between an iPhone 3 (2009) and an iPhone 11 (2019).

use std::fmt;

use act_data::reports::{ProductReport, IPHONE_11, IPHONE_3};

use crate::render::TextTable;

act_json::json_struct! {
    [ToJson]
    /// Life-cycle phase shares for the two generations.
    #[derive(Clone, Debug)]
    pub struct Fig1Result {
        /// The 2009-era report.
        pub iphone3: ProductReport,
        /// The 2019-era report.
        pub iphone11: ProductReport,
    }
}

impl Fig1Result {
    /// How much the operational footprint shrank across the decade
    /// (the paper reports ~2.5×).
    #[must_use]
    pub fn operational_reduction(&self) -> f64 {
        self.iphone3.operational().ratio(self.iphone11.operational())
    }
}

/// Runs the experiment.
#[must_use]
pub fn run() -> Fig1Result {
    Fig1Result { iphone3: IPHONE_3, iphone11: IPHONE_11 }
}

impl fmt::Display for Fig1Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = TextTable::new(
            "Figure 1 (left): life-cycle emission shares",
            &["device", "manufacturing", "use", "transport", "end-of-life"],
        );
        for r in [&self.iphone3, &self.iphone11] {
            t.row(vec![
                r.name.to_owned(),
                format!("{:.0}%", r.manufacturing_share * 100.0),
                format!("{:.0}%", r.use_share * 100.0),
                format!("{:.0}%", r.transport_share * 100.0),
                format!("{:.0}%", r.end_of_life_share * 100.0),
            ]);
        }
        write!(f, "{t}")?;
        writeln!(
            f,
            "  operational footprint reduced {:.1}x across the decade",
            self.operational_reduction()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manufacturing_share_shifts_from_45_to_79_percent() {
        let r = run();
        assert!((r.iphone3.manufacturing_share - 0.45).abs() < 1e-9);
        assert!((r.iphone11.manufacturing_share - 0.79).abs() < 1e-9);
        assert!((r.iphone3.use_share - 0.49).abs() < 1e-9);
        assert!((r.iphone11.use_share - 0.17).abs() < 1e-9);
    }

    #[test]
    fn operational_footprint_shrinks_about_2_5x() {
        let reduction = run().operational_reduction();
        assert!((2.0..=3.0).contains(&reduction), "reduction {reduction}");
    }

    #[test]
    fn renders_both_devices() {
        let s = run().to_string();
        assert!(s.contains("iPhone 3") && s.contains("iPhone 11"));
    }
}
