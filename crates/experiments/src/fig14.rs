//! Figure 14: the lifetime-extension study — annual efficiency gains
//! (left) vs the embodied/operational trade-off of replacement cadence
//! (right).

use std::fmt;

use act_data::MOBILE_SOCS;
use act_soc::{annual_efficiency_improvement, ReplacementModel};

use crate::render::TextTable;

act_json::json_struct! {
    [ToJson]
    /// One lifetime choice of the sweep.
    #[derive(Clone, Debug)]
    pub struct LifetimeRow {
        /// Replacement cadence in years.
        pub lifetime_years: u32,
        /// Devices consumed over the horizon.
        pub devices: u32,
        /// Embodied total (relative units).
        pub embodied: f64,
        /// Operational total (relative units).
        pub operational: f64,
    }
}

impl LifetimeRow {
    /// Combined footprint.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.embodied + self.operational
    }
}

act_json::json_struct! {
    [ToJson]
    /// The full study.
    #[derive(Clone, Debug)]
    pub struct Fig14Result {
        /// Measured annual efficiency improvement (paper: ≈1.21×).
        pub annual_improvement: f64,
        /// The replacement model used for the sweep.
        pub model: ReplacementModel,
        /// Rows for 1…10-year lifetimes.
        pub rows: Vec<LifetimeRow>,
    }
}

/// Runs the study with the efficiency trend measured from the SoC database.
#[must_use]
pub fn run() -> Fig14Result {
    let annual_improvement = annual_efficiency_improvement(&MOBILE_SOCS);
    let model = ReplacementModel::mobile_study(annual_improvement);
    let rows = (1..=model.horizon_years)
        .map(|lt| LifetimeRow {
            lifetime_years: lt,
            devices: model.devices_needed(lt),
            embodied: model.embodied_total(lt),
            operational: model.operational_total(lt),
        })
        .collect();
    Fig14Result { annual_improvement, model, rows }
}

impl Fig14Result {
    /// The footprint-minimizing lifetime.
    #[must_use]
    pub fn optimal_lifetime(&self) -> u32 {
        self.model.optimal_lifetime_years()
    }

    /// Improvement of the optimum over today's 2–3-year replacement
    /// cadence (paper: up to 1.26×).
    #[must_use]
    pub fn improvement_over_current_lifetimes(&self) -> f64 {
        let current = (self.model.total(2) + self.model.total(3)) / 2.0;
        current / self.model.total(self.optimal_lifetime())
    }
}

impl fmt::Display for Fig14Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 14 (left): annual energy-efficiency improvement {:.2}x",
            self.annual_improvement
        )?;
        let mut t = TextTable::new(
            "Figure 14 (right): lifetime sweep over a 10-year horizon",
            &["lifetime yr", "devices", "embodied", "operational", "total"],
        );
        for r in &self.rows {
            t.row(vec![
                r.lifetime_years.to_string(),
                r.devices.to_string(),
                format!("{:.2}", r.embodied),
                format!("{:.2}", r.operational),
                format!("{:.2}", r.total()),
            ]);
        }
        write!(f, "{t}")?;
        writeln!(
            f,
            "  optimal lifetime {} years ({:.2}x better than 2-3 year cadence)",
            self.optimal_lifetime(),
            self.improvement_over_current_lifetimes()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn annual_improvement_matches_papers_1_21x() {
        let r = run();
        assert!(
            (1.12..=1.30).contains(&r.annual_improvement),
            "improvement {}",
            r.annual_improvement
        );
    }

    #[test]
    fn optimal_lifetime_is_about_five_years() {
        let opt = run().optimal_lifetime();
        assert!((4..=6).contains(&opt), "optimum {opt}");
    }

    #[test]
    fn optimum_beats_current_cadence_by_about_1_26x() {
        let improvement = run().improvement_over_current_lifetimes();
        assert!((1.15..=1.40).contains(&improvement), "improvement {improvement}");
    }

    #[test]
    fn embodied_and_operational_pull_in_opposite_directions() {
        let r = run();
        for pair in r.rows.windows(2) {
            assert!(pair[1].embodied <= pair[0].embodied);
            assert!(pair[1].operational >= pair[0].operational);
        }
    }

    #[test]
    fn total_is_interior_minimized() {
        // Neither extreme (annual replacement, never replace) is optimal.
        let r = run();
        let opt = r.optimal_lifetime();
        assert!(opt > 1 && opt < 10);
    }

    #[test]
    fn renders_sweep() {
        let s = run().to_string();
        assert!(s.contains("optimal lifetime") && s.contains("devices"));
    }
}
