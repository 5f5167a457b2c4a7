//! Figure 16: the Fairphone 3 LCA breakdown — by module, by component type,
//! and within the core module.

use crate::Present;
use std::fmt;

use act_data::reports::{
    BreakdownSlice, FAIRPHONE3_BY_COMPONENT, FAIRPHONE3_BY_MODULE, FAIRPHONE3_CORE_MODULE,
    FAIRPHONE3_MANUFACTURING_KG,
};

use crate::render::TextTable;

act_json::json_struct! {
    [ToJson]
    /// The three breakdown panels.
    #[derive(Clone, Debug)]
    pub struct Fig16Result {
        /// Total manufacturing footprint the shares apply to, kg CO₂.
        pub total_kg: f64,
        /// Panel (a): by module.
        pub by_module: Vec<BreakdownSlice>,
        /// Panel (b): by component type.
        pub by_component: Vec<BreakdownSlice>,
        /// Panel (c): within the core module.
        pub core_module: Vec<BreakdownSlice>,
    }
}

/// Runs the experiment.
#[must_use]
pub fn run() -> Fig16Result {
    Fig16Result {
        total_kg: FAIRPHONE3_MANUFACTURING_KG,
        by_module: FAIRPHONE3_BY_MODULE.to_vec(),
        by_component: FAIRPHONE3_BY_COMPONENT.to_vec(),
        core_module: FAIRPHONE3_CORE_MODULE.to_vec(),
    }
}

impl Fig16Result {
    /// Share of manufacturing emissions attributable to ICs when the core
    /// module's IC content is combined with the board-level IC slice — the
    /// paper cites roughly 70 %.
    #[must_use]
    pub fn ic_share(&self) -> f64 {
        let core = self.by_module.iter().find(|s| s.label == "Core module").present("core");
        let ic_in_core: f64 = self
            .core_module
            .iter()
            .filter(|s| {
                s.label.contains("IC")
                    || s.label.contains("Processor")
                    || s.label.contains("RAM")
            })
            .map(|s| s.share)
            .sum();
        // ICs inside the core module plus camera/display driver ICs in the
        // remaining modules (approximated by the component-type view).
        let outside_core = (1.0 - core.share) * self.by_component[0].share;
        core.share * ic_in_core + outside_core
    }
}

fn panel(f: &mut fmt::Formatter<'_>, title: &str, slices: &[BreakdownSlice]) -> fmt::Result {
    let mut t = TextTable::new(title, &["slice", "share"]);
    for s in slices {
        t.row(vec![s.label.to_owned(), format!("{:.0}%", s.share * 100.0)]);
    }
    write!(f, "{t}")
}

impl fmt::Display for Fig16Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fairphone 3 manufacturing footprint: {:.1} kg CO2", self.total_kg)?;
        panel(f, "Figure 16a: by module", &self.by_module)?;
        panel(f, "Figure 16b: by component type", &self.by_component)?;
        panel(f, "Figure 16c: core module", &self.core_module)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_module_dominates() {
        let r = run();
        let core = r.by_module.iter().find(|s| s.label == "Core module").unwrap();
        for other in r.by_module.iter().filter(|s| s.label != "Core module") {
            assert!(core.share > other.share);
        }
    }

    #[test]
    fn ics_are_the_majority_of_emissions() {
        // The paper: "IC's account for roughly 70% for Fairphone 3."
        let share = run().ic_share();
        assert!((0.55..=0.85).contains(&share), "IC share {share}");
    }

    #[test]
    fn ram_and_flash_lead_the_core_module() {
        let r = run();
        assert_eq!(r.core_module[0].label, "RAM & Flash");
    }

    #[test]
    fn renders_three_panels() {
        let s = run().to_string();
        assert!(s.contains("16a") && s.contains("16b") && s.contains("16c"));
    }
}
