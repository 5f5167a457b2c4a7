//! Figure 6: embodied carbon intensities for compute across process nodes —
//! fab energy per area (top), gas emissions under abatement bounds (middle),
//! and aggregate carbon per area under fab-energy scenarios (bottom).

use crate::Present;
use std::fmt;

use act_core::FabScenario;
use act_data::{Abatement, ProcessNode};
use act_units::{EnergyPerArea, MassPerArea};

use crate::render::TextTable;

act_json::json_struct! {
    [ToJson]
    /// One node's column of the figure.
    #[derive(Clone, Debug)]
    pub struct NodeRow {
        /// Process node.
        pub node: ProcessNode,
        /// Fab energy per area (`EPA`).
        pub epa: EnergyPerArea,
        /// Gas per area at 95 % abatement (upper bound).
        pub gpa_95: MassPerArea,
        /// Gas per area at 97 % abatement (TSMC).
        pub gpa_97: MassPerArea,
        /// Gas per area at 99 % abatement (lower bound).
        pub gpa_99: MassPerArea,
        /// CPA with a Taiwan-grid fab (upper bound).
        pub cpa_taiwan: MassPerArea,
        /// CPA with the default 25 %-renewable fab (solid line).
        pub cpa_default: MassPerArea,
        /// CPA with a 100 % solar fab (lower bound).
        pub cpa_solar: MassPerArea,
    }
}

act_json::json_struct! {
    [ToJson]
    /// The full node sweep.
    #[derive(Clone, Debug)]
    pub struct Fig6Result {
        /// Rows from 28 nm down to 3 nm.
        pub rows: Vec<NodeRow>,
    }
}

/// Runs the sweep.
#[must_use]
pub fn run() -> Fig6Result {
    let taiwan = FabScenario::taiwan_grid();
    let default = FabScenario::default();
    let solar = FabScenario::renewable();
    let rows = ProcessNode::ALL
        .iter()
        .map(|&node| NodeRow {
            node,
            epa: node.energy_per_area(),
            gpa_95: node.gas_per_area(Abatement::Percent95),
            gpa_97: node.gas_per_area(Abatement::Percent97),
            gpa_99: node.gas_per_area(Abatement::Percent99),
            cpa_taiwan: taiwan.carbon_per_area(node),
            cpa_default: default.carbon_per_area(node),
            cpa_solar: solar.carbon_per_area(node),
        })
        .collect();
    Fig6Result { rows }
}

impl Fig6Result {
    /// Ratio of 3 nm CPA to 28 nm CPA under the default fab — how much the
    /// per-area footprint grows across the decade of scaling.
    #[must_use]
    pub fn cpa_growth_28nm_to_3nm(&self) -> f64 {
        let first = self.rows.first().present("28 nm present");
        let last = self.rows.last().present("3 nm present");
        last.cpa_default.ratio(first.cpa_default)
    }
}

impl fmt::Display for Fig6Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = TextTable::new(
            "Figure 6: fab intensities per cm^2 across nodes",
            &[
                "node",
                "EPA kWh",
                "GPA g (95%)",
                "GPA g (97%)",
                "GPA g (99%)",
                "CPA kg (Taiwan)",
                "CPA kg (25% renew)",
                "CPA kg (solar)",
            ],
        );
        for r in &self.rows {
            t.row(vec![
                r.node.to_string(),
                format!("{:.3}", r.epa.as_kwh_per_cm2()),
                format!("{:.0}", r.gpa_95.as_grams_per_cm2()),
                format!("{:.0}", r.gpa_97.as_grams_per_cm2()),
                format!("{:.0}", r.gpa_99.as_grams_per_cm2()),
                format!("{:.2}", r.cpa_taiwan.as_kilograms_per_cm2()),
                format!("{:.2}", r.cpa_default.as_kilograms_per_cm2()),
                format!("{:.2}", r.cpa_solar.as_kilograms_per_cm2()),
            ]);
        }
        write!(f, "{t}")?;
        writeln!(
            f,
            "  CPA grows {:.2}x from 28nm to 3nm under the default fab",
            self.cpa_growth_28nm_to_3nm()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_all_nine_nodes_in_order() {
        let r = run();
        assert_eq!(r.rows.len(), 9);
        assert_eq!(r.rows[0].node, ProcessNode::N28);
        assert_eq!(r.rows[8].node, ProcessNode::N3);
    }

    #[test]
    fn every_series_rises_toward_newer_nodes() {
        let r = run();
        for pair in r.rows.windows(2) {
            assert!(pair[0].epa <= pair[1].epa);
            assert!(pair[0].gpa_97 <= pair[1].gpa_97);
            assert!(pair[0].cpa_default <= pair[1].cpa_default);
        }
    }

    #[test]
    fn scenario_bounds_bracket_the_solid_line() {
        for r in run().rows {
            assert!(r.cpa_solar < r.cpa_default, "{}", r.node);
            assert!(r.cpa_default < r.cpa_taiwan, "{}", r.node);
            assert!(r.gpa_99 < r.gpa_97 && r.gpa_97 < r.gpa_95, "{}", r.node);
        }
    }

    #[test]
    fn cpa_roughly_doubles_from_28nm_to_3nm() {
        // EPA triples and GPA more than doubles; with the fixed MPA the
        // aggregate lands between 1.5x and 2.2x under the default fab.
        let growth = run().cpa_growth_28nm_to_3nm();
        assert!((1.5..=2.2).contains(&growth), "growth {growth}");
    }

    #[test]
    fn euv_step_is_visible_at_7nm() {
        let r = run();
        let n7 = &r.rows[4];
        let n7euv = &r.rows[5];
        assert!(n7euv.epa > n7.epa * 1.3, "EUV lithography energy step");
    }
}
