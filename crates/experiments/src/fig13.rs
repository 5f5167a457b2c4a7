//! Figure 13: designing lean accelerators — QoS-constrained carbon
//! optimization (left) and area-budgeted technology comparison (right,
//! Jevons paradox).

use crate::Present;
use std::fmt;

use act_accel::{AccelConfig, Network};
use act_core::FabScenario;
use act_dse::{argmin_feasible, powers_of_two_iter};
use act_units::{Area, MassCo2};

use crate::render::TextTable;

/// The QoS target of the study: 30 FPS image processing.
pub const QOS_FPS: f64 = 30.0;

act_json::json_struct! {
    [ToJson]
    /// One configuration in the QoS study.
    #[derive(Clone, Debug)]
    pub struct QosRow {
        /// MAC-array width.
        pub macs: u32,
        /// Throughput in FPS.
        pub fps: f64,
        /// Energy per inference in mJ.
        pub energy_mj: f64,
        /// Embodied footprint.
        pub embodied: MassCo2,
    }
}

act_json::json_struct! {
    [ToJson]
    /// The QoS-constrained study (Figure 13 left).
    #[derive(Clone, Debug)]
    pub struct QosStudy {
        /// The 16 nm sweep.
        pub rows: Vec<QosRow>,
    }
}

impl QosStudy {
    /// Leanest configuration meeting the QoS bar — the carbon optimum.
    #[must_use]
    pub fn carbon_optimal(&self) -> &QosRow {
        let idx = argmin_feasible(&self.rows, |r| r.embodied.as_grams(), |r| r.fps >= QOS_FPS)
            .present("some configuration meets QoS");
        &self.rows[idx]
    }

    /// The performance-optimal configuration (max FPS).
    #[must_use]
    pub fn performance_optimal(&self) -> &QosRow {
        self.rows.iter().max_by(|a, b| a.fps.total_cmp(&b.fps)).present("nonempty")
    }

    /// The energy-optimal configuration (min energy per inference).
    #[must_use]
    pub fn energy_optimal(&self) -> &QosRow {
        self.rows.iter().min_by(|a, b| a.energy_mj.total_cmp(&b.energy_mj)).present("nonempty")
    }
}

act_json::json_struct! {
    [ToJson]
    /// One cap × node cell of the area-budget study.
    #[derive(Clone, Debug)]
    pub struct BudgetCell {
        /// Area cap in mm².
        pub cap_mm2: f64,
        /// Feature size in nm.
        pub nanometers: u32,
        /// Widest MAC configuration fitting the cap.
        pub macs: u32,
        /// Area actually used.
        pub area: Area,
        /// Embodied footprint of that area.
        pub embodied: MassCo2,
    }
}

act_json::json_struct! {
    [ToJson]
    /// The area-budget study (Figure 13 right).
    #[derive(Clone, Debug)]
    pub struct BudgetStudy {
        /// Cells for {1, 2} mm² × {28, 16} nm.
        pub cells: Vec<BudgetCell>,
    }
}

impl BudgetStudy {
    /// Cell lookup.
    #[must_use]
    pub fn cell(&self, cap_mm2: f64, nanometers: u32) -> &BudgetCell {
        self.cells
            .iter()
            .find(|c| (c.cap_mm2 - cap_mm2).abs() < 1e-9 && c.nanometers == nanometers)
            .present("cell exists")
    }

    /// The Jevons ratio at a cap: 16 nm footprint over 28 nm footprint.
    #[must_use]
    pub fn newer_node_footprint_increase(&self, cap_mm2: f64) -> f64 {
        self.cell(cap_mm2, 16).embodied.ratio(self.cell(cap_mm2, 28).embodied)
    }
}

act_json::json_struct! {
    [ToJson]
    /// Both studies.
    #[derive(Clone, Debug)]
    pub struct Fig13Result {
        /// Left: QoS-constrained design.
        pub qos: QosStudy,
        /// Right: area-budgeted technology comparison.
        pub budget: BudgetStudy,
    }
}

/// Runs both studies under the default fab.
#[must_use]
pub fn run() -> Fig13Result {
    let fab = FabScenario::default();
    let network = Network::mobile_vision();

    let rows = powers_of_two_iter(64, 2048)
        .map(|macs| {
            let config = AccelConfig::new(macs);
            let eval = config.evaluate(&network);
            QosRow {
                macs,
                fps: eval.throughput().as_per_second(),
                energy_mj: eval.energy().as_millijoules(),
                embodied: act_core::memo::carbon_per_area(&fab, config.node()) * config.area(),
            }
        })
        .collect();

    let mut cells = Vec::new();
    for cap_mm2 in [1.0, 2.0] {
        for nanometers in [28u32, 16] {
            let fitting: Vec<AccelConfig> = powers_of_two_iter(64, 2048)
                .map(|m| AccelConfig::new(m).with_nanometers(nanometers))
                .filter(|c| c.area().as_square_millimeters() <= cap_mm2)
                .collect();
            let widest = fitting.last().present("some configuration fits the cap");
            cells.push(BudgetCell {
                cap_mm2,
                nanometers,
                macs: widest.macs(),
                area: widest.area(),
                embodied: act_core::memo::carbon_per_area(&fab, widest.node()) * widest.area(),
            });
        }
    }

    Fig13Result { qos: QosStudy { rows }, budget: BudgetStudy { cells } }
}

impl fmt::Display for Fig13Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = TextTable::new(
            "Figure 13 (left): 30 FPS QoS study, 16nm",
            &["MACs", "FPS", "energy mJ", "embodied g", "role"],
        );
        let carbon = self.qos.carbon_optimal().macs;
        let perf = self.qos.performance_optimal().macs;
        let energy = self.qos.energy_optimal().macs;
        for r in &self.qos.rows {
            let mut roles = Vec::new();
            if r.macs == carbon {
                roles.push("CO2 opt");
            }
            if r.macs == perf {
                roles.push("perf opt");
            }
            if r.macs == energy {
                roles.push("energy opt");
            }
            t.row(vec![
                r.macs.to_string(),
                format!("{:.1}", r.fps),
                format!("{:.2}", r.energy_mj),
                format!("{:.1}", r.embodied.as_grams()),
                roles.join(", "),
            ]);
        }
        write!(f, "{t}")?;

        let mut b = TextTable::new(
            "Figure 13 (right): area-budgeted technology comparison",
            &["cap mm^2", "node", "MACs", "area mm^2", "embodied g"],
        );
        for c in &self.budget.cells {
            b.row(vec![
                format!("{:.0}", c.cap_mm2),
                format!("{}nm", c.nanometers),
                c.macs.to_string(),
                format!("{:.2}", c.area.as_square_millimeters()),
                format!("{:.1}", c.embodied.as_grams()),
            ]);
        }
        write!(f, "{b}")?;
        for cap in [1.0, 2.0] {
            writeln!(
                f,
                "  {cap:.0} mm^2 cap: 16nm footprint is {:.2}x the 28nm footprint",
                self.budget.newer_node_footprint_increase(cap)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qos_carbon_optimum_is_256_macs() {
        // "To achieve a QoS target of 30 FPS ... the minimum
        // embodied-carbon design comprises 256 MACs."
        assert_eq!(run().qos.carbon_optimal().macs, 256);
    }

    #[test]
    fn performance_optimum_carries_about_3x_the_footprint() {
        // Paper: 3.3x higher embodied for the performance-optimal design.
        let r = run();
        let ratio = r.qos.performance_optimal().embodied.ratio(r.qos.carbon_optimal().embodied);
        assert!((2.8..=3.8).contains(&ratio), "perf/carbon embodied ratio {ratio}");
    }

    #[test]
    fn energy_optimum_carries_about_1_4x_the_footprint() {
        let r = run();
        assert_eq!(r.qos.energy_optimal().macs, 512);
        let ratio = r.qos.energy_optimal().embodied.ratio(r.qos.carbon_optimal().embodied);
        assert!((1.2..=1.5).contains(&ratio), "energy/carbon embodied ratio {ratio}");
    }

    #[test]
    fn over_provisioning_overshoots_the_qos_target() {
        // "the performance and energy optimal points achieve 9x and 3x
        // higher throughput than the QoS target" — we reproduce the
        // overshoot direction with factors ~6x and ~2x.
        let r = run();
        assert!(r.qos.performance_optimal().fps > 4.0 * QOS_FPS);
        assert!(r.qos.energy_optimal().fps > 1.5 * QOS_FPS);
    }

    #[test]
    fn newer_node_fits_more_macs_in_the_same_budget() {
        // Jevons paradox, step 1: the budget is refilled with more compute.
        let r = run();
        for cap in [1.0, 2.0] {
            assert!(r.budget.cell(cap, 16).macs > r.budget.cell(cap, 28).macs, "cap {cap}");
        }
    }

    #[test]
    fn newer_node_raises_the_footprint_within_the_budget() {
        // Jevons paradox, step 2: the refilled budget costs more carbon
        // (paper: +33 % at 1 mm², +28 % at 2 mm²).
        let r = run();
        let at_1mm = r.budget.newer_node_footprint_increase(1.0);
        let at_2mm = r.budget.newer_node_footprint_increase(2.0);
        assert!((1.1..=1.45).contains(&at_1mm), "1 mm^2 increase {at_1mm}");
        assert!((1.1..=1.45).contains(&at_2mm), "2 mm^2 increase {at_2mm}");
    }

    #[test]
    fn budget_is_respected() {
        let r = run();
        for c in &r.budget.cells {
            assert!(c.area.as_square_millimeters() <= c.cap_mm2 + 1e-12);
        }
    }

    #[test]
    fn renders_both_panels() {
        let s = run().to_string();
        assert!(s.contains("(left)") && s.contains("(right)") && s.contains("CO2 opt"));
    }
}
