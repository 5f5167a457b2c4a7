//! Table 12: re-estimating published LCA rows with the ACT model under the
//! legacy node the LCA assumed ("node 1") and the shipping node ("node 2").

use act_core::FabScenario;
use act_data::reports::{LcaComparisonRow, TABLE12};
use act_data::{DramTechnology, ProcessNode, SsdTechnology};
use act_units::{Area, Capacity, MassCo2};

act_json::json_struct! {
    [ToJson]
    /// One Table 12 row together with this implementation's ACT re-estimates.
    #[derive(Clone, Debug)]
    pub struct NodeComparison {
        /// The published row (LCA value and the paper's own ACT estimates).
        pub row: &'static LcaComparisonRow,
        /// Our ACT estimate under the LCA's legacy node assumption.
        pub ours_node1: MassCo2,
        /// Our ACT estimate under the actual hardware node.
        pub ours_node2: MassCo2,
    }
}

impl NodeComparison {
    /// Ratio of the published LCA value to our modern-node estimate — the
    /// over-estimation factor of legacy-node LCAs.
    #[must_use]
    pub fn lca_overestimate(&self) -> f64 {
        MassCo2::kilograms(self.row.lca_kg).ratio(self.ours_node2)
    }
}

fn soc(area_mm2: f64, node: ProcessNode, fab: &FabScenario) -> MassCo2 {
    fab.carbon_per_area(node) * Area::square_millimeters(area_mm2)
}

fn dram(tech: DramTechnology, gb: f64) -> MassCo2 {
    tech.carbon_per_gb() * Capacity::gigabytes(gb)
}

fn ssd(tech: SsdTechnology, gb: f64) -> MassCo2 {
    tech.carbon_per_gb() * Capacity::gigabytes(gb)
}

/// Computes every Table 12 row with the ACT model.
///
/// Node-1 estimates use the technology the published LCA assumed (50 nm
/// DDR3, 30 nm NAND, 28 nm logic); node-2 estimates use the shipping parts
/// (10 nm-class DDR4/LPDDR4, V3 TLC NAND, 14 nm logic). Logic areas are
/// those of the device teardowns in `act_data::scenarios`.
#[must_use]
pub fn table12(fab: &FabScenario) -> Vec<NodeComparison> {
    TABLE12
        .iter()
        .map(|row| {
            let (ours_node1, ours_node2) = match (row.device, row.category) {
                ("Dell R740", "RAM") => (
                    dram(DramTechnology::Ddr3_50nm, 576.0),
                    dram(DramTechnology::Ddr4_10nm, 576.0),
                ),
                ("Apple iPhone 11", "Flash") => {
                    (ssd(SsdTechnology::Nand10nm, 64.0), ssd(SsdTechnology::V3NandTlc, 64.0))
                }
                ("Dell R740", "Flash (31TB)") => (
                    ssd(SsdTechnology::Nand30nm, 31_744.0)
                        + dram(DramTechnology::Ddr3_50nm, 32.0),
                    ssd(SsdTechnology::V3NandTlc, 31_744.0)
                        + dram(DramTechnology::Ddr4_10nm, 32.0),
                ),
                ("Dell R740", "Flash (400GB)") => (
                    ssd(SsdTechnology::Nand30nm, 400.0) + dram(DramTechnology::Ddr3_50nm, 4.0),
                    ssd(SsdTechnology::V3NandTlc, 400.0) + dram(DramTechnology::Ddr4_10nm, 4.0),
                ),
                ("Fairphone 3", "Flash + RAM") => (
                    ssd(SsdTechnology::Nand30nm, 64.0) + dram(DramTechnology::Ddr3_50nm, 4.0),
                    ssd(SsdTechnology::V3NandTlc, 64.0) + dram(DramTechnology::Lpddr4, 4.0),
                ),
                ("Dell R740", "CPU") => {
                    (soc(1388.0, ProcessNode::N28, fab), soc(1388.0, ProcessNode::N14, fab))
                }
                ("Fairphone 3", "CPU") => {
                    (soc(80.0, ProcessNode::N28, fab), soc(80.0, ProcessNode::N14, fab))
                }
                ("Fairphone 3", "Other ICs") => {
                    (soc(452.0, ProcessNode::N28, fab), soc(452.0, ProcessNode::N14, fab))
                }
                (device, category) => {
                    unreachable!("unmapped Table 12 row: {device} / {category}")
                }
            };
            NodeComparison { row, ours_node1, ours_node2 }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<NodeComparison> {
        table12(&FabScenario::default())
    }

    #[test]
    fn every_published_row_is_computed() {
        assert_eq!(rows().len(), TABLE12.len());
    }

    #[test]
    fn logic_rows_land_close_to_the_papers_estimates() {
        // CPU and other-IC rows depend only on area x CPA, where our
        // calibration should track the paper within ~30 %.
        for c in rows() {
            if c.row.category == "CPU" || c.row.category == "Other ICs" {
                let r1 = c.ours_node1.as_kilograms() / c.row.act_node1_kg;
                let r2 = c.ours_node2.as_kilograms() / c.row.act_node2_kg;
                assert!(
                    (0.7..=1.3).contains(&r1),
                    "{} {} node1: ours {} vs paper {}",
                    c.row.device,
                    c.row.category,
                    c.ours_node1.as_kilograms(),
                    c.row.act_node1_kg
                );
                assert!(
                    (0.7..=1.3).contains(&r2),
                    "{} {} node2: ours {} vs paper {}",
                    c.row.device,
                    c.row.category,
                    c.ours_node2.as_kilograms(),
                    c.row.act_node2_kg
                );
            }
        }
    }

    #[test]
    fn memory_rows_shrink_dramatically_at_modern_nodes() {
        for c in rows() {
            // Rows whose published LCA rests on a legacy memory node; the
            // iPhone Flash row's LCA is a report value, not a node estimate.
            let legacy_memory = (c.row.category.contains("RAM")
                || c.row.category.contains("Flash"))
                && c.row.lca_node.contains("nm");
            if legacy_memory {
                assert!(
                    c.ours_node2.as_kilograms() < 0.5 * c.ours_node1.as_kilograms(),
                    "{} {}: node2 {} !<< node1 {}",
                    c.row.device,
                    c.row.category,
                    c.ours_node2.as_kilograms(),
                    c.ours_node1.as_kilograms()
                );
            }
        }
    }

    #[test]
    fn legacy_lca_overestimates_modern_memory_by_severalfold() {
        for c in rows() {
            if c.row.category == "RAM" {
                assert!(
                    c.lca_overestimate() > 5.0,
                    "{}: overestimate only {}",
                    c.row.device,
                    c.lca_overestimate()
                );
            }
        }
    }

    #[test]
    fn logic_rows_grow_slightly_at_modern_nodes() {
        // Logic CPA rises from 28 nm to 14 nm, so node-2 logic estimates
        // exceed node-1 (matching the paper's 22 -> 27 kg and 0.9 -> 1.1 kg).
        for c in rows() {
            if c.row.category == "CPU" || c.row.category == "Other ICs" {
                assert!(c.ours_node2 > c.ours_node1, "{} {}", c.row.device, c.row.category);
            }
        }
    }

    #[test]
    fn fairphone_memory_estimates_track_paper() {
        let c = rows()
            .into_iter()
            .find(|c| c.row.device == "Fairphone 3" && c.row.category == "Flash + RAM")
            .unwrap();
        // Paper: node1 5.2 kg, node2 0.9 kg. Ours: 4.32 kg and 0.60 kg.
        assert!((c.ours_node1.as_kilograms() - 4.32).abs() < 0.1);
        assert!((c.ours_node2.as_kilograms() - 0.595).abs() < 0.05);
    }
}
