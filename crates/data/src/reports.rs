//! Industry product-environmental-report (LCA) data: the top-down baselines
//! ACT is compared against in Figures 1, 4, 16, 17 and Table 12.

use act_units::MassCo2;

act_json::json_struct! {
    [ToJson]
    /// Life-cycle phase shares reported by a product environmental report.
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub struct ProductReport {
        /// Device name.
        pub name: &'static str,
        /// Report publication year.
        pub year: u32,
        /// Total life-cycle footprint in kg CO₂.
        pub total_kg: f64,
        /// Share of emissions from hardware manufacturing.
        pub manufacturing_share: f64,
        /// Share of emissions from operational use.
        pub use_share: f64,
        /// Share of emissions from transport.
        pub transport_share: f64,
        /// Share of emissions from end-of-life processing.
        pub end_of_life_share: f64,
    }
}

impl ProductReport {
    /// Total life-cycle footprint.
    #[must_use]
    pub fn total(&self) -> MassCo2 {
        MassCo2::kilograms(self.total_kg)
    }

    /// Absolute manufacturing footprint.
    #[must_use]
    pub fn manufacturing(&self) -> MassCo2 {
        self.total() * self.manufacturing_share
    }

    /// Absolute operational footprint.
    #[must_use]
    pub fn operational(&self) -> MassCo2 {
        self.total() * self.use_share
    }

    /// Top-down IC estimate: Apple's sustainability reporting attributes
    /// about 44 % of the manufacturing footprint of its devices to
    /// integrated circuits; Figure 4's "LCA" bars apply that average.
    #[must_use]
    pub fn ic_estimate(&self) -> MassCo2 {
        self.manufacturing() * IC_SHARE_OF_MANUFACTURING
    }
}

/// Average share of device manufacturing emissions owed to ICs (Apple
/// sustainability reports, as used by Figure 4).
pub const IC_SHARE_OF_MANUFACTURING: f64 = 0.44;

/// iPhone 3GS-era report (Figure 1 left: manufacturing 45 %, use 49 %).
pub const IPHONE_3: ProductReport = ProductReport {
    name: "iPhone 3",
    year: 2009,
    total_kg: 55.0,
    manufacturing_share: 0.45,
    use_share: 0.49,
    transport_share: 0.04,
    end_of_life_share: 0.02,
};

/// iPhone 11 product environmental report (Figure 1 left: manufacturing
/// 79 %, use 17 %; Figure 4 left: 23 kg top-down IC estimate).
pub const IPHONE_11: ProductReport = ProductReport {
    name: "iPhone 11",
    year: 2019,
    total_kg: 66.0,
    manufacturing_share: 0.79,
    use_share: 0.17,
    transport_share: 0.03,
    end_of_life_share: 0.01,
};

/// iPad (7th generation) product environmental report (Figure 4 right:
/// 28 kg top-down IC estimate).
pub const IPAD: ProductReport = ProductReport {
    name: "iPad",
    year: 2019,
    total_kg: 80.0,
    manufacturing_share: 0.80,
    use_share: 0.16,
    transport_share: 0.03,
    end_of_life_share: 0.01,
};

act_json::json_struct! {
    [ToJson]
    /// One slice of an LCA breakdown pie (Figures 16 and 17).
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub struct BreakdownSlice {
        /// Slice label as printed in the figure.
        pub label: &'static str,
        /// Share of the parent total, in `[0, 1]`.
        pub share: f64,
    }
}

/// Fairphone 3 LCA: manufacturing footprint by module (Figure 16a).
pub const FAIRPHONE3_BY_MODULE: [BreakdownSlice; 7] = [
    BreakdownSlice { label: "Core module", share: 0.59 },
    BreakdownSlice { label: "Display", share: 0.12 },
    BreakdownSlice { label: "Camera", share: 0.08 },
    BreakdownSlice { label: "Battery", share: 0.05 },
    BreakdownSlice { label: "Top module", share: 0.05 },
    BreakdownSlice { label: "Bottom module", share: 0.05 },
    BreakdownSlice { label: "Packaging", share: 0.06 },
];

/// Fairphone 3 LCA: manufacturing footprint by component type (Figure 16b).
pub const FAIRPHONE3_BY_COMPONENT: [BreakdownSlice; 6] = [
    BreakdownSlice { label: "ICs", share: 0.45 },
    BreakdownSlice { label: "PCBs", share: 0.25 },
    BreakdownSlice { label: "Electronic components", share: 0.15 },
    BreakdownSlice { label: "Connectors", share: 0.04 },
    BreakdownSlice { label: "Flex boards", share: 0.04 },
    BreakdownSlice { label: "Others", share: 0.07 },
];

/// Fairphone 3 LCA: the core module's own breakdown (Figure 16c).
pub const FAIRPHONE3_CORE_MODULE: [BreakdownSlice; 6] = [
    BreakdownSlice { label: "RAM & Flash", share: 0.35 },
    BreakdownSlice { label: "Processor", share: 0.25 },
    BreakdownSlice { label: "Other ICs", share: 0.20 },
    BreakdownSlice { label: "PCBs", share: 0.12 },
    BreakdownSlice { label: "Passive components", share: 0.05 },
    BreakdownSlice { label: "Connectors & flex", share: 0.03 },
];

/// Dell R740 LCA: manufacturing footprint by subsystem (Figure 17).
pub const DELL_R740_BREAKDOWN: [BreakdownSlice; 7] = [
    BreakdownSlice { label: "SSD", share: 0.62 },
    BreakdownSlice { label: "Mainboard", share: 0.22 },
    BreakdownSlice { label: "PSU", share: 0.04 },
    BreakdownSlice { label: "Chassis", share: 0.04 },
    BreakdownSlice { label: "Fans", share: 0.02 },
    BreakdownSlice { label: "Transport", share: 0.03 },
    BreakdownSlice { label: "Other", share: 0.03 },
];

/// Dell R740 LCA: mainboard breakdown (Figure 17 right).
pub const DELL_R740_MAINBOARD: [BreakdownSlice; 4] = [
    BreakdownSlice { label: "PWB", share: 0.35 },
    BreakdownSlice { label: "CPU + housing", share: 0.40 },
    BreakdownSlice { label: "Mainboard connectors", share: 0.15 },
    BreakdownSlice { label: "Mixed", share: 0.10 },
];

/// Fairphone 3 total manufacturing footprint (kg CO₂) from its LCA report.
pub const FAIRPHONE3_MANUFACTURING_KG: f64 = 27.6;

/// Dell R740 total manufacturing footprint (kg CO₂) from its LCA report.
pub const DELL_R740_MANUFACTURING_KG: f64 = 6300.0;

act_json::json_struct! {
    [ToJson]
    /// One row of Table 12: an LCA estimate next to ACT's re-estimates under the
    /// LCA's legacy node assumption ("node 1") and the actual hardware node
    /// ("node 2").
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub struct LcaComparisonRow {
        /// IC category, e.g. `"RAM"`.
        pub category: &'static str,
        /// Device the row belongs to.
        pub device: &'static str,
        /// Actual hardware node of the shipping product.
        pub actual_node: &'static str,
        /// Node the published LCA assumed.
        pub lca_node: &'static str,
        /// Published LCA footprint in kg CO₂.
        pub lca_kg: f64,
        /// Paper's ACT estimate under the LCA node assumption, kg CO₂.
        pub act_node1_kg: f64,
        /// Paper's ACT estimate under the actual node, kg CO₂.
        pub act_node2_kg: f64,
    }
}

/// Table 12 as printed in the paper (rows with a single-device scope).
pub const TABLE12: [LcaComparisonRow; 8] = [
    LcaComparisonRow {
        category: "RAM",
        device: "Dell R740",
        actual_node: "10nm DDR4",
        lca_node: "50nm DDR3",
        lca_kg: 533.0,
        act_node1_kg: 329.0,
        act_node2_kg: 64.0,
    },
    LcaComparisonRow {
        category: "Flash",
        device: "Apple iPhone 11",
        actual_node: "V3 TLC",
        lca_node: "(report)",
        lca_kg: 0.56,
        act_node1_kg: 0.6,
        act_node2_kg: 0.48,
    },
    LcaComparisonRow {
        category: "Flash (31TB)",
        device: "Dell R740",
        actual_node: "10nm NAND",
        lca_node: "45nm NAND",
        lca_kg: 3373.0,
        act_node1_kg: 1440.0,
        act_node2_kg: 583.0,
    },
    LcaComparisonRow {
        category: "Flash (400GB)",
        device: "Dell R740",
        actual_node: "10nm NAND",
        lca_node: "45nm NAND",
        lca_kg: 67.0,
        act_node1_kg: 63.0,
        act_node2_kg: 14.0,
    },
    LcaComparisonRow {
        category: "Flash + RAM",
        device: "Fairphone 3",
        actual_node: "10nm NAND + 14nm LPDDR4",
        lca_node: "50nm NAND + 50nm RAM",
        lca_kg: 11.0,
        act_node1_kg: 5.2,
        act_node2_kg: 0.9,
    },
    LcaComparisonRow {
        category: "CPU",
        device: "Dell R740",
        actual_node: "14nm",
        lca_node: "32nm",
        lca_kg: 47.0,
        act_node1_kg: 22.0,
        act_node2_kg: 27.0,
    },
    LcaComparisonRow {
        category: "CPU",
        device: "Fairphone 3",
        actual_node: "14nm",
        lca_node: "32nm",
        lca_kg: 1.07,
        act_node1_kg: 0.9,
        act_node2_kg: 1.1,
    },
    LcaComparisonRow {
        category: "Other ICs",
        device: "Fairphone 3",
        actual_node: "14nm",
        lca_node: "32nm",
        lca_kg: 5.3,
        act_node1_kg: 5.6,
        act_node2_kg: 6.2,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    fn shares_sum_to_one(slices: &[BreakdownSlice]) {
        let total: f64 = slices.iter().map(|s| s.share).sum();
        assert!((total - 1.0).abs() < 1e-9, "shares sum to {total}");
    }

    #[test]
    fn report_shares_sum_to_one() {
        for report in [IPHONE_3, IPHONE_11, IPAD] {
            let total = report.manufacturing_share
                + report.use_share
                + report.transport_share
                + report.end_of_life_share;
            assert!((total - 1.0).abs() < 1e-9, "{}", report.name);
        }
    }

    #[test]
    fn figure1_shift_from_operational_to_embodied() {
        // iPhone 3: use ~ manufacturing; iPhone 11: manufacturing dominates.
        // Read through locals so the comparison is not on literals.
        let (gen1, gen2) = (IPHONE_3, IPHONE_11);
        assert!(gen1.use_share > gen1.manufacturing_share);
        assert!(gen2.manufacturing_share > 4.0 * gen2.use_share);
    }

    #[test]
    fn figure4_topdown_ic_estimates_match_paper() {
        // 23 kg for the iPhone 11 and 28 kg for the iPad.
        assert!((IPHONE_11.ic_estimate().as_kilograms() - 23.0).abs() < 0.5);
        assert!((IPAD.ic_estimate().as_kilograms() - 28.0).abs() < 0.5);
    }

    #[test]
    fn breakdown_shares_are_normalized() {
        shares_sum_to_one(&FAIRPHONE3_BY_MODULE);
        shares_sum_to_one(&FAIRPHONE3_BY_COMPONENT);
        shares_sum_to_one(&FAIRPHONE3_CORE_MODULE);
        shares_sum_to_one(&DELL_R740_BREAKDOWN);
        shares_sum_to_one(&DELL_R740_MAINBOARD);
    }

    #[test]
    fn ics_dominate_fairphone_components() {
        // The paper: ICs are roughly 70 % of Fairphone embodied emissions
        // when including the IC content of other modules; by component type
        // they are the single largest slice.
        let ic_share = FAIRPHONE3_BY_COMPONENT[0].share;
        for slice in &FAIRPHONE3_BY_COMPONENT[1..] {
            assert!(ic_share > slice.share);
        }
    }

    #[test]
    fn table12_modern_node_estimates_shrink() {
        for row in &TABLE12 {
            // Memory/storage rows: ACT at the actual (modern) node is far
            // below the legacy-node LCA; CPU rows stay comparable.
            assert!(row.act_node2_kg > 0.0 && row.act_node1_kg > 0.0);
            if row.category.starts_with("RAM") || row.category.starts_with("Flash (") {
                assert!(
                    row.act_node2_kg < 0.5 * row.lca_kg,
                    "{} {}: {} !< {}",
                    row.device,
                    row.category,
                    row.act_node2_kg,
                    row.lca_kg
                );
            }
        }
    }
}
