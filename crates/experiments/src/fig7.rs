//! Figure 7: embodied carbon per gigabyte for DRAM (left), NAND/SSD
//! (center) and HDD (right) technologies.

use std::fmt;

use act_data::{DramTechnology, HddModel, SsdTechnology};

use crate::render::TextTable;

act_json::json_struct! {
    [ToJson]
    /// One bar of the figure.
    #[derive(Clone, Debug)]
    pub struct Bar {
        /// Technology/product label.
        pub label: String,
        /// Carbon per GB in grams.
        pub grams_per_gb: f64,
        /// `true` for device-level characterization (black bars), `false` for
        /// component-level analyses (grey bars).
        pub device_level: bool,
    }
}

act_json::json_struct! {
    [ToJson]
    /// The three panels.
    #[derive(Clone, Debug)]
    pub struct Fig7Result {
        /// DRAM technologies (left panel).
        pub dram: Vec<Bar>,
        /// SSD/NAND technologies (center panel).
        pub ssd: Vec<Bar>,
        /// HDD products (right panel).
        pub hdd: Vec<Bar>,
    }
}

/// Runs the experiment.
#[must_use]
pub fn run() -> Fig7Result {
    Fig7Result {
        dram: DramTechnology::ALL
            .iter()
            .map(|t| Bar {
                label: t.to_string(),
                grams_per_gb: t.carbon_per_gb().as_grams_per_gb(),
                device_level: true,
            })
            .collect(),
        ssd: SsdTechnology::ALL
            .iter()
            .map(|t| Bar {
                label: t.to_string(),
                grams_per_gb: t.carbon_per_gb().as_grams_per_gb(),
                device_level: t.is_device_level(),
            })
            .collect(),
        hdd: HddModel::ALL
            .iter()
            .map(|m| Bar {
                label: m.to_string(),
                grams_per_gb: m.carbon_per_gb().as_grams_per_gb(),
                device_level: false,
            })
            .collect(),
    }
}

impl Fig7Result {
    fn max(bars: &[Bar]) -> f64 {
        bars.iter().map(|b| b.grams_per_gb).fold(0.0, f64::max)
    }

    /// Peak DRAM intensity (g CO₂/GB).
    #[must_use]
    pub fn dram_peak(&self) -> f64 {
        Self::max(&self.dram)
    }

    /// Peak SSD intensity (g CO₂/GB).
    #[must_use]
    pub fn ssd_peak(&self) -> f64 {
        Self::max(&self.ssd)
    }

    /// Peak HDD intensity (g CO₂/GB).
    #[must_use]
    pub fn hdd_peak(&self) -> f64 {
        Self::max(&self.hdd)
    }
}

impl fmt::Display for Fig7Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (panel, bars) in [("DRAM", &self.dram), ("SSD", &self.ssd), ("HDD", &self.hdd)] {
            let mut t = TextTable::new(
                &format!("Figure 7 ({panel}): embodied carbon per GB"),
                &["technology", "g CO2/GB", "characterization"],
            );
            for b in bars {
                t.row(vec![
                    b.label.clone(),
                    format!("{:.2}", b.grams_per_gb),
                    if b.device_level {
                        "device-level".into()
                    } else {
                        "component-level".into()
                    },
                ]);
            }
            write!(f, "{t}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panel_sizes_match_appendix_tables() {
        let r = run();
        assert_eq!(r.dram.len(), 8);
        assert_eq!(r.ssd.len(), 12);
        assert_eq!(r.hdd.len(), 10);
    }

    #[test]
    fn dram_is_the_most_carbon_intensive_per_gb() {
        // "At commensurate technology nodes, the carbon intensity of DRAM
        // is higher than that of SSD and HDD."
        let r = run();
        assert!(r.dram_peak() > r.ssd_peak());
        assert!(r.dram_peak() > r.hdd_peak());
        // Same holds for modern nodes: LPDDR4 (48) vs V3 TLC (6.3).
        assert!(
            DramTechnology::Lpddr4.carbon_per_gb() > SsdTechnology::V3NandTlc.carbon_per_gb()
        );
    }

    #[test]
    fn newer_nodes_are_cleaner_per_gb_for_dram_and_ssd() {
        assert!(
            DramTechnology::Ddr4_10nm.carbon_per_gb()
                < DramTechnology::Ddr3_50nm.carbon_per_gb()
        );
        assert!(
            SsdTechnology::Nand1zTlc.carbon_per_gb() < SsdTechnology::Nand30nm.carbon_per_gb()
        );
    }

    #[test]
    fn both_characterization_styles_present_for_ssd() {
        let r = run();
        assert!(r.ssd.iter().any(|b| b.device_level));
        assert!(r.ssd.iter().any(|b| !b.device_level));
    }

    #[test]
    fn renders_three_panels() {
        let s = run().to_string();
        assert!(s.contains("(DRAM)") && s.contains("(SSD)") && s.contains("(HDD)"));
    }
}
