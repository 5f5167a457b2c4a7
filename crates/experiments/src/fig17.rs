//! Figure 17: the Dell R740 LCA breakdown — storage dominates a modern
//! server's embodied footprint.

use crate::Present;
use std::fmt;

use act_data::reports::{
    BreakdownSlice, DELL_R740_BREAKDOWN, DELL_R740_MAINBOARD, DELL_R740_MANUFACTURING_KG,
};

use crate::render::TextTable;

act_json::json_struct! {
    [ToJson]
    /// Both breakdown panels.
    #[derive(Clone, Debug)]
    pub struct Fig17Result {
        /// Total manufacturing footprint, kg CO₂.
        pub total_kg: f64,
        /// Server-level breakdown.
        pub server: Vec<BreakdownSlice>,
        /// Mainboard breakdown.
        pub mainboard: Vec<BreakdownSlice>,
    }
}

/// Runs the experiment.
#[must_use]
pub fn run() -> Fig17Result {
    Fig17Result {
        total_kg: DELL_R740_MANUFACTURING_KG,
        server: DELL_R740_BREAKDOWN.to_vec(),
        mainboard: DELL_R740_MAINBOARD.to_vec(),
    }
}

impl Fig17Result {
    /// Share of the server's footprint attributable to ICs (SSDs plus the
    /// mainboard's CPU share) — the paper cites roughly 80 %.
    #[must_use]
    pub fn ic_share(&self) -> f64 {
        let ssd = self.server.iter().find(|s| s.label == "SSD").present("ssd").share;
        let mainboard =
            self.server.iter().find(|s| s.label == "Mainboard").present("mainboard").share;
        let cpu_in_mainboard =
            self.mainboard.iter().find(|s| s.label.contains("CPU")).present("cpu").share;
        ssd + mainboard * cpu_in_mainboard
    }
}

impl fmt::Display for Fig17Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Dell R740 manufacturing footprint: {:.0} kg CO2", self.total_kg)?;
        let mut t = TextTable::new("Figure 17: Dell R740 LCA", &["slice", "share"]);
        for s in &self.server {
            t.row(vec![s.label.to_owned(), format!("{:.0}%", s.share * 100.0)]);
        }
        write!(f, "{t}")?;
        let mut m = TextTable::new("Figure 17 (mainboard)", &["slice", "share"]);
        for s in &self.mainboard {
            m.row(vec![s.label.to_owned(), format!("{:.0}%", s.share * 100.0)]);
        }
        write!(f, "{m}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ssds_dominate_the_server() {
        let r = run();
        let ssd = r.server.iter().find(|s| s.label == "SSD").unwrap();
        for other in r.server.iter().filter(|s| s.label != "SSD") {
            assert!(ssd.share > other.share);
        }
        assert!(ssd.share > 0.5);
    }

    #[test]
    fn ics_are_about_80_percent() {
        let share = run().ic_share();
        assert!((0.6..=0.9).contains(&share), "IC share {share}");
    }

    #[test]
    fn renders_both_panels() {
        let s = run().to_string();
        assert!(s.contains("Dell R740") && s.contains("mainboard"));
    }
}
