//! Table 12: published LCA values next to ACT re-estimates under the
//! legacy-node ("node 1") and actual-node ("node 2") assumptions.

use std::fmt;

use act_core::FabScenario;
use act_lca::{table12, NodeComparison};

use crate::render::TextTable;

act_json::json_struct! {
    [ToJson]
    /// The comparison table.
    #[derive(Clone, Debug)]
    pub struct Table12Result {
        /// One comparison per published row.
        pub rows: Vec<NodeComparison>,
    }
}

/// Runs the comparison under the default fab scenario.
#[must_use]
pub fn run() -> Table12Result {
    Table12Result { rows: table12(&FabScenario::default()) }
}

impl fmt::Display for Table12Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = TextTable::new(
            "Table 12: LCA vs ACT (kg CO2); paper values in parentheses",
            &["device", "IC", "LCA", "ACT node1", "ACT node2", "LCA/node2"],
        );
        for c in &self.rows {
            t.row(vec![
                c.row.device.to_owned(),
                c.row.category.to_owned(),
                format!("{:.2}", c.row.lca_kg),
                format!("{:.2} ({:.2})", c.ours_node1.as_kilograms(), c.row.act_node1_kg),
                format!("{:.2} ({:.2})", c.ours_node2.as_kilograms(), c.row.act_node2_kg),
                format!("{:.1}x", c.lca_overestimate()),
            ]);
        }
        write!(f, "{t}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_rows_present() {
        assert_eq!(run().rows.len(), 8);
    }

    #[test]
    fn legacy_lcas_overestimate_memory_by_severalfold() {
        for c in run().rows {
            if c.row.category == "RAM" || c.row.category == "Flash + RAM" {
                assert!(
                    c.lca_overestimate() > 5.0,
                    "{} {}: {}",
                    c.row.device,
                    c.row.category,
                    c.lca_overestimate()
                );
            }
        }
    }

    #[test]
    fn renders_paper_reference_values() {
        let s = run().to_string();
        assert!(s.contains("533") || s.contains("533.00"));
        assert!(s.contains("Fairphone 3") && s.contains("Dell R740"));
    }
}
