//! **Extension study** (not a paper artifact): embodied IC carbon across
//! device classes — wearable, phone, tablet, laptop, server — with the
//! Figure-6 fab uncertainty band. Mirrors the Gupta et al. HPCA'21 survey
//! the paper builds its motivation on.

use std::fmt;

use act_core::FabScenario;
use act_data::scenarios;
use act_units::MassCo2;

use crate::render::{kg, TextTable};

act_json::json_struct! {
    [ToJson]
    /// One device class.
    #[derive(Clone, Debug)]
    pub struct DeviceClassRow {
        /// Device name.
        pub name: String,
        /// Point estimate under the default fab.
        pub embodied: MassCo2,
        /// Lower bound (solar fab, 99 % abatement).
        pub lower: MassCo2,
        /// Upper bound (Taiwan grid, 95 % abatement).
        pub upper: MassCo2,
    }
}

act_json::json_struct! {
    [ToJson]
    /// The survey.
    #[derive(Clone, Debug)]
    pub struct DevicesResult {
        /// Rows ordered smallest to largest device class.
        pub rows: Vec<DeviceClassRow>,
    }
}

/// Runs the survey.
#[must_use]
pub fn run() -> DevicesResult {
    let fab = FabScenario::default();
    let rows = [
        scenarios::WEARABLE,
        scenarios::FAIRPHONE_3,
        scenarios::IPHONE_11,
        scenarios::IPAD,
        scenarios::LAPTOP,
        scenarios::DELL_R740,
    ]
    .into_iter()
    .map(|doc| {
        let device = crate::device(doc);
        let (lower, upper) = device.system().embodied_bounds(&fab);
        DeviceClassRow {
            name: device.name().to_owned(),
            embodied: device.embodied().total(),
            lower,
            upper,
        }
    })
    .collect();
    DevicesResult { rows }
}

impl fmt::Display for DevicesResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = TextTable::new(
            "Extension: embodied IC carbon by device class (kg CO2)",
            &["device", "low", "estimate", "high"],
        );
        for r in &self.rows {
            t.row(vec![r.name.clone(), kg(r.lower), kg(r.embodied), kg(r.upper)]);
        }
        write!(f, "{t}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_classes_are_ordered_by_footprint() {
        let r = run();
        for pair in r.rows.windows(2) {
            assert!(
                pair[1].embodied > pair[0].embodied,
                "{} ({}) should exceed {} ({})",
                pair[1].name,
                pair[1].embodied,
                pair[0].name,
                pair[0].embodied
            );
        }
    }

    #[test]
    fn wearable_to_server_spans_two_orders_of_magnitude() {
        let r = run();
        let smallest = r.rows.first().unwrap().embodied;
        let largest = r.rows.last().unwrap().embodied;
        assert!(largest.ratio(smallest) > 50.0, "span {}", largest.ratio(smallest));
    }

    #[test]
    fn bounds_bracket_every_estimate() {
        for row in run().rows {
            assert!(row.lower < row.embodied && row.embodied < row.upper, "{}", row.name);
        }
    }

    #[test]
    fn renders_all_classes() {
        let s = run().to_string();
        assert!(s.contains("smartwatch") && s.contains("Dell R740"));
    }
}
