//! Typed JSON schema for scenario documents.
//!
//! Leaf records (chips, memory populations, workloads) are declared in
//! [`act_json::json_struct!`] with `[ToJson, FromJson]`, so every declared
//! field is required and type-checked. [`Scenario`], [`FleetSpec`], and
//! [`Distribution`] parse manually because they carry optional sections
//! (`fab`, `workload`, `fleet`, `seed`) or a tagged-union shape.
//! [`Scenario`] and [`FleetSpec`] reject keys they do not define, so a
//! misspelled optional section (`"drams"`, `"sead"`) is an error instead
//! of a silently dropped term.
//!
//! The committed device teardowns in [`act_data::scenarios`] are written
//! in this schema; they are the only copy of the paper's devices.

use act_core::FabScenario;
use act_data::{DramTechnology, HddModel, ProcessNode, SsdTechnology};
use act_json::{FromJson, JsonError, JsonValue};

use crate::compile::ScenarioError;

act_json::json_struct! {
    [ToJson, FromJson]
    /// One logic die population.
    ///
    /// `area_mm2` is the **total** silicon area across all `count` units —
    /// the same convention the teardown tables use — so the embodied model
    /// charges the area once and `count` stays descriptive (packaging is
    /// covered separately by [`Scenario::packaged_ic_count`]).
    #[derive(Clone, Debug, PartialEq)]
    pub struct ChipSpec {
        /// Human-readable die label (carried into the embodied report).
        pub name: String,
        /// Process node the die is fabbed on.
        pub node: ProcessNode,
        /// Total die area across all units, mm².
        pub area_mm2: f64,
        /// Number of physical units (descriptive; see struct docs).
        pub count: u32,
    }
}

act_json::json_struct! {
    [ToJson, FromJson]
    /// One DRAM population entry (technology, GB).
    #[derive(Clone, Debug, PartialEq)]
    pub struct DramSpec {
        /// DRAM technology class (Table 9 row).
        pub technology: DramTechnology,
        /// Capacity in gigabytes.
        pub capacity_gb: f64,
    }
}

act_json::json_struct! {
    [ToJson, FromJson]
    /// One SSD/NAND population entry (technology, GB).
    #[derive(Clone, Debug, PartialEq)]
    pub struct SsdSpec {
        /// NAND technology class (Table 10 row).
        pub technology: SsdTechnology,
        /// Capacity in gigabytes.
        pub capacity_gb: f64,
    }
}

act_json::json_struct! {
    [ToJson, FromJson]
    /// One HDD population entry (model, GB).
    #[derive(Clone, Debug, PartialEq)]
    pub struct HddSpec {
        /// Drive model (Table 11 row).
        pub model: HddModel,
        /// Capacity in gigabytes.
        pub capacity_gb: f64,
    }
}

act_json::json_struct! {
    [ToJson, FromJson]
    /// Use-phase workload: average draw, duty cycle, service life, and grid
    /// carbon intensity. All four fields are required when the section is
    /// present.
    #[derive(Clone, Debug, PartialEq)]
    pub struct Workload {
        /// Average power draw while active, watts.
        pub power_w: f64,
        /// Duty cycle in `[0, 1]`.
        pub utilization: f64,
        /// Service lifetime `LT`, years (Table 1 range `[0.1, 50]`).
        pub lifetime_years: f64,
        /// Use-phase grid carbon intensity `CIuse`, g CO₂/kWh.
        pub use_intensity_g_per_kwh: f64,
    }
}

/// A univariate distribution for a fleet parameter, tagged by `"dist"`:
///
/// ```json
/// {"dist": "point", "value": 3.0}
/// {"dist": "uniform", "low": 2.0, "high": 4.0}
/// {"dist": "triangular", "low": 2.0, "mode": 3.0, "high": 5.0}
/// {"dist": "normal", "mean": 3.0, "std_dev": 0.5}
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Distribution {
    /// Degenerate distribution: every draw is `value`.
    Point {
        /// The constant value.
        value: f64,
    },
    /// Uniform over `[low, high)`.
    Uniform {
        /// Inclusive lower bound.
        low: f64,
        /// Exclusive upper bound; must exceed `low`.
        high: f64,
    },
    /// Triangular over `[low, high]` peaking at `mode`.
    Triangular {
        /// Lower bound.
        low: f64,
        /// Peak; must satisfy `low <= mode <= high`.
        mode: f64,
        /// Upper bound; must exceed `low`.
        high: f64,
    },
    /// Normal with the given mean and (positive) standard deviation.
    Normal {
        /// Distribution mean.
        mean: f64,
        /// Standard deviation; must be finite and positive.
        std_dev: f64,
    },
}

impl Distribution {
    fn field(value: &JsonValue, name: &str) -> Result<f64, JsonError> {
        let field = value.get(name).ok_or_else(|| JsonError::missing_field(name))?;
        f64::from_json(field)
    }

    /// Checks the distribution's *shape* (finite, ordered parameters).
    /// Range conformance against Table 1 is enforced per draw by the
    /// fleet sampler, which rejects out-of-range values as NaN.
    pub(crate) fn validate(&self, field: &'static str) -> Result<(), ScenarioError> {
        let ok = match *self {
            Self::Point { value } => value.is_finite(),
            Self::Uniform { low, high } => low.is_finite() && high.is_finite() && low < high,
            Self::Triangular { low, mode, high } => {
                low.is_finite()
                    && mode.is_finite()
                    && high.is_finite()
                    && low < high
                    && (low..=high).contains(&mode)
            }
            Self::Normal { mean, std_dev } => {
                mean.is_finite() && std_dev.is_finite() && std_dev > 0.0
            }
        };
        if ok {
            Ok(())
        } else {
            Err(ScenarioError::invalid(
                field,
                format!("invalid distribution parameters: {self:?}"),
            ))
        }
    }
}

impl FromJson for Distribution {
    fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
        let tag = value.get("dist").ok_or_else(|| JsonError::missing_field("dist"))?;
        let Some(kind) = tag.as_str() else {
            return Err(JsonError::type_mismatch("distribution tag string", tag));
        };
        match kind {
            "point" => Ok(Self::Point { value: Self::field(value, "value")? }),
            "uniform" => Ok(Self::Uniform {
                low: Self::field(value, "low")?,
                high: Self::field(value, "high")?,
            }),
            "triangular" => Ok(Self::Triangular {
                low: Self::field(value, "low")?,
                mode: Self::field(value, "mode")?,
                high: Self::field(value, "high")?,
            }),
            "normal" => Ok(Self::Normal {
                mean: Self::field(value, "mean")?,
                std_dev: Self::field(value, "std_dev")?,
            }),
            other => Err(JsonError::new(format!(
                "unknown distribution `{other}` (expected point, uniform, triangular, or normal)"
            ))),
        }
    }
}

/// Fleet block: scales the device model to `devices` units, with
/// per-device lifetime, grid intensity, and utilization drawn from
/// [`Distribution`]s by a seeded Monte-Carlo run.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetSpec {
    /// Number of devices in the fleet (scales the per-device mean).
    pub devices: u64,
    /// Monte-Carlo sample count.
    pub samples: usize,
    /// Base RNG seed (optional in JSON; defaults to 0). Each sample
    /// derives its own stream via `act_dse::mc_sample_seed`, so results
    /// are bit-identical across thread counts.
    pub seed: u64,
    /// Per-device service lifetime, years.
    pub lifetime_years: Distribution,
    /// Per-device grid carbon intensity, g CO₂/kWh.
    pub use_intensity_g_per_kwh: Distribution,
    /// Per-device duty cycle in `[0, 1]`.
    pub utilization: Distribution,
}

/// The keys a fleet block may carry.
const FLEET_KEYS: [&str; 6] =
    ["devices", "samples", "seed", "lifetime_years", "use_intensity_g_per_kwh", "utilization"];

/// The keys a scenario document may carry.
const SCENARIO_KEYS: [&str; 9] =
    ["name", "chips", "dram", "ssd", "hdd", "packaged_ic_count", "fab", "workload", "fleet"];

/// Rejects the first key of `value` outside `known`.
fn reject_unknown_keys(value: &JsonValue, known: &[&str]) -> Result<(), JsonError> {
    match value.as_object().and_then(|obj| obj.keys().find(|key| !known.contains(key))) {
        Some(key) => Err(JsonError::unknown_field(key, known)),
        None => Ok(()),
    }
}

impl FromJson for FleetSpec {
    fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
        reject_unknown_keys(value, &FLEET_KEYS)?;
        let require =
            |name: &str| value.get(name).ok_or_else(|| JsonError::missing_field(name));
        let seed = match value.get("seed") {
            Some(raw) => u64::from_json(raw)?,
            None => 0,
        };
        Ok(Self {
            devices: u64::from_json(require("devices")?)?,
            samples: usize::from_json(require("samples")?)?,
            seed,
            lifetime_years: Distribution::from_json(require("lifetime_years")?)?,
            use_intensity_g_per_kwh: Distribution::from_json(require(
                "use_intensity_g_per_kwh",
            )?)?,
            utilization: Distribution::from_json(require("utilization")?)?,
        })
    }
}

/// A full scenario document. `name`, `chips`, and `packaged_ic_count`
/// are required; every other section is optional (`dram`/`ssd`/`hdd`
/// default to empty, `fab` to [`FabScenario::default`]).
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Scenario name, echoed into reports.
    pub name: String,
    /// Logic die populations.
    pub chips: Vec<ChipSpec>,
    /// DRAM populations.
    pub dram: Vec<DramSpec>,
    /// SSD/NAND populations.
    pub ssd: Vec<SsdSpec>,
    /// HDD populations.
    pub hdd: Vec<HddSpec>,
    /// Packaged IC count `Nr` (eq. 3).
    pub packaged_ic_count: u32,
    /// Fab profile for the embodied model; defaults to the paper's
    /// industry-average fab.
    pub fab: Option<FabScenario>,
    /// Use-phase workload; required when `fleet` is present.
    pub workload: Option<Workload>,
    /// Fleet Monte-Carlo block.
    pub fleet: Option<FleetSpec>,
}

impl FromJson for Scenario {
    fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
        reject_unknown_keys(value, &SCENARIO_KEYS)?;
        let require =
            |name: &str| value.get(name).ok_or_else(|| JsonError::missing_field(name));
        fn optional<T: FromJson>(
            value: &JsonValue,
            name: &str,
        ) -> Result<Option<T>, JsonError> {
            match value.get(name) {
                Some(JsonValue::Null) | None => Ok(None),
                Some(raw) => T::from_json(raw).map(Some),
            }
        }
        Ok(Self {
            name: String::from_json(require("name")?)?,
            chips: Vec::from_json(require("chips")?)?,
            dram: optional(value, "dram")?.unwrap_or_default(),
            ssd: optional(value, "ssd")?.unwrap_or_default(),
            hdd: optional(value, "hdd")?.unwrap_or_default(),
            packaged_ic_count: u32::from_json(require("packaged_ic_count")?)?,
            fab: optional(value, "fab")?,
            workload: optional(value, "workload")?,
            fleet: optional(value, "fleet")?,
        })
    }
}

impl Scenario {
    /// Parses a scenario from JSON text under the default
    /// [`act_json::ParseLimits`].
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Json`] on malformed JSON or a document
    /// that does not match the schema.
    pub fn parse(text: &str) -> Result<Self, ScenarioError> {
        let doc = JsonValue::parse(text)?;
        Ok(Self::from_json(&doc)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_document_parses_with_defaults() {
        let doc = r#"{
            "name": "min",
            "chips": [{"name": "SoC", "node": "N7", "area_mm2": 10.0, "count": 1}],
            "packaged_ic_count": 1
        }"#;
        let scenario = Scenario::parse(doc).expect("minimal scenario");
        assert_eq!(scenario.name, "min");
        assert_eq!(scenario.chips.len(), 1);
        assert!(scenario.dram.is_empty());
        assert!(scenario.fab.is_none());
        assert!(scenario.workload.is_none());
        assert!(scenario.fleet.is_none());
    }

    #[test]
    fn distribution_tags_round_trip_through_from_json() {
        let cases = [
            (r#"{"dist":"point","value":3.0}"#, Distribution::Point { value: 3.0 }),
            (
                r#"{"dist":"uniform","low":1.0,"high":2.0}"#,
                Distribution::Uniform { low: 1.0, high: 2.0 },
            ),
            (
                r#"{"dist":"triangular","low":1.0,"mode":2.0,"high":4.0}"#,
                Distribution::Triangular { low: 1.0, mode: 2.0, high: 4.0 },
            ),
            (
                r#"{"dist":"normal","mean":3.0,"std_dev":0.5}"#,
                Distribution::Normal { mean: 3.0, std_dev: 0.5 },
            ),
        ];
        for (doc, expected) in cases {
            let parsed =
                Distribution::from_json(&JsonValue::parse(doc).expect(doc)).expect(doc);
            assert_eq!(parsed, expected, "{doc}");
        }
    }

    #[test]
    fn unknown_distribution_tag_is_a_typed_error() {
        let doc = JsonValue::parse(r#"{"dist":"cauchy","value":1.0}"#).expect("parse");
        let err = Distribution::from_json(&doc).expect_err("cauchy must fail");
        assert!(err.to_string().contains("cauchy"), "{err}");
    }

    #[test]
    fn missing_required_fields_name_the_field() {
        let doc = r#"{"chips": [], "packaged_ic_count": 0}"#;
        let err = Scenario::parse(doc).expect_err("missing name");
        assert!(err.to_string().contains("name"), "{err}");

        let doc = r#"{"name": "x", "chips": [{"name": "a", "node": "N7", "count": 1}],
                      "packaged_ic_count": 0}"#;
        let err = Scenario::parse(doc).expect_err("missing area_mm2");
        assert!(err.to_string().contains("area_mm2"), "{err}");
    }

    #[test]
    fn fleet_seed_defaults_to_zero() {
        let doc = r#"{
            "devices": 10, "samples": 4,
            "lifetime_years": {"dist": "point", "value": 3.0},
            "use_intensity_g_per_kwh": {"dist": "point", "value": 300.0},
            "utilization": {"dist": "point", "value": 0.5}
        }"#;
        let fleet =
            FleetSpec::from_json(&JsonValue::parse(doc).expect("parse")).expect("fleet");
        assert_eq!(fleet.seed, 0);
        assert_eq!(fleet.devices, 10);
    }

    #[test]
    fn misspelled_optional_keys_are_rejected_by_name() {
        let doc = r#"{
            "devices": 10, "samples": 4, "sead": 99,
            "lifetime_years": {"dist": "point", "value": 3.0},
            "use_intensity_g_per_kwh": {"dist": "point", "value": 300.0},
            "utilization": {"dist": "point", "value": 0.5}
        }"#;
        let err = FleetSpec::from_json(&JsonValue::parse(doc).expect("parse"))
            .expect_err("`sead` must not default the seed to 0");
        assert!(err.to_string().contains("unknown field `sead`"), "{err}");

        let doc = r#"{
            "name": "typo",
            "chips": [{"name": "SoC", "node": "N7", "area_mm2": 10.0, "count": 1}],
            "drams": [{"technology": "Lpddr4", "capacity_gb": 4.0}],
            "packaged_ic_count": 1
        }"#;
        let err = Scenario::parse(doc).expect_err("`drams` must not drop the DRAM term");
        assert!(matches!(err, ScenarioError::Json(_)), "{err}");
        assert!(err.to_string().contains("unknown field `drams`"), "{err}");
    }
}
