//! Table 4: the Snapdragon 845 mobile-AI provisioning study inputs.
//!
//! The reuse case study (Section 6.1) compares running AI inference on the
//! SoC's programmable CPU cluster against augmenting it with a GPU or DSP
//! co-processor. The paper reports measured inference latency and power;
//! the silicon block areas below are calibrated so that the ACT embodied
//! model under its default fab scenario reproduces the paper's embodied
//! footprints (CPU 253 g, GPU +189 g, DSP +205 g CO₂).
//!
//! Note: the paper's prose ("the GPU and DSP achieve 1.08× and 2.2× lower
//! energy per inference") is inconsistent with Table 4 as printed, where the
//! *GPU* row carries the lowest energy. We encode the table as printed and
//! surface the discrepancy in EXPERIMENTS.md.

use std::fmt;

use act_units::{Area, Energy, Power, TimeSpan};

use crate::ProcessNode;

act_json::json_enum! {
    [ToJson]
    /// The compute engine used for AI inference in the provisioning study.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
    pub enum Engine {
        /// The programmable CPU cluster alone.
        Cpu,
        /// CPU plus the Adreno-class GPU co-processor.
        Gpu,
        /// CPU plus the Hexagon-class DSP co-processor.
        Dsp,
    }
}

impl Engine {
    /// All engines in Table 4 order.
    pub const ALL: [Self; 3] = [Self::Cpu, Self::Dsp, Self::Gpu];
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Self::Cpu => "CPU",
            Self::Gpu => "GPU(+CPU)",
            Self::Dsp => "DSP(+CPU)",
        };
        f.write_str(name)
    }
}

act_json::json_struct! {
    [ToJson]
    /// One Table 4 row: measured AI-inference behaviour of an engine.
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub struct EngineProfile {
        /// Which engine the row describes.
        pub engine: Engine,
        /// Single-inference latency in milliseconds.
        pub latency_ms: f64,
        /// Average power during inference, in watts.
        pub power_w: f64,
        /// Silicon block area of the engine itself in mm² (calibrated, see
        /// module docs).
        pub block_area_mm2: f64,
    }
}

impl EngineProfile {
    /// Inference latency as a typed quantity.
    #[must_use]
    pub fn latency(&self) -> TimeSpan {
        TimeSpan::milliseconds(self.latency_ms)
    }

    /// Inference power as a typed quantity.
    #[must_use]
    pub fn power(&self) -> Power {
        Power::watts(self.power_w)
    }

    /// Energy per inference.
    #[must_use]
    pub fn energy_per_inference(&self) -> Energy {
        self.power() * self.latency()
    }

    /// Silicon block area as a typed quantity.
    #[must_use]
    pub fn block_area(&self) -> Area {
        Area::square_millimeters(self.block_area_mm2)
    }
}

/// The process node of the Snapdragon 845 (Samsung 10 nm LPP).
pub const NODE: ProcessNode = ProcessNode::N10;

/// Table 4 as printed: CPU, DSP(+CPU), GPU(+CPU).
pub const PROFILES: [EngineProfile; 3] = [
    EngineProfile { engine: Engine::Cpu, latency_ms: 6.0, power_w: 6.6, block_area_mm2: 16.3 },
    EngineProfile { engine: Engine::Dsp, latency_ms: 12.1, power_w: 2.9, block_area_mm2: 13.2 },
    EngineProfile { engine: Engine::Gpu, latency_ms: 9.2, power_w: 2.0, block_area_mm2: 12.2 },
];

// Row order must agree with the lookup below; checked at build time.
const _: () = {
    assert!(matches!(PROFILES[0].engine, Engine::Cpu));
    assert!(matches!(PROFILES[1].engine, Engine::Dsp));
    assert!(matches!(PROFILES[2].engine, Engine::Gpu));
};

/// Looks up the profile for an engine.
#[must_use]
pub fn profile(engine: Engine) -> &'static EngineProfile {
    let row = match engine {
        Engine::Cpu => 0,
        Engine::Dsp => 1,
        Engine::Gpu => 2,
    };
    &PROFILES[row]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_latency_and_power_match_paper() {
        assert_eq!(profile(Engine::Cpu).latency_ms, 6.0);
        assert_eq!(profile(Engine::Cpu).power_w, 6.6);
        assert_eq!(profile(Engine::Dsp).latency_ms, 12.1);
        assert_eq!(profile(Engine::Dsp).power_w, 2.9);
        assert_eq!(profile(Engine::Gpu).latency_ms, 9.2);
        assert_eq!(profile(Engine::Gpu).power_w, 2.0);
    }

    #[test]
    fn energy_per_inference_matches_printed_table() {
        // CPU 39.6 mJ; GPU 18.4 mJ (2.2x lower); DSP 35.1 mJ (1.1x lower).
        let cpu = profile(Engine::Cpu).energy_per_inference().as_millijoules();
        let gpu = profile(Engine::Gpu).energy_per_inference().as_millijoules();
        let dsp = profile(Engine::Dsp).energy_per_inference().as_millijoules();
        assert!((cpu - 39.6).abs() < 1e-9);
        assert!((gpu - 18.4).abs() < 1e-9);
        assert!((dsp - 35.09).abs() < 1e-9);
        assert!((cpu / gpu - 2.15).abs() < 0.05);
        assert!((cpu / dsp - 1.13).abs() < 0.05);
    }

    #[test]
    fn co_processor_areas_are_smaller_than_cpu_block() {
        let cpu = profile(Engine::Cpu).block_area_mm2;
        assert!(profile(Engine::Gpu).block_area_mm2 < cpu);
        assert!(profile(Engine::Dsp).block_area_mm2 < cpu);
    }

    #[test]
    fn engine_display() {
        assert_eq!(Engine::Gpu.to_string(), "GPU(+CPU)");
    }
}
