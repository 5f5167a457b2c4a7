//! The CPU / specialized-ASIC / embedded-FPGA study inputs behind Figure 11.
//!
//! Section 6.2 builds on the SMIV 16 nm SoC (dual Cortex-A53 cluster, an AI
//! accelerator, and an embedded FPGA) to study reuse through reconfigurable
//! hardware. We encode per-application latency and power consistent with the
//! paper's reported ratios: the FPGA is 50×/80×/24× faster than the CPU on
//! FIR/AES/AI (45× geomean); the ASIC accelerates only AI (26×) and is 44×
//! (vs CPU) and 5× (vs FPGA) more energy-efficient on it; the CPU-only SoC
//! incurs 1.3× and 1.8× lower embodied footprint than the ASIC- and
//! FPGA-provisioned SoCs.

use std::fmt;

use act_units::{Area, Energy, Power, TimeSpan};

use crate::ProcessNode;

act_json::json_enum! {
    [ToJson]
    /// The three applications of Figure 11.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
    pub enum App {
        /// Finite-impulse-response filtering.
        Fir,
        /// AES encryption.
        Aes,
        /// AI (DNN) inference.
        Ai,
    }
}

impl App {
    /// All applications in plotting order.
    pub const ALL: [Self; 3] = [Self::Fir, Self::Aes, Self::Ai];
}

impl fmt::Display for App {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Self::Fir => "FIR",
            Self::Aes => "AES",
            Self::Ai => "AI",
        };
        f.write_str(name)
    }
}

act_json::json_enum! {
    [ToJson]
    /// The three hardware provisioning choices of Figure 11.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
    pub enum Platform {
        /// Dual-core Cortex-A53 CPU only.
        Cpu,
        /// CPU plus a specialized AI ASIC ("Accel").
        Accel,
        /// CPU plus an embedded FPGA.
        Fpga,
    }
}

impl Platform {
    /// All platforms in plotting order.
    pub const ALL: [Self; 3] = [Self::Cpu, Self::Accel, Self::Fpga];
}

impl fmt::Display for Platform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Self::Cpu => "CPU",
            Self::Accel => "Accel",
            Self::Fpga => "FPGA",
        };
        f.write_str(name)
    }
}

act_json::json_struct! {
    [ToJson]
    /// Latency and power of one (platform, app) pair.
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub struct Measurement {
        /// Task latency in milliseconds.
        pub latency_ms: f64,
        /// Average power in watts.
        pub power_w: f64,
    }
}

impl Measurement {
    /// Latency as a typed quantity.
    #[must_use]
    pub fn latency(&self) -> TimeSpan {
        TimeSpan::milliseconds(self.latency_ms)
    }

    /// Energy per task.
    #[must_use]
    pub fn energy(&self) -> Energy {
        Power::watts(self.power_w) * self.latency()
    }
}

/// Process node of the SMIV SoC.
pub const NODE: ProcessNode = ProcessNode::N14; // 16 nm maps onto the 14 nm class

/// Total silicon area (mm²) provisioned per platform. The ASIC- and
/// FPGA-based SoCs add their block on top of the CPU subsystem, yielding the
/// paper's 1.3× / 1.8× embodied ratios.
#[must_use]
pub fn silicon_area(platform: Platform) -> Area {
    let mm2 = match platform {
        Platform::Cpu => 10.0,
        Platform::Accel => 13.0,
        Platform::Fpga => 18.0,
    };
    Area::square_millimeters(mm2)
}

/// Measured latency/power of running `app` on `platform`. Workloads without
/// platform support (FIR/AES on the AI ASIC) fall back to the host CPU.
#[must_use]
pub fn measurement(platform: Platform, app: App) -> Measurement {
    // CPU baselines: sized like the SMIV dual-A53 cluster at ~0.5 W.
    const CPU: [Measurement; 3] = [
        Measurement { latency_ms: 10.0, power_w: 0.5 }, // FIR
        Measurement { latency_ms: 16.0, power_w: 0.5 }, // AES
        Measurement { latency_ms: 60.0, power_w: 0.5 }, // AI
    ];
    let idx = match app {
        App::Fir => 0,
        App::Aes => 1,
        App::Ai => 2,
    };
    match (platform, app) {
        (Platform::Cpu, _) => CPU[idx],
        // The ASIC only implements AI: 26x faster, 44x less energy.
        (Platform::Accel, App::Ai) => Measurement { latency_ms: 60.0 / 26.0, power_w: 0.2955 },
        (Platform::Accel, _) => CPU[idx],
        // The FPGA accelerates everything: 50x / 80x / 24x faster.
        (Platform::Fpga, App::Fir) => Measurement { latency_ms: 10.0 / 50.0, power_w: 1.0 },
        (Platform::Fpga, App::Aes) => Measurement { latency_ms: 16.0 / 80.0, power_w: 1.0 },
        (Platform::Fpga, App::Ai) => Measurement { latency_ms: 60.0 / 24.0, power_w: 1.3636 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn speedup(platform: Platform, app: App) -> f64 {
        measurement(Platform::Cpu, app).latency_ms / measurement(platform, app).latency_ms
    }

    fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
        let (product, n) = values.into_iter().fold((1.0, 0u32), |(p, n), v| (p * v, n + 1));
        product.powf(1.0 / f64::from(n))
    }

    #[test]
    fn fpga_speedups_match_paper() {
        assert!((speedup(Platform::Fpga, App::Fir) - 50.0).abs() < 1e-9);
        assert!((speedup(Platform::Fpga, App::Aes) - 80.0).abs() < 1e-9);
        assert!((speedup(Platform::Fpga, App::Ai) - 24.0).abs() < 1e-9);
        let geo = geomean(App::ALL.map(|a| speedup(Platform::Fpga, a)));
        assert!((geo - 45.0).abs() < 1.5, "geomean speedup {geo} should be about 45x");
    }

    #[test]
    fn asic_accelerates_only_ai() {
        assert!((speedup(Platform::Accel, App::Ai) - 26.0).abs() < 1e-9);
        assert!((speedup(Platform::Accel, App::Fir) - 1.0).abs() < 1e-12);
        assert!((speedup(Platform::Accel, App::Aes) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn asic_ai_energy_ratios_match_paper() {
        let cpu = measurement(Platform::Cpu, App::Ai).energy();
        let asic = measurement(Platform::Accel, App::Ai).energy();
        let fpga = measurement(Platform::Fpga, App::Ai).energy();
        assert!((cpu.ratio(asic) - 44.0).abs() < 0.5, "CPU/ASIC AI energy {}", cpu.ratio(asic));
        assert!(
            (fpga.ratio(asic) - 5.0).abs() < 0.2,
            "FPGA/ASIC AI energy {}",
            fpga.ratio(asic)
        );
    }

    #[test]
    fn embodied_area_ratios_match_paper() {
        let cpu = silicon_area(Platform::Cpu);
        assert!((silicon_area(Platform::Accel).ratio(cpu) - 1.3).abs() < 1e-9);
        assert!((silicon_area(Platform::Fpga).ratio(cpu) - 1.8).abs() < 1e-9);
    }

    #[test]
    fn display_labels() {
        assert_eq!(App::Fir.to_string(), "FIR");
        assert_eq!(Platform::Accel.to_string(), "Accel");
    }
}
