//! Figure 10: how renewable energy during *use* (top) and during
//! *manufacturing* (bottom) moves the optimal provisioning choice between
//! general-purpose CPUs and specialized co-processors.

use crate::Present;
use std::fmt;

use act_core::{FabScenario, OperationalModel};
use act_data::snapdragon845::{profile, Engine, NODE, PROFILES};
use act_data::{EnergySource, Location};
use act_units::{CarbonIntensity, MassCo2, TimeSpan};

use crate::render::TextTable;

/// Lifetime utilization of the AI workload stream (relative to the CPU
/// engine running continuously). Mobile AI runs a few percent of the time.
pub const UTILIZATION: f64 = 0.04;

/// Device lifetime.
pub const LIFETIME_YEARS: f64 = 3.0;

act_json::json_struct! {
    [ToJson]
    /// A named carbon-intensity level of the sweep.
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub struct IntensityLevel {
        /// Label as printed on the figure's x-axis.
        pub label: &'static str,
        /// The intensity.
        pub intensity: CarbonIntensity,
    }
}

act_json::json_struct! {
    [ToJson]
    /// Per-engine per-inference footprint under one scenario.
    #[derive(Clone, Debug)]
    pub struct ScenarioCell {
        /// The engine.
        pub engine: Engine,
        /// Amortized embodied footprint per inference.
        pub embodied: MassCo2,
        /// Operational footprint per inference.
        pub operational: MassCo2,
    }
}

impl ScenarioCell {
    /// Combined per-inference footprint.
    #[must_use]
    pub fn total(&self) -> MassCo2 {
        self.embodied + self.operational
    }
}

act_json::json_struct! {
    [ToJson]
    /// One x-axis group: an intensity level with all three engines.
    #[derive(Clone, Debug)]
    pub struct ScenarioGroup {
        /// The swept intensity level.
        pub level: IntensityLevel,
        /// CPU, DSP, GPU cells.
        pub cells: Vec<ScenarioCell>,
    }
}

impl ScenarioGroup {
    /// The engine with the lowest combined footprint.
    #[must_use]
    pub fn winner(&self) -> Engine {
        self.cells
            .iter()
            .min_by(|a, b| a.total().total_cmp(&b.total()))
            .present("nonempty")
            .engine
    }
}

act_json::json_struct! {
    [ToJson]
    /// Both sweeps of Figure 10.
    #[derive(Clone, Debug)]
    pub struct Fig10Result {
        /// Top: use-phase intensity sweep with a Taiwan-grid fab.
        pub use_sweep: Vec<ScenarioGroup>,
        /// Bottom: fab intensity sweep with solar-powered use.
        pub fab_sweep: Vec<ScenarioGroup>,
    }
}

fn levels_use() -> [IntensityLevel; 4] {
    [
        IntensityLevel { label: "Coal", intensity: EnergySource::Coal.carbon_intensity() },
        IntensityLevel {
            label: "US grid",
            intensity: Location::UnitedStates.carbon_intensity(),
        },
        IntensityLevel {
            label: "Renewable",
            intensity: EnergySource::Solar.carbon_intensity(),
        },
        IntensityLevel { label: "Carbon Free", intensity: CarbonIntensity::grams_per_kwh(0.0) },
    ]
}

fn levels_fab() -> [IntensityLevel; 4] {
    [
        IntensityLevel { label: "Coal", intensity: EnergySource::Coal.carbon_intensity() },
        IntensityLevel { label: "Taiwan grid", intensity: Location::Taiwan.carbon_intensity() },
        IntensityLevel {
            label: "Renewable",
            intensity: EnergySource::Solar.carbon_intensity(),
        },
        IntensityLevel { label: "Carbon Free", intensity: CarbonIntensity::grams_per_kwh(0.0) },
    ]
}

/// The workload volume: inferences served over the lifetime at the study's
/// utilization (counted against the CPU engine's latency, so every engine
/// serves the same task stream).
fn lifetime_inferences() -> f64 {
    let lifetime = TimeSpan::years(LIFETIME_YEARS);
    (lifetime * UTILIZATION).as_seconds() / profile(Engine::Cpu).latency().as_seconds()
}

fn group(
    fab: &FabScenario,
    use_intensity: CarbonIntensity,
    level: IntensityLevel,
) -> ScenarioGroup {
    let op = OperationalModel::new(use_intensity);
    let cpa = act_core::memo::carbon_per_area(fab, NODE);
    let n = lifetime_inferences();
    let cpu_block = cpa * profile(Engine::Cpu).block_area();
    let cells = PROFILES
        .iter()
        .map(|p| {
            let system = if p.engine == Engine::Cpu {
                cpu_block
            } else {
                cpu_block + cpa * p.block_area()
            };
            ScenarioCell {
                engine: p.engine,
                embodied: system / n,
                operational: op.footprint(p.energy_per_inference()),
            }
        })
        .collect();
    ScenarioGroup { level, cells }
}

/// Runs both sweeps.
#[must_use]
pub fn run() -> Fig10Result {
    let taiwan_fab = FabScenario::taiwan_grid();
    let use_sweep = levels_use()
        .into_iter()
        .map(|level| group(&taiwan_fab, level.intensity, level))
        .collect();
    let solar_use = EnergySource::Solar.carbon_intensity();
    let fab_sweep = levels_fab()
        .into_iter()
        .map(|level| group(&FabScenario::with_intensity(level.intensity), solar_use, level))
        .collect();
    Fig10Result { use_sweep, fab_sweep }
}

impl Fig10Result {
    /// The 1.8× headline: with carbon-free use, the CPU system's footprint
    /// advantage over the best co-processor system.
    #[must_use]
    pub fn carbon_free_cpu_advantage(&self) -> f64 {
        let group = self
            .use_sweep
            .iter()
            .find(|g| g.level.label == "Carbon Free")
            .present("carbon-free level present");
        let cpu =
            group.cells.iter().find(|c| c.engine == Engine::Cpu).present("CPU present").total();
        let best_co = group
            .cells
            .iter()
            .filter(|c| c.engine != Engine::Cpu)
            .map(ScenarioCell::total)
            .min_by(|a, b| a.total_cmp(b))
            .present("co-processors present");
        best_co.ratio(cpu)
    }
}

fn write_sweep(
    f: &mut fmt::Formatter<'_>,
    title: &str,
    sweep: &[ScenarioGroup],
) -> fmt::Result {
    let mut t = TextTable::new(
        title,
        &["intensity", "engine", "embodied ug", "operational ug", "total ug", "winner"],
    );
    for g in sweep {
        let winner = g.winner();
        for c in &g.cells {
            t.row(vec![
                g.level.label.to_owned(),
                c.engine.to_string(),
                format!("{:.3}", c.embodied.as_micrograms()),
                format!("{:.3}", c.operational.as_micrograms()),
                format!("{:.3}", c.total().as_micrograms()),
                if c.engine == winner { "*".into() } else { String::new() },
            ]);
        }
    }
    write!(f, "{t}")
}

impl fmt::Display for Fig10Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_sweep(
            f,
            "Figure 10 (top): use-phase intensity sweep, Taiwan-grid fab",
            &self.use_sweep,
        )?;
        write_sweep(
            f,
            "Figure 10 (bottom): fab intensity sweep, solar-powered use",
            &self.fab_sweep,
        )?;
        writeln!(
            f,
            "  carbon-free use: CPU wins by {:.2}x over the best co-processor",
            self.carbon_free_cpu_advantage()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renewable_use_shifts_the_winner_to_the_cpu() {
        // Top sweep: co-processors win on dirty grids, the CPU wins once
        // operation is renewable/carbon-free.
        let r = run();
        let winners: Vec<Engine> = r.use_sweep.iter().map(ScenarioGroup::winner).collect();
        assert_ne!(winners[0], Engine::Cpu, "coal use should favor a co-processor");
        assert_ne!(winners[1], Engine::Cpu, "US grid use should favor a co-processor");
        assert_eq!(winners[2], Engine::Cpu, "renewable use should favor the CPU");
        assert_eq!(winners[3], Engine::Cpu, "carbon-free use should favor the CPU");
    }

    #[test]
    fn green_fabs_shift_the_winner_to_specialized_hardware() {
        // Bottom sweep: dirty fabs penalize the extra co-processor silicon;
        // green fabs make specialization cheap.
        let r = run();
        let winners: Vec<Engine> = r.fab_sweep.iter().map(ScenarioGroup::winner).collect();
        assert_eq!(winners[0], Engine::Cpu, "coal fab should favor the CPU");
        assert_eq!(winners[1], Engine::Cpu, "Taiwan-grid fab should favor the CPU");
        assert_ne!(winners[2], Engine::Cpu, "renewable fab should favor a co-processor");
        assert_ne!(winners[3], Engine::Cpu, "carbon-free fab should favor a co-processor");
    }

    #[test]
    fn cpu_advantage_at_carbon_free_use_is_about_1_8x() {
        let advantage = run().carbon_free_cpu_advantage();
        assert!((1.6..=2.0).contains(&advantage), "advantage {advantage}");
    }

    #[test]
    fn operational_share_falls_along_the_use_sweep() {
        let r = run();
        for engine_idx in 0..3 {
            let shares: Vec<f64> = r
                .use_sweep
                .iter()
                .map(|g| {
                    let c = &g.cells[engine_idx];
                    c.operational.ratio(c.total())
                })
                .collect();
            for pair in shares.windows(2) {
                assert!(pair[1] <= pair[0] + 1e-12);
            }
        }
    }

    #[test]
    fn embodied_is_constant_along_the_use_sweep() {
        let r = run();
        for engine_idx in 0..3 {
            let first = r.use_sweep[0].cells[engine_idx].embodied;
            for g in &r.use_sweep {
                assert_eq!(g.cells[engine_idx].embodied, first);
            }
        }
    }

    #[test]
    fn renders_both_sweeps() {
        let s = run().to_string();
        assert!(s.contains("(top)") && s.contains("(bottom)") && s.contains("Carbon Free"));
    }
}
