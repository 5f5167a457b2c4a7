//! Table 4: Snapdragon 845 mobile AI inference — latency, power,
//! operational and embodied footprint of CPU, GPU and DSP engines, plus the
//! break-even utilizations the prose derives from them.

use crate::Present;
use std::fmt;

use act_core::{FabScenario, OperationalModel};
use act_data::snapdragon845::{profile, Engine, EngineProfile, NODE, PROFILES};
use act_data::EnergySource;
use act_units::{CarbonIntensity, Energy, MassCo2, TimeSpan};

use crate::render::TextTable;

/// The carbon intensity the paper assumes during use: the average United
/// States grid at the time, 300 g CO₂/kWh.
pub const US_INTENSITY: CarbonIntensity = CarbonIntensity::grams_per_kwh(300.0);

/// Assumed device lifetime for amortization.
pub const LIFETIME_YEARS: f64 = 3.0;

act_json::json_struct! {
    [ToJson]
    /// One row of Table 4 with computed footprints.
    #[derive(Clone, Debug)]
    pub struct Table4Row {
        /// The engine.
        pub engine: Engine,
        /// Measured profile (latency, power, block area).
        pub profile: &'static EngineProfile,
        /// Energy per inference.
        pub energy: Energy,
        /// Operational footprint per inference at the US grid.
        pub opcf: MassCo2,
        /// Embodied footprint of the engine's own silicon block.
        pub ecf_block: MassCo2,
        /// Embodied footprint of the provisioned system (co-processors include
        /// the host CPU block).
        pub ecf_system: MassCo2,
    }
}

act_json::json_struct! {
    [ToJson]
    /// The full provisioning study.
    #[derive(Clone, Debug)]
    pub struct Table4Result {
        /// Rows in Table 4 order (CPU, DSP, GPU).
        pub rows: Vec<Table4Row>,
    }
}

/// Runs the study under the paper's default fab scenario.
#[must_use]
pub fn run() -> Table4Result {
    let fab = FabScenario::default();
    let op = OperationalModel::new(US_INTENSITY);
    let cpa = act_core::memo::carbon_per_area(&fab, NODE);
    let cpu_block = cpa * profile(Engine::Cpu).block_area();
    let rows = PROFILES
        .iter()
        .map(|p| {
            let energy = p.energy_per_inference();
            let ecf_block = cpa * p.block_area();
            let ecf_system =
                if p.engine == Engine::Cpu { ecf_block } else { ecf_block + cpu_block };
            Table4Row {
                engine: p.engine,
                profile: p,
                energy,
                opcf: op.footprint(energy),
                ecf_block,
                ecf_system,
            }
        })
        .collect();
    Table4Result { rows }
}

impl Table4Result {
    /// Row lookup.
    #[must_use]
    pub fn row(&self, engine: Engine) -> &Table4Row {
        self.rows.iter().find(|r| r.engine == engine).present("all engines present")
    }

    /// Lifetime utilization at which a co-processor's energy savings have
    /// paid back its additional embodied carbon, under a use-phase carbon
    /// intensity. Returns `None` if the engine saves no energy versus the
    /// CPU (the break-even never arrives).
    #[must_use]
    pub fn break_even_utilization(
        &self,
        engine: Engine,
        intensity: CarbonIntensity,
    ) -> Option<f64> {
        let cpu = self.row(Engine::Cpu);
        let co = self.row(engine);
        let saving_per_inference = intensity * (cpu.energy - co.energy);
        if saving_per_inference <= MassCo2::ZERO {
            return None;
        }
        let inferences_needed = co.ecf_block / saving_per_inference;
        // Utilization: fraction of the lifetime the *CPU-latency* workload
        // stream must run to reach that inference count.
        let busy = cpu.profile.latency() * inferences_needed;
        Some(busy.ratio(TimeSpan::years(LIFETIME_YEARS)))
    }
}

impl fmt::Display for Table4Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = TextTable::new(
            "Table 4: Snapdragon 845 AI inference provisioning",
            &["engine", "latency ms", "power W", "OPCF ug", "ECF g (system)"],
        );
        for r in &self.rows {
            let ecf = if r.engine == Engine::Cpu {
                format!("{:.0}", r.ecf_system.as_grams())
            } else {
                format!(
                    "{:.0} (+{:.0})",
                    r.ecf_block.as_grams(),
                    (r.ecf_system - r.ecf_block).as_grams()
                )
            };
            t.row(vec![
                r.engine.to_string(),
                format!("{:.1}", r.profile.latency_ms),
                format!("{:.1}", r.profile.power_w),
                format!("{:.1}", r.opcf.as_micrograms()),
                ecf,
            ]);
        }
        write!(f, "{t}")?;
        writeln!(f, "  break-even lifetime utilization (US grid / solar):")?;
        for engine in [Engine::Gpu, Engine::Dsp] {
            let us = self.break_even_utilization(engine, US_INTENSITY);
            let solar =
                self.break_even_utilization(engine, EnergySource::Solar.carbon_intensity());
            writeln!(
                f,
                "    {engine}: {} / {}",
                us.map_or("never".into(), |u| format!("{:.1}%", u * 100.0)),
                solar.map_or("never".into(), |u| format!("{:.1}%", u * 100.0)),
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opcf_matches_printed_table() {
        let r = run();
        assert!((r.row(Engine::Cpu).opcf.as_micrograms() - 3.3).abs() < 0.05);
        // 12.1 ms x 2.9 W x 300 g/kWh = 2.92 ug; the paper prints 3.1
        // (its latency/power values are rounded).
        assert!((r.row(Engine::Dsp).opcf.as_micrograms() - 3.1).abs() < 0.25);
        assert!((r.row(Engine::Gpu).opcf.as_micrograms() - 1.5).abs() < 0.05);
    }

    #[test]
    fn ecf_matches_printed_table() {
        let r = run();
        assert!((r.row(Engine::Cpu).ecf_system.as_grams() - 253.0).abs() < 3.0);
        assert!((r.row(Engine::Gpu).ecf_block.as_grams() - 189.0).abs() < 3.0);
        assert!((r.row(Engine::Dsp).ecf_block.as_grams() - 205.0).abs() < 3.0);
    }

    #[test]
    fn co_processor_systems_raise_embodied_by_about_1_8x() {
        // "the GPU's and DSP's additional silicon area increases the
        // embodied footprint by 1.9x and 1.8x" (vs the CPU block alone).
        let r = run();
        let cpu = r.row(Engine::Cpu).ecf_system;
        let gpu = r.row(Engine::Gpu).ecf_system.ratio(cpu);
        let dsp = r.row(Engine::Dsp).ecf_system.ratio(cpu);
        assert!((1.6..=2.0).contains(&gpu), "GPU system ratio {gpu}");
        assert!((1.6..=2.0).contains(&dsp), "DSP system ratio {dsp}");
    }

    #[test]
    fn break_even_utilizations_are_single_digit_percent() {
        // The paper reports "higher than 5% and 1%" for the co-processors
        // (note: its Table 4 GPU/DSP rows appear swapped relative to the
        // prose — see EXPERIMENTS.md). As printed, the GPU saves the most
        // energy and breaks even well below the DSP.
        let r = run();
        let gpu = r.break_even_utilization(Engine::Gpu, US_INTENSITY).unwrap();
        let dsp = r.break_even_utilization(Engine::Dsp, US_INTENSITY).unwrap();
        assert!((0.004..=0.02).contains(&gpu), "GPU break-even {gpu}");
        assert!((0.02..=0.08).contains(&dsp), "DSP break-even {dsp}");
        assert!(gpu < dsp);
    }

    #[test]
    fn renewable_use_raises_break_even_linearly() {
        // "These reuse frequencies linearly increase in the presence of
        // renewable energy during operation" — solar is 300/41 = 7.3x.
        let r = run();
        let us = r.break_even_utilization(Engine::Dsp, US_INTENSITY).unwrap();
        let solar = r
            .break_even_utilization(Engine::Dsp, EnergySource::Solar.carbon_intensity())
            .unwrap();
        assert!((solar / us - 300.0 / 41.0).abs() < 1e-6);
    }

    #[test]
    fn no_break_even_without_energy_savings() {
        let r = run();
        // Against a zero-carbon grid no co-processor ever pays back.
        assert!(r
            .break_even_utilization(Engine::Gpu, CarbonIntensity::grams_per_kwh(0.0))
            .is_none());
    }

    #[test]
    fn renders_table_and_break_evens() {
        let s = run().to_string();
        assert!(s.contains("break-even") && s.contains("DSP(+CPU)"));
    }
}
