//! Figure 9: the CPU/GPU/DSP provisioning choice under ACT's carbon
//! metrics — embodied-centric metrics pick the CPU, operational-centric
//! metrics pick a co-processor.

use crate::Present;
use std::fmt;

use act_core::{DesignPoint, OptimizationMetric};
use act_data::snapdragon845::Engine;

use crate::render::TextTable;
use crate::table4;

act_json::json_struct! {
    [ToJson]
    /// One engine's design point and metric scores normalized to the CPU.
    #[derive(Clone, Debug)]
    pub struct EngineScores {
        /// The engine.
        pub engine: Engine,
        /// Design point (system embodied, per-inference energy, latency, area).
        pub design: DesignPoint,
    }
}

act_json::json_struct! {
    [ToJson]
    /// The metric comparison.
    #[derive(Clone, Debug)]
    pub struct Fig9Result {
        /// CPU, DSP, GPU design points.
        pub engines: Vec<EngineScores>,
    }
}

/// Runs the comparison on the Table 4 study.
#[must_use]
pub fn run() -> Fig9Result {
    let table = table4::run();
    let engines = table
        .rows
        .iter()
        .map(|r| EngineScores {
            engine: r.engine,
            design: DesignPoint {
                embodied: r.ecf_system,
                energy: r.energy,
                delay: r.profile.latency(),
                area: r.profile.block_area(),
            },
        })
        .collect();
    Fig9Result { engines }
}

impl Fig9Result {
    /// Metric score normalized to the CPU design.
    #[must_use]
    pub fn normalized(&self, engine: Engine, metric: OptimizationMetric) -> f64 {
        let cpu = self.engines.iter().find(|e| e.engine == Engine::Cpu).present("CPU present");
        let target = self.engines.iter().find(|e| e.engine == engine).present("engine present");
        metric.score(&target.design) / metric.score(&cpu.design)
    }

    /// The engine a metric selects.
    #[must_use]
    pub fn winner(&self, metric: OptimizationMetric) -> Engine {
        self.engines
            .iter()
            .min_by(|a, b| metric.score(&a.design).total_cmp(&metric.score(&b.design)))
            .present("nonempty")
            .engine
    }
}

impl fmt::Display for Fig9Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = TextTable::new(
            "Figure 9: carbon metrics, normalized to the CPU-only design",
            &["engine", "CDP", "C2EP", "CEP", "CE2P"],
        );
        for e in &self.engines {
            t.row(vec![
                e.engine.to_string(),
                format!("{:.2}", self.normalized(e.engine, OptimizationMetric::Cdp)),
                format!("{:.2}", self.normalized(e.engine, OptimizationMetric::C2ep)),
                format!("{:.2}", self.normalized(e.engine, OptimizationMetric::Cep)),
                format!("{:.2}", self.normalized(e.engine, OptimizationMetric::Ce2p)),
            ]);
        }
        write!(f, "{t}")?;
        for metric in OptimizationMetric::CARBON_AWARE {
            writeln!(f, "    {metric:<5} optimal -> {}", self.winner(metric))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn embodied_centric_metrics_pick_the_cpu() {
        // "For embodied carbon-centric optimization targets, the CPU-based
        // SoC is optimal due to lower manufacturing overheads."
        let r = run();
        assert_eq!(r.winner(OptimizationMetric::Cdp), Engine::Cpu);
        assert_eq!(r.winner(OptimizationMetric::C2ep), Engine::Cpu);
    }

    #[test]
    fn operational_centric_metrics_pick_a_co_processor() {
        // "For operational carbon-centric optimization targets, the
        // [co-processor]-based SoC is optimal given the energy efficiency
        // benefits." (As printed, Table 4's GPU row carries the lowest
        // energy; the prose says DSP — rows appear swapped.)
        let r = run();
        assert_ne!(r.winner(OptimizationMetric::Cep), Engine::Cpu);
        assert_ne!(r.winner(OptimizationMetric::Ce2p), Engine::Cpu);
    }

    #[test]
    fn cpu_normalizations_are_unity() {
        let r = run();
        for metric in OptimizationMetric::ALL {
            assert!((r.normalized(Engine::Cpu, metric) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn co_processors_score_worse_on_c2ep_than_cep() {
        // Squaring the embodied term punishes the extra silicon harder.
        let r = run();
        for engine in [Engine::Gpu, Engine::Dsp] {
            assert!(
                r.normalized(engine, OptimizationMetric::C2ep)
                    > r.normalized(engine, OptimizationMetric::Cep)
            );
        }
    }

    #[test]
    fn renders_all_engines() {
        let s = run().to_string();
        assert!(s.contains("CPU") && s.contains("GPU(+CPU)") && s.contains("DSP(+CPU)"));
    }
}
