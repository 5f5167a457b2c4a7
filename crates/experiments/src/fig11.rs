//! Figure 11: programmable CPU vs specialized ASIC vs reconfigurable FPGA
//! on FIR / AES / AI — performance, energy and embodied carbon, and the
//! metric view that makes the FPGA the balanced choice.

use crate::Present;
use std::fmt;

use act_core::{DesignPoint, FabScenario, OptimizationMetric};
use act_data::smiv::{measurement, silicon_area, App, Platform, NODE};
use act_units::{Energy, MassCo2, TimeSpan};

use crate::render::{geomean, TextTable};

act_json::json_struct! {
    [ToJson]
    /// One platform's aggregate view.
    #[derive(Clone, Debug)]
    pub struct PlatformSummary {
        /// The platform.
        pub platform: Platform,
        /// Embodied footprint of the provisioned silicon.
        pub embodied: MassCo2,
        /// Geometric-mean speedup over the CPU across the three apps.
        pub geomean_speedup: f64,
        /// Geometric-mean energy reduction over the CPU across the three apps.
        pub geomean_energy_reduction: f64,
    }
}

act_json::json_struct! {
    [ToJson]
    /// The full study.
    #[derive(Clone, Debug)]
    pub struct Fig11Result {
        /// Per-platform summaries (CPU, Accel, FPGA).
        pub platforms: Vec<PlatformSummary>,
    }
}

/// Per-app speedup of a platform over the CPU.
#[must_use]
pub fn speedup(platform: Platform, app: App) -> f64 {
    measurement(Platform::Cpu, app).latency_ms / measurement(platform, app).latency_ms
}

/// Per-app energy reduction of a platform over the CPU.
#[must_use]
pub fn energy_reduction(platform: Platform, app: App) -> f64 {
    measurement(Platform::Cpu, app).energy().ratio(measurement(platform, app).energy())
}

/// Embodied footprint of a platform's silicon under the default fab.
#[must_use]
pub fn embodied(platform: Platform) -> MassCo2 {
    act_core::memo::carbon_per_area(&FabScenario::default(), NODE) * silicon_area(platform)
}

/// A geomean design point for the metric comparison: embodied silicon,
/// geometric-mean energy and delay across the apps, provisioned area.
#[must_use]
pub fn design_point(platform: Platform) -> DesignPoint {
    let delay = geomean(App::ALL.map(|a| measurement(platform, a).latency_ms)) * 1e-3;
    let energy = geomean(App::ALL.map(|a| measurement(platform, a).energy().as_joules()));
    DesignPoint {
        embodied: embodied(platform),
        energy: Energy::joules(energy),
        delay: TimeSpan::seconds(delay),
        area: silicon_area(platform),
    }
}

/// The platform a metric selects on the mixed workload.
#[must_use]
pub fn winner(metric: OptimizationMetric) -> Platform {
    *Platform::ALL
        .iter()
        .min_by(|a, b| {
            metric.score(&design_point(**a)).total_cmp(&metric.score(&design_point(**b)))
        })
        .present("nonempty")
}

/// Runs the study.
#[must_use]
pub fn run() -> Fig11Result {
    let platforms = Platform::ALL
        .iter()
        .map(|&p| PlatformSummary {
            platform: p,
            embodied: embodied(p),
            geomean_speedup: geomean(App::ALL.map(|a| speedup(p, a))),
            geomean_energy_reduction: geomean(App::ALL.map(|a| energy_reduction(p, a))),
        })
        .collect();
    Fig11Result { platforms }
}

impl fmt::Display for Fig11Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = TextTable::new(
            "Figure 11: CPU vs ASIC (Accel) vs FPGA",
            &["platform", "geomean speedup", "geomean energy red.", "embodied g"],
        );
        for p in &self.platforms {
            t.row(vec![
                p.platform.to_string(),
                format!("{:.1}x", p.geomean_speedup),
                format!("{:.1}x", p.geomean_energy_reduction),
                format!("{:.1}", p.embodied.as_grams()),
            ]);
        }
        write!(f, "{t}")?;
        for metric in OptimizationMetric::CARBON_AWARE {
            writeln!(f, "    {metric:<5} optimal -> {}", winner(metric))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fpga_geomean_speedup_is_about_45x() {
        let r = run();
        let fpga = r.platforms.iter().find(|p| p.platform == Platform::Fpga).unwrap();
        assert!((43.0..=47.0).contains(&fpga.geomean_speedup), "{}", fpga.geomean_speedup);
    }

    #[test]
    fn asic_dominates_ai_alone() {
        // 26x faster and 44x / 5x more energy-efficient on AI.
        assert!((speedup(Platform::Accel, App::Ai) - 26.0).abs() < 0.1);
        assert!((energy_reduction(Platform::Accel, App::Ai) - 44.0).abs() < 0.5);
        let fpga_vs_asic = measurement(Platform::Fpga, App::Ai)
            .energy()
            .ratio(measurement(Platform::Accel, App::Ai).energy());
        assert!((fpga_vs_asic - 5.0).abs() < 0.2);
    }

    #[test]
    fn cpu_has_the_lowest_embodied_footprint() {
        // "CPU incurs 1.3x and 1.8x lower footprint compared to ASIC and
        // FPGA-based designs."
        let cpu = embodied(Platform::Cpu);
        assert!((embodied(Platform::Accel).ratio(cpu) - 1.3).abs() < 0.01);
        assert!((embodied(Platform::Fpga).ratio(cpu) - 1.8).abs() < 0.01);
    }

    #[test]
    fn fpga_wins_every_carbon_metric_on_mixed_workloads() {
        // "across CDP, CEP, CE2P, C2EP, FPGA outperforms CPU and
        // ASIC-based designs."
        for metric in OptimizationMetric::CARBON_AWARE {
            assert_eq!(winner(metric), Platform::Fpga, "{metric}");
        }
    }

    #[test]
    fn asic_beats_fpga_for_ai_only_socs() {
        // "when designing domain-specific SoC's for salient applications,
        // such as AI, specialized ASICs provide higher performance and
        // efficiency at lower carbon footprint [than the FPGA]."
        let ai_point = |p: Platform| DesignPoint {
            embodied: embodied(p),
            energy: measurement(p, App::Ai).energy(),
            delay: measurement(p, App::Ai).latency(),
            area: silicon_area(p),
        };
        for metric in OptimizationMetric::CARBON_AWARE {
            let asic = metric.score(&ai_point(Platform::Accel));
            let fpga = metric.score(&ai_point(Platform::Fpga));
            assert!(asic < fpga, "{metric}: ASIC {asic} vs FPGA {fpga}");
        }
    }

    #[test]
    fn renders_platforms_and_winners() {
        let s = run().to_string();
        assert!(s.contains("FPGA") && s.contains("optimal"));
    }
}
