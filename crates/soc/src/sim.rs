//! The simulator core: thread scheduling over clusters, DVFS, the memory
//! wall, and a TDP-normalized power model.

use act_data::{ClusterSpec, SocSpec};
use act_units::{Energy, Power, TimeSpan};

use crate::workload::Workload;

/// DVFS policy applied uniformly across clusters during a run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum DvfsGovernor {
    /// Run at maximum frequency.
    #[default]
    Performance,
    /// Run at a fixed fraction of maximum frequency.
    Fixed(
        /// Frequency as a fraction of maximum, in `(0, 1]`.
        f64,
    ),
    /// Pick the frequency that roughly minimizes energy for the workload:
    /// memory-bound work is clocked down (extra frequency buys little
    /// throughput but cubic power), compute-bound work runs fast.
    OnDemand,
}

impl DvfsGovernor {
    fn frequency_fraction(self, workload: &Workload) -> f64 {
        match self {
            Self::Performance => 1.0,
            Self::Fixed(fraction) => {
                assert!(
                    fraction > 0.0 && fraction <= 1.0,
                    "fixed DVFS fraction must be in (0, 1], got {fraction}"
                );
                fraction
            }
            Self::OnDemand => 1.0 - 0.35 * workload.memory_intensity(),
        }
    }
}

act_json::json_struct! {
    [ToJson]
    /// The outcome of one workload run.
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub struct RunResult {
        /// Wall-clock run time.
        pub time: TimeSpan,
        /// Energy consumed over the run.
        pub energy: Energy,
        /// Average power over the run.
        pub power: Power,
    }
}

act_json::json_struct! {
    [ToJson]
    /// The outcome of running the whole suite.
    #[derive(Clone, Debug, PartialEq)]
    pub struct SuiteResult {
        /// Geometric-mean performance score across workloads (higher = faster),
        /// scaled to Geekbench-5-like magnitudes.
        pub score: f64,
        /// Total energy over the suite.
        pub energy: Energy,
        /// Per-workload results in suite order.
        pub runs: Vec<RunResult>,
    }
}

/// Leakage share of TDP at maximum frequency.
const LEAKAGE_SHARE: f64 = 0.15;

/// Score scale, calibrated so flagship 2020 SoCs land near Geekbench-5
/// multi-core magnitudes.
const SCORE_SCALE: f64 = 2200.0;

/// Memory-limited effective rate in G-instructions/s/core for 2015-era
/// LPDDR3 systems; successive memory generations (LPDDR4/4X/5) raise it.
const MEMORY_RATE_2015: f64 = 1.2;

/// Annual improvement of the memory-limited rate.
const MEMORY_RATE_PER_YEAR: f64 = 0.25;

/// A simulator bound to one SoC description.
///
/// # Examples
///
/// ```
/// use act_data::MOBILE_SOCS;
/// use act_soc::{DvfsGovernor, SocSimulator, Workload};
///
/// let sim = SocSimulator::new(&MOBILE_SOCS[0]).with_governor(DvfsGovernor::OnDemand);
/// let run = sim.run(&Workload::new("AES", 8.0, 0.15, 4.0));
/// assert!(run.time.as_seconds() > 0.0);
/// ```
#[derive(Clone, Debug)]
pub struct SocSimulator {
    soc: &'static SocSpec,
    governor: DvfsGovernor,
}

impl SocSimulator {
    /// Binds a simulator to an SoC with the default performance governor.
    #[must_use]
    pub fn new(soc: &'static SocSpec) -> Self {
        Self { soc, governor: DvfsGovernor::default() }
    }

    /// Replaces the DVFS governor.
    #[must_use]
    pub fn with_governor(mut self, governor: DvfsGovernor) -> Self {
        self.governor = governor;
        self
    }

    /// The SoC under simulation.
    #[must_use]
    pub fn soc(&self) -> &'static SocSpec {
        self.soc
    }

    /// Greedy thread placement that fills the fastest clusters first:
    /// returns active core counts per cluster (same order as
    /// `soc.clusters`, which lists the biggest tier first).
    fn schedule(&self, parallelism: f64) -> Vec<f64> {
        let mut remaining = parallelism;
        self.soc
            .clusters
            .iter()
            .map(|cluster| {
                let take = remaining.min(f64::from(cluster.count));
                remaining -= take;
                take
            })
            .collect()
    }

    /// Memory-limited per-core rate for this SoC's generation: memory
    /// technology (LPDDR3 → LPDDR4/4X → LPDDR5) improves year over year.
    fn memory_rate(&self) -> f64 {
        MEMORY_RATE_2015 + MEMORY_RATE_PER_YEAR * f64::from(self.soc.year - 2015)
    }

    /// Effective instruction throughput of one cluster in G-instructions/s:
    /// cores × frequency × IPC, derated by the memory wall (memory-bound
    /// workloads see frequency-insensitive stall time).
    fn cluster_throughput(
        cluster: &ClusterSpec,
        active: f64,
        freq_fraction: f64,
        memory_rate: f64,
        workload: &Workload,
    ) -> f64 {
        if active == 0.0 {
            return 0.0;
        }
        let freq = cluster.freq_ghz * freq_fraction;
        // Memory wall: a fraction `mi` of work is stalls that frequency and
        // IPC do not help; harmonic blend between the compute-limited rate
        // and the generation's memory-limited rate.
        let mi = workload.memory_intensity();
        let compute_rate = freq * cluster.ipc_index;
        let per_core = 1.0 / ((1.0 - mi) / compute_rate + mi / memory_rate);
        active * per_core
    }

    /// Dynamic power of one cluster in arbitrary units (normalized against
    /// TDP below): cores × capacitance-proxy × f³ (voltage tracks
    /// frequency).
    fn cluster_dynamic_units(cluster: &ClusterSpec, active: f64, freq_fraction: f64) -> f64 {
        let width_cost = cluster.ipc_index.powf(1.2);
        active * width_cost * (cluster.freq_ghz * freq_fraction).powi(3)
    }

    /// Runs one workload to completion.
    pub fn run(&self, workload: &Workload) -> RunResult {
        let freq_fraction = self.governor.frequency_fraction(workload);
        let active = self.schedule(workload.parallelism());

        let memory_rate = self.memory_rate();
        let throughput: f64 = self
            .soc
            .clusters
            .iter()
            .zip(&active)
            .map(|(c, &a)| Self::cluster_throughput(c, a, freq_fraction, memory_rate, workload))
            .sum();
        let time = TimeSpan::seconds(workload.giga_instructions() / throughput);

        // Normalize dynamic power so all-cores-max-frequency dissipates the
        // dynamic share of TDP.
        let max_units: f64 = self
            .soc
            .clusters
            .iter()
            .map(|c| Self::cluster_dynamic_units(c, f64::from(c.count), 1.0))
            .sum();
        let run_units: f64 = self
            .soc
            .clusters
            .iter()
            .zip(&active)
            .map(|(c, &a)| Self::cluster_dynamic_units(c, a, freq_fraction))
            .sum();
        let dynamic = self.soc.tdp() * (1.0 - LEAKAGE_SHARE) * (run_units / max_units);
        let leakage = self.soc.tdp() * LEAKAGE_SHARE;
        let power = dynamic + leakage;

        RunResult { time, energy: power * time, power }
    }

    /// Runs the full suite, returning the geometric-mean score and total
    /// energy.
    ///
    /// # Panics
    ///
    /// Panics if `suite` is empty.
    pub fn run_suite(&self, suite: &[Workload]) -> SuiteResult {
        assert!(!suite.is_empty(), "suite must contain at least one workload");
        let runs: Vec<RunResult> = suite.iter().map(|w| self.run(w)).collect();
        let log_sum: f64 = runs.iter().map(|r| (SCORE_SCALE / r.time.as_seconds()).ln()).sum();
        let score = (log_sum / runs.len() as f64).exp();
        let energy = runs.iter().map(|r| r.energy).sum();
        SuiteResult { score, energy, runs }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::geekbench_suite;
    use act_data::{SocFamily, MOBILE_SOCS};

    fn by_name(name: &str) -> &'static SocSpec {
        MOBILE_SOCS.iter().find(|s| s.name == name).unwrap()
    }

    #[test]
    fn scheduling_fills_big_cores_first() {
        let sim = SocSimulator::new(by_name("Snapdragon 865"));
        let active = sim.schedule(2.0);
        assert_eq!(active[0], 1.0); // prime core
        assert_eq!(active[1], 1.0); // one gold core
        assert_eq!(active[2], 0.0); // little cores idle
    }

    #[test]
    fn oversubscription_caps_at_core_count() {
        let sim = SocSimulator::new(by_name("Snapdragon 865"));
        let active = sim.schedule(64.0);
        let total: f64 = active.iter().sum();
        assert_eq!(total, 8.0);
    }

    #[test]
    fn newer_socs_score_higher_within_each_family() {
        let suite = geekbench_suite();
        for family in SocFamily::ALL {
            let mut socs: Vec<_> = MOBILE_SOCS.iter().filter(|s| s.family == family).collect();
            socs.sort_by_key(|s| s.year);
            let scores: Vec<f64> =
                socs.iter().map(|s| SocSimulator::new(s).run_suite(&suite).score).collect();
            for (pair, socs_pair) in scores.windows(2).zip(socs.windows(2)) {
                assert!(
                    pair[1] > pair[0],
                    "{} ({}) should outscore {} ({})",
                    socs_pair[1].name,
                    pair[1],
                    socs_pair[0].name,
                    pair[0]
                );
            }
        }
    }

    #[test]
    fn simulated_scores_track_reference_magnitudes() {
        // The simulator is calibrated against the reference scores: every
        // SoC should land within ±35 % of its database entry.
        let suite = geekbench_suite();
        for soc in &MOBILE_SOCS {
            let score = SocSimulator::new(soc).run_suite(&suite).score;
            let ratio = score / soc.reference_score;
            assert!(
                (0.65..=1.35).contains(&ratio),
                "{}: simulated {score:.0} vs reference {} (ratio {ratio:.2})",
                soc.name,
                soc.reference_score
            );
        }
    }

    #[test]
    fn power_never_exceeds_tdp() {
        let suite = geekbench_suite();
        for soc in &MOBILE_SOCS {
            for run in SocSimulator::new(soc).run_suite(&suite).runs {
                assert!(
                    run.power <= Power::watts(soc.tdp_w + 1e-9),
                    "{} exceeded TDP: {}",
                    soc.name,
                    run.power
                );
            }
        }
    }

    #[test]
    fn memory_bound_work_gains_little_from_frequency() {
        let soc = by_name("Kirin 980");
        let compute = Workload::new("compute", 10.0, 0.0, 4.0);
        let memory = Workload::new("memory", 10.0, 0.9, 4.0);
        let full = SocSimulator::new(soc);
        let slow = SocSimulator::new(soc).with_governor(DvfsGovernor::Fixed(0.6));
        let compute_slowdown =
            slow.run(&compute).time.as_seconds() / full.run(&compute).time.as_seconds();
        let memory_slowdown =
            slow.run(&memory).time.as_seconds() / full.run(&memory).time.as_seconds();
        assert!(compute_slowdown > memory_slowdown);
        assert!(memory_slowdown < 1.15, "memory-bound slowdown {memory_slowdown}");
    }

    #[test]
    fn ondemand_governor_saves_energy_on_memory_bound_work() {
        let soc = by_name("Snapdragon 845");
        let memory = Workload::new("memory", 10.0, 0.8, 4.0);
        let perf = SocSimulator::new(soc).run(&memory);
        let ondemand =
            SocSimulator::new(soc).with_governor(DvfsGovernor::OnDemand).run(&memory);
        assert!(ondemand.energy < perf.energy);
        assert!(ondemand.time >= perf.time);
    }

    #[test]
    fn energy_is_power_times_time() {
        let sim = SocSimulator::new(by_name("Exynos 9820"));
        let run = sim.run(&Workload::new("w", 5.0, 0.3, 4.0));
        let product = run.power * run.time;
        assert!((run.energy.ratio(product) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one workload")]
    fn empty_suite_rejected() {
        let _ = SocSimulator::new(&MOBILE_SOCS[0]).run_suite(&[]);
    }

    #[test]
    #[should_panic(expected = "fixed DVFS fraction")]
    fn bad_fixed_governor_rejected() {
        let _ = SocSimulator::new(&MOBILE_SOCS[0])
            .with_governor(DvfsGovernor::Fixed(0.0))
            .run(&Workload::new("w", 1.0, 0.1, 1.0));
    }
}
