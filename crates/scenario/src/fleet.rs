//! Fleet-scale Monte-Carlo over a scenario's compiled eq. 1 plan.
//!
//! [`FleetKernel::run`] drives `act_dse::batch`'s block Monte-Carlo
//! engine: sample `i` draws from an RNG seeded with
//! [`act_dse::mc_sample_seed`]`(seed, i)`, so the outcome is
//! **bit-identical** for any thread count, block size, or deadline
//! budget — sharding is a scheduling decision, never a numerical one.
//!
//! Each sample draws, in fixed order, a lifetime, a grid intensity, and
//! a utilization from the scenario's distributions, then evaluates the
//! plan at its grid intensity and lifetime energy; the plan's embodied
//! term and its `T/LT = 1` are folded constants. The sampler works on a
//! whole block at a time, column by column, in the host's widest
//! instance ([`act_core::wide::run_wide`]):
//!
//! 1. seed every sample's generator and write its raw `[0, 1)` uniforms,
//!    in the draw order above (a normal takes two, `u1` then `u2`;
//!    uniform and triangular one; a point none), into per-worker scratch
//!    columns — [`act_rng::uniform_columns`], which keeps a fixed
//!    sub-block of generator states as columns and steps them across
//!    samples, with the bits of one `Rng` per sample. It is
//!    `#[inline(always)]`, like every helper the body calls (analyzer
//!    rule ACT015), so it is compiled in each instance, and the body
//!    picks its seeding loop per instance: vectorized where 64-bit lane
//!    multiplies are native (AVX-512), scalar in the baseline, where
//!    SSE2's emulated lane multiply loses to `imul`;
//! 2. run one tight transform loop per distribution over its columns —
//!    the same `act_rng::unit_to_*` functions `Rng::gen_range`,
//!    `Rng::normal_with` and `act_dse::try_triangular` use, so every draw
//!    is bit-identical to the per-sample API;
//! 3. range-check each sample and lay out the plan's columns.
//!
//! Draws that land outside the model's documented ranges (or are
//! non-finite) poison the sample's columns to NaN; the batch layer counts
//! such samples as `rejected` instead of corrupting the statistics.

use std::ops::Range;

use act_core::wide::{run_wide, Body, Instance};
use act_core::{EvalPlan, INTENSITY_RANGE, LIFETIME_RANGE};
use act_dse::{
    mc_sample_seed, par_monte_carlo_compiled_block_budgeted, BatchRun, BlockSampler,
    EvalBudget, McBuffer, McError, McOutcome, Parallelism,
};
use act_rng::{uniform_columns, unit_to_normal, unit_to_range, unit_to_triangular};

use crate::compile::{lifetime_energy_j, UTILIZATION_RANGE};
use crate::schema::{Distribution, FleetSpec};

impl Distribution {
    /// Raw uniforms one draw consumes.
    fn uniforms(&self) -> usize {
        match self {
            Self::Point { .. } => 0,
            Self::Uniform { .. } | Self::Triangular { .. } => 1,
            Self::Normal { .. } => 2,
        }
    }

    /// Pass 2: maps this distribution's raw uniform columns, taken in
    /// order from `raw`, to one value per slot of `out`. Parameters were
    /// validated at compile time. Inlined into the sampler's body, so its
    /// loops are compiled in each [`run_wide`] instance.
    #[inline(always)]
    fn transform(&self, raw: &mut std::slice::ChunksExact<'_, f64>, out: &mut [f64]) {
        let mut column = || raw.next().unwrap_or_default();
        match *self {
            Self::Point { value } => out.fill(value),
            Self::Uniform { low, high } => {
                for (slot, &u) in out.iter_mut().zip(column()) {
                    *slot = unit_to_range(u, low, high);
                }
            }
            Self::Triangular { low, mode, high } => {
                for (slot, &u) in out.iter_mut().zip(column()) {
                    *slot = unit_to_triangular(u, low, mode, high);
                }
            }
            Self::Normal { mean, std_dev } => {
                let (u1, u2) = (column(), column());
                for (slot, (&a, &b)) in out.iter_mut().zip(u1.iter().zip(u2)) {
                    *slot = mean + std_dev * unit_to_normal(a, b);
                }
            }
        }
    }
}

/// The fleet's column-wise [`BlockSampler`]; its scratch holds the raw
/// uniforms, one `range.len()`-long column per draw slot, and the
/// lifetime draws.
struct FleetSampler {
    /// Lifetime, intensity, utilization: the seed contract's draw order.
    dists: [Distribution; 3],
    power_w: f64,
}

impl BlockSampler for FleetSampler {
    type Scratch = (Vec<f64>, Vec<f64>);

    fn sample_block(
        &self,
        seed: u64,
        range: Range<usize>,
        columns: &mut [Vec<f64>],
        (uniforms, lifetime): &mut (Vec<f64>, Vec<f64>),
    ) {
        // Column layout matches the plan's axes: [UseIntensity, Energy];
        // the energy column holds the utilization draws until pass 3.
        let [intensity, energy] = columns else { unreachable!("the fleet plan has two axes") };
        let n = range.len();
        if n == 0 {
            return;
        }
        // Pass 1 writes every uniform slot and pass 2 every lifetime slot,
        // so the scratch is only resized, never refilled.
        let slots: usize = self.dists.iter().map(Distribution::uniforms).sum();
        uniforms.resize(slots * n, 0.0);
        lifetime.resize(n, 0.0);
        run_wide(FleetBlock {
            sampler: self,
            seed,
            start: range.start,
            uniforms,
            lifetime,
            intensity,
            energy,
        });
    }
}

/// One block of [`FleetSampler::sample_block`], sized, as a
/// [`Body`]: samples `start..start + lifetime.len()`.
struct FleetBlock<'a> {
    sampler: &'a FleetSampler,
    seed: u64,
    start: usize,
    uniforms: &'a mut [f64],
    lifetime: &'a mut [f64],
    intensity: &'a mut [f64],
    energy: &'a mut [f64],
}

impl Body for FleetBlock<'_> {
    type Output = ();

    #[inline(always)]
    fn run<I: Instance>(self) {
        let Self { sampler, seed, start, uniforms, lifetime, intensity, energy } = self;
        let n = lifetime.len();
        let seed_of = |k: usize| mc_sample_seed(seed, (start + k) as u64);
        // Pass 1's seeding loop vectorizes only where lane multiplies pay.
        if I::LANE_MUL64 {
            uniform_columns::<true>(seed_of, uniforms, n);
        } else {
            uniform_columns::<false>(seed_of, uniforms, n);
        }
        let mut raw = uniforms.chunks_exact(n);
        for (dist, out) in
            sampler.dists.iter().zip([&mut *lifetime, &mut *intensity, &mut *energy])
        {
            dist.transform(&mut raw, out);
        }
        let power_w = sampler.power_w;
        for ((ci, e), l) in intensity.iter_mut().zip(energy.iter_mut()).zip(lifetime.iter()) {
            let u = *e;
            let valid = LIFETIME_RANGE.contains(l)
                & INTENSITY_RANGE.contains(ci)
                & UTILIZATION_RANGE.contains(&u);
            [*ci, *e] =
                if valid { [*ci, lifetime_energy_j(power_w, u, *l)] } else { [f64::NAN; 2] };
        }
    }
}

/// A compiled fleet block: the scenario's eq. 1 plan, free in grid
/// intensity and lifetime energy, and the per-device distributions.
#[derive(Debug)]
pub struct FleetKernel {
    plan: EvalPlan,
    power_w: f64,
    spec: FleetSpec,
}

impl FleetKernel {
    pub(crate) fn new(plan: EvalPlan, power_w: f64, spec: FleetSpec) -> Self {
        Self { plan, power_w, spec }
    }

    /// Number of devices the fleet total scales to.
    #[must_use]
    pub fn devices(&self) -> u64 {
        self.spec.devices
    }

    /// Monte-Carlo sample count.
    #[must_use]
    pub fn samples(&self) -> usize {
        self.spec.samples
    }

    /// Base RNG seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.spec.seed
    }

    /// Fleet total in grams CO₂: the per-device mean scaled to the fleet
    /// size. NaN-free whenever `outcome` came from a successful run.
    #[must_use]
    pub fn fleet_total_grams(&self, outcome: &McOutcome) -> f64 {
        outcome.stats.mean * self.spec.devices as f64
    }

    /// Runs the fleet Monte-Carlo under `budget`, sharded over `threads`
    /// (serial when `threads <= 1`). The caller supplies the thread
    /// count and budget so this crate never consults the clock or the
    /// machine topology itself.
    ///
    /// # Errors
    ///
    /// [`McError::NoSamples`] when the budget expires before the first
    /// block completes; [`McError::AllRejected`] when every draw landed
    /// outside the model's ranges.
    pub fn run(
        &self,
        threads: usize,
        buf: &mut McBuffer,
        budget: &EvalBudget,
    ) -> Result<(McOutcome, BatchRun), McError> {
        let sampler = FleetSampler {
            dists: [
                self.spec.lifetime_years,
                self.spec.use_intensity_g_per_kwh,
                self.spec.utilization,
            ],
            power_w: self.power_w,
        };
        let plan = &self.plan;
        let block_kernel = |cols: &[&[f64]], range: Range<usize>, out: &mut [f64]| {
            plan.eval_block(cols, range, out);
        };
        par_monte_carlo_compiled_block_budgeted(
            Parallelism::threads(threads),
            self.spec.samples,
            self.spec.seed,
            plan.arity(),
            sampler,
            block_kernel,
            buf,
            budget,
        )
    }
}

#[cfg(test)]
mod tests {
    use act_core::wide::{Baseline, V4};
    use act_dse::try_triangular;
    use act_rng::Rng;

    use super::*;

    /// One draw through the per-sample `Rng` API.
    fn scalar_draw(dist: Distribution, rng: &mut Rng) -> f64 {
        match dist {
            Distribution::Point { value } => value,
            Distribution::Uniform { low, high } => rng.gen_range(low..high),
            Distribution::Triangular { low, mode, high } => {
                try_triangular(rng, low, mode, high).unwrap_or(f64::NAN)
            }
            Distribution::Normal { mean, std_dev } => rng.normal_with(mean, std_dev),
        }
    }

    /// The sampler body agrees bit for bit in both of pass 1's seeding
    /// loops (the `Baseline` and `V4` markers, each run directly) and in
    /// the instance `run_wide` picks on this host, and all three equal
    /// one `Rng` per sample drawing lifetime, intensity and utilization
    /// in the seed contract's order: point, uniform, triangular and
    /// normal draws in every slot, at block lengths around the lane
    /// edges, the 64-sample seed sub-block's edges and the engine's
    /// 4096-point chunk, with samples that start past 0.
    #[test]
    fn sampler_instances_agree_bitwise() {
        let kinds = [
            Distribution::Point { value: 3.0 },
            Distribution::Uniform { low: 0.05, high: 0.95 },
            Distribution::Triangular { low: 0.05, mode: 0.3, high: 1.0 },
            Distribution::Normal { mean: 0.4, std_dev: 0.3 },
        ];
        let (seed, start, power_w) = (2022, 70_001, 2.5);
        for rotation in 0..kinds.len() {
            let dists = [0, 1, 2].map(|slot| kinds[(rotation + slot) % kinds.len()]);
            let sampler = FleetSampler { dists, power_w };
            let slots: usize = dists.iter().map(Distribution::uniforms).sum();
            for n in [1, 7, 8, 9, 63, 64, 65, 127, 128, 129, 4095, 4096] {
                let run = |instance: &str| {
                    let mut uniforms = vec![f64::NAN; slots * n];
                    let (mut lifetime, mut intensity, mut energy) =
                        (vec![f64::NAN; n], vec![f64::NAN; n], vec![f64::NAN; n]);
                    let block = FleetBlock {
                        sampler: &sampler,
                        seed,
                        start,
                        uniforms: &mut uniforms,
                        lifetime: &mut lifetime,
                        intensity: &mut intensity,
                        energy: &mut energy,
                    };
                    match instance {
                        "Baseline" => block.run::<Baseline>(),
                        "V4" => block.run::<V4>(),
                        _ => run_wide(block),
                    }
                    (intensity, energy)
                };
                let instances = ["Baseline", "V4", "run_wide"];
                let outputs = instances.map(run);
                for k in 0..n {
                    let mut rng = Rng::seed_from_u64(mc_sample_seed(seed, (start + k) as u64));
                    let [l, ci, u] = dists.map(|dist| scalar_draw(dist, &mut rng));
                    let valid = LIFETIME_RANGE.contains(&l)
                        & INTENSITY_RANGE.contains(&ci)
                        & UTILIZATION_RANGE.contains(&u);
                    let want = if valid {
                        [ci, lifetime_energy_j(power_w, u, l)]
                    } else {
                        [f64::NAN; 2]
                    };
                    let bits = |pair: [f64; 2]| pair.map(f64::to_bits);
                    let got = |cols: &(Vec<f64>, Vec<f64>)| bits([cols.0[k], cols.1[k]]);
                    assert_eq!(
                        outputs.each_ref().map(got),
                        [bits(want); 3],
                        "sample {k} of {n}, distributions {dists:?}, instances {instances:?}"
                    );
                }
            }
        }
    }
}
