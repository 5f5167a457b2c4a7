//! Deterministic pseudo-random number generation for the ACT workspace.
//!
//! Monte-Carlo uncertainty propagation and SSD trace synthesis need a
//! reproducible stream of draws — not cryptographic randomness — and they
//! need it without pulling the `rand` crate into the hermetic tier-1 build.
//! This crate provides:
//!
//! * [`Rng`] — a xoshiro256++ generator seeded through SplitMix64 state
//!   expansion, the textbook construction from Blackman & Vigna. Seeding
//!   from a `u64` is total (every seed, including 0, yields a well-mixed
//!   non-zero state).
//! * [`split_seed`] — the per-sample seed-splitting function the
//!   Monte-Carlo engine uses to give every sample index its own
//!   statistically independent stream, which is what makes results
//!   bit-for-bit identical across any thread count.
//! * Uniform, range, Bernoulli and normal (Box-Muller) draws with the same
//!   method names the `rand` crate used (`gen`, `gen_range`, `gen_bool`),
//!   so call sites migrate without churn.
//! * The transforms from raw `[0, 1)` uniforms to each distribution —
//!   [`unit_to_range`], [`unit_to_triangular`], [`unit_to_normal`] —
//!   defined once. `gen_range`, [`Rng::normal`] and block samplers that
//!   draw a column of uniforms first and transform it afterwards all call
//!   them, so the per-draw and the column forms agree bit for bit.
//! * [`uniform_columns`] — the per-sample seed-then-draw loop of a block
//!   sampler turned column-wise: a block of generators seeded and stepped
//!   across samples, with the bits of one [`Rng`] per sample.
//!
//! Determinism contract (stream **v2**): the output of every method on
//! [`Rng`] for a given seed is **pinned** — regression tests in this crate
//! hard-code reference draws of the raw stream and of the normal stream,
//! and the workspace's Monte-Carlo golden values depend on them. Any
//! change to the algorithms here is a breaking change to every committed
//! golden value and must regenerate them in the same commit.
//!
//! v2 replaced the platform libm's `ln` and `cos` inside Box–Muller with
//! [`act_units::math`]'s fixed-algorithm ones, which are built from IEEE
//! basic operations only: the normal stream is now the same bits on every
//! host, not a fact about one libc. It also made `f64` `gen_range`
//! strictly half-open (see [`unit_to_range`]).
//!
//! # Examples
//!
//! ```
//! use act_rng::Rng;
//!
//! let mut rng = Rng::seed_from_u64(42);
//! let u: f64 = rng.gen();            // uniform in [0, 1)
//! assert!((0.0..1.0).contains(&u));
//! let lane = rng.gen_range(0..8u64); // unbiased integer range
//! assert!(lane < 8);
//! // Same seed, same stream:
//! let mut again = Rng::seed_from_u64(42);
//! assert_eq!(again.gen::<f64>(), u);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::Range;

use act_units::math;

/// Weyl-sequence increment for SplitMix64 (the fractional part of the
/// golden ratio scaled to 64 bits).
pub const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// One step of the SplitMix64 output function: mixes `state` into a
/// uniformly distributed `u64`. Pure — the caller owns the Weyl increment.
#[inline(always)]
#[must_use]
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the independent per-sample seed for `index` under `master`.
///
/// This is the seed-splitting contract behind deterministic parallel
/// Monte-Carlo: sample `i` always draws from `Rng::seed_from_u64(
/// split_seed(master, i))` regardless of which thread evaluates it, so
/// results are bit-for-bit identical across thread counts.
#[inline]
#[must_use]
pub fn split_seed(master: u64, index: u64) -> u64 {
    splitmix64(master.wrapping_add(index.wrapping_mul(GOLDEN_GAMMA)))
}

/// A deterministic xoshiro256++ pseudo-random number generator.
///
/// State is 256 bits expanded from a 64-bit seed via SplitMix64, which
/// guarantees the all-zero state (a fixed point of xoshiro) is unreachable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Seeds a generator from a single `u64`. Every seed is valid.
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut state = seed;
        let mut s = [0_u64; 4];
        for slot in &mut s {
            state = state.wrapping_add(GOLDEN_GAMMA);
            *slot = splitmix64(state);
        }
        Self { s }
    }

    /// The next raw 64-bit output (xoshiro256++ scrambler).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let (result, next) = xoshiro_step(self.s);
        self.s = next;
        result
    }

    /// A uniform draw of type `T` — `rng.gen::<f64>()` yields `[0, 1)`.
    ///
    /// The name matches the `rand` crate's method so migrated call sites
    /// read identically.
    #[inline]
    pub fn gen<T: Standard>(&mut self) -> T {
        T::sample_standard(self)
    }

    /// A uniform draw from a half-open range, e.g. `rng.gen_range(0.0..1.0)`
    /// or `rng.gen_range(0..pages)`. Integer ranges use rejection sampling
    /// (no modulo bias).
    ///
    /// # Panics
    ///
    /// Panics when the range is empty, matching `rand`'s contract.
    #[inline]
    pub fn gen_range<T: SampleRange>(&mut self, range: Range<T>) -> T {
        T::sample_range(self, range)
    }

    /// A Bernoulli draw: `true` with probability `p` (clamped to [0, 1]).
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen::<f64>() < p
    }

    /// A standard-normal draw via Box-Muller: [`unit_to_normal`] of two
    /// uniform draws, `u1` then `u2`.
    ///
    /// Consumes exactly two uniform draws per call (the second transform
    /// output is discarded so the per-call draw count stays fixed — that
    /// keeps interleaved draw sequences easy to reason about in tests).
    /// The bits are portable: the transform uses [`act_units::math`], not
    /// the platform libm (stream contract v2).
    pub fn normal(&mut self) -> f64 {
        let u1: f64 = self.gen();
        let u2: f64 = self.gen();
        unit_to_normal(u1, u2)
    }

    /// A normal draw with the given mean and standard deviation.
    pub fn normal_with(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.normal()
    }
}

/// One xoshiro256++ step: the output of state `s` and the state after it.
#[inline(always)]
fn xoshiro_step([s0, s1, s2, s3]: [u64; 4]) -> (u64, [u64; 4]) {
    let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
    let t = s1 << 17;
    let s2 = s2 ^ s0;
    let s3 = s3 ^ s1;
    let s1 = s1 ^ s2;
    let s0 = s0 ^ s3;
    let s2 = s2 ^ t;
    (result, [s0, s1, s2, s3.rotate_left(45)])
}

/// A raw 64-bit output as a uniform in `[0, 1)`: its high 53 bits, the
/// full mantissa. `gen::<f64>()` and [`uniform_columns`] both map
/// through it.
#[inline(always)]
fn unit_f64(raw: u64) -> f64 {
    #[allow(clippy::cast_precision_loss)]
    let mantissa = (raw >> 11) as f64;
    mantissa * (1.0 / (1_u64 << 53) as f64)
}

/// Samples per sub-block of [`uniform_columns`]: its four xoshiro state
/// columns are stack arrays of this length, 2 KiB together, plus a
/// 512-byte seed column in the lane-multiply form.
const SEED_BLOCK: usize = 64;

/// A stack column aligned to a cache line: the AVX-512 instance moves
/// eight `u64` lanes per load or store, and on the 8-byte alignment of a
/// plain array most of those straddled two lines (the stepping loops
/// ran ~1.4× slower).
#[repr(align(64))]
struct LineAligned<T>(T);

/// Seeds one generator per sample and draws its uniforms column by
/// column: with `n` samples, `columns[j * n + k]` is the `j`-th
/// `gen::<f64>()` of `Rng::seed_from_u64(seed_of(k))`, bit for bit, for
/// every `j < columns.len() / n`.
///
/// The per-sample form seeds a generator, draws its uniforms and moves
/// on. This form keeps the four xoshiro state words of a fixed
/// sub-block of samples as columns, seeds them all, then steps them all
/// once per uniform, so the stepping loops run across samples and
/// vectorize.
/// Nothing is allocated. A trailing partial column (when `columns.len()`
/// is not a multiple of `n`) is left as it is, and with `n == 0` or no
/// whole column nothing is seeded or written.
///
/// `LANE_MUL64` picks the seeding loop for the code this is inlined into
/// (`act_core::wide::Instance::LANE_MUL64` of a block body's instance);
/// both give the same bits. Seeding is twelve 64-bit multiplies per
/// sample. With `true` the sub-block's seeds are written as a column
/// first, then each state word is one SplitMix64 loop across samples:
/// loops that vectorize, which pays where lane multiplies are native
/// (AVX-512DQ). With `false` each sample's four words are seeded
/// together in a loop that stays scalar `imul`: SSE2 emulates a 64-bit
/// lane multiply with three 32-bit ones, and there the vectorized forms
/// measured 17–23 ns/sample for pass 1 against ~14 for this one.
///
/// # Examples
///
/// ```
/// use act_rng::{uniform_columns, Rng};
///
/// let seeds = [3_u64, 1, 4, 1, 5];
/// let mut columns = [0.0; 10]; // two uniforms per sample
/// uniform_columns::<false>(|k| seeds[k], &mut columns, seeds.len());
/// for (k, &seed) in seeds.iter().enumerate() {
///     let mut rng = Rng::seed_from_u64(seed);
///     assert_eq!(columns[k], rng.gen::<f64>());
///     assert_eq!(columns[5 + k], rng.gen::<f64>());
/// }
/// ```
#[inline(always)]
pub fn uniform_columns<const LANE_MUL64: bool>(
    seed_of: impl Fn(usize) -> u64,
    columns: &mut [f64],
    n: usize,
) {
    if n == 0 || columns.len() < n {
        return;
    }
    let slots = columns.len() / n;
    let mut base = 0;
    while base < n {
        let m = (n - base).min(SEED_BLOCK);
        // `Rng::seed_from_u64`: word `w` is SplitMix64 of `seed + (w + 1)·γ`.
        let mut state = LineAligned([[0_u64; SEED_BLOCK]; 4]);
        let state = &mut state.0;
        if LANE_MUL64 {
            let mut seeds = LineAligned([0_u64; SEED_BLOCK]);
            let seeds = &mut seeds.0;
            for (k, seed) in seeds[..m].iter_mut().enumerate() {
                *seed = seed_of(base + k);
            }
            for (w, words) in (1_u64..).zip(&mut *state) {
                let offset = GOLDEN_GAMMA.wrapping_mul(w);
                for (word, &seed) in words[..m].iter_mut().zip(&seeds[..m]) {
                    *word = splitmix64(seed.wrapping_add(offset));
                }
            }
        } else {
            let [s0, s1, s2, s3] = &mut *state;
            for (k, (((w0, w1), w2), w3)) in s0
                .iter_mut()
                .zip(s1.iter_mut())
                .zip(s2.iter_mut())
                .zip(s3.iter_mut())
                .take(m)
                .enumerate()
            {
                let seed = seed_of(base + k);
                *w0 = splitmix64(seed.wrapping_add(GOLDEN_GAMMA));
                *w1 = splitmix64(seed.wrapping_add(GOLDEN_GAMMA.wrapping_mul(2)));
                *w2 = splitmix64(seed.wrapping_add(GOLDEN_GAMMA.wrapping_mul(3)));
                *w3 = splitmix64(seed.wrapping_add(GOLDEN_GAMMA.wrapping_mul(4)));
            }
        }
        let [s0, s1, s2, s3] = state;
        for column in columns.chunks_exact_mut(n).take(slots) {
            let lanes = s0.iter_mut().zip(s1.iter_mut()).zip(s2.iter_mut()).zip(s3.iter_mut());
            for (slot, (((w0, w1), w2), w3)) in column[base..base + m].iter_mut().zip(lanes) {
                let (raw, [n0, n1, n2, n3]) = xoshiro_step([*w0, *w1, *w2, *w3]);
                [*w0, *w1, *w2, *w3] = [n0, n1, n2, n3];
                *slot = unit_f64(raw);
            }
        }
        base += m;
    }
}

/// Maps a raw uniform `u ∈ [0, 1)` onto `[low, high)`: the transform
/// behind `f64` [`Rng::gen_range`].
///
/// `low + (high - low) · u` can round up to `high` itself at the top
/// draws (`u = 1 - 2^-53` on `60.0..120.0` gives exactly `120.0`); such a
/// sum returns `high`'s predecessor instead, so the range stays
/// half-open. Every other draw keeps its stream-v1 bits. NaN passes
/// through.
///
/// # Examples
///
/// ```
/// let top = 1.0 - f64::EPSILON / 2.0; // the largest draw `gen` yields
/// assert!(act_rng::unit_to_range(top, 60.0, 120.0) < 120.0);
/// assert_eq!(act_rng::unit_to_range(0.5, 60.0, 120.0), 90.0);
/// ```
#[inline(always)]
#[must_use]
pub fn unit_to_range(u: f64, low: f64, high: f64) -> f64 {
    let x = low + (high - low) * u;
    if x >= high {
        high.next_down()
    } else {
        x
    }
}

/// Maps a raw uniform `u ∈ [0, 1)` onto the triangular distribution on
/// `[low, high]` peaking at `mode` (inverse CDF). Parameters are not
/// checked here; `act_dse::try_triangular` is the validating draw.
///
/// Both branches' square-root arguments are computed and one is
/// selected, then one root is taken and the branch's outer `low +` or
/// `high -` applied, so a loop over a column has no data-dependent branch
/// and one `sqrt` per draw. Each draw goes through the same IEEE
/// operations as the form that takes both roots and selects, so the bits
/// equal it.
#[inline(always)]
#[must_use]
// `!(u >= cut)` is `u < cut` for every `u` but NaN, where both arms give
// NaN. With the outer select on the inner one's own compare, LLVM
// simplified each arm's root under that compare and so rebuilt the
// two-root form: two `sqrt`s per draw, 2.4-2.5 ns against 1.2-1.4 in a
// one-thread microbenchmark of a 4096-draw column, in either instance.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
pub fn unit_to_triangular(u: f64, low: f64, mode: f64, high: f64) -> f64 {
    let cut = (mode - low) / (high - low);
    let square = if u < cut {
        (high - low) * (mode - low) * u
    } else {
        (high - low) * (high - mode) * (1.0 - u)
    };
    let root = square.sqrt();
    if !(u >= cut) {
        low + root
    } else {
        high - root
    }
}

/// Box–Muller: maps two raw uniforms `u1, u2 ∈ [0, 1)` to one standard
/// normal, `sqrt(-2 ln(1 - u1)) · cos(2π u2)`. `1 - u1 ∈ (0, 1]`, so the
/// logarithm never sees zero. `ln` and `cos` are [`act_units::math`]'s
/// portable ones.
#[inline(always)]
#[must_use]
pub fn unit_to_normal(u1: f64, u2: f64) -> f64 {
    (-2.0 * math::ln(1.0 - u1)).sqrt() * math::cos(std::f64::consts::TAU * u2)
}

/// Types with a canonical "standard" distribution under [`Rng::gen`].
pub trait Standard: Sized {
    /// Draws one value from the type's standard distribution.
    fn sample_standard(rng: &mut Rng) -> Self;
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` using the high 53 bits (the full mantissa).
    #[inline]
    fn sample_standard(rng: &mut Rng) -> Self {
        unit_f64(rng.next_u64())
    }
}

impl Standard for u64 {
    #[inline]
    fn sample_standard(rng: &mut Rng) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    #[inline]
    fn sample_standard(rng: &mut Rng) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for bool {
    #[inline]
    fn sample_standard(rng: &mut Rng) -> Self {
        rng.next_u64() >> 63 == 1
    }
}

/// Types drawable from a half-open `Range` under [`Rng::gen_range`].
pub trait SampleRange: Sized {
    /// Draws one value uniformly from `range`.
    fn sample_range(rng: &mut Rng, range: Range<Self>) -> Self;
}

impl SampleRange for f64 {
    #[inline]
    fn sample_range(rng: &mut Rng, range: Range<Self>) -> Self {
        assert!(range.start < range.end, "cannot sample empty range");
        unit_to_range(rng.gen(), range.start, range.end)
    }
}

impl SampleRange for u64 {
    fn sample_range(rng: &mut Rng, range: Range<Self>) -> Self {
        assert!(range.start < range.end, "cannot sample empty range");
        let span = range.end - range.start;
        range.start + sample_below(rng, span)
    }
}

impl SampleRange for usize {
    fn sample_range(rng: &mut Rng, range: Range<Self>) -> Self {
        assert!(range.start < range.end, "cannot sample empty range");
        let span = (range.end - range.start) as u64;
        let drawn = sample_below(rng, span);
        // span came from a usize subtraction, so drawn < span fits usize.
        range.start + drawn as usize
    }
}

impl SampleRange for u32 {
    fn sample_range(rng: &mut Rng, range: Range<Self>) -> Self {
        assert!(range.start < range.end, "cannot sample empty range");
        let span = u64::from(range.end - range.start);
        let drawn = sample_below(rng, span);
        // drawn < span <= u32::MAX + 1, so the narrowing is lossless.
        range.start + drawn as u32
    }
}

/// Uniform draw in `[0, bound)` by rejection sampling: reject the final
/// partial block of the u64 space so every residue is equally likely.
#[inline]
fn sample_below(rng: &mut Rng, bound: u64) -> u64 {
    debug_assert!(bound > 0);
    if bound.is_power_of_two() {
        return rng.next_u64() & (bound - 1);
    }
    // Values at or above `limit` fall in the biased partial block.
    let limit = u64::MAX - u64::MAX % bound;
    loop {
        let draw = rng.next_u64();
        if draw < limit {
            return draw % bound;
        }
    }
}

/// A uniform `[0, bound)` sampler with the per-`bound` arithmetic hoisted
/// out of the draw loop.
///
/// `Rng::gen_range(0..bound)` spends two 64-bit divisions per draw (the
/// rejection limit and the reduction itself), which profiling showed
/// dominated trace generation in the SSD simulator. `UniformU64::new`
/// pays those once: the limit is cached and the reduction becomes a
/// 128-bit multiply by a precomputed magic (Lemire's exact fast-modulo).
///
/// Determinism contract: `sample` consumes the generator and maps draws
/// **bit-for-bit identically** to `rng.gen_range(0..bound)` — same
/// rejection rule, same residues — so the two are interchangeable under
/// every committed golden value.
///
/// # Examples
///
/// ```
/// use act_rng::{Rng, UniformU64};
///
/// let dist = UniformU64::new(10_000);
/// let mut a = Rng::seed_from_u64(7);
/// let mut b = Rng::seed_from_u64(7);
/// for _ in 0..100 {
///     assert_eq!(dist.sample(&mut a), b.gen_range(0..10_000));
/// }
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UniformU64 {
    bound: u64,
    /// Power-of-two bounds reduce with a mask, exactly like `gen_range`.
    is_pow2: bool,
    /// `bound - 1` when `bound` is a power of two, else unused.
    mask: u64,
    /// First draw value falling in the biased partial block (non-pow2 path).
    limit: u64,
    /// `ceil(2^128 / bound)`: multiplying a draw by this and taking the
    /// high 128 bits of the product times `bound` yields `draw % bound`
    /// exactly for every `u64` draw (bound < 2^64).
    magic: u128,
}

impl UniformU64 {
    /// Builds the sampler for `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics when `bound` is zero, matching `gen_range`'s empty-range
    /// contract.
    #[must_use]
    pub fn new(bound: u64) -> Self {
        assert!(bound > 0, "cannot sample empty range");
        if bound.is_power_of_two() {
            Self { bound, is_pow2: true, mask: bound - 1, limit: u64::MAX, magic: 0 }
        } else {
            Self {
                bound,
                is_pow2: false,
                mask: 0,
                limit: u64::MAX - u64::MAX % bound,
                magic: u128::MAX / u128::from(bound) + 1,
            }
        }
    }

    /// The exclusive upper bound.
    #[must_use]
    pub fn bound(&self) -> u64 {
        self.bound
    }

    /// Draws one value uniformly from `[0, bound)`.
    #[inline]
    #[must_use]
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        if self.is_pow2 {
            return rng.next_u64() & self.mask;
        }
        loop {
            let draw = rng.next_u64();
            if draw < self.limit {
                // draw % bound via the magic: high 128 bits of
                // (magic * draw mod 2^128) * bound.
                let lowbits = self.magic.wrapping_mul(u128::from(draw));
                return mul_high_128(lowbits, self.bound);
            }
        }
    }
}

/// `floor(a * b / 2^128)` for a 128-bit `a` and 64-bit `b`, without
/// overflow: split `a` and recombine the partial products.
#[inline]
fn mul_high_128(a: u128, b: u64) -> u64 {
    let a_hi = (a >> 64) as u64;
    let a_lo = a as u64;
    let carry = (u128::from(a_lo) * u128::from(b)) >> 64;
    #[allow(clippy::cast_possible_truncation)]
    {
        ((u128::from(a_hi) * u128::from(b) + carry) >> 64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The magic-multiply reduction must equal `%` for every draw — spot
    /// checked across awkward bounds (tiny, near-pow2, huge) and the full
    /// edge set of draw values.
    #[test]
    fn uniform_magic_matches_modulo_exactly() {
        let bounds = [
            1,
            2,
            3,
            5,
            7,
            63,
            64,
            65,
            12_800,
            15_753,
            u32::MAX as u64,
            u64::MAX / 2 + 1,
            u64::MAX,
        ];
        let mut rng = Rng::seed_from_u64(99);
        for &bound in &bounds {
            let dist = UniformU64::new(bound);
            assert_eq!(dist.bound(), bound);
            let mut twin_a = Rng::seed_from_u64(bound);
            let mut twin_b = twin_a.clone();
            for _ in 0..4096 {
                assert_eq!(
                    dist.sample(&mut twin_a),
                    twin_b.gen_range(0..bound),
                    "bound {bound}"
                );
            }
            if !bound.is_power_of_two() {
                // Direct reduction check on raw values, including extremes.
                for draw in [
                    0,
                    1,
                    bound - 1,
                    bound,
                    bound.saturating_add(1),
                    u64::MAX - 1,
                    u64::MAX,
                    rng.next_u64(),
                ] {
                    let lowbits = dist.magic.wrapping_mul(u128::from(draw));
                    assert_eq!(mul_high_128(lowbits, bound), draw % bound, "bound {bound}");
                }
            }
        }
    }

    /// The reference output pins the implementation: xoshiro256++ seeded
    /// with SplitMix64(seed = 1). Changing either algorithm breaks this
    /// test *and* every Monte-Carlo golden value in the workspace — see
    /// the crate docs before touching it.
    #[test]
    fn raw_stream_is_pinned() {
        let mut rng = Rng::seed_from_u64(1);
        let draws: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert_eq!(
            draws,
            vec![
                0xcfc5_d07f_6f03_c29b,
                0xbf42_4132_963f_e08d,
                0x19a3_7d57_57aa_f520,
                0xbf08_119f_05cd_56d6,
            ]
        );
    }

    /// Pins stream contract v2's normal stream: the bits of the first 8
    /// `normal()` draws for two seeds, and a fold of 4096 more. Box–Muller
    /// runs on `act_units::math`, so these hold on every IEEE-754 host.
    #[test]
    fn normal_stream_is_pinned() {
        let pinned: [(u64, [u64; 8]); 2] = [
            (
                1,
                [
                    0xbfa1_0473_e028_5fef,
                    0xbf86_5cc9_844f_2c0a,
                    0xbfe1_3b77_9018_468f,
                    0xc007_4be4_5ad7_3838,
                    0x3fd3_2c7a_6631_0f6f,
                    0xbff3_f361_9ee5_ac30,
                    0xbfd3_91f4_24f8_e7f2,
                    0x3fce_c41c_8c20_f29f,
                ],
            ),
            (
                17,
                [
                    0x3ff6_df22_a4e5_820e,
                    0xbfc8_6252_a786_a85a,
                    0x3fca_b28b_74fe_b60f,
                    0x3fd9_9b55_64f7_ac4a,
                    0x3fd1_7711_9e7d_1a00,
                    0xbfb0_7ceb_e568_5884,
                    0xbfd5_cc70_7a6a_6648,
                    0xbfe5_90aa_dc96_83d5,
                ],
            ),
        ];
        for (seed, bits) in pinned {
            let mut rng = Rng::seed_from_u64(seed);
            let drawn: Vec<u64> = (0..8).map(|_| rng.normal().to_bits()).collect();
            assert_eq!(drawn, bits, "seed {seed}");
        }
        // A last-bit change hits only a few percent of draws, so also pin
        // an FNV-1a fold of the bits of the first 4096 draws of seed 1.
        let mut rng = Rng::seed_from_u64(1);
        let mut fold: u64 = 0xcbf2_9ce4_8422_2325;
        for _ in 0..4096 {
            for byte in rng.normal().to_bits().to_le_bytes() {
                fold = (fold ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
            }
        }
        assert_eq!(fold, 0x532d_c042_6feb_17a0);
    }

    /// `normal` is `unit_to_normal` of two consecutive uniforms, `u1`
    /// first: the contract block samplers rely on.
    #[test]
    fn normal_is_the_transform_of_two_uniforms() {
        let mut rng = Rng::seed_from_u64(5);
        let mut twin = rng.clone();
        for _ in 0..1_000 {
            let (u1, u2): (f64, f64) = (twin.gen(), twin.gen());
            assert_eq!(rng.normal().to_bits(), unit_to_normal(u1, u2).to_bits());
        }
        assert_eq!(rng, twin);
    }

    /// The top uniform, `1 - 2^-53`, used to round `low + span·u` up to
    /// the excluded bound on these ranges; it now yields the predecessor.
    #[test]
    fn float_range_excludes_its_upper_bound_at_the_top_draw() {
        let top = 1.0 - f64::EPSILON / 2.0;
        for (low, high) in [(60.0, 120.0), (0.7, 1.0), (1.5, 5.0)] {
            assert_eq!(low + (high - low) * top, high, "{low}..{high} rounds up");
            assert_eq!(unit_to_range(top, low, high), high.next_down(), "{low}..{high}");
        }
        for (low, high) in [(-3.0, -1.0), (-1.0, 0.0), (0.0, 1e-300)] {
            assert!(unit_to_range(top, low, high) < high, "{low}..{high}");
        }
        // Every other draw keeps its v1 bits.
        let (low, high) = (0.7, 1.0);
        let mut units = Rng::seed_from_u64(8);
        for _ in 0..10_000 {
            let u: f64 = units.gen();
            assert_eq!(
                unit_to_range(u, low, high).to_bits(),
                (low + (high - low) * u).to_bits()
            );
        }
        assert!(unit_to_range(f64::NAN, 0.0, 1.0).is_nan());
    }

    /// `uniform_columns` draws what one `Rng` per sample draws, bit for
    /// bit, in both seeding loops: 0 to 6 uniforms per sample (4 at the
    /// longest length, to stay small enough for Miri), at sample counts
    /// across the seed sub-block's edges, with seeds that start at sample
    /// 0 and past it.
    #[test]
    fn uniform_columns_match_per_sample_generators() {
        fn check<const LANE_MUL64: bool>(start: usize, n: usize, slots: usize) {
            let seed_of = |k: usize| split_seed(0xACE, (start + k) as u64);
            let mut columns = vec![f64::NAN; slots * n];
            uniform_columns::<LANE_MUL64>(seed_of, &mut columns, n);
            for k in 0..n {
                let mut rng = Rng::seed_from_u64(seed_of(k));
                for j in 0..slots {
                    assert_eq!(
                        columns[j * n + k].to_bits(),
                        rng.gen::<f64>().to_bits(),
                        "lane mul {LANE_MUL64}, start {start}, n {n}, \
                         uniform {j} of {slots}, sample {k}"
                    );
                }
            }
        }
        let edges = [SEED_BLOCK - 1, SEED_BLOCK, SEED_BLOCK + 1];
        let lengths = [0, 1, 7, 2 * SEED_BLOCK + 3]
            .into_iter()
            .chain(edges)
            .chain(edges.map(|m| m + SEED_BLOCK));
        for start in [0, 70_001] {
            for n in lengths.clone() {
                for slots in 0..=6 {
                    check::<false>(start, n, slots);
                    check::<true>(start, n, slots);
                }
            }
        }
        check::<false>(70_001, 4095, 4);
        check::<true>(70_001, 4095, 4);
        // A trailing partial column is left as it is.
        let seed_of = |k: usize| split_seed(0xACE, k as u64);
        let mut columns = [f64::NAN; 5];
        uniform_columns::<false>(seed_of, &mut columns, 2);
        assert!(columns[4].is_nan());
        uniform_columns::<true>(seed_of, &mut columns, 2);
        assert!(columns[4].is_nan());
    }

    /// The one-root triangular draw equals the form that takes both roots
    /// and selects, bit for bit: on a dense grid of `u`, on both sides of
    /// the cut and at it, at `0.0`, at the largest draw `1 - 2^-53`, and at
    /// NaN, for modes inside and at either end of the interval.
    #[test]
    fn one_root_triangular_matches_the_two_root_form_bitwise() {
        fn two_roots(u: f64, low: f64, mode: f64, high: f64) -> f64 {
            let cut = (mode - low) / (high - low);
            let rising = low + ((high - low) * (mode - low) * u).sqrt();
            let falling = high - ((high - low) * (high - mode) * (1.0 - u)).sqrt();
            if u < cut {
                rising
            } else {
                falling
            }
        }
        let shapes = [
            (1.0, 3.0, 6.0),
            (2.0, 4.0, 7.0),
            (0.05, 2.0, 3.0),
            (0.0, 0.3, 1.0),
            (-5.0, -5.0, 2.5),
            (0.5, 8.0, 8.0),
            (30.0, 380.0, 2100.0),
        ];
        for (low, mode, high) in shapes {
            let cut = (mode - low) / (high - low);
            let grid = (0..=1024).map(|i| f64::from(i) / 1024.0);
            let edges =
                [0.0, 1.0 - f64::EPSILON / 2.0, f64::NAN, cut, cut.next_down(), cut.next_up()];
            for u in grid.chain(edges).filter(|u| u.is_nan() || *u < 1.0) {
                let (one, two) =
                    (unit_to_triangular(u, low, mode, high), two_roots(u, low, mode, high));
                // Rust leaves a NaN result's payload unspecified (Miri
                // picks one at random), so NaN compares as NaN.
                if two.is_nan() {
                    assert!(one.is_nan(), "u {u}, low {low}, mode {mode}, high {high}");
                } else {
                    assert_eq!(
                        one.to_bits(),
                        two.to_bits(),
                        "u {u}, low {low}, mode {mode}, high {high}"
                    );
                }
            }
        }
    }

    #[test]
    fn seeding_is_total_and_deterministic() {
        for seed in [0, 1, u64::MAX, 0xDEAD_BEEF] {
            let mut a = Rng::seed_from_u64(seed);
            let mut b = Rng::seed_from_u64(seed);
            assert_ne!(a.s, [0, 0, 0, 0], "seed {seed} produced the zero state");
            for _ in 0..16 {
                assert_eq!(a.next_u64(), b.next_u64());
            }
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::seed_from_u64(7);
        let mut b = Rng::seed_from_u64(8);
        let collisions = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(collisions, 0);
    }

    #[test]
    fn unit_uniform_stays_in_half_open_interval() {
        let mut rng = Rng::seed_from_u64(3);
        for _ in 0..10_000 {
            let u: f64 = rng.gen();
            assert!((0.0..1.0).contains(&u), "{u} outside [0,1)");
        }
    }

    #[test]
    fn unit_uniform_mean_is_centered() {
        let mut rng = Rng::seed_from_u64(11);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| rng.gen::<f64>()).sum();
        let mean = sum / f64::from(n);
        assert!((mean - 0.5).abs() < 0.005, "mean {mean} far from 0.5");
    }

    #[test]
    fn float_range_covers_and_respects_bounds() {
        let mut rng = Rng::seed_from_u64(5);
        let (mut lo_third, mut hi_third) = (0_u32, 0_u32);
        for _ in 0..30_000 {
            let v = rng.gen_range(-2.0..4.0);
            assert!((-2.0..4.0).contains(&v));
            if v < 0.0 {
                lo_third += 1;
            }
            if v > 2.0 {
                hi_third += 1;
            }
        }
        assert!(lo_third > 8_000, "low third undersampled: {lo_third}");
        assert!(hi_third > 8_000, "high third undersampled: {hi_third}");
    }

    #[test]
    fn integer_ranges_are_exhaustive_and_unbiased() {
        let mut rng = Rng::seed_from_u64(9);
        let mut counts = [0_u32; 7];
        for _ in 0..70_000 {
            counts[rng.gen_range(0..7_usize)] += 1;
        }
        for (value, &count) in counts.iter().enumerate() {
            assert!(
                (9_000..11_000).contains(&count),
                "value {value} drawn {count} times (expected ~10000)"
            );
        }
        // Power-of-two fast path and u64/u32 surfaces.
        for _ in 0..1_000 {
            assert!(rng.gen_range(0..8_u64) < 8);
            assert!((3..13_u32).contains(&rng.gen_range(3..13_u32)));
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = Rng::seed_from_u64(1);
        let _ = rng.gen_range(5..5_usize);
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = Rng::seed_from_u64(13);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((24_000..26_000).contains(&hits), "p=0.25 hit {hits}/100000");
        let mut rng = Rng::seed_from_u64(13);
        assert_eq!((0..100).filter(|_| rng.gen_bool(0.0)).count(), 0);
        let mut rng = Rng::seed_from_u64(13);
        assert_eq!((0..100).filter(|_| rng.gen_bool(1.0)).count(), 100);
    }

    #[test]
    fn normal_moments_are_sane() {
        let mut rng = Rng::seed_from_u64(17);
        let n = 100_000;
        let draws: Vec<f64> = (0..n).map(|_| rng.normal()).collect();
        #[allow(clippy::cast_precision_loss)]
        let count = n as f64;
        let mean = draws.iter().sum::<f64>() / count;
        let var = draws.iter().map(|d| (d - mean).powi(2)).sum::<f64>() / count;
        assert!(mean.abs() < 0.02, "normal mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "normal variance {var}");
        let scaled = Rng::seed_from_u64(17).normal_with(10.0, 2.0);
        let base = Rng::seed_from_u64(17).normal();
        assert!((scaled - (10.0 + 2.0 * base)).abs() < 1e-12);
    }

    #[test]
    fn split_seed_matches_splitmix_weyl_sequence() {
        let master: u64 = 0x1234_5678_9ABC_DEF0;
        for index in [0_u64, 1, 2, 1_000_000] {
            let expected = splitmix64(master.wrapping_add(index.wrapping_mul(GOLDEN_GAMMA)));
            assert_eq!(split_seed(master, index), expected);
        }
        // Adjacent indices yield unrelated seeds.
        assert_ne!(split_seed(master, 0), split_seed(master, 1));
        assert_ne!(
            split_seed(master, 0) ^ split_seed(master, 1),
            split_seed(master, 1) ^ split_seed(master, 2)
        );
    }

    #[test]
    fn clone_forks_the_stream() {
        let mut a = Rng::seed_from_u64(23);
        let _ = a.next_u64();
        let mut b = a.clone();
        assert_eq!(a.next_u64(), b.next_u64());
    }
}
