//! Block bodies at the host's vector width.
//!
//! The workspace compiles for the x86-64 baseline (SSE2: two `f64` or
//! `u64` lanes, no 64-bit multiply, no `u64 ⇄ f64` conversion, no
//! arithmetic shift of 64-bit lanes). The block kernels — the lane chain
//! of [`crate::EvalPlan::eval_block`], the fleet sampler, the sweep's
//! rejection scan and the Monte-Carlo key encoding — are plain loops that
//! rustc auto-vectorizes, so they run faster, with the same bits, when
//! the same source is compiled for AVX-512.
//!
//! [`run_wide`] runs one [`Body`] in one of two instances:
//!
//! * on x86-64 hosts whose CPU reports `avx512f`, `avx512dq` and
//!   `avx512vl` (the `x86-64-v4` level's vector core), a copy compiled
//!   with `#[target_feature(enable = "avx512f,avx512dq,avx512vl")]`;
//! * everywhere else, the baseline copy: [`Body::run`] itself.
//!
//! Nothing is settable: the choice is made from what the CPU reports, and
//! non-x86 targets compile the baseline copy only.
//!
//! **Which instance, as a type.** [`Body::run`] takes the instance it is
//! compiled in as a marker type, [`Baseline`] or [`V4`], so a body whose
//! best loop form differs between the two can pick one per instance at
//! compile time: the dead form folds away in each copy. The one such
//! choice today is 64-bit lane multiplies ([`Instance::LANE_MUL64`]):
//! AVX-512DQ has `vpmullq`, while SSE2 builds each from three 32-bit
//! `pmuludq`s, slower than scalar `imul`, so a multiply-bound loop that
//! vectorizes pays in one instance and loses in the other.
//!
//! **Why the same bits.** A body is IEEE-754 basic operations (`+`, `-`,
//! `*`, `/`, `sqrt`, compares, selects) and integer operations. Rust never
//! contracts a multiply and an add into a fused multiply-add on its own,
//! and each of these operations is exactly rounded at any vector width,
//! so the wide instance computes every lane's value bit for bit as the
//! baseline does. The tests beside each body compare the two instances
//! bit for bit on the awkward inputs (NaN, ±∞, −0.0, subnormals,
//! `f64::MAX`) and lengths across every lane and block edge.
//!
//! **Why a named body, not a closure.** A `#[target_feature]` function
//! only recompiles the code inlined into it. `Body::run` implementations
//! are `#[inline(always)]`, so the whole loop nest lands inside the wide
//! instance. A closure passed to a generic `#[target_feature]` wrapper
//! is not inlined there: the wrapper compiled to a single jump into the
//! baseline closure, and the block engine measured no faster.
//!
//! The same holds for every workspace function a body calls: `#[inline]`
//! is a hint, and LLVM kept the fleet sampler's `act_rng::uniform_columns`
//! out of line, so the AVX-512 instance called the baseline copy of the
//! sampler's costliest pass. Such helpers are `#[inline(always)]`, and
//! the analyzer's ACT015 checks it for every function a `Body::run`
//! reaches by name.
//!
//! # Examples
//!
//! ```
//! use act_core::wide::{run_wide, Baseline, Body, Instance};
//!
//! /// `true` when every value is finite.
//! struct AllFinite<'a>(&'a [f64]);
//!
//! impl Body for AllFinite<'_> {
//!     type Output = bool;
//!     #[inline(always)]
//!     fn run<I: Instance>(self) -> bool {
//!         self.0.iter().fold(true, |clean, v| clean & v.is_finite())
//!     }
//! }
//!
//! let values = [1.0, f64::NAN, 3.0];
//! assert!(!run_wide(AllFinite(&values)));
//! assert_eq!(run_wide(AllFinite(&values[..1])), AllFinite(&values[..1]).run::<Baseline>());
//! ```

/// The instance a [`Body`] is compiled in: [`Baseline`] or [`V4`].
pub trait Instance {
    /// `true` when the instance multiplies 64-bit vector lanes in one
    /// instruction (AVX-512DQ `vpmullq`). Without it (SSE2, and the
    /// baseline of non-x86 targets) a vectorized 64-bit multiply is
    /// emulated and loses to scalar `imul`.
    const LANE_MUL64: bool;
}

/// The baseline instance: the workspace's target features.
#[derive(Clone, Copy, Debug)]
pub enum Baseline {}

impl Instance for Baseline {
    const LANE_MUL64: bool = false;
}

/// The AVX-512 instance [`run_wide`] picks on `x86-64-v4` CPUs. A body
/// run with this marker outside that instance gives the same bits, only
/// compiled for the baseline features.
#[derive(Clone, Copy, Debug)]
pub enum V4 {}

impl Instance for V4 {
    const LANE_MUL64: bool = true;
}

/// A block body: one loop nest that [`run_wide`] can run at the host's
/// vector width.
///
/// Implement it on a named type holding the body's inputs, and mark
/// [`run`](Self::run) `#[inline(always)]`, with every workspace function
/// it calls `#[inline(always)]` too (analyzer rule ACT015): only code
/// inlined into the wide instance is compiled for its features. Name the
/// type in a `#[test]` that runs it as `run::<Baseline>()`,
/// `run::<V4>()` and through [`run_wide`] (ACT016): the instances compile
/// differently, and a host checks only one of them through `run_wide`.
pub trait Body {
    /// What the body returns.
    type Output;

    /// Runs the body in the caller's instance, compiled for instance `I`:
    /// `body.run::<Baseline>()` is the baseline copy. Every `I` gives the
    /// same result bit for bit.
    fn run<I: Instance>(self) -> Self::Output;
}

/// Runs `body` in its widest instance the host supports: the AVX-512
/// copy on x86-64 CPUs that report `avx512f`, `avx512dq` and `avx512vl`,
/// else `body.run::<Baseline>()`. Both give the same result bit for bit.
#[allow(unsafe_code)]
#[inline]
pub fn run_wide<B: Body>(body: B) -> B::Output {
    #[cfg(target_arch = "x86_64")]
    if x86_64_v4() {
        // SAFETY: features detected
        return unsafe { run_v4(body) };
    }
    body.run::<Baseline>()
}

/// The instance [`run_wide`] picks on this host: `"x86-64-v4"` for the
/// AVX-512 copy, `"baseline"` otherwise. Two throughput readings compare
/// only when their hosts ran the same instance.
#[must_use]
pub fn vector_tier() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if x86_64_v4() {
        return "x86-64-v4";
    }
    "baseline"
}

/// `true` when the CPU reports the features [`run_v4`] is compiled
/// for. The standard library caches the detection, so this is a load.
#[cfg(target_arch = "x86_64")]
#[inline]
fn x86_64_v4() -> bool {
    std::is_x86_feature_detected!("avx512f")
        && std::is_x86_feature_detected!("avx512dq")
        && std::is_x86_feature_detected!("avx512vl")
}

/// The AVX-512 instance of `body`: `body.run::<V4>()` inlined and
/// compiled for the three features [`x86_64_v4`] detects.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
fn run_v4<B: Body>(body: B) -> B::Output {
    body.run::<V4>()
}
