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
//! # Examples
//!
//! ```
//! use act_core::wide::{run_wide, Body};
//!
//! /// `true` when every value is finite.
//! struct AllFinite<'a>(&'a [f64]);
//!
//! impl Body for AllFinite<'_> {
//!     type Output = bool;
//!     #[inline(always)]
//!     fn run(self) -> bool {
//!         self.0.iter().fold(true, |clean, v| clean & v.is_finite())
//!     }
//! }
//!
//! let values = [1.0, f64::NAN, 3.0];
//! assert!(!run_wide(AllFinite(&values)));
//! assert_eq!(run_wide(AllFinite(&values[..1])), AllFinite(&values[..1]).run());
//! ```

/// A block body: one loop nest that [`run_wide`] can run at the host's
/// vector width.
///
/// Implement it on a named type holding the body's inputs, and mark
/// [`run`](Self::run) `#[inline(always)]` (with every hot helper it calls
/// inlined too): only code inlined into the wide instance is compiled for
/// its features.
pub trait Body {
    /// What the body returns.
    type Output;

    /// Runs the body in the caller's instance — the baseline copy when
    /// called directly.
    fn run(self) -> Self::Output;
}

/// Runs `body` in its widest instance the host supports: the AVX-512
/// copy on x86-64 CPUs that report `avx512f`, `avx512dq` and `avx512vl`,
/// else [`Body::run`]. Both give the same result bit for bit.
#[allow(unsafe_code)]
#[inline]
pub fn run_wide<B: Body>(body: B) -> B::Output {
    #[cfg(target_arch = "x86_64")]
    if x86_64_v4() {
        // SAFETY: features detected
        return unsafe { run_v4(body) };
    }
    body.run()
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

/// The AVX-512 instance of `body`: `body.run()` inlined and compiled for
/// the three features [`x86_64_v4`] detects.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
fn run_v4<B: Body>(body: B) -> B::Output {
    body.run()
}
