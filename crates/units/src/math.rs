//! Portable `ln` and `cos`: the same bits on every IEEE-754 host.
//!
//! Rust's `f64::ln` and `f64::cos` call the platform libm, whose results
//! may differ in the last bit between libcs, targets and releases. The
//! Monte-Carlo samplers pin their output bits (`act_rng`'s normal stream
//! feeds every fleet result), so they use these two functions instead.
//! Both are built from IEEE basic operations only — `+`, `-`, `*`, `/`,
//! `sqrt`-free, no fused multiply-add, no lookup table — so a given input
//! yields the same bits on any conforming target.
//!
//! The algorithms are Sun's fdlibm, as revised in FreeBSD's msun:
//!
//! * [`ln`]: `e_log.c` — reduce `x = 2^k · (1 + f)` with `1 + f` in
//!   `[√2/2, √2)`, then `ln(1 + f) = f - f²/2 + s·(f²/2 + R(s²))` with
//!   `s = f / (2 + f)` and the degree-14 minimax polynomial `R`
//!   (`Lg1`–`Lg7`); `k · ln 2` is added in two parts.
//! * [`cos`]: `e_rem_pio2.c`'s Cody–Waite reduction by `π/2` in three
//!   33-bit pieces, giving a double-double remainder `y0 + y1`, then the
//!   `k_cos.c`/`k_sin.c` kernels (`C1`–`C6`, `S1`–`S6`) on `[-π/4, π/4]`.
//!
//! Both are within 1 ulp of the correctly rounded result. They are also
//! branch-free: the quadrant, the sign and the special cases are selected
//! with bit masks and value selects, and rounding to an integer uses the
//! `1.5 · 2^52` magic add (`f64::round` is a libm call without SSE4.1),
//! so a loop over a column pipelines and auto-vectorizes: two lanes on
//! baseline x86-64 (SSE2), eight in the AVX-512 instance of the fleet
//! sampler that `act_core::wide` runs on hosts that have it. IEEE basic
//! operations round alike at every width, so both give the same bits.

/// `2^54`, the subnormal rescale factor.
const TWO54: f64 = 18_014_398_509_481_984.0;
/// `1.5 · 2^52`: adding it rounds any `|v| < 2^51` to an integer held in
/// the low mantissa bits.
const ROUND_MAGIC: f64 = 6_755_399_441_055_744.0;
/// `2^52`: the exponent-to-float conversion's offset.
const TWO52: f64 = 4_503_599_627_370_496.0;

/// `ln 2` in two parts; `LN2_HI` has 21 trailing zero bits, so `k ·
/// LN2_HI` is exact for every exponent `k`.
const LN2_HI: f64 = f64::from_bits(0x3FE6_2E42_FEE0_0000);
const LN2_LO: f64 = f64::from_bits(0x3DEA_39EF_3579_3C76);
const LG1: f64 = f64::from_bits(0x3FE5_5555_5555_5593);
const LG2: f64 = f64::from_bits(0x3FD9_9999_9997_FA04);
const LG3: f64 = f64::from_bits(0x3FD2_4924_9422_9359);
const LG4: f64 = f64::from_bits(0x3FCC_71C5_1D8E_78AF);
const LG5: f64 = f64::from_bits(0x3FC7_4664_96CB_03DE);
const LG6: f64 = f64::from_bits(0x3FC3_9A09_D078_C69F);
const LG7: f64 = f64::from_bits(0x3FC2_F112_DF3E_5244);

/// The natural logarithm, within 1 ulp.
///
/// Total over `f64`: `ln(0) = -∞`, `ln(+∞) = +∞`, and a negative or NaN
/// argument gives NaN. Subnormal arguments are exact-scaled by `2^54`
/// first.
///
/// # Examples
///
/// ```
/// use act_units::math::ln;
///
/// assert_eq!(ln(1.0), 0.0);
/// assert!((ln(std::f64::consts::E) - 1.0).abs() <= f64::EPSILON);
/// assert_eq!(ln(0.0), f64::NEG_INFINITY);
/// assert!(ln(-1.0).is_nan());
/// ```
#[inline(always)]
#[must_use]
pub fn ln(x: f64) -> f64 {
    let tiny = x < f64::MIN_POSITIVE;
    let scaled = if tiny { x * TWO54 } else { x };
    let bits = scaled.to_bits();
    let mantissa = bits & 0x000F_FFFF_FFFF_FFFF;
    // Mantissas at or above √2 carry into bit 52: those take the exponent
    // of x/2 (0x3FE) and one more power of two in k.
    let carry = mantissa.wrapping_add(0x0009_5F64_0000_0000) & 0x0010_0000_0000_0000;
    let m = f64::from_bits(mantissa | (carry ^ 0x3FF0_0000_0000_0000));
    // k = biased exponent + carry - 1023 (- 54 for a rescaled subnormal),
    // converted exactly through the 2^52 exponent trick.
    let biased = (bits >> 52).wrapping_add(carry >> 52);
    let k = f64::from_bits(0x4330_0000_0000_0000 | biased)
        - (TWO52 + 1023.0)
        - if tiny { 54.0 } else { 0.0 };

    let f = m - 1.0;
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let t1 = w * (LG2 + w * (LG4 + w * LG6));
    let t2 = z * (LG1 + w * (LG3 + w * (LG5 + w * LG7)));
    let r = t2 + t1;
    let hfsq = 0.5 * f * f;
    let y = k * LN2_HI - ((hfsq - (s * (hfsq + r) + k * LN2_LO)) - f);

    let special = if x == 0.0 {
        f64::NEG_INFINITY
    } else if x == f64::INFINITY {
        x
    } else {
        f64::NAN
    };
    if x > 0.0 && x < f64::INFINITY {
        y
    } else {
        special
    }
}

/// `2/π`.
const INV_PIO2: f64 = f64::from_bits(0x3FE4_5F30_6DC9_C883);
/// `π/2` in three pieces of at most 33 bits plus a tail: `n · PIO2_i` is
/// exact for `|n| < 2^20`.
const PIO2_1: f64 = f64::from_bits(0x3FF9_21FB_5440_0000);
const PIO2_2: f64 = f64::from_bits(0x3DD0_B461_1A60_0000);
const PIO2_3: f64 = f64::from_bits(0x3BA3_198A_2E00_0000);
const PIO2_3T: f64 = f64::from_bits(0x397B_839A_2520_49C1);

const C1: f64 = f64::from_bits(0x3FA5_5555_5555_554C);
const C2: f64 = f64::from_bits(0xBF56_C16C_16C1_5177);
const C3: f64 = f64::from_bits(0x3EFA_01A0_19CB_1590);
const C4: f64 = f64::from_bits(0xBE92_7E4F_809C_52AD);
const C5: f64 = f64::from_bits(0x3E21_EE9E_BDB4_B1C4);
const C6: f64 = f64::from_bits(0xBDA8_FAE9_BE88_38D4);

const S1: f64 = f64::from_bits(0xBFC5_5555_5555_5549);
const S2: f64 = f64::from_bits(0x3F81_1111_1110_F8A6);
const S3: f64 = f64::from_bits(0xBF2A_01A0_19C1_61D5);
const S4: f64 = f64::from_bits(0x3EC7_1DE3_57B1_FE7D);
const S5: f64 = f64::from_bits(0xBE5A_E5E6_8A2B_9CEB);
const S6: f64 = f64::from_bits(0x3DE5_D93A_5ACF_D57C);

/// The largest `|x|` [`cos`] accepts: `2^20` radians keeps the quadrant
/// count below `2^20`, where the three-piece reduction is exact.
pub const COS_MAX_ARG: f64 = 1_048_576.0;

/// The cosine, within 1 ulp, for `|x| <= COS_MAX_ARG` (`2^20`).
///
/// The reduction is exact only while the quadrant count stays below
/// `2^20`; beyond [`COS_MAX_ARG`] (and for ±∞ or NaN) the result is NaN
/// rather than a silently inaccurate value.
///
/// # Examples
///
/// ```
/// use act_units::math::cos;
///
/// assert_eq!(cos(0.0), 1.0);
/// assert!((cos(std::f64::consts::PI) + 1.0).abs() <= f64::EPSILON);
/// assert!(cos(f64::INFINITY).is_nan());
/// assert!(cos(1e7).is_nan());
/// ```
#[inline(always)]
#[must_use]
pub fn cos(x: f64) -> f64 {
    // n = round(x · 2/π); its low bits, the quadrant, sit in the
    // mantissa of the magic sum.
    let rounded = x * INV_PIO2 + ROUND_MAGIC;
    let quadrant = rounded.to_bits();
    let n = rounded - ROUND_MAGIC;

    // x - n·π/2 as a double-double y0 + y1, after fdlibm's third
    // iteration: n·PIO2_1 cancels exactly, and the rounding errors of the
    // next two subtractions are carried (TwoSum) instead of branched on.
    let r1 = x - n * PIO2_1;
    let (r2, e2) = two_diff(r1, n * PIO2_2);
    let (r3, e3) = two_diff(r2, n * PIO2_3);
    let tail = (e2 + e3) - n * PIO2_3T;
    let y0 = r3 + tail;
    let y1 = (r3 - y0) + tail;

    let c = kernel_cos(y0, y1);
    let s = kernel_sin(y0, y1);
    // Quadrant 0: cos, 1: -sin, 2: -cos, 3: sin.
    let odd = (quadrant & 1).wrapping_neg();
    let picked = (s.to_bits() & odd) | (c.to_bits() & !odd);
    let sign = (quadrant.wrapping_add(1) & 2) << 62;
    let y = f64::from_bits(picked ^ sign);
    if x.abs() <= COS_MAX_ARG {
        y
    } else {
        f64::NAN
    }
}

/// `a - b` as an unevaluated sum `s + e`, exactly (Knuth's TwoSum).
#[inline(always)]
fn two_diff(a: f64, b: f64) -> (f64, f64) {
    let s = a - b;
    let v = s - a;
    (s, (a - (s - v)) - (b + v))
}

/// `cos(x + y)` for `|x| <= π/4` and a tail `|y| <= ulp(x)/2`
/// (FreeBSD `k_cos.c`).
#[inline(always)]
fn kernel_cos(x: f64, y: f64) -> f64 {
    let z = x * x;
    let w = z * z;
    let r = z * (C1 + z * (C2 + z * C3)) + w * w * (C4 + z * (C5 + z * C6));
    let hz = 0.5 * z;
    let w = 1.0 - hz;
    w + (((1.0 - w) - hz) + (z * r - x * y))
}

/// `sin(x + y)` for `|x| <= π/4` and a tail `|y| <= ulp(x)/2`
/// (FreeBSD `k_sin.c`, tail form).
#[inline(always)]
fn kernel_sin(x: f64, y: f64) -> f64 {
    let z = x * x;
    let w = z * z;
    let r = S2 + z * (S3 + z * S4) + z * w * (S5 + z * S6);
    let v = z * x;
    x - ((z * (0.5 * y - v * r) - y) - v * S1)
}
