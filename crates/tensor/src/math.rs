//! The transcendental element functions of the op table.
//!
//! Each is a branch-free polynomial or rational form over plain `f32`
//! arithmetic and comparisons, so a loop of them vectorises at the baseline
//! x86-64 target; the libm functions they replace are one call per element.
//! Every executor runs these through [`crate::kernel`]'s one op table, so
//! eager and fused execution agree bit for bit. Bounds are against the exact
//! value, in units in the last place of the f32 result.

/// `log2(e)`.
const LOG2_E: f32 = std::f32::consts::LOG2_E;
/// `ln 2` split in two (Cody–Waite): `n · LN2_HI` is exact for every `n`
/// [`exp`] reduces by, and `LN2_HI - LN2_LO` is within 2e-12 of `ln 2`.
const LN2_HI: f32 = 355.0 / 512.0;
const LN2_LO: f32 = 2.121_944_4e-4;
/// `1.5 · 2^23`: adding it rounds an f32 of magnitude below `2^22` to an
/// integer, which then sits in the low bits of the sum.
const ROUND: f32 = 12_582_912.0;

/// `e^x`, within 2 ulp wherever the result is a normal f32; below that it
/// rounds gracefully through the subnormals to `+0`, which it is for every
/// `x < -103.98`. It is `+∞` from the first x whose exact value rounds past
/// `f32::MAX` (`88.72284`), `exp(±0) = 1` and NaN stays NaN.
///
/// `x = n·ln 2 + r` with `|r| ≤ ln 2 / 2`, `e^r` by the Cephes polynomial,
/// and `2^n` built from its exponent bits in two halves, so that every `n`
/// from -150 to 128 is two normal powers of two.
pub(crate) fn exp(x: f32) -> f32 {
    // Beyond these the result is `+∞` or `+0` whatever the polynomial says;
    // written as comparisons so that NaN passes through.
    let x = if x > 89.0 { 89.0 } else { x };
    let x = if x < -104.0 { -104.0 } else { x };
    let shifted = x * LOG2_E + ROUND;
    let n = shifted - ROUND;
    let k = shifted.to_bits().wrapping_sub(ROUND.to_bits()) as i32;
    let r = x - n * LN2_HI + n * LN2_LO;
    let mut p = 1.987_569_1e-4;
    p = p * r + 1.398_199_9e-3;
    p = p * r + 8.333_452e-3;
    p = p * r + 4.166_579_6e-2;
    p = p * r + 1.666_666_6e-1;
    p = p * r + 0.5;
    let e_r = p * (r * r) + r + 1.0;
    let pow2 = |k: i32| f32::from_bits(((k + 127) as u32) << 23);
    e_r * pow2(k >> 1) * pow2(k - (k >> 1))
}

/// `1 / (1 + e^-x)`, within 8 ulp wherever the result is a normal f32;
/// `sigmoid(0) = 0.5`, every result lies in `[0, 1]`, `sigmoid(-∞) = 0`,
/// `sigmoid(∞) = 1` and NaN stays NaN.
pub(crate) fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + exp(-x))
}

/// Below this `tanh(x)` is within an ulp of `x`.
const TANH_TINY: f32 = 4e-4;
/// The end of the range the rational form below is fitted on, where it
/// reaches 1.
const TANH_CLAMP: f32 = 7.905_311;
/// From here on the exact `tanh` is within one ulp of ±1.
const TANH_ONE: f32 = 9.0;

/// Hyperbolic tangent, within 8 ulp everywhere: a 13/6 rational form
/// (Eigen's) on `|x| ≤ 7.9`, `x` itself below `4e-4` and exactly `±1` from
/// `|x| = 9` on. It is odd to the bit (`tanh(-x) == -tanh(x)`), keeps ±0
/// and subnormals, never leaves `[-1, 1]`, and NaN stays NaN.
pub(crate) fn tanh(x: f32) -> f32 {
    let c = if x > TANH_CLAMP { TANH_CLAMP } else { x };
    let c = if c < -TANH_CLAMP { -TANH_CLAMP } else { c };
    let c2 = c * c;
    let mut p = -2.760_768_4e-16;
    p = p * c2 + 2.000_188e-13;
    p = p * c2 - 8.604_672e-11;
    p = p * c2 + 5.122_297_3e-8;
    p = p * c2 + 1.485_722_35e-5;
    p = p * c2 + 6.372_619_5e-4;
    p = p * c2 + 4.893_524_6e-3;
    let mut q = 1.198_258_4e-6;
    q = q * c2 + 1.185_347_1e-4;
    q = q * c2 + 2.268_434_7e-3;
    q = q * c2 + 4.893_525e-3;
    let y = c * p / q;
    let a = x.abs();
    let y = if a >= TANH_ONE { 1f32.copysign(x) } else { y };
    if a < TANH_TINY {
        x
    } else {
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Distance in representable f32s between `a` and `b`, both finite or
    /// infinite (±0 are one value).
    fn ulps(a: f32, b: f32) -> u32 {
        let ordered = |v: f32| {
            let i = v.to_bits() as i32;
            i64::from(if i < 0 { i32::MIN - i } else { i })
        };
        (ordered(a) - ordered(b)).unsigned_abs() as u32
    }

    fn libm_exp(x: f32) -> f32 {
        f64::from(x).exp() as f32
    }

    fn libm_tanh(x: f32) -> f32 {
        f64::from(x).tanh() as f32
    }

    fn libm_sigmoid(x: f32) -> f32 {
        (1.0 / (1.0 + (-f64::from(x)).exp())) as f32
    }

    /// Every `STRIDE`-th f32 bit pattern of either sign, the ends included.
    fn sweep() -> impl Iterator<Item = f32> {
        const STRIDE: u32 = 4099;
        (0..=u32::MAX / STRIDE)
            .map(|i| f32::from_bits(i * STRIDE))
            .chain([f32::MAX, f32::MIN])
            .flat_map(|v| [v, -v])
    }

    /// The largest ulp distance of `f` from `reference` over the sweep,
    /// counting only inputs whose exact result is a normal f32.
    fn worst(f: fn(f32) -> f32, reference: fn(f32) -> f32) -> (u32, f32) {
        let mut worst = (0, 0.0);
        for x in sweep().filter(|x| !x.is_nan()) {
            let want = reference(x);
            if !want.is_normal() && want.is_finite() {
                continue;
            }
            let d = ulps(f(x), want);
            if d > worst.0 {
                worst = (d, x);
            }
        }
        worst
    }

    #[test]
    fn exp_is_within_2_ulp_where_normal() {
        let (d, x) = worst(exp, libm_exp);
        assert!(d <= 2, "exp({x:e}) is {d} ulp off");
    }

    #[test]
    fn tanh_is_within_8_ulp() {
        let (d, x) = worst(tanh, libm_tanh);
        assert!(d <= 8, "tanh({x:e}) is {d} ulp off");
    }

    #[test]
    fn sigmoid_is_within_8_ulp_where_normal() {
        let (d, x) = worst(sigmoid, libm_sigmoid);
        assert!(d <= 8, "sigmoid({x:e}) is {d} ulp off");
    }

    #[test]
    fn special_values_are_exact() {
        let subnormals = [f32::from_bits(1), f32::from_bits(0x007f_ffff), 1e-40];
        for x in [0.0, -0.0]
            .into_iter()
            .chain(subnormals)
            .flat_map(|v| [v, -v])
        {
            assert_eq!(exp(x), 1.0, "exp({x:e})");
            assert_eq!(sigmoid(x), 0.5, "sigmoid({x:e})");
            assert_eq!(tanh(x).to_bits(), x.to_bits(), "tanh({x:e})");
        }
        assert_eq!(exp(f32::INFINITY), f32::INFINITY);
        assert_eq!(exp(f32::NEG_INFINITY).to_bits(), 0);
        assert_eq!(tanh(f32::INFINITY), 1.0);
        assert_eq!(tanh(f32::NEG_INFINITY), -1.0);
        assert_eq!(sigmoid(f32::INFINITY), 1.0);
        assert_eq!(sigmoid(f32::NEG_INFINITY).to_bits(), 0);
        assert!(exp(f32::NAN).is_nan() && tanh(f32::NAN).is_nan() && sigmoid(f32::NAN).is_nan());
        assert!(exp(-f32::NAN).is_nan() && tanh(-f32::NAN).is_nan());
    }

    #[test]
    fn exp_overflows_and_underflows_where_libm_does() {
        // The last x whose e^x is finite, the last whose e^x is normal and
        // the last whose e^x is not +0, each with its neighbours.
        for edge in [0x42b1_7217u32, 0xc2ae_ac4f, 0xc2cf_f1b4] {
            for x in (edge - 4..=edge + 4).map(f32::from_bits) {
                assert_eq!(exp(x).to_bits(), libm_exp(x).to_bits(), "exp({x:e})");
            }
        }
        assert_eq!(exp(f32::from_bits(0x42b1_7218)), f32::INFINITY);
        assert_eq!(exp(f32::from_bits(0xc2cf_f1b5)).to_bits(), 0);
        for x in [89.0, 1e10, f32::MAX] {
            assert_eq!(exp(x), f32::INFINITY, "exp({x:e})");
        }
        for x in [-104.0, -1e10, f32::MIN] {
            assert_eq!(exp(x).to_bits(), 0, "exp({x:e})");
        }
    }

    #[test]
    fn identities_hold_exactly() {
        for x in sweep().filter(|x| !x.is_nan()) {
            let t = tanh(x);
            assert_eq!(tanh(-x).to_bits(), (-t).to_bits(), "tanh(-{x:e})");
            assert!((-1.0..=1.0).contains(&t), "tanh({x:e}) = {t}");
            let s = sigmoid(x);
            assert!((0.0..=1.0).contains(&s), "sigmoid({x:e}) = {s}");
        }
        // Densely over where the rational form meets ±1.
        let mut x = 4.0f32;
        while x <= TANH_ONE {
            assert!(tanh(x) <= 1.0, "tanh({x:e}) = {}", tanh(x));
            x = f32::from_bits(x.to_bits() + 7);
        }
    }
}
