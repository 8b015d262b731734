//! Portable, branch-light transcendentals shared by the scalar and ensemble
//! samplers.
//!
//! Lane-level bit-equivalence between [`BatchedSimulator`] and
//! [`EnsembleSimulator`] requires both engines to evaluate *exactly the same*
//! float expressions, so the transcendental kernels the samplers need are
//! written once here and called from the scalar samplers directly and from
//! the ensemble's bulk transform loops over packed lane arrays.  Elementwise
//! IEEE-754 operations produce identical bits whether evaluated one at a
//! time or packed into vector registers, and Rust never contracts `a*b + c`
//! into an FMA on its own — so the compiler is free to autovectorise the
//! bulk loops without perturbing a single lane's stream.  To keep that
//! autovectorisation possible, every kernel body is straight-line,
//! if-convertible code: no table lookups, no early returns, no
//! data-dependent loops.
//!
//! The `ln` and `exp` kernels are the classic fdlibm/musl polynomial
//! kernels (~1 ulp over the samplers' operating range); `cos_tau` evaluates
//! `cos(2πu)` for `u ∈ [0, 1)` by quarter-period folding and a Taylor
//! polynomial (absolute error < 4e-15).  The accuracy is far below the
//! Monte-Carlo noise floor of any sampler built on top — the statistical
//! acceptance tests in [`sampling`](crate::sampling) all run against these
//! implementations.
//!
//! [`BatchedSimulator`]: crate::BatchedSimulator
//! [`EnsembleSimulator`]: crate::EnsembleSimulator

// The polynomial coefficients are the published fdlibm values, kept verbatim
// so the kernels can be audited against the reference implementation; the
// extra printed digits round to the same f64, and `1/ln(2)` genuinely is the
// constant the exp kernel needs.
#![allow(clippy::excessive_precision, clippy::approx_constant)]

/// Natural logarithm of a positive, finite, *normal* `f64` (the samplers
/// clamp their arguments to `≥ f64::MIN_POSITIVE`, so the subnormal and
/// non-finite cases never reach this kernel and are left undefined).
#[inline(always)]
pub fn ln(x: f64) -> f64 {
    const LN2_HI: f64 = 6.931_471_803_691_238_164_90e-01;
    const LN2_LO: f64 = 1.908_214_929_270_587_700_02e-10;
    // Any cut point near √2 works; the fold below is exact either way.
    const SQRT2: f64 = std::f64::consts::SQRT_2;
    const LG1: f64 = 6.666_666_666_666_735_130e-01;
    const LG2: f64 = 3.999_999_999_940_941_908e-01;
    const LG3: f64 = 2.857_142_874_366_239_149e-01;
    const LG4: f64 = 2.222_219_843_214_978_396e-01;
    const LG5: f64 = 1.818_357_216_161_805_012e-01;
    const LG6: f64 = 1.531_383_769_920_937_332e-01;
    const LG7: f64 = 1.479_819_860_511_658_591e-01;

    let bits = x.to_bits();
    // Split into exponent and mantissa m ∈ [1, 2), then fold m to
    // [√2/2, √2) so the polynomial argument stays small.  The exponent
    // stays in i32 so the int→float conversion vectorises on AVX2.
    let m_raw = f64::from_bits((bits & 0x000F_FFFF_FFFF_FFFF) | (1023u64 << 52));
    let big = m_raw > SQRT2;
    let m = if big { 0.5 * m_raw } else { m_raw };
    let e = (((bits >> 52) as i32) - 1023 + big as i32) as f64;

    let f = m - 1.0;
    let hfsq = 0.5 * f * f;
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let t1 = w * (LG2 + w * (LG4 + w * LG6));
    let t2 = z * (LG1 + w * (LG3 + w * (LG5 + w * LG7)));
    let r = t2 + t1;
    s * (hfsq + r) + e * LN2_LO - hfsq + f + e * LN2_HI
}

/// `eˣ` for `x` in the samplers' operating range (roughly `[-708, 708]`;
/// arguments outside are clamped, which only matters many orders of
/// magnitude below the smallest probability any sampler compares against).
#[inline(always)]
pub fn exp(x: f64) -> f64 {
    const INV_LN2: f64 = 1.442_695_040_888_963_387_00e+00;
    const LN2_HI: f64 = 6.931_471_803_691_238_164_90e-01;
    const LN2_LO: f64 = 1.908_214_929_270_587_700_02e-10;
    /// 1.5·2⁵², the round-to-nearest-integer shifter: adding it pushes the
    /// integer part of `x/ln2` into the mantissa bits, giving both the
    /// rounded quotient and (via bit surgery) the 2ᵏ scale without any
    /// f64→i64 conversion — which keeps the kernel AVX2-vectorisable.
    const SHIFT: f64 = 6_755_399_441_055_744.0;
    const P1: f64 = 1.666_666_666_666_660_190_37e-01;
    const P2: f64 = -2.777_777_777_701_559_338_42e-03;
    const P3: f64 = 6.613_756_321_437_934_361_17e-05;
    const P4: f64 = -1.653_390_220_546_525_153_90e-06;
    const P5: f64 = 4.138_136_797_057_238_460_39e-08;

    let x = x.clamp(-708.0, 708.0);
    let t = x * INV_LN2 + SHIFT;
    let kf = t - SHIFT; // round-to-nearest(x / ln 2)
                        // 2^k: the mantissa of `t` holds 2⁵¹ + k; shifting (bits + 1023) left by
                        // 52 leaves exactly the biased exponent k + 1023 in the exponent field.
    let scale = f64::from_bits(t.to_bits().wrapping_add(1023) << 52);

    let hi = x - kf * LN2_HI;
    let lo = kf * LN2_LO;
    let r = hi - lo;
    let rr = r * r;
    let c = r - rr * (P1 + rr * (P2 + rr * (P3 + rr * (P4 + rr * P5))));
    (1.0 + (r * c / (2.0 - c) - lo + hi)) * scale
}

/// Elementwise in-place [`ln`] over a packed slice — the bulk form the
/// samplers use when many logarithms are needed at once (log-factorial
/// table construction, deferred lane transforms).  The body is a plain
/// elementwise loop over the scalar kernel, so the compiler may pack it
/// into vector registers while every element stays bit-identical to a
/// scalar [`ln`] call — the same argument that lets the ensemble batch
/// transforms without perturbing lane streams.
#[inline]
pub fn ln_bulk(xs: &mut [f64]) {
    for x in xs.iter_mut() {
        *x = ln(*x);
    }
}

/// `cos(2πu)` for `u ∈ [0, 1)` (the Box–Muller angle): quarter-period
/// folding plus one even Taylor polynomial — no π-sized range reduction
/// needed because the caller's argument is already a fraction of a turn.
#[inline(always)]
pub fn cos_tau(u: f64) -> f64 {
    // w ∈ (-0.5, 0.5] is u reduced to the nearest whole turn; cosine is
    // even, so fold to a ∈ [0, 0.5], then reflect the second quarter-turn
    // onto the first: cos(2πa) = -cos(2π(0.5 - a)) for a > 0.25.
    let w = u - (u + 0.5).floor();
    let a = w.abs();
    let refl = a > 0.25;
    let b = if refl { 0.5 - a } else { a };
    let y = std::f64::consts::TAU * b; // |y| ≤ π/2
    let z = y * y;
    // cos(y) = Σ (-1)ᵏ y²ᵏ/(2k)!, truncated at k = 9: |error| < 4e-15 on
    // z ≤ (π/2)².
    let p = 1.0
        + z * (-1.0 / 2.0
            + z * (1.0 / 24.0
                + z * (-1.0 / 720.0
                    + z * (1.0 / 40_320.0
                        + z * (-1.0 / 3_628_800.0
                            + z * (1.0 / 479_001_600.0
                                + z * (-1.0 / 87_178_291_200.0
                                    + z * (1.0 / 20_922_789_888_000.0
                                        + z * (-1.0 / 6_402_373_705_728_000.0)))))))));
    if refl {
        -p
    } else {
        p
    }
}

/// `ln Γ(x)` for `x ≥ 1` — the log-factorial kernel behind the O(1)
/// rejection samplers (`ln k! = ln_gamma(k + 1)`).
///
/// Stirling's series with five Bernoulli correction terms, evaluated after
/// shifting the argument up to `z ≥ 8` via `Γ(x) = Γ(x+1)/x`.  At `z = 8`
/// the first dropped term is `< 7e-12`, so the absolute error is bounded by
/// ~1e-11 over the whole domain — far below the acceptance-test tolerances
/// of the samplers built on top (their squeeze bounds have slack of order
/// 1e-7), and identical on the scalar and lane-batched paths because both
/// call this one kernel.  The samplers only reach this function for integer
/// arguments above the shared log-factorial table (k > 8192), where the
/// shift loop never runs; the loop exists so the kernel is total on `x ≥ 1`
/// for the accuracy tests.
#[inline]
pub fn ln_gamma(x: f64) -> f64 {
    /// `½·ln(2π)` of the Stirling prefactor.
    const HALF_LN_TAU: f64 = 0.918_938_533_204_672_780_56;
    // Bernoulli-number coefficients B₂ₙ/(2n(2n−1)): the asymptotic series
    // Σ B₂ₙ/(2n(2n−1)·z^{2n−1}).
    const S1: f64 = 1.0 / 12.0;
    const S2: f64 = -1.0 / 360.0;
    const S3: f64 = 1.0 / 1_260.0;
    const S4: f64 = -1.0 / 1_680.0;
    const S5: f64 = 1.0 / 1_188.0;

    let mut shift = 0.0f64;
    let mut z = x;
    while z < 8.0 {
        shift -= ln(z);
        z += 1.0;
    }
    let inv = 1.0 / z;
    let inv2 = inv * inv;
    let series = inv * (S1 + inv2 * (S2 + inv2 * (S3 + inv2 * (S4 + inv2 * S5))));
    shift + (z - 0.5) * ln(z) - z + HALF_LN_TAU + series
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_matches_std_to_high_accuracy() {
        // Sweep the samplers' operating range: uniforms in (0, 1], pmf
        // ratios near 1, and a decade sweep for good measure.
        let mut worst = 0.0f64;
        for i in 1..=100_000u64 {
            let x = i as f64 / 100_000.0;
            let err = (ln(x) - x.ln()).abs() / x.ln().abs().max(1e-300);
            worst = worst.max(err);
        }
        for e in -300..300 {
            let x = 1.7f64 * 10f64.powi(e);
            let err = (ln(x) - x.ln()).abs() / x.ln().abs();
            worst = worst.max(err);
        }
        assert!(worst < 1e-14, "worst relative ln error {worst}");
        assert_eq!(ln(1.0), 0.0);
        assert!(ln(f64::MIN_POSITIVE).is_finite());
    }

    #[test]
    fn exp_matches_std_to_high_accuracy() {
        let mut worst = 0.0f64;
        for i in -70_000..=7_000 {
            let x = i as f64 / 100.0;
            let e = exp(x);
            let err = (e - x.exp()).abs() / x.exp().max(1e-300);
            worst = worst.max(err);
        }
        assert!(worst < 1e-13, "worst relative exp error {worst}");
        assert_eq!(exp(0.0), 1.0);
        assert_eq!(exp(-800.0), exp(-708.0), "clamped below the range");
    }

    #[test]
    fn exp_ln_round_trip() {
        for i in 1..=1_000 {
            let x = i as f64 / 250.0;
            assert!((exp(ln(x)) / x - 1.0).abs() < 1e-13, "round trip at {x}");
        }
    }

    #[test]
    fn ln_gamma_matches_accumulated_log_factorials() {
        // ln k! built as a cumulative ln-sum is accurate to ~1e-11 absolute
        // over this range; ln_gamma(k + 1) must agree.
        let mut acc = 0.0f64;
        let mut worst = 0.0f64;
        for k in 1..=20_000u64 {
            acc += ln(k as f64);
            let err = (ln_gamma(k as f64 + 1.0) - acc).abs() / acc.max(1.0);
            worst = worst.max(err);
        }
        assert!(worst < 1e-12, "worst relative ln_gamma error {worst}");
    }

    #[test]
    fn ln_gamma_known_values() {
        assert!(ln_gamma(1.0).abs() < 1e-12, "Γ(1) = 1");
        assert!(ln_gamma(2.0).abs() < 1e-12, "Γ(2) = 1");
        // Γ(11) = 10! = 3628800.
        assert!((ln_gamma(11.0) - 3_628_800.0f64.ln()).abs() < 1e-10);
        // A large argument in the rejection samplers' operating range.
        let k = 1e8f64;
        // Stirling for ln k!: at this magnitude one correction term already
        // gives ~1e-17 relative truncation error.
        let reference =
            (k + 0.5) * k.ln() - k + 0.5 * (2.0 * std::f64::consts::PI).ln() + 1.0 / (12.0 * k);
        assert!(
            (ln_gamma(k + 1.0) - reference).abs() / reference < 1e-9,
            "large-argument ln_gamma"
        );
    }

    #[test]
    fn cos_tau_matches_std_cos() {
        let mut worst = 0.0f64;
        for i in 0..100_000 {
            let u = i as f64 / 100_000.0;
            let err = (cos_tau(u) - (std::f64::consts::TAU * u).cos()).abs();
            worst = worst.max(err);
        }
        assert!(worst < 1e-11, "worst absolute cos_tau error {worst}");
        assert_eq!(cos_tau(0.0), 1.0);
        assert_eq!(cos_tau(0.5), -1.0);
        assert!(cos_tau(0.25).abs() < 1e-12);
        assert!(cos_tau(0.75).abs() < 1e-12);
    }
}
