//! Factorials and related combinatorial quantities over [`BigNat`].
//!
//! The paper's bounds are dominated by factorials: the small-basis constant is
//! `β = 2^(2(2n+1)!+1)` and Theorem 5.9 bounds the busy beaver value by
//! `2^((2n+2)!)`.  For protocols with up to a handful of states these
//! factorials are still materialisable and we compute them exactly.

use crate::bignat::BigNat;

/// Computes `n!` exactly.
///
/// # Examples
///
/// ```
/// use popproto_numerics::factorial;
/// assert_eq!(factorial(0).to_u64(), Some(1));
/// assert_eq!(factorial(5).to_u64(), Some(120));
/// assert_eq!(factorial(20).to_u64(), Some(2_432_902_008_176_640_000));
/// ```
pub fn factorial(n: u64) -> BigNat {
    let mut acc = BigNat::one();
    for k in 2..=n {
        // Multiply limb-wise when k fits in a u32, otherwise full multiply.
        if k <= u32::MAX as u64 {
            acc.mul_small(k as u32);
        } else {
            acc = acc.mul_ref(&BigNat::from(k));
        }
    }
    acc
}

/// Computes the falling factorial `n (n-1) ... (n-k+1)`.
pub(crate) fn falling_factorial(n: u64, k: u64) -> BigNat {
    if k > n {
        return BigNat::zero();
    }
    let mut acc = BigNat::one();
    for i in 0..k {
        acc = acc.mul_ref(&BigNat::from(n - i));
    }
    acc
}

/// Computes the binomial coefficient `C(n, k)` exactly.
///
/// # Examples
///
/// ```
/// use popproto_numerics::binomial;
/// assert_eq!(binomial(10, 3).to_u64(), Some(120));
/// assert_eq!(binomial(5, 7).to_u64(), Some(0));
/// ```
pub fn binomial(n: u64, k: u64) -> BigNat {
    if k > n {
        return BigNat::zero();
    }
    let k = k.min(n - k);
    let num = falling_factorial(n, k);
    let den = factorial(k);
    let (q, r) = num.div_rem(&den);
    debug_assert!(r.is_zero(), "binomial coefficient must be an integer");
    q
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_factorials() {
        let expect = [1u64, 1, 2, 6, 24, 120, 720, 5040, 40320, 362880, 3628800];
        for (n, &e) in expect.iter().enumerate() {
            assert_eq!(factorial(n as u64).to_u64(), Some(e), "factorial({n})");
        }
    }

    #[test]
    fn factorial_100_has_known_digit_count() {
        // 100! has 158 decimal digits.
        assert_eq!(factorial(100).to_decimal_string().len(), 158);
    }

    #[test]
    fn falling_factorials() {
        assert_eq!(falling_factorial(10, 0).to_u64(), Some(1));
        assert_eq!(falling_factorial(10, 3).to_u64(), Some(720));
        assert_eq!(falling_factorial(3, 5).to_u64(), Some(0));
    }

    #[test]
    fn binomials_match_pascal() {
        for n in 0..20u64 {
            for k in 0..=n {
                let direct = binomial(n, k);
                let pascal = if k == 0 || k == n {
                    BigNat::one()
                } else {
                    &binomial(n - 1, k - 1) + &binomial(n - 1, k)
                };
                assert_eq!(direct, pascal, "C({n},{k})");
            }
        }
    }

    #[test]
    fn paper_constant_exponent_sizes() {
        // (2n+1)! and (2n+2)! for small n: the exponents appearing in β and ϑ(n).
        assert_eq!(factorial(2 * 2 + 1).to_u64(), Some(120)); // n=2
        assert_eq!(factorial(2 * 2 + 2).to_u64(), Some(720));
        assert_eq!(factorial(2 * 3 + 1).to_u64(), Some(5040)); // n=3
        assert_eq!(factorial(2 * 3 + 2).to_u64(), Some(40320));
    }
}
