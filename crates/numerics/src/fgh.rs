//! Fast-Growing-Hierarchy evaluation for tiny arguments.
//!
//! Lemma 4.4 of the paper bounds the length of linearly controlled good
//! sequences by a function at level `F_ω` of the Fast-Growing Hierarchy,
//! and Theorem 4.5 uses that function to bound the busy beaver value of
//! protocols with leaders.  These functions explode immediately, so exact
//! evaluation is possible only for tiny arguments — which is exactly what we
//! need to sanity-check the definitions and to report magnitudes.
//!
//! We use the standard hierarchy over naturals:
//!
//! * `F_0(x) = x + 1`
//! * `F_{k+1}(x) = F_k^{x+1}(x)`  (iterate `x + 1` times)
//! * `F_ω(x) = F_x(x)`

use crate::bignat::BigNat;
use crate::magnitude::Magnitude;
use std::fmt;

/// Error returned when an exact Fast-Growing-Hierarchy evaluation would not
/// terminate in a reasonable amount of work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FghError {
    /// Human readable description of which evaluation was refused.
    reason: String,
}

impl FghError {
    fn new(reason: impl Into<String>) -> Self {
        FghError {
            reason: reason.into(),
        }
    }
}

impl fmt::Display for FghError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fast-growing hierarchy evaluation refused: {}",
            self.reason
        )
    }
}

impl std::error::Error for FghError {}

/// Maximum number of primitive steps an exact evaluation may take.
const STEP_BUDGET: u64 = 50_000_000;

/// Exact Fast-Growing-Hierarchy value `F_k(x)`.
///
/// `F_0(x) = x + 1`, `F_{k+1}(x) = F_k^{x+1}(x)`.
///
/// # Errors
///
/// Returns [`FghError`] when the result would be too large to compute exactly.
///
/// # Examples
///
/// ```
/// use popproto_numerics::fast_growing;
/// assert_eq!(fast_growing(1, 5).unwrap().to_u64(), Some(11));      // 2x+1
/// assert_eq!(fast_growing(2, 3).unwrap().to_u64(), Some(2_u64.pow(4) * 4 - 1)); // 2^(x+1)(x+1)-1
/// ```
pub fn fast_growing(k: u32, x: u64) -> Result<BigNat, FghError> {
    let mut budget = STEP_BUDGET;
    fgh_rec(k, BigNat::from(x), &mut budget)
}

fn fgh_rec(k: u32, x: BigNat, budget: &mut u64) -> Result<BigNat, FghError> {
    if *budget == 0 {
        return Err(FghError::new("step budget exhausted"));
    }
    *budget -= 1;
    match k {
        0 => Ok(&x + &BigNat::one()),
        1 => Ok(&(&x * &BigNat::from(2u64)) + &BigNat::one()),
        2 => {
            // F_2(x) = 2^(x+1) (x+1) - 1
            let e = x
                .to_u64()
                .ok_or_else(|| FghError::new("argument too large for F_2"))?;
            if e > 1 << 20 {
                return Err(FghError::new("F_2 result would exceed size limits"));
            }
            let p = BigNat::pow2(e + 1);
            Ok(&(&p * &BigNat::from(e + 1)) - &BigNat::one())
        }
        _ => {
            // F_k(x) = F_{k-1}^{x+1}(x)
            let reps = x
                .to_u64()
                .ok_or_else(|| FghError::new("argument too large for iteration count"))?
                .checked_add(1)
                .ok_or_else(|| FghError::new("iteration count overflow"))?;
            let mut acc = x;
            for _ in 0..reps {
                acc = fgh_rec(k - 1, acc, budget)?;
                if acc.bits() > 1 << 22 {
                    return Err(FghError::new("intermediate value exceeds size limits"));
                }
            }
            Ok(acc)
        }
    }
}

/// A magnitude-level estimate of `F_ω(x) = F_x(x)`, used to *report* the
/// Theorem 4.5 bound without materialising it.
///
/// For `x ≤ 2` the value is exact; beyond that we return a tower whose height
/// grows with `x`, which is a (crude but monotone) lower-bound-shaped stand-in
/// for the true value.  The function is only used for reporting.
pub fn f_omega_magnitude(x: u64) -> Magnitude {
    match x {
        0 => Magnitude::from_u64(1),
        1 => Magnitude::from_u64(3),
        2 => Magnitude::from_u64(
            fast_growing(2, 2)
                .expect("F_2(2) is tiny")
                .to_u64()
                .unwrap(),
        ),
        3 => {
            // F_3(3) is 2^2^..-ish; an exact evaluation is feasible.
            match fast_growing(3, 3) {
                Ok(v) => Magnitude::from(v),
                Err(_) => Magnitude::tower(2, 3.0),
            }
        }
        _ => Magnitude::tower((x.min(u32::MAX as u64)) as u32, x as f64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_growing_base_levels() {
        assert_eq!(fast_growing(0, 9).unwrap().to_u64(), Some(10));
        assert_eq!(fast_growing(1, 9).unwrap().to_u64(), Some(19));
        // F_2(x) = 2^(x+1)(x+1) - 1
        assert_eq!(fast_growing(2, 1).unwrap().to_u64(), Some(7));
        assert_eq!(fast_growing(2, 2).unwrap().to_u64(), Some(23));
        assert_eq!(fast_growing(2, 4).unwrap().to_u64(), Some(159));
    }

    #[test]
    fn fast_growing_level3_small() {
        // F_3(1) = F_2(F_2(1)) = F_2(7) = 2^8*8-1 = 2047
        assert_eq!(fast_growing(3, 1).unwrap().to_u64(), Some(2047));
        // F_3(2) = F_2(F_2(F_2(2))) = F_2(F_2(23)) = F_2(402653183), whose binary
        // representation has ~4·10^8 bits — the evaluator must refuse it rather
        // than attempt to materialise it.
        assert!(fast_growing(3, 2).is_err());
    }

    #[test]
    fn fast_growing_iteration_definition_consistency() {
        // F_{k+1}(x) computed generically must agree with closed forms at the base.
        let generic = fgh_rec(3, BigNat::from(1u64), &mut 1_000_000).unwrap();
        assert_eq!(generic.to_u64(), Some(2047));
    }

    #[test]
    fn f_omega_magnitudes_are_monotone() {
        let m0 = f_omega_magnitude(0);
        let m1 = f_omega_magnitude(1);
        let m2 = f_omega_magnitude(2);
        assert!(m0 < m1 && m1 < m2);
        let m5 = f_omega_magnitude(5);
        let m6 = f_omega_magnitude(6);
        assert!(m5 < m6);
    }
}
