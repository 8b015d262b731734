//! The constants of the paper: the small-basis constant `β` (Definition 3),
//! the basis-size bound `ϑ(n)` (Lemma 3.2), and the Theorem 5.9 bound for
//! leaderless protocols.

use popproto_model::Protocol;
use popproto_numerics::{factorial, BigNat, Magnitude};
use popproto_vas::pottier_constant;

/// The exponent `2(2n+1)! + 1` of the small-basis constant, exactly.
pub(crate) fn small_basis_exponent(num_states: usize) -> BigNat {
    let f = factorial(2 * num_states as u64 + 1);
    &(&f * &BigNat::from(2u64)) + &BigNat::one()
}

/// The small-basis constant `β = 2^(2(2n+1)!+1)` of Definition 3, as a
/// magnitude (exact for very small `n`, logarithmic beyond).
pub(crate) fn small_basis_constant(num_states: usize) -> Magnitude {
    Magnitude::from(small_basis_exponent(num_states)).exp2_of()
}

/// The bound `ϑ(n) = 2^((2n+2)!)` of Lemma 3.2 on the number of elements of a
/// small basis.
pub fn basis_size_bound(num_states: usize) -> Magnitude {
    Magnitude::from(factorial(2 * num_states as u64 + 2)).exp2_of()
}

/// The simple closed form of the Theorem 5.9 bound: `2^((2n+2)!)`.
pub fn theorem_5_9_simple_bound(num_states: usize) -> Magnitude {
    basis_size_bound(num_states)
}

/// The sharper Theorem 5.9 bound `ξ·n·β·3^n` for a concrete protocol, where
/// `ξ` is its Pottier constant and `β` the small-basis constant.
pub fn theorem_5_9_bound(protocol: &Protocol) -> Magnitude {
    let n = protocol.num_states();
    let xi = Magnitude::from(pottier_constant(protocol));
    let beta = small_basis_constant(n);
    let three_n = Magnitude::from(BigNat::from(3u64).pow(n as u64));
    xi.mul(&Magnitude::from_u64(n as u64))
        .mul(&beta)
        .mul(&three_n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use popproto_zoo::binary_counter;

    #[test]
    fn small_basis_exponent_values() {
        // n=1: 2·3!+1 = 13; n=2: 2·5!+1 = 241; n=3: 2·7!+1 = 10081.
        assert_eq!(small_basis_exponent(1).to_u64(), Some(13));
        assert_eq!(small_basis_exponent(2).to_u64(), Some(241));
        assert_eq!(small_basis_exponent(3).to_u64(), Some(10081));
    }

    #[test]
    fn small_basis_constant_magnitudes() {
        let b1 = small_basis_constant(1);
        assert_eq!(b1.as_exact().and_then(|v| v.to_u64()), Some(1 << 13));
        let b2 = small_basis_constant(2);
        assert!((b2.log2_approx().unwrap() - 241.0).abs() < 1e-6);
        // β is monotone in n.
        assert!(small_basis_constant(3) > b2);
        assert!(small_basis_constant(4) > small_basis_constant(3));
    }

    #[test]
    fn basis_size_bound_values() {
        // ϑ(1) = 2^(4!) = 2^24.
        assert_eq!(
            basis_size_bound(1).as_exact().and_then(|v| v.to_u64()),
            Some(1 << 24)
        );
        // ϑ(2) = 2^720.
        assert!((basis_size_bound(2).log2_approx().unwrap() - 720.0).abs() < 1e-6);
    }

    #[test]
    fn theorem_5_9_bounds_are_consistent() {
        let p = binary_counter(2); // 4 states
        let sharp = theorem_5_9_bound(&p);
        let simple = theorem_5_9_simple_bound(p.num_states());
        // The paper shows ξ·n·β·3^n ≤ 2^((2n+2)!); check it numerically.
        assert!(
            sharp <= simple,
            "sharp bound {sharp} exceeds simple bound {simple}"
        );
        // And the true threshold 4 is (of course) far below the bound.
        assert!(Magnitude::from_u64(4) < sharp);
    }

    #[test]
    fn bounds_grow_with_state_count() {
        let small = theorem_5_9_simple_bound(2);
        let large = theorem_5_9_simple_bound(3);
        assert!(small < large);
    }
}
