//! The Theorem 4.5 bound on the busy beaver function of protocols with
//! leaders.
//!
//! Theorem 4.5: a protocol with `n` states and `ℓ` leaders computing `x ≥ η`
//! satisfies `η < F_{ℓ,ϑ(n)}(n)`, where `F_{δ,g}` lives at level `F_ω` of the
//! Fast-Growing Hierarchy (Lemma 4.4) and `ϑ(n) = 2^((2n+2)!)` bounds the
//! number of elements of a small basis of `SC`.  The bound cannot be
//! materialised for any interesting `n`; this module reports its order of
//! magnitude and the exactly-computable ingredients.

use crate::constants::basis_size_bound;
use popproto_model::Protocol;
use popproto_numerics::{fgh, Magnitude};
use serde::{Deserialize, Serialize};

/// The ingredients and magnitude of the Theorem 4.5 bound for a protocol.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AckermannBound {
    /// Number of states `n`.
    pub num_states: usize,
    /// Number of leaders `ℓ` (the control offset of the controlled sequence).
    pub num_leaders: u64,
    /// The basis-size bound `ϑ(n)` (how many ordered elements Lemma 4.4 must produce).
    pub basis_size_bound: Magnitude,
    /// A magnitude-level stand-in for `F_{ℓ,ϑ(n)}(n)`: the Fast-Growing
    /// Hierarchy value `F_ω(n) = F_n(n)` reported as an order of magnitude.
    pub fgh_magnitude: Magnitude,
    /// Human-readable description of the bound.
    pub description: String,
}

/// Computes the Theorem 4.5 report for a protocol.
pub(crate) fn theorem_4_5_bound(protocol: &Protocol) -> AckermannBound {
    let n = protocol.num_states();
    let leaders = protocol.leaders().size();
    AckermannBound {
        num_states: n,
        num_leaders: leaders,
        basis_size_bound: basis_size_bound(n),
        fgh_magnitude: fgh::f_omega_magnitude(n as u64),
        description: format!(
            "η < F_{{{leaders},ϑ({n})}}({n}) — a level-F_ω bound; \
             ϑ({n}) = 2^(({})!) and F_ω({n}) is already ≳ {}",
            2 * n + 2,
            fgh::f_omega_magnitude(n as u64)
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use popproto_zoo::{binary_counter, leader_counter};

    #[test]
    fn report_for_leaderless_protocol() {
        let p = binary_counter(2);
        let bound = theorem_4_5_bound(&p);
        assert_eq!(bound.num_states, 4);
        assert_eq!(bound.num_leaders, 0);
        assert!(bound.description.contains("F_ω") || bound.description.contains("F_{0"));
    }

    #[test]
    fn report_for_leader_protocol() {
        let p = leader_counter(2);
        let bound = theorem_4_5_bound(&p);
        assert_eq!(bound.num_leaders, 2);
        assert_eq!(bound.num_states, 8);
    }

    #[test]
    fn bound_grows_with_state_count() {
        let small = theorem_4_5_bound(&binary_counter(1));
        let large = theorem_4_5_bound(&binary_counter(4));
        assert!(small.basis_size_bound < large.basis_size_bound);
        assert!(small.fgh_magnitude <= large.fgh_magnitude);
    }

    #[test]
    fn bound_dominates_the_actual_threshold() {
        // The binary counter with k = 3 has 5 states and decides η = 8; the
        // Theorem 4.5 ingredients dwarf that.
        let p = binary_counter(3);
        let bound = theorem_4_5_bound(&p);
        assert!(bound.basis_size_bound > Magnitude::from_u64(8));
        assert!(bound.fgh_magnitude > Magnitude::from_u64(8));
    }
}
