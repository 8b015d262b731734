//! Potentially realisable multisets of transitions and the Pottier constant
//! (Definition 4, Corollary 5.7, Definition 6 and Remark 1 of the paper).
//!
//! A multiset `π` of transitions is *potentially realisable* if
//! `IC(i) =π⇒ C` for some input `i` and configuration `C ≥ 0`; equivalently,
//! `π` solves the homogeneous system `Σ_t π(t)·Δt(q) ≥ 0` for every state
//! `q` other than the input state(s).  Pottier's theorem bounds the 1-norm of
//! a basis of that system by `ξ/2` where `ξ = 2(2|T|+1)^{|Q|}` is the
//! *Pottier constant* of the protocol.

use crate::hilbert::{hilbert_basis_inequalities, HilbertBasis, HilbertOptions};
use crate::parikh::{displacement_matrix, ParikhImage};
use popproto_model::{Config, Protocol, StateId};
use popproto_numerics::{saturating_pow_u64, BigNat};
use serde::{Deserialize, Serialize};

/// The Pottier constant `ξ = 2(2|T|+1)^{|Q|}` of a protocol (Definition 6),
/// as an exact big integer.
pub fn pottier_constant(protocol: &Protocol) -> BigNat {
    let base = BigNat::from(2 * protocol.num_transitions() as u64 + 1);
    base.pow(protocol.num_states() as u64) * BigNat::from(2u64)
}

/// The Pottier constant for *deterministic* protocols (Remark 1):
/// `ξ = 2(|Q|+2)^{|Q|}`.
pub fn pottier_constant_deterministic(protocol: &Protocol) -> BigNat {
    let base = BigNat::from(protocol.num_states() as u64 + 2);
    base.pow(protocol.num_states() as u64) * BigNat::from(2u64)
}

/// The homogeneous Diophantine system whose solutions are the potentially
/// realisable multisets of a protocol (Section 5.4).
///
/// # Examples
///
/// ```
/// use popproto_model::{Output, ProtocolBuilder};
/// use popproto_vas::{HilbertOptions, RealisabilitySystem};
///
/// # fn main() -> Result<(), popproto_model::ProtocolError> {
/// let mut b = ProtocolBuilder::new("demo");
/// let x = b.add_state("x", Output::False);
/// let acc = b.add_state("acc", Output::True);
/// b.add_transition((x, x), (acc, acc))?;
/// b.set_input_state("x", x);
/// let p = b.build()?;
///
/// let sys = RealisabilitySystem::new(&p);
/// let basis = sys.basis(&HilbertOptions::default());
/// assert!(basis.complete);
/// // Firing the single transition once is potentially realisable.
/// assert_eq!(basis.solutions, vec![vec![1]]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RealisabilitySystem {
    matrix: Vec<Vec<i64>>,
    constrained_states: Vec<StateId>,
    input_states: Vec<StateId>,
    num_states: usize,
    num_transitions: usize,
}

impl RealisabilitySystem {
    /// Builds the realisability system of a protocol: one inequality
    /// `Σ_t π(t)·Δt(q) ≥ 0` per non-input state `q`.
    pub fn new(protocol: &Protocol) -> Self {
        let n = protocol.num_states();
        let input_states: Vec<StateId> =
            protocol.input_variables().iter().map(|v| v.state).collect();
        let constrained_states: Vec<StateId> = protocol
            .state_ids()
            .filter(|q| !input_states.contains(q))
            .collect();
        let mut full = displacement_matrix(protocol);
        let matrix = constrained_states
            .iter()
            .map(|q| std::mem::take(&mut full[q.index()]))
            .collect();
        RealisabilitySystem {
            matrix,
            constrained_states,
            input_states,
            num_states: n,
            num_transitions: protocol.num_transitions(),
        }
    }

    /// The coefficient matrix (rows = non-input states, columns = transitions).
    pub fn matrix(&self) -> &[Vec<i64>] {
        &self.matrix
    }

    /// Returns `true` if the multiset `π` is potentially realisable.
    pub fn is_potentially_realisable(&self, pi: &ParikhImage) -> bool {
        crate::hilbert::is_solution_inequalities(&self.matrix, pi.counts())
    }

    /// Computes a generating basis of the potentially realisable multisets.
    pub fn basis(&self, options: &HilbertOptions) -> HilbertBasis {
        hilbert_basis_inequalities(&self.matrix, options)
    }

    /// The Pottier bound `ξ/2 = (2|T|+1)^{|Q|}` on the 1-norm of basis
    /// elements, saturated to `u64`.
    pub fn pottier_bound_u64(&self) -> u64 {
        saturating_pow_u64(2 * self.num_transitions as u64 + 1, self.num_states as u32)
    }

    /// The minimal realisation of a potentially realisable multiset (cf.
    /// Corollary 5.7): the smallest input `i` and the configuration `C` with
    /// `IC(i) =π⇒ C`, assuming a leaderless unary protocol.
    ///
    /// Returns `None` if `π` is not potentially realisable.
    pub fn minimal_realisation(
        &self,
        protocol: &Protocol,
        pi: &ParikhImage,
    ) -> Option<(u64, Config)> {
        if !self.is_potentially_realisable(pi) {
            return None;
        }
        let displacement = pi.displacement(protocol);
        // The input state loses agents; all others gain (by realisability).
        let input_state = protocol.input_state(0);
        let deficit = -displacement.get(input_state.index());
        let i = u64::try_from(deficit.max(0)).expect("deficit is non-negative here");
        let mut c = Config::empty(protocol.num_states());
        for q in protocol.state_ids() {
            let base = if q == input_state { i as i64 } else { 0 };
            let value = base + displacement.get(q.index());
            c.set(q, u64::try_from(value).ok()?);
        }
        Some((i, c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use popproto_model::{Output, ProtocolBuilder};

    /// The P'_2 protocol: states {0, 1, 2, 4}, threshold x ≥ 4.
    fn binary_counter() -> Protocol {
        let mut b = ProtocolBuilder::new("x >= 4");
        let zero = b.add_state("0", Output::False);
        let one = b.add_state("1", Output::False);
        let two = b.add_state("2", Output::False);
        let four = b.add_state("4", Output::True);
        b.add_transition((one, one), (zero, two)).unwrap();
        b.add_transition((two, two), (zero, four)).unwrap();
        for &a in &[zero, one, two, four] {
            b.add_transition_idempotent((a, four), (four, four))
                .unwrap();
        }
        b.set_input_state("x", one);
        b.build().unwrap()
    }

    #[test]
    fn constants_match_formulas() {
        let p = binary_counter();
        let t = p.num_transitions() as u64;
        let q = p.num_states() as u64;
        let xi = pottier_constant(&p);
        assert_eq!(xi, BigNat::from(2 * t + 1).pow(q) * BigNat::from(2u64));
        let xi_det = pottier_constant_deterministic(&p);
        assert_eq!(xi_det, BigNat::from(q + 2).pow(q) * BigNat::from(2u64));
        // For this protocol |T| ≥ |Q|, so the deterministic constant is smaller.
        assert!(xi_det < xi);
    }

    #[test]
    fn system_shape() {
        let p = binary_counter();
        let sys = RealisabilitySystem::new(&p);
        // One row per non-input state.
        assert_eq!(sys.matrix().len(), 3);
        assert_eq!(sys.matrix()[0].len(), p.num_transitions());
    }

    #[test]
    fn realisability_of_simple_multisets() {
        let p = binary_counter();
        let sys = RealisabilitySystem::new(&p);
        // Firing 1,1 ↦ 0,2 once: Δ(0)=+1, Δ(2)=+1, Δ(1)=-2 — realisable
        // (only the input state loses agents).
        let pi = ParikhImage::from_counts({
            let mut v = vec![0u64; p.num_transitions()];
            v[0] = 1;
            v
        });
        assert!(sys.is_potentially_realisable(&pi));
        // Firing 2,2 ↦ 0,4 once without producing the 2s first is NOT
        // potentially realisable: state 2 would go negative.
        let pi = ParikhImage::from_counts({
            let mut v = vec![0u64; p.num_transitions()];
            v[1] = 1;
            v
        });
        assert!(!sys.is_potentially_realisable(&pi));
        // Two firings of t0 followed by one of t1 are realisable.
        let pi = ParikhImage::from_counts({
            let mut v = vec![0u64; p.num_transitions()];
            v[0] = 2;
            v[1] = 1;
            v
        });
        assert!(sys.is_potentially_realisable(&pi));
    }

    #[test]
    fn basis_elements_respect_pottier_bound() {
        let p = binary_counter();
        let sys = RealisabilitySystem::new(&p);
        let basis = sys.basis(&HilbertOptions::default());
        assert!(
            basis.complete,
            "basis search should complete for this small protocol"
        );
        assert!(!basis.is_empty());
        let bound = sys.pottier_bound_u64();
        assert!(
            basis.max_norm1() <= bound,
            "max basis norm {} exceeds the Pottier bound {}",
            basis.max_norm1(),
            bound
        );
        // Every basis element is indeed potentially realisable.
        for s in &basis.solutions {
            let pi = ParikhImage::from_counts(s.clone());
            assert!(sys.is_potentially_realisable(&pi));
        }
    }

    #[test]
    fn minimal_realisation_matches_corollary_57() {
        let p = binary_counter();
        let sys = RealisabilitySystem::new(&p);
        // π = 2·t0 + 1·t1: needs 4 input agents and ends with ⟨2·q0, 1·q4⟩ + 1·q2?
        // Δ = 2·(+1,-2,+1,0) + (+1,0,-2,+1) = (+3,-4,0,+1).
        let mut counts = vec![0u64; p.num_transitions()];
        counts[0] = 2;
        counts[1] = 1;
        let pi = ParikhImage::from_counts(counts);
        let (i, c) = sys.minimal_realisation(&p, &pi).unwrap();
        assert_eq!(i, 4);
        assert_eq!(c.counts(), &[3, 0, 0, 1]);
        // The realisation is consistent with the Parikh displacement.
        assert_eq!(pi.apply(&p, &p.initial_config_unary(i)), Some(c));
    }

    #[test]
    fn minimal_realisation_rejects_unrealisable() {
        let p = binary_counter();
        let sys = RealisabilitySystem::new(&p);
        let mut counts = vec![0u64; p.num_transitions()];
        counts[1] = 1;
        let pi = ParikhImage::from_counts(counts);
        assert!(sys.minimal_realisation(&p, &pi).is_none());
    }
}
