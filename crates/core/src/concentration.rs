//! ε-concentration (Definition 5) and the Lemma 5.8 search for 0-concentrated
//! potentially realisable multisets.
//!
//! Lemma 5.8 turns an ε-concentrated stable configuration into a *potential*
//! execution that is perfectly concentrated: if some potentially realisable
//! multiset reaches a configuration that is `(1/ξ)`-concentrated in `S`, then
//! some *small* potentially realisable multiset `θ` (with `|θ| ≤ ξ/2`) reaches
//! a configuration entirely inside `N^S`.  The executable version searches the
//! Hilbert basis of the realisability system for such a `θ` directly.

use popproto_model::{Config, Protocol, StateId};
use popproto_vas::{HilbertOptions, ParikhImage, RealisabilitySystem};
use serde::{Deserialize, Serialize};

/// A 0-concentrated potential execution: `IC(input) =π⇒ target` with
/// `target ∈ N^S`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConcentratedMultiset {
    /// The multiset of transitions `θ`.
    pub parikh: ParikhImage,
    /// The smallest input realising the displacement.
    pub input: u64,
    /// The configuration reached, supported entirely inside the target set `S`.
    pub target: Config,
}

/// Result of the Lemma 5.8 search.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConcentrationReport {
    /// The target set `S` (states allowed to be populated).
    pub target_states: Vec<StateId>,
    /// The Pottier bound `ξ/2` on the size of the multiset the lemma promises.
    pub pottier_half_bound: u64,
    /// Whether the Hilbert-basis computation completed.
    pub basis_complete: bool,
    /// The 0-concentrated multiset found, if any.
    pub found: Option<ConcentratedMultiset>,
}

/// Searches the Hilbert basis of the potentially-realisable-multiset system
/// for an element whose minimal realisation is 0-concentrated in `target_states`
/// and consumes at least one input agent.
pub fn find_zero_concentrated_multiset(
    protocol: &Protocol,
    target_states: &[StateId],
    options: &HilbertOptions,
) -> ConcentrationReport {
    let system = RealisabilitySystem::new(protocol);
    let basis = system.basis(options);
    let mut found = None;
    for solution in &basis.solutions {
        let pi = ParikhImage::from_counts(solution.clone());
        if let Some((input, config)) = system.minimal_realisation(protocol, &pi) {
            if input == 0 {
                continue; // pumping needs at least one fresh input agent
            }
            if config.is_concentrated(target_states, 0.0) {
                let better = match &found {
                    None => true,
                    Some(ConcentratedMultiset { parikh, .. }) => pi.size() < parikh.size(),
                };
                if better {
                    found = Some(ConcentratedMultiset {
                        parikh: pi,
                        input,
                        target: config,
                    });
                }
            }
        }
    }
    ConcentrationReport {
        target_states: target_states.to_vec(),
        pottier_half_bound: system.pottier_bound_u64(),
        basis_complete: basis.complete,
        found,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use popproto_model::Output;
    use popproto_zoo::{binary_counter, flock};

    #[test]
    fn flock_has_a_concentrated_multiset_into_the_accepting_state() {
        let p = flock(3);
        // Target set: the accepting state {3} (the ω-set of the 1-stable basis).
        let accepting = p.states_with_output(Output::True);
        let report = find_zero_concentrated_multiset(&p, &accepting, &HilbertOptions::default());
        assert!(report.basis_complete);
        let found = report.found.expect("a concentrated multiset exists");
        assert!(found.input >= 1);
        assert!(found.target.iter().all(|(q, _)| accepting.contains(&q)));
        // Lemma 5.8 / Corollary 5.7: the multiset respects the Pottier bound.
        assert!(found.parikh.size() <= report.pottier_half_bound);
        // And the realisation is consistent with the Parikh displacement.
        let ic = p.initial_config_unary(found.input);
        assert_eq!(found.parikh.apply(&p, &ic), Some(found.target.clone()));
    }

    #[test]
    fn binary_counter_concentrates_into_the_top_state() {
        let p = binary_counter(2);
        let accepting = p.states_with_output(Output::True);
        let report = find_zero_concentrated_multiset(&p, &accepting, &HilbertOptions::default());
        assert!(report.basis_complete);
        let found = report.found.expect("a concentrated multiset exists");
        // Note: *potential* realisability ignores enabledness along the way,
        // so a single conversion transition (2^0, 2^2 ↦ 2^2, 2^2) already
        // yields a 0-concentrated displacement from one input agent.
        assert!(found.input >= 1);
        assert!(found.parikh.size() <= report.pottier_half_bound);
        assert!(found.target.iter().all(|(q, _)| accepting.contains(&q)));
    }

    #[test]
    fn empty_target_set_yields_nothing() {
        let p = flock(3);
        let report = find_zero_concentrated_multiset(&p, &[], &HilbertOptions::default());
        assert!(report.found.is_none());
    }

    #[test]
    fn rejecting_state_zero_is_a_trivial_target() {
        // The flock state 0 can absorb arbitrarily many agents... but a
        // potential execution moving everything into {0} does not exist,
        // because agent values are conserved until the threshold fires.
        let p = flock(3);
        let zero = p.state_by_name("0").unwrap();
        let report = find_zero_concentrated_multiset(&p, &[zero], &HilbertOptions::default());
        assert!(report.found.is_none());
    }
}
