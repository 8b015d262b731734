//! Coverability of individual states.
//!
//! The proofs of Lemma 3.2 and Lemma 5.3 reason about whether some reachable
//! configuration *covers* a state `q` (populates it with at least one agent).
//! On a bounded slice this is an exhaustive forward search; the covered-state
//! set is accumulated in one pass over the arena's raw count slices.

use crate::graph::{ExploreLimits, ReachabilityGraph};
use popproto_model::{Config, Protocol, StateId};

/// The set of states covered by some configuration reachable from `from`.
pub fn coverable_states(
    protocol: &Protocol,
    from: &Config,
    limits: &ExploreLimits,
) -> Vec<StateId> {
    let graph = ReachabilityGraph::explore(protocol, std::slice::from_ref(from), limits);
    let mut covered = vec![false; protocol.num_states()];
    for id in graph.ids() {
        for (q, &count) in graph.counts_of(id).iter().enumerate() {
            if count > 0 {
                covered[q] = true;
            }
        }
    }
    covered
        .iter()
        .enumerate()
        .filter(|(_, &c)| c)
        .map(|(q, _)| StateId::new(q))
        .collect()
}

/// Returns `true` if some configuration reachable from `from` covers `q`.
///
/// Identifiers outside the protocol's state range are trivially uncoverable.
pub(crate) fn can_cover(
    protocol: &Protocol,
    from: &Config,
    q: StateId,
    limits: &ExploreLimits,
) -> bool {
    if q.index() >= protocol.num_states() {
        return false;
    }
    let graph = ReachabilityGraph::explore(protocol, std::slice::from_ref(from), limits);
    let covered = graph.ids().any(|id| graph.counts_of(id)[q.index()] > 0);
    covered
}

/// The smallest unary input `i ≤ max_input` such that `IC(i)` can cover
/// state `q`, if any (the quantity `i_q` of Section 5.3).
pub fn min_input_covering_state(
    protocol: &Protocol,
    q: StateId,
    max_input: u64,
    limits: &ExploreLimits,
) -> Option<u64> {
    (1..=max_input).find(|&i| can_cover(protocol, &protocol.initial_config_unary(i), q, limits))
}

#[cfg(test)]
mod tests {
    use super::*;
    use popproto_model::{Output, ProtocolBuilder};

    /// P'_2 : states {0, 1, 2, 4}, x ≥ 4 by doubling.
    fn binary_counter() -> Protocol {
        let mut b = ProtocolBuilder::new("x >= 4");
        let zero = b.add_state("0", Output::False);
        let one = b.add_state("1", Output::False);
        let two = b.add_state("2", Output::False);
        let four = b.add_state("4", Output::True);
        b.add_transition((one, one), (zero, two)).unwrap();
        b.add_transition((two, two), (zero, four)).unwrap();
        for &a in &[zero, one, two] {
            b.add_transition_idempotent((a, four), (four, four))
                .unwrap();
        }
        b.set_input_state("x", one);
        b.build().unwrap()
    }

    #[test]
    fn coverable_states_grow_with_input() {
        let p = binary_counter();
        let limits = ExploreLimits::default();
        let from_1 = coverable_states(&p, &p.initial_config_unary(1), &limits);
        assert_eq!(from_1, vec![StateId::new(1)]);
        let from_2 = coverable_states(&p, &p.initial_config_unary(2), &limits);
        assert_eq!(from_2.len(), 3); // 0, 1, 2
        let from_4 = coverable_states(&p, &p.initial_config_unary(4), &limits);
        assert_eq!(from_4.len(), 4); // all states
    }

    #[test]
    fn minimal_covering_inputs() {
        let p = binary_counter();
        let limits = ExploreLimits::default();
        // State "1" is covered by the input itself.
        assert_eq!(
            min_input_covering_state(&p, StateId::new(1), 10, &limits),
            Some(1)
        );
        // State "2" needs two agents.
        assert_eq!(
            min_input_covering_state(&p, StateId::new(2), 10, &limits),
            Some(2)
        );
        // State "4" needs four agents.
        assert_eq!(
            min_input_covering_state(&p, StateId::new(4), 10, &limits),
            None
        );
        assert_eq!(
            min_input_covering_state(&p, p.state_by_name("4").unwrap(), 10, &limits),
            Some(4)
        );
    }

    #[test]
    fn can_cover_is_monotone_in_input() {
        let p = binary_counter();
        let limits = ExploreLimits::default();
        let q4 = p.state_by_name("4").unwrap();
        assert!(!can_cover(&p, &p.initial_config_unary(3), q4, &limits));
        assert!(can_cover(&p, &p.initial_config_unary(4), q4, &limits));
        assert!(can_cover(&p, &p.initial_config_unary(7), q4, &limits));
    }
}
