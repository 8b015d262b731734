//! Reaching `j`-saturated configurations (Lemmas 5.3 and 5.4).
//!
//! Lemma 5.4 shows that for a leaderless protocol with `n` states there is an
//! input `3^n` and a word of length at most `3^n` reaching a 1-saturated
//! configuration (every state populated).  By monotonicity, input `j·3^n`
//! reaches a `j`-saturated configuration.  This module finds the *actual*
//! smallest such input and the shortest witnessing execution on bounded
//! slices, so experiment E4 can compare them against the `3^n` bound.

use crate::graph::{ExploreLimits, ReachabilityGraph};
use popproto_model::{Config, Protocol};
use serde::{Deserialize, Serialize};

/// A witness that some input reaches a `j`-saturated configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SaturationWitness {
    /// The unary input used.
    pub input: u64,
    /// The saturation level `j` achieved.
    pub level: u64,
    /// The saturated configuration reached.
    pub config: Config,
    /// Length of the shortest execution reaching it.
    pub path_length: usize,
}

/// Finds, for the unary input `i`, a shortest execution from `IC(i)` to a
/// `j`-saturated configuration, if one exists within the exploration limits.
pub(crate) fn find_saturated_config(
    protocol: &Protocol,
    input: u64,
    level: u64,
    limits: &ExploreLimits,
) -> Option<SaturationWitness> {
    let ic = protocol.initial_config_unary(input);
    let graph = ReachabilityGraph::explore(protocol, &[ic], limits);
    let path = graph.shortest_path_to(graph.initial_ids(), |id| {
        graph.counts_of(id).iter().all(|&c| c as u64 >= level)
    })?;
    let last = *path.last().expect("path is non-empty");
    Some(SaturationWitness {
        input,
        level,
        config: graph.config(last),
        path_length: path.len() - 1,
    })
}

/// The smallest unary input `i ≤ max_input` from which a `j`-saturated
/// configuration is reachable, with its witness.
///
/// Returns `None` if no input up to `max_input` suffices (or the exploration
/// limits were too tight to find it).
pub fn min_input_for_saturation(
    protocol: &Protocol,
    level: u64,
    max_input: u64,
    limits: &ExploreLimits,
) -> Option<SaturationWitness> {
    // A j-saturated configuration needs at least j·|Q| agents.
    let lower = level * protocol.num_states() as u64;
    let start = lower.max(1);
    (start..=max_input).find_map(|i| find_saturated_config(protocol, i, level, limits))
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
    fn saturation_needs_enough_agents() {
        let p = binary_counter();
        let limits = ExploreLimits::default();
        // With 4 agents the 1-saturated configuration ⟨1,1,1,1⟩ is unreachable
        // (covering state 4 consumes the other values), but 7 agents suffice:
        // 1+1+1+1+1+1+1 → 0,2 combinations leave enough ones around.
        assert!(find_saturated_config(&p, 4, 1, &limits).is_none());
        let witness = min_input_for_saturation(&p, 1, 16, &limits).expect("some input saturates");
        assert!(witness.config.is_saturated(1));
        assert!(
            witness.input <= 7,
            "input {} should be at most 7",
            witness.input
        );
        // The Lemma 5.4 bound is 3^n = 81 for n = 4 states; the actual input is far smaller.
        assert!(witness.input <= 81);
        // Path length is also far below the 3^n bound.
        assert!(witness.path_length <= 81);
    }

    #[test]
    fn higher_saturation_levels_need_more_agents() {
        let p = binary_counter();
        let limits = ExploreLimits::default();
        let w1 = min_input_for_saturation(&p, 1, 20, &limits).unwrap();
        let w2 = min_input_for_saturation(&p, 2, 20, &limits).unwrap();
        assert!(w2.input >= w1.input);
        assert!(w2.config.is_saturated(2));
    }

    #[test]
    fn witness_configs_match_inputs() {
        let p = binary_counter();
        let limits = ExploreLimits::default();
        let w = min_input_for_saturation(&p, 1, 16, &limits).unwrap();
        assert_eq!(w.config.size(), w.input);
        assert_eq!(w.level, 1);
    }
}
