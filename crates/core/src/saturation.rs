//! The Lemma 5.3/5.4 analysis: how large an input is needed to reach a
//! 1-saturated configuration, compared against the `3^n` bound.

use popproto_model::Protocol;
use popproto_numerics::saturating_pow_u64;
use popproto_reach::{min_input_for_saturation, ExploreLimits, SaturationWitness};
use serde::{Deserialize, Serialize};

/// The outcome of the saturation analysis of a protocol.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SaturationAnalysis {
    /// Number of states `n`.
    pub num_states: usize,
    /// The Lemma 5.4 bound `3^n` on both the input and the word length.
    pub bound_3n: u64,
    /// The witness actually found (smallest input, shortest word), if any
    /// within the search caps.
    pub witness: Option<SaturationWitness>,
    /// `true` if the witness respects the Lemma 5.4 bound (trivially true
    /// when the bound exceeds the search cap and a witness was found).
    pub within_bound: bool,
}

/// Runs the saturation analysis: find the smallest input reaching a
/// 1-saturated configuration and compare it with `3^n`.
///
/// `max_input` caps the search (exploration is exhaustive per input).
pub(crate) fn analyze_saturation(
    protocol: &Protocol,
    max_input: u64,
    limits: &ExploreLimits,
) -> SaturationAnalysis {
    let n = protocol.num_states();
    let bound = saturating_pow_u64(3, n as u32);
    let witness = min_input_for_saturation(protocol, 1, max_input, limits);
    let within_bound = witness
        .as_ref()
        .map(|w| w.input <= bound && (w.path_length as u64) <= bound)
        .unwrap_or(false);
    SaturationAnalysis {
        num_states: n,
        bound_3n: bound,
        witness,
        within_bound,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use popproto_zoo::{binary_counter, flock};

    #[test]
    fn binary_counter_saturates_well_below_the_bound() {
        let p = binary_counter(2); // 4 states, bound 81
        let analysis = analyze_saturation(&p, 30, &ExploreLimits::default());
        assert_eq!(analysis.bound_3n, 81);
        let w = analysis.witness.expect("the binary counter saturates");
        assert!(w.input < 81);
        assert!(analysis.within_bound);
    }

    #[test]
    fn flock_saturation() {
        let p = flock(3); // 4 states
        let analysis = analyze_saturation(&p, 30, &ExploreLimits::default());
        let w = analysis.witness.expect("the flock protocol saturates");
        assert!(w.config.is_saturated(1));
        assert!(analysis.within_bound);
        // Reaching all of {0, 1, 2, 3} needs at least 4 agents.
        assert!(w.input >= 4);
    }

    #[test]
    fn saturation_without_witness_reports_failure() {
        let p = binary_counter(3); // needs ~15 agents, but we cap the search at 5
        let analysis = analyze_saturation(&p, 5, &ExploreLimits::default());
        assert!(analysis.witness.is_none());
        assert!(!analysis.within_bound);
    }
}
