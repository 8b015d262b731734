//! Stable configurations and the sets `SC_0`, `SC_1`, `SC` (Definition 2).
//!
//! A configuration `C` is *b-stable* if every configuration reachable from
//! `C` has output `b` (all agents populate states of output `b`).  On a fixed
//! population slice this is computable exactly: `C` is b-stable iff no
//! configuration containing an agent of output `≠ b` is reachable from `C`.
//!
//! The computation is a backward bitset fixpoint over the arena identifiers
//! of an explored [`ReachabilityGraph`]: one scan over the raw count slices
//! classifies every configuration by the outputs it populates, and one
//! backward closure per output class yields `SC_b` as the complement of
//! "can reach a bad configuration" — no per-node [`Config`] is materialised.

use crate::arena::ConfigArena;
use crate::bitset::BitSet;
use crate::graph::{ExploreLimits, ReachabilityGraph};
use popproto_model::{Config, Output, Protocol};
use serde::{Deserialize, Serialize};

/// Writes one populated-state bitmask per interned configuration into
/// `masks`: `num_states.div_ceil(64)` words each, in id order, with bit `q`
/// set iff state `q` holds an agent.
pub(crate) fn populated_masks(arena: &ConfigArena, masks: &mut Vec<u64>) {
    let words = arena.num_states().div_ceil(64);
    masks.clear();
    masks.resize(arena.len() * words, 0);
    for (row, (_, counts)) in masks.chunks_exact_mut(words).zip(arena.iter()) {
        for (q, &count) in counts.iter().enumerate() {
            if count > 0 {
                row[q / 64] |= 1 << (q % 64);
            }
        }
    }
}

/// Writes the state masks of the two outputs, in the word layout of
/// [`populated_masks`]: `accepting` holds the states of output 1,
/// `rejecting` those of output 0.
pub(crate) fn output_masks(accepts: &[bool], accepting: &mut Vec<u64>, rejecting: &mut Vec<u64>) {
    let words = accepts.len().div_ceil(64);
    accepting.clear();
    accepting.resize(words, 0);
    rejecting.clear();
    rejecting.resize(words, 0);
    for (q, &accept) in accepts.iter().enumerate() {
        let mask = if accept {
            &mut *accepting
        } else {
            &mut *rejecting
        };
        mask[q / 64] |= 1 << (q % 64);
    }
}

/// Sets `bad` to the configurations, given by their [`populated_masks`],
/// that populate a state of `states`.  With `states` the states of output
/// `≠ b` these are the configurations that are not b-stable themselves, so
/// `SC_b` is the complement of their backward closure.
///
/// The one classification every engine runs: the CSR and the
/// frontier-compressed stable sets, and the slice profiler, must classify
/// identically for their verdicts to stay bit-identical.
pub(crate) fn classify(masks: &[u64], states: &[u64], bad: &mut BitSet) {
    let words = states.len();
    bad.reset(masks.len() / words);
    for (id, row) in masks.chunks_exact(words).enumerate() {
        if row.iter().zip(states).any(|(m, s)| m & s != 0) {
            bad.insert(id as u32);
        }
    }
}

/// Classifies every interned configuration by the outputs it populates:
/// returns `(bad_for_0, bad_for_1)` where `bad_for_b` holds the
/// configurations populating some state of output `≠ b`.
pub(crate) fn classify_bad_sets(protocol: &Protocol, arena: &ConfigArena) -> (BitSet, BitSet) {
    let accepts: Vec<bool> = protocol
        .state_ids()
        .map(|q| protocol.output_of(q) == Output::True)
        .collect();
    let (mut accepting, mut rejecting) = (Vec::new(), Vec::new());
    output_masks(&accepts, &mut accepting, &mut rejecting);
    let mut masks = Vec::new();
    populated_masks(arena, &mut masks);
    let mut bad_for_0 = BitSet::new(0);
    let mut bad_for_1 = BitSet::new(0);
    classify(&masks, &accepting, &mut bad_for_0);
    classify(&masks, &rejecting, &mut bad_for_1);
    (bad_for_0, bad_for_1)
}

/// The b-stable configurations of a reachability graph, for both outputs,
/// stored as bitsets over the graph's identifiers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StableSets {
    stable0: BitSet,
    stable1: BitSet,
}

impl StableSets {
    /// Computes the stable sets of all configurations in the graph.
    pub fn compute(protocol: &Protocol, graph: &ReachabilityGraph) -> Self {
        // One pass over the raw slices classifies every configuration
        // ([`classify_bad_sets`]); a configuration is then b-stable iff it
        // cannot reach a bad one.
        let (bad_for_0, bad_for_1) = classify_bad_sets(protocol, graph.arena());
        StableSets {
            stable0: graph.backward_closure_of(&bad_for_0).complement(),
            stable1: graph.backward_closure_of(&bad_for_1).complement(),
        }
    }

    /// Assembles stable sets from precomputed bitsets.
    ///
    /// Used by alternative exploration engines (e.g. the frontier-compressed
    /// explorer, which computes the backward fixpoints by transition-delta
    /// regeneration instead of over a stored CSR).  The caller is responsible
    /// for the bitsets actually being the b-stable sets of its graph.
    pub(crate) fn from_parts(stable0: BitSet, stable1: BitSet) -> Self {
        StableSets { stable0, stable1 }
    }

    /// Returns whether configuration `id` is b-stable.
    pub fn is_stable(&self, id: u32, b: Output) -> bool {
        self.bitset(b).contains(id)
    }

    /// The b-stable configurations as a bitset over graph identifiers.
    pub fn bitset(&self, b: Output) -> &BitSet {
        match b {
            Output::False => &self.stable0,
            Output::True => &self.stable1,
        }
    }

    /// Identifiers of the b-stable configurations.
    pub fn stable_ids(&self, b: Output) -> Vec<u32> {
        self.bitset(b).iter().collect()
    }

    /// Number of b-stable configurations.
    pub fn count(&self, b: Output) -> usize {
        self.bitset(b).count()
    }
}

/// Standalone b-stability check of a single configuration: explores forward
/// from `c` and reports whether every reachable configuration has output `b`.
///
/// Returns `None` if the exploration hits its limits before deciding.
pub fn is_stable_config(
    protocol: &Protocol,
    c: &Config,
    b: Output,
    limits: &ExploreLimits,
) -> Option<bool> {
    let graph = ReachabilityGraph::explore(protocol, std::slice::from_ref(c), limits);
    let outputs: Vec<Output> = protocol
        .state_ids()
        .map(|q| protocol.output_of(q))
        .collect();
    let offending = graph.ids().any(|id| {
        graph
            .counts_of(id)
            .iter()
            .enumerate()
            .any(|(q, &count)| count > 0 && outputs[q] != b)
    });
    if offending {
        Some(false)
    } else if graph.is_complete() {
        Some(true)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use popproto_model::{Output, ProtocolBuilder};

    fn threshold2_protocol() -> Protocol {
        let mut b = ProtocolBuilder::new("x >= 2");
        let zero = b.add_state("0", Output::False);
        let one = b.add_state("1", Output::False);
        let two = b.add_state("2", Output::True);
        b.add_transition((one, one), (zero, two)).unwrap();
        b.add_transition((zero, two), (two, two)).unwrap();
        b.add_transition((one, two), (two, two)).unwrap();
        b.set_input_state("x", one);
        b.build().unwrap()
    }

    #[test]
    fn stable_sets_of_threshold_protocol() {
        let p = threshold2_protocol();
        let g =
            ReachabilityGraph::explore(&p, &[p.initial_config_unary(3)], &ExploreLimits::default());
        let stable = StableSets::compute(&p, &g);
        // From ⟨3·q1⟩ every configuration can still reach ⟨3·q2⟩ (output 1),
        // so no reachable configuration is 0-stable...
        assert_eq!(stable.count(Output::False), 0);
        // ...and the only 1-stable configuration is ⟨3·q2⟩ itself.
        let ones = stable.stable_ids(Output::True);
        assert_eq!(ones.len(), 1);
        assert_eq!(g.config(ones[0]).counts(), &[0, 0, 3]);
        assert!(stable.is_stable(ones[0], Output::True));
        assert!(!stable.is_stable(ones[0], Output::False));
    }

    #[test]
    fn input_one_is_zero_stable() {
        let p = threshold2_protocol();
        // A single agent in state 1 can never change state: it is 0-stable.
        let g =
            ReachabilityGraph::explore(&p, &[p.initial_config_unary(1)], &ExploreLimits::default());
        let stable = StableSets::compute(&p, &g);
        assert_eq!(stable.count(Output::False), 1);
        assert_eq!(stable.count(Output::True), 0);
    }

    #[test]
    fn standalone_stability_check() {
        let p = threshold2_protocol();
        let all_two = Config::from_counts(vec![0, 0, 4]);
        assert_eq!(
            is_stable_config(&p, &all_two, Output::True, &ExploreLimits::default()),
            Some(true)
        );
        assert_eq!(
            is_stable_config(&p, &all_two, Output::False, &ExploreLimits::default()),
            Some(false)
        );
        // A mixed configuration is not 0-stable (it already contains a 1-output agent)
        // and not 1-stable either... actually ⟨1·q0, 1·q2⟩ can only move to ⟨2·q2⟩,
        // so it IS 1-stable? No: it contains q0 with output 0, but 1-stability asks
        // that every *reachable* configuration has output 1 — including itself.
        let mixed = Config::from_counts(vec![1, 0, 1]);
        assert_eq!(
            is_stable_config(&p, &mixed, Output::True, &ExploreLimits::default()),
            Some(false)
        );
    }

    #[test]
    fn truncated_exploration_is_inconclusive() {
        // A two-hop chain a → b → c where only c has output 1: with the
        // exploration capped at one expansion, no 1-output state is seen yet,
        // so 0-stability of the big slice cannot be decided either way.
        let mut b = ProtocolBuilder::new("chain");
        let qa = b.add_state("a", Output::False);
        let qb = b.add_state("b", Output::False);
        let qc = b.add_state("c", Output::True);
        b.add_transition((qa, qa), (qb, qb)).unwrap();
        b.add_transition((qb, qb), (qc, qc)).unwrap();
        b.set_input_state("x", qa);
        let p = b.build().unwrap();
        let big = p.initial_config_unary(40);
        assert_eq!(
            is_stable_config(&p, &big, Output::False, &ExploreLimits::with_max_configs(1)),
            None
        );
        // With room to explore, the verdict flips to a definite "not stable".
        assert_eq!(
            is_stable_config(&p, &big, Output::False, &ExploreLimits::default()),
            Some(false)
        );
    }

    #[test]
    fn downward_closedness_of_stable_sets_lemma_31() {
        // Lemma 3.1: SC_b is downward closed.  Check it empirically on the
        // slice of size ≤ 4: for every 1-stable C and every C' ≤ C, C' is 1-stable.
        let p = threshold2_protocol();
        let limits = ExploreLimits::default();
        let mut stable_configs: Vec<Config> = Vec::new();
        // Enumerate all configurations with at most 4 agents and record the stable ones.
        for a in 0..=4u64 {
            for b in 0..=(4 - a) {
                for c in 0..=(4 - a - b) {
                    let cfg = Config::from_counts(vec![a, b, c]);
                    if cfg.size() < 2 {
                        continue; // configurations have at least 2 agents
                    }
                    if is_stable_config(&p, &cfg, Output::True, &limits) == Some(true) {
                        stable_configs.push(cfg);
                    }
                }
            }
        }
        assert!(!stable_configs.is_empty());
        for c in &stable_configs {
            for a in 0..=c.counts()[0] {
                for b in 0..=c.counts()[1] {
                    for d in 0..=c.counts()[2] {
                        let smaller = Config::from_counts(vec![a, b, d]);
                        if smaller.size() < 2 {
                            continue;
                        }
                        assert_eq!(
                            is_stable_config(&p, &smaller, Output::True, &limits),
                            Some(true),
                            "downward closure violated at {smaller} ≤ {c}"
                        );
                    }
                }
            }
        }
    }
}
