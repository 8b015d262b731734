//! Old-vs-new equivalence: the arena/CSR reachability stack, the bitset
//! stable sets, the profile-based verification and the symmetry-pruned
//! parallel busy-beaver search must reproduce the seed semantics exactly
//! (reference implementation: `support/naive.rs`).

#[path = "support/naive.rs"]
mod naive;

use naive::{
    naive_busy_beaver_search, naive_verified_threshold, naive_verify_unary_threshold,
    NaiveReachabilityGraph, NaiveStableSets,
};
use popproto::enumeration::{
    busy_beaver_search, busy_beaver_search_with_threads, verified_threshold,
};
use popproto_model::{Output, Protocol, ProtocolBuilder};
use popproto_reach::{verify_unary_threshold, ExploreLimits, ReachabilityGraph, StableSets};
use popproto_zoo::{binary_counter, flock, modulo};

fn zoo() -> Vec<Protocol> {
    vec![flock(3), binary_counter(2), modulo(3, 1)]
}

/// The arena-based graph must agree with the seed graph *identifier by
/// identifier*: the BFS discovery order, edge sets and truncation behaviour
/// are part of the contract.
#[test]
fn reachability_graphs_match_the_seed_exactly() {
    let limits = ExploreLimits::default();
    for protocol in zoo() {
        for input in [2u64, 4, 6, 9] {
            let ic = protocol.initial_config_unary(input);
            let old =
                NaiveReachabilityGraph::explore(&protocol, std::slice::from_ref(&ic), &limits);
            let new = ReachabilityGraph::explore(&protocol, &[ic], &limits);
            assert_eq!(old.len(), new.len(), "{} @ {input}", protocol.name());
            assert_eq!(old.is_complete(), new.is_complete());
            assert_eq!(
                old.initial_ids()
                    .iter()
                    .map(|&i| i as u32)
                    .collect::<Vec<_>>(),
                new.initial_ids()
            );
            for id in 0..old.len() {
                assert_eq!(
                    *old.config(id),
                    new.config(id as u32),
                    "{} @ {input}: config {id} differs",
                    protocol.name()
                );
                assert_eq!(
                    old.successors_of(id)
                        .iter()
                        .map(|&s| s as u32)
                        .collect::<Vec<_>>(),
                    new.successors_of(id as u32),
                    "{} @ {input}: successors of {id} differ",
                    protocol.name()
                );
                assert_eq!(
                    old.predecessors_of(id)
                        .iter()
                        .map(|&s| s as u32)
                        .collect::<Vec<_>>(),
                    new.predecessors_of(id as u32),
                    "{} @ {input}: predecessors of {id} differ",
                    protocol.name()
                );
            }
            assert_eq!(
                old.terminal_ids()
                    .iter()
                    .map(|&t| t as u32)
                    .collect::<Vec<_>>(),
                new.terminal_ids()
            );
        }
    }
}

#[test]
fn truncated_explorations_match_the_seed() {
    let p = binary_counter(2);
    for cap in [1usize, 3, 10, 50] {
        let limits = ExploreLimits::with_max_configs(cap);
        let ic = p.initial_config_unary(12);
        let old = NaiveReachabilityGraph::explore(&p, std::slice::from_ref(&ic), &limits);
        let new = ReachabilityGraph::explore(&p, &[ic], &limits);
        assert_eq!(old.len(), new.len(), "cap {cap}");
        assert_eq!(old.is_complete(), new.is_complete(), "cap {cap}");
        for id in 0..old.len() {
            assert_eq!(*old.config(id), new.config(id as u32), "cap {cap} id {id}");
        }
    }
}

/// `binary_counter(3)` at input 80 has 411,140 reachable configurations:
/// the seed's default cap truncates the slice, the current default
/// explores it to completion.
#[test]
fn seed_default_cap_truncates_a_slice_the_current_default_completes() {
    let p = binary_counter(3);
    let ic = p.initial_config_unary(80);
    let seed_limits = ExploreLimits::with_max_configs(ExploreLimits::SEED_DEFAULT_MAX_CONFIGS);
    let truncated = ReachabilityGraph::explore(&p, std::slice::from_ref(&ic), &seed_limits);
    assert!(!truncated.is_complete());
    let full = ReachabilityGraph::explore(&p, &[ic], &ExploreLimits::default());
    assert!(full.is_complete());
    assert_eq!(full.len(), 411_140);
}

#[test]
fn stable_sets_match_the_seed() {
    let limits = ExploreLimits::default();
    for protocol in zoo() {
        for input in [3u64, 5, 8] {
            let ic = protocol.initial_config_unary(input);
            let old_graph =
                NaiveReachabilityGraph::explore(&protocol, std::slice::from_ref(&ic), &limits);
            let new_graph = ReachabilityGraph::explore(&protocol, &[ic], &limits);
            let old = NaiveStableSets::compute(&protocol, &old_graph);
            let new = StableSets::compute(&protocol, &new_graph);
            for id in 0..old_graph.len() {
                assert_eq!(
                    old.stable0[id],
                    new.is_stable(id as u32, Output::False),
                    "{} @ {input}: SC_0 differs at {id}",
                    protocol.name()
                );
                assert_eq!(
                    old.stable1[id],
                    new.is_stable(id as u32, Output::True),
                    "{} @ {input}: SC_1 differs at {id}",
                    protocol.name()
                );
            }
        }
    }
}

#[test]
fn verification_verdicts_match_the_seed() {
    let limits = ExploreLimits::default();
    let mut broken = ProtocolBuilder::new("broken");
    let one = broken.add_state("1", Output::False);
    let _two = broken.add_state("2", Output::True);
    broken.set_input_state("x", one);
    let broken = broken.build().unwrap();

    let instances: Vec<(Protocol, u64, u64)> = vec![
        (flock(3), 3, 8),
        (binary_counter(2), 4, 9),
        (modulo(3, 1), 2, 6),
        (broken, 2, 5),
    ];
    for (protocol, eta, max_input) in instances {
        let old = naive_verify_unary_threshold(&protocol, eta, max_input, &limits);
        let new = verify_unary_threshold(&protocol, eta, max_input, &limits);
        assert_eq!(old.len(), new.verdicts.len());
        for (o, n) in old.iter().zip(&new.verdicts) {
            assert_eq!(o.input, n.input.total(), "{}", protocol.name());
            assert_eq!(o.expected, n.expected, "{} @ {}", protocol.name(), o.input);
            assert_eq!(o.correct, n.correct, "{} @ {}", protocol.name(), o.input);
            assert_eq!(
                o.exhaustive,
                n.exhaustive,
                "{} @ {}",
                protocol.name(),
                o.input
            );
            assert_eq!(
                o.reachable_configs,
                n.reachable_configs,
                "{} @ {}",
                protocol.name(),
                o.input
            );
            assert_eq!(
                o.stable_configs,
                n.stable_configs,
                "{} @ {}",
                protocol.name(),
                o.input
            );
        }
    }
}

/// The profile-based `verified_threshold` must agree with the seed's
/// per-η re-exploration loop on a deterministic sample of random candidates.
#[test]
fn verified_threshold_matches_the_seed_on_random_protocols() {
    let limits = ExploreLimits::default();
    // Hand-rolled LCG so the sample is reproducible without a rand dep.
    let mut state = 0x853c_49e6_748f_ea9bu64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    let n = 3usize;
    let pairs: Vec<(usize, usize)> = (0..n).flat_map(|a| (a..n).map(move |b| (a, b))).collect();
    for _ in 0..150 {
        let mut b = ProtocolBuilder::new("random");
        let states: Vec<_> = (0..n)
            .map(|i| b.add_state(format!("s{i}"), Output::from_bool(next() % 2 == 1)))
            .collect();
        for &(x, y) in &pairs {
            let (c, d) = pairs[next() % pairs.len()];
            if (x, y) != (c, d) {
                b.add_transition_idempotent((states[x], states[y]), (states[c], states[d]))
                    .unwrap();
            }
        }
        b.set_input_state("x", states[next() % n]);
        let p = b.build().unwrap();
        assert_eq!(
            naive_verified_threshold(&p, 5, &limits),
            verified_threshold(&p, 5, &limits),
            "disagreement on candidate:\n{p}"
        );
    }
}

/// Full-space equivalence for n ≤ 2: the seed search (which also enumerates
/// every input-state choice) and the refactored search (input fixed at state
/// 0, symmetry-pruned, profiled verification) must report the same exact
/// `BB_det(n)`.
#[test]
fn busy_beaver_values_match_the_seed_for_small_n() {
    let limits = ExploreLimits::default();
    for n in [1usize, 2] {
        let old = naive_busy_beaver_search(n, 6, u64::MAX, &limits, false);
        let new = busy_beaver_search(n, 6, u64::MAX, &limits);
        assert_eq!(old.best_eta, new.best_eta, "BB_det({n}) differs");
        if let (Some(eta), Some(old_witness), Some(new_witness)) =
            (new.best_eta, &old.witness, &new.witness)
        {
            assert_eq!(verified_threshold(old_witness, 6, &limits), Some(eta));
            assert_eq!(verified_threshold(new_witness, 6, &limits), Some(eta));
        }
    }
}

/// Capped-prefix equivalence for n = 3: with the input state fixed on both
/// sides, the seed's candidate order equals the refactored search's global
/// index, and the canonical representative of every orbit has the smallest
/// index of the orbit — so both searches agree on any index-prefix of the
/// space, sequentially and in parallel.
#[test]
fn busy_beaver_capped_prefix_matches_for_three_states() {
    let limits = ExploreLimits::default();
    let cap = 6_000u64;
    let old = naive_busy_beaver_search(3, 5, cap, &limits, true);
    let seq = busy_beaver_search_with_threads(3, 5, cap, &limits, 1);
    let par = busy_beaver_search_with_threads(3, 5, cap, &limits, 4);
    assert_eq!(old.protocols_examined, seq.protocols_examined);
    assert_eq!(old.best_eta, seq.best_eta);
    assert_eq!(seq.best_eta, par.best_eta);
    assert_eq!(seq.witness, par.witness);
    assert_eq!(seq.threshold_protocols, par.threshold_protocols);
    assert_eq!(seq.pruned_symmetric, par.pruned_symmetric);
    if let (Some(eta), Some(witness)) = (seq.best_eta, &seq.witness) {
        assert_eq!(verified_threshold(witness, 5, &limits), Some(eta));
    }
}
