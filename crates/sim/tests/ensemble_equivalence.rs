//! Lane bit-equivalence: the lockstep ensemble engine vs solo batched runs.
//!
//! The contract under test: lane `i` of a K-lane [`EnsembleSimulator`] is
//! **bit-identical** to an independent [`BatchedSimulator`] constructed with
//! the same seed — for every ensemble width K, on arbitrary (randomly
//! generated) protocols, across lane retirement and matrix compaction, and
//! all the way up to the convergence-driver level (outcome-for-outcome).

use popproto_model::{Input, Output, Protocol, ProtocolBuilder, StateId};
use popproto_sim::{
    run_ensemble_until_convergence, run_until_convergence, BatchedSimulator, ConvergenceCriterion,
    EnsembleSimulator, SimulationEngine,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds a random protocol: 3–6 states with random outputs, a random
/// transition set, and a guaranteed nondeterministic pair (two transitions
/// for the same pre-pair) so the candidate-split binomials are exercised.
fn random_protocol(rng: &mut StdRng, tag: u64) -> Protocol {
    let q = rng.gen_range(3..=6usize);
    let mut b = ProtocolBuilder::new(format!("random_{tag}"));
    let states: Vec<StateId> = (0..q)
        .map(|i| {
            let out = if rng.gen_bool(0.5) {
                Output::True
            } else {
                Output::False
            };
            b.add_state(format!("s{i}"), out)
        })
        .collect();
    b.set_input_state("x", states[0]);
    b.set_input_state("y", states[1]);
    // A nondeterministic pair: (s0, s1) has at least two candidates.
    let _ = b.add_transition_idempotent((states[0], states[1]), (states[2], states[0]));
    let _ = b.add_transition_idempotent((states[0], states[1]), (states[1], states[2]));
    let extra = rng.gen_range(3..=q * q);
    for _ in 0..extra {
        let pre = (states[rng.gen_range(0..q)], states[rng.gen_range(0..q)]);
        let post = (states[rng.gen_range(0..q)], states[rng.gen_range(0..q)]);
        let _ = b.add_transition_idempotent(pre, post);
    }
    b.build().expect("random protocol is well-formed")
}

/// Asserts lane `lane` of `ens` matches `solo` exactly.
fn assert_lane_matches(ens: &EnsembleSimulator, lane: usize, solo: &BatchedSimulator, ctx: &str) {
    assert_eq!(
        ens.lane_counts(lane),
        solo.counts(),
        "counts diverge: {ctx}"
    );
    assert_eq!(
        ens.lane_interactions(lane),
        solo.interactions(),
        "interactions diverge: {ctx}"
    );
    assert_eq!(
        ens.lane_effective_interactions(lane),
        solo.effective_interactions(),
        "effective interactions diverge: {ctx}"
    );
    assert_eq!(
        ens.lane_is_silent(lane),
        solo.is_silent(),
        "silence diverges: {ctx}"
    );
}

#[test]
fn lanes_are_bit_identical_to_solo_runs_on_random_protocols() {
    // Three populations, one per sampler regime: n = 2 000 (exact birthday
    // table, every `ln k!` in the dense table), n = 300 000 (past the
    // 2^17 exact-birthday bound: Rayleigh batch lengths) and n = 3 000 000
    // (past the ~2.1e6 log-factorial table).  At n = 3 000 000 the input is
    // split 5:1 so the first initiator/responder split draw already needs
    // `ln 2 500 000!` and takes the Stirling kernel.
    let mut rng = StdRng::seed_from_u64(0xE15E_AB1E);
    for proto_tag in 0..5u64 {
        let p = random_protocol(&mut rng, proto_tag);
        for counts in [
            vec![1_200, 800],
            vec![180_000, 120_000],
            vec![2_500_000, 500_000],
        ] {
            let n: u64 = counts.iter().sum();
            let ic = p.initial_config(&Input::from_counts(counts));
            for k in [1usize, 3, 64] {
                let seeds: Vec<u64> = (0..k as u64).map(|i| 1_000 * proto_tag + i).collect();
                let mut ens = EnsembleSimulator::new(p.clone(), ic.clone(), &seeds);
                let mut solos: Vec<BatchedSimulator> = seeds
                    .iter()
                    .map(|&s| BatchedSimulator::new(p.clone(), ic.clone(), s))
                    .collect();
                for round in 0..4 {
                    ens.advance_uniform(15_000);
                    for (lane, solo) in solos.iter_mut().enumerate() {
                        solo.advance(15_000);
                        assert_lane_matches(
                            &ens,
                            lane,
                            solo,
                            &format!(
                                "protocol {proto_tag}, n={n}, K={k}, lane {lane}, round {round}"
                            ),
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn small_populations_use_the_sequential_path_identically() {
    // Below MIN_BATCHED_POPULATION every wave is one exact sequential
    // interaction per lane; the equivalence must hold there too.
    let mut rng = StdRng::seed_from_u64(77);
    let p = random_protocol(&mut rng, 99);
    let ic = p.initial_config(&Input::from_counts(vec![60, 40]));
    let seeds = [5u64, 6, 7];
    let mut ens = EnsembleSimulator::new(p.clone(), ic.clone(), &seeds);
    let mut solos: Vec<BatchedSimulator> = seeds
        .iter()
        .map(|&s| BatchedSimulator::new(p.clone(), ic.clone(), s))
        .collect();
    for _ in 0..10 {
        ens.advance_uniform(500);
        for (lane, solo) in solos.iter_mut().enumerate() {
            solo.advance(500);
            assert_lane_matches(&ens, lane, solo, &format!("sequential path, lane {lane}"));
        }
    }
}

#[test]
fn equivalence_survives_retirement_and_compaction() {
    let mut rng = StdRng::seed_from_u64(4242);
    let p = random_protocol(&mut rng, 7);
    let ic = p.initial_config(&Input::from_counts(vec![1_500, 500]));
    let seeds: Vec<u64> = (100..108).collect();
    let mut ens = EnsembleSimulator::new(p.clone(), ic.clone(), &seeds);
    // Retire lanes at staggered points; the survivors' trajectories must
    // not feel the compaction.  Track which original ids stay live.
    let schedule: &[&[usize]] = &[&[], &[5], &[2, 0], &[], &[3]];
    let mut budget_rounds = 0u64;
    for wave in schedule {
        ens.advance_uniform(10_000);
        budget_rounds += 1;
        for &lane in *wave {
            ens.retire_lane(lane);
        }
    }
    ens.advance_uniform(10_000);
    budget_rounds += 1;
    for lane in 0..ens.lanes() {
        let seed = ens.lane_seed(lane);
        let mut solo = BatchedSimulator::new(p.clone(), ic.clone(), seed);
        for _ in 0..budget_rounds {
            solo.advance(10_000);
        }
        assert_lane_matches(
            &ens,
            lane,
            &solo,
            &format!("post-compaction, original lane {}", ens.lane_id(lane)),
        );
    }
}

#[test]
fn convergence_outcomes_match_the_scalar_driver_on_random_protocols() {
    // Driver-level equivalence under both criteria, budget-capped so even
    // never-stabilising random protocols terminate.
    let mut rng = StdRng::seed_from_u64(31337);
    for (tag, criterion) in [
        (0u64, ConvergenceCriterion::Silent),
        (
            1,
            ConvergenceCriterion::ConsensusPersistence { window: 1_000 },
        ),
    ] {
        let p = random_protocol(&mut rng, 200 + tag);
        let ic = p.initial_config(&Input::from_counts(vec![900, 600]));
        let seeds: Vec<u64> = (0..6).map(|i| 10 * tag + i).collect();
        let mut ens = EnsembleSimulator::new(p.clone(), ic.clone(), &seeds);
        let outcomes = run_ensemble_until_convergence(&mut ens, criterion, 300_000);
        for (i, &seed) in seeds.iter().enumerate() {
            let mut solo = BatchedSimulator::new(p.clone(), ic.clone(), seed);
            let scalar = run_until_convergence(&mut solo, criterion, 300_000);
            let ctx = format!("criterion {tag}, seed {seed}");
            assert_eq!(outcomes[i].converged, scalar.converged, "{ctx}");
            assert_eq!(outcomes[i].output, scalar.output, "{ctx}");
            assert_eq!(outcomes[i].interactions, scalar.interactions, "{ctx}");
            assert_eq!(
                outcomes[i].interactions_to_convergence, scalar.interactions_to_convergence,
                "{ctx}"
            );
        }
    }
}
