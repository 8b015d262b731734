//! Absolute stream pins for the batched engines.
//!
//! `ensemble_equivalence` and `sharded_equivalence` compare the ensemble
//! with solo batched runs, so a change that moved every stream the same way
//! would pass both.  This suite pins the streams themselves: exact
//! `(interactions, effective_interactions, counts)` of [`BatchedSimulator`]
//! trajectories at fixed seeds, and the per-lane outcomes of two ensemble
//! convergence drives, one per criterion.  The inputs cover every sampler regime
//! a batch can hit: exact sequential steps (n < 256), the tabulated birthday
//! sampler (n ≤ 2¹⁷), the Rayleigh birthday limit beyond it, and split
//! chains whose totals run past the two-level log-factorial table into the
//! Stirling `ln k!` kernel (n = 3·10⁶).
//!
//! A failure here means the RNG stream changed.  If that is intended,
//! version the stream in the crate docs and re-record these values.

use popproto_model::{Config, Input, Protocol};
use popproto_sim::{
    run_ensemble_until_convergence, BatchedSimulator, ConvergenceCriterion, EnsembleSimulator,
    SimulationEngine,
};
use popproto_zoo::{approximate_majority, binary_counter, flock};

/// `(interactions, effective_interactions, counts)` of a trajectory.
type Pin = (u64, u64, Vec<u64>);

/// `(n, seed, expected)` of one pinned run.
type Run = (u64, u64, Pin);

fn pin(sim: &BatchedSimulator) -> Pin {
    (
        sim.interactions(),
        sim.effective_interactions(),
        sim.counts().to_vec(),
    )
}

fn majority(a: u64, b: u64) -> (Protocol, Config) {
    let p = approximate_majority();
    let ic = p.initial_config(&Input::from_counts(vec![a, b]));
    (p, ic)
}

/// Approximate majority (its `(A, B)` pair is nondeterministic, so the
/// candidate split runs in every batch) driven to silence in one `advance`.
#[test]
fn approximate_majority_to_silence_is_pinned() {
    // (A agents, B agents, seed, expected)
    let cases: [(u64, u64, u64, Pin); 4] = [
        // Tabulated birthday sampler.
        (180, 120, 1, (2_930, 836, vec![300, 0, 0])),
        (1_200, 800, 2, (22_980, 5_482, vec![2_000, 0, 0])),
        // Rayleigh birthday limit.
        (
            180_000,
            120_000,
            3,
            (5_088_990, 846_654, vec![300_000, 0, 0]),
        ),
        // Split chains past the log-factorial table (Stirling ln k!).
        (
            2_500_000,
            500_000,
            4,
            (52_830_963, 2_296_516, vec![3_000_000, 0, 0]),
        ),
    ];
    for (a, b, seed, expected) in cases {
        let (p, ic) = majority(a, b);
        let mut sim = BatchedSimulator::new(p, ic, seed);
        sim.advance(u64::MAX);
        assert!(sim.is_silent());
        assert_eq!(pin(&sim), expected, "n = {}, seed {seed}", a + b);
    }
}

/// Twelve budget-capped `advance` chunks, so batches are cut short by the
/// budget as well as by collisions; n = 50 takes only exact sequential
/// steps.
#[test]
fn chunked_advance_is_pinned() {
    let cases: [(&str, Protocol, [Run; 3]); 2] = [
        (
            "binary_counter(3)",
            binary_counter(3),
            [
                (50, 5, (276, 62, vec![16, 2, 1, 2, 29])),
                (5_000, 6, (20_076, 5_794, vec![1_285, 253, 317, 217, 2_928])),
                (
                    400_000,
                    7,
                    (
                        1_600_080,
                        442_181,
                        vec![117_270, 22_931, 28_150, 20_051, 211_598],
                    ),
                ),
            ],
        ),
        (
            "flock(4)",
            flock(4),
            [
                (50, 5, (188, 69, vec![0, 0, 0, 0, 50])),
                (5_000, 6, (20_076, 6_748, vec![21, 7, 2, 0, 4_970])),
                (
                    400_000,
                    7,
                    (1_600_080, 538_905, vec![1_318, 416, 267, 168, 397_831]),
                ),
            ],
        ),
    ];
    for (name, p, runs) in cases {
        for (n, seed, expected) in runs {
            let mut sim = BatchedSimulator::new(p.clone(), p.initial_config_unary(n), seed);
            let chunk = n / 3 + 7;
            for _ in 0..12 {
                sim.advance(chunk);
            }
            assert_eq!(pin(&sim), expected, "{name}, n = {n}, seed {seed}");
        }
    }
}

/// Per-lane interaction totals of a 4-lane ensemble convergence drive, with
/// lanes retiring as they fall silent.
#[test]
fn ensemble_convergence_is_pinned() {
    let (p, ic) = majority(6_000, 4_000);
    let mut ens = EnsembleSimulator::new(p, ic, &[21, 22, 23, 24]);
    let outcomes = run_ensemble_until_convergence(&mut ens, ConvergenceCriterion::Silent, u64::MAX);
    let got: Vec<u64> = outcomes.iter().map(|o| o.interactions).collect();
    assert_eq!(got, [117_160, 129_533, 141_112, 123_990]);
}

/// Per-lane `(interactions, interactions_to_convergence, output)` of a
/// 6-lane ensemble drive under the persistence criterion.  The window and
/// budget give every way a lane can finish: converged at silence (lanes 0
/// and 5), converged once the consensus outlasts the window (lanes 1–3),
/// and out of budget with an unconfirmed consensus (lane 4).
#[test]
fn ensemble_persistence_convergence_is_pinned() {
    let (p, ic) = majority(6_000, 4_000);
    let mut ens = EnsembleSimulator::new(p, ic, &[21, 22, 23, 24, 25, 26]);
    let criterion = ConvergenceCriterion::ConsensusPersistence { window: 2_000 };
    let outcomes = run_ensemble_until_convergence(&mut ens, criterion, 150_000);
    let got: Vec<(u64, Option<u64>, Option<bool>)> = outcomes
        .iter()
        .map(|o| (o.interactions, o.interactions_to_convergence, o.output))
        .collect();
    assert_eq!(
        got,
        [
            (129_395, Some(129_395), Some(true)),
            (127_000, Some(125_000), Some(true)),
            (132_000, Some(130_000), Some(true)),
            (132_000, Some(130_000), Some(true)),
            (150_000, None, Some(true)),
            (120_776, Some(120_000), Some(true)),
        ]
    );
}
