//! Split-phase smoke: the wave-phase accounting must attribute time to the
//! split phases and expose well-formed, machine-checkable shares.
//!
//! This is the contract the `sim.ensemble.*_ns` metrics of `perfbench`
//! (and any `split_share` / `pairing_share` claim) are built on: a batched
//! ensemble run times every wave phase, the split phases actually register
//! work, and the shares are consistent with the raw nanosecond counters.
//! Run in release in CI next to the ensemble equivalence suites — together
//! they pin both sides of the split-phase optimisation: the accounting that
//! measures it and the lane equivalence the samplers must preserve.

use popproto_model::Input;
use popproto_sim::EnsembleSimulator;
use popproto_zoo::approximate_majority;

#[test]
fn split_share_is_computed_and_consistent() {
    let p = approximate_majority();
    // Large enough for batched waves (population well past the batching
    // floor), wide enough for several lanes per table pass.
    let ic = p.initial_config(&Input::from_counts(vec![60_000, 40_000]));
    let seeds: Vec<u64> = (0..8).collect();
    let mut ens = EnsembleSimulator::new(p, ic, &seeds);
    let n = 100_000u64;
    let budgets = vec![2 * n; seeds.len()];
    ens.advance_all(&budgets);

    let ph = ens.phase_breakdown();
    assert!(ph.waves > 0, "no waves were timed");
    assert!(
        ph.split_ns > 0,
        "batched waves must spend time in the split phases"
    );
    assert!(ph.total_ns() > 0);

    let split = ph.split_share();
    let pairing = ph.pairing_share();
    assert!(
        split > 0.0 && split < 1.0,
        "split_share out of range: {split}"
    );
    assert!(
        pairing > 0.0 && pairing < 1.0,
        "pairing_share out of range: {pairing}"
    );
    assert!(
        split + pairing <= 1.0 + 1e-12,
        "shares exceed the whole: split {split} + pairing {pairing}"
    );
    // The shares are defined as exactly ns / total_ns.
    let expect_split = ph.split_ns as f64 / ph.total_ns() as f64;
    assert!((split - expect_split).abs() < 1e-15);

    // Resetting the breakdown zeroes the shares.
    ens.reset_phase_breakdown();
    let zeroed = ens.phase_breakdown();
    assert_eq!(zeroed.waves, 0);
    assert_eq!(zeroed.split_share(), 0.0);
    assert_eq!(zeroed.pairing_share(), 0.0);
}
