//! The flat-row symbolic engine against its reference implementations
//! (`support`): the backward basis (same order, `generated`, `complete`),
//! the complement ideals, the Karp–Miller cover and both pre-filter
//! verdicts must be identical, on every zoo protocol and on seeded random
//! candidates, under the default limits, the pre-filter limits and tiny
//! caps that truncate every artifact.

mod support;

use popproto_model::{Output, Protocol};
use popproto_symbolic::{
    backward_coverability, complement_of_upward, eta_floor_prefilter, karp_miller,
    symbolic_stable_sets, threshold_prefilter, Prefilter, SymbolicLimits,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use support::random_candidate;

/// Every zoo protocol, then 2,000 random 2–5-state candidates, a quarter of
/// them with leaders.
fn inputs() -> Vec<Protocol> {
    let mut rng = StdRng::seed_from_u64(0x0FAC1E);
    let mut protocols: Vec<Protocol> = popproto_zoo::catalog()
        .into_iter()
        .map(|instance| instance.protocol)
        .collect();
    for i in 0..2_000 {
        let num_states = rng.gen_range(2..=5);
        let max_leaders = if i % 4 == 0 { 3 } else { 0 };
        protocols.push(random_candidate(&mut rng, num_states, max_leaders));
    }
    protocols
}

/// Limits with the backward basis, ideal and cover label caps all `cap`.
fn tiny(cap: usize) -> SymbolicLimits {
    SymbolicLimits {
        max_cover_labels: cap,
        max_backward_basis: cap,
        max_ideals: cap,
        ..SymbolicLimits::default()
    }
}

#[test]
fn flat_engine_matches_the_reference_on_every_input_and_limit() {
    let protocols = inputs();
    let tiny_caps = [0, 1, 2, 4];
    let mut settings = vec![SymbolicLimits::default(), SymbolicLimits::prefilter()];
    settings.extend(tiny_caps.iter().map(|&cap| tiny(cap)));
    // Per tiny setting: basis, ideal and label cap hits.
    let mut hits = [[0usize; 3]; 4];
    for (s, limits) in settings.iter().enumerate() {
        for p in &protocols {
            let n = p.num_states();
            for b in [Output::False, Output::True] {
                let targets = support::stable_set_targets(p, b);
                let basis = backward_coverability(p, &targets, limits);
                let reference = support::backward_coverability(p, &targets, limits);
                assert_eq!(basis.minimal, reference.minimal, "{p}: basis order");
                assert_eq!(basis.generated, reference.generated, "{p}: generated");
                assert_eq!(basis.complete, reference.complete, "{p}: complete");

                let complement = complement_of_upward(&basis.minimal, n, limits);
                let reference = support::complement_of_upward(&basis.minimal, n, limits);
                assert_eq!(
                    complement.as_ref().map(|set| set.ideals()),
                    reference.as_ref().map(|set| set.ideals()),
                    "{p}: complement ideals"
                );

                let stable = symbolic_stable_sets(p, b, limits);
                let reference = support::stable_set(p, b, limits);
                match (&stable, &reference) {
                    (Some(sc), Some((set, basis))) => {
                        assert_eq!(sc.set.ideals(), set.ideals(), "{p}: SC_{b} ideals");
                        assert_eq!(sc.basis_size, basis.minimal.len(), "{p}: basis size");
                        assert_eq!(sc.exact, basis.complete, "{p}: exact");
                    }
                    (None, None) => {}
                    _ => panic!("{p}: SC_{b} availability differs"),
                }
                if s >= 2 {
                    hits[s - 2][0] += usize::from(!basis.complete);
                    hits[s - 2][1] += usize::from(complement.is_none());
                }
            }

            let cover = karp_miller(p, limits);
            let reference = support::karp_miller(p, limits);
            assert_eq!(cover.set.ideals(), reference.set.ideals(), "{p}: cover");
            assert_eq!(cover.labels, reference.labels, "{p}: labels");
            assert_eq!(cover.expanded, reference.expanded, "{p}: expanded");
            assert_eq!(cover.complete, reference.complete, "{p}: cover complete");
            if s >= 2 {
                hits[s - 2][2] += usize::from(!cover.complete);
            }

            for max_input in [2, 6] {
                assert_eq!(
                    threshold_prefilter(p, max_input, limits),
                    support::threshold_prefilter(p, max_input, limits),
                    "{p}: threshold verdict at horizon {max_input}"
                );
            }
            for floor in [2, 3] {
                assert_eq!(
                    eta_floor_prefilter(p, floor, limits),
                    support::eta_floor_prefilter(p, floor, limits),
                    "{p}: η-floor verdict at floor {floor}"
                );
            }
        }
    }
    for (cap, [basis, ideals, labels]) in tiny_caps.iter().zip(hits) {
        assert!(basis > 0, "cap {cap}: no backward basis was truncated");
        assert!(ideals > 0, "cap {cap}: no complement hit the ideal cap");
        assert!(labels > 0, "cap {cap}: no cover hit the label cap");
    }
}

/// `p` with its outputs replaced by `outputs` (one per state, in order).
fn with_outputs(p: &Protocol, outputs: &[Output]) -> Protocol {
    relabelled(p, outputs, p.leaders().counts())
}

/// `p` with the given outputs and leader counts; same transitions and input.
fn relabelled(p: &Protocol, outputs: &[Output], leaders: &[u64]) -> Protocol {
    let mut b = popproto_model::ProtocolBuilder::new(p.name());
    let states: Vec<_> = p
        .states()
        .iter()
        .zip(outputs)
        .map(|(info, &o)| b.add_state(info.name.clone(), o))
        .collect();
    for t in p.transitions() {
        b.add_transition_idempotent(
            (states[t.pre.lo().index()], states[t.pre.hi().index()]),
            (states[t.post.lo().index()], states[t.post.hi().index()]),
        )
        .unwrap();
    }
    for (q, &count) in leaders.iter().enumerate() {
        if count > 0 {
            b.add_leader(states[q], count);
        }
    }
    for var in p.input_variables() {
        b.set_input_state(var.name.clone(), states[var.state.index()]);
    }
    b.build().unwrap()
}

#[test]
fn one_reused_prefilter_matches_fresh_calls() {
    let mut rng = StdRng::seed_from_u64(0xCAC4E);
    let mut calls: Vec<(Protocol, SymbolicLimits)> = Vec::new();
    for _ in 0..300 {
        let num_states = rng.gen_range(2..=4);
        let p = random_candidate(&mut rng, num_states, 0);
        let outputs: Vec<Output> = (0..num_states)
            .map(|_| Output::from_bool(rng.gen_bool(0.5)))
            .collect();
        let same_outputs: Vec<Output> = p.states().iter().map(|s| s.output).collect();
        let mut leaders = vec![0u64; num_states];
        leaders[rng.gen_range(0..num_states)] = 1;
        // Same cover input (outputs only), then a different root (leaders),
        // then a different label cap: each variant right after its original.
        let mut smaller_cover = SymbolicLimits::prefilter();
        smaller_cover.max_cover_labels = rng.gen_range(1..=8);
        calls.push((p.clone(), SymbolicLimits::prefilter()));
        calls.push((with_outputs(&p, &outputs), SymbolicLimits::prefilter()));
        calls.push((p.clone(), SymbolicLimits::prefilter()));
        calls.push((
            relabelled(&p, &same_outputs, &leaders),
            SymbolicLimits::prefilter(),
        ));
        calls.push((p.clone(), SymbolicLimits::prefilter()));
        calls.push((p, smaller_cover));
    }
    // Adjacent pairs keep their order; the rest of the sequence is shuffled.
    let mut pairs: Vec<_> = calls.chunks(2).map(<[_]>::to_vec).collect();
    for i in (1..pairs.len()).rev() {
        pairs.swap(i, rng.gen_range(0..=i));
    }
    let mut filter = Prefilter::default();
    for (p, limits) in pairs.iter().flatten() {
        for max_input in [2, 6] {
            assert_eq!(
                filter.threshold(p, max_input, limits),
                threshold_prefilter(p, max_input, limits),
                "{p}: reused threshold verdict"
            );
        }
        assert_eq!(
            filter.eta_floor(p, 3, limits),
            eta_floor_prefilter(p, 3, limits),
            "{p}: reused η-floor verdict"
        );
    }
}

/// Every output pattern of `p`'s states, in the order a busy-beaver search
/// offers them: pattern `k` gives state `q` output `1` iff bit `q` of `k`
/// is set.
fn output_patterns(p: &Protocol) -> impl Iterator<Item = Protocol> + '_ {
    let n = p.num_states();
    (0..1u32 << n).map(move |k| {
        let outputs: Vec<Output> = (0..n)
            .map(|q| Output::from_bool((k >> q) & 1 == 1))
            .collect();
        with_outputs(p, &outputs)
    })
}

#[test]
fn one_prefilter_reused_across_output_patterns_matches_the_reference() {
    // A busy-beaver search offers every output pattern of one transition
    // structure in a row, and the filter keeps that structure's cover and
    // per-state backward bases between them.
    let mut rng = StdRng::seed_from_u64(0x0B75_7A7E);
    let structures: Vec<Protocol> = (0..400)
        .map(|i| {
            let num_states = rng.gen_range(2..=5);
            let max_leaders = if i % 4 == 0 { 2 } else { 0 };
            random_candidate(&mut rng, num_states, max_leaders)
        })
        .collect();
    let mut settings = vec![SymbolicLimits::default(), SymbolicLimits::prefilter()];
    settings.extend([0, 1, 2, 4].map(tiny));
    // One cap tiny and the others not: a per-state basis stops at the
    // basis cap while the cover completes, and a complement can stop at
    // the ideal cap in one row order and not in another.
    settings.extend([1, 2].map(|cap| SymbolicLimits {
        max_backward_basis: cap,
        ..SymbolicLimits::default()
    }));
    settings.extend([2, 4].map(|cap| SymbolicLimits {
        max_ideals: cap,
        ..SymbolicLimits::default()
    }));
    for limits in &settings {
        let mut filter = Prefilter::default();
        // Threshold verdicts at horizon 6: [rejected, passed].
        let mut verdicts = [0usize; 2];
        for p in &structures {
            for candidate in output_patterns(p) {
                for max_input in [2, 6] {
                    let passes = filter.threshold(&candidate, max_input, limits);
                    assert_eq!(
                        passes,
                        support::threshold_prefilter(&candidate, max_input, limits),
                        "{candidate}: threshold verdict at horizon {max_input}, {limits:?}"
                    );
                    if max_input == 6 {
                        verdicts[usize::from(passes)] += 1;
                    }
                }
                assert_eq!(
                    filter.eta_floor(&candidate, 3, limits),
                    support::eta_floor_prefilter(&candidate, 3, limits),
                    "{candidate}: η-floor verdict, {limits:?}"
                );
            }
        }
        assert!(
            verdicts.iter().all(|&count| count > 0),
            "{limits:?}: one verdict never occurs ({verdicts:?})"
        );
    }
}

#[test]
fn capped_union_rejects_soundly_what_the_stopped_fixpoint_passes() {
    // The fixpoint from the two states {q0, q2} stops at a basis cap of 2
    // while each state's own fixpoint converges.  The union of the
    // per-state bases is then exact, so the filter rejects a candidate the
    // reference, built on the stopped fixpoint's larger SC_b, passes; the
    // uncapped verdict agrees with the filter.
    let build = |outputs: [bool; 4]| {
        let mut b = popproto_model::ProtocolBuilder::new("split basis");
        let q: Vec<_> = (0..4)
            .map(|i| b.add_state(format!("q{i}"), Output::from_bool(outputs[i])))
            .collect();
        for (pre, post) in [
            ((0, 0), (0, 3)),
            ((0, 1), (1, 3)),
            ((0, 2), (0, 0)),
            ((1, 1), (2, 2)),
            ((1, 2), (2, 2)),
            ((2, 3), (1, 1)),
            ((3, 3), (0, 3)),
        ] {
            b.add_transition((q[pre.0], q[pre.1]), (q[post.0], q[post.1]))
                .unwrap();
        }
        b.set_input_state("x", q[0]);
        b.build().unwrap()
    };
    let capped = SymbolicLimits {
        max_backward_basis: 2,
        ..SymbolicLimits::default()
    };
    let uncapped = SymbolicLimits::default();
    // SC_1 excludes the output-0 states q0 and q2.
    let p = build([false, true, false, true]);
    for max_input in [2, 6] {
        assert!(support::threshold_prefilter(&p, max_input, &capped));
        assert!(!Prefilter::default().threshold(&p, max_input, &capped));
        assert!(!threshold_prefilter(&p, max_input, &uncapped));
        assert!(!support::threshold_prefilter(&p, max_input, &uncapped));
    }
    // SC_0 excludes the output-1 states q0 and q2.
    let p = build([true, false, true, false]);
    assert!(support::eta_floor_prefilter(&p, 3, &capped));
    assert!(!Prefilter::default().eta_floor(&p, 3, &capped));
    assert!(!eta_floor_prefilter(&p, 3, &uncapped));
    assert!(!support::eta_floor_prefilter(&p, 3, &uncapped));
}
