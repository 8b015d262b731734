//! Reference implementations for the oracle suite: the backward fixpoint on
//! one `Vec<u64>` per row, the complement and the intersection through
//! [`DownwardClosedSet`], the Karp–Miller cover from one label loop, and the
//! two pre-filters composed from them.  They are the straightforward forms
//! of the flat-row engine in `popproto_symbolic`, kept to compare it
//! against.

use popproto_model::{Output, Protocol, ProtocolBuilder};
use popproto_reach::ConfigArena;
use popproto_symbolic::{
    row_leq, row_to_ideal, CoverabilityBasis, KarpMillerCover, SymbolicLimits, OMEGA,
};
use popproto_vas::{DownwardClosedSet, Ideal};
use rand::rngs::StdRng;
use rand::Rng;

/// `pre*(↑targets)` by the standard backward algorithm, one `Vec` per row.
pub fn backward_coverability(
    protocol: &Protocol,
    targets: &[Vec<u64>],
    limits: &SymbolicLimits,
) -> CoverabilityBasis {
    let n = protocol.num_states();
    let transitions: Vec<(Vec<u64>, Vec<u64>)> = protocol
        .non_silent_transitions()
        .map(|t| {
            let mut pre = vec![0u64; n];
            pre[t.pre.lo().index()] += 1;
            pre[t.pre.hi().index()] += 1;
            let mut post = vec![0u64; n];
            post[t.post.lo().index()] += 1;
            post[t.post.hi().index()] += 1;
            (pre, post)
        })
        .collect();

    let mut minimal: Vec<Vec<u64>> = Vec::new();
    let mut worklist: Vec<Vec<u64>> = Vec::new();
    let mut generated = 0usize;
    let insert = |cand: Vec<u64>, minimal: &mut Vec<Vec<u64>>, worklist: &mut Vec<Vec<u64>>| {
        if minimal
            .iter()
            .any(|m| m.iter().zip(&cand).all(|(a, b)| a <= b))
        {
            return;
        }
        minimal.retain(|m| !cand.iter().zip(m).all(|(a, b)| a <= b));
        worklist.push(cand.clone());
        minimal.push(cand);
    };
    for t in targets {
        assert_eq!(t.len(), n, "target dimension mismatch");
        insert(t.clone(), &mut minimal, &mut worklist);
    }

    let mut complete = true;
    while let Some(m) = worklist.pop() {
        if !minimal.contains(&m) {
            continue;
        }
        if minimal.len() > limits.max_backward_basis
            || generated > limits.max_backward_basis.saturating_mul(64)
        {
            complete = false;
            break;
        }
        for (pre, post) in &transitions {
            generated += 1;
            let cand: Vec<u64> = (0..n)
                .map(|q| pre[q].max((m[q] + pre[q]).saturating_sub(post[q])))
                .collect();
            insert(cand, &mut minimal, &mut worklist);
        }
    }
    CoverabilityBasis {
        minimal,
        generated,
        complete,
    }
}

/// `¬↑{m₁ … m_k}` as the intersection of the per-element complements.
pub fn complement_of_upward(
    minimal: &[Vec<u64>],
    num_states: usize,
    limits: &SymbolicLimits,
) -> Option<DownwardClosedSet> {
    let mut result = DownwardClosedSet::from_ideal(Ideal::full(num_states));
    for m in minimal {
        let mut layer = DownwardClosedSet::empty();
        for (q, &count) in m.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let mut bounds: Vec<Option<u64>> = vec![None; num_states];
            bounds[q] = Some(count - 1);
            layer.insert(Ideal::new(bounds));
        }
        result = result.intersect(&layer);
        if result.len() > limits.max_ideals {
            return None;
        }
        if result.is_empty() {
            break;
        }
    }
    Some(result)
}

/// The unit targets of the states with output `≠ b`.
pub fn stable_set_targets(protocol: &Protocol, b: Output) -> Vec<Vec<u64>> {
    let n = protocol.num_states();
    protocol
        .state_ids()
        .filter(|&q| protocol.output_of(q) != b)
        .map(|q| {
            let mut unit = vec![0u64; n];
            unit[q.index()] = 1;
            unit
        })
        .collect()
}

/// `SC_b` with the basis it came from, or `None` at the ideal cap.
pub fn stable_set(
    protocol: &Protocol,
    b: Output,
    limits: &SymbolicLimits,
) -> Option<(DownwardClosedSet, CoverabilityBasis)> {
    let basis = backward_coverability(protocol, &stable_set_targets(protocol, b), limits);
    let set = complement_of_upward(&basis.minimal, protocol.num_states(), limits)?;
    Some((set, basis))
}

/// Karp–Miller from the ω-initial row, labels interned in one arena.
pub fn karp_miller(protocol: &Protocol, limits: &SymbolicLimits) -> KarpMillerCover {
    let n = protocol.num_states();
    let mut root: Vec<u32> = protocol
        .leaders()
        .counts()
        .iter()
        .map(|&c| u32::try_from(c).expect("leader count exceeds u32"))
        .collect();
    for var in protocol.input_variables() {
        root[var.state.index()] = OMEGA;
    }
    let deltas: Vec<[usize; 4]> = protocol
        .non_silent_transitions()
        .map(|t| {
            [
                t.pre.lo().index(),
                t.pre.hi().index(),
                t.post.lo().index(),
                t.post.hi().index(),
            ]
        })
        .collect();

    let mut arena = ConfigArena::new(n);
    let mut parent: Vec<u32> = vec![u32::MAX];
    arena.intern(&root);
    let mut scratch: Vec<u32> = vec![0; n];
    let mut complete = true;
    let mut head: usize = 0;
    while head < arena.len() {
        if arena.len() > limits.max_cover_labels {
            complete = false;
            break;
        }
        let id = head as u32;
        head += 1;
        for &[p0, p1, q0, q1] in &deltas {
            let row = arena.counts_of(id);
            let has = |q: usize, k: u32| row[q] == OMEGA || row[q] >= k;
            let enabled = if p0 == p1 {
                has(p0, 2)
            } else {
                has(p0, 1) && has(p1, 1)
            };
            if !enabled {
                continue;
            }
            scratch.copy_from_slice(row);
            for q in [p0, p1] {
                if scratch[q] != OMEGA {
                    scratch[q] -= 1;
                }
            }
            for q in [q0, q1] {
                if scratch[q] != OMEGA {
                    scratch[q] += 1;
                }
            }
            loop {
                let mut changed = false;
                let mut anc = id;
                loop {
                    let anc_row = arena.counts_of(anc);
                    if anc_row != scratch && row_leq(anc_row, &scratch) {
                        for q in 0..n {
                            if scratch[q] != OMEGA && anc_row[q] < scratch[q] {
                                scratch[q] = OMEGA;
                                changed = true;
                            }
                        }
                    }
                    if parent[anc as usize] == u32::MAX {
                        break;
                    }
                    anc = parent[anc as usize];
                }
                if !changed {
                    break;
                }
            }
            if arena.intern(&scratch).1 {
                parent.push(id);
            }
        }
    }
    let mut set = DownwardClosedSet::empty();
    for (_, row) in arena.iter() {
        set.insert(row_to_ideal(row));
    }
    set.canonicalize();
    KarpMillerCover {
        set,
        labels: arena.len(),
        expanded: head,
        complete,
    }
}

/// The largest population of `sc ∩ cover` through the canonical
/// intersection, `None` unless the cover is complete and the set bounded.
fn population_bound(sc: &DownwardClosedSet, cover: &KarpMillerCover) -> Option<u64> {
    if !cover.complete {
        return None;
    }
    sc.intersect(&cover.set).max_population()
}

/// The threshold pre-filter composed from the reference artifacts.
pub fn threshold_prefilter(protocol: &Protocol, max_input: u64, limits: &SymbolicLimits) -> bool {
    if protocol.states_with_output(Output::True).is_empty() {
        return false;
    }
    let n = protocol.num_states();
    let mut coverable = vec![false; n];
    for var in protocol.input_variables() {
        coverable[var.state.index()] = true;
    }
    for (q, &count) in protocol.leaders().counts().iter().enumerate() {
        if count > 0 {
            coverable[q] = true;
        }
    }
    loop {
        let mut changed = false;
        for t in protocol.non_silent_transitions() {
            if coverable[t.pre.lo().index()] && coverable[t.pre.hi().index()] {
                for q in [t.post.lo().index(), t.post.hi().index()] {
                    if !coverable[q] {
                        coverable[q] = true;
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    if !protocol
        .state_ids()
        .any(|q| protocol.output_of(q) == Output::True && coverable[q.index()])
    {
        return false;
    }
    let Some((sc1, _)) = stable_set(protocol, Output::True, limits) else {
        return true;
    };
    if sc1.is_empty() {
        return false;
    }
    match population_bound(&sc1, &karp_miller(protocol, limits)) {
        None => true,
        Some(max) => max >= protocol.leaders().size() + max_input,
    }
}

/// The η-floor pre-filter composed from the reference artifacts.
pub fn eta_floor_prefilter(protocol: &Protocol, eta_floor: u64, limits: &SymbolicLimits) -> bool {
    if eta_floor <= 2 {
        return true;
    }
    if protocol.states_with_output(Output::False).is_empty() {
        return false;
    }
    let Some((sc0, _)) = stable_set(protocol, Output::False, limits) else {
        return true;
    };
    if sc0.is_empty() {
        return false;
    }
    match population_bound(&sc0, &karp_miller(protocol, limits)) {
        None => true,
        Some(max) => max >= protocol.leaders().size() + 2,
    }
}

/// A random deterministic unary candidate, as the busy-beaver enumeration
/// builds them, with up to `max_leaders` leaders spread over its states.
pub fn random_candidate(rng: &mut StdRng, num_states: usize, max_leaders: u64) -> Protocol {
    let mut b = ProtocolBuilder::new("candidate");
    let states: Vec<_> = (0..num_states)
        .map(|i| {
            b.add_state(
                format!("s{i}"),
                if rng.gen_bool(0.5) {
                    Output::True
                } else {
                    Output::False
                },
            )
        })
        .collect();
    for a in 0..num_states {
        for c in a..num_states {
            let (lo, hi) = (rng.gen_range(0..num_states), rng.gen_range(0..num_states));
            if (lo, hi) == (a, c) || (hi, lo) == (a, c) {
                continue;
            }
            b.add_transition_idempotent((states[a], states[c]), (states[lo], states[hi]))
                .unwrap();
        }
    }
    for _ in 0..rng.gen_range(0..=max_leaders) {
        b.add_leader(states[rng.gen_range(0..num_states)], 1);
    }
    b.set_input_state("x", states[0]);
    b.build().unwrap()
}
