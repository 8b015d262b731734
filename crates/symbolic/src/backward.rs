//! Backward coverability with antichain-minimised frontiers, and the
//! all-`n` stable sets it induces.
//!
//! Population protocols are well-structured: the predecessor of an
//! upward-closed set of configurations is upward-closed, and Dickson's lemma
//! makes the standard backward fixpoint terminate.  Given target
//! configurations `m₁ … m_k`, [`backward_coverability`] computes the finite
//! antichain of **minimal** configurations that can reach the upward closure
//! `↑{m₁ … m_k}` — valid for every population size at once.
//!
//! The payoff is [`symbolic_stable_sets`]: by Definition 2 a configuration
//! `C` fails to be `b`-stable iff it can *cover* some state of output
//! `≠ b` (reach a configuration with at least one agent populating it).
//! `SC_b` is therefore the complement of `pre*(↑{1·q : O(q) ≠ b})` — the
//! least backward fixpoint of the coverability operator — and the complement
//! of an upward-closed set is downward-closed with a small ideal basis
//! (Lemma 3.1 in action: the finite basis witnesses downward closure for
//! *all* population sizes simultaneously).

use crate::omega::{ideal_rows_to_set, OMEGA_BOUND};
use crate::SymbolicLimits;
use popproto_model::{Output, Protocol};
use popproto_reach::transition_deltas;
use popproto_vas::{DownwardClosedSet, Ideal};
use serde::{Deserialize, Serialize};

/// The minimal basis of an upward-closed set `pre*(↑targets)`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CoverabilityBasis {
    /// The antichain of minimal elements, as raw count vectors.
    pub minimal: Vec<Vec<u64>>,
    /// Number of predecessor candidates generated before convergence.
    pub generated: usize,
    /// `true` if the fixpoint converged below the basis cap.  When `false`
    /// the basis is an *under*-approximation of `pre*` (its complement
    /// over-approximates the stable set).
    pub complete: bool,
}

/// Computes the minimal basis of `pre*(↑targets)` by the standard backward
/// algorithm, keeping the frontier antichain-minimised at every step.
///
/// For a transition `t : (a, b) ↦ (c, d)` and a minimal target `m`, the
/// minimal configuration that fires `t` into `↑m` is
/// `q ↦ max(pre_t(q), m(q) − post_t(q) + pre_t(q))`.
///
/// # Panics
///
/// Panics if a target has the wrong dimension.
pub fn backward_coverability(
    protocol: &Protocol,
    targets: &[Vec<u64>],
    limits: &SymbolicLimits,
) -> CoverabilityBasis {
    let n = protocol.num_states();
    let mut rows = FlatRows::default();
    for t in targets {
        assert_eq!(t.len(), n, "target dimension mismatch");
        rows.targets.extend_from_slice(t);
    }
    let transitions = transition_deltas(protocol);
    let (generated, complete) = rows.backward(n, &transitions, limits);
    CoverabilityBasis {
        minimal: rows.minimal.chunks_exact(n).map(<[u64]>::to_vec).collect(),
        generated,
        complete,
    }
}

/// The complement of the upward-closed set `↑{m₁ … m_k}`, as a canonical
/// downward-closed set.
///
/// `¬↑m = ⋃_{q : m(q) ≥ 1} ↓⟨…, m(q) − 1 at q, ω elsewhere⟩`, and the
/// complement of the union is the intersection of the per-element
/// complements.  Returns `None` if an intermediate antichain exceeds
/// `limits.max_ideals` (the result would not be trustworthy to compute
/// further with).
///
/// # Panics
///
/// Panics if an element has the wrong dimension.
pub fn complement_of_upward(
    minimal: &[Vec<u64>],
    num_states: usize,
    limits: &SymbolicLimits,
) -> Option<DownwardClosedSet> {
    if num_states == 0 {
        // The only configuration is the empty one, covered by any element.
        return Some(if minimal.is_empty() {
            DownwardClosedSet::from_ideal(Ideal::full(0))
        } else {
            DownwardClosedSet::empty()
        });
    }
    let mut rows = FlatRows::default();
    for m in minimal {
        assert_eq!(m.len(), num_states, "element dimension mismatch");
        rows.minimal.extend_from_slice(m);
    }
    rows.complement(num_states, limits)
        .then(|| ideal_rows_to_set(&rows.ideals, num_states))
}

/// The flat working rows of the backward fixpoint and of its complement,
/// reused across calls so that a pre-filter miss allocates nothing once
/// the buffers have grown.
///
/// Every buffer holds rows of stride `|Q|`: `targets` and `minimal` are
/// count vectors, `ideals` are ideal bounds with [`OMEGA_BOUND`] as `ω`, so
/// inclusion of ideals is the pointwise `≤` and their intersection the
/// pointwise `min`.
#[derive(Debug, Default)]
pub(crate) struct FlatRows {
    /// Transition rows, `pre_t` then `post_t`, `2·|Q|` entries per
    /// transition.
    deltas: Vec<u64>,
    /// The targets of the next [`FlatRows::backward`] call.
    targets: Vec<u64>,
    /// The minimal antichain of the last backward fixpoint, in the order
    /// the reference `Vec<Vec<u64>>` algorithm keeps it.
    minimal: Vec<u64>,
    worklist: Vec<u64>,
    row: Vec<u64>,
    candidate: Vec<u64>,
    /// The ideal basis of the last complement (an antichain, unsorted).
    ideals: Vec<u64>,
    next: Vec<u64>,
}

impl FlatRows {
    /// The ideal rows of the last successful [`FlatRows::stable_set`] or
    /// [`FlatRows::complement`].
    pub(crate) fn ideals(&self) -> &[u64] {
        &self.ideals
    }

    /// The minimal antichain of the last [`FlatRows::unit_basis`].
    pub(crate) fn minimal(&self) -> &[u64] {
        &self.minimal
    }

    /// `SC_b` as flat ideal rows in [`FlatRows::ideals`]: the complement of
    /// the least backward fixpoint of the unit targets of the states
    /// `target` selects (those with output `≠ b`), over `n` states and the
    /// non-silent `transitions` (as written by [`transition_deltas`]).
    ///
    /// Returns `None` if the complement exceeded `limits.max_ideals`,
    /// otherwise the basis size and whether the fixpoint converged.
    pub(crate) fn stable_set(
        &mut self,
        n: usize,
        transitions: &[[usize; 4]],
        target: impl Fn(usize) -> bool,
        limits: &SymbolicLimits,
    ) -> Option<(usize, bool)> {
        self.targets.clear();
        for q in (0..n).filter(|&q| target(q)) {
            let start = self.targets.len();
            self.targets.resize(start + n, 0);
            self.targets[start + q] = 1;
        }
        let (_, complete) = self.backward(n, transitions, limits);
        let basis_size = self.minimal.len() / n;
        self.complement(n, limits).then_some((basis_size, complete))
    }

    /// The minimal basis of `pre*(↑e_q)` into [`FlatRows::minimal`];
    /// returns whether the fixpoint converged.
    pub(crate) fn unit_basis(
        &mut self,
        n: usize,
        transitions: &[[usize; 4]],
        q: usize,
        limits: &SymbolicLimits,
    ) -> bool {
        self.targets.clear();
        self.targets.resize(n, 0);
        self.targets[q] = 1;
        self.backward(n, transitions, limits).1
    }

    /// The complement of `↑(B₁ ∪ … ∪ B_k)` into [`FlatRows::ideals`], for
    /// the minimal bases `B_i` of `pre*(↑U_i)`: the result is that of
    /// [`FlatRows::stable_set`] on the targets `U₁ ∪ … ∪ U_k` whenever its
    /// fixpoint converges, because `pre*(↑(U ∪ V)) = pre*(↑U) ∪ pre*(↑V)`
    /// and a minimal antichain is unique.
    ///
    /// Returns `false`, leaving the ideals unset, unless no order of the
    /// union's rows could take an intermediate complement past
    /// `limits.max_ideals`.  The union comes out in a different order than
    /// the combined fixpoint keeps its basis, and the intermediate
    /// antichains of the complement depend on that order; every ideal they
    /// hold bounds each state `q` by `ω` or by `m(q) − 1` for a row `m`, so
    /// none holds more than `∏_q (d_q + 1)` ideals, `d_q` bounding the
    /// number of distinct nonzero values of state `q` in the union.  At or
    /// below the cap that bound makes the cap unreachable in every order.
    pub(crate) fn complement_of_union<'a>(
        &mut self,
        n: usize,
        bases: impl IntoIterator<Item = &'a [u64]>,
        limits: &SymbolicLimits,
    ) -> bool {
        self.minimal.clear();
        for basis in bases {
            for m in basis.chunks_exact(n) {
                insert_minimal(m, &mut self.minimal);
            }
        }
        let mut bound = 1usize;
        for q in 0..n {
            // Values below 64 are counted once each, larger ones once per row.
            let (mut seen, mut large) = (0u64, 0usize);
            for m in self.minimal.chunks_exact(n) {
                match m[q] {
                    0 => {}
                    v @ 1..=63 => seen |= 1 << v,
                    _ => large += 1,
                }
            }
            bound = bound.saturating_mul(seen.count_ones() as usize + large + 1);
        }
        bound <= limits.max_ideals && self.complement(n, limits)
    }

    /// The backward fixpoint from `self.targets` into `self.minimal`;
    /// returns the number of generated candidates and whether it converged.
    ///
    /// The pop order and the insert/retain order are those of the
    /// row-per-`Vec` algorithm, so `minimal` comes out in the same order.
    fn backward(
        &mut self,
        n: usize,
        transitions: &[[usize; 4]],
        limits: &SymbolicLimits,
    ) -> (usize, bool) {
        let FlatRows {
            deltas,
            targets,
            minimal,
            worklist,
            row,
            candidate,
            ..
        } = self;
        deltas.clear();
        for &[p0, p1, q0, q1] in transitions {
            let start = deltas.len();
            deltas.resize(start + 2 * n, 0);
            deltas[start + p0] += 1;
            deltas[start + p1] += 1;
            deltas[start + n + q0] += 1;
            deltas[start + n + q1] += 1;
        }
        minimal.clear();
        worklist.clear();
        for target in targets.chunks_exact(n) {
            if insert_minimal(target, minimal) {
                worklist.extend_from_slice(target);
            }
        }

        let mut generated = 0usize;
        let mut complete = true;
        let max_generated = limits.max_backward_basis.saturating_mul(64);
        while let Some(start) = worklist.len().checked_sub(n) {
            row.clear();
            row.extend_from_slice(&worklist[start..]);
            worklist.truncate(start);
            // A frontier element subsumed since it was queued contributes
            // only non-minimal predecessors; skip it.
            if !minimal.chunks_exact(n).any(|m| m == row.as_slice()) {
                continue;
            }
            if minimal.len() / n > limits.max_backward_basis || generated > max_generated {
                complete = false;
                break;
            }
            for delta in deltas.chunks_exact(2 * n) {
                generated += 1;
                let (pre, post) = delta.split_at(n);
                // A post-set outside supp(m) leaves the candidate at
                // m + pre ≥ m, which the antichain already covers.
                if post.iter().zip(row.iter()).all(|(&p, &m)| p == 0 || m == 0) {
                    continue;
                }
                candidate.clear();
                candidate
                    .extend((0..n).map(|q| pre[q].max((row[q] + pre[q]).saturating_sub(post[q]))));
                if insert_minimal(candidate, minimal) {
                    worklist.extend_from_slice(candidate);
                }
            }
        }
        (generated, complete)
    }

    /// The complement of `↑self.minimal` into `self.ideals`; returns `false`
    /// if an intermediate antichain exceeded `limits.max_ideals`.
    ///
    /// The size of each intermediate antichain does not depend on the order
    /// its ideals are generated in, so the cap fires at the same step as in
    /// the [`DownwardClosedSet`] computation.
    pub(crate) fn complement(&mut self, n: usize, limits: &SymbolicLimits) -> bool {
        let FlatRows {
            minimal,
            row,
            ideals,
            next,
            ..
        } = self;
        ideals.clear();
        ideals.resize(n, OMEGA_BOUND);
        for m in minimal.chunks_exact(n) {
            // `¬↑m` is the union of the ideals bounding one supported state
            // `q` by `m(q) − 1`; they are pairwise incomparable, and meeting
            // one with an ideal lowers a single entry.
            next.clear();
            for ideal in ideals.chunks_exact(n) {
                for (q, &count) in m.iter().enumerate() {
                    if count == 0 {
                        continue;
                    }
                    row.clear();
                    row.extend_from_slice(ideal);
                    row[q] = row[q].min(count - 1);
                    insert_maximal(row, next);
                }
            }
            std::mem::swap(ideals, next);
            if ideals.len() / n > limits.max_ideals {
                return false;
            }
            if ideals.is_empty() {
                break;
            }
        }
        true
    }
}

/// Adds `candidate` to the antichain of minimal rows unless an element lies
/// below it, dropping the elements above it; returns whether it was added.
fn insert_minimal(candidate: &[u64], minimal: &mut Vec<u64>) -> bool {
    let n = candidate.len();
    if minimal.chunks_exact(n).any(|m| row_leq_u64(m, candidate)) {
        return false;
    }
    retain_rows(minimal, n, |m| !row_leq_u64(candidate, m));
    minimal.extend_from_slice(candidate);
    true
}

/// Adds the ideal `row` to the antichain of maximal ideal rows unless an
/// element contains it, dropping the elements it contains.
fn insert_maximal(row: &[u64], maximal: &mut Vec<u64>) {
    let n = row.len();
    if maximal.chunks_exact(n).any(|m| row_leq_u64(row, m)) {
        return;
    }
    retain_rows(maximal, n, |m| !row_leq_u64(m, row));
    maximal.extend_from_slice(row);
}

/// Keeps, in order, the rows of stride `n` that satisfy `keep`.
fn retain_rows(rows: &mut Vec<u64>, n: usize, keep: impl Fn(&[u64]) -> bool) {
    let mut kept = 0;
    for r in 0..rows.len() / n {
        if keep(&rows[r * n..(r + 1) * n]) {
            rows.copy_within(r * n..(r + 1) * n, kept * n);
            kept += 1;
        }
    }
    rows.truncate(kept * n);
}

/// Pointwise `a ≤ b`.
fn row_leq_u64(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x <= y)
}

/// A symbolically computed stable set `SC_b`, valid for every population
/// size.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SymbolicStableSet {
    /// The output class the set stabilises to.
    pub output: Output,
    /// The stable set as a canonical finite union of ideals.
    pub set: DownwardClosedSet,
    /// Size of the backward-coverability basis the set was derived from.
    pub basis_size: usize,
    /// `true` if the backward fixpoint converged: the set is then *exactly*
    /// `SC_b`.  When `false` it is an over-approximation (sound for
    /// refutations, not for certifications).
    pub exact: bool,
}

/// Computes `SC_b` for all population sizes: the complement of the least
/// backward coverability fixpoint of the states with output `≠ b`.
///
/// Returns `None` if the ideal representation of the complement exceeds the
/// configured cap.
pub fn symbolic_stable_sets(
    protocol: &Protocol,
    b: Output,
    limits: &SymbolicLimits,
) -> Option<SymbolicStableSet> {
    let transitions = transition_deltas(protocol);
    let states = protocol.states();
    let mut rows = FlatRows::default();
    let (basis_size, exact) = rows.stable_set(
        protocol.num_states(),
        &transitions,
        |q| states[q].output != b,
        limits,
    )?;
    Some(SymbolicStableSet {
        output: b,
        set: ideal_rows_to_set(rows.ideals(), protocol.num_states()),
        basis_size,
        exact,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use popproto_model::{Config, Output, ProtocolBuilder};

    /// Returns `true` if `counts` covers some minimal element of `basis`,
    /// i.e. belongs to the upward-closed set.
    fn contains_counts(basis: &CoverabilityBasis, counts: &[u64]) -> bool {
        basis
            .minimal
            .iter()
            .any(|m| m.iter().zip(counts).all(|(&lo, &c)| c >= lo))
    }

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
    fn backward_basis_is_an_antichain_of_coverers() {
        let p = threshold2_protocol();
        // Target: cover one agent in state 2.
        let basis = backward_coverability(&p, &[vec![0, 0, 1]], &SymbolicLimits::default());
        assert!(basis.complete);
        for a in &basis.minimal {
            for b in &basis.minimal {
                if a != b {
                    assert!(!a.iter().zip(b).all(|(x, y)| x <= y), "{a:?} ≤ {b:?}");
                }
            }
        }
        // ⟨2·q1⟩ can produce a q2; a single q1 cannot.
        assert!(contains_counts(&basis, &[0, 2, 0]));
        assert!(contains_counts(&basis, &[0, 0, 1]));
        assert!(!contains_counts(&basis, &[0, 1, 0]));
        assert!(!contains_counts(&basis, &[5, 0, 0]));
    }

    #[test]
    fn symbolic_stable_set_of_threshold_protocol() {
        let p = threshold2_protocol();
        let sc1 = symbolic_stable_sets(&p, Output::True, &SymbolicLimits::default()).unwrap();
        assert!(sc1.exact);
        // 1-stable configurations are exactly ⟨k·q2⟩: no agent outside q2,
        // since any q0/q1 agent either is a 0-output agent already or lets
        // the population produce one.
        assert!(sc1.set.contains(&Config::from_counts(vec![0, 0, 50])));
        assert!(!sc1.set.contains(&Config::from_counts(vec![1, 0, 50])));
        assert!(!sc1.set.contains(&Config::from_counts(vec![0, 1, 50])));

        let sc0 = symbolic_stable_sets(&p, Output::False, &SymbolicLimits::default()).unwrap();
        assert!(sc0.exact);
        // 0-stable: no q2 agent and at most one q1 agent (two q1s make a q2).
        assert!(sc0.set.contains(&Config::from_counts(vec![9, 1, 0])));
        assert!(!sc0.set.contains(&Config::from_counts(vec![0, 2, 0])));
        assert!(!sc0.set.contains(&Config::from_counts(vec![9, 0, 1])));
    }

    #[test]
    fn complement_handles_degenerate_bases() {
        let limits = SymbolicLimits::default();
        // Empty basis: nothing is coverable, the complement is everything.
        let all = complement_of_upward(&[], 2, &limits).unwrap();
        assert!(all.contains(&Config::from_counts(vec![7, 7])));
        // All-zero element: everything is covered, the complement is empty.
        let none = complement_of_upward(&[vec![0, 0]], 2, &limits).unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn complement_cap_depends_on_the_row_order() {
        // One antichain in two orders: the first passes through five
        // intermediate ideals, the second never through more than four.
        // A union of per-state bases comes out in another order than the
        // combined fixpoint's, so it must not rely on the cap alone.
        let limits = SymbolicLimits {
            max_ideals: 4,
            ..SymbolicLimits::default()
        };
        let rows = [vec![3, 0, 1, 3], vec![0, 2, 2, 0], vec![3, 0, 2, 0]];
        let reordered = [rows[0].clone(), rows[2].clone(), rows[1].clone()];
        assert!(complement_of_upward(&rows, 4, &limits).is_none());
        assert!(complement_of_upward(&reordered, 4, &limits).is_some());
        for order in [&rows, &reordered] {
            let flat = order.concat();
            assert!(!FlatRows::default().complement_of_union(4, [flat.as_slice()], &limits));
        }
    }

    /// A protocol whose backward fixpoint from `{q0, q2}` stops at a basis
    /// cap of 2 although the fixpoints from `q0` and from `q2` alone converge
    /// (the oracle suite checks the pre-filter verdicts on it).
    fn split_basis_protocol() -> Protocol {
        let mut b = ProtocolBuilder::new("split basis");
        let q: Vec<_> = (0..4)
            .map(|i| b.add_state(format!("q{i}"), Output::False))
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
    }

    #[test]
    fn union_of_unit_bases_is_exact_where_the_combined_fixpoint_stops() {
        let p = split_basis_protocol();
        let limits = SymbolicLimits {
            max_backward_basis: 2,
            ..SymbolicLimits::default()
        };
        let targets = [vec![1, 0, 0, 0], vec![0, 0, 1, 0]];
        let sorted = |rows: &[u64]| {
            let mut rows: Vec<&[u64]> = rows.chunks_exact(4).collect();
            rows.sort();
            rows.concat()
        };
        let exact = backward_coverability(&p, &targets, &SymbolicLimits::default());
        assert!(exact.complete);
        let truncated = backward_coverability(&p, &targets, &limits);
        assert!(!truncated.complete);

        let transitions = transition_deltas(&p);
        let mut rows = FlatRows::default();
        let mut bases = Vec::new();
        for q in [0, 2] {
            assert!(rows.unit_basis(4, &transitions, q, &limits), "B_q{q}");
            bases.push(rows.minimal().to_vec());
        }
        assert!(rows.complement_of_union(4, bases.iter().map(Vec::as_slice), &limits));
        assert_eq!(sorted(rows.minimal()), sorted(&exact.minimal.concat()));
        assert_ne!(sorted(rows.minimal()), sorted(&truncated.minimal.concat()));
        let union_sc = rows.ideals().to_vec();

        assert_eq!(
            rows.stable_set(4, &transitions, |q| q == 0 || q == 2, &limits),
            Some((truncated.minimal.len(), false))
        );
        let truncated_sc = rows.ideals().to_vec();
        // The exact SC_b lies inside the over-approximation of the stopped
        // fixpoint, strictly.
        let within =
            |ideal: &[u64], set: &[u64]| set.chunks_exact(4).any(|i| row_leq_u64(ideal, i));
        assert!(union_sc.chunks_exact(4).all(|i| within(i, &truncated_sc)));
        assert!(!truncated_sc.chunks_exact(4).all(|i| within(i, &union_sc)));
    }

    #[test]
    fn basis_cap_reports_incomplete() {
        let p = threshold2_protocol();
        let limits = SymbolicLimits {
            max_backward_basis: 0,
            ..SymbolicLimits::default()
        };
        let basis = backward_coverability(&p, &[vec![0, 0, 1]], &limits);
        assert!(!basis.complete);
    }

    #[test]
    fn huge_basis_cap_does_not_overflow_the_candidate_cap() {
        // `64 · max_backward_basis` does not fit a `usize`: the candidate
        // cap saturates instead of wrapping to 0 (or panicking).
        let p = threshold2_protocol();
        let limits = SymbolicLimits {
            max_backward_basis: 1 << 58,
            ..SymbolicLimits::default()
        };
        let basis = backward_coverability(&p, &[vec![0, 0, 1]], &limits);
        assert!(basis.complete);
        assert!(
            symbolic_stable_sets(&p, Output::True, &limits)
                .unwrap()
                .exact
        );
    }
}
