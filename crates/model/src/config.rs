//! Configurations: multisets of agents over the states of a protocol.
//!
//! A configuration `C ∈ N^Q` maps every state to the number of agents
//! populating it.  The paper's notation carries over directly:
//! `|C|` is [`Config::size`], the support `⟦C⟧` is [`Config::support`],
//! `C ≤ C'` is [`Config::le`], `C + C'` is [`Config::plus`], and
//! "j-saturated" is [`Config::is_saturated`].

use crate::state::StateId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A multiset of agents over the states `0..num_states` of a protocol.
///
/// Counts are dense `u64` values indexed by [`StateId`].
///
/// # Examples
///
/// ```
/// use popproto_model::{Config, StateId};
///
/// let mut c = Config::empty(3);
/// c.set(StateId::new(0), 2);
/// c.add(StateId::new(2), 5);
/// assert_eq!(c.size(), 7);
/// assert_eq!(c.get(StateId::new(2)), 5);
/// assert_eq!(c.support(), vec![StateId::new(0), StateId::new(2)]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Config {
    counts: Vec<u64>,
}

impl Config {
    /// The empty configuration over `num_states` states.
    pub fn empty(num_states: usize) -> Self {
        Config {
            counts: vec![0; num_states],
        }
    }

    /// Builds a configuration from explicit per-state counts.
    pub fn from_counts(counts: Vec<u64>) -> Self {
        Config { counts }
    }

    /// Builds a configuration containing `count` agents in a single state.
    pub fn singleton(num_states: usize, state: StateId, count: u64) -> Self {
        let mut c = Config::empty(num_states);
        c.set(state, count);
        c
    }

    /// Number of states the configuration ranges over (the dimension, not the population).
    pub fn num_states(&self) -> usize {
        self.counts.len()
    }

    /// The number of agents in state `q`.
    pub fn get(&self, q: StateId) -> u64 {
        self.counts[q.index()]
    }

    /// Sets the number of agents in state `q`.
    pub fn set(&mut self, q: StateId, count: u64) {
        self.counts[q.index()] = count;
    }

    /// Adds `count` agents to state `q`.
    pub fn add(&mut self, q: StateId, count: u64) {
        self.counts[q.index()] += count;
    }

    /// Removes `count` agents from state `q`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `count` agents populate `q`.
    pub fn remove(&mut self, q: StateId, count: u64) {
        let c = &mut self.counts[q.index()];
        assert!(*c >= count, "removing more agents from {q} than present");
        *c -= count;
    }

    /// The total number of agents `|C|`.
    pub fn size(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The support `⟦C⟧`: the states populated by at least one agent.
    pub fn support(&self) -> Vec<StateId> {
        self.support_iter().collect()
    }

    /// Iterates over the support `⟦C⟧` without allocating.
    ///
    /// Hot callers (stable-set classification, verification, the Section 5
    /// pipeline) should prefer this over [`Config::support`], which builds a
    /// `Vec<StateId>` per call.
    pub(crate) fn support_iter(&self) -> impl Iterator<Item = StateId> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, _)| StateId::new(i))
    }

    /// Returns `true` if no agent is present.
    pub fn is_empty(&self) -> bool {
        self.counts.iter().all(|&c| c == 0)
    }

    /// Pointwise sum `C + D`.
    ///
    /// # Panics
    ///
    /// Panics if the configurations range over different state sets.
    pub fn plus(&self, other: &Config) -> Config {
        assert_eq!(self.num_states(), other.num_states(), "dimension mismatch");
        Config {
            counts: self
                .counts
                .iter()
                .zip(&other.counts)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }

    /// Pointwise difference `C - D`, defined only when `D ≤ C`.
    ///
    /// Returns `None` if some state would go negative.
    pub fn checked_minus(&self, other: &Config) -> Option<Config> {
        assert_eq!(self.num_states(), other.num_states(), "dimension mismatch");
        let counts = self
            .counts
            .iter()
            .zip(&other.counts)
            .map(|(a, b)| a.checked_sub(*b))
            .collect::<Option<Vec<_>>>()?;
        Some(Config { counts })
    }

    /// Scalar multiple `k · C`.
    pub fn scaled(&self, k: u64) -> Config {
        Config {
            counts: self.counts.iter().map(|c| c * k).collect(),
        }
    }

    /// The pointwise order `C ≤ D`.
    pub fn le(&self, other: &Config) -> bool {
        assert_eq!(self.num_states(), other.num_states(), "dimension mismatch");
        self.counts.iter().zip(&other.counts).all(|(a, b)| a <= b)
    }

    /// Returns `true` if every state holds at least `j` agents ("j-saturated", Section 5.1).
    pub fn is_saturated(&self, j: u64) -> bool {
        self.counts.iter().all(|&c| c >= j)
    }

    /// Number of agents populating states *outside* `subset`.
    ///
    /// `subset` is interpreted as a set: duplicate entries are counted once,
    /// and identifiers beyond the configuration's dimension are ignored.
    pub(crate) fn count_outside(&self, subset: &[StateId]) -> u64 {
        // Allocation-free: |C| minus the agents inside, with duplicates in
        // `subset` skipped by only counting the first occurrence.
        let inside: u64 = subset
            .iter()
            .enumerate()
            .filter(|(i, q)| q.index() < self.num_states() && !subset[..*i].contains(q))
            .map(|(_, q)| self.get(*q))
            .sum();
        self.size() - inside
    }

    /// Returns `true` if the configuration is `ε`-concentrated in `subset`
    /// (Definition 5): at most `ε·|C|` agents populate states outside `subset`.
    ///
    /// Public for the Lemma 5.8 searches of `popproto`, which test their
    /// realised targets for 0-concentration in the `ω`-set.
    pub fn is_concentrated(&self, subset: &[StateId], epsilon: f64) -> bool {
        let outside = self.count_outside(subset) as f64;
        outside <= epsilon * self.size() as f64
    }

    /// The maximum count over all states, `‖C‖_∞`.
    pub fn norm_inf(&self) -> u64 {
        self.counts.iter().copied().max().unwrap_or(0)
    }

    /// Iterates over `(state, count)` pairs with non-zero count.
    pub fn iter(&self) -> impl Iterator<Item = (StateId, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (StateId::new(i), c))
    }

    /// Iterates over all counts including zeros, in state order.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Mutable access to the raw counts, in state order.
    ///
    /// This is the hot-path accessor used by the simulation engines to apply
    /// transition deltas in place instead of cloning the configuration per
    /// interaction.  Callers are responsible for keeping the population size
    /// invariant (transitions move agents, they never create or destroy them).
    pub fn counts_mut(&mut self) -> &mut [u64] {
        &mut self.counts
    }
}

impl fmt::Display for Config {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        let mut first = true;
        for (q, c) in self.iter() {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{c}·{q}")?;
            first = false;
        }
        if first {
            write!(f, "∅")?;
        }
        write!(f, "⟩")
    }
}

impl FromIterator<(StateId, u64)> for Config {
    fn from_iter<I: IntoIterator<Item = (StateId, u64)>>(iter: I) -> Self {
        let items: Vec<(StateId, u64)> = iter.into_iter().collect();
        let dim = items.iter().map(|(q, _)| q.index() + 1).max().unwrap_or(0);
        let mut c = Config::empty(dim);
        for (q, n) in items {
            c.add(q, n);
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(counts: &[u64]) -> Config {
        Config::from_counts(counts.to_vec())
    }

    #[test]
    fn empty_and_singleton() {
        let e = Config::empty(4);
        assert!(e.is_empty());
        assert_eq!(e.size(), 0);
        assert_eq!(e.norm_inf(), 0);
        let s = Config::singleton(4, StateId::new(2), 3);
        assert_eq!(s.size(), 3);
        assert_eq!(s.get(StateId::new(2)), 3);
        assert_eq!(s.support(), vec![StateId::new(2)]);
    }

    #[test]
    fn arithmetic() {
        let a = cfg(&[1, 2, 0]);
        let b = cfg(&[0, 1, 4]);
        assert_eq!(a.plus(&b), cfg(&[1, 3, 4]));
        assert_eq!(a.scaled(3), cfg(&[3, 6, 0]));
        assert_eq!(a.plus(&b).checked_minus(&a), Some(b.clone()));
        assert_eq!(a.checked_minus(&b), None);
    }

    #[test]
    fn ordering() {
        let a = cfg(&[1, 2, 0]);
        let b = cfg(&[1, 3, 0]);
        assert!(a.le(&b));
        assert!(!b.le(&a));
        assert!(a.le(&a));
    }

    #[test]
    fn saturation() {
        assert!(cfg(&[2, 2, 3]).is_saturated(2));
        assert!(!cfg(&[2, 1, 3]).is_saturated(2));
        assert!(cfg(&[0, 0]).is_saturated(0));
    }

    #[test]
    fn concentration() {
        // 9 of 10 agents in state 0 => 0.1-concentrated in {q0}.
        let c = cfg(&[9, 1]);
        assert!(c.is_concentrated(&[StateId::new(0)], 0.1));
        assert!(!c.is_concentrated(&[StateId::new(0)], 0.05));
        assert!(c.is_concentrated(&[StateId::new(0), StateId::new(1)], 0.0));
    }

    #[test]
    fn count_in_and_outside() {
        let c = cfg(&[3, 4, 5]);
        assert_eq!(c.count_outside(&[StateId::new(0), StateId::new(2)]), 4);
        assert_eq!(c.count_outside(&[]), 12);
        // Duplicate subset entries must not be double-counted.
        assert_eq!(
            c.count_outside(&[StateId::new(0), StateId::new(0), StateId::new(2)]),
            4
        );
        // Identifiers beyond the dimension are ignored, not a panic.
        assert_eq!(c.count_outside(&[StateId::new(17)]), 12);
    }

    #[test]
    fn support_iter_matches_support() {
        let c = cfg(&[0, 2, 0, 7]);
        assert_eq!(c.support_iter().collect::<Vec<_>>(), c.support());
        assert_eq!(cfg(&[0, 0]).support_iter().count(), 0);
    }

    #[test]
    fn display_formats_support_only() {
        let c = cfg(&[0, 2, 0, 1]);
        assert_eq!(c.to_string(), "⟨2·q1, 1·q3⟩");
        assert_eq!(Config::empty(2).to_string(), "⟨∅⟩");
    }

    #[test]
    fn from_iterator() {
        let c: Config = vec![
            (StateId::new(1), 2),
            (StateId::new(3), 1),
            (StateId::new(1), 1),
        ]
        .into_iter()
        .collect();
        assert_eq!(c.counts(), &[0, 3, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "removing more agents")]
    fn remove_underflow_panics() {
        let mut c = cfg(&[1, 0]);
        c.remove(StateId::new(1), 1);
    }

    #[test]
    fn remove_and_add() {
        let mut c = cfg(&[2, 2]);
        c.remove(StateId::new(0), 1);
        c.add(StateId::new(1), 3);
        assert_eq!(c.counts(), &[1, 5]);
    }
}
