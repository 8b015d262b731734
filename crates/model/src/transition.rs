//! Transitions between unordered pairs of agents.
//!
//! A transition `p, q ↦ p', q'` moves one agent from `p` to `p'` and one from
//! `q` to `q'`.  Both the pre-multiset `⦃p, q⦄` and the post-multiset
//! `⦃p', q'⦄` are unordered; [`Pair`] stores them canonically.

use crate::config::Config;
use crate::state::StateId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// An unordered pair (multiset of size two) of states.
///
/// The pair is stored canonically with `lo ≤ hi`, so `(a, b)` and `(b, a)`
/// compare equal.
///
/// # Examples
///
/// ```
/// use popproto_model::{Pair, StateId};
/// let p = Pair::new(StateId::new(3), StateId::new(1));
/// let q = Pair::new(StateId::new(1), StateId::new(3));
/// assert_eq!(p, q);
/// assert_eq!(p.lo(), StateId::new(1));
/// assert_eq!(p.hi(), StateId::new(3));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Pair {
    lo: StateId,
    hi: StateId,
}

impl Pair {
    /// Creates the unordered pair `⦃a, b⦄`.
    pub fn new(a: StateId, b: StateId) -> Self {
        if a <= b {
            Pair { lo: a, hi: b }
        } else {
            Pair { lo: b, hi: a }
        }
    }

    /// The smaller state of the pair.
    pub fn lo(self) -> StateId {
        self.lo
    }

    /// The larger state of the pair.
    pub fn hi(self) -> StateId {
        self.hi
    }

    /// Returns `true` if both agents are in the same state.
    pub(crate) fn is_diagonal(self) -> bool {
        self.lo == self.hi
    }

    /// Returns `true` if the pair contains the state `q`.
    pub fn contains(self, q: StateId) -> bool {
        self.lo == q || self.hi == q
    }

    /// The pair as a configuration (multiset) over `num_states` states.
    pub fn as_config(self, num_states: usize) -> Config {
        let mut c = Config::empty(num_states);
        c.add(self.lo, 1);
        c.add(self.hi, 1);
        c
    }

    /// Enumerates all unordered pairs over `num_states` states.
    pub fn all(num_states: usize) -> Vec<Pair> {
        let mut pairs = Vec::with_capacity(num_states * (num_states + 1) / 2);
        for a in 0..num_states {
            for b in a..num_states {
                pairs.push(Pair::new(StateId::new(a), StateId::new(b)));
            }
        }
        pairs
    }
}

impl From<(StateId, StateId)> for Pair {
    fn from((a, b): (StateId, StateId)) -> Self {
        Pair::new(a, b)
    }
}

impl fmt::Display for Pair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⦃{}, {}⦄", self.lo, self.hi)
    }
}

/// A transition `pre ↦ post` between unordered pairs of states.
///
/// # Examples
///
/// ```
/// use popproto_model::{Pair, StateId, Transition};
/// let t = Transition::new(
///     Pair::new(StateId::new(0), StateId::new(1)),
///     Pair::new(StateId::new(2), StateId::new(2)),
/// );
/// assert!(!t.is_silent());
/// assert_eq!(t.displacement(3), vec![-1, -1, 2]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Transition {
    /// The pair of states consumed by the transition.
    pub pre: Pair,
    /// The pair of states produced by the transition.
    pub post: Pair,
}

impl Transition {
    /// Creates a transition `pre ↦ post`.
    pub fn new(pre: Pair, post: Pair) -> Self {
        Transition { pre, post }
    }

    /// Returns `true` if the transition does not change the configuration
    /// (`pre = post`); such transitions are "silent" no-ops.
    pub fn is_silent(&self) -> bool {
        self.pre == self.post
    }

    /// The displacement vector `Δt = post − pre` over `num_states` states
    /// (Section 5.1): entry `q` is the change in the number of agents in `q`.
    pub fn displacement(&self, num_states: usize) -> Vec<i64> {
        let mut d = vec![0i64; num_states];
        d[self.pre.lo().index()] -= 1;
        d[self.pre.hi().index()] -= 1;
        d[self.post.lo().index()] += 1;
        d[self.post.hi().index()] += 1;
        d
    }

    /// Returns `true` if the transition is enabled at configuration `c`
    /// (i.e. `c ≥ pre`).
    pub(crate) fn is_enabled(&self, c: &Config) -> bool {
        if self.pre.is_diagonal() {
            c.get(self.pre.lo()) >= 2
        } else {
            c.get(self.pre.lo()) >= 1 && c.get(self.pre.hi()) >= 1
        }
    }

    /// Fires the transition at `c`, returning the successor configuration.
    ///
    /// Returns `None` if the transition is not enabled.
    pub fn fire(&self, c: &Config) -> Option<Config> {
        if !self.is_enabled(c) {
            return None;
        }
        let mut next = c.clone();
        next.remove(self.pre.lo(), 1);
        next.remove(self.pre.hi(), 1);
        next.add(self.post.lo(), 1);
        next.add(self.post.hi(), 1);
        Some(next)
    }
}

impl fmt::Display for Transition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}, {} ↦ {}, {}",
            self.pre.lo(),
            self.pre.hi(),
            self.post.lo(),
            self.post.hi()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(i: usize) -> StateId {
        StateId::new(i)
    }

    #[test]
    fn pair_is_unordered() {
        assert_eq!(Pair::new(q(2), q(5)), Pair::new(q(5), q(2)));
        assert_eq!(Pair::new(q(2), q(5)).lo(), q(2));
        assert_eq!(Pair::new(q(2), q(5)).hi(), q(5));
        assert!(Pair::new(q(3), q(3)).is_diagonal());
        assert!(!Pair::new(q(3), q(4)).is_diagonal());
    }

    #[test]
    fn pair_contains_and_config() {
        let p = Pair::new(q(1), q(3));
        assert!(p.contains(q(1)));
        assert!(p.contains(q(3)));
        assert!(!p.contains(q(2)));
        let c = p.as_config(5);
        assert_eq!(c.size(), 2);
        assert_eq!(c.get(q(1)), 1);
        assert_eq!(c.get(q(3)), 1);
        let d = Pair::new(q(2), q(2)).as_config(4);
        assert_eq!(d.get(q(2)), 2);
    }

    #[test]
    fn all_pairs_count() {
        assert_eq!(Pair::all(4).len(), 10);
        assert_eq!(Pair::all(1).len(), 1);
        assert_eq!(Pair::all(0).len(), 0);
    }

    #[test]
    fn displacement_matches_definition() {
        // Example from Section 5.1: Q = {p,q,r}, t = p,q ↦ p,r.
        let t = Transition::new(Pair::new(q(0), q(1)), Pair::new(q(0), q(2)));
        assert_eq!(t.displacement(3), vec![0, -1, 1]);
        let silent = Transition::new(Pair::new(q(0), q(1)), Pair::new(q(0), q(1)));
        assert!(silent.is_silent());
        assert_eq!(silent.displacement(3), vec![0, 0, 0]);
    }

    #[test]
    fn enabledness_diagonal_needs_two_agents() {
        let t = Transition::new(Pair::new(q(0), q(0)), Pair::new(q(1), q(1)));
        let one_agent = Config::from_counts(vec![1, 0]);
        let two_agents = Config::from_counts(vec![2, 0]);
        assert!(!t.is_enabled(&one_agent));
        assert!(t.is_enabled(&two_agents));
    }

    #[test]
    fn fire_moves_agents() {
        let t = Transition::new(Pair::new(q(0), q(1)), Pair::new(q(2), q(2)));
        let c = Config::from_counts(vec![2, 1, 0]);
        let next = t.fire(&c).unwrap();
        assert_eq!(next.counts(), &[1, 0, 2]);
        assert_eq!(next.size(), c.size());
        let disabled = Config::from_counts(vec![2, 0, 0]);
        assert_eq!(t.fire(&disabled), None);
    }

    #[test]
    fn fire_preserves_population_size() {
        let t = Transition::new(Pair::new(q(1), q(1)), Pair::new(q(0), q(2)));
        let c = Config::from_counts(vec![0, 5, 0]);
        let next = t.fire(&c).unwrap();
        assert_eq!(next.size(), 5);
        assert_eq!(next.counts(), &[1, 3, 1]);
    }

    #[test]
    fn display_formats() {
        let t = Transition::new(Pair::new(q(1), q(0)), Pair::new(q(2), q(2)));
        assert_eq!(t.to_string(), "q0, q1 ↦ q2, q2");
        assert_eq!(Pair::new(q(1), q(0)).to_string(), "⦃q0, q1⦄");
    }
}
