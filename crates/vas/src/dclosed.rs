//! Downward-closed sets of configurations and their bases (Section 3).
//!
//! The paper represents a downward-closed set `C` by a finite *base* of
//! elements `(B, S)` with `B + N^S ⊆ C` and `C = ⋃ (B + N^S)`; the norm of a
//! basis element is `‖B‖_∞`.  An equivalent, often more convenient
//! representation uses *ideals*: downward closures of `ω`-configurations
//! `↓u` with `u ∈ (N ∪ {ω})^Q`.  Both representations are provided:
//!
//! * [`BasisElement`] — the paper's `(B, S)` pairs, used by the pumping
//!   certificates of Lemmas 4.1 and 5.2;
//! * [`Ideal`] and [`DownwardClosedSet`] — the ideal representation, used to
//!   store and compare stable sets computed by the `reach` crate.

use popproto_model::{Config, StateId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// A basis element `(B, S)` of a downward-closed set: the set of
/// configurations `B + N^S` (Section 3).
///
/// # Examples
///
/// ```
/// use popproto_model::{Config, StateId};
/// use popproto_vas::BasisElement;
///
/// let base = Config::from_counts(vec![1, 0, 2]);
/// let elem = BasisElement::new(base, [StateId::new(2)]);
/// assert!(elem.contains(&Config::from_counts(vec![1, 0, 7])));
/// assert!(!elem.contains(&Config::from_counts(vec![2, 0, 7])));
/// assert_eq!(elem.norm(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BasisElement {
    base: Config,
    omega: BTreeSet<StateId>,
}

impl BasisElement {
    /// Creates the basis element `(B, S)`.
    pub fn new(base: Config, omega: impl IntoIterator<Item = StateId>) -> Self {
        BasisElement {
            base,
            omega: omega.into_iter().collect(),
        }
    }

    /// The base configuration `B`.
    pub fn base(&self) -> &Config {
        &self.base
    }

    /// The set `S` of states whose counts may grow unboundedly.
    pub fn omega_states(&self) -> impl Iterator<Item = StateId> + '_ {
        self.omega.iter().copied()
    }

    /// The set `S` as a vector.
    pub fn omega_vec(&self) -> Vec<StateId> {
        self.omega.iter().copied().collect()
    }

    /// The norm `‖(B, S)‖_∞ = ‖B‖_∞`.
    pub fn norm(&self) -> u64 {
        self.base.norm_inf()
    }

    /// Membership test: `c ∈ B + N^S`, i.e. `c(q) = B(q)` outside `S` and
    /// `c(q) ≥ B(q)` on `S`.
    pub fn contains(&self, c: &Config) -> bool {
        if c.num_states() != self.base.num_states() {
            return false;
        }
        for q in (0..c.num_states()).map(StateId::new) {
            if self.omega.contains(&q) {
                if c.get(q) < self.base.get(q) {
                    return false;
                }
            } else if c.get(q) != self.base.get(q) {
                return false;
            }
        }
        true
    }

    /// The "difference" `D = c − B ∈ N^S` witnessing membership, if `c`
    /// belongs to the element.
    pub fn witness(&self, c: &Config) -> Option<Config> {
        if !self.contains(c) {
            return None;
        }
        c.checked_minus(&self.base)
    }

    /// Constructs a basis element from a configuration by the Lemma 3.2
    /// recipe: states with more than `threshold` agents become `ω`-states,
    /// and their base count is truncated to `threshold`.
    pub fn from_config_with_threshold(c: &Config, threshold: u64) -> Self {
        let mut base = c.clone();
        let mut omega = BTreeSet::new();
        for (q, count) in c.iter() {
            if count > threshold {
                base.set(q, threshold);
                omega.insert(q);
            }
        }
        BasisElement { base, omega }
    }
}

impl fmt::Display for BasisElement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {{", self.base)?;
        for (i, q) in self.omega.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{q}")?;
        }
        write!(f, "}})")
    }
}

/// An ideal `↓u`: the set of configurations pointwise below an
/// `ω`-configuration `u` (entries are either a finite bound or unbounded).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Ideal {
    /// `Some(k)` bounds the state by `k`; `None` means unbounded (ω).
    bounds: Vec<Option<u64>>,
}

impl Ideal {
    /// Creates an ideal from per-state bounds (`None` = ω).
    pub fn new(bounds: Vec<Option<u64>>) -> Self {
        Ideal { bounds }
    }

    /// The ideal containing exactly the downward closure of a configuration.
    pub fn below(c: &Config) -> Self {
        Ideal {
            bounds: c.counts().iter().map(|&x| Some(x)).collect(),
        }
    }

    /// The full ideal (no constraints) over `num_states` states.
    pub fn full(num_states: usize) -> Self {
        Ideal {
            bounds: vec![None; num_states],
        }
    }

    /// The per-state bounds.
    pub fn bounds(&self) -> &[Option<u64>] {
        &self.bounds
    }

    /// The dimension (number of states).
    pub fn num_states(&self) -> usize {
        self.bounds.len()
    }

    /// Membership test.
    pub fn contains(&self, c: &Config) -> bool {
        if c.num_states() != self.bounds.len() {
            return false;
        }
        self.bounds
            .iter()
            .enumerate()
            .all(|(q, b)| b.is_none_or(|limit| c.get(StateId::new(q)) <= limit))
    }

    /// Inclusion test `self ⊆ other`.
    pub fn included_in(&self, other: &Ideal) -> bool {
        assert_eq!(self.num_states(), other.num_states(), "dimension mismatch");
        self.bounds
            .iter()
            .zip(&other.bounds)
            .all(|(a, b)| match (a, b) {
                (_, None) => true,
                (None, Some(_)) => false,
                (Some(x), Some(y)) => x <= y,
            })
    }

    /// The norm: the largest finite bound (0 if all bounds are ω or 0).
    pub fn norm(&self) -> u64 {
        self.bounds.iter().filter_map(|b| *b).max().unwrap_or(0)
    }

    /// The intersection `↓u ∩ ↓v = ↓(u ⊓ v)`: ideals are closed under
    /// intersection, with the pointwise minimum of the bounds (`ω` is the
    /// neutral element).
    pub fn intersect(&self, other: &Ideal) -> Ideal {
        assert_eq!(self.num_states(), other.num_states(), "dimension mismatch");
        Ideal {
            bounds: self
                .bounds
                .iter()
                .zip(&other.bounds)
                .map(|(a, b)| match (a, b) {
                    (None, x) => *x,
                    (x, None) => *x,
                    (Some(x), Some(y)) => Some(*x.min(y)),
                })
                .collect(),
        }
    }

    /// The largest population size of any configuration in the ideal:
    /// `Σ_q u(q)`, or `None` if some bound is ω (sizes are unbounded).
    pub fn max_population(&self) -> Option<u64> {
        self.bounds
            .iter()
            .try_fold(0u64, |acc, b| b.map(|limit| acc.saturating_add(limit)))
    }
}

impl fmt::Display for Ideal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "↓⟨")?;
        for (i, b) in self.bounds.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match b {
                Some(k) => write!(f, "{k}")?,
                None => write!(f, "ω")?,
            }
        }
        write!(f, "⟩")
    }
}

/// A downward-closed set represented as a finite union of ideals.
///
/// The representation is kept *canonical*: the ideals form an antichain (no
/// ideal is included in another) and are stored in a fixed sorted order, so
/// two equal sets built along different routes have identical
/// representations.  [`DownwardClosedSet::insert`] maintains the antichain
/// incrementally; [`DownwardClosedSet::canonicalize`] restores the full
/// invariant (used internally by `union`/`intersect`, and available for
/// representations obtained from external sources such as deserialisation).
///
/// Equality is *semantic* (mutual inclusion), so it is independent of the
/// insertion order even for non-canonical representations.
#[derive(Debug, Clone, Eq, Serialize, Deserialize, Default)]
pub struct DownwardClosedSet {
    ideals: Vec<Ideal>,
}

impl PartialEq for DownwardClosedSet {
    fn eq(&self, other: &Self) -> bool {
        if self.ideals.is_empty() || other.ideals.is_empty() {
            return self.ideals.is_empty() == other.ideals.is_empty();
        }
        if self.ideals[0].num_states() != other.ideals[0].num_states() {
            return false;
        }
        self.included_in(other) && other.included_in(self)
    }
}

impl DownwardClosedSet {
    /// The empty set.
    pub fn empty() -> Self {
        DownwardClosedSet { ideals: Vec::new() }
    }

    /// A set consisting of a single ideal.
    pub fn from_ideal(ideal: Ideal) -> Self {
        DownwardClosedSet {
            ideals: vec![ideal],
        }
    }

    /// The ideals of the (minimised) representation.
    pub fn ideals(&self) -> &[Ideal] {
        &self.ideals
    }

    /// Number of ideals in the representation.
    pub fn len(&self) -> usize {
        self.ideals.len()
    }

    /// Returns `true` if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.ideals.is_empty()
    }

    /// Adds an ideal, keeping the representation minimal (no ideal included
    /// in another).
    pub fn insert(&mut self, ideal: Ideal) {
        if self
            .ideals
            .iter()
            .any(|existing| ideal.included_in(existing))
        {
            return;
        }
        self.ideals.retain(|existing| !existing.included_in(&ideal));
        self.ideals.push(ideal);
    }

    /// Adds the downward closure of a configuration.
    pub fn insert_config(&mut self, c: &Config) {
        self.insert(Ideal::below(c));
    }

    /// Membership test.
    pub fn contains(&self, c: &Config) -> bool {
        self.ideals.iter().any(|i| i.contains(c))
    }

    /// Restores the canonical representation: removes subsumed ideals
    /// (antichain reduction), deduplicates, and sorts the survivors into a
    /// fixed order (`ω` bounds sort above every finite bound).
    ///
    /// `insert` keeps the antichain invariant incrementally, but
    /// representations obtained from external sources (deserialisation,
    /// manual assembly) may contain duplicate or subsumed ideals that would
    /// otherwise keep growing through repeated `union`/`intersect` chains.
    pub fn canonicalize(&mut self) {
        let ideals = std::mem::take(&mut self.ideals);
        for ideal in ideals {
            self.insert(ideal);
        }
        self.sort_ideals();
    }

    /// Sorts the ideals into the canonical order (`None` = ω sorts above
    /// every finite bound, so larger ideals come later).  Sufficient on its
    /// own for representations built through `insert`, which already
    /// maintains the antichain invariant — `canonicalize` adds the
    /// re-insertion pass only for externally assembled representations.
    fn sort_ideals(&mut self) {
        let key = |b: &Option<u64>| b.map_or((1u8, 0u64), |k| (0, k));
        self.ideals
            .sort_by(|a, b| a.bounds().iter().map(key).cmp(b.bounds().iter().map(key)));
    }

    /// Union of two sets, in canonical form.
    pub fn union(&self, other: &DownwardClosedSet) -> DownwardClosedSet {
        let mut out = self.clone();
        for i in &other.ideals {
            out.insert(i.clone());
        }
        out.sort_ideals();
        out
    }

    /// Intersection of two sets, in canonical form: downward-closed sets are
    /// closed under intersection, with `(⋃ᵢ Iᵢ) ∩ (⋃ⱼ Jⱼ) = ⋃ᵢⱼ (Iᵢ ∩ Jⱼ)`.
    pub fn intersect(&self, other: &DownwardClosedSet) -> DownwardClosedSet {
        let mut out = DownwardClosedSet::empty();
        for i in &self.ideals {
            for j in &other.ideals {
                out.insert(i.intersect(j));
            }
        }
        out.sort_ideals();
        out
    }

    /// Inclusion test `self ⊆ other`.
    ///
    /// Sound for canonical *and* non-canonical representations: an ideal is
    /// included in a union of ideals iff it is included in one of them.
    pub fn included_in(&self, other: &DownwardClosedSet) -> bool {
        self.ideals
            .iter()
            .all(|i| other.ideals.iter().any(|j| i.included_in(j)))
    }

    /// The largest finite bound over all ideals (a norm for the representation).
    pub fn norm(&self) -> u64 {
        self.ideals.iter().map(Ideal::norm).max().unwrap_or(0)
    }

    /// The largest population size over all configurations of the set, or
    /// `None` if some ideal is unbounded.  The empty set reports `Some(0)`.
    pub fn max_population(&self) -> Option<u64> {
        self.ideals
            .iter()
            .try_fold(0u64, |acc, i| i.max_population().map(|m| acc.max(m)))
    }
}

impl fmt::Display for DownwardClosedSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.ideals.is_empty() {
            return write!(f, "∅");
        }
        for (i, ideal) in self.ideals.iter().enumerate() {
            if i > 0 {
                write!(f, " ∪ ")?;
            }
            write!(f, "{ideal}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(counts: &[u64]) -> Config {
        Config::from_counts(counts.to_vec())
    }

    #[test]
    fn basis_element_membership() {
        let elem = BasisElement::new(cfg(&[1, 2, 0]), [StateId::new(1)]);
        assert!(elem.contains(&cfg(&[1, 2, 0])));
        assert!(elem.contains(&cfg(&[1, 9, 0])));
        assert!(!elem.contains(&cfg(&[1, 1, 0]))); // below base on an ω-state
        assert!(!elem.contains(&cfg(&[0, 2, 0]))); // differs outside S
        assert!(!elem.contains(&cfg(&[1, 2, 1]))); // differs outside S
        assert!(!elem.contains(&cfg(&[1, 2]))); // wrong dimension
    }

    #[test]
    fn basis_element_witness() {
        let elem = BasisElement::new(cfg(&[1, 2, 0]), [StateId::new(1)]);
        let w = elem.witness(&cfg(&[1, 7, 0])).unwrap();
        assert_eq!(w.counts(), &[0, 5, 0]);
        assert!(elem.witness(&cfg(&[0, 7, 0])).is_none());
    }

    #[test]
    fn basis_element_from_threshold() {
        let c = cfg(&[1, 100, 3]);
        let elem = BasisElement::from_config_with_threshold(&c, 10);
        assert_eq!(elem.base().counts(), &[1, 10, 3]);
        assert_eq!(elem.omega_vec(), vec![StateId::new(1)]);
        assert!(elem.contains(&c));
        assert_eq!(elem.norm(), 10);
    }

    #[test]
    fn ideal_membership_and_inclusion() {
        let i = Ideal::new(vec![Some(2), None]);
        assert!(i.contains(&cfg(&[2, 100])));
        assert!(!i.contains(&cfg(&[3, 0])));
        let j = Ideal::new(vec![Some(5), None]);
        assert!(i.included_in(&j));
        assert!(!j.included_in(&i));
        assert!(i.included_in(&Ideal::full(2)));
        assert!(!Ideal::full(2).included_in(&i));
        assert_eq!(i.norm(), 2);
    }

    #[test]
    fn ideal_below_configuration() {
        let i = Ideal::below(&cfg(&[1, 2]));
        assert!(i.contains(&cfg(&[1, 2])));
        assert!(i.contains(&cfg(&[0, 0])));
        assert!(!i.contains(&cfg(&[2, 2])));
    }

    #[test]
    fn set_insert_keeps_minimal_representation() {
        let mut s = DownwardClosedSet::empty();
        s.insert(Ideal::new(vec![Some(1), Some(1)]));
        s.insert(Ideal::new(vec![Some(2), Some(2)])); // absorbs the first
        assert_eq!(s.len(), 1);
        s.insert(Ideal::new(vec![Some(1), Some(1)])); // already included
        assert_eq!(s.len(), 1);
        s.insert(Ideal::new(vec![Some(0), None])); // incomparable
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn set_membership_union_inclusion() {
        let mut a = DownwardClosedSet::empty();
        a.insert_config(&cfg(&[2, 0]));
        let mut b = DownwardClosedSet::empty();
        b.insert_config(&cfg(&[0, 2]));
        assert!(a.contains(&cfg(&[1, 0])));
        assert!(!a.contains(&cfg(&[0, 1])));
        let u = a.union(&b);
        assert!(u.contains(&cfg(&[1, 0])));
        assert!(u.contains(&cfg(&[0, 1])));
        assert!(a.included_in(&u));
        assert!(b.included_in(&u));
        assert!(!u.included_in(&a));
        assert_eq!(u.norm(), 2);
    }

    #[test]
    fn ideal_intersection_and_population_bounds() {
        let i = Ideal::new(vec![Some(2), None, Some(5)]);
        let j = Ideal::new(vec![Some(3), Some(4), None]);
        let k = i.intersect(&j);
        assert_eq!(k.bounds(), &[Some(2), Some(4), Some(5)]);
        // The intersection contains exactly the common configurations.
        for a in 0..=4u64 {
            for b in 0..=5 {
                for c in 0..=6 {
                    let cfg = cfg(&[a, b, c]);
                    assert_eq!(k.contains(&cfg), i.contains(&cfg) && j.contains(&cfg));
                }
            }
        }
        assert_eq!(k.max_population(), Some(11));
        assert_eq!(i.max_population(), None);
    }

    #[test]
    fn set_intersection_is_canonical_and_semantically_correct() {
        let mut a = DownwardClosedSet::empty();
        a.insert(Ideal::new(vec![Some(2), None]));
        a.insert(Ideal::new(vec![None, Some(1)]));
        let mut b = DownwardClosedSet::empty();
        b.insert(Ideal::new(vec![Some(1), None]));
        let isect = a.intersect(&b);
        // ⟨2,ω⟩∩⟨1,ω⟩ = ⟨1,ω⟩ absorbs ⟨ω,1⟩∩⟨1,ω⟩ = ⟨1,1⟩.
        assert_eq!(isect.len(), 1);
        for x in 0..=3u64 {
            for y in 0..=3 {
                let cfg = cfg(&[x, y]);
                assert_eq!(isect.contains(&cfg), a.contains(&cfg) && b.contains(&cfg));
            }
        }
        assert!(isect.included_in(&a));
        assert!(isect.included_in(&b));
    }

    #[test]
    fn canonicalize_removes_duplicates_and_orders_deterministically() {
        let mut forward = DownwardClosedSet::empty();
        forward.insert(Ideal::new(vec![Some(1), None]));
        forward.insert(Ideal::new(vec![None, Some(1)]));
        let mut backward = DownwardClosedSet::empty();
        backward.insert(Ideal::new(vec![None, Some(1)]));
        backward.insert(Ideal::new(vec![Some(0), Some(0)])); // subsumed
        backward.insert(Ideal::new(vec![Some(1), None]));
        // Semantic equality holds regardless of insertion order…
        assert_eq!(forward, backward);
        // …and canonicalisation makes the representations identical.
        forward.canonicalize();
        backward.canonicalize();
        assert_eq!(forward.ideals(), backward.ideals());
        assert_eq!(forward.len(), 2);
        // Unions are canonical: both orders yield the same representation.
        let u1 = forward.union(&backward);
        let u2 = backward.union(&forward);
        assert_eq!(u1.ideals(), u2.ideals());
    }

    #[test]
    fn set_population_bound() {
        let mut s = DownwardClosedSet::empty();
        assert_eq!(s.max_population(), Some(0));
        s.insert(Ideal::new(vec![Some(2), Some(3)]));
        assert_eq!(s.max_population(), Some(5));
        s.insert(Ideal::new(vec![None, Some(0)]));
        assert_eq!(s.max_population(), None);
    }

    #[test]
    fn empty_set_behaviour() {
        let s = DownwardClosedSet::empty();
        assert!(s.is_empty());
        assert!(!s.contains(&cfg(&[0, 0])));
        assert_eq!(s.to_string(), "∅");
        assert_eq!(s.norm(), 0);
    }

    #[test]
    fn display_forms() {
        let elem = BasisElement::new(cfg(&[1, 0]), [StateId::new(1)]);
        assert_eq!(elem.to_string(), "(⟨1·q0⟩, {q1})");
        let i = Ideal::new(vec![Some(3), None]);
        assert_eq!(i.to_string(), "↓⟨3, ω⟩");
    }
}
