//! Parikh images of transition sequences and the potential-reachability
//! relation `C =π⇒ C'` of Section 5.1.

use crate::vector::ZVec;
use popproto_model::{Config, Protocol};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The Parikh image (multiset) of a sequence of transitions: how many times
/// each explicit transition of a protocol occurs, regardless of order.
///
/// # Examples
///
/// ```
/// use popproto_model::{Output, ProtocolBuilder};
/// use popproto_vas::ParikhImage;
///
/// # fn main() -> Result<(), popproto_model::ProtocolError> {
/// let mut b = ProtocolBuilder::new("demo");
/// let a = b.add_state("a", Output::False);
/// let acc = b.add_state("acc", Output::True);
/// b.add_transition((a, a), (acc, acc))?;
/// b.set_input_state("x", a);
/// let p = b.build()?;
///
/// let mut pi = ParikhImage::empty(p.num_transitions());
/// pi.add(0, 2); // fire transition 0 twice
/// let ic = p.initial_config_unary(4);
/// let result = pi.apply(&p, &ic).expect("stays non-negative");
/// assert_eq!(result.counts(), &[0, 4]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ParikhImage {
    counts: Vec<u64>,
}

impl ParikhImage {
    /// The empty multiset over `num_transitions` transitions.
    pub fn empty(num_transitions: usize) -> Self {
        ParikhImage {
            counts: vec![0; num_transitions],
        }
    }

    /// Builds a Parikh image from explicit per-transition counts.
    pub fn from_counts(counts: Vec<u64>) -> Self {
        ParikhImage { counts }
    }

    /// The number of transitions the image ranges over.
    pub fn num_transitions(&self) -> usize {
        self.counts.len()
    }

    /// The multiplicity of transition `t`.
    pub fn get(&self, t: usize) -> u64 {
        self.counts[t]
    }

    /// Adds `count` occurrences of transition `t`.
    pub fn add(&mut self, t: usize, count: u64) {
        self.counts[t] += count;
    }

    /// The per-transition counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// The total number of transition occurrences `|π|`.
    pub fn size(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Returns `true` if the multiset is empty.
    pub fn is_empty(&self) -> bool {
        self.counts.iter().all(|&c| c == 0)
    }

    /// Pointwise sum of two Parikh images.
    ///
    /// # Panics
    ///
    /// Panics if the images range over different transition sets.
    pub fn plus(&self, other: &ParikhImage) -> ParikhImage {
        assert_eq!(self.num_transitions(), other.num_transitions());
        ParikhImage {
            counts: self
                .counts
                .iter()
                .zip(&other.counts)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }

    /// The displacement `Δπ = Σ_t π(t)·Δt` over the states of `protocol`.
    pub fn displacement(&self, protocol: &Protocol) -> ZVec {
        let n = protocol.num_states();
        let mut d = ZVec::zero(n);
        for (t_idx, &count) in self.counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let dt = protocol.transitions()[t_idx].displacement(n);
            for (q, &delta) in dt.iter().enumerate() {
                d.set(q, d.get(q) + delta * count as i64);
            }
        }
        d
    }

    /// The potential step `C =π⇒ C'` (Section 5.1): `C' = C + Δπ`.
    ///
    /// Returns `None` if some state count would become negative — in that
    /// case no ordering of the transitions can realise the multiset from `C`.
    pub fn apply(&self, protocol: &Protocol, c: &Config) -> Option<Config> {
        let d = self.displacement(protocol);
        let mut v = ZVec::from_config(c);
        v.add_scaled(&d, 1);
        v.to_config()
    }
}

impl fmt::Display for ParikhImage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⦃")?;
        let mut first = true;
        for (t, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{c}·t{t}")?;
            first = false;
        }
        if first {
            write!(f, "∅")?;
        }
        write!(f, "⦄")
    }
}

/// The displacement matrix of a protocol: one row per state, one column per
/// explicit transition, entry `(q, t) = Δt(q)`.
pub(crate) fn displacement_matrix(protocol: &Protocol) -> Vec<Vec<i64>> {
    let n = protocol.num_states();
    let m = protocol.num_transitions();
    let mut rows = vec![vec![0i64; m]; n];
    for (t_idx, t) in protocol.transitions().iter().enumerate() {
        for (q, &delta) in t.displacement(n).iter().enumerate() {
            rows[q][t_idx] = delta;
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use popproto_model::{Output, ProtocolBuilder};

    /// A 3-state protocol: 1,1 ↦ 0,2 and a,2 ↦ 2,2.
    fn counting_protocol() -> Protocol {
        let mut b = ProtocolBuilder::new("count");
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
    fn construction_and_size() {
        let pi = ParikhImage::from_counts(vec![2, 0, 1]);
        assert_eq!(pi.counts(), &[2, 0, 1]);
        assert_eq!(pi.size(), 3);
        assert!(!pi.is_empty());
        assert!(ParikhImage::empty(3).is_empty());
        assert_eq!(pi.get(0), 2);
    }

    #[test]
    fn displacement_sums_transitions() {
        let p = counting_protocol();
        // Two firings of t0 (1,1 ↦ 0,2): Δ = (+2, -4, +2).
        let pi = ParikhImage::from_counts(vec![2, 0, 0]);
        assert_eq!(pi.displacement(&p).entries(), &[2, -4, 2]);
        // Mixed multiset.
        let pi = ParikhImage::from_counts(vec![1, 1, 0]);
        assert_eq!(pi.displacement(&p).entries(), &[0, -2, 2]);
    }

    #[test]
    fn apply_checks_nonnegativity() {
        let p = counting_protocol();
        let ic = p.initial_config_unary(4);
        let ok = ParikhImage::from_counts(vec![2, 0, 0]).apply(&p, &ic);
        assert_eq!(ok.unwrap().counts(), &[2, 0, 2]);
        // Firing t0 three times from 4 agents would need 6 agents in state 1.
        let too_many = ParikhImage::from_counts(vec![3, 0, 0]).apply(&p, &ic);
        assert_eq!(too_many, None);
    }

    #[test]
    fn apply_matches_sequential_firing_when_realisable() {
        let p = counting_protocol();
        let ic = p.initial_config_unary(2);
        // Fire t0 then t1: ⟨2·q1⟩ → ⟨1·q0, 1·q2⟩ → ⟨2·q2⟩.
        let after_t0 = p.transitions()[0].fire(&ic).unwrap();
        let after_t1 = p.transitions()[1].fire(&after_t0).unwrap();
        let pi = ParikhImage::from_counts(vec![1, 1, 0]);
        assert_eq!(pi.apply(&p, &ic), Some(after_t1));
    }

    #[test]
    fn plus_is_pointwise() {
        let a = ParikhImage::from_counts(vec![1, 0, 2]);
        let b = ParikhImage::from_counts(vec![0, 3, 1]);
        assert_eq!(a.plus(&b).counts(), &[1, 3, 3]);
    }

    #[test]
    fn matrix_shape_and_entries() {
        let p = counting_protocol();
        let m = displacement_matrix(&p);
        assert_eq!(m.len(), 3); // states
        assert_eq!(m[0].len(), 3); // transitions
                                   // t0 = (1,1 ↦ 0,2): column 0 is (+1, -2, +1).
        assert_eq!((m[0][0], m[1][0], m[2][0]), (1, -2, 1));
        // t1 = (0,2 ↦ 2,2): column 1 is (-1, 0, +1).
        assert_eq!((m[0][1], m[1][1], m[2][1]), (-1, 0, 1));
    }

    #[test]
    fn display_hides_zero_entries() {
        let pi = ParikhImage::from_counts(vec![0, 2, 0]);
        assert_eq!(pi.to_string(), "⦃2·t1⦄");
        assert_eq!(ParikhImage::empty(2).to_string(), "⦃∅⦄");
    }
}
