//! Dense integer vectors used for displacements and Diophantine systems.

use popproto_model::Config;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, Neg, Sub};

/// A dense vector over the integers.
///
/// # Examples
///
/// ```
/// use popproto_vas::ZVec;
/// let a = ZVec::from(vec![1, -2, 3]);
/// let b = ZVec::from(vec![0, 2, -3]);
/// assert_eq!((a.clone() + b).entries(), &[1, 0, 0]);
/// assert_eq!(a.norm_inf(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ZVec {
    entries: Vec<i64>,
}

impl ZVec {
    /// The zero vector of the given dimension.
    pub fn zero(dim: usize) -> Self {
        ZVec {
            entries: vec![0; dim],
        }
    }

    /// The `i`-th unit vector of the given dimension.
    pub fn unit(dim: usize, i: usize) -> Self {
        let mut v = ZVec::zero(dim);
        v.entries[i] = 1;
        v
    }

    /// The dimension of the vector.
    pub fn dim(&self) -> usize {
        self.entries.len()
    }

    /// The entries of the vector.
    pub fn entries(&self) -> &[i64] {
        &self.entries
    }

    /// The entry at index `i`.
    pub fn get(&self, i: usize) -> i64 {
        self.entries[i]
    }

    /// Sets the entry at index `i`.
    pub fn set(&mut self, i: usize, v: i64) {
        self.entries[i] = v;
    }

    /// The ∞-norm `‖v‖_∞ = max |vᵢ|`.
    pub fn norm_inf(&self) -> u64 {
        self.entries
            .iter()
            .map(|e| e.unsigned_abs())
            .max()
            .unwrap_or(0)
    }

    /// Returns `true` if all entries are zero.
    pub fn is_zero(&self) -> bool {
        self.entries.iter().all(|&e| e == 0)
    }

    /// The dot product with another vector.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn dot(&self, other: &ZVec) -> i64 {
        assert_eq!(self.dim(), other.dim(), "dimension mismatch");
        self.entries
            .iter()
            .zip(&other.entries)
            .map(|(a, b)| a * b)
            .sum()
    }

    /// Adds `k` times `other` to this vector.
    pub(crate) fn add_scaled(&mut self, other: &ZVec, k: i64) {
        assert_eq!(self.dim(), other.dim(), "dimension mismatch");
        for (a, b) in self.entries.iter_mut().zip(&other.entries) {
            *a += k * b;
        }
    }

    /// Converts a configuration into the corresponding non-negative vector.
    pub(crate) fn from_config(c: &Config) -> ZVec {
        ZVec {
            entries: c.counts().iter().map(|&x| x as i64).collect(),
        }
    }

    /// Converts a non-negative vector into a configuration.
    ///
    /// Returns `None` if any entry is negative.
    pub(crate) fn to_config(&self) -> Option<Config> {
        let counts = self
            .entries
            .iter()
            .map(|&e| u64::try_from(e).ok())
            .collect::<Option<Vec<_>>>()?;
        Some(Config::from_counts(counts))
    }

    /// Pointwise order `v ≤ w`.
    pub fn le(&self, other: &ZVec) -> bool {
        assert_eq!(self.dim(), other.dim(), "dimension mismatch");
        self.entries.iter().zip(&other.entries).all(|(a, b)| a <= b)
    }
}

impl From<Vec<i64>> for ZVec {
    fn from(entries: Vec<i64>) -> Self {
        ZVec { entries }
    }
}

impl Add for ZVec {
    type Output = ZVec;
    fn add(mut self, rhs: ZVec) -> ZVec {
        self.add_scaled(&rhs, 1);
        self
    }
}

impl Sub for ZVec {
    type Output = ZVec;
    fn sub(mut self, rhs: ZVec) -> ZVec {
        self.add_scaled(&rhs, -1);
        self
    }
}

impl Neg for ZVec {
    type Output = ZVec;
    fn neg(mut self) -> ZVec {
        for e in &mut self.entries {
            *e = -*e;
        }
        self
    }
}

impl fmt::Display for ZVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_norms() {
        let v = ZVec::from(vec![3, -4, 0]);
        assert_eq!(v.dim(), 3);
        assert_eq!(v.norm_inf(), 4);
        assert!(!v.is_zero());
        assert!(ZVec::zero(5).is_zero());
        assert_eq!(ZVec::unit(3, 1).entries(), &[0, 1, 0]);
    }

    #[test]
    fn arithmetic() {
        let a = ZVec::from(vec![1, 2]);
        let b = ZVec::from(vec![3, -1]);
        assert_eq!((a.clone() + b.clone()).entries(), &[4, 1]);
        assert_eq!((a.clone() - b.clone()).entries(), &[-2, 3]);
        assert_eq!((-a.clone()).entries(), &[-1, -2]);
        assert_eq!(a.dot(&b), 1);
        let mut c = a.clone();
        c.add_scaled(&b, 2);
        assert_eq!(c.entries(), &[7, 0]);
    }

    #[test]
    fn config_conversions() {
        let c = Config::from_counts(vec![2, 0, 5]);
        let v = ZVec::from_config(&c);
        assert_eq!(v.entries(), &[2, 0, 5]);
        assert_eq!(v.to_config(), Some(c));
        assert_eq!(ZVec::from(vec![1, -1]).to_config(), None);
    }

    #[test]
    fn pointwise_order() {
        let a = ZVec::from(vec![1, 2, 3]);
        let b = ZVec::from(vec![1, 3, 3]);
        assert!(a.le(&b));
        assert!(!b.le(&a));
        assert!(a.le(&a));
    }

    #[test]
    fn display() {
        assert_eq!(ZVec::from(vec![1, -2]).to_string(), "[1, -2]");
    }
}
