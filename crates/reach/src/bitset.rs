//! A fixed-size bitset over configuration identifiers.
//!
//! The closure computations of the reachability layer (forward/backward
//! fixpoints, stable sets) touch every node of graphs with hundreds of
//! thousands of configurations; a packed `u64`-word bitset keeps the
//! membership structures 8× smaller than `Vec<bool>` and makes whole-set
//! operations (union, complement checks) word-parallel.

use serde::{Deserialize, Serialize};

/// A fixed-capacity set of `u32` identifiers packed into 64-bit words.
///
/// # Examples
///
/// ```
/// use popproto_reach::BitSet;
///
/// let mut s = BitSet::new(130);
/// s.insert(0);
/// s.insert(129);
/// assert!(s.contains(0) && s.contains(129) && !s.contains(64));
/// assert_eq!(s.count(), 2);
/// assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 129]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// Creates an empty set with capacity for identifiers `0..len`.
    pub fn new(len: usize) -> Self {
        BitSet {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// The capacity (number of addressable identifiers).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the capacity is zero.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns `true` if `id` is in the set.
    pub fn contains(&self, id: u32) -> bool {
        let id = id as usize;
        debug_assert!(id < self.len);
        self.words[id / 64] & (1u64 << (id % 64)) != 0
    }

    /// Inserts `id`; returns `true` if it was not already present.
    pub fn insert(&mut self, id: u32) -> bool {
        let idx = id as usize;
        debug_assert!(idx < self.len);
        let word = &mut self.words[idx / 64];
        let bit = 1u64 << (idx % 64);
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }

    /// Removes `id` from the set.
    pub fn remove(&mut self, id: u32) {
        let idx = id as usize;
        debug_assert!(idx < self.len);
        self.words[idx / 64] &= !(1u64 << (idx % 64));
    }

    /// Number of identifiers in the set.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns `true` if no identifier is in the set.
    pub fn is_clear(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Iterates over the members in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            let mut w = word;
            std::iter::from_fn(move || {
                if w == 0 {
                    return None;
                }
                let bit = w.trailing_zeros();
                w &= w - 1;
                Some(wi as u32 * 64 + bit)
            })
        })
    }

    /// The first identifier not in the set, if any.
    pub(crate) fn first_absent(&self) -> Option<u32> {
        for (wi, &word) in self.words.iter().enumerate() {
            if word != u64::MAX {
                let id = wi as u32 * 64 + (!word).trailing_zeros();
                if (id as usize) < self.len {
                    return Some(id);
                }
                return None;
            }
        }
        None
    }

    /// The complement within `0..len`.
    pub fn complement(&self) -> BitSet {
        let mut out = self.clone();
        out.invert();
        out
    }

    /// Replaces the set by its complement within `0..len`.
    pub(crate) fn invert(&mut self) {
        for w in &mut self.words {
            *w = !*w;
        }
        // Mask the padding bits of the last word.
        if !self.len.is_multiple_of(64) {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << (self.len % 64)) - 1;
            }
        }
    }

    /// Empties the set and gives it capacity `len`, keeping its buffer.
    pub(crate) fn reset(&mut self, len: usize) {
        self.words.clear();
        self.words.resize(len.div_ceil(64), 0);
        self.len = len;
    }

    /// Approximate heap usage in bytes (the packed word buffer).
    pub fn heap_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(200);
        assert!(s.is_clear());
        assert!(s.insert(63));
        assert!(s.insert(64));
        assert!(!s.insert(64));
        assert!(s.contains(63) && s.contains(64));
        s.remove(63);
        assert!(!s.contains(63));
        assert_eq!(s.count(), 1);
        assert!(!s.is_clear());
    }

    #[test]
    fn iteration_and_complement() {
        let mut s = BitSet::new(70);
        for id in [0u32, 1, 65, 69] {
            s.insert(id);
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 1, 65, 69]);
        let c = s.complement();
        assert_eq!(c.count(), 70 - 4);
        assert!(c.contains(2) && !c.contains(0) && !c.contains(69));
    }

    #[test]
    fn reset_and_invert_reuse_the_buffer() {
        let mut s = BitSet::new(200);
        s.insert(150);
        s.reset(70);
        assert_eq!(s, BitSet::new(70));
        s.insert(3);
        s.invert();
        assert_eq!(s.count(), 69);
        assert!(!s.contains(3) && s.contains(69));
    }

    #[test]
    fn first_absent_handles_full_words() {
        let mut s = BitSet::new(65);
        for id in 0..64 {
            s.insert(id);
        }
        assert_eq!(s.first_absent(), Some(64));
        s.insert(64);
        assert_eq!(s.first_absent(), None);
        assert!(BitSet::new(0).first_absent().is_none());
    }

    #[test]
    fn serde_roundtrip() {
        let mut s = BitSet::new(100);
        s.insert(42);
        let json = serde_json::to_string(&s).unwrap();
        let back: BitSet = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }
}
