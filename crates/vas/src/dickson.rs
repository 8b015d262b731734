//! Dickson's lemma utilities: finding ordered pairs in sequences of
//! configurations (Lemma 4.3 of the paper).
//!
//! Dickson's lemma states that every infinite sequence of vectors of `N^d`
//! contains an infinite ordered subsequence.  The paper applies it to the
//! sequence `C₂, C₃, C₄, …` of stable configurations of Lemma 4.2: an ordered
//! pair `C_k ≤ C_ℓ` landing in the same basis element yields the pumping
//! certificate of Lemma 4.1.  On finite prefixes the ordered pair may or may
//! not exist; [`find_increasing_pair`] searches for it.

use popproto_model::Config;

/// Finds the first (lexicographically smallest by `(j, i)`) pair of indices
/// `i < j` with `seq[i] ≤ seq[j]` in the pointwise order.
///
/// Returns `None` if the finite prefix is a *bad sequence* (an antichain in
/// the scattered-subword sense).
///
/// # Examples
///
/// ```
/// use popproto_model::Config;
/// use popproto_vas::find_increasing_pair;
///
/// let seq = vec![
///     Config::from_counts(vec![2, 0]),
///     Config::from_counts(vec![1, 1]),
///     Config::from_counts(vec![1, 2]),
/// ];
/// assert_eq!(find_increasing_pair(&seq), Some((1, 2)));
/// ```
pub fn find_increasing_pair(seq: &[Config]) -> Option<(usize, usize)> {
    for j in 1..seq.len() {
        for i in 0..j {
            if seq[i].le(&seq[j]) {
                return Some((i, j));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(counts: &[u64]) -> Config {
        Config::from_counts(counts.to_vec())
    }

    #[test]
    fn increasing_pair_found() {
        let seq = vec![cfg(&[3, 0]), cfg(&[2, 1]), cfg(&[3, 1])];
        assert_eq!(find_increasing_pair(&seq), Some((0, 2)));
    }

    #[test]
    fn bad_sequence_detected() {
        // Strictly decreasing in the first coordinate, increasing in the second
        // only when the first drops: an antichain.
        let seq = vec![cfg(&[3, 0]), cfg(&[2, 1]), cfg(&[1, 2]), cfg(&[0, 3])];
        assert_eq!(find_increasing_pair(&seq), None);
    }

    #[test]
    fn equal_elements_form_a_pair() {
        let seq = vec![cfg(&[1, 1]), cfg(&[1, 1])];
        assert_eq!(find_increasing_pair(&seq), Some((0, 1)));
    }

    #[test]
    fn empty_and_singleton_sequences() {
        assert_eq!(find_increasing_pair(&[]), None);
        assert_eq!(find_increasing_pair(&[cfg(&[1])]), None);
    }
}
