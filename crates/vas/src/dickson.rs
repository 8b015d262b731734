//! Dickson's lemma utilities: finding ordered pairs and ordered subsequences
//! in sequences of configurations (Lemma 4.3 of the paper).
//!
//! Dickson's lemma states that every infinite sequence of vectors of `N^d`
//! contains an infinite ordered subsequence.  The paper applies it to the
//! sequence `C₂, C₃, C₄, …` of stable configurations of Lemma 4.2: an ordered
//! pair `C_k ≤ C_ℓ` landing in the same basis element yields the pumping
//! certificate of Lemma 4.1.  On finite prefixes the ordered pair may or may
//! not exist; these functions search for it.

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

/// Extracts a long non-decreasing subsequence (by pointwise order) from the
/// sequence, returning the selected indices.
///
/// The extraction is the classical patience-style dynamic program on the
/// product order: `O(n²·d)` time, exact longest chain.
pub fn extract_increasing_subsequence(seq: &[Config]) -> Vec<usize> {
    let n = seq.len();
    if n == 0 {
        return Vec::new();
    }
    // best[i] = length of the longest chain ending at i; prev[i] = predecessor.
    let mut best = vec![1usize; n];
    let mut prev = vec![usize::MAX; n];
    for j in 0..n {
        for i in 0..j {
            if seq[i].le(&seq[j]) && best[i] + 1 > best[j] {
                best[j] = best[i] + 1;
                prev[j] = i;
            }
        }
    }
    let (mut idx, _) = best
        .iter()
        .enumerate()
        .max_by_key(|(_, &len)| len)
        .expect("non-empty sequence");
    let mut chain = vec![idx];
    while prev[idx] != usize::MAX {
        idx = prev[idx];
        chain.push(idx);
    }
    chain.reverse();
    chain
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
        assert!(extract_increasing_subsequence(&[]).is_empty());
        assert_eq!(extract_increasing_subsequence(&[cfg(&[1])]), vec![0]);
    }

    #[test]
    fn longest_chain_extraction() {
        let seq = vec![
            cfg(&[1, 1]),
            cfg(&[0, 5]),
            cfg(&[2, 1]),
            cfg(&[2, 2]),
            cfg(&[1, 0]),
            cfg(&[3, 3]),
        ];
        let chain = extract_increasing_subsequence(&seq);
        assert_eq!(chain, vec![0, 2, 3, 5]);
        // The chain must indeed be non-decreasing.
        for w in chain.windows(2) {
            assert!(seq[w[0]].le(&seq[w[1]]));
        }
    }

    #[test]
    fn chain_in_monotone_sequence_is_everything() {
        let seq: Vec<Config> = (0..6).map(|i| cfg(&[i, i + 1])).collect();
        assert_eq!(extract_increasing_subsequence(&seq).len(), 6);
    }
}
