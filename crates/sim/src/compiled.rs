//! A protocol compiled into dense lookup tables for the simulation hot path.
//!
//! [`Protocol`] stores transitions as a flat list,
//! so answering "which transitions apply to the pair `⦃a, b⦄`?" is an O(T)
//! scan that allocates a fresh `Vec` — unacceptable at millions of
//! interactions per second.  `CompiledProtocol` is built once per
//! simulation and answers the same question with one index computation and a
//! slice lookup:
//!
//! * a dense upper-triangular *pair table* maps every unordered state pair to
//!   its candidate transitions;
//! * every transition carries a precomputed `Delta`: the at-most-4
//!   `(state, change)` entries to apply to the counts vector, so firing a
//!   transition never clones a configuration;
//! * the pairs that enable at least one non-silent transition are indexed
//!   per state, which lets the engines maintain a *count of enabled
//!   non-silent pairs* incrementally (O(|Q|) per effective interaction) and
//!   detect silence in O(1).

use crate::sampling::AliasTable;
use popproto_model::Protocol;

/// The per-state count changes caused by firing one transition.
///
/// A transition touches at most 4 distinct states (2 consumed, 2 produced);
/// entries hold `(state index, signed change)` with all states distinct.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Delta {
    len: u8,
    entries: [(u32, i32); 4],
}

impl Delta {
    /// The `(state, change)` entries with non-zero change.
    #[inline]
    pub fn entries(&self) -> &[(u32, i32)] {
        &self.entries[..self.len as usize]
    }

    /// Applies the delta to a raw counts slice.
    ///
    /// # Panics
    ///
    /// Debug-panics on underflow; callers guarantee the pre-states are
    /// populated (the interacting agents were sampled from `counts`).
    #[inline]
    pub fn apply(&self, counts: &mut [u64]) {
        for &(q, d) in self.entries() {
            let c = &mut counts[q as usize];
            let next = *c as i64 + d as i64;
            debug_assert!(next >= 0, "delta underflow on state {q}");
            *c = next as u64;
        }
    }
}

/// A [`Protocol`] lowered into dense tables for fast simulation.
#[derive(Debug, Clone)]
pub(crate) struct CompiledProtocol {
    num_states: usize,
    /// Prefix offsets into `candidates`, one slot per unordered pair
    /// (upper-triangular indexing); length `P + 1`.
    pair_starts: Vec<u32>,
    /// Transition indices grouped by pre-pair.
    candidates: Vec<u32>,
    /// Per-transition count deltas.
    deltas: Vec<Delta>,
    /// Per-transition silence flags (`pre == post`).
    non_silent: Vec<bool>,
    /// Post pair `(lo, hi)` per transition, for the batched engine.
    posts: Vec<(u32, u32)>,
    /// For each state, the indices of non-silent pairs containing it.
    non_silent_pairs_by_state: Vec<Vec<u32>>,
    /// All non-silent pair indices (for full silence recomputation).
    non_silent_pairs: Vec<u32>,
    /// Flat `(lo, hi)` per dense pair index — O(1) inversion of the
    /// triangular indexing on the hot path.
    pair_los: Vec<u32>,
    pair_his: Vec<u32>,
    /// Uniform alias table per nondeterministic pair (≥ 2 candidates),
    /// `None` elsewhere — built once here so neither engine allocates on
    /// the candidate-split hot path.
    candidate_alias: Vec<Option<AliasTable>>,
}

impl CompiledProtocol {
    /// Compiles `protocol` into dense lookup tables.
    pub fn new(protocol: &Protocol) -> Self {
        let q = protocol.num_states();
        let num_pairs = q * (q + 1) / 2;
        let transitions = protocol.transitions();

        // Group transition indices by pre-pair.
        let mut by_pair: Vec<Vec<u32>> = vec![Vec::new(); num_pairs];
        for (t_idx, t) in transitions.iter().enumerate() {
            let pidx = pair_index(q, t.pre.lo().index(), t.pre.hi().index());
            by_pair[pidx].push(t_idx as u32);
        }
        let mut pair_starts = Vec::with_capacity(num_pairs + 1);
        let mut candidates = Vec::with_capacity(transitions.len());
        pair_starts.push(0u32);
        for bucket in &by_pair {
            candidates.extend_from_slice(bucket);
            pair_starts.push(candidates.len() as u32);
        }

        // Per-transition deltas and silence flags.
        let mut deltas = Vec::with_capacity(transitions.len());
        let mut non_silent = Vec::with_capacity(transitions.len());
        let mut posts = Vec::with_capacity(transitions.len());
        for t in transitions {
            let mut changes = vec![0i64; q];
            changes[t.pre.lo().index()] -= 1;
            changes[t.pre.hi().index()] -= 1;
            changes[t.post.lo().index()] += 1;
            changes[t.post.hi().index()] += 1;
            let mut delta = Delta::default();
            for (state, &d) in changes.iter().enumerate() {
                if d != 0 {
                    delta.entries[delta.len as usize] = (state as u32, d as i32);
                    delta.len += 1;
                }
            }
            deltas.push(delta);
            non_silent.push(!t.is_silent());
            posts.push((t.post.lo().index() as u32, t.post.hi().index() as u32));
        }

        // Pairs enabling at least one non-silent transition.
        let mut pair_non_silent = vec![false; num_pairs];
        for (t_idx, t) in transitions.iter().enumerate() {
            if non_silent[t_idx] {
                let pidx = pair_index(q, t.pre.lo().index(), t.pre.hi().index());
                pair_non_silent[pidx] = true;
            }
        }
        let mut non_silent_pairs_by_state: Vec<Vec<u32>> = vec![Vec::new(); q];
        let mut non_silent_pairs = Vec::new();
        let mut pair_los = vec![0u32; num_pairs];
        let mut pair_his = vec![0u32; num_pairs];
        for lo in 0..q {
            for hi in lo..q {
                let pidx = pair_index(q, lo, hi);
                pair_los[pidx] = lo as u32;
                pair_his[pidx] = hi as u32;
                if pair_non_silent[pidx] {
                    non_silent_pairs.push(pidx as u32);
                    non_silent_pairs_by_state[lo].push(pidx as u32);
                    if hi != lo {
                        non_silent_pairs_by_state[hi].push(pidx as u32);
                    }
                }
            }
        }

        let candidate_alias = by_pair
            .iter()
            .map(|bucket| {
                if bucket.len() >= 2 {
                    Some(AliasTable::uniform(bucket.len()))
                } else {
                    None
                }
            })
            .collect();

        CompiledProtocol {
            num_states: q,
            pair_starts,
            candidates,
            deltas,
            non_silent,
            posts,
            non_silent_pairs_by_state,
            non_silent_pairs,
            pair_los,
            pair_his,
            candidate_alias,
        }
    }

    /// The number of states `|Q|`.
    #[inline]
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// The dense index of the unordered pair `⦃a, b⦄`.
    #[inline]
    pub(crate) fn pair_index_of(&self, a: usize, b: usize) -> usize {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        pair_index(self.num_states, lo, hi)
    }

    /// The candidate transition indices for the pair with dense index `pidx`.
    #[inline]
    pub fn candidates(&self, pidx: usize) -> &[u32] {
        let start = self.pair_starts[pidx] as usize;
        let end = self.pair_starts[pidx + 1] as usize;
        &self.candidates[start..end]
    }

    /// The count delta of transition `t`.
    #[inline]
    pub fn delta(&self, t: u32) -> &Delta {
        &self.deltas[t as usize]
    }

    /// Whether transition `t` changes configurations.
    #[inline]
    pub(crate) fn is_non_silent(&self, t: u32) -> bool {
        self.non_silent[t as usize]
    }

    /// The post pair `(lo, hi)` of transition `t` as state indices.
    #[inline]
    pub fn post(&self, t: u32) -> (usize, usize) {
        let (lo, hi) = self.posts[t as usize];
        (lo as usize, hi as usize)
    }

    /// The cached uniform alias table over the candidates of pair `pidx`,
    /// present exactly when the pair is nondeterministic (≥ 2 candidates).
    #[inline]
    pub(crate) fn candidate_alias(&self, pidx: usize) -> Option<&AliasTable> {
        self.candidate_alias[pidx].as_ref()
    }

    /// The non-silent pair indices containing state `q`.
    #[inline]
    pub(crate) fn non_silent_pairs_of(&self, q: usize) -> &[u32] {
        &self.non_silent_pairs_by_state[q]
    }

    /// All non-silent pair indices.
    #[inline]
    pub(crate) fn non_silent_pairs(&self) -> &[u32] {
        &self.non_silent_pairs
    }

    /// Whether the pair with dense index `pidx` is enabled at `counts`
    /// (two distinct agents populating its states exist).
    #[inline]
    pub(crate) fn pair_enabled(&self, pidx: usize, counts: &[u64]) -> bool {
        let (lo, hi) = self.pair_states(pidx);
        if lo == hi {
            counts[lo] >= 2
        } else {
            counts[lo] >= 1 && counts[hi] >= 1
        }
    }

    /// Recovers the `(lo, hi)` states of a dense pair index — O(1) table
    /// lookup.
    #[inline]
    pub(crate) fn pair_states(&self, pidx: usize) -> (usize, usize) {
        (self.pair_los[pidx] as usize, self.pair_his[pidx] as usize)
    }

    /// Decides silence of `counts` by scanning the non-silent pairs — O(|Q|²)
    /// worst case, used by the batched engine once per batch.
    pub(crate) fn is_silent_counts(&self, counts: &[u64]) -> bool {
        !self
            .non_silent_pairs
            .iter()
            .any(|&pidx| self.pair_enabled(pidx as usize, counts))
    }
}

/// Dense upper-triangular index of the pair `(lo, hi)` with `lo ≤ hi` over
/// `q` states: row `lo` starts after `lo` rows of lengths `q, q-1, …`.
#[inline]
fn pair_index(q: usize, lo: usize, hi: usize) -> usize {
    debug_assert!(lo <= hi && hi < q);
    lo * q - lo * (lo + 1) / 2 + lo + (hi - lo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use popproto_model::{Config, Output, Pair, ProtocolBuilder, StateId};

    fn example() -> Protocol {
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
    fn pair_indexing_is_a_bijection() {
        for q in 1..8usize {
            let mut seen = vec![false; q * (q + 1) / 2];
            for lo in 0..q {
                for hi in lo..q {
                    let idx = pair_index(q, lo, hi);
                    assert!(!seen[idx], "pair ({lo},{hi}) collides at {idx}");
                    seen[idx] = true;
                }
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn pair_states_inverts_pair_index() {
        let p = example();
        let c = CompiledProtocol::new(&p);
        for lo in 0..3 {
            for hi in lo..3 {
                let idx = c.pair_index_of(lo, hi);
                assert_eq!(c.pair_states(idx), (lo, hi));
            }
        }
    }

    #[test]
    fn candidates_match_protocol_lookup() {
        let p = example();
        let c = CompiledProtocol::new(&p);
        for lo in 0..p.num_states() {
            for hi in lo..p.num_states() {
                let pair = Pair::new(StateId::new(lo), StateId::new(hi));
                let slow: Vec<u32> = p
                    .transitions_from(pair)
                    .into_iter()
                    .map(|i| i as u32)
                    .collect();
                let fast = c.candidates(c.pair_index_of(lo, hi));
                assert_eq!(fast, slow.as_slice(), "pair ({lo},{hi})");
            }
        }
    }

    #[test]
    fn deltas_match_displacements() {
        let p = example();
        let c = CompiledProtocol::new(&p);
        for (i, t) in p.transitions().iter().enumerate() {
            let mut dense = vec![0i64; p.num_states()];
            for &(q, d) in c.delta(i as u32).entries() {
                dense[q as usize] = d as i64;
            }
            assert_eq!(dense, t.displacement(p.num_states()));
        }
    }

    #[test]
    fn delta_application_matches_fire() {
        let p = example();
        let c = CompiledProtocol::new(&p);
        let config = Config::from_counts(vec![1, 4, 2]);
        for (i, t) in p.transitions().iter().enumerate() {
            if let Some(next) = t.fire(&config) {
                let mut counts = config.counts().to_vec();
                c.delta(i as u32).apply(&mut counts);
                assert_eq!(counts.as_slice(), next.counts());
            }
        }
    }

    #[test]
    fn silence_agrees_with_protocol() {
        let p = example();
        let c = CompiledProtocol::new(&p);
        for counts in [vec![2, 0, 0], vec![0, 2, 0], vec![0, 0, 2], vec![1, 0, 1]] {
            let config = Config::from_counts(counts.clone());
            assert_eq!(
                c.is_silent_counts(&counts),
                p.is_silent_config(&config),
                "counts {counts:?}"
            );
        }
    }
}
