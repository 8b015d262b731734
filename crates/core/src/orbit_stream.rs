//! The streaming generator layer of the busy-beaver pipeline: a lazy
//! iterator over **canonical orbit representatives** of the deterministic
//! candidate space.
//!
//! The previous search walked the encoded candidate space eagerly inside its
//! scan loop; that is fine while a worker's range fits in one pass, but the
//! 4-state space has ~10¹⁰ relabelling orbits — it can neither be
//! materialised nor finished in one sitting.  This module splits the
//! *generation* of canonical candidates from their *triage*
//! ([`CandidatePipeline`](crate::candidate_pipeline::CandidatePipeline)):
//!
//! * [`OrbitSpace`] describes the encoded space of one state count — the
//!   unordered state pairs, the candidate indexing (little-endian base-`|P|`
//!   transition assignment, then the output bits) and the relabelling group
//!   fixing the input state 0;
//! * [`OrbitStream`] walks any index range `[start, end)` lazily, yielding
//!   exactly the candidates whose encoding index is minimal within their
//!   orbit, in increasing index order — the same set, in the same order, as
//!   a full materialised scan (a property-tested invariant).  It classifies
//!   each function index once, not each candidate: a function index that
//!   some relabelling makes smaller rules out all `2ⁿ` output patterns of
//!   its block at once, and in the other blocks a pattern is canonical iff
//!   the relabellings fixing the function index (its stabiliser) cannot
//!   make its output bitmask smaller.
//!
//! Candidate indices are `u128` (the 4-state space alone has `10¹⁰·16`
//! encodings); the vendored serde stack has no native `u128`, so
//! checkpoints store indices as explicit [`U128Parts`].

use popproto_model::{Output, Protocol, ProtocolBuilder, StateId};
use serde::{Deserialize, Serialize};

/// A `u128` split into two `u64` halves for serialisation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct U128Parts {
    /// The high 64 bits.
    pub hi: u64,
    /// The low 64 bits.
    pub lo: u64,
}

impl From<u128> for U128Parts {
    fn from(v: u128) -> Self {
        U128Parts {
            hi: (v >> 64) as u64,
            lo: v as u64,
        }
    }
}

impl U128Parts {
    /// Reassembles the `u128`.
    pub fn get(self) -> u128 {
        ((self.hi as u128) << 64) | self.lo as u128
    }
}

/// Static description of the deterministic candidate space for one state
/// count: every protocol over states `0..n` with at most one transition per
/// unordered state pair, input state fixed to 0.
///
/// A candidate index `k` decodes as `k = f · 2ⁿ + outputs` where `outputs`
/// is the accepting-state bitmask and `f` is the little-endian base-`|P|`
/// number whose `i`-th digit names the post pair of pre pair `i` (`|P| =
/// n(n+1)/2` unordered pairs, digit `i` = pair `i` itself meaning "no
/// transition").
#[derive(Debug, Clone)]
pub struct OrbitSpace {
    num_states: usize,
    /// Unordered pairs `(a, b)` with `a ≤ b`, in enumeration order; also the
    /// list of possible post pairs (a transition maps a pair to a pair).
    pairs: Vec<(usize, usize)>,
    /// `pair_index[a][b]` = position of `⦃a, b⦄` in `pairs` (symmetric).
    pair_index: Vec<Vec<usize>>,
    /// Non-identity permutations of `0..num_states` fixing state 0.
    perms: Vec<Vec<usize>>,
    /// Number of post choices per pair (= `pairs.len()`).
    choices: u128,
    /// Number of output assignments (= `2^num_states`).
    output_patterns: u128,
}

impl OrbitSpace {
    /// Builds the space description for `num_states` states.
    pub fn new(num_states: usize) -> Self {
        let pairs: Vec<(usize, usize)> = (0..num_states)
            .flat_map(|a| (a..num_states).map(move |b| (a, b)))
            .collect();
        let mut pair_index = vec![vec![0usize; num_states]; num_states];
        for (i, &(a, b)) in pairs.iter().enumerate() {
            pair_index[a][b] = i;
            pair_index[b][a] = i;
        }
        let perms = permutations_fixing_zero(num_states);
        OrbitSpace {
            num_states,
            choices: pairs.len() as u128,
            output_patterns: 1u128 << num_states,
            pairs,
            pair_index,
            perms,
        }
    }

    /// The state count of every candidate.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// The unordered state pairs in enumeration order.
    pub fn pairs(&self) -> &[(usize, usize)] {
        &self.pairs
    }

    /// Position of the unordered pair `⦃a, b⦄` in [`OrbitSpace::pairs`].
    pub fn pair_position(&self, a: usize, b: usize) -> usize {
        self.pair_index[a][b]
    }

    /// Number of output bitmask patterns (`2^num_states`).
    pub fn output_patterns(&self) -> u128 {
        self.output_patterns
    }

    /// Total number of candidate encodings: `|P|^|P| · 2^n`.
    pub fn total_candidates(&self) -> u128 {
        self.choices
            .checked_pow(self.pairs.len() as u32)
            .and_then(|f| f.checked_mul(self.output_patterns))
            .unwrap_or(u128::MAX)
    }

    /// Decodes the transition-assignment digits of `function_index` into
    /// `assignment` (one post-pair choice per pre pair).
    pub fn decode_assignment(&self, mut function_index: u128, assignment: &mut [usize]) {
        for slot in assignment.iter_mut() {
            *slot = (function_index % self.choices) as usize;
            function_index /= self.choices;
        }
    }

    /// Returns `true` if `(assignment, outputs)` has the smallest encoding
    /// index within its orbit under state relabellings fixing state 0.
    ///
    /// `relabeled` is caller-provided scratch of length `pairs().len()`.
    pub fn is_canonical(
        &self,
        assignment: &[usize],
        outputs: u32,
        relabeled: &mut [usize],
    ) -> bool {
        'perms: for perm in &self.perms {
            for (i, &(a, b)) in self.pairs.iter().enumerate() {
                let j = self.pair_index[perm[a]][perm[b]];
                let (c, d) = self.pairs[assignment[i]];
                relabeled[j] = self.pair_index[perm[c]][perm[d]];
            }
            let mut relabeled_outputs = 0u32;
            for (q, &pq) in perm.iter().enumerate() {
                if (outputs >> q) & 1 == 1 {
                    relabeled_outputs |= 1 << pq;
                }
            }
            // Compare (relabeled, relabeled_outputs) against (assignment,
            // outputs) in candidate-index order: the function index is the
            // little-endian number with digits `assignment[i]` in base
            // `choices` (most significant digit last), then the outputs.
            for i in (0..assignment.len()).rev() {
                if relabeled[i] < assignment[i] {
                    return false;
                }
                if relabeled[i] > assignment[i] {
                    continue 'perms;
                }
            }
            if relabeled_outputs < outputs {
                return false;
            }
        }
        true
    }

    /// Classifies a decoded transition assignment `f` against every
    /// relabelling fixing state 0, for all `2ⁿ` output patterns at once.
    ///
    /// Returns `false` if some relabelling maps `f` to a smaller function
    /// index: then no candidate `(f, outputs)` is canonical.  Otherwise
    /// `stabiliser` receives the relabellings that map `f` to itself, and
    /// `(f, outputs)` is canonical exactly when
    /// [`OrbitSpace::outputs_minimal`] holds for them — together the same
    /// verdict as [`OrbitSpace::is_canonical`].
    ///
    /// `relabeled` is caller-provided scratch of length `pairs().len()`.
    pub(crate) fn classify_function(
        &self,
        assignment: &[usize],
        relabeled: &mut [usize],
        stabiliser: &mut Vec<usize>,
    ) -> bool {
        stabiliser.clear();
        'perms: for (p, perm) in self.perms.iter().enumerate() {
            for (i, &(a, b)) in self.pairs.iter().enumerate() {
                let j = self.pair_index[perm[a]][perm[b]];
                let (c, d) = self.pairs[assignment[i]];
                relabeled[j] = self.pair_index[perm[c]][perm[d]];
            }
            // Most significant digit last, as in `is_canonical`.
            for i in (0..assignment.len()).rev() {
                if relabeled[i] < assignment[i] {
                    return false;
                }
                if relabeled[i] > assignment[i] {
                    continue 'perms;
                }
            }
            stabiliser.push(p);
        }
        true
    }

    /// Returns `true` if no relabelling of `stabiliser` (as filled by
    /// [`OrbitSpace::classify_function`]) maps the output bitmask `outputs`
    /// to a smaller one.
    pub(crate) fn outputs_minimal(&self, stabiliser: &[usize], outputs: u32) -> bool {
        stabiliser.iter().all(|&p| {
            let mut relabeled_outputs = 0u32;
            for (q, &pq) in self.perms[p].iter().enumerate() {
                relabeled_outputs |= ((outputs >> q) & 1) << pq;
            }
            relabeled_outputs >= outputs
        })
    }

    /// Materialises the candidate protocol with encoding index `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is outside the candidate space.
    pub fn protocol_at(&self, k: u128) -> Protocol {
        assert!(k < self.total_candidates(), "candidate index out of range");
        let mut assignment = vec![0usize; self.pairs.len()];
        self.decode_assignment(k / self.output_patterns, &mut assignment);
        self.protocol_from_parts(&assignment, (k % self.output_patterns) as u32)
    }

    /// Materialises the candidate protocol of a decoded
    /// `(assignment, outputs)` pair.
    pub(crate) fn protocol_from_parts(&self, assignment: &[usize], outputs: u32) -> Protocol {
        let mut b = ProtocolBuilder::new(format!("enum-{}", self.num_states));
        let states: Vec<StateId> = (0..self.num_states)
            .map(|i| b.add_state(format!("s{i}"), Output::from_bool((outputs >> i) & 1 == 1)))
            .collect();
        for (&pair, &post_idx) in self.pairs.iter().zip(assignment) {
            let post = self.pairs[post_idx];
            if pair == post {
                continue; // implicit no-op
            }
            b.add_transition_idempotent(
                (states[pair.0], states[pair.1]),
                (states[post.0], states[post.1]),
            )
            .expect("states were just declared");
        }
        b.set_input_state("x", states[0]);
        b.build().expect("candidate construction is well-formed")
    }

    /// The states reachable support-wise from the input state 0: the least
    /// fixpoint of "both pre states covered ⟹ both post states covered".
    ///
    /// This is the Boolean abstraction of the Karp–Miller cover; the set is
    /// forward-closed (no transition leads out of it), which is what makes
    /// the coverable-support fingerprint of the triage layer sound (see
    /// `crates/reach/README.md`).
    pub fn coverable_support(&self, assignment: &[usize], support: &mut [bool]) {
        support.fill(false);
        support[0] = true;
        loop {
            let mut changed = false;
            for (i, &(a, b)) in self.pairs.iter().enumerate() {
                if !(support[a] && support[b]) {
                    continue;
                }
                let (c, d) = self.pairs[assignment[i]];
                if !support[c] {
                    support[c] = true;
                    changed = true;
                }
                if !support[d] {
                    support[d] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
    }
}

/// How a segmented search orders its candidate-index segments.
///
/// The encoded space is index-ordered by construction, and its low indices
/// are **degenerate-heavy**: a small function index has most of its
/// base-`|P|` digits equal to 0, i.e. almost every pair rewrites to pair
/// `(0, 0)` — protocols that collapse immediately and never verify an
/// interesting threshold.  A budgeted prefix search in index order therefore
/// spends its budget on the least interesting corner of the space.
///
/// [`SegmentOrder::EntropyDescending`] instead visits segments in order of
/// decreasing *function-index entropy*: segments whose transition digits are
/// spread over many distinct post pairs come first.  The score is the
/// collision statistic `Σ cᵢ²` of the digit histogram — the exact integer
/// surrogate of Rényi-2 entropy (`H₂ = −log Σ pᵢ²`), so ordering by
/// ascending collision count is ordering by descending H₂ without any
/// floating-point comparison (ties break towards the smaller segment index,
/// keeping the order a total, deterministic function of the space).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SegmentOrder {
    /// Segments in increasing candidate-index order (the PR 4 semantics).
    Index,
    /// Segments in decreasing function-index entropy (Rényi-2), ties by
    /// index.  Non-degenerate candidates surface orders of magnitude
    /// earlier; the processed *set* for a full range is identical.
    EntropyDescending,
}

impl OrbitSpace {
    /// The segment-ordering score of the candidate-index segment starting at
    /// `start`: the digit-collision statistic `Σ cᵢ²` of the segment's first
    /// function index (lower = more uniform digits = higher Rényi-2
    /// entropy).  A pure function of `(space, start)` — every resume and
    /// every worker count recomputes the identical segment order from it.
    pub(crate) fn segment_score(&self, start: u128) -> u64 {
        let mut function_index = start / self.output_patterns;
        let mut hist = vec![0u64; self.pairs.len()];
        for _ in 0..self.pairs.len() {
            hist[(function_index % self.choices) as usize] += 1;
            function_index /= self.choices;
        }
        hist.iter().map(|&c| c * c).sum()
    }
}

pub(crate) fn permutations_fixing_zero(num_states: usize) -> Vec<Vec<usize>> {
    let mut perms = Vec::new();
    if num_states <= 1 {
        return perms;
    }
    let mut tail: Vec<usize> = (1..num_states).collect();
    heap_permutations(&mut tail, 0, &mut |p| {
        let mut full = Vec::with_capacity(num_states);
        full.push(0);
        full.extend_from_slice(p);
        if full.iter().enumerate().any(|(i, &v)| i != v) {
            perms.push(full);
        }
    });
    perms
}

fn heap_permutations(items: &mut [usize], k: usize, emit: &mut impl FnMut(&[usize])) {
    if k == items.len() {
        emit(items);
        return;
    }
    for i in k..items.len() {
        items.swap(k, i);
        heap_permutations(items, k + 1, emit);
        items.swap(k, i);
    }
}

/// A lazy scan over the canonical orbit representatives of an index range.
///
/// The stream never materialises anything beyond one decoded transition
/// assignment: the same `O(|P|)` scratch serves every candidate of a
/// function-index block, and all `2ⁿ` output patterns share one decode and
/// one classification against the relabelling group.  A block whose
/// function index is not minimal in its orbit is skipped whole; in the
/// others each pattern is only checked against the stabiliser.
#[derive(Debug)]
pub struct OrbitStream<'a> {
    space: &'a OrbitSpace,
    next: u128,
    end: u128,
    assignment: Vec<usize>,
    relabeled: Vec<usize>,
    /// Function index currently decoded into `assignment` (`u128::MAX` =
    /// none yet).
    decoded_function: u128,
    /// The relabellings fixing the decoded function index (its stabiliser).
    stabiliser: Vec<usize>,
    pruned_symmetric: u64,
    yielded: u64,
}

impl<'a> OrbitStream<'a> {
    /// Streams the whole candidate space of `space`.
    pub fn new(space: &'a OrbitSpace) -> Self {
        Self::range(space, 0, space.total_candidates())
    }

    /// Streams the deterministic work range `[start, end)` (clamped to the
    /// candidate space).
    pub fn range(space: &'a OrbitSpace, start: u128, end: u128) -> Self {
        let total = space.total_candidates();
        let num_pairs = space.pairs.len();
        OrbitStream {
            space,
            next: start.min(total),
            end: end.min(total),
            assignment: vec![0usize; num_pairs],
            relabeled: vec![0usize; num_pairs],
            decoded_function: u128::MAX,
            stabiliser: Vec::new(),
            pruned_symmetric: 0,
            yielded: 0,
        }
    }

    /// Candidates skipped so far as non-canonical orbit members.
    pub fn pruned_symmetric(&self) -> u64 {
        self.pruned_symmetric
    }

    /// Canonical candidates yielded so far.
    pub fn yielded(&self) -> u64 {
        self.yielded
    }

    /// Advances to the next canonical candidate of the range and returns its
    /// encoding index; `None` when the range is exhausted.
    ///
    /// After a yield, [`OrbitStream::current_assignment`] exposes the
    /// decoded transition assignment without a second decode.
    pub fn next_canonical(&mut self) -> Option<u128> {
        let patterns = self.space.output_patterns;
        while self.next < self.end {
            let k = self.next;
            let function_index = k / patterns;
            if function_index != self.decoded_function {
                self.space
                    .decode_assignment(function_index, &mut self.assignment);
                self.decoded_function = function_index;
                if !self.space.classify_function(
                    &self.assignment,
                    &mut self.relabeled,
                    &mut self.stabiliser,
                ) {
                    // No output pattern of a non-minimal function index is
                    // canonical: skip the rest of its block.
                    let block_end = function_index
                        .saturating_add(1)
                        .saturating_mul(patterns)
                        .min(self.end);
                    self.pruned_symmetric += (block_end - k) as u64;
                    self.next = block_end;
                    continue;
                }
            }
            self.next += 1;
            let outputs = (k % patterns) as u32;
            if self.space.outputs_minimal(&self.stabiliser, outputs) {
                self.yielded += 1;
                return Some(k);
            }
            self.pruned_symmetric += 1;
        }
        None
    }

    /// The transition assignment of the most recently yielded candidate.
    pub fn current_assignment(&self) -> &[usize] {
        &self.assignment
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json;

    /// The reference semantics: materialise every canonical candidate of the
    /// space by a straight index scan.
    fn materialized_canonical(space: &OrbitSpace, end: u128) -> Vec<u128> {
        materialized_window(space, 0, end)
    }

    /// [`materialized_canonical`] over `[start, end)`: the per-candidate
    /// [`OrbitSpace::is_canonical`] oracle, index by index.
    fn materialized_window(space: &OrbitSpace, start: u128, end: u128) -> Vec<u128> {
        let mut assignment = vec![0usize; space.pairs().len()];
        let mut relabeled = vec![0usize; space.pairs().len()];
        let mut out = Vec::new();
        for k in start..end.min(space.total_candidates()) {
            space.decode_assignment(k / space.output_patterns(), &mut assignment);
            if space.is_canonical(
                &assignment,
                (k % space.output_patterns()) as u32,
                &mut relabeled,
            ) {
                out.push(k);
            }
        }
        out
    }

    #[test]
    fn stream_equals_materialized_scan_for_two_states() {
        let space = OrbitSpace::new(2);
        let expected = materialized_canonical(&space, u128::MAX);
        let mut stream = OrbitStream::new(&space);
        let mut got = Vec::new();
        while let Some(k) = stream.next_canonical() {
            got.push(k);
        }
        assert_eq!(got, expected);
        assert_eq!(stream.yielded() as usize, expected.len());
        assert_eq!(
            stream.pruned_symmetric() as u128,
            space.total_candidates() - expected.len() as u128
        );
    }

    #[test]
    fn range_concatenation_reproduces_the_full_stream() {
        let space = OrbitSpace::new(3);
        let end = 20_000u128;
        let expected = materialized_canonical(&space, end);
        // Split the prefix at awkward, unaligned points.
        let cuts = [0u128, 1, 17, 4_097, 9_998, 15_000, end];
        let mut got = Vec::new();
        let mut pruned = 0;
        for w in cuts.windows(2) {
            let mut stream = OrbitStream::range(&space, w[0], w[1]);
            while let Some(k) = stream.next_canonical() {
                got.push(k);
            }
            pruned += stream.pruned_symmetric();
        }
        assert_eq!(got, expected);
        assert_eq!(pruned as u128 + expected.len() as u128, end);
    }

    #[test]
    fn four_state_windows_match_the_per_candidate_oracle() {
        // Windows that start and end inside 16-pattern blocks, among them
        // blocks whose function index is not minimal (skipped whole) and
        // blocks with a nontrivial stabiliser (some patterns pruned).  The
        // stream must yield the oracle's indices and count the oracle's
        // pruned candidates at every yield.
        let space = OrbitSpace::new(4);
        let patterns = space.output_patterns();
        let blocks = space.total_candidates() / patterns;
        let canonical_in = |f: u128| materialized_window(&space, f * patterns, (f + 1) * patterns);
        let non_minimal_from = |f: u128| (f..blocks).find(|&g| canonical_in(g).is_empty());
        let mut windows = Vec::new();
        for first in [0, blocks / 3 + 12_345, blocks - 64] {
            let a = non_minimal_from(first).expect("a non-minimal block");
            let b = non_minimal_from(a + 25).unwrap_or(blocks - 1);
            windows.push((a * patterns + 5, b * patterns + 11));
            // A window inside one non-minimal block.
            windows.push((a * patterns + 3, a * patterns + 9));
        }
        // Minimal function indices with a nontrivial stabiliser (rare away
        // from 0): some but not all of their patterns are canonical.
        for c in [0, 3_026_588_811, 6_772_760_602] {
            assert!((1..patterns as usize).contains(&canonical_in(c).len()));
            windows.push((c * patterns + 1, (c + 2) * patterns + 7));
        }
        // The last window runs to the end of the space.
        windows.push(((blocks - 3) * patterns + 2, u128::MAX));
        for (start, end) in windows {
            let expected = materialized_window(&space, start, end);
            let end = end.min(space.total_candidates());
            let mut stream = OrbitStream::range(&space, start, end);
            let mut got = Vec::new();
            while let Some(k) = stream.next_canonical() {
                got.push(k);
                assert_eq!(
                    stream.pruned_symmetric() as u128,
                    k + 1 - start - got.len() as u128,
                    "window [{start}, {end}): pruned count after yielding {k}"
                );
            }
            assert_eq!(got, expected, "window [{start}, {end})");
            assert_eq!(
                stream.pruned_symmetric() as u128 + got.len() as u128,
                end - start
            );
        }
    }

    #[test]
    fn u128_parts_round_trip() {
        for v in [0u128, 1, u64::MAX as u128, u128::MAX, 1 << 77] {
            let parts: U128Parts = v.into();
            assert_eq!(parts.get(), v);
            let json = serde_json::to_string(&parts).unwrap();
            let back: U128Parts = serde_json::from_str(&json).unwrap();
            assert_eq!(back.get(), v);
        }
    }

    #[test]
    fn coverable_support_is_forward_closed() {
        let space = OrbitSpace::new(3);
        let mut assignment = vec![0usize; space.pairs().len()];
        let mut support = vec![false; 3];
        for k in (0..space.total_candidates()).step_by(311) {
            space.decode_assignment(k / space.output_patterns(), &mut assignment);
            space.coverable_support(&assignment, &mut support);
            assert!(support[0], "the input state is always coverable");
            // Forward closure: a transition whose pre pair is inside the
            // support must land inside the support.
            for (i, &(a, b)) in space.pairs().iter().enumerate() {
                if support[a] && support[b] {
                    let (c, d) = space.pairs()[assignment[i]];
                    assert!(support[c] && support[d], "support leaks at pair {i}");
                }
            }
        }
    }

    #[test]
    fn protocol_at_matches_parts_decoding() {
        let space = OrbitSpace::new(2);
        let mut assignment = vec![0usize; space.pairs().len()];
        for k in (0..space.total_candidates()).step_by(7) {
            space.decode_assignment(k / space.output_patterns(), &mut assignment);
            let a = space.protocol_at(k);
            let b = space.protocol_from_parts(&assignment, (k % space.output_patterns()) as u32);
            assert_eq!(a, b, "candidate {k}");
        }
    }
}
