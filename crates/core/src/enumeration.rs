//! Exact busy-beaver values for tiny state counts, by exhaustive protocol
//! enumeration (experiment E7), on the streaming staged pipeline.
//!
//! The search space of *all* protocols is doubly exponential, so the
//! enumeration restricts itself to a documented fragment:
//!
//! * leaderless protocols with a single input variable,
//! * **deterministic** transition relations (at most one transition per
//!   unordered pair of states, cf. Remark 1),
//! * thresholds confirmed by exhaustive verification of all inputs
//!   `2 ≤ i ≤ max_input`.
//!
//! Within this fragment the computed value `BB_det(n)` is exact (for
//! thresholds below the verification cap); it is a lower bound on the true
//! `BB(n)` because the fragment is a subset of all protocols, and every
//! protocol it reports is a genuine witness.  Exactness additionally
//! requires [`EnumerationResult::truncated_orbits`] to be `0`: a candidate
//! whose slice exploration hit [`ExploreLimits`] contributes an
//! *inconclusive* `None` verdict, which that counter surfaces instead of
//! silently counting the candidate as examined.
//!
//! # Architecture
//!
//! The search is the composition of two layers that this module merely
//! drives:
//!
//! * the [generator](crate::orbit_stream) — [`OrbitSpace`] describes the
//!   encoded candidate space (input state fixed to 0, one representative
//!   per state-relabelling orbit) and
//!   [`OrbitStream`](crate::orbit_stream::OrbitStream) walks any index
//!   range lazily, yielding canonical candidates in increasing index order;
//! * the [triage pipeline](crate::candidate_pipeline) —
//!   [`CandidatePipeline`](crate::candidate_pipeline::CandidatePipeline)
//!   runs each candidate through ordered
//!   reject-early stages (symbolic pre-filter, η-floor filter, concrete
//!   slices with reject-on-first-failure) with a per-stage counter each,
//!   memoizing stage outcomes across candidates that share a
//!   coverable-support restriction.
//!
//! Both reductions preserve the exact `BB_det(n)` value: verification
//! verdicts are invariant under state relabelling (the reachability graphs
//! are isomorphic), and every orbit retains exactly one representative.
//! Because the canonical representative always has the *smallest* index of
//! its orbit, the pruned search also agrees with the unpruned one on any
//! index-prefix of the space (relevant when `max_protocols` caps the
//! enumeration).  See `crates/reach/README.md` for the full argument,
//! including the soundness of the cross-candidate memoization.
//!
//! The index space is segmented and fanned out across the
//! [worker pool](popproto_exec) via the
//! [segmented search](crate::segmented::SegmentedSearch), each segment with
//! its own transposition table.  The result is deterministic regardless of
//! worker count: ties between equal thresholds are broken towards the
//! smallest candidate index, and every per-stage counter is a function of
//! the candidate range alone ([`EnumerationResult::memo_hits`] of the
//! segmentation: each segment's table sees only its own candidates).
//!
//! For searches too large for one sitting (the `BB_det(4)` prefix of
//! experiment E12), drive the [segmented search](crate::segmented::SegmentedSearch)
//! directly: budgeted runs, [`SegmentedCheckpoint`](crate::segmented::SegmentedCheckpoint)s
//! between sessions.

use crate::candidate_pipeline::PipelineConfig;
use crate::orbit_stream::OrbitSpace;
use crate::segmented::{SegmentationConfig, SegmentedSearch};
use popproto_model::Protocol;
use popproto_reach::{unary_threshold_profile, ExploreLimits};
use serde::{Deserialize, Serialize};

/// The result of the exhaustive busy-beaver search for one state count.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EnumerationResult {
    /// Number of states `n`.
    pub num_states: usize,
    /// The largest verified threshold found (the busy-beaver value of the fragment).
    pub best_eta: Option<u64>,
    /// A protocol witnessing `best_eta`.
    pub witness: Option<Protocol>,
    /// Number of candidate encodings enumerated (canonical or not).
    pub protocols_examined: u64,
    /// Number of *canonical orbit representatives* that compute some
    /// threshold within the cap (non-canonical candidates are pruned before
    /// verification, so this is not comparable to a per-candidate count).
    pub threshold_protocols: u64,
    /// Candidates skipped as non-canonical members of an already-covered
    /// state-relabelling orbit.
    pub pruned_symmetric: u64,
    /// Canonical candidates rejected by the symbolic pre-filter before any
    /// concrete slice was explored (each would have profiled to `None`).
    pub pruned_symbolic: u64,
    /// Canonical candidates rejected by the η-floor filter (always `0` for
    /// [`busy_beaver_search`], which runs unfloored).
    pub pruned_eta_bounded: u64,
    /// Canonical candidates whose slice exploration hit [`ExploreLimits`]:
    /// their `None` verdict is a resource artefact, not a proof.  The
    /// computed `BB_det(n)` is exact for the fragment only when this is `0`
    /// (and the enumeration was not capped by `max_protocols`).
    pub truncated_orbits: u64,
    /// Candidates whose staged verdict was replayed from their segment's
    /// transposition table.  Deterministic per segmentation: a pure function
    /// of the candidate ranges processed, independent of worker count and
    /// scheduling (it does vary when the segment *size* changes, because the
    /// tables then cover different ranges).
    pub memo_hits: u64,
    /// The verification cap used (thresholds are only confirmed up to this input).
    pub max_input: u64,
}

/// Exhaustively searches deterministic leaderless protocols with `num_states`
/// states for the largest verified threshold, fanning the candidate space
/// across all available CPU cores.
///
/// `max_input` bounds both the inputs verified and the thresholds that can be
/// confirmed (a threshold `η` needs `η + 1 ≤ max_input` to be distinguished
/// from `η + 1`).  `max_protocols` caps the enumeration as a safety net; the
/// capped search examines exactly the first `max_protocols` candidate
/// encodings, independent of thread count.
pub fn busy_beaver_search(
    num_states: usize,
    max_input: u64,
    max_protocols: u64,
    limits: &ExploreLimits,
) -> EnumerationResult {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    busy_beaver_search_with_threads(num_states, max_input, max_protocols, limits, threads)
}

/// [`busy_beaver_search`] with an explicit worker count on the
/// worker pool.
///
/// The result is identical for every `threads ≥ 1` with one exception, a
/// memo diagnostic: [`EnumerationResult::memo_hits`] — while deterministic
/// per segmentation — varies with `threads` here because the segment size
/// is derived from the thread count (each segment's table covers a
/// different range).  Every other field is bit-identical (part of the
/// equivalence test suite).  `threads = 1` runs the whole range as a single
/// segment — the exact PR 4 sequential semantics, local memo table
/// included.
pub fn busy_beaver_search_with_threads(
    num_states: usize,
    max_input: u64,
    max_protocols: u64,
    limits: &ExploreLimits,
    threads: usize,
) -> EnumerationResult {
    let total = OrbitSpace::new(num_states)
        .total_candidates()
        .min(max_protocols as u128);
    let config = PipelineConfig::exact(max_input, limits);
    // One segment per worker is the old static chunking; eight per worker
    // gives idle workers something to take when stage costs are skewed.
    let seg_size = if threads <= 1 {
        total.max(1)
    } else {
        total.div_ceil(threads as u128 * 8)
    };
    let segmentation =
        SegmentationConfig::index_order(u64::try_from(seg_size).unwrap_or(u64::MAX), Some(total));
    let mut search = SegmentedSearch::new(num_states, config, segmentation);
    search.run(threads.max(1), u64::MAX);
    search
        .result()
        .to_enumeration_result(search.space(), max_input)
}

/// Determines whether the protocol computes `x ≥ η` for some `η` confirmed on
/// all inputs `2 ≤ i ≤ max_input`, and returns that `η`.
///
/// To be confirmed, the verdict sequence must flip from rejecting to
/// accepting strictly below `max_input` (so the flip position is certain) or
/// be all-accepting (η ≤ 2).  Each input slice is explored exactly once (see
/// [`unary_threshold_profile`]).
pub fn verified_threshold(
    protocol: &Protocol,
    max_input: u64,
    limits: &ExploreLimits,
) -> Option<u64> {
    unary_threshold_profile(protocol, max_input, limits).verified_threshold()
}

#[cfg(test)]
mod tests {
    use super::*;
    use popproto_model::{Output, ProtocolBuilder, StateId};
    use popproto_zoo::{binary_counter, flock};

    #[test]
    fn verified_threshold_of_known_protocols() {
        let limits = ExploreLimits::default();
        assert_eq!(verified_threshold(&flock(3), 8, &limits), Some(3));
        assert_eq!(verified_threshold(&binary_counter(2), 8, &limits), Some(4));
        // A protocol that never accepts computes no threshold in range.
        let mut b = ProtocolBuilder::new("never");
        let s = b.add_state("s", Output::False);
        b.set_input_state("x", s);
        let never = b.build().unwrap();
        assert_eq!(verified_threshold(&never, 6, &limits), None);
    }

    #[test]
    fn two_state_busy_beaver_is_two() {
        // With 2 states the best deterministic leaderless protocol decides x ≥ 2
        // (e.g. input state flips both agents to an accepting state on meeting).
        let limits = ExploreLimits::default();
        let result = busy_beaver_search(2, 6, 100_000, &limits);
        assert_eq!(result.best_eta, Some(2));
        assert!(result.threshold_protocols >= 1);
        assert_eq!(
            result.truncated_orbits, 0,
            "no orbit may be truncated in the exact claim"
        );
        let witness = result.witness.expect("a witness protocol exists");
        assert_eq!(
            verified_threshold(&witness, 6, &limits),
            Some(2),
            "the reported witness must re-verify"
        );
    }

    #[test]
    fn three_state_busy_beaver_reproduces_the_published_values() {
        // The exhaustive BB_det(3) gate: the exact value and the funnel
        // counts of the whole 3-state space.  With the symbolic pre-filter
        // on, the unchanged count of confirmed protocols also shows that no
        // verifying orbit was rejected before exploration.
        let result = busy_beaver_search(3, 6, u64::MAX, &ExploreLimits::default());
        assert_eq!(result.best_eta, Some(3), "BB_det(3) changed");
        assert_eq!(result.threshold_protocols, 46_144);
        assert_eq!(result.pruned_symmetric, 186_336);
        assert_eq!(result.truncated_orbits, 0, "no orbit may be truncated");
        // The exact pre-filter funnel: a changed symbolic verdict on any
        // orbit moves this count even when the best value survives.
        assert_eq!(
            result.pruned_symbolic, 130_956,
            "the pre-filter funnel changed"
        );
        assert_eq!(
            result.pruned_eta_bounded, 0,
            "the η floor is off at BB_det(3)"
        );
    }

    #[test]
    fn enumeration_respects_protocol_cap() {
        let limits = ExploreLimits::default();
        let result = busy_beaver_search(2, 5, 10, &limits);
        assert!(result.protocols_examined <= 10);
    }

    #[test]
    fn one_state_protocols_decide_nothing_nontrivial() {
        let limits = ExploreLimits::default();
        let result = busy_beaver_search(1, 5, 1_000, &limits);
        // With one state the output is constant, so no threshold ≥ 2 in the
        // confirmable range is computed... except η = 2?  A single always-true
        // state accepts every input i ≥ 2, which is exactly x ≥ 2 restricted
        // to valid inputs — the search therefore reports 2.
        assert_eq!(result.best_eta, Some(2));
    }

    #[test]
    fn witness_input_state_is_fixed_to_zero() {
        let limits = ExploreLimits::default();
        let result = busy_beaver_search(2, 6, 100_000, &limits);
        let witness = result.witness.unwrap();
        assert_eq!(witness.input_state(0), StateId::new(0));
        // With the input fixed at state 0, the residual relabelling group of
        // a 2-state protocol is trivial: nothing to prune below n = 3.
        assert_eq!(result.pruned_symmetric, 0);
        let capped = busy_beaver_search(3, 4, 2_000, &limits);
        assert!(capped.pruned_symmetric > 0, "3-state orbits must be pruned");
    }

    #[test]
    fn thread_count_does_not_change_the_result() {
        let limits = ExploreLimits::default();
        let seq = busy_beaver_search_with_threads(2, 6, 100_000, &limits, 1);
        for threads in [2, 3, 8] {
            let par = busy_beaver_search_with_threads(2, 6, 100_000, &limits, threads);
            assert_eq!(par.best_eta, seq.best_eta);
            assert_eq!(par.witness, seq.witness);
            assert_eq!(par.protocols_examined, seq.protocols_examined);
            assert_eq!(par.threshold_protocols, seq.threshold_protocols);
            assert_eq!(par.pruned_symmetric, seq.pruned_symmetric);
            assert_eq!(par.pruned_symbolic, seq.pruned_symbolic);
            assert_eq!(par.pruned_eta_bounded, seq.pruned_eta_bounded);
            assert_eq!(par.truncated_orbits, seq.truncated_orbits);
            // memo_hits is deliberately exempt: worker-local caches see
            // different candidate subsets under different chunkings.
        }
    }

    #[test]
    fn symbolic_prefilter_rejects_candidates_before_exploration() {
        // Already in the 2-state space, many candidates (e.g. every
        // all-output-0 one) are symbolically hopeless: they must be counted
        // as pruned without changing the search outcome.
        let limits = ExploreLimits::default();
        let result = busy_beaver_search(2, 6, 100_000, &limits);
        assert!(
            result.pruned_symbolic > 0,
            "the symbolic pre-filter never fired"
        );
        assert_eq!(result.best_eta, Some(2));
        // The unfloored search never rejects on the η stage.
        assert_eq!(result.pruned_eta_bounded, 0);
    }

    #[test]
    fn truncated_slice_explorations_are_surfaced() {
        // With an absurdly tight exploration cap every profiled candidate's
        // slices truncate: the result must say so instead of silently
        // reporting `best_eta = None` as if it were proven.
        let tight = ExploreLimits::with_max_configs(1);
        let result = busy_beaver_search(2, 6, 100_000, &tight);
        assert!(result.truncated_orbits > 0, "truncation went unreported");
        // Candidates with single-configuration slices (e.g. the always-true
        // protocol) still verify exactly even under the cap — only the
        // exactness claim for the *value* is off the table.
        assert_eq!(result.best_eta, Some(2));
    }

    #[test]
    fn canonicality_keeps_exactly_one_representative_per_orbit() {
        // For n = 3 the residual relabelling group (fixing the input state 0)
        // is the swap of states 1 and 2.  Walk the full space, group
        // candidates into orbits by brute force, and check that every orbit
        // contains exactly one canonical member — and that it is the one
        // with the smallest candidate index (the property the capped-prefix
        // equivalence relies on).
        let space = OrbitSpace::new(3);
        let perm = [0usize, 2, 1];
        let num_pairs = space.pairs().len();
        let total = space.total_candidates();
        let choices = space.pairs().len() as u128;
        let mut assignment = vec![0usize; num_pairs];
        let mut relabeled = vec![0usize; num_pairs];
        let mut canonical = 0u128;
        // Only scan a deterministic slice of the 373k-candidate space to keep
        // the test fast; orbits are closed under the swap within any slice
        // plus its image, which we compute explicitly.
        for k in (0..total).step_by(97) {
            space.decode_assignment(k / space.output_patterns(), &mut assignment);
            let outputs = (k % space.output_patterns()) as u32;
            // Compute the orbit partner's index.
            for (i, &(a, b)) in space.pairs().iter().enumerate() {
                let j = space.pair_position(perm[a], perm[b]);
                let (c, d) = space.pairs()[assignment[i]];
                relabeled[j] = space.pair_position(perm[c], perm[d]);
            }
            let mut swapped_outputs = 0u32;
            for (q, &pq) in perm.iter().enumerate() {
                if (outputs >> q) & 1 == 1 {
                    swapped_outputs |= 1 << pq;
                }
            }
            let mut partner_function = 0u128;
            for i in (0..num_pairs).rev() {
                partner_function = partner_function * choices + relabeled[i] as u128;
            }
            let partner = partner_function * space.output_patterns() + swapped_outputs as u128;
            let is_canonical = space.is_canonical(&assignment, outputs, &mut relabeled);
            // Canonical iff this candidate's index is the orbit minimum.
            assert_eq!(
                is_canonical,
                k <= partner,
                "candidate {k} (partner {partner})"
            );
            if is_canonical {
                canonical += 1;
            }
        }
        assert!(canonical > 0);
    }
}
