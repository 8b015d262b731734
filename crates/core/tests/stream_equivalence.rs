//! Streaming-vs-materialized equivalence for the busy-beaver generator and
//! the resumable search.
//!
//! The `BB_det(4)` rung replaced the materialize-and-scan candidate pass
//! with a lazy canonical-orbit stream and a checkpointable search.  These
//! tests pin the contract:
//!
//! * the stream yields **exactly** the canonical orbit set of the old
//!   materialized enumeration, in the same (index) order, for the 2- and
//!   3-state spaces;
//! * segmented checkpoint/resume at pseudo-random budgets and worker counts
//!   reproduces the bit-identical `busy_beaver_search` result — stats, best
//!   η and witness included;
//! * the sequential stream over a capped prefix agrees with the parallel
//!   search on everything deterministic.

use popproto::candidate_pipeline::PipelineConfig;
use popproto::enumeration::{busy_beaver_search_with_threads, verified_threshold};
use popproto::orbit_stream::{OrbitSpace, OrbitStream};
use popproto::segmented::{SegmentationConfig, SegmentedCheckpoint, SegmentedSearch};
use popproto_reach::ExploreLimits;

#[path = "support/sequential.rs"]
mod sequential;
use sequential::sequential_reference;

/// The old semantics: materialise every canonical candidate index of the
/// space prefix by a straight scan (decode + canonicality test per index).
fn materialized_canonical_orbits(num_states: usize, end: u128) -> Vec<u128> {
    let space = OrbitSpace::new(num_states);
    let end = end.min(space.total_candidates());
    let mut assignment = vec![0usize; space.pairs().len()];
    let mut relabeled = vec![0usize; space.pairs().len()];
    let mut orbits = Vec::new();
    for k in 0..end {
        space.decode_assignment(k / space.output_patterns(), &mut assignment);
        let outputs = (k % space.output_patterns()) as u32;
        if space.is_canonical(&assignment, outputs, &mut relabeled) {
            orbits.push(k);
        }
    }
    orbits
}

/// A tiny deterministic LCG for reproducible pseudo-random cut points.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

#[test]
fn stream_yields_the_materialized_orbit_set_for_two_states() {
    let space = OrbitSpace::new(2);
    let expected = materialized_canonical_orbits(2, u128::MAX);
    let mut stream = OrbitStream::new(&space);
    let mut got = Vec::new();
    while let Some(k) = stream.next_canonical() {
        got.push(k);
    }
    assert_eq!(got, expected, "orbit set or order changed");
    assert_eq!(
        stream.pruned_symmetric() as u128 + got.len() as u128,
        space.total_candidates()
    );
}

#[test]
fn stream_yields_the_materialized_orbit_set_for_three_states() {
    // The full 3-state space has 373 248 encodings; walk all of them.
    let space = OrbitSpace::new(3);
    let expected = materialized_canonical_orbits(3, u128::MAX);
    let mut stream = OrbitStream::new(&space);
    let mut got = Vec::new();
    while let Some(k) = stream.next_canonical() {
        got.push(k);
    }
    assert_eq!(got.len(), expected.len());
    assert_eq!(got, expected, "orbit set or order changed");
}

#[test]
fn randomly_split_ranges_reproduce_the_full_stream() {
    let space = OrbitSpace::new(3);
    let end = 50_000u128;
    let expected = materialized_canonical_orbits(3, end);
    let mut rng = Lcg(0xfeed_beef);
    for _ in 0..3 {
        // Random monotone cut points over [0, end].
        let mut cuts: Vec<u128> = (0..6).map(|_| rng.next() as u128 % end).collect();
        cuts.push(0);
        cuts.push(end);
        cuts.sort_unstable();
        let mut got = Vec::new();
        for w in cuts.windows(2) {
            let mut stream = OrbitStream::range(&space, w[0], w[1]);
            while let Some(k) = stream.next_canonical() {
                got.push(k);
            }
        }
        assert_eq!(got, expected, "cuts {cuts:?}");
    }
}

#[test]
fn checkpoint_resume_reproduces_busy_beaver_bit_identically() {
    // Reference: the one-shot search over the full 2-state space on one
    // worker (a single segment).
    let limits = ExploreLimits::default();
    let reference = busy_beaver_search_with_threads(2, 6, u64::MAX, &limits, 1);

    // Output-block-sized segments (4 encodings on 2 states), so every
    // budget cut falls on a fine-grained boundary.
    let config = PipelineConfig::exact(6, &limits);
    let segmentation = SegmentationConfig::index_order(4, None);
    let mut uninterrupted = SegmentedSearch::new(2, config.clone(), segmentation.clone());
    uninterrupted.run(1, u64::MAX);
    let straight = uninterrupted.result();

    // Resumable search, killed at pseudo-random budgets on pseudo-random
    // worker counts (every kill round-trips the checkpoint through JSON, as
    // a real session would).
    let mut rng = Lcg(0x5eed);
    for round in 0..3 {
        let mut search = SegmentedSearch::new(2, config.clone(), segmentation.clone());
        let mut budget = 0u64;
        while !search.is_finished() {
            budget += rng.next() % 29 + 1;
            search.run((rng.next() % 3 + 1) as usize, budget);
            let json = serde_json::to_string(&search.checkpoint()).unwrap();
            let checkpoint: SegmentedCheckpoint = serde_json::from_str(&json).unwrap();
            search = SegmentedSearch::from_checkpoint(&checkpoint).expect("checkpoint resumes");
        }
        let merged = search.result();
        assert!(merged.finished, "round {round}");
        let result = merged.to_enumeration_result(search.space(), 6);
        assert_eq!(result.best_eta, reference.best_eta, "round {round}");
        assert_eq!(result.witness, reference.witness, "round {round}");
        assert_eq!(
            result.protocols_examined, reference.protocols_examined,
            "round {round}"
        );
        assert_eq!(
            result.threshold_protocols, reference.threshold_protocols,
            "round {round}"
        );
        assert_eq!(
            result.pruned_symmetric, reference.pruned_symmetric,
            "round {round}"
        );
        assert_eq!(
            result.pruned_symbolic, reference.pruned_symbolic,
            "round {round}"
        );
        assert_eq!(
            result.truncated_orbits, reference.truncated_orbits,
            "round {round}"
        );
        // Memo hits are deterministic per segmentation, so they match the
        // uninterrupted run with the same segments (not the one-segment
        // reference).
        assert_eq!(
            merged.stats.memo_hits, straight.stats.memo_hits,
            "round {round}"
        );
        assert_eq!(merged.confirmed, straight.confirmed, "round {round}");
    }
}

#[test]
fn capped_prefix_range_pipeline_matches_the_parallel_search_for_three_states() {
    // A 6k-candidate prefix of the 3-state space: the sequential stream and
    // the thread-parallel search must agree on everything deterministic.
    let limits = ExploreLimits::default();
    let cap = 6_000u64;
    let parallel = busy_beaver_search_with_threads(3, 5, cap, &limits, 4);

    let (pipeline, stats) =
        sequential_reference(3, cap as u128, &PipelineConfig::exact(5, &limits));
    assert_eq!(stats.threshold_protocols, parallel.threshold_protocols);
    assert_eq!(stats.pruned_symmetric, parallel.pruned_symmetric);
    assert_eq!(stats.pruned_symbolic, parallel.pruned_symbolic);
    assert_eq!(stats.truncated_orbits, parallel.truncated_orbits);
    let best = pipeline.best();
    assert_eq!(best.map(|b| b.eta), parallel.best_eta);
    if let (Some(b), Some(witness)) = (best, &parallel.witness) {
        assert_eq!(OrbitSpace::new(3).protocol_at(b.index), *witness);
        assert_eq!(verified_threshold(witness, 5, &limits), Some(b.eta));
    }
}
