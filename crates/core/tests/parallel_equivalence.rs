//! Parallel-segmented ≡ sequential equivalence for the busy-beaver search.
//!
//! The parallel rebuild's contract (see `crates/core/src/segmented.rs` and
//! `crates/exec/README.md`): every reported number is an ordered merge of
//! per-segment results, each a pure function of its segment range — so the
//! search is **bit-identical** for any worker count and any kill/resume
//! schedule, including resumes on a *different* worker count than the one
//! that wrote the checkpoint, and matches the sequential stream for any
//! segment size in every counter but `memo_hits`.  These tests pin that
//! contract:
//!
//! * worker counts {1, 2, 4, 7} × random segment sizes reproduce the
//!   sequential single-range pipeline on the same candidate range — stats,
//!   best η, witness set and funnel counters included;
//! * every counter, `memo_hits` included, is deterministic per
//!   segmentation: segments share no memo table;
//! * kill/resume through JSON checkpoints across differing worker counts is
//!   bit-identical to an uninterrupted run;
//! * the entropy segment order processes the same full-range set.

use popproto::candidate_pipeline::{PipelineConfig, PipelineStats};
use popproto::segmented::{SegmentationConfig, SegmentedCheckpoint, SegmentedSearch};
use popproto_reach::ExploreLimits;

#[path = "support/sequential.rs"]
mod sequential;
use sequential::sequential_reference;

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 7];

/// A tiny deterministic LCG for reproducible pseudo-random sizes and cuts.
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

/// Asserts every counter but `memo_hits` matches (it is compared separately
/// where the segmentation is identical).
fn assert_deterministic_stats_eq(a: &PipelineStats, b: &PipelineStats, context: &str) {
    assert_eq!(a.canonical_orbits, b.canonical_orbits, "{context}");
    assert_eq!(a.pruned_symmetric, b.pruned_symmetric, "{context}");
    assert_eq!(a.pruned_symbolic, b.pruned_symbolic, "{context}");
    assert_eq!(a.pruned_eta_bounded, b.pruned_eta_bounded, "{context}");
    assert_eq!(a.profiled, b.profiled, "{context}");
    assert_eq!(a.threshold_protocols, b.threshold_protocols, "{context}");
    assert_eq!(a.truncated_orbits, b.truncated_orbits, "{context}");
}

#[test]
fn all_worker_counts_and_random_segment_sizes_match_the_sequential_stream() {
    let limits = ExploreLimits::default();
    let config = PipelineConfig::exact(5, &limits);
    let end = 20_000u128; // a 3-state prefix with plenty of profiled orbits
    let (reference, ref_stats) = sequential_reference(3, end, &config);
    assert!(ref_stats.threshold_protocols > 0, "trivial reference");

    let mut rng = Lcg(0xa11ce);
    for workers in WORKER_COUNTS {
        let seg_size = rng.next() % 4_000 + 50;
        let segmentation = SegmentationConfig::index_order(seg_size, Some(end));
        let mut search = SegmentedSearch::new(3, config.clone(), segmentation);
        search.run(workers, u64::MAX);
        let result = search.result();
        let context = format!("workers {workers}, segment size {seg_size}");
        assert!(result.finished, "{context}");
        assert_deterministic_stats_eq(&result.stats, &ref_stats, &context);
        assert_eq!(result.best, reference.best(), "{context}");
        assert_eq!(
            result.confirmed,
            reference.confirmed(),
            "witness set; {context}"
        );
        // Every hit answered a canonical orbit from its own segment's table.
        assert!(
            result.stats.memo_hits <= result.stats.canonical_orbits,
            "{context}"
        );
        assert_eq!(result.stats.memo_hits_cross, 0, "{context}");
    }
}

#[test]
fn local_memo_hits_are_deterministic_per_segmentation() {
    // Same segmentation, different worker counts: every counter, the memo
    // hits included, must come out identical — each is a per-segment pure
    // function, and no segment sees another's memo table.
    let limits = ExploreLimits::default();
    let config = PipelineConfig::exact(5, &limits);
    let segmentation = SegmentationConfig::index_order(1_024, Some(16_000));
    let mut reference: Option<PipelineStats> = None;
    for workers in WORKER_COUNTS {
        let mut search = SegmentedSearch::new(3, config.clone(), segmentation.clone());
        search.run(workers, u64::MAX);
        let stats = search.result().stats;
        assert_eq!(stats.memo_hits_cross, 0, "workers {workers}");
        match &reference {
            None => reference = Some(stats),
            Some(expected) => assert_eq!(&stats, expected, "workers {workers}"),
        }
    }
    assert!(
        reference.unwrap().memo_hits > 0,
        "the 3-state prefix must share restrictions"
    );
}

#[test]
fn kill_resume_across_differing_worker_counts_is_bit_identical() {
    let limits = ExploreLimits::default();
    let config = PipelineConfig::exact(5, &limits);
    let end = 14_000u128;
    let segmentation = SegmentationConfig::index_order(700, Some(end));

    // Uninterrupted single-worker reference.
    let mut straight = SegmentedSearch::new(3, config.clone(), segmentation.clone());
    straight.run(1, u64::MAX);
    let expected = straight.result();
    assert!(expected.finished);

    // Kill after each budget stage, resume on a different worker count,
    // round-tripping the checkpoint through JSON every time.
    let mut rng = Lcg(0x5eed5);
    for round in 0..3 {
        let schedule = [
            (
                WORKER_COUNTS[(rng.next() % 4) as usize],
                rng.next() % 900 + 100,
            ),
            (
                WORKER_COUNTS[(rng.next() % 4) as usize],
                rng.next() % 2_000 + 1_500,
            ),
            (WORKER_COUNTS[(rng.next() % 4) as usize], u64::MAX),
        ];
        let mut search = SegmentedSearch::new(3, config.clone(), segmentation.clone());
        for &(workers, budget) in &schedule {
            search.run(workers, budget);
            let json = serde_json::to_string(&search.checkpoint()).unwrap();
            let checkpoint: SegmentedCheckpoint = serde_json::from_str(&json).unwrap();
            search = SegmentedSearch::from_checkpoint(&checkpoint).expect("checkpoint resumes");
        }
        let result = search.result();
        let context = format!("round {round}, schedule {schedule:?}");
        assert!(result.finished, "{context}");
        assert_deterministic_stats_eq(&result.stats, &expected.stats, &context);
        // Identical segmentation ⟹ even the local memo hits reproduce.
        assert_eq!(
            result.stats.memo_hits, expected.stats.memo_hits,
            "{context}"
        );
        assert_eq!(result.best, expected.best, "{context}");
        assert_eq!(
            result.confirmed, expected.confirmed,
            "witness set; {context}"
        );
        assert_eq!(result.candidates_consumed, expected.candidates_consumed);
    }
}

#[test]
fn entropy_order_covers_the_same_full_range() {
    let limits = ExploreLimits::default();
    let config = PipelineConfig::exact(5, &limits);
    let end = 12_000u128;
    let (reference, ref_stats) = sequential_reference(3, end, &config);

    for workers in [1, 4] {
        let mut search = SegmentedSearch::new(
            3,
            config.clone(),
            SegmentationConfig::entropy_order(640, Some(end)),
        );
        search.run(workers, u64::MAX);
        let result = search.result();
        assert!(result.finished);
        assert_deterministic_stats_eq(&result.stats, &ref_stats, "entropy full range");
        assert_eq!(result.best, reference.best());
        assert_eq!(result.confirmed, reference.confirmed(), "witness set");
    }
}

/// Instrumentation inertness for the segmented search: running with the
/// tracing gate open and a zero-period heartbeat attached reproduces every
/// deterministic number of a run with the obs layer dark.
#[test]
fn tracing_and_heartbeats_leave_the_segmented_search_bit_identical() {
    use popproto_obs as obs;
    use std::time::Duration;

    let _serial = obs::test_support::serial();
    let limits = ExploreLimits::default();
    let config = PipelineConfig::exact(5, &limits);
    let end = 14_000u128;
    let segmentation = SegmentationConfig::index_order(700, Some(end));

    assert!(!obs::enabled(), "tracing must start disabled");
    let mut dark = SegmentedSearch::new(3, config.clone(), segmentation.clone());
    dark.run(4, u64::MAX);
    let expected = dark.result();
    assert!(expected.finished);

    obs::start();
    let (mut heartbeat, lines) = obs::Heartbeat::shared_buffer(Duration::ZERO);
    let pool = popproto_exec::Pool::new(4);
    let mut lit = SegmentedSearch::new(3, config, segmentation);
    lit.run_with_heartbeat(&pool, u64::MAX, &mut heartbeat);
    let result = lit.result();
    let trace = obs::stop();

    assert!(result.finished);
    assert_deterministic_stats_eq(&result.stats, &expected.stats, "traced run");
    // Identical segmentation ⟹ identical local memo hits even when lit up.
    assert_eq!(result.stats.memo_hits, expected.stats.memo_hits);
    assert_eq!(result.best, expected.best);
    assert_eq!(result.confirmed, expected.confirmed, "witness set");
    assert_eq!(result.candidates_consumed, expected.candidates_consumed);

    // And the byproducts are real: nested segment spans, final heartbeat.
    let json = trace.to_chrome_trace();
    let summary = obs::validate_chrome_trace(&json).expect("trace validates");
    assert!(summary.complete > 0, "segment/wave spans were traced");
    let text = String::from_utf8(lines.lock().unwrap().clone()).unwrap();
    let last = text.lines().last().expect("final heartbeat line");
    assert!(last.contains("\"kind\":\"segmented_heartbeat\""));
    assert!(last.contains("\"final\":true"));
}

#[test]
fn busy_beaver_on_the_pool_matches_every_worker_count() {
    // The ported busy_beaver_search_with_threads must agree across worker
    // counts on everything except the memo hits, whose segment size
    // follows the worker count.
    use popproto::enumeration::busy_beaver_search_with_threads;
    let limits = ExploreLimits::default();
    let reference = busy_beaver_search_with_threads(3, 5, 9_000, &limits, 1);
    for workers in [2, 4, 7] {
        let result = busy_beaver_search_with_threads(3, 5, 9_000, &limits, workers);
        assert_eq!(result.best_eta, reference.best_eta, "workers {workers}");
        assert_eq!(result.witness, reference.witness, "workers {workers}");
        assert_eq!(result.protocols_examined, reference.protocols_examined);
        assert_eq!(result.threshold_protocols, reference.threshold_protocols);
        assert_eq!(result.pruned_symmetric, reference.pruned_symmetric);
        assert_eq!(result.pruned_symbolic, reference.pruned_symbolic);
        assert_eq!(result.pruned_eta_bounded, reference.pruned_eta_bounded);
        assert_eq!(result.truncated_orbits, reference.truncated_orbits);
    }
}
