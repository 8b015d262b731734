//! Busy-beaver pipeline benchmark: the staged, resumable `BB_det(4)` prefix
//! search (experiment E12) on the segmented search over the work-stealing
//! pool, timed against the sequential stream, and the `BB_det(3)` soundness
//! gate, emitting `BENCH_bb.json`.
//!
//! Modes:
//!
//! * **smoke** (default, what CI matrix-runs on every push at
//!   `BENCH_BB_WORKERS` ∈ {1, 4}): a small-budget E12 prefix through the
//!   segmented search at the requested worker count, with (a) a funnel
//!   bit-identity assert against the sequential stream over the same
//!   candidate range and (b) a three-session kill/resume assert across
//!   differing worker counts, plus the fingerprint-canonicalization
//!   hit-rate delta.  The committed `BENCH_bb.json` is left untouched.
//! * **full** (`BENCH_BB_FULL=1`): streams a 10⁶-orbit prefix at 1/2/4/8
//!   workers (the `parallel_scaling` section) and through the sequential
//!   stream over the same candidate range (the `e12_bb4_prefix` row and the
//!   speedup baseline), asserts funnel/best/witness bit-identity at every
//!   worker count, re-runs `BB_det(3)` against its reference values as a
//!   bit-identity gate, measures the canonicalization delta at scale, runs
//!   an entropy-ordered prefix for contrast, and regenerates
//!   `BENCH_bb.json`.

use criterion::{criterion_group, criterion_main, Criterion};
use popproto::candidate_pipeline::{CandidatePipeline, PipelineStats};
use popproto::enumeration::busy_beaver_search;
use popproto::experiments::{
    e12_pipeline_config, e12_segmented_report_from, e12_segmented_search, E12SegmentedReport,
};
use popproto::orbit_stream::SegmentOrder;
use popproto::segmented::{SegmentedCheckpoint, SegmentedSearch};
use popproto_bench::sequential_reference;
use popproto_reach::ExploreLimits;
use std::time::Instant;

const MAX_INPUT: u64 = 8;

/// Streams the E12 prefix to `budget` across `sessions` sessions, each
/// resumed from a JSON-serialised checkpoint of the previous one, on
/// alternating worker counts; returns the report and the largest checkpoint
/// size seen.
fn killed_and_resumed(
    budget: u64,
    sessions: u64,
    workers: [usize; 2],
) -> (E12SegmentedReport, usize) {
    let mut search = e12_segmented_search(MAX_INPUT, SegmentOrder::Index);
    let mut checkpoint_bytes = 0usize;
    for session in 1..=sessions {
        search.run(workers[(session % 2) as usize], budget * session / sessions);
        // Kill: drop the search entirely, keep only the serialised bytes.
        let json = serde_json::to_string(&search.checkpoint()).expect("checkpoint serialises");
        checkpoint_bytes = checkpoint_bytes.max(json.len());
        let checkpoint: SegmentedCheckpoint =
            serde_json::from_str(&json).expect("checkpoint deserialises");
        search = SegmentedSearch::from_checkpoint(&checkpoint);
    }
    let report = e12_segmented_report_from(&search, budget, workers[sessions as usize % 2]);
    (report, checkpoint_bytes)
}

/// Runs the segmented E12 at `workers` until the merged prefix holds
/// `budget` orbits; returns `(report, seconds, pool stats)` — the pool
/// counters (helping-wait jobs, per-worker task counts and idle time) feed
/// the `parallel_scaling` rows of `BENCH_bb.json`.
fn segmented_run(
    budget: u64,
    workers: usize,
    order: SegmentOrder,
) -> (E12SegmentedReport, f64, popproto_exec::PoolStats) {
    let start = Instant::now();
    let pool = popproto_exec::Pool::new(workers);
    let mut search = e12_segmented_search(MAX_INPUT, order);
    search.run_on(&pool, budget);
    let seconds = start.elapsed().as_secs_f64();
    (
        e12_segmented_report_from(&search, budget, workers),
        seconds,
        pool.stats(),
    )
}

/// Renders pool counters as the `"pool"` object of a scaling row.
fn pool_json(stats: &popproto_exec::PoolStats) -> String {
    let tasks: Vec<String> = stats.per_worker_tasks.iter().map(u64::to_string).collect();
    let idle_ms: Vec<String> = stats
        .per_worker_idle_ns
        .iter()
        .map(|&ns| format!("{:.1}", ns as f64 / 1e6))
        .collect();
    format!(
        "{{\"workers\": {}, \"helped\": {}, \"worker_tasks\": [{}], \"worker_idle_ms\": [{}]}}",
        stats.workers,
        stats.helped,
        tasks.join(", "),
        idle_ms.join(", ")
    )
}

/// Asserts the segmented prefix reproduces the sequential stream over the
/// same candidate range bit for bit: funnel counters, best η, witness set.
/// Only the memo hits split differently (segment-local and shared tables).
fn assert_segmented_matches_sequential(
    report: &E12SegmentedReport,
    reference: &CandidatePipeline,
    ref_stats: &PipelineStats,
) {
    let mut seg_stats = report.stats.clone();
    let mut ref_stats = ref_stats.clone();
    for s in [&mut seg_stats, &mut ref_stats] {
        s.memo_hits = 0;
        s.memo_hits_cross = 0;
    }
    assert_eq!(seg_stats, ref_stats, "funnel diverged");
    assert_eq!(
        report.best_eta,
        reference.best().map(|b| b.eta),
        "best eta diverged"
    );
    let seg_confirmed: Vec<u128> = report.confirmed.iter().map(|c| c.get()).collect();
    assert_eq!(
        seg_confirmed,
        reference.confirmed(),
        "witness sets diverged"
    );
}

/// Measures the fingerprint-canonicalization hit-rate delta on the
/// sequential stream over `[0, end)`:
/// `(hit_rate_with, hit_rate_without, entries_with, entries_without, orbits)`.
fn canonicalization_delta(end: u128) -> (f64, f64, u64, u64, u64) {
    let run = |canonical: bool| {
        let mut config = e12_pipeline_config(MAX_INPUT);
        config.canonical_fingerprints = canonical;
        let (pipeline, stats) = sequential_reference(4, end, &config);
        (
            stats.memo_hits as f64 / stats.canonical_orbits.max(1) as f64,
            pipeline.memo_len() as u64,
            stats.canonical_orbits,
        )
    };
    let (with_rate, with_entries, orbits) = run(true);
    let (without_rate, without_entries, _) = run(false);
    assert!(
        with_rate >= without_rate,
        "canonicalization must never lose hits ({with_rate} < {without_rate})"
    );
    assert!(with_entries <= without_entries);
    (
        with_rate,
        without_rate,
        with_entries,
        without_entries,
        orbits,
    )
}

fn emit_bench_json(_c: &mut Criterion) {
    let full = std::env::var_os("BENCH_BB_FULL").is_some();
    let budget: u64 = if full { 1_000_000 } else { 20_000 };
    let smoke_workers: usize = std::env::var("BENCH_BB_WORKERS")
        .ok()
        .and_then(|w| w.parse().ok())
        .unwrap_or(2);
    let sessions = 3u64;

    // 1. Segmented streaming: the scaling matrix (full) or the CI matrix
    // worker count (smoke).  The budget cut is segment-aligned and
    // worker-independent, so every run merges the same candidate range.
    let scaling_workers: Vec<usize> = if full {
        vec![1, 2, 4, 8]
    } else {
        vec![smoke_workers]
    };
    let scaling: Vec<_> = scaling_workers
        .iter()
        .map(|&workers| (workers, segmented_run(budget, workers, SegmentOrder::Index)))
        .collect();
    let straight = &scaling[0].1 .0;
    assert!(straight.prefix_orbits >= budget, "budget not honoured");

    // 2. The sequential stream over the same candidate range: the
    // `e12_bb4_prefix` row and the speedup baseline.
    let end = u128::from(straight.candidates_consumed);
    let start = Instant::now();
    let (reference, ref_stats) = sequential_reference(4, end, &e12_pipeline_config(MAX_INPUT));
    let seconds = start.elapsed().as_secs_f64();
    let orbits = ref_stats.canonical_orbits;
    assert_eq!(
        ref_stats.pruned_symbolic + ref_stats.pruned_eta_bounded + ref_stats.profiled,
        orbits,
        "the funnel must account for every canonical orbit"
    );
    assert_eq!(
        ref_stats.truncated_orbits, 0,
        "no 4-state prefix slice may hit the exploration cap"
    );
    let best_eta = reference.best().map(|b| b.eta);
    println!(
        "[E12] BB_det(4) prefix, sequential stream: {orbits} canonical orbits in {seconds:.2}s \
         ({:.0} orbits/s), funnel: {} symbolic / {} eta-floor / {} profiled / {} confirmed, \
         {} memo hits over {} entries, best eta so far {best_eta:?}",
        orbits as f64 / seconds,
        ref_stats.pruned_symbolic,
        ref_stats.pruned_eta_bounded,
        ref_stats.profiled,
        ref_stats.threshold_protocols,
        ref_stats.memo_hits,
        reference.memo_len(),
    );

    // 3. Each segmented run, gated on funnel bit-identity against the
    // sequential stream.
    let mut scaling_rows = Vec::new();
    for (workers, (seg_report, seg_seconds, pool_stats)) in &scaling {
        assert_segmented_matches_sequential(seg_report, &reference, &ref_stats);
        let throughput = seg_report.prefix_orbits as f64 / seg_seconds;
        println!(
            "[E12] segmented @ {workers} workers: {} orbits in {seg_seconds:.2}s \
             ({throughput:.0} orbits/s, {} segments, {} local + {} cross memo hits, \
             {} pool tasks + {} helped) — funnel bit-identical to the sequential stream",
            seg_report.prefix_orbits,
            seg_report.segments_merged,
            seg_report.stats.memo_hits,
            seg_report.stats.memo_hits_cross,
            pool_stats.total_tasks(),
            pool_stats.helped,
        );
        scaling_rows.push(format!(
            "      {{\"workers\": {workers}, \"seconds\": {seg_seconds:.3}, \
             \"orbits_per_second\": {throughput:.0}, \"segments_merged\": {}, \
             \"memo_hits_local\": {}, \"memo_hits_cross\": {}, \
             \"speedup_vs_sequential\": {:.2}, \"identical_funnel\": true, \
             \"pool\": {}}}",
            seg_report.segments_merged,
            seg_report.stats.memo_hits,
            seg_report.stats.memo_hits_cross,
            seconds / seg_seconds,
            pool_json(pool_stats),
        ));
    }

    // 4. Multi-session kill/resume through JSON multi-cursor checkpoints,
    // alternating worker counts: bit-identical to the uninterrupted run.
    let resume_workers = [smoke_workers.max(2), 3usize];
    let (resumed, checkpoint_bytes) = killed_and_resumed(budget, sessions, resume_workers);
    assert_segmented_matches_sequential(&resumed, &reference, &ref_stats);
    // Identical segmentation ⟹ identical local hits; only cross may differ.
    assert_eq!(
        resumed.stats.memo_hits, straight.stats.memo_hits,
        "kill/resume local memo hits diverged"
    );
    println!(
        "[E12] segmented kill/resume across {sessions} sessions @ {} / {} workers: stats, \
         best and witness set bit-identical, largest checkpoint {:.1} MB",
        resume_workers[1],
        resume_workers[0],
        checkpoint_bytes as f64 / 1e6
    );

    // 4b. Checkpoint encoding: the v2 delta-packed memo tables against the
    // v1 raw record arrays, measured on a real mid-run checkpoint (the
    // kill/resume assert above already proves the packed bytes resume
    // bit-identically).
    let mut enc_search = e12_segmented_search(MAX_INPUT, SegmentOrder::Index);
    enc_search.run(smoke_workers, budget / 2);
    let enc_checkpoint = enc_search.checkpoint();
    let bytes_packed = serde_json::to_string(&enc_checkpoint)
        .expect("checkpoint serialises")
        .len();
    let mut memo_entries_total = 0u64;
    let mut packed_fields = 0usize;
    let mut legacy_fields = 0usize;
    let mut field_delta = |packed: &popproto::candidate_pipeline::PackedMemo| {
        let records = packed.unpack().expect("packed memo decodes");
        memo_entries_total += packed.entries;
        packed_fields += serde_json::to_string(packed).unwrap().len();
        legacy_fields += serde_json::to_string(&records).unwrap().len();
    };
    field_delta(&enc_checkpoint.shared_memo);
    for entry in &enc_checkpoint.segments {
        field_delta(&entry.local_memo);
    }
    let bytes_legacy = bytes_packed - packed_fields + legacy_fields;
    println!(
        "[E12] checkpoint encoding: {memo_entries_total} memo entries, \
         {:.2} MB as v1 raw records -> {:.2} MB delta-packed ({:.1}x smaller)",
        bytes_legacy as f64 / 1e6,
        bytes_packed as f64 / 1e6,
        bytes_legacy as f64 / bytes_packed as f64,
    );
    let encoding_json = format!(
        "  \"checkpoint_encoding\": {{\n    \"version\": 2,\n    \"orbit_budget\": {},\n    \"memo_entries\": {memo_entries_total},\n    \"bytes_v1_raw_records\": {bytes_legacy},\n    \"bytes_v2_packed\": {bytes_packed},\n    \"shrink_factor\": {:.2},\n    \"resume_bit_identical\": true\n  }}",
        budget / 2,
        bytes_legacy as f64 / bytes_packed as f64,
    );

    // 5. Fingerprint canonicalization: the hit-rate delta.
    let canon_end = end.min(1 << 18);
    let (with_rate, without_rate, with_entries, without_entries, canon_orbits) =
        canonicalization_delta(canon_end);
    println!(
        "[E12] fingerprint canonicalization over {canon_orbits} orbits: hit rate \
         {:.1}% -> {:.1}%, memo entries {} -> {}",
        without_rate * 100.0,
        with_rate * 100.0,
        without_entries,
        with_entries,
    );

    // 6. Entropy-guided order: what the same budget surfaces when segments
    // are visited by descending function-index entropy.
    let entropy_budget = if full { 50_000 } else { 2_000 };
    let (entropy_report, entropy_seconds, _) = segmented_run(
        entropy_budget,
        smoke_workers,
        SegmentOrder::EntropyDescending,
    );
    println!(
        "[E12] entropy order @ {entropy_budget} orbits in {entropy_seconds:.2}s: \
         {} profiled / {} confirmed (index order at the same budget profiles the \
         degenerate corner instead)",
        entropy_report.stats.profiled, entropy_report.stats.threshold_protocols,
    );

    // 7. BB_det(3) through the new pipeline against the PR 3 reference
    // (regenerating the JSON implies re-proving the bit-identity).
    let mut bb3_entry = String::new();
    if full {
        let limits = ExploreLimits::default();
        let start = Instant::now();
        let bb3 = busy_beaver_search(3, 6, u64::MAX, &limits);
        let bb3_seconds = start.elapsed().as_secs_f64();
        assert_eq!(bb3.best_eta, Some(3), "BB_det(3) changed");
        assert_eq!(
            bb3.threshold_protocols, 46_144,
            "threshold_protocols changed"
        );
        assert_eq!(bb3.pruned_symmetric, 186_336, "pruned_symmetric changed");
        assert!(
            bb3.is_exact(),
            "BB_det(3) must be exact (no truncated orbit)"
        );
        const PR3_SECONDS: f64 = 0.91;
        println!(
            "[E12] BB_det(3) gate: best_eta=3, threshold_protocols=46144 reproduced in \
             {bb3_seconds:.2}s ({:.2}x the PR 3 reference {PR3_SECONDS}s)",
            bb3_seconds / PR3_SECONDS
        );
        bb3_entry = format!(
            ",\n  \"bb3_reference\": {{\n    \"best_eta\": 3,\n    \"threshold_protocols\": 46144,\n    \"pruned_symmetric\": 186336,\n    \"pruned_symbolic\": {},\n    \"memo_hits\": {},\n    \"seconds\": {bb3_seconds:.4},\n    \"pr3_seconds\": {PR3_SECONDS},\n    \"ratio_vs_pr3\": {:.3},\n    \"exact\": {}\n  }}",
            bb3.pruned_symbolic,
            bb3.memo_hits,
            bb3_seconds / PR3_SECONDS,
            bb3.is_exact()
        );
    }

    let host_cpus = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let stats_json = serde_json::to_string(&ref_stats).expect("stats serialise");
    let entropy_stats_json = serde_json::to_string(&entropy_report.stats).expect("stats serialise");
    let json_eta = |eta: Option<u64>| eta.map_or_else(|| "null".to_owned(), |e| e.to_string());
    let json = format!(
        "{{\n  \"e12_bb4_prefix\": {{\n    \"search\": \"sequential stream\",\n    \"num_states\": 4,\n    \"orbit_budget\": {budget},\n    \"max_input\": {MAX_INPUT},\n    \"eta_floor\": {},\n    \"engine\": \"frontier\",\n    \"seconds\": {seconds:.3},\n    \"orbits_per_second\": {:.0},\n    \"stats\": {stats_json},\n    \"memo_entries\": {},\n    \"candidates_consumed\": {end},\n    \"best_eta\": {},\n    \"finished\": {},\n    \"resume_check\": {{\n      \"search\": \"segmented\",\n      \"sessions\": {sessions},\n      \"workers\": [{}, {}],\n      \"identical_stats\": true,\n      \"largest_checkpoint_bytes\": {checkpoint_bytes}\n    }}\n  }},\n  \"parallel_scaling\": {{\n    \"orbit_budget\": {budget},\n    \"segment_size\": {},\n    \"host_cpus\": {host_cpus},\n    \"pool_workers\": {},\n    \"time_sliced\": {},\n    \"order\": \"index\",\n    \"note\": \"funnel, best eta and witness set asserted bit-identical to the sequential stream at every worker count; resume asserted across differing worker counts; speedups are bounded by host_cpus — a single-core host time-slices the workers\",\n    \"runs\": [\n{}\n    ]\n  }},\n{encoding_json},\n  \"fingerprint_canonicalization\": {{\n    \"candidates\": {canon_end},\n    \"canonical_orbits\": {canon_orbits},\n    \"hit_rate_without\": {without_rate:.4},\n    \"hit_rate_with\": {with_rate:.4},\n    \"memo_entries_without\": {without_entries},\n    \"memo_entries_with\": {with_entries}\n  }},\n  \"entropy_order\": {{\n    \"orbit_budget\": {entropy_budget},\n    \"seconds\": {entropy_seconds:.3},\n    \"stats\": {entropy_stats_json},\n    \"best_eta\": {}\n  }}{bb3_entry}\n}}\n",
        reference.config().eta_floor,
        orbits as f64 / seconds,
        reference.memo_len(),
        json_eta(best_eta),
        straight.finished,
        resume_workers[1],
        resume_workers[0],
        straight.segment_size,
        popproto_exec::default_workers(),
        host_cpus == 1,
        scaling_rows.join(",\n"),
        json_eta(entropy_report.best_eta),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_bb.json");
    if full {
        std::fs::write(path, &json).expect("failed to write BENCH_bb.json");
        println!("[E12] wrote {path}");
    } else {
        println!(
            "[E12] smoke run complete @ {smoke_workers} workers (set BENCH_BB_FULL=1 to \
             stream 10^6 orbits and regenerate {path})"
        );
    }
}

criterion_group!(benches, emit_bench_json);
criterion_main!(benches);
