//! Parallel segmented streaming for the busy-beaver search: deterministic
//! `u128` segments, a persistent worker pool, a shared cross-segment
//! transposition table, and ordered segment merges.
//!
//! This is the workspace's only busy-beaver search loop: exhaustive
//! searches ([`crate::enumeration`]) and the checkpointed `BB_det(4)` prefix
//! (experiment E12) both run through it.
//!
//! # Why segments
//!
//! One cursor over one index range is inherently single-threaded.  This
//! module splits a candidate range into fixed-size **segments** (aligned to
//! whole output blocks so every segment decodes its own function indices
//! from scratch exactly once) and makes the segment the unit of
//! parallelism, of checkpointing and of budget cuts: workers pull segments
//! from a shared-queue worker pool ([`popproto_exec`]), run each through
//! its own [`CandidatePipeline`] funnel, and probe a [`SharedMemo`] between
//! their segment-local table and the triage stages.  One worker with one
//! segment is the sequential stream: one pipeline over one range scan.
//!
//! # The determinism argument
//!
//! Everything reported by a segmented search is an **ordered merge of
//! per-segment results**, and each per-segment result is a pure function of
//! the segment's index range and the pipeline configuration:
//!
//! * stage verdicts are pure functions of the candidate (triage runs on the
//!   protocol the memo fingerprint decodes to, so even a verdict replayed
//!   from the shared table equals the one a recompute would produce);
//! * per-segment counters (`canonical_orbits`, `pruned_*`, `profiled`,
//!   `threshold_protocols`, `truncated_orbits`, and the *local*
//!   `memo_hits`) therefore never depend on what other segments did;
//! * the merge folds segments in the fixed [`SegmentOrder`] with the
//!   [`BestCandidate::merge`] tie-break (larger η, then smaller index), so
//!   the fold is associative-in-order and independent of completion order.
//!
//! The single exception is [`PipelineStats::memo_hits_cross`] — hits against
//! the shared table — which depends on scheduling and is reported separately
//! (and never asserted).  A full range processed at any worker count is
//! therefore **bit-identical** (stats, best η, witness set, funnel) to the
//! same range processed sequentially, which the property suite in
//! `crates/core/tests/parallel_equivalence.rs` pins for worker counts
//! {1, 2, 4, 7}, random segment sizes, and kill/resume across differing
//! worker counts.
//!
//! # Budgeted prefixes
//!
//! A budgeted run ([`SegmentedSearch::run`]) processes whole segments in
//! order until the **completed in-order prefix** holds at least the target
//! number of canonical orbits.  The prefix cut is segment-aligned, so it is
//! a deterministic function of the budget — independent of worker count.
//! Workers that ran past the cut keep their partial progress in the
//! checkpoint (nothing is recomputed when the budget grows), but the merged
//! result never includes a segment outside the completed prefix.
//!
//! # Multi-cursor checkpoints
//!
//! [`SegmentedSearch::checkpoint`] serialises one [`StreamCursor`] *per
//! touched segment* plus its per-segment stats/best/witnesses, the local
//! memo of in-flight segments, and the shared table.  Because per-segment
//! results are scheduling-independent, a checkpoint taken from an 8-worker
//! run resumes bit-identically at any other worker count.

use crate::candidate_pipeline::{
    BestCandidate, CandidatePipeline, PackedMemo, PipelineConfig, PipelineStats, SharedMemo,
};
use crate::enumeration::EnumerationResult;
use crate::orbit_stream::{OrbitSpace, OrbitStream, SegmentOrder, StreamCursor, U128Parts};
use popproto_exec::Pool;
use popproto_obs as obs;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// How a candidate range is cut into segments and in which order the
/// segments are visited.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SegmentationConfig {
    /// Candidate encodings per segment.  Rounded up to a whole number of
    /// output blocks (`2^n` encodings share one decoded transition
    /// assignment), minimum one block.
    pub segment_size: u64,
    /// Exclusive end of the searched candidate range; `None` = the whole
    /// space.  Large spaces (the full 4-state space has ~1.6·10¹¹
    /// encodings) must cap the range so the segment plan stays enumerable.
    pub range_end: Option<U128Parts>,
    /// The segment visit order.
    pub order: SegmentOrder,
}

impl SegmentationConfig {
    /// Index-ordered segmentation of `[0, range_end)` with the given
    /// segment size.
    pub fn index_order(segment_size: u64, range_end: Option<u128>) -> Self {
        SegmentationConfig {
            segment_size,
            range_end: range_end.map(U128Parts::from),
            order: SegmentOrder::Index,
        }
    }

    /// Entropy-ordered segmentation (descending Rényi-2 digit entropy) of
    /// `[0, range_end)`.
    pub fn entropy_order(segment_size: u64, range_end: Option<u128>) -> Self {
        SegmentationConfig {
            segment_size,
            range_end: range_end.map(U128Parts::from),
            order: SegmentOrder::EntropyDescending,
        }
    }
}

/// Hard cap on the number of segments a plan may enumerate (the plan and the
/// per-segment bookkeeping are materialised in memory).
const MAX_SEGMENTS: usize = 1 << 20;

/// The serialisable snapshot of one touched segment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SegmentEntry {
    /// Start of the segment's candidate range.
    pub start: U128Parts,
    /// Exclusive end of the segment's candidate range.
    pub end: U128Parts,
    /// The segment's stream cursor (multi-cursor checkpointing: one cursor
    /// per segment).
    pub cursor: StreamCursor,
    /// The segment's deterministic per-stage counters so far.
    pub stats: PipelineStats,
    /// Threshold of the segment's best candidate so far.
    pub best_eta: Option<u64>,
    /// Encoding index of the segment's best candidate so far.
    pub best_index: Option<U128Parts>,
    /// Encoding indices of the segment's confirmed threshold protocols.
    pub confirmed: Vec<U128Parts>,
    /// `true` once the segment's range is exhausted.
    pub done: bool,
    /// The segment-local memo table, delta-packed ([`PackedMemo`]) —
    /// serialised only for in-flight segments (a finished segment's local
    /// hits can never change again, and its computed verdicts already
    /// live in the shared table).
    pub local_memo: PackedMemo,
}

/// A serialisable snapshot of a [`SegmentedSearch`] between two bursts.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SegmentedCheckpoint {
    /// Checkpoint format version.
    pub version: u32,
    /// State count of the candidate space.
    pub num_states: usize,
    /// The pipeline configuration (must not change across resumes).
    pub config: PipelineConfig,
    /// The segmentation (must not change across resumes — the plan is
    /// recomputed from it deterministically).
    pub segmentation: SegmentationConfig,
    /// The merge cut of the latest run (`u64::MAX` = the whole plan).
    pub target_orbits: u64,
    /// Every touched segment, in plan order.
    pub segments: Vec<SegmentEntry>,
    /// The shared cross-segment transposition table, sorted by
    /// fingerprint and delta-packed ([`PackedMemo`]): version-2
    /// checkpoints shrank an order of magnitude mostly through this field
    /// (sorted fingerprints share long prefixes, and the hex stream costs
    /// 2 characters per byte where a JSON number array costs ~4).
    pub shared_memo: PackedMemo,
}

/// The ordered-merge result of a segmented search's completed prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentedResult {
    /// State count of the candidate space.
    pub num_states: usize,
    /// Merged per-stage counters of the completed prefix (with each
    /// segment's `pruned_symmetric` folded in from its cursor).
    pub stats: PipelineStats,
    /// The best candidate of the completed prefix.
    pub best: Option<BestCandidate>,
    /// Encoding indices of every confirmed threshold protocol in the
    /// completed prefix, sorted ascending — the witness set.
    pub confirmed: Vec<u128>,
    /// Number of segments in the completed prefix.
    pub segments_merged: usize,
    /// Candidate encodings consumed by the completed prefix.
    pub candidates_consumed: u128,
    /// Canonical orbits in the completed prefix.
    pub prefix_orbits: u64,
    /// `true` once the merged prefix covers the whole plan (never under a
    /// budget cut that stops before the end).
    pub finished: bool,
}

impl SegmentedResult {
    /// Converts the merged prefix into the search-level result type
    /// (witness rebuilt from the best candidate's encoding index).
    pub fn to_enumeration_result(&self, space: &OrbitSpace, max_input: u64) -> EnumerationResult {
        EnumerationResult {
            num_states: self.num_states,
            best_eta: self.best.map(|b| b.eta),
            witness: self.best.map(|b| space.protocol_at(b.index)),
            protocols_examined: u64::try_from(self.candidates_consumed).unwrap_or(u64::MAX),
            threshold_protocols: self.stats.threshold_protocols,
            pruned_symmetric: self.stats.pruned_symmetric,
            pruned_symbolic: self.stats.pruned_symbolic,
            pruned_eta_bounded: self.stats.pruned_eta_bounded,
            truncated_orbits: self.stats.truncated_orbits,
            memo_hits: self.stats.memo_hits,
            memo_hits_cross: self.stats.memo_hits_cross,
            max_input,
        }
    }
}

/// One segment's runtime state.
#[derive(Debug)]
struct SegmentRun {
    start: u128,
    end: u128,
    cursor: StreamCursor,
    pipeline: CandidatePipeline,
    done: bool,
}

impl SegmentRun {
    /// The segment's deterministic stats with the generator's
    /// `pruned_symmetric` folded in from the cursor.
    fn stats(&self) -> PipelineStats {
        let mut stats = self.pipeline.stats().clone();
        stats.pruned_symmetric = self.cursor.pruned_symmetric;
        stats
    }
}

/// Tracks the completed in-order prefix while a wave of segments runs.
struct PrefixTracker {
    /// `yielded` orbit counts of completed segments, keyed by plan
    /// position, for positions at or beyond the prefix pointer.
    done: HashMap<usize, u64>,
    /// First plan position not yet completed.
    prefix_pos: usize,
    /// Canonical orbits in the completed prefix.
    prefix_orbits: u64,
}

impl PrefixTracker {
    /// Records the completion of the segment at plan position `pos` and
    /// advances the prefix; returns the new prefix orbit count.
    fn complete(&mut self, pos: usize, yielded: u64) -> u64 {
        self.done.insert(pos, yielded);
        while let Some(y) = self.done.remove(&self.prefix_pos) {
            self.prefix_orbits += y;
            self.prefix_pos += 1;
        }
        self.prefix_orbits
    }
}

/// The parallel segmented streaming search: a segment plan, per-segment
/// pipelines, a shared memo, and ordered merges.
#[derive(Debug)]
pub struct SegmentedSearch {
    /// Arc so pool jobs (which must be `'static`) can share the space and
    /// the memo without borrowing `self`.
    space: Arc<OrbitSpace>,
    config: PipelineConfig,
    segmentation: SegmentationConfig,
    /// Segment size in candidate encodings (output-block aligned).
    seg_size: u128,
    /// Exclusive end of the searched range.
    end: u128,
    /// Segment ids in visit order.
    order: Vec<u32>,
    /// Runtime state per segment id (`None` = untouched).  Boxed: a range
    /// has far more segments than a search touches, and an untouched slot
    /// then costs one pointer, not a whole pipeline.
    runs: Vec<Option<Box<SegmentRun>>>,
    /// The orbit target of the latest [`SegmentedSearch::run`] — the merge
    /// cut: [`SegmentedSearch::result`] folds the minimal in-order segment
    /// prefix whose canonical-orbit count reaches it, which keeps the
    /// merged result independent of how far past the cut eager workers ran.
    target_orbits: u64,
    shared: Arc<SharedMemo>,
}

impl SegmentedSearch {
    /// Plans a fresh segmented search over `[0, range_end)` of the
    /// `num_states` candidate space.
    ///
    /// # Panics
    ///
    /// Panics if the plan would exceed `MAX_SEGMENTS` (2²⁰) segments — cap
    /// the range or grow the segments.
    pub fn new(
        num_states: usize,
        config: PipelineConfig,
        segmentation: SegmentationConfig,
    ) -> Self {
        let space = Arc::new(OrbitSpace::new(num_states));
        let (seg_size, end, order) = plan(&space, &segmentation);
        let num_segments = order.len();
        SegmentedSearch {
            space,
            shared: Arc::new(SharedMemo::new(config.memo_max_entries)),
            config,
            segmentation,
            seg_size,
            end,
            order,
            runs: (0..num_segments).map(|_| None).collect(),
            target_orbits: u64::MAX,
        }
    }

    /// Restores a search from a checkpoint.  The plan is recomputed from
    /// the checkpointed segmentation (it is a pure function of it), so the
    /// resumed search continues bit-identically **at any worker count**.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint does not match the recomputed plan: a
    /// segment entry whose `start` or `end` is not a plan segment's, a
    /// second entry for the same segment, a cursor that would scan outside
    /// its segment, or a `done` segment whose cursor stopped short of its
    /// end.
    pub fn from_checkpoint(checkpoint: &SegmentedCheckpoint) -> Self {
        assert_eq!(
            checkpoint.version, SEGMENTED_CHECKPOINT_VERSION,
            "unknown segmented checkpoint version"
        );
        let mut search = SegmentedSearch::new(
            checkpoint.num_states,
            checkpoint.config.clone(),
            checkpoint.segmentation.clone(),
        );
        search.target_orbits = checkpoint.target_orbits;
        search.shared.seed(
            &checkpoint
                .shared_memo
                .unpack()
                .expect("corrupt packed shared memo in checkpoint"),
        );
        for entry in &checkpoint.segments {
            let start = entry.start.get();
            let seg_id = usize::try_from(start / search.seg_size).expect("segment id fits");
            assert!(
                seg_id < search.runs.len() && start == search.seg_size * seg_id as u128,
                "checkpoint segment does not match the recomputed plan"
            );
            let end = (start + search.seg_size).min(search.end);
            assert_eq!(
                entry.end.get(),
                end,
                "checkpoint segment end does not match the recomputed plan"
            );
            assert!(
                search.runs[seg_id].is_none(),
                "checkpoint holds two entries for the segment at {start}"
            );
            let (next, cursor_end) = (entry.cursor.next.get(), entry.cursor.end.get());
            assert!(
                start <= next && next <= end && cursor_end == end,
                "checkpoint cursor scans outside its segment"
            );
            assert!(
                !entry.done || next == end,
                "checkpoint marks a segment done before its cursor reached the end"
            );
            let mut pipeline =
                CandidatePipeline::new(checkpoint.num_states, checkpoint.config.clone());
            let best = match (entry.best_eta, entry.best_index) {
                (Some(eta), Some(index)) => Some(BestCandidate {
                    eta,
                    index: index.get(),
                }),
                _ => None,
            };
            let mut stats = entry.stats.clone();
            stats.pruned_symmetric = 0; // lives in the cursor until merge time
            pipeline.restore(
                stats,
                best,
                entry.confirmed.iter().map(|c| c.get()).collect(),
                &entry
                    .local_memo
                    .unpack()
                    .expect("corrupt packed local memo in checkpoint"),
            );
            search.runs[seg_id] = Some(Box::new(SegmentRun {
                start,
                end,
                cursor: entry.cursor.clone(),
                pipeline,
                done: entry.done,
            }));
        }
        search
    }

    /// Serialises the full search state: one cursor and stats block per
    /// touched segment, local memos of in-flight segments, and the merged
    /// (shared) memo table.
    pub fn checkpoint(&self) -> SegmentedCheckpoint {
        self.checkpoint_evicting(0)
    }

    /// [`SegmentedSearch::checkpoint`], but sheds shared-memo entries hit
    /// fewer than `min_hits` times.  The shared table is a pure cache of
    /// deterministic verdicts, so eviction never changes what a resumed
    /// search reports — at worst an evicted verdict is recomputed (see
    /// `cold_memo_eviction_preserves_resumed_results` in this module's
    /// tests).  Most entries are inserted once and never consulted again;
    /// `min_hits = 1` typically shrinks BB checkpoints by an order of
    /// magnitude.
    pub fn checkpoint_evicting(&self, min_hits: u32) -> SegmentedCheckpoint {
        let mut segments = Vec::new();
        for &seg_id in &self.order {
            let Some(run) = &self.runs[seg_id as usize] else {
                continue;
            };
            let best = run.pipeline.best();
            segments.push(SegmentEntry {
                start: run.start.into(),
                end: run.end.into(),
                cursor: run.cursor.clone(),
                stats: run.stats(),
                best_eta: best.map(|b| b.eta),
                best_index: best.map(|b| b.index.into()),
                confirmed: run.pipeline.confirmed().iter().map(|&c| c.into()).collect(),
                done: run.done,
                local_memo: if run.done {
                    PackedMemo::default()
                } else {
                    PackedMemo::pack(&run.pipeline.memo_records())
                },
            });
        }
        SegmentedCheckpoint {
            version: SEGMENTED_CHECKPOINT_VERSION,
            num_states: self.space.num_states(),
            config: self.config.clone(),
            segmentation: self.segmentation.clone(),
            target_orbits: self.target_orbits,
            segments,
            shared_memo: PackedMemo::pack(&self.shared.records_with_min_hits(min_hits)),
        }
    }

    /// The candidate space being searched.
    pub fn space(&self) -> &OrbitSpace {
        &self.space
    }

    /// The pipeline configuration the search runs with.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// The segmentation the plan was computed from.
    pub fn segmentation(&self) -> &SegmentationConfig {
        &self.segmentation
    }

    /// The segment visit order of the plan.
    pub fn segmentation_order(&self) -> SegmentOrder {
        self.segmentation.order
    }

    /// Number of segments in the plan.
    pub fn num_segments(&self) -> usize {
        self.order.len()
    }

    /// Entries in the shared cross-segment memo table.
    pub fn shared_memo_len(&self) -> usize {
        self.shared.len()
    }

    /// Canonical orbits in the completed in-order prefix.
    pub fn prefix_orbits(&self) -> u64 {
        self.prefix_state().1
    }

    /// Returns `true` once [`Self::result`] covers the whole plan: every
    /// segment is done and the last run's budget does not cut the merge
    /// short.  Segments can all finish under a smaller budget (a wave's
    /// overshoot is kept), but the merge still stops at the budget, so
    /// "all segments done" alone does not mean the result is finished.
    pub fn is_finished(&self) -> bool {
        self.result().finished
    }

    /// `(first unfinished plan position, orbits in the completed prefix)`.
    fn prefix_state(&self) -> (usize, u64) {
        let mut orbits = 0u64;
        for (pos, &seg_id) in self.order.iter().enumerate() {
            match &self.runs[seg_id as usize] {
                Some(run) if run.done => orbits += run.cursor.yielded,
                _ => return (pos, orbits),
            }
        }
        (self.order.len(), orbits)
    }

    /// Runs segments on a pool of `workers` workers (`0` = the
    /// machine's parallelism) until the completed in-order prefix holds at
    /// least `target_prefix_orbits` canonical orbits (or the plan is
    /// exhausted).  Returns the prefix orbit count afterwards.
    ///
    /// The target counts *cumulative* orbits, so growing budgets across
    /// sessions compose: `run(w, 1000)` then `run(w, 3000)` processes
    /// exactly what one `run(w, 3000)` would have.
    pub fn run(&mut self, workers: usize, target_prefix_orbits: u64) -> u64 {
        // One persistent pool for the whole run: the wave loop below fans
        // out many times, and with scoped threads each wave paid a full
        // spawn/join round.
        let pool = Pool::new(workers);
        self.run_on(&pool, target_prefix_orbits)
    }

    /// [`SegmentedSearch::run`] on a caller-owned pool, so the caller can
    /// read [`Pool::stats`] afterwards (per-worker task counts, idle time,
    /// helping-wait jobs) — e.g. for the `parallel_scaling` rows of the
    /// busy-beaver bench report.
    pub fn run_on(&mut self, pool: &Pool, target_prefix_orbits: u64) -> u64 {
        self.run_inner(pool, target_prefix_orbits, None)
    }

    /// [`SegmentedSearch::run_on`] with streaming progress: between waves
    /// (and once, forced, at the end) a JSONL line is emitted through
    /// `heartbeat` carrying orbit throughput, an ETA against the target,
    /// the funnel counters so far, the best η so far — and a full
    /// serialised [`SegmentedCheckpoint`] under `"checkpoint"`, so a
    /// consumer can resume the search from **any** heartbeat line it has
    /// seen (the per-segment [`StreamCursor`]s ride inside it).
    ///
    /// The heartbeat is a pure observer: it reads completed per-segment
    /// state between waves and never influences wave picking, budget cuts,
    /// or segment scheduling, so results stay bit-identical with or
    /// without it.
    pub fn run_with_heartbeat(
        &mut self,
        pool: &Pool,
        target_prefix_orbits: u64,
        heartbeat: &mut obs::Heartbeat,
    ) -> u64 {
        self.run_inner(pool, target_prefix_orbits, Some(heartbeat))
    }

    fn run_inner(
        &mut self,
        pool: &Pool,
        target_prefix_orbits: u64,
        mut heartbeat: Option<&mut obs::Heartbeat>,
    ) -> u64 {
        self.target_orbits = target_prefix_orbits;
        let started = Instant::now();
        loop {
            let (prefix_pos, prefix_orbits) = self.prefix_state();
            if prefix_orbits >= target_prefix_orbits || prefix_pos == self.order.len() {
                if let Some(hb) = heartbeat.as_deref_mut() {
                    let line = self.heartbeat_line(hb, started, target_prefix_orbits, true);
                    hb.emit(&line);
                }
                return prefix_orbits;
            }
            if let Some(hb) = heartbeat.as_deref_mut() {
                if hb.due() {
                    let line = self.heartbeat_line(hb, started, target_prefix_orbits, false);
                    hb.emit(&line);
                }
            }
            let wave_positions = self.pick_wave(
                prefix_pos,
                prefix_orbits,
                target_prefix_orbits,
                pool.workers(),
            );
            debug_assert!(!wave_positions.is_empty());
            self.run_wave(pool, &wave_positions, target_prefix_orbits, prefix_orbits);
        }
    }

    /// Builds one self-contained heartbeat JSONL line (no trailing
    /// newline).  `is_final` marks the forced end-of-run emission.
    fn heartbeat_line(
        &self,
        hb: &obs::Heartbeat,
        started: Instant,
        target: u64,
        is_final: bool,
    ) -> String {
        let (_, prefix_orbits) = self.prefix_state();
        let elapsed_s = started.elapsed().as_secs_f64();
        let orbits_per_s = if elapsed_s > 0.0 {
            prefix_orbits as f64 / elapsed_s
        } else {
            0.0
        };
        let eta_s = if target != u64::MAX && orbits_per_s > 0.0 {
            format!(
                "{:.3}",
                target.saturating_sub(prefix_orbits) as f64 / orbits_per_s
            )
        } else {
            "null".to_owned()
        };
        let target_json = if target == u64::MAX {
            "null".to_owned()
        } else {
            target.to_string()
        };
        let mut stats = PipelineStats::default();
        let mut best = None;
        let mut segments_done = 0usize;
        for run in self.runs.iter().flatten() {
            stats.merge(&run.stats());
            best = BestCandidate::merge(best, run.pipeline.best());
            segments_done += usize::from(run.done);
        }
        let best_eta = best.map_or("null".to_owned(), |b| b.eta.to_string());
        let checkpoint = serde_json::to_string(&self.checkpoint_evicting(1))
            .expect("segmented checkpoints serialise");
        format!(
            concat!(
                "{{\"kind\":\"segmented_heartbeat\",\"seq\":{},\"elapsed_s\":{:.3},",
                "\"final\":{},\"prefix_orbits\":{},\"target_orbits\":{},",
                "\"segments_done\":{},\"segments_total\":{},",
                "\"orbits_per_s\":{:.1},\"eta_s\":{},\"best_eta\":{},",
                "\"funnel\":{{\"canonical_orbits\":{},\"pruned_symmetric\":{},",
                "\"pruned_symbolic\":{},\"pruned_eta_bounded\":{},\"profiled\":{},",
                "\"threshold_protocols\":{}}},\"checkpoint\":{}}}"
            ),
            hb.seq(),
            elapsed_s,
            is_final,
            prefix_orbits,
            target_json,
            segments_done,
            self.order.len(),
            orbits_per_s,
            eta_s,
            best_eta,
            stats.canonical_orbits,
            stats.pruned_symmetric,
            stats.pruned_symbolic,
            stats.pruned_eta_bounded,
            stats.profiled,
            stats.threshold_protocols,
            checkpoint,
        )
    }

    /// Plan positions of the next wave of unfinished segments.
    fn pick_wave(
        &self,
        prefix_pos: usize,
        prefix_orbits: u64,
        target: u64,
        workers: usize,
    ) -> Vec<usize> {
        // Estimate how many segments the remaining budget needs from the
        // canonical-orbit density observed so far (pure scheduling hint —
        // results never depend on it; overshoot is kept, not discarded).
        let mut seen_candidates = 0u128;
        let mut seen_orbits = 0u64;
        for run in self.runs.iter().flatten() {
            seen_candidates += run.cursor.next.get() - run.start;
            seen_orbits += run.cursor.yielded;
        }
        let density = if seen_candidates > 0 && seen_orbits > 0 {
            (seen_orbits as f64 / seen_candidates as f64).max(1e-6)
        } else {
            0.4
        };
        let remaining_orbits = target.saturating_sub(prefix_orbits);
        let needed_segments = if remaining_orbits == u64::MAX {
            usize::MAX
        } else {
            ((remaining_orbits as f64 / density / self.seg_size as f64).ceil() as usize)
                .saturating_add(1)
        };
        let wave = needed_segments.max(workers * 2);
        self.order[prefix_pos..]
            .iter()
            .enumerate()
            .filter(|(_, &seg_id)| !self.runs[seg_id as usize].as_ref().is_some_and(|r| r.done))
            .map(|(off, _)| prefix_pos + off)
            .take(wave)
            .collect()
    }

    /// Runs one wave of segments on the pool, cancelling co-operatively as
    /// soon as the completed in-order prefix reaches the target.
    fn run_wave(
        &mut self,
        pool: &Pool,
        positions: &[usize],
        target: u64,
        prefix_orbits_before: u64,
    ) {
        let _wave = obs::span_with_arg("bb_wave", "segments", positions.len() as u64);
        let (prefix_pos_before, _) = self.prefix_state();
        // Prime the tracker with already-done segments beyond the prefix
        // (left over from earlier, larger waves).
        let mut tracker = PrefixTracker {
            done: HashMap::new(),
            prefix_pos: prefix_pos_before,
            prefix_orbits: prefix_orbits_before,
        };
        for (pos, &seg_id) in self.order.iter().enumerate().skip(prefix_pos_before) {
            if let Some(run) = &self.runs[seg_id as usize] {
                if run.done {
                    tracker.complete(pos, run.cursor.yielded);
                }
            }
        }

        // Move each wave segment's state into its job; results are moved
        // back afterwards (distinct segments, so no sharing is needed).
        let jobs: Vec<(usize, u32, Box<SegmentRun>)> = positions
            .iter()
            .map(|&pos| {
                let seg_id = self.order[pos];
                let run = self.runs[seg_id as usize].take().unwrap_or_else(|| {
                    let start = self.seg_size * seg_id as u128;
                    let end = (start + self.seg_size).min(self.end);
                    Box::new(SegmentRun {
                        start,
                        end,
                        cursor: OrbitStream::range(&self.space, start, end).cursor(),
                        pipeline: CandidatePipeline::new(
                            self.space.num_states(),
                            self.config.clone(),
                        ),
                        done: false,
                    })
                });
                (pos, seg_id, run)
            })
            .collect();

        // Pool jobs are 'static: everything the wave shares travels in Arcs.
        let cancel = Arc::new(AtomicBool::new(false));
        let tracker = Arc::new(Mutex::new(tracker));
        let space = Arc::clone(&self.space);
        let shared = Arc::clone(&self.shared);
        let finished: Vec<(u32, Box<SegmentRun>)> = pool.map(
            jobs,
            move |_, (pos, seg_id, mut run): (usize, u32, Box<SegmentRun>)| {
                if run.done || cancel.load(Ordering::Relaxed) {
                    return (seg_id, run);
                }
                // The segment lease: one complete span per segment a worker
                // holds, the unit of the per-worker exec timeline.
                let _lease = obs::span_with_arg("segment", "seg", u64::from(seg_id));
                let mut stream = OrbitStream::resume(&space, &run.cursor);
                let mut since_check = 0u32;
                loop {
                    if since_check >= 64 {
                        since_check = 0;
                        if cancel.load(Ordering::Relaxed) {
                            break;
                        }
                    }
                    since_check += 1;
                    match stream.next_canonical() {
                        Some(k) => {
                            let outputs = (k % space.output_patterns()) as u32;
                            run.pipeline.offer_shared(
                                &space,
                                k,
                                stream.current_assignment(),
                                outputs,
                                &shared,
                            );
                        }
                        None => {
                            run.done = true;
                            break;
                        }
                    }
                }
                run.cursor = stream.cursor();
                if run.done {
                    let prefix = tracker
                        .lock()
                        .expect("prefix tracker poisoned")
                        .complete(pos, run.cursor.yielded);
                    if prefix >= target {
                        cancel.store(true, Ordering::Relaxed);
                    }
                }
                (seg_id, run)
            },
        );
        for (seg_id, run) in finished {
            self.runs[seg_id as usize] = Some(run);
        }
    }

    /// The ordered merge of the completed in-order prefix.
    pub fn result(&self) -> SegmentedResult {
        let mut stats = PipelineStats::default();
        let mut best = None;
        let mut confirmed: Vec<u128> = Vec::new();
        let mut candidates = 0u128;
        let mut segments_merged = 0usize;
        for &seg_id in &self.order {
            if stats.canonical_orbits >= self.target_orbits {
                break; // the deterministic budget cut, not "whatever finished"
            }
            match &self.runs[seg_id as usize] {
                Some(run) if run.done => {
                    stats.merge(&run.stats());
                    best = BestCandidate::merge(best, run.pipeline.best());
                    confirmed.extend_from_slice(run.pipeline.confirmed());
                    candidates += run.end - run.start;
                    segments_merged += 1;
                }
                _ => break,
            }
        }
        confirmed.sort_unstable();
        SegmentedResult {
            num_states: self.space.num_states(),
            prefix_orbits: stats.canonical_orbits,
            stats,
            best,
            confirmed,
            segments_merged,
            candidates_consumed: candidates,
            finished: segments_merged == self.order.len(),
        }
    }
}

/// Version 2: memo tables are delta-packed ([`PackedMemo`]) instead of
/// serialised as raw record arrays.
const SEGMENTED_CHECKPOINT_VERSION: u32 = 2;

/// Computes `(segment size, range end, segment ids in visit order)` — a pure
/// function of the space and the segmentation config, recomputed identically
/// by every resume.
fn plan(space: &OrbitSpace, seg: &SegmentationConfig) -> (u128, u128, Vec<u32>) {
    let total = space.total_candidates();
    let end = seg.range_end.map(|e| e.get()).unwrap_or(total).min(total);
    let block = space.output_patterns();
    let seg_size = ((seg.segment_size as u128).max(1).div_ceil(block) * block).max(block);
    let num_segments = usize::try_from(end.div_ceil(seg_size)).unwrap_or(usize::MAX);
    assert!(
        num_segments <= MAX_SEGMENTS,
        "segment plan too large ({num_segments} segments): cap range_end or grow segment_size"
    );
    let mut order: Vec<u32> = (0..num_segments as u32).collect();
    if seg.order == SegmentOrder::EntropyDescending {
        let scores: Vec<u64> = order
            .iter()
            .map(|&id| space.segment_score(seg_size * id as u128))
            .collect();
        // Ascending collision count = descending Rényi-2 entropy; ties by
        // segment id — a total, deterministic order.
        order.sort_by_key(|&id| (scores[id as usize], id));
    }
    (seg_size, end, order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use popproto_reach::ExploreLimits;

    fn config(max_input: u64) -> PipelineConfig {
        PipelineConfig::exact(max_input, &ExploreLimits::default())
    }

    /// Sequential reference: drive the same plan with one worker.
    fn sequential(num_states: usize, seg: SegmentationConfig, max_input: u64) -> SegmentedResult {
        let mut search = SegmentedSearch::new(num_states, config(max_input), seg);
        search.run(1, u64::MAX);
        search.result()
    }

    #[test]
    fn full_range_matches_across_worker_counts_and_segment_sizes() {
        let reference = sequential(2, SegmentationConfig::index_order(64, None), 6);
        assert!(reference.finished);
        for workers in [1, 2, 4] {
            for seg_size in [16, 100, 1000] {
                let mut search = SegmentedSearch::new(
                    2,
                    config(6),
                    SegmentationConfig::index_order(seg_size, None),
                );
                search.run(workers, u64::MAX);
                let result = search.result();
                assert!(result.finished);
                assert_eq!(result.best, reference.best, "workers {workers}");
                assert_eq!(result.confirmed, reference.confirmed);
                // Deterministic counters agree; memo splits depend on the
                // segmentation, so compare them piecewise.
                assert_eq!(
                    result.stats.canonical_orbits,
                    reference.stats.canonical_orbits
                );
                assert_eq!(
                    result.stats.pruned_symmetric,
                    reference.stats.pruned_symmetric
                );
                assert_eq!(
                    result.stats.pruned_symbolic,
                    reference.stats.pruned_symbolic
                );
                assert_eq!(result.stats.profiled, reference.stats.profiled);
                assert_eq!(
                    result.stats.threshold_protocols,
                    reference.stats.threshold_protocols
                );
            }
        }
    }

    #[test]
    fn entropy_order_processes_the_same_full_range() {
        let index = sequential(2, SegmentationConfig::index_order(128, None), 6);
        let entropy = sequential(2, SegmentationConfig::entropy_order(128, None), 6);
        assert!(entropy.finished);
        assert_eq!(entropy.best, index.best);
        assert_eq!(entropy.confirmed, index.confirmed);
        assert_eq!(entropy.stats.canonical_orbits, index.stats.canonical_orbits);
        assert_eq!(
            entropy.stats.threshold_protocols,
            index.stats.threshold_protocols
        );
    }

    #[test]
    fn budgeted_prefix_is_segment_aligned_and_worker_independent() {
        // The 2-state space has 108 encodings; a budget of 20 orbits cuts
        // the plan mid-way, so the prefix rule actually fires.
        let seg = SegmentationConfig::index_order(16, None);
        let mut reference = SegmentedSearch::new(2, config(6), seg.clone());
        reference.run(1, 20);
        let ref_result = reference.result();
        assert!(ref_result.prefix_orbits >= 20);
        assert!(!ref_result.finished, "budget must cut before the end");
        for workers in [2, 4] {
            let mut search = SegmentedSearch::new(2, config(6), seg.clone());
            search.run(workers, 20);
            let result = search.result();
            assert_eq!(result.segments_merged, ref_result.segments_merged);
            assert_eq!(result.prefix_orbits, ref_result.prefix_orbits);
            assert_eq!(result.best, ref_result.best);
            assert_eq!(result.confirmed, ref_result.confirmed);
        }
    }

    #[test]
    fn checkpoint_resume_across_worker_counts_is_bit_identical() {
        let seg = SegmentationConfig::index_order(100, None);
        let straight = sequential(2, seg.clone(), 6);

        let mut search = SegmentedSearch::new(2, config(6), seg);
        search.run(4, 300);
        let json = serde_json::to_string(&search.checkpoint()).unwrap();
        let checkpoint: SegmentedCheckpoint = serde_json::from_str(&json).unwrap();
        let mut resumed = SegmentedSearch::from_checkpoint(&checkpoint);
        resumed.run(2, u64::MAX);
        let result = resumed.result();
        assert!(result.finished);
        assert_eq!(result.best, straight.best);
        assert_eq!(result.confirmed, straight.confirmed);
        assert_eq!(
            result.stats.canonical_orbits,
            straight.stats.canonical_orbits
        );
        assert_eq!(result.stats.memo_hits, straight.stats.memo_hits);
        assert_eq!(
            result.stats.threshold_protocols,
            straight.stats.threshold_protocols
        );
    }

    #[test]
    fn packed_memo_checkpoints_shrink_and_resume_bit_identically() {
        let seg = SegmentationConfig::index_order(100, None);
        let straight = sequential(2, seg.clone(), 6);

        let mut search = SegmentedSearch::new(2, config(6), seg);
        search.run(2, 300);
        let checkpoint = search.checkpoint();

        // The packed table decodes to exactly what the shared table holds,
        // and the packed serialisation beats the v1 raw-record-array shape
        // of the same field by a wide margin.
        let records = checkpoint
            .shared_memo
            .unpack()
            .expect("packed table decodes");
        assert_eq!(records.len() as u64, checkpoint.shared_memo.entries);
        assert!(records.len() >= 10, "table too small to exercise packing");
        let packed_json = serde_json::to_string(&checkpoint.shared_memo).unwrap();
        let legacy_json = serde_json::to_string(&records).unwrap();
        assert!(
            packed_json.len() * 4 < legacy_json.len(),
            "packed memo must shrink the v1 encoding at least 4x \
             ({} vs {} bytes)",
            packed_json.len(),
            legacy_json.len()
        );

        // Resuming through the packed JSON reproduces the uninterrupted
        // run bit for bit.
        let json = serde_json::to_string(&checkpoint).unwrap();
        let parsed: SegmentedCheckpoint = serde_json::from_str(&json).unwrap();
        let mut resumed = SegmentedSearch::from_checkpoint(&parsed);
        resumed.run(3, u64::MAX);
        let result = resumed.result();
        assert!(result.finished);
        assert_eq!(result.best, straight.best);
        assert_eq!(result.confirmed, straight.confirmed);
        assert_eq!(
            result.stats.canonical_orbits,
            straight.stats.canonical_orbits
        );
        assert_eq!(result.stats.memo_hits, straight.stats.memo_hits);
        assert_eq!(
            result.stats.threshold_protocols,
            straight.stats.threshold_protocols
        );
    }

    #[test]
    fn checkpoint_entries_that_do_not_match_the_plan_are_rejected() {
        let mut search =
            SegmentedSearch::new(2, config(6), SegmentationConfig::index_order(16, None));
        search.run(2, 20);
        let json = serde_json::to_string(&search.checkpoint()).unwrap();
        let parsed: SegmentedCheckpoint = serde_json::from_str(&json).unwrap();
        // The intact checkpoint loads.
        SegmentedSearch::from_checkpoint(&parsed);
        // A finished segment past the first, so its cursor can be moved
        // below its start.
        let last = parsed
            .segments
            .iter()
            .rposition(|e| e.done && e.start.get() > 0)
            .expect("the budget finishes at least two segments");
        let corrupt = |edit: &dyn Fn(&mut SegmentedCheckpoint), expected: &str| {
            let mut checkpoint = parsed.clone();
            edit(&mut checkpoint);
            let Err(panic) =
                std::panic::catch_unwind(|| SegmentedSearch::from_checkpoint(&checkpoint))
            else {
                panic!("a corrupt checkpoint was accepted ({expected:?})");
            };
            let message = match panic.downcast_ref::<&str>() {
                Some(text) => text.to_string(),
                None => panic.downcast_ref::<String>().cloned().unwrap_or_default(),
            };
            assert!(
                message.contains(expected),
                "{expected:?} not in {message:?}"
            );
        };
        corrupt(
            &|c| c.segments[last].end = (c.segments[last].end.get() + 16).into(),
            "segment end does not match",
        );
        corrupt(
            &|c| c.segments[last].cursor.next = (c.segments[last].start.get() - 4).into(),
            "cursor scans outside its segment",
        );
        corrupt(
            &|c| c.segments[last].cursor.end = (c.segments[last].end.get() + 16).into(),
            "cursor scans outside its segment",
        );
        corrupt(
            &|c| {
                let duplicate = c.segments[0].clone();
                c.segments.push(duplicate);
            },
            "two entries for the segment",
        );
        corrupt(
            &|c| c.segments[last].cursor.next = c.segments[last].start,
            "done before its cursor reached the end",
        );
        corrupt(
            &|c| c.shared_memo.entries = 1 << 40,
            "corrupt packed shared memo",
        );
    }

    #[test]
    fn cold_memo_eviction_preserves_resumed_results() {
        let seg = SegmentationConfig::index_order(100, None);
        let straight = sequential(2, seg.clone(), 6);

        let mut search = SegmentedSearch::new(2, config(6), seg);
        search.run(2, 300);
        let full = search.checkpoint();
        let evicted = search.checkpoint_evicting(1);
        // Eviction must actually shrink the serialised table (the cold tail
        // is real), without touching any other checkpoint field.
        assert!(
            evicted.shared_memo.entries <= full.shared_memo.entries,
            "eviction grew the table"
        );
        assert_eq!(evicted.segments.len(), full.segments.len());

        // Resuming from the evicted checkpoint reaches verdict-identical
        // results: the memo is a pure cache, so dropping entries can only
        // cost recomputation.
        let json = serde_json::to_string(&evicted).unwrap();
        let checkpoint: SegmentedCheckpoint = serde_json::from_str(&json).unwrap();
        let mut resumed = SegmentedSearch::from_checkpoint(&checkpoint);
        resumed.run(2, u64::MAX);
        let result = resumed.result();
        assert!(result.finished);
        assert_eq!(result.best, straight.best);
        assert_eq!(result.confirmed, straight.confirmed);
        assert_eq!(
            result.stats.canonical_orbits,
            straight.stats.canonical_orbits
        );
        assert_eq!(
            result.stats.threshold_protocols,
            straight.stats.threshold_protocols
        );
        assert_eq!(result.stats.profiled, straight.stats.profiled);
    }

    #[test]
    fn heartbeat_lines_carry_resumable_checkpoints() {
        use serde::Deserialize as _;
        use std::time::Duration;

        let seg = SegmentationConfig::index_order(16, None);
        let straight = sequential(2, seg.clone(), 6);

        // Period zero: one line per wave boundary plus the forced final one.
        let (mut hb, buf) = popproto_obs::Heartbeat::shared_buffer(Duration::ZERO);
        let pool = Pool::new(2);
        let mut observed = SegmentedSearch::new(2, config(6), seg.clone());
        observed.run_with_heartbeat(&pool, 20, &mut hb);
        let observed_result = observed.result();

        // The heartbeat is a pure observer: the observed run's merged
        // prefix equals an unobserved run's of the same budget (modulo
        // `memo_hits_cross`, which is scheduling-dependent either way).
        let mut plain = SegmentedSearch::new(2, config(6), seg);
        plain.run(2, 20);
        let mut observed_det = observed_result.clone();
        let mut plain_det = plain.result();
        observed_det.stats.memo_hits_cross = 0;
        plain_det.stats.memo_hits_cross = 0;
        assert_eq!(observed_det, plain_det);

        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(!lines.is_empty(), "at least the final line must be emitted");
        let last = lines.last().unwrap();
        let value: serde::Value = serde_json::from_str(last).expect("heartbeat line is JSON");
        assert_eq!(
            value.field("kind").and_then(String::from_value).unwrap(),
            "segmented_heartbeat"
        );
        assert!(value.field("final").and_then(bool::from_value).unwrap());

        // Resume from the checkpoint embedded in the last heartbeat and
        // drive the plan to exhaustion: bit-identical to the straight run.
        let checkpoint =
            SegmentedCheckpoint::from_value(value.field("checkpoint").unwrap()).unwrap();
        let mut resumed = SegmentedSearch::from_checkpoint(&checkpoint);
        resumed.run(3, u64::MAX);
        let result = resumed.result();
        assert!(result.finished);
        assert_eq!(result.best, straight.best);
        assert_eq!(result.confirmed, straight.confirmed);
        assert_eq!(
            result.stats.canonical_orbits,
            straight.stats.canonical_orbits
        );
        assert_eq!(
            result.stats.threshold_protocols,
            straight.stats.threshold_protocols
        );
    }

    #[test]
    fn plan_is_deterministic_and_entropy_order_prefers_diverse_digits() {
        let space = OrbitSpace::new(3);
        let seg = SegmentationConfig::entropy_order(space.output_patterns() as u64, None);
        let (seg_size, _, order) = plan(&space, &seg);
        let (_, _, order2) = plan(&space, &seg);
        assert_eq!(order, order2, "plan must be deterministic");
        // The first segment must score no worse (no more digit collisions)
        // than the last.
        let first = space.segment_score(seg_size * order[0] as u128);
        let last = space.segment_score(seg_size * order[order.len() - 1] as u128);
        assert!(first <= last);
        // Segment 0 (function index 0: all digits equal) is maximally
        // degenerate and must not lead the entropy order.
        assert_ne!(order[0], 0);
    }
}
