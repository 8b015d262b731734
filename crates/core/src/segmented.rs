//! Parallel segmented streaming for the busy-beaver search: deterministic
//! `u128` segments, a persistent worker pool, one transposition table per
//! segment, and ordered segment merges.
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
//! from a shared-queue worker pool ([`popproto_exec`]) and run each through
//! its own [`CandidatePipeline`] funnel, memo table included.  Segments
//! share nothing: a table shared across them was measured to cost more CPU
//! time in locking and key copies than its extra hits saved (see
//! [`crate::candidate_pipeline`]).  A segment that finishes drops its
//! pipeline and keeps only its counters, best candidate and witnesses, so
//! only the segments in flight hold memo tables.
//! One worker with one segment is the sequential stream: one pipeline over
//! one range scan.
//!
//! # The determinism argument
//!
//! Everything reported by a segmented search is an **ordered merge of
//! per-segment results**, and each per-segment result is a pure function of
//! the segment's index range and the pipeline configuration:
//!
//! * stage verdicts are pure functions of the candidate (triage runs on
//!   what the memo fingerprint decodes to, so a verdict replayed from the
//!   memo equals the one a recompute would produce);
//! * every per-segment counter (`canonical_orbits`, `pruned_*`, `profiled`,
//!   `threshold_protocols`, `truncated_orbits` and `memo_hits`) therefore
//!   depends on the segment's range alone — its memo table sees only the
//!   segment's own candidates;
//! * the merge folds segments in the fixed [`SegmentOrder`] with the
//!   [`BestCandidate::merge`] tie-break (larger η, then smaller index), so
//!   the fold is associative-in-order and independent of completion order.
//!
//! A range processed at any worker count is therefore **bit-identical**
//! (every counter, best η, witness set) to the same segmentation processed
//! on one worker, and equal to the same range processed sequentially in
//! every counter but `memo_hits`, which depends on where the segments are
//! cut.  The property suite in `crates/core/tests/parallel_equivalence.rs`
//! pins this for worker counts {1, 2, 4, 7}, random segment sizes, and
//! kill/resume across differing worker counts.
//!
//! # Budgeted prefixes
//!
//! A budgeted run ([`SegmentedSearch::run`]) processes whole segments in
//! order until the **completed in-order prefix** holds at least the target
//! number of canonical orbits.  The prefix cut is segment-aligned, so it is
//! a deterministic function of the budget — independent of worker count.
//! Segments that workers finished past the cut are kept (a larger budget
//! does not redo them), but the merged result never includes a segment
//! outside the completed prefix.  A segment still running when the prefix
//! reaches the target is cancelled and its part-done work is dropped: the
//! next run that picks it redoes it from its start.  Only the last wave of
//! a run cancels, so this redoes at most one segment per worker and run.
//!
//! # Checkpoints
//!
//! A segment is untouched or finished, never part-done, so
//! [`SegmentedSearch::checkpoint`] serialises the finished segments only:
//! each one's range, counters, best candidate and witnesses.  It holds no
//! generator position and no memo table.  Because per-segment results are
//! scheduling-independent, a checkpoint taken from an 8-worker run resumes
//! bit-identically at any other worker count.

use crate::candidate_pipeline::{BestCandidate, CandidatePipeline, PipelineConfig, PipelineStats};
use crate::enumeration::EnumerationResult;
use crate::orbit_stream::{OrbitSpace, OrbitStream, SegmentOrder, U128Parts};
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

/// The serialisable snapshot of one finished segment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SegmentEntry {
    /// Start of the segment's candidate range.
    pub start: U128Parts,
    /// Exclusive end of the segment's candidate range.
    pub end: U128Parts,
    /// The segment's deterministic per-stage counters.
    pub stats: PipelineStats,
    /// Threshold of the segment's best candidate.
    pub best_eta: Option<u64>,
    /// Encoding index of the segment's best candidate.
    pub best_index: Option<U128Parts>,
    /// Encoding indices of the segment's confirmed threshold protocols.
    pub confirmed: Vec<U128Parts>,
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
    /// Every finished segment, in plan order.
    pub segments: Vec<SegmentEntry>,
}

/// The ordered-merge result of a segmented search's completed prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentedResult {
    /// State count of the candidate space.
    pub num_states: usize,
    /// Merged per-stage counters of the completed prefix (with each
    /// segment's `pruned_symmetric` folded in from its generator).
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
            max_input,
        }
    }
}

/// What a finished segment keeps: its pipeline's results, not the
/// pipeline, so it holds no memo table.
#[derive(Debug)]
struct FinishedSegment {
    /// The pipeline's counters with the generator's `pruned_symmetric`.
    stats: PipelineStats,
    best: Option<BestCandidate>,
    confirmed: Vec<u128>,
}

/// Streams the canonical candidates of `[start, end)` through a fresh
/// pipeline.  Returns `None`, dropping the part-done work, as soon as
/// `stop` returns `true` (polled every 64 offers).
fn run_segment(
    space: &OrbitSpace,
    config: &PipelineConfig,
    start: u128,
    end: u128,
    stop: impl Fn() -> bool,
) -> Option<FinishedSegment> {
    let mut pipeline = CandidatePipeline::new(space.num_states(), config.clone());
    let mut stream = OrbitStream::range(space, start, end);
    let mut since_check = 0u32;
    loop {
        if since_check >= 64 {
            since_check = 0;
            if stop() {
                return None;
            }
        }
        since_check += 1;
        let Some(k) = stream.next_canonical() else {
            break;
        };
        let outputs = (k % space.output_patterns()) as u32;
        pipeline.offer(space, k, stream.current_assignment(), outputs);
    }
    let mut stats = pipeline.stats().clone();
    stats.pruned_symmetric = stream.pruned_symmetric();
    Some(FinishedSegment {
        stats,
        best: pipeline.best(),
        confirmed: pipeline.confirmed().to_vec(),
    })
}

/// Checks one checkpoint entry for the segment `[start, end)` against the
/// invariants every finished segment keeps, and returns its results.
fn finished_segment(
    entry: &SegmentEntry,
    start: u128,
    end: u128,
) -> Result<FinishedSegment, String> {
    let s = &entry.stats;
    let orbits_and_pruned = u128::from(s.canonical_orbits) + u128::from(s.pruned_symmetric);
    if orbits_and_pruned != end - start {
        return Err(format!(
            "canonical_orbits + pruned_symmetric = {orbits_and_pruned}, but the segment holds {}",
            end - start
        ));
    }
    let staged =
        u128::from(s.pruned_symbolic) + u128::from(s.pruned_eta_bounded) + u128::from(s.profiled);
    if staged != u128::from(s.canonical_orbits) {
        return Err(format!(
            "pruned_symbolic + pruned_eta_bounded + profiled = {staged}, but canonical_orbits = {}",
            s.canonical_orbits
        ));
    }
    let confirmed: Vec<u128> = entry.confirmed.iter().map(|c| c.get()).collect();
    if confirmed.len() as u64 != s.threshold_protocols {
        return Err(format!(
            "{} confirmed indices, but threshold_protocols = {}",
            confirmed.len(),
            s.threshold_protocols
        ));
    }
    if !confirmed.windows(2).all(|w| w[0] < w[1]) {
        return Err("confirmed indices are not sorted".to_string());
    }
    if confirmed.iter().any(|&c| c < start || c >= end) {
        return Err("a confirmed index lies outside the segment".to_string());
    }
    let best = match (entry.best_eta, entry.best_index) {
        (Some(eta), Some(index)) => {
            let index = index.get();
            if confirmed.binary_search(&index).is_err() {
                return Err(format!("best index {index} is not a confirmed index"));
            }
            Some(BestCandidate { eta, index })
        }
        (None, None) => None,
        _ => return Err("best_eta and best_index must be set together".to_string()),
    };
    Ok(FinishedSegment {
        stats: s.clone(),
        best,
        confirmed,
    })
}

/// Tracks the completed in-order prefix while a wave of segments runs.
struct PrefixTracker {
    /// Canonical-orbit counts of completed segments, keyed by plan
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
    fn complete(&mut self, pos: usize, orbits: u64) -> u64 {
        self.done.insert(pos, orbits);
        while let Some(y) = self.done.remove(&self.prefix_pos) {
            self.prefix_orbits += y;
            self.prefix_pos += 1;
        }
        self.prefix_orbits
    }
}

/// The parallel segmented streaming search: a segment plan, per-segment
/// pipelines and ordered merges.
#[derive(Debug)]
pub struct SegmentedSearch {
    /// Arc so pool jobs (which must be `'static`) can share the space
    /// without borrowing `self`.
    space: Arc<OrbitSpace>,
    config: PipelineConfig,
    segmentation: SegmentationConfig,
    /// Segment size in candidate encodings (output-block aligned).
    seg_size: u128,
    /// Exclusive end of the searched range.
    end: u128,
    /// Segment ids in visit order.
    order: Vec<u32>,
    /// The results of each finished segment, by segment id (`None` = not
    /// finished).  Boxed: a range has far more segments than a search
    /// finishes, and an unfinished slot then costs one pointer.
    runs: Vec<Option<Box<FinishedSegment>>>,
    /// The orbit target of the latest [`SegmentedSearch::run`] — the merge
    /// cut: [`SegmentedSearch::result`] folds the minimal in-order segment
    /// prefix whose canonical-orbit count reaches it, which keeps the
    /// merged result independent of how far past the cut eager workers ran.
    target_orbits: u64,
}

impl SegmentedSearch {
    /// Plans a fresh segmented search over `[0, range_end)` of the
    /// `num_states` candidate space.
    ///
    /// # Panics
    ///
    /// Panics if the plan would exceed `MAX_SEGMENTS` (2²⁰) segments — cap
    /// the range or grow the segments — or if `num_states > 8`.
    pub fn new(
        num_states: usize,
        config: PipelineConfig,
        segmentation: SegmentationConfig,
    ) -> Self {
        SegmentedSearch::planned(num_states, config, segmentation)
            .expect("the segment plan fits MAX_SEGMENTS")
    }

    /// [`SegmentedSearch::new`], or the reason the plan is refused: more
    /// states than a pipeline encodes, or more than `MAX_SEGMENTS`
    /// segments.
    fn planned(
        num_states: usize,
        config: PipelineConfig,
        segmentation: SegmentationConfig,
    ) -> Result<Self, String> {
        // `CandidatePipeline::new` takes at most 8 states; refuse more
        // before the space enumerates `(n − 1)!` relabellings.
        if num_states > 8 {
            return Err(format!("{num_states} states: a pipeline encodes at most 8"));
        }
        let space = Arc::new(OrbitSpace::new(num_states));
        let (seg_size, end, order) = plan(&space, &segmentation)?;
        let num_segments = order.len();
        Ok(SegmentedSearch {
            space,
            config,
            segmentation,
            seg_size,
            end,
            order,
            runs: (0..num_segments).map(|_| None).collect(),
            target_orbits: u64::MAX,
        })
    }

    /// Restores a search from a checkpoint.  The plan is recomputed from
    /// the checkpointed segmentation (it is a pure function of it), so the
    /// resumed search continues bit-identically **at any worker count**.
    ///
    /// # Errors
    ///
    /// Refuses a checkpoint of another version, one whose plan
    /// [`SegmentedSearch::new`] would refuse (more than 8 states, or more
    /// than `MAX_SEGMENTS` segments), and one whose entries do not match
    /// the recomputed plan or contradict themselves:
    /// - an entry's `start` or `end` is not a plan segment's, or a second
    ///   entry names the same segment;
    /// - its `canonical_orbits + pruned_symmetric` is not the segment's
    ///   length, or `pruned_symbolic + pruned_eta_bounded + profiled` is
    ///   not `canonical_orbits`;
    /// - `confirmed` does not hold `threshold_protocols` indices, sorted
    ///   and inside the segment;
    /// - only one of `best_eta` and `best_index` is set, or `best_index`
    ///   is not in `confirmed`.
    pub fn from_checkpoint(checkpoint: &SegmentedCheckpoint) -> Result<Self, String> {
        if checkpoint.version != SEGMENTED_CHECKPOINT_VERSION {
            return Err(format!(
                "unknown segmented checkpoint version {}",
                checkpoint.version
            ));
        }
        let mut search = SegmentedSearch::planned(
            checkpoint.num_states,
            checkpoint.config.clone(),
            checkpoint.segmentation.clone(),
        )
        .map_err(|e| format!("checkpoint plan refused: {e}"))?;
        search.target_orbits = checkpoint.target_orbits;
        for entry in &checkpoint.segments {
            let start = entry.start.get();
            let seg_id = usize::try_from(start / search.seg_size).unwrap_or(usize::MAX);
            if seg_id >= search.runs.len() || start != search.seg_size * seg_id as u128 {
                return Err(format!(
                    "checkpoint segment does not match the recomputed plan: \
                     no segment starts at {start}"
                ));
            }
            let end = search.bounds(seg_id).1;
            if entry.end.get() != end {
                return Err(format!(
                    "checkpoint segment end does not match the recomputed plan: \
                     {} instead of {end}",
                    entry.end.get()
                ));
            }
            if search.runs[seg_id].is_some() {
                return Err(format!(
                    "checkpoint holds two entries for the segment at {start}"
                ));
            }
            let run = finished_segment(entry, start, end)
                .map_err(|e| format!("checkpoint segment at {start}: {e}"))?;
            search.runs[seg_id] = Some(Box::new(run));
        }
        Ok(search)
    }

    /// Serialises the full search state: the results of every finished
    /// segment.
    pub fn checkpoint(&self) -> SegmentedCheckpoint {
        let mut segments = Vec::new();
        for &seg_id in &self.order {
            let Some(run) = &self.runs[seg_id as usize] else {
                continue;
            };
            let (start, end) = self.bounds(seg_id as usize);
            segments.push(SegmentEntry {
                start: start.into(),
                end: end.into(),
                stats: run.stats.clone(),
                best_eta: run.best.map(|b| b.eta),
                best_index: run.best.map(|b| b.index.into()),
                confirmed: run.confirmed.iter().map(|&c| c.into()).collect(),
            });
        }
        SegmentedCheckpoint {
            version: SEGMENTED_CHECKPOINT_VERSION,
            num_states: self.space.num_states(),
            config: self.config.clone(),
            segmentation: self.segmentation.clone(),
            target_orbits: self.target_orbits,
            segments,
        }
    }

    /// The candidate range `[start, end)` of segment `seg_id`.
    fn bounds(&self, seg_id: usize) -> (u128, u128) {
        let start = self.seg_size * seg_id as u128;
        (start, (start + self.seg_size).min(self.end))
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
    pub(crate) fn segmentation_order(&self) -> SegmentOrder {
        self.segmentation.order
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
                Some(run) => orbits += run.stats.canonical_orbits,
                None => return (pos, orbits),
            }
        }
        (self.order.len(), orbits)
    }

    /// Runs segments on a pool of `workers` workers (`0` = the
    /// machine's parallelism) until the completed in-order prefix holds at
    /// least `target_prefix_orbits` canonical orbits (or the plan is
    /// exhausted).  Returns the prefix orbit count afterwards.
    ///
    /// Once the prefix reaches the target, segments still running are
    /// cancelled and their part-done work is dropped; segments finished
    /// past the cut are kept.  The target counts *cumulative* orbits, so
    /// growing budgets across sessions compose: `run(w, 1000)` then
    /// `run(w, 3000)` merges exactly what one `run(w, 3000)` would have,
    /// redoing from its start only a segment the first run cancelled.
    pub fn run(&mut self, workers: usize, target_prefix_orbits: u64) -> u64 {
        // One persistent pool for the whole run: the wave loop below fans
        // out many times, and with scoped threads each wave paid a full
        // spawn/join round.
        let pool = Pool::new(workers);
        self.run_on(&pool, target_prefix_orbits)
    }

    /// [`SegmentedSearch::run`] on a caller-owned pool, so the caller can
    /// read [`Pool::stats`] afterwards (per-worker task counts, idle time,
    /// helping-wait jobs).  Cancellation at the target is that of
    /// [`SegmentedSearch::run`]: a segment is kept whole or not at all.
    pub fn run_on(&mut self, pool: &Pool, target_prefix_orbits: u64) -> u64 {
        self.run_inner(pool, target_prefix_orbits, None)
    }

    /// [`SegmentedSearch::run_on`] with streaming progress: between waves
    /// (and once, forced, at the end) a JSONL line is emitted through
    /// `heartbeat` carrying orbit throughput, an ETA against the target,
    /// the funnel counters so far, the best η so far — and a full
    /// serialised [`SegmentedCheckpoint`] under `"checkpoint"`, so a
    /// consumer can resume the search from **any** heartbeat line it has
    /// seen (the finished segments' results ride inside it).
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
            stats.merge(&run.stats);
            best = BestCandidate::merge(best, run.best);
            segments_done += 1;
        }
        let best_eta = best.map_or("null".to_owned(), |b| b.eta.to_string());
        let checkpoint =
            serde_json::to_string(&self.checkpoint()).expect("segmented checkpoints serialise");
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
        // canonical-orbit density of the finished segments (pure scheduling
        // hint — results never depend on it; overshoot is kept, not
        // discarded).
        let mut seen_candidates = 0u128;
        let mut seen_orbits = 0u64;
        for (seg_id, run) in self.runs.iter().enumerate() {
            if let Some(run) = run {
                let (start, end) = self.bounds(seg_id);
                seen_candidates += end - start;
                seen_orbits += run.stats.canonical_orbits;
            }
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
            .filter(|(_, &seg_id)| self.runs[seg_id as usize].is_none())
            .map(|(off, _)| prefix_pos + off)
            .take(wave)
            .collect()
    }

    /// Runs one wave of unfinished segments on the pool, cancelling
    /// co-operatively as soon as the completed in-order prefix reaches the
    /// target.  A cancelled segment leaves its slot empty.
    fn run_wave(
        &mut self,
        pool: &Pool,
        positions: &[usize],
        target: u64,
        prefix_orbits_before: u64,
    ) {
        let _wave = obs::span_with_arg("bb_wave", "segments", positions.len() as u64);
        let (prefix_pos_before, _) = self.prefix_state();
        // Prime the tracker with finished segments beyond the prefix (left
        // over from earlier, larger waves).
        let mut tracker = PrefixTracker {
            done: HashMap::new(),
            prefix_pos: prefix_pos_before,
            prefix_orbits: prefix_orbits_before,
        };
        for (pos, &seg_id) in self.order.iter().enumerate().skip(prefix_pos_before) {
            if let Some(run) = &self.runs[seg_id as usize] {
                tracker.complete(pos, run.stats.canonical_orbits);
            }
        }

        let jobs: Vec<(usize, u32, (u128, u128))> = positions
            .iter()
            .map(|&pos| {
                let seg_id = self.order[pos];
                (pos, seg_id, self.bounds(seg_id as usize))
            })
            .collect();

        // Pool jobs are 'static: everything the wave shares travels in Arcs.
        let cancel = Arc::new(AtomicBool::new(false));
        let tracker = Arc::new(Mutex::new(tracker));
        let space = Arc::clone(&self.space);
        let config = self.config.clone();
        let finished: Vec<(u32, Option<FinishedSegment>)> = pool.map(
            jobs,
            move |_, (pos, seg_id, (start, end)): (usize, u32, (u128, u128))| {
                if cancel.load(Ordering::Relaxed) {
                    return (seg_id, None);
                }
                // The segment lease: one complete span per segment a worker
                // holds, the unit of the per-worker exec timeline.
                let _lease = obs::span_with_arg("segment", "seg", u64::from(seg_id));
                let run = run_segment(&space, &config, start, end, || {
                    cancel.load(Ordering::Relaxed)
                });
                if let Some(run) = &run {
                    let prefix = tracker
                        .lock()
                        .expect("prefix tracker poisoned")
                        .complete(pos, run.stats.canonical_orbits);
                    if prefix >= target {
                        cancel.store(true, Ordering::Relaxed);
                    }
                }
                (seg_id, run)
            },
        );
        for (seg_id, run) in finished {
            self.runs[seg_id as usize] = run.map(Box::new);
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
            let Some(run) = &self.runs[seg_id as usize] else {
                break;
            };
            let (start, end) = self.bounds(seg_id as usize);
            stats.merge(&run.stats);
            best = BestCandidate::merge(best, run.best);
            confirmed.extend_from_slice(&run.confirmed);
            candidates += end - start;
            segments_merged += 1;
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

/// Version 2: memo tables are delta-packed instead of serialised as raw
/// record arrays.  Version 3: canonical fingerprints
/// order transitions before outputs, so a memo key of version 2 names a
/// representative no version-3 search looks up; resuming one would answer
/// fewer hits than the straight run.  Version 4: the pipeline configuration
/// lost its switches for the memo and for the key quotient, so every memo
/// key is canonical; a version-3 checkpoint may carry raw keys or a
/// memo-free configuration, neither of which this version can resume.
/// Version 5: segments share no memo table, so the checkpoint lost its
/// shared table; the segment stats of a version-4 checkpoint count hits
/// against that table, which a version-5 search never reports.
/// Version 6: a checkpoint lists finished segments only; a version-5 entry
/// may hold a part-done segment (a generator cursor and a packed memo
/// table), which this version cannot resume.
const SEGMENTED_CHECKPOINT_VERSION: u32 = 6;

/// Computes `(segment size, range end, segment ids in visit order)` — a pure
/// function of the space and the segmentation config, recomputed identically
/// by every resume.
///
/// Refuses a plan of more than `MAX_SEGMENTS` segments.
fn plan(space: &OrbitSpace, seg: &SegmentationConfig) -> Result<(u128, u128, Vec<u32>), String> {
    let total = space.total_candidates();
    let end = seg.range_end.map(|e| e.get()).unwrap_or(total).min(total);
    let block = space.output_patterns();
    let seg_size = ((seg.segment_size as u128).max(1).div_ceil(block) * block).max(block);
    let segments = end.div_ceil(seg_size);
    if segments > MAX_SEGMENTS as u128 {
        return Err(format!(
            "segment plan too large ({segments} segments): cap range_end or grow segment_size"
        ));
    }
    let num_segments = segments as usize;
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
    Ok((seg_size, end, order))
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
        let mut resumed =
            SegmentedSearch::from_checkpoint(&checkpoint).expect("checkpoint resumes");
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
    fn in_flight_segments_restart_from_their_start_on_resume() {
        let seg = SegmentationConfig::index_order(4_096, Some(16_384));
        let mut straight = SegmentedSearch::new(3, config(5), seg.clone());
        straight.run(1, u64::MAX);
        let straight = straight.result();

        // Finish the first segment, then cancel the last one after 1 600
        // offers, as a worker cancelled at the budget cut would be.
        let mut search = SegmentedSearch::new(3, config(5), seg);
        search.run(1, 1);
        let last = *search.order.last().unwrap() as usize;
        assert!(search.runs[last].is_none(), "the wave reached the end");
        let (start, end) = search.bounds(last);
        let polls = std::cell::Cell::new(0);
        let cancelled = run_segment(&search.space, &search.config, start, end, || {
            polls.set(polls.get() + 1);
            polls.get() > 24
        });
        assert!(cancelled.is_none(), "1 600 offers finished a whole segment");
        assert_eq!(polls.get(), 25, "the segment was cancelled part way");

        // The checkpoint lists the finished segments and nothing of the
        // cancelled one.
        let checkpoint = search.checkpoint();
        assert!(!checkpoint.segments.is_empty());
        assert!(checkpoint.segments.iter().all(|e| e.start.get() != start));
        assert_eq!(
            checkpoint.segments.len(),
            search.runs.iter().flatten().count()
        );

        // Resuming through JSON redoes the cancelled segment from its start
        // and reproduces the uninterrupted run bit for bit.
        let json = serde_json::to_string(&checkpoint).unwrap();
        let parsed: SegmentedCheckpoint = serde_json::from_str(&json).unwrap();
        let mut resumed = SegmentedSearch::from_checkpoint(&parsed).expect("checkpoint resumes");
        resumed.run(3, u64::MAX);
        assert_eq!(resumed.result(), straight);
    }

    #[test]
    fn checkpoint_entries_that_do_not_match_the_plan_are_rejected() {
        let mut search =
            SegmentedSearch::new(2, config(6), SegmentationConfig::index_order(16, None));
        search.run(2, 20);
        let json = serde_json::to_string(&search.checkpoint()).unwrap();
        let parsed: SegmentedCheckpoint = serde_json::from_str(&json).unwrap();
        // The intact checkpoint loads.
        SegmentedSearch::from_checkpoint(&parsed).expect("the intact checkpoint loads");
        // A finished segment past the first, so its start can be moved off
        // the plan.
        let last = parsed
            .segments
            .iter()
            .rposition(|e| e.start.get() > 0)
            .expect("the budget finishes at least two segments");
        // A finished segment with a best candidate, for the entry checks.
        let won = parsed
            .segments
            .iter()
            .position(|e| e.best_index.is_some())
            .expect("the budget confirms at least one protocol");
        let corrupt = |edit: &dyn Fn(&mut SegmentedCheckpoint), expected: &str| {
            let mut checkpoint = parsed.clone();
            edit(&mut checkpoint);
            match SegmentedSearch::from_checkpoint(&checkpoint) {
                Ok(_) => panic!("a corrupt checkpoint was accepted ({expected:?})"),
                Err(message) => assert!(
                    message.contains(expected),
                    "{expected:?} not in {message:?}"
                ),
            }
        };
        corrupt(
            &|c| c.segments[last].start = (c.segments[last].start.get() - 4).into(),
            "segment does not match the recomputed plan",
        );
        corrupt(
            &|c| c.segments[last].end = (c.segments[last].end.get() + 16).into(),
            "segment end does not match",
        );
        corrupt(
            &|c| {
                let duplicate = c.segments[0].clone();
                c.segments.push(duplicate);
            },
            "two entries for the segment",
        );
        // Entries whose counters or witnesses contradict themselves.
        corrupt(
            &|c| c.segments[won].stats.pruned_symmetric += 1,
            "canonical_orbits + pruned_symmetric",
        );
        corrupt(
            &|c| c.segments[won].stats.profiled += 1,
            "pruned_symbolic + pruned_eta_bounded + profiled",
        );
        corrupt(
            &|c| c.segments[won].stats.threshold_protocols += 1,
            "threshold_protocols",
        );
        corrupt(
            &|c| {
                let entry = &mut c.segments[won];
                entry.confirmed.push(entry.confirmed[0]);
                entry.stats.threshold_protocols += 1;
            },
            "not sorted",
        );
        corrupt(
            &|c| {
                let entry = &mut c.segments[won];
                let last = entry.confirmed.len() - 1;
                entry.confirmed[last] = entry.end;
            },
            "outside the segment",
        );
        corrupt(&|c| c.segments[won].best_index = None, "set together");
        corrupt(
            &|c| {
                let entry = &mut c.segments[won];
                let unconfirmed = (entry.start.get()..entry.end.get())
                    .find(|&i| entry.confirmed.iter().all(|c| c.get() != i))
                    .expect("the segment holds an unconfirmed candidate");
                entry.best_index = Some(unconfirmed.into());
            },
            "not a confirmed index",
        );
        // Version-2 memo keys hold outputs-first canonical fingerprints,
        // which this version never looks up: a resume from one would count
        // fewer memo hits than the straight run.
        corrupt(&|c| c.version = 2, "unknown segmented checkpoint version");
        // Version-3 checkpoints may hold raw memo keys or a memo-free
        // configuration: both are refused rather than resumed.
        corrupt(&|c| c.version = 3, "unknown segmented checkpoint version");
        // Version-4 segment stats count hits against a shared table that
        // this version never reports.
        corrupt(&|c| c.version = 4, "unknown segmented checkpoint version");
        // Version-5 entries may be part-done segments, with a generator
        // cursor and a packed memo table that this version cannot resume.
        corrupt(&|c| c.version = 5, "unknown segmented checkpoint version");
        // Plans `SegmentedSearch::new` refuses are refused before any
        // entry is read, without a panic: 10¹⁰ one-block segments of the
        // 4-state space, and a state count no pipeline encodes (whose
        // space alone would enumerate 39! relabellings).
        corrupt(
            &|c| {
                c.num_states = 4;
                c.segmentation.segment_size = 1;
            },
            "segment plan too large",
        );
        corrupt(&|c| c.num_states = 40, "40 states");
    }

    #[test]
    fn finished_segments_drop_their_memo_and_keep_their_results() {
        let space = OrbitSpace::new(3);
        let seg = SegmentationConfig::index_order(1_024, Some(8_192));
        let mut search = SegmentedSearch::new(3, config(5), seg);
        search.run(2, u64::MAX);
        assert!(search.result().finished);
        for (seg_id, run) in search.runs.iter().enumerate() {
            // Every slot holds a finished segment's results, which hold no
            // pipeline, so no memo entry either.
            let run = run.as_ref().expect("every segment finished");
            // What it keeps is what a pipeline over its range alone reports.
            let (start, end) = search.bounds(seg_id);
            let mut pipeline = CandidatePipeline::new(3, config(5));
            let mut stream = OrbitStream::range(&space, start, end);
            while let Some(k) = stream.next_canonical() {
                let outputs = (k % space.output_patterns()) as u32;
                pipeline.offer(&space, k, stream.current_assignment(), outputs);
            }
            let mut stats = pipeline.stats().clone();
            stats.pruned_symmetric = stream.pruned_symmetric();
            assert_eq!(run.stats, stats, "segment at {start}");
            assert_eq!(run.best, pipeline.best());
            assert_eq!(run.confirmed, pipeline.confirmed());
        }
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
        // prefix equals an unobserved run's of the same budget.
        let mut plain = SegmentedSearch::new(2, config(6), seg);
        plain.run(2, 20);
        assert_eq!(observed_result, plain.result());

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
        let mut resumed =
            SegmentedSearch::from_checkpoint(&checkpoint).expect("checkpoint resumes");
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
        let (seg_size, _, order) = plan(&space, &seg).unwrap();
        let (_, _, order2) = plan(&space, &seg).unwrap();
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
