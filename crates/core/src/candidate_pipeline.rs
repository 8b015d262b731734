//! The triage layer of the busy-beaver pipeline: ordered reject-early
//! stages and cross-candidate memoization.
//!
//! Every canonical candidate produced by the
//! [generator layer](crate::orbit_stream) runs through the same staged
//! funnel, cheapest stage first, with a rejection counter per stage:
//!
//! 1. **symbolic pre-filter** ([`threshold_prefilter`]) — rejects candidates
//!    that provably verify no threshold at all at the horizon `max_input`;
//! 2. **η-floor filter** ([`eta_floor_prefilter`]) — when the search only
//!    cares about thresholds `≥ eta_floor ≥ 3`, rejects candidates whose
//!    reachable rejecting stable set `SC₀ ∩ cover` is bounded below
//!    `|L| + 2` agents (input 2 can then never reject, so only `η = 2` is
//!    achievable).  With `eta_floor = 2` the stage is provably inert and the
//!    pipeline reproduces the unfloored search bit for bit;
//! 3. **concrete slices** — a per-input [`ThresholdProfile`] in ascending
//!    `n` with reject-on-first-failure, on the CSR or the
//!    frontier-compressed exploration engine.  On the CSR engine the
//!    pipeline runs it on one [`SliceProfiler`] it owns.
//!
//! A memo miss decodes its fingerprint once, into a [`FlatProtocol`], and
//! the pipeline runs the two symbolic stages on one [`Prefilter`] it owns
//! and the CSR profile on its [`SliceProfiler`], both on that one view: it
//! builds a [`Protocol`] only for the frontier engine.  The filter and the
//! profiler keep what depends on the transition structure alone for the
//! last structure they saw: the filter keeps the Karp–Miller cover and
//! the backward basis of each state, the profiler keeps each explored slice
//! with one populated-state mask per configuration.  The canonical
//! fingerprints make every output pattern of one structure decode to the
//! same transitions, so a structure is analysed once, and each of its
//! slices explored once, however many of its output patterns miss the
//! memo; a further pattern only relabels the slices' stable sets and reruns
//! their backward closures.  Verdicts are those of the free functions,
//! whatever the order of the misses.
//!
//! # Cross-candidate memoization
//!
//! All three stages are functions of the candidate's *coverable-support
//! restriction*: the sub-protocol induced by the states support-reachable
//! from the input state.  That support is forward-closed, so no slice
//! exploration, stable set, cover or profile can ever observe a state (or a
//! transition) outside it — two candidates with the same restriction have
//! identical stage outcomes.  The pipeline therefore keys a transposition
//! table by the restriction's **exact canonical encoding** (the
//! fingerprint; equal bytes ⟺ equal restrictions, so collisions are
//! impossible by construction) and replays the memoized verdict instead of
//! re-running the stages.  The key is always quotiented by the
//! restriction's residual relabelling group (the smallest encoding over all
//! permutations of the non-input states, comparing the transitions first
//! and the outputs second): equal keys ⟺ relabelling-equivalent
//! restrictions, which share verdicts because every stage is
//! relabelling-invariant — the table answers more hits than raw keys would
//! and still never conflates different verdicts.  In the 4-state space
//! enormous numbers of orbits share a 3-state (or smaller) sub-protocol —
//! exactly the reuse the `BB_det(4)` rung needs.  See
//! `crates/reach/README.md` for the full soundness argument.
//!
//! The key is built per transition structure, not per candidate.  The
//! coverable support, the restriction's transition bytes and their minimum
//! over the relabellings depend on the transitions alone, so the pipeline
//! computes them once per function index and keeps the relabellings that
//! reach the minimum (the ties); an output pattern's key byte is then the
//! smallest image of its restricted outputs under the ties.  The table holds
//! one entry per canonical structure `[k, transitions…]` with a row of `2^k`
//! verdict slots indexed by that byte: a new structure costs one hash probe,
//! its patterns index the row, and the full fingerprint `[k, outputs,
//! transitions…]` is built only on a miss, for the triage.
//! [`PipelineConfig::memo_max_entries`] still counts (structure, output
//! pattern) entries, so hits and insertion decisions are those of a table
//! keyed by the full fingerprint; the test module flattens the rows into
//! one record per entry and checks them against such a table.
//!
//! Each pipeline owns its table and shares it with no other: in the
//! [segmented search](crate::segmented) every segment runs its own
//! pipeline, so [`PipelineStats::memo_hits`] is a function of the segment's
//! range alone.  A table shared across segments was tried and deleted: on
//! the 10⁶-orbit `BB_det(4)` prefix one table over the whole range answers
//! 512 450 hits and per-segment tables 452 550, so sharing can spare the
//! triage of at most 6% of the orbits, and locking and copying keys into a
//! shared map cost more CPU time than that saved.
//!
//! # Resumability
//!
//! A pipeline is never checkpointed.  Its counters, best candidate and
//! witness set are a pure function of the candidates it was offered, so
//! the busy-beaver search,
//! [`SegmentedSearch`](crate::segmented::SegmentedSearch), checkpoints
//! whole segments: a finished segment keeps its pipeline's results, and a
//! segment cut off part way is redone from its start on a fresh pipeline,
//! with the same verdicts, counters and `memo_hits` — which the
//! equivalence suites assert at pseudo-random kill points.
//!
//! [`threshold_prefilter`]: popproto_symbolic::threshold_prefilter
//! [`eta_floor_prefilter`]: popproto_symbolic::eta_floor_prefilter
//! [`ThresholdProfile`]: popproto_reach::ThresholdProfile
//! [`SliceProfiler`]: popproto_reach::SliceProfiler

use crate::orbit_stream::{permutations_fixing_zero, OrbitSpace};
use popproto_model::{Output, Protocol, ProtocolBuilder, StateId};
use popproto_reach::{frontier_threshold_profile, ExploreLimits, FlatProtocol, SliceProfiler};
use popproto_symbolic::{Prefilter, SymbolicLimits};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::HashMap;

/// Which exact-exploration engine the concrete-slice stage runs on.
///
/// Both engines produce bit-identical [`popproto_reach::ThresholdProfile`]s;
/// they differ in peak memory (the frontier engine stores no adjacency), in
/// constant factors (the CSR engine walks stored edges, the frontier engine
/// regenerates them) and in reuse: only stored edges can be kept, so only
/// the CSR engine explores a structure's slices once for all its output
/// patterns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReachEngine {
    /// [`popproto_reach::ReachabilityGraph`]s kept by the pipeline's
    /// [`popproto_reach::SliceProfiler`]: stored CSR adjacency, explored
    /// once per structure — fastest on the small slices of a busy-beaver
    /// profile.
    Csr,
    /// [`popproto_reach::FrontierGraph`]: frontier-compressed, adjacency
    /// regenerated on demand, every slice explored for every output
    /// pattern that reaches it — peak memory bounded by the arena.
    Frontier,
}

/// Configuration of a [`CandidatePipeline`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Verification horizon: thresholds are confirmed on inputs
    /// `2 ..= max_input`.
    pub max_input: u64,
    /// Reject candidates that provably cannot verify any `η ≥ eta_floor`.
    /// `2` disables the stage (every candidate passes), preserving the
    /// unfloored search semantics bit for bit.
    pub eta_floor: u64,
    /// Limits for the concrete-slice explorations.
    pub explore: ExploreLimits,
    /// Caps for the symbolic stages.
    pub symbolic: SymbolicLimits,
    /// Maximum number of entries the transposition table may hold, one
    /// per (structure, output pattern) restriction.  Once full, existing
    /// entries keep answering hits but no new restriction is inserted, so
    /// the cap bounds one pipeline's memory however long a range it
    /// streams (a one-thread exhaustive search runs a whole space as one
    /// segment).  No checkpoint holds a table.  Insertion decisions depend
    /// only on the candidate order, so every counter stays a function of
    /// the range under any cap.
    pub memo_max_entries: usize,
    /// Engine for the concrete-slice stage.
    pub engine: ReachEngine,
}

impl PipelineConfig {
    /// The configuration [`crate::enumeration::busy_beaver_search`] uses:
    /// no η floor, tight symbolic caps, CSR slices.
    pub fn exact(max_input: u64, explore: &ExploreLimits) -> Self {
        PipelineConfig {
            max_input,
            eta_floor: 2,
            explore: *explore,
            symbolic: SymbolicLimits::prefilter(),
            memo_max_entries: 4_000_000,
            engine: ReachEngine::Csr,
        }
    }
}

/// Per-stage counters of a pipeline run.  Every counter is a function of
/// the candidate range alone: a segment replays them identically under any
/// worker count, scheduling or kill/resume pattern.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PipelineStats {
    /// Canonical orbit representatives that entered the pipeline.
    pub canonical_orbits: u64,
    /// Candidates skipped by the generator as non-canonical orbit members.
    pub pruned_symmetric: u64,
    /// Canonical candidates rejected by the symbolic pre-filter (stage 1).
    pub pruned_symbolic: u64,
    /// Canonical candidates rejected by the η-floor filter (stage 2).
    pub pruned_eta_bounded: u64,
    /// Canonical candidates that reached the concrete-slice stage.
    pub profiled: u64,
    /// Profiled candidates with a confirmed threshold.
    pub threshold_protocols: u64,
    /// Profiled candidates whose slice exploration hit [`ExploreLimits`]:
    /// their `None` verdict is a cap artefact, not a proof, so any exactness
    /// claim must check this is zero.
    pub truncated_orbits: u64,
    /// Candidates answered from the pipeline's own transposition table.
    /// Deterministic: a pure function of the candidate range this pipeline
    /// processed, independent of workers or scheduling.
    pub memo_hits: u64,
    /// Always 0.  It counted hits against a transposition table shared
    /// across segments, which no longer exists; the field stays only
    /// because the benchmark still writes it.
    pub memo_hits_cross: u64,
}

impl PipelineStats {
    /// Accumulates another stats block (used by the parallel search to fold
    /// worker-local pipelines in deterministic range order).
    pub fn merge(&mut self, other: &PipelineStats) {
        self.canonical_orbits += other.canonical_orbits;
        self.pruned_symmetric += other.pruned_symmetric;
        self.pruned_symbolic += other.pruned_symbolic;
        self.pruned_eta_bounded += other.pruned_eta_bounded;
        self.profiled += other.profiled;
        self.threshold_protocols += other.threshold_protocols;
        self.truncated_orbits += other.truncated_orbits;
        self.memo_hits += other.memo_hits;
    }

    /// Publishes the funnel counters as gauges named `{prefix}.{counter}`
    /// in the process-wide [`popproto_obs`] metrics registry, so one
    /// [`ObsSnapshot`](popproto_obs::ObsSnapshot) carries the pipeline
    /// funnel alongside the exec-pool and ensemble metrics.
    pub fn publish(&self, prefix: &str) {
        let reg = popproto_obs::registry();
        reg.set_gauge(
            &format!("{prefix}.canonical_orbits"),
            self.canonical_orbits as i64,
        );
        reg.set_gauge(
            &format!("{prefix}.pruned_symmetric"),
            self.pruned_symmetric as i64,
        );
        reg.set_gauge(
            &format!("{prefix}.pruned_symbolic"),
            self.pruned_symbolic as i64,
        );
        reg.set_gauge(
            &format!("{prefix}.pruned_eta_bounded"),
            self.pruned_eta_bounded as i64,
        );
        reg.set_gauge(&format!("{prefix}.profiled"), self.profiled as i64);
        reg.set_gauge(
            &format!("{prefix}.threshold_protocols"),
            self.threshold_protocols as i64,
        );
        reg.set_gauge(
            &format!("{prefix}.truncated_orbits"),
            self.truncated_orbits as i64,
        );
        reg.set_gauge(&format!("{prefix}.memo_hits"), self.memo_hits as i64);
    }
}

/// The memoized outcome of the staged triage of one restriction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MemoVerdict {
    /// Rejected by the symbolic pre-filter.
    RejectedSymbolic,
    /// Rejected by the η-floor filter.
    RejectedEta,
    /// Survived to the concrete-slice stage.
    Profiled {
        /// The confirmed threshold, if any.
        verified: Option<u64>,
        /// `true` if some slice exploration hit its limits (the `None`
        /// verdict is then inconclusive rather than proven).
        truncated: bool,
    },
}

/// The best verified candidate seen so far, as `(η, encoding index)` — ties
/// broken towards the smallest index, so the result is independent of
/// scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BestCandidate {
    /// The confirmed threshold.
    pub eta: u64,
    /// The candidate's encoding index.
    pub index: u128,
}

impl BestCandidate {
    /// The deterministic two-way merge every layer of the search uses:
    /// larger `eta` wins, ties break towards the smaller encoding index —
    /// so any merge order (worker folds, segment folds, checkpoint resumes)
    /// produces the same champion.
    pub fn merge(a: Option<BestCandidate>, b: Option<BestCandidate>) -> Option<BestCandidate> {
        match (a, b) {
            (None, b) => b,
            (a, None) => a,
            (Some(x), Some(y)) => {
                if y.eta > x.eta || (y.eta == x.eta && y.index < x.index) {
                    Some(y)
                } else {
                    Some(x)
                }
            }
        }
    }
}

/// The staged triage funnel with its transposition table.
#[derive(Debug)]
pub struct CandidatePipeline {
    config: PipelineConfig,
    /// The transposition table, one entry per canonical structure: its key
    /// `[k, transitions…]` maps to the offset in `slots` of the structure's
    /// row of `2^k` verdicts, indexed by the canonical output byte.
    memo: HashMap<Vec<u8>, usize>,
    slots: Vec<Option<MemoVerdict>>,
    /// Filled slots — the (structure, output pattern) entries
    /// [`PipelineConfig::memo_max_entries`] bounds.
    memo_entries: usize,
    stats: PipelineStats,
    best: Option<BestCandidate>,
    /// Encoding indices of every candidate with a confirmed threshold, in
    /// offer order (ascending within one range-driven pipeline) — the
    /// witness *set* of the searched range, not just its best element.
    confirmed: Vec<u128>,
    /// Per-`k` permutations of `0..k` fixing state 0, for fingerprint
    /// canonicalization (index = state count of the restriction).
    perms_by_k: Vec<Vec<Vec<usize>>>,
    support: Vec<bool>,
    /// The transition structure of the last offered function index.
    structure: Structure,
    /// The full fingerprint of the last memo miss.
    fingerprint: Vec<u8>,
    /// The current structure's unrelabelled `[k, transitions…]`, and
    /// scratch for its relabellings.
    raw: Vec<u8>,
    scratch: Vec<u8>,
    /// The symbolic stages' working memory, shared by every memo miss.
    prefilter: Prefilter,
    /// The flat view of the last memo miss, read by the symbolic stages
    /// and the CSR profile.
    flat: FlatProtocol,
    /// The CSR profile's working memory and slices, shared by every memo
    /// miss that reaches the concrete slices.
    profiler: SliceProfiler,
}

/// What every output pattern of one transition structure shares: its
/// coverable support, its canonical transition bytes, the relabellings that
/// reach them and its row in the transposition table.
#[derive(Debug)]
struct Structure {
    /// The function index (`index / 2ⁿ`) described; `u128::MAX` = none.
    function: u128,
    /// Dense label of each covered state, in increasing original order
    /// (`u8::MAX` outside the support).
    labels: [u8; 8],
    /// `[k, transitions…]`: the smallest transition bytes over all
    /// relabellings of the restriction that fix state 0.
    key: Vec<u8>,
    /// The relabellings of the restriction (identity included) whose image
    /// of its transition bytes is `key[1..]`.
    ties: Vec<[u8; 8]>,
    /// Offset of the structure's verdict row in the memo slots, if any.
    row: Option<usize>,
}

impl Structure {
    const IDENTITY: [u8; 8] = [0, 1, 2, 3, 4, 5, 6, 7];

    /// The output byte of the canonical fingerprint of the pattern
    /// `outputs`: the smallest relabelled restriction outputs over the ties.
    fn canonical_outputs(&self, outputs: u32) -> u8 {
        let mut dense = 0u8;
        for (q, &label) in self.labels.iter().enumerate() {
            if label != u8::MAX && (outputs >> q) & 1 == 1 {
                dense |= 1 << label;
            }
        }
        let k = self.key[0] as usize;
        self.ties
            .iter()
            .map(|perm| (0..k).fold(0u8, |acc, q| acc | (((dense >> q) & 1) << perm[q])))
            .min()
            .expect("the identity always ties")
    }
}

impl CandidatePipeline {
    /// Creates a pipeline for candidates of `num_states` states.
    ///
    /// # Panics
    ///
    /// Panics if `num_states > 8` (the fingerprint encoding packs outputs
    /// and state indices into single bytes; far beyond the tractable range
    /// anyway).
    pub fn new(num_states: usize, config: PipelineConfig) -> Self {
        assert!(num_states <= 8, "fingerprints encode at most 8 states");
        let perms_by_k = (0..=num_states).map(permutations_fixing_zero).collect();
        CandidatePipeline {
            config,
            memo: HashMap::new(),
            slots: Vec::new(),
            memo_entries: 0,
            stats: PipelineStats::default(),
            best: None,
            confirmed: Vec::new(),
            perms_by_k,
            support: vec![false; num_states],
            structure: Structure {
                function: u128::MAX,
                labels: [u8::MAX; 8],
                key: Vec::new(),
                ties: Vec::new(),
                row: None,
            },
            fingerprint: Vec::new(),
            raw: Vec::new(),
            scratch: Vec::new(),
            prefilter: Prefilter::default(),
            flat: FlatProtocol::default(),
            profiler: SliceProfiler::default(),
        }
    }

    /// The configuration the pipeline runs with.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// The per-stage counters so far.  `pruned_symmetric` is owned by the
    /// generator; callers fold it in when assembling a result.
    pub fn stats(&self) -> &PipelineStats {
        &self.stats
    }

    /// The best verified candidate so far.
    pub fn best(&self) -> Option<BestCandidate> {
        self.best
    }

    /// Runs one canonical candidate through the staged funnel.
    ///
    /// `assignment` must be the decoded transition assignment of `index`
    /// (the generator exposes it as
    /// [`OrbitStream::current_assignment`](crate::orbit_stream::OrbitStream::current_assignment))
    /// and `outputs` its output bitmask.
    pub fn offer(&mut self, space: &OrbitSpace, index: u128, assignment: &[usize], outputs: u32) {
        self.stats.canonical_orbits += 1;
        let function = index / space.output_patterns();
        if function != self.structure.function {
            self.load_structure(space, function, assignment);
        }
        let out = self.structure.canonical_outputs(outputs);
        if let Some(row) = self.structure.row {
            if let Some(hit) = self.slots[row + out as usize] {
                self.stats.memo_hits += 1;
                self.apply(hit, index);
                return;
            }
        }
        let key = &self.structure.key;
        self.fingerprint.clear();
        self.fingerprint.extend_from_slice(&[key[0], out]);
        self.fingerprint.extend_from_slice(&key[1..]);
        let verdict = self.triage();
        self.insert(out, verdict);
        self.apply(verdict, index);
    }

    /// Analyses the transition structure of `function` once for all its
    /// output patterns: the coverable support, the transition bytes of its
    /// restriction minimised over the relabellings fixing state 0 (computed
    /// from the unrelabelled bytes, so the result is a class invariant), the
    /// relabellings that reach that minimum, and the structure's memo row.
    fn load_structure(&mut self, space: &OrbitSpace, function: u128, assignment: &[usize]) {
        space.coverable_support(assignment, &mut self.support);
        let s = &mut self.structure;
        s.function = function;
        let mut k = 0u8;
        for (q, &covered) in self.support.iter().enumerate() {
            s.labels[q] = if covered { k } else { u8::MAX };
            k += u8::from(covered);
        }
        // `[k, (post_lo, post_hi) per support pair]`, support states densely
        // relabelled and pairs enumerated (0,0), (0,1) … (k-1,k-1).
        self.raw.clear();
        self.raw.push(k);
        let n = space.num_states();
        for a in (0..n).filter(|&a| self.support[a]) {
            for b in (a..n).filter(|&b| self.support[b]) {
                let (c, d) = space.pairs()[assignment[space.pair_position(a, b)]];
                // The support is forward-closed, so the post pair is inside it.
                let (c, d) = (s.labels[c], s.labels[d]);
                self.raw.extend_from_slice(&[c.min(d), c.max(d)]);
            }
        }
        s.key.clone_from(&self.raw);
        s.ties.clear();
        s.ties.push(Structure::IDENTITY);
        let k = k as usize;
        // Byte offset of the post pair of pre pair (a, b), a ≤ b.
        let offset = |a: usize, b: usize| 1 + 2 * (a * (2 * k + 1 - a) / 2 + (b - a));
        for perm in &self.perms_by_k[k] {
            self.scratch.clear();
            self.scratch.resize(self.raw.len(), 0);
            self.scratch[0] = self.raw[0];
            for a in 0..k {
                for b in a..k {
                    let src = offset(a, b);
                    let (c, d) = (
                        perm[self.raw[src] as usize],
                        perm[self.raw[src + 1] as usize],
                    );
                    let dst = offset(perm[a].min(perm[b]), perm[a].max(perm[b]));
                    self.scratch[dst] = c.min(d) as u8;
                    self.scratch[dst + 1] = c.max(d) as u8;
                }
            }
            let ordering = self.scratch.cmp(&s.key);
            if ordering == Ordering::Greater {
                continue;
            }
            if ordering == Ordering::Less {
                std::mem::swap(&mut s.key, &mut self.scratch);
                s.ties.clear();
            }
            let mut relabelling = Structure::IDENTITY;
            for (q, &pq) in perm.iter().enumerate() {
                relabelling[q] = pq as u8;
            }
            s.ties.push(relabelling);
        }
        s.row = self.memo.get(&s.key).copied();
    }

    /// The staged triage of the restriction in `self.fingerprint`.  The
    /// symbolic stages and the CSR profile read its flat view; a
    /// [`Protocol`] is built only for the frontier engine.
    fn triage(&mut self) -> MemoVerdict {
        decode_flat(&self.fingerprint, &mut self.flat);
        let config = &self.config;
        if !self
            .prefilter
            .threshold_flat(&self.flat, config.max_input, &config.symbolic)
        {
            return MemoVerdict::RejectedSymbolic;
        }
        if !self
            .prefilter
            .eta_floor_flat(&self.flat, config.eta_floor, &config.symbolic)
        {
            return MemoVerdict::RejectedEta;
        }
        let profile = match config.engine {
            ReachEngine::Csr => {
                self.profiler
                    .profile_flat(&self.flat, config.max_input, &config.explore)
            }
            ReachEngine::Frontier => frontier_threshold_profile(
                &fingerprint_protocol(&self.fingerprint),
                config.max_input,
                &config.explore,
            ),
        };
        MemoVerdict::Profiled {
            verified: profile.verified_threshold(),
            truncated: profile.inputs.iter().any(|p| !p.exhaustive),
        }
    }

    /// Memoizes the verdict of the current structure's output byte `out`,
    /// unless the table holds `memo_max_entries` entries already.
    fn insert(&mut self, out: u8, verdict: MemoVerdict) {
        if self.memo_entries >= self.config.memo_max_entries {
            return;
        }
        let row = match self.structure.row {
            Some(row) => row,
            None => {
                let row = self.slots.len();
                self.slots.resize(row + (1 << self.structure.key[0]), None);
                self.memo.insert(self.structure.key.clone(), row);
                self.structure.row = Some(row);
                row
            }
        };
        self.slots[row + out as usize] = Some(verdict);
        self.memo_entries += 1;
    }

    fn apply(&mut self, verdict: MemoVerdict, index: u128) {
        match verdict {
            MemoVerdict::RejectedSymbolic => self.stats.pruned_symbolic += 1,
            MemoVerdict::RejectedEta => self.stats.pruned_eta_bounded += 1,
            MemoVerdict::Profiled {
                verified,
                truncated,
            } => {
                self.stats.profiled += 1;
                if truncated {
                    self.stats.truncated_orbits += 1;
                }
                if let Some(eta) = verified {
                    self.stats.threshold_protocols += 1;
                    self.confirmed.push(index);
                    self.best = BestCandidate::merge(self.best, Some(BestCandidate { eta, index }));
                }
            }
        }
    }

    /// Encoding indices of every candidate with a confirmed threshold, in
    /// offer order.
    pub fn confirmed(&self) -> &[u128] {
        &self.confirmed
    }
}

/// Materialises the restriction protocol a fingerprint encodes.  The
/// frontier engine's slices run on this protocol, and the symbolic stages
/// and the CSR profile on its flat view ([`decode_flat`]), which makes the
/// memoized verdict a function of the fingerprint *by construction*.
fn fingerprint_protocol(bytes: &[u8]) -> Protocol {
    let k = bytes[0] as usize;
    let out_bits = bytes[1];
    let mut b = ProtocolBuilder::new("restricted");
    let states: Vec<StateId> = (0..k)
        .map(|i| b.add_state(format!("s{i}"), Output::from_bool((out_bits >> i) & 1 == 1)))
        .collect();
    let mut idx = 2;
    for a in 0..k {
        for pair_b in a..k {
            let lo = bytes[idx] as usize;
            let hi = bytes[idx + 1] as usize;
            idx += 2;
            if (a, pair_b) == (lo, hi) {
                continue; // silent
            }
            b.add_transition_idempotent((states[a], states[pair_b]), (states[lo], states[hi]))
                .expect("states were just declared");
        }
    }
    b.set_input_state("x", states[0]);
    b.build()
        .expect("fingerprint decodes to a well-formed protocol")
}

/// Writes the restriction a fingerprint encodes into `flat`: no leaders,
/// input state 0, the outputs and the non-silent transitions in pair order
/// — the view [`FlatProtocol::load`] writes for [`fingerprint_protocol`]'s
/// protocol.
fn decode_flat(bytes: &[u8], flat: &mut FlatProtocol) {
    let k = bytes[0] as usize;
    flat.leaders.clear();
    flat.leaders.resize(k, 0);
    flat.inputs.clear();
    flat.inputs.push(0);
    flat.accepts.clear();
    flat.accepts
        .extend((0..k).map(|q| (bytes[1] >> q) & 1 == 1));
    flat.transitions.clear();
    let mut idx = 2;
    for a in 0..k {
        for b in a..k {
            let (lo, hi) = (bytes[idx] as usize, bytes[idx + 1] as usize);
            idx += 2;
            if (a, b) != (lo, hi) {
                flat.transitions.push([a, b, lo, hi]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orbit_stream::OrbitStream;
    use crate::segmented::{SegmentationConfig, SegmentedCheckpoint, SegmentedSearch};
    use popproto_reach::unary_threshold_profile;
    use popproto_symbolic::{eta_floor_prefilter, threshold_prefilter};

    /// The reference key, part 1: encodes the coverable-support restriction
    /// of `(assignment, outputs)` as its exact byte string, one candidate at a
    /// time.  With [`canonicalize_fingerprint`] it computes what the
    /// pipeline's per-structure key (`load_structure`, then
    /// `Structure::canonical_outputs`) must reproduce byte for byte.
    ///
    /// Layout: `[k, outputs_bitmask, (post_lo, post_hi) per support pair]` with
    /// support states densely relabelled in increasing original order and pairs
    /// enumerated `(0,0), (0,1) … (k-1,k-1)`.  Two candidates get equal bytes
    /// iff their restrictions are equal protocols — the encoding is injective,
    /// so the transposition table is collision-free by construction.
    fn encode_fingerprint(
        space: &OrbitSpace,
        assignment: &[usize],
        outputs: u32,
        support: &mut [bool],
        bytes: &mut Vec<u8>,
    ) {
        space.coverable_support(assignment, support);
        let n = space.num_states();
        let mut map = [u8::MAX; 8];
        let mut k = 0u8;
        for (q, &covered) in support.iter().enumerate() {
            if covered {
                map[q] = k;
                k += 1;
            }
        }
        bytes.clear();
        bytes.push(k);
        let mut out_bits = 0u8;
        for q in 0..n {
            if support[q] && (outputs >> q) & 1 == 1 {
                out_bits |= 1 << map[q];
            }
        }
        bytes.push(out_bits);
        for a in 0..n {
            if !support[a] {
                continue;
            }
            for b in a..n {
                if !support[b] {
                    continue;
                }
                let (c, d) = space.pairs()[assignment[space.pair_position(a, b)]];
                // The support is forward-closed, so the post pair is inside it.
                let (lo, hi) = (map[c].min(map[d]), map[c].max(map[d]));
                bytes.push(lo);
                bytes.push(hi);
            }
        }
    }

    /// The reference key, part 2: rewrites `bytes` (an
    /// [`encode_fingerprint`] encoding) into the smallest
    /// encoding over all relabellings of the restriction's states that fix the
    /// input state 0 — the canonical representative of the restriction's
    /// relabelling class.
    ///
    /// Encodings are ordered by their transition bytes `bytes[2..]` first and
    /// their output byte `bytes[1]` second.  The coverable support, and with it
    /// the state count and the unrelabelled transition bytes, depends on the
    /// transitions alone, so every output pattern of one assignment minimises
    /// the same transition bytes: all of them come out with byte-identical
    /// transitions, and the pre-filter analyses that structure once for all of
    /// them.  Ordering by the whole byte string would put the outputs first,
    /// and patterns that relabel differently would split one structure into
    /// several.  Either order picks one member per class, so the memo answers
    /// the same hits; only the representative a key holds differs.
    ///
    /// `perms` must be the non-identity permutations of `0..k` fixing 0, where
    /// `k = bytes[0]`.  Soundness: every triage stage (symbolic pre-filter,
    /// η-floor filter, concrete threshold profile) is invariant under such
    /// relabellings — the reachability graphs of relabelled protocols are
    /// isomorphic, outputs and input state are carried along — so all members of
    /// the class share one verdict and may share one memo entry.
    ///
    /// Every permutation image is computed from the *original* bytes and
    /// compared against a separately-tracked champion: the result is
    /// `min {π(x) : π in the full group}` — a true class invariant (all
    /// members canonicalize to the same representative, and the function is
    /// idempotent).  Mutating `bytes` mid-loop instead would compare only a
    /// path-dependent subset of the orbit, which is still *sound* (any orbit
    /// member decodes to an isomorphic restriction) but silently misses hits —
    /// the invariance property test is what pins this down.
    fn canonicalize_fingerprint(
        bytes: &mut Vec<u8>,
        perms: &[Vec<usize>],
        scratch: &mut Vec<u8>,
        best: &mut Vec<u8>,
    ) {
        let k = bytes[0] as usize;
        if k < 3 || perms.is_empty() {
            return; // the residual group of ≤ 2 states (input fixed) is trivial
        }
        // Byte offset of the post pair of pre pair (a, b), a ≤ b, in the layout
        // of `encode_fingerprint`: pairs enumerated (0,0), (0,1) … (k-1,k-1).
        let offset = |a: usize, b: usize| 2 + 2 * (a * (2 * k + 1 - a) / 2 + (b - a));
        best.clear();
        best.extend_from_slice(bytes);
        for perm in perms {
            scratch.clear();
            scratch.resize(bytes.len(), 0);
            scratch[0] = bytes[0];
            for (q, &pq) in perm.iter().enumerate().take(k) {
                if (bytes[1] >> q) & 1 == 1 {
                    scratch[1] |= 1 << pq;
                }
            }
            for a in 0..k {
                for b in a..k {
                    let src = offset(a, b);
                    let (c, d) = (perm[bytes[src] as usize], perm[bytes[src + 1] as usize]);
                    let (pa, pb) = (perm[a].min(perm[b]), perm[a].max(perm[b]));
                    let dst = offset(pa, pb);
                    scratch[dst] = c.min(d) as u8;
                    scratch[dst + 1] = c.max(d) as u8;
                }
            }
            if (&scratch[2..], scratch[1]) < (&best[2..], best[1]) {
                std::mem::swap(best, scratch);
            }
        }
        std::mem::swap(bytes, best);
    }

    fn config(max_input: u64) -> PipelineConfig {
        PipelineConfig::exact(max_input, &ExploreLimits::default())
    }

    /// Flattens the pipeline's memo rows into one `(fingerprint, verdict)`
    /// record per (structure, output pattern) entry, keyed `[k, outputs,
    /// transitions…]` as the reference keys are, sorted by fingerprint.
    fn memo_records(pipeline: &CandidatePipeline) -> Vec<(Vec<u8>, MemoVerdict)> {
        let mut records = Vec::with_capacity(pipeline.memo_entries);
        for (key, &row) in &pipeline.memo {
            let width = 1usize << key[0];
            for (out, slot) in pipeline.slots[row..row + width].iter().enumerate() {
                if let Some(verdict) = *slot {
                    let mut fingerprint = vec![key[0], out as u8];
                    fingerprint.extend_from_slice(&key[1..]);
                    records.push((fingerprint, verdict));
                }
            }
        }
        records.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        records
    }

    /// Drives one pipeline over the candidate range `[0, end)` sequentially;
    /// returns it with its stats (generator's `pruned_symmetric` folded in).
    fn drain(
        num_states: usize,
        end: u128,
        cfg: PipelineConfig,
    ) -> (CandidatePipeline, PipelineStats) {
        let space = OrbitSpace::new(num_states);
        let mut pipeline = CandidatePipeline::new(num_states, cfg);
        let mut stream = OrbitStream::range(&space, 0, end);
        while let Some(k) = stream.next_canonical() {
            let outputs = (k % space.output_patterns()) as u32;
            pipeline.offer(&space, k, stream.current_assignment(), outputs);
        }
        let mut stats = pipeline.stats().clone();
        stats.pruned_symmetric = stream.pruned_symmetric();
        (pipeline, stats)
    }

    /// Drives a pipeline over a whole space sequentially.
    fn run_space(num_states: usize, cfg: PipelineConfig) -> (PipelineStats, Option<BestCandidate>) {
        let (pipeline, stats) = drain(num_states, u128::MAX, cfg);
        (stats, pipeline.best())
    }

    #[test]
    fn memo_cap_bounds_the_table_without_changing_verdicts() {
        let uncapped = run_space(2, config(6));
        let capped = {
            let mut c = config(6);
            c.memo_max_entries = 5;
            run_space(2, c)
        };
        assert_eq!(capped.1, uncapped.1, "best candidate must not change");
        let mut a = capped.0.clone();
        let mut b = uncapped.0.clone();
        // A capped table can only ever answer a subset of the hits.
        assert!(a.memo_hits <= b.memo_hits);
        a.memo_hits = 0;
        b.memo_hits = 0;
        assert_eq!(a, b, "only memo_hits may differ under a cap");

        // Kill/resume stays bit-identical under the cap: a resumed segment
        // runs from its start on a fresh table, so its insertion decisions
        // replay deterministically.
        let mut c = config(6);
        c.memo_max_entries = 5;
        let seg = SegmentationConfig::index_order(16, None);
        let mut straight = SegmentedSearch::new(2, c.clone(), seg.clone());
        straight.run(1, u64::MAX);
        let expected = straight.result();
        let mut search = SegmentedSearch::new(2, c, seg);
        let mut budget = 0;
        while !search.is_finished() {
            budget += 7;
            search.run(2, budget);
            let json = serde_json::to_string(&search.checkpoint()).unwrap();
            let checkpoint: SegmentedCheckpoint = serde_json::from_str(&json).unwrap();
            search = SegmentedSearch::from_checkpoint(&checkpoint).expect("checkpoint resumes");
        }
        let result = search.result();
        assert!(result.finished);
        assert_eq!(result, expected, "capped kill/resume diverged");
    }

    /// Checks the per-structure key against the reference over `[0, end)`:
    /// it must be byte for byte the reference key of every candidate, and
    /// the row memo must hold exactly the records a table keyed by the
    /// reference would — the same fingerprints with the same verdicts — and
    /// answer the same hits.
    ///
    /// The pipeline triages its own misses and the reference triages each
    /// reference key on a pipeline of its own, so every verdict in the row
    /// memo is checked against one computed from the reference key.
    fn assert_keys_and_records_match_the_reference(num_states: usize, end: u128) {
        let space = OrbitSpace::new(num_states);
        let perms_by_k: Vec<Vec<Vec<usize>>> =
            (0..=num_states).map(permutations_fixing_zero).collect();
        let mut pipeline = CandidatePipeline::new(num_states, config(5));
        // Triages the reference keys on a pipeline of its own.
        let mut reference = CandidatePipeline::new(num_states, config(5));
        let mut table: HashMap<Vec<u8>, MemoVerdict> = HashMap::new();
        let mut support = vec![false; num_states];
        let (mut expected, mut scratch, mut scratch_best) = (Vec::new(), Vec::new(), Vec::new());
        let (mut hits, mut relabelled) = (0u64, 0u64);
        let mut stream = OrbitStream::range(&space, 0, end);
        while let Some(index) = stream.next_canonical() {
            let assignment = stream.current_assignment();
            let outputs = (index % space.output_patterns()) as u32;
            encode_fingerprint(&space, assignment, outputs, &mut support, &mut expected);
            let raw = expected.clone();
            let k = expected[0] as usize;
            canonicalize_fingerprint(
                &mut expected,
                &perms_by_k[k],
                &mut scratch,
                &mut scratch_best,
            );
            relabelled += u64::from(raw != expected);
            if table.contains_key(&expected) {
                hits += 1;
            } else {
                reference.fingerprint.clone_from(&expected);
                let verdict = reference.triage();
                table.insert(expected.clone(), verdict);
            }

            pipeline.offer(&space, index, assignment, outputs);
            let s = &pipeline.structure;
            let mut key = vec![s.key[0], s.canonical_outputs(outputs)];
            key.extend_from_slice(&s.key[1..]);
            assert_eq!(key, expected, "{num_states} states, candidate {index}");
        }
        assert!(relabelled > 0, "{num_states} states: no key was relabelled");
        let stats = pipeline.stats();
        assert_eq!(stats.memo_hits, hits, "{num_states} states");
        // Every miss was triaged and memoized under a distinct reference key.
        assert_eq!(
            stats.canonical_orbits - stats.memo_hits,
            table.len() as u64,
            "{num_states} states"
        );
        let mut records: Vec<(Vec<u8>, MemoVerdict)> = table.into_iter().collect();
        records.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(memo_records(&pipeline), records, "{num_states} states");
    }

    #[test]
    fn structure_keys_and_memo_records_match_the_reference_on_three_states() {
        assert_keys_and_records_match_the_reference(3, u128::MAX);
    }

    #[test]
    fn structure_keys_and_memo_records_match_the_reference_on_a_four_state_prefix() {
        assert_keys_and_records_match_the_reference(4, 1 << 20);
    }

    #[test]
    fn capped_memo_hits_are_pinned() {
        // `memo_max_entries` counts (structure, output pattern) entries, not
        // structures: the exact capped hit counts pin which verdicts a full
        // table still admits.  An upper bound alone would pass a table that
        // counted something else.
        let capped = |num_states: usize, end: u128, max_input: u64, cap: usize| {
            let mut c = config(max_input);
            c.memo_max_entries = cap;
            drain(num_states, end, c).1.memo_hits
        };
        assert_eq!(capped(2, u128::MAX, 6, 5), 34);
        assert_eq!(capped(3, 20_000, 5, 1_000), 7_378);
        // The 3-state cap binds: uncapped, the same range answers more.
        assert_eq!(capped(3, 20_000, 5, usize::MAX), 7_930);
    }

    #[test]
    fn canonical_fingerprints_are_relabelling_invariant() {
        // The canonical form must be a class invariant: relabelling a
        // candidate's states (fixing the input state 0) relabels its
        // restriction, and both must canonicalize to the same bytes.
        let space = OrbitSpace::new(4);
        let num_pairs = space.pairs().len();
        let perms4 = permutations_fixing_zero(4);
        let mut assignment = vec![0usize; num_pairs];
        let mut relabeled = vec![0usize; num_pairs];
        let mut support = vec![false; 4];
        let mut bytes = Vec::new();
        let mut other_bytes = Vec::new();
        let mut scratch = Vec::new();
        let mut scratch_best = Vec::new();
        let perms_by_k: Vec<Vec<Vec<usize>>> = (0..=4).map(permutations_fixing_zero).collect();
        let mut canonicalize = |b: &mut Vec<u8>, scratch: &mut Vec<u8>| {
            let k = b[0] as usize;
            canonicalize_fingerprint(b, &perms_by_k[k], scratch, &mut scratch_best);
        };
        let step = 7_919usize; // prime stride through the space
        let mut checked = 0;
        for k in (0..space.total_candidates()).step_by(step).take(400) {
            space.decode_assignment(k / space.output_patterns(), &mut assignment);
            let outputs = (k % space.output_patterns()) as u32;
            encode_fingerprint(&space, &assignment, outputs, &mut support, &mut bytes);
            canonicalize(&mut bytes, &mut scratch);
            // Idempotence: canonicalizing the canonical form changes nothing.
            let mut again = bytes.clone();
            canonicalize(&mut again, &mut scratch);
            assert_eq!(again, bytes, "candidate {k}: not idempotent");
            for perm in &perms4 {
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
                encode_fingerprint(
                    &space,
                    &relabeled,
                    swapped_outputs,
                    &mut support,
                    &mut other_bytes,
                );
                canonicalize(&mut other_bytes, &mut scratch);
                assert_eq!(
                    other_bytes, bytes,
                    "candidate {k}, perm {perm:?}: canonical forms diverge"
                );
                checked += 1;
            }
        }
        assert!(checked > 1_000);
    }

    #[test]
    fn canonical_fingerprints_share_the_structure_across_output_patterns() {
        // The coverable support depends on the transitions alone, and the
        // canonical form minimises the transition bytes before the outputs:
        // every output pattern of one assignment must come out with the
        // same state count and the same transition bytes, which is what
        // lets the pre-filter keep one structure's artifacts for all of
        // them.
        let space = OrbitSpace::new(4);
        let perms_by_k: Vec<Vec<Vec<usize>>> = (0..=4).map(permutations_fixing_zero).collect();
        let mut assignment = vec![0usize; space.pairs().len()];
        let mut support = vec![false; 4];
        let (mut bytes, mut first) = (Vec::new(), Vec::new());
        let (mut scratch, mut scratch_best) = (Vec::new(), Vec::new());
        let mut relabelled = 0;
        let assignments = space.total_candidates() / space.output_patterns();
        for a in (0..assignments).step_by((assignments / 307) as usize) {
            space.decode_assignment(a, &mut assignment);
            for outputs in 0..space.output_patterns() as u32 {
                encode_fingerprint(&space, &assignment, outputs, &mut support, &mut bytes);
                let raw = bytes.clone();
                let k = bytes[0] as usize;
                canonicalize_fingerprint(
                    &mut bytes,
                    &perms_by_k[k],
                    &mut scratch,
                    &mut scratch_best,
                );
                relabelled += usize::from(bytes[2..] != raw[2..]);
                if outputs == 0 {
                    first.clone_from(&bytes);
                } else {
                    assert_eq!(bytes[0], first[0], "assignment {a}: state counts differ");
                    assert_eq!(
                        bytes[2..],
                        first[2..],
                        "assignment {a}, outputs {outputs:#b}: transition bytes differ"
                    );
                }
            }
        }
        assert!(relabelled > 0, "no sampled restriction was relabelled");
    }

    #[test]
    fn flat_view_matches_the_decoded_protocol() {
        // The symbolic stages and the CSR profile read the fingerprint's
        // flat view instead of the protocol `fingerprint_protocol` builds:
        // both must describe the same candidate.
        let space = OrbitSpace::new(4);
        let perms_by_k: Vec<Vec<Vec<usize>>> = (0..=4).map(permutations_fixing_zero).collect();
        let mut assignment = vec![0usize; space.pairs().len()];
        let mut support = vec![false; 4];
        let (mut bytes, mut scratch, mut scratch_best) = (Vec::new(), Vec::new(), Vec::new());
        let (mut decoded, mut loaded) = (FlatProtocol::default(), FlatProtocol::default());
        for k in (0..space.total_candidates()).step_by(7_919).take(500) {
            space.decode_assignment(k / space.output_patterns(), &mut assignment);
            let outputs = (k % space.output_patterns()) as u32;
            encode_fingerprint(&space, &assignment, outputs, &mut support, &mut bytes);
            let states = bytes[0] as usize;
            canonicalize_fingerprint(
                &mut bytes,
                &perms_by_k[states],
                &mut scratch,
                &mut scratch_best,
            );
            decode_flat(&bytes, &mut decoded);
            loaded.load(&fingerprint_protocol(&bytes));
            assert_eq!(decoded, loaded, "candidate {k}");
        }
    }

    /// The restrictions the `BB_det(3)` pipeline profiles, in offer order:
    /// the canonical fingerprint of every memo miss that passes the
    /// symbolic pre-filter (the η floor is off).
    fn three_state_profiled_fingerprints(cfg: &PipelineConfig) -> Vec<Vec<u8>> {
        let space = OrbitSpace::new(3);
        let perms_by_k: Vec<Vec<Vec<usize>>> = (0..=3).map(permutations_fixing_zero).collect();
        let mut prefilter = Prefilter::default();
        let mut seen = std::collections::HashSet::new();
        let mut profiled = Vec::new();
        let mut support = vec![false; 3];
        let (mut bytes, mut scratch, mut scratch_best) = (Vec::new(), Vec::new(), Vec::new());
        let mut stream = OrbitStream::range(&space, 0, u128::MAX);
        while let Some(index) = stream.next_canonical() {
            let outputs = (index % space.output_patterns()) as u32;
            let assignment = stream.current_assignment();
            encode_fingerprint(&space, assignment, outputs, &mut support, &mut bytes);
            let k = bytes[0] as usize;
            canonicalize_fingerprint(&mut bytes, &perms_by_k[k], &mut scratch, &mut scratch_best);
            if seen.insert(bytes.clone())
                && prefilter.threshold(&fingerprint_protocol(&bytes), cfg.max_input, &cfg.symbolic)
            {
                profiled.push(bytes.clone());
            }
        }
        profiled
    }

    /// Profiles `order` on one slice profiler, through the view the
    /// pipeline feeds it, and checks every profile against a fresh
    /// [`unary_threshold_profile`] on the fingerprint's protocol.  Returns
    /// how many profiles hold a truncated slice.
    fn assert_cached_profiles_match_fresh_ones(
        order: &[&Vec<u8>],
        limits: &ExploreLimits,
    ) -> usize {
        let mut profiler = SliceProfiler::default();
        let mut flat = FlatProtocol::default();
        let mut truncated = 0;
        for &bytes in order {
            decode_flat(bytes, &mut flat);
            let cached = profiler.profile_flat(&flat, 6, limits);
            let fresh = unary_threshold_profile(&fingerprint_protocol(bytes), 6, limits);
            assert_eq!(cached, fresh, "{bytes:?} under {limits:?}");
            truncated += usize::from(cached.inputs.iter().any(|p| !p.exhaustive));
        }
        truncated
    }

    #[test]
    fn cached_slice_profiles_match_fresh_ones_on_every_three_state_restriction() {
        let cfg = config(6);
        let profiled = three_state_profiled_fingerprints(&cfg);
        // The list is every restriction the pipeline profiles.
        let (pipeline, stats) = drain(3, u128::MAX, cfg);
        let records = memo_records(&pipeline);
        assert_eq!(stats.threshold_protocols, 46_144);
        let expected: Vec<&Vec<u8>> = records
            .iter()
            .filter(|(_, verdict)| matches!(verdict, MemoVerdict::Profiled { .. }))
            .map(|(bytes, _)| bytes)
            .collect();
        let mut sorted: Vec<&Vec<u8>> = profiled.iter().collect();
        sorted.sort_unstable();
        assert_eq!(sorted, expected);

        // In offer order.
        let offer: Vec<&Vec<u8>> = profiled.iter().collect();
        assert_eq!(
            assert_cached_profiles_match_fresh_ones(&offer, &ExploreLimits::default()),
            0
        );
        // Interleaved: each pair of consecutive structures A, B runs as A,
        // then B, then A again in reverse, so A's slices are explored
        // again after B replaced them.
        let mut runs: Vec<Vec<&Vec<u8>>> = Vec::new();
        for bytes in &profiled {
            match runs.last_mut() {
                Some(run) if (run[0][0], &run[0][2..]) == (bytes[0], &bytes[2..]) => {
                    run.push(bytes)
                }
                _ => runs.push(vec![bytes]),
            }
        }
        assert!(runs.iter().any(|run| run.len() > 1));
        let mut interleaved = Vec::new();
        for pair in runs.chunks(2) {
            interleaved.extend(&pair[0]);
            if let Some(b) = pair.get(1) {
                interleaved.extend(b);
                interleaved.extend(pair[0].iter().rev());
            }
        }
        assert_eq!(
            assert_cached_profiles_match_fresh_ones(&interleaved, &ExploreLimits::default()),
            0
        );
        // Under a tiny cap, so that cached graphs are truncated.
        let tiny = ExploreLimits::with_max_configs(4);
        assert!(assert_cached_profiles_match_fresh_ones(&offer, &tiny) > 0);
    }

    /// What a memo-free, raw-key pipeline computes over the candidate range
    /// `[0, end)`: every canonical candidate's raw restriction runs through
    /// the free pre-filters and the CSR profile, with no transposition
    /// table and no canonicalisation.  Returns the counters, the best
    /// candidate, the witness list and how many candidates canonicalisation
    /// relabels.
    fn memo_free_reference(
        num_states: usize,
        end: u128,
        cfg: &PipelineConfig,
    ) -> (PipelineStats, Option<BestCandidate>, Vec<u128>, u64) {
        let space = OrbitSpace::new(num_states);
        let perms_by_k: Vec<Vec<Vec<usize>>> =
            (0..=num_states).map(permutations_fixing_zero).collect();
        let mut support = vec![false; num_states];
        let (mut raw, mut canonical) = (Vec::new(), Vec::new());
        let (mut scratch, mut scratch_best) = (Vec::new(), Vec::new());
        let mut stats = PipelineStats::default();
        let (mut best, mut confirmed, mut relabelled) = (None, Vec::new(), 0);
        let mut stream = OrbitStream::range(&space, 0, end);
        while let Some(index) = stream.next_canonical() {
            let outputs = (index % space.output_patterns()) as u32;
            encode_fingerprint(
                &space,
                stream.current_assignment(),
                outputs,
                &mut support,
                &mut raw,
            );
            canonical.clone_from(&raw);
            let k = raw[0] as usize;
            canonicalize_fingerprint(
                &mut canonical,
                &perms_by_k[k],
                &mut scratch,
                &mut scratch_best,
            );
            relabelled += u64::from(canonical != raw);
            stats.canonical_orbits += 1;
            let protocol = fingerprint_protocol(&raw);
            if !threshold_prefilter(&protocol, cfg.max_input, &cfg.symbolic) {
                stats.pruned_symbolic += 1;
                continue;
            }
            if !eta_floor_prefilter(&protocol, cfg.eta_floor, &cfg.symbolic) {
                stats.pruned_eta_bounded += 1;
                continue;
            }
            let profile = unary_threshold_profile(&protocol, cfg.max_input, &cfg.explore);
            stats.profiled += 1;
            if profile.inputs.iter().any(|p| !p.exhaustive) {
                stats.truncated_orbits += 1;
            }
            if let Some(eta) = profile.verified_threshold() {
                stats.threshold_protocols += 1;
                confirmed.push(index);
                best = BestCandidate::merge(best, Some(BestCandidate { eta, index }));
            }
        }
        stats.pruned_symmetric = stream.pruned_symmetric();
        (stats, best, confirmed, relabelled)
    }

    /// Runs the pipeline over `[0, end)` and checks it against
    /// [`memo_free_reference`]: every counter but `memo_hits`, the best
    /// candidate and the witness list must be the reference's, and the memo
    /// must answer something.  Returns how many keys canonicalisation
    /// relabelled.
    fn assert_matches_reference(
        num_states: usize,
        end: u128,
        max_input: u64,
        eta_floor: u64,
        engine: ReachEngine,
    ) -> u64 {
        let case = format!("{num_states} states, floor {eta_floor}, {engine:?}");
        let mut cfg = config(max_input);
        cfg.eta_floor = eta_floor;
        cfg.engine = engine;
        let (expected, best, confirmed, relabelled) = memo_free_reference(num_states, end, &cfg);
        let (pipeline, mut stats) = drain(num_states, end, cfg);
        assert!(stats.memo_hits > 0, "{case}: the memo answered nothing");
        stats.memo_hits = 0;
        assert_eq!(stats, expected, "{case}: funnel counters differ");
        assert_eq!(pipeline.best(), best, "{case}: best candidate differs");
        assert_eq!(
            pipeline.confirmed(),
            confirmed,
            "{case}: witness lists differ"
        );
        relabelled
    }

    #[test]
    fn memoization_changes_no_verdict() {
        // The memo may only turn computes into hits: over the whole 2-state
        // space the pipeline must match the memo-free reference.
        for eta_floor in [2, 3] {
            assert_matches_reference(2, u128::MAX, 6, eta_floor, ReachEngine::Csr);
        }
    }

    #[test]
    fn canonical_fingerprints_change_no_verdict() {
        // The quotient of the memo key by relabellings may only turn
        // computes into hits: on a capped 3-state prefix, where some keys
        // really are relabelled, the pipeline must match the raw-key
        // reference.
        for (eta_floor, engine) in [(2, ReachEngine::Csr), (3, ReachEngine::Frontier)] {
            let relabelled = assert_matches_reference(3, 20_000, 5, eta_floor, engine);
            // Without relabelled keys the quotient would go untested.
            assert!(relabelled > 0, "floor {eta_floor}: no key was relabelled");
        }
    }

    #[test]
    fn engines_agree_on_the_whole_two_state_space() {
        for eta_floor in [2, 3] {
            assert_matches_reference(2, u128::MAX, 6, eta_floor, ReachEngine::Frontier);
        }
        let csr = {
            let mut c = config(6);
            c.engine = ReachEngine::Csr;
            run_space(2, c)
        };
        let frontier = {
            let mut c = config(6);
            c.engine = ReachEngine::Frontier;
            run_space(2, c)
        };
        assert_eq!(csr, frontier);
    }

    #[test]
    fn eta_floor_three_preserves_a_three_state_best() {
        // BB_det(3) = 3 ≥ the floor, so the floored search must find the
        // same best candidate while actually rejecting η ≤ 2 candidates.
        let unfloored = run_space(3, config(5));
        let floored = {
            let mut c = config(5);
            c.eta_floor = 3;
            run_space(3, c)
        };
        assert_eq!(unfloored.1, floored.1, "best candidate must not change");
        assert!(
            floored.0.pruned_eta_bounded > 0,
            "the η-floor stage never fired"
        );
        assert!(
            floored.0.threshold_protocols < unfloored.0.threshold_protocols,
            "η = 2 candidates must no longer reach the profile stage"
        );
    }

    #[test]
    fn fingerprints_are_injective_on_a_sample() {
        // Decoding a fingerprint and re-encoding the decoded protocol's
        // structure must round-trip: spot-check injectivity by verifying
        // that distinct fingerprints yield distinct restriction protocols
        // and equal fingerprints equal ones.
        let space = OrbitSpace::new(3);
        let mut assignment = vec![0usize; space.pairs().len()];
        let mut support = vec![false; 3];
        let mut seen: HashMap<Vec<u8>, Protocol> = HashMap::new();
        let mut bytes = Vec::new();
        for k in (0..space.total_candidates()).step_by(499) {
            space.decode_assignment(k / space.output_patterns(), &mut assignment);
            let outputs = (k % space.output_patterns()) as u32;
            encode_fingerprint(&space, &assignment, outputs, &mut support, &mut bytes);
            let restricted = fingerprint_protocol(&bytes);
            match seen.get(&bytes) {
                Some(prev) => assert_eq!(*prev, restricted),
                None => {
                    for (other_bytes, other) in &seen {
                        if *other == restricted {
                            panic!(
                                "two fingerprints {:?} / {:?} decode to the same protocol",
                                other_bytes, bytes
                            );
                        }
                    }
                    seen.insert(bytes.clone(), restricted);
                }
            }
        }
        assert!(seen.len() > 1);
    }
}
