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
//!    frontier-compressed exploration engine.
//!
//! The pipeline runs the two symbolic stages on one [`Prefilter`] it owns,
//! on the flat view of the fingerprint ([`FlatProtocol`]): a memo miss
//! builds a [`Protocol`] only when it reaches the concrete slices.  The
//! filter keeps what depends on the transition structure alone — the
//! Karp–Miller cover, and the backward basis of each state — for the last
//! structure it saw, and the canonical fingerprints make every output
//! pattern of one structure decode to the same transitions, so a structure
//! is analysed once however many of its output patterns miss the memo.
//! Verdicts are those of the free functions, whatever the order of the
//! misses.
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
//! pattern) entries, and [`CandidatePipeline::memo_records`] flattens the
//! rows into one record per entry, so hits, insertion decisions and
//! checkpoint bytes are those of a table keyed by the full fingerprint.
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
//! A pipeline is a plain value: its counters, best candidate, witness set
//! and memo table are what [`CandidatePipeline::memo_records`] and the
//! crate-private `restore` round-trip.  The busy-beaver search,
//! [`SegmentedSearch`](crate::segmented::SegmentedSearch), checkpoints them
//! per segment next to the segment's generator cursor and restarts
//! bit-identically — same verdicts, same counters, same `memo_hits` — which
//! the equivalence suites assert at pseudo-random kill points.
//!
//! [`threshold_prefilter`]: popproto_symbolic::threshold_prefilter
//! [`eta_floor_prefilter`]: popproto_symbolic::eta_floor_prefilter
//! [`ThresholdProfile`]: popproto_reach::ThresholdProfile

use crate::orbit_stream::{permutations_fixing_zero, OrbitSpace};
use popproto_model::{Output, Protocol, ProtocolBuilder, StateId};
use popproto_reach::{frontier_threshold_profile, unary_threshold_profile, ExploreLimits};
use popproto_symbolic::{FlatProtocol, Prefilter, SymbolicLimits, OMEGA};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::HashMap;

/// Which exact-exploration engine the concrete-slice stage runs on.
///
/// Both engines produce bit-identical [`popproto_reach::ThresholdProfile`]s;
/// they differ only in peak memory (the frontier engine stores no adjacency)
/// and constant factors (the CSR engine walks stored edges, the frontier
/// engine regenerates them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReachEngine {
    /// [`popproto_reach::ReachabilityGraph`]: stored CSR adjacency — fastest
    /// on the small slices of a busy-beaver profile.
    Csr,
    /// [`popproto_reach::FrontierGraph`]: frontier-compressed, adjacency
    /// regenerated on demand — peak memory bounded by the arena.
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
    /// entries keep answering hits but no new restriction is inserted — the
    /// table, and with it every checkpoint, stays bounded regardless of how
    /// deep a multi-session search streams.  Insertion decisions depend
    /// only on the table state and the candidate order (both
    /// checkpointed), so kill/resume stays bit-identical under any cap.
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MemoVerdict {
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

/// One serialised transposition-table entry.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoRecord {
    /// The restriction fingerprint (exact canonical encoding).
    pub fingerprint: Vec<u8>,
    /// The memoized triage outcome.
    pub verdict: MemoVerdict,
}

/// Delta-packed serialisation of a [`MemoRecord`] list.
///
/// A checkpointed memo table is dominated by its fingerprints: the records
/// are emitted sorted, so neighbours share long common prefixes (the
/// encoding leads with the state count and the restriction support), and
/// the JSON layer renders a `Vec<u8>` as a number array at roughly four
/// characters per byte plus a tagged verdict object per entry.  Packing
/// therefore (a) delta-encodes each fingerprint against its predecessor —
/// a shared-prefix length plus the fresh suffix — (b) squeezes each
/// verdict into one code byte (with an LEB128 threshold where one
/// exists), and (c) renders the whole byte stream as a single hex string
/// at two characters per byte.  Decoding is exact: [`PackedMemo::unpack`]
/// reproduces the input record list entry for entry, so checkpoint resume
/// stays bit-identical — the encoding changes checkpoint *bytes*, never
/// what a resumed search computes.  (Prefix sharing is a pure compression
/// win: unsorted input still round-trips, it just shares less.)
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PackedMemo {
    /// Number of packed records.
    pub entries: u64,
    /// Hex rendering of the delta byte stream: per record an LEB128
    /// shared-prefix length, an LEB128 suffix length, the suffix bytes, a
    /// verdict code (0 symbolic, 1 η-floor, 2/3 profiled-unverified with
    /// the truncation bit, 4/5 profiled-verified likewise), and for codes
    /// 4/5 the LEB128 verified threshold.
    pub stream: String,
}

/// Appends `v` to `out` as an LEB128 varint (7 payload bits per byte,
/// high bit = continuation).
fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads one LEB128 varint starting at `*pos`, advancing `*pos` past it.
fn read_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, String> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let &byte = bytes
            .get(*pos)
            .ok_or_else(|| "packed memo stream truncated inside a varint".to_owned())?;
        *pos += 1;
        if shift >= 64 {
            return Err("packed memo varint overflows u64".to_owned());
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

impl PackedMemo {
    /// Packs a record list.  Lossless for any input order; sorted input
    /// (what [`CandidatePipeline::memo_records`] emits) compresses best.
    pub fn pack(records: &[MemoRecord]) -> Self {
        let mut bytes = Vec::new();
        let mut previous: &[u8] = &[];
        for record in records {
            let shared = previous
                .iter()
                .zip(&record.fingerprint)
                .take_while(|(a, b)| a == b)
                .count();
            push_varint(&mut bytes, shared as u64);
            push_varint(&mut bytes, (record.fingerprint.len() - shared) as u64);
            bytes.extend_from_slice(&record.fingerprint[shared..]);
            let (code, verified) = match record.verdict {
                MemoVerdict::RejectedSymbolic => (0u8, None),
                MemoVerdict::RejectedEta => (1, None),
                MemoVerdict::Profiled {
                    verified: None,
                    truncated,
                } => (2 + u8::from(truncated), None),
                MemoVerdict::Profiled {
                    verified: Some(eta),
                    truncated,
                } => (4 + u8::from(truncated), Some(eta)),
            };
            bytes.push(code);
            if let Some(eta) = verified {
                push_varint(&mut bytes, eta);
            }
            previous = &record.fingerprint;
        }
        let mut stream = String::with_capacity(bytes.len() * 2);
        for b in bytes {
            stream.push(char::from_digit(u32::from(b >> 4), 16).unwrap());
            stream.push(char::from_digit(u32::from(b & 0xf), 16).unwrap());
        }
        PackedMemo {
            entries: records.len() as u64,
            stream,
        }
    }

    /// Reconstructs the exact record list [`PackedMemo::pack`] consumed.
    pub fn unpack(&self) -> Result<Vec<MemoRecord>, String> {
        let hex = self.stream.as_bytes();
        if !hex.len().is_multiple_of(2) {
            return Err("packed memo hex stream has odd length".to_owned());
        }
        let digit = |c: u8| {
            (c as char)
                .to_digit(16)
                .ok_or_else(|| format!("invalid hex digit {:?} in packed memo", c as char))
        };
        let mut bytes = Vec::with_capacity(hex.len() / 2);
        for pair in hex.chunks_exact(2) {
            bytes.push((digit(pair[0])? * 16 + digit(pair[1])?) as u8);
        }
        // Every record takes at least three bytes (two length varints and a
        // verdict code), so the stream, not the untrusted count, bounds the
        // reservation.
        let mut records =
            Vec::with_capacity(usize::try_from(self.entries).map_or(0, |n| n.min(bytes.len() / 3)));
        let mut previous: Vec<u8> = Vec::new();
        let mut pos = 0usize;
        for _ in 0..self.entries {
            let shared = usize::try_from(read_varint(&bytes, &mut pos)?)
                .map_err(|_| "packed memo prefix length overflows usize".to_owned())?;
            let suffix = usize::try_from(read_varint(&bytes, &mut pos)?)
                .map_err(|_| "packed memo suffix length overflows usize".to_owned())?;
            if shared > previous.len() || pos + suffix > bytes.len() {
                return Err("packed memo stream truncated inside a fingerprint".to_owned());
            }
            let mut fingerprint = previous[..shared].to_vec();
            fingerprint.extend_from_slice(&bytes[pos..pos + suffix]);
            pos += suffix;
            let code = *bytes
                .get(pos)
                .ok_or_else(|| "packed memo stream truncated before a verdict".to_owned())?;
            pos += 1;
            let verdict = match code {
                0 => MemoVerdict::RejectedSymbolic,
                1 => MemoVerdict::RejectedEta,
                2 | 3 => MemoVerdict::Profiled {
                    verified: None,
                    truncated: code == 3,
                },
                4 | 5 => MemoVerdict::Profiled {
                    verified: Some(read_varint(&bytes, &mut pos)?),
                    truncated: code == 5,
                },
                other => return Err(format!("unknown packed memo verdict code {other}")),
            };
            records.push(MemoRecord {
                fingerprint: fingerprint.clone(),
                verdict,
            });
            previous = fingerprint;
        }
        if pos != bytes.len() {
            return Err("trailing bytes after the last packed memo record".to_owned());
        }
        Ok(records)
    }

    /// Returns `true` if no records are packed.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }
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
    /// The flat view of the last memo miss, read by the symbolic stages.
    flat: FlatProtocol,
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
    /// symbolic stages read its flat view; a [`Protocol`] is built only for
    /// a candidate that reaches the concrete slices.
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
        let protocol = fingerprint_protocol(&self.fingerprint);
        let profile = match config.engine {
            ReachEngine::Csr => {
                unary_threshold_profile(&protocol, config.max_input, &config.explore)
            }
            ReachEngine::Frontier => {
                frontier_threshold_profile(&protocol, config.max_input, &config.explore)
            }
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

    /// Serialises the transposition table, sorted by fingerprint so the
    /// checkpoint bytes are deterministic: one record per (structure,
    /// output pattern) entry, keyed `[k, outputs, transitions…]`.
    pub fn memo_records(&self) -> Vec<MemoRecord> {
        let mut records = Vec::with_capacity(self.memo_entries);
        for (key, &row) in &self.memo {
            let width = 1usize << key[0];
            for (out, slot) in self.slots[row..row + width].iter().enumerate() {
                if let Some(verdict) = *slot {
                    let mut fingerprint = Vec::with_capacity(key.len() + 1);
                    fingerprint.extend_from_slice(&[key[0], out as u8]);
                    fingerprint.extend_from_slice(&key[1..]);
                    records.push(MemoRecord {
                        fingerprint,
                        verdict,
                    });
                }
            }
        }
        records.sort_by(|a, b| a.fingerprint.cmp(&b.fingerprint));
        records
    }

    /// Restores a checkpointed pipeline state.
    ///
    /// # Panics
    ///
    /// Panics on a record that is not the fingerprint of a restriction of
    /// at most `num_states` states.
    pub(crate) fn restore(
        &mut self,
        stats: PipelineStats,
        best: Option<BestCandidate>,
        confirmed: Vec<u128>,
        memo: &[MemoRecord],
    ) {
        self.stats = stats;
        self.best = best;
        self.confirmed = confirmed;
        self.memo.clear();
        self.slots.clear();
        self.memo_entries = 0;
        self.structure.function = u128::MAX;
        let mut key = Vec::new();
        for record in memo {
            let fingerprint = &record.fingerprint;
            let k = fingerprint.first().map_or(usize::MAX, |&k| k as usize);
            assert!(
                k <= self.support.len()
                    && fingerprint.len() == 2 + k * (k + 1)
                    && (fingerprint[1] as usize) < 1 << k,
                "corrupt local memo record in checkpoint"
            );
            key.clear();
            key.push(fingerprint[0]);
            key.extend_from_slice(&fingerprint[2..]);
            let row = match self.memo.get(&key) {
                Some(&row) => row,
                None => {
                    let row = self.slots.len();
                    self.slots.resize(row + (1 << k), None);
                    self.memo.insert(key.clone(), row);
                    row
                }
            };
            let slot = &mut self.slots[row + fingerprint[1] as usize];
            self.memo_entries += usize::from(slot.is_none());
            *slot = Some(record.verdict);
        }
    }
}

/// Materialises the restriction protocol a fingerprint encodes.  The
/// concrete slices run on this protocol and the symbolic stages on its flat
/// view ([`decode_flat`]), which makes the memoized verdict a function of
/// the fingerprint *by construction*.
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

/// Writes the restriction a fingerprint encodes into `flat`: the ω-initial
/// row (input state 0, no leaders), the outputs and the non-silent
/// transitions in pair order — the view [`FlatProtocol::load`] writes for
/// [`fingerprint_protocol`]'s protocol.
fn decode_flat(bytes: &[u8], flat: &mut FlatProtocol) {
    let k = bytes[0] as usize;
    flat.root.clear();
    flat.root.resize(k, 0);
    flat.root[0] = OMEGA;
    flat.leaders = 0;
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

        // Kill/resume stays bit-identical under the cap: segment-local tables
        // ride in the checkpoint, so insertion decisions replay
        // deterministically.
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
            assert!(checkpoint
                .segments
                .iter()
                .all(|e| e.local_memo.entries <= 5));
            search = SegmentedSearch::from_checkpoint(&checkpoint);
        }
        let result = search.result();
        assert!(result.finished);
        assert_eq!(result, expected, "capped kill/resume diverged");
    }

    /// Checks the per-structure key against the reference over `[0, end)`:
    /// it must be byte for byte the reference key of every candidate, and
    /// the row memo must hold exactly the records a table keyed by the
    /// reference would — the same fingerprints with the same verdicts — and
    /// answer the same hits.  This is what keeps checkpoints readable across
    /// the two key paths.
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
        let mut records: Vec<MemoRecord> = table
            .into_iter()
            .map(|(fingerprint, verdict)| MemoRecord {
                fingerprint,
                verdict,
            })
            .collect();
        records.sort_by(|a, b| a.fingerprint.cmp(&b.fingerprint));
        assert_eq!(pipeline.memo_records(), records, "{num_states} states");
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
    fn restore_round_trips_the_row_memo_and_rejects_foreign_records() {
        let (pipeline, stats) = drain(3, 4_000, config(6));
        let records = pipeline.memo_records();
        let mut restored = CandidatePipeline::new(3, config(6));
        restored.restore(
            stats,
            pipeline.best(),
            pipeline.confirmed().to_vec(),
            &records,
        );
        assert_eq!(restored.memo_records(), records);
        assert_eq!(restored.memo_entries, records.len());

        // An output byte outside its row, a record longer than its state
        // count and a state count beyond the space would each land in
        // another structure's row or outside the table.
        let mut wide = records[0].clone();
        wide.fingerprint[1] = 1 << wide.fingerprint[0];
        let mut long = records[0].clone();
        long.fingerprint.push(0);
        let mut large = records[0].clone();
        large.fingerprint[0] = 4;
        for bad in [wide, long, large] {
            let outcome = std::panic::catch_unwind(|| {
                let mut p = CandidatePipeline::new(3, config(6));
                p.restore(PipelineStats::default(), None, Vec::new(), &[bad]);
            });
            assert!(outcome.is_err(), "a foreign record was restored");
        }
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
        // The symbolic stages read the fingerprint's flat view instead of
        // the protocol `fingerprint_protocol` builds: both must describe
        // the same candidate.
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
    fn packed_memo_round_trips_and_shrinks_real_tables() {
        // A real table: stream a chunk of the 3-state space and pack the
        // pipeline's sorted memo records.
        let records = drain(3, 4_000, config(6)).0.memo_records();
        assert!(records.len() > 100, "table too small to exercise packing");
        let packed = PackedMemo::pack(&records);
        assert_eq!(packed.unpack().expect("packed memo decodes"), records);
        let packed_json = serde_json::to_string(&packed).unwrap();
        let raw_json = serde_json::to_string(&records).unwrap();
        assert!(
            packed_json.len() * 4 < raw_json.len(),
            "packing must shrink the serialised table at least 4x \
             ({} vs {} bytes)",
            packed_json.len(),
            raw_json.len()
        );

        // Adversarial records: every verdict shape, unsorted order (legal,
        // just compresses worse), empty and extreme fingerprints.
        let awkward = vec![
            MemoRecord {
                fingerprint: vec![7; 40],
                verdict: MemoVerdict::Profiled {
                    verified: Some(u64::MAX),
                    truncated: true,
                },
            },
            MemoRecord {
                fingerprint: Vec::new(),
                verdict: MemoVerdict::RejectedEta,
            },
            MemoRecord {
                fingerprint: vec![0],
                verdict: MemoVerdict::Profiled {
                    verified: None,
                    truncated: true,
                },
            },
            MemoRecord {
                fingerprint: vec![0, 255, 128],
                verdict: MemoVerdict::Profiled {
                    verified: Some(0),
                    truncated: false,
                },
            },
            MemoRecord {
                fingerprint: vec![0, 255, 128],
                verdict: MemoVerdict::RejectedSymbolic,
            },
            MemoRecord {
                fingerprint: vec![0, 255],
                verdict: MemoVerdict::Profiled {
                    verified: None,
                    truncated: false,
                },
            },
        ];
        let packed = PackedMemo::pack(&awkward);
        assert_eq!(packed.unpack().expect("awkward records decode"), awkward);
        assert_eq!(PackedMemo::pack(&[]).unpack().unwrap(), Vec::new());

        // Corruption is detected, not silently misread.
        let mut broken = PackedMemo::pack(&awkward);
        broken.stream.truncate(broken.stream.len() - 2);
        assert!(broken.unpack().is_err());
        let mut odd = PackedMemo::pack(&awkward);
        odd.stream.pop();
        assert!(odd.unpack().is_err());
        let garbage = PackedMemo {
            entries: 1,
            stream: "zz".to_owned(),
        };
        assert!(garbage.unpack().is_err());
        // A corrupt count must not size an allocation.
        let huge = PackedMemo {
            entries: 1 << 40,
            stream: String::new(),
        };
        assert!(huge.unpack().is_err());
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
