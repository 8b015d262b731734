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
//! The pipeline runs the two symbolic stages on one [`Prefilter`] it owns:
//! their flat rows are reused from miss to miss, and the Karp–Miller cover
//! both stages intersect with is computed once per transition structure —
//! the η-floor stage reuses the cover of the stage before it, and so does
//! every following miss with the same non-silent transitions.  Verdicts are
//! those of the free functions, whatever the order of the misses.
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
//! re-running the stages.  With
//! [`PipelineConfig::canonical_fingerprints`] the key is additionally
//! quotiented by the restriction's residual relabelling group (the
//! lexicographically smallest encoding over all permutations of the
//! non-input states): equal keys ⟺ relabelling-equivalent restrictions,
//! which share verdicts because every stage is relabelling-invariant — the
//! table answers strictly more hits and still never conflates different
//! verdicts.  In the 4-state space enormous numbers of orbits share a
//! 3-state (or smaller) sub-protocol — exactly the reuse the `BB_det(4)`
//! rung needs.  See `crates/reach/README.md` for the full soundness
//! argument.
//!
//! For multi-core runs, [`SharedMemo`] is the cross-segment variant of the
//! table: a sharded concurrent map probed *after* the pipeline's own local
//! table, so that local hit counts stay deterministic per segment while the
//! shared table recycles verdicts across segments (counted separately as
//! [`PipelineStats::memo_hits_cross`], the one scheduling-dependent
//! counter).
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
use popproto_symbolic::{Prefilter, SymbolicLimits};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Mutex;

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
    /// Enables the cross-candidate transposition table.
    pub memoize: bool,
    /// Maximum number of entries the transposition table may hold.  Once
    /// full, existing entries keep answering hits but no new restriction is
    /// inserted — the table, and with it every checkpoint, stays bounded
    /// regardless of how deep a multi-session search streams.  Insertion
    /// decisions depend only on the table state and the candidate order
    /// (both checkpointed), so kill/resume stays bit-identical under any
    /// cap.
    pub memo_max_entries: usize,
    /// Quotient the transposition-table key by the residual relabelling
    /// group of the coverable-support restriction: the key becomes the
    /// lexicographically smallest encoding over all permutations of the
    /// restriction's non-input states.  Sound because every triage stage is
    /// invariant under state relabellings fixing the input state (the same
    /// argument that lets the generator keep one representative per orbit);
    /// two restrictions get equal keys iff they are relabellings of each
    /// other, so the table answers strictly more hits and still never
    /// collides across genuinely different verdicts.
    pub canonical_fingerprints: bool,
    /// Engine for the concrete-slice stage.
    pub engine: ReachEngine,
}

impl PipelineConfig {
    /// The configuration [`crate::enumeration::busy_beaver_search`] uses:
    /// no η floor, tight symbolic caps, memoization on, CSR slices.
    pub fn exact(max_input: u64, explore: &ExploreLimits) -> Self {
        PipelineConfig {
            max_input,
            eta_floor: 2,
            explore: *explore,
            symbolic: SymbolicLimits::prefilter(),
            memoize: true,
            memo_max_entries: 4_000_000,
            canonical_fingerprints: true,
            engine: ReachEngine::Csr,
        }
    }
}

/// Per-stage counters of a pipeline run.  Every counter except
/// [`PipelineStats::memo_hits_cross`] is a function of the candidate range
/// alone: a segment replays them identically under any worker count,
/// scheduling or kill/resume pattern.  `memo_hits_cross` counts hits against
/// the *shared* transposition table, whose contents depend on which segments
/// other workers happened to finish first — it is reported separately and
/// labelled nondeterministic precisely so nothing downstream is tempted to
/// assert it.
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
    /// Candidates answered from the pipeline's **own** (segment-local)
    /// transposition table.  Deterministic: a pure function of the candidate
    /// range this pipeline processed, independent of workers or scheduling.
    pub memo_hits: u64,
    /// Candidates answered from the **shared** cross-segment transposition
    /// table.  Nondeterministic under parallel execution (it depends on
    /// which segments other workers completed first) — never asserted in
    /// equivalence tests; the verdicts themselves are still deterministic
    /// because every memoized verdict is a pure function of its fingerprint.
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
        self.memo_hits_cross += other.memo_hits_cross;
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
        reg.set_gauge(
            &format!("{prefix}.memo_hits_cross"),
            self.memo_hits_cross as i64,
        );
    }
}

/// A concurrent, sharded transposition table shared across the segments of a
/// parallel search.
///
/// Entries map a restriction fingerprint to its memoized [`MemoVerdict`].
/// Because every verdict is a pure function of the fingerprint (the triage
/// stages run on the protocol the fingerprint *decodes to*), it does not
/// matter which worker inserted an entry first — a racing double-compute
/// produces the identical verdict, so the table never changes any result,
/// only how often stages re-run.  Sharded `Mutex<HashMap>`s are plenty here:
/// probes are two orders of magnitude cheaper than the triage work they
/// save, and the shard count (64) keeps contention negligible at realistic
/// worker counts.
#[derive(Debug)]
pub struct SharedMemo {
    shards: Vec<Mutex<HashMap<Vec<u8>, MemoSlot>>>,
    per_shard_cap: usize,
}

/// A memoized verdict plus how often it has been looked up since it entered
/// this table (checkpoint eviction keys off the hit count: entries that
/// never saved anyone any work are the first to go).
#[derive(Debug, Clone, Copy)]
struct MemoSlot {
    verdict: MemoVerdict,
    hits: u32,
}

impl SharedMemo {
    const SHARDS: usize = 64;

    /// Creates an empty table holding at most `64 · ⌈max_entries / 64⌉`
    /// entries: the cap is enforced per shard (`⌈max_entries / 64⌉` each,
    /// over 64 shards), so it can exceed the requested one by up to 63 — a
    /// cap of 5 admits 64 entries.
    pub fn new(max_entries: usize) -> Self {
        SharedMemo {
            shards: (0..Self::SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            per_shard_cap: max_entries.div_ceil(Self::SHARDS),
        }
    }

    fn shard(&self, fingerprint: &[u8]) -> usize {
        // FNV-1a over the fingerprint bytes; the top bits pick the shard.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in fingerprint {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        (h >> 58) as usize % Self::SHARDS
    }

    /// Looks a fingerprint up, bumping the entry's hit count on success.
    pub fn get(&self, fingerprint: &[u8]) -> Option<MemoVerdict> {
        self.shards[self.shard(fingerprint)]
            .lock()
            .expect("shared memo poisoned")
            .get_mut(fingerprint)
            .map(|slot| {
                slot.hits = slot.hits.saturating_add(1);
                slot.verdict
            })
    }

    /// Inserts a verdict unless the shard is at capacity.  Last-write-wins
    /// races are harmless: all writers hold the same verdict.  Re-inserting
    /// an existing fingerprint keeps its hit count.
    pub fn insert(&self, fingerprint: &[u8], verdict: MemoVerdict) {
        let mut shard = self.shards[self.shard(fingerprint)]
            .lock()
            .expect("shared memo poisoned");
        if let Some(slot) = shard.get_mut(fingerprint) {
            slot.verdict = verdict;
        } else if shard.len() < self.per_shard_cap {
            shard.insert(fingerprint.to_vec(), MemoSlot { verdict, hits: 0 });
        }
    }

    /// Number of entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("shared memo poisoned").len())
            .sum()
    }

    /// Returns `true` if the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serialises the table, sorted by fingerprint so checkpoint bytes are a
    /// deterministic function of the entry set.
    pub fn records(&self) -> Vec<MemoRecord> {
        self.records_with_min_hits(0)
    }

    /// Serialises only the entries looked up at least `min_hits` times since
    /// they entered this table (`0` = everything).  Verdicts are a pure
    /// cache — dropping cold entries can only cost recomputation on resume,
    /// never change a result — so checkpoints can shed the long cold tail
    /// (entries inserted once and never consulted again) while keeping the
    /// hot cross-segment entries that actually amortise triage work.
    pub fn records_with_min_hits(&self, min_hits: u32) -> Vec<MemoRecord> {
        let mut records: Vec<MemoRecord> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.lock()
                    .expect("shared memo poisoned")
                    .iter()
                    .filter(|(_, slot)| slot.hits >= min_hits)
                    .map(|(fingerprint, slot)| MemoRecord {
                        fingerprint: fingerprint.clone(),
                        verdict: slot.verdict,
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        records.sort_by(|a, b| a.fingerprint.cmp(&b.fingerprint));
        records
    }

    /// Seeds the table from checkpointed records.
    pub fn seed(&self, records: &[MemoRecord]) {
        for r in records {
            self.insert(&r.fingerprint, r.verdict);
        }
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
    /// (what [`SharedMemo::records_with_min_hits`] and
    /// [`CandidatePipeline::memo_records`] emit) compresses best.
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
    memo: HashMap<Vec<u8>, MemoVerdict>,
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
    fingerprint: Vec<u8>,
    scratch: Vec<u8>,
    scratch_best: Vec<u8>,
    /// The symbolic stages' working memory, shared by every memo miss.
    prefilter: Prefilter,
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
            stats: PipelineStats::default(),
            best: None,
            confirmed: Vec::new(),
            perms_by_k,
            support: vec![false; num_states],
            fingerprint: Vec::new(),
            scratch: Vec::new(),
            scratch_best: Vec::new(),
            prefilter: Prefilter::default(),
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

    /// Number of distinct restrictions in the transposition table.
    pub fn memo_len(&self) -> usize {
        self.memo.len()
    }

    /// Runs one canonical candidate through the staged funnel.
    ///
    /// `assignment` must be the decoded transition assignment of `index`
    /// (the generator exposes it as
    /// [`OrbitStream::current_assignment`](crate::orbit_stream::OrbitStream::current_assignment))
    /// and `outputs` its output bitmask.
    pub fn offer(&mut self, space: &OrbitSpace, index: u128, assignment: &[usize], outputs: u32) {
        self.offer_impl(space, index, assignment, outputs, None);
    }

    /// [`CandidatePipeline::offer`] probing a cross-segment [`SharedMemo`]
    /// between the local table and the triage stages.
    ///
    /// Probe order: local table (deterministic hit), shared table
    /// (nondeterministic `memo_hits_cross`), full triage.  Computed verdicts
    /// are inserted into both tables; shared hits are copied into the local
    /// table so that repeats *within this pipeline's range* count as local
    /// hits from then on — which keeps `memo_hits` a pure function of the
    /// range even when the shared table raced.
    pub fn offer_shared(
        &mut self,
        space: &OrbitSpace,
        index: u128,
        assignment: &[usize],
        outputs: u32,
        shared: &SharedMemo,
    ) {
        self.offer_impl(space, index, assignment, outputs, Some(shared));
    }

    fn offer_impl(
        &mut self,
        space: &OrbitSpace,
        index: u128,
        assignment: &[usize],
        outputs: u32,
        shared: Option<&SharedMemo>,
    ) {
        self.stats.canonical_orbits += 1;
        encode_fingerprint(
            space,
            assignment,
            outputs,
            &mut self.support,
            &mut self.fingerprint,
        );
        if self.config.canonical_fingerprints {
            let k = self.fingerprint[0] as usize;
            canonicalize_fingerprint(
                &mut self.fingerprint,
                &self.perms_by_k[k],
                &mut self.scratch,
                &mut self.scratch_best,
            );
        }
        if !self.config.memoize {
            let verdict = triage(
                &fingerprint_protocol(&self.fingerprint),
                &self.config,
                &mut self.prefilter,
            );
            self.apply(verdict, index);
            return;
        }
        if let Some(&hit) = self.memo.get(&self.fingerprint) {
            self.stats.memo_hits += 1;
            self.apply(hit, index);
            return;
        }
        if let Some(table) = shared {
            if let Some(hit) = table.get(&self.fingerprint) {
                self.stats.memo_hits_cross += 1;
                self.insert_local(hit);
                self.apply(hit, index);
                return;
            }
        }
        let verdict = triage(
            &fingerprint_protocol(&self.fingerprint),
            &self.config,
            &mut self.prefilter,
        );
        self.insert_local(verdict);
        if let Some(table) = shared {
            table.insert(&self.fingerprint, verdict);
        }
        self.apply(verdict, index);
    }

    fn insert_local(&mut self, verdict: MemoVerdict) {
        if self.memo.len() < self.config.memo_max_entries {
            self.memo.insert(self.fingerprint.clone(), verdict);
        }
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
    /// checkpoint bytes are deterministic.
    pub fn memo_records(&self) -> Vec<MemoRecord> {
        let mut records: Vec<MemoRecord> = self
            .memo
            .iter()
            .map(|(fingerprint, &verdict)| MemoRecord {
                fingerprint: fingerprint.clone(),
                verdict,
            })
            .collect();
        records.sort_by(|a, b| a.fingerprint.cmp(&b.fingerprint));
        records
    }

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
        self.memo = memo
            .iter()
            .map(|r| (r.fingerprint.clone(), r.verdict))
            .collect();
    }
}

/// Rewrites `bytes` (an [`encode_fingerprint`] encoding) into the
/// lexicographically smallest encoding over all relabellings of the
/// restriction's states that fix the input state 0 — the canonical
/// representative of the restriction's relabelling class.
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
pub(crate) fn canonicalize_fingerprint(
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
        if *scratch < *best {
            std::mem::swap(best, scratch);
        }
    }
    std::mem::swap(bytes, best);
}

/// The staged triage of one (restricted) candidate protocol.
fn triage(protocol: &Protocol, config: &PipelineConfig, prefilter: &mut Prefilter) -> MemoVerdict {
    if !prefilter.threshold(protocol, config.max_input, &config.symbolic) {
        return MemoVerdict::RejectedSymbolic;
    }
    if !prefilter.eta_floor(protocol, config.eta_floor, &config.symbolic) {
        return MemoVerdict::RejectedEta;
    }
    let profile = match config.engine {
        ReachEngine::Csr => unary_threshold_profile(protocol, config.max_input, &config.explore),
        ReachEngine::Frontier => {
            frontier_threshold_profile(protocol, config.max_input, &config.explore)
        }
    };
    MemoVerdict::Profiled {
        verified: profile.verified_threshold(),
        truncated: profile.inputs.iter().any(|p| !p.exhaustive),
    }
}

/// Encodes the coverable-support restriction of `(assignment, outputs)` as
/// its exact canonical byte string.
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

/// Materialises the restriction protocol a fingerprint encodes.  The triage
/// stages run on this protocol, which makes the memoized verdict a function
/// of the fingerprint *by construction*.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orbit_stream::OrbitStream;
    use crate::segmented::{SegmentationConfig, SegmentedCheckpoint, SegmentedSearch};

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
    fn memoization_changes_no_verdict() {
        let with = {
            let mut c = config(6);
            c.memoize = true;
            run_space(2, c)
        };
        let without = {
            let mut c = config(6);
            c.memoize = false;
            run_space(2, c)
        };
        assert_eq!(with.1, without.1);
        assert!(
            with.0.memo_hits > 0,
            "the 2-state space must share restrictions"
        );
        let mut a = with.0.clone();
        let mut b = without.0.clone();
        a.memo_hits = 0;
        b.memo_hits = 0;
        assert_eq!(a, b);
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
        let mut expected = straight.result();
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
            // The shared table's cap is per shard: 64 · ⌈5 / 64⌉ = 64.
            assert!(search.shared_memo_len() <= 64);
        }
        let mut result = search.result();
        assert!(result.finished);
        result.stats.memo_hits_cross = 0;
        expected.stats.memo_hits_cross = 0;
        assert_eq!(result, expected, "capped kill/resume diverged");

        // The per-shard cap admits more than the requested 5 entries, but
        // never more than 64.
        let shared = SharedMemo::new(5);
        for i in 0..1_000u32 {
            shared.insert(&i.to_le_bytes(), MemoVerdict::RejectedSymbolic);
        }
        assert!(shared.len() > 5 && shared.len() <= 64, "{}", shared.len());
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
    fn canonical_fingerprints_change_no_verdict() {
        // Same capped 3-state prefix with and without canonicalization:
        // every funnel counter and the best candidate must be identical;
        // canonicalization may only convert computes into hits.
        let run = |canonical: bool| {
            let mut c = config(5);
            c.canonical_fingerprints = canonical;
            let (pipeline, _) = drain(3, 40_000, c);
            (
                pipeline.stats().clone(),
                pipeline.best(),
                pipeline.confirmed().to_vec(),
                pipeline.memo_len(),
            )
        };
        let (with_stats, with_best, with_confirmed, with_entries) = run(true);
        let (without_stats, without_best, without_confirmed, without_entries) = run(false);
        assert_eq!(with_best, without_best);
        assert_eq!(with_confirmed, without_confirmed, "witness sets differ");
        let mut a = with_stats.clone();
        let mut b = without_stats.clone();
        assert!(
            a.memo_hits >= b.memo_hits,
            "the quotient must never lose hits"
        );
        assert!(with_entries <= without_entries);
        a.memo_hits = 0;
        b.memo_hits = 0;
        assert_eq!(a, b, "only memo_hits may differ under the quotient");
        // Note: the delta can legitimately be zero on a canonical-orbit
        // prefix (the generator already emits orbit-minimal *candidates*,
        // which biases restrictions towards their own canonical form); at
        // scale it is positive but small: a historical single run over the
        // first 2^18 candidates of the 4-state space (94,904 canonical
        // orbits) measured the hit rate at 58.34 % without and 58.58 % with
        // canonicalization.
    }

    #[test]
    fn engines_agree_on_the_whole_two_state_space() {
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
