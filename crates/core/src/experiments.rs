//! The experiment drivers E1–E10 behind EXPERIMENTS.md, plus the E12
//! `BB_det(4)` prefix search.
//!
//! The paper has no tables or figures (it is a theory paper); each experiment
//! instead makes one of its quantitative claims executable.  Every driver
//! returns a serialisable report and is exercised both by the integration
//! tests (small parameters) and by the `state_complexity_report` example,
//! which prints every report.

use crate::ackermann_bound::{theorem_4_5_bound, AckermannBound};
use crate::busy_beaver::{lower_bound_witnesses, BusyBeaverRecord};
use crate::candidate_pipeline::{PipelineConfig, PipelineStats, ReachEngine};
use crate::certificate::{search_pumping_certificate, PumpingCertificate};
use crate::concentration::{find_zero_concentrated_multiset, ConcentrationReport};
use crate::constants::small_basis_constant;
use crate::enumeration::{busy_beaver_search, EnumerationResult};
use crate::orbit_stream::{SegmentOrder, U128Parts};
use crate::pipeline::{analyze_leaderless_protocol, LeaderlessAnalysis, PipelineOptions};
use crate::saturation::{analyze_saturation, SaturationAnalysis};
use crate::segmented::{SegmentationConfig, SegmentedSearch};
use popproto_model::{Input, Output, Protocol};
use popproto_numerics::Magnitude;
use popproto_reach::{extract_stable_basis, unary_threshold_profile, ExploreLimits};
use popproto_sim::{run_experiment, EngineKind, SimulationExperiment};
use popproto_symbolic::{SymbolicLimits, SymbolicVerifier, ThresholdVerdict};
use popproto_vas::{longest_bad_sequence, ControlledSearch, HilbertOptions, RealisabilitySystem};
use popproto_zoo::{approximate_majority, binary_counter, catalog, flock, modulo};
use serde::{Deserialize, Serialize};

/// E1 — busy beaver witness families (Theorem 2.2 / Example 2.1).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct E1Report {
    /// The witness records (states, threshold, verification status).
    pub records: Vec<BusyBeaverRecord>,
}

/// Runs E1 with the given family caps.
pub fn experiment_e1(
    max_flock_eta: u64,
    max_counter_k: u64,
    max_leader_k: u64,
    verify_up_to_eta: u64,
) -> E1Report {
    E1Report {
        records: lower_bound_witnesses(
            max_flock_eta,
            max_counter_k,
            max_leader_k,
            verify_up_to_eta,
            &ExploreLimits::default(),
        ),
    }
}

/// One row of the E2 report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct E2Row {
    /// Protocol analysed.
    pub protocol: String,
    /// Output class of the stable set analysed.
    pub output: Output,
    /// Empirical norm of the extracted basis.
    pub empirical_norm: u64,
    /// Number of basis elements extracted.
    pub elements: usize,
    /// Whether all stability spot-checks passed.
    pub verified: bool,
    /// The paper's bound β for this protocol's state count (as a magnitude).
    pub beta: Magnitude,
}

/// E2 — small bases of stable sets (Lemma 3.2): empirical norm vs β.
///
/// The truncation threshold 2 is enough for the zoo protocols' rejecting
/// stable sets (whose per-state counts are bounded by the threshold minus
/// one) while still producing ω-states for the states that genuinely grow.
pub fn experiment_e2(protocols: &[Protocol], slice_size: u64) -> Vec<E2Row> {
    let limits = ExploreLimits::default();
    let mut rows = Vec::new();
    for p in protocols {
        for output in [Output::False, Output::True] {
            let basis = extract_stable_basis(p, output, slice_size, 2, &limits);
            rows.push(E2Row {
                protocol: p.name().to_string(),
                output,
                empirical_norm: basis.max_norm(),
                elements: basis.elements.len(),
                verified: basis.verified,
                beta: small_basis_constant(p.num_states()),
            });
        }
    }
    rows
}

/// One row of the E3 report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct E3Row {
    /// Protocol analysed.
    pub protocol: String,
    /// The true threshold the protocol computes.
    pub true_eta: u64,
    /// The pumping certificate found (Lemma 4.1 search).
    pub certificate: Option<PumpingCertificate>,
    /// The Theorem 4.5 ingredients for this protocol.
    pub ackermann_bound: AckermannBound,
}

/// E3 — Lemma 4.1/4.2 pumping certificates and the Theorem 4.5 bound.
pub fn experiment_e3(instances: &[(Protocol, u64)], max_input: u64) -> Vec<E3Row> {
    let limits = ExploreLimits::default();
    instances
        .iter()
        .map(|(p, eta)| E3Row {
            protocol: p.name().to_string(),
            true_eta: *eta,
            certificate: search_pumping_certificate(p, max_input, &limits),
            ackermann_bound: theorem_4_5_bound(p),
        })
        .collect()
}

/// One row of the E4 report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct E4Row {
    /// Protocol analysed.
    pub protocol: String,
    /// The saturation analysis (empirical input vs `3^n`).
    pub analysis: SaturationAnalysis,
}

/// E4 — reaching 1-saturated configurations (Lemma 5.4) vs the `3^n` bound.
pub fn experiment_e4(protocols: &[Protocol], max_input: u64) -> Vec<E4Row> {
    let limits = ExploreLimits::default();
    protocols
        .iter()
        .map(|p| E4Row {
            protocol: p.name().to_string(),
            analysis: analyze_saturation(p, max_input, &limits),
        })
        .collect()
}

/// One row of the E5 / E9 reports.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct E5Row {
    /// Protocol analysed.
    pub protocol: String,
    /// Number of transitions.
    pub transitions: usize,
    /// Whether the Hilbert-basis computation completed.
    pub complete: bool,
    /// Number of generators found.
    pub basis_size: usize,
    /// Largest 1-norm over the generators.
    pub max_norm: u64,
    /// The Pottier bound ξ/2.
    pub pottier_half_bound: u64,
    /// The Pottier constant for deterministic protocols (Remark 1), if applicable.
    pub deterministic_bound: Option<u64>,
}

/// E5/E9 — Hilbert bases of potentially realisable multisets vs Pottier's bound.
pub fn experiment_e5(protocols: &[Protocol]) -> Vec<E5Row> {
    let options = HilbertOptions::default();
    protocols
        .iter()
        .map(|p| {
            let system = RealisabilitySystem::new(p);
            let basis = system.basis(&options);
            E5Row {
                protocol: p.name().to_string(),
                transitions: p.num_transitions(),
                complete: basis.complete,
                basis_size: basis.len(),
                max_norm: basis.max_norm1(),
                pottier_half_bound: system.pottier_bound_u64(),
                deterministic_bound: if p.is_deterministic() {
                    popproto_vas::pottier_constant_deterministic(p)
                        .to_u64()
                        .map(|v| v / 2)
                } else {
                    None
                },
            }
        })
        .collect()
}

/// One row of the E6 report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct E6Row {
    /// The true threshold of the analysed protocol.
    pub true_eta: u64,
    /// The full pipeline analysis.
    pub analysis: LeaderlessAnalysis,
}

/// E6 — the Section 5 pipeline (Lemma 5.2 + Theorem 5.9) on leaderless protocols.
pub fn experiment_e6(instances: &[(Protocol, u64)], options: &PipelineOptions) -> Vec<E6Row> {
    instances
        .iter()
        .map(|(p, eta)| E6Row {
            true_eta: *eta,
            analysis: analyze_leaderless_protocol(p, options),
        })
        .collect()
}

/// E7 — exact busy-beaver search for tiny state counts.
pub fn experiment_e7(
    max_states: usize,
    max_input: u64,
    max_protocols: u64,
) -> Vec<EnumerationResult> {
    let limits = ExploreLimits::default();
    (1..=max_states)
        .map(|n| busy_beaver_search(n, max_input, max_protocols, &limits))
        .collect()
}

/// One row of the E8 report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct E8Row {
    /// Protocol simulated.
    pub protocol: String,
    /// Number of agents.
    pub population: u64,
    /// Number of runs.
    pub runs: usize,
    /// How many runs converged.
    pub converged: usize,
    /// Mean parallel time to convergence.
    pub mean_parallel_time: f64,
}

/// E8 — expected parallel convergence time of the zoo families (simulation),
/// on the exact sequential engine.
pub fn experiment_e8(populations: &[u64], runs: u64, max_interactions: u64) -> Vec<E8Row> {
    experiment_e8_with_engine(populations, runs, max_interactions, EngineKind::Sequential)
}

/// E8 with an explicit engine choice.  [`EngineKind::Batched`] makes
/// populations of 10⁶–10⁹ agents tractable (the sequential engine must
/// simulate every single interaction, the batched one processes Θ(√n)
/// interactions per O(|Q|²) batch).
pub fn experiment_e8_with_engine(
    populations: &[u64],
    runs: u64,
    max_interactions: u64,
    engine: EngineKind,
) -> Vec<E8Row> {
    let mut rows = Vec::new();
    for &n in populations {
        for protocol in [flock(4), binary_counter(3), modulo(3, 1)] {
            let exp = SimulationExperiment::new(
                protocol.clone(),
                Input::unary(n),
                runs,
                max_interactions,
            )
            .with_engine(engine);
            let result = run_experiment(&exp);
            rows.push(E8Row {
                protocol: protocol.name().to_string(),
                population: n,
                runs: result.stats.runs,
                converged: result.stats.converged_runs,
                mean_parallel_time: result.stats.parallel_time.mean,
            });
        }
    }
    rows
}

/// E8 at scale — the batched engine at populations up to 10⁸ agents
/// (closing the ROADMAP item "E8 at n ∈ {10⁶, 10⁸} with the batched engine
/// in the experiment reports").
///
/// Only protocols whose parallel convergence time is sublinear in `n` are
/// meaningful at these populations: the threshold families of the
/// small-scale E8 stabilise only after Θ(n) parallel time (the last few
/// tokens need Θ(n²) interactions to meet), which no engine can shortcut.
/// Approximate majority converges in O(log n) parallel time, so the batched
/// engine drives it to silence in seconds even at 10⁸ agents; the input is
/// split 2:1 between the two opinions.
pub fn experiment_e8_large(populations: &[u64], runs: u64) -> Vec<E8Row> {
    let mut rows = Vec::new();
    for &n in populations {
        let protocol = approximate_majority();
        let input = Input::from_counts(vec![2 * n / 3, n - 2 * n / 3]);
        let exp = SimulationExperiment::new(protocol.clone(), input, runs, u64::MAX)
            .with_engine(EngineKind::Batched);
        let result = run_experiment(&exp);
        rows.push(E8Row {
            protocol: protocol.name().to_string(),
            population: n,
            runs: result.stats.runs,
            converged: result.stats.converged_runs,
            mean_parallel_time: result.stats.parallel_time.mean,
        });
    }
    rows
}

/// One row of the E11 report: the symbolic all-`n` verdict of a zoo
/// threshold protocol, cross-checked against the enumerative per-slice
/// verdicts.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SymbolicRow {
    /// Protocol analysed.
    pub protocol: String,
    /// The threshold the protocol is supposed to compute.
    pub eta: u64,
    /// The all-`n` verdict of the [`SymbolicVerifier`].
    pub verdict: ThresholdVerdict,
    /// Number of Karp–Miller labels generated for the ω-cover.
    pub cover_labels: usize,
    /// Ideals in the canonical cover representation.
    pub cover_ideals: usize,
    /// Size of the backward-coverability basis behind `SC_1` (0 if the
    /// stable set was unavailable).
    pub sc1_basis: usize,
    /// Ideals in the symbolic `SC_1` representation.
    pub sc1_ideals: usize,
    /// Rounds of the silencing certificate, if one was found.
    pub silencing_rounds: Option<usize>,
    /// Whether the symbolic verdict agrees with the enumerative per-slice
    /// verdicts up to [`SymbolicRow::enumerative_checked_up_to`]; `None`
    /// when the verdict was inconclusive and there was nothing to
    /// cross-check against.
    pub matches_enumerative: Option<bool>,
    /// Largest input whose slice was enumeratively cross-checked.
    pub enumerative_checked_up_to: u64,
}

/// E11 — symbolic vs enumerative verification on the zoo threshold
/// protocols: an all-`n` verdict per protocol, cross-checked slice by slice
/// up to `max_slice_input`.
pub fn experiment_symbolic(max_slice_input: u64) -> Vec<SymbolicRow> {
    let limits = SymbolicLimits::default();
    let explore = ExploreLimits::default();
    let mut rows = Vec::new();
    for instance in catalog() {
        let Some(eta) = instance.predicate.as_unary_threshold() else {
            continue; // majority/modulo are not threshold predicates
        };
        let p = &instance.protocol;
        let verifier = SymbolicVerifier::analyze(p, &limits);
        let verdict = verifier.certify_threshold(eta);
        let profile = unary_threshold_profile(p, max_slice_input, &explore);
        // Compare the profiled slices against the η pattern directly rather
        // than through `supports`: the profiler short-circuits (conclusive =
        // false) as soon as no threshold *in its own window* remains
        // feasible, which happens legitimately when η ≥ max_slice_input and
        // every slice rejects — the slices still agree with η.
        let consistent = profile
            .inputs
            .iter()
            .all(|p| p.exhaustive && if p.input >= eta { p.accepts } else { p.rejects });
        let matches_enumerative = match &verdict {
            ThresholdVerdict::CertifiedAllN { .. } => Some(consistent),
            ThresholdVerdict::Refuted {
                failing_input: Some(i),
                ..
            } if *i <= max_slice_input => Some(!consistent),
            // All-thresholds refutations speak about arbitrarily large
            // inputs; bounded slices cannot cross-check them.
            ThresholdVerdict::Refuted { .. } | ThresholdVerdict::Inconclusive { .. } => None,
        };
        let (sc1_basis, sc1_ideals) = verifier
            .stable_set(Output::True)
            .map(|s| (s.basis_size, s.set.len()))
            .unwrap_or((0, 0));
        rows.push(SymbolicRow {
            protocol: p.name().to_string(),
            eta,
            verdict,
            cover_labels: verifier.cover().labels,
            cover_ideals: verifier.cover().set.len(),
            sc1_basis,
            sc1_ideals,
            silencing_rounds: verifier.silencing_certificate().map(|c| c.num_rounds()),
            matches_enumerative,
            enumerative_checked_up_to: profile.inputs.last().map(|p| p.input).unwrap_or(1),
        });
    }
    rows
}

/// Builds the pipeline configuration E12 runs with: η floor 3, frontier
/// exploration engine, memoization on.
pub fn e12_pipeline_config(max_input: u64) -> PipelineConfig {
    let mut config = PipelineConfig::exact(max_input, &ExploreLimits::default());
    config.eta_floor = 3;
    config.engine = ReachEngine::Frontier;
    config
}

/// The E12 report: a staged, resumable prefix of the `BB_det(4)` search.
///
/// The 4-state space has ~10¹⁰ relabelling orbits — it can only be searched
/// in checkpointed sessions.  E12 streams canonical orbits through the full
/// triage pipeline (symbolic pre-filter → η-floor filter → concrete slices
/// on the frontier engine) as deterministic segments over the
/// [worker pool](popproto_exec), with a shared cross-segment
/// transposition table and an ordered segment merge, and reports the
/// per-stage rejection funnel of the merged prefix.  `best_eta` is exact
/// *for that prefix* whenever no orbit was truncated; the η floor of 3 is
/// sound because `BB_det(4) ≥ BB_det(3) = 3` (monotonicity: pad a 3-state
/// witness with an isolated state).
///
/// Everything here except [`PipelineStats::memo_hits_cross`] is
/// bit-identical for every worker count (the property suite pins it); the
/// `order` field records which [`SegmentOrder`] chose the prefix — an
/// `"entropy"` prefix contains *different* (non-degenerate-first) orbits
/// than an `"index"` prefix of the same budget, which is the point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct E12SegmentedReport {
    /// State count of the candidate space (4).
    pub num_states: usize,
    /// Verification horizon for the concrete slices.
    pub max_input: u64,
    /// The η floor the pipeline pruned against.
    pub eta_floor: u64,
    /// Canonical orbits requested (the merge cut).
    pub orbit_budget: u64,
    /// Workers the run used (diagnostic — results do not depend on it).
    pub workers: u64,
    /// Candidate encodings per segment.
    pub segment_size: u64,
    /// `"index"` or `"entropy"` — the segment visit order.
    pub order: String,
    /// Segments in the merged prefix.
    pub segments_merged: u64,
    /// The merged per-stage funnel counters of the prefix.
    pub stats: PipelineStats,
    /// Best threshold confirmed within the merged prefix.
    pub best_eta: Option<u64>,
    /// Encoding indices of every confirmed threshold protocol in the
    /// prefix, sorted — the witness set.
    pub confirmed: Vec<U128Parts>,
    /// Entries in the shared cross-segment transposition table.
    pub shared_memo_entries: u64,
    /// Candidate encodings consumed by the merged prefix.
    pub candidates_consumed: u64,
    /// Canonical orbits in the merged prefix (≥ the budget unless the plan
    /// ran out).
    pub prefix_orbits: u64,
    /// `true` if the whole segment plan was merged.
    pub finished: bool,
}

/// The segmentation E12 runs with: 16Ki-candidate segments (≈ 5.4k canonical
/// orbits each — fine-grained enough for the pool to balance) over the first
/// 2²⁸ encodings of the 4-state space (16384 segments — far deeper than any
/// realistic orbit budget) in the given visit order.
pub fn e12_segmentation(order: SegmentOrder) -> SegmentationConfig {
    SegmentationConfig {
        segment_size: 1 << 14,
        range_end: Some(U128Parts::from(1u128 << 28)),
        order,
    }
}

/// Builds the E12 search (η floor 3, frontier engine, shared memo) without
/// running it — the multi-session entry point: drive growing budgets
/// through [`SegmentedSearch::run`], persist
/// [`SegmentedSearch::checkpoint`] between sessions, and continue with
/// [`SegmentedSearch::from_checkpoint`].
pub fn e12_segmented_search(max_input: u64, order: SegmentOrder) -> SegmentedSearch {
    SegmentedSearch::new(4, e12_pipeline_config(max_input), e12_segmentation(order))
}

/// Assembles the E12 report from a (possibly resumed) segmented search.
pub fn e12_segmented_report_from(
    search: &SegmentedSearch,
    orbit_budget: u64,
    workers: usize,
) -> E12SegmentedReport {
    let result = search.result();
    E12SegmentedReport {
        num_states: result.num_states,
        max_input: search.config().max_input,
        eta_floor: search.config().eta_floor,
        orbit_budget,
        workers: workers as u64,
        segment_size: search.segmentation().segment_size,
        order: match search.segmentation_order() {
            SegmentOrder::Index => "index".to_string(),
            SegmentOrder::EntropyDescending => "entropy".to_string(),
        },
        segments_merged: result.segments_merged as u64,
        best_eta: result.best.map(|b| b.eta),
        confirmed: result.confirmed.iter().map(|&c| c.into()).collect(),
        shared_memo_entries: search.shared_memo_len() as u64,
        candidates_consumed: u64::try_from(result.candidates_consumed).unwrap_or(u64::MAX),
        prefix_orbits: result.prefix_orbits,
        finished: result.finished,
        stats: result.stats,
    }
}

/// E12 — streams the `BB_det(4)` prefix through the staged pipeline as
/// pool-scheduled segments until the ordered merge holds at least
/// `orbit_budget` canonical orbits (the cut is segment-aligned).
pub fn experiment_e12_segmented(
    orbit_budget: u64,
    max_input: u64,
    workers: usize,
    order: SegmentOrder,
) -> E12SegmentedReport {
    let mut search = e12_segmented_search(max_input, order);
    search.run(workers, orbit_budget);
    e12_segmented_report_from(&search, orbit_budget, workers)
}

/// One row of the E10 report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct E10Row {
    /// Dimension of the vectors.
    pub dimension: usize,
    /// Control offset δ.
    pub delta: u64,
    /// Length of the longest controlled bad sequence found.
    pub length: usize,
    /// Whether the search was exhaustive.
    pub exact: bool,
}

/// E10 — lengths of controlled bad sequences (Lemma 4.4) in small dimension.
pub fn experiment_e10(max_dimension: usize, max_delta: u64, node_budget: u64) -> Vec<E10Row> {
    let mut rows = Vec::new();
    for dim in 1..=max_dimension {
        for delta in 0..=max_delta {
            let mut search = ControlledSearch::new(dim, delta);
            search.node_budget = node_budget;
            let result = longest_bad_sequence(&search);
            rows.push(E10Row {
                dimension: dim,
                delta,
                length: result.len(),
                exact: result.exact,
            });
        }
    }
    rows
}

/// E6 companion: the Lemma 5.8 concentration search on its own (also used by E5).
pub fn experiment_concentration(protocol: &Protocol) -> ConcentrationReport {
    let accepting = protocol.states_with_output(Output::True);
    find_zero_concentrated_multiset(protocol, &accepting, &HilbertOptions::default())
}

/// A convenience bundle used by the `state_complexity_report` example: runs
/// every experiment at small scale.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FullReport {
    /// E1 — witness families.
    pub e1: E1Report,
    /// E2 — stable-set bases.
    pub e2: Vec<E2Row>,
    /// E3 — pumping certificates.
    pub e3: Vec<E3Row>,
    /// E4 — saturation.
    pub e4: Vec<E4Row>,
    /// E5 — Pottier bases.
    pub e5: Vec<E5Row>,
    /// E6 — leaderless pipeline.
    pub e6: Vec<E6Row>,
    /// E7 — exact enumeration.
    pub e7: Vec<EnumerationResult>,
    /// E8 — simulation runtimes.
    pub e8: Vec<E8Row>,
    /// E8 at scale — batched engine at large populations.
    pub e8_large: Vec<E8Row>,
    /// E10 — controlled bad sequences.
    pub e10: Vec<E10Row>,
    /// E11 — symbolic all-`n` verdicts vs enumerative slices.
    pub symbolic: Vec<SymbolicRow>,
    /// E12 — the `BB_det(4)` prefix funnel on the worker pool, with
    /// an entropy-guided segment order.
    pub e12: E12SegmentedReport,
}

/// Runs every experiment at a small, test-friendly scale.
pub fn run_all_small() -> FullReport {
    let small: Vec<Protocol> = vec![flock(3), binary_counter(2)];
    let with_eta: Vec<(Protocol, u64)> = vec![(flock(3), 3), (binary_counter(2), 4)];
    FullReport {
        e1: experiment_e1(4, 3, 2, 8),
        e2: experiment_e2(&small, 4),
        e3: experiment_e3(&with_eta, 10),
        e4: experiment_e4(&small, 20),
        e5: experiment_e5(&small),
        e6: experiment_e6(&with_eta, &PipelineOptions::default()),
        e7: experiment_e7(2, 6, 5_000),
        e8: experiment_e8(&[16, 32], 3, 200_000),
        e8_large: experiment_e8_large(&[100_000], 2),
        e10: experiment_e10(2, 2, 200_000),
        symbolic: experiment_symbolic(8),
        e12: experiment_e12_segmented(500, 6, 2, SegmentOrder::EntropyDescending),
    }
}

/// Like [`run_all_small`] but with the E8 large-population rows at their
/// headline scale, n ∈ {10⁶, 10⁸} (used by the report example; takes a few
/// seconds of wall clock on the batched engine).
pub fn run_all_with_large_e8() -> FullReport {
    let mut report = run_all_small();
    report.e8_large = experiment_e8_large(&[1_000_000, 100_000_000], 2);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate_pipeline::CandidatePipeline;
    use crate::orbit_stream::{OrbitSpace, OrbitStream};
    use crate::segmented::SegmentedCheckpoint;

    #[test]
    fn e1_small() {
        let report = experiment_e1(3, 2, 1, 8);
        assert_eq!(report.records.len(), 2 + 2 + 1);
        assert!(report.records.iter().all(|r| r.verified != Some(false)));
    }

    #[test]
    fn e2_norms_are_tiny_compared_to_beta() {
        let rows = experiment_e2(&[flock(3)], 4);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert!(Magnitude::from_u64(row.empirical_norm.max(1)) < row.beta);
        }
    }

    #[test]
    fn e5_respects_pottier() {
        let rows = experiment_e5(&[flock(3), binary_counter(2)]);
        for row in &rows {
            assert!(row.complete);
            assert!(row.max_norm <= row.pottier_half_bound);
        }
    }

    #[test]
    fn e10_lengths_grow_with_dimension() {
        let rows = experiment_e10(2, 2, 500_000);
        let len = |dim: usize, delta: u64| {
            rows.iter()
                .find(|r| r.dimension == dim && r.delta == delta)
                .unwrap()
                .length
        };
        assert_eq!(len(1, 2), 3);
        assert!(len(2, 2) > len(1, 2));
    }

    #[test]
    fn symbolic_experiment_certifies_the_threshold_zoo() {
        let rows = experiment_symbolic(8);
        // flock(3), flock(5), binary_counter(2), binary_counter(3),
        // leader_counter(2) are the threshold instances of the catalog.
        assert_eq!(rows.len(), 5);
        for row in &rows {
            assert!(
                row.verdict.is_certified(),
                "{} (η = {}): {:?}",
                row.protocol,
                row.eta,
                row.verdict
            );
            assert_eq!(
                row.matches_enumerative,
                Some(true),
                "{} disagrees",
                row.protocol
            );
            assert!(row.silencing_rounds.is_some());
            assert!(row.sc1_ideals >= 1);
        }
    }

    #[test]
    fn e12_prefix_streams_the_requested_budget() {
        let report = experiment_e12_segmented(1_500, 6, 2, SegmentOrder::Index);
        assert_eq!(report.num_states, 4);
        assert_eq!(report.eta_floor, 3);
        // The budget cut is segment-aligned: at least the budget, in whole
        // segments.
        assert!(report.prefix_orbits >= 1_500);
        assert_eq!(report.stats.canonical_orbits, report.prefix_orbits);
        assert_eq!(
            report.candidates_consumed,
            report.segments_merged * report.segment_size
        );
        assert!(!report.finished);
        // The funnel accounts for every canonical orbit.
        let s = &report.stats;
        assert_eq!(
            s.pruned_symbolic + s.pruned_eta_bounded + s.profiled,
            s.canonical_orbits
        );
        assert!(
            s.memo_hits > 0,
            "the early 4-state space must share restrictions"
        );
        assert_eq!(s.truncated_orbits, 0);
        // The exact funnel of this prefix: a changed pre-filter verdict
        // anywhere in it moves these counts.
        assert_eq!(s.pruned_symbolic, 6_034);
        assert_eq!(s.pruned_eta_bounded, 1_402);
        assert_eq!(s.profiled, 0);
        assert_eq!(s.threshold_protocols, 0);
    }

    #[test]
    fn e12_checkpoint_resume_reproduces_the_stats() {
        let straight = experiment_e12_segmented(9_000, 6, 1, SegmentOrder::Index);
        // Same budget, split across three sessions through serialised
        // checkpoints; two workers leave segments in flight at each kill.
        let mut search = e12_segmented_search(6, SegmentOrder::Index);
        for budget in [1_000, 6_000, 9_000] {
            search.run(2, budget);
            let json = serde_json::to_string(&search.checkpoint()).unwrap();
            let cp: SegmentedCheckpoint = serde_json::from_str(&json).unwrap();
            search = SegmentedSearch::from_checkpoint(&cp);
        }
        let resumed = e12_segmented_report_from(&search, 9_000, 2);
        let mut stats = resumed.stats.clone();
        let mut expected = straight.stats.clone();
        stats.memo_hits_cross = 0;
        expected.memo_hits_cross = 0;
        assert_eq!(stats, expected, "stats must be bit-identical");
        assert_eq!(resumed.best_eta, straight.best_eta);
        assert_eq!(resumed.confirmed, straight.confirmed);
        assert_eq!(resumed.candidates_consumed, straight.candidates_consumed);
    }

    #[test]
    fn e12_segmented_matches_the_sequential_stream_on_the_same_range() {
        // The segmented search must reproduce the sequential stream — one
        // pipeline over one range scan — bit for bit on the candidate range
        // of its merged prefix (the acceptance gate of the parallel
        // rebuild, at test scale).
        let segmented = experiment_e12_segmented(800, 6, 2, SegmentOrder::Index);
        assert!(segmented.prefix_orbits >= 800);
        let space = OrbitSpace::new(4);
        let mut reference = CandidatePipeline::new(4, e12_pipeline_config(6));
        let mut stream = OrbitStream::range(&space, 0, segmented.candidates_consumed.into());
        while let Some(k) = stream.next_canonical() {
            let outputs = (k % space.output_patterns()) as u32;
            reference.offer(&space, k, stream.current_assignment(), outputs);
        }
        let mut ref_stats = reference.stats().clone();
        ref_stats.pruned_symmetric = stream.pruned_symmetric();
        // The memo hits split differently between segment-local and shared
        // tables; every other counter is a function of the range.
        let mut seg_stats = segmented.stats.clone();
        for s in [&mut ref_stats, &mut seg_stats] {
            s.memo_hits = 0;
            s.memo_hits_cross = 0;
        }
        assert_eq!(seg_stats, ref_stats);
        assert_eq!(segmented.best_eta, reference.best().map(|b| b.eta));
        let seg_confirmed: Vec<u128> = segmented.confirmed.iter().map(|c| c.get()).collect();
        assert_eq!(seg_confirmed, reference.confirmed(), "witness sets differ");
    }

    #[test]
    fn e12_entropy_order_profiles_earlier_than_index_order() {
        // The entropy-guided prefix must surface non-degenerate candidates
        // (ones that survive to the concrete-slice stage) at a higher rate
        // than the degenerate-heavy index prefix.
        let budget = 400u64;
        let index = experiment_e12_segmented(budget, 6, 1, SegmentOrder::Index);
        let entropy = experiment_e12_segmented(budget, 6, 1, SegmentOrder::EntropyDescending);
        assert_eq!(entropy.order, "entropy");
        assert!(
            entropy.stats.profiled + entropy.stats.pruned_eta_bounded
                > index.stats.profiled + index.stats.pruned_eta_bounded,
            "entropy prefix ({} survived stage 1) must beat index prefix ({})",
            entropy.stats.profiled + entropy.stats.pruned_eta_bounded,
            index.stats.profiled + index.stats.pruned_eta_bounded,
        );
    }

    #[test]
    fn e8_reports_converged_runs() {
        let rows = experiment_e8(&[12], 2, 200_000);
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert_eq!(row.converged, row.runs, "{} must converge", row.protocol);
            assert!(row.mean_parallel_time > 0.0);
        }
    }

    #[test]
    fn e8_large_converges_on_the_batched_engine() {
        let rows = experiment_e8_large(&[10_000, 50_000], 2);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert_eq!(row.protocol, "approximate_majority");
            assert_eq!(row.converged, row.runs);
            assert!(row.mean_parallel_time > 0.0);
        }
        // Convergence is polylogarithmic: the parallel time grows far slower
        // than the population.
        assert!(rows[1].mean_parallel_time < rows[0].mean_parallel_time * 10.0);
    }

    #[test]
    fn e8_runs_on_the_batched_engine() {
        let rows = experiment_e8_with_engine(&[2_000], 2, u64::MAX, EngineKind::Batched);
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert_eq!(row.converged, row.runs, "{} must converge", row.protocol);
            assert!(row.mean_parallel_time > 0.0);
        }
    }
}
