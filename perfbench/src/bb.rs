//! The busy-beaver workloads: `bb4_prefix` and `bb3_exhaustive`.
//!
//! The measured job of `bb4_prefix` is a [`SegmentedSearch`] on a pool sized
//! to the thread budget; that of `bb3_exhaustive` is the sequential stream
//! ([`OrbitStream`] into one [`CandidatePipeline`]) on the calling thread,
//! cross-checked once against a segmented search.  The traced pass replays
//! the same candidates sequentially, timing every call; each
//! memo miss is re-run stage by stage (symbolic pre-filter, η floor,
//! threshold profile, then every profiled slice's exploration and fixpoint)
//! on its coverable-support restriction, so the stage times are measured
//! outside the pipeline, never inside it.

use crate::host::{self, Obj};
use crate::stats::{imbalance, ratio};
use crate::{Checked, Outcome, Run, Scale, Workload};
use popproto::candidate_pipeline::{CandidatePipeline, PipelineConfig, PipelineStats, ReachEngine};
use popproto::experiments::{e12_pipeline_config, e12_segmentation};
use popproto::orbit_stream::{OrbitSpace, OrbitStream, SegmentOrder};
use popproto::segmented::{SegmentationConfig, SegmentedResult, SegmentedSearch};
use popproto_exec::{Pool, PoolStats};
use popproto_model::{Output, Protocol, ProtocolBuilder};
use popproto_reach::{
    frontier_threshold_profile, unary_threshold_profile, ExploreLimits, FrontierGraph,
    ReachabilityGraph, StableSets, ThresholdProfile,
};
use popproto_symbolic::{eta_floor_prefilter, threshold_prefilter};
use std::hint::black_box;
use std::time::Instant;

/// Published values of the exhaustive `BB_det(3)` search at horizon 6.
struct Known {
    best_eta: u64,
    threshold_protocols: u64,
    pruned_symmetric: u64,
    pruned_symbolic: u64,
}

const BB3: Known = Known {
    best_eta: 3,
    threshold_protocols: 46_144,
    pruned_symmetric: 186_336,
    pruned_symbolic: 130_956,
};

/// One busy-beaver workload: the candidate space, the pipeline, the
/// segmentation and the orbit target of the merged prefix.
struct Spec {
    num_states: usize,
    config: PipelineConfig,
    segmentation: SegmentationConfig,
    /// Canonical orbits the merged prefix must hold (`u64::MAX`: the whole
    /// plan).
    target_orbits: u64,
    known: Option<Known>,
    /// Whether the measured job is the sequential stream on the calling
    /// thread rather than the segmented search on a pool.
    sequential: bool,
}

fn spec(run: &Run) -> Spec {
    match run.workload {
        Workload::Bb4Prefix => Spec {
            num_states: 4,
            config: e12_pipeline_config(8),
            segmentation: e12_segmentation(SegmentOrder::Index),
            target_orbits: match run.scale {
                Scale::Full => 1_000_000,
                Scale::Small => 20_000,
            },
            known: None,
            sequential: false,
        },
        // Measured: the whole space through one pipeline on one thread.  A
        // 0.7 s search split into waves of nproc × 8 segments waits at every
        // wave for its slowest thread, so on a shared host its wall time
        // spread across runs past any useful bound; the sequential stream
        // does the same triage without the barriers.  Cross-checked against
        // the body of `busy_beaver_search_with_threads(3, 6, u64::MAX,
        // &ExploreLimits::default(), nproc)`, with the pool sized to the
        // thread budget instead of one worker per segment stream.
        Workload::Bb3Exhaustive => {
            let total = OrbitSpace::new(3).total_candidates();
            let threads = run.host.nproc as u128;
            let segment = if threads <= 1 {
                total
            } else {
                total.div_ceil(threads * 8)
            };
            Spec {
                num_states: 3,
                config: PipelineConfig::exact(6, &ExploreLimits::default()),
                segmentation: SegmentationConfig::index_order(
                    u64::try_from(segment).expect("3-state segments fit in u64"),
                    Some(total),
                ),
                target_orbits: u64::MAX,
                known: Some(BB3),
                sequential: true,
            }
        }
        other => unreachable!("{} is not a busy-beaver workload", other.name()),
    }
}

impl Spec {
    fn search(&self) -> SegmentedSearch {
        SegmentedSearch::new(
            self.num_states,
            self.config.clone(),
            self.segmentation.clone(),
        )
    }

    fn pipeline(&self) -> CandidatePipeline {
        CandidatePipeline::new(self.num_states, self.config.clone())
    }

    /// Whether a segmented search's merged prefix reached its target.
    fn reached(&self, result: &SegmentedResult) -> bool {
        if self.target_orbits == u64::MAX {
            result.finished
        } else {
            result.prefix_orbits >= self.target_orbits
        }
    }
}

/// The scheduling-independent part of a search result: funnel counters
/// (memo hit counts depend on the segmentation and are left out), best η
/// and the witness set.
#[derive(Debug, PartialEq, Eq)]
struct Det {
    stats: PipelineStats,
    best_eta: Option<u64>,
    confirmed: Vec<u128>,
}

impl Det {
    fn new(mut stats: PipelineStats, best_eta: Option<u64>, mut confirmed: Vec<u128>) -> Self {
        stats.memo_hits = 0;
        stats.memo_hits_cross = 0;
        confirmed.sort_unstable();
        Det {
            stats,
            best_eta,
            confirmed,
        }
    }

    fn of_result(result: &SegmentedResult) -> Self {
        Det::new(
            result.stats.clone(),
            result.best.map(|b| b.eta),
            result.confirmed.clone(),
        )
    }

    fn of_pipeline(pipeline: &CandidatePipeline, pruned_symmetric: u64) -> Self {
        let mut stats = pipeline.stats().clone();
        stats.pruned_symmetric = pruned_symmetric;
        Det::new(
            stats,
            pipeline.best().map(|b| b.eta),
            pipeline.confirmed().to_vec(),
        )
    }
}

/// The checks every search result must pass on its own; `reached` says
/// whether the search covered its orbit target.
fn result_checks(spec: &Spec, det: &Det, reached: bool) -> Vec<(bool, &'static str)> {
    let s = &det.stats;
    let mut checks = vec![
        (
            s.pruned_symbolic + s.pruned_eta_bounded + s.profiled == s.canonical_orbits,
            "the funnel accounts for every canonical orbit",
        ),
        (s.truncated_orbits == 0, "no slice exploration truncated"),
        (
            det.confirmed.len() as u64 == s.threshold_protocols,
            "one witness per confirmed protocol",
        ),
        (reached, "the search reaches its orbit target"),
    ];
    if let Some(known) = &spec.known {
        checks.extend([
            (det.best_eta == Some(known.best_eta), "BB_det(3) best eta is 3"),
            (
                s.threshold_protocols == known.threshold_protocols,
                "BB_det(3) threshold_protocols is 46144",
            ),
            (
                s.pruned_symmetric == known.pruned_symmetric,
                "BB_det(3) pruned_symmetric is 186336",
            ),
            (
                s.pruned_symbolic == known.pruned_symbolic,
                "BB_det(3) pruned_symbolic is 130956",
            ),
        ]);
    }
    checks
}

fn pool_detail(stats: &PoolStats) -> Obj {
    let idle_s: Vec<f64> = stats
        .per_worker_idle_ns
        .iter()
        .map(|&ns| ns as f64 / 1e9)
        .collect();
    Obj::new()
        .with("pool_worker_tasks", &stats.per_worker_tasks)
        .with("pool_helped", stats.helped)
        .with("pool_worker_idle_s", idle_s)
}

/// Untraced pass of either workload.
pub fn measure(run: &Run) -> Outcome {
    let spec = spec(run);
    if spec.sequential {
        measure_sequential(run, &spec)
    } else {
        measure_segmented(run, &spec)
    }
}

/// Repeated segmented searches, then one sequential replay of the same
/// candidates as the reference the first repetition must match.
fn measure_segmented(run: &Run, spec: &Spec) -> Outcome {
    let workers = run.host.pool_workers();
    let mut first: Option<(Det, u128)> = None;
    let mut outcome = crate::measure(
        run,
        |_| (Pool::new(workers), spec.search()),
        |(pool, search)| {
            search.run_on(pool, spec.target_orbits);
            search.result()
        },
        |result, (pool, _)| {
            let mut checks = Outcome::default();
            let det = Det::of_result(&result);
            for (ok, what) in result_checks(spec, &det, spec.reached(&result)) {
                checks.check(ok, what);
            }
            match &first {
                Some((reference, _)) => {
                    checks.check(*reference == det, "repetition matches the first");
                }
                None => first = Some((det, result.candidates_consumed)),
            }
            Checked {
                items: result.prefix_orbits as f64,
                jobs: 1.0,
                attempted: checks.attempted,
                failed: checks.failed,
                detail: pool_detail(&pool.stats()),
            }
        },
    );
    if let Some((det, consumed)) = first {
        let reference = replay_plain(spec, consumed);
        outcome.check(
            reference.det == det,
            "segmented prefix matches the sequential stream",
        );
    }
    outcome
}

/// Repeated sequential streams over the whole space, then one segmented
/// search the first repetition must match.
fn measure_sequential(run: &Run, spec: &Spec) -> Outcome {
    let mut first: Option<Det> = None;
    let mut outcome = crate::measure(
        run,
        |_| (OrbitSpace::new(spec.num_states), spec.pipeline()),
        |(space, pipeline)| {
            let mut stream = OrbitStream::new(space);
            drain(space, pipeline, &mut stream);
            stream.pruned_symmetric()
        },
        |pruned_symmetric, (_, pipeline)| {
            let mut checks = Outcome::default();
            let det = Det::of_pipeline(pipeline, pruned_symmetric);
            for (ok, what) in result_checks(spec, &det, true) {
                checks.check(ok, what);
            }
            let items = det.stats.canonical_orbits as f64;
            match &first {
                Some(reference) => {
                    checks.check(*reference == det, "repetition matches the first");
                }
                None => first = Some(det),
            }
            Checked {
                items,
                jobs: 1.0,
                attempted: checks.attempted,
                failed: checks.failed,
                detail: Obj::new(),
            }
        },
    );
    let mut search = spec.search();
    search.run_on(&Pool::new(run.host.pool_workers()), spec.target_orbits);
    let result = search.result();
    let det = Det::of_result(&result);
    for (ok, what) in result_checks(spec, &det, spec.reached(&result)) {
        outcome.check(ok, what);
    }
    outcome.check(
        first.is_some_and(|reference| reference == det),
        "segmented search matches the sequential stream",
    );
    outcome
}

/// Streams the rest of `stream` through `pipeline`: what a segmented search
/// computes, sequentially.
fn drain(space: &OrbitSpace, pipeline: &mut CandidatePipeline, stream: &mut OrbitStream) {
    while let Some(k) = stream.next_canonical() {
        let outputs = (k % space.output_patterns()) as u32;
        pipeline.offer(space, k, stream.current_assignment(), outputs);
    }
}

/// A sequential replay's result, wall time and process CPU time.
struct Replay {
    det: Det,
    wall_s: f64,
    cpu_s: f64,
}

/// Streams `[0, end)` through one pipeline, untimed per call: the trace's
/// baseline and the reference of a segmented search.
fn replay_plain(spec: &Spec, end: u128) -> Replay {
    let space = OrbitSpace::new(spec.num_states);
    let mut pipeline = spec.pipeline();
    let mut stream = OrbitStream::range(&space, 0, end);
    let cpu0 = host::cpu_seconds();
    let t = Instant::now();
    drain(&space, &mut pipeline, &mut stream);
    let wall_s = t.elapsed().as_secs_f64();
    Replay {
        det: Det::of_pipeline(&pipeline, stream.pruned_symmetric()),
        wall_s,
        cpu_s: host::cpu_seconds() - cpu0,
    }
}

/// The triage outcome of one offer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Symbolic,
    EtaFloor,
    Profiled { confirmed: bool, truncated: bool },
}

impl Verdict {
    /// Reads the verdict of the offer that moved the counters `before` →
    /// `after`.
    fn from_delta(before: &PipelineStats, after: &PipelineStats) -> Self {
        if after.pruned_symbolic > before.pruned_symbolic {
            Verdict::Symbolic
        } else if after.pruned_eta_bounded > before.pruned_eta_bounded {
            Verdict::EtaFloor
        } else {
            Verdict::Profiled {
                confirmed: after.threshold_protocols > before.threshold_protocols,
                truncated: after.truncated_orbits > before.truncated_orbits,
            }
        }
    }
}

/// Timings and counts of the traced replay, in nanoseconds where timed.
#[derive(Debug, Default)]
struct Layers {
    orbits: u64,
    pruned_symmetric: u64,
    generator_ns: f64,
    hits: u64,
    hit_ns: f64,
    misses: u64,
    miss_ns: f64,
    threshold_calls: u64,
    threshold_rejects: u64,
    threshold_ns: f64,
    eta_calls: u64,
    eta_rejects: u64,
    eta_ns: f64,
    profile_calls: u64,
    profile_ns: f64,
    slices: u64,
    slice_configs: u64,
    explore_ns: f64,
    fixpoint_ns: f64,
    peak_bytes: usize,
    /// Wall time of the replay loop with the stage probes taken out.
    loop_ns: f64,
    verdict_mismatches: u64,
}

fn ns_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// The coverable-support restriction of a candidate, densely relabelled —
/// the protocol the pipeline's triage stages see (up to the relabelling
/// its memo key applies, which no stage observes).
fn restriction(space: &OrbitSpace, assignment: &[usize], outputs: u32) -> Protocol {
    let n = space.num_states();
    let mut support = vec![false; n];
    space.coverable_support(assignment, &mut support);
    let mut proto = ProtocolBuilder::new("restricted");
    let ids: Vec<_> = (0..n)
        .map(|q| {
            support[q].then(|| {
                proto.add_state(format!("s{q}"), Output::from_bool((outputs >> q) & 1 == 1))
            })
        })
        .collect();
    let id = |q: usize| ids[q].expect("the support is forward-closed");
    for a in 0..n {
        for b in a..n {
            if !(support[a] && support[b]) {
                continue;
            }
            let (c, d) = space.pairs()[assignment[space.pair_position(a, b)]];
            if (a, b) != (c, d) {
                proto
                    .add_transition_idempotent((id(a), id(b)), (id(c), id(d)))
                    .expect("states were just declared");
            }
        }
    }
    proto.set_input_state("x", id(0));
    proto
        .build()
        .expect("a restriction is a well-formed protocol")
}

/// Runs the triage stages on `protocol` one by one, timing each, then
/// replays every profiled slice; returns the verdict they reach.
fn probe_stages(config: &PipelineConfig, protocol: &Protocol, layers: &mut Layers) -> Verdict {
    let t = Instant::now();
    let passes = threshold_prefilter(protocol, config.max_input, &config.symbolic);
    layers.threshold_ns += ns_since(t);
    layers.threshold_calls += 1;
    if !passes {
        layers.threshold_rejects += 1;
        return Verdict::Symbolic;
    }
    let t = Instant::now();
    let passes = eta_floor_prefilter(protocol, config.eta_floor, &config.symbolic);
    layers.eta_ns += ns_since(t);
    layers.eta_calls += 1;
    if !passes {
        layers.eta_rejects += 1;
        return Verdict::EtaFloor;
    }
    let t = Instant::now();
    let profile = match config.engine {
        ReachEngine::Csr => unary_threshold_profile(protocol, config.max_input, &config.explore),
        ReachEngine::Frontier => {
            frontier_threshold_profile(protocol, config.max_input, &config.explore)
        }
    };
    layers.profile_ns += ns_since(t);
    layers.profile_calls += 1;
    replay_slices(config, protocol, &profile, layers);
    Verdict::Profiled {
        confirmed: profile.verified_threshold().is_some(),
        truncated: profile.inputs.iter().any(|p| !p.exhaustive),
    }
}

/// Re-explores each slice the profile visited, splitting its cost into the
/// exploration and the stable-set fixpoint (the stable sets plus the two
/// backward closures the profile takes).
fn replay_slices(
    config: &PipelineConfig,
    protocol: &Protocol,
    profile: &ThresholdProfile,
    layers: &mut Layers,
) {
    for slice in &profile.inputs {
        let initial = [protocol.initial_config_unary(slice.input)];
        let t = Instant::now();
        match config.engine {
            ReachEngine::Csr => {
                let graph = ReachabilityGraph::explore(protocol, &initial, &config.explore);
                layers.explore_ns += ns_since(t);
                let t = Instant::now();
                let stable = StableSets::compute(protocol, &graph);
                for b in [Output::False, Output::True] {
                    let targets = stable.bitset(b);
                    if !targets.is_clear() {
                        black_box(graph.backward_closure_of(targets));
                    }
                }
                layers.fixpoint_ns += ns_since(t);
                layers.slice_configs += graph.len() as u64;
                layers.peak_bytes = layers.peak_bytes.max(graph.heap_bytes());
            }
            ReachEngine::Frontier => {
                let mut graph = FrontierGraph::explore(protocol, &initial, &config.explore);
                layers.explore_ns += ns_since(t);
                let t = Instant::now();
                let stable = graph.stable_sets(protocol);
                for b in [Output::False, Output::True] {
                    let targets = stable.bitset(b);
                    if !targets.is_clear() {
                        black_box(graph.backward_closure_of(targets));
                    }
                }
                layers.fixpoint_ns += ns_since(t);
                layers.slice_configs += graph.len() as u64;
                layers.peak_bytes = layers.peak_bytes.max(graph.peak_bytes());
            }
        }
        layers.slices += 1;
    }
}

/// [`replay_plain`] with every generator and pipeline call timed, and every
/// memo miss probed stage by stage (probe time is excluded from the loop
/// wall).
fn replay_traced(spec: &Spec, end: u128) -> (Layers, Det) {
    let space = OrbitSpace::new(spec.num_states);
    let mut pipeline = spec.pipeline();
    let mut stream = OrbitStream::range(&space, 0, end);
    let mut layers = Layers::default();
    let mut before = pipeline.stats().clone();
    let mut probe_ns = 0.0;
    let outer = Instant::now();
    loop {
        let t = Instant::now();
        let next = stream.next_canonical();
        layers.generator_ns += ns_since(t);
        let Some(k) = next else {
            break;
        };
        let outputs = (k % space.output_patterns()) as u32;
        let t = Instant::now();
        pipeline.offer(&space, k, stream.current_assignment(), outputs);
        let offer_ns = ns_since(t);
        let after = pipeline.stats();
        if after.memo_hits > before.memo_hits {
            layers.hits += 1;
            layers.hit_ns += offer_ns;
        } else {
            layers.misses += 1;
            layers.miss_ns += offer_ns;
            let t = Instant::now();
            let protocol = restriction(&space, stream.current_assignment(), outputs);
            let probed = probe_stages(&spec.config, &protocol, &mut layers);
            if probed != Verdict::from_delta(&before, after) {
                layers.verdict_mismatches += 1;
            }
            probe_ns += ns_since(t);
        }
        before = after.clone();
    }
    layers.loop_ns = ns_since(outer) - probe_ns;
    layers.orbits = stream.yielded();
    layers.pruned_symmetric = stream.pruned_symmetric();
    let det = Det::of_pipeline(&pipeline, stream.pruned_symmetric());
    (layers, det)
}

/// One timed segmented search and its scheduling counters.
struct ParallelRun {
    result: SegmentedResult,
    wall_s: f64,
    cpu_s: f64,
    pool: PoolStats,
}

/// Traced pass: (a) for `bb4_prefix` only, the segmented job twice, a
/// warm-up and a run for the scheduling counters; (b) an untimed sequential
/// replay of the same candidates, the baseline of the trace overhead (and
/// of the parallel efficiency); (c) the traced replay.  On `bb3_exhaustive`
/// the measured job is the sequential stream, so the pool metrics read 0
/// and `exec.cpu_util` is that of the replay.
pub fn trace(run: &Run) -> Outcome {
    let spec = spec(run);
    let workers = run.host.pool_workers();
    let mut outcome = Outcome::default();

    let parallel_run = || {
        let pool = Pool::new(workers);
        let mut search = spec.search();
        let cpu0 = host::cpu_seconds();
        let t = Instant::now();
        search.run_on(&pool, spec.target_orbits);
        let result = search.result();
        ParallelRun {
            result,
            wall_s: t.elapsed().as_secs_f64(),
            cpu_s: host::cpu_seconds() - cpu0,
            pool: pool.stats(),
        }
    };
    let parallel = (!spec.sequential).then(|| {
        let warmup = parallel_run();
        let measured = parallel_run();
        outcome.check(
            Det::of_result(&warmup.result) == Det::of_result(&measured.result),
            "repeated parallel runs agree",
        );
        measured
    });
    let end = parallel.as_ref().map_or_else(
        || OrbitSpace::new(spec.num_states).total_candidates(),
        |p| p.result.candidates_consumed,
    );

    let plain = replay_plain(&spec, end);
    let reached = parallel.as_ref().is_none_or(|p| spec.reached(&p.result));
    for (ok, what) in result_checks(&spec, &plain.det, reached) {
        outcome.check(ok, what);
    }
    if let Some(p) = &parallel {
        outcome.check(
            Det::of_result(&p.result) == plain.det,
            "segmented prefix matches the sequential stream",
        );
    }
    let (l, traced_det) = replay_traced(&spec, end);
    outcome.check(
        traced_det == plain.det,
        "traced replay matches the sequential stream",
    );
    outcome.check(
        l.verdict_mismatches == 0,
        "stage probes reproduce every memo-miss verdict",
    );

    let offer_ns = l.hit_ns + l.miss_ns;
    let stage_ns = l.threshold_ns + l.eta_ns + l.profile_ns;
    let plain_ns = plain.wall_s * 1e9;
    let row = match &parallel {
        Some(p) => pool_detail(&p.pool).with("parallel_wall_s", p.wall_s),
        None => Obj::new(),
    };
    run.row(
        "trace",
        row.with("sequential_wall_s", plain.wall_s)
            .with("traced_loop_s", l.loop_ns / 1e9)
            .with("offers", l.hits + l.misses)
            .with("slices", l.slices),
    );
    outcome.metrics.extend([
        (
            "core.orbit_stream.ns_per_orbit",
            ratio(l.generator_ns, l.orbits as f64),
        ),
        (
            "core.orbit_stream.canonical_ratio",
            ratio(l.orbits as f64, (l.orbits + l.pruned_symmetric) as f64),
        ),
        ("core.candidate_pipeline.offers", (l.hits + l.misses) as f64),
        (
            "core.candidate_pipeline.memo_hit_ratio",
            ratio(l.hits as f64, (l.hits + l.misses) as f64),
        ),
        (
            "core.candidate_pipeline.hit_offer_ns",
            ratio(l.hit_ns, l.hits as f64),
        ),
        (
            "core.candidate_pipeline.miss_offer_ns",
            ratio(l.miss_ns, l.misses as f64),
        ),
        (
            "core.candidate_pipeline.self_share",
            ratio(offer_ns - stage_ns, offer_ns),
        ),
        (
            "symbolic.threshold_prefilter.calls",
            l.threshold_calls as f64,
        ),
        (
            "symbolic.threshold_prefilter.ns_per_call",
            ratio(l.threshold_ns, l.threshold_calls as f64),
        ),
        (
            "symbolic.threshold_prefilter.reject_ratio",
            ratio(l.threshold_rejects as f64, l.threshold_calls as f64),
        ),
        ("symbolic.eta_floor_prefilter.calls", l.eta_calls as f64),
        (
            "symbolic.eta_floor_prefilter.ns_per_call",
            ratio(l.eta_ns, l.eta_calls as f64),
        ),
        (
            "symbolic.eta_floor_prefilter.reject_ratio",
            ratio(l.eta_rejects as f64, l.eta_calls as f64),
        ),
        ("reach.profile.calls", l.profile_calls as f64),
        (
            "reach.profile.ns_per_call",
            ratio(l.profile_ns, l.profile_calls as f64),
        ),
        (
            "reach.explore.ns_per_slice",
            ratio(l.explore_ns, l.slices as f64),
        ),
        (
            "reach.explore.configs_per_slice",
            ratio(l.slice_configs as f64, l.slices as f64),
        ),
        (
            "reach.fixpoint.ns_per_slice",
            ratio(l.fixpoint_ns, l.slices as f64),
        ),
        ("reach.peak_bytes", l.peak_bytes as f64),
        ("exec.cpu_util", ratio(plain.cpu_s, plain.wall_s)),
        (
            "unaccounted_share",
            1.0 - ratio(l.generator_ns + offer_ns, l.loop_ns),
        ),
        (
            "trace_overhead_share",
            ratio(l.loop_ns - plain_ns, plain_ns),
        ),
    ]);
    if let Some(p) = &parallel {
        let busy_threads = (workers + 1) as f64;
        let mut per_thread_tasks: Vec<f64> =
            p.pool.per_worker_tasks.iter().map(|&t| t as f64).collect();
        per_thread_tasks.push(p.pool.helped as f64);
        let idle_s = p.pool.per_worker_idle_ns.iter().sum::<u64>() as f64 / 1e9;
        outcome.metrics.extend([
            (
                "core.segmented.parallel_efficiency",
                ratio(plain.wall_s, p.wall_s * busy_threads),
            ),
            ("exec.cpu_util", ratio(p.cpu_s, p.wall_s)),
            (
                "exec.pool.idle_share",
                ratio(idle_s, p.wall_s * workers as f64),
            ),
            ("exec.pool.helped", p.pool.helped as f64),
            ("exec.pool.task_imbalance", imbalance(&per_thread_tasks)),
        ]);
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::small_run;

    #[test]
    fn seed_does_not_change_the_search() {
        let _guard = crate::tests::exclusive();
        let det = |seed| {
            let spec = spec(&small_run(Workload::Bb4Prefix, seed));
            let mut search = spec.search();
            search.run_on(&Pool::new(1), spec.target_orbits);
            Det::of_result(&search.result())
        };
        assert_eq!(det(1), det(2));
    }
}
