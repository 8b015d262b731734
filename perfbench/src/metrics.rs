//! The metric catalogue: every name the benchmark prints, with its unit.
//! `BENCHMARK.json` at the repository root lists the same names (a self-test
//! checks that they agree).

use std::collections::BTreeMap;

/// Metric values of one run, by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// End-to-end metrics, printed by every untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("items_per_s", "1/s"),
    ("jobs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run (`--trace 1`).  A layer
/// the workload does not exercise reads `0`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.orbit_stream.ns_per_orbit", "ns"),
    ("core.orbit_stream.canonical_ratio", "ratio"),
    ("core.candidate_pipeline.offers", "count"),
    ("core.candidate_pipeline.memo_hit_ratio", "ratio"),
    ("core.candidate_pipeline.hit_offer_ns", "ns"),
    ("core.candidate_pipeline.miss_offer_ns", "ns"),
    ("core.candidate_pipeline.self_share", "ratio"),
    ("symbolic.threshold_prefilter.calls", "count"),
    ("symbolic.threshold_prefilter.ns_per_call", "ns"),
    ("symbolic.threshold_prefilter.reject_ratio", "ratio"),
    ("symbolic.eta_floor_prefilter.calls", "count"),
    ("symbolic.eta_floor_prefilter.ns_per_call", "ns"),
    ("symbolic.eta_floor_prefilter.reject_ratio", "ratio"),
    ("reach.profile.calls", "count"),
    ("reach.profile.ns_per_call", "ns"),
    ("reach.explore.ns_per_slice", "ns"),
    ("reach.explore.configs_per_slice", "count"),
    ("reach.fixpoint.ns_per_slice", "ns"),
    ("reach.peak_bytes", "bytes"),
    ("core.segmented.parallel_efficiency", "ratio"),
    ("exec.cpu_util", "cpus"),
    ("exec.pool.idle_share", "ratio"),
    ("exec.pool.helped", "count"),
    ("exec.pool.task_imbalance", "ratio"),
    ("exec.shard.wall_imbalance", "ratio"),
    ("sim.ensemble.waves", "count"),
    ("sim.ensemble.ns_per_wave", "ns"),
    ("sim.ensemble.classification_ns", "ns"),
    ("sim.ensemble.split_ns", "ns"),
    ("sim.ensemble.pairing_ns", "ns"),
    ("sim.ensemble.apply_ns", "ns"),
    ("sim.ensemble.collision_ns", "ns"),
    ("sim.ensemble.silence_ns", "ns"),
    ("sim.convergence.driver_share", "ratio"),
    ("sim.batched.advance_calls", "count"),
    ("sim.batched.ns_per_advance", "ns"),
    ("sim.batched.interactions_per_advance", "count"),
    ("sim.sampling.hyp_table_ns", "ns"),
    ("sim.sampling.hyp_stirling_ns", "ns"),
    ("sim.sampling.binomial_ns", "ns"),
    ("unaccounted_share", "ratio"),
    ("trace_overhead_share", "ratio"),
];

/// The catalogue a run prints from.
pub fn catalogue(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}
