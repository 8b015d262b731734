//! Shared helpers for the Criterion benchmark harness reproducing the
//! experiments E1–E10 (see DESIGN.md and EXPERIMENTS.md).
//!
//! Every bench uses a short measurement window: the quantities of interest
//! are the *shapes* reported in EXPERIMENTS.md (who wins, by what factor),
//! not absolute nanoseconds.

pub mod naive;

use popproto::candidate_pipeline::{CandidatePipeline, PipelineConfig, PipelineStats};
use popproto::orbit_stream::{OrbitSpace, OrbitStream};
use popproto_model::Protocol;
use popproto_zoo::{binary_counter, flock, leader_counter, modulo};

/// The sequential stream: one [`CandidatePipeline`] fed by one
/// [`OrbitStream::range`] scan over the candidates `[0, end)` of the
/// `num_states` space — the reference the segmented search is checked and
/// timed against.  Returns the drained pipeline and its stats with the
/// generator's `pruned_symmetric` folded in.
pub fn sequential_reference(
    num_states: usize,
    end: u128,
    config: &PipelineConfig,
) -> (CandidatePipeline, PipelineStats) {
    let space = OrbitSpace::new(num_states);
    let mut pipeline = CandidatePipeline::new(num_states, config.clone());
    let mut stream = OrbitStream::range(&space, 0, end);
    while let Some(k) = stream.next_canonical() {
        let outputs = (k % space.output_patterns()) as u32;
        pipeline.offer(&space, k, stream.current_assignment(), outputs);
    }
    let mut stats = pipeline.stats().clone();
    stats.pruned_symmetric = stream.pruned_symmetric();
    (pipeline, stats)
}

/// The standard small protocol instances benchmarked across experiments.
pub fn standard_instances() -> Vec<(Protocol, u64)> {
    vec![
        (flock(3), 3),
        (flock(5), 5),
        (binary_counter(2), 4),
        (binary_counter(3), 8),
    ]
}

/// A slightly larger set used by the simulation benches.
pub fn simulation_instances() -> Vec<Protocol> {
    vec![flock(4), binary_counter(3), modulo(3, 1), leader_counter(3)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instances_are_nonempty_and_leaderless_where_expected() {
        assert!(standard_instances().iter().all(|(p, _)| p.is_leaderless()));
        assert_eq!(simulation_instances().len(), 4);
    }
}
