//! The sequential stream the segmented search is checked against.

use popproto::candidate_pipeline::{CandidatePipeline, PipelineConfig, PipelineStats};
use popproto::orbit_stream::{OrbitSpace, OrbitStream};

/// The sequential stream: one [`CandidatePipeline`] fed by one
/// [`OrbitStream::range`] scan over the candidates `[0, end)` of the
/// `num_states` space — the reference the segmented search is checked
/// against.  Returns the drained pipeline and its stats with the
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
