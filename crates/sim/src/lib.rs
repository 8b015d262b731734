//! Stochastic simulation of population protocols — a two-tier engine.
//!
//! At each step the uniform scheduler picks an ordered pair of distinct
//! agents uniformly at random; if the protocol has a transition for the pair
//! of states, one is fired (chosen uniformly among the applicable ones),
//! otherwise the interaction is a no-op.  Uniform random scheduling is fair
//! with probability 1, so simulated executions converge to the semantics of
//! Section 2 almost surely.
//!
//! The *parallel time* of an execution is its number of interactions divided
//! by the number of agents — the standard measure used in the runtime
//! results quoted in the paper's introduction.
//!
//! Two engines implement the common [`SimulationEngine`] trait, and a third
//! runs the second's batches for many trajectories in lockstep:
//!
//! * [`Simulator`] — **tier 1**, the sequential engine: exact step
//!   semantics, rebuilt around a `CompiledProtocol` (dense pair-transition
//!   tables, in-place count deltas, incremental silence detection) so the
//!   per-interaction cost is O(log |Q|) with zero allocation;
//! * [`BatchedSimulator`] — **tier 2**, the batched engine: processes Θ(√n)
//!   interactions per O(|Q|²) batch using collision-adjusted hypergeometric
//!   sampling (ppsim / Berenbrink et al., arXiv:2005.03584), making
//!   populations of 10⁸–10⁹ agents tractable;
//! * [`EnsembleSimulator`] — **tier 2, ensemble form**: K independent
//!   trajectories of one protocol advanced in lockstep waves, each lane
//!   running the batched engine's own batch phases on its own RNG stream,
//!   so every lane is bit-identical to a solo [`BatchedSimulator`] run with
//!   the same seed.
//!
//! See `crates/sim/README.md` for when each engine wins and for the
//! batch-sampling math.
//!
//! Modules:
//!
//! * [`compiled`] — protocols lowered to dense lookup tables;
//! * [`engine_api`] — the [`SimulationEngine`] trait;
//! * [`engine`] — the sequential engine;
//! * [`batched`] — the batched engine;
//! * [`ensemble`] — the lockstep ensemble engine;
//! * [`sampling`] — hypergeometric / binomial / birthday samplers;
//! * [`pmath`] — portable transcendental kernels shared by both engines;
//! * [`convergence`] — stabilisation / consensus detection;
//! * [`stats`] — aggregation over repeated runs;
//! * [`runner`] — multi-seed experiment driver (seed-parallel);
//! * [`simd_control`] — vector-kernel provenance for benchmark host tags.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batched;
pub mod compiled;
pub mod convergence;
pub mod engine;
pub mod engine_api;
pub mod ensemble;
pub mod pmath;
pub mod runner;
pub mod sampling;
pub mod stats;

pub use batched::BatchedSimulator;
pub use convergence::{
    run_ensemble_until_convergence, run_sharded_ensemble_until_convergence,
    run_sharded_ensemble_with_heartbeat, run_until_convergence, ConvergenceCriterion,
    ConvergenceOutcome,
};
pub use engine::Simulator;
pub use engine_api::SimulationEngine;
pub use ensemble::{EnsembleSimulator, WavePhaseBreakdown};
pub use runner::{run_experiment, EngineKind, SimulationExperiment};
pub use sampling::{CachedBinomial, CachedHypergeometric};

/// Vector-kernel provenance, kept for the `perfbench` harness, which reads
/// these two names for its host tags.  Every sampler runs the one scalar
/// path, so the answer is always "not compiled, scalar".
pub mod simd_control {
    /// Whether this build compiled in vector kernels: never.
    pub const COMPILED: bool = false;

    /// `(kernels_active, cpu_tier)`: always `(false, "scalar")`.
    pub fn status() -> (bool, &'static str) {
        (false, "scalar")
    }
}
