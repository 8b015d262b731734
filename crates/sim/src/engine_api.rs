//! The engine abstraction shared by the sequential and batched simulators,
//! and the engine selector used by experiment descriptions.

use popproto_model::{Config, Output, Protocol};
use serde::{Deserialize, Serialize};

/// Which simulation engine an experiment runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum EngineKind {
    /// The exact sequential engine ([`Simulator`](crate::Simulator)).
    #[default]
    Sequential,
    /// The collision-adjusted batched engine
    /// ([`BatchedSimulator`](crate::BatchedSimulator)), recommended for
    /// populations of 10⁵ agents and beyond.
    Batched,
}

/// A stochastic simulation engine for a population protocol.
///
/// Two implementations exist:
///
/// * [`Simulator`](crate::Simulator) — the sequential engine: exact
///   step-by-step semantics, one interaction at a time;
/// * [`BatchedSimulator`](crate::BatchedSimulator) — the batched engine:
///   collision-adjusted batch sampling in the style of ppsim / Berenbrink et
///   al. (arXiv:2005.03584), processing Θ(√n) interactions per O(|Q|²) batch.
///
/// The convergence detector ([`run_until_convergence`](crate::run_until_convergence))
/// and the experiment runner ([`run_experiment`](crate::run_experiment)) are
/// generic over this trait, so every experiment can pick its engine.
pub trait SimulationEngine {
    /// The protocol being simulated.
    fn protocol(&self) -> &Protocol;

    /// The (fixed) number of agents.
    fn population(&self) -> u64;

    /// Total interactions simulated so far, no-ops included.
    fn interactions(&self) -> u64;

    /// Interactions that changed the configuration.
    fn effective_interactions(&self) -> u64;

    /// Parallel time elapsed: interactions divided by the number of agents.
    fn parallel_time(&self) -> f64 {
        self.interactions() as f64 / self.population() as f64
    }

    /// Whether the current configuration is silent (no configuration-changing
    /// transition is enabled).  Engines answer this in O(1) from cached
    /// state, not by scanning transitions.
    fn is_silent(&self) -> bool;

    /// The consensus output of the current configuration, if any.
    fn current_output(&self) -> Option<Output>;

    /// A snapshot of the current configuration.
    fn snapshot(&self) -> Config;

    /// Simulates up to `max_interactions` further interactions, stopping
    /// early if the configuration becomes silent (a silent configuration can
    /// never change again, so simulating it is pure no-op bookkeeping).
    ///
    /// Returns the number of interactions actually simulated.
    fn advance(&mut self, max_interactions: u64) -> u64;

    /// The engine's preferred granularity for convergence checks, in
    /// interactions: the sequential engine checks every interaction (exact
    /// semantics), the batched engine only at batch boundaries.
    fn check_granularity(&self) -> u64 {
        1
    }
}
