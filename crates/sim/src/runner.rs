//! Multi-seed simulation experiments, engine-generic and seed-parallel.

use crate::batched::BatchedSimulator;
use crate::convergence::{run_until_convergence, ConvergenceCriterion, ConvergenceOutcome};
use crate::engine::Simulator;
use crate::stats::{aggregate_outcomes, ConvergenceStats};
use popproto_model::{Config, Input, Protocol};
use popproto_obs as obs;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

pub use crate::engine_api::EngineKind;

/// Description of a repeated simulation experiment: the same protocol and
/// input simulated with several seeds.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimulationExperiment {
    /// The protocol to simulate.
    pub protocol: Protocol,
    /// The input to start from.
    pub input: Input,
    /// Seeds, one per run.
    pub seeds: Vec<u64>,
    /// The convergence criterion.
    pub criterion: ConvergenceCriterion,
    /// Interaction budget per run.
    pub max_interactions: u64,
    /// The engine to run on.
    pub engine: EngineKind,
}

impl SimulationExperiment {
    /// Creates an experiment with `runs` consecutive seeds starting at 0,
    /// on the sequential engine.
    pub fn new(protocol: Protocol, input: Input, runs: u64, max_interactions: u64) -> Self {
        SimulationExperiment {
            protocol,
            input,
            seeds: (0..runs).collect(),
            criterion: ConvergenceCriterion::Silent,
            max_interactions,
            engine: EngineKind::Sequential,
        }
    }

    /// Selects the engine, builder-style.
    pub fn with_engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }
}

/// The result of a [`SimulationExperiment`]: all per-run outcomes plus their
/// aggregation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentResult {
    /// Per-run outcomes, in seed order.
    pub outcomes: Vec<ConvergenceOutcome>,
    /// Aggregated statistics.
    pub stats: ConvergenceStats,
}

fn run_one_seed(experiment: &SimulationExperiment, ic: &Config, seed: u64) -> ConvergenceOutcome {
    match experiment.engine {
        EngineKind::Sequential => {
            let mut sim = Simulator::new(experiment.protocol.clone(), ic.clone(), seed);
            run_until_convergence(&mut sim, experiment.criterion, experiment.max_interactions)
        }
        EngineKind::Batched => {
            let mut sim = BatchedSimulator::new(experiment.protocol.clone(), ic.clone(), seed);
            run_until_convergence(&mut sim, experiment.criterion, experiment.max_interactions)
        }
    }
}

/// Runs the experiment, fanning the work out across the process-wide
/// persistent worker pool ([`popproto_exec::global`]; all available CPU
/// cores — the environment has no rayon).  Sweeps that call
/// `run_experiment` many times reuse the same threads instead of paying a
/// spawn/join per call.
///
/// The unit of work is one seed.  Runs are independent and deterministic,
/// so outcomes come back in seed order regardless of scheduling.
pub fn run_experiment(experiment: &SimulationExperiment) -> ExperimentResult {
    let ic = Arc::new(experiment.protocol.initial_config(&experiment.input));
    // The pool's jobs are 'static: share the experiment via Arc instead of
    // borrowing it.
    let experiment = Arc::new(experiment.clone());
    let seeds = experiment.seeds.clone();
    let outcomes = popproto_exec::global().map(seeds, move |_, seed| {
        let _span = obs::span_with_arg("seed", "seed", seed);
        run_one_seed(&experiment, &ic, seed)
    });
    let stats = aggregate_outcomes(&outcomes);
    ExperimentResult { outcomes, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convergence::run_ensemble_until_convergence;
    use crate::ensemble::EnsembleSimulator;
    use popproto_zoo::{binary_counter, majority};

    #[test]
    fn repeated_runs_agree_on_the_answer() {
        let p = binary_counter(3); // x ≥ 8
        let exp = SimulationExperiment::new(p, Input::unary(12), 5, 300_000);
        let result = run_experiment(&exp);
        assert_eq!(result.outcomes.len(), 5);
        assert_eq!(result.stats.converged_runs, 5);
        assert_eq!(result.stats.true_outputs, 5);
        assert_eq!(result.stats.false_outputs, 0);
        assert!(result.stats.parallel_time.mean > 0.0);
    }

    #[test]
    fn majority_experiment() {
        let p = majority();
        let exp = SimulationExperiment::new(p, Input::from_counts(vec![4, 7]), 4, 300_000);
        let result = run_experiment(&exp);
        assert_eq!(result.stats.converged_runs, 4);
        // 4 > 7 is false: every run must answer false.
        assert_eq!(result.stats.false_outputs, 4);
    }

    #[test]
    fn experiment_descriptions_serialise() {
        let p = binary_counter(2);
        let exp = SimulationExperiment::new(p, Input::unary(6), 2, 10_000);
        let json = serde_json::to_string(&exp).unwrap();
        assert!(json.contains("binary_counter"));
    }

    #[test]
    fn batched_engine_runs_experiments() {
        let p = binary_counter(3);
        let exp = SimulationExperiment::new(p, Input::unary(2_000), 4, u64::MAX)
            .with_engine(EngineKind::Batched);
        let result = run_experiment(&exp);
        assert_eq!(result.stats.converged_runs, 4);
        assert_eq!(result.stats.true_outputs, 4);
    }

    #[test]
    fn ensemble_engine_matches_batched_engine_outcome_for_outcome() {
        let p = binary_counter(3);
        let exp = SimulationExperiment::new(p, Input::unary(2_000), 7, u64::MAX)
            .with_engine(EngineKind::Batched);
        let batched = run_experiment(&exp);
        let ic = exp.protocol.initial_config(&exp.input);
        let mut ens = EnsembleSimulator::new(exp.protocol.clone(), ic, &exp.seeds);
        let ensemble =
            run_ensemble_until_convergence(&mut ens, exp.criterion, exp.max_interactions);
        assert_eq!(batched.outcomes.len(), ensemble.len());
        for (b, e) in batched.outcomes.iter().zip(&ensemble) {
            assert_eq!(b.converged, e.converged);
            assert_eq!(b.output, e.output);
            assert_eq!(b.interactions, e.interactions);
            assert_eq!(b.interactions_to_convergence, e.interactions_to_convergence);
        }
    }

    #[test]
    fn engine_kinds_serialise_round_trip() {
        for kind in [EngineKind::Sequential, EngineKind::Batched] {
            let json = serde_json::to_string(&kind).unwrap();
            let back: EngineKind = serde_json::from_str(&json).unwrap();
            assert_eq!(kind, back);
        }
    }

    #[test]
    fn outcomes_are_in_seed_order_and_deterministic() {
        let p = binary_counter(3);
        let exp = SimulationExperiment::new(p, Input::unary(12), 8, 300_000);
        let a = run_experiment(&exp);
        let b = run_experiment(&exp);
        for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
            assert_eq!(x.interactions, y.interactions);
            assert_eq!(x.interactions_to_convergence, y.interactions_to_convergence);
        }
    }
}
