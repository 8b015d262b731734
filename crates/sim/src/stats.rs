//! Aggregation of simulation outcomes across seeds.

use crate::convergence::ConvergenceOutcome;
use serde::{Deserialize, Serialize};

/// Summary statistics of a sample of real values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SummaryStats {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean (0 for an empty sample).
    pub mean: f64,
    /// Population standard deviation (0 for fewer than two samples).
    pub std_dev: f64,
    /// Minimum (0 for an empty sample).
    pub min: f64,
    /// Maximum (0 for an empty sample).
    pub max: f64,
}

impl SummaryStats {
    /// Computes summary statistics of a sample.
    pub(crate) fn from_samples(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return SummaryStats {
                count: 0,
                mean: 0.0,
                std_dev: 0.0,
                min: 0.0,
                max: 0.0,
            };
        }
        let count = samples.len();
        let mean = samples.iter().sum::<f64>() / count as f64;
        let variance = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / count as f64;
        SummaryStats {
            count,
            mean,
            std_dev: variance.sqrt(),
            min: samples.iter().cloned().fold(f64::INFINITY, f64::min),
            max: samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

/// Aggregated convergence statistics over repeated simulation runs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConvergenceStats {
    /// Number of runs.
    pub runs: usize,
    /// Number of runs that converged.
    pub converged_runs: usize,
    /// Number of converged runs whose final output was `true`.
    pub true_outputs: usize,
    /// Number of converged runs whose final output was `false`.
    pub false_outputs: usize,
    /// Parallel time to convergence over the converged runs.
    pub parallel_time: SummaryStats,
    /// Interactions to convergence over the converged runs.
    pub interactions: SummaryStats,
}

/// Aggregates a set of convergence outcomes.
pub(crate) fn aggregate_outcomes(outcomes: &[ConvergenceOutcome]) -> ConvergenceStats {
    let converged: Vec<&ConvergenceOutcome> = outcomes.iter().filter(|o| o.converged).collect();
    let parallel: Vec<f64> = converged.iter().filter_map(|o| o.parallel_time).collect();
    let interactions: Vec<f64> = converged
        .iter()
        .filter_map(|o| o.interactions_to_convergence.map(|i| i as f64))
        .collect();
    ConvergenceStats {
        runs: outcomes.len(),
        converged_runs: converged.len(),
        true_outputs: converged.iter().filter(|o| o.output == Some(true)).count(),
        false_outputs: converged.iter().filter(|o| o.output == Some(false)).count(),
        parallel_time: SummaryStats::from_samples(&parallel),
        interactions: SummaryStats::from_samples(&interactions),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(converged: bool, output: Option<bool>, time: Option<f64>) -> ConvergenceOutcome {
        ConvergenceOutcome {
            converged,
            output,
            interactions: 100,
            interactions_to_convergence: time.map(|t| (t * 10.0) as u64),
            parallel_time: time,
            population: 10,
        }
    }

    #[test]
    fn summary_stats_basic() {
        let s = SummaryStats::from_samples(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.count, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.std_dev - (1.25f64).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
    }

    #[test]
    fn summary_stats_empty_and_singleton() {
        let empty = SummaryStats::from_samples(&[]);
        assert_eq!(empty.count, 0);
        assert_eq!(empty.mean, 0.0);
        let one = SummaryStats::from_samples(&[7.0]);
        assert_eq!(one.count, 1);
        assert_eq!(one.mean, 7.0);
        assert_eq!(one.std_dev, 0.0);
        assert_eq!(one.min, 7.0);
        assert_eq!(one.max, 7.0);
    }

    #[test]
    fn aggregation_counts_outcomes() {
        let outcomes = vec![
            outcome(true, Some(true), Some(2.0)),
            outcome(true, Some(true), Some(4.0)),
            outcome(true, Some(false), Some(6.0)),
            outcome(false, None, None),
        ];
        let stats = aggregate_outcomes(&outcomes);
        assert_eq!(stats.runs, 4);
        assert_eq!(stats.converged_runs, 3);
        assert_eq!(stats.true_outputs, 2);
        assert_eq!(stats.false_outputs, 1);
        assert_eq!(stats.parallel_time.count, 3);
        assert!((stats.parallel_time.mean - 4.0).abs() < 1e-12);
    }

    #[test]
    fn aggregation_of_empty_set() {
        let stats = aggregate_outcomes(&[]);
        assert_eq!(stats.runs, 0);
        assert_eq!(stats.converged_runs, 0);
        assert_eq!(stats.parallel_time.count, 0);
    }
}
