//! The sequential simulation engine: exact step semantics on configuration
//! counts, rebuilt around `CompiledProtocol` for throughput.
//!
//! The seed implementation cloned the whole configuration per interaction
//! (`Transition::fire`), allocated a `Vec` of candidate transitions per step
//! (`Protocol::transitions_from`) and re-checked silence by attempting to
//! fire *every* transition each iteration of [`Simulator::run`].  This
//! version keeps the exact same per-step semantics while doing none of that:
//!
//! * candidate transitions come from the compiled pair table (slice lookup);
//! * firing applies a precomputed `Delta` to the
//!   counts in place — no allocation on the hot path;
//! * agents are sampled through cached cumulative counts (rebuilt lazily,
//!   only after an effective interaction) with binary search;
//! * silence is tracked incrementally: a counter of enabled non-silent pairs
//!   is updated from the ≤ 4 state counts a transition touches, so
//!   [`Simulator::run`]'s termination check is O(1) per interaction.

use crate::compiled::CompiledProtocol;
use crate::engine_api::SimulationEngine;
use popproto_model::{Config, Output, Protocol};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A stochastic sequential simulator for a population protocol.
///
/// The simulator owns a copy of the protocol, the current configuration and a
/// seeded random number generator, so runs are reproducible.
///
/// # Examples
///
/// ```
/// use popproto_model::{Input, Output};
/// use popproto_sim::Simulator;
/// use popproto_zoo::binary_counter;
///
/// let protocol = binary_counter(3); // x ≥ 8
/// let mut sim = Simulator::new(protocol.clone(), protocol.initial_config_unary(20), 42);
/// sim.run(20_000);
/// assert_eq!(protocol.output(sim.config()), Some(Output::True));
/// ```
#[derive(Debug, Clone)]
pub struct Simulator {
    protocol: Protocol,
    compiled: CompiledProtocol,
    config: Config,
    rng: StdRng,
    population: u64,
    /// Cumulative counts for O(log |Q|) agent sampling; rebuilt lazily.
    cumulative: Vec<u64>,
    cumulative_dirty: bool,
    /// Enabledness per non-silent pair (indexed by dense pair index).
    pair_enabled: Vec<bool>,
    /// Number of currently enabled non-silent pairs; 0 ⟺ silent.
    enabled_non_silent: usize,
    interactions: u64,
    effective_interactions: u64,
}

impl Simulator {
    /// Creates a simulator for `protocol` starting at `initial` with a fixed seed.
    ///
    /// # Panics
    ///
    /// Panics if the initial configuration holds fewer than two agents.
    pub fn new(protocol: Protocol, initial: Config, seed: u64) -> Self {
        let population = initial.size();
        assert!(
            population >= 2,
            "population protocols require at least two agents"
        );
        let compiled = CompiledProtocol::new(&protocol);
        let mut sim = Simulator {
            protocol,
            compiled,
            config: initial,
            rng: StdRng::seed_from_u64(seed),
            population,
            cumulative: Vec::new(),
            cumulative_dirty: true,
            pair_enabled: Vec::new(),
            enabled_non_silent: 0,
            interactions: 0,
            effective_interactions: 0,
        };
        sim.rebuild_silence_tracker();
        sim
    }

    /// The protocol being simulated.
    pub fn protocol(&self) -> &Protocol {
        &self.protocol
    }

    /// The current configuration.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// The number of interactions simulated so far (including no-ops).
    pub fn interactions(&self) -> u64 {
        self.interactions
    }

    /// The number of interactions that changed the configuration.
    pub fn effective_interactions(&self) -> u64 {
        self.effective_interactions
    }

    /// The parallel time elapsed so far: interactions divided by the number
    /// of agents.
    pub fn parallel_time(&self) -> f64 {
        self.interactions as f64 / self.population as f64
    }

    /// Returns `true` if the current configuration is silent.  O(1): the
    /// engine tracks the number of enabled non-silent pairs incrementally.
    pub fn is_silent(&self) -> bool {
        self.enabled_non_silent == 0
    }

    /// Rebuilds the enabled-pair tracker from scratch (initialisation).
    fn rebuild_silence_tracker(&mut self) {
        let num_pairs = {
            let q = self.compiled.num_states();
            q * (q + 1) / 2
        };
        self.pair_enabled = vec![false; num_pairs];
        self.enabled_non_silent = 0;
        let counts = self.config.counts();
        for &pidx in self.compiled.non_silent_pairs() {
            let enabled = self.compiled.pair_enabled(pidx as usize, counts);
            self.pair_enabled[pidx as usize] = enabled;
            if enabled {
                self.enabled_non_silent += 1;
            }
        }
    }

    /// Re-evaluates enabledness of the non-silent pairs containing `state`.
    /// Idempotent, so overlapping touched states need no deduplication.
    #[inline]
    fn refresh_pairs_of_state(&mut self, state: usize) {
        let counts = self.config.counts();
        for &pidx in self.compiled.non_silent_pairs_of(state) {
            let now = self.compiled.pair_enabled(pidx as usize, counts);
            let was = self.pair_enabled[pidx as usize];
            if now != was {
                self.pair_enabled[pidx as usize] = now;
                if now {
                    self.enabled_non_silent += 1;
                } else {
                    self.enabled_non_silent -= 1;
                }
            }
        }
    }

    /// Rebuilds the cumulative count table if counts changed.
    #[inline]
    fn refresh_cumulative(&mut self) {
        if self.cumulative_dirty {
            let counts = self.config.counts();
            self.cumulative.clear();
            self.cumulative.reserve(counts.len());
            let mut acc = 0u64;
            for &c in counts {
                acc += c;
                self.cumulative.push(acc);
            }
            self.cumulative_dirty = false;
        }
    }

    /// Samples an ordered pair of distinct agents, returning their states.
    #[inline]
    fn sample_ordered_pair(&mut self) -> (usize, usize) {
        self.refresh_cumulative();
        let n = self.population;
        let first_pos = self.rng.gen_range(0..n);
        let a = self.cumulative.partition_point(|&c| c <= first_pos);
        // Sample the second agent among the remaining n-1: positions at or
        // after the removed agent's slot shift up by one.
        let second_pos = self.rng.gen_range(0..n - 1);
        let adjusted = if second_pos >= self.cumulative[a] - 1 {
            second_pos + 1
        } else {
            second_pos
        };
        let b = self.cumulative.partition_point(|&c| c <= adjusted);
        (a, b)
    }

    /// Simulates a single interaction.  Returns `true` if the configuration changed.
    pub fn step(&mut self) -> bool {
        self.interactions += 1;
        let (a, b) = self.sample_ordered_pair();
        let pidx = self.compiled.pair_index_of(a, b);
        let candidates = self.compiled.candidates(pidx);
        let t = match candidates {
            [] => return false,
            [t] => *t,
            _ => candidates[self.rng.gen_range(0..candidates.len())],
        };
        if !self.compiled.is_non_silent(t) {
            return false;
        }
        let delta = *self.compiled.delta(t);
        // Apply the delta in place, remembering which states crossed an
        // enabledness threshold (0↔1 for mixed pairs, 1↔2 for diagonal
        // ones).  Pair enabledness can only change at such crossings, so the
        // silence tracker is untouched on the vast majority of interactions.
        let mut crossed = [0usize; 4];
        let mut num_crossed = 0;
        {
            let counts = self.config.counts_mut();
            for &(q, d) in delta.entries() {
                let old = counts[q as usize];
                let new = (old as i64 + d as i64) as u64;
                counts[q as usize] = new;
                if (old >= 1) != (new >= 1) || (old >= 2) != (new >= 2) {
                    crossed[num_crossed] = q as usize;
                    num_crossed += 1;
                }
            }
        }
        self.cumulative_dirty = true;
        for &q in &crossed[..num_crossed] {
            self.refresh_pairs_of_state(q);
        }
        self.effective_interactions += 1;
        true
    }

    /// Simulates up to `max_interactions` interactions, stopping early once
    /// the configuration is silent.  Returns the number of interactions
    /// performed.
    pub fn run(&mut self, max_interactions: u64) -> u64 {
        for i in 0..max_interactions {
            if self.is_silent() {
                return i;
            }
            self.step();
        }
        max_interactions
    }
}

impl SimulationEngine for Simulator {
    fn protocol(&self) -> &Protocol {
        &self.protocol
    }

    fn population(&self) -> u64 {
        self.population
    }

    fn interactions(&self) -> u64 {
        self.interactions
    }

    fn effective_interactions(&self) -> u64 {
        self.effective_interactions
    }

    fn is_silent(&self) -> bool {
        Simulator::is_silent(self)
    }

    fn current_output(&self) -> Option<Output> {
        self.protocol.output(&self.config)
    }

    fn snapshot(&self) -> Config {
        self.config.clone()
    }

    fn advance(&mut self, max_interactions: u64) -> u64 {
        self.run(max_interactions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convergence::{run_until_convergence, ConvergenceCriterion};
    use popproto_model::Output;
    use popproto_zoo::{binary_counter, flock, majority};

    /// Runs `sim` to silence within `max_interactions` and returns the
    /// stable output, `None` if the budget ran out first.
    fn run_to_silence(sim: &mut Simulator, max_interactions: u64) -> Option<bool> {
        let outcome = run_until_convergence(sim, ConvergenceCriterion::Silent, max_interactions);
        outcome.converged.then_some(outcome.output).flatten()
    }

    #[test]
    fn population_size_is_invariant() {
        let p = flock(4);
        let mut sim = Simulator::new(p.clone(), p.initial_config_unary(10), 1);
        for _ in 0..1000 {
            sim.step();
            assert_eq!(sim.config().size(), 10);
        }
    }

    #[test]
    fn flock_converges_to_the_correct_output() {
        let p = flock(4);
        // 6 ≥ 4: all agents eventually report true.
        let mut sim = Simulator::new(p.clone(), p.initial_config_unary(6), 3);
        assert_eq!(run_to_silence(&mut sim, 100_000), Some(true));
        // 3 < 4: the protocol must never report a true consensus.
        let mut sim = Simulator::new(p.clone(), p.initial_config_unary(3), 3);
        sim.run(50_000);
        assert_ne!(p.output(sim.config()), Some(Output::True));
    }

    #[test]
    fn binary_counter_accepts_large_inputs() {
        let p = binary_counter(4); // x ≥ 16
        let mut sim = Simulator::new(p.clone(), p.initial_config_unary(40), 7);
        assert_eq!(
            run_to_silence(&mut sim, 500_000),
            Some(true),
            "40 ≥ 16 should eventually reach a true consensus"
        );
    }

    #[test]
    fn majority_simulation_reaches_a_consensus() {
        let p = majority();
        // x₁-majority is the fast direction of the 4-state protocol (the
        // passive tie-breaking rule also pushes towards "no").
        let input = popproto_model::Input::from_counts(vec![3, 8]);
        let mut sim = Simulator::new(p.clone(), p.initial_config(&input), 11);
        assert_eq!(run_to_silence(&mut sim, 500_000), Some(false));

        // A slim x₀-majority on a tiny population also converges, albeit slowly.
        let input = popproto_model::Input::from_counts(vec![4, 2]);
        let mut sim = Simulator::new(p.clone(), p.initial_config(&input), 13);
        assert_eq!(run_to_silence(&mut sim, 2_000_000), Some(true));
    }

    #[test]
    fn counters_and_parallel_time() {
        let p = flock(2);
        let mut sim = Simulator::new(p.clone(), p.initial_config_unary(4), 9);
        sim.run(100);
        assert!(sim.interactions() <= 100);
        assert!(sim.effective_interactions() <= sim.interactions());
        assert!(sim.parallel_time() <= 25.0);
        assert_eq!(sim.protocol().name(), "flock(2)");
    }

    #[test]
    fn run_stops_early_on_silent_configurations() {
        let p = flock(2);
        // Input 2: after one effective interaction everything is in state 2.
        let mut sim = Simulator::new(p.clone(), p.initial_config_unary(2), 5);
        let steps = sim.run(10_000);
        assert!(steps < 10_000);
        assert!(p.is_silent_config(sim.config()));
        assert!(sim.is_silent());
        assert_eq!(p.output(sim.config()), Some(Output::True));
    }

    #[test]
    #[should_panic(expected = "at least two agents")]
    fn tiny_population_panics() {
        let p = flock(2);
        let _ = Simulator::new(p.clone(), p.initial_config_unary(1), 0);
    }

    #[test]
    fn identical_seeds_give_identical_runs() {
        let p = binary_counter(3);
        let mut a = Simulator::new(p.clone(), p.initial_config_unary(12), 99);
        let mut b = Simulator::new(p.clone(), p.initial_config_unary(12), 99);
        for _ in 0..2000 {
            a.step();
            b.step();
        }
        assert_eq!(a.config(), b.config());
        assert_eq!(a.effective_interactions(), b.effective_interactions());
    }

    #[test]
    fn silence_tracker_matches_protocol_scan() {
        let p = majority();
        let input = popproto_model::Input::from_counts(vec![5, 4]);
        let mut sim = Simulator::new(p.clone(), p.initial_config(&input), 23);
        for _ in 0..20_000 {
            assert_eq!(
                sim.is_silent(),
                p.is_silent_config(sim.config()),
                "tracker and scan disagree at interaction {}",
                sim.interactions()
            );
            sim.step();
        }
    }

    #[test]
    fn steps_on_silent_configs_are_counted_no_ops() {
        let p = flock(2);
        let mut sim = Simulator::new(p.clone(), p.initial_config_unary(2), 5);
        sim.run(10_000);
        let effective = sim.effective_interactions();
        let before = sim.interactions();
        for _ in 0..10 {
            assert!(!sim.step());
        }
        assert_eq!(sim.interactions(), before + 10);
        assert_eq!(sim.effective_interactions(), effective);
    }
}
