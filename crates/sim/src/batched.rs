//! The batched simulation engine: collision-adjusted batch sampling in the
//! style of ppsim (Doty & Severson, CMSB 2021) and Berenbrink et al.
//! (arXiv:2005.03584).
//!
//! # Why batching works
//!
//! In the uniform scheduler, consecutive interactions pick agents *with*
//! replacement across interactions — but until some agent is picked twice,
//! the interaction sequence is distributed exactly like a pairing of agents
//! drawn *without* replacement.  The number of uniform agent draws until the
//! first repeat is the birthday collision time, Θ(√n) in expectation, so for
//! large populations Θ(√n) interactions can be processed as *one batch*:
//!
//! 1. sample the collision time `T` (≈ Rayleigh(√n)), giving
//!    `l = ⌊(T-1)/2⌋` interactions whose 2·l agents are all distinct;
//! 2. draw the `l` initiator agents and the `l` responder agents from the
//!    counts vector via multivariate hypergeometric sampling — O(|Q|) draws;
//! 3. pair initiators and responders per state pair — O(|Q|²) hypergeometric
//!    draws give the interaction count `m(a,b)` of every ordered pair;
//! 4. apply each pair's transitions as *count deltas*, splitting `m(a,b)`
//!    multinomially across candidate transitions where the protocol is
//!    nondeterministic;
//! 5. perform the colliding interaction itself as one exact sequential step.
//!
//! The per-batch cost is O(|Q|²) — independent of `n` — so populations of
//! 10⁸ and beyond simulate at the same speed per *parallel time unit* as
//! tiny ones, where the sequential engine must grind through n interactions
//! per unit.
//!
//! # Exactness
//!
//! Steps 2–4 are the exact conditional distribution given no collision.  Two
//! standard approximations remain (both are also made by ppsim's
//! large-population regime and vanish as `n` grows):
//! the collision time is sampled from its Rayleigh limit rather than the
//! exact birthday distribution, and the colliding interaction re-samples
//! both agents from the post-batch counts instead of reusing the one
//! repeated agent.  For small populations (`n < 256`) the engine bypasses
//! batching entirely and takes exact sequential steps.

use crate::compiled::CompiledProtocol;
use crate::engine_api::SimulationEngine;
use crate::sampling::{multivariate_hypergeometric, split_candidates_uniform, BirthdaySampler};
use popproto_model::{Config, Output, Protocol};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Populations below this size are simulated with exact sequential steps;
/// batching only pays off once √n clears the O(|Q|²) per-batch overhead.
/// The ensemble engine classifies its lanes with this same constant, which
/// keeps lane-level bit-equivalence across the threshold.
pub(crate) const MIN_BATCHED_POPULATION: u64 = 256;

/// Crossover between the exact tabulated birthday-collision sampler and the
/// Rayleigh approximation.
///
/// The Rayleigh inversion's bias is `O(1/√n)` — a two-sample chi-square test
/// against brute-force pair sampling (see `sampling::tests`) rejects it
/// catastrophically at `n = 64` while the exact sampler passes at every
/// tested size.  The exact table costs `O(√n)` f64 multiplies to build and
/// `O(log n)` per draw; at `n = 2¹⁷` that is a ~3 k-entry table built once
/// per simulator, negligible against a single batch.  Beyond `2¹⁷` the bias
/// (< 0.3 % of a batch length, and only in the batch-*length* distribution,
/// never in the pairing itself) is far below Monte-Carlo noise, so the
/// approximation takes over.  Both engines (scalar and ensemble) share this
/// constant, which keeps lane-level bit-equivalence across the crossover.
pub(crate) const BIRTHDAY_EXACT_MAX_POPULATION: u64 = 1 << 17;

/// Builds the birthday sampler both engines use for population `n`.
pub(crate) fn birthday_sampler_for(n: u64) -> BirthdaySampler {
    BirthdaySampler::new(n, n <= BIRTHDAY_EXACT_MAX_POPULATION)
}

/// A batched stochastic simulator for a population protocol.
///
/// Implements the same uniform-scheduler semantics as
/// [`Simulator`](crate::Simulator) but advances Θ(√n) interactions per
/// O(|Q|²) batch, which makes populations of 10⁸–10⁹ agents tractable.
///
/// # Examples
///
/// ```
/// use popproto_sim::{BatchedSimulator, SimulationEngine};
/// use popproto_zoo::flock;
///
/// let p = flock(3);
/// let mut sim = BatchedSimulator::new(p.clone(), p.initial_config_unary(100_000), 7);
/// sim.advance(10_000_000);
/// assert!(sim.parallel_time() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct BatchedSimulator {
    protocol: Protocol,
    compiled: CompiledProtocol,
    counts: Vec<u64>,
    population: u64,
    rng: StdRng,
    birthday: BirthdaySampler,
    interactions: u64,
    effective_interactions: u64,
    // Scratch buffers, reused across batches to avoid allocation.
    initiators: Vec<u64>,
    responders: Vec<u64>,
    remaining: Vec<u64>,
    /// Candidate-split scratch, sized to the widest nondeterministic pair.
    shares: Vec<u64>,
}

impl BatchedSimulator {
    /// Creates a batched simulator for `protocol` starting at `initial` with
    /// a fixed seed.
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
        let q = protocol.num_states();
        let max_candidates = (0..q * (q + 1) / 2)
            .map(|p| compiled.candidates(p).len())
            .max()
            .unwrap_or(0);
        BatchedSimulator {
            protocol,
            compiled,
            counts: initial.counts().to_vec(),
            population,
            rng: StdRng::seed_from_u64(seed),
            birthday: birthday_sampler_for(population),
            interactions: 0,
            effective_interactions: 0,
            initiators: vec![0; q],
            responders: vec![0; q],
            remaining: vec![0; q],
            shares: vec![0; max_candidates],
        }
    }

    /// The current per-state counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Runs one batch (or one exact sequential step for small populations /
    /// small remaining budgets).  Returns the number of interactions
    /// simulated, at most `budget`.  Must not be called on a silent
    /// configuration.
    fn batch(&mut self, budget: u64) -> u64 {
        debug_assert!(budget > 0);
        let n = self.population;
        if n < MIN_BATCHED_POPULATION || budget < 4 {
            self.sequential_step();
            return 1;
        }
        // 1. Interactions until the first agent repeat (exact tabulated CDF
        // up to BIRTHDAY_EXACT_MAX_POPULATION, Rayleigh beyond).
        let draws = self.birthday.draw(&mut self.rng);
        // Reserve the final interaction of the batch for the exact collision
        // step, and never use more than the n available agents.
        let l = ((draws.saturating_sub(1)) / 2).min(budget - 1).min(n / 2);
        if l == 0 {
            self.sequential_step();
            return 1;
        }

        // 2. Draw initiators, then responders, without replacement.  These
        // chain draws have totals of order n (unlike the √n-length pairing
        // draws below), so their HRUA log-factorials are served by the
        // two-level table in `sampling` up to populations ≈ 2²¹ and by the
        // Stirling kernel beyond — the same crossover the ensemble's split
        // phases use, keeping lane-level bit-equivalence.
        multivariate_hypergeometric(&mut self.rng, &self.counts, l, &mut self.initiators);
        for (rem, (c, ini)) in self
            .remaining
            .iter_mut()
            .zip(self.counts.iter().zip(&self.initiators))
        {
            *rem = c - ini;
        }
        multivariate_hypergeometric(&mut self.rng, &self.remaining, l, &mut self.responders);

        // Remove all 2·l batch participants from the configuration; each
        // pair's outcome (or the pair itself, for no-op interactions) is
        // added back in step 4.
        for ((c, ini), resp) in self
            .counts
            .iter_mut()
            .zip(&self.initiators)
            .zip(&self.responders)
        {
            *c -= ini + resp;
        }

        // 3.+4. Pair initiators with responders state by state and apply the
        // interactions as count deltas.
        let num_states = self.compiled.num_states();
        let mut responders_left = l;
        for a in 0..num_states {
            let mut need = self.initiators[a];
            if need == 0 {
                continue;
            }
            let mut pool = responders_left;
            for b in 0..num_states {
                if need == 0 {
                    break;
                }
                let available = self.responders[b];
                if available == 0 {
                    continue;
                }
                // Conditional allocation of initiator-a interactions to
                // responder state b.
                let m = crate::sampling::hypergeometric(&mut self.rng, pool, available, need);
                pool -= available;
                if m > 0 {
                    self.responders[b] -= m;
                    responders_left -= m;
                    need -= m;
                    self.apply_pair_interactions(a, b, m);
                }
            }
            debug_assert_eq!(need, 0);
        }
        self.interactions += l;

        // 5. The colliding interaction, as an exact sequential step.
        self.sequential_step();
        l + 1
    }

    /// Applies `m` interactions of the ordered state pair `(a, b)` as count
    /// deltas, splitting across candidate transitions where necessary.
    fn apply_pair_interactions(&mut self, a: usize, b: usize, m: u64) {
        let pidx = self.compiled.pair_index_of(a, b);
        let candidates = self.compiled.candidates(pidx);
        match candidates {
            [] => {
                // No transition: the interaction is a no-op; return the
                // agents to their states.
                self.counts[a] += m;
                self.counts[b] += m;
            }
            [t] => self.apply_transition_times(*t, a, b, m),
            _ => {
                // Nondeterministic pair: split m uniformly across the
                // candidates via the canonical alias/binomial-chain split
                // (the same stream the ensemble engine consumes).
                let k = candidates.len();
                let mut shares = std::mem::take(&mut self.shares);
                let alias = self
                    .compiled
                    .candidate_alias(pidx)
                    .expect("nondeterministic pair has a cached alias table");
                split_candidates_uniform(&mut self.rng, m, alias, &mut shares);
                for (i, &share) in shares.iter().enumerate().take(k) {
                    if share > 0 {
                        let t = self.compiled.candidates(pidx)[i];
                        self.apply_transition_times(t, a, b, share);
                    }
                }
                self.shares = shares;
            }
        }
    }

    /// Applies transition `t` to `times` interacting pairs whose agents have
    /// already been removed from `counts`.
    fn apply_transition_times(&mut self, t: u32, a: usize, b: usize, times: u64) {
        if self.compiled.is_non_silent(t) {
            let (lo, hi) = self.compiled.post(t);
            self.counts[lo] += times;
            self.counts[hi] += times;
            self.effective_interactions += times;
        } else {
            self.counts[a] += times;
            self.counts[b] += times;
        }
    }

    /// One exact sequential interaction on the counts vector (used for small
    /// populations, tiny budgets and the per-batch collision step).
    fn sequential_step(&mut self) {
        self.interactions += 1;
        let n = self.population;
        // First agent.
        let mut pos = self.rng.gen_range(0..n);
        let mut a = 0usize;
        for (q, &c) in self.counts.iter().enumerate() {
            if pos < c {
                a = q;
                break;
            }
            pos -= c;
        }
        // Second agent among the remaining n-1.
        let mut pos = self.rng.gen_range(0..n - 1);
        let mut b = 0usize;
        for (q, &c) in self.counts.iter().enumerate() {
            let available = if q == a { c - 1 } else { c };
            if pos < available {
                b = q;
                break;
            }
            pos -= available;
        }
        let pidx = self.compiled.pair_index_of(a, b);
        let candidates = self.compiled.candidates(pidx);
        let t = match candidates {
            [] => return,
            [t] => *t,
            _ => candidates[self.rng.gen_range(0..candidates.len())],
        };
        if self.compiled.is_non_silent(t) {
            self.compiled.delta(t).apply(&mut self.counts);
            self.effective_interactions += 1;
        }
    }
}

impl SimulationEngine for BatchedSimulator {
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
        self.compiled.is_silent_counts(&self.counts)
    }

    fn current_output(&self) -> Option<Output> {
        self.protocol.output(&self.snapshot())
    }

    fn snapshot(&self) -> Config {
        Config::from_counts(self.counts.clone())
    }

    fn advance(&mut self, max_interactions: u64) -> u64 {
        let mut done = 0;
        while done < max_interactions {
            if self.is_silent() {
                break;
            }
            done += self.batch(max_interactions - done);
        }
        done
    }

    fn check_granularity(&self) -> u64 {
        (self.population / 2).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use popproto_zoo::{binary_counter, flock};

    #[test]
    fn population_is_invariant_across_batches() {
        let p = flock(4);
        let mut sim = BatchedSimulator::new(p.clone(), p.initial_config_unary(10_000), 3);
        for _ in 0..50 {
            sim.advance(5_000);
            assert_eq!(sim.counts().iter().sum::<u64>(), 10_000);
        }
    }

    #[test]
    fn flock_stabilises_to_true_consensus() {
        let p = flock(3);
        let mut sim = BatchedSimulator::new(p.clone(), p.initial_config_unary(50_000), 5);
        sim.advance(u64::MAX);
        assert!(sim.is_silent());
        assert_eq!(sim.current_output(), Some(popproto_model::Output::True));
    }

    #[test]
    fn advance_respects_budget() {
        let p = binary_counter(3);
        let mut sim = BatchedSimulator::new(p.clone(), p.initial_config_unary(100_000), 11);
        let done = sim.advance(12_345);
        assert!(done <= 12_345);
        assert_eq!(sim.interactions(), done);
    }

    #[test]
    fn small_populations_fall_back_to_exact_steps() {
        let p = flock(3);
        let mut sim = BatchedSimulator::new(p.clone(), p.initial_config_unary(10), 1);
        let done = sim.advance(7);
        assert_eq!(done.min(7), done);
        assert!(sim.interactions() <= 7);
    }

    #[test]
    fn identical_seeds_give_identical_trajectories() {
        let p = binary_counter(3);
        let mut a = BatchedSimulator::new(p.clone(), p.initial_config_unary(50_000), 99);
        let mut b = BatchedSimulator::new(p.clone(), p.initial_config_unary(50_000), 99);
        for _ in 0..20 {
            a.advance(10_000);
            b.advance(10_000);
            assert_eq!(a.counts(), b.counts());
            assert_eq!(a.interactions(), b.interactions());
            assert_eq!(a.effective_interactions(), b.effective_interactions());
        }
    }

    #[test]
    fn huge_populations_advance_quickly() {
        // 10⁸ agents: one parallel time unit = 10⁸ interactions.  This must
        // complete in well under a second — it is the whole point of the
        // batched engine.
        let p = flock(3);
        let mut sim = BatchedSimulator::new(p.clone(), p.initial_config_unary(100_000_000), 17);
        let done = sim.advance(100_000_000);
        assert_eq!(done, 100_000_000);
        assert!((sim.parallel_time() - 1.0).abs() < 1e-9);
    }
}
