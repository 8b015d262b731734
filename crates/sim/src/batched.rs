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
//! 1. sample the collision time `T` (Θ(√n); see *Exactness*), giving
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
//! Steps 2–4 are the exact conditional distribution given no collision.
//! The collision time of step 1 is exact up to n = 2¹⁷
//! (`BIRTHDAY_EXACT_MAX_POPULATION`): each simulator tabulates the exact
//! birthday CDF once and every draw inverts it.  Above that the draw comes
//! from the Rayleigh limit.  Two approximations remain, both vanishing as
//! `n` grows (ppsim's large-population regime makes them too): the
//! Rayleigh draw above 2¹⁷, and the colliding interaction, which re-samples
//! both agents from the post-batch counts instead of reusing the one
//! repeated agent.  For small populations (`n < 256`) the engine bypasses
//! batching entirely and takes exact sequential steps.
//!
//! # One batch, two engines
//!
//! Steps 1–5 are written once, as the phase methods of the crate-private
//! `Lane` (one trajectory's RNG and counters) over state shared by every
//! trajectory of the protocol.  [`BatchedSimulator`] runs one lane;
//! [`EnsembleSimulator`](crate::EnsembleSimulator) runs many, phase by
//! phase across its lanes.

use crate::compiled::CompiledProtocol;
use crate::engine_api::SimulationEngine;
use crate::sampling::{
    hypergeometric, multivariate_hypergeometric, split_candidates_uniform, BirthdaySampler,
};
use popproto_model::{Config, Output, Protocol};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Populations below this size are simulated with exact sequential steps;
/// batching only pays off once √n clears the O(|Q|²) per-batch overhead.
const MIN_BATCHED_POPULATION: u64 = 256;

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
/// approximation takes over.
const BIRTHDAY_EXACT_MAX_POPULATION: u64 = 1 << 17;

/// The parts of a batched run that every trajectory of one protocol and
/// population shares: the compiled tables, the birthday sampler and the
/// candidate-split scratch.  An [`EnsembleSimulator`] holds one `Shared`
/// for all its lanes; a [`BatchedSimulator`] holds one for its single lane.
///
/// [`EnsembleSimulator`]: crate::EnsembleSimulator
#[derive(Debug, Clone)]
pub(crate) struct Shared {
    pub(crate) protocol: Protocol,
    pub(crate) compiled: CompiledProtocol,
    pub(crate) population: u64,
    birthday: BirthdaySampler,
    /// Candidate-split scratch, sized to the widest nondeterministic pair.
    shares: Vec<u64>,
}

impl Shared {
    /// Compiles `protocol` for runs from configurations the size of
    /// `initial`.
    ///
    /// # Panics
    ///
    /// Panics if the initial configuration holds fewer than two agents.
    pub(crate) fn new(protocol: Protocol, initial: &Config) -> Self {
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
        Shared {
            protocol,
            compiled,
            population,
            birthday: BirthdaySampler::new(population, population <= BIRTHDAY_EXACT_MAX_POPULATION),
            shares: vec![0; max_candidates],
        }
    }

    /// Words per lane cell: `counts | initiators | responders`.
    pub(crate) fn cell_len(&self) -> usize {
        3 * self.compiled.num_states()
    }

    /// The batched engines' convergence-check granularity: one check per
    /// n/2 interactions, the length of the longest batch.
    pub(crate) fn check_granularity(&self) -> u64 {
        (self.population / 2).max(1)
    }

    /// A fresh cell holding `initial`'s counts.
    pub(crate) fn cell(&self, initial: &Config) -> Vec<u64> {
        let mut cell = vec![0; self.cell_len()];
        cell[..initial.counts().len()].copy_from_slice(initial.counts());
        cell
    }
}

/// One trajectory's own state: its RNG stream and counters.  The lane's
/// configuration lives in a *cell* of `3·|Q|` words owned by the caller,
/// `counts | initiators | responders`, so a lane holds no heap memory.
///
/// A batch is four phases, each a method: [`plan`](Self::plan),
/// [`split`](Self::split), [`pair`](Self::pair) and the collision's
/// [`sequential_step`](Self::sequential_step).  Both batched engines run
/// exactly these, so lane `i` of an ensemble and a solo run with seed `i`
/// consume one RNG stream in one order.
#[derive(Debug, Clone)]
pub(crate) struct Lane {
    rng: StdRng,
    pub(crate) interactions: u64,
    pub(crate) effective_interactions: u64,
}

impl Lane {
    pub(crate) fn new(seed: u64) -> Self {
        Lane {
            rng: StdRng::seed_from_u64(seed),
            interactions: 0,
            effective_interactions: 0,
        }
    }

    /// Step 1: the batch length for a remaining budget of `budget > 0`
    /// interactions, from one birthday draw (exact tabulated CDF up to
    /// [`BIRTHDAY_EXACT_MAX_POPULATION`], Rayleigh beyond).  0 means one
    /// exact sequential step instead: small populations and tiny budgets
    /// skip the draw.  The final interaction of a batch is reserved for the
    /// collision step, and a batch never uses more than the n agents.
    pub(crate) fn plan(&mut self, shared: &Shared, budget: u64) -> u64 {
        debug_assert!(budget > 0);
        let n = shared.population;
        if n < MIN_BATCHED_POPULATION || budget < 4 {
            return 0;
        }
        let draws = shared.birthday.draw(&mut self.rng);
        (draws.saturating_sub(1) / 2).min(budget - 1).min(n / 2)
    }

    /// Step 2: draws the `l` initiators, then the `l` responders, without
    /// replacement, and removes all 2·l participants from the counts; each
    /// pair's outcome is added back by [`pair`](Self::pair).  These chain
    /// draws have totals of order n (unlike the √n-length pairing draws),
    /// so their HRUA log-factorials come from the two-level table in
    /// `sampling` up to populations ≈ 2²¹ and from the Stirling kernel
    /// beyond.
    pub(crate) fn split(&mut self, cell: &mut [u64], l: u64) {
        let (counts, rest) = cell.split_at_mut(cell.len() / 3);
        let (initiators, responders) = rest.split_at_mut(counts.len());
        multivariate_hypergeometric(&mut self.rng, counts, l, initiators);
        for (c, ini) in counts.iter_mut().zip(initiators.iter()) {
            *c -= ini;
        }
        multivariate_hypergeometric(&mut self.rng, counts, l, responders);
        for (c, resp) in counts.iter_mut().zip(responders.iter()) {
            *c -= resp;
        }
    }

    /// Steps 3 and 4: pairs the split's initiators with its responders
    /// state by state and applies the `l` interactions as count deltas.
    pub(crate) fn pair(&mut self, shared: &mut Shared, cell: &mut [u64], l: u64) {
        let (counts, rest) = cell.split_at_mut(cell.len() / 3);
        let (initiators, responders) = rest.split_at_mut(counts.len());
        let mut responders_left = l;
        for (a, &ini) in initiators.iter().enumerate() {
            let mut need = ini;
            if need == 0 {
                continue;
            }
            let mut pool = responders_left;
            for (b, resp) in responders.iter_mut().enumerate() {
                if need == 0 {
                    break;
                }
                let available = *resp;
                if available == 0 {
                    continue;
                }
                // Conditional allocation of initiator-a interactions to
                // responder state b.
                let m = hypergeometric(&mut self.rng, pool, available, need);
                pool -= available;
                if m > 0 {
                    *resp -= m;
                    responders_left -= m;
                    need -= m;
                    self.apply_pair(shared, counts, a, b, m);
                }
            }
            debug_assert_eq!(need, 0);
        }
        self.interactions += l;
    }

    /// Applies `m` interactions of the ordered state pair `(a, b)`, whose
    /// agents have been removed from `counts`, splitting across candidate
    /// transitions where the protocol is nondeterministic.
    fn apply_pair(&mut self, shared: &mut Shared, counts: &mut [u64], a: usize, b: usize, m: u64) {
        let compiled = &shared.compiled;
        let pidx = compiled.pair_index_of(a, b);
        match compiled.candidates(pidx) {
            // No transition: the agents return to their states.
            [] => {
                counts[a] += m;
                counts[b] += m;
            }
            &[t] => self.fire(compiled, counts, t, (a, b), m),
            candidates => {
                let alias = compiled
                    .candidate_alias(pidx)
                    .expect("nondeterministic pair has a cached alias table");
                split_candidates_uniform(&mut self.rng, m, alias, &mut shared.shares);
                for (&t, &share) in candidates.iter().zip(&shared.shares) {
                    if share > 0 {
                        self.fire(compiled, counts, t, (a, b), share);
                    }
                }
            }
        }
    }

    /// Fires transition `t` `times` times on pairs in states `pre`.
    fn fire(
        &mut self,
        compiled: &CompiledProtocol,
        counts: &mut [u64],
        t: u32,
        pre: (usize, usize),
        times: u64,
    ) {
        let (x, y) = if compiled.is_non_silent(t) {
            self.effective_interactions += times;
            compiled.post(t)
        } else {
            pre
        };
        counts[x] += times;
        counts[y] += times;
    }

    /// Step 5, and the whole step for small populations and tiny budgets:
    /// one exact sequential interaction on the cell's counts.
    pub(crate) fn sequential_step(&mut self, shared: &Shared, cell: &mut [u64]) {
        let counts = &mut cell[..shared.compiled.num_states()];
        self.interactions += 1;
        let n = shared.population;
        // First agent.
        let mut pos = self.rng.gen_range(0..n);
        let mut a = 0usize;
        for (q, &c) in counts.iter().enumerate() {
            if pos < c {
                a = q;
                break;
            }
            pos -= c;
        }
        // Second agent among the remaining n-1.
        let mut pos = self.rng.gen_range(0..n - 1);
        let mut b = 0usize;
        for (q, &c) in counts.iter().enumerate() {
            let available = if q == a { c - 1 } else { c };
            if pos < available {
                b = q;
                break;
            }
            pos -= available;
        }
        let compiled = &shared.compiled;
        let t = match compiled.candidates(compiled.pair_index_of(a, b)) {
            [] => return,
            &[t] => t,
            candidates => candidates[self.rng.gen_range(0..candidates.len())],
        };
        if compiled.is_non_silent(t) {
            compiled.delta(t).apply(counts);
            self.effective_interactions += 1;
        }
    }
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
    shared: Shared,
    lane: Lane,
    /// `counts | initiators | responders` (see [`Lane`]).
    cell: Vec<u64>,
}

impl BatchedSimulator {
    /// Creates a batched simulator for `protocol` starting at `initial` with
    /// a fixed seed.
    ///
    /// # Panics
    ///
    /// Panics if the initial configuration holds fewer than two agents.
    pub fn new(protocol: Protocol, initial: Config, seed: u64) -> Self {
        let shared = Shared::new(protocol, &initial);
        let cell = shared.cell(&initial);
        BatchedSimulator {
            shared,
            lane: Lane::new(seed),
            cell,
        }
    }

    /// The current per-state counts.
    pub fn counts(&self) -> &[u64] {
        &self.cell[..self.shared.compiled.num_states()]
    }
}

impl SimulationEngine for BatchedSimulator {
    fn protocol(&self) -> &Protocol {
        &self.shared.protocol
    }

    fn population(&self) -> u64 {
        self.shared.population
    }

    fn interactions(&self) -> u64 {
        self.lane.interactions
    }

    fn effective_interactions(&self) -> u64 {
        self.lane.effective_interactions
    }

    fn is_silent(&self) -> bool {
        self.shared.compiled.is_silent_counts(self.counts())
    }

    fn current_output(&self) -> Option<Output> {
        self.shared.protocol.output(&self.snapshot())
    }

    fn snapshot(&self) -> Config {
        Config::from_counts(self.counts().to_vec())
    }

    fn advance(&mut self, max_interactions: u64) -> u64 {
        let mut done = 0;
        while done < max_interactions && !self.is_silent() {
            let l = self.lane.plan(&self.shared, max_interactions - done);
            if l > 0 {
                self.lane.split(&mut self.cell, l);
                self.lane.pair(&mut self.shared, &mut self.cell, l);
                done += l;
            }
            self.lane.sequential_step(&self.shared, &mut self.cell);
            done += 1;
        }
        done
    }

    fn check_granularity(&self) -> u64 {
        self.shared.check_granularity()
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
