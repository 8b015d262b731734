//! Convergence detection for simulated executions.

use crate::engine_api::SimulationEngine;
use crate::ensemble::EnsembleSimulator;
use popproto_model::{Config, Output, Protocol};
use popproto_obs as obs;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Strategies for deciding that a simulated execution has (very likely)
/// stabilised.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub enum ConvergenceCriterion {
    /// The configuration is *silent*: no transition can change it.  This is a
    /// proof of stabilisation, but some protocols never become silent.
    Silent,
    /// All agents agree on an output and keep agreeing for the given number of
    /// further interactions.
    ///
    /// This is a *heuristic*: for threshold protocols the initial
    /// configuration is already a (false) consensus, so a short window can
    /// declare convergence before the protocol has had time to flip the
    /// answer.  Use [`ConvergenceCriterion::Silent`] whenever the protocol
    /// stabilises into silent configurations (all protocols in
    /// `popproto-zoo` do), and reserve this criterion for measuring how long
    /// an already-formed consensus persists.
    ConsensusPersistence {
        /// Number of consecutive interactions the consensus must persist.
        window: u64,
    },
}

impl Default for ConvergenceCriterion {
    fn default() -> Self {
        ConvergenceCriterion::ConsensusPersistence { window: 1_000 }
    }
}

/// The outcome of running a simulation until convergence (or a step budget).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConvergenceOutcome {
    /// `true` if the criterion was met before the budget ran out.
    pub converged: bool,
    /// The consensus output at the end, if any.
    pub output: Option<bool>,
    /// Total number of interactions simulated.
    pub interactions: u64,
    /// Number of interactions until the criterion was first met (if it was).
    pub interactions_to_convergence: Option<u64>,
    /// Parallel time until convergence (interactions / agents), if converged.
    pub parallel_time: Option<f64>,
    /// Number of agents in the population.
    pub population: u64,
}

/// What a driver does next with one trajectory.
#[derive(Debug)]
enum Next {
    /// The run is over: `Some(i)` if the criterion first held at
    /// interaction `i`, `None` if the budget ran out or a silent
    /// disagreement can never converge.
    Stop(Option<u64>),
    /// Advance by up to this many interactions (always ≥ 1), then check
    /// again.
    Advance(u64),
}

/// One trajectory's stopping rule: the one place that evaluates a
/// [`ConvergenceCriterion`].  Every driver asks it, at each check, whether
/// the run is done and, if not, how far to advance before the next check.
#[derive(Debug, Clone)]
struct Stopping {
    criterion: ConvergenceCriterion,
    max_interactions: u64,
    /// The engine's check granularity, at least 1.
    granularity: u64,
    /// Where the current consensus began, under
    /// [`ConvergenceCriterion::ConsensusPersistence`].
    consensus_since: Option<u64>,
}

impl Stopping {
    fn new(criterion: ConvergenceCriterion, max_interactions: u64, granularity: u64) -> Self {
        Stopping {
            criterion,
            max_interactions,
            granularity: granularity.max(1),
            consensus_since: None,
        }
    }

    /// Checks a trajectory that has simulated `interactions` interactions.
    /// `silent` and `consensus` report whether its configuration is silent
    /// and whether its agents agree on an output; each is only asked when
    /// the criterion needs it.
    ///
    /// Engines stop advancing once the configuration is silent, and a
    /// silent configuration can never change, so silence decides the run:
    /// a silent consensus persists forever, a silent disagreement never
    /// converges.  Hence a trajectory told to advance is never silent.
    fn next(
        &mut self,
        interactions: u64,
        silent: impl Fn() -> bool,
        consensus: impl Fn() -> bool,
    ) -> Next {
        let converged_at = match self.criterion {
            ConvergenceCriterion::Silent => silent().then_some(interactions),
            ConvergenceCriterion::ConsensusPersistence { window } => {
                if consensus() {
                    let since = *self.consensus_since.get_or_insert(interactions);
                    (interactions - since >= window || silent()).then_some(since)
                } else {
                    self.consensus_since = None;
                    if silent() {
                        return Next::Stop(None);
                    }
                    None
                }
            }
        };
        if converged_at.is_some() || interactions >= self.max_interactions {
            return Next::Stop(converged_at);
        }
        let left = self.max_interactions - interactions;
        Next::Advance(match self.criterion {
            // Engines stop at silence on their own; no finer checks needed.
            ConvergenceCriterion::Silent => left,
            ConvergenceCriterion::ConsensusPersistence { window } => {
                let until_window = match self.consensus_since {
                    Some(since) => window - (interactions - since),
                    None => self.granularity,
                };
                until_window.min(self.granularity).min(left)
            }
        })
    }
}

/// The outcome of a trajectory that stopped at `interactions` with
/// consensus `output`.
fn outcome(
    population: u64,
    interactions: u64,
    output: Option<Output>,
    converged_at: Option<u64>,
) -> ConvergenceOutcome {
    ConvergenceOutcome {
        converged: converged_at.is_some(),
        output: output.map(Output::as_bool),
        interactions,
        interactions_to_convergence: converged_at,
        parallel_time: converged_at.map(|i| i as f64 / population as f64),
        population,
    }
}

/// Runs any [`SimulationEngine`] until the convergence criterion holds or
/// `max_interactions` interactions have been simulated.
///
/// The criterion is evaluated at the engine's
/// [`check_granularity`](SimulationEngine::check_granularity): every
/// interaction for the sequential engine (matching the exact semantics the
/// tests rely on), every batch for the batched engine.  Engines stop
/// advancing once the configuration is silent — a silent configuration can
/// never change, so the outcome is decided at that point: a silent consensus
/// persists forever, a silent disagreement never converges.
pub fn run_until_convergence<E: SimulationEngine>(
    sim: &mut E,
    criterion: ConvergenceCriterion,
    max_interactions: u64,
) -> ConvergenceOutcome {
    let mut stopping = Stopping::new(criterion, max_interactions, sim.check_granularity());
    let converged_at = loop {
        let next = stopping.next(
            sim.interactions(),
            || sim.is_silent(),
            || sim.current_output().is_some(),
        );
        match next {
            Next::Stop(converged_at) => break converged_at,
            Next::Advance(budget) => {
                let advanced = sim.advance(budget);
                debug_assert!(advanced > 0, "a non-silent engine advances");
            }
        }
    };
    outcome(
        sim.population(),
        sim.interactions(),
        sim.current_output(),
        converged_at,
    )
}

/// Runs every lane of an [`EnsembleSimulator`] until the convergence
/// criterion holds for that lane (or its budget of `max_interactions` runs
/// out), retiring lanes as they finish.
///
/// Each round checks every live lane with the stopping rule of
/// [`run_until_convergence`], finalises and retires the lanes that are done
/// (compacting the ensemble, so later waves only pay for live
/// trajectories), and advances the survivors by their per-lane chunk
/// budgets in lockstep.  Because lane RNG streams never mix and retirement
/// only moves cells, every lane's outcome is identical to running
/// `run_until_convergence(&mut BatchedSimulator::new(p, ic, seed), ..)`
/// with that lane's seed — `tests/ensemble_equivalence.rs` pins this.
///
/// Returns one [`ConvergenceOutcome`] per lane, indexed by the lane's
/// *original* ensemble position (i.e. the order of the seeds passed to
/// [`EnsembleSimulator::new`]), regardless of retirement order.
pub fn run_ensemble_until_convergence(
    sim: &mut EnsembleSimulator,
    criterion: ConvergenceCriterion,
    max_interactions: u64,
) -> Vec<ConvergenceOutcome> {
    drive_ensemble(sim, criterion, max_interactions, |_, _| {})
}

/// [`run_ensemble_until_convergence`] with a progress observer, called
/// after every check-and-retire round with the number of lanes finished
/// and the interactions simulated across all lanes, live and retired.  The
/// observer cannot touch the ensemble, so it can never change a wave, a
/// budget or an RNG draw.
fn drive_ensemble(
    sim: &mut EnsembleSimulator,
    criterion: ConvergenceCriterion,
    max_interactions: u64,
    mut observe: impl FnMut(usize, u64),
) -> Vec<ConvergenceOutcome> {
    let population = sim.population();
    let total = sim.lanes();
    // One rule per lane, indexed by original lane id so it survives
    // compaction.
    let rule = Stopping::new(criterion, max_interactions, sim.check_granularity());
    let mut stopping = vec![rule; total];
    let mut outcomes: Vec<Option<ConvergenceOutcome>> = vec![None; total];
    // Interactions banked by retired lanes (their cells are gone, but the
    // progress reports still count them).
    let mut retired_interactions = 0u64;

    loop {
        // One budget per live lane; a finished lane's slot is removed with
        // the lane, so the survivors' budgets follow their cells.
        let mut budgets = Vec::with_capacity(sim.lanes());
        let mut finished = Vec::new();
        for lane in 0..sim.lanes() {
            let id = sim.lane_id(lane);
            let interactions = sim.lane_interactions(lane);
            let next = stopping[id].next(
                interactions,
                || sim.lane_is_silent(lane),
                || sim.lane_output(lane).is_some(),
            );
            match next {
                Next::Stop(converged_at) => {
                    retired_interactions += interactions;
                    let output = sim.lane_output(lane);
                    outcomes[id] = Some(outcome(population, interactions, output, converged_at));
                    finished.push(lane);
                    budgets.push(0);
                }
                Next::Advance(budget) => budgets.push(budget),
            }
        }
        // Retire in descending index order so swap-removal never disturbs a
        // lane still awaiting retirement.
        for &lane in finished.iter().rev() {
            sim.retire_lane(lane);
            budgets.swap_remove(lane);
        }
        let live = sim.lanes();
        let live_interactions: u64 = (0..live).map(|lane| sim.lane_interactions(lane)).sum();
        observe(total - live, retired_interactions + live_interactions);
        if live == 0 {
            break;
        }
        let advanced = sim.advance_all(&budgets);
        debug_assert!(
            advanced.iter().all(|&a| a > 0),
            "a non-silent lane advances"
        );
    }

    outcomes
        .into_iter()
        .map(|o| o.expect("every lane was finalised"))
        .collect()
}

/// The shard partition of the threads × lanes drivers: `seeds` in at most
/// `shards` contiguous blocks of `⌈len / shards⌉` seeds, in seed order
/// (`shards == 0`: one block per worker of the global pool).
fn shard_blocks(seeds: &[u64], shards: usize) -> Vec<Vec<u64>> {
    let shards = match shards {
        0 => popproto_exec::global().workers(),
        s => s,
    }
    .max(1);
    seeds
        .chunks(seeds.len().div_ceil(shards).max(1))
        .map(<[u64]>::to_vec)
        .collect()
}

/// Threads × lanes: runs one logical `seeds.len()`-lane ensemble as
/// `shards` contiguous lane sub-blocks, each a private [`EnsembleSimulator`]
/// advanced to convergence on the process-wide persistent worker pool
/// ([`popproto_exec::global`]).
///
/// Because lane `i` of *any* ensemble is bit-identical to a solo batched
/// run with seed `seeds[i]` (the lane-equivalence contract), splitting the
/// lanes across shards cannot change a single outcome: the result is
/// bit-identical to `run_ensemble_until_convergence` over one unsharded
/// ensemble, for every `shards` value — `tests/sharded_equivalence.rs` pins
/// this.  `shards == 0` auto-detects (one shard per pool worker); the
/// shard→seed assignment is contiguous chunks in seed order, so it is a
/// pure function of the inputs.
///
/// Returns one [`ConvergenceOutcome`] per seed, in seed order.
pub fn run_sharded_ensemble_until_convergence(
    protocol: &Protocol,
    initial: &Config,
    seeds: &[u64],
    shards: usize,
    criterion: ConvergenceCriterion,
    max_interactions: u64,
) -> Vec<ConvergenceOutcome> {
    drive_shards(
        protocol,
        initial,
        seeds,
        shards,
        criterion,
        max_interactions,
        None,
    )
}

/// [`run_sharded_ensemble_until_convergence`] with streaming JSONL
/// progress.
///
/// Every shard reports its progress after each check round into shared
/// atomics; whichever shard finds the heartbeat due (and uncontended)
/// emits one line aggregating all shards:
///
/// ```json
/// {"kind":"ensemble_heartbeat","seq":0,"elapsed_s":1.25,
///  "lanes_total":16,"lanes_finished":9,"shards":4,
///  "interactions":123456,"interactions_per_s":98765.0}
/// ```
///
/// A final line (`"final":true`, plus `lanes_converged`) is always
/// emitted after the drive completes, whatever the period.  The
/// heartbeat is a **pure observer** — emission can never change a wave,
/// a budget or an RNG draw — so the returned outcomes are bit-identical
/// to [`run_sharded_ensemble_until_convergence`] for every shard count
/// and every heartbeat period.
pub fn run_sharded_ensemble_with_heartbeat(
    protocol: &Protocol,
    initial: &Config,
    seeds: &[u64],
    shards: usize,
    criterion: ConvergenceCriterion,
    max_interactions: u64,
    heartbeat: &Arc<Mutex<obs::Heartbeat>>,
) -> Vec<ConvergenceOutcome> {
    drive_shards(
        protocol,
        initial,
        seeds,
        shards,
        criterion,
        max_interactions,
        Some(heartbeat),
    )
}

/// Per-shard progress cells of a heartbeat-observed drive, aggregated by
/// whichever shard emits.
struct ShardProgress {
    heartbeat: Arc<Mutex<obs::Heartbeat>>,
    lanes_total: usize,
    finished: Vec<AtomicU64>,
    interactions: Vec<AtomicU64>,
}

impl ShardProgress {
    /// Records shard `shard`'s progress and emits a heartbeat line if one
    /// is due.
    fn report(&self, shard: usize, finished: usize, interactions: u64) {
        self.finished[shard].store(finished as u64, Ordering::Relaxed);
        self.interactions[shard].store(interactions, Ordering::Relaxed);
        // try_lock: a contended heartbeat just means another shard is
        // emitting this very line — skip, never block the wave loop.
        let Ok(mut hb) = self.heartbeat.try_lock() else {
            return;
        };
        if hb.due() {
            self.emit(&mut hb, None);
        }
    }

    /// Emits one line aggregating every shard's cells; the final line also
    /// carries the number of converged lanes.
    fn emit(&self, hb: &mut obs::Heartbeat, converged: Option<usize>) {
        let sum =
            |cells: &[AtomicU64]| -> u64 { cells.iter().map(|c| c.load(Ordering::Relaxed)).sum() };
        let (done, inter) = (sum(&self.finished), sum(&self.interactions));
        let elapsed = hb.elapsed_s();
        let rate = if elapsed > 0.0 {
            inter as f64 / elapsed
        } else {
            0.0
        };
        let (converged, last) = match converged {
            Some(c) => (format!("\"lanes_converged\":{c},"), ",\"final\":true"),
            None => (String::new(), ""),
        };
        let line = format!(
            "{{\"kind\":\"ensemble_heartbeat\",\"seq\":{},\"elapsed_s\":{elapsed:.3},\
             \"lanes_total\":{},\"lanes_finished\":{done},{converged}\
             \"shards\":{},\"interactions\":{inter},\"interactions_per_s\":{rate:.1}{last}}}",
            hb.seq(),
            self.lanes_total,
            self.finished.len(),
        );
        hb.emit(&line);
    }
}

/// The body of both sharded drivers: one private ensemble per shard block,
/// on the calling thread when there is one block and on the global pool
/// otherwise, observed by `heartbeat` when there is one.
fn drive_shards(
    protocol: &Protocol,
    initial: &Config,
    seeds: &[u64],
    shards: usize,
    criterion: ConvergenceCriterion,
    max_interactions: u64,
    heartbeat: Option<&Arc<Mutex<obs::Heartbeat>>>,
) -> Vec<ConvergenceOutcome> {
    if seeds.is_empty() {
        return Vec::new();
    }
    let mut blocks = shard_blocks(seeds, shards);
    let progress = heartbeat.map(|heartbeat| {
        Arc::new(ShardProgress {
            heartbeat: Arc::clone(heartbeat),
            lanes_total: seeds.len(),
            finished: blocks.iter().map(|_| AtomicU64::new(0)).collect(),
            interactions: blocks.iter().map(|_| AtomicU64::new(0)).collect(),
        })
    });
    // The pool's jobs are 'static: share the protocol and configuration.
    let (protocol, initial) = (Arc::new(protocol.clone()), Arc::new(initial.clone()));
    let drive_block = {
        let progress = progress.clone();
        move |shard: usize, block: Vec<u64>| {
            let mut sim = EnsembleSimulator::new((*protocol).clone(), (*initial).clone(), &block);
            drive_ensemble(&mut sim, criterion, max_interactions, |finished, inter| {
                if let Some(progress) = &progress {
                    progress.report(shard, finished, inter);
                }
            })
        }
    };
    let outcomes: Vec<ConvergenceOutcome> = if blocks.len() == 1 {
        drive_block(0, blocks.remove(0))
    } else {
        let per_block = popproto_exec::global().map(blocks, move |shard, block| {
            let _shard_span = obs::span_with_arg("shard", "shard", shard as u64);
            drive_block(shard, block)
        });
        per_block.into_iter().flatten().collect()
    };

    // Final line: the aggregate cells are complete now, and the converged
    // count is exact.
    if let Some(progress) = &progress {
        let converged = outcomes.iter().filter(|o| o.converged).count();
        let mut hb = progress.heartbeat.lock().expect("heartbeat poisoned");
        progress.emit(&mut hb, Some(converged));
    }
    outcomes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batched::BatchedSimulator;
    use crate::engine::Simulator;
    use popproto_zoo::{binary_counter, flock};

    #[test]
    fn silent_criterion_on_flock() {
        let p = flock(3);
        let mut sim = Simulator::new(p.clone(), p.initial_config_unary(5), 21);
        let outcome = run_until_convergence(&mut sim, ConvergenceCriterion::Silent, 200_000);
        assert!(outcome.converged);
        assert_eq!(outcome.output, Some(true)); // 5 ≥ 3
        assert_eq!(outcome.population, 5);
        assert!(outcome.parallel_time.unwrap() > 0.0);
        assert!(outcome.interactions_to_convergence.unwrap() <= outcome.interactions);
    }

    #[test]
    fn silent_criterion_on_binary_counter_accepting_input() {
        let p = binary_counter(3); // x ≥ 8
        let mut sim = Simulator::new(p.clone(), p.initial_config_unary(20), 3);
        let outcome = run_until_convergence(&mut sim, ConvergenceCriterion::Silent, 500_000);
        assert!(outcome.converged);
        assert_eq!(outcome.output, Some(true));
    }

    #[test]
    fn consensus_persistence_is_a_one_sided_heuristic() {
        // With a tiny window the heuristic fires on the initial (false)
        // consensus of an accepting input — this documents why Silent is the
        // criterion of choice for threshold protocols.
        let p = binary_counter(3);
        let mut sim = Simulator::new(p.clone(), p.initial_config_unary(20), 3);
        let outcome = run_until_convergence(
            &mut sim,
            ConvergenceCriterion::ConsensusPersistence { window: 1 },
            500_000,
        );
        assert!(outcome.converged);
        assert_eq!(outcome.interactions_to_convergence, Some(0));
    }

    #[test]
    fn rejecting_inputs_converge_to_false() {
        let p = binary_counter(3); // x ≥ 8
        let mut sim = Simulator::new(p.clone(), p.initial_config_unary(5), 17);
        let outcome = run_until_convergence(
            &mut sim,
            ConvergenceCriterion::ConsensusPersistence { window: 500 },
            200_000,
        );
        // 5 < 8: the consensus (all agents in 0-output states) is reached and persists.
        assert!(outcome.converged);
        assert_eq!(outcome.output, Some(false));
    }

    #[test]
    fn budget_exhaustion_reports_no_convergence() {
        let p = binary_counter(4);
        let mut sim = Simulator::new(p.clone(), p.initial_config_unary(100), 5);
        let outcome = run_until_convergence(&mut sim, ConvergenceCriterion::Silent, 10);
        assert!(!outcome.converged);
        assert_eq!(outcome.interactions, 10);
        assert!(outcome.parallel_time.is_none());
    }

    #[test]
    fn batched_engine_satisfies_the_silent_criterion() {
        let p = flock(3);
        let mut sim = BatchedSimulator::new(p.clone(), p.initial_config_unary(20_000), 21);
        let outcome = run_until_convergence(&mut sim, ConvergenceCriterion::Silent, u64::MAX);
        assert!(outcome.converged);
        assert_eq!(outcome.output, Some(true));
        assert_eq!(outcome.population, 20_000);
    }

    /// Drives `seeds` as one ensemble and asserts every lane's outcome
    /// equals a solo batched run with its seed.
    fn assert_lanes_match_solo_runs(
        p: &Protocol,
        ic: &Config,
        seeds: &[u64],
        criterion: ConvergenceCriterion,
    ) {
        let mut ens = EnsembleSimulator::new(p.clone(), ic.clone(), seeds);
        let outcomes = run_ensemble_until_convergence(&mut ens, criterion, u64::MAX);
        assert_eq!(outcomes.len(), seeds.len());
        for (lane, &seed) in outcomes.iter().zip(seeds) {
            let mut solo = BatchedSimulator::new(p.clone(), ic.clone(), seed);
            let scalar = run_until_convergence(&mut solo, criterion, u64::MAX);
            assert_eq!(lane.converged, scalar.converged, "seed {seed}");
            assert_eq!(lane.output, scalar.output);
            assert_eq!(lane.interactions, scalar.interactions);
            assert_eq!(
                lane.interactions_to_convergence,
                scalar.interactions_to_convergence
            );
        }
    }

    #[test]
    fn ensemble_runner_matches_scalar_runner_per_lane() {
        let p = flock(3);
        let ic = p.initial_config_unary(20_000);
        assert_lanes_match_solo_runs(&p, &ic, &[21, 22, 23], ConvergenceCriterion::Silent);
    }

    #[test]
    fn ensemble_runner_matches_scalar_runner_under_persistence() {
        let p = binary_counter(3);
        let ic = p.initial_config_unary(5_000);
        let criterion = ConvergenceCriterion::ConsensusPersistence { window: 10_000 };
        assert_lanes_match_solo_runs(&p, &ic, &[9, 10, 11, 12], criterion);
    }

    #[test]
    fn ensemble_runner_respects_the_interaction_budget() {
        let p = binary_counter(4);
        let ic = p.initial_config_unary(5_000);
        let mut ens = EnsembleSimulator::new(p.clone(), ic, &[5, 6]);
        let outcomes =
            run_ensemble_until_convergence(&mut ens, ConvergenceCriterion::Silent, 1_000);
        for o in &outcomes {
            assert!(!o.converged);
            assert!(o.interactions >= 1_000);
            assert!(o.parallel_time.is_none());
        }
    }

    #[test]
    fn batched_engine_supports_persistence_criterion() {
        let p = binary_counter(3);
        let mut sim = BatchedSimulator::new(p.clone(), p.initial_config_unary(5_000), 9);
        let outcome = run_until_convergence(
            &mut sim,
            ConvergenceCriterion::ConsensusPersistence { window: 10_000 },
            u64::MAX,
        );
        // 5000 ≥ 8: converges to a true consensus and goes silent.
        assert!(outcome.converged);
        assert_eq!(outcome.output, Some(true));
    }
}
