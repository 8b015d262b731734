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
    let population = sim.population();
    let mut consensus_since: Option<u64> = None;
    let mut converged_at: Option<u64> = None;

    loop {
        let interactions = sim.interactions();
        if converged_at.is_none() {
            match criterion {
                ConvergenceCriterion::Silent => {
                    if sim.is_silent() {
                        converged_at = Some(interactions);
                    }
                }
                ConvergenceCriterion::ConsensusPersistence { window } => {
                    if sim.current_output().is_some() {
                        let since = *consensus_since.get_or_insert(interactions);
                        if interactions - since >= window {
                            converged_at = Some(since);
                        } else if sim.is_silent() {
                            // Silent consensus: it trivially persists.
                            converged_at = Some(since);
                        }
                    } else {
                        consensus_since = None;
                        if sim.is_silent() {
                            // Silent disagreement: it can never converge.
                            break;
                        }
                    }
                }
            }
        }
        if converged_at.is_some() || interactions >= max_interactions {
            break;
        }
        let chunk = match criterion {
            // Engines stop at silence on their own; no finer checks needed.
            ConvergenceCriterion::Silent => max_interactions - interactions,
            ConvergenceCriterion::ConsensusPersistence { window } => {
                let until_window = match consensus_since {
                    Some(since) => window - (interactions - since),
                    None => sim.check_granularity(),
                };
                until_window
                    .max(1)
                    .min(sim.check_granularity().max(1))
                    .min(max_interactions - interactions)
            }
        };
        let advanced = sim.advance(chunk);
        if advanced == 0 {
            // Silent: no further progress is possible; decide at the top of
            // the next loop iteration.
            if sim.current_output().is_none() {
                break;
            }
        }
    }

    let output = sim.current_output().map(Output::as_bool);
    ConvergenceOutcome {
        converged: converged_at.is_some(),
        output,
        interactions: sim.interactions(),
        interactions_to_convergence: converged_at,
        parallel_time: converged_at.map(|i| i as f64 / population as f64),
        population,
    }
}

/// Runs every lane of an [`EnsembleSimulator`] until the convergence
/// criterion holds for that lane (or its budget of `max_interactions` runs
/// out), retiring lanes as they finish.
///
/// This is the per-lane transliteration of [`run_until_convergence`]: each
/// round checks the criterion on every live lane exactly as the scalar
/// driver would, finalises and retires the lanes that are done (compacting
/// the ensemble, so later waves only pay for live trajectories), and
/// advances the survivors by their per-lane chunk budgets in lockstep.
/// Because lane RNG streams never mix and retirement only moves cells,
/// every lane's outcome is identical to running
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
    run_ensemble_until_convergence_observed(sim, criterion, max_interactions, |_| {})
}

/// A progress snapshot of one ensemble convergence drive, handed to the
/// observer of [`run_ensemble_until_convergence_observed`] after each
/// check/retire pass.
#[derive(Debug, Clone, Copy)]
pub struct EnsembleProgress {
    /// Lanes the drive started with.
    pub lanes_total: usize,
    /// Lanes still advancing.
    pub lanes_live: usize,
    /// Lanes already finalised (converged, stuck, or out of budget).
    pub lanes_finished: usize,
    /// Lockstep waves executed so far.
    pub waves: u64,
    /// Total interactions simulated across all lanes (live and retired).
    pub interactions: u64,
}

/// [`run_ensemble_until_convergence`] with a progress observer.
///
/// `observe` fires after every check/retire pass with a read-only
/// snapshot.  It is a **pure observer**: the wave structure, per-lane
/// chunk budgets and RNG consumption are computed exactly as in the
/// unobserved drive, so the outcomes are bit-identical whether or not an
/// observer is attached (the sharded-equivalence suite pins this).
pub fn run_ensemble_until_convergence_observed<F: FnMut(&EnsembleProgress)>(
    sim: &mut EnsembleSimulator,
    criterion: ConvergenceCriterion,
    max_interactions: u64,
    mut observe: F,
) -> Vec<ConvergenceOutcome> {
    let population = sim.population();
    let total = sim.lanes();
    let check_granularity = (population / 2).max(1);
    let mut outcomes: Vec<Option<ConvergenceOutcome>> = vec![None; total];
    // Indexed by original lane id, so it survives compaction.
    let mut consensus_since: Vec<Option<u64>> = vec![None; total];
    // Interactions banked by retired lanes (their cells are gone, but
    // the progress reports still count them).
    let mut retired_interactions = 0u64;

    let finalize =
        |sim: &EnsembleSimulator, lane: usize, converged_at: Option<u64>| ConvergenceOutcome {
            converged: converged_at.is_some(),
            output: sim.lane_output(lane).map(Output::as_bool),
            interactions: sim.lane_interactions(lane),
            interactions_to_convergence: converged_at,
            parallel_time: converged_at.map(|i| i as f64 / population as f64),
            population,
        };

    while sim.lanes() > 0 {
        // Check pass: evaluate the criterion on every live lane; collect the
        // lanes whose scalar loop would break here.
        let mut finished: Vec<usize> = Vec::new();
        for lane in 0..sim.lanes() {
            let id = sim.lane_id(lane);
            let interactions = sim.lane_interactions(lane);
            let mut converged_at: Option<u64> = None;
            let mut silent_disagreement = false;
            match criterion {
                ConvergenceCriterion::Silent => {
                    if sim.lane_is_silent(lane) {
                        converged_at = Some(interactions);
                    }
                }
                ConvergenceCriterion::ConsensusPersistence { window } => {
                    if sim.lane_output(lane).is_some() {
                        let since = *consensus_since[id].get_or_insert(interactions);
                        if interactions - since >= window || sim.lane_is_silent(lane) {
                            converged_at = Some(since);
                        }
                    } else {
                        consensus_since[id] = None;
                        silent_disagreement = sim.lane_is_silent(lane);
                    }
                }
            }
            if converged_at.is_some() || silent_disagreement || interactions >= max_interactions {
                retired_interactions += interactions;
                outcomes[id] = Some(finalize(sim, lane, converged_at));
                finished.push(lane);
            }
        }
        // Retire in descending index order so swap-removal never disturbs a
        // lane still awaiting retirement.
        for &lane in finished.iter().rev() {
            sim.retire_lane(lane);
        }
        let live = sim.lanes();
        let live_interactions: u64 = (0..live).map(|lane| sim.lane_interactions(lane)).sum();
        observe(&EnsembleProgress {
            lanes_total: total,
            lanes_live: live,
            lanes_finished: total - live,
            waves: sim.phase_breakdown().waves,
            interactions: retired_interactions + live_interactions,
        });
        if sim.lanes() == 0 {
            break;
        }

        // Budget pass: each survivor gets the chunk the scalar driver would
        // request, then all lanes advance in lockstep.
        let mut budgets = vec![0u64; sim.lanes()];
        for (lane, budget) in budgets.iter_mut().enumerate() {
            let id = sim.lane_id(lane);
            let interactions = sim.lane_interactions(lane);
            *budget = match criterion {
                ConvergenceCriterion::Silent => max_interactions - interactions,
                ConvergenceCriterion::ConsensusPersistence { window } => {
                    let until_window = match consensus_since[id] {
                        Some(since) => window - (interactions - since),
                        None => check_granularity,
                    };
                    until_window
                        .max(1)
                        .min(check_granularity)
                        .min(max_interactions - interactions)
                }
            };
        }
        let advanced = sim.advance_all(&budgets);

        // Zero-advance pass: a lane that cannot progress and holds no
        // consensus will never converge (mirrors the scalar driver's break).
        let mut stuck: Vec<usize> = Vec::new();
        for lane in 0..sim.lanes() {
            if advanced[lane] == 0 && sim.lane_output(lane).is_none() {
                retired_interactions += sim.lane_interactions(lane);
                outcomes[sim.lane_id(lane)] = Some(finalize(sim, lane, None));
                stuck.push(lane);
            }
        }
        for &lane in stuck.iter().rev() {
            sim.retire_lane(lane);
        }
    }

    outcomes
        .into_iter()
        .map(|o| o.expect("every lane was finalised"))
        .collect()
}

/// The shard partition of the threads × lanes drivers: `seeds` in at most
/// `shards` contiguous blocks of `⌈len / shards⌉` seeds, in seed order
/// (`shards == 0`: one block per worker of the global pool).
pub(crate) fn shard_blocks(seeds: &[u64], shards: usize) -> Vec<Vec<u64>> {
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
    if seeds.is_empty() {
        return Vec::new();
    }
    let blocks = shard_blocks(seeds, shards);
    if blocks.len() == 1 {
        let mut sim = EnsembleSimulator::new(protocol.clone(), initial.clone(), seeds);
        return run_ensemble_until_convergence(&mut sim, criterion, max_interactions);
    }
    // The pool's jobs are 'static: share the protocol and configuration.
    let protocol = Arc::new(protocol.clone());
    let initial = Arc::new(initial.clone());
    let per_block = popproto_exec::global().map(blocks, move |shard, block| {
        let _shard_span = obs::span_with_arg("shard", "shard", shard as u64);
        let mut sim = EnsembleSimulator::new((*protocol).clone(), (*initial).clone(), &block);
        run_ensemble_until_convergence(&mut sim, criterion, max_interactions)
    });
    per_block.into_iter().flatten().collect()
}

/// [`run_sharded_ensemble_until_convergence`] with streaming JSONL
/// progress.
///
/// Every shard reports its check-pass snapshots into shared atomics;
/// whichever shard finds the heartbeat due (and uncontended) emits one
/// line aggregating all shards:
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
    if seeds.is_empty() {
        return Vec::new();
    }
    let blocks = shard_blocks(seeds, shards);
    let lanes_total = seeds.len();
    let shard_count = blocks.len();

    // Per-shard progress cells, aggregated by whichever shard emits.
    let finished: Arc<Vec<AtomicU64>> =
        Arc::new((0..shard_count).map(|_| AtomicU64::new(0)).collect());
    let interactions: Arc<Vec<AtomicU64>> =
        Arc::new((0..shard_count).map(|_| AtomicU64::new(0)).collect());

    let emit = {
        let finished = Arc::clone(&finished);
        let interactions = Arc::clone(&interactions);
        let heartbeat = Arc::clone(heartbeat);
        move || {
            // try_lock: a contended heartbeat just means another shard is
            // emitting this very line — skip, never block the wave loop.
            let Ok(mut hb) = heartbeat.try_lock() else {
                return;
            };
            if !hb.due() {
                return;
            }
            let done: u64 = finished.iter().map(|c| c.load(Ordering::Relaxed)).sum();
            let inter: u64 = interactions.iter().map(|c| c.load(Ordering::Relaxed)).sum();
            let elapsed = hb.elapsed_s();
            let rate = if elapsed > 0.0 {
                inter as f64 / elapsed
            } else {
                0.0
            };
            let line = format!(
                "{{\"kind\":\"ensemble_heartbeat\",\"seq\":{},\"elapsed_s\":{elapsed:.3},\
                 \"lanes_total\":{lanes_total},\"lanes_finished\":{done},\
                 \"shards\":{shard_count},\"interactions\":{inter},\
                 \"interactions_per_s\":{rate:.1}}}",
                hb.seq(),
            );
            hb.emit(&line);
        }
    };

    let per_block = if shard_count == 1 {
        let mut sim = EnsembleSimulator::new(protocol.clone(), initial.clone(), &blocks[0]);
        let observe = |p: &EnsembleProgress| {
            finished[0].store(p.lanes_finished as u64, Ordering::Relaxed);
            interactions[0].store(p.interactions, Ordering::Relaxed);
            emit();
        };
        vec![run_ensemble_until_convergence_observed(
            &mut sim,
            criterion,
            max_interactions,
            observe,
        )]
    } else {
        let protocol = Arc::new(protocol.clone());
        let initial = Arc::new(initial.clone());
        let finished = Arc::clone(&finished);
        let interactions = Arc::clone(&interactions);
        let emit = emit.clone();
        popproto_exec::global().map(blocks, move |shard, block| {
            let _shard_span = obs::span_with_arg("shard", "shard", shard as u64);
            let mut sim = EnsembleSimulator::new((*protocol).clone(), (*initial).clone(), &block);
            let observe = |p: &EnsembleProgress| {
                finished[shard].store(p.lanes_finished as u64, Ordering::Relaxed);
                interactions[shard].store(p.interactions, Ordering::Relaxed);
                emit();
            };
            run_ensemble_until_convergence_observed(&mut sim, criterion, max_interactions, observe)
        })
    };

    let outcomes: Vec<ConvergenceOutcome> = per_block.into_iter().flatten().collect();

    // Final line: the aggregate cells are complete now, and the converged
    // count is exact.
    {
        let converged = outcomes.iter().filter(|o| o.converged).count();
        let done: u64 = finished.iter().map(|c| c.load(Ordering::Relaxed)).sum();
        let inter: u64 = interactions.iter().map(|c| c.load(Ordering::Relaxed)).sum();
        let mut hb = heartbeat.lock().expect("heartbeat poisoned");
        let elapsed = hb.elapsed_s();
        let rate = if elapsed > 0.0 {
            inter as f64 / elapsed
        } else {
            0.0
        };
        let line = format!(
            "{{\"kind\":\"ensemble_heartbeat\",\"seq\":{},\"elapsed_s\":{elapsed:.3},\
             \"lanes_total\":{lanes_total},\"lanes_finished\":{done},\
             \"lanes_converged\":{converged},\"shards\":{shard_count},\
             \"interactions\":{inter},\"interactions_per_s\":{rate:.1},\"final\":true}}",
            hb.seq(),
        );
        hb.emit(&line);
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

    #[test]
    fn ensemble_runner_matches_scalar_runner_per_lane() {
        let p = flock(3);
        let ic = p.initial_config_unary(20_000);
        let seeds = [21u64, 22, 23];
        let mut ens = EnsembleSimulator::new(p.clone(), ic.clone(), &seeds);
        let outcomes =
            run_ensemble_until_convergence(&mut ens, ConvergenceCriterion::Silent, u64::MAX);
        assert_eq!(outcomes.len(), seeds.len());
        for (i, &seed) in seeds.iter().enumerate() {
            let mut solo = BatchedSimulator::new(p.clone(), ic.clone(), seed);
            let scalar = run_until_convergence(&mut solo, ConvergenceCriterion::Silent, u64::MAX);
            assert_eq!(outcomes[i].converged, scalar.converged, "seed {seed}");
            assert_eq!(outcomes[i].output, scalar.output);
            assert_eq!(outcomes[i].interactions, scalar.interactions);
            assert_eq!(
                outcomes[i].interactions_to_convergence,
                scalar.interactions_to_convergence
            );
        }
    }

    #[test]
    fn ensemble_runner_matches_scalar_runner_under_persistence() {
        let p = binary_counter(3);
        let ic = p.initial_config_unary(5_000);
        let seeds = [9u64, 10, 11, 12];
        let criterion = ConvergenceCriterion::ConsensusPersistence { window: 10_000 };
        let mut ens = EnsembleSimulator::new(p.clone(), ic.clone(), &seeds);
        let outcomes = run_ensemble_until_convergence(&mut ens, criterion, u64::MAX);
        for (i, &seed) in seeds.iter().enumerate() {
            let mut solo = BatchedSimulator::new(p.clone(), ic.clone(), seed);
            let scalar = run_until_convergence(&mut solo, criterion, u64::MAX);
            assert_eq!(outcomes[i].converged, scalar.converged, "seed {seed}");
            assert_eq!(outcomes[i].output, scalar.output);
            assert_eq!(outcomes[i].interactions, scalar.interactions);
            assert_eq!(
                outcomes[i].interactions_to_convergence,
                scalar.interactions_to_convergence
            );
        }
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
