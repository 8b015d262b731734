//! The lockstep ensemble engine: many trajectories of one protocol.
//!
//! Statistical workloads (convergence-time distributions, majority-gap
//! sweeps, phase portraits) need hundreds of trajectories of the *same*
//! protocol.  [`EnsembleSimulator`] holds K trajectories ("lanes") that
//! share one compiled protocol and birthday sampler, and advances them in
//! *waves*: each wave runs one batch of every participating lane, phase by
//! phase across the ensemble, which is what lets the wave report where its
//! time goes ([`WavePhaseBreakdown`]).  A lane is a [`BatchedSimulator`]'s
//! own per-trajectory state — its RNG and counters — plus a cell of
//! `3·|Q|` words (`counts | initiators | responders`) in one flat,
//! lane-major vector, so the ensemble allocates nothing per lane.
//!
//! # Bit-reproducibility
//!
//! Lane `i` carries its own RNG stream, `StdRng::seed_from_u64(seed_i)`,
//! and each phase of a wave calls the very method a solo
//! [`BatchedSimulator`] calls for that step of its batch (birthday plan,
//! initiator/responder split, pairing with candidate splits and deltas,
//! collision step).  So **lane `i` of a K-lane ensemble is bit-identical to
//! an independent `BatchedSimulator` with the same seed, for every K**, by
//! construction — the cross-lane processing order is free because streams
//! never mix.  The equivalence is pinned by `tests/ensemble_equivalence.rs`.
//!
//! # Retirement and compaction
//!
//! Converged lanes drop out: [`EnsembleSimulator::retire_lane`] swap-removes
//! the lane (its RNG, counters, seed and flags) and moves the last lane's
//! cell into its slot, so the active lanes always occupy the prefix
//! `0..lanes()` and waves never touch retired lanes.  The mapping back to
//! the original ensemble position is kept in [`EnsembleSimulator::lane_id`].
//! Retirement never perturbs surviving lanes — their cells are copied, not
//! recomputed — which is the invariant that keeps lane equivalence true
//! across compaction.
//!
//! [`BatchedSimulator`]: crate::BatchedSimulator

use crate::batched::{Lane, Shared};
use popproto_model::{Config, Output, Protocol};
use popproto_obs as obs;

/// Phase slot order of the ensemble's [`obs::Phases`] accumulator; the
/// indices below must match.
const WAVE_PHASES: &[&str] = &[
    "classification",
    "split",
    "pairing",
    "apply",
    "collision",
    "silence",
];
const PH_CLASSIFICATION: usize = 0;
const PH_SPLIT: usize = 1;
const PH_PAIRING: usize = 2;
const PH_APPLY: usize = 3;
const PH_COLLISION: usize = 4;
const PH_SILENCE: usize = 5;

/// Cumulative wall-clock time spent in each phase of the lockstep waves,
/// in nanoseconds — the machine-checkable evidence behind pairing-share
/// claims (reported by the `ensemble_1e6` workload of `perfbench` as the
/// `sim.ensemble.*_ns` metrics).
///
/// This is a *view*: the accumulation itself lives in an
/// [`obs::Phases`] (one `Instant::now()` per phase boundary, costing
/// tens of nanoseconds against wave phases that run micro- to
/// milliseconds, so the breakdown is always on — and the same marks draw
/// per-wave flame rows in the chrome trace whenever tracing is enabled).
/// Candidate splits and delta application are counted inside `pairing_ns`
/// (they happen during the pairing pass), and the initiator/responder
/// multivariate-hypergeometric chains share `split_ns`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WavePhaseBreakdown {
    /// Waves timed.
    pub waves: u64,
    /// Phase 0: wave classification plus each batching lane's birthday
    /// draw.
    pub classification_ns: u64,
    /// Phases 1–2: initiator and responder multivariate-hypergeometric
    /// splits, including batch-participant removal.
    pub split_ns: u64,
    /// Phase 3: the O(|Q|²) pairing pass (conditional hypergeometrics and
    /// candidate splits).
    pub pairing_ns: u64,
    /// Phase 4: the done-counter update.  Deltas land during pairing, so
    /// this slot is near zero; it is kept so the breakdown's fields stay
    /// stable.
    pub apply_ns: u64,
    /// Phase 5: per-lane exact collision / sequential steps.
    pub collision_ns: u64,
    /// Phase 6: silence-flag refresh.
    pub silence_ns: u64,
}

impl WavePhaseBreakdown {
    /// Total time across all timed phases.
    pub fn total_ns(&self) -> u64 {
        self.classification_ns
            + self.split_ns
            + self.pairing_ns
            + self.apply_ns
            + self.collision_ns
            + self.silence_ns
    }

    /// Fraction of [`Self::total_ns`] spent in the split phases (the
    /// initiator/responder multivariate-hypergeometric chains) — the
    /// machine-checkable number behind split-wall claims.  Zero when
    /// nothing was timed.
    pub fn split_share(&self) -> f64 {
        let total = self.total_ns();
        if total == 0 {
            0.0
        } else {
            self.split_ns as f64 / total as f64
        }
    }

    /// Fraction of [`Self::total_ns`] spent in the pairing pass (the
    /// O(|Q|²) conditional hypergeometric chains and candidate splits).
    /// Zero when nothing was timed.
    pub fn pairing_share(&self) -> f64 {
        let total = self.total_ns();
        if total == 0 {
            0.0
        } else {
            self.pairing_ns as f64 / total as f64
        }
    }

    /// Publishes the breakdown into the global metrics registry as
    /// gauges `{prefix}.{phase}_ns` plus `{prefix}.waves`.
    pub fn publish(&self, prefix: &str) {
        let reg = obs::registry();
        reg.set_gauge(&format!("{prefix}.waves"), self.waves as i64);
        reg.set_gauge(
            &format!("{prefix}.classification_ns"),
            self.classification_ns as i64,
        );
        reg.set_gauge(&format!("{prefix}.split_ns"), self.split_ns as i64);
        reg.set_gauge(&format!("{prefix}.pairing_ns"), self.pairing_ns as i64);
        reg.set_gauge(&format!("{prefix}.apply_ns"), self.apply_ns as i64);
        reg.set_gauge(&format!("{prefix}.collision_ns"), self.collision_ns as i64);
        reg.set_gauge(&format!("{prefix}.silence_ns"), self.silence_ns as i64);
    }
}

/// K lockstep trajectories of one protocol (see the module docs).
#[derive(Debug, Clone)]
pub struct EnsembleSimulator {
    shared: Shared,
    lanes: Vec<Lane>,
    /// Lane `k`'s cell is `cells[k * w..(k + 1) * w]`, `w = 3·|Q|`.
    cells: Vec<u64>,
    seeds: Vec<u64>,
    /// Original ensemble position of each active lane.
    lane_ids: Vec<usize>,
    silent: Vec<bool>,
    /// This wave's plan per lane: `None` idle (budget spent or silent),
    /// `Some(0)` one exact sequential step, `Some(l)` a batch of `l`
    /// interactions plus the collision step.
    plans: Vec<Option<u64>>,
    /// Cumulative per-phase wave timings (and, when tracing is enabled,
    /// the per-wave phase spans of the chrome trace).
    phases: obs::Phases,
}

impl EnsembleSimulator {
    /// Creates a K-lane ensemble of `protocol` trajectories, all starting at
    /// `initial`, one lane per seed.
    ///
    /// # Panics
    ///
    /// Panics if `seeds` is empty or the initial configuration holds fewer
    /// than two agents.
    pub fn new(protocol: Protocol, initial: Config, seeds: &[u64]) -> Self {
        assert!(!seeds.is_empty(), "an ensemble needs at least one lane");
        let shared = Shared::new(protocol, &initial);
        let k = seeds.len();
        let is_silent = shared.compiled.is_silent_counts(initial.counts());
        EnsembleSimulator {
            cells: shared.cell(&initial).repeat(k),
            shared,
            lanes: seeds.iter().map(|&s| Lane::new(s)).collect(),
            seeds: seeds.to_vec(),
            lane_ids: (0..k).collect(),
            silent: vec![is_silent; k],
            plans: vec![None; k],
            phases: obs::Phases::new(WAVE_PHASES),
        }
    }

    /// The protocol being simulated.
    pub fn protocol(&self) -> &Protocol {
        &self.shared.protocol
    }

    /// The (fixed) number of agents per lane.
    pub fn population(&self) -> u64 {
        self.shared.population
    }

    /// The convergence-check granularity of every lane, as for a solo
    /// [`BatchedSimulator`](crate::BatchedSimulator).
    pub(crate) fn check_granularity(&self) -> u64 {
        self.shared.check_granularity()
    }

    /// The number of active (non-retired) lanes.
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// The original ensemble position of active lane `lane`.
    pub fn lane_id(&self, lane: usize) -> usize {
        self.lane_ids[lane]
    }

    /// The seed of active lane `lane`.
    pub fn lane_seed(&self, lane: usize) -> u64 {
        self.seeds[lane]
    }

    /// Interactions simulated so far by lane `lane`, no-ops included.
    pub fn lane_interactions(&self, lane: usize) -> u64 {
        self.lanes[lane].interactions
    }

    /// Configuration-changing interactions of lane `lane`.
    pub fn lane_effective_interactions(&self, lane: usize) -> u64 {
        self.lanes[lane].effective_interactions
    }

    /// Whether lane `lane` is silent.
    pub fn lane_is_silent(&self, lane: usize) -> bool {
        self.silent[lane]
    }

    /// The cumulative per-phase wave timings since construction (or the
    /// last [`reset_phase_breakdown`](Self::reset_phase_breakdown)), as
    /// a plain-struct view over the [`obs::Phases`] accumulator.
    pub fn phase_breakdown(&self) -> WavePhaseBreakdown {
        WavePhaseBreakdown {
            waves: self.phases.rounds(),
            classification_ns: self.phases.ns(PH_CLASSIFICATION),
            split_ns: self.phases.ns(PH_SPLIT),
            pairing_ns: self.phases.ns(PH_PAIRING),
            apply_ns: self.phases.ns(PH_APPLY),
            collision_ns: self.phases.ns(PH_COLLISION),
            silence_ns: self.phases.ns(PH_SILENCE),
        }
    }

    /// Zeroes the per-phase wave timings (e.g. after warmup).
    pub fn reset_phase_breakdown(&mut self) {
        self.phases.reset();
    }

    /// The per-state counts of lane `lane`.
    pub fn lane_counts(&self, lane: usize) -> &[u64] {
        let w = self.shared.cell_len();
        &self.cells[lane * w..lane * w + self.shared.compiled.num_states()]
    }

    /// A configuration snapshot of lane `lane`.
    pub(crate) fn lane_snapshot(&self, lane: usize) -> Config {
        Config::from_counts(self.lane_counts(lane).to_vec())
    }

    /// The consensus output of lane `lane`, if any.
    pub(crate) fn lane_output(&self, lane: usize) -> Option<Output> {
        self.shared.protocol.output(&self.lane_snapshot(lane))
    }

    /// Retires active lane `lane`: its RNG, counters and identity are
    /// swap-removed and the last lane's cell moves into its slot, so waves
    /// only touch live lanes.  Surviving lanes are moved, never recomputed.
    pub fn retire_lane(&mut self, lane: usize) {
        assert!(lane < self.lanes(), "lane {lane} is not active");
        let last = self.lanes() - 1;
        let w = self.shared.cell_len();
        self.lanes.swap_remove(lane);
        self.seeds.swap_remove(lane);
        self.lane_ids.swap_remove(lane);
        self.silent.swap_remove(lane);
        self.plans.swap_remove(lane);
        self.cells.copy_within(last * w..(last + 1) * w, lane * w);
        self.cells.truncate(last * w);
    }

    /// Advances every active lane by up to its budget (`budgets[k]`
    /// interactions for lane `k`), in lockstep waves.  A lane stops early if
    /// it becomes silent — exactly the contract of
    /// [`BatchedSimulator::advance`](crate::BatchedSimulator).  Returns the
    /// interactions actually simulated per lane.
    pub fn advance_all(&mut self, budgets: &[u64]) -> Vec<u64> {
        assert_eq!(budgets.len(), self.lanes(), "one budget per active lane");
        let mut done = vec![0u64; self.lanes()];
        while (0..self.lanes()).any(|k| done[k] < budgets[k] && !self.silent[k]) {
            self.wave(budgets, &mut done);
        }
        done
    }

    /// Convenience: advances every lane by the same budget.
    pub fn advance_uniform(&mut self, budget: u64) -> Vec<u64> {
        let budgets = vec![budget; self.lanes()];
        self.advance_all(&budgets)
    }

    /// One lockstep wave: every participating lane runs one batch (or one
    /// exact sequential interaction), phase by phase across the ensemble.
    fn wave(&mut self, budgets: &[u64], done: &mut [u64]) {
        let w = self.shared.cell_len();
        let q = self.shared.compiled.num_states();
        let _wave_span = obs::span_with_arg("wave", "lanes", self.lanes() as u64);
        let mut mark = self.phases.begin_round();

        // Phase 0: which lanes take part, and each batching lane's birthday
        // draw.  The budget checks precede any RNG consumption, as in
        // `BatchedSimulator::advance`.
        for (k, (lane, plan)) in self.lanes.iter_mut().zip(&mut self.plans).enumerate() {
            let budget = budgets[k] - done[k];
            *plan = (budget > 0 && !self.silent[k]).then(|| lane.plan(&self.shared, budget));
        }
        self.phases.mark(&mut mark, PH_CLASSIFICATION);

        // Phase 1: initiator and responder splits, removing the
        // participants.
        for ((lane, cell), &plan) in self
            .lanes
            .iter_mut()
            .zip(self.cells.chunks_exact_mut(w))
            .zip(&self.plans)
        {
            if let Some(l @ 1..) = plan {
                lane.split(cell, l);
            }
        }
        self.phases.mark(&mut mark, PH_SPLIT);

        // Phase 2: the pairing pass, applying each pair's deltas.
        for ((lane, cell), &plan) in self
            .lanes
            .iter_mut()
            .zip(self.cells.chunks_exact_mut(w))
            .zip(&self.plans)
        {
            if let Some(l @ 1..) = plan {
                lane.pair(&mut self.shared, cell, l);
            }
        }
        self.phases.mark(&mut mark, PH_PAIRING);

        // Phase 3: the batch lengths count towards each lane's budget.
        for (d, &plan) in done.iter_mut().zip(&self.plans) {
            *d += plan.unwrap_or(0);
        }
        self.phases.mark(&mut mark, PH_APPLY);

        // Phase 4: the collision interaction (batch lanes) / the whole wave
        // (sequential lanes) as one exact sequential step per lane.
        for (((lane, cell), &plan), d) in self
            .lanes
            .iter_mut()
            .zip(self.cells.chunks_exact_mut(w))
            .zip(&self.plans)
            .zip(done.iter_mut())
        {
            if plan.is_some() {
                lane.sequential_step(&self.shared, cell);
                *d += 1;
            }
        }
        self.phases.mark(&mut mark, PH_COLLISION);

        // Phase 5: refresh the silence flag of every participant.
        for ((silent, cell), &plan) in self
            .silent
            .iter_mut()
            .zip(self.cells.chunks_exact(w))
            .zip(&self.plans)
        {
            if plan.is_some() {
                *silent = self.shared.compiled.is_silent_counts(&cell[..q]);
            }
        }
        self.phases.mark(&mut mark, PH_SILENCE);
        self.phases.end_round();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batched::BatchedSimulator;
    use crate::engine_api::SimulationEngine;
    use popproto_zoo::{approximate_majority, binary_counter, flock};

    #[test]
    fn single_lane_matches_batched_simulator() {
        let p = flock(3);
        let ic = p.initial_config_unary(50_000);
        let mut ens = EnsembleSimulator::new(p.clone(), ic.clone(), &[42]);
        let mut solo = BatchedSimulator::new(p, ic, 42);
        for _ in 0..20 {
            ens.advance_uniform(10_000);
            solo.advance(10_000);
            assert_eq!(ens.lane_counts(0), solo.counts());
            assert_eq!(ens.lane_interactions(0), solo.interactions());
            assert_eq!(
                ens.lane_effective_interactions(0),
                solo.effective_interactions()
            );
        }
    }

    #[test]
    fn lanes_are_independent_of_ensemble_width() {
        let p = approximate_majority();
        let ic = p.initial_config(&popproto_model::Input::from_counts(vec![600, 400]));
        let mut wide = EnsembleSimulator::new(p.clone(), ic.clone(), &[7, 8, 9, 10]);
        let mut narrow = EnsembleSimulator::new(p, ic, &[9]);
        wide.advance_uniform(40_000);
        narrow.advance_uniform(40_000);
        assert_eq!(wide.lane_counts(2), narrow.lane_counts(0));
        assert_eq!(wide.lane_interactions(2), narrow.lane_interactions(0));
    }

    #[test]
    fn population_is_invariant_across_waves() {
        let p = approximate_majority();
        let ic = p.initial_config(&popproto_model::Input::from_counts(vec![5_000, 5_000]));
        let mut ens = EnsembleSimulator::new(p, ic, &[1, 2, 3]);
        for _ in 0..30 {
            ens.advance_uniform(3_000);
            for k in 0..ens.lanes() {
                assert_eq!(ens.lane_counts(k).iter().sum::<u64>(), 10_000);
            }
        }
    }

    #[test]
    fn retirement_preserves_survivor_trajectories() {
        let p = binary_counter(3);
        let ic = p.initial_config_unary(20_000);
        let seeds = [11u64, 22, 33, 44, 55];
        let mut ens = EnsembleSimulator::new(p.clone(), ic.clone(), &seeds);
        ens.advance_uniform(50_000);
        // Retire the middle lane, then keep advancing.
        ens.retire_lane(2);
        assert_eq!(ens.lanes(), 4);
        ens.advance_uniform(50_000);
        // Every survivor must still match its solo run bit for bit.
        for k in 0..ens.lanes() {
            let seed = ens.lane_seed(k);
            let mut solo = BatchedSimulator::new(p.clone(), ic.clone(), seed);
            solo.advance(50_000);
            solo.advance(50_000);
            assert_eq!(ens.lane_counts(k), solo.counts(), "seed {seed}");
            assert_eq!(ens.lane_interactions(k), solo.interactions());
        }
    }

    #[test]
    fn small_populations_take_sequential_waves() {
        let p = flock(3);
        let ic = p.initial_config_unary(20);
        let mut ens = EnsembleSimulator::new(p.clone(), ic.clone(), &[5, 6]);
        let done = ens.advance_uniform(50);
        let mut solo = BatchedSimulator::new(p, ic, 6);
        let solo_done = solo.advance(50);
        assert_eq!(done[1], solo_done);
        assert_eq!(ens.lane_counts(1), solo.counts());
    }

    #[test]
    fn silent_lanes_stop_consuming_budget() {
        let p = flock(3);
        let ic = p.initial_config_unary(5_000);
        let mut ens = EnsembleSimulator::new(p, ic, &[1, 2]);
        // Run to silence.
        ens.advance_uniform(u64::MAX);
        assert!(ens.lane_is_silent(0) && ens.lane_is_silent(1));
        let before = [ens.lane_interactions(0), ens.lane_interactions(1)];
        let done = ens.advance_uniform(1_000);
        assert_eq!(done, vec![0, 0]);
        assert_eq!(before, [ens.lane_interactions(0), ens.lane_interactions(1)]);
    }
}
