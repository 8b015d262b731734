//! The lockstep ensemble engine: many trajectories, one table pass.
//!
//! Statistical workloads (convergence-time distributions, majority-gap
//! sweeps, phase portraits) need hundreds of trajectories of the *same*
//! protocol.  Running them as independent [`BatchedSimulator`]s re-walks the
//! |Q|² pair→transition table, re-branches the candidate dispatch and
//! re-touches the same cache lines once per trajectory per batch.
//! [`EnsembleSimulator`] instead stores K trajectories ("lanes") as a
//! structure-of-arrays count matrix `counts[state][lane]` and advances all
//! lanes in *waves*: each wave walks the pair table once, sampling and
//! applying every lane's interaction counts for a table entry before moving
//! to the next entry.  Table walks, branch decisions, candidate lookups,
//! silence scans and delta applications are amortised across the ensemble,
//! and the per-entry delta application is branch-free slice arithmetic over
//! the lane dimension (see [`fused_delta_apply`]), which the compiler
//! autovectorises.
//!
//! # Bit-reproducibility
//!
//! Lane `i` carries its own RNG stream, `StdRng::seed_from_u64(seed_i)` —
//! exactly the stream an independent [`BatchedSimulator`] with the same seed
//! would use.  Every sampler consumes per-lane RNG draws in the same order
//! as the scalar engine (birthday, initiator split, responder split, pairing
//! with interleaved candidate-split binomials in `(a, b)` order, collision
//! step), so **lane `i` of a K-lane ensemble is bit-identical to an
//! independent `BatchedSimulator` with the same seed, for every K** — the
//! cross-lane processing order is free because streams never mix.  The
//! equivalence is pinned by `tests/ensemble_equivalence.rs`.
//!
//! The one intentional difference from the scalar engine is *when* deltas
//! land: the scalar pairing loop applies each entry's deltas to `counts`
//! immediately, but never reads `counts` again until the collision step, so
//! the ensemble may defer all of a wave's deltas into an accumulator matrix
//! and apply them in one fused pass without changing a single bit of the
//! trajectory.
//!
//! # Retirement and compaction
//!
//! Converged lanes drop out: [`EnsembleSimulator::retire_lane`] swap-removes
//! the lane's column from every matrix row (and its RNG, counters and
//! seed), so the active lanes always occupy the prefix `0..lanes()` of each
//! row and wave passes never touch retired columns.  The mapping back to
//! the original ensemble position is kept in [`EnsembleSimulator::lane_id`].
//! Retirement never perturbs surviving lanes — their columns are copied,
//! not recomputed — which is the invariant that keeps lane equivalence true
//! across compaction.
//!
//! [`BatchedSimulator`]: crate::BatchedSimulator

use crate::batched::{birthday_sampler_for, MIN_BATCHED_POPULATION};
use crate::compiled::CompiledProtocol;
use crate::sampling::{hypergeometric, split_candidates_uniform, BirthdaySampler};
use popproto_model::{Config, Output, Protocol};
use popproto_obs as obs;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Adds `m[k]` to both post-state rows of a transition, for every lane, in
/// one pass — the fused delta-apply kernel of the ensemble engine.
///
/// The loop body is branch-free and the three slices are disjoint, so the
/// compiler turns this into packed integer adds over the lane dimension
/// (`bench_e8_simulation.rs` has a criterion microbench pinning the
/// throughput).  Callers handle the `lo == hi` aliasing case via
/// [`fused_delta_apply_same`].
#[inline]
pub fn fused_delta_apply(lo_row: &mut [u64], hi_row: &mut [u64], m: &[u64]) {
    for ((lo, hi), &mk) in lo_row.iter_mut().zip(hi_row.iter_mut()).zip(m) {
        *lo += mk;
        *hi += mk;
    }
}

/// [`fused_delta_apply`] for transitions whose two post states coincide:
/// the row gains `2·m[k]` per lane.
#[inline]
pub fn fused_delta_apply_same(row: &mut [u64], m: &[u64]) {
    for (c, &mk) in row.iter_mut().zip(m) {
        *c += 2 * mk;
    }
}

/// Lane-wise `dst[k] += src[k]` (used for interaction and effective-count
/// accumulation; autovectorises like the delta kernel).
#[inline]
pub fn add_lanes(dst: &mut [u64], src: &[u64]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

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
/// claims (exported as the `wave_phase_breakdown` section of
/// `BENCH_sim.json`).
///
/// This is a *view*: the accumulation itself lives in an
/// [`obs::Phases`] (one `Instant::now()` per phase boundary, costing
/// tens of nanoseconds against wave phases that run micro- to
/// milliseconds, so the breakdown is always on — and the same marks draw
/// per-wave flame rows in the chrome trace whenever tracing is enabled).
/// Candidate splits are counted inside `pairing_ns` (they happen during
/// the pair-table pass), and the initiator/responder
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
    /// Phase 4: fused delta/counter application.
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
    /// machine-checkable number behind split-wall claims, mirrored as
    /// `split_share` in `BENCH_sim.json`.  Zero when nothing was timed.
    pub fn split_share(&self) -> f64 {
        let total = self.total_ns();
        if total == 0 {
            0.0
        } else {
            self.split_ns as f64 / total as f64
        }
    }

    /// Fraction of [`Self::total_ns`] spent in the pairing pass (mirrored
    /// as `pairing_share` in `BENCH_sim.json`).  Zero when nothing was
    /// timed.
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

/// What a lane does in the current wave.
#[derive(Debug, Clone, Copy, PartialEq)]
enum WaveKind {
    /// Not participating (budget exhausted or silent).
    Idle,
    /// One exact sequential interaction (small population, tiny remaining
    /// budget, or a degenerate batch length).
    Sequential,
    /// A full collision-adjusted batch of `l` interactions plus the
    /// collision step.
    Batch,
}

/// K lockstep trajectories of one protocol (see the module docs).
#[derive(Debug, Clone)]
pub struct EnsembleSimulator {
    protocol: Protocol,
    compiled: CompiledProtocol,
    population: u64,
    num_states: usize,
    /// Column capacity of every matrix row (the initial lane count);
    /// constant across retirement, so row offsets never move.
    stride: usize,
    /// Active lanes — the live prefix `0..active` of every row.
    active: usize,
    /// `counts[s * stride + k]`: agents in state `s` for lane `k`.
    counts: Vec<u64>,
    rngs: Vec<StdRng>,
    birthday: BirthdaySampler,
    interactions: Vec<u64>,
    effective: Vec<u64>,
    seeds: Vec<u64>,
    /// Original ensemble position of each active lane (swap-removed in step
    /// with the columns).
    lane_ids: Vec<usize>,
    silent: Vec<bool>,
    // ---- wave scratch, all lane-indexed with the same stride ----
    post_acc: Vec<u64>,
    ini: Vec<u64>,
    resp: Vec<u64>,
    wave_l: Vec<u64>,
    rem_total: Vec<u64>,
    rem_draws: Vec<u64>,
    need: Vec<u64>,
    pool: Vec<u64>,
    resp_left: Vec<u64>,
    m_lane: Vec<u64>,
    kind: Vec<WaveKind>,
    /// Candidate-split scratch: `cand_shares[i * stride + k]` is lane `k`'s
    /// share for candidate `i` of the current nondeterministic pair, and
    /// `lane_split` is the per-lane staging buffer the canonical split
    /// writes into (both sized by the widest nondeterministic pair).
    cand_shares: Vec<u64>,
    lane_split: Vec<u64>,
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
        let k = seeds.len();
        let mut counts = vec![0u64; q * k];
        for (s, &c) in initial.counts().iter().enumerate() {
            counts[s * k..s * k + k].fill(c);
        }
        let is_silent = compiled.is_silent_counts(initial.counts());
        let mut sim = EnsembleSimulator {
            protocol,
            compiled,
            population,
            num_states: q,
            stride: k,
            active: k,
            counts,
            rngs: seeds.iter().map(|&s| StdRng::seed_from_u64(s)).collect(),
            birthday: birthday_sampler_for(population),
            interactions: vec![0; k],
            effective: vec![0; k],
            seeds: seeds.to_vec(),
            lane_ids: (0..k).collect(),
            silent: vec![is_silent; k],
            post_acc: vec![0; q * k],
            ini: vec![0; q * k],
            resp: vec![0; q * k],
            wave_l: vec![0; k],
            rem_total: vec![0; k],
            rem_draws: vec![0; k],
            need: vec![0; k],
            pool: vec![0; k],
            resp_left: vec![0; k],
            m_lane: vec![0; k],
            kind: vec![WaveKind::Idle; k],
            cand_shares: vec![0; max_candidates * k],
            lane_split: vec![0; max_candidates],
            phases: obs::Phases::new(WAVE_PHASES),
        };
        sim.refresh_silence(None);
        sim
    }

    /// The protocol being simulated.
    pub fn protocol(&self) -> &Protocol {
        &self.protocol
    }

    /// The (fixed) number of agents per lane.
    pub fn population(&self) -> u64 {
        self.population
    }

    /// The number of active (non-retired) lanes.
    pub fn lanes(&self) -> usize {
        self.active
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
        self.interactions[lane]
    }

    /// Configuration-changing interactions of lane `lane`.
    pub fn lane_effective_interactions(&self, lane: usize) -> u64 {
        self.effective[lane]
    }

    /// Parallel time elapsed in lane `lane`.
    pub fn lane_parallel_time(&self, lane: usize) -> f64 {
        self.interactions[lane] as f64 / self.population as f64
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

    /// The per-state counts of lane `lane` (a strided column copy).
    pub fn lane_counts(&self, lane: usize) -> Vec<u64> {
        (0..self.num_states)
            .map(|s| self.counts[s * self.stride + lane])
            .collect()
    }

    /// A configuration snapshot of lane `lane`.
    pub fn lane_snapshot(&self, lane: usize) -> Config {
        Config::from_counts(self.lane_counts(lane))
    }

    /// The consensus output of lane `lane`, if any.
    pub fn lane_output(&self, lane: usize) -> Option<Output> {
        self.protocol.output(&self.lane_snapshot(lane))
    }

    /// Retires active lane `lane`: its column, RNG, counters and identity
    /// are swap-removed, compacting the matrix so waves only touch live
    /// lanes.  Surviving lanes are moved, never recomputed.
    pub fn retire_lane(&mut self, lane: usize) {
        assert!(lane < self.active, "lane {lane} is not active");
        let last = self.active - 1;
        if lane != last {
            for s in 0..self.num_states {
                let row = s * self.stride;
                self.counts.swap(row + lane, row + last);
            }
            self.rngs.swap(lane, last);
            self.interactions.swap(lane, last);
            self.effective.swap(lane, last);
            self.seeds.swap(lane, last);
            self.lane_ids.swap(lane, last);
            self.silent.swap(lane, last);
        }
        self.active = last;
    }

    /// Advances every active lane by up to its budget (`budgets[k]`
    /// interactions for lane `k`), in lockstep waves.  A lane stops early if
    /// it becomes silent — exactly the contract of
    /// [`BatchedSimulator::advance`](crate::BatchedSimulator).  Returns the
    /// interactions actually simulated per lane.
    pub fn advance_all(&mut self, budgets: &[u64]) -> Vec<u64> {
        assert_eq!(budgets.len(), self.active, "one budget per active lane");
        let mut done = vec![0u64; self.active];
        loop {
            let any = (0..self.active).any(|k| done[k] < budgets[k] && !self.silent[k]);
            if !any {
                break;
            }
            self.wave(budgets, &mut done);
        }
        done
    }

    /// Convenience: advances every lane by the same budget.
    pub fn advance_uniform(&mut self, budget: u64) -> Vec<u64> {
        let budgets = vec![budget; self.active];
        self.advance_all(&budgets)
    }

    /// One lockstep wave: every participating lane runs one batch (or one
    /// exact sequential interaction), phase by phase across the ensemble.
    fn wave(&mut self, budgets: &[u64], done: &mut [u64]) {
        let active = self.active;
        let stride = self.stride;
        let n = self.population;
        let q = self.num_states;
        let _wave_span = obs::span_with_arg("wave", "lanes", active as u64);
        let mut mark = self.phases.begin_round();

        // Phase 0: per-lane wave classification, with each batching lane's
        // birthday draw.  The budget checks precede any RNG consumption,
        // mirroring the scalar engine's `batch`.
        self.wave_l[..active].fill(0);
        let mut batchers = 0usize;
        for k in 0..active {
            let budget = budgets[k] - done[k];
            if budget == 0 || self.silent[k] {
                self.kind[k] = WaveKind::Idle;
                continue;
            }
            if n < MIN_BATCHED_POPULATION || budget < 4 {
                self.kind[k] = WaveKind::Sequential;
                continue;
            }
            let draws = self.birthday.draw(&mut self.rngs[k]);
            let l = (draws.saturating_sub(1) / 2).min(budget - 1).min(n / 2);
            if l == 0 {
                self.kind[k] = WaveKind::Sequential;
            } else {
                self.kind[k] = WaveKind::Batch;
                self.wave_l[k] = l;
                batchers += 1;
            }
        }
        self.phases.mark(&mut mark, PH_CLASSIFICATION);

        if batchers > 0 {
            // Phase 1: initiator split — one pass over the state axis, all
            // lanes per state: each lane runs the scalar engine's
            // conditional multivariate-hypergeometric chain, one scalar
            // `hypergeometric` draw per state against its own RNG.
            for k in 0..active {
                self.rem_total[k] = n;
                self.rem_draws[k] = self.wave_l[k];
            }
            for s in 0..q {
                let row = s * stride;
                for k in 0..active {
                    if self.kind[k] != WaveKind::Batch {
                        continue;
                    }
                    if self.rem_draws[k] == 0 {
                        self.ini[row + k] = 0;
                        continue;
                    }
                    let size = self.counts[row + k];
                    let d = hypergeometric(
                        &mut self.rngs[k],
                        self.rem_total[k],
                        size,
                        self.rem_draws[k],
                    );
                    self.ini[row + k] = d;
                    self.rem_draws[k] -= d;
                    self.rem_total[k] -= size;
                }
            }

            // Phase 2: responder split from the remaining agents.
            for k in 0..active {
                self.rem_total[k] = n - self.wave_l[k];
                self.rem_draws[k] = self.wave_l[k];
            }
            for s in 0..q {
                let row = s * stride;
                for k in 0..active {
                    if self.kind[k] != WaveKind::Batch {
                        continue;
                    }
                    if self.rem_draws[k] == 0 {
                        self.resp[row + k] = 0;
                        continue;
                    }
                    let size = self.counts[row + k] - self.ini[row + k];
                    let d = hypergeometric(
                        &mut self.rngs[k],
                        self.rem_total[k],
                        size,
                        self.rem_draws[k],
                    );
                    self.resp[row + k] = d;
                    self.rem_draws[k] -= d;
                    self.rem_total[k] -= size;
                }
            }

            // Remove the 2·l batch participants from every batching lane;
            // each pair's outcome is accumulated into `post_acc` and added
            // back in phase 4.
            for s in 0..q {
                let row = s * stride;
                for k in 0..active {
                    if self.kind[k] == WaveKind::Batch {
                        self.counts[row + k] -= self.ini[row + k] + self.resp[row + k];
                    }
                }
            }
            self.post_acc[..q * stride].fill(0);
            self.m_lane[..active].fill(0);
            self.phases.mark(&mut mark, PH_SPLIT);

            // Phase 3: the single pass over the pair table.  For each entry
            // (a, b), sample every lane's interaction count (and candidate
            // split, for nondeterministic pairs) before applying the entry's
            // deltas to all lanes at once.
            for k in 0..active {
                self.resp_left[k] = self.wave_l[k];
            }
            for a in 0..q {
                let arow = a * stride;
                for k in 0..active {
                    if self.kind[k] == WaveKind::Batch {
                        self.need[k] = self.ini[arow + k];
                        self.pool[k] = self.resp_left[k];
                    } else {
                        self.need[k] = 0;
                    }
                }
                for b in 0..q {
                    let brow = b * stride;
                    let mut any_m = false;
                    for k in 0..active {
                        if self.need[k] == 0 {
                            self.m_lane[k] = 0;
                            continue;
                        }
                        let available = self.resp[brow + k];
                        if available == 0 {
                            self.m_lane[k] = 0;
                            continue;
                        }
                        // Conditional allocation of lane k's initiator-a
                        // interactions to responder state b.
                        let m = hypergeometric(
                            &mut self.rngs[k],
                            self.pool[k],
                            available,
                            self.need[k],
                        );
                        self.pool[k] -= available;
                        self.m_lane[k] = m;
                        if m > 0 {
                            self.resp[brow + k] -= m;
                            self.resp_left[k] -= m;
                            self.need[k] -= m;
                            any_m = true;
                        }
                    }
                    if !any_m {
                        continue;
                    }
                    let pidx = self.compiled.pair_index_of(a, b);
                    let num_candidates = self.compiled.candidates(pidx).len();
                    match num_candidates {
                        0 => {
                            // No transition: the interaction is a no-op;
                            // the agents return to their states.
                            Self::accumulate(
                                &mut self.post_acc,
                                stride,
                                active,
                                a,
                                b,
                                &self.m_lane,
                            );
                        }
                        1 => {
                            let t = self.compiled.candidates(pidx)[0];
                            self.apply_transition_lanes(t, a, b, active, ApplySource::MLane);
                        }
                        _ => {
                            // Nondeterministic pair: each lane runs the
                            // canonical alias/binomial-chain split — the
                            // very function the scalar engine calls, so the
                            // per-lane stream is identical by construction.
                            // Shares are scattered candidate-major so each
                            // candidate's application is one fused pass.
                            for i in 0..num_candidates {
                                self.cand_shares[i * stride..i * stride + active].fill(0);
                            }
                            let mut lane_split = std::mem::take(&mut self.lane_split);
                            for k in 0..active {
                                let m = self.m_lane[k];
                                if m == 0 {
                                    continue;
                                }
                                let alias = self
                                    .compiled
                                    .candidate_alias(pidx)
                                    .expect("nondeterministic pair has a cached alias table");
                                split_candidates_uniform(
                                    &mut self.rngs[k],
                                    m,
                                    alias,
                                    &mut lane_split,
                                );
                                for (i, &share) in
                                    lane_split.iter().enumerate().take(num_candidates)
                                {
                                    self.cand_shares[i * stride + k] = share;
                                }
                            }
                            self.lane_split = lane_split;
                            for i in 0..num_candidates {
                                let t = self.compiled.candidates(pidx)[i];
                                self.apply_transition_lanes(
                                    t,
                                    a,
                                    b,
                                    active,
                                    ApplySource::CandShare(i),
                                );
                            }
                        }
                    }
                }
                debug_assert!(
                    (0..active).all(|k| self.kind[k] != WaveKind::Batch || self.need[k] == 0)
                );
            }

            self.phases.mark(&mut mark, PH_PAIRING);

            // Phase 4: fused application of the wave's accumulated deltas
            // and counters.
            for s in 0..q {
                let row = s * stride;
                add_lanes(
                    &mut self.counts[row..row + active],
                    &self.post_acc[row..row + active],
                );
            }
            add_lanes(&mut self.interactions[..active], &self.wave_l[..active]);
            add_lanes(&mut done[..active], &self.wave_l[..active]);
            self.phases.mark(&mut mark, PH_APPLY);
        }

        // Phase 5: the collision interaction (batch lanes) / the whole wave
        // (sequential lanes) as one exact sequential step per lane.
        for (k, d) in done.iter_mut().enumerate().take(active) {
            if self.kind[k] != WaveKind::Idle {
                self.sequential_step_lane(k);
                *d += 1;
            }
        }
        self.phases.mark(&mut mark, PH_COLLISION);

        // Phase 6: refresh the silence flags of every participant in one
        // pass over the non-silent pairs.
        self.refresh_silence(Some(active));
        self.phases.mark(&mut mark, PH_SILENCE);
        self.phases.end_round();
    }

    /// Accumulates `m[k]` agents into rows `a` and `b` of the post
    /// accumulator (the no-op / silent-transition case).
    #[inline]
    fn accumulate(
        post_acc: &mut [u64],
        stride: usize,
        active: usize,
        a: usize,
        b: usize,
        m: &[u64],
    ) {
        if a == b {
            fused_delta_apply_same(&mut post_acc[a * stride..a * stride + active], &m[..active]);
        } else {
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            let (head, tail) = post_acc.split_at_mut(hi * stride);
            fused_delta_apply(
                &mut head[lo * stride..lo * stride + active],
                &mut tail[..active],
                &m[..active],
            );
        }
    }

    /// Applies transition `t` `src[k]` times per lane for pair `(a, b)`:
    /// non-silent transitions accumulate their post pair and bump the
    /// effective counters, silent ones return the agents to `a` and `b`.
    #[inline]
    fn apply_transition_lanes(
        &mut self,
        t: u32,
        a: usize,
        b: usize,
        active: usize,
        src: ApplySource,
    ) {
        let stride = self.stride;
        // Split the borrow: the source slice lives outside post_acc.
        let m: &[u64] = match src {
            ApplySource::MLane => &self.m_lane,
            ApplySource::CandShare(i) => &self.cand_shares[i * stride..i * stride + active],
        };
        if self.compiled.is_non_silent(t) {
            let (lo, hi) = self.compiled.post(t);
            if lo == hi {
                fused_delta_apply_same(
                    &mut self.post_acc[lo * stride..lo * stride + active],
                    &m[..active],
                );
            } else {
                let (head, tail) = self.post_acc.split_at_mut(hi * stride);
                fused_delta_apply(
                    &mut head[lo * stride..lo * stride + active],
                    &mut tail[..active],
                    &m[..active],
                );
            }
            add_lanes(&mut self.effective[..active], &m[..active]);
        } else {
            Self::accumulate(&mut self.post_acc, stride, active, a, b, m);
        }
    }

    /// One exact sequential interaction on lane `k`'s column — the
    /// transliteration of the scalar engine's `sequential_step`.
    fn sequential_step_lane(&mut self, k: usize) {
        self.interactions[k] += 1;
        let n = self.population;
        let stride = self.stride;
        let rng = &mut self.rngs[k];
        // First agent.
        let mut pos = rng.gen_range(0..n);
        let mut a = 0usize;
        for s in 0..self.num_states {
            let c = self.counts[s * stride + k];
            if pos < c {
                a = s;
                break;
            }
            pos -= c;
        }
        // Second agent among the remaining n-1.
        let mut pos = rng.gen_range(0..n - 1);
        let mut b = 0usize;
        for s in 0..self.num_states {
            let c = self.counts[s * stride + k];
            let available = if s == a { c - 1 } else { c };
            if pos < available {
                b = s;
                break;
            }
            pos -= available;
        }
        let pidx = self.compiled.pair_index_of(a, b);
        let candidates = self.compiled.candidates(pidx);
        let t = match candidates {
            [] => return,
            [t] => *t,
            _ => candidates[rng.gen_range(0..candidates.len())],
        };
        if self.compiled.is_non_silent(t) {
            for &(s, d) in self.compiled.delta(t).entries() {
                let c = &mut self.counts[s as usize * stride + k];
                let next = *c as i64 + d as i64;
                debug_assert!(next >= 0, "delta underflow on state {s} lane {k}");
                *c = next as u64;
            }
            self.effective[k] += 1;
        }
    }

    /// Recomputes the silence flag of the first `upto` lanes (all active
    /// lanes if `None`) in one pair-major pass: for each non-silent pair the
    /// lane sweep is branch-light and shared across the ensemble.
    fn refresh_silence(&mut self, upto: Option<usize>) {
        let lanes = upto.unwrap_or(self.active);
        let stride = self.stride;
        self.silent[..lanes].fill(true);
        for &pidx in self.compiled.non_silent_pairs() {
            let (lo, hi) = self.compiled.pair_states(pidx as usize);
            let lo_row = lo * stride;
            let hi_row = hi * stride;
            if lo == hi {
                for k in 0..lanes {
                    if self.counts[lo_row + k] >= 2 {
                        self.silent[k] = false;
                    }
                }
            } else {
                for k in 0..lanes {
                    if self.counts[lo_row + k] >= 1 && self.counts[hi_row + k] >= 1 {
                        self.silent[k] = false;
                    }
                }
            }
        }
    }
}

/// Which lane-scratch slice `apply_transition_lanes` reads: the pair's
/// interaction counts, or candidate `i`'s row of the split scatter.
#[derive(Clone, Copy)]
enum ApplySource {
    MLane,
    CandShare(usize),
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
