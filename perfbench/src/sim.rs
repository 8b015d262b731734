//! The simulation workloads: `ensemble_1e6` (sharded lockstep ensembles on
//! the process-wide pool) and `majority_1e8` (solo batched trajectories),
//! both approximate majority run to silence, plus the sampler probes.

use crate::host::{self, Obj};
use crate::metrics::Metrics;
use crate::stats::{imbalance, median, ratio, trajectory_seed};
use crate::{Checked, Outcome, Run, Scale};
use popproto_exec::PoolStats;
use popproto_model::{Config, Input, Output, Protocol};
use popproto_sim::{
    run_ensemble_until_convergence, run_sharded_ensemble_until_convergence, run_until_convergence,
    BatchedSimulator, CachedBinomial, CachedHypergeometric, ConvergenceCriterion,
    ConvergenceOutcome, EnsembleSimulator, SimulationEngine, WavePhaseBreakdown,
};
use popproto_zoo::approximate_majority;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Parallel time (interactions per agent) after which a trajectory that is
/// still not silent counts as failed.  Approximate majority silences in
/// O(log n) parallel time, two orders of magnitude below this.
const BUDGET_PARALLEL_TIME: u64 = 2_000;

/// Trajectories the traced `majority_1e8` pass runs.
const TRACED_TRAJECTORIES: u64 = 3;

/// Approximate majority at population `n` with `majority` agents in the
/// winning camp (state `A`, output 1), run on `lanes` trajectories.
struct Spec {
    n: u64,
    majority: u64,
    lanes: usize,
}

impl Spec {
    fn ensemble(scale: Scale) -> Self {
        match scale {
            Scale::Full => Spec {
                n: 1_000_000,
                majority: 550_000,
                lanes: 256,
            },
            Scale::Small => Spec {
                n: 20_000,
                majority: 11_000,
                lanes: 16,
            },
        }
    }

    fn majority(scale: Scale) -> Self {
        let n = match scale {
            Scale::Full => 100_000_000,
            Scale::Small => 1_000_000,
        };
        Spec {
            n,
            majority: 2 * n / 3,
            lanes: 1,
        }
    }

    fn protocol_and_initial(&self) -> (Protocol, Config) {
        let protocol = approximate_majority();
        let initial = protocol.initial_config(&Input::from_counts(vec![
            self.majority,
            self.n - self.majority,
        ]));
        (protocol, initial)
    }

    fn budget(&self) -> u64 {
        self.n.saturating_mul(BUDGET_PARALLEL_TIME)
    }
}

/// A trajectory passes when it went silent within its budget holding the
/// initial majority's output.
fn trajectory_ok(outcome: &ConvergenceOutcome) -> bool {
    outcome.converged && outcome.output == Some(true)
}

/// The outcome fields that must not depend on how lanes are sharded.
fn outcome_key(o: &ConvergenceOutcome) -> (bool, Option<bool>, u64, Option<u64>) {
    (
        o.converged,
        o.output,
        o.interactions,
        o.interactions_to_convergence,
    )
}

/// Shards of the ensemble: one per CPU, so the pool runs at most `nproc`
/// jobs at once (the submitting thread helps, idle workers wait).
fn shard_count(run: &Run) -> usize {
    run.host.nproc.max(1)
}

fn ns_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// Per-thread job counts of the global pool between two snapshots: one
/// entry per worker, then the helping submitter's.
fn pool_delta(before: &PoolStats, after: &PoolStats) -> (Vec<u64>, u64, f64) {
    let tasks = after
        .per_worker_tasks
        .iter()
        .zip(&before.per_worker_tasks)
        .map(|(a, b)| a - b)
        .collect();
    let idle_ns: u64 = after
        .per_worker_idle_ns
        .iter()
        .zip(&before.per_worker_idle_ns)
        .map(|(a, b)| a - b)
        .sum();
    (tasks, after.helped - before.helped, idle_ns as f64 / 1e9)
}

fn pool_detail(tasks: &[u64], helped: u64) -> Obj {
    Obj::new()
        .with("pool_worker_tasks", tasks)
        .with("pool_helped", helped)
}

struct EnsembleSetup {
    protocol: Protocol,
    initial: Config,
    seeds: Vec<u64>,
    pool_before: PoolStats,
}

/// Builds the inputs of one repetition and constructs (then drops) each
/// shard's ensemble, so constructor cost shows in `setup_s`.
fn ensemble_setup(run: &Run, spec: &Spec, rep: u64) -> EnsembleSetup {
    let (protocol, initial) = spec.protocol_and_initial();
    let seeds: Vec<u64> = (0..spec.lanes as u64)
        .map(|lane| trajectory_seed(run.seed, rep, lane))
        .collect();
    let chunk = seeds.len().div_ceil(shard_count(run));
    for block in seeds.chunks(chunk) {
        black_box(EnsembleSimulator::new(
            protocol.clone(),
            initial.clone(),
            block,
        ));
    }
    EnsembleSetup {
        protocol,
        initial,
        seeds,
        pool_before: popproto_exec::global().stats(),
    }
}

fn run_ensemble(run: &Run, spec: &Spec, s: &EnsembleSetup) -> Vec<ConvergenceOutcome> {
    run_sharded_ensemble_until_convergence(
        &s.protocol,
        &s.initial,
        &s.seeds,
        shard_count(run),
        ConvergenceCriterion::Silent,
        spec.budget(),
    )
}

/// Untraced `ensemble_1e6`: one 256-lane sharded drive to silence per
/// repetition.
pub fn measure_ensemble(run: &Run) -> Outcome {
    let spec = Spec::ensemble(run.scale);
    crate::measure(
        run,
        |rep| ensemble_setup(run, &spec, rep),
        |s| run_ensemble(run, &spec, s),
        |outcomes, s| {
            let (tasks, helped, _) = pool_delta(&s.pool_before, &popproto_exec::global().stats());
            Checked {
                items: outcomes.iter().map(|o| o.interactions as f64).sum(),
                jobs: outcomes.len() as f64,
                attempted: outcomes.len() as u64,
                failed: outcomes.iter().filter(|o| !trajectory_ok(o)).count() as u64,
                detail: pool_detail(&tasks, helped),
            }
        },
    )
}

/// What one traced shard reports.
struct ShardTrace {
    outcomes: Vec<ConvergenceOutcome>,
    construct_ns: f64,
    drive_ns: f64,
    phases: WavePhaseBreakdown,
    /// Seconds from submission to the shard's completion: a shard that
    /// waited for a busy thread finishes late, and shows as imbalance.
    done_s: f64,
}

/// Traced `ensemble_1e6`: (a) the untraced sharded drive, for the pool
/// counters and the overhead baseline; (b) the same shards on the same
/// pool, each ensemble driven through `run_ensemble_until_convergence`
/// with construction and drive timed and its phase breakdown read.
pub fn trace_ensemble(run: &Run) -> Outcome {
    let spec = Spec::ensemble(run.scale);
    let budget = spec.budget();
    let mut outcome = Outcome::default();
    let setup = ensemble_setup(run, &spec, 0);

    let before = popproto_exec::global().stats();
    let cpu0 = host::cpu_seconds();
    let t = Instant::now();
    let reference = run_ensemble(run, &spec, &setup);
    let untraced_s = t.elapsed().as_secs_f64();
    let cpu_s = host::cpu_seconds() - cpu0;
    let (tasks, helped, idle_s) = pool_delta(&before, &popproto_exec::global().stats());
    for o in &reference {
        outcome.check(
            trajectory_ok(o),
            "trajectory silent with the majority output",
        );
    }

    let chunk = setup.seeds.len().div_ceil(shard_count(run));
    let blocks: Vec<Vec<u64>> = setup.seeds.chunks(chunk).map(<[u64]>::to_vec).collect();
    let shards_used = blocks.len();
    let protocol = Arc::new(setup.protocol.clone());
    let initial = Arc::new(setup.initial.clone());
    let submitted = Instant::now();
    let shards = popproto_exec::global().map(blocks, move |_, block| {
        let t = Instant::now();
        let mut sim = EnsembleSimulator::new((*protocol).clone(), (*initial).clone(), &block);
        let construct_ns = ns_since(t);
        let t = Instant::now();
        let outcomes =
            run_ensemble_until_convergence(&mut sim, ConvergenceCriterion::Silent, budget);
        let drive_ns = ns_since(t);
        ShardTrace {
            outcomes,
            construct_ns,
            drive_ns,
            phases: sim.phase_breakdown(),
            done_s: submitted.elapsed().as_secs_f64(),
        }
    });
    let traced_s = submitted.elapsed().as_secs_f64();
    let traced: Vec<_> = shards
        .iter()
        .flat_map(|s| s.outcomes.iter().map(outcome_key))
        .collect();
    let untraced: Vec<_> = reference.iter().map(outcome_key).collect();
    outcome.check(
        traced == untraced,
        "traced shards reproduce the sharded drive bit for bit",
    );

    let mut p = WavePhaseBreakdown::default();
    for s in &shards {
        p.waves += s.phases.waves;
        p.classification_ns += s.phases.classification_ns;
        p.split_ns += s.phases.split_ns;
        p.pairing_ns += s.phases.pairing_ns;
        p.apply_ns += s.phases.apply_ns;
        p.collision_ns += s.phases.collision_ns;
        p.silence_ns += s.phases.silence_ns;
    }
    let drive_ns: f64 = shards.iter().map(|s| s.drive_ns).sum();
    let timed_ns: f64 = shards.iter().map(|s| s.construct_ns + s.drive_ns).sum();
    let done: Vec<f64> = shards.iter().map(|s| s.done_s).collect();
    let mut per_thread: Vec<f64> = tasks.iter().map(|&t| t as f64).collect();
    per_thread.push(helped as f64);
    let waves = p.waves as f64;
    let per_wave = |ns: u64| ratio(ns as f64, waves);
    run.row(
        "trace",
        pool_detail(&tasks, helped)
            .with("untraced_wall_s", untraced_s)
            .with("traced_wall_s", traced_s)
            .with("shard_done_s", &done)
            .with(
                "shard_drive_s",
                shards.iter().map(|s| s.drive_ns / 1e9).collect::<Vec<_>>(),
            ),
    );
    outcome.metrics.extend([
        ("sim.ensemble.waves", waves),
        ("sim.ensemble.ns_per_wave", per_wave(p.total_ns())),
        (
            "sim.ensemble.classification_ns",
            per_wave(p.classification_ns),
        ),
        ("sim.ensemble.split_ns", per_wave(p.split_ns)),
        ("sim.ensemble.pairing_ns", per_wave(p.pairing_ns)),
        ("sim.ensemble.apply_ns", per_wave(p.apply_ns)),
        ("sim.ensemble.collision_ns", per_wave(p.collision_ns)),
        ("sim.ensemble.silence_ns", per_wave(p.silence_ns)),
        (
            "sim.convergence.driver_share",
            ratio(drive_ns - p.total_ns() as f64, drive_ns),
        ),
        ("exec.cpu_util", ratio(cpu_s, untraced_s)),
        (
            "exec.pool.idle_share",
            ratio(idle_s, untraced_s * tasks.len() as f64),
        ),
        ("exec.pool.helped", helped as f64),
        ("exec.pool.task_imbalance", imbalance(&per_thread)),
        ("exec.shard.wall_imbalance", imbalance(&done)),
        (
            "unaccounted_share",
            1.0 - ratio(timed_ns, traced_s * 1e9 * shards_used as f64),
        ),
        (
            "trace_overhead_share",
            ratio(traced_s - untraced_s, untraced_s),
        ),
    ]);
    outcome
}

fn majority_sim(run: &Run, spec: &Spec, rep: u64) -> BatchedSimulator {
    let (protocol, initial) = spec.protocol_and_initial();
    BatchedSimulator::new(protocol, initial, trajectory_seed(run.seed, rep, 0))
}

/// Untraced `majority_1e8`: one solo batched trajectory to silence per
/// repetition.
pub fn measure_majority(run: &Run) -> Outcome {
    let spec = Spec::majority(run.scale);
    crate::measure(
        run,
        |rep| majority_sim(run, &spec, rep),
        |sim| run_until_convergence(sim, ConvergenceCriterion::Silent, spec.budget()),
        |outcome, _| {
            let ok = trajectory_ok(&outcome);
            Checked {
                items: outcome.interactions as f64,
                jobs: 1.0,
                attempted: 1,
                failed: u64::from(!ok),
                detail: Obj::new().with("parallel_time", outcome.parallel_time.unwrap_or(0.0)),
            }
        },
    )
}

/// Advances `sim` to silence (or its budget) one `check_granularity()`
/// chunk at a time — the loop `run_until_convergence` runs when it checks
/// between chunks — handing each chunk to `advance`.
fn drive_chunks(
    sim: &mut BatchedSimulator,
    budget: u64,
    mut advance: impl FnMut(&mut BatchedSimulator, u64),
) {
    while !sim.is_silent() && sim.interactions() < budget {
        let chunk = sim.check_granularity().min(budget - sim.interactions());
        advance(sim, chunk);
    }
}

/// Traced `majority_1e8`: a few trajectories driven chunk by chunk, first
/// untimed (the overhead baseline), then with every `advance` timed; both
/// passes must follow identical trajectories.
pub fn trace_majority(run: &Run) -> Outcome {
    let spec = Spec::majority(run.scale);
    let budget = spec.budget();
    let mut outcome = Outcome::default();
    let mut untraced_s = 0.0;
    let mut cpu_s = 0.0;
    let mut untraced_interactions = Vec::new();
    for rep in 0..TRACED_TRAJECTORIES {
        let mut sim = majority_sim(run, &spec, rep);
        let cpu0 = host::cpu_seconds();
        let t = Instant::now();
        drive_chunks(&mut sim, budget, |s, chunk| {
            s.advance(chunk);
        });
        untraced_s += t.elapsed().as_secs_f64();
        cpu_s += host::cpu_seconds() - cpu0;
        outcome.check(
            sim.is_silent() && sim.current_output() == Some(Output::True),
            "trajectory silent with the majority output",
        );
        untraced_interactions.push(sim.interactions());
    }
    let (mut calls, mut advance_ns, mut interactions, mut traced_s) = (0u64, 0.0, 0u64, 0.0);
    for rep in 0..TRACED_TRAJECTORIES {
        let mut sim = majority_sim(run, &spec, rep);
        let t = Instant::now();
        drive_chunks(&mut sim, budget, |s, chunk| {
            let t = Instant::now();
            s.advance(chunk);
            advance_ns += ns_since(t);
            calls += 1;
        });
        traced_s += t.elapsed().as_secs_f64();
        interactions += sim.interactions();
        outcome.check(
            sim.interactions() == untraced_interactions[rep as usize],
            "timed drive follows the untimed trajectory",
        );
    }
    run.row(
        "trace",
        Obj::new()
            .with("untraced_wall_s", untraced_s)
            .with("traced_wall_s", traced_s)
            .with("trajectories", TRACED_TRAJECTORIES)
            .with("interactions", interactions),
    );
    outcome.metrics.extend([
        (
            "sim.batched.advance_calls",
            calls as f64 / TRACED_TRAJECTORIES as f64,
        ),
        (
            "sim.batched.ns_per_advance",
            ratio(advance_ns, calls as f64),
        ),
        (
            "sim.batched.interactions_per_advance",
            ratio(interactions as f64, calls as f64),
        ),
        ("exec.cpu_util", ratio(cpu_s, untraced_s)),
        ("unaccounted_share", 1.0 - ratio(advance_ns, traced_s * 1e9)),
        (
            "trace_overhead_share",
            ratio(traced_s - untraced_s, untraced_s),
        ),
    ]);
    outcome
}

/// Mean interactions per collision-free batch at population `n`: half the
/// mean birthday collision time √(πn/2).
fn batch_len(n: u64) -> u64 {
    ((std::f64::consts::PI * n as f64 / 2.0).sqrt() / 2.0) as u64
}

/// Median nanoseconds per variate of `draw_many` over a 4096-slot buffer.
fn ns_per_draw(rng: &mut StdRng, mut draw_many: impl FnMut(&mut StdRng, &mut [u64])) -> f64 {
    const SLOTS: usize = 4096;
    const ROUNDS: usize = 16;
    let mut buf = vec![0u64; SLOTS];
    let samples: Vec<f64> = (0..7)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..ROUNDS {
                draw_many(rng, &mut buf);
                black_box(&buf);
            }
            ns_since(t) / (SLOTS * ROUNDS) as f64
        })
        .collect();
    median(&samples)
}

/// Sampler probes at the simulation workloads' batch shapes (the initiator
/// split of the first batch, and the uniform split of the A–B pair's
/// interactions between its two candidate transitions).  They time the
/// sampler layer alone, whatever the workload, so every traced run
/// reports them.
pub fn sampling_probes(run: &Run) -> Metrics {
    let mut rng = StdRng::seed_from_u64(trajectory_seed(run.seed, u64::MAX, 0));
    let ensemble = Spec::ensemble(Scale::Full);
    let majority = Spec::majority(Scale::Full);
    let table = CachedHypergeometric::new(ensemble.n, ensemble.majority, batch_len(ensemble.n));
    let stirling = CachedHypergeometric::new(majority.n, majority.majority, batch_len(majority.n));
    let share_a = ensemble.majority as f64 / ensemble.n as f64;
    let ab_pairs = (2.0 * batch_len(ensemble.n) as f64 * share_a * (1.0 - share_a)) as u64;
    let binomial = CachedBinomial::new(ab_pairs, 0.5);
    Metrics::from([
        (
            "sim.sampling.hyp_table_ns",
            ns_per_draw(&mut rng, |r, out| table.draw_many(r, out)),
        ),
        (
            "sim.sampling.hyp_stirling_ns",
            ns_per_draw(&mut rng, |r, out| stirling.draw_many(r, out)),
        ),
        (
            "sim.sampling.binomial_ns",
            ns_per_draw(&mut rng, |r, out| binomial.draw_many(r, out)),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::small_run;
    use crate::Workload;

    #[test]
    fn seed_changes_the_trajectories() {
        let _guard = crate::tests::exclusive();
        let spec = Spec::majority(Scale::Small);
        let interactions = |seed| {
            let run = small_run(Workload::Majority1e8, seed);
            let mut sim = majority_sim(&run, &spec, 0);
            run_until_convergence(&mut sim, ConvergenceCriterion::Silent, spec.budget())
                .interactions
        };
        assert_eq!(interactions(1), interactions(1));
        assert_ne!(interactions(1), interactions(2));
        let lane_seeds = |seed| {
            let run = small_run(Workload::Ensemble1e6, seed);
            ensemble_setup(&run, &Spec::ensemble(Scale::Small), 0).seeds
        };
        assert_eq!(lane_seeds(1), lane_seeds(1));
        assert_ne!(lane_seeds(1), lane_seeds(2));
    }
}
