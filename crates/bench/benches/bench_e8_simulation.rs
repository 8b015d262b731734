//! E8 — simulated parallel convergence time of the zoo families, plus the
//! sequential-vs-batched engine comparison.
//!
//! Besides the Criterion groups, this bench emits a machine-readable
//! `BENCH_sim.json` at the workspace root with six measurements:
//!
//! * `sequential_vs_naive` — throughput of the reworked sequential engine
//!   against a faithful reimplementation of the seed's `step()` loop
//!   (config clone per interaction, `Vec` allocation per candidate lookup,
//!   full-protocol silence scan per iteration);
//! * `engine_comparison` — wall time per parallel time unit for both
//!   engines at n ∈ {10⁴, 10⁶, 10⁸};
//! * `acceptance` — the batched engine driving approximate majority at
//!   n = 10⁸ to a 10⁶-parallel-time-unit target (it stabilises and goes
//!   silent long before, which the engine detects and fast-forwards);
//! * `ensemble_throughput` — per-trajectory wall time of the lockstep
//!   ensemble engine at K ∈ {1, 16, 256} lanes against the same trajectories
//!   run as independent batched simulations, at n ∈ {10⁴, 10⁶}, tagged with
//!   `host_cpus` / `time_sliced` so plateaus on starved hosts read as what
//!   they are;
//! * `wave_phase_breakdown` — cumulative per-phase wall time of the
//!   ensemble waves at n = 10⁶, K = 256, making the pairing *and split*
//!   shares machine-checkable, with per-phase before/after rows against
//!   the committed pre-cached-sampler baseline;
//! * `sampler_crossovers` — ns/draw of the public samplers at parameter
//!   points straddling each planner threshold (`URN_MAX_DRAWS`,
//!   `POPCOUNT_MAX_N`, `BERN_MAX_N`, `BTRS_MIN_MEAN`,
//!   `ALIAS_DRAWS_PER_CANDIDATE`), the measurements behind the threshold
//!   table in `sampling.rs`, plus cached-setup rows comparing the scalar
//!   entry points (plan rebuilt per draw) against
//!   `CachedHypergeometric` / `CachedBinomial` constructed once outside
//!   the loop.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use popproto::experiments::experiment_e8;
use popproto::report::render_e8;
use popproto_model::{Config, Input, Pair, Protocol};
use popproto_sim::{
    run_until_convergence, BatchedSimulator, ConvergenceCriterion, EnsembleSimulator,
    SimulationEngine, Simulator,
};
use popproto_zoo::{approximate_majority, binary_counter};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// A faithful reimplementation of the seed repository's sequential loop, as
/// the baseline for the throughput comparison: clone-per-fire, allocation
/// per candidate lookup, O(|Q|) scheduler scan, and a full silence scan per
/// `run` iteration.
struct NaiveSimulator {
    protocol: Protocol,
    config: Config,
    rng: StdRng,
    interactions: u64,
}

impl NaiveSimulator {
    fn new(protocol: Protocol, config: Config, seed: u64) -> Self {
        NaiveSimulator {
            protocol,
            config,
            rng: StdRng::seed_from_u64(seed),
            interactions: 0,
        }
    }

    fn select_pair(&mut self) -> (usize, usize) {
        let n = self.config.size();
        let mut first = 0usize;
        let mut index = self.rng.gen_range(0..n);
        for (q, count) in self.config.iter() {
            if index < count {
                first = q.index();
                break;
            }
            index -= count;
        }
        let mut remaining = self.rng.gen_range(0..n - 1);
        let mut second = 0usize;
        for (q, count) in self.config.iter() {
            let available = if q.index() == first { count - 1 } else { count };
            if remaining < available {
                second = q.index();
                break;
            }
            remaining -= available;
        }
        (first, second)
    }

    fn step(&mut self) -> bool {
        self.interactions += 1;
        let (a, b) = self.select_pair();
        let pair = Pair::new(a.into(), b.into());
        let candidates = self.protocol.transitions_from(pair); // allocates
        if candidates.is_empty() {
            return false;
        }
        let t_idx = candidates[self.rng.gen_range(0..candidates.len())];
        let transition = self.protocol.transitions()[t_idx];
        match transition.fire(&self.config) {
            // `fire` clones the whole configuration — the seed hot path.
            Some(next) if next != self.config => {
                self.config = next;
                true
            }
            _ => false,
        }
    }

    /// The seed's silence test: attempt to *fire* every transition (cloning
    /// a configuration per enabled transition) and compare successors.
    fn is_silent(&self) -> bool {
        self.protocol
            .transitions()
            .iter()
            .all(|t| t.is_silent() || t.fire(&self.config).is_none_or(|next| next == self.config))
    }

    fn run(&mut self, max_interactions: u64) -> u64 {
        for i in 0..max_interactions {
            // The seed re-derived silence from scratch every iteration.
            if self.is_silent() {
                return i;
            }
            self.step();
        }
        max_interactions
    }
}

fn bench_e8(c: &mut Criterion) {
    let rows = experiment_e8(&[32, 64, 128], 3, 3_000_000);
    println!("\n[E8] simulated parallel time\n{}", render_e8(&rows));

    let mut group = c.benchmark_group("e8_simulate_to_silence");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    for n in [64u64, 128, 256] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let p = binary_counter(3);
            b.iter(|| {
                let mut sim = Simulator::new(p.clone(), p.initial_config_unary(n), 42);
                run_until_convergence(&mut sim, ConvergenceCriterion::Silent, 10_000_000)
            })
        });
    }
    group.finish();
}

/// Criterion comparison: one parallel time unit (n interactions) per engine.
fn bench_engine_comparison(c: &mut Criterion) {
    let p = approximate_majority();
    let mut group = c.benchmark_group("e8_engine_parallel_time_unit");
    group
        .sample_size(2)
        .measurement_time(Duration::from_secs(1));
    for n in [10_000u64, 1_000_000, 100_000_000] {
        let input = Input::from_counts(vec![2 * n / 3, n - 2 * n / 3]);
        group.bench_with_input(BenchmarkId::new("sequential", n), &n, |b, &n| {
            let ic = p.initial_config(&input);
            b.iter(|| {
                let mut sim = Simulator::new(p.clone(), ic.clone(), 7);
                sim.advance(n)
            })
        });
        group.bench_with_input(BenchmarkId::new("batched", n), &n, |b, &n| {
            let ic = p.initial_config(&input);
            b.iter(|| {
                let mut sim = BatchedSimulator::new(p.clone(), ic.clone(), 7);
                sim.advance(n)
            })
        });
    }
    group.finish();
}

/// Single-shot wall-clock measurements written to BENCH_sim.json.
fn emit_bench_json(_c: &mut Criterion) {
    let p = approximate_majority();
    let mut entries: Vec<String> = Vec::new();

    // 1. Reworked sequential engine vs the seed step() loop, on the workload
    // every experiment actually runs: simulate to silence.  The seed loop
    // pays an O(T) fire-with-clone silence scan per interaction (worst near
    // convergence, where nothing short-circuits) plus a `Vec` allocation per
    // candidate lookup, so its cost grows with the transition count while
    // the engine's stays flat.
    let mut naive_rows: Vec<String> = Vec::new();
    let budget = 50_000_000u64;
    let throughput_workloads: Vec<(Protocol, Config)> = vec![
        (
            p.clone(),
            p.initial_config(&Input::from_counts(vec![6_666, 3_334])),
        ),
        (
            popproto_zoo::flock(32),
            popproto_zoo::flock(32).initial_config_unary(3_000),
        ),
        (
            popproto_zoo::flock(64),
            popproto_zoo::flock(64).initial_config_unary(2_000),
        ),
        (
            popproto_zoo::binary_counter(6),
            popproto_zoo::binary_counter(6).initial_config_unary(3_000),
        ),
    ];
    for (protocol, ic) in &throughput_workloads {
        let start = Instant::now();
        let mut naive = NaiveSimulator::new(protocol.clone(), ic.clone(), 7);
        let naive_done = naive.run(budget).max(1);
        let naive_seconds = start.elapsed().as_secs_f64();
        let naive_ns = naive_seconds * 1e9 / naive_done as f64;

        let start = Instant::now();
        let mut engine = Simulator::new(protocol.clone(), ic.clone(), 7);
        let engine_done = engine.advance(budget).max(1);
        let engine_seconds = start.elapsed().as_secs_f64();
        let engine_ns = engine_seconds * 1e9 / engine_done as f64;

        let speedup = naive_ns / engine_ns;
        println!(
            "[E8] {} to silence: seed loop {naive_ns:.1} ns/interaction -> engine \
             {engine_ns:.1} ns/interaction ({speedup:.1}x)",
            protocol.name()
        );
        naive_rows.push(format!(
            "    {{\"protocol\": \"{}\", \"states\": {}, \"transitions\": {}, \"naive_ns_per_interaction\": {naive_ns:.2}, \"engine_ns_per_interaction\": {engine_ns:.2}, \"speedup\": {speedup:.2}}}",
            protocol.name(),
            protocol.num_states(),
            protocol.num_transitions()
        ));
    }
    entries.push(format!(
        "  \"sequential_vs_naive\": [\n{}\n  ]",
        naive_rows.join(",\n")
    ));

    // 2. Seconds per parallel time unit, per engine and population.
    let mut comparison_rows: Vec<String> = Vec::new();
    for n in [10_000u64, 1_000_000, 100_000_000] {
        let input = Input::from_counts(vec![2 * n / 3, n - 2 * n / 3]);
        let ic = p.initial_config(&input);
        let start = Instant::now();
        let mut sim = Simulator::new(p.clone(), ic.clone(), 7);
        sim.advance(n);
        let seq_seconds = start.elapsed().as_secs_f64();

        let start = Instant::now();
        let mut sim = BatchedSimulator::new(p.clone(), ic.clone(), 7);
        sim.advance(n);
        let bat_seconds = start.elapsed().as_secs_f64();
        println!(
            "[E8] one parallel time unit at n = {n}: sequential {seq_seconds:.4}s, \
             batched {bat_seconds:.6}s"
        );
        comparison_rows.push(format!(
            "    {{\"population\": {n}, \"sequential_seconds_per_unit\": {seq_seconds:.6}, \"batched_seconds_per_unit\": {bat_seconds:.6}}}"
        ));
    }
    entries.push(format!(
        "  \"engine_comparison\": [\n{}\n  ]",
        comparison_rows.join(",\n")
    ));

    // 3. Acceptance: 10⁶ parallel time units of approximate majority at
    // n = 10⁸ on the batched engine.
    let n = 100_000_000u64;
    let target_parallel_time = 1_000_000u64;
    let input = Input::from_counts(vec![2 * n / 3, n - 2 * n / 3]);
    let ic = p.initial_config(&input);
    let start = Instant::now();
    let mut sim = BatchedSimulator::new(p.clone(), ic, 7);
    let budget = n.saturating_mul(target_parallel_time);
    sim.advance(budget);
    let wall = start.elapsed().as_secs_f64();
    let silent = sim.is_silent();
    let reached = sim.parallel_time();
    println!(
        "[E8] acceptance: n = 10^8, target 10^6 parallel time units: \
         stabilised at parallel time {reached:.1} (silent: {silent}) in {wall:.2}s wall"
    );
    entries.push(format!(
        "  \"acceptance\": {{\n    \"protocol\": \"approximate_majority\",\n    \"population\": {n},\n    \"parallel_time_target\": {target_parallel_time},\n    \"parallel_time_reached\": {reached:.2},\n    \"silent\": {silent},\n    \"wall_seconds\": {wall:.3}\n  }}"
    ));

    // 4. Ensemble engine: per-trajectory wall time at K lanes against the
    // same number of independent `BatchedSimulator` runs (identical seeds, so
    // both sides simulate bit-identical trajectories).  Interleaved min-of-2
    // reps filter scheduler noise on the shared benchmark host; a short
    // warm-up advance precedes each timed window so one-time setup (plan
    // tables, allocation) is excluded.  Every ensemble lane runs the solo
    // engine's own batch phases, so the two sides do the same sampling
    // work, and the ensemble only shares one compiled protocol, birthday
    // sampler and wave loop across its lanes.  `host_cpus` and
    // `time_sliced` record whether the host could actually run anything in
    // parallel — on a single-core container every speedup here is a
    // time-sliced measurement, not a parallel one.
    let host_cpus = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let time_sliced = host_cpus == 1;
    let mut ensemble_rows: Vec<String> = Vec::new();
    for n in [10_000u64, 1_000_000] {
        let input = Input::from_counts(vec![n / 2 + n / 20, n - n / 2 - n / 20]);
        let ic = p.initial_config(&input);
        let warmup = n / 10;
        let budget = 2 * n;
        for k in [1usize, 16, 256] {
            let seeds: Vec<u64> = (0..k as u64).collect();
            let mut ens_best = f64::INFINITY;
            let mut solo_best = f64::INFINITY;
            for _ in 0..2 {
                let mut ens = EnsembleSimulator::new(p.clone(), ic.clone(), &seeds);
                ens.advance_uniform(warmup);
                let t0 = Instant::now();
                ens.advance_uniform(budget);
                ens_best = ens_best.min(t0.elapsed().as_secs_f64() / k as f64);

                let mut solo_total = 0.0;
                for &s in &seeds {
                    let mut solo = BatchedSimulator::new(p.clone(), ic.clone(), s);
                    solo.advance(warmup);
                    let t1 = Instant::now();
                    solo.advance(budget);
                    solo_total += t1.elapsed().as_secs_f64();
                }
                solo_best = solo_best.min(solo_total / k as f64);
            }
            let speedup = solo_best / ens_best;
            println!(
                "[E8] ensemble n = {n}, K = {k}: {:.3} ms/trajectory vs solo batched \
                 {:.3} ms/trajectory ({speedup:.2}x)",
                ens_best * 1e3,
                solo_best * 1e3
            );
            ensemble_rows.push(format!(
                "    {{\"population\": {n}, \"lanes\": {k}, \"parallel_time_units\": 2, \"ensemble_seconds_per_trajectory\": {ens_best:.6}, \"solo_batched_seconds_per_trajectory\": {solo_best:.6}, \"speedup_vs_batched\": {speedup:.3}, \"host_cpus\": {host_cpus}, \"time_sliced\": {time_sliced}}}"
            ));
        }
    }
    entries.push(format!(
        "  \"ensemble_throughput\": [\n{}\n  ]",
        ensemble_rows.join(",\n")
    ));

    // 5. Per-phase wave breakdown at the acceptance point (n = 10⁶,
    // K = 256): where does ensemble wave time actually go?  The breakdown
    // is reset after warmup so one-time setup never pollutes the shares.
    // Three identical repetitions are measured (same seeds, so
    // bit-identical trajectories and identical work) and the fastest
    // kept — the min-over-reps convention of `ensemble_throughput`
    // above, with one extra rep because the per-phase speedup gates are
    // tighter than a throughput edge and a single preempted rep would
    // fail them spuriously on the shared single-core host.  The `phases`
    // rows pair each phase's measured cumulative ns with the committed
    // pre-cached-sampler baseline (same workload, same warmup
    // discipline), so the split-phase speedup is machine-checkable as
    // `baseline_ns / ns` without digging through git history.
    {
        let n = 1_000_000u64;
        let k = 256usize;
        let input = Input::from_counts(vec![n / 2 + n / 20, n - n / 2 - n / 20]);
        let ic = p.initial_config(&input);
        let seeds: Vec<u64> = (0..k as u64).collect();
        let mut best: Option<popproto_sim::WavePhaseBreakdown> = None;
        for _ in 0..3 {
            let mut ens = EnsembleSimulator::new(p.clone(), ic.clone(), &seeds);
            ens.advance_uniform(n / 10);
            ens.reset_phase_breakdown();
            ens.advance_uniform(2 * n);
            let ph = ens.phase_breakdown();
            if best.as_ref().is_none_or(|b| ph.total_ns() < b.total_ns()) {
                best = Some(ph);
            }
        }
        let ph = best.expect("three reps measured");
        let total = ph.total_ns().max(1) as f64;
        let pairing_share = ph.pairing_share();
        let split_share = ph.split_share();
        println!(
            "[E8] wave phases at n = {n}, K = {k}: {} waves, pairing {:.1}% \
             (classification {:.1}%, split {:.1}%, apply {:.1}%, collision {:.1}%, silence {:.1}%)",
            ph.waves,
            100.0 * pairing_share,
            100.0 * ph.classification_ns as f64 / total,
            100.0 * split_share,
            100.0 * ph.apply_ns as f64 / total,
            100.0 * ph.collision_ns as f64 / total,
            100.0 * ph.silence_ns as f64 / total,
        );
        // Committed baseline: the wave_phase_breakdown recorded by the
        // pre-cached-sampler build at this exact workload (waves 3265).
        let baseline: [(&str, u64, u64); 6] = [
            ("classification", ph.classification_ns, 9_899_798),
            ("split", ph.split_ns, 436_684_483),
            ("pairing", ph.pairing_ns, 294_634_259),
            ("apply", ph.apply_ns, 1_121_846),
            ("collision", ph.collision_ns, 25_429_450),
            ("silence", ph.silence_ns, 3_241_620),
        ];
        let phase_rows: Vec<String> = baseline
            .iter()
            .map(|&(name, ns, base)| {
                let speedup = base as f64 / ns.max(1) as f64;
                format!(
                    "      {{\"phase\": \"{name}\", \"ns\": {ns}, \"baseline_ns\": {base}, \"speedup_vs_baseline\": {speedup:.3}}}"
                )
            })
            .collect();
        println!(
            "[E8] split phases: {} ns vs baseline 436684483 ns ({:.2}x), split share {:.1}%",
            ph.split_ns,
            436_684_483.0 / ph.split_ns.max(1) as f64,
            100.0 * split_share,
        );
        entries.push(format!(
            "  \"wave_phase_breakdown\": {{\n    \"population\": {n},\n    \"lanes\": {k},\n    \"waves\": {},\n    \"classification_ns\": {},\n    \"split_ns\": {},\n    \"pairing_ns\": {},\n    \"apply_ns\": {},\n    \"collision_ns\": {},\n    \"silence_ns\": {},\n    \"pairing_share\": {pairing_share:.4},\n    \"split_share\": {split_share:.4},\n    \"baseline_waves\": 3265,\n    \"host_cpus\": {host_cpus},\n    \"time_sliced\": {time_sliced},\n    \"phases\": [\n{}\n    ]\n  }}",
            ph.waves,
            ph.classification_ns,
            ph.split_ns,
            ph.pairing_ns,
            ph.apply_ns,
            ph.collision_ns,
            ph.silence_ns,
            phase_rows.join(",\n"),
        ));
    }

    // 6. Sampler-crossover sweep: ns/draw of the public entry points at
    // parameter points straddling each planner threshold.  The `leaf`
    // labels restate the planner's routing (kept in sync with the
    // threshold table in sampling.rs); the timings are what justify the
    // constants, and retuning should start from this table.
    {
        use popproto_sim::sampling::{binomial, hypergeometric};
        let mut rng = StdRng::seed_from_u64(0xC505);
        let mut crossover_rows: Vec<String> = Vec::new();
        let reps = 200_000u64;

        // URN_MAX_DRAWS = 16: the urn walk vs HRUA rejection, draws sweep.
        for (draws, leaf) in [(2u64, "urn"), (8, "urn"), (16, "urn"), (17, "hrua")] {
            let t0 = Instant::now();
            let mut acc = 0u64;
            for _ in 0..reps {
                acc += hypergeometric(&mut rng, 4_000, 1_500, draws);
            }
            let ns = t0.elapsed().as_nanos() as f64 / reps as f64;
            std::hint::black_box(acc);
            crossover_rows.push(format!(
                "    {{\"family\": \"hypergeometric_draws\", \"total\": 4000, \"successes\": 1500, \"draws\": {draws}, \"leaf\": \"{leaf}\", \"ns_per_draw\": {ns:.1}}}"
            ));
        }

        // HRUA is flat across spread: the PR 6 mode-inversion band (its
        // walk length grew with sd) is gone, so this sweep documents that
        // one leaf now covers every draws > URN_MAX_DRAWS regime.
        for (draws, leaf) in [
            (100u64, "hrua"),
            (400, "hrua"),
            (500, "hrua"),
            (2_000, "hrua"),
        ] {
            let t0 = Instant::now();
            let mut acc = 0u64;
            for _ in 0..reps {
                acc += hypergeometric(&mut rng, 8_000, 4_000, draws);
            }
            let ns = t0.elapsed().as_nanos() as f64 / reps as f64;
            std::hint::black_box(acc);
            crossover_rows.push(format!(
                "    {{\"family\": \"hypergeometric_sd\", \"total\": 8000, \"successes\": 4000, \"draws\": {draws}, \"leaf\": \"{leaf}\", \"ns_per_draw\": {ns:.1}}}"
            ));
        }

        // POPCOUNT_MAX_N = 1024 (p = ½ only), BERN_MAX_N = 32, and
        // BTRS_MIN_MEAN = 10: the popcount family across word counts and
        // its BTRS fallback past the cap; Bernoulli-vs-BTRS across n at
        // p = 0.4; CDF-vs-BTRS at large n via small p.
        for (n, p_bin, leaf) in [
            (64u64, 0.5f64, "pop"),
            (512, 0.5, "pop"),
            (1_024, 0.5, "pop"),
            (1_025, 0.5, "btrs"),
            (16, 0.4, "bern"),
            (32, 0.4, "bern"),
            (33, 0.4, "btrs"),
            (10_000, 0.0009, "cdf"),
            (10_000, 0.0011, "btrs"),
            (10_000, 0.4, "btrs"),
        ] {
            let t0 = Instant::now();
            let mut acc = 0u64;
            for _ in 0..reps {
                acc += binomial(&mut rng, n, p_bin);
            }
            let ns = t0.elapsed().as_nanos() as f64 / reps as f64;
            std::hint::black_box(acc);
            crossover_rows.push(format!(
                "    {{\"family\": \"binomial\", \"n\": {n}, \"p\": {p_bin}, \"leaf\": \"{leaf}\", \"ns_per_draw\": {ns:.1}}}"
            ));
        }

        // ALIAS_DRAWS_PER_CANDIDATE = 8: categorical draws vs the binomial
        // chain for a 3-candidate split (crossover at m = 16), plus the
        // 2-candidate split, which always takes the chain — a single
        // Binomial(m, ½) resolved by the popcount leaf.
        {
            use popproto_sim::{split_candidates_uniform, AliasTable};
            let table3 = AliasTable::uniform(3);
            let table2 = AliasTable::uniform(2);
            let mut out3 = [0u64; 3];
            let mut out2 = [0u64; 2];
            for (m, c, leaf) in [
                (4u64, 3usize, "alias"),
                (16, 3, "alias"),
                (17, 3, "chain"),
                (256, 3, "chain"),
                (17, 2, "chain_pop"),
                (256, 2, "chain_pop"),
            ] {
                let t0 = Instant::now();
                for _ in 0..reps {
                    if c == 3 {
                        split_candidates_uniform(&mut rng, m, &table3, &mut out3);
                    } else {
                        split_candidates_uniform(&mut rng, m, &table2, &mut out2);
                    }
                }
                let ns = t0.elapsed().as_nanos() as f64 / reps as f64;
                std::hint::black_box(&out3);
                std::hint::black_box(&out2);
                crossover_rows.push(format!(
                    "    {{\"family\": \"candidate_split\", \"m\": {m}, \"candidates\": {c}, \"leaf\": \"{leaf}\", \"ns_per_split\": {ns:.1}}}"
                ));
            }
        }

        // Setup amortisation: the scalar entry points replan on every call
        // (parameter validation, leaf selection, and all float setup —
        // ln-gamma constants for HRUA, BTRS constants, pmf0 for the CDF
        // walk), while the cached handles pay that once at construction.
        // The `_ext` / `_stirling` rows pin the two-level log-factorial
        // regimes: totals ≤ 2 105 344 are table loads, beyond is the
        // Stirling kernel.  Single-shot wall timings, so rows carry
        // `host_cpus` / `time_sliced` like every other wall measurement.
        {
            use popproto_sim::{CachedBinomial, CachedHypergeometric};
            for (total, successes, draws, leaf) in [
                (4_000u64, 1_500u64, 900u64, "hrua_table"),
                (1_000_000, 400_000, 300, "hrua_ext"),
                (10_000_000, 4_000_000, 500, "hrua_stirling"),
                (1_000_000, 500_000, 100, "half_pop"),
            ] {
                let t0 = Instant::now();
                let mut acc = 0u64;
                for _ in 0..reps {
                    acc += hypergeometric(&mut rng, total, successes, draws);
                }
                let scalar_ns = t0.elapsed().as_nanos() as f64 / reps as f64;
                let cached = CachedHypergeometric::new(total, successes, draws);
                let t0 = Instant::now();
                for _ in 0..reps {
                    acc += cached.draw(&mut rng);
                }
                let cached_ns = t0.elapsed().as_nanos() as f64 / reps as f64;
                std::hint::black_box(acc);
                let amort = scalar_ns / cached_ns.max(1e-9);
                crossover_rows.push(format!(
                    "    {{\"family\": \"cached_hypergeometric\", \"total\": {total}, \"successes\": {successes}, \"draws\": {draws}, \"leaf\": \"{leaf}\", \"scalar_ns_per_draw\": {scalar_ns:.1}, \"cached_ns_per_draw\": {cached_ns:.1}, \"setup_amortisation\": {amort:.2}, \"host_cpus\": {host_cpus}, \"time_sliced\": {time_sliced}}}"
                ));
            }
            for (n_bin, p_bin, leaf) in [
                (800u64, 0.5f64, "pop"),
                (10_000, 0.0009, "cdf"),
                (1_000_000, 0.25, "btrs"),
            ] {
                let t0 = Instant::now();
                let mut acc = 0u64;
                for _ in 0..reps {
                    acc += binomial(&mut rng, n_bin, p_bin);
                }
                let scalar_ns = t0.elapsed().as_nanos() as f64 / reps as f64;
                let cached = CachedBinomial::new(n_bin, p_bin);
                let t0 = Instant::now();
                for _ in 0..reps {
                    acc += cached.draw(&mut rng);
                }
                let cached_ns = t0.elapsed().as_nanos() as f64 / reps as f64;
                std::hint::black_box(acc);
                let amort = scalar_ns / cached_ns.max(1e-9);
                crossover_rows.push(format!(
                    "    {{\"family\": \"cached_binomial\", \"n\": {n_bin}, \"p\": {p_bin}, \"leaf\": \"{leaf}\", \"scalar_ns_per_draw\": {scalar_ns:.1}, \"cached_ns_per_draw\": {cached_ns:.1}, \"setup_amortisation\": {amort:.2}, \"host_cpus\": {host_cpus}, \"time_sliced\": {time_sliced}}}"
                ));
            }
        }
        entries.push(format!(
            "  \"sampler_crossovers\": [\n{}\n  ]",
            crossover_rows.join(",\n")
        ));
    }

    let json = format!("{{\n{}\n}}\n", entries.join(",\n"));
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim.json");
    std::fs::write(path, &json).expect("failed to write BENCH_sim.json");
    println!("[E8] wrote {path}");
}

criterion_group!(benches, bench_e8, bench_engine_comparison, emit_bench_json);
criterion_main!(benches);
