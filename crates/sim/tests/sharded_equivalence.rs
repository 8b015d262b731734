//! Threads × lanes bit-equivalence: the sharded ensemble vs the unsharded
//! one.
//!
//! The contract under test: running a K-lane ensemble as P contiguous lane
//! sub-blocks on the worker pool is **bit-identical** to running it as one
//! unsharded ensemble — for every tested P, including P values that do not
//! divide K, P ≥ K (one lane per shard), and the auto-detect setting.
//! Sharding is a throughput knob, never a semantics knob.

use popproto_model::Input;
use popproto_obs as obs;
use popproto_sim::{
    run_ensemble_until_convergence, run_sharded_ensemble_until_convergence,
    run_sharded_ensemble_with_heartbeat, ConvergenceCriterion, ConvergenceOutcome,
    EnsembleSimulator,
};
use popproto_zoo::{approximate_majority, binary_counter};
use serde::Deserialize as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn assert_outcomes_identical(a: &[ConvergenceOutcome], b: &[ConvergenceOutcome], ctx: &str) {
    assert_eq!(a.len(), b.len(), "outcome count: {ctx}");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.converged, y.converged, "converged, seed {i}: {ctx}");
        assert_eq!(x.output, y.output, "output, seed {i}: {ctx}");
        assert_eq!(
            x.interactions, y.interactions,
            "interactions, seed {i}: {ctx}"
        );
        assert_eq!(
            x.interactions_to_convergence, y.interactions_to_convergence,
            "convergence point, seed {i}: {ctx}"
        );
    }
}

#[test]
fn sharded_driver_is_bit_identical_to_unsharded_for_every_shard_count() {
    let p = approximate_majority();
    let ic = p.initial_config(&Input::from_counts(vec![700, 500]));
    let seeds: Vec<u64> = (0..13).collect();
    let criterion = ConvergenceCriterion::Silent;
    let budget = 2_000_000u64;

    let mut unsharded = EnsembleSimulator::new(p.clone(), ic.clone(), &seeds);
    let reference = run_ensemble_until_convergence(&mut unsharded, criterion, budget);

    // 13 seeds: P = 2 and 4 leave a ragged final shard, P = 7 gives
    // two-lane shards, P = 64 > K degenerates to one lane per shard, and
    // P = 0 auto-detects from the pool.
    for shards in [1usize, 2, 4, 7, 64, 0] {
        let sharded =
            run_sharded_ensemble_until_convergence(&p, &ic, &seeds, shards, criterion, budget);
        assert_outcomes_identical(&reference, &sharded, &format!("P = {shards}"));
    }
}

#[test]
fn sharded_driver_matches_under_the_persistence_criterion() {
    let p = binary_counter(3);
    let ic = p.initial_config_unary(5_000);
    let seeds: Vec<u64> = (100..106).collect();
    let criterion = ConvergenceCriterion::ConsensusPersistence { window: 10_000 };

    let mut unsharded = EnsembleSimulator::new(p.clone(), ic.clone(), &seeds);
    let reference = run_ensemble_until_convergence(&mut unsharded, criterion, u64::MAX);
    for shards in [2usize, 3] {
        let sharded =
            run_sharded_ensemble_until_convergence(&p, &ic, &seeds, shards, criterion, u64::MAX);
        assert_outcomes_identical(&reference, &sharded, &format!("persistence, P = {shards}"));
    }
}

/// Instrumentation inertness at the sharded-driver level: outcomes are
/// bit-identical with tracing disabled, with tracing enabled, and with the
/// heartbeat variant layered on top — the obs layer is a pure observer.
#[test]
fn tracing_and_heartbeats_leave_sharded_outcomes_bit_identical() {
    let _serial = obs::test_support::serial();
    let p = approximate_majority();
    let ic = p.initial_config(&Input::from_counts(vec![700, 500]));
    let seeds: Vec<u64> = (0..13).collect();
    let criterion = ConvergenceCriterion::Silent;
    let budget = 2_000_000u64;

    assert!(!obs::enabled(), "tracing must start disabled");
    let reference = run_sharded_ensemble_until_convergence(&p, &ic, &seeds, 4, criterion, budget);

    obs::start();
    let traced = run_sharded_ensemble_until_convergence(&p, &ic, &seeds, 4, criterion, budget);
    let (heartbeat, lines) = obs::Heartbeat::shared_buffer(Duration::ZERO);
    let heartbeat = Arc::new(Mutex::new(heartbeat));
    let observed =
        run_sharded_ensemble_with_heartbeat(&p, &ic, &seeds, 4, criterion, budget, &heartbeat);
    let trace = obs::stop();

    assert_outcomes_identical(&reference, &traced, "tracing enabled");
    assert_outcomes_identical(&reference, &observed, "tracing + heartbeat");

    // The byproducts must be real: shard spans in a valid chrome trace, and
    // a final heartbeat line counting the converged lanes.
    let json = trace.to_chrome_trace();
    let summary = obs::validate_chrome_trace(&json).expect("trace validates");
    assert!(summary.complete > 0, "shard/wave spans were traced");
    let text = String::from_utf8(lines.lock().unwrap().clone()).unwrap();
    let last = text.lines().last().expect("final heartbeat line");
    assert!(last.contains("\"kind\":\"ensemble_heartbeat\""));
    assert!(last.contains("\"final\":true"));
    let converged = reference.iter().filter(|o| o.converged).count();
    assert!(last.contains(&format!("\"lanes_converged\":{converged}")));
}

/// The count `name` of a JSON heartbeat line.
fn field(line: &serde::Value, name: &str) -> u64 {
    line.field(name)
        .and_then(u64::from_value)
        .unwrap_or_else(|e| panic!("heartbeat field {name}: {e:?}"))
}

/// The final heartbeat line adds up the outcomes it reports on, whether the
/// lanes run as one ensemble on the calling thread or as shards on the pool.
#[test]
fn final_heartbeat_line_matches_the_outcomes_for_one_and_many_shards() {
    let p = approximate_majority();
    let ic = p.initial_config(&Input::from_counts(vec![700, 500]));
    let seeds: Vec<u64> = (0..13).collect();
    let criterion = ConvergenceCriterion::Silent;
    // Short enough that some lanes run out of budget.
    let budget = 14_000u64;
    for shards in [1usize, 4] {
        let (heartbeat, lines) = obs::Heartbeat::shared_buffer(Duration::ZERO);
        let heartbeat = Arc::new(Mutex::new(heartbeat));
        let outcomes = run_sharded_ensemble_with_heartbeat(
            &p, &ic, &seeds, shards, criterion, budget, &heartbeat,
        );
        let converged = outcomes.iter().filter(|o| o.converged).count() as u64;
        assert!(
            0 < converged && converged < seeds.len() as u64,
            "P = {shards}: a mix"
        );
        let text = String::from_utf8(lines.lock().unwrap().clone()).unwrap();
        let last = text.lines().last().expect("final heartbeat line");
        assert!(last.contains("\"final\":true"), "P = {shards}: {last}");
        let last: serde::Value = serde_json::from_str(last).expect("heartbeat line is JSON");
        assert_eq!(
            field(&last, "lanes_total"),
            seeds.len() as u64,
            "P = {shards}"
        );
        assert_eq!(
            field(&last, "lanes_finished"),
            seeds.len() as u64,
            "P = {shards}"
        );
        assert_eq!(field(&last, "lanes_converged"), converged, "P = {shards}");
        assert_eq!(
            field(&last, "interactions"),
            outcomes.iter().map(|o| o.interactions).sum::<u64>(),
            "P = {shards}"
        );
    }
}

/// Every recorded wave phase lies inside a recorded `wave` span on its own
/// thread: phases of waves begun before the session are not recorded.
fn assert_phases_are_wave_children(trace: &obs::Trace, cycle: u64) {
    let spans: Vec<(&str, u64, u64, u64)> = trace
        .events()
        .iter()
        .filter_map(|e| match *e {
            obs::Event::Complete {
                name,
                tid,
                ts_ns,
                dur_ns,
                ..
            } => Some((name, tid, ts_ns, ts_ns + dur_ns)),
            _ => None,
        })
        .collect();
    let phases = [
        "classification",
        "split",
        "pairing",
        "apply",
        "collision",
        "silence",
    ];
    for &(name, tid, start, end) in spans.iter().filter(|s| phases.contains(&s.0)) {
        assert!(
            spans
                .iter()
                .any(|w| w.0 == "wave" && w.1 == tid && w.2 <= start && end <= w.3),
            "cycle {cycle}: phase {name} [{start}, {end}] on tid {tid} has no enclosing wave"
        );
    }
}

/// Tracing switched on and off while ensembles are mid-wave on the global
/// pool still yields valid traces: a wave begun before a session must not
/// emit phase spans that cross the spans recorded beside it.  The
/// background runs stand for other callers in the same process that never
/// asked for tracing; their outcomes must not move either.
#[test]
fn tracing_toggled_mid_run_on_the_global_pool_yields_valid_traces() {
    let _serial = obs::test_support::serial();
    let p = approximate_majority();
    let ic = p.initial_config(&Input::from_counts(vec![700, 500]));
    let seeds: Vec<u64> = (0..13).collect();
    let criterion = ConvergenceCriterion::Silent;
    let budget = 2_000_000u64;
    let reference = run_sharded_ensemble_until_convergence(&p, &ic, &seeds, 4, criterion, budget);

    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let background = s.spawn(|| {
            let mut runs = 0u32;
            while runs == 0 || !done.load(Ordering::Relaxed) {
                let out =
                    run_sharded_ensemble_until_convergence(&p, &ic, &seeds, 4, criterion, budget);
                assert_outcomes_identical(&reference, &out, "background run");
                runs += 1;
            }
            runs
        });
        // Stops the background loop even when an assertion below unwinds.
        struct StopOnDrop<'a>(&'a AtomicBool);
        impl Drop for StopOnDrop<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::Relaxed);
            }
        }
        let stop = StopOnDrop(&done);
        // The sleeps only stagger the sessions across the background waves;
        // the obs crate's `marks_outside_a_session_span_record_nothing`
        // pins the rule itself without timing.
        for cycle in 0..8u64 {
            std::thread::sleep(Duration::from_millis(1 + cycle));
            obs::start();
            std::thread::sleep(Duration::from_millis(3));
            let trace = obs::stop();
            obs::validate_chrome_trace(&trace.to_chrome_trace())
                .unwrap_or_else(|e| panic!("trace of cycle {cycle} is invalid: {e}"));
            assert_phases_are_wave_children(&trace, cycle);
        }
        drop(stop);
        assert!(background.join().expect("background runs") > 0);
    });
}
