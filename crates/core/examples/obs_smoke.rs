//! Observability smoke drive — the end-to-end exercise behind the
//! `obs-smoke` CI job.
//!
//! Runs, in one process:
//!
//! 1. a traced 4-worker segmented E12 prefix with streaming heartbeats,
//!    writing `obs_trace_e12.json` (chrome://tracing / Perfetto loadable)
//!    and `heartbeat_e12.jsonl`, and validating that the trace parses and
//!    its spans nest;
//! 2. the **kill/resume assert**: the partial run above is treated as a
//!    killed search — the search is rebuilt from the checkpoint embedded
//!    in the *last heartbeat line alone* and driven to a larger budget,
//!    and its merged result must be bit-identical to an uninterrupted
//!    run of that budget;
//! 3. a traced sharded ensemble run (K ≥ 16 lanes, ≥ 2 shards) with
//!    heartbeats, writing `obs_trace_ensemble.json` and
//!    `heartbeat_ensemble.jsonl`, with outcomes bit-identical to the
//!    same run performed untraced and heartbeat-free;
//! 4. a unified metrics snapshot (`obs_snapshot.json`) collecting the
//!    exec-pool stats, the ensemble wave-phase breakdown and the E12
//!    pipeline funnel, rendered to stdout as markdown.
//!
//! Usage: `obs_smoke [ARTIFACT_DIR]` (default `obs-artifacts`).

use popproto::experiments;
use popproto::orbit_stream::SegmentOrder;
use popproto::report::render_obs;
use popproto::segmented::SegmentedCheckpoint;
use popproto_exec::Pool;
use popproto_obs as obs;
use popproto_sim::{
    run_sharded_ensemble_until_convergence, run_sharded_ensemble_with_heartbeat,
    ConvergenceCriterion, EnsembleSimulator,
};
use serde::Deserialize as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const PARTIAL_ORBITS: u64 = 400;
const FULL_ORBITS: u64 = 900;
const LANES: usize = 16;
const SHARDS: usize = 2;

fn main() {
    let out_dir = std::env::args()
        .nth(1)
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("obs-artifacts"));
    fs::create_dir_all(&out_dir).expect("create artifact dir");

    e12_trace_and_resume(&out_dir);
    ensemble_trace(&out_dir);
    snapshot(&out_dir);

    println!("obs smoke: OK ({})", out_dir.display());
}

/// Parts 1 and 2: traced segmented E12 prefix, then resume from the last
/// heartbeat line.
fn e12_trace_and_resume(out_dir: &Path) {
    // Untraced, heartbeat-free references first, so the traced run can be
    // checked against them (instrumentation inertness).
    let mut reference_partial = experiments::e12_segmented_search(6, SegmentOrder::Index);
    reference_partial.run(4, PARTIAL_ORBITS);
    let reference_partial = reference_partial.result();
    let mut reference_full = experiments::e12_segmented_search(6, SegmentOrder::Index);
    reference_full.run(4, FULL_ORBITS);
    let reference_full = reference_full.result();

    obs::start();
    let heartbeat_path = out_dir.join("heartbeat_e12.jsonl");
    let mut heartbeat =
        obs::Heartbeat::to_file(&heartbeat_path, Duration::ZERO).expect("open heartbeat file");
    let pool = Pool::new(4);
    let mut search = experiments::e12_segmented_search(6, SegmentOrder::Index);
    search.run_with_heartbeat(&pool, PARTIAL_ORBITS, &mut heartbeat);
    let pool_stats = pool.stats();
    let traced = search.result();
    let trace = obs::stop();

    // The trace must parse as chrome-trace JSON with properly nested spans
    // from all four workers.
    let json = trace.to_chrome_trace();
    let summary = obs::validate_chrome_trace(&json).expect("E12 trace must validate");
    assert!(
        summary.complete > 0,
        "E12 trace must contain segment/wave spans"
    );
    assert!(
        summary.tids >= 2,
        "a 4-worker run must trace more than one thread: {}",
        summary.tids
    );
    fs::write(out_dir.join("obs_trace_e12.json"), &json).expect("write E12 trace");

    // Tracing + heartbeats must not have changed a single merged number.
    assert_eq!(
        traced, reference_partial,
        "tracing/heartbeats perturbed the segmented search"
    );

    // Publish the run's metrics for part 4.
    pool_stats.publish("e12.pool");
    traced.stats.publish("e12.funnel");

    // --- kill/resume: rebuild from the last heartbeat line only --------
    let text = fs::read_to_string(&heartbeat_path).expect("read heartbeat file");
    let last = text.lines().last().expect("at least one heartbeat line");
    let value: serde::Value = serde_json::from_str(last).expect("heartbeat line is JSON");
    assert_eq!(
        value
            .field("kind")
            .and_then(String::from_value)
            .expect("kind field"),
        "segmented_heartbeat"
    );
    let checkpoint =
        SegmentedCheckpoint::from_value(value.field("checkpoint").expect("checkpoint field"))
            .expect("embedded checkpoint deserialises");
    let mut resumed = popproto::segmented::SegmentedSearch::from_checkpoint(&checkpoint)
        .expect("embedded checkpoint resumes");
    resumed.run(3, FULL_ORBITS);
    let resumed = resumed.result();
    assert_eq!(resumed.best, reference_full.best, "resume diverged: best");
    assert_eq!(
        resumed.confirmed, reference_full.confirmed,
        "resume diverged: witness set"
    );
    assert_eq!(
        resumed.stats.canonical_orbits, reference_full.stats.canonical_orbits,
        "resume diverged: orbits"
    );
    assert_eq!(
        resumed.stats.threshold_protocols, reference_full.stats.threshold_protocols,
        "resume diverged: confirmed thresholds"
    );
    assert_eq!(
        resumed.stats.profiled, reference_full.stats.profiled,
        "resume diverged: profiled"
    );
    println!(
        "e12: {} heartbeat lines, {} spans, resume from last line reached {} orbits",
        text.lines().count(),
        summary.complete,
        resumed.prefix_orbits
    );
}

/// Part 3: traced sharded ensemble with heartbeats, bit-identical to the
/// plain sharded drive.
fn ensemble_trace(out_dir: &Path) {
    let protocol = popproto_zoo::approximate_majority();
    let input = popproto_model::Input::from_counts(vec![700, 500]);
    let initial = protocol.initial_config(&input);
    let seeds: Vec<u64> = (0..LANES as u64).collect();
    let budget = 2_000_000;

    let reference = run_sharded_ensemble_until_convergence(
        &protocol,
        &initial,
        &seeds,
        SHARDS,
        ConvergenceCriterion::Silent,
        budget,
    );

    obs::start();
    let heartbeat = obs::Heartbeat::to_file(
        &out_dir.join("heartbeat_ensemble.jsonl"),
        Duration::from_millis(20),
    )
    .expect("open ensemble heartbeat file");
    let heartbeat = Arc::new(Mutex::new(heartbeat));
    let traced = run_sharded_ensemble_with_heartbeat(
        &protocol,
        &initial,
        &seeds,
        SHARDS,
        ConvergenceCriterion::Silent,
        budget,
        &heartbeat,
    );
    let trace = obs::stop();

    let json = trace.to_chrome_trace();
    let summary = obs::validate_chrome_trace(&json).expect("ensemble trace must validate");
    assert!(
        summary.complete > 0,
        "ensemble trace must contain wave/phase spans"
    );
    fs::write(out_dir.join("obs_trace_ensemble.json"), &json).expect("write ensemble trace");

    assert_eq!(
        traced.len(),
        reference.len(),
        "lane count changed under tracing"
    );
    for (lane, (t, r)) in traced.iter().zip(&reference).enumerate() {
        assert_eq!(t.converged, r.converged, "lane {lane}: converged");
        assert_eq!(t.output, r.output, "lane {lane}: output");
        assert_eq!(t.interactions, r.interactions, "lane {lane}: interactions");
        assert_eq!(
            t.interactions_to_convergence, r.interactions_to_convergence,
            "lane {lane}: convergence point"
        );
    }

    // One more untraced drive to publish the wave-phase breakdown (the
    // sharded entry points consume their simulators internally).
    let mut sim = EnsembleSimulator::new(protocol, initial, &seeds);
    popproto_sim::run_ensemble_until_convergence(&mut sim, ConvergenceCriterion::Silent, budget);
    sim.phase_breakdown().publish("ensemble");

    let text =
        fs::read_to_string(out_dir.join("heartbeat_ensemble.jsonl")).expect("read heartbeats");
    let last = text.lines().last().expect("final ensemble heartbeat");
    let value: serde::Value = serde_json::from_str(last).expect("heartbeat line is JSON");
    let converged = value
        .field("lanes_converged")
        .and_then(u64::from_value)
        .expect("final line carries lanes_converged");
    assert_eq!(
        converged,
        traced.iter().filter(|o| o.converged).count() as u64
    );
    println!(
        "ensemble: {} lanes x {} shards, {} spans, {} heartbeat lines",
        LANES,
        SHARDS,
        summary.complete,
        text.lines().count()
    );
}

/// Part 4: the unified snapshot, serialised and rendered.
fn snapshot(out_dir: &Path) {
    let snapshot = obs::registry().snapshot();
    assert!(
        !snapshot.is_empty(),
        "the smoke runs must have published metrics"
    );
    fs::write(out_dir.join("obs_snapshot.json"), snapshot.to_json()).expect("write snapshot");
    println!("{}", render_obs(&snapshot));
}
