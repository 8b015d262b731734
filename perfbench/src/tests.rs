//! Self-tests of the benchmark.  Run them in release mode (the workloads
//! are slow unoptimised):
//!
//! ```text
//! cargo test --release --offline --manifest-path perfbench/Cargo.toml
//! ```

use super::*;
use serde::Value;

/// Traced layer self-times must explain the traced wall to within this
/// share, in either direction.
pub const ADD_UP_TOLERANCE: f64 = 0.25;

/// Serialises the tests that run workloads: each sizes its pools to the
/// whole machine, so concurrent runs would skew each other's timings.
pub fn exclusive() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

pub fn small_run(workload: Workload, seed: u64) -> Run {
    Run {
        workload,
        seed,
        seconds: 0.0,
        scale: Scale::Small,
        host: Host::detect(),
    }
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn string(value: &Value) -> String {
    match value {
        Value::Str(s) => s.clone(),
        other => panic!("expected a string, found {other:?}"),
    }
}

fn entries(json: &Value, key: &str) -> Vec<Value> {
    match json.field(key).expect("BENCHMARK.json is an object") {
        Value::Array(items) => items.clone(),
        other => panic!("{key} must be an array, found {other:?}"),
    }
}

/// `(name, field)` of every entry of the array `key`.
fn named(json: &Value, key: &str, field: &str) -> Vec<(String, String)> {
    entries(json, key)
        .iter()
        .map(|e| {
            (
                string(e.field("name").unwrap()),
                string(e.field(field).unwrap()),
            )
        })
        .collect()
}

fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
    table
        .iter()
        .map(|&(n, u)| (n.to_owned(), u.to_owned()))
        .collect()
}

#[test]
fn printed_metric_names_match_benchmark_json() {
    let json = benchmark_json();
    assert_eq!(
        named(&json, "end_to_end", "unit"),
        owned(metrics::END_TO_END)
    );
    assert_eq!(named(&json, "per_layer", "unit"), owned(metrics::PER_LAYER));
    let workloads: Vec<String> = named(&json, "workloads", "why")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn metric_names_and_units_use_the_allowed_characters() {
    let mut seen = std::collections::HashSet::new();
    let names = metrics::END_TO_END
        .iter()
        .chain(metrics::PER_LAYER)
        .map(|&(n, u)| (n, u))
        .chain(Workload::ALL.iter().map(|w| (w.name(), "count")));
    for (name, unit) in names {
        assert!(seen.insert(name), "{name} is used twice");
        assert!(name.len() <= 64, "{name} is too long");
        assert!(
            name.starts_with(|c: char| c.is_ascii_alphanumeric()),
            "{name}"
        );
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "{name} has a character outside [A-Za-z0-9_.-]"
        );
        assert!(unit.len() <= 16, "{unit} is too long");
        assert!(
            unit.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "unit {unit} has a disallowed character"
        );
    }
}

#[test]
fn result_line_carries_every_catalogue_metric() {
    for trace in [false, true] {
        let mut outcome = Outcome {
            attempted: 2,
            failed: 0,
            metrics: Metrics::new(),
        };
        for &(name, _) in metrics::catalogue(trace) {
            outcome.metrics.insert(name, 1.5);
        }
        let line: Value = serde_json::from_str(&result_line(&outcome, trace)).unwrap();
        assert_eq!(line.field("correct").unwrap(), &Value::Bool(true));
        let Value::Object(printed) = line.field("metrics").unwrap() else {
            panic!("metrics must be an object");
        };
        let printed: Vec<&str> = printed.iter().map(|(k, _)| k.as_str()).collect();
        let expected: Vec<&str> = metrics::catalogue(trace).iter().map(|&(n, _)| n).collect();
        assert_eq!(printed, expected);
    }
}

#[test]
fn small_traced_runs_are_correct_and_their_layers_add_up() {
    let _guard = exclusive();
    for workload in Workload::ALL {
        let run = small_run(workload, 7);
        let outcome = execute(&run, true);
        assert!(
            outcome.attempted > 0,
            "{}: nothing checked",
            workload.name()
        );
        assert_eq!(outcome.failed, 0, "{}: checks failed", workload.name());
        let get = |name: &str| outcome.metrics.get(name).copied().unwrap_or(0.0);
        let unaccounted = get("unaccounted_share");
        assert!(
            unaccounted.abs() <= ADD_UP_TOLERANCE,
            "{}: layer self-times leave {unaccounted} of the traced wall unexplained",
            workload.name()
        );
        // The stage probes must not explain more than the offers took.
        assert!(
            get("core.candidate_pipeline.self_share") >= -ADD_UP_TOLERANCE,
            "{}: stage times exceed the offer time",
            workload.name()
        );
        for probe in [
            "sim.sampling.hyp_table_ns",
            "sim.sampling.hyp_stirling_ns",
            "sim.sampling.binomial_ns",
        ] {
            assert!(get(probe) > 0.0, "{probe} not measured");
        }
    }
}

#[test]
fn small_untraced_runs_are_correct() {
    let _guard = exclusive();
    for workload in Workload::ALL {
        let outcome = execute(&small_run(workload, 11), false);
        assert_eq!(outcome.failed, 0, "{}: checks failed", workload.name());
        for &(name, _) in metrics::END_TO_END {
            let value = outcome.metrics[name];
            assert!(value > 0.0, "{}: {name} reads {value}", workload.name());
        }
    }
}
