//! The repository benchmark: four end-to-end workloads measured with tracing
//! off, and a traced pass that breaks each one down by layer.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every row it prints is one JSON object on its own line, tagged with the
//! host; the last line of standard output is the result object
//! `{"correct", "attempted", "failed", "metrics"}`.  See `README.md` in this
//! directory for the workloads, the metrics and the layer map.

mod bb;
mod host;
mod metrics;
mod sim;
mod stats;

use host::{Host, Obj};
use metrics::Metrics;
use std::time::Instant;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Segmented E12 search until the merged prefix holds 10⁶ canonical
    /// 4-state orbits.
    Bb4Prefix,
    /// The whole 3-state busy-beaver space on the CSR engine.
    Bb3Exhaustive,
    /// 256 approximate-majority trajectories at n = 10⁶, sharded lockstep
    /// ensembles.
    Ensemble1e6,
    /// Solo batched approximate-majority trajectories at n = 10⁸.
    Majority1e8,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Bb4Prefix,
        Workload::Bb3Exhaustive,
        Workload::Ensemble1e6,
        Workload::Majority1e8,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Bb4Prefix => "bb4_prefix",
            Workload::Bb3Exhaustive => "bb3_exhaustive",
            Workload::Ensemble1e6 => "ensemble_1e6",
            Workload::Majority1e8 => "majority_1e8",
        }
    }

    fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Workload sizes: `Full` is what the benchmark measures; `Small` runs the
/// same code paths at toy sizes for the self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Small,
}

/// One invocation's settings.
pub struct Run {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub scale: Scale,
    pub host: Host,
}

impl Run {
    /// Prints one output row: `fields` plus the workload, seed and host tags.
    pub fn row(&self, kind: &str, fields: Obj) {
        let tagged = fields
            .with("row", kind)
            .with("workload", self.workload.name())
            .with("seed", self.seed)
            .with("host", self.host.to_value());
        println!("{}", tagged.finish());
    }
}

/// What one invocation reports in its last line.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl Outcome {
    /// Counts one check.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {what}");
        }
    }
}

/// The per-repetition result of a workload's job, after its checks.
pub struct Checked {
    /// Work items done: canonical orbits (bb) or interactions (sim).
    pub items: f64,
    /// Jobs done: one search (bb) or one trajectory per lane (sim).
    pub jobs: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Extra row fields (e.g. scheduling counters of the repetition).
    pub detail: Obj,
}

/// Fewest repetitions a measurement takes, whatever `--seconds` says.
const MIN_REPS: usize = 3;

/// Extra set-ups timed (and dropped unused) before each repetition's own.
const SETUP_SAMPLES_PER_REP: usize = 9;

/// The quantile of the repetitions' wall times reported as `wall_s`; rates
/// report the mirrored one (`1 − FAST_QUARTILE`).
const FAST_QUARTILE: f64 = 0.25;

/// The repetition index of the unmeasured warm-up run.
const WARMUP_REP: u64 = u64::MAX;

/// The measuring loop shared by every workload.  It runs one warm-up
/// repetition so allocator pools and caches are filled, then repeats
/// set-up, job and checks until `--seconds` have passed.  Before each
/// repetition's own set-up it times `SETUP_SAMPLES_PER_REP` more (dropped
/// unused), so `setup_s` is a median of samples spread over the whole run
/// rather than one burst.  Only the job is in `wall_s`; checks and
/// teardown are not timed.  Every repetition's checks count, the warm-up's
/// included.
///
/// `wall_s` is the fast quartile of the repetitions' wall times, and the
/// rates the fast quartile of theirs (`FAST_QUARTILE`).  On a shared host,
/// other tenants' bursts slow a repetition for seconds at a time and never
/// speed one up, so the median moves with how much of the run fell in such
/// a burst; the fast quartile tracks the code.  The `measured` row keeps
/// the median and interquartile range of the wall times, so a slow mode
/// of the code itself still shows.
pub fn measure<S, O>(
    run: &Run,
    mut setup: impl FnMut(u64) -> S,
    mut job: impl FnMut(&mut S) -> O,
    mut check: impl FnMut(O, &S) -> Checked,
) -> Outcome {
    let mut outcome = Outcome::default();
    let mut state = setup(WARMUP_REP);
    let out = job(&mut state);
    let warmup = check(out, &state);
    drop(state);
    outcome.attempted += warmup.attempted;
    outcome.failed += warmup.failed;

    let mut setup_s = Vec::new();
    let (mut walls, mut items_rate, mut jobs_rate) = (Vec::new(), Vec::new(), Vec::new());
    let (mut cpu_total, mut wall_total) = (0.0, 0.0);
    let start = Instant::now();
    let mut rep = 0u64;
    while (rep as usize) < MIN_REPS || start.elapsed().as_secs_f64() < run.seconds {
        for _ in 0..SETUP_SAMPLES_PER_REP {
            let t = Instant::now();
            let state = setup(rep);
            setup_s.push(t.elapsed().as_secs_f64());
            drop(state);
        }
        let t = Instant::now();
        let mut state = setup(rep);
        let setup_time = t.elapsed().as_secs_f64();
        setup_s.push(setup_time);
        let cpu0 = host::cpu_seconds();
        let t = Instant::now();
        let out = job(&mut state);
        let wall = t.elapsed().as_secs_f64();
        let cpu = host::cpu_seconds() - cpu0;
        let checked = check(out, &state);
        drop(state);
        outcome.attempted += checked.attempted;
        outcome.failed += checked.failed;
        walls.push(wall);
        items_rate.push(checked.items / wall);
        jobs_rate.push(checked.jobs / wall);
        cpu_total += cpu;
        wall_total += wall;
        let cpu_util = cpu / wall;
        run.row(
            "rep",
            checked
                .detail
                .with("rep", rep)
                .with("setup_s", setup_time)
                .with("wall_s", wall)
                .with("items", checked.items)
                .with("jobs", checked.jobs)
                .with("cpu_util", cpu_util)
                .with("over_nproc", cpu_util > run.host.nproc as f64 * 1.02)
                .with("failed", checked.failed),
        );
        rep += 1;
    }
    let cpu_util = cpu_total / wall_total;
    outcome.metrics = Metrics::from([
        ("setup_s", stats::median(&setup_s)),
        ("wall_s", stats::quantile(&walls, FAST_QUARTILE)),
        ("items_per_s", stats::quantile(&items_rate, 1.0 - FAST_QUARTILE)),
        ("jobs_per_s", stats::quantile(&jobs_rate, 1.0 - FAST_QUARTILE)),
        ("peak_rss_mb", host::peak_rss_mb()),
    ]);
    run.row(
        "measured",
        Obj::new()
            .with("reps", rep)
            .with("wall_s_reps", &walls)
            .with("wall_s_median", stats::median(&walls))
            .with(
                "wall_s_iqr",
                stats::quantile(&walls, 0.75) - stats::quantile(&walls, 0.25),
            )
            .with("cpu_util", cpu_util)
            .with("over_nproc", cpu_util > run.host.nproc as f64 * 1.02)
            .with("busy_thread_budget", run.host.nproc as u64),
    );
    outcome
}

/// Runs one workload, untraced (end-to-end metrics) or traced (per-layer).
pub fn execute(run: &Run, trace: bool) -> Outcome {
    let mut outcome = match (run.workload, trace) {
        (Workload::Bb4Prefix | Workload::Bb3Exhaustive, false) => bb::measure(run),
        (Workload::Bb4Prefix | Workload::Bb3Exhaustive, true) => bb::trace(run),
        (Workload::Ensemble1e6, false) => sim::measure_ensemble(run),
        (Workload::Ensemble1e6, true) => sim::trace_ensemble(run),
        (Workload::Majority1e8, false) => sim::measure_majority(run),
        (Workload::Majority1e8, true) => sim::trace_majority(run),
    };
    if trace {
        outcome.metrics.extend(sim::sampling_probes(run));
    }
    outcome
}

/// The last output line.  Every metric of the catalogue appears, in
/// catalogue order; a per-layer metric the workload never set reads `0`.
pub fn result_line(outcome: &Outcome, trace: bool) -> String {
    let mut metrics = Obj::new();
    for &(name, unit) in metrics::catalogue(trace) {
        let value = match outcome.metrics.get(name) {
            Some(&v) => v,
            None if trace => 0.0,
            None => panic!("end-to-end metric {name} was not measured"),
        };
        metrics = metrics.with(
            name,
            Obj::new()
                .with("value", value)
                .with("unit", unit)
                .into_value(),
        );
    }
    Obj::new()
        .with("correct", outcome.failed == 0 && outcome.attempted > 0)
        .with("attempted", outcome.attempted.max(1))
        .with("failed", outcome.failed)
        .with("metrics", metrics.into_value())
        .finish()
}

/// Prints the traced metrics as an aligned table (before the result line).
fn print_layer_table(run: &Run, outcome: &Outcome) {
    println!(
        "per-layer breakdown of {} (0 = layer not exercised):",
        run.workload.name()
    );
    for &(name, unit) in metrics::PER_LAYER {
        let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
        println!("  {name:<44} {value:>18.4} {unit}");
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let pos = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(pos + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload_name = value("--workload")?;
    let workload = Workload::parse(workload_name)
        .ok_or_else(|| format!("unknown workload {workload_name}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!(
                "perfbench: {message}\nusage: perfbench --workload <{}> --seed <n> \
                 --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            std::process::exit(2);
        }
    };
    let run = Run {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        scale: Scale::Full,
        host: Host::detect(),
    };
    run.row("start", Obj::new().with("trace", args.trace));
    let outcome = execute(&run, args.trace);
    if args.trace {
        print_layer_table(&run, &outcome);
    }
    run.row(
        "summary",
        Obj::new()
            .with("trace", args.trace)
            .with("attempted", outcome.attempted)
            .with("failed", outcome.failed)
            .with(
                "error_rate",
                outcome.failed as f64 / outcome.attempted.max(1) as f64,
            ),
    );
    println!("{}", result_line(&outcome, args.trace));
}

#[cfg(test)]
mod tests;
