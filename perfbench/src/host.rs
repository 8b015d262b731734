//! Host tags and process counters read from `/proc`, plus the row type
//! every output line goes through.

use serde::{Serialize, Value};

/// One JSON object, built field by field and written by the workspace's
/// `serde_json` (full-precision numbers, `null` for non-finite ones).
#[derive(Debug, Default)]
pub struct Obj(Vec<(String, Value)>);

impl Obj {
    pub fn new() -> Self {
        Obj::default()
    }

    pub fn with(mut self, key: &str, value: impl Serialize) -> Self {
        self.0.push((key.to_owned(), value.to_value()));
        self
    }

    pub fn into_value(self) -> Value {
        Value::Object(self.0)
    }

    pub fn finish(self) -> String {
        serde_json::to_string(&self.into_value()).expect("JSON values always serialise")
    }
}

/// Where and how a run executed: attached to every output row so rows from
/// different hosts or builds are never compared blind.
#[derive(Debug, Clone)]
pub struct Host {
    /// CPUs this process may run on (its affinity mask, as `nproc` counts).
    pub nproc: usize,
    /// `std::thread::available_parallelism` (also honours cgroup quotas).
    pub available_parallelism: usize,
    pub cpu_model: String,
    /// The vector-ISA flags the kernels care about, as the CPU reports them.
    pub cpu_features: Vec<String>,
    /// Whether the build targeted AVX-512 (`.cargo/config.toml` asks for
    /// x86-64-v4 on x86-64 Linux).
    pub build_avx512: bool,
    /// Whether `popproto-sim` was compiled with its `simd` feature.
    pub simd_compiled: bool,
    /// Whether the SIMD kernels actually run, and the detected tier.
    pub simd_active: bool,
    pub simd_tier: String,
    /// The source commit, when the checkout is a git repository.
    pub git_commit: String,
}

const TRACKED_FLAGS: &[&str] = &[
    "avx2", "fma", "bmi2", "avx512f", "avx512dq", "avx512bw", "avx512vl",
];

impl Host {
    pub fn detect() -> Self {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let field = |name: &str| {
            cpuinfo
                .lines()
                .find(|l| l.starts_with(name))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
                .unwrap_or_default()
        };
        let flags = field("flags");
        let cpu_features = TRACKED_FLAGS
            .iter()
            .filter(|f| flags.split_whitespace().any(|g| g == **f))
            .map(|f| (*f).to_owned())
            .collect();
        let available_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
        let (simd_active, simd_tier) = popproto_sim::simd_control::status();
        Host {
            nproc: affinity_cpus().unwrap_or(available_parallelism),
            available_parallelism,
            cpu_model: field("model name"),
            cpu_features,
            build_avx512: cfg!(target_feature = "avx512f"),
            simd_compiled: popproto_sim::simd_control::COMPILED,
            simd_active,
            simd_tier: simd_tier.to_owned(),
            git_commit: git_commit().unwrap_or_else(|| "unknown".to_owned()),
        }
    }

    /// Pool workers that keep busy threads within `nproc`: the thread that
    /// submits to a `popproto_exec::Pool` helps run its jobs, so it counts.
    pub fn pool_workers(&self) -> usize {
        self.nproc.saturating_sub(1).max(1)
    }

    pub fn to_value(&self) -> Value {
        Obj::new()
            .with("nproc", self.nproc)
            .with("available_parallelism", self.available_parallelism)
            .with("cpu_model", &self.cpu_model)
            .with("cpu_features", &self.cpu_features)
            .with("build_avx512", self.build_avx512)
            .with("simd_compiled", self.simd_compiled)
            .with("simd_active", self.simd_active)
            .with("simd_tier", &self.simd_tier)
            .with("git_commit", &self.git_commit)
            .into_value()
    }
}

/// Counts the CPUs in this process's affinity mask (`Cpus_allowed_list`).
fn affinity_cpus() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?
        .trim();
    let mut count = 0;
    for part in list.split(',') {
        match part.split_once('-') {
            Some((lo, hi)) => {
                count += hi.parse::<usize>().ok()? - lo.parse::<usize>().ok()? + 1;
            }
            None => {
                part.parse::<usize>().ok()?;
                count += 1;
            }
        }
    }
    (count > 0).then_some(count)
}

/// Resolves `.git/HEAD` in the working directory without running git.
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(id.trim().to_owned());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|l| {
        let (id, name) = l.split_once(' ')?;
        (name == reference).then(|| id.to_owned())
    })
}

/// User plus system CPU time of the whole process (every thread, live or
/// exited), in seconds.  `/proc` reports clock ticks of 1/100 s.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// The process's resident-set high-water mark (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
