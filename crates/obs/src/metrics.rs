//! Named counters, gauges and log-bucketed histograms behind atomics,
//! snapshotted into a deterministic, name-sorted [`ObsSnapshot`].

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::trace::json_escape;

/// Number of histogram buckets: bucket `k > 0` counts values whose bit
/// length is `k` (i.e. `v` in `[2^(k-1), 2^k)`); bucket 0 counts zeros.
const BUCKETS: usize = 65;

fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// A monotone counter handle; cheap to clone, updates are relaxed atomic
/// adds.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1 to the counter.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins gauge handle.
#[derive(Clone)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the gauge to `v`.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `d` (possibly negative) to the gauge.
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

struct HistCore {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl HistCore {
    fn new() -> Self {
        HistCore {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// A log-bucketed histogram handle: values land in power-of-two buckets
/// by bit length, so the full `u64` range needs only 65 counters.
#[derive(Clone)]
pub struct Hist(Arc<HistCore>);

impl Hist {
    /// Records one observation.
    pub fn observe(&self, v: u64) {
        self.0.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
    }
}

/// The process-wide metrics registry.  Handles are created on first use
/// and shared; reading never blocks writers beyond the name-lookup lock.
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicI64>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistCore>>>,
}

/// Returns the process-wide [`Registry`].
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        counters: Mutex::new(BTreeMap::new()),
        gauges: Mutex::new(BTreeMap::new()),
        histograms: Mutex::new(BTreeMap::new()),
    })
}

impl Registry {
    /// Returns (creating if needed) the counter named `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.counters.lock().expect("obs registry poisoned");
        Counter(Arc::clone(map.entry(name.to_owned()).or_default()))
    }

    /// Returns (creating if needed) the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.gauges.lock().expect("obs registry poisoned");
        Gauge(Arc::clone(map.entry(name.to_owned()).or_default()))
    }

    /// Sets the gauge named `name` to `v` (creating it if needed).
    pub fn set_gauge(&self, name: &str, v: i64) {
        self.gauge(name).set(v);
    }

    /// Returns (creating if needed) the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Hist {
        let mut map = self.histograms.lock().expect("obs registry poisoned");
        Hist(Arc::clone(
            map.entry(name.to_owned())
                .or_insert_with(|| Arc::new(HistCore::new())),
        ))
    }

    /// Clears every registered metric (names and values).  Existing
    /// handles keep working but detach from the registry.
    pub fn reset(&self) {
        self.counters.lock().expect("obs registry poisoned").clear();
        self.gauges.lock().expect("obs registry poisoned").clear();
        self.histograms
            .lock()
            .expect("obs registry poisoned")
            .clear();
    }

    /// Takes a deterministic snapshot: every metric, sorted by name.
    pub fn snapshot(&self) -> ObsSnapshot {
        let counters = self
            .counters
            .lock()
            .expect("obs registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        let gauges = self
            .gauges
            .lock()
            .expect("obs registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .expect("obs registry poisoned")
            .iter()
            .map(|(k, h)| HistogramSnapshot {
                name: k.clone(),
                count: h.count.load(Ordering::Relaxed),
                sum: h.sum.load(Ordering::Relaxed),
                buckets: h
                    .buckets
                    .iter()
                    .enumerate()
                    .filter_map(|(i, b)| {
                        let n = b.load(Ordering::Relaxed);
                        (n > 0).then_some((i as u32, n))
                    })
                    .collect(),
            })
            .collect();
        ObsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// Snapshot of one histogram: total count, total sum, and the non-empty
/// buckets as `(bit-length, count)` pairs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Histogram name.
    pub name: String,
    /// Number of observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Non-empty buckets, ascending by bucket index (= bit length of the
    /// observed value; bucket 0 holds zeros).
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    /// Mean observed value, or 0 for an empty histogram.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// A deterministic (name-sorted) snapshot of the whole registry — the
/// single reporting surface that unifies the pool, pipeline and ensemble
/// statistics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ObsSnapshot {
    /// Counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauges, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// Histograms, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
}

impl ObsSnapshot {
    /// `true` when no metric was ever registered.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Serializes the snapshot to a self-contained JSON object (sorted
    /// keys, no external dependency).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", json_escape(k), v));
        }
        out.push_str("},\"gauges\":{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", json_escape(k), v));
        }
        out.push_str("},\"histograms\":{");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{{\"count\":{},\"sum\":{},\"buckets\":{{",
                json_escape(&h.name),
                h.count,
                h.sum
            ));
            for (j, (b, n)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{b}\":{n}"));
            }
            out.push_str("}}");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_bit_length() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
    }

    #[test]
    fn snapshot_is_sorted_and_serializes() {
        // A private registry keeps this test independent of the global
        // one (other tests run concurrently).
        let reg = Registry {
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
        };
        reg.counter("z.last").add(3);
        reg.counter("a.first").incr();
        reg.set_gauge("mid \"quoted\"", -7);
        let h = reg.histogram("lat");
        h.observe(0);
        h.observe(5);
        h.observe(5);
        h.observe(1 << 20);

        let snap = reg.snapshot();
        assert_eq!(
            snap.counters,
            vec![("a.first".to_owned(), 1), ("z.last".to_owned(), 3)]
        );
        assert_eq!(snap.gauges, vec![("mid \"quoted\"".to_owned(), -7)]);
        let h = &snap.histograms[0];
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 10 + (1 << 20));
        assert_eq!(h.buckets, vec![(0, 1), (3, 2), (21, 1)]);

        let json = snap.to_json();
        assert!(json.contains("\"a.first\":1"));
        assert!(json.contains("\"mid \\\"quoted\\\"\":-7"));
        assert!(json.contains("\"buckets\":{\"0\":1,\"3\":2,\"21\":1}"));
        // The snapshot JSON must itself be valid chrome-trace-grade JSON.
        assert!(serde_json::from_str::<serde::Value>(&json).is_ok());
    }

    #[test]
    fn handles_share_the_underlying_metric() {
        let reg = registry();
        let a = reg.counter("obs.test.shared");
        let b = reg.counter("obs.test.shared");
        a.add(2);
        b.add(3);
        assert_eq!(a.get(), 5);
    }
}
