//! Observability for the popproto workspace.
//!
//! Three cooperating layers, all inert unless explicitly switched on:
//!
//! * **Spans** ([`span`], [`span_with_arg`]) — a
//!   global tracing gate guarded by a single relaxed atomic load.  While
//!   tracing is disabled (the default) a span check costs one load and a
//!   trivially-dead guard; the crate's test suite asserts the per-check
//!   cost stays below 5 ns in release builds.  While enabled, events are
//!   buffered in thread-local vectors and flushed into a global sink
//!   whenever the recording thread's span depth returns to zero, so the
//!   hot path never takes the sink lock mid-span.  [`stop`] drains the
//!   sink into a [`Trace`] that exports to the Chrome Trace Event Format
//!   (viewable in `chrome://tracing` or Perfetto).
//! * **Metrics registry** ([`registry`]) — named counters, gauges and
//!   log-bucketed histograms behind atomics, snapshotted into a
//!   deterministic, name-sorted [`ObsSnapshot`] that serializes itself
//!   to JSON.
//! * **Heartbeats** ([`Heartbeat`]) — period-gated JSONL progress lines
//!   for long-running searches; callers embed their own resume token
//!   (e.g. a serialized checkpoint) so any heartbeat line is a valid
//!   restart point.
//!
//! Instrumentation through this crate must be *provably inert*: it only
//! observes, it never feeds back into the computation, so search and
//! simulation outputs are bit-identical with tracing enabled, disabled,
//! or absent.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod heartbeat;
mod metrics;
mod phases;
mod trace;

pub use heartbeat::Heartbeat;
pub use metrics::{registry, Counter, Gauge, Hist, HistogramSnapshot, ObsSnapshot, Registry};
pub use phases::{PhaseMark, Phases};
pub use trace::{validate_chrome_trace, TraceSummary};

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Global tracing gate.  `false` (the default) short-circuits every span
/// to a no-op after one relaxed load.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Monotone session counter, bumped by [`start`].  Thread-local buffers
/// remember the session they were filled in; stale events from an
/// earlier session are discarded instead of contaminating a new trace.
static SESSION: AtomicU64 = AtomicU64::new(0);

/// Next thread id handed to a recording thread (0 is reserved).
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

fn sink() -> &'static Mutex<Vec<Event>> {
    static SINK: OnceLock<Mutex<Vec<Event>>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(Vec::new()))
}

/// The trace epoch: all timestamps are nanoseconds since this instant.
/// Pinned on first use and shared by every session (timestamps only ever
/// grow, which is all the trace format needs).
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

pub(crate) fn ns_since_epoch(t: Instant) -> u64 {
    t.duration_since(epoch()).as_nanos() as u64
}

/// Returns `true` while span recording is switched on.
///
/// This is the fast-path check: one relaxed atomic load.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Switches tracing on and clears any previously collected events.
pub fn start() {
    epoch(); // pin the epoch before the first event
    SESSION.fetch_add(1, Ordering::SeqCst);
    sink().lock().expect("obs sink poisoned").clear();
    ENABLED.store(true, Ordering::SeqCst);
}

/// Switches tracing off and drains every flushed event into a [`Trace`].
///
/// Threads flush their buffers when their span depth returns to zero, so
/// call `stop` only after the traced work has joined (e.g. after a pool
/// `map` returned); events still buffered on a live thread at stop time
/// are not included.
pub fn stop() -> Trace {
    ENABLED.store(false, Ordering::SeqCst);
    let events = std::mem::take(&mut *sink().lock().expect("obs sink poisoned"));
    Trace { events }
}

/// A single recorded trace event.
#[derive(Clone, Debug)]
pub enum Event {
    /// A closed span on one thread.
    Complete {
        /// Span name.
        name: &'static str,
        /// Recording thread id.
        tid: u64,
        /// Start, nanoseconds since the trace epoch.
        ts_ns: u64,
        /// Duration in nanoseconds.
        dur_ns: u64,
        /// Optional single integer argument.
        arg: Option<(&'static str, u64)>,
    },
    /// Thread-name metadata, emitted once per recording thread.
    ThreadName {
        /// Recording thread id.
        tid: u64,
        /// Human-readable thread name.
        name: String,
    },
}

/// A drained trace: the events collected between [`start`] and [`stop`].
#[derive(Clone, Debug, Default)]
pub struct Trace {
    events: Vec<Event>,
}

impl Trace {
    /// The collected events, in flush order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of collected events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when no events were collected.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Serializes the trace to the Chrome Trace Event Format
    /// (`{"traceEvents":[...]}`), loadable in `chrome://tracing` and
    /// Perfetto.
    pub fn to_chrome_trace(&self) -> String {
        trace::to_chrome_trace(&self.events)
    }
}

pub(crate) struct ThreadBuf {
    pub(crate) tid: u64,
    depth: u32,
    /// Session of the spans counted by `session_depth`.
    depth_session: u64,
    /// Live spans on this thread opened in `depth_session`.
    session_depth: u32,
    session: u64,
    named: bool,
    pub(crate) events: Vec<Event>,
}

impl ThreadBuf {
    fn new() -> Self {
        ThreadBuf {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            depth: 0,
            depth_session: 0,
            session_depth: 0,
            session: 0,
            named: false,
            events: Vec::new(),
        }
    }

    /// Drops buffered events from an earlier session and (re-)emits the
    /// thread-name metadata event for the current one.
    pub(crate) fn sync_session(&mut self) {
        let current = SESSION.load(Ordering::Relaxed);
        if self.session != current {
            self.events.clear();
            self.session = current;
            self.named = false;
        }
        if !self.named {
            self.named = true;
            let name = std::thread::current()
                .name()
                .map(str::to_owned)
                .unwrap_or_else(|| format!("thread-{}", self.tid));
            self.events.push(Event::ThreadName {
                tid: self.tid,
                name,
            });
        }
    }

    /// `true` while this thread is inside a span opened in the current
    /// session.  Events that are not spans of their own (phase marks) are
    /// recorded only then, so they are always true children of a recorded
    /// span, never siblings of spans that started before tracing did.
    pub(crate) fn in_session_span(&self) -> bool {
        self.session_depth > 0 && self.depth_session == SESSION.load(Ordering::Relaxed)
    }

    pub(crate) fn flush_if_idle(&mut self) {
        if self.depth == 0 && !self.events.is_empty() {
            if self.session == SESSION.load(Ordering::Relaxed) {
                sink()
                    .lock()
                    .expect("obs sink poisoned")
                    .append(&mut self.events);
            } else {
                self.events.clear();
            }
        }
    }
}

thread_local! {
    static BUF: RefCell<ThreadBuf> = RefCell::new(ThreadBuf::new());
}

pub(crate) fn with_buf<R>(f: impl FnOnce(&mut ThreadBuf) -> R) -> R {
    BUF.with(|b| f(&mut b.borrow_mut()))
}

/// Pending span payload: start instant, name, optional integer argument,
/// and the session the span was opened in.
type SpanState = (Instant, &'static str, Option<(&'static str, u64)>, u64);

/// RAII span guard returned by [`span`]; records a `Complete` event on
/// drop when tracing was enabled at creation time.
#[must_use = "a span records its duration when dropped"]
pub struct Span {
    live: Option<SpanState>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((t0, name, arg, session)) = self.live.take() {
            let dur_ns = t0.elapsed().as_nanos() as u64;
            let ts_ns = ns_since_epoch(t0);
            with_buf(|b| {
                b.depth = b.depth.saturating_sub(1);
                if b.depth_session == session {
                    b.session_depth = b.session_depth.saturating_sub(1);
                }
                b.sync_session();
                let tid = b.tid;
                b.events.push(Event::Complete {
                    name,
                    tid,
                    ts_ns,
                    dur_ns,
                    arg,
                });
                b.flush_if_idle();
            });
        }
    }
}

fn span_slow(name: &'static str, arg: Option<(&'static str, u64)>) -> Span {
    let session = SESSION.load(Ordering::Relaxed);
    with_buf(|b| {
        b.depth += 1;
        if b.depth_session != session {
            b.depth_session = session;
            b.session_depth = 0;
        }
        b.session_depth += 1;
    });
    Span {
        live: Some((Instant::now(), name, arg, session)),
    }
}

/// Opens a named span.  No-op (one relaxed load) while tracing is
/// disabled; otherwise the returned guard records a complete event with
/// the span's wall-clock extent when dropped.
#[inline]
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span { live: None };
    }
    span_slow(name, None)
}

/// Like [`span`], with a single integer argument attached to the event
/// (rendered under `args` in the chrome trace).
#[inline]
pub fn span_with_arg(name: &'static str, key: &'static str, value: u64) -> Span {
    if !enabled() {
        return Span { live: None };
    }
    span_slow(name, Some((key, value)))
}

pub mod test_support {
    //! Serialisation for tests that toggle the global tracing gate —
    //! public so downstream crates' inertness suites can use it too.
    use std::sync::{Mutex, MutexGuard};

    static LOCK: Mutex<()> = Mutex::new(());

    /// Takes the process-wide gate-toggling lock (poisoning ignored: a
    /// failed test must not cascade into every later one).
    pub fn serial() -> MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_span_is_a_no_op_and_cheap() {
        let _guard = test_support::serial();
        assert!(!enabled());
        let s = span("idle");
        assert!(s.live.is_none(), "a disabled span must not record");
        drop(s);

        // Per-check cost: one relaxed load plus a dead guard.  The loop
        // counter and the `black_box` calls cost about as much as the
        // budget on a small host, so the same loop without the `span` call
        // is timed alongside it and only the difference is asserted.  Each
        // floor is the best of 5 loops; the budget is 5 ns in release, and
        // debug builds get slack because nothing is inlined there.
        const ITERS: u32 = 2_000_000;
        let budget_ns = if cfg!(debug_assertions) { 200.0 } else { 5.0 };
        let per_iter = |t0: Instant| t0.elapsed().as_nanos() as f64 / ITERS as f64;
        let (mut best_span, mut best_loop) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..5 {
            let t0 = Instant::now();
            for i in 0..ITERS {
                let s = span(std::hint::black_box("idle"));
                std::hint::black_box(&s);
                std::hint::black_box(i);
            }
            best_span = best_span.min(per_iter(t0));

            let t0 = Instant::now();
            for i in 0..ITERS {
                let s = std::hint::black_box("idle");
                std::hint::black_box(&s);
                std::hint::black_box(i);
            }
            best_loop = best_loop.min(per_iter(t0));
        }
        let cost = best_span - best_loop;
        assert!(
            cost < budget_ns,
            "disabled span check cost {cost:.2} ns/check ({best_span:.2} with the span, \
             {best_loop:.2} without) exceeds {budget_ns} ns budget"
        );
    }

    #[test]
    fn spans_nest_flush_and_export() {
        let _guard = test_support::serial();
        start();
        {
            let _outer = span_with_arg("outer", "wave", 3);
            {
                let _inner = span("inner");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        let worker = std::thread::Builder::new()
            .name("obs-test-worker".into())
            .spawn(|| {
                let _s = span("worker-job");
                std::thread::sleep(std::time::Duration::from_millis(1));
            })
            .unwrap();
        worker.join().unwrap();
        let trace = stop();
        assert!(!trace.is_empty());

        let json = trace.to_chrome_trace();
        let summary = validate_chrome_trace(&json).expect("trace must validate");
        assert_eq!(summary.complete, 3, "outer + inner + worker-job");
        assert_eq!(summary.instants, 0);
        assert!(summary.tids >= 2, "two recording threads");
        assert!(summary.max_depth >= 2, "inner nests inside outer");
        assert!(json.contains("obs-test-worker"));
        assert!(json.contains("\"wave\":3"));
    }

    #[test]
    fn events_recorded_after_stop_do_not_leak_into_the_next_session() {
        let _guard = test_support::serial();
        start();
        let open = span("straddles-stop");
        let first = stop();
        assert!(first.is_empty(), "span still open, nothing flushed");
        drop(open); // flushes into the sink, but for the old session

        start();
        drop(span("fresh"));
        let second = stop();
        let names: Vec<&str> = second
            .events()
            .iter()
            .filter_map(|e| match e {
                Event::Complete { name, .. } => Some(*name),
                Event::ThreadName { .. } => None,
            })
            .collect();
        assert!(names.contains(&"fresh"));
        assert!(
            !names.contains(&"straddles-stop"),
            "stale event leaked across sessions: {names:?}"
        );
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _guard = test_support::serial();
        start();
        let _ = stop(); // tracing now off, sink empty
        drop(span("ghost"));
        start();
        let t = stop();
        assert!(t.is_empty(), "ghost event appeared: {:?}", t.events());
    }
}
