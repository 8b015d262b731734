//! Per-round phase timing: the generalized replacement for hand-rolled
//! `*_ns` accumulator structs.
//!
//! A [`Phases`] instance owns one duration accumulator per named phase.
//! Each round, the caller takes a [`PhaseMark`] from
//! [`Phases::begin_round`] and advances it past each phase boundary with
//! [`Phases::mark`] — exactly **one** `Instant::now()` per boundary, the
//! same cost as the bespoke two-`Instant` pattern it replaces.  When
//! tracing is [enabled](crate::enabled) and the thread is inside a span
//! opened since the last [`start`](crate::start), every boundary
//! additionally emits a complete span covering the phase's extent, so the
//! same marks that feed the accumulators also draw the per-round flame
//! rows in the chrome trace.  Marks outside such a span record nothing: a
//! round begun before tracing started could otherwise emit a phase that
//! starts before the session and crosses the spans recorded beside it.

use std::time::Instant;

use crate::{enabled, ns_since_epoch, with_buf, Event};

/// Cumulative per-phase wall-clock nanoseconds over any number of
/// rounds, with optional span emission at each boundary.
#[derive(Clone, Debug)]
pub struct Phases {
    names: &'static [&'static str],
    ns: Vec<u64>,
    rounds: u64,
}

/// The running timestamp inside one round; created by
/// [`Phases::begin_round`], advanced by [`Phases::mark`].
#[derive(Clone, Copy, Debug)]
pub struct PhaseMark {
    t: Instant,
}

impl Phases {
    /// Creates an accumulator for the given phase names (one slot each).
    pub fn new(names: &'static [&'static str]) -> Self {
        Phases {
            names,
            ns: vec![0; names.len()],
            rounds: 0,
        }
    }

    /// Starts a round: records the current instant as the first phase's
    /// start.
    #[inline]
    pub fn begin_round(&self) -> PhaseMark {
        PhaseMark { t: Instant::now() }
    }

    /// Closes phase `idx` at the current instant: adds the elapsed time
    /// since the mark to that phase's accumulator, emits a span when
    /// tracing is enabled and the thread is inside a span of the current
    /// session, and advances the mark.
    #[inline]
    pub fn mark(&mut self, mark: &mut PhaseMark, idx: usize) {
        let now = Instant::now();
        let dur_ns = (now - mark.t).as_nanos() as u64;
        self.ns[idx] += dur_ns;
        if enabled() {
            let name = self.names[idx];
            let ts_ns = ns_since_epoch(mark.t);
            with_buf(|b| {
                if !b.in_session_span() {
                    return;
                }
                b.sync_session();
                let tid = b.tid;
                b.events.push(Event::Complete {
                    name,
                    tid,
                    ts_ns,
                    dur_ns,
                    arg: None,
                });
                b.flush_if_idle();
            });
        }
        mark.t = now;
    }

    /// Ends a round (bumps the round counter).
    #[inline]
    pub fn end_round(&mut self) {
        self.rounds += 1;
    }

    /// Clears every accumulator and the round counter.
    pub fn reset(&mut self) {
        self.ns.iter_mut().for_each(|v| *v = 0);
        self.rounds = 0;
    }

    /// Phase names, in slot order.
    pub fn names(&self) -> &'static [&'static str] {
        self.names
    }

    /// Accumulated nanoseconds for phase `idx`.
    pub fn ns(&self, idx: usize) -> u64 {
        self.ns[idx]
    }

    /// Number of completed rounds.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Sum over all phases.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// Publishes the accumulators as gauges named
    /// `{prefix}.{phase}_ns` plus `{prefix}.rounds`.
    pub fn publish(&self, prefix: &str) {
        let reg = crate::registry();
        for (i, name) in self.names.iter().enumerate() {
            reg.set_gauge(&format!("{prefix}.{name}_ns"), self.ns[i] as i64);
        }
        reg.set_gauge(&format!("{prefix}.rounds"), self.rounds as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_per_phase_and_counts_rounds() {
        let mut p = Phases::new(&["a", "b"]);
        for _ in 0..3 {
            let mut m = p.begin_round();
            std::hint::black_box(17u64.pow(2));
            p.mark(&mut m, 0);
            p.mark(&mut m, 1);
            p.end_round();
        }
        assert_eq!(p.rounds(), 3);
        assert_eq!(p.total_ns(), p.ns(0) + p.ns(1));
        p.reset();
        assert_eq!(p.rounds(), 0);
        assert_eq!(p.total_ns(), 0);
    }

    #[test]
    fn marks_emit_nesting_spans_when_tracing() {
        let _guard = crate::test_support::serial();
        crate::start();
        let mut p = Phases::new(&["alpha", "beta"]);
        {
            let _wave = crate::span("wave");
            let mut m = p.begin_round();
            p.mark(&mut m, 0);
            p.mark(&mut m, 1);
            p.end_round();
        }
        let trace = crate::stop();
        let json = trace.to_chrome_trace();
        let summary = crate::validate_chrome_trace(&json).expect("phase spans must nest");
        assert_eq!(summary.complete, 3, "wave + alpha + beta: {json}");
        assert!(json.contains("\"alpha\"") && json.contains("\"beta\""));
    }

    #[test]
    fn marks_outside_a_session_span_record_nothing() {
        let _guard = crate::test_support::serial();
        let complete_names = |t: &crate::Trace| -> Vec<&'static str> {
            t.events()
                .iter()
                .filter_map(|e| match e {
                    crate::Event::Complete { name, .. } => Some(*name),
                    _ => None,
                })
                .collect()
        };
        let mut p = Phases::new(&["orphan", "child"]);
        // A round begun before tracing started, under a span that is
        // therefore inert: its first phase starts before the session and
        // must not surface as an orphan beside the recorded spans.
        let inert = crate::span("inert");
        let mut m = p.begin_round();
        crate::start();
        p.mark(&mut m, 0);
        drop(inert);
        // A round under a span of this session records as its child.
        {
            let _wave = crate::span("wave");
            let mut m = p.begin_round();
            p.mark(&mut m, 1);
        }
        // A span left open across a restart belongs to the old session.
        let stale = crate::span("stale");
        let first = crate::stop();
        crate::start();
        p.mark(&mut m, 0);
        drop(stale);
        let second = crate::stop();

        assert_eq!(complete_names(&first), ["child", "wave"]);
        assert!(!complete_names(&second).contains(&"orphan"));
        for t in [&first, &second] {
            crate::validate_chrome_trace(&t.to_chrome_trace()).expect("trace validates");
        }
        assert_eq!(p.total_ns(), p.ns(0) + p.ns(1), "accumulators still run");
    }
}
