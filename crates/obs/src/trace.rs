//! Chrome Trace Event Format export and validation.
//!
//! The exporter writes the subset of the format the viewers need:
//! `"X"` (complete) events with microsecond `ts`/`dur` and `"M"`
//! `thread_name` metadata.  The validator reads any trace — its own or
//! another tool's — into a `serde::Value` with the workspace's `serde_json`
//! and checks that complete events nest properly per thread — the property
//! `chrome://tracing` relies on to build flame rows.

use serde::Value;

use crate::Event;

/// Escapes a string for inclusion inside a JSON string literal.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats nanoseconds as microseconds with three decimals (the trace
/// format's `ts`/`dur` are doubles in microseconds; three decimals keep
/// full nanosecond precision).
fn fmt_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

fn push_arg(out: &mut String, arg: &Option<(&'static str, u64)>) {
    if let Some((k, v)) = arg {
        out.push_str(&format!(",\"args\":{{\"{}\":{}}}", json_escape(k), v));
    }
}

/// Serializes events to `{"traceEvents":[...]}`.
pub(crate) fn to_chrome_trace(events: &[Event]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match ev {
            Event::Complete {
                name,
                tid,
                ts_ns,
                dur_ns,
                arg,
            } => {
                out.push_str(&format!(
                    "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\
                     \"cat\":\"popproto\",\"name\":\"{}\"",
                    tid,
                    fmt_us(*ts_ns),
                    fmt_us(*dur_ns),
                    json_escape(name)
                ));
                push_arg(&mut out, arg);
                out.push('}');
            }
            Event::ThreadName { tid, name } => {
                out.push_str(&format!(
                    "{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_name\",\
                     \"args\":{{\"name\":\"{}\"}}}}",
                    tid,
                    json_escape(name)
                ));
            }
        }
    }
    out.push_str("]}");
    out
}

/// The number in field `key` of `ev` as `f64`, whichever of the three
/// number shapes the reader produced; `None` for a missing field, a
/// non-number or a non-object.
fn as_f64(ev: &Value, key: &str) -> Option<f64> {
    match *ev.field(key).ok()? {
        Value::UInt(n) => Some(n as f64),
        Value::Int(n) => Some(n as f64),
        Value::Float(x) => Some(x),
        _ => None,
    }
}

/// What [`validate_chrome_trace`] found in a well-formed trace.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Number of `"X"` (complete) events.
    pub complete: usize,
    /// Number of `"i"` (instant) events.
    pub instants: usize,
    /// Number of `"M"` (metadata) events.
    pub metadata: usize,
    /// Number of distinct thread ids carrying events.
    pub tids: usize,
    /// Deepest observed span nesting across all threads.
    pub max_depth: usize,
}

/// Parses a Chrome Trace Event Format document and checks the structural
/// invariants the viewers rely on: a `traceEvents` array, every event
/// tagged with a known phase, complete events carrying numeric
/// `tid`/`ts`/`dur`, and — the load-bearing property — complete events
/// on the same thread either nesting or being disjoint (±1 ns slack for
/// the microsecond rounding).  Returns a [`TraceSummary`] on success.
pub fn validate_chrome_trace(json: &str) -> Result<TraceSummary, String> {
    let doc: Value = serde_json::from_str(json).map_err(|e| format!("invalid JSON: {e}"))?;
    let Ok(Value::Array(events)) = doc.field("traceEvents") else {
        return Err("missing top-level \"traceEvents\" array".to_owned());
    };

    let mut summary = TraceSummary::default();
    // Per-tid complete events as (start_ns, end_ns).
    let mut per_tid: Vec<(u64, Vec<(u128, u128)>)> = Vec::new();
    let mut tids_seen: Vec<u64> = Vec::new();

    for (i, ev) in events.iter().enumerate() {
        let Ok(Value::Str(ph)) = ev.field("ph") else {
            return Err(format!("event {i}: missing \"ph\""));
        };
        let tid =
            as_f64(ev, "tid").ok_or_else(|| format!("event {i}: missing numeric \"tid\""))? as u64;
        if !tids_seen.contains(&tid) {
            tids_seen.push(tid);
        }
        match ph.as_str() {
            "X" => {
                summary.complete += 1;
                let Ok(Value::Str(name)) = ev.field("name") else {
                    return Err(format!("event {i}: X event without a name"));
                };
                let ts = as_f64(ev, "ts")
                    .ok_or_else(|| format!("event {i} ({name}): missing \"ts\""))?;
                let dur = as_f64(ev, "dur")
                    .ok_or_else(|| format!("event {i} ({name}): missing \"dur\""))?;
                if ts < 0.0 || dur < 0.0 {
                    return Err(format!("event {i} ({name}): negative ts/dur"));
                }
                let start = (ts * 1_000.0).round() as u128;
                let end = start + (dur * 1_000.0).round() as u128;
                match per_tid.iter_mut().find(|(t, _)| *t == tid) {
                    Some((_, spans)) => spans.push((start, end)),
                    None => per_tid.push((tid, vec![(start, end)])),
                }
            }
            "i" | "I" => summary.instants += 1,
            "M" => summary.metadata += 1,
            other => return Err(format!("event {i}: unknown phase {other:?}")),
        }
    }

    // Nesting check: per thread, sorted by (start asc, end desc), every
    // span must fit inside the enclosing open span or start after it
    // ended.
    const EPS: u128 = 1; // ns of slack for microsecond rounding
    for (tid, spans) in per_tid.iter_mut() {
        spans.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        let mut stack: Vec<u128> = Vec::new();
        for &(start, end) in spans.iter() {
            while stack
                .last()
                .is_some_and(|&open_end| start + EPS >= open_end)
            {
                stack.pop();
            }
            if let Some(&open_end) = stack.last() {
                if end > open_end + EPS {
                    return Err(format!(
                        "tid {tid}: span [{start}, {end}] ns overlaps enclosing span \
                         ending at {open_end} ns without nesting"
                    ));
                }
            }
            stack.push(end);
            summary.max_depth = summary.max_depth.max(stack.len());
        }
    }
    summary.tids = tids_seen.len();
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exports_and_validates_a_hand_built_trace() {
        let events = vec![
            Event::ThreadName {
                tid: 1,
                name: "main".into(),
            },
            Event::Complete {
                name: "outer",
                tid: 1,
                ts_ns: 1_000,
                dur_ns: 10_000,
                arg: Some(("wave", 2)),
            },
            Event::Complete {
                name: "inner",
                tid: 1,
                ts_ns: 2_000,
                dur_ns: 3_000,
                arg: None,
            },
        ];
        // The exporter writes no instants; the validator still counts
        // instants of traces written elsewhere.
        let json = to_chrome_trace(&events).replace(
            "]}",
            r#",{"ph":"i","pid":1,"tid":1,"ts":6.000,"s":"t","name":"tick"}]}"#,
        );
        let summary = validate_chrome_trace(&json).expect("must validate");
        assert_eq!(
            summary,
            TraceSummary {
                complete: 2,
                instants: 1,
                metadata: 1,
                tids: 1,
                max_depth: 2,
            }
        );
    }

    #[test]
    fn rejects_overlapping_spans_on_one_thread() {
        let events = vec![
            Event::Complete {
                name: "a",
                tid: 3,
                ts_ns: 0,
                dur_ns: 5_000,
                arg: None,
            },
            Event::Complete {
                name: "b",
                tid: 3,
                ts_ns: 3_000,
                dur_ns: 5_000,
                arg: None,
            },
        ];
        let err = validate_chrome_trace(&to_chrome_trace(&events)).unwrap_err();
        assert!(err.contains("overlaps"), "unexpected error: {err}");
    }

    #[test]
    fn overlap_on_different_threads_is_fine() {
        let events = vec![
            Event::Complete {
                name: "a",
                tid: 1,
                ts_ns: 0,
                dur_ns: 5_000,
                arg: None,
            },
            Event::Complete {
                name: "b",
                tid: 2,
                ts_ns: 3_000,
                dur_ns: 5_000,
                arg: None,
            },
        ];
        let summary = validate_chrome_trace(&to_chrome_trace(&events)).unwrap();
        assert_eq!(summary.tids, 2);
        assert_eq!(summary.max_depth, 1);
    }

    #[test]
    fn malformed_traces_are_rejected() {
        for bad in [
            // truncated document
            r#"{"traceEvents":[{"ph":"M","tid":1"#,
            // trailing garbage
            r#"{"traceEvents":[]} x"#,
            // no traceEvents
            r#"{"events":[]}"#,
            // unknown phase
            r#"{"traceEvents":[{"ph":"Q","tid":1}]}"#,
            // X event without ts
            r#"{"traceEvents":[{"ph":"X","tid":1,"name":"a","dur":1}]}"#,
            // X event without dur
            r#"{"traceEvents":[{"ph":"X","tid":1,"name":"a","ts":1}]}"#,
            // non-numeric tid
            r#"{"traceEvents":[{"ph":"M","tid":"1","name":"thread_name"}]}"#,
        ] {
            assert!(validate_chrome_trace(bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn escaped_surrogate_pair_in_a_thread_name_validates() {
        let json = r#"{"traceEvents":[{"ph":"M","pid":1,"tid":1,"name":"thread_name","args":{"name":"\ud83d\ude00"}}]}"#;
        let summary = validate_chrome_trace(json).expect("valid JSON with a surrogate pair");
        assert_eq!(summary.metadata, 1);
        assert_eq!(summary.tids, 1);
    }

    #[test]
    fn parser_handles_escapes_and_nested_docs() {
        let v: Value = serde_json::from_str(r#"{"a":[1,2.5,-3e2],"b":"q\"\\\nA😀","c":null}"#)
            .expect("parses");
        assert!(matches!(v.field("a"), Ok(Value::Array(a)) if a.len() == 3));
        assert_eq!(v.field("b").unwrap(), &Value::Str("q\"\\\nA😀".to_owned()));
        assert_eq!(v.field("c").unwrap(), &Value::Null);
        assert!(serde_json::from_str::<Value>("{\"open\":").is_err());
        assert!(serde_json::from_str::<Value>("[1,2] trailing").is_err());
    }

    #[test]
    fn json_escape_round_trips_through_the_parser() {
        let nasty = "quote \" slash \\ newline \n tab \t ctrl \u{1}";
        let doc = format!("{{\"k\":\"{}\"}}", json_escape(nasty));
        let v: Value = serde_json::from_str(&doc).expect("escaped string parses");
        assert_eq!(v.field("k").unwrap(), &Value::Str(nasty.to_owned()));
    }
}
