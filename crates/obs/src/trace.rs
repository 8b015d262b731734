//! Chrome Trace Event Format export and validation.
//!
//! The exporter writes the subset of the format the viewers need:
//! `"X"` (complete) events with microsecond `ts`/`dur`, `"i"` instants,
//! and `"M"` `thread_name` metadata.  The validator re-parses an emitted
//! file with a small self-contained JSON parser (the vendored
//! `serde_json` stand-in has no dynamic `Value` type) and checks that
//! complete events nest properly per thread — the property
//! `chrome://tracing` relies on to build flame rows.

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
            Event::Instant {
                name,
                tid,
                ts_ns,
                arg,
            } => {
                out.push_str(&format!(
                    "{{\"ph\":\"i\",\"pid\":1,\"tid\":{},\"ts\":{},\"s\":\"t\",\
                     \"cat\":\"popproto\",\"name\":\"{}\"",
                    tid,
                    fmt_us(*ts_ns),
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

// ---------------------------------------------------------------------------
// Minimal JSON value + parser (validation only; not a public API).
// ---------------------------------------------------------------------------

#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    pub(crate) fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub(crate) fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub(crate) fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> String {
        format!("JSON parse error at byte {}: {}", self.pos, msg)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn parse_value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b't') => self.parse_lit("true", Value::Bool(true)),
            Some(b'f') => self.parse_lit("false", Value::Bool(false)),
            Some(b'n') => self.parse_lit("null", Value::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.parse_number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn parse_lit(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn parse_number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Value::Num)
            .ok_or_else(|| self.err("malformed number"))
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("truncated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let code = self.parse_hex4()?;
                            // Surrogate pair: expect a trailing \uXXXX.
                            let c = if (0xD800..0xDC00).contains(&code) {
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let low = self.parse_hex4()?;
                                    let combined = 0x10000
                                        + ((code - 0xD800) << 10)
                                        + (low.wrapping_sub(0xDC00) & 0x3FF);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(code)
                            };
                            out.push(c.unwrap_or('\u{FFFD}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Consume the run up to the next quote or escape in one
                    // step.  Both are ASCII, so the run ends on a UTF-8
                    // boundary and only its own bytes need validating.
                    let start = self.pos;
                    while self.peek().is_some_and(|b| b != b'"' && b != b'\\') {
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(run);
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, String> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("bad \\u escape"))?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn parse_array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Parses a complete JSON document (used by the validator and by tests
/// that check emitted artifacts).
pub(crate) fn parse_json(s: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage after document"));
    }
    Ok(v)
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
    let doc = parse_json(json)?;
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .ok_or_else(|| "missing top-level \"traceEvents\" array".to_owned())?;

    let mut summary = TraceSummary::default();
    // Per-tid complete events as (start_ns, end_ns).
    let mut per_tid: Vec<(u64, Vec<(u128, u128)>)> = Vec::new();
    let mut tids_seen: Vec<u64> = Vec::new();

    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i}: missing \"ph\""))?;
        let tid = ev
            .get("tid")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("event {i}: missing numeric \"tid\""))? as u64;
        if !tids_seen.contains(&tid) {
            tids_seen.push(tid);
        }
        match ph {
            "X" => {
                summary.complete += 1;
                let name = ev
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("event {i}: X event without a name"))?;
                let ts = ev
                    .get("ts")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("event {i} ({name}): missing \"ts\""))?;
                let dur = ev
                    .get("dur")
                    .and_then(Value::as_f64)
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
            Event::Instant {
                name: "tick",
                tid: 1,
                ts_ns: 6_000,
                arg: None,
            },
        ];
        let json = to_chrome_trace(&events);
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
    fn parser_handles_escapes_and_nested_docs() {
        let v = parse_json(r#"{"a":[1,2.5,-3e2],"b":"q\"\\\nA😀","c":null}"#).expect("parses");
        assert_eq!(
            v.get("a").and_then(Value::as_arr).map(<[Value]>::len),
            Some(3)
        );
        assert_eq!(v.get("b").and_then(Value::as_str), Some("q\"\\\nA😀"));
        assert_eq!(v.get("c"), Some(&Value::Null));
        assert!(parse_json("{\"open\":").is_err());
        assert!(parse_json("[1,2] trailing").is_err());
    }

    #[test]
    fn json_escape_round_trips_through_the_parser() {
        let nasty = "quote \" slash \\ newline \n tab \t ctrl \u{1}";
        let doc = format!("{{\"k\":\"{}\"}}", json_escape(nasty));
        let v = parse_json(&doc).expect("escaped string parses");
        assert_eq!(v.get("k").and_then(Value::as_str), Some(nasty));
    }
}
