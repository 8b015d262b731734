//! Period-gated JSONL heartbeat lines for long-running work.
//!
//! A [`Heartbeat`] owns a line-oriented writer and a minimum period.
//! The driving loop polls [`Heartbeat::due`] at convenient boundaries
//! (between search waves, between ensemble check passes) and, when due,
//! builds one self-contained JSON line and hands it to
//! [`Heartbeat::emit`].  The *caller* owns the line format — this module
//! only does gating, sequencing, newline framing and flushing — so the
//! search layers can embed their own serialized resume tokens (e.g. a
//! whole `SegmentedCheckpoint`) and a consumer can restart the run from
//! any heartbeat it has seen.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A period-gated JSONL sink for progress lines.
pub struct Heartbeat {
    out: Box<dyn Write + Send>,
    period: Duration,
    started: Instant,
    last: Option<Instant>,
    seq: u64,
}

/// `Write` adapter appending into a shared in-memory buffer (tests and
/// the smoke example read the lines back from it).
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0
            .lock()
            .expect("heartbeat buffer poisoned")
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Heartbeat {
    /// A heartbeat writing to (truncating) the JSONL file at `path`.
    pub fn to_file(path: &Path, period: Duration) -> io::Result<Self> {
        let file = File::create(path)?;
        Ok(Self::to_writer(Box::new(BufWriter::new(file)), period))
    }

    /// A heartbeat writing to an arbitrary sink.
    pub(crate) fn to_writer(out: Box<dyn Write + Send>, period: Duration) -> Self {
        Heartbeat {
            out,
            period,
            started: Instant::now(),
            last: None,
            seq: 0,
        }
    }

    /// A heartbeat writing into a shared in-memory buffer, returned
    /// alongside it; the buffer accumulates the emitted JSONL bytes.
    pub fn shared_buffer(period: Duration) -> (Self, Arc<Mutex<Vec<u8>>>) {
        let buf = Arc::new(Mutex::new(Vec::new()));
        let hb = Self::to_writer(Box::new(SharedBuf(Arc::clone(&buf))), period);
        (hb, buf)
    }

    /// `true` when a line should be emitted now: never emitted yet, or
    /// at least one period elapsed since the last emission.
    pub fn due(&self) -> bool {
        match self.last {
            None => true,
            Some(t) => t.elapsed() >= self.period,
        }
    }

    /// Writes `line` (a complete JSON object, no trailing newline) as
    /// one JSONL record, flushes, and resets the period gate.  I/O
    /// errors are swallowed: a broken progress pipe must never abort the
    /// search it observes.
    pub fn emit(&mut self, line: &str) {
        let _ = writeln!(self.out, "{line}");
        let _ = self.out.flush();
        self.seq += 1;
        self.last = Some(Instant::now());
    }

    /// Number of lines emitted so far.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Seconds since this heartbeat was created.
    pub fn elapsed_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_emission_is_immediately_due_then_gated() {
        let (mut hb, buf) = Heartbeat::shared_buffer(Duration::from_secs(3600));
        assert!(hb.due(), "a fresh heartbeat is due");
        hb.emit("{\"seq\":0}");
        assert!(!hb.due(), "one-hour period cannot have elapsed");
        assert_eq!(hb.seq(), 1);

        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        assert_eq!(text, "{\"seq\":0}\n");
    }

    #[test]
    fn zero_period_is_always_due_and_lines_are_framed() {
        let (mut hb, buf) = Heartbeat::shared_buffer(Duration::ZERO);
        for i in 0..3 {
            assert!(hb.due());
            hb.emit(&format!("{{\"seq\":{i}}}"));
        }
        assert_eq!(hb.seq(), 3);
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines, vec!["{\"seq\":0}", "{\"seq\":1}", "{\"seq\":2}"]);
    }
}
