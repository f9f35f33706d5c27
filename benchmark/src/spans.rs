//! The benchmark's own span recorder for the layer replay.
//!
//! Spans are recorded *around* the calls into each layer, from the
//! benchmark's side of the public API; instrumenting the inside of the crates
//! is a later change. Every span carries its name, start, end, the span that
//! caused it, and the round and request it belongs to. Spans stay in memory
//! and are written as one Chrome trace-event file when the replay ends.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// "No parent" / "no request" marker.
pub const NONE: u32 = u32::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub round: u32,
    pub req: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct SpanRecorder {
    epoch: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last.
    stack: Vec<u32>,
}

impl SpanRecorder {
    pub fn with_capacity(capacity: usize) -> SpanRecorder {
        SpanRecorder {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            stack: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, round: u32, req: u32) {
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NONE);
        self.stack.push(id);
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            round,
            req,
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let end_ns = self.now();
        let id = self.stack.pop().expect("exit without a matching enter");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Records `f` as one span.
    #[inline]
    pub fn scope<T>(
        &mut self,
        name: &'static str,
        round: u32,
        req: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        self.enter(name, round, req);
        let out = f();
        self.exit();
        out
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span: its duration minus the part its children cover.
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for span in &self.spans {
            if span.parent != NONE {
                let slot = &mut own[span.parent as usize];
                *slot = slot.saturating_sub(span.dur_ns());
            }
        }
        own
    }

    /// Total duration in nanoseconds of all spans of each name.
    pub fn duration_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut totals = BTreeMap::new();
        for span in &self.spans {
            *totals.entry(span.name).or_insert(0) += span.dur_ns();
        }
        totals
    }

    /// Writes the spans as Chrome trace-event JSON (loadable in Perfetto and
    /// `chrome://tracing`, like `txobs::write_chrome_trace`'s file).
    /// Timestamps are microseconds with nanosecond fractions.
    pub fn write_chrome_trace(&self, w: &mut dyn Write, process_name: &str) -> io::Result<()> {
        let own = self.self_times();
        write!(
            w,
            "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{{\"name\":\"{process_name}\"}}}}"
        )?;
        for (id, (span, own_ns)) in self.spans.iter().zip(&own).enumerate() {
            write!(
                w,
                ",\n{{\"name\":\"{}\",\"cat\":\"replay\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{}.{:03},\"dur\":{}.{:03},\"args\":{{\"id\":{id},\"parent\":{},\"round\":{},\"req\":{},\"self_ns\":{own_ns}}}}}",
                span.name,
                span.start_ns / 1000,
                span.start_ns % 1000,
                span.dur_ns() / 1000,
                span.dur_ns() % 1000,
                signed(span.parent),
                signed(span.round),
                signed(span.req),
            )?;
        }
        writeln!(w, "\n]}}")
    }
}

/// `NONE` prints as -1.
fn signed(id: u32) -> i64 {
    if id == NONE {
        -1
    } else {
        i64::from(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn sample() -> SpanRecorder {
        let mut rec = SpanRecorder::with_capacity(8);
        rec.enter("round", 0, NONE);
        rec.scope("decode", 0, 7, || std::hint::black_box(1 + 1));
        rec.enter("exec", 0, NONE);
        rec.scope("plan", 0, NONE, || ());
        rec.exit();
        rec.exit();
        rec
    }

    #[test]
    fn spans_nest_and_carry_their_ids() {
        let rec = sample();
        let spans = rec.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, NONE);
        assert_eq!((spans[1].parent, spans[1].req), (0, 7));
        assert_eq!(spans[2].parent, 0);
        assert_eq!(spans[3].parent, 2);
        for span in spans {
            assert!(span.end_ns >= span.start_ns);
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let rec = sample();
        let own = rec.self_times();
        let spans = rec.spans();
        assert_eq!(
            own[0],
            spans[0].dur_ns() - spans[1].dur_ns() - spans[2].dur_ns()
        );
        assert_eq!(own[2], spans[2].dur_ns() - spans[3].dur_ns());
        assert_eq!(own[3], spans[3].dur_ns());
        assert_eq!(rec.duration_by_name()["exec"], spans[2].dur_ns());
    }

    #[test]
    fn the_trace_file_is_loadable_json_with_parent_and_request_ids() {
        let mut bytes = Vec::new();
        sample()
            .write_chrome_trace(&mut bytes, "replay test")
            .unwrap();
        let doc = Json::parse(std::str::from_utf8(&bytes).unwrap()).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 5, "metadata + 4 spans");
        let decode = &events[2];
        assert_eq!(decode.get("name").and_then(Json::as_str), Some("decode"));
        let args = decode.get("args").unwrap();
        assert_eq!(args.get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(args.get("req").and_then(Json::as_f64), Some(7.0));
        assert_eq!(
            events[1]
                .get("args")
                .and_then(|a| a.get("parent"))
                .and_then(Json::as_f64),
            Some(-1.0)
        );
    }
}
