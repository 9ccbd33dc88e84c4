//! The benchmark's own spans, recorded around every client request,
//! every op and every replayed layer call of a traced run.
//!
//! Spans are kept in memory (one [`SpanLog`] per thread, merged at the
//! end) and written once, at exit, in Chrome Trace Event Format with
//! the stack's own JSON writer. Open the file in Perfetto
//! (<https://ui.perfetto.dev>) or `chrome://tracing`: each bench thread
//! is a track, spans nest by time, and every event's `args` carry its
//! `op` id (shared by one request's or op's spans), its own `span` id
//! and its `parent`. The top-level `selfTimeUs` object sums each span
//! name's *self* time: its duration minus the part covered by its
//! children.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

use pkgrec_trace::json::write_string;

/// Nanoseconds since the benchmark process's first clock read; every
/// span of every thread shares this origin.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    u64::try_from(EPOCH.get_or_init(Instant::now).elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What ran, e.g. `http.roundtrip` or `replay.compile`.
    pub name: String,
    /// Start, [`now_ns`] clock.
    pub start_ns: u64,
    /// End, [`now_ns`] clock.
    pub end_ns: u64,
    /// This span's id (unique within its log's thread track).
    pub id: u64,
    /// The enclosing span's id, if any.
    pub parent: Option<u64>,
    /// The op or request id all spans of one op share.
    pub op: u64,
    /// Extra annotations, as `(key, JSON value)` pairs.
    pub args: Vec<(&'static str, String)>,
}

/// The spans of one thread.
#[derive(Debug, Default)]
pub struct SpanLog {
    /// Track id in the Chrome export.
    pub tid: u32,
    spans: Vec<Span>,
    next_id: u64,
    /// Whether recording is on; a disabled log records nothing, so the
    /// untraced runs pay one branch per would-be span.
    pub enabled: bool,
}

impl SpanLog {
    /// A log for track `tid`, recording when `enabled`.
    pub fn new(tid: u32, enabled: bool) -> SpanLog {
        SpanLog {
            tid,
            spans: Vec::new(),
            next_id: (u64::from(tid) << 40) + 1,
            enabled,
        }
    }

    /// Reserve the id of a span whose children are recorded before it
    /// ends (0 when disabled); finish it with [`SpanLog::close`].
    pub fn open(&mut self) -> u64 {
        if !self.enabled {
            return 0;
        }
        self.next_id += 1;
        self.next_id - 1
    }

    /// Record the finished span `id` (from [`SpanLog::open`]).
    pub fn close(
        &mut self,
        id: u64,
        name: impl Into<String>,
        (start_ns, end_ns): (u64, u64),
        parent: Option<u64>,
        op: u64,
    ) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns,
            id,
            parent: parent.filter(|&p| p != 0),
            op,
            args: Vec::new(),
        });
    }

    /// Record a finished leaf span and return its id (0 when disabled).
    pub fn record(
        &mut self,
        name: impl Into<String>,
        start_ns: u64,
        end_ns: u64,
        parent: Option<u64>,
        op: u64,
    ) -> u64 {
        let id = self.open();
        self.close(id, name, (start_ns, end_ns), parent, op);
        id
    }

    /// Attach an annotation to the most recent span `id` (a no-op when
    /// absent).
    pub fn annotate(&mut self, id: u64, key: &'static str, json_value: String) {
        if let Some(s) = self.spans.iter_mut().rev().find(|s| s.id == id) {
            s.args.push((key, json_value));
        }
    }

    /// Run `f` as a leaf span named `name`; returns its result and its
    /// duration in nanoseconds (measured whether or not recording).
    pub fn time<R>(
        &mut self,
        name: &str,
        parent: Option<u64>,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let start = now_ns();
        let out = std::hint::black_box(f());
        let end = now_ns();
        self.record(name, start, end, parent, op);
        (out, end - start)
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time per span name, in nanoseconds: each span's duration minus
/// the union of its children's intervals (children are the spans whose
/// `parent` is its id, in the same log).
pub fn self_times(logs: &[SpanLog]) -> BTreeMap<String, u64> {
    let mut out: BTreeMap<String, u64> = BTreeMap::new();
    for log in logs {
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &log.spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
        for s in &log.spans {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let covered = children.get_mut(&s.id).map_or(0, |kids| {
                kids.sort_unstable();
                covered_ns(kids, s.start_ns, s.end_ns)
            });
            *out.entry(s.name.clone()).or_insert(0) += dur.saturating_sub(covered);
        }
    }
    out
}

/// Length of the union of sorted intervals, clipped to `[lo, hi]`.
fn covered_ns(sorted: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut total = 0;
    let mut cursor = lo;
    for &(a, b) in sorted {
        let (a, b) = (a.max(cursor), b.min(hi));
        if b > a {
            total += b - a;
            cursor = b;
        }
    }
    total
}

/// The Chrome Trace Event Format document for `logs`, with a
/// `selfTimeUs` summary and the run's `metadata` (a JSON object body,
/// inserted verbatim under `"metadata"`).
pub fn chrome_trace(logs: &[SpanLog], metadata: &str) -> String {
    let mut out =
        String::with_capacity(256 + logs.iter().map(|l| l.spans.len() * 160).sum::<usize>());
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    for log in logs {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\"args\":{{\"name\":\"bench-{}\"}}}}",
            log.tid, log.tid
        );
        for s in &log.spans {
            out.push_str(",{\"name\":");
            write_string(&mut out, &s.name);
            let _ = write!(
                out,
                ",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{},\"span\":{}",
                log.tid,
                s.start_ns as f64 / 1000.0,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1000.0,
                s.op,
                s.id
            );
            if let Some(p) = s.parent {
                let _ = write!(out, ",\"parent\":{p}");
            }
            for (k, v) in &s.args {
                out.push(',');
                write_string(&mut out, k);
                out.push(':');
                out.push_str(v);
            }
            out.push_str("}}");
        }
    }
    out.push_str("],\"displayTimeUnit\":\"ms\",\"selfTimeUs\":{");
    for (i, (name, ns)) in self_times(logs).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_string(&mut out, name);
        let _ = write!(out, ":{:.3}", *ns as f64 / 1000.0);
    }
    out.push_str("},\"metadata\":");
    out.push_str(metadata);
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_once() {
        let mut log = SpanLog::new(0, true);
        let parent = log.record("op", 0, 100, None, 1);
        // Two overlapping children cover [10, 60]; one sticks out.
        log.record("a", 10, 40, Some(parent), 1);
        log.record("b", 30, 60, Some(parent), 1);
        log.record("c", 90, 150, Some(parent), 1);
        let st = self_times(&[log]);
        assert_eq!(st["op"], 100 - 50 - 10);
        assert_eq!(st["a"], 30);
        assert_eq!(st["c"], 60);
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::new(3, false);
        assert_eq!(log.record("x", 0, 1, None, 0), 0);
        let ((), _) = log.time("y", None, 0, || ());
        assert!(log.spans().is_empty());
    }

    #[test]
    fn chrome_trace_parses() {
        let mut log = SpanLog::new(0, true);
        let p = log.record("op \"quoted\"", 1_000, 9_000, None, 7);
        log.record("child", 2_000, 3_000, Some(p), 7);
        log.annotate(p, "request_id", "\"req-1\"".to_string());
        let doc = chrome_trace(&[log, SpanLog::new(1, true)], "{\"workload\":\"t\"}");
        let json = pkgrec_trace::json::parse(&doc).expect("valid JSON");
        let events = json.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        assert_eq!(events.len(), 4, "two metadata + two spans");
        assert_eq!(
            events[1]
                .get("args")
                .and_then(|a| a.get("request_id"))
                .and_then(|r| r.as_str()),
            Some("req-1")
        );
        let self_us = json.get("selfTimeUs").unwrap();
        assert_eq!(
            self_us.get("op \"quoted\"").and_then(|v| v.as_f64()),
            Some(7.0)
        );
    }
}
