//! Exporters: Chrome-trace JSON, JSONL event log, text summary.
//!
//! All output is produced with integer math and ordered iteration so
//! that, for a given seed, the bytes are identical across runs and
//! across worker-thread counts. Sim-time nanoseconds map to Chrome's
//! microsecond `ts` field as `ns / 1000` with a three-digit fraction,
//! so nothing is rounded through floating point.

use std::fmt::Write as _;

use crate::event::{ArgValue, EventKind, TraceEvent};
use crate::json::write_escaped;
use crate::metrics::MetricsRegistry;

/// Everything one simulation run contributed to a trace file.
#[derive(Debug, Clone, Default)]
pub struct RunTrace {
    /// Run label — becomes the Chrome trace *process* name (e.g.
    /// `"fig3 TCP-PRESS node-crash"`).
    pub label: String,
    /// `(tid, name)` lane labels (node lanes plus the pseudo-lanes).
    pub threads: Vec<(u32, String)>,
    /// The events, in emission order.
    pub events: Vec<TraceEvent>,
    /// The run's metrics snapshot.
    pub metrics: MetricsRegistry,
}

/// Formats sim-time nanoseconds as Chrome-trace microseconds with a
/// fixed three-digit fraction (`1234567 ns` → `"1234.567"`).
fn write_us(out: &mut String, nanos: u64) {
    let _ = write!(out, "{}.{:03}", nanos / 1_000, nanos % 1_000);
}

fn write_args(out: &mut String, ev: &TraceEvent) {
    out.push('{');
    for (i, a) in ev.args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        write_escaped(out, a.key);
        out.push_str("\":");
        match &a.value {
            ArgValue::U64(v) => {
                let _ = write!(out, "{v}");
            }
            ArgValue::I64(v) => {
                let _ = write!(out, "{v}");
            }
            ArgValue::Str(s) => {
                out.push('"');
                write_escaped(out, s);
                out.push('"');
            }
        }
    }
    out.push('}');
}

fn write_meta(out: &mut String, pid: usize, tid: Option<u32>, kind: &str, name: &str) {
    let _ = write!(out, "{{\"ph\":\"M\",\"pid\":{pid},");
    if let Some(tid) = tid {
        let _ = write!(out, "\"tid\":{tid},");
    }
    let _ = write!(out, "\"name\":\"{kind}\",\"args\":{{\"name\":\"");
    write_escaped(out, name);
    out.push_str("\"}}");
}

/// Renders runs as a Chrome-trace JSON document (the `traceEvents`
/// array format), loadable in `chrome://tracing` and Perfetto. Each
/// run is one trace *process* (pid = run index); each node is a
/// *thread* within it.
pub fn chrome_trace_json(runs: &[RunTrace]) -> String {
    let total: usize = runs
        .iter()
        .map(|r| r.events.len() + r.threads.len() + 1)
        .sum();
    // ~96 bytes per serialized event is a comfortable overshoot.
    let mut out = String::with_capacity(total * 96 + 64);
    out.push_str("{\"traceEvents\":[\n");
    let mut first = true;
    let sep = |out: &mut String, first: &mut bool| {
        if !*first {
            out.push_str(",\n");
        }
        *first = false;
    };
    for (pid, run) in runs.iter().enumerate() {
        sep(&mut out, &mut first);
        write_meta(&mut out, pid, None, "process_name", &run.label);
        for (tid, name) in &run.threads {
            sep(&mut out, &mut first);
            write_meta(&mut out, pid, Some(*tid), "thread_name", name);
        }
        for ev in &run.events {
            sep(&mut out, &mut first);
            let _ = write!(out, "{{\"pid\":{pid},\"tid\":{},", ev.tid);
            match ev.kind {
                EventKind::Span { start, dur } => {
                    out.push_str("\"ph\":\"X\",\"ts\":");
                    write_us(&mut out, start.as_nanos());
                    out.push_str(",\"dur\":");
                    write_us(&mut out, dur.as_nanos());
                    out.push(',');
                }
                EventKind::Instant { at } => {
                    out.push_str("\"ph\":\"i\",\"s\":\"t\",\"ts\":");
                    write_us(&mut out, at.as_nanos());
                    out.push(',');
                }
            }
            let _ = write!(out, "\"cat\":\"{}\",\"name\":\"", ev.cat);
            write_escaped(&mut out, &ev.name);
            out.push_str("\",\"args\":");
            write_args(&mut out, ev);
            out.push('}');
        }
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// JSONL schema name, emitted in the leading header record.
pub const JSONL_SCHEMA: &str = "press-trace-jsonl";
/// JSONL schema version; bump when event-record fields change shape.
pub const JSONL_VERSION: u64 = 1;

/// Renders runs as a JSONL event log: one JSON object per line, in
/// run order then emission order. Easier to grep/post-process than the
/// Chrome document.
///
/// The first line is a header record identifying the schema and the
/// log's extent — `{"schema":"press-trace-jsonl","version":1,
/// "runs":R,"events":E}` — so consumers can validate what they are
/// reading (and how much of it) before touching any event line.
pub fn jsonl_log(runs: &[RunTrace]) -> String {
    let total: usize = runs.iter().map(|r| r.events.len()).sum();
    let mut out = String::with_capacity(total * 112 + 80);
    let _ = writeln!(
        out,
        "{{\"schema\":\"{JSONL_SCHEMA}\",\"version\":{JSONL_VERSION},\"runs\":{},\"events\":{total}}}",
        runs.len()
    );
    for run in runs {
        for ev in &run.events {
            out.push_str("{\"run\":\"");
            write_escaped(&mut out, &run.label);
            let _ = write!(
                out,
                "\",\"tid\":{},\"cat\":\"{}\",\"name\":\"",
                ev.tid, ev.cat
            );
            write_escaped(&mut out, &ev.name);
            out.push_str("\",\"ts_us\":");
            match ev.kind {
                EventKind::Span { start, dur } => {
                    write_us(&mut out, start.as_nanos());
                    out.push_str(",\"dur_us\":");
                    write_us(&mut out, dur.as_nanos());
                }
                EventKind::Instant { at } => {
                    write_us(&mut out, at.as_nanos());
                }
            }
            out.push_str(",\"args\":");
            write_args(&mut out, ev);
            out.push_str("}\n");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;
    use simnet::{SimDuration, SimTime};

    fn sample_run() -> RunTrace {
        RunTrace {
            label: "test run".to_string(),
            threads: vec![(0, "node 0".to_string())],
            events: vec![
                TraceEvent::span(
                    "request",
                    "client",
                    0,
                    SimTime::from_nanos(1_234_567),
                    SimDuration::from_nanos(890),
                )
                .arg_u64("req", 42),
                TraceEvent::instant("fault \"quoted\"", "fault", 0, SimTime::from_secs(30))
                    .arg_str("kind", "node-crash"),
            ],
            metrics: MetricsRegistry::new(),
        }
    }

    #[test]
    fn chrome_export_maps_nanos_to_fractional_micros() {
        let json = chrome_trace_json(&[sample_run()]);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.trim_end().ends_with("}"));
        assert!(json.contains("\"ts\":1234.567"), "{json}");
        assert!(json.contains("\"dur\":0.890"));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("\"thread_name\""));
        // Quotes in names are escaped.
        assert!(json.contains("fault \\\"quoted\\\""));
        // Balanced braces/brackets — a cheap structural validity check.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn jsonl_is_one_object_per_line() {
        let log = jsonl_log(&[sample_run()]);
        let lines: Vec<&str> = log.lines().collect();
        assert_eq!(lines.len(), 3, "header + 2 events");
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
        assert!(log.contains("\"ts_us\":1234.567"));
    }

    #[test]
    fn jsonl_header_round_trips_through_the_parser() {
        let runs = [sample_run(), sample_run()];
        let log = jsonl_log(&runs);
        let header = crate::json::parse(log.lines().next().unwrap()).unwrap();
        assert_eq!(
            header
                .get("schema")
                .and_then(crate::json::JsonValue::as_str),
            Some(JSONL_SCHEMA)
        );
        assert_eq!(
            header
                .get("version")
                .and_then(crate::json::JsonValue::as_i64),
            Some(JSONL_VERSION as i64)
        );
        assert_eq!(
            header.get("runs").and_then(crate::json::JsonValue::as_i64),
            Some(2)
        );
        // The advertised extent matches the actual event-line count, so
        // a consumer can detect truncated logs.
        let events = header
            .get("events")
            .and_then(crate::json::JsonValue::as_i64)
            .unwrap();
        assert_eq!(events as usize, log.lines().count() - 1);
        // Every event line parses as a JSON object too.
        for line in log.lines().skip(1) {
            let ev = crate::json::parse(line).unwrap();
            assert!(
                ev.get("run").is_some() && ev.get("ts_us").is_some(),
                "{line}"
            );
        }
    }

    #[test]
    fn export_is_reproducible() {
        let runs = [sample_run(), sample_run()];
        assert_eq!(chrome_trace_json(&runs), chrome_trace_json(&runs));
        assert_eq!(jsonl_log(&runs), jsonl_log(&runs));
    }
}
