//! Chrome `trace_event` JSON out of the span buffers [`crate::trace`]
//! records.
//!
//! The emitted document is the Trace Event Format's JSON-object form:
//! `{"traceEvents": [...]}` with one complete (`"ph": "X"`) event per
//! span, timestamps in microseconds since the process's trace epoch.
//! Both Perfetto and `chrome://tracing` load it directly; the strict
//! [`crate::json`] reader round-trips it (a CI smoke test holds that).
//!
//! Wall-clock readings appear **only** in these output files — never in
//! schema-v1 artifacts, which must stay byte-identical with telemetry
//! on or off.

use crate::json::Json;
use crate::trace::SpanRec;
use std::path::Path;

/// One span as a Chrome `trace_event` complete event.
fn event(s: &SpanRec) -> Json {
    Json::obj(vec![
        ("name", Json::str(s.name)),
        ("cat", Json::str(s.cat)),
        ("ph", Json::str("X")),
        ("ts", Json::Float(s.start_ns as f64 / 1000.0)),
        ("dur", Json::Float(s.dur_ns as f64 / 1000.0)),
        ("pid", Json::u64(1)),
        ("tid", Json::u64(s.tid)),
    ])
}

/// Renders spans as a Chrome `trace_event` JSON document
/// (Perfetto-loadable).
pub fn chrome_trace(spans: &[SpanRec]) -> Json {
    Json::obj(vec![(
        "traceEvents",
        Json::Arr(spans.iter().map(event).collect()),
    )])
}

/// Drains every recorded span and writes the Chrome trace to `path`,
/// returning how many spans it exported.
///
/// # Errors
///
/// One-line messages for serializer and I/O failures.
pub fn write_trace(path: &Path) -> Result<usize, String> {
    let spans = crate::drain_spans();
    let dropped = crate::dropped_spans();
    if dropped > 0 {
        eprintln!("trace: {dropped} spans dropped on full buffers (trace is truncated)");
    }
    let text = chrome_trace(&spans)
        .render()
        .map_err(|e| format!("render trace: {e}"))?;
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(spans.len())
}

/// The distinct span names present in a Chrome trace document, sorted —
/// what the CI trace-smoke step greps for.
///
/// # Errors
///
/// A one-line schema message when `doc` is not a trace document.
pub fn span_names(doc: &Json) -> Result<Vec<String>, String> {
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("trace document has no traceEvents array")?;
    let mut names: Vec<String> = events
        .iter()
        .map(|e| {
            e.get("name")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or("trace event has no name")
        })
        .collect::<Result<_, _>>()?;
    names.sort_unstable();
    names.dedup();
    Ok(names)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn rec(name: &'static str, start_ns: u64, dur_ns: u64) -> SpanRec {
        SpanRec {
            name,
            cat: "pipeline",
            tid: 1,
            start_ns,
            dur_ns,
        }
    }

    #[test]
    fn chrome_trace_round_trips_through_the_strict_reader() {
        let spans = vec![rec("parse", 10_500, 2_000), rec("execute", 50_000, 750)];
        let doc = chrome_trace(&spans);
        let text = doc.render().unwrap();
        let back = json::parse(&text).expect("strict reader accepts the trace");
        assert_eq!(back, doc);
        let events = back.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 2);
        let e = &events[0];
        assert_eq!(e.get("name").and_then(Json::as_str), Some("parse"));
        assert_eq!(e.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(e.get("ts").and_then(Json::as_f64), Some(10.5));
        assert_eq!(e.get("dur").and_then(Json::as_f64), Some(2.0));
        assert_eq!(e.get("tid").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn span_names_dedups_and_sorts() {
        let spans = vec![
            rec("execute", 0, 1),
            rec("parse", 2, 1),
            rec("execute", 4, 1),
        ];
        let names = span_names(&chrome_trace(&spans)).unwrap();
        assert_eq!(names, vec!["execute".to_string(), "parse".to_string()]);
        assert!(span_names(&Json::obj(vec![])).is_err());
    }
}
