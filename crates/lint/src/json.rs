//! JSON encoding for lint reports (`ocelotc lint --format json`, the
//! serve `lint` op, and the CI round-trip smoke), on the workspace's
//! one strict [`Json`] implementation.
//!
//! The encoding is *byte-stable*: a report renders to identical bytes
//! across runs, platforms, and `--jobs` counts, because
//! [`Report::normalize`] fixes the finding order and every field is
//! integral or a string.
//!
//! Schema (`docs/lint.md` documents it for external consumers):
//!
//! ```json
//! {
//!   "schema": "ocelot-lint-report", "version": 1,
//!   "errors": 1, "warnings": 0, "notes": 2,
//!   "findings": [{
//!     "code": "OC001", "severity": "error", "message": "...",
//!     "primary": {"start": 10, "end": 24, "line": 2, "col": 3, "message": "..."},
//!     "related": [{"start": 1, "end": 7, "line": 1, "col": 2, "message": "..."}]
//!   }]
//! }
//! ```

use crate::{Code, Finding, Label, Report, Severity};
use ocelot_ir::span::Span;
use ocelot_telemetry::json::{parse, Json};

/// Schema identifier carried in every encoded report.
pub const SCHEMA: &str = "ocelot-lint-report";
/// Current schema version.
pub const VERSION: u64 = 1;

/// Encodes a (normalized) report as a [`Json`] value.
pub fn to_json(report: &Report) -> Json {
    Json::obj(vec![
        ("schema", Json::str(SCHEMA)),
        ("version", Json::u64(VERSION)),
        ("errors", Json::u64(report.error_count() as u64)),
        ("warnings", Json::u64(report.warning_count() as u64)),
        ("notes", Json::u64(report.note_count() as u64)),
        (
            "findings",
            Json::Arr(report.findings.iter().map(finding_to_json).collect()),
        ),
    ])
}

/// Renders a report as pretty-printed JSON text (trailing newline).
///
/// # Panics
///
/// Never: the encoding contains no floats, so [`Json::render`] cannot
/// fail.
pub fn render_json(report: &Report) -> String {
    let mut s = to_json(report).render().expect("float-free encoding");
    s.push('\n');
    s
}

fn finding_to_json(f: &Finding) -> Json {
    Json::obj(vec![
        ("code", Json::str(f.code.as_str())),
        ("severity", Json::str(f.severity.as_str())),
        ("message", Json::str(&f.message)),
        ("primary", label_to_json(&f.primary)),
        (
            "related",
            Json::Arr(f.related.iter().map(label_to_json).collect()),
        ),
    ])
}

fn label_to_json(l: &Label) -> Json {
    Json::obj(vec![
        ("start", Json::u64(l.span.start as u64)),
        ("end", Json::u64(l.span.end as u64)),
        ("line", Json::u64(l.line as u64)),
        ("col", Json::u64(l.col as u64)),
        ("message", Json::str(&l.message)),
    ])
}

/// Strictly decodes an encoded report: unknown schema/version, unknown
/// codes, unparseable severities, or missing fields are all errors.
/// `from_json(parse(render_json(r))) == r` for every report the linter
/// produces — the CI smoke asserts exactly that round-trip.
pub fn from_json(text: &str) -> Result<Report, String> {
    let v = parse(text).map_err(|e| e.to_string())?;
    if v.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        return Err(format!("not an {SCHEMA} document"));
    }
    if v.get("version").and_then(Json::as_u64) != Some(VERSION) {
        return Err(format!("unsupported {SCHEMA} version"));
    }
    let findings = v
        .get("findings")
        .and_then(Json::as_arr)
        .ok_or("missing findings array")?
        .iter()
        .map(finding_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    let report = Report { findings };
    // The counts are redundant with the findings; a mismatch means the
    // document was hand-edited or truncated.
    for (key, want) in [
        ("errors", report.error_count()),
        ("warnings", report.warning_count()),
        ("notes", report.note_count()),
    ] {
        if v.get(key).and_then(Json::as_u64) != Some(want as u64) {
            return Err(format!("`{key}` count disagrees with the findings"));
        }
    }
    Ok(report)
}

fn finding_from_json(v: &Json) -> Result<Finding, String> {
    let code_str = v
        .get("code")
        .and_then(Json::as_str)
        .ok_or("finding missing code")?;
    let code = Code::parse(code_str).ok_or_else(|| format!("unknown code `{code_str}`"))?;
    let sev_str = v
        .get("severity")
        .and_then(Json::as_str)
        .ok_or("finding missing severity")?;
    let severity = [Severity::Note, Severity::Warning, Severity::Error]
        .into_iter()
        .find(|s| s.as_str() == sev_str)
        .ok_or_else(|| format!("unknown severity `{sev_str}`"))?;
    let message = v
        .get("message")
        .and_then(Json::as_str)
        .ok_or("finding missing message")?
        .to_string();
    let primary = label_from_json(v.get("primary").ok_or("finding missing primary label")?)?;
    let related = v
        .get("related")
        .and_then(Json::as_arr)
        .ok_or("finding missing related array")?
        .iter()
        .map(label_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Finding {
        code,
        severity,
        message,
        primary,
        related,
    })
}

fn label_from_json(v: &Json) -> Result<Label, String> {
    let field = |k: &str| {
        v.get(k)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("label missing `{k}`"))
    };
    let message = v
        .get("message")
        .and_then(Json::as_str)
        .ok_or("label missing message")?
        .to_string();
    Ok(Label {
        span: Span::new(field("start")? as usize, field("end")? as usize),
        line: field("line")? as usize,
        col: field("col")? as usize,
        message,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lint_source, LintOptions};

    fn sample() -> Report {
        lint_source(
            "sensor s; fn main() { let x = in(s); fresh(x); out(log, x); out(alarm, x); }",
            &LintOptions {
                window_us: Some(10),
                ..LintOptions::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn round_trips_byte_stably() {
        let r = sample();
        assert!(!r.findings.is_empty());
        let text = render_json(&r);
        let back = from_json(&text).unwrap();
        assert_eq!(back, r);
        assert_eq!(render_json(&back), text);
    }

    #[test]
    fn strict_reader_rejects_tampering() {
        let r = sample();
        let text = render_json(&r);
        assert!(from_json(&text.replace("OC001", "OC999")).is_err());
        assert!(from_json(&text.replace("\"error\"", "\"fatal\"")).is_err());
        assert!(from_json(&text.replace("ocelot-lint-report", "other")).is_err());
        // Dropping a finding desynchronizes the counts.
        let v = parse(&text).unwrap();
        if let Json::Obj(mut pairs) = v {
            for (k, val) in &mut pairs {
                if k == "findings" {
                    *val = Json::Arr(vec![]);
                }
            }
            let truncated = Json::Obj(pairs).render().unwrap();
            assert!(from_json(&truncated).is_err());
        }
    }

    #[test]
    fn empty_report_encodes_cleanly() {
        let r = Report::default();
        let back = from_json(&render_json(&r)).unwrap();
        assert_eq!(back, r);
    }
}
