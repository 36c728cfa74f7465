//! The structured diagnostics layer: stable codes, severities, spanned
//! labels, and a deterministic human renderer.
//!
//! Every finding carries a primary [`Label`] (a source span with its
//! precomputed 1-based line/column) plus any number of related labels
//! naming the other program points the verdict rests on (the collecting
//! input, the dominating check site, the region markers). Line/column
//! are resolved once at lint time so a [`Report`] renders without the
//! source at hand — the serve cache and the JSON encoder both depend on
//! that self-containment.

use ocelot_ir::span::{SourceMap, Span};
use std::fmt;

/// Diagnostic severity, ordered least to most severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational — nothing is wrong, but the source says more than
    /// it needs to (e.g. a check that can never fire).
    Note,
    /// The program runs, but some executions violate or waste work.
    Warning,
    /// Every execution misbehaves: violation, livelock, or a region
    /// that can never commit.
    Error,
}

impl Severity {
    /// The lowercase name used in both renderers (`error`, `warning`,
    /// `note`).
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Stable diagnostic codes — the `OC0xx` registry (see `docs/lint.md`).
///
/// Codes are append-only: a released code never changes meaning or
/// default severity, so downstream tooling can match on them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Code {
    /// OC001 — a freshness expiry window smaller than the *minimum*
    /// collect-to-use path cost: every execution trips the expiry
    /// check and the mitigation restarts livelock.
    InfeasibleWindow,
    /// OC002 — the window is met only on the cheapest path; the
    /// worst-case path exceeds it, so some executions mitigate.
    BestCaseWindow,
    /// OC003 — a dead policy: no realizable call stack collects an
    /// input the policy constrains (or a consistent set relates fewer
    /// than two inputs).
    DeadPolicy,
    /// OC004 — a dynamic staleness check that is statically redundant
    /// (the dominating collection site is named in a related label).
    RedundantCheck,
    /// OC005 — a fresh use reachable from its collection only through
    /// a loop the progress analysis cannot bound: the freshness
    /// obligation has no bounded discharge.
    UnboundedObligation,
    /// OC006 — an atomic region whose *cheapest* body already exceeds
    /// the energy buffer: it can never commit, and its consistent set
    /// can never be collected atomically.
    RegionNeverFits,
    /// OC007 — a region whose worst-case attempt exceeds the buffer;
    /// some attempts die mid-region and retry.
    RegionMayExceed,
}

/// Every code, in registry order.
pub(crate) const ALL_CODES: [Code; 7] = [
    Code::InfeasibleWindow,
    Code::BestCaseWindow,
    Code::DeadPolicy,
    Code::RedundantCheck,
    Code::UnboundedObligation,
    Code::RegionNeverFits,
    Code::RegionMayExceed,
];

impl Code {
    /// The stable `OC0xx` string.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            Code::InfeasibleWindow => "OC001",
            Code::BestCaseWindow => "OC002",
            Code::DeadPolicy => "OC003",
            Code::RedundantCheck => "OC004",
            Code::UnboundedObligation => "OC005",
            Code::RegionNeverFits => "OC006",
            Code::RegionMayExceed => "OC007",
        }
    }

    /// Parses a stable code string back into the enum (the strict JSON
    /// reader uses this to reject unknown codes).
    pub fn parse(s: &str) -> Option<Code> {
        ALL_CODES.into_iter().find(|c| c.as_str() == s)
    }

    /// The severity every finding with this code carries.
    pub fn severity(self) -> Severity {
        match self {
            Code::InfeasibleWindow | Code::RegionNeverFits => Severity::Error,
            Code::BestCaseWindow
            | Code::DeadPolicy
            | Code::UnboundedObligation
            | Code::RegionMayExceed => Severity::Warning,
            Code::RedundantCheck => Severity::Note,
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A source span with resolved position and an explanatory message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Label {
    /// Byte range into the linted source.
    pub span: Span,
    /// 1-based line of `span.start`.
    pub line: usize,
    /// 1-based column (bytes) of `span.start`.
    pub col: usize,
    /// What this program point contributes to the finding.
    pub(crate) message: String,
}

impl Label {
    /// Builds a label, resolving line/column through `sm`.
    pub fn new(span: Span, sm: &SourceMap, message: impl Into<String>) -> Self {
        let lc = sm.span_start(span);
        Label {
            span,
            line: lc.line,
            col: lc.col,
            message: message.into(),
        }
    }
}

/// One diagnostic: a coded, severity-tagged message anchored at a
/// primary span, with related spans for the supporting evidence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The stable registry code.
    pub code: Code,
    /// Severity (always `code.severity()` for findings this crate
    /// produces; carried explicitly so reports round-trip).
    pub severity: Severity,
    /// The headline message.
    pub(crate) message: String,
    /// Where the problem is.
    pub primary: Label,
    /// Supporting program points, in evidence order.
    pub(crate) related: Vec<Label>,
}

/// The result of linting one program: findings in source order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    /// All findings, sorted by (primary span start, code, message) so
    /// reports are byte-stable across runs and thread counts.
    pub findings: Vec<Finding>,
}

impl Report {
    /// Sorts findings into the canonical deterministic order.
    pub(crate) fn normalize(&mut self) {
        self.findings.sort_by(|a, b| {
            (a.primary.span.start, a.code, &a.message).cmp(&(
                b.primary.span.start,
                b.code,
                &b.message,
            ))
        });
        self.findings.dedup();
    }

    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of warning-severity findings.
    pub fn warning_count(&self) -> usize {
        self.count(Severity::Warning)
    }

    /// Number of note-severity findings.
    pub(crate) fn note_count(&self) -> usize {
        self.count(Severity::Note)
    }

    fn count(&self, s: Severity) -> usize {
        self.findings.iter().filter(|f| f.severity == s).count()
    }

    /// True when no finding reaches error severity.
    pub fn is_error_free(&self) -> bool {
        self.error_count() == 0
    }

    /// Renders the report for humans. `path` names the source in
    /// `-->` location lines; `src`, when available, supplies the
    /// underlined source excerpts.
    pub fn render_text(&self, path: &str, src: Option<&str>) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!(
                "{}[{}]: {}\n  --> {}:{}:{}\n",
                f.severity,
                f.code.as_str(),
                f.message,
                path,
                f.primary.line,
                f.primary.col
            ));
            if let Some(src) = src {
                render_excerpt(&mut out, src, &f.primary);
            }
            for r in &f.related {
                out.push_str(&format!(
                    "  = {} ({}:{}:{})\n",
                    r.message, path, r.line, r.col
                ));
            }
        }
        out.push_str(&format!(
            "summary: {} error(s), {} warning(s), {} note(s)\n",
            self.error_count(),
            self.warning_count(),
            self.note_count()
        ));
        out
    }
}

/// Appends the `|`-gutter source excerpt for `label`, underlining the
/// spanned bytes on its first line.
fn render_excerpt(out: &mut String, src: &str, label: &Label) {
    let Some(line_text) = src.lines().nth(label.line.saturating_sub(1)) else {
        return;
    };
    let gutter = label.line.to_string();
    let pad = " ".repeat(gutter.len());
    let underline_len = label
        .span
        .len()
        .max(1)
        .min(line_text.len().saturating_sub(label.col - 1).max(1));
    out.push_str(&format!("{pad} |\n{gutter} | {line_text}\n"));
    out.push_str(&format!(
        "{pad} | {}{}\n",
        " ".repeat(label.col - 1),
        "^".repeat(underline_len)
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_round_trip_and_stay_ordered() {
        for c in ALL_CODES {
            assert_eq!(Code::parse(c.as_str()), Some(c));
        }
        assert_eq!(Code::parse("OC999"), None);
        assert!(Severity::Note < Severity::Warning && Severity::Warning < Severity::Error);
    }

    #[test]
    fn normalize_orders_and_dedups() {
        let sm = SourceMap::new("ab\ncd\n");
        let mk = |start: usize, code: Code| Finding {
            code,
            severity: code.severity(),
            message: "m".into(),
            primary: Label::new(Span::new(start, start + 1), &sm, "p"),
            related: vec![],
        };
        let mut r = Report {
            findings: vec![
                mk(3, Code::DeadPolicy),
                mk(0, Code::RedundantCheck),
                mk(0, Code::RedundantCheck),
            ],
        };
        r.normalize();
        assert_eq!(r.findings.len(), 2);
        assert_eq!(r.findings[0].primary.span.start, 0);
        assert_eq!(r.note_count(), 1);
        assert_eq!(r.warning_count(), 1);
        assert!(r.is_error_free());
    }

    #[test]
    fn text_rendering_points_and_underlines() {
        let src = "sensor s;\nfn main() { let v = in(s); }\n";
        let sm = SourceMap::new(src);
        let span = Span::new(src.find("let").unwrap(), src.find("in(s)").unwrap() + 5);
        let f = Finding {
            code: Code::InfeasibleWindow,
            severity: Severity::Error,
            message: "window too small".into(),
            primary: Label::new(span, &sm, "the use"),
            related: vec![Label::new(Span::new(0, 6), &sm, "input collected here")],
        };
        let r = Report { findings: vec![f] };
        let text = r.render_text("x.oc", Some(src));
        assert!(text.contains("error[OC001]: window too small"), "{text}");
        assert!(text.contains("--> x.oc:2:13"), "{text}");
        assert!(text.contains("^^^^"), "{text}");
        assert!(text.contains("input collected here (x.oc:1:1)"), "{text}");
        assert!(text.contains("summary: 1 error(s), 0 warning(s), 0 note(s)"));
    }
}
