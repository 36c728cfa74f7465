//! The nine shipped apps are the lint's false-positive regression set:
//! every one of them runs correctly under sweep, so any warning or
//! error the linter raises on them would be a false alarm. Notes
//! (statically redundant checks) are fine — they describe a check
//! that can never fire, not a defect.

use ocelot_lint::{lint_source, LintOptions, Severity};

#[test]
fn all_apps_lint_clean_at_defaults() {
    for b in ocelot_apps::all_with_extensions() {
        let report = lint_source(b.annotated_src, &LintOptions::default())
            .unwrap_or_else(|e| panic!("{}: failed to lint: {e}", b.name));
        let noisy: Vec<_> = report
            .findings
            .iter()
            .filter(|f| f.severity > Severity::Note)
            .collect();
        assert!(
            noisy.is_empty(),
            "{}: false positives:\n{}",
            b.name,
            report.render_text(b.name, Some(b.annotated_src))
        );
    }
}

#[test]
fn app_reports_render_and_stay_deterministic() {
    for b in ocelot_apps::all_with_extensions() {
        let opts = LintOptions::default();
        let a = lint_source(b.annotated_src, &opts).unwrap();
        let c = lint_source(b.annotated_src, &opts).unwrap();
        assert_eq!(a, c, "{}: report drifted between runs", b.name);
        let text = a.render_text(b.name, Some(b.annotated_src));
        assert!(
            text.ends_with("note(s)\n"),
            "{}: summary line missing",
            b.name
        );
    }
}
