//! Property tests for the linter as a *total, deterministic* function:
//! over the same generator the differential suite uses, every program
//! lints without panicking, the report is identical across repeated
//! runs, and the JSON encoding is byte-for-byte stable — the contract
//! the serve-side cache and CI smoke rely on.

use ocelot_bench::genprog::SourceGen;
use ocelot_lint::json;
use ocelot_lint::{lint_source, LintOptions};
use proptest::prelude::*;

/// The option grid a fuzzed program is linted under: window and
/// capacity both off, both on (tight and generous), and each alone.
fn option_grid() -> Vec<LintOptions> {
    let mut grid = Vec::new();
    for window_us in [None, Some(1), Some(150), Some(1_000_000)] {
        for capacity_nj in [None, Some(50.0), Some(26_000.0)] {
            grid.push(LintOptions {
                window_us,
                capacity_nj,
            });
        }
    }
    grid
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The linter is total over generated programs: no option mix makes
    /// it panic or reject a program the compiler accepts, and both the
    /// report and its JSON encoding are bit-identical across runs.
    #[test]
    fn lint_is_total_and_byte_stable(seed in 0u64..4096) {
        let src = SourceGen::generate(seed);
        for opts in option_grid() {
            let first = lint_source(&src, &opts)
                .unwrap_or_else(|e| panic!("seed {seed}: linter failed: {e}\n{src}"));
            let again = lint_source(&src, &opts).unwrap();
            prop_assert_eq!(&first, &again, "report differs across runs (seed {})", seed);
            let json_a = json::render_json(&first);
            let json_b = json::render_json(&again);
            prop_assert_eq!(&json_a, &json_b, "JSON differs across runs (seed {})", seed);
            // The strict reader accepts everything the renderer emits,
            // and the decoded report re-encodes to the same bytes.
            let decoded = json::from_json(&json_a)
                .unwrap_or_else(|e| panic!("seed {seed}: round-trip rejected: {e}\n{json_a}"));
            prop_assert_eq!(&json::render_json(&decoded), &json_a);
        }
    }

    /// Rendering never panics either, with or without the source for
    /// excerpts, and is identical across runs.
    #[test]
    fn text_rendering_is_total_and_deterministic(seed in 0u64..4096) {
        let src = SourceGen::generate(seed);
        let opts = LintOptions {
            window_us: Some(150),
            capacity_nj: Some(50.0),
        };
        let report = lint_source(&src, &opts).unwrap();
        let with_src = report.render_text("gen.oc", Some(&src));
        prop_assert_eq!(&with_src, &report.render_text("gen.oc", Some(&src)));
        // Without the source, excerpts are skipped but nothing panics.
        let bare = report.render_text("gen.oc", None);
        prop_assert_eq!(&bare, &report.render_text("gen.oc", None));
    }
}
