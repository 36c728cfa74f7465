//! Golden-file tests: small fixed-seed sweeps of `table2a` and `fig7`
//! checked byte-for-byte against committed fixtures — both the rendered
//! table and (for `fig7`) the persisted JSON artifact, so a change to
//! simulation results, table layout, *or* the on-disk schema shows up
//! as a reviewable diff.
//!
//! ## Regenerating the fixtures
//!
//! After an intentional change (new stats counter, different defaults,
//! schema bump — remember to bump `artifact::SCHEMA_VERSION` when the
//! envelope changes meaning), regenerate with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p ocelot-bench --test golden
//! ```
//!
//! then review `git diff crates/bench/tests/golden/` and commit the
//! new fixtures alongside the change that motivated them.

use ocelot_bench::drivers::{self, DriverOpts};
use std::path::PathBuf;

/// Sweep scale used for every golden fixture: small enough for CI,
/// large enough to exercise re-execution and violation paths.
const GOLDEN_RUNS: u64 = 2;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

fn check_or_update(file: &str, actual: &str) {
    let path = golden_dir().join(file);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(golden_dir()).expect("create golden dir");
        std::fs::write(&path, actual).expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {}: {e}\n(run `UPDATE_GOLDEN=1 cargo test -p ocelot-bench \
             --test golden` to (re)generate fixtures)",
            path.display()
        )
    });
    assert_eq!(
        expected, actual,
        "{file} drifted from its golden fixture — if the change is intentional, \
         regenerate with UPDATE_GOLDEN=1 and commit the diff"
    );
}

fn collect(name: &str) -> ocelot_bench::artifact::Artifact {
    let d = drivers::by_name(name).expect("driver exists");
    (d.collect)(&DriverOpts {
        jobs: 2, // parallel on purpose: golden bytes must not depend on it
        runs: Some(GOLDEN_RUNS),
        seed: None,
        backend: ocelot_runtime::ExecBackend::Interp,
    })
}

#[test]
fn table2a_rendered_output_matches_golden() {
    let a = collect("table2a");
    let d = drivers::by_name("table2a").unwrap();
    check_or_update("table2a.txt", &(d.render)(&a).expect("renders"));
}

#[test]
fn fig7_rendered_output_matches_golden() {
    let a = collect("fig7");
    let d = drivers::by_name("fig7").unwrap();
    check_or_update("fig7.txt", &(d.render)(&a).expect("renders"));
}

#[test]
fn fig7_persisted_artifact_matches_golden() {
    let a = collect("fig7");
    check_or_update("fig7.json", &a.render().expect("serializes"));
}

#[test]
fn scenario_sweep_rendered_output_matches_golden() {
    let a = collect("scenario_sweep");
    let d = drivers::by_name("scenario_sweep").unwrap();
    check_or_update("scenario_sweep.txt", &(d.render)(&a).expect("renders"));
}

#[test]
fn scenario_sweep_persisted_artifact_matches_golden() {
    let a = collect("scenario_sweep");
    check_or_update("scenario_sweep.json", &a.render().expect("serializes"));
}
