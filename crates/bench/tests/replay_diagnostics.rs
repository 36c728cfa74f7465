//! Regression tests for the `--replay` path: a truncated or corrupt
//! artifact, an unknown schema version, and a flag conflicting with the
//! artifact's recorded config must each produce a one-line diagnostic
//! naming the file and the mismatch — never a panic and never a silent
//! flag override.

use ocelot_bench::artifact::{Artifact, ArtifactError};
use ocelot_bench::cli::{replay_flag_conflicts, BenchArgs};
use ocelot_runtime::ExecBackend;
use ocelot_telemetry::json::Json;
use std::path::{Path, PathBuf};

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ocelot-replay-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn args(flags: &[&str]) -> BenchArgs {
    BenchArgs::parse(flags.iter().map(|s| s.to_string())).unwrap()
}

#[test]
fn truncated_artifact_diagnostic_names_the_file() {
    let dir = scratch_dir("truncated");
    let path = Artifact::path_in(&dir, "table2a");
    // A valid envelope chopped mid-object.
    std::fs::write(&path, "{\"schema_version\": 1, \"driver\": \"tab").unwrap();
    let err = Artifact::load(&dir, "table2a").expect_err("truncated file must not load");
    let msg = err.to_string();
    assert!(
        msg.contains(&path.display().to_string()),
        "names the file: {msg}"
    );
    assert!(msg.lines().count() == 1, "one-line diagnostic: {msg:?}");
}

#[test]
fn corrupt_artifact_diagnostic_names_the_file() {
    let dir = scratch_dir("corrupt");
    let path = Artifact::path_in(&dir, "table2a");
    std::fs::write(&path, "not json at all\n").unwrap();
    let err = Artifact::load(&dir, "table2a").expect_err("corrupt file must not load");
    let msg = err.to_string();
    assert!(
        msg.contains(&path.display().to_string()),
        "names the file: {msg}"
    );
}

#[test]
fn unknown_schema_version_diagnostic_names_file_and_version() {
    let dir = scratch_dir("schema");
    let path = Artifact::path_in(&dir, "table2a");
    std::fs::write(
        &path,
        "{\"schema_version\": 99, \"driver\": \"table2a\", \"config\": {}, \"cells\": []}\n",
    )
    .unwrap();
    let err = Artifact::load(&dir, "table2a").expect_err("unknown version must not load");
    let msg = err.to_string();
    assert!(
        msg.contains(&path.display().to_string()),
        "names the file: {msg}"
    );
    assert!(msg.contains("99"), "names the offending version: {msg}");
    assert!(matches!(err, ArtifactError::Schema(_)));
}

fn artifact_with(config: Vec<(&str, Json)>) -> Artifact {
    Artifact::new(
        "table2a",
        config
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

#[test]
fn replay_backend_conflict_is_a_diagnostic_not_an_override() {
    let a = artifact_with(vec![("backend", Json::str("interp"))]);
    let path = Path::new("out/table2a.json");
    let parsed = args(&["--replay", "--backend", "compiled"]);
    assert_eq!(parsed.backend, ExecBackend::Compiled);
    let msg = replay_flag_conflicts(&parsed, &a, path).expect_err("conflict must error");
    assert!(msg.contains("out/table2a.json"), "names the file: {msg}");
    assert!(msg.contains("backend=interp"), "names the recording: {msg}");
    assert!(msg.contains("--backend compiled"), "names the flag: {msg}");
    assert!(msg.lines().count() == 1, "one-line diagnostic: {msg:?}");

    // A matching backend flag is redundant but consistent: allowed.
    let ok = args(&["--replay", "--backend", "interp"]);
    assert!(replay_flag_conflicts(&ok, &a, path).is_ok());
}

#[test]
fn replay_backend_flag_without_a_recording_is_rejected() {
    let a = artifact_with(vec![]);
    let parsed = args(&["--replay", "--backend", "compiled"]);
    let msg = replay_flag_conflicts(&parsed, &a, Path::new("x/table2a.json"))
        .expect_err("unrecorded key must not be silently ignored");
    assert!(msg.contains("x/table2a.json"), "{msg}");
    assert!(msg.contains("does not record a backend"), "{msg}");
}

#[test]
fn replay_rejects_opt_and_jobs_flags() {
    let a = artifact_with(vec![("backend", Json::str("interp"))]);
    let path = Path::new("out/table2a.json");
    let parsed = args(&["--replay", "--jobs", "4"]);
    let msg = replay_flag_conflicts(&parsed, &a, path)
        .expect_err("simulation-shaping flags must not be silently ignored on replay");
    assert!(msg.contains("out/table2a.json"), "names the file: {msg}");
    assert!(msg.contains("--jobs"), "names the flag: {msg}");
    // `--opt` is no flag at all: the compiled engine has one level.
    let err = BenchArgs::parse(["--replay", "--opt", "0"].map(String::from)).unwrap_err();
    assert!(err.contains("unknown flag `--opt`"), "{err}");
}

#[test]
fn replay_cross_checks_recorded_runs_and_seed() {
    let a = artifact_with(vec![("runs", Json::u64(25)), ("seed", Json::u64(42))]);
    let path = Path::new("out/table2a.json");
    // Matching values pass.
    let ok = args(&["--replay", "--runs", "25", "--seed", "42"]);
    assert!(replay_flag_conflicts(&ok, &a, path).is_ok());
    // Mismatches name both sides.
    let bad_runs = args(&["--replay", "--runs", "3"]);
    let msg = replay_flag_conflicts(&bad_runs, &a, path).unwrap_err();
    assert!(msg.contains("runs=25") && msg.contains("--runs 3"), "{msg}");
    let bad_seed = args(&["--replay", "--seed", "7"]);
    let msg = replay_flag_conflicts(&bad_seed, &a, path).unwrap_err();
    assert!(msg.contains("seed=42") && msg.contains("--seed 7"), "{msg}");
    // A flag the artifact does not record is rejected, not ignored.
    let b = artifact_with(vec![]);
    let msg = replay_flag_conflicts(&args(&["--replay", "--runs", "3"]), &b, path).unwrap_err();
    assert!(msg.contains("does not record"), "{msg}");
}

#[test]
fn flags_without_replay_are_untouched_by_the_cross_check() {
    // Defaults report nothing explicitly given.
    let d = args(&[]);
    assert!(!d.given.backend && !d.given.jobs && !d.given.runs && !d.given.seed);
    // Explicit flags are tracked.
    let e = args(&[
        "--jobs",
        "2",
        "--runs",
        "1",
        "--seed",
        "9",
        "--backend",
        "interp",
    ]);
    assert!(e.given.backend && e.given.jobs && e.given.runs && e.given.seed);
}
