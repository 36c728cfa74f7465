//! Process-level regression test for the `OCELOT_OPT` knob: an invalid
//! non-empty value must abort the process with a diagnostic naming the
//! accepted values, never fall back silently to the default level (a CI
//! matrix typo like `OCELOT_OPT=O2` would otherwise make the whole opt
//! matrix vacuously test the default).

use std::process::Command;

fn ocelotc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ocelotc"))
}

#[test]
fn invalid_ocelot_opt_aborts_with_a_diagnostic() {
    // `fleet --help` resolves the opt level from the environment before
    // printing usage, so this exercises the knob without simulating.
    let out = ocelotc()
        .args(["fleet", "--help"])
        .env("OCELOT_OPT", "O2")
        .output()
        .expect("runs ocelotc");
    assert_eq!(
        out.status.code(),
        Some(2),
        "invalid OCELOT_OPT must be a hard process-level error"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("OCELOT_OPT"), "names the knob: {stderr}");
    assert!(stderr.contains("`O2`"), "echoes the bad value: {stderr}");
    assert!(
        stderr.contains("`0` or `2`"),
        "names the accepted values: {stderr}"
    );
}

#[test]
fn removed_level_one_is_rejected_like_any_invalid_value() {
    let out = ocelotc()
        .args(["fleet", "--help"])
        .env("OCELOT_OPT", "1")
        .output()
        .expect("runs ocelotc");
    assert_eq!(out.status.code(), Some(2), "OCELOT_OPT=1 names no level");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("`1`"), "echoes the bad value: {stderr}");
    assert!(
        stderr.contains("`0` or `2`"),
        "names the accepted values: {stderr}"
    );
}

#[test]
fn valid_and_empty_ocelot_opt_values_are_accepted() {
    for value in ["0", "2", ""] {
        let out = ocelotc()
            .args(["fleet", "--help"])
            .env("OCELOT_OPT", value)
            .output()
            .expect("runs ocelotc");
        assert!(
            out.status.success(),
            "OCELOT_OPT={value:?} must be accepted: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
