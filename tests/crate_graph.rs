//! The crate-graph layering rule: the evaluation harness (`ocelot-bench`)
//! sits at the top of the graph, under only the `ocelotc` CLI, so no
//! crate under `crates/` may list it as a normal dependency
//! (dev-dependencies of integration tests are allowed); and the
//! telemetry crate, which every other crate links, stays a leaf.

use std::path::Path;

/// The dependency names listed in `manifest`'s `[dependencies]` table.
fn normal_dependencies(manifest: &str) -> Vec<String> {
    let mut in_deps = false;
    let mut deps = Vec::new();
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_deps = line == "[dependencies]";
        } else if in_deps && !line.is_empty() && !line.starts_with('#') {
            let name = line.split(['=', '.']).next().unwrap_or(line);
            deps.push(name.trim().to_string());
        }
    }
    deps
}

/// `(crate directory name, [dependencies] names)` for every workspace
/// crate under `crates/`.
fn crates() -> Vec<(String, Vec<String>)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut out: Vec<(String, Vec<String>)> = std::fs::read_dir(&root)
        .expect("crates/ is readable")
        .map(|entry| {
            let dir = entry.expect("directory entry").path();
            let text = std::fs::read_to_string(dir.join("Cargo.toml"))
                .unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
            let name = dir.file_name().unwrap().to_string_lossy().into_owned();
            (name, normal_dependencies(&text))
        })
        .collect();
    out.sort();
    out
}

#[test]
fn the_manifest_reader_sees_only_the_dependencies_table() {
    let manifest = "[package]\nname = \"x\"\n\n[dependencies]\n# note\nocelot-ir = { workspace = true }\n\
                    rand.workspace = true\n\n[dev-dependencies]\nocelot-bench = { workspace = true }\n";
    assert_eq!(normal_dependencies(manifest), ["ocelot-ir", "rand"]);
}

#[test]
fn no_crate_depends_on_the_evaluation_harness() {
    let crates = crates();
    assert!(
        crates.len() >= 12,
        "expected every workspace crate: {crates:?}"
    );
    let offenders: Vec<&str> = crates
        .iter()
        .filter(|(_, deps)| deps.iter().any(|d| d == "ocelot-bench"))
        .map(|(name, _)| name.as_str())
        .collect();
    assert!(
        offenders.is_empty(),
        "crates with ocelot-bench under [dependencies] (only ocelotc may): {offenders:?}"
    );
}

#[test]
fn telemetry_has_no_dependencies() {
    let crates = crates();
    let (_, deps) = crates
        .iter()
        .find(|(name, _)| name == "telemetry")
        .expect("crates/telemetry exists");
    assert!(deps.is_empty(), "ocelot-telemetry depends on {deps:?}");
}
