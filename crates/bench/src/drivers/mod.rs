//! The driver registry: every paper table/figure as a `collect` +
//! `render` pair over persisted artifacts.
//!
//! A **driver** is one evaluation artifact (Table 2(a), Figure 7, …)
//! split into two pure-ish halves:
//!
//! * `collect(&DriverOpts) -> Artifact` — enumerate the sweep's cells,
//!   run them through the work-stealing pool ([`crate::harness`] /
//!   [`ocelot_runtime::pool`]), and pack the results into a versioned
//!   [`Artifact`]. This is the only half that simulates.
//! * `render(&Artifact) -> String` — produce the human-readable
//!   table/figure **purely from the artifact**, so `--replay` can
//!   re-emit any artifact from disk without re-running a single cell.
//!
//! The registry ([`all`] / [`by_name`]) backs the `ocelotc bench`
//! subcommand; the shared flag surface lives in [`crate::cli`].

mod ablation;
mod figures;
mod fleet;
mod runtime_tables;
mod scenarios;
mod tables;
mod tics;

use crate::artifact::{Artifact, ArtifactError};
use crate::harness::Workload;
use ocelot_runtime::model::ExecModel;
use ocelot_runtime::stats::Stats;
use ocelot_runtime::ExecBackend;
use ocelot_telemetry::json::Json;

/// Options shared by every driver's `collect`.
#[derive(Debug, Clone)]
pub struct DriverOpts {
    /// Worker threads for the sweep (1 = serial).
    pub jobs: usize,
    /// Scale override: replaces the driver's default run count (or, for
    /// duration-based drivers, its simulated seconds). `None` keeps the
    /// paper-scale default. Golden tests use small values here.
    pub runs: Option<u64>,
    /// Seed override; `None` keeps each driver's fixed default.
    pub seed: Option<u64>,
    /// Execution backend for the simulated cells (`--backend`).
    /// Backends are observationally identical, so artifacts differ only
    /// in their recorded provenance; drivers whose rows are bespoke
    /// per-bench jobs rather than [`crate::harness::CellSpec`] sweeps
    /// ignore this (documented in `docs/bench.md`).
    pub backend: ExecBackend,
}

impl Default for DriverOpts {
    fn default() -> Self {
        DriverOpts {
            jobs: 1,
            runs: None,
            seed: None,
            backend: ExecBackend::Interp,
        }
    }
}

impl DriverOpts {
    /// The effective run count given the driver's default.
    pub(crate) fn runs_or(&self, default: u64) -> u64 {
        self.runs.unwrap_or(default)
    }

    /// The effective seed given the driver's default.
    pub(crate) fn seed_or(&self, default: u64) -> u64 {
        self.seed.unwrap_or(default)
    }
}

/// A traced collection: one simulated pass producing the result
/// artifact and its `<name>_traces` companion.
pub(crate) type CollectTraced = fn(&DriverOpts) -> (Artifact, Artifact);

/// One registered driver.
pub struct Driver {
    /// Registry name — also the binary name and the artifact file stem.
    pub(crate) name: &'static str,
    /// One-line description for `--list` output.
    pub(crate) about: &'static str,
    /// Runs the sweep and packs a persistable artifact.
    pub collect: fn(&DriverOpts) -> Artifact,
    /// Renders the table/figure purely from a (possibly reloaded)
    /// artifact.
    pub render: fn(&Artifact) -> Result<String, ArtifactError>,
    /// When present, the driver can run its sweep once and return both
    /// the result artifact *and* a raw-observation companion artifact
    /// (`<name>_traces`) — the `--traces` flag. Uniform cell sweeps
    /// support this; drivers with bespoke per-bench jobs (static
    /// tables, TICS comparisons) do not.
    pub collect_traced: Option<CollectTraced>,
}

/// Every driver, in the order the paper presents its artifacts (the
/// extension sweeps follow).
pub fn all() -> [&'static Driver; 15] {
    [
        &tables::TABLE1,
        &figures::FIG7,
        &figures::FIG8,
        &runtime_tables::TABLE2A,
        &runtime_tables::TABLE2B,
        &tables::TABLE3,
        &tables::TABLE4,
        &ablation::ABLATION_REGION_SIZE,
        &ablation::PROGRESS_REPORT,
        &ablation::SAMOYED_SCALING,
        &tics::TICS_EXPIRY,
        &tics::TICS_DYNAMIC,
        &figures::ENERGY_BREAKDOWN,
        &scenarios::SCENARIO_SWEEP,
        &fleet::FLEET,
    ]
}

/// Looks a driver up by registry name.
pub fn by_name(name: &str) -> Option<&'static Driver> {
    all().into_iter().find(|d| d.name == name)
}

// ---------------------------------------------------------------------
// Shared cell plumbing
// ---------------------------------------------------------------------

/// The benchmark names in `ocelot_apps::all()` order — the row order of
/// every per-benchmark table.
pub(crate) fn bench_names() -> Vec<&'static str> {
    ocelot_apps::all().iter().map(|b| b.name).collect()
}

/// Shards one whole-row job per benchmark across the pool and returns
/// the resulting cells in `ocelot_apps::all()` order — the shape used
/// by drivers whose rows need several builds/machines rather than one
/// standard [`crate::harness::CellSpec`].
pub(crate) fn per_bench_cells(
    jobs: usize,
    job: impl Fn(&ocelot_apps::Benchmark) -> Json + Sync,
) -> Vec<Json> {
    let benches = ocelot_apps::all();
    let job = &job;
    let work: Vec<ocelot_runtime::pool::Job<'_, Json>> = benches
        .iter()
        .map(|b| Box::new(move || job(b)) as ocelot_runtime::pool::Job<'_, Json>)
        .collect();
    ocelot_runtime::pool::run_jobs(work, jobs)
}

/// The standard collect tail for uniform sweeps: runs `specs` through
/// the pool and packs one [`sim_cell`] per spec, in spec order, into a
/// fresh artifact.
pub(crate) fn collect_sim(
    driver: &str,
    mut config: Vec<(String, Json)>,
    specs: &[crate::harness::CellSpec],
    opts: &DriverOpts,
) -> Artifact {
    let specs = bind_backend(specs, &mut config, opts);
    let stats = crate::harness::run_cells(&specs, opts.jobs);
    let mut a = Artifact::new(driver, config);
    for (spec, s) in specs.iter().zip(&stats) {
        a.cells.push(spec_cell(spec, s));
    }
    a
}

/// As [`collect_sim`], but simulating each cell exactly once and
/// returning both the result artifact and the raw-observation
/// companion artifact (`<driver>_traces`, cells in the same order with
/// the same identity members plus a `"trace"` member).
pub(crate) fn collect_sim_traced(
    driver: &str,
    mut config: Vec<(String, Json)>,
    specs: &[crate::harness::CellSpec],
    opts: &DriverOpts,
) -> (Artifact, Artifact) {
    let specs = bind_backend(specs, &mut config, opts);
    let runs = crate::harness::run_cells_full(&specs, opts.jobs);
    let mut a = Artifact::new(driver, config.clone());
    let mut t = Artifact::new(&crate::traces::traces_driver_name(driver), config);
    for (spec, run) in specs.iter().zip(&runs) {
        a.cells.push(spec_cell(spec, &run.stats));
        let mut pairs = cell_identity(spec);
        pairs.push(("trace", crate::traces::trace_to_json(&run.trace)));
        t.cells.push(Json::obj(pairs));
    }
    (a, t)
}

/// Binds the sweep's uniform backend onto every spec and records it
/// once in the config for provenance: a replayed artifact says which
/// engine simulated it.
fn bind_backend(
    specs: &[crate::harness::CellSpec],
    config: &mut Vec<(String, Json)>,
    opts: &DriverOpts,
) -> Vec<crate::harness::CellSpec> {
    config.push(("backend".into(), Json::str(opts.backend.name())));
    specs
        .iter()
        .map(|s| s.clone().with_backend(opts.backend))
        .collect()
}

/// The identity members of a cell built from its spec: `bench`,
/// `model`, `seed`, the scenario binding when present, and the
/// workload tags.
pub(crate) fn cell_identity(spec: &crate::harness::CellSpec) -> Vec<(&'static str, Json)> {
    let mut pairs = vec![
        ("bench", Json::str(&spec.bench)),
        ("model", Json::str(spec.model.name())),
        ("seed", Json::u64(spec.seed)),
    ];
    if let Some(sc) = &spec.scenario {
        pairs.push(("scenario", Json::str(sc)));
    }
    pairs.extend(workload_pairs(spec.workload));
    pairs
}

/// The standard simulation-cell object for `spec`:
/// `{identity..., stats}`.
pub(crate) fn spec_cell(spec: &crate::harness::CellSpec, stats: &Stats) -> Json {
    let mut pairs = cell_identity(spec);
    pairs.push(("stats", ocelot_runtime::stats::stats_to_json(stats)));
    Json::obj(pairs)
}

/// Tags identifying a workload inside a cell object.
pub(crate) fn workload_pairs(w: Workload) -> Vec<(&'static str, Json)> {
    match w {
        Workload::Continuous { runs } => vec![
            ("workload", Json::str("continuous")),
            ("runs", Json::u64(runs)),
        ],
        Workload::Intermittent { runs } => vec![
            ("workload", Json::str("intermittent")),
            ("runs", Json::u64(runs)),
        ],
        Workload::Harvested { runs } => vec![
            ("workload", Json::str("harvested")),
            ("runs", Json::u64(runs)),
        ],
        Workload::Duration { sim_us } => vec![
            ("workload", Json::str("duration")),
            ("sim_us", Json::u64(sim_us)),
        ],
        Workload::Pathological { runs } => vec![
            ("workload", Json::str("pathological")),
            ("runs", Json::u64(runs)),
        ],
    }
}

/// Builds the standard simulation-cell object:
/// `{bench, model, seed, workload tags..., stats}`.
pub(crate) fn sim_cell(
    bench: &str,
    model: ExecModel,
    seed: u64,
    workload: Workload,
    stats: &Stats,
) -> Json {
    let mut pairs = vec![
        ("bench", Json::str(bench)),
        ("model", Json::str(model.name())),
        ("seed", Json::u64(seed)),
    ];
    pairs.extend(workload_pairs(workload));
    pairs.push(("stats", ocelot_runtime::stats::stats_to_json(stats)));
    Json::obj(pairs)
}

/// A required string member of a cell.
pub(crate) fn cell_str<'a>(cell: &'a Json, key: &str) -> Result<&'a str, ArtifactError> {
    cell.get(key).and_then(Json::as_str).ok_or_else(|| {
        ArtifactError::Schema(format!("cell member `{key}` missing or not a string"))
    })
}

/// A required integer member of a cell.
pub(crate) fn cell_u64(cell: &Json, key: &str) -> Result<u64, ArtifactError> {
    cell.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| ArtifactError::Schema(format!("cell member `{key}` missing or not a u64")))
}

/// A required number member of a cell, as `f64`.
pub(crate) fn cell_f64(cell: &Json, key: &str) -> Result<f64, ArtifactError> {
    cell.get(key).and_then(Json::as_f64).ok_or_else(|| {
        ArtifactError::Schema(format!("cell member `{key}` missing or not a number"))
    })
}

/// A required boolean member of a cell.
pub(crate) fn cell_bool(cell: &Json, key: &str) -> Result<bool, ArtifactError> {
    cell.get(key)
        .and_then(Json::as_bool)
        .ok_or_else(|| ArtifactError::Schema(format!("cell member `{key}` missing or not a bool")))
}

/// The deserialized `stats` member of a cell.
pub(crate) fn cell_stats(cell: &Json) -> Result<Stats, ArtifactError> {
    let v = cell
        .get("stats")
        .ok_or_else(|| ArtifactError::Schema("cell has no stats member".into()))?;
    crate::artifact::stats_from_json(v)
}

/// Finds the unique cell whose members match every `(key, value)` pair
/// (string values compared against string members).
pub(crate) fn find_cell<'a>(
    a: &'a Artifact,
    wanted: &[(&str, &str)],
) -> Result<&'a Json, ArtifactError> {
    a.cells
        .iter()
        .find(|c| {
            wanted
                .iter()
                .all(|(k, v)| c.get(k).and_then(Json::as_str) == Some(*v))
        })
        .ok_or_else(|| {
            ArtifactError::Schema(format!("no cell matching {wanted:?} in `{}`", a.driver))
        })
}

/// The stats of the unique cell matching `wanted`.
pub(crate) fn find_stats(a: &Artifact, wanted: &[(&str, &str)]) -> Result<Stats, ArtifactError> {
    cell_stats(find_cell(a, wanted)?)
}

/// Distinct `bench` members of an artifact's cells, in first-seen order
/// — the row order rendered, without consulting anything but the file.
pub(crate) fn cell_benches(a: &Artifact) -> Vec<String> {
    let mut seen = Vec::new();
    for c in &a.cells {
        if let Some(b) = c.get("bench").and_then(Json::as_str) {
            if !seen.iter().any(|s: &String| s == b) {
                seen.push(b.to_string());
            }
        }
    }
    seen
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        let names: Vec<&str> = all().iter().map(|d| d.name).collect();
        assert_eq!(names.len(), 15, "all fifteen drivers registered");
        for n in &names {
            assert!(by_name(n).is_some());
            assert_eq!(
                names.iter().filter(|m| m == &n).count(),
                1,
                "{n} duplicated"
            );
        }
        assert!(by_name("table9000").is_none());
    }

    #[test]
    fn sim_cell_round_trips_identity_and_stats() {
        let s = Stats {
            on_cycles: 77,
            ..Default::default()
        };
        let cell = sim_cell(
            "tire",
            ExecModel::Ocelot,
            9,
            Workload::Duration { sim_us: 123 },
            &s,
        );
        assert_eq!(cell_str(&cell, "bench").unwrap(), "tire");
        assert_eq!(cell_str(&cell, "model").unwrap(), "Ocelot");
        assert_eq!(cell_u64(&cell, "seed").unwrap(), 9);
        assert_eq!(cell_str(&cell, "workload").unwrap(), "duration");
        assert_eq!(cell_u64(&cell, "sim_us").unwrap(), 123);
        assert_eq!(cell_stats(&cell).unwrap(), s);
        assert!(cell_str(&cell, "nope").is_err());
        assert!(cell_u64(&cell, "bench").is_err());
    }

    #[test]
    fn find_cell_matches_on_all_keys() {
        let mut a = Artifact::new("t", vec![]);
        for (b, m) in [("a", "JIT"), ("a", "Ocelot"), ("b", "JIT")] {
            a.cells.push(Json::obj(vec![
                ("bench", Json::str(b)),
                ("model", Json::str(m)),
            ]));
        }
        let c = find_cell(&a, &[("bench", "a"), ("model", "Ocelot")]).unwrap();
        assert_eq!(cell_str(c, "model").unwrap(), "Ocelot");
        assert!(find_cell(&a, &[("bench", "c")]).is_err());
        assert_eq!(cell_benches(&a), vec!["a".to_string(), "b".to_string()]);
    }
}
