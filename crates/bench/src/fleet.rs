//! Fleet-scale simulation: the million-device sweep driver behind
//! `ocelotc fleet` and the `fleet` bench driver.
//!
//! A **fleet** is one program crossed with a scenario distribution and a
//! seed range: device `i` runs under `scenarios[i % n]` reseeded with
//! `seed0 + i`. The program is compiled **once** — each scenario group
//! shares one read-only [`MachineCore`] (and, through it, one compiled
//! program) across every pool worker, while per-device mutable state
//! lives in a recycled [`DeviceState`] so a worker allocates once and
//! re-runs devices out of the same arena.
//!
//! Results stream into per-scenario [`FleetAggregate`]s — summed
//! [`Stats`] counters plus log₂-bucket [`Histogram`]s of per-device
//! reboots and freshness failures — merged in device-index order, so
//! the persisted artifact is byte-identical at every `--jobs` width and
//! whether cores are shared or rebuilt per worker.
//!
//! The per-cell interpreter path stays intact as the oracle: device `i`
//! is observationally identical to the [`CellSpec`] returned by
//! [`FleetSpec::device_spec`] run through
//! [`crate::harness::run_cell`], and the fold of those per-cell stats
//! equals the fleet aggregates exactly (held by the oracle-equivalence
//! suite in `tests/fleet_oracle.rs`).

use crate::artifact::{stats_from_json, Artifact, ArtifactError};
use crate::harness::{build_for, calibrated_costs, CellSpec, Workload};
use crate::report::Table;
use ocelot_runtime::machine::{DeviceState, Machine, MachineCore};
use ocelot_runtime::model::ExecModel;
use ocelot_runtime::pool::{self, Job};
use ocelot_runtime::stats::{stats_to_json, Stats};
use ocelot_runtime::{ExecBackend, OptLevel, MAX_STEPS};
use ocelot_scenario::Scenario;
use ocelot_telemetry::json::Json;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

/// One fleet sweep: program × scenario distribution × seed range.
///
/// Device `i` (for `i` in `0..devices`) runs `runs` complete program
/// attempts under `scenarios[i % scenarios.len()]` reseeded with
/// `seed0 + i` — exactly the cell [`FleetSpec::device_spec`] describes.
#[derive(Debug, Clone)]
pub struct FleetSpec {
    /// Benchmark name (resolved via [`ocelot_apps::by_name`]).
    pub bench: String,
    /// Execution model to build (fleet sweeps default to Ocelot).
    pub model: ExecModel,
    /// Scenario distribution: device `i` gets entry `i % len`. Entries
    /// are [`ocelot_scenario::parse`] specs.
    pub scenarios: Vec<String>,
    /// Total devices in the sweep.
    pub devices: u64,
    /// Seed range start: device `i` is seeded `seed0 + i`.
    pub seed0: u64,
    /// Program runs per device (a device-run = one of these).
    pub runs: u64,
    /// Execution engine every device runs on.
    pub backend: ExecBackend,
    /// Unread: the compiled engine has one optimization level. Kept
    /// only for perfbench, which sets it.
    pub opt: OptLevel,
}

impl FleetSpec {
    /// The oracle cell for device `i`: running this spec through
    /// [`crate::harness::run_cell`] must produce exactly the stats the
    /// fleet path folds into its aggregate for device `i`.
    pub fn device_spec(&self, i: u64) -> CellSpec {
        let scenario = &self.scenarios[(i % self.scenarios.len() as u64) as usize];
        CellSpec::new(
            &self.bench,
            self.model,
            self.seed0 + i,
            Workload::Harvested { runs: self.runs },
        )
        .with_scenario(scenario)
        .with_backend(self.backend)
    }

    /// Total device-runs (`devices × runs`) the sweep performs.
    pub fn device_runs(&self) -> u64 {
        self.devices * self.runs
    }
}

/// How [`run_fleet`] schedules the sweep.
#[derive(Debug, Clone, Copy)]
pub struct FleetOpts {
    /// Worker threads (1 = serial).
    pub jobs: usize,
    /// Share one read-only [`MachineCore`] per scenario across all
    /// workers (the fast path). `false` rebuilds the cores inside every
    /// worker — semantically free, held byte-identical by the
    /// determinism suite.
    pub share_core: bool,
}

impl Default for FleetOpts {
    fn default() -> Self {
        FleetOpts {
            jobs: 1,
            share_core: true,
        }
    }
}

pub use ocelot_telemetry::{Histogram, HIST_BUCKETS};

/// Artifact (de)serialization for the shared telemetry [`Histogram`].
/// The histogram itself was generalized into `ocelot-telemetry` (a
/// dependency leaf with no JSON layer), so its schema-v1 encoding —
/// the raw 65-bucket array, unchanged since the fleet driver introduced
/// it — lives here with the rest of the artifact schema.
pub trait HistogramJson: Sized {
    /// The histogram as a JSON array of bucket counts.
    fn to_json(&self) -> Json;

    /// Strict inverse of [`HistogramJson::to_json`].
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Schema`] on wrong length or non-`u64` entries.
    fn from_json(v: &Json) -> Result<Self, ArtifactError>;
}

impl HistogramJson for Histogram {
    fn to_json(&self) -> Json {
        Json::Arr(self.buckets().iter().map(|&v| Json::u64(v)).collect())
    }

    fn from_json(v: &Json) -> Result<Histogram, ArtifactError> {
        let arr = v
            .as_arr()
            .ok_or_else(|| ArtifactError::Schema("histogram is not an array".into()))?;
        if arr.len() != HIST_BUCKETS {
            return Err(ArtifactError::Schema(format!(
                "histogram has {} buckets, expected {HIST_BUCKETS}",
                arr.len()
            )));
        }
        let mut buckets = Vec::with_capacity(HIST_BUCKETS);
        for e in arr {
            buckets
                .push(e.as_u64().ok_or_else(|| {
                    ArtifactError::Schema("histogram bucket is not a u64".into())
                })?);
        }
        Ok(Histogram::from_buckets(buckets))
    }
}

/// Everything one scenario's devices produced: device count, summed
/// [`Stats`] counters, and the per-device reboot / freshness-failure
/// histograms the percentile columns derive from.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetAggregate {
    /// The scenario spec these devices ran under.
    pub scenario: String,
    /// Devices folded in.
    pub devices: u64,
    /// Element-wise sum of every device's [`Stats`] (including the
    /// breakdown).
    pub stats: Stats,
    /// Per-device `reboots` distribution.
    pub reboots_hist: Histogram,
    /// Per-device `fresh_violations` distribution.
    pub fresh_hist: Histogram,
}

/// Adds every counter of `add` (including the breakdown) into `total`.
pub fn add_stats(total: &mut Stats, add: &Stats) {
    for ((name, cur), (_, v)) in total.clone().counters().into_iter().zip(add.counters()) {
        total.set_counter(name, cur + v);
    }
    let summed = total.breakdown.clone();
    for ((name, cur), (_, v)) in summed.counters().into_iter().zip(add.breakdown.counters()) {
        total.breakdown.set_counter(name, cur + v);
    }
}

impl FleetAggregate {
    /// An empty aggregate for `scenario`.
    pub fn new(scenario: &str) -> Self {
        FleetAggregate {
            scenario: scenario.to_string(),
            devices: 0,
            stats: Stats::default(),
            reboots_hist: Histogram::default(),
            fresh_hist: Histogram::default(),
        }
    }

    /// Folds one device's accumulated stats in.
    pub fn record(&mut self, s: &Stats) {
        self.devices += 1;
        add_stats(&mut self.stats, s);
        self.reboots_hist.record(s.reboots);
        self.fresh_hist.record(s.fresh_violations);
    }

    /// Merges a partial aggregate for the same scenario (chunk
    /// reduction). Exact: `u64` sums do not depend on grouping.
    pub fn merge(&mut self, other: &FleetAggregate) {
        debug_assert_eq!(self.scenario, other.scenario);
        self.devices += other.devices;
        add_stats(&mut self.stats, &other.stats);
        self.reboots_hist.merge(&other.reboots_hist);
        self.fresh_hist.merge(&other.fresh_hist);
    }

    /// The artifact cell for this aggregate.
    pub fn to_cell(&self) -> Json {
        Json::obj(vec![
            ("scenario", Json::str(&self.scenario)),
            ("devices", Json::u64(self.devices)),
            ("stats", stats_to_json(&self.stats)),
            ("reboots_hist", self.reboots_hist.to_json()),
            ("fresh_hist", self.fresh_hist.to_json()),
        ])
    }

    /// Strict inverse of [`FleetAggregate::to_cell`].
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Schema`] on any missing or mistyped member.
    pub fn from_cell(cell: &Json) -> Result<FleetAggregate, ArtifactError> {
        let scenario = cell
            .get("scenario")
            .and_then(Json::as_str)
            .ok_or_else(|| ArtifactError::Schema("fleet cell has no scenario".into()))?
            .to_string();
        let devices = cell
            .get("devices")
            .and_then(Json::as_u64)
            .ok_or_else(|| ArtifactError::Schema("fleet cell has no devices count".into()))?;
        let stats = stats_from_json(
            cell.get("stats")
                .ok_or_else(|| ArtifactError::Schema("fleet cell has no stats".into()))?,
        )?;
        let reboots_hist = Histogram::from_json(
            cell.get("reboots_hist")
                .ok_or_else(|| ArtifactError::Schema("fleet cell has no reboots_hist".into()))?,
        )?;
        let fresh_hist = Histogram::from_json(
            cell.get("fresh_hist")
                .ok_or_else(|| ArtifactError::Schema("fleet cell has no fresh_hist".into()))?,
        )?;
        Ok(FleetAggregate {
            scenario,
            devices,
            stats,
            reboots_hist,
            fresh_hist,
        })
    }
}

/// Runs the whole fleet and returns one aggregate per entry of
/// `spec.scenarios`, in that order.
///
/// The program is built once; each scenario shares one read-only
/// [`MachineCore`] (so the compiled program, chain table, and layouts
/// are constructed once per scenario, not per device), and each worker
/// recycles a single [`DeviceState`] across all its devices. Device
/// indices are split into contiguous chunks; chunk aggregates merge in
/// index order, and because every merged quantity is an exact `u64`
/// sum, the result is identical at any worker count.
///
/// # Panics
///
/// Panics on an unknown benchmark or scenario name, a failing build, or
/// an empty scenario list — the same failures the per-cell harness
/// raises.
pub fn run_fleet(spec: &FleetSpec, opts: FleetOpts) -> Vec<FleetAggregate> {
    assert!(
        !spec.scenarios.is_empty(),
        "a fleet needs at least one scenario"
    );
    let b = ocelot_apps::by_name(&spec.bench)
        .unwrap_or_else(|| panic!("unknown benchmark `{}`", spec.bench));
    let built = build_for(&b, spec.model);
    let scenarios: Vec<Scenario> = spec
        .scenarios
        .iter()
        .map(|s| ocelot_scenario::parse(s).unwrap_or_else(|e| panic!("fleet scenario: {e}")))
        .collect();
    // The channel layout recorded in a core is a pure function of the
    // scenario shape (seeds only perturb signal values), so any device
    // seed works here. The program-only facts are computed once: every
    // further scenario's core derives from the first.
    let env_of = |sc: &Scenario| sc.reseeded(spec.seed0).environment();
    let build_cores = || {
        let first = MachineCore::build(
            &built.program,
            &built.regions,
            built.policies.clone(),
            &env_of(&scenarios[0]),
            calibrated_costs(&b),
        );
        let rest: Vec<_> = scenarios[1..]
            .iter()
            .map(|sc| Arc::new(first.for_environment(&env_of(sc))))
            .collect();
        std::iter::once(Arc::new(first))
            .chain(rest)
            .collect::<Vec<_>>()
    };
    let shared_cores = build_cores();
    let n_scenarios = spec.scenarios.len() as u64;

    // Contiguous device-index chunks, enough to keep the pool busy.
    let n_chunks = spec.devices.min((opts.jobs as u64) * 8).max(1);
    let chunk = spec.devices.div_ceil(n_chunks);
    let mut work: Vec<Job<'_, Vec<FleetAggregate>>> = Vec::new();
    let mut lo = 0u64;
    while lo < spec.devices {
        let hi = (lo + chunk).min(spec.devices);
        let scenarios = &scenarios;
        let shared = &shared_cores;
        let build_cores = &build_cores;
        work.push(Box::new(move || {
            let _span = ocelot_telemetry::span!("fleet.chunk", "fleet");
            let local;
            let cores: &[Arc<MachineCore<'_>>] = if opts.share_core {
                shared
            } else {
                local = build_cores();
                &local
            };
            let mut aggs: Vec<FleetAggregate> = spec
                .scenarios
                .iter()
                .map(|s| FleetAggregate::new(s))
                .collect();
            let mut dev = DeviceState::default();
            for i in lo..hi {
                let s_idx = (i % n_scenarios) as usize;
                let sc = scenarios[s_idx].reseeded(spec.seed0 + i);
                let mut m = Machine::from_core(
                    Arc::clone(&cores[s_idx]),
                    std::mem::take(&mut dev),
                    sc.environment(),
                    sc.supply(),
                )
                .with_backend(spec.backend);
                for _ in 0..spec.runs {
                    // Harvested semantics: a harsh regime may
                    // legitimately starve a run, so no completion
                    // assertion — exactly the per-cell oracle's rule.
                    m.run_once(MAX_STEPS);
                }
                aggs[s_idx].record(m.stats());
                dev = m.into_device();
            }
            aggs
        }));
        lo = hi;
    }

    // Deterministic index-ordered reduction over chunk aggregates.
    let partials = pool::run_jobs(work, opts.jobs);
    let _reduce = ocelot_telemetry::span!("fleet.reduce", "fleet");
    let mut totals: Vec<FleetAggregate> = spec
        .scenarios
        .iter()
        .map(|s| FleetAggregate::new(s))
        .collect();
    for part in &partials {
        for (t, p) in totals.iter_mut().zip(part) {
            t.merge(p);
        }
    }
    totals
}

// ---------------------------------------------------------------------
// The `ocelotc fleet` entry point
// ---------------------------------------------------------------------

/// Default device count for `ocelotc fleet`. With
/// [`DEFAULT_FLEET_RUNS`] runs per device this is the acceptance-scale
/// sweep: 1M device-runs across the scenario registry.
pub const DEFAULT_FLEET_DEVICES: u64 = 200_000;

/// Default program runs per device for `ocelotc fleet` — enough that
/// devices outlive their initial bank charge, so the reboot histograms
/// and charge-time columns show each scenario's character.
pub const DEFAULT_FLEET_RUNS: u64 = 5;

struct FleetArgs {
    app: String,
    devices: u64,
    runs: u64,
    seed: u64,
    jobs: usize,
    backend: ExecBackend,
    scenarios: Vec<String>,
    out: PathBuf,
    trace_out: Option<PathBuf>,
    metrics: bool,
    force: bool,
    help: bool,
}

impl Default for FleetArgs {
    fn default() -> Self {
        FleetArgs {
            app: "tire".into(),
            devices: DEFAULT_FLEET_DEVICES,
            runs: DEFAULT_FLEET_RUNS,
            seed: 1,
            jobs: pool::default_jobs(),
            // The compiled engine is the default here: fleet sweeps are
            // throughput-bound, and the backends are observationally
            // identical (held by the oracle-equivalence suite).
            backend: ExecBackend::Compiled,
            scenarios: Vec::new(),
            out: PathBuf::from(crate::cli::DEFAULT_OUT_DIR),
            trace_out: None,
            metrics: false,
            force: false,
            help: false,
        }
    }
}

/// Static pre-flight for a fleet deployment: lint `app`'s annotated
/// source against the tightest harvested bank in the scenario
/// distribution before any device-run is burned on it. A program the
/// linter proves statically infeasible (a region that can never fit the
/// smallest bank, a window no path can meet) would fail or livelock on
/// *every* device — a million times over — so the sweep refuses it
/// unless the caller forces through.
///
/// # Errors
///
/// The rendered lint report (spanned, human-readable) followed by a
/// one-line verdict naming `--force`. Unknown app names are `Ok` here —
/// the callers validate them with their own messages.
pub fn lint_preflight(app: &str, scenarios: &[String]) -> Result<(), String> {
    let Some(b) = ocelot_apps::by_name(app) else {
        return Ok(());
    };
    let capacity = scenarios
        .iter()
        .filter_map(|s| ocelot_scenario::parse(s).ok())
        .filter_map(|sc| match sc.supply {
            ocelot_scenario::SupplySpec::Harvested { capacity_nj, .. } => Some(capacity_nj),
            ocelot_scenario::SupplySpec::Continuous => None,
        })
        .fold(None::<f64>, |acc, c| Some(acc.map_or(c, |a| a.min(c))));
    let opts = ocelot_lint::LintOptions {
        capacity_nj: capacity,
        ..ocelot_lint::LintOptions::default()
    };
    let report = ocelot_lint::lint_source(b.annotated_src, &opts)
        .map_err(|e| format!("error: `{app}` failed to lint: {e}"))?;
    if report.is_error_free() {
        return Ok(());
    }
    Err(format!(
        "{}error: `{app}` is statically infeasible under this scenario distribution \
         ({} lint error(s) above); rerun with --force to sweep anyway",
        report.render_text(app, Some(b.annotated_src)),
        report.error_count()
    ))
}

const FLEET_USAGE: &str = "\
fleet — million-device scenario sweep on one shared compiled program

usage: ocelotc fleet [--app NAME] [--devices N] [--runs N] [--seed N]
                     [--jobs N] [--backend interp|compiled]
                     [--scenario NAME[@seed]]... [--out DIR]
                     [--trace-out PATH] [--metrics] [--force]

  --app NAME        benchmark to deploy (default: tire)
  --devices N       fleet size (default: 200000)
  --runs N          program runs per device (default: 5; together the
                    defaults are a 1M device-run sweep)
  --seed N          seed-range start; device i is seeded N+i (default: 1)
  --jobs N          worker threads (default: all cores)
  --backend B       execution engine (default: compiled; interp is the
                    per-cell oracle and produces identical aggregates)
  --scenario S      add one scenario to the distribution (repeatable;
                    default: the whole scenario registry)
  --out DIR         artifact directory for fleet.json (default:
                    target/bench-results); `ocelotc bench fleet --replay`
                    re-renders it
  --trace-out P     record pipeline/pool/fleet spans and write them to P
                    as Chrome trace_event JSON (load in Perfetto or
                    chrome://tracing); never touches the artifact
  --metrics         count runtime/pool telemetry metrics and print the
                    sorted snapshot after the table; never touches the
                    artifact
  --force           sweep even when the static lint pre-flight proves
                    the app infeasible under the scenario distribution
                    (see docs/lint.md; by default the sweep refuses)
";

fn parse_fleet_args(args: &[String]) -> Result<FleetArgs, String> {
    let mut out = FleetArgs::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--app" => out.app = it.next().ok_or("--app needs a name")?.clone(),
            "--devices" => {
                let v = it.next().ok_or("--devices needs a value")?;
                out.devices = v
                    .parse()
                    .map_err(|_| format!("bad --devices value `{v}`"))?;
                if out.devices == 0 {
                    return Err("--devices must be at least 1".into());
                }
            }
            "--runs" => {
                let v = it.next().ok_or("--runs needs a value")?;
                out.runs = v.parse().map_err(|_| format!("bad --runs value `{v}`"))?;
                if out.runs == 0 {
                    return Err("--runs must be at least 1".into());
                }
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                out.seed = v.parse().map_err(|_| format!("bad --seed value `{v}`"))?;
            }
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a value")?;
                out.jobs = v.parse().map_err(|_| format!("bad --jobs value `{v}`"))?;
                if out.jobs == 0 {
                    return Err("--jobs must be at least 1".into());
                }
            }
            "--backend" => {
                let v = it.next().ok_or("--backend needs `interp` or `compiled`")?;
                out.backend = ExecBackend::parse(v)
                    .ok_or_else(|| format!("bad --backend value `{v}` (interp|compiled)"))?;
            }
            "--scenario" => out
                .scenarios
                .push(it.next().ok_or("--scenario needs a name")?.clone()),
            "--out" => out.out = PathBuf::from(it.next().ok_or("--out needs a directory")?),
            "--trace-out" => {
                out.trace_out = Some(PathBuf::from(it.next().ok_or("--trace-out needs a path")?));
            }
            "--metrics" => out.metrics = true,
            "--force" => out.force = true,
            "--help" | "-h" => out.help = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(out)
}

/// The artifact a fleet sweep persists: the `fleet` driver's schema, so
/// `ocelotc bench fleet --replay` re-renders it from disk.
pub fn fleet_artifact(spec: &FleetSpec, aggs: &[FleetAggregate]) -> Artifact {
    let mut a = Artifact::new(
        "fleet",
        vec![
            ("bench".into(), Json::str(&spec.bench)),
            ("model".into(), Json::str(spec.model.name())),
            ("devices".into(), Json::u64(spec.devices)),
            ("seed".into(), Json::u64(spec.seed0)),
            ("runs_per_device".into(), Json::u64(spec.runs)),
            (
                "scenarios".into(),
                Json::Arr(spec.scenarios.iter().map(|s| Json::str(s)).collect()),
            ),
            ("backend".into(), Json::str(spec.backend.name())),
        ],
    );
    for agg in aggs {
        a.cells.push(agg.to_cell());
    }
    a
}

/// `ocelotc fleet` entry point: run the sweep, then persist and render
/// the `fleet` artifact.
pub fn fleet_main(args: &[String]) -> ExitCode {
    let parsed = match parse_fleet_args(args) {
        Ok(p) => p,
        Err(msg) => {
            eprintln!("error: {msg}\n\n{FLEET_USAGE}");
            return ExitCode::from(2);
        }
    };
    if parsed.help {
        print!("{FLEET_USAGE}");
        return ExitCode::SUCCESS;
    }
    if ocelot_apps::by_name(&parsed.app).is_none() {
        let names: Vec<&str> = ocelot_apps::all_with_extensions()
            .iter()
            .map(|b| b.name)
            .collect();
        eprintln!(
            "error: unknown app `{}` (known: {})",
            parsed.app,
            names.join(", ")
        );
        return ExitCode::from(2);
    }
    let scenarios = if parsed.scenarios.is_empty() {
        ocelot_scenario::all()
            .iter()
            .map(|s| s.name.to_string())
            .collect()
    } else {
        parsed.scenarios.clone()
    };
    for s in &scenarios {
        if let Err(e) = ocelot_scenario::parse(s) {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    }
    if let Err(msg) = lint_preflight(&parsed.app, &scenarios) {
        eprintln!("{msg}");
        if parsed.force {
            eprintln!("fleet: --force: sweeping despite lint errors");
        } else {
            return ExitCode::FAILURE;
        }
    }
    let spec = FleetSpec {
        bench: parsed.app.clone(),
        model: ExecModel::Ocelot,
        scenarios,
        devices: parsed.devices,
        seed0: parsed.seed,
        runs: parsed.runs,
        backend: parsed.backend,
        opt: OptLevel::O2,
    };
    eprintln!(
        "fleet: {} device-runs of `{}` across {} scenario(s) on {} worker(s), {} backend",
        spec.device_runs(),
        spec.bench,
        spec.scenarios.len(),
        parsed.jobs,
        spec.backend.name()
    );
    ocelot_telemetry::set_tracing(parsed.trace_out.is_some());
    ocelot_telemetry::set_metrics(parsed.metrics);
    let start = Instant::now();
    let aggs = run_fleet(
        &spec,
        FleetOpts {
            jobs: parsed.jobs,
            share_core: true,
        },
    );
    let elapsed_ms = start.elapsed().as_millis() as u64;
    let artifact = fleet_artifact(&spec, &aggs);
    match artifact.save(&parsed.out) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("error: cannot persist artifact: {e}");
            return ExitCode::FAILURE;
        }
    }
    match render_aggregates(&artifact) {
        Ok(text) => print!("{text}"),
        Err(e) => {
            eprintln!("error: cannot render artifact: {e}");
            return ExitCode::FAILURE;
        }
    }
    eprintln!(
        "fleet: {} device-runs in {:.1} s ({:.0} device-runs/s)",
        spec.device_runs(),
        elapsed_ms as f64 / 1000.0,
        if elapsed_ms == 0 {
            0.0
        } else {
            spec.device_runs() as f64 * 1000.0 / elapsed_ms as f64
        }
    );
    if let Err(e) = ocelot_telemetry::emit(parsed.trace_out.as_deref(), parsed.metrics) {
        eprintln!("error: cannot write trace: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Renders the per-scenario fleet table from an artifact's aggregates —
/// shared by the `fleet` driver's `render` and `ocelotc fleet`.
pub(crate) fn render_aggregates(a: &Artifact) -> Result<String, ArtifactError> {
    let bench = a
        .config_get("bench")
        .and_then(Json::as_str)
        .ok_or_else(|| ArtifactError::Schema("config `bench` missing".into()))?;
    let devices = a.config_u64("devices")?;
    let runs = a.config_u64("runs_per_device")?;
    let mut t = Table::new(&[
        "Scenario",
        "devices",
        "runs done",
        "viol",
        "reboots p50",
        "p90",
        "p99",
        "fresh p99",
        "charge ms/dev",
    ]);
    let mut total_devices = 0u64;
    let mut total_viol = 0u64;
    for cell in &a.cells {
        let agg = FleetAggregate::from_cell(cell)?;
        total_devices += agg.devices;
        total_viol += agg.stats.violations;
        let charge_ms = if agg.devices == 0 {
            0.0
        } else {
            agg.stats.off_time_us as f64 / 1000.0 / agg.devices as f64
        };
        t.row(vec![
            agg.scenario.clone(),
            agg.devices.to_string(),
            agg.stats.runs_completed.to_string(),
            agg.stats.violations.to_string(),
            format!("≤{}", agg.reboots_hist.percentile(50.0)),
            format!("≤{}", agg.reboots_hist.percentile(90.0)),
            format!("≤{}", agg.reboots_hist.percentile(99.0)),
            format!("≤{}", agg.fresh_hist.percentile(99.0)),
            format!("{charge_ms:.1}"),
        ]);
    }
    Ok(format!(
        "Fleet sweep: {devices} device(s) × {runs} run(s) of `{bench}` across the scenario \
         distribution\n{}\
         Reading guide: each row folds its devices' stats exactly (the per-cell\n\
         interpreter path is the oracle); percentile columns are log2-bucket upper\n\
         bounds of the per-device reboot and freshness-failure distributions\n\
         (total: {total_devices} devices, {total_viol} violations).\n",
        t.render()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_core_is_shareable_across_workers() {
        // The whole fleet design rests on one read-only core (and the
        // compiled program inside it) being safely shared by reference
        // across pool threads — assert it at the type level so a
        // non-Sync field can never sneak in.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MachineCore<'static>>();
        assert_send_sync::<Arc<MachineCore<'static>>>();
    }

    #[test]
    fn histogram_buckets_follow_log2_ranges() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        assert_eq!(Histogram::bucket_max(0), 0);
        assert_eq!(Histogram::bucket_max(1), 1);
        assert_eq!(Histogram::bucket_max(2), 3);
        assert_eq!(Histogram::bucket_max(64), u64::MAX);
        for v in [0u64, 1, 2, 3, 7, 8, 1 << 40, u64::MAX] {
            let b = Histogram::bucket_of(v);
            assert!(v <= Histogram::bucket_max(b), "{v} fits its bucket");
            if b > 0 {
                assert!(v > Histogram::bucket_max(b - 1), "{v} above the previous");
            }
        }
    }

    #[test]
    fn histogram_bucket_edges_are_exact_at_every_power_of_two() {
        // Every bucket boundary: 2^(b-1) opens bucket b, 2^b - 1 closes
        // it, and bucket_max names exactly that closing value.
        for b in 1..=63usize {
            let lo = 1u64 << (b - 1);
            let hi = (1u64 << b) - 1;
            assert_eq!(Histogram::bucket_of(lo), b, "2^{} opens bucket {b}", b - 1);
            assert_eq!(Histogram::bucket_of(hi), b, "2^{b} - 1 closes bucket {b}");
            assert_eq!(Histogram::bucket_max(b), hi);
            if hi < u64::MAX {
                assert_eq!(Histogram::bucket_of(hi + 1), b + 1);
            }
        }
        // The top bucket holds [2^63, u64::MAX] and reports MAX as its
        // ceiling — as does any out-of-range index asked of bucket_max.
        assert_eq!(Histogram::bucket_of(1u64 << 63), 64);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        assert_eq!(Histogram::bucket_max(64), u64::MAX);
        assert_eq!(Histogram::bucket_max(65), u64::MAX);
        assert_eq!(Histogram::bucket_max(HIST_BUCKETS), u64::MAX);
    }

    #[test]
    fn histogram_merge_and_record_saturate_instead_of_wrapping() {
        // Build a histogram whose zero-bucket already sits at the
        // ceiling (via the JSON inverse — recording MAX devices one by
        // one is not an option).
        let mut full = vec![Json::u64(0); HIST_BUCKETS];
        full[0] = Json::u64(u64::MAX);
        let mut h = Histogram::from_json(&Json::Arr(full)).unwrap();
        // One more device in the same bucket pins, not wraps.
        h.record(0);
        assert_eq!(h.buckets()[0], u64::MAX);
        // Merging another saturated histogram pins too.
        let other = h.clone();
        h.merge(&other);
        assert_eq!(h.buckets()[0], u64::MAX);
        // Untouched buckets merge exactly.
        let mut a = Histogram::default();
        a.record(5);
        h.merge(&a);
        assert_eq!(h.buckets()[Histogram::bucket_of(5)], 1);
    }

    #[test]
    fn histogram_merge_equals_pooled_recording() {
        let values = [0u64, 0, 1, 3, 3, 9, 130, 7, 64];
        let mut pooled = Histogram::default();
        for v in values {
            pooled.record(v);
        }
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        for (i, v) in values.into_iter().enumerate() {
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
        }
        a.merge(&b);
        assert_eq!(a, pooled);
        assert_eq!(pooled.total(), values.len() as u64);
    }

    #[test]
    fn histogram_percentiles_bound_the_tail() {
        let mut h = Histogram::default();
        for _ in 0..90 {
            h.record(0);
        }
        for _ in 0..9 {
            h.record(5); // bucket 3, max 7
        }
        h.record(1000); // bucket 10, max 1023
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.percentile(95.0), 7);
        assert_eq!(h.percentile(100.0), 1023);
        assert_eq!(Histogram::default().percentile(99.0), 0);
    }

    #[test]
    fn histogram_json_round_trips_and_rejects_drift() {
        let mut h = Histogram::default();
        h.record(0);
        h.record(77);
        assert_eq!(Histogram::from_json(&h.to_json()).unwrap(), h);
        assert!(Histogram::from_json(&Json::Null).is_err());
        assert!(Histogram::from_json(&Json::Arr(vec![Json::u64(1)])).is_err());
        let mut bad = h.to_json();
        if let Json::Arr(arr) = &mut bad {
            arr[3] = Json::str("x");
        }
        assert!(Histogram::from_json(&bad).is_err());
    }

    #[test]
    fn aggregate_record_and_merge_agree() {
        let mk = |reboots, fresh| Stats {
            reboots,
            fresh_violations: fresh,
            on_cycles: 100 + reboots,
            runs_completed: 1,
            breakdown: ocelot_runtime::stats::Breakdown {
                compute: 10,
                ..Default::default()
            },
            ..Default::default()
        };
        let devices = [mk(0, 0), mk(3, 1), mk(9, 0), mk(1, 4)];
        let mut whole = FleetAggregate::new("rf-lab");
        for d in &devices {
            whole.record(d);
        }
        let mut left = FleetAggregate::new("rf-lab");
        let mut right = FleetAggregate::new("rf-lab");
        for (i, d) in devices.iter().enumerate() {
            if i < 2 {
                left.record(d);
            } else {
                right.record(d);
            }
        }
        left.merge(&right);
        assert_eq!(left, whole);
        assert_eq!(whole.devices, 4);
        assert_eq!(whole.stats.reboots, 13);
        assert_eq!(whole.stats.breakdown.compute, 40);
        // Cell round-trip is exact and strict.
        assert_eq!(FleetAggregate::from_cell(&whole.to_cell()).unwrap(), whole);
        assert!(FleetAggregate::from_cell(&Json::obj(vec![])).is_err());
    }

    #[test]
    fn device_spec_maps_indices_round_robin() {
        let spec = FleetSpec {
            bench: "tire".into(),
            model: ExecModel::Ocelot,
            scenarios: vec!["rf-lab".into(), "brownout".into()],
            devices: 5,
            seed0: 100,
            runs: 2,
            backend: ExecBackend::Compiled,
            opt: OptLevel::O2,
        };
        let c0 = spec.device_spec(0);
        let c3 = spec.device_spec(3);
        assert_eq!(c0.scenario.as_deref(), Some("rf-lab"));
        assert_eq!(c0.seed, 100);
        assert_eq!(c3.scenario.as_deref(), Some("brownout"));
        assert_eq!(c3.seed, 103);
        assert_eq!(c3.workload, Workload::Harvested { runs: 2 });
        assert_eq!(c3.backend, ExecBackend::Compiled);
        assert_eq!(spec.device_runs(), 10);
    }

    #[test]
    fn fleet_args_parse_and_reject() {
        let strings = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let d = parse_fleet_args(&[]).unwrap();
        assert_eq!(d.app, "tire");
        assert_eq!(d.devices, DEFAULT_FLEET_DEVICES);
        assert_eq!(d.runs, DEFAULT_FLEET_RUNS);
        assert_eq!(d.devices * d.runs, 1_000_000, "acceptance-scale default");
        assert_eq!(d.backend, ExecBackend::Compiled);
        let a = parse_fleet_args(&strings(&[
            "--app",
            "fusion",
            "--devices",
            "500",
            "--runs",
            "2",
            "--seed",
            "9",
            "--jobs",
            "3",
            "--backend",
            "interp",
            "--scenario",
            "rf-lab",
            "--scenario",
            "brownout@7",
        ]))
        .unwrap();
        assert_eq!(a.app, "fusion");
        assert_eq!(a.devices, 500);
        assert_eq!(a.runs, 2);
        assert_eq!(a.seed, 9);
        assert_eq!(a.jobs, 3);
        assert_eq!(a.backend, ExecBackend::Interp);
        assert_eq!(a.scenarios, vec!["rf-lab", "brownout@7"]);
        for bad in [
            vec!["--devices", "0"],
            vec!["--devices"],
            vec!["--runs", "0"],
            vec!["--jobs", "0"],
            vec!["--backend", "jit"],
            vec!["--opt", "2"],
            vec!["--frobnicate"],
            vec!["--fingerprint", "fp.json"],
            vec!["--no-fingerprint"],
            vec!["--overhead-check"],
            vec!["--overhead-limit", "5"],
        ] {
            assert!(parse_fleet_args(&strings(&bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn lint_preflight_clears_shipped_apps_across_the_registry() {
        // The shipped benchmarks must never be refused by their own
        // pre-flight: the whole registry's harvested capacities are
        // ample for every Table-1 app.
        let scenarios: Vec<String> = ocelot_scenario::all()
            .iter()
            .map(|s| s.name.to_string())
            .collect();
        for b in ocelot_apps::all_with_extensions() {
            assert_eq!(
                lint_preflight(b.name, &scenarios),
                Ok(()),
                "`{}` refused by its own pre-flight",
                b.name
            );
        }
        // An unknown app is fleet_main's problem, not the linter's.
        assert_eq!(lint_preflight("no-such-app", &scenarios), Ok(()));
    }

    #[test]
    fn force_flag_parses_and_defaults_off() {
        let none = parse_fleet_args(&[]).unwrap();
        assert!(!none.force);
        let forced = parse_fleet_args(&["--force".to_string()]).unwrap();
        assert!(forced.force);
    }
}
