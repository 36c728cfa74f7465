//! The flag surface shared by every driver binary and by
//! `ocelotc bench`.
//!
//! ```text
//! <driver> [--jobs N] [--out DIR] [--runs N] [--seed N]
//!          [--backend interp|compiled] [--traces] [--replay]
//! ```
//!
//! Default flow: `collect` the sweep on `--jobs` workers, persist the
//! artifact to `<out>/<driver>.json`, then render the table/figure from
//! the artifact. With `--replay`, skip collection entirely and render
//! whatever is on disk — the persisted JSON is the single source of
//! truth either way. `--traces` additionally persists the raw per-cell
//! observation logs to `<out>/<driver>_traces.json` (same versioned
//! envelope; summary appended to the rendered output), and composes
//! with `--replay` to re-summarize the persisted traces without
//! re-simulating.

use crate::artifact::Artifact;
use crate::drivers::{self, Driver, DriverOpts};
use ocelot_runtime::pool;
use ocelot_runtime::ExecBackend;
use ocelot_telemetry::json::Json;
use std::path::PathBuf;
use std::process::ExitCode;

/// Directory artifacts land in when `--out` is not given.
pub(crate) const DEFAULT_OUT_DIR: &str = "target/bench-results";

/// Parsed driver flags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchArgs {
    /// Worker threads (`--jobs`, default: available parallelism).
    pub(crate) jobs: usize,
    /// Artifact directory (`--out`, default `DEFAULT_OUT_DIR`).
    pub(crate) out: PathBuf,
    /// Render from the persisted artifact instead of simulating.
    pub(crate) replay: bool,
    /// Scale override (`--runs`; seconds for duration-based drivers).
    pub(crate) runs: Option<u64>,
    /// Seed override (`--seed`).
    pub(crate) seed: Option<u64>,
    /// Execution backend for simulated cells (`--backend`, default
    /// `interp`).
    pub backend: ExecBackend,
    /// Persist (or, with `--replay`, re-render) raw observation traces.
    pub(crate) traces: bool,
    /// Record telemetry spans and write a Chrome `trace_event` JSON
    /// file here (`--trace-out`). Never touches the artifact.
    pub(crate) trace_out: Option<PathBuf>,
    /// Count telemetry metrics and print the sorted snapshot after the
    /// rendered output (`--metrics`). Never touches the artifact.
    pub(crate) metrics: bool,
    /// Collect even when the static lint pre-flight proves the driver's
    /// program infeasible under its scenario distribution (`--force`;
    /// fleet driver only — other drivers have no pre-flight).
    pub(crate) force: bool,
    /// `--help` was requested.
    pub(crate) help: bool,
    /// Which simulation-shaping flags were passed explicitly — replay
    /// cross-checks these against the artifact's recorded config instead
    /// of silently ignoring them.
    pub given: GivenFlags,
}

/// Tracks which simulation-shaping flags appeared on the command line
/// (as opposed to taking their defaults). `--replay` renders recorded
/// results without simulating, so an explicitly-passed flag either has
/// to agree with what the artifact records or is an error — never a
/// silent override.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GivenFlags {
    /// `--jobs` appeared.
    pub jobs: bool,
    /// `--runs` appeared.
    pub runs: bool,
    /// `--seed` appeared.
    pub seed: bool,
    /// `--backend` appeared.
    pub backend: bool,
}

impl Default for BenchArgs {
    fn default() -> Self {
        BenchArgs {
            jobs: pool::default_jobs(),
            out: PathBuf::from(DEFAULT_OUT_DIR),
            replay: false,
            runs: None,
            seed: None,
            backend: ExecBackend::Interp,
            traces: false,
            trace_out: None,
            metrics: false,
            force: false,
            help: false,
            given: GivenFlags::default(),
        }
    }
}

impl BenchArgs {
    /// Parses the flags (any order, all optional).
    ///
    /// # Errors
    ///
    /// A usage message naming the offending flag or value.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<BenchArgs, String> {
        let mut out = BenchArgs::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--jobs" => {
                    let v = it.next().ok_or("--jobs needs a value")?;
                    let n: usize = v.parse().map_err(|_| format!("bad --jobs value `{v}`"))?;
                    if n == 0 {
                        return Err("--jobs must be at least 1".into());
                    }
                    out.jobs = n;
                    out.given.jobs = true;
                }
                "--out" => {
                    out.out = PathBuf::from(it.next().ok_or("--out needs a directory")?);
                }
                "--runs" => {
                    let v = it.next().ok_or("--runs needs a value")?;
                    let n: u64 = v.parse().map_err(|_| format!("bad --runs value `{v}`"))?;
                    if n == 0 {
                        return Err("--runs must be at least 1".into());
                    }
                    out.runs = Some(n);
                    out.given.runs = true;
                }
                "--seed" => {
                    let v = it.next().ok_or("--seed needs a value")?;
                    out.seed = Some(v.parse().map_err(|_| format!("bad --seed value `{v}`"))?);
                    out.given.seed = true;
                }
                "--backend" => {
                    let v = it.next().ok_or("--backend needs `interp` or `compiled`")?;
                    out.backend = ExecBackend::parse(&v)
                        .ok_or_else(|| format!("bad --backend value `{v}` (interp|compiled)"))?;
                    out.given.backend = true;
                }
                "--traces" => out.traces = true,
                "--trace-out" => {
                    out.trace_out =
                        Some(PathBuf::from(it.next().ok_or("--trace-out needs a path")?));
                }
                "--metrics" => out.metrics = true,
                "--force" => out.force = true,
                "--replay" => out.replay = true,
                "--help" | "-h" => out.help = true,
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        Ok(out)
    }
}

fn usage(d: &Driver) -> String {
    format!(
        "{} — {}\n\n\
         usage: {} [--jobs N] [--out DIR] [--runs N] [--seed N]\n\
                     [--backend interp|compiled]\n\
                     [--traces] [--replay] [--trace-out PATH] [--metrics]\n\
                     [--force]\n\n\
         --jobs N    worker threads for the sweep (default: all cores)\n\
         --out DIR   artifact directory (default: {DEFAULT_OUT_DIR})\n\
         --runs N    scale override: run count, or simulated seconds for\n\
                     duration-based drivers (default: paper scale; ignored\n\
                     by drivers with no run dimension, e.g. static tables\n\
                     and the fixed samoyed_scaling capacity sweep)\n\
         --seed N    seed override (default: the paper sweep's fixed seed;\n\
                     ignored by drivers that simulate nothing seeded)\n\
         --backend B execution engine for simulated cells: `interp`\n\
                     (default) or `compiled`; results are identical, the\n\
                     compiled engine is faster, and the artifact records\n\
                     which one produced it\n\
         --traces    also persist raw per-cell observation logs to\n\
                     <out>/{}_traces.json (uniform cell sweeps only) and\n\
                     append their summary; with --replay, re-render the\n\
                     persisted traces instead of re-simulating\n\
         --replay    render from <out>/{}.json without re-simulating\n\
         --trace-out P  record pipeline/pool telemetry spans and write them\n\
                     to P as Chrome trace_event JSON (Perfetto-loadable);\n\
                     never touches the artifact\n\
         --metrics   count telemetry metrics and print the sorted snapshot\n\
                     after the rendered output; never touches the artifact\n\
         --force     collect even when the static lint pre-flight proves\n\
                     the program infeasible under the scenario distribution\n\
                     (fleet driver only; see docs/lint.md)\n",
        d.name, d.about, d.name, d.name, d.name
    )
}

/// Cross-checks explicitly-passed simulation flags against a replayed
/// artifact's recorded config. Replay renders recorded results without
/// simulating, so a flag that conflicts with the recording (or that the
/// artifact deliberately does not record, like `--jobs`)
/// is a hard error with a one-line diagnostic naming the file — never
/// a silent override of what is on disk.
///
/// # Errors
///
/// The diagnostic line, ready for `error:` prefixing.
pub fn replay_flag_conflicts(
    parsed: &BenchArgs,
    artifact: &Artifact,
    path: &std::path::Path,
) -> Result<(), String> {
    let path = path.display();
    if parsed.given.backend {
        match artifact.config_get("backend").and_then(Json::as_str) {
            Some(recorded) if recorded != parsed.backend.name() => {
                return Err(format!(
                    "replay of {path}: artifact records backend={recorded} but \
                     --backend {} was given",
                    parsed.backend.name()
                ));
            }
            Some(_) => {}
            None => {
                return Err(format!(
                    "replay of {path}: --backend was given but the artifact does \
                     not record a backend (drop the flag; replay re-renders \
                     recorded results)"
                ));
            }
        }
    }
    if parsed.given.jobs {
        return Err(format!(
            "replay of {path}: --jobs has no effect on replay (nothing is \
             simulated; drop the flag)"
        ));
    }
    for (flag, given, value) in [
        ("--runs", parsed.given.runs, parsed.runs),
        ("--seed", parsed.given.seed, parsed.seed),
    ] {
        if !given {
            continue;
        }
        let value = value.expect("explicit flag carries a value");
        match artifact
            .config_get(flag.trim_start_matches("--"))
            .and_then(Json::as_u64)
        {
            Some(recorded) if recorded != value => {
                return Err(format!(
                    "replay of {path}: artifact records {}={recorded} but \
                     {flag} {value} was given",
                    flag.trim_start_matches("--")
                ));
            }
            Some(_) => {}
            None => {
                return Err(format!(
                    "replay of {path}: {flag} was given but the artifact does \
                     not record one (drop the flag; replay re-renders recorded \
                     results)"
                ));
            }
        }
    }
    Ok(())
}

/// Runs one driver with the given (already split) flag list: the
/// engine behind `ocelotc bench <driver>`.
pub fn run_driver(driver_name: &str, args: impl IntoIterator<Item = String>) -> ExitCode {
    let Some(d) = drivers::by_name(driver_name) else {
        eprintln!("error: unknown driver `{driver_name}`");
        return ExitCode::from(2);
    };
    let parsed = match BenchArgs::parse(args) {
        Ok(p) => p,
        Err(msg) => {
            eprintln!("error: {msg}\n\n{}", usage(d));
            return ExitCode::from(2);
        }
    };
    if parsed.help {
        print!("{}", usage(d));
        return ExitCode::SUCCESS;
    }
    ocelot_telemetry::set_tracing(parsed.trace_out.is_some());
    ocelot_telemetry::set_metrics(parsed.metrics);
    if parsed.traces && !parsed.replay && d.collect_traced.is_none() {
        eprintln!(
            "error: driver `{}` does not support --traces (its cells are \
             bespoke per-bench jobs, not a uniform sweep)",
            d.name
        );
        return ExitCode::from(2);
    }
    let traces_name = crate::traces::traces_driver_name(d.name);
    let (artifact, trace_artifact) = if parsed.replay {
        let a = match Artifact::load(&parsed.out, d.name) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("error: cannot replay: {e}");
                return ExitCode::FAILURE;
            }
        };
        let path = Artifact::path_in(&parsed.out, d.name);
        if let Err(msg) = replay_flag_conflicts(&parsed, &a, &path) {
            eprintln!("error: {msg}");
            return ExitCode::from(2);
        }
        let t = if parsed.traces {
            match Artifact::load(&parsed.out, &traces_name) {
                Ok(t) => Some(t),
                Err(e) => {
                    eprintln!("error: cannot replay traces: {e}");
                    return ExitCode::FAILURE;
                }
            }
        } else {
            None
        };
        (a, t)
    } else {
        // The fleet driver sweeps a fixed app across the whole scenario
        // registry, so it is the one driver whose program can be proven
        // statically infeasible before spending any simulation time.
        if d.name == "fleet" {
            let scenarios: Vec<String> = ocelot_scenario::all()
                .iter()
                .map(|s| s.name.to_string())
                .collect();
            if let Err(msg) = crate::fleet::lint_preflight("tire", &scenarios) {
                eprintln!("{msg}");
                if parsed.force {
                    eprintln!("fleet: --force: sweeping despite lint errors");
                } else {
                    return ExitCode::FAILURE;
                }
            }
        }
        let opts = DriverOpts {
            jobs: parsed.jobs,
            runs: parsed.runs,
            seed: parsed.seed,
            backend: parsed.backend,
        };
        let (a, t) = match (parsed.traces, d.collect_traced) {
            (true, Some(traced)) => {
                let (a, t) = traced(&opts);
                (a, Some(t))
            }
            _ => ((d.collect)(&opts), None),
        };
        for artifact in std::iter::once(&a).chain(t.as_ref()) {
            match artifact.save(&parsed.out) {
                Ok(path) => eprintln!("wrote {}", path.display()),
                Err(e) => {
                    eprintln!("error: cannot persist artifact: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        (a, t)
    };
    match (d.render)(&artifact) {
        Ok(text) => print!("{text}"),
        Err(e) => {
            eprintln!("error: cannot render artifact: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(t) = trace_artifact {
        match crate::traces::render_traces(&t) {
            Ok(text) => print!("{text}"),
            Err(e) => {
                eprintln!("error: cannot render traces: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Err(e) = ocelot_telemetry::emit(parsed.trace_out.as_deref(), parsed.metrics) {
        eprintln!("error: cannot write trace: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Lists every driver with its description (for `ocelotc bench --list`).
pub fn list_drivers() -> String {
    let mut out = String::new();
    for d in drivers::all() {
        out.push_str(&format!("{:22} {}\n", d.name, d.about));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_and_full_flag_set_parse() {
        let d = BenchArgs::parse(strings(&[])).unwrap();
        assert!(!d.replay);
        assert!(d.jobs >= 1);
        assert_eq!(d.out, PathBuf::from(DEFAULT_OUT_DIR));
        assert_eq!(d.runs, None);

        let a = BenchArgs::parse(strings(&[
            "--jobs",
            "8",
            "--out",
            "/tmp/x",
            "--runs",
            "3",
            "--seed",
            "99",
            "--backend",
            "compiled",
            "--replay",
        ]))
        .unwrap();
        assert_eq!(a.jobs, 8);
        assert_eq!(a.out, PathBuf::from("/tmp/x"));
        assert_eq!(a.runs, Some(3));
        assert_eq!(a.seed, Some(99));
        assert_eq!(a.backend, ExecBackend::Compiled);
        assert!(a.replay);
    }

    #[test]
    fn backend_flag_parses_both_engines_and_rejects_junk() {
        assert_eq!(
            BenchArgs::parse(strings(&[])).unwrap().backend,
            ExecBackend::Interp,
            "interpreter is the default"
        );
        for (flag, want) in [
            ("interp", ExecBackend::Interp),
            ("compiled", ExecBackend::Compiled),
        ] {
            let a = BenchArgs::parse(strings(&["--backend", flag])).unwrap();
            assert_eq!(a.backend, want);
        }
        assert!(BenchArgs::parse(strings(&["--backend"])).is_err());
        assert!(BenchArgs::parse(strings(&["--backend", "jit"])).is_err());
    }

    #[test]
    fn opt_flag_is_rejected() {
        for level in ["0", "2"] {
            let err = BenchArgs::parse(strings(&["--opt", level])).unwrap_err();
            assert!(err.contains("unknown flag `--opt`"), "{err}");
        }
    }

    #[test]
    fn bad_flags_are_rejected_with_messages() {
        for bad in [
            vec!["--jobs"],
            vec!["--jobs", "zero"],
            vec!["--jobs", "0"],
            vec!["--runs", "0"],
            vec!["--runs", "-1"],
            vec!["--seed", "x"],
            vec!["--out"],
            vec!["--frobnicate"],
        ] {
            assert!(BenchArgs::parse(strings(&bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn driver_listing_names_every_driver() {
        let listing = list_drivers();
        for d in drivers::all() {
            assert!(listing.contains(d.name), "{} missing", d.name);
        }
    }
}
