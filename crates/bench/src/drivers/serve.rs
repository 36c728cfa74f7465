//! Extension — the `serve` driver: incremental re-verification latency
//! over a recorded edit-trace workload.
//!
//! Replays a deterministic stream of one-line single-function edits
//! (see [`ocelot_serve::verify`]) through an incremental verification
//! [`Session`], timing each incremental re-verify against a
//! from-scratch verify of the same source, and persists the per-edit
//! measurements as a standard versioned artifact. `render`
//! reports p50/p99 latencies and cache reuse purely from the artifact
//! (`--replay` works as for every driver). Like the fleet throughput
//! fingerprint, the recorded wall times are machine-dependent data:
//! this artifact is excluded from byte-identity comparisons, and the
//! verdict hashes inside it are the machine-independent part.

use super::{cell_u64, Driver, DriverOpts};
use crate::artifact::{Artifact, ArtifactError};
use ocelot_analysis::incremental::IncrementalStats;
use ocelot_serve::verify::{
    edit_targets, edited_source, full_verify, workload_source, EditTrace, Session, Verdict,
};
use ocelot_telemetry::json::Json;
use ocelot_telemetry::percentile;

/// The edit-trace latency driver.
pub static SERVE: Driver = Driver {
    name: "serve",
    about: "extension: incremental re-verification latency over a recorded edit trace",
    collect,
    render,
    collect_traced: None,
};

/// The driver-default workload shape.
pub const DEFAULT_TRACE: EditTrace = EditTrace {
    funcs: 36,
    edits: 24,
    seed: 11,
};

/// One measured edit replay: what changed, how much analysis the cache
/// saved, the verdict hash, and the incremental vs full wall times.
#[derive(Debug, Clone)]
pub struct EditMeasurement {
    /// 1-based edit index.
    pub edit: usize,
    /// Worker index the edit touched.
    pub target: usize,
    /// Cache statistics for the incremental pass.
    pub stats: IncrementalStats,
    /// The incremental verdict (always equal to the full one).
    pub verdict: Verdict,
    /// Incremental re-verification wall time.
    pub incr_ns: u64,
    /// From-scratch re-verification wall time.
    pub full_ns: u64,
}

/// Replays `trace` through a fresh [`Session`], measuring each edit's
/// incremental re-verify against a from-scratch verify and asserting
/// verdict equality along the way.
///
/// # Panics
///
/// Panics if any generated program fails to verify or an incremental
/// verdict ever diverges from the from-scratch one — either is a bug,
/// not a measurement.
pub fn replay_trace(trace: &EditTrace) -> Vec<EditMeasurement> {
    let mut session = Session::new();
    let base = workload_source(trace);
    session.verify(&base).expect("base program verifies");
    let targets = edit_targets(trace);
    let mut out = Vec::with_capacity(trace.edits);
    for n in 1..=trace.edits {
        let src = edited_source(trace, n);
        let t0 = std::time::Instant::now();
        let (_, verdict, stats) = session.verify(&src).expect("edited program verifies");
        let incr_ns = t0.elapsed().as_nanos() as u64;
        let t1 = std::time::Instant::now();
        let (_, full) = full_verify(&src).expect("full verify");
        let full_ns = t1.elapsed().as_nanos() as u64;
        assert_eq!(verdict, full, "incremental verdict diverged at edit {n}");
        out.push(EditMeasurement {
            edit: n,
            target: targets[n - 1],
            stats,
            verdict,
            incr_ns,
            full_ns,
        });
    }
    out
}

/// The trace this driver replays: the default workload shape with
/// `--runs` scaling the edit count and `--seed` reseeding the trace.
fn plan(opts: &DriverOpts) -> EditTrace {
    EditTrace {
        funcs: DEFAULT_TRACE.funcs,
        edits: opts.runs_or(DEFAULT_TRACE.edits as u64) as usize,
        seed: opts.seed_or(DEFAULT_TRACE.seed),
    }
}

fn collect(opts: &DriverOpts) -> Artifact {
    collect_trace(&plan(opts))
}

fn collect_trace(trace: &EditTrace) -> Artifact {
    let measurements = replay_trace(trace);
    let mut a = Artifact::new(
        "serve",
        vec![
            ("funcs".into(), Json::u64(trace.funcs as u64)),
            ("edits".into(), Json::u64(trace.edits as u64)),
            ("seed".into(), Json::u64(trace.seed)),
        ],
    );
    for m in &measurements {
        a.cells.push(Json::obj(vec![
            ("edit", Json::u64(m.edit as u64)),
            ("target", Json::u64(m.target as u64)),
            ("funcs", Json::u64(m.stats.funcs as u64)),
            ("analyzed", Json::u64(m.stats.analyzed as u64)),
            ("reused", Json::u64(m.stats.reused as u64)),
            ("verdict", m.verdict.to_json()),
            ("incr_ns", Json::u64(m.incr_ns)),
            ("full_ns", Json::u64(m.full_ns)),
        ]));
    }
    a
}

/// Sorted samples of one latency column.
fn column(a: &Artifact, key: &str) -> Result<Vec<u64>, ArtifactError> {
    let mut xs = a
        .cells
        .iter()
        .map(|c| cell_u64(c, key))
        .collect::<Result<Vec<_>, _>>()?;
    if xs.is_empty() {
        return Err(ArtifactError::Schema("serve artifact has no cells".into()));
    }
    xs.sort_unstable();
    Ok(xs)
}

fn render(a: &Artifact) -> Result<String, ArtifactError> {
    let incr = column(a, "incr_ns")?;
    let full = column(a, "full_ns")?;
    let p = |xs: &[u64], q: f64| percentile(xs, q) as f64 / 1.0e6;
    let mut out = String::new();
    out.push_str("Incremental re-verification latency (recorded edit trace)\n");
    out.push_str(&format!(
        "workload: {} functions, {} one-line single-function edits, seed {}\n\n",
        a.config_u64("funcs")?,
        a.config_u64("edits")?,
        a.config_u64("seed")?,
    ));
    out.push_str("              p50 (ms)   p99 (ms)\n");
    out.push_str(&format!(
        "incremental   {:>8.3}   {:>8.3}\n",
        p(&incr, 50.0),
        p(&incr, 99.0)
    ));
    out.push_str(&format!(
        "full          {:>8.3}   {:>8.3}\n",
        p(&full, 50.0),
        p(&full, 99.0)
    ));
    out.push('\n');
    let mut analyzed = 0u64;
    let mut reused = 0u64;
    for c in &a.cells {
        analyzed += cell_u64(c, "analyzed")?;
        reused += cell_u64(c, "reused")?;
        let v = c
            .get("verdict")
            .and_then(Verdict::from_json)
            .ok_or_else(|| ArtifactError::Schema("cell verdict missing or malformed".into()))?;
        if !v.passes {
            return Err(ArtifactError::Schema(format!(
                "edit {} recorded a failing verdict",
                cell_u64(c, "edit")?
            )));
        }
    }
    out.push_str(&format!(
        "functions re-analyzed: {analyzed} of {} ({reused} reused from cache)\n",
        analyzed + reused
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocelot_runtime::ExecBackend;

    #[test]
    fn plan_scales_edits_and_reseeds() {
        let opts = DriverOpts {
            jobs: 1,
            runs: Some(5),
            seed: Some(4),
            backend: ExecBackend::Interp,
        };
        let t = plan(&opts);
        assert_eq!(t.funcs, DEFAULT_TRACE.funcs);
        assert_eq!(t.edits, 5);
        assert_eq!(t.seed, 4);
        let defaults = DriverOpts {
            runs: None,
            seed: None,
            ..opts
        };
        assert_eq!(plan(&defaults).edits, DEFAULT_TRACE.edits);
        assert_eq!(plan(&defaults).seed, DEFAULT_TRACE.seed);
    }

    #[test]
    fn collect_records_one_cell_per_edit_and_replays() {
        // A scaled-down trace: the full DEFAULT_TRACE workload is sized
        // for release-mode latency measurement, not for unit tests.
        let a = collect_trace(&EditTrace {
            funcs: 6,
            edits: 5,
            seed: 4,
        });
        assert_eq!(a.driver, "serve");
        assert_eq!(a.cells.len(), 5);
        for c in &a.cells {
            // Each edit changes one constant: nothing is re-analyzed.
            assert_eq!(cell_u64(c, "analyzed").unwrap(), 0);
            let v = Verdict::from_json(c.get("verdict").unwrap()).unwrap();
            assert!(v.passes);
        }
        // The --replay path: render from a round-tripped artifact.
        let reloaded = Artifact::from_text(&a.render().unwrap()).unwrap();
        let text = render(&reloaded).unwrap();
        assert!(text.contains("p50"), "{text}");
        assert!(text.contains("functions re-analyzed"), "{text}");
    }

    #[test]
    fn render_rejects_malformed_cells() {
        let mut a = Artifact::new("serve", vec![("funcs".into(), Json::u64(1))]);
        a.cells.push(Json::obj(vec![("edit", Json::u64(1))]));
        assert!(render(&a).is_err());
        let empty = Artifact::new("serve", vec![]);
        assert!(render(&empty).is_err(), "no cells is a schema error");
    }
}
