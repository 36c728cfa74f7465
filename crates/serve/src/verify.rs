//! Incremental re-verification sessions and the edit-trace workload
//! that `ocelotc serve --self-test` and the `serve` bench driver replay.
//!
//! A [`Session`] holds one logical *document*: an
//! [`ocelot_analysis::incremental::FlowCache`] of per-function taint
//! flows keyed by function-body fingerprints, taken modulo literal
//! values. Each [`Session::verify`] call compiles the submitted source,
//! reuses every flow whose fingerprint is unchanged, recomputes the
//! rest (an edited function and its callers; none after an edit that
//! only changes constants), and runs the full
//! Ocelot transform + self-check on the assembled analysis — producing
//! a [`Verdict`] guaranteed identical to a from-scratch
//! [`full_verify`] (the incremental assembly equals
//! `TaintAnalysis::run` exactly; held by tests here and byte-identity
//! tests in `tests/`). The session keeps that transform output, which
//! the serve `lint` op reuses for the same program.
//!
//! The *edit-trace workload* is a large program of branch-heavy worker
//! functions plus a handful of annotated sensor functions, and a
//! deterministic stream of one-line single-function edits, each
//! rewriting one constant. A constant edit reuses every cached flow, so
//! incremental re-verification beats a from-scratch verify on the
//! harness's reference taint fixpoint by well over 10×.

use ocelot_analysis::incremental::Fnv;
use ocelot_analysis::incremental::{FlowCache, IncrementalStats};
use ocelot_analysis::taint::TaintAnalysis;
use ocelot_core::{ocelot_transform_with, Compiled};
use ocelot_ir::print::write_program;
use ocelot_ir::Program;
use ocelot_telemetry::json::Json;

/// FNV-1a 64 over a program's canonical printed form — the program
/// hash the server keys its caches by, and the hash verdicts embed
/// so byte-identity checks are one integer compare away. The form is
/// hashed as it is printed, never built as a string.
pub fn program_hash(p: &Program) -> u64 {
    let mut h = Fnv::default();
    let _ = write_program(&mut h, p);
    h.finish()
}

/// The outcome of verifying (transforming + self-checking) one program
/// version. Deliberately timing-free: verdicts for the same source must
/// be byte-identical whether they came from a cold compile, a warm
/// cache, or any `--jobs` level — latency lives in the driver artifact,
/// not here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// Hash of the *submitted* program (cache key).
    pub(crate) source_hash: u64,
    /// Hash of the transformed program (regions inserted, annotations
    /// erased) — the byte-identity witness.
    pub transformed_hash: u64,
    /// Functions in the program.
    pub(crate) funcs: usize,
    /// Derived policies (the paper's `PD`).
    pub(crate) policies: usize,
    /// Atomic regions in the transformed program.
    pub(crate) regions: usize,
    /// Whether the post-transform self-check passes (always true for a
    /// successful transform — Theorem 1).
    pub passes: bool,
}

impl Verdict {
    /// The verdict as a deterministic JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("source_hash", Json::u64(self.source_hash)),
            ("transformed_hash", Json::u64(self.transformed_hash)),
            ("funcs", Json::u64(self.funcs as u64)),
            ("policies", Json::u64(self.policies as u64)),
            ("regions", Json::u64(self.regions as u64)),
            ("passes", Json::Bool(self.passes)),
        ])
    }

    /// Reads a verdict back from its [`Verdict::to_json`] form.
    pub fn from_json(v: &Json) -> Option<Verdict> {
        Some(Verdict {
            source_hash: v.get("source_hash")?.as_u64()?,
            transformed_hash: v.get("transformed_hash")?.as_u64()?,
            funcs: v.get("funcs")?.as_u64()? as usize,
            policies: v.get("policies")?.as_u64()? as usize,
            regions: v.get("regions")?.as_u64()? as usize,
            passes: v.get("passes")?.as_bool()?,
        })
    }
}

/// Transforms and self-checks `p`, whose submitted-program hash is
/// `source_hash`, against `taint` — the one verification path behind
/// [`full_verify`], [`Session::verify`] and
/// [`crate::cache::ProgramCache::submit`].
pub(crate) fn verify_program(
    source_hash: u64,
    p: Program,
    taint: &TaintAnalysis,
) -> Result<(Compiled, Verdict), String> {
    let funcs = p.funcs.len();
    let compiled = ocelot_transform_with(p, taint).map_err(|e| format!("transform: {e}"))?;
    let verdict = Verdict {
        source_hash,
        transformed_hash: program_hash(&compiled.program),
        funcs,
        policies: compiled.policies.len(),
        regions: compiled.regions.len(),
        passes: compiled.check.passes(),
    };
    Ok((compiled, verdict))
}

/// One verification document: a flow cache that survives across edits
/// of the same program so re-verification is incremental, and the
/// source text, program hash and transform output of its last
/// successful verify.
#[derive(Debug, Default)]
pub struct Session {
    cache: FlowCache,
    last: Option<(String, u64, Compiled)>,
}

impl Session {
    /// A fresh session with a cold cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Compiles and verifies `src` incrementally against this session's
    /// cache, and keeps the transform output. Returns the verdict and
    /// how much analysis the cache saved.
    ///
    /// # Errors
    ///
    /// Returns a one-line message for compile/validation/transform
    /// failures (the serve layer forwards it verbatim to the client).
    pub fn verify(&mut self, src: &str) -> Result<(Verdict, IncrementalStats), String> {
        ocelot_telemetry::metrics::VERIFY_INCREMENTAL.incr();
        let p = compile(src)?;
        let (taint, stats) = self.cache.run(&p);
        let (compiled, verdict) = verify_program(program_hash(&p), p, &taint)?;
        self.last = Some((src.to_string(), verdict.source_hash, compiled));
        Ok((verdict, stats))
    }

    /// The program hash and transform output of the last successful
    /// verify, when its source text was exactly `src`. Equal text, not
    /// an equal program hash: the hash covers no source spans, so a
    /// text differing only in whitespace or comments hashes alike but
    /// places every span elsewhere.
    pub(crate) fn verified(&self, src: &str) -> Option<(u64, &Compiled)> {
        match &self.last {
            Some((text, hash, compiled)) if text == src => Some((*hash, compiled)),
            _ => None,
        }
    }

    /// Functions currently cached (for `stats` surfaces).
    pub(crate) fn cached_funcs(&self) -> usize {
        self.cache.len()
    }
}

/// From-scratch verification of `src`: no cache, plain
/// [`TaintAnalysis::run`]. The baseline incremental verdicts must match
/// exactly, and the baseline full re-analysis latency is measured
/// against.
///
/// # Errors
///
/// Same contract as [`Session::verify`].
pub fn full_verify(src: &str) -> Result<(Compiled, Verdict), String> {
    ocelot_telemetry::metrics::VERIFY_FULL.incr();
    verify_with(src, TaintAnalysis::run)
}

/// The steps of [`full_verify`] with `analyze` as the taint analysis:
/// compile and validate, `analyze`, transform and self-check, and the
/// program hashes. The evaluation harness passes its reference taint
/// fixpoint to time a from-scratch verify against.
///
/// # Errors
///
/// Same contract as [`Session::verify`].
pub fn verify_with(
    src: &str,
    analyze: impl FnOnce(&Program) -> TaintAnalysis,
) -> Result<(Compiled, Verdict), String> {
    let p = compile(src)?;
    let taint = analyze(&p);
    verify_program(program_hash(&p), p, &taint)
}

/// Compiles and validates `src`, with one-line `compile:`/`validate:`
/// errors.
pub(crate) fn compile(src: &str) -> Result<Program, String> {
    let p = ocelot_ir::compile(src).map_err(|e| format!("compile: {e}"))?;
    ocelot_ir::validate(&p).map_err(|e| format!("validate: {e}"))?;
    Ok(p)
}

// ---------------------------------------------------------------------
// The edit-trace workload
// ---------------------------------------------------------------------

/// A deterministic edit-trace workload: one base program of `funcs`
/// worker functions and a stream of one-line single-function edits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EditTrace {
    /// Worker functions in the base program (besides the fixed sensor
    /// functions and `main`).
    pub funcs: usize,
    /// Edits in the recorded trace.
    pub edits: usize,
    /// Seed driving which function each edit touches and the edited
    /// constant.
    pub seed: u64,
}

/// SplitMix64 — the workspace's standard cheap deterministic stream.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// One branch-heavy, loop-heavy worker function. The bodies are big on
/// purpose: per-function analysis cost grows with blocks × locals while
/// parsing stays linear, which is exactly the regime where incremental
/// re-verification pays.
fn worker(i: usize, k: u64) -> String {
    let mut s = String::new();
    s.push_str(&format!("fn work{i}(v) {{\n"));
    s.push_str(&format!("    let acc = v + {k};\n"));
    for j in 0..12 {
        s.push_str(&format!("    let s{j} = in(sense{j});\n"));
    }
    s.push_str("    let t0 = acc + s0;\n");
    for j in 1..20 {
        s.push_str(&format!(
            "    let t{j} = t{} * {} + s{};\n",
            j - 1,
            j + 2,
            j % 12
        ));
    }
    s.push_str("    repeat 6 {\n    repeat 5 {\n");
    for j in 0..20 {
        s.push_str(&format!(
            "        if t{j} > acc {{ acc = acc + t{j}; }} else {{ t{j} = t{j} + s{}; acc = acc - {}; }}\n",
            (j + 1) % 12,
            j + 1
        ));
    }
    s.push_str("        if acc % 2 == 0 { acc = acc / 2; } else { acc = acc * 3 + 1; }\n");
    s.push_str("    }\n    }\n");
    s.push_str("    repeat 4 {\n");
    s.push_str("        if acc > 1000 { acc = acc - 997; }\n");
    s.push_str(&format!("        acc = acc % {};\n", 2048 + i));
    s.push_str("    }\n");
    s.push_str("    return acc;\n}\n");
    s
}

/// The base program for `trace`: `funcs` workers, two annotated sensor
/// readers, and a `main` that feeds sensor data through every worker.
pub fn workload_source(trace: &EditTrace) -> String {
    let mut rng = trace.seed;
    let mut s = String::from("sensor temp;\nsensor pres;\nnv total = 0;\n");
    for j in 0..12 {
        s.push_str(&format!("sensor sense{j};\n"));
    }
    s.push_str("fn read_temp() { let t = in(temp); return t; }\n");
    s.push_str("fn read_pres() { let q = in(pres); return q; }\n");
    for i in 0..trace.funcs {
        s.push_str(&worker(i, splitmix(&mut rng) % 1000));
    }
    s.push_str("fn main() {\n");
    s.push_str("    let a = read_temp();\n    fresh(a);\n");
    s.push_str("    let b = read_pres();\n    consistent(b, 2);\n");
    s.push_str("    let x = a + b;\n");
    for i in 0..trace.funcs {
        s.push_str(&format!("    let r{i} = work{i}(x);\n"));
        s.push_str(&format!("    out(log, r{i});\n"));
    }
    s.push_str("    total = total + a;\n    out(log, a, b, x);\n}\n");
    s
}

/// The (worker, new constant) of every edit, in order.
fn edits(trace: &EditTrace) -> impl Iterator<Item = (usize, u64)> {
    let (funcs, mut rng) = (trace.funcs, trace.seed ^ 0xed17);
    std::iter::repeat_with(move || {
        let f = (splitmix(&mut rng) as usize) % funcs;
        (f, splitmix(&mut rng) % 1000)
    })
}

/// The source after edit `n` (1-based; edit 0 is the base program).
/// Each edit rewrites the seeded constant on the first line of one
/// worker — a one-line, single-function change.
pub fn edited_source(trace: &EditTrace, n: usize) -> String {
    let mut src = workload_source(trace);
    for (f, k) in edits(trace).take(n) {
        let open = format!("fn work{f}(v) {{\n");
        let start = src.find(&open).expect("worker present") + open.len();
        let end = start + src[start..].find('\n').expect("line end");
        src.replace_range(start..end, &format!("    let acc = v + {k};"));
    }
    src
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: EditTrace = EditTrace {
        funcs: 6,
        edits: 4,
        seed: 3,
    };

    #[test]
    fn incremental_verdicts_match_full_verify_across_a_trace() {
        let mut session = Session::new();
        let (v0, s0) = session.verify(&workload_source(&SMALL)).unwrap();
        assert_eq!(s0.analyzed, s0.funcs, "cold cache analyzes everything");
        assert_eq!(v0, full_verify(&workload_source(&SMALL)).unwrap().1);
        for n in 1..=SMALL.edits {
            let src = edited_source(&SMALL, n);
            let (v, stats) = session.verify(&src).unwrap();
            assert_eq!(v, full_verify(&src).unwrap().1, "edit {n}");
            // Each edit changes one constant: every flow is reused.
            assert_eq!(stats.analyzed, 0, "edit {n} re-analyzed functions");
            assert_eq!(stats.reused, stats.funcs);
        }
    }

    #[test]
    fn edits_are_one_line_single_function_changes() {
        let base = workload_source(&SMALL);
        let e1 = edited_source(&SMALL, 1);
        let differing: Vec<_> = base
            .lines()
            .zip(e1.lines())
            .filter(|(a, b)| a != b)
            .collect();
        assert!(differing.len() <= 1, "edit touches at most one line");
        assert_eq!(base.lines().count(), e1.lines().count());
        // Deterministic: same trace, same text.
        assert_eq!(e1, edited_source(&SMALL, 1));
    }

    #[test]
    fn verdict_json_round_trips() {
        let (_, v) = full_verify(&workload_source(&SMALL)).unwrap();
        assert!(v.passes);
        assert!(v.policies >= 2, "fresh + consistent derive policies");
        assert_eq!(Verdict::from_json(&v.to_json()), Some(v));
    }

    #[test]
    fn verify_reports_compile_errors_as_one_line_strings() {
        let err = Session::new().verify("fn main( {").unwrap_err();
        assert!(err.starts_with("compile:"), "{err}");
        assert_eq!(err.lines().count(), 1, "{err:?}");
    }

    #[test]
    fn percentile_is_nearest_rank() {
        // The accessor the self-test summarises verify latencies with.
        use ocelot_telemetry::percentile;
        let xs = [10, 20, 30, 40];
        assert_eq!(percentile(&xs, 50.0), 20);
        assert_eq!(percentile(&xs, 99.0), 40);
        assert_eq!(percentile(&[7], 50.0), 7);
    }
}
