//! The request protocol: line-delimited JSON objects in, line-delimited
//! JSON objects out.
//!
//! Every request is one object with an `"op"` member; every response is
//! one object with `"ok"` (and the request's `"id"` echoed verbatim
//! when present). Responses are **timing-free by design**: the same
//! request against the same server state serializes to identical bytes
//! whatever the worker count, whether the answer came from a cold
//! compile or a warm cache, and on either execution backend — latency
//! is the *client's* observation (the edit-trace driver measures it),
//! never part of the payload.
//!
//! | op | request members | response members |
//! |---|---|---|
//! | `ping` | — | `pong` |
//! | `submit` | `source` | `program`, `cached`, `verdict` |
//! | `verify` | `source`, `doc`? | `verdict`, `funcs`, `analyzed`, `reused` |
//! | `run` | `program`, `scenario`, `runs`?, `seed`?, `backend`? | `scenario`, `stats` |
//! | `sweep` | `program`, `scenarios`, `runs`?, `backend`? | `cells` |
//! | `lint` | `source`, `window_us`?, `capacity_nj`? | `program`, `cached`, `report` (`ocelot-lint-report` JSON, see `docs/lint.md`) |
//! | `stats` | — | `programs`, `cores`, `docs`, `cached_funcs`, `requests`, then per-cache hit/miss counters in pinned order |
//! | `metrics` | — | `metrics` (the process-wide telemetry snapshot) |
//! | `shutdown` | — | `stopping` |
//!
//! `stats` counters are **per-server-instance** plain integers
//! (deterministic, counted whether or not telemetry is enabled);
//! `metrics` exposes the process-wide [`ocelot_telemetry`] registry,
//! whose counters only advance while `--metrics` is on and which is
//! shared by every server in the process.
//!
//! `verify` with a `doc` name re-verifies incrementally against that
//! document's per-function flow cache (see
//! `ocelot_analysis::incremental`); without one it verifies from
//! scratch. `lint` of the exact source text an open document last
//! verified lints that document's transform output with no parse;
//! any other text is compiled and transformed from scratch.
//! `run`/`sweep` accept scenario specs (`name` or `name@seed`) and report the machine's violation/mitigation
//! statistics. They simulate on the compiled
//! engine unless the request names a `backend`; `"backend": "interp"`
//! selects the interpreter, the semantics oracle, which answers the
//! same bytes.

use crate::cache::ProgramCache;
use crate::verify::{full_verify, program_hash, Session};
use ocelot_runtime::machine::{DeviceState, Machine, MachineCore};
use ocelot_runtime::pool::{run_jobs, Job};
use ocelot_runtime::stats::stats_to_json;
use ocelot_runtime::{ExecBackend, MAX_STEPS};
use ocelot_telemetry::json::Json;
use std::collections::HashMap;
use std::sync::Arc;

/// Default complete-run count for `run`/`sweep` cells.
const DEFAULT_RUNS: u64 = 3;

/// Mutable server state shared by every connection.
pub struct ServerState {
    /// Worker threads `sweep` shards onto.
    pub jobs: usize,
    /// The program-hash-keyed artifact cache.
    pub cache: ProgramCache,
    /// Incremental verification documents, by client-chosen name.
    pub docs: HashMap<String, Session>,
    /// Cached lint reports, keyed by source text: each text's program
    /// hash and its reports by (window, capacity bits). A report is a
    /// pure function of the text and the two knobs, so a repeat request
    /// answers without re-analysis. The key is the text, not the
    /// program hash: the hash covers no spans, and two texts differing
    /// only in whitespace or comments share it but not their report's
    /// line and column numbers.
    pub lints: HashMap<String, LintEntry>,
    /// Requests handled so far (any op, including failed ones).
    pub requests: u64,
    /// `verify` requests that named an already-open document.
    pub docs_hits: u64,
    /// `verify` requests that opened a fresh document.
    pub docs_misses: u64,
    /// `lint` requests answered from the report cache.
    pub lints_hits: u64,
    /// `lint` requests that ran the passes fresh.
    pub lints_misses: u64,
}

impl ServerState {
    /// Fresh state for a server with `jobs` workers and a program cache
    /// capped at `max_programs`.
    pub fn new(jobs: usize, max_programs: usize) -> Self {
        ServerState {
            jobs: jobs.max(1),
            cache: ProgramCache::new(max_programs),
            docs: HashMap::new(),
            lints: HashMap::new(),
            requests: 0,
            docs_hits: 0,
            docs_misses: 0,
            lints_hits: 0,
            lints_misses: 0,
        }
    }
}

/// The lint reports of one source text.
#[derive(Debug)]
pub struct LintEntry {
    /// The text's program hash (the response's `program` member).
    pub program: u64,
    /// Reports by (`window_us`, `capacity_nj` bits).
    pub reports: HashMap<(Option<u64>, Option<u64>), Json>,
}

/// What the connection loop should do after a response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Keep the connection (and server) going.
    Continue,
    /// The client asked the whole server to stop.
    Shutdown,
}

/// Handles one parsed request line against the shared state, returning
/// the response object and whether to shut the server down.
pub fn handle_request(state: &mut ServerState, req: &Json) -> (Json, Outcome) {
    let _span = ocelot_telemetry::span!("serve.request", "serve");
    ocelot_telemetry::metrics::SERVE_REQUESTS.incr();
    // Latency lands only in the telemetry histogram (never the
    // response), so the clock itself is gated with the metrics bit.
    let t0 = ocelot_telemetry::metrics_on().then(std::time::Instant::now);
    state.requests += 1;
    let mut outcome = Outcome::Continue;
    let result = match req.get("op").and_then(Json::as_str) {
        None => Err("request has no `op` member".to_string()),
        Some("ping") => Ok(vec![("pong", Json::Bool(true))]),
        Some("submit") => op_submit(state, req),
        Some("verify") => op_verify(state, req),
        Some("run") => op_run(state, req),
        Some("sweep") => op_sweep(state, req),
        Some("lint") => op_lint(state, req),
        Some("stats") => op_stats(state),
        Some("metrics") => op_metrics(),
        Some("shutdown") => {
            outcome = Outcome::Shutdown;
            Ok(vec![("stopping", Json::Bool(true))])
        }
        Some(op) => Err(format!(
            "unknown op `{op}` (known: ping, submit, verify, run, sweep, lint, stats, metrics, \
             shutdown)"
        )),
    };
    if let Some(t0) = t0 {
        ocelot_telemetry::metrics::SERVE_REQUEST_NS.record(t0.elapsed().as_nanos() as u64);
    }
    let mut pairs = Vec::new();
    if let Some(id) = req.get("id") {
        pairs.push(("id", id.clone()));
    }
    match result {
        Ok(mut members) => {
            pairs.push(("ok", Json::Bool(true)));
            pairs.append(&mut members);
        }
        Err(e) => {
            pairs.push(("ok", Json::Bool(false)));
            pairs.push(("error", Json::str(&e)));
        }
    }
    (Json::obj(pairs), outcome)
}

type OpResult = Result<Vec<(&'static str, Json)>, String>;

fn req_str<'a>(req: &'a Json, key: &str) -> Result<&'a str, String> {
    req.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("request needs a string `{key}` member"))
}

fn op_submit(state: &mut ServerState, req: &Json) -> OpResult {
    let src = req_str(req, "source")?;
    let (hash, cached, verdict) = state.cache.submit(src)?;
    Ok(vec![
        ("program", Json::u64(hash)),
        ("cached", Json::Bool(cached)),
        ("verdict", verdict.to_json()),
    ])
}

fn op_verify(state: &mut ServerState, req: &Json) -> OpResult {
    let src = req_str(req, "source")?;
    let (verdict, funcs, analyzed, reused) = match req.get("doc").and_then(Json::as_str) {
        Some(doc) => {
            if state.docs.contains_key(doc) {
                state.docs_hits += 1;
                ocelot_telemetry::metrics::SERVE_DOCS_HIT.incr();
            } else {
                state.docs_misses += 1;
                ocelot_telemetry::metrics::SERVE_DOCS_MISS.incr();
            }
            let session = state.docs.entry(doc.to_string()).or_default();
            let (v, stats) = session.verify(src)?;
            (v, stats.funcs, stats.analyzed, stats.reused)
        }
        None => {
            let (_, v) = full_verify(src)?;
            let funcs = v.funcs;
            (v, funcs, funcs, 0)
        }
    };
    Ok(vec![
        ("verdict", verdict.to_json()),
        ("funcs", Json::u64(funcs as u64)),
        ("analyzed", Json::u64(analyzed as u64)),
        ("reused", Json::u64(reused as u64)),
    ])
}

/// Resolves the run-shaping members shared by `run` and `sweep`. The
/// engine defaults to the compiled backend, as `ocelotc fleet` does:
/// it answers the same bytes as the interpreter (`"backend":
/// "interp"`, the semantics oracle), and every run shares the core's
/// compiled program.
fn run_shape(req: &Json) -> Result<(u64, ExecBackend), String> {
    let runs = req
        .get("runs")
        .and_then(Json::as_u64)
        .unwrap_or(DEFAULT_RUNS);
    let backend = match req.get("backend").and_then(Json::as_str) {
        None | Some("compiled") => ExecBackend::Compiled,
        Some("interp") => ExecBackend::Interp,
        Some(b) => return Err(format!("unknown backend `{b}` (known: interp, compiled)")),
    };
    Ok((runs, backend))
}

/// Simulates one scenario cell on a shared core and returns its stats
/// object. Violation/mitigation statistics come from the machine's
/// detectors — the enforcement half of the server's answer.
fn simulate_cell(
    core: Arc<MachineCore<'static>>,
    spec: &str,
    seed: Option<u64>,
    runs: u64,
    backend: ExecBackend,
) -> Result<Json, String> {
    let mut sc = ocelot_scenario::parse(spec)?;
    if let Some(s) = seed {
        sc = sc.reseeded(s);
    }
    let mut m = Machine::from_core(core, DeviceState::default(), sc.environment(), sc.supply())
        .with_backend(backend);
    for _ in 0..runs {
        // Harsh regimes may starve a run; no completion assertion, the
        // same rule the per-cell harness and fleet use.
        m.run_once(MAX_STEPS);
    }
    Ok(stats_to_json(m.stats()))
}

fn op_run(state: &mut ServerState, req: &Json) -> OpResult {
    let hash = req
        .get("program")
        .and_then(Json::as_u64)
        .ok_or("request needs a `program` hash member (from submit)")?;
    let spec = req_str(req, "scenario")?;
    let seed = req.get("seed").and_then(Json::as_u64);
    let (runs, backend) = run_shape(req)?;
    let sc = ocelot_scenario::parse(spec)?;
    let core = state.cache.core(hash, &sc)?;
    let stats = simulate_cell(core, spec, seed, runs, backend)?;
    Ok(vec![("scenario", Json::str(spec)), ("stats", stats)])
}

fn op_sweep(state: &mut ServerState, req: &Json) -> OpResult {
    let hash = req
        .get("program")
        .and_then(Json::as_u64)
        .ok_or("request needs a `program` hash member (from submit)")?;
    let specs: Vec<String> = req
        .get("scenarios")
        .and_then(Json::as_arr)
        .ok_or("request needs a `scenarios` array member")?
        .iter()
        .map(|v| {
            v.as_str()
                .map(str::to_string)
                .ok_or_else(|| "scenario specs must be strings".to_string())
        })
        .collect::<Result<_, _>>()?;
    if specs.is_empty() {
        return Err("a sweep needs at least one scenario".to_string());
    }
    let (runs, backend) = run_shape(req)?;
    // Resolve every core up front (serially — cores memoize in the
    // cache), then shard the simulations onto the pool. `run_jobs`
    // returns results in job order, so the response is deterministic at
    // any worker count.
    let mut prepared = Vec::with_capacity(specs.len());
    for spec in &specs {
        let sc = ocelot_scenario::parse(spec)?;
        prepared.push((spec.as_str(), state.cache.core(hash, &sc)?));
    }
    let work: Vec<Job<'_, Result<Json, String>>> = prepared
        .into_iter()
        .map(|(spec, core)| {
            Box::new(move || {
                let stats = simulate_cell(core, spec, None, runs, backend)?;
                Ok(Json::obj(vec![
                    ("scenario", Json::str(spec)),
                    ("runs", Json::u64(runs)),
                    ("stats", stats),
                ]))
            }) as Job<'_, Result<Json, String>>
        })
        .collect();
    let cells = run_jobs(work, state.jobs)
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
    Ok(vec![("cells", Json::Arr(cells))])
}

/// The `lint` op: run the static feasibility passes over `source` and
/// answer the `ocelot-lint-report` document (`docs/lint.md`). Reports
/// are cached by (source text, `window_us`, `capacity_nj`): the report
/// is a pure function of text and knobs, and normalization makes it
/// byte-stable, so the cached answer is indistinguishable from a fresh
/// one — the same timing-free contract every other op keeps.
///
/// On a report-cache miss, when an open document's last successful
/// `verify` was of the same source text, the passes run over that
/// document's transform output with no parse and no hash: equal texts
/// give byte-equal transforms with equal spans, so which document
/// answers does not matter. Otherwise the text is compiled and
/// transformed from scratch. The report bytes equal `ocelotc lint`'s
/// either way.
fn op_lint(state: &mut ServerState, req: &Json) -> OpResult {
    let src = req_str(req, "source")?;
    let window = match req.get("window_us") {
        None | Some(Json::Null) => None,
        Some(v) => Some(
            v.as_u64()
                .ok_or("`window_us` must be a non-negative integer")?,
        ),
    };
    let capacity = match req.get("capacity_nj") {
        None | Some(Json::Null) => None,
        Some(v) => match v.as_f64() {
            Some(c) if c > 0.0 => Some(c),
            _ => return Err("`capacity_nj` must be a positive number".to_string()),
        },
    };
    let knobs = (window, capacity.map(f64::to_bits));
    if let Some(entry) = state.lints.get(src) {
        if let Some(report) = entry.reports.get(&knobs) {
            state.lints_hits += 1;
            ocelot_telemetry::metrics::SERVE_LINTS_HIT.incr();
            return Ok(vec![
                ("program", Json::u64(entry.program)),
                ("cached", Json::Bool(true)),
                ("report", report.clone()),
            ]);
        }
    }
    let opts = ocelot_lint::LintOptions {
        window_us: window,
        capacity_nj: capacity,
    };
    let fresh;
    let (hash, compiled) = match state.docs.values().find_map(|doc| doc.verified(src)) {
        Some(verified) => verified,
        None => {
            let p = ocelot_ir::compile(src).map_err(|e| format!("compile: {e}"))?;
            let hash = program_hash(&p);
            fresh = ocelot_core::ocelot_transform(p).map_err(|e| format!("lint: {e}"))?;
            (hash, &fresh)
        }
    };
    let report =
        ocelot_lint::lint_compiled(compiled, src, &opts).map_err(|e| format!("lint: {e}"))?;
    let json = ocelot_lint::json::to_json(&report);
    state
        .lints
        .entry(src.to_string())
        .or_insert_with(|| LintEntry {
            program: hash,
            reports: HashMap::new(),
        })
        .reports
        .insert(knobs, json.clone());
    state.lints_misses += 1;
    ocelot_telemetry::metrics::SERVE_LINTS_MISS.incr();
    Ok(vec![
        ("program", Json::u64(hash)),
        ("cached", Json::Bool(false)),
        ("report", json),
    ])
}

/// The `stats` response. Field order is part of the wire contract
/// (pinned by `stats_field_order_is_pinned`): size counters first, then
/// the per-instance hit/miss pairs per caching layer, hits before
/// misses. All values are plain per-instance integers — byte-stable
/// across server instances and telemetry modes.
fn op_stats(state: &ServerState) -> OpResult {
    let (programs, cores) = state.cache.counts();
    let cached_funcs: usize = state.docs.values().map(Session::cached_funcs).sum();
    let c = state.cache.counters();
    Ok(vec![
        ("programs", Json::u64(programs as u64)),
        ("cores", Json::u64(cores as u64)),
        ("docs", Json::u64(state.docs.len() as u64)),
        ("cached_funcs", Json::u64(cached_funcs as u64)),
        ("requests", Json::u64(state.requests)),
        ("programs_hits", Json::u64(c.programs_hits)),
        ("programs_misses", Json::u64(c.programs_misses)),
        ("cores_hits", Json::u64(c.cores_hits)),
        ("cores_misses", Json::u64(c.cores_misses)),
        ("docs_hits", Json::u64(state.docs_hits)),
        ("docs_misses", Json::u64(state.docs_misses)),
        ("lints_hits", Json::u64(state.lints_hits)),
        ("lints_misses", Json::u64(state.lints_misses)),
    ])
}

/// The `metrics` response: the process-wide telemetry snapshot as one
/// object, keys in the registry's sorted order. Unlike `stats`, this is
/// shared by every server in the process and advances only while
/// metrics collection is enabled.
fn op_metrics() -> OpResult {
    let rows = ocelot_telemetry::metrics::snapshot()
        .into_iter()
        .map(|(name, v)| (name, Json::u64(v)))
        .collect();
    Ok(vec![("metrics", Json::obj(rows))])
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "sensor s; fn main() { let x = in(s); fresh(x); out(log, x); }";

    fn state() -> ServerState {
        ServerState::new(2, 8)
    }

    fn ok(resp: &Json) -> bool {
        resp.get("ok").and_then(Json::as_bool) == Some(true)
    }

    #[test]
    fn ping_echoes_the_request_id() {
        let mut s = state();
        let (resp, out) = handle_request(
            &mut s,
            &Json::obj(vec![("op", Json::str("ping")), ("id", Json::u64(7))]),
        );
        assert_eq!(out, Outcome::Continue);
        assert!(ok(&resp));
        assert_eq!(resp.get("id").and_then(Json::as_u64), Some(7));
        assert_eq!(resp.get("pong").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn submit_then_run_uses_the_cached_core() {
        let mut s = state();
        let (resp, _) = handle_request(
            &mut s,
            &Json::obj(vec![
                ("op", Json::str("submit")),
                ("source", Json::str(SRC)),
            ]),
        );
        assert!(ok(&resp), "{resp:?}");
        let hash = resp.get("program").and_then(Json::as_u64).unwrap();
        let (run1, _) = handle_request(
            &mut s,
            &Json::obj(vec![
                ("op", Json::str("run")),
                ("program", Json::u64(hash)),
                ("scenario", Json::str("rf-lab")),
                ("runs", Json::u64(2)),
            ]),
        );
        assert!(ok(&run1), "{run1:?}");
        assert!(run1.get("stats").is_some());
        // Second run reuses the memoized core and answers identically.
        let (run2, _) = handle_request(
            &mut s,
            &Json::obj(vec![
                ("op", Json::str("run")),
                ("program", Json::u64(hash)),
                ("scenario", Json::str("rf-lab")),
                ("runs", Json::u64(2)),
            ]),
        );
        assert_eq!(run1.render().unwrap(), run2.render().unwrap());
        let (st, _) = handle_request(&mut s, &Json::obj(vec![("op", Json::str("stats"))]));
        assert_eq!(st.get("programs").and_then(Json::as_u64), Some(1));
        assert_eq!(st.get("cores").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn lint_answers_a_cached_byte_stable_report() {
        let mut s = state();
        // A window no path can meet: the report must carry an OC001
        // error with spans.
        let src = "sensor s; fn main() { let x = in(s); fresh(x); out(log, x); out(alarm, x); }";
        let req = Json::obj(vec![
            ("op", Json::str("lint")),
            ("source", Json::str(src)),
            ("window_us", Json::u64(10)),
        ]);
        let (r1, _) = handle_request(&mut s, &req);
        assert!(ok(&r1), "{r1:?}");
        assert_eq!(r1.get("cached").and_then(Json::as_bool), Some(false));
        let report = r1.get("report").expect("report member");
        assert_eq!(
            report.get("schema").and_then(Json::as_str),
            Some("ocelot-lint-report")
        );
        assert_eq!(report.get("errors").and_then(Json::as_u64), Some(1));
        // Second identical request: answered from the cache, byte-stable.
        let (r2, _) = handle_request(&mut s, &req);
        assert_eq!(r2.get("cached").and_then(Json::as_bool), Some(true));
        assert_eq!(
            r1.get("report").unwrap().render().unwrap(),
            r2.get("report").unwrap().render().unwrap()
        );
        // Different knobs are a different cache key — and a generous
        // window drops the error.
        let (r3, _) = handle_request(
            &mut s,
            &Json::obj(vec![
                ("op", Json::str("lint")),
                ("source", Json::str(src)),
                ("window_us", Json::u64(1_000_000)),
            ]),
        );
        assert_eq!(r3.get("cached").and_then(Json::as_bool), Some(false));
        assert_eq!(
            r3.get("report")
                .and_then(|r| r.get("errors"))
                .and_then(Json::as_u64),
            Some(0)
        );
        let (st, _) = handle_request(&mut s, &Json::obj(vec![("op", Json::str("stats"))]));
        assert_eq!(st.get("lints_hits").and_then(Json::as_u64), Some(1));
        assert_eq!(st.get("lints_misses").and_then(Json::as_u64), Some(2));
        // A compile failure is an op error, not a report.
        let (bad, _) = handle_request(
            &mut s,
            &Json::obj(vec![
                ("op", Json::str("lint")),
                ("source", Json::str("fn main( {")),
            ]),
        );
        assert!(!ok(&bad));
    }

    #[test]
    fn verify_with_a_doc_is_incremental_across_requests() {
        let mut s = state();
        let req = |src: &str| {
            Json::obj(vec![
                ("op", Json::str("verify")),
                ("doc", Json::str("d1")),
                ("source", Json::str(src)),
            ])
        };
        let (r1, _) = handle_request(&mut s, &req(SRC));
        assert!(ok(&r1), "{r1:?}");
        assert_eq!(r1.get("reused").and_then(Json::as_u64), Some(0));
        let (r2, _) = handle_request(&mut s, &req(SRC));
        assert_eq!(r2.get("analyzed").and_then(Json::as_u64), Some(0));
        assert_eq!(
            r1.get("verdict").unwrap().render().unwrap(),
            r2.get("verdict").unwrap().render().unwrap(),
            "cached verdict byte-identical"
        );
        // Doc-less verify of the same source: same verdict bytes.
        let (r3, _) = handle_request(
            &mut s,
            &Json::obj(vec![
                ("op", Json::str("verify")),
                ("source", Json::str(SRC)),
            ]),
        );
        assert_eq!(
            r1.get("verdict").unwrap().render().unwrap(),
            r3.get("verdict").unwrap().render().unwrap()
        );
    }

    #[test]
    fn sweep_is_deterministic_in_request_order() {
        let mut s = state();
        let (resp, _) = handle_request(
            &mut s,
            &Json::obj(vec![
                ("op", Json::str("submit")),
                ("source", Json::str(SRC)),
            ]),
        );
        let hash = resp.get("program").and_then(Json::as_u64).unwrap();
        let sweep = Json::obj(vec![
            ("op", Json::str("sweep")),
            ("program", Json::u64(hash)),
            (
                "scenarios",
                Json::Arr(vec![
                    Json::str("rf-lab"),
                    Json::str("office-day"),
                    Json::str("rf-lab@9"),
                ]),
            ),
            ("runs", Json::u64(1)),
        ]);
        let (a, _) = handle_request(&mut s, &sweep);
        assert!(ok(&a), "{a:?}");
        let cells = a.get("cells").and_then(Json::as_arr).unwrap();
        assert_eq!(cells.len(), 3);
        assert_eq!(
            cells[1].get("scenario").and_then(Json::as_str),
            Some("office-day")
        );
        // Same sweep at a different worker count: identical bytes.
        s.jobs = 8;
        let (b, _) = handle_request(&mut s, &sweep);
        assert_eq!(a.render().unwrap(), b.render().unwrap());
    }

    #[test]
    fn stats_field_order_is_pinned_and_byte_stable_across_instances() {
        // Two servers, same request sequence: the stats line must be
        // byte-identical (per-instance counters, no process globals),
        // and the field order is part of the wire contract.
        let script = |s: &mut ServerState| {
            let (sub, _) = handle_request(
                s,
                &Json::obj(vec![
                    ("op", Json::str("submit")),
                    ("source", Json::str(SRC)),
                ]),
            );
            let hash = sub.get("program").and_then(Json::as_u64).unwrap();
            for _ in 0..2 {
                handle_request(
                    s,
                    &Json::obj(vec![
                        ("op", Json::str("run")),
                        ("program", Json::u64(hash)),
                        ("scenario", Json::str("rf-lab")),
                        ("runs", Json::u64(1)),
                    ]),
                );
                handle_request(
                    s,
                    &Json::obj(vec![
                        ("op", Json::str("verify")),
                        ("doc", Json::str("d")),
                        ("source", Json::str(SRC)),
                    ]),
                );
            }
            let (st, _) = handle_request(s, &Json::obj(vec![("op", Json::str("stats"))]));
            st.render_compact().unwrap()
        };
        let a = script(&mut state());
        let b = script(&mut state());
        assert_eq!(a, b, "stats bytes differ across instances");
        // Pin the exact field order (and the counter values the script
        // implies: 1 program miss, 1 core miss + 1 hit, 1 doc miss + 1
        // hit).
        let order = [
            "programs",
            "cores",
            "docs",
            "cached_funcs",
            "requests",
            "programs_hits",
            "programs_misses",
            "cores_hits",
            "cores_misses",
            "docs_hits",
            "docs_misses",
        ];
        let mut last = 0;
        for key in order {
            let at = a
                .find(&format!("\"{key}\""))
                .unwrap_or_else(|| panic!("stats response lacks `{key}`: {a}"));
            assert!(at > last, "`{key}` out of order in {a}");
            last = at;
        }
        let st = ocelot_telemetry::json::parse(&a).unwrap();
        let field = |k: &str| st.get(k).and_then(Json::as_u64).unwrap();
        assert_eq!(field("programs_hits"), 0);
        assert_eq!(field("programs_misses"), 1);
        assert_eq!(field("cores_hits"), 1);
        assert_eq!(field("cores_misses"), 1);
        assert_eq!(field("docs_hits"), 1);
        assert_eq!(field("docs_misses"), 1);
        assert_eq!(field("requests"), 6, "stats itself is the 6th request");
    }

    #[test]
    fn metrics_op_returns_the_sorted_global_snapshot() {
        let mut s = state();
        let (resp, out) = handle_request(&mut s, &Json::obj(vec![("op", Json::str("metrics"))]));
        assert_eq!(out, Outcome::Continue);
        assert!(ok(&resp), "{resp:?}");
        let snap = resp.get("metrics").expect("metrics object");
        // Every registry row is present, in sorted key order.
        let Json::Obj(pairs) = snap else {
            panic!("metrics member is not an object: {snap:?}")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted, "snapshot keys not sorted");
        assert!(keys.contains(&"serve.requests"), "{keys:?}");
        assert!(keys.contains(&"serve.cache.programs.hits"), "{keys:?}");
        assert!(keys.contains(&"serve.request_ns.p99"), "{keys:?}");
    }

    #[test]
    fn errors_are_flagged_not_panics() {
        let mut s = state();
        for req in [
            Json::obj(vec![("op", Json::str("nope"))]),
            Json::obj(vec![
                ("op", Json::str("verify")),
                ("source", Json::str("fn (")),
            ]),
            Json::obj(vec![
                ("op", Json::str("run")),
                ("program", Json::u64(1)),
                ("scenario", Json::str("rf-lab")),
            ]),
            Json::obj(vec![("op", Json::str("submit"))]),
            Json::Null,
        ] {
            let (resp, out) = handle_request(&mut s, &req);
            assert_eq!(out, Outcome::Continue);
            assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
            assert!(resp.get("error").and_then(Json::as_str).is_some());
        }
    }

    #[test]
    fn shutdown_reports_and_stops() {
        let mut s = state();
        let (resp, out) = handle_request(&mut s, &Json::obj(vec![("op", Json::str("shutdown"))]));
        assert_eq!(out, Outcome::Shutdown);
        assert!(ok(&resp));
    }
}
