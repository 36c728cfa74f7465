//! # ocelot-serve
//!
//! The always-on enforcement service: a long-running server that keeps
//! compiled programs, analysis results, and per-scenario
//! [`ocelot_runtime::machine::MachineCore`]s resident between requests,
//! so interactive clients (editors, CI bots, fleet dashboards) get
//! sub-rebuild answers. Clients speak line-delimited JSON over TCP
//! (see [`protocol`] for the op table): submit a program once, then
//! verify edits incrementally, run scenario cells, or sweep scenario
//! lists that fan out over the work-stealing pool.
//!
//! Three caching layers, all keyed by content:
//!
//! * **program hash → leaked [`ocelot_runtime::model::Built`]** — the
//!   transform runs once per distinct program ([`cache`]);
//! * **(program, scenario name) → shared `MachineCore`** — compiled
//!   blocks, chain tables, and frame layouts built once and shared by
//!   every run/sweep against that scenario (the PR-6 fleet sharing
//!   unit);
//! * **document → per-function flow cache** — `verify` requests naming
//!   a `doc` re-verify incrementally: only functions whose body
//!   fingerprint (taken modulo literal values) changed are re-analyzed
//!   ([`ocelot_analysis::incremental`]), which is what makes a one-line
//!   edit orders of magnitude cheaper than a full re-analysis. Each
//!   document also keeps its last transform output, which a `lint` of
//!   the same program reuses instead of compiling again.
//!
//! Responses carry no timing, so they are byte-identical across worker
//! counts, warm/cold caches, and execution backends — held by the
//! determinism tests in `tests/`. The entry point is `ocelotc serve`;
//! [`self_test`] is the end-to-end smoke CI runs.

#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod cache;
pub mod protocol;
pub mod server;
pub mod verify;

pub use cache::ProgramCache;
pub use protocol::{handle_request, Outcome, ServerState};
pub use server::{serve, Client, ServeConfig, ServerHandle};

use ocelot_telemetry::json::Json;
use ocelot_telemetry::percentile;
use verify::{edited_source, workload_source, EditTrace};

/// End-to-end smoke: boots a server on an ephemeral port, replays a
/// small edit-trace workload through a real TCP client (verify with a
/// `doc` and lint each edit, submit, run, sweep, stats), checks every
/// response — each lint report byte for byte against an in-process
/// [`ocelot_lint::lint_source`], and each `run`/`sweep` line against
/// the same request on the interpreter — and shuts
/// the server down cleanly. Returns a human-readable report including
/// the client-observed p50/p99 re-verify latency.
///
/// # Errors
///
/// A one-line message naming the first failing step.
pub fn self_test() -> Result<String, String> {
    let handle = serve(ServeConfig {
        addr: "127.0.0.1:0".into(),
        jobs: 2,
        max_programs: 8,
        max_inflight: 8,
    })
    .map_err(|e| format!("bind: {e}"))?;
    let result = self_test_against(handle.addr);
    // The shutdown op already stopped the accept loop; stop() is then
    // idempotent and joins the threads.
    handle.stop();
    result
}

fn self_test_against(addr: std::net::SocketAddr) -> Result<String, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let expect_ok = |resp: &Json, step: &str| -> Result<(), String> {
        if resp.get("ok").and_then(Json::as_bool) == Some(true) {
            Ok(())
        } else {
            Err(format!("{step}: {resp:?}"))
        }
    };

    let pong = client.request(&Json::obj(vec![("op", Json::str("ping"))]))?;
    expect_ok(&pong, "ping")?;

    // Replay a small edit trace through an incremental document,
    // measuring client-observed re-verify latency.
    let trace = EditTrace {
        funcs: 12,
        edits: 6,
        seed: 7,
    };
    let verify = |client: &mut Client, src: &str| {
        client.request(&Json::obj(vec![
            ("op", Json::str("verify")),
            ("doc", Json::str("self-test")),
            ("source", Json::str(src)),
        ]))
    };
    let base = workload_source(&trace);
    expect_ok(&verify(&mut client, &base)?, "verify base")?;
    let mut latencies_ns = Vec::new();
    for n in 1..=trace.edits {
        let src = edited_source(&trace, n);
        let t0 = std::time::Instant::now();
        let resp = verify(&mut client, &src)?;
        latencies_ns.push(t0.elapsed().as_nanos() as u64);
        expect_ok(&resp, "verify edit")?;
        let analyzed = resp.get("analyzed").and_then(Json::as_u64).unwrap_or(99);
        if analyzed != 0 {
            return Err(format!(
                "edit {n} re-analyzed {analyzed} functions (a constant edit re-analyzes none)"
            ));
        }
        lint_matches_in_process(&mut client, &src, n)?;
    }
    latencies_ns.sort_unstable();

    // Submit + run + sweep against cached cores.
    let sub = client.request(&Json::obj(vec![
        ("op", Json::str("submit")),
        ("source", Json::str(&base)),
    ]))?;
    expect_ok(&sub, "submit")?;
    let hash = sub
        .get("program")
        .and_then(Json::as_u64)
        .ok_or("submit response has no program hash")?;
    let run = default_matches_oracle(
        &mut client,
        "run",
        vec![
            ("program", Json::u64(hash)),
            ("scenario", Json::str("rf-lab")),
            ("runs", Json::u64(1)),
        ],
    )?;
    expect_ok(&run, "run")?;
    let sweep = default_matches_oracle(
        &mut client,
        "sweep",
        vec![
            ("program", Json::u64(hash)),
            (
                "scenarios",
                Json::Arr(vec![Json::str("rf-lab"), Json::str("office-day")]),
            ),
            ("runs", Json::u64(1)),
        ],
    )?;
    expect_ok(&sweep, "sweep")?;
    let stats = client.request(&Json::obj(vec![("op", Json::str("stats"))]))?;
    expect_ok(&stats, "stats")?;
    for key in ["programs_hits", "cores_hits", "docs_hits"] {
        if stats.get(key).and_then(Json::as_u64).is_none() {
            return Err(format!("stats response lacks `{key}`: {stats:?}"));
        }
    }
    let metrics = client.request(&Json::obj(vec![("op", Json::str("metrics"))]))?;
    expect_ok(&metrics, "metrics")?;
    if metrics
        .get("metrics")
        .and_then(|m| m.get("serve.requests"))
        .is_none()
    {
        return Err(format!("metrics response lacks the snapshot: {metrics:?}"));
    }
    let down = client.request(&Json::obj(vec![("op", Json::str("shutdown"))]))?;
    expect_ok(&down, "shutdown")?;

    Ok(format!(
        "serve self-test passed: {} edits re-verified incrementally and linted over TCP\n\
         re-verify latency: p50 {:.3} ms, p99 {:.3} ms\n\
         programs cached: {}, cores built: {}, clean shutdown\n",
        trace.edits,
        percentile(&latencies_ns, 50.0) as f64 / 1.0e6,
        percentile(&latencies_ns, 99.0) as f64 / 1.0e6,
        stats.get("programs").and_then(Json::as_u64).unwrap_or(0),
        stats.get("cores").and_then(Json::as_u64).unwrap_or(0),
    ))
}

/// Sends the `op` (`run` or `sweep`) request with `members` on the
/// default engine, and again with `"backend": "interp"`: the interpreter
/// is the semantics oracle, so the two response lines must match byte
/// for byte.
fn default_matches_oracle(
    client: &mut Client,
    op: &str,
    members: Vec<(&'static str, Json)>,
) -> Result<Json, String> {
    let mut req = vec![("op", Json::str(op))];
    req.extend(members);
    let line = client.request_line(&Json::obj(req.clone()))?;
    let mut oracle = req;
    oracle.push(("backend", Json::str("interp")));
    if client.request_line(&Json::obj(oracle))? != line {
        return Err(format!(
            "{op}: the default engine answered differently from the interpreter"
        ));
    }
    ocelot_telemetry::json::parse(&line).map_err(|e| format!("{op}: bad response: {e}"))
}

/// Lints `src` through the server — which reuses the transform output
/// of the document's verify of the same source — and checks the report
/// against an in-process [`ocelot_lint::lint_source`] byte for byte.
fn lint_matches_in_process(client: &mut Client, src: &str, edit: usize) -> Result<(), String> {
    const WINDOW_US: u64 = 100_000;
    let resp = client.request(&Json::obj(vec![
        ("op", Json::str("lint")),
        ("source", Json::str(src)),
        ("window_us", Json::u64(WINDOW_US)),
    ]))?;
    let served = resp
        .get("report")
        .ok_or_else(|| format!("lint of edit {edit}: {resp:?}"))?
        .render_compact()
        .map_err(|e| format!("render: {e}"))?;
    let opts = ocelot_lint::LintOptions {
        window_us: Some(WINDOW_US),
        ..ocelot_lint::LintOptions::default()
    };
    let report =
        ocelot_lint::lint_source(src, &opts).map_err(|e| format!("lint of edit {edit}: {e}"))?;
    let local = ocelot_lint::json::to_json(&report)
        .render_compact()
        .map_err(|e| format!("render: {e}"))?;
    if served != local {
        return Err(format!(
            "lint of edit {edit}: served report differs from lint_source"
        ));
    }
    Ok(())
}
