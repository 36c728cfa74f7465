//! End-to-end determinism suites over real TCP connections.
//!
//! The protocol's responses are timing-free by design, so the raw
//! response *lines* — the bytes `Client::request_line` returns — must
//! be identical whatever the worker count, whether an answer came from
//! a cold compile or a warm cache, and on either execution backend.

use ocelot_bench::genprog::SourceGen;
use ocelot_serve::verify::{edited_source, EditTrace};
use ocelot_serve::{serve, Client, ServeConfig};
use ocelot_telemetry::json::Json;

const SRC: &str = "sensor temp; sensor pres; nv total = 0; \
     fn main() { let a = in(temp); fresh(a); let b = in(pres); \
     consistent(b, 2); total = total + a; out(log, a, b); }";

const EDITED: &str = "sensor temp; sensor pres; nv total = 0; \
     fn main() { let a = in(temp); fresh(a); let b = in(pres); \
     consistent(b, 3); total = total + a; out(log, a, b); }";

fn boot(jobs: usize) -> ocelot_serve::ServerHandle {
    serve(ServeConfig {
        addr: "127.0.0.1:0".into(),
        jobs,
        max_programs: 8,
        max_inflight: 8,
    })
    .expect("bind ephemeral port")
}

fn submit_hash(client: &mut Client, src: &str) -> u64 {
    let resp = client
        .request(&Json::obj(vec![
            ("op", Json::str("submit")),
            ("source", Json::str(src)),
        ]))
        .expect("submit");
    assert_eq!(
        resp.get("ok").and_then(Json::as_bool),
        Some(true),
        "{resp:?}"
    );
    resp.get("program").and_then(Json::as_u64).expect("hash")
}

fn run_req(hash: u64, backend: &str) -> Json {
    Json::obj(vec![
        ("op", Json::str("run")),
        ("program", Json::u64(hash)),
        ("scenario", Json::str("rf-lab")),
        ("runs", Json::u64(2)),
        ("backend", Json::str(backend)),
    ])
}

/// The fixed request sequence the worker-count suite replays: every op
/// except shutdown, with ids, edits, reseeded scenarios, and an error
/// case (unknown scenario) included on purpose.
fn transcript(jobs: usize) -> Vec<String> {
    let handle = boot(jobs);
    let mut client = Client::connect(handle.addr).expect("connect");
    let hash = submit_hash(&mut client, SRC);
    let requests = vec![
        Json::obj(vec![("op", Json::str("ping")), ("id", Json::u64(1))]),
        Json::obj(vec![
            ("op", Json::str("submit")),
            ("source", Json::str(SRC)),
        ]),
        Json::obj(vec![
            ("op", Json::str("verify")),
            ("doc", Json::str("d")),
            ("source", Json::str(SRC)),
        ]),
        Json::obj(vec![
            ("op", Json::str("verify")),
            ("doc", Json::str("d")),
            ("source", Json::str(EDITED)),
        ]),
        run_req(hash, "interp"),
        run_req(hash, "compiled"),
        Json::obj(vec![
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
        ]),
        Json::obj(vec![
            ("op", Json::str("run")),
            ("program", Json::u64(hash)),
            ("scenario", Json::str("no-such-scenario")),
            ("id", Json::str("err-case")),
        ]),
        Json::obj(vec![("op", Json::str("stats"))]),
    ];
    let lines = requests
        .iter()
        .map(|r| client.request_line(r).expect("request"))
        .collect();
    handle.stop();
    lines
}

#[test]
fn same_requests_byte_identical_across_worker_counts() {
    let one = transcript(1);
    let two = transcript(2);
    let eight = transcript(8);
    assert_eq!(one, two, "--jobs 1 vs --jobs 2");
    assert_eq!(one, eight, "--jobs 1 vs --jobs 8");
}

#[test]
fn same_requests_byte_identical_with_telemetry_enabled() {
    // The full transcript — including the stats op with its per-cache
    // hit/miss counters — must serialize to the same bytes whether the
    // process-global telemetry pillars are hot or cold: responses carry
    // instance counters, never telemetry readings.
    let off = transcript(2);
    ocelot_telemetry::set_tracing(true);
    ocelot_telemetry::set_metrics(true);
    let on = transcript(2);
    ocelot_telemetry::set_tracing(false);
    ocelot_telemetry::set_metrics(false);
    ocelot_telemetry::drain_spans();
    ocelot_telemetry::metrics::reset_metrics();
    assert_eq!(off, on, "telemetry leaked into response bytes");
}

#[test]
fn warm_cache_answers_byte_identical_to_cold_compile_on_both_backends() {
    // Server A: cold compile, then warm repeats on both backends.
    let a = boot(2);
    let mut ca = Client::connect(a.addr).expect("connect");
    let hash = submit_hash(&mut ca, SRC);
    let cold_interp = ca.request_line(&run_req(hash, "interp")).unwrap();
    let cold_compiled = ca.request_line(&run_req(hash, "compiled")).unwrap();
    let warm_interp = ca.request_line(&run_req(hash, "interp")).unwrap();
    let warm_compiled = ca.request_line(&run_req(hash, "compiled")).unwrap();
    assert_eq!(cold_interp, warm_interp, "interp: warm core vs cold");
    assert_eq!(cold_compiled, warm_compiled, "compiled: warm core vs cold");
    let submit_a = ca
        .request_line(&Json::obj(vec![
            ("op", Json::str("submit")),
            ("source", Json::str(SRC)),
        ]))
        .unwrap();
    a.stop();

    // Server B: a fresh process-state compile of the same program must
    // answer with the same bytes (modulo the `cached` flag, so compare
    // the runs — and the verdicts via a doc-less verify on both).
    let b = boot(2);
    let mut cb = Client::connect(b.addr).expect("connect");
    assert_eq!(submit_hash(&mut cb, SRC), hash, "content hash is stable");
    assert_eq!(
        cold_interp,
        cb.request_line(&run_req(hash, "interp")).unwrap(),
        "interp run across server instances"
    );
    assert_eq!(
        cold_compiled,
        cb.request_line(&run_req(hash, "compiled")).unwrap(),
        "compiled run across server instances"
    );
    let submit_b = cb
        .request_line(&Json::obj(vec![
            ("op", Json::str("submit")),
            ("source", Json::str(SRC)),
        ]))
        .unwrap();
    assert_eq!(
        submit_a, submit_b,
        "resubmission (cached=true on both) byte-identical across servers"
    );
    b.stop();
}

#[test]
fn busy_server_replies_with_backpressure_error_shape() {
    // max_inflight is a concurrency bound, hard to hit deterministically
    // from one client; instead check the documented reply shape via a
    // bound of: requests racing from many threads must each get either
    // a real answer or the one-line busy error, never a hang or close.
    let handle = serve(ServeConfig {
        addr: "127.0.0.1:0".into(),
        jobs: 2,
        max_programs: 8,
        max_inflight: 1,
    })
    .expect("bind");
    let addr = handle.addr;
    let threads: Vec<_> = (0..4)
        .map(|i| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                let resp = c
                    .request(&Json::obj(vec![
                        ("op", Json::str("verify")),
                        ("id", Json::u64(i)),
                        ("source", Json::str(SRC)),
                    ]))
                    .expect("a reply, busy or not");
                assert_eq!(resp.get("id").and_then(Json::as_u64), Some(i));
                match resp.get("ok").and_then(Json::as_bool) {
                    Some(true) => assert!(resp.get("verdict").is_some()),
                    Some(false) => {
                        let err = resp.get("error").and_then(Json::as_str).unwrap();
                        assert!(err.contains("server busy"), "{err}");
                        assert!(err.contains("retry"), "{err}");
                    }
                    None => panic!("reply without ok member: {resp:?}"),
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread");
    }
    handle.stop();
}

#[test]
fn self_test_passes_end_to_end() {
    let report = ocelot_serve::self_test().expect("self test");
    assert!(report.contains("self-test passed"), "{report}");
    assert!(report.contains("p50"), "{report}");
}

fn lint_req(src: &str, window_us: u64) -> Json {
    Json::obj(vec![
        ("op", Json::str("lint")),
        ("source", Json::str(src)),
        ("window_us", Json::u64(window_us)),
        ("capacity_nj", Json::u64(26_000)),
    ])
}

#[test]
fn lint_after_doc_verify_answers_byte_identical_to_a_cold_server() {
    // Server A verifies a program in a document and then lints one, so
    // a lint of what it just verified reuses the document's transform;
    // server B only lints, transforming from scratch. Every lint line —
    // `cached` member included — must match. The edit trace lints
    // what it verified; the last pair lints a program whose functions
    // share their names, not their bodies, with the verified one.
    let trace = EditTrace {
        funcs: 3,
        edits: 4,
        seed: 5,
    };
    let mut pairs: Vec<(String, String)> = (0..=trace.edits)
        .map(|n| (edited_source(&trace, n), edited_source(&trace, n)))
        .collect();
    pairs.push((SourceGen::generate(1), SourceGen::generate(2)));
    let lint_all = |client: &mut Client, linted: &str, first: bool| {
        let mut lines = Vec::new();
        for window in [50, 100_000] {
            lines.push(client.request_line(&lint_req(linted, window)).unwrap());
        }
        // A repeat answers from the report cache.
        if first {
            lines.push(client.request_line(&lint_req(linted, 50)).unwrap());
        }
        lines
    };

    let warm = boot(2);
    let mut ca = Client::connect(warm.addr).expect("connect");
    let mut warm_lines = Vec::new();
    for (n, (verified, linted)) in pairs.iter().enumerate() {
        let resp = ca
            .request(&Json::obj(vec![
                ("op", Json::str("verify")),
                ("doc", Json::str("d")),
                ("source", Json::str(verified)),
            ]))
            .expect("verify");
        assert_eq!(
            resp.get("ok").and_then(Json::as_bool),
            Some(true),
            "{resp:?}"
        );
        warm_lines.extend(lint_all(&mut ca, linted, n == 0));
    }
    warm.stop();

    let cold = boot(2);
    let mut cb = Client::connect(cold.addr).expect("connect");
    let mut cold_lines = Vec::new();
    for (n, (_, linted)) in pairs.iter().enumerate() {
        cold_lines.extend(lint_all(&mut cb, linted, n == 0));
    }
    cold.stop();
    assert_eq!(warm_lines, cold_lines);
    assert!(warm_lines[0].contains("\"OC00"), "{}", warm_lines[0]);
}

#[test]
fn lint_error_lines_are_pinned() {
    let handle = boot(1);
    let mut client = Client::connect(handle.addr).expect("connect");
    // An open document whose last transform a lint lookup walks past.
    client
        .request(&Json::obj(vec![
            ("op", Json::str("verify")),
            ("doc", Json::str("d")),
            ("source", Json::str(SRC)),
        ]))
        .expect("verify");
    let recursive = client
        .request_line(&lint_req("sensor s; fn main() { main(); }", 50))
        .unwrap();
    let broken = client
        .request_line(&lint_req("fn main() { let x = ; }", 50))
        .unwrap();
    // The server is still up after both.
    let pong = client
        .request(&Json::obj(vec![("op", Json::str("ping"))]))
        .unwrap();
    handle.stop();
    assert_eq!(pong.get("pong").and_then(Json::as_bool), Some(true));
    assert_eq!(
        recursive,
        "{\"ok\": false, \"error\": \"lint: invalid program: recursive call cycle \
         involving `main` (recursion is not supported)\"}"
    );
    assert_eq!(
        broken,
        "{\"ok\": false, \"error\": \"compile: parse error at 20..21: expected expression, \
         found `;`\"}"
    );
}
