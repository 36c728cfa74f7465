//! Nesting and the server's stacks. Handler threads run on the default
//! 2 MiB stack, and every pass recurses over blocks and expressions, so
//! the parser caps nesting (`ocelot_ir::parser::MAX_NESTING`). A source
//! past the cap gets one parse-error line and the server keeps
//! answering; a source at the cap goes through every op.

use ocelot_ir::parser::MAX_NESTING;
use ocelot_serve::{serve, Client, ServeConfig};
use ocelot_telemetry::json::Json;

fn boot() -> ocelot_serve::ServerHandle {
    serve(ServeConfig {
        addr: "127.0.0.1:0".into(),
        jobs: 1,
        max_programs: 8,
        max_inflight: 8,
    })
    .expect("bind ephemeral port")
}

fn req(op: &str, members: Vec<(&str, Json)>) -> Json {
    let mut all = vec![("op", Json::str(op))];
    all.extend(members);
    Json::obj(all)
}

fn ping(client: &mut Client) {
    let pong = client.request(&req("ping", vec![])).expect("pong");
    assert_eq!(pong.get("pong").and_then(Json::as_bool), Some(true));
}

#[test]
fn a_too_deep_submit_gets_one_error_line_and_the_server_keeps_answering() {
    let handle = boot();
    let mut client = Client::connect(handle.addr).expect("connect");
    let n = 30_000;
    let src = format!(
        "fn main() {{ let x = {}1{}; }}",
        "(".repeat(n),
        ")".repeat(n)
    );
    let line = client
        .request_line(&req("submit", vec![("source", Json::str(&src))]))
        .expect("an answer, not a dropped connection");
    // The body's block is the first level, so the 128th `(` (byte 20 +
    // 127) is the one past the cap.
    assert_eq!(
        line,
        "{\"ok\": false, \"error\": \"compile: parse error at 147..148: \
         nesting exceeds the limit of 128 levels\"}"
    );
    ping(&mut client);
    ping(&mut Client::connect(handle.addr).expect("a new connection"));
    handle.stop();
}

#[test]
fn a_program_nested_to_the_cap_verifies_lints_and_runs() {
    // `MAX_NESTING - 1` nested `if` blocks inside the body, around an
    // expression tree exactly `MAX_NESTING` tall.
    let k = MAX_NESTING - 1;
    let chain = " + 1".repeat(MAX_NESTING - 1);
    let src = format!(
        "sensor s; fn main() {{ let v = in(s); fresh(v); {}let x = v{chain}; out(log, x);{} }}",
        "if v > 0 { ".repeat(k),
        " }".repeat(k)
    );
    assert!(ocelot_ir::compile(&src).is_ok());
    let handle = boot();
    let mut client = Client::connect(handle.addr).expect("connect");
    let source = || ("source", Json::str(&src));
    let ok = |resp: Json| {
        assert_eq!(
            resp.get("ok").and_then(Json::as_bool),
            Some(true),
            "{resp:?}"
        );
        resp
    };
    ok(client
        .request(&req("verify", vec![("doc", Json::str("d")), source()]))
        .expect("verify"));
    ok(client.request(&req("lint", vec![source()])).expect("lint"));
    let submitted = ok(client
        .request(&req("submit", vec![source()]))
        .expect("submit"));
    let program = submitted.get("program").and_then(Json::as_u64).unwrap();
    for backend in ["compiled", "interp"] {
        ok(client
            .request(&req(
                "run",
                vec![
                    ("program", Json::u64(program)),
                    ("scenario", Json::str("rf-lab")),
                    ("runs", Json::u64(2)),
                    ("backend", Json::str(backend)),
                ],
            ))
            .expect("run"));
    }
    handle.stop();
}
