//! Structural edits through one serve document.
//!
//! A document's flow cache keys each function on its input fingerprint
//! (`ocelot_analysis::input_fingerprints`), which folds the function's
//! positional id, body and callee subtree. Inserting, deleting,
//! renaming or reordering a function therefore invalidates some cached
//! flows and keeps others. This suite replays such edits through one
//! `verify` document and requires, for every version:
//!
//! * the response line is byte-identical to a cold server's answer to
//!   the same request, apart from the `analyzed`/`reused` split;
//! * `analyzed` is exactly the number of functions whose fingerprint
//!   changed since the document's last verified version (a new name
//!   counts as changed), and `reused` is the rest.
//!
//! The programs are generated ones (`ocelot_bench::genprog`), whose
//! fixed helper functions the edits rewrite. The default test covers a
//! few seeds; the `#[ignore]`d sweep covers many more, in release:
//! `cargo test --release -p ocelot-serve --test structural_edits -- --ignored`.

use ocelot_bench::genprog::SourceGen;
use ocelot_serve::{serve, Client, ServeConfig, ServerHandle};
use ocelot_telemetry::json::Json;
use std::collections::HashMap;

fn boot() -> ServerHandle {
    serve(ServeConfig {
        addr: "127.0.0.1:0".into(),
        jobs: 1,
        max_programs: 8,
        max_inflight: 8,
    })
    .expect("bind ephemeral port")
}

fn verify_req(src: &str) -> Json {
    Json::obj(vec![
        ("op", Json::str("verify")),
        ("doc", Json::str("d")),
        ("source", Json::str(src)),
    ])
}

/// Each function's input fingerprint by name, or `None` when `src` does
/// not compile and validate (a verify that never reaches the cache).
fn keys(src: &str) -> Option<HashMap<String, u64>> {
    let p = ocelot_ir::compile(src).ok()?;
    ocelot_ir::validate(&p).ok()?;
    let keys = ocelot_analysis::input_fingerprints(&p);
    Some(p.funcs.iter().map(|f| f.name.clone()).zip(keys).collect())
}

const SPARE: &str = "fn spare() { let v = in(s1); return v; }\n";
const GRAB: &str = "fn grab() { let v = in(s0); return v; }\n";
const MAIN_TAIL: &str = "out(log, g0 + g1);\n}\n";

/// The edit sequence one document sees, starting from generated
/// program `base`: insert a function mid-program (shifting the ids after
/// it), call it from `main`, rename a function and its call site, swap
/// two functions, delete the inserted one, and return to the base text.
fn versions(base: &str) -> Vec<String> {
    let edit = |src: &str, from: &str, to: &str| {
        assert!(src.contains(from), "`{from}` not in\n{src}");
        src.replacen(from, to, 1)
    };
    let inserted = edit(base, GRAB, &format!("{SPARE}{GRAB}"));
    let called = edit(
        &inserted,
        MAIN_TAIL,
        "let sp = spare();\nout(log, g0 + g1 + sp);\n}\n",
    );
    let renamed = edit(
        &edit(&called, "fn leaf()", "fn probe()"),
        "leaf()",
        "probe()",
    );
    let reordered = edit(
        &renamed,
        &format!("{SPARE}{GRAB}"),
        &format!("{GRAB}{SPARE}"),
    );
    let deleted = edit(
        &edit(&reordered, SPARE, ""),
        "let sp = spare();\nout(log, g0 + g1 + sp);\n}\n",
        MAIN_TAIL,
    );
    vec![
        base.to_string(),
        inserted,
        called,
        renamed,
        reordered,
        deleted,
        base.to_string(),
    ]
}

/// Replays [`versions`] of `base` through document `d` on one server,
/// checks each response line against a freshly booted server's, and
/// returns how many versions re-analyzed some but not all functions.
fn replay(base: &str) -> usize {
    let warm = boot();
    let mut client = Client::connect(warm.addr).expect("connect");
    let mut cached: HashMap<String, u64> = HashMap::new();
    let mut mixed = 0;
    for (n, src) in versions(base).iter().enumerate() {
        let req = verify_req(src);
        let got = client.request_line(&req).expect("warm verify");
        let cold = boot();
        let cold_line = Client::connect(cold.addr)
            .expect("connect")
            .request_line(&req)
            .expect("cold verify");
        cold.stop();
        let now = keys(src).expect("every version validates");
        let changed = now
            .iter()
            .filter(|(f, k)| cached.get(*f) != Some(k))
            .count();
        assert_eq!(
            got,
            with_reuse(&cold_line, changed),
            "version {n} of\n{src}"
        );
        mixed += usize::from(0 < changed && changed < now.len());
        cached = now;
    }
    // Closing first spares `stop` the handler's read timeout.
    drop(client);
    warm.stop();
    mixed
}

/// A cold, successful `verify` response line with its
/// `analyzed`/`reused` split replaced by `analyzed` re-analyzed
/// functions.
fn with_reuse(cold_line: &str, analyzed: usize) -> String {
    assert!(cold_line.starts_with("{\"ok\": true"), "{cold_line}");
    let Ok(Json::Obj(mut pairs)) = ocelot_telemetry::json::parse(cold_line) else {
        panic!("not a JSON object: {cold_line}");
    };
    let funcs = member(&pairs, "funcs");
    assert_eq!(
        member(&pairs, "analyzed"),
        funcs,
        "a cold document analyzes all"
    );
    for (k, v) in &mut pairs {
        match k.as_str() {
            "analyzed" => *v = Json::u64(analyzed as u64),
            "reused" => *v = Json::u64(funcs - analyzed as u64),
            _ => {}
        }
    }
    Json::Obj(pairs).render_compact().expect("render")
}

fn member(pairs: &[(String, Json)], key: &str) -> u64 {
    pairs
        .iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| v.as_u64())
        .unwrap_or_else(|| panic!("no `{key}` member"))
}

/// Replays every seed in `seeds` whose base program validates; returns
/// how many did.
fn sweep(seeds: std::ops::Range<u64>) -> usize {
    let mut replayed = 0;
    for seed in seeds {
        let base = SourceGen::generate(seed);
        if keys(&base).is_some() {
            // Every edit after the base version both reuses some flows
            // and re-analyzes others.
            assert_eq!(replay(&base), 6, "seed {seed}: edits that mixed");
            replayed += 1;
        }
    }
    replayed
}

#[test]
fn structural_edits_answer_like_a_cold_server_and_reanalyze_only_changed_keys() {
    let replayed = sweep(0..6);
    assert!(replayed >= 3, "only {replayed} of 6 seeds validated");
}

#[test]
#[ignore = "larger sweep; run in release with --ignored"]
fn structural_edit_sweep_over_generated_programs() {
    let replayed = sweep(0..1000);
    eprintln!("{replayed} of 1000 generated programs replayed");
    assert!(
        replayed * 2 > 1000,
        "only {replayed} of 1000 seeds validated"
    );
}
