//! The `lint` op answers each source text with its own spans. Two texts
//! that differ only in leading whitespace lower to the same program
//! (equal program hash) but place every finding on different lines, so
//! neither the report cache nor the reuse of an open document's
//! transform may key on the program hash.

use ocelot_lint::{lint_source, LintOptions};
use ocelot_serve::verify::{edited_source, EditTrace};
use ocelot_serve::{handle_request, ServerState};
use ocelot_telemetry::json::Json;

const TRACE: EditTrace = EditTrace {
    funcs: 2,
    edits: 16,
    seed: 1,
};
const WINDOW_US: u64 = 1000;

fn ask(state: &mut ServerState, pairs: Vec<(&str, Json)>) -> Json {
    let (resp, _) = handle_request(state, &Json::obj(pairs));
    assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp:?}");
    resp
}

fn lint(state: &mut ServerState, src: &str) -> Json {
    ask(
        state,
        vec![
            ("op", Json::str("lint")),
            ("source", Json::str(src)),
            ("window_us", Json::u64(WINDOW_US)),
        ],
    )
}

fn verify(state: &mut ServerState, doc: &str, src: &str) {
    ask(
        state,
        vec![
            ("op", Json::str("verify")),
            ("doc", Json::str(doc)),
            ("source", Json::str(src)),
        ],
    );
}

fn cached(resp: &Json) -> bool {
    resp.get("cached").and_then(Json::as_bool).expect("cached")
}

fn first_line(resp: &Json) -> u64 {
    resp.get("report")
        .and_then(|r| r.get("findings"))
        .and_then(Json::as_arr)
        .and_then(|f| f.first())
        .and_then(|f| f.get("primary"))
        .and_then(|p| p.get("line"))
        .and_then(Json::as_u64)
        .expect("a spanned finding")
}

/// The report bytes an in-process `lint_source` gives `src`.
fn expected(src: &str) -> String {
    let opts = LintOptions {
        window_us: Some(WINDOW_US),
        ..LintOptions::default()
    };
    let report = lint_source(src, &opts).expect("source lints");
    ocelot_lint::json::to_json(&report).render().unwrap()
}

fn report(resp: &Json) -> String {
    resp.get("report").unwrap().render().unwrap()
}

#[test]
fn whitespace_shifted_source_is_linted_with_its_own_spans() {
    let src = edited_source(&TRACE, 0);
    let shifted = format!("\n\n\n{src}");
    let mut state = ServerState::new(1, 4);

    let a = lint(&mut state, &src);
    let b = lint(&mut state, &shifted);
    assert_eq!(a.get("program"), b.get("program"), "same program hash");
    assert!(!cached(&a) && !cached(&b), "a different text is a miss");
    assert_eq!(first_line(&b), first_line(&a) + 3);
    assert_eq!(report(&a), expected(&src));
    assert_eq!(report(&b), expected(&shifted));

    // Each text now answers from the cache, still with its own spans.
    let (a2, b2) = (lint(&mut state, &src), lint(&mut state, &shifted));
    assert!(cached(&a2) && cached(&b2));
    assert_eq!(report(&a2), report(&a));
    assert_eq!(report(&b2), report(&b));
}

#[test]
fn an_open_document_answers_only_for_its_own_text() {
    let src = edited_source(&TRACE, 1);
    let shifted = format!("\n\n\n{src}");
    let mut state = ServerState::new(1, 4);
    verify(&mut state, "d", &src);

    // Same program, other text: the document's transform carries the
    // verified text's spans and must not be reused.
    let b = lint(&mut state, &shifted);
    assert!(!cached(&b));
    assert_eq!(report(&b), expected(&shifted));

    // The verified text itself lints from the document, byte-equal to a
    // from-scratch lint, and its program hash is the verify's.
    let a = lint(&mut state, &src);
    assert!(!cached(&a));
    assert_eq!(report(&a), expected(&src));
    assert_eq!(a.get("program"), b.get("program"));
    assert_eq!(first_line(&b), first_line(&a) + 3);

    // After the document moves on to the shifted text, both texts keep
    // their own cached reports.
    verify(&mut state, "d", &shifted);
    assert_eq!(report(&lint(&mut state, &src)), expected(&src));
    assert_eq!(report(&lint(&mut state, &shifted)), expected(&shifted));
}
