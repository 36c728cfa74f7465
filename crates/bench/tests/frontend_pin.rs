//! Pins the front end (`ocelot_ir::compile` = lex + parse + lower)
//! byte for byte: every program the workspace ships or generates must
//! lower to the same IR text with the same source span on every
//! instruction and terminator, and every malformed source must fail with
//! the same error text and span.
//!
//! Inputs: the nine apps (annotated and atomics-only sources),
//! `examples/programs/*.oc`, `examples/lint/*.oc` and `genprog` seeds
//! `0..300`. Each yields one line of `golden/frontend.txt`: its name
//! and the FNV-1a digest of its IR rendering followed by its spans (or
//! of its error text, for a source that does not compile).
//!
//! ## Regenerating the fixture
//!
//! Only after an intentional change to what the front end produces:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p ocelot-bench --test frontend_pin
//! ```

use ocelot_analysis::incremental::fnv1a;
use ocelot_bench::genprog::SourceGen;
use ocelot_ir::print::program_to_string;
use ocelot_ir::{IrError, Program};
use std::fmt::Write;
use std::path::{Path, PathBuf};

const GENPROG_SEEDS: u64 = 300;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The IR text, then every instruction and terminator span in block
/// order.
fn rendering(p: &Program) -> String {
    let mut out = program_to_string(p);
    for f in &p.funcs {
        let _ = writeln!(out, "spans {}:", f.name);
        for b in &f.blocks {
            for i in &b.instrs {
                let _ = write!(out, " {}", i.span);
            }
            let _ = writeln!(out, " | {}", b.term_span);
        }
    }
    out
}

fn digest(src: &str) -> String {
    match ocelot_ir::compile(src) {
        Ok(p) => format!("ok {:016x}", fnv1a(rendering(&p).as_bytes())),
        Err(e) => format!("err {:016x}", fnv1a(format!("{e:?}").as_bytes())),
    }
}

/// `.oc` files under `dir`, sorted by name.
fn oc_files(dir: &str) -> Vec<(String, String)> {
    let mut files: Vec<_> = std::fs::read_dir(repo_root().join(dir))
        .unwrap_or_else(|e| panic!("read {dir}: {e}"))
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "oc"))
        .collect();
    files.sort();
    files
        .into_iter()
        .map(|p| {
            let name = format!("{dir}/{}", p.file_name().unwrap().to_string_lossy());
            let src = std::fs::read_to_string(&p).expect("read source");
            (name, src)
        })
        .collect()
}

fn corpus() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for b in ocelot_apps::all_with_extensions() {
        out.push((format!("app/{}/annotated", b.name), b.annotated_src.into()));
        out.push((format!("app/{}/atomics", b.name), b.atomics_src.into()));
    }
    out.extend(oc_files("examples/programs"));
    out.extend(oc_files("examples/lint"));
    for seed in 0..GENPROG_SEEDS {
        out.push((format!("genprog/{seed}"), SourceGen::generate(seed)));
    }
    out
}

#[test]
fn every_shipped_and_generated_program_lowers_to_its_pinned_ir_and_spans() {
    let mut actual = String::new();
    for (name, src) in corpus() {
        let _ = writeln!(actual, "{name} {}", digest(&src));
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/frontend.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &actual).expect("write fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path).expect("read tests/golden/frontend.txt");
    let (mut exp, mut act) = (expected.lines(), actual.lines());
    loop {
        match (exp.next(), act.next()) {
            (None, None) => break,
            (e, a) => assert_eq!(e, a, "front-end output drifted from its pin"),
        }
    }
}

/// One malformed source per error path of the front end, with its exact
/// error value and rendering.
#[test]
fn malformed_sources_fail_with_pinned_errors_and_spans() {
    let cases: [(&str, IrError, &str); 7] = [
        (
            "fn main() { let x = #; }",
            IrError::Lex {
                span: ocelot_ir::span::Span::new(20, 21),
                message: "unrecognized character `#`".into(),
            },
            "lex error at 20..21: unrecognized character `#`",
        ),
        (
            "fn main() { out(log, \"abc); }\nfn f() {}",
            IrError::Lex {
                span: ocelot_ir::span::Span::new(21, 29),
                message: "unterminated string literal".into(),
            },
            "lex error at 21..29: unterminated string literal",
        ),
        (
            "fn main() { let x = 99999999999999999999; }",
            IrError::Lex {
                span: ocelot_ir::span::Span::new(20, 40),
                message: "integer literal `99999999999999999999` does not fit in i64".into(),
            },
            "lex error at 20..40: integer literal `99999999999999999999` does not fit in i64",
        ),
        (
            "fn main() { let x = 1 }",
            IrError::Parse {
                span: ocelot_ir::span::Span::new(22, 23),
                message: "expected `;`, found `}`".into(),
            },
            "parse error at 22..23: expected `;`, found `}`",
        ),
        (
            "fn main() { let 5 = 1; }",
            IrError::Parse {
                span: ocelot_ir::span::Span::new(16, 17),
                message: "expected `fresh`, `consistent`, or identifier after `let`, \
                          found integer literal"
                    .into(),
            },
            "parse error at 16..17: expected `fresh`, `consistent`, or identifier after \
             `let`, found integer literal",
        ),
        (
            "fn main() {} fn main() {}",
            IrError::lower("function `main` declared more than once"),
            "lowering error: function `main` declared more than once",
        ),
        (
            "fn helper() { skip; }",
            IrError::lower("program has no `main` function"),
            "lowering error: program has no `main` function",
        ),
    ];
    for (src, want, text) in cases {
        let err = ocelot_ir::compile(src).expect_err(src);
        assert_eq!(err, want, "{src}");
        assert_eq!(err.to_string(), text, "{src}");
    }
}
