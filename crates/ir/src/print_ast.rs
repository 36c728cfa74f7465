//! Surface-syntax printer for the AST: emits source text that re-parses
//! to a structurally identical program (spans aside). Used for program
//! persistence and for parser round-trip testing.

use crate::ast::*;
use std::fmt::Write as _;

/// Renders a whole program in surface syntax.
pub fn ast_to_source(p: &AstProgram) -> String {
    let mut s = String::new();
    for sensor in &p.sensors {
        let _ = writeln!(s, "sensor {};", sensor.name);
    }
    for g in &p.globals {
        match g.array_len {
            Some(n) => {
                let _ = writeln!(s, "nv {}[{n}];", g.name);
            }
            None => {
                let _ = writeln!(s, "nv {} = {};", g.name, g.init);
            }
        }
    }
    for f in &p.funcs {
        let params: Vec<String> = f
            .params
            .iter()
            .map(|q| {
                if q.by_ref {
                    format!("&{}", q.name)
                } else {
                    q.name.clone()
                }
            })
            .collect();
        let _ = writeln!(s, "fn {}({}) {{", f.name, params.join(", "));
        write_block(&mut s, &f.body, 1);
        let _ = writeln!(s, "}}");
    }
    s
}

fn indent(s: &mut String, depth: usize) {
    for _ in 0..depth {
        s.push_str("    ");
    }
}

fn write_block(s: &mut String, b: &Block, depth: usize) {
    for stmt in &b.stmts {
        write_stmt(s, stmt, depth);
    }
}

fn write_stmt(s: &mut String, st: &Stmt, depth: usize) {
    indent(s, depth);
    match st {
        Stmt::Skip(_) => s.push_str("skip;\n"),
        Stmt::Let(x, e, _) => {
            let _ = writeln!(s, "let {x} = {};", expr(e));
        }
        Stmt::LetFresh(x, e, _) => {
            let _ = writeln!(s, "let fresh {x} = {};", expr(e));
        }
        Stmt::LetConsistent(id, x, e, _) => {
            let _ = writeln!(s, "let consistent({id}) {x} = {};", expr(e));
        }
        Stmt::LetCall(x, f, args, _) => {
            let _ = writeln!(s, "let {x} = {f}({});", arg_list(args));
        }
        Stmt::LetInput(x, chan, _) => {
            let _ = writeln!(s, "let {x} = in({chan});");
        }
        Stmt::Assign(x, e, _) => {
            let _ = writeln!(s, "{x} = {};", expr(e));
        }
        Stmt::AssignIndex(a, i, e, _) => {
            let _ = writeln!(s, "{a}[{}] = {};", expr(i), expr(e));
        }
        Stmt::AssignDeref(x, e, _) => {
            let _ = writeln!(s, "*{x} = {};", expr(e));
        }
        Stmt::FreshAnnot(x, _) => {
            let _ = writeln!(s, "fresh({x});");
        }
        Stmt::ConsistentAnnot(x, id, _) => {
            let _ = writeln!(s, "consistent({x}, {id});");
        }
        Stmt::If(c, t, e, _) => {
            let _ = writeln!(s, "if {} {{", expr(c));
            write_block(s, t, depth + 1);
            indent(s, depth);
            match e {
                Some(e) => {
                    s.push_str("} else {\n");
                    write_block(s, e, depth + 1);
                    indent(s, depth);
                    s.push_str("}\n");
                }
                None => s.push_str("}\n"),
            }
        }
        Stmt::Repeat(n, b, _) => {
            let _ = writeln!(s, "repeat {n} {{");
            write_block(s, b, depth + 1);
            indent(s, depth);
            s.push_str("}\n");
        }
        Stmt::While(c, bound, b, _) => {
            match bound {
                Some(k) => {
                    let _ = writeln!(s, "while {} @bound {k} {{", expr(c));
                }
                None => {
                    let _ = writeln!(s, "while {} {{", expr(c));
                }
            }
            write_block(s, b, depth + 1);
            indent(s, depth);
            s.push_str("}\n");
        }
        Stmt::Atomic(b, _) => {
            s.push_str("atomic {\n");
            write_block(s, b, depth + 1);
            indent(s, depth);
            s.push_str("}\n");
        }
        Stmt::CallStmt(f, args, _) => {
            let _ = writeln!(s, "{f}({});", arg_list(args));
        }
        Stmt::Out(chan, args, _) => {
            if args.is_empty() {
                let _ = writeln!(s, "out({chan});");
            } else {
                let exprs: Vec<String> = args.iter().map(expr).collect();
                let _ = writeln!(s, "out({chan}, {});", exprs.join(", "));
            }
        }
        Stmt::Return(Some(e), _) => {
            let _ = writeln!(s, "return {};", expr(e));
        }
        Stmt::Return(None, _) => s.push_str("return;\n"),
    }
}

fn arg_list(args: &[Arg]) -> String {
    args.iter()
        .map(|a| match a {
            Arg::Value(e) => expr(e),
            Arg::Ref(x) => format!("&{x}"),
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// Renders an expression, parenthesizing every binary operation so
/// re-parsing cannot re-associate (`(a + b) * c` stays itself; the
/// non-associative comparison level re-parses cleanly too).
pub fn expr(e: &Expr) -> String {
    match e {
        Expr::Int(n) if *n < 0 => format!("(0 - {})", -(*n as i128)),
        Expr::Int(n) => n.to_string(),
        Expr::Bool(b) => b.to_string(),
        Expr::Var(x) => x.clone(),
        Expr::Index(a, i) => format!("{a}[{}]", expr(i)),
        Expr::Deref(x) => format!("*{x}"),
        Expr::Ref(x) => format!("&{x}"),
        Expr::Binary(op, l, r) => format!("({} {op} {})", expr(l), expr(r)),
        Expr::Unary(op, x) => format!("{op}({})", expr(x)),
    }
}

/// Strips spans so two parses can be compared structurally.
pub fn erase_spans(p: &AstProgram) -> AstProgram {
    use crate::span::Span;
    let z = Span::default();
    let mut out = p.clone();
    for s in &mut out.sensors {
        s.span = z;
    }
    for g in &mut out.globals {
        g.span = z;
    }
    for f in &mut out.funcs {
        f.span = z;
        erase_block(&mut f.body);
    }
    out
}

fn erase_block(b: &mut Block) {
    use crate::span::Span;
    let z = Span::default();
    for s in &mut b.stmts {
        match s {
            Stmt::Skip(sp)
            | Stmt::Let(_, _, sp)
            | Stmt::LetFresh(_, _, sp)
            | Stmt::LetConsistent(_, _, _, sp)
            | Stmt::LetCall(_, _, _, sp)
            | Stmt::LetInput(_, _, sp)
            | Stmt::Assign(_, _, sp)
            | Stmt::AssignIndex(_, _, _, sp)
            | Stmt::AssignDeref(_, _, sp)
            | Stmt::FreshAnnot(_, sp)
            | Stmt::ConsistentAnnot(_, _, sp)
            | Stmt::CallStmt(_, _, sp)
            | Stmt::Out(_, _, sp)
            | Stmt::Return(_, sp) => *sp = z,
            Stmt::If(_, t, e, sp) => {
                *sp = z;
                erase_block(t);
                if let Some(e) = e {
                    erase_block(e);
                }
            }
            Stmt::Repeat(_, b, sp) | Stmt::While(_, _, b, sp) | Stmt::Atomic(b, sp) => {
                *sp = z;
                erase_block(b);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn round_trip(src: &str) {
        let a = erase_spans(&parse(src).unwrap());
        let printed = ast_to_source(&a);
        let b = erase_spans(
            &parse(&printed)
                .unwrap_or_else(|e| panic!("printed source failed to parse: {e}\n{printed}")),
        );
        assert_eq!(a, b, "round trip changed the program:\n{printed}");
    }

    #[test]
    fn round_trips_every_construct() {
        round_trip(
            r#"
            sensor temp;
            nv hist[4];
            nv n = 0;
            nv neg = -3;
            fn norm(v, &o) { *o = v; return v + 1; }
            fn main() {
                skip;
                let fresh x = 0;
                let consistent(2) w = 1;
                let t = in(temp);
                let y = norm(t, &x);
                consistent(y, 1);
                fresh(t);
                if y > 5 { out(alarm, y); } else { out(log, y, n); }
                repeat 3 { hist[n % 4] = y; n = n + 1; }
                while n > 9 { n = n - 1; }
                atomic { out(uart, y); }
                y = hist[0] + *x - (2 * 3);
                if !(y == 0) { return y; }
                return 0;
            }
            "#,
        );
    }

    #[test]
    fn round_trips_operator_nesting() {
        round_trip("fn main() { let x = 1 + 2 * 3 - 4 / 5 % 6; let y = x > 2 && x < 9 || false; }");
    }

    #[test]
    fn negative_literals_round_trip() {
        round_trip("nv g = -7; fn main() { let x = g; }");
    }

    #[test]
    fn printed_source_lowers_identically() {
        let src = "sensor s; fn main() { let v = in(s); fresh(v); if v > 2 { out(log, v); } }";
        let a = parse(src).unwrap();
        let printed = ast_to_source(&a);
        let p1 = crate::lower::lower(a).unwrap();
        let p2 = crate::lower::compile(&printed).unwrap();
        assert_eq!(
            crate::print::program_to_string(&p1),
            crate::print::program_to_string(&p2)
        );
    }
}
