//! Pretty-printing of lowered programs, for debugging and golden tests.
//!
//! Every renderer writes through one set of `write_*` functions into
//! any [`fmt::Write`] sink, so a caller can hash a function as it is
//! printed ([`write_function`]) instead of building the text first.
//! [`Literals::Masked`] prints the same text with every literal value
//! replaced by a placeholder: the incremental analysis keys each
//! function on that form, so the key cannot miss a field the canonical
//! form shows.

use crate::ast::{Arg, Expr};
use crate::ir::{AnnotKind, Function, Op, Place, Program, Terminator};
use std::fmt::{self, Write};

/// How the printer renders `Expr::Int` and `Expr::Bool` values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Literals {
    /// As written: the canonical form.
    Shown,
    /// Each as `#`, which no identifier, keyword or other printed
    /// token spells, so a masked literal cannot print like any other
    /// expression.
    Masked,
}

/// Writes an expression in surface syntax.
fn write_expr<W: Write>(w: &mut W, e: &Expr, lits: Literals) -> fmt::Result {
    match e {
        Expr::Int(_) | Expr::Bool(_) if lits == Literals::Masked => w.write_char('#'),
        Expr::Int(n) => write!(w, "{n}"),
        Expr::Bool(b) => write!(w, "{b}"),
        Expr::Var(x) => w.write_str(x),
        Expr::Deref(x) => write!(w, "*{x}"),
        Expr::Ref(x) => write!(w, "&{x}"),
        Expr::Index(a, i) => {
            write!(w, "{a}[")?;
            write_expr(w, i, lits)?;
            w.write_char(']')
        }
        Expr::Binary(op, l, r) => {
            w.write_char('(')?;
            write_expr(w, l, lits)?;
            write!(w, " {op} ")?;
            write_expr(w, r, lits)?;
            w.write_char(')')
        }
        Expr::Unary(op, x) => {
            write!(w, "{op}")?;
            write_expr(w, x, lits)
        }
    }
}

/// Writes `items` separated by `", "`.
fn write_list<W: Write, T>(
    w: &mut W,
    items: &[T],
    mut item: impl FnMut(&mut W, &T) -> fmt::Result,
) -> fmt::Result {
    for (i, x) in items.iter().enumerate() {
        if i > 0 {
            w.write_str(", ")?;
        }
        item(w, x)?;
    }
    Ok(())
}

/// Writes one IR operation.
fn write_op<W: Write>(w: &mut W, p: &Program, op: &Op, lits: Literals) -> fmt::Result {
    match op {
        Op::Skip => w.write_str("skip"),
        Op::Bind { var, src } => {
            write!(w, "let {var} = ")?;
            write_expr(w, src, lits)
        }
        Op::Assign { place, src } => {
            match place {
                Place::Var(x) => w.write_str(x)?,
                Place::Index(a, i) => {
                    write!(w, "{a}[")?;
                    write_expr(w, i, lits)?;
                    w.write_char(']')?;
                }
                Place::Deref(x) => write!(w, "*{x}")?,
            }
            w.write_str(" = ")?;
            write_expr(w, src, lits)
        }
        Op::Input { var, sensor } => write!(w, "let {var} = in({sensor})"),
        Op::Call { dst, callee, args } => {
            if let Some(d) = dst {
                write!(w, "let {d} = ")?;
            }
            write!(w, "{}(", p.func(*callee).name)?;
            write_list(w, args, |w, a| match a {
                Arg::Value(e) => write_expr(w, e, lits),
                Arg::Ref(x) => write!(w, "&{x}"),
            })?;
            w.write_char(')')
        }
        Op::Output { channel, args } => {
            write!(w, "out({channel}")?;
            if !args.is_empty() {
                w.write_str(", ")?;
                write_list(w, args, |w, e| write_expr(w, e, lits))?;
            }
            w.write_char(')')
        }
        Op::Annot { kind, var } => match kind {
            AnnotKind::Fresh => write!(w, "fresh({var})"),
            AnnotKind::Consistent(id) => write!(w, "consistent({var}, {id})"),
            AnnotKind::Bound(k) => write!(w, "@bound({k})"),
        },
        Op::AtomStart { region } => write!(w, "startatom(r{})", region.0),
        Op::AtomEnd { region } => write!(w, "endatom(r{})", region.0),
    }
}

/// Renders one IR operation.
pub fn op_to_string(p: &Program, op: &Op) -> String {
    let mut s = String::new();
    let _ = write_op(&mut s, p, op, Literals::Shown);
    s
}

/// Writes one function with block structure and labels.
pub fn write_function<W: Write>(
    w: &mut W,
    p: &Program,
    f: &Function,
    lits: Literals,
) -> fmt::Result {
    write!(w, "fn {}(", f.name)?;
    write_list(w, &f.params, |w, q| {
        if q.by_ref {
            w.write_char('&')?;
        }
        w.write_str(&q.name)
    })?;
    w.write_str(") {\n")?;
    for b in &f.blocks {
        let marks = if b.id == f.entry && b.id == f.exit {
            " (entry, exit)"
        } else if b.id == f.entry {
            " (entry)"
        } else if b.id == f.exit {
            " (exit)"
        } else {
            ""
        };
        writeln!(w, "  bb{}:{marks}", b.id.0)?;
        for inst in &b.instrs {
            write!(w, "    l{}: ", inst.label.0)?;
            write_op(w, p, &inst.op, lits)?;
            w.write_char('\n')?;
        }
        write!(w, "    l{}: ", b.term_label.0)?;
        match &b.term {
            Terminator::Jump(t) => write!(w, "jump bb{}", t.0)?,
            Terminator::Branch {
                cond,
                then_bb,
                else_bb,
            } => {
                w.write_str("br ")?;
                write_expr(w, cond, lits)?;
                write!(w, " ? bb{} : bb{}", then_bb.0, else_bb.0)?;
            }
            Terminator::Ret(Some(e)) => {
                w.write_str("ret ")?;
                write_expr(w, e, lits)?;
            }
            Terminator::Ret(None) => w.write_str("ret")?,
        }
        w.write_char('\n')?;
    }
    w.write_str("}\n")
}

/// Writes the whole program: declarations, then every function.
pub fn write_program<W: Write>(w: &mut W, p: &Program) -> fmt::Result {
    for sensor in &p.sensors {
        writeln!(w, "sensor {sensor};")?;
    }
    for g in &p.globals {
        match g.array_len {
            Some(n) => writeln!(w, "nv {}[{n}];", g.name)?,
            None => writeln!(w, "nv {} = {};", g.name, g.init)?,
        }
    }
    for f in &p.funcs {
        write_function(w, p, f, Literals::Shown)?;
    }
    Ok(())
}

/// Renders the whole program.
pub fn program_to_string(p: &Program) -> String {
    let mut s = String::new();
    let _ = write_program(&mut s, p);
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::compile;

    #[test]
    fn prints_every_construct() {
        let p = compile(
            r#"
            sensor temp;
            nv hist[4];
            nv n = 0;
            fn norm(v, &o) { *o = v; return v + 1; }
            fn main() {
                let fresh x = 0;
                let t = in(temp);
                let y = norm(t, &x);
                consistent(y, 1);
                if y > 5 { out(alarm, y); }
                hist[n] = y;
                atomic { skip; }
            }
            "#,
        )
        .unwrap();
        let text = program_to_string(&p);
        for needle in [
            "sensor temp;",
            "nv hist[4];",
            "nv n = 0;",
            "let t = in(temp)",
            "norm(t, &x)",
            "consistent(y, 1)",
            "fresh(x)",
            "out(alarm, y)",
            "hist[",
            "startatom(r0)",
            "endatom(r0)",
            "br (y > 5)",
            "(entry)",
            "(exit)",
            "ret",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
    }

    #[test]
    fn expr_rendering_parenthesizes() {
        let p = compile("fn main() { let x = 1 + 2 * 3; }").unwrap();
        let text = program_to_string(&p);
        assert!(text.contains("(1 + (2 * 3))"), "{text}");
    }
}
