//! Structural validation of lowered programs.
//!
//! Enforces the modeling-language discipline the paper's analyses assume
//! (§3.3, §5.2, Appendix G):
//!
//! * no recursion (direct or mutual);
//! * no two globals share a name, and no array has length zero;
//! * every `IN()` reads a declared sensor channel;
//! * every `let`, input and call destination binds a declared local of
//!   its function, never the name of one of its by-ref parameters;
//! * every variable read resolves to a parameter, local, or global;
//! * dereferences only through by-mutable-reference parameters;
//! * indexed stores/reads only on declared global arrays;
//! * call-site arity and by-ref/by-value shape match the callee, and no
//!   two reference arguments of a call alias the same location (Rust's
//!   unique-mutable-borrow rule); `main`, which the runtime calls with
//!   no arguments, takes no parameters;
//! * `startatom`/`endatom` pairs match within each function.

use crate::ast::{Arg, Expr};
use crate::callgraph::CallGraph;
use crate::error::{IrError, Result};
use crate::ir::{Function, Op, Place, Program, RegionId};
use std::collections::{HashMap, HashSet};

/// Validates `p`, returning the first violation found.
///
/// # Errors
///
/// [`IrError::Validate`] describing the violated rule.
pub fn validate(p: &Program) -> Result<()> {
    let cg = CallGraph::new(p);
    cg.topo_callees_first(p)?;
    if !p.func(p.main).params.is_empty() {
        return Err(IrError::validate(
            "`main` takes parameters, but the runtime calls it with none",
        ));
    }
    let mut globals = HashSet::new();
    for g in &p.globals {
        if !globals.insert(&g.name) {
            return Err(IrError::validate(format!(
                "global `{}` is declared twice",
                g.name
            )));
        }
        if g.array_len == Some(0) {
            return Err(IrError::validate(format!(
                "array `{}` is declared with length 0",
                g.name
            )));
        }
    }
    for f in &p.funcs {
        validate_function(p, f)?;
    }
    Ok(())
}

/// Checks that every instruction and terminator in `p` carries a real
/// (non-empty) source [`Span`](crate::span::Span).
///
/// Lowering threads statement spans onto everything it emits, so any
/// program produced by [`compile`](crate::lower::compile) satisfies
/// this; the diagnostics layer relies on it to anchor findings at
/// source locations. Builder-made programs are exempt (their AST has no
/// source text) and must not be passed here.
///
/// # Errors
///
/// [`IrError::Validate`] naming the first unspanned instruction.
pub(crate) fn validate_spans(p: &Program) -> Result<()> {
    for f in &p.funcs {
        for b in &f.blocks {
            for inst in &b.instrs {
                if inst.span.is_empty() {
                    return Err(IrError::validate(format!(
                        "instruction {:?} ({:?}) in `{}` has no source span",
                        inst.label, inst.op, f.name
                    )));
                }
            }
            if b.term_span.is_empty() {
                return Err(IrError::validate(format!(
                    "terminator of block {:?} in `{}` has no source span",
                    b.id, f.name
                )));
            }
        }
    }
    Ok(())
}

fn validate_function(p: &Program, f: &Function) -> Result<()> {
    let locals: HashSet<&String> = f.locals.iter().collect();
    let params: HashMap<&String, bool> = f.params.iter().map(|q| (&q.name, q.by_ref)).collect();

    let known = |name: &String| -> bool {
        locals.contains(name) || params.contains_key(name) || p.is_global(name)
    };
    let check_binding = |var: &String| -> Result<()> {
        if !locals.contains(var) {
            return Err(IrError::validate(format!(
                "`{var}` is bound in `{}` but not declared among its locals",
                f.name
            )));
        }
        if params.get(var) == Some(&true) {
            return Err(IrError::validate(format!(
                "`{var}` is bound in `{}`, which takes it as a reference parameter",
                f.name
            )));
        }
        Ok(())
    };

    let check_expr = |e: &Expr, where_: &str| -> Result<()> {
        let mut stack = vec![e];
        while let Some(e) = stack.pop() {
            match e {
                Expr::Int(_) | Expr::Bool(_) => {}
                Expr::Var(x) => {
                    if !known(x) {
                        return Err(IrError::validate(format!(
                            "unknown variable `{x}` in {where_} of `{}`",
                            f.name
                        )));
                    }
                    if let Some(g) = p.global(x) {
                        if g.array_len.is_some() {
                            return Err(IrError::validate(format!(
                                "array `{x}` read without an index in `{}`",
                                f.name
                            )));
                        }
                    }
                }
                Expr::Deref(x) => {
                    if params.get(x) != Some(&true) {
                        return Err(IrError::validate(format!(
                            "`*{x}` in `{}` dereferences a non-reference",
                            f.name
                        )));
                    }
                }
                Expr::Ref(x) => {
                    // `&x` appears only in call arguments; reaching one
                    // inside a general expression is a misuse.
                    return Err(IrError::validate(format!(
                        "`&{x}` used outside a call argument in `{}`",
                        f.name
                    )));
                }
                Expr::Index(a, i) => {
                    match p.global(a) {
                        Some(g) if g.array_len.is_some() => {}
                        _ => {
                            return Err(IrError::validate(format!(
                                "`{a}[..]` in `{}` indexes a non-array",
                                f.name
                            )))
                        }
                    }
                    stack.push(i);
                }
                Expr::Binary(_, l, r) => {
                    stack.push(l);
                    stack.push(r);
                }
                Expr::Unary(_, x) => stack.push(x),
            }
        }
        Ok(())
    };

    for b in &f.blocks {
        for inst in &b.instrs {
            match &inst.op {
                Op::Skip => {}
                Op::Bind { var, src } => {
                    check_binding(var)?;
                    check_expr(src, "binding")?;
                }
                Op::Assign { place, src } => {
                    check_expr(src, "assignment")?;
                    match place {
                        Place::Var(x) => {
                            if !known(x) {
                                return Err(IrError::validate(format!(
                                    "assignment to unknown variable `{x}` in `{}`",
                                    f.name
                                )));
                            }
                            if let Some(g) = p.global(x) {
                                if g.array_len.is_some() {
                                    return Err(IrError::validate(format!(
                                        "array `{x}` assigned without an index in `{}`",
                                        f.name
                                    )));
                                }
                            }
                            if params.get(x) == Some(&true) {
                                return Err(IrError::validate(format!(
                                    "reference parameter `{x}` reassigned in `{}`; store through `*{x}` instead",
                                    f.name
                                )));
                            }
                        }
                        Place::Index(a, i) => {
                            match p.global(a) {
                                Some(g) if g.array_len.is_some() => {}
                                _ => {
                                    return Err(IrError::validate(format!(
                                        "`{a}[..] =` in `{}` stores to a non-array",
                                        f.name
                                    )))
                                }
                            }
                            check_expr(i, "array index")?;
                        }
                        Place::Deref(x) => {
                            if params.get(x) != Some(&true) {
                                return Err(IrError::validate(format!(
                                    "`*{x} =` in `{}` stores through a non-reference",
                                    f.name
                                )));
                            }
                        }
                    }
                }
                Op::Input { var, sensor } => {
                    check_binding(var)?;
                    if !p.is_sensor(sensor) {
                        return Err(IrError::validate(format!(
                            "input from undeclared sensor `{sensor}` in `{}`",
                            f.name
                        )));
                    }
                }
                Op::Call { dst, callee, args } => {
                    if let Some(d) = dst {
                        check_binding(d)?;
                    }
                    let callee_fn = p.func(*callee);
                    if callee_fn.params.len() != args.len() {
                        return Err(IrError::validate(format!(
                            "call to `{}` in `{}` passes {} args but it takes {}",
                            callee_fn.name,
                            f.name,
                            args.len(),
                            callee_fn.params.len()
                        )));
                    }
                    let mut ref_targets = HashSet::new();
                    for (a, param) in args.iter().zip(&callee_fn.params) {
                        match a {
                            Arg::Value(e) => {
                                if param.by_ref {
                                    return Err(IrError::validate(format!(
                                        "call to `{}` in `{}`: parameter `{}` needs `&`",
                                        callee_fn.name, f.name, param.name
                                    )));
                                }
                                check_expr(e, "call argument")?;
                            }
                            Arg::Ref(x) => {
                                if !param.by_ref {
                                    return Err(IrError::validate(format!(
                                        "call to `{}` in `{}`: parameter `{}` is by-value but got `&{x}`",
                                        callee_fn.name, f.name, param.name
                                    )));
                                }
                                let is_forwarded_ref = params.get(x) == Some(&true);
                                if !known(x) {
                                    return Err(IrError::validate(format!(
                                        "`&{x}` in `{}` references an unknown variable",
                                        f.name
                                    )));
                                }
                                if let Some(g) = p.global(x) {
                                    if g.array_len.is_some() {
                                        return Err(IrError::validate(format!(
                                            "`&{x}` in `{}` references a whole array",
                                            f.name
                                        )));
                                    }
                                }
                                let _ = is_forwarded_ref;
                                if !ref_targets.insert(x.clone()) {
                                    return Err(IrError::validate(format!(
                                        "call to `{}` in `{}` passes `&{x}` twice (aliasing mutable borrows)",
                                        callee_fn.name, f.name
                                    )));
                                }
                            }
                        }
                    }
                }
                Op::Output { args, .. } => {
                    for e in args {
                        check_expr(e, "output argument")?;
                    }
                }
                // Bound annotations carry a placeholder ident, not a
                // variable — there is nothing to resolve.
                Op::Annot {
                    kind: crate::ir::AnnotKind::Bound(_),
                    ..
                } => {}
                Op::Annot { var, .. } => {
                    if !known(var) {
                        return Err(IrError::validate(format!(
                            "annotation on unknown variable `{var}` in `{}`",
                            f.name
                        )));
                    }
                }
                Op::AtomStart { .. } | Op::AtomEnd { .. } => {}
            }
        }
        if let crate::ir::Terminator::Branch { cond, .. } = &b.term {
            check_expr(cond, "branch condition")?;
        }
        if let crate::ir::Terminator::Ret(Some(e)) = &b.term {
            check_expr(e, "return value")?;
        }
    }

    check_region_pairing(f)?;
    Ok(())
}

/// Checks that every region id opened in `f` is also closed in `f`, and
/// vice versa. (Start/end of one region must live in the same function —
/// Algorithm 1 places both in the goal function.)
fn check_region_pairing(f: &Function) -> Result<()> {
    let mut starts: HashMap<RegionId, usize> = HashMap::new();
    let mut ends: HashMap<RegionId, usize> = HashMap::new();
    for (_, inst) in f.iter_insts() {
        match inst.op {
            Op::AtomStart { region } => *starts.entry(region).or_insert(0) += 1,
            Op::AtomEnd { region } => *ends.entry(region).or_insert(0) += 1,
            _ => {}
        }
    }
    for (r, n) in &starts {
        if ends.get(r) != Some(n) {
            return Err(IrError::validate(format!(
                "atomic region {r:?} opened {n} time(s) in `{}` but closed {} time(s)",
                f.name,
                ends.get(r).copied().unwrap_or(0)
            )));
        }
    }
    for r in ends.keys() {
        if !starts.contains_key(r) {
            return Err(IrError::validate(format!(
                "atomic region {r:?} closed in `{}` without a start",
                f.name
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::compile;

    fn check(src: &str) -> Result<()> {
        validate(&compile(src)?)
    }

    #[test]
    fn accepts_well_formed_program() {
        check(
            r#"
            sensor temp;
            nv log[8];
            nv count = 0;
            fn norm(v) { return v * 2; }
            fn sense(&dst) {
                let t = in(temp);
                let n = norm(t);
                *dst = n;
            }
            fn main() {
                let x = 0;
                sense(&x);
                log[count] = x;
                count = count + 1;
            }
            "#,
        )
        .unwrap();
    }

    #[test]
    fn rejects_undeclared_sensor() {
        let err = check("fn main() { let x = in(ghost); }").unwrap_err();
        assert!(err.to_string().contains("ghost"));
    }

    #[test]
    fn rejects_unknown_variable_use() {
        let err = check("fn main() { let x = y + 1; }").unwrap_err();
        assert!(err.to_string().contains('y'));
    }

    #[test]
    fn rejects_deref_of_non_reference() {
        let err = check("fn main() { let x = 1; let y = *x; }").unwrap_err();
        assert!(err.to_string().contains("*x"));
    }

    #[test]
    fn rejects_arity_mismatch() {
        let err = check("fn f(a, b) {} fn main() { f(1); }").unwrap_err();
        assert!(err.to_string().contains("1 args"));
    }

    #[test]
    fn rejects_missing_ref_marker() {
        let err = check("fn f(&a) {} fn main() { let x = 1; f(x); }").unwrap_err();
        assert!(err.to_string().contains("needs `&`"));
    }

    #[test]
    fn rejects_ref_to_by_value_param() {
        let err = check("fn f(a) {} fn main() { let x = 1; f(&x); }").unwrap_err();
        assert!(err.to_string().contains("by-value"));
    }

    #[test]
    fn rejects_aliasing_mutable_borrows() {
        let err = check("fn f(&a, &b) {} fn main() { let x = 1; f(&x, &x); }").unwrap_err();
        assert!(err.to_string().contains("twice"));
    }

    #[test]
    fn rejects_recursion() {
        let err = check("fn main() { main(); }").unwrap_err();
        assert!(err.to_string().contains("recursi"));
    }

    #[test]
    fn rejects_indexing_scalar() {
        let err = check("nv g = 0; fn main() { let x = g[0]; }").unwrap_err();
        assert!(err.to_string().contains("non-array"));
    }

    #[test]
    fn rejects_whole_array_read() {
        let err = check("nv a[4]; fn main() { let x = a; }").unwrap_err();
        assert!(err.to_string().contains("without an index"));
    }

    #[test]
    fn rejects_store_to_undeclared_array() {
        let err = check("fn main() { a[0] = 1; }").unwrap_err();
        assert!(err.to_string().contains("non-array"));
    }

    #[test]
    fn accepts_manual_atomic_blocks() {
        check("sensor s; fn main() { atomic { let x = in(s); out(log, x); } }").unwrap();
    }

    #[test]
    fn rejects_reassigning_ref_param() {
        let err = check("fn f(&a) { a = 3; } fn main() { let x = 1; f(&x); }").unwrap_err();
        assert!(err.to_string().contains("store through"));
    }

    #[test]
    fn rejects_main_with_parameters() {
        let err = check("fn main(&r) { *r = 1; }").unwrap_err();
        assert!(err.to_string().contains("`main` takes parameters"), "{err}");
        assert!(check("fn main(a) { out(log, a); }").is_err());
    }

    #[test]
    fn rejects_bindings_of_undeclared_locals() {
        // An input, a `let` and a call destination, each stripped from
        // the declared locals in turn.
        let src =
            "sensor s; fn f() { return 1; } fn main() { let x = in(s); let y = x; let z = f(); }";
        for var in ["x", "y", "z"] {
            let mut p = compile(src).unwrap();
            validate(&p).unwrap();
            let main = p.main;
            p.func_mut(main).locals.retain(|l| l != var);
            let err = validate(&p).unwrap_err().to_string();
            assert!(
                err.contains(&format!("`{var}` is bound in `main`")),
                "{err}"
            );
        }
    }

    #[test]
    fn rejects_bindings_of_reference_parameter_names() {
        // A `let`, an input and a call destination, each rebinding the
        // name of the function's by-ref parameter `r`.
        for body in ["let r = 1;", "let r = in(s);", "let r = g();"] {
            let src = format!(
                "sensor s; fn g() {{ return 1; }} fn f(&r) {{ {body} out(log, r); }} \
                 fn main() {{ let x = 0; f(&x); }}"
            );
            let err = check(&src).unwrap_err().to_string();
            assert!(
                err.contains("`r` is bound in `f`, which takes it as a reference parameter"),
                "{body}: {err}"
            );
        }
        // A by-value parameter may still be rebound.
        check("fn f(a) { let a = a + 1; out(log, a); } fn main() { f(1); }").unwrap();
    }

    #[test]
    fn rejects_duplicate_globals() {
        for src in [
            "nv g = 1; nv g = 2; fn main() { g = g + 1; }",
            "nv g = 1; nv g[2]; fn main() { g = 1; }",
        ] {
            let err = check(src).unwrap_err().to_string();
            assert!(err.contains("global `g` is declared twice"), "{err}");
        }
    }

    #[test]
    fn rejects_zero_length_arrays() {
        let err = check("nv a[0]; fn main() { a[0] = 1; }")
            .unwrap_err()
            .to_string();
        assert!(err.contains("array `a` is declared with length 0"), "{err}");
        check("nv a[1]; fn main() { a[0] = 1; }").unwrap();
    }

    #[test]
    fn global_scalar_reads_and_writes_ok() {
        check("nv g = 5; fn main() { let x = g; g = x + 1; }").unwrap();
    }
}
