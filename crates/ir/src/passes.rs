//! AST-level transformation passes.
//!
//! * [`unroll_repeats`] — the paper's formal model has no loop
//!   construct: "bound loops can be unrolled to if statements"
//!   (§4.1). This pass performs that unrolling, turning each `repeat n`
//!   into `n` copies of its body. After unrolling, every dynamic input
//!   collection has its own static instruction, which makes the §7.3
//!   bit-vector detector maximally precise and lets region inference
//!   place boundaries between former iterations.
//! * [`fold_constants`] — constant folding over expressions, the usual
//!   compiler hygiene (and it keeps unrolled code from bloating the
//!   cost model with dead arithmetic).

use crate::ast::{Arg, AstProgram, BinOp, Block, Expr, Stmt, UnOp};
use crate::error::{IrError, Result};

/// Replaces every `repeat n { body }` with `n` inlined copies of the
/// body, recursively (inner loops unroll first, so nested repeats
/// multiply). Alpha-renaming during lowering keeps per-copy `let`
/// bindings distinct.
///
/// # Errors
///
/// Returns [`IrError::Lower`] when the total unrolled statement count
/// would exceed `max_stmts` — the same role as the paper's assumption
/// that loops are *bounded*.
pub(crate) fn unroll_repeats(ast: &AstProgram, max_stmts: usize) -> Result<AstProgram> {
    let mut out = ast.clone();
    let mut budget = max_stmts;
    for f in &mut out.funcs {
        f.body = unroll_block(&f.body, &mut budget)?;
    }
    Ok(out)
}

fn unroll_block(block: &Block, budget: &mut usize) -> Result<Block> {
    let mut stmts = Vec::new();
    for s in &block.stmts {
        match s {
            Stmt::Repeat(n, body, span) => {
                let inner = unroll_block(body, budget)?;
                let copies = *n as usize;
                let cost = inner.stmts.len().saturating_mul(copies);
                if cost > *budget {
                    return Err(IrError::lower(format!(
                        "unrolling a repeat {n} would exceed the statement budget"
                    )));
                }
                *budget -= cost;
                for _ in 0..copies {
                    stmts.extend(inner.stmts.iter().cloned());
                }
                let _ = span;
            }
            Stmt::If(c, t, e, span) => {
                stmts.push(Stmt::If(
                    c.clone(),
                    unroll_block(t, budget)?,
                    match e {
                        Some(e) => Some(unroll_block(e, budget)?),
                        None => None,
                    },
                    *span,
                ));
            }
            Stmt::Atomic(b, span) => {
                stmts.push(Stmt::Atomic(unroll_block(b, budget)?, *span));
            }
            Stmt::While(..) => {
                // The formal model's unrolling applies to bounded loops
                // only (§4.1); a `while` has no static trip count.
                return Err(IrError::lower(
                    "cannot unroll a `while` loop: no static trip count",
                ));
            }
            other => stmts.push(other.clone()),
        }
    }
    Ok(Block::new(stmts))
}

/// Folds constant sub-expressions throughout the program
/// (`1 + 2 * 3` → `7`, `!false` → `true`, `if true`-style conditions
/// are left to the caller since branches carry control dependence).
pub(crate) fn fold_constants(ast: &AstProgram) -> AstProgram {
    let mut out = ast.clone();
    for f in &mut out.funcs {
        f.body = fold_block(&f.body);
    }
    out
}

fn fold_block(block: &Block) -> Block {
    Block::new(block.stmts.iter().map(fold_stmt).collect())
}

fn fold_stmt(s: &Stmt) -> Stmt {
    match s {
        Stmt::Let(x, e, sp) => Stmt::Let(x.clone(), fold_expr(e), *sp),
        Stmt::LetFresh(x, e, sp) => Stmt::LetFresh(x.clone(), fold_expr(e), *sp),
        Stmt::LetConsistent(id, x, e, sp) => Stmt::LetConsistent(*id, x.clone(), fold_expr(e), *sp),
        Stmt::LetCall(x, f, args, sp) => Stmt::LetCall(
            x.clone(),
            f.clone(),
            args.iter().map(fold_arg).collect(),
            *sp,
        ),
        Stmt::Call(f, args, sp) => Stmt::Call(f.clone(), args.iter().map(fold_arg).collect(), *sp),
        Stmt::Assign(x, e, sp) => Stmt::Assign(x.clone(), fold_expr(e), *sp),
        Stmt::AssignIndex(a, i, e, sp) => {
            Stmt::AssignIndex(a.clone(), fold_expr(i), fold_expr(e), *sp)
        }
        Stmt::AssignDeref(x, e, sp) => Stmt::AssignDeref(x.clone(), fold_expr(e), *sp),
        Stmt::If(c, t, e, sp) => {
            Stmt::If(fold_expr(c), fold_block(t), e.as_ref().map(fold_block), *sp)
        }
        Stmt::Repeat(n, b, sp) => Stmt::Repeat(*n, fold_block(b), *sp),
        Stmt::While(c, bound, b, sp) => Stmt::While(fold_expr(c), *bound, fold_block(b), *sp),
        Stmt::Atomic(b, sp) => Stmt::Atomic(fold_block(b), *sp),
        Stmt::Out(ch, args, sp) => Stmt::Out(ch.clone(), args.iter().map(fold_expr).collect(), *sp),
        Stmt::Return(e, sp) => Stmt::Return(e.as_ref().map(fold_expr), *sp),
        other => other.clone(),
    }
}

fn fold_arg(a: &Arg) -> Arg {
    match a {
        Arg::Value(e) => Arg::Value(fold_expr(e)),
        Arg::Ref(x) => Arg::Ref(x.clone()),
    }
}

/// Folds one expression bottom-up.
pub(crate) fn fold_expr(e: &Expr) -> Expr {
    match e {
        Expr::Binary(op, l, r) => {
            let l = fold_expr(l);
            let r = fold_expr(r);
            match (&l, &r) {
                (Expr::Int(a), Expr::Int(b)) => fold_int_binop(*op, *a, *b),
                (Expr::Bool(a), Expr::Bool(b)) => match op {
                    BinOp::And => Expr::Bool(*a && *b),
                    BinOp::Or => Expr::Bool(*a || *b),
                    BinOp::Eq => Expr::Bool(a == b),
                    BinOp::Ne => Expr::Bool(a != b),
                    _ => Expr::Binary(*op, Box::new(l), Box::new(r)),
                },
                // Algebraic identities that need no operand knowledge.
                (Expr::Int(0), _) if *op == BinOp::Add => r,
                (_, Expr::Int(0)) if *op == BinOp::Add || *op == BinOp::Sub => l,
                (_, Expr::Int(1)) if *op == BinOp::Mul || *op == BinOp::Div => l,
                (Expr::Int(1), _) if *op == BinOp::Mul => r,
                _ => Expr::Binary(*op, Box::new(l), Box::new(r)),
            }
        }
        Expr::Unary(op, x) => {
            let x = fold_expr(x);
            match (&op, &x) {
                (UnOp::Neg, Expr::Int(n)) => Expr::Int(n.wrapping_neg()),
                (UnOp::Not, Expr::Bool(b)) => Expr::Bool(!b),
                _ => Expr::Unary(*op, Box::new(x)),
            }
        }
        Expr::Index(a, i) => Expr::Index(a.clone(), Box::new(fold_expr(i))),
        other => other.clone(),
    }
}

fn fold_int_binop(op: BinOp, a: i64, b: i64) -> Expr {
    match op {
        BinOp::Add => Expr::Int(a.wrapping_add(b)),
        BinOp::Sub => Expr::Int(a.wrapping_sub(b)),
        BinOp::Mul => Expr::Int(a.wrapping_mul(b)),
        BinOp::Div => Expr::Int(if b == 0 { 0 } else { a.wrapping_div(b) }),
        BinOp::Rem => Expr::Int(if b == 0 { 0 } else { a.wrapping_rem(b) }),
        BinOp::Eq => Expr::Bool(a == b),
        BinOp::Ne => Expr::Bool(a != b),
        BinOp::Lt => Expr::Bool(a < b),
        BinOp::Le => Expr::Bool(a <= b),
        BinOp::Gt => Expr::Bool(a > b),
        BinOp::Ge => Expr::Bool(a >= b),
        BinOp::And => Expr::Bool(a != 0 && b != 0),
        BinOp::Or => Expr::Bool(a != 0 || b != 0),
    }
}

/// Convenience: parse, unroll bounded loops, fold constants, and lower.
///
/// # Errors
///
/// Propagates parse, unroll-budget, and lowering errors.
pub fn compile_unrolled(src: &str, max_stmts: usize) -> Result<crate::ir::Program> {
    let ast = crate::parser::parse(src)?;
    let ast = unroll_repeats(&ast, max_stmts)?;
    let ast = fold_constants(&ast);
    crate::lower::lower(ast)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn unroll_replicates_bodies() {
        let ast =
            parse("sensor s; fn main() { repeat 3 { let v = in(s); out(log, v); } }").unwrap();
        let u = unroll_repeats(&ast, 1000).unwrap();
        let main = u.func("main").unwrap();
        assert_eq!(main.body.stmts.len(), 6, "3 copies × 2 statements");
        assert!(main
            .body
            .stmts
            .iter()
            .all(|s| !matches!(s, Stmt::Repeat(..))));
    }

    #[test]
    fn nested_unroll_multiplies() {
        let ast =
            parse("sensor s; fn main() { repeat 2 { repeat 3 { let v = in(s); } } }").unwrap();
        let u = unroll_repeats(&ast, 1000).unwrap();
        assert_eq!(u.func("main").unwrap().body.stmts.len(), 6);
    }

    #[test]
    fn unroll_budget_is_enforced() {
        let ast = parse("fn main() { repeat 100 { skip; skip; skip; } }").unwrap();
        assert!(unroll_repeats(&ast, 100).is_err());
        assert!(unroll_repeats(&ast, 300).is_ok());
    }

    #[test]
    fn unroll_rejects_while_loops() {
        let ast = parse("nv g = 1; fn main() { while g > 0 { g = g - 1; } }").unwrap();
        let err = unroll_repeats(&ast, 1000).unwrap_err();
        assert!(err.to_string().contains("while"), "{err}");
    }

    #[test]
    fn fold_recurses_into_while() {
        let ast = parse("nv g = 1; fn main() { while g > 0 { g = 1 + 2; } }").unwrap();
        let folded = fold_constants(&ast);
        let main = folded.func("main").unwrap();
        match &main.body.stmts[0] {
            Stmt::While(_, _, body, _) => match &body.stmts[0] {
                Stmt::Assign(_, Expr::Int(3), _) => {}
                other => panic!("not folded: {other:?}"),
            },
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn unrolled_program_executes_identically() {
        // Lower both forms and check the loop math agrees via the count
        // of input instructions.
        let src = "sensor s; fn main() { let sum = 0; repeat 4 { let v = in(s); sum = sum + v; } out(log, sum); }";
        let rolled = crate::lower::compile(src).unwrap();
        let unrolled = compile_unrolled(src, 10_000).unwrap();
        assert_eq!(rolled.input_ops().len(), 1, "one static op in the loop");
        assert_eq!(unrolled.input_ops().len(), 4, "four static ops unrolled");
    }

    #[test]
    fn fold_evaluates_constant_arithmetic() {
        assert_eq!(fold_expr(&parse_expr("1 + 2 * 3")), Expr::Int(7));
        assert_eq!(
            fold_expr(&parse_expr("10 / 0")),
            Expr::Int(0),
            "saturating div"
        );
        assert_eq!(fold_expr(&parse_expr("4 > 3")), Expr::Bool(true));
        assert_eq!(fold_expr(&parse_expr("-(5)")), Expr::Int(-5));
    }

    #[test]
    fn fold_applies_identities() {
        assert_eq!(fold_expr(&parse_expr("x + 0")), Expr::Var("x".into()));
        assert_eq!(fold_expr(&parse_expr("0 + x")), Expr::Var("x".into()));
        assert_eq!(fold_expr(&parse_expr("x * 1")), Expr::Var("x".into()));
        assert_eq!(fold_expr(&parse_expr("x - 0")), Expr::Var("x".into()));
    }

    #[test]
    fn fold_preserves_non_constant_structure() {
        let e = parse_expr("x * 2 + g");
        assert_eq!(fold_expr(&e), e);
    }

    #[test]
    fn fold_descends_into_statements() {
        let ast = parse("fn main() { let x = 2 + 3; if x > 1 + 1 { out(log, x); } }").unwrap();
        let folded = fold_constants(&ast);
        match &folded.func("main").unwrap().body.stmts[0] {
            Stmt::Let(_, Expr::Int(5), _) => {}
            other => panic!("expected folded let, got {other:?}"),
        }
        match &folded.func("main").unwrap().body.stmts[1] {
            Stmt::If(Expr::Binary(BinOp::Gt, _, rhs), ..) => {
                assert_eq!(**rhs, Expr::Int(2));
            }
            other => panic!("expected folded if, got {other:?}"),
        }
    }

    fn parse_expr(src: &str) -> Expr {
        let wrapped = format!("fn main() {{ let tmpvar = {src}; }}");
        let ast = parse(&wrapped).unwrap();
        match &ast.funcs[0].body.stmts[0] {
            Stmt::Let(_, e, _) => e.clone(),
            _ => unreachable!(),
        }
    }
}
