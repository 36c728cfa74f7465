//! Fluent, programmatic construction of modeling-language programs.
//!
//! The builder produces an [`AstProgram`] and hands it to the standard
//! lowering pipeline, so programs built here go through exactly the same
//! alpha-renaming, CFG construction, and validation as parsed source.
//!
//! # Examples
//!
//! ```
//! use ocelot_ir::builder::ProgramBuilder;
//!
//! let program = ProgramBuilder::new()
//!     .sensor("temp")
//!     .function("main", &[], |b| {
//!         b.input("t", "temp");
//!         b.fresh("t");
//!         b.if_gt_const("t", 30, |b| {
//!             b.out("alarm", &["t"]);
//!         });
//!     })
//!     .build()
//!     .unwrap();
//! assert_eq!(program.sensors.len(), 1);
//! ```

use crate::ast::*;
use crate::error::Result;
use crate::ir::Program;
use crate::lower;
use crate::span::Span;

/// Builds a whole program declaration by declaration.
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    ast: AstProgram,
}

impl ProgramBuilder {
    /// Creates an empty program builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a sensor channel.
    pub fn sensor(mut self, name: &str) -> Self {
        self.ast.sensors.push(SensorDecl {
            name: name.into(),
            span: Span::default(),
        });
        self
    }

    /// Declares a non-volatile scalar global.
    pub fn global(mut self, name: &str, init: i64) -> Self {
        self.ast.globals.push(GlobalDecl {
            name: name.into(),
            array_len: None,
            init,
            span: Span::default(),
        });
        self
    }

    /// Declares a non-volatile global array of `len` zero-initialized cells.
    pub fn global_array(mut self, name: &str, len: usize) -> Self {
        self.ast.globals.push(GlobalDecl {
            name: name.into(),
            array_len: Some(len),
            init: 0,
            span: Span::default(),
        });
        self
    }

    /// Declares a function; `params` entries starting with `&` are
    /// by-mutable-reference. The body is described with a [`BodyBuilder`].
    pub fn function(
        mut self,
        name: &str,
        params: &[&str],
        f: impl FnOnce(&mut BodyBuilder),
    ) -> Self {
        let params = params
            .iter()
            .map(|p| match p.strip_prefix('&') {
                Some(rest) => Param {
                    name: rest.into(),
                    by_ref: true,
                },
                None => Param {
                    name: (*p).into(),
                    by_ref: false,
                },
            })
            .collect();
        let mut body = BodyBuilder::default();
        f(&mut body);
        self.ast.funcs.push(FunDecl {
            name: name.into(),
            params,
            body: Block::new(body.stmts),
            span: Span::default(),
        });
        self
    }

    /// The AST built so far (for tests that want to inspect it).
    pub fn ast(&self) -> &AstProgram {
        &self.ast
    }

    /// Lowers and returns the program.
    ///
    /// # Errors
    ///
    /// Propagates lowering errors (e.g. calls to undeclared functions).
    pub fn build(self) -> Result<Program> {
        lower::lower(self.ast)
    }

    /// Lowers and validates the program.
    ///
    /// # Errors
    ///
    /// Propagates lowering and validation errors.
    pub fn build_validated(self) -> Result<Program> {
        let p = lower::lower(self.ast)?;
        crate::validate::validate(&p)?;
        Ok(p)
    }
}

/// Builds one function body statement by statement.
#[derive(Debug, Default)]
pub struct BodyBuilder {
    stmts: Vec<Stmt>,
}

impl BodyBuilder {
    fn push(&mut self, s: Stmt) -> &mut Self {
        self.stmts.push(s);
        self
    }

    /// `skip;`
    pub fn skip(&mut self) -> &mut Self {
        self.push(Stmt::Skip(Span::default()))
    }

    /// `let name = expr;` where `expr` is given in surface syntax.
    pub fn let_(&mut self, name: &str, expr: impl IntoExpr) -> &mut Self {
        self.push(Stmt::Let(name.into(), expr.into_expr(), Span::default()))
    }

    /// `let name = in(sensor);`
    pub fn input(&mut self, name: &str, sensor: &str) -> &mut Self {
        self.push(Stmt::LetInput(name.into(), sensor.into(), Span::default()))
    }

    /// `let name = callee(args);`
    pub fn call(&mut self, name: &str, callee: &str, args: &[&str]) -> &mut Self {
        let args = args.iter().map(|a| parse_arg(a)).collect();
        self.push(Stmt::LetCall(
            name.into(),
            callee.into(),
            args,
            Span::default(),
        ))
    }

    /// `callee(args);` for effect.
    pub fn call_void(&mut self, callee: &str, args: &[&str]) -> &mut Self {
        let args = args.iter().map(|a| parse_arg(a)).collect();
        self.push(Stmt::CallStmt(callee.into(), args, Span::default()))
    }

    /// `name = expr;`
    pub fn assign(&mut self, name: &str, expr: impl IntoExpr) -> &mut Self {
        self.push(Stmt::Assign(name.into(), expr.into_expr(), Span::default()))
    }

    /// `array[index] = expr;`
    pub fn assign_index(
        &mut self,
        array: &str,
        index: impl IntoExpr,
        expr: impl IntoExpr,
    ) -> &mut Self {
        self.push(Stmt::AssignIndex(
            array.into(),
            index.into_expr(),
            expr.into_expr(),
            Span::default(),
        ))
    }

    /// `*name = expr;`
    pub fn store(&mut self, name: &str, expr: impl IntoExpr) -> &mut Self {
        self.push(Stmt::AssignDeref(
            name.into(),
            expr.into_expr(),
            Span::default(),
        ))
    }

    /// `fresh(name);`
    pub fn fresh(&mut self, name: &str) -> &mut Self {
        self.push(Stmt::FreshAnnot(name.into(), Span::default()))
    }

    /// `consistent(name, id);`
    pub fn consistent(&mut self, name: &str, id: u32) -> &mut Self {
        self.push(Stmt::ConsistentAnnot(name.into(), id, Span::default()))
    }

    /// `if var > k { then }`
    pub fn if_gt_const(
        &mut self,
        var: &str,
        k: i64,
        then: impl FnOnce(&mut BodyBuilder),
    ) -> &mut Self {
        let mut tb = BodyBuilder::default();
        then(&mut tb);
        self.push(Stmt::If(
            Expr::Binary(
                BinOp::Gt,
                Box::new(Expr::Var(var.into())),
                Box::new(Expr::Int(k)),
            ),
            Block::new(tb.stmts),
            None,
            Span::default(),
        ))
    }

    /// `if cond { then } else { else_ }` with an arbitrary condition.
    pub fn if_else(
        &mut self,
        cond: impl IntoExpr,
        then: impl FnOnce(&mut BodyBuilder),
        else_: impl FnOnce(&mut BodyBuilder),
    ) -> &mut Self {
        let mut tb = BodyBuilder::default();
        then(&mut tb);
        let mut eb = BodyBuilder::default();
        else_(&mut eb);
        self.push(Stmt::If(
            cond.into_expr(),
            Block::new(tb.stmts),
            Some(Block::new(eb.stmts)),
            Span::default(),
        ))
    }

    /// `if cond { then }` with an arbitrary condition.
    pub fn if_(&mut self, cond: impl IntoExpr, then: impl FnOnce(&mut BodyBuilder)) -> &mut Self {
        let mut tb = BodyBuilder::default();
        then(&mut tb);
        self.push(Stmt::If(
            cond.into_expr(),
            Block::new(tb.stmts),
            None,
            Span::default(),
        ))
    }

    /// `repeat n { body }`
    pub fn repeat(&mut self, n: u64, body: impl FnOnce(&mut BodyBuilder)) -> &mut Self {
        let mut bb = BodyBuilder::default();
        body(&mut bb);
        self.push(Stmt::Repeat(n, Block::new(bb.stmts), Span::default()))
    }

    /// `while cond { body }` — an unbounded loop.
    pub fn while_(
        &mut self,
        cond: impl IntoExpr,
        body: impl FnOnce(&mut BodyBuilder),
    ) -> &mut Self {
        let mut bb = BodyBuilder::default();
        body(&mut bb);
        self.push(Stmt::While(
            cond.into_expr(),
            None,
            Block::new(bb.stmts),
            Span::default(),
        ))
    }

    /// `while cond @bound k { body }` — a loop with a declared trip
    /// count for the forward-progress analysis.
    pub fn while_bounded(
        &mut self,
        cond: impl IntoExpr,
        bound: u64,
        body: impl FnOnce(&mut BodyBuilder),
    ) -> &mut Self {
        let mut bb = BodyBuilder::default();
        body(&mut bb);
        self.push(Stmt::While(
            cond.into_expr(),
            Some(bound),
            Block::new(bb.stmts),
            Span::default(),
        ))
    }

    /// `atomic { body }` — a manually placed region.
    pub fn atomic(&mut self, body: impl FnOnce(&mut BodyBuilder)) -> &mut Self {
        let mut bb = BodyBuilder::default();
        body(&mut bb);
        self.push(Stmt::Atomic(Block::new(bb.stmts), Span::default()))
    }

    /// `out(channel, vars...);`
    pub fn out(&mut self, channel: &str, vars: &[&str]) -> &mut Self {
        let args = vars.iter().map(|v| v.into_expr()).collect();
        self.push(Stmt::Out(channel.into(), args, Span::default()))
    }

    /// `return expr;`
    pub fn ret(&mut self, expr: impl IntoExpr) -> &mut Self {
        self.push(Stmt::Return(Some(expr.into_expr()), Span::default()))
    }
}

fn parse_arg(a: &str) -> Arg {
    match a.strip_prefix('&') {
        Some(rest) => Arg::Ref(rest.into()),
        None => Arg::Value(rest_expr(a)),
    }
}

fn rest_expr(a: &str) -> Expr {
    a.into_expr()
}

/// Conversion into an [`Expr`] for ergonomic builder calls: integers become
/// literals and `&str` is parsed as a surface-syntax expression.
pub trait IntoExpr {
    /// Performs the conversion.
    fn into_expr(self) -> Expr;
}

impl IntoExpr for Expr {
    fn into_expr(self) -> Expr {
        self
    }
}

impl IntoExpr for i64 {
    fn into_expr(self) -> Expr {
        Expr::Int(self)
    }
}

impl IntoExpr for bool {
    fn into_expr(self) -> Expr {
        Expr::Bool(self)
    }
}

impl IntoExpr for &str {
    /// Parses a surface-syntax expression.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not a valid expression; builder inputs are
    /// compile-time program text, so this is a programming error.
    fn into_expr(self) -> Expr {
        parse_expr_str(self).unwrap_or_else(|e| panic!("bad builder expression `{self}`: {e}"))
    }
}

impl IntoExpr for &&str {
    fn into_expr(self) -> Expr {
        (*self).into_expr()
    }
}

/// Parses a standalone expression using the statement parser on a
/// synthetic `let` wrapper.
fn parse_expr_str(src: &str) -> Result<Expr> {
    let wrapped = format!("fn main() {{ let $e = {src}; }}");
    // `$` is not lexable, so use a plain name and fish the initializer out.
    let wrapped = wrapped.replace("$e", "__builder_expr");
    let mut ast = crate::parser::parse(&wrapped)?;
    match ast.funcs.swap_remove(0).body.stmts.swap_remove(0) {
        Stmt::Let(_, e, _) => Ok(e),
        _ => unreachable!("wrapper always parses to a let"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Op;

    #[test]
    fn builder_matches_parsed_equivalent() {
        let built = ProgramBuilder::new()
            .sensor("temp")
            .function("main", &[], |b| {
                b.input("t", "temp");
                b.fresh("t");
                b.if_gt_const("t", 5, |b| {
                    b.out("alarm", &["t"]);
                });
            })
            .build()
            .unwrap();
        let parsed = crate::lower::compile(
            "sensor temp; fn main() { let t = in(temp); fresh(t); if t > 5 { out(alarm, t); } }",
        )
        .unwrap();
        assert_eq!(
            crate::print::program_to_string(&built),
            crate::print::program_to_string(&parsed)
        );
    }

    #[test]
    fn builder_expr_strings_parse() {
        let p = ProgramBuilder::new()
            .global("g", 1)
            .function("main", &[], |b| {
                b.let_("x", "g * 2 + 1");
                b.assign("g", "x");
            })
            .build_validated()
            .unwrap();
        let f = p.func(p.main);
        assert!(f
            .iter_insts()
            .any(|(_, i)| matches!(&i.op, Op::Bind { var, .. } if var == "x")));
    }

    #[test]
    fn builder_ref_args() {
        let p = ProgramBuilder::new()
            .function("store", &["v", "&dst"], |b| {
                b.store("dst", "v");
            })
            .function("main", &[], |b| {
                b.let_("slot", 0);
                b.call_void("store", &["41 + 1", "&slot"]);
            })
            .build_validated()
            .unwrap();
        assert_eq!(p.funcs.len(), 2);
    }

    #[test]
    fn builder_repeat_and_atomic() {
        let p = ProgramBuilder::new()
            .sensor("photo")
            .function("main", &[], |b| {
                b.let_("sum", 0);
                b.repeat(5, |b| {
                    b.input("v", "photo");
                    b.assign("sum", "sum + v");
                });
                b.atomic(|b| {
                    b.out("uart", &["sum"]);
                });
            })
            .build_validated()
            .unwrap();
        let f = p.func(p.main);
        assert!(f
            .iter_insts()
            .any(|(_, i)| matches!(i.op, Op::AtomStart { .. })));
    }

    #[test]
    #[should_panic(expected = "bad builder expression")]
    fn builder_panics_on_bad_expr() {
        let _ = ProgramBuilder::new()
            .function("main", &[], |b| {
                b.let_("x", "1 +");
            })
            .build();
    }
}
