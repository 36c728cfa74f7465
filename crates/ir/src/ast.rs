//! Abstract syntax tree of the Ocelot modeling language.
//!
//! This is the language of Appendix A of the paper, extended with the two
//! timing annotations of §4.2 (`let fresh` / `let consistent(n)` and the
//! statement forms `fresh(x)` / `consistent(x, n)`), bounded `repeat`
//! loops, input channels (`sensor` declarations plus `in(chan)`), output
//! operations (`out(chan, e...)`), and explicit `atomic { ... }` regions
//! for programs that place regions manually (§8).

use crate::span::Span;
use std::fmt;

/// An identifier (variable, function, sensor, or channel name).
pub type Ident = String;

/// Binary operators `e1 ⊙ e2`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` (integer division; division by zero evaluates to 0 in the
    /// interpreter, mirroring a saturating embedded ALU)
    Div,
    /// `%`
    Rem,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&`
    And,
    /// `||`
    Or,
}

impl BinOp {
    /// The surface-syntax spelling of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "&&",
            BinOp::Or => "||",
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// Unary operators `⊘ e`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// `-`
    Neg,
    /// `!`
    Not,
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            UnOp::Neg => "-",
            UnOp::Not => "!",
        })
    }
}

/// Expressions `e`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// An integer literal.
    Int(i64),
    /// A boolean literal.
    Bool(bool),
    /// A variable read `x`.
    Var(Ident),
    /// An array element read `a[e]`.
    Index(Ident, Box<Expr>),
    /// A dereference read `*x`.
    Deref(Ident),
    /// Taking a reference `&x` (only valid as a call argument).
    Ref(Ident),
    /// `e1 ⊙ e2`.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// `⊘ e`.
    Unary(UnOp, Box<Expr>),
}

impl Expr {
    /// Collects every variable mentioned by the expression into `out`,
    /// including array bases and dereferenced/referenced variables.
    pub(crate) fn collect_vars(&self, out: &mut Vec<Ident>) {
        match self {
            Expr::Int(_) | Expr::Bool(_) => {}
            Expr::Var(x) | Expr::Deref(x) | Expr::Ref(x) => out.push(x.clone()),
            Expr::Index(a, i) => {
                out.push(a.clone());
                i.collect_vars(out);
            }
            Expr::Binary(_, l, r) => {
                l.collect_vars(out);
                r.collect_vars(out);
            }
            Expr::Unary(_, e) => e.collect_vars(out),
        }
    }

    /// Returns all variables mentioned by the expression.
    pub fn vars(&self) -> Vec<Ident> {
        let mut out = Vec::new();
        self.collect_vars(&mut out);
        out
    }
}

/// A call argument: either an expression passed by value or `&x` passed by
/// mutable reference (the paper's `pbr` parameters).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Arg {
    /// Pass-by-value expression.
    Value(Expr),
    /// Pass-by-mutable-reference `&x`.
    Ref(Ident),
}

/// Statements of the surface language.
///
/// Surface statements are block-scoped rather than the formal `let x = e in
/// c` nesting; the two are interconvertible and the block form matches the
/// Rust programs the paper's tool consumes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Stmt {
    /// `skip;`
    Skip(Span),
    /// `let x = e;`
    Let(Ident, Expr, Span),
    /// `let fresh x = e;` — binds `x` and declares a freshness policy.
    LetFresh(Ident, Expr, Span),
    /// `let consistent(n) x = e;` — binds `x` into consistent set `n`.
    LetConsistent(u32, Ident, Expr, Span),
    /// `let x = f(args);`
    LetCall(Ident, Ident, Vec<Arg>, Span),
    /// `let x = in(chan);` — input operation on sensor channel `chan`.
    LetInput(Ident, Ident, Span),
    /// `x = e;` — assignment to an already-bound variable or global.
    Assign(Ident, Expr, Span),
    /// `a[i] = e;`
    AssignIndex(Ident, Expr, Expr, Span),
    /// `*x = e;` — store through a reference.
    AssignDeref(Ident, Expr, Span),
    /// `fresh(x);` — statement-form freshness annotation on existing `x`.
    FreshAnnot(Ident, Span),
    /// `consistent(x, n);` — statement-form consistency annotation.
    ConsistentAnnot(Ident, u32, Span),
    /// `if e { .. } else { .. }` (else optional).
    If(Expr, Block, Option<Block>, Span),
    /// `repeat n { .. }` — bounded loop with a static trip count.
    Repeat(u64, Block, Span),
    /// `while e { .. }` — loop with a re-evaluated condition. The
    /// paper's formal model presents bounded loops only ("unbounded
    /// loops do not introduce technical difficulties", §4.1); the
    /// toolchain supports them, and the forward-progress analysis
    /// recovers a trip count from monotone-counter shapes or from an
    /// explicit `while e @bound k { .. }` declaration (the `Option`
    /// here), reporting everything else as unbounded.
    While(Expr, Option<u64>, Block, Span),
    /// `atomic { .. }` — a manually-placed atomic region (§8).
    Atomic(Block, Span),
    /// `f(args);` — call for effect, result discarded.
    Call(Ident, Vec<Arg>, Span),
    /// `out(chan, e...);` — output operation.
    Out(Ident, Vec<Expr>, Span),
    /// `return e;` / `return;`
    Return(Option<Expr>, Span),
}

impl Stmt {
    /// The source span of the statement.
    pub fn span(&self) -> Span {
        match self {
            Stmt::Skip(s)
            | Stmt::Let(_, _, s)
            | Stmt::LetFresh(_, _, s)
            | Stmt::LetConsistent(_, _, _, s)
            | Stmt::LetCall(_, _, _, s)
            | Stmt::LetInput(_, _, s)
            | Stmt::Assign(_, _, s)
            | Stmt::AssignIndex(_, _, _, s)
            | Stmt::AssignDeref(_, _, s)
            | Stmt::FreshAnnot(_, s)
            | Stmt::ConsistentAnnot(_, _, s)
            | Stmt::If(_, _, _, s)
            | Stmt::Repeat(_, _, s)
            | Stmt::While(_, _, _, s)
            | Stmt::Atomic(_, s)
            | Stmt::Call(_, _, s)
            | Stmt::Out(_, _, s)
            | Stmt::Return(_, s) => *s,
        }
    }
}

/// A `{ ... }` block of statements.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Block {
    /// The statements, in order.
    pub(crate) stmts: Vec<Stmt>,
}

impl Block {
    /// Creates a block from statements.
    pub(crate) fn new(stmts: Vec<Stmt>) -> Self {
        Block { stmts }
    }
}

/// A function parameter: by-value or by-mutable-reference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Param {
    /// Parameter name.
    pub name: Ident,
    /// True for `&x` reference parameters.
    pub by_ref: bool,
}

/// A function declaration `fn f(params) { body }`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct FunDecl {
    /// Function name.
    pub name: Ident,
    /// Parameters, in order.
    pub(crate) params: Vec<Param>,
    /// Function body.
    pub(crate) body: Block,
    /// Source span of the declaration header.
    pub(crate) span: Span,
}

/// A non-volatile global declaration `nv g = 0;` or `nv a[16];`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct GlobalDecl {
    /// Global name.
    pub name: Ident,
    /// For arrays, the static length; scalars are `None`.
    pub array_len: Option<usize>,
    /// Initial value for scalars (arrays zero-initialize).
    pub init: i64,
    /// Source span.
    pub(crate) span: Span,
}

/// A sensor (input channel) declaration `sensor temp;`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SensorDecl {
    /// Channel name referenced by `in(name)`.
    pub name: Ident,
    /// Source span.
    pub(crate) span: Span,
}

/// A complete source program: sensors, globals, and functions (one of
/// which must be `main`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AstProgram {
    /// Declared input channels.
    pub(crate) sensors: Vec<SensorDecl>,
    /// Declared non-volatile globals.
    pub(crate) globals: Vec<GlobalDecl>,
    /// Declared functions.
    pub(crate) funcs: Vec<FunDecl>,
}

impl AstProgram {
    /// Looks up a function declaration by name (unit tests).
    #[cfg(test)]
    pub(crate) fn func(&self, name: &str) -> Option<&FunDecl> {
        self.funcs.iter().find(|f| f.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_vars_collects_all_mentions() {
        // a[i] + *p && !q
        let e = Expr::Binary(
            BinOp::And,
            Box::new(Expr::Binary(
                BinOp::Add,
                Box::new(Expr::Index("a".into(), Box::new(Expr::Var("i".into())))),
                Box::new(Expr::Deref("p".into())),
            )),
            Box::new(Expr::Unary(UnOp::Not, Box::new(Expr::Var("q".into())))),
        );
        assert_eq!(e.vars(), vec!["a", "i", "p", "q"]);
    }

    #[test]
    fn binop_symbols_are_distinct() {
        use std::collections::HashSet;
        let all = [
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::Div,
            BinOp::Rem,
            BinOp::Eq,
            BinOp::Ne,
            BinOp::Lt,
            BinOp::Le,
            BinOp::Gt,
            BinOp::Ge,
            BinOp::And,
            BinOp::Or,
        ];
        let set: HashSet<_> = all.iter().map(|o| o.symbol()).collect();
        assert_eq!(set.len(), all.len());
    }

    #[test]
    fn stmt_span_accessor_matches() {
        let s = Stmt::Skip(Span::new(3, 8));
        assert_eq!(s.span(), Span::new(3, 8));
    }
}
