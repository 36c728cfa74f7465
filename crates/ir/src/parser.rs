//! Recursive-descent parser for the Ocelot modeling language.
//!
//! Grammar (see [`crate::ast`] for node meanings):
//!
//! ```text
//! program   := (sensor | global | function)*
//! sensor    := "sensor" IDENT ";"
//! global    := "nv" IDENT ("[" INT "]")? ("=" INT)? ";"
//! function  := "fn" IDENT "(" params? ")" block
//! params    := param ("," param)*       param := "&"? IDENT
//! block     := "{" stmt* "}"
//! stmt      := "skip" ";"
//!            | "let" "fresh" IDENT "=" expr ";"
//!            | "let" "consistent" "(" INT ")" IDENT "=" expr ";"
//!            | "let" IDENT "=" "in" "(" IDENT ")" ";"
//!            | "let" IDENT "=" IDENT "(" args? ")" ";"
//!            | "let" IDENT "=" expr ";"
//!            | "fresh" "(" IDENT ")" ";"
//!            | "consistent" "(" IDENT "," INT ")" ";"
//!            | "if" expr block ("else" block)?
//!            | "repeat" INT block
//!            | "while" expr block
//!            | "atomic" block
//!            | "out" "(" IDENT ("," expr)* ")" ";"
//!            | "return" expr? ";"
//!            | "*" IDENT "=" expr ";"
//!            | IDENT "[" expr "]" "=" expr ";"
//!            | IDENT "=" expr ";"
//!            | IDENT "(" args? ")" ";"
//! args      := arg ("," arg)*           arg := "&" IDENT | expr
//! expr      := or
//! or        := and ("||" and)*
//! and       := cmp ("&&" cmp)*
//! cmp       := add (("=="|"!="|"<"|"<="|">"|">=") add)?
//! add       := mul (("+"|"-") mul)*
//! mul       := unary (("*"|"/"|"%") unary)*
//! unary     := ("-"|"!") unary | primary
//! primary   := INT | "true" | "false" | IDENT ("[" expr "]")?
//!            | "*" IDENT | "&" IDENT | "(" expr ")"
//! ```

use crate::ast::*;
use crate::error::{IrError, Result};
use crate::lexer::lex;
use crate::span::Span;
use crate::token::{Token, TokenKind};

/// The deepest nesting the parser accepts, counted two ways: blocks,
/// parentheses, index brackets and unary operands open at once, and the
/// height of an expression tree (a chain `a + b + c` is as tall as it is
/// long). Every later pass recurses over blocks and expressions, so the
/// cap bounds their stack use as well as the parser's; a deeper source
/// is a parse error at the token that crosses it, not a stack overflow.
pub const MAX_NESTING: usize = 128;

/// Parses a complete source program.
///
/// # Errors
///
/// Returns [`IrError::Lex`] or [`IrError::Parse`] describing the first
/// malformed construct, including nesting past [`MAX_NESTING`].
///
/// # Examples
///
/// ```
/// let src = r#"
///     sensor temp;
///     fn main() {
///         let fresh x = 0;
///         let t = in(temp);
///     }
/// "#;
/// let ast = ocelot_ir::parse(src).unwrap();
/// assert_eq!(ast.funcs.len(), 1);
/// assert_eq!(ast.sensors.len(), 1);
/// ```
pub fn parse(src: &str) -> Result<AstProgram> {
    let tokens = lex(src)?;
    Parser {
        tokens,
        pos: 0,
        depth: 0,
    }
    .program()
}

/// An expression and the height of its tree.
type Tall = (Expr, usize);

struct Parser<'s> {
    tokens: Vec<Token<'s>>,
    pos: usize,
    /// Blocks, parentheses, index brackets and unary operands open on
    /// the parse stack.
    depth: usize,
}

impl<'s> Parser<'s> {
    fn peek(&self) -> TokenKind<'s> {
        self.tokens[self.pos].kind
    }

    fn peek2(&self) -> TokenKind<'s> {
        let i = (self.pos + 1).min(self.tokens.len() - 1);
        self.tokens[i].kind
    }

    fn span(&self) -> Span {
        self.tokens[self.pos].span
    }

    fn bump(&mut self) {
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
    }

    fn eat(&mut self, kind: TokenKind<'_>) -> bool {
        if self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind<'_>) -> Result<()> {
        if self.eat(kind) {
            Ok(())
        } else {
            Err(self.unexpected(kind.describe()))
        }
    }

    fn unexpected(&self, wanted: &str) -> IrError {
        IrError::Parse {
            span: self.span(),
            message: format!("expected {wanted}, found {}", self.peek().describe()),
        }
    }

    fn too_deep(span: Span) -> IrError {
        IrError::Parse {
            span,
            message: format!("nesting exceeds the limit of {MAX_NESTING} levels"),
        }
    }

    /// Opens one level of nesting; `span` is the token that opens it.
    fn descend(&mut self, span: Span) -> Result<()> {
        self.depth += 1;
        if self.depth > MAX_NESTING {
            return Err(Self::too_deep(span));
        }
        Ok(())
    }

    fn ascend(&mut self) {
        self.depth -= 1;
    }

    /// Checks a new expression node's height; `span` is its operator.
    fn node(expr: Expr, height: usize, span: Span) -> Result<Tall> {
        if height > MAX_NESTING {
            return Err(Self::too_deep(span));
        }
        Ok((expr, height))
    }

    fn ident(&mut self) -> Result<Ident> {
        match self.peek() {
            TokenKind::Ident(name) => {
                self.bump();
                Ok(name.to_owned())
            }
            _ => Err(self.unexpected("identifier")),
        }
    }

    fn int(&mut self) -> Result<i64> {
        match self.peek() {
            TokenKind::Int(n) => {
                self.bump();
                Ok(n)
            }
            _ => Err(self.unexpected("integer literal")),
        }
    }

    // ---- top level ----------------------------------------------------

    fn program(&mut self) -> Result<AstProgram> {
        let mut prog = AstProgram::default();
        loop {
            match self.peek() {
                TokenKind::Eof => break,
                TokenKind::Sensor => {
                    let start = self.span();
                    self.bump();
                    let name = self.ident()?;
                    let end = self.span();
                    self.expect(TokenKind::Semi)?;
                    prog.sensors.push(SensorDecl {
                        name,
                        span: start.merge(end),
                    });
                }
                TokenKind::Nv => {
                    let start = self.span();
                    self.bump();
                    let name = self.ident()?;
                    let array_len = if self.eat(TokenKind::LBracket) {
                        let n = self.int()?;
                        self.expect(TokenKind::RBracket)?;
                        if n < 0 {
                            return Err(IrError::Parse {
                                span: start,
                                message: "array length must be non-negative".into(),
                            });
                        }
                        Some(n as usize)
                    } else {
                        None
                    };
                    let init = if self.eat(TokenKind::Eq) {
                        let neg = self.eat(TokenKind::Minus);
                        let n = self.int()?;
                        if neg {
                            -n
                        } else {
                            n
                        }
                    } else {
                        0
                    };
                    let end = self.span();
                    self.expect(TokenKind::Semi)?;
                    prog.globals.push(GlobalDecl {
                        name,
                        array_len,
                        init,
                        span: start.merge(end),
                    });
                }
                TokenKind::Fn => prog.funcs.push(self.function()?),
                _ => return Err(self.unexpected("`sensor`, `nv`, or `fn`")),
            }
        }
        Ok(prog)
    }

    fn function(&mut self) -> Result<FunDecl> {
        let start = self.span();
        self.expect(TokenKind::Fn)?;
        let name = self.ident()?;
        self.expect(TokenKind::LParen)?;
        let mut params = Vec::new();
        if self.peek() != TokenKind::RParen {
            loop {
                let by_ref = self.eat(TokenKind::Amp);
                let pname = self.ident()?;
                params.push(Param {
                    name: pname,
                    by_ref,
                });
                if !self.eat(TokenKind::Comma) {
                    break;
                }
            }
        }
        let hdr_end = self.span();
        self.expect(TokenKind::RParen)?;
        let body = self.block()?;
        Ok(FunDecl {
            name,
            params,
            body,
            span: start.merge(hdr_end),
        })
    }

    fn block(&mut self) -> Result<Block> {
        let open = self.span();
        self.expect(TokenKind::LBrace)?;
        self.descend(open)?;
        let mut stmts = Vec::new();
        while self.peek() != TokenKind::RBrace {
            if self.peek() == TokenKind::Eof {
                return Err(self.unexpected("`}`"));
            }
            stmts.push(self.stmt()?);
        }
        self.bump();
        self.ascend();
        Ok(Block::new(stmts))
    }

    // ---- statements ---------------------------------------------------

    fn stmt(&mut self) -> Result<Stmt> {
        let start = self.span();
        match self.peek() {
            TokenKind::Skip => {
                self.bump();
                let end = self.span();
                self.expect(TokenKind::Semi)?;
                Ok(Stmt::Skip(start.merge(end)))
            }
            TokenKind::Let => self.let_stmt(start),
            TokenKind::Fresh => {
                self.bump();
                self.expect(TokenKind::LParen)?;
                let x = self.ident()?;
                self.expect(TokenKind::RParen)?;
                let end = self.span();
                self.expect(TokenKind::Semi)?;
                Ok(Stmt::FreshAnnot(x, start.merge(end)))
            }
            TokenKind::Consistent => {
                self.bump();
                self.expect(TokenKind::LParen)?;
                let x = self.ident()?;
                self.expect(TokenKind::Comma)?;
                let id = self.int()?;
                self.expect(TokenKind::RParen)?;
                let end = self.span();
                self.expect(TokenKind::Semi)?;
                Ok(Stmt::ConsistentAnnot(x, id as u32, start.merge(end)))
            }
            TokenKind::If => {
                self.bump();
                let cond = self.expr()?;
                let then_b = self.block()?;
                let else_b = if self.eat(TokenKind::Else) {
                    Some(self.block()?)
                } else {
                    None
                };
                Ok(Stmt::If(cond, then_b, else_b, start))
            }
            TokenKind::Repeat => {
                self.bump();
                let n = self.int()?;
                if n < 0 {
                    return Err(IrError::Parse {
                        span: start,
                        message: "repeat count must be non-negative".into(),
                    });
                }
                let body = self.block()?;
                Ok(Stmt::Repeat(n as u64, body, start))
            }
            TokenKind::While => {
                self.bump();
                let cond = self.expr()?;
                // `while e @bound k { .. }` declares the loop's trip
                // count for the forward-progress analysis; the runtime
                // semantics are unchanged.
                let bound = if self.eat(TokenKind::At) {
                    let word = self.ident()?;
                    if word != "bound" {
                        return Err(IrError::Parse {
                            span: start,
                            message: format!(
                                "unknown loop annotation `@{word}` (only `@bound k` is supported)"
                            ),
                        });
                    }
                    // The lexer only produces non-negative literals, so
                    // `@bound -1` fails in `int()` on the `-`.
                    Some(self.int()? as u64)
                } else {
                    None
                };
                let body = self.block()?;
                Ok(Stmt::While(cond, bound, body, start))
            }
            TokenKind::Atomic => {
                self.bump();
                let body = self.block()?;
                Ok(Stmt::Atomic(body, start))
            }
            TokenKind::Out => {
                self.bump();
                self.expect(TokenKind::LParen)?;
                let chan = self.ident()?;
                let mut args = Vec::new();
                while self.eat(TokenKind::Comma) {
                    // String payloads are modeled as their length: the
                    // runtime only needs a value with an output cost.
                    if let TokenKind::Str(s) = self.peek() {
                        self.bump();
                        args.push(Expr::Int(s.len() as i64));
                    } else {
                        args.push(self.expr()?);
                    }
                }
                self.expect(TokenKind::RParen)?;
                let end = self.span();
                self.expect(TokenKind::Semi)?;
                Ok(Stmt::Out(chan, args, start.merge(end)))
            }
            TokenKind::Return => {
                self.bump();
                let value = if self.peek() == TokenKind::Semi {
                    None
                } else {
                    Some(self.expr()?)
                };
                let end = self.span();
                self.expect(TokenKind::Semi)?;
                Ok(Stmt::Return(value, start.merge(end)))
            }
            TokenKind::Star => {
                self.bump();
                let x = self.ident()?;
                self.expect(TokenKind::Eq)?;
                let e = self.expr()?;
                let end = self.span();
                self.expect(TokenKind::Semi)?;
                Ok(Stmt::AssignDeref(x, e, start.merge(end)))
            }
            TokenKind::Ident(_) => self.ident_stmt(start),
            _ => Err(self.unexpected("statement")),
        }
    }

    fn let_stmt(&mut self, start: Span) -> Result<Stmt> {
        self.expect(TokenKind::Let)?;
        match self.peek() {
            TokenKind::Fresh => {
                self.bump();
                let x = self.ident()?;
                self.expect(TokenKind::Eq)?;
                let e = self.expr()?;
                let end = self.span();
                self.expect(TokenKind::Semi)?;
                Ok(Stmt::LetFresh(x, e, start.merge(end)))
            }
            TokenKind::Consistent => {
                self.bump();
                self.expect(TokenKind::LParen)?;
                let id = self.int()?;
                self.expect(TokenKind::RParen)?;
                let x = self.ident()?;
                self.expect(TokenKind::Eq)?;
                let e = self.expr()?;
                let end = self.span();
                self.expect(TokenKind::Semi)?;
                Ok(Stmt::LetConsistent(id as u32, x, e, start.merge(end)))
            }
            TokenKind::Ident(_) => {
                let x = self.ident()?;
                self.expect(TokenKind::Eq)?;
                match (self.peek(), self.peek2()) {
                    (TokenKind::In, TokenKind::LParen) => {
                        self.bump();
                        self.bump();
                        let chan = self.ident()?;
                        self.expect(TokenKind::RParen)?;
                        let end = self.span();
                        self.expect(TokenKind::Semi)?;
                        Ok(Stmt::LetInput(x, chan, start.merge(end)))
                    }
                    (TokenKind::Ident(f), TokenKind::LParen) => {
                        self.bump();
                        self.bump();
                        let args = self.args()?;
                        self.expect(TokenKind::RParen)?;
                        let end = self.span();
                        self.expect(TokenKind::Semi)?;
                        Ok(Stmt::LetCall(x, f.to_owned(), args, start.merge(end)))
                    }
                    _ => {
                        let e = self.expr()?;
                        let end = self.span();
                        self.expect(TokenKind::Semi)?;
                        Ok(Stmt::Let(x, e, start.merge(end)))
                    }
                }
            }
            _ => Err(self.unexpected("`fresh`, `consistent`, or identifier after `let`")),
        }
    }

    fn ident_stmt(&mut self, start: Span) -> Result<Stmt> {
        let name = self.ident()?;
        match self.peek() {
            TokenKind::Eq => {
                self.bump();
                let e = self.expr()?;
                let end = self.span();
                self.expect(TokenKind::Semi)?;
                Ok(Stmt::Assign(name, e, start.merge(end)))
            }
            TokenKind::LBracket => {
                self.bump();
                let idx = self.expr()?;
                self.expect(TokenKind::RBracket)?;
                self.expect(TokenKind::Eq)?;
                let e = self.expr()?;
                let end = self.span();
                self.expect(TokenKind::Semi)?;
                Ok(Stmt::AssignIndex(name, idx, e, start.merge(end)))
            }
            TokenKind::LParen => {
                self.bump();
                let args = self.args()?;
                self.expect(TokenKind::RParen)?;
                let end = self.span();
                self.expect(TokenKind::Semi)?;
                Ok(Stmt::CallStmt(name, args, start.merge(end)))
            }
            _ => Err(self.unexpected("`=`, `[`, or `(` after identifier")),
        }
    }

    fn args(&mut self) -> Result<Vec<Arg>> {
        let mut args = Vec::new();
        if self.peek() == TokenKind::RParen {
            return Ok(args);
        }
        loop {
            if self.eat(TokenKind::Amp) {
                let x = self.ident()?;
                args.push(Arg::Ref(x));
            } else {
                args.push(Arg::Value(self.expr()?));
            }
            if !self.eat(TokenKind::Comma) {
                break;
            }
        }
        Ok(args)
    }

    // ---- expressions --------------------------------------------------

    fn expr(&mut self) -> Result<Expr> {
        Ok(self.binary_expr(0)?.0)
    }

    /// One precedence level of binary operators (`or` is level 0, `mul`
    /// the last): a left-associative chain of the next level's operands,
    /// except that comparisons do not chain.
    fn binary_expr(&mut self, level: usize) -> Result<Tall> {
        const CMP: usize = 2;
        const UNARY: usize = 5;
        if level == UNARY {
            return self.unary_expr();
        }
        let mut lhs = self.binary_expr(level + 1)?;
        loop {
            let op = match (level, self.peek()) {
                (0, TokenKind::PipePipe) => BinOp::Or,
                (1, TokenKind::AmpAmp) => BinOp::And,
                (CMP, TokenKind::EqEq) => BinOp::Eq,
                (CMP, TokenKind::NotEq) => BinOp::Ne,
                (CMP, TokenKind::Lt) => BinOp::Lt,
                (CMP, TokenKind::Le) => BinOp::Le,
                (CMP, TokenKind::Gt) => BinOp::Gt,
                (CMP, TokenKind::Ge) => BinOp::Ge,
                (3, TokenKind::Plus) => BinOp::Add,
                (3, TokenKind::Minus) => BinOp::Sub,
                (4, TokenKind::Star) => BinOp::Mul,
                (4, TokenKind::Slash) => BinOp::Div,
                (4, TokenKind::Percent) => BinOp::Rem,
                _ => return Ok(lhs),
            };
            let span = self.span();
            self.bump();
            let (r, rh) = self.binary_expr(level + 1)?;
            let (l, lh) = lhs;
            let expr = Expr::Binary(op, Box::new(l), Box::new(r));
            lhs = Self::node(expr, 1 + lh.max(rh), span)?;
            if level == CMP {
                return Ok(lhs);
            }
        }
    }

    fn unary_expr(&mut self) -> Result<Tall> {
        let op = match self.peek() {
            TokenKind::Minus => UnOp::Neg,
            TokenKind::Bang => UnOp::Not,
            _ => return self.primary_expr(),
        };
        let span = self.span();
        self.descend(span)?;
        self.bump();
        let (e, h) = self.unary_expr()?;
        self.ascend();
        Self::node(Expr::Unary(op, Box::new(e)), 1 + h, span)
    }

    fn primary_expr(&mut self) -> Result<Tall> {
        let leaf = match self.peek() {
            TokenKind::Int(n) => {
                self.bump();
                Expr::Int(n)
            }
            TokenKind::True => {
                self.bump();
                Expr::Bool(true)
            }
            TokenKind::False => {
                self.bump();
                Expr::Bool(false)
            }
            TokenKind::Star => {
                self.bump();
                Expr::Deref(self.ident()?)
            }
            TokenKind::Amp => {
                self.bump();
                Expr::Ref(self.ident()?)
            }
            TokenKind::LParen => {
                self.descend(self.span())?;
                self.bump();
                let inner = self.binary_expr(0)?;
                self.expect(TokenKind::RParen)?;
                self.ascend();
                return Ok(inner);
            }
            TokenKind::Ident(_) => {
                let name = self.ident()?;
                let span = self.span();
                if self.peek() != TokenKind::LBracket {
                    return Ok((Expr::Var(name), 1));
                }
                self.descend(span)?;
                self.bump();
                let (idx, h) = self.binary_expr(0)?;
                self.expect(TokenKind::RBracket)?;
                self.ascend();
                return Self::node(Expr::Index(name, Box::new(idx)), 1 + h, span);
            }
            _ => return Err(self.unexpected("expression")),
        };
        Ok((leaf, 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_figure2_program() {
        // The motivating example from Figure 2 of the paper.
        let src = r#"
            sensor tmp;
            sensor pres;
            sensor hum;
            fn main() {
                let x = in(tmp);
                fresh(x);
                if x > 5 {
                    out(alarm, x);
                }
                let y = in(pres);
                consistent(y, 1);
                let z = in(hum);
                consistent(z, 1);
                out(log, y, z);
            }
        "#;
        let ast = parse(src).unwrap();
        assert_eq!(ast.sensors.len(), 3);
        let main = ast.func("main").unwrap();
        assert_eq!(main.body.stmts.len(), 8);
        assert!(matches!(main.body.stmts[1], Stmt::FreshAnnot(..)));
        assert!(matches!(main.body.stmts[4], Stmt::ConsistentAnnot(_, 1, _)));
    }

    #[test]
    fn parses_let_forms() {
        let src = r#"
            sensor s;
            fn main() {
                let fresh a = 1;
                let consistent(2) b = 2;
                let c = in(s);
                let d = helper(c, &b);
                let e = c + d;
            }
            fn helper(v, &r) { return v; }
        "#;
        let ast = parse(src).unwrap();
        let main = ast.func("main").unwrap();
        assert!(matches!(main.body.stmts[0], Stmt::LetFresh(..)));
        assert!(matches!(main.body.stmts[1], Stmt::LetConsistent(2, ..)));
        assert!(matches!(main.body.stmts[2], Stmt::LetInput(..)));
        match &main.body.stmts[3] {
            Stmt::LetCall(x, f, args, _) => {
                assert_eq!(x, "d");
                assert_eq!(f, "helper");
                assert_eq!(args.len(), 2);
                assert!(matches!(args[1], Arg::Ref(_)));
            }
            other => panic!("expected LetCall, got {other:?}"),
        }
        let helper = ast.func("helper").unwrap();
        assert!(helper.params[1].by_ref);
        assert!(!helper.params[0].by_ref);
    }

    #[test]
    fn parses_operator_precedence() {
        let src = "fn main() { let x = 1 + 2 * 3; }";
        let ast = parse(src).unwrap();
        match &ast.func("main").unwrap().body.stmts[0] {
            Stmt::Let(_, Expr::Binary(BinOp::Add, l, r), _) => {
                assert_eq!(**l, Expr::Int(1));
                assert!(matches!(**r, Expr::Binary(BinOp::Mul, _, _)));
            }
            other => panic!("unexpected parse: {other:?}"),
        }
    }

    #[test]
    fn and_binds_tighter_than_or() {
        let src = "fn main() { let x = a || b && c; }";
        let ast = parse(src).unwrap();
        match &ast.func("main").unwrap().body.stmts[0] {
            Stmt::Let(_, Expr::Binary(BinOp::Or, _, r), _) => {
                assert!(matches!(**r, Expr::Binary(BinOp::And, _, _)));
            }
            other => panic!("unexpected parse: {other:?}"),
        }
    }

    #[test]
    fn parses_repeat_and_atomic() {
        let src = r#"
            sensor photo;
            fn main() {
                repeat 5 {
                    let v = in(photo);
                }
                atomic {
                    skip;
                }
            }
        "#;
        let ast = parse(src).unwrap();
        let main = ast.func("main").unwrap();
        assert!(matches!(main.body.stmts[0], Stmt::Repeat(5, ..)));
        assert!(matches!(main.body.stmts[1], Stmt::Atomic(..)));
    }

    #[test]
    fn parses_while_with_condition() {
        let src = "nv g = 3; fn main() { while g > 0 { g = g - 1; } }";
        let ast = parse(src).unwrap();
        let main = ast.func("main").unwrap();
        match &main.body.stmts[0] {
            Stmt::While(cond, bound, body, _) => {
                assert!(matches!(cond, Expr::Binary(BinOp::Gt, _, _)));
                assert_eq!(*bound, None);
                assert_eq!(body.stmts.len(), 1);
            }
            other => panic!("unexpected parse: {other:?}"),
        }
    }

    #[test]
    fn while_requires_a_block() {
        assert!(parse("fn main() { while 1 skip; }").is_err());
    }

    #[test]
    fn parses_while_with_bound_annotation() {
        let src = "nv g = 3; fn main() { while g > 0 @bound 12 { g = g - 1; } }";
        let ast = parse(src).unwrap();
        let main = ast.func("main").unwrap();
        match &main.body.stmts[0] {
            Stmt::While(_, bound, body, _) => {
                assert_eq!(*bound, Some(12));
                assert_eq!(body.stmts.len(), 1);
            }
            other => panic!("unexpected parse: {other:?}"),
        }
    }

    #[test]
    fn bound_annotation_rejects_bad_forms() {
        // A negative count is meaningless (literals are non-negative).
        let err =
            parse("nv g = 1; fn main() { while g > 0 @bound -1 { g = g - 1; } }").unwrap_err();
        assert!(err.to_string().contains("integer literal"), "{err}");
        // Only `bound` is a known loop annotation.
        let err = parse("nv g = 1; fn main() { while g > 0 @fuel 3 { g = g - 1; } }").unwrap_err();
        assert!(err.to_string().contains("unknown loop annotation"), "{err}");
        // The count is mandatory.
        assert!(parse("nv g = 1; fn main() { while g > 0 @bound { g = g - 1; } }").is_err());
    }

    #[test]
    fn parses_array_and_deref_stores() {
        let src = r#"
            nv buf[8];
            fn main(&p) {
                buf[2] = 7;
                *p = buf[2] + *p;
            }
        "#;
        let ast = parse(src).unwrap();
        let main = ast.func("main").unwrap();
        assert!(matches!(main.body.stmts[0], Stmt::AssignIndex(..)));
        assert!(matches!(main.body.stmts[1], Stmt::AssignDeref(..)));
    }

    #[test]
    fn parses_globals_with_init() {
        let src = "nv count = 3; nv neg = -4; nv arr[16];";
        let ast = parse(src).unwrap();
        assert_eq!(ast.globals[0].init, 3);
        assert_eq!(ast.globals[1].init, -4);
        assert_eq!(ast.globals[2].array_len, Some(16));
    }

    #[test]
    fn rejects_missing_semicolon() {
        assert!(parse("fn main() { let x = 1 }").is_err());
    }

    #[test]
    fn rejects_garbage_at_top_level() {
        assert!(parse("let x = 1;").is_err());
    }

    #[test]
    fn rejects_unclosed_block() {
        assert!(parse("fn main() { skip;").is_err());
    }

    #[test]
    fn rejects_negative_repeat() {
        assert!(parse("fn main() { repeat -1 { skip; } }").is_err());
    }

    #[test]
    fn string_payloads_become_lengths() {
        let src = r#"fn main() { out(uart, "abc"); }"#;
        let ast = parse(src).unwrap();
        match &ast.func("main").unwrap().body.stmts[0] {
            Stmt::Out(_, args, _) => assert_eq!(args[0], Expr::Int(3)),
            other => panic!("unexpected: {other:?}"),
        }
    }

    /// The error `src` fails with, which must be the nesting cap's, and
    /// the source text under its span.
    fn too_deep(src: &str) -> &str {
        match parse(src) {
            Err(IrError::Parse { span, message }) => {
                assert_eq!(message, "nesting exceeds the limit of 128 levels");
                &src[span.start..span.end]
            }
            other => panic!("expected the nesting error, got {other:?}"),
        }
    }

    /// `main` as `blocks` blocks nested inside each other.
    fn nested_blocks(blocks: usize) -> String {
        let open = "{ atomic ".repeat(blocks - 1);
        format!("fn main() {open}{{ skip; }}{}", " }".repeat(blocks - 1))
    }

    fn nested_parens(parens: usize) -> String {
        let (open, close) = ("(".repeat(parens), ")".repeat(parens));
        format!("fn main() {{ let x = {open}1{close}; }}")
    }

    /// A chain nests no parser calls, but its tree is as tall as it is
    /// long, and every later pass recurses over that tree.
    fn chain(leaves: usize) -> String {
        format!("fn main() {{ let x = 1{}; }}", " + 1".repeat(leaves - 1))
    }

    #[test]
    fn nesting_past_the_cap_is_a_parse_error_at_the_token_that_crosses_it() {
        let n = 100_000;
        assert_eq!(too_deep(&nested_parens(n)), "(");
        assert_eq!(too_deep(&nested_blocks(n)), "{");
        assert_eq!(
            too_deep(&format!("fn main() {{ let x = {}1; }}", "-".repeat(n))),
            "-"
        );
        let (open, close) = ("a[".repeat(n), "]".repeat(n));
        let index = format!("nv a[2]; fn main() {{ let x = {open}0{close}; }}");
        assert_eq!(too_deep(&index), "[");
        assert_eq!(too_deep(&chain(n)), "+");
    }

    #[test]
    fn nesting_up_to_the_cap_is_accepted() {
        // The function body is one level of its own.
        assert!(crate::compile(&nested_parens(MAX_NESTING - 1)).is_ok());
        assert_eq!(too_deep(&nested_parens(MAX_NESTING)), "(");
        assert!(crate::compile(&nested_blocks(MAX_NESTING)).is_ok());
        assert_eq!(too_deep(&nested_blocks(MAX_NESTING + 1)), "{");
        assert!(crate::compile(&chain(MAX_NESTING)).is_ok());
        assert_eq!(too_deep(&chain(MAX_NESTING + 1)), "+");
    }

    #[test]
    fn comparison_is_non_associative() {
        // `a < b < c` should fail to parse a second comparison cleanly:
        // the grammar permits only one comparison per level, so the
        // trailing `< c` is a parse error.
        assert!(parse("fn main() { let x = a < b < c; }").is_err());
    }
}
