//! Token kinds produced by the [`lexer`](crate::lexer).
//!
//! Tokens borrow their text from the source they were lexed from, so a
//! token is a few words of plain data: the parser copies them freely and
//! allocates an identifier's `String` only when it builds the AST node
//! that owns it.

use std::fmt;

/// A lexical token of the Ocelot modeling language; `'s` is the source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind<'s> {
    // Literals and identifiers
    /// An integer literal, e.g. `42`.
    Int(i64),
    /// An identifier, e.g. `pressure`.
    Ident(&'s str),
    /// A string literal's contents (used by `out` channels' payloads),
    /// e.g. `storm` for `"storm"`.
    Str(&'s str),

    // Keywords
    /// `fn`
    Fn,
    /// `let`
    Let,
    /// `if`
    If,
    /// `else`
    Else,
    /// `repeat`
    Repeat,
    /// `while`
    While,
    /// `return`
    Return,
    /// `true`
    True,
    /// `false`
    False,
    /// `fresh`
    Fresh,
    /// `consistent`
    Consistent,
    /// `atomic`
    Atomic,
    /// `in` (input operation)
    In,
    /// `out` (output operation)
    Out,
    /// `sensor` (input channel declaration)
    Sensor,
    /// `nv` (non-volatile global declaration)
    Nv,
    /// `skip`
    Skip,

    // Punctuation
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `,`
    Comma,
    /// `;`
    Semi,
    /// `=`
    Eq,
    /// `==`
    EqEq,
    /// `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `!`
    Bang,
    /// `&`
    Amp,
    /// `&&`
    AmpAmp,
    /// `||`
    PipePipe,
    /// `@` — introduces a loop annotation (`while e @bound k { .. }`).
    At,

    /// End of input.
    Eof,
}

impl TokenKind<'_> {
    /// Returns the keyword token for `word`, if it is a keyword.
    pub fn keyword(word: &str) -> Option<TokenKind<'static>> {
        Some(match word {
            "fn" => TokenKind::Fn,
            "let" => TokenKind::Let,
            "if" => TokenKind::If,
            "else" => TokenKind::Else,
            "repeat" => TokenKind::Repeat,
            "while" => TokenKind::While,
            "return" => TokenKind::Return,
            "true" => TokenKind::True,
            "false" => TokenKind::False,
            "fresh" => TokenKind::Fresh,
            "consistent" => TokenKind::Consistent,
            "atomic" => TokenKind::Atomic,
            "in" => TokenKind::In,
            "out" => TokenKind::Out,
            "sensor" => TokenKind::Sensor,
            "nv" => TokenKind::Nv,
            "skip" => TokenKind::Skip,
            _ => return None,
        })
    }

    /// A short human-readable name used in diagnostics.
    pub fn describe(&self) -> &'static str {
        match self {
            TokenKind::Int(_) => "integer literal",
            TokenKind::Ident(_) => "identifier",
            TokenKind::Str(_) => "string literal",
            TokenKind::Fn => "`fn`",
            TokenKind::Let => "`let`",
            TokenKind::If => "`if`",
            TokenKind::Else => "`else`",
            TokenKind::Repeat => "`repeat`",
            TokenKind::While => "`while`",
            TokenKind::Return => "`return`",
            TokenKind::True => "`true`",
            TokenKind::False => "`false`",
            TokenKind::Fresh => "`fresh`",
            TokenKind::Consistent => "`consistent`",
            TokenKind::Atomic => "`atomic`",
            TokenKind::In => "`in`",
            TokenKind::Out => "`out`",
            TokenKind::Sensor => "`sensor`",
            TokenKind::Nv => "`nv`",
            TokenKind::Skip => "`skip`",
            TokenKind::LParen => "`(`",
            TokenKind::RParen => "`)`",
            TokenKind::LBrace => "`{`",
            TokenKind::RBrace => "`}`",
            TokenKind::LBracket => "`[`",
            TokenKind::RBracket => "`]`",
            TokenKind::Comma => "`,`",
            TokenKind::Semi => "`;`",
            TokenKind::Eq => "`=`",
            TokenKind::EqEq => "`==`",
            TokenKind::NotEq => "`!=`",
            TokenKind::Lt => "`<`",
            TokenKind::Le => "`<=`",
            TokenKind::Gt => "`>`",
            TokenKind::Ge => "`>=`",
            TokenKind::Plus => "`+`",
            TokenKind::Minus => "`-`",
            TokenKind::Star => "`*`",
            TokenKind::Slash => "`/`",
            TokenKind::Percent => "`%`",
            TokenKind::Bang => "`!`",
            TokenKind::Amp => "`&`",
            TokenKind::AmpAmp => "`&&`",
            TokenKind::PipePipe => "`||`",
            TokenKind::At => "`@`",
            TokenKind::Eof => "end of input",
        }
    }
}

impl fmt::Display for TokenKind<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Int(n) => write!(f, "{n}"),
            TokenKind::Ident(s) => write!(f, "{s}"),
            TokenKind::Str(s) => write!(f, "{s:?}"),
            other => f.write_str(other.describe().trim_matches('`')),
        }
    }
}

/// A token together with its source span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token<'s> {
    /// What kind of token this is.
    pub kind: TokenKind<'s>,
    /// Where in the source it came from.
    pub span: crate::span::Span,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keywords_round_trip() {
        for kw in [
            "fn",
            "let",
            "if",
            "else",
            "repeat",
            "while",
            "return",
            "fresh",
            "consistent",
            "atomic",
            "in",
            "out",
            "sensor",
            "nv",
            "skip",
        ] {
            assert!(TokenKind::keyword(kw).is_some(), "{kw} should be a keyword");
        }
        assert_eq!(TokenKind::keyword("pressure"), None);
    }

    #[test]
    fn describe_is_nonempty() {
        assert!(!TokenKind::Eof.describe().is_empty());
        assert!(!TokenKind::Int(3).describe().is_empty());
    }
}
