//! Hand-written lexer for the Ocelot modeling language.
//!
//! Tokens borrow identifier and string text from the source (see
//! [`crate::token`]); the only allocation is the token vector itself.

use crate::error::{IrError, Result};
use crate::span::Span;
use crate::token::{Token, TokenKind};

/// Tokenizes `src` into a vector of tokens ending with [`TokenKind::Eof`].
///
/// # Errors
///
/// Returns [`IrError::Lex`] on unrecognized characters, unterminated string
/// literals, or integer literals that do not fit in `i64`.
pub fn lex(src: &str) -> Result<Vec<Token<'_>>> {
    Lexer::new(src).run()
}

struct Lexer<'s> {
    src: &'s str,
    bytes: &'s [u8],
    pos: usize,
    tokens: Vec<Token<'s>>,
}

impl<'s> Lexer<'s> {
    fn new(src: &'s str) -> Self {
        Lexer {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            // Modeling-language sources average well over four bytes per
            // token, so this one reservation is usually the only one.
            tokens: Vec::with_capacity(src.len() / 4 + 1),
        }
    }

    fn run(mut self) -> Result<Vec<Token<'s>>> {
        while self.pos < self.bytes.len() {
            let start = self.pos;
            let b = self.bytes[self.pos];
            match b {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.pos += 1;
                }
                b'/' if self.peek(1) == Some(b'/') => {
                    while self.pos < self.bytes.len() && self.bytes[self.pos] != b'\n' {
                        self.pos += 1;
                    }
                }
                b'0'..=b'9' => self.number(start)?,
                b'a'..=b'z' | b'A'..=b'Z' | b'_' => self.ident(start),
                b'"' => self.string(start)?,
                _ => self.punct(start)?,
            }
        }
        self.tokens.push(Token {
            kind: TokenKind::Eof,
            span: Span::point(self.src.len()),
        });
        Ok(self.tokens)
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.bytes.get(self.pos + ahead).copied()
    }

    fn push(&mut self, kind: TokenKind<'s>, start: usize) {
        self.tokens.push(Token {
            kind,
            span: Span::new(start, self.pos),
        });
    }

    fn number(&mut self, start: usize) -> Result<()> {
        while matches!(self.peek(0), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let text = &self.src[start..self.pos];
        let value: i64 = text.parse().map_err(|_| IrError::Lex {
            span: Span::new(start, self.pos),
            message: format!("integer literal `{text}` does not fit in i64"),
        })?;
        self.push(TokenKind::Int(value), start);
        Ok(())
    }

    fn ident(&mut self, start: usize) {
        while matches!(
            self.peek(0),
            Some(b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_')
        ) {
            self.pos += 1;
        }
        let text = &self.src[start..self.pos];
        let kind = TokenKind::keyword(text).unwrap_or(TokenKind::Ident(text));
        self.push(kind, start);
    }

    fn string(&mut self, start: usize) -> Result<()> {
        self.pos += 1; // opening quote
        let content_start = self.pos;
        while let Some(b) = self.peek(0) {
            if b == b'"' {
                let text = &self.src[content_start..self.pos];
                self.pos += 1; // closing quote
                self.push(TokenKind::Str(text), start);
                return Ok(());
            }
            if b == b'\n' {
                break;
            }
            self.pos += 1;
        }
        Err(IrError::Lex {
            span: Span::new(start, self.pos),
            message: "unterminated string literal".to_owned(),
        })
    }

    fn punct(&mut self, start: usize) -> Result<()> {
        let b = self.bytes[self.pos];
        let two = |l: &Lexer<'_>| l.peek(1);
        let (kind, len) = match b {
            b'(' => (TokenKind::LParen, 1),
            b')' => (TokenKind::RParen, 1),
            b'{' => (TokenKind::LBrace, 1),
            b'}' => (TokenKind::RBrace, 1),
            b'[' => (TokenKind::LBracket, 1),
            b']' => (TokenKind::RBracket, 1),
            b',' => (TokenKind::Comma, 1),
            b';' => (TokenKind::Semi, 1),
            b'+' => (TokenKind::Plus, 1),
            b'-' => (TokenKind::Minus, 1),
            b'*' => (TokenKind::Star, 1),
            b'/' => (TokenKind::Slash, 1),
            b'%' => (TokenKind::Percent, 1),
            b'@' => (TokenKind::At, 1),
            b'=' if two(self) == Some(b'=') => (TokenKind::EqEq, 2),
            b'=' => (TokenKind::Eq, 1),
            b'!' if two(self) == Some(b'=') => (TokenKind::NotEq, 2),
            b'!' => (TokenKind::Bang, 1),
            b'<' if two(self) == Some(b'=') => (TokenKind::Le, 2),
            b'<' => (TokenKind::Lt, 1),
            b'>' if two(self) == Some(b'=') => (TokenKind::Ge, 2),
            b'>' => (TokenKind::Gt, 1),
            b'&' if two(self) == Some(b'&') => (TokenKind::AmpAmp, 2),
            b'&' => (TokenKind::Amp, 1),
            b'|' if two(self) == Some(b'|') => (TokenKind::PipePipe, 2),
            _ => {
                return Err(IrError::Lex {
                    span: Span::new(start, start + 1),
                    message: format!(
                        "unrecognized character `{}`",
                        self.src[start..].chars().next().unwrap_or('?')
                    ),
                })
            }
        };
        self.pos += len;
        self.push(kind, start);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_simple_assignment() {
        assert_eq!(
            kinds("x = 42;"),
            vec![
                TokenKind::Ident("x"),
                TokenKind::Eq,
                TokenKind::Int(42),
                TokenKind::Semi,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn lexes_two_char_operators() {
        assert_eq!(
            kinds("== != <= >= && ||"),
            vec![
                TokenKind::EqEq,
                TokenKind::NotEq,
                TokenKind::Le,
                TokenKind::Ge,
                TokenKind::AmpAmp,
                TokenKind::PipePipe,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn distinguishes_amp_from_ampamp() {
        assert_eq!(
            kinds("&x && y"),
            vec![
                TokenKind::Amp,
                TokenKind::Ident("x"),
                TokenKind::AmpAmp,
                TokenKind::Ident("y"),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn skips_line_comments() {
        assert_eq!(
            kinds("x // the variable\n= 1;"),
            vec![
                TokenKind::Ident("x"),
                TokenKind::Eq,
                TokenKind::Int(1),
                TokenKind::Semi,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn lexes_keywords_and_identifiers() {
        assert_eq!(
            kinds("fn fresh freshx in input"),
            vec![
                TokenKind::Fn,
                TokenKind::Fresh,
                TokenKind::Ident("freshx"),
                TokenKind::In,
                TokenKind::Ident("input"),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn lexes_string_literals() {
        assert_eq!(
            kinds(r#"out(uart, "storm");"#),
            vec![
                TokenKind::Out,
                TokenKind::LParen,
                TokenKind::Ident("uart"),
                TokenKind::Comma,
                TokenKind::Str("storm"),
                TokenKind::RParen,
                TokenKind::Semi,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn rejects_unterminated_string() {
        assert!(lex("\"oops").is_err());
    }

    #[test]
    fn rejects_unknown_character() {
        assert!(lex("x = #;").is_err());
    }

    #[test]
    fn rejects_huge_integer() {
        assert!(lex("99999999999999999999").is_err());
    }

    #[test]
    fn spans_point_at_source() {
        let toks = lex("ab cd").unwrap();
        assert_eq!(toks[0].span, Span::new(0, 2));
        assert_eq!(toks[1].span, Span::new(3, 5));
    }

    #[test]
    fn bools_lex_as_keywords() {
        assert_eq!(
            kinds("true false"),
            vec![TokenKind::True, TokenKind::False, TokenKind::Eof]
        );
    }
}
