//! Source spans and line/column mapping for diagnostics.

use std::fmt;

/// A half-open byte range `[start, end)` into a source string.
///
/// Spans are attached to tokens and AST nodes so that parse and
/// validation errors can point at the offending source text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Span {
    /// Byte offset of the first character.
    pub start: usize,
    /// Byte offset one past the last character.
    pub end: usize,
}

impl Span {
    /// Creates a span covering `[start, end)`.
    pub fn new(start: usize, end: usize) -> Self {
        debug_assert!(start <= end, "span start must not exceed end");
        Span { start, end }
    }

    /// A zero-width span at `pos`, used for EOF diagnostics.
    pub(crate) fn point(pos: usize) -> Self {
        Span {
            start: pos,
            end: pos,
        }
    }

    /// The smallest span covering both `self` and `other`.
    pub(crate) fn merge(self, other: Span) -> Span {
        Span {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }

    /// Length of the span in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when the span covers no bytes.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}..{}", self.start, self.end)
    }
}

/// A 1-based line/column position computed from a [`Span`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineCol {
    /// 1-based line number.
    pub line: usize,
    /// 1-based column number (in bytes).
    pub col: usize,
}

impl fmt::Display for LineCol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Maps byte offsets in a source string to line/column positions.
///
/// Construct one per source file; lookups are `O(log lines)`.
#[derive(Debug, Clone)]
pub struct SourceMap {
    /// Byte offsets at which each line starts; `line_starts[0] == 0`.
    line_starts: Vec<usize>,
    len: usize,
}

impl SourceMap {
    /// Builds the line table for `src`.
    pub fn new(src: &str) -> Self {
        let mut line_starts = vec![0];
        for (i, b) in src.bytes().enumerate() {
            if b == b'\n' {
                line_starts.push(i + 1);
            }
        }
        SourceMap {
            line_starts,
            len: src.len(),
        }
    }

    /// Returns the 1-based line/column of byte offset `pos`.
    ///
    /// Offsets past the end of the source are clamped to the final position.
    pub(crate) fn line_col(&self, pos: usize) -> LineCol {
        let pos = pos.min(self.len);
        let line = match self.line_starts.binary_search(&pos) {
            Ok(exact) => exact,
            Err(insert) => insert - 1,
        };
        LineCol {
            line: line + 1,
            col: pos - self.line_starts[line] + 1,
        }
    }

    /// Returns line/column of the start of `span`.
    pub fn span_start(&self, span: Span) -> LineCol {
        self.line_col(span.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_covers_both() {
        let a = Span::new(2, 5);
        let b = Span::new(8, 10);
        assert_eq!(a.merge(b), Span::new(2, 10));
        assert_eq!(b.merge(a), Span::new(2, 10));
    }

    #[test]
    fn point_is_empty() {
        assert!(Span::point(7).is_empty());
        assert_eq!(Span::point(7).len(), 0);
    }

    #[test]
    fn line_col_basic() {
        let sm = SourceMap::new("ab\ncd\n\nx");
        assert_eq!(sm.line_col(0), LineCol { line: 1, col: 1 });
        assert_eq!(sm.line_col(1), LineCol { line: 1, col: 2 });
        assert_eq!(sm.line_col(3), LineCol { line: 2, col: 1 });
        assert_eq!(sm.line_col(4), LineCol { line: 2, col: 2 });
        assert_eq!(sm.line_col(6), LineCol { line: 3, col: 1 });
        assert_eq!(sm.line_col(7), LineCol { line: 4, col: 1 });
    }

    #[test]
    fn line_col_clamps_past_end() {
        let sm = SourceMap::new("ab");
        assert_eq!(sm.line_col(100), LineCol { line: 1, col: 3 });
    }

    #[test]
    fn line_col_at_newline_belongs_to_line() {
        let sm = SourceMap::new("ab\ncd");
        // The newline byte itself is column 3 of line 1.
        assert_eq!(sm.line_col(2), LineCol { line: 1, col: 3 });
    }
}
