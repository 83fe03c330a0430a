//! A lightweight Rust lexer for the analyzer: enough token structure to
//! write string/comment/attribute-aware lints without pulling in a real
//! parser. Comments are *kept* in the token stream (lints read
//! `// treesim-lint: allow(...)` directives and doc coverage from them);
//! string/char literals are opaque tokens so nothing inside them can
//! false-positive a lint; everything else is idents, numbers, lifetimes
//! and single-character punctuation.
//!
//! The lexer is intentionally forgiving: on malformed input (unterminated
//! string, stray byte) it emits what it has and moves on — the compiler,
//! not the analyzer, owns syntax errors.

/// What a token is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (including raw identifiers, `r#type`).
    Ident,
    /// Lifetime (`'a`) — distinguished from char literals.
    Lifetime,
    /// String literal of any flavor (`"…"`, `r"…"`, `r#"…"#`, `b"…"`).
    /// [`Token::value`] holds the contents without quotes/hashes.
    Str,
    /// Character or byte literal (`'x'`, `b'\n'`).
    Char,
    /// Numeric literal (integer or float, any base).
    Number,
    /// Non-doc comment (`// …` or `/* … */`), text in [`Token::value`].
    Comment,
    /// Doc comment (`///`, `//!`, `/** */`, `/*! */`).
    DocComment,
    /// Single punctuation character (text in [`Token::value`]).
    Punct,
}

/// One lexed token with its source span.
#[derive(Debug, Clone)]
pub struct Token {
    /// Token class.
    pub kind: TokenKind,
    /// Byte offset of the first character.
    pub start: usize,
    /// Byte offset one past the last character.
    pub end: usize,
    /// 1-based source line of `start`.
    pub line: u32,
    /// 1-based column (in characters) of `start`.
    pub col: u32,
    /// Token text: literal contents for [`TokenKind::Str`]/comment text
    /// for comments/raw source text otherwise.
    pub value: String,
}

impl Token {
    /// Whether this is punctuation `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct && self.value.starts_with(c)
    }

    /// Whether this is the identifier `name`.
    pub fn is_ident(&self, name: &str) -> bool {
        self.kind == TokenKind::Ident && self.value == name
    }

    /// Whether this token never affects expression structure (comments).
    pub fn is_trivia(&self) -> bool {
        matches!(self.kind, TokenKind::Comment | TokenKind::DocComment)
    }
}

struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Lexer<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn peek_at(&self, ahead: usize) -> Option<u8> {
        self.bytes.get(self.pos + ahead).copied()
    }

    /// Advances one byte, tracking line/col (UTF-8 continuation bytes do
    /// not advance the column).
    fn bump(&mut self) {
        if let Some(b) = self.peek() {
            self.pos += 1;
            if b == b'\n' {
                self.line += 1;
                self.col = 1;
            } else if b & 0xC0 != 0x80 {
                self.col += 1;
            }
        }
    }

    fn bump_n(&mut self, n: usize) {
        for _ in 0..n {
            self.bump();
        }
    }

    fn eat_line_comment(&mut self) -> (TokenKind, usize) {
        let start = self.pos;
        let doc = matches!(
            (self.peek_at(2), self.peek_at(3)),
            (Some(b'/'), Some(b'/')) // `////…` is an ordinary comment…
        )
        .then_some(TokenKind::Comment)
        .unwrap_or(match self.peek_at(2) {
            Some(b'/') | Some(b'!') => TokenKind::DocComment,
            _ => TokenKind::Comment,
        });
        while let Some(b) = self.peek() {
            if b == b'\n' {
                break;
            }
            self.bump();
        }
        (doc, start)
    }

    fn eat_block_comment(&mut self) -> (TokenKind, usize) {
        let start = self.pos;
        let kind = match self.peek_at(2) {
            Some(b'*') if self.peek_at(3) != Some(b'/') => TokenKind::DocComment,
            Some(b'!') => TokenKind::DocComment,
            _ => TokenKind::Comment,
        };
        self.bump_n(2);
        let mut depth = 1usize;
        while depth > 0 {
            match (self.peek(), self.peek_at(1)) {
                (Some(b'/'), Some(b'*')) => {
                    depth += 1;
                    self.bump_n(2);
                }
                (Some(b'*'), Some(b'/')) => {
                    depth -= 1;
                    self.bump_n(2);
                }
                (Some(_), _) => self.bump(),
                (None, _) => break,
            }
        }
        (kind, start)
    }

    /// Consumes a `"…"` literal body (opening quote already consumed);
    /// returns the contents.
    fn eat_quoted(&mut self) -> String {
        let content_start = self.pos;
        while let Some(b) = self.peek() {
            match b {
                b'\\' => self.bump_n(2),
                b'"' => break,
                _ => self.bump(),
            }
        }
        let content = self.src[content_start..self.pos].to_owned();
        self.bump(); // closing quote (if any)
        content
    }

    /// Consumes a raw string starting at `r` / `br` (already past the
    /// prefix, at the first `#` or `"`); returns the contents.
    fn eat_raw_string(&mut self) -> String {
        let mut hashes = 0usize;
        while self.peek() == Some(b'#') {
            hashes += 1;
            self.bump();
        }
        self.bump(); // opening quote
        let content_start = self.pos;
        let closer: Vec<u8> = std::iter::once(b'"')
            .chain(std::iter::repeat(b'#').take(hashes))
            .collect();
        while self.pos < self.bytes.len() {
            if self.bytes[self.pos..].starts_with(&closer) {
                let content = self.src[content_start..self.pos].to_owned();
                self.bump_n(closer.len());
                return content;
            }
            self.bump();
        }
        self.src[content_start..self.pos].to_owned()
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Lexes `src` into tokens (comments included, whitespace dropped).
pub fn lex(src: &str) -> Vec<Token> {
    let mut lx = Lexer {
        src,
        bytes: src.as_bytes(),
        pos: 0,
        line: 1,
        col: 1,
    };
    let mut tokens = Vec::new();
    while let Some(b) = lx.peek() {
        let (line, col, start) = (lx.line, lx.col, lx.pos);
        match b {
            _ if b.is_ascii_whitespace() => lx.bump(),
            b'/' if lx.peek_at(1) == Some(b'/') => {
                let (kind, s) = lx.eat_line_comment();
                tokens.push(Token {
                    kind,
                    start: s,
                    end: lx.pos,
                    line,
                    col,
                    value: src[s..lx.pos].to_owned(),
                });
            }
            b'/' if lx.peek_at(1) == Some(b'*') => {
                let (kind, s) = lx.eat_block_comment();
                tokens.push(Token {
                    kind,
                    start: s,
                    end: lx.pos,
                    line,
                    col,
                    value: src[s..lx.pos].to_owned(),
                });
            }
            b'"' => {
                lx.bump();
                let value = lx.eat_quoted();
                tokens.push(Token {
                    kind: TokenKind::Str,
                    start,
                    end: lx.pos,
                    line,
                    col,
                    value,
                });
            }
            b'r' | b'b' if is_raw_string_start(&lx) => {
                // r"…", r#"…"#, br"…", b"…" — position past the prefix.
                let mut prefix = 1;
                if b == b'b' && lx.peek_at(1) == Some(b'r') {
                    prefix = 2;
                }
                lx.bump_n(prefix);
                let value = if lx.peek() == Some(b'"') {
                    lx.bump();
                    lx.eat_quoted()
                } else {
                    lx.eat_raw_string()
                };
                tokens.push(Token {
                    kind: TokenKind::Str,
                    start,
                    end: lx.pos,
                    line,
                    col,
                    value,
                });
            }
            b'r' if lx.peek_at(1) == Some(b'#') && lx.peek_at(2).is_some_and(is_ident_start) => {
                // Raw identifier r#type.
                lx.bump_n(2);
                while lx.peek().is_some_and(is_ident_continue) {
                    lx.bump();
                }
                tokens.push(Token {
                    kind: TokenKind::Ident,
                    start,
                    end: lx.pos,
                    line,
                    col,
                    value: src[start + 2..lx.pos].to_owned(),
                });
            }
            b'b' if lx.peek_at(1) == Some(b'\'') => {
                lx.bump(); // `b`, then fall through to char handling below
                lex_char_or_lifetime(&mut lx, &mut tokens, start, line, col);
            }
            b'\'' => lex_char_or_lifetime(&mut lx, &mut tokens, start, line, col),
            _ if is_ident_start(b) => {
                while lx.peek().is_some_and(is_ident_continue) {
                    lx.bump();
                }
                tokens.push(Token {
                    kind: TokenKind::Ident,
                    start,
                    end: lx.pos,
                    line,
                    col,
                    value: src[start..lx.pos].to_owned(),
                });
            }
            _ if b.is_ascii_digit() => {
                while lx
                    .peek()
                    .is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_')
                {
                    lx.bump();
                }
                // Fraction part — but not `0..n` ranges or `1.max()` calls.
                if lx.peek() == Some(b'.') && lx.peek_at(1).is_some_and(|c| c.is_ascii_digit()) {
                    lx.bump();
                    while lx
                        .peek()
                        .is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_')
                    {
                        lx.bump();
                    }
                }
                tokens.push(Token {
                    kind: TokenKind::Number,
                    start,
                    end: lx.pos,
                    line,
                    col,
                    value: src[start..lx.pos].to_owned(),
                });
            }
            _ => {
                lx.bump();
                tokens.push(Token {
                    kind: TokenKind::Punct,
                    start,
                    end: lx.pos,
                    line,
                    col,
                    value: src[start..lx.pos].to_owned(),
                });
            }
        }
    }
    tokens
}

fn is_raw_string_start(lx: &Lexer<'_>) -> bool {
    match lx.peek() {
        Some(b'r') => match lx.peek_at(1) {
            Some(b'"') => true,
            Some(b'#') => {
                // r#"…"# vs raw ident r#type: a quote after the hashes.
                let mut ahead = 1;
                while lx.peek_at(ahead) == Some(b'#') {
                    ahead += 1;
                }
                lx.peek_at(ahead) == Some(b'"')
            }
            _ => false,
        },
        Some(b'b') => matches!(
            (lx.peek_at(1), lx.peek_at(2)),
            (Some(b'"'), _) | (Some(b'r'), Some(b'"')) | (Some(b'r'), Some(b'#'))
        ),
        _ => false,
    }
}

/// Disambiguates `'a` (lifetime) from `'x'` (char literal). Called with
/// `lx` at the opening quote.
fn lex_char_or_lifetime(
    lx: &mut Lexer<'_>,
    tokens: &mut Vec<Token>,
    start: usize,
    line: u32,
    col: u32,
) {
    // Lifetime: quote + ident that is NOT followed by a closing quote.
    if lx.peek_at(1).is_some_and(is_ident_start) && lx.peek_at(2) != Some(b'\'') {
        lx.bump(); // quote
        while lx.peek().is_some_and(is_ident_continue) {
            lx.bump();
        }
        tokens.push(Token {
            kind: TokenKind::Lifetime,
            start,
            end: lx.pos,
            line,
            col,
            value: lx.src[start..lx.pos].to_owned(),
        });
        return;
    }
    lx.bump(); // quote
    match lx.peek() {
        Some(b'\\') => {
            lx.bump_n(2);
            // Escapes can be multi-byte (\u{1F600}); scan to the quote.
            while lx.peek().is_some() && lx.peek() != Some(b'\'') {
                lx.bump();
            }
        }
        Some(_) => {
            lx.bump();
            // Multi-byte UTF-8 scalar: keep going to the closing quote.
            while lx.peek().is_some() && lx.peek() != Some(b'\'') {
                lx.bump();
            }
        }
        None => {}
    }
    lx.bump(); // closing quote
    tokens.push(Token {
        kind: TokenKind::Char,
        start,
        end: lx.pos,
        line,
        col,
        value: lx.src[start..lx.pos].to_owned(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.value)).collect()
    }

    #[test]
    fn idents_puncts_numbers() {
        let toks = kinds("let x = foo[0] + 1.5;");
        assert_eq!(toks[0], (TokenKind::Ident, "let".to_owned()));
        assert_eq!(toks[3], (TokenKind::Ident, "foo".to_owned()));
        assert_eq!(toks[5], (TokenKind::Number, "0".to_owned()));
        assert_eq!(toks[8], (TokenKind::Number, "1.5".to_owned()));
    }

    #[test]
    fn ranges_do_not_eat_dots() {
        let toks = kinds("0..n");
        assert_eq!(
            toks,
            vec![
                (TokenKind::Number, "0".to_owned()),
                (TokenKind::Punct, ".".to_owned()),
                (TokenKind::Punct, ".".to_owned()),
                (TokenKind::Ident, "n".to_owned()),
            ]
        );
    }

    #[test]
    fn strings_are_opaque() {
        // `.unwrap()` inside a string must not produce ident tokens.
        let toks = kinds(r#"let s = "x.unwrap() // not a comment";"#);
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokenKind::Str).count(), 1);
        assert!(toks
            .iter()
            .any(|(k, v)| *k == TokenKind::Str && v.contains("unwrap")));
        assert!(!toks
            .iter()
            .any(|(k, v)| *k == TokenKind::Ident && v == "unwrap"));
    }

    #[test]
    fn raw_strings_and_raw_idents() {
        let toks = kinds(r###"let s = r#"has "quotes" and \ raw"#; let r#type = 1;"###);
        assert!(toks
            .iter()
            .any(|(k, v)| *k == TokenKind::Str && v.contains("quotes")));
        assert!(toks
            .iter()
            .any(|(k, v)| *k == TokenKind::Ident && v == "type"));
        let toks = kinds(r##"b"bytes" br#"raw bytes"#"##);
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokenKind::Str).count(), 2);
    }

    #[test]
    fn comments_and_doc_comments() {
        let toks = kinds("/// doc\n// plain\n//! inner\n/* block */ /** docblock */ fn f() {}");
        let docs: Vec<&String> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::DocComment)
            .map(|(_, v)| v)
            .collect();
        assert_eq!(docs.len(), 3, "{docs:?}");
        let comments = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Comment)
            .count();
        assert_eq!(comments, 2);
    }

    #[test]
    fn quadruple_slash_is_not_doc() {
        let toks = kinds("//// separator\nfn f() {}");
        assert_eq!(toks[0].0, TokenKind::Comment);
    }

    #[test]
    fn lifetimes_vs_chars() {
        let toks = kinds("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; let u = 'é'; }");
        assert_eq!(
            toks.iter()
                .filter(|(k, _)| *k == TokenKind::Lifetime)
                .count(),
            2
        );
        assert_eq!(
            toks.iter().filter(|(k, _)| *k == TokenKind::Char).count(),
            3
        );
    }

    #[test]
    fn line_and_column_tracking() {
        let toks = lex("fn f() {\n    x.unwrap();\n}");
        let unwrap = toks.iter().find(|t| t.is_ident("unwrap")).unwrap();
        assert_eq!(unwrap.line, 2);
        assert_eq!(unwrap.col, 7);
    }

    #[test]
    fn nested_block_comments() {
        let toks = kinds("/* outer /* inner */ still outer */ x");
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[1], (TokenKind::Ident, "x".to_owned()));
    }

    #[test]
    fn unterminated_input_does_not_hang() {
        for src in ["\"open", "r#\"open", "/* open", "'", "b'"] {
            let _ = lex(src); // must terminate
        }
    }
}
