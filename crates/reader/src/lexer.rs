//! Tokenizer for the object language.
//!
//! [`Lexer::next_borrowed`] is the one lexical definition: it yields atoms
//! that borrow from the source text, with no interning and no [`Datum`].
//! [`Lexer::next_token`] wraps it for readers that want datums.

use pgmp_syntax::Datum;
use std::borrow::Cow;
use std::fmt;

/// Kinds of lexical tokens. `A` is the atom representation: a [`Datum`]
/// for [`Lexer::next_token`], an [`Atom`] for [`Lexer::next_borrowed`].
#[derive(Clone, Debug, PartialEq)]
pub enum TokenKind<A = Datum> {
    /// `(` or `[`.
    LParen,
    /// `)` or `]`. The readers accept either closer after either opener.
    RParen(char),
    /// `#(` — vector opener.
    VecOpen,
    /// `'`.
    Quote,
    /// `` ` ``.
    Quasiquote,
    /// `,`.
    Unquote,
    /// `,@`.
    UnquoteSplicing,
    /// `#'` — `syntax`.
    SyntaxQuote,
    /// `` #` `` — `quasisyntax`.
    Quasisyntax,
    /// `#,` — `unsyntax`.
    Unsyntax,
    /// `#,@` — `unsyntax-splicing`.
    UnsyntaxSplicing,
    /// `.` in a dotted pair position.
    Dot,
    /// `#;` — comments out the following datum.
    DatumComment,
    /// A self-evaluating or symbol atom.
    Atom(A),
}

impl<A> TokenKind<A> {
    /// The keyword a quotation prefix abbreviates (`'x` is `(quote x)`),
    /// or `None` for other tokens.
    pub(crate) fn quotation(&self) -> Option<&'static str> {
        Some(match self {
            TokenKind::Quote => "quote",
            TokenKind::Quasiquote => "quasiquote",
            TokenKind::Unquote => "unquote",
            TokenKind::UnquoteSplicing => "unquote-splicing",
            TokenKind::SyntaxQuote => "syntax",
            TokenKind::Quasisyntax => "quasisyntax",
            TokenKind::Unsyntax => "unsyntax",
            TokenKind::UnsyntaxSplicing => "unsyntax-splicing",
            _ => return None,
        })
    }

    fn map_atom<B>(self, f: impl FnOnce(A) -> B) -> TokenKind<B> {
        match self {
            TokenKind::LParen => TokenKind::LParen,
            TokenKind::RParen(c) => TokenKind::RParen(c),
            TokenKind::VecOpen => TokenKind::VecOpen,
            TokenKind::Quote => TokenKind::Quote,
            TokenKind::Quasiquote => TokenKind::Quasiquote,
            TokenKind::Unquote => TokenKind::Unquote,
            TokenKind::UnquoteSplicing => TokenKind::UnquoteSplicing,
            TokenKind::SyntaxQuote => TokenKind::SyntaxQuote,
            TokenKind::Quasisyntax => TokenKind::Quasisyntax,
            TokenKind::Unsyntax => TokenKind::Unsyntax,
            TokenKind::UnsyntaxSplicing => TokenKind::UnsyntaxSplicing,
            TokenKind::Dot => TokenKind::Dot,
            TokenKind::DatumComment => TokenKind::DatumComment,
            TokenKind::Atom(a) => TokenKind::Atom(f(a)),
        }
    }
}

/// An atom as lexed, borrowing from the source text: a symbol is its
/// text, and a string is its text unless it has escapes.
#[derive(Clone, Debug, PartialEq)]
pub enum Atom<'src> {
    /// `#t` / `#f`.
    Bool(bool),
    /// Exact integer.
    Int(i64),
    /// Inexact real, including `+inf.0`, `-inf.0` and `+nan.0`.
    Float(f64),
    /// Character literal.
    Char(char),
    /// String literal, unescaped.
    Str(Cow<'src, str>),
    /// Symbol, not interned.
    Sym(&'src str),
}

impl Atom<'_> {
    /// The atom as a datum: interns a symbol, copies a string.
    pub fn to_datum(&self) -> Datum {
        match self {
            Atom::Bool(b) => Datum::Bool(*b),
            Atom::Int(n) => Datum::Int(*n),
            Atom::Float(x) => Datum::Float(*x),
            Atom::Char(c) => Datum::Char(*c),
            Atom::Str(s) => Datum::string(s),
            Atom::Sym(s) => Datum::sym(s),
        }
    }
}

/// A token with its byte span in the input.
#[derive(Clone, Debug, PartialEq)]
pub struct Token<A = Datum> {
    /// What was lexed.
    pub kind: TokenKind<A>,
    /// Start byte offset.
    pub start: u32,
    /// End byte offset (exclusive).
    pub end: u32,
}

/// Lexical error with position information.
#[derive(Clone, Debug, PartialEq)]
pub struct LexError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset where the problem was noticed.
    pub at: u32,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.at)
    }
}

impl std::error::Error for LexError {}

/// A streaming tokenizer over source text.
///
/// # Example
///
/// ```
/// use pgmp_reader::{Atom, Lexer, TokenKind};
/// let mut lx = Lexer::new("(a)");
/// assert_eq!(lx.next_token().unwrap().unwrap().kind, TokenKind::LParen);
/// let sym = lx.next_borrowed().unwrap().unwrap().kind;
/// assert_eq!(sym, TokenKind::Atom(Atom::Sym("a")));
/// ```
#[derive(Debug)]
pub struct Lexer<'src> {
    src: &'src str,
    bytes: &'src [u8],
    pos: usize,
}

fn is_delimiter(b: u8) -> bool {
    matches!(b, b'(' | b')' | b'[' | b']' | b'"' | b';') || b.is_ascii_whitespace()
}

fn is_symbol_char(b: u8) -> bool {
    !is_delimiter(b) && b != b'\'' && b != b'`' && b != b','
}

impl<'src> Lexer<'src> {
    /// Creates a lexer over `src`.
    pub fn new(src: &'src str) -> Lexer<'src> {
        Lexer {
            src,
            bytes: src.as_bytes(),
            pos: 0,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.bytes.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_atmosphere(&mut self) -> Result<(), LexError> {
        loop {
            match self.peek() {
                Some(b) if b.is_ascii_whitespace() => {
                    self.pos += 1;
                }
                Some(b';') => {
                    while let Some(b) = self.peek() {
                        self.pos += 1;
                        if b == b'\n' {
                            break;
                        }
                    }
                }
                Some(b'#') if self.peek2() == Some(b'|') => {
                    let start = self.pos as u32;
                    self.pos += 2;
                    let mut depth = 1usize;
                    while depth > 0 {
                        match (self.peek(), self.peek2()) {
                            (Some(b'|'), Some(b'#')) => {
                                depth -= 1;
                                self.pos += 2;
                            }
                            (Some(b'#'), Some(b'|')) => {
                                depth += 1;
                                self.pos += 2;
                            }
                            (Some(_), _) => self.pos += 1,
                            (None, _) => {
                                return Err(LexError {
                                    message: "unterminated block comment".into(),
                                    at: start,
                                })
                            }
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn lex_string(&mut self, start: usize) -> Result<Atom<'src>, LexError> {
        // Opening quote already consumed. The text between escapes is
        // copied only when there is an escape; `"` and `\` are ASCII, so
        // every run ends on a character boundary.
        let mut escaped: Option<String> = None;
        let mut run = self.pos;
        loop {
            match self.bump() {
                None => {
                    return Err(LexError {
                        message: "unterminated string literal".into(),
                        at: start as u32,
                    })
                }
                Some(b'"') => break,
                Some(b'\\') => {
                    let c = match self.bump() {
                        Some(b'n') => '\n',
                        Some(b't') => '\t',
                        Some(b'r') => '\r',
                        Some(b'0') => '\0',
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(other) => {
                            return Err(LexError {
                                message: format!("unknown string escape \\{}", other as char),
                                at: (self.pos - 1) as u32,
                            })
                        }
                        None => {
                            return Err(LexError {
                                message: "unterminated string escape".into(),
                                at: self.pos as u32,
                            })
                        }
                    };
                    let out = escaped.get_or_insert_with(String::new);
                    out.push_str(&self.src[run..self.pos - 2]);
                    out.push(c);
                    run = self.pos;
                }
                Some(_) => {}
            }
        }
        let tail = &self.src[run..self.pos - 1];
        Ok(Atom::Str(match escaped {
            None => Cow::Borrowed(tail),
            Some(mut out) => {
                out.push_str(tail);
                Cow::Owned(out)
            }
        }))
    }

    fn lex_char(&mut self, start: usize) -> Result<Atom<'src>, LexError> {
        // `#\` already consumed. A character literal is either a single char
        // or a name made of symbol characters.
        let rest = &self.src[self.pos..];
        let first = rest.chars().next().ok_or(LexError {
            message: "unterminated character literal".into(),
            at: start as u32,
        })?;
        self.pos += first.len_utf8();
        // Collect any following symbol characters to support names.
        let name_start = self.pos;
        if first.is_ascii_alphabetic() {
            while let Some(b) = self.peek() {
                if is_symbol_char(b) {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }
        let c = if self.pos > name_start {
            let name = &self.src[name_start - first.len_utf8()..self.pos];
            match name {
                "space" => ' ',
                "newline" | "linefeed" => '\n',
                "tab" => '\t',
                "return" => '\r',
                "nul" | "null" => '\0',
                other => {
                    return Err(LexError {
                        message: format!("unknown character name #\\{other}"),
                        at: start as u32,
                    })
                }
            }
        } else {
            first
        };
        Ok(Atom::Char(c))
    }

    /// Lexes the next token, or `None` at end of input, with its atom as a
    /// [`Datum`].
    ///
    /// # Errors
    ///
    /// As [`Lexer::next_borrowed`].
    pub fn next_token(&mut self) -> Result<Option<Token>, LexError> {
        Ok(self.next_borrowed()?.map(|t| Token {
            kind: t.kind.map_atom(|a| a.to_datum()),
            start: t.start,
            end: t.end,
        }))
    }

    /// Lexes the next token, or `None` at end of input, with its atom
    /// borrowed from the source text.
    ///
    /// # Errors
    ///
    /// Returns a [`LexError`] for unterminated strings/comments, bad escapes,
    /// and unknown `#` syntax.
    pub fn next_borrowed(&mut self) -> Result<Option<Token<Atom<'src>>>, LexError> {
        self.skip_atmosphere()?;
        let start = self.pos;
        let Some(b) = self.peek() else {
            return Ok(None);
        };
        let (kind, len) = match b {
            b'(' | b'[' => (TokenKind::LParen, 1),
            b')' => (TokenKind::RParen(')'), 1),
            b']' => (TokenKind::RParen(']'), 1),
            b'\'' => (TokenKind::Quote, 1),
            b'`' => (TokenKind::Quasiquote, 1),
            b',' if self.peek2() == Some(b'@') => (TokenKind::UnquoteSplicing, 2),
            b',' => (TokenKind::Unquote, 1),
            b'"' => {
                self.pos += 1;
                (TokenKind::Atom(self.lex_string(start)?), 0)
            }
            b'#' => match self.peek2() {
                Some(b'(') => (TokenKind::VecOpen, 2),
                Some(b'\'') => (TokenKind::SyntaxQuote, 2),
                Some(b'`') => (TokenKind::Quasisyntax, 2),
                Some(b',') if self.bytes.get(self.pos + 2) == Some(&b'@') => {
                    (TokenKind::UnsyntaxSplicing, 3)
                }
                Some(b',') => (TokenKind::Unsyntax, 2),
                Some(b';') => (TokenKind::DatumComment, 2),
                Some(b'\\') => {
                    self.pos += 2;
                    (TokenKind::Atom(self.lex_char(start)?), 0)
                }
                Some(b't') => (TokenKind::Atom(Atom::Bool(true)), 2),
                Some(b'f') => (TokenKind::Atom(Atom::Bool(false)), 2),
                other => {
                    return Err(LexError {
                        message: format!(
                            "unknown # syntax: #{}",
                            other.map(|c| c as char).unwrap_or(' ')
                        ),
                        at: start as u32,
                    })
                }
            },
            _ => {
                while self.peek().is_some_and(is_symbol_char) {
                    self.pos += 1;
                }
                (parse_atom(&self.src[start..self.pos]), 0)
            }
        };
        self.pos += len;
        Ok(Some(Token {
            kind,
            start: start as u32,
            end: self.pos as u32,
        }))
    }

    /// Lexes the whole input to a vector of tokens.
    ///
    /// # Errors
    ///
    /// Propagates the first [`LexError`] encountered.
    pub fn tokenize(mut self) -> Result<Vec<Token>, LexError> {
        let mut out = Vec::new();
        while let Some(t) = self.next_token()? {
            out.push(t);
        }
        Ok(out)
    }
}

/// Classifies bare atom text as a number, `.`, or symbol.
fn parse_atom(text: &str) -> TokenKind<Atom<'_>> {
    if text == "." {
        return TokenKind::Dot;
    }
    if let Ok(n) = text.parse::<i64>() {
        return TokenKind::Atom(Atom::Int(n));
    }
    match text {
        "+inf.0" => return TokenKind::Atom(Atom::Float(f64::INFINITY)),
        "-inf.0" => return TokenKind::Atom(Atom::Float(f64::NEG_INFINITY)),
        "+nan.0" => return TokenKind::Atom(Atom::Float(f64::NAN)),
        _ => {}
    }
    // Only treat as a float when it looks like a number, so symbols like
    // `1+` or `...` stay symbols.
    let looks_numeric = text
        .strip_prefix(['+', '-'])
        .unwrap_or(text)
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_digit() || c == '.');
    if looks_numeric {
        if let Ok(x) = text.parse::<f64>() {
            return TokenKind::Atom(Atom::Float(x));
        }
    }
    TokenKind::Atom(Atom::Sym(text))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        Lexer::new(src)
            .tokenize()
            .unwrap()
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn lexes_parens_and_atoms() {
        assert_eq!(
            kinds("(+ 1 2)"),
            vec![
                TokenKind::LParen,
                TokenKind::Atom(Datum::sym("+")),
                TokenKind::Atom(Datum::Int(1)),
                TokenKind::Atom(Datum::Int(2)),
                TokenKind::RParen(')'),
            ]
        );
    }

    #[test]
    fn lexes_brackets() {
        assert_eq!(
            kinds("[x]"),
            vec![
                TokenKind::LParen,
                TokenKind::Atom(Datum::sym("x")),
                TokenKind::RParen(']'),
            ]
        );
    }

    #[test]
    fn lexes_quotes() {
        assert_eq!(
            kinds("'a `b ,c ,@d"),
            vec![
                TokenKind::Quote,
                TokenKind::Atom(Datum::sym("a")),
                TokenKind::Quasiquote,
                TokenKind::Atom(Datum::sym("b")),
                TokenKind::Unquote,
                TokenKind::Atom(Datum::sym("c")),
                TokenKind::UnquoteSplicing,
                TokenKind::Atom(Datum::sym("d")),
            ]
        );
    }

    #[test]
    fn lexes_syntax_quotes() {
        assert_eq!(
            kinds("#'a #`b #,c #,@d"),
            vec![
                TokenKind::SyntaxQuote,
                TokenKind::Atom(Datum::sym("a")),
                TokenKind::Quasisyntax,
                TokenKind::Atom(Datum::sym("b")),
                TokenKind::Unsyntax,
                TokenKind::Atom(Datum::sym("c")),
                TokenKind::UnsyntaxSplicing,
                TokenKind::Atom(Datum::sym("d")),
            ]
        );
    }

    #[test]
    fn lexes_numbers() {
        assert_eq!(kinds("42"), vec![TokenKind::Atom(Datum::Int(42))]);
        assert_eq!(kinds("-7"), vec![TokenKind::Atom(Datum::Int(-7))]);
        assert_eq!(kinds("1.5"), vec![TokenKind::Atom(Datum::Float(1.5))]);
        assert_eq!(kinds("-0.25"), vec![TokenKind::Atom(Datum::Float(-0.25))]);
        assert_eq!(kinds("1/2"), vec![TokenKind::Atom(Datum::sym("1/2"))]);
    }

    #[test]
    fn symbols_with_tricky_names() {
        for s in ["...", "->", "1+", "set!", "list->vector", "equal?"] {
            assert_eq!(kinds(s), vec![TokenKind::Atom(Datum::sym(s))]);
        }
    }

    #[test]
    fn lexes_characters() {
        assert_eq!(kinds(r"#\a"), vec![TokenKind::Atom(Datum::Char('a'))]);
        assert_eq!(kinds(r"#\space"), vec![TokenKind::Atom(Datum::Char(' '))]);
        assert_eq!(
            kinds(r"#\newline"),
            vec![TokenKind::Atom(Datum::Char('\n'))]
        );
        assert_eq!(kinds(r"#\("), vec![TokenKind::Atom(Datum::Char('('))]);
        assert_eq!(kinds(r"#\)"), vec![TokenKind::Atom(Datum::Char(')'))]);
    }

    #[test]
    fn lexes_strings() {
        assert_eq!(
            kinds(r#""hi\n""#),
            vec![TokenKind::Atom(Datum::string("hi\n"))]
        );
        assert!(Lexer::new("\"unterminated").tokenize().is_err());
    }

    #[test]
    fn comments_are_atmosphere() {
        assert_eq!(kinds("; hello\n1"), vec![TokenKind::Atom(Datum::Int(1))]);
        assert_eq!(
            kinds("#| multi \n line |# 2"),
            vec![TokenKind::Atom(Datum::Int(2))]
        );
        assert_eq!(
            kinds("#| nested #| inner |# outer |# 3"),
            vec![TokenKind::Atom(Datum::Int(3))]
        );
    }

    #[test]
    fn spans_are_byte_accurate() {
        let toks = Lexer::new("(abc 12)").tokenize().unwrap();
        assert_eq!((toks[1].start, toks[1].end), (1, 4));
        assert_eq!((toks[2].start, toks[2].end), (5, 7));
    }

    #[test]
    fn unterminated_block_comment_errors() {
        assert!(Lexer::new("#| never closed").tokenize().is_err());
    }

    #[test]
    fn unknown_hash_errors() {
        assert!(Lexer::new("#z").tokenize().is_err());
    }
}
