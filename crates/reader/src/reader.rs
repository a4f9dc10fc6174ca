//! Parsing token streams into syntax objects.

use crate::lexer::{Atom, LexError, Lexer, Token, TokenKind};
use pgmp_syntax::{Datum, SourceObject, Syntax, SyntaxBody};
use std::fmt;
use std::rc::Rc;

/// Error produced while reading source text.
#[derive(Clone, Debug, PartialEq)]
pub struct ReadError {
    /// Human-readable description.
    pub message: String,
    /// File the error occurred in.
    pub file: String,
    /// Byte offset where the problem was noticed.
    pub at: u32,
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "read error: {} ({}:{})",
            self.message, self.file, self.at
        )
    }
}

impl std::error::Error for ReadError {}

impl ReadError {
    fn new(message: impl Into<String>, file: &str, at: u32) -> ReadError {
        ReadError {
            message: message.into(),
            file: file.to_owned(),
            at,
        }
    }
}

impl From<(LexError, &str)> for ReadError {
    fn from((e, file): (LexError, &str)) -> ReadError {
        ReadError::new(e.message, file, e.at)
    }
}

/// A reader over a token stream for one file.
///
/// # Example
///
/// ```
/// use pgmp_reader::Reader;
/// let mut r = Reader::new("(a . b)", "f.scm")?;
/// let stx = r.read()?.expect("one datum");
/// assert_eq!(stx.to_datum().to_string(), "(a . b)");
/// # Ok::<(), pgmp_reader::ReadError>(())
/// ```
#[derive(Debug)]
pub struct Reader {
    tokens: Vec<Token>,
    pos: usize,
    file: String,
}

impl Reader {
    /// Tokenizes `src` (attributed to `file`) and prepares to read.
    ///
    /// # Errors
    ///
    /// Returns a [`ReadError`] if tokenization fails.
    pub fn new(src: &str, file: &str) -> Result<Reader, ReadError> {
        let tokens = Lexer::new(src).tokenize().map_err(|e| (e, file).into())
            as Result<Vec<Token>, ReadError>;
        Ok(Reader {
            tokens: tokens?,
            pos: 0,
            file: file.to_owned(),
        })
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn src_obj(&self, start: u32, end: u32) -> SourceObject {
        SourceObject::new(&self.file, start, end)
    }

    fn err(&self, msg: impl Into<String>, at: u32) -> ReadError {
        ReadError::new(msg, &self.file, at)
    }

    /// Reads the next datum, or `None` at end of input.
    ///
    /// # Errors
    ///
    /// Returns a [`ReadError`] on unbalanced parens, misplaced dots, and
    /// datum comments with no following datum.
    pub fn read(&mut self) -> Result<Option<Rc<Syntax>>, ReadError> {
        let Some(tok) = self.bump() else {
            return Ok(None);
        };
        self.read_after(tok).map(Some)
    }

    fn read_required(&mut self, why: &str, at: u32) -> Result<Rc<Syntax>, ReadError> {
        match self.read()? {
            Some(stx) => Ok(stx),
            None => Err(self.err(format!("unexpected end of input: {why}"), at)),
        }
    }

    fn wrap_quotation(&mut self, keyword: &str, start: u32) -> Result<Rc<Syntax>, ReadError> {
        let inner = self.read_required(&format!("{keyword} needs a datum"), start)?;
        let end = inner.source.map(|s| s.efp).unwrap_or(start);
        let src = self.src_obj(start, end);
        let kw = Rc::new(Syntax::ident(keyword, Some(src)));
        Ok(Rc::new(Syntax::list(vec![kw, inner], Some(src))))
    }

    fn read_after(&mut self, tok: Token) -> Result<Rc<Syntax>, ReadError> {
        match tok.kind {
            TokenKind::Atom(d) => Ok(Rc::new(Syntax::atom(
                d,
                Some(self.src_obj(tok.start, tok.end)),
            ))),
            TokenKind::Quote => self.wrap_quotation("quote", tok.start),
            TokenKind::Quasiquote => self.wrap_quotation("quasiquote", tok.start),
            TokenKind::Unquote => self.wrap_quotation("unquote", tok.start),
            TokenKind::UnquoteSplicing => self.wrap_quotation("unquote-splicing", tok.start),
            TokenKind::SyntaxQuote => self.wrap_quotation("syntax", tok.start),
            TokenKind::Quasisyntax => self.wrap_quotation("quasisyntax", tok.start),
            TokenKind::Unsyntax => self.wrap_quotation("unsyntax", tok.start),
            TokenKind::UnsyntaxSplicing => self.wrap_quotation("unsyntax-splicing", tok.start),
            TokenKind::DatumComment => {
                self.read_required("#; needs a datum to skip", tok.start)?;
                self.read_required("#; consumed the only datum", tok.start)
            }
            TokenKind::LParen => self.read_list(tok.start),
            TokenKind::VecOpen => self.read_vector(tok.start),
            TokenKind::RParen(_) => Err(self.err("unexpected closing paren", tok.start)),
            TokenKind::Dot => Err(self.err("unexpected `.` outside a list", tok.start)),
        }
    }

    fn read_list(&mut self, start: u32) -> Result<Rc<Syntax>, ReadError> {
        let mut elems: Vec<Rc<Syntax>> = Vec::new();
        loop {
            let Some(tok) = self.peek().cloned() else {
                return Err(self.err("unterminated list", start));
            };
            match tok.kind {
                TokenKind::RParen(_) => {
                    self.pos += 1;
                    let src = self.src_obj(start, tok.end);
                    return Ok(Rc::new(Syntax::new(SyntaxBody::List(elems), Some(src))));
                }
                TokenKind::Dot => {
                    self.pos += 1;
                    if elems.is_empty() {
                        return Err(self.err("`.` at start of list", tok.start));
                    }
                    let tail = self.read_required("dotted tail", tok.start)?;
                    let Some(close) = self.bump() else {
                        return Err(self.err("unterminated dotted list", start));
                    };
                    if !matches!(close.kind, TokenKind::RParen(_)) {
                        return Err(self.err("expected `)` after dotted tail", close.start));
                    }
                    let src = self.src_obj(start, close.end);
                    // A dotted tail that is itself a list splices flat, so
                    // `(a . (b c))` reads as `(a b c)` — standard Scheme.
                    match &tail.body {
                        SyntaxBody::List(tail_elems) => {
                            elems.extend(tail_elems.iter().cloned());
                            return Ok(Rc::new(Syntax::new(SyntaxBody::List(elems), Some(src))));
                        }
                        SyntaxBody::Improper(tail_elems, tail_tail) => {
                            elems.extend(tail_elems.iter().cloned());
                            return Ok(Rc::new(Syntax::new(
                                SyntaxBody::Improper(elems, tail_tail.clone()),
                                Some(src),
                            )));
                        }
                        _ => {
                            return Ok(Rc::new(Syntax::new(
                                SyntaxBody::Improper(elems, tail),
                                Some(src),
                            )))
                        }
                    }
                }
                _ => {
                    let tok = self.bump().expect("peeked");
                    elems.push(self.read_after(tok)?);
                }
            }
        }
    }

    fn read_vector(&mut self, start: u32) -> Result<Rc<Syntax>, ReadError> {
        let mut elems: Vec<Rc<Syntax>> = Vec::new();
        loop {
            let Some(tok) = self.peek().cloned() else {
                return Err(self.err("unterminated vector", start));
            };
            match tok.kind {
                TokenKind::RParen(_) => {
                    self.pos += 1;
                    let src = self.src_obj(start, tok.end);
                    return Ok(Rc::new(Syntax::new(SyntaxBody::Vector(elems), Some(src))));
                }
                TokenKind::Dot => return Err(self.err("`.` not allowed in vector", tok.start)),
                _ => {
                    let tok = self.bump().expect("peeked");
                    elems.push(self.read_after(tok)?);
                }
            }
        }
    }

    /// Reads all remaining datums.
    ///
    /// # Errors
    ///
    /// Propagates the first [`ReadError`].
    pub fn read_all(&mut self) -> Result<Vec<Rc<Syntax>>, ReadError> {
        let mut out = Vec::new();
        while let Some(stx) = self.read()? {
            out.push(stx);
        }
        Ok(out)
    }
}

/// Reads every datum in `src`, attributing source objects to `file`.
///
/// # Errors
///
/// Returns a [`ReadError`] describing the first lexical or structural
/// problem.
///
/// # Example
///
/// ```
/// use pgmp_reader::read_str;
/// let forms = read_str("#(1 2) (x . y)", "v.scm")?;
/// assert_eq!(forms[0].to_datum().to_string(), "#(1 2)");
/// assert_eq!(forms[1].to_datum().to_string(), "(x . y)");
/// # Ok::<(), pgmp_reader::ReadError>(())
/// ```
pub fn read_str(src: &str, file: &str) -> Result<Vec<Rc<Syntax>>, ReadError> {
    Reader::new(src, file)?.read_all()
}

/// Reads every datum in `src` directly as plain [`Datum`]s, skipping
/// syntax-object construction entirely: no per-node [`SourceObject`], no
/// `Rc<Syntax>` allocation, no second `to_datum` pass.
///
/// Use this for machine-written s-expression files — persisted sessions,
/// epoch snapshots — where source attribution is meaningless and parse
/// latency is on the process-start path. For program source, use
/// [`read_str`]: profile points *are* source objects there. A reader that
/// needs no tree at all can walk the datums with [`walk_datums`], which
/// this function is built on.
///
/// # Errors
///
/// The same [`ReadError`]s as [`read_str`], with `file` set to `errfile`.
///
/// # Example
///
/// ```
/// use pgmp_reader::read_datums;
/// let data = read_datums("(a 1 2.5 \"s\") #(x)", "<mem>")?;
/// assert_eq!(data[0].to_string(), "(a 1 2.5 \"s\")");
/// assert_eq!(data[1].to_string(), "#(x)");
/// # Ok::<(), pgmp_reader::ReadError>(())
/// ```
pub fn read_datums(src: &str, errfile: &str) -> Result<Vec<Datum>, ReadError> {
    let mut build = DatumBuilder::default();
    walk_datums(src, errfile, &mut build)?;
    Ok(build.out)
}

/// What [`walk_datums`] shows of the datums it reads, in order.
///
/// The walk resolves the reader's shorthands first: a quotation `'x`
/// arrives as the list `(quote x)`, a `#;`-commented datum is not shown,
/// and a dotted tail that is itself a list is spliced, so `(a . (b c))`
/// arrives as `(a b c)` and only a non-list tail arrives after
/// [`DatumVisitor::dot`].
pub trait DatumVisitor<'src> {
    /// The visitor's error; read errors convert into it.
    type Error: From<ReadError>;

    /// An atom: an element of the innermost open list or vector, or a
    /// top-level datum.
    fn atom(&mut self, atom: Atom<'src>) -> Result<(), Self::Error>;

    /// A list (`vector` false) or a vector opens; its elements follow,
    /// then [`DatumVisitor::close`].
    fn open(&mut self, vector: bool) -> Result<(), Self::Error>;

    /// The innermost list is improper: the next datum is its tail.
    fn dot(&mut self) -> Result<(), Self::Error>;

    /// The innermost open list or vector ends.
    fn close(&mut self) -> Result<(), Self::Error>;
}

/// Reads every datum in `src` and shows it to `visitor`, building nothing.
///
/// Lexing is [`Lexer::next_borrowed`]'s, and the structure — lists,
/// vectors, dotted tails, quotations, `#;` comments — is the one
/// [`read_datums`] builds, so every reader of machine-written files
/// accepts and rejects the same texts.
///
/// # Errors
///
/// The first [`ReadError`] of the text, or the first error `visitor`
/// returns.
pub fn walk_datums<'src, V: DatumVisitor<'src>>(
    src: &'src str,
    errfile: &str,
    visitor: &mut V,
) -> Result<(), V::Error> {
    let mut w = Walker {
        lexer: Lexer::new(src),
        file: errfile,
    };
    while let Some(tok) = w.next()? {
        w.datum(tok, visitor)?;
    }
    Ok(())
}

/// Streams tokens straight out of the lexer — no token buffer, no clones;
/// the grammar is LL(1) by token kind so no lookahead is needed.
struct Walker<'src, 'f> {
    lexer: Lexer<'src>,
    file: &'f str,
}

type BorrowedToken<'src> = Token<Atom<'src>>;

impl<'src> Walker<'src, '_> {
    fn err(&self, msg: impl Into<String>, at: u32) -> ReadError {
        ReadError::new(msg, self.file, at)
    }

    fn next(&mut self) -> Result<Option<BorrowedToken<'src>>, ReadError> {
        self.lexer
            .next_borrowed()
            .map_err(|e| ReadError::from((e, self.file)))
    }

    /// Reads the next datum, which must exist.
    fn required<V: DatumVisitor<'src>>(
        &mut self,
        why: &str,
        at: u32,
        v: &mut V,
    ) -> Result<(), V::Error> {
        match self.next()? {
            Some(tok) => self.datum(tok, v),
            None => Err(self
                .err(format!("unexpected end of input: {why}"), at)
                .into()),
        }
    }

    /// Reads and drops the datum a `#;` at `at` comments out.
    fn skip(&mut self, at: u32) -> Result<(), ReadError> {
        self.required("#; needs a datum to skip", at, &mut Skip)
    }

    /// Reads the datum that starts with `tok`.
    fn datum<V: DatumVisitor<'src>>(
        &mut self,
        tok: BorrowedToken<'src>,
        v: &mut V,
    ) -> Result<(), V::Error> {
        if let Some(keyword) = tok.kind.quotation() {
            v.open(false)?;
            v.atom(Atom::Sym(keyword))?;
            self.required(&format!("{keyword} needs a datum"), tok.start, v)?;
            return v.close();
        }
        match tok.kind {
            TokenKind::Atom(a) => v.atom(a),
            TokenKind::DatumComment => {
                self.skip(tok.start)?;
                self.required("#; consumed the only datum", tok.start, v)
            }
            TokenKind::LParen => {
                v.open(false)?;
                self.elements(tok.start, v)?;
                v.close()
            }
            TokenKind::VecOpen => {
                v.open(true)?;
                loop {
                    let Some(elem) = self.next()? else {
                        return Err(self.err("unterminated vector", tok.start).into());
                    };
                    match elem.kind {
                        TokenKind::RParen(_) => return v.close(),
                        TokenKind::Dot => {
                            return Err(self.err("`.` not allowed in vector", elem.start).into())
                        }
                        _ => self.datum(elem, v)?,
                    }
                }
            }
            TokenKind::RParen(_) => Err(self.err("unexpected closing paren", tok.start).into()),
            _ => Err(self.err("unexpected `.` outside a list", tok.start).into()),
        }
    }

    /// Reads a list's elements after its opener at `start`, through its
    /// closer.
    fn elements<V: DatumVisitor<'src>>(&mut self, start: u32, v: &mut V) -> Result<(), V::Error> {
        let mut empty = true;
        loop {
            let Some(tok) = self.next()? else {
                return Err(self.err("unterminated list", start).into());
            };
            match tok.kind {
                TokenKind::RParen(_) => return Ok(()),
                TokenKind::Dot if empty => {
                    return Err(self.err("`.` at start of list", tok.start).into())
                }
                TokenKind::Dot => return self.tail(start, tok.start, v),
                _ => {
                    empty = false;
                    self.datum(tok, v)?;
                }
            }
        }
    }

    /// Reads the tail after the `.` at `dot` and the closer of the list
    /// opened at `start`. A list tail — `(…)`, or a quotation, which reads
    /// as one — is spliced into the list.
    fn tail<V: DatumVisitor<'src>>(
        &mut self,
        start: u32,
        dot: u32,
        v: &mut V,
    ) -> Result<(), V::Error> {
        let Some(tok) = self.next()? else {
            return Err(self.err("unexpected end of input: dotted tail", dot).into());
        };
        if let Some(keyword) = tok.kind.quotation() {
            v.atom(Atom::Sym(keyword))?;
            self.required(&format!("{keyword} needs a datum"), tok.start, v)?;
        } else {
            match tok.kind {
                TokenKind::LParen => self.elements(tok.start, v)?,
                TokenKind::DatumComment => {
                    self.skip(tok.start)?;
                    return self.tail(start, tok.start, v);
                }
                _ => {
                    v.dot()?;
                    self.datum(tok, v)?;
                }
            }
        }
        let Some(close) = self.next()? else {
            return Err(self.err("unterminated dotted list", start).into());
        };
        if !matches!(close.kind, TokenKind::RParen(_)) {
            return Err(self
                .err("expected `)` after dotted tail", close.start)
                .into());
        }
        Ok(())
    }
}

/// The visitor of a `#;`-commented datum: sees it, keeps nothing.
struct Skip;

impl<'src> DatumVisitor<'src> for Skip {
    type Error = ReadError;
    fn atom(&mut self, _: Atom<'src>) -> Result<(), ReadError> {
        Ok(())
    }
    fn open(&mut self, _: bool) -> Result<(), ReadError> {
        Ok(())
    }
    fn dot(&mut self) -> Result<(), ReadError> {
        Ok(())
    }
    fn close(&mut self) -> Result<(), ReadError> {
        Ok(())
    }
}

/// Builds [`Datum`]s from a walk: one frame per open list or vector.
#[derive(Default)]
struct DatumBuilder {
    frames: Vec<Frame>,
    out: Vec<Datum>,
}

struct Frame {
    vector: bool,
    elems: Vec<Datum>,
    dotted: bool,
    tail: Datum,
}

impl DatumBuilder {
    fn push(&mut self, d: Datum) {
        match self.frames.last_mut() {
            Some(f) if f.dotted => f.tail = d,
            Some(f) => f.elems.push(d),
            None => self.out.push(d),
        }
    }
}

impl<'src> DatumVisitor<'src> for DatumBuilder {
    type Error = ReadError;
    fn atom(&mut self, atom: Atom<'src>) -> Result<(), ReadError> {
        self.push(atom.to_datum());
        Ok(())
    }
    fn open(&mut self, vector: bool) -> Result<(), ReadError> {
        self.frames.push(Frame {
            vector,
            elems: Vec::new(),
            dotted: false,
            tail: Datum::Nil,
        });
        Ok(())
    }
    fn dot(&mut self) -> Result<(), ReadError> {
        if let Some(f) = self.frames.last_mut() {
            f.dotted = true;
        }
        Ok(())
    }
    fn close(&mut self) -> Result<(), ReadError> {
        let f = self.frames.pop().expect("close after open");
        self.push(if f.vector {
            Datum::Vector(f.elems.into())
        } else {
            Datum::improper_list(f.elems, f.tail)
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(src: &str) -> Rc<Syntax> {
        let forms = read_str(src, "t.scm").unwrap();
        assert_eq!(forms.len(), 1, "expected one form in {src:?}");
        forms.into_iter().next().unwrap()
    }

    #[test]
    fn reads_nested_lists() {
        assert_eq!(one("(a (b c) d)").to_datum().to_string(), "(a (b c) d)");
    }

    #[test]
    fn reads_dotted_pairs() {
        assert_eq!(one("(a . b)").to_datum().to_string(), "(a . b)");
        assert_eq!(one("(a b . c)").to_datum().to_string(), "(a b . c)");
        assert_eq!(one("(a . (b c))").to_datum().to_string(), "(a b c)");
        assert_eq!(one("(a . (b . c))").to_datum().to_string(), "(a b . c)");
    }

    #[test]
    fn reads_quote_forms() {
        assert_eq!(one("'x").to_datum().to_string(), "(quote x)");
        assert_eq!(
            one("`(a ,b ,@c)").to_datum().to_string(),
            "(quasiquote (a (unquote b) (unquote-splicing c)))"
        );
        assert_eq!(
            one("#'(if a b)").to_datum().to_string(),
            "(syntax (if a b))"
        );
        assert_eq!(
            one("#`(f #,x #,@ys)").to_datum().to_string(),
            "(quasisyntax (f (unsyntax x) (unsyntax-splicing ys)))"
        );
    }

    #[test]
    fn reads_vectors() {
        assert_eq!(one("#(1 x \"s\")").to_datum().to_string(), "#(1 x \"s\")");
    }

    #[test]
    fn datum_comment_skips() {
        assert_eq!(one("#;(ignored stuff) 42").to_datum().to_string(), "42");
        let forms = read_str("(a #;b c)", "t.scm").unwrap();
        assert_eq!(forms[0].to_datum().to_string(), "(a c)");
    }

    #[test]
    fn source_objects_cover_exact_spans() {
        let stx = one("(foo bar)");
        let src = stx.source.unwrap();
        assert_eq!((src.bfp, src.efp), (0, 9));
        assert_eq!(src.file.as_str(), "t.scm");
        let elems = stx.as_list().unwrap();
        assert_eq!(
            (elems[0].source.unwrap().bfp, elems[0].source.unwrap().efp),
            (1, 4)
        );
        assert_eq!(
            (elems[1].source.unwrap().bfp, elems[1].source.unwrap().efp),
            (5, 8)
        );
    }

    #[test]
    fn every_node_has_a_source_object() {
        fn check(stx: &Syntax) {
            assert!(stx.source.is_some());
            match &stx.body {
                SyntaxBody::List(es) | SyntaxBody::Vector(es) => es.iter().for_each(|e| check(e)),
                SyntaxBody::Improper(es, t) => {
                    es.iter().for_each(|e| check(e));
                    check(t);
                }
                SyntaxBody::Atom(_) => {}
            }
        }
        check(&one("(a (b #(c)) . d)"));
    }

    #[test]
    fn errors_on_unbalanced_input() {
        assert!(read_str("(a b", "t.scm").is_err());
        assert!(read_str(")", "t.scm").is_err());
        assert!(read_str("(. x)", "t.scm").is_err());
        assert!(read_str("(a . b c)", "t.scm").is_err());
        assert!(read_str("#(1 . 2)", "t.scm").is_err());
        assert!(read_str("'", "t.scm").is_err());
        assert!(read_str("#;", "t.scm").is_err());
    }

    #[test]
    fn reads_multiple_top_level_forms() {
        let forms = read_str("1 2 (3)", "t.scm").unwrap();
        assert_eq!(forms.len(), 3);
    }

    #[test]
    fn distinct_occurrences_have_distinct_profile_points() {
        // §3.1: "flag and email appear multiple times, but each occurrence is
        // associated with a different profile point."
        let stx = one("(f (flag email) (flag email))");
        let elems = stx.as_list().unwrap();
        let a = elems[1].source.unwrap();
        let b = elems[2].source.unwrap();
        assert_ne!(a, b);
    }

    /// Fragments the datum walker and the syntax reader must agree on,
    /// shorthands and malformed sequences included.
    const FRAGMENTS: &[&str] = &[
        "(",
        ")",
        "[",
        "]",
        ".",
        "'",
        "`",
        ",",
        ",@",
        "#'",
        "#;",
        "#(",
        "a",
        "1",
        "2.5",
        "+nan.0",
        "\"s\"",
        "\"a\\\"b\"",
        "#t",
        "#\\x",
        ";c\n",
        "#|c|#",
    ];

    proptest::proptest! {
        /// `read_datums` (a walk) reads what `read_str` reads, and fails
        /// where it fails.
        #[test]
        fn walked_datums_match_read_syntax(
            picks in proptest::collection::vec(0usize..FRAGMENTS.len(), 0..14),
        ) {
            let src: Vec<&str> = picks.iter().map(|i| FRAGMENTS[*i]).collect();
            let src = src.join(" ");
            let walked = read_datums(&src, "t.scm");
            let read = read_str(&src, "t.scm");
            match (&walked, &read) {
                (Ok(ds), Ok(stxs)) => {
                    let from_syntax: Vec<Datum> = stxs.iter().map(|s| s.to_datum()).collect();
                    // `Datum`'s equality says NaN != NaN; compare the text.
                    proptest::prop_assert_eq!(format!("{ds:?}"), format!("{from_syntax:?}"), "{}", src);
                }
                (Err(_), Err(_)) => {}
                _ => proptest::prop_assert!(false, "{src:?}: {walked:?} vs {read:?}"),
            }
        }
    }
}
