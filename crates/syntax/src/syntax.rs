//! Syntax objects: the values meta-programs manipulate.
//!
//! A [`Syntax`] is S-expression structure annotated, at every node, with an
//! optional [`SourceObject`] and a hygiene [`MarkSet`]. The reader produces
//! them; `syntax-case` destructures them; templates rebuild them; and
//! `annotate-expr` re-targets their source objects to fresh profile points.

use crate::datum::Datum;
use crate::intern::Symbol;
use crate::mark::{Mark, MarkSet};
use crate::source::SourceObject;
use std::fmt;
use std::rc::Rc;

/// Structure of a syntax object node.
#[derive(Clone, Debug, PartialEq)]
pub enum SyntaxBody {
    /// A leaf: any non-compound datum (symbols included).
    Atom(Datum),
    /// A proper list.
    List(Vec<Rc<Syntax>>),
    /// An improper list `(a b . c)`; the `Vec` is non-empty.
    Improper(Vec<Rc<Syntax>>, Rc<Syntax>),
    /// A vector literal `#(…)`.
    Vector(Vec<Rc<Syntax>>),
}

/// A syntax object: datum structure plus source and hygiene information.
///
/// # Example
///
/// ```
/// use pgmp_syntax::{Datum, Syntax};
/// let stx = Syntax::from_datum(&Datum::list(vec![Datum::sym("+"), Datum::Int(1)]), None);
/// assert_eq!(stx.to_datum().to_string(), "(+ 1)");
/// assert!(stx.as_list().is_some());
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Syntax {
    /// Node structure.
    pub body: SyntaxBody,
    /// Source object — also the node's profile point, when present.
    pub source: Option<SourceObject>,
    /// Hygiene marks on this node.
    pub marks: MarkSet,
}

impl Syntax {
    /// Creates a syntax node with no marks.
    pub fn new(body: SyntaxBody, source: Option<SourceObject>) -> Syntax {
        Syntax {
            body,
            source,
            marks: MarkSet::new(),
        }
    }

    /// Creates an atom node.
    pub fn atom(d: Datum, source: Option<SourceObject>) -> Syntax {
        Syntax::new(SyntaxBody::Atom(d), source)
    }

    /// Creates an identifier node for `name` with no marks.
    pub fn ident(name: &str, source: Option<SourceObject>) -> Syntax {
        Syntax::atom(Datum::sym(name), source)
    }

    /// Creates a proper-list node.
    pub fn list(elems: Vec<Rc<Syntax>>, source: Option<SourceObject>) -> Syntax {
        Syntax::new(SyntaxBody::List(elems), source)
    }

    /// Recursively wraps a datum as marked-free syntax, attaching `source`
    /// to every node (the behaviour of `datum->syntax` with respect to
    /// source information).
    pub fn from_datum(d: &Datum, source: Option<SourceObject>) -> Syntax {
        let body = match d {
            Datum::Pair(_) => {
                let mut elems = Vec::new();
                let mut cur = d;
                loop {
                    match cur {
                        Datum::Pair(p) => {
                            elems.push(Rc::new(Syntax::from_datum(&p.0, source)));
                            cur = &p.1;
                        }
                        Datum::Nil => return Syntax::new(SyntaxBody::List(elems), source),
                        other => {
                            let tail = Rc::new(Syntax::from_datum(other, source));
                            return Syntax::new(SyntaxBody::Improper(elems, tail), source);
                        }
                    }
                }
            }
            Datum::Vector(v) => SyntaxBody::Vector(
                v.iter()
                    .map(|e| Rc::new(Syntax::from_datum(e, source)))
                    .collect(),
            ),
            other => SyntaxBody::Atom(other.clone()),
        };
        Syntax::new(body, source)
    }

    /// Strips all source and hygiene annotations (`syntax->datum`).
    pub fn to_datum(&self) -> Datum {
        match &self.body {
            SyntaxBody::Atom(d) => d.clone(),
            SyntaxBody::List(elems) => Datum::list(elems.iter().map(|e| e.to_datum()).collect()),
            SyntaxBody::Improper(elems, tail) => Datum::improper_list(
                elems.iter().map(|e| e.to_datum()).collect(),
                tail.to_datum(),
            ),
            SyntaxBody::Vector(elems) => Datum::Vector(
                elems
                    .iter()
                    .map(|e| e.to_datum())
                    .collect::<Vec<_>>()
                    .into(),
            ),
        }
    }

    /// If this node is an identifier, returns its symbol.
    pub fn as_symbol(&self) -> Option<Symbol> {
        match &self.body {
            SyntaxBody::Atom(Datum::Sym(s)) => Some(*s),
            _ => None,
        }
    }

    /// True iff this node is an identifier.
    pub fn is_identifier(&self) -> bool {
        self.as_symbol().is_some()
    }

    /// If this node is a proper list, returns its elements.
    pub fn as_list(&self) -> Option<&[Rc<Syntax>]> {
        match &self.body {
            SyntaxBody::List(elems) => Some(elems),
            _ => None,
        }
    }

    /// Recursively XOR-toggles `m` over the whole tree.
    ///
    /// Called by the expander once on a macro's input and once on its
    /// output; syntax that passed through the transformer untouched receives
    /// the mark twice, cancelling it (see [`MarkSet::toggle`]).
    pub fn apply_mark(&self, m: Mark) -> Syntax {
        let body = match &self.body {
            SyntaxBody::Atom(d) => SyntaxBody::Atom(d.clone()),
            SyntaxBody::List(elems) => {
                SyntaxBody::List(elems.iter().map(|e| Rc::new(e.apply_mark(m))).collect())
            }
            SyntaxBody::Improper(elems, tail) => SyntaxBody::Improper(
                elems.iter().map(|e| Rc::new(e.apply_mark(m))).collect(),
                Rc::new(tail.apply_mark(m)),
            ),
            SyntaxBody::Vector(elems) => {
                SyntaxBody::Vector(elems.iter().map(|e| Rc::new(e.apply_mark(m))).collect())
            }
        };
        Syntax {
            body,
            source: self.source,
            marks: self.marks.toggled(m),
        }
    }

    /// Returns a copy whose root node is associated with source object
    /// `src`, replacing any existing association.
    ///
    /// This is the primitive beneath `annotate-expr` (Figure 4): the
    /// profiler will increment `src`'s counter whenever the expression is
    /// executed.
    pub fn with_source(&self, src: SourceObject) -> Syntax {
        let mut out = self.clone();
        out.source = Some(src);
        out
    }

    /// Two identifiers are `bound-identifier=?` when they have the same
    /// name *and* the same marks: they would capture each other if one
    /// bound the other.
    pub fn bound_identifier_eq(&self, other: &Syntax) -> bool {
        match (self.as_symbol(), other.as_symbol()) {
            (Some(a), Some(b)) => a == b && self.marks == other.marks,
            _ => false,
        }
    }

    /// Finds the first node in the tree (preorder) that has a source
    /// object, which is how `profile-query` locates the profile point of a
    /// compound expression whose root annotation was lost.
    pub fn first_source(&self) -> Option<SourceObject> {
        if self.source.is_some() {
            return self.source;
        }
        match &self.body {
            SyntaxBody::Atom(_) => None,
            SyntaxBody::List(elems) | SyntaxBody::Vector(elems) => {
                elems.iter().find_map(|e| e.first_source())
            }
            SyntaxBody::Improper(elems, tail) => elems
                .iter()
                .find_map(|e| e.first_source())
                .or_else(|| tail.first_source()),
        }
    }
}

impl fmt::Display for Syntax {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_datum())
    }
}

impl From<Datum> for Syntax {
    fn from(d: Datum) -> Syntax {
        Syntax::from_datum(&d, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Syntax {
        Syntax::from_datum(
            &Datum::list(vec![Datum::sym("if"), Datum::Bool(true), Datum::Int(1)]),
            Some(SourceObject::new("t.scm", 0, 10)),
        )
    }

    #[test]
    fn datum_round_trip() {
        let stx = sample();
        assert_eq!(stx.to_datum().to_string(), "(if #t 1)");
    }

    #[test]
    fn from_datum_attaches_source_everywhere() {
        let stx = sample();
        let elems = stx.as_list().unwrap();
        for e in elems {
            assert_eq!(e.source, Some(SourceObject::new("t.scm", 0, 10)));
        }
    }

    #[test]
    fn mark_cancellation() {
        let stx = sample();
        let marked_twice = stx.apply_mark(Mark(9)).apply_mark(Mark(9));
        assert_eq!(marked_twice, stx);
    }

    #[test]
    fn mark_applies_recursively() {
        let stx = sample().apply_mark(Mark(4));
        assert!(stx.marks.contains(Mark(4)));
        for e in stx.as_list().unwrap() {
            assert!(e.marks.contains(Mark(4)));
        }
    }

    #[test]
    fn with_source_replaces_only_root() {
        let stx = sample();
        let p = SourceObject::new("gen.scm", 1, 2);
        let annotated = stx.with_source(p);
        assert_eq!(annotated.source, Some(p));
        assert_eq!(
            annotated.as_list().unwrap()[0].source,
            Some(SourceObject::new("t.scm", 0, 10))
        );
    }

    #[test]
    fn bound_identifier_eq_respects_marks() {
        let a = Syntax::ident("x", None);
        let b = Syntax::ident("x", None);
        assert!(a.bound_identifier_eq(&b));
        let marked = a.apply_mark(Mark(1));
        assert!(!marked.bound_identifier_eq(&b));
        assert!(marked.bound_identifier_eq(&b.apply_mark(Mark(1))));
    }

    #[test]
    fn first_source_searches_preorder() {
        let leaf = Rc::new(Syntax::atom(
            Datum::Int(1),
            Some(SourceObject::new("l.scm", 5, 6)),
        ));
        let parent = Syntax::list(vec![Rc::new(Syntax::ident("f", None)), leaf], None);
        assert_eq!(
            parent.first_source(),
            Some(SourceObject::new("l.scm", 5, 6))
        );
    }

    #[test]
    fn improper_round_trip() {
        let d = Datum::improper_list(vec![Datum::sym("a")], Datum::sym("b"));
        let stx = Syntax::from_datum(&d, None);
        assert_eq!(stx.to_datum().to_string(), "(a . b)");
    }
}
