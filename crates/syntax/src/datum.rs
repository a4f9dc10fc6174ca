//! Immutable S-expression data.
//!
//! A [`Datum`] is what `syntax->datum` produces: plain structured data with
//! all source and hygiene information stripped. The runtime value
//! representation (mutable pairs, closures, …) lives in `pgmp-eval`; `Datum`
//! is the static, hashable subset shared by the reader, the expander, and the
//! profile-file format.

use crate::intern::Symbol;
use std::fmt;
use std::rc::Rc;

/// An immutable S-expression.
///
/// Proper and improper lists are built from [`Datum::Pair`]; the empty list
/// is [`Datum::Nil`].
///
/// # Example
///
/// ```
/// use pgmp_syntax::Datum;
/// let d = Datum::list(vec![Datum::Int(1), Datum::Int(2)]);
/// assert_eq!(d.to_string(), "(1 2)");
/// assert_eq!(d.list_elems().unwrap().len(), 2);
/// ```
#[derive(Clone, PartialEq)]
pub enum Datum {
    /// The empty list `()`.
    Nil,
    /// `#t` / `#f`.
    Bool(bool),
    /// Exact integer.
    Int(i64),
    /// Inexact real.
    Float(f64),
    /// Character literal, e.g. `#\a`.
    Char(char),
    /// String literal.
    Str(Rc<str>),
    /// Interned symbol.
    Sym(Symbol),
    /// Cons cell.
    Pair(Rc<(Datum, Datum)>),
    /// Vector literal `#(…)`.
    Vector(Rc<[Datum]>),
}

impl Datum {
    /// Builds a proper list from `elems`.
    pub fn list(elems: Vec<Datum>) -> Datum {
        let mut acc = Datum::Nil;
        for e in elems.into_iter().rev() {
            acc = Datum::cons(e, acc);
        }
        acc
    }

    /// Builds an improper list `(e0 e1 … . tail)`.
    pub fn improper_list(elems: Vec<Datum>, tail: Datum) -> Datum {
        let mut acc = tail;
        for e in elems.into_iter().rev() {
            acc = Datum::cons(e, acc);
        }
        acc
    }

    /// Cons cell constructor.
    pub fn cons(car: Datum, cdr: Datum) -> Datum {
        Datum::Pair(Rc::new((car, cdr)))
    }

    /// Interns `name` and wraps it as a symbol datum.
    pub fn sym(name: &str) -> Datum {
        Datum::Sym(Symbol::intern(name))
    }

    /// Wraps `s` as a string datum.
    pub fn string(s: &str) -> Datum {
        Datum::Str(Rc::from(s))
    }

    /// Returns the `car` of a pair, or `None` for non-pairs.
    pub fn car(&self) -> Option<&Datum> {
        match self {
            Datum::Pair(p) => Some(&p.0),
            _ => None,
        }
    }

    /// Returns the `cdr` of a pair, or `None` for non-pairs.
    pub fn cdr(&self) -> Option<&Datum> {
        match self {
            Datum::Pair(p) => Some(&p.1),
            _ => None,
        }
    }

    /// If `self` is a proper list, returns its elements.
    pub fn list_elems(&self) -> Option<Vec<Datum>> {
        let mut out = Vec::new();
        let mut cur = self;
        loop {
            match cur {
                Datum::Nil => return Some(out),
                Datum::Pair(p) => {
                    out.push(p.0.clone());
                    cur = &p.1;
                }
                _ => return None,
            }
        }
    }

    /// True iff `self` is `Nil` or a pair chain ending in `Nil`.
    pub fn is_list(&self) -> bool {
        let mut cur = self;
        loop {
            match cur {
                Datum::Nil => return true,
                Datum::Pair(p) => cur = &p.1,
                _ => return false,
            }
        }
    }

    /// Scheme `equal?`: deep structural equality.
    ///
    /// `PartialEq` on `Datum` already is structural; this alias exists for
    /// readability at call sites implementing Scheme primitives. Note that
    /// `0.0` and `-0.0` compare equal and `NaN` compares unequal to itself,
    /// matching IEEE semantics rather than bitwise identity.
    pub fn equal(&self, other: &Datum) -> bool {
        self == other
    }
}

fn write_char(c: char, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    match c {
        ' ' => write!(f, "#\\space"),
        '\n' => write!(f, "#\\newline"),
        '\t' => write!(f, "#\\tab"),
        '\r' => write!(f, "#\\return"),
        '\0' => write!(f, "#\\nul"),
        c => write!(f, "#\\{c}"),
    }
}

/// Writes `s` as a string literal the reader reads back as `s`: quoted,
/// with quotes, backslashes, newlines, tabs and returns escaped.
/// `Datum::Str`'s `Display` is this function.
pub fn write_string(s: &str, f: &mut impl fmt::Write) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\t' => f.write_str("\\t")?,
            '\r' => f.write_str("\\r")?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

/// Writes a float so that the reader will read it back as the same float
/// (always with a decimal point or exponent). `Datum::Float`'s `Display`
/// is this function.
pub fn write_float(x: f64, f: &mut impl fmt::Write) -> fmt::Result {
    if x.is_nan() {
        f.write_str("+nan.0")
    } else if x.is_infinite() {
        f.write_str(if x > 0.0 { "+inf.0" } else { "-inf.0" })
    } else if x == x.trunc() && x.abs() < 1e15 {
        write!(f, "{x:.1}")
    } else {
        write!(f, "{x}")
    }
}

impl fmt::Display for Datum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Datum::Nil => f.write_str("()"),
            Datum::Bool(true) => f.write_str("#t"),
            Datum::Bool(false) => f.write_str("#f"),
            Datum::Int(n) => write!(f, "{n}"),
            Datum::Float(x) => write_float(*x, f),
            Datum::Char(c) => write_char(*c, f),
            Datum::Str(s) => write_string(s, f),
            Datum::Sym(s) => write!(f, "{s}"),
            Datum::Vector(v) => {
                f.write_str("#(")?;
                for (i, d) in v.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" ")?;
                    }
                    write!(f, "{d}")?;
                }
                f.write_str(")")
            }
            Datum::Pair(_) => {
                f.write_str("(")?;
                let mut cur = self;
                let mut first = true;
                loop {
                    match cur {
                        Datum::Pair(p) => {
                            if !first {
                                f.write_str(" ")?;
                            }
                            write!(f, "{}", p.0)?;
                            first = false;
                            cur = &p.1;
                        }
                        Datum::Nil => break,
                        other => {
                            write!(f, " . {other}")?;
                            break;
                        }
                    }
                }
                f.write_str(")")
            }
        }
    }
}

impl fmt::Debug for Datum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl From<i64> for Datum {
    fn from(n: i64) -> Datum {
        Datum::Int(n)
    }
}

impl From<bool> for Datum {
    fn from(b: bool) -> Datum {
        Datum::Bool(b)
    }
}

impl From<Symbol> for Datum {
    fn from(s: Symbol) -> Datum {
        Datum::Sym(s)
    }
}

impl FromIterator<Datum> for Datum {
    fn from_iter<I: IntoIterator<Item = Datum>>(iter: I) -> Datum {
        Datum::list(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn list_construction_and_elems() {
        let d = Datum::list(vec![Datum::Int(1), Datum::Int(2), Datum::Int(3)]);
        assert!(d.is_list());
        assert_eq!(
            d.list_elems().unwrap(),
            vec![Datum::Int(1), Datum::Int(2), Datum::Int(3)]
        );
    }

    #[test]
    fn improper_list_display() {
        let d = Datum::improper_list(vec![Datum::Int(1), Datum::Int(2)], Datum::Int(3));
        assert_eq!(d.to_string(), "(1 2 . 3)");
        assert!(!d.is_list());
        assert!(d.list_elems().is_none());
    }

    #[test]
    fn display_atoms() {
        assert_eq!(Datum::Bool(true).to_string(), "#t");
        assert_eq!(Datum::Bool(false).to_string(), "#f");
        assert_eq!(Datum::Int(-42).to_string(), "-42");
        assert_eq!(Datum::Char('a').to_string(), "#\\a");
        assert_eq!(Datum::Char(' ').to_string(), "#\\space");
        assert_eq!(Datum::Char('\n').to_string(), "#\\newline");
        assert_eq!(Datum::string("a\"b\\c").to_string(), "\"a\\\"b\\\\c\"");
        assert_eq!(Datum::Nil.to_string(), "()");
    }

    #[test]
    fn display_floats_round_trip_shape() {
        assert_eq!(Datum::Float(1.0).to_string(), "1.0");
        assert_eq!(Datum::Float(0.5).to_string(), "0.5");
        assert_eq!(Datum::Float(f64::INFINITY).to_string(), "+inf.0");
        assert_eq!(Datum::Float(f64::NEG_INFINITY).to_string(), "-inf.0");
        assert_eq!(Datum::Float(f64::NAN).to_string(), "+nan.0");
    }

    #[test]
    fn display_vector() {
        let v = Datum::Vector(Rc::from(vec![Datum::Int(1), Datum::sym("x")]));
        assert_eq!(v.to_string(), "#(1 x)");
    }

    #[test]
    fn structural_equality() {
        let a = Datum::list(vec![Datum::sym("a"), Datum::string("s")]);
        let b = Datum::list(vec![Datum::sym("a"), Datum::string("s")]);
        assert!(a.equal(&b));
        assert_ne!(a, Datum::list(vec![Datum::sym("a")]));
    }

    #[test]
    fn from_iterator_builds_list() {
        let d: Datum = (1..=3).map(Datum::Int).collect();
        assert_eq!(d.to_string(), "(1 2 3)");
    }
}
