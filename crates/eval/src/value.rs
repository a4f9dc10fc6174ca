//! Runtime values.

use crate::core_expr::LambdaDef;
use crate::env::Frame;
use crate::error::EvalError;
use crate::interp::Interp;
use pgmp_syntax::{Datum, FnvHashMap, SourceObject, Symbol, Syntax};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// Signature of a native (Rust-implemented) primitive.
///
/// Natives receive the interpreter so higher-order primitives (`apply`,
/// `map`, `sort`, …) can call back into evaluation, and borrow their
/// arguments: the VM passes a slice of its operand stack, so a native call
/// allocates nothing. A native that keeps an argument clones it.
pub type NativeFn = dyn Fn(&mut Interp, &[Value]) -> Result<Value, EvalError>;

/// Identity of a primitive whose exact-integer case the bytecode VM may
/// execute inline ("quickening"), skipping the boxed call. The fast path
/// covers *only* fixnum operands with an in-range result; every other
/// shape — floats, type errors, overflow, unusual arity — falls back to
/// `f`, so observable semantics stay defined by the closure alone. The
/// differential oracle in the bytecode crate holds the two paths to the
/// same answers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QuickOp {
    /// `(+ a b)` — checked add.
    Add,
    /// `(- a b)` — checked sub.
    Sub,
    /// `(* a b)` — checked mul.
    Mul,
    /// `(< a b)`.
    Lt,
    /// `(> a b)`.
    Gt,
    /// `(<= a b)`.
    Le,
    /// `(>= a b)`.
    Ge,
    /// `(= a b)`.
    NumEq,
    /// `(add1 n)` — checked add of 1.
    Add1,
    /// `(sub1 n)` — checked sub of 1.
    Sub1,
}

impl QuickOp {
    /// The fast-path identity for prelude primitive `name`, if it has one.
    /// Keyed by name at registration time ([`crate::Interp::define_native`]);
    /// user code that shadows these names rebinds the global to a fresh
    /// value without a `quick` tag, so shadowing disables the fast path.
    pub fn for_name(name: &str) -> Option<QuickOp> {
        match name {
            "+" => Some(QuickOp::Add),
            "-" => Some(QuickOp::Sub),
            "*" => Some(QuickOp::Mul),
            "<" => Some(QuickOp::Lt),
            ">" => Some(QuickOp::Gt),
            "<=" => Some(QuickOp::Le),
            ">=" => Some(QuickOp::Ge),
            "=" => Some(QuickOp::NumEq),
            "add1" => Some(QuickOp::Add1),
            "sub1" => Some(QuickOp::Sub1),
            _ => None,
        }
    }
}

/// A named native primitive with arity information.
pub struct Native {
    /// Name used in error messages.
    pub name: &'static str,
    /// Minimum number of arguments.
    pub min_args: usize,
    /// Maximum number of arguments (`None` = variadic).
    pub max_args: Option<usize>,
    /// Fixnum fast-path identity, when the VM may inline this primitive.
    pub quick: Option<QuickOp>,
    /// Implementation.
    pub f: Box<NativeFn>,
}

impl fmt::Debug for Native {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#<primitive {}>", self.name)
    }
}

/// A user-defined procedure: compiled lambda plus captured environment.
///
/// Identity (`eq?`/`eqv?`) is the `(def, env)` pointer pair, not the `Rc`:
/// each read of a `letrec`-bound procedure builds a fresh closure over the
/// same code and frame (see [`crate::Frame`]), and those reads are one
/// procedure.
#[derive(Debug)]
pub struct Closure {
    /// Code.
    pub def: Rc<LambdaDef>,
    /// Captured lexical environment.
    pub env: Option<Rc<Frame>>,
}

impl Closure {
    fn same_procedure(&self, other: &Closure) -> bool {
        Rc::ptr_eq(&self.def, &other.def)
            && match (&self.env, &other.env) {
                (None, None) => true,
                (Some(a), Some(b)) => Rc::ptr_eq(a, b),
                _ => false,
            }
    }
}

impl LambdaDef {
    /// Binds `args` as the slots of a fresh frame under `env` — the one
    /// procedure-entry step both executors share, whether the procedure
    /// came as a closure or as code from a frame slot. A variadic lambda
    /// collects the surplus into a list in its last slot.
    ///
    /// # Errors
    ///
    /// An arity error naming the procedure (`#<procedure>` when
    /// anonymous). The name is looked up only on this path, so a call
    /// never touches the symbol table.
    pub fn bind_frame(
        &self,
        env: Option<Rc<Frame>>,
        mut args: Vec<Value>,
    ) -> Result<Rc<Frame>, EvalError> {
        let required = self.params as usize;
        let arity_error = |expected: String, got: usize| {
            let name = self.name.map_or("#<procedure>", |n| n.as_str());
            EvalError::arity(name, &expected, got)
        };
        if self.variadic {
            if args.len() < required {
                return Err(arity_error(format!("at least {required}"), args.len()));
            }
            let rest = Value::list(args.drain(required..));
            args.push(rest);
        } else if args.len() != required {
            return Err(arity_error(required.to_string(), args.len()));
        }
        Ok(Frame::new(args, env))
    }
}

/// A mutable cons cell.
#[derive(Debug)]
pub struct PairCell {
    /// First element.
    pub car: RefCell<Value>,
    /// Rest.
    pub cdr: RefCell<Value>,
}

/// Keys usable in hashtables: the hashable, immutable subset of [`Value`].
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum HashKey {
    /// Symbol key (the common case for `make-eq-hashtable`).
    Sym(Symbol),
    /// Integer key.
    Int(i64),
    /// Character key.
    Char(char),
    /// Boolean key.
    Bool(bool),
    /// String key (copied at insertion, so later mutation of the string
    /// value does not corrupt the table).
    Str(String),
    /// The empty list.
    Nil,
}

impl HashKey {
    /// Converts a value to a key, if it is of a hashable type.
    pub fn from_value(v: &Value) -> Option<HashKey> {
        match v {
            Value::Sym(s) => Some(HashKey::Sym(*s)),
            Value::Int(n) => Some(HashKey::Int(*n)),
            Value::Char(c) => Some(HashKey::Char(*c)),
            Value::Bool(b) => Some(HashKey::Bool(*b)),
            Value::Str(s) => Some(HashKey::Str(s.borrow().clone())),
            Value::Nil => Some(HashKey::Nil),
            _ => None,
        }
    }

    /// Converts a key back to a value.
    pub fn to_value(&self) -> Value {
        match self {
            HashKey::Sym(s) => Value::Sym(*s),
            HashKey::Int(n) => Value::Int(*n),
            HashKey::Char(c) => Value::Char(*c),
            HashKey::Bool(b) => Value::Bool(*b),
            HashKey::Str(s) => Value::string(s),
            HashKey::Nil => Value::Nil,
        }
    }
}

/// A runtime value.
#[derive(Clone, Debug)]
pub enum Value {
    /// The unspecified value (result of `set!`, `define`, empty `begin`).
    Unspecified,
    /// The empty list.
    Nil,
    /// Boolean.
    Bool(bool),
    /// Exact integer.
    Int(i64),
    /// Inexact real.
    Float(f64),
    /// Character.
    Char(char),
    /// Symbol.
    Sym(Symbol),
    /// Mutable string.
    Str(Rc<RefCell<String>>),
    /// Mutable cons cell.
    Pair(Rc<PairCell>),
    /// Mutable vector.
    Vector(Rc<RefCell<Vec<Value>>>),
    /// Mutable hashtable.
    Hash(Rc<RefCell<FnvHashMap<HashKey, Value>>>),
    /// User-defined procedure.
    Closure(Rc<Closure>),
    /// Native primitive.
    Native(Rc<Native>),
    /// First-class syntax object (manipulated by meta-programs).
    Syntax(Rc<Syntax>),
    /// First-class source object / profile point
    /// (returned by `make-profile-point`).
    Source(SourceObject),
}

impl Value {
    /// Builds a cons cell.
    pub fn cons(car: Value, cdr: Value) -> Value {
        Value::Pair(Rc::new(PairCell {
            car: RefCell::new(car),
            cdr: RefCell::new(cdr),
        }))
    }

    /// Builds a fresh mutable string value.
    pub fn string(s: &str) -> Value {
        Value::Str(Rc::new(RefCell::new(s.to_owned())))
    }

    /// Builds a proper list of `elems`, in order. Any double-ended
    /// iterator will do, so a list built from a slice or a drained range
    /// needs no intermediate `Vec`.
    pub fn list<I>(elems: I) -> Value
    where
        I: IntoIterator<Item = Value>,
        I::IntoIter: DoubleEndedIterator,
    {
        let mut acc = Value::Nil;
        for e in elems.into_iter().rev() {
            acc = Value::cons(e, acc);
        }
        acc
    }

    /// Scheme truthiness: everything but `#f` is true.
    #[inline]
    pub fn is_truthy(&self) -> bool {
        !matches!(self, Value::Bool(false))
    }

    /// If `self` is a proper list, collects its elements.
    pub fn list_elems(&self) -> Option<Vec<Value>> {
        let mut out = Vec::new();
        let mut cur = self.clone();
        loop {
            match cur {
                Value::Nil => return Some(out),
                Value::Pair(p) => {
                    out.push(p.car.borrow().clone());
                    let next = p.cdr.borrow().clone();
                    cur = next;
                }
                _ => return None,
            }
        }
    }

    /// Converts an immutable [`Datum`] into a value.
    pub fn from_datum(d: &Datum) -> Value {
        match d {
            Datum::Nil => Value::Nil,
            Datum::Bool(b) => Value::Bool(*b),
            Datum::Int(n) => Value::Int(*n),
            Datum::Float(x) => Value::Float(*x),
            Datum::Char(c) => Value::Char(*c),
            Datum::Str(s) => Value::string(s),
            Datum::Sym(s) => Value::Sym(*s),
            Datum::Pair(p) => Value::cons(Value::from_datum(&p.0), Value::from_datum(&p.1)),
            Datum::Vector(v) => Value::Vector(Rc::new(RefCell::new(
                v.iter().map(Value::from_datum).collect(),
            ))),
        }
    }

    /// Converts back to a [`Datum`], if the value contains only datum-able
    /// parts (no procedures, syntax, or hashtables).
    pub fn to_datum(&self) -> Option<Datum> {
        match self {
            Value::Nil => Some(Datum::Nil),
            Value::Bool(b) => Some(Datum::Bool(*b)),
            Value::Int(n) => Some(Datum::Int(*n)),
            Value::Float(x) => Some(Datum::Float(*x)),
            Value::Char(c) => Some(Datum::Char(*c)),
            Value::Str(s) => Some(Datum::string(&s.borrow())),
            Value::Sym(s) => Some(Datum::Sym(*s)),
            Value::Unspecified => None,
            Value::Pair(p) => Some(Datum::cons(
                p.car.borrow().to_datum()?,
                p.cdr.borrow().to_datum()?,
            )),
            Value::Vector(v) => {
                let elems: Option<Vec<Datum>> = v.borrow().iter().map(|e| e.to_datum()).collect();
                Some(Datum::Vector(elems?.into()))
            }
            _ => None,
        }
    }

    /// `eqv?`: identity for compound values, value equality for atoms.
    pub fn eqv(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Unspecified, Value::Unspecified) => true,
            (Value::Nil, Value::Nil) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a == b,
            (Value::Char(a), Value::Char(b)) => a == b,
            (Value::Sym(a), Value::Sym(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => Rc::ptr_eq(a, b),
            (Value::Pair(a), Value::Pair(b)) => Rc::ptr_eq(a, b),
            (Value::Vector(a), Value::Vector(b)) => Rc::ptr_eq(a, b),
            (Value::Hash(a), Value::Hash(b)) => Rc::ptr_eq(a, b),
            (Value::Closure(a), Value::Closure(b)) => a.same_procedure(b),
            (Value::Native(a), Value::Native(b)) => Rc::ptr_eq(a, b),
            (Value::Syntax(a), Value::Syntax(b)) => Rc::ptr_eq(a, b),
            (Value::Source(a), Value::Source(b)) => a == b,
            _ => false,
        }
    }

    /// `equal?`: deep structural equality.
    pub fn equal(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Str(a), Value::Str(b)) => *a.borrow() == *b.borrow(),
            (Value::Pair(a), Value::Pair(b)) => {
                a.car.borrow().equal(&b.car.borrow()) && a.cdr.borrow().equal(&b.cdr.borrow())
            }
            (Value::Vector(a), Value::Vector(b)) => {
                let (a, b) = (a.borrow(), b.borrow());
                a.len() == b.len() && a.iter().zip(b.iter()).all(|(x, y)| x.equal(y))
            }
            _ => self.eqv(other),
        }
    }

    /// Name of this value's type, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Unspecified => "unspecified",
            Value::Nil => "null",
            Value::Bool(_) => "boolean",
            Value::Int(_) | Value::Float(_) => "number",
            Value::Char(_) => "character",
            Value::Sym(_) => "symbol",
            Value::Str(_) => "string",
            Value::Pair(_) => "pair",
            Value::Vector(_) => "vector",
            Value::Hash(_) => "hashtable",
            Value::Closure(_) | Value::Native(_) => "procedure",
            Value::Syntax(_) => "syntax",
            Value::Source(_) => "source-object",
        }
    }

    /// True for procedures (closures and natives).
    pub fn is_procedure(&self) -> bool {
        matches!(self, Value::Closure(_) | Value::Native(_))
    }

    fn fmt_with(&self, f: &mut fmt::Formatter<'_>, write_mode: bool) -> fmt::Result {
        match self {
            Value::Unspecified => write!(f, "#<void>"),
            Value::Nil => write!(f, "()"),
            Value::Bool(b) => write!(f, "{}", if *b { "#t" } else { "#f" }),
            Value::Int(n) => write!(f, "{n}"),
            Value::Float(x) => write!(f, "{}", Datum::Float(*x)),
            Value::Char(c) => {
                if write_mode {
                    write!(f, "{}", Datum::Char(*c))
                } else {
                    write!(f, "{c}")
                }
            }
            Value::Sym(s) => write!(f, "{s}"),
            Value::Str(s) => {
                if write_mode {
                    write!(f, "{}", Datum::string(&s.borrow()))
                } else {
                    write!(f, "{}", s.borrow())
                }
            }
            Value::Pair(_) => {
                write!(f, "(")?;
                let mut cur = self.clone();
                let mut first = true;
                loop {
                    match cur {
                        Value::Pair(p) => {
                            if !first {
                                write!(f, " ")?;
                            }
                            p.car.borrow().fmt_with(f, write_mode)?;
                            first = false;
                            let next = p.cdr.borrow().clone();
                            cur = next;
                        }
                        Value::Nil => break,
                        other => {
                            write!(f, " . ")?;
                            other.fmt_with(f, write_mode)?;
                            break;
                        }
                    }
                }
                write!(f, ")")
            }
            Value::Vector(v) => {
                write!(f, "#(")?;
                for (i, e) in v.borrow().iter().enumerate() {
                    if i > 0 {
                        write!(f, " ")?;
                    }
                    e.fmt_with(f, write_mode)?;
                }
                write!(f, ")")
            }
            Value::Hash(h) => write!(f, "#<hashtable of {}>", h.borrow().len()),
            Value::Closure(c) => match c.def.name {
                Some(n) => write!(f, "#<procedure {n}>"),
                None => write!(f, "#<procedure>"),
            },
            Value::Native(n) => write!(f, "#<primitive {}>", n.name),
            Value::Syntax(s) => write!(f, "#<syntax {}>", s.to_datum()),
            Value::Source(s) => write!(f, "#<source {s}>"),
        }
    }
}

impl fmt::Display for Value {
    /// `display` semantics: strings and characters print raw.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_with(f, false)
    }
}

impl Value {
    /// `write` semantics: strings quoted, characters in `#\x` form.
    pub fn write_string(&self) -> String {
        struct W<'a>(&'a Value);
        impl fmt::Display for W<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                self.0.fmt_with(f, true)
            }
        }
        W(self).to_string()
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<i64> for Value {
    fn from(n: i64) -> Value {
        Value::Int(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truthiness() {
        assert!(!Value::Bool(false).is_truthy());
        assert!(Value::Bool(true).is_truthy());
        assert!(Value::Int(0).is_truthy());
        assert!(Value::Nil.is_truthy());
    }

    #[test]
    fn datum_round_trip() {
        let d = Datum::list(vec![Datum::Int(1), Datum::string("s"), Datum::sym("x")]);
        let v = Value::from_datum(&d);
        assert_eq!(v.to_datum().unwrap(), d);
    }

    #[test]
    fn eqv_is_identity_for_pairs() {
        let a = Value::cons(Value::Int(1), Value::Nil);
        let b = Value::cons(Value::Int(1), Value::Nil);
        assert!(!a.eqv(&b));
        assert!(a.eqv(&a.clone()));
        assert!(a.equal(&b));
    }

    #[test]
    fn equal_descends_structures() {
        let a = Value::list(vec![Value::string("x"), Value::Int(2)]);
        let b = Value::list(vec![Value::string("x"), Value::Int(2)]);
        assert!(a.equal(&b));
        let c = Value::list(vec![Value::string("y"), Value::Int(2)]);
        assert!(!a.equal(&c));
    }

    #[test]
    fn display_and_write_differ_on_strings() {
        let v = Value::string("hi");
        assert_eq!(v.to_string(), "hi");
        assert_eq!(v.write_string(), "\"hi\"");
        let c = Value::Char('a');
        assert_eq!(c.to_string(), "a");
        assert_eq!(c.write_string(), "#\\a");
    }

    #[test]
    fn list_elems_rejects_improper() {
        let improper = Value::cons(Value::Int(1), Value::Int(2));
        assert!(improper.list_elems().is_none());
        let proper = Value::list(vec![Value::Int(1), Value::Int(2)]);
        assert_eq!(proper.list_elems().unwrap().len(), 2);
    }

    #[test]
    fn hash_keys_round_trip() {
        for v in [
            Value::Sym(Symbol::intern("k")),
            Value::Int(3),
            Value::Char('c'),
            Value::Bool(true),
            Value::string("sk"),
            Value::Nil,
        ] {
            let k = HashKey::from_value(&v).unwrap();
            assert!(k.to_value().equal(&v));
        }
        assert!(HashKey::from_value(&Value::list(vec![Value::Int(1)])).is_none());
    }

    #[test]
    fn improper_list_display() {
        let v = Value::cons(Value::Int(1), Value::Int(2));
        assert_eq!(v.to_string(), "(1 . 2)");
    }
}
