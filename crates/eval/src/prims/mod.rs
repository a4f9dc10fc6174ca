//! Native primitives: the standard library of the object language.
//!
//! Installed into an [`Interp`]'s global environment by
//! [`install_primitives`]. The set covers what the paper's case studies and
//! our benchmark workloads need: pairs/lists, vectors, strings, characters,
//! hashtables, arithmetic, higher-order control (`apply`, `map`, `sort`,
//! `curry`), I/O capture (`display`, `printf`), and syntax-object
//! operations for meta-programs.

mod arith;
mod control;
mod hash;
mod lists;
mod strings;
mod syntax_ops;

pub use syntax_ops::value_to_syntax;
mod vectors;

use crate::error::EvalError;
use crate::interp::Interp;
use crate::value::Value;

/// Installs every primitive into `interp`'s global environment.
///
/// # Example
///
/// ```
/// use pgmp_eval::{install_primitives, Interp, Value};
/// use pgmp_syntax::Symbol;
/// let mut interp = Interp::new();
/// install_primitives(&mut interp);
/// let plus = interp.global(Symbol::intern("+")).cloned().unwrap();
/// let v = interp.apply(&plus, &[Value::Int(2), Value::Int(3)])?;
/// assert_eq!(v.to_string(), "5");
/// # Ok::<(), pgmp_eval::EvalError>(())
/// ```
pub fn install_primitives(interp: &mut Interp) {
    arith::install(interp);
    lists::install(interp);
    strings::install(interp);
    vectors::install(interp);
    hash::install(interp);
    control::install(interp);
    syntax_ops::install(interp);
}

pub(crate) fn want_int(v: &Value) -> Result<i64, EvalError> {
    match v {
        Value::Int(n) => Ok(*n),
        other => Err(EvalError::type_error("integer", other)),
    }
}

pub(crate) fn want_index(v: &Value) -> Result<usize, EvalError> {
    let n = want_int(v)?;
    usize::try_from(n).map_err(|_| {
        EvalError::new(
            crate::error::EvalErrorKind::Runtime,
            format!("index must be non-negative, got {n}"),
        )
    })
}

pub(crate) fn want_char(v: &Value) -> Result<char, EvalError> {
    match v {
        Value::Char(c) => Ok(*c),
        other => Err(EvalError::type_error("character", other)),
    }
}

pub(crate) fn want_string(v: &Value) -> Result<String, EvalError> {
    match v {
        Value::Str(s) => Ok(s.borrow().clone()),
        other => Err(EvalError::type_error("string", other)),
    }
}

pub(crate) fn want_symbol(v: &Value) -> Result<pgmp_syntax::Symbol, EvalError> {
    match v {
        Value::Sym(s) => Ok(*s),
        other => Err(EvalError::type_error("symbol", other)),
    }
}

pub(crate) fn want_list(v: &Value) -> Result<Vec<Value>, EvalError> {
    v.list_elems()
        .ok_or_else(|| EvalError::type_error("proper list", v))
}

pub(crate) fn want_procedure(v: &Value) -> Result<&Value, EvalError> {
    if v.is_procedure() {
        Ok(v)
    } else {
        Err(EvalError::type_error("procedure", v))
    }
}

pub(crate) fn runtime_error(msg: impl Into<String>) -> EvalError {
    EvalError::new(crate::error::EvalErrorKind::Runtime, msg)
}
