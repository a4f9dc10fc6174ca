//! Evaluation errors.

use pgmp_syntax::SourceObject;
use std::fmt;
use std::ops::{Deref, DerefMut};

/// An error raised during evaluation.
///
/// Carries the source object of the offending expression when known, so
/// errors in macro-generated code still point at a source location — the
/// property §4.1 notes as a benefit of deriving generated profile points
/// from base source objects.
///
/// One pointer wide: the fields live behind a `Box` (read and written
/// through `Deref`/`DerefMut`), so `Result<Value, EvalError>` is two
/// words and every `eval` and native returns in registers. Errors are
/// rare; the allocation is paid only when one is raised.
#[derive(Clone, Debug, PartialEq)]
pub struct EvalError(Box<EvalErrorInfo>);

/// The fields of an [`EvalError`].
#[derive(Clone, Debug, PartialEq)]
pub struct EvalErrorInfo {
    /// What went wrong.
    pub kind: EvalErrorKind,
    /// Human-readable description.
    pub message: String,
    /// Where, if known.
    pub src: Option<SourceObject>,
}

impl Deref for EvalError {
    type Target = EvalErrorInfo;

    fn deref(&self) -> &EvalErrorInfo {
        &self.0
    }
}

impl DerefMut for EvalError {
    fn deref_mut(&mut self) -> &mut EvalErrorInfo {
        &mut self.0
    }
}

/// Classification of evaluation errors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EvalErrorKind {
    /// Reference to an undefined global variable.
    Unbound,
    /// Wrong number of arguments.
    Arity,
    /// Wrong type of argument.
    Type,
    /// Raised by the `error` primitive.
    User,
    /// Evaluation exceeded the configured fuel (step budget).
    Fuel,
    /// Anything else (bad index, division by zero, …).
    Runtime,
}

impl EvalError {
    /// Creates an error of `kind` with `message` and no location.
    pub fn new(kind: EvalErrorKind, message: impl Into<String>) -> EvalError {
        EvalError(Box::new(EvalErrorInfo {
            kind,
            message: message.into(),
            src: None,
        }))
    }

    /// Attaches a source location if one is not already present.
    pub fn with_src(mut self, src: Option<SourceObject>) -> EvalError {
        if self.src.is_none() {
            self.src = src;
        }
        self
    }

    /// Convenience constructor for type errors.
    pub fn type_error(expected: &str, got: &crate::value::Value) -> EvalError {
        EvalError::new(
            EvalErrorKind::Type,
            format!("expected {expected}, got {}: {got}", got.type_name()),
        )
    }

    /// Convenience constructor for arity errors.
    pub fn arity(name: &str, expected: &str, got: usize) -> EvalError {
        EvalError::new(
            EvalErrorKind::Arity,
            format!("{name}: expected {expected} arguments, got {got}"),
        )
    }
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.src {
            Some(src) => write!(f, "{} (at {src})", self.message),
            None => write!(f, "{}", self.message),
        }
    }
}

impl std::error::Error for EvalError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_location() {
        let e = EvalError::new(EvalErrorKind::Unbound, "unbound variable x")
            .with_src(Some(SourceObject::new("f.scm", 3, 4)));
        assert_eq!(e.to_string(), "unbound variable x (at f.scm:3-4)");
    }

    #[test]
    fn eval_results_are_two_words() {
        // A boxed error lets `Result<Value, EvalError>` reuse `Value`'s
        // niche: it stays the size of a `Value` and returns in registers.
        assert_eq!(std::mem::size_of::<EvalError>(), 8);
        assert_eq!(
            std::mem::size_of::<Result<crate::value::Value, EvalError>>(),
            16
        );
    }

    #[test]
    fn with_src_keeps_first_location() {
        let first = SourceObject::new("a.scm", 0, 1);
        let second = SourceObject::new("b.scm", 2, 3);
        let e = EvalError::new(EvalErrorKind::Runtime, "boom")
            .with_src(Some(first))
            .with_src(Some(second));
        assert_eq!(e.src, Some(first));
    }
}
