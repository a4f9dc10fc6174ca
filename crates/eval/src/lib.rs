//! Core language and evaluator.
//!
//! The macro expander (`pgmp-expander`) lowers fully-expanded programs into
//! the [`Core`] expression language defined here; this crate evaluates it
//! with a tree-walking interpreter that supports proper tail calls and —
//! crucially for the paper — **profile instrumentation**: when a
//! [`pgmp_profiler::ProfileMode`] is active, the interpreter bumps the
//! counter of every executed expression's source object
//! ([`ProfileMode::EveryExpression`], the Chez Scheme model) or of every
//! procedure call ([`ProfileMode::CallsOnly`], the Racket `errortrace`
//! model).
//!
//! The same interpreter runs *meta-programs*: the expander evaluates
//! `define-syntax` transformers with an [`Interp`] whose globals include the
//! profile-query API, which is how meta-programs observe profile weights at
//! compile time.
//!
//! [`ProfileMode::EveryExpression`]: pgmp_profiler::ProfileMode::EveryExpression
//! [`ProfileMode::CallsOnly`]: pgmp_profiler::ProfileMode::CallsOnly

mod core_expr;
mod env;
mod error;
mod interp;
mod pattern;
mod prims;
mod serialize;
mod value;

pub use core_expr::{resolve_profile_slots, CodeSlot, Core, CoreKind, LambdaDef};
pub use env::{Callee, Frame};
pub use error::{EvalError, EvalErrorInfo, EvalErrorKind};
pub use interp::Interp;
pub use pattern::{Matcher, Pattern};
pub use prims::{install_primitives, value_to_syntax};
pub use serialize::{
    core_from_datum, core_from_datum_with, core_to_datum, core_to_datum_with, StringTable,
};
pub use value::{Closure, HashKey, Native, NativeFn, PairCell, QuickOp, Value};
