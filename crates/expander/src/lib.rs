//! The hygienic macro expander — the "meta-programming system" of the paper.
//!
//! This crate turns syntax objects into [`pgmp_eval::Core`] expressions,
//! running `define-syntax` transformers along the way. It provides the
//! Scheme-style facilities the paper's case studies are written in:
//!
//! - `define-syntax` with procedural transformers (`(define-syntax (name
//!   stx) body …)` or `(define-syntax name transformer-expr)`),
//! - `syntax-case` pattern matching with literals, fenders, `_` and `…`,
//! - `#'template` (`syntax`), `` #`template `` (`quasisyntax`) with `#,`
//!   (`unsyntax`) and `#,@` (`unsyntax-splicing`),
//! - `define-for-syntax` / `begin-for-syntax` for expand-time state (used
//!   by the object system of §6.2 to keep a class table),
//! - mark-based hygiene (fresh mark per macro invocation, XOR-cancelling),
//! - the usual derived forms: `let`, `let*`, `letrec`, named `let`,
//!   `cond`, `case`, `when`, `unless`, `and`, `or`, `quasiquote`.
//!
//! Transformers run on a *meta* interpreter embedded in the [`Expander`];
//! the engine (`pgmp` crate) installs the profile API (`profile-query`,
//! `make-profile-point`, `annotate-expr`) into that interpreter, which is
//! exactly the paper's design: meta-programs access profile information
//! through ordinary procedures available at expand time.
//!
//! # Example
//!
//! ```
//! use pgmp_expander::Expander;
//! use pgmp_eval::{install_primitives, Interp};
//! use pgmp_reader::read_str;
//!
//! let mut exp = Expander::new();
//! let forms = read_str(
//!     "(define-syntax (twice stx)
//!        (syntax-case stx ()
//!          [(_ e) #'(+ e e)]))
//!      (twice 21)",
//!     "demo.scm",
//! ).unwrap();
//! let program = exp.expand_program(&forms).unwrap();
//!
//! let mut interp = Interp::new();
//! install_primitives(&mut interp);
//! pgmp_expander::install_expander_support(&mut interp);
//! let mut last = pgmp_eval::Value::Unspecified;
//! for form in &program {
//!     last = interp.eval(form, &None).unwrap();
//! }
//! assert_eq!(last.to_string(), "42");
//! ```

mod cenv;
mod deep;
mod error;
mod expander;
mod forms;
mod identity;
mod pattern;
mod support;
mod template;

pub use cenv::{BindKind, CEnv};
pub use error::{ExpandError, ExpandErrorKind};
pub use expander::{Expander, Expansion, ReplayGuard};
pub use identity::form_hash;
pub use support::install_expander_support;
