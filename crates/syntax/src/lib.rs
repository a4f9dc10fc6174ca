//! Syntax-object infrastructure for profile-guided meta-programming.
//!
//! This crate provides the data the rest of the system is built from:
//!
//! - [`Symbol`] — globally interned identifiers;
//! - [`Datum`] — immutable S-expression data (the result of `syntax->datum`);
//! - [`SourceObject`] — Chez-Scheme-style source objects: a filename plus a
//!   begin/end file position. Source objects double as **profile points**
//!   (§3.1 of the paper): each one names a unique profile counter;
//! - [`Syntax`] — syntax objects: datum structure annotated with source
//!   objects and hygiene [`MarkSet`]s, the values that meta-programs
//!   manipulate;
//! - [`FnvHasher`] — the workspace's one fast hasher, for maps keyed by
//!   program-internal values and for persisted fingerprints;
//! - a writer (`Display` impls) used both for error messages and for the
//!   textual profile-data format.
//!
//! # Example
//!
//! ```
//! use pgmp_syntax::{Datum, Symbol};
//! let d = Datum::list(vec![
//!     Datum::Sym(Symbol::intern("if")),
//!     Datum::Bool(true),
//!     Datum::Int(1),
//!     Datum::Int(2),
//! ]);
//! assert_eq!(d.to_string(), "(if #t 1 2)");
//! ```

mod datum;
mod hash;
mod intern;
mod mark;
mod source;
mod syntax;

pub use datum::{write_float, write_string, Datum};
pub use hash::{FnvHashMap, FnvHasher};
pub use intern::Symbol;
pub use mark::{Mark, MarkSet};
pub use source::{sort_by_location, SourceFactory, SourceObject};
pub use syntax::{Syntax, SyntaxBody};
