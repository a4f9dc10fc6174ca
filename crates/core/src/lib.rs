//! Profile-guided meta-programming.
//!
//! This crate is the Rust reproduction of the system described in
//! *"Profile-Guided Meta-Programming"* (Bowman, Miller, St-Amour, Dybvig —
//! PLDI 2015): a general-purpose mechanism that gives **meta-programs
//! compile-time access to profile information**, so macros can generate
//! code specialized to how the program actually runs.
//!
//! The pieces:
//!
//! - [`api`] — the paper's Figure 4 API (`make-profile-point`,
//!   `annotate-expr`, `profile-query`, `store-profile`, `load-profile`,
//!   `current-profile-information`), installed as ordinary procedures in
//!   the macro expander's meta interpreter;
//! - [`Engine`] — a compilation session: read → expand (meta-programs can
//!   consult the loaded profile) → run, optionally instrumented in either
//!   of the two profiler models the paper targets (Chez-style
//!   every-expression counters or Racket `errortrace`-style call-only
//!   counters, with `annotate-expr` wrapping expressions in thunk calls);
//!   an instrumented run with dense counters executes on the bytecode VM
//!   and derives those counts from block counts;
//! - [`workflow`] — the §4.3 three-pass protocol keeping source-level
//!   PGMP and block-level PGO consistent;
//! - [`incremental`] — a per-form recompilation cache that makes
//!   re-optimization O(changed forms) by tracking which profile points
//!   each top-level form consulted during expansion;
//! - [`persist`] — the on-disk session format behind
//!   [`IncrementalEngine::save_state`] /
//!   [`IncrementalEngine::load_state`], which carries that cache across
//!   *process* boundaries so re-optimization warm-starts in O(changed
//!   forms) from the first compile.
//!
//! [`IncrementalEngine::save_state`]: incremental::IncrementalEngine::save_state
//! [`IncrementalEngine::load_state`]: incremental::IncrementalEngine::load_state
//!
//! # Quickstart
//!
//! ```
//! use pgmp::{AnnotateStrategy, Engine};
//! use pgmp_profiler::ProfileMode;
//!
//! // A meta-program that reorders if branches by profile weight (§2).
//! let program = r#"
//!   (define-syntax (if-r stx)
//!     (syntax-case stx ()
//!       [(_ test t-branch f-branch)
//!        (if (< (profile-query #'t-branch) (profile-query #'f-branch))
//!            #'(if (not test) f-branch t-branch)
//!            #'(if test t-branch f-branch))]))
//!   (define (classify n)
//!     (if-r (< n 10) 'small 'big))
//!   (let loop ([i 0])
//!     (unless (= i 50) (classify 100) (loop (add1 i))))
//! "#;
//!
//! // Pass 1: run instrumented, collect weights.
//! let mut e1 = Engine::new();
//! e1.set_instrumentation(ProfileMode::EveryExpression);
//! e1.run_str(program, "classify.scm")?;
//! let weights = e1.current_weights();
//!
//! // Pass 2: recompile with the profile; if-r now sees real weights and
//! // swaps the branches ('big is hotter).
//! let mut e2 = Engine::with_strategy(AnnotateStrategy::Direct);
//! e2.set_profile(weights);
//! let expansion = e2.expand_str(program, "classify.scm")?;
//! let classify = expansion.iter().map(|s| s.to_string())
//!     .find(|s| s.contains("define (classify"))
//!     .expect("classify definition");
//! assert!(classify.contains("(if (not (< n 10)) (quote big) (quote small))"));
//! # Ok::<(), pgmp::Error>(())
//! ```

pub mod api;
mod engine;
mod error;
pub mod incremental;
pub mod persist;
pub mod workflow;

pub use api::{install_pgmp_api, PgmpState, ProfileReadLog};
pub use engine::{AnnotateStrategy, Engine};
pub use error::Error;
pub use incremental::{CompiledUnit, IncrementalConfig, IncrementalEngine, ReuseStats};
pub use persist::{SaveStats, WarmStart};
pub use pgmp_expander::Expansion;
