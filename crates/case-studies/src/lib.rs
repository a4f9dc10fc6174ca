//! The paper's case studies, packaged as loadable libraries.
//!
//! Each case study is a meta-program written in the object language
//! (under `scheme/`), exercised through the [`pgmp::Engine`]:
//!
//! - [`Lib::IfR`] — §2's running example (profile-guided `if`);
//! - [`Lib::ExclusiveCond`] + [`Lib::Case`] — §6.1 profile-guided
//!   conditional branch reordering (Figures 5–8);
//! - [`Lib::ObjectSystem`] — §6.2 receiver class prediction /
//!   polymorphic inline caching (Figures 9–12);
//! - [`Lib::ProfiledList`], [`Lib::ProfiledVector`], [`Lib::Sequence`] —
//!   §6.3 data-structure recommendations and self-specialization
//!   (Figures 13–14).
//!
//! [`two_pass`] packages the paper's basic workflow: run instrumented on a
//! training input, then recompile with the collected weights so the
//! meta-programs optimize.
//!
//! # Example
//!
//! ```
//! use pgmp_case_studies::{two_pass, Lib};
//!
//! let program = r#"
//!   (define (classify n) (if-r (= n 0) 'zero 'nonzero))
//!   (let loop ([i 0] [zeros 0])
//!     (if (= i 100)
//!         zeros
//!         (loop (add1 i) (if (eqv? (classify i) 'zero) (add1 zeros) zeros))))
//! "#;
//! let result = two_pass(&[Lib::IfR], program, "demo.scm")?;
//! // 'nonzero dominates, so if-r negated the test and swapped branches:
//! assert!(result.expansion_text.contains("(if (not (= n 0)) (quote nonzero) (quote zero))"));
//! assert_eq!(result.training_result, result.optimized_result);
//! # Ok::<(), pgmp::Error>(())
//! ```

use pgmp::{Engine, Error};
use pgmp_profiler::{Counters, ProfileInformation, ProfileMode};

/// §2 running example: `if-r`.
pub const IF_R: &str = include_str!("../scheme/if-r.scm");
/// §6.1 Figure 7: `exclusive-cond`.
pub const EXCLUSIVE_COND: &str = include_str!("../scheme/exclusive-cond.scm");
/// §6.1 Figure 6: profile-guided `case` (requires [`EXCLUSIVE_COND`]).
pub const CASE: &str = include_str!("../scheme/case.scm");
/// §6.2 Figures 9–12: object system with receiver class prediction.
pub const OBJECT_SYSTEM: &str = include_str!("../scheme/oo.scm");
/// §6.3 Figure 13: profiled list library.
pub const PROFILED_LIST: &str = include_str!("../scheme/profiled-list.scm");
/// §6.3: profiled vector library.
pub const PROFILED_VECTOR: &str = include_str!("../scheme/profiled-vector.scm");
/// §6.3 Figure 14: self-specializing sequence library.
pub const SEQUENCE: &str = include_str!("../scheme/sequence.scm");
/// Extension: profile-guided function inlining (the PGO the paper's
/// introduction motivates with Arnold et al.'s numbers).
pub const INLINE: &str = include_str!("../scheme/inline.scm");

/// The loadable case-study libraries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lib {
    /// §2 `if-r`.
    IfR,
    /// §6.1 `exclusive-cond`.
    ExclusiveCond,
    /// §6.1 profile-guided `case` (loads `exclusive-cond` implicitly).
    Case,
    /// §6.2 object system.
    ObjectSystem,
    /// §6.3 profiled list.
    ProfiledList,
    /// §6.3 profiled vector.
    ProfiledVector,
    /// §6.3 sequence.
    Sequence,
    /// Extension: profile-guided inlining.
    Inline,
}

impl Lib {
    /// Source text of this library (with implicit dependencies resolved by
    /// [`install`]).
    pub fn source(self) -> &'static str {
        match self {
            Lib::IfR => IF_R,
            Lib::ExclusiveCond => EXCLUSIVE_COND,
            Lib::Case => CASE,
            Lib::ObjectSystem => OBJECT_SYSTEM,
            Lib::ProfiledList => PROFILED_LIST,
            Lib::ProfiledVector => PROFILED_VECTOR,
            Lib::Sequence => SEQUENCE,
            Lib::Inline => INLINE,
        }
    }

    /// Filename used for source objects.
    pub fn file(self) -> &'static str {
        match self {
            Lib::IfR => "if-r.scm",
            Lib::ExclusiveCond => "exclusive-cond.scm",
            Lib::Case => "case.scm",
            Lib::ObjectSystem => "oo.scm",
            Lib::ProfiledList => "profiled-list.scm",
            Lib::ProfiledVector => "profiled-vector.scm",
            Lib::Sequence => "sequence.scm",
            Lib::Inline => "inline.scm",
        }
    }

    /// Libraries this one needs loaded first.
    pub fn deps(self) -> &'static [Lib] {
        match self {
            Lib::Case => &[Lib::ExclusiveCond],
            _ => &[],
        }
    }
}

/// Loads `lib` (and its dependencies) into `engine`.
///
/// # Errors
///
/// Propagates engine errors from loading the library sources.
pub fn install(engine: &mut Engine, lib: Lib) -> Result<(), Error> {
    for dep in lib.deps() {
        install(engine, *dep)?;
    }
    engine.load_library(lib.source(), lib.file())
}

/// Creates an engine with the given case-study libraries loaded.
///
/// # Errors
///
/// Propagates engine errors from loading the library sources.
pub fn engine_with(libs: &[Lib]) -> Result<Engine, Error> {
    let mut engine = Engine::new();
    for lib in libs {
        install(&mut engine, *lib)?;
    }
    Ok(engine)
}

/// Expands `program` in `engine` and tree-walks it, counting into
/// `counters` under `mode` through `Interp::set_profiling`, and returns
/// the last form's value, printed: an instrumented run on the tree
/// walker, the oracle for the counts the engine's own instrumented runs
/// derive on the VM. `file` names the program in source objects.
///
/// # Errors
///
/// Propagates expansion and evaluation errors.
pub fn tree_walk_counting(
    engine: &mut Engine,
    program: &str,
    file: &str,
    mode: ProfileMode,
    counters: &Counters,
) -> Result<String, Error> {
    let core = engine.expand_to_core(program, file)?;
    let interp = engine.interp_mut();
    interp.set_profiling(mode, counters.clone());
    let mut last = String::new();
    for form in &core {
        last = interp.eval(form, &None)?.write_string();
    }
    Ok(last)
}

/// Result of a [`two_pass`] profile-then-optimize cycle.
#[derive(Debug)]
pub struct TwoPass {
    /// `write`-printed result of the instrumented training run.
    pub training_result: String,
    /// Source-level weights collected during training.
    pub weights: ProfileInformation,
    /// The fully expanded optimized program, printed (one line per
    /// toplevel form) — compare against the paper's figures.
    pub expansion_text: String,
    /// `write`-printed result of the optimized run (must equal the
    /// training result: PGO never changes observable behaviour).
    pub optimized_result: String,
    /// Compile-time warnings produced during the *optimizing* compile
    /// (e.g. the Figure 13 representation recommendation).
    pub warnings: Vec<String>,
    /// Output printed by the optimized run.
    pub output: String,
}

/// Runs the paper's basic workflow on `program`:
///
/// 1. load `libs`, run the program instrumented (every-expression
///    counters), and compute profile weights;
/// 2. in a fresh engine with the same libraries and those weights loaded,
///    compile the program once ([`Engine::compile_str`]): print its
///    expansion for inspection and run the optimized code it compiled to.
///
/// # Errors
///
/// Propagates the first engine error from either pass.
pub fn two_pass(libs: &[Lib], program: &str, file: &str) -> Result<TwoPass, Error> {
    // Pass 1: profile.
    let mut e1 = engine_with(libs)?;
    e1.set_instrumentation(ProfileMode::EveryExpression);
    let training_result = e1.run_str(program, file)?.write_string();
    let weights = e1.current_weights();

    // Pass 2: optimize.
    let mut e2 = engine_with(libs)?;
    e2.set_profile(weights.clone());
    let compiled = e2.compile_str(program, file)?;
    let expansion_text = compiled.printed().join("\n");
    let warnings = e2.take_warnings();
    let optimized_result = e2.run_cores(&compiled.cores, file)?.write_string();
    let output = e2.take_output();

    Ok(TwoPass {
        training_result,
        weights,
        expansion_text,
        optimized_result,
        warnings,
        output,
    })
}

/// Line counts of each case-study implementation, counting non-blank,
/// non-comment lines — the accounting used for the paper's §6 line-count
/// claims (experiment E9).
pub fn loc_counts() -> Vec<(&'static str, usize)> {
    fn loc(src: &str) -> usize {
        src.lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with(';'))
            .count()
    }
    vec![
        ("if-r (§2)", loc(IF_R)),
        ("exclusive-cond (§6.1)", loc(EXCLUSIVE_COND)),
        ("case (§6.1)", loc(CASE)),
        ("object system incl. receiver prediction (§6.2)", loc(OBJECT_SYSTEM)),
        ("profiled list (§6.3)", loc(PROFILED_LIST)),
        ("profiled vector (§6.3)", loc(PROFILED_VECTOR)),
        ("sequence (§6.3)", loc(SEQUENCE)),
        ("profile-guided inlining (extension)", loc(INLINE)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_libraries_load_cleanly() {
        let mut engine = engine_with(&[
            Lib::IfR,
            Lib::Case,
            Lib::ObjectSystem,
            Lib::ProfiledList,
            Lib::ProfiledVector,
            Lib::Sequence,
        ])
        .unwrap();
        let v = engine.run_str("(+ 1 2)", "smoke.scm").unwrap();
        assert_eq!(v.to_string(), "3");
    }

    #[test]
    fn deps_resolve_transitively() {
        // Case requires exclusive-cond; installing Case alone must work.
        let mut engine = engine_with(&[Lib::Case]).unwrap();
        let v = engine
            .run_str("(case 2 [(1) 'one] [(2) 'two] [else 'other])", "t.scm")
            .unwrap();
        assert_eq!(v.to_string(), "two");
    }

    #[test]
    fn loc_counts_are_reported_for_every_study() {
        let counts = loc_counts();
        assert_eq!(counts.len(), 8);
        for (name, n) in counts {
            assert!(n > 5, "{name} suspiciously small: {n}");
        }
    }
}
