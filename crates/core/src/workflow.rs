//! The §4.3 three-pass protocol: consistent source- and block-level PGO.
//!
//! Meta-program optimizations change the generated source, which would
//! invalidate any block-level profile collected earlier. The paper's fix is
//! to compile **three** times:
//!
//! 1. instrument *source* expressions, run, collect source weights;
//! 2. recompile **using** those source weights (meta-programs now
//!    optimize) while instrumenting *basic blocks*, run, collect block
//!    counts — these remain valid because the source weights are held
//!    fixed, so the generated code is stable;
//! 3. recompile using both: the same source weights for meta-programs and
//!    the block counts for block-level PGO (here: profile-guided code
//!    layout).
//!
//! [`run_three_pass`] drives the protocol and checks the stability
//! invariant: the pass-3 CFGs must equal the pass-2 CFGs.
//!
//! Passes 2 and 3 run over one [`IncrementalEngine`]: pass 3 uses the same
//! source weights as pass 2, so every form whose read-set validates is
//! served from the per-form cache — the stability invariant is enforced
//! *structurally* (reused forms keep their chunks, and with them their
//! chunk ids, so pass-2 block counters apply to pass-3 code directly, with
//! no creation-order id translation).

use crate::engine::Engine;
use crate::error::Error;
use crate::incremental::{IncrementalConfig, IncrementalEngine, ReuseStats};
use pgmp_bytecode::{canonical_form, BlockCounters, Vm, VmMetrics};
use pgmp_profiler::{ProfileInformation, ProfileMode};

/// Everything the three-pass run observed; see module docs.
#[derive(Debug)]
pub struct ThreePassReport {
    /// Source-level weights collected in pass 1 (the meta-programs'
    /// oracle).
    pub source_weights: ProfileInformation,
    /// Canonical CFGs compiled in pass 2, in creation order.
    pub pass2_chunks: Vec<String>,
    /// Canonical CFGs compiled in pass 3, in creation order.
    pub pass3_chunks: Vec<String>,
    /// The §4.3 invariant: pass-3 code equals pass-2 code.
    pub stable: bool,
    /// Cache accounting for the pass-3 recompile: under unchanged source
    /// weights every form should be reused.
    pub reuse: ReuseStats,
    /// Jump behaviour of the pass-2 (unoptimized layout) code.
    pub baseline_metrics: VmMetrics,
    /// Jump behaviour of the pass-3 (profile-laid-out) code.
    pub optimized_metrics: VmMetrics,
    /// Result of the final run, `write`-printed.
    pub result: String,
}

/// Runs the full three-pass protocol on `src`.
///
/// The program is its own training workload: each pass executes the whole
/// program (so it should be idempotent across re-runs, which all the
/// paper-style benchmarks here are).
///
/// # Errors
///
/// Propagates any read/expand/eval error from any pass.
pub fn run_three_pass(src: &str, file: &str) -> Result<ThreePassReport, Error> {
    // ---- Pass 1: source-level instrumentation -------------------------
    let mut e1 = Engine::new();
    e1.set_instrumentation(ProfileMode::EveryExpression);
    e1.run_str(src, file)?;
    let source_weights = e1.current_weights();

    // ---- Pass 2: optimize with source weights, profile blocks ---------
    let mut incr =
        IncrementalEngine::with_engine(Engine::new(), src, file, IncrementalConfig::default())?;
    let unit2 = incr.compile(&source_weights)?;

    // ---- Pass 3: recompile with the same source weights ---------------
    // Served from the per-form cache: every read-set still validates, so
    // reuse is total and the pass-3 code *is* the pass-2 code (same
    // chunks, same ids).
    let unit3 = incr.compile(&source_weights)?;
    let mut pass2_chunks: Vec<String> = unit2.chunks.iter().map(canonical_form).collect();
    let mut pass3_chunks: Vec<String> = unit3.chunks.iter().map(canonical_form).collect();
    let stable = pass2_chunks == pass3_chunks;
    let reuse = unit3.stats;

    // Profile basic blocks while running the pass-2 code. Lambda bodies
    // compile lazily inside the VM and are shared by both passes (reused
    // forms hand back the same core forms).
    let block_counts = BlockCounters::new();
    let mut vm = Vm::new();
    vm.set_block_profiling(block_counts.clone());
    let interp = incr.engine_mut().interp_mut();
    for chunk in &unit2.chunks {
        vm.run_chunk(interp, chunk)?;
    }
    let baseline_metrics = vm.metrics;
    let lambda_canon: Vec<String> = vm.compiled_chunks().iter().map(canonical_form).collect();
    pass2_chunks.extend(lambda_canon.iter().cloned());
    pass3_chunks.extend(lambda_canon);

    // Apply the block-level PGO (layout) and measure the final run. The
    // counters apply directly: pass-3 chunks kept their pass-2 ids.
    let mut laid_out = unit3.chunks;
    vm.relayout(&mut laid_out, &block_counts);
    vm.metrics = VmMetrics::default();
    vm.block_counters = None;
    let mut result = String::new();
    let interp = incr.engine_mut().interp_mut();
    for chunk in &laid_out {
        result = vm.run_chunk(interp, chunk)?.write_string();
    }
    let optimized_metrics = vm.metrics;

    Ok(ThreePassReport {
        source_weights,
        pass2_chunks,
        pass3_chunks,
        stable,
        reuse,
        baseline_metrics,
        optimized_metrics,
        result,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const BIASED: &str = "
      (define-syntax (if-r stx)
        (syntax-case stx ()
          [(_ test t-branch f-branch)
           (if (< (profile-query #'t-branch) (profile-query #'f-branch))
               #'(if (not test) f-branch t-branch)
               #'(if test t-branch f-branch))]))
      (define (classify n) (if-r (= n 0) 'rare 'common))
      (let loop ([i 0] [acc 0])
        (if (= i 500)
            acc
            (loop (add1 i) (if (eq? (classify i) 'common) (add1 acc) acc))))";

    #[test]
    fn three_pass_is_stable_and_correct() {
        let report = run_three_pass(BIASED, "biased.scm").unwrap();
        assert!(report.stable, "pass-3 CFGs must equal pass-2 CFGs");
        assert_eq!(report.result, "499");
        assert!(!report.source_weights.is_empty());
        assert_eq!(report.pass2_chunks.len(), report.pass3_chunks.len());
        assert!(
            report.reuse.all_reused(),
            "pass 3 under identical weights must be a full cache hit: {:?}",
            report.reuse
        );
    }

    #[test]
    fn three_pass_layout_does_not_hurt_fallthrough() {
        let report = run_three_pass(BIASED, "biased.scm").unwrap();
        assert!(
            report.optimized_metrics.fallthrough_ratio()
                >= report.baseline_metrics.fallthrough_ratio() - 1e-9,
            "layout must not reduce fall-through: {:?} vs {:?}",
            report.optimized_metrics,
            report.baseline_metrics
        );
    }

    #[test]
    fn three_pass_plain_program() {
        // No meta-programs at all: still stable.
        let report = run_three_pass("(define (f x) (* x x)) (+ (f 3) (f 4))", "plain.scm").unwrap();
        assert!(report.stable);
        assert_eq!(report.result, "25");
    }
}
