//! E7 bench — §4.4 profiling overhead.
//!
//! Paper numbers: the Chez Scheme profiler costs ≈9% at run time; Racket
//! `errortrace` costs 4–12×, *plus* the extra thunk-wrapping
//! `annotate-expr` performs there. We measure the same three
//! configurations on a CPU-bound workload:
//!
//! - uninstrumented,
//! - every-expression counters (the Chez model),
//! - calls-only counters with thunk-wrapped annotations (the Racket
//!   model).
//!
//! Instrumented `Engine` runs execute on the bytecode VM and derive their
//! counts from block counts; the tree walker's per-expression counters,
//! driven through `Interp::set_profiling`, are the oracle rows.

use criterion::{criterion_group, criterion_main, Criterion};
use pgmp::{AnnotateStrategy, Engine};
use pgmp_bench::workloads::fib_program;
use pgmp_bytecode::{compile_chunk, BlockCounters, Vm};
use pgmp_case_studies::tree_walk_counting;
use pgmp_profiler::{CounterImpl, Counters, ProfileMode, SlotStore};

fn bench_overhead(c: &mut Criterion) {
    let program = fib_program(16);
    let mut group = c.benchmark_group("e7_overhead");
    group.sample_size(10);

    group.bench_function("uninstrumented", |b| {
        let mut e = Engine::new();
        b.iter(|| e.run_str(&program, "e7.scm").expect("run"))
    });

    group.bench_function("chez-style-every-expression-tree-walked-oracle", |b| {
        let mut e = Engine::new();
        let counters = Counters::new();
        b.iter(|| {
            tree_walk_counting(&mut e, &program, "e7.scm", ProfileMode::EveryExpression, &counters)
                .expect("run")
        })
    });

    // Sampling backend: each profile point costs one relaxed beacon store;
    // the sampler thread ticks at the default rate in the background. The
    // target frontier (E18 maps it fully) is ≤1.05× the uninstrumented
    // time, vs ~1.45× for exact dense counting.
    group.bench_function("chez-style-every-expression-sampling", |b| {
        let mut e = Engine::new();
        e.set_counter_impl(CounterImpl::Sampling);
        e.set_instrumentation(ProfileMode::EveryExpression);
        b.iter(|| e.run_str(&program, "e7.scm").expect("run"))
    });

    group.bench_function("errortrace-style-calls-only-tree-walked-oracle", |b| {
        let mut e = Engine::with_strategy(AnnotateStrategy::WrapLambda);
        let counters = Counters::new();
        b.iter(|| {
            tree_walk_counting(&mut e, &program, "e7.scm", ProfileMode::CallsOnly, &counters)
                .expect("run")
        })
    });

    // The wrap-lambda cost in isolation: an annotated expression evaluated
    // many times under each strategy, profiling off (§4.4's point that the
    // wrapping itself has a cost independent of counting).
    let annotated = "
      (define-syntax (annotated stx)
        (syntax-case stx ()
          [(_ e) (annotate-expr #'e (make-profile-point))]))
      (define (spin reps)
        (let loop ([i 0] [acc 0])
          (if (= i reps) acc (loop (add1 i) (annotated (+ acc 1))))))
      (spin 30000)";
    group.bench_function("annotate-direct-uninstrumented", |b| {
        let mut e = Engine::with_strategy(AnnotateStrategy::Direct);
        b.iter(|| e.run_str(annotated, "a.scm").expect("run"))
    });
    group.bench_function("annotate-wrap-lambda-uninstrumented", |b| {
        let mut e = Engine::with_strategy(AnnotateStrategy::WrapLambda);
        b.iter(|| e.run_str(annotated, "a.scm").expect("run"))
    });

    // VM-mode block counting per backend: every basic block bumps a
    // counter, so the backend's per-hit cost dominates the delta.
    group.bench_function("vm-block-uninstrumented", |b| {
        let mut e = Engine::new();
        let core = e.expand_to_core(&program, "e7.scm").expect("expand");
        let chunks: Vec<_> = core.iter().map(compile_chunk).collect();
        let mut vm = Vm::new();
        b.iter(|| {
            for chunk in &chunks {
                vm.run_chunk(e.interp_mut(), chunk).expect("run");
            }
        })
    });
    for (name, kind) in [
        ("vm-block-counters-dense", CounterImpl::Dense),
        ("vm-block-counters-sampling", CounterImpl::Sampling),
    ] {
        group.bench_function(name, |b| {
            let mut e = Engine::new();
            let core = e.expand_to_core(&program, "e7.scm").expect("expand");
            let chunks: Vec<_> = core.iter().map(compile_chunk).collect();
            let mut vm = Vm::new();
            vm.set_block_profiling(BlockCounters::with_store(SlotStore::new(kind)));
            b.iter(|| {
                for chunk in &chunks {
                    vm.run_chunk(e.interp_mut(), chunk).expect("run");
                }
            })
        });
    }

    // The engine's instrumented run: each form compiled and run on the
    // VM with dense block counters, then the every-expression counts
    // derived from them. Compare with `vm-block-uninstrumented`.
    group.bench_function("vm-every-expression-block-derived", |b| {
        let mut e = Engine::new();
        let core = e.expand_to_core(&program, "e7.scm").expect("expand");
        e.set_instrumentation(ProfileMode::EveryExpression);
        b.iter(|| e.run_cores(&core, "e7.scm").expect("run"))
    });

    group.finish();
}

criterion_group!(benches, bench_overhead);
criterion_main!(benches);
