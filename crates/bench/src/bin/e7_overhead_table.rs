//! Regenerates the §4.4 overhead claims (experiment E7).
//!
//! Paper: the Chez Scheme profiler adds about 9% run time; Racket's
//! errortrace costs a factor of 4–12, *excluding* the additional
//! thunk-wrapping the Racket `annotate-expr` performs.
//!
//! Our substrate is a tree-walking interpreter, so absolute factors
//! differ; the *ordering* must hold: off < every-expression ≪
//! calls-only-with-wrapping relative cost per annotated expression.
//!
//! ```sh
//! cargo run --release -p pgmp-bench --bin e7_overhead_table
//! ```

use pgmp::{AnnotateStrategy, Engine};
use pgmp_bench::workloads::fib_program;
use pgmp_bytecode::{compile_chunk, BlockCounters, Vm};
use pgmp_profiler::{CounterImpl, ProfileMode, SlotStore};
use std::time::{Duration, Instant};

fn time_runs(mut f: impl FnMut(), reps: u32) -> Duration {
    // One warmup, then the median-ish mean of `reps` runs.
    f();
    let t0 = Instant::now();
    for _ in 0..reps {
        f();
    }
    t0.elapsed() / reps
}

fn main() {
    let program = fib_program(18);
    let reps = 20;

    // Each configuration reuses one engine across the timed runs (like the
    // criterion bench) so per-hit cost is what's measured — not engine
    // setup, which for the sampling backend includes spawning the sampler
    // thread once per session.
    let base = {
        let mut e = Engine::new();
        time_runs(|| e.run_str(&program, "e7.scm").map(|_| ()).expect("run"), reps)
    };
    let every = {
        let mut e = Engine::new();
        e.set_instrumentation(ProfileMode::EveryExpression);
        time_runs(|| e.run_str(&program, "e7.scm").map(|_| ()).expect("run"), reps)
    };
    let every_sampling = {
        let mut e = Engine::new();
        e.set_counter_impl(CounterImpl::Sampling);
        e.set_instrumentation(ProfileMode::EveryExpression);
        time_runs(|| e.run_str(&program, "e7.scm").map(|_| ()).expect("run"), reps)
    };
    let calls = {
        let mut e = Engine::with_strategy(AnnotateStrategy::WrapLambda);
        e.set_instrumentation(ProfileMode::CallsOnly);
        time_runs(|| e.run_str(&program, "e7.scm").map(|_| ()).expect("run"), reps)
    };

    // Wrapping cost per annotated expression, profiling disabled.
    let annotated = "
      (define-syntax (annotated stx)
        (syntax-case stx ()
          [(_ e) (annotate-expr #'e (make-profile-point))]))
      (define (spin reps)
        (let loop ([i 0] [acc 0])
          (if (= i reps) acc (loop (add1 i) (annotated (+ acc 1))))))
      (spin 100000)";
    let direct = time_runs(
        || {
            let mut e = Engine::with_strategy(AnnotateStrategy::Direct);
            e.run_str(annotated, "a.scm").expect("run");
        },
        reps,
    );
    let wrapped = time_runs(
        || {
            let mut e = Engine::with_strategy(AnnotateStrategy::WrapLambda);
            e.run_str(annotated, "a.scm").expect("run");
        },
        reps,
    );

    // VM-mode block counting: the same program through the bytecode VM,
    // uninstrumented vs per-block counters on each backend.
    let vm_run = |counters: Option<BlockCounters>| {
        let mut e = Engine::new();
        let core = e.expand_to_core(&program, "e7.scm").expect("expand");
        let chunks: Vec<_> = core.iter().map(compile_chunk).collect();
        let mut vm = Vm::new();
        if let Some(c) = counters {
            vm.set_block_profiling(c);
        }
        // Warmup, then the mean of `reps` runs.
        for chunk in &chunks {
            vm.run_chunk(e.interp_mut(), chunk).expect("run");
        }
        let t0 = Instant::now();
        for _ in 0..reps {
            for chunk in &chunks {
                vm.run_chunk(e.interp_mut(), chunk).expect("run");
            }
        }
        t0.elapsed() / reps
    };
    let vm_base = vm_run(None);
    let vm_dense = vm_run(Some(BlockCounters::new()));
    let vm_sampling =
        vm_run(Some(BlockCounters::with_store(SlotStore::new(CounterImpl::Sampling))));

    println!("§4.4 profiling overhead (fib workload; interpreter substrate)");
    println!("======================================================================");
    println!("{:<44} {:>10} {:>10}", "configuration", "time", "factor");
    println!("----------------------------------------------------------------------");
    println!("{:<44} {:>10.2?} {:>9.2}x", "uninstrumented", base, 1.0);
    println!(
        "{:<44} {:>10.2?} {:>9.2}x",
        "Chez model: every-expression counters",
        every,
        every.as_secs_f64() / base.as_secs_f64()
    );
    println!(
        "{:<44} {:>10.2?} {:>9.2}x",
        "  ... with sampling (beacon, 997 Hz)",
        every_sampling,
        every_sampling.as_secs_f64() / base.as_secs_f64()
    );
    println!(
        "{:<44} {:>10.2?} {:>9.2}x",
        "Racket model: calls-only counters",
        calls,
        calls.as_secs_f64() / base.as_secs_f64()
    );
    println!(
        "{:<44} {:>10.2?} {:>9.2}x",
        "annotate-expr Direct (profiling off)",
        direct,
        1.0
    );
    println!(
        "{:<44} {:>10.2?} {:>9.2}x",
        "annotate-expr WrapLambda (profiling off)",
        wrapped,
        wrapped.as_secs_f64() / direct.as_secs_f64()
    );
    println!(
        "{:<44} {:>10.2?} {:>9.2}x",
        "VM: uninstrumented",
        vm_base,
        1.0
    );
    println!(
        "{:<44} {:>10.2?} {:>9.2}x",
        "VM: per-block counters (dense slots)",
        vm_dense,
        vm_dense.as_secs_f64() / vm_base.as_secs_f64()
    );
    println!(
        "{:<44} {:>10.2?} {:>9.2}x",
        "VM: per-block beacon (sampling, 997 Hz)",
        vm_sampling,
        vm_sampling.as_secs_f64() / vm_base.as_secs_f64()
    );
    println!("----------------------------------------------------------------------");
    let pct = |t: Duration, b: Duration| (t.as_secs_f64() / b.as_secs_f64() - 1.0) * 100.0;
    println!(
        "sampling vs dense: added interp overhead {:+.1}% vs {:+.1}%, VM {:+.1}% vs {:+.1}%",
        pct(every_sampling, base),
        pct(every, base),
        pct(vm_sampling, vm_base),
        pct(vm_dense, vm_base)
    );
    println!("----------------------------------------------------------------------");
    println!("paper:   Chez ≈1.09x; errortrace 4–12x plus wrapping overhead.");
    println!("ours:    absolute factors differ (interpreter vs native compiler),");
    println!("         but the shape holds: counting costs something, and the");
    println!("         wrap-lambda strategy adds per-expression call overhead on");
    println!("         top of it (last row).");
}
