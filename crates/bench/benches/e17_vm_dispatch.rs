//! E17 bench — direct-threaded VM dispatch: flat code streams vs. the
//! tree-walking interpreter.
//!
//! Two engines on the same dispatch-heavy workload (deep call recursion
//! plus a tight counting loop — every iteration is calls, branches, and
//! constant pushes, so dispatch cost dominates):
//!
//! - tree-walk: the source-level interpreter (the reference semantics);
//! - vm-flat: the chunks lowered to contiguous fixed-size op streams
//!   executed by index.
//!
//! Expectation (EXPERIMENTS.md E17): flat faster than tree-walk (~1.5×
//! since tree-walked native calls stopped allocating).
//!
//! The call rows (`calls/<shape>/<engine>`) isolate the calling
//! convention: each is a counted loop of [`CALL_REPS`] iterations whose
//! body makes one call of the named shape, run by the tree walker and by
//! the flat VM:
//!
//! - `native`: `(car p)`, a native the VM calls with a stack slice;
//! - `closure`: a non-tail call to one closure;
//! - `alternating`: one call site alternating between two closures;
//! - `fold-left`: a `fold-left` whose callback the native applies.

use criterion::{criterion_group, criterion_main, Criterion};
use pgmp::Engine;
use pgmp_bench::workloads::fib_program;
use pgmp_bytecode::{compile_chunk, Chunk, Vm};
use pgmp_eval::Core;
use std::rc::Rc;

fn dispatch_workload() -> String {
    format!(
        "{}
         (define (spin reps)
           (let loop ([i 0] [acc 0])
             (if (= i reps) acc (loop (+ i 1) (+ acc i)))))
         (spin 20000)",
        fib_program(16)
    )
}

/// Iterations of every call row's counted loop.
const CALL_REPS: u32 = 20_000;

/// The call rows: `(name, program)`; each program returns `CALL_REPS`.
fn call_workloads() -> Vec<(&'static str, String)> {
    let loop_with = |defs: &str, body: &str| {
        format!(
            "{defs}
             (define (calls n)
               (let loop ([i 0] [acc 0])
                 (if (= i n) acc (loop (+ i 1) (+ acc {body})))))
             (calls {CALL_REPS})"
        )
    };
    vec![
        ("native", loop_with("(define p (cons 1 2))", "(car p)")),
        ("closure", loop_with("(define (one x) 1)", "(one i)")),
        (
            "alternating",
            format!(
                "(define (one x) 1)
                 (define (uno x) (- 2 1))
                 (define (calls n)
                   (let loop ([i 0] [acc 0] [f one] [g uno])
                     (if (= i n) acc (loop (+ i 1) (+ acc (f i)) g f))))
                 (calls {CALL_REPS})"
            ),
        ),
        (
            "fold-left",
            format!(
                "(define xs (iota {CALL_REPS}))
                 (define (calls) (fold-left (lambda (acc x) (+ acc 1)) 0 xs))
                 (calls)"
            ),
        ),
    ]
}

fn expanded(program: &str) -> (Engine, Vec<Rc<Core>>) {
    let mut e = Engine::new();
    let core = e.expand_to_core(program, "e17.scm").expect("expand");
    (e, core)
}

fn compiled(program: &str) -> (Engine, Vec<Chunk>) {
    let (e, core) = expanded(program);
    (e, core.iter().map(compile_chunk).collect())
}

fn bench_vm_dispatch(c: &mut Criterion) {
    let program = dispatch_workload();
    let mut group = c.benchmark_group("e17_vm_dispatch");
    group.sample_size(10);

    group.bench_function("tree-walk", |b| {
        let mut e = Engine::new();
        b.iter(|| e.run_str(&program, "e17.scm").expect("run"))
    });

    group.bench_function("vm-flat", |b| {
        let (mut e, chunks) = compiled(&program);
        let mut vm = Vm::new();
        b.iter(|| {
            for chunk in &chunks {
                vm.run_chunk(e.interp_mut(), chunk).expect("run");
            }
        })
    });

    for (name, program) in call_workloads() {
        group.bench_function(format!("calls/{name}/tree-walk"), |b| {
            let (mut e, core) = expanded(&program);
            b.iter(|| {
                let mut last = None;
                for form in &core {
                    last = Some(e.interp_mut().eval(form, &None).expect("run"));
                }
                assert_eq!(last.expect("forms").to_string(), CALL_REPS.to_string());
            })
        });
        group.bench_function(format!("calls/{name}/vm-flat"), |b| {
            let (mut e, chunks) = compiled(&program);
            let mut vm = Vm::new();
            b.iter(|| {
                let mut last = None;
                for chunk in &chunks {
                    last = Some(vm.run_chunk(e.interp_mut(), chunk).expect("run"));
                }
                assert_eq!(last.expect("chunks").to_string(), CALL_REPS.to_string());
            })
        });
    }

    group.finish();
}

criterion_group!(benches, bench_vm_dispatch);
criterion_main!(benches);
