//! E17 bench — direct-threaded VM dispatch: flat code streams vs. the
//! tree-walking interpreter, and the effect of profile-guided
//! superinstruction fusion.
//!
//! Three engines on the same dispatch-heavy workload (deep call recursion
//! plus a tight counting loop — every iteration is calls, branches, and
//! constant pushes, so dispatch cost dominates):
//!
//! - tree-walk: the source-level interpreter (the reference semantics);
//! - vm-flat: the chunks lowered to contiguous fixed-size op streams
//!   executed by index;
//! - vm-flat-fused: flat dispatch with the superinstruction plan mined
//!   from a profiled run of this very workload (`FusionPlan::mine`).
//!
//! Expectation (EXPERIMENTS.md E17): flat ≥ 2x tree-walk, fused ≥ flat.

use criterion::{criterion_group, criterion_main, Criterion};
use pgmp::Engine;
use pgmp_bench::workloads::fib_program;
use pgmp_bytecode::{compile_chunk, BlockCounters, Chunk, FusionPlan, Vm};

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

fn compiled(program: &str) -> (Engine, Vec<Chunk>) {
    let mut e = Engine::new();
    let core = e.expand_to_core(program, "e17.scm").expect("expand");
    let chunks: Vec<Chunk> = core.iter().map(compile_chunk).collect();
    (e, chunks)
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

    group.bench_function("vm-flat-fused", |b| {
        let (mut e, chunks) = compiled(&program);
        let mut vm = Vm::new();
        // Profile-guide the plan: one counted run of the workload itself,
        // then fuse its hottest adjacent pairs (profiling off afterwards).
        let counters = BlockCounters::new();
        vm.set_block_profiling(counters.clone());
        for chunk in &chunks {
            vm.run_chunk(e.interp_mut(), chunk).expect("profile run");
        }
        vm.block_counters = None;
        let lambda_chunks = vm.compiled_chunks();
        let plan = FusionPlan::mine(
            chunks.iter().chain(lambda_chunks.iter().map(|c| &**c)),
            &counters,
            3,
        );
        assert!(!plan.is_empty(), "dispatch workload must have hot fusable pairs");
        vm.set_fusion(plan);
        b.iter(|| {
            for chunk in &chunks {
                vm.run_chunk(e.interp_mut(), chunk).expect("run");
            }
        })
    });

    group.finish();
}

criterion_group!(benches, bench_vm_dispatch);
criterion_main!(benches);
