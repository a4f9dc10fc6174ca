//! Memory guard for the online loop: an `AdaptiveEngine` serving on the VM
//! through shifting input phases must not keep the code of generations it
//! no longer serves, nor of the driver chunks it ran and dropped. Live
//! bytes after 2N epochs may exceed those after N epochs only by a small
//! per-epoch slack: the names of generated identifiers are interned for
//! the life of the process, and every expansion makes some. Served runs
//! with no re-optimization between them must keep nothing at all. The
//! per-form cache every (re)compile goes through keeps a bounded number of
//! bytes per form.
//!
//! This binary installs a counting global allocator that tracks live
//! bytes per thread. Each test runs on its own thread, so everything it
//! allocates is counted.

use pgmp::{IncrementalConfig, IncrementalEngine};
use pgmp_adaptive::{AdaptiveConfig, AdaptiveEngine};
use pgmp_bytecode::DispatchMode;
use pgmp_case_studies::{engine_with, install, Lib};
use pgmp_profiler::ProfileInformation;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn record(bytes: i64) {
    // `try_with`: allocations during thread teardown are not counted.
    let _ = LIVE.try_with(|n| n.set(n.get() + bytes));
}

// SAFETY: every method forwards to the system allocator unchanged; the
// counter is a const-initialized thread-local that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn live() -> i64 {
    LIVE.with(Cell::get)
}

/// Four profile-guided classifiers whose hot clauses move with the input
/// window, so each phase shift re-expands them.
const SERVICE: &str = "
  (define (k0 x) (case x [(0 1) (+ x 1)] [(2 3) (* x 2)] [(4 5) (- x 3)] [else 0]))
  (define (k1 x) (case x [(4 5) (* x x)] [(0 1) (- x 1)] [(2 3) (+ x 7)] [else 1]))
  (define (k2 x) (case x [(2 3) (+ x x)] [(4 5) (* x 3)] [(0 1) (- 9 x)] [else 2]))
  (define (k3 x) (case x [(0 1) (* x 5)] [(4 5) (+ x 4)] [(2 3) (- x 2)] [else 3]))
  (define (classify-all x) (+ (k0 x) (k1 x) (k2 x) (k3 x)))";

/// One epoch's traffic: inputs in `[lo, lo + 1]`, through a named `let`
/// and a `lambda`, so each driver chunk holds code of its own.
fn driver(lo: i64) -> String {
    format!(
        "(let ([f (lambda (x) (classify-all (+ {lo} (modulo x 2))))])
           (let loop ([n 200] [acc 0])
             (if (= n 0) acc (loop (sub1 n) (+ acc (f n))))))"
    )
}

const EPOCHS_PER_PHASE: usize = 3;
const PHASES: [i64; 3] = [0, 2, 4];

/// Runs epochs `from..to`: collect one instrumented run, tick (which
/// re-optimizes on drift), and serve one driver run on the VM.
fn run_epochs(engine: &mut AdaptiveEngine, from: usize, to: usize) -> usize {
    let mut reopts = 0;
    for epoch in from..to {
        let lo = PHASES[(epoch / EPOCHS_PER_PHASE) % PHASES.len()];
        let traffic = driver(lo);
        engine.collect_run(Some(&traffic)).expect("collect");
        reopts += engine.tick().expect("tick").reoptimized as usize;
        engine.vm_serve_run(Some(&traffic)).expect("serve");
    }
    reopts
}

#[test]
fn vm_served_epochs_leave_constant_live_bytes() {
    let config = AdaptiveConfig {
        decay: 0.5,
        drift_threshold: 0.1,
        ..AdaptiveConfig::default()
    };
    let mut engine =
        AdaptiveEngine::with_setup(SERVICE, "service.scm", config, |e| install(e, Lib::Case))
            .expect("initial compile");
    engine
        .enable_vm_serving(DispatchMode::default(), false)
        .expect("serving");

    // Warm up through every phase once, so every lazily built table has
    // its size, then measure N and 2N epochs on.
    const N: usize = 2 * EPOCHS_PER_PHASE * PHASES.len();
    let warm = EPOCHS_PER_PHASE * PHASES.len();
    run_epochs(&mut engine, 0, warm);
    let at_n = live();
    let first = run_epochs(&mut engine, warm, warm + N);
    let at_2n = live();
    let second = run_epochs(&mut engine, warm + N, warm + 2 * N);
    let at_3n = live();
    assert!(
        first > 0 && second > 0,
        "the phases must re-optimize ({first}, {second})"
    );

    // Code that outlives its generation keeps ~12 KiB an epoch here. What
    // stays is the interned names, ~0.25 KiB an epoch, plus the steps of
    // their tables doubling: up to ~5 KiB an epoch over one span.
    const SLACK_PER_EPOCH: i64 = 6 * 1024;
    for (span, growth) in [("N..2N", at_2n - at_n), ("2N..3N", at_3n - at_2n)] {
        assert!(
            growth < N as i64 * SLACK_PER_EPOCH,
            "epochs {span} kept {growth} live bytes ({} per epoch)",
            growth / N as i64
        );
    }
}

#[test]
fn steady_vm_serving_leaves_constant_live_bytes() {
    // No tick, so no re-optimization and no relayout: nothing but the
    // served runs themselves could drop what each run's driver leaves.
    let mut engine =
        AdaptiveEngine::with_setup(SERVICE, "service.scm", AdaptiveConfig::default(), |e| {
            install(e, Lib::Case)
        })
        .expect("initial compile");
    engine
        .enable_vm_serving(DispatchMode::default(), false)
        .expect("serving");
    let traffic = driver(0);
    let mut serve = |runs: usize| {
        for _ in 0..runs {
            engine.vm_serve_run(Some(&traffic)).expect("serve");
        }
        live()
    };
    // Runs re-expand nothing new, so every allocation a run keeps is a
    // leak. A driver's counter ranges die with it, ~115 B a run if kept;
    // the tables they live in swing by up to ~15 KiB between prunings.
    const RUNS: usize = 500;
    let start = serve(RUNS);
    let (a, b) = (serve(RUNS), serve(RUNS));
    for growth in [a - start, b - a] {
        assert!(
            growth < 24 * 1024,
            "{RUNS} served runs kept {growth} live bytes"
        );
    }
}

#[test]
fn incremental_cache_keeps_bounded_bytes_per_form() {
    // Classifiers shaped like SERVICE's, one per form.
    const N: usize = 200;
    let src: String = (0..N)
        .map(|i| {
            format!(
                "(define (k{i} x) (case x [(0 1) (+ x {i})] [(2 3) (* x 2)] [(4 5) (- x 3)] [else {i}]))\n"
            )
        })
        .collect();
    let engine = engine_with(&[Lib::Case]).expect("engine");
    let mut incr =
        IncrementalEngine::with_engine(engine, &src, "forms.scm", IncrementalConfig::default())
            .expect("parse");
    let before = live();
    drop(incr.compile(&ProfileInformation::empty()).expect("compile"));
    let per_form = (live() - before) / N as i64;
    // A form's entry keeps its printed expansion, core forms and chunk,
    // ~4.4 KiB here; printed CFGs kept beside them made it ~13 KiB.
    const BOUND: i64 = 6 * 1024;
    assert!(
        per_form < BOUND,
        "the cache keeps {per_form} bytes per form"
    );
}
