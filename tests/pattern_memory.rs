//! Memory guard for compiled `syntax-case` patterns: a pattern belongs
//! to the code that tests it, so an engine that is dropped takes its
//! patterns with it.
//!
//! This binary installs a counting global allocator that tracks live
//! bytes per thread, and holds this one test. The symbol interner's
//! tables are process-wide, so tests running before or beside it in the
//! same process would move its count.

use pgmp_case_studies::{engine_with, Lib};
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

#[test]
fn dropped_engines_leave_no_compiled_patterns_behind() {
    // Each engine expands the `case` and `oo` libraries' transformers,
    // compiling every `syntax-case` pattern in them, and runs them on a
    // program. A compiled pattern belongs to the code that tests it, so
    // dropping the engine frees it; what an engine leaves is the names of
    // its generated identifiers, interned for the life of the process.
    const PROGRAM: &str = "
      (class Circle ((r 1)) (define-method (area this) (* 3 (field this r) (field this r))))
      (class Square ((s 1)) (define-method (area this) (* (field this s) (field this s))))
      (define (size n) (case n [(0 1 2) 'small] [(3 4) 'medium] [else 'large]))
      (map (lambda (s) (size (method s area))) (list (new Circle 2) (new Square 1)))";
    let build_and_drop = || {
        let mut engine = engine_with(&[Lib::Case, Lib::ObjectSystem]).expect("engine");
        let v = engine.run_str(PROGRAM, "shapes.scm").expect("run");
        assert_eq!(v.to_string(), "(large small)");
    };
    // The first engine sizes every lazily built table. Interned names
    // live in one process-wide table, whose doubling, when it lands in a
    // round, is charged to it: the least a round keeps is what each
    // engine keeps.
    build_and_drop();
    const ROUNDS: usize = 3;
    const N: i64 = 10;
    let per_engine = (0..ROUNDS)
        .map(|_| {
            let before = live();
            for _ in 0..N {
                build_and_drop();
            }
            (live() - before) / N
        })
        .min()
        .unwrap();
    // Measured: 1.9 KiB an engine, the interned names; a cache of
    // compiled patterns keyed by their address makes it 5.3 KiB.
    const BOUND: i64 = 4 * 1024;
    assert!(
        per_engine < BOUND,
        "each dropped engine leaves {per_engine} live bytes"
    );
}
