//! Memory guard for recursive bindings: a procedure bound by `letrec`,
//! named `let` or an internal `define` must not keep its frame alive
//! after the call returns, so N calls through each shape leave O(1) live
//! bytes in both executors. A frame slot that held a closure over its own
//! frame would make an `Rc` cycle and leak one frame per call.
//!
//! This binary installs a counting global allocator that tracks both
//! allocations and live bytes. Counts are kept per thread, so tests
//! running in parallel do not disturb each other; everything a test
//! allocates is `Rc`-shared within its own thread.

use pgmp_bytecode::{compile_chunk, Chunk, Vm};
use pgmp_eval::{install_primitives, Core, Interp, Value};
use pgmp_expander::{install_expander_support, Expander};
use pgmp_reader::read_str;
use pgmp_syntax::Symbol;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn record(allocs: u64, bytes: i64) {
    // `try_with`: allocations during thread teardown are not counted.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + allocs));
    let _ = LIVE.try_with(|n| n.set(n.get() + bytes));
}

// SAFETY: every method forwards to the system allocator unchanged; the
// counters are const-initialized thread-locals that never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(1, layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(1, layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(1, new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(0, -(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn live() -> i64 {
    LIVE.with(Cell::get)
}

#[derive(Clone, Copy, Debug)]
enum Executor {
    TreeWalker,
    Vm,
}

/// One interpreter (and VM) with `setup` defined, and the compiled form
/// `(entry count)`, where `count` is a global set before each run. Runs
/// reuse one compiled form, so nothing a run compiles or caches is
/// counted against it.
struct Runner {
    exec: Executor,
    interp: Interp,
    vm: Vm,
    run: Rc<Core>,
    chunk: Chunk,
}

impl Runner {
    fn new(exec: Executor, setup: &str, entry: &str) -> Runner {
        let mut interp = Interp::new();
        install_primitives(&mut interp);
        install_expander_support(&mut interp);
        let mut vm = Vm::new();
        let src = format!("(define count 0) {setup} ({entry} count)");
        let forms = read_str(&src, "live.scm").unwrap();
        let mut program = Expander::new().expand_program(&forms).unwrap();
        let run = program.pop().unwrap();
        for form in &program {
            match exec {
                Executor::TreeWalker => interp.eval(form, &None).map(drop),
                Executor::Vm => vm.run_core(&mut interp, form).map(drop),
            }
            .expect("setup");
        }
        let chunk = compile_chunk(&run);
        Runner {
            exec,
            interp,
            vm,
            run,
            chunk,
        }
    }

    /// Runs `(entry n)`, returning the result and the allocations and
    /// live bytes the run left behind.
    fn run(&mut self, n: i64) -> (String, u64, i64) {
        self.interp
            .define_global(Symbol::intern("count"), Value::Int(n));
        let (allocs_before, live_before) = (allocs(), live());
        let out = match self.exec {
            Executor::TreeWalker => self.interp.eval(&self.run, &None),
            Executor::Vm => self.vm.run_chunk(&mut self.interp, &self.chunk),
        };
        let text = out.expect("run").to_string();
        (text, allocs() - allocs_before, live() - live_before)
    }
}

/// The bodies of `f` in the five shapes: a named-`let` loop, internal
/// `define`s, a mutual `letrec`, a `letrec` member escaping by return,
/// and a `let`-bound `lambda` (no recursion, the control).
const SHAPES: [(&str, &str); 5] = [
    (
        "named let",
        "(let loop ([i 0] [acc 0]) (if (= i 3) acc (loop (+ i 1) (+ acc x))))",
    ),
    (
        "internal define",
        "(define (g y) (+ y 1)) (define (h y) (g (g y))) (h x)",
    ),
    (
        "mutual letrec",
        "(letrec ([ev? (lambda (n) (if (= n 0) #t (od? (- n 1))))]
                  [od? (lambda (n) (if (= n 0) #f (ev? (- n 1))))])
           (if (ev? 4) x 0))",
    ),
    (
        "escaping member",
        "(let ([k (letrec ([g (lambda (y) (if (= y 0) x (g (- y 1))))]) g)]) (k 2))",
    ),
    ("let-bound lambda", "(let ([g (lambda (y) (+ y 1))]) (g x))"),
];

/// Calls `f` `count` times from a loop and checks that 2,000 calls leave
/// no more live bytes than 10 do, give or take a few hundred bytes of
/// allocator-size noise. A leaked frame per call would add well over
/// 100 KiB.
fn assert_calls_leave_constant_live_bytes(exec: Executor) {
    for (shape, body) in SHAPES {
        let setup = format!(
            "(define (f x) {body})
             (define (call n)
               (let loop ([i 0] [acc 0])
                 (if (= i n) acc (loop (+ i 1) (+ acc (f i))))))"
        );
        let mut s = Runner::new(exec, &setup, "call");
        s.run(1);
        let (_, _, few) = s.run(10);
        let (_, _, many) = s.run(2_000);
        assert!(
            many <= few + 512,
            "{shape} in {exec:?}: 10 calls left {few} live bytes, 2000 left {many}"
        );
    }
}

#[test]
fn tree_walked_letrec_calls_leave_constant_live_bytes() {
    assert_calls_leave_constant_live_bytes(Executor::TreeWalker);
}

#[test]
fn vm_letrec_calls_leave_constant_live_bytes() {
    assert_calls_leave_constant_live_bytes(Executor::Vm);
}

/// Allocations of a 10,000-iteration named-`let` loop. Binding the loop
/// as code must not make an iteration allocate more than a closure-valued
/// binding did: in the tree walker, one argument vector and one frame per
/// iteration; in the VM, none (the self tail call refills its frame).
fn named_let_allocs(exec: Executor) -> (u64, u64) {
    let mut s = Runner::new(
        exec,
        "(define (spin n) (let loop ([i 0] [acc 0]) (if (= i n) acc (loop (+ i 1) (+ acc 2)))))",
        "spin",
    );
    s.run(1);
    let (few_out, few, _) = s.run(10);
    let (many_out, many, _) = s.run(10_000);
    assert_eq!((few_out.as_str(), many_out.as_str()), ("20", "20000"));
    (few, many)
}

#[test]
fn tree_walked_named_let_allocates_two_per_iteration() {
    let (few, many) = named_let_allocs(Executor::TreeWalker);
    assert!(
        many <= few + 2 * 10_000,
        "10 iterations allocated {few} times, 10000 allocated {many} times"
    );
}

#[test]
fn vm_named_let_allocates_nothing_per_iteration() {
    let (few, many) = named_let_allocs(Executor::Vm);
    assert!(
        many <= few + 8,
        "10 iterations allocated {few} times, 10000 allocated {many} times"
    );
}
