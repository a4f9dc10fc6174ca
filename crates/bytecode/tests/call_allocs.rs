//! Allocation guard for the VM's native calling convention: natives read
//! their arguments as a slice of the operand stack, so a loop of native
//! calls allocates a bounded number of times however long it runs.
//!
//! This binary installs a counting global allocator. Counts are kept per
//! thread, so tests running in parallel do not disturb each other.

use pgmp_bytecode::{compile_chunk, Chunk, Vm};
use pgmp_eval::{install_primitives, Interp};
use pgmp_expander::{install_expander_support, Expander};
use pgmp_reader::read_str;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: allocations during thread teardown are not counted.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to the system allocator unchanged; the
// counter is a const-initialized thread-local that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Compiles each form of `src` to a chunk.
fn chunks(src: &str) -> Vec<Chunk> {
    let forms = read_str(src, "allocs.scm").unwrap();
    let mut exp = Expander::new();
    let program = exp.expand_program(&forms).unwrap();
    program.iter().map(compile_chunk).collect()
}

/// Allocations made while the VM runs `(call n)` once; compiling that
/// chunk is not counted.
fn allocs_for(vm: &mut Vm, interp: &mut Interp, n: u32) -> u64 {
    let chunk = chunks(&format!("(call {n})")).remove(0);
    let before = allocs();
    let out = vm.run_chunk(interp, &chunk).expect("run");
    let spent = allocs() - before;
    assert_eq!(out.to_string(), n.to_string());
    spent
}

/// Defines `call` as a counted loop that makes one native call per
/// iteration through `body`, warms the VM up (lowering the loop once),
/// and checks that 10,000 iterations allocate no more than a constant
/// few times more than 10 do (an argument vector per call would add
/// ~10,000).
fn assert_native_calls_do_not_allocate(setup: &str, body: &str) {
    let mut interp = Interp::new();
    install_primitives(&mut interp);
    install_expander_support(&mut interp);
    let mut vm = Vm::new();
    let program = format!(
        "{setup}
         (define (call n)
           (let loop ([i 0] [acc 0])
             (if (= i n) acc (loop (+ i 1) (+ acc {body})))))"
    );
    for chunk in chunks(&program) {
        vm.run_chunk(&mut interp, &chunk).expect("setup");
    }
    allocs_for(&mut vm, &mut interp, 1);
    let few = allocs_for(&mut vm, &mut interp, 10);
    let many = allocs_for(&mut vm, &mut interp, 10_000);
    assert!(
        many <= few + 8,
        "{body}: 10 iterations allocated {few} times, 10000 allocated {many} times"
    );
}

#[test]
fn vm_car_calls_allocate_nothing_per_call() {
    assert_native_calls_do_not_allocate("(define p (cons 1 2))", "(car p)");
}

#[test]
fn vm_hashtable_ref_calls_allocate_nothing_per_call() {
    assert_native_calls_do_not_allocate(
        "(define h (make-eq-hashtable)) (hashtable-set! h 'k 1)",
        "(hashtable-ref h 'k 0)",
    );
}
