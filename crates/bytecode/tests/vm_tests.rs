//! Cross-checks: VM results must agree with the tree-walking interpreter.

use pgmp_bytecode::{
    canonical_form, compile_chunk, optimize_layout, BlockCounters, Chunk, Vm, VmMetrics,
};
use pgmp_eval::{install_primitives, EvalError, EvalErrorKind, Interp, Value};
use pgmp_expander::{install_expander_support, Expander};
use pgmp_reader::read_str;
use pgmp_syntax::{SourceObject, Symbol};

fn fresh_interp() -> Interp {
    let mut interp = Interp::new();
    install_primitives(&mut interp);
    install_expander_support(&mut interp);
    interp
}

fn run_tree(src: &str) -> String {
    let forms = read_str(src, "t.scm").unwrap();
    let mut exp = Expander::new();
    let program = exp.expand_program(&forms).unwrap();
    let mut interp = fresh_interp();
    let mut last = Value::Unspecified;
    for form in &program {
        last = interp.eval(form, &None).unwrap();
    }
    last.write_string()
}

fn run_vm(src: &str) -> String {
    let forms = read_str(src, "t.scm").unwrap();
    let mut exp = Expander::new();
    let program = exp.expand_program(&forms).unwrap();
    let mut interp = fresh_interp();
    let mut vm = Vm::new();
    let mut last = Value::Unspecified;
    for form in &program {
        last = vm.run_core(&mut interp, form).unwrap();
    }
    last.write_string()
}

fn assert_agree(src: &str) {
    assert_eq!(
        run_tree(src),
        run_vm(src),
        "tree-walker and VM disagree on {src}"
    );
}

#[test]
fn vm_agrees_on_basics() {
    for src in [
        "42",
        "(+ 1 2 3)",
        "(if #f 1 2)",
        "(let ([x 1] [y 2]) (+ x y))",
        "(let* ([x 1] [y (+ x 1)]) (* 10 y))",
        "'(a b (c))",
        "(begin 1 2 3)",
        "(define x 5) (set! x (+ x 1)) x",
        "((lambda (a . rest) (cons a rest)) 1 2 3)",
        "(cond [#f 1] [(= 1 1) 'yes] [else 'no])",
        "(case 3 [(1 2) 'low] [(3 4) 'mid] [else 'hi])",
        "(and 1 2 (or #f 3))",
    ] {
        assert_agree(src);
    }
}

#[test]
fn vm_agrees_on_closures_and_recursion() {
    for src in [
        "(define (fact n) (if (zero? n) 1 (* n (fact (sub1 n))))) (fact 12)",
        "(define (make-adder n) (lambda (m) (+ n m))) ((make-adder 3) 4)",
        "(letrec ([ev? (lambda (n) (if (zero? n) #t (od? (- n 1))))] \
                  [od? (lambda (n) (if (zero? n) #f (ev? (- n 1))))]) (od? 101))",
        "(define (counter) (let ([n 0]) (lambda () (set! n (add1 n)) n))) \
         (define c (counter)) (c) (c) (c)",
    ] {
        assert_agree(src);
    }
}

#[test]
fn letrec_bound_procedures_keep_identity_and_accept_set() {
    // A `letrec` member is bound as code; every read of it is the same
    // procedure, and `set!` replaces it with a value in the same slot.
    for (src, want) in [
        ("(letrec ([f (lambda () 1)]) (eq? f f))", "#t"),
        (
            "(define (g) (define (f) 1) (list f f)) (let ([p (g)]) (eq? (car p) (cadr p)))",
            "#t",
        ),
        ("(define (g) (define (f) 1) f) (eq? (g) (g))", "#f"),
        (
            "(letrec ([f (lambda () 1)] [h (lambda () 2)]) (eq? f h))",
            "#f",
        ),
        (
            "(letrec ([f (lambda (n) n)]) (set! f (lambda (n) (* 2 n))) (f 21))",
            "42",
        ),
        ("(letrec ([f (lambda (n) n)]) (set! f car) (f '(7)))", "7"),
        (
            "(let loop ([i 0]) (if (= i 3) (procedure? loop) (loop (add1 i))))",
            "#t",
        ),
        ("(letrec ([f (lambda () f)]) (eq? f (f)))", "#t"),
    ] {
        assert_eq!(run_tree(src), want, "tree walker on {src}");
        assert_eq!(run_vm(src), want, "VM on {src}");
    }
}

#[test]
fn one_lambda_reads_each_interpreters_own_globals() {
    // Two interpreters bind `a` and `b` in opposite orders, so each gives
    // the names the other's slot numbers. One compiled `f` (one def, one
    // chunk) runs in both, alternately: every run must read the globals
    // of the interpreter it runs in, never a slot resolved in the other.
    let mut exp = Expander::new();
    let mut expand = |src: &str| {
        let forms = read_str(src, "t.scm").unwrap();
        compile_chunk(&exp.expand_program(&forms).unwrap().remove(0))
    };
    let define = expand("(define (f) (list a b))");
    let call = expand("(f)");
    let (a, b) = (Symbol::intern("a"), Symbol::intern("b"));
    let mut first = fresh_interp();
    first.define_global(a, Value::Int(1));
    first.define_global(b, Value::Int(2));
    let mut second = fresh_interp();
    second.define_global(b, Value::Int(20));
    second.define_global(a, Value::Int(10));
    assert_ne!(
        first.global_slot_or_reserve(a),
        second.global_slot_or_reserve(a),
        "the interpreters must number `a` differently"
    );
    let mut runs = [(first, Vm::new(), "(1 2)"), (second, Vm::new(), "(10 20)")];
    for (interp, vm, _) in &mut runs {
        vm.run_chunk(interp, &define).unwrap();
    }
    let def_of = |interp: &Interp| match interp.global(Symbol::intern("f")) {
        Some(Value::Closure(c)) => c.def.clone(),
        other => panic!("f is not a closure: {other:?}"),
    };
    assert!(
        std::rc::Rc::ptr_eq(&def_of(&runs[0].0), &def_of(&runs[1].0)),
        "both interpreters must run the same compiled lambda"
    );
    for round in 0..3 {
        for (interp, vm, expected) in &mut runs {
            let got = vm.run_chunk(interp, &call).unwrap().write_string();
            assert_eq!(got, *expected, "round {round}");
        }
    }
}

#[test]
fn a_vm_reaches_only_the_lambdas_still_alive() {
    // Code lives on its def: once a program and its closures are gone,
    // the VM that counted them neither lists nor re-lays-out their chunks.
    let mut exp = Expander::new();
    let mut interp = fresh_interp();
    let mut vm = Vm::new();
    let counters = BlockCounters::new();
    vm.set_block_profiling(counters.clone());
    let mut run = |vm: &mut Vm, interp: &mut Interp, src: &str| {
        for form in exp
            .expand_program(&read_str(src, "t.scm").unwrap())
            .unwrap()
        {
            vm.run_core(interp, &form).unwrap();
        }
    };
    run(
        &mut vm,
        &mut interp,
        "(define (keep n) (if (< n 1) 'small 'big)) (keep 5)",
    );
    run(&mut vm, &mut interp, "(define (drop) 'gone) (drop)");
    assert_eq!(vm.compiled_chunks().len(), 2);
    // Redefining `drop` frees its only closure, and with it the def.
    run(&mut vm, &mut interp, "(set! drop 0)");
    let live = vm.compiled_chunks();
    assert_eq!(live.len(), 1, "only `keep` is alive");
    let keep = live[0].clone();
    vm.relayout(&mut [], &counters);
    let relaid = vm.compiled_chunks();
    assert_eq!(relaid.len(), 1);
    assert_eq!(relaid[0].id, keep.id, "a new layout keeps the chunk id");
    assert!(
        !Chunk::ptr_eq(&relaid[0], &keep),
        "a new layout is a new chunk"
    );
    assert_eq!(canonical_form(&relaid[0]), canonical_form(&keep));
}

#[test]
fn relayout_keeps_a_chunk_whose_layout_does_not_change() {
    // Every run takes the then-branches, which the compiled order already
    // places first: re-layout changes no order, so the top-level chunks
    // and the lambda keep the code that ran.
    let mut exp = Expander::new();
    let mut interp = fresh_interp();
    let mut vm = Vm::new();
    let counters = BlockCounters::new();
    vm.set_block_profiling(counters.clone());
    let src = "(define (keep n) (if (< n 1) 'small 'big)) (if (keep 0) (keep 0) 'never)";
    let forms = exp
        .expand_program(&read_str(src, "t.scm").unwrap())
        .unwrap();
    let mut chunks: Vec<Chunk> = forms.iter().map(compile_chunk).collect();
    for chunk in &chunks {
        vm.run_chunk(&mut interp, chunk).unwrap();
    }
    let before = chunks.clone();
    let lambdas = vm.compiled_chunks();
    assert_eq!(lambdas.len(), 1);
    vm.relayout(&mut chunks, &counters);
    for (chunk, before) in chunks.iter().zip(&before) {
        assert!(Chunk::ptr_eq(chunk, before), "chunk {} replaced", chunk.id);
    }
    let relaid = vm.compiled_chunks();
    assert!(
        Chunk::ptr_eq(&relaid[0], &lambdas[0]),
        "lambda chunk replaced"
    );
}

#[test]
fn a_freed_lambda_never_runs_through_another_lambdas_cached_code() {
    // Each round frees the previous round's tree-walked `f` and its
    // program, and allocates a new def that the allocator may place at a
    // freed def's address; the persistent VM must still run the new `f`,
    // never code compiled from a def that lived at that address before.
    let mut exp = Expander::new();
    let mut interp = fresh_interp();
    let mut vm = Vm::new();
    let call = exp
        .expand_program(&read_str("(f)", "t.scm").unwrap())
        .unwrap();
    for k in 0..64 {
        let define = read_str(&format!("(define (f) {k})"), "t.scm").unwrap();
        for form in exp.expand_program(&define).unwrap() {
            interp.eval(&form, &None).unwrap();
        }
        let got = vm.run_core(&mut interp, &call[0]).unwrap();
        assert_eq!(got.write_string(), k.to_string(), "round {k}");
    }
}

#[test]
fn vm_agrees_on_higher_order_natives() {
    // map/sort apply closures via the tree-walker from inside the VM —
    // mixed-mode execution.
    for src in [
        "(map (lambda (x) (* x x)) '(1 2 3))",
        "(sort '(3 1 2) <)",
        "(filter odd? '(1 2 3 4 5))",
        "(fold-left + 0 '(1 2 3 4))",
        "(apply + 1 '(2 3))",
    ] {
        assert_agree(src);
    }
}

#[test]
fn vm_agrees_on_macros() {
    assert_agree(
        "(define-syntax (swap! stx)
           (syntax-case stx ()
             [(_ a b) #'(let ([tmp a]) (set! a b) (set! b tmp))]))
         (define x 1) (define y 2) (swap! x y) (list x y)",
    );
}

#[test]
fn vm_tail_calls_do_not_grow_activations() {
    // One million iterations through a tail loop in a letrec frame.
    assert_eq!(
        run_vm("(let loop ([i 0]) (if (= i 1000000) 'done (loop (add1 i))))"),
        "done"
    );
}

#[test]
fn vm_errors_match_tree_walker() {
    let forms = read_str("(car 5)", "t.scm").unwrap();
    let mut exp = Expander::new();
    let program = exp.expand_program(&forms).unwrap();
    let mut interp = fresh_interp();
    let tree_err = interp.eval(&program[0], &None).unwrap_err();
    let mut interp2 = fresh_interp();
    let mut vm = Vm::new();
    let vm_err = vm.run_core(&mut interp2, &program[0]).unwrap_err();
    assert_eq!(tree_err.kind, vm_err.kind);
}

#[test]
fn vm_unbound_variable_errors() {
    let forms = read_str("zzz-unbound", "t.scm").unwrap();
    let mut exp = Expander::new();
    let program = exp.expand_program(&forms).unwrap();
    let mut interp = fresh_interp();
    let mut vm = Vm::new();
    assert!(vm.run_core(&mut interp, &program[0]).is_err());
}

/// Runs `src` form by form in both executors, each with a fresh
/// interpreter, and returns the first error each raised: tree walker
/// first.
fn first_errors(src: &str) -> Vec<EvalError> {
    let forms = read_str(src, "t.scm").unwrap();
    let mut exp = Expander::new();
    let program = exp.expand_program(&forms).unwrap();
    let mut interp = fresh_interp();
    let tree = program.iter().find_map(|f| interp.eval(f, &None).err());
    let mut interp = fresh_interp();
    let mut vm = Vm::new();
    let vm_err = program
        .iter()
        .find_map(|f| vm.run_core(&mut interp, f).err());
    vec![
        tree.expect("tree walker raised no error"),
        vm_err.expect("VM raised no error"),
    ]
}

/// The source object of the first occurrence of `needle` in `src`.
fn span_of(src: &str, needle: &str) -> SourceObject {
    let at = src.find(needle).expect("needle in source") as u32;
    SourceObject::new("t.scm", at, at + needle.len() as u32)
}

#[test]
fn closure_arity_errors_name_the_procedure() {
    for (src, message) in [
        ("(define (f x) x) (f 1 2)", "f: expected 1 arguments, got 2"),
        // Tail and non-tail calls from inside a VM activation.
        (
            "(define (f x) x) (define (g) (f)) (g)",
            "f: expected 1 arguments, got 0",
        ),
        (
            "(define (f x) x) (define (g) (+ 1 (f 1 2))) (g)",
            "f: expected 1 arguments, got 2",
        ),
        (
            "(define (f a . r) a) (define (g) (list (f))) (g)",
            "f: expected at least 1 arguments, got 0",
        ),
        (
            "(define f (lambda (x) x)) (define (g) (f)) (g)",
            "f: expected 1 arguments, got 0",
        ),
        (
            "(define (g h) (list (h 1 2))) (g (lambda (x) x))",
            "#<procedure>: expected 1 arguments, got 2",
        ),
        (
            "(define (g h) (h)) (g (lambda (a . r) a))",
            "#<procedure>: expected at least 1 arguments, got 0",
        ),
        // Procedures bound as code: internal `define`, non-tail and tail.
        (
            "(define (g) (define (f x) x) (list (f))) (g)",
            "f: expected 1 arguments, got 0",
        ),
        (
            "(define (g) (define (f x) x) (f 1 2)) (g)",
            "f: expected 1 arguments, got 2",
        ),
    ] {
        for err in first_errors(src) {
            assert_eq!(err.kind, EvalErrorKind::Arity, "{src}");
            assert_eq!(err.message, message, "{src}");
        }
    }
}

#[test]
fn native_errors_carry_the_call_site() {
    for (src, site, kind) in [
        (
            "(define (g p) (+ 1 (car p))) (g 5)",
            "(car p)",
            EvalErrorKind::Type,
        ),
        (
            "(define (g p) (car p)) (g 5)",
            "(car p)",
            EvalErrorKind::Type,
        ),
        (
            "(define (g p) (list (car p p))) (g 5)",
            "(car p p)",
            EvalErrorKind::Arity,
        ),
        ("(define (g p) (cdr)) (g 5)", "(cdr)", EvalErrorKind::Arity),
        (
            "(define (g) (list 1 (vector-ref (vector 1 2) 7))) (g)",
            "(vector-ref (vector 1 2) 7)",
            EvalErrorKind::Runtime,
        ),
        (
            "(define (g p) (list (p 1))) (g 5)",
            "(p 1)",
            EvalErrorKind::Type,
        ),
    ] {
        let errors = first_errors(src);
        for err in &errors {
            assert_eq!(err.kind, kind, "{src}");
            assert_eq!(err.src, Some(span_of(src, site)), "{src}: {err}");
            assert_eq!(err.message, errors[0].message, "{src}");
        }
    }
}

#[test]
fn executors_run_on_after_a_native_error() {
    // The second form fails inside `deep` with `list`'s earlier operands
    // still pending on the operand stack; the forms after it must run
    // as if nothing had happened.
    let src = "(define (deep x) (list 1 2 (vector-ref (vector) x)))
               (list 'a (deep 3))
               (define (sum n acc) (if (= n 0) acc (sum (- n 1) (+ acc n))))
               (list (sum 10 0) (cons 1 2) (deep-ok))";
    let src = format!("(define (deep-ok) (car (list 7 8))) {src}");
    let forms = read_str(&src, "t.scm").unwrap();
    let mut exp = Expander::new();
    let program = exp.expand_program(&forms).unwrap();
    let mut interp = fresh_interp();
    let tree: Vec<bool> = program
        .iter()
        .map(|f| interp.eval(f, &None).is_ok())
        .collect();
    assert_eq!(tree, [true, true, false, true, true]);
    let tree_last = interp.eval(program.last().unwrap(), &None).unwrap();
    assert_eq!(tree_last.write_string(), "(55 (1 . 2) 7)");
    let mut interp = fresh_interp();
    let mut vm = Vm::new();
    let mut last = Value::Unspecified;
    for (form, ok) in program.iter().zip(&tree) {
        match vm.run_core(&mut interp, form) {
            Ok(v) => last = v,
            Err(e) => assert!(!ok, "VM failed where the tree walker did not: {e}"),
        }
    }
    assert_eq!(last.write_string(), "(55 (1 . 2) 7)");
}

#[test]
fn block_profiling_counts_hot_path() {
    let src = "(define (classify n) (if (< n 10) 'small 'big))
               (let loop ([i 0])
                 (if (= i 100) 'done (begin (classify 5) (loop (add1 i)))))";
    let forms = read_str(src, "t.scm").unwrap();
    let mut exp = Expander::new();
    let program = exp.expand_program(&forms).unwrap();
    let mut interp = fresh_interp();
    let mut vm = Vm::new();
    let counters = BlockCounters::new();
    vm.set_block_profiling(counters.clone());
    for form in &program {
        vm.run_core(&mut interp, form).unwrap();
    }
    assert!(!counters.is_empty());
    // classify's chunk: the 'small branch ran 100 times, 'big never — some
    // chunk must have both a block executed >= 100 times and a block never
    // executed at all.
    let chunks = vm.compiled_chunks();
    let has_biased_chunk = chunks.iter().any(|c| {
        let counts: Vec<u64> = (0..c.block_count() as u32)
            .map(|b| counters.count(c.id, b))
            .collect();
        counts.iter().any(|&x| x >= 100) && counts.contains(&0)
    });
    assert!(
        has_biased_chunk,
        "expected a chunk with hot and never-run blocks"
    );
}

#[test]
fn layout_optimization_improves_fallthrough_on_biased_branch() {
    // A branch that almost always goes to the else-side: after layout,
    // the hot path should fall through more often.
    let src = "(define (step n) (if (= n 0) 'rare 'common))
               (let loop ([i 0])
                 (if (= i 2000) 'done (begin (step i) (loop (add1 i)))))";
    let forms = read_str(src, "t.scm").unwrap();
    let mut exp = Expander::new();
    let program = exp.expand_program(&forms).unwrap();

    // Pass 1: profile blocks.
    let mut interp = fresh_interp();
    let mut vm = Vm::new();
    let counters = BlockCounters::new();
    vm.set_block_profiling(counters.clone());
    for form in &program {
        vm.run_core(&mut interp, form).unwrap();
    }

    // Pass 2: relayout the lambda chunks the VM counted and re-run, measuring.
    let before_chunks: Vec<String> = vm.compiled_chunks().iter().map(canonical_form).collect();
    vm.relayout(&mut [], &counters);
    let after_chunks: Vec<String> = vm.compiled_chunks().iter().map(canonical_form).collect();
    assert_eq!(before_chunks, after_chunks, "layout must preserve the CFG");

    vm.block_counters = None;
    vm.metrics = Default::default();
    // Re-invoke the loop through the (now re-laid-out) lambda chunks.
    let call = read_str(
        "(let loop ([i 0]) (if (= i 2000) 'done (begin (step i) (loop (add1 i)))))",
        "t.scm",
    )
    .unwrap();
    let mut exp2 = Expander::new();
    // Note: `step` stays resident in the interp's globals.
    let call_core = exp2.expand_program(&call).unwrap();
    for form in &call_core {
        vm.run_core(&mut interp, form).unwrap();
    }
    let optimized = vm.metrics;
    assert!(optimized.fallthrough_ratio() > 0.0);
}

#[test]
fn optimize_layout_preserves_cfg_and_is_stable_unprofiled() {
    let forms = read_str("(if (= 1 2) 'a 'b)", "t.scm").unwrap();
    let mut exp = Expander::new();
    let core = exp.expand_program(&forms).unwrap().remove(0);
    let chunk = compile_chunk(&core);
    // With a hot else-branch the layout moves it forward, but the CFG
    // stays the same function.
    let counters = BlockCounters::new();
    counters.increment(chunk.id, 2);
    let hot = optimize_layout(&chunk, &counters).unwrap();
    assert_eq!(canonical_form(&chunk), canonical_form(&hot));
    // With no profile at all, layout is idempotent: counts of an empty
    // profile are position-independent.
    let empty = BlockCounters::new();
    let once = optimize_layout(&chunk, &empty).unwrap_or_else(|| chunk.clone());
    let twice = optimize_layout(&once, &empty).unwrap_or_else(|| once.clone());
    assert_eq!(once.ops, twice.ops);
    assert_eq!(once.blocks, twice.blocks);
}

#[test]
fn metrics_count_calls() {
    let src = "(define (f x) x) (f 1) (f 2)";
    let forms = read_str(src, "t.scm").unwrap();
    let mut exp = Expander::new();
    let program = exp.expand_program(&forms).unwrap();
    let mut interp = fresh_interp();
    let mut vm = Vm::new();
    for form in &program {
        vm.run_core(&mut interp, form).unwrap();
    }
    assert!(vm.metrics.calls >= 2);
    assert!(vm.metrics.blocks_executed > 0);
}

/// One block-profiled run: per-chunk block counts (top-level chunks in
/// form order, then lambda chunks in the order they were first called)
/// and the run's metrics.
struct BlockProfile {
    result: String,
    toplevel: Vec<Vec<u64>>,
    lambdas: Vec<Vec<u64>>,
    metrics: VmMetrics,
}

fn profile_run(src: &str) -> BlockProfile {
    let forms = read_str(src, "t.scm").unwrap();
    let mut exp = Expander::new();
    let chunks: Vec<Chunk> = exp
        .expand_program(&forms)
        .unwrap()
        .iter()
        .map(compile_chunk)
        .collect();
    let mut interp = fresh_interp();
    let mut vm = Vm::new();
    let counters = BlockCounters::new();
    vm.set_block_profiling(counters.clone());
    let mut last = Value::Unspecified;
    for chunk in &chunks {
        last = vm.run_chunk(&mut interp, chunk).unwrap();
    }
    let counts = |c: &Chunk| -> Vec<u64> {
        (0..c.block_count() as u32)
            .map(|b| counters.count(c.id, b))
            .collect()
    };
    BlockProfile {
        result: last.write_string(),
        toplevel: chunks.iter().map(counts).collect(),
        lambdas: vm.compiled_chunks().iter().map(counts).collect(),
        metrics: vm.metrics,
    }
}

/// Expected footprint of one hand-counted program.
struct Expected<'a> {
    result: &'a str,
    toplevel: &'a [&'a [u64]],
    lambdas: &'a [&'a [u64]],
    fallthroughs: u64,
    taken_jumps: u64,
    calls: u64,
    /// Closure activations: blocks entered through a call, not an edge.
    activations: u64,
}

/// Holds a block-profiled run of `src` to counts derived by hand from the
/// lowering in `compile.rs` (block 0 is the entry; an `if` allocates its
/// then, else and join blocks in that order; a `Branch`/`Jump` to the next
/// block id falls through). The expectation does not come from the VM, so
/// a wrong block id or fall-through flag in lowering cannot hide behind a
/// comparison of two runs that share it.
fn assert_profile(src: &str, want: &Expected) {
    let to_vecs = |rows: &[&[u64]]| rows.iter().map(|r| r.to_vec()).collect::<Vec<_>>();
    let got = profile_run(src);
    let m = got.metrics;
    assert_eq!(got.result, want.result, "result of {src}");
    assert_eq!(
        got.toplevel,
        to_vecs(want.toplevel),
        "top-level block counts of {src}"
    );
    assert_eq!(
        got.lambdas,
        to_vecs(want.lambdas),
        "lambda block counts of {src}"
    );
    assert_eq!(
        (m.fallthroughs, m.taken_jumps, m.calls),
        (want.fallthroughs, want.taken_jumps, want.calls),
        "(fallthroughs, taken_jumps, calls) of {src}"
    );
    let counted: u64 = got.toplevel.iter().chain(&got.lambdas).flatten().sum();
    assert_eq!(m.blocks_executed, counted, "blocks_executed of {src}");
    // Every block entry is a top-level run, a closure activation or a
    // counted edge.
    assert_eq!(
        m.blocks_executed - m.fallthroughs - m.taken_jumps,
        want.toplevel.len() as u64 + want.activations,
        "activation entries of {src}"
    );
}

#[test]
fn counted_loop_with_reused_tail_frame() {
    // count-to: b0 tests `(= i n)` and branches to b1 (return i; falls
    // through) or b2 (taken; add1, then a self tail call that refills the
    // frame and re-enters b0). i = 0..2 take b2, i = 3 falls into b1.
    // Calls: the top-level tail call, 3 × (=, add1, self call), the last =.
    assert_profile(
        "(define (count-to n i) (if (= i n) i (count-to n (add1 i)))) (count-to 3 0)",
        &Expected {
            result: "3",
            toplevel: &[&[1], &[1]],
            lambdas: &[&[4, 1, 3]],
            fallthroughs: 1,
            taken_jumps: 3,
            calls: 1 + 3 * 3 + 1,
            activations: 4,
        },
    );
}

#[test]
fn biased_if_with_join_blocks() {
    // step: b0 tests `(= n 0)` and branches to b1 (return acc) or b2
    // (taken). b2 tests `(< n 3)` and branches to b3 (then; falls through)
    // or b4 (else; taken). b3 jumps to the join b5 (taken) and b4 falls
    // into it; b5 adds and tail-calls step. n = 5, 4, 3 take the else arm,
    // n = 2, 1 the then arm, and n = 0 returns 10 + 10 + 10 + 1 + 1.
    assert_profile(
        "(define (step n acc) (if (= n 0) acc (step (- n 1) (+ acc (if (< n 3) 1 10))))) \
         (step 5 0)",
        &Expected {
            result: "32",
            toplevel: &[&[1], &[1]],
            lambdas: &[&[6, 1, 5, 2, 3, 5]],
            fallthroughs: 3 + 2 + 1,
            taken_jumps: 5 + 3 + 2,
            calls: 1 + 5 * 5 + 1,
            activations: 6,
        },
    );
}

#[test]
fn non_tail_calls_count_entries_not_returns() {
    // sum: b0 tests `(= n 0)` and branches to b1 (return 0) or b2 (taken).
    // In b2, `(sum (- n 1))` is a non-tail call; the return into the
    // middle of b2 is not a block entry, and the pending `+` then runs as
    // a quickened tail call. Calls: the top-level tail call,
    // 3 × (=, -, sum), the last =, 3 × +.
    assert_profile(
        "(define (sum n) (if (= n 0) 0 (+ n (sum (- n 1))))) (sum 3)",
        &Expected {
            result: "6",
            toplevel: &[&[1], &[1]],
            lambdas: &[&[4, 1, 3]],
            fallthroughs: 1,
            taken_jumps: 3,
            calls: 1 + 3 * 3 + 1 + 3,
            activations: 4,
        },
    );
}

#[test]
fn mutual_tail_calls_switch_chunks() {
    // od? is called first, so its chunk is compiled first. od? runs for
    // n = 3, 1 and ev? for n = 2, 0; each frame-reusing tail call to the
    // other procedure moves the activation onto that chunk's counters.
    // Only ev?(0) reaches a b1.
    assert_profile(
        "(define (ev? n) (if (= n 0) #t (od? (- n 1)))) \
         (define (od? n) (if (= n 0) #f (ev? (- n 1)))) \
         (od? 3)",
        &Expected {
            result: "#t",
            toplevel: &[&[1], &[1], &[1]],
            lambdas: &[&[2, 0, 2], &[2, 1, 1]],
            fallthroughs: 1,
            taken_jumps: 3,
            calls: 1 + 3 * 3 + 1,
            activations: 4,
        },
    );
}

#[test]
fn tail_self_call_through_a_fresh_frame() {
    // The `let` frame sits on top of spin's argument frame, so the self
    // tail call cannot refill a frame in place and enters a fresh
    // activation at b0.
    assert_profile(
        "(define (spin i) (let ([k i]) (if (= k 2) k (spin (add1 k))))) (spin 0)",
        &Expected {
            result: "2",
            toplevel: &[&[1], &[1]],
            lambdas: &[&[3, 1, 2]],
            fallthroughs: 1,
            taken_jumps: 2,
            calls: 1 + 2 * 3 + 1,
            activations: 3,
        },
    );
}

#[test]
fn vm_step_budget() {
    let forms = read_str("(let loop ([i 0]) (loop (add1 i)))", "t.scm").unwrap();
    let mut exp = Expander::new();
    let program = exp.expand_program(&forms).unwrap();
    let mut interp = fresh_interp();
    interp.set_fuel(Some(10_000));
    let mut vm = Vm::new();
    let err = vm.run_core(&mut interp, &program[0]).unwrap_err();
    assert_eq!(err.kind, EvalErrorKind::Fuel);
    assert_eq!(interp.fuel(), Some(0), "the run spent the whole budget");
}
