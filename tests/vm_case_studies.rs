//! Cross-engine validation: the optimized output of every case study must
//! compute the same results on the bytecode VM as on the tree-walker —
//! i.e. the meta-programs' generated code is valid input for the
//! "low-level" compiler too, which is what the §4.3 workflow depends on.

mod common;

use pgmp_bytecode::Vm;
use pgmp_case_studies::{engine_with, Lib};
use pgmp_profiler::ProfileMode;

/// Runs `program` through pass-1 training, then executes the optimized
/// compile on both engines and compares results.
fn tree_vs_vm(libs: &[Lib], program: &str) -> (String, String) {
    let mut train = engine_with(libs).unwrap();
    train.set_instrumentation(ProfileMode::EveryExpression);
    train.run_str(program, "prog.scm").unwrap();
    let weights = train.current_weights();

    let mut tree = engine_with(libs).unwrap();
    tree.set_profile(weights.clone());
    let tree_result = tree.run_str(program, "prog.scm").unwrap().write_string();

    let mut vm_engine = engine_with(libs).unwrap();
    vm_engine.set_profile(weights);
    let core = vm_engine.expand_to_core(program, "prog.scm").unwrap();
    let mut vm = Vm::new();
    let mut vm_result = String::new();
    for form in &core {
        vm_result = vm.run_core(vm_engine.interp_mut(), form).unwrap().write_string();
    }
    (tree_result, vm_result)
}

/// One program per case study, each exercising its library's runtime
/// code as well as the program's own.
const CASE_STUDIES: [(Lib, &str); 8] = [
    (
        Lib::IfR,
        "(define (f n) (if-r (= n 0) 'zero 'other))
         (let loop ([i 0] [acc '()])
           (if (= i 20) (reverse acc) (loop (add1 i) (cons (f (modulo i 7)) acc))))",
    ),
    (
        Lib::ExclusiveCond,
        "(define (classify n)
           (exclusive-cond [(< n 10) 'low] [(>= n 10) 'high]))
         (let loop ([i 0] [acc 0])
           (if (= i 40) acc (loop (add1 i) (if (eq? (classify i) 'high) (add1 acc) acc))))",
    ),
    (
        Lib::Case,
        "(define (kind c)
           (case c
             [(#\\a #\\e #\\i #\\o #\\u) 'vowel]
             [(#\\0 #\\1 #\\2) 'digit]
             [else 'other]))
         (map kind (string->list \"hello 012 world\"))",
    ),
    (
        Lib::ObjectSystem,
        "(class P ((x 1)) (define-method (get this) (field this x)))
         (class Q ((y 2)) (define-method (get this) (* 10 (field this y))))
         (define objs (list (new P 5) (new P 6) (new Q 7)))
         (map (lambda (o) (method o get)) objs)",
    ),
    (
        Lib::ProfiledList,
        "(define p (profiled-list 1 2 3))
         (list (plist-car p) (plist-ref p 2) (plist-length p))",
    ),
    (
        Lib::ProfiledVector,
        "(define p (profiled-vector 1 2 3))
         (pvec-set! p 1 99)
         (list (pvec-ref p 1) (pvec-length p) (pvec-first p))",
    ),
    (
        Lib::Sequence,
        "(define s (profiled-sequence 10 20 30 40))
         (let loop ([i 0] [acc 0])
           (if (= i 40) (list acc (seq-kind s))
               (loop (add1 i) (+ acc (seq-ref s (modulo i 4))))))",
    ),
    (
        Lib::Inline,
        "(define-inlinable (double x) (* 2 x))
         (define (hot-loop n)
           (let loop ([i 0] [acc 0])
             (if (= i n) acc (loop (add1 i) (+ acc (inline-call double i))))))
         (list (hot-loop 50) (inline-call double 4))",
    ),
];

/// The program of `lib`'s case study in [`CASE_STUDIES`].
fn program(lib: Lib) -> &'static str {
    CASE_STUDIES
        .iter()
        .find(|(l, _)| *l == lib)
        .map(|(_, program)| *program)
        .expect("every library has a case study")
}

#[test]
fn if_r_output_runs_on_the_vm() {
    let (t, v) = tree_vs_vm(&[Lib::IfR], program(Lib::IfR));
    assert_eq!(t, v);
}

#[test]
fn reordered_case_runs_on_the_vm() {
    let (t, v) = tree_vs_vm(&[Lib::Case], program(Lib::Case));
    assert_eq!(t, v);
}

#[test]
fn inline_cached_dispatch_runs_on_the_vm() {
    let (t, v) = tree_vs_vm(&[Lib::ObjectSystem], program(Lib::ObjectSystem));
    assert_eq!(t, v);
    assert_eq!(t, "(5 6 70)");
}

#[test]
fn specialized_sequence_runs_on_the_vm() {
    let (t, v) = tree_vs_vm(&[Lib::Sequence], program(Lib::Sequence));
    assert_eq!(t, v);
    assert!(t.ends_with("vector)"), "{t}");
}

#[test]
fn profiled_list_runs_on_the_vm() {
    let (t, v) = tree_vs_vm(&[Lib::ProfiledList], program(Lib::ProfiledList));
    assert_eq!(t, v);
    assert_eq!(t, "(1 3 3)");
}

/// The dataset an instrumented engine derives from VM block counts equals
/// the tree walker's own every-expression and calls-only counts on every
/// case study, library code included.
#[test]
fn vm_derived_counts_equal_tree_walked_counts_on_every_case_study() {
    for (lib, program) in CASE_STUDIES {
        for mode in [ProfileMode::EveryExpression, ProfileMode::CallsOnly] {
            let (derived, tree) = common::derived_and_tree_walked(&[lib], program, mode);
            assert_eq!(derived.0, tree.0, "{lib:?}: results differ");
            assert!(!tree.1.is_empty(), "{lib:?} {mode:?}: nothing counted");
            assert_eq!(derived.1, tree.1, "{lib:?} {mode:?}: counts differ");
        }
    }
}

/// An object-level `syntax-case` over every pattern shape: literal,
/// constants, a fender that falls through, an ellipsis with a prefix and
/// a suffix, nested ellipses, a dotted pattern against proper and
/// improper input, and the wildcard.
const SYNTAX_CASE: &str = r#"
  (define (shape s)
    (syntax-case s (else)
      [(else _) 'literal]
      [(7 "s" x) (list 'constant (syntax->datum #'x))]
      [(a b) (eq? (syntax->datum #'a) 'skip) 'fender]
      [(n x ... last) (number? (syntax->datum #'n))
       (list 'ellipsis (syntax->datum #'(x ...)) (syntax->datum #'last))]
      [((k ...) ...) (list 'nested (syntax->datum #'((k ...) ...)))]
      [(h . t) (list 'dotted (syntax->datum #'h) (syntax->datum #'t))]
      [_ 'other]))
  (map shape
       (list #'(else 1) #'(7 "s" q) #'(skip 2) #'(noskip 2) #'(1 a b c 9)
             #'(1 9) #'((1 2) () (3)) #'(h . 5) #'(h i j) #'atom #'(7 "t" q)))"#;

/// Compiled `syntax-case` clause tests match alike in both executors, and
/// the counts an instrumented VM run derives for them equal the tree
/// walker's own.
#[test]
fn object_level_syntax_case_matches_alike_on_the_vm() {
    let (t, v) = tree_vs_vm(&[], SYNTAX_CASE);
    assert_eq!(t, v);
    assert_eq!(
        t,
        "(literal (constant q) fender (dotted noskip (2)) (ellipsis (a b c) 9) \
         (ellipsis () 9) (nested ((1 2) () (3))) (dotted h 5) (dotted h (i j)) \
         other (ellipsis (\"t\") q))"
    );
    for mode in [ProfileMode::EveryExpression, ProfileMode::CallsOnly] {
        let (derived, tree) = common::derived_and_tree_walked(&[], SYNTAX_CASE, mode);
        assert_eq!(derived.0, t, "{mode:?}: instrumented VM result");
        assert_eq!(tree.0, t, "{mode:?}: instrumented tree-walk result");
        assert!(!tree.1.is_empty(), "{mode:?}: nothing counted");
        assert_eq!(derived.1, tree.1, "{mode:?}: counts differ");
    }
}
