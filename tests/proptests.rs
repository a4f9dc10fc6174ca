//! Property-based tests over the whole stack.

mod common;

use pgmp::Engine;
use pgmp_bytecode::{canonical_form, compile_chunk, optimize_layout, BlockCounters, Vm};
use pgmp_case_studies::{two_pass, Lib};
use pgmp_eval::{install_primitives, Interp, Value};
use pgmp_expander::{install_expander_support, Expander};
use pgmp_profiler::{Dataset, ProfileInformation, ProfileMode};
use pgmp_reader::read_str;
use pgmp_syntax::{Datum, SourceObject};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Datum generator + read/print round trip
// ---------------------------------------------------------------------------

fn arb_symbol() -> impl Strategy<Value = Datum> {
    // Reader-safe symbol names.
    "[a-z][a-z0-9?!*<>=-]{0,8}".prop_map(|s| Datum::sym(&s))
}

fn arb_atom() -> impl Strategy<Value = Datum> {
    prop_oneof![
        any::<i64>().prop_map(Datum::Int),
        any::<bool>().prop_map(Datum::Bool),
        arb_symbol(),
        "[ -~]{0,10}".prop_map(|s| Datum::string(&s)),
        proptest::char::range('a', 'z').prop_map(Datum::Char),
        (-1000i64..1000).prop_map(|n| Datum::Float(n as f64 / 8.0)),
        Just(Datum::Nil),
    ]
}

fn arb_datum() -> impl Strategy<Value = Datum> {
    arb_atom().prop_recursive(4, 32, 6, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..5).prop_map(Datum::list),
            proptest::collection::vec(inner.clone(), 0..4)
                .prop_map(|v| Datum::Vector(v.into())),
            (proptest::collection::vec(inner.clone(), 1..4), inner)
                .prop_map(|(elems, tail)| Datum::improper_list(elems, tail)),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn datum_print_read_round_trip(d in arb_datum()) {
        let text = d.to_string();
        let forms = read_str(&text, "prop.scm").unwrap();
        prop_assert_eq!(forms.len(), 1, "printed form `{}` reads as one datum", text);
        let back = forms[0].to_datum();
        // Improper lists ending in nil normalize to proper lists on read,
        // so compare printed forms rather than structures.
        prop_assert_eq!(back.to_string(), text);
    }

    #[test]
    fn syntax_round_trip_via_from_datum(d in arb_datum()) {
        let stx = pgmp_syntax::Syntax::from_datum(&d, None);
        prop_assert_eq!(stx.to_datum().to_string(), d.to_string());
    }
}

// ---------------------------------------------------------------------------
// Weight algebra
// ---------------------------------------------------------------------------

fn arb_dataset() -> impl Strategy<Value = Dataset> {
    proptest::collection::vec((0u32..40, 0u64..1_000_000), 0..20).prop_map(|entries| {
        entries
            .into_iter()
            .map(|(i, c)| (SourceObject::new("prop.scm", i, i + 1), c))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn weights_are_always_in_unit_interval(d in arb_dataset()) {
        let w = ProfileInformation::from_dataset(&d);
        for (_, weight) in w.iter() {
            prop_assert!((0.0..=1.0).contains(&weight));
        }
        if d.max_count() > 0 {
            let max = w.iter().map(|(_, x)| x).fold(0.0f64, f64::max);
            prop_assert!((max - 1.0).abs() < 1e-12, "max weight normalizes to 1");
        }
    }

    #[test]
    fn merge_of_single_datasets_is_commutative(a in arb_dataset(), b in arb_dataset()) {
        let wa = ProfileInformation::from_dataset(&a);
        let wb = ProfileInformation::from_dataset(&b);
        let ab = wa.merge(&wb);
        let ba = wb.merge(&wa);
        for (p, w) in ab.iter() {
            prop_assert!((ba.weight(p) - w).abs() < 1e-12);
        }
        prop_assert_eq!(ab.dataset_count(), ba.dataset_count());
    }

    #[test]
    fn merge_preserves_unit_interval(a in arb_dataset(), b in arb_dataset(), c in arb_dataset()) {
        let merged = ProfileInformation::from_datasets(&[a, b, c]);
        for (_, w) in merged.iter() {
            prop_assert!((0.0..=1.0).contains(&w));
        }
    }

    #[test]
    fn store_load_round_trip(d in arb_dataset()) {
        let w = ProfileInformation::from_dataset(&d);
        let text = w.store_to_string();
        let back = ProfileInformation::load_from_str(&text).unwrap();
        prop_assert_eq!(back, w);
    }
}

// ---------------------------------------------------------------------------
// Tree-walker vs. VM agreement on generated programs
// ---------------------------------------------------------------------------

/// Generates small arithmetic/conditional expressions (as source text)
/// whose evaluation cannot error: the integer domain is kept tiny and
/// division is excluded. The recursive-binding shapes — a bounded named
/// `let`, internal `define`s calling each other, a mutual `letrec`, a
/// member escaping by return or through `map`, a `set!` member, and
/// `(eq? f f)` — exercise frame slots that hold code rather than values.
fn arb_expr(depth: u32) -> BoxedStrategy<String> {
    if depth == 0 {
        return prop_oneof![
            (-20i64..20).prop_map(|n| n.to_string()),
            Just("x".to_owned()),
            Just("y".to_owned()),
        ]
        .boxed();
    }
    let sub = arb_expr(depth - 1);
    prop_oneof![
        (sub.clone(), sub.clone()).prop_map(|(a, b)| format!("(+ {a} {b})")),
        (sub.clone(), sub.clone()).prop_map(|(a, b)| format!("(- {a} {b})")),
        (sub.clone(), sub.clone()).prop_map(|(a, b)| format!("(min {a} {b})")),
        (sub.clone(), sub.clone(), sub.clone())
            .prop_map(|(c, t, e)| format!("(if (< {c} 0) {t} {e})")),
        (sub.clone(), sub.clone()).prop_map(|(a, b)| format!("(let ([x {a}]) (+ x {b}))")),
        (sub.clone(), sub.clone()).prop_map(|(a, b)| format!("((lambda (y) (- y {b})) {a})")),
        (sub.clone(), sub.clone()).prop_map(|(a, b)| format!(
            "(let loop ([i 0] [acc {a}]) (if (= i 3) acc (loop (+ i 1) (+ acc {b}))))"
        )),
        (sub.clone(), sub.clone()).prop_map(|(a, b)| format!(
            "((lambda () (define (g z) (+ z {a})) (define (h z) (g (g z))) (h {b})))"
        )),
        (sub.clone(), sub.clone()).prop_map(|(a, b)| format!(
            "(letrec ([ev? (lambda (n) (if (= n 0) {a} (od? (- n 1))))] \
                      [od? (lambda (n) (if (= n 0) {b} (ev? (- n 1))))]) \
               (ev? 3))"
        )),
        (sub.clone(), sub.clone())
            .prop_map(|(a, b)| format!("((letrec ([g (lambda (z) (- z {a}))]) g) {b})")),
        (sub.clone(), sub.clone()).prop_map(|(a, b)| format!(
            "(apply + (map (letrec ([g (lambda (z) (+ z {a}))]) g) (list {b} 1)))"
        )),
        (sub.clone(), sub.clone()).prop_map(|(a, b)| format!(
            "(letrec ([g (lambda (z) (+ z 1))]) (set! g (lambda (z) (- z {a}))) (g {b}))"
        )),
        (sub.clone(), sub.clone())
            .prop_map(|(a, b)| format!("(letrec ([g (lambda (z) z)]) (if (eq? g g) (g {a}) {b}))")),
        sub,
    ]
    .boxed()
}

/// One VM execution's observable footprint: the result plus the block
/// counters and the transfer metrics the block-count invariants relate
/// them to.
struct VmFootprint {
    result: String,
    /// Sum of every block counter.
    block_total: u64,
    /// Entries into block 0 of any chunk. `compile_chunk` makes block 0
    /// the entry and never targets it with an edge, so these are exactly
    /// the top-level runs and closure activations.
    entry_counts: u64,
    blocks_executed: u64,
    fallthroughs: u64,
    taken_jumps: u64,
    calls: u64,
}

fn run_vm_mode(core: &[std::rc::Rc<pgmp_eval::Core>]) -> VmFootprint {
    let mut i = Interp::new();
    install_primitives(&mut i);
    install_expander_support(&mut i);
    let mut vm = Vm::new();
    let counters = BlockCounters::new();
    vm.set_block_profiling(counters.clone());
    let mut v = Value::Unspecified;
    for f in core {
        v = vm.run_core(&mut i, f).unwrap();
    }
    let snap = counters.snapshot();
    VmFootprint {
        result: v.write_string(),
        entry_counts: snap.iter().filter(|((_, block), _)| *block == 0).map(|(_, c)| c).sum(),
        block_total: snap.values().sum(),
        blocks_executed: vm.metrics.blocks_executed,
        fallthroughs: vm.metrics.fallthroughs,
        taken_jumps: vm.metrics.taken_jumps,
        calls: vm.metrics.calls,
    }
}

fn eval_both(src: &str) -> (String, String) {
    let program = format!("(define x 3) (define y -7) {src}");
    let forms = read_str(&program, "gen.scm").unwrap();
    let mut exp = Expander::new();
    let core = exp.expand_program(&forms).unwrap();
    let mut i1 = Interp::new();
    install_primitives(&mut i1);
    install_expander_support(&mut i1);
    let mut tree = Value::Unspecified;
    for f in &core {
        tree = i1.eval(f, &None).unwrap();
    }
    let vmv = run_vm_mode(&core);
    (tree.write_string(), vmv.result)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn vm_agrees_with_tree_walker(src in arb_expr(3)) {
        let (tree, vm) = eval_both(&src);
        prop_assert_eq!(tree, vm, "disagreement on {}", src);
    }

    // Block-counter accounting (results are held to the tree walker
    // above). Every block entry bumps exactly one counter, so the counters
    // must sum to `blocks_executed`. Every block entry is a counted edge
    // or an entry-block activation: a top-level run or a closure call
    // (each one a counted call). Exact per-block counts are pinned by hand
    // in `crates/bytecode/tests/vm_tests.rs`.
    #[test]
    fn block_counts_account_for_every_block_entry(src in arb_expr(3)) {
        let program = format!("(define x 3) (define y -7) {src}");
        let forms = read_str(&program, "gen.scm").unwrap();
        let mut exp = Expander::new();
        let core = exp.expand_program(&forms).unwrap();
        let run = run_vm_mode(&core);
        prop_assert_eq!(run.block_total, run.blocks_executed);
        let entries = run.blocks_executed - run.fallthroughs - run.taken_jumps;
        prop_assert_eq!(entries, run.entry_counts, "non-edge block entries in {}", src);
        let forms = core.len() as u64;
        prop_assert!(
            forms <= entries && entries <= run.calls + forms,
            "{} non-edge block entries for {} forms and {} calls in {}",
            entries, forms, run.calls, src
        );
    }

    #[test]
    fn layout_never_changes_results_or_cfg(src in arb_expr(3)) {
        let program = format!("(define x 3) (define y -7) {src}");
        let forms = read_str(&program, "gen.scm").unwrap();
        let mut exp = Expander::new();
        let core = exp.expand_program(&forms).unwrap();
        let last = core.last().unwrap();
        let chunk = compile_chunk(last);

        // Random-ish counts derived from src hash.
        let counters = BlockCounters::new();
        let mut h: u64 = 0xcbf29ce484222325;
        for b in src.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100000001b3);
        }
        for b in 0..chunk.block_count() as u32 {
            let count = h.rotate_left(b) % 100;
            for _ in 0..count {
                counters.increment(chunk.id, b);
            }
        }
        let optimized =
            optimize_layout(&chunk, &counters).unwrap_or_else(|| chunk.clone());
        prop_assert_eq!(canonical_form(&chunk), canonical_form(&optimized));

        let mut i = Interp::new();
        install_primitives(&mut i);
        install_expander_support(&mut i);
        for f in &core[..core.len() - 1] {
            i.eval(f, &None).unwrap();
        }
        let mut vm = Vm::new();
        let a = vm.run_chunk(&mut i, &chunk).unwrap().write_string();
        let b = vm.run_chunk(&mut i, &optimized).unwrap().write_string();
        prop_assert_eq!(a, b);
    }

    // The instrumented engine runs on the VM and derives its dataset from
    // block counts; a tree walk counting every expression itself is the
    // oracle, in both profiler models. The `map` arm's callbacks are
    // tree-walked on both sides and counted per expression.
    #[test]
    fn vm_derived_counts_equal_tree_walked_counts(src in arb_expr(3)) {
        let program = format!("(define x 3) (define y -7) {src}");
        for mode in [ProfileMode::EveryExpression, ProfileMode::CallsOnly] {
            let (derived, tree) = common::derived_and_tree_walked(&[], &program, mode);
            prop_assert_eq!(&derived.0, &tree.0, "results differ on {}", src);
            if mode == ProfileMode::EveryExpression {
                prop_assert!(!tree.1.is_empty(), "nothing counted on {}", src);
            }
            prop_assert_eq!(derived.1, tree.1, "{:?} counts differ on {}", mode, src);
        }
    }
}

// ---------------------------------------------------------------------------
// exclusive-cond: any profile produces a correct, fully-ordered expansion
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn case_reordering_is_semantics_preserving(counts in proptest::collection::vec(1u32..40, 3..6)) {
        // Build a program that exercises each clause `counts[i]` times,
        // then check the optimized program classifies every key the same
        // way the unoptimized one does.
        let n = counts.len();
        let clauses: String = (0..n)
            .map(|i| format!("[({i}) 'k{i}]"))
            .collect::<Vec<_>>()
            .join(" ");
        let mut driver = String::new();
        for (i, c) in counts.iter().enumerate() {
            driver.push_str(&format!(
                "(let loop ([j 0]) (unless (= j {c}) (classify {i}) (loop (add1 j))))\n"
            ));
        }
        let program = format!(
            "(define (classify k) (case k {clauses} [else 'other]))
             {driver}
             (let loop ([k 0] [acc '()])
               (if (> k {n}) (reverse acc) (loop (add1 k) (cons (classify k) acc))))"
        );
        let result = two_pass(&[Lib::Case], &program, "prop-case.scm").unwrap();
        prop_assert_eq!(&result.training_result, &result.optimized_result);
        // And the hottest clause comes first in the expansion.
        let hottest = counts
            .iter()
            .enumerate()
            .max_by_key(|(i, c)| (**c, usize::MAX - i))
            .map(|(i, _)| i)
            .unwrap();
        let classify_line = result
            .expansion_text
            .lines()
            .find(|l| l.contains("define (classify"))
            .unwrap()
            .to_owned();
        let first_clause = classify_line.find("key-in?").unwrap();
        let hot_pos = classify_line.find(&format!("(quote k{hottest})")).unwrap();
        // No other clause body may appear between the first test and the
        // hottest body.
        for (i, c) in counts.iter().enumerate() {
            if i != hottest {
                let p = classify_line.find(&format!("(quote k{i})")).unwrap();
                prop_assert!(
                    p > hot_pos || p < first_clause,
                    "clause k{} (count {}) precedes hottest k{} in {}",
                    i, c, hottest, classify_line
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Hygiene: generated binders never capture user variables
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn swap_macro_never_captures(name in "[a-z][a-z0-9]{0,6}") {
        prop_assume!(!matches!(
            name.as_str(),
            "if" | "let" | "and" | "or" | "cond" | "case" | "else" | "not" | "x" | "y"
                | "begin" | "when" | "do" | "set" | "quote" | "lambda" | "define" | "list"
        ));
        let program = format!(
            "(define-syntax (swap! stx)
               (syntax-case stx ()
                 [(_ a b) #'(let ([tmp a]) (set! a b) (set! b tmp))]))
             (let ([{name} 1] [other 2])
               (swap! {name} other)
               (list {name} other))"
        );
        let mut e = Engine::new();
        let v = e.run_str(&program, "hyg.scm").unwrap();
        prop_assert_eq!(v.to_string(), "(2 1)");
    }
}
