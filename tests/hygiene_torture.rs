//! Hygiene torture tests: the §2-style meta-programs only work because
//! the expander keeps macro-introduced and user identifiers apart. These
//! stress that machinery through the full engine.

use pgmp::Engine;

fn run(src: &str) -> String {
    let mut e = Engine::new();
    e.run_str(src, "hyg.scm")
        .unwrap_or_else(|err| panic!("failed: {err}\n{src}"))
        .write_string()
}

#[test]
fn three_levels_of_temp_binding_do_not_collide() {
    assert_eq!(
        run("
          (define-syntax (l1 stx)
            (syntax-case stx ()
              [(_ e) #'(let ([t 1]) (+ t e))]))
          (define-syntax (l2 stx)
            (syntax-case stx ()
              [(_ e) #'(let ([t 10]) (+ t (l1 e)))]))
          (define-syntax (l3 stx)
            (syntax-case stx ()
              [(_ e) #'(let ([t 100]) (+ t (l2 e)))]))
          (let ([t 1000])
            (l3 t))"),
        "1111"
    );
}

#[test]
fn user_code_spliced_under_macro_binder_sees_user_scope() {
    assert_eq!(
        run("
          (define-syntax (shadowing stx)
            (syntax-case stx ()
              [(_ body) #'(let ([x 'macro]) (list x body))]))
          (define x 'user)
          (shadowing x)"),
        "(macro user)"
    );
}

#[test]
fn macro_can_intentionally_bind_user_identifiers_via_patterns() {
    // Binding a user-supplied identifier is fine — the binder comes from
    // the use site, so marks agree.
    assert_eq!(
        run("
          (define-syntax (my-let1 stx)
            (syntax-case stx ()
              [(_ name value body) #'(let ([name value]) body)]))
          (my-let1 q 42 (+ q 1))"),
        "43"
    );
}

#[test]
fn swap_with_both_names_matching_macro_temps() {
    assert_eq!(
        run("
          (define-syntax (swap! stx)
            (syntax-case stx ()
              [(_ a b) #'(let ([tmp a]) (set! a b) (set! b tmp))]))
          (let ([tmp 1] [a 2] [b 3])
            (swap! tmp a)
            (swap! a b)
            (list tmp a b))"),
        "(2 3 1)"
    );
}

#[test]
fn recursive_macro_keeps_each_expansion_layer_separate() {
    assert_eq!(
        run("
          (define-syntax (sum-down stx)
            (syntax-case stx ()
              [(_ 0) #'0]
              [(_ n) (let ([v (syntax->datum #'n)])
                       #`(let ([k #,(datum->syntax #'n (- v 1))])
                           (+ n (sum-down #,(datum->syntax #'n (- v 1))))))]))
          (sum-down 4)"),
        "10"
    );
}

#[test]
fn syntax_rules_and_syntax_case_macros_compose() {
    assert_eq!(
        run("
          (define-syntax when-positive
            (syntax-rules ()
              [(_ e body ...) (if (> e 0) (begin body ...) 'nope)]))
          (define-syntax (squared stx)
            (syntax-case stx ()
              [(_ e) #'(* e e)]))
          (list (when-positive (squared 3) 'yes)
                (when-positive (squared 0) 'yes))"),
        "(yes nope)"
    );
}

#[test]
fn pattern_variables_substitute_even_inside_quote() {
    // R6RS semantics: pattern variables are substituted everywhere in a
    // template, including under quote — `'one` here is `'1`, not the
    // symbol `one`.
    assert_eq!(
        run("
          (define-syntax (pick stx)
            (syntax-case stx ()
              [(_ one) #'(list 'one one)]
              [(_ one two) #'(list 'two two one)]))
          (list (pick 1) (pick 1 2))"),
        "((1 1) (2 2 1))"
    );
}

#[test]
fn pattern_variables_do_not_leak_across_clauses() {
    assert_eq!(
        run("
          (define-syntax (pick stx)
            (syntax-case stx ()
              [(_ a) #'(list 'single a)]
              [(_ a b) #'(list 'pair b a)]))
          (list (pick 1) (pick 1 2))"),
        "((single 1) (pair 2 1))"
    );
}

#[test]
fn introduced_defines_are_visible_but_introduced_lets_are_not() {
    // Macro-generated toplevel defines splice into the program (by
    // design); macro-internal lets never leak.
    assert_eq!(
        run("
          (define-syntax (defpair stx)
            (syntax-case stx ()
              [(_ a b)
               #'(begin (define a 1) (define b (let ([hidden 41]) (add1 hidden))))]))
          (defpair p q)
          (list p q)"),
        "(1 42)"
    );
    // `hidden` must not be visible.
    let mut e = Engine::new();
    assert!(e
        .run_str(
            "(define-syntax (d stx)
               (syntax-case stx ()
                 [(_ a) #'(define a (let ([hidden 1]) hidden))]))
             (d x)
             hidden",
            "leak.scm",
        )
        .is_err());
}

#[test]
fn fenders_run_with_pattern_variables_in_scope() {
    assert_eq!(
        run("
          (define-syntax (classify stx)
            (syntax-case stx ()
              [(_ n) (and (number? (syntax->datum #'n))
                          (> (syntax->datum #'n) 0))
               #''positive-literal]
              [(_ n) (number? (syntax->datum #'n)) #''other-literal]
              [(_ n) #''not-a-literal]))
          (list (classify 5) (classify -5) (classify foo))"),
        "(positive-literal other-literal not-a-literal)"
    );
}

#[test]
fn datum_to_syntax_deliberately_breaks_hygiene() {
    // The escape hatch: constructing an identifier with the *use site's*
    // context captures on purpose (anaphoric macros).
    assert_eq!(
        run("
          (define-syntax (aif stx)
            (syntax-case stx ()
              [(_ test then else)
               (let ([it (datum->syntax #'test 'it)])
                 #`(let ([#,it test])
                     (if #,it then else)))]))
          (aif (memv 2 '(1 2 3)) it 'nothing)"),
        "(2 3)"
    );
}

#[test]
fn a_dotted_tail_carries_the_use_sites_context() {
    // `rest` is a node of the macro's input, so an identifier built in
    // its context binds the use site's `it`, at top level and when the
    // use is itself introduced by another macro.
    let with_it = "
      (define-syntax (with-it stx)
        (syntax-case stx ()
          [(_ v . rest)
           #`(let ([#,(datum->syntax #'rest 'it) v])
               #,@(syntax->list #'rest))]))";
    assert_eq!(run(&format!("{with_it} (with-it 41 (+ it 1))")), "42");
    assert_eq!(
        run(&format!(
            "{with_it}
             (define-syntax (twice stx)
               (syntax-case stx ()
                 [(_ e) #'(with-it 2 (* it e))]))
             (twice 21)"
        )),
        "42"
    );
}

#[test]
fn a_template_splices_a_list_bound_to_its_dotted_tail() {
    // `rest` binds the list of the remaining operands, so a template
    // ending in `. rest` continues with its elements; with `#'` and `#``
    // alike.
    for quote in ["#'", "#`"] {
        let src = format!(
            "(define-syntax (m stx)
               (syntax-case stx ()
                 [(_ v . rest) {quote}(let ([x v]) . rest)]))
             (m 41 (+ 1 1))"
        );
        assert_eq!(run(&src), "2", "{quote}");
    }
    // A dotted tail of its own stays the template's tail.
    assert_eq!(
        run("(define-syntax (m stx)
               (syntax-case stx ()
                 [(_ (a . rest)) #'(quote (a . rest))]))
             (m (1 2 . 3))"),
        "(1 2 . 3)"
    );
}
