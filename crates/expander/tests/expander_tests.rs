//! End-to-end expander tests: read → expand → evaluate.

use pgmp_eval::{install_primitives, Interp, Value};
use pgmp_expander::{install_expander_support, Expander};
use pgmp_reader::read_str;

/// Expands and runs `src`, returning the `write` representation of the
/// last form's value.
fn run(src: &str) -> String {
    try_run(src).unwrap_or_else(|e| panic!("program failed: {e}\n---\n{src}"))
}

fn try_run(src: &str) -> Result<String, String> {
    let forms = read_str(src, "test.scm").map_err(|e| e.to_string())?;
    let mut exp = Expander::new();
    let program = exp.expand_program(&forms).map_err(|e| e.to_string())?;
    let mut interp = Interp::new();
    install_primitives(&mut interp);
    install_expander_support(&mut interp);
    interp.set_fuel(Some(50_000_000));
    let mut last = Value::Unspecified;
    for form in &program {
        last = interp.eval(form, &None).map_err(|e| e.to_string())?;
    }
    Ok(last.write_string())
}

/// Fully expands `src` and returns the printed expansion of the last form.
fn expand(src: &str) -> String {
    let forms = read_str(src, "test.scm").unwrap();
    let mut exp = Expander::new();
    let out = exp.expand_to_syntax(&forms).unwrap();
    out.last()
        .map(|s| s.to_datum().to_string())
        .unwrap_or_default()
}

// -------------------------------------------------------------------------
// Core forms
// -------------------------------------------------------------------------

#[test]
fn literals_and_arithmetic() {
    assert_eq!(run("(+ 1 (* 2 3))"), "7");
    assert_eq!(run("42"), "42");
    assert_eq!(run("\"hi\""), "\"hi\"");
    assert_eq!(run("#\\a"), "#\\a");
    assert_eq!(run("#t"), "#t");
    assert_eq!(run("'sym"), "sym");
    assert_eq!(run("'(1 2 . 3)"), "(1 2 . 3)");
    assert_eq!(run("#(1 2)"), "#(1 2)");
}

#[test]
fn lambda_and_application() {
    assert_eq!(run("((lambda (x y) (+ x y)) 3 4)"), "7");
    assert_eq!(run("((lambda args args) 1 2 3)"), "(1 2 3)");
    assert_eq!(run("((lambda (a . rest) (cons a rest)) 1 2 3)"), "(1 2 3)");
}

#[test]
fn define_and_call() {
    assert_eq!(run("(define (square x) (* x x)) (square 9)"), "81");
    assert_eq!(run("(define x 10) (define y 20) (+ x y)"), "30");
    assert_eq!(run("(define (f . xs) (length xs)) (f 1 2 3 4)"), "4");
}

#[test]
fn recursion_and_named_let() {
    assert_eq!(
        run("(define (fact n) (if (zero? n) 1 (* n (fact (sub1 n))))) (fact 10)"),
        "3628800"
    );
    assert_eq!(
        run("(let loop ([i 0] [acc 0]) (if (= i 5) acc (loop (add1 i) (+ acc i))))"),
        "10"
    );
}

#[test]
fn let_family() {
    assert_eq!(run("(let ([x 1] [y 2]) (+ x y))"), "3");
    assert_eq!(run("(let* ([x 1] [y (+ x 1)]) (* x y))"), "2");
    assert_eq!(
        run(
            "(letrec ([even? (lambda (n) (if (zero? n) #t (odd? (- n 1))))] \
                      [odd? (lambda (n) (if (zero? n) #f (even? (- n 1))))]) \
               (even? 100))"
        ),
        "#t"
    );
    // Shadowing.
    assert_eq!(run("(define x 1) (let ([x 2]) x)"), "2");
    assert_eq!(run("(define x 1) (let ([x 2]) (let ([x 3]) x))"), "3");
}

#[test]
fn internal_defines_are_letrec_star() {
    assert_eq!(
        run("(define (f) (define a 1) (define b (+ a 1)) (+ a b)) (f)"),
        "3"
    );
    // Mutual recursion between internal defines.
    assert_eq!(
        run("(define (f n)
               (define (ev? n) (if (zero? n) #t (od? (- n 1))))
               (define (od? n) (if (zero? n) #f (ev? (- n 1))))
               (ev? n))
             (f 10)"),
        "#t"
    );
    // Expressions interleaved with defines evaluate in order.
    assert_eq!(
        run("(define out '())
             (define (f)
               (define a 1)
               (set! out (cons 'mid out))
               (define b 2)
               (+ a b))
             (list (f) out)"),
        "(3 (mid))"
    );
}

#[test]
fn conditionals() {
    assert_eq!(run("(if #f 1 2)"), "2");
    assert_eq!(run("(cond [#f 1] [#t 2] [else 3])"), "2");
    assert_eq!(run("(cond [#f 1] [else 3])"), "3");
    assert_eq!(run("(cond [(memv 2 '(1 2 3))])"), "(2 3)");
    assert_eq!(
        run("(case 2 [(1) 'one] [(2 3) 'two-or-three] [else 'other])"),
        "two-or-three"
    );
    assert_eq!(run("(case 9 [(1) 'one] [else 'other])"), "other");
    assert_eq!(run("(case #\\b [(#\\a) 1] [(#\\b) 2])"), "2");
    assert_eq!(run("(when #t 1 2)"), "2");
    assert_eq!(run("(unless #t 1 2)"), "#<void>");
    assert_eq!(run("(and 1 2 3)"), "3");
    assert_eq!(run("(and 1 #f 3)"), "#f");
    assert_eq!(run("(and)"), "#t");
    assert_eq!(run("(or #f 2 3)"), "2");
    assert_eq!(run("(or #f #f)"), "#f");
    assert_eq!(run("(or)"), "#f");
}

#[test]
fn or_evaluates_once() {
    assert_eq!(
        run("(define n 0) (define (bump!) (set! n (add1 n)) n) (list (or (bump!) 99) n)"),
        "(1 1)"
    );
}

#[test]
fn set_mutates() {
    assert_eq!(run("(define x 1) (set! x 5) x"), "5");
    assert_eq!(
        run(
            "(define (counter) (let ([n 0]) (lambda () (set! n (add1 n)) n))) \
                    (define c (counter)) (c) (c) (c)"
        ),
        "3"
    );
}

#[test]
fn quasiquote() {
    assert_eq!(run("`(1 ,(+ 1 1) 3)"), "(1 2 3)");
    assert_eq!(run("`(1 ,@(list 2 3) 4)"), "(1 2 3 4)");
    assert_eq!(run("`(a b c)"), "(a b c)");
    assert_eq!(run("`(1 . ,(+ 1 1))"), "(1 . 2)");
    // Nested quasiquote keeps inner unquote literal.
    assert_eq!(run("`(a `(b ,(c)))"), "(a (quasiquote (b (unquote (c)))))");
    assert_eq!(run("(let ([x 5]) `(x is ,x))"), "(x is 5)");
}

// -------------------------------------------------------------------------
// Macros
// -------------------------------------------------------------------------

#[test]
fn simple_macro() {
    assert_eq!(
        run("(define-syntax (twice stx)
               (syntax-case stx ()
                 [(_ e) #'(+ e e)]))
             (twice 21)"),
        "42"
    );
}

#[test]
fn macro_with_multiple_clauses_and_constants() {
    assert_eq!(
        run("(define-syntax (m stx)
               (syntax-case stx ()
                 [(_ 0) #''zero]
                 [(_ n) #''nonzero]))
             (list (m 0) (m 7))"),
        "(zero nonzero)"
    );
}

#[test]
fn macro_with_fender() {
    assert_eq!(
        run("(define-syntax (lit stx)
               (syntax-case stx ()
                 [(_ x) (number? (syntax->datum #'x)) #''number]
                 [(_ x) #''other]))
             (list (lit 3) (lit abc))"),
        "(number other)"
    );
}

#[test]
fn ellipsis_template() {
    assert_eq!(
        run("(define-syntax (my-list stx)
               (syntax-case stx ()
                 [(_ e ...) #'(list e ...)]))
             (my-list 1 2 3)"),
        "(1 2 3)"
    );
    assert_eq!(
        run("(define-syntax (swap-pairs stx)
               (syntax-case stx ()
                 [(_ (a b) ...) #'(list (cons b a) ...)]))
             (swap-pairs (1 2) (3 4))"),
        "((2 . 1) (4 . 3))"
    );
}

#[test]
fn nested_ellipsis_template() {
    assert_eq!(
        run("(define-syntax (flatten2 stx)
               (syntax-case stx ()
                 [(_ ((e ...) ...)) #'(append (list e ...) ...)]))
             (flatten2 ((1 2) (3) ()))"),
        "(1 2 3)"
    );
}

#[test]
fn ellipsis_with_tail_pattern() {
    assert_eq!(
        run("(define-syntax (but-last stx)
               (syntax-case stx ()
                 [(_ e ... last) #'(list e ...)]))
             (but-last 1 2 3 4)"),
        "(1 2 3)"
    );
}

#[test]
fn recursive_macro() {
    assert_eq!(
        run("(define-syntax (my-and stx)
               (syntax-case stx ()
                 [(_) #'#t]
                 [(_ e) #'e]
                 [(_ e rest ...) #'(if e (my-and rest ...) #f)]))
             (list (my-and) (my-and 1) (my-and 1 2 3) (my-and 1 #f 3))"),
        "(#t 1 3 #f)"
    );
}

#[test]
fn hygiene_template_binder_does_not_capture() {
    // The classic test: my-or binds `t` internally; user code's `t` must
    // not be captured.
    assert_eq!(
        run("(define-syntax (my-or stx)
               (syntax-case stx ()
                 [(_ a b) #'(let ([t a]) (if t t b))]))
             (let ([t 5]) (my-or #f t))"),
        "5"
    );
}

#[test]
fn hygiene_macro_references_resolve_in_definition_context() {
    // The macro's `if` must be the core `if` even if the user shadows it
    // lexically at the use site... our simplified hygiene resolves free
    // macro identifiers globally, so test the global-shadow direction:
    assert_eq!(
        run("(define-syntax (m stx)
               (syntax-case stx ()
                 [(_ x) #'(add1 x)]))
             (let ([add1 (lambda (n) 'wrong)])
               ;; use-site lexical shadowing does not capture the
               ;; macro-introduced add1 reference
               (m 1))"),
        "2"
    );
}

#[test]
fn hygiene_nested_macro_invocations() {
    assert_eq!(
        run("(define-syntax (swap! stx)
               (syntax-case stx ()
                 [(_ a b) #'(let ([tmp a]) (set! a b) (set! b tmp))]))
             (let ([tmp 1] [y 2])
               (swap! tmp y)
               (list tmp y))"),
        "(2 1)"
    );
}

#[test]
fn quasisyntax_with_unsyntax() {
    assert_eq!(
        run("(define-syntax (add-const stx)
               (syntax-case stx ()
                 [(_ e) #`(+ e #,(datum->syntax #'e (* 2 3)))]))
             (add-const 4)"),
        "10"
    );
    // Raw (non-syntax) values in unsyntax are converted.
    assert_eq!(
        run("(define-syntax (n stx)
               (syntax-case stx ()
                 [(_) #`#,(* 7 6)]))
             (n)"),
        "42"
    );
}

#[test]
fn unsyntax_splicing() {
    assert_eq!(
        run("(define-syntax (rev stx)
               (syntax-case stx ()
                 [(_ e ...) #`(list #,@(reverse (syntax->list #'(e ...))))]))
             (rev 1 2 3)"),
        "(3 2 1)"
    );
}

#[test]
fn define_for_syntax_helpers() {
    assert_eq!(
        run("(define-for-syntax (doubled n) (* 2 n))
             (define-syntax (m stx)
               (syntax-case stx ()
                 [(_ x) #`(+ x #,(datum->syntax #'x (doubled 10)))]))
             (m 1)"),
        "21"
    );
}

#[test]
fn begin_for_syntax_state() {
    // Expand-time state accumulates across macro uses (the mechanism the
    // §6.2 object system uses for its class registry).
    assert_eq!(
        run("(begin-for-syntax (define counter 0))
             (define-syntax (tick stx)
               (syntax-case stx ()
                 [(_) (begin
                        (set! counter (add1 counter))
                        #`#,(datum->syntax stx counter))]))
             (list (tick) (tick) (tick))"),
        "(1 2 3)"
    );
}

#[test]
fn macro_generating_defines() {
    assert_eq!(
        run("(define-syntax (def-two stx)
               (syntax-case stx ()
                 [(_ a b) #'(begin (define a 1) (define b 2))]))
             (def-two x y)
             (+ x y)"),
        "3"
    );
}

#[test]
fn macros_in_transformer_bodies() {
    assert_eq!(
        run("(define-syntax (m stx)
               (syntax-case stx ()
                 [(_ x) (let ([n (syntax->datum #'x)])
                          (cond [(> n 0) #''pos]
                                [(< n 0) #''neg]
                                [else #''zero]))]))
             (list (m 3) (m -3) (m 0))"),
        "(pos neg zero)"
    );
}

#[test]
fn literals_in_syntax_case() {
    assert_eq!(
        run("(define-syntax (has-else stx)
               (syntax-case stx (else)
                 [(_ else) #''yes]
                 [(_ x) #''no]))
             (list (has-else else) (has-else other))"),
        "(yes no)"
    );
}

#[test]
fn curry_in_transformer() {
    // Figure 6 uses (map (curry rewrite-clause #'key) clauses).
    assert_eq!(
        run("(define-for-syntax (pair-with x y) (cons x y))
             (define-syntax (m stx)
               (syntax-case stx ()
                 [(_ e ...)
                  #`(quote #,(datum->syntax stx
                      (map (curry pair-with 'k)
                           (map syntax->datum (syntax->list #'(e ...))))))]))
             (m 1 2)"),
        "((k . 1) (k . 2))"
    );
}

// -------------------------------------------------------------------------
// The paper's running example (§2), with a stubbed profile-query
// -------------------------------------------------------------------------

#[test]
fn if_r_reorders_branches() {
    // profile-query stubbed to return fixed weights: the false branch is
    // hotter, so if-r negates the test and swaps the branches (Figure 2).
    let src = r#"
      (define-for-syntax (profile-query-stub e)
        (let ([d (syntax->datum e)])
          (if (equal? d '(flag email 'important)) 0.5 1.0)))
      (define-syntax (if-r stx)
        (syntax-case stx ()
          [(if-r test t-branch f-branch)
           (let ([t-prof (profile-query-stub #'t-branch)]
                 [f-prof (profile-query-stub #'f-branch)])
             (cond
               [(< t-prof f-prof) #'(if (not test) f-branch t-branch)]
               [else #'(if test t-branch f-branch)]))]))
      (define (classify email)
        (if-r (subject-contains email "PLDI")
          (flag email 'important)
          (flag email 'spam)))
    "#;
    let forms = read_str(src, "ifr.scm").unwrap();
    let mut exp = Expander::new();
    let out = exp.expand_to_syntax(&forms).unwrap();
    let classify = out.last().unwrap().to_datum().to_string();
    assert_eq!(
        classify,
        "(define (classify email) (if (not (subject-contains email \"PLDI\")) \
         (flag email (quote spam)) (flag email (quote important))))"
    );
}

// -------------------------------------------------------------------------
// expand_to_syntax
// -------------------------------------------------------------------------

#[test]
fn expansion_is_source_to_source() {
    assert_eq!(
        expand(
            "(define-syntax (twice stx)
               (syntax-case stx ()
                 [(_ e) #'(+ e e)]))
             (twice 21)"
        ),
        "(+ 21 21)"
    );
}

#[test]
fn expansion_descends_into_core_forms() {
    assert_eq!(
        expand(
            "(define-syntax (twice stx)
               (syntax-case stx ()
                 [(_ e) #'(+ e e)]))
             (lambda (x) (twice x))"
        ),
        "(lambda (x) (+ x x))"
    );
    assert_eq!(
        expand(
            "(define-syntax (twice stx)
               (syntax-case stx ()
                 [(_ e) #'(+ e e)]))
             (let ([y (twice 3)]) (twice y))"
        ),
        "(let ((y (+ 3 3))) (+ y y))"
    );
}

#[test]
fn expansion_respects_shadowing() {
    // `twice` is rebound as a variable: no macro expansion.
    assert_eq!(
        expand(
            "(define-syntax (twice stx)
               (syntax-case stx ()
                 [(_ e) #'(+ e e)]))
             (lambda (twice) (twice 21))"
        ),
        "(lambda (twice) (twice 21))"
    );
}

#[test]
fn expansion_leaves_quote_alone() {
    assert_eq!(
        expand(
            "(define-syntax (twice stx)
               (syntax-case stx ()
                 [(_ e) #'(+ e e)]))
             '(twice 21)"
        ),
        "(quote (twice 21))"
    );
}

// -------------------------------------------------------------------------
// Error behaviour
// -------------------------------------------------------------------------

#[test]
fn error_cases() {
    assert!(try_run("(if)").is_err());
    assert!(try_run("()").is_err());
    assert!(try_run("(lambda (x))").is_err());
    assert!(try_run("(let ([x]) x)").is_err());
    assert!(try_run("(unbound-var-zzz)").is_err());
    assert!(try_run("(else 1)").is_err());
    assert!(try_run("(unquote 1)").is_err());
    assert!(try_run("(set! 3 4)").is_err());
    assert!(
        try_run("(define-syntax (m stx) 42) (m)").is_err(),
        "non-syntax result"
    );
    assert!(
        try_run("(define-syntax m 5)").is_err(),
        "non-procedure transformer"
    );
}

#[test]
fn no_matching_clause_is_a_transformer_error() {
    let e = try_run(
        "(define-syntax (one stx)
           (syntax-case stx ()
             [(_ x) #'x]))
         (one 1 2 3)",
    )
    .unwrap_err();
    assert!(e.contains("no clause matched"), "got: {e}");
}

#[test]
fn expansion_loop_detected() {
    let e = try_run(
        "(define-syntax (loop stx)
           (syntax-case stx ()
             [(_) #'(loop)]))
         (loop)",
    )
    .unwrap_err();
    assert!(e.contains("exceeded"), "got: {e}");
}

#[test]
fn macro_used_as_variable_is_an_error() {
    let e = try_run(
        "(define-syntax (m stx)
           (syntax-case stx ()
             [(_ x) #'x]))
         (list m)",
    )
    .unwrap_err();
    assert!(e.contains("used as a variable"), "got: {e}");
}

#[test]
fn deep_recursion_is_fine_with_tail_calls() {
    assert_eq!(
        run("(let loop ([i 0]) (if (= i 1000000) 'done (loop (add1 i))))"),
        "done"
    );
}
