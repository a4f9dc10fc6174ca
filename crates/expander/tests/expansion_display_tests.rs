//! Source-to-source expansion (`expand_to_syntax`): the facility tests and
//! examples use to compare generated code against the paper's figures.

use pgmp_expander::Expander;
use pgmp_reader::read_str;

fn expand_all(src: &str) -> Vec<String> {
    let forms = read_str(src, "d.scm").unwrap();
    let mut exp = Expander::new();
    exp.expand_to_syntax(&forms)
        .unwrap()
        .iter()
        .map(|s| s.to_datum().to_string())
        .collect()
}

fn expand_one(src: &str) -> String {
    expand_all(src).pop().unwrap()
}

const TWICE: &str = "(define-syntax (twice stx)
                       (syntax-case stx ()
                         [(_ e) #'(+ e e)]))";

#[test]
fn define_syntax_forms_are_omitted_from_output() {
    let out = expand_all(&format!("{TWICE} (twice 1) (twice 2)"));
    assert_eq!(out, vec!["(+ 1 1)", "(+ 2 2)"]);
}

#[test]
fn begin_splices_at_toplevel() {
    let out = expand_all(&format!(
        "{TWICE} (begin (twice 1) (begin (twice 2) (twice 3)))"
    ));
    assert_eq!(out, vec!["(+ 1 1)", "(+ 2 2)", "(+ 3 3)"]);
}

#[test]
fn expansion_recurses_into_every_binding_form() {
    let cases = [
        (
            "(let ([a (twice 1)]) (twice a))",
            "(let ((a (+ 1 1))) (+ a a))",
        ),
        (
            "(let* ([a (twice 1)] [b (twice a)]) b)",
            "(let* ((a (+ 1 1)) (b (+ a a))) b)",
        ),
        (
            "(letrec ([f (lambda (x) (twice x))]) (f 1))",
            "(letrec ((f (lambda (x) (+ x x)))) (f 1))",
        ),
        (
            "(let loop ([i (twice 3)]) (if (zero? i) 'done (loop (sub1 i))))",
            "(let loop ((i (+ 3 3))) (if (zero? i) (quote done) (loop (sub1 i))))",
        ),
        ("(define (f x) (twice x))", "(define (f x) (+ x x))"),
        ("(when (twice 1) (twice 2))", "(when (+ 1 1) (+ 2 2))"),
        (
            "(cond [(twice 1) (twice 2)] [else (twice 3)])",
            "(cond ((+ 1 1) (+ 2 2)) (else (+ 3 3)))",
        ),
        (
            "(case (twice 1) [(2) (twice 2)] [else 'no])",
            "(case (+ 1 1) ((2) (+ 2 2)) (else (quote no)))",
        ),
        (
            "(and (twice 1) (or (twice 2) 3))",
            "(and (+ 1 1) (or (+ 2 2) 3))",
        ),
        ("(set! x (twice 4))", "(set! x (+ 4 4))"),
    ];
    for (src, expected) in cases {
        assert_eq!(expand_one(&format!("{TWICE} {src}")), expected, "on {src}");
    }
}

#[test]
fn quote_and_templates_stay_opaque() {
    for (src, expected) in [
        ("'(twice 1)", "(quote (twice 1))"),
        ("`(twice 1)", "(quasiquote (twice 1))"),
    ] {
        assert_eq!(expand_one(&format!("{TWICE} {src}")), expected);
    }
}

#[test]
fn lambda_parameters_shadow_macros_in_display_expansion() {
    assert_eq!(
        expand_one(&format!("{TWICE} (lambda (twice) (twice 9))")),
        "(lambda (twice) (twice 9))"
    );
    assert_eq!(
        expand_one(&format!("{TWICE} (let ([twice car]) (twice '(1)))")),
        "(let ((twice car)) (twice (quote (1))))"
    );
}

#[test]
fn nested_macros_expand_outside_in() {
    let src = "
      (define-syntax (wrap stx)
        (syntax-case stx ()
          [(_ e) #'(list 'wrapped e)]))
      (define-syntax (twice stx)
        (syntax-case stx ()
          [(_ e) #'(+ e e)]))
      (wrap (twice 5))";
    assert_eq!(expand_one(src), "(list (quote wrapped) (+ 5 5))");
}

#[test]
fn macro_generating_macro_uses() {
    let src = "
      (define-syntax (twice stx)
        (syntax-case stx ()
          [(_ e) #'(+ e e)]))
      (define-syntax (quadruple stx)
        (syntax-case stx ()
          [(_ e) #'(twice (twice e))]))
      (quadruple 4)";
    assert_eq!(expand_one(src), "(+ (+ 4 4) (+ 4 4))");
}

#[test]
fn displayed_marks_are_invisible() {
    // Hygiene marks must not leak into the printed expansion (symbols
    // print by name, not by identity).
    let src = "
      (define-syntax (with-temp stx)
        (syntax-case stx ()
          [(_ e) #'(let ([t 1]) (+ t e))]))
      (with-temp 2)";
    assert_eq!(expand_one(src), "(let ((t 1)) (+ t 2))");
}

#[test]
fn for_syntax_state_affects_display_expansion() {
    let src = "
      (begin-for-syntax (define n 0))
      (define-syntax (fresh stx)
        (syntax-case stx ()
          [(_) (begin (set! n (add1 n)) #`#,(datum->syntax stx n))]))
      (fresh) (fresh)";
    assert_eq!(expand_all(src), vec!["1", "2"]);
}
