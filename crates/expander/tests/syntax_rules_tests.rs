//! `syntax-rules` — the declarative transformer sugar.

use pgmp_eval::{install_primitives, Interp, Value};
use pgmp_expander::{install_expander_support, Expander};
use pgmp_reader::read_str;

fn run(src: &str) -> String {
    let forms = read_str(src, "sr.scm").unwrap();
    let mut exp = Expander::new();
    let program = exp.expand_program(&forms).unwrap();
    let mut interp = Interp::new();
    install_primitives(&mut interp);
    install_expander_support(&mut interp);
    let mut last = Value::Unspecified;
    for form in &program {
        last = interp.eval(form, &None).unwrap();
    }
    last.write_string()
}

#[test]
fn basic_syntax_rules() {
    assert_eq!(
        run("(define-syntax twice
               (syntax-rules ()
                 [(_ e) (+ e e)]))
             (twice 21)"),
        "42"
    );
}

#[test]
fn multiple_clauses() {
    assert_eq!(
        run("(define-syntax opt
               (syntax-rules ()
                 [(_ a) (list 'one a)]
                 [(_ a b) (list 'two a b)]))
             (list (opt 1) (opt 1 2))"),
        "((one 1) (two 1 2))"
    );
}

#[test]
fn ellipses_in_syntax_rules() {
    assert_eq!(
        run("(define-syntax my-begin
               (syntax-rules ()
                 [(_ e) e]
                 [(_ e rest ...) (let ([t e]) (my-begin rest ...))]))
             (define n 0)
             (my-begin (set! n 1) (set! n (+ n 10)) n)"),
        "11"
    );
}

#[test]
fn literals_in_syntax_rules() {
    assert_eq!(
        run("(define-syntax is-arrow
               (syntax-rules (=>)
                 [(_ => x) (list 'arrow x)]
                 [(_ y x) (list 'no y x)]))
             (list (is-arrow => 1) (is-arrow 2 1))"),
        "((arrow 1) (no 2 1))"
    );
}

#[test]
fn syntax_rules_is_hygienic() {
    assert_eq!(
        run("(define-syntax my-or2
               (syntax-rules ()
                 [(_ a b) (let ([t a]) (if t t b))]))
             (let ([t 5]) (my-or2 #f t))"),
        "5"
    );
}

#[test]
fn recursive_syntax_rules() {
    assert_eq!(
        run("(define-syntax my-list*
               (syntax-rules ()
                 [(_ e) e]
                 [(_ e rest ...) (cons e (my-list* rest ...))]))
             (my-list* 1 2 3 '(4 5))"),
        "(1 2 3 4 5)"
    );
}

#[test]
fn syntax_rules_value_is_a_transformer_only() {
    // Using syntax-rules where a plain value is expected still yields a
    // procedure (the transformer), matching Scheme semantics.
    assert_eq!(run("(procedure? (syntax-rules () [(_ x) x]))"), "#t");
}

#[test]
fn malformed_syntax_rules_errors() {
    let forms = read_str(
        "(define-syntax bad (syntax-rules () [only-a-pattern]))",
        "sr.scm",
    )
    .unwrap();
    let mut exp = Expander::new();
    assert!(exp.expand_program(&forms).is_err());
}
