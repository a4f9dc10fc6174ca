//! `syntax-case` patterns: compilation to a typed [`Matcher`].
//!
//! The expander compiles each clause's pattern once, when it expands the
//! `syntax-case` form, into a [`pgmp_eval::Pattern`] tree whose variables
//! are numbered slots. The clause's `SyntaxMatch` Core node owns the
//! resulting [`Matcher`]; matching itself lives in `pgmp-eval`, beside
//! the executors that run it.

use crate::cenv::BindKind;
use crate::error::{ExpandError, ExpandErrorKind};
use pgmp_eval::{Matcher, Pattern};
use pgmp_syntax::{Datum, Symbol, Syntax, SyntaxBody};
use std::rc::Rc;

/// A pattern variable discovered during pattern compilation.
#[derive(Clone, Debug)]
pub struct PatternVar {
    /// The binder occurrence (keeps its marks for hygienic binding).
    pub id: Syntax,
    /// Ellipsis depth at which the variable binds.
    pub depth: u8,
}

/// A compiled pattern: the matcher plus its variables in slot order.
#[derive(Clone, Debug)]
pub struct CompiledPattern {
    /// The typed matcher.
    pub matcher: Rc<Matcher>,
    /// Variables; slot `i` is `vars[i]`.
    pub vars: Vec<PatternVar>,
}

impl CompiledPattern {
    /// Kind tag for binding the `i`-th variable in a compile-time scope.
    pub fn bind_kind(&self, i: usize) -> BindKind {
        BindKind::PatternVar(self.vars[i].depth)
    }
}

fn bad_pattern(msg: impl Into<String>, stx: &Syntax) -> ExpandError {
    ExpandError::new(ExpandErrorKind::BadPattern, msg).with_src(stx.source)
}

fn is_ellipsis(stx: &Syntax) -> bool {
    stx.as_symbol().is_some_and(|s| s.as_str() == "...")
}

fn is_underscore(stx: &Syntax) -> bool {
    stx.as_symbol().is_some_and(|s| s.as_str() == "_")
}

/// Compiles `pattern` with the given literal identifiers.
///
/// # Errors
///
/// Rejects duplicate pattern variables, misplaced `…`, vector patterns,
/// `…` in dotted tails, and more variables than a slot index can name.
pub fn compile_pattern(
    pattern: &Syntax,
    literals: &[Symbol],
) -> Result<CompiledPattern, ExpandError> {
    let mut vars: Vec<PatternVar> = Vec::new();
    let tree = compile(pattern, literals, 0, &mut vars)?;
    let nvars = vars.len() as u16;
    let matcher = Matcher::new(tree, nvars).map_err(|msg| bad_pattern(msg, pattern))?;
    Ok(CompiledPattern {
        matcher: Rc::new(matcher),
        vars,
    })
}

fn compile_all(
    ps: &[Rc<Syntax>],
    literals: &[Symbol],
    depth: u8,
    vars: &mut Vec<PatternVar>,
) -> Result<Box<[Pattern]>, ExpandError> {
    ps.iter()
        .map(|e| compile(e, literals, depth, vars))
        .collect()
}

fn compile(
    p: &Syntax,
    literals: &[Symbol],
    depth: u8,
    vars: &mut Vec<PatternVar>,
) -> Result<Pattern, ExpandError> {
    match &p.body {
        SyntaxBody::Atom(Datum::Sym(sym)) => {
            if is_ellipsis(p) {
                return Err(bad_pattern("misplaced ellipsis", p));
            }
            if is_underscore(p) {
                return Ok(Pattern::Any);
            }
            if literals.contains(sym) {
                return Ok(Pattern::Lit(*sym));
            }
            if vars.iter().any(|v| v.id.as_symbol() == Some(*sym)) {
                return Err(bad_pattern(
                    format!("duplicate pattern variable `{sym}`"),
                    p,
                ));
            }
            let slot = u16::try_from(vars.len())
                .map_err(|_| bad_pattern("too many pattern variables", p))?;
            vars.push(PatternVar {
                id: p.clone(),
                depth,
            });
            Ok(Pattern::Var(slot))
        }
        SyntaxBody::Atom(d) => Ok(Pattern::Const(d.clone())),
        SyntaxBody::Vector(_) => Err(bad_pattern(
            "vector patterns are not supported (see DESIGN.md)",
            p,
        )),
        SyntaxBody::List(elems) => match elems.iter().position(|e| is_ellipsis(e)) {
            None => Ok(Pattern::List(compile_all(elems, literals, depth, vars)?)),
            Some(0) => Err(bad_pattern("ellipsis with no preceding pattern", p)),
            Some(i) => {
                if elems[i + 1..].iter().any(|e| is_ellipsis(e)) {
                    return Err(bad_pattern("multiple ellipses at one level", p));
                }
                let pre = compile_all(&elems[..i - 1], literals, depth, vars)?;
                let first_slot = vars.len() as u16;
                let head = compile(&elems[i - 1], literals, depth + 1, vars)?;
                let slots = (first_slot..vars.len() as u16).collect();
                let post = compile_all(&elems[i + 1..], literals, depth, vars)?;
                Ok(Pattern::Ellipsis {
                    pre,
                    head: Box::new(head),
                    post,
                    slots,
                })
            }
        },
        SyntaxBody::Improper(elems, tail) => {
            if elems.iter().any(|e| is_ellipsis(e)) {
                return Err(bad_pattern(
                    "ellipsis in dotted pattern is not supported",
                    p,
                ));
            }
            let elems = compile_all(elems, literals, depth, vars)?;
            let tail = compile(tail, literals, depth, vars)?;
            Ok(Pattern::Dotted(elems, Box::new(tail)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgmp_eval::Value;
    use pgmp_syntax::Mark;

    fn stx(src: &str) -> Rc<Syntax> {
        pgmp_reader::read_str(src, "p.scm").unwrap().remove(0)
    }

    fn pat(src: &str, lits: &[&str]) -> CompiledPattern {
        let lits: Vec<Symbol> = lits.iter().map(|s| Symbol::intern(s)).collect();
        compile_pattern(&stx(src), &lits).unwrap()
    }

    fn try_match(p: &CompiledPattern, input: &str) -> Option<Vec<Value>> {
        p.matcher.matches(&stx(input))
    }

    #[test]
    fn flat_pattern_binds_vars() {
        let p = pat("(if-r test t-branch f-branch)", &[]);
        assert_eq!(p.vars.len(), 4);
        let binds = try_match(&p, "(if-r (f x) 1 2)").unwrap();
        assert!(matches!(&binds[1], Value::Syntax(s) if s.to_datum().to_string() == "(f x)"));
        assert!(matches!(&binds[2], Value::Syntax(s) if s.to_datum().to_string() == "1"));
        assert!(try_match(&p, "(if-r 1 2)").is_none(), "wrong length");
    }

    #[test]
    fn wildcard_and_constants() {
        let p = pat("(_ 42 \"s\")", &[]);
        assert!(try_match(&p, "(anything 42 \"s\")").is_some());
        assert!(try_match(&p, "(anything 41 \"s\")").is_none());
    }

    #[test]
    fn literals_match_by_name() {
        let p = pat("(_ else body)", &["else"]);
        assert!(try_match(&p, "(cl else 1)").is_some());
        assert!(try_match(&p, "(cl other 1)").is_none());
        assert_eq!(p.vars.len(), 1, "`else` and `_` are not variables");
    }

    #[test]
    fn ellipsis_collects_lists() {
        let p = pat("(_ e ...)", &[]);
        let binds = try_match(&p, "(m 1 2 3)").unwrap();
        let es = binds[0].list_elems().unwrap();
        assert_eq!(es.len(), 3);
        let binds = try_match(&p, "(m)").unwrap();
        assert_eq!(binds[0].list_elems().unwrap().len(), 0);
    }

    #[test]
    fn ellipsis_with_fixed_tail() {
        let p = pat("(_ x ... y z)", &[]);
        let binds = try_match(&p, "(m 1 2 3 4 5)").unwrap();
        assert_eq!(binds[0].list_elems().unwrap().len(), 3);
        assert!(matches!(&binds[1], Value::Syntax(s) if s.to_datum().to_string() == "4"));
        assert!(matches!(&binds[2], Value::Syntax(s) if s.to_datum().to_string() == "5"));
        assert!(try_match(&p, "(m 1)").is_none(), "too short for tail");
    }

    #[test]
    fn nested_ellipsis() {
        let p = pat("(_ ((k ...) body) ...)", &[]);
        let binds = try_match(&p, "(case ((1 2) a) ((3) b))").unwrap();
        // k has depth 2: list of lists of syntax.
        let ks = binds[0].list_elems().unwrap();
        assert_eq!(ks.len(), 2);
        assert_eq!(ks[0].list_elems().unwrap().len(), 2);
        assert_eq!(ks[1].list_elems().unwrap().len(), 1);
        let bodies = binds[1].list_elems().unwrap();
        assert_eq!(bodies.len(), 2);
        assert_eq!(p.vars[0].depth, 2);
        assert_eq!(p.vars[1].depth, 1);
    }

    #[test]
    fn dotted_patterns() {
        let p = pat("(a . rest)", &[]);
        let binds = try_match(&p, "(1 2 3)").unwrap();
        assert!(matches!(&binds[1], Value::Syntax(s) if s.to_datum().to_string() == "(2 3)"));
        let binds = try_match(&p, "(1 . 2)").unwrap();
        assert!(matches!(&binds[1], Value::Syntax(s) if s.to_datum().to_string() == "2"));
        assert!(try_match(&p, "()").is_none());
    }

    #[test]
    fn dotted_tail_keeps_the_scrutinees_marks() {
        // A macro's input carries its use's mark on every node, so the
        // list node a dotted tail binds must carry it too.
        let p = pat("(a . rest)", &[]);
        for input in ["(1 2 3)", "(1 2 . 3)"] {
            let marked = Rc::new(stx(input).apply_mark(Mark(7)));
            let binds = p.matcher.matches(&marked).unwrap();
            let Value::Syntax(rest) = &binds[1] else {
                panic!("rest bound to {}", binds[1]);
            };
            assert!(rest.marks.contains(Mark(7)), "{input}: {:?}", rest.marks);
            assert_eq!(rest.marks, marked.marks);
        }
    }

    #[test]
    fn duplicate_variables_rejected() {
        let r = compile_pattern(&stx("(m x x)"), &[]);
        assert!(r.is_err());
    }

    #[test]
    fn misplaced_ellipsis_rejected() {
        assert!(compile_pattern(&stx("(... x)"), &[]).is_err());
        assert!(compile_pattern(&stx("(a ... b ...)"), &[]).is_err());
        assert!(compile_pattern(&stx("..."), &[]).is_err());
    }

    #[test]
    fn vector_patterns_rejected() {
        assert!(compile_pattern(&stx("#(a b)"), &[]).is_err());
    }

    #[test]
    fn ellipsis_repetition_isolates_bindings() {
        // Each repetition re-binds; values must not leak across reps.
        let p = pat("(_ (k v) ...)", &[]);
        let binds = try_match(&p, "(m (a 1) (b 2))").unwrap();
        let ks: Vec<String> = binds[0]
            .list_elems()
            .unwrap()
            .iter()
            .map(|v| v.to_string())
            .collect();
        assert_eq!(ks, vec!["#<syntax a>", "#<syntax b>"]);
    }
}
