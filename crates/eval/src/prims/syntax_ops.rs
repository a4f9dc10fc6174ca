//! Syntax-object primitives available to meta-programs.
//!
//! The profile-specific operations (`make-profile-point`, `annotate-expr`,
//! `profile-query`, …) are installed by the `pgmp` engine, since they close
//! over engine state; this module provides the profile-agnostic syntax
//! operations.

use crate::error::EvalError;
use crate::interp::Interp;
use crate::value::Value;
use pgmp_syntax::{Datum, Syntax, SyntaxBody};
use std::rc::Rc;

fn want_syntax(v: &Value) -> Result<Rc<Syntax>, EvalError> {
    match v {
        Value::Syntax(s) => Ok(s.clone()),
        other => Err(EvalError::type_error("syntax", other)),
    }
}

/// Converts a runtime value into a syntax object in the context of `ctx`:
/// embedded syntax objects pass through untouched, everything else is
/// wrapped with `ctx`'s source and marks.
///
/// This is the engine behind both the `datum->syntax` primitive and the
/// expander's template splicing (`#,` / `#,@`).
pub fn value_to_syntax(ctx: &Syntax, v: &Value) -> Result<Syntax, EvalError> {
    match v {
        Value::Syntax(s) => Ok((**s).clone()),
        Value::Pair(_) | Value::Nil => {
            let mut elems = Vec::new();
            let mut cur = v.clone();
            loop {
                match cur {
                    Value::Nil => {
                        let mut out = Syntax::new(SyntaxBody::List(elems), ctx.source);
                        out.marks = ctx.marks.clone();
                        return Ok(out);
                    }
                    Value::Pair(p) => {
                        elems.push(Rc::new(value_to_syntax(ctx, &p.car.borrow())?));
                        let next = p.cdr.borrow().clone();
                        cur = next;
                    }
                    tail => {
                        // A list-shaped syntax tail splices in: `(a . (b c))`
                        // is `(a b c)`, and `(a . (b . c))` is `(a b . c)`.
                        let mut tail = Rc::new(value_to_syntax(ctx, &tail)?);
                        let body = loop {
                            match &tail.body {
                                SyntaxBody::List(more) => {
                                    elems.extend(more.iter().cloned());
                                    break SyntaxBody::List(elems);
                                }
                                SyntaxBody::Atom(Datum::Nil) => break SyntaxBody::List(elems),
                                SyntaxBody::Improper(more, rest) => {
                                    elems.extend(more.iter().cloned());
                                    tail = rest.clone();
                                }
                                _ => break SyntaxBody::Improper(elems, tail),
                            }
                        };
                        let mut out = Syntax::new(body, ctx.source);
                        out.marks = ctx.marks.clone();
                        return Ok(out);
                    }
                }
            }
        }
        Value::Vector(elems) => {
            let elems: Result<Vec<Rc<Syntax>>, EvalError> = elems
                .borrow()
                .iter()
                .map(|e| value_to_syntax(ctx, e).map(Rc::new))
                .collect();
            let mut out = Syntax::new(SyntaxBody::Vector(elems?), ctx.source);
            out.marks = ctx.marks.clone();
            Ok(out)
        }
        other => {
            let d = other
                .to_datum()
                .ok_or_else(|| EvalError::type_error("datum-convertible value", other))?;
            let mut out = Syntax::atom(d, ctx.source);
            out.marks = ctx.marks.clone();
            Ok(out)
        }
    }
}

/// Converts a syntax object to a value whose leaves are plain data — i.e.
/// `syntax->datum` lifted to values.
fn syntax_to_value(s: &Syntax) -> Value {
    Value::from_datum(&s.to_datum())
}

pub(super) fn install(interp: &mut Interp) {
    interp.define_native("syntax?", 1, Some(1), |_, args| {
        Ok(Value::Bool(matches!(args[0], Value::Syntax(_))))
    });
    interp.define_native("identifier?", 1, Some(1), |_, args| {
        Ok(Value::Bool(match &args[0] {
            Value::Syntax(s) => s.is_identifier(),
            _ => false,
        }))
    });
    interp.define_native("syntax->datum", 1, Some(1), |_, args| {
        let s = want_syntax(&args[0])?;
        Ok(syntax_to_value(&s))
    });
    interp.define_native("datum->syntax", 2, Some(2), |_, args| {
        let ctx = want_syntax(&args[0])?;
        Ok(Value::Syntax(Rc::new(value_to_syntax(&ctx, &args[1])?)))
    });
    // Returns the elements of a list-shaped syntax object as a list of
    // syntax objects, or #f if the syntax is not a proper list.
    interp.define_native("syntax->list", 1, Some(1), |_, args| {
        let s = want_syntax(&args[0])?;
        match s.as_list() {
            Some(elems) => Ok(Value::list(elems.iter().map(|e| Value::Syntax(e.clone())))),
            None => Ok(Value::Bool(false)),
        }
    });
    interp.define_native("syntax-source", 1, Some(1), |_, args| {
        let s = want_syntax(&args[0])?;
        Ok(match s.first_source() {
            Some(src) => Value::Source(src),
            None => Value::Bool(false),
        })
    });
    interp.define_native("source-object?", 1, Some(1), |_, args| {
        Ok(Value::Bool(matches!(args[0], Value::Source(_))))
    });
    interp.define_native("bound-identifier=?", 2, Some(2), |_, args| {
        let a = want_syntax(&args[0])?;
        let b = want_syntax(&args[1])?;
        Ok(Value::Bool(a.bound_identifier_eq(&b)))
    });
    // Approximation of free-identifier=?: treats identifiers as equal when
    // they have the same name. Sufficient for literal matching in the case
    // studies; documented as a simplification in DESIGN.md.
    interp.define_native("free-identifier=?", 2, Some(2), |_, args| {
        let a = want_syntax(&args[0])?;
        let b = want_syntax(&args[1])?;
        Ok(Value::Bool(match (a.as_symbol(), b.as_symbol()) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        }))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prims::install_primitives;
    use pgmp_syntax::{Datum, Mark, SourceObject, Symbol};

    fn with_interp<R>(f: impl FnOnce(&mut Interp) -> R) -> R {
        let mut i = Interp::new();
        install_primitives(&mut i);
        f(&mut i)
    }

    fn call(i: &mut Interp, name: &str, args: Vec<Value>) -> Result<Value, EvalError> {
        let f = i.global(Symbol::intern(name)).cloned().unwrap();
        i.apply(&f, &args)
    }

    fn stx(src: &str) -> Value {
        let forms = pgmp_reader::read_str(src, "t.scm").unwrap();
        Value::Syntax(forms.into_iter().next().unwrap())
    }

    #[test]
    fn syntax_predicates() {
        with_interp(|i| {
            assert_eq!(
                call(i, "syntax?", vec![stx("(a)")]).unwrap().to_string(),
                "#t"
            );
            assert_eq!(
                call(i, "syntax?", vec![Value::Int(1)]).unwrap().to_string(),
                "#f"
            );
            assert_eq!(
                call(i, "identifier?", vec![stx("x")]).unwrap().to_string(),
                "#t"
            );
            assert_eq!(
                call(i, "identifier?", vec![stx("(x)")])
                    .unwrap()
                    .to_string(),
                "#f"
            );
        });
    }

    #[test]
    fn syntax_datum_round_trip() {
        with_interp(|i| {
            let v = call(i, "syntax->datum", vec![stx("(a 1 \"s\")")]).unwrap();
            assert_eq!(v.write_string(), "(a 1 \"s\")");
        });
    }

    #[test]
    fn datum_to_syntax_takes_context() {
        with_interp(|i| {
            let ctx = stx("here");
            let v = call(
                i,
                "datum->syntax",
                vec![ctx, Value::list(vec![Value::Int(1)])],
            )
            .unwrap();
            let Value::Syntax(s) = v else { panic!() };
            assert_eq!(s.to_datum().to_string(), "(1)");
            assert!(s.source.is_some(), "context source propagates");
        });
    }

    #[test]
    fn syntax_to_list_splits() {
        with_interp(|i| {
            let v = call(i, "syntax->list", vec![stx("(a b c)")]).unwrap();
            let elems = v.list_elems().unwrap();
            assert_eq!(elems.len(), 3);
            assert!(matches!(&elems[0], Value::Syntax(s) if s.to_datum().to_string() == "a"));
            assert_eq!(
                call(i, "syntax->list", vec![stx("x")]).unwrap().to_string(),
                "#f"
            );
        });
    }

    #[test]
    fn syntax_source_finds_profile_point() {
        with_interp(|i| {
            let v = call(i, "syntax-source", vec![stx("(f x)")]).unwrap();
            assert!(matches!(v, Value::Source(s) if s.file.as_str() == "t.scm"));
        });
    }

    #[test]
    fn value_to_syntax_passes_embedded_syntax_through() {
        let ctx = Syntax::ident("ctx", Some(SourceObject::new("c.scm", 0, 3)));
        let inner = Rc::new(Syntax::ident(
            "kept",
            Some(SourceObject::new("orig.scm", 5, 9)),
        ));
        let v = Value::list(vec![Value::Syntax(inner.clone()), Value::Int(2)]);
        let out = value_to_syntax(&ctx, &v).unwrap();
        let elems = out.as_list().unwrap();
        assert_eq!(
            elems[0].source, inner.source,
            "embedded syntax keeps its source"
        );
        assert_eq!(
            elems[1].source, ctx.source,
            "fresh atoms take context source"
        );
    }

    #[test]
    fn value_to_syntax_applies_context_marks() {
        let ctx = Syntax::ident("ctx", None).apply_mark(Mark(3));
        let out = value_to_syntax(&ctx, &Value::Sym(Symbol::intern("fresh"))).unwrap();
        assert!(out.marks.contains(Mark(3)));
    }

    #[test]
    fn value_to_syntax_rejects_procedures() {
        with_interp(|i| {
            let plus = i.global(Symbol::intern("+")).cloned().unwrap();
            let ctx = Syntax::atom(Datum::sym("c"), None);
            assert!(value_to_syntax(&ctx, &plus).is_err());
        });
    }
}
