//! Runtime support natives for expanded code.
//!
//! Compiled `syntax-case` and template code calls these `%`-prefixed
//! natives. They are installed under names no reader-produced identifier
//! can shadow accidentally (user code *can* name them explicitly, which is
//! occasionally useful in tests).

use pgmp_eval::{value_to_syntax, EvalError, Interp, Value};
use std::rc::Rc;

fn want_syntax(v: &Value) -> Result<Rc<pgmp_syntax::Syntax>, EvalError> {
    match v {
        Value::Syntax(s) => Ok(s.clone()),
        other => Err(EvalError::type_error("syntax", other)),
    }
}

/// Installs the expander's support natives into `interp`.
///
/// Required in any interpreter that will run code produced by
/// [`crate::Expander`] — both the expander's own meta interpreter (done
/// automatically) and the object-program interpreter (done by the engine).
pub fn install_expander_support(interp: &mut Interp) {
    // (%value->syntax ctx v) -> syntax ; template finalization
    interp.define_native("%value->syntax", 2, Some(2), |_, args| {
        let ctx = want_syntax(&args[0])?;
        Ok(Value::Syntax(Rc::new(value_to_syntax(&ctx, &args[1])?)))
    });
    // (%list v ...) ; shadow-proof `list`
    interp.define_native("%list", 0, None, |_, args| {
        Ok(Value::list(args.iter().cloned()))
    });
    // (%append l ... tail) ; shadow-proof `append`, last argument passed through
    interp.define_native("%append", 0, None, |_, args| {
        let Some((last, init)) = args.split_last() else {
            return Ok(Value::Nil);
        };
        let mut elems = Vec::new();
        for a in init {
            elems.extend(
                a.list_elems()
                    .ok_or_else(|| EvalError::type_error("proper list", a))?,
            );
        }
        let mut acc = last.clone();
        for e in elems.into_iter().rev() {
            acc = Value::cons(e, acc);
        }
        Ok(acc)
    });
    // (%map f l ...) ; shadow-proof zipping map for ellipsis templates
    interp.define_native("%map", 2, None, |interp, args| {
        let f = args[0].clone();
        let lists: Vec<Vec<Value>> = args[1..]
            .iter()
            .map(|l| {
                l.list_elems()
                    .ok_or_else(|| EvalError::type_error("proper list", l))
            })
            .collect::<Result<_, _>>()?;
        let n = lists.iter().map(Vec::len).min().unwrap_or(0);
        if let Some(longest) = lists.iter().map(Vec::len).max() {
            if longest != n {
                return Err(EvalError::new(
                    pgmp_eval::EvalErrorKind::Runtime,
                    "ellipsis template: pattern variables matched different lengths",
                ));
            }
        }
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let row: Vec<Value> = lists.iter().map(|l| l[i].clone()).collect();
            out.push(interp.apply(&f, &row)?);
        }
        Ok(Value::list(out))
    });
    // (%vector-ref v n) ; shadow-proof vector-ref for match results
    interp.define_native("%vector-ref", 2, Some(2), |_, args| {
        let Value::Vector(v) = &args[0] else {
            return Err(EvalError::type_error("vector", &args[0]));
        };
        let Value::Int(i) = &args[1] else {
            return Err(EvalError::type_error("integer", &args[1]));
        };
        let v = v.borrow();
        v.get(*i as usize).cloned().ok_or_else(|| {
            EvalError::new(
                pgmp_eval::EvalErrorKind::Runtime,
                format!("%vector-ref: index {i} out of range"),
            )
        })
    });
    // (%case-memv key '(k ...)) ; membership test for the built-in `case`
    interp.define_native("%case-memv", 2, Some(2), |_, args| {
        let elems = args[1]
            .list_elems()
            .ok_or_else(|| EvalError::type_error("list", &args[1]))?;
        Ok(Value::Bool(elems.iter().any(|k| k.eqv(&args[0]))))
    });
    // (%no-clause-matched stx) ; syntax-case fall-through
    interp.define_native("%no-clause-matched", 1, Some(1), |_, args| {
        let where_ = match &args[0] {
            Value::Syntax(s) => format!("{}", s.to_datum()),
            other => other.to_string(),
        };
        Err(EvalError::new(
            pgmp_eval::EvalErrorKind::Runtime,
            format!("syntax-case: no clause matched {where_}"),
        ))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgmp_eval::install_primitives;
    use pgmp_syntax::Symbol;

    fn with_interp<R>(f: impl FnOnce(&mut Interp) -> R) -> R {
        let mut i = Interp::new();
        install_primitives(&mut i);
        install_expander_support(&mut i);
        f(&mut i)
    }

    fn call(i: &mut Interp, name: &str, args: Vec<Value>) -> Result<Value, EvalError> {
        let f = i.global(Symbol::intern(name)).cloned().unwrap();
        i.apply(&f, &args)
    }

    #[test]
    fn percent_list_and_append() {
        with_interp(|i| {
            let l = call(i, "%list", vec![Value::Int(1), Value::Int(2)]).unwrap();
            assert_eq!(l.to_string(), "(1 2)");
            let a = call(i, "%append", vec![l, Value::list(vec![Value::Int(3)])]).unwrap();
            assert_eq!(a.to_string(), "(1 2 3)");
        });
    }

    #[test]
    fn percent_map_requires_equal_lengths() {
        with_interp(|i| {
            let id = {
                let f = i.global(Symbol::intern("%list")).cloned().unwrap();
                f
            };
            let l1 = Value::list(vec![Value::Int(1), Value::Int(2)]);
            let l2 = Value::list(vec![Value::Int(3)]);
            assert!(call(i, "%map", vec![id, l1, l2]).is_err());
        });
    }

    #[test]
    fn no_clause_matched_errors() {
        with_interp(|i| {
            assert!(call(i, "%no-clause-matched", vec![Value::Int(1)]).is_err());
        });
    }
}
