//! Pair and list primitives, including higher-order ones (`map`, `sort`, …).

use super::{runtime_error, want_index, want_list, want_procedure};
use crate::error::EvalError;
use crate::interp::Interp;
use crate::value::{Native, Value};
use std::rc::Rc;

fn want_pair(v: &Value) -> Result<&Rc<crate::value::PairCell>, EvalError> {
    match v {
        Value::Pair(p) => Ok(p),
        other => Err(EvalError::type_error("pair", other)),
    }
}

/// Stable merge sort whose comparator may fail (it is an object-language
/// procedure).
fn merge_sort(
    interp: &mut Interp,
    mut items: Vec<Value>,
    less: &impl Fn(&mut Interp, &Value, &Value) -> Result<bool, EvalError>,
) -> Result<Vec<Value>, EvalError> {
    let n = items.len();
    if n <= 1 {
        return Ok(items);
    }
    let right = items.split_off(n / 2);
    let left = merge_sort(interp, items, less)?;
    let right = merge_sort(interp, right, less)?;
    let mut out = Vec::with_capacity(n);
    let (mut li, mut ri) = (0, 0);
    while li < left.len() && ri < right.len() {
        // Stable: take from the left unless the right is strictly smaller.
        if less(interp, &right[ri], &left[li])? {
            out.push(right[ri].clone());
            ri += 1;
        } else {
            out.push(left[li].clone());
            li += 1;
        }
    }
    out.extend_from_slice(&left[li..]);
    out.extend_from_slice(&right[ri..]);
    Ok(out)
}

pub(super) fn install(interp: &mut Interp) {
    interp.define_native("cons", 2, Some(2), |_, args| {
        Ok(Value::cons(args[0].clone(), args[1].clone()))
    });
    interp.define_native("car", 1, Some(1), |_, args| {
        Ok(want_pair(&args[0])?.car.borrow().clone())
    });
    interp.define_native("cdr", 1, Some(1), |_, args| {
        Ok(want_pair(&args[0])?.cdr.borrow().clone())
    });
    interp.define_native("cadr", 1, Some(1), |_, args| {
        let cdr = want_pair(&args[0])?.cdr.borrow().clone();
        let cadr = want_pair(&cdr)?.car.borrow().clone();
        Ok(cadr)
    });
    interp.define_native("cddr", 1, Some(1), |_, args| {
        let cdr = want_pair(&args[0])?.cdr.borrow().clone();
        let cddr = want_pair(&cdr)?.cdr.borrow().clone();
        Ok(cddr)
    });
    interp.define_native("caddr", 1, Some(1), |_, args| {
        let cdr = want_pair(&args[0])?.cdr.borrow().clone();
        let cddr = want_pair(&cdr)?.cdr.borrow().clone();
        let caddr = want_pair(&cddr)?.car.borrow().clone();
        Ok(caddr)
    });
    interp.define_native("set-car!", 2, Some(2), |_, args| {
        *want_pair(&args[0])?.car.borrow_mut() = args[1].clone();
        Ok(Value::Unspecified)
    });
    interp.define_native("set-cdr!", 2, Some(2), |_, args| {
        *want_pair(&args[0])?.cdr.borrow_mut() = args[1].clone();
        Ok(Value::Unspecified)
    });
    interp.define_native("pair?", 1, Some(1), |_, args| {
        Ok(Value::Bool(matches!(args[0], Value::Pair(_))))
    });
    interp.define_native("null?", 1, Some(1), |_, args| {
        Ok(Value::Bool(matches!(args[0], Value::Nil)))
    });
    interp.define_native("list?", 1, Some(1), |_, args| {
        Ok(Value::Bool(args[0].list_elems().is_some()))
    });
    interp.define_native("list", 0, None, |_, args| {
        Ok(Value::list(args.iter().cloned()))
    });
    interp.define_native("length", 1, Some(1), |_, args| {
        Ok(Value::Int(want_list(&args[0])?.len() as i64))
    });
    interp.define_native("append", 0, None, |_, args| {
        let Some((last, init)) = args.split_last() else {
            return Ok(Value::Nil);
        };
        let mut elems = Vec::new();
        for a in init {
            elems.extend(want_list(a)?);
        }
        let mut acc = last.clone();
        for e in elems.into_iter().rev() {
            acc = Value::cons(e, acc);
        }
        Ok(acc)
    });
    interp.define_native("reverse", 1, Some(1), |_, args| {
        let mut elems = want_list(&args[0])?;
        elems.reverse();
        Ok(Value::list(elems))
    });
    interp.define_native("list-ref", 2, Some(2), |_, args| {
        let elems = want_list(&args[0])?;
        let i = want_index(&args[1])?;
        elems
            .get(i)
            .cloned()
            .ok_or_else(|| runtime_error(format!("list-ref: index {i} out of range")))
    });
    interp.define_native("list-tail", 2, Some(2), |_, args| {
        let elems = want_list(&args[0])?;
        let i = want_index(&args[1])?;
        if i > elems.len() {
            return Err(runtime_error(format!("list-tail: index {i} out of range")));
        }
        Ok(Value::list(elems[i..].to_vec()))
    });
    interp.define_native("last", 1, Some(1), |_, args| {
        want_list(&args[0])?
            .pop()
            .ok_or_else(|| runtime_error("last: empty list"))
    });
    interp.define_native("take", 2, Some(2), |_, args| {
        let elems = want_list(&args[0])?;
        let n = want_index(&args[1])?;
        Ok(Value::list(elems.into_iter().take(n)))
    });
    interp.define_native("list-copy", 1, Some(1), |_, args| {
        Ok(Value::list(want_list(&args[0])?))
    });
    interp.define_native("iota", 1, Some(3), |_, args| {
        let n = want_index(&args[0])? as i64;
        let start = match args.get(1) {
            Some(v) => super::want_int(v)?,
            None => 0,
        };
        let step = match args.get(2) {
            Some(v) => super::want_int(v)?,
            None => 1,
        };
        Ok(Value::list((0..n).map(|i| Value::Int(start + i * step))))
    });

    // Membership and association with the three equality predicates.
    fn mem(args: &[Value], eq: fn(&Value, &Value) -> bool) -> Result<Value, EvalError> {
        let mut cur = args[1].clone();
        loop {
            match cur {
                Value::Nil => return Ok(Value::Bool(false)),
                Value::Pair(p) => {
                    if eq(&p.car.borrow(), &args[0]) {
                        return Ok(Value::Pair(p));
                    }
                    let next = p.cdr.borrow().clone();
                    cur = next;
                }
                other => return Err(EvalError::type_error("proper list", &other)),
            }
        }
    }
    fn ass(args: &[Value], eq: fn(&Value, &Value) -> bool) -> Result<Value, EvalError> {
        for entry in want_list(&args[1])? {
            let p = want_pair(&entry)?;
            if eq(&p.car.borrow(), &args[0]) {
                return Ok(Value::Pair(p.clone()));
            }
        }
        Ok(Value::Bool(false))
    }
    interp.define_native("memq", 2, Some(2), |_, args| mem(args, Value::eqv));
    interp.define_native("memv", 2, Some(2), |_, args| mem(args, Value::eqv));
    interp.define_native("member", 2, Some(2), |_, args| mem(args, Value::equal));
    interp.define_native("assq", 2, Some(2), |_, args| ass(args, Value::eqv));
    interp.define_native("assv", 2, Some(2), |_, args| ass(args, Value::eqv));
    interp.define_native("assoc", 2, Some(2), |_, args| ass(args, Value::equal));

    interp.define_native("map", 2, None, |interp, args| {
        let f = args[0].clone();
        want_procedure(&f)?;
        let lists: Vec<Vec<Value>> = args[1..].iter().map(want_list).collect::<Result<_, _>>()?;
        let n = lists.iter().map(Vec::len).min().unwrap_or(0);
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let row: Vec<Value> = lists.iter().map(|l| l[i].clone()).collect();
            out.push(interp.apply(&f, &row)?);
        }
        Ok(Value::list(out))
    });
    interp.define_native("for-each", 2, None, |interp, args| {
        let f = args[0].clone();
        want_procedure(&f)?;
        let lists: Vec<Vec<Value>> = args[1..].iter().map(want_list).collect::<Result<_, _>>()?;
        let n = lists.iter().map(Vec::len).min().unwrap_or(0);
        for i in 0..n {
            let row: Vec<Value> = lists.iter().map(|l| l[i].clone()).collect();
            interp.apply(&f, &row)?;
        }
        Ok(Value::Unspecified)
    });
    interp.define_native("filter", 2, Some(2), |interp, args| {
        let f = args[0].clone();
        want_procedure(&f)?;
        let mut out = Vec::new();
        for e in want_list(&args[1])? {
            if interp.apply(&f, std::slice::from_ref(&e))?.is_truthy() {
                out.push(e);
            }
        }
        Ok(Value::list(out))
    });
    interp.define_native("fold-left", 3, Some(3), |interp, args| {
        let f = args[0].clone();
        want_procedure(&f)?;
        let mut acc = args[1].clone();
        for e in want_list(&args[2])? {
            acc = interp.apply(&f, &[acc, e])?;
        }
        Ok(acc)
    });
    interp.define_native("fold-right", 3, Some(3), |interp, args| {
        let f = args[0].clone();
        want_procedure(&f)?;
        let mut acc = args[1].clone();
        for e in want_list(&args[2])?.into_iter().rev() {
            acc = interp.apply(&f, &[e, acc])?;
        }
        Ok(acc)
    });
    // (sort lst less?) — stable.
    interp.define_native("sort", 2, Some(2), |interp, args| {
        let items = want_list(&args[0])?;
        let less = args[1].clone();
        want_procedure(&less)?;
        let sorted = merge_sort(interp, items, &|interp, a, b| {
            Ok(interp.apply(&less, &[a.clone(), b.clone()])?.is_truthy())
        })?;
        Ok(Value::list(sorted))
    });
    // (sort-by lst less? key) — our spelling of Racket's `sort … #:key`.
    interp.define_native("sort-by", 3, Some(3), |interp, args| {
        let items = want_list(&args[0])?;
        let less = args[1].clone();
        let key = args[2].clone();
        want_procedure(&less)?;
        want_procedure(&key)?;
        let sorted = merge_sort(interp, items, &|interp, a, b| {
            let ka = interp.apply(&key, std::slice::from_ref(a))?;
            let kb = interp.apply(&key, std::slice::from_ref(b))?;
            Ok(interp.apply(&less, &[ka, kb])?.is_truthy())
        })?;
        Ok(Value::list(sorted))
    });
    // (curry f a …) — partial application, as used in Figure 6.
    interp.define_native("curry", 1, None, |_, args| {
        let f = want_procedure(&args[0])?.clone();
        let pre = args[1..].to_vec();
        let native = Native {
            name: "curried",
            min_args: 0,
            max_args: None,
            quick: None,
            f: Box::new(move |interp: &mut Interp, more: &[Value]| {
                let mut all = pre.clone();
                all.extend_from_slice(more);
                interp.apply(&f, &all)
            }),
        };
        Ok(Value::Native(Rc::new(native)))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prims::install_primitives;
    use pgmp_syntax::Symbol;

    fn with_interp<R>(f: impl FnOnce(&mut Interp) -> R) -> R {
        let mut i = Interp::new();
        install_primitives(&mut i);
        f(&mut i)
    }

    fn call(i: &mut Interp, name: &str, args: Vec<Value>) -> Result<Value, EvalError> {
        let f = i.global(Symbol::intern(name)).cloned().unwrap();
        i.apply(&f, &args)
    }

    fn ints(ns: &[i64]) -> Value {
        Value::list(ns.iter().map(|n| Value::Int(*n)))
    }

    #[test]
    fn cons_car_cdr() {
        with_interp(|i| {
            let p = call(i, "cons", vec![Value::Int(1), Value::Int(2)]).unwrap();
            assert_eq!(p.to_string(), "(1 . 2)");
            assert_eq!(call(i, "car", vec![p.clone()]).unwrap().to_string(), "1");
            assert_eq!(call(i, "cdr", vec![p]).unwrap().to_string(), "2");
        });
    }

    #[test]
    fn mutation() {
        with_interp(|i| {
            let p = call(i, "cons", vec![Value::Int(1), Value::Nil]).unwrap();
            call(i, "set-car!", vec![p.clone(), Value::Int(9)]).unwrap();
            assert_eq!(p.to_string(), "(9)");
        });
    }

    #[test]
    fn append_and_reverse() {
        with_interp(|i| {
            let v = call(i, "append", vec![ints(&[1, 2]), ints(&[3])]).unwrap();
            assert_eq!(v.to_string(), "(1 2 3)");
            let r = call(i, "reverse", vec![ints(&[1, 2, 3])]).unwrap();
            assert_eq!(r.to_string(), "(3 2 1)");
            assert_eq!(call(i, "append", vec![]).unwrap().to_string(), "()");
        });
    }

    #[test]
    fn membership() {
        with_interp(|i| {
            let v = call(i, "memv", vec![Value::Int(2), ints(&[1, 2, 3])]).unwrap();
            assert_eq!(v.to_string(), "(2 3)");
            let v = call(i, "memv", vec![Value::Int(9), ints(&[1, 2, 3])]).unwrap();
            assert_eq!(v.to_string(), "#f");
            let lst = Value::list(vec![Value::string("a"), Value::string("b")]);
            let v = call(i, "member", vec![Value::string("b"), lst]).unwrap();
            assert_eq!(v.to_string(), "(b)");
        });
    }

    #[test]
    fn assoc_family() {
        with_interp(|i| {
            let alist = Value::list(vec![
                Value::cons(Value::Sym(Symbol::intern("a")), Value::Int(1)),
                Value::cons(Value::Sym(Symbol::intern("b")), Value::Int(2)),
            ]);
            let hit = call(
                i,
                "assq",
                vec![Value::Sym(Symbol::intern("b")), alist.clone()],
            )
            .unwrap();
            assert_eq!(hit.to_string(), "(b . 2)");
            let miss = call(i, "assq", vec![Value::Sym(Symbol::intern("z")), alist]).unwrap();
            assert_eq!(miss.to_string(), "#f");
        });
    }

    #[test]
    fn map_over_two_lists_stops_at_shorter() {
        with_interp(|i| {
            let plus = i.global(Symbol::intern("+")).cloned().unwrap();
            let v = call(i, "map", vec![plus, ints(&[1, 2, 3]), ints(&[10, 20])]).unwrap();
            assert_eq!(v.to_string(), "(11 22)");
        });
    }

    #[test]
    fn sort_is_stable_and_ordered() {
        with_interp(|i| {
            let less = i.global(Symbol::intern("<")).cloned().unwrap();
            let v = call(i, "sort", vec![ints(&[3, 1, 2, 1]), less]).unwrap();
            assert_eq!(v.to_string(), "(1 1 2 3)");
        });
    }

    #[test]
    fn sort_by_key() {
        with_interp(|i| {
            let gt = i.global(Symbol::intern(">")).cloned().unwrap();
            let abs = i.global(Symbol::intern("abs")).cloned().unwrap();
            let v = call(i, "sort-by", vec![ints(&[-1, 3, -2]), gt, abs]).unwrap();
            assert_eq!(v.to_string(), "(3 -2 -1)");
        });
    }

    #[test]
    fn curry_partial_application() {
        with_interp(|i| {
            let plus = i.global(Symbol::intern("+")).cloned().unwrap();
            let add10 = call(i, "curry", vec![plus, Value::Int(10)]).unwrap();
            let v = i.apply(&add10, &[Value::Int(5)]).unwrap();
            assert_eq!(v.to_string(), "15");
        });
    }

    #[test]
    fn iota_and_take() {
        with_interp(|i| {
            assert_eq!(
                call(i, "iota", vec![Value::Int(3)]).unwrap().to_string(),
                "(0 1 2)"
            );
            assert_eq!(
                call(i, "iota", vec![Value::Int(3), Value::Int(5), Value::Int(2)])
                    .unwrap()
                    .to_string(),
                "(5 7 9)"
            );
            assert_eq!(
                call(i, "take", vec![ints(&[1, 2, 3]), Value::Int(2)])
                    .unwrap()
                    .to_string(),
                "(1 2)"
            );
        });
    }

    #[test]
    fn errors_on_improper_input() {
        with_interp(|i| {
            assert!(call(i, "car", vec![Value::Nil]).is_err());
            assert!(call(i, "length", vec![Value::Int(1)]).is_err());
            let improper = Value::cons(Value::Int(1), Value::Int(2));
            assert!(call(i, "length", vec![improper]).is_err());
            assert!(call(i, "list-ref", vec![ints(&[1]), Value::Int(5)]).is_err());
            assert!(call(i, "list-ref", vec![ints(&[1]), Value::Int(-1)]).is_err());
        });
    }
}
