//! Vector primitives.

use super::{runtime_error, want_index, want_list, want_procedure};
use crate::error::EvalError;
use crate::interp::Interp;
use crate::value::Value;
use std::cell::RefCell;
use std::rc::Rc;

fn want_vector(v: &Value) -> Result<&RefCell<Vec<Value>>, EvalError> {
    match v {
        Value::Vector(v) => Ok(v),
        other => Err(EvalError::type_error("vector", other)),
    }
}

pub(super) fn install(interp: &mut Interp) {
    interp.define_native("vector?", 1, Some(1), |_, args| {
        Ok(Value::Bool(matches!(args[0], Value::Vector(_))))
    });
    interp.define_native("vector", 0, None, |_, args| {
        Ok(Value::Vector(Rc::new(RefCell::new(args.to_vec()))))
    });
    interp.define_native("make-vector", 1, Some(2), |_, args| {
        let n = want_index(&args[0])?;
        let fill = args.get(1).cloned().unwrap_or(Value::Int(0));
        Ok(Value::Vector(Rc::new(RefCell::new(vec![fill; n]))))
    });
    interp.define_native("vector-length", 1, Some(1), |_, args| {
        Ok(Value::Int(want_vector(&args[0])?.borrow().len() as i64))
    });
    interp.define_native("vector-ref", 2, Some(2), |_, args| {
        let v = want_vector(&args[0])?;
        let i = want_index(&args[1])?;
        let v = v.borrow();
        v.get(i).cloned().ok_or_else(|| {
            runtime_error(format!(
                "vector-ref: index {i} out of range for length {}",
                v.len()
            ))
        })
    });
    interp.define_native("vector-set!", 3, Some(3), |_, args| {
        let v = want_vector(&args[0])?;
        let i = want_index(&args[1])?;
        let mut v = v.borrow_mut();
        let len = v.len();
        *v.get_mut(i).ok_or_else(|| {
            runtime_error(format!(
                "vector-set!: index {i} out of range for length {len}"
            ))
        })? = args[2].clone();
        Ok(Value::Unspecified)
    });
    interp.define_native("vector-fill!", 2, Some(2), |_, args| {
        let v = want_vector(&args[0])?;
        for slot in v.borrow_mut().iter_mut() {
            *slot = args[1].clone();
        }
        Ok(Value::Unspecified)
    });
    interp.define_native("vector-copy", 1, Some(1), |_, args| {
        let v = want_vector(&args[0])?;
        let copy = v.borrow().clone();
        Ok(Value::Vector(Rc::new(RefCell::new(copy))))
    });
    interp.define_native("vector->list", 1, Some(1), |_, args| {
        Ok(Value::list(want_vector(&args[0])?.borrow().clone()))
    });
    interp.define_native("list->vector", 1, Some(1), |_, args| {
        Ok(Value::Vector(Rc::new(RefCell::new(want_list(&args[0])?))))
    });
    interp.define_native("vector-map", 2, Some(2), |interp, args| {
        let f = args[0].clone();
        want_procedure(&f)?;
        let v = want_vector(&args[1])?;
        let snapshot = v.borrow().clone();
        let mut out = Vec::with_capacity(snapshot.len());
        for e in snapshot {
            out.push(interp.apply(&f, &[e])?);
        }
        Ok(Value::Vector(Rc::new(RefCell::new(out))))
    });
    interp.define_native("vector-for-each", 2, Some(2), |interp, args| {
        let f = args[0].clone();
        want_procedure(&f)?;
        let v = want_vector(&args[1])?;
        let snapshot = v.borrow().clone();
        for e in snapshot {
            interp.apply(&f, &[e])?;
        }
        Ok(Value::Unspecified)
    });
}

#[cfg(test)]
mod tests {
    use crate::error::EvalError;
    use crate::interp::Interp;
    use crate::prims::install_primitives;
    use crate::value::Value;
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

    #[test]
    fn construct_ref_set() {
        with_interp(|i| {
            let v = call(i, "make-vector", vec![Value::Int(3), Value::Int(7)]).unwrap();
            assert_eq!(v.to_string(), "#(7 7 7)");
            call(
                i,
                "vector-set!",
                vec![v.clone(), Value::Int(1), Value::Int(9)],
            )
            .unwrap();
            assert_eq!(
                call(i, "vector-ref", vec![v.clone(), Value::Int(1)])
                    .unwrap()
                    .to_string(),
                "9"
            );
            assert_eq!(call(i, "vector-length", vec![v]).unwrap().to_string(), "3");
        });
    }

    #[test]
    fn list_vector_round_trip() {
        with_interp(|i| {
            let lst = Value::list(vec![Value::Int(1), Value::Int(2)]);
            let v = call(i, "list->vector", vec![lst]).unwrap();
            assert_eq!(v.to_string(), "#(1 2)");
            let back = call(i, "vector->list", vec![v]).unwrap();
            assert_eq!(back.to_string(), "(1 2)");
        });
    }

    #[test]
    fn vector_map_applies() {
        with_interp(|i| {
            let v = call(i, "vector", vec![Value::Int(1), Value::Int(2)]).unwrap();
            let add1 = i.global(Symbol::intern("add1")).cloned().unwrap();
            let mapped = call(i, "vector-map", vec![add1, v]).unwrap();
            assert_eq!(mapped.to_string(), "#(2 3)");
        });
    }

    #[test]
    fn out_of_range_errors() {
        with_interp(|i| {
            let v = call(i, "vector", vec![Value::Int(1)]).unwrap();
            assert!(call(i, "vector-ref", vec![v.clone(), Value::Int(5)]).is_err());
            assert!(call(i, "vector-set!", vec![v, Value::Int(5), Value::Int(0)]).is_err());
        });
    }

    #[test]
    fn copy_is_independent() {
        with_interp(|i| {
            let v = call(i, "vector", vec![Value::Int(1)]).unwrap();
            let c = call(i, "vector-copy", vec![v.clone()]).unwrap();
            call(i, "vector-set!", vec![v, Value::Int(0), Value::Int(9)]).unwrap();
            assert_eq!(c.to_string(), "#(1)");
        });
    }
}
