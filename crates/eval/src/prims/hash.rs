//! Hashtable primitives (Chez-style names, as used in Figure 13).

use crate::error::EvalError;
use crate::interp::Interp;
use crate::value::{HashKey, Value};
use pgmp_syntax::FnvHashMap;
use std::cell::RefCell;
use std::rc::Rc;

fn want_hash(v: &Value) -> Result<&RefCell<FnvHashMap<HashKey, Value>>, EvalError> {
    match v {
        Value::Hash(h) => Ok(h),
        other => Err(EvalError::type_error("hashtable", other)),
    }
}

fn want_key(v: &Value) -> Result<HashKey, EvalError> {
    HashKey::from_value(v).ok_or_else(|| {
        EvalError::type_error("hashable key (symbol, number, char, bool, string)", v)
    })
}

pub(super) fn install(interp: &mut Interp) {
    for name in [
        "make-eq-hashtable",
        "make-equal-hashtable",
        "make-hashtable",
    ] {
        interp.define_native(name, 0, Some(2), |_, _| {
            Ok(Value::Hash(Rc::new(RefCell::new(FnvHashMap::default()))))
        });
    }
    interp.define_native("hashtable?", 1, Some(1), |_, args| {
        Ok(Value::Bool(matches!(args[0], Value::Hash(_))))
    });
    interp.define_native("hashtable-set!", 3, Some(3), |_, args| {
        let h = want_hash(&args[0])?;
        let k = want_key(&args[1])?;
        h.borrow_mut().insert(k, args[2].clone());
        Ok(Value::Unspecified)
    });
    // (hashtable-ref ht key default)
    interp.define_native("hashtable-ref", 2, Some(3), |_, args| {
        let h = want_hash(&args[0])?;
        let k = want_key(&args[1])?;
        let default = args.get(2).cloned().unwrap_or(Value::Bool(false));
        let v = h.borrow().get(&k).cloned().unwrap_or(default);
        Ok(v)
    });
    interp.define_native("hashtable-contains?", 2, Some(2), |_, args| {
        let h = want_hash(&args[0])?;
        let k = want_key(&args[1])?;
        let present = h.borrow().contains_key(&k);
        Ok(Value::Bool(present))
    });
    interp.define_native("hashtable-delete!", 2, Some(2), |_, args| {
        let h = want_hash(&args[0])?;
        let k = want_key(&args[1])?;
        h.borrow_mut().remove(&k);
        Ok(Value::Unspecified)
    });
    interp.define_native("hashtable-size", 1, Some(1), |_, args| {
        Ok(Value::Int(want_hash(&args[0])?.borrow().len() as i64))
    });
    interp.define_native("hashtable-keys", 1, Some(1), |_, args| {
        let h = want_hash(&args[0])?;
        let mut keys: Vec<Value> = h.borrow().keys().map(HashKey::to_value).collect();
        keys.sort_by_key(|k| k.write_string());
        Ok(Value::list(keys))
    });
    interp.define_native("hashtable->alist", 1, Some(1), |_, args| {
        let h = want_hash(&args[0])?;
        let mut entries: Vec<(String, Value)> = h
            .borrow()
            .iter()
            .map(|(k, v)| {
                (
                    k.to_value().write_string(),
                    Value::cons(k.to_value(), v.clone()),
                )
            })
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(Value::list(entries.into_iter().map(|(_, v)| v)))
    });
    // (hashtable-update! ht key proc default)
    interp.define_native("hashtable-update!", 4, Some(4), |interp, args| {
        let h = want_hash(&args[0])?;
        let k = want_key(&args[1])?;
        let proc = args[2].clone();
        let cur = h
            .borrow()
            .get(&k)
            .cloned()
            .unwrap_or_else(|| args[3].clone());
        let new = interp.apply(&proc, &[cur])?;
        h.borrow_mut().insert(k, new);
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

    fn sym(s: &str) -> Value {
        Value::Sym(Symbol::intern(s))
    }

    #[test]
    fn set_ref_contains_delete() {
        with_interp(|i| {
            let h = call(i, "make-eq-hashtable", vec![]).unwrap();
            call(
                i,
                "hashtable-set!",
                vec![h.clone(), sym("car"), Value::Int(1)],
            )
            .unwrap();
            assert_eq!(
                call(
                    i,
                    "hashtable-ref",
                    vec![h.clone(), sym("car"), Value::Int(0)]
                )
                .unwrap()
                .to_string(),
                "1"
            );
            assert_eq!(
                call(
                    i,
                    "hashtable-ref",
                    vec![h.clone(), sym("cdr"), Value::Int(0)]
                )
                .unwrap()
                .to_string(),
                "0"
            );
            assert_eq!(
                call(i, "hashtable-contains?", vec![h.clone(), sym("car")])
                    .unwrap()
                    .to_string(),
                "#t"
            );
            call(i, "hashtable-delete!", vec![h.clone(), sym("car")]).unwrap();
            assert_eq!(
                call(i, "hashtable-contains?", vec![h.clone(), sym("car")])
                    .unwrap()
                    .to_string(),
                "#f"
            );
            assert_eq!(call(i, "hashtable-size", vec![h]).unwrap().to_string(), "0");
        });
    }

    #[test]
    fn string_keys_are_copied() {
        with_interp(|i| {
            let h = call(i, "make-equal-hashtable", vec![]).unwrap();
            let key = Value::string("k");
            call(
                i,
                "hashtable-set!",
                vec![h.clone(), key.clone(), Value::Int(1)],
            )
            .unwrap();
            // Mutating the original string value must not orphan the entry.
            if let Value::Str(s) = &key {
                s.borrow_mut().push('!');
            }
            assert_eq!(
                call(
                    i,
                    "hashtable-ref",
                    vec![h, Value::string("k"), Value::Int(0)]
                )
                .unwrap()
                .to_string(),
                "1"
            );
        });
    }

    #[test]
    fn keys_listing_is_deterministic() {
        with_interp(|i| {
            let h = call(i, "make-eq-hashtable", vec![]).unwrap();
            for k in ["b", "a", "c"] {
                call(i, "hashtable-set!", vec![h.clone(), sym(k), Value::Int(0)]).unwrap();
            }
            assert_eq!(
                call(i, "hashtable-keys", vec![h]).unwrap().to_string(),
                "(a b c)"
            );
        });
    }

    #[test]
    fn update_with_procedure() {
        with_interp(|i| {
            let h = call(i, "make-eq-hashtable", vec![]).unwrap();
            let add1 = i.global(Symbol::intern("add1")).cloned().unwrap();
            call(
                i,
                "hashtable-update!",
                vec![h.clone(), sym("n"), add1.clone(), Value::Int(0)],
            )
            .unwrap();
            call(
                i,
                "hashtable-update!",
                vec![h.clone(), sym("n"), add1, Value::Int(0)],
            )
            .unwrap();
            assert_eq!(
                call(i, "hashtable-ref", vec![h, sym("n"), Value::Int(-1)])
                    .unwrap()
                    .to_string(),
                "2"
            );
        });
    }

    #[test]
    fn unhashable_keys_rejected() {
        with_interp(|i| {
            let h = call(i, "make-eq-hashtable", vec![]).unwrap();
            let key = Value::list(vec![Value::Int(1)]);
            assert!(call(i, "hashtable-set!", vec![h, key, Value::Int(1)]).is_err());
        });
    }
}
