//! String, character, and symbol primitives.

use super::{runtime_error, want_char, want_index, want_string, want_symbol};
use crate::interp::Interp;
use crate::value::Value;
use pgmp_syntax::Symbol;

pub(super) fn install(interp: &mut Interp) {
    interp.define_native("string?", 1, Some(1), |_, args| {
        Ok(Value::Bool(matches!(args[0], Value::Str(_))))
    });
    interp.define_native("string-length", 1, Some(1), |_, args| {
        Ok(Value::Int(want_string(&args[0])?.chars().count() as i64))
    });
    interp.define_native("string-ref", 2, Some(2), |_, args| {
        let s = want_string(&args[0])?;
        let i = want_index(&args[1])?;
        s.chars()
            .nth(i)
            .map(Value::Char)
            .ok_or_else(|| runtime_error(format!("string-ref: index {i} out of range")))
    });
    interp.define_native("substring", 3, Some(3), |_, args| {
        let s = want_string(&args[0])?;
        let start = want_index(&args[1])?;
        let end = want_index(&args[2])?;
        let chars: Vec<char> = s.chars().collect();
        if start > end || end > chars.len() {
            return Err(runtime_error(format!(
                "substring: bad range {start}..{end} for length {}",
                chars.len()
            )));
        }
        Ok(Value::string(&chars[start..end].iter().collect::<String>()))
    });
    interp.define_native("string-append", 0, None, |_, args| {
        let mut out = String::new();
        for a in args {
            out.push_str(&want_string(a)?);
        }
        Ok(Value::string(&out))
    });
    interp.define_native("string=?", 2, None, |_, args| {
        let first = want_string(&args[0])?;
        for a in &args[1..] {
            if want_string(a)? != first {
                return Ok(Value::Bool(false));
            }
        }
        Ok(Value::Bool(true))
    });
    interp.define_native("string<?", 2, Some(2), |_, args| {
        Ok(Value::Bool(want_string(&args[0])? < want_string(&args[1])?))
    });
    interp.define_native("string-contains?", 2, Some(2), |_, args| {
        Ok(Value::Bool(
            want_string(&args[0])?.contains(&want_string(&args[1])?),
        ))
    });
    interp.define_native("string-upcase", 1, Some(1), |_, args| {
        Ok(Value::string(&want_string(&args[0])?.to_uppercase()))
    });
    interp.define_native("string-downcase", 1, Some(1), |_, args| {
        Ok(Value::string(&want_string(&args[0])?.to_lowercase()))
    });
    interp.define_native("string->list", 1, Some(1), |_, args| {
        Ok(Value::list(want_string(&args[0])?.chars().map(Value::Char)))
    });
    interp.define_native("list->string", 1, Some(1), |_, args| {
        let mut out = String::new();
        for c in super::want_list(&args[0])? {
            out.push(want_char(&c)?);
        }
        Ok(Value::string(&out))
    });
    interp.define_native("string-copy", 1, Some(1), |_, args| {
        Ok(Value::string(&want_string(&args[0])?))
    });
    interp.define_native("make-string", 1, Some(2), |_, args| {
        let n = want_index(&args[0])?;
        let c = match args.get(1) {
            Some(v) => want_char(v)?,
            None => ' ',
        };
        Ok(Value::string(&c.to_string().repeat(n)))
    });
    interp.define_native("string", 0, None, |_, args| {
        let mut out = String::new();
        for a in args {
            out.push(want_char(a)?);
        }
        Ok(Value::string(&out))
    });
    interp.define_native("symbol->string", 1, Some(1), |_, args| {
        Ok(Value::string(want_symbol(&args[0])?.as_str()))
    });
    interp.define_native("string->symbol", 1, Some(1), |_, args| {
        Ok(Value::Sym(Symbol::intern(&want_string(&args[0])?)))
    });
    interp.define_native("gensym", 0, Some(1), |_, args| {
        let base = match args.first() {
            Some(Value::Str(s)) => s.borrow().clone(),
            Some(Value::Sym(s)) => s.as_str().to_owned(),
            Some(other) => {
                return Err(crate::error::EvalError::type_error(
                    "string or symbol",
                    other,
                ))
            }
            None => "g".to_owned(),
        };
        Ok(Value::Sym(Symbol::gensym(&base)))
    });

    interp.define_native("char?", 1, Some(1), |_, args| {
        Ok(Value::Bool(matches!(args[0], Value::Char(_))))
    });
    interp.define_native("char=?", 2, None, |_, args| {
        let first = want_char(&args[0])?;
        for a in &args[1..] {
            if want_char(a)? != first {
                return Ok(Value::Bool(false));
            }
        }
        Ok(Value::Bool(true))
    });
    interp.define_native("char<?", 2, Some(2), |_, args| {
        Ok(Value::Bool(want_char(&args[0])? < want_char(&args[1])?))
    });
    interp.define_native("char->integer", 1, Some(1), |_, args| {
        Ok(Value::Int(want_char(&args[0])? as i64))
    });
    interp.define_native("integer->char", 1, Some(1), |_, args| {
        let n = super::want_int(&args[0])?;
        u32::try_from(n)
            .ok()
            .and_then(char::from_u32)
            .map(Value::Char)
            .ok_or_else(|| runtime_error(format!("integer->char: {n} is not a scalar value")))
    });
    interp.define_native("char-alphabetic?", 1, Some(1), |_, args| {
        Ok(Value::Bool(want_char(&args[0])?.is_alphabetic()))
    });
    interp.define_native("char-numeric?", 1, Some(1), |_, args| {
        Ok(Value::Bool(want_char(&args[0])?.is_numeric()))
    });
    interp.define_native("char-whitespace?", 1, Some(1), |_, args| {
        Ok(Value::Bool(want_char(&args[0])?.is_whitespace()))
    });
    interp.define_native("char-upcase", 1, Some(1), |_, args| {
        Ok(Value::Char(want_char(&args[0])?.to_ascii_uppercase()))
    });
    interp.define_native("char-downcase", 1, Some(1), |_, args| {
        Ok(Value::Char(want_char(&args[0])?.to_ascii_lowercase()))
    });
}

#[cfg(test)]
mod tests {
    use crate::error::EvalError;
    use crate::interp::Interp;
    use crate::prims::install_primitives;
    use crate::value::Value;
    use pgmp_syntax::Symbol;

    fn call(name: &str, args: Vec<Value>) -> Result<Value, EvalError> {
        let mut i = Interp::new();
        install_primitives(&mut i);
        let f = i.global(Symbol::intern(name)).cloned().unwrap();
        i.apply(&f, &args)
    }

    #[test]
    fn basic_string_ops() {
        assert_eq!(
            call("string-length", vec![Value::string("abc")])
                .unwrap()
                .to_string(),
            "3"
        );
        assert_eq!(
            call(
                "string-append",
                vec![Value::string("ab"), Value::string("cd")]
            )
            .unwrap()
            .to_string(),
            "abcd"
        );
        assert_eq!(
            call(
                "substring",
                vec![Value::string("hello"), Value::Int(1), Value::Int(3)]
            )
            .unwrap()
            .to_string(),
            "el"
        );
        assert!(call(
            "substring",
            vec![Value::string("hi"), Value::Int(2), Value::Int(1)]
        )
        .is_err());
    }

    #[test]
    fn string_contains_for_subject_contains() {
        // The running example's `subject-contains` is built on this.
        assert_eq!(
            call(
                "string-contains?",
                vec![Value::string("Re: PLDI paper"), Value::string("PLDI")]
            )
            .unwrap()
            .to_string(),
            "#t"
        );
        assert_eq!(
            call(
                "string-contains?",
                vec![Value::string("spam"), Value::string("PLDI")]
            )
            .unwrap()
            .to_string(),
            "#f"
        );
    }

    #[test]
    fn symbol_string_round_trip() {
        let v = call("symbol->string", vec![Value::Sym(Symbol::intern("hi"))]).unwrap();
        assert_eq!(v.to_string(), "hi");
        let v = call("string->symbol", vec![Value::string("hi")]).unwrap();
        assert!(matches!(v, Value::Sym(s) if s.as_str() == "hi"));
    }

    #[test]
    fn char_classification() {
        assert_eq!(
            call("char-numeric?", vec![Value::Char('7')])
                .unwrap()
                .to_string(),
            "#t"
        );
        assert_eq!(
            call("char-alphabetic?", vec![Value::Char('7')])
                .unwrap()
                .to_string(),
            "#f"
        );
        assert_eq!(
            call("char-whitespace?", vec![Value::Char(' ')])
                .unwrap()
                .to_string(),
            "#t"
        );
        assert_eq!(
            call("char->integer", vec![Value::Char('A')])
                .unwrap()
                .to_string(),
            "65"
        );
        assert_eq!(
            call("integer->char", vec![Value::Int(65)])
                .unwrap()
                .write_string(),
            "#\\A"
        );
        assert!(call("integer->char", vec![Value::Int(-1)]).is_err());
    }

    #[test]
    fn gensym_produces_fresh_symbols() {
        let a = call("gensym", vec![]).unwrap();
        let b = call("gensym", vec![]).unwrap();
        assert!(!a.eqv(&b));
    }

    #[test]
    fn unicode_string_indexing_is_char_based() {
        assert_eq!(
            call("string-length", vec![Value::string("héllo")])
                .unwrap()
                .to_string(),
            "5"
        );
        assert_eq!(
            call("string-ref", vec![Value::string("héllo"), Value::Int(1)])
                .unwrap()
                .to_string(),
            "é"
        );
    }
}
