//! Control, equality, predicates, and output primitives.

use super::{runtime_error, want_list, want_procedure, want_string};
use crate::error::{EvalError, EvalErrorKind};
use crate::interp::Interp;
use crate::value::Value;

/// Expands `~a ~s ~d ~% ~~` directives against `args`, Chez `format`-style.
fn format_directives(fmt: &str, args: &[Value]) -> Result<String, EvalError> {
    let mut out = String::new();
    let mut chars = fmt.chars();
    let mut next = args.iter();
    while let Some(c) = chars.next() {
        if c != '~' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('a') | Some('A') => {
                let v = next
                    .next()
                    .ok_or_else(|| runtime_error("format: too few arguments for ~a"))?;
                out.push_str(&v.to_string());
            }
            Some('s') | Some('S') => {
                let v = next
                    .next()
                    .ok_or_else(|| runtime_error("format: too few arguments for ~s"))?;
                out.push_str(&v.write_string());
            }
            Some('d') | Some('D') => {
                let v = next
                    .next()
                    .ok_or_else(|| runtime_error("format: too few arguments for ~d"))?;
                out.push_str(&v.to_string());
            }
            Some('%') | Some('n') => out.push('\n'),
            Some('~') => out.push('~'),
            other => {
                return Err(runtime_error(format!(
                    "format: unknown directive ~{}",
                    other.map(String::from).unwrap_or_default()
                )))
            }
        }
    }
    Ok(out)
}

pub(super) fn install(interp: &mut Interp) {
    interp.define_native("apply", 2, None, |interp, args| {
        let (f, rest) = args.split_first().expect("arity checked");
        let (last, spread) = rest.split_last().expect("arity checked");
        want_procedure(f)?;
        let mut call_args = spread.to_vec();
        call_args.extend(want_list(last)?);
        interp.apply(f, &call_args)
    });
    interp.define_native("procedure?", 1, Some(1), |_, args| {
        Ok(Value::Bool(args[0].is_procedure()))
    });
    interp.define_native("not", 1, Some(1), |_, args| {
        Ok(Value::Bool(!args[0].is_truthy()))
    });
    interp.define_native("eq?", 2, Some(2), |_, args| {
        Ok(Value::Bool(args[0].eqv(&args[1])))
    });
    interp.define_native("eqv?", 2, Some(2), |_, args| {
        Ok(Value::Bool(args[0].eqv(&args[1])))
    });
    interp.define_native("equal?", 2, Some(2), |_, args| {
        Ok(Value::Bool(args[0].equal(&args[1])))
    });
    interp.define_native("boolean?", 1, Some(1), |_, args| {
        Ok(Value::Bool(matches!(args[0], Value::Bool(_))))
    });
    interp.define_native("symbol?", 1, Some(1), |_, args| {
        Ok(Value::Bool(matches!(args[0], Value::Sym(_))))
    });
    interp.define_native("void", 0, None, |_, _| Ok(Value::Unspecified));
    interp.define_native("error", 1, None, |_, args| {
        let mut msg = String::new();
        for (i, a) in args.iter().enumerate() {
            if i > 0 {
                msg.push(' ');
            }
            msg.push_str(&a.to_string());
        }
        Err(EvalError::new(EvalErrorKind::User, msg))
    });
    interp.define_native("assert", 1, Some(1), |_, args| {
        if args[0].is_truthy() {
            Ok(Value::Unspecified)
        } else {
            Err(EvalError::new(EvalErrorKind::User, "assertion failed"))
        }
    });
    interp.define_native("display", 1, Some(1), |interp, args| {
        let s = args[0].to_string();
        interp.print(&s);
        Ok(Value::Unspecified)
    });
    interp.define_native("write", 1, Some(1), |interp, args| {
        let s = args[0].write_string();
        interp.print(&s);
        Ok(Value::Unspecified)
    });
    interp.define_native("newline", 0, Some(0), |interp, _| {
        interp.print("\n");
        Ok(Value::Unspecified)
    });
    interp.define_native("printf", 1, None, |interp, args| {
        let fmt = want_string(&args[0])?;
        let s = format_directives(&fmt, &args[1..])?;
        interp.print(&s);
        Ok(Value::Unspecified)
    });
    interp.define_native("format", 1, None, |_, args| {
        let fmt = want_string(&args[0])?;
        Ok(Value::string(&format_directives(&fmt, &args[1..])?))
    });
    // (warn "message") — records a compile-time warning when run inside the
    // expander's meta interpreter (used by the §6.3 libraries).
    interp.define_native("warn", 1, None, |interp, args| {
        let fmt = want_string(&args[0])?;
        let s = format_directives(&fmt, &args[1..])?;
        interp.warnings.push(s);
        Ok(Value::Unspecified)
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

    #[test]
    fn apply_spreads_last_list() {
        with_interp(|i| {
            let plus = i.global(Symbol::intern("+")).cloned().unwrap();
            let lst = Value::list(vec![Value::Int(2), Value::Int(3)]);
            let v = call(i, "apply", vec![plus, Value::Int(1), lst]).unwrap();
            assert_eq!(v.to_string(), "6");
        });
    }

    #[test]
    fn equality_predicates() {
        with_interp(|i| {
            let a = Value::list(vec![Value::Int(1)]);
            let b = Value::list(vec![Value::Int(1)]);
            assert_eq!(
                call(i, "eq?", vec![a.clone(), b.clone()])
                    .unwrap()
                    .to_string(),
                "#f"
            );
            assert_eq!(call(i, "equal?", vec![a, b]).unwrap().to_string(), "#t");
            assert_eq!(
                call(i, "eqv?", vec![Value::Int(1), Value::Int(1)])
                    .unwrap()
                    .to_string(),
                "#t"
            );
        });
    }

    #[test]
    fn error_raises_user_error() {
        with_interp(|i| {
            let e = call(i, "error", vec![Value::string("boom"), Value::Int(3)]).unwrap_err();
            assert_eq!(e.kind, EvalErrorKind::User);
            assert_eq!(e.message, "boom 3");
        });
    }

    #[test]
    fn display_and_printf_capture_output() {
        with_interp(|i| {
            call(i, "display", vec![Value::string("x")]).unwrap();
            call(i, "newline", vec![]).unwrap();
            call(
                i,
                "printf",
                vec![
                    Value::string("n=~a s=~s~%"),
                    Value::Int(5),
                    Value::string("q"),
                ],
            )
            .unwrap();
            assert_eq!(i.take_output(), "x\nn=5 s=\"q\"\n");
        });
    }

    #[test]
    fn format_returns_string() {
        with_interp(|i| {
            let v = call(
                i,
                "format",
                vec![
                    Value::string("~a+~a=~a"),
                    Value::Int(1),
                    Value::Int(2),
                    Value::Int(3),
                ],
            )
            .unwrap();
            assert_eq!(v.to_string(), "1+2=3");
            assert!(call(i, "format", vec![Value::string("~a")]).is_err());
            assert!(call(i, "format", vec![Value::string("~z")]).is_err());
        });
    }

    #[test]
    fn warn_records_warning() {
        with_interp(|i| {
            call(
                i,
                "warn",
                vec![Value::string("consider a vector: ~a"), Value::Int(1)],
            )
            .unwrap();
            assert_eq!(i.warnings, vec!["consider a vector: 1"]);
        });
    }

    #[test]
    fn assert_passes_and_fails() {
        with_interp(|i| {
            assert!(call(i, "assert", vec![Value::Bool(true)]).is_ok());
            assert!(call(i, "assert", vec![Value::Bool(false)]).is_err());
        });
    }
}
