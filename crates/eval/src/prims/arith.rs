//! Numeric primitives over a two-rung tower: exact `i64` and inexact `f64`.

use super::{runtime_error, want_int};
use crate::error::EvalError;
use crate::interp::Interp;
use crate::value::Value;
use pgmp_syntax::Symbol;

#[derive(Clone, Copy)]
enum Num {
    Int(i64),
    Float(f64),
}

fn want_num(v: &Value) -> Result<Num, EvalError> {
    match v {
        Value::Int(n) => Ok(Num::Int(*n)),
        Value::Float(x) => Ok(Num::Float(*x)),
        other => Err(EvalError::type_error("number", other)),
    }
}

impl Num {
    fn as_f64(self) -> f64 {
        match self {
            Num::Int(n) => n as f64,
            Num::Float(x) => x,
        }
    }

    fn to_value(self) -> Value {
        match self {
            Num::Int(n) => Value::Int(n),
            Num::Float(x) => Value::Float(x),
        }
    }
}

fn fold_nums(
    name: &'static str,
    args: &[Value],
    int_op: fn(i64, i64) -> Option<i64>,
    float_op: fn(f64, f64) -> f64,
    init: Num,
) -> Result<Value, EvalError> {
    let mut acc = init;
    for a in args {
        let n = want_num(a)?;
        acc = match (acc, n) {
            (Num::Int(a), Num::Int(b)) => Num::Int(
                int_op(a, b).ok_or_else(|| runtime_error(format!("{name}: integer overflow")))?,
            ),
            (a, b) => Num::Float(float_op(a.as_f64(), b.as_f64())),
        };
    }
    Ok(acc.to_value())
}

fn compare_chain(args: &[Value], ok: fn(std::cmp::Ordering) -> bool) -> Result<Value, EvalError> {
    for w in args.windows(2) {
        let a = want_num(&w[0])?;
        let b = want_num(&w[1])?;
        let ord = match (a, b) {
            (Num::Int(a), Num::Int(b)) => a.cmp(&b),
            (a, b) => a
                .as_f64()
                .partial_cmp(&b.as_f64())
                .ok_or_else(|| runtime_error("comparison with NaN"))?,
        };
        if !ok(ord) {
            return Ok(Value::Bool(false));
        }
    }
    Ok(Value::Bool(true))
}

pub(super) fn install(interp: &mut Interp) {
    interp.define_native("+", 0, None, |_, args| {
        fold_nums("+", args, i64::checked_add, |a, b| a + b, Num::Int(0))
    });
    interp.define_native("*", 0, None, |_, args| {
        fold_nums("*", args, i64::checked_mul, |a, b| a * b, Num::Int(1))
    });
    interp.define_native("-", 1, None, |_, args| {
        if args.len() == 1 {
            return match want_num(&args[0])? {
                Num::Int(n) => Ok(Value::Int(
                    n.checked_neg()
                        .ok_or_else(|| runtime_error("-: overflow"))?,
                )),
                Num::Float(x) => Ok(Value::Float(-x)),
            };
        }
        fold_nums(
            "-",
            &args[1..],
            i64::checked_sub,
            |a, b| a - b,
            want_num(&args[0])?,
        )
    });
    interp.define_native("/", 1, None, |_, args| {
        if args.len() == 1 {
            let x = want_num(&args[0])?.as_f64();
            if x == 0.0 {
                return Err(runtime_error("/: division by zero"));
            }
            return Ok(Value::Float(1.0 / x));
        }
        let mut acc = want_num(&args[0])?;
        for a in &args[1..] {
            let b = want_num(a)?;
            acc = match (acc, b) {
                (Num::Int(x), Num::Int(y)) => {
                    if y == 0 {
                        return Err(runtime_error("/: division by zero"));
                    }
                    if x % y == 0 {
                        Num::Int(x / y)
                    } else {
                        Num::Float(x as f64 / y as f64)
                    }
                }
                (x, y) => {
                    if y.as_f64() == 0.0 {
                        return Err(runtime_error("/: division by zero"));
                    }
                    Num::Float(x.as_f64() / y.as_f64())
                }
            };
        }
        Ok(acc.to_value())
    });
    interp.define_native("quotient", 2, Some(2), |_, args| {
        let (a, b) = (want_int(&args[0])?, want_int(&args[1])?);
        if b == 0 {
            return Err(runtime_error("quotient: division by zero"));
        }
        Ok(Value::Int(a / b))
    });
    interp.define_native("remainder", 2, Some(2), |_, args| {
        let (a, b) = (want_int(&args[0])?, want_int(&args[1])?);
        if b == 0 {
            return Err(runtime_error("remainder: division by zero"));
        }
        Ok(Value::Int(a % b))
    });
    interp.define_native("modulo", 2, Some(2), |_, args| {
        let (a, b) = (want_int(&args[0])?, want_int(&args[1])?);
        if b == 0 {
            return Err(runtime_error("modulo: division by zero"));
        }
        let r = a % b;
        Ok(Value::Int(if r != 0 && (r < 0) != (b < 0) {
            r + b
        } else {
            r
        }))
    });
    interp.define_native("=", 2, None, |_, args| {
        compare_chain(args, |o| o == std::cmp::Ordering::Equal)
    });
    interp.define_native("<", 2, None, |_, args| {
        compare_chain(args, |o| o == std::cmp::Ordering::Less)
    });
    interp.define_native(">", 2, None, |_, args| {
        compare_chain(args, |o| o == std::cmp::Ordering::Greater)
    });
    interp.define_native("<=", 2, None, |_, args| {
        compare_chain(args, |o| o != std::cmp::Ordering::Greater)
    });
    interp.define_native(">=", 2, None, |_, args| {
        compare_chain(args, |o| o != std::cmp::Ordering::Less)
    });
    interp.define_native("abs", 1, Some(1), |_, args| match want_num(&args[0])? {
        Num::Int(n) => Ok(Value::Int(
            n.checked_abs()
                .ok_or_else(|| runtime_error("abs: overflow"))?,
        )),
        Num::Float(x) => Ok(Value::Float(x.abs())),
    });
    interp.define_native("min", 1, None, |_, args| {
        let mut best = want_num(&args[0])?;
        for a in &args[1..] {
            let n = want_num(a)?;
            if n.as_f64() < best.as_f64() {
                best = n;
            }
        }
        Ok(best.to_value())
    });
    interp.define_native("max", 1, None, |_, args| {
        let mut best = want_num(&args[0])?;
        for a in &args[1..] {
            let n = want_num(a)?;
            if n.as_f64() > best.as_f64() {
                best = n;
            }
        }
        Ok(best.to_value())
    });
    interp.define_native("zero?", 1, Some(1), |_, args| {
        Ok(Value::Bool(want_num(&args[0])?.as_f64() == 0.0))
    });
    interp.define_native("positive?", 1, Some(1), |_, args| {
        Ok(Value::Bool(want_num(&args[0])?.as_f64() > 0.0))
    });
    interp.define_native("negative?", 1, Some(1), |_, args| {
        Ok(Value::Bool(want_num(&args[0])?.as_f64() < 0.0))
    });
    interp.define_native("even?", 1, Some(1), |_, args| {
        Ok(Value::Bool(want_int(&args[0])? % 2 == 0))
    });
    interp.define_native("odd?", 1, Some(1), |_, args| {
        Ok(Value::Bool(want_int(&args[0])? % 2 != 0))
    });
    interp.define_native("add1", 1, Some(1), |_, args| match want_num(&args[0])? {
        Num::Int(n) => Ok(Value::Int(
            n.checked_add(1)
                .ok_or_else(|| runtime_error("add1: overflow"))?,
        )),
        Num::Float(x) => Ok(Value::Float(x + 1.0)),
    });
    interp.define_native("sub1", 1, Some(1), |_, args| match want_num(&args[0])? {
        Num::Int(n) => Ok(Value::Int(
            n.checked_sub(1)
                .ok_or_else(|| runtime_error("sub1: overflow"))?,
        )),
        Num::Float(x) => Ok(Value::Float(x - 1.0)),
    });
    interp.define_native("sqr", 1, Some(1), |_, args| match want_num(&args[0])? {
        Num::Int(n) => Ok(Value::Int(
            n.checked_mul(n)
                .ok_or_else(|| runtime_error("sqr: overflow"))?,
        )),
        Num::Float(x) => Ok(Value::Float(x * x)),
    });
    interp.define_native("sqrt", 1, Some(1), |_, args| {
        Ok(Value::Float(want_num(&args[0])?.as_f64().sqrt()))
    });
    interp.define_native("expt", 2, Some(2), |_, args| {
        match (want_num(&args[0])?, want_num(&args[1])?) {
            (Num::Int(b), Num::Int(e)) if e >= 0 => {
                let e = u32::try_from(e).map_err(|_| runtime_error("expt: exponent too large"))?;
                Ok(Value::Int(
                    b.checked_pow(e)
                        .ok_or_else(|| runtime_error("expt: overflow"))?,
                ))
            }
            (b, e) => Ok(Value::Float(b.as_f64().powf(e.as_f64()))),
        }
    });
    interp.define_native("number?", 1, Some(1), |_, args| {
        Ok(Value::Bool(matches!(
            args[0],
            Value::Int(_) | Value::Float(_)
        )))
    });
    interp.define_native("integer?", 1, Some(1), |_, args| {
        Ok(Value::Bool(match &args[0] {
            Value::Int(_) => true,
            Value::Float(x) => x.fract() == 0.0,
            _ => false,
        }))
    });
    interp.define_native("exact->inexact", 1, Some(1), |_, args| {
        Ok(Value::Float(want_num(&args[0])?.as_f64()))
    });
    interp.define_native("inexact->exact", 1, Some(1), |_, args| {
        match want_num(&args[0])? {
            Num::Int(n) => Ok(Value::Int(n)),
            Num::Float(x) if x.fract() == 0.0 && x.abs() < i64::MAX as f64 => {
                Ok(Value::Int(x as i64))
            }
            Num::Float(x) => Err(runtime_error(format!(
                "inexact->exact: {x} is not integral"
            ))),
        }
    });
    for (name, f) in [
        ("floor", f64::floor as fn(f64) -> f64),
        ("ceiling", f64::ceil),
        ("round", f64::round),
        ("truncate", f64::trunc),
    ] {
        interp.define_native(name, 1, Some(1), move |_, args| match want_num(&args[0])? {
            Num::Int(n) => Ok(Value::Int(n)),
            Num::Float(x) => Ok(Value::Float(f(x))),
        });
    }
    interp.define_native("number->string", 1, Some(1), |_, args| {
        let n = want_num(&args[0])?;
        Ok(Value::string(&n.to_value().to_string()))
    });
    interp.define_native("string->number", 1, Some(1), |_, args| {
        let s = super::want_string(&args[0])?;
        if let Ok(n) = s.parse::<i64>() {
            Ok(Value::Int(n))
        } else if let Ok(x) = s.parse::<f64>() {
            Ok(Value::Float(x))
        } else {
            Ok(Value::Bool(false))
        }
    });
    // Deterministic pseudo-random generator (xorshift) for workload
    // generation in examples; seeded explicitly so runs are reproducible.
    interp.define_global(Symbol::intern("%random-state"), Value::Int(0x9E3779B9));
    interp.define_native("random-seed!", 1, Some(1), |interp, args| {
        let n = want_int(&args[0])?;
        interp.define_global(Symbol::intern("%random-state"), Value::Int(n | 1));
        Ok(Value::Unspecified)
    });
    interp.define_native("random", 1, Some(1), |interp, args| {
        let bound = want_int(&args[0])?;
        if bound <= 0 {
            return Err(runtime_error("random: bound must be positive"));
        }
        let state_sym = Symbol::intern("%random-state");
        let mut x = match interp.global(state_sym) {
            Some(Value::Int(n)) => *n as u64,
            _ => 0x9E3779B9,
        };
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        interp.define_global(state_sym, Value::Int(x as i64));
        Ok(Value::Int((x % bound as u64) as i64))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prims::install_primitives;

    fn run(name: &str, args: Vec<Value>) -> Result<Value, EvalError> {
        let mut i = Interp::new();
        install_primitives(&mut i);
        let f = i.global(Symbol::intern(name)).cloned().unwrap();
        i.apply(&f, &args)
    }

    #[test]
    fn addition_mixed_tower() {
        assert_eq!(
            run("+", vec![Value::Int(1), Value::Int(2)])
                .unwrap()
                .to_string(),
            "3"
        );
        assert_eq!(
            run("+", vec![Value::Int(1), Value::Float(0.5)])
                .unwrap()
                .to_string(),
            "1.5"
        );
        assert_eq!(run("+", vec![]).unwrap().to_string(), "0");
    }

    #[test]
    fn subtraction_and_negation() {
        assert_eq!(run("-", vec![Value::Int(5)]).unwrap().to_string(), "-5");
        assert_eq!(
            run("-", vec![Value::Int(5), Value::Int(2), Value::Int(1)])
                .unwrap()
                .to_string(),
            "2"
        );
    }

    #[test]
    fn division_exactness() {
        assert_eq!(
            run("/", vec![Value::Int(6), Value::Int(2)])
                .unwrap()
                .to_string(),
            "3"
        );
        assert_eq!(
            run("/", vec![Value::Int(1), Value::Int(2)])
                .unwrap()
                .to_string(),
            "0.5"
        );
        assert!(run("/", vec![Value::Int(1), Value::Int(0)]).is_err());
    }

    #[test]
    fn comparison_chains() {
        assert_eq!(
            run("<", vec![Value::Int(1), Value::Int(2), Value::Int(3)])
                .unwrap()
                .to_string(),
            "#t"
        );
        assert_eq!(
            run("<", vec![Value::Int(1), Value::Int(3), Value::Int(2)])
                .unwrap()
                .to_string(),
            "#f"
        );
        assert_eq!(
            run(">=", vec![Value::Int(3), Value::Int(3), Value::Int(1)])
                .unwrap()
                .to_string(),
            "#t"
        );
    }

    #[test]
    fn modulo_follows_sign_of_divisor() {
        assert_eq!(
            run("modulo", vec![Value::Int(-7), Value::Int(3)])
                .unwrap()
                .to_string(),
            "2"
        );
        assert_eq!(
            run("modulo", vec![Value::Int(7), Value::Int(-3)])
                .unwrap()
                .to_string(),
            "-2"
        );
        assert_eq!(
            run("remainder", vec![Value::Int(-7), Value::Int(3)])
                .unwrap()
                .to_string(),
            "-1"
        );
    }

    #[test]
    fn overflow_is_an_error_not_a_wrap() {
        assert!(run("+", vec![Value::Int(i64::MAX), Value::Int(1)]).is_err());
        assert!(run("sqr", vec![Value::Int(i64::MAX)]).is_err());
    }

    #[test]
    fn sqr_and_expt() {
        assert_eq!(run("sqr", vec![Value::Int(9)]).unwrap().to_string(), "81");
        assert_eq!(
            run("expt", vec![Value::Int(2), Value::Int(10)])
                .unwrap()
                .to_string(),
            "1024"
        );
    }

    #[test]
    fn string_number_conversions() {
        assert_eq!(
            run("number->string", vec![Value::Int(42)])
                .unwrap()
                .to_string(),
            "42"
        );
        assert_eq!(
            run("string->number", vec![Value::string("42")])
                .unwrap()
                .to_string(),
            "42"
        );
        assert_eq!(
            run("string->number", vec![Value::string("nope")])
                .unwrap()
                .to_string(),
            "#f"
        );
    }

    #[test]
    fn type_errors_are_reported() {
        assert!(run("+", vec![Value::string("x")]).is_err());
        assert!(run("even?", vec![Value::Float(1.5)]).is_err());
    }

    #[test]
    fn random_is_deterministic_given_seed() {
        let mut i = Interp::new();
        install_primitives(&mut i);
        let seed = i.global(Symbol::intern("random-seed!")).cloned().unwrap();
        let random = i.global(Symbol::intern("random")).cloned().unwrap();
        i.apply(&seed, &[Value::Int(42)]).unwrap();
        let a: Vec<String> = (0..5)
            .map(|_| i.apply(&random, &[Value::Int(100)]).unwrap().to_string())
            .collect();
        i.apply(&seed, &[Value::Int(42)]).unwrap();
        let b: Vec<String> = (0..5)
            .map(|_| i.apply(&random, &[Value::Int(100)]).unwrap().to_string())
            .collect();
        assert_eq!(a, b);
    }
}
