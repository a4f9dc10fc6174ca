//! Core and derived form compilers.

use crate::cenv::{entry_for, BindKind, CEnv, Scope, ScopeEntry};
use crate::error::{ExpandError, ExpandErrorKind};
use crate::expander::Expander;
use crate::pattern::compile_pattern;
use crate::template::{call_support, compile_template, plain_ident};
use pgmp_eval::{Core, CoreKind, LambdaDef};
use pgmp_syntax::{Datum, Symbol, Syntax, SyntaxBody};
use std::rc::Rc;

fn bad(msg: impl Into<String>, stx: &Syntax) -> ExpandError {
    ExpandError::new(ExpandErrorKind::BadForm, msg).with_src(stx.source)
}

fn parts(stx: &Syntax) -> &[Rc<Syntax>] {
    stx.as_list().expect("caller checked list")
}

fn is_sym(stx: &Syntax, name: &str) -> bool {
    stx.as_symbol().is_some_and(|s| s.as_str() == name)
}

fn hidden_ident(base: &str) -> Syntax {
    plain_ident(Symbol::gensym(base).as_str())
}

fn lref(env: &CEnv, id: &Syntax) -> Rc<Core> {
    let r = env.resolve(id).expect("hidden binder must resolve");
    Core::rc(
        CoreKind::LocalRef {
            depth: r.depth,
            index: r.index,
        },
        id.source,
    )
}

fn unspecified() -> Rc<Core> {
    Core::rc(CoreKind::Seq(Vec::new()), None)
}

/// Dispatches `stx` (a list form with identifier head `name`, not shadowed
/// lexically and not a macro) against the built-in special forms. Returns
/// `Ok(None)` when `name` is not special, meaning the form is an ordinary
/// application.
pub(crate) fn expand_core_form(
    exp: &mut Expander,
    name: &str,
    stx: &Rc<Syntax>,
    env: &CEnv,
) -> Result<Option<Rc<Core>>, ExpandError> {
    let core = match name {
        "quote" => Some(expand_quote(stx)?),
        "if" => Some(expand_if(exp, stx, env)?),
        "lambda" => Some(expand_lambda(exp, stx, env)?),
        "begin" => Some(expand_begin(exp, stx, env)?),
        "set!" => Some(expand_set(exp, stx, env)?),
        "let" => Some(expand_let(exp, stx, env)?),
        "let*" => Some(expand_let_star(exp, stx, env)?),
        "letrec" | "letrec*" => Some(expand_letrec(exp, stx, env)?),
        "cond" => Some(expand_cond(exp, stx, env)?),
        "case" => Some(expand_case(exp, stx, env)?),
        "when" | "unless" => Some(expand_when_unless(exp, stx, env, name == "when")?),
        "and" => Some(expand_and(exp, stx, env)?),
        "or" => Some(expand_or(exp, stx, env)?),
        "syntax" => Some(expand_syntax_template(exp, stx, env, false)?),
        "quasisyntax" => Some(expand_syntax_template(exp, stx, env, true)?),
        "syntax-case" => Some(expand_syntax_case(exp, stx, env)?),
        "syntax-rules" => Some(expand_syntax_rules(exp, stx, env)?),
        "quasiquote" => Some(expand_quasiquote(exp, stx, env)?),
        "define" | "define-syntax" | "define-for-syntax" | "begin-for-syntax" => {
            return Err(bad(
                format!("`{name}` is only allowed at the top level or (for `define`) at the start of a body"),
                stx,
            ));
        }
        "unquote" | "unquote-splicing" => {
            return Err(bad(format!("`{name}` outside quasiquote"), stx));
        }
        "unsyntax" | "unsyntax-splicing" => {
            return Err(bad(format!("`{name}` outside quasisyntax"), stx));
        }
        "else" => return Err(bad("`else` outside cond or case", stx)),
        _ => None,
    };
    Ok(core)
}

fn expand_quote(stx: &Rc<Syntax>) -> Result<Rc<Core>, ExpandError> {
    match parts(stx) {
        [_, datum] => Ok(Core::rc(CoreKind::Const(datum.to_datum()), stx.source)),
        _ => Err(bad("quote expects exactly one datum", stx)),
    }
}

fn expand_if(exp: &mut Expander, stx: &Rc<Syntax>, env: &CEnv) -> Result<Rc<Core>, ExpandError> {
    match parts(stx) {
        [_, c, t] => Ok(Core::rc(
            CoreKind::If(
                exp.expand_expr(c, env)?,
                exp.expand_expr(t, env)?,
                unspecified(),
            ),
            stx.source,
        )),
        [_, c, t, e] => Ok(Core::rc(
            CoreKind::If(
                exp.expand_expr(c, env)?,
                exp.expand_expr(t, env)?,
                exp.expand_expr(e, env)?,
            ),
            stx.source,
        )),
        _ => Err(bad("if expects 2 or 3 subforms", stx)),
    }
}

/// A parsed lambda parameter list: (required binders, rest binder).
type ParsedParams = (Vec<Rc<Syntax>>, Option<Rc<Syntax>>);

/// Parses a lambda parameter list into (required binders, rest binder).
fn parse_params(params: &Syntax) -> Result<ParsedParams, ExpandError> {
    match &params.body {
        SyntaxBody::Atom(Datum::Sym(_)) => Ok((Vec::new(), Some(Rc::new(params.clone())))),
        SyntaxBody::List(elems) => {
            for e in elems {
                if !e.is_identifier() {
                    return Err(bad("parameter is not an identifier", e));
                }
            }
            Ok((elems.clone(), None))
        }
        SyntaxBody::Improper(elems, tail) => {
            for e in elems.iter().chain(std::iter::once(tail)) {
                if !e.is_identifier() {
                    return Err(bad("parameter is not an identifier", e));
                }
            }
            Ok((elems.clone(), Some(tail.clone())))
        }
        _ => Err(bad("malformed parameter list", params)),
    }
}

fn compile_lambda(
    exp: &mut Expander,
    params: &Syntax,
    body_forms: &[Rc<Syntax>],
    env: &CEnv,
    name: Option<Symbol>,
    src: Option<pgmp_syntax::SourceObject>,
) -> Result<Rc<Core>, ExpandError> {
    let (required, rest) = parse_params(params)?;
    let mut entries: Vec<ScopeEntry> = required
        .iter()
        .map(|p| entry_for(p, BindKind::Var))
        .collect();
    if let Some(rest) = &rest {
        entries.push(entry_for(rest, BindKind::Var));
    }
    let inner = env.push(Scope { entries });
    let body = expand_body(exp, body_forms, &inner, src)?;
    Ok(Core::rc(
        CoreKind::Lambda(Rc::new(LambdaDef {
            params: required.len() as u16,
            variadic: rest.is_some(),
            body,
            name,
            src,
            code: Default::default(),
        })),
        src,
    ))
}

fn expand_lambda(
    exp: &mut Expander,
    stx: &Rc<Syntax>,
    env: &CEnv,
) -> Result<Rc<Core>, ExpandError> {
    let elems = parts(stx);
    if elems.len() < 3 {
        return Err(bad("lambda expects parameters and a body", stx));
    }
    compile_lambda(exp, &elems[1], &elems[2..], env, None, stx.source)
}

/// Expands a body: internal `define`s (possibly produced by macros or
/// spliced from `begin`) become `letrec*` slots; the body's value is the
/// value of its last form.
pub(crate) fn expand_body(
    exp: &mut Expander,
    forms: &[Rc<Syntax>],
    env: &CEnv,
    src: Option<pgmp_syntax::SourceObject>,
) -> Result<Rc<Core>, ExpandError> {
    // Discover defines by macro-expanding each form's head and splicing
    // begins.
    enum Item {
        Define(Rc<Syntax>, Rc<Syntax>), // binder, init expression
        Expr(Rc<Syntax>),
    }
    let mut items: Vec<Item> = Vec::new();
    let mut queue: std::collections::VecDeque<Rc<Syntax>> = forms.iter().cloned().collect();
    while let Some(form) = queue.pop_front() {
        let form = exp.macroexpand_head(form, env)?;
        let head = form
            .as_list()
            .and_then(|e| e.first())
            .and_then(|h| h.as_symbol())
            .map(|s| s.as_str());
        // Head position must not be lexically shadowed for special meaning.
        let shadowed = form
            .as_list()
            .and_then(|e| e.first())
            .is_some_and(|h| env.resolve(h).is_some());
        match head {
            Some("begin") if !shadowed => {
                let elems = form.as_list().expect("checked");
                for sub in elems[1..].iter().rev() {
                    queue.push_front(sub.clone());
                }
            }
            Some("define") if !shadowed => {
                let (binder, init) = parse_define(&form)?;
                items.push(Item::Define(binder, init));
            }
            Some("define-syntax") if !shadowed => {
                return Err(ExpandError::new(
                    ExpandErrorKind::Unsupported,
                    "internal define-syntax is not supported; use toplevel define-syntax",
                )
                .with_src(form.source));
            }
            _ => items.push(Item::Expr(form)),
        }
    }
    if items.is_empty() {
        return Err(ExpandError::new(ExpandErrorKind::BadForm, "empty body").with_src(src));
    }
    let has_defines = items.iter().any(|i| matches!(i, Item::Define(..)));
    if !has_defines {
        let exprs: Result<Vec<Rc<Core>>, ExpandError> = items
            .iter()
            .map(|i| match i {
                Item::Expr(e) => exp.expand_expr(e, env),
                Item::Define(..) => unreachable!(),
            })
            .collect();
        let mut exprs = exprs?;
        return Ok(if exprs.len() == 1 {
            exprs.remove(0)
        } else {
            Core::rc(CoreKind::Seq(exprs), src)
        });
    }
    // letrec* over every item: defines bind their name, expressions bind a
    // throwaway slot, preserving left-to-right evaluation order.
    let entries: Vec<ScopeEntry> = items
        .iter()
        .map(|i| match i {
            Item::Define(binder, _) => entry_for(binder, BindKind::Var),
            Item::Expr(_) => entry_for(&hidden_ident("seq"), BindKind::Var),
        })
        .collect();
    let inner = env.push(Scope { entries });
    let mut inits = Vec::with_capacity(items.len());
    let mut last_is_expr = false;
    for item in &items {
        match item {
            Item::Define(binder, init) => {
                let name = binder.as_symbol();
                let core = expand_named_init(exp, init, &inner, name)?;
                inits.push(core);
                last_is_expr = false;
            }
            Item::Expr(e) => {
                inits.push(exp.expand_expr(e, &inner)?);
                last_is_expr = true;
            }
        }
    }
    let body = if last_is_expr {
        Core::rc(
            CoreKind::LocalRef {
                depth: 0,
                index: (items.len() - 1) as u16,
            },
            src,
        )
    } else {
        unspecified()
    };
    Ok(Core::rc(CoreKind::LetRec { inits, body }, src))
}

/// Expands `init`, naming it if it is a lambda (for diagnostics).
fn expand_named_init(
    exp: &mut Expander,
    init: &Rc<Syntax>,
    env: &CEnv,
    name: Option<Symbol>,
) -> Result<Rc<Core>, ExpandError> {
    let core = exp.expand_expr(init, env)?;
    if let CoreKind::Lambda(def) = &core.kind {
        if def.name.is_none() {
            let named = LambdaDef {
                name,
                ..(**def).clone()
            };
            return Ok(Core::rc(CoreKind::Lambda(Rc::new(named)), core.src));
        }
    }
    Ok(core)
}

/// Parses `(define x e)` or `(define (f . params) body …)` into
/// `(binder, init-expression)` where function defines become lambdas.
pub(crate) fn parse_define(form: &Syntax) -> Result<(Rc<Syntax>, Rc<Syntax>), ExpandError> {
    let elems = form
        .as_list()
        .ok_or_else(|| bad("malformed define", form))?;
    match elems {
        [_, name, value] if name.is_identifier() => Ok((name.clone(), value.clone())),
        [_, name] if name.is_identifier() => {
            // (define x) — initialize to unspecified via (void).
            let init = Syntax::list(vec![Rc::new(plain_ident("void"))], form.source);
            Ok((name.clone(), Rc::new(init)))
        }
        [_, header, body @ ..] if !body.is_empty() => {
            let (name, params): (Rc<Syntax>, Syntax) = match &header.body {
                SyntaxBody::List(h) => {
                    let Some((name, ps)) = h.split_first() else {
                        return Err(bad("malformed define header", form));
                    };
                    (
                        name.clone(),
                        Syntax::new(SyntaxBody::List(ps.to_vec()), header.source),
                    )
                }
                SyntaxBody::Improper(h, tail) => {
                    let Some((name, ps)) = h.split_first() else {
                        return Err(bad("malformed define header", form));
                    };
                    let params = if ps.is_empty() {
                        (**tail).clone()
                    } else {
                        Syntax::new(
                            SyntaxBody::Improper(ps.to_vec(), tail.clone()),
                            header.source,
                        )
                    };
                    (name.clone(), params)
                }
                _ => return Err(bad("malformed define", form)),
            };
            if !name.is_identifier() {
                return Err(bad("defined name must be an identifier", &name));
            }
            let mut lam = vec![Rc::new(plain_ident("lambda")), Rc::new(params)];
            lam.extend(body.iter().cloned());
            Ok((name, Rc::new(Syntax::list(lam, form.source))))
        }
        _ => Err(bad("malformed define", form)),
    }
}

/// Expands a toplevel `define`, returning the global name and initializer.
pub(crate) fn expand_define(
    exp: &mut Expander,
    form: &Syntax,
    env: &CEnv,
) -> Result<(Symbol, Rc<Core>), ExpandError> {
    let (binder, init) = parse_define(form)?;
    let name = binder.as_symbol().expect("parse_define checked");
    let core = expand_named_init(exp, &init, env, Some(name))?;
    Ok((name, core))
}

fn expand_begin(exp: &mut Expander, stx: &Rc<Syntax>, env: &CEnv) -> Result<Rc<Core>, ExpandError> {
    let elems = parts(stx);
    let exprs: Result<Vec<Rc<Core>>, ExpandError> =
        elems[1..].iter().map(|e| exp.expand_expr(e, env)).collect();
    let mut exprs = exprs?;
    Ok(match exprs.len() {
        0 => unspecified(),
        1 => exprs.remove(0),
        _ => Core::rc(CoreKind::Seq(exprs), stx.source),
    })
}

fn expand_set(exp: &mut Expander, stx: &Rc<Syntax>, env: &CEnv) -> Result<Rc<Core>, ExpandError> {
    let [_, target, value] = parts(stx) else {
        return Err(bad("set! expects a variable and a value", stx));
    };
    if !target.is_identifier() {
        return Err(bad("set! target must be an identifier", target));
    }
    let value = exp.expand_expr(value, env)?;
    match env.resolve(target) {
        Some(r) => Ok(Core::rc(
            CoreKind::SetLocal {
                depth: r.depth,
                index: r.index,
                value,
            },
            stx.source,
        )),
        None => Ok(Core::rc(
            CoreKind::SetGlobal(target.as_symbol().expect("identifier"), value),
            stx.source,
        )),
    }
}

/// A parsed `[x e]` binding: (identifier, right-hand side).
type ParsedBindings = Vec<(Rc<Syntax>, Rc<Syntax>)>;

/// Parses `([x e] …)` binding lists.
fn parse_bindings(bindings: &Syntax) -> Result<ParsedBindings, ExpandError> {
    let elems = bindings
        .as_list()
        .ok_or_else(|| bad("malformed binding list", bindings))?;
    elems
        .iter()
        .map(|b| match b.as_list() {
            Some([name, value]) if name.is_identifier() => Ok((name.clone(), value.clone())),
            _ => Err(bad("binding must be [identifier expression]", b)),
        })
        .collect()
}

fn expand_let(exp: &mut Expander, stx: &Rc<Syntax>, env: &CEnv) -> Result<Rc<Core>, ExpandError> {
    let elems = parts(stx);
    // Named let: (let loop ([x e] ...) body ...).
    if elems.len() >= 4 && elems[1].is_identifier() {
        return expand_named_let(exp, stx, env);
    }
    if elems.len() < 3 {
        return Err(bad("let expects bindings and a body", stx));
    }
    let bindings = parse_bindings(&elems[1])?;
    let inits: Result<Vec<Rc<Core>>, ExpandError> = bindings
        .iter()
        .map(|(_, v)| exp.expand_expr(v, env))
        .collect();
    let entries = bindings
        .iter()
        .map(|(n, _)| entry_for(n, BindKind::Var))
        .collect();
    let inner = env.push(Scope { entries });
    let body = expand_body(exp, &elems[2..], &inner, stx.source)?;
    Ok(Core::rc(
        CoreKind::Let {
            inits: inits?,
            body,
        },
        stx.source,
    ))
}

fn expand_named_let(
    exp: &mut Expander,
    stx: &Rc<Syntax>,
    env: &CEnv,
) -> Result<Rc<Core>, ExpandError> {
    let elems = parts(stx);
    let name = &elems[1];
    let bindings = parse_bindings(&elems[2])?;
    // (letrec ([name (lambda (x ...) body ...)]) (name e ...))
    let loop_env = env.push(Scope {
        entries: vec![entry_for(name, BindKind::Var)],
    });
    let param_entries = bindings
        .iter()
        .map(|(n, _)| entry_for(n, BindKind::Var))
        .collect();
    let lam_env = loop_env.push(Scope {
        entries: param_entries,
    });
    let body = expand_body(exp, &elems[3..], &lam_env, stx.source)?;
    let lambda = Core::rc(
        CoreKind::Lambda(Rc::new(LambdaDef {
            params: bindings.len() as u16,
            variadic: false,
            body,
            name: name.as_symbol(),
            src: stx.source,
            code: Default::default(),
        })),
        stx.source,
    );
    // The initial call is the LetRec body, so it evaluates *inside* the
    // loop frame: compile the argument expressions against loop_env, not
    // the outer env.
    let call_args: Result<Vec<Rc<Core>>, ExpandError> = bindings
        .iter()
        .map(|(_, v)| exp.expand_expr(v, &loop_env))
        .collect();
    let call = Core::rc(
        CoreKind::Call {
            func: lref(&loop_env, name),
            args: call_args?,
        },
        stx.source,
    );
    Ok(Core::rc(
        CoreKind::LetRec {
            inits: vec![lambda],
            body: call,
        },
        stx.source,
    ))
}

fn expand_let_star(
    exp: &mut Expander,
    stx: &Rc<Syntax>,
    env: &CEnv,
) -> Result<Rc<Core>, ExpandError> {
    let elems = parts(stx);
    if elems.len() < 3 {
        return Err(bad("let* expects bindings and a body", stx));
    }
    let bindings = parse_bindings(&elems[1])?;
    // Each binding gets its own nested frame.
    fn nest(
        exp: &mut Expander,
        bindings: &[(Rc<Syntax>, Rc<Syntax>)],
        body_forms: &[Rc<Syntax>],
        env: &CEnv,
        src: Option<pgmp_syntax::SourceObject>,
    ) -> Result<Rc<Core>, ExpandError> {
        match bindings.split_first() {
            None => expand_body(exp, body_forms, env, src),
            Some(((name, value), rest)) => {
                let init = exp.expand_expr(value, env)?;
                let inner = env.push(Scope {
                    entries: vec![entry_for(name, BindKind::Var)],
                });
                let body = nest(exp, rest, body_forms, &inner, src)?;
                Ok(Core::rc(
                    CoreKind::Let {
                        inits: vec![init],
                        body,
                    },
                    src,
                ))
            }
        }
    }
    nest(exp, &bindings, &elems[2..], env, stx.source)
}

fn expand_letrec(
    exp: &mut Expander,
    stx: &Rc<Syntax>,
    env: &CEnv,
) -> Result<Rc<Core>, ExpandError> {
    let elems = parts(stx);
    if elems.len() < 3 {
        return Err(bad("letrec expects bindings and a body", stx));
    }
    let bindings = parse_bindings(&elems[1])?;
    let entries = bindings
        .iter()
        .map(|(n, _)| entry_for(n, BindKind::Var))
        .collect();
    let inner = env.push(Scope { entries });
    let mut inits = Vec::with_capacity(bindings.len());
    for (name, value) in &bindings {
        inits.push(expand_named_init(exp, value, &inner, name.as_symbol())?);
    }
    let body = expand_body(exp, &elems[2..], &inner, stx.source)?;
    Ok(Core::rc(CoreKind::LetRec { inits, body }, stx.source))
}

fn expand_cond(exp: &mut Expander, stx: &Rc<Syntax>, env: &CEnv) -> Result<Rc<Core>, ExpandError> {
    let clauses = &parts(stx)[1..];
    fn nest(
        exp: &mut Expander,
        clauses: &[Rc<Syntax>],
        env: &CEnv,
    ) -> Result<Rc<Core>, ExpandError> {
        let Some((clause, rest)) = clauses.split_first() else {
            return Ok(unspecified());
        };
        let Some(clause_elems) = clause.as_list() else {
            return Err(bad("cond clause must be a list", clause));
        };
        let Some((test, body)) = clause_elems.split_first() else {
            return Err(bad("empty cond clause", clause));
        };
        if is_sym(test, "else") {
            if !rest.is_empty() {
                return Err(bad("else clause must be last", clause));
            }
            return expand_body(exp, body, env, clause.source);
        }
        if body.is_empty() {
            // (cond [e] ...) — value of e if truthy.
            let t = hidden_ident("t");
            let init = exp.expand_expr(test, env)?;
            let inner = env.push(Scope {
                entries: vec![entry_for(&t, BindKind::Var)],
            });
            let alt = nest(exp, rest, &inner)?;
            let body = Core::rc(
                CoreKind::If(lref(&inner, &t), lref(&inner, &t), alt),
                clause.source,
            );
            return Ok(Core::rc(
                CoreKind::Let {
                    inits: vec![init],
                    body,
                },
                clause.source,
            ));
        }
        let test_core = exp.expand_expr(test, env)?;
        let then_core = expand_body(exp, body, env, clause.source)?;
        let else_core = nest(exp, rest, env)?;
        Ok(Core::rc(
            CoreKind::If(test_core, then_core, else_core),
            clause.source,
        ))
    }
    nest(exp, clauses, env)
}

fn expand_case(exp: &mut Expander, stx: &Rc<Syntax>, env: &CEnv) -> Result<Rc<Core>, ExpandError> {
    let elems = parts(stx);
    if elems.len() < 2 {
        return Err(bad("case expects a key expression", stx));
    }
    let key_init = exp.expand_expr(&elems[1], env)?;
    let key = hidden_ident("key");
    let inner = env.push(Scope {
        entries: vec![entry_for(&key, BindKind::Var)],
    });
    fn nest(
        exp: &mut Expander,
        clauses: &[Rc<Syntax>],
        key: &Syntax,
        env: &CEnv,
    ) -> Result<Rc<Core>, ExpandError> {
        let Some((clause, rest)) = clauses.split_first() else {
            return Ok(unspecified());
        };
        let Some(clause_elems) = clause.as_list() else {
            return Err(bad("case clause must be a list", clause));
        };
        let Some((lhs, body)) = clause_elems.split_first() else {
            return Err(bad("empty case clause", clause));
        };
        if body.is_empty() {
            return Err(bad("case clause needs a body", clause));
        }
        if is_sym(lhs, "else") {
            if !rest.is_empty() {
                return Err(bad("else clause must be last", clause));
            }
            return expand_body(exp, body, env, clause.source);
        }
        if lhs.as_list().is_none() {
            return Err(bad(
                "case clause left-hand side must be a datum list",
                clause,
            ));
        }
        // (memv key '(k ...))
        let test = call_support(
            "%case-memv",
            vec![
                lref(env, key),
                Core::rc(CoreKind::Const(lhs.to_datum()), lhs.source),
            ],
            clause,
        );
        let then_core = expand_body(exp, body, env, clause.source)?;
        let else_core = nest(exp, rest, key, env)?;
        Ok(Core::rc(
            CoreKind::If(test, then_core, else_core),
            clause.source,
        ))
    }
    let body = nest(exp, &elems[2..], &key, &inner)?;
    Ok(Core::rc(
        CoreKind::Let {
            inits: vec![key_init],
            body,
        },
        stx.source,
    ))
}

fn expand_when_unless(
    exp: &mut Expander,
    stx: &Rc<Syntax>,
    env: &CEnv,
    positive: bool,
) -> Result<Rc<Core>, ExpandError> {
    let elems = parts(stx);
    if elems.len() < 3 {
        return Err(bad("when/unless expect a test and a body", stx));
    }
    let test = exp.expand_expr(&elems[1], env)?;
    let body = expand_body(exp, &elems[2..], env, stx.source)?;
    let (t, e) = if positive {
        (body, unspecified())
    } else {
        (unspecified(), body)
    };
    Ok(Core::rc(CoreKind::If(test, t, e), stx.source))
}

fn expand_and(exp: &mut Expander, stx: &Rc<Syntax>, env: &CEnv) -> Result<Rc<Core>, ExpandError> {
    let elems = &parts(stx)[1..];
    fn nest(exp: &mut Expander, elems: &[Rc<Syntax>], env: &CEnv) -> Result<Rc<Core>, ExpandError> {
        match elems {
            [] => Ok(Core::rc(CoreKind::Const(Datum::Bool(true)), None)),
            [last] => exp.expand_expr(last, env),
            [first, rest @ ..] => {
                let test = exp.expand_expr(first, env)?;
                let then = nest(exp, rest, env)?;
                Ok(Core::rc(
                    CoreKind::If(
                        test,
                        then,
                        Core::rc(CoreKind::Const(Datum::Bool(false)), None),
                    ),
                    None,
                ))
            }
        }
    }
    nest(exp, elems, env)
}

fn expand_or(exp: &mut Expander, stx: &Rc<Syntax>, env: &CEnv) -> Result<Rc<Core>, ExpandError> {
    let elems = &parts(stx)[1..];
    fn nest(exp: &mut Expander, elems: &[Rc<Syntax>], env: &CEnv) -> Result<Rc<Core>, ExpandError> {
        match elems {
            [] => Ok(Core::rc(CoreKind::Const(Datum::Bool(false)), None)),
            [last] => exp.expand_expr(last, env),
            [first, rest @ ..] => {
                let t = hidden_ident("or");
                let init = exp.expand_expr(first, env)?;
                let inner = env.push(Scope {
                    entries: vec![entry_for(&t, BindKind::Var)],
                });
                let alt = nest(exp, rest, &inner)?;
                let body = Core::rc(CoreKind::If(lref(&inner, &t), lref(&inner, &t), alt), None);
                Ok(Core::rc(
                    CoreKind::Let {
                        inits: vec![init],
                        body,
                    },
                    None,
                ))
            }
        }
    }
    nest(exp, elems, env)
}

fn expand_syntax_template(
    exp: &mut Expander,
    stx: &Rc<Syntax>,
    env: &CEnv,
    quasi: bool,
) -> Result<Rc<Core>, ExpandError> {
    match parts(stx) {
        [_, tmpl] => compile_template(exp, tmpl, env, quasi),
        _ => Err(bad("syntax expects exactly one template", stx)),
    }
}

fn expand_quasiquote(
    exp: &mut Expander,
    stx: &Rc<Syntax>,
    env: &CEnv,
) -> Result<Rc<Core>, ExpandError> {
    let [_, tmpl] = parts(stx) else {
        return Err(bad("quasiquote expects exactly one template", stx));
    };
    build_qq(exp, tmpl, env, 0)
}

/// Quasiquote: like templates but producing plain runtime values.
fn build_qq(
    exp: &mut Expander,
    tmpl: &Rc<Syntax>,
    env: &CEnv,
    depth: u32,
) -> Result<Rc<Core>, ExpandError> {
    // Fast path: constant subtree.
    fn is_constant(t: &Syntax, depth: u32) -> bool {
        match &t.body {
            SyntaxBody::Atom(_) => true,
            SyntaxBody::List(elems) => {
                if let Some(head) = elems.first() {
                    if is_sym(head, "unquote") || is_sym(head, "unquote-splicing") {
                        if depth == 0 {
                            return false;
                        }
                        return elems[1..].iter().all(|e| is_constant(e, depth - 1));
                    }
                    if is_sym(head, "quasiquote") {
                        return elems[1..].iter().all(|e| is_constant(e, depth + 1));
                    }
                }
                // `(a . ,e)` reads as `(a unquote e)` — not constant at
                // depth 0.
                if depth == 0 && elems.len() >= 3 && is_sym(&elems[elems.len() - 2], "unquote") {
                    return false;
                }
                elems.iter().all(|e| is_constant(e, depth))
            }
            SyntaxBody::Improper(elems, tail) => {
                elems.iter().all(|e| is_constant(e, depth)) && is_constant(tail, depth)
            }
            SyntaxBody::Vector(elems) => elems.iter().all(|e| is_constant(e, depth)),
        }
    }
    if is_constant(tmpl, depth) {
        return Ok(Core::rc(CoreKind::Const(tmpl.to_datum()), tmpl.source));
    }
    match &tmpl.body {
        SyntaxBody::Atom(_) | SyntaxBody::Vector(_) => {
            Ok(Core::rc(CoreKind::Const(tmpl.to_datum()), tmpl.source))
        }
        SyntaxBody::List(elems) => {
            if let Some(head) = elems.first() {
                if is_sym(head, "unquote") && elems.len() == 2 {
                    if depth == 0 {
                        return exp.expand_expr(&elems[1], env);
                    }
                    let inner = build_qq(exp, &elems[1], env, depth - 1)?;
                    return Ok(call_support(
                        "%list",
                        vec![
                            Core::rc(CoreKind::Const(head.to_datum()), head.source),
                            inner,
                        ],
                        tmpl,
                    ));
                }
                if is_sym(head, "quasiquote") && elems.len() == 2 {
                    let inner = build_qq(exp, &elems[1], env, depth + 1)?;
                    return Ok(call_support(
                        "%list",
                        vec![
                            Core::rc(CoreKind::Const(head.to_datum()), head.source),
                            inner,
                        ],
                        tmpl,
                    ));
                }
            }
            // `(a b . ,e)` reads as `(a b unquote e)`: compile the prefix
            // as segments and the unquoted expression as the tail.
            if depth == 0 && elems.len() >= 3 && is_sym(&elems[elems.len() - 2], "unquote") {
                let j = elems.len() - 2;
                let mut args: Vec<Rc<Core>> = Vec::new();
                for e in &elems[..j] {
                    args.push(call_support(
                        "%list",
                        vec![build_qq(exp, e, env, depth)?],
                        tmpl,
                    ));
                }
                args.push(exp.expand_expr(&elems[j + 1], env)?);
                return Ok(call_support("%append", args, tmpl));
            }
            let mut segs: Vec<(bool, Rc<Core>)> = Vec::new();
            for e in elems {
                if depth == 0 {
                    if let SyntaxBody::List(sub) = &e.body {
                        if sub.len() == 2
                            && sub.first().is_some_and(|h| is_sym(h, "unquote-splicing"))
                        {
                            segs.push((true, exp.expand_expr(&sub[1], env)?));
                            continue;
                        }
                    }
                }
                segs.push((false, build_qq(exp, e, env, depth)?));
            }
            if segs.iter().all(|(splice, _)| !splice) {
                return Ok(call_support(
                    "%list",
                    segs.into_iter().map(|(_, c)| c).collect(),
                    tmpl,
                ));
            }
            let mut args: Vec<Rc<Core>> = segs
                .into_iter()
                .map(|(splice, c)| {
                    if splice {
                        c
                    } else {
                        call_support("%list", vec![c], tmpl)
                    }
                })
                .collect();
            args.push(Core::rc(CoreKind::Const(Datum::Nil), tmpl.source));
            Ok(call_support("%append", args, tmpl))
        }
        SyntaxBody::Improper(elems, tail) => {
            let mut args: Vec<Rc<Core>> = Vec::new();
            for e in elems {
                args.push(call_support(
                    "%list",
                    vec![build_qq(exp, e, env, depth)?],
                    tmpl,
                ));
            }
            args.push(build_qq(exp, tail, env, depth)?);
            Ok(call_support("%append", args, tmpl))
        }
    }
}

/// `(syntax-rules (lit …) [pattern template] …)` — the declarative
/// transformer sugar: desugars to `(lambda (stx) (syntax-case stx (lit …)
/// [pattern #'template] …))` and expands that.
fn expand_syntax_rules(
    exp: &mut Expander,
    stx: &Rc<Syntax>,
    env: &CEnv,
) -> Result<Rc<Core>, ExpandError> {
    let elems = parts(stx);
    if elems.len() < 2 {
        return Err(bad("syntax-rules expects a literals list", stx));
    }
    let stx_id = Rc::new(Syntax {
        body: plain_ident(Symbol::gensym("stx").as_str()).body,
        source: stx.source,
        marks: stx.marks.clone(),
    });
    let mut clauses: Vec<Rc<Syntax>> = Vec::with_capacity(elems.len() - 2);
    for clause in &elems[2..] {
        let Some([pattern, template]) = clause.as_list() else {
            return Err(bad(
                "syntax-rules clause must be [pattern template]",
                clause,
            ));
        };
        let wrapped = Syntax::list(
            vec![
                Rc::new(Syntax {
                    body: plain_ident("syntax").body,
                    source: template.source,
                    marks: template.marks.clone(),
                }),
                template.clone(),
            ],
            template.source,
        );
        clauses.push(Rc::new(Syntax::list(
            vec![pattern.clone(), Rc::new(wrapped)],
            clause.source,
        )));
    }
    let mut case_form = vec![
        Rc::new(Syntax {
            body: plain_ident("syntax-case").body,
            source: stx.source,
            marks: stx.marks.clone(),
        }),
        stx_id.clone(),
        elems[1].clone(),
    ];
    case_form.extend(clauses);
    let lambda = Syntax::list(
        vec![
            Rc::new(Syntax {
                body: plain_ident("lambda").body,
                source: stx.source,
                marks: stx.marks.clone(),
            }),
            Rc::new(Syntax::list(vec![stx_id], stx.source)),
            Rc::new(Syntax::list(case_form, stx.source)),
        ],
        stx.source,
    );
    exp.expand_expr(&Rc::new(lambda), env)
}

fn expand_syntax_case(
    exp: &mut Expander,
    stx: &Rc<Syntax>,
    env: &CEnv,
) -> Result<Rc<Core>, ExpandError> {
    let elems = parts(stx);
    if elems.len() < 3 {
        return Err(bad("syntax-case expects a scrutinee and literals", stx));
    }
    let scrutinee = exp.expand_expr(&elems[1], env)?;
    let lits: Vec<Symbol> = match elems[2].as_list() {
        Some(lits) => {
            let mut out = Vec::with_capacity(lits.len());
            for l in lits {
                out.push(
                    l.as_symbol()
                        .ok_or_else(|| bad("literal must be an identifier", l))?,
                );
            }
            out
        }
        None => return Err(bad("syntax-case literals must be a list", &elems[2])),
    };
    let scrut_id = hidden_ident("stx");
    let scrut_env = env.push(Scope {
        entries: vec![entry_for(&scrut_id, BindKind::Var)],
    });
    let body = compile_clauses(exp, &elems[3..], &lits, &scrut_id, &scrut_env)?;
    Ok(Core::rc(
        CoreKind::Let {
            inits: vec![scrutinee],
            body,
        },
        stx.source,
    ))
}

fn compile_clauses(
    exp: &mut Expander,
    clauses: &[Rc<Syntax>],
    lits: &[Symbol],
    scrut_id: &Syntax,
    env: &CEnv,
) -> Result<Rc<Core>, ExpandError> {
    let Some((clause, rest)) = clauses.split_first() else {
        return Ok(call_support(
            "%no-clause-matched",
            vec![lref(env, scrut_id)],
            scrut_id,
        ));
    };
    let Some(clause_elems) = clause.as_list() else {
        return Err(bad("syntax-case clause must be a list", clause));
    };
    let (pattern, fender, output) = match clause_elems {
        [p, o] => (p, None, o),
        [p, f, o] => (p, Some(f), o),
        _ => {
            return Err(bad(
                "syntax-case clause must be [pattern output] or [pattern fender output]",
                clause,
            ))
        }
    };
    let cp = compile_pattern(pattern, lits)?;
    let nvars = cp.vars.len();
    // Bind the raw match result (vector or #f).
    let match_id = hidden_ident("match");
    let match_env = env.push(Scope {
        entries: vec![entry_for(&match_id, BindKind::Var)],
    });
    let scrut = env.resolve(scrut_id).expect("hidden binder must resolve");
    let dispatch = Core::rc(
        CoreKind::SyntaxMatch {
            matcher: cp.matcher.clone(),
            depth: scrut.depth,
            index: scrut.index,
        },
        clause.source,
    );
    // Bind the pattern variables from the match vector.
    let var_entries: Vec<ScopeEntry> = cp
        .vars
        .iter()
        .enumerate()
        .map(|(i, v)| ScopeEntry {
            sym: v.id.as_symbol().expect("pattern var is identifier"),
            marks: v.id.marks.clone(),
            kind: cp.bind_kind(i),
        })
        .collect();
    let var_env = match_env.push(Scope {
        entries: var_entries,
    });
    // The variable initializers run in the Let's *enclosing* environment
    // (match_env), reading slots out of the match vector.
    let mut var_inits = Vec::with_capacity(nvars);
    for i in 0..nvars {
        var_inits.push(call_support(
            "%vector-ref",
            vec![
                lref(&match_env, &match_id),
                Core::rc(CoreKind::Const(Datum::Int(i as i64)), clause.source),
            ],
            clause,
        ));
    }
    let output_core = exp.expand_expr(output, &var_env)?;
    let clause_body = match fender {
        None => output_core,
        Some(f) => {
            let fender_core = exp.expand_expr(f, &var_env)?;
            // Fender failure falls through to the remaining clauses,
            // compiled at this depth.
            let fallback = compile_clauses(exp, rest, lits, scrut_id, &var_env)?;
            Core::rc(
                CoreKind::If(fender_core, output_core, fallback),
                clause.source,
            )
        }
    };
    let matched = Core::rc(
        CoreKind::Let {
            inits: var_inits,
            body: clause_body,
        },
        clause.source,
    );
    let next = compile_clauses(exp, rest, lits, scrut_id, &match_env)?;
    let test = Core::rc(
        CoreKind::If(lref(&match_env, &match_id), matched, next),
        clause.source,
    );
    Ok(Core::rc(
        CoreKind::Let {
            inits: vec![dispatch],
            body: test,
        },
        clause.source,
    ))
}
