//! Syntax templates: `#'tmpl` and `` #`tmpl `` with `#,` / `#,@`.
//!
//! A template compiles to [`Core`] code that, when the transformer runs,
//! builds the output syntax object: pattern variables are read from their
//! slots, ellipses become `%map` loops, `unsyntax` escapes are compiled as
//! ordinary expressions, and the finished value tree is converted to syntax
//! by `%value->syntax` in the context of the template itself (so introduced
//! atoms inherit the template's source and marks).

use crate::cenv::{BindKind, CEnv, Scope, ScopeEntry};
use crate::error::{ExpandError, ExpandErrorKind};
use crate::expander::Expander;
use pgmp_eval::{Core, CoreKind, LambdaDef};
use pgmp_syntax::{MarkSet, Symbol, Syntax, SyntaxBody};
use std::rc::Rc;

fn is_sym(stx: &Syntax, name: &str) -> bool {
    stx.as_symbol().is_some_and(|s| s.as_str() == name)
}

fn bad(msg: impl Into<String>, stx: &Syntax) -> ExpandError {
    ExpandError::new(ExpandErrorKind::BadPattern, msg).with_src(stx.source)
}

pub(crate) fn call_support(name: &'static str, args: Vec<Rc<Core>>, stx: &Syntax) -> Rc<Core> {
    Core::rc(
        CoreKind::Call {
            func: Core::rc(CoreKind::GlobalRef(Symbol::intern(name)), None),
            args,
        },
        stx.source,
    )
}

fn pattern_var_depth(env: &CEnv, id: &Syntax) -> Option<u8> {
    match env.resolve(id) {
        Some(r) => match r.kind {
            BindKind::PatternVar(d) => Some(d),
            BindKind::Var => None,
        },
        None => None,
    }
}

fn local_ref(env: &CEnv, id: &Syntax) -> Rc<Core> {
    let r = env.resolve(id).expect("pattern variable resolved twice");
    Core::rc(
        CoreKind::LocalRef {
            depth: r.depth,
            index: r.index,
        },
        id.source,
    )
}

/// True when the template mentions no pattern variables or unsyntax
/// escapes — such templates compile to a single `SyntaxConst`.
fn is_constant(tmpl: &Syntax, env: &CEnv, quasi: bool, qdepth: u32) -> bool {
    match &tmpl.body {
        SyntaxBody::Atom(_) => !(tmpl.is_identifier() && pattern_var_depth(env, tmpl).is_some()),
        SyntaxBody::List(elems) => {
            if quasi {
                if let Some(head) = elems.first() {
                    if is_sym(head, "unsyntax") || is_sym(head, "unsyntax-splicing") {
                        if qdepth == 0 {
                            return false;
                        }
                        return elems[1..]
                            .iter()
                            .all(|e| is_constant(e, env, quasi, qdepth - 1));
                    }
                    if is_sym(head, "quasisyntax") {
                        return elems[1..]
                            .iter()
                            .all(|e| is_constant(e, env, quasi, qdepth + 1));
                    }
                }
            }
            if elems.first().is_some_and(|h| is_sym(h, "...")) {
                return true; // (... escaped) is literal
            }
            elems.iter().all(|e| is_constant(e, env, quasi, qdepth))
        }
        SyntaxBody::Improper(elems, tail) => {
            elems.iter().all(|e| is_constant(e, env, quasi, qdepth))
                && is_constant(tail, env, quasi, qdepth)
        }
        SyntaxBody::Vector(elems) => elems.iter().all(|e| is_constant(e, env, quasi, qdepth)),
    }
}

/// Compiles a template into code producing a syntax object.
///
/// `quasi` selects `quasisyntax` semantics (honouring `unsyntax`).
pub(crate) fn compile_template(
    exp: &mut Expander,
    tmpl: &Rc<Syntax>,
    env: &CEnv,
    quasi: bool,
) -> Result<Rc<Core>, ExpandError> {
    if is_constant(tmpl, env, quasi, 0) {
        return Ok(Core::rc(CoreKind::SyntaxConst(tmpl.clone()), tmpl.source));
    }
    let item = build_item(exp, tmpl, env, quasi, 0)?;
    Ok(call_support(
        "%value->syntax",
        vec![
            Core::rc(CoreKind::SyntaxConst(tmpl.clone()), tmpl.source),
            item,
        ],
        tmpl,
    ))
}

/// One element of a list template: either a single item or a spliced list.
enum Segment {
    Item(Rc<Core>),
    Splice(Rc<Core>),
}

fn segments_to_core(segs: Vec<Segment>, stx: &Syntax, tail: Option<Rc<Core>>) -> Rc<Core> {
    let all_items = segs.iter().all(|s| matches!(s, Segment::Item(_))) && tail.is_none();
    if all_items {
        let items = segs
            .into_iter()
            .map(|s| match s {
                Segment::Item(c) => c,
                Segment::Splice(_) => unreachable!(),
            })
            .collect();
        return call_support("%list", items, stx);
    }
    let mut args: Vec<Rc<Core>> = segs
        .into_iter()
        .map(|s| match s {
            Segment::Item(c) => call_support("%list", vec![c], stx),
            Segment::Splice(c) => c,
        })
        .collect();
    args.push(
        tail.unwrap_or_else(|| Core::rc(CoreKind::Const(pgmp_syntax::Datum::Nil), stx.source)),
    );
    call_support("%append", args, stx)
}

fn build_item(
    exp: &mut Expander,
    tmpl: &Rc<Syntax>,
    env: &CEnv,
    quasi: bool,
    qdepth: u32,
) -> Result<Rc<Core>, ExpandError> {
    match &tmpl.body {
        SyntaxBody::Atom(_) => {
            if tmpl.is_identifier() {
                if let Some(d) = pattern_var_depth(env, tmpl) {
                    if d > 0 {
                        return Err(bad(
                            format!(
                                "pattern variable `{}` of ellipsis depth {d} used without enough ellipses",
                                tmpl.as_symbol().expect("identifier")
                            ),
                            tmpl,
                        ));
                    }
                    return Ok(local_ref(env, tmpl));
                }
            }
            Ok(Core::rc(CoreKind::SyntaxConst(tmpl.clone()), tmpl.source))
        }
        SyntaxBody::Vector(_) => Err(ExpandError::new(
            ExpandErrorKind::Unsupported,
            "vector templates are not supported (see DESIGN.md)",
        )
        .with_src(tmpl.source)),
        SyntaxBody::List(elems) => {
            if let Some(head) = elems.first() {
                // `(... t)` escapes ellipsis interpretation.
                if is_sym(head, "...") && elems.len() == 2 {
                    return Ok(Core::rc(
                        CoreKind::SyntaxConst(elems[1].clone()),
                        tmpl.source,
                    ));
                }
                if quasi && is_sym(head, "unsyntax") && elems.len() == 2 {
                    if qdepth == 0 {
                        return exp.expand_expr(&elems[1], env);
                    }
                    let inner = build_item(exp, &elems[1], env, quasi, qdepth - 1)?;
                    let segs = vec![
                        Segment::Item(Core::rc(CoreKind::SyntaxConst(head.clone()), head.source)),
                        Segment::Item(inner),
                    ];
                    return Ok(segments_to_core(segs, tmpl, None));
                }
                if quasi && is_sym(head, "quasisyntax") && elems.len() == 2 {
                    let inner = build_item(exp, &elems[1], env, quasi, qdepth + 1)?;
                    let segs = vec![
                        Segment::Item(Core::rc(CoreKind::SyntaxConst(head.clone()), head.source)),
                        Segment::Item(inner),
                    ];
                    return Ok(segments_to_core(segs, tmpl, None));
                }
            }
            let segs = build_segments(exp, elems, env, quasi, qdepth, tmpl)?;
            Ok(segments_to_core(segs, tmpl, None))
        }
        SyntaxBody::Improper(elems, tail) => {
            let segs = build_segments(exp, elems, env, quasi, qdepth, tmpl)?;
            let tail_core = build_item(exp, tail, env, quasi, qdepth)?;
            Ok(segments_to_core(segs, tmpl, Some(tail_core)))
        }
    }
}

fn build_segments(
    exp: &mut Expander,
    elems: &[Rc<Syntax>],
    env: &CEnv,
    quasi: bool,
    qdepth: u32,
    whole: &Syntax,
) -> Result<Vec<Segment>, ExpandError> {
    let mut segs = Vec::new();
    let mut i = 0;
    while i < elems.len() {
        let e = &elems[i];
        let followed_by_ellipsis = elems.get(i + 1).is_some_and(|n| is_sym(n, "..."));
        if is_sym(e, "...") {
            return Err(bad("misplaced ellipsis in template", whole));
        }
        if followed_by_ellipsis {
            segs.push(ellipsis_segment(exp, e, env, quasi, qdepth)?);
            i += 2;
            continue;
        }
        // (unsyntax-splicing e) as a list element splices.
        if quasi && qdepth == 0 {
            if let SyntaxBody::List(parts) = &e.body {
                if parts.len() == 2
                    && parts
                        .first()
                        .is_some_and(|h| is_sym(h, "unsyntax-splicing"))
                {
                    segs.push(Segment::Splice(exp.expand_expr(&parts[1], env)?));
                    i += 1;
                    continue;
                }
            }
        }
        segs.push(Segment::Item(build_item(exp, e, env, quasi, qdepth)?));
        i += 1;
    }
    Ok(segs)
}

/// Collects the pattern variables of positive remaining depth mentioned in
/// `t` (deduplicated by identifier identity).
fn collect_deep_vars(t: &Syntax, env: &CEnv, out: &mut Vec<(Syntax, u8)>) {
    match &t.body {
        SyntaxBody::Atom(_) => {
            if t.is_identifier() {
                if let Some(d) = pattern_var_depth(env, t) {
                    if d > 0 && !out.iter().any(|(id, _)| id.bound_identifier_eq(t)) {
                        out.push((t.clone(), d));
                    }
                }
            }
        }
        SyntaxBody::List(elems) => {
            // Skip `(... escaped)` blocks.
            if elems.first().is_some_and(|h| is_sym(h, "...")) && elems.len() == 2 {
                return;
            }
            elems.iter().for_each(|e| collect_deep_vars(e, env, out));
        }
        SyntaxBody::Improper(elems, tail) => {
            elems.iter().for_each(|e| collect_deep_vars(e, env, out));
            collect_deep_vars(tail, env, out);
        }
        SyntaxBody::Vector(elems) => elems.iter().for_each(|e| collect_deep_vars(e, env, out)),
    }
}

fn ellipsis_segment(
    exp: &mut Expander,
    sub: &Rc<Syntax>,
    env: &CEnv,
    quasi: bool,
    qdepth: u32,
) -> Result<Segment, ExpandError> {
    let mut vars = Vec::new();
    collect_deep_vars(sub, env, &mut vars);
    if vars.is_empty() {
        return Err(bad("ellipsis template contains no pattern variable", sub));
    }
    // Fast path: `v ...` where v is itself a pattern variable list.
    if sub.is_identifier() && vars.len() == 1 && vars[0].0.bound_identifier_eq(sub) {
        return Ok(Segment::Splice(local_ref(env, sub)));
    }
    // General: map a generated lambda over the variables' lists.
    let entries: Vec<ScopeEntry> = vars
        .iter()
        .map(|(id, d)| ScopeEntry {
            sym: id.as_symbol().expect("pattern var is identifier"),
            marks: id.marks.clone(),
            kind: BindKind::PatternVar(d - 1),
        })
        .collect();
    let inner_env = env.push(Scope { entries });
    let body = build_item(exp, sub, &inner_env, quasi, qdepth)?;
    let lambda = Core::rc(
        CoreKind::Lambda(Rc::new(LambdaDef {
            params: vars.len() as u16,
            variadic: false,
            body,
            name: Some(Symbol::intern("%ellipsis-template")),
            src: sub.source,
            code: Default::default(),
        })),
        sub.source,
    );
    let mut args = vec![lambda];
    for (id, _) in &vars {
        args.push(local_ref(env, id));
    }
    Ok(Segment::Splice(call_support("%map", args, sub)))
}

/// Returns an identifier with no marks for internal use.
pub(crate) fn plain_ident(name: &str) -> Syntax {
    Syntax {
        body: SyntaxBody::Atom(pgmp_syntax::Datum::sym(name)),
        source: None,
        marks: MarkSet::new(),
    }
}
