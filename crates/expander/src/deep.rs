//! Source-to-source expansion: expand every macro but keep core forms.
//!
//! The walker here has two modes. Under [`Expander::expand_displayed`] it
//! *replays* a Core pass: every macro use that pass expanded is replaced
//! by the recorded output, so the printed expansion is what was compiled
//! and no transformer runs twice. Standalone,
//! [`Expander::expand_to_syntax`] runs the transformers itself — the
//! display-only path tests and examples use to inspect what a
//! profile-guided meta-program generated (e.g. that `case` produced the
//! reordered `cond` of Figure 8), and an independent reference for the
//! replay.

use crate::cenv::{entry_for, BindKind, CEnv, Scope};
use crate::error::ExpandError;
use crate::expander::Expander;
use pgmp_syntax::{Syntax, SyntaxBody};
use std::rc::Rc;

fn is_sym(stx: &Syntax, name: &str) -> bool {
    stx.as_symbol().is_some_and(|s| s.as_str() == name)
}

fn rebuild(stx: &Syntax, elems: Vec<Rc<Syntax>>) -> Rc<Syntax> {
    let mut out = Syntax::new(SyntaxBody::List(elems), stx.source);
    out.marks = stx.marks.clone();
    Rc::new(out)
}

/// Extends `env` with binders from a lambda-style parameter list.
fn bind_params(env: &CEnv, params: &Syntax) -> CEnv {
    let mut entries = Vec::new();
    match &params.body {
        SyntaxBody::Atom(_) if params.is_identifier() => {
            entries.push(entry_for(params, BindKind::Var));
        }
        SyntaxBody::List(elems) => {
            for e in elems {
                if e.is_identifier() {
                    entries.push(entry_for(e, BindKind::Var));
                }
            }
        }
        SyntaxBody::Improper(elems, tail) => {
            for e in elems.iter().chain(std::iter::once(tail)) {
                if e.is_identifier() {
                    entries.push(entry_for(e, BindKind::Var));
                }
            }
        }
        _ => {}
    }
    env.push(Scope { entries })
}

fn bind_let_bindings(env: &CEnv, bindings: &Syntax) -> CEnv {
    let mut entries = Vec::new();
    if let Some(elems) = bindings.as_list() {
        for b in elems {
            if let Some([name, _]) = b.as_list() {
                if name.is_identifier() {
                    entries.push(entry_for(name, BindKind::Var));
                }
            }
        }
    }
    env.push(Scope { entries })
}

impl Expander {
    /// Fully macro-expands a program, returning syntax rather than core
    /// code. `define-syntax` and `for-syntax` forms are processed (they
    /// affect the meta interpreter) and omitted from the output.
    ///
    /// # Errors
    ///
    /// Returns the first [`ExpandError`] encountered.
    pub fn expand_to_syntax(
        &mut self,
        program: &[Rc<Syntax>],
    ) -> Result<Vec<Rc<Syntax>>, ExpandError> {
        let mut out = Vec::new();
        for form in program {
            self.expand_toplevel_to_syntax(form.clone(), &mut out)?;
        }
        Ok(out)
    }

    pub(crate) fn expand_toplevel_to_syntax(
        &mut self,
        form: Rc<Syntax>,
        out: &mut Vec<Rc<Syntax>>,
    ) -> Result<(), ExpandError> {
        let env = CEnv::new();
        let form = self.macroexpand_head(form, &env)?;
        let head = form
            .as_list()
            .and_then(|e| e.first())
            .and_then(|h| h.as_symbol())
            .map(|s| s.as_str());
        match head {
            Some("begin") => {
                for sub in &form.as_list().expect("checked")[1..] {
                    self.expand_toplevel_to_syntax(sub.clone(), out)?;
                }
            }
            // Emit nothing; a replay's Core pass already evaluated these.
            Some("define-syntax" | "define-for-syntax" | "begin-for-syntax") => {
                if !self.replaying {
                    self.expand_program(&[form])?;
                }
            }
            _ => out.push(self.deep(&form, &env)?),
        }
        Ok(())
    }

    /// Recursively expands macros inside `stx`, leaving core forms intact.
    pub(crate) fn deep(&mut self, stx: &Rc<Syntax>, env: &CEnv) -> Result<Rc<Syntax>, ExpandError> {
        let stx = self.macroexpand_head(stx.clone(), env)?;
        let Some(elems) = stx.as_list() else {
            return Ok(stx);
        };
        let Some(head) = elems.first() else {
            return Ok(stx);
        };
        let head_special = head.as_symbol().filter(|_| env.resolve(head).is_none());
        let elems = elems.to_vec();
        let Some(sym) = head_special else {
            // Application (or shadowed head): expand every element.
            let parts: Result<Vec<Rc<Syntax>>, ExpandError> =
                elems.iter().map(|e| self.deep(e, env)).collect();
            return Ok(rebuild(&stx, parts?));
        };
        match sym.as_str() {
            // Opaque forms: no expansion inside.
            "quote" | "syntax" | "quasisyntax" | "quasiquote" => Ok(stx),
            "lambda" if elems.len() >= 3 => {
                let inner = bind_params(env, &elems[1]);
                self.deep_rest(&stx, &elems, 2, &inner)
            }
            "let" if elems.len() >= 3 && elems[1].is_identifier() => {
                // Named let.
                let loop_env = env.push(Scope {
                    entries: vec![entry_for(&elems[1], BindKind::Var)],
                });
                let inner = bind_let_bindings(&loop_env, &elems[2]);
                let bindings = self.deep_bindings(&elems[2], env)?;
                let mut parts = vec![elems[0].clone(), elems[1].clone(), bindings];
                for b in &elems[3..] {
                    parts.push(self.deep(b, &inner)?);
                }
                Ok(rebuild(&stx, parts))
            }
            "let" | "letrec" | "letrec*" if elems.len() >= 3 => {
                let inner = bind_let_bindings(env, &elems[1]);
                let binding_env = if sym.as_str() == "let" {
                    env.clone()
                } else {
                    inner.clone()
                };
                let bindings = self.deep_bindings(&elems[1], &binding_env)?;
                let mut parts = vec![elems[0].clone(), bindings];
                for b in &elems[2..] {
                    parts.push(self.deep(b, &inner)?);
                }
                Ok(rebuild(&stx, parts))
            }
            "let*" if elems.len() >= 3 => {
                // Bind progressively.
                let mut cur = env.clone();
                let mut new_bindings = Vec::new();
                if let Some(bs) = elems[1].as_list() {
                    for b in bs {
                        if let Some([name, value]) = b.as_list() {
                            let v = self.deep(value, &cur)?;
                            new_bindings.push(rebuild(b, vec![name.clone(), v]));
                            cur = cur.push(Scope {
                                entries: vec![entry_for(name, BindKind::Var)],
                            });
                        } else {
                            new_bindings.push(b.clone());
                        }
                    }
                }
                let bindings = rebuild(&elems[1], new_bindings);
                let mut parts = vec![elems[0].clone(), bindings];
                for b in &elems[2..] {
                    parts.push(self.deep(b, &cur)?);
                }
                Ok(rebuild(&stx, parts))
            }
            "define" if elems.len() >= 2 => {
                // Keep the header, expand the body/init.
                let inner = match elems[1].as_list() {
                    Some([_, ps @ ..]) => {
                        let params = Syntax::new(SyntaxBody::List(ps.to_vec()), elems[1].source);
                        bind_params(env, &params)
                    }
                    _ => env.clone(),
                };
                self.deep_rest(&stx, &elems, 2, &inner)
            }
            "cond" | "case" => {
                // Expand inside every clause (and the key for case).
                let mut parts = vec![elems[0].clone()];
                let mut rest = 1;
                if sym.as_str() == "case" && elems.len() >= 2 {
                    parts.push(self.deep(&elems[1], env)?);
                    rest = 2;
                }
                for clause in &elems[rest..] {
                    match clause.as_list() {
                        Some([lhs, body @ ..]) => {
                            let mut cparts = Vec::with_capacity(body.len() + 1);
                            // For cond, the lhs is an expression (unless
                            // `else`); for case it is a datum list.
                            if sym.as_str() == "cond" && !is_sym(lhs, "else") {
                                cparts.push(self.deep(lhs, env)?);
                            } else {
                                cparts.push(lhs.clone());
                            }
                            for b in body {
                                cparts.push(self.deep(b, env)?);
                            }
                            parts.push(rebuild(clause, cparts));
                        }
                        _ => parts.push(clause.clone()),
                    }
                }
                Ok(rebuild(&stx, parts))
            }
            _ => {
                // All other forms (if, begin, set!, when, and, or,
                // applications of core names used as procedures, …):
                // expand every subform after the head.
                self.deep_rest(&stx, &elems, 1, env)
            }
        }
    }

    fn deep_rest(
        &mut self,
        stx: &Syntax,
        elems: &[Rc<Syntax>],
        from: usize,
        env: &CEnv,
    ) -> Result<Rc<Syntax>, ExpandError> {
        let mut parts: Vec<Rc<Syntax>> = elems[..from].to_vec();
        for e in &elems[from..] {
            parts.push(self.deep(e, env)?);
        }
        Ok(rebuild(stx, parts))
    }

    fn deep_bindings(
        &mut self,
        bindings: &Rc<Syntax>,
        env: &CEnv,
    ) -> Result<Rc<Syntax>, ExpandError> {
        let Some(elems) = bindings.as_list() else {
            return Ok(bindings.clone());
        };
        let mut out = Vec::with_capacity(elems.len());
        for b in elems {
            match b.as_list() {
                Some([name, value]) => {
                    let v = self.deep(value, env)?;
                    out.push(rebuild(b, vec![name.clone(), v]));
                }
                _ => out.push(b.clone()),
            }
        }
        Ok(rebuild(bindings, out))
    }
}
