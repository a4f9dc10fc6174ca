//! Compiled `syntax-case` patterns.
//!
//! The expander compiles each `syntax-case` pattern once, when it expands
//! the form, into a [`Matcher`]: a typed [`Pattern`] tree plus the number
//! of pattern-variable slots it binds. The Core node that tests a clause
//! ([`crate::CoreKind::SyntaxMatch`]) owns its matcher, so the matcher
//! lives and dies with the code that runs it, and both executors run the
//! same [`Matcher::dispatch`].
//!
//! Matching walks the scrutinee's `Rc<Syntax>` nodes and binds each
//! variable to a shared node, never a copy. A variable under `k` ellipses
//! binds a `k`-deep nest of lists. Session files store a matcher in the
//! spec encoding of [`crate::serialize`], and loading rebuilds it.

use crate::error::EvalError;
use crate::value::Value;
use pgmp_syntax::{Datum, Symbol, Syntax, SyntaxBody};
use std::cell::RefCell;
use std::rc::Rc;

/// One node of a compiled pattern.
#[derive(Clone, Debug, PartialEq)]
pub enum Pattern {
    /// `_`: matches anything, binds nothing.
    Any,
    /// A pattern variable: binds the matched node to slot `n`.
    Var(u16),
    /// A literal identifier: matches an identifier of the same name.
    Lit(Symbol),
    /// A constant: matches an `equal?` datum.
    Const(Datum),
    /// A proper list of exactly these elements.
    List(Box<[Pattern]>),
    /// A dotted pattern `(p … . tail)`: the leading elements, then the
    /// tail against whatever follows them, proper or improper.
    Dotted(Box<[Pattern]>, Box<Pattern>),
    /// `(pre … head ... post …)`: a proper list whose middle elements all
    /// match `head`; `slots` are the variable slots inside `head`.
    Ellipsis {
        /// Elements before the repeated one.
        pre: Box<[Pattern]>,
        /// The repeated element.
        head: Box<Pattern>,
        /// Elements after the repetition.
        post: Box<[Pattern]>,
        /// The variable slots `head` binds, each collected into a list.
        slots: Box<[u16]>,
    },
}

impl Pattern {
    /// Calls `f` on every slot this pattern names: each `Var`, and each
    /// slot an ellipsis collects.
    fn for_each_slot(&self, f: &mut impl FnMut(u16)) {
        match self {
            Pattern::Any | Pattern::Lit(_) | Pattern::Const(_) => {}
            Pattern::Var(n) => f(*n),
            Pattern::List(ps) => ps.iter().for_each(|p| p.for_each_slot(f)),
            Pattern::Dotted(ps, tail) => {
                ps.iter().for_each(|p| p.for_each_slot(f));
                tail.for_each_slot(f);
            }
            Pattern::Ellipsis {
                pre,
                head,
                post,
                slots,
            } => {
                pre.iter().for_each(|p| p.for_each_slot(f));
                head.for_each_slot(f);
                post.iter().for_each(|p| p.for_each_slot(f));
                slots.iter().copied().for_each(f);
            }
        }
    }

    fn matches(&self, stx: &Rc<Syntax>, binds: &mut [Value]) -> bool {
        match self {
            Pattern::Any => true,
            Pattern::Var(n) => {
                binds[*n as usize] = Value::Syntax(stx.clone());
                true
            }
            Pattern::Lit(name) => stx.as_symbol() == Some(*name),
            Pattern::Const(d) => match &stx.body {
                SyntaxBody::Atom(a) => a.equal(d),
                _ => stx.to_datum().equal(d),
            },
            Pattern::List(ps) => stx
                .as_list()
                .is_some_and(|elems| all_match(ps, elems, binds)),
            Pattern::Dotted(ps, tail) => {
                let n = ps.len();
                let rest = match &stx.body {
                    SyntaxBody::List(elems) if elems.len() >= n => {
                        if !all_match(ps, &elems[..n], binds) {
                            return false;
                        }
                        SyntaxBody::List(elems[n..].to_vec())
                    }
                    SyntaxBody::Improper(elems, end) if elems.len() >= n => {
                        if !all_match(ps, &elems[..n], binds) {
                            return false;
                        }
                        if elems.len() == n {
                            return tail.matches(end, binds);
                        }
                        SyntaxBody::Improper(elems[n..].to_vec(), end.clone())
                    }
                    _ => return false,
                };
                if **tail == Pattern::Any {
                    return true;
                }
                // The rest is a node of the scrutinee's own list, so it
                // carries the list's source and marks, as its elements do.
                let rest = Rc::new(Syntax {
                    body: rest,
                    source: stx.source,
                    marks: stx.marks.clone(),
                });
                tail.matches(&rest, binds)
            }
            Pattern::Ellipsis {
                pre,
                head,
                post,
                slots,
            } => {
                let Some(elems) = stx.as_list() else {
                    return false;
                };
                if elems.len() < pre.len() + post.len() {
                    return false;
                }
                let (pre_elems, rest) = elems.split_at(pre.len());
                let (mid, post_elems) = rest.split_at(rest.len() - post.len());
                if !all_match(pre, pre_elems, binds) {
                    return false;
                }
                let mut acc: Vec<Vec<Value>> = (0..slots.len())
                    .map(|_| Vec::with_capacity(mid.len()))
                    .collect();
                for e in mid {
                    if !head.matches(e, binds) {
                        return false;
                    }
                    for (k, &s) in slots.iter().enumerate() {
                        let v = std::mem::replace(&mut binds[s as usize], Value::Unspecified);
                        acc[k].push(v);
                    }
                }
                for (k, &s) in slots.iter().enumerate() {
                    binds[s as usize] = Value::list(std::mem::take(&mut acc[k]));
                }
                all_match(post, post_elems, binds)
            }
        }
    }
}

fn all_match(ps: &[Pattern], elems: &[Rc<Syntax>], binds: &mut [Value]) -> bool {
    ps.len() == elems.len() && ps.iter().zip(elems).all(|(p, e)| p.matches(e, binds))
}

/// A compiled pattern: its tree and the number of variable slots it binds.
#[derive(Clone, Debug, PartialEq)]
pub struct Matcher {
    /// Names only slots below `nvars`.
    pub(crate) pattern: Pattern,
    pub(crate) nvars: u16,
}

impl Matcher {
    /// A matcher for `pattern`, whose variables occupy slots `0..nvars`.
    ///
    /// # Errors
    ///
    /// Rejects a pattern that names a slot outside `0..nvars`.
    pub fn new(pattern: Pattern, nvars: u16) -> Result<Matcher, String> {
        let mut bad = None;
        pattern.for_each_slot(&mut |n| {
            if n >= nvars {
                bad = Some(n);
            }
        });
        match bad {
            Some(n) => Err(format!("pattern slot {n} out of range 0..{nvars}")),
            None => Ok(Matcher { pattern, nvars }),
        }
    }

    /// Matches `stx`; on success returns one binding per slot.
    pub fn matches(&self, stx: &Rc<Syntax>) -> Option<Vec<Value>> {
        let mut binds = vec![Value::Unspecified; self.nvars as usize];
        self.pattern.matches(stx, &mut binds).then_some(binds)
    }

    /// The value of a `syntax-case` clause test on `scrutinee`: a vector
    /// of the bindings when it matches, `#f` when it does not.
    ///
    /// # Errors
    ///
    /// Fails when `scrutinee` is not a syntax object.
    pub fn dispatch(&self, scrutinee: &Value) -> Result<Value, EvalError> {
        let Value::Syntax(stx) = scrutinee else {
            return Err(EvalError::type_error("syntax", scrutinee));
        };
        Ok(match self.matches(stx) {
            Some(binds) => Value::Vector(Rc::new(RefCell::new(binds))),
            None => Value::Bool(false),
        })
    }
}
