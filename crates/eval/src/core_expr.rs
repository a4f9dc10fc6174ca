//! The core expression language produced by the expander.
//!
//! Variables are resolved at expansion time to lexical addresses
//! `(depth, index)`, so hygiene questions never reach the evaluator. Every
//! node carries an optional [`SourceObject`] — its profile point — which is
//! all the profiler needs (§3.1: "each node in the AST of a program can be
//! associated with a unique profile point").

use crate::pattern::Matcher;
use pgmp_profiler::Counters;
use pgmp_syntax::{Datum, SourceObject, Symbol, Syntax};
use std::any::Any;
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// A core expression: node kind plus profile point.
#[derive(Clone, Debug)]
pub struct Core {
    /// The node.
    pub kind: CoreKind,
    /// Source object (profile point), if any.
    pub src: Option<SourceObject>,
    /// Cached dense counter slot for `src`, packed as
    /// `(map_id << 32) | slot` against a specific [`Counters`] registry
    /// (0 = unresolved — dense map ids start at 1). Interior-mutable so the
    /// instrumented interpreter resolves each node at most once and then
    /// bumps by vector index; revalidated against the live registry's map
    /// id, so a stale cache from a previously installed registry can never
    /// misdirect a count.
    pp_cache: Cell<u64>,
}

/// Node identity ignores the slot cache: two nodes are the same expression
/// if they have the same kind and source, whatever counters they last ran
/// under.
impl PartialEq for Core {
    fn eq(&self, other: &Core) -> bool {
        self.kind == other.kind && self.src == other.src
    }
}

impl Core {
    /// Creates a node.
    pub fn new(kind: CoreKind, src: Option<SourceObject>) -> Core {
        Core {
            kind,
            src,
            pp_cache: Cell::new(0),
        }
    }

    /// The cached dense slot for this node, if it was resolved against the
    /// registry identified by `map_id`.
    #[inline]
    pub fn cached_slot(&self, map_id: u32) -> Option<u32> {
        let packed = self.pp_cache.get();
        if (packed >> 32) as u32 == map_id {
            Some(packed as u32)
        } else {
            None
        }
    }

    /// Caches `slot` as this node's dense slot under registry `map_id`.
    #[inline]
    pub fn cache_slot(&self, map_id: u32, slot: u32) {
        self.pp_cache.set(((map_id as u64) << 32) | slot as u64);
    }

    /// Convenience constructor wrapping in `Rc`.
    pub fn rc(kind: CoreKind, src: Option<SourceObject>) -> Rc<Core> {
        Rc::new(Core::new(kind, src))
    }

    /// Walks the tree, calling `f` on every node (preorder).
    pub fn walk(&self, f: &mut impl FnMut(&Core)) {
        f(self);
        match &self.kind {
            CoreKind::Const(_)
            | CoreKind::SyntaxConst(_)
            | CoreKind::LocalRef { .. }
            | CoreKind::GlobalRef(_)
            | CoreKind::SyntaxMatch { .. } => {}
            CoreKind::SetLocal { value, .. } | CoreKind::SetGlobal(_, value) => value.walk(f),
            CoreKind::If(c, t, e) => {
                c.walk(f);
                t.walk(f);
                e.walk(f);
            }
            CoreKind::Lambda(def) => def.body.walk(f),
            CoreKind::Call { func, args } => {
                func.walk(f);
                args.iter().for_each(|a| a.walk(f));
            }
            CoreKind::Seq(es) => es.iter().for_each(|e| e.walk(f)),
            CoreKind::Let { inits, body } | CoreKind::LetRec { inits, body } => {
                inits.iter().for_each(|e| e.walk(f));
                body.walk(f);
            }
            CoreKind::DefineGlobal(_, value) => value.walk(f),
        }
    }

    /// Counts nodes in the tree; handy for compile-size assertions.
    pub fn size(&self) -> usize {
        let mut n = 0;
        self.walk(&mut |_| n += 1);
        n
    }
}

/// Eagerly resolves the dense counter slot of every node in `root` that
/// carries a source object, caching it on the node. After this, an
/// instrumented run against `counters` never takes the resolve path — the
/// point is "resolved at instrumentation time", and every bump is a vector
/// index.
pub fn resolve_profile_slots(root: &Core, counters: &Counters) {
    let map_id = counters.map_id();
    root.walk(&mut |node| {
        if let Some(src) = node.src {
            if node.cached_slot(map_id).is_none() {
                node.cache_slot(map_id, counters.resolve(src));
            }
        }
    });
}

/// Core expression node kinds.
#[derive(Clone, Debug, PartialEq)]
pub enum CoreKind {
    /// Self-evaluating constant / quoted datum.
    Const(Datum),
    /// A constant syntax object (the residue of `#'template` fragments that
    /// contain no pattern variables).
    SyntaxConst(Rc<Syntax>),
    /// Lexical variable reference by frame depth and slot index.
    LocalRef {
        /// How many frames up.
        depth: u16,
        /// Slot within that frame.
        index: u16,
    },
    /// Global (top-level) variable reference.
    GlobalRef(Symbol),
    /// `set!` of a lexical variable.
    SetLocal {
        /// How many frames up.
        depth: u16,
        /// Slot within that frame.
        index: u16,
        /// New value.
        value: Rc<Core>,
    },
    /// `set!` of a global variable.
    SetGlobal(Symbol, Rc<Core>),
    /// Two-armed conditional.
    If(Rc<Core>, Rc<Core>, Rc<Core>),
    /// Procedure abstraction.
    Lambda(Rc<LambdaDef>),
    /// Procedure application.
    Call {
        /// Operator.
        func: Rc<Core>,
        /// Operands, left to right.
        args: Vec<Rc<Core>>,
    },
    /// Sequencing; value of the last expression.
    Seq(Vec<Rc<Core>>),
    /// `let`: one new frame, initializers evaluated in the *enclosing*
    /// environment.
    Let {
        /// Slot initializers.
        inits: Vec<Rc<Core>>,
        /// Body, evaluated with the new frame pushed.
        body: Rc<Core>,
    },
    /// `letrec*`: one new frame whose slots start unspecified;
    /// initializers are evaluated *inside* the new frame and assigned in
    /// order. Used for `letrec`, `letrec*`, and internal definitions.
    LetRec {
        /// Slot initializers, evaluated left to right in the new frame.
        inits: Vec<Rc<Core>>,
        /// Body.
        body: Rc<Core>,
    },
    /// Top-level `define`.
    DefineGlobal(Symbol, Rc<Core>),
    /// A `syntax-case` clause test: matches the syntax object in the
    /// local variable at `(depth, index)` against `matcher`. The value is
    /// a vector of the pattern variables' bindings, or `#f`. Calls-only
    /// profiling counts it as a call.
    SyntaxMatch {
        /// The clause's compiled pattern.
        matcher: Rc<Matcher>,
        /// How many frames up the scrutinee is.
        depth: u16,
        /// The scrutinee's slot within that frame.
        index: u16,
    },
}

impl CoreKind {
    /// True for leaves: constants and variable references, which evaluate
    /// without evaluating a subexpression.
    #[inline]
    pub(crate) fn is_leaf(&self) -> bool {
        matches!(
            self,
            CoreKind::Const(_)
                | CoreKind::SyntaxConst(_)
                | CoreKind::LocalRef { .. }
                | CoreKind::GlobalRef(_)
        )
    }
}

/// Code an executor compiled from a [`LambdaDef`]'s body, kept on the def
/// so that it lives and dies with it: built at the first call, replaced
/// when the executor re-lays it out, freed with the def. The bytecode VM
/// keeps its chunk here; the tree walker needs none.
///
/// A clone of a def starts with an empty slot, and equality and `Debug`
/// ignore the slot, as [`Core`]'s slot cache is ignored.
#[derive(Default)]
pub struct CodeSlot(RefCell<Option<Rc<dyn Any>>>);

impl CodeSlot {
    /// Calls `f` with the code in the slot, if there is code of type `T`.
    #[inline]
    pub fn with<T: Any, R>(&self, f: impl FnOnce(&T) -> R) -> Option<R> {
        let code = self.0.borrow();
        Some(f(code.as_ref()?.downcast_ref::<T>()?))
    }

    /// The code in the slot, if there is code of type `T`.
    pub fn get<T: Any>(&self) -> Option<Rc<T>> {
        self.0.borrow().clone()?.downcast::<T>().ok()
    }

    /// Puts `code` in the slot, replacing what was there.
    pub fn set<T: Any>(&self, code: Rc<T>) {
        *self.0.borrow_mut() = Some(code);
    }
}

impl Clone for CodeSlot {
    fn clone(&self) -> CodeSlot {
        CodeSlot::default()
    }
}

impl PartialEq for CodeSlot {
    fn eq(&self, _: &CodeSlot) -> bool {
        true
    }
}

impl std::fmt::Debug for CodeSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("CodeSlot")
    }
}

/// A compiled `lambda`.
#[derive(Clone, Debug, PartialEq)]
pub struct LambdaDef {
    /// Number of required parameters.
    pub params: u16,
    /// Whether extra arguments are collected into a rest list.
    pub variadic: bool,
    /// Body expression; parameters occupy slots `0..params` (+ rest slot).
    pub body: Rc<Core>,
    /// Name for diagnostics, when known (e.g. from `define`).
    pub name: Option<Symbol>,
    /// Source object of the `lambda` form.
    pub src: Option<SourceObject>,
    /// The body compiled by an executor, once one has run it.
    pub code: CodeSlot,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn konst(n: i64) -> Rc<Core> {
        Core::rc(CoreKind::Const(Datum::Int(n)), None)
    }

    #[test]
    fn walk_visits_every_node() {
        let e = Core::new(
            CoreKind::If(konst(1), konst(2), konst(3)),
            Some(SourceObject::new("t.scm", 0, 1)),
        );
        let mut count = 0;
        e.walk(&mut |_| count += 1);
        assert_eq!(count, 4);
        assert_eq!(e.size(), 4);
    }

    #[test]
    fn walk_descends_into_lambdas_and_lets() {
        let lam = Core::new(
            CoreKind::Lambda(Rc::new(LambdaDef {
                params: 1,
                variadic: false,
                body: konst(7),
                name: None,
                src: None,
                code: Default::default(),
            })),
            None,
        );
        assert_eq!(lam.size(), 2);
        let letrec = Core::new(
            CoreKind::LetRec {
                inits: vec![konst(1), konst(2)],
                body: konst(3),
            },
            None,
        );
        assert_eq!(letrec.size(), 4);
    }
}
