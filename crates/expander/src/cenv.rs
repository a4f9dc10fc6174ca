//! Compile-time environments: lexical addressing with hygiene-aware lookup.

use pgmp_syntax::{MarkSet, Symbol, Syntax};

/// What kind of thing a lexical binding is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BindKind {
    /// An ordinary variable.
    Var,
    /// A `syntax-case` pattern variable with the given ellipsis depth.
    PatternVar(u8),
}

/// One binding: identifier identity (symbol + marks) plus kind.
#[derive(Clone, Debug)]
pub struct ScopeEntry {
    /// Bound name.
    pub sym: Symbol,
    /// Hygiene marks of the binder occurrence.
    pub marks: MarkSet,
    /// Kind of binding.
    pub kind: BindKind,
}

/// One compile-time scope, mirroring exactly one runtime frame.
#[derive(Clone, Debug, Default)]
pub struct Scope {
    /// Entries; slot `i` of the runtime frame holds `entries[i]`.
    pub entries: Vec<ScopeEntry>,
}

/// A resolved lexical reference.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LexicalRef {
    /// Frames up from the use site.
    pub depth: u16,
    /// Slot within that frame.
    pub index: u16,
    /// Binding kind.
    pub kind: BindKind,
}

/// The compile-time environment: a stack of scopes, innermost last.
///
/// Lookup compares `(symbol, marks)` for exact equality — the
/// mark-discipline described in the crate docs makes this sufficient:
/// macro-introduced identifiers carry the invocation mark, user identifiers
/// do not, so neither can capture the other.
#[derive(Clone, Debug, Default)]
pub struct CEnv {
    scopes: Vec<Scope>,
}

impl CEnv {
    /// The empty environment (only globals visible).
    pub fn new() -> CEnv {
        CEnv::default()
    }

    /// Returns a new environment with `scope` pushed innermost.
    pub fn push(&self, scope: Scope) -> CEnv {
        let mut scopes = self.scopes.clone();
        scopes.push(scope);
        CEnv { scopes }
    }

    /// True if no scopes are present.
    pub fn is_empty(&self) -> bool {
        self.scopes.is_empty()
    }

    /// Number of scopes.
    pub fn depth(&self) -> usize {
        self.scopes.len()
    }

    /// Resolves identifier `id`, innermost scope first. Within a scope the
    /// *last* matching entry wins, so later parameters shadow earlier ones.
    pub fn resolve(&self, id: &Syntax) -> Option<LexicalRef> {
        let sym = id.as_symbol()?;
        for (depth, scope) in self.scopes.iter().rev().enumerate() {
            for (index, entry) in scope.entries.iter().enumerate().rev() {
                if entry.sym == sym && entry.marks == id.marks {
                    return Some(LexicalRef {
                        depth: depth as u16,
                        index: index as u16,
                        kind: entry.kind,
                    });
                }
            }
        }
        None
    }
}

/// Builds a scope entry from a binder identifier.
pub fn entry_for(id: &Syntax, kind: BindKind) -> ScopeEntry {
    ScopeEntry {
        sym: id.as_symbol().expect("binder must be an identifier"),
        marks: id.marks.clone(),
        kind,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgmp_syntax::Mark;

    fn ident(name: &str) -> Syntax {
        Syntax::ident(name, None)
    }

    #[test]
    fn innermost_scope_wins() {
        let x_outer = ident("x");
        let x_inner = ident("x");
        let env = CEnv::new()
            .push(Scope {
                entries: vec![entry_for(&x_outer, BindKind::Var)],
            })
            .push(Scope {
                entries: vec![entry_for(&x_inner, BindKind::Var)],
            });
        let r = env.resolve(&ident("x")).unwrap();
        assert_eq!((r.depth, r.index), (0, 0));
    }

    #[test]
    fn outer_scope_reachable() {
        let env = CEnv::new()
            .push(Scope {
                entries: vec![entry_for(&ident("x"), BindKind::Var)],
            })
            .push(Scope {
                entries: vec![entry_for(&ident("y"), BindKind::Var)],
            });
        let r = env.resolve(&ident("x")).unwrap();
        assert_eq!((r.depth, r.index), (1, 0));
    }

    #[test]
    fn marks_must_match_exactly() {
        let marked = ident("t").apply_mark(Mark(1));
        let env = CEnv::new().push(Scope {
            entries: vec![entry_for(&marked, BindKind::Var)],
        });
        assert!(
            env.resolve(&ident("t")).is_none(),
            "unmarked use misses marked binder"
        );
        assert!(
            env.resolve(&marked).is_some(),
            "marked use hits marked binder"
        );
    }

    #[test]
    fn later_entries_shadow_within_scope() {
        let env = CEnv::new().push(Scope {
            entries: vec![
                entry_for(&ident("a"), BindKind::Var),
                entry_for(&ident("a"), BindKind::PatternVar(1)),
            ],
        });
        let r = env.resolve(&ident("a")).unwrap();
        assert_eq!(r.index, 1);
        assert_eq!(r.kind, BindKind::PatternVar(1));
    }

    #[test]
    fn unbound_is_none() {
        assert!(CEnv::new().resolve(&ident("nope")).is_none());
    }
}
