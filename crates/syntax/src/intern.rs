//! Global symbol interning.
//!
//! Symbols are the identifiers of the object language. Interning gives `O(1)`
//! equality and hashing, which matters because the expander resolves every
//! identifier through hash maps keyed on symbols.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{OnceLock, RwLock};

/// A globally interned identifier.
///
/// Two `Symbol`s are equal iff they were interned from the same string (or
/// produced by the same [`Symbol::gensym`] call). Symbols are `Copy` and
/// cheap to hash.
///
/// # Example
///
/// ```
/// use pgmp_syntax::Symbol;
/// let a = Symbol::intern("lambda");
/// let b = Symbol::intern("lambda");
/// assert_eq!(a, b);
/// assert_eq!(a.as_str(), "lambda");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

struct Interner {
    map: HashMap<&'static str, u32>,
    names: Vec<&'static str>,
}

// The table is append-only: ids are never reused and names never change,
// so lookups (`as_str`, and the fast path of `intern`) take only a read
// lock and run concurrently; the write lock is held just long enough to
// append a new name.
fn interner() -> &'static RwLock<Interner> {
    static INTERNER: OnceLock<RwLock<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        RwLock::new(Interner {
            map: HashMap::new(),
            names: Vec::new(),
        })
    })
}

static GENSYM_COUNTER: AtomicU64 = AtomicU64::new(0);

impl Symbol {
    /// Interns `name`, returning the canonical symbol for it.
    pub fn intern(name: &str) -> Symbol {
        {
            let guard = interner().read().expect("symbol interner poisoned");
            if let Some(&id) = guard.map.get(name) {
                return Symbol(id);
            }
        }
        let mut guard = interner().write().expect("symbol interner poisoned");
        // Re-check: another thread may have interned `name` between locks.
        if let Some(&id) = guard.map.get(name) {
            return Symbol(id);
        }
        // Leaking is fine: the set of distinct symbols in a compilation
        // session is small and lives for the whole process anyway.
        let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
        let id = guard.names.len() as u32;
        guard.names.push(leaked);
        guard.map.insert(leaked, id);
        Symbol(id)
    }

    /// Returns the string this symbol was interned from.
    pub fn as_str(self) -> &'static str {
        let guard = interner().read().expect("symbol interner poisoned");
        guard.names[self.0 as usize]
    }

    /// Generates a fresh symbol guaranteed not to be equal to any symbol
    /// interned before or after, with `base` as a readable prefix.
    ///
    /// Used by the expander for hygiene-safe generated binders.
    pub fn gensym(base: &str) -> Symbol {
        let n = GENSYM_COUNTER.fetch_add(1, Ordering::Relaxed);
        Symbol::intern(&format!("{base}%g{n}"))
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbol({})", self.as_str())
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::intern(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        assert_eq!(Symbol::intern("x"), Symbol::intern("x"));
        assert_ne!(Symbol::intern("x"), Symbol::intern("y"));
    }

    #[test]
    fn as_str_round_trips() {
        for name in ["foo", "bar-baz", "+", "...", "list->vector"] {
            assert_eq!(Symbol::intern(name).as_str(), name);
        }
    }

    #[test]
    fn gensym_is_fresh() {
        let a = Symbol::gensym("t");
        let b = Symbol::gensym("t");
        assert_ne!(a, b);
        assert!(a.as_str().starts_with('t'));
    }

    #[test]
    fn symbols_are_ordered_consistently() {
        let a = Symbol::intern("ord-a");
        let b = Symbol::intern("ord-b");
        assert_eq!(a.cmp(&b), a.cmp(&b));
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(Symbol::intern("display-me").to_string(), "display-me");
    }

    #[test]
    fn concurrent_intern_and_read_agree() {
        let syms: Vec<Symbol> = (0..64)
            .map(|i| Symbol::intern(&format!("conc-{i}")))
            .collect();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let syms = &syms;
                s.spawn(move || {
                    for (i, sym) in syms.iter().enumerate() {
                        assert_eq!(sym.as_str(), format!("conc-{i}"));
                        assert_eq!(Symbol::intern(&format!("conc-{i}")), *sym);
                    }
                });
            }
        });
    }
}
