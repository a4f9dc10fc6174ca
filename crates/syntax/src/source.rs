//! Source objects: the profile-point representation.
//!
//! Following Chez Scheme (§4.1 of the paper), a source object is a filename
//! plus starting and ending character positions. The reader attaches one to
//! every syntax object it reads. Because each source object uniquely names a
//! counter, source objects *are* the profile points of the design (§3.1).
//!
//! Meta-programs manufacture **fresh** profile points with
//! [`SourceFactory::make_profile_point`], which — exactly as the paper
//! describes — derives a fresh source object "by adding a suffix to the
//! filename of a base source object", deterministically, so that generated
//! points are stable across compilations and their profile data can be
//! looked up on the next run.

use crate::hash::FnvHashMap;
use crate::intern::Symbol;
use std::collections::HashMap;
use std::fmt;

/// A Chez-style source object: filename plus begin/end file position.
///
/// Doubles as a profile point: the profiler keys counters on `SourceObject`s.
///
/// # Example
///
/// ```
/// use pgmp_syntax::SourceObject;
/// let s = SourceObject::new("prog.scm", 10, 25);
/// assert_eq!(s.to_string(), "prog.scm:10-25");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct SourceObject {
    /// Interned filename (or synthetic filename for generated points).
    pub file: Symbol,
    /// Begin file position (byte offset).
    pub bfp: u32,
    /// End file position (byte offset, exclusive).
    pub efp: u32,
}

impl SourceObject {
    /// Creates a source object covering `bfp..efp` in `file`.
    pub fn new(file: &str, bfp: u32, efp: u32) -> SourceObject {
        SourceObject {
            file: Symbol::intern(file),
            bfp,
            efp,
        }
    }

    /// True for source objects produced by [`SourceFactory::make_profile_point`]
    /// rather than by the reader.
    pub fn is_generated(&self) -> bool {
        self.file.as_str().contains("%pgmp")
    }
}

/// Sorts `(point, value)` rows by file name, then by span (`bfp`, then
/// `efp`).
///
/// `SourceObject`'s derived `Ord` compares interned name ids, which follow
/// the order in which a process happened to intern the names. This order
/// depends on the names alone, so rows that store equal profiles come out
/// in the same order in every process. Each distinct name is resolved
/// once.
///
/// # Example
///
/// ```
/// use pgmp_syntax::{sort_by_location, SourceObject};
/// let z = SourceObject::new("zz-sort.scm", 0, 1);
/// let a = SourceObject::new("aa-sort.scm", 4, 5);
/// let mut rows = vec![(z, 1), (a, 2)];
/// sort_by_location(&mut rows);
/// assert_eq!(rows, [(a, 2), (z, 1)]);
/// ```
pub fn sort_by_location<T>(rows: &mut [(SourceObject, T)]) {
    let mut ranks: FnvHashMap<Symbol, u32> = FnvHashMap::default();
    for (p, _) in rows.iter() {
        ranks.entry(p.file).or_insert(0);
    }
    let mut names: Vec<(&str, Symbol)> = ranks.keys().map(|f| (f.as_str(), *f)).collect();
    names.sort_unstable();
    for (rank, (_, f)) in names.into_iter().enumerate() {
        ranks.insert(f, rank as u32);
    }
    rows.sort_by_cached_key(|(p, _)| (ranks[&p.file], p.bfp, p.efp));
}

impl fmt::Display for SourceObject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}-{}", self.file, self.bfp, self.efp)
    }
}

/// Deterministic generator of fresh profile points.
///
/// Freshness is per-factory and per-base: the `n`-th point generated from
/// base file `f` is always `f%pgmp<n>`, so a meta-program that generates
/// points in a deterministic order gets the *same* points in every
/// compilation of the program — the property §3.1 requires so that profile
/// data collected for generated expressions in one run can be queried in the
/// next.
///
/// # Example
///
/// ```
/// use pgmp_syntax::{SourceFactory, SourceObject};
/// let mut f1 = SourceFactory::new();
/// let mut f2 = SourceFactory::new();
/// let base = SourceObject::new("lib.scm", 0, 4);
/// // Identical generation order => identical points across compilations.
/// assert_eq!(f1.make_profile_point(Some(base)), f2.make_profile_point(Some(base)));
/// ```
/// `PartialEq` compares allocation state: two factories are equal iff they
/// would generate identical point sequences from here on. The incremental
/// recompilation cache keys per-form reuse on this (a cached expansion is
/// only valid if point generation resumes from the exact state it was
/// originally produced under).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct SourceFactory {
    next_suffix: HashMap<Symbol, u32>,
}

impl SourceFactory {
    /// Creates a factory with no suffixes allocated.
    pub fn new() -> SourceFactory {
        SourceFactory::default()
    }

    /// Generates a fresh profile point.
    ///
    /// When `base` is given, the new point's filename is the base filename
    /// plus a `%pgmp<n>` suffix and the base's positions are preserved — so
    /// error messages arising from generated code still lead back to the
    /// originating source location (the "added benefit" noted in §4.1).
    /// Without a base, points are generated under the synthetic file
    /// `"<generated>"`.
    pub fn make_profile_point(&mut self, base: Option<SourceObject>) -> SourceObject {
        let (base_file, bfp, efp) = match base {
            Some(b) => (b.file, b.bfp, b.efp),
            None => (Symbol::intern("<generated>"), 0, 0),
        };
        let n = self.next_suffix.entry(base_file).or_insert(0);
        let point = SourceObject {
            file: Symbol::intern(&format!("{}%pgmp{}", base_file, *n)),
            bfp,
            efp,
        };
        *n += 1;
        point
    }

    /// Resets suffix allocation, as happens at the start of a fresh
    /// compilation: the next points generated will repeat the same sequence.
    pub fn reset(&mut self) {
        self.next_suffix.clear();
    }

    /// The allocation state as `(base file, next suffix)` pairs, sorted by
    /// file name for deterministic output. Together with
    /// [`SourceFactory::from_entries`] this is what session persistence
    /// stores, so a fresh process can resume point generation from the
    /// exact state a cached expansion was produced under.
    pub fn entries(&self) -> Vec<(Symbol, u32)> {
        let mut out: Vec<(Symbol, u32)> = self.next_suffix.iter().map(|(f, n)| (*f, *n)).collect();
        out.sort_by(|a, b| a.0.as_str().cmp(b.0.as_str()));
        out
    }

    /// Reconstructs a factory from [`SourceFactory::entries`] output.
    pub fn from_entries(entries: impl IntoIterator<Item = (Symbol, u32)>) -> SourceFactory {
        SourceFactory {
            next_suffix: entries.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_across_factories() {
        let base = SourceObject::new("a.scm", 3, 9);
        let mut f1 = SourceFactory::new();
        let mut f2 = SourceFactory::new();
        for _ in 0..5 {
            assert_eq!(
                f1.make_profile_point(Some(base)),
                f2.make_profile_point(Some(base))
            );
        }
    }

    #[test]
    fn generated_points_are_distinct() {
        let base = SourceObject::new("a.scm", 3, 9);
        let mut f = SourceFactory::new();
        let p1 = f.make_profile_point(Some(base));
        let p2 = f.make_profile_point(Some(base));
        assert_ne!(p1, p2);
        assert!(p1.is_generated());
        assert!(p2.is_generated());
    }

    #[test]
    fn generated_points_preserve_positions() {
        let base = SourceObject::new("a.scm", 3, 9);
        let mut f = SourceFactory::new();
        let p = f.make_profile_point(Some(base));
        assert_eq!((p.bfp, p.efp), (3, 9));
        assert!(p.file.as_str().starts_with("a.scm%pgmp"));
    }

    #[test]
    fn reset_replays_the_sequence() {
        let base = SourceObject::new("a.scm", 0, 1);
        let mut f = SourceFactory::new();
        let first = f.make_profile_point(Some(base));
        f.make_profile_point(Some(base));
        f.reset();
        assert_eq!(f.make_profile_point(Some(base)), first);
    }

    #[test]
    fn no_base_uses_synthetic_file() {
        let mut f = SourceFactory::new();
        let p = f.make_profile_point(None);
        assert!(p.file.as_str().starts_with("<generated>"));
        assert!(p.is_generated());
    }

    #[test]
    fn reader_points_are_not_generated() {
        assert!(!SourceObject::new("a.scm", 0, 1).is_generated());
    }

    #[test]
    fn entries_round_trip_allocation_state() {
        let mut f = SourceFactory::new();
        f.make_profile_point(Some(SourceObject::new("b.scm", 0, 1)));
        f.make_profile_point(Some(SourceObject::new("a.scm", 0, 1)));
        f.make_profile_point(Some(SourceObject::new("a.scm", 2, 3)));
        let entries = f.entries();
        // Sorted by file, counts preserved.
        assert_eq!(
            entries
                .iter()
                .map(|(s, n)| (s.as_str().to_owned(), *n))
                .collect::<Vec<_>>(),
            vec![("a.scm".to_owned(), 2), ("b.scm".to_owned(), 1)]
        );
        let back = SourceFactory::from_entries(entries);
        assert_eq!(back, f, "equal factories generate equal sequences");
    }
}
