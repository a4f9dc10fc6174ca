//! Dense slot interning for profile points.
//!
//! The paper's Chez implementation is fast because a profile point compiles
//! down to *a plain counter increment*: the counter's address is burned into
//! the generated code, so the running program never hashes anything. A
//! [`SlotMap`] reproduces that: it interns each [`SourceObject`] to a stable
//! `u32` slot exactly once — at instrumentation (annotation/compile) time —
//! after which every bump is a bounds-checked vector index.
//!
//! Slots are allocated densely in first-resolution order and are **never
//! recycled** for the lifetime of the map: clearing counters does not clear
//! the slot assignment, so slot ids cached on AST nodes (or embedded in
//! bytecode) stay valid across profile resets and incremental
//! re-compilation.

use pgmp_syntax::SourceObject;
use std::collections::HashMap;

/// An interning table from profile points to dense `u32` slots.
///
/// # Example
///
/// ```
/// use pgmp_profiler::SlotMap;
/// use pgmp_syntax::SourceObject;
/// let mut m = SlotMap::new();
/// let p = SourceObject::new("x.scm", 0, 5);
/// let s = m.resolve(p);
/// assert_eq!(m.resolve(p), s, "resolution is stable");
/// assert_eq!(m.point(s), p);
/// ```
#[derive(Clone, Debug, Default)]
pub struct SlotMap {
    slots: HashMap<SourceObject, u32>,
    points: Vec<SourceObject>,
}

impl SlotMap {
    /// Creates an empty map.
    pub fn new() -> SlotMap {
        SlotMap::default()
    }

    /// Returns the slot for `p`, interning it if this is the first
    /// resolution. Slots are dense: the `n`-th distinct point gets slot
    /// `n - 1`.
    pub fn resolve(&mut self, p: SourceObject) -> u32 {
        let points = &mut self.points;
        *self.slots.entry(p).or_insert_with(|| {
            points.push(p);
            (points.len() - 1) as u32
        })
    }

    /// The slot previously assigned to `p`, if any (never interns).
    pub fn get(&self, p: SourceObject) -> Option<u32> {
        self.slots.get(&p).copied()
    }

    /// The profile point occupying `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` was never allocated.
    pub fn point(&self, slot: u32) -> SourceObject {
        self.points[slot as usize]
    }

    /// Number of interned points (== the number of live slots).
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True iff no point has been interned.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The interned points in slot order (`points()[s]` occupies slot `s`).
    pub fn points(&self) -> &[SourceObject] {
        &self.points
    }

    /// Checks that this table and `other` agree on every slot both have
    /// assigned: one table must be a (possibly equal) prefix extension of
    /// the other. Compatible tables give the same dense slot the same
    /// profile point, so counters indexed under either table can be
    /// combined without aliasing; the §3.2 merge in `pgmp-profile merge`
    /// and the fleet daemon's handshake both gate on this.
    ///
    /// # Errors
    ///
    /// Returns the first disagreeing slot with the point each side
    /// assigned to it.
    pub fn check_compatible(&self, other: &SlotMap) -> Result<(), SlotTableMismatch> {
        let shared = self.points.len().min(other.points.len());
        for slot in 0..shared {
            if self.points[slot] != other.points[slot] {
                return Err(SlotTableMismatch {
                    slot: slot as u32,
                    left: self.points[slot],
                    right: other.points[slot],
                });
            }
        }
        Ok(())
    }

    /// Classifies `other` against this table for merging, the shared
    /// policy behind both `pgmp-profile merge` and the fleet daemon's
    /// handshake:
    ///
    /// - [`SlotCompat::Extends`] — the tables agree on every shared slot
    ///   ([`SlotMap::check_compatible`]), so slot ids are interchangeable
    ///   with no translation; `other` may simply extend this table.
    /// - [`SlotCompat::Rekey`] — the tables disagree on some shared slot
    ///   but share at least one *point*: the same program interned its
    ///   points in a different order (dense slots are assigned partly at
    ///   first execution, so skewed workloads reorder them). Counters
    ///   indexed under `other` must be translated point-by-point before
    ///   combining — the carried [`SlotTableMismatch`] says where the
    ///   orders first diverge.
    ///
    /// # Errors
    ///
    /// Tables that disagree *and* share no point at all describe
    /// different programs; combining their slot-indexed counters could
    /// only alias, so that is the typed refusal.
    pub fn check_mergeable(&self, other: &SlotMap) -> Result<SlotCompat, SlotTableMismatch> {
        match self.check_compatible(other) {
            Ok(()) => Ok(SlotCompat::Extends),
            Err(mismatch) => {
                if other.points.iter().any(|p| self.slots.contains_key(p)) {
                    Ok(SlotCompat::Rekey(mismatch))
                } else {
                    Err(mismatch)
                }
            }
        }
    }

    /// Reconstructs a map from points already in slot order, as when loading
    /// a stored slot table: `points[i]` is assigned slot `i`.
    ///
    /// # Errors
    ///
    /// Returns the first duplicated point — a slot table must be a
    /// bijection, or cached slot ids would alias.
    pub fn from_points(
        points: impl IntoIterator<Item = SourceObject>,
    ) -> Result<SlotMap, SourceObject> {
        let points = points.into_iter();
        let n = points.size_hint().0;
        let mut m = SlotMap {
            slots: HashMap::with_capacity(n),
            points: Vec::with_capacity(n),
        };
        for p in points {
            let before = m.len();
            m.resolve(p);
            if m.len() == before {
                return Err(p);
            }
        }
        Ok(m)
    }
}

/// How a second slot table may be combined with a canonical one — the
/// successful outcomes of [`SlotMap::check_mergeable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotCompat {
    /// Every shared slot agrees: slot ids are interchangeable without
    /// translation and the longer table simply extends the shorter.
    Extends,
    /// Same points (at least in part), different interning order: counters
    /// must be re-keyed point-by-point. Carries the first disagreement,
    /// for diagnostics.
    Rekey(SlotTableMismatch),
}

/// Two slot tables assign different profile points to the same dense
/// slot — combining counters indexed under them would silently alias
/// unrelated points. See [`SlotMap::check_compatible`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotTableMismatch {
    /// The first slot the tables disagree on.
    pub slot: u32,
    /// The point the left-hand table assigns to `slot`.
    pub left: SourceObject,
    /// The point the right-hand table assigns to `slot`.
    pub right: SourceObject,
}

impl std::fmt::Display for SlotTableMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "incompatible slot tables: slot {} is `{}` on one side but `{}` on the other",
            self.slot, self.left, self.right
        )
    }
}

impl std::error::Error for SlotTableMismatch {}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(n: u32) -> SourceObject {
        SourceObject::new("s.scm", n, n + 1)
    }

    #[test]
    fn slots_are_dense_and_stable() {
        let mut m = SlotMap::new();
        assert_eq!(m.resolve(p(0)), 0);
        assert_eq!(m.resolve(p(1)), 1);
        assert_eq!(m.resolve(p(0)), 0, "re-resolution returns the same slot");
        assert_eq!(m.len(), 2);
        assert_eq!(m.point(0), p(0));
        assert_eq!(m.point(1), p(1));
        assert_eq!(m.get(p(2)), None);
    }

    #[test]
    fn points_in_slot_order() {
        let mut m = SlotMap::new();
        m.resolve(p(5));
        m.resolve(p(3));
        assert_eq!(m.points(), &[p(5), p(3)]);
    }

    #[test]
    fn from_points_round_trips() {
        let mut m = SlotMap::new();
        m.resolve(p(5));
        m.resolve(p(3));
        m.resolve(p(9));
        let back = SlotMap::from_points(m.points().iter().copied()).unwrap();
        assert_eq!(back.points(), m.points());
        assert_eq!(back.get(p(3)), Some(1));
    }

    #[test]
    fn from_points_rejects_duplicates() {
        assert!(matches!(SlotMap::from_points([p(0), p(1), p(0)]), Err(q) if q == p(0)));
    }

    #[test]
    fn prefix_tables_are_compatible_both_ways() {
        let long = SlotMap::from_points([p(0), p(1), p(2)]).unwrap();
        let short = SlotMap::from_points([p(0), p(1)]).unwrap();
        assert_eq!(long.check_compatible(&short), Ok(()));
        assert_eq!(short.check_compatible(&long), Ok(()));
        assert_eq!(long.check_compatible(&long), Ok(()));
        assert_eq!(SlotMap::new().check_compatible(&long), Ok(()));
    }

    #[test]
    fn disagreeing_slot_is_reported() {
        let a = SlotMap::from_points([p(0), p(1)]).unwrap();
        let b = SlotMap::from_points([p(0), p(9)]).unwrap();
        let err = a.check_compatible(&b).unwrap_err();
        assert_eq!(
            err,
            SlotTableMismatch {
                slot: 1,
                left: p(1),
                right: p(9),
            }
        );
        assert!(err.to_string().contains("slot 1"));
    }

    #[test]
    fn mergeable_distinguishes_extension_rekey_and_refusal() {
        let canon = SlotMap::from_points([p(0), p(1)]).unwrap();
        // Prefix extension: no translation needed.
        let longer = SlotMap::from_points([p(0), p(1), p(2)]).unwrap();
        assert_eq!(canon.check_mergeable(&longer), Ok(SlotCompat::Extends));
        // Same points, swapped order: re-key, carrying the divergence.
        let swapped = SlotMap::from_points([p(1), p(0)]).unwrap();
        match canon.check_mergeable(&swapped) {
            Ok(SlotCompat::Rekey(m)) => assert_eq!(m.slot, 0),
            other => panic!("expected rekey, got {other:?}"),
        }
        // No shared point at all: a different program, refused.
        let alien = SlotMap::from_points([p(7), p(8)]).unwrap();
        let err = canon.check_mergeable(&alien).unwrap_err();
        assert_eq!(err.slot, 0);
        // An empty canonical table accepts anything.
        assert_eq!(
            SlotMap::new().check_mergeable(&alien),
            Ok(SlotCompat::Extends)
        );
    }
}
