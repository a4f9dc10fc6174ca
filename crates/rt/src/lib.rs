//! Runtime support for the **Rust proc-macro implementation** of
//! profile-guided meta-programming.
//!
//! The paper validates its design by implementing it in two
//! meta-programming systems (Chez Scheme and Racket). This workspace does
//! the same: the main implementation is the embedded Scheme-like system
//! (`pgmp` crate); the second is Rust's own meta-programming system —
//! procedural macros (`pgmp-macros`), with this crate as their run time.
//!
//! Both implementations count on the same substrate, `pgmp-profiler`.
//! Profile points here are string names; the point named `n` is the
//! source object `SourceObject::new(n, 0, 0)`, and counters live in one
//! process-global [`pgmp_profiler::ShardedCounters`] ([`registry`]), so
//! concurrent threads count with lock-free atomic adds. The code the
//! macros generate caches each point's slot in a `static` [`Point`]: after
//! its first hit, a hit hashes nothing. Profiles are read and written by
//! `pgmp-profiler`'s store, in the same textual format as the main system
//! (point names play the role of filenames, with zero spans), so the two
//! implementations' profile files are mutually readable.
//!
//! # Example
//!
//! ```
//! pgmp_rt::reset();
//! pgmp_rt::enable_profiling();
//! for _ in 0..3 {
//!     pgmp_rt::hit("demo#0");
//! }
//! pgmp_rt::hit("demo#1");
//! pgmp_rt::disable_profiling();
//!
//! let w = pgmp_rt::snapshot_weights();
//! assert_eq!(w.weight("demo#0"), 1.0);
//! assert!((w.weight("demo#1") - 1.0 / 3.0).abs() < 1e-12);
//! ```

use pgmp_profiler::{
    write_atomic, Dataset, ProfileInformation, ProfileStoreError, ShardedCounters, StoredProfile,
};
use pgmp_syntax::{SourceObject, Symbol};
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// The process-global counter registry the generated instrumentation hits.
pub fn registry() -> &'static ShardedCounters {
    static REGISTRY: OnceLock<ShardedCounters> = OnceLock::new();
    REGISTRY.get_or_init(ShardedCounters::new)
}

/// The source object standing for the point named `name`.
fn point(name: &str) -> SourceObject {
    SourceObject::new(name, 0, 0)
}

/// Turns counting on. Off by default: profile points introduce only a
/// relaxed atomic load when disabled (§3.1's "no overhead when not
/// instrumented", approximated).
pub fn enable_profiling() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns counting off.
pub fn disable_profiling() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether [`hit`] currently counts.
#[inline]
pub fn profiling_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// A profile point named at compile time, as the `pgmp-macros`
/// instrumentation generates it: one `static` per point, which resolves
/// its name to a [`registry`] slot on the first counted hit and keeps it.
/// Slots survive [`reset`], so a cached slot stays valid for the life of
/// the process.
#[derive(Debug)]
pub struct Point {
    name: &'static str,
    slot: OnceLock<u32>,
}

impl Point {
    /// The point named `name`; counts into the same counter as
    /// [`hit`]`(name)`.
    pub const fn new(name: &'static str) -> Point {
        Point {
            name,
            slot: OnceLock::new(),
        }
    }

    /// Counts one hit when profiling is enabled. After the first counted
    /// hit this is two relaxed loads and one saturating atomic add.
    #[inline]
    pub fn hit(&self) {
        if profiling_enabled() {
            self.count();
        }
    }

    /// The enabled half of [`Point::hit`], kept out of line so the
    /// disabled check inlined into every instrumented site stays one load
    /// and one branch.
    #[cold]
    #[inline(never)]
    fn count(&self) {
        let slot = *self
            .slot
            .get_or_init(|| registry().resolve(point(self.name)));
        registry().add_slot(slot, 1);
    }
}

/// Increments `name`'s counter when profiling is enabled; this form looks
/// the point up on every call, where a [`Point`] looks it up once.
///
/// Saturates at `u64::MAX` rather than wrapping: a long-running adaptive
/// loop can genuinely exhaust a `u64` on a hot point, and a wrapped counter
/// would silently invert every weight computed from it.
#[inline]
pub fn hit(name: &str) {
    if profiling_enabled() {
        registry().increment(point(name));
    }
}

/// Current count of the point `name`.
pub fn count(name: &str) -> u64 {
    registry().count(point(name))
}

/// Zeroes all counters (does not change the enabled flag). Slots cached
/// by [`Point`]s stay valid.
pub fn reset() {
    registry().clear();
}

/// Profile weights in `[0, 1]`, normalized by the hottest point of the
/// dataset — the paper's §3.2 abstraction — queried by point name. This
/// is a by-name view over `pgmp-profiler`'s [`ProfileInformation`], which
/// also does the reading, writing and §3.2 merging.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Weights {
    info: ProfileInformation,
}

impl Weights {
    /// Weights with no datasets; every query is 0.
    pub fn empty() -> Weights {
        Weights::default()
    }

    /// Builds weights from raw counts (one dataset).
    pub fn from_counts(counts: &HashMap<String, u64>) -> Weights {
        let dataset: Dataset = counts.iter().map(|(k, c)| (point(k), *c)).collect();
        Weights {
            info: ProfileInformation::from_dataset(&dataset),
        }
    }

    /// The weight of the point `name`, `0.0` when unknown. A file written
    /// by the main system may hold several points with one file name (one
    /// per span); the name's weight is then the largest of theirs.
    pub fn weight(&self, name: &str) -> f64 {
        let file = Symbol::intern(name);
        self.info
            .iter()
            .filter(|(p, _)| p.file == file)
            .fold(0.0, |max, (_, w)| f64::max(max, w))
    }

    /// True when no dataset has been incorporated.
    pub fn is_empty(&self) -> bool {
        self.info.is_empty()
    }

    /// Number of datasets summarized.
    pub fn dataset_count(&self) -> usize {
        self.info.dataset_count()
    }

    /// Merges by dataset-weighted averaging (Figure 3 of the paper).
    pub fn merge(&self, other: &Weights) -> Weights {
        Weights {
            info: self.info.merge(&other.info),
        }
    }

    /// Serializes in the shared textual format (version 1).
    pub fn to_profile_string(&self) -> String {
        self.info.store_to_string()
    }

    /// Parses the shared textual format, either version.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileStoreError`] on any structural problem or weight
    /// outside `[0, 1]`.
    pub fn parse(text: &str) -> Result<Weights, ProfileStoreError> {
        Ok(Weights {
            info: StoredProfile::load_from_str(text)?.info,
        })
    }

    /// Loads and parses a profile file. Emits no trace events, so a macro
    /// expanding inside the compiler stays silent.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileStoreError::Io`] when the file cannot be read and
    /// the errors of [`Weights::parse`] otherwise.
    pub fn load(path: impl AsRef<Path>) -> Result<Weights, ProfileStoreError> {
        Weights::parse(&std::fs::read_to_string(path)?)
    }

    /// Writes the profile to `path` atomically: temp file in the same
    /// directory + fsync + rename, so a crash mid-write can't leave a torn
    /// profile behind.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn store(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        write_atomic(path, &self.to_profile_string())
    }
}

/// Snapshots the live counters into [`Weights`] (what `store-profile`
/// writes).
pub fn snapshot_weights() -> Weights {
    Weights {
        info: ProfileInformation::from_dataset(&registry().snapshot()),
    }
}

/// Stores the live counters' weights to `path` — Figure 4's
/// `store-profile` for the proc-macro implementation.
///
/// # Errors
///
/// Returns the underlying I/O error.
pub fn store_profile(path: impl AsRef<Path>) -> std::io::Result<()> {
    snapshot_weights().store(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global; tests touching it use unique point
    // names to avoid cross-test interference.

    #[test]
    fn hit_counts_only_when_enabled() {
        disable_profiling();
        hit("rt-test-disabled");
        assert_eq!(count("rt-test-disabled"), 0);
        enable_profiling();
        hit("rt-test-enabled");
        hit("rt-test-enabled");
        assert_eq!(count("rt-test-enabled"), 2);
        disable_profiling();
    }

    #[test]
    fn weights_normalize_and_merge() {
        let mut c1 = HashMap::new();
        c1.insert("a".to_owned(), 5);
        c1.insert("b".to_owned(), 10);
        let w1 = Weights::from_counts(&c1);
        assert_eq!(w1.weight("a"), 0.5);
        assert_eq!(w1.weight("b"), 1.0);
        let mut c2 = HashMap::new();
        c2.insert("a".to_owned(), 100);
        c2.insert("b".to_owned(), 10);
        let merged = w1.merge(&Weights::from_counts(&c2));
        assert_eq!(merged.weight("a"), 0.75);
        assert_eq!(merged.weight("b"), 0.55);
        assert_eq!(merged.dataset_count(), 2);
    }

    #[test]
    fn profile_text_round_trips() {
        let mut c = HashMap::new();
        c.insert("parse#0".to_owned(), 55);
        c.insert("parse#1".to_owned(), 10);
        let w = Weights::from_counts(&c);
        let text = w.to_profile_string();
        let back = Weights::parse(&text).unwrap();
        assert_eq!(back, w);
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "",
            "(not-a-profile)",
            "(pgmp-profile (version 3))",
            "(pgmp-profile (point \"x\" 0 0 1.5))",
            "(pgmp-profile (point 7 0 0 0.5))",
            "(pgmp-profile (mystery))",
            "(pgmp-profile (version 2) (slot 0 \"x\" 0 0 1.5))",
            "(pgmp-profile (version 2) (slots nope))",
        ] {
            assert!(Weights::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("pgmp-rt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rt.pgmp");
        let mut c = HashMap::new();
        c.insert("x".to_owned(), 3);
        let w = Weights::from_counts(&c);
        w.store(&path).unwrap();
        assert_eq!(Weights::load(&path).unwrap(), w);
        assert!(Weights::load("/nonexistent/p.pgmp").is_err());
    }

    #[test]
    fn main_system_format_is_readable() {
        // A file written by pgmp-profiler (filenames + spans) parses here
        // too; span info is ignored.
        let text = "(pgmp-profile\n (version 1)\n (datasets 2)\n (point \"a.scm\" 3 9 0.5))";
        let w = Weights::parse(text).unwrap();
        assert_eq!(w.weight("a.scm"), 0.5);
        assert_eq!(w.dataset_count(), 2);
    }

    #[test]
    fn main_system_v2_format_is_readable() {
        // v2 files carry a slot table; this crate keys by name, so the
        // index and spans are ignored but slot weights are kept.
        let text = "(pgmp-profile\n (version 2)\n (datasets 1)\n (slots 2)\n \
                    (slot 0 \"hot.scm\" 3 9 1.0)\n (slot 1 \"cold.scm\" 0 2)\n \
                    (point \"extra.scm\" 0 1 0.25))";
        let w = Weights::parse(text).unwrap();
        assert_eq!(w.weight("hot.scm"), 1.0);
        assert_eq!(w.weight("cold.scm"), 0.0, "weightless slot entry");
        assert_eq!(w.weight("extra.scm"), 0.25);
    }

    #[test]
    fn name_weight_is_the_largest_of_its_spans() {
        let text = "(pgmp-profile (version 1) (datasets 1) \
                    (point \"f.scm\" 0 4 0.25) (point \"f.scm\" 5 9 1.0) \
                    (point \"f.scm\" 10 12 0.5))";
        assert_eq!(Weights::parse(text).unwrap().weight("f.scm"), 1.0);
    }
}
