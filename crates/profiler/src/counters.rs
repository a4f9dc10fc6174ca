//! Live profile counters and per-run datasets.
//!
//! Two representations live behind the same [`Counters`] handle, both
//! slot-indexed:
//!
//! - **Dense** (the default): each profile point is resolved once — at
//!   instrumentation time — to a stable `u32` slot in a [`SlotMap`], and a
//!   bump is an unsynchronized `Vec<Cell<u64>>` index. This is the cost
//!   model the paper assumes ("a profile point compiles down to a plain
//!   counter increment").
//! - **Sampling**: the always-on backend. A profiled event publishes a
//!   current-position beacon (one relaxed atomic store, see
//!   [`crate::sampling`]); a decoupled sampler thread ticking at a
//!   configurable rate reads the beacon and accumulates *estimated*
//!   tallies into the same slot space, so weights are statistical
//!   estimates rather than exact counts. Direct keyed/slot adds
//!   ([`Counters::add`], [`Counters::add_slot`]) still land exactly,
//!   which is what dataset absorption, merging, and the equivalence
//!   oracle rely on; only the hot-path [`Counters::record_hit`] trades
//!   exactness for ~zero mutator overhead.
//!
//! Both snapshot into the same [`Dataset`], so weight normalization,
//! dataset merging, and `store-profile`/`load-profile` are unchanged.

use crate::sampling::{Sampler, SamplingShared, DEFAULT_SAMPLE_HZ};
use crate::slots::SlotMap;
use pgmp_syntax::SourceObject;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Which counter representation a [`Counters`] registry uses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CounterImpl {
    /// Dense slot-indexed counters (resolve once, then vector bumps).
    #[default]
    Dense,
    /// Statistical sampling: hot-path events publish a position beacon
    /// (one relaxed store) and a sampler estimates counts from it.
    Sampling,
}

impl std::str::FromStr for CounterImpl {
    type Err = String;

    fn from_str(s: &str) -> Result<CounterImpl, String> {
        match s {
            "dense" => Ok(CounterImpl::Dense),
            "sampling" => Ok(CounterImpl::Sampling),
            other => Err(format!(
                "unknown counter impl `{other}` (dense|sampling)"
            )),
        }
    }
}

/// Process-global id generator for slot maps. Ids start at 1 so that 0
/// means "unresolved cache entry" — a slot cached on an AST node under map
/// id `m` is valid only against the `Counters` whose [`Counters::map_id`]
/// is exactly `m`.
static NEXT_MAP_ID: AtomicU32 = AtomicU32::new(1);

#[derive(Debug)]
enum Backend {
    Dense {
        map_id: u32,
        slots: RefCell<SlotMap>,
        counts: RefCell<Vec<Cell<u64>>>,
        /// Per-slot count as of the last [`Counters::take_delta`], the
        /// baseline the next delta is computed against.
        reported: RefCell<Vec<u64>>,
    },
    Sampling {
        map_id: u32,
        slots: RefCell<SlotMap>,
        /// Beacon + estimated tallies, shared with the sampler.
        shared: Arc<SamplingShared>,
        /// Per-slot tally as of the last [`Counters::take_delta`].
        reported: RefCell<Vec<u64>>,
        /// Wall-clock sampler thread; `None` when tests/benches drive
        /// [`Counters::sample_now`] deterministically instead.
        sampler: Option<Sampler>,
        /// Nominal tick rate (0 when manually driven) — recorded as
        /// `sampled@hz` provenance when the profile is stored.
        hz: u32,
    },
}

/// The live counter registry for one profiled execution.
///
/// A `Counters` handle is cheaply cloneable and shared: the engine hands one
/// to the evaluator, which bumps counters as annotated expressions execute,
/// and later snapshots it into a [`Dataset`].
///
/// # Example
///
/// ```
/// use pgmp_profiler::Counters;
/// use pgmp_syntax::SourceObject;
/// let c = Counters::new();
/// let p = SourceObject::new("x.scm", 0, 5);
/// c.increment(p);
/// c.increment(p);
/// assert_eq!(c.count(p), 2);
/// ```
#[derive(Clone, Debug)]
pub struct Counters {
    backend: Rc<Backend>,
}

impl Default for Counters {
    fn default() -> Counters {
        Counters::new()
    }
}

impl Counters {
    /// Creates an empty dense slot-indexed registry.
    pub fn new() -> Counters {
        Counters::with_impl(CounterImpl::Dense)
    }

    /// Creates an empty registry with an explicit representation. A
    /// sampling registry gets a wall-clock sampler at
    /// [`DEFAULT_SAMPLE_HZ`]; use [`Counters::with_sampling`] to pick the
    /// rate.
    pub fn with_impl(kind: CounterImpl) -> Counters {
        let backend = match kind {
            CounterImpl::Dense => Backend::Dense {
                map_id: NEXT_MAP_ID.fetch_add(1, Ordering::Relaxed),
                slots: RefCell::new(SlotMap::new()),
                counts: RefCell::new(Vec::new()),
                reported: RefCell::new(Vec::new()),
            },
            CounterImpl::Sampling => {
                return Counters::with_sampling(DEFAULT_SAMPLE_HZ);
            }
        };
        Counters {
            backend: Rc::new(backend),
        }
    }

    /// Creates a sampling registry whose sampler thread ticks at `hz`.
    pub fn with_sampling(hz: u32) -> Counters {
        Counters::sampling_with(SlotMap::new(), hz, true)
    }

    /// Creates a sampling registry with *no* sampler thread: tests and
    /// benchmarks call [`Counters::sample_now`] to take each sample
    /// deterministically.
    pub fn sampling_manual() -> Counters {
        Counters::sampling_with(SlotMap::new(), 0, false)
    }

    fn sampling_with(table: SlotMap, hz: u32, spawn: bool) -> Counters {
        let shared = Arc::new(SamplingShared::new());
        let sampler = spawn.then(|| Sampler::spawn(shared.clone(), hz));
        Counters {
            backend: Rc::new(Backend::Sampling {
                map_id: NEXT_MAP_ID.fetch_add(1, Ordering::Relaxed),
                slots: RefCell::new(table),
                shared,
                reported: RefCell::new(Vec::new()),
                sampler,
                hz,
            }),
        }
    }

    /// Creates a dense registry whose slot map is preloaded from `table`
    /// (as reloaded from a v2 profile file, see
    /// [`crate::StoredProfile`]): every point in `table` already has its
    /// slot, with all counts zero, so instrumentation that re-resolves the
    /// same points does no interning work and gets identical slot ids.
    ///
    /// The registry still gets a fresh [`Counters::map_id`] — slot caches
    /// packed against the *saving* process's map id are revalidated, not
    /// trusted.
    pub fn with_slot_table(table: SlotMap) -> Counters {
        let counts = vec![Cell::new(0); table.len()];
        Counters {
            backend: Rc::new(Backend::Dense {
                map_id: NEXT_MAP_ID.fetch_add(1, Ordering::Relaxed),
                slots: RefCell::new(table),
                counts: RefCell::new(counts),
                reported: RefCell::new(Vec::new()),
            }),
        }
    }

    /// The sampling analog of [`Counters::with_slot_table`]: slots
    /// preloaded from a v2 profile file, tallies zero, sampler ticking at
    /// `hz`.
    pub fn with_slot_table_sampling(table: SlotMap, hz: u32) -> Counters {
        Counters::sampling_with(table, hz, true)
    }

    /// A snapshot of the slot table. This is what a v2 profile file
    /// persists so the next process can skip re-interning.
    pub fn slot_table(&self) -> SlotMap {
        self.slots().clone()
    }

    fn slots(&self) -> std::cell::Ref<'_, SlotMap> {
        match &*self.backend {
            Backend::Dense { slots, .. } | Backend::Sampling { slots, .. } => slots.borrow(),
        }
    }

    /// The representation behind this registry.
    pub fn impl_kind(&self) -> CounterImpl {
        match &*self.backend {
            Backend::Dense { .. } => CounterImpl::Dense,
            Backend::Sampling { .. } => CounterImpl::Sampling,
        }
    }

    /// Identity of this registry's slot map (never 0). A slot id is only
    /// meaningful together with the map id it was resolved under; callers
    /// caching slots must revalidate against this before using
    /// [`Counters::add_slot`].
    pub fn map_id(&self) -> u32 {
        match &*self.backend {
            Backend::Dense { map_id, .. } | Backend::Sampling { map_id, .. } => *map_id,
        }
    }

    /// The nominal sampler rate: `Some(hz)` for sampling registries (0
    /// when manually driven), `None` for exact backends. This is what a
    /// stored profile records as `sampled@hz` provenance.
    pub fn sample_hz(&self) -> Option<u32> {
        match &*self.backend {
            Backend::Sampling { hz, .. } => Some(*hz),
            _ => None,
        }
    }

    /// The beacon/tally state shared with the sampler (`None` for exact
    /// backends). Exposed for boundary-time metric publication and for
    /// tests that inspect tick/hit/miss accounting.
    pub fn sampling_shared(&self) -> Option<Arc<SamplingShared>> {
        match &*self.backend {
            Backend::Sampling { shared, .. } => Some(shared.clone()),
            _ => None,
        }
    }

    /// Takes one sample deterministically (no-op on exact backends).
    /// Pairs with [`Counters::sampling_manual`] in tests and benchmarks.
    pub fn sample_now(&self) {
        if let Backend::Sampling { shared, .. } = &*self.backend {
            shared.sample_now();
        }
    }

    /// True when a wall-clock sampler thread is attached to this registry
    /// (always false for exact backends and manually driven sampling
    /// registries).
    pub fn has_sampler_thread(&self) -> bool {
        matches!(
            &*self.backend,
            Backend::Sampling {
                sampler: Some(_),
                ..
            }
        )
    }

    /// Resolves profile point `p` to its dense slot, interning it on first
    /// resolution. Stable: the same point always maps to the same slot for
    /// the lifetime of the registry (clearing counts does not disturb
    /// slots).
    pub fn resolve(&self, p: SourceObject) -> u32 {
        match &*self.backend {
            Backend::Dense { slots, counts, .. } => {
                let slot = slots.borrow_mut().resolve(p);
                let mut counts = counts.borrow_mut();
                if counts.len() <= slot as usize {
                    counts.resize(slot as usize + 1, Cell::new(0));
                }
                slot
            }
            Backend::Sampling { slots, .. } => slots.borrow_mut().resolve(p),
        }
    }

    /// Adds `n` to the counter in `slot`, saturating at `u64::MAX`. The
    /// dense fast path: no hashing, no entry allocation.
    ///
    /// # Panics
    ///
    /// Panics (dense) if `slot` was never resolved.
    #[inline]
    pub fn add_slot(&self, slot: u32, n: u64) {
        match &*self.backend {
            Backend::Dense { counts, .. } => {
                let counts = counts.borrow();
                let c = &counts[slot as usize];
                c.set(c.get().saturating_add(n));
            }
            Backend::Sampling { shared, .. } => shared.tallies().add(slot, n),
        }
    }

    /// Records one hot-path hit in `slot` — the per-event operation the
    /// instrumented interpreter emits. On exact backends this *counts*
    /// the hit ([`Counters::add_slot`] by one); on the sampling backend it
    /// only *publishes* the position beacon (one relaxed store) and the
    /// sampler supplies the estimated count.
    ///
    /// # Panics
    ///
    /// Panics (dense) if `slot` was never resolved.
    #[inline]
    pub fn record_hit(&self, slot: u32) {
        match &*self.backend {
            Backend::Dense { counts, .. } => {
                let counts = counts.borrow();
                let c = &counts[slot as usize];
                c.set(c.get().saturating_add(1));
            }
            Backend::Sampling { map_id, shared, .. } => shared.publish(*map_id, slot),
        }
    }

    /// Clears the published position beacon (no-op on exact backends).
    /// Called on run exit and around blocking waits so the sampler never
    /// attributes idle time to the last-executed profile point.
    #[inline]
    pub fn park(&self) {
        if let Backend::Sampling { shared, .. } = &*self.backend {
            shared.park();
        }
    }

    /// Current count in `slot` (the slot-indexed dual of
    /// [`Counters::count`]).
    ///
    /// # Panics
    ///
    /// Panics (dense) if `slot` was never resolved.
    pub fn count_slot(&self, slot: u32) -> u64 {
        match &*self.backend {
            Backend::Dense { counts, .. } => counts.borrow()[slot as usize].get(),
            Backend::Sampling { shared, .. } => shared.tallies().get(slot),
        }
    }

    /// Number of slots resolved so far. Unlike [`Counters::len`], this
    /// counts *instrumented* points, not *executed* ones, and is unaffected
    /// by [`Counters::clear`] — tests use it to assert that cached code
    /// replays without re-resolution.
    pub fn resolved_slots(&self) -> usize {
        self.slots().len()
    }

    /// Adds one to the counter for profile point `p`, saturating at
    /// `u64::MAX`.
    pub fn increment(&self, p: SourceObject) {
        self.add(p, 1);
    }

    /// Adds `n` to the counter for profile point `p`.
    ///
    /// Saturates at `u64::MAX` rather than wrapping: a long-running
    /// adaptive loop can genuinely exhaust a `u64` on a hot point, and a
    /// wrapped counter would silently invert every weight derived from it.
    pub fn add(&self, p: SourceObject, n: u64) {
        let slot = self.resolve(p);
        self.add_slot(slot, n);
    }

    /// Current count for `p` (0 if never incremented).
    pub fn count(&self, p: SourceObject) -> u64 {
        let slot = self.slots().get(p);
        slot.map_or(0, |slot| self.count_slot(slot))
    }

    /// Number of profile points with a nonzero count.
    pub fn len(&self) -> usize {
        match &*self.backend {
            Backend::Dense { counts, .. } => {
                counts.borrow().iter().filter(|c| c.get() > 0).count()
            }
            Backend::Sampling { slots, shared, .. } => {
                let n = slots.borrow().len() as u32;
                (0..n).filter(|&s| shared.tallies().get(s) > 0).count()
            }
        }
    }

    /// True iff nothing has been counted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Zeroes all counters. The slot assignment is preserved, so slot ids
    /// cached on AST nodes or embedded in bytecode stay valid across
    /// profile resets.
    pub fn clear(&self) {
        match &*self.backend {
            Backend::Dense { counts, .. } => {
                for c in counts.borrow().iter() {
                    c.set(0);
                }
            }
            Backend::Sampling { shared, .. } => shared.tallies().clear(),
        }
    }

    /// Extracts the counts accrued since the previous `take_delta` as
    /// dense `(slot, additional_hits)` pairs, and advances the baseline —
    /// each hit appears in exactly one delta. Slots whose count did not
    /// grow are omitted. This is the publisher-side extraction the fleet
    /// daemon's wire format consumes: no strings, no hashing, one pass
    /// over the dense counter vector.
    ///
    /// A [`Counters::clear`] between deltas rebases the baseline silently
    /// (counts that went *down* report nothing rather than underflowing).
    pub fn take_delta(&self) -> Vec<(u32, u64)> {
        match &*self.backend {
            Backend::Dense {
                counts, reported, ..
            } => {
                let counts = counts.borrow();
                let mut reported = reported.borrow_mut();
                if reported.len() < counts.len() {
                    reported.resize(counts.len(), 0);
                }
                let mut delta = Vec::new();
                for (i, c) in counts.iter().enumerate() {
                    let current = c.get();
                    let base = reported[i];
                    if current > base {
                        delta.push((i as u32, current - base));
                    }
                    reported[i] = current;
                }
                delta
            }
            Backend::Sampling {
                slots,
                shared,
                reported,
                ..
            } => {
                let n = slots.borrow().len();
                let mut reported = reported.borrow_mut();
                if reported.len() < n {
                    reported.resize(n, 0);
                }
                let mut delta = Vec::new();
                for (i, base) in reported.iter_mut().enumerate() {
                    let current = shared.tallies().get(i as u32);
                    if current > *base {
                        delta.push((i as u32, current - *base));
                    }
                    *base = current;
                }
                delta
            }
        }
    }

    /// Snapshots the current counts into an immutable [`Dataset`]. Points
    /// with a zero count are omitted, so dense and sampling registries fed
    /// the same exact adds snapshot to *identical* datasets.
    pub fn snapshot(&self) -> Dataset {
        let counts = match &*self.backend {
            Backend::Dense { slots, counts, .. } => {
                let slots = slots.borrow();
                counts
                    .borrow()
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| c.get() > 0)
                    .map(|(i, c)| (slots.point(i as u32), c.get()))
                    .collect()
            }
            Backend::Sampling { slots, shared, .. } => {
                let slots = slots.borrow();
                (0..slots.len() as u32)
                    .map(|i| (i, shared.tallies().get(i)))
                    .filter(|(_, c)| *c > 0)
                    .map(|(i, c)| (slots.point(i), c))
                    .collect()
            }
        };
        Dataset { counts }
    }
}

/// Profile counts from one run on one input — one "data set" in the paper's
/// terminology (§3.2). Absolute counts are only comparable *within* a
/// dataset; convert to weights before comparing across datasets.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Dataset {
    pub(crate) counts: HashMap<SourceObject, u64>,
}

impl Dataset {
    /// Creates an empty dataset.
    pub fn new() -> Dataset {
        Dataset::default()
    }

    /// Records an absolute count for `p`, replacing any previous value.
    pub fn record(&mut self, p: SourceObject, count: u64) {
        self.counts.insert(p, count);
    }

    /// Count for `p` (0 if absent).
    pub fn count(&self, p: SourceObject) -> u64 {
        self.counts.get(&p).copied().unwrap_or(0)
    }

    /// The largest count in the dataset, i.e. the count of "the most
    /// executed profile point in the same data set" (§3.2).
    pub fn max_count(&self) -> u64 {
        self.counts.values().copied().max().unwrap_or(0)
    }

    /// Number of recorded profile points.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// True iff no counts were recorded.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Iterates over `(point, count)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (SourceObject, u64)> + '_ {
        self.counts.iter().map(|(p, c)| (*p, *c))
    }
}

impl FromIterator<(SourceObject, u64)> for Dataset {
    fn from_iter<I: IntoIterator<Item = (SourceObject, u64)>>(iter: I) -> Dataset {
        Dataset {
            counts: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(n: u32) -> SourceObject {
        SourceObject::new("t.scm", n, n + 1)
    }

    /// One registry per backend. The sampling one is manually driven (no
    /// thread): with no `record_hit`/`sample_now` in sight its keyed and
    /// slot APIs must behave exactly like the dense backend.
    fn all_impls() -> [Counters; 2] {
        [Counters::new(), Counters::sampling_manual()]
    }

    #[test]
    fn increment_accumulates() {
        for c in all_impls() {
            c.increment(p(0));
            c.increment(p(0));
            c.increment(p(1));
            assert_eq!(c.count(p(0)), 2);
            assert_eq!(c.count(p(1)), 1);
            assert_eq!(c.count(p(2)), 0);
            assert_eq!(c.len(), 2);
        }
    }

    #[test]
    fn clones_share_state() {
        for c in all_impls() {
            let c2 = c.clone();
            c2.increment(p(0));
            assert_eq!(c.count(p(0)), 1);
        }
    }

    #[test]
    fn add_bulk() {
        for c in all_impls() {
            c.add(p(3), 10);
            c.add(p(3), 5);
            assert_eq!(c.count(p(3)), 15);
        }
    }

    #[test]
    fn counts_saturate_instead_of_wrapping() {
        for c in all_impls() {
            c.add(p(4), u64::MAX - 1);
            c.increment(p(4));
            c.increment(p(4));
            assert_eq!(c.count(p(4)), u64::MAX);
            c.add(p(4), 100);
            assert_eq!(c.count(p(4)), u64::MAX);
        }
    }

    #[test]
    fn snapshot_is_independent() {
        for c in all_impls() {
            c.increment(p(0));
            let snap = c.snapshot();
            c.increment(p(0));
            assert_eq!(snap.count(p(0)), 1);
            assert_eq!(c.count(p(0)), 2);
        }
    }

    #[test]
    fn clear_resets() {
        for c in all_impls() {
            c.increment(p(0));
            c.clear();
            assert!(c.is_empty());
        }
    }

    #[test]
    fn dense_slots_survive_clear() {
        for c in all_impls() {
            let s0 = c.resolve(p(0));
            let s1 = c.resolve(p(1));
            c.add_slot(s0, 3);
            c.clear();
            assert_eq!(c.count_slot(s0), 0);
            assert_eq!(c.resolve(p(0)), s0, "slot ids are stable across clear");
            assert_eq!(c.resolve(p(1)), s1);
            assert_eq!(c.resolved_slots(), 2);
            c.add_slot(s1, 7);
            assert_eq!(c.count(p(1)), 7);
        }
    }

    #[test]
    fn slot_and_keyed_apis_agree() {
        for c in all_impls() {
            let s = c.resolve(p(9));
            c.add_slot(s, 4);
            c.increment(p(9));
            assert_eq!(c.count(p(9)), 5);
            assert_eq!(c.count_slot(s), 5);
        }
    }

    #[test]
    fn map_ids_distinguish_registries() {
        let a = Counters::new();
        let b = Counters::new();
        assert_ne!(a.map_id(), b.map_id());
        assert_ne!(a.map_id(), 0);
        assert_ne!(Counters::sampling_manual().map_id(), 0);
        assert_eq!(a.map_id(), a.clone().map_id(), "clones share the map");
    }

    #[test]
    fn all_backends_snapshot_identically() {
        let [dense, sampling] = all_impls();
        for (point, n) in [(p(0), 2), (p(7), 1), (p(0), 3), (p(2), 5)] {
            dense.add(point, n);
            sampling.add(point, n);
        }
        assert_eq!(dense.snapshot(), sampling.snapshot());
    }

    #[test]
    fn preloaded_slot_table_skips_interning() {
        let c = Counters::new();
        let s0 = c.resolve(p(0));
        let s1 = c.resolve(p(1));
        let warm = Counters::with_slot_table(c.slot_table());
        assert_eq!(warm.resolved_slots(), 2, "slots preloaded");
        assert!(warm.is_empty(), "counts start at zero");
        assert_eq!(warm.resolve(p(0)), s0, "same slot ids as the saver");
        assert_eq!(warm.resolve(p(1)), s1);
        warm.add_slot(s1, 3);
        assert_eq!(warm.count(p(1)), 3);
        assert_ne!(warm.map_id(), c.map_id(), "fresh map id");
    }

    #[test]
    fn take_delta_partitions_hits_exactly() {
        for c in all_impls() {
            let s0 = c.resolve(p(0));
            let s1 = c.resolve(p(1));
            c.add_slot(s0, 5);
            assert_eq!(c.take_delta(), vec![(s0, 5)]);
            assert_eq!(c.take_delta(), vec![], "no new hits, no delta");
            c.add_slot(s0, 2);
            c.add_slot(s1, 1);
            let mut d = c.take_delta();
            d.sort_unstable();
            assert_eq!(d, vec![(s0, 2), (s1, 1)]);
            // Sum of all deltas equals the live totals: each hit in exactly one.
            assert_eq!(c.count_slot(s0), 7);
            assert_eq!(c.count_slot(s1), 1);
        }
    }

    #[test]
    fn take_delta_rebases_after_clear() {
        for c in all_impls() {
            let s = c.resolve(p(0));
            c.add_slot(s, 10);
            assert_eq!(c.take_delta(), vec![(s, 10)]);
            c.clear();
            assert_eq!(c.take_delta(), vec![], "shrunk counts report nothing");
            c.add_slot(s, 3);
            assert_eq!(c.take_delta(), vec![(s, 3)], "baseline rebased to zero");
        }
    }

    #[test]
    fn record_hit_publishes_instead_of_counting() {
        let c = Counters::sampling_manual();
        let s0 = c.resolve(p(0));
        let s1 = c.resolve(p(1));
        c.record_hit(s0);
        assert_eq!(c.count_slot(s0), 0, "a hit alone tallies nothing");
        c.sample_now();
        c.sample_now();
        assert_eq!(c.count_slot(s0), 2, "each sample tallies the beacon");
        c.record_hit(s1);
        c.sample_now();
        assert_eq!(c.count_slot(s0), 2);
        assert_eq!(c.count_slot(s1), 1);
        let shared = c.sampling_shared().unwrap();
        assert_eq!(shared.stats(), (3, 3, 0));
    }

    #[test]
    fn park_stops_attribution() {
        let c = Counters::sampling_manual();
        let s = c.resolve(p(0));
        c.record_hit(s);
        c.park();
        c.sample_now();
        assert_eq!(c.count_slot(s), 0, "parked beacon attributes nothing");
        assert_eq!(c.sampling_shared().unwrap().stats(), (1, 0, 1));
    }

    #[test]
    fn dense_record_hit_counts_exactly() {
        let c = Counters::new();
        let s = c.resolve(p(0));
        c.record_hit(s);
        c.record_hit(s);
        assert_eq!(c.count_slot(s), 2);
    }

    #[test]
    fn sampling_preloaded_slot_table_skips_interning() {
        let c = Counters::new();
        let s0 = c.resolve(p(0));
        let warm = Counters::with_slot_table_sampling(c.slot_table(), 101);
        assert_eq!(warm.resolved_slots(), 1, "slots preloaded");
        assert_eq!(warm.resolve(p(0)), s0, "same slot ids as the saver");
        assert_eq!(warm.impl_kind(), CounterImpl::Sampling);
        assert_eq!(warm.sample_hz(), Some(101));
        assert_eq!(Counters::new().sample_hz(), None);
    }

    #[test]
    fn dataset_max_count() {
        let d: Dataset = [(p(0), 5), (p(1), 10)].into_iter().collect();
        assert_eq!(d.max_count(), 10);
        assert_eq!(Dataset::new().max_count(), 0);
    }
}
